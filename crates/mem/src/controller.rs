//! Per-channel DRAM controller with FR-FCFS scheduling.
//!
//! The controller keeps per-bank row state and timing gates and serializes
//! data bursts through a per-channel [`BandwidthGate`]. Scheduling follows
//! FR-FCFS: among queued requests, row-buffer hits are served first, then the
//! oldest request wins; a request's full command timeline (PRE/ACT/RD or WR)
//! is computed when it is picked, updating the bank gates so later picks see
//! the bank busy.

use m2ndp_sim::{BandwidthGate, Counter, Cycle, EventQueue, Fingerprint, Frequency};

use crate::config::DramConfig;
use crate::mapping::DramCoord;
use crate::req::MemReq;

/// Per-bank row-buffer and timing state.
#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the next ACT to this bank may issue (tRC from last ACT,
    /// tRP from last PRE).
    next_act: Cycle,
    /// Earliest cycle a column command may issue after ACT (tRCD).
    next_col: Cycle,
    /// Earliest cycle a PRE may issue.
    next_pre: Cycle,
}

/// Outcome classification for one serviced request (row locality stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was closed; only ACT was needed.
    Miss,
    /// A different row was open; PRE + ACT were needed.
    Conflict,
}

/// Statistics for one channel.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row misses (bank closed).
    pub row_misses: Counter,
    /// Row conflicts (wrong row open).
    pub row_conflicts: Counter,
    /// Data bytes moved (both directions).
    pub bytes: Counter,
    /// Requests serviced.
    pub requests: Counter,
}

impl ChannelStats {
    /// Fraction of requests that hit the open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.requests.get();
        if total == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / total as f64
        }
    }
}

/// Sentinel index terminating the intrusive queue list.
const NIL: u32 = u32::MAX;

/// One queue slot in the channel's request arena. Slots are recycled
/// through a freelist so steady-state enqueue/dequeue never allocates and
/// dequeue is O(1) (the old `Vec::remove` shifted the whole tail). Live
/// slots are threaded onto an intrusive doubly-linked list in insertion
/// order, so scheduling scans visit only live requests — never the dead
/// slots between them.
#[derive(Debug, Clone)]
struct QueueSlot {
    arrived: Cycle,
    /// Insertion counter; `(arrived, seq)` reproduces the FIFO tie-break the
    /// insertion-ordered `Vec` gave for same-cycle arrivals.
    seq: u64,
    req: MemReq,
    coord: DramCoord,
    live: bool,
    /// Next live slot in insertion order ([`NIL`] at the tail).
    next: u32,
    /// Previous live slot in insertion order ([`NIL`] at the head).
    prev: u32,
}

/// One DRAM channel: request queue, banks, data bus.
#[derive(Debug)]
pub struct DramChannel {
    banks: Vec<Bank>,
    bankgroups: u32,
    /// Request arena: `live` slots are the queue; dead slots are on `free`.
    slots: Vec<QueueSlot>,
    free: Vec<u32>,
    live_count: usize,
    /// Head/tail of the intrusive insertion-ordered list of live slots.
    head: u32,
    tail: u32,
    /// Whether the list is `(arrived, seq)`-sorted (true whenever arrival
    /// cycles have been monotone, i.e. always under a forward-running
    /// clock). Enables the early-exit FR-FCFS walk; a non-monotone
    /// enqueue falls back to the keyed scan with identical semantics.
    arrivals_sorted: bool,
    enq_seq: u64,
    queue_depth: usize,
    bus: BandwidthGate,
    /// Completion events: (data-ready cycle, request).
    completions: EventQueue<MemReq>,
    /// Timing parameters converted to owner-clock cycles.
    t_rc: Cycle,
    t_rcd: Cycle,
    t_cl: Cycle,
    t_rp: Cycle,
    t_ccd_l: Cycle,
    access_bytes: u32,
    /// Last column command cycle per bankgroup, for tCCD_L.
    last_col_in_group: Vec<Cycle>,
    stats: ChannelStats,
}

impl DramChannel {
    /// Builds a channel from `cfg`, with timing converted into the `owner`
    /// clock domain.
    pub fn new(cfg: &DramConfig, owner: Frequency) -> Self {
        let banks = vec![Bank::default(); cfg.banks_per_channel() as usize];
        let bytes_per_cycle = owner.bytes_per_cycle(cfg.channel_bw_bytes_per_sec());
        Self {
            banks,
            bankgroups: cfg.bankgroups,
            slots: Vec::with_capacity(cfg.queue_depth),
            free: Vec::with_capacity(cfg.queue_depth),
            live_count: 0,
            head: NIL,
            tail: NIL,
            arrivals_sorted: true,
            enq_seq: 0,
            queue_depth: cfg.queue_depth,
            bus: BandwidthGate::new(bytes_per_cycle),
            completions: EventQueue::new(),
            t_rc: cfg.to_owner_cycles(cfg.timing.t_rc, owner),
            t_rcd: cfg.to_owner_cycles(cfg.timing.t_rcd, owner),
            t_cl: cfg.to_owner_cycles(cfg.timing.t_cl, owner),
            t_rp: cfg.to_owner_cycles(cfg.timing.t_rp, owner),
            t_ccd_l: cfg.to_owner_cycles(cfg.timing.t_ccd_l, owner),
            access_bytes: cfg.access_bytes,
            last_col_in_group: vec![0; cfg.bankgroups as usize],
            stats: ChannelStats::default(),
        }
    }

    /// Whether the request queue has room.
    pub fn can_accept(&self) -> bool {
        self.live_count < self.queue_depth
    }

    /// Enqueues a request with its decomposed coordinates.
    ///
    /// # Errors
    /// Returns the request back if the queue is full.
    pub fn enqueue(&mut self, now: Cycle, req: MemReq, coord: DramCoord) -> Result<(), MemReq> {
        if !self.can_accept() {
            return Err(req);
        }
        let seq = self.enq_seq;
        self.enq_seq += 1;
        if self.tail != NIL && self.slots[self.tail as usize].arrived > now {
            self.arrivals_sorted = false;
        }
        let slot = QueueSlot {
            arrived: now,
            seq,
            req,
            coord,
            live: true,
            next: NIL,
            prev: self.tail,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        match self.tail {
            NIL => self.head = idx,
            t => self.slots[t as usize].next = idx,
        }
        self.tail = idx;
        self.live_count += 1;
        Ok(())
    }

    /// Unlinks a live slot from the queue list and recycles it, returning
    /// its request payload.
    fn dequeue(&mut self, idx: usize) -> (MemReq, DramCoord) {
        let (req, coord, prev, next) = {
            let slot = &mut self.slots[idx];
            slot.live = false;
            (slot.req, slot.coord, slot.prev, slot.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.free.push(idx as u32);
        self.live_count -= 1;
        if self.live_count == 0 {
            // An empty list is trivially sorted again.
            self.arrivals_sorted = true;
        }
        (req, coord)
    }

    fn bank_index(&self, coord: &DramCoord) -> usize {
        (coord.bankgroup * (self.banks.len() as u32 / self.bankgroups) + coord.bank) as usize
    }

    /// FR-FCFS pick: oldest row hit first, else oldest overall. "Oldest" is
    /// `(arrived, seq)`-minimal, which matches the old insertion-ordered
    /// `Vec` scan exactly (same-cycle ties go to the earlier enqueue).
    ///
    /// The walk follows the intrusive live list, so dead arena slots cost
    /// nothing. When the list is arrival-sorted (the steady state), the
    /// head is the oldest eligible request and the first row hit
    /// encountered is the oldest hit, so the walk stops at the first hit —
    /// and stops entirely at the first not-yet-arrived request.
    fn pick(&self, now: Cycle) -> Option<usize> {
        if self.arrivals_sorted {
            let mut first: Option<usize> = None;
            let mut i = self.head;
            while i != NIL {
                let slot = &self.slots[i as usize];
                if slot.arrived > now {
                    break;
                }
                if first.is_none() {
                    first = Some(i as usize);
                }
                let bank = &self.banks[self.bank_index(&slot.coord)];
                if bank.open_row == Some(slot.coord.row) {
                    return Some(i as usize);
                }
                i = slot.next;
            }
            return first;
        }
        let mut best_hit: Option<(Cycle, u64, usize)> = None;
        let mut best_any: Option<(Cycle, u64, usize)> = None;
        let mut i = self.head;
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.arrived <= now {
                let key = (slot.arrived, slot.seq);
                let bank = &self.banks[self.bank_index(&slot.coord)];
                let is_hit = bank.open_row == Some(slot.coord.row);
                if is_hit && best_hit.is_none_or(|(a, s, _)| key < (a, s)) {
                    best_hit = Some((key.0, key.1, i as usize));
                }
                if best_any.is_none_or(|(a, s, _)| key < (a, s)) {
                    best_any = Some((key.0, key.1, i as usize));
                }
            }
            i = slot.next;
        }
        best_hit.or(best_any).map(|(_, _, i)| i)
    }

    /// Services up to `max_picks` requests this cycle and returns how many
    /// were started.
    pub fn tick(&mut self, now: Cycle, max_picks: usize) -> usize {
        let mut started = 0;
        while started < max_picks {
            // Cap scheduled-but-not-completed requests at the bank count:
            // enough to pipeline CAS latency and keep the data bus saturated,
            // without letting the analytic scheduler run unboundedly ahead of
            // requests that have not arrived yet.
            if self.completions.len() >= self.banks.len() {
                break;
            }
            let Some(idx) = self.pick(now) else { break };
            let (req, coord) = self.dequeue(idx);
            self.service(now, req, coord);
            started += 1;
        }
        started
    }

    /// Computes the timeline for one request and schedules its completion.
    fn service(&mut self, now: Cycle, req: MemReq, coord: DramCoord) {
        let bank_idx = self.bank_index(&coord);
        let group = coord.bankgroup as usize;
        let t_rp = self.t_rp;
        let t_rc = self.t_rc;
        let t_rcd = self.t_rcd;
        let t_ccd_l = self.t_ccd_l;
        let bank = &mut self.banks[bank_idx];

        let outcome = match bank.open_row {
            Some(r) if r == coord.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        };

        // Cycle at which a column command may issue to the bank.
        let col_ready = match outcome {
            RowOutcome::Hit => now.max(bank.next_col),
            RowOutcome::Miss => {
                let act = now.max(bank.next_act);
                bank.next_act = act + t_rc;
                bank.next_pre = act + t_rcd;
                act + t_rcd
            }
            RowOutcome::Conflict => {
                let pre = now.max(bank.next_pre);
                let act = (pre + t_rp).max(bank.next_act);
                bank.next_act = act + t_rc;
                bank.next_pre = act + t_rcd;
                act + t_rcd
            }
        };
        bank.open_row = Some(coord.row);
        bank.next_col = col_ready;

        // tCCD_L between column commands in the same bankgroup.
        let col = col_ready.max(self.last_col_in_group[group]);
        self.last_col_in_group[group] = col + t_ccd_l;

        // Data burst occupies the channel bus; CAS latency before first beat.
        let data_start = self.bus.earliest(col + self.t_cl);
        let bursts = req.bytes.div_ceil(self.access_bytes).max(1) as u64;
        let done = self
            .bus
            .consume(data_start, bursts * self.access_bytes as u64);

        match outcome {
            RowOutcome::Hit => self.stats.row_hits.inc(),
            RowOutcome::Miss => self.stats.row_misses.inc(),
            RowOutcome::Conflict => self.stats.row_conflicts.inc(),
        }
        self.stats.requests.inc();
        self.stats.bytes.add(req.bytes as u64);

        // Writes complete when data is accepted; reads when data returns.
        let ready = if req.write { data_start.max(col) } else { done };
        self.completions.schedule(ready, req);
    }

    /// Pops a completed request whose data is ready at `now`.
    pub fn pop_completed(&mut self, now: Cycle) -> Option<MemReq> {
        self.completions.pop_due(now).map(|(_, r)| r)
    }

    /// The next cycle at which anything interesting happens (for
    /// fast-forwarding), if any work is in flight.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        let c = self.completions.next_cycle();
        let q = if self.arrivals_sorted {
            // List head is the earliest arrival.
            (self.head != NIL).then(|| self.slots[self.head as usize].arrived)
        } else {
            self.slots
                .iter()
                .filter(|s| s.live)
                .map(|s| s.arrived)
                .min()
        };
        match (c, q) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether no requests are queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.live_count == 0 && self.completions.is_empty()
    }

    /// Number of queued (not yet serviced) requests.
    pub fn queued(&self) -> usize {
        self.live_count
    }

    /// Folds the scheduler-visible request-queue state into `fp`: the
    /// queued-request count and the multiset of their `(arrived, seq, id)`
    /// keys. Slot indices and freelist order are representation details and
    /// do not contribute, so the arena fingerprints equal to the
    /// insertion-ordered `Vec` it replaced.
    pub fn queue_fingerprint(&self, fp: &mut Fingerprint) {
        fp.mix(self.live_count as u64);
        for slot in &self.slots {
            if slot.live {
                fp.mix_unordered(
                    slot.arrived
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(slot.seq)
                        .rotate_left(17)
                        ^ slot.req.id.0,
                );
            }
        }
    }

    /// Channel statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Total data-bus bytes moved.
    pub fn bus_bytes(&self) -> u64 {
        self.bus.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqId;

    fn channel() -> DramChannel {
        DramChannel::new(&DramConfig::lpddr5_cxl(), Frequency::ghz(2.0))
    }

    fn read(id: u64, addr: u64) -> MemReq {
        MemReq::read(ReqId(id), addr, 32)
    }

    fn coord(bank: u32, row: u64) -> DramCoord {
        DramCoord {
            channel: 0,
            bankgroup: 0,
            bank,
            row,
        }
    }

    fn drain(ch: &mut DramChannel, until: Cycle) -> Vec<(Cycle, MemReq)> {
        let mut out = Vec::new();
        for now in 0..until {
            ch.tick(now, 4);
            while let Some(r) = ch.pop_completed(now) {
                out.push((now, r));
            }
        }
        out
    }

    #[test]
    fn closed_bank_read_takes_rcd_plus_cl() {
        let mut ch = channel();
        ch.enqueue(0, read(0, 0), coord(0, 0)).unwrap();
        let done = drain(&mut ch, 1000);
        assert_eq!(done.len(), 1);
        let (t, _) = done[0];
        // tRCD(15clk@800MHz=18.75ns→38cyc) + tCL(20clk=25ns→50cyc) + burst.
        let t_rcd = 38;
        let t_cl = 50;
        assert!(
            t >= t_rcd + t_cl,
            "completed too early: {t} < {}",
            t_rcd + t_cl
        );
        assert!(t < 200, "completed too late: {t}");
        assert_eq!(ch.stats().row_misses.get(), 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        // Hit: same row back to back.
        let mut ch = channel();
        ch.enqueue(0, read(0, 0), coord(0, 0)).unwrap();
        ch.enqueue(0, read(1, 32), coord(0, 0)).unwrap();
        let hit_done = drain(&mut ch, 2000).last().unwrap().0;
        assert_eq!(ch.stats().row_hits.get(), 1);

        // Conflict: different rows in the same bank.
        let mut ch2 = channel();
        ch2.enqueue(0, read(0, 0), coord(0, 0)).unwrap();
        ch2.enqueue(0, read(1, 32), coord(0, 5)).unwrap();
        let conf_done = drain(&mut ch2, 4000).last().unwrap().0;
        assert_eq!(ch2.stats().row_conflicts.get(), 1);

        assert!(
            conf_done > hit_done,
            "conflict ({conf_done}) should finish after hit ({hit_done})"
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_conflict() {
        let mut ch = channel();
        // Open row 0 in bank 0.
        ch.enqueue(0, read(0, 0), coord(0, 0)).unwrap();
        ch.tick(0, 1);
        // Now enqueue an older conflict (row 7) and a younger hit (row 0).
        ch.enqueue(1, read(1, 64), coord(0, 7)).unwrap();
        ch.enqueue(2, read(2, 32), coord(0, 0)).unwrap();
        ch.tick(3, 1);
        // The hit (id 2) should have been picked before the conflict (id 1):
        // so after this tick the queue still holds id 1.
        assert_eq!(ch.queued(), 1);
        let remaining: Vec<ReqId> = ch
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| s.req.id)
            .collect();
        assert_eq!(remaining, vec![ReqId(1)]);
    }

    #[test]
    fn bus_serializes_parallel_bank_hits() {
        let mut ch = channel();
        // 16 requests to 16 different banks: bank-parallel, bus-serial.
        for b in 0..16 {
            ch.enqueue(0, read(b as u64, b as u64 * 1024), coord(b % 16, 0))
                .unwrap();
        }
        let done = drain(&mut ch, 10_000);
        assert_eq!(done.len(), 16);
        // 16 * 32B at 6.4 B/cycle = 80 cycles of bus time minimum.
        let span = done.last().unwrap().0 - done.first().unwrap().0;
        assert!(span >= 16 * 5 - 10, "bus did not serialize: span {span}");
    }

    #[test]
    fn queue_full_backpressures() {
        let mut ch = channel();
        let mut accepted = 0;
        for i in 0..1000 {
            if ch.enqueue(0, read(i, i * 32), coord(0, 0)).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64); // queue_depth
    }

    #[test]
    fn write_completes_without_read_latency_tail() {
        let mut ch = channel();
        let w = MemReq::write(ReqId(0), 0, 32);
        ch.enqueue(0, w, coord(0, 0)).unwrap();
        let done = drain(&mut ch, 1000);
        assert_eq!(done.len(), 1);
    }

    /// Naive reference of the request queue the arena replaced: an
    /// insertion-ordered `Vec` scanned linearly, plus per-bank open-row
    /// state (the only bank state FR-FCFS pick reads). Pick order and the
    /// queue fingerprint must match the arena exactly.
    struct NaiveQueue {
        /// `(arrived, seq, id, bank_index, row)` in insertion order.
        queue: Vec<(Cycle, u64, u64, usize, u64)>,
        open_row: Vec<Option<u64>>,
        seq: u64,
    }

    impl NaiveQueue {
        fn new(banks: usize) -> Self {
            Self {
                queue: Vec::new(),
                open_row: vec![None; banks],
                seq: 0,
            }
        }

        fn enqueue(&mut self, now: Cycle, id: u64, bank: usize, row: u64) {
            let seq = self.seq;
            self.seq += 1;
            self.queue.push((now, seq, id, bank, row));
        }

        /// FR-FCFS: oldest row hit, else oldest overall; one pick.
        fn pick(&self, now: Cycle) -> Option<usize> {
            let mut best_hit: Option<usize> = None;
            let mut best_any: Option<usize> = None;
            for (i, &(arrived, seq, _, bank, row)) in self.queue.iter().enumerate() {
                if arrived > now {
                    continue;
                }
                let key = (arrived, seq);
                let better = |cur: Option<usize>| {
                    cur.is_none_or(|j| key < (self.queue[j].0, self.queue[j].1))
                };
                if self.open_row[bank] == Some(row) && better(best_hit) {
                    best_hit = Some(i);
                }
                if better(best_any) {
                    best_any = Some(i);
                }
            }
            best_hit.or(best_any)
        }

        fn tick(&mut self, now: Cycle, max_picks: usize) -> usize {
            let mut started = 0;
            while started < max_picks {
                let Some(i) = self.pick(now) else { break };
                let (_, _, _, bank, row) = self.queue.remove(i);
                self.open_row[bank] = Some(row);
                started += 1;
            }
            started
        }

        /// Same encoding as [`DramChannel::queue_fingerprint`].
        fn fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.mix(self.queue.len() as u64);
            for &(arrived, seq, id, _, _) in &self.queue {
                fp.mix_unordered(
                    arrived
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(seq)
                        .rotate_left(17)
                        ^ id,
                );
            }
            fp.value()
        }
    }

    fn channel_fingerprint(ch: &DramChannel) -> u64 {
        let mut fp = Fingerprint::new();
        ch.queue_fingerprint(&mut fp);
        fp.value()
    }

    mod fingerprint_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The slot arena (freelist recycling, O(1) dequeue) picks the
            /// same requests in the same order as the insertion-ordered
            /// `Vec` it replaced, and stays fingerprint-equivalent to it.
            #[test]
            fn arena_matches_naive_vec_queue(
                // (op kind, bank, row): 0 = enqueue, 1 = tick. Encoded as
                // plain tuples — the vendored proptest stub has no
                // `prop_oneof`.
                ops in prop::collection::vec((0u8..2, 0u32..8, 0u64..4), 1..60),
            ) {
                let mut ch = channel();
                let banks = 16usize;
                let mut naive = NaiveQueue::new(banks);
                let mut next_id = 0u64;
                for (step, (kind, bank, row)) in ops.into_iter().enumerate() {
                    let now = step as Cycle;
                    if kind == 0 {
                        let c = coord(bank, row);
                        ch.enqueue(now, read(next_id, 0), c).unwrap();
                        naive.enqueue(now, next_id, ch.bank_index(&c), row);
                        next_id += 1;
                    } else {
                        let started = ch.tick(now, 2);
                        prop_assert_eq!(started, naive.tick(now, 2));
                        // Drain completions so the in-flight cap
                        // (`completions.len() >= banks`) never binds; the
                        // naive model does not mirror completion timing.
                        while ch.pop_completed(Cycle::MAX).is_some() {}
                    }
                    prop_assert_eq!(
                        channel_fingerprint(&ch),
                        naive.fingerprint(),
                        "queue fingerprint diverged at step {}",
                        step
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_sweep_achieves_high_row_hit_rate() {
        let mut ch = channel();
        let mut issued = 0u64;
        let mut completed = 0;
        let mut now = 0;
        while completed < 256 {
            if issued < 256 && ch.can_accept() {
                // Sequential 32B within one bank's row (row_bytes 2048).
                let addr = (issued % 64) * 32 + (issued / 64) * 2048;
                ch.enqueue(now, read(issued, addr), coord(0, issued / 64))
                    .unwrap();
                issued += 1;
            }
            ch.tick(now, 4);
            while ch.pop_completed(now).is_some() {
                completed += 1;
            }
            now += 1;
            assert!(now < 100_000, "deadlock");
        }
        assert!(
            ch.stats().row_hit_rate() > 0.9,
            "hit rate {}",
            ch.stats().row_hit_rate()
        );
    }
}
