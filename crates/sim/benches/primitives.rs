//! Micro-benchmarks of the hot simulator primitives, each paired with a
//! reference implementing the representation the current structure
//! replaced. The vendored criterion stub has no baseline comparison, so
//! the difference is read directly off adjacent lines (median ns/iter with
//! its quartiles); a pair differs only when the medians are further apart
//! than the quartile spreads. The deep-queue DRAM pair shows a large
//! structural win; the cache and `FEventQueue` pairs sit closer to parity
//! in isolation — those refactors are motivated by allocation-free steady
//! state and determinism. End-to-end effect is measured by the `simbench/`
//! host-speed benchmark, not by this file.
//!
//! Covered, per the hot-path inventory in ARCHITECTURE.md:
//!
//! * the event queue (`EventQueue`, a `(Cycle, seq)`-keyed heap) against
//!   the 64-bucket calendar-plus-heap it replaced. Two pairs bracket the
//!   trade-off. `event_queue_churn` keeps 64 events in flight on one
//!   queue, each re-scheduled 1–16 cycles out, so nearly every poll pops
//!   and the calendar's O(1) bucket appends beat the heap's sifts (7–10 ms
//!   against 30–33 ms on a 2-vCPU VM). `event_queue_sparse_poll` polls
//!   32 queues every cycle, each holding one event 40–60 cycles out, so
//!   nearly every poll is empty; each empty calendar poll walks the buckets
//!   up to its event, and the heap's one peek wins (55–62 ms against
//!   1.7–1.9 ms, 32×). The device's traffic is the sparse kind: 80–92% of
//!   its polls find nothing due, and 36% of spmv's events fell beyond the
//!   calendar's window anyway. `event_queue_batch` times `schedule_many`
//!   against the calendar's per-event appends, and the `FEventQueue` pair
//!   times the wall-clock variant against a payload-inline heap;
//! * sectored-cache hit/miss/evict streams (flat line array +
//!   hash-indexed MSHRs vs. nested `Vec`s + linear MSHR scan);
//! * DRAM-channel transaction loops (slot-arena request queue vs. an
//!   insertion-ordered `Vec` with `remove`-based dequeue).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m2ndp_cache::{Access, CacheConfig, CacheResult, SectoredCache, WritePolicy};
use m2ndp_mem::mapping::DramCoord;
use m2ndp_mem::{DramChannel, DramConfig, MemReq, ReqId};
use m2ndp_sim::{BandwidthGate, Cycle, EventQueue, FEventQueue, Frequency};

/// Deterministic LCG so every benchmark sees the same request stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

// ---------------------------------------------------------------- events

/// Number of one-cycle calendar buckets kept in front of the heap.
const NEAR_WINDOW: usize = 64;

/// The replaced event queue: a calendar of `NEAR_WINDOW` one-cycle buckets
/// in front of a `(Cycle, seq)`-keyed heap, payloads in a slot arena. Pops
/// merge the two lanes on the full key. `pop_due` peeks the calendar
/// without moving its cursor, so every empty poll walks the empty buckets
/// between the cursor and the next event.
struct CalendarQueue<T> {
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// `buckets[(c - base) % NEAR_WINDOW]` holds the `(seq, slot)`s due at
    /// cycle `c` for `base <= c < base + NEAR_WINDOW`, in `seq` order.
    buckets: Vec<VecDeque<(u64, u32)>>,
    base: Cycle,
    head: usize,
    near_len: usize,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> CalendarQueue<T> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            buckets: (0..NEAR_WINDOW).map(|_| VecDeque::new()).collect(),
            base: 0,
            head: 0,
            near_len: 0,
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, at: Cycle, event: T) {
        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(event);
                idx
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.seq;
        self.seq += 1;
        if self.near_len == 0 && (at < self.base || at >= self.base + NEAR_WINDOW as Cycle) {
            // Empty calendar: re-center the window on the incoming event.
            self.base = at;
            self.head = 0;
        }
        if at >= self.base && at < self.base + NEAR_WINDOW as Cycle {
            let idx = (self.head + (at - self.base) as usize) % NEAR_WINDOW;
            self.buckets[idx].push_back((seq, slot));
            self.near_len += 1;
        } else {
            self.heap.push(Reverse((at, seq, slot)));
        }
    }

    /// First `(cycle, seq)` in the near lane, advancing the cursor past
    /// drained buckets.
    fn near_peek_advance(&mut self) -> Option<(Cycle, u64)> {
        if self.near_len == 0 {
            return None;
        }
        while self.buckets[self.head].is_empty() {
            self.head = (self.head + 1) % NEAR_WINDOW;
            self.base += 1;
        }
        let &(seq, _) = self.buckets[self.head].front().expect("bucket nonempty");
        Some((self.base, seq))
    }

    /// First `(cycle, seq)` in the near lane without moving the cursor.
    fn near_peek(&self) -> Option<(Cycle, u64)> {
        if self.near_len == 0 {
            return None;
        }
        let mut head = self.head;
        let mut base = self.base;
        while self.buckets[head].is_empty() {
            head = (head + 1) % NEAR_WINDOW;
            base += 1;
        }
        let &(seq, _) = self.buckets[head].front().expect("bucket nonempty");
        Some((base, seq))
    }

    fn pop(&mut self) -> Option<(Cycle, T)> {
        let near = self.near_peek_advance();
        let far = self.heap.peek().map(|&Reverse((at, seq, _))| (at, seq));
        let take_near = match (near, far) {
            (Some(n), Some(f)) => n < f,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (at, slot) = if take_near {
            let (_, slot) = self.buckets[self.head]
                .pop_front()
                .expect("peeked bucket nonempty");
            self.near_len -= 1;
            (near.expect("near lane nonempty").0, slot)
        } else {
            let Reverse((at, _, slot)) = self.heap.pop().expect("heap nonempty");
            (at, slot)
        };
        let event = self.slots[slot as usize].take().expect("live payload");
        self.free.push(slot);
        Some((at, event))
    }

    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        let near = self.near_peek().map(|(at, _)| at);
        let far = self.heap.peek().map(|&Reverse((at, _, _))| at);
        let next = match (near, far) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (n, f) => n.or(f),
        };
        if next.is_some_and(|at| at <= now) {
            self.pop()
        } else {
            None
        }
    }
}

/// The two queues the event benches compare, behind one interface.
trait CycleQueue: Default {
    fn schedule(&mut self, at: Cycle, event: u64);
    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u64)>;
}

impl CycleQueue for EventQueue<u64> {
    fn schedule(&mut self, at: Cycle, event: u64) {
        EventQueue::schedule(self, at, event)
    }
    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u64)> {
        EventQueue::pop_due(self, now)
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleQueue for CalendarQueue<u64> {
    fn schedule(&mut self, at: Cycle, event: u64) {
        CalendarQueue::schedule(self, at, event)
    }
    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u64)> {
        CalendarQueue::pop_due(self, now)
    }
}

/// Dense churn: 64 events in flight, each re-scheduled 1–16 cycles out as
/// soon as it pops, one queue polled every cycle.
fn churn<Q: CycleQueue>() -> u64 {
    const STEPS: u64 = 50_000;
    let mut q = Q::default();
    let mut rng = Lcg(7);
    let mut acc = 0u64;
    for i in 0..64 {
        q.schedule(i % 8, i);
    }
    for now in 0..STEPS {
        while let Some((_, ev)) = q.pop_due(now) {
            acc = acc.wrapping_add(ev);
            q.schedule(now + 1 + (rng.next() & 15), ev);
        }
    }
    acc
}

/// Sparse polls, the device loop's pattern: 32 queues, each holding one
/// event 40–60 cycles out, all polled every cycle; most polls find nothing
/// due.
fn sparse_poll<Q: CycleQueue>() -> u64 {
    const QUEUES: u64 = 32;
    const CYCLES: u64 = 20_000;
    let mut rng = Lcg(13);
    let mut queues: Vec<Q> = (0..QUEUES).map(|_| Q::default()).collect();
    for (i, q) in queues.iter_mut().enumerate() {
        q.schedule(40 + rng.next() % 21, i as u64);
    }
    let mut acc = 0u64;
    for now in 0..CYCLES {
        for q in &mut queues {
            while let Some((_, ev)) = q.pop_due(now) {
                acc = acc.wrapping_add(ev);
                q.schedule(now + 40 + rng.next() % 21, ev);
            }
        }
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_churn/heap", |b| {
        b.iter(|| black_box(churn::<EventQueue<u64>>()))
    });
    c.bench_function("event_queue_churn/calendar", |b| {
        b.iter(|| black_box(churn::<CalendarQueue<u64>>()))
    });
    c.bench_function("event_queue_sparse_poll/heap", |b| {
        b.iter(|| black_box(sparse_poll::<EventQueue<u64>>()))
    });
    c.bench_function("event_queue_sparse_poll/calendar", |b| {
        b.iter(|| black_box(sparse_poll::<CalendarQueue<u64>>()))
    });
    // Batched insertion: one fill + drain round per iteration.
    const BATCH: u64 = 4096;
    c.bench_function("event_queue_batch/schedule_many", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            q.schedule_many((0..BATCH).map(|i| (i & 63, i)));
            let mut acc = 0u64;
            while let Some((_, ev)) = q.pop_due(64) {
                acc = acc.wrapping_add(ev);
            }
            black_box(acc)
        })
    });
    c.bench_function("event_queue_batch/calendar_loop", |b| {
        b.iter(|| {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            for i in 0..BATCH {
                q.schedule(i & 63, i);
            }
            let mut acc = 0u64;
            while let Some((_, ev)) = q.pop_due(64) {
                acc = acc.wrapping_add(ev);
            }
            black_box(acc)
        })
    });
}

/// Wall-clock-keyed churn (the serve runtime's arrival queue). Payloads
/// are request-sized (64 bytes, like a serve-runtime arrival record): the
/// keyed heap sifts 16-byte keys and leaves payloads parked in the slab,
/// where the naive heap drags the payload through every sift.
fn bench_fevent_queue(c: &mut Criterion) {
    const N: u64 = 20_000;
    type Payload = [u64; 8];
    c.bench_function("fevent_queue_churn/optimized", |b| {
        b.iter(|| {
            let mut q: FEventQueue<Payload> = FEventQueue::new();
            let mut rng = Lcg(11);
            let mut acc = 0u64;
            for i in 0..N {
                q.schedule(i as f64 + (rng.next() & 7) as f64, [i; 8]);
            }
            while let Some((_, ev)) = q.pop() {
                acc = acc.wrapping_add(ev[0]);
            }
            black_box(acc)
        })
    });
    c.bench_function("fevent_queue_churn/naive_heap", |b| {
        b.iter(|| {
            // f64 keys made totally ordered via the bits trick (all
            // benchmark times are non-negative); payload rides inline in
            // the heap element, as the pre-refactor queue kept it.
            let mut q: BinaryHeap<Reverse<(u64, u64, Payload)>> = BinaryHeap::new();
            let mut rng = Lcg(11);
            let mut acc = 0u64;
            for i in 0..N {
                let t = i as f64 + (rng.next() & 7) as f64;
                q.push(Reverse((t.to_bits(), i, [i; 8])));
            }
            while let Some(Reverse((_, _, ev))) = q.pop() {
                acc = acc.wrapping_add(ev[0]);
            }
            black_box(acc)
        })
    });
}

// ----------------------------------------------------------------- cache

mod naive_cache {
    //! The pre-refactor sectored cache read path: per-set `Vec<Vec<Line>>`,
    //! linear-scan MSHRs, and a fresh `Vec` of sector addresses per miss.

    #[derive(Clone)]
    pub struct Line {
        pub tag: u64,
        pub valid_sectors: u32,
        pub last_used: u64,
        pub valid: bool,
    }

    pub struct Cache {
        sets: Vec<Vec<Line>>,
        mshrs: Vec<(u64, u32, Vec<u32>)>,
        ready: std::collections::VecDeque<(u64, u32)>,
        use_clock: u64,
        mshr_entries: usize,
        hit_latency: u64,
        line_bytes: u64,
        sector_bytes: u64,
    }

    pub enum Result {
        Hit,
        Merged,
        /// Sector addresses to fetch — allocated per miss, as the old
        /// `sector_addrs` helper did.
        Miss(Vec<u64>),
        Stalled,
    }

    impl Cache {
        pub fn new(sets: usize, ways: usize, cfg: &m2ndp_cache::CacheConfig) -> Self {
            Self {
                sets: (0..sets)
                    .map(|_| {
                        (0..ways)
                            .map(|_| Line {
                                tag: 0,
                                valid_sectors: 0,
                                last_used: 0,
                                valid: false,
                            })
                            .collect()
                    })
                    .collect(),
                mshrs: Vec::new(),
                ready: std::collections::VecDeque::new(),
                use_clock: 0,
                mshr_entries: cfg.mshr_entries,
                hit_latency: cfg.hit_latency,
                line_bytes: u64::from(cfg.line_bytes),
                sector_bytes: u64::from(cfg.sector_bytes),
            }
        }

        pub fn access(&mut self, addr: u64, bytes: u32, token: u32) -> Result {
            self.use_clock += 1;
            let clock = self.use_clock;
            let line_addr = addr & !(self.line_bytes - 1);
            let first = ((addr - line_addr) / self.sector_bytes) as u32;
            let last = ((addr + bytes as u64 - 1 - line_addr) / self.sector_bytes) as u32;
            let need: u32 = (first..=last).fold(0, |m, s| m | (1 << s));
            let set = ((line_addr / self.line_bytes) % self.sets.len() as u64) as usize;
            if let Some(line) = self.sets[set]
                .iter_mut()
                .find(|l| l.valid && l.tag == line_addr)
            {
                if line.valid_sectors & need == need {
                    line.last_used = clock;
                    return Result::Hit;
                }
            }
            if let Some((_, pending, waiters)) =
                self.mshrs.iter_mut().find(|(la, _, _)| *la == line_addr)
            {
                let missing_new = need & !*pending;
                waiters.push(token);
                if missing_new == 0 {
                    return Result::Merged;
                }
                *pending |= missing_new;
                return Result::Miss(self.sector_addrs(line_addr, missing_new));
            }
            if self.mshrs.len() >= self.mshr_entries {
                return Result::Stalled;
            }
            let victim = self.sets[set]
                .iter_mut()
                .min_by_key(|l| if l.valid { l.last_used } else { 0 })
                .expect("ways non-empty");
            victim.tag = line_addr;
            victim.valid = true;
            victim.valid_sectors = 0;
            victim.last_used = clock;
            self.mshrs.push((line_addr, need, vec![token]));
            Result::Miss(self.sector_addrs(line_addr, need))
        }

        fn sector_addrs(&self, line_addr: u64, mask: u32) -> Vec<u64> {
            (0..(self.line_bytes / self.sector_bytes))
                .filter(|s| mask & (1 << s) != 0)
                .map(|s| line_addr + s * self.sector_bytes)
                .collect()
        }

        pub fn fill(&mut self, now: u64, sector_addr: u64) {
            let line_addr = sector_addr & !(self.line_bytes - 1);
            let bit = 1u32 << ((sector_addr - line_addr) / self.sector_bytes);
            let set = ((line_addr / self.line_bytes) % self.sets.len() as u64) as usize;
            if let Some(line) = self.sets[set]
                .iter_mut()
                .find(|l| l.valid && l.tag == line_addr)
            {
                line.valid_sectors |= bit;
            }
            let Some(pos) = self.mshrs.iter().position(|(la, _, _)| *la == line_addr) else {
                return;
            };
            self.mshrs[pos].1 &= !bit;
            if self.mshrs[pos].1 == 0 {
                let (_, _, waiters) = self.mshrs.remove(pos);
                for token in waiters {
                    self.ready.push_back((now + self.hit_latency, token));
                }
            }
        }

        pub fn pop_ready(&mut self, now: u64) -> Option<u32> {
            match self.ready.front() {
                Some((at, _)) if *at <= now => self.ready.pop_front().map(|(_, t)| t),
                _ => None,
            }
        }
    }
}

/// Mixed hit/miss/evict stream on a small cache (forces conflict
/// evictions); every miss is filled immediately so MSHR traffic is part of
/// the measured loop.
fn bench_cache(c: &mut Criterion) {
    const ACCESSES: u64 = 16_384;
    let config = CacheConfig {
        capacity_bytes: 16 << 10,
        ways: 4,
        line_bytes: 128,
        sector_bytes: 32,
        hit_latency: 2,
        write_policy: WritePolicy::WriteThrough,
        mshr_entries: 64,
    };
    // A sliding window of ~64 hot lines advancing one line every 4 steps:
    // the front of the window is new lines (full-line misses, evicting the
    // tail), the body is lines still in flight (merged misses) or freshly
    // filled (hits). This is the memory-side L2's steady state under many
    // concurrent NDP contexts, and it keeps the MSHR file populated, so
    // every access and fill pays the MSHR lookup that the hash index made
    // O(1) and the linear scan did not.
    let stream: Vec<u64> = {
        let mut rng = Lcg(23);
        (0..ACCESSES)
            .map(|i| (i / 4 + rng.next() % 64) * 128)
            .collect()
    };
    // Fills lag accesses (DRAM latency) and trickle back one sector per
    // step — in equilibrium with the one-line-per-4-steps miss front.
    const FILLS_PER_STEP: usize = 1;
    c.bench_function("cache_hit_miss_evict/optimized", |b| {
        b.iter(|| {
            let mut cache: SectoredCache<u32> = SectoredCache::new(config.clone());
            let mut pending: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
            let mut hits = 0u64;
            for (i, &addr) in stream.iter().enumerate() {
                let now = i as u64;
                match cache.access(
                    now,
                    Access {
                        addr,
                        bytes: 128,
                        write: false,
                    },
                    i as u32,
                ) {
                    CacheResult::Hit { .. } => hits += 1,
                    CacheResult::Miss { fetches, .. } => pending.extend(fetches),
                    _ => {}
                }
                for _ in 0..FILLS_PER_STEP {
                    if let Some(f) = pending.pop_front() {
                        cache.fill(now, f);
                    }
                }
                while cache.pop_ready(now).is_some() {}
            }
            black_box(hits)
        })
    });
    c.bench_function("cache_hit_miss_evict/naive_nested_vec", |b| {
        let sets = (config.capacity_bytes / u64::from(config.line_bytes * config.ways)) as usize;
        b.iter(|| {
            let mut cache = naive_cache::Cache::new(sets, config.ways as usize, &config);
            let mut pending: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
            let mut hits = 0u64;
            for (i, &addr) in stream.iter().enumerate() {
                let now = i as u64;
                match cache.access(addr, 128, i as u32) {
                    naive_cache::Result::Hit => hits += 1,
                    naive_cache::Result::Miss(fetches) => pending.extend(fetches),
                    _ => {}
                }
                for _ in 0..FILLS_PER_STEP {
                    if let Some(f) = pending.pop_front() {
                        cache.fill(now, f);
                    }
                }
                while cache.pop_ready(now).is_some() {}
            }
            black_box(hits)
        })
    });
}

// ------------------------------------------------------------------ dram

/// The pre-refactor DRAM channel: same FR-FCFS policy and timing math, but
/// the request queue is an insertion-ordered `Vec` dequeued with
/// `Vec::remove` (tail shift per pick) instead of the slot arena.
struct NaiveChannel {
    banks: Vec<(Option<u64>, Cycle, Cycle, Cycle)>,
    bankgroups: u32,
    queue: Vec<(Cycle, u64, MemReq, DramCoord)>,
    enq_seq: u64,
    queue_depth: usize,
    bus: BandwidthGate,
    completions: EventQueue<MemReq>,
    t_rc: Cycle,
    t_rcd: Cycle,
    t_cl: Cycle,
    t_rp: Cycle,
    t_ccd_l: Cycle,
    access_bytes: u32,
    last_col_in_group: Vec<Cycle>,
}

impl NaiveChannel {
    fn new(cfg: &DramConfig, owner: Frequency) -> Self {
        Self {
            banks: vec![(None, 0, 0, 0); cfg.banks_per_channel() as usize],
            bankgroups: cfg.bankgroups,
            queue: Vec::new(),
            enq_seq: 0,
            queue_depth: cfg.queue_depth,
            bus: BandwidthGate::new(owner.bytes_per_cycle(cfg.channel_bw_bytes_per_sec())),
            completions: EventQueue::new(),
            t_rc: cfg.to_owner_cycles(cfg.timing.t_rc, owner),
            t_rcd: cfg.to_owner_cycles(cfg.timing.t_rcd, owner),
            t_cl: cfg.to_owner_cycles(cfg.timing.t_cl, owner),
            t_rp: cfg.to_owner_cycles(cfg.timing.t_rp, owner),
            t_ccd_l: cfg.to_owner_cycles(cfg.timing.t_ccd_l, owner),
            access_bytes: cfg.access_bytes,
            last_col_in_group: vec![0; cfg.bankgroups as usize],
        }
    }

    fn enqueue(&mut self, now: Cycle, req: MemReq, coord: DramCoord) -> Result<(), MemReq> {
        if self.queue.len() >= self.queue_depth {
            return Err(req);
        }
        let seq = self.enq_seq;
        self.enq_seq += 1;
        self.queue.push((now, seq, req, coord));
        Ok(())
    }

    fn bank_index(&self, coord: &DramCoord) -> usize {
        (coord.bankgroup * (self.banks.len() as u32 / self.bankgroups) + coord.bank) as usize
    }

    fn tick(&mut self, now: Cycle, max_picks: usize) -> usize {
        let mut started = 0;
        while started < max_picks {
            if self.completions.len() >= self.banks.len() {
                break;
            }
            let mut best_hit: Option<usize> = None;
            let mut best_any: Option<usize> = None;
            for (i, (arrived, _, _, coord)) in self.queue.iter().enumerate() {
                if *arrived > now {
                    continue;
                }
                let is_hit = self.banks[self.bank_index(coord)].0 == Some(coord.row);
                if is_hit && best_hit.is_none() {
                    best_hit = Some(i);
                }
                if best_any.is_none() {
                    best_any = Some(i);
                }
            }
            let Some(idx) = best_hit.or(best_any) else {
                break;
            };
            let (_, _, req, coord) = self.queue.remove(idx);
            self.service(now, req, coord);
            started += 1;
        }
        started
    }

    fn service(&mut self, now: Cycle, req: MemReq, coord: DramCoord) {
        let bank_idx = self.bank_index(&coord);
        let group = coord.bankgroup as usize;
        let (t_rp, t_rc, t_rcd, t_ccd_l) = (self.t_rp, self.t_rc, self.t_rcd, self.t_ccd_l);
        let bank = &mut self.banks[bank_idx];
        let col_ready = match bank.0 {
            Some(r) if r == coord.row => now.max(bank.2),
            Some(_) => {
                let pre = now.max(bank.3);
                let act = (pre + t_rp).max(bank.1);
                bank.1 = act + t_rc;
                bank.3 = act + t_rcd;
                act + t_rcd
            }
            None => {
                let act = now.max(bank.1);
                bank.1 = act + t_rc;
                bank.3 = act + t_rcd;
                act + t_rcd
            }
        };
        bank.0 = Some(coord.row);
        bank.2 = col_ready;
        let col = col_ready.max(self.last_col_in_group[group]);
        self.last_col_in_group[group] = col + t_ccd_l;
        let data_start = self.bus.earliest(col + self.t_cl);
        let bursts = req.bytes.div_ceil(self.access_bytes).max(1) as u64;
        let done = self
            .bus
            .consume(data_start, bursts * self.access_bytes as u64);
        let ready = if req.write { data_start.max(col) } else { done };
        self.completions.schedule(ready, req);
    }

    fn pop_completed(&mut self, now: Cycle) -> Option<MemReq> {
        self.completions.pop_due(now).map(|(_, r)| r)
    }
}

/// Transaction loop: keep the queue as full as the depth allows, tick,
/// drain completions — the inner loop of `DramDevice::tick`.
fn bench_dram(c: &mut Criterion) {
    const REQUESTS: u64 = 8_192;
    // Deep request queue: the bookkeeping stress case. The arena's
    // pick/dequeue cost is independent of depth (live-list walk with
    // early exit, O(1) unlink); the naive Vec pays a full scan plus a
    // `remove` tail shift per pick, both linear in depth.
    let cfg = DramConfig {
        queue_depth: 256,
        ..DramConfig::lpddr5_cxl()
    };
    // Streaming pattern: long same-row runs per bank (high row locality,
    // like a sequential sweep), banks interleaved.
    let coord_of = |i: u64| DramCoord {
        channel: 0,
        bankgroup: (i % 4) as u32,
        bank: ((i / 4) % 4) as u32,
        row: i / 512,
    };
    c.bench_function("dram_channel_loop/arena", |b| {
        b.iter(|| {
            let mut ch = DramChannel::new(&cfg, Frequency::ghz(2.0));
            let mut issued = 0u64;
            let mut done = 0u64;
            let mut now = 0;
            while done < REQUESTS {
                while issued < REQUESTS {
                    let r = MemReq::read(ReqId(issued), issued * 32, 32);
                    if ch.enqueue(now, r, coord_of(issued)).is_err() {
                        break;
                    }
                    issued += 1;
                }
                ch.tick(now, 4);
                while ch.pop_completed(now).is_some() {
                    done += 1;
                }
                now += 1;
            }
            black_box(now)
        })
    });
    c.bench_function("dram_channel_loop/naive_vec_remove", |b| {
        b.iter(|| {
            let mut ch = NaiveChannel::new(&cfg, Frequency::ghz(2.0));
            let mut issued = 0u64;
            let mut done = 0u64;
            let mut now = 0;
            while done < REQUESTS {
                while issued < REQUESTS {
                    let r = MemReq::read(ReqId(issued), issued * 32, 32);
                    if ch.enqueue(now, r, coord_of(issued)).is_err() {
                        break;
                    }
                    issued += 1;
                }
                ch.tick(now, 4);
                while ch.pop_completed(now).is_some() {
                    done += 1;
                }
                now += 1;
            }
            black_box(now)
        })
    });
}

criterion_group!(
    primitives,
    bench_event_queue,
    bench_fevent_queue,
    bench_cache,
    bench_dram
);
criterion_main!(primitives);
