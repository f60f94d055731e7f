//! The simulator's discrete-event queue: one `(time, seq)`-keyed binary heap
//! over a payload slab, generic over the time key.
//!
//! [`EventQueue`] (integer [`Cycle`] keys) holds the device's in-flight
//! events: L2-slice inboxes, DRAM-channel completions, engine sub-core
//! wakes, unit and host deliveries. [`FEventQueue`] (`f64` ns keys) is the
//! serving runtime's arrival and completion clock. Both are [`KeyedQueue`],
//! so they share one implementation and one order: time first, insertion
//! order for ties.
//!
//! # Traffic
//!
//! The device loop polls its queues every simulated cycle: 36–50 polls per
//! cycle on the simbench kernel workloads (histo, spmv, olap-q6; seed 1),
//! and 80–92% of those polls find nothing due. So the common operation is
//! an empty [`KeyedQueue::pop_due`], which here is one heap peek.
//!
//! No calendar of one-cycle buckets sits in front of the heap, although it
//! would make near-future pushes O(1): each empty poll would walk the empty
//! buckets up to the next event, and the events are not near anyway. With
//! a 64-cycle window, 36% of spmv's events (11–12% of histo's and
//! olap-q6's) fall outside it, up to 2,685 cycles past its start.
//! `benches/primitives.rs` times such a calendar against the heap
//! (`event_queue_churn`, `event_queue_sparse_poll`).
//!
//! # Layout
//!
//! Payloads live out of line in a slot arena recycled through a freelist,
//! so heap sifts move only `(key, seq, slot)` words and steady-state
//! scheduling never allocates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::fingerprint::Fingerprint;
use crate::time::Cycle;

/// Pre-combines a `(time, seq)` key into one word for
/// [`Fingerprint::mix_unordered`]. Multiplication by an odd constant is
/// bijective on `u64`, so distinct keys rarely pre-collide; the fingerprint
/// is an equivalence check, not a cryptographic digest.
fn key_word(at: u64, seq: u64) -> u64 {
    at.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seq)
}

/// A time type a [`KeyedQueue`] can be keyed by.
///
/// The heap orders plain `u64` keys; each time type maps onto them
/// order-preservingly: [`Cycle`] as it is, `f64` in [`f64::total_cmp`]
/// order.
pub trait EventTime: Copy {
    /// Order-preserving map onto the heap key.
    ///
    /// # Panics
    /// Panics on a time the queue cannot order (a non-finite `f64`).
    fn to_key(self) -> u64;
    /// Inverse of [`EventTime::to_key`].
    fn from_key(key: u64) -> Self;
    /// The time's bit pattern, as [`KeyedQueue::fingerprint`] mixes it.
    fn bits(self) -> u64;
}

impl EventTime for Cycle {
    fn to_key(self) -> u64 {
        self
    }

    fn from_key(key: u64) -> Self {
        key
    }

    fn bits(self) -> u64 {
        self
    }
}

const SIGN: u64 = 1 << 63;

impl EventTime for f64 {
    /// Flips the sign bit of non-negative times and every bit of negative
    /// ones, so unsigned key order is [`f64::total_cmp`] order.
    fn to_key(self) -> u64 {
        assert!(self.is_finite(), "event time must be finite: {self}");
        let bits = self.to_bits();
        if bits & SIGN == 0 {
            bits | SIGN
        } else {
            !bits
        }
    }

    fn from_key(key: u64) -> Self {
        f64::from_bits(if key & SIGN != 0 { key ^ SIGN } else { !key })
    }

    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// Payload arena: slots are recycled through a freelist so steady-state
/// scheduling never allocates.
#[derive(Debug, Clone)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, event: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(event);
                idx
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, idx: u32) -> T {
        let event = self.slots[idx as usize]
            .take()
            .expect("slot must hold a pending event");
        self.free.push(idx);
        event
    }
}

/// A min-queue of `(time, sequence, event)` delivering events in time order;
/// ties are broken by insertion order so the simulation stays deterministic.
/// Use it through [`EventQueue`] or [`FEventQueue`].
#[derive(Debug, Clone)]
pub struct KeyedQueue<K, T> {
    /// Min-heap on `(key, seq)`; the slot id rides along, but `(key, seq)`
    /// is unique so it never decides a comparison.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slab: Slab<T>,
    seq: u64,
    time: PhantomData<K>,
}

/// The device's event queue, keyed by integer [`Cycle`]s.
///
/// # Example
///
/// ```
/// use m2ndp_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(20, "b");
/// q.schedule(10, "a");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((20, "b")));
/// ```
pub type EventQueue<T> = KeyedQueue<Cycle, T>;

/// The serving runtime's event queue, keyed by `f64` time (nanoseconds).
///
/// The open-loop serving simulations keep their clocks in `f64` ns end to
/// end; rounding event times into integer cycles to fit [`EventQueue`]
/// would quantize slot-free times and bias queueing delay at high arrival
/// rates. Times order by [`f64::total_cmp`] with insertion-order
/// tie-breaking, so this queue is exactly as deterministic as the integer
/// one. Non-finite times panic.
///
/// # Example
///
/// ```
/// use m2ndp_sim::FEventQueue;
/// let mut q = FEventQueue::new();
/// q.schedule(20.5, "b");
/// q.schedule(20.25, "a");
/// assert_eq!(q.pop(), Some((20.25, "a")));
/// assert_eq!(q.pop(), Some((20.5, "b")));
/// ```
pub type FEventQueue<T> = KeyedQueue<f64, T>;

impl<K: EventTime, T> KeyedQueue<K, T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Slab::new(),
            seq: 0,
            time: PhantomData,
        }
    }

    /// Schedules `event` at time `at`.
    ///
    /// # Panics
    /// Panics on a time [`EventTime::to_key`] rejects.
    pub fn schedule(&mut self, at: K, event: T) {
        let key = at.to_key();
        let slot = self.slab.insert(event);
        self.heap.push(Reverse((key, self.seq, slot)));
        self.seq += 1;
    }

    /// Schedules a batch of events in one call.
    ///
    /// Equivalent to calling [`KeyedQueue::schedule`] per item (same
    /// insertion-order tie-breaking), but the heap is extended once, which
    /// is cheaper than repeated pushes for large fan-outs.
    ///
    /// # Panics
    /// Panics on a time [`EventTime::to_key`] rejects.
    pub fn schedule_many(&mut self, events: impl IntoIterator<Item = (K, T)>) {
        let slab = &mut self.slab;
        let seq = &mut self.seq;
        self.heap.extend(events.into_iter().map(|(at, event)| {
            let key = at.to_key();
            let slot = slab.insert(event);
            let s = *seq;
            *seq += 1;
            Reverse((key, s, slot))
        }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(K, T)> {
        self.heap
            .pop()
            .map(|Reverse((key, _, slot))| (K::from_key(key), self.slab.remove(slot)))
    }

    /// Pops the earliest event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: K) -> Option<(K, T)> {
        match self.heap.peek() {
            Some(&Reverse((key, _, _))) if key <= now.to_key() => self.pop(),
            _ => None,
        }
    }

    /// The time of the earliest event without removing it.
    pub fn next_time(&self) -> Option<K> {
        self.heap
            .peek()
            .map(|&Reverse((key, _, _))| K::from_key(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Folds the queue's observable state into `fp`: depth, next due time,
    /// and the full multiset of pending `(time, seq)` keys, times by
    /// [`EventTime::bits`]. Slot ids do not contribute, so any two queues
    /// that would pop the same events in the same order fingerprint equal.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.mix(self.len() as u64);
        match self.next_time() {
            Some(t) => {
                fp.mix(1);
                fp.mix(t.bits());
            }
            None => fp.mix(0),
        }
        for &Reverse((key, seq, _)) in &self.heap {
            fp.mix_unordered(key_word(K::from_key(key).bits(), seq));
        }
    }
}

impl<T> EventQueue<T> {
    /// The cycle of the earliest event without removing it.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.next_time()
    }
}

impl<K: EventTime, T> Default for KeyedQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::fmt::Debug;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        q.schedule(5, "second");
        assert_eq!(q.pop(), Some((5, "first")));
        assert_eq!(q.pop(), Some((5, "second")));
    }

    #[test]
    fn ties_break_by_insertion_order_across_lanes() {
        // Two events at the same far-future cycle, the first scheduled on
        // an empty queue: they still pop in insertion order.
        let mut q = EventQueue::new();
        q.schedule(1_000_000, "heap-resident");
        q.schedule(1_000_000, "bucket-resident");
        assert_eq!(q.pop(), Some((1_000_000, "heap-resident")));
        assert_eq!(q.pop(), Some((1_000_000, "bucket-resident")));
    }

    #[test]
    fn schedule_many_matches_sequential_schedule() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let batch = [(50u64, 0), (3, 1), (50, 2), (500, 3), (3, 4)];
        for &(at, v) in &batch {
            a.schedule(at, v);
        }
        b.schedule_many(batch);
        for _ in 0..batch.len() {
            assert_eq!(a.pop(), b.pop());
        }
        assert!(b.is_empty());
    }

    #[test]
    fn f64_events_pop_in_time_order_with_sub_ns_keys() {
        let mut q = FEventQueue::new();
        q.schedule(30.75, 3);
        q.schedule(30.25, 1);
        q.schedule(30.5, 2);
        assert_eq!(q.pop(), Some((30.25, 1)));
        assert_eq!(q.pop(), Some((30.5, 2)));
        assert_eq!(q.pop(), Some((30.75, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn f64_ties_break_by_insertion_order() {
        let mut q = FEventQueue::new();
        q.schedule(5.5, "first");
        q.schedule(5.5, "second");
        assert_eq!(q.pop(), Some((5.5, "first")));
        assert_eq!(q.pop(), Some((5.5, "second")));
    }

    #[test]
    fn f64_schedule_many_matches_sequential_schedule() {
        let mut a = FEventQueue::new();
        let mut b = FEventQueue::new();
        let batch = [(5.5, 0), (0.25, 1), (5.5, 2), (99.0, 3)];
        for &(at, v) in &batch {
            a.schedule(at, v);
        }
        b.schedule_many(batch);
        for _ in 0..batch.len() {
            assert_eq!(a.pop(), b.pop());
        }
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn f64_rejects_nan_times() {
        FEventQueue::new().schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn f64_schedule_many_rejects_nan_times() {
        FEventQueue::new().schedule_many([(f64::NAN, ())]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.pop_due(99), None);
        assert_eq!(q.pop_due(100), Some((100, ())));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(round, round);
            assert_eq!(q.pop(), Some((round, round)));
        }
        // One live event at a time means the arena never grows past one slot.
        assert_eq!(q.slab.slots.len(), 1);
    }

    /// Naive reference: unsorted vec, pop = linear scan for the minimum
    /// `(time, seq)` under the time type's own comparison (`Ord` for
    /// cycles, `total_cmp` for `f64`), never through [`EventTime::to_key`].
    /// This is the semantic model both queues must match.
    struct NaiveQueue<K, T> {
        items: Vec<(K, u64, T)>,
        seq: u64,
        cmp: fn(&K, &K) -> Ordering,
    }

    impl<K: EventTime, T> NaiveQueue<K, T> {
        fn new(cmp: fn(&K, &K) -> Ordering) -> Self {
            Self {
                items: Vec::new(),
                seq: 0,
                cmp,
            }
        }

        fn schedule(&mut self, at: K, event: T) {
            self.items.push((at, self.seq, event));
            self.seq += 1;
        }

        fn earliest(&self) -> Option<usize> {
            let cmp = self.cmp;
            self.items
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| cmp(&a.0, &b.0).then(a.1.cmp(&b.1)))
                .map(|(i, _)| i)
        }

        fn pop(&mut self) -> Option<(K, T)> {
            let (at, _, event) = self.items.remove(self.earliest()?);
            Some((at, event))
        }

        fn next_time(&self) -> Option<K> {
            self.earliest().map(|i| self.items[i].0)
        }

        fn pop_due(&mut self, now: K) -> Option<(K, T)> {
            if self
                .next_time()
                .is_some_and(|at| (self.cmp)(&at, &now) != Ordering::Greater)
            {
                self.pop()
            } else {
                None
            }
        }

        /// The naive model's fingerprint, computed the way
        /// [`KeyedQueue::fingerprint`] defines it: depth, next time, and
        /// the unordered multiset of `(time, seq)` keys. Equality with the
        /// queue's fingerprint is the refactor-equivalence check.
        fn fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.mix(self.items.len() as u64);
            match self.next_time() {
                Some(t) => {
                    fp.mix(1);
                    fp.mix(t.bits());
                }
                None => fp.mix(0),
            }
            for &(at, seq, _) in &self.items {
                fp.mix_unordered(key_word(at.bits(), seq));
            }
            fp.value()
        }
    }

    fn queue_fingerprint<K: EventTime, T>(q: &KeyedQueue<K, T>) -> u64 {
        let mut fp = Fingerprint::new();
        q.fingerprint(&mut fp);
        fp.value()
    }

    /// Device-loop traffic against the naive model: `now` only moves
    /// forward; each step schedules 0–3 events at `now + d` and then drains
    /// `pop_due(now)`. `time` maps a cycle onto the queue's time type.
    /// Pop order, next time, depth and fingerprint are checked after every
    /// operation, and the full remaining order at the end.
    fn check_device_traffic<K: EventTime + PartialEq + Debug>(
        steps: &[(u64, Vec<(bool, u64)>)],
        time: fn(Cycle) -> K,
        cmp: fn(&K, &K) -> Ordering,
    ) {
        fn agree<K: EventTime + PartialEq + Debug>(
            opt: &KeyedQueue<K, u64>,
            naive: &NaiveQueue<K, u64>,
        ) {
            assert_eq!(opt.next_time(), naive.next_time());
            assert_eq!(opt.len(), naive.items.len());
            assert_eq!(queue_fingerprint(opt), naive.fingerprint());
        }
        let mut opt = KeyedQueue::new();
        let mut naive = NaiveQueue::new(cmp);
        let (mut now, mut tag) = (0, 0u64);
        for (advance, arrivals) in steps {
            now += advance;
            for &(far, d) in arrivals {
                // Near events stay inside 64 cycles; far ones reach
                // ~3,000, past the 2,685-cycle backlog measured on spmv.
                let d = if far { d } else { d % 64 };
                opt.schedule(time(now + d), tag);
                naive.schedule(time(now + d), tag);
                tag += 1;
                agree(&opt, &naive);
            }
            loop {
                let popped = opt.pop_due(time(now));
                assert_eq!(popped, naive.pop_due(time(now)));
                agree(&opt, &naive);
                if popped.is_none() {
                    break;
                }
            }
        }
        loop {
            let (a, b) = (opt.pop(), naive.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// One device-loop step: how far `now` advances, then the arrivals as
    /// `(far, delay)` pairs.
    fn device_steps() -> impl Strategy<Value = Vec<(u64, Vec<(bool, u64)>)>> {
        proptest::collection::vec(
            (
                0u64..8,
                proptest::collection::vec((any::<bool>(), 0u64..3_001), 0..4),
            ),
            1..120,
        )
    }

    #[test]
    fn f64_keys_follow_total_cmp_order() {
        let times = [
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            2.5e9,
            f64::MAX,
        ];
        for pair in times.windows(2) {
            assert_eq!(pair[0].total_cmp(&pair[1]), Ordering::Less);
            assert!(pair[0].to_key() < pair[1].to_key(), "{pair:?}");
        }
        for t in times {
            assert_eq!(f64::from_key(t.to_key()).to_bits(), t.to_bits());
        }
    }

    proptest! {
        #[test]
        fn event_queue_matches_naive_reference(
            // Each step: (op selector, primary cycle, two extra cycles for
            // the batched-insert op). The vendored proptest stub has no
            // `prop_oneof`, so ops are encoded as plain tuples.
            ops in proptest::collection::vec((0u8..4, 0u64..300, 0u64..300, 0u64..300), 1..200),
        ) {
            let mut opt = EventQueue::new();
            let mut naive = NaiveQueue::new(u64::cmp);
            let mut tag = 0u64;
            for (kind, at, at2, at3) in ops {
                match kind {
                    0 => {
                        opt.schedule(at, tag);
                        naive.schedule(at, tag);
                        tag += 1;
                    }
                    1 => {
                        let batch: Vec<(Cycle, u64)> = [at, at2, at3]
                            .iter()
                            .map(|&a| {
                                let item = (a, tag);
                                tag += 1;
                                item
                            })
                            .collect();
                        for &(a, v) in &batch {
                            naive.schedule(a, v);
                        }
                        opt.schedule_many(batch);
                    }
                    2 => {
                        prop_assert_eq!(opt.pop(), naive.pop());
                    }
                    _ => {
                        let now = at;
                        let expected = if naive.next_time().is_some_and(|c| c <= now) {
                            naive.pop()
                        } else {
                            None
                        };
                        prop_assert_eq!(opt.pop_due(now), expected);
                    }
                }
                prop_assert_eq!(opt.next_cycle(), naive.next_time());
                prop_assert_eq!(opt.len(), naive.items.len());
                prop_assert_eq!(queue_fingerprint(&opt), naive.fingerprint());
            }
            // Drain both: full order must agree.
            loop {
                let (a, b) = (opt.pop(), naive.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn f64_queue_matches_naive_reference(
            ops in proptest::collection::vec((0u8..3, 0u32..300), 1..200),
        ) {
            let mut opt = FEventQueue::new();
            let mut naive = NaiveQueue::new(f64::total_cmp);
            let mut seq = 0u64;
            for (kind, raw) in ops {
                match kind {
                    // Schedule twice as often as pop so queues build depth.
                    0 | 1 => {
                        let at = raw as f64 * 0.25;
                        opt.schedule(at, seq);
                        naive.schedule(at, seq);
                        seq += 1;
                    }
                    _ => {
                        prop_assert_eq!(opt.pop(), naive.pop());
                    }
                }
                prop_assert_eq!(opt.len(), naive.items.len());
                // Fingerprint equivalence against the naive vec model.
                prop_assert_eq!(queue_fingerprint(&opt), naive.fingerprint());
            }
        }

        #[test]
        fn event_queue_matches_naive_reference_under_device_traffic(steps in device_steps()) {
            check_device_traffic(&steps, |c| c, u64::cmp);
        }

        #[test]
        fn f64_queue_matches_naive_reference_under_device_traffic(steps in device_steps()) {
            // Cycles become ns at 2 GHz, so half-ns times and ties occur.
            check_device_traffic(&steps, |c| c as f64 * 0.5, f64::total_cmp);
        }
    }
}
