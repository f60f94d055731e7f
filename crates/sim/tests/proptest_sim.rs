//! Property tests for the simulation primitives.

use m2ndp_sim::{BandwidthGate, EventQueue, FHistogram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The event queue is a stable priority queue: time order first,
    /// insertion order for ties.
    #[test]
    fn event_queue_is_stable(times in prop::collection::vec(0u64..50, 1..100)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(*t, i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "unstable: ({lt},{li}) then ({t},{i})");
            }
            last = Some((t, i));
        }
    }

    /// A bandwidth gate never moves more bytes per window than its rate.
    #[test]
    fn gate_respects_rate(sizes in prop::collection::vec(1u64..512, 1..100)) {
        let rate = 32.0;
        let mut g = BandwidthGate::new(rate);
        let mut finish = 0;
        for s in &sizes {
            finish = g.send(0, *s);
        }
        let total: u64 = sizes.iter().sum();
        let min_cycles = (total as f64 / rate).floor() as u64;
        prop_assert!(finish >= min_cycles, "{finish} < {min_cycles}");
        prop_assert_eq!(g.total_bytes(), total);
    }

    /// Percentiles are monotone in p and bounded by min/max of the sample.
    #[test]
    fn percentiles_monotone(samples in prop::collection::vec(any::<u32>(), 1..300)) {
        let mut h = FHistogram::new();
        for s in &samples {
            h.record(f64::from(*s));
        }
        let p50 = h.percentile(0.5);
        let p95 = h.percentile(0.95);
        let p100 = h.percentile(1.0);
        prop_assert!(p50 <= p95 && p95 <= p100);
        prop_assert_eq!(p100, f64::from(*samples.iter().max().unwrap()));
        prop_assert!(p50 >= f64::from(*samples.iter().min().unwrap()));
    }
}
