//! Property tests for the deterministic worker pool (`m2ndp_sim::par`):
//! ordered results at any worker count, seed-stable outputs across
//! `jobs = 1, 2, 8`, and the panic contract — a panicking item propagates
//! instead of deadlocking the pool.

use m2ndp_sim::par::map_ordered_with;
use m2ndp_sim::rng::{exponential, seeded};
use proptest::prelude::*;

/// A deterministic but order-sensitive per-item computation: a seeded RNG
/// stream folded into a sum, so any cross-item state leakage or result
/// reordering would change the output bits.
fn seeded_work(seed: u64) -> u64 {
    let mut rng = seeded(seed);
    let mut acc = 0u64;
    for _ in 0..64 {
        acc = acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(exponential(&mut rng, 100.0).to_bits());
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `map_ordered_with` returns results in input order for any item count and
    /// any worker count, including pools wider than the input.
    #[test]
    fn map_ordered_preserves_input_order(
        items in prop::collection::vec(any::<u32>(), 0..80),
        jobs in 1usize..12,
    ) {
        let out = map_ordered_with(&items, jobs, |_, &x| u64::from(x) + 1);
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) + 1).collect();
        prop_assert_eq!(out, expect);
    }

    /// Equal seeds give bit-identical outputs at `jobs = 1, 2, 8`: the pool
    /// reorders execution, never results.
    #[test]
    fn equal_seeds_are_bit_identical_across_job_counts(
        seeds in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let serial = map_ordered_with(&seeds, 1, |_, &s| seeded_work(s));
        for jobs in [2usize, 8] {
            let par = map_ordered_with(&seeds, jobs, |_, &s| seeded_work(s));
            prop_assert_eq!(&par, &serial, "jobs={}", jobs);
        }
    }
}

/// The pool runs items genuinely concurrently: eight 100 ms sleeps on
/// eight workers must finish well under the 800 ms a serial loop needs.
/// Sleeping threads overlap even on a single-CPU machine, so this holds
/// wherever the suite runs (the generous bound absorbs scheduler jitter).
#[test]
fn workers_overlap_in_time() {
    let items = vec![(); 8];
    let t0 = std::time::Instant::now();
    let out = map_ordered_with(&items, 8, |_, ()| {
        std::thread::sleep(std::time::Duration::from_millis(100));
        1u32
    });
    let wall = t0.elapsed();
    assert_eq!(out, vec![1; 8]);
    assert!(
        wall < std::time::Duration::from_millis(500),
        "8 x 100 ms sleeps took {wall:?}; the pool is not overlapping work"
    );
}

/// A panicking item must propagate out of the pool — never deadlock it. If
/// the pool deadlocked this test would hang (and the suite's timeout would
/// flag it); instead `catch_unwind` observes the original payload.
#[test]
fn panicking_item_propagates_instead_of_deadlocking() {
    for jobs in [1usize, 2, 8] {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_ordered_with(&items, jobs, |_, &x| {
                assert!(x != 13, "poisoned item");
                x
            })
        }));
        let payload = result.expect_err("the poisoned item must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poisoned item"), "jobs={jobs}: got `{msg}`");
    }
}

/// After a panic the pool still joins every worker: a fresh pool on the
/// same thread keeps working (no leaked poisoned state, scoped threads all
/// gone).
#[test]
fn pool_is_reusable_after_a_panic() {
    let items: Vec<u32> = (0..32).collect();
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        map_ordered_with(&items, 4, |_, &x| {
            assert!(x % 7 != 3, "boom");
            x
        })
    }));
    let out = map_ordered_with(&items, 4, |worker, &x| {
        assert!(worker < 4);
        x * 2
    });
    assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}
