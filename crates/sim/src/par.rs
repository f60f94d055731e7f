//! Deterministic, ordered, scoped fan-out — the worker pool that runs the
//! figure sweep's cells.
//!
//! The model is intentionally tiny: a fixed set of `jobs` scoped worker
//! threads pull item indices from an atomic counter and write results into
//! per-index slots, so [`map_ordered_with`] returns results **in input order
//! regardless of completion order**. There is no work stealing, no channels,
//! and no crates.io dependency — just `std::thread::scope`, which also means
//! a borrowed closure and borrowed items work without `'static` bounds.
//!
//! Determinism contract: the pool never changes *what* is computed, only
//! *when*. As long as each item's computation is self-contained (every cell
//! builds its own device or fleet), the returned vector is bit-identical
//! for any `jobs` value — the invariant the sweep's byte-stable JSON relies
//! on.
//!
//! Panic behaviour: a panicking item **cannot deadlock the pool**. The
//! panicking worker raises a bail flag on its way out, the remaining
//! workers stop pulling new items, `std::thread::scope` joins everyone, and
//! the panic resumes on the caller's thread.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a positive worker count from the environment variable `var`
/// (e.g. `M2NDP_JOBS`). Returns `None` when the variable is unset,
/// unparsable, or zero, so callers fall back to their own default.
pub fn env_jobs(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// Raises the bail flag if its worker unwinds, so sibling workers stop
/// pulling new items instead of racing a dying pool.
struct BailOnPanic<'a>(&'a AtomicBool);

impl Drop for BailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The shared pool core: runs `run_one(worker, index)` for every index in
/// `0..n` on up to `jobs` scoped workers and returns the results in index
/// order. `jobs <= 1` degenerates to a plain serial loop (worker id 0) with
/// no threads spawned.
///
/// # Panics
/// Propagates the first item panic after all workers have stopped.
fn run_indexed<R, F>(n: usize, jobs: usize, run_one: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return (0..n).map(|i| run_one(0, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let bail = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Workers are joined explicitly so the *original* item panic payload
    // resumes on the caller's thread (scope's implicit propagation would
    // replace it with "a scoped thread panicked").
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let (next, bail, slots, run_one) = (&next, &bail, &slots, &run_one);
                s.spawn(move || {
                    let _guard = BailOnPanic(bail);
                    while !bail.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = run_one(worker, i);
                        *slots[i].lock().expect("result slot lock") = Some(result);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every item ran")
        })
        .collect()
}

/// Maps `f` over `items` on up to `jobs` workers, returning the results
/// **in input order** regardless of completion order. Each call also gets
/// the id (`0..jobs`) of the worker that executed it — the hook the
/// sweep's `--timing` artifact uses to make its parallelism auditable.
/// Worker *assignment* is scheduling-dependent; the returned values must
/// not be. With `jobs == 1` this is a plain serial loop; because the pool
/// only reorders *when* items run, any `jobs` value yields identical
/// output for self-contained `f`.
///
/// # Panics
/// Propagates the first item panic once the pool has drained (see the
/// module docs — a panicking item never deadlocks the pool).
pub fn map_ordered_with<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), jobs, |worker, i| f(worker, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_returns_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..57).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = map_ordered_with(&items, jobs, |_, &x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_ids_stay_inside_the_pool() {
        let items = vec![(); 40];
        let workers = map_ordered_with(&items, 4, |worker, ()| worker);
        assert!(workers.into_iter().all(|w| w < 4));
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = map_ordered_with(&[] as &[u8], 8, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn env_jobs_rejects_garbage_and_zero() {
        // Touching the process environment is unsound in multi-threaded
        // tests; exercise the parse contract through unset names instead.
        assert_eq!(env_jobs("M2NDP_PAR_TEST_SURELY_UNSET"), None);
    }
}
