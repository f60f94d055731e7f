//! Statistics collection: counters and a sample histogram with percentile
//! queries.
//!
//! The evaluation reports tail latencies (P95 for the KVStore experiments of
//! Figs. 1b, 10b and 11a), bandwidth utilizations and traffic breakdowns;
//! these types are the backing store for all of them.

/// Point-in-time snapshotting for monotonically growing statistics.
///
/// Long-lived models accumulate counters for their whole lifetime; an
/// experiment that reuses a model across phases (or across workload runs on
/// one device) wants the statistics of *one interval*. The pattern is:
/// clone a snapshot at the interval start, then ask the live value for its
/// [`delta_since`](Snapshot::delta_since) the snapshot at the end.
pub trait Snapshot: Clone {
    /// Returns the statistics accumulated since `baseline` was captured.
    ///
    /// Monotone quantities (counts, bytes, cycles) subtract; derived ratios
    /// that cannot be un-averaged keep the end-of-interval value (documented
    /// per implementation). Saturates rather than underflowing if `baseline`
    /// is newer than `self`.
    fn delta_since(&self, baseline: &Self) -> Self;
}

impl Snapshot for Counter {
    fn delta_since(&self, baseline: &Self) -> Self {
        Counter(self.0.saturating_sub(baseline.0))
    }
}

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use m2ndp_sim::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A sample-retaining histogram of `f64` observations (nanosecond latencies)
/// with exact percentile queries.
///
/// Stores every sample; the experiments record at most a few hundred
/// thousand observations, so exactness is affordable and avoids bucketing
/// error in the reported tail latencies. The open-loop serving simulations
/// keep their event clocks in `f64` nanoseconds end to end, so
/// `observed - arrival` is recorded exactly; callers that report whole
/// nanoseconds record truncated values, which rank and sum exactly below
/// 2^53.
///
/// # Example
///
/// ```
/// use m2ndp_sim::FHistogram;
/// let mut h = FHistogram::new();
/// for v in [1.5, 0.25, 3.75] {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(0.5), 1.5);
/// assert_eq!(h.max(), 3.75);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FHistogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl FHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics on non-finite observations (a NaN would poison every
    /// percentile query silently).
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "FHistogram observation must be finite: {v}");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The exact `p`-quantile (0.0 ..= 1.0) using the nearest-rank method,
    /// or 0.0 when empty.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// The exact quantiles for each `p` in `ps` (one sort for the batch).
    ///
    /// # Panics
    /// Panics if any `p` is outside `[0, 1]`.
    pub fn quantiles(&mut self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.percentile(p)).collect()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Smallest observation, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// The raw samples, in recording order if no percentile has been
    /// queried yet (queries sort in place).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_delta_since_subtracts_and_saturates() {
        let mut c = Counter::new();
        c.add(7);
        let snap = c;
        c.add(5);
        assert_eq!(c.delta_since(&snap).get(), 5);
        assert_eq!(snap.delta_since(&c).get(), 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut h = FHistogram::new();
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        assert_eq!(h.percentile(0.95), 95.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0); // rank clamps to 1
        assert_eq!(h.quantiles(&[0.5, 0.95, 1.0]), vec![50.0, 95.0, 100.0]);
    }

    #[test]
    fn percentile_after_interleaved_records() {
        let mut h = FHistogram::new();
        h.record(5.0);
        assert_eq!(h.percentile(1.0), 5.0);
        h.record(1.0);
        assert_eq!(h.percentile(0.5), 1.0);
    }

    #[test]
    fn fhistogram_keeps_sub_ns_precision() {
        let mut h = FHistogram::new();
        for v in [100.25, 100.75, 101.5] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 100.25);
        assert_eq!(h.percentile(1.0), 101.5);
        assert!((h.mean() - 100.833_333_333_333_33).abs() < 1e-9);
        assert_eq!(h.min(), 100.25);
    }

    #[test]
    fn fhistogram_extremes_handle_negative_samples() {
        let mut h = FHistogram::new();
        h.record(-5.0);
        h.record(-2.5);
        assert_eq!(h.max(), -2.5, "max must be an observed value");
        assert_eq!(h.min(), -5.0);
    }

    #[test]
    fn fhistogram_empty_is_zero() {
        let mut h = FHistogram::new();
        assert_eq!(h.percentile(0.95), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn fhistogram_rejects_nan() {
        FHistogram::new().record(f64::NAN);
    }
}
