//! Summary statistics over repetitions, the interval arithmetic behind
//! per-layer self time, and the digest of a run's simulated outputs.

use m2ndp::core::StatValue;
use m2ndp::sim::Fingerprint;

/// Median, averaging the middle pair for an even count (Python's
/// `statistics.median`). `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so spreads printed here match the ones
/// an external check computes. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-quantile (`0..=1`) by nearest rank on the sorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The sample a tenth of the way in from the good end, by nearest rank:
/// from the low end when lower is better, else from the high end. `NaN`
/// for an empty slice.
///
/// Every repetition of a workload does identical, digest-checked work, so
/// the spread among them is host interference, which only makes a
/// repetition slower. On a shared host that interference comes in bursts
/// lasting seconds to minutes; this tail reads the repetitions the bursts
/// missed without resting on the single luckiest one.
pub fn good_tail(xs: &[f64], lower_is_better: bool) -> f64 {
    let mut v = sorted(xs);
    if !lower_is_better {
        v.reverse();
    }
    let rank = (v.len() as f64 / 10.0).ceil().max(1.0) as usize;
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Digest of a run's simulated outputs: every named statistic, in order,
/// with floats folded by their exact bits. Any change to the modelled
/// behaviour moves it; a change to host speed alone must not.
pub fn digest<'a>(metrics: impl IntoIterator<Item = &'a (String, StatValue)>) -> u64 {
    let mut fp = Fingerprint::new();
    for (name, value) in metrics {
        fp.mix_bytes(name.as_bytes());
        fp.mix(match value {
            StatValue::U64(u) => *u,
            StatValue::F64(f) => f.to_bits(),
        });
    }
    fp.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp::core::MetricSet;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }

    #[test]
    fn good_tail_reads_from_the_better_end() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(good_tail(&xs, true), 2.0);
        assert_eq!(good_tail(&xs, false), 19.0);
        // Up to ten samples it is the best one; 11 to 20 the second best.
        assert_eq!(good_tail(&[3.0, 1.0, 2.0], true), 1.0);
        assert_eq!(good_tail(&xs[..11], true), 2.0);
        assert!(good_tail(&[], true).is_nan());
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(2.0, 4.0), (0.0, 1.0), (3.0, 6.0), (8.0, 12.0)];
        // [0,1] + [2,6] + [8,10] clipped to [0,10]
        assert_eq!(union_len(&mut iv, 0.0, 10.0), 1.0 + 4.0 + 2.0);
        assert_eq!(union_len(&mut [], 0.0, 1.0), 0.0);
        assert_eq!(union_len(&mut [(5.0, 6.0)], 0.0, 1.0), 0.0);
    }

    #[test]
    fn digest_depends_on_names_values_and_order() {
        let a = MetricSet::from(vec![
            ("x".to_string(), StatValue::U64(1)),
            ("y".to_string(), StatValue::F64(0.5)),
        ]);
        let b = MetricSet::from(vec![
            ("y".to_string(), StatValue::F64(0.5)),
            ("x".to_string(), StatValue::U64(1)),
        ]);
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }
}
