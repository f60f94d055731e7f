//! `--compare A.json B.json`: judges two result sets (written by `--out`)
//! against the bounds in `BENCHMARK.json`, and checks that the simulated
//! counts and model digests are identical.

use m2ndp::sim::json::Json;

use crate::spec::{Metric, Spec};

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worse_by(metric: &Metric, a: f64, b: f64) -> f64 {
    let delta = (b - a) / a;
    if metric.lower_is_better {
        delta
    } else {
        -delta
    }
}

/// The verdict on one metric: within its bound, or not.
pub fn verdict(metric: &Metric, a: f64, b: f64) -> &'static str {
    match metric.bound {
        Some(bound) if worse_by(metric, a, b) <= bound => "within bound",
        _ => "unresolved/regressed",
    }
}

fn value(entry: &Json, section: &str, name: &str) -> Option<f64> {
    entry.get(section)?.get(name)?.get("value")?.as_f64()
}

fn pairs(j: Option<&Json>) -> &[(String, Json)] {
    match j {
        Some(Json::Obj(pairs)) => pairs,
        _ => &[],
    }
}

/// Prints the comparison of result sets `a` and `b`; returns whether every
/// end-to-end metric is within bound and every count and digest is equal.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> bool {
    let mut ok = true;
    for (workload, ea) in pairs(Some(a)) {
        let Some(eb) = b.get(workload) else {
            println!("{workload}: only in the first set");
            ok = false;
            continue;
        };
        println!("{workload}");
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "A", "B", "delta", "bound"
        );
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                value(ea, "end_to_end", &m.name),
                value(eb, "end_to_end", &m.name),
            ) else {
                continue;
            };
            let v = verdict(m, va, vb);
            ok &= v == "within bound";
            println!(
                "  {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {v}",
                m.name,
                va,
                vb,
                (vb - va) / va * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
        let mut diffs = Vec::new();
        for (name, ca) in pairs(ea.get("counts")) {
            if let Some(cb) = eb.get("counts").and_then(|c| c.get(name)) {
                if ca != cb {
                    diffs.push(format!("{name}: {} vs {}", ca.pretty(), cb.pretty()));
                }
            }
        }
        let (da, db) = (ea.get("model_digest"), eb.get("model_digest"));
        if da != db {
            diffs.push(format!(
                "model_digest: {} vs {}",
                da.map_or("-".into(), Json::pretty),
                db.map_or("-".into(), Json::pretty)
            ));
        }
        if diffs.is_empty() {
            println!("  counts and model_digest identical");
        } else {
            ok = false;
            for d in diffs {
                println!("  differs: {d}");
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let lower = metric(true, 0.10);
        assert_eq!(verdict(&lower, 1.0, 1.05), "within bound");
        assert_eq!(verdict(&lower, 1.0, 1.2), "unresolved/regressed");
        assert_eq!(verdict(&lower, 1.0, 0.5), "within bound");
        let higher = metric(false, 0.10);
        assert_eq!(verdict(&higher, 100.0, 95.0), "within bound");
        assert_eq!(verdict(&higher, 100.0, 80.0), "unresolved/regressed");
        assert_eq!(verdict(&higher, 100.0, 150.0), "within bound");
        assert!((worse_by(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_count_and_bound_differences() {
        let spec = Spec {
            end_to_end: vec![Metric {
                name: "wall_s".into(),
                ..metric(true, 0.10)
            }],
            per_layer: Vec::new(),
        };
        let set = |wall: f64, cycles: u64| {
            Json::parse(&format!(
                r#"{{"histo": {{"model_digest": "0x1",
                    "end_to_end": {{"wall_s": {{"value": {wall}, "unit": "s"}}}},
                    "counts": {{"core.device.sim_cycles": {cycles}}}}}}}"#
            ))
            .unwrap()
        };
        assert!(compare(&spec, &set(1.0, 7), &set(1.05, 7)));
        assert!(!compare(&spec, &set(1.0, 7), &set(1.5, 7)));
        assert!(!compare(&spec, &set(1.0, 7), &set(1.0, 8)));
    }
}
