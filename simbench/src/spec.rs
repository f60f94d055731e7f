//! The metric definitions: names, units, directions and bounds come from
//! the repository's `BENCHMARK.json`, so the benchmark prints exactly the
//! metrics that file declares.

use m2ndp::sim::json::Json;

/// `BENCHMARK.json`, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The declared metrics.
#[derive(Debug, Clone)]
pub struct Spec {
    /// End-to-end metrics, measured untraced.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, measured by traced repetitions.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    /// If the file is malformed (it is part of the benchmark's source).
    pub fn load() -> Self {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Metric> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lists {key}");
            };
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| match m.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        _ => panic!("BENCHMARK.json {key} entry lacks {k}"),
                    };
                    Metric {
                        name: text("name"),
                        unit: text("unit"),
                        lower_is_better: text("better") == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Self {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_bounded_end_to_end_metrics() {
        let spec = Spec::load();
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(!spec.per_layer.is_empty());
    }
}
