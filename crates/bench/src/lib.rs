//! The experiment harness: everything the `figures` CLI and the
//! per-figure bench targets share.
//!
//! The `figures` binary regenerates the paper's main evaluation figures
//! (`figures --only <id>` prints one); each bench target in `benches/`
//! regenerates one of the remaining tables or figures (see the figure map
//! in PAPER.md for the index), printing the same rows/series the paper
//! reports. The harness here provides:
//!
//! * [`table::Table`] — aligned console tables;
//! * [`platforms`] — builders for the compared systems at a documented
//!   scale factor (all unit counts divided by 4 so each experiment runs in
//!   seconds; the BW ratios that drive the results are scale-invariant);
//! * [`runner`] — runs one Table V workload on one platform end to end
//!   (generate → launch → simulate → verify) and reports runtime and
//!   device statistics;
//! * [`sweep`] — the figure grids as independent cells, a thread-parallel
//!   executor, derived paper-comparable metrics, and their serialization
//!   (the `figures` CLI binary is a thin front over it);
//! * [`json`] — re-export of [`m2ndp::sim::json`], the dependency-free,
//!   deterministic JSON value used for the emitted results (shared with the
//!   `m2ndp-asm` and `m2ndp-trace` CLIs);
//! * [`golden`] — paper-anchored tolerance bands and the regression gate
//!   behind `figures --check`.

#![warn(missing_docs)]

pub mod golden;
pub use m2ndp::sim::json;
pub mod platforms;
pub mod runner;
pub mod sweep;
pub mod table;

/// Geometric mean of a slice (0.0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
