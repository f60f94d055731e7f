//! CXL.io / PCIe cost model (§II-C, Fig. 5).
//!
//! CXL.io is required for device management and is the conventional path for
//! computation offloading. Its latencies are µs-scale: the ring-buffer
//! scheme costs multiple link round-trips plus kernel-mode transitions, and
//! a DMA takes ≥1 µs \[61\]. The evaluation parameterizes the one-way CXL.io
//! latency `y` ≈ 500 ns (from the ~1 µs DMA) and charges:
//!
//! * ring buffer: `8y` of communication around a kernel (5y before, 3y
//!   after — doorbell, command fetch, launch + repeated error check,
//!   completion), ~4 µs total (§IV-A);
//! * direct MMIO: `3y` (y before, 2y after), ~1.5 µs total, but only one
//!   outstanding kernel since the device registers must not be overwritten.

/// CXL.io/PCIe latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlIoModel {
    /// One-way CXL.io latency in nanoseconds (Fig. 5's `y`, default 500 ns).
    pub one_way_ns: f64,
    /// DMA setup + completion overhead in nanoseconds (≥1 µs \[61\]).
    pub dma_overhead_ns: f64,
    /// Sustained DMA bandwidth in bytes/second (shares the PCIe PHY).
    pub dma_bw_bytes_per_sec: f64,
}

impl Default for CxlIoModel {
    fn default() -> Self {
        Self {
            one_way_ns: 500.0,
            dma_overhead_ns: 1000.0,
            dma_bw_bytes_per_sec: 64e9,
        }
    }
}

impl CxlIoModel {
    /// Creates the default model with a custom one-way latency (Fig. 11b
    /// equalizes it with CXL.mem at 600 ns LtU → 300 ns one-way).
    pub fn with_one_way_ns(one_way_ns: f64) -> Self {
        Self {
            one_way_ns,
            ..Self::default()
        }
    }

    /// Host-side overhead before a ring-buffer-launched kernel starts:
    /// user-buffer write, doorbell update, device DMA of the pointer and the
    /// command (Fig. 5b: 5y).
    pub fn ring_buffer_pre_ns(&self) -> f64 {
        5.0 * self.one_way_ns
    }

    /// Overhead after kernel completion before the host observes it with the
    /// repeated launch-and-error-check protocol (Fig. 5b: 3y).
    pub fn ring_buffer_post_ns(&self) -> f64 {
        3.0 * self.one_way_ns
    }

    /// Overhead before a direct-MMIO-launched kernel starts (Fig. 5c: y).
    pub fn direct_pre_ns(&self) -> f64 {
        self.one_way_ns
    }

    /// Overhead after completion for direct MMIO: the host polls the device
    /// register over CXL.io (Fig. 5c: 2y).
    pub fn direct_post_ns(&self) -> f64 {
        2.0 * self.one_way_ns
    }

    /// Latency of a DMA transfer of `bytes`.
    pub fn dma_ns(&self, bytes: u64) -> f64 {
        self.dma_overhead_ns + bytes as f64 / self.dma_bw_bytes_per_sec * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_evaluation_constants() {
        let io = CxlIoModel::default();
        // §IV-A: ring buffer 4 µs, direct MMIO 1.5 µs.
        assert_eq!(io.ring_buffer_pre_ns() + io.ring_buffer_post_ns(), 4000.0);
        assert_eq!(io.direct_pre_ns() + io.direct_post_ns(), 1500.0);
    }

    #[test]
    fn dma_includes_fixed_overhead() {
        let io = CxlIoModel::default();
        assert!(io.dma_ns(0) >= 1000.0);
        // 64 KB at 64 GB/s = 1 µs of transfer.
        assert!((io.dma_ns(65536) - 2024.0).abs() < 1.0);
    }

    #[test]
    fn fig5_split_is_5y_3y() {
        let io = CxlIoModel::with_one_way_ns(100.0);
        assert_eq!(io.ring_buffer_pre_ns(), 500.0);
        assert_eq!(io.ring_buffer_post_ns(), 300.0);
        assert_eq!(io.direct_pre_ns(), 100.0);
        assert_eq!(io.direct_post_ns(), 200.0);
    }
}
