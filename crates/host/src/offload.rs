//! NDP offloading mechanisms and their end-to-end cost (Fig. 5). The
//! admission loop that runs offloads under these costs is
//! [`crate::serve`]'s.
//!
//! Three mechanisms launch kernels on the device:
//!
//! * **M²func** (this paper): one CXL.mem write (launch) + one CXL.mem read
//!   (return value) — `z + 2x` end to end, with up to 48 concurrent kernels;
//! * **CXL.io ring buffer**: doorbell, command DMA, launch + error check —
//!   `z + 8y` (5y before, 3y after), concurrent kernels allowed;
//! * **CXL.io direct MMIO**: `z + 3y`, but a *single* outstanding kernel,
//!   since the device registers must not be overwritten (§II-C).

use m2ndp_cxl::{CxlIoModel, CxlLinkConfig};

/// A kernel-offload mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadMechanism {
    /// Memory-mapped functions over CXL.mem (§III-B).
    M2Func,
    /// Conventional ring buffer over CXL.io/PCIe.
    CxlIoRingBuffer,
    /// Direct device-register MMIO over CXL.io/PCIe.
    CxlIoDirect,
}

/// Latency/concurrency model for one mechanism.
#[derive(Debug, Clone)]
pub struct OffloadModel {
    mechanism: OffloadMechanism,
    link: CxlLinkConfig,
    io: CxlIoModel,
}

impl OffloadModel {
    /// Builds the model from the link/IO parameters in play.
    pub fn new(mechanism: OffloadMechanism, link: CxlLinkConfig, io: CxlIoModel) -> Self {
        Self {
            mechanism,
            link,
            io,
        }
    }

    /// Default-parameter model for a mechanism.
    pub fn with_defaults(mechanism: OffloadMechanism) -> Self {
        Self::new(
            mechanism,
            CxlLinkConfig::default_150ns(),
            CxlIoModel::default(),
        )
    }

    /// The mechanism.
    pub fn mechanism(&self) -> OffloadMechanism {
        self.mechanism
    }

    /// Host-side latency before the kernel starts executing (ns).
    pub fn pre_ns(&self) -> f64 {
        match self.mechanism {
            OffloadMechanism::M2Func => self.link.one_way_ns, // x
            OffloadMechanism::CxlIoRingBuffer => self.io.ring_buffer_pre_ns(),
            OffloadMechanism::CxlIoDirect => self.io.direct_pre_ns(),
        }
    }

    /// Latency after kernel completion until the host observes it (ns).
    pub fn post_ns(&self) -> f64 {
        match self.mechanism {
            OffloadMechanism::M2Func => self.link.one_way_ns, // x (sync read return)
            OffloadMechanism::CxlIoRingBuffer => self.io.ring_buffer_post_ns(),
            OffloadMechanism::CxlIoDirect => self.io.direct_post_ns(),
        }
    }

    /// Total communication overhead around one kernel (Fig. 5's totals
    /// minus z).
    pub fn overhead_ns(&self) -> f64 {
        self.pre_ns() + self.post_ns()
    }

    /// End-to-end latency of one kernel of runtime `z_ns`.
    pub fn end_to_end_ns(&self, z_ns: f64) -> f64 {
        z_ns + self.overhead_ns()
    }

    /// Maximum concurrently outstanding kernels (Table IV's 48; direct
    /// MMIO's one register set, §II-C).
    pub fn max_concurrent(&self) -> u32 {
        match self.mechanism {
            OffloadMechanism::M2Func | OffloadMechanism::CxlIoRingBuffer => 48,
            OffloadMechanism::CxlIoDirect => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_overheads_match_paper_math() {
        // x = 75 ns, y = 500 ns → M²func 150 ns, RB 4000 ns, DR 1500 ns.
        let m2 = OffloadModel::with_defaults(OffloadMechanism::M2Func);
        let rb = OffloadModel::with_defaults(OffloadMechanism::CxlIoRingBuffer);
        let dr = OffloadModel::with_defaults(OffloadMechanism::CxlIoDirect);
        assert!((m2.overhead_ns() - 150.0).abs() < 1e-9);
        assert!((rb.overhead_ns() - 4000.0).abs() < 1e-9);
        assert!((dr.overhead_ns() - 1500.0).abs() < 1e-9);
        // Fig. 5 example: z = 6.4 µs → communication reduced 33–75 %.
        let z = 6400.0;
        assert!(m2.end_to_end_ns(z) < dr.end_to_end_ns(z));
        assert!(dr.end_to_end_ns(z) < rb.end_to_end_ns(z));
        let comm_reduction_vs_rb = 1.0 - m2.overhead_ns() / rb.overhead_ns();
        assert!(comm_reduction_vs_rb > 0.9);
    }

    #[test]
    fn direct_mmio_serializes_kernels() {
        let dr = OffloadModel::with_defaults(OffloadMechanism::CxlIoDirect);
        assert_eq!(dr.max_concurrent(), 1);
        let m2 = OffloadModel::with_defaults(OffloadMechanism::M2Func);
        assert_eq!(m2.max_concurrent(), 48);
    }
}
