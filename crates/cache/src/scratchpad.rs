//! On-chip scratchpad memory of an NDP unit.
//!
//! The paper's scratchpad differs from CUDA shared memory in scope: *all*
//! µthreads executing on an NDP unit share it (§III-D, advantage A3), versus
//! CUDA's threadblock-private shared memory. The scratchpad LSU supports
//! atomic operations (\[12\], vector-AMO extension) used for reductions
//! (Fig. 8's histogram/`AMOADD` pattern).
//!
//! Functional storage lives in the global [`MainMemory`](m2ndp_mem::MainMemory)
//! at a per-unit aperture (see [`SPAD_APERTURE_BASE`]); this type carries
//! only timing and traffic accounting, which Fig. 6b reports.

use m2ndp_sim::{Counter, Cycle};

/// Virtual-address base of the scratchpad aperture. The paper maps the
/// scratchpad into an unused region of the RISC-V virtual layout (§III-G,
/// \[51\]); kernels address it with normal loads/stores.
pub const SPAD_APERTURE_BASE: u64 = 0x0100_0000_0000;

/// Aperture stride between consecutive NDP units' scratchpads.
pub const SPAD_APERTURE_STRIDE: u64 = 0x0000_0100_0000;

/// Returns the functional-memory address backing scratchpad offset `off` of
/// NDP unit `unit`.
pub fn spad_backing_addr(unit: u32, off: u64) -> u64 {
    SPAD_APERTURE_BASE + unit as u64 * SPAD_APERTURE_STRIDE + off
}

/// Timing/traffic model for one unit's scratchpad.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity_bytes: u64,
    access_latency: Cycle,
    /// Read bytes (Fig. 6b "Spad mem." traffic).
    pub read_bytes: Counter,
    /// Written bytes.
    pub write_bytes: Counter,
    /// Atomic operations performed.
    pub atomics: Counter,
}

impl Scratchpad {
    /// Creates a scratchpad of `capacity_bytes` with the given access
    /// latency.
    pub fn new(capacity_bytes: u64, access_latency: Cycle) -> Self {
        Self {
            capacity_bytes,
            access_latency,
            read_bytes: Counter::new(),
            write_bytes: Counter::new(),
            atomics: Counter::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Accounts one access and returns the cycle its result is available.
    pub fn access(&mut self, now: Cycle, bytes: u32, write: bool, atomic: bool) -> Cycle {
        if write {
            self.write_bytes.add(bytes as u64);
        } else {
            self.read_bytes.add(bytes as u64);
        }
        if atomic {
            self.atomics.inc();
            // Atomic read-modify-write occupies the port for both phases.
            now + 2 * self.access_latency
        } else {
            now + self.access_latency
        }
    }

    /// Total traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.get() + self.write_bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_apertures_are_disjoint() {
        assert_eq!(spad_backing_addr(0, 0), SPAD_APERTURE_BASE);
        let last = (128 << 10) - 1; // a Table IV scratchpad's last byte
        for unit in [0, 5, 31] {
            assert!(spad_backing_addr(unit, last) < spad_backing_addr(unit + 1, 0));
        }
    }

    #[test]
    fn access_charges_latency_and_traffic() {
        let mut s = Scratchpad::new(128 << 10, 2);
        assert_eq!(s.access(10, 32, false, false), 12);
        assert_eq!(s.access(10, 8, true, false), 12);
        assert_eq!(s.access(10, 8, true, true), 14);
        assert_eq!(s.read_bytes.get(), 32);
        assert_eq!(s.write_bytes.get(), 16);
        assert_eq!(s.atomics.get(), 1);
        assert_eq!(s.total_bytes(), 48);
    }
}
