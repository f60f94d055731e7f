//! Analytic cost model for scaling across multiple CXL-M²NDP devices
//! (§III-I).
//!
//! As in the paper's methodology, data is partitioned across devices by
//! software (model parallelism for DLRM/OPT, §IV-D) and one kernel is
//! launched per device; runtime is the slowest device plus any cross-device
//! combining step (the all-reduce of tensor-parallel transformer layers),
//! which crosses the switch via direct P2P.

use m2ndp_cxl::{CxlSwitch, SwitchConfig};
use m2ndp_sim::{Cycle, Frequency};

/// Cost model for one multi-device run.
#[derive(Debug, Clone)]
pub struct MultiDeviceRun {
    /// Per-device kernel completion cycles (each device ran 1/N of the
    /// work).
    pub per_device_cycles: Vec<Cycle>,
    /// Bytes each device must exchange in the combining step (0 when the
    /// workload has no cross-device reduction, e.g. DLRM SLS with disjoint
    /// outputs).
    pub allreduce_bytes_per_device: u64,
    /// Switch configuration for P2P.
    pub switch: SwitchConfig,
    /// Device clock for converting switch latencies.
    pub clock: Frequency,
}

impl MultiDeviceRun {
    /// Ring all-reduce across `n` devices through the switch: 2(n-1)
    /// lock-step rounds of direct P2P traffic, simulated by
    /// [`CxlSwitch::ring_allreduce`] against the per-port bandwidth gates
    /// (the same path the simulated [`crate::fleet::Fleet`] uses).
    pub fn allreduce_cycles(&self) -> Cycle {
        let n = self.per_device_cycles.len();
        let mut sw = CxlSwitch::new(self.switch, self.clock);
        sw.ring_allreduce(0, n, self.allreduce_bytes_per_device)
    }

    /// Total runtime: slowest device + combining step.
    pub fn total_cycles(&self) -> Cycle {
        let compute = self.per_device_cycles.iter().copied().max().unwrap_or(0);
        compute + self.allreduce_cycles()
    }

    /// Speedup over a single-device run taking `single_device_cycles`.
    pub fn speedup_over(&self, single_device_cycles: Cycle) -> f64 {
        single_device_cycles as f64 / self.total_cycles() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_allreduce_means_max_of_devices() {
        let run = MultiDeviceRun {
            per_device_cycles: vec![100, 120, 90, 110],
            allreduce_bytes_per_device: 0,
            switch: SwitchConfig::default(),
            clock: Frequency::ghz(2.0),
        };
        assert_eq!(run.total_cycles(), 120);
    }

    #[test]
    fn allreduce_adds_cost_and_grows_with_devices() {
        let mk = |n: usize| MultiDeviceRun {
            per_device_cycles: vec![1000; n],
            allreduce_bytes_per_device: 1 << 20,
            switch: SwitchConfig::default(),
            clock: Frequency::ghz(2.0),
        };
        let two = mk(2).allreduce_cycles();
        let eight = mk(8).allreduce_cycles();
        assert!(two > 0);
        assert!(eight > 0);
    }

    #[test]
    fn near_linear_scaling_when_compute_dominates() {
        // 8 devices each with 1/8 of the work; tiny all-reduce.
        let single = 80_000u64;
        let run = MultiDeviceRun {
            per_device_cycles: vec![single / 8; 8],
            allreduce_bytes_per_device: 4096,
            switch: SwitchConfig::default(),
            clock: Frequency::ghz(2.0),
        };
        let s = run.speedup_over(single);
        assert!(s > 6.0 && s <= 8.0, "speedup {s}");
    }

    #[test]
    fn small_model_scales_worse() {
        // OPT-2.7B effect: smaller per-device compute, same-ish allreduce.
        let mk = |per_dev: u64| MultiDeviceRun {
            per_device_cycles: vec![per_dev; 8],
            allreduce_bytes_per_device: 8 << 20,
            switch: SwitchConfig::default(),
            clock: Frequency::ghz(2.0),
        };
        let big = mk(1_000_000).speedup_over(8_000_000);
        let small = mk(50_000).speedup_over(400_000);
        assert!(
            small < big,
            "small model {small} should scale worse than {big}"
        );
    }
}
