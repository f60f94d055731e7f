//! Configurations for the execution engine and the full device (Table IV).

use m2ndp_cache::CacheConfig;
use m2ndp_cxl::CxlLinkConfig;
use m2ndp_mem::DramConfig;
use m2ndp_sim::{Cycle, Frequency};

/// Functional-unit latencies/occupancies for one sub-core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    /// Scalar integer ALU result latency.
    pub alu: Cycle,
    /// Scalar multiplier latency.
    pub mul: Cycle,
    /// Scalar divide / SFU long-op latency.
    pub div: Cycle,
    /// Scalar FP add/mul/fma latency.
    pub fp: Cycle,
    /// Special-function (sqrt/exp/fdiv) latency.
    pub sfu: Cycle,
    /// Vector ALU latency.
    pub valu: Cycle,
    /// Vector FP latency.
    pub vfpu: Cycle,
    /// Vector SFU latency.
    pub vsfu: Cycle,
    /// Scratchpad access latency.
    pub spad: Cycle,
}

impl Default for FuLatencies {
    fn default() -> Self {
        Self {
            alu: 1,
            mul: 4,
            div: 16,
            fp: 4,
            sfu: 16,
            valu: 2,
            vfpu: 4,
            vsfu: 16,
            spad: 2,
        }
    }
}

/// Parameters of the execution engine: the NDP units of Table IV, or — with
/// the `gpu_*` presets — GPU SMs for the baseline/GPU-NDP comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of units (NDP units or SMs).
    pub units: u32,
    /// Sub-cores per unit (4 for the NDP unit; warp schedulers for an SM).
    pub subcores_per_unit: u32,
    /// µthread (or warp) slots per sub-core (16 for the NDP unit).
    pub slots_per_subcore: u32,
    /// Instructions dispatched per sub-core per cycle (4-way, Fig. 7).
    pub dispatch_width: u32,
    /// Scalar ALUs per sub-core (2 for NDP; 0 in SIMT-only GPU mode).
    pub scalar_alus: u32,
    /// Scalar SFUs per sub-core.
    pub scalar_sfus: u32,
    /// Scalar LSUs per sub-core.
    pub scalar_lsus: u32,
    /// Vector ALUs per sub-core.
    pub vector_alus: u32,
    /// Vector SFUs per sub-core.
    pub vector_sfus: u32,
    /// Vector LSUs per sub-core.
    pub vector_lsus: u32,
    /// Sub-threads per execution context: 1 = µthread; 4 = GPU warp
    /// (32 threads × 4 B = 128 B per warp vs the µthread's 32 B, §III-D A4).
    pub threads_per_context: u32,
    /// Contexts spawned/released as one group: 1 = fine-grained µthread
    /// spawning with a unit-wide scratchpad (A2, A3); >1 = threadblock
    /// granularity, each threadblock with its own scratchpad (CUDA shared
    /// memory). Also the ablation "w/o Fine-grained thr" (Fig. 12a).
    pub spawn_batch_contexts: u32,
    /// Whether scalar instructions have real scalar units (A1). When false
    /// (SIMT-only GPU, or the "w/o Addr opt." ablation) scalar work occupies
    /// the vector ALU.
    pub has_scalar_units: bool,
    /// Extra address-calculation ALU instructions charged per context spawn
    /// (GPU index arithmetic; 0 when µthreads are memory-mapped, A1).
    pub addr_calc_overhead: u32,
    /// Register file bytes per unit (48 KB for the NDP unit; 256 KB per SM).
    pub regfile_bytes_per_unit: u32,
    /// Scratchpad/L1D array bytes per unit (128 KB).
    pub spad_bytes_per_unit: u32,
    /// Bytes of pool region mapped to each sub-thread (32 B, matching the
    /// LPDDR5 access granularity, A4).
    pub granule_bytes: u32,
    /// Core clock.
    pub freq: Frequency,
    /// L1 data cache (None = all array used as scratchpad).
    pub l1d: Option<CacheConfig>,
    /// Functional-unit latencies.
    pub lat: FuLatencies,
    /// Maximum concurrently resident kernel instances (48, Table IV).
    pub max_concurrent_kernels: u32,
}

impl EngineConfig {
    /// The M²NDP configuration of Table IV: 32 NDP units @ 2 GHz, 4
    /// sub-cores each, 16 µthread slots per sub-core, 48 KB register file,
    /// 128 KB scratchpad/L1D.
    pub fn m2ndp() -> Self {
        Self {
            units: 32,
            subcores_per_unit: 4,
            slots_per_subcore: 16,
            dispatch_width: 4,
            scalar_alus: 2,
            scalar_sfus: 1,
            scalar_lsus: 1,
            vector_alus: 1,
            vector_sfus: 1,
            vector_lsus: 1,
            threads_per_context: 1,
            spawn_batch_contexts: 1,
            has_scalar_units: true,
            addr_calc_overhead: 0,
            regfile_bytes_per_unit: 48 << 10,
            spad_bytes_per_unit: 128 << 10,
            granule_bytes: 32,
            freq: Frequency::ghz(2.0),
            l1d: Some(CacheConfig::ndp_l1d()),
            lat: FuLatencies::default(),
            max_concurrent_kernels: 48,
        }
    }

    /// A GPU SM array in NDP position (GPU-NDP of §IV-A): `sms` Ampere-like
    /// SMs at `freq`. Warp-granularity contexts, threadblock spawning with
    /// `tb_warps` warps per TB, SIMT-only (no scalar units), TB-scoped
    /// shared memory, CUDA-style index arithmetic overhead.
    pub fn gpu_ndp(sms: u32, freq: Frequency, tb_warps: u32) -> Self {
        Self {
            units: sms,
            subcores_per_unit: 4,  // 4 warp schedulers per SM
            slots_per_subcore: 12, // 48 warps per SM / 4 schedulers
            dispatch_width: 1,
            scalar_alus: 0,
            scalar_sfus: 0,
            scalar_lsus: 1,
            vector_alus: 1,
            vector_sfus: 1,
            vector_lsus: 1,
            threads_per_context: 4, // 32 threads × 4 B = 128 B per warp
            spawn_batch_contexts: tb_warps,
            has_scalar_units: false,
            addr_calc_overhead: 3,
            regfile_bytes_per_unit: 256 << 10,
            spad_bytes_per_unit: 128 << 10,
            granule_bytes: 32,
            freq,
            l1d: Some(CacheConfig::gpu_l1()),
            lat: FuLatencies::default(),
            max_concurrent_kernels: 48,
        }
    }

    /// The baseline host GPU of Table IV (82 SMs @ 1695 MHz), used with its
    /// local HBM2 and a CXL link to the expander.
    pub fn gpu_host() -> Self {
        Self::gpu_ndp(82, Frequency::mhz(1695.0), 4)
    }

    /// Total µthread/warp slots per unit.
    pub fn slots_per_unit(&self) -> u32 {
        self.subcores_per_unit * self.slots_per_subcore
    }

    /// Total slots in the engine.
    pub fn total_slots(&self) -> u32 {
        self.units * self.slots_per_unit()
    }

    /// Register bytes one context of a kernel with the given per-thread
    /// register counts occupies.
    pub fn context_reg_bytes(&self, int_regs: u8, float_regs: u8, vector_regs: u8) -> u32 {
        let per_thread = int_regs as u32 * 8 + float_regs as u32 * 8 + vector_regs as u32 * 32;
        per_thread * self.threads_per_context
    }
}

/// Full device configuration (Table IV, "CXL Memory Expander" + "NDP in CXL
/// Memory" blocks).
#[derive(Debug, Clone, PartialEq)]
pub struct M2ndpConfig {
    /// The execution engine (NDP units or GPU-NDP SMs).
    pub engine: EngineConfig,
    /// Internal DRAM.
    pub dram: DramConfig,
    /// Memory-side L2 slice per channel.
    pub l2_slice: CacheConfig,
    /// The CXL link to the host.
    pub link: CxlLinkConfig,
    /// Host-cache dirty fraction for the BI limit study (Fig. 13b).
    pub dirty_host_ratio: f64,
    /// Route workload data (addresses below the DRAM-TLB region) to the
    /// remote memory behind the CXL link: the *baseline* placement, where a
    /// host GPU's working set lives in a passive CXL expander.
    pub workload_data_remote: bool,
    /// Also charge remote read *responses* (data flowing back from the
    /// remote memory) against the link's return-direction bandwidth gate.
    /// The NDP-in-switch configuration (§III-J) sets this: its pull path
    /// is the switch ports, whose aggregate bandwidth both the requests
    /// and the returning data must share. Off by default — the GPU
    /// baseline keeps the seed's request-only accounting.
    pub charge_remote_responses: bool,
}

impl M2ndpConfig {
    /// The paper's default CXL-M²NDP device.
    pub fn default_device() -> Self {
        Self {
            engine: EngineConfig::m2ndp(),
            dram: DramConfig::lpddr5_cxl(),
            l2_slice: CacheConfig::memside_l2_slice(),
            link: CxlLinkConfig::default_150ns(),
            dirty_host_ratio: 0.0,
            workload_data_remote: false,
            charge_remote_responses: false,
        }
    }

    /// GPU-NDP variant: GPU SMs inside the CXL device (§IV-A).
    pub fn gpu_ndp_device(sms: u32, freq: Frequency, tb_warps: u32) -> Self {
        Self {
            engine: EngineConfig::gpu_ndp(sms, freq, tb_warps),
            ..Self::default_device()
        }
    }
}

impl Default for M2ndpConfig {
    fn default() -> Self {
        Self::default_device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2ndp_matches_table_iv() {
        let e = EngineConfig::m2ndp();
        assert_eq!(e.units, 32);
        assert_eq!(e.subcores_per_unit, 4);
        assert_eq!(e.slots_per_subcore, 16);
        assert_eq!(e.slots_per_unit(), 64);
        assert_eq!(e.total_slots(), 2048);
        assert_eq!(e.regfile_bytes_per_unit, 48 << 10);
        assert_eq!(e.spad_bytes_per_unit, 128 << 10);
        assert_eq!(e.max_concurrent_kernels, 48);
        assert_eq!(e.freq, Frequency::ghz(2.0));
    }

    #[test]
    fn context_resource_math() {
        let e = EngineConfig::m2ndp();
        // 5 int + 3 vector registers (Fig. 4 example): 5*8 + 3*32 = 136 B.
        assert_eq!(e.context_reg_bytes(5, 0, 3), 136);
        let g = EngineConfig::gpu_ndp(8, Frequency::ghz(2.0), 4);
        assert_eq!(g.context_reg_bytes(5, 0, 3), 136 * 4);
    }

    #[test]
    fn gpu_mode_flags_differ() {
        let e = EngineConfig::m2ndp();
        let g = EngineConfig::gpu_host();
        assert!(e.has_scalar_units && !g.has_scalar_units);
        assert_eq!(e.spawn_batch_contexts, 1);
        assert!(g.spawn_batch_contexts > 1);
        assert_eq!(g.units, 82);
    }
}
