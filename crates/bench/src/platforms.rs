//! The compared systems at bench scale.
//!
//! All unit counts are the paper's divided by [`SCALE`] (= 4) so each
//! experiment simulates in seconds. The results the figures report are
//! ratios between bandwidth-bound systems; the ratios are set by the CXL
//! link (64 GB/s), the device-internal DRAM (409.6 GB/s) and the
//! architectural mechanisms, none of which scale with unit count as long as
//! compute is not the bottleneck (these are memory-bound workloads by
//! construction — Fig. 1a). PAPER.md's "Model substitutions" section
//! records the ÷4 scale.

use m2ndp::core::CxlM2ndpDevice;
use m2ndp::sim::Frequency;
use m2ndp::SystemBuilder;

/// Unit-count divisor applied to every platform.
pub const SCALE: u32 = 4;

/// A configuration variant of a [`Platform`] — the knob one sensitivity or
/// ablation cell turns relative to the platform default. Parameters are
/// integers so variants stay `Copy + Eq` and produce stable cell keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The platform exactly as [`Platform::build`] makes it.
    Default,
    /// M²NDP at a non-default core clock, in MHz (Fig. 13a: 1000/3000).
    M2FreqMhz(u32),
    /// M²NDP without fine-grained µthread spawning: contexts spawn and
    /// release in coarse 16-µthread batches (Fig. 12a ablation).
    M2CoarseSpawn,
    /// M²NDP without scalar units or the address-calculation optimization
    /// (Fig. 12a ablation).
    M2NoAddrOpt,
    /// M²NDP with this percentage of kernel data dirty in the host cache,
    /// forcing back-invalidations (Fig. 13b: 20/40/80).
    M2DirtyPct(u32),
    /// GPU baseline with the CXL load-to-use latency scaled by this factor
    /// (Fig. 13a: 2/4).
    BaselineLtuX(u32),
}

impl Variant {
    /// A short stable suffix for cell keys ("" for the default).
    pub fn key_suffix(&self) -> String {
        match self {
            Variant::Default => String::new(),
            Variant::M2FreqMhz(mhz) => format!("@{}ghz", *mhz as f64 / 1000.0),
            Variant::M2CoarseSpawn => "@coarse".into(),
            Variant::M2NoAddrOpt => "@noaddr".into(),
            Variant::M2DirtyPct(p) => format!("@dirty{p}"),
            Variant::BaselineLtuX(x) => format!("@ltu{x}x"),
        }
    }

    /// Builds `platform` with this variant applied. The M²NDP variants run
    /// at the bench-scale 8 units (32 / [`SCALE`]), matching the devices the
    /// Fig. 12a/13a/13b benches compare against.
    pub fn build(&self, platform: Platform) -> CxlM2ndpDevice {
        match self {
            Variant::Default => platform.build(),
            Variant::M2FreqMhz(mhz) => SystemBuilder::m2ndp()
                .units(32 / SCALE)
                .frequency(Frequency::ghz(f64::from(*mhz) / 1000.0))
                .build(),
            Variant::M2CoarseSpawn => {
                let mut b = SystemBuilder::m2ndp().units(32 / SCALE);
                b.config_mut().engine.spawn_batch_contexts = 16;
                b.build()
            }
            Variant::M2NoAddrOpt => {
                let mut b = SystemBuilder::m2ndp().units(32 / SCALE);
                b.config_mut().engine.has_scalar_units = false;
                b.config_mut().engine.addr_calc_overhead = 3;
                b.build()
            }
            Variant::M2DirtyPct(pct) => SystemBuilder::m2ndp()
                .units(32 / SCALE)
                .dirty_host_ratio(f64::from(*pct) / 100.0)
                .build(),
            Variant::BaselineLtuX(x) => {
                let mut b = SystemBuilder::gpu_baseline();
                b.config_mut().engine.units = (82 / SCALE).max(1);
                b.ltu_scale(f64::from(*x)).build()
            }
        }
    }
}

/// The systems of Fig. 10c.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Host GPU (82/SCALE SMs, HBM2 local) + passive CXL expander.
    GpuBaseline,
    /// GPU-NDP with FLOPS equal to M²NDP's 32 units (8 SMs in the paper).
    GpuNdpIsoFlops,
    /// GPU-NDP with 4× FLOPS (32 SMs).
    GpuNdp4xFlops,
    /// GPU-NDP with 16× FLOPS (128 SMs).
    GpuNdp16xFlops,
    /// GPU-NDP with the same silicon area as M²NDP (16.2 SMs → 4 SMs at
    /// bench scale).
    GpuNdpIsoArea,
    /// The paper's CXL-M²NDP (32 units → 8 at bench scale).
    M2ndp,
}

impl Platform {
    /// All Fig. 10c platforms in presentation order.
    pub fn all() -> Vec<Platform> {
        vec![
            Platform::GpuBaseline,
            Platform::GpuNdpIsoFlops,
            Platform::GpuNdp4xFlops,
            Platform::GpuNdp16xFlops,
            Platform::GpuNdpIsoArea,
            Platform::M2ndp,
        ]
    }

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::GpuBaseline => "Baseline",
            Platform::GpuNdpIsoFlops => "GPU-NDP(Iso-FLOPS)",
            Platform::GpuNdp4xFlops => "GPU-NDP(4xFLOPS)",
            Platform::GpuNdp16xFlops => "GPU-NDP(16xFLOPS)",
            Platform::GpuNdpIsoArea => "GPU-NDP(Iso-Area)",
            Platform::M2ndp => "M2NDP",
        }
    }

    /// Builds the device at bench scale.
    pub fn build(&self) -> CxlM2ndpDevice {
        match self {
            Platform::GpuBaseline => {
                // 82 SMs / SCALE ≈ 20 SMs at 1695 MHz, data remote.
                let mut b = SystemBuilder::gpu_baseline();
                b.config_mut().engine.units = (82 / SCALE).max(1);
                b.build()
            }
            Platform::GpuNdpIsoFlops => SystemBuilder::gpu_ndp((8 / SCALE).max(1), 4).build(),
            Platform::GpuNdp4xFlops => SystemBuilder::gpu_ndp(32 / SCALE, 4).build(),
            Platform::GpuNdp16xFlops => SystemBuilder::gpu_ndp(128 / SCALE, 4).build(),
            Platform::GpuNdpIsoArea => SystemBuilder::gpu_ndp(16 / SCALE, 4).build(),
            Platform::M2ndp => SystemBuilder::m2ndp().units(32 / SCALE).build(),
        }
    }

    /// The `units` argument workload launches should pass: 1 whenever the
    /// engine spawns in threadblock batches (each batch's initializer is a
    /// single µthread, so the arg-block init count is 1 — this includes the
    /// "w/o fine-grained" ablation), the engine unit count otherwise.
    pub fn spad_units_arg(&self, device: &CxlM2ndpDevice) -> u32 {
        if device.config().engine.spawn_batch_contexts > 1 {
            1
        } else {
            device.config().engine.units
        }
    }

    /// The platform's core clock (for cycle→ns conversion).
    pub fn freq(&self, device: &CxlM2ndpDevice) -> Frequency {
        device.config().engine.freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_build() {
        for p in Platform::all() {
            let d = p.build();
            assert!(d.config().engine.units >= 1, "{}", p.label());
        }
    }

    #[test]
    fn baseline_routes_data_remotely() {
        let d = Platform::GpuBaseline.build();
        assert!(d.config().workload_data_remote);
        let m = Platform::M2ndp.build();
        assert!(!m.config().workload_data_remote);
    }

    #[test]
    fn iso_flops_is_quarter_of_m2ndp_units() {
        let iso = Platform::GpuNdpIsoFlops.build();
        let m2 = Platform::M2ndp.build();
        assert_eq!(iso.config().engine.units * 4, m2.config().engine.units);
    }

    #[test]
    fn variants_apply_their_knob() {
        let d = Variant::M2FreqMhz(3000).build(Platform::M2ndp);
        assert_eq!(d.config().engine.freq, Frequency::ghz(3.0));

        let d = Variant::M2CoarseSpawn.build(Platform::M2ndp);
        assert_eq!(d.config().engine.spawn_batch_contexts, 16);

        let d = Variant::M2NoAddrOpt.build(Platform::M2ndp);
        assert!(!d.config().engine.has_scalar_units);

        let d = Variant::M2DirtyPct(40).build(Platform::M2ndp);
        assert!((d.config().dirty_host_ratio - 0.4).abs() < 1e-12);

        let d = Variant::BaselineLtuX(4).build(Platform::GpuBaseline);
        assert!(d.config().workload_data_remote);
        let default = Variant::Default.build(Platform::GpuBaseline);
        assert!(d.config().link.load_to_use_ns() > default.config().link.load_to_use_ns());
    }

    #[test]
    fn variant_key_suffixes_are_stable() {
        assert_eq!(Variant::Default.key_suffix(), "");
        assert_eq!(Variant::M2FreqMhz(1000).key_suffix(), "@1ghz");
        assert_eq!(Variant::M2DirtyPct(80).key_suffix(), "@dirty80");
        assert_eq!(Variant::BaselineLtuX(2).key_suffix(), "@ltu2x");
    }
}
