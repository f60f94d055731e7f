//! Energy and area models (§IV-E, §IV-F).
//!
//! The paper models CPU energy with McPAT, GPU/NDP energy with AccelWattch,
//! SRAM with CACTI 6.5, NoC with DSENT, and uses 8 pJ/bit for the CXL link
//! \[38\]. This crate reproduces the *accounting structure* with published
//! per-event constants: energy = Σ (event counts × per-event energy) +
//! static power × runtime. Figures report energy ratios, which depend on
//! the event mix and runtime ratios rather than on absolute calibration.
//!
//! The area ledger reproduces §IV-F: register files 0.25 mm², unified
//! L1/scratchpad 0.45 mm², 0.002 mm² per µthread slot, 0.83 mm² per NDP
//! unit and 26.4 mm² for the 32-unit device at 7 nm.

#![warn(missing_docs)]

use m2ndp_core::DeviceStats;
use m2ndp_sim::Frequency;

/// Per-event and static energy constants for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DRAM access energy per byte (pJ/B). LPDDR5 ≈ 4 pJ/bit ≈ 32 pJ/B;
    /// DDR5 higher, HBM2 lower.
    pub dram_pj_per_byte: f64,
    /// CXL link energy per byte (8 pJ/bit = 64 pJ/B, Dally \[38\]).
    pub link_pj_per_byte: f64,
    /// L2/SRAM access energy per byte.
    pub sram_pj_per_byte: f64,
    /// Scratchpad access energy per byte.
    pub spad_pj_per_byte: f64,
    /// Energy per executed instruction (pJ) — datapath + register file.
    pub instr_pj: f64,
    /// Static/idle power of the platform's compute logic (W).
    pub static_w: f64,
    /// Idle host power attributed while NDP runs (W) — the paper includes
    /// the idle host's energy during NDP (§IV-A).
    pub idle_host_w: f64,
}

impl EnergyModel {
    /// The CXL-M²NDP device: small units, low static power.
    pub fn m2ndp() -> Self {
        Self {
            dram_pj_per_byte: 32.0,
            link_pj_per_byte: 64.0,
            sram_pj_per_byte: 8.0,
            spad_pj_per_byte: 2.0,
            instr_pj: 8.0,
            static_w: 6.0,
            idle_host_w: 80.0,
        }
    }

    /// The baseline GPU (82 SMs + HBM2).
    pub fn gpu() -> Self {
        Self {
            dram_pj_per_byte: 28.0, // HBM2 is more efficient per byte
            link_pj_per_byte: 64.0,
            sram_pj_per_byte: 10.0,
            spad_pj_per_byte: 2.5,
            instr_pj: 25.0, // SIMT overheads: wide RF, operand collectors
            static_w: 90.0,
            idle_host_w: 0.0,
        }
    }

    /// GPU-NDP: GPU SMs inside the device, scaled static power per SM.
    pub fn gpu_ndp(sms: u32) -> Self {
        Self {
            static_w: 90.0 * sms as f64 / 82.0,
            idle_host_w: 80.0,
            ..Self::gpu()
        }
    }

    /// Total energy in joules for a run summarized by `stats` at `freq`.
    pub fn energy_j(&self, stats: &DeviceStats, freq: Frequency) -> f64 {
        let runtime_s = freq.ns_from_cycles(stats.cycles) * 1e-9;
        let dynamic_pj = stats.dram_bytes as f64 * self.dram_pj_per_byte
            + (stats.link_m2s_bytes + stats.link_s2m_bytes) as f64 * self.link_pj_per_byte
            + stats.l2_accesses as f64 * 32.0 * self.sram_pj_per_byte
            + stats.spad_bytes as f64 * self.spad_pj_per_byte
            + stats.instrs as f64 * self.instr_pj;
        dynamic_pj * 1e-12 + (self.static_w + self.idle_host_w) * runtime_s
    }
}

/// The NDP-unit area ledger of §IV-F (7 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Register files (int + fp + vector) per unit, mm².
    pub regfile_mm2: f64,
    /// Unified L1/scratchpad array per unit, mm².
    pub l1_spad_mm2: f64,
    /// Per-µthread-slot control state, mm².
    pub per_slot_mm2: f64,
    /// Compute units (FPnew-based \[99\]) + remaining logic per unit, mm².
    pub compute_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            regfile_mm2: 0.25,
            l1_spad_mm2: 0.45,
            per_slot_mm2: 0.002,
            compute_mm2: 0.002, // balances the unit to the paper's 0.83 mm²
        }
    }
}

impl AreaModel {
    /// Area of one NDP unit with `slots` µthread slots (64 in Table IV).
    pub fn unit_mm2(&self, slots: u32) -> f64 {
        self.regfile_mm2 + self.l1_spad_mm2 + self.per_slot_mm2 * slots as f64 + self.compute_mm2
    }

    /// Area of the full device's NDP logic.
    pub fn device_mm2(&self, units: u32, slots_per_unit: u32) -> f64 {
        self.unit_mm2(slots_per_unit) * units as f64
    }

    /// The paper's GPU-SM area estimate used for the Iso-Area comparison:
    /// 26.4 mm² buys 16.2 SMs, so one SM ≈ 1.63 mm².
    pub fn gpu_sm_mm2() -> f64 {
        26.4 / 16.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, dram: u64, link: u64, instrs: u64) -> DeviceStats {
        DeviceStats {
            cycles,
            dram_bytes: dram,
            link_m2s_bytes: link / 2,
            link_s2m_bytes: link / 2,
            instrs,
            ..DeviceStats::default()
        }
    }

    #[test]
    fn unit_area_matches_paper() {
        let a = AreaModel::default();
        let unit = a.unit_mm2(64);
        assert!(
            (unit - 0.83).abs() < 0.01,
            "unit area {unit} should be ≈0.83 mm² (§IV-F)"
        );
        let device = a.device_mm2(32, 64);
        assert!(
            (device - 26.4).abs() < 0.5,
            "device area {device} should be ≈26.4 mm²"
        );
    }

    #[test]
    fn iso_area_sm_count() {
        // 26.4 mm² / SM area ≈ 16.2 SMs (§IV-A GPU-NDP(Iso-Area)).
        let sms = AreaModel::default().device_mm2(32, 64) / AreaModel::gpu_sm_mm2();
        assert!((sms - 16.2).abs() < 0.4, "iso-area SMs {sms}");
    }

    #[test]
    fn moving_less_data_over_link_saves_energy() {
        let freq = Frequency::ghz(2.0);
        let m = EnergyModel::m2ndp();
        // Same work, one moving 10x the bytes over the link.
        let local = m.energy_j(&stats(1_000_000, 1 << 30, 1 << 20, 1 << 20), freq);
        let linky = m.energy_j(&stats(1_000_000, 1 << 30, 10 << 30, 1 << 20), freq);
        assert!(linky > local * 2.0);
    }

    #[test]
    fn shorter_runtime_cuts_static_energy() {
        let freq = Frequency::ghz(2.0);
        let m = EnergyModel::gpu();
        let slow = m.energy_j(&stats(100_000_000, 1 << 30, 0, 1 << 24), freq);
        let fast = m.energy_j(&stats(10_000_000, 1 << 30, 0, 1 << 24), freq);
        assert!(slow > fast);
    }
}
