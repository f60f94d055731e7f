//! DRAM organizations and timing parameters (Table IV).

use m2ndp_sim::Frequency;

/// DRAM timing parameters, expressed in DRAM command-clock cycles exactly as
/// Table IV lists them.
///
/// Column commands are spaced by tCCD_L within a bankgroup and by the data
/// bus's burst occupancy across bankgroups; tCCD_S is not modeled, since
/// every preset's burst occupancy already covers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Row cycle: minimum time between ACT commands to the same bank.
    pub t_rc: u32,
    /// RAS-to-CAS delay: ACT to first READ/WRITE.
    pub t_rcd: u32,
    /// CAS latency: READ to first data beat.
    pub t_cl: u32,
    /// Precharge: PRE to ACT of the same bank.
    pub t_rp: u32,
    /// Column-to-column delay, same bankgroup (long).
    pub t_ccd_l: u32,
}

/// A complete DRAM device configuration in the owner clock domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Human-readable name ("LPDDR5", "HBM2").
    pub name: &'static str,
    /// Number of independent channels.
    pub channels: u32,
    /// Bankgroups per channel.
    pub bankgroups: u32,
    /// Banks per bankgroup.
    pub banks_per_group: u32,
    /// Row size (bytes) — one row buffer's worth of data per bank.
    pub row_bytes: u64,
    /// Minimum access granularity in bytes (32 for LPDDR5 and HBM2).
    pub access_bytes: u32,
    /// DRAM command-clock frequency.
    pub dram_clock: Frequency,
    /// Aggregate peak bandwidth across all channels, bytes/second.
    pub peak_bw_bytes_per_sec: f64,
    /// Timing parameters in DRAM clocks.
    pub timing: DramTiming,
    /// Per-channel request queue capacity.
    pub queue_depth: usize,
    /// Total capacity in bytes (Table IV: 256 GB per CXL device).
    pub capacity_bytes: u64,
}

impl DramConfig {
    /// The CXL memory expander's internal DRAM: 32-channel LPDDR5,
    /// 409.6 GB/s, 256 GB (Table IV, "CXL Memory Expander" block).
    pub fn lpddr5_cxl() -> Self {
        Self {
            name: "LPDDR5",
            channels: 32,
            bankgroups: 4,
            banks_per_group: 4,
            row_bytes: 2048,
            access_bytes: 32,
            dram_clock: Frequency::mhz(800.0),
            peak_bw_bytes_per_sec: 409.6e9,
            timing: DramTiming {
                t_rc: 48,
                t_rcd: 15,
                t_cl: 20,
                t_rp: 15,
                // The same-bankgroup column gap (2.5 ns) equals the 32 B
                // burst occupancy at 12.8 GB/s/channel, so back-to-back
                // hits stream at full bus rate as on real LPDDR5.
                t_ccd_l: 2,
            },
            queue_depth: 64,
            capacity_bytes: 256 << 30,
        }
    }

    /// The baseline GPU's local memory: HBM2, 32 channels, 1024 GB/s
    /// (Table IV, "GPU" block; tRCDR=14, tCL=14 etc. at 1000 MHz).
    pub fn hbm2_gpu() -> Self {
        Self {
            name: "HBM2",
            channels: 32,
            bankgroups: 4,
            banks_per_group: 4,
            row_bytes: 1024,
            access_bytes: 32,
            dram_clock: Frequency::mhz(1000.0),
            peak_bw_bytes_per_sec: 1024.0e9,
            timing: DramTiming {
                t_rc: 48,
                t_rcd: 14,
                t_cl: 14,
                t_rp: 15,
                t_ccd_l: 2,
            },
            queue_depth: 64,
            capacity_bytes: 24 << 30,
        }
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.bankgroups * self.banks_per_group
    }

    /// Peak per-channel bandwidth in bytes/second.
    pub fn channel_bw_bytes_per_sec(&self) -> f64 {
        self.peak_bw_bytes_per_sec / self.channels as f64
    }

    /// Converts a timing parameter given in DRAM clocks into cycles of the
    /// `owner` clock domain (rounding up).
    pub fn to_owner_cycles(&self, dram_clocks: u32, owner: Frequency) -> u64 {
        let ns = dram_clocks as f64 * 1e9 / self.dram_clock.hz();
        owner.cycles_from_ns(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpddr5_matches_table_iv() {
        let c = DramConfig::lpddr5_cxl();
        assert_eq!(c.channels, 32);
        assert_eq!(c.access_bytes, 32);
        assert_eq!(c.timing.t_rc, 48);
        assert_eq!(c.timing.t_rcd, 15);
        assert_eq!(c.timing.t_cl, 20);
        assert_eq!(c.timing.t_rp, 15);
        assert!((c.peak_bw_bytes_per_sec - 409.6e9).abs() < 1.0);
        assert_eq!(c.capacity_bytes, 256 << 30);
    }

    #[test]
    fn per_channel_bw_is_aggregate_over_channels() {
        let c = DramConfig::lpddr5_cxl();
        assert!((c.channel_bw_bytes_per_sec() - 12.8e9).abs() < 1.0);
    }

    #[test]
    fn owner_cycle_conversion() {
        let c = DramConfig::lpddr5_cxl();
        // 48 clocks at 800 MHz = 60 ns = 120 cycles at 2 GHz.
        assert_eq!(c.to_owner_cycles(48, Frequency::ghz(2.0)), 120);
    }
}
