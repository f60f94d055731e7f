//! Back-invalidation (HDM-DB device coherence) model.
//!
//! With the HDM-DB model the device tracks host caching of its memory with a
//! snoop filter and back-invalidates (BI) the host cache when an NDP access
//! touches a line the host holds dirty (§II-B). The paper's limit study
//! (Fig. 13b) assumes a fraction of the kernel's data is dirty in the host
//! cache; each NDP read of such a line costs a BI round trip over the link,
//! and the data is supplied from the host — which, when the device DRAM is
//! saturated, partially *offsets* the cost by adding link bandwidth.
//!
//! The dirty-line decision is a deterministic hash of the line address so
//! runs are reproducible and exactly `dirty_ratio` of lines (in expectation)
//! are affected regardless of access order.

use m2ndp_sim::{Counter, Cycle, Frequency};

/// Back-invalidation model for one device.
#[derive(Debug, Clone)]
pub struct BackInvalidation {
    /// Fraction of kernel data lines dirty in the host cache (0.0–1.0).
    dirty_ratio: f64,
    /// BI round-trip latency in device cycles (snoop to host + response).
    rtt_cycles: Cycle,
    /// BI snoops issued; each hit line is supplied by the host.
    pub snoops: Counter,
}

impl BackInvalidation {
    /// Creates the model. `link_one_way_ns` is the CXL.mem one-way latency;
    /// a BI costs a full round trip plus host-cache handling (~20 ns).
    ///
    /// # Panics
    /// Panics unless `0.0 <= dirty_ratio <= 1.0`.
    pub fn new(dirty_ratio: f64, link_one_way_ns: f64, clock: Frequency) -> Self {
        assert!(
            (0.0..=1.0).contains(&dirty_ratio),
            "dirty ratio must be a fraction"
        );
        Self {
            dirty_ratio,
            rtt_cycles: clock.cycles_from_ns(2.0 * link_one_way_ns + 20.0),
            snoops: Counter::new(),
        }
    }

    /// A model with no dirty lines (the paper's default assumption: hosts do
    /// not mutate NDP kernel data such as model weights during inference).
    pub fn clean(clock: Frequency) -> Self {
        Self::new(0.0, 75.0, clock)
    }

    fn line_is_dirty(&self, line_addr: u64) -> bool {
        if self.dirty_ratio <= 0.0 {
            return false;
        }
        if self.dirty_ratio >= 1.0 {
            return true;
        }
        // SplitMix64 finalizer: uniform, deterministic per line.
        let mut x = line_addr >> 6;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as f64 / u64::MAX as f64) < self.dirty_ratio
    }

    /// Checks an NDP access to `addr`: returns the added latency (0 for
    /// clean lines) and whether the host supplies the data over the link.
    pub fn on_device_access(&mut self, addr: u64) -> BiOutcome {
        if self.line_is_dirty(addr) {
            self.snoops.inc();
            BiOutcome {
                extra_latency: self.rtt_cycles,
                host_supplies_data: true,
            }
        } else {
            BiOutcome {
                extra_latency: 0,
                host_supplies_data: false,
            }
        }
    }

    /// The configured dirty fraction.
    pub fn dirty_ratio(&self) -> f64 {
        self.dirty_ratio
    }
}

/// Result of a BI check for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiOutcome {
    /// Latency added to the access, in device cycles.
    pub extra_latency: Cycle,
    /// Whether the cacheline is supplied by the host over the CXL link
    /// (adding link traffic but relieving device DRAM).
    pub host_supplies_data: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_model_never_snoops() {
        let mut bi = BackInvalidation::clean(Frequency::ghz(2.0));
        for a in (0..100_000u64).step_by(64) {
            assert_eq!(bi.on_device_access(a).extra_latency, 0);
        }
        assert_eq!(bi.snoops.get(), 0);
    }

    #[test]
    fn all_dirty_always_snoops() {
        let mut bi = BackInvalidation::new(1.0, 75.0, Frequency::ghz(2.0));
        let o = bi.on_device_access(0x1000);
        assert!(o.extra_latency > 0);
        assert!(o.host_supplies_data);
    }

    #[test]
    fn dirty_fraction_is_respected() {
        let mut bi = BackInvalidation::new(0.4, 75.0, Frequency::ghz(2.0));
        let n = 50_000u64;
        let mut dirty = 0;
        for i in 0..n {
            if bi.on_device_access(i * 64).host_supplies_data {
                dirty += 1;
            }
        }
        let frac = dirty as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.02, "observed dirty fraction {frac}");
    }

    #[test]
    fn decision_is_per_line_deterministic() {
        let mut a = BackInvalidation::new(0.5, 75.0, Frequency::ghz(2.0));
        let mut b = BackInvalidation::new(0.5, 75.0, Frequency::ghz(2.0));
        for i in 0..1000u64 {
            assert_eq!(
                a.on_device_access(i * 64).host_supplies_data,
                b.on_device_access(i * 64).host_supplies_data
            );
        }
        // Same line, same answer (offsets within the line too).
        let x = a.on_device_access(0x40).host_supplies_data;
        let y = a.on_device_access(0x60).host_supplies_data;
        assert_eq!(x, y);
    }

    #[test]
    fn rtt_reflects_link_latency() {
        let bi = BackInvalidation::new(1.0, 75.0, Frequency::ghz(2.0));
        // 2*75 + 20 ns = 170 ns = 340 cycles.
        assert_eq!(bi.rtt_cycles, 340);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn out_of_range_ratio_rejected() {
        let _ = BackInvalidation::new(1.5, 75.0, Frequency::ghz(2.0));
    }
}
