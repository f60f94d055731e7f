//! Cycle and frequency bookkeeping.
//!
//! All timing models in the workspace advance a single `u64` cycle count in
//! their own clock domain. Cross-domain conversion (host CPU at 3.2 GHz, GPU
//! at 1.695 GHz, NDP units at 2 GHz, DRAM at its own rate) goes through
//! nanoseconds via [`Frequency`].

/// A point in simulated time, measured in clock cycles of some domain.
///
/// Kept as a plain alias rather than a newtype: cycle arithmetic appears on
/// nearly every line of the timing models and the domain is always locally
/// unambiguous (each component runs in exactly one clock domain).
pub type Cycle = u64;

/// A clock frequency, used to convert between cycles and nanoseconds.
///
/// # Example
///
/// ```
/// use m2ndp_sim::Frequency;
/// let ndp = Frequency::ghz(2.0);
/// assert_eq!(ndp.cycles_from_ns(75.0), 150); // one-way CXL.mem latency at 2 GHz
/// assert!((ndp.ns_from_cycles(150) - 75.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Self { hz: ghz * 1e9 }
    }

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    /// Panics if `mhz` is not strictly positive and finite.
    pub fn mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        Self { hz: mhz * 1e6 }
    }

    /// The frequency in hertz.
    pub fn hz(&self) -> f64 {
        self.hz
    }

    /// Converts a duration in nanoseconds to a cycle count in this domain,
    /// rounding up (a latency of 1.2 cycles costs 2 cycles).
    pub fn cycles_from_ns(&self, ns: f64) -> Cycle {
        (ns * self.hz / 1e9).ceil() as Cycle
    }

    /// Converts a cycle count in this domain to nanoseconds.
    pub fn ns_from_cycles(&self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e9 / self.hz
    }

    /// Converts a byte-per-second bandwidth into bytes per cycle of this
    /// domain (e.g. 64 GB/s at 2 GHz = 32 B/cycle).
    pub fn bytes_per_cycle(&self, bytes_per_sec: f64) -> f64 {
        bytes_per_sec / self.hz
    }
}

impl Default for Frequency {
    /// 2 GHz, the default NDP-unit frequency of Table IV.
    fn default() -> Self {
        Frequency::ghz(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_round_trips_through_ns() {
        let f = Frequency::ghz(2.0);
        assert_eq!(f.cycles_from_ns(75.0), 150);
        assert_eq!(f.cycles_from_ns(0.0), 0);
        assert!((f.ns_from_cycles(150) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn mhz_matches_ghz() {
        assert_eq!(Frequency::mhz(1695.0).hz(), Frequency::ghz(1.695).hz());
    }

    #[test]
    fn cycles_round_up() {
        // 1 ns at 1.695 GHz is 1.695 cycles -> 2.
        assert_eq!(Frequency::ghz(1.695).cycles_from_ns(1.0), 2);
    }

    #[test]
    fn bandwidth_conversion() {
        let f = Frequency::ghz(2.0);
        let bpc = f.bytes_per_cycle(64e9);
        assert!((bpc - 32.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::ghz(0.0);
    }
}
