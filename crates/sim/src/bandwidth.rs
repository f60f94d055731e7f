//! Throughput limiting for links and ports.
//!
//! A [`BandwidthGate`] serializes transfers through a resource with a fixed
//! byte-per-cycle capacity: each transfer occupies the resource for
//! `bytes / bytes_per_cycle` cycles, and the gate tracks the earliest cycle
//! at which the next transfer may begin. This is the standard "next free
//! time" model for links, crossbar ports, and DRAM data buses.

use crate::time::Cycle;

/// A serializing byte-per-cycle bandwidth limiter.
///
/// # Example
///
/// ```
/// use m2ndp_sim::BandwidthGate;
/// let mut g = BandwidthGate::new(32.0); // 32 B/cycle
/// assert_eq!(g.earliest(0), 0);
/// g.consume(0, 256); // occupies 8 cycles
/// assert_eq!(g.earliest(0), 8);
/// assert_eq!(g.earliest(100), 100); // idle gaps are not banked
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthGate {
    bytes_per_cycle: f64,
    /// Earliest cycle the next transfer may start, in fractional cycles so
    /// that sub-cycle transfer times accumulate without rounding loss.
    next_free: f64,
    total_bytes: u64,
}

impl BandwidthGate {
    /// Creates a gate with the given capacity in bytes per cycle.
    ///
    /// # Panics
    /// Panics if `bytes_per_cycle` is not strictly positive and finite.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0,
            "bandwidth must be positive"
        );
        Self {
            bytes_per_cycle,
            next_free: 0.0,
            total_bytes: 0,
        }
    }

    /// The earliest cycle (rounded up) at which a transfer arriving at `now`
    /// could begin.
    pub fn earliest(&self, now: Cycle) -> Cycle {
        let start = self.next_free.max(now as f64);
        start.ceil() as Cycle
    }

    /// Occupies the gate for a transfer of `bytes` starting at `start`
    /// (callers should use [`Self::earliest`] first) and returns the cycle at
    /// which the last byte has passed.
    pub fn consume(&mut self, start: Cycle, bytes: u64) -> Cycle {
        let begin = self.next_free.max(start as f64);
        let duration = bytes as f64 / self.bytes_per_cycle;
        self.next_free = begin + duration;
        self.total_bytes += bytes;
        self.next_free.ceil() as Cycle
    }

    /// Convenience: begins the transfer as soon as the gate frees up (at
    /// fractional-cycle precision, so back-to-back small transfers pack
    /// tightly) and returns the completion cycle of the transfer.
    pub fn send(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.consume(now, bytes)
    }

    /// Total bytes that have passed through the gate.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut g = BandwidthGate::new(4.0);
        let t1 = g.send(0, 16); // 4 cycles
        let t2 = g.send(0, 16); // queued behind the first
        assert_eq!(t1, 4);
        assert_eq!(t2, 8);
    }

    #[test]
    fn idle_time_is_not_banked() {
        let mut g = BandwidthGate::new(4.0);
        g.send(0, 4);
        // Arriving long after the gate went idle starts immediately.
        assert_eq!(g.earliest(50), 50);
        assert_eq!(g.send(50, 8), 52);
    }

    #[test]
    fn fractional_capacity_accumulates_exactly() {
        // 3 B/cycle: three 1-byte sends take exactly 1 cycle total.
        let mut g = BandwidthGate::new(3.0);
        g.send(0, 1);
        g.send(0, 1);
        let t = g.send(0, 1);
        assert_eq!(t, 1);
        assert_eq!(g.total_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthGate::new(0.0);
    }
}
