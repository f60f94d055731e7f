//! On-chip interconnect model.
//!
//! The CXL-M²NDP device connects its NDP units to the memory-side L2 slices
//! and memory controllers through crossbars — Table IV specifies "Four 32x32
//! crossbars (32 B flit)" for the device and an 82×48 crossbar for the GPU.
//! §III-E notes on-chip wires and bandwidth are abundant \[39\], so the model
//! is intentionally lean: per-source-port and per-destination-port
//! [`BandwidthGate`]s plus a fixed traversal
//! latency, with flit-granularity byte accounting.

#![warn(missing_docs)]

use m2ndp_sim::{BandwidthGate, Counter, Cycle};

/// A crossbar switching fabric with per-port bandwidth limits.
#[derive(Debug)]
pub struct Crossbar {
    src_gates: Vec<BandwidthGate>,
    dst_gates: Vec<BandwidthGate>,
    latency: Cycle,
    flit_bytes: u32,
    /// Total flits transferred.
    pub flits: Counter,
    /// Total payload bytes transferred.
    pub bytes: Counter,
}

/// Configuration for a [`Crossbar`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarConfig {
    /// Number of source ports.
    pub sources: usize,
    /// Number of destination ports.
    pub destinations: usize,
    /// Flit size in bytes (32 in Table IV).
    pub flit_bytes: u32,
    /// Per-port bandwidth in bytes/cycle.
    pub port_bytes_per_cycle: f64,
    /// Traversal latency in cycles.
    pub latency: Cycle,
}

impl CrossbarConfig {
    /// One of the CXL device's four 32×32 crossbars (Table IV); 32 B flits,
    /// one flit per port per cycle, few-cycle traversal.
    pub fn device_32x32() -> Self {
        Self {
            sources: 32,
            destinations: 32,
            flit_bytes: 32,
            port_bytes_per_cycle: 32.0,
            latency: 4,
        }
    }
}

impl Crossbar {
    /// Builds a crossbar.
    ///
    /// # Panics
    /// Panics if a dimension is zero.
    pub fn new(config: CrossbarConfig) -> Self {
        assert!(config.sources > 0 && config.destinations > 0);
        Self {
            src_gates: (0..config.sources)
                .map(|_| BandwidthGate::new(config.port_bytes_per_cycle))
                .collect(),
            dst_gates: (0..config.destinations)
                .map(|_| BandwidthGate::new(config.port_bytes_per_cycle))
                .collect(),
            latency: config.latency,
            flit_bytes: config.flit_bytes,
            flits: Counter::new(),
            bytes: Counter::new(),
        }
    }

    /// Routes `bytes` from source port `src` to destination port `dst`
    /// starting no earlier than `now`; returns the arrival cycle.
    ///
    /// # Panics
    /// Panics if a port index is out of range.
    pub fn route(&mut self, now: Cycle, src: usize, dst: usize, bytes: u32) -> Cycle {
        let flits = bytes.div_ceil(self.flit_bytes).max(1);
        let wire_bytes = flits as u64 * self.flit_bytes as u64;
        let injected = self.src_gates[src].send(now, wire_bytes);
        let delivered = self.dst_gates[dst].send(injected, wire_bytes);
        self.flits.add(flits as u64);
        self.bytes.add(bytes as u64);
        delivered + self.latency
    }

    /// Traversal latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Number of source ports.
    pub fn sources(&self) -> usize {
        self.src_gates.len()
    }

    /// Number of destination ports.
    pub fn destinations(&self) -> usize {
        self.dst_gates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_takes_latency_plus_serialization() {
        let mut xbar = Crossbar::new(CrossbarConfig::device_32x32());
        let arrive = xbar.route(0, 0, 0, 32);
        // 1 flit at 32 B/cycle through two gates + 4-cycle traversal.
        assert_eq!(arrive, 2 + 4);
    }

    #[test]
    fn contention_on_destination_port_serializes() {
        let mut xbar = Crossbar::new(CrossbarConfig::device_32x32());
        let a = xbar.route(0, 0, 5, 32);
        let b = xbar.route(0, 1, 5, 32);
        assert!(
            b > a,
            "same-destination transfers must serialize: {a} vs {b}"
        );
    }

    #[test]
    fn different_ports_do_not_contend() {
        let mut xbar = Crossbar::new(CrossbarConfig::device_32x32());
        let a = xbar.route(0, 0, 0, 32);
        let b = xbar.route(0, 1, 1, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn sub_flit_payload_rounds_up_to_flit() {
        let mut xbar = Crossbar::new(CrossbarConfig::device_32x32());
        xbar.route(0, 0, 0, 8);
        assert_eq!(xbar.flits.get(), 1);
        assert_eq!(xbar.bytes.get(), 8);
    }

    #[test]
    fn multi_flit_transfer_counts_flits() {
        let mut xbar = Crossbar::new(CrossbarConfig::device_32x32());
        xbar.route(0, 2, 3, 128);
        assert_eq!(xbar.flits.get(), 4);
    }

    #[test]
    #[should_panic]
    fn out_of_range_port_panics() {
        let mut xbar = Crossbar::new(CrossbarConfig::device_32x32());
        xbar.route(0, 99, 0, 32);
    }
}
