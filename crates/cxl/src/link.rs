//! The CXL.mem link: per-direction bandwidth and one-way latency.
//!
//! Table IV: "64 GB/s (in each dir.) from CXL 3.0 (PCIe 6.0) x8, 256 B flit;
//! load-to-use latency 150 ns / 300 ns / 600 ns". Following Fig. 5 the
//! one-way CXL.mem latency `x` is half the load-to-use figure (x = 75 ns for
//! the 150 ns default); the sensitivity studies (Fig. 13a) scale it 2–4×.
//!
//! The link keeps no packets: each send returns the packet's arrival cycle,
//! and the sender schedules the delivery in its own event queues.

use m2ndp_sim::{BandwidthGate, Cycle, Frequency};

use crate::packet::PacketKind;

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlLinkConfig {
    /// One-way latency in nanoseconds (75 ns default; Fig. 5's `x`).
    pub one_way_ns: f64,
    /// Bandwidth per direction in bytes/second (64 GB/s).
    pub bw_per_dir_bytes_per_sec: f64,
}

impl CxlLinkConfig {
    /// The default CXL 3.0 ×8 link of Table IV with 150 ns load-to-use.
    pub fn default_150ns() -> Self {
        Self {
            one_way_ns: 75.0,
            bw_per_dir_bytes_per_sec: 64e9,
        }
    }

    /// Scales load-to-use by `factor` (Fig. 13a's 2xLtU / 4xLtU).
    pub fn with_ltu_scale(mut self, factor: f64) -> Self {
        self.one_way_ns *= factor;
        self
    }

    /// The host-observed load-to-use latency this link implies.
    pub fn load_to_use_ns(&self) -> f64 {
        2.0 * self.one_way_ns
    }
}

impl Default for CxlLinkConfig {
    fn default() -> Self {
        Self::default_150ns()
    }
}

/// A full-duplex CXL.mem link in a single clock domain: a serializing
/// bandwidth gate per direction (which also counts the wire bytes it has
/// carried) and a one-way latency.
///
/// The "m2s" direction carries host→device traffic, "s2m" device→host.
#[derive(Debug)]
pub struct CxlLink {
    m2s: BandwidthGate,
    s2m: BandwidthGate,
    latency: Cycle,
}

impl CxlLink {
    /// Builds the link in the `clock` domain.
    pub fn new(config: CxlLinkConfig, clock: Frequency) -> Self {
        let bpc = clock.bytes_per_cycle(config.bw_per_dir_bytes_per_sec);
        Self {
            m2s: BandwidthGate::new(bpc),
            s2m: BandwidthGate::new(bpc),
            latency: clock.cycles_from_ns(config.one_way_ns),
        }
    }

    /// Sends a host→device message of `kind` for a `payload`-byte access;
    /// returns its arrival cycle.
    pub fn send_m2s(&mut self, now: Cycle, kind: PacketKind, payload: u32) -> Cycle {
        self.m2s.send(now, u64::from(kind.wire_bytes(payload))) + self.latency
    }

    /// Sends a device→host message of `kind` for a `payload`-byte access;
    /// returns its arrival cycle.
    pub fn send_s2m(&mut self, now: Cycle, kind: PacketKind, payload: u32) -> Cycle {
        self.s2m.send(now, u64::from(kind.wire_bytes(payload))) + self.latency
    }

    /// Wire bytes moved host→device.
    pub fn m2s_bytes(&self) -> u64 {
        self.m2s.total_bytes()
    }

    /// Wire bytes moved device→host.
    pub fn s2m_bytes(&self) -> u64 {
        self.s2m.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 75 ns one-way at 2 GHz.
    const ONE_WAY: Cycle = 150;

    fn link() -> CxlLink {
        CxlLink::new(CxlLinkConfig::default_150ns(), Frequency::ghz(2.0))
    }

    #[test]
    fn default_load_to_use_is_150ns() {
        assert!((CxlLinkConfig::default_150ns().load_to_use_ns() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn packet_arrives_after_serialization_and_latency() {
        let mut l = link();
        // A 16 B read header at 32 B/cycle is injected by cycle 1.
        assert_eq!(l.send_m2s(0, PacketKind::MemRead, 64), 1 + ONE_WAY);
        assert_eq!(l.m2s_bytes(), 16);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        for _ in 0..100 {
            l.send_m2s(0, PacketKind::MemRead, 64);
        }
        assert_eq!(l.send_s2m(0, PacketKind::NoDataResponse, 64), 1 + ONE_WAY);
        assert_eq!((l.m2s_bytes(), l.s2m_bytes()), (1600, 16));
    }

    #[test]
    fn bandwidth_serializes_burst() {
        let mut l = link();
        // 64 GB/s at 2 GHz = 32 B/cycle; an 80 B DRS occupies 2.5 cycles.
        let mut last = 0;
        for _ in 0..100 {
            last = l.send_s2m(0, PacketKind::DataResponse, 64);
        }
        // 100 * 80 B / 32 B-per-cycle = 250 cycles of serialization + wire.
        assert_eq!(last, 250 + ONE_WAY);
        assert_eq!(l.s2m_bytes(), 8000);
    }

    #[test]
    fn ltu_scaling() {
        let cfg = CxlLinkConfig::default_150ns().with_ltu_scale(4.0);
        assert!((cfg.load_to_use_ns() - 600.0).abs() < 1e-9);
        let mut l = CxlLink::new(cfg, Frequency::ghz(2.0));
        assert_eq!(l.send_m2s(0, PacketKind::MemRead, 64), 1 + 4 * ONE_WAY);
    }
}
