//! CXL switch with direct peer-to-peer access and the M²NDP-in-switch
//! configuration.
//!
//! CXL 3.0 supports direct P2P: a CXL device can reach the HDM of another
//! device through the switch (§II-B), which M²NDP uses to scale NDP across
//! multiple memories (§III-I). A switch adds one store-and-forward hop in
//! each direction (CXL memory latency "can approach 300 ns" through a
//! switch \[93\], i.e. roughly doubling the port latency). §III-J integrates
//! the NDP logic *into* the switch so NDP throughput can scale independently
//! of capacity, processing data held in passive third-party memories
//! (Fig. 14b).

use m2ndp_sim::{BandwidthGate, Counter, Cycle, Frequency};

/// HDM placement granularity across devices behind a switch: 2 MB pages
/// (§IV-A assumes page-granularity placement as in NUMA/multi-GPU systems;
/// matches the device's 2 MB translation pages).
pub const HDM_PAGE_BYTES: u64 = 2 << 20;

/// Switch parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Number of downstream device ports.
    pub device_ports: usize,
    /// Per-port, per-direction bandwidth in bytes/second (a CXL 3.0 ×8
    /// port, 64 GB/s).
    pub port_bw_bytes_per_sec: f64,
    /// Added one-way latency for traversing the switch, nanoseconds
    /// (~70 ns: a second protocol-stack crossing, per Fig. 2 / \[93\]).
    pub traversal_ns: f64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        Self {
            device_ports: 8,
            port_bw_bytes_per_sec: 64e9,
            traversal_ns: 70.0,
        }
    }
}

/// Routing decision for an address across the devices behind a switch.
///
/// Each 2 MB page lives wholly in one CXL memory (§IV-A assumes page-
/// granularity placement as in NUMA/multi-GPU systems).
#[derive(Debug, Clone)]
pub struct HdmRouter {
    device_spans: Vec<(u64, u64)>, // (base, bound) per device
}

impl HdmRouter {
    /// Splits HDM across `devices` at [`HDM_PAGE_BYTES`] granularity:
    /// `bytes_per_device` is rounded **up** to a whole number of 2 MB pages
    /// so every span is page-aligned and every page lives wholly in one
    /// device.
    ///
    /// # Panics
    /// Panics if `base` is not page-aligned or `devices == 0`.
    pub fn even_pages(base: u64, bytes_per_device: u64, devices: usize) -> Self {
        assert!(devices > 0);
        assert_eq!(
            base % HDM_PAGE_BYTES,
            0,
            "HDM base must be 2 MB page-aligned"
        );
        let per = bytes_per_device.div_ceil(HDM_PAGE_BYTES).max(1) * HDM_PAGE_BYTES;
        let device_spans = (0..devices as u64)
            .map(|d| (base + d * per, base + (d + 1) * per))
            .collect();
        Self { device_spans }
    }

    /// The device an address routes to, if any.
    pub fn device_of(&self, addr: u64) -> Option<usize> {
        self.device_spans
            .iter()
            .position(|(b, e)| (*b..*e).contains(&addr))
    }

    /// The address span of one device.
    pub fn span(&self, device: usize) -> (u64, u64) {
        self.device_spans[device]
    }
}

/// The switch fabric: per-port bandwidth gates and traversal latency.
#[derive(Debug)]
pub struct CxlSwitch {
    /// Per-device-port gates, one per direction: (to_device, from_device).
    ports: Vec<(BandwidthGate, BandwidthGate)>,
    /// The host (upstream) port's rate, bytes per cycle: each host hop is
    /// charged its own serialization delay at this rate.
    host_port_bytes_per_cycle: f64,
    traversal: Cycle,
    /// P2P transfers forwarded.
    pub p2p_transfers: Counter,
    /// P2P payload bytes forwarded.
    pub p2p_bytes: Counter,
    /// Host transfers forwarded.
    pub host_transfers: Counter,
}

impl CxlSwitch {
    /// Builds a switch in the `clock` domain.
    pub fn new(config: SwitchConfig, clock: Frequency) -> Self {
        let bpc = clock.bytes_per_cycle(config.port_bw_bytes_per_sec);
        Self {
            ports: (0..config.device_ports)
                .map(|_| (BandwidthGate::new(bpc), BandwidthGate::new(bpc)))
                .collect(),
            host_port_bytes_per_cycle: bpc,
            traversal: clock.cycles_from_ns(config.traversal_ns),
            p2p_transfers: Counter::new(),
            p2p_bytes: Counter::new(),
            host_transfers: Counter::new(),
        }
    }

    /// Forwards `bytes` from the host port to device port `dst`; returns the
    /// delivery cycle.
    ///
    /// Host traffic is simulated **out of chronological order** (a fleet
    /// runs its devices one after another, so a later-simulated device's
    /// offloads carry earlier timestamps than an earlier-simulated
    /// device's). The hop therefore charges the host port's serialization
    /// *delay* and the destination port's gate — whose timestamps are
    /// monotone per device — and keeps no shared host-port clock, so an
    /// earlier-timestamped send is not spuriously queued behind a
    /// later-timestamped one.
    pub fn host_to_device(&mut self, now: Cycle, dst: usize, bytes: u32) -> Cycle {
        let ser = (f64::from(bytes) / self.host_port_bytes_per_cycle).ceil() as Cycle;
        let t = self.ports[dst].0.send(now + ser, bytes as u64);
        self.host_transfers.inc();
        t + self.traversal
    }

    /// Direct P2P: forwards `bytes` from device `src` to device `dst`
    /// without touching the host port.
    pub fn peer_to_peer(&mut self, now: Cycle, src: usize, dst: usize, bytes: u32) -> Cycle {
        let t = self.ports[src].1.send(now, bytes as u64);
        let t = self.ports[dst].0.send(t, bytes as u64);
        self.p2p_transfers.inc();
        self.p2p_bytes.add(bytes as u64);
        t + self.traversal
    }

    /// Ring all-reduce across the first `devices` ports as **actual switch
    /// traffic**: `2(n-1)` lock-step rounds, each device forwarding a
    /// `bytes_per_device / n` chunk to its ring successor via direct P2P.
    /// All ports transfer concurrently within a round (reduce-scatter then
    /// all-gather); a round completes when its slowest transfer lands, and
    /// the next round starts only after a device has *received* the
    /// previous chunk. Large chunks are segmented at 2 MB page granularity
    /// (the HDM placement unit) so the `u32` packet-size domain is never
    /// exceeded. Returns the cycle the all-reduce completes; the per-port
    /// gates and P2P counters record the traffic.
    pub fn ring_allreduce(&mut self, start: Cycle, devices: usize, bytes_per_device: u64) -> Cycle {
        let n = devices.min(self.device_ports());
        if n <= 1 || bytes_per_device == 0 {
            return start;
        }
        let chunk = (bytes_per_device / n as u64).max(1);
        // Cycle each device becomes ready to send (initially: compute done).
        let mut ready = vec![start; n];
        for _round in 0..2 * (n - 1) {
            let mut next = ready.clone();
            for (src, &ready_at) in ready.iter().enumerate() {
                let dst = (src + 1) % n;
                let mut t = ready_at;
                let mut remaining = chunk;
                while remaining > 0 {
                    let seg = remaining.min(HDM_PAGE_BYTES) as u32;
                    t = self.peer_to_peer(t, src, dst, seg);
                    remaining -= seg as u64;
                }
                // The successor may start its next round once the chunk
                // has fully arrived.
                next[dst] = next[dst].max(t);
            }
            ready = next;
        }
        ready.into_iter().max().unwrap_or(start)
    }

    /// Bytes that have crossed one device port: `(to_device, from_device)`.
    pub fn port_bytes(&self, port: usize) -> (u64, u64) {
        (
            self.ports[port].0.total_bytes(),
            self.ports[port].1.total_bytes(),
        )
    }

    /// Number of device ports.
    pub fn device_ports(&self) -> usize {
        self.ports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch() -> CxlSwitch {
        CxlSwitch::new(SwitchConfig::default(), Frequency::ghz(2.0))
    }

    #[test]
    fn traversal_latency_applied() {
        let mut s = switch();
        let t = s.host_to_device(0, 0, 64);
        // 64 B at 32 B/cycle through two gates + 140-cycle traversal.
        assert_eq!(t, 4 + 140);
    }

    #[test]
    fn p2p_does_not_touch_host_port() {
        let mut s = switch();
        // Saturate device ports 0->1 with P2P...
        for _ in 0..100 {
            s.peer_to_peer(0, 0, 1, 256);
        }
        // ...a host hop to a third port is not delayed by them.
        let t = s.host_to_device(0, 2, 64);
        assert_eq!(t, 4 + 140);
        assert_eq!(s.p2p_transfers.get(), 100);
    }

    #[test]
    fn per_port_bandwidth_isolates_devices() {
        let mut s = switch();
        let busy = s.host_to_device(0, 0, 4096); // occupies port 0 for a while
        let other = s.host_to_device(0, 1, 64);
        assert!(other < busy, "port 1 should not wait behind port 0");
    }

    #[test]
    fn host_hops_skip_a_shared_host_queue_but_not_their_own_port() {
        // A fleet simulates its devices one after another, so a store
        // stamped at cycle 5 for port 1 can be issued after a store
        // stamped at cycle 40 for port 0. Default switch: 32 B/cycle per
        // port, 140-cycle traversal.
        let mut s = switch();
        // 4,096 B: 128 cycles of host-port serialization, 128 on port 0.
        let big = s.host_to_device(40, 0, 4096);
        assert_eq!(big, 40 + 128 + 128 + 140);
        // The 80 B store is charged only its own host-port serialization
        // (3 cycles), not a queue behind the 4,096 B store's, which would
        // end at cycle 168 and deliver at 314.
        assert_eq!(s.host_to_device(5, 1, 80), 151);
        // A store to port 0 still waits for that port's gate to drain the
        // 4,096 B store.
        let behind = s.host_to_device(5, 0, 80);
        assert_eq!(behind, 439);
        assert!(behind > big);
        assert_eq!(s.host_transfers.get(), 3);
        assert_eq!(s.port_bytes(0), (4096 + 80, 0));
        assert_eq!(s.port_bytes(1), (80, 0));
    }

    #[test]
    fn router_partitions_evenly() {
        let r = HdmRouter::even_pages(0x1_0000_0000, 1 << 30, 8);
        assert_eq!(r.device_of(0x1_0000_0000), Some(0));
        assert_eq!(r.device_of(0x1_0000_0000 + (1 << 30)), Some(1));
        assert_eq!(r.device_of(0x1_0000_0000 + (8u64 << 30) - 1), Some(7));
        assert_eq!(r.device_of(0x0), None);
    }

    #[test]
    fn ring_allreduce_moves_real_traffic() {
        let mut s = switch();
        let done = s.ring_allreduce(1000, 4, 1 << 20);
        assert!(done > 1000);
        // 2(n-1) rounds × n ports × chunk bytes.
        assert_eq!(s.p2p_bytes.get(), 6 * 4 * (1 << 18));
        assert_eq!(s.p2p_transfers.get(), 24);
        // Every participating port moved the same bytes in each direction.
        for p in 0..4 {
            assert_eq!(s.port_bytes(p), (6 << 18, 6 << 18));
        }
        assert_eq!(s.port_bytes(5), (0, 0));
    }

    #[test]
    fn ring_allreduce_single_device_is_free() {
        let mut s = switch();
        assert_eq!(s.ring_allreduce(42, 1, 1 << 20), 42);
        assert_eq!(s.ring_allreduce(42, 4, 0), 42);
        assert_eq!(s.p2p_transfers.get(), 0);
    }

    #[test]
    fn ring_allreduce_cost_grows_with_devices() {
        let cost = |n: usize| {
            let mut s = switch();
            s.ring_allreduce(0, n, 8 << 20) // 8 MB per device
        };
        assert!(cost(8) > cost(2), "{} vs {}", cost(8), cost(2));
    }

    #[test]
    fn page_router_aligns_and_translates() {
        let r = HdmRouter::even_pages(0, 3 << 20, 4); // rounds up to 4 MB
        for d in 0..4 {
            let (b, e) = r.span(d);
            assert_eq!(b % HDM_PAGE_BYTES, 0);
            assert_eq!(e - b, 4 << 20);
        }
        assert_eq!(r.device_of(5 << 20), Some(1));
        assert_eq!(r.device_of(16 << 20), None);
    }

    #[test]
    fn router_spans_are_contiguous() {
        let r = HdmRouter::even_pages(0, HDM_PAGE_BYTES, 4);
        for d in 0..4 {
            let (b, e) = r.span(d);
            assert_eq!(e - b, HDM_PAGE_BYTES);
            assert_eq!(r.device_of(b), Some(d));
            assert_eq!(r.device_of(e - 1), Some(d));
        }
    }
}
