//! A simulated multi-device fleet: N real [`CxlM2ndpDevice`] simulators
//! behind a [`CxlSwitch`] (§III-I), plus the M²NDP-in-switch configuration
//! over passive third-party memories (§III-J).
//!
//! This module *simulates* a multi-device run: every shard runs on its own
//! cycle-level device, M²func offloads are routed to the owning device
//! through the [`HdmRouter`] at 2 MB page granularity and charged against
//! the switch's per-port [`m2ndp_sim::BandwidthGate`]s, and the
//! tensor-parallel all-reduce crosses the switch as actual P2P traffic
//! ([`CxlSwitch::ring_allreduce`]).
//!
//! As in the paper's methodology (§IV-D), data is partitioned across
//! devices by software: each device's shard is generated directly into that
//! device's memory with device-local addresses (model parallelism for
//! DLRM/OPT), one kernel launch per device, and the fleet runtime is the
//! slowest shard plus any cross-device combining step.
//!
//! Everything is deterministic: each device's simulation is self-contained
//! (its own device plus its own switch port), and the fleet advances its
//! devices one after another in index order on the calling thread, so a
//! run is reproducible regardless of how many sweep cells run concurrently
//! around it.

use m2ndp_cxl::{CxlSwitch, HdmRouter, PacketKind, SwitchConfig};
use m2ndp_sim::trace::{EventKind, Lane, TraceEvent, TraceSink};
use m2ndp_sim::{Cycle, Frequency};

use crate::config::M2ndpConfig;
use crate::device::{CxlM2ndpDevice, DeviceStats, MetricSet};
use crate::kernel::{KernelInstanceId, LaunchArgs};
use crate::NdpApiError;

/// Wire bytes one M²func launch store occupies on its way through the
/// switch: one CXL.mem write (RwD) of a 64 B line.
pub const M2FUNC_OFFLOAD_BYTES: u32 = PacketKind::MemWrite.wire_bytes(64);

/// Fleet parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of CXL-M²NDP devices behind the switch.
    pub devices: usize,
    /// Per-device configuration (every device is identical, Table IV).
    pub device: M2ndpConfig,
    /// The switch connecting them.
    pub switch: SwitchConfig,
    /// HDM capacity each device contributes (rounded up to 2 MB pages).
    pub hdm_bytes_per_device: u64,
}

impl FleetConfig {
    /// A fleet of `devices` paper-default devices behind the default
    /// switch, 16 GB of HDM each.
    pub fn new(devices: usize) -> Self {
        Self {
            devices,
            device: M2ndpConfig::default_device(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 16 << 30,
        }
    }
}

/// Outcome of running every launched shard to completion.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// On-device simulated kernel cycles per shard (bit-identical to what
    /// the same launch would cost on a standalone [`CxlM2ndpDevice`]).
    pub kernel_cycles: Vec<Cycle>,
    /// Per-device completion in fleet cycles: offload delivery skew plus
    /// the device's simulated kernel cycles.
    pub per_device: Vec<Cycle>,
    /// The cycle the slowest device finished (compute barrier).
    pub compute_done: Cycle,
}

/// N real device simulators behind one CXL switch.
#[derive(Debug)]
pub struct Fleet {
    devices: Vec<CxlM2ndpDevice>,
    switch: CxlSwitch,
    router: HdmRouter,
    clock: Frequency,
    /// Fleet cycle at which each device's latest offload arrived.
    offload_arrival: Vec<Cycle>,
    /// Most recent instance launched on each device (what
    /// [`Self::run_launched`] waits for).
    last_instance: Vec<Option<KernelInstanceId>>,
    /// Fleet cycle at which each device last became free (advanced by
    /// [`Self::launch_routed_and_run`] and [`Self::run_launched`]).
    device_done: Vec<Cycle>,
}

impl Fleet {
    /// Builds the fleet: one device per switch port, HDM split across them
    /// at 2 MB page granularity.
    ///
    /// # Panics
    /// Panics if `devices` is zero or exceeds the switch's port count.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.devices > 0, "a fleet needs at least one device");
        assert!(
            cfg.devices <= cfg.switch.device_ports,
            "{} devices exceed the switch's {} ports",
            cfg.devices,
            cfg.switch.device_ports
        );
        let clock = cfg.device.engine.freq;
        Self {
            devices: (0..cfg.devices)
                .map(|_| CxlM2ndpDevice::new(cfg.device.clone()))
                .collect(),
            switch: CxlSwitch::new(cfg.switch, clock),
            router: HdmRouter::even_pages(0, cfg.hdm_bytes_per_device, cfg.devices),
            clock,
            offload_arrival: vec![0; cfg.devices],
            last_instance: vec![None; cfg.devices],
            device_done: vec![0; cfg.devices],
        }
    }

    /// Does nothing: a fleet always runs its devices one after another on
    /// the calling thread, and the sweep's cell pool is the only
    /// parallelism. Kept only because the host-speed benchmark
    /// (`simbench`) still calls it; it goes with the next change to that
    /// benchmark.
    pub fn set_parallelism(&mut self, _jobs: usize) {}

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// One device, immutably.
    pub fn device(&self, i: usize) -> &CxlM2ndpDevice {
        &self.devices[i]
    }

    /// One device, mutably (shard generation writes its memory here).
    pub fn device_mut(&mut self, i: usize) -> &mut CxlM2ndpDevice {
        &mut self.devices[i]
    }

    /// The HDM router (fleet-global address → owning device).
    pub fn router(&self) -> &HdmRouter {
        &self.router
    }

    /// The switch (port traffic counters, P2P stats).
    pub fn switch(&self) -> &CxlSwitch {
        &self.switch
    }

    /// The devices' clock domain.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Routes one M²func kernel offload: the fleet-global `pool_base`
    /// selects the owning device through the 2 MB-page [`HdmRouter`], the
    /// launch store crosses the switch (host port → device port, charged
    /// against both bandwidth gates plus traversal latency), and
    /// device-local `args` launch there.
    ///
    /// Returns the owning device index and the instance id.
    ///
    /// # Errors
    /// [`NdpApiError::BadArguments`] when `pool_base` routes to no device;
    /// otherwise whatever the device's launch returns.
    pub fn launch_routed(
        &mut self,
        issue: Cycle,
        pool_base: u64,
        args: LaunchArgs,
    ) -> Result<(usize, KernelInstanceId), NdpApiError> {
        let dev = self.owner(pool_base)?;
        let (inst, _arrival) = self.launch_on(issue, dev, args)?;
        Ok((dev, inst))
    }

    /// The device whose HDM span holds `pool_base`.
    fn owner(&self, pool_base: u64) -> Result<usize, NdpApiError> {
        self.router
            .device_of(pool_base)
            .ok_or(NdpApiError::BadArguments)
    }

    /// Emits a switch-hop trace event on device `dev`'s sink (no-op when
    /// that device isn't tracing).
    fn trace_hop(&mut self, dev: usize, issue: Cycle, arrival: Cycle) {
        let clock = self.clock;
        let device = &mut self.devices[dev];
        let id = device.trace_device();
        device.tracer_mut().emit(|| TraceEvent {
            ts_ns: clock.ns_from_cycles(issue),
            device: id,
            lane: Lane::SwitchPort(dev as u16),
            kind: EventKind::SwitchHop {
                dst: dev as u16,
                bytes: M2FUNC_OFFLOAD_BYTES,
                dur_ns: clock.ns_from_cycles(arrival.saturating_sub(issue)),
            },
        });
    }

    /// The page-aligned fleet-global base address of device `i`'s HDM span
    /// (what shard builders hand to [`Self::launch_routed`]).
    pub fn shard_base(&self, i: usize) -> u64 {
        self.router.span(i).0
    }

    /// Launches on an *explicitly chosen* device — the entry point for the
    /// serving admission loop, whose scheduler decides placement itself
    /// instead of delegating to the [`HdmRouter`]. The launch store is
    /// charged through the switch exactly like [`Self::launch_routed`]
    /// (host port → device port, both bandwidth gates plus traversal
    /// latency), so scheduler-routed and HDM-routed launches cost the same
    /// fabric.
    ///
    /// Returns the instance id and the fleet cycle the store arrived at
    /// the device port.
    ///
    /// # Errors
    /// Whatever the device's launch returns.
    pub fn launch_on(
        &mut self,
        issue: Cycle,
        dev: usize,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError> {
        let arrival = self.switch.host_to_device(issue, dev, M2FUNC_OFFLOAD_BYTES);
        self.offload_arrival[dev] = self.offload_arrival[dev].max(arrival);
        self.trace_hop(dev, issue, arrival);
        let inst = self.devices[dev].launch(args)?;
        self.last_instance[dev] = Some(inst);
        Ok((inst, arrival))
    }

    /// [`Self::launch_on`] through the full M²func wire protocol: the
    /// launch arguments are encoded into the CXL.mem write payload
    /// ([`crate::m2func::encode_launch`]), the store crosses the switch to
    /// device `dev`, and the device's NDP controller decodes and dispatches
    /// the call ([`CxlM2ndpDevice::handle_m2func_call`]), leaving the
    /// instance id at the caller's M²func region offset as a real host
    /// would read it back.
    ///
    /// Returns the instance id and the fleet cycle the launch store
    /// arrived at the device port (what open-loop serving charges as
    /// switch-induced launch skew).
    ///
    /// # Errors
    /// Whatever error the device's controller returned.
    pub fn m2func_launch_on(
        &mut self,
        issue: Cycle,
        dev: usize,
        asid: u16,
        args: LaunchArgs,
    ) -> Result<(KernelInstanceId, Cycle), NdpApiError> {
        let arrival = self.switch.host_to_device(issue, dev, M2FUNC_OFFLOAD_BYTES);
        self.offload_arrival[dev] = self.offload_arrival[dev].max(arrival);
        self.trace_hop(dev, issue, arrival);
        let inst = self.devices[dev].m2func_launch(asid, args)?;
        self.last_instance[dev] = Some(inst);
        Ok((inst, arrival))
    }

    /// Runs every device, in index order, until its most recently launched
    /// instance finishes, and returns per-device completion in fleet
    /// cycles: the offload delivery skew plus the device's simulated kernel
    /// cycles. Devices with no launch complete at cycle 0.
    pub fn run_launched(&mut self) -> FleetRun {
        let (kernel_cycles, per_device): (Vec<Cycle>, Vec<Cycle>) = (0..self.devices.len())
            .map(|i| {
                let device = &mut self.devices[i];
                let kernel = self.last_instance[i].map_or(0, |inst| {
                    let start = device.now();
                    device.run_until_finished(inst) - start
                });
                let done = if kernel == 0 {
                    0
                } else {
                    self.offload_arrival[i] + kernel
                };
                self.device_done[i] = self.device_done[i].max(done);
                (kernel, done)
            })
            .unzip();
        let compute_done = per_device.iter().copied().max().unwrap_or(0);
        FleetRun {
            kernel_cycles,
            per_device,
            compute_done,
        }
    }

    /// Routes one offload like [`Self::launch_routed`] and immediately runs
    /// the owning device until the instance completes — the building block
    /// for *dependent* launch sequences (e.g. the OPT decode step, where
    /// each kernel consumes the previous one's output). The offload is
    /// issued the moment the device finished its previous work, so the
    /// switch charges every launch store while consecutive kernels on one
    /// device stay back-to-back.
    ///
    /// Returns the owning device index and its fleet-cycle completion time.
    ///
    /// # Errors
    /// [`NdpApiError::BadArguments`] when `pool_base` routes to no device;
    /// otherwise whatever the device's launch returns.
    pub fn launch_routed_and_run(
        &mut self,
        pool_base: u64,
        args: LaunchArgs,
    ) -> Result<(usize, Cycle), NdpApiError> {
        let dev = self.owner(pool_base)?;
        let issue = self.device_done[dev];
        let arrival = self.switch.host_to_device(issue, dev, M2FUNC_OFFLOAD_BYTES);
        let inst = self.devices[dev].launch(args)?;
        let start = self.devices[dev].now();
        let kernel = self.devices[dev].run_until_finished(inst) - start;
        self.device_done[dev] = arrival + kernel;
        Ok((dev, self.device_done[dev]))
    }

    /// The fleet cycle at which the slowest device became free (the
    /// compute barrier across every launch so far).
    pub fn completion(&self) -> Cycle {
        self.device_done.iter().copied().max().unwrap_or(0)
    }

    /// Ring all-reduce of `bytes_per_device` across all devices starting at
    /// `start` (normally [`FleetRun::compute_done`]), simulated as actual
    /// P2P switch traffic. Returns the completion cycle.
    pub fn ring_allreduce(&mut self, start: Cycle, bytes_per_device: u64) -> Cycle {
        let n = self.devices.len();
        self.switch.ring_allreduce(start, n, bytes_per_device)
    }

    /// Aggregate fleet statistics: counters summed across devices, derived
    /// rates averaged, `cycles` the slowest device's.
    pub fn stats(&self) -> DeviceStats {
        let n = self.devices.len().max(1) as f64;
        let mut agg = DeviceStats::default();
        for d in &self.devices {
            let s = d.stats();
            agg.cycles = agg.cycles.max(s.cycles);
            agg.dram_bytes += s.dram_bytes;
            agg.dram_row_hit_rate += s.dram_row_hit_rate / n;
            agg.dram_bw_utilization += s.dram_bw_utilization / n;
            agg.link_m2s_bytes += s.link_m2s_bytes;
            agg.link_s2m_bytes += s.link_s2m_bytes;
            agg.l2_accesses += s.l2_accesses;
            agg.l2_hit_rate += s.l2_hit_rate / n;
            agg.instrs += s.instrs;
            agg.mem_reqs += s.mem_reqs;
            agg.spad_bytes += s.spad_bytes;
            agg.l1_hits += s.l1_hits;
            agg.bi_snoops += s.bi_snoops;
        }
        agg
    }

    /// Aggregate fleet statistics in the workspace-wide metrics shape
    /// (same names and order as [`DeviceStats::metrics`]).
    pub fn metrics(&self) -> MetricSet {
        self.stats().metrics()
    }

    /// Attaches one trace sink per device (`make(i)` builds device `i`'s
    /// sink); events are stamped with the fleet device index. Each device
    /// buffers its own events and [`Self::take_traces`] merges them in
    /// device index order.
    pub fn set_tracers(&mut self, make: impl Fn(usize) -> Box<dyn TraceSink>) {
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.set_tracer(i as u32, make(i));
        }
    }

    /// Detaches every device's sink and returns all recorded events merged
    /// in device index order.
    pub fn take_traces(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for d in &mut self.devices {
            out.extend(d.take_trace());
        }
        out
    }

    /// Canonical disassembly of every kernel registered on device 0 (the
    /// fleet registers kernels uniformly), for trace annotation.
    pub fn kernel_disassembly(&self) -> Vec<(u32, String, String)> {
        self.devices
            .first()
            .map(CxlM2ndpDevice::kernel_disassembly)
            .unwrap_or_default()
    }
}

/// The M²NDP-in-switch configuration (§III-J, Fig. 9): the NDP complex
/// lives *inside* the switch and processes data pulled from `memories`
/// passive third-party CXL memories, so NDP throughput scales with the
/// populated switch ports independently of any one expander's capacity.
///
/// Modelled as a real device simulation whose workload data is remote: the
/// device's "link" is the switch-internal hop (one traversal instead of a
/// host CXL link), with per-direction bandwidth equal to the aggregate of
/// the `memories` populated ports, and the remote memory system aggregates
/// the passive expanders' DRAM channels.
#[derive(Debug)]
pub struct SwitchNdp {
    device: CxlM2ndpDevice,
    memories: u32,
}

impl SwitchNdp {
    /// Builds the in-switch NDP complex (engine from `device_cfg`) pulling
    /// from `memories` passive expanders through `switch` ports.
    ///
    /// # Panics
    /// Panics if `memories` is zero or exceeds the switch's port count.
    pub fn new(device_cfg: &M2ndpConfig, switch: SwitchConfig, memories: u32) -> Self {
        assert!(memories > 0, "need at least one passive memory");
        assert!(
            memories as usize <= switch.device_ports,
            "{memories} memories exceed the switch's {} ports",
            switch.device_ports
        );
        let mut ndp = device_cfg.clone();
        ndp.workload_data_remote = true;
        ndp.charge_remote_responses = true;
        // The pull path: `memories` populated ports in parallel, one switch
        // traversal of latency.
        ndp.link.bw_per_dir_bytes_per_sec = switch.port_bw_bytes_per_sec * f64::from(memories);
        ndp.link.one_way_ns = switch.traversal_ns;
        // The passive expanders: each brings its own internal DRAM.
        let mut remote = device_cfg.clone();
        remote.dram.channels *= memories;
        remote.dram.peak_bw_bytes_per_sec *= f64::from(memories);
        Self {
            device: CxlM2ndpDevice::new(ndp).with_remote_cxl(remote),
            memories,
        }
    }

    /// Number of passive memories populated.
    pub fn memories(&self) -> u32 {
        self.memories
    }

    /// The in-switch device simulator.
    pub fn device(&self) -> &CxlM2ndpDevice {
        &self.device
    }

    /// The in-switch device simulator, mutably (workload generation and
    /// launches go here; data lands in the remote expanders' address space
    /// automatically because `workload_data_remote` is set).
    pub fn device_mut(&mut self) -> &mut CxlM2ndpDevice {
        &mut self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelId, KernelSpec};
    use m2ndp_riscv::assemble;

    fn small_cfg() -> M2ndpConfig {
        let mut cfg = M2ndpConfig::default_device();
        cfg.engine.units = 4;
        cfg
    }

    fn vec_double() -> KernelSpec {
        KernelSpec::body_only(
            "vec_double",
            assemble(
                "vsetvli x0, x0, e32, m1
                 vle32.v v1, (x1)
                 vadd.vv v1, v1, v1
                 vse32.v v1, (x1)
                 halt",
            )
            .unwrap(),
        )
    }

    fn fleet(n: usize) -> Fleet {
        Fleet::new(FleetConfig {
            devices: n,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })
    }

    /// Registers the doubling kernel on every device of `fleet`, returning
    /// the per-device ids.
    fn register_everywhere(fleet: &mut Fleet) -> Vec<KernelId> {
        (0..fleet.len())
            .map(|d| fleet.device_mut(d).register_kernel(vec_double()))
            .collect()
    }

    /// Launches `elems` doubled elements on each device's shard and returns
    /// (completion, per-device results verified).
    fn run_sharded(fleet: &mut Fleet, elems: u64) -> FleetRun {
        let base = 0x40_0000u64;
        let kids = register_everywhere(fleet);
        for (d, &kid) in kids.iter().enumerate() {
            for i in 0..elems {
                fleet
                    .device_mut(d)
                    .memory_mut()
                    .write_u32(base + i * 4, (d as u64 * 1000 + i) as u32);
            }
            let pool = fleet.shard_base(d);
            fleet
                .launch_routed(0, pool, LaunchArgs::new(kid, base, base + elems * 4))
                .expect("launch routes");
        }
        let run = fleet.run_launched();
        for d in 0..fleet.len() {
            for i in 0..elems {
                assert_eq!(
                    fleet.device(d).memory().read_u32(base + i * 4),
                    2 * (d as u32 * 1000 + i as u32),
                    "device {d} elem {i}"
                );
            }
        }
        run
    }

    /// A device told to wait for an instance it never received fails at
    /// once instead of spinning to the tick guard.
    #[test]
    #[should_panic(expected = "never accepted")]
    fn waiting_on_an_instance_the_device_never_accepted_fails_at_once() {
        let mut fleet = fleet(2);
        let kids = register_everywhere(&mut fleet);
        let base = 0x40_0000u64;
        let (inst, _) = fleet
            .launch_on(0, 0, LaunchArgs::new(kids[0], base, base + 1024))
            .expect("launch");
        // The launch reached device 0, but device 1 is told to wait for it.
        fleet.last_instance[1] = Some(inst);
        fleet.run_launched();
    }

    #[test]
    fn fleet_of_one_matches_single_device_within_one_percent() {
        let elems = 32 << 10;
        // Single-device reference path.
        let mut dev = CxlM2ndpDevice::new(small_cfg());
        let base = 0x40_0000u64;
        for i in 0..elems {
            dev.memory_mut().write_u32(base + i * 4, i as u32);
        }
        let kid = dev.register_kernel(vec_double());
        let inst = dev
            .launch(LaunchArgs::new(kid, base, base + elems * 4))
            .unwrap();
        let single = dev.run_until_finished(inst);

        let mut f = fleet(1);
        let run = run_sharded(&mut f, elems);
        // The fleet's device simulation is the same simulator: bit-exact.
        assert_eq!(run.kernel_cycles[0], single);
        // End-to-end, only the (constant, ~150-cycle) offload delivery
        // through the switch is added; on the evaluation workloads that is
        // far below 1% (gated by the fig14a parity band).
        let skew = run.compute_done - run.kernel_cycles[0];
        assert!(
            (1..=400).contains(&skew),
            "offload skew {skew} out of range"
        );
    }

    #[test]
    fn offload_routing_charges_the_switch() {
        let mut f = fleet(4);
        let _ = run_sharded(&mut f, 512);
        assert_eq!(f.switch().host_transfers.get(), 4);
        // Each offload moved one store's bytes into its own port.
        for d in 0..4 {
            assert_eq!(
                f.switch().port_bytes(d).0,
                u64::from(M2FUNC_OFFLOAD_BYTES),
                "port {d}"
            );
        }
    }

    #[test]
    fn m2func_protocol_launch_routes_and_returns_instance() {
        let mut f = fleet(2);
        let kids = register_everywhere(&mut f);
        let base = 0x40_0000u64;
        for i in 0..64u64 {
            f.device_mut(1).memory_mut().write_u32(base + i * 4, 21);
        }
        let pool = f.shard_base(1);
        let dev = f.router().device_of(pool).expect("pool routes");
        let (inst, arrival) = f
            .m2func_launch_on(5, dev, 9, LaunchArgs::new(kids[1], base, base + 64 * 4))
            .expect("protocol launch routes");
        assert_eq!(dev, 1);
        assert!(arrival > 5, "switch must add latency to the launch store");
        // The controller left the instance id at the launch offset, like a
        // host CXL.mem read of the M²func region would fetch it.
        assert_eq!(
            f.device(1)
                .m2func_return(9, crate::m2func::M2Func::LaunchKernel.offset()),
            Some(inst.0 as i64)
        );
        let run = f.run_launched();
        assert!(run.kernel_cycles[1] > 0);
        assert_eq!(f.device(1).memory().read_u32(base), 42);
    }

    #[test]
    fn launch_outside_hdm_is_rejected() {
        let mut f = fleet(2);
        let kids = register_everywhere(&mut f);
        let err = f
            .launch_routed(0, u64::MAX, LaunchArgs::new(kids[0], 0, 64))
            .unwrap_err();
        assert_eq!(err, NdpApiError::BadArguments);
    }

    #[test]
    fn allreduce_traffic_lands_on_switch_counters() {
        let mut f = fleet(4);
        let run = run_sharded(&mut f, 256);
        let done = f.ring_allreduce(run.compute_done, 1 << 20);
        assert!(done > run.compute_done);
        assert_eq!(f.switch().p2p_bytes.get(), 6 * 4 * (1 << 18));
    }

    #[test]
    fn aggregate_stats_sum_counters() {
        let mut f = fleet(2);
        let _ = run_sharded(&mut f, 1024);
        let agg = f.stats();
        let per: u64 = (0..2).map(|d| f.device(d).stats().dram_bytes).sum();
        assert_eq!(agg.dram_bytes, per);
        assert!(agg.dram_bytes >= 2 * 1024 * 4);
    }

    #[test]
    fn switch_ndp_pulls_from_passive_memory() {
        let mut sw = SwitchNdp::new(&small_cfg(), SwitchConfig::default(), 4);
        let base = 0x40_0000u64;
        for i in 0..512u64 {
            sw.device_mut().memory_mut().write_u32(base + i * 4, 7);
        }
        let kid = sw.device_mut().register_kernel(vec_double());
        let inst = sw
            .device_mut()
            .launch(LaunchArgs::new(kid, base, base + 512 * 4))
            .unwrap();
        sw.device_mut().run_until_finished(inst);
        assert_eq!(sw.device().memory().read_u32(base), 14);
        assert!(
            sw.device().stats().link_m2s_bytes > 0,
            "pulls must cross the switch ports"
        );
    }

    #[test]
    fn switch_ndp_scales_until_ndp_saturates() {
        let run = |memories: u32| {
            let mut sw = SwitchNdp::new(&small_cfg(), SwitchConfig::default(), memories);
            let base = 0x40_0000u64;
            let elems = 16 << 10;
            for i in 0..elems {
                sw.device_mut().memory_mut().write_u32(base + i * 4, 1);
            }
            let kid = sw.device_mut().register_kernel(vec_double());
            let inst = sw
                .device_mut()
                .launch(LaunchArgs::new(kid, base, base + elems * 4))
                .unwrap();
            sw.device_mut().run_until_finished(inst)
        };
        let one = run(1);
        let four = run(4);
        assert!(four < one, "4 populated ports must beat 1: {four} vs {one}");
    }
}
