//! The four benchmark workloads and one repetition of each.
//!
//! A repetition builds a fresh device (modelled caches start empty, as in
//! the figures), sets the workload up, runs the timed phase, and verifies
//! the functional output. Every call into a simulator layer is wrapped in a
//! span named after the layer metric it feeds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use m2ndp::core::fleet::{Fleet, FleetConfig};
use m2ndp::core::{CxlM2ndpDevice, DeviceStats, KernelSpec, LaunchArgs, M2ndpConfig};
use m2ndp::cxl::SwitchConfig;
use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{
    self, KvServeWorkload, ServeBackend, ServeConfig, ServeWorkload, TenantSpec,
};
use m2ndp::mem::MainMemory;
use m2ndp::sim::trace::{EventKind, TraceEvent, TraceSink};
use m2ndp::sim::Frequency;
use m2ndp::workloads::{histo, kvstore, olap, spmv};
use m2ndp::SystemBuilder;

use crate::engine_ideal::IdealEngine;
use crate::spans::Recorder;
use crate::stats::{digest, percentile};
use crate::timed_serve::TimedServe;

// Input sizes: each repetition takes one to two seconds of host time, so a
// run of tens of seconds reads its times from over ten repetitions. On a
// shared host that is steadier than a few long repetitions, and every
// input still overflows the caches its workload is meant to stress.

/// NDP units of the kernel workloads' device: the bench-scale M²NDP
/// platform of the figures (32 units / 4).
const DEVICE_UNITS: u32 = 8;
/// HISTO4096 input elements.
const HISTO_ELEMENTS: u64 = 2 << 20;
/// SPMV matrix rows and mean non-zeros per row.
const SPMV_ROWS: u64 = 16 << 10;
const SPMV_NNZ_PER_ROW: u32 = 24;
/// OLAP table rows (the fig10a size; smaller tables write back no dirty L2
/// lines, so the write path would not show).
const OLAP_ROWS: u64 = 1 << 20;
/// Serving fleet size.
const KVS_DEVICES: usize = 2;
/// Shard workers of the serving fleet. One: the shards run one after the
/// other on the benchmark's thread. With a worker per device, the two
/// threads on a two-vCPU guest measured the host scheduler: single
/// repetitions ran up to 1.7x the typical time.
const KVS_JOBS: usize = 1;
/// Requests per serving repetition, split 70/30 between two tenants.
const KVS_REQUESTS: usize = 8_000;
/// Total offered load of the two tenants (requests/s).
const KVS_RATE: f64 = 2e6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HISTO4096: compute-heavy, scratchpad vector AMOs.
    Histo,
    /// SPMV: irregular gathers, memory-heavy reads.
    Spmv,
    /// TPC-H Q6 Evaluate: reads plus read-modify-write mask stores.
    OlapQ6,
    /// KVStore GETs served through M²func on a two-device fleet.
    KvsServe,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Histo,
        Workload::Spmv,
        Workload::OlapQ6,
        Workload::KvsServe,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Histo => "histo",
            Workload::Spmv => "spmv",
            Workload::OlapQ6 => "olap-q6",
            Workload::KvsServe => "kvs-serve",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition. `traced` attaches event-counting trace sinks
    /// and replays the launches on the isolated engine afterwards.
    ///
    /// # Panics
    /// When the simulator rejects a launch or a serving request fails to
    /// verify (`serve::run` panics on it); the caller counts the panic as a
    /// failed repetition.
    pub fn rep(self, seed: u64, rep: u64, traced: bool, rec: &mut Recorder) -> Rep {
        match self {
            Workload::KvsServe => kvs_rep(seed, rep, traced, rec),
            kernel => kernel_rep(kernel, seed, rep, traced, rec),
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Per-layer values by metric name: span totals (s), simulated counts,
    /// and ratios derived from them.
    pub values: Vec<(&'static str, f64)>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Functional verifications attempted.
    pub verified: u64,
    /// Functional verifications that failed.
    pub failed: u64,
    /// Whether the repetition ran traced.
    pub traced: bool,
}

impl Rep {
    /// The value recorded under `name` (0 when the layer did no work).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name, value)),
        }
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.verified += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("verification failed ({what}): {e}");
        }
    }

    /// Simulated statistics and the host cost per unit of simulated work.
    /// `run_s` is the host time spent advancing the simulators;
    /// `device_cycles` sums every device's simulated cycles.
    fn device_values(&mut self, stats: &DeviceStats, device_cycles: u64, clock: Frequency) {
        let run_s = self.get("core.device.run_s");
        let per = |n: u64| if n == 0 { 0.0 } else { run_s * 1e9 / n as f64 };
        for (name, v) in [
            ("core.device.sim_cycles", device_cycles as f64),
            ("core.device.host_ns_per_sim_cycle", per(device_cycles)),
            ("core.device.sim_ns", clock.ns_from_cycles(stats.cycles)),
            ("core.engine.instrs", stats.instrs as f64),
            ("core.engine.host_ns_per_instr", per(stats.instrs)),
            ("core.engine.mem_reqs", stats.mem_reqs as f64),
            ("core.engine.spad_bytes", stats.spad_bytes as f64),
            ("cache.l1_hits", stats.l1_hits as f64),
            ("cache.l2_accesses", stats.l2_accesses as f64),
            ("cache.l2_hit_rate", stats.l2_hit_rate),
            ("mem.dram_bytes", stats.dram_bytes as f64),
            ("mem.dram_row_hit_rate", stats.dram_row_hit_rate),
            ("mem.dram_bw_utilization", stats.dram_bw_utilization),
            ("cxl.link_m2s_bytes", stats.link_m2s_bytes as f64),
            ("cxl.link_s2m_bytes", stats.link_s2m_bytes as f64),
        ] {
            self.set(name, v);
        }
    }

    /// The trace event counts (traced repetitions only).
    fn event_counts(&mut self, counts: &EventCounts) {
        for (name, counter) in [
            ("cache.l2_evictions", &counts.evictions),
            ("mem.dram_txns", &counts.dram_txns),
            ("core.engine.uthread_waves", &counts.waves),
        ] {
            self.set(name, counter.load(Ordering::Relaxed) as f64);
        }
    }
}

/// Trace events counted by [`CountingSink`]; shared by every device's sink.
#[derive(Debug, Default)]
struct EventCounts {
    evictions: AtomicU64,
    dram_txns: AtomicU64,
    waves: AtomicU64,
}

/// A trace sink that counts the events the per-layer metrics need instead
/// of buffering them, so a traced run's memory does not grow with its
/// length.
#[derive(Debug)]
struct CountingSink(Arc<EventCounts>);

impl TraceSink for CountingSink {
    fn emit(&mut self, ev: TraceEvent) {
        let counter = match ev.kind {
            EventKind::L2Evict { .. } => &self.0.evictions,
            EventKind::DramTxn { .. } => &self.0.dram_txns,
            EventKind::WaveSpawn { .. } => &self.0.waves,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A generated kernel-workload input.
enum KernelData {
    Histo(histo::HistoData),
    Spmv(spmv::SpmvData),
    Olap(olap::OlapData, olap::Query),
}

impl KernelData {
    /// Generates `w`'s input into `mem`; the seed goes into the generator.
    fn generate(w: Workload, seed: u64, mem: &mut MainMemory) -> Self {
        match w {
            Workload::Histo => KernelData::Histo(histo::generate(
                histo::HistoConfig {
                    elements: HISTO_ELEMENTS,
                    bins: 4096,
                    seed: 0x1517 ^ seed,
                },
                mem,
            )),
            Workload::Spmv => KernelData::Spmv(spmv::generate(
                spmv::SpmvConfig {
                    rows: SPMV_ROWS,
                    nnz_per_row: SPMV_NNZ_PER_ROW,
                    seed: 0x5137 ^ seed,
                },
                mem,
            )),
            Workload::OlapQ6 => {
                let q6 = olap::queries()
                    .into_iter()
                    .find(|q| q.name == "TPC-H Q6")
                    .expect("the OLAP query set includes TPC-H Q6");
                let cfg = olap::OlapConfig {
                    rows: OLAP_ROWS,
                    seed: 0x01AF ^ seed,
                };
                KernelData::Olap(olap::generate(cfg, mem), q6)
            }
            Workload::KvsServe => unreachable!("kvs-serve is not a kernel workload"),
        }
    }

    /// Assembles the workload's kernel.
    fn kernel(&self) -> KernelSpec {
        match self {
            KernelData::Histo(d) => histo::kernel(d.cfg),
            KernelData::Spmv(_) => spmv::kernel(),
            KernelData::Olap(..) => olap::evaluate_kernel(),
        }
    }

    /// The launches, in issue order (Q6 runs one per predicate).
    fn launches(&self, kid: m2ndp::core::KernelId, units: u32) -> Vec<LaunchArgs> {
        match self {
            KernelData::Histo(d) => vec![histo::launch(d, kid, units)],
            KernelData::Spmv(d) => vec![spmv::launch(d, kid)],
            KernelData::Olap(d, q) => olap::evaluate_launches(d, q, kid),
        }
    }

    fn verify(&self, mem: &MainMemory) -> Result<(), String> {
        match self {
            KernelData::Histo(d) => histo::verify(d, mem),
            KernelData::Spmv(d) => spmv::verify(d, mem),
            KernelData::Olap(d, q) => olap::verify(d, q, mem),
        }
    }
}

fn kernel_rep(w: Workload, seed: u64, rep: u64, traced: bool, rec: &mut Recorder) -> Rep {
    let mark = rec.len();
    let root = rec.open("rep", rep);
    let setup = rec.open("setup_s", rep);
    let mut dev = rec.time("core.device.build_s", rep, || {
        SystemBuilder::m2ndp().units(DEVICE_UNITS).build()
    });
    let data = rec.time("workloads.generate_s", rep, || {
        KernelData::generate(w, seed, dev.memory_mut())
    });
    let (spec, launches) = rec.time("riscv.assemble_s", rep, || {
        let spec = Arc::new(data.kernel());
        let kid = dev.register_kernel((*spec).clone());
        (spec, data.launches(kid, dev.config().engine.units))
    });
    rec.close(setup);

    let counts = Arc::new(EventCounts::default());
    let snapshot = traced.then(|| {
        dev.set_tracer(0, Box::new(CountingSink(Arc::clone(&counts))));
        dev.memory().clone()
    });

    let wall = rec.open("wall_s", rep);
    for args in launches.iter().cloned() {
        let inst = rec
            .time("core.device.launch_s", rep, || dev.launch(args))
            .expect("the device accepts the workload's launch");
        rec.time("core.device.run_s", rep, || dev.run_until_finished(inst));
    }
    let verdict = rec.time("workloads.verify_s", rep, || data.verify(dev.memory()));
    rec.close(wall);
    let rss_mb = resident_mb();

    let stats = dev.stats();
    let mut out = Rep {
        digest: digest(&stats.metrics()),
        traced,
        ..Rep::default()
    };
    out.check(w.name(), verdict);
    if let Some(mut mem) = snapshot {
        let mut engine = IdealEngine::new(dev.config().engine.clone());
        let replay = rec.time("core.engine.ideal_s", rep, || {
            launches
                .into_iter()
                .try_for_each(|args| engine.run(&spec, args, &mut mem).map(drop))
        });
        out.check(
            "engine isolation replay",
            replay.and_then(|()| data.verify(&mem)),
        );
    }
    rec.close(root);

    out.values = rec.totals_since(mark);
    out.set("rss_mb", rss_mb);
    out.device_values(&stats, stats.cycles, dev.config().engine.freq);
    if traced {
        out.event_counts(&counts);
    }
    out
}

/// Resident set size of this process (MiB), read from `/proc/self/status`
/// right after a timed phase, while everything the repetition built is
/// live; `NaN` where procfs is unavailable.
fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A request's span id: tenant and per-tenant sequence number.
fn request_id(req: &serve::Request) -> u64 {
    (u64::from(req.tenant) << 32) | req.seq
}

/// The serving devices: the Table IV device at 2 units, as in the fig11c
/// serving cells.
fn kvs_device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 2;
    cfg
}

/// Two open-loop Poisson tenants at 70% and 30% of the offered load; the
/// seed drives both arrival and key streams.
fn kvs_tenants(seed: u64) -> Vec<TenantSpec> {
    let a = KVS_REQUESTS * 7 / 10;
    vec![
        TenantSpec::poisson("tenantA", KVS_RATE * 0.7)
            .requests(a)
            .seed(0x5EA1 ^ seed),
        TenantSpec::poisson("tenantB", KVS_RATE * 0.3)
            .requests(KVS_REQUESTS - a)
            .seed(0x5EB2 ^ seed),
    ]
}

fn kvs_rep(seed: u64, rep: u64, traced: bool, rec: &mut Recorder) -> Rep {
    let mark = rec.len();
    let root = rec.open("rep", rep);
    let setup = rec.open("setup_s", rep);
    let mut backend = rec.time("core.device.build_s", rep, || {
        let mut fleet = Fleet::new(FleetConfig {
            devices: KVS_DEVICES,
            device: kvs_device_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 1 << 30,
        });
        fleet.set_parallelism(KVS_JOBS);
        ServeBackend::Fleet(Box::new(fleet))
    });
    let workload = rec.time("workloads.generate_s", rep, || {
        KvServeWorkload::build(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99)
    });
    rec.close(setup);

    let counts = Arc::new(EventCounts::default());
    let snapshots: Vec<MainMemory> = if traced {
        if let ServeBackend::Fleet(fleet) = &mut backend {
            fleet.set_tracers(|_| Box::new(CountingSink(Arc::clone(&counts))));
        }
        (0..KVS_DEVICES)
            .map(|d| backend.device(d).memory().clone())
            .collect()
    } else {
        Vec::new()
    };

    let mut timed = TimedServe::new(workload, KVS_DEVICES, rec.epoch());
    let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
    let tenants = kvs_tenants(seed);
    let wall = rec.open("wall_s", rep);
    let run = rec.open("host.serve.run_s", rep);
    let mut report = serve::run(&mut backend, &mut timed, &cfg, &tenants);
    rec.close(run);
    rec.close(wall);
    let rss_mb = resident_mb();

    let stamps = timed.take_stamps();
    let mut out = Rep {
        traced,
        verified: stamps.iter().map(|s| s.len() as u64).sum(),
        failed: timed.verify_errors(),
        ..Rep::default()
    };
    let (run_start, run_end) = (rec.span(run).start, rec.span(run).end);
    let mut spans_d = Vec::with_capacity(KVS_DEVICES);
    let mut req_us = Vec::with_capacity(KVS_REQUESTS);
    let (mut first, mut last, mut loop_s) = (run_end, run_start, 0.0);
    for (dev, list) in stamps.iter().enumerate() {
        let lane = dev as u32 + 1;
        let mut busy = 0.0;
        for s in list {
            let id = request_id(&s.req);
            let r = rec.push("core.device.request_s", id, lane, s.t[0], s.t[3], Some(run));
            rec.push("core.device.run_s", id, lane, s.t[1], s.t[2], Some(r));
            rec.push("workloads.verify_s", id, lane, s.t[2], s.t[3], Some(r));
            busy += s.t[3] - s.t[0];
            req_us.push((s.t[3] - s.t[0]) * 1e6);
        }
        if let (Some(a), Some(b)) = (list.first(), list.last()) {
            first = first.min(a.t[0]);
            last = last.max(b.t[3]);
            spans_d.push(b.t[3] - a.t[0]);
            loop_s += (b.t[3] - a.t[0]) - busy;
        }
    }

    let fleet = backend.fleet().expect("the serving backend is a fleet");
    let mut stats = fleet.stats();
    // In a fleet the launch stores cross the switch's device ports, not the
    // devices' own links.
    for port in 0..KVS_DEVICES {
        let (to_device, from_device) = fleet.switch().port_bytes(port);
        stats.link_m2s_bytes += to_device;
        stats.link_s2m_bytes += from_device;
    }
    let device_cycles: u64 = (0..KVS_DEVICES)
        .map(|d| fleet.device(d).stats().cycles)
        .sum();
    let served = report.metrics();
    out.digest = digest(stats.metrics().iter().chain(served.iter()));

    // Engine isolation: each device's requests, in the order it served
    // them, on an ideal engine over a copy of the device's initial memory.
    // `verify` reads only the functional memory, so a scratch device holds
    // the copy.
    if traced {
        let spec = Arc::new(kvstore::kernel());
        for (dev, (list, memory)) in stamps.into_iter().zip(snapshots).enumerate() {
            let mut engine = IdealEngine::new(kvs_device_cfg().engine);
            let mut scratch = CxlM2ndpDevice::new(kvs_device_cfg());
            *scratch.memory_mut() = memory;
            for s in list {
                let args = timed.inner.launch_args(&s.req, dev);
                let replay = rec.time("core.engine.ideal_s", request_id(&s.req), || {
                    engine.run(&spec, args, scratch.memory_mut()).map(drop)
                });
                out.check(
                    "engine isolation replay",
                    replay.and_then(|()| timed.inner.verify(&s.req, dev, &scratch)),
                );
            }
        }
    }
    rec.close(root);

    let run_s = run_end - run_start;
    let mean_span = spans_d.iter().sum::<f64>() / spans_d.len().max(1) as f64;
    let max_span = spans_d.iter().copied().fold(0.0, f64::max);
    let jobs = KVS_JOBS as f64;
    out.values = rec.totals_since(mark);
    out.set("rss_mb", rss_mb);
    for (name, v) in [
        ("host.serve.pre_s", first - run_start),
        ("host.serve.post_s", run_end - last),
        ("host.serve.loop_s", loop_s),
        ("host.serve.launches", report.launches as f64),
        (
            "host.serve.max_outstanding",
            report.max_outstanding.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("host.serve.req_host_us_p50", percentile(&req_us, 0.50)),
        ("host.serve.req_host_us_p99", percentile(&req_us, 0.99)),
        ("host.serve.sim_p50_ns", report.combined.percentile(0.50)),
        ("host.serve.sim_p95_ns", report.combined.percentile(0.95)),
        ("host.serve.sim_throughput_rps", report.throughput),
        ("core.fleet.shard_imbalance", max_span / mean_span),
        (
            "sim.par.utilization",
            spans_d.iter().sum::<f64>() / (jobs * run_s),
        ),
    ] {
        out.set(name, v);
    }
    out.device_values(&stats, device_cycles, fleet.clock());
    if traced {
        out.event_counts(&counts);
    }
    out
}
