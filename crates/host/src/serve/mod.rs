//! Event-driven, multi-tenant request serving: the one admission loop
//! every offload experiment runs on.
//!
//! [`run`] drives the cycle-level simulators themselves (the fig11c
//! latency–throughput curves and the fig15 elastic-fleet study): every
//! admitted request becomes an actual kernel launch on a
//! [`CxlM2ndpDevice`] — through the full M²func wire protocol
//! ([`m2ndp_core::m2func`]) when the mechanism is M²func — or is routed
//! through the `CxlSwitch`/`HdmRouter` to the owning device of a
//! [`Fleet`], with the launch store charged on the switch ports.
//! [`replay`] runs the same loop on one device, but each admitted request
//! takes a measured kernel service time instead of a simulated one (the
//! Fig. 10b/11a/11b mechanism comparisons).
//!
//! The pieces:
//!
//! * **Tenants** ([`TenantSpec`]) — independent open-loop arrival streams
//!   (Poisson, bursty Poisson, or a cycled trace of inter-arrival gaps),
//!   each with its own seed, request budget, SLO threshold, and priority.
//! * **Scheduling** ([`SchedulerKind`]) — one of three built-in
//!   routing/admission policies decides which device serves each request:
//!   the default [`SchedulerKind::StaticFifo`] reproduces the historical
//!   home-routed FIFO bit-for-bit, while the load-aware kinds route
//!   against the admission loop's live per-device queues. Every kind runs
//!   on the same admission loop (see
//!   [`scheduler`](self::scheduler#the-admission-loop) for the loop and
//!   its determinism rules).
//! * **Autoscaling** ([`AutoscaleConfig`]) — an optional control loop
//!   grows and shrinks the *active* device set against a P95 SLO target;
//!   draining devices stop admitting, finish their in-flight kernels,
//!   and park, with per-device active time integrated into
//!   [`ServeReport::device_time_ns`].
//! * **Admission** — per-device FIFO queues feeding a slot pool of
//!   `min(mechanism.max_concurrent, device_slots)` kernel slots; the
//!   pre-launch phase is charged *after* admission (the Fig. 5 semantics —
//!   a doorbell/DMA cannot overlap the queue wait), and direct MMIO holds
//!   its single slot until the host has read the result back (§II-C).
//! * **Event clock** — `f64` nanoseconds end to end
//!   ([`m2ndp_sim::FEventQueue`]); the only integer quantization is the
//!   switch's own cycle-level model, whose per-launch skew is converted
//!   back to ns and added to the pre phase.
//! * **Measurement** — warm-up and drain request fractions are excluded
//!   from the steady window; per-tenant latency [`FHistogram`]s and SLO
//!   counters cover the measured window only.
//!
//! Everything is deterministic: arrivals flow from tenant seeds, ties in
//! the event queue break by insertion order, the loop is serial, and the
//! device simulators are themselves deterministic, so a serving run is
//! reproducible bit-for-bit at any sweep parallelism.
//!
//! [`FHistogram`]: m2ndp_sim::FHistogram

use m2ndp_core::fleet::Fleet;
use m2ndp_core::{CxlM2ndpDevice, KernelId, KernelInstanceId, LaunchArgs};
use m2ndp_sim::rng::{exponential, seeded, Zipf};
use m2ndp_sim::trace::{JsonSink, TraceEvent};
use m2ndp_sim::Frequency;
use m2ndp_workloads::kvstore;

use crate::offload::{OffloadMechanism, OffloadModel};

pub mod autoscale;
mod report;
pub mod scheduler;

pub use autoscale::{AutoscaleConfig, ScaleEvent};
pub use report::{ReqRecord, ServeReport, TenantReport};

use report::finish_run;
pub use scheduler::SchedulerKind;

/// How a tenant's requests arrive.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// Open-loop Poisson arrivals at a fixed offered rate.
    Poisson {
        /// Offered load (requests per second).
        rate_per_sec: f64,
    },
    /// Bursty open-loop arrivals: a Poisson process at
    /// `rate_per_sec * burst_factor` compressed into the first
    /// `1 / burst_factor` of every `period_ns` window, the rest of the
    /// window silent. The long-run mean rate is exactly `rate_per_sec`
    /// (the process is an ordinary Poisson stream on a warped clock), so
    /// burst runs stay comparable to Poisson runs at the same rate;
    /// `burst_factor = 1` degenerates to [`Arrival::Poisson`].
    Burst {
        /// Long-run offered load (requests per second).
        rate_per_sec: f64,
        /// Peak-to-mean ratio inside a burst (must be `>= 1`).
        burst_factor: f64,
        /// Burst repetition period (ns).
        period_ns: f64,
    },
    /// A recorded trace of inter-arrival gaps (ns), cycled to cover the
    /// tenant's request budget.
    Trace {
        /// The gap sequence; must be non-empty and non-negative.
        gaps_ns: Vec<f64>,
    },
}

/// One tenant: an independent open-loop request stream.
///
/// Construct with the builders ([`TenantSpec::poisson`] /
/// [`TenantSpec::burst`] / [`TenantSpec::trace`] plus the chainable
/// setters); the fields stay public for back-compat and direct
/// inspection.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (also the report key).
    pub name: String,
    /// The arrival process.
    pub arrival: Arrival,
    /// Number of requests this tenant issues.
    pub requests: usize,
    /// Latency SLO (ns); measured-window completions above it count as
    /// violations.
    pub slo_ns: f64,
    /// Seed for the tenant's arrival and key streams.
    pub seed: u64,
    /// Scheduling priority (0 = highest). Only priority-aware schedulers
    /// ([`SchedulerKind::PrioritySlo`]) consult it; everything else
    /// treats tenants equally.
    pub priority: u8,
}

impl TenantSpec {
    /// Defaults shared by the builders: 1000 requests, a 5 µs SLO
    /// (the fig11c serving SLO), seed 0, priority 0.
    fn with_arrival(name: impl Into<String>, arrival: Arrival) -> Self {
        Self {
            name: name.into(),
            arrival,
            requests: 1000,
            slo_ns: 5_000.0,
            seed: 0,
            priority: 0,
        }
    }

    /// An open-loop Poisson tenant at `rate_per_sec` offered load.
    /// Defaults: 1000 requests, 5 µs SLO, seed 0, priority 0 — override
    /// with the chainable setters.
    pub fn poisson(name: impl Into<String>, rate_per_sec: f64) -> Self {
        Self::with_arrival(name, Arrival::Poisson { rate_per_sec })
    }

    /// A bursty tenant (see [`Arrival::Burst`]): mean `rate_per_sec`,
    /// bursts of `burst_factor`× intensity every `period_ns`. Same
    /// defaults as [`TenantSpec::poisson`].
    pub fn burst(
        name: impl Into<String>,
        rate_per_sec: f64,
        burst_factor: f64,
        period_ns: f64,
    ) -> Self {
        Self::with_arrival(
            name,
            Arrival::Burst {
                rate_per_sec,
                burst_factor,
                period_ns,
            },
        )
    }

    /// A tenant replaying a recorded trace of inter-arrival gaps (ns),
    /// cycled over its request budget. Same defaults as
    /// [`TenantSpec::poisson`].
    pub fn trace(name: impl Into<String>, gaps_ns: Vec<f64>) -> Self {
        Self::with_arrival(name, Arrival::Trace { gaps_ns })
    }

    /// Sets the number of requests this tenant issues (default 1000).
    #[must_use]
    pub fn requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the latency SLO in ns (default 5000, the fig11c serving SLO).
    #[must_use]
    pub fn slo_ns(mut self, slo_ns: f64) -> Self {
        self.slo_ns = slo_ns;
        self
    }

    /// Sets the seed for the tenant's arrival and key streams (default 0;
    /// give each tenant a distinct seed for independent streams).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling priority (default 0 = highest; larger is
    /// lower priority).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// One tenant's arrival-time generator. Wraps the spec's arrival process
/// so [`run`] and [`arrival_times`] produce identical streams: Poisson
/// and Trace accumulate gaps; Burst runs a homogeneous Poisson process on
/// a warped clock and maps each warped instant into the bursty wall
/// clock (monotone, since `period_ns >= period_ns / burst_factor`).
struct ArrivalGen<'a> {
    spec: &'a TenantSpec,
    rng: m2ndp_sim::rng::StdRng,
    t_ns: f64,
    warped_ns: f64,
}

impl<'a> ArrivalGen<'a> {
    fn new(spec: &'a TenantSpec) -> Self {
        Self {
            spec,
            rng: seeded(spec.seed),
            t_ns: 0.0,
            warped_ns: 0.0,
        }
    }

    /// The arrival time (ns) of request `seq`. Must be called with
    /// consecutive `seq` starting at 0.
    fn next(&mut self, seq: usize) -> f64 {
        match &self.spec.arrival {
            Arrival::Poisson { rate_per_sec } => {
                assert!(*rate_per_sec > 0.0, "tenant rate must be positive");
                let gap = exponential(&mut self.rng, 1e9 / rate_per_sec);
                assert!(gap >= 0.0 && gap.is_finite(), "bad inter-arrival gap");
                self.t_ns += gap;
            }
            Arrival::Trace { gaps_ns } => {
                assert!(!gaps_ns.is_empty(), "trace tenants need gaps");
                let gap = gaps_ns[seq % gaps_ns.len()];
                assert!(gap >= 0.0 && gap.is_finite(), "bad inter-arrival gap");
                self.t_ns += gap;
            }
            Arrival::Burst {
                rate_per_sec,
                burst_factor,
                period_ns,
            } => {
                assert!(*rate_per_sec > 0.0, "tenant rate must be positive");
                assert!(
                    *burst_factor >= 1.0 && burst_factor.is_finite(),
                    "burst_factor must be >= 1"
                );
                assert!(
                    *period_ns > 0.0 && period_ns.is_finite(),
                    "burst period must be positive"
                );
                let gap = exponential(&mut self.rng, 1e9 / (rate_per_sec * burst_factor));
                assert!(gap >= 0.0 && gap.is_finite(), "bad inter-arrival gap");
                self.warped_ns += gap;
                // Each `period_ns / burst_factor` of warped time maps to
                // one `period_ns` wall window: the burst at its front.
                let window = period_ns / burst_factor;
                let k = (self.warped_ns / window).floor();
                self.t_ns = k * period_ns + (self.warped_ns - k * window);
            }
        }
        self.t_ns
    }
}

/// The arrival times (ns) a tenant spec generates, in order — exactly the
/// stream [`run`] feeds the runtime (same seed, same float operations).
/// Exposed so arrival processes can be tested and characterized without
/// running simulators.
pub fn arrival_times(spec: &TenantSpec) -> Vec<f64> {
    let mut arrivals = ArrivalGen::new(spec);
    (0..spec.requests).map(|seq| arrivals.next(seq)).collect()
}

/// Runtime parameters shared by all tenants.
///
/// Construct with [`ServeConfig::with_defaults`] plus the chainable
/// setters; the fields stay public for back-compat.
///
/// # Invariants
///
/// * `warmup_frac` and `drain_frac` are fractions in `[0, 1)` whose sum
///   must leave a non-empty measured window (`warmup_frac + drain_frac
///   < 1`).
/// * The effective per-device slot pool is
///   `min(model.max_concurrent(), device_slots)`, floored at 1; direct
///   MMIO's single architectural slot is enforced by the model's
///   `max_concurrent`, not by `device_slots`.
/// * `autoscale` requires `max_devices <=` the backend's device count
///   and (on multi-device backends) a replicated workload — see
///   [`ServeWorkload::replicated`]. The same replication requirement
///   applies whenever `scheduler` is load-aware
///   ([`SchedulerKind::is_dynamic`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The offload mechanism (launch/return overheads + concurrency cap).
    pub model: OffloadModel,
    /// Kernel slots the device itself sustains (48 in Table IV); the
    /// effective pool is `min(model.max_concurrent(), device_slots)`.
    pub device_slots: u32,
    /// Fraction of requests (in global arrival order) treated as warm-up
    /// and excluded from the measured window.
    pub warmup_frac: f64,
    /// Fraction of requests at the tail excluded as drain.
    pub drain_frac: f64,
    /// Record a structured trace of the run (see [`m2ndp_sim::trace`]):
    /// per-device sinks capture kernel/wave/L2/DRAM/switch events and the
    /// report carries them plus per-request phase spans (and, for
    /// load-aware or autoscaled runs, routing and scaling instants). Off
    /// by default — tracing only observes, so results are identical
    /// either way.
    pub trace: bool,
    /// The routing/admission policy (default
    /// [`SchedulerKind::StaticFifo`], the historical behaviour).
    pub scheduler: SchedulerKind,
    /// Optional SLO-driven fleet autoscaling (default off = the fleet
    /// size is fixed for the whole run).
    pub autoscale: Option<AutoscaleConfig>,
}

impl ServeConfig {
    /// Default-parameter config for a mechanism: 48 device slots, 10%
    /// warm-up, 5% drain, tracing off, static FIFO scheduling, no
    /// autoscaling.
    pub fn with_defaults(mechanism: OffloadMechanism) -> Self {
        Self {
            model: OffloadModel::with_defaults(mechanism),
            device_slots: 48,
            warmup_frac: 0.1,
            drain_frac: 0.05,
            trace: false,
            scheduler: SchedulerKind::StaticFifo,
            autoscale: None,
        }
    }

    /// Sets the device kernel-slot cap (default 48, Table IV).
    #[must_use]
    pub fn device_slots(mut self, device_slots: u32) -> Self {
        self.device_slots = device_slots;
        self
    }

    /// Sets the drain-tail fraction excluded from measurement
    /// (default 0.05).
    #[must_use]
    pub fn drain_frac(mut self, drain_frac: f64) -> Self {
        self.drain_frac = drain_frac;
        self
    }

    /// Turns structured tracing on or off (default off).
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the scheduling policy (default
    /// [`SchedulerKind::StaticFifo`]). Load-aware kinds require a
    /// replicated workload on multi-device backends.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables SLO-driven autoscaling (default off). Requires, on
    /// multi-device backends, a replicated workload.
    #[must_use]
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Whether the run may place a request off its key's home device:
    /// load-aware scheduling or autoscaling.
    fn places_off_home(&self) -> bool {
        self.scheduler.is_dynamic() || self.autoscale.is_some()
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Issuing tenant (also the ASID on the M²func wire).
    pub tenant: u16,
    /// Per-tenant sequence number (arrival order within the tenant).
    pub seq: u64,
    /// Arrival time (ns).
    pub arrival_ns: f64,
    /// Workload key (e.g. the KV item id); determines the owning device.
    pub key: u64,
}

/// What the runtime needs from a workload: keys, routing, launches, and
/// functional verification.
///
/// Key sampling happens once, before anything runs; the launch/verify
/// methods take `&self` (implementations must derive launches purely from
/// the request and the per-device state built at setup).
pub trait ServeWorkload {
    /// Samples the key of request `seq` of `tenant` from the workload's key
    /// distribution (`rng` is the tenant's dedicated key stream).
    fn sample_key(&mut self, tenant: u16, rng: &mut m2ndp_sim::rng::StdRng) -> u64;

    /// Fleet-global address owning `key`'s data (what the `HdmRouter`
    /// routes on). Ignored by single-device backends.
    fn route_addr(&self, key: u64, devices: usize) -> u64;

    /// The device-local launch that serves `req` on device `dev`.
    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs;

    /// Functional check after the request's kernel ran.
    ///
    /// # Errors
    /// Describes the mismatch.
    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String>;

    /// Whether every device holds the full data set, so *any* device can
    /// serve *any* key (default `false` = key-sharded). Load-aware
    /// scheduling, work stealing, and autoscaling all require `true` on
    /// multi-device backends, because they place requests off the key's
    /// home device.
    fn replicated(&self) -> bool {
        false
    }
}

/// The simulators the runtime serves against.
#[derive(Debug)]
pub enum ServeBackend {
    /// One standalone device; the launch store crosses only the device's
    /// own CXL link (already inside the mechanism's `pre_ns`).
    Device(Box<CxlM2ndpDevice>),
    /// N devices behind the CXL switch; every launch is routed through the
    /// `HdmRouter` and charged on the switch ports.
    Fleet(Box<Fleet>),
}

impl ServeBackend {
    /// Number of devices.
    pub fn devices(&self) -> usize {
        match self {
            ServeBackend::Device(_) => 1,
            ServeBackend::Fleet(f) => f.len(),
        }
    }

    /// The device clock (all fleet devices share one domain).
    pub fn clock(&self) -> Frequency {
        match self {
            ServeBackend::Device(d) => d.config().engine.freq,
            ServeBackend::Fleet(f) => f.clock(),
        }
    }

    /// Immutable access to device `i`.
    pub fn device(&self, i: usize) -> &CxlM2ndpDevice {
        match self {
            ServeBackend::Device(d) => d,
            ServeBackend::Fleet(f) => f.device(i),
        }
    }

    /// Mutable access to device `i`.
    pub fn device_mut(&mut self, i: usize) -> &mut CxlM2ndpDevice {
        match self {
            ServeBackend::Device(d) => d,
            ServeBackend::Fleet(f) => f.device_mut(i),
        }
    }

    /// The fleet, when this backend is one (switch counters for tests).
    pub fn fleet(&self) -> Option<&Fleet> {
        match self {
            ServeBackend::Device(_) => None,
            ServeBackend::Fleet(f) => Some(f),
        }
    }

    /// Attaches one buffering trace sink per device.
    fn attach_tracers(&mut self) {
        match self {
            ServeBackend::Device(d) => d.set_tracer(0, Box::new(JsonSink::new())),
            ServeBackend::Fleet(f) => f.set_tracers(|_| Box::new(JsonSink::new())),
        }
    }

    /// Detaches every sink, returning all device events merged in device
    /// index order, and the registered kernels' disassembly.
    fn collect_traces(&mut self) -> (Vec<TraceEvent>, Vec<(u32, String, String)>) {
        let events = match self {
            ServeBackend::Device(d) => d.take_trace(),
            ServeBackend::Fleet(f) => f.take_traces(),
        };
        (events, self.device(0).kernel_disassembly())
    }

    /// Launches `args` on device `dev` at host time `now_ns` and returns
    /// the instance plus the launch store's switch delivery skew (ns).
    /// M²func launches go through the wire protocol; the CXL.io mechanisms
    /// launch directly at the controller (their command path is modelled
    /// by the pre/post phases, not by M²func packets). A standalone
    /// device's store crosses only its own link, already inside `pre_ns`,
    /// so its skew is zero; in a fleet the store is charged on the switch
    /// ports and its cycle-level skew is converted back to ns.
    ///
    /// # Panics
    /// Panics if the device rejects the launch.
    fn launch(
        &mut self,
        dev: usize,
        now_ns: f64,
        mechanism: OffloadMechanism,
        asid: u16,
        args: LaunchArgs,
    ) -> (KernelInstanceId, f64) {
        let m2func = mechanism == OffloadMechanism::M2Func;
        let launched = match self {
            ServeBackend::Device(device) => {
                let inst = if m2func {
                    device.m2func_launch(asid, args)
                } else {
                    device.launch(args)
                };
                inst.map(|inst| (inst, 0.0))
            }
            ServeBackend::Fleet(fleet) => {
                let clock = fleet.clock();
                let issue = clock.cycles_from_ns(now_ns);
                let launched = if m2func {
                    fleet.m2func_launch_on(issue, dev, asid, args)
                } else {
                    fleet.launch_on(issue, dev, args)
                };
                launched.map(|(inst, arrival)| {
                    (inst, clock.ns_from_cycles(arrival.saturating_sub(issue)))
                })
            }
        };
        launched.expect("serving launch must not be rejected")
    }
}

/// Runs `tenants` against `backend`, one kernel launch per request.
///
/// Admission is event-driven: arrivals enqueue into a device queue picked
/// by [`ServeConfig::scheduler`] (the default routes to the key's owning
/// device); whenever the device has a free kernel slot a queued request is
/// admitted, pays the mechanism's pre-launch phase (plus, in fleets, the
/// switch's cycle-accurate delivery skew for the launch store), runs its
/// kernel *on the device simulator* to obtain the real service time, and
/// is observed by the host `post_ns` after kernel completion. Every
/// scheduler and autoscaled run shares this one serial loop
/// ([`scheduler`]).
///
/// # Panics
/// Panics on malformed tenant specs (empty trace, non-positive rate), on
/// launch rejections from the device, on functional verification
/// failures — a serving run that drops requests is a broken experiment,
/// not a data point — and on dynamic scheduling or autoscaling over a
/// non-replicated multi-device workload.
pub fn run<W: ServeWorkload>(
    backend: &mut ServeBackend,
    workload: &mut W,
    cfg: &ServeConfig,
    tenants: &[TenantSpec],
) -> ServeReport {
    let ndev = backend.devices();
    assert!(
        !cfg.places_off_home() || ndev == 1 || workload.replicated(),
        "dynamic scheduling ({}) and autoscaling place requests off their \
         home device, which requires a workload replicated on every device \
         (ServeWorkload::replicated) — sharded workloads can only run the \
         static schedulers on a fixed fleet",
        cfg.scheduler.name()
    );
    if cfg.trace {
        backend.attach_tracers();
    }
    let requests = generate_requests(tenants, |t, rng| workload.sample_key(t, rng));
    // Home device of each request: what the HdmRouter would pick (static
    // placement).
    let homes: Vec<usize> = requests
        .iter()
        .map(|r| {
            backend.fleet().map_or(0, |fleet| {
                let addr = workload.route_addr(r.key, ndev);
                fleet
                    .router()
                    .device_of(addr)
                    .expect("workload routes inside the fleet HDM")
            })
        })
        .collect();
    let clock = backend.clock();
    let workload = &*workload;
    let (records, aux) =
        scheduler::serve_loop(ndev, &homes, cfg, tenants, &requests, |_, req, dev, now| {
            let args = workload.launch_args(req, dev);
            let (inst, switch_skew_ns) =
                backend.launch(dev, now, cfg.model.mechanism(), req.tenant, args);
            let device = backend.device_mut(dev);
            let t0 = device.now();
            let done = device.run_until_finished(inst);
            let service_ns = clock.ns_from_cycles(done - t0);
            workload
                .verify(req, dev, backend.device(dev))
                .expect("request must verify functionally");
            (switch_skew_ns, service_ns)
        });
    let (device_trace, kernels) = if cfg.trace {
        backend.collect_traces()
    } else {
        Default::default()
    };
    finish_run(cfg, tenants, records, aux, device_trace, kernels)
}

/// Runs `tenants` through the same admission loop as [`run`] on one
/// device, but an admitted request takes a measured kernel service time
/// instead of running a simulated kernel: request `i` in global arrival
/// order takes `service_ns[i % service_ns.len()]`, with no switch skew.
/// Routing, the slot pool, the mechanism's pre and post phases and the
/// measurement window are [`run`]'s own. The report has no device trace
/// and no kernel disassembly; `launches` counts the replayed kernels.
///
/// # Panics
/// Panics if `service_ns` is empty, on malformed tenant specs, and on an
/// autoscaler configured for more than one device.
pub fn replay(service_ns: &[f64], cfg: &ServeConfig, tenants: &[TenantSpec]) -> ServeReport {
    assert!(!service_ns.is_empty(), "replay needs a service time");
    let requests = generate_requests(tenants, |_, _| 0);
    let homes = vec![0; requests.len()];
    let (records, aux) = scheduler::serve_loop(1, &homes, cfg, tenants, &requests, |i, _, _, _| {
        (0.0, service_ns[i % service_ns.len()])
    });
    finish_run(cfg, tenants, records, aux, Vec::new(), Vec::new())
}

/// Every tenant's requests in global arrival order; ties break by
/// `(tenant, seq)` so merged streams stay deterministic. `key` draws a
/// request's key from its tenant's key stream, which is seeded apart from
/// the arrival stream, so drawing no keys leaves the arrivals unchanged.
fn generate_requests(
    tenants: &[TenantSpec],
    mut key: impl FnMut(u16, &mut m2ndp_sim::rng::StdRng) -> u64,
) -> Vec<Request> {
    let mut requests: Vec<Request> = Vec::new();
    for (t, spec) in tenants.iter().enumerate() {
        let mut arrivals = ArrivalGen::new(spec);
        let mut key_rng = seeded(spec.seed ^ 0x4B45_5953); // "KEYS"
        for seq in 0..spec.requests {
            let arrival_ns = arrivals.next(seq);
            requests.push(Request {
                tenant: t as u16,
                seq: seq as u64,
                arrival_ns,
                key: key(t as u16, &mut key_rng),
            });
        }
    }
    requests.sort_by(|a, b| {
        a.arrival_ns
            .total_cmp(&b.arrival_ns)
            .then(a.tenant.cmp(&b.tenant))
            .then(a.seq.cmp(&b.seq))
    });
    requests
}

// ---------------------------------------------------------------------------
// The KVStore serving workloads (fig11c, fig15)
// ---------------------------------------------------------------------------

/// A KVStore GET workload over the backend's devices, each holding its
/// store as a real hash table in its own memory; every request is one
/// fine-grained GET kernel.
///
/// [`KvServeWorkload::build`] shards the key space: it is striped at item
/// granularity, so `key % devices` owns the key. [`KvServeWorkload::replicated`]
/// builds the identical full store on every device, so any device can
/// serve any key — the placement freedom that load-aware scheduling, work
/// stealing, and autoscaling require ([`ServeWorkload::replicated`]).
/// Replicated keys keep `key % devices` as their *home* device, exposed
/// through [`ServeWorkload::route_addr`], so home routing has something
/// to aim at; off-home placement changes which replica answers, not the
/// answer.
#[derive(Debug)]
pub struct KvServeWorkload {
    stores: Vec<kvstore::KvData>,
    kernels: Vec<KernelId>,
    shard_bases: Vec<u64>,
    total_items: u64,
    replicated: bool,
    zipf: Zipf,
}

/// Scale of one serving shard (items per device; buckets = items / 2).
pub const KV_ITEMS_PER_DEVICE: u64 = 16 << 10;

impl KvServeWorkload {
    /// Builds the sharded store inside `backend`'s devices (one
    /// [`kvstore::generate`] per device, `items_per_device` each) and
    /// registers the GET kernel everywhere. `zipf_theta` skews the key
    /// popularity (YCSB default 0.99).
    pub fn build(backend: &mut ServeBackend, items_per_device: u64, zipf_theta: f64) -> Self {
        Self::generate(backend, items_per_device, zipf_theta, false)
    }

    /// Builds the same `items`-entry store inside *every* device of
    /// `backend` and registers the GET kernel everywhere. `zipf_theta`
    /// skews the key popularity (YCSB default 0.99).
    pub fn replicated(backend: &mut ServeBackend, items: u64, zipf_theta: f64) -> Self {
        Self::generate(backend, items, zipf_theta, true)
    }

    fn generate(backend: &mut ServeBackend, items: u64, zipf_theta: f64, replicated: bool) -> Self {
        let ndev = backend.devices();
        let mut stores = Vec::with_capacity(ndev);
        let mut kernels = Vec::with_capacity(ndev);
        let mut shard_bases = Vec::with_capacity(ndev);
        for dev in 0..ndev {
            // Replicas share one seed, so all hold the same key/value
            // pairs; shards each draw their own.
            let cfg = kvstore::KvConfig {
                items,
                buckets: (items / 2).max(1),
                get_ratio: 1.0,
                requests: 0,
                zipf_theta: 0.99,
                seed: if replicated {
                    0xCB5A
                } else {
                    0xCB5A ^ dev as u64
                },
            };
            let (data, kid, base) = match backend {
                ServeBackend::Device(device) => {
                    let data = kvstore::generate(cfg, device.memory_mut());
                    let kid = device.register_kernel(kvstore::kernel());
                    (data, kid, 0)
                }
                ServeBackend::Fleet(fleet) => {
                    let data = kvstore::generate(cfg, fleet.device_mut(dev).memory_mut());
                    let kid = fleet.device_mut(dev).register_kernel(kvstore::kernel());
                    let base = fleet.shard_base(dev);
                    (data, kid, base)
                }
            };
            stores.push(data);
            kernels.push(kid);
            shard_bases.push(base);
        }
        let total_items = if replicated {
            items
        } else {
            items * ndev as u64
        };
        Self {
            stores,
            kernels,
            shard_bases,
            total_items,
            replicated,
            zipf: Zipf::new(total_items, zipf_theta),
        }
    }

    /// Distinct items across the fleet (all shards, or one replica).
    pub fn total_items(&self) -> u64 {
        self.total_items
    }

    fn home(&self, key: u64) -> usize {
        (key % self.stores.len() as u64) as usize
    }

    fn local_request(&self, key: u64) -> kvstore::KvRequest {
        kvstore::KvRequest {
            item: if self.replicated {
                key
            } else {
                key / self.stores.len() as u64
            },
            get: true,
        }
    }

    fn slot(req: &Request) -> u32 {
        (req.seq % 64) as u32
    }
}

impl ServeWorkload for KvServeWorkload {
    fn sample_key(&mut self, _tenant: u16, rng: &mut m2ndp_sim::rng::StdRng) -> u64 {
        self.zipf.sample(rng)
    }

    fn route_addr(&self, key: u64, _devices: usize) -> u64 {
        self.shard_bases[self.home(key)]
    }

    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs {
        debug_assert!(self.replicated || self.home(req.key) == dev);
        kvstore::launch(
            &self.stores[dev],
            self.kernels[dev],
            self.local_request(req.key),
            Self::slot(req),
            0,
        )
    }

    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String> {
        kvstore::verify_get(
            &self.stores[dev],
            device.memory(),
            self.local_request(req.key),
            Self::slot(req),
        )
    }

    fn replicated(&self) -> bool {
        self.replicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp_core::fleet::FleetConfig;
    use m2ndp_core::M2ndpConfig;
    use m2ndp_cxl::SwitchConfig;
    use m2ndp_sim::trace::ScaleDir;

    fn small_cfg() -> M2ndpConfig {
        let mut cfg = M2ndpConfig::default_device();
        cfg.engine.units = 2;
        cfg
    }

    fn fleet_backend(devices: usize) -> ServeBackend {
        ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })))
    }

    fn tenants(requests: usize, rate: f64) -> Vec<TenantSpec> {
        vec![
            TenantSpec::poisson("poisson", rate * 0.7)
                .requests(requests)
                .slo_ns(10_000.0)
                .seed(11),
            TenantSpec::trace(
                "trace",
                vec![
                    1e9 / (rate * 0.3),
                    0.5e9 / (rate * 0.3),
                    1.5e9 / (rate * 0.3),
                ],
            )
            .requests(requests / 2)
            .slo_ns(10_000.0)
            .seed(13),
        ]
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(120, 2e5));
        assert_eq!(report.launches, 120 + 60);
        assert_eq!(report.records.len(), 180);
        assert_eq!(report.tenants[0].completed, 120);
        assert_eq!(report.tenants[1].completed, 60);
        assert!(report.throughput > 0.0);
        // A static fleet's device-time is devices × makespan.
        let makespan = report
            .records
            .iter()
            .map(|r| r.observed_ns)
            .fold(0.0f64, f64::max);
        assert_eq!(report.device_time_ns, 2.0 * makespan);
        assert!(report.scale_events.is_empty());
        // Every launch store crossed the switch.
        assert_eq!(
            report.launches,
            backend.fleet().unwrap().switch().host_transfers.get()
        );
    }

    #[test]
    fn latencies_are_at_least_the_mechanism_overhead() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::CxlIoRingBuffer);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(80, 2e5));
        let floor = cfg.model.overhead_ns();
        for r in &report.records {
            assert!(
                r.latency_ns() >= floor,
                "latency {} below overhead {floor}",
                r.latency_ns()
            );
        }
    }

    #[test]
    fn direct_mmio_keeps_one_outstanding_kernel() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::CxlIoDirect);
        // Saturating load: queues build, but the register constraint holds.
        let report = run(&mut backend, &mut wl, &cfg, &tenants(150, 5e6));
        for (d, &m) in report.max_outstanding.iter().enumerate() {
            assert!(m <= 1, "device {d} had {m} outstanding under direct MMIO");
        }
    }

    #[test]
    fn fifo_admission_preserves_per_tenant_order_per_device() {
        let mut backend = fleet_backend(4);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(200, 3e6));
        let mut last: std::collections::HashMap<(u16, usize), (u64, f64)> =
            std::collections::HashMap::new();
        // records are in global arrival order; admissions per (tenant,
        // device) must be monotone in both seq and time.
        for r in &report.records {
            if let Some(&(seq, adm)) = last.get(&(r.tenant, r.device)) {
                assert!(r.seq > seq, "tenant {} reordered on {}", r.tenant, r.device);
                assert!(r.admitted_ns >= adm, "admission time went backwards");
            }
            last.insert((r.tenant, r.device), (r.seq, r.admitted_ns));
        }
    }

    #[test]
    fn m2func_beats_ring_buffer_p95_at_light_load() {
        let p95 = |mech: OffloadMechanism| {
            let mut backend = fleet_backend(1);
            let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
            let cfg = ServeConfig::with_defaults(mech);
            let mut report = run(&mut backend, &mut wl, &cfg, &tenants(150, 1e5));
            report.p95_ns()
        };
        let m2 = p95(OffloadMechanism::M2Func);
        let rb = p95(OffloadMechanism::CxlIoRingBuffer);
        assert!(rb > 2.0 * m2, "RB P95 {rb} should dwarf M2func P95 {m2}");
    }

    #[test]
    fn burst_arrivals_are_monotone_and_converge_to_mean_rate() {
        let spec = TenantSpec::burst("bursty", 1e6, 8.0, 100_000.0)
            .requests(4000)
            .seed(42);
        let times = arrival_times(&spec);
        assert_eq!(times.len(), 4000);
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "burst arrivals must be monotone");
        }
        let span_s = times.last().unwrap() * 1e-9;
        let rate = times.len() as f64 / span_s;
        let err = (rate - 1e6).abs() / 1e6;
        assert!(err < 0.10, "empirical rate {rate:.0} vs configured 1e6");
        // And the bursts are real: most gaps are much shorter than the
        // mean (arrivals compressed 8×), a few span the silent window.
        let mean_gap = times.last().unwrap() / times.len() as f64;
        let short = times.windows(2).filter(|w| w[1] - w[0] < mean_gap).count();
        assert!(short * 4 > times.len() * 3, "arrivals should be clustered");
    }

    #[test]
    fn shortest_queue_balances_a_replicated_store() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::replicated(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
            .scheduler(SchedulerKind::ShortestQueue);
        let report = run(&mut backend, &mut wl, &cfg, &tenants(120, 2e6));
        assert_eq!(report.records.len(), 180);
        // Both devices served work (Zipf-skewed home routing would not
        // guarantee that at these sizes; least-loaded routing does).
        let mut by_dev = [0u64; 2];
        for r in &report.records {
            by_dev[r.device] += 1;
        }
        assert!(by_dev.iter().all(|&c| c > 0), "one device idle: {by_dev:?}");
    }

    #[test]
    #[should_panic(expected = "replicated")]
    fn dynamic_scheduling_rejects_sharded_workloads() {
        let mut backend = fleet_backend(2);
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
            .scheduler(SchedulerKind::ShortestQueue);
        let _ = run(&mut backend, &mut wl, &cfg, &tenants(20, 2e5));
    }

    #[test]
    fn autoscaler_grows_the_fleet_under_load_and_records_events() {
        let mut backend = fleet_backend(4);
        let mut wl = KvServeWorkload::replicated(&mut backend, 1 << 10, 0.9);
        // One kernel slot per device + saturating load + a tight target:
        // the fleet must grow off its 1-device floor.
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
            .device_slots(1)
            .scheduler(SchedulerKind::ShortestQueue)
            .autoscale(
                AutoscaleConfig::new(1, 4, 4_000.0)
                    .interval_ns(20_000.0)
                    .window(64),
            );
        let report = run(&mut backend, &mut wl, &cfg, &tenants(300, 5e6));
        assert_eq!(report.records.len(), 450);
        assert!(
            report
                .scale_events
                .iter()
                .any(|e| matches!(e.dir, ScaleDir::Up)),
            "expected at least one scale-up, got {:?}",
            report.scale_events
        );
        // Device-time stays below the full-fleet envelope: some devices
        // were parked part of the run.
        let makespan = report
            .records
            .iter()
            .map(|r| r.observed_ns)
            .fold(0.0f64, f64::max);
        assert!(report.device_time_ns < 4.0 * makespan);
        // Active-interval bookkeeping matches the event log: every Up has
        // a later active count, every DrainDone a parked device.
        for e in &report.scale_events {
            assert!(e.device < 4);
            assert!(e.t_ns > 0.0);
        }
    }

    /// Replay's default configuration in the figures: 48 slots, 10%
    /// warm-up, no drain.
    fn replay_cfg(mech: OffloadMechanism) -> ServeConfig {
        ServeConfig::with_defaults(mech).drain_frac(0.0)
    }

    /// One tenant whose `n` requests all arrive at t = 0.
    fn all_at_zero(n: usize) -> [TenantSpec; 1] {
        [TenantSpec::trace("burst", vec![0.0]).requests(n)]
    }

    /// Replays a 0.77 µs GET kernel (the §IV-C P95) for `n` Poisson
    /// requests at `rate`.
    fn kvs(mech: OffloadMechanism, rate: f64, n: usize, seed: u64) -> ServeReport {
        let tenant = TenantSpec::poisson("kvs", rate).requests(n).seed(seed);
        replay(&[770.0], &replay_cfg(mech), &[tenant])
    }

    /// Every record's latency, warm-up included, as the figures read it.
    fn all_latencies(report: &ServeReport) -> m2ndp_sim::FHistogram {
        let mut all = m2ndp_sim::FHistogram::new();
        for r in &report.records {
            all.record(r.latency_ns());
        }
        all
    }

    /// With a fractional-ns service time and back-to-back arrivals, the
    /// single direct-MMIO slot advances by exactly `pre + service + post`
    /// per request: the `f64` event clock never rounds a slot-free time,
    /// which would drift it by up to 1 ns per request.
    #[test]
    fn replay_clock_accrues_no_quantization_drift() {
        let cfg = replay_cfg(OffloadMechanism::CxlIoDirect).device_slots(1);
        let (pre, post) = (cfg.model.pre_ns(), cfg.model.post_ns());
        let service = 100.3;
        let n = 4000;
        let report = replay(&[service], &cfg, &all_at_zero(n));
        // Request i is observed (i + 1) periods after t = 0.
        let period = pre + service + post;
        let lat = all_latencies(&report);
        let expect_max = n as f64 * period;
        assert!(
            (lat.max() - expect_max).abs() < 1e-6,
            "drift detected: max latency {} vs exact {expect_max}",
            lat.max()
        );
        let expect_mean = period * (n as f64 + 1.0) / 2.0;
        assert!(
            (lat.mean() - expect_mean).abs() / expect_mean < 1e-12,
            "mean {} vs exact {expect_mean}",
            lat.mean()
        );
    }

    /// The ring buffer's doorbell/DMA phase starts only after a kernel
    /// slot frees up; it does not overlap the queue wait.
    #[test]
    fn replay_charges_the_pre_phase_after_admission() {
        let cfg = replay_cfg(OffloadMechanism::CxlIoRingBuffer).device_slots(1);
        let (pre, post) = (cfg.model.pre_ns(), cfg.model.post_ns());
        let service = 1000.0;
        // Two simultaneous arrivals, one slot: the second request queues
        // behind the first kernel, then pays its own full pre phase.
        let report = replay(&[service], &cfg, &all_at_zero(2));
        let first = pre + service + post;
        let second = (pre + service) + pre + service + post;
        let lat: Vec<f64> = report.records.iter().map(ReqRecord::latency_ns).collect();
        assert!((lat[0] - first).abs() < 1e-9, "first: {lat:?}");
        assert!(
            (lat[1] - second).abs() < 1e-9,
            "second must pay pre after the queue wait: {lat:?} vs {second}"
        );
    }

    /// A short saturated run reports the steady-state service rate, not
    /// the figure diluted by measuring from t = 0 across the empty-system
    /// ramp.
    #[test]
    fn replay_measures_throughput_over_the_steady_window() {
        let cfg = replay_cfg(OffloadMechanism::M2Func);
        let service = 770.0;
        // Saturation: all arrivals at t = 0, 48 slots each cycling every
        // pre + service ns.
        let report = replay(&[service], &cfg, &all_at_zero(6000));
        let steady = 48.0 / ((cfg.model.pre_ns() + service) * 1e-9);
        assert!(
            (report.throughput - steady).abs() / steady < 0.02,
            "windowed throughput {:.3e} vs steady-state {steady:.3e}",
            report.throughput
        );
        let (open, close) = report.steady_window;
        assert!(close > open);
    }

    #[test]
    fn replay_m2func_sustains_higher_throughput_than_direct() {
        let m2 = kvs(OffloadMechanism::M2Func, 1.0e7, 20_000, 42).throughput;
        let dr = kvs(OffloadMechanism::CxlIoDirect, 1.0e7, 20_000, 42).throughput;
        assert!(m2 > 10.0 * dr, "M2func {m2:.2e} vs direct {dr:.2e}");
    }

    #[test]
    fn replay_ring_buffer_inflates_tail_latency_at_low_load() {
        // Light load: latency ≈ overhead + service.
        let p95 = |mech| all_latencies(&kvs(mech, 1.0e5, 5_000, 7)).percentile(0.95);
        let (m2, rb) = (
            p95(OffloadMechanism::M2Func),
            p95(OffloadMechanism::CxlIoRingBuffer),
        );
        assert!(rb > 3.0 * m2, "RB P95 {rb} should dwarf M2func P95 {m2}");
    }

    #[test]
    fn replay_saturation_bends_the_latency_curve() {
        let p95 =
            |rate| all_latencies(&kvs(OffloadMechanism::M2Func, rate, 10_000, 3)).percentile(0.95);
        let (low, high) = (p95(1.0e6), p95(2.0e8));
        assert!(high > 2.0 * low, "saturated P95 {high} vs light {low}");
    }

    #[test]
    #[should_panic(expected = "bad inter-arrival gap")]
    fn replay_rejects_a_negative_trace_gap() {
        let tenant = [TenantSpec::trace("t", vec![10.0, -5.0]).requests(2)];
        let _ = replay(&[100.0], &replay_cfg(OffloadMechanism::M2Func), &tenant);
    }

    #[test]
    fn priority_slo_prefers_high_priority_tenant_under_saturation() {
        let run_p95 = |kind: SchedulerKind| {
            let mut backend = fleet_backend(2);
            let mut wl = KvServeWorkload::replicated(&mut backend, 1 << 10, 0.9);
            let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func).scheduler(kind);
            let specs = vec![
                TenantSpec::poisson("latency", 2e6)
                    .requests(150)
                    .slo_ns(3_000.0)
                    .seed(11)
                    .priority(0),
                TenantSpec::poisson("batch", 4e6)
                    .requests(300)
                    .slo_ns(50_000.0)
                    .seed(13)
                    .priority(3),
            ];
            let mut report = run(&mut backend, &mut wl, &cfg, &specs);
            report.tenants[0].latencies.percentile(0.95)
        };
        let prio = run_p95(SchedulerKind::PrioritySlo);
        let fair = run_p95(SchedulerKind::ShortestQueue);
        assert!(
            prio <= fair,
            "priority scheduling should not hurt the high-priority tenant: {prio} vs {fair}"
        );
    }
}
