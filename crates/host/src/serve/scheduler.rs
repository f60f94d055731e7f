//! Pluggable request scheduling for the serving runtime, plus the one
//! admission loop every serving run executes on.
//!
//! # The admission loop
//!
//! Every run, whatever its scheduler and whether or not it autoscales,
//! goes through one serial event loop (`serve_loop`): each request is
//! routed when it *arrives*, against the fleet's live admission state,
//! queued on its device, and admitted when that device has a free kernel
//! slot. Static placement ([`SchedulerKind::StaticFifo`]) is simply a
//! scheduler whose `route` returns the key's home device. The loop never
//! reads `--jobs`, so a run is deterministic at every setting of it.
//!
//! # Determinism rules for scheduler implementations
//!
//! A [`Scheduler`] must be a deterministic function of its inputs: the
//! request views, the [`FleetView`] snapshots it is handed, and its own
//! state evolved through the callbacks. No randomness, no ambient state,
//! no reliance on map iteration order. All tie-breaks must be explicit
//! (the built-ins break ties by lowest device index / queue position).
//!
//! # Data-placement requirement
//!
//! Anything that can place a request off its home device — load-aware
//! routing, work stealing, draining a device that owns data — requires a
//! workload that can serve any key on any device
//! ([`ServeWorkload::replicated`]). `serve_loop` enforces this up
//! front with a panic rather than letting functional verification fail
//! halfway through a run.

use std::collections::VecDeque;

use m2ndp_core::{DeviceLifecycle, DeviceView, FleetView};
use m2ndp_sim::{FEventQueue, Frequency};

use crate::offload::OffloadMechanism;

use super::autoscale::{Autoscaler, ScaleDecision, ScaleEvent};
use super::report::{finish_run, ReqRecord, RunAux, ServeReport};
use super::{Request, ServeBackend, ServeConfig, ServeWorkload, TenantSpec};
use m2ndp_sim::trace::ScaleDir;

/// The built-in scheduling policies, selectable via
/// [`ServeConfig::scheduler`](super::ServeConfig::scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Route to the key's home device, FIFO admission — the historical
    /// fig11c behaviour, pinned bit-identical by the benchmark snapshot.
    #[default]
    StaticFifo,
    /// Route each arrival to the active device with the least load
    /// (queue + outstanding; ties to the lowest index). Load-aware, so it
    /// requires a replicated workload.
    ShortestQueue,
    /// Priority-aware admission with SLO-deadline ordering and bounded
    /// work stealing: arrivals route to the least-loaded device, each
    /// device admits its queued request with the (numerically lowest
    /// [`TenantSpec::priority`], earliest `arrival + slo` deadline) first,
    /// and a device going idle steals one queued request from the longest
    /// active queue.
    PrioritySlo,
}

impl SchedulerKind {
    /// All built-in policies, in declaration order.
    pub fn all() -> [SchedulerKind; 3] {
        [
            SchedulerKind::StaticFifo,
            SchedulerKind::ShortestQueue,
            SchedulerKind::PrioritySlo,
        ]
    }

    /// Stable CLI/JSON name (`static-fifo`, `shortest-queue`,
    /// `priority-slo`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::StaticFifo => "static-fifo",
            SchedulerKind::ShortestQueue => "shortest-queue",
            SchedulerKind::PrioritySlo => "priority-slo",
        }
    }

    /// Parses a [`Self::name`] back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.name() == s)
    }

    /// Whether this policy routes against live fleet state, and so may
    /// place a request off its home device (which needs a replicated
    /// workload on multi-device backends). Placement-pure policies route
    /// home unless autoscaling parks the home device.
    pub fn is_dynamic(self) -> bool {
        matches!(
            self,
            SchedulerKind::ShortestQueue | SchedulerKind::PrioritySlo
        )
    }

    /// Builds the policy's runtime state.
    pub(super) fn instantiate(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::StaticFifo => Box::new(StaticFifo),
            SchedulerKind::ShortestQueue => Box::new(ShortestQueue),
            SchedulerKind::PrioritySlo => Box::new(PrioritySlo),
        }
    }
}

/// The scheduler-facing view of one request: everything a routing or
/// admission decision may depend on. Built once per run from the
/// generated [`Request`]s and the tenant specs.
#[derive(Debug, Clone, Copy)]
pub struct ReqView {
    /// Issuing tenant.
    pub tenant: u16,
    /// Per-tenant sequence number.
    pub seq: u64,
    /// Arrival time (ns).
    pub arrival_ns: f64,
    /// Workload key.
    pub key: u64,
    /// The key's home device (where the `HdmRouter` would place it).
    pub home: usize,
    /// The tenant's latency SLO (ns); `arrival_ns + slo_ns` is the
    /// request's deadline.
    pub slo_ns: f64,
    /// The tenant's priority (0 = highest).
    pub priority: u8,
}

/// A pluggable routing/admission policy for the serving runtime.
///
/// Only [`Scheduler::route`] is required; the remaining hooks default to
/// FIFO admission, no stealing, and no state updates. Implementations
/// must follow the determinism rules in the [module docs](self).
pub trait Scheduler {
    /// Picks the device for a request at its arrival. Returning a device
    /// that is not currently [`DeviceLifecycle::Active`] (or is out of
    /// range) is tolerated: the runtime falls back to the least-loaded
    /// active device, so policies like home routing stay total under
    /// autoscaling.
    fn route(&mut self, req: &ReqView, view: &FleetView) -> usize;

    /// Picks which queued request device `dev` admits next, as a position
    /// into `queue` (whose entries index into `views`). Default: `0`, the
    /// FIFO front.
    fn select(
        &mut self,
        dev: usize,
        queue: &VecDeque<usize>,
        views: &[ReqView],
        now_ns: f64,
    ) -> usize {
        let _ = (dev, queue, views, now_ns);
        0
    }

    /// Called when device `idle` has a free slot and an empty queue:
    /// return a victim device to steal one queued request from (the
    /// runtime takes the newest). Default: no stealing.
    fn steal(&mut self, idle: usize, view: &FleetView) -> Option<usize> {
        let _ = (idle, view);
        None
    }

    /// Observes a completion: `req` finished on `dev` with the given
    /// end-to-end latency. Default: no-op.
    fn on_complete(&mut self, dev: usize, req: &ReqView, latency_ns: f64) {
        let _ = (dev, req, latency_ns);
    }

    /// Observes an autoscaler evaluation tick. Default: no-op.
    fn on_tick(&mut self, now_ns: f64, view: &FleetView) {
        let _ = (now_ns, view);
    }
}

/// [`SchedulerKind::StaticFifo`] — home routing, FIFO admission.
struct StaticFifo;

impl Scheduler for StaticFifo {
    fn route(&mut self, req: &ReqView, _view: &FleetView) -> usize {
        req.home
    }
}

/// [`SchedulerKind::ShortestQueue`] — least-loaded routing.
struct ShortestQueue;

impl Scheduler for ShortestQueue {
    fn route(&mut self, _req: &ReqView, view: &FleetView) -> usize {
        view.shortest_active()
            .expect("fleet has at least one active device")
    }
}

/// [`SchedulerKind::PrioritySlo`] — least-loaded routing, priority +
/// SLO-deadline admission, bounded work stealing.
struct PrioritySlo;

impl Scheduler for PrioritySlo {
    fn route(&mut self, _req: &ReqView, view: &FleetView) -> usize {
        view.shortest_active()
            .expect("fleet has at least one active device")
    }

    fn select(
        &mut self,
        _dev: usize,
        queue: &VecDeque<usize>,
        views: &[ReqView],
        _now_ns: f64,
    ) -> usize {
        let mut best = 0usize;
        for pos in 1..queue.len() {
            let (b, c) = (&views[queue[best]], &views[queue[pos]]);
            let b_key = (b.priority, b.arrival_ns + b.slo_ns);
            let c_key = (c.priority, c.arrival_ns + c.slo_ns);
            if c_key.0 < b_key.0 || (c_key.0 == b_key.0 && c_key.1.total_cmp(&b_key.1).is_lt()) {
                best = pos;
            }
        }
        best
    }

    fn steal(&mut self, _idle: usize, view: &FleetView) -> Option<usize> {
        view.longest_active_queue()
    }
}

/// Events of the admission loop. Arrivals are all pre-scheduled before
/// the loop starts, so at equal times arrivals come before completions,
/// and each kind keeps its insertion order.
enum Ev {
    /// Request `i` (global arrival index) arrives.
    Arrive(usize),
    /// A kernel slot frees on a device; carries the finished request and
    /// its end-to-end latency for the completion callbacks.
    SlotFree {
        dev: usize,
        idx: usize,
        latency_ns: f64,
    },
    /// Autoscaler evaluation tick.
    Tick,
}

/// All mutable state of the admission loop, so the event handlers can be
/// methods instead of a closure tangle.
struct ServeLoop<'a, W: ?Sized> {
    backend: &'a mut ServeBackend,
    workload: &'a W,
    requests: &'a [Request],
    views: Vec<ReqView>,
    clock: Frequency,
    mechanism: OffloadMechanism,
    pre: f64,
    post: f64,
    direct: bool,
    slots: u32,
    sched: Box<dyn Scheduler>,
    auto: Option<Autoscaler>,
    queues: Vec<VecDeque<usize>>,
    free: Vec<u32>,
    outstanding: Vec<u32>,
    max_outstanding: Vec<u32>,
    lifecycle: Vec<DeviceLifecycle>,
    active_count: usize,
    /// Start of each device's current active interval (`None` = parked).
    active_since: Vec<Option<f64>>,
    /// Closed active intervals, integrated (ns).
    device_time_ns: f64,
    launches: u64,
    completed: usize,
    records: Vec<(usize, ReqRecord)>,
    scale_events: Vec<ScaleEvent>,
}

impl<W: ServeWorkload + ?Sized> ServeLoop<'_, W> {
    fn view(&self) -> FleetView {
        FleetView {
            devices: (0..self.queues.len())
                .map(|d| DeviceView {
                    queue_len: self.queues[d].len(),
                    outstanding: self.outstanding[d],
                    free_slots: self.free[d],
                    lifecycle: self.lifecycle[d],
                })
                .collect(),
        }
    }

    /// Routes request `i` through the scheduler, falling back to the
    /// least-loaded active device when the policy picks a device that is
    /// parked, draining, or out of range.
    fn route(&mut self, i: usize) -> usize {
        let view = self.view();
        let dev = self.sched.route(&self.views[i], &view);
        if dev < self.lifecycle.len() && self.lifecycle[dev] == DeviceLifecycle::Active {
            dev
        } else {
            view.shortest_active()
                .expect("fleet has at least one active device")
        }
    }

    /// Admits from device `dev`'s queue while it has free slots, running
    /// each admitted request's kernel on the simulator.
    fn try_admit(&mut self, dev: usize, now: f64, events: &mut FEventQueue<Ev>) {
        while self.free[dev] > 0 && !self.queues[dev].is_empty() {
            let pos = self.sched.select(dev, &self.queues[dev], &self.views, now);
            let i = self.queues[dev]
                .remove(pos)
                .expect("select returned a position inside the queue");
            self.free[dev] -= 1;
            self.outstanding[dev] += 1;
            self.max_outstanding[dev] = self.max_outstanding[dev].max(self.outstanding[dev]);
            let req = self.requests[i];
            let args = self.workload.launch_args(&req, dev);

            let (inst, switch_skew_ns) =
                self.backend
                    .launch(dev, now, self.mechanism, req.tenant, args);
            let device = self.backend.device_mut(dev);
            let t0 = device.now();
            let done = device.run_until_finished(inst);
            let service_ns = self.clock.ns_from_cycles(done - t0);
            self.launches += 1;
            self.workload
                .verify(&req, dev, self.backend.device(dev))
                .expect("request must verify functionally");

            let start = now + switch_skew_ns + self.pre;
            let kernel_done = start + service_ns;
            let observed = kernel_done + self.post;
            let slot_free_at = if self.direct { observed } else { kernel_done };
            events.schedule(
                slot_free_at,
                Ev::SlotFree {
                    dev,
                    idx: i,
                    latency_ns: observed - req.arrival_ns,
                },
            );
            self.records.push((
                i,
                ReqRecord {
                    tenant: req.tenant,
                    seq: req.seq,
                    device: dev,
                    arrival_ns: req.arrival_ns,
                    admitted_ns: now,
                    start_ns: start,
                    service_ns,
                    observed_ns: observed,
                },
            ));
        }
    }

    /// One bounded work-steal: if `dev` is active, has a free slot and an
    /// empty queue, ask the scheduler for a victim and move that queue's
    /// newest request over.
    fn maybe_steal(&mut self, dev: usize, now: f64, events: &mut FEventQueue<Ev>) {
        if self.lifecycle[dev] != DeviceLifecycle::Active
            || self.free[dev] == 0
            || !self.queues[dev].is_empty()
        {
            return;
        }
        let view = self.view();
        let Some(victim) = self.sched.steal(dev, &view) else {
            return;
        };
        if victim == dev || victim >= self.queues.len() {
            return;
        }
        let Some(i) = self.queues[victim].pop_back() else {
            return;
        };
        self.queues[dev].push_back(i);
        self.try_admit(dev, now, events);
    }

    /// Activates the lowest-indexed non-active device and rebalances up to
    /// one slot-pool's worth of queued work onto it.
    fn scale_up(&mut self, now: f64, events: &mut FEventQueue<Ev>) {
        let Some(dev) =
            (0..self.lifecycle.len()).find(|&d| self.lifecycle[d] != DeviceLifecycle::Active)
        else {
            return;
        };
        // Re-activating a draining device simply cancels its drain; its
        // active interval never closed, so device-time stays correct.
        if self.active_since[dev].is_none() {
            self.active_since[dev] = Some(now);
        }
        self.lifecycle[dev] = DeviceLifecycle::Active;
        self.active_count += 1;
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: dev,
            dir: ScaleDir::Up,
            active: self.active_count,
        });
        for _ in 0..self.slots {
            let view = self.view();
            let Some(victim) = view.longest_active_queue() else {
                break;
            };
            if victim == dev {
                break;
            }
            let Some(i) = self.queues[victim].pop_back() else {
                break;
            };
            self.queues[dev].push_back(i);
        }
        self.try_admit(dev, now, events);
    }

    /// Starts draining the highest-indexed active device: it stops
    /// admitting, its queued requests re-route, and it parks when its
    /// in-flight kernels finish.
    fn scale_drain(&mut self, now: f64, events: &mut FEventQueue<Ev>) {
        let Some(dev) = (0..self.lifecycle.len())
            .rev()
            .find(|&d| self.lifecycle[d] == DeviceLifecycle::Active)
        else {
            return;
        };
        self.lifecycle[dev] = DeviceLifecycle::Draining;
        self.active_count -= 1;
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: dev,
            dir: ScaleDir::DrainStart,
            active: self.active_count,
        });
        let orphans: Vec<usize> = self.queues[dev].drain(..).collect();
        for i in orphans {
            let target = self.route(i);
            self.queues[target].push_back(i);
            self.try_admit(target, now, events);
        }
        self.finish_drain_if_idle(dev, now);
    }

    /// Parks a draining device once its last in-flight kernel finished,
    /// closing its device-time interval.
    fn finish_drain_if_idle(&mut self, dev: usize, now: f64) {
        if self.lifecycle[dev] != DeviceLifecycle::Draining || self.outstanding[dev] != 0 {
            return;
        }
        self.lifecycle[dev] = DeviceLifecycle::Drained;
        if let Some(since) = self.active_since[dev].take() {
            self.device_time_ns += now - since;
        }
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: dev,
            dir: ScaleDir::DrainDone,
            active: self.active_count,
        });
    }
}

/// The admission loop: routes each request at arrival through
/// `cfg.scheduler`, admits against live per-device slot pools, and (when
/// configured) lets the autoscaler grow and shrink the active set
/// mid-run. See the [module docs](self) for what off-home placement
/// requires of the workload.
pub(super) fn serve_loop<W: ServeWorkload + ?Sized>(
    backend: &mut ServeBackend,
    workload: &W,
    cfg: &ServeConfig,
    tenants: &[TenantSpec],
    requests: Vec<Request>,
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
    if let Some(auto_cfg) = &cfg.autoscale {
        auto_cfg.validate(ndev);
    }
    let clock = backend.clock();
    let slots = cfg.model.max_concurrent().min(cfg.device_slots).max(1);
    let n = requests.len();

    // Home device of each request: what the HdmRouter would pick (static
    // placement).
    let views: Vec<ReqView> = requests
        .iter()
        .map(|r| {
            let home = match &*backend {
                ServeBackend::Device(_) => 0,
                ServeBackend::Fleet(fleet) => {
                    let addr = workload.route_addr(r.key, ndev);
                    fleet
                        .router()
                        .device_of(addr)
                        .expect("workload routes inside the fleet HDM")
                }
            };
            ReqView {
                tenant: r.tenant,
                seq: r.seq,
                arrival_ns: r.arrival_ns,
                key: r.key,
                home,
                slo_ns: tenants[r.tenant as usize].slo_ns,
                priority: tenants[r.tenant as usize].priority,
            }
        })
        .collect();

    // An autoscaled fleet starts at min_devices and earns the rest;
    // without autoscaling every device is active for the whole run.
    let initial_active = cfg.autoscale.map_or(ndev, |a| a.min_devices);
    let mut lifecycle = vec![DeviceLifecycle::Active; ndev];
    let mut active_since = vec![Some(0.0); ndev];
    for d in initial_active..ndev {
        lifecycle[d] = DeviceLifecycle::Drained;
        active_since[d] = None;
    }

    let mut st = ServeLoop {
        backend,
        workload,
        requests: &requests,
        views,
        clock,
        mechanism: cfg.model.mechanism(),
        pre: cfg.model.pre_ns(),
        post: cfg.model.post_ns(),
        direct: cfg.model.mechanism() == OffloadMechanism::CxlIoDirect,
        slots,
        sched: cfg.scheduler.instantiate(),
        auto: cfg.autoscale.map(Autoscaler::new),
        queues: vec![VecDeque::new(); ndev],
        free: vec![slots; ndev],
        outstanding: vec![0; ndev],
        max_outstanding: vec![0; ndev],
        lifecycle,
        active_count: initial_active,
        active_since,
        device_time_ns: 0.0,
        launches: 0,
        completed: 0,
        records: Vec::with_capacity(n),
        scale_events: Vec::new(),
    };

    let mut events: FEventQueue<Ev> = FEventQueue::new();
    for (i, r) in requests.iter().enumerate() {
        events.schedule(r.arrival_ns, Ev::Arrive(i));
    }
    if let Some(auto) = &st.auto {
        events.schedule(auto.interval_ns(), Ev::Tick);
    }

    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::Arrive(i) => {
                let dev = st.route(i);
                st.queues[dev].push_back(i);
                st.try_admit(dev, now, &mut events);
            }
            Ev::SlotFree {
                dev,
                idx,
                latency_ns,
            } => {
                st.free[dev] += 1;
                st.outstanding[dev] -= 1;
                st.completed += 1;
                st.sched.on_complete(dev, &st.views[idx], latency_ns);
                if let Some(auto) = &mut st.auto {
                    auto.observe(latency_ns);
                }
                st.finish_drain_if_idle(dev, now);
                st.try_admit(dev, now, &mut events);
                st.maybe_steal(dev, now, &mut events);
            }
            Ev::Tick => {
                let view = st.view();
                st.sched.on_tick(now, &view);
                let decision = st
                    .auto
                    .as_mut()
                    .and_then(|auto| auto.decide(st.active_count));
                match decision {
                    Some(ScaleDecision::Up) => st.scale_up(now, &mut events),
                    Some(ScaleDecision::Drain) => st.scale_drain(now, &mut events),
                    None => {}
                }
                if st.completed < n {
                    if let Some(auto) = &st.auto {
                        events.schedule(now + auto.interval_ns(), Ev::Tick);
                    }
                }
            }
        }
    }
    assert_eq!(st.completed, n, "every request completes");

    // Close the still-open active intervals at the makespan.
    let makespan = st
        .records
        .iter()
        .map(|(_, r)| r.observed_ns)
        .fold(0.0f64, f64::max);
    for since in st.active_since.iter_mut() {
        if let Some(s) = since.take() {
            st.device_time_ns += makespan - s;
        }
    }

    let mut tagged = st.records;
    tagged.sort_by_key(|&(i, _)| i);
    let records: Vec<ReqRecord> = tagged.into_iter().map(|(_, r)| r).collect();
    let aux = RunAux {
        max_outstanding: st.max_outstanding,
        launches: st.launches,
        device_time_ns: st.device_time_ns,
        scale_events: st.scale_events,
    };
    finish_run(backend, cfg, tenants, records, aux)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(devs: &[(usize, u32, u32, DeviceLifecycle)]) -> FleetView {
        FleetView {
            devices: devs
                .iter()
                .map(
                    |&(queue_len, outstanding, free_slots, lifecycle)| DeviceView {
                        queue_len,
                        outstanding,
                        free_slots,
                        lifecycle,
                    },
                )
                .collect(),
        }
    }

    fn rv(tenant: u16, arrival_ns: f64, slo_ns: f64, priority: u8) -> ReqView {
        ReqView {
            tenant,
            seq: 0,
            arrival_ns,
            key: 0,
            home: 1,
            slo_ns,
            priority,
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for k in SchedulerKind::all() {
            assert_eq!(SchedulerKind::parse(k.name()), Some(k));
        }
        assert_eq!(SchedulerKind::parse("nope"), None);
    }

    #[test]
    fn shortest_queue_routes_least_loaded_active() {
        use DeviceLifecycle::*;
        let mut s = SchedulerKind::ShortestQueue.instantiate();
        // Device 0 is loaded, device 1 is parked, device 2 is idle.
        let v = view(&[(3, 2, 0, Active), (0, 0, 2, Drained), (0, 1, 1, Active)]);
        assert_eq!(s.route(&rv(0, 0.0, 5e3, 0), &v), 2);
        // Ties break to the lowest index.
        let v = view(&[(1, 1, 1, Active), (1, 1, 1, Active)]);
        assert_eq!(s.route(&rv(0, 0.0, 5e3, 0), &v), 0);
    }

    #[test]
    fn home_schedulers_route_home_even_when_loaded() {
        use DeviceLifecycle::*;
        let v = view(&[(0, 0, 2, Active), (9, 9, 0, Active)]);
        let mut s = SchedulerKind::StaticFifo.instantiate();
        assert_eq!(s.route(&rv(0, 0.0, 5e3, 0), &v), 1);
    }

    #[test]
    fn priority_slo_selects_by_priority_then_deadline() {
        let mut s = SchedulerKind::PrioritySlo.instantiate();
        let views = vec![
            rv(0, 100.0, 5_000.0, 1), // deadline 5100, low priority
            rv(1, 200.0, 1_000.0, 0), // deadline 1200, high priority
            rv(2, 0.0, 1_000.0, 0),   // deadline 1000, high priority
        ];
        let queue: VecDeque<usize> = VecDeque::from(vec![0, 1, 2]);
        // Highest priority (0) with the earliest deadline wins: index 2.
        assert_eq!(s.select(0, &queue, &views, 0.0), 2);
        // Equal specs fall back to queue order.
        let views = vec![rv(0, 5.0, 1_000.0, 0), rv(1, 5.0, 1_000.0, 0)];
        let queue: VecDeque<usize> = VecDeque::from(vec![0, 1]);
        assert_eq!(s.select(0, &queue, &views, 0.0), 0);
    }

    #[test]
    fn priority_slo_steals_from_longest_active_queue() {
        use DeviceLifecycle::*;
        let mut s = SchedulerKind::PrioritySlo.instantiate();
        let v = view(&[(0, 0, 2, Active), (4, 1, 0, Active), (7, 1, 0, Draining)]);
        // Device 2 has the longest queue but is draining; device 1 wins.
        assert_eq!(s.steal(0, &v), Some(1));
        // Nothing queued anywhere: no steal.
        let v = view(&[(0, 0, 2, Active), (0, 1, 0, Active)]);
        assert_eq!(s.steal(0, &v), None);
    }
}
