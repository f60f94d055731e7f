//! Request scheduling for the serving runtime, and the one admission loop
//! every serving run executes on.
//!
//! # The admission loop
//!
//! Every run, whatever its scheduler and whether or not it autoscales,
//! goes through one serial event loop (`serve_loop`): each request is
//! routed when it *arrives*, against the loop's live per-device state,
//! queued on its device, and admitted when that device has a free kernel
//! slot. Static placement ([`SchedulerKind::StaticFifo`]) routes every
//! request to its key's home device. The loop never reads `--jobs`, so a
//! run is deterministic at every setting of it.
//!
//! # What a scheduler kind decides
//!
//! A [`SchedulerKind`] makes three decisions: the device an arrival
//! queues on, the queued request a device with a free slot admits next,
//! and the device an idle device steals one queued request from. Each is
//! a function of the request's home device, priority and deadline and of
//! the loop's per-device queues, in-flight counts and lifecycle states,
//! and nothing else: no randomness, no clock, no map iteration order.
//! Every tie breaks explicitly, toward the lowest device index or the
//! earliest queue position.
//!
//! # Where service times come from
//!
//! The loop asks one seam, a closure, for each admitted request's switch
//! skew and kernel service time. [`super::run`] launches the kernel on
//! the device simulator and runs it to completion; [`super::replay`]
//! looks the time up in a measured list. Everything else (routing,
//! admission, the mechanism's pre and post phases, slot release) is the
//! same code for both.
//!
//! # Data-placement requirement
//!
//! Anything that can place a request off its home device — load-aware
//! routing, work stealing, draining a device that owns data — requires a
//! workload that can serve any key on any device
//! ([`ServeWorkload::replicated`](super::ServeWorkload::replicated)).
//! [`super::run`] enforces this up front with a panic rather than letting
//! functional verification fail halfway through a run.

use std::cmp::Reverse;
use std::collections::VecDeque;

use m2ndp_sim::FEventQueue;

use crate::offload::OffloadMechanism;

use super::autoscale::{Autoscaler, ScaleDecision, ScaleEvent};
use super::report::{ReqRecord, RunAux};
use super::{Request, ServeConfig, TenantSpec};
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

    /// The device `req` queues on at arrival: its home device, or the
    /// least-loaded active one. A home pick may be parked, draining, or
    /// out of range; [`ServeLoop::route`] re-routes such picks.
    fn route(self, req: &ReqView, devs: &[Dev]) -> usize {
        match self {
            SchedulerKind::StaticFifo => req.home,
            SchedulerKind::ShortestQueue | SchedulerKind::PrioritySlo => shortest_active(devs),
        }
    }

    /// The position in `queue` (whose entries index into `views`) that a
    /// device admits next: the FIFO front, or for
    /// [`SchedulerKind::PrioritySlo`] the lowest `(priority, deadline)`,
    /// ties to the earlier position.
    fn select(self, queue: &VecDeque<usize>, views: &[ReqView]) -> usize {
        match self {
            SchedulerKind::StaticFifo | SchedulerKind::ShortestQueue => 0,
            SchedulerKind::PrioritySlo => (0..queue.len())
                .min_by(|&a, &b| {
                    let (a, b) = (&views[queue[a]], &views[queue[b]]);
                    a.priority
                        .cmp(&b.priority)
                        .then(a.deadline_ns.total_cmp(&b.deadline_ns))
                })
                .unwrap_or(0),
        }
    }

    /// The device an active device with a free slot and an empty queue
    /// steals one queued request from: for [`SchedulerKind::PrioritySlo`]
    /// the longest active queue, for the other kinds none.
    fn steal(self, devs: &[Dev]) -> Option<usize> {
        match self {
            SchedulerKind::PrioritySlo => longest_active_queue(devs),
            SchedulerKind::StaticFifo | SchedulerKind::ShortestQueue => None,
        }
    }
}

/// What the policy reads of one request. Built once per run from the
/// generated [`Request`]s and the tenant specs.
#[derive(Debug, Clone, Copy)]
struct ReqView {
    /// The key's home device (where the `HdmRouter` would place it).
    home: usize,
    /// The tenant's priority (0 = highest).
    priority: u8,
    /// Arrival time plus the tenant's latency SLO (ns).
    deadline_ns: f64,
}

/// Where a device sits in the autoscaler's add/drain lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceLifecycle {
    /// Accepting new work.
    Active,
    /// Stopped admitting; in-flight kernels are finishing.
    Draining,
    /// Parked: no queue, no outstanding work. A later scale-up may
    /// re-activate it.
    Drained,
}

/// One device's admission state in the loop.
#[derive(Debug, Clone)]
struct Dev {
    /// Queued requests (indices into the run's requests), oldest first.
    queue: VecDeque<usize>,
    /// Kernels in flight; the device's free slots are the loop's `slots`
    /// minus these.
    outstanding: u32,
    /// Peak of `outstanding` over the run.
    max_outstanding: u32,
    lifecycle: DeviceLifecycle,
    /// Start of the current active interval (`None` = parked).
    active_since: Option<f64>,
}

impl Dev {
    fn is_active(&self) -> bool {
        self.lifecycle == DeviceLifecycle::Active
    }

    /// Queued plus in-flight requests: the load least-loaded routing
    /// balances.
    fn load(&self) -> usize {
        self.queue.len() + self.outstanding as usize
    }
}

/// The active device with the least load, ties to the lowest index.
///
/// # Panics
/// Panics if no device is active; the autoscaler never drains below one.
fn shortest_active(devs: &[Dev]) -> usize {
    devs.iter()
        .enumerate()
        .filter(|(_, d)| d.is_active())
        .min_by_key(|&(i, d)| (d.load(), i))
        .map(|(i, _)| i)
        .expect("fleet has at least one active device")
}

/// The active device with the longest non-empty queue, ties to the lowest
/// index.
fn longest_active_queue(devs: &[Dev]) -> Option<usize> {
    devs.iter()
        .enumerate()
        .filter(|(_, d)| d.is_active() && !d.queue.is_empty())
        .max_by_key(|&(i, d)| (d.queue.len(), Reverse(i)))
        .map(|(i, _)| i)
}

/// Events of the admission loop. Arrivals are all pre-scheduled before
/// the loop starts, so at equal times arrivals come before completions,
/// and each kind keeps its insertion order.
enum Ev {
    /// Request `i` (global arrival index) arrives.
    Arrive(usize),
    /// A kernel slot frees on a device; carries the finished request's
    /// end-to-end latency for the autoscaler.
    SlotFree { dev: usize, latency_ns: f64 },
    /// Autoscaler evaluation tick.
    Tick,
}

/// All mutable state of the admission loop, so the event handlers can be
/// methods instead of a closure tangle. `S` is the service-time seam: it
/// maps an admitted request's global arrival index, the request, its
/// device and the admission time (ns) to the launch store's switch skew
/// and the kernel's service time (both ns).
struct ServeLoop<'a, S> {
    serve: S,
    requests: &'a [Request],
    views: Vec<ReqView>,
    pre: f64,
    post: f64,
    direct: bool,
    slots: u32,
    kind: SchedulerKind,
    auto: Option<Autoscaler>,
    devs: Vec<Dev>,
    active_count: usize,
    /// Closed active intervals, integrated (ns).
    device_time_ns: f64,
    completed: usize,
    records: Vec<(usize, ReqRecord)>,
    scale_events: Vec<ScaleEvent>,
}

impl<'a, S: FnMut(usize, &Request, usize, f64) -> (f64, f64)> ServeLoop<'a, S> {
    /// The loop's state before its first event: each request's home
    /// device from `homes`, and every one of the `devices` idle. An
    /// autoscaled fleet starts with its `min_devices` active and the rest
    /// parked; without autoscaling every device is active for the whole
    /// run.
    fn new(
        devices: usize,
        homes: &[usize],
        cfg: &ServeConfig,
        tenants: &[TenantSpec],
        requests: &'a [Request],
        serve: S,
    ) -> Self {
        let views = requests
            .iter()
            .zip(homes)
            .map(|(r, &home)| {
                let tenant = &tenants[r.tenant as usize];
                ReqView {
                    home,
                    priority: tenant.priority,
                    deadline_ns: r.arrival_ns + tenant.slo_ns,
                }
            })
            .collect();
        let slots = cfg.model.max_concurrent().min(cfg.device_slots).max(1);
        let initial_active = cfg.autoscale.map_or(devices, |a| a.min_devices);
        let devs = (0..devices)
            .map(|d| {
                let active = d < initial_active;
                Dev {
                    queue: VecDeque::new(),
                    outstanding: 0,
                    max_outstanding: 0,
                    lifecycle: if active {
                        DeviceLifecycle::Active
                    } else {
                        DeviceLifecycle::Drained
                    },
                    active_since: active.then_some(0.0),
                }
            })
            .collect();
        Self {
            serve,
            requests,
            views,
            pre: cfg.model.pre_ns(),
            post: cfg.model.post_ns(),
            direct: cfg.model.mechanism() == OffloadMechanism::CxlIoDirect,
            slots,
            kind: cfg.scheduler,
            auto: cfg.autoscale.map(Autoscaler::new),
            devs,
            active_count: initial_active,
            device_time_ns: 0.0,
            completed: 0,
            records: Vec::with_capacity(requests.len()),
            scale_events: Vec::new(),
        }
    }

    /// Routes request `i` through the scheduler, falling back to the
    /// least-loaded active device when the policy picks a device that is
    /// parked, draining, or out of range.
    fn route(&self, i: usize) -> usize {
        let dev = self.kind.route(&self.views[i], &self.devs);
        if self.devs.get(dev).is_some_and(Dev::is_active) {
            dev
        } else {
            shortest_active(&self.devs)
        }
    }

    /// Admits from device `dev`'s queue while it has free slots, taking
    /// each admitted request's service time from the seam.
    fn try_admit(&mut self, dev: usize, now: f64, events: &mut FEventQueue<Ev>) {
        while self.devs[dev].outstanding < self.slots && !self.devs[dev].queue.is_empty() {
            let d = &mut self.devs[dev];
            let pos = self.kind.select(&d.queue, &self.views);
            let i = d
                .queue
                .remove(pos)
                .expect("select returned a position inside the queue");
            d.outstanding += 1;
            d.max_outstanding = d.max_outstanding.max(d.outstanding);
            let req = self.requests[i];
            let (switch_skew_ns, service_ns) = (self.serve)(i, &req, dev, now);

            let start = now + switch_skew_ns + self.pre;
            let kernel_done = start + service_ns;
            let observed = kernel_done + self.post;
            let slot_free_at = if self.direct { observed } else { kernel_done };
            events.schedule(
                slot_free_at,
                Ev::SlotFree {
                    dev,
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
        let d = &self.devs[dev];
        if !d.is_active() || d.outstanding == self.slots || !d.queue.is_empty() {
            return;
        }
        // The victim's queue is non-empty, so the victim is not `dev`.
        let Some(victim) = self.kind.steal(&self.devs) else {
            return;
        };
        let i = self.devs[victim]
            .queue
            .pop_back()
            .expect("steal picks a non-empty queue");
        self.devs[dev].queue.push_back(i);
        self.try_admit(dev, now, events);
    }

    /// Activates the lowest-indexed non-active device and rebalances up to
    /// one slot-pool's worth of queued work onto it.
    fn scale_up(&mut self, now: f64, events: &mut FEventQueue<Ev>) {
        let Some(dev) = self.devs.iter().position(|d| !d.is_active()) else {
            return;
        };
        // Re-activating a draining device simply cancels its drain; its
        // active interval never closed, so device-time stays correct.
        let d = &mut self.devs[dev];
        d.active_since.get_or_insert(now);
        d.lifecycle = DeviceLifecycle::Active;
        self.active_count += 1;
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: dev,
            dir: ScaleDir::Up,
            active: self.active_count,
        });
        for _ in 0..self.slots {
            let Some(victim) = longest_active_queue(&self.devs) else {
                break;
            };
            if victim == dev {
                break;
            }
            let i = self.devs[victim]
                .queue
                .pop_back()
                .expect("the longest queue is non-empty");
            self.devs[dev].queue.push_back(i);
        }
        self.try_admit(dev, now, events);
    }

    /// Starts draining the highest-indexed active device: it stops
    /// admitting, its queued requests re-route, and it parks when its
    /// in-flight kernels finish.
    fn scale_drain(&mut self, now: f64, events: &mut FEventQueue<Ev>) {
        let Some(dev) = self.devs.iter().rposition(Dev::is_active) else {
            return;
        };
        self.devs[dev].lifecycle = DeviceLifecycle::Draining;
        self.active_count -= 1;
        self.scale_events.push(ScaleEvent {
            t_ns: now,
            device: dev,
            dir: ScaleDir::DrainStart,
            active: self.active_count,
        });
        for i in std::mem::take(&mut self.devs[dev].queue) {
            let target = self.route(i);
            self.devs[target].queue.push_back(i);
            self.try_admit(target, now, events);
        }
        self.finish_drain_if_idle(dev, now);
    }

    /// Parks a draining device once its last in-flight kernel finished,
    /// closing its device-time interval.
    fn finish_drain_if_idle(&mut self, dev: usize, now: f64) {
        let d = &mut self.devs[dev];
        if d.lifecycle != DeviceLifecycle::Draining || d.outstanding != 0 {
            return;
        }
        d.lifecycle = DeviceLifecycle::Drained;
        if let Some(since) = d.active_since.take() {
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
/// mid-run. `requests` are in global arrival order, `homes[i]` is request
/// `i`'s home device among `devices`, and `serve` is the service-time
/// seam (see `ServeLoop`). Returns the records in arrival order and the
/// loop's own counters.
pub(super) fn serve_loop(
    devices: usize,
    homes: &[usize],
    cfg: &ServeConfig,
    tenants: &[TenantSpec],
    requests: &[Request],
    serve: impl FnMut(usize, &Request, usize, f64) -> (f64, f64),
) -> (Vec<ReqRecord>, RunAux) {
    if let Some(auto_cfg) = &cfg.autoscale {
        auto_cfg.validate(devices);
    }
    let n = requests.len();
    let mut st = ServeLoop::new(devices, homes, cfg, tenants, requests, serve);

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
                st.devs[dev].queue.push_back(i);
                st.try_admit(dev, now, &mut events);
            }
            Ev::SlotFree { dev, latency_ns } => {
                st.devs[dev].outstanding -= 1;
                st.completed += 1;
                if let Some(auto) = &mut st.auto {
                    auto.observe(latency_ns);
                }
                st.finish_drain_if_idle(dev, now);
                st.try_admit(dev, now, &mut events);
                st.maybe_steal(dev, now, &mut events);
            }
            Ev::Tick => {
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
    for d in &mut st.devs {
        if let Some(s) = d.active_since.take() {
            st.device_time_ns += makespan - s;
        }
    }

    let mut tagged = st.records;
    tagged.sort_by_key(|&(i, _)| i);
    let records: Vec<ReqRecord> = tagged.into_iter().map(|(_, r)| r).collect();
    let aux = RunAux {
        max_outstanding: st.devs.iter().map(|d| d.max_outstanding).collect(),
        device_time_ns: st.device_time_ns,
        scale_events: st.scale_events,
    };
    (records, aux)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop device record with a `queue_len`-entry queue.
    fn dev(queue_len: usize, outstanding: u32, lifecycle: DeviceLifecycle) -> Dev {
        Dev {
            queue: (0..queue_len).collect(),
            outstanding,
            max_outstanding: outstanding,
            lifecycle,
            active_since: None,
        }
    }

    /// Device records from `(queue_len, outstanding, lifecycle)`.
    fn devs(states: &[(usize, u32, DeviceLifecycle)]) -> Vec<Dev> {
        states
            .iter()
            .map(|&(queue_len, outstanding, lifecycle)| dev(queue_len, outstanding, lifecycle))
            .collect()
    }

    fn rv(arrival_ns: f64, slo_ns: f64, priority: u8) -> ReqView {
        ReqView {
            home: 1,
            priority,
            deadline_ns: arrival_ns + slo_ns,
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
        let k = SchedulerKind::ShortestQueue;
        // Device 0 is loaded, device 1 is parked, device 2 is idle.
        let d = devs(&[(3, 2, Active), (0, 0, Drained), (0, 1, Active)]);
        assert_eq!(k.route(&rv(0.0, 5e3, 0), &d), 2);
        // Ties break to the lowest index.
        let d = devs(&[(1, 1, Active), (1, 1, Active)]);
        assert_eq!(k.route(&rv(0.0, 5e3, 0), &d), 0);
    }

    #[test]
    fn home_schedulers_route_home_even_when_loaded() {
        use DeviceLifecycle::*;
        let d = devs(&[(0, 0, Active), (9, 9, Active)]);
        assert_eq!(SchedulerKind::StaticFifo.route(&rv(0.0, 5e3, 0), &d), 1);
    }

    #[test]
    fn priority_slo_selects_by_priority_then_deadline() {
        let k = SchedulerKind::PrioritySlo;
        let views = vec![
            rv(100.0, 5_000.0, 1), // deadline 5100, low priority
            rv(200.0, 1_000.0, 0), // deadline 1200, high priority
            rv(0.0, 1_000.0, 0),   // deadline 1000, high priority
        ];
        let queue: VecDeque<usize> = VecDeque::from(vec![0, 1, 2]);
        // Highest priority (0) with the earliest deadline wins: index 2.
        assert_eq!(k.select(&queue, &views), 2);
        // Equal specs fall back to queue order.
        let views = vec![rv(5.0, 1_000.0, 0), rv(5.0, 1_000.0, 0)];
        let queue: VecDeque<usize> = VecDeque::from(vec![0, 1]);
        assert_eq!(k.select(&queue, &views), 0);
    }

    #[test]
    fn priority_slo_steals_from_longest_active_queue() {
        use DeviceLifecycle::*;
        let k = SchedulerKind::PrioritySlo;
        let d = devs(&[(0, 0, Active), (4, 1, Active), (7, 1, Draining)]);
        // Device 2 has the longest queue but is draining; device 1 wins.
        assert_eq!(k.steal(&d), Some(1));
        // Nothing queued anywhere: no steal.
        let d = devs(&[(0, 0, Active), (0, 1, Active)]);
        assert_eq!(k.steal(&d), None);
    }

    /// The loop re-routes a pick that is draining, drained or out of
    /// range to the least-loaded active device, ties to the lowest index,
    /// and keeps an active pick however loaded it is.
    #[test]
    fn loop_reroutes_picks_outside_the_active_set_to_the_least_loaded_active() {
        use DeviceLifecycle::*;
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let tenants = [TenantSpec::poisson("t", 1e6)];
        let requests = [Request {
            tenant: 0,
            seq: 0,
            arrival_ns: 0.0,
            key: 0,
        }];
        let mut st = ServeLoop::new(5, &[0], &cfg, &tenants, &requests, |_, _, _, _| {
            unreachable!("nothing is admitted")
        });
        // Devices 3 and 4 tie on the least active load.
        st.devs = devs(&[
            (0, 0, Draining),
            (2, 1, Active),
            (0, 0, Drained),
            (1, 0, Active),
            (0, 1, Active),
        ]);
        for home in [0, 2, 5, 9] {
            st.views[0].home = home;
            assert_eq!(st.route(0), 3, "home {home}");
        }
        st.views[0].home = 1;
        assert_eq!(st.route(0), 1);
    }

    proptest::proptest! {
        /// Each decision is the least candidate under its kind's order:
        /// `route` the active device with the least `(load, index)`,
        /// `steal` the active non-empty queue with the greatest `(length,
        /// lowest index)` or none, and `select` the queue position with
        /// the least `(priority, deadline, position)`. The ranges are
        /// small so that loads, queue lengths, priorities and deadlines
        /// tie often.
        #[test]
        fn kind_decisions_are_least_under_their_tie_breaks(
            states in proptest::collection::vec((0usize..4, 0u32..4, 0u8..3), 1..7),
            reqs in proptest::collection::vec((0u8..3, 0u32..4, 0u32..3), 1..9),
            home in 0usize..8,
        ) {
            use SchedulerKind::*;
            let devs: Vec<Dev> = states
                .iter()
                .map(|&(q, out, life)| {
                    use DeviceLifecycle::*;
                    dev(q, out, [Active, Draining, Drained][life as usize])
                })
                .collect();
            let views: Vec<ReqView> = reqs
                .iter()
                .map(|&(prio, arrival, slo)| {
                    rv(f64::from(arrival) * 100.0, f64::from(slo) * 100.0, prio)
                })
                .collect();
            // Queue positions differ from view indices.
            let queue: VecDeque<usize> = (0..views.len()).rev().collect();
            let req = ReqView { home, ..views[0] };
            let active: Vec<usize> = (0..devs.len()).filter(|&i| devs[i].is_active()).collect();

            proptest::prop_assert_eq!(StaticFifo.route(&req, &devs), home);
            if !active.is_empty() {
                let pick = ShortestQueue.route(&req, &devs);
                proptest::prop_assert!(devs[pick].is_active());
                for &i in &active {
                    proptest::prop_assert!((devs[pick].load(), pick) <= (devs[i].load(), i));
                }
                proptest::prop_assert_eq!(PrioritySlo.route(&req, &devs), pick);
            }

            proptest::prop_assert_eq!(StaticFifo.steal(&devs), None);
            proptest::prop_assert_eq!(ShortestQueue.steal(&devs), None);
            let queued: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| !devs[i].queue.is_empty())
                .collect();
            match PrioritySlo.steal(&devs) {
                None => proptest::prop_assert!(queued.is_empty()),
                Some(v) => {
                    proptest::prop_assert!(queued.contains(&v));
                    for &i in &queued {
                        proptest::prop_assert!(
                            (devs[v].queue.len(), Reverse(v)) >= (devs[i].queue.len(), Reverse(i))
                        );
                    }
                }
            }

            proptest::prop_assert_eq!(StaticFifo.select(&queue, &views), 0);
            proptest::prop_assert_eq!(ShortestQueue.select(&queue, &views), 0);
            let key = |p: usize| {
                let v = &views[queue[p]];
                (v.priority, v.deadline_ns, p)
            };
            let pick = PrioritySlo.select(&queue, &views);
            for p in 0..queue.len() {
                proptest::prop_assert!(key(pick) <= key(p));
            }
        }
    }
}
