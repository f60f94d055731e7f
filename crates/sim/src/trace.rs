//! Opt-in structured tracing: typed timeline events, pluggable sinks, and
//! Chrome trace-event (Perfetto-loadable) export.
//!
//! The simulators can answer "what did device 3's sub-core 2 do at
//! ns 41,200" internally; this module is the API that exposes it. Every
//! instrumented model holds a [`Tracer`] handle — by default **off**
//! ([`Tracer::off`]), in which case each emit site is a single branch on an
//! `Option` and constructs nothing, so an untraced run is behaviorally and
//! output-byte identical to a build without the instrumentation. Turning
//! tracing on attaches a [`TraceSink`] (usually the buffering [`JsonSink`])
//! and the same sites start recording [`TraceEvent`]s.
//!
//! ## Event taxonomy
//!
//! Events are typed ([`EventKind`]), stamped with an `f64` nanosecond
//! timestamp, and attributed to a `(device, lane)` coordinate ([`Lane`]):
//!
//! * **Kernel lifecycle** — [`EventKind::KernelLaunch`] the instant a
//!   launch is accepted, [`EventKind::KernelRun`] the retire-time span
//!   covering the instance's whole residence;
//! * **µthread waves** — [`EventKind::WaveSpawn`] / [`EventKind::WaveDrain`]
//!   as the engine maps pool granules onto µthread slots and drains them;
//! * **Memory side** — [`EventKind::L2Access`] / [`EventKind::L2Evict`] per
//!   sectored-cache outcome, [`EventKind::DramTxn`] per completed DRAM
//!   transaction on its channel lane;
//! * **Fabric** — [`EventKind::SwitchHop`] for launch stores crossing the
//!   CXL switch (host port → device port);
//! * **Serving** — [`EventKind::ReqPhase`] spans decomposing each served
//!   request into queue → launch → execute → link phases that sum exactly
//!   to its end-to-end latency;
//! * **Scheduling** — [`EventKind::Route`] instants marking where a
//!   dynamic scheduler placed each request, and [`EventKind::Scale`]
//!   instants marking the autoscaler's device lifecycle transitions
//!   (activate → drain start → drain done).
//!
//! ## Clock domains
//!
//! Device-internal events (kernel, wave, L2, DRAM) are stamped in
//! *device-local* nanoseconds (each device simulator starts at cycle 0);
//! serve-level events (request phases, switch hops) are stamped on the
//! serving run's global wall clock. The exporter keeps each device in its
//! own trace process, so the two domains never share a lane.
//!
//! ## Determinism
//!
//! Sinks are per-device (one [`JsonSink`] attached to each device shard),
//! so shard-parallel execution emits into disjoint buffers that the owner
//! merges back in device-index order — the exported trace is byte-identical
//! at any worker count, the same contract the figure sweep holds for
//! `BENCH_RESULTS.json`.

use crate::json::Json;

/// Where on a device (or on the serving timeline) an event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The NDP controller (kernel lifecycle events).
    Controller,
    /// An NDP unit / sub-core (µthread wave events), by unit index.
    Unit(u16),
    /// A memory-side L2 slice, by slice index.
    L2Slice(u16),
    /// An internal DRAM channel, by channel index.
    DramChannel(u16),
    /// A CXL switch port, by downstream port index.
    SwitchPort(u16),
    /// A serving tenant's request stream, by tenant index.
    Tenant(u16),
}

impl Lane {
    /// Stable small integer used as the trace `tid` (unique per lane within
    /// a device).
    pub fn tid(self) -> u64 {
        match self {
            Lane::Controller => 0,
            Lane::Unit(u) => 100 + u64::from(u),
            Lane::L2Slice(s) => 200 + u64::from(s),
            Lane::DramChannel(c) => 300 + u64::from(c),
            Lane::SwitchPort(p) => 400 + u64::from(p),
            Lane::Tenant(t) => 500 + u64::from(t),
        }
    }

    /// Human-readable lane name (trace thread name).
    pub fn name(self) -> String {
        match self {
            Lane::Controller => "controller".to_string(),
            Lane::Unit(u) => format!("unit {u}"),
            Lane::L2Slice(s) => format!("l2 slice {s}"),
            Lane::DramChannel(c) => format!("dram ch {c}"),
            Lane::SwitchPort(p) => format!("switch port {p}"),
            Lane::Tenant(t) => format!("tenant {t}"),
        }
    }
}

/// A served request's latency phase (the fig. 5 decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqPhase {
    /// Arrival → admission into a kernel slot.
    Queue,
    /// Admission → kernel start (mechanism pre-launch + switch skew).
    Launch,
    /// Kernel start → kernel completion on the device simulator.
    Execute,
    /// Kernel completion → host observation (mechanism post/return path).
    Link,
}

impl ReqPhase {
    /// All phases in timeline order.
    pub const ALL: [ReqPhase; 4] = [
        ReqPhase::Queue,
        ReqPhase::Launch,
        ReqPhase::Execute,
        ReqPhase::Link,
    ];

    /// Stable lowercase name (used in trace event names and CLI tables).
    pub fn name(self) -> &'static str {
        match self {
            ReqPhase::Queue => "queue",
            ReqPhase::Launch => "launch",
            ReqPhase::Execute => "execute",
            ReqPhase::Link => "link",
        }
    }
}

/// Which way an elastic-fleet scale event moved (see [`EventKind::Scale`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDir {
    /// A parked device was (re-)activated.
    Up,
    /// A device stopped admitting and began finishing in-flight work.
    DrainStart,
    /// A draining device went idle and parked.
    DrainDone,
}

impl ScaleDir {
    /// Stable lowercase name (trace event name and CLI tables).
    pub fn name(self) -> &'static str {
        match self {
            ScaleDir::Up => "scale up",
            ScaleDir::DrainStart => "drain start",
            ScaleDir::DrainDone => "drain done",
        }
    }
}

/// What happened. Span-shaped kinds carry their duration; the rest are
/// instants.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A kernel launch was accepted by the NDP controller.
    KernelLaunch {
        /// Kernel instance id.
        instance: u32,
        /// Registered kernel id.
        kernel: u32,
        /// Kernel name from the registry (reporting only).
        name: String,
    },
    /// A kernel instance retired; the span covers launch → retire.
    KernelRun {
        /// Kernel instance id.
        instance: u32,
        /// Registered kernel id.
        kernel: u32,
        /// Kernel name from the registry (reporting only).
        name: String,
        /// Residence time (ns).
        dur_ns: f64,
    },
    /// The engine mapped a wave of µthread contexts onto slots.
    WaveSpawn {
        /// Kernel instance the wave belongs to.
        instance: u32,
        /// Contexts spawned this cycle.
        count: u32,
    },
    /// A kernel instance's outstanding µthreads drained to zero (iteration
    /// barrier or completion).
    WaveDrain {
        /// Kernel instance that drained.
        instance: u32,
    },
    /// One memory-side L2 access was resolved.
    L2Access {
        /// Whether it hit (hits include write-forwards; misses include
        /// merged misses).
        hit: bool,
        /// The accessed address.
        addr: u64,
    },
    /// An L2 victim was written back toward DRAM.
    L2Evict {
        /// Writeback base address.
        addr: u64,
        /// Dirty bytes written back.
        bytes: u32,
    },
    /// A DRAM transaction completed on its channel.
    DramTxn {
        /// Transaction bytes.
        bytes: u32,
        /// Write (true) or read (false).
        write: bool,
    },
    /// A launch store crossed the CXL switch to a device port.
    SwitchHop {
        /// Destination device / downstream port.
        dst: u16,
        /// Payload bytes charged on the port gates.
        bytes: u32,
        /// Traversal time (ns) on the serving wall clock.
        dur_ns: f64,
    },
    /// One phase of a served request (serving wall clock).
    ReqPhase {
        /// Issuing tenant index.
        tenant: u16,
        /// Per-tenant sequence number.
        seq: u64,
        /// Which phase.
        phase: ReqPhase,
        /// Phase duration (ns); the four phases of a request sum exactly to
        /// its end-to-end latency.
        dur_ns: f64,
    },
    /// A scheduler placed a request on a device (serving wall clock;
    /// emitted by dynamic schedulers, whose placement is a decision rather
    /// than a pure function of the key).
    Route {
        /// Issuing tenant index.
        tenant: u16,
        /// Per-tenant sequence number.
        seq: u64,
        /// Device the request was routed to.
        dst: u16,
    },
    /// The autoscaler changed a device's lifecycle state (serving wall
    /// clock).
    Scale {
        /// The device whose lifecycle changed.
        device: u16,
        /// Which way.
        dir: ScaleDir,
        /// Active devices after the change.
        active: u32,
    },
}

impl EventKind {
    /// The trace event name.
    pub fn name(&self) -> String {
        match self {
            EventKind::KernelLaunch { name, .. } => format!("launch {name}"),
            EventKind::KernelRun { name, .. } => format!("kernel {name}"),
            EventKind::WaveSpawn { .. } => "wave spawn".to_string(),
            EventKind::WaveDrain { .. } => "wave drain".to_string(),
            EventKind::L2Access { hit: true, .. } => "l2 hit".to_string(),
            EventKind::L2Access { hit: false, .. } => "l2 miss".to_string(),
            EventKind::L2Evict { .. } => "l2 evict".to_string(),
            EventKind::DramTxn { write: true, .. } => "dram write".to_string(),
            EventKind::DramTxn { write: false, .. } => "dram read".to_string(),
            EventKind::SwitchHop { .. } => "switch hop".to_string(),
            EventKind::ReqPhase { phase, .. } => phase.name().to_string(),
            EventKind::Route { .. } => "route".to_string(),
            EventKind::Scale { dir, .. } => dir.name().to_string(),
        }
    }

    /// The trace category (`cat` field; one per taxonomy family).
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::KernelLaunch { .. } | EventKind::KernelRun { .. } => "kernel",
            EventKind::WaveSpawn { .. } | EventKind::WaveDrain { .. } => "wave",
            EventKind::L2Access { .. } | EventKind::L2Evict { .. } => "l2",
            EventKind::DramTxn { .. } => "dram",
            EventKind::SwitchHop { .. } => "switch",
            EventKind::ReqPhase { .. } => "serve",
            EventKind::Route { .. } | EventKind::Scale { .. } => "sched",
        }
    }

    /// Span duration in ns (`None` for instants).
    pub fn dur_ns(&self) -> Option<f64> {
        match self {
            EventKind::KernelRun { dur_ns, .. }
            | EventKind::SwitchHop { dur_ns, .. }
            | EventKind::ReqPhase { dur_ns, .. } => Some(*dur_ns),
            _ => None,
        }
    }

    /// The typed payload as deterministic JSON (`args` in the export).
    pub fn args_json(&self) -> Json {
        match self {
            EventKind::KernelLaunch {
                instance, kernel, ..
            }
            | EventKind::KernelRun {
                instance, kernel, ..
            } => Json::Obj(vec![
                ("instance".to_string(), Json::U64(u64::from(*instance))),
                ("kernel".to_string(), Json::U64(u64::from(*kernel))),
            ]),
            EventKind::WaveSpawn { instance, count } => Json::Obj(vec![
                ("instance".to_string(), Json::U64(u64::from(*instance))),
                ("count".to_string(), Json::U64(u64::from(*count))),
            ]),
            EventKind::WaveDrain { instance } => Json::Obj(vec![(
                "instance".to_string(),
                Json::U64(u64::from(*instance)),
            )]),
            EventKind::L2Access { addr, .. } => {
                Json::Obj(vec![("addr".to_string(), Json::U64(*addr))])
            }
            EventKind::L2Evict { addr, bytes } => Json::Obj(vec![
                ("addr".to_string(), Json::U64(*addr)),
                ("bytes".to_string(), Json::U64(u64::from(*bytes))),
            ]),
            EventKind::DramTxn { bytes, .. } => {
                Json::Obj(vec![("bytes".to_string(), Json::U64(u64::from(*bytes)))])
            }
            EventKind::SwitchHop { dst, bytes, .. } => Json::Obj(vec![
                ("dst".to_string(), Json::U64(u64::from(*dst))),
                ("bytes".to_string(), Json::U64(u64::from(*bytes))),
            ]),
            EventKind::ReqPhase { tenant, seq, .. } => Json::Obj(vec![
                ("tenant".to_string(), Json::U64(u64::from(*tenant))),
                ("seq".to_string(), Json::U64(*seq)),
            ]),
            EventKind::Route { tenant, seq, dst } => Json::Obj(vec![
                ("tenant".to_string(), Json::U64(u64::from(*tenant))),
                ("seq".to_string(), Json::U64(*seq)),
                ("dst".to_string(), Json::U64(u64::from(*dst))),
            ]),
            EventKind::Scale { device, active, .. } => Json::Obj(vec![
                ("device".to_string(), Json::U64(u64::from(*device))),
                ("active".to_string(), Json::U64(u64::from(*active))),
            ]),
        }
    }
}

/// One timeline event: when, where, what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Start timestamp (ns) in the emitting model's clock domain (see the
    /// module docs on clock domains).
    pub ts_ns: f64,
    /// Owning device index (trace `pid`).
    pub device: u32,
    /// Lane within the device (trace `tid`).
    pub lane: Lane,
    /// The typed payload.
    pub kind: EventKind,
}

/// Where emitted events go. Implementations must be cheap to call; the
/// buffering [`JsonSink`] just pushes into a `Vec`.
pub trait TraceSink: Send + std::fmt::Debug {
    /// Receives one event.
    fn emit(&mut self, ev: TraceEvent);

    /// Drains the buffered events out of the sink (empty for sinks that
    /// forward rather than buffer).
    fn take_events(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The buffering sink behind JSON export: records every event in emission
/// order (deterministic, since the simulators are).
#[derive(Debug, Default)]
pub struct JsonSink {
    events: Vec<TraceEvent>,
}

impl JsonSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for JsonSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The handle instrumented models hold. `Tracer::off()` (the default) makes
/// every [`Tracer::emit`] a single `Option` branch that constructs nothing —
/// the zero-cost contract that keeps untraced runs byte-identical.
#[derive(Debug, Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
}

impl Tracer {
    /// Tracing off (the default everywhere).
    pub fn off() -> Self {
        Self::default()
    }

    /// Tracing into `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `f` — `f` only runs when tracing is on.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.emit(f());
        }
    }

    /// Detaches the sink and drains its buffered events (off afterwards).
    pub fn finish(&mut self) -> Vec<TraceEvent> {
        self.sink
            .take()
            .map_or_else(Vec::new, |mut s| s.take_events())
    }
}

/// Chrome trace-event JSON (the object form Perfetto and `chrome://tracing`
/// load): `traceEvents` carries one `X` (complete-span) or `i` (instant)
/// entry per [`TraceEvent`] plus `M` metadata naming each device process
/// and lane thread; `otherData` carries the run metadata (e.g. per-kernel
/// disassembly for instruction-level annotation of kernel spans).
///
/// Timestamps are microseconds in this format; nanosecond floats divide by
/// 1000 and round-trip deterministically through the shortest-float writer.
pub fn chrome_trace_json(events: &[TraceEvent], other_data: Vec<(String, Json)>) -> Json {
    let mut entries: Vec<Json> = Vec::new();
    // Name every (device, lane) coordinate that appears, in first-appearance
    // order (deterministic given deterministic event order).
    let mut seen_dev: Vec<u32> = Vec::new();
    let mut seen_lane: Vec<(u32, Lane)> = Vec::new();
    for ev in events {
        if !seen_dev.contains(&ev.device) {
            seen_dev.push(ev.device);
            entries.push(metadata_event(
                "process_name",
                ev.device,
                None,
                format!("device {}", ev.device),
            ));
        }
        if !seen_lane.contains(&(ev.device, ev.lane)) {
            seen_lane.push((ev.device, ev.lane));
            entries.push(metadata_event(
                "thread_name",
                ev.device,
                Some(ev.lane.tid()),
                ev.lane.name(),
            ));
        }
    }
    for ev in events {
        let mut pairs = vec![
            ("name".to_string(), Json::Str(ev.kind.name())),
            ("cat".to_string(), Json::Str(ev.kind.category().to_string())),
        ];
        match ev.kind.dur_ns() {
            Some(dur) => {
                pairs.push(("ph".to_string(), Json::Str("X".to_string())));
                pairs.push(("ts".to_string(), Json::F64(ev.ts_ns / 1e3)));
                pairs.push(("dur".to_string(), Json::F64(dur / 1e3)));
            }
            None => {
                pairs.push(("ph".to_string(), Json::Str("i".to_string())));
                pairs.push(("ts".to_string(), Json::F64(ev.ts_ns / 1e3)));
                pairs.push(("s".to_string(), Json::Str("t".to_string())));
            }
        }
        pairs.push(("pid".to_string(), Json::U64(u64::from(ev.device))));
        pairs.push(("tid".to_string(), Json::U64(ev.lane.tid())));
        pairs.push(("args".to_string(), ev.kind.args_json()));
        entries.push(Json::Obj(pairs));
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(entries)),
        ("displayTimeUnit".to_string(), Json::Str("ns".to_string())),
        ("otherData".to_string(), Json::Obj(other_data)),
    ])
}

fn metadata_event(name: &str, pid: u32, tid: Option<u64>, value: String) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::U64(u64::from(pid))),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid".to_string(), Json::U64(tid)));
    }
    pairs.push((
        "args".to_string(),
        Json::Obj(vec![("name".to_string(), Json::Str(value))]),
    ));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                ts_ns: 10.0,
                device: 0,
                lane: Lane::Controller,
                kind: EventKind::KernelLaunch {
                    instance: 0,
                    kernel: 1,
                    name: "kvs_get".to_string(),
                },
            },
            TraceEvent {
                ts_ns: 10.0,
                device: 0,
                lane: Lane::Controller,
                kind: EventKind::KernelRun {
                    instance: 0,
                    kernel: 1,
                    name: "kvs_get".to_string(),
                    dur_ns: 512.5,
                },
            },
            TraceEvent {
                ts_ns: 40.0,
                device: 1,
                lane: Lane::Tenant(0),
                kind: EventKind::ReqPhase {
                    tenant: 0,
                    seq: 7,
                    phase: ReqPhase::Queue,
                    dur_ns: 12.25,
                },
            },
        ]
    }

    #[test]
    fn off_tracer_never_builds_events() {
        let mut t = Tracer::off();
        t.emit(|| unreachable!("emit closure must not run when off"));
        assert!(!t.on());
        assert!(t.finish().is_empty());
    }

    #[test]
    fn json_sink_buffers_in_order() {
        let mut t = Tracer::new(Box::new(JsonSink::new()));
        assert!(t.on());
        for ev in sample_events() {
            let ev2 = ev.clone();
            t.emit(move || ev2);
        }
        let got = t.finish();
        assert_eq!(got, sample_events());
        assert!(!t.on(), "finish detaches the sink");
    }

    #[test]
    fn chrome_export_is_valid_and_deterministic() {
        let json = chrome_trace_json(&sample_events(), vec![]);
        let text = json.pretty();
        let reparsed = Json::parse(&text).expect("exported trace must parse");
        assert_eq!(reparsed, json);
        assert_eq!(text, chrome_trace_json(&sample_events(), vec![]).pretty());
        // Every non-metadata entry has the Chrome required fields.
        let Some(Json::Arr(entries)) = json.get("traceEvents") else {
            panic!("traceEvents array");
        };
        // 2 device names + 2 lane names + 3 events.
        assert_eq!(entries.len(), 7);
        for e in entries {
            for field in ["name", "ph", "pid"] {
                assert!(e.get(field).is_some(), "missing {field} in {e:?}");
            }
        }
    }

    #[test]
    fn spans_divide_ns_to_us() {
        let json = chrome_trace_json(&sample_events(), vec![]);
        let Some(Json::Arr(entries)) = json.get("traceEvents") else {
            panic!("traceEvents array");
        };
        let span = entries
            .iter()
            .find(|e| e.get("ph") == Some(&Json::Str("X".to_string())))
            .expect("one complete span");
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(0.01));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(0.5125));
    }

    #[test]
    fn req_phases_cover_the_decomposition() {
        assert_eq!(
            ReqPhase::ALL.map(ReqPhase::name),
            ["queue", "launch", "execute", "link"]
        );
    }
}
