//! The `m2ndp-trace` command-line inspector for the observability layer's
//! Chrome trace-event exports (`figures --trace DIR`, or any JSON produced
//! by `ServeReport::chrome_trace`).
//!
//! Three subcommands:
//!
//! * `summary <file.json>...` — per-request latency breakdown recovered
//!   from the `serve` phase spans: queue → launch → execute → link, whose
//!   durations sum exactly to each request's end-to-end latency;
//! * `top <file.json>... [--annotate]` — the hottest kernels, devices, and
//!   tenants by busy time; `--annotate` reassembles the hottest kernel's
//!   embedded disassembly (via `m2ndp_riscv`) and prints the
//!   instruction-level listing behind its spans;
//! * `export [--devices N] [--rate R] [--requests N] [--out FILE]` — run a
//!   tiny deterministic traced serving demo and write its Perfetto-loadable
//!   trace (the quickest way to get a real trace file without a sweep).
//!
//! `--format json` switches every report (and all diagnostics) to the
//! machine-readable shape shared with `m2ndp-asm`: a top-level
//! `{"ok": bool, "diagnostics": [...]}` object with subcommand-specific
//! payload keys alongside.
//!
//! The library surface exists so integration tests can drive the CLI logic
//! without spawning processes; `src/main.rs` is a thin wrapper.

use std::collections::HashMap;
use std::fmt::Write as _;

use m2ndp_core::fleet::{Fleet, FleetConfig};
use m2ndp_core::{CxlM2ndpDevice, M2ndpConfig};
use m2ndp_cxl::SwitchConfig;
use m2ndp_host::offload::OffloadMechanism;
use m2ndp_host::serve::{self, ServeBackend, ServeConfig, TenantSpec};
use m2ndp_sim::json::{report_json, Diagnostic, Json};
use m2ndp_sim::FHistogram;

/// Usage text printed on bad invocations.
pub const USAGE: &str = "usage: m2ndp-trace <summary|top|export> [options]

  summary <file.json>...        per-request phase breakdown (queue/launch/
                                execute/link sum to end-to-end latency)
  top <file.json>...            hottest kernels, devices, and tenants
      --annotate                instruction-level listing of the hottest
                                kernel (reassembled from the embedded
                                disassembly)
  export                        run a tiny traced serving demo and write
                                its Chrome trace-event / Perfetto JSON
      --devices N               fleet size (default 1 = standalone device)
      --rate R                  offered load, requests/s (default 2e5)
      --requests N              total requests across tenants (default 20)
      --out FILE                output path (default: stdout)
  --format text|json            report format (json shares the diagnostics
                                shape with m2ndp-asm)";

/// A CLI failure: what to print on stderr (exit status is always 1). In
/// `--format json` mode the same diagnostics are also emitted to stdout
/// inside the shared `{"ok": false, "diagnostics": [...]}` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The message, already formatted as `file: reason`.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Trace document model
// ---------------------------------------------------------------------------

/// One decoded timeline entry: a `ph:"X"` complete span, or a `ph:"i"`
/// instant (`dur_us == 0.0`, `instant == true`).
#[derive(Debug, Clone)]
pub struct Span {
    /// Event name (`"kernel kvstore_get"`, `"queue"`, ...).
    pub name: String,
    /// Taxonomy family (`kernel`/`wave`/`l2`/`dram`/`switch`/`serve`).
    pub cat: String,
    /// Owning device (trace process id).
    pub pid: u64,
    /// Lane within the device (trace thread id).
    pub tid: u64,
    /// Start timestamp (µs — the Chrome trace-event unit).
    pub ts_us: f64,
    /// Duration (µs; `0.0` for instants).
    pub dur_us: f64,
    /// Whether this is an instant rather than a complete span.
    pub instant: bool,
    /// The typed `args` payload.
    pub args: Json,
}

/// One kernel's annotation record from `otherData.kernels`.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Registered kernel id.
    pub id: u64,
    /// Kernel name (matches the `kernel <name>` span names).
    pub name: String,
    /// Canonical disassembly of the kernel body.
    pub disassembly: String,
}

/// A validated trace file: timeline entries plus kernel annotations.
#[derive(Debug, Clone, Default)]
pub struct TraceDoc {
    /// All `X`/`i` entries in file order (metadata `M` entries are
    /// validated and dropped).
    pub spans: Vec<Span>,
    /// Kernel disassembly annotations, when the exporter embedded them.
    pub kernels: Vec<KernelInfo>,
}

fn as_str(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::U64(u) => Some(*u),
        _ => None,
    }
}

/// Parses and schema-validates one Chrome trace-event export.
///
/// # Errors
/// Returns a file-anchored [`Diagnostic`] on malformed JSON, a missing or
/// ill-typed `traceEvents` array, or an entry whose phase/fields don't
/// form a valid `M`/`X`/`i` record.
pub fn parse_trace(path: &str, text: &str) -> Result<TraceDoc, Diagnostic> {
    let err = |msg: String| Diagnostic::error_in(path, msg);
    let doc = Json::parse(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
    let Some(events) = doc.get("traceEvents") else {
        return Err(err("missing `traceEvents` array".to_string()));
    };
    let Json::Arr(events) = events else {
        return Err(err("`traceEvents` is not an array".to_string()));
    };
    let mut out = TraceDoc::default();
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| err(format!("traceEvents[{i}]: missing `{key}`")))
        };
        let ph = as_str(field("ph")?)
            .ok_or_else(|| err(format!("traceEvents[{i}]: `ph` is not a string")))?;
        match ph {
            "M" => {
                // Metadata names a pid/tid coordinate; only shape-checked.
                field("name")?;
                field("pid")?;
            }
            "X" | "i" => {
                let instant = ph == "i";
                let num = |key: &str| {
                    field(key)?
                        .as_f64()
                        .ok_or_else(|| err(format!("traceEvents[{i}]: `{key}` is not a number")))
                };
                let dur_us = if instant { 0.0 } else { num("dur")? };
                out.spans.push(Span {
                    name: as_str(field("name")?)
                        .ok_or_else(|| err(format!("traceEvents[{i}]: `name` is not a string")))?
                        .to_string(),
                    cat: as_str(field("cat")?).unwrap_or_default().to_string(),
                    pid: as_u64(field("pid")?)
                        .ok_or_else(|| err(format!("traceEvents[{i}]: `pid` is not an integer")))?,
                    tid: as_u64(field("tid")?)
                        .ok_or_else(|| err(format!("traceEvents[{i}]: `tid` is not an integer")))?,
                    ts_us: num("ts")?,
                    dur_us,
                    instant,
                    args: ev.get("args").cloned().unwrap_or(Json::Obj(Vec::new())),
                });
            }
            other => {
                return Err(err(format!(
                    "traceEvents[{i}]: unsupported phase `{other}`"
                )))
            }
        }
    }
    if let Some(Json::Arr(kernels)) = doc.get("otherData").and_then(|o| o.get("kernels")) {
        for (i, k) in kernels.iter().enumerate() {
            let get_str = |key: &str| {
                k.get(key)
                    .and_then(as_str)
                    .map(str::to_string)
                    .ok_or_else(|| err(format!("otherData.kernels[{i}]: missing `{key}`")))
            };
            out.kernels.push(KernelInfo {
                id: k.get("id").and_then(as_u64).unwrap_or(u64::MAX),
                name: get_str("name")?,
                disassembly: get_str("disassembly")?,
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------------

/// The four request phases, in pipeline order (matches
/// `m2ndp_sim::trace::ReqPhase`).
pub const PHASES: [&str; 4] = ["queue", "launch", "execute", "link"];

/// One request's recovered phase breakdown.
#[derive(Debug, Clone)]
pub struct RequestSummary {
    /// Issuing tenant index.
    pub tenant: u64,
    /// Per-tenant sequence number.
    pub seq: u64,
    /// Device that served the request.
    pub device: u64,
    /// queue/launch/execute/link durations (ns).
    pub phases: [f64; 4],
}

impl RequestSummary {
    /// End-to-end latency (ns): the exact sum of the four phases.
    pub fn total_ns(&self) -> f64 {
        self.phases.iter().sum()
    }
}

/// Recovers per-request summaries from a trace's `serve` spans, in first
/// appearance (global arrival) order.
///
/// # Errors
/// Returns a [`Diagnostic`] when a `serve` span lacks its `tenant`/`seq`
/// args, names an unknown phase, or a request is missing one of its four
/// phases — all signs of a trace not produced by this workspace's exporter.
pub fn request_summaries(path: &str, doc: &TraceDoc) -> Result<Vec<RequestSummary>, Diagnostic> {
    let err = |msg: String| Diagnostic::error_in(path, msg);
    let mut order: Vec<(u64, u64)> = Vec::new();
    let mut map: HashMap<(u64, u64), (RequestSummary, u8)> = HashMap::new();
    for span in doc.spans.iter().filter(|s| s.cat == "serve" && !s.instant) {
        let tenant = span
            .args
            .get("tenant")
            .and_then(as_u64)
            .ok_or_else(|| err(format!("serve span `{}` lacks args.tenant", span.name)))?;
        let seq = span
            .args
            .get("seq")
            .and_then(as_u64)
            .ok_or_else(|| err(format!("serve span `{}` lacks args.seq", span.name)))?;
        let idx = PHASES
            .iter()
            .position(|p| *p == span.name)
            .ok_or_else(|| err(format!("unknown serve phase `{}`", span.name)))?;
        let entry = map.entry((tenant, seq)).or_insert_with(|| {
            order.push((tenant, seq));
            (
                RequestSummary {
                    tenant,
                    seq,
                    device: span.pid,
                    phases: [0.0; 4],
                },
                0,
            )
        });
        entry.0.phases[idx] = span.dur_us * 1e3;
        entry.1 |= 1 << idx;
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let (summary, mask) = map.remove(&key).expect("keyed by order");
        if mask != 0b1111 {
            return Err(err(format!(
                "request tenant={} seq={} is missing {} of its 4 phases",
                key.0,
                key.1,
                4 - mask.count_ones()
            )));
        }
        out.push(summary);
    }
    Ok(out)
}

/// Per-tenant aggregate of a summary run.
#[derive(Debug, Clone)]
pub struct TenantAggregate {
    /// Tenant index.
    pub tenant: u64,
    /// Requests seen.
    pub count: u64,
    /// Mean duration of each phase (ns).
    pub phase_mean_ns: [f64; 4],
    /// Median end-to-end latency (ns), by [`FHistogram`]'s nearest rank,
    /// as in the serving report.
    pub p50_ns: f64,
    /// Tail end-to-end latency (ns), by the same rule.
    pub p95_ns: f64,
}

/// Aggregates request summaries per tenant (ascending tenant index).
pub fn tenant_aggregates(reqs: &[RequestSummary]) -> Vec<TenantAggregate> {
    let mut tenants: Vec<u64> = reqs.iter().map(|r| r.tenant).collect();
    tenants.sort_unstable();
    tenants.dedup();
    tenants
        .into_iter()
        .map(|tenant| {
            let rows: Vec<&RequestSummary> = reqs.iter().filter(|r| r.tenant == tenant).collect();
            let mut phase_mean_ns = [0.0; 4];
            for r in &rows {
                for (acc, p) in phase_mean_ns.iter_mut().zip(r.phases) {
                    *acc += p;
                }
            }
            let n = rows.len() as f64;
            for acc in &mut phase_mean_ns {
                *acc /= n;
            }
            let mut totals = FHistogram::new();
            for r in &rows {
                totals.record(r.total_ns());
            }
            TenantAggregate {
                tenant,
                count: rows.len() as u64,
                phase_mean_ns,
                p50_ns: totals.percentile(0.50),
                p95_ns: totals.percentile(0.95),
            }
        })
        .collect()
}

/// Renders the `summary` text report for one file.
pub fn summary_text(path: &str, reqs: &[RequestSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {} request(s)", reqs.len());
    let _ = writeln!(
        out,
        "  {:<8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "tenant", "count", "queue", "launch", "execute", "link", "p50", "p95"
    );
    for agg in tenant_aggregates(reqs) {
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            agg.tenant,
            agg.count,
            agg.phase_mean_ns[0],
            agg.phase_mean_ns[1],
            agg.phase_mean_ns[2],
            agg.phase_mean_ns[3],
            agg.p50_ns,
            agg.p95_ns
        );
    }
    let mut slowest: Vec<&RequestSummary> = reqs.iter().collect();
    slowest.sort_by(|a, b| f64::total_cmp(&b.total_ns(), &a.total_ns()));
    slowest.truncate(10);
    let _ = writeln!(out, "  slowest requests (ns; phases sum to end-to-end):");
    for r in slowest {
        let _ =
            writeln!(
            out,
            "    t{} #{:<6} dev{} queue {:.1} + launch {:.1} + execute {:.1} + link {:.1} = {:.1}",
            r.tenant, r.seq, r.device, r.phases[0], r.phases[1], r.phases[2], r.phases[3],
            r.total_ns()
        );
    }
    out
}

/// The `summary` payload for `--format json`.
pub fn summary_payload(path: &str, reqs: &[RequestSummary]) -> Vec<(String, Json)> {
    let req_json = |r: &RequestSummary| {
        let mut pairs = vec![
            ("tenant".to_string(), Json::U64(r.tenant)),
            ("seq".to_string(), Json::U64(r.seq)),
            ("device".to_string(), Json::U64(r.device)),
        ];
        for (name, dur) in PHASES.iter().zip(r.phases) {
            pairs.push((format!("{name}_ns"), Json::F64(dur)));
        }
        pairs.push(("total_ns".to_string(), Json::F64(r.total_ns())));
        Json::Obj(pairs)
    };
    let tenants = tenant_aggregates(reqs)
        .into_iter()
        .map(|agg| {
            let mut pairs = vec![
                ("tenant".to_string(), Json::U64(agg.tenant)),
                ("count".to_string(), Json::U64(agg.count)),
            ];
            for (name, dur) in PHASES.iter().zip(agg.phase_mean_ns) {
                pairs.push((format!("mean_{name}_ns"), Json::F64(dur)));
            }
            pairs.push(("p50_ns".to_string(), Json::F64(agg.p50_ns)));
            pairs.push(("p95_ns".to_string(), Json::F64(agg.p95_ns)));
            Json::Obj(pairs)
        })
        .collect();
    let mut slowest: Vec<&RequestSummary> = reqs.iter().collect();
    slowest.sort_by(|a, b| f64::total_cmp(&b.total_ns(), &a.total_ns()));
    slowest.truncate(10);
    vec![
        ("file".to_string(), Json::Str(path.to_string())),
        ("requests".to_string(), Json::U64(reqs.len() as u64)),
        ("tenants".to_string(), Json::Arr(tenants)),
        (
            "slowest".to_string(),
            Json::Arr(slowest.into_iter().map(req_json).collect()),
        ),
    ]
}

// ---------------------------------------------------------------------------
// top
// ---------------------------------------------------------------------------

/// Busy-time leaderboards of one trace.
#[derive(Debug, Clone, Default)]
pub struct TopReport {
    /// `(kernel span name, runs, total busy ns)`, hottest first.
    pub kernels: Vec<(String, u64, f64)>,
    /// `(device, kernel runs, total busy ns)`, hottest first.
    pub devices: Vec<(u64, u64, f64)>,
    /// `(tenant, requests, total end-to-end ns)`, hottest first.
    pub tenants: Vec<(u64, u64, f64)>,
}

/// Computes the leaderboards from kernel (`cat == "kernel"`) spans and the
/// request summaries. Ties break on the key, so the order is deterministic.
pub fn top_report(path: &str, doc: &TraceDoc) -> Result<TopReport, Diagnostic> {
    let mut kernels: Vec<(String, u64, f64)> = Vec::new();
    let mut devices: Vec<(u64, u64, f64)> = Vec::new();
    for span in doc.spans.iter().filter(|s| s.cat == "kernel" && !s.instant) {
        let ns = span.dur_us * 1e3;
        match kernels.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += ns;
            }
            None => kernels.push((span.name.clone(), 1, ns)),
        }
        match devices.iter_mut().find(|(d, _, _)| *d == span.pid) {
            Some((_, count, total)) => {
                *count += 1;
                *total += ns;
            }
            None => devices.push((span.pid, 1, ns)),
        }
    }
    let mut tenants: Vec<(u64, u64, f64)> = Vec::new();
    for r in request_summaries(path, doc)? {
        match tenants.iter_mut().find(|(t, _, _)| *t == r.tenant) {
            Some((_, count, total)) => {
                *count += 1;
                *total += r.total_ns();
            }
            None => tenants.push((r.tenant, 1, r.total_ns())),
        }
    }
    kernels.sort_by(|a, b| f64::total_cmp(&b.2, &a.2).then_with(|| a.0.cmp(&b.0)));
    devices.sort_by(|a, b| f64::total_cmp(&b.2, &a.2).then_with(|| a.0.cmp(&b.0)));
    tenants.sort_by(|a, b| f64::total_cmp(&b.2, &a.2).then_with(|| a.0.cmp(&b.0)));
    Ok(TopReport {
        kernels,
        devices,
        tenants,
    })
}

/// Reassembles a kernel's embedded disassembly and renders the indexed
/// instruction listing (the instruction-level annotation behind its
/// spans). Round-trips through `m2ndp_riscv::{assemble, disassemble}`, so
/// a non-canonical embedding is rejected rather than mis-rendered.
///
/// # Errors
/// Returns a [`Diagnostic`] when the embedded text does not assemble or
/// does not round-trip.
pub fn annotate_kernel(info: &KernelInfo) -> Result<String, Diagnostic> {
    let program = m2ndp_riscv::assemble(&info.disassembly).map_err(|e| {
        Diagnostic::error_in(
            format!("kernel {}", info.name),
            format!("embedded disassembly line {}: {}", e.line, e.message),
        )
    })?;
    // Canonical-form check: the round-trip law the toolchain guarantees.
    m2ndp_riscv::disassemble(&program).map_err(|e| {
        Diagnostic::error_in(
            format!("kernel {}", info.name),
            format!("instr {}: {}", e.index, e.message),
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  kernel {} (id {}, {} instrs):",
        info.name,
        info.id,
        program.len()
    );
    for (idx, instr) in program.instrs().iter().enumerate() {
        let _ = writeln!(out, "    {idx:>4}  {instr:?}");
    }
    Ok(out)
}

/// Renders the `top` text report for one file.
pub fn top_text(path: &str, doc: &TraceDoc, top: &TopReport, annotate: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{path}:");
    let _ = writeln!(out, "  hottest kernels (runs, total busy ns):");
    for (name, count, ns) in top.kernels.iter().take(10) {
        let _ = writeln!(out, "    {name:<32} {count:>8} {ns:>14.1}");
    }
    let _ = writeln!(out, "  hottest devices (kernel runs, total busy ns):");
    for (dev, count, ns) in top.devices.iter().take(10) {
        let _ = writeln!(out, "    device {dev:<25} {count:>8} {ns:>14.1}");
    }
    let _ = writeln!(out, "  hottest tenants (requests, total end-to-end ns):");
    for (tenant, count, ns) in top.tenants.iter().take(10) {
        let _ = writeln!(out, "    tenant {tenant:<25} {count:>8} {ns:>14.1}");
    }
    if annotate {
        if let Some(info) = top.kernels.first().and_then(|(name, _, _)| {
            doc.kernels
                .iter()
                .find(|k| name == &format!("kernel {}", k.name))
        }) {
            match annotate_kernel(info) {
                Ok(text) => out.push_str(&text),
                Err(d) => {
                    let _ = writeln!(out, "  (annotation unavailable: {})", d.human());
                }
            }
        } else {
            let _ = writeln!(out, "  (no kernel annotation embedded in this trace)");
        }
    }
    out
}

/// The `top` payload for `--format json`.
pub fn top_payload(path: &str, top: &TopReport) -> Vec<(String, Json)> {
    let triple = |key: &str, name: Json, count: u64, ns: f64| {
        Json::Obj(vec![
            (key.to_string(), name),
            ("count".to_string(), Json::U64(count)),
            ("total_ns".to_string(), Json::F64(ns)),
        ])
    };
    vec![
        ("file".to_string(), Json::Str(path.to_string())),
        (
            "kernels".to_string(),
            Json::Arr(
                top.kernels
                    .iter()
                    .map(|(n, c, ns)| triple("name", Json::Str(n.clone()), *c, *ns))
                    .collect(),
            ),
        ),
        (
            "devices".to_string(),
            Json::Arr(
                top.devices
                    .iter()
                    .map(|(d, c, ns)| triple("device", Json::U64(*d), *c, *ns))
                    .collect(),
            ),
        ),
        (
            "tenants".to_string(),
            Json::Arr(
                top.tenants
                    .iter()
                    .map(|(t, c, ns)| triple("tenant", Json::U64(*t), *c, *ns))
                    .collect(),
            ),
        ),
    ]
}

// ---------------------------------------------------------------------------
// export
// ---------------------------------------------------------------------------

/// Runs a tiny deterministic traced serving demo (the KV-store workload,
/// one Poisson and one bursty tenant) and returns its Chrome trace-event
/// JSON. `devices <= 1` serves from a standalone device; larger fleets
/// route every launch through the CXL switch. The same arguments always
/// produce byte-identical JSON — the golden trace snapshot pins this.
pub fn demo_trace(devices: usize, rate_per_sec: f64, requests: usize) -> Json {
    let mut device_cfg = M2ndpConfig::default_device();
    device_cfg.engine.units = 2;
    let mut backend = if devices <= 1 {
        ServeBackend::Device(Box::new(CxlM2ndpDevice::new(device_cfg)))
    } else {
        ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices,
            device: device_cfg,
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 1 << 30,
        })))
    };
    let mut wl = serve::KvServeWorkload::build(&mut backend, 1 << 10, 0.99);
    let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func).trace(true);
    let gap = 1e9 / (rate_per_sec * 0.3);
    let tenants = vec![
        TenantSpec::poisson("tenantA", rate_per_sec * 0.7)
            .requests((requests * 7 / 10).max(1))
            .seed(0x5EA1),
        TenantSpec::trace("tenantB", vec![0.6 * gap, 1.0 * gap, 1.4 * gap])
            .requests((requests * 3 / 10).max(1))
            .seed(0x5EB2),
    ];
    let report = serve::run(&mut backend, &mut wl, &cfg, &tenants);
    report.chrome_trace()
}

// ---------------------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Opts {
    cmd: String,
    files: Vec<String>,
    format: Format,
    annotate: bool,
    devices: usize,
    rate: f64,
    requests: usize,
    out_path: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| fail(USAGE))?.clone();
    let mut opts = Opts {
        cmd,
        files: Vec::new(),
        format: Format::Text,
        annotate: false,
        devices: 1,
        rate: 2e5,
        requests: 20,
        out_path: None,
    };
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| fail(format!("{flag} expects a value\n{USAGE}")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                opts.format = match value(&mut it, "--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(fail(format!("unknown format `{other}`\n{USAGE}"))),
                }
            }
            "--annotate" => opts.annotate = true,
            "--devices" => {
                opts.devices = value(&mut it, "--devices")?
                    .parse()
                    .map_err(|_| fail("--devices expects a positive integer"))?;
            }
            "--rate" => {
                opts.rate = value(&mut it, "--rate")?
                    .parse()
                    .map_err(|_| fail("--rate expects a number"))?;
                if opts.rate <= 0.0 || opts.rate.is_nan() {
                    return Err(fail("--rate must be positive"));
                }
            }
            "--requests" => {
                opts.requests = value(&mut it, "--requests")?
                    .parse()
                    .map_err(|_| fail("--requests expects a positive integer"))?;
            }
            "--out" => opts.out_path = Some(value(&mut it, "--out")?),
            other if other.starts_with("--") => {
                return Err(fail(format!("unknown option `{other}`\n{USAGE}")))
            }
            file => opts.files.push(file.to_string()),
        }
    }
    Ok(opts)
}

fn load_doc(path: &str) -> Result<TraceDoc, Diagnostic> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Diagnostic::error_in(path, e.to_string()))?;
    parse_trace(path, &text)
}

/// Runs the CLI on `args` (without the argv\[0\] program name), writing
/// reports to `out`. In `--format json` mode the diagnostics of a failure
/// are written to `out` as the shared machine-readable report *and*
/// returned as the error for stderr.
///
/// # Errors
/// Returns a [`CliError`] on usage mistakes, unreadable or malformed trace
/// files, and schema violations.
pub fn run(args: &[String], out: &mut String) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let fail_with = |out: &mut String, d: Diagnostic| {
        if opts.format == Format::Json {
            out.push_str(&report_json(std::slice::from_ref(&d), Vec::new()).pretty());
            out.push('\n');
        }
        fail(d.human())
    };
    match opts.cmd.as_str() {
        "summary" => {
            if opts.files.is_empty() {
                return Err(fail(USAGE));
            }
            for path in &opts.files {
                let doc = load_doc(path).map_err(|d| fail_with(out, d))?;
                let reqs = request_summaries(path, &doc).map_err(|d| fail_with(out, d))?;
                match opts.format {
                    Format::Text => out.push_str(&summary_text(path, &reqs)),
                    Format::Json => {
                        out.push_str(&report_json(&[], summary_payload(path, &reqs)).pretty());
                        out.push('\n');
                    }
                }
            }
            Ok(())
        }
        "top" => {
            if opts.files.is_empty() {
                return Err(fail(USAGE));
            }
            for path in &opts.files {
                let doc = load_doc(path).map_err(|d| fail_with(out, d))?;
                let top = top_report(path, &doc).map_err(|d| fail_with(out, d))?;
                match opts.format {
                    Format::Text => out.push_str(&top_text(path, &doc, &top, opts.annotate)),
                    Format::Json => {
                        out.push_str(&report_json(&[], top_payload(path, &top)).pretty());
                        out.push('\n');
                    }
                }
            }
            Ok(())
        }
        "export" => {
            if !opts.files.is_empty() {
                return Err(fail(format!(
                    "export takes no positional arguments\n{USAGE}"
                )));
            }
            let json = demo_trace(opts.devices, opts.rate, opts.requests);
            let text = json.pretty() + "\n";
            match &opts.out_path {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| fail(format!("{path}: {e}")))?
                }
                None => out.push_str(&text),
            }
            Ok(())
        }
        other => Err(fail(format!("unknown subcommand `{other}`\n{USAGE}"))),
    }
}

/// Convenience for `main`: run and translate to an exit code, printing to
/// the real stdout/stderr.
pub fn main_impl(args: Vec<String>) -> i32 {
    let mut out = String::new();
    match run(&args, &mut out) {
        Ok(()) => {
            print!("{out}");
            0
        }
        Err(e) => {
            print!("{out}");
            eprintln!("{e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tenant's p50 and p95 are the nearest-rank samples the serving
    /// report picks: the `ceil(q·n)`-th smallest, at every tenant size.
    #[test]
    fn tenant_percentiles_use_the_nearest_rank() {
        for n in 1..=40u64 {
            // Latencies n, n - 1, ..., 1 ns, so the k-th smallest is k.
            let row = |seq| RequestSummary {
                tenant: 0,
                seq,
                device: 0,
                phases: [(n - seq) as f64, 0.0, 0.0, 0.0],
            };
            let agg = &tenant_aggregates(&(0..n).map(row).collect::<Vec<_>>())[0];
            assert_eq!(agg.p50_ns, (0.50 * n as f64).ceil(), "p50 at n = {n}");
            assert_eq!(agg.p95_ns, (0.95 * n as f64).ceil(), "p95 at n = {n}");
        }
    }

    fn demo_doc() -> TraceDoc {
        let json = demo_trace(1, 2e5, 10);
        parse_trace("demo", &json.pretty()).expect("demo trace validates")
    }

    #[test]
    fn demo_trace_is_deterministic() {
        assert_eq!(
            demo_trace(1, 2e5, 8).pretty(),
            demo_trace(1, 2e5, 8).pretty()
        );
    }

    #[test]
    fn summary_phases_sum_to_end_to_end() {
        let doc = demo_doc();
        let reqs = request_summaries("demo", &doc).unwrap();
        assert_eq!(reqs.len(), 10);
        for r in &reqs {
            let sum: f64 = r.phases.iter().sum();
            assert!((sum - r.total_ns()).abs() <= f64::EPSILON * sum.abs().max(1.0));
            assert!(r.total_ns() > 0.0, "{r:?}");
        }
    }

    #[test]
    fn top_finds_the_kv_kernel_and_annotates_it() {
        let doc = demo_doc();
        let top = top_report("demo", &doc).unwrap();
        assert!(!top.kernels.is_empty());
        assert_eq!(top.tenants.len(), 2);
        let text = top_text("demo", &doc, &top, true);
        assert!(text.contains("hottest kernels"), "{text}");
        assert!(text.contains("instrs):"), "annotation missing: {text}");
    }

    #[test]
    fn cli_summary_json_reports_ok() {
        let dir = std::env::temp_dir().join("m2ndp-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("demo.trace.json");
        std::fs::write(&p, demo_trace(1, 2e5, 6).pretty() + "\n").unwrap();
        let mut out = String::new();
        run(
            &[
                "summary".to_string(),
                p.display().to_string(),
                "--format".to_string(),
                "json".to_string(),
            ],
            &mut out,
        )
        .unwrap();
        let json = Json::parse(&out).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert!(json.get("requests").and_then(Json::as_f64).unwrap() >= 2.0);
    }

    #[test]
    fn malformed_trace_yields_shared_diagnostics_shape() {
        let dir = std::env::temp_dir().join("m2ndp-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.trace.json");
        std::fs::write(&p, "{\"notTraceEvents\": []}\n").unwrap();
        let mut out = String::new();
        let err = run(
            &[
                "summary".to_string(),
                p.display().to_string(),
                "--format".to_string(),
                "json".to_string(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(err.message.contains("traceEvents"), "{err}");
        let json = Json::parse(&out).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
    }
}
