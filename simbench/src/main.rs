//! Host-speed benchmark of the M²NDP simulator.
//!
//! ```text
//! simbench --workload NAME [--seed S] [--seconds T] [--reps R] [--trace 0|1]
//!          [--trace-out FILE] [--out FILE]
//! simbench --compare A.json B.json
//! ```
//!
//! One workload per process, so peak memory is per workload. Repetitions
//! run one after another (a closed loop with one client) until `--seconds`
//! have passed and at least `--reps` have been measured after one warm-up
//! repetition. End-to-end metrics come from
//! untraced repetitions; `--trace 1` interleaves traced ones and reports the
//! per-layer metrics. The last line of standard output is a JSON summary.
//! See README.md for the metrics and workloads.

mod compare;
mod engine_ideal;
mod spans;
mod spec;
mod stats;
mod timed_serve;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use m2ndp::sim::json::Json;

use crate::spans::Recorder;
use crate::spec::{Metric, Spec};
use crate::stats::{good_tail, median, quartiles};
use crate::workloads::{Rep, Workload};

/// The recorded model digest per workload at [`DEFAULT_SEED`].
const MODEL_DIGESTS: &str = include_str!("../model_digests.json");

/// Seed used when `--seed` is absent (the one the digests are recorded at).
const DEFAULT_SEED: u64 = 1;

/// Minimum repetitions when `--reps` is absent.
const DEFAULT_REPS: usize = 3;

/// Per-layer metrics whose values are simulated outputs: they repeat
/// exactly, and `--compare` requires them equal.
const EXACT: &[&str] = &[
    "core.device.sim_cycles",
    "core.device.sim_ns",
    "core.engine.instrs",
    "core.engine.mem_reqs",
    "core.engine.spad_bytes",
    "core.engine.uthread_waves",
    "cache.l1_hits",
    "cache.l2_accesses",
    "cache.l2_hit_rate",
    "cache.l2_evictions",
    "mem.dram_txns",
    "mem.dram_bytes",
    "mem.dram_row_hit_rate",
    "mem.dram_bw_utilization",
    "cxl.link_m2s_bytes",
    "cxl.link_s2m_bytes",
    "host.serve.launches",
    "host.serve.max_outstanding",
    "host.serve.sim_p50_ns",
    "host.serve.sim_p95_ns",
    "host.serve.sim_throughput_rps",
];

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        reps: DEFAULT_REPS,
        trace: false,
        trace_out: None,
        out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--reps" => {
                let v = value()?;
                args.reps = v.parse().ok().filter(|&r| r > 0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--compare" => {
                let a = value()?;
                args.compare = Some((a, value()?));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_none() && args.compare.is_none() {
        return Err("--workload or --compare is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Some((a, b)) = &args.compare {
        let read = |p: &str| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
        };
        return match (read(a), read(b)) {
            (Ok(ja), Ok(jb)) => ExitCode::from(u8::from(!compare::compare(&spec, &ja, &jb))),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("simbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    match run(&args, workload, &spec) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Outcome of a set of repetitions.
struct Set {
    /// The measured repetitions (the warm-up is not one).
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
    /// Model digest of the first repetition that completed.
    digest: Option<u64>,
}

impl Set {
    fn untraced(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| !r.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| r.traced)
    }
}

/// Runs repetitions until the time budget is spent and the minimum count is
/// reached. Repetition 0 warms the allocator and the host caches: it is
/// verified but not measured, since it ran up to a quarter slower than the
/// rest. With tracing, every second measured repetition is traced.
fn run_reps(args: &Args, workload: Workload, rec: &mut Recorder) -> Set {
    let start = Instant::now();
    let mut set = Set {
        reps: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: None,
    };
    for i in 0u64.. {
        let warmup = i == 0;
        let traced = args.trace && !warmup && i % 2 == 0;
        let mark = rec.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.rep(args.seed, i, traced, rec)));
        // The self-time table and Chrome trace describe measured untraced
        // repetitions: a traced one's times include the tracing overhead.
        if !args.trace || traced || warmup {
            rec.truncate(mark);
        }
        match outcome {
            Ok(rep) => {
                set.attempted += rep.verified;
                set.failed += rep.failed;
                if *set.digest.get_or_insert(rep.digest) != rep.digest {
                    eprintln!("repetition {i}: simulated outputs differ from the first repetition");
                    set.attempted += 1;
                    set.failed += 1;
                }
                if !warmup {
                    set.reps.push(rep);
                }
            }
            Err(_) => {
                rec.truncate(mark);
                eprintln!("repetition {i} panicked");
                set.attempted += 1;
                set.failed += 1;
            }
        }
        let done = i + 1;
        let measured = done - 1;
        let minimum = measured >= args.reps as u64 && (!args.trace || measured >= 2);
        let elapsed = start.elapsed().as_secs_f64();
        if minimum && elapsed + elapsed / done as f64 > args.seconds {
            break;
        }
    }
    set
}

/// One metric's samples across repetitions.
fn samples(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(|r| f(r)).collect()
}

/// Per-layer values only traced repetitions measure: trace event counts
/// and the engine-isolation replay.
const TRACE_ONLY: &[&str] = &[
    "core.engine.ideal_s",
    "core.engine.uthread_waves",
    "cache.l2_evictions",
    "mem.dram_txns",
];

/// A per-layer metric: the median over untraced repetitions (tracing
/// inflates a traced one's times), over traced ones for what only they
/// measure, and combinations of those medians for the engine-isolation
/// estimates and the tracing overhead. `None` when nothing measured it.
fn layer_value(name: &str, untraced: &[&Rep], traced: &[&Rep]) -> Option<f64> {
    let med =
        |reps: &[&Rep], n: &str| (!reps.is_empty()).then(|| median(&samples(reps, |r| r.get(n))));
    let run = || med(untraced, "core.device.run_s");
    let ideal = || med(traced, "core.engine.ideal_s");
    match name {
        "trace.overhead_s" => Some(med(traced, "wall_s")? - med(untraced, "wall_s")?),
        "core.engine.ideal_share" => Some(ideal()? / run()?),
        "core.device.memsys_est_s" => Some(run()? - ideal()?),
        "cache.host_ns_per_l2_access_est" => {
            let l2 = med(untraced, "cache.l2_accesses")?;
            Some((run()? - ideal()?) * 1e9 / l2.max(1.0))
        }
        n if TRACE_ONLY.contains(&n) => med(traced, n),
        n => med(untraced, n),
    }
}

fn run(args: &Args, workload: Workload, spec: &Spec) -> Result<(), String> {
    let mut rec = Recorder::new();
    let set = run_reps(args, workload, &mut rec);
    let untraced: Vec<&Rep> = set.untraced().collect();
    let traced: Vec<&Rep> = set.traced().collect();

    let mut e2e: Vec<(&Metric, Vec<f64>)> = Vec::new();
    for m in &spec.end_to_end {
        let xs = match m.name.as_str() {
            "wall_s" | "setup_s" | "rss_mb" => samples(&untraced, |r| r.get(&m.name)),
            "sim_instrs_per_s" => {
                samples(&untraced, |r| r.get("core.engine.instrs") / r.get("wall_s"))
            }
            other => return Err(format!("no measurement for end-to-end metric {other}")),
        };
        e2e.push((m, xs));
    }
    let layer: Vec<(&Metric, Option<f64>)> = spec
        .per_layer
        .iter()
        .map(|m| (m, layer_value(&m.name, &untraced, &traced)))
        .collect();

    println!(
        "simbench {} seed {}: {} untraced + {} traced repetitions, {} verifications, {} failed",
        workload.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        set.attempted,
        set.failed
    );
    println!(
        "end-to-end (untraced; the repetition a tenth in from the better end, \
         then [p25, median, p75] over the repetitions):"
    );
    for (m, xs) in &e2e {
        let (q1, q3) = quartiles(xs);
        println!(
            "  {:<34} {:>16.6} {:<8} [{q1:.6}, {:.6}, {q3:.6}] n={}",
            m.name,
            reported(m, xs),
            m.unit,
            median(xs),
            xs.len()
        );
    }
    println!(
        "  {:<34} {:>16.6} {:<8} ({} of {} verifications)",
        "error_rate",
        set.failed as f64 / set.attempted.max(1) as f64,
        "fraction",
        set.failed,
        set.attempted
    );
    println!(
        "per-layer (median over {} untraced repetitions; trace-only metrics over {} traced):",
        untraced.len(),
        traced.len()
    );
    for (m, v) in &layer {
        match v {
            Some(v) => println!("  {:<34} {:>16.6} {}", m.name, v, m.unit),
            None => println!("  {:<34} {:>16} {} (traced runs only)", m.name, "-", m.unit),
        }
    }
    if args.trace {
        let n = untraced.len() as f64;
        println!("layer self time (untraced repetitions; seconds per repetition):");
        println!(
            "  {:<34} {:>10} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in rec.self_times() {
            println!(
                "  {name:<34} {:>10} {:>12.6} {:>12.6}",
                count as f64 / n,
                total / n,
                own / n
            );
        }
    }
    let digest = set.digest.map(|d| format!("{d:#018x}"));
    report_digest(workload, args.seed, digest.as_deref());

    if let Some(path) = &args.trace_out {
        std::fs::write(path, rec.chrome_trace().pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        write_out(path, workload, args, &set, &e2e, &layer, digest.as_deref())?;
    }

    let metrics: Vec<(String, Json)> = if args.trace {
        layer
            .iter()
            .map(|(m, v)| metric_json(m, v.unwrap_or(f64::NAN)))
            .collect()
    } else {
        e2e.iter()
            .map(|(m, xs)| metric_json(m, reported(m, xs)))
            .collect()
    };
    let summary = Json::obj(vec![
        ("correct".into(), Json::Bool(set.failed == 0)),
        ("attempted".into(), Json::U64(set.attempted)),
        ("failed".into(), Json::U64(set.failed)),
        ("metrics".into(), Json::obj(metrics)),
    ]);
    println!("{}", compact(&summary));
    Ok(())
}

/// The value an end-to-end metric reports from its per-repetition samples
/// (see [`good_tail`] for why not the median).
fn reported(m: &Metric, xs: &[f64]) -> f64 {
    good_tail(xs, m.lower_is_better)
}

fn metric_json(m: &Metric, value: f64) -> (String, Json) {
    (
        m.name.clone(),
        Json::obj(vec![
            ("value".into(), Json::F64(value)),
            ("unit".into(), Json::Str(m.unit.clone())),
        ]),
    )
}

/// Compares the digest with the one recorded for `workload` at the default
/// seed. A difference is reported, not counted as a failure: a deliberate
/// model change moves it.
fn report_digest(workload: Workload, seed: u64, digest: Option<&str>) {
    let Some(digest) = digest else {
        println!("model_digest - (no repetition completed)");
        return;
    };
    let recorded = Json::parse(MODEL_DIGESTS).expect("model_digests.json parses");
    let expected = match recorded.get(workload.name()) {
        Some(Json::Str(s)) if seed == DEFAULT_SEED => s.as_str(),
        _ => {
            println!("model_digest {digest} (none recorded for seed {seed})");
            return;
        }
    };
    if expected == digest {
        println!("model_digest {digest} (matches the recorded digest)");
    } else {
        println!("model_digest_changed {digest} (recorded {expected})");
    }
}

/// Merges this run's results into the result-set file at `path` (one entry
/// per workload, replaced on re-run), the input of `--compare`.
fn write_out(
    path: &str,
    workload: Workload,
    args: &Args,
    set: &Set,
    e2e: &[(&Metric, Vec<f64>)],
    layer: &[(&Metric, Option<f64>)],
    digest: Option<&str>,
) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        Err(_) => Json::obj(Vec::new()),
    };
    // Exact counts from the first repetition that has each (trace-only
    // counts come from the first traced one).
    let counts = EXACT
        .iter()
        .filter_map(|&name| {
            let v = set
                .reps
                .iter()
                .find_map(|r| r.values.iter().find(|(n, _)| *n == name))?;
            Some((name.to_string(), Json::F64(v.1)))
        })
        .collect();
    let e2e_json = e2e
        .iter()
        .map(|(m, xs)| {
            let (name, mut entry) = metric_json(m, reported(m, xs));
            if let Json::Obj(pairs) = &mut entry {
                pairs.push((
                    "samples".into(),
                    Json::Arr(xs.iter().map(|&x| Json::F64(x)).collect()),
                ));
            }
            (name, entry)
        })
        .collect();
    let entry = Json::obj(vec![
        ("seed".into(), Json::U64(args.seed)),
        ("reps".into(), Json::U64(set.untraced().count() as u64)),
        ("traced_reps".into(), Json::U64(set.traced().count() as u64)),
        ("attempted".into(), Json::U64(set.attempted)),
        ("failed".into(), Json::U64(set.failed)),
        (
            "model_digest".into(),
            digest.map_or(Json::Null, |d| Json::Str(d.into())),
        ),
        ("end_to_end".into(), Json::obj(e2e_json)),
        ("counts".into(), Json::obj(counts)),
        (
            "per_layer".into(),
            Json::obj(
                layer
                    .iter()
                    .filter_map(|(m, v)| Some(metric_json(m, (*v)?)))
                    .collect(),
            ),
        ),
    ]);
    let Json::Obj(pairs) = &mut doc else {
        return Err(format!("{path}: not a result set"));
    };
    match pairs.iter_mut().find(|(k, _)| k == workload.name()) {
        Some((_, v)) => *v = entry,
        None => pairs.push((workload.name().into(), entry)),
    }
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{path}: {e}"))
}

/// One-line JSON: the pretty form with whitespace outside strings removed.
fn compact(j: &Json) -> String {
    let mut out = String::new();
    let (mut in_str, mut escaped) = (false, false);
    for c in j.pretty().chars() {
        if escaped {
            escaped = false;
        } else if in_str {
            escaped = c == '\\';
            in_str = c != '"';
        } else if c.is_whitespace() {
            continue;
        } else {
            in_str = c == '"';
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_keeps_string_whitespace_only() {
        let j = Json::obj(vec![
            ("a b".into(), Json::Arr(vec![Json::U64(1), Json::F64(0.5)])),
            ("q".into(), Json::Str("x \"y\" z\\".into())),
        ]);
        let line = compact(&j);
        assert_eq!(line, r#"{"a b":[1,0.5],"q":"x \"y\" z\\"}"#);
        assert_eq!(Json::parse(&line).unwrap(), j);
    }

    #[test]
    fn args_parse_the_command_line_interface() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload histo --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Histo));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload histo --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn digest_is_stable_on_a_tiny_histo_run() {
        use m2ndp::workloads::histo;
        let run = |elements: u64| {
            let mut dev = m2ndp::SystemBuilder::m2ndp().units(2).build();
            let cfg = histo::HistoConfig {
                elements,
                bins: 256,
                seed: 1,
            };
            let data = histo::generate(cfg, dev.memory_mut());
            let kid = dev.register_kernel(histo::kernel(cfg));
            let inst = dev.launch(histo::launch(&data, kid, 2)).unwrap();
            dev.run_until_finished(inst);
            histo::verify(&data, dev.memory()).unwrap();
            stats::digest(&dev.stats().metrics())
        };
        // Same input, same digest; more modelled work moves it.
        assert_eq!(run(4096), run(4096));
        assert_ne!(run(4096), run(8192));
    }
}
