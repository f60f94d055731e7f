//! `figures` — the parallel figure-sweep runner with machine-readable
//! results and paper-anchored regression gates.
//!
//! ```text
//! cargo run --release -p m2ndp_bench --bin figures -- [options]
//!
//!   --only fig10a,fig10c   run a subset of figures (default: all)
//!   --fast                 the documented fast subset of each figure's grid
//!   --jobs N               workers running whole cells concurrently
//!                          (default: $M2NDP_JOBS, else available cores);
//!                          a fleet inside a cell runs its devices one
//!                          after another
//!   --check                gate the emitted ratios on the paper-anchored
//!                          tolerance bands; nonzero exit on drift
//!   --out DIR              output directory (default: target/figures)
//!   --timing FILE          also write a wall-clock timing JSON (whole-sweep
//!                          wall seconds, per-cell wall seconds and
//!                          worker ids, per-figure sums of cell wall
//!                          seconds, and --jobs; wall times never enter
//!                          the result JSON)
//!   --trace DIR            also re-run every selected serving cell with
//!                          the observability layer on and write one Chrome
//!                          trace-event JSON per cell to DIR (load in
//!                          Perfetto / chrome://tracing, or feed to the
//!                          `m2ndp-trace` CLI). Tracing is opt-in and
//!                          side-buffered: the sweep results above stay
//!                          byte-identical
//!   --snapshot FILE        staleness gate: every cell computed by this run
//!                          must exist in FILE (a committed consolidated
//!                          BENCH_RESULTS.json) with byte-identical values;
//!                          nonzero exit otherwise. Cells are mode-stable,
//!                          so a --fast run can be checked against a
//!                          full-sweep snapshot.
//!   --scheduler NAME       run the fig11c serving cells under a different
//!                          scheduler (static-fifo | shortest-queue |
//!                          priority-slo; default static-fifo).
//!                          static-fifo is snapshot-pinned; the dynamic
//!                          kinds serve a replicated store and are gated
//!                          on determinism (cmp across job budgets), not
//!                          on the snapshot
//!   --list                 list figures and bands, run nothing
//!   --quiet                no tables / per-cell progress, just files + gate
//! ```
//!
//! Emits one `DIR/<fig>.json` per figure plus a consolidated
//! `DIR/BENCH_RESULTS.json`. Every cell builds its own deterministic
//! device, so any `--jobs` value produces byte-identical JSON.

use std::process::ExitCode;

use m2ndp::host::serve::SchedulerKind;
use m2ndp::sim::par;
use m2ndp_bench::golden::{self, Verdict};
use m2ndp_bench::json::Json;
use m2ndp_bench::sweep::{self, CellOut, CellRun, FigId, Metric};

struct Options {
    only: Vec<FigId>,
    fast: bool,
    jobs: usize,
    check: bool,
    out: String,
    timing: Option<String>,
    trace: Option<String>,
    snapshot: Option<String>,
    scheduler: Option<SchedulerKind>,
    list: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--only fig10a,fig10c,...] [--fast] [--jobs N] [--check] \
         [--out DIR] [--timing FILE] [--trace DIR] [--snapshot FILE] \
         [--scheduler NAME] [--list] [--quiet]\nfigures: {}\nschedulers: {}",
        FigId::all().map(FigId::id).join(", "),
        SchedulerKind::all().map(SchedulerKind::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        only: FigId::all().to_vec(),
        fast: false,
        jobs: par::env_jobs("M2NDP_JOBS").unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
        check: false,
        out: "target/figures".to_string(),
        timing: None,
        trace: None,
        snapshot: None,
        scheduler: None,
        list: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => {
                let list = args.next().unwrap_or_else(|| usage());
                opts.only.clear();
                for tok in list.split(',') {
                    let fig = FigId::parse(tok.trim()).unwrap_or_else(|| {
                        eprintln!("unknown figure `{tok}`");
                        usage()
                    });
                    // Dedup: a repeated token would run its cells twice and
                    // emit duplicate keys in the consolidated JSON.
                    if !opts.only.contains(&fig) {
                        opts.only.push(fig);
                    }
                }
            }
            "--fast" => opts.fast = true,
            "--jobs" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.jobs = n.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a positive integer, got `{n}`");
                    usage()
                });
                if opts.jobs == 0 {
                    eprintln!("--jobs must be >= 1");
                    usage();
                }
            }
            "--check" => opts.check = true,
            "--out" => opts.out = args.next().unwrap_or_else(|| usage()),
            "--timing" => opts.timing = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--snapshot" => opts.snapshot = Some(args.next().unwrap_or_else(|| usage())),
            "--scheduler" => {
                let name = args.next().unwrap_or_else(|| usage());
                let kind = SchedulerKind::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown scheduler `{name}`");
                    usage()
                });
                opts.scheduler = Some(kind);
            }
            "--list" => opts.list = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option `{other}`");
                usage();
            }
        }
    }
    opts
}

fn list_figures() {
    println!("figures (cells full/fast):");
    for fig in FigId::all() {
        println!(
            "  {:<7} {:>3} / {:<3} {}",
            fig.id(),
            sweep::cells(fig, false).len(),
            sweep::cells(fig, true).len(),
            fig.title()
        );
    }
    println!("\ngolden bands ({}):", golden::bands().len());
    for band in golden::bands() {
        println!(
            "  {:<48} [{} .. {}]  ({})",
            band.metric, band.lo, band.hi, band.paper
        );
    }
}

/// The `--timing` artifact (schema v5): the sweep's wall seconds, each
/// cell's wall seconds, pool worker and simulated instructions per wall
/// second (`sim_instrs_per_sec`, from the device's retired-instruction
/// counter), the `--jobs` worker count, and per figure the sum of its
/// cells' wall seconds (`cell_wall_seconds_sum`; with several workers it
/// can exceed the sweep's wall time). Wall clock and worker assignment are
/// inherently non-deterministic and therefore live in their own file, never
/// in `BENCH_RESULTS.json`.
fn timing_json(
    opts: &Options,
    cells: &[sweep::CellSpec],
    runs: &[CellRun],
    wall_total: f64,
) -> Json {
    let mut per_fig: Vec<(FigId, f64, u64)> = Vec::new();
    for (cell, run) in cells.iter().zip(runs) {
        match per_fig.iter_mut().find(|(f, _, _)| *f == cell.fig) {
            Some((_, acc, n)) => {
                *acc += run.wall_s;
                *n += 1;
            }
            None => per_fig.push((cell.fig, run.wall_s, 1)),
        }
    }
    Json::Obj(vec![
        ("schema_version".to_string(), Json::U64(5)),
        (
            "generator".to_string(),
            Json::Str("m2ndp_bench figures --timing".to_string()),
        ),
        ("fast".to_string(), Json::Bool(opts.fast)),
        ("jobs".to_string(), Json::U64(opts.jobs as u64)),
        ("cells".to_string(), Json::U64(cells.len() as u64)),
        ("wall_seconds".to_string(), Json::F64(wall_total)),
        (
            "cell_wall_seconds_sum".to_string(),
            Json::F64(runs.iter().map(|r| r.wall_s).sum()),
        ),
        (
            "figures".to_string(),
            Json::Obj(
                per_fig
                    .into_iter()
                    .map(|(fig, sum, n)| {
                        (
                            fig.id().to_string(),
                            Json::Obj(vec![
                                ("cells".to_string(), Json::U64(n)),
                                ("cell_wall_seconds_sum".to_string(), Json::F64(sum)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "cell_timing".to_string(),
            Json::Obj(
                cells
                    .iter()
                    .zip(runs)
                    .map(|(c, run)| {
                        let mut fields = vec![
                            ("wall_seconds".to_string(), Json::F64(run.wall_s)),
                            ("worker".to_string(), Json::U64(run.worker as u64)),
                        ];
                        if let Some(instrs) =
                            run.out.stats.as_ref().map(|s| s.instrs).filter(|&i| i > 0)
                        {
                            fields.push((
                                "sim_instrs_per_sec".to_string(),
                                Json::F64(instrs as f64 / run.wall_s.max(1e-9)),
                            ));
                        }
                        (format!("{}/{}", c.fig.id(), c.key), Json::Obj(fields))
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compares every freshly computed cell against `snapshot` (a committed
/// consolidated `BENCH_RESULTS.json`). Cells are mode-stable — identical in
/// `--fast` and full sweeps — so any divergence means the committed
/// snapshot is stale relative to the simulator. Returns the mismatch
/// descriptions (empty = fresh).
fn snapshot_mismatches(
    snapshot: &Json,
    results: &[(FigId, Vec<CellOut>, Vec<Metric>)],
) -> Vec<String> {
    let mut mismatches = Vec::new();
    let Some(figures) = snapshot.get("figures") else {
        return vec!["snapshot has no `figures` object".to_string()];
    };
    for (fig, outs, _) in results {
        let Some(cells) = figures.get(fig.id()).and_then(|f| f.get("cells")) else {
            mismatches.push(format!("{}: figure missing from snapshot", fig.id()));
            continue;
        };
        let Json::Arr(cells) = cells else {
            mismatches.push(format!("{}: snapshot `cells` is not an array", fig.id()));
            continue;
        };
        for out in outs {
            let want = sweep::cell_json(out);
            let got = cells
                .iter()
                .find(|c| c.get("key") == Some(&Json::Str(out.key.clone())));
            match got {
                None => mismatches.push(format!(
                    "{}/{}: cell missing from snapshot",
                    fig.id(),
                    out.key
                )),
                Some(got) if *got != want => mismatches.push(format!(
                    "{}/{}: cell values differ from snapshot",
                    fig.id(),
                    out.key
                )),
                Some(_) => {}
            }
        }
    }
    mismatches
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.list {
        list_figures();
        return ExitCode::SUCCESS;
    }

    // One flat cell list across the selected figures, so a wide figure
    // keeps all workers busy while a narrow one finishes.
    let mut all_cells = Vec::new();
    let mut spans = Vec::new();
    for &fig in &opts.only {
        let mut specs = sweep::cells(fig, opts.fast);
        if let Some(kind) = opts.scheduler {
            specs = specs.into_iter().map(|c| c.with_scheduler(kind)).collect();
        }
        spans.push((fig, all_cells.len()..all_cells.len() + specs.len()));
        all_cells.extend(specs);
    }
    if !opts.quiet {
        eprintln!(
            "running {} cells across {} figure(s) with {} job(s){}",
            all_cells.len(),
            spans.len(),
            opts.jobs,
            if opts.fast { " (fast grid)" } else { "" }
        );
    }
    let t0 = std::time::Instant::now();
    let runs = sweep::run_cells_timed(&all_cells, opts.jobs, !opts.quiet);
    let wall_total = t0.elapsed().as_secs_f64();
    let outs: Vec<CellOut> = runs.iter().map(|r| r.out.clone()).collect();
    if !opts.quiet {
        eprintln!("sweep finished in {wall_total:.1} s wall");
    }

    if let Some(path) = &opts.timing {
        let json = timing_json(&opts, &all_cells, &runs, wall_total);
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, json.pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let results: Vec<(FigId, Vec<CellOut>, Vec<Metric>)> = spans
        .into_iter()
        .map(|(fig, span)| {
            let figure_outs: Vec<CellOut> = outs[span].to_vec();
            let metrics = sweep::derive(fig, &figure_outs);
            (fig, figure_outs, metrics)
        })
        .collect();

    // Emit per-figure JSON + the consolidated file.
    let dir = std::path::Path::new(&opts.out);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    for (fig, figure_outs, metrics) in &results {
        let path = dir.join(format!("{}.json", fig.id()));
        let text = sweep::figure_json(*fig, figure_outs, metrics).pretty();
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let consolidated = dir.join("BENCH_RESULTS.json");
    let text = sweep::consolidated_json(&results, opts.fast).pretty();
    if let Err(e) = std::fs::write(&consolidated, text + "\n") {
        eprintln!("cannot write {}: {e}", consolidated.display());
        return ExitCode::from(2);
    }

    // Opt-in observability export: re-run the serving cells traced and
    // write one Chrome trace-event JSON each. Happens after the sweep
    // output is on disk so traces can never perturb the result files.
    if let Some(trace_dir) = &opts.trace {
        let trace_dir = std::path::Path::new(trace_dir);
        if let Err(e) = std::fs::create_dir_all(trace_dir) {
            eprintln!("cannot create {}: {e}", trace_dir.display());
            return ExitCode::from(2);
        }
        let mut traced = 0usize;
        for cell in &all_cells {
            let Some(json) = sweep::traced_cell_json(cell) else {
                continue;
            };
            let name = format!(
                "{}_{}.trace.json",
                cell.fig.id(),
                cell.key.replace('/', "_")
            );
            let path = trace_dir.join(name);
            if let Err(e) = std::fs::write(&path, json.pretty() + "\n") {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            traced += 1;
        }
        if !opts.quiet {
            eprintln!(
                "{traced} trace(s) written to {} (serving cells only)",
                trace_dir.display()
            );
        }
    }

    if !opts.quiet {
        for (fig, figure_outs, metrics) in &results {
            println!();
            sweep::print_figure(*fig, figure_outs, metrics);
        }
        println!("\nresults written to {}", consolidated.display());
    }

    // Both gates always run (a stale snapshot must not mask a band
    // regression, or vice versa); failure is combined at the end.
    let mut gate_failed = false;
    if let Some(path) = &opts.snapshot {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read snapshot {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let snapshot = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("snapshot {path} is not valid JSON: {e}");
                return ExitCode::from(2);
            }
        };
        let mismatches = snapshot_mismatches(&snapshot, &results);
        println!(
            "\nsnapshot gate against {path}: {} cell(s) checked, {} stale",
            results.iter().map(|(_, outs, _)| outs.len()).sum::<usize>(),
            mismatches.len()
        );
        if !mismatches.is_empty() {
            for m in &mismatches {
                println!("  STALE {m}");
            }
            eprintln!(
                "{path} is stale relative to the sweep output; regenerate it with a full \
                 sweep (`figures --jobs N --out target/figures`) and commit the new \
                 BENCH_RESULTS.json"
            );
            gate_failed = true;
        }
    }

    if opts.check {
        let report = golden::check(&sweep::consolidated_metrics(&results));
        println!("\npaper-anchored gate ({} bands):", report.checked.len());
        for c in &report.checked {
            match &c.verdict {
                Verdict::Pass { value } => println!(
                    "  PASS {:<48} {value:.4} in [{} .. {}]",
                    c.band.metric, c.band.lo, c.band.hi
                ),
                Verdict::Fail { value } => println!(
                    "  FAIL {:<48} {value:.4} outside [{} .. {}]  ({})",
                    c.band.metric, c.band.lo, c.band.hi, c.band.paper
                ),
                Verdict::Skipped => {
                    if !opts.quiet {
                        println!("  skip {:<48} (metric not emitted)", c.band.metric);
                    }
                }
            }
        }
        println!(
            "gate: {} evaluated, {} failed",
            report.evaluated(),
            report.failures().len()
        );
        if !report.passed() {
            gate_failed = true;
        }
    }
    if gate_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
