//! The sweep determinism contract: a sweep run with `--jobs 1` and a sweep
//! run with `--jobs 4` must emit **byte-identical** JSON. Every cell builds
//! its own deterministic device/model, so thread scheduling may reorder
//! execution but never the results.
//!
//! Uses the cheap analytic KVStore-baseline cells so the test stays fast in
//! debug builds; the full-device path goes through the exact same executor
//! and emitter (and is exercised at release speed by CI's `figures-smoke`
//! job).

use m2ndp_bench::sweep::{
    consolidated_json, consolidated_metrics, derive, figure_json, run_cells_timed, CellOut,
    CellSpec, FigId,
};

fn specs() -> Vec<CellSpec> {
    (0..8)
        .map(|i| CellSpec::kvs_baseline_cell(FigId::Fig10b, &format!("det{i}"), 300 + i * 37))
        .collect()
}

/// The cell outputs of a sweep on `jobs` workers, in cell order.
fn run_cells(cells: &[CellSpec], jobs: usize) -> Vec<CellOut> {
    run_cells_timed(cells, jobs, false)
        .into_iter()
        .map(|run| run.out)
        .collect()
}

#[test]
fn jobs1_and_jobs4_sweeps_emit_byte_identical_json() {
    let cells = specs();
    let serial = run_cells(&cells, 1);
    let parallel = run_cells(&cells, 4);

    let figure = |outs: &[_]| {
        let metrics = derive(FigId::Fig10b, outs);
        figure_json(FigId::Fig10b, outs, &metrics).pretty()
    };
    assert_eq!(figure(&serial), figure(&parallel));

    let consolidated = |outs: &[CellOut]| {
        let metrics = derive(FigId::Fig10b, outs);
        let results = vec![(FigId::Fig10b, outs.to_vec(), metrics)];
        (
            consolidated_json(&results, false).pretty(),
            consolidated_metrics(&results),
        )
    };
    let (json_serial, metrics_serial) = consolidated(&serial);
    let (json_parallel, metrics_parallel) = consolidated(&parallel);
    assert_eq!(
        json_serial, json_parallel,
        "consolidated JSON must be byte-identical"
    );
    assert_eq!(metrics_serial, metrics_parallel);
}

#[test]
fn every_job_budget_emits_identical_cell_outputs() {
    // The worker count may only change wall-clock and worker assignment,
    // never the outputs. Worker ids must stay inside the pool.
    let cells = specs();
    let reference = run_cells_timed(&cells, 1, false);
    for jobs in [2, 4, 8] {
        let runs = run_cells_timed(&cells, jobs, false);
        for (a, b) in reference.iter().zip(&runs) {
            assert_eq!(a.out.key, b.out.key, "jobs={jobs}");
            assert_eq!(a.out.ns.to_bits(), b.out.ns.to_bits(), "{}", b.out.key);
            assert!(b.worker < jobs, "jobs={jobs}");
        }
    }
}

#[test]
fn repeated_serial_sweeps_are_stable() {
    let cells = specs();
    let a = run_cells(&cells, 1);
    let b = run_cells(&cells, 1);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{}", x.key);
    }
}
