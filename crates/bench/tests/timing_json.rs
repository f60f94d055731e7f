//! The `figures --timing FILE` artifact, read back from a real run of the
//! binary: CI gates the full sweep's `wall_seconds` on a ceiling, so that
//! field must be a number, and the per-figure sums must add up to the
//! top-level sum of cell wall times.
//!
//! Runs the fast fig10b grid, whose analytic KVStore-baseline cells stay
//! fast in debug builds.

use std::process::Command;

use m2ndp_bench::json::Json;
use m2ndp_bench::sweep::{self, FigId};

#[test]
fn timing_json_reports_wall_seconds_and_consistent_cell_sums() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("timing_json");
    let timing = dir.join("timing.json");
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args([
            "--only", "fig10b", "--fast", "--jobs", "1", "--quiet", "--out",
        ])
        .arg(dir.join("figures"))
        .arg("--timing")
        .arg(&timing)
        .status()
        .expect("figures binary runs");
    assert!(status.success(), "figures exited with {status}");
    let text = std::fs::read_to_string(&timing).expect("--timing file written");
    let json = Json::parse(&text).expect("--timing file is JSON");

    assert_eq!(json.get("schema_version"), Some(&Json::U64(5)));
    assert_eq!(json.get("jobs"), Some(&Json::U64(1)));
    let Json::Obj(fields) = &json else {
        panic!("--timing file is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys.join(" "),
        "schema_version generator fast jobs cells wall_seconds cell_wall_seconds_sum figures \
         cell_timing",
        "schema 5 records one worker count, `jobs`"
    );
    let wall = json.get("wall_seconds").and_then(Json::as_f64);
    assert!(
        wall.is_some_and(|w| w.is_finite() && w >= 0.0),
        "top-level wall_seconds must be a number: {wall:?}"
    );

    let n_cells = sweep::cells(FigId::Fig10b, true).len();
    assert_eq!(json.get("cells"), Some(&Json::U64(n_cells as u64)));
    let Some(Json::Obj(cell_timing)) = json.get("cell_timing") else {
        panic!("cell_timing is not an object");
    };
    assert_eq!(cell_timing.len(), n_cells, "one cell_timing entry per cell");

    let total = json
        .get("cell_wall_seconds_sum")
        .and_then(Json::as_f64)
        .expect("top-level cell_wall_seconds_sum");
    let fig = json
        .get("figures")
        .and_then(|f| f.get("fig10b"))
        .expect("per-figure entry for fig10b");
    assert_eq!(fig.get("cells"), Some(&Json::U64(n_cells as u64)));
    assert!(
        fig.get("wall_seconds").is_none(),
        "a sum is not a wall time"
    );
    let fig_sum = fig
        .get("cell_wall_seconds_sum")
        .and_then(Json::as_f64)
        .expect("per-figure cell_wall_seconds_sum");
    assert!(
        (fig_sum - total).abs() <= 1e-9,
        "per-figure sum {fig_sum} != top-level sum {total}"
    );
}
