//! Whole-grid fleet throughput: cells per second of the paper's 18 × 5
//! result grid (every suite benchmark crossed with five DTM policies on
//! a hot 107 C heatsink) through the uncached engine dispatch — the
//! quantity `BENCH_grid.json` pins.
//!
//! One row, normalized to ns per grid cell (grid wall time over cell
//! count, so lower is better and the checker's ratio convention holds):
//!
//! - `grid18x5_ref_ns_per_cell`: `ExperimentGrid::run_threads_cached(_, None)`
//!   (one `GridCell::run_chip` per cell, no result cache).
//!
//! The committed baseline also carries a `*_before` row — the per-cell
//! dispatch measured before the ready-list core scheduler, kept for the
//! speedup record; `--check` ignores rows the current run does not
//! produce.
//!
//! Flags (after `--`):
//!
//! - `--json <path>`: write the measured rows as JSON (the committed
//!   baseline at the repo root is `BENCH_grid.json`).
//! - `--check <path>`: compare against a committed baseline and exit
//!   nonzero if any shared row regressed more than 3×.
//! - `--quick`: single repetition per row (the tier-1 smoke).

use tdtm_bench::microbench::{black_box, Harness};
use tdtm_core::engine::ExperimentGrid;
use tdtm_core::experiments::ExperimentScale;
use tdtm_core::SimConfig;
use tdtm_dtm::PolicyKind;

/// Regression tolerance for `--check`: current ns/op may be at most this
/// many times the committed baseline.
const CHECK_TOLERANCE: f64 = 3.0;

/// Worker threads for the grid runs — fixed so the row is comparable
/// across machine shapes.
const THREADS: usize = 4;

/// The paper's result grid at quick scale, on a hot heatsink so every
/// policy actually actuates: 18 benchmarks × 5 policies = 90 cells.
fn grid() -> ExperimentGrid {
    fn hot(cfg: &mut SimConfig) {
        cfg.heatsink_temp = 107.0;
    }
    ExperimentGrid::new(ExperimentScale::quick()).suite().policies(&[
        PolicyKind::None,
        PolicyKind::Toggle1,
        PolicyKind::Pid,
        PolicyKind::VfScale,
        PolicyKind::Hierarchical,
    ])
    .variant("hot", hot)
}

/// Times whole grid executions on [`THREADS`] workers, normalized to ns
/// per cell, and prints the fleet rate in cells per second.
fn bench_grid(h: &mut Harness, name: &str, reps: u32) {
    let grid = grid();
    let cells = grid.len() as f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let results = grid.run_threads_cached(THREADS, None);
        assert_eq!(results.runs.len(), grid.len());
        black_box(&results.runs);
        best = best.min(results.wall_seconds);
    }
    let ns = best * 1e9 / cells;
    println!(
        "{name:<44} {ns:>14.0} ns/cell {:>10.2} cells/s  ({} cells, {THREADS} threads)",
        cells / best,
        grid.len(),
    );
    h.push_row(name, ns);
}

/// Minimal parser for the flat `{"name": ns, ...}` objects
/// [`Harness::to_json`] emits.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim().trim_matches('"');
        if let Ok(ns) = value.trim().parse::<f64>() {
            rows.push((name.to_string(), ns));
        }
    }
    rows
}

fn check_against(baseline_path: &str, h: &Harness) -> bool {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text);
    let mut ok = true;
    for (name, ns) in h.results() {
        let Some((_, base)) = baseline.iter().find(|(b, _)| b == name) else {
            continue;
        };
        let ratio = ns / base;
        let verdict = if ratio <= CHECK_TOLERANCE { "ok" } else { "REGRESSED" };
        println!("check {name:<40} {ns:>14.0} vs {base:>14.0} ns/cell  ({ratio:>5.2}x)  {verdict}");
        if ratio > CHECK_TOLERANCE {
            ok = false;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let mut h = Harness::new();

    bench_grid(&mut h, "grid18x5_ref_ns_per_cell", reps);

    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args.get(i + 1).expect("--json needs a path");
        std::fs::write(path, h.to_json()).expect("write json baseline");
        eprintln!("wrote {path}");
    }
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check needs a path");
        if !check_against(path, &h) {
            eprintln!("bench regression check FAILED (>{CHECK_TOLERANCE}x vs {path})");
            std::process::exit(1);
        }
        eprintln!("bench regression check passed (tolerance {CHECK_TOLERANCE}x)");
    }
}
