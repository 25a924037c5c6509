//! Warm-repeat fleet throughput: cells per second of the paper's 18 × 5
//! result grid when the content-addressed result cache can replay prior
//! work — the quantity the cross-run memoization optimizes and the one
//! `BENCH_grid.json` pins alongside the cold rows from
//! `grid_throughput`.
//!
//! Three rows, normalized to ns per grid cell (grid wall time over cell
//! count; lower is better, matching the checker's ratio convention):
//!
//! - `grid18x5_repeat_cold_ns_per_cell`: first contact — a fresh cache,
//!   every cell simulates and publishes. This is the cached engine's
//!   cold overhead row (fingerprinting + publication on top of the
//!   per-cell dispatch `grid18x5_ref_ns_per_cell` measures).
//! - `grid18x5_repeat_warm_mem_ns_per_cell`: the same grid re-run
//!   against the now-populated in-memory tier — every cell replays.
//! - `grid18x5_repeat_warm_disk_ns_per_cell`: a fresh cache per
//!   repetition over a populated cache directory —
//!   models a new process warming from disk (parse + promote, no
//!   simulation).
//!
//! The bench self-gates the headline claim: the warm in-memory repeat
//! must be at least [`WARM_SPEEDUP_FLOOR`]× the cold rate, or the run
//! exits nonzero. `scripts/tier1.sh` runs this with `--quick --check`.
//!
//! Flags (after `--`):
//!
//! - `--json <path>`: write the measured rows as JSON (the committed
//!   baseline at the repo root is `BENCH_grid.json`).
//! - `--check <path>`: compare against a committed baseline and exit
//!   nonzero if any shared row regressed more than 3×.
//! - `--quick`: single cold repetition (the tier-1 smoke); warm rows
//!   stay best-of-3 — replays are cheap and the first can eat a page
//!   fault.

use tdtm_bench::microbench::{black_box, Harness};
use tdtm_core::engine::ExperimentGrid;
use tdtm_core::experiments::ExperimentScale;
use tdtm_core::{ResultCache, SimConfig};
use tdtm_dtm::PolicyKind;

/// Regression tolerance for `--check`: current ns/op may be at most this
/// many times the committed baseline.
const CHECK_TOLERANCE: f64 = 3.0;

/// Worker threads for the grid runs — fixed so the row is comparable
/// across machine shapes.
const THREADS: usize = 4;

/// The headline acceptance claim this bench gates: warm in-memory
/// repeats must deliver at least this many times the cold cells/s.
const WARM_SPEEDUP_FLOOR: f64 = 5.0;

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

fn report_row(h: &mut Harness, name: &str, best_seconds: f64, cells: usize) -> f64 {
    let ns = best_seconds * 1e9 / cells as f64;
    println!(
        "{name:<44} {ns:>14.0} ns/cell {:>10.2} cells/s  ({cells} cells, {THREADS} threads)",
        cells as f64 / best_seconds,
    );
    h.push_row(name, ns);
    ns
}

/// One cold pass into `cache`, timed. Asserts the pass actually
/// simulated (all misses) so a leaked warm cache can't fake the row.
fn cold_pass(grid: &ExperimentGrid, cache: &ResultCache) -> f64 {
    let results = grid.run_threads_cached(THREADS, Some(cache));
    let stats = results.cache_stats.expect("cached run reports stats");
    assert_eq!(stats.cache_hits, 0, "cold pass must not hit");
    black_box(&results.runs);
    results.wall_seconds
}

/// One warm pass against `cache`, timed. Asserts every cell replayed.
fn warm_pass(grid: &ExperimentGrid, cache: &ResultCache) -> f64 {
    let results = grid.run_threads_cached(THREADS, Some(cache));
    let stats = results.cache_stats.expect("cached run reports stats");
    assert_eq!(stats.cache_misses, 0, "warm pass must not simulate");
    black_box(&results.runs);
    results.wall_seconds
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
    let cold_reps = if quick { 1 } else { 3 };
    let cells = grid().len();
    let mut h = Harness::new();

    // Cold: a fresh cache per repetition, so every pass pays the full
    // simulation plus fingerprint/publish overhead.
    let grid = grid();
    let mut cold_best = f64::INFINITY;
    let mut last_cache = None;
    for _ in 0..cold_reps {
        let cache = ResultCache::in_memory();
        cold_best = cold_best.min(cold_pass(&grid, &cache));
        last_cache = Some(cache);
    }
    let cold_ns = report_row(&mut h, "grid18x5_repeat_cold_ns_per_cell", cold_best, cells);

    // Warm memory: repeats against the last cold pass's populated
    // in-memory tier. Best-of-3 even under --quick — replays are cheap.
    let mem_cache = last_cache.expect("at least one cold rep");
    let mut warm_mem_best = f64::INFINITY;
    for _ in 0..3 {
        warm_mem_best = warm_mem_best.min(warm_pass(&grid, &mem_cache));
    }
    let warm_mem_ns =
        report_row(&mut h, "grid18x5_repeat_warm_mem_ns_per_cell", warm_mem_best, cells);

    // Warm disk: populate a cache directory once, then time fresh
    // caches over it (new-process shape: memory empty, disk warm).
    let dir = std::env::temp_dir()
        .join(format!("tdtm-grid-repeat-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cold_pass(&grid, &ResultCache::with_disk(&dir));
    let mut warm_disk_best = f64::INFINITY;
    for _ in 0..3 {
        let cache = ResultCache::with_disk(&dir);
        assert!(cache.has_disk_tier(), "bench needs a writable temp dir");
        warm_disk_best = warm_disk_best.min(warm_pass(&grid, &cache));
    }
    let _ = std::fs::remove_dir_all(&dir);
    report_row(&mut h, "grid18x5_repeat_warm_disk_ns_per_cell", warm_disk_best, cells);

    // The acceptance gate: warm in-memory repeats at least
    // WARM_SPEEDUP_FLOOR× the cold rate.
    let speedup = cold_ns / warm_mem_ns;
    println!("warm-mem speedup over cold: {speedup:.1}x (floor {WARM_SPEEDUP_FLOOR}x)");
    if speedup < WARM_SPEEDUP_FLOOR {
        eprintln!("warm-repeat speedup {speedup:.1}x below the {WARM_SPEEDUP_FLOOR}x floor");
        std::process::exit(1);
    }

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
