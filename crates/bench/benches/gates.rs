//! The tier-1 performance gates: `cargo bench -p tdtm-bench --bench gates`.
//!
//! Every gate times an A/B pair alternately in this one process and
//! checks the median of the per-pair B/A ratios against a bound
//! ([`Bound`]); it prints the median and range of each side (ms) and of
//! B/A. The gates' pairs run round-robin ([`run_gates`]), so each gate's
//! pairs spread across the whole target run and a host burst of a few
//! seconds lands on a few pairs of every gate rather than on all pairs of
//! one. A ratio taken within one process moves with the host, so the
//! bounds can be tight: absolute ns from another day could not fail
//! without also failing on a busy host. Exit status 1 if any gate fails.
//! The target takes no arguments.
//!
//! - **Host-normalized cells**: a whole run (or the cold 18 × 5 grid)
//!   over [`reference`], a std-only kernel that calls no `tdtm` code.
//!   Each ceiling is 1.5× the ratio it was set from: the per-run
//!   medians stay within 0.83–1.26× of it, and a cell that takes 2× as
//!   long fails.
//! - **Self-ratios**: a speedup the design promises (idle-gap skipping,
//!   the result cache) as a floor, and what full telemetry costs the
//!   loop as a ceiling.
//!
//! The recorded ratios are medians over five runs of this target on a
//! shared 2-vCPU x86-64 host, release profile (fat LTO); the range
//! beside each is the spread of those five medians.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use tdtm_bench::microbench::{run_gates, Bound, Gate};
use tdtm_core::engine::ExperimentGrid;
use tdtm_core::experiments::ExperimentScale;
use tdtm_core::{MulticoreSim, ResultCache, SimConfig, Simulator};
use tdtm_dtm::{PolicyKind, SupervisorConfig};
use tdtm_telemetry::TelemetryConfig;
use tdtm_workloads::by_name;

/// A/B pairs per single-run gate.
const PAIRS: usize = 21;
/// A/B pairs per grid gate (a cold grid pass takes 2–4 s).
const GRID_PAIRS: usize = 5;
/// Workers for the cache gates: the host's two vCPUs, as in the
/// benchmark's `grid_fleet`.
const THREADS: usize = 2;

/// `sim_run_gcc_none` / reference: recorded 3.15 (2.63–3.66).
const GCC_NONE_CEILING: f64 = 4.7;
/// `sim_run_gcc_pid` / reference: recorded 3.37 (2.99–4.25).
const GCC_PID_CEILING: f64 = 5.0;
/// `sim_run_gcc_leak` / reference: recorded 3.38 (2.91–3.82). The
/// benchmark runs no leakage cell, so this is the leakage path's only
/// timing.
const GCC_LEAK_CEILING: f64 = 5.0;
/// `sim_run_mc4_super` / reference: recorded 28.2 (23.3–28.7).
const MC4_SUPER_CEILING: f64 = 42.0;
/// Cold uncached 18 × 5 grid on one worker / reference: recorded 586
/// (491–642).
const GRID_COLD_CEILING: f64 = 880.0;
/// gcc toggle1 at 108 C, skipping off / on: recorded 2.76 (2.63–2.87).
/// Catches a disabled or degraded skip path.
const SKIP_FLOOR: f64 = 1.5;
/// 18 × 5 grid, cold / warm in-memory cache replay: recorded 120
/// (92–121).
const WARM_MEMORY_FLOOR: f64 = 5.0;
/// 18 × 5 grid, cold / warm replay from a populated cache directory:
/// recorded 101 (98–109).
const WARM_DISK_FLOOR: f64 = 5.0;
/// gcc PID run, `metrics_and_phases` telemetry / off: recorded 1.75
/// (1.66–1.79). Always-on observability aims to bring this toward 1.
const TELEMETRY_CEILING: f64 = 3.0;

/// The host yardstick: fill 256 Ki `u64` from a xorshift and sort them
/// (about 7 ms on the recording host). Returns ms.
fn reference() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = (0..1 << 18)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    black_box(&v);
    start.elapsed().as_secs_f64() * 1e3
}

/// The `sim_run_*` cells: gcc at 120k instructions.
fn cell(policy: PolicyKind, heatsink: f64) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = policy;
    cfg.max_insts = 120_000;
    cfg.heatsink_temp = heatsink;
    cfg
}

/// ms of one whole gcc run, construction (and `setup`) excluded.
fn sim_run(cfg: &SimConfig, setup: impl Fn(&mut Simulator)) -> f64 {
    let mut sim = Simulator::for_workload(cfg.clone(), &by_name("gcc").expect("suite workload"));
    setup(&mut sim);
    let start = Instant::now();
    black_box(sim.run());
    start.elapsed().as_secs_f64() * 1e3
}

/// ms of one whole gcc chip run, construction excluded.
fn chip_run(cfg: &SimConfig) -> f64 {
    let mut sim = MulticoreSim::for_workload(cfg.clone(), &by_name("gcc").expect("suite workload"));
    let start = Instant::now();
    black_box(sim.run());
    start.elapsed().as_secs_f64() * 1e3
}

/// The paper's result grid at quick scale on a hot 107 C heatsink, so
/// every policy actuates: 18 benchmarks × 5 policies = 90 cells.
fn hot_grid() -> ExperimentGrid {
    fn hot(cfg: &mut SimConfig) {
        cfg.heatsink_temp = 107.0;
    }
    let policies = [
        PolicyKind::None,
        PolicyKind::Toggle1,
        PolicyKind::Pid,
        PolicyKind::VfScale,
        PolicyKind::Hierarchical,
    ];
    ExperimentGrid::new(ExperimentScale::quick()).suite().policies(&policies).variant("hot", hot)
}

/// ms of one pass of `grid` through `cache`, asserting it simulated
/// `misses` cells (so a leaked warm cache cannot fake a cold pass).
fn grid_pass(grid: &ExperimentGrid, cache: Option<&ResultCache>, misses: u64) -> f64 {
    let results = grid.run_threads_cached(THREADS, cache);
    if let Some(stats) = results.cache_stats {
        assert_eq!(stats.cache_misses, misses, "wrong number of simulated cells");
    }
    black_box(&results.runs);
    results.wall_seconds * 1e3
}

/// A gate on `run` (ms) over [`reference`] at `ceiling`.
fn normalized<'a>(
    name: &str,
    ceiling: f64,
    pairs: usize,
    run: impl FnMut() -> f64 + 'a,
) -> Gate<'a> {
    Gate::new(format!("{name} / reference"), pairs, Bound::Ceiling(ceiling), reference, run)
}

fn main() {
    let start = Instant::now();

    let mut leak = cell(PolicyKind::None, 103.0);
    leak.leakage = Some(tdtm_power::LeakageModel::node_180nm());
    let mut mc4 = cell(PolicyKind::Pid, 107.0);
    mc4.chip.cores = 4;
    mc4.chip.neighbor_policy = Some(PolicyKind::None);
    mc4.chip.supervisor = Some(SupervisorConfig::default());
    let none = cell(PolicyKind::None, 103.0);
    let pid = cell(PolicyKind::Pid, 107.0);
    // At 108 C toggle1 gates fetch from the first sample to the
    // `max_cycles` cap: the pure idle-gap regime.
    let mut toggle = cell(PolicyKind::Toggle1, 108.0);
    toggle.max_cycles = 1_000_000;
    let mut traced = SimConfig::quick_test();
    traced.dtm.policy = PolicyKind::Pid;
    traced.max_insts = 60_000;
    let phases = TelemetryConfig::metrics_and_phases();

    let grid = hot_grid();
    let cells = grid.len() as u64;
    // Warm memory replays the most recent cold pass's cache.
    let memory = RefCell::new(ResultCache::in_memory());
    grid_pass(&grid, Some(&memory.borrow()), cells);
    // Warm disk: a fresh cache over a populated directory per pass, the
    // shape of a new process.
    let dir = std::env::temp_dir().join(format!("tdtm-gates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = || {
        let cache = ResultCache::with_disk(&dir);
        assert!(cache.has_disk_tier(), "gates need a writable temp dir");
        cache
    };
    grid_pass(&grid, Some(&disk()), cells);

    let ok = run_gates(vec![
        normalized("sim_run_gcc_none", GCC_NONE_CEILING, PAIRS, || sim_run(&none, |_| {})),
        normalized("sim_run_gcc_pid", GCC_PID_CEILING, PAIRS, || sim_run(&pid, |_| {})),
        normalized("sim_run_gcc_leak", GCC_LEAK_CEILING, PAIRS, || sim_run(&leak, |_| {})),
        normalized("sim_run_mc4_super", MC4_SUPER_CEILING, PAIRS, || chip_run(&mc4)),
        Gate::new(
            "sim_run_gcc_toggle noskip / skip",
            PAIRS,
            Bound::Floor(SKIP_FLOOR),
            || sim_run(&toggle, |sim| sim.set_skip(true)),
            || sim_run(&toggle, |sim| sim.set_skip(false)),
        ),
        Gate::new(
            "sim_run_gcc_pid metrics_and_phases / off",
            PAIRS,
            Bound::Ceiling(TELEMETRY_CEILING),
            || sim_run(&traced, |_| {}),
            || sim_run(&traced, |sim| sim.enable_telemetry(&phases)),
        ),
        // One worker, like the reference: a second worker would make the
        // ratio depend on how busy the host's other vCPU is.
        normalized("grid18x5_cold, 1 worker", GRID_COLD_CEILING, GRID_PAIRS, || {
            grid.run_threads_cached(1, None).wall_seconds * 1e3
        }),
        Gate::new(
            "grid18x5 cold / warm memory",
            GRID_PAIRS,
            Bound::Floor(WARM_MEMORY_FLOOR),
            || grid_pass(&grid, Some(&memory.borrow()), 0),
            || {
                let fresh = ResultCache::in_memory();
                let ms = grid_pass(&grid, Some(&fresh), cells);
                *memory.borrow_mut() = fresh;
                ms
            },
        ),
        Gate::new(
            "grid18x5 cold / warm disk",
            GRID_PAIRS,
            Bound::Floor(WARM_DISK_FLOOR),
            || grid_pass(&grid, Some(&disk()), 0),
            || grid_pass(&grid, Some(&ResultCache::in_memory()), cells),
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);

    println!("gates: {:.1} s wall", start.elapsed().as_secs_f64());
    if !ok {
        eprintln!("a performance gate FAILED (above)");
        std::process::exit(1);
    }
}
