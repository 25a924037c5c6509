//! The engine's determinism contract: a sharded experiment grid must
//! produce byte-identical results for any worker count (`TDTM_THREADS=1`
//! reproduces `TDTM_THREADS=N`), and every enumerated cell must be run
//! exactly once.

use tdtm::core::engine::{shard_map, ExperimentGrid};
use tdtm::core::experiments::ExperimentScale;
use tdtm::core::report::reports_to_csv;
use tdtm::core::{ResultCache, SimConfig};
use tdtm::dtm::{PolicyKind, SupervisorConfig};
use tdtm::telemetry::{CellRecord, MemorySink, TelemetryConfig};
use tdtm::workloads::by_name;

/// One single-core cell family plus a supervised two-core chip variant,
/// so the determinism contract covers the multicore dispatch path too.
fn small_grid() -> ExperimentGrid {
    fn chip2(cfg: &mut SimConfig) {
        cfg.chip.cores = 2;
        cfg.chip.supervisor = Some(SupervisorConfig::default());
    }
    ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .workload(by_name("art").expect("suite workload"))
        .workload(by_name("crafty").expect("suite workload"))
        .policies(&[PolicyKind::None, PolicyKind::Pid])
        .variants(&[("base", |_| {}), ("chip2", chip2)])
}

#[test]
fn one_thread_reproduces_many_threads_byte_for_byte() {
    // Explicitly uncached: with the default-on result cache, a second
    // `run_threads` call would replay the first run's reports and this
    // test would stop exercising thread-count determinism.
    let grid = small_grid();
    let serial = grid.run_threads_uncached(1);
    let parallel = grid.run_threads_uncached(4);
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);

    // The scientific results are identical down to the serialized bytes;
    // only the host-side timing observability may differ.
    let csv_serial = reports_to_csv(&serial.reports());
    let csv_parallel = reports_to_csv(&parallel.reports());
    assert_eq!(csv_serial, csv_parallel, "thread count must not leak into results");
    for (a, b) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(a.report, b.report, "cell {} diverged across thread counts", a.label());
        assert_eq!(a.obs.thermal_steps, b.obs.thermal_steps);
        assert_eq!(a.obs.committed, b.obs.committed);
        assert_eq!(a.obs.dtm_samples, b.obs.dtm_samples);
    }
}

#[test]
fn per_run_observability_is_populated() {
    let results = small_grid().run_threads(2);
    for run in &results.runs {
        assert!(run.obs.wall_seconds > 0.0, "{}: wall clock missing", run.label());
        assert!(run.obs.cycles_per_second() > 0.0, "{}: throughput missing", run.label());
        assert!(run.obs.thermal_steps >= run.report.cycles);
        assert!(run.obs.committed >= 30_000, "{}: quick scale retires >=30k", run.label());
        assert!(run.obs.dtm_samples > 0, "{}: the controller must be invoked", run.label());
    }
    assert!(results.wall_seconds > 0.0);
}

#[test]
fn every_cell_appears_exactly_once() {
    // Property-style sweep over randomly shaped grids: the enumeration
    // must cover the full cross product with stable, gapless indices, and
    // an executed grid must return exactly one result per cell, in order.
    let names = ["gcc", "art", "crafty", "mesa", "gzip"];
    let policy_pool =
        [PolicyKind::None, PolicyKind::Toggle1, PolicyKind::Pid, PolicyKind::Throttle];
    tdtm_prng::cases(16, 0x5eed_e791, |rng| {
        let n_workloads = 1 + rng.index(3);
        let n_policies = 1 + rng.index(policy_pool.len() - 1);
        let start = rng.index(names.len());
        let mut grid = ExperimentGrid::new(ExperimentScale::quick());
        // Consecutive names from a random start: distinct by construction.
        for k in 0..n_workloads {
            grid = grid.workload(by_name(names[(start + k) % names.len()]).unwrap());
        }
        let policies: Vec<PolicyKind> = policy_pool[..n_policies].to_vec();
        grid = grid.policies(&policies);

        let cells = grid.cells();
        assert_eq!(cells.len(), n_workloads * n_policies);
        let mut labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i, "indices must be gapless and in order");
        }
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "no duplicate cells");
    });

    // Execute one shaped grid and check the run-once property end to end:
    // results come back one per cell, in cell order, with matching labels.
    let grid = small_grid();
    let cells = grid.cells();
    let results = grid.run_threads(3);
    assert_eq!(results.runs.len(), cells.len());
    for (cell, run) in cells.iter().zip(&results.runs) {
        assert_eq!(run.index, cell.index);
        assert_eq!(run.label(), cell.label());
        assert_eq!(run.report.name, cell.workload.name);
        assert_eq!(run.report.policy, cell.policy.to_string());
    }
}

#[test]
fn cached_rerun_replays_byte_identical_reports() {
    // One explicit cache shared by two runs of the same grid: the first
    // run misses every cell and publishes, the second replays everything
    // from memory. Both must be bit-identical to the uncached reference
    // path (the Debug rendering distinguishes every bit pattern short
    // of NaN).
    let grid = small_grid();
    let cache = ResultCache::in_memory();
    let reference = grid.run_threads_uncached(1);
    let cold = grid.run_threads_cached(4, &cache);
    let warm = grid.run_threads_cached(4, &cache);

    let n = reference.runs.len() as u64;
    let cold_stats = cold.cache_stats.expect("cached run reports stats");
    assert_eq!((cold_stats.cache_hits, cold_stats.cache_misses), (0, n));
    let warm_stats = warm.cache_stats.expect("cached run reports stats");
    assert_eq!((warm_stats.cache_hits, warm_stats.cache_misses), (n, 0));
    assert_eq!(warm_stats.hit_rate(), Some(1.0));

    for (r, c, w) in reference.runs.iter().zip(&cold.runs).zip(&warm.runs).map(|((a, b), c)| (a, b, c)) {
        assert_eq!(r.index, c.index);
        assert_eq!(r.index, w.index);
        assert_eq!(
            format!("{:?}", r.report),
            format!("{:?}", c.report),
            "cell {}: cold cached run diverged from the uncached reference",
            r.label()
        );
        assert_eq!(
            format!("{:?}", r.report),
            format!("{:?}", w.report),
            "cell {}: warm replay diverged from the uncached reference",
            r.label()
        );
        assert!(w.obs.wall_seconds > 0.0, "replayed cells still carry a wall clock");
    }
}

#[test]
fn identical_cells_within_a_grid_simulate_once() {
    // Two variants with byte-identical configs fingerprint identically:
    // the engine claims the first as leader, marks the twin a follower,
    // and simulates only once. The follower replays the leader's report
    // under its own label.
    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .policies(&[PolicyKind::None, PolicyKind::Pid])
        .variants(&[("base", |_| {}), ("twin", |_| {})]);
    let cache = ResultCache::in_memory();
    let results = grid.run_threads_cached(4, &cache);
    let stats = results.cache_stats.expect("cached run reports stats");
    assert_eq!(stats.cache_misses, 2, "one simulation per distinct fingerprint");
    assert_eq!(stats.cache_hits, 2, "each twin replays its leader");
    assert_eq!(stats.cache_inflight_waits, 2);
    assert_eq!(results.runs.len(), 4);
    for run in &results.runs {
        let leader = results
            .runs
            .iter()
            .find(|r| r.report.policy == run.report.policy && r.index != run.index)
            .expect("every cell has a twin");
        assert_eq!(
            format!("{:?}", run.report),
            format!("{:?}", leader.report),
            "twin cells must carry identical reports"
        );
    }

    // The streamed twin grid resolves the same way: one simulation per
    // distinct fingerprint, and each twin's record is its leader's apart
    // from the identity fields.
    let mut sink = MemorySink::new();
    let streamed = grid.run_streaming_cached(
        4,
        &TelemetryConfig::metrics_and_phases(),
        &mut sink,
        &ResultCache::in_memory(),
    );
    let stats = streamed.cache_stats.expect("cached run reports stats");
    assert_eq!(stats.cache_misses, 2, "one streamed simulation per distinct fingerprint");
    assert_eq!(stats.cache_hits, 2, "each streamed twin replays its leader");
    assert_eq!(sink.records.len(), 4);
    let with_identity_of = |record: &CellRecord, other: &CellRecord| CellRecord {
        index: other.index,
        label: other.label.clone(),
        variant: other.variant.clone(),
        ..record.clone()
    };
    for run in &streamed.runs {
        let leader = streamed
            .runs
            .iter()
            .find(|r| r.report.policy == run.report.policy && r.index != run.index)
            .expect("every cell has a twin");
        assert_eq!(format!("{:?}", run.report), format!("{:?}", leader.report));
        assert!(
            with_identity_of(&leader.extra, &run.extra).deterministic_eq(&run.extra),
            "twin record diverges from its leader's:\n{:?}\n{:?}",
            run.extra,
            leader.extra
        );
    }
}

#[test]
fn streamed_grid_reports_match_the_uncached_reference() {
    // The streaming entry point resolves and simulates cells through the
    // same chip-aware path as the plain one: single-core and two-core
    // cells alike come back byte-identical to the uncached reference.
    let grid = small_grid();
    let reference = grid.run_threads_uncached(1);
    let mut sink = MemorySink::new();
    let streamed = grid.run_streaming_cached(
        2,
        &TelemetryConfig::metrics_and_phases(),
        &mut sink,
        &ResultCache::in_memory(),
    );
    assert_eq!(sink.records.len(), reference.runs.len());
    assert_eq!(
        reports_to_csv(&reference.reports()),
        reports_to_csv(&streamed.reports()),
        "streamed reports diverge from the uncached reference"
    );
    for (r, s) in reference.runs.iter().zip(&streamed.runs) {
        assert_eq!(r.index, s.index);
        assert_eq!(
            format!("{:?}", r.report),
            format!("{:?}", s.report),
            "cell {}: streamed report diverged from the uncached reference",
            r.label()
        );
        assert!(r.obs.deterministic_eq(&s.obs), "cell {}: observation diverged", r.label());
    }
}

#[test]
fn shard_map_runs_each_item_once_under_contention() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
    let items: Vec<usize> = (0..100).collect();
    let out = shard_map(&items, 8, |i, &x| {
        hits[x].fetch_add(1, Ordering::SeqCst);
        i
    });
    assert_eq!(out, items, "results keyed by item index");
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::SeqCst), 1, "item {i} must run exactly once");
    }
}
