//! Integration pins for the observability stack: telemetry must never
//! perturb the simulation it watches, and the streaming grid must be
//! deterministic up to stamping.
//!
//! * Multicore non-perturbation: a chip run with full telemetry produces
//!   a byte-identical [`ChipReport`] and byte-identical per-core duty
//!   histories, across core counts and with/without the supervisor.
//! * Stream determinism: an N-thread [`ExperimentGrid::run_streaming`]
//!   stream, sorted by cell index, equals the 1-thread stream on every
//!   deterministic field; stamps are assigned in physical emit order.
//! * The committed sample streams under `results/streams/` keep parsing
//!   and rendering (they are the `obs_report` acceptance fixtures).

use std::path::Path;

use tdtm_core::experiments::ExperimentScale;
use tdtm_core::report::{obs_dashboard, obs_dashboard_csv};
use tdtm_core::{ExperimentGrid, MulticoreSim, ResultCache, SimConfig};
use tdtm_dtm::{PolicyKind, SupervisorConfig};
use tdtm_telemetry::{CellRecord, MemorySink, TelemetryConfig};
use tdtm_workloads::by_name;

/// A small but thermally active chip: hot heatsink so the controllers
/// (and, when attached, the supervisor) actually act.
fn hot_chip_cfg(cores: usize, supervisor: bool) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = PolicyKind::Pid;
    cfg.max_insts = 10_000;
    cfg.thermal_warmup_cycles = 500;
    cfg.heatsink_temp = 107.0;
    cfg.chip.cores = cores;
    if supervisor {
        cfg.chip.supervisor = Some(SupervisorConfig::default());
    }
    cfg
}

#[test]
fn multicore_telemetry_does_not_perturb_the_chip() {
    let workload = by_name("gcc").expect("suite workload");
    for cores in [1, 2, 4] {
        for supervisor in [false, true] {
            let cfg = hot_chip_cfg(cores, supervisor);

            let mut plain = MulticoreSim::for_workload(cfg.clone(), &workload);
            let baseline = plain.run();

            let mut observed = MulticoreSim::for_workload(cfg, &workload);
            observed.enable_telemetry(&TelemetryConfig::full(4096, 1));
            let report = observed.run();
            let telemetry = observed.take_telemetry().expect("telemetry was enabled");

            let ctx = format!("cores={cores} supervisor={supervisor}");
            assert_eq!(report, baseline, "{ctx}: ChipReport perturbed by telemetry");
            assert_eq!(
                format!("{report:?}"),
                format!("{baseline:?}"),
                "{ctx}: ChipReport debug repr perturbed"
            );
            for k in 0..cores {
                assert_eq!(
                    plain.duty_history(k),
                    observed.duty_history(k),
                    "{ctx}: core {k} duty history perturbed"
                );
            }

            // The collectors must actually have collected something.
            assert_eq!(telemetry.cores.len(), cores, "{ctx}");
            let merged = telemetry.merged_metrics().expect("metrics on");
            assert_eq!(merged.counter("cycles"), cores as u64 * report.chip_cycles, "{ctx}");
            let events = telemetry.cores[0].events.as_ref().expect("events on");
            assert!(events.recorded() > 0, "{ctx}: core 0 recorded no events");
            if supervisor && report.supervisor_interventions > 0 {
                let chip_events = telemetry.chip_events.as_ref().expect("chip ring on");
                assert!(
                    chip_events.iter().any(|e| e.kind() == "supervisor_cap"),
                    "{ctx}: interventions happened but no supervisor_cap event"
                );
                assert!(merged.counter("supervisor_caps") > 0, "{ctx}");
            }
        }
    }
}

#[test]
fn streaming_grid_is_deterministic_across_worker_counts() {
    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .workload(by_name("art").expect("suite workload"))
        .policies(&[PolicyKind::None, PolicyKind::Pid]);
    let cfg = TelemetryConfig::metrics_and_phases();

    // One fresh cache per run: with the shared process-wide cache, the
    // second run would replay the first's records and this test would
    // stop exercising thread-count determinism.
    let mut one_sink = MemorySink::new();
    let one = grid.run_streaming_cached(1, &cfg, &mut one_sink, Some(&ResultCache::in_memory()));
    let mut four_sink = MemorySink::new();
    let four = grid.run_streaming_cached(4, &cfg, &mut four_sink, Some(&ResultCache::in_memory()));

    assert_eq!(one.reports(), four.reports(), "reports shard-independent");
    assert_eq!(one_sink.records.len(), 4);
    assert_eq!(four_sink.records.len(), 4);

    // Stamps are assigned under the sink lock, so the physical stream
    // order IS the stamp order, whatever the thread count.
    for (pos, r) in one_sink.records.iter().enumerate() {
        assert_eq!(r.seq, pos as u64, "1-thread stamps follow emit order");
        // One worker completes cells in index order.
        assert_eq!(r.index, pos, "1-thread stream is a replay in cell order");
    }
    let four_seqs: Vec<u64> = four_sink.records.iter().map(|r| r.seq).collect();
    assert_eq!(four_seqs, (0..4).collect::<Vec<u64>>(), "N-thread stamps follow emit order");

    // Sorted by cell index, the N-thread stream equals the 1-thread
    // replay on every deterministic field.
    let mut sorted = four_sink.records.clone();
    sorted.sort_by_key(|r| r.index);
    for (a, b) in one_sink.records.iter().zip(&sorted) {
        assert!(
            a.deterministic_eq(b),
            "cell {} diverges between 1-thread and 4-thread streams:\n{a:?}\n{b:?}",
            a.index
        );
    }

    // The emitted record also rides along as each run's extra payload.
    for (run, rec) in one.runs.iter().zip(&one_sink.records) {
        assert_eq!(run.extra.index, rec.index);
        assert!(run.extra.deterministic_eq(rec));
    }
}

#[test]
fn streaming_cache_replays_records_byte_identically() {
    // One shared cache, two streamed runs of the same grid: the cold
    // pass misses every cell (records flagged `cached: false`), the
    // warm pass replays every stored record (`cached: true`) without
    // simulating — identical on every deterministic field, and with
    // reports bit-identical to the cold pass.
    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .workload(by_name("art").expect("suite workload"))
        .policies(&[PolicyKind::None, PolicyKind::Pid]);
    let cfg = TelemetryConfig::metrics_and_phases();
    let cache = ResultCache::in_memory();

    let mut cold_sink = MemorySink::new();
    let cold = grid.run_streaming_cached(2, &cfg, &mut cold_sink, Some(&cache));
    let mut warm_sink = MemorySink::new();
    let warm = grid.run_streaming_cached(2, &cfg, &mut warm_sink, Some(&cache));

    let cold_stats = cold.cache_stats.expect("cached run reports stats");
    assert_eq!((cold_stats.cache_hits, cold_stats.cache_misses), (0, 4));
    let warm_stats = warm.cache_stats.expect("cached run reports stats");
    assert_eq!((warm_stats.cache_hits, warm_stats.cache_misses), (4, 0));

    assert!(cold_sink.records.iter().all(|r| r.cached == Some(false)));
    assert!(warm_sink.records.iter().all(|r| r.cached == Some(true)));

    let mut cold_sorted = cold_sink.records.clone();
    cold_sorted.sort_by_key(|r| r.index);
    let mut warm_sorted = warm_sink.records.clone();
    warm_sorted.sort_by_key(|r| r.index);
    for (a, b) in cold_sorted.iter().zip(&warm_sorted) {
        assert!(
            a.deterministic_eq(b),
            "cell {} diverges between fresh and replayed streams:\n{a:?}\n{b:?}",
            a.index
        );
        assert!(b.wall_seconds > 0.0, "replayed records still carry a wall clock");
    }
    for (a, b) in cold.runs.iter().zip(&warm.runs) {
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "cell {}: replayed report not bit-identical",
            a.index
        );
    }
}

#[test]
fn streaming_grid_covers_multicore_cells() {
    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .policies(&[PolicyKind::Pid])
        .variant("mc2", |cfg| {
            cfg.max_insts = 10_000;
            cfg.thermal_warmup_cycles = 500;
            cfg.chip.cores = 2;
            cfg.chip.supervisor = Some(tdtm_dtm::SupervisorConfig::default());
        });
    let mut sink = MemorySink::new();
    let results = grid.run_streaming(1, &TelemetryConfig::metrics_and_phases(), &mut sink);
    assert_eq!(sink.records.len(), 1);
    let rec = &sink.records[0];
    assert_eq!(rec.label, "gcc/PID/mc2");
    // Chip cells merge per-core snapshots: the fixed schema includes the
    // chip-level counters even when they end up zero.
    let names: Vec<&str> = rec.metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"supervisor_caps"), "metrics: {names:?}");
    assert!(names.contains(&"core_parks"), "metrics: {names:?}");
    let cycles = rec.metrics.iter().find(|(n, _)| n == "cycles").expect("cycles counter").1;
    assert_eq!(cycles, 2 * rec.thermal_steps, "two cores' cycles merged");
    assert!(results.runs[0].report.committed >= 10_000);
}

#[test]
fn committed_sample_streams_parse_and_render() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/streams");
    let read = |name: &str| {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        CellRecord::parse_jsonl(&text).expect("committed stream parses")
    };
    let hot = read("quick_hot.jsonl");
    let nominal = read("quick_nominal.jsonl");
    assert_eq!(hot.len(), 4);
    assert_eq!(nominal.len(), 4);

    let md = obs_dashboard(&hot, Some(&nominal));
    assert!(md.contains("## A vs B (matched by cell label)"));
    assert!(md.contains("| gcc/PID |"), "matched cell row missing:\n{md}");
    let csv = obs_dashboard_csv(&hot, Some(&nominal));
    let header = csv.lines().next().expect("header");
    assert!(header.contains("wall_seconds_b"), "baseline columns missing: {header}");
    assert_eq!(csv.lines().count(), 1 + 4, "one row per run-A cell");
}
