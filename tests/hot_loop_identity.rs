//! The run-loop specialization contract.
//!
//! `Simulator::run` drives the one chunked cycle loop, and
//! `set_reference_loop` selects the plain per-cycle reference oracle (see
//! the "hot path" section of DESIGN.md). These tests pin the contract
//! that the choice is invisible: the loop and the oracle produce
//! byte-identical reports, attaching any observer never perturbs the
//! simulation, and the trace/DTM stride conventions hold.

use tdtm::core::{SimConfig, Simulator};
use tdtm::dtm::PolicyKind;
use tdtm::power::LeakageModel;
use tdtm::telemetry::TelemetryConfig;
use tdtm::workloads::by_name;

/// A config hot enough that DTM policies actually engage inside the
/// window, so the identity checks cover the actuated paths too.
fn hot_cfg(policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.max_insts = 120_000;
    cfg.heatsink_temp = 107.0;
    cfg.dtm.policy = policy;
    cfg
}

fn run_with(cfg: SimConfig, bench: &str, reference: bool) -> (tdtm::core::RunReport, Vec<f64>) {
    let w = by_name(bench).expect("suite workload");
    let mut sim = Simulator::for_workload(cfg, &w);
    sim.set_reference_loop(reference);
    let report = sim.run();
    (report, sim.duty_history().to_vec())
}

/// Byte-level equality: `RunReport`'s `PartialEq` compares `f64`s by
/// value (which conflates `-0.0` and `0.0`), so also compare the full
/// shortest-roundtrip debug rendering, which distinguishes every bit
/// pattern short of NaN.
fn assert_byte_identical(a: &tdtm::core::RunReport, b: &tdtm::core::RunReport, what: &str) {
    assert_eq!(a, b, "{what}: reports differ");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: bit patterns differ");
}

#[test]
fn fast_loop_matches_reference_loop_across_policies() {
    for policy in [PolicyKind::None, PolicyKind::Pid, PolicyKind::Toggle1, PolicyKind::VfScale] {
        let (fast, fast_duty) = run_with(hot_cfg(policy), "gcc", false);
        let (reference, ref_duty) = run_with(hot_cfg(policy), "gcc", true);
        assert_byte_identical(&fast, &reference, &format!("policy {policy:?}"));
        assert_eq!(fast_duty, ref_duty, "policy {policy:?}: duty histories differ");
    }
}

#[test]
fn fast_loop_matches_reference_loop_with_leakage() {
    let mut cfg = hot_cfg(PolicyKind::Pid);
    cfg.leakage = Some(LeakageModel::node_180nm());
    let (fast, _) = run_with(cfg.clone(), "gcc", false);
    let (reference, _) = run_with(cfg, "gcc", true);
    assert_byte_identical(&fast, &reference, "leakage");
}

#[test]
fn fast_loop_matches_reference_loop_without_warm_start() {
    let mut cfg = hot_cfg(PolicyKind::Pid);
    cfg.warm_start = false;
    let (fast, _) = run_with(cfg.clone(), "art", false);
    let (reference, _) = run_with(cfg, "art", true);
    assert_byte_identical(&fast, &reference, "no warm start");
}

#[test]
fn engine_dispatch_matches_both_loops_across_policies() {
    // A grid cell runs through the engine's own dispatch
    // (`GridCell::run_chip`, which builds the cell's config and picks the
    // simulator), not through `run_with`. For every policy its report
    // must be byte-identical to the same cell's fast- and reference-loop
    // runs.
    use tdtm::core::engine::ExperimentGrid;
    use tdtm::core::experiments::ExperimentScale;

    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .policies(&[PolicyKind::None, PolicyKind::Pid, PolicyKind::Toggle1, PolicyKind::VfScale])
        .variant("hot", |cfg| {
            cfg.max_insts = 120_000;
            cfg.heatsink_temp = 107.0;
        });
    let dispatched = grid.run_threads_uncached(1);
    assert_eq!(dispatched.runs.len(), 4);
    for run in &dispatched.runs {
        let (fast, _) = run_with(hot_cfg(run.policy), "gcc", false);
        let (reference, _) = run_with(hot_cfg(run.policy), "gcc", true);
        assert_byte_identical(&run.report, &fast, &format!("engine vs fast, {:?}", run.policy));
        assert_byte_identical(
            &run.report,
            &reference,
            &format!("engine vs reference, {:?}", run.policy),
        );
    }
}

/// Like [`run_with`], with idle-gap skipping pinned on or off (`None`
/// keeps the build default) so the three loop flavors — skipping fast,
/// non-skipping fast, and reference — can be compared pairwise.
fn run_flavor(
    cfg: SimConfig,
    bench: &str,
    reference: bool,
    skip: Option<bool>,
) -> (tdtm::core::RunReport, Vec<f64>) {
    let w = by_name(bench).expect("suite workload");
    let mut sim = Simulator::for_workload(cfg, &w);
    sim.set_reference_loop(reference);
    if let Some(on) = skip {
        sim.set_skip(on);
    }
    let report = sim.run();
    (report, sim.duty_history().to_vec())
}

#[test]
fn idle_gap_skipping_is_byte_identical_across_random_cells() {
    // Property: over random duty regimes (policy × heatsink × sampling
    // interval), memory latencies, warmup windows, and stop conditions,
    // the skipping fast loop, the non-skipping fast loop, and the
    // reference loop produce byte-identical reports (including the
    // gated-cycle counter) and identical duty histories.
    tdtm_prng::cases(8, 0x1D1E_6A50, |rng| {
        let mut cfg = SimConfig::quick_test();
        cfg.dtm.policy = *rng.choose(&[
            PolicyKind::Toggle1,
            PolicyKind::Toggle2,
            PolicyKind::Pid,
            PolicyKind::VfScale,
        ]);
        cfg.heatsink_temp = rng.range_f64(105.0, 109.0);
        cfg.dtm.sample_interval = *rng.choose(&[250, 500, 1000, 1337]);
        cfg.core.mem_latency = rng.range_i64(40, 400) as u64;
        cfg.thermal_warmup_cycles = *rng.choose(&[500, 2000, 4096]);
        cfg.warm_start = rng.next_f64() < 0.5;
        // Stop either on the instruction budget or on a cycle cap that
        // can land anywhere relative to the sampling interval.
        if rng.next_f64() < 0.5 {
            cfg.max_insts = rng.range_i64(20_000, 40_000) as u64;
            cfg.max_cycles = 150_000;
        } else {
            cfg.max_insts = 1_000_000;
            cfg.max_cycles = rng.range_i64(30_000, 120_000) as u64;
        }
        let bench = *rng.choose(&["gcc", "art"]);
        let what = format!(
            "{bench} {:?} heatsink {:.2} interval {} mem {} stop ({}, {})",
            cfg.dtm.policy,
            cfg.heatsink_temp,
            cfg.dtm.sample_interval,
            cfg.core.mem_latency,
            cfg.max_insts,
            cfg.max_cycles,
        );
        let (skipping, skip_duty) = run_flavor(cfg.clone(), bench, false, Some(true));
        let (plain, plain_duty) = run_flavor(cfg.clone(), bench, false, Some(false));
        let (reference, ref_duty) = run_flavor(cfg, bench, true, None);
        assert_byte_identical(&skipping, &plain, &format!("{what}: skip vs no-skip"));
        assert_byte_identical(&skipping, &reference, &format!("{what}: skip vs reference"));
        assert_eq!(skipping.gated_cycles, reference.gated_cycles, "{what}: gated cycles");
        assert_eq!(skip_duty, plain_duty, "{what}: skip vs no-skip duty");
        assert_eq!(skip_duty, ref_duty, "{what}: skip vs reference duty");
    });
}

#[test]
fn fully_gated_gaps_waking_on_sample_boundaries_are_byte_identical() {
    // At a 108 C heatsink the toggle policy engages at the first sample
    // and never releases, so every skipped window runs exactly to the
    // next DTM-sample boundary — the wake == boundary case. The cycle
    // cap then stops the run one cycle before a boundary, exactly on
    // one, and one cycle after.
    let interval = SimConfig::quick_test().dtm.sample_interval;
    for max_cycles in [40 * interval - 1, 40 * interval, 40 * interval + 1] {
        let mut cfg = hot_cfg(PolicyKind::Toggle1);
        cfg.heatsink_temp = 108.0;
        cfg.max_cycles = max_cycles;
        let what = format!("fully gated, max_cycles {max_cycles}");
        let (skipping, skip_duty) = run_flavor(cfg.clone(), "gcc", false, Some(true));
        let (plain, plain_duty) = run_flavor(cfg.clone(), "gcc", false, Some(false));
        let (reference, ref_duty) = run_flavor(cfg, "gcc", true, None);
        assert_eq!(skipping.total_cycles, max_cycles, "{what}: stops on the cap");
        assert!(skipping.gated_cycles > 0, "{what}: the run actually gated");
        assert_byte_identical(&skipping, &plain, &format!("{what}: skip vs no-skip"));
        assert_byte_identical(&skipping, &reference, &format!("{what}: skip vs reference"));
        assert_eq!(skip_duty, plain_duty, "{what}: duty skip vs no-skip");
        assert_eq!(skip_duty, ref_duty, "{what}: duty skip vs reference");
    }
}

#[test]
fn parked_multicore_chip_reports_are_byte_identical_with_skipping() {
    // Unthrottled neighbors finish their instruction budget and park
    // while the toggled core 0 keeps running — from then on the chip
    // loop opens parked-reason gaps. The skipping and non-skipping chip
    // runs must produce byte-identical ChipReports and duty histories.
    use tdtm::core::MulticoreSim;
    let mut cfg = hot_cfg(PolicyKind::Toggle1);
    cfg.chip.cores = 4;
    cfg.chip.neighbor_policy = Some(PolicyKind::None);
    let w = by_name("gcc").expect("suite workload");
    let run = |skip: bool| {
        let mut sim = MulticoreSim::for_workload(cfg.clone(), &w);
        sim.set_skip(skip);
        let report = sim.run();
        let duties: Vec<Vec<f64>> =
            (0..4).map(|k| sim.duty_history(k).to_vec()).collect();
        (report, duties)
    };
    let (skipping, skip_duty) = run(true);
    let (plain, plain_duty) = run(false);
    assert_eq!(skipping, plain, "parked chip: reports differ");
    assert_eq!(
        format!("{skipping:?}"),
        format!("{plain:?}"),
        "parked chip: bit patterns differ"
    );
    assert_eq!(skip_duty, plain_duty, "parked chip: duty histories differ");
}

#[test]
fn telemetry_never_perturbs_the_simulation() {
    // Telemetry is an observer on the same cycle loop a plain run takes,
    // skipping included. The report must not notice.
    let (plain, plain_duty) = run_with(hot_cfg(PolicyKind::Pid), "gcc", false);
    let w = by_name("gcc").expect("suite workload");
    let mut sim = Simulator::for_workload(hot_cfg(PolicyKind::Pid), &w);
    sim.enable_telemetry(&TelemetryConfig::full(4096, 4));
    let observed = sim.run();
    assert_byte_identical(&plain, &observed, "telemetry on vs off");
    assert_eq!(plain_duty, sim.duty_history(), "telemetry on vs off duty");
    assert!(sim.telemetry().is_some(), "telemetry was collected");
}

#[test]
fn proxies_never_perturb_the_simulation_and_count_deterministically() {
    let run_proxied = || {
        let w = by_name("gcc").expect("suite workload");
        let mut sim = Simulator::for_workload(hot_cfg(PolicyKind::None), &w);
        sim.add_structure_proxy(10_000);
        sim.add_chipwide_proxy(10_000, 47.0);
        let report = sim.run();
        let counts: Vec<_> = sim.proxies().iter().map(|p| p.counts.clone()).collect();
        (report, counts)
    };
    let (r1, c1) = run_proxied();
    let (r2, c2) = run_proxied();
    assert_eq!(c1, c2, "agreement counts must be deterministic");
    assert_byte_identical(&r1, &r2, "proxied runs");

    // Proxies observe the same cycle loop; the report must still be
    // byte-identical to the unobserved run.
    let (plain, _) = run_with(hot_cfg(PolicyKind::None), "gcc", false);
    assert_byte_identical(&plain, &r1, "proxies on vs off");
}

#[test]
fn trace_and_dtm_sampling_strides_are_asymmetric() {
    // Convention, pinned: a trace sample fires at the *start* of each
    // stride — on cycles where `cycle % stride == 0`, so the first is
    // cycle 0 — while a DTM sample fires at the *end* of each interval —
    // on cycles where `(cycle + 1) % interval == 0`, so the first is
    // cycle `interval - 1` and a trailing partial interval never samples.
    let cfg = hot_cfg(PolicyKind::Pid);
    let interval = cfg.dtm.sample_interval;
    let stride = 1_000u64;
    let w = by_name("gcc").expect("suite workload");
    let mut sim = Simulator::for_workload(cfg, &w);
    sim.record_trace(stride);
    let report = sim.run();
    let trace = sim.trace().expect("trace was recorded");

    let total = report.total_cycles;
    assert!(
        !total.is_multiple_of(interval),
        "need a partial trailing interval to discriminate the conventions (total {total})"
    );
    // Start-of-stride convention: samples at 0, stride, 2·stride, ...
    let expected: Vec<u64> = (0..total.div_ceil(stride)).map(|k| k * stride).collect();
    assert_eq!(trace.cycles, expected, "trace fires on cycle % stride == 0");
    // End-of-interval convention: one sample per *complete* interval.
    assert_eq!(
        report.samples,
        total / interval,
        "DTM fires on (cycle + 1) % interval == 0"
    );
    assert_eq!(report.samples, sim.duty_history().len() as u64);
}
