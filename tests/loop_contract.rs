//! The cycle-loop contract: every way of running one simulation yields
//! the same report, bit for bit.
//!
//! The simulator has one production cycle loop plus a plain per-cycle
//! reference oracle (see DESIGN.md §3d). These tests pin that the choice
//! of entry point, observer, or idle-gap skipping never shows in the
//! output:
//!
//! 1. **Random single-core configurations** (every policy family,
//!    heatsink, sampling interval, leakage, warm start, direct or
//!    interrupt triggering, instruction or cycle budget): the default
//!    run, the reference oracle, the run without skipping, the run under
//!    full telemetry, the experiment engine's uncached cell, and the
//!    one-core chip (direct triggering only) give byte-identical reports
//!    and duty histories.
//! 2. **Chips with 2 and 4 cores**, with and without a supervisor and
//!    with neighbor policies: skipping on, off, and under telemetry give
//!    byte-identical `ChipReport`s; three fixed chip cells are pinned by
//!    committed digests.
//! 3. **Observation does not depend on skipping**: a fully observed run
//!    records the same events, counters, proxy counts, trace and power
//!    trace whether idle gaps are skipped or executed.

use std::fmt::Write as _;
use std::sync::Mutex;
use tdtm::core::engine::ExperimentGrid;
use tdtm::core::experiments::ExperimentScale;
use tdtm::core::{ChipReport, MulticoreSim, RunReport, SimConfig, Simulator};
use tdtm::dtm::{PolicyKind, SupervisorConfig, TriggerMechanism};
use tdtm::power::LeakageModel;
use tdtm::telemetry::TelemetryConfig;
use tdtm::workloads::by_name;
use tdtm_prng::Fnv128;

/// Byte-level equality: `PartialEq` plus the shortest-roundtrip debug
/// rendering, which distinguishes every bit pattern short of NaN.
fn assert_same<T: PartialEq + std::fmt::Debug>(a: &T, b: &T, what: &str) {
    assert_eq!(a, b, "{what}: reports differ");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{what}: bit patterns differ"
    );
}

fn digest<T: std::fmt::Debug>(value: &T) -> u128 {
    let mut h = Fnv128::new();
    write!(h, "{value:?}").expect("hashing never fails");
    h.finish()
}

/// The single-core entry points compared against the default run.
#[derive(Clone, Copy, Debug)]
enum Flavor {
    Default,
    Reference,
    NoSkip,
    Telemetry,
}

fn run_single(cfg: &SimConfig, bench: &str, flavor: Flavor) -> (RunReport, Vec<f64>) {
    let w = by_name(bench).expect("suite workload");
    let mut sim = Simulator::for_workload(cfg.clone(), &w);
    match flavor {
        Flavor::Default => {}
        Flavor::Reference => sim.set_reference_loop(true),
        Flavor::NoSkip => sim.set_skip(false),
        Flavor::Telemetry => sim.enable_telemetry(&TelemetryConfig::full(4096, 4)),
    }
    let report = sim.run();
    if matches!(flavor, Flavor::Telemetry) {
        assert!(sim.telemetry().is_some(), "telemetry was collected");
    }
    (report, sim.duty_history().to_vec())
}

/// The configuration the engine cell's patch installs. `ConfigPatch` is a
/// plain function pointer, so the random configuration travels through a
/// static; only `random_single_core_configs_agree_on_every_entry_point`
/// sets it.
static ENGINE_CELL: Mutex<Option<SimConfig>> = Mutex::new(None);

fn run_engine(cfg: &SimConfig, bench: &str) -> RunReport {
    *ENGINE_CELL.lock().expect("unpoisoned") = Some(cfg.clone());
    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name(bench).expect("suite workload"))
        .policies(&[cfg.dtm.policy])
        .variant("contract", |c| {
            *c = ENGINE_CELL
                .lock()
                .expect("unpoisoned")
                .clone()
                .expect("cell config set");
        });
    let mut results = grid.run_threads_cached(1, None);
    assert_eq!(results.runs.len(), 1);
    results.runs.remove(0).report
}

/// A random single-core cell for `policy`.
fn random_cfg(rng: &mut tdtm_prng::Rng, policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = policy;
    cfg.heatsink_temp = rng.range_f64(100.0, 109.0);
    cfg.dtm.sample_interval = *rng.choose(&[250, 500, 1000, 1337]);
    cfg.thermal_warmup_cycles = *rng.choose(&[500, 2000, 4096]);
    cfg.warm_start = rng.next_f64() < 0.5;
    if rng.next_f64() < 0.3 {
        cfg.leakage = Some(LeakageModel::node_180nm());
    }
    if rng.next_f64() < 0.4 {
        // Latencies below, at, and beyond one sampling interval, so
        // several delayed commands can be in flight at once.
        let latency_cycles = *rng.choose(&[0, 1, 250, 1500]);
        cfg.dtm.mechanism = TriggerMechanism::Interrupt { latency_cycles };
    }
    // Stop either on the instruction budget or on a cycle cap that can
    // land anywhere relative to the sampling interval.
    if rng.next_f64() < 0.5 {
        cfg.max_insts = rng.range_i64(15_000, 30_000) as u64;
        cfg.max_cycles = 150_000;
    } else {
        cfg.max_insts = 1_000_000;
        cfg.max_cycles = rng.range_i64(20_000, 60_000) as u64;
    }
    cfg
}

#[test]
fn random_single_core_configs_agree_on_every_entry_point() {
    let policies = PolicyKind::all();
    let mut case = 0;
    tdtm_prng::cases(policies.len() as u64, 0x100B_C047, |rng| {
        let policy = policies[case];
        case += 1;
        let cfg = random_cfg(rng, policy);
        let bench = *rng.choose(&["gcc", "art", "crafty"]);
        let what = format!(
            "{bench} {policy:?} heatsink {:.2} interval {} warmup {} warm_start {} leak {} {:?} stop ({}, {})",
            cfg.heatsink_temp,
            cfg.dtm.sample_interval,
            cfg.thermal_warmup_cycles,
            cfg.warm_start,
            cfg.leakage.is_some(),
            cfg.dtm.mechanism,
            cfg.max_insts,
            cfg.max_cycles,
        );
        let (base, base_duty) = run_single(&cfg, bench, Flavor::Default);
        for flavor in [Flavor::Reference, Flavor::NoSkip, Flavor::Telemetry] {
            let (report, duty) = run_single(&cfg, bench, flavor);
            assert_same(&base, &report, &format!("{what}: default vs {flavor:?}"));
            assert_eq!(base_duty, duty, "{what}: default vs {flavor:?} duty");
        }
        assert_same(
            &base,
            &run_engine(&cfg, bench),
            &format!("{what}: default vs engine"),
        );
        if matches!(cfg.dtm.mechanism, TriggerMechanism::Direct) {
            let w = by_name(bench).expect("suite workload");
            let mut chip = MulticoreSim::for_workload(cfg.clone(), &w);
            let report = chip.run();
            assert_eq!(report.cores.len(), 1);
            assert_same(
                &base,
                &report.cores[0],
                &format!("{what}: default vs one-core chip"),
            );
            assert_eq!(
                base_duty,
                chip.duty_history(0),
                "{what}: default vs one-core chip duty"
            );
        }
    });
}

fn chip_cfg(cores: usize, policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = policy;
    cfg.heatsink_temp = 107.0;
    cfg.chip.cores = cores;
    cfg
}

/// Runs a chip and returns its report and per-core duty histories.
fn run_chip(cfg: &SimConfig, skip: bool, telemetry: bool) -> (ChipReport, Vec<Vec<f64>>) {
    let w = by_name("gcc").expect("suite workload");
    let mut sim = MulticoreSim::for_workload(cfg.clone(), &w);
    sim.set_skip(skip);
    if telemetry {
        sim.enable_telemetry(&TelemetryConfig::full(4096, 4));
    }
    let report = sim.run();
    if telemetry {
        assert!(sim.take_telemetry().is_some(), "telemetry was collected");
    }
    let duties = (0..sim.cores())
        .map(|k| sim.duty_history(k).to_vec())
        .collect();
    (report, duties)
}

#[test]
fn chips_agree_with_skipping_on_off_and_observed() {
    tdtm_prng::cases(8, 0xC41F_5EED, |rng| {
        let cores = *rng.choose(&[2, 4]);
        let policy = *rng.choose(&[
            PolicyKind::Toggle1,
            PolicyKind::Pid,
            PolicyKind::VfScale,
            PolicyKind::Pi,
            PolicyKind::StabilityAware,
        ]);
        let mut cfg = chip_cfg(cores, policy);
        cfg.heatsink_temp = rng.range_f64(104.0, 109.0);
        cfg.max_insts = rng.range_i64(8_000, 20_000) as u64;
        cfg.thermal_warmup_cycles = *rng.choose(&[500, 2000]);
        cfg.warm_start = rng.next_f64() < 0.5;
        if rng.next_f64() < 0.5 {
            cfg.chip.supervisor = Some(SupervisorConfig::default());
        }
        if rng.next_f64() < 0.5 {
            cfg.chip.neighbor_policy = Some(*rng.choose(&[PolicyKind::None, PolicyKind::Toggle1]));
        }
        let what = format!(
            "{cores} cores {policy:?} heatsink {:.2} insts {} supervisor {} neighbors {:?}",
            cfg.heatsink_temp,
            cfg.max_insts,
            cfg.chip.supervisor.is_some(),
            cfg.chip.neighbor_policy,
        );
        let (base, base_duty) = run_chip(&cfg, true, false);
        for (skip, telemetry) in [(false, false), (true, true), (false, true)] {
            let (report, duty) = run_chip(&cfg, skip, telemetry);
            let flavor = format!("skip {skip} telemetry {telemetry}");
            assert_same(&base, &report, &format!("{what}: {flavor}"));
            assert_eq!(base_duty, duty, "{what}: {flavor} duty");
        }
    });
}

/// The three pinned chip cells.
fn golden_chip(name: &str) -> SimConfig {
    match name {
        "coupled2_pid" => {
            let mut cfg = chip_cfg(2, PolicyKind::Pid);
            cfg.max_insts = 20_000;
            cfg
        }
        "supervised4" => {
            let mut cfg = chip_cfg(4, PolicyKind::Pid);
            cfg.max_insts = 12_000;
            cfg.chip.neighbor_policy = Some(PolicyKind::None);
            cfg.chip.supervisor = Some(SupervisorConfig::default());
            cfg
        }
        "toggle4_parked" => {
            // Unthrottled neighbors finish first and park while the
            // toggled core 0 keeps running.
            let mut cfg = chip_cfg(4, PolicyKind::Toggle1);
            cfg.max_insts = 40_000;
            cfg.chip.neighbor_policy = Some(PolicyKind::None);
            cfg
        }
        other => panic!("unknown golden chip {other}"),
    }
}

/// `(cell, FNV-1a 128 of format!("{chip_report:?}"))`.
const GOLDEN_CHIPS: [(&str, u128); 3] = [
    ("coupled2_pid", 0x4b91c44e5e5e6062f3efdd97c8283c16),
    ("supervised4", 0x44348a3f635df004a4704e7e735e29cb),
    ("toggle4_parked", 0xd0b373d83e511ae90524963c867fd80b),
];

#[test]
fn chip_reports_match_committed_digests() {
    let mut table = String::new();
    let mut mismatches = 0;
    for (name, want) in GOLDEN_CHIPS {
        let (report, _) = run_chip(&golden_chip(name), true, false);
        let got = digest(&report);
        if got != want {
            mismatches += 1;
        }
        writeln!(table, "    ({name:?}, {got:#034x}),").unwrap();
    }
    assert_eq!(
        mismatches, 0,
        "{mismatches} chip digest(s) changed; current table:\n{table}"
    );
}

#[test]
fn golden_chip_cells_exercise_what_they_name() {
    let (coupled, _) = run_chip(&golden_chip("coupled2_pid"), true, false);
    assert!(coupled.coupled, "coupled2_pid: has coupling edges");
    assert!(
        coupled.cores.iter().all(|r| r.engaged_samples > 0),
        "coupled2_pid: PID engaged"
    );
    let (supervised, _) = run_chip(&golden_chip("supervised4"), true, false);
    assert!(
        supervised.supervisor_interventions > 0,
        "supervised4: supervisor intervened"
    );

    let w = by_name("gcc").expect("suite workload");
    let mut sim = MulticoreSim::for_workload(golden_chip("toggle4_parked"), &w);
    sim.record_skip_windows();
    let parked = sim.run();
    assert!(
        parked.cores[1].total_cycles < parked.cores[0].total_cycles,
        "toggle4_parked: neighbors park before core 0"
    );
    assert!(
        sim.skip_windows()
            .iter()
            .any(|w| w.reason == tdtm::core::SkipReason::Parked),
        "toggle4_parked: parked gaps opened"
    );
}

/// Everything a fully observed single-core run records, in comparable form.
#[derive(PartialEq, Debug)]
struct Observed {
    report: RunReport,
    events: Vec<tdtm::telemetry::Event>,
    events_recorded: u64,
    counters: tdtm::telemetry::RegistrySnapshot,
    proxies: Vec<Vec<tdtm::thermal::comparison::AgreementCounts>>,
    trace: String,
    power_trace: tdtm::core::replay::PowerTrace,
}

fn run_observed(cfg: &SimConfig, skip: bool) -> Observed {
    let w = by_name("gcc").expect("suite workload");
    let mut sim = Simulator::for_workload(cfg.clone(), &w);
    sim.set_skip(skip);
    sim.enable_telemetry(&TelemetryConfig::full(1 << 16, 1));
    sim.record_trace(700);
    sim.record_power_trace(900);
    sim.add_structure_proxy(2_000);
    sim.add_chipwide_proxy(2_000, 40.0);
    let report = sim.run();
    let telemetry = sim.take_telemetry().expect("telemetry was enabled");
    let events = telemetry.events.expect("events on");
    Observed {
        report,
        events: events.iter().copied().collect(),
        events_recorded: events.recorded(),
        counters: telemetry.metrics.expect("metrics on").snapshot(),
        proxies: sim.proxies().iter().map(|p| p.counts.clone()).collect(),
        trace: format!("{:?}", sim.trace().expect("trace on")),
        power_trace: sim.power_trace().expect("power trace on").clone(),
    }
}

#[test]
fn observation_does_not_depend_on_skipping() {
    // Toggle1 at a 108 C heatsink engages at the first sample and never
    // releases, so most of the run is fetch-gated idle gaps.
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = PolicyKind::Toggle1;
    cfg.heatsink_temp = 108.0;
    cfg.max_cycles = 60_000;
    let w = by_name("gcc").expect("suite workload");
    let mut plain = Simulator::for_workload(cfg.clone(), &w);
    plain.set_skip(true);
    plain.record_skip_windows();
    plain.run();
    assert!(
        !plain.skip_windows().is_empty(),
        "the cell has idle gaps to skip"
    );

    let skipping = run_observed(&cfg, true);
    let executed = run_observed(&cfg, false);
    assert!(skipping.events_recorded > 0, "events were recorded");
    assert!(skipping.report.gated_cycles > 0, "the run gated");
    assert_eq!(skipping, executed, "observation depends on skipping");
}
