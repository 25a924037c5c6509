//! Telemetry non-perturbation and determinism guarantees.
//!
//! The telemetry layer observes; it must never change what it observes.
//! These tests pin the contract the design leans on: a run with
//! telemetry enabled produces a byte-identical `RunReport` to a run
//! without it, and collects what the run did. Grid-level observation
//! (streamed records across worker counts) is pinned by
//! `tests/observability.rs`.

use tdtm_core::{SimConfig, Simulator};
use tdtm_dtm::PolicyKind;
use tdtm_telemetry::TelemetryConfig;
use tdtm_workloads::by_name;

fn hot_config(policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = policy;
    cfg.max_insts = 120_000;
    cfg.heatsink_temp = 107.0;
    cfg
}

fn run_pair(policy: PolicyKind, telemetry: &TelemetryConfig) {
    let workload = by_name("gcc").expect("suite workload");
    let mut plain = Simulator::for_workload(hot_config(policy), &workload);
    let mut observed = Simulator::for_workload(hot_config(policy), &workload);
    observed.enable_telemetry(telemetry);
    let r_plain = plain.run();
    let r_observed = observed.run();
    assert_eq!(
        r_plain, r_observed,
        "telemetry must not perturb the simulation ({policy:?})"
    );
    assert!(plain.telemetry().is_none());
    assert!(observed.telemetry().is_some());
}

#[test]
fn reports_identical_with_telemetry_on_or_off() {
    // Full telemetry across the policy families that exercise different
    // code paths: none (no controller), PID (per-block controllers),
    // hierarchical (controllers + V/f backup with resync stalls).
    for policy in [PolicyKind::None, PolicyKind::Pid, PolicyKind::Hierarchical] {
        run_pair(policy, &TelemetryConfig::full(4096, 1));
    }
    // And the cheap grid configuration.
    run_pair(PolicyKind::Pid, &TelemetryConfig::metrics_and_phases());
}

#[test]
fn telemetry_collects_what_the_run_did() {
    let workload = by_name("gcc").expect("suite workload");
    let mut sim = Simulator::for_workload(hot_config(PolicyKind::Pid), &workload);
    sim.enable_telemetry(&TelemetryConfig::full(100_000, 1));
    let report = sim.run();
    let telemetry = sim.take_telemetry().expect("enabled").cores.remove(0);

    let snap = telemetry.metrics.expect("metrics on").snapshot();
    assert_eq!(snap.counter("cycles"), report.total_cycles);
    assert_eq!(snap.counter("dtm_samples"), report.samples);
    assert_eq!(snap.counter("thermal_steps"), report.total_cycles);
    // One hottest-temp record per cycle.
    let temp_hist = snap.histogram("hottest_temp_c").expect("schema");
    assert_eq!(temp_hist.count(), report.total_cycles);
    // One duty record per DTM sample.
    let duty_hist = snap.histogram("fetch_duty").expect("schema");
    assert_eq!(duty_hist.count(), report.samples);

    let events = telemetry.events.expect("events on");
    assert!(events.recorded() > 0, "a hot PID run must emit events");
    let controller_events = events
        .iter()
        .filter(|e| e.kind() == "controller")
        .count() as u64;
    // Stride 1: every DTM sample logs one controller event per block.
    assert_eq!(controller_events, report.samples * 7);

    let phases = telemetry.phases.expect("phases on");
    assert!(phases.total_nanos() > 0, "phase timers must accumulate");
}
