//! Cross-crate integration tests: the full stack (ISA → functional →
//! timing → power → thermal → DTM) on real workloads, at test scale.

use tdtm::core::experiments::{compare_policies, ExperimentScale};
use tdtm::core::{SimConfig, Simulator};
use tdtm::dtm::PolicyKind;
use tdtm::workloads::by_name;

fn scale() -> ExperimentScale {
    ExperimentScale { insts: 150_000, warmup_cycles: 10_000 }
}

/// Engine workers for the policy comparisons (reports do not depend on it).
const THREADS: usize = 2;

#[test]
fn hot_workload_overheats_without_dtm() {
    let w = by_name("gcc").expect("suite");
    let mut sim = Simulator::for_workload(scale().config(PolicyKind::None), &w);
    let r = sim.run();
    assert!(r.emergency_cycles > 0, "gcc must overheat without DTM");
    assert!(r.ipc > 2.0, "gcc is a high-IPC kernel, got {}", r.ipc);
}

#[test]
fn cool_workload_never_triggers_anything() {
    let w = by_name("twolf").expect("suite");
    let mut sim = Simulator::for_workload(scale().config(PolicyKind::Pid), &w);
    let r = sim.run();
    assert_eq!(r.emergency_cycles, 0);
    assert_eq!(r.engaged_samples, 0, "PID should never engage on a cool chase");
    assert!(r.ipc < 1.0, "pointer chase is slow, got {}", r.ipc);
}

#[test]
fn every_policy_eliminates_emergencies_on_gcc() {
    let w = by_name("gcc").expect("suite");
    let policies = [
        PolicyKind::Toggle1,
        PolicyKind::Manual,
        PolicyKind::P,
        PolicyKind::Pi,
        PolicyKind::Pid,
    ];
    let cmp = compare_policies(&w, scale(), &policies, THREADS);
    assert!(cmp.baseline.emergency_cycles > 0, "baseline must overheat");
    for run in &cmp.runs {
        assert_eq!(
            run.emergency_cycles, 0,
            "{} left {} emergency cycles",
            run.policy, run.emergency_cycles
        );
    }
}

#[test]
fn ct_dtm_beats_fixed_toggling_on_performance() {
    // The paper's headline, at test scale, on one extreme benchmark.
    let w = by_name("bzip2").expect("suite");
    let cmp = compare_policies(&w, scale(), &[PolicyKind::Toggle1, PolicyKind::Pid], THREADS);
    let toggle1 = cmp.percent_of_baseline(PolicyKind::Toggle1).expect("ran");
    let pid = cmp.percent_of_baseline(PolicyKind::Pid).expect("ran");
    assert!(
        pid > toggle1,
        "PID ({pid:.1}%) must outperform toggle1 ({toggle1:.1}%) while protecting the chip"
    );
}

#[test]
fn dtm_never_exceeds_baseline_performance() {
    let w = by_name("mesa").expect("suite");
    let cmp = compare_policies(
        &w,
        scale(),
        &[PolicyKind::Toggle1, PolicyKind::Toggle2, PolicyKind::Pid],
        THREADS,
    );
    for run in &cmp.runs {
        let pct = run.percent_of(&cmp.baseline);
        assert!(pct <= 100.0 + 0.5, "{}: {pct:.2}% of baseline is impossible", run.policy);
    }
}

#[test]
fn architectural_results_are_timing_independent() {
    // The same program produces the same outputs under aggressive DTM as
    // under none: DTM slows the machine, never corrupts it.
    let program = tdtm::isa::asm::assemble_named(
        "     li x1, 200
              li x5, 0
         l:   add x5, x5, x1
              addi x1, x1, -1
              bne x1, x0, l
              out x5
              halt",
        "sumloop",
    )
    .expect("assembles");
    let mut cfg = SimConfig::quick_test();
    cfg.max_insts = 10_000;
    let mut plain = Simulator::new(cfg.clone(), program.clone());
    plain.run();

    let mut gated_cfg = cfg;
    gated_cfg.dtm.policy = PolicyKind::Toggle2;
    gated_cfg.dtm.trigger = 0.0; // always triggered
    let mut gated = Simulator::new(gated_cfg, program);
    gated.run();
}
