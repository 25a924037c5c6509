//! The secondary DTM mechanisms (Section 2.1): fetch throttling,
//! speculation control, and voltage/frequency scaling — the techniques
//! Brooks & Martonosi found inferior to toggling — plus the hierarchical
//! toggling+V/f combination the paper sketches.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::group_policy_comparisons;
use tdtm_core::report::TextTable;
use tdtm_core::ExperimentGrid;
use tdtm_dtm::PolicyKind;
use tdtm_workloads::{suite, ThermalCategory};

fn main() {
    let env = from_env();
    banner("Section 2.1: secondary DTM mechanisms", env.scale);

    let policies = [
        PolicyKind::Toggle1,
        PolicyKind::Throttle,
        PolicyKind::SpecControl,
        PolicyKind::VfScale,
        PolicyKind::Hierarchical,
        PolicyKind::Pid,
    ];

    let mut header = vec!["benchmark".to_string()];
    for p in policies {
        header.push(format!("{p} perf"));
        header.push(format!("{p} emerg"));
    }
    let mut t = TextTable::new(header);
    let mut sum_loss = vec![0.0f64; policies.len()];
    let mut fail = vec![0u32; policies.len()];
    let mut n = 0usize;
    // The hot half of the suite is where mechanisms differ: one grid of
    // those benchmarks, each under the non-DTM baseline and every policy.
    let mut axis = vec![PolicyKind::None];
    axis.extend(policies);
    let grid = suite()
        .into_iter()
        .filter(|w| matches!(w.category, ThermalCategory::Extreme | ThermalCategory::High))
        .fold(ExperimentGrid::new(env.scale), ExperimentGrid::workload)
        .policies(&axis);
    for cmp in group_policy_comparisons(&env.run(&grid)) {
        let mut cells = vec![cmp.bench.clone()];
        for (i, run) in cmp.runs.iter().enumerate() {
            let pct = run.percent_of(&cmp.baseline);
            sum_loss[i] += 100.0 - pct;
            if run.emergency_cycles > 0 {
                fail[i] += 1;
            }
            cells.push(format!("{pct:.1}%"));
            cells.push(format!("{:.2}%", 100.0 * run.emergency_fraction()));
        }
        t.row(cells);
        n += 1;
    }
    println!("{}", t.render());

    let mut s = TextTable::new(["mechanism", "mean perf loss", "benchmarks with emergencies"]);
    for (i, p) in policies.iter().enumerate() {
        s.row([
            p.name().to_string(),
            format!("{:.2}%", sum_loss[i] / n as f64),
            fail[i].to_string(),
        ]);
    }
    println!("{}", s.render());
    println!("throttling and speculation control cannot reliably protect every hot spot (the");
    println!("paper's reason for rejecting them: they do not reduce accesses to all structures);");
    println!("V/f scaling protects but pays resynchronization and policy-delay overhead. The");
    println!("hierarchy keeps PID toggling's cost while holding V/f in reserve.");
}
