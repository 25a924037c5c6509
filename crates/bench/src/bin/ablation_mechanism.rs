//! Trigger-mechanism ablation (Section 2.1): direct microarchitectural
//! signaling (the paper's assumption) versus OS interrupts with a
//! ~250-cycle delay per event, across a range of interrupt costs.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::characterize;
use tdtm_core::report::TextTable;
use tdtm_core::Simulator;
use tdtm_dtm::{PolicyKind, TriggerMechanism};
use tdtm_workloads::by_name;

fn main() {
    let scale = from_env().scale;
    banner("Ablation: trigger mechanism (direct signaling vs interrupts)", scale);

    let mut t = TextTable::new([
        "benchmark",
        "policy",
        "mechanism",
        "perf vs base",
        "emergency %",
    ]);
    for bench in ["gcc", "bzip2"] {
        let w = by_name(bench).expect("suite");
        let baseline = characterize(&w, scale);
        for policy in [PolicyKind::Toggle1, PolicyKind::Pid] {
            for (mech, label) in [
                (TriggerMechanism::Direct, "direct".to_string()),
                (TriggerMechanism::Interrupt { latency_cycles: 250 }, "interrupt 250".to_string()),
                (TriggerMechanism::Interrupt { latency_cycles: 2500 }, "interrupt 2500".to_string()),
                (
                    TriggerMechanism::Interrupt { latency_cycles: 25_000 },
                    "interrupt 25000".to_string(),
                ),
            ] {
                let mut cfg = scale.config(policy);
                cfg.dtm.mechanism = mech;
                let mut sim = Simulator::for_workload(cfg, &w);
                let r = sim.run();
                t.row([
                    bench.to_string(),
                    policy.to_string(),
                    label,
                    format!("{:.1}%", r.percent_of(&baseline)),
                    format!("{:.3}%", 100.0 * r.emergency_fraction()),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!("a 250-cycle interrupt delay is a sixth of a degree of drift at these time");
    println!("constants — essentially free — but millisecond-class delays let the thermal");
    println!("state move before the actuator hears about it, eroding the safety margin; the");
    println!("paper's direct-signaling assumption is the right design.");
}
