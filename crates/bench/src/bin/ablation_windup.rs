//! Full-system integral-windup ablation (Section 3.3): the same PI/PID
//! policies with the paper's anti-windup disabled, on workloads with a
//! long cool prefix before their hot region — the exact scenario where a
//! wound-up integral keeps the actuator at full speed into an emergency.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::characterize;
use tdtm_core::report::TextTable;
use tdtm_core::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_workloads::by_name;

fn main() {
    let scale = from_env().scale;
    banner("Ablation: anti-windup on/off (Section 3.3)", scale);

    let mut t = TextTable::new([
        "benchmark",
        "policy",
        "anti-windup",
        "perf vs base",
        "emergency %",
        "engaged",
    ]);
    // art has exactly the cool-then-hot phase structure that winds up an
    // unprotected integrator; gcc is the steady-hot control case.
    for bench in ["art", "gcc"] {
        let w = by_name(bench).expect("suite");
        let baseline = characterize(&w, scale);
        for policy in [PolicyKind::Pi, PolicyKind::Pid] {
            for aw in [true, false] {
                let mut cfg = scale.config(policy);
                cfg.dtm.anti_windup = aw;
                // Cold-start so the cool prefix really occurs.
                cfg.warm_start = false;
                let mut sim = Simulator::for_workload(cfg, &w);
                let r = sim.run();
                t.row([
                    bench.to_string(),
                    policy.to_string(),
                    if aw { "on".to_string() } else { "OFF".to_string() },
                    format!("{:.1}%", r.percent_of(&baseline)),
                    format!("{:.3}%", 100.0 * r.emergency_fraction()),
                    format!("{}/{}", r.engaged_samples, r.samples),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!("without the integrator freeze, the cool-phase error winds the integral to an");
    println!("arbitrarily large value; when the hot phase arrives the controller takes many");
    println!("samples to unwind and the block can run into emergency — the failure mode");
    println!("Section 3.3 describes and the reason the paper freezes the integrator.");
}
