//! Conditional-clocking ablation: how Wattch's cc0-cc3 gating styles
//! change the power/thermal picture. The paper (like Wattch's realistic
//! configuration) assumes cc3: idle structures still burn ~10% of peak.

use tdtm_bench::{banner, from_env};
use tdtm_core::report::TextTable;
use tdtm_core::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_power::ClockGating;
use tdtm_workloads::by_name;

fn main() {
    let scale = from_env().scale;
    banner("Ablation: conditional clocking style (no DTM)", scale);

    let mut t = TextTable::new([
        "benchmark",
        "gating",
        "avg power (W)",
        "peak cycle (W)",
        "hottest maxT (C)",
        "emergency %",
    ]);
    for bench in ["gcc", "crafty", "vpr"] {
        let w = by_name(bench).expect("suite");
        for (style, name) in [
            (ClockGating::Cc0, "cc0"),
            (ClockGating::Cc1, "cc1"),
            (ClockGating::Cc2, "cc2"),
            (ClockGating::Cc3, "cc3"),
        ] {
            let mut cfg = scale.config(PolicyKind::None);
            cfg.power.gating = style;
            let mut sim = Simulator::for_workload(cfg, &w);
            let r = sim.run();
            t.row([
                bench.to_string(),
                name.to_string(),
                format!("{:.1}", r.avg_power),
                format!("{:.1}", r.max_power),
                format!("{:.2}", r.hottest_block().expect("blocks tracked").max_temp),
                format!("{:.2}%", 100.0 * r.emergency_fraction()),
            ]);
        }
    }
    println!("{}", t.render());
    println!("cc0 melts everything (no gating); cc2 is the idealized floor; cc3 (the paper's");
    println!("assumption) sits between them — gating style shifts the absolute thermal");
    println!("operating point, which is why the DTM thresholds must be calibrated against it.");
}
