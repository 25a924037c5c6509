//! Regenerates the Section 7 setpoint-sensitivity experiment: PI and PID
//! at the 110.8 C setpoint (0.2 K below emergency) versus the lower
//! 110.0 C setpoint the paper also tests.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::characterize;
use tdtm_core::report::TextTable;
use tdtm_core::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_workloads::suite;

fn main() {
    let scale = from_env().scale;
    banner("Section 7: setpoint sensitivity (PI/PID at 110.8 C vs 110.0 C)", scale);

    let mut t = TextTable::new([
        "benchmark",
        "PI@110.8",
        "PI@110.0",
        "PID@110.8",
        "PID@110.0",
        "emergencies",
    ]);
    let mut sums = [0.0f64; 4];
    let mut n = 0usize;
    for w in suite() {
        let baseline = characterize(&w, scale);
        let mut cells = vec![w.name.to_string()];
        let mut any_emerg = false;
        for (i, (policy, low)) in [
            (PolicyKind::Pi, false),
            (PolicyKind::Pi, true),
            (PolicyKind::Pid, false),
            (PolicyKind::Pid, true),
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = scale.config(policy);
            if low {
                cfg.dtm = cfg.dtm.with_low_setpoint();
            }
            let mut sim = Simulator::for_workload(cfg, &w);
            let r = sim.run();
            let pct = r.percent_of(&baseline);
            sums[i] += pct;
            any_emerg |= r.emergency_cycles > 0;
            cells.push(format!("{pct:.1}%"));
        }
        cells.push(if any_emerg { "SOME".into() } else { "none".to_string() });
        t.row(cells);
        n += 1;
    }
    println!("{}", t.render());
    println!(
        "means: PI@110.8 {:.1}%  PI@110.0 {:.1}%  PID@110.8 {:.1}%  PID@110.0 {:.1}%",
        sums[0] / n as f64,
        sums[1] / n as f64,
        sums[2] / n as f64,
        sums[3] / n as f64
    );
    println!("the lower setpoint trades performance for margin; the robust controllers keep");
    println!("emergencies at zero either way (Section 7's finding).");
}
