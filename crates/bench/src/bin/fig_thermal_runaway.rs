//! Thermal-runaway extension study: temperature-dependent leakage closes
//! a positive feedback loop through the thermal-RC model. This binary
//! sweeps the leakage intensity, reports the analytic runaway boundary
//! per block, and shows that PID DTM holds the chip stable well past the
//! point where the uncontrolled chip diverges.

use tdtm_bench::{banner, from_env};
use tdtm_core::report::TextTable;
use tdtm_core::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_power::{LeakageModel, PowerConfig, PowerModel};
use tdtm_thermal::block_model::table3_blocks;
use tdtm_uarch::activity::THERMAL_BLOCKS;
use tdtm_uarch::CoreConfig;
use tdtm_workloads::by_name;

fn main() {
    let scale = from_env().scale;
    banner("Extension: temperature-dependent leakage and thermal runaway", scale);

    let power = PowerModel::new(&PowerConfig::default(), &CoreConfig::alpha21264_like());
    let blocks = table3_blocks();

    println!("-- analytic runaway boundary per block (loop gain dP_leak/dT x R = 1) --\n");
    let mut t = TextTable::new(["block", "peak dyn (W)", "R (K/W)", "runaway T (C), f0=0.25", "f0=0.40"]);
    for (params, hw) in blocks.iter().zip(THERMAL_BLOCKS) {
        let fmt = |f0: f64| {
            let m = LeakageModel { base_fraction: f0, reference_temp: 85.0, doubling_interval: 10.0 };
            match m.runaway_temperature(power.peak(hw), params.r) {
                Some(tr) => format!("{tr:.1}"),
                None => "never".to_string(),
            }
        };
        t.row([
            params.name.clone(),
            format!("{:.1}", power.peak(hw)),
            format!("{:.2}", params.r),
            fmt(0.25),
            fmt(0.40),
        ]);
    }
    println!("{}", t.render());

    println!("-- simulated: gcc under increasing leakage, with and without PID --\n");
    let mut s = TextTable::new([
        "leakage f0",
        "no-DTM max T (C)",
        "no-DTM emerg %",
        "PID max T (C)",
        "PID emerg %",
    ]);
    let w = by_name("gcc").expect("suite");
    for f0 in [0.0, 0.05, 0.10, 0.15, 0.25] {
        let model = if f0 == 0.0 {
            None
        } else {
            Some(LeakageModel { base_fraction: f0, reference_temp: 85.0, doubling_interval: 10.0 })
        };
        let mut row = vec![format!("{f0:.2}")];
        for policy in [PolicyKind::None, PolicyKind::Pid] {
            let mut cfg = scale.config(policy);
            cfg.leakage = model;
            let mut sim = Simulator::for_workload(cfg, &w);
            let r = sim.run();
            let max_t = r.hottest_block().expect("blocks tracked").max_temp;
            row.push(if max_t > 200.0 { "RUNAWAY".to_string() } else { format!("{max_t:.2}") });
            row.push(format!("{:.2}%", 100.0 * r.emergency_fraction()));
        }
        s.row(row);
    }
    println!("{}", s.render());
    println!("small leakage is just extra plant gain — the PID loop absorbs it and still");
    println!("pins the hottest block at the setpoint (feedback's robustness to unmodeled");
    println!("dynamics, as the paper argues). But past the analytic runaway boundary the");
    println!("loop gain of leakage-through-R exceeds one below even the *idle* operating");
    println!("point: the chip diverges under any policy. DTM can keep a chip from crossing");
    println!("into runaway; only the package (R, heatsink temperature) sets where that");
    println!("boundary lies.");
}
