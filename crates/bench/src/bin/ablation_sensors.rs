//! Sensor-fidelity ablation (the paper's stated future work): how noise,
//! quantization, and a limited sensor budget degrade DTM. "Developing a
//! model for temperature sensor behavior (as distinct from true physical
//! temperature) is an important area for future work."

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::characterize;
use tdtm_core::report::TextTable;
use tdtm_core::Simulator;
use tdtm_dtm::{PolicyKind, SensorModel};
use tdtm_workloads::by_name;

fn main() {
    let scale = from_env().scale;
    banner("Ablation: temperature-sensor fidelity (PID on apsi)", scale);

    let w = by_name("apsi").expect("suite");
    let baseline = characterize(&w, scale);

    let mut t = TextTable::new(["sensors", "perf vs base", "emergency %", "engaged"]);
    let cases: Vec<(&str, SensorModel)> = vec![
        ("ideal (paper)", SensorModel::ideal()),
        ("noise 0.1 K", SensorModel::with_noise(0.1, 0.0, 11)),
        ("noise 0.25 K", SensorModel::with_noise(0.25, 0.0, 11)),
        ("noise 0.5 K", SensorModel::with_noise(0.5, 0.0, 11)),
        ("quantized 0.25 K", SensorModel::with_noise(0.0, 0.25, 11)),
        ("noise 0.25 + quant 0.25", SensorModel::with_noise(0.25, 0.25, 11)),
        (
            // apsi's hot spot is the register file (index 2).
            "no regfile sensor",
            SensorModel::ideal().with_placement(
                vec![true, true, false, true, true, true, true],
                0.0,
            ),
        ),
    ];
    for (name, sensors) in cases {
        let cfg = scale.config(PolicyKind::Pid);
        let mut sim = Simulator::for_workload(cfg, &w);
        sim.set_sensors(sensors);
        let r = sim.run();
        t.row([
            name.to_string(),
            format!("{:.1}%", r.percent_of(&baseline)),
            format!("{:.3}%", 100.0 * r.emergency_fraction()),
            format!("{}/{}", r.engaged_samples, r.samples),
        ]);
    }
    println!("{}", t.render());
    println!("moderate noise mostly costs performance (the controller reacts to phantom");
    println!("overshoots); losing the hot structure's sensor is catastrophic — the controller");
    println!("cannot protect what it cannot see, which is why the paper assumes a sensor per");
    println!("block and flags placement as future work.");
}
