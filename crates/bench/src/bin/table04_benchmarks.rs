//! Regenerates Table 4: average IPC, power, and temperature
//! characteristics per benchmark, plus the percentage of cycles spent in
//! thermal emergency (above 111 C) and in thermal stress (above 110 C),
//! with no thermal management.

use tdtm_bench::{banner, from_env};
use tdtm_core::ExperimentGrid;
use tdtm_core::report::{f, pct, TextTable};

fn main() {
    let env = from_env();
    banner("Table 4: benchmark characteristics (no DTM)", env.scale);

    let mut t = TextTable::new([
        "benchmark",
        "Avg. IPC",
        "Avg. pwr (W)",
        "Avg. temp (C)",
        "Above 111C",
        "Above 110C",
    ]);
    for r in env.run(&ExperimentGrid::new(env.scale).suite()).reports() {
        t.row([
            r.name.clone(),
            f(r.ipc, 2),
            f(r.avg_power, 1),
            f(r.avg_chip_temp, 1),
            pct(r.emergency_fraction()),
            pct(r.stress_fraction()),
        ]);
    }
    println!("{}", t.render());
    println!("Avg. temp uses the paper's convention: 27 C ambient + 0.34 K/W chip-wide R x avg power.");
    println!("Emergency/stress columns use per-structure RC temperatures with the heatsink at its");
    println!("operating point (103 C).");
}
