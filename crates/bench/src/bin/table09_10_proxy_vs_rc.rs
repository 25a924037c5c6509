//! Regenerates Tables 9 and 10: how well boxcar power averages (the prior
//! work's temperature proxy) track the RC thermal model — missed
//! emergencies and false triggers, for per-structure proxies (Table 9)
//! and the chip-wide proxy with a 47 W trigger (Table 10), at 10 K- and
//! 500 K-cycle windows.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::score_proxies;
use tdtm_core::report::{grid_summary, TextTable};
use tdtm_core::ExperimentGrid;

fn main() {
    let env = from_env();
    banner("Tables 9 and 10: boxcar power proxies vs the RC thermal model", env.scale);

    let windows = [10_000usize, 500_000];
    let mut per_structure = TextTable::new([
        "benchmark",
        "window",
        "true emerg %",
        "missed %",
        "false trig %",
    ]);
    let mut chip_wide = TextTable::new([
        "benchmark",
        "window",
        "true emerg %",
        "missed %",
        "false trig %",
    ]);

    // The paper's 47 W chip-wide trigger sat just below its hottest
    // programs' average power. Our power model is calibrated to a higher
    // absolute scale (25-77 W averages), so the analogous operating point
    // is ~70 W; 47 W at our scale would simply be "always triggered".
    let chip_threshold_w = 70.0;
    // One engine cell per benchmark, sharded across TDTM_THREADS workers;
    // each cell's extra payload is its proxy scores. Cells start cold: the
    // comparison is about how the boxcar lags real heating transients,
    // which the jump-started steady state would hide.
    let results = ExperimentGrid::new(env.scale)
        .suite()
        .variant("cold", |cfg| cfg.warm_start = false)
        .run_with_threads(env.threads, |cell| {
            score_proxies(cell.config(), &cell.workload, &windows, &windows, chip_threshold_w)
        });
    for run in &results.runs {
        let true_pct = 100.0 * run.report.emergency_fraction();
        for p in &run.extra {
            // Aggregate blocks for the per-structure proxy; the chip-wide
            // proxy has a single entry.
            let mut agg = tdtm_thermal::comparison::AgreementCounts::new();
            for (_, c) in &p.per_block {
                agg.merge(c);
            }
            let row = [
                run.bench.clone(),
                p.label.split_whitespace().last().unwrap_or("?").to_string(),
                format!("{true_pct:.2}%"),
                format!("{:.2}%", 100.0 * agg.miss_cycle_rate()),
                format!("{:.2}%", 100.0 * agg.false_trigger_rate()),
            ];
            if p.label.starts_with("structure") {
                per_structure.row(row);
            } else {
                chip_wide.row(row);
            }
        }
    }

    println!("-- Table 9: per-structure boxcar power proxy --\n");
    println!("{}", per_structure.render());
    println!("-- Table 10: chip-wide boxcar power proxy ({chip_threshold_w} W trigger; the analogue of the paper's 47 W at our power scale) --\n");
    println!("{}", chip_wide.render());
    println!("missed %: cycles the RC model says are emergencies that the proxy fails to flag,");
    println!("as a fraction of all (block-)cycles; false trig %: proxy triggers with no emergency.");

    // Host timings go to stderr: stdout depends on TDTM_INSTS alone.
    eprintln!("\n-- engine observability --\n");
    eprintln!("{}", grid_summary(&results));
}
