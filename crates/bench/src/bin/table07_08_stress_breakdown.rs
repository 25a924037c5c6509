//! Regenerates Tables 7 and 8: percentage of cycles each structure spends
//! above the stress threshold (110 C, Table 7) and above the emergency
//! threshold (111 C, Table 8), with no thermal management.

use tdtm_bench::{banner, from_env};
use tdtm_core::report::TextTable;
use tdtm_core::{ExperimentGrid, RunReport};

fn print_table(title: &str, reports: &[RunReport], emergency: bool) {
    println!("-- {title} --\n");
    let block_names: Vec<String> = reports[0].blocks.iter().map(|b| b.name.clone()).collect();
    let mut header = vec!["benchmark".to_string()];
    header.extend(block_names);
    let mut t = TextTable::new(header);
    for r in reports {
        let mut row = vec![r.name.clone()];
        for b in &r.blocks {
            let cycles = if emergency { b.emergency_cycles } else { b.stress_cycles };
            row.push(format!("{:.2}%", 100.0 * cycles as f64 / r.cycles.max(1) as f64));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

fn main() {
    let env = from_env();
    banner("Tables 7 and 8: per-structure thermal stress breakdown (no DTM)", env.scale);
    let reports = env.run(&ExperimentGrid::new(env.scale).suite()).reports();
    print_table("Table 7: % of cycles above 110 C (thermal stress)", &reports, false);
    print_table("Table 8: % of cycles above 111 C (thermal emergency)", &reports, true);
}
