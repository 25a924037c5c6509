//! Regenerates Table 6: average and maximum temperature of each
//! architectural structure for every benchmark, with no thermal
//! management.

use tdtm_bench::{banner, from_env};
use tdtm_core::report::TextTable;
use tdtm_core::ExperimentGrid;

fn main() {
    let env = from_env();
    banner("Table 6: per-structure avg/max temperature (C), no DTM", env.scale);

    let reports = env.run(&ExperimentGrid::new(env.scale).suite()).reports();
    let block_names: Vec<String> = reports[0].blocks.iter().map(|b| b.name.clone()).collect();
    let mut header = vec!["benchmark".to_string()];
    header.extend(block_names);

    let mut t = TextTable::new(header);
    for r in &reports {
        let mut row = vec![r.name.clone()];
        for b in &r.blocks {
            row.push(format!("{:.1}/{:.1}", b.avg_temp, b.max_temp));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("cells are avg/max over the run; heatsink held at its 103 C operating point.");
}
