//! Exports machine-readable CSVs of the main experiments into `results/`:
//! `characterization.csv` (the Table 4-8 source data) and `dtm.csv` (the
//! Section 7 policy comparison), for external plotting.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::compare_policies_grid;
use tdtm_core::report::reports_to_csv;
use tdtm_core::ExperimentGrid;
use tdtm_dtm::PolicyKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = from_env();
    banner("CSV export", env.scale);
    std::fs::create_dir_all("results")?;

    let characterization = env.run(&ExperimentGrid::new(env.scale).suite()).reports();
    std::fs::write("results/characterization.csv", reports_to_csv(&characterization))?;
    println!("wrote results/characterization.csv ({} rows)", characterization.len());

    let policies = [
        PolicyKind::Toggle1,
        PolicyKind::Toggle2,
        PolicyKind::Manual,
        PolicyKind::P,
        PolicyKind::Pi,
        PolicyKind::Pid,
    ];
    // Each benchmark's baseline, then its policies: the grid's cell order.
    let all = env.run(&compare_policies_grid(env.scale, &policies)).reports();
    std::fs::write("results/dtm.csv", reports_to_csv(&all))?;
    println!("wrote results/dtm.csv ({} rows)", all.len());
    Ok(())
}
