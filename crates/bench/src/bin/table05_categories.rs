//! Regenerates Table 5: the four categories of thermal behavior, from
//! measured characterization runs.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::categorize;
use tdtm_core::ExperimentGrid;
use tdtm_workloads::{suite, ThermalCategory};

fn main() {
    let env = from_env();
    banner("Table 5: categories of thermal behavior", env.scale);

    let reports = env.run(&ExperimentGrid::new(env.scale).suite()).reports();
    let declared: std::collections::HashMap<&str, ThermalCategory> =
        suite().iter().map(|w| (w.name, w.category)).collect();

    let mut buckets: Vec<(ThermalCategory, Vec<String>)> = vec![
        (ThermalCategory::Extreme, Vec::new()),
        (ThermalCategory::High, Vec::new()),
        (ThermalCategory::Medium, Vec::new()),
        (ThermalCategory::Low, Vec::new()),
    ];
    let mut mismatches = Vec::new();
    for r in &reports {
        let cat = categorize(r);
        buckets
            .iter_mut()
            .find(|(c, _)| *c == cat)
            .expect("all categories present")
            .1
            .push(r.name.clone());
        if declared[r.name.as_str()] != cat {
            mismatches.push(format!(
                "{} (declared {}, measured {})",
                r.name, declared[r.name.as_str()], cat
            ));
        }
    }
    for (cat, names) in &buckets {
        println!("{:8}: {}", cat.name(), names.join(", "));
    }
    println!();
    if mismatches.is_empty() {
        println!("measured categories match the suite's declared categories.");
    } else {
        println!("declared/measured mismatches at this scale: {}", mismatches.join("; "));
    }
}
