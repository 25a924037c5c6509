//! Policy shoot-out on one benchmark: runs `gcc` (an extreme-category
//! workload) under each DTM policy and prints performance relative to the
//! no-DTM baseline along with emergency elimination — a single-benchmark
//! slice of the paper's Section 7 results.
//!
//! ```text
//! cargo run --release --example dtm_comparison [benchmark]
//! ```

use tdtm::core::experiments::{compare_policies, ExperimentScale};
use tdtm::dtm::PolicyKind;
use tdtm::workloads::by_name;

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_string());
    let workload = match by_name(&bench) {
        Some(w) => w,
        None => {
            eprintln!("unknown benchmark `{bench}`; try one of:");
            for w in tdtm::workloads::suite() {
                eprintln!("  {}", w.name);
            }
            std::process::exit(1);
        }
    };

    let scale = ExperimentScale { insts: 800_000, warmup_cycles: 80_000 };
    let policies = [
        PolicyKind::Toggle1,
        PolicyKind::Toggle2,
        PolicyKind::Throttle,
        PolicyKind::SpecControl,
        PolicyKind::Manual,
        PolicyKind::P,
        PolicyKind::Pi,
        PolicyKind::Pid,
    ];

    println!("benchmark: {bench} ({} category)", workload.category);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cmp = compare_policies(&workload, scale, &policies, threads);
    println!(
        "baseline (no DTM): IPC {:.2}, {:.2}% of cycles in thermal emergency\n",
        cmp.baseline.ipc,
        100.0 * cmp.baseline.emergency_fraction()
    );
    println!("{:10} {:>12} {:>12} {:>10} {:>14}", "policy", "perf vs base", "emergencies", "engaged", "gated cycles");
    for run in &cmp.runs {
        println!(
            "{:10} {:>11.1}% {:>11.2}% {:>7}/{:<3} {:>14}",
            run.policy,
            run.percent_of(&cmp.baseline),
            100.0 * run.emergency_fraction(),
            run.engaged_samples,
            run.samples,
            run.gated_cycles
        );
    }
    println!("\nthe control-theoretic policies modulate the toggling level instead of slamming");
    println!("fetch off, so they hold temperature just below the threshold at a fraction of");
    println!("the performance cost (the paper's ~65% loss reduction).");
}
