//! Regenerates the Section 7 headline results: performance (as % of the
//! non-DTM IPC) and emergency elimination for each DTM policy, and the
//! paper's summary claim — the control-theoretic policies cut the
//! performance loss of DTM by roughly 65% relative to toggle1 while never
//! entering thermal emergency.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::{compare_policies_grid, group_policy_comparisons};
use tdtm_core::report::{grid_summary, TextTable};
use tdtm_dtm::PolicyKind;

fn main() {
    let env = from_env();
    banner("Section 7: DTM policy comparison", env.scale);

    let policies = [
        PolicyKind::Toggle1,
        PolicyKind::Toggle2,
        PolicyKind::Manual,
        PolicyKind::P,
        PolicyKind::Pi,
        PolicyKind::Pid,
    ];
    // The whole (18 benchmarks × 7 policies) grid shards across
    // TDTM_THREADS workers; the reports are thread-count independent.
    let results = env.run(&compare_policies_grid(env.scale, &policies));
    let rows = group_policy_comparisons(&results);

    let mut header = vec!["benchmark".to_string(), "base emerg".to_string()];
    for p in policies {
        header.push(format!("{p} perf"));
        header.push(format!("{p} emerg"));
    }
    let mut t = TextTable::new(header);
    let mut sum_loss = vec![0.0f64; policies.len()];
    let mut any_emergency = vec![false; policies.len()];
    for row in &rows {
        let mut cells = vec![
            row.bench.clone(),
            format!("{:.2}%", 100.0 * row.baseline.emergency_fraction()),
        ];
        for (i, run) in row.runs.iter().enumerate() {
            let pct = run.percent_of(&row.baseline);
            sum_loss[i] += 100.0 - pct;
            any_emergency[i] |= run.emergency_cycles > 0;
            cells.push(format!("{pct:.1}%"));
            cells.push(format!("{:.2}%", 100.0 * run.emergency_fraction()));
        }
        t.row(cells);
    }
    println!("{}", t.render());

    println!("-- summary (mean performance loss across all 18 benchmarks) --\n");
    let mut s = TextTable::new(["policy", "mean perf loss", "eliminates emergencies"]);
    let mut toggle1_loss = f64::NAN;
    for (i, p) in policies.iter().enumerate() {
        let loss = sum_loss[i] / rows.len() as f64;
        if *p == PolicyKind::Toggle1 {
            toggle1_loss = loss;
        }
        s.row([
            p.name().to_string(),
            format!("{loss:.2}%"),
            if any_emergency[i] { "NO".to_string() } else { "yes".to_string() },
        ]);
    }
    println!("{}", s.render());

    for p in [PolicyKind::Pi, PolicyKind::Pid] {
        let i = policies.iter().position(|&x| x == p).expect("in list");
        let loss = sum_loss[i] / rows.len() as f64;
        let savings = 100.0 * (1.0 - loss / toggle1_loss);
        println!(
            "{p}: cuts DTM performance loss by {savings:.0}% vs toggle1 (paper reports ~65%), \
             with the trigger only 0.2 K below the emergency threshold"
        );
    }

    // Host timings go to stderr: stdout depends on TDTM_INSTS alone.
    eprintln!("\n-- engine observability --\n");
    eprintln!("{}", grid_summary(&results));
}
