//! Cross-core interference study: how much a hot, unthrottled neighbor
//! costs the DTM-controlled core, across core count, coupling strength,
//! heterogeneity, and the chip-level supervisor.
//!
//! Every chip variant pins core 0 under the policy while cores 1..N run
//! the same program unthrottled at a 107 C heatsink (the single-core DTM
//! stress configuration). The `solo` column is the single-core control:
//! anything above it is heat conducted in through the tangential
//! resistances, not generated by core 0 itself.

use tdtm_bench::{banner, from_env};
use tdtm_core::experiments::interference_grid;
use tdtm_core::report::{grid_summary, TextTable};
use tdtm_dtm::PolicyKind;
use tdtm_workloads::by_name;

fn main() {
    let env = from_env();
    banner("Cross-core interference: hot neighbors vs the DTM-controlled core (gcc)", env.scale);

    let w = by_name("gcc").expect("gcc in suite");
    let policies =
        [PolicyKind::Pid, PolicyKind::AdaptiveI, PolicyKind::StabilityAware];
    // Each cell's report is core 0's (the DTM-controlled core); the extra
    // payload is the full chip report, `None` for the single-core control.
    let results = interference_grid(&w, env.scale, &policies)
        .run_with_threads(env.threads, |cell| cell.run_chip());

    let mut t = TextTable::new([
        "cell",
        "core0 peak (C)",
        "core0 emerg",
        "core0 %IPC",
        "chip peak (C)",
        "sup caps",
    ]);
    // %-of-baseline needs each policy's own solo cell as the reference;
    // cells are enumerated policy-major, variant-minor, so the solo run
    // (first variant) precedes its siblings.
    let mut solo_ipc = f64::NAN;
    for run in &results.runs {
        if run.variant == "solo" {
            solo_ipc = run.report.ipc;
        }
        let core0_peak = run
            .report
            .blocks
            .iter()
            .map(|b| b.max_temp)
            .fold(f64::NEG_INFINITY, f64::max);
        let (chip_peak, caps) = match &run.extra {
            Some(chip) => (chip.hottest().2, chip.supervisor_interventions.to_string()),
            None => (core0_peak, "-".to_string()),
        };
        t.row([
            run.label(),
            format!("{core0_peak:.2}"),
            run.report.emergency_cycles.to_string(),
            format!("{:.1}", 100.0 * run.report.ipc / solo_ipc),
            format!("{chip_peak:.2}"),
            caps,
        ]);
    }
    println!("{}", t.render());

    // The headline deltas: what each chip shape adds to core 0's peak
    // temperature over its own single-core control.
    let mut d = TextTable::new(["policy", "variant", "dT core0 peak (K)"]);
    let mut solo_peak = f64::NAN;
    for run in &results.runs {
        let peak = run
            .report
            .blocks
            .iter()
            .map(|b| b.max_temp)
            .fold(f64::NEG_INFINITY, f64::max);
        if run.variant == "solo" {
            solo_peak = peak;
            continue;
        }
        d.row([
            run.policy.to_string(),
            run.variant.to_string(),
            format!("{:+.3}", peak - solo_peak),
        ]);
    }
    println!("{}", d.render());
    println!("positive dT = heat conducted in from neighbors; `2core-uncoupled` isolates");
    println!("the control (same chip, coupling disabled) and should sit near zero.");

    // Host timings go to stderr: stdout depends on TDTM_INSTS alone.
    eprintln!("\n-- engine observability --\n");
    eprintln!("{}", grid_summary(&results));
}
