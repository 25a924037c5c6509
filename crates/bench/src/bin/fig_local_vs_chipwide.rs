//! The Section 6 demonstration: localized heating is much faster than
//! chip-wide heating. Runs the bursty `art` stand-in with trace recording
//! while integrating a chip-wide (TEMPEST-style) model from the same
//! power series, then prints both trajectories and the emergency counts
//! the chip-wide view misses.

use tdtm_bench::{banner, from_env};
use tdtm_core::engine::ExperimentGrid;
use tdtm_core::report::{grid_summary, TextTable};
use tdtm_thermal::chipwide::{ChipWideModel, ChipWideParams};
use tdtm_workloads::by_name;

fn main() {
    let env = from_env();
    banner("Section 6: localized vs chip-wide heating (art)", env.scale);

    let w = by_name("art").expect("art in suite");
    // A single-cell grid: `art` without DTM, stretched to at least 1.5M
    // instructions so the burst structure shows, with trace recording
    // attached through the engine's custom-driver hook.
    let grid = ExperimentGrid::new(env.scale)
        .workload(w)
        .variant("long", |cfg| cfg.max_insts = cfg.max_insts.max(1_500_000));
    let cfg = grid.cells()[0].config();
    let emergency = cfg.dtm.emergency;
    let cycle_time = cfg.cycle_time();
    let stride = 25_000u64;
    let results = grid.run_with_threads(env.threads, |cell| {
        let mut sim = cell.simulator();
        sim.record_trace(stride);
        let report = sim.run();
        let trace = sim.trace().expect("recorded").clone();
        (report, trace)
    });
    let run = &results.runs[0];
    let report = &run.report;
    let trace = &run.extra;

    // Integrate the chip-wide model against the recorded power series.
    let mut chip = ChipWideModel::new(ChipWideParams::paper_defaults(), 27.0);
    chip.set_temperatures(103.0, 95.0);
    let mut chip_series = Vec::with_capacity(trace.len());
    for &p in &trace.power {
        chip.step(p, stride as f64 * cycle_time);
        chip_series.push(chip.die_temperature());
    }

    // Print the trajectory of the hottest block vs the chip-wide die.
    let hot_idx = report
        .blocks
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.max_temp.total_cmp(&b.1.max_temp))
        .map(|(i, _)| i)
        .expect("blocks");
    let hot_name = &report.blocks[hot_idx].name;
    let mut series = TextTable::new(["time (us)", "power (W)", &format!("{hot_name} (C)"), "chip die (C)"]);
    let step = (trace.len() / 24).max(1);
    for k in (0..trace.len()).step_by(step) {
        series.row([
            format!("{:.0}", trace.cycles[k] as f64 * cycle_time * 1e6),
            format!("{:.1}", trace.power[k]),
            format!("{:.2}", trace.temperatures[k][hot_idx]),
            format!("{:.3}", chip_series[k]),
        ]);
    }
    println!("{}", series.render());

    let mut t = TextTable::new(["structure", "avg T (C)", "max T (C)", "emergency cycles"]);
    for b in &report.blocks {
        t.row([
            b.name.clone(),
            format!("{:.2}", b.avg_temp),
            format!("{:.2}", b.max_temp),
            b.emergency_cycles.to_string(),
        ]);
    }
    let chip_max = chip_series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    t.row([
        "chip-wide model".to_string(),
        format!("{:.3}", chip_series.last().copied().unwrap_or(103.0)),
        format!("{:.3}", chip_max),
        (chip_series.iter().filter(|&&c| c > emergency).count()).to_string(),
    ]);
    println!("{}", t.render());

    println!(
        "the localized model sees {} emergency cycles ({:.1}% of time); the chip-wide die",
        report.emergency_cycles,
        100.0 * report.emergency_fraction()
    );
    println!(
        "moved only {:+.3} K across the whole run — every localized emergency is invisible",
        chip_max - 103.0
    );
    println!("at chip granularity (block tau ~84 us vs chip tau ~1 minute).");

    // Host timings go to stderr: stdout depends on TDTM_INSTS alone.
    eprintln!("\n-- engine observability --\n");
    eprintln!("{}", grid_summary(&results));
}
