//! End-to-end simulation throughput: cycles per second of the timing
//! core alone, of the full core→power→thermal loop, and of whole
//! unobserved `Simulator::run` executions — the cycle loop monomorphized
//! for the no-op observer, and the quantity `BENCH_simloop.json` pins.
//!
//! The `sim_run_*` rows time complete runs (no telemetry, no proxies, no
//! traces — the no-op observer) normalized to ns per simulated
//! cycle. Each exercises a distinct hot-loop regime:
//!
//! - `sim_run_gcc_none`: the plain chunked loop, no actuation.
//! - `sim_run_gcc_pid`: the controller toggles fetch duty every sample.
//! - `sim_run_gcc_vfscale`: V/f transitions stall the core in 15 K-cycle
//!   resync windows of constant idle power.
//! - `sim_run_gcc_leak`: the temperature-dependent leakage feedback path.
//! - `sim_run_crafty_none`: branchy low-IPC code (recovery-heavy).
//! - `sim_run_mc2_pid` / `sim_run_mc4_super`: whole chip runs through
//!   the coupled multicore kernel (normalized per chip cycle × cores),
//!   the latter with hot unthrottled neighbors under the supervisor.
//!
//! Flags (after `--`):
//!
//! - `--json <path>`: write the measured rows as JSON (the committed
//!   baseline at the repo root is `BENCH_simloop.json`).
//! - `--check <path>`: compare against a committed baseline and exit
//!   nonzero if any shared row regressed more than 3× (loose enough to
//!   be safe against CI noise; catches algorithmic regressions).
//! - `--quick`: single repetition per whole-run row and skip the
//!   calibrated micro rows (the tier-1 smoke).

use tdtm_bench::microbench::{black_box, Harness};
use tdtm_core::{MulticoreSim, SimConfig, Simulator};
use tdtm_dtm::{PolicyKind, SupervisorConfig};
use tdtm_power::{PowerConfig, PowerModel};
use tdtm_thermal::block_model::{table3_blocks, BlockModel};
use tdtm_uarch::{Core, CoreConfig};
use tdtm_workloads::by_name;

/// Regression tolerance for `--check`: current ns/op may be at most this
/// many times the committed baseline.
const CHECK_TOLERANCE: f64 = 3.0;

/// Minimum speedup idle-gap skipping must deliver on the fully-gated
/// toggle row (`sim_run_gcc_toggle` vs its `_noskip` twin); the gap is
/// several-fold in practice, so 1.5x stays safe against `--quick` noise
/// while catching a disabled or degraded skip path.
const SKIP_SPEEDUP_FLOOR: f64 = 1.5;

fn cell_config(policy: PolicyKind, heatsink: f64) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.dtm.policy = policy;
    cfg.max_insts = 120_000;
    cfg.heatsink_temp = heatsink;
    cfg
}

/// Times whole uninstrumented runs of one cell, normalized per simulated
/// cycle (construction excluded — this measures the cycle loop).
/// `skip` pins idle-gap skipping on or off; `None` keeps the default
/// (on), which is what the plain rows bench.
fn bench_run(
    h: &mut Harness,
    name: &str,
    bench: &str,
    cfg: &SimConfig,
    reps: u32,
    skip: Option<bool>,
) {
    let w = by_name(bench).expect("suite workload");
    // One calibration run to learn the deterministic cycle count.
    let mut probe = Simulator::for_workload(cfg.clone(), &w);
    if let Some(on) = skip {
        probe.set_skip(on);
    }
    let report = probe.run();
    let cycles = report.total_cycles;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sim = Simulator::for_workload(cfg.clone(), &w);
        if let Some(on) = skip {
            sim.set_skip(on);
        }
        let start = std::time::Instant::now();
        black_box(sim.run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    let ns = best * 1e9 / cycles as f64;
    println!(
        "{name:<44} {ns:>12.2} ns/op {:>16.0} ops/s  ({cycles} cycles, {} engaged)",
        1e9 / ns,
        report.engaged_samples,
    );
    h.push_row(name, ns);
}

/// Times whole multicore chip runs, normalized per chip cycle × cores
/// (ns per core-cycle, comparable to the single-core rows: the coupled
/// kernel should cost roughly one `sim_run` per core plus the flow
/// phase).
fn bench_chip_run(
    h: &mut Harness,
    name: &str,
    bench: &str,
    cfg: &SimConfig,
    reps: u32,
    skip: Option<bool>,
) {
    let w = by_name(bench).expect("suite workload");
    let mut probe = MulticoreSim::for_workload(cfg.clone(), &w);
    if let Some(on) = skip {
        probe.set_skip(on);
    }
    let report = probe.run();
    let core_cycles = report.chip_cycles * cfg.chip.cores as u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sim = MulticoreSim::for_workload(cfg.clone(), &w);
        if let Some(on) = skip {
            sim.set_skip(on);
        }
        let start = std::time::Instant::now();
        black_box(sim.run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    let ns = best * 1e9 / core_cycles as f64;
    println!(
        "{name:<44} {ns:>12.2} ns/op {:>16.0} ops/s  ({} chip cycles x {} cores)",
        1e9 / ns,
        report.chip_cycles,
        cfg.chip.cores,
    );
    h.push_row(name, ns);
}

/// Minimal parser for the flat `{"name": ns, ...}` objects
/// [`Harness::to_json`] emits.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim().trim_matches('"');
        if let Ok(ns) = value.trim().parse::<f64>() {
            rows.push((name.to_string(), ns));
        }
    }
    rows
}

fn check_against(baseline_path: &str, h: &Harness) -> bool {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text);
    let mut ok = true;
    for (name, ns) in h.results() {
        let Some((_, base)) = baseline.iter().find(|(b, _)| b == name) else {
            continue;
        };
        let ratio = ns / base;
        let verdict = if ratio <= CHECK_TOLERANCE { "ok" } else { "REGRESSED" };
        println!("check {name:<40} {ns:>10.2} vs {base:>10.2} ns/op  ({ratio:>5.2}x)  {verdict}");
        if ratio > CHECK_TOLERANCE {
            ok = false;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 7 };
    let mut h = Harness::new();

    if !quick {
        // Core-only rows: high-IPC gcc keeps the window nearly empty,
        // branchy crafty recovers constantly, FP-heavy equake keeps it full.
        for bench in ["gcc", "crafty", "equake"] {
            let w = by_name(bench).expect("suite workload");
            let mut core =
                Core::with_skip(CoreConfig::alpha21264_like(), w.program(), w.warmup_insts);
            h.bench(&format!("core_cycle_{bench}"), || {
                black_box(core.cycle());
            });
        }

        let w = by_name("gcc").expect("suite workload");
        let core_cfg = CoreConfig::alpha21264_like();
        let mut core = Core::with_skip(core_cfg, w.program(), w.warmup_insts);
        let power = PowerModel::new(&PowerConfig::default(), &core_cfg);
        let mut thermal = BlockModel::new(table3_blocks(), 103.0, core_cfg.cycle_time());
        h.bench("full_loop_cycle_gcc", || {
            let activity = core.cycle();
            let sample = power.cycle_power(activity);
            thermal.step(&sample.thermal_powers());
            black_box(thermal.temperatures()[0])
        });
    }

    // Whole unobserved runs (the no-op observer).
    bench_run(&mut h, "sim_run_gcc_none", "gcc", &cell_config(PolicyKind::None, 103.0), reps, None);
    bench_run(&mut h, "sim_run_gcc_pid", "gcc", &cell_config(PolicyKind::Pid, 107.0), reps, None);
    bench_run(
        &mut h,
        "sim_run_gcc_vfscale",
        "gcc",
        &cell_config(PolicyKind::VfScale, 107.0),
        reps,
        None,
    );
    let mut leak_cfg = cell_config(PolicyKind::None, 103.0);
    leak_cfg.leakage = Some(tdtm_power::LeakageModel::node_180nm());
    bench_run(&mut h, "sim_run_gcc_leak", "gcc", &leak_cfg, reps, None);
    bench_run(
        &mut h,
        "sim_run_crafty_none",
        "crafty",
        &cell_config(PolicyKind::None, 103.0),
        reps,
        None,
    );

    // Idle-gap skipping rows: at a 108 C heatsink the toggle policy's
    // duty-0.0 actuation engages at the first sample and never releases,
    // so the whole run (capped by `max_cycles`) is interval-long gated
    // windows — the pure skip regime. The `_noskip` twin pins skipping
    // off so the pair measures the fast-forward speedup directly.
    let mut toggle = cell_config(PolicyKind::Toggle1, 108.0);
    toggle.max_cycles = 1_000_000;
    bench_run(&mut h, "sim_run_gcc_toggle", "gcc", &toggle, reps, Some(true));
    bench_run(&mut h, "sim_run_gcc_toggle_noskip", "gcc", &toggle, reps, Some(false));

    // Multicore chip runs through the coupled thermal kernel: the 2-core
    // PID row measures the lockstep loop plus the flow phase; the 4-core
    // row adds hot unthrottled neighbors and the chip-level supervisor.
    let mut mc2 = cell_config(PolicyKind::Pid, 107.0);
    mc2.chip.cores = 2;
    bench_chip_run(&mut h, "sim_run_mc2_pid", "gcc", &mc2, reps, None);
    let mut mc4 = cell_config(PolicyKind::Pid, 107.0);
    mc4.chip.cores = 4;
    mc4.chip.neighbor_policy = Some(PolicyKind::None);
    mc4.chip.supervisor = Some(SupervisorConfig::default());
    bench_chip_run(&mut h, "sim_run_mc4_super", "gcc", &mc4, reps, None);

    // Parked-chip skip rows: unthrottled neighbors finish early and park
    // while the throttled core 0 keeps running — once the chip drains to
    // one gated core, the probe opens Parked-reason gaps every interval.
    let mut mc4_park = cell_config(PolicyKind::Toggle1, 107.0);
    mc4_park.chip.cores = 4;
    mc4_park.chip.neighbor_policy = Some(PolicyKind::None);
    bench_chip_run(&mut h, "sim_run_mc4_park", "gcc", &mc4_park, reps, Some(true));
    bench_chip_run(&mut h, "sim_run_mc4_park_noskip", "gcc", &mc4_park, reps, Some(false));

    // Gate the skip speedup on the fully-gated toggle row: a disabled or
    // degraded skip path shows up here long before the loose `--check`
    // tolerance would notice.
    let row = |name: &str| {
        h.results()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .expect("toggle rows always run")
    };
    let speedup = row("sim_run_gcc_toggle_noskip") / row("sim_run_gcc_toggle");
    println!("skip speedup sim_run_gcc_toggle: {speedup:.2}x (floor {SKIP_SPEEDUP_FLOOR}x)");
    if speedup < SKIP_SPEEDUP_FLOOR {
        eprintln!("idle-gap skip speedup below floor ({speedup:.2}x < {SKIP_SPEEDUP_FLOOR}x)");
        std::process::exit(1);
    }

    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args.get(i + 1).expect("--json needs a path");
        std::fs::write(path, h.to_json()).expect("write json baseline");
        eprintln!("wrote {path}");
    }
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check needs a path");
        if !check_against(path, &h) {
            eprintln!("bench regression check FAILED (>{CHECK_TOLERANCE}x vs {path})");
            std::process::exit(1);
        }
        eprintln!("bench regression check passed (tolerance {CHECK_TOLERANCE}x)");
    }
}
