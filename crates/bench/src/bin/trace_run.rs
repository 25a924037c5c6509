//! `trace_run` — dump an annotated in-run telemetry trace for any
//! workload×policy cell.
//!
//! Runs one simulation with full telemetry (event ring, metrics registry
//! and phase timers) and prints the run summary, the host-time phase
//! profile, the merged metrics, and the retained event trace as JSONL
//! (or CSV with `--csv`). This is the interactive complement to the
//! figure binaries: where they aggregate, this answers "what did the
//! controller do at cycle 41 000?".
//!
//! With `--cores N` (and optionally `--supervisor`) the same trace runs
//! on the lockstep multicore chip instead of the single-core simulator.
//! Both print the same shape: one summary per core, every event tagged
//! with its core id, and the chip-level supervisor-cap and park
//! decisions in a separate chip ring dumped ahead of the per-core rings.
//!
//! `TDTM_SKIP=0` turns idle-gap skipping off; the report and metrics are
//! the same either way, only the skipped-window log goes empty.
//!
//! ```text
//! cargo run -p tdtm-bench --release --bin trace_run -- gcc pid
//! cargo run -p tdtm-bench --release --bin trace_run -- art hierarchical --stride 100 --csv
//! cargo run -p tdtm-bench --release --bin trace_run -- gcc pid --cores 4 --supervisor
//! ```

use tdtm_core::{Die, Machine, MulticoreSim, Simulator};
use tdtm_dtm::{PolicyKind, SupervisorConfig};
use tdtm_telemetry::{EventTrace, RegistrySnapshot, TelemetryConfig};
use tdtm_workloads::{by_name, suite};

struct Args {
    workload: String,
    policy: PolicyKind,
    stride: u64,
    capacity: usize,
    csv: bool,
    insts: Option<u64>,
    cores: usize,
    supervisor: bool,
}

fn usage() -> String {
    format!(
        "usage: trace_run <workload> <policy> [--stride N] [--capacity N] [--csv] [--insts N]
                 [--cores N] [--supervisor]

  <workload>   a suite benchmark name (see below)
  <policy>     a DTM policy name (see below)
  --stride N   record dense events (controller samples, sensor reads)
               every N-th DTM sample only (default 1: every sample)
  --capacity N event ring capacity; oldest events drop past it (default 65536)
  --csv        dump events as CSV instead of JSONL
  --insts N    committed-instruction budget (default: {} or 1000000)
  --cores N    run on the N-core lockstep chip instead of the single-core
               simulator (default 1: single-core path)
  --supervisor attach the default chip-level supervisor (implies the chip
               path even at --cores 1)",
        tdtm_bench::INSTS_VAR
    )
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut stride = 1u64;
    let mut capacity = 65_536usize;
    let mut csv = false;
    let mut insts = None;
    let mut cores = 1usize;
    let mut supervisor = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--stride" => {
                stride = value("--stride")?.parse().map_err(|e| format!("--stride: {e}"))?;
                if stride == 0 {
                    return Err("--stride must be nonzero".into());
                }
            }
            "--capacity" => {
                capacity = value("--capacity")?.parse().map_err(|e| format!("--capacity: {e}"))?;
                if capacity == 0 {
                    return Err("--capacity must be nonzero".into());
                }
            }
            "--csv" => csv = true,
            "--insts" => {
                insts = Some(value("--insts")?.parse().map_err(|e| format!("--insts: {e}"))?);
            }
            "--cores" => {
                cores = value("--cores")?.parse().map_err(|e| format!("--cores: {e}"))?;
                if cores == 0 {
                    return Err("--cores must be nonzero".into());
                }
            }
            "--supervisor" => supervisor = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let [workload, policy_name] = positional.as_slice() else {
        return Err("expected exactly <workload> and <policy>".into());
    };
    let policy = PolicyKind::parse(policy_name)
        .ok_or_else(|| format!("unknown policy `{policy_name}`"))?;
    Ok(Args { workload: workload.clone(), policy, stride, capacity, csv, insts, cores, supervisor })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{}\n", usage());
            eprintln!(
                "workloads: {}",
                suite().iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
            );
            eprintln!(
                "policies:  {}",
                PolicyKind::all().map(PolicyKind::name).join(" ")
            );
            std::process::exit(if msg.is_empty() { 0 } else { 2 });
        }
    };
    let Some(workload) = by_name(&args.workload) else {
        eprintln!(
            "error: unknown workload `{}`; choose one of: {}",
            args.workload,
            suite().iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
        );
        std::process::exit(2);
    };

    let env = tdtm_bench::from_env();
    let mut scale = env.scale;
    if let Some(n) = args.insts {
        scale.insts = n;
    }
    let mut cfg = scale.config(args.policy);
    cfg.chip.cores = args.cores;
    if args.supervisor {
        cfg.chip.supervisor = Some(SupervisorConfig::default());
    }
    let chip_path = cfg.chip.cores > 1 || cfg.chip.supervisor.is_some();
    eprintln!(
        "== trace_run: {} / {} ({} insts, event ring {} deep, stride {}{}) ==",
        workload.name,
        args.policy.name(),
        scale.insts,
        args.capacity,
        args.stride,
        if chip_path {
            format!(
                ", {} core(s){}",
                args.cores,
                if args.supervisor { " + supervisor" } else { "" }
            )
        } else {
            String::new()
        }
    );
    let tcfg = TelemetryConfig::full(args.capacity, args.stride);
    if chip_path {
        trace(MulticoreSim::for_workload(cfg, &workload), env.skip, &tcfg, &args);
    } else {
        trace(Simulator::for_workload(cfg, &workload), env.skip, &tcfg, &args);
    }
}

/// Runs `sim` under full telemetry and prints the per-core summaries,
/// the chip line, the phase profiles, the merged metrics, the event
/// rings and the skipped windows.
fn trace<D: Die>(mut sim: Machine<D>, skip: bool, tcfg: &TelemetryConfig, args: &Args) {
    sim.set_skip(skip);
    sim.enable_telemetry(tcfg);
    sim.record_skip_windows();
    let report = sim.run_chip();
    let telemetry = sim.take_telemetry().expect("telemetry was enabled");

    for (k, core) in report.cores.iter().enumerate() {
        eprintln!(
            "core {k}: {} cycles, {} committed (IPC {:.3}), avg power {:.1} W, emergency {:.2}%, stress {:.2}%, {} DTM samples, {} engaged",
            core.total_cycles,
            core.committed,
            core.ipc,
            core.avg_power,
            100.0 * core.emergency_fraction(),
            100.0 * core.stress_fraction(),
            core.samples,
            core.engaged_samples
        );
        if let Some(hot) = core.hottest_block() {
            eprintln!(
                "        hottest block: {} (max {:.2} C, avg {:.2} C)",
                hot.name, hot.max_temp, hot.avg_temp
            );
        }
    }
    let (hot_core, hot_block, hot_temp) = report.hottest();
    eprintln!(
        "chip: {} lockstep cycles, peak {:.2} C ({} on core {hot_core}), {} supervisor interventions",
        report.chip_cycles,
        hot_temp,
        report.cores[hot_core].blocks[hot_block].name,
        report.supervisor_interventions
    );

    for (k, core) in telemetry.cores.iter().enumerate() {
        if let Some(phases) = &core.phases {
            eprintln!("\ncore {k} host-time phase profile (not deterministic):");
            eprint!("{}", phases.render_table());
        }
    }
    if let Some(snap) = telemetry.merged_metrics() {
        print_metrics(&snap);
    }

    let mut traces: Vec<(String, &EventTrace)> = Vec::new();
    if let Some(chip_events) = &telemetry.chip_events {
        traces.push(("chip".into(), chip_events));
    }
    for (k, core) in telemetry.cores.iter().enumerate() {
        if let Some(events) = &core.events {
            traces.push((format!("core {k}"), events));
        }
    }
    dump_events(&traces, args.csv, args.capacity);

    dump_skip_windows(sim.skip_windows(), report.chip_cycles);
}

/// Annotates the idle windows the run fast-forwarded (observed runs skip
/// like unobserved ones): start/end cycle and the reason (gated fetch,
/// drained pipeline, V/f resync, parked chip neighbors). Stderr like the
/// other annotations, so event dumps redirect cleanly.
fn dump_skip_windows(windows: &[tdtm_core::SkipWindow], total_cycles: u64) {
    let skipped: u64 = windows.iter().map(tdtm_core::SkipWindow::len).sum();
    eprintln!(
        "\nskipped idle windows in this run: {} windows, {} of {} cycles ({:.1}%)",
        windows.len(),
        skipped,
        total_cycles,
        100.0 * skipped as f64 / total_cycles.max(1) as f64
    );
    const SHOWN: usize = 32;
    for w in windows.iter().take(SHOWN) {
        eprintln!(
            "  [{:>10}, {:>10})  {:>6} cycles  {}",
            w.start,
            w.end,
            w.len(),
            match w.reason {
                tdtm_core::SkipReason::Gated => "gated",
                tdtm_core::SkipReason::Drained => "drained",
                tdtm_core::SkipReason::Resync => "resync",
                tdtm_core::SkipReason::Parked => "parked",
            }
        );
    }
    if windows.len() > SHOWN {
        eprintln!("  ... {} more windows", windows.len() - SHOWN);
    }
}

fn print_metrics(snap: &RegistrySnapshot) {
    eprintln!("\nmetrics:");
    for &(name, value) in &snap.counters {
        eprintln!("  {name:<18} {value}");
    }
    for (name, hist) in &snap.histograms {
        let q = |p: f64| hist.quantile(p).map_or_else(|| "-".into(), |v| format!("{v:.2}"));
        eprintln!(
            "  {name:<18} n={} p50={} p99={} under={} over={}",
            hist.count(),
            q(0.5),
            q(0.99),
            hist.underflow,
            hist.overflow
        );
    }
}

/// Dumps one or more event rings to stdout (annotations per ring stay on
/// stderr so the dump can be redirected to a file). CSV gets a single
/// header row even across several rings — every event row carries its
/// core id, so concatenation loses nothing.
fn dump_events(traces: &[(String, &EventTrace)], csv: bool, capacity: usize) {
    if csv && !traces.is_empty() {
        println!("{}", EventTrace::CSV_HEADER);
    }
    for (label, events) in traces {
        eprintln!(
            "\n{label}: {} events retained, {} dropped (oldest-first; ring capacity {})",
            events.recorded().min(capacity as u64),
            events.dropped(),
            capacity
        );
        if csv {
            for e in events.iter() {
                println!("{}", e.to_csv_row());
            }
        } else {
            print!("{}", events.to_jsonl());
        }
    }
}
