//! `benchmark` — the repository benchmark: four workloads, end-to-end
//! and per-layer metrics, output checks, and a traced cost ledger.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- run --seed 1
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- run --seed 1 --trace
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- compare parent.json change.json
//! ```
//!
//! Each workload runs in its own child process with every `TDTM_*`
//! variable cleared, so it measures the defaults users get. The last line
//! of standard output is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); every run is also written to
//! `target/benchmark/<workload>-seed<N>.json`. See `README.md` beside
//! this file for the workloads, the metrics and how to compare commits.

mod compare;
mod cpu;
mod golden;
mod measure;
mod ops;
mod outcome;
mod replica;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use measure::Plan;
use ops::{Kind, Scale};
use outcome::Outcome;
use spec::{MetricSpec, Spec};
use stats::{median, minimum, quantile};
use tdtm_telemetry::stream::{json_f64, json_str};

const USAGE: &str = "usage:
  benchmark [run] [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--append FILE]
  benchmark compare <parent.json> <change.json>
  benchmark golden --out DIR

  run       runs each workload (default: all four) in its own child process,
            prints every metric with its unit and, last, the result object;
            --trace runs the traced pass instead (per-layer metrics, spans in
            target/benchmark/trace-<workload>.json); --append adds each run
            record to FILE for `compare`
  compare   claim and no-regression verdicts for two files of run records
  golden    regenerates the golden digest tables into DIR";

/// Where run records and span files go.
const OUT_DIR: &str = "target/benchmark";

/// Tells a fleet-grid child which op of the run it is.
const OP_FLAG: &str = "--op";

/// Fleet-grid ops per run that also stream: the streamed pass is the
/// longest of the three, so only the first op runs it.
const STREAMED_OPS: usize = 1;

struct RunArgs {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    append: Option<PathBuf>,
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        append: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                run.workloads
                    .push(Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                run.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                run.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !run.seconds.is_finite() || run.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--append" => run.append = Some(PathBuf::from(value("--append")?)),
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        run.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = Kind::ALL.to_vec();
    }
    Ok(run)
}

/// Runs one child process, the `op`-th of its run, and returns what it
/// measured.
fn spawn_child(kind: Kind, run: &RunArgs, op: usize) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", OP_FLAG, &op.to_string(), "--workload", kind.name()])
        .args([
            "--seed",
            &run.seed.to_string(),
            "--seconds",
            &run.seconds.to_string(),
        ])
        .args(["--trace", if run.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TDTM_") {
            cmd.env_remove(&key);
        }
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting the child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    Outcome::from_json(line).map_err(|e| format!("child output: {e}"))
}

/// The end-to-end metrics over one or more children (one child per
/// fleet-grid op). Repeated times — each cell's time over the children,
/// each pass time over the children — reduce to the fastest (see
/// [`minimum`]); a cell workload's single child reports each cell's
/// fastest pass already. The time quantiles are over cells; the rates
/// are cells per pass time. The run's peak memory is its largest child's:
/// which grid cells hold their memory images at the same time depends on
/// thread timing, so one grid op in a few peaks a fifth lower.
fn end_to_end(children: &[Outcome]) -> Vec<(String, f64)> {
    let values = |name: &str| -> Vec<f64> { children.iter().filter_map(|c| c.get(name)).collect() };
    let med = |name: &str| median(&values(name));
    let most = |name: &str| values(name).into_iter().fold(f64::NAN, f64::max);
    let rate = |pass_s: &str| med("cells") / minimum(&values(pass_s));
    let cells = children[0].series("cell_ms").len();
    let cell_ms: Vec<f64> = (0..cells)
        .map(|i| {
            let times: Vec<f64> = children
                .iter()
                .filter_map(|c| c.series("cell_ms").get(i).copied())
                .collect();
            minimum(&times)
        })
        .collect();
    let cycles: f64 = children[0].series("cell_cycles").iter().sum();
    [
        ("setup_s", med("setup_s")),
        ("cell_ms_p50", quantile(&cell_ms, 1, 2)),
        ("cell_ms_p90", quantile(&cell_ms, 9, 10)),
        (
            "host_ns_per_cycle",
            cell_ms.iter().sum::<f64>() * 1e6 / cycles,
        ),
        ("cells_per_s", rate("cold_s")),
        ("warm_cells_per_s", rate("warm_s")),
        ("observed_cells_per_s", rate("observed_s")),
        ("peak_rss_mb", most("peak_rss_mb")),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// Orders `measured` by the spec and attaches units; every spec metric
/// must be present, finite, and nothing else may be.
fn against_spec<'a>(
    specs: &'a [MetricSpec],
    measured: &[(String, f64)],
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    if let Some((name, _)) = measured
        .iter()
        .find(|(n, _)| !specs.iter().any(|s| &s.name == n))
    {
        return Err(format!("metric `{name}` is not in BENCHMARK.json"));
    }
    specs
        .iter()
        .map(|s| {
            let found: Vec<f64> = measured
                .iter()
                .filter(|(n, _)| n == &s.name)
                .map(|&(_, v)| v)
                .collect();
            match found.as_slice() {
                [v] if v.is_finite() => Ok((s, *v)),
                [v] => Err(format!("metric `{}` is not finite ({v})", s.name)),
                [] => Err(format!("metric `{}` was not measured", s.name)),
                _ => Err(format!("metric `{}` was measured twice", s.name)),
            }
        })
        .collect()
}

fn metrics_json(metrics: &[(&MetricSpec, f64)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(s, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&s.name),
                json_f64(*v),
                json_str(&s.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Runs one workload (one child, or one child per fleet-grid op for the
/// run's seconds), prints it, writes its run record, and returns whether
/// its outputs were correct.
fn run_workload(kind: Kind, run: &RunArgs, spec: &Spec) -> Result<bool, String> {
    let plan = Plan::for_seconds(run.seconds);
    let mut children = Vec::new();
    let start = Instant::now();
    loop {
        let op_start = Instant::now();
        children.push(spawn_child(kind, run, children.len())?);
        let last = op_start.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        if kind != Kind::GridFleet
            || run.trace
            || !plan.another(measure::MIN_FLEET_OPS, children.len(), elapsed, last)
        {
            break;
        }
    }
    let measured = if run.trace {
        children[0].values.clone()
    } else {
        end_to_end(&children)
    };
    let metrics = against_spec(spec.metrics(run.trace), &measured)?;
    let attempted: u64 = children.iter().map(|c| c.attempted).sum();
    let failed: u64 = children.iter().map(|c| c.failed).sum();
    let correct = failed == 0 && attempted > 0;

    let mode = if run.trace { "traced" } else { "untraced" };
    println!(
        "== {} (seed {}, {} s, {mode}) ==",
        kind.name(),
        run.seed,
        run.seconds
    );
    for note in children.iter().flat_map(|c| &c.notes) {
        println!("  {note}");
    }
    for failure in children.iter().flat_map(|c| &c.failures) {
        println!("  FAILED: {failure}");
    }
    println!("  ops: {attempted} attempted, {failed} failed");
    for (s, v) in &metrics {
        println!("  {:<40} {:>16.6} {}", s.name, v, s.unit);
    }

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {}}}",
        json_str(kind.name()),
        run.seed,
        run.trace,
        metrics_json(&metrics)
    );
    let suffix = if run.trace { "-trace" } else { "" };
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}{suffix}.json", kind.name(), run.seed));
    write_line(&path, &record, false)?;
    if let Some(append) = &run.append {
        write_line(append, &record, true)?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    Ok(correct)
}

fn write_line(path: &Path, line: &str, append: bool) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_main(args: &[String]) -> i32 {
    let spec = Spec::load();
    let run = match parse_run_args(args, &spec) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    for &kind in &run.workloads {
        if let Err(e) = run_workload(kind, &run, &spec) {
            eprintln!("benchmark: {}: {e}", kind.name());
            return 1;
        }
    }
    0
}

/// The child side: measures one workload (or one fleet-grid op) and
/// prints the outcome as one JSON line.
fn child_main(args: &[String]) -> i32 {
    let spec = Spec::load();
    let (op, args) = match args {
        [flag, op, rest @ ..] if flag == OP_FLAG => match op.parse::<usize>() {
            Ok(op) => (op, rest),
            Err(e) => {
                eprintln!("benchmark child: {OP_FLAG}: {e}");
                return 2;
            }
        },
        _ => (0, args),
    };
    let run = match parse_run_args(args, &spec) {
        Ok(run) if run.workloads.len() == 1 => run,
        Ok(_) => {
            eprintln!("benchmark child: exactly one --workload");
            return 2;
        }
        Err(e) => {
            eprintln!("benchmark child: {e}");
            return 2;
        }
    };
    let kind = run.workloads[0];
    let (scale, plan) = (Scale::FULL, Plan::for_seconds(run.seconds));
    let out = if run.trace {
        trace::traced(kind, run.seed, &scale, &plan, Some(Path::new(OUT_DIR)))
    } else if kind == Kind::GridFleet {
        measure::fleet_op(&scale, &plan, op < STREAMED_OPS, op).1
    } else {
        measure::cell_workload(kind, run.seed, &scale, &plan)
    };
    println!("{}", out.to_json());
    0
}

fn golden_main(args: &[String]) -> i32 {
    let [flag, dir] = args else {
        eprintln!("usage: benchmark golden --out DIR");
        return 2;
    };
    if flag != "--out" {
        eprintln!("usage: benchmark golden --out DIR");
        return 2;
    }
    match golden::regenerate(Path::new(dir), &tdtm_workloads::suite()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark golden: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("golden") => golden_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        _ => run_main(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{digest, Golden};
    use crate::ops::{cell_space, fleet_grid, CellSet};
    use tdtm_core::experiments::ExperimentScale;
    use tdtm_core::Simulator;

    const TINY: Scale = Scale {
        insts: 300,
        chip_insts: 200,
        warmup: 100,
        hot_max_cycles: 20_000,
        grid: ExperimentScale {
            insts: 300,
            warmup_cycles: 100,
        },
        benches: 2,
        grid_policies: 2,
        golden: false,
    };

    const TINY_PLAN: Plan = Plan {
        seconds: 0.0,
        warm_grid_seconds: 0.0,
        trace_ops: 1,
        setups: 1,
    };

    #[test]
    fn every_workload_reports_every_metric_with_its_unit() {
        let spec = Spec::load();
        for kind in Kind::ALL {
            let untraced = match kind {
                Kind::GridFleet => measure::fleet_op(&TINY, &TINY_PLAN, true, 0).1,
                _ => measure::cell_workload(kind, 1, &TINY, &TINY_PLAN),
            };
            assert_eq!(
                untraced.failed,
                0,
                "{}: {:?}",
                kind.name(),
                untraced.failures
            );
            let traced = trace::traced(kind, 1, &TINY, &TINY_PLAN, None);
            assert_eq!(
                traced.failed,
                0,
                "{} traced: {:?}",
                kind.name(),
                traced.failures
            );
            for (trace, measured) in [(false, end_to_end(&[untraced])), (true, traced.values)] {
                let metrics = against_spec(spec.metrics(trace), &measured)
                    .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", kind.name()));
                if !trace {
                    for (s, v) in &metrics {
                        assert!(*v > 0.0, "{}: {} reads {v}", kind.name(), s.name);
                    }
                }
                let json = metrics_json(&metrics);
                for s in spec.metrics(trace) {
                    let entry = format!("{}: {{\"value\": ", json_str(&s.name));
                    assert!(json.contains(&entry), "{} lacks {}", kind.name(), s.name);
                    assert!(json.contains(&format!("\"unit\": {}", json_str(&s.unit))));
                }
            }
        }
    }

    #[test]
    fn the_benchmark_builds_with_the_repository_release_profile() {
        let release = |toml: &'static str| {
            let (_, rest) = toml
                .split_once("[profile.release]\n")
                .expect("a release profile");
            rest.split("\n[").next().unwrap_or(rest).trim()
        };
        assert_eq!(
            release(include_str!("Cargo.toml")),
            release(include_str!("../../../../../Cargo.toml")),
            "copy the root Cargo.toml's [profile.release] into the benchmark's"
        );
    }

    #[test]
    fn the_op_list_is_a_pure_function_of_the_seed() {
        let suite = tdtm_workloads::suite();
        let ops = |kind, seed| {
            let mut set = CellSet::new(kind, seed, &suite, &Scale::FULL);
            let passes: Vec<Vec<usize>> = (0..3).map(|_| set.next_pass()).collect();
            (set.cells, passes)
        };
        for kind in [Kind::SuiteBusy, Kind::ThrottledHot, Kind::Chip4Coupled] {
            assert_eq!(ops(kind, 1), ops(kind, 1), "{}", kind.name());
            assert_ne!(ops(kind, 1).1, ops(kind, 2).1, "{}", kind.name());
        }
    }

    #[test]
    fn the_golden_tables_cover_every_cell_a_seed_can_draw() {
        let suite = tdtm_workloads::suite();
        for kind in [Kind::SuiteBusy, Kind::ThrottledHot, Kind::Chip4Coupled] {
            let golden = Golden::load(kind, &Scale::FULL);
            for op in cell_space(kind, &suite, &Scale::FULL) {
                let key = op.key(&suite);
                assert!(golden.contains(&key), "no golden digest for {key}");
            }
        }
        let golden = Golden::load(Kind::GridFleet, &Scale::FULL);
        for cell in fleet_grid(&suite, &Scale::FULL).cells() {
            assert!(
                golden.contains(&cell.label()),
                "no golden digest for {}",
                cell.label()
            );
        }
    }

    #[test]
    fn a_perturbed_report_fails_the_golden_check() {
        let suite = tdtm_workloads::suite();
        let op = CellSet::new(Kind::SuiteBusy, 1, &suite, &TINY).cells[0];
        let mut report = Simulator::for_workload(op.config(&TINY), &suite[op.bench]).run();
        let key = op.key(&suite);
        let golden = Golden::from_pairs(&[(key.as_str(), digest(&report))]);
        assert!(golden.check(&key, digest(&report)).is_ok());
        report.committed += 1;
        assert!(
            golden.check(&key, digest(&report)).is_err(),
            "committed + 1 must fail"
        );
        report.committed -= 1;
        report.avg_power = f64::from_bits(report.avg_power.to_bits() ^ 1);
        assert!(
            golden.check(&key, digest(&report)).is_err(),
            "one ulp of power must fail"
        );
        assert!(
            golden.check("not/a/cell", digest(&report)).is_err(),
            "an unknown cell must fail"
        );
    }
}
