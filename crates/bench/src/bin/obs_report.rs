//! `obs_report` — render a run-comparison dashboard from grid streams.
//!
//! Consumes one or two JSONL cell streams (as written by
//! `ExperimentGrid::run_streaming` through a `JsonlSink`) and emits a
//! markdown dashboard — per-cell wall time, throughput, emergency counts,
//! the hottest-block distribution, and, with a baseline stream, A-vs-B
//! deltas per matched cell. `--csv` switches to a machine-readable table.
//!
//! ```text
//! cargo run -p tdtm-bench --release --bin obs_report -- run.jsonl
//! cargo run -p tdtm-bench --release --bin obs_report -- run.jsonl baseline.jsonl
//! cargo run -p tdtm-bench --release --bin obs_report -- --demo-grid /tmp/demo.jsonl
//! ```
//!
//! `--demo-grid PATH` first runs a small 2×2 grid (gcc, art × PID,
//! stability-aware) with streaming enabled, writing the stream to PATH,
//! then reports on it — a self-contained smoke of the whole
//! collector → sink → reporter pipeline. The demo grid runs on the
//! `TDTM_THREADS` workers through the result cache `TDTM_CACHE` and
//! `TDTM_CACHE_DIR` select (see `tdtm_bench::from_env`).

use tdtm_core::experiments::ExperimentScale;
use tdtm_core::report::{obs_dashboard, obs_dashboard_csv};
use tdtm_core::{ExperimentGrid, ResultCache};
use tdtm_dtm::PolicyKind;
use tdtm_telemetry::{CellRecord, JsonlSink, TelemetryConfig};
use tdtm_workloads::by_name;

struct Args {
    stream: Option<String>,
    baseline: Option<String>,
    csv: bool,
    demo_grid: Option<String>,
    demo_hot: bool,
}

const USAGE: &str = "usage: obs_report [<stream.jsonl>] [<baseline.jsonl>] [--csv] [--demo-grid PATH]

  <stream.jsonl>    primary cell stream (run A)
  <baseline.jsonl>  optional baseline stream (run B); adds an A-vs-B section
  --csv             emit a CSV table instead of the markdown dashboard
  --demo-grid PATH  run a quick 2x2 grid (gcc, art x pid, stability-aware)
                    with streaming into PATH, then report on that stream;
                    a positional stream is not needed in this mode
  --demo-hot        with --demo-grid: run the grid against a 107 C heatsink
                    (cell labels stay comparable to a nominal demo stream,
                    so the two make a natural A-vs-B pair)";

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut csv = false;
    let mut demo_grid = None;
    let mut demo_hot = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--csv" => csv = true,
            "--demo-grid" => demo_grid = Some(value("--demo-grid")?),
            "--demo-hot" => demo_hot = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let (stream, baseline) = match positional.as_slice() {
        [] => (None, None),
        [a] => (Some(a.clone()), None),
        [a, b] => (Some(a.clone()), Some(b.clone())),
        _ => return Err("expected at most <stream.jsonl> and <baseline.jsonl>".into()),
    };
    if stream.is_none() && demo_grid.is_none() {
        return Err("expected a <stream.jsonl> (or --demo-grid PATH)".into());
    }
    if demo_hot && demo_grid.is_none() {
        return Err("--demo-hot only makes sense with --demo-grid".into());
    }
    Ok(Args { stream, baseline, csv, demo_grid, demo_hot })
}

fn load_stream(path: &str) -> Vec<CellRecord> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match CellRecord::parse_jsonl(&text) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn run_demo_grid(path: &str, hot: bool, threads: usize, cache: Option<&ResultCache>) {
    let mut grid = ExperimentGrid::new(ExperimentScale::quick())
        .policies(&[PolicyKind::Pid, PolicyKind::StabilityAware]);
    for name in ["gcc", "art"] {
        grid = grid.workload(by_name(name).expect("suite workload"));
    }
    if hot {
        // Keep the variant named `base` so cell labels still match a
        // nominal demo stream in the A-vs-B section.
        grid = grid.variant("base", |cfg| cfg.heatsink_temp = 107.0);
    }
    eprintln!(
        "== obs_report --demo-grid: {} cells{}, {} thread(s), streaming to {path} ==",
        grid.len(),
        if hot { " (hot heatsink)" } else { "" },
        threads
    );
    let mut sink = match JsonlSink::create(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create {path}: {e}");
            std::process::exit(2);
        }
    };
    let results =
        grid.run_streaming_cached(threads, &TelemetryConfig::metrics_and_phases(), &mut sink, cache);
    eprintln!(
        "   {} cells in {:.2}s ({:.1} cells/s)",
        results.runs.len(),
        results.wall_seconds,
        results.runs.len() as f64 / results.wall_seconds.max(1e-9)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            std::process::exit(if msg.is_empty() { 0 } else { 2 });
        }
    };

    if let Some(path) = &args.demo_grid {
        let env = tdtm_bench::from_env();
        run_demo_grid(path, args.demo_hot, env.threads, env.cache());
    }
    let primary = args
        .stream
        .clone()
        .or_else(|| args.demo_grid.clone())
        .expect("parse_args guarantees a stream");

    let a = load_stream(&primary);
    eprintln!("stream A: {} cells from {primary}", a.len());
    let b = args.baseline.as_deref().map(|p| {
        let records = load_stream(p);
        eprintln!("stream B: {} cells from {p}", records.len());
        records
    });

    if args.csv {
        print!("{}", obs_dashboard_csv(&a, b.as_deref()));
    } else {
        print!("{}", obs_dashboard(&a, b.as_deref()));
    }
}
