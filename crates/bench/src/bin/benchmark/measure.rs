//! The untraced measurements, run inside a child process: the timed op
//! loop of a cell workload and one fleet-grid op. Only user-facing entry
//! points are timed: `Simulator::for_workload` + `run`,
//! `MulticoreSim::for_workload` + `run`, `ExperimentGrid::run_threads`
//! and `ExperimentGrid::run_streaming`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::cpu;
use crate::golden::{digest, Golden};
use crate::ops::{fleet_grid, fleet_timed_cells, CellSet, Kind, Op, Scale};
use crate::outcome::Outcome;
use crate::stats::{median, minimum};
use tdtm_core::{ExperimentGrid, GridResults, MulticoreSim, SimConfig, Simulator};
use tdtm_telemetry::{CellRecord, MemorySink, TelemetryConfig};
use tdtm_workloads::{suite, Workload};

/// Worker threads of the fleet grid: one per vCPU of the 2-vCPU host the
/// bounds in `BENCHMARK.json` were calibrated on.
pub const FLEET_THREADS: usize = 2;

/// Passes every cell-workload run takes, however long they last, so
/// every cell is timed three times even when the host is slow.
pub const MIN_PASSES: usize = 3;

/// Fleet-grid ops every `grid_fleet` run takes, however long they last.
pub const MIN_FLEET_OPS: usize = 5;

/// How a run spends its time.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// A run takes whole passes (cell workloads) or whole ops (the fleet
    /// grid) until the next one would end past this many seconds, and
    /// at least [`MIN_PASSES`] or [`MIN_FLEET_OPS`].
    pub seconds: f64,
    /// Warm fleet-grid repeats run for at least this long per op.
    pub warm_grid_seconds: f64,
    /// Cells the traced pass replays.
    pub trace_ops: usize,
    /// Setup repetitions timed at the start of every pass (cell
    /// workloads) or op (the fleet grid), so the reported median spans
    /// the run rather than one instant of it.
    pub setups: usize,
}

impl Plan {
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            seconds,
            warm_grid_seconds: 1.0,
            trace_ops: 10,
            setups: 7,
        }
    }

    /// Whether a loop that must take at least `min` units, and whose
    /// `done` units took `elapsed` seconds so far, the last one `last`
    /// seconds, should start another.
    pub fn another(&self, min: usize, done: usize, elapsed: f64, last: f64) -> bool {
        done < min || elapsed + last <= self.seconds
    }
}

/// The host's peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Times `reps` repetitions of `setup` and returns the last result with
/// the times. Each result is dropped before the next is built, so the
/// repetitions add nothing to the peak memory.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = std::hint::black_box(setup());
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one setup"), times)
}

/// The inputs of a cell workload: the suite and the seeded cell set.
pub struct CellInputs {
    pub suite: Vec<Workload>,
    pub set: CellSet,
}

impl CellInputs {
    pub fn new(kind: Kind, seed: u64, scale: &Scale) -> CellInputs {
        let suite = suite();
        let set = CellSet::new(kind, seed, &suite, scale);
        CellInputs { suite, set }
    }
}

/// One op's host cost and what it simulated.
pub struct OpRun {
    /// Host seconds, construction included.
    pub secs: f64,
    /// Simulated core-cycles (Σ over cores).
    pub cycles: u64,
    /// Fetch-gated core-cycles.
    pub gated: u64,
    pub digest: u64,
}

/// Runs one op through the user-facing entry points, with `telemetry`
/// enabled if given. A panic becomes an `Err`.
pub fn run_op(
    op: &Op,
    suite: &[Workload],
    scale: &Scale,
    telemetry: Option<&TelemetryConfig>,
) -> Result<OpRun, String> {
    run_cell(
        op.config(scale),
        &suite[op.bench],
        op.shape.is_chip(),
        telemetry,
    )
    .map_err(|e| format!("{}: {e}", op.key(suite)))
}

/// Builds and runs one cell on `MulticoreSim` (`chip`) or `Simulator`,
/// timing construction and run together. A panic becomes an `Err`.
fn run_cell(
    cfg: SimConfig,
    w: &Workload,
    chip: bool,
    telemetry: Option<&TelemetryConfig>,
) -> Result<OpRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let (secs, digest, cores) = if chip {
            let mut sim = MulticoreSim::for_workload(cfg, w);
            if let Some(t) = telemetry {
                sim.enable_telemetry(t);
            }
            let chip = sim.run();
            (start.elapsed().as_secs_f64(), digest(&chip), chip.cores)
        } else {
            let mut sim = Simulator::for_workload(cfg, w);
            if let Some(t) = telemetry {
                sim.enable_telemetry(t);
            }
            let report = sim.run();
            (start.elapsed().as_secs_f64(), digest(&report), vec![report])
        };
        OpRun {
            secs,
            cycles: cores.iter().map(|r| r.total_cycles).sum(),
            gated: cores.iter().map(|r| r.gated_cycles).sum(),
            digest,
        }
    }))
    .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))
}

/// Books one run of the cell `key` into `out`. A run whose digest
/// differs from `golden` fails but keeps its time; a panic leaves none.
fn checked(
    key: &str,
    run: Result<OpRun, String>,
    golden: &Golden,
    out: &mut Outcome,
) -> Option<OpRun> {
    out.attempted += 1;
    let run = run.map_err(|e| out.fail(e)).ok()?;
    if let Err(e) = golden.check(key, run.digest) {
        out.fail(e);
    }
    Some(run)
}

/// Passes of a cell workload in which the sampled cells are rerun.
const RERUN_PASSES: usize = 2;

/// A cell workload, untraced: passes over its cell set for the plan's
/// seconds. In the first [`RERUN_PASSES`] passes every sampled cell (see
/// [`CellSet::sampled`]) runs again straight after its cold run, with
/// metrics and phase timers on (observed).
///
/// Each cell's time is its fastest pass (see [`minimum`]); the cold pass
/// time is their sum. The observed pass time carries the sampled cells'
/// observed-to-cold time ratio over to the whole cell set. Each rerun
/// follows its cold twin straight away, so a burst long enough to matter
/// hits both, and the ratio takes the fastest of each side. The passes
/// take the allowed CPUs in turn (see [`cpu`]).
///
/// A repeat request costs what the first did (the single-cell API keeps
/// no results), so the warm pass time is the cold one.
pub fn cell_workload(kind: Kind, seed: u64, scale: &Scale, plan: &Plan) -> Outcome {
    let cpus = cpu::allowed();
    let new_inputs = || CellInputs::new(kind, seed, scale);
    let (mut inputs, mut setup_times) = timed_setup(plan.setups, new_inputs);
    let golden = Golden::load(kind, scale);
    let telemetry = TelemetryConfig::metrics_and_phases();
    let mut out = Outcome::default();

    let n = inputs.set.cells.len();
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cycles = vec![0u64; n];
    let (mut all_cycles, mut gated) = (0u64, 0u64);
    // Per cell: [cold twin, observed] seconds of its reruns.
    let mut reruns: Vec<[Vec<f64>; 2]> = vec![Default::default(); n];
    let start = Instant::now();
    // `last` is the cold time of the last pass: the reruns do not recur,
    // so they must not count against the next pass.
    let (mut passes, mut last) = (0, 0.0);
    while plan.another(MIN_PASSES, passes, start.elapsed().as_secs_f64(), last) {
        cpu::take_turn(&cpus, passes);
        if passes > 0 {
            setup_times.extend(timed_setup(plan.setups, new_inputs).1);
        }
        last = 0.0;
        for i in inputs.set.next_pass() {
            let (op, suite) = (inputs.set.cells[i], &inputs.suite);
            let key = op.key(suite);
            let run = run_op(&op, suite, scale, None);
            let Some(cold) = checked(&key, run, &golden, &mut out) else {
                continue;
            };
            secs[i].push(cold.secs);
            last += cold.secs;
            cycles[i] = cold.cycles;
            all_cycles += cold.cycles;
            gated += cold.gated;
            if passes < RERUN_PASSES && CellSet::sampled(i) {
                let run = run_op(&op, suite, scale, Some(&telemetry));
                if let Some(observed) = checked(&key, run, &golden, &mut out) {
                    reruns[i][0].push(cold.secs);
                    reruns[i][1].push(observed.secs);
                }
            }
        }
        passes += 1;
    }
    cpu::restrict(&cpus);

    // Cells that never ran to the end (a panic every time) drop out.
    let timed: Vec<usize> = (0..n).filter(|&i| !secs[i].is_empty()).collect();
    let cell_s: Vec<f64> = secs.iter().map(|s| minimum(s)).collect();
    let cold_s: f64 = timed.iter().map(|&i| cell_s[i]).sum();
    let (base, observed) =
        (0..n)
            .filter(|&i| !reruns[i][0].is_empty())
            .fold((0.0, 0.0), |(b, o), i| {
                let ratio = minimum(&reruns[i][1]) / minimum(&reruns[i][0]);
                (b + cell_s[i], o + cell_s[i] * ratio)
            });
    out.set("setup_s", median(&setup_times));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("cells", timed.len() as f64);
    out.set("cold_s", cold_s);
    out.set("warm_s", cold_s);
    out.set("observed_s", cold_s * observed / base);
    out.series.push((
        "cell_ms".to_string(),
        timed.iter().map(|&i| cell_s[i] * 1e3).collect(),
    ));
    out.series.push((
        "cell_cycles".to_string(),
        timed.iter().map(|&i| cycles[i] as f64).collect(),
    ));
    out.notes.push(format!(
        "{} cells x {passes} passes, observed reruns of {} cells in the first {RERUN_PASSES}; \
         fetch gated {:.1}% of simulated core-cycles",
        timed.len(),
        reruns.iter().filter(|r| !r[0].is_empty()).count(),
        100.0 * gated as f64 / all_cycles.max(1) as f64
    ));
    out
}

/// Everything the passes over one grid produced, for the traced pass to
/// derive its engine, cache and stream metrics from.
pub struct GridOp {
    pub grid: ExperimentGrid,
    pub cold: GridResults,
    pub cold_s: f64,
    pub warm_stats: Option<tdtm_core::CacheStats>,
    pub warm_inflight_waits: u64,
    /// Wall time of each warm repeat.
    pub warm_times: Vec<f64>,
    /// Wall time and records of the streamed pass, if it ran.
    pub streamed: Option<(f64, Vec<CellRecord>)>,
    /// Check failures (golden digests, warm or streamed reports that
    /// differ from the cold pass).
    pub problems: Vec<String>,
}

fn digests(results: &GridResults<impl Sized>) -> Vec<u64> {
    results.runs.iter().map(|r| digest(&r.report)).collect()
}

/// A cold `run_threads(threads)`, warm `run_threads(threads)` repeats for
/// `plan.warm_grid_seconds`, then, if `stream`, `run_streaming(threads)`
/// with metrics and phase timers into a `MemorySink`. The process-wide
/// result cache must not hold these cells yet. Warm and streamed reports
/// must be byte-identical to the cold pass; cold reports must match
/// `golden`.
pub fn grid_passes(
    grid: ExperimentGrid,
    threads: usize,
    golden: &Golden,
    plan: &Plan,
    stream: bool,
) -> GridOp {
    let mut problems = Vec::new();
    let cells = grid.len();

    let start = Instant::now();
    let cold = grid.run_threads(threads);
    let cold_s = start.elapsed().as_secs_f64();
    if cold.runs.len() != cells {
        problems.push(format!(
            "cold pass returned {} of {cells} cells",
            cold.runs.len()
        ));
    }
    let cold_digests = digests(&cold);
    for (run, &d) in cold.runs.iter().zip(&cold_digests) {
        if let Err(e) = golden.check(&run.label(), d) {
            problems.push(e);
        }
    }

    let (mut warm_times, mut warm_stats, mut warm_inflight_waits) = (Vec::new(), None, 0);
    while warm_times.is_empty() || warm_times.iter().sum::<f64>() < plan.warm_grid_seconds {
        let start = Instant::now();
        let warm = grid.run_threads(threads);
        warm_times.push(start.elapsed().as_secs_f64());
        if digests(&warm) != cold_digests {
            problems.push("a warm report differs from the cold pass".to_string());
        }
        warm_inflight_waits += warm.cache_stats.map_or(0, |s| s.cache_inflight_waits);
        warm_stats = warm.cache_stats;
    }

    let streamed = stream.then(|| {
        let mut sink = MemorySink::new();
        let start = Instant::now();
        let streamed =
            grid.run_streaming(threads, &TelemetryConfig::metrics_and_phases(), &mut sink);
        let streamed_s = start.elapsed().as_secs_f64();
        if digests(&streamed) != cold_digests {
            problems.push("a streamed report differs from the cold pass".to_string());
        }
        if sink.records.len() != cells {
            problems.push(format!(
                "stream emitted {} of {cells} records",
                sink.records.len()
            ));
        }
        (streamed_s, sink.records)
    });

    GridOp {
        grid,
        cold,
        cold_s,
        warm_stats,
        warm_inflight_waits,
        warm_times,
        streamed,
        problems,
    }
}

/// One fleet-grid op, run in a fresh process so the process-wide result
/// cache starts cold: [`grid_passes`] over the fleet grid on
/// [`FLEET_THREADS`] workers, then the [`fleet_timed_cells`] one at a
/// time through `Simulator::for_workload` + `run` for the per-cell
/// times, on the `turn`-th allowed CPU (see [`cpu`]). Only the first op
/// of a run streams (the streamed pass is by far the longest of the
/// three), so a run gets more cold passes.
pub fn fleet_op(scale: &Scale, plan: &Plan, stream: bool, turn: usize) -> (GridOp, Outcome) {
    let (grid, setup_times) = timed_setup(plan.setups, || {
        let grid = fleet_grid(&suite(), scale);
        std::hint::black_box(grid.cells());
        grid
    });
    let golden = Golden::load(Kind::GridFleet, scale);
    let op = grid_passes(grid, FLEET_THREADS, &golden, plan, stream);

    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    if !op.problems.is_empty() {
        out.fail(op.problems.join("; "));
    }
    let (mut cell_ms, mut cell_cycles) = (Vec::new(), Vec::new());
    let cells = op.grid.cells();
    let cpus = cpu::allowed();
    cpu::take_turn(&cpus, turn);
    for cell in fleet_timed_cells(&cells, scale) {
        let (label, cfg) = (cell.label(), cell.config());
        let chip = cfg.chip.cores > 1 || cfg.chip.supervisor.is_some();
        let run = run_cell(cfg, &cell.workload, chip, None).map_err(|e| format!("{label}: {e}"));
        if let Some(run) = checked(&label, run, &golden, &mut out) {
            cell_ms.push(run.secs * 1e3);
            cell_cycles.push(run.cycles as f64);
        }
    }
    cpu::restrict(&cpus);
    out.set("setup_s", median(&setup_times));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("cells", op.cold.runs.len() as f64);
    out.set("cold_s", op.cold_s);
    out.set("warm_s", minimum(&op.warm_times));
    if let Some((streamed_s, _)) = &op.streamed {
        out.set("observed_s", *streamed_s);
    }
    out.series.push(("cell_ms".to_string(), cell_ms));
    out.series.push(("cell_cycles".to_string(), cell_cycles));
    (op, out)
}
