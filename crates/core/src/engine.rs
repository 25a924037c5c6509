//! The parallel, deterministic experiment engine.
//!
//! The paper's result tables are grids: every benchmark crossed with every
//! policy (Section 7), or with every proxy configuration (Tables 9/10).
//! Each cell is an independent simulation, so the grid shards perfectly
//! across threads — but the *results* must not depend on scheduling.
//!
//! [`ExperimentGrid`] enumerates (workload × policy × config-variant)
//! cells in a fixed order, [`shard_map`] fans them out over
//! `std::thread::scope` workers, and results come back keyed by cell
//! index. The reports are byte-identical regardless of worker count:
//! `TDTM_THREADS=1` reproduces `TDTM_THREADS=8` exactly (only the
//! wall-clock observability in [`RunObservation`] varies).
//!
//! Every `run_threads*` and `run_streaming*` entry point takes one cell
//! path. Before any cell simulates, each is resolved against the result
//! cache ([`crate::cache`]): a hit, a follower of an identical cell in the
//! same grid, or a claimed miss; with no cache every cell is a miss. Only
//! the misses go to the workers, and they simulate through
//! [`run_chip_cell`](crate::multicore::run_chip_cell), which picks the
//! single-core or the chip simulator from the cell's configuration. A
//! streamed run adds telemetry on the misses and one [`CellRecord`] per
//! cell, emitted as the cell completes.
//!
//! ```
//! use tdtm_core::engine::ExperimentGrid;
//! use tdtm_core::experiments::ExperimentScale;
//! use tdtm_dtm::PolicyKind;
//!
//! let grid = ExperimentGrid::new(ExperimentScale::quick())
//!     .workload(tdtm_workloads::by_name("gcc").unwrap())
//!     .policies(&[PolicyKind::None, PolicyKind::Pid]);
//! let results = grid.run();
//! assert_eq!(results.runs.len(), 2);
//! assert!(results.runs[0].obs.thermal_steps > 0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{self, CacheStats, CellArtifact, Claim, ClaimGuard, Fingerprint, ResultCache};
use crate::config::SimConfig;
use crate::experiments::ExperimentScale;
use crate::metrics::RunReport;
use crate::simulator::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_telemetry::{CellRecord, RegistrySnapshot, StampedSink, StreamSink, TelemetryConfig};
use tdtm_workloads::{suite, Workload};

/// A configuration override applied to a cell's [`SimConfig`] after the
/// scale and policy are set. A plain function pointer so cells stay
/// `Clone` and trivially shareable across workers.
pub type ConfigPatch = fn(&mut SimConfig);

/// Worker count for [`ExperimentGrid::run`]: the `TDTM_THREADS`
/// environment variable if set to a positive integer, else the machine's
/// available parallelism.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("TDTM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item of `items`, sharding the work across
/// `threads` scoped worker threads. Workers pull items from a shared
/// atomic cursor (so uneven cell costs still balance), but the returned
/// vector is ordered by item index — identical for any thread count.
///
/// # Panics
///
/// Propagates a panic from `f` (the first worker panic observed).
pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut keyed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => keyed.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    keyed.sort_by_key(|&(i, _)| i);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// One cell of an [`ExperimentGrid`]: a workload under a policy with a
/// named configuration variant, at a fixed position in the grid.
#[derive(Clone)]
pub struct GridCell {
    /// Position in the grid's enumeration order (results come back in
    /// this order).
    pub index: usize,
    /// The benchmark to run.
    pub workload: Workload,
    /// The DTM policy for this cell.
    pub policy: PolicyKind,
    /// Name of the configuration variant ("base" when none was given).
    pub variant: &'static str,
    /// The grid's scale.
    pub scale: ExperimentScale,
    patch: ConfigPatch,
    /// Power model shared across every cell with the same power/core
    /// configuration — the tables are immutable, so one model serves all
    /// (policy × variant) cells of a grid.
    power: Arc<tdtm_power::PowerModel>,
}

impl GridCell {
    /// A human-readable cell label, e.g. `gcc/PID` or `art/none/cold`.
    pub fn label(&self) -> String {
        if self.variant == "base" {
            format!("{}/{}", self.workload.name, self.policy)
        } else {
            format!("{}/{}/{}", self.workload.name, self.policy, self.variant)
        }
    }

    /// The cell's full configuration: scale + policy, then the variant
    /// patch.
    pub fn config(&self) -> SimConfig {
        let mut cfg = self.scale.config(self.policy);
        (self.patch)(&mut cfg);
        cfg
    }

    /// A ready-to-run simulator for this cell, reusing the grid's shared
    /// program and power-model artifacts.
    pub fn simulator(&self) -> Simulator {
        Simulator::for_workload_with_power(self.config(), &self.workload, Arc::clone(&self.power))
    }

    /// The grid's shared power model for this cell (custom drivers that
    /// build a [`crate::multicore::MulticoreSim`] themselves reuse it).
    pub fn power_model(&self) -> Arc<tdtm_power::PowerModel> {
        Arc::clone(&self.power)
    }

    /// Runs this cell unobserved through
    /// [`run_chip_cell`](crate::multicore::run_chip_cell), the engine's
    /// own cell runner: a plain single-core cell runs on the single-core
    /// simulator, while a cell whose variant configures multiple cores or
    /// a supervisor runs on the multicore chip simulator (returning core
    /// 0's report plus the full
    /// [`ChipReport`](crate::multicore::ChipReport)).
    pub fn run_chip(&self) -> (RunReport, Option<crate::multicore::ChipReport>) {
        let (report, chip, _) = crate::multicore::run_chip_cell(
            self.config(),
            &self.workload,
            self.power_model(),
            None,
        );
        (report, chip)
    }
}

/// Host-side observability for one cell run: wall-clock cost, simulated
/// throughput, and work counters.
///
/// The work counters (`thermal_steps`, `committed`, `dtm_samples`) are
/// deterministic functions of the cell's configuration. `wall_seconds` is
/// host wall-clock time and is **nondeterministic** — it varies run to
/// run, machine to machine, and with the worker-thread count — so it is
/// explicitly excluded from byte-identity pins; tests compare
/// observations with [`deterministic_eq`](RunObservation::deterministic_eq)
/// rather than `==`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunObservation {
    /// Host wall-clock seconds spent on the cell (nondeterministic; never
    /// part of byte-identity pins).
    pub wall_seconds: f64,
    /// Thermal-model steps taken (= total simulated cycles, including
    /// warmup).
    pub thermal_steps: u64,
    /// Instructions retired over counted cycles.
    pub committed: u64,
    /// Controller (DTM policy) invocations.
    pub dtm_samples: u64,
}

impl RunObservation {
    fn from_report(report: &RunReport, wall_seconds: f64) -> RunObservation {
        RunObservation {
            wall_seconds,
            thermal_steps: report.total_cycles,
            committed: report.committed,
            dtm_samples: report.samples,
        }
    }

    /// Compares the deterministic fields only — everything except
    /// `wall_seconds`. This is what determinism tests should use instead
    /// of hand-rolling per-field comparisons.
    pub fn deterministic_eq(&self, other: &RunObservation) -> bool {
        self.thermal_steps == other.thermal_steps
            && self.committed == other.committed
            && self.dtm_samples == other.dtm_samples
    }

    /// Simulated cycles per host second (the simulator's throughput on
    /// this cell).
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.thermal_steps as f64 / self.wall_seconds
        }
    }
}

/// The result of one grid cell: the cell's identity, its deterministic
/// [`RunReport`], host-side observability, and any extra payload produced
/// by a [`run_with`](ExperimentGrid::run_with) closure.
#[derive(Clone, Debug)]
pub struct RunResult<R = ()> {
    /// The cell's position in the grid enumeration.
    pub index: usize,
    /// Benchmark name.
    pub bench: String,
    /// Policy of the cell.
    pub policy: PolicyKind,
    /// Configuration-variant name.
    pub variant: &'static str,
    /// The deterministic simulation report.
    pub report: RunReport,
    /// Host-side timing and counters (not deterministic).
    pub obs: RunObservation,
    /// Extra payload from `run_with` (unit for plain runs).
    pub extra: R,
}

impl<R> RunResult<R> {
    /// `cell`'s result: the one constructor behind simulated, cached,
    /// follower, and custom-driver cells.
    fn new(cell: &GridCell, report: RunReport, wall_seconds: f64, extra: R) -> RunResult<R> {
        RunResult {
            index: cell.index,
            bench: cell.workload.name.to_string(),
            policy: cell.policy,
            variant: cell.variant,
            obs: RunObservation::from_report(&report, wall_seconds),
            report,
            extra,
        }
    }

    /// The cell label (`bench/policy[/variant]`).
    pub fn label(&self) -> String {
        if self.variant == "base" {
            format!("{}/{}", self.bench, self.policy)
        } else {
            format!("{}/{}/{}", self.bench, self.policy, self.variant)
        }
    }
}

/// All results of one grid execution, in cell order.
#[derive(Clone, Debug)]
pub struct GridResults<R = ()> {
    /// One result per cell, ordered by cell index.
    pub runs: Vec<RunResult<R>>,
    /// Worker threads used.
    pub threads: usize,
    /// Host wall-clock seconds for the whole grid.
    pub wall_seconds: f64,
    /// Result-cache tallies for this grid (`None` when the grid ran
    /// without a cache, e.g. `TDTM_CACHE=0` or an explicit uncached
    /// path).
    pub cache_stats: Option<CacheStats>,
}

impl<R> GridResults<R> {
    /// The deterministic reports alone, in cell order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.runs.iter().map(|r| r.report.clone()).collect()
    }

    /// Total thermal steps across all cells.
    pub fn total_thermal_steps(&self) -> u64 {
        self.runs.iter().map(|r| r.obs.thermal_steps).sum()
    }

    /// Aggregate simulated cycles per host second over the grid (total
    /// steps over grid wall time — reflects the parallel speedup).
    pub fn aggregate_cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_thermal_steps() as f64 / self.wall_seconds
        }
    }
}

/// A (workload × policy × config-variant) experiment grid.
///
/// Build with the fluent methods, then [`run`](ExperimentGrid::run) (or
/// [`run_with`](ExperimentGrid::run_with) to attach per-cell
/// instrumentation). Cells are enumerated workload-major, then policy,
/// then variant, and results always come back in that order.
#[derive(Clone)]
pub struct ExperimentGrid {
    scale: ExperimentScale,
    workloads: Vec<Workload>,
    policies: Vec<PolicyKind>,
    variants: Vec<(&'static str, ConfigPatch)>,
}

fn no_patch(_: &mut SimConfig) {}

impl ExperimentGrid {
    /// An empty grid at the given scale (no workloads yet; one implicit
    /// `None` policy and one implicit `base` variant).
    pub fn new(scale: ExperimentScale) -> ExperimentGrid {
        ExperimentGrid {
            scale,
            workloads: Vec::new(),
            policies: vec![PolicyKind::None],
            variants: vec![("base", no_patch)],
        }
    }

    /// Adds the full 18-benchmark suite as the workload axis.
    pub fn suite(mut self) -> ExperimentGrid {
        self.workloads.extend(suite());
        self
    }

    /// Adds one workload to the workload axis.
    pub fn workload(mut self, workload: Workload) -> ExperimentGrid {
        self.workloads.push(workload);
        self
    }

    /// Replaces the policy axis.
    pub fn policies(mut self, policies: &[PolicyKind]) -> ExperimentGrid {
        self.policies = policies.to_vec();
        self
    }

    /// Replaces the variant axis with a single named configuration patch.
    pub fn variant(mut self, name: &'static str, patch: ConfigPatch) -> ExperimentGrid {
        self.variants = vec![(name, patch)];
        self
    }

    /// Replaces the variant axis with several named configuration patches
    /// (one cell per variant per workload per policy).
    pub fn variants(mut self, variants: &[(&'static str, ConfigPatch)]) -> ExperimentGrid {
        self.variants = variants.to_vec();
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.policies.len() * self.variants.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cells in grid order: workload-major, then policy,
    /// then variant.
    ///
    /// Immutable per-cell artifacts are shared, not rebuilt: workloads
    /// hold their assembled program behind an `Arc` (18 programs for an
    /// 18 × 5 grid, not 90), and one power model is built per *distinct*
    /// (power config, core config) pair across the whole grid — for most
    /// grids that is a single model serving every cell.
    pub fn cells(&self) -> Vec<GridCell> {
        // Models are deduped by content fingerprint (O(1) per cell,
        // instead of the old O(cells) linear scan per cell): the
        // fingerprint covers exactly the (power config, core config)
        // pair that determines the model's tables.
        let mut power_cache: HashMap<u128, Arc<tdtm_power::PowerModel>> = HashMap::new();
        let mut cells = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &policy in &self.policies {
                for &(variant, patch) in &self.variants {
                    let mut cfg = self.scale.config(policy);
                    patch(&mut cfg);
                    let key = cache::power_fingerprint(&cfg.power, &cfg.core);
                    let power = Arc::clone(power_cache.entry(key).or_insert_with(|| {
                        Arc::new(tdtm_power::PowerModel::new(&cfg.power, &cfg.core))
                    }));
                    cells.push(GridCell {
                        index: cells.len(),
                        workload: workload.clone(),
                        policy,
                        variant,
                        scale: self.scale,
                        patch,
                        power,
                    });
                }
            }
        }
        cells
    }

    /// Runs every cell on [`thread_count`] workers.
    pub fn run(&self) -> GridResults {
        self.run_threads(thread_count())
    }

    /// Runs every cell on exactly `threads` workers. The reports are
    /// identical for any `threads` value. Cells whose variant configures
    /// a multicore chip run on the chip simulator (reporting core 0);
    /// everything else takes the single-core path.
    ///
    /// Runs through the process-wide content-addressed result cache
    /// ([`ResultCache::global`]) unless `TDTM_CACHE=0`: previously
    /// simulated cells replay their byte-identical report without
    /// simulating, and identical cells within the grid simulate once.
    pub fn run_threads(&self, threads: usize) -> GridResults {
        self.run_cells(threads, ResultCache::global(), None, |_| ())
    }

    /// [`run_threads`](ExperimentGrid::run_threads) without the result
    /// cache: every cell simulates — the reference path identity tests
    /// and benchmarks compare against.
    pub fn run_threads_uncached(&self, threads: usize) -> GridResults {
        self.run_cells(threads, None, None, |_| ())
    }

    /// [`run_threads`](ExperimentGrid::run_threads) against an explicit
    /// [`ResultCache`] (tests and benchmarks use their own instead of
    /// the process-wide one). Reports are byte-identical to
    /// [`run_threads_uncached`](ExperimentGrid::run_threads_uncached)
    /// — pinned by `tests/engine.rs`.
    pub fn run_threads_cached(&self, threads: usize, cache: &ResultCache) -> GridResults {
        self.run_cells(threads, Some(cache), None, |_| ())
    }

    /// Runs every cell through a custom driver on [`thread_count`]
    /// workers. The driver builds and runs the cell's simulator itself
    /// (typically starting from [`GridCell::simulator`]) so it can attach
    /// proxies, traces, or sensors, and returns the report plus any extra
    /// payload.
    pub fn run_with<R, F>(&self, f: F) -> GridResults<R>
    where
        R: Send,
        F: Fn(&GridCell) -> (RunReport, R) + Sync,
    {
        self.run_with_threads(thread_count(), f)
    }

    /// [`run_with`](ExperimentGrid::run_with) on exactly `threads`
    /// workers.
    pub fn run_with_threads<R, F>(&self, threads: usize, f: F) -> GridResults<R>
    where
        R: Send,
        F: Fn(&GridCell) -> (RunReport, R) + Sync,
    {
        let cells = self.cells();
        let grid_start = Instant::now();
        let runs = shard_map(&cells, threads, |_, cell| {
            let start = Instant::now();
            let (report, extra) = f(cell);
            RunResult::new(cell, report, start.elapsed().as_secs_f64(), extra)
        });
        GridResults {
            runs,
            threads,
            wall_seconds: grid_start.elapsed().as_secs_f64(),
            cache_stats: None,
        }
    }

    /// Runs every cell with the given telemetry enabled, streaming one
    /// [`CellRecord`] to `sink` *as each cell completes* — a live progress
    /// feed for long grids, instead of silence until the whole grid
    /// returns. Cells are chip-aware (multicore variants run on
    /// [`MulticoreSim`](crate::multicore::MulticoreSim) with chip
    /// telemetry, merging the per-core metric snapshots).
    ///
    /// Records are emitted in completion order with a monotone `seq`
    /// stamp assigned under the sink's lock, so the stream's physical
    /// order always matches `seq`: cache hits first (they complete when
    /// resolved), then simulated cells as they finish, then in-grid twins
    /// of simulated cells. Determinism contract (pinned by
    /// `tests/observability.rs`): sort any N-thread stream by cell
    /// `index` and its deterministic fields equal a 1-thread run's stream
    /// ([`CellRecord::deterministic_eq`]); reports stay byte-identical to
    /// a plain [`run`](ExperimentGrid::run).
    ///
    /// Returns the usual cell-ordered results with each cell's emitted
    /// record (including its stamp) as the extra payload.
    ///
    /// Runs through the process-wide result cache ([`ResultCache::global`])
    /// unless `TDTM_CACHE=0`: a cached cell re-emits its stored record —
    /// identical on every deterministic field, flagged `cached: true` —
    /// without simulating. With the cache off, records carry `cached:
    /// None` and the stream is byte-identical to pre-cache builds.
    pub fn run_streaming(
        &self,
        threads: usize,
        cfg: &TelemetryConfig,
        sink: &mut dyn StreamSink,
    ) -> GridResults<CellRecord> {
        self.run_cells(threads, ResultCache::global(), Some((cfg, sink)), streamed_record)
    }

    /// [`run_streaming`](ExperimentGrid::run_streaming) against an
    /// explicit [`ResultCache`] (tests and benchmarks use their own
    /// instead of the process-wide one).
    pub fn run_streaming_cached(
        &self,
        threads: usize,
        cfg: &TelemetryConfig,
        sink: &mut dyn StreamSink,
        cache: &ResultCache,
    ) -> GridResults<CellRecord> {
        self.run_cells(threads, Some(cache), Some((cfg, sink)), streamed_record)
    }

    /// The one cell path behind every `run_threads*` and `run_streaming*`
    /// entry point. Every cell is first [`resolve`]d — a cache hit, a
    /// follower of an identical cell simulated in this grid, or a claimed
    /// miss (with no cache, every cell is a miss). Hits replay at once,
    /// the misses simulate through
    /// [`run_chip_cell`](crate::multicore::run_chip_cell) on `threads`
    /// workers and publish their artifact as each completes, and the
    /// followers replay their leader last. A streamed run (`stream` set)
    /// collects telemetry on the misses, builds each cell's record and
    /// emits it as the cell completes; `extra` shapes that record (absent
    /// for plain runs) into the result payload.
    fn run_cells<X>(
        &self,
        threads: usize,
        cache: Option<&ResultCache>,
        stream: Option<(&TelemetryConfig, &mut dyn StreamSink)>,
        extra: fn(Option<CellRecord>) -> X,
    ) -> GridResults<X> {
        let cells = self.cells();
        let grid_start = Instant::now();
        let telemetry = stream.as_ref().map(|&(cfg, _)| cfg);
        let stamped = stream.map(|(_, sink)| StampedSink::new(sink));
        let emit = |record: &mut Option<CellRecord>| {
            if let (Some(sink), Some(record)) = (&stamped, record) {
                sink.emit(record);
            }
        };

        let mut stats = CacheStats::default();
        let (fps, plan, guards) = match cache {
            Some(cache) => {
                let mut fps = cache::cell_fingerprints(&cells);
                // Streamed artifacts live under their own fingerprint
                // domain (cell key ⊕ telemetry config): the stored record
                // embeds a metric snapshot, so the telemetry config is
                // part of the key.
                if let Some(cfg) = telemetry {
                    for fp in &mut fps {
                        *fp = cache::stream_fingerprint(*fp, cfg);
                    }
                }
                let (plan, guards) = resolve(&fps, cache, telemetry.is_some(), &mut stats);
                (fps, plan, guards)
            }
            None => (Vec::new(), cells.iter().map(|_| Resolution::Miss).collect(), Vec::new()),
        };
        let mut done: Vec<Option<Outcome>> = (0..cells.len()).map(|_| None).collect();

        for (i, step) in plan.iter().enumerate() {
            if let Resolution::Hit { artifact, wall } = step {
                let mut record = artifact
                    .record
                    .as_ref()
                    .map(|stored| with_identity(stored.clone(), &cells[i], *wall, Some(true)));
                emit(&mut record);
                done[i] = Some((artifact.report.clone(), *wall, record));
            }
        }

        let misses: Vec<&GridCell> =
            cells.iter().filter(|cell| matches!(plan[cell.index], Resolution::Miss)).collect();
        let simulated = shard_map(&misses, threads, |_, cell| {
            let start = Instant::now();
            let (report, chip, metrics) = crate::multicore::run_chip_cell(
                cell.config(),
                &cell.workload,
                cell.power_model(),
                telemetry,
            );
            let wall = start.elapsed().as_secs_f64();
            let mut record = telemetry.map(|_| {
                let fresh = fresh_record(&report, chip.as_ref(), metrics);
                with_identity(fresh, cell, wall, cache.map(|_| false))
            });
            if let Some(cache) = cache {
                // Publish before stamping: the stored record is the
                // pre-stamp normal form (seq 0, zero wall/elapsed, no
                // provenance flag) so the artifact's bytes are a pure
                // function of the fingerprint.
                let stored = record
                    .as_ref()
                    .map(|r| CellRecord { wall_seconds: 0.0, cached: None, ..r.clone() });
                let artifact = CellArtifact { report: report.clone(), record: stored };
                cache.publish(fps[cell.index], artifact);
            }
            emit(&mut record);
            (cell.index, (report, wall, record))
        });
        for (i, outcome) in simulated {
            done[i] = Some(outcome);
        }
        drop(guards); // every claim published; the drops are no-ops

        for (i, step) in plan.iter().enumerate() {
            if let Resolution::Follower(leader) = *step {
                let start = Instant::now();
                let (report, _, record) = done[leader].as_ref().expect("leader cell was simulated");
                let report = report.clone();
                let wall = start.elapsed().as_secs_f64().max(1e-9);
                let mut record =
                    record.as_ref().map(|r| with_identity(r.clone(), &cells[i], wall, Some(true)));
                emit(&mut record);
                done[i] = Some((report, wall, record));
            }
        }

        GridResults {
            runs: cells
                .iter()
                .zip(done)
                .map(|(cell, outcome)| {
                    let (report, wall, record) = outcome.expect("every cell resolved");
                    RunResult::new(cell, report, wall, extra(record))
                })
                .collect(),
            threads,
            wall_seconds: grid_start.elapsed().as_secs_f64(),
            cache_stats: cache.map(|_| stats),
        }
    }
}

/// How one cell of a cached grid resolves, before any cell simulates.
enum Resolution {
    /// Served by the cache; `wall` is the claim's host time.
    Hit { artifact: Arc<CellArtifact>, wall: f64 },
    /// Replays the identical cell at this index, simulated in this grid.
    Follower(usize),
    /// Simulates (and publishes its artifact when a cache is in play).
    Miss,
}

/// A finished cell before it takes its [`RunResult`] shape: the report,
/// the host wall seconds, and the record of a streamed run.
type Outcome = (RunReport, f64, Option<CellRecord>);

/// Resolves every cell of a grid against `cache`: a hit, a follower of an
/// identical cell already claimed in this grid (it replays after its
/// leader runs, so no worker ever waits on another), or a claimed miss.
/// A streamed hit whose artifact carries no record is a malformed entry
/// for that domain (e.g. a hand-edited disk file): it resolves as a miss
/// and its publish overwrites the entry.
///
/// Claims are taken in fingerprint order and held until their cell
/// publishes. A claim blocks only while another grid sharing the cache
/// holds the same fingerprint; a grid blocked at fingerprint `f` holds
/// only fingerprints below `f`, so the grids waiting on each other form
/// a chain of rising fingerprints, never a cycle, and the grid at its
/// end simulates and publishes.
fn resolve<'c>(
    fps: &[Fingerprint],
    cache: &'c ResultCache,
    streamed: bool,
    stats: &mut CacheStats,
) -> (Vec<Resolution>, Vec<ClaimGuard<'c>>) {
    let mut plan: Vec<Resolution> = fps.iter().map(|_| Resolution::Miss).collect();
    let mut guards = Vec::new();
    // Sorted (stably) by fingerprint, twins sit next to each other with
    // the lowest cell index first: that one leads.
    let mut order: Vec<usize> = (0..fps.len()).collect();
    order.sort_by_key(|&i| fps[i].0);
    let mut leader: Option<usize> = None;
    for i in order {
        if let Some(l) = leader.filter(|&l| fps[l] == fps[i]) {
            plan[i] = Resolution::Follower(l);
            stats.cache_hits += 1;
            stats.cache_inflight_waits += 1;
            continue;
        }
        let start = Instant::now();
        match cache.claim(fps[i]) {
            Claim::Hit { artifact, waited } if !streamed || artifact.record.is_some() => {
                stats.cache_hits += 1;
                if waited {
                    stats.cache_inflight_waits += 1;
                }
                let wall = start.elapsed().as_secs_f64().max(1e-9);
                plan[i] = Resolution::Hit { artifact, wall };
            }
            claim => {
                if let Claim::Miss(guard) = claim {
                    guards.push(guard);
                }
                stats.cache_misses += 1;
                leader = Some(i);
            }
        }
    }
    (plan, guards)
}

/// The payload of a streamed result: the cell's emitted record.
fn streamed_record(record: Option<CellRecord>) -> CellRecord {
    record.expect("a streamed cell carries its record")
}

/// A simulated cell's deterministic record fields. Emergency/stress and
/// the hottest block are chip-wide when a chip ran; core 0's report
/// supplies the throughput numbers.
fn fresh_record(
    report: &RunReport,
    chip: Option<&crate::multicore::ChipReport>,
    metrics: Option<RegistrySnapshot>,
) -> CellRecord {
    let (emergency_cycles, stress_cycles, hottest_block, hottest_temp_c) = match chip {
        Some(chip) => {
            let (core, block, temp) = chip.hottest();
            (
                chip.emergency_cycles(),
                chip.cores.iter().map(|r| r.stress_cycles).sum(),
                chip.cores[core].blocks[block].name.clone(),
                temp,
            )
        }
        None => match report.hottest_block() {
            Some(b) => (report.emergency_cycles, report.stress_cycles, b.name.clone(), b.max_temp),
            None => (report.emergency_cycles, report.stress_cycles, String::new(), f64::NAN),
        },
    };
    CellRecord {
        thermal_steps: report.total_cycles,
        committed: report.committed,
        dtm_samples: report.samples,
        ipc: report.ipc,
        emergency_cycles,
        stress_cycles,
        hottest_block,
        hottest_temp_c,
        metrics: metrics
            .map(|s| s.counters.iter().map(|&(n, v)| (n.to_string(), v)).collect())
            .unwrap_or_default(),
        ..CellRecord::default()
    }
}

/// `record` under `cell`'s identity, wall time and cache provenance;
/// `seq` and `elapsed_seconds` are stamped at emit. A hit or a follower
/// replays a stored record this way: the key is content, so everything
/// except identity and host-side stamps is the stored bytes.
fn with_identity(
    record: CellRecord,
    cell: &GridCell,
    wall: f64,
    cached: Option<bool>,
) -> CellRecord {
    CellRecord {
        index: cell.index,
        label: cell.label(),
        bench: cell.workload.name.to_string(),
        policy: cell.policy.to_string(),
        variant: cell.variant.to_string(),
        wall_seconds: wall,
        cached,
        ..record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_workloads::by_name;

    #[test]
    fn shard_map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 16, 64] {
            let out = shard_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * 10).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn shard_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(shard_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(shard_map(&[9u8], 4, |_, &x| x), vec![9]);
    }

    #[test]
    #[should_panic(expected = "cell exploded")]
    fn shard_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        shard_map(&items, 4, |_, &x| {
            if x == 5 {
                panic!("cell exploded");
            }
            x
        });
    }

    #[test]
    fn cells_enumerate_workload_major_with_stable_indices() {
        let grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(by_name("gcc").unwrap())
            .workload(by_name("art").unwrap())
            .policies(&[PolicyKind::None, PolicyKind::Pid])
            .variants(&[("base", no_patch), ("hot", |cfg| cfg.heatsink_temp = 107.0)]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(grid.len(), 8);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        assert_eq!(cells[0].label(), "gcc/none");
        assert_eq!(cells[1].label(), "gcc/none/hot");
        assert_eq!(cells[2].label(), "gcc/PID");
        assert_eq!(cells[4].label(), "art/none");
        assert!((cells[1].config().heatsink_temp - 107.0).abs() < 1e-12);
        assert!((cells[0].config().heatsink_temp - 107.0).abs() > 1.0);
    }

    #[test]
    fn grid_run_reports_come_back_in_cell_order() {
        let grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(by_name("gcc").unwrap())
            .policies(&[PolicyKind::None, PolicyKind::Toggle1]);
        let results = grid.run_threads(2);
        assert_eq!(results.threads, 2);
        assert_eq!(results.runs.len(), 2);
        assert_eq!(results.runs[0].policy, PolicyKind::None);
        assert_eq!(results.runs[1].policy, PolicyKind::Toggle1);
        for run in &results.runs {
            assert!(run.obs.thermal_steps >= run.report.cycles);
            assert!(run.obs.committed >= 30_000);
            assert!(run.obs.wall_seconds > 0.0);
            assert!(run.obs.cycles_per_second() > 0.0);
        }
        assert!(results.total_thermal_steps() > 0);
        assert!(results.aggregate_cycles_per_second() > 0.0);
    }

    #[test]
    fn resolve_leads_twins_with_their_lowest_index() {
        let cache = ResultCache::in_memory();
        let mut stats = CacheStats::default();
        let fps = [Fingerprint(5), Fingerprint(4), Fingerprint(5)];
        let (plan, guards) = resolve(&fps, &cache, false, &mut stats);
        assert!(matches!(plan[..], [Resolution::Miss, Resolution::Miss, Resolution::Follower(0)]));
        assert_eq!(guards.len(), 2);
        assert_eq!((stats.cache_misses, stats.cache_hits, stats.cache_inflight_waits), (2, 1, 1));
    }

    #[test]
    fn resolve_claims_in_fingerprint_order() {
        // Another grid holds fingerprint 2, so resolving [3, 1, 2] stalls
        // there. Claiming in fingerprint order, it holds only 1 while it
        // waits: 3 stays free, and a third grid can claim it without
        // waiting on a grid that waits on it.
        let cache: &'static ResultCache = Box::leak(Box::new(ResultCache::in_memory()));
        let claim = |fps: &[Fingerprint]| resolve(fps, cache, false, &mut CacheStats::default()).1;
        let held = claim(&[Fingerprint(2)]);
        let resolver = std::thread::spawn(move || {
            let mut stats = CacheStats::default();
            let fps = [Fingerprint(3), Fingerprint(1), Fingerprint(2)];
            drop(resolve(&fps, cache, false, &mut stats));
            stats
        });
        // The resolve step counts its wait before it blocks on 2.
        while cache.stats().cache_inflight_waits == 0 {
            std::thread::yield_now();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = std::thread::spawn(move || {
            tx.send(claim(&[Fingerprint(3)]).len()).expect("the test waits for the probe");
        });
        let claimed = rx.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(claimed, Ok(1), "the stalled resolve step holds a larger fingerprint");
        probe.join().expect("probe");
        drop(held); // released unpublished: the resolve step claims 2 itself
        let stats = resolver.join().expect("resolve finishes");
        assert_eq!((stats.cache_misses, stats.cache_hits), (3, 0));
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
