//! The traced pass (`--trace 1`): re-runs the first ops of a workload
//! through the public-call replica with a span around every layer call,
//! and derives the per-layer metrics from the spans' self times.
//!
//! Spans carry a name, start, end, parent and op id. Every span is
//! folded into per-name totals; the first [`SPANS_PER_OP`] of each op are
//! also kept whole and written, with the totals, to
//! `target/benchmark/trace-<workload>.json` at the end of the pass. A
//! layer's self time is its spans' time minus the time of their child
//! spans.
//!
//! Every traced op is also run untraced through the simulator itself;
//! the pass fails that op if the replica's cycles, committed
//! instructions or duty history differ. The pass fails if the ledger
//! does not close: the self times of every span below the root — the
//! layer calls, the loop's bookkeeping spans and the loop itself — must
//! come within [`CLOSURE_PCT`] of the replica's wall time, measured from
//! outside. What remains is time no span books.
//!
//! The engine, cache and stream metrics come from grid passes: the
//! fleet op itself on `grid_fleet`, and on a cell workload (whose ops
//! bypass those layers) a probe grid of its traced cells.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::golden::{digest, Golden};
use crate::measure::{fleet_op, grid_passes, timed_setup, CellInputs, GridOp, Plan};
use crate::ops::{Kind, Scale};
use crate::outcome::Outcome;
use crate::replica::{self, NoTrace, Span, Tracer};
use crate::stats::{median, minimum};
use tdtm_core::{
    cache, ExperimentGrid, MulticoreSim, RunReport, SimConfig, Simulator, SkipReason, SkipWindow,
};
use tdtm_dtm::PolicyKind;
use tdtm_telemetry::stream::json_str;
use tdtm_telemetry::CellRecord;
use tdtm_uarch::STAGE_NAMES;
use tdtm_workloads::Workload;

/// Whole spans kept per op (the rest only feed the totals).
const SPANS_PER_OP: usize = 4096;

/// Allowed unattributed share of the replica's wall time.
const CLOSURE_PCT: f64 = 5.0;

const NONE: usize = usize::MAX;

struct Record {
    span: Span,
    op: usize,
    parent: usize,
    start: u64,
    end: u64,
}

/// Collects spans: per-name call counts, total and child time, plus the
/// first spans of each op in full.
struct SpanTracer {
    epoch: Instant,
    op: usize,
    kept_this_op: usize,
    /// Open spans: (span, start ns, index in `records` or `NONE`).
    stack: Vec<(Span, u64, usize)>,
    calls: [u64; Span::ALL.len()],
    total: [u64; Span::ALL.len()],
    child: [u64; Span::ALL.len()],
    /// Child spans closed directly inside each name.
    children: [u64; Span::ALL.len()],
    records: Vec<Record>,
}

impl SpanTracer {
    fn new() -> SpanTracer {
        SpanTracer {
            epoch: Instant::now(),
            op: 0,
            kept_this_op: 0,
            stack: Vec::with_capacity(8),
            calls: [0; Span::ALL.len()],
            total: [0; Span::ALL.len()],
            child: [0; Span::ALL.len()],
            children: [0; Span::ALL.len()],
            records: Vec::new(),
        }
    }

    fn begin_op(&mut self, op: usize) {
        self.op = op;
        self.kept_this_op = 0;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn self_ns(&self, s: Span) -> u64 {
        self.total[s as usize].saturating_sub(self.child[s as usize])
    }

    fn layer_self_ns(&self, layer: &str) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| self.self_ns(s))
            .sum()
    }

    fn all_self_ns(&self) -> u64 {
        Span::ALL.iter().map(|&s| self.self_ns(s)).sum()
    }

    fn per_call_ns(&self, s: Span) -> f64 {
        self.total[s as usize] as f64 / self.calls[s as usize].max(1) as f64
    }
}

/// The tracer's own cost per span (two clock reads and the bookkeeping).
/// Part of it falls inside the span (`inner_ns`: what an empty span
/// measures) and part in the parent's self time (`leak_ns`: the end of
/// one child's clock read and bookkeeping up to the next child's start).
#[derive(Clone, Copy, Debug)]
struct SpanCost {
    inner_ns: f64,
    leak_ns: f64,
}

impl SpanCost {
    /// The median over bursts of empty spans inside one parent.
    fn calibrate() -> SpanCost {
        const BURSTS: usize = 7;
        const SPANS: u32 = 20_000;
        let (mut inner, mut leak) = (Vec::new(), Vec::new());
        for _ in 0..BURSTS {
            let mut t = SpanTracer::new();
            // Past the kept spans, as nearly every span of an op is.
            t.kept_this_op = SPANS_PER_OP;
            t.enter(Span::Loop);
            for _ in 0..SPANS {
                t.enter(Span::Cycle);
                t.exit();
            }
            t.exit();
            inner.push(t.total[Span::Cycle as usize] as f64 / f64::from(SPANS));
            leak.push(t.self_ns(Span::Loop) as f64 / f64::from(SPANS));
        }
        SpanCost {
            inner_ns: median(&inner),
            leak_ns: median(&leak),
        }
    }
}

/// What the ledger leaves unattributed: the replica's wall time (taken
/// from outside) less the self time of every span below the root. That
/// is the root span's own self time plus whatever the replica does
/// outside it — work no span books.
fn unattributed_ns(t: &SpanTracer, wall_ns: f64) -> f64 {
    wall_ns - (t.all_self_ns() - t.self_ns(Span::Op)) as f64
}

/// The ledger's closure gap as a share of the wall time.
fn closure_pct(t: &SpanTracer, wall_ns: f64) -> f64 {
    pct(unattributed_ns(t, wall_ns).abs(), wall_ns)
}

impl Tracer for SpanTracer {
    fn enter(&mut self, span: Span) {
        let start = self.now();
        let index = if self.kept_this_op < SPANS_PER_OP {
            self.kept_this_op += 1;
            let parent = self.stack.last().map_or(NONE, |&(_, _, i)| i);
            self.records.push(Record {
                span,
                op: self.op,
                parent,
                start,
                end: start,
            });
            self.records.len() - 1
        } else {
            NONE
        };
        self.stack.push((span, start, index));
    }

    fn exit(&mut self) {
        let end = self.now();
        let (span, start, index) = self.stack.pop().expect("spans are balanced");
        let ns = end - start;
        self.calls[span as usize] += 1;
        self.total[span as usize] += ns;
        if let Some(&(parent, _, _)) = self.stack.last() {
            self.child[parent as usize] += ns;
            self.children[parent as usize] += 1;
        }
        if index != NONE {
            self.records[index].end = end;
        }
    }
}

/// One cell the traced pass replays.
struct Item {
    key: String,
    cfg: SimConfig,
    workload: Workload,
}

/// The simulator's own (untraced) run of an item.
struct Reference {
    build_s: f64,
    total_s: f64,
    reports: Vec<RunReport>,
    digest: u64,
    duties: Vec<Vec<f64>>,
    windows: Vec<SkipWindow>,
    /// Cycles the skip windows are counted against.
    window_cycles: u64,
    interventions: u64,
}

/// Whether `cfg` runs on the plain single-core simulator (the engine's
/// dispatch rule).
fn single_core(cfg: &SimConfig) -> bool {
    cfg.chip.cores == 1 && cfg.chip.supervisor.is_none()
}

fn reference(item: &Item) -> Reference {
    let start = Instant::now();
    if single_core(&item.cfg) {
        let mut sim = Simulator::for_workload(item.cfg.clone(), &item.workload);
        let build_s = start.elapsed().as_secs_f64();
        sim.record_skip_windows();
        let report = sim.run();
        let total_s = start.elapsed().as_secs_f64();
        Reference {
            build_s,
            total_s,
            digest: digest(&report),
            window_cycles: report.total_cycles,
            duties: vec![sim.duty_history().to_vec()],
            windows: sim.skip_windows().to_vec(),
            reports: vec![report],
            interventions: 0,
        }
    } else {
        let mut sim = MulticoreSim::for_workload(item.cfg.clone(), &item.workload);
        let build_s = start.elapsed().as_secs_f64();
        sim.record_skip_windows();
        let chip = sim.run();
        let total_s = start.elapsed().as_secs_f64();
        Reference {
            build_s,
            total_s,
            digest: digest(&chip),
            window_cycles: chip.chip_cycles,
            duties: (0..sim.cores())
                .map(|k| sim.duty_history(k).to_vec())
                .collect(),
            windows: sim.skip_windows().to_vec(),
            interventions: chip.supervisor_interventions,
            reports: chip.cores,
        }
    }
}

fn skipped(windows: &[SkipWindow], reason: SkipReason) -> u64 {
    windows
        .iter()
        .filter(|w| w.reason == reason)
        .map(SkipWindow::len)
        .sum()
}

/// Running sums over the traced items.
#[derive(Default)]
struct Sums {
    build_ms: Vec<f64>,
    untraced_s: f64,
    replica_s: f64,
    replica_core_cycles: u64,
    committed: u64,
    counted: u64,
    samples: u64,
    engaged: u64,
    emergency: u64,
    bpred: Vec<f64>,
    l1d_miss: Vec<f64>,
    l2_miss: Vec<f64>,
    skip: [u64; 3],
    skip_base: u64,
    stage_nanos: [u64; 6],
    stage_calls: u64,
    chip_s: f64,
    chip_core_cycles: u64,
    chip_parked: u64,
    chip_cycles: u64,
    interventions: u64,
}

/// Replays `items` (reference run, traced replica, stage-timed replica,
/// and for single-core cells the same cell on the N=1 chip path) and
/// returns the sums plus the tracer.
fn replay(items: &[Item], golden: &Golden, out: &mut Outcome) -> (Sums, SpanTracer) {
    let mut sums = Sums::default();
    let mut tracer = SpanTracer::new();
    for (id, item) in items.iter().enumerate() {
        out.attempted += 1;
        let r = reference(item);
        let mut problems: Vec<String> = golden
            .check(&item.key, r.digest)
            .err()
            .into_iter()
            .collect();
        let expect: Vec<(u64, u64, &[f64])> = r
            .reports
            .iter()
            .zip(&r.duties)
            .map(|(rep, duty)| (rep.total_cycles, rep.committed, duty.as_slice()))
            .collect();

        tracer.begin_op(id);
        let start = Instant::now();
        let traced = replica::run(&item.cfg, &item.workload, &mut tracer, false);
        sums.replica_s += start.elapsed().as_secs_f64();
        let staged = replica::run(&item.cfg, &item.workload, &mut NoTrace, true);
        for (which, result) in [("traced", &traced), ("stage-timed", &staged)] {
            if let Err(e) = replica::identity(result, &expect) {
                problems.push(format!("{which} replica: {e}"));
            }
        }

        if single_core(&item.cfg) {
            // The same cell on the chip loop at N = 1 (byte-identical by
            // contract): its cost is the multicore layer's per-core-cycle
            // price on this workload.
            let start = Instant::now();
            let mut sim = MulticoreSim::for_workload(item.cfg.clone(), &item.workload);
            sim.record_skip_windows();
            let chip = sim.run();
            sums.chip_s += start.elapsed().as_secs_f64();
            if digest(&chip.cores[0]) != r.digest {
                problems.push("N=1 chip report differs from the simulator's".to_string());
            }
            sums.chip_core_cycles += chip.cores[0].total_cycles;
            sums.chip_parked += skipped(sim.skip_windows(), SkipReason::Parked);
            sums.chip_cycles += chip.chip_cycles;
        } else {
            sums.chip_s += r.total_s;
            sums.chip_core_cycles += r.reports.iter().map(|rep| rep.total_cycles).sum::<u64>();
            sums.chip_parked += skipped(&r.windows, SkipReason::Parked);
            sums.chip_cycles += r.window_cycles;
            sums.interventions += r.interventions;
        }
        if !problems.is_empty() {
            out.fail(format!("{}: {}", item.key, problems.join("; ")));
        }

        sums.build_ms.push(r.build_s * 1e3);
        sums.untraced_s += r.total_s;
        sums.replica_core_cycles += traced.core_cycles;
        for rep in &r.reports {
            sums.committed += rep.committed;
            sums.counted += rep.cycles;
            sums.samples += rep.samples;
            sums.engaged += rep.engaged_samples;
            sums.emergency += rep.emergency_cycles;
            sums.bpred.push(rep.bpred_accuracy);
        }
        for core in &traced.cores {
            sums.l1d_miss.push(core.l1d_miss);
            sums.l2_miss.push(core.l2_miss);
        }
        for (i, reason) in [SkipReason::Gated, SkipReason::Drained, SkipReason::Resync]
            .into_iter()
            .enumerate()
        {
            sums.skip[i] += skipped(&r.windows, reason);
        }
        sums.skip_base += r.window_cycles;
        for (acc, ns) in sums.stage_nanos.iter_mut().zip(staged.stage_nanos) {
            *acc += ns;
        }
        sums.stage_calls += staged.cycle_calls;
    }
    (sums, tracer)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * part / whole.max(f64::MIN_POSITIVE)
}

/// The layers of the ledger, in reporting order.
const LAYERS: [&str; 6] = ["uarch", "power", "thermal", "dtm", "multicore", "simulator"];

/// Derives every replica-based per-layer metric, checks the ledger's
/// closure, and adds the ledger to the notes.
fn layer_metrics(sums: &Sums, t: &SpanTracer, out: &mut Outcome) {
    let all = t.all_self_ns() as f64;
    out.set("uarch.ns_per_cycle_call", t.per_call_ns(Span::Cycle));
    for (stage, ns) in STAGE_NAMES.iter().zip(sums.stage_nanos) {
        out.set(
            &format!("uarch.stage_ns.{stage}"),
            ns as f64 / sums.stage_calls.max(1) as f64,
        );
    }
    out.set(
        "uarch.ipc",
        sums.committed as f64 / sums.counted.max(1) as f64,
    );
    out.set("uarch.bpred_accuracy_pct", 100.0 * mean(&sums.bpred));
    out.set("uarch.l1d_miss_pct", 100.0 * mean(&sums.l1d_miss));
    out.set("uarch.l2_miss_pct", 100.0 * mean(&sums.l2_miss));
    out.set("power.ns_per_call", t.per_call_ns(Span::CyclePower));
    out.set("thermal.ns_per_step", t.per_call_ns(Span::ThermalStep));
    let dtm_ns = (t.total[Span::ReadAll as usize] + t.total[Span::Sample as usize]) as f64;
    out.set(
        "dtm.ns_per_sample",
        dtm_ns / t.calls[Span::Sample as usize].max(1) as f64,
    );
    out.set("dtm.samples", sums.samples as f64);
    out.set(
        "dtm.engaged_pct",
        pct(sums.engaged as f64, sums.samples as f64),
    );
    out.set(
        "dtm.emergency_cycles_pct",
        pct(sums.emergency as f64, sums.counted as f64),
    );
    out.set("simulator.build_ms", median(&sums.build_ms));
    out.set(
        "simulator.loop_overhead_ns_per_cycle",
        (t.self_ns(Span::StopCheck) + t.self_ns(Span::Account)) as f64
            / sums.replica_core_cycles.max(1) as f64,
    );
    for (i, reason) in ["gated", "drained", "resync"].into_iter().enumerate() {
        out.set(
            &format!("simulator.skip_pct.{reason}"),
            pct(sums.skip[i] as f64, sums.skip_base as f64),
        );
    }
    out.set(
        "multicore.ns_per_core_cycle",
        sums.chip_s * 1e9 / sums.chip_core_cycles.max(1) as f64,
    );
    out.set(
        "multicore.skip_pct.parked",
        pct(sums.chip_parked as f64, sums.chip_cycles as f64),
    );
    out.set(
        "multicore.supervisor_interventions",
        sums.interventions as f64,
    );
    for layer in LAYERS {
        out.set(
            &format!("{layer}.share_pct"),
            pct(t.layer_self_ns(layer) as f64, all),
        );
    }
    let wall_ns = sums.replica_s * 1e9;
    let closure = closure_pct(t, wall_ns);
    out.set("trace.overhead_x", sums.replica_s / sums.untraced_s);
    out.set("trace.closure_pct", closure);

    let mut ledger = String::from("ledger (replica self time):");
    for layer in LAYERS {
        let ns = t.layer_self_ns(layer) as f64;
        let _ = write!(ledger, " {layer} {:.1} ms ({:.1}%)", ns / 1e6, pct(ns, all));
    }
    out.notes.push(ledger);
    let cost = SpanCost::calibrate();
    let loop_ms = t.self_ns(Span::Loop) as f64 / 1e6;
    out.notes.push(format!(
        "ledger closure: {:.1} ms of the replica's {:.1} ms wall is outside every span below \
         the root ({closure:.2}%, limit {CLOSURE_PCT}%). The loop's self time beyond its calls \
         and bookkeeping spans is {loop_ms:.1} ms, of which the tracer's own cost is about {:.1} \
         ms (an empty span measures {:.1} ns itself and adds {:.1} ns to its parent; every \
         per-call figure includes the first)",
        unattributed_ns(t, wall_ns) / 1e6,
        wall_ns / 1e6,
        t.children[Span::Loop as usize] as f64 * cost.leak_ns / 1e6,
        cost.inner_ns,
        cost.leak_ns,
    ));
    out.notes.push(format!(
        "tracing overhead {:.2}x (replica {:.3} s / untraced simulator {:.3} s)",
        sums.replica_s / sums.untraced_s,
        sums.replica_s,
        sums.untraced_s,
    ));
    let skip = sums.skip.iter().sum::<u64>() as f64;
    out.notes.push(format!(
        "skip share {:.1}% of simulated cycles (gated {:.1}%, drained {:.1}%, resync {:.1}%)",
        pct(skip, sums.skip_base as f64),
        pct(sums.skip[0] as f64, sums.skip_base as f64),
        pct(sums.skip[1] as f64, sums.skip_base as f64),
        pct(sums.skip[2] as f64, sums.skip_base as f64),
    ));
    out.notes.push(
        "replica: warm-start jump and V/f resync replicated with public calls; nothing disabled"
            .to_string(),
    );
    if closure > CLOSURE_PCT {
        out.fail(format!(
            "ledger does not close: {closure:.2}% > {CLOSURE_PCT}%"
        ));
    }
}

/// The probe for the engine, cache and stream layers on a cell workload,
/// whose own ops bypass them: the traced cells' benchmarks × policies as
/// one grid at the fleet grid's scale.
fn probe_grid(items: &[Item], scale: &Scale) -> ExperimentGrid {
    let mut workloads: Vec<&Workload> = Vec::new();
    let mut policies: Vec<PolicyKind> = Vec::new();
    for item in items {
        if !workloads.iter().any(|w| w.name == item.workload.name) {
            workloads.push(&item.workload);
        }
        if !policies.contains(&item.cfg.dtm.policy) {
            policies.push(item.cfg.dtm.policy);
        }
    }
    workloads.into_iter().fold(
        ExperimentGrid::new(scale.grid).policies(&policies),
        |g, w| g.workload(w.clone()),
    )
}

fn write_trace_file(
    path: &Path,
    kind: Kind,
    seed: u64,
    items: &[Item],
    t: &SpanTracer,
) -> std::io::Result<()> {
    let mut s = String::with_capacity(64 * t.records.len() + 4096);
    let _ = write!(
        s,
        "{{\"workload\":{},\"seed\":{seed},\"clock\":\"ns\",\"ops\":[",
        json_str(kind.name())
    );
    for (i, item) in items.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}{{\"id\":{i},\"cell\":{}}}", json_str(&item.key));
    }
    s.push_str("],\"totals\":[");
    for (i, &span) in Span::ALL.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}{{\"name\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
            json_str(span.name()),
            t.calls[span as usize],
            t.total[span as usize],
            t.self_ns(span)
        );
    }
    s.push_str("],\"span_fields\":[\"name\",\"op\",\"parent\",\"start\",\"end\"],\"spans\":[");
    for (i, r) in t.records.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let parent = if r.parent == NONE {
            -1
        } else {
            r.parent as i64
        };
        let _ = write!(
            s,
            "{sep}[{},{},{parent},{},{}]",
            json_str(r.span.name()),
            r.op,
            r.start,
            r.end
        );
    }
    s.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

/// The traced pass of any workload. `trace_dir` receives the span file
/// (`None` in tests).
pub fn traced(
    kind: Kind,
    seed: u64,
    scale: &Scale,
    plan: &Plan,
    trace_dir: Option<&Path>,
) -> Outcome {
    let mut out = Outcome::default();
    let golden = Golden::load(kind, scale);
    let items = if kind == Kind::GridFleet {
        let (op, fleet) = fleet_op(scale, plan, true, 0);
        grid_layer_metrics(&op, &mut out);
        out.attempted += fleet.attempted;
        out.failed += fleet.failed;
        out.failures.extend(fleet.failures);
        // Replays a seeded sample of grid cells through the replica.
        let cells = op.grid.cells();
        let mut order: Vec<usize> = (0..cells.len()).collect();
        Kind::GridFleet.rng(seed).shuffle(&mut order);
        order
            .into_iter()
            .take(plan.trace_ops.min(cells.len()))
            .map(|i| Item {
                key: cells[i].label(),
                cfg: cells[i].config(),
                workload: cells[i].workload.clone(),
            })
            .collect::<Vec<_>>()
    } else {
        let inputs = CellInputs::new(kind, seed, scale);
        let cells = &inputs.set.cells;
        let k = plan.trace_ops.min(cells.len());
        // Evenly spaced through the cell space, so the replayed mix of
        // benchmarks and variants does not depend on the seed.
        let items: Vec<Item> = (0..k)
            .map(|j| cells[j * cells.len() / k])
            .map(|op| Item {
                key: op.key(&inputs.suite),
                cfg: op.config(scale),
                workload: inputs.suite[op.bench].clone(),
            })
            .collect();
        let probe = probe_grid(&items, scale);
        out.notes.push(format!(
            "engine, cache and stream layers: this workload's ops bypass them; measured on a \
             probe grid of its traced cells' benchmarks x policies ({} cells at grid scale, 1 \
             worker)",
            probe.len()
        ));
        let op = grid_passes(probe, 1, &Golden::none(), plan, true);
        out.attempted += 1;
        if !op.problems.is_empty() {
            out.fail(format!("probe grid: {}", op.problems.join("; ")));
        }
        grid_layer_metrics(&op, &mut out);
        items
    };
    let (sums, tracer) = replay(&items, &golden, &mut out);
    layer_metrics(&sums, &tracer, &mut out);
    if let Some(dir) = trace_dir {
        let path = dir.join(format!("trace-{}.json", kind.name()));
        match write_trace_file(&path, kind, seed, &items, &tracer) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
    out
}

/// Engine, cache and stream metrics of one grid's passes (which must
/// include the streamed pass).
fn grid_layer_metrics(op: &GridOp, out: &mut Outcome) {
    let (streamed_s, records) = op.streamed.as_ref().expect("traced grid passes stream");
    let cells = op.cold.runs.len().max(1) as f64;
    let busy: f64 = op.cold.runs.iter().map(|r| r.obs.wall_seconds).sum();
    let workers = op.cold.threads as f64;
    out.set(
        "engine.worker_busy_pct",
        pct(busy, workers * op.cold.wall_seconds),
    );
    out.set(
        "engine.idle_worker_s",
        workers * op.cold.wall_seconds - busy,
    );

    let grid_cells = op.grid.cells();
    let (_, fp_times) = timed_setup(5, || cache::cell_fingerprints(&grid_cells));
    out.set(
        "cache.fingerprint_us_per_cell",
        median(&fp_times) * 1e6 / cells,
    );
    let hit_pct =
        |s: Option<tdtm_core::CacheStats>| s.and_then(|s| s.hit_rate()).map_or(0.0, |r| 100.0 * r);
    out.set("cache.hit_pct.cold", hit_pct(op.cold.cache_stats));
    out.set("cache.hit_pct.warm", hit_pct(op.warm_stats));
    let cold_waits = op.cold.cache_stats.map_or(0, |s| s.cache_inflight_waits);
    out.set(
        "cache.inflight_waits",
        (cold_waits + op.warm_inflight_waits) as f64,
    );
    out.set(
        "cache.replay_us_per_cell",
        minimum(&op.warm_times) * 1e6 / cells,
    );

    out.set("stream.overhead_x", streamed_s / op.cold_s);
    const REPS: usize = 20;
    let start = Instant::now();
    let mut lines = Vec::new();
    for _ in 0..REPS {
        lines = records.iter().map(CellRecord::to_json).collect();
    }
    let serialize_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut parsed = Vec::new();
    for _ in 0..REPS {
        parsed = lines.iter().map(|l| CellRecord::from_json(l)).collect();
    }
    let parse_s = start.elapsed().as_secs_f64();
    let reps = (REPS * records.len().max(1)) as f64;
    out.set("stream.serialize_us_per_record", serialize_s * 1e6 / reps);
    out.set("stream.parse_us_per_record", parse_s * 1e6 / reps);
    let round_trips = parsed
        .iter()
        .zip(records)
        .all(|(p, r)| p.as_ref().is_ok_and(|p| p.deterministic_eq(r)));
    if !round_trips || parsed.len() != records.len() {
        out.fail("a streamed record does not survive its JSON round trip".to_string());
    }
    out.notes.push(format!(
        "dispatch: workers busy {:.1}% of {} x {:.3} s; cold {:.3} s, {} warm repeats in {:.3} s, \
         streamed {streamed_s:.3} s",
        pct(busy, workers * op.cold.wall_seconds),
        op.cold.threads,
        op.cold.wall_seconds,
        op.cold_s,
        op.warm_times.len(),
        op.warm_times.iter().sum::<f64>(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The closure gap of an op whose loop makes busy call spans, plus
    /// `untraced` time spent inside the op but outside every span below
    /// it.
    fn closure_with(untraced: Duration) -> f64 {
        let mut t = SpanTracer::new();
        let start = Instant::now();
        t.enter(Span::Op);
        t.enter(Span::Loop);
        for _ in 0..2_000 {
            t.enter(Span::Cycle);
            let busy = Instant::now();
            while busy.elapsed() < Duration::from_micros(5) {}
            t.exit();
        }
        t.exit();
        if !untraced.is_zero() {
            std::thread::sleep(untraced);
        }
        t.exit();
        closure_pct(&t, start.elapsed().as_nanos() as f64)
    }

    #[test]
    fn untraced_time_inside_the_op_fails_the_ledger_closure() {
        let traced = closure_with(Duration::ZERO);
        assert!(traced <= CLOSURE_PCT, "closure gap {traced}%");
        let slept = closure_with(Duration::from_millis(5));
        assert!(slept > CLOSURE_PCT, "closure gap {slept}%");
    }
}
