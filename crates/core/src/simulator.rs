//! The single-core simulator: one program under one configuration, run
//! by the cycle loop it shares with the multicore chip, or by the
//! per-cycle reference oracle.

use crate::config::SimConfig;
use crate::cycle::{leakage_peaks, CoreSlot, CycleView, Machine, NoObserver, Observer};
use crate::metrics::RunReport;
use crate::telemetry::{sim_metrics_registry, HIST_FETCH_DUTY, HIST_HOTTEST_TEMP};
use std::time::Instant;
use tdtm_control::pid::PidSample;
use tdtm_dtm::{SensorModel, TriggerMechanism};
use tdtm_isa::Program;
use tdtm_power::PowerModel;
use tdtm_telemetry::{
    ControllerSample, Event, EventTrace, Phase, PhaseProfile, Telemetry, TelemetryConfig,
    ThresholdKind,
};
use tdtm_thermal::boxcar::BoxcarProxy;
use tdtm_thermal::comparison::AgreementCounts;
use tdtm_thermal::BlockModel;
use tdtm_uarch::Core;
use tdtm_workloads::Workload;

pub(crate) const NUM_THERMAL: usize = 7;

/// Minimum idle-window length (cycles) worth fast-forwarding: shorter
/// windows are cheaper to just execute than to probe, fold, and
/// book-keep.
pub(crate) const MIN_SKIP_WINDOW: u64 = 4;

/// Why a run loop fast-forwarded a window of cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// Duty-cycle fetch gating held the front end closed and the window
    /// was otherwise drained.
    Gated,
    /// The window was drained and stalled on a long-latency completion
    /// with a known wake cycle.
    Drained,
    /// A V/f resynchronization stall (the core is not clocked at all).
    Resync,
    /// A multicore gap in which at least one core was parked (chip-level
    /// windows only).
    Parked,
}

/// One fast-forwarded window: cycles `start..end` were advanced with a
/// constant-power thermal fold instead of per-cycle pipeline execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipWindow {
    /// First skipped cycle.
    pub start: u64,
    /// One past the last skipped cycle.
    pub end: u64,
    /// Why the window was provably idle.
    pub reason: SkipReason,
}

impl SkipWindow {
    /// Window length in cycles.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the window is empty (never recorded by the run loops).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// A temperature-proxy attachment for the Tables 9/10 comparison.
#[derive(Clone, Debug)]
pub struct ProxyAttachment {
    /// Label used in reports ("structure 10K", "chip-wide 500K", ...).
    pub label: String,
    kind: ProxyKind,
    /// Agreement with the RC reference, per block (one entry for
    /// chip-wide proxies).
    pub counts: Vec<AgreementCounts>,
}

#[derive(Clone, Debug)]
enum ProxyKind {
    /// One boxcar per thermal block; triggers through the per-structure
    /// thermal rule (avg power × R + heatsink vs. threshold), with the
    /// blocks' resistances `rs`.
    PerStructure {
        boxcars: Vec<BoxcarProxy>,
        rs: [f64; NUM_THERMAL],
        heatsink: f64,
    },
    /// One boxcar over total chip power with a watts threshold.
    ChipWide {
        boxcar: BoxcarProxy,
        threshold_w: f64,
    },
}

impl ProxyAttachment {
    /// Feeds one cycle's powers to the boxcars and, when counting, scores
    /// the proxy's verdict against the RC temperatures.
    fn record(&mut self, c: &CycleView) {
        match &mut self.kind {
            ProxyKind::PerStructure {
                boxcars,
                rs,
                heatsink,
            } => {
                for i in 0..NUM_THERMAL {
                    boxcars[i].push(c.powers[i]);
                    if c.counting {
                        let proxy_hot = boxcars[i].triggered_thermal(rs[i], *heatsink, c.emergency);
                        self.counts[i].record(c.temps[i] > c.emergency, proxy_hot);
                    }
                }
            }
            ProxyKind::ChipWide {
                boxcar,
                threshold_w,
            } => {
                boxcar.push(c.total);
                if c.counting {
                    let reference_hot = c.temps.iter().any(|&t| t > c.emergency);
                    self.counts[0].record(reference_hot, boxcar.triggered(*threshold_w));
                }
            }
        }
    }
}

/// A full simulation of one program under one configuration.
pub struct Simulator {
    cfg: SimConfig,
    slot: CoreSlot,
    power: std::sync::Arc<PowerModel>,
    thermal: BlockModel,
    /// What the next [`run`](Simulator::run) observes.
    watch: Watch,
    /// Collected telemetry of the last run.
    collected: Option<Telemetry>,
    /// Runs the per-cycle reference oracle instead of the cycle loop
    /// (validation knob; see
    /// [`set_reference_loop`](Simulator::set_reference_loop)).
    reference_loop: bool,
    /// Fast-forwards provably-idle windows (see
    /// [`set_skip`](Simulator::set_skip); on by default).
    skip: bool,
    /// Records one [`SkipWindow`] per fast-forwarded window when enabled
    /// (off by default so long runs don't grow a log nobody reads).
    log_skip_windows: bool,
    /// The skip-window log of the last run (when enabled).
    skip_windows: Vec<SkipWindow>,
}

/// In-flight telemetry collection for one core: the collectors plus the
/// cheap local accumulators and edge-detection state the cycle loop
/// updates, flushed into the registry when the run ends. Every event it
/// records is tagged with `core_id` (0 on the single-core path).
#[derive(Default)]
pub(crate) struct TelemetryState {
    events: Option<EventTrace>,
    registry: Option<tdtm_telemetry::MetricsRegistry>,
    /// Cached histogram indices for the hot per-cycle/per-sample records.
    temp_idx: usize,
    duty_idx: usize,
    phases: bool,
    /// The core every event is tagged with.
    core_id: usize,
    /// Per-block "currently above" the emergency (0) and stress (1)
    /// thresholds, for entry/exit edges.
    above: [[bool; NUM_THERMAL]; 2],
    /// Plain local counters (flushed to the registry at run end — the run
    /// loop is single-threaded, so per-event atomics would be overhead).
    duty_changes: u64,
    /// Emergency (0) and stress (1) threshold entries.
    entries: [u64; 2],
    sensor_reads: u64,
    thermal_steps: u64,
    /// Supervisor duty caps imposed on this core and its park
    /// transitions (their events go to the chip-level ring).
    pub(crate) supervisor_caps: u64,
    pub(crate) park_transitions: u64,
    /// Host time of the non-pipeline phases (power, thermal step,
    /// controller).
    profile: PhaseProfile,
    /// The core's stage timers and cycle count when collection began.
    stage_nanos_start: [u64; 6],
    core_cycles_start: u64,
}

impl TelemetryState {
    /// A collector for `core`, whose events are tagged with `core_id`.
    pub(crate) fn with_core(cfg: &TelemetryConfig, core_id: usize, core: &Core) -> TelemetryState {
        let registry = cfg.metrics.then(sim_metrics_registry);
        let (temp_idx, duty_idx) = registry.as_ref().map_or((0, 0), |reg| {
            (
                reg.histogram_index(HIST_HOTTEST_TEMP),
                reg.histogram_index(HIST_FETCH_DUTY),
            )
        });
        TelemetryState {
            events: cfg.events.map(|e| EventTrace::new(e.capacity, e.stride)),
            registry,
            temp_idx,
            duty_idx,
            phases: cfg.phases,
            core_id,
            stage_nanos_start: core.stage_nanos(),
            core_cycles_start: core.stats().cycles,
            ..TelemetryState::default()
        }
    }

    /// Per-cycle thermal step count, threshold edge detection, and
    /// hottest-block histogram.
    pub(crate) fn observe_cycle(&mut self, cycle: u64, temps: &[f64], emergency: f64) {
        self.thermal_steps += 1;
        let thresholds = [
            (ThresholdKind::Emergency, emergency),
            (ThresholdKind::Stress, emergency - 1.0),
        ];
        for (block, &t) in temps.iter().enumerate() {
            for (i, (threshold, level)) in thresholds.into_iter().enumerate() {
                let entered = t > level;
                if entered == self.above[i][block] {
                    continue;
                }
                self.above[i][block] = entered;
                self.entries[i] += u64::from(entered);
                if let Some(trace) = &mut self.events {
                    trace.record(Event::ThermalEdge {
                        cycle,
                        core: self.core_id,
                        block,
                        threshold,
                        entered,
                    });
                }
            }
        }
        if let Some(reg) = &self.registry {
            let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            reg.histogram_at(self.temp_idx).record(hottest);
        }
    }

    /// Whether dense per-sample events (sensor reads, controller samples)
    /// are due on the `index`-th DTM sample. `false` when the event ring
    /// is disabled.
    pub(crate) fn sample_due(&self, index: u64) -> bool {
        self.events
            .as_ref()
            .is_some_and(|trace| trace.sample_due(index))
    }

    /// Records one [`Event::SensorRead`] per block (call only when
    /// [`sample_due`](TelemetryState::sample_due)).
    pub(crate) fn record_sensor_reads(&mut self, cycle: u64, sensed: &[f64]) {
        self.sensor_reads += sensed.len() as u64;
        if let Some(trace) = &mut self.events {
            for (block, &reading) in sensed.iter().enumerate() {
                trace.record(Event::SensorRead {
                    cycle,
                    core: self.core_id,
                    block,
                    reading,
                });
            }
        }
    }

    /// Records one controller-internals event (call only when
    /// [`sample_due`](TelemetryState::sample_due)).
    pub(crate) fn record_controller(&mut self, cycle: u64, block: usize, s: &PidSample) {
        if let Some(trace) = &mut self.events {
            trace.record(Event::Controller {
                cycle,
                core: self.core_id,
                sample: ControllerSample {
                    block,
                    error: s.error,
                    p_term: s.p_term,
                    i_term: s.i_term,
                    d_term: s.d_term,
                    integral_pre_clamp: s.integral_pre_clamp,
                    integral: s.integral,
                    output: s.output,
                    saturated: s.saturated,
                },
            });
        }
    }

    /// Records the commanded fetch duty into its histogram (every DTM
    /// sample, not strided).
    pub(crate) fn record_duty_hist(&mut self, duty: f64) {
        if let Some(reg) = &self.registry {
            reg.histogram_at(self.duty_idx).record(duty);
        }
    }

    /// Records an applied duty-level change.
    pub(crate) fn record_duty_change(&mut self, cycle: u64, from: f64, to: f64) {
        self.duty_changes += 1;
        if let Some(trace) = &mut self.events {
            trace.record(Event::DutyChange {
                cycle,
                core: self.core_id,
                from,
                to,
            });
        }
    }

    /// Converts the in-flight state into the final [`Telemetry`]: flushes
    /// the local counters into the registry and assembles the phase
    /// profile from the core's stage timers and the loop's accumulators.
    pub(crate) fn flush(mut self, core: &Core, acc: &RunAccum) -> Telemetry {
        if let Some(reg) = &self.registry {
            reg.counter("cycles").add(acc.cycle);
            reg.counter("thermal_steps").add(self.thermal_steps);
            reg.counter("dtm_samples").add(acc.samples);
            reg.counter("duty_changes").add(self.duty_changes);
            reg.counter("emergency_entries").add(self.entries[0]);
            reg.counter("stress_entries").add(self.entries[1]);
            reg.counter("sensor_reads").add(self.sensor_reads);
            reg.counter("supervisor_caps").add(self.supervisor_caps);
            reg.counter("core_parks").add(self.park_transitions);
            if let Some(trace) = &self.events {
                reg.counter("events_recorded").add(trace.recorded());
                reg.counter("events_dropped").add(trace.dropped());
            }
        }
        let phases = self.phases.then(|| {
            let stage = core.stage_nanos();
            let core_cycles = core.stats().cycles - self.core_cycles_start;
            const STAGES: [Phase; 6] = [
                Phase::Commit,
                Phase::Writeback,
                Phase::Issue,
                Phase::Dispatch,
                Phase::Decode,
                Phase::Fetch,
            ];
            for (i, phase) in STAGES.into_iter().enumerate() {
                let nanos = stage[i] - self.stage_nanos_start[i];
                self.profile.add(phase, nanos, core_cycles);
            }
            self.profile
        });
        Telemetry {
            events: self.events,
            metrics: self.registry,
            phases,
        }
    }
}

#[derive(Clone, Debug)]
struct PowerTraceRecorder {
    stride: u64,
    acc: [f64; NUM_THERMAL],
    acc_total: f64,
    count: u64,
    trace: crate::replay::PowerTrace,
}

impl PowerTraceRecorder {
    /// Accumulates one cycle; pushes the stride mean when a stride fills.
    fn record(&mut self, powers: &[f64; NUM_THERMAL], total: f64) {
        for (acc, &p) in self.acc.iter_mut().zip(powers) {
            *acc += p;
        }
        self.acc_total += total;
        self.count += 1;
        if self.count == self.stride {
            let mean = self.acc.map(|a| a / self.stride as f64);
            self.trace.push(mean, self.acc_total / self.stride as f64);
            self.acc = [0.0; NUM_THERMAL];
            self.acc_total = 0.0;
            self.count = 0;
        }
    }
}

/// A downsampled time series of the run: block temperatures, total power,
/// and fetch duty, sampled every `stride` cycles.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Cycles between samples.
    pub stride: u64,
    /// Cycle numbers of the samples.
    pub cycles: Vec<u64>,
    /// Per-sample block temperatures, in `THERMAL_BLOCKS` order.
    pub temperatures: Vec<[f64; NUM_THERMAL]>,
    /// Per-sample total chip power (W).
    pub power: Vec<f64>,
    /// Per-sample fetch duty currently applied.
    pub duty: Vec<f64>,
}

impl Trace {
    /// Samples a cycle at the *start* of each stride (`cycle % stride ==
    /// 0`, so the first is cycle 0), while DTM samples fire at the *end*
    /// of each interval (`(cycle + 1) % interval == 0`). Pinned by tests.
    fn record(&mut self, c: &CycleView) {
        if c.cycle.is_multiple_of(self.stride) {
            self.cycles.push(c.cycle);
            self.temperatures.push(*c.temps);
            self.power.push(c.total);
            self.duty.push(c.duty);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// What a single-core run observes: telemetry, temperature proxies, the
/// downsampled trace, and the power trace. Each hook runs on every cycle
/// the loop executes or folds, so observation never depends on skipping.
#[derive(Default)]
struct Watch {
    telemetry: Option<TelemetryState>,
    proxies: Vec<ProxyAttachment>,
    trace: Option<Trace>,
    power_trace: Option<PowerTraceRecorder>,
}

impl Watch {
    fn is_empty(&self) -> bool {
        self.telemetry.is_none()
            && self.proxies.is_empty()
            && self.trace.is_none()
            && self.power_trace.is_none()
    }
}

impl Observer for Watch {
    fn telemetry(&mut self, _k: usize) -> Option<&mut TelemetryState> {
        self.telemetry.as_mut()
    }

    fn cycle(&mut self, _k: usize, c: &CycleView) {
        if let Some(ts) = &mut self.telemetry {
            ts.observe_cycle(c.cycle, c.temps, c.emergency);
        }
        for proxy in &mut self.proxies {
            proxy.record(c);
        }
        if let Some(rec) = &mut self.power_trace {
            rec.record(c.powers, c.total);
        }
        if let Some(trace) = &mut self.trace {
            trace.record(c);
        }
    }

    fn timer(&self) -> Option<Instant> {
        self.telemetry
            .as_ref()
            .filter(|ts| ts.phases)
            .map(|_| Instant::now())
    }

    fn lap(&mut self, phase: Phase, start: Option<Instant>, calls: u64) {
        if let (Some(ts), Some(start)) = (&mut self.telemetry, start) {
            ts.profile
                .add(phase, start.elapsed().as_nanos() as u64, calls);
        }
    }
}

/// Post-warmup accumulators shared by every run loop — one per core. The
/// report is assembled from this struct alone (`CoreSlot::report`), so
/// every loop finalizes through one code path and a given simulation
/// yields byte-identical reports whichever loop ran it.
#[derive(Default)]
pub(crate) struct RunAccum {
    pub(crate) cycle: u64,
    pub(crate) counted_cycles: u64,
    pub(crate) committed_at_count_start: u64,
    pub(crate) wall_time: f64,
    pub(crate) sum_power: f64,
    pub(crate) max_power: f64,
    pub(crate) emergency_cycles: u64,
    pub(crate) stress_cycles: u64,
    pub(crate) block_sum_t: [f64; NUM_THERMAL],
    pub(crate) block_max_t: [f64; NUM_THERMAL],
    pub(crate) block_emerg: [u64; NUM_THERMAL],
    pub(crate) block_stress: [u64; NUM_THERMAL],
    pub(crate) block_sum_p: [f64; NUM_THERMAL],
    pub(crate) block_max_p: [f64; NUM_THERMAL],
    pub(crate) samples: u64,
}

impl RunAccum {
    pub(crate) fn new() -> RunAccum {
        RunAccum {
            block_max_t: [f64::NEG_INFINITY; NUM_THERMAL],
            ..RunAccum::default()
        }
    }

    /// Folds one counted cycle into the accumulators. The arithmetic and
    /// its order are shared verbatim by every loop — that sharing is what
    /// makes their reports byte-identical.
    #[inline(always)]
    pub(crate) fn record_cycle(
        &mut self,
        temps: &[f64; NUM_THERMAL],
        thermal_powers: &[f64; NUM_THERMAL],
        total_power: f64,
        dt_wall: f64,
        emergency: f64,
    ) {
        let stress = emergency - 1.0;
        self.counted_cycles += 1;
        self.wall_time += dt_wall;
        self.sum_power += total_power;
        self.max_power = self.max_power.max(total_power);
        let mut any_e = false;
        let mut any_s = false;
        for i in 0..NUM_THERMAL {
            let t = temps[i];
            self.block_sum_t[i] += t;
            self.block_max_t[i] = self.block_max_t[i].max(t);
            if t > emergency {
                self.block_emerg[i] += 1;
                any_e = true;
            }
            if t > stress {
                self.block_stress[i] += 1;
                any_s = true;
            }
            self.block_sum_p[i] += thermal_powers[i];
            self.block_max_p[i] = self.block_max_p[i].max(thermal_powers[i]);
        }
        if any_e {
            self.emergency_cycles += 1;
        }
        if any_s {
            self.stress_cycles += 1;
        }
    }
}

impl Simulator {
    /// Builds a simulator over an arbitrary program (no warmup skip).
    pub fn new(cfg: SimConfig, program: Program) -> Simulator {
        let name = program.name.clone();
        Simulator::build(cfg, std::sync::Arc::new(program), &name, 0, None)
    }

    /// Builds a simulator for a suite workload, honoring its functional
    /// warmup skip.
    pub fn for_workload(cfg: SimConfig, workload: &Workload) -> Simulator {
        Simulator::build(
            cfg,
            workload.program_shared(),
            workload.name,
            workload.warmup_insts,
            None,
        )
    }

    /// [`for_workload`](Simulator::for_workload) with a prebuilt, shared
    /// power model. The caller must have built `power` from this exact
    /// `cfg.power`/`cfg.core` pair (the experiment engine caches one model
    /// per distinct pair across grid cells).
    pub fn for_workload_with_power(
        cfg: SimConfig,
        workload: &Workload,
        power: std::sync::Arc<PowerModel>,
    ) -> Simulator {
        Simulator::build(
            cfg,
            workload.program_shared(),
            workload.name,
            workload.warmup_insts,
            Some(power),
        )
    }

    fn build(
        cfg: SimConfig,
        program: std::sync::Arc<Program>,
        name: &str,
        skip: u64,
        power: Option<std::sync::Arc<PowerModel>>,
    ) -> Simulator {
        let power =
            power.unwrap_or_else(|| std::sync::Arc::new(PowerModel::new(&cfg.power, &cfg.core)));
        let thermal = BlockModel::new(cfg.blocks.clone(), cfg.heatsink_temp, cfg.cycle_time());
        Simulator {
            slot: CoreSlot::new(&cfg, cfg.dtm, program, skip, name.to_string()),
            power,
            thermal,
            watch: Watch::default(),
            collected: None,
            reference_loop: false,
            skip: true,
            log_skip_windows: false,
            skip_windows: Vec::new(),
            cfg,
        }
    }

    /// Enables telemetry collection for the next [`run`](Simulator::run).
    /// The collected [`Telemetry`] is available from
    /// [`telemetry`](Simulator::telemetry) afterwards. Collection never
    /// changes the simulation: the [`RunReport`] is byte-identical with
    /// telemetry on or off.
    pub fn enable_telemetry(&mut self, cfg: &TelemetryConfig) {
        if cfg.phases {
            self.slot.core.set_stage_profiling(true);
        }
        self.watch.telemetry = Some(TelemetryState::with_core(cfg, 0, &self.slot.core));
    }

    /// The telemetry collected by the last run, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.collected.as_ref()
    }

    /// Takes ownership of the collected telemetry.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.collected.take()
    }

    /// Enables downsampled trace recording (one sample every `stride`
    /// cycles). Call before [`run`](Simulator::run).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn record_trace(&mut self, stride: u64) {
        assert!(stride > 0, "stride must be nonzero");
        self.watch.trace = Some(Trace {
            stride,
            cycles: Vec::new(),
            temperatures: Vec::new(),
            power: Vec::new(),
            duty: Vec::new(),
        });
    }

    /// The recorded trace, if [`record_trace`](Simulator::record_trace)
    /// was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.watch.trace.as_ref()
    }

    /// Enables power-trace recording: stride-mean per-block powers
    /// suitable for open-loop thermal replay (see [`crate::replay`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn record_power_trace(&mut self, stride: u64) {
        assert!(stride > 0, "stride must be nonzero");
        self.watch.power_trace = Some(PowerTraceRecorder {
            stride,
            acc: [0.0; NUM_THERMAL],
            acc_total: 0.0,
            count: 0,
            trace: crate::replay::PowerTrace::new(self.cfg.cycle_time() * stride as f64, stride),
        });
    }

    /// The recorded power trace, if enabled.
    pub fn power_trace(&self) -> Option<&crate::replay::PowerTrace> {
        self.watch.power_trace.as_ref().map(|r| &r.trace)
    }

    /// Replaces the ideal sensors (for the sensor-fidelity ablation).
    pub fn set_sensors(&mut self, sensors: SensorModel) {
        self.slot.sensors = sensors;
    }

    /// Attaches a per-structure boxcar power proxy with the given window,
    /// for the Tables 9/10 comparison.
    pub fn add_structure_proxy(&mut self, window: usize) {
        self.watch.proxies.push(ProxyAttachment {
            label: format!("structure {window}"),
            kind: ProxyKind::PerStructure {
                boxcars: vec![BoxcarProxy::new(window); NUM_THERMAL],
                rs: std::array::from_fn(|i| self.thermal.params()[i].r),
                heatsink: self.thermal.heatsink(),
            },
            counts: vec![AgreementCounts::new(); NUM_THERMAL],
        });
    }

    /// Attaches a chip-wide boxcar power proxy triggering at
    /// `threshold_w` watts.
    pub fn add_chipwide_proxy(&mut self, window: usize, threshold_w: f64) {
        self.watch.proxies.push(ProxyAttachment {
            label: format!("chip-wide {window}"),
            kind: ProxyKind::ChipWide {
                boxcar: BoxcarProxy::new(window),
                threshold_w,
            },
            counts: vec![AgreementCounts::new()],
        });
    }

    /// The attached proxies and their agreement counts (after [`run`]).
    ///
    /// [`run`]: Simulator::run
    pub fn proxies(&self) -> &[ProxyAttachment] {
        &self.watch.proxies
    }

    /// Sampled fetch-duty history (one entry per DTM sample).
    pub fn duty_history(&self) -> &[f64] {
        &self.slot.duty_history
    }

    /// Current block temperatures (for tracing examples).
    pub fn temperatures(&self) -> &[f64] {
        self.thermal.temperatures()
    }

    /// Runs the plain per-cycle reference oracle instead of the cycle
    /// loop. This is a validation knob: the byte-identity tests run the
    /// same simulation both ways and compare the reports. The oracle
    /// takes no observers — attached telemetry, proxies, and traces
    /// record nothing while it runs.
    pub fn set_reference_loop(&mut self, on: bool) {
        self.reference_loop = on;
    }

    /// Enables or disables idle-gap skipping (on by default). Skipping
    /// never changes the report or any observation: a gated, drained, or
    /// resync-stalled window is advanced with the same per-cycle
    /// arithmetic the loop would have executed, and observers still see
    /// every cycle, so [`RunReport`]s stay byte-identical either way (pinned by `tests/hot_loop_identity.rs` and
    /// `tests/loop_contract.rs`).
    pub fn set_skip(&mut self, on: bool) {
        self.skip = on;
    }

    /// Enables skip-window logging for the next [`run`](Simulator::run):
    /// each fast-forwarded window is recorded with its start/end cycle
    /// and reason, available from
    /// [`skip_windows`](Simulator::skip_windows) afterwards.
    pub fn record_skip_windows(&mut self) {
        self.log_skip_windows = true;
    }

    /// The skip-window log of the last run (empty unless
    /// [`record_skip_windows`](Simulator::record_skip_windows) was
    /// enabled and the loop actually skipped).
    pub fn skip_windows(&self) -> &[SkipWindow] {
        &self.skip_windows
    }

    /// Runs to the configured instruction budget and returns the report.
    ///
    /// The run goes through the cycle loop shared with
    /// [`MulticoreSim`](crate::MulticoreSim), as its N = 1 case:
    /// monomorphized for the no-op observer when nothing is attached, and
    /// for the single-core observer (telemetry, proxies, traces)
    /// otherwise. Both skip idle gaps alike and finalize through one code
    /// path, so reports are byte-identical whatever is attached (pinned
    /// by tests).
    pub fn run(&mut self) -> RunReport {
        self.skip_windows.clear();
        let slot = &mut self.slot;
        slot.acc = RunAccum::new();
        slot.warm_start_power = [0.0; NUM_THERMAL];
        slot.parked = false;
        if self.reference_loop {
            self.run_reference();
        } else {
            let machine = Machine {
                cfg: &self.cfg,
                power: &self.power,
                die: &mut self.thermal,
                slots: std::slice::from_mut(&mut self.slot),
                supervisor: None,
                clock: &mut 0,
                skip: self.skip,
                log: self.log_skip_windows.then_some(&mut self.skip_windows),
            };
            if self.watch.is_empty() {
                machine.run(&mut NoObserver);
            } else {
                machine.run(&mut self.watch);
            }
        }
        if let Some(ts) = self.watch.telemetry.take() {
            self.collected = Some(ts.flush(&self.slot.core, &self.slot.acc));
        }
        self.slot.report(self.thermal.params())
    }

    /// The reference oracle: the plain per-cycle loop the tests compare
    /// the cycle loop against. Every cycle executes the pipeline, stages
    /// power (V/f scale, then leakage at the pre-step temperatures), takes
    /// a plain thermal step, applies the warm-start jump, counts, tests
    /// the DTM-sample boundary, and polls interrupt-delayed commands — no
    /// chunking, no idle-gap skipping, and no observers.
    fn run_reference(&mut self) {
        let Simulator {
            cfg,
            slot,
            power,
            thermal,
            ..
        } = self;
        let interval = cfg.dtm.sample_interval.max(1);
        let emergency = cfg.dtm.emergency;
        let nominal_dt = cfg.cycle_time();
        let idle_sample = power.cycle_power(&tdtm_uarch::Activity::new());
        let leak = cfg.leakage.map(|model| (model, leakage_peaks(power)));
        let mut sensed = [0.0f64; NUM_THERMAL];
        while let Some(counting) = slot.begin_cycle(cfg) {
            let sample = if slot.resync_remaining > 0 {
                slot.resync_remaining -= 1;
                idle_sample
            } else {
                power.cycle_power(slot.core.cycle())
            };
            let mut thermal_powers = [0.0; NUM_THERMAL];
            let total_power = slot.stage(
                &sample,
                leak.as_ref(),
                thermal.temperatures_fixed(),
                &mut thermal_powers,
            );
            thermal.step(&thermal_powers);

            slot.warm_up(thermal, &thermal_powers, cfg);
            let cycle = slot.acc.cycle;
            if counting {
                let temps = thermal.temperatures_fixed();
                slot.acc
                    .record_cycle(temps, &thermal_powers, total_power, slot.dt_wall, emergency);
            }

            if (cycle + 1).is_multiple_of(interval) {
                slot.sensors.read_all(thermal.temperatures(), &mut sensed);
                let cmd = slot.policy.sample(&sensed);
                slot.acc.samples += 1;
                slot.duty_history.push(cmd.fetch_duty);
                match cfg.dtm.mechanism {
                    TriggerMechanism::Direct => slot.apply(thermal, cmd, nominal_dt, cycle, None),
                    TriggerMechanism::Interrupt { latency_cycles } => {
                        slot.pending.push_back((cycle + latency_cycles, cmd));
                    }
                }
            }
            while slot.pending.front().is_some_and(|&(at, _)| at <= cycle) {
                let (_, cmd) = slot.pending.pop_front().expect("checked");
                slot.apply(thermal, cmd, nominal_dt, cycle, None);
            }
            slot.acc.cycle += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use tdtm_dtm::PolicyKind;
    use tdtm_isa::asm::assemble;

    fn hot_loop_program() -> Program {
        // Dense independent integer work: the hottest easy kernel.
        assemble(
            "     li x31, 2000000000
             l:   addi x5, x5, 1
                  addi x6, x6, 2
                  xor  x7, x7, x5
                  add  x8, x8, x6
                  addi x9, x9, 1
                  xor  x10, x10, x8
                  add  x11, x11, x5
                  slli x12, x6, 1
                  addi x31, x31, -1
                  bne  x31, x0, l
                  halt",
        )
        .unwrap()
    }

    fn quick(policy: PolicyKind) -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.dtm.policy = policy;
        cfg
    }

    #[test]
    fn baseline_run_produces_sane_report() {
        let mut sim = Simulator::new(quick(PolicyKind::None), hot_loop_program());
        let r = sim.run();
        assert!(r.committed >= 30_000);
        assert!(r.ipc > 1.0, "ipc {}", r.ipc);
        assert!(
            r.avg_power > 10.0 && r.avg_power < 120.0,
            "power {}",
            r.avg_power
        );
        assert_eq!(r.blocks.len(), 7);
        assert!(r.blocks.iter().all(|b| b.avg_temp >= 100.0));
        assert_eq!(r.policy, "none");
    }

    #[test]
    fn hot_loop_heats_int_units_most() {
        let mut sim = Simulator::new(quick(PolicyKind::None), hot_loop_program());
        let r = sim.run();
        let hottest = r.hottest_block().expect("seven blocks");
        assert!(
            hottest.name.contains("int") || hottest.name == "regfile" || hottest.name == "bpred",
            "integer-dominated kernel should heat the int path, got {}",
            hottest.name
        );
    }

    #[test]
    fn pid_policy_engages_on_hot_code() {
        let mut cfg = quick(PolicyKind::Pid);
        cfg.max_insts = 120_000;
        // Make the workload clearly emergency-bound so the policy must act.
        cfg.heatsink_temp = 107.0;
        let mut sim = Simulator::new(cfg, hot_loop_program());
        let r = sim.run();
        assert!(r.engaged_samples > 0, "PID should engage on a hot loop");
        assert_eq!(r.emergency_cycles, 0, "PID must prevent emergencies");
    }

    #[test]
    fn no_dtm_exceeds_pid_performance_but_has_emergencies() {
        let mut base_cfg = quick(PolicyKind::None);
        base_cfg.max_insts = 120_000;
        base_cfg.heatsink_temp = 105.0;
        let mut none = Simulator::new(base_cfg.clone(), hot_loop_program());
        let r_none = none.run();
        assert!(
            r_none.emergency_cycles > 0,
            "hot loop at 105C heatsink must overheat"
        );

        let mut pid_cfg = base_cfg;
        pid_cfg.dtm.policy = PolicyKind::Pid;
        let mut pid = Simulator::new(pid_cfg, hot_loop_program());
        let r_pid = pid.run();
        let pct = r_pid.percent_of(&r_none);
        assert!(pct < 100.0 + 1e-9, "DTM can never beat no-DTM, got {pct}%");
        assert!(pct > 30.0, "PID should not destroy performance, got {pct}%");
    }

    #[test]
    fn interrupt_mechanism_still_controls() {
        let mut cfg = quick(PolicyKind::Pid);
        cfg.max_insts = 120_000;
        cfg.heatsink_temp = 107.0;
        cfg.dtm.mechanism = TriggerMechanism::Interrupt {
            latency_cycles: 250,
        };
        let mut sim = Simulator::new(cfg, hot_loop_program());
        let r = sim.run();
        assert!(r.engaged_samples > 0);
    }

    #[test]
    fn proxies_accumulate_agreement_counts() {
        let mut cfg = quick(PolicyKind::None);
        cfg.max_insts = 60_000;
        cfg.heatsink_temp = 105.0;
        let mut sim = Simulator::new(cfg, hot_loop_program());
        sim.add_structure_proxy(10_000);
        sim.add_chipwide_proxy(10_000, 47.0);
        let r = sim.run();
        let total: u64 = sim.proxies()[0].counts.iter().map(|c| c.total()).sum();
        assert_eq!(
            total,
            7 * r.cycles,
            "one record per block per counted cycle"
        );
        assert_eq!(sim.proxies()[1].counts[0].total(), r.cycles);
    }

    #[test]
    fn vf_scaling_policy_reduces_power() {
        let mut cfg = quick(PolicyKind::VfScale);
        cfg.max_insts = 120_000;
        cfg.heatsink_temp = 105.0;
        cfg.dtm.vf_resync_cycles = 100;
        let mut vf = Simulator::new(cfg.clone(), hot_loop_program());
        let r_vf = vf.run();

        let mut none_cfg = cfg;
        none_cfg.dtm.policy = PolicyKind::None;
        let mut none = Simulator::new(none_cfg, hot_loop_program());
        let r_none = none.run();

        assert!(r_vf.engaged_samples > 0, "vf policy should trigger");
        assert!(r_vf.avg_power < r_none.avg_power, "scaling must cut power");
        assert!(r_vf.insts_per_second() < r_none.insts_per_second());
    }

    #[test]
    fn leakage_extension_heats_the_chip() {
        let mut plain_cfg = quick(PolicyKind::None);
        plain_cfg.max_insts = 60_000;
        let mut leaky_cfg = plain_cfg.clone();
        leaky_cfg.leakage = Some(tdtm_power::LeakageModel::node_180nm());
        let mut plain = Simulator::new(plain_cfg, hot_loop_program());
        let mut leaky = Simulator::new(leaky_cfg, hot_loop_program());
        let r_plain = plain.run();
        let r_leaky = leaky.run();
        assert!(
            r_leaky.avg_power > r_plain.avg_power + 0.5,
            "leakage adds watts"
        );
        assert!(
            r_leaky.hottest_block().unwrap().max_temp > r_plain.hottest_block().unwrap().max_temp,
            "and therefore kelvins"
        );
    }

    #[test]
    fn pid_contains_node_scale_leakage() {
        // With 0.18 µm-class leakage, the hot loop pushes further past
        // threshold without DTM; PID still holds it at the setpoint
        // (leakage is just extra plant gain to the feedback loop).
        let mut cfg = quick(PolicyKind::Pid);
        cfg.max_insts = 120_000;
        cfg.leakage = Some(tdtm_power::LeakageModel::node_180nm());
        let mut sim = Simulator::new(cfg, hot_loop_program());
        let r = sim.run();
        assert_eq!(
            r.emergency_cycles, 0,
            "PID must contain the leakage feedback"
        );
        assert!(r.engaged_samples > 0, "which requires actually engaging");
    }

    #[test]
    fn runaway_leakage_defeats_any_policy() {
        // Past the runaway boundary even an idle chip has no thermal
        // equilibrium: the what-if model melts the chip regardless of
        // DTM. This is a property of the package, not the policy.
        let mut cfg = quick(PolicyKind::Pid);
        cfg.max_insts = 120_000;
        cfg.leakage = Some(tdtm_power::LeakageModel::node_later_whatif());
        let mut sim = Simulator::new(cfg, hot_loop_program());
        let r = sim.run();
        assert!(
            r.hottest_block().unwrap().max_temp > 150.0,
            "runaway must diverge, got {:.1}",
            r.hottest_block().unwrap().max_temp
        );
    }

    #[test]
    fn warm_start_skips_the_cold_ramp() {
        let mut cfg = quick(PolicyKind::None);
        cfg.warm_start = true;
        cfg.thermal_warmup_cycles = 2_000;
        let mut sim = Simulator::new(cfg.clone(), hot_loop_program());
        let warm = sim.run();
        let mut cold_cfg = cfg;
        cold_cfg.warm_start = false;
        let mut sim2 = Simulator::new(cold_cfg, hot_loop_program());
        let cold = sim2.run();
        assert!(
            warm.blocks[5].avg_temp >= cold.blocks[5].avg_temp - 1e-9,
            "warm start should not read cooler than a cold start over a short run"
        );
    }
}
