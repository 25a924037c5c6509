//! The cycle loop: core → power → thermal → (every interval) DTM.

use crate::config::SimConfig;
use crate::metrics::{BlockMetrics, RunReport};
use crate::telemetry::{sim_metrics_registry, HIST_FETCH_DUTY, HIST_HOTTEST_TEMP};
use std::collections::VecDeque;
use std::time::Instant;
use tdtm_control::pid::PidSample;
use tdtm_dtm::{build_policy_at, DtmCommand, DtmPolicy, SensorModel, TriggerMechanism};
use tdtm_isa::Program;
use tdtm_power::PowerModel;
use tdtm_telemetry::{
    ControllerSample, Event, EventTrace, Phase, PhaseProfile, Telemetry, TelemetryConfig,
    ThresholdKind,
};
use tdtm_thermal::boxcar::BoxcarProxy;
use tdtm_thermal::comparison::AgreementCounts;
use tdtm_thermal::BlockModel;
use tdtm_uarch::{Core, CoreControl, IdleKind};
use tdtm_workloads::Workload;

pub(crate) const NUM_THERMAL: usize = 7;

/// Minimum idle-window length (cycles) worth fast-forwarding: shorter
/// windows are cheaper to just execute than to probe, fold, and
/// book-keep.
pub(crate) const MIN_SKIP_WINDOW: u64 = 4;

/// Whether the fast loops fast-forward across provably-idle windows:
/// on unless the `TDTM_SKIP` environment variable is `0` or `off`.
pub(crate) fn skip_default() -> bool {
    !matches!(
        std::env::var("TDTM_SKIP").ok().as_deref().map(str::trim),
        Some("0") | Some("off")
    )
}

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
    /// thermal rule (avg power × R + heatsink vs. threshold).
    PerStructure { boxcars: Vec<BoxcarProxy> },
    /// One boxcar over total chip power with a watts threshold.
    ChipWide {
        boxcar: BoxcarProxy,
        threshold_w: f64,
    },
}

/// A full simulation of one program under one configuration.
pub struct Simulator {
    cfg: SimConfig,
    core: Core,
    power: std::sync::Arc<PowerModel>,
    thermal: BlockModel,
    policy: Box<dyn DtmPolicy>,
    sensors: SensorModel,
    proxies: Vec<ProxyAttachment>,
    name: String,
    /// Commands awaiting their (interrupt-delayed) application cycle.
    pending: VecDeque<(u64, DtmCommand)>,
    /// Remaining stall cycles from a V/f resynchronization.
    resync_remaining: u64,
    /// Current V/f power scale (1.0 at nominal).
    vf_power_scale: f64,
    /// Current frequency scale (1.0 at nominal).
    vf_freq_scale: f64,
    vf_engaged: bool,
    /// Per-run duty trace (sampled), for diagnostics.
    duty_history: Vec<f64>,
    /// Optional downsampled trace recording.
    trace: Option<Trace>,
    /// Optional power-trace recording (stride-mean block powers).
    power_trace: Option<PowerTraceRecorder>,
    /// Telemetry to collect on the next [`run`](Simulator::run); boxed so
    /// the disabled path pays one pointer test per use site.
    telemetry: Option<Box<TelemetryState>>,
    /// Collected telemetry of the last run.
    collected: Option<Telemetry>,
    /// Forces the instrumented reference loop even when a run qualifies
    /// for the specialized fast loop (validation knob; see
    /// [`set_reference_loop`](Simulator::set_reference_loop)).
    reference_loop: bool,
    /// Fast-forwards the fast loop across provably-idle windows (see
    /// [`set_skip`](Simulator::set_skip); defaults from `TDTM_SKIP`).
    skip: bool,
    /// Records one [`SkipWindow`] per fast-forwarded window when enabled
    /// (off by default so long runs don't grow a log nobody reads).
    log_skip_windows: bool,
    /// The skip-window log of the last run (when enabled).
    skip_windows: Vec<SkipWindow>,
}

/// In-flight telemetry collection: the collectors plus the cheap local
/// accumulators and edge-detection state the run loop updates, flushed
/// into the registry when the run ends.
///
/// Crate-visible so [`MulticoreSim`](crate::multicore::MulticoreSim) can
/// keep one per core — every event it records is tagged with `core_id`
/// (0 on the single-core path).
pub(crate) struct TelemetryState {
    events: Option<EventTrace>,
    registry: Option<tdtm_telemetry::MetricsRegistry>,
    /// Cached histogram indices for the hot per-cycle/per-sample records.
    temp_idx: usize,
    duty_idx: usize,
    phases: bool,
    /// The core every event is tagged with.
    core_id: usize,
    /// Per-block "currently above emergency" for entry/exit edges.
    emerg: [bool; NUM_THERMAL],
    /// Per-block "currently above stress".
    stress: [bool; NUM_THERMAL],
    /// Plain local counters (flushed to the registry at run end — the run
    /// loop is single-threaded, so per-event atomics would be overhead).
    duty_changes: u64,
    emergency_entries: u64,
    stress_entries: u64,
    sensor_reads: u64,
    pub(crate) thermal_steps: u64,
    supervisor_caps: u64,
    park_transitions: u64,
    /// Host-time accumulators for the non-pipeline phases.
    power_nanos: u64,
    power_calls: u64,
    thermal_nanos: u64,
    thermal_calls: u64,
    controller_nanos: u64,
    controller_calls: u64,
}

impl TelemetryState {
    fn new(cfg: &TelemetryConfig) -> TelemetryState {
        TelemetryState::with_core(cfg, 0)
    }

    /// A collector whose events are tagged with `core_id`.
    pub(crate) fn with_core(cfg: &TelemetryConfig, core_id: usize) -> TelemetryState {
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
            emerg: [false; NUM_THERMAL],
            stress: [false; NUM_THERMAL],
            duty_changes: 0,
            emergency_entries: 0,
            stress_entries: 0,
            sensor_reads: 0,
            thermal_steps: 0,
            supervisor_caps: 0,
            park_transitions: 0,
            power_nanos: 0,
            power_calls: 0,
            thermal_nanos: 0,
            thermal_calls: 0,
            controller_nanos: 0,
            controller_calls: 0,
        }
    }

    /// Per-cycle threshold edge detection and temperature histogram.
    ///
    /// `hottest` is the per-cycle maximum temperature, computed once by
    /// the run loop and passed through (this method used to refold it
    /// from `temps`, duplicating the loop's scan).
    pub(crate) fn observe_cycle(
        &mut self,
        cycle: u64,
        temps: &[f64],
        hottest: f64,
        emergency: f64,
        stress: f64,
    ) {
        for (block, &t) in temps.iter().enumerate() {
            let e_now = t > emergency;
            if e_now != self.emerg[block] {
                self.emerg[block] = e_now;
                if e_now {
                    self.emergency_entries += 1;
                }
                if let Some(trace) = &mut self.events {
                    trace.record(Event::ThermalEdge {
                        cycle,
                        core: self.core_id,
                        block,
                        threshold: ThresholdKind::Emergency,
                        entered: e_now,
                    });
                }
            }
            let s_now = t > stress;
            if s_now != self.stress[block] {
                self.stress[block] = s_now;
                if s_now {
                    self.stress_entries += 1;
                }
                if let Some(trace) = &mut self.events {
                    trace.record(Event::ThermalEdge {
                        cycle,
                        core: self.core_id,
                        block,
                        threshold: ThresholdKind::Stress,
                        entered: s_now,
                    });
                }
            }
        }
        if let Some(reg) = &self.registry {
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

    /// Counts a supervisor duty cap imposed on this core (the event
    /// itself goes to the chip-level ring, owned by `MulticoreSim`).
    pub(crate) fn bump_supervisor_cap(&mut self) {
        self.supervisor_caps += 1;
    }

    /// Counts a park/unpark transition of this core (the event itself
    /// goes to the chip-level ring).
    pub(crate) fn bump_park(&mut self) {
        self.park_transitions += 1;
    }

    /// Converts the in-flight state into the final [`Telemetry`]: flushes
    /// the local counters into the registry and assembles the phase
    /// profile from the core's stage timers and the loop's accumulators.
    pub(crate) fn flush(
        self,
        core: &Core,
        cycles: u64,
        samples: u64,
        stage_nanos_start: [u64; 6],
        core_cycles_start: u64,
    ) -> Telemetry {
        if let Some(reg) = &self.registry {
            reg.counter("cycles").add(cycles);
            reg.counter("thermal_steps").add(self.thermal_steps);
            reg.counter("dtm_samples").add(samples);
            reg.counter("duty_changes").add(self.duty_changes);
            reg.counter("emergency_entries").add(self.emergency_entries);
            reg.counter("stress_entries").add(self.stress_entries);
            reg.counter("sensor_reads").add(self.sensor_reads);
            reg.counter("supervisor_caps").add(self.supervisor_caps);
            reg.counter("core_parks").add(self.park_transitions);
            if let Some(trace) = &self.events {
                reg.counter("events_recorded").add(trace.recorded());
                reg.counter("events_dropped").add(trace.dropped());
            }
        }
        let phases = self.phases.then(|| {
            let mut profile = PhaseProfile::new();
            let stage = core.stage_nanos();
            let core_cycles = core.stats().cycles - core_cycles_start;
            const STAGES: [Phase; 6] = [
                Phase::Commit,
                Phase::Writeback,
                Phase::Issue,
                Phase::Dispatch,
                Phase::Decode,
                Phase::Fetch,
            ];
            for (i, phase) in STAGES.into_iter().enumerate() {
                profile.add(phase, stage[i] - stage_nanos_start[i], core_cycles);
            }
            profile.add(Phase::Power, self.power_nanos, self.power_calls);
            profile.add(Phase::ThermalStep, self.thermal_nanos, self.thermal_calls);
            profile.add(
                Phase::Controller,
                self.controller_nanos,
                self.controller_calls,
            );
            profile
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
    fn new(stride: u64) -> Trace {
        Trace {
            stride,
            cycles: Vec::new(),
            temperatures: Vec::new(),
            power: Vec::new(),
            duty: Vec::new(),
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

    /// The maximum temperature of block `i` across the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `i` out of range.
    pub fn max_temperature(&self, i: usize) -> f64 {
        self.temperatures
            .iter()
            .map(|t| t[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The once-per-run classification of everything the cycle loop would
/// otherwise have to test per cycle: which instrumentation is attached,
/// which optional physics are enabled, and whether DTM commands apply
/// directly. [`Simulator::run`] resolves a plan once, then dispatches to
/// a loop specialized for it.
#[derive(Clone, Copy, Debug)]
struct RunPlan {
    /// Telemetry collection is attached (events, metrics, or phases).
    telemetry: bool,
    /// Host-time phase profiling is on (times the power / thermal /
    /// controller sections with `Instant`; implies `telemetry`).
    phases: bool,
    /// Temperature proxies are attached (Tables 9/10 bookkeeping).
    proxies: bool,
    /// Downsampled trace recording is on.
    trace: bool,
    /// Power-trace recording is on.
    power_trace: bool,
    /// Temperature-dependent leakage feedback is enabled.
    leakage: bool,
    /// The run starts with a warm-start window (first sampling interval).
    warm_start: bool,
    /// DTM commands are interrupt-delayed — or a delayed command is still
    /// queued from a previous run — so the pending queue must be polled.
    interrupt: bool,
}

impl RunPlan {
    fn classify(sim: &Simulator) -> RunPlan {
        RunPlan {
            telemetry: sim.telemetry.is_some(),
            phases: sim.telemetry.as_deref().is_some_and(|ts| ts.phases),
            proxies: !sim.proxies.is_empty(),
            trace: sim.trace.is_some(),
            power_trace: sim.power_trace.is_some(),
            leakage: sim.cfg.leakage.is_some(),
            warm_start: sim.cfg.warm_start,
            interrupt: !matches!(sim.cfg.dtm.mechanism, TriggerMechanism::Direct)
                || !sim.pending.is_empty(),
        }
    }

    /// Whether the specialized uninstrumented loop applies: no observer
    /// is attached and commands apply directly, so nothing can observe or
    /// perturb the simulation between consecutive DTM-sample boundaries.
    fn fast(&self) -> bool {
        !(self.telemetry || self.proxies || self.trace || self.power_trace || self.interrupt)
    }
}

/// Post-warmup accumulators shared by the fast and reference loops — and
/// by the multicore simulator, which keeps one per core. The report is
/// assembled from this struct alone ([`finalize_report`]), so every loop
/// finalizes through one code path and a given simulation yields
/// byte-identical reports whichever loop ran it.
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
            cycle: 0,
            counted_cycles: 0,
            committed_at_count_start: 0,
            wall_time: 0.0,
            sum_power: 0.0,
            max_power: 0.0,
            emergency_cycles: 0,
            stress_cycles: 0,
            block_sum_t: [0.0; NUM_THERMAL],
            block_max_t: [f64::NEG_INFINITY; NUM_THERMAL],
            block_emerg: [0; NUM_THERMAL],
            block_stress: [0; NUM_THERMAL],
            block_sum_p: [0.0; NUM_THERMAL],
            block_max_p: [0.0; NUM_THERMAL],
            samples: 0,
        }
    }

    /// Folds one counted cycle into the accumulators. The arithmetic and
    /// its order are shared verbatim by both loops — that sharing is what
    /// makes their reports byte-identical.
    #[inline(always)]
    pub(crate) fn record_cycle(
        &mut self,
        temps: &[f64; NUM_THERMAL],
        thermal_powers: &[f64; NUM_THERMAL],
        total_power: f64,
        dt_wall: f64,
        emergency: f64,
        stress: f64,
    ) {
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

/// The warm-start jump applied at the end of the first sampling interval:
/// every block jumps to the steady state of its observed average power,
/// capped at the policy's control ceiling (under DTM the machine could
/// never have reached a temperature the policy would have prevented — the
/// setpoint for control-theoretic policies, the trigger for the threshold
/// policies). Shared by both single-core run loops and, per core, by the
/// multicore simulator.
pub(crate) fn warm_start_jump(
    thermal: &mut BlockModel,
    dtm: &tdtm_dtm::DtmConfig,
    warm_start_power: &mut [f64; NUM_THERMAL],
    interval: u64,
) {
    for p in warm_start_power.iter_mut() {
        *p /= interval as f64;
    }
    thermal.warm_start(&warm_start_power[..]);
    if dtm.policy != tdtm_dtm::PolicyKind::None {
        let ceiling = if dtm.policy.is_control_theoretic() {
            dtm.setpoint
        } else {
            dtm.trigger
        };
        for i in 0..NUM_THERMAL {
            let t = thermal.temperatures()[i];
            if t > ceiling {
                thermal.set_temperature(i, ceiling);
            }
        }
    }
}

/// Assembles a [`RunReport`] from one core's accumulators — the single
/// code path every run loop (fast, reference, and per-core multicore)
/// finalizes through, which is what makes their reports byte-identical.
pub(crate) fn finalize_report(
    name: &str,
    policy: &dyn DtmPolicy,
    params: &[tdtm_thermal::BlockParams],
    stats: &tdtm_uarch::CoreStats,
    bpred_accuracy: f64,
    acc: &RunAccum,
) -> RunReport {
    let committed = stats.committed.saturating_sub(acc.committed_at_count_start);
    let n = acc.counted_cycles.max(1) as f64;
    let blocks = (0..NUM_THERMAL)
        .map(|i| BlockMetrics {
            name: params[i].name.clone(),
            avg_temp: acc.block_sum_t[i] / n,
            max_temp: if acc.block_max_t[i].is_finite() {
                acc.block_max_t[i]
            } else {
                0.0
            },
            emergency_cycles: acc.block_emerg[i],
            stress_cycles: acc.block_stress[i],
            avg_power: acc.block_sum_p[i] / n,
            max_power: acc.block_max_p[i],
        })
        .collect();
    let avg_power = acc.sum_power / n;
    RunReport {
        name: name.to_string(),
        policy: policy.kind().to_string(),
        cycles: acc.counted_cycles,
        total_cycles: acc.cycle,
        committed,
        wall_time: acc.wall_time,
        ipc: committed as f64 / n,
        avg_power,
        max_power: acc.max_power,
        avg_chip_temp: crate::config::table4_chip_temp(avg_power),
        emergency_cycles: acc.emergency_cycles,
        stress_cycles: acc.stress_cycles,
        blocks,
        samples: acc.samples,
        engaged_samples: policy.engaged_samples(),
        recoveries: stats.recoveries,
        bpred_accuracy,
        gated_cycles: stats.gated_cycles,
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
        let core = Core::with_skip_shared(cfg.core, program, skip);
        let power =
            power.unwrap_or_else(|| std::sync::Arc::new(PowerModel::new(&cfg.power, &cfg.core)));
        let thermal = BlockModel::new(cfg.blocks.clone(), cfg.heatsink_temp, cfg.cycle_time());
        let policy = build_policy_at(&cfg.dtm, cfg.core.clock_hz);
        Simulator {
            core,
            power,
            thermal,
            policy,
            sensors: SensorModel::ideal(),
            proxies: Vec::new(),
            name: name.to_string(),
            pending: VecDeque::new(),
            resync_remaining: 0,
            vf_power_scale: 1.0,
            vf_freq_scale: 1.0,
            vf_engaged: false,
            duty_history: Vec::new(),
            trace: None,
            power_trace: None,
            telemetry: None,
            collected: None,
            reference_loop: false,
            skip: skip_default(),
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
            self.core.set_stage_profiling(true);
        }
        self.telemetry = Some(Box::new(TelemetryState::new(cfg)));
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
        self.trace = Some(Trace::new(stride));
    }

    /// The recorded trace, if [`record_trace`](Simulator::record_trace)
    /// was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Enables power-trace recording: stride-mean per-block powers
    /// suitable for open-loop thermal replay (see [`crate::replay`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn record_power_trace(&mut self, stride: u64) {
        assert!(stride > 0, "stride must be nonzero");
        self.power_trace = Some(PowerTraceRecorder {
            stride,
            acc: [0.0; NUM_THERMAL],
            acc_total: 0.0,
            count: 0,
            trace: crate::replay::PowerTrace::new(self.cfg.cycle_time() * stride as f64, stride),
        });
    }

    /// The recorded power trace, if enabled.
    pub fn power_trace(&self) -> Option<&crate::replay::PowerTrace> {
        self.power_trace.as_ref().map(|r| &r.trace)
    }

    /// Replaces the ideal sensors (for the sensor-fidelity ablation).
    pub fn set_sensors(&mut self, sensors: SensorModel) {
        self.sensors = sensors;
    }

    /// Attaches a per-structure boxcar power proxy with the given window,
    /// for the Tables 9/10 comparison.
    pub fn add_structure_proxy(&mut self, window: usize) {
        self.proxies.push(ProxyAttachment {
            label: format!("structure {window}"),
            kind: ProxyKind::PerStructure {
                boxcars: vec![BoxcarProxy::new(window); NUM_THERMAL],
            },
            counts: vec![AgreementCounts::new(); NUM_THERMAL],
        });
    }

    /// Attaches a chip-wide boxcar power proxy triggering at
    /// `threshold_w` watts.
    pub fn add_chipwide_proxy(&mut self, window: usize, threshold_w: f64) {
        self.proxies.push(ProxyAttachment {
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
        &self.proxies
    }

    /// Sampled fetch-duty history (one entry per DTM sample).
    pub fn duty_history(&self) -> &[f64] {
        &self.duty_history
    }

    /// Current block temperatures (for tracing examples).
    pub fn temperatures(&self) -> &[f64] {
        self.thermal.temperatures()
    }

    /// Forces the fully instrumented reference loop even when a run
    /// qualifies for the specialized fast loop. This is a validation
    /// knob: the byte-identity tests run the same simulation through
    /// both loops and compare the reports.
    pub fn set_reference_loop(&mut self, on: bool) {
        self.reference_loop = on;
    }

    /// Enables or disables idle-gap skipping in the fast loop,
    /// overriding the `TDTM_SKIP` default. Skipping never changes the
    /// report: a gated, drained, or resync-stalled window is advanced
    /// with the same per-cycle arithmetic the loop would have executed,
    /// so [`RunReport`]s stay byte-identical either way (pinned by
    /// `tests/hot_loop_identity.rs`).
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
    /// enabled and the fast loop actually skipped).
    pub fn skip_windows(&self) -> &[SkipWindow] {
        &self.skip_windows
    }

    /// Runs to the configured instruction budget and returns the report.
    ///
    /// The loop is specialized once per run (via an internal run plan):
    /// an uninstrumented run — no telemetry, proxies, or traces, and
    /// direct DTM triggering — takes a chunked loop that advances
    /// straight to the next DTM-sample or stop boundary with no
    /// per-cycle `Option` tests; anything instrumented takes the
    /// reference loop. Both loops fold into one accumulator and finalize
    /// through one code path, and their reports are byte-identical
    /// (pinned by tests).
    pub fn run(&mut self) -> RunReport {
        let plan = RunPlan::classify(self);
        let mut acc = RunAccum::new();
        self.skip_windows.clear();
        // Detach the telemetry state from `self` for the duration of the
        // loop so its mutable borrows stay disjoint from the simulator's
        // components; reattached as `collected` at the end.
        let mut tstate = self.telemetry.take();
        let stage_nanos_start = self.core.stage_nanos();
        let core_cycles_start = self.core.stats().cycles;

        if plan.fast() && !self.reference_loop {
            if plan.leakage {
                self.run_fast::<true>(&mut acc, plan);
            } else {
                self.run_fast::<false>(&mut acc, plan);
            }
        } else {
            self.run_reference(&mut acc, plan, &mut tstate);
        }

        if let Some(ts) = tstate {
            self.collected = Some(ts.flush(
                &self.core,
                acc.cycle,
                acc.samples,
                stage_nanos_start,
                core_cycles_start,
            ));
        }
        self.finalize(&acc)
    }

    /// The specialized uninstrumented cycle loop.
    ///
    /// Eligibility ([`RunPlan::fast`]) guarantees nothing observes or
    /// perturbs the simulation between consecutive DTM-sample
    /// boundaries, so the loop runs in chunks that end exactly on the
    /// next boundary and samples once per chunk instead of testing
    /// `(cycle + 1) % interval` every cycle. Leakage is monomorphized
    /// out via `LEAK`, and the power-scale / leakage-add / exact-decay
    /// passes are fused into one sweep over the blocks
    /// ([`BlockModel::step_fused`]) with bit-identical arithmetic.
    ///
    /// Boundary math: DTM samples fire on cycles where
    /// `(cycle + 1) % interval == 0` — the *last* cycle of each
    /// interval-aligned chunk — so from any `cycle` the boundary is
    /// `interval - cycle % interval` cycles ahead, inclusive. Stop
    /// conditions (instruction budget, cycle budget, program halt) can
    /// fire mid-chunk and are still checked every cycle, in exactly the
    /// reference loop's order; a mid-chunk stop skips the boundary
    /// sample just as the reference loop would.
    ///
    /// Idle-gap skipping: when the core proves a k-cycle window idle
    /// ([`Core::idle_window`]: fetch gated shut or the pipeline drained
    /// against a known wake cycle) — or the loop is inside a V/f resync
    /// stall — every cycle in the window draws the same idle power, so
    /// the loop folds the window with a constant-power thermal kernel
    /// ([`BlockModel::step_gap_observed`] /
    /// [`BlockModel::step_gap_fixed`]) and jumps the cycle counter,
    /// never touching the pipeline. The fold iterates the per-cycle
    /// recurrence in the same order with the same bits, and counted
    /// cycles still fold into the accumulator one at a time, so reports
    /// stay byte-identical with the non-skipping loops. Windows are
    /// clipped to the chunk boundary (the boundary's DTM sample always
    /// runs), the cycle budget, and the warmup boundary (so `counting`
    /// is uniform across a fold); no window starts inside the
    /// warm-start window (its per-cycle power accumulation must run) or
    /// under temperature-dependent leakage (power varies with T).
    fn run_fast<const LEAK: bool>(&mut self, acc: &mut RunAccum, plan: RunPlan) {
        let interval = self.cfg.dtm.sample_interval.max(1);
        let emergency = self.cfg.dtm.emergency;
        let stress = emergency - 1.0;
        let nominal_dt = self.cfg.cycle_time();
        let warmup = self.cfg.thermal_warmup_cycles;
        let idle_sample = self.power.cycle_power(&tdtm_uarch::Activity::new());
        let mut sensed = [0.0f64; NUM_THERMAL];
        let mut warm_start_power = [0.0f64; NUM_THERMAL];
        let warm_window = if plan.warm_start { interval } else { 0 };
        let leak = self.cfg.leakage;
        // Peak powers hoisted so the leakage closure does not borrow
        // `self.power` while `self.thermal` is mutably borrowed.
        let peaks: [f64; NUM_THERMAL] =
            std::array::from_fn(|i| self.power.peak(tdtm_uarch::activity::THERMAL_BLOCKS[i]));

        let skip = self.skip && !LEAK;

        'run: loop {
            let mut remaining = interval - acc.cycle % interval;
            while remaining > 0 {
                let counting = acc.cycle >= warmup;
                if counting && acc.counted_cycles == 0 {
                    acc.committed_at_count_start = self.core.stats().committed;
                }
                // Stop conditions.
                if self
                    .core
                    .stats()
                    .committed
                    .saturating_sub(acc.committed_at_count_start)
                    >= self.cfg.max_insts
                    && counting
                {
                    break 'run;
                }
                if acc.cycle >= self.cfg.max_cycles || self.core.finished() {
                    break 'run;
                }

                // Idle-gap fast-forward. Inside a window nothing the
                // stop conditions read can change (the pipeline is
                // untouched, so `committed` and `finished` are frozen;
                // the cycle budget caps the window), so checking them
                // once at entry matches the per-cycle reference order.
                if skip && acc.cycle >= warm_window {
                    let mut cap = remaining.min(self.cfg.max_cycles - acc.cycle);
                    if acc.cycle < warmup {
                        cap = cap.min(warmup - acc.cycle);
                    }
                    let window = if self.resync_remaining > 0 {
                        Some((self.resync_remaining.min(cap), SkipReason::Resync))
                    } else {
                        self.core.idle_window(cap).map(|(len, kind)| {
                            let reason = match kind {
                                IdleKind::Gated => SkipReason::Gated,
                                IdleKind::Drained => SkipReason::Drained,
                            };
                            (len, reason)
                        })
                    };
                    if let Some((k, reason)) = window {
                        if k >= MIN_SKIP_WINDOW {
                            // Every skipped cycle draws the bitwise-same
                            // idle power sample, so pre-scaling once is
                            // exactly the per-cycle `step_scaled` bits.
                            let scale = self.vf_power_scale;
                            let mut gap_powers = idle_sample.thermal_powers();
                            for p in &mut gap_powers {
                                *p *= scale;
                            }
                            let gap_total = idle_sample.total * scale;
                            if counting {
                                let dt_wall = nominal_dt / self.vf_freq_scale;
                                let acc = &mut *acc;
                                self.thermal.step_gap_observed(&gap_powers, k, |temps| {
                                    acc.record_cycle(
                                        temps,
                                        &gap_powers,
                                        gap_total,
                                        dt_wall,
                                        emergency,
                                        stress,
                                    );
                                });
                            } else {
                                self.thermal.step_gap_fixed(&gap_powers, k);
                            }
                            if reason == SkipReason::Resync {
                                self.resync_remaining -= k;
                            } else {
                                self.core.skip_idle(k);
                            }
                            if self.log_skip_windows {
                                self.skip_windows.push(SkipWindow {
                                    start: acc.cycle,
                                    end: acc.cycle + k,
                                    reason,
                                });
                            }
                            acc.cycle += k;
                            remaining -= k;
                            continue;
                        }
                    }
                }

                // One machine cycle (or a resync-stall cycle).
                let sample = if self.resync_remaining > 0 {
                    self.resync_remaining -= 1;
                    idle_sample
                } else {
                    self.power.cycle_power(self.core.cycle())
                };
                let scale = self.vf_power_scale;
                let mut thermal_powers = sample.thermal_powers();
                let mut total_power = sample.total * scale;
                if LEAK {
                    let leak = leak.expect("LEAK implies a leakage model");
                    self.thermal.step_fused(
                        &mut thermal_powers,
                        scale,
                        &mut total_power,
                        // Leakage scales with V (roughly linearly through
                        // V·I_leak); reuse the dynamic scale conservatively.
                        |i, t| leak.leakage_power(peaks[i], t) * scale,
                    );
                } else {
                    self.thermal.step_scaled(&mut thermal_powers, scale);
                }

                if acc.cycle < warm_window {
                    for i in 0..NUM_THERMAL {
                        warm_start_power[i] += thermal_powers[i];
                    }
                    if acc.cycle + 1 == interval {
                        self.apply_warm_start(&mut warm_start_power, interval);
                    }
                }

                if counting {
                    let temps = self.thermal.temperatures_fixed();
                    acc.record_cycle(
                        temps,
                        &thermal_powers,
                        total_power,
                        nominal_dt / self.vf_freq_scale,
                        emergency,
                        stress,
                    );
                }
                acc.cycle += 1;
                remaining -= 1;
            }

            // DTM sample at the chunk boundary: the cycle just executed
            // satisfied `(cycle + 1) % interval == 0` before the
            // increment, and in Direct mode the reference loop applies
            // the command within that same cycle's body with nothing in
            // between, so sampling after the chunk is bit-equivalent.
            let sample_cycle = acc.cycle - 1;
            let temps = self.thermal.temperatures_fixed::<NUM_THERMAL>();
            self.sensors.read_all(&temps[..], &mut sensed);
            let cmd = self.policy.sample(&sensed);
            acc.samples += 1;
            self.duty_history.push(cmd.fetch_duty);
            self.apply(sample_cycle, cmd, &mut None);
        }
    }

    /// The fully instrumented reference cycle loop: telemetry, proxies,
    /// traces, phase timing, and interrupt-delayed DTM all live here.
    #[allow(clippy::too_many_lines)]
    fn run_reference(
        &mut self,
        acc: &mut RunAccum,
        plan: RunPlan,
        tstate: &mut Option<Box<TelemetryState>>,
    ) {
        let interval = self.cfg.dtm.sample_interval.max(1);
        let emergency = self.cfg.dtm.emergency;
        let stress = emergency - 1.0;
        let nominal_dt = self.cfg.cycle_time();
        let warmup = self.cfg.thermal_warmup_cycles;
        let idle_sample = self.power.cycle_power(&tdtm_uarch::Activity::new());
        let mut sensed = [0.0f64; NUM_THERMAL];
        let mut warm_start_power = [0.0f64; NUM_THERMAL];
        let warm_window = if plan.warm_start { interval } else { 0 };
        // Per-block thermal resistances and the heatsink temperature are
        // run constants; hoisted for the proxy bookkeeping (this used to
        // collect a fresh `Vec<f64>` every cycle).
        let proxy_rs: [f64; NUM_THERMAL] = std::array::from_fn(|i| self.thermal.params()[i].r);
        let heatsink = self.thermal.heatsink();

        loop {
            let counting = acc.cycle >= warmup;
            if counting && acc.counted_cycles == 0 {
                acc.committed_at_count_start = self.core.stats().committed;
            }
            // Stop conditions.
            if self
                .core
                .stats()
                .committed
                .saturating_sub(acc.committed_at_count_start)
                >= self.cfg.max_insts
                && counting
            {
                break;
            }
            if acc.cycle >= self.cfg.max_cycles || self.core.finished() {
                break;
            }

            // One machine cycle (or a resync-stall cycle).
            let sample = if self.resync_remaining > 0 {
                self.resync_remaining -= 1;
                idle_sample
            } else {
                let activity = self.core.cycle();
                if plan.phases {
                    let start = Instant::now();
                    let sample = self.power.cycle_power(activity);
                    let ts = tstate.as_deref_mut().expect("phases implies telemetry");
                    ts.power_nanos += start.elapsed().as_nanos() as u64;
                    ts.power_calls += 1;
                    sample
                } else {
                    self.power.cycle_power(activity)
                }
            };
            let scale = self.vf_power_scale;
            let mut thermal_powers = sample.thermal_powers();
            for p in &mut thermal_powers {
                *p *= scale;
            }
            let mut total_power = sample.total * scale;
            // Optional temperature-dependent leakage (extension): leakage
            // at the block's *current* temperature adds to the power that
            // heats it this cycle — the feedback loop.
            if let Some(leak) = self.cfg.leakage {
                let temps_now = self.thermal.temperatures();
                for (i, b) in tdtm_uarch::activity::THERMAL_BLOCKS.iter().enumerate() {
                    // Leakage scales with V (roughly linearly through
                    // V·I_leak); reuse the dynamic scale conservatively.
                    let lp = leak.leakage_power(self.power.peak(*b), temps_now[i]) * scale;
                    thermal_powers[i] += lp;
                    total_power += lp;
                }
            }
            if plan.phases {
                let start = Instant::now();
                self.thermal.step(&thermal_powers);
                let ts = tstate.as_deref_mut().expect("phases implies telemetry");
                ts.thermal_nanos += start.elapsed().as_nanos() as u64;
                ts.thermal_calls += 1;
                ts.thermal_steps += 1;
            } else {
                self.thermal.step(&thermal_powers);
                if let Some(ts) = tstate.as_deref_mut() {
                    ts.thermal_steps += 1;
                }
            }

            // Warm start: after the first sampling interval, jump blocks
            // to the steady state of the observed average power.
            if acc.cycle < warm_window {
                for i in 0..NUM_THERMAL {
                    warm_start_power[i] += thermal_powers[i];
                }
                if acc.cycle + 1 == interval {
                    self.apply_warm_start(&mut warm_start_power, interval);
                }
            }

            let temps = self.thermal.temperatures();
            if let Some(ts) = tstate.as_deref_mut() {
                // The per-cycle hottest-block fold is computed once here
                // and shared with the histogram record inside
                // `observe_cycle`.
                let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                ts.observe_cycle(acc.cycle, temps, hottest, emergency, stress);
            }
            if counting {
                let temps: &[f64; NUM_THERMAL] = temps.try_into().expect("seven thermal blocks");
                acc.record_cycle(
                    temps,
                    &thermal_powers,
                    total_power,
                    nominal_dt / self.vf_freq_scale,
                    emergency,
                    stress,
                );
            }

            // Proxy bookkeeping (Tables 9/10).
            if !self.proxies.is_empty() {
                for proxy in &mut self.proxies {
                    match &mut proxy.kind {
                        ProxyKind::PerStructure { boxcars } => {
                            for i in 0..NUM_THERMAL {
                                boxcars[i].push(thermal_powers[i]);
                                if counting {
                                    let proxy_hot = boxcars[i].triggered_thermal(
                                        proxy_rs[i],
                                        heatsink,
                                        emergency,
                                    );
                                    proxy.counts[i].record(temps[i] > emergency, proxy_hot);
                                }
                            }
                        }
                        ProxyKind::ChipWide {
                            boxcar,
                            threshold_w,
                        } => {
                            boxcar.push(total_power);
                            if counting {
                                let reference_hot = temps.iter().any(|&t| t > emergency);
                                proxy.counts[0]
                                    .record(reference_hot, boxcar.triggered(*threshold_w));
                            }
                        }
                    }
                }
            }

            // Power-trace recording.
            if let Some(rec) = &mut self.power_trace {
                for (acc, &p) in rec.acc.iter_mut().zip(&thermal_powers) {
                    *acc += p;
                }
                rec.acc_total += total_power;
                rec.count += 1;
                if rec.count == rec.stride {
                    let mean = rec.acc.map(|a| a / rec.stride as f64);
                    rec.trace.push(mean, rec.acc_total / rec.stride as f64);
                    rec.acc = [0.0; NUM_THERMAL];
                    rec.acc_total = 0.0;
                    rec.count = 0;
                }
            }

            // Trace recording. Note the stride asymmetry with DTM
            // sampling below: a trace sample fires at the *start* of each
            // stride (`cycle % stride == 0`, so the first is cycle 0),
            // while a DTM sample fires at the *end* of each interval
            // (`(cycle + 1) % interval == 0`, so the first is cycle
            // interval − 1). Pinned by tests.
            if let Some(trace) = &mut self.trace {
                if acc.cycle.is_multiple_of(trace.stride) {
                    let mut temps_arr = [0.0; NUM_THERMAL];
                    temps_arr.copy_from_slice(temps);
                    trace.cycles.push(acc.cycle);
                    trace.temperatures.push(temps_arr);
                    trace.power.push(total_power);
                    trace.duty.push(self.core.control().fetch_duty);
                }
            }

            // DTM sampling.
            if (acc.cycle + 1).is_multiple_of(interval) {
                let dtm_start = plan.phases.then(Instant::now);
                self.sensors.read_all(temps, &mut sensed);
                let cmd = match tstate.as_deref_mut() {
                    Some(ts) => {
                        // The observed and unobserved policy paths execute
                        // identical code (`sample` delegates to
                        // `sample_observed`), so the command is bit-equal
                        // either way; only the observer's bookkeeping
                        // differs. Dense per-sample events honor the
                        // trace stride; edge events never go through here.
                        let due = ts.sample_due(acc.samples);
                        if due {
                            ts.record_sensor_reads(acc.cycle, &sensed);
                        }
                        let cycle = acc.cycle;
                        let cmd = self.policy.sample_observed(&sensed, &mut |block, s| {
                            if due {
                                ts.record_controller(cycle, block, &s);
                            }
                        });
                        ts.record_duty_hist(cmd.fetch_duty);
                        cmd
                    }
                    None => self.policy.sample(&sensed),
                };
                acc.samples += 1;
                self.duty_history.push(cmd.fetch_duty);
                match self.cfg.dtm.mechanism {
                    TriggerMechanism::Direct => self.apply(acc.cycle, cmd, tstate),
                    TriggerMechanism::Interrupt { latency_cycles } => {
                        self.pending.push_back((acc.cycle + latency_cycles, cmd));
                    }
                }
                if let Some(start) = dtm_start {
                    let ts = tstate.as_deref_mut().expect("timed block implies state");
                    ts.controller_nanos += start.elapsed().as_nanos() as u64;
                    ts.controller_calls += 1;
                }
            }
            while self.pending.front().is_some_and(|&(at, _)| at <= acc.cycle) {
                let (_, cmd) = self.pending.pop_front().expect("checked");
                self.apply(acc.cycle, cmd, tstate);
            }

            acc.cycle += 1;
        }
    }

    /// Applies the warm-start jump at the end of the first sampling
    /// interval. Shared by both run loops.
    fn apply_warm_start(&mut self, warm_start_power: &mut [f64; NUM_THERMAL], interval: u64) {
        warm_start_jump(&mut self.thermal, &self.cfg.dtm, warm_start_power, interval);
    }

    /// Assembles the run report from the accumulators — one code path
    /// shared by both loops.
    fn finalize(&mut self, acc: &RunAccum) -> RunReport {
        finalize_report(
            &self.name,
            self.policy.as_ref(),
            self.thermal.params(),
            self.core.stats(),
            self.core.bpred().accuracy(),
            acc,
        )
    }

    fn apply(&mut self, cycle: u64, cmd: DtmCommand, tstate: &mut Option<Box<TelemetryState>>) {
        if let Some(ts) = tstate.as_deref_mut() {
            let from = self.core.control().fetch_duty;
            if cmd.fetch_duty != from {
                ts.record_duty_change(cycle, from, cmd.fetch_duty);
            }
        }
        self.core.set_control(CoreControl {
            fetch_duty: cmd.fetch_duty,
            fetch_width_limit: cmd.fetch_width_limit,
            max_unresolved_branches: cmd.max_unresolved_branches,
        });
        match (cmd.vf, self.vf_engaged) {
            (Some(vf), false) => {
                self.vf_engaged = true;
                self.vf_power_scale = vf.power_scale();
                self.vf_freq_scale = vf.freq_scale;
                self.thermal.set_dt(self.cfg.cycle_time() / vf.freq_scale);
                self.resync_remaining = self.cfg.dtm.vf_resync_cycles;
            }
            (None, true) => {
                self.vf_engaged = false;
                self.vf_power_scale = 1.0;
                self.vf_freq_scale = 1.0;
                self.thermal.set_dt(self.cfg.cycle_time());
                self.resync_remaining = self.cfg.dtm.vf_resync_cycles;
            }
            _ => {}
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
