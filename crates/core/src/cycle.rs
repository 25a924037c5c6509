//! The one production cycle loop of the simulator front end
//! [`Machine`]: core → power → thermal step → (every sampling interval)
//! DTM, for N cores in lockstep over one thermal die.
//!
//! The loop is generic over the die ([`Die`]: a plain [`BlockModel`] on
//! the single-core face [`Simulator`], the coupled [`CoupledChip`] on the
//! chip face [`MulticoreSim`]) and over an [`Observer`]. The zero-sized
//! [`NoObserver`] compiles every hook away, so an unobserved run pays
//! nothing for observation; telemetry, proxies and traces are one
//! observer, not a second loop body. A single-core run is the N = 1
//! case: one [`CoreSlot`], no supervisor.
//!
//! The loop runs in chunks that end on the next DTM-sample boundary (or
//! on the cycle an interrupt-delayed command applies), so boundaries are
//! handled once per chunk instead of tested every cycle. DTM samples fire
//! on cycles where `(cycle + 1) % interval == 0` — the last cycle of each
//! interval-aligned chunk. Stop conditions are still checked every cycle;
//! a mid-chunk stop skips the boundary sample. The loop reads no host
//! clock: the only host-time observation is the pipeline's own stage
//! timers.
//!
//! Idle-gap skipping: when every active core is provably idle for k
//! cycles — V/f-resync stalled, fetch gated shut, or drained against a
//! known wake cycle; parked cores are idle by definition — every core
//! draws the bitwise-same idle power each cycle, so the loop stages those
//! powers once, advances the pipelines wholesale, and folds the k cycles
//! with the die's gap step. Counted cycles and observer hooks still see
//! every cycle of the gap, so reports and observations are byte-identical
//! with the non-skipping loop.
//!
//! [`Simulator`]: crate::Simulator
//! [`MulticoreSim`]: crate::MulticoreSim

use crate::config::SimConfig;
use crate::metrics::{BlockMetrics, RunReport};
use crate::replay::NUM_THERMAL;
use crate::simulator::{Machine, RunAccum, SkipReason, SkipWindow, MIN_SKIP_WINDOW};
use crate::telemetry::TelemetryState;
use std::collections::VecDeque;
use std::sync::Arc;
use tdtm_dtm::{
    build_policy_at, ChipSupervisor, DtmCommand, DtmConfig, DtmPolicy, SensorModel,
    TriggerMechanism,
};
use tdtm_isa::Program;
use tdtm_power::{LeakageModel, PowerModel, PowerSample};
use tdtm_thermal::{BlockModel, BlockParams, CoupledChip, MulticoreFloorplan};
use tdtm_uarch::activity::THERMAL_BLOCKS;
use tdtm_uarch::{Activity, Core, CoreControl, IdleKind};

/// One core's machine state: pipeline, policy, actuators, accumulators.
pub(crate) struct CoreSlot {
    pub(crate) core: Core,
    pub(crate) policy: Box<dyn DtmPolicy>,
    pub(crate) sensors: SensorModel,
    /// This core's DTM configuration (the chip configuration with the
    /// policy swapped for neighbor cores).
    dtm: DtmConfig,
    name: String,
    /// Commands awaiting their interrupt-delayed application cycle.
    pub(crate) pending: VecDeque<(u64, DtmCommand)>,
    /// Remaining stall cycles from a V/f resynchronization.
    pub(crate) resync_remaining: u64,
    /// Current V/f power scale (1.0 at nominal).
    vf_power_scale: f64,
    /// Wall-clock seconds per cycle at the current V/f point (also the
    /// thermal step).
    pub(crate) dt_wall: f64,
    vf_engaged: bool,
    /// Sampled fetch-duty history (one entry per DTM sample).
    pub(crate) duty_history: Vec<f64>,
    pub(crate) acc: RunAccum,
    pub(crate) warm_start_power: [f64; NUM_THERMAL],
    /// The core hit its stop condition: it no longer cycles, steps,
    /// counts or samples.
    pub(crate) parked: bool,
}

impl CoreSlot {
    pub(crate) fn new(
        cfg: &SimConfig,
        dtm: DtmConfig,
        program: Arc<Program>,
        skip: u64,
        name: String,
    ) -> CoreSlot {
        CoreSlot {
            core: Core::with_skip_shared(cfg.core, program, skip),
            policy: build_policy_at(&dtm, cfg.core.clock_hz),
            sensors: SensorModel::ideal(),
            dtm,
            name,
            pending: VecDeque::new(),
            resync_remaining: 0,
            vf_power_scale: 1.0,
            dt_wall: cfg.cycle_time(),
            vf_engaged: false,
            duty_history: Vec::new(),
            acc: RunAccum::new(),
            warm_start_power: [0.0; NUM_THERMAL],
            parked: false,
        }
    }

    /// Opens one cycle: latches the committed count when counting starts
    /// and returns whether the cycle counts, or `None` once the core has
    /// hit its stop condition (instruction budget, cycle budget, or
    /// program halt).
    pub(crate) fn begin_cycle(&mut self, cfg: &SimConfig) -> Option<bool> {
        let counting = self.acc.cycle >= cfg.thermal_warmup_cycles;
        if counting && self.acc.counted_cycles == 0 {
            self.acc.committed_at_count_start = self.core.stats().committed;
        }
        let committed = self
            .core
            .stats()
            .committed
            .saturating_sub(self.acc.committed_at_count_start);
        let stop = (counting && committed >= cfg.max_insts)
            || self.acc.cycle >= cfg.max_cycles
            || self.core.finished();
        (!stop).then_some(counting)
    }

    /// Stages this cycle's effective block powers into `out` and returns
    /// the total: `sample` scaled by the V/f power scale, plus (with
    /// `leak`: the model and [`leakage_peaks`]) leakage at the blocks'
    /// pre-step temperatures `temps`, accumulated in block order.
    pub(crate) fn stage(
        &self,
        sample: &PowerSample,
        leak: Option<&(LeakageModel, [f64; NUM_THERMAL])>,
        temps: &[f64; NUM_THERMAL],
        out: &mut [f64; NUM_THERMAL],
    ) -> f64 {
        let scale = self.vf_power_scale;
        let powers = sample.thermal_powers();
        let mut total = sample.total * scale;
        for i in 0..NUM_THERMAL {
            out[i] = powers[i] * scale;
        }
        if let Some((leak, peaks)) = leak {
            for i in 0..NUM_THERMAL {
                // Leakage scales with V (roughly linearly through
                // V·I_leak); reuse the dynamic scale conservatively.
                let lp = leak.leakage_power(peaks[i], temps[i]) * scale;
                out[i] += lp;
                total += lp;
            }
        }
        total
    }

    /// Closes one cycle of core `k`: hands it to the observer, folds it
    /// into the accumulators when counting, and advances the core's
    /// cycle.
    #[inline(always)]
    fn close_cycle<O: Observer>(
        &mut self,
        k: usize,
        obs: &mut O,
        cfg: &SimConfig,
        temps: &[f64; NUM_THERMAL],
        powers: &[f64; NUM_THERMAL],
        total: f64,
    ) {
        let emergency = cfg.dtm.emergency;
        let counting = self.acc.cycle >= cfg.thermal_warmup_cycles;
        obs.cycle(
            k,
            &CycleView {
                cycle: self.acc.cycle,
                temps,
                powers,
                total,
                counting,
                duty: self.core.control().fetch_duty,
                emergency,
            },
        );
        if counting {
            self.acc
                .record_cycle(temps, powers, total, self.dt_wall, emergency);
        }
        self.acc.cycle += 1;
    }

    /// Applies a DTM command on `cycle` — fetch toggling, width and
    /// speculation limits, and the V/f switch, which retimes `model` and
    /// starts a resynchronization stall. An attached telemetry collector
    /// records the duty change.
    pub(crate) fn apply(
        &mut self,
        model: &mut BlockModel,
        cmd: DtmCommand,
        cycle_time: f64,
        cycle: u64,
        telemetry: Option<&mut TelemetryState>,
    ) {
        let from = self.core.control().fetch_duty;
        if let Some(ts) = telemetry.filter(|_| cmd.fetch_duty != from) {
            ts.record_duty_change(cycle, from, cmd.fetch_duty);
        }
        self.core.set_control(CoreControl {
            fetch_duty: cmd.fetch_duty,
            fetch_width_limit: cmd.fetch_width_limit,
            max_unresolved_branches: cmd.max_unresolved_branches,
        });
        let (power_scale, freq_scale) = match (cmd.vf, self.vf_engaged) {
            (Some(vf), false) => (vf.power_scale(), vf.freq_scale),
            (None, true) => (1.0, 1.0),
            _ => return,
        };
        self.vf_engaged = cmd.vf.is_some();
        self.vf_power_scale = power_scale;
        self.dt_wall = cycle_time / freq_scale;
        model.set_dt(self.dt_wall);
        self.resync_remaining = self.dtm.vf_resync_cycles;
    }

    /// The warm start, over the first sampling interval when enabled:
    /// accumulates each cycle's block powers, and on the interval's last
    /// cycle jumps every block of `model` to the steady state of its
    /// average power, capped at the policy's control ceiling (under DTM
    /// the machine could never have reached a temperature the policy would
    /// have prevented — the setpoint for control-theoretic policies, the
    /// trigger for the threshold policies).
    pub(crate) fn warm_up(
        &mut self,
        model: &mut BlockModel,
        powers: &[f64; NUM_THERMAL],
        cfg: &SimConfig,
    ) {
        let interval = cfg.dtm.sample_interval.max(1);
        if !cfg.warm_start || self.acc.cycle >= interval {
            return;
        }
        for (acc, p) in self.warm_start_power.iter_mut().zip(powers) {
            *acc += p;
        }
        if self.acc.cycle + 1 < interval {
            return;
        }
        for p in &mut self.warm_start_power {
            *p /= interval as f64;
        }
        model.warm_start(&self.warm_start_power);
        if self.dtm.policy != tdtm_dtm::PolicyKind::None {
            let ceiling = if self.dtm.policy.is_control_theoretic() {
                self.dtm.setpoint
            } else {
                self.dtm.trigger
            };
            for i in 0..NUM_THERMAL {
                if model.temperatures()[i] > ceiling {
                    model.set_temperature(i, ceiling);
                }
            }
        }
    }

    /// This core's report, assembled from its accumulators alone over the
    /// block parameters of its die — the one code path every loop
    /// finalizes through, which is what makes their reports
    /// byte-identical.
    pub(crate) fn report(&self, params: &[BlockParams]) -> RunReport {
        let (acc, stats) = (&self.acc, self.core.stats());
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
            name: self.name.clone(),
            policy: self.policy.kind().to_string(),
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
            engaged_samples: self.policy.engaged_samples(),
            recoveries: stats.recoveries,
            bpred_accuracy: self.core.bpred().accuracy(),
            gated_cycles: stats.gated_cycles,
        }
    }
}

/// Per-block peak dynamic power, the leakage model's reference scale.
pub(crate) fn leakage_peaks(power: &PowerModel) -> [f64; NUM_THERMAL] {
    std::array::from_fn(|i| power.peak(THERMAL_BLOCKS[i]))
}

/// The thermal die a [`Machine`] steps: a plain [`BlockModel`] under one
/// core ([`Simulator`](crate::Simulator)) or the [`CoupledChip`] under N
/// ([`MulticoreSim`](crate::MulticoreSim)). Sealed: those two are its
/// only implementations.
pub trait Die: sealed::DieOps {}

impl Die for BlockModel {}
impl Die for CoupledChip {}

pub(crate) mod sealed {
    use super::*;

    /// What the front end and the cycle loop need of a die.
    pub trait DieOps: Sized {
        /// The die `cfg` describes, with its chip-level supervisor.
        fn build(cfg: &SimConfig) -> (Self, Option<ChipSupervisor>);
        /// Number of cores on the die.
        fn cores(&self) -> usize;
        /// Whether any inter-core coupling edges are present.
        fn coupled(&self) -> bool;
        /// Core `k`'s block model.
        fn model(&self, k: usize) -> &BlockModel;
        /// Core `k`'s block model (warm start, V/f retiming).
        fn model_mut(&mut self, k: usize) -> &mut BlockModel;
        /// Core `k`'s block temperatures.
        fn temps(&self, k: usize) -> &[f64; NUM_THERMAL] {
            self.model(k).temperatures_fixed()
        }
        /// One step of every active core under its staged powers.
        fn step(&mut self, powers: &[[f64; NUM_THERMAL]], active: &[bool]);
        /// `cycles` steps under constant staged powers: the idle-gap fold.
        /// With `observed`, calls `observe(k, temps)` for every active core
        /// after every step.
        fn step_gap(
            &mut self,
            powers: &[[f64; NUM_THERMAL]],
            active: &[bool],
            cycles: u64,
            observed: bool,
            observe: impl FnMut(usize, &[f64; NUM_THERMAL]),
        );
    }

    /// One core; the single-core face ignores `cfg.chip`.
    impl DieOps for BlockModel {
        fn build(cfg: &SimConfig) -> (Self, Option<ChipSupervisor>) {
            let model = BlockModel::new(cfg.blocks.clone(), cfg.heatsink_temp, cfg.cycle_time());
            (model, None)
        }

        fn cores(&self) -> usize {
            1
        }

        fn coupled(&self) -> bool {
            false
        }

        fn model(&self, _k: usize) -> &BlockModel {
            self
        }

        fn model_mut(&mut self, _k: usize) -> &mut BlockModel {
            self
        }

        fn step(&mut self, powers: &[[f64; NUM_THERMAL]], _active: &[bool]) {
            self.step_fixed(&powers[0]);
        }

        /// The exact constant-power fold: the per-cycle recurrence in the
        /// one-step order with the steady states hoisted, bit-identical to
        /// `cycles` single steps.
        fn step_gap(
            &mut self,
            powers: &[[f64; NUM_THERMAL]],
            _active: &[bool],
            cycles: u64,
            observed: bool,
            mut observe: impl FnMut(usize, &[f64; NUM_THERMAL]),
        ) {
            if observed {
                self.step_gap_observed(&powers[0], cycles, |temps| observe(0, temps));
            } else {
                self.step_gap_fixed(&powers[0], cycles);
            }
        }
    }

    /// `cfg.chip.cores` coupled cores under the optional supervisor.
    impl DieOps for CoupledChip {
        /// # Panics
        ///
        /// Panics if `cfg.chip.cores` is zero.
        fn build(cfg: &SimConfig) -> (Self, Option<ChipSupervisor>) {
            let n = cfg.chip.cores;
            assert!(n > 0, "need at least one core");
            let chip = MulticoreFloorplan::with_blocks(n, cfg.blocks.clone())
                .coupling(cfg.chip.coupling)
                .heterogeneity(cfg.chip.heterogeneity)
                .build_chip(cfg.heatsink_temp, cfg.cycle_time());
            (
                chip,
                cfg.chip.supervisor.map(|sc| ChipSupervisor::new(sc, n)),
            )
        }

        fn cores(&self) -> usize {
            self.core_models().len()
        }

        fn coupled(&self) -> bool {
            !self.edges().is_empty()
        }

        fn model(&self, k: usize) -> &BlockModel {
            &self.core_models()[k]
        }

        fn model_mut(&mut self, k: usize) -> &mut BlockModel {
            self.core_mut(k)
        }

        fn step(&mut self, powers: &[[f64; NUM_THERMAL]], active: &[bool]) {
            self.step_masked(powers, active);
        }

        /// Inter-core flows change every cycle, so the coupled gap steps the
        /// chip once per cycle; only the pipelines and the power model are
        /// elided.
        fn step_gap(
            &mut self,
            powers: &[[f64; NUM_THERMAL]],
            active: &[bool],
            cycles: u64,
            observed: bool,
            mut observe: impl FnMut(usize, &[f64; NUM_THERMAL]),
        ) {
            for _ in 0..cycles {
                self.step_masked(powers, active);
                if observed {
                    for k in (0..active.len()).filter(|&k| active[k]) {
                        observe(k, self.temps(k));
                    }
                }
            }
        }
    }
}

/// What an observer sees of one core's cycle: post-step (and post
/// warm-start) temperatures, the effective powers that heated them, and
/// the applied fetch duty.
pub(crate) struct CycleView<'a> {
    pub(crate) cycle: u64,
    pub(crate) temps: &'a [f64; NUM_THERMAL],
    pub(crate) powers: &'a [f64; NUM_THERMAL],
    pub(crate) total: f64,
    /// Whether the cycle is past the thermal warmup (counted).
    pub(crate) counting: bool,
    pub(crate) duty: f64,
    /// The emergency threshold (stress is 1 K below it).
    pub(crate) emergency: f64,
}

/// The cycle loop's observation hooks. Every hook defaults to a no-op,
/// and none feeds back into the simulation, so reports are byte-identical
/// under any observer.
pub(crate) trait Observer {
    /// Whether [`cycle`](Observer::cycle) must see every cycle, which
    /// keeps the per-cycle hook running inside idle-gap folds.
    const PER_CYCLE: bool = true;

    /// Core `k`'s telemetry collector, if one is attached: it records
    /// sensor reads, controller internals, duty commands and changes.
    fn telemetry(&mut self, _k: usize) -> Option<&mut TelemetryState> {
        None
    }

    /// Called after every cycle of every active core.
    fn cycle(&mut self, _k: usize, _view: &CycleView) {}

    /// Core `k` parked on chip cycle `cycle`.
    fn park(&mut self, _k: usize, _cycle: u64) {}

    /// The supervisor capped core `k`'s duty at `cap` on `cycle`, its
    /// hottest sensed block reading `hottest`.
    fn supervisor_cap(&mut self, _cycle: u64, _k: usize, _hottest: f64, _cap: f64) {}
}

/// The zero-sized observer of unobserved runs: every hook compiles away.
pub(crate) struct NoObserver;

impl Observer for NoObserver {
    const PER_CYCLE: bool = false;
}

impl<D: Die> Machine<D> {
    /// Runs every core to its stop condition. Each cycle: (0) every
    /// active core checks its stop conditions and parks on one; (1) every
    /// active core executes one pipeline cycle and stages its scaled
    /// block powers (plus optional leakage from its own pre-step
    /// temperatures); (2) the die steps once; (3) every active core
    /// applies the warm-start jump, is observed, and folds the cycle into
    /// its accumulators. At each sampling boundary every active core
    /// senses and samples its policy; the supervisor (if any) caps the
    /// commands before they apply.
    ///
    /// A parked core stops cycling, stepping and counting; its block
    /// temperatures freeze, still visible to coupled neighbors. The run
    /// ends when every core has parked.
    pub(crate) fn cycle_loop<O: Observer>(&mut self, obs: &mut O) {
        let Machine {
            cfg,
            power,
            die,
            slots,
            supervisor,
            clock,
            skip,
            skip_log: log,
            ..
        } = self;
        let (cfg, power, skip) = (&*cfg, &**power, *skip);
        let interval = cfg.dtm.sample_interval.max(1);
        let nominal_dt = cfg.cycle_time();
        let idle = power.cycle_power(&Activity::new());
        let leak = cfg.leakage.map(|model| (model, leakage_peaks(power)));
        // No gaps under temperature-dependent leakage: an idle core's
        // power then varies with its temperature.
        let skip = skip && leak.is_none();
        let n = slots.len();
        let mut powers = vec![[0.0f64; NUM_THERMAL]; n];
        let mut totals = vec![0.0f64; n];
        let mut active: Vec<bool> = slots.iter().map(|s| !s.parked).collect();
        let mut hottest = vec![f64::NEG_INFINITY; n];
        let mut cmds: Vec<Option<DtmCommand>> = vec![None; n];
        let mut sensed = [0.0f64; NUM_THERMAL];

        'run: loop {
            let mut remaining = slots
                .iter()
                .filter_map(|s| s.pending.front())
                .fold(interval - *clock % interval, |r, &(at, _)| {
                    r.min(at.saturating_sub(*clock) + 1)
                });
            while remaining > 0 {
                for (k, (slot, live)) in slots.iter_mut().zip(&mut active).enumerate() {
                    if *live && slot.begin_cycle(cfg).is_none() {
                        slot.parked = true;
                        *live = false;
                        obs.park(k, *clock);
                    }
                }
                if !active.contains(&true) {
                    break 'run;
                }

                if let Some((len, reason)) = skip.then(|| gap(slots, remaining, cfg)).flatten() {
                    for (k, slot) in slots.iter_mut().enumerate().filter(|(_, s)| !s.parked) {
                        if slot.resync_remaining > 0 {
                            slot.resync_remaining -= len;
                        } else {
                            slot.core.skip_idle(len);
                        }
                        totals[k] = slot.stage(&idle, None, die.temps(k), &mut powers[k]);
                    }
                    // The gap never crosses the warmup boundary, and every
                    // active core's cycle is the clock.
                    let observed = O::PER_CYCLE || *clock >= cfg.thermal_warmup_cycles;
                    die.step_gap(&powers, &active, len, observed, |k, temps| {
                        slots[k].close_cycle(k, obs, cfg, temps, &powers[k], totals[k]);
                    });
                    if !observed {
                        for slot in slots.iter_mut().filter(|s| !s.parked) {
                            slot.acc.cycle += len;
                        }
                    }
                    if let Some(log) = log.as_mut() {
                        log.push(SkipWindow {
                            start: *clock,
                            end: *clock + len,
                            reason,
                        });
                    }
                    *clock += len;
                    remaining -= len;
                    continue;
                }

                for (k, slot) in slots.iter_mut().enumerate().filter(|(_, s)| !s.parked) {
                    let sample = if slot.resync_remaining > 0 {
                        slot.resync_remaining -= 1;
                        idle
                    } else {
                        power.cycle_power(slot.core.cycle())
                    };
                    totals[k] = slot.stage(&sample, leak.as_ref(), die.temps(k), &mut powers[k]);
                }
                die.step(&powers, &active);
                for (k, slot) in slots.iter_mut().enumerate().filter(|(_, s)| !s.parked) {
                    slot.warm_up(die.model_mut(k), &powers[k], cfg);
                    slot.close_cycle(k, obs, cfg, die.temps(k), &powers[k], totals[k]);
                }
                *clock += 1;
                remaining -= 1;
            }

            // The chunk's last cycle: the DTM sample fires when it closes
            // an interval; events stamp this cycle.
            let last = *clock - 1;
            if clock.is_multiple_of(interval) {
                for (k, slot) in slots.iter_mut().enumerate() {
                    hottest[k] = f64::NEG_INFINITY;
                    if slot.parked {
                        continue;
                    }
                    slot.sensors.read_all(&die.temps(k)[..], &mut sensed);
                    hottest[k] = sensed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    // `sample` delegates to `sample_observed`, so the
                    // command is bit-equal either way; dense per-sample
                    // events honor the event trace's stride.
                    let cmd = match obs.telemetry(k) {
                        Some(ts) if ts.sample_due(slot.acc.samples) => {
                            ts.record_sensor_reads(last, &sensed);
                            slot.policy.sample_observed(&sensed, &mut |block, s| {
                                ts.record_controller(last, block, &s);
                            })
                        }
                        _ => slot.policy.sample(&sensed),
                    };
                    slot.acc.samples += 1;
                    cmds[k] = Some(cmd);
                }
                if let Some(sup) = supervisor.as_mut() {
                    let caps = sup.allocate_observed(&hottest, &mut |k, hot, cap| {
                        obs.supervisor_cap(last, k, hot, cap);
                    });
                    for (cmd, &cap) in cmds.iter_mut().zip(caps) {
                        if let Some(c) = cmd {
                            c.fetch_duty = c.fetch_duty.min(cap);
                        }
                    }
                }
                for (k, slot) in slots.iter_mut().enumerate() {
                    let Some(cmd) = cmds[k].take() else { continue };
                    // The histogram sees the applied (post-cap) duty,
                    // matching the duty history.
                    if let Some(ts) = obs.telemetry(k) {
                        ts.record_duty_hist(cmd.fetch_duty);
                    }
                    slot.duty_history.push(cmd.fetch_duty);
                    match slot.dtm.mechanism {
                        TriggerMechanism::Direct => {
                            slot.apply(die.model_mut(k), cmd, nominal_dt, last, obs.telemetry(k));
                        }
                        TriggerMechanism::Interrupt { latency_cycles } => {
                            slot.pending.push_back((last + latency_cycles, cmd));
                        }
                    }
                }
            }
            for (k, slot) in slots.iter_mut().enumerate() {
                while let Some(&(_, cmd)) = slot.pending.front().filter(|&&(at, _)| at <= last) {
                    slot.pending.pop_front();
                    slot.apply(die.model_mut(k), cmd, nominal_dt, last, obs.telemetry(k));
                }
            }
        }
    }
}

/// The idle gap every active core can skip from the current cycle: its
/// length — at least [`MIN_SKIP_WINDOW`], clipped to `horizon`, the cycle
/// budget and the warmup boundary (so counting is uniform across the
/// fold) — and its reason, or `None`.
///
/// A core is idle while V/f-resync stalled or inside a provably idle
/// pipeline window ([`Core::idle_window`]); parked cores are idle by
/// definition. No gap opens inside the warm-start window, whose per-cycle
/// power accumulation must run. The reason: any core parked →
/// [`SkipReason::Parked`]; every active core resync-stalled →
/// [`SkipReason::Resync`]; any fetch-gated → [`SkipReason::Gated`]; else
/// [`SkipReason::Drained`].
fn gap(slots: &mut [CoreSlot], horizon: u64, cfg: &SimConfig) -> Option<(u64, SkipReason)> {
    let warmup = cfg.thermal_warmup_cycles;
    let warm_window = if cfg.warm_start {
        cfg.dtm.sample_interval.max(1)
    } else {
        0
    };
    let (mut len, mut any_parked, mut all_resync, mut any_gated) = (horizon, false, true, false);
    for slot in slots {
        if slot.parked {
            any_parked = true;
            continue;
        }
        let cycle = slot.acc.cycle;
        if cycle < warm_window {
            return None;
        }
        let mut cap = horizon.min(cfg.max_cycles - cycle);
        if cycle < warmup {
            cap = cap.min(warmup - cycle);
        }
        let window = if slot.resync_remaining > 0 {
            slot.resync_remaining.min(cap)
        } else {
            all_resync = false;
            let (window, kind) = slot.core.idle_window(cap)?;
            any_gated |= kind == IdleKind::Gated;
            window
        };
        len = len.min(window);
    }
    let reason = if any_parked {
        SkipReason::Parked
    } else if all_resync {
        SkipReason::Resync
    } else if any_gated {
        SkipReason::Gated
    } else {
        SkipReason::Drained
    };
    (len >= MIN_SKIP_WINDOW).then_some((len, reason))
}
