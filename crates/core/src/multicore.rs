//! The multicore chip simulator: N replicated cores over a thermally
//! coupled die, under hierarchical DTM.
//!
//! [`MulticoreSim`] runs `cfg.chip.cores` copies of the single-core
//! machine in chip-cycle lockstep. The thermal side is the bit-tested
//! coupled kernel ([`CoupledChip`]): per-core exact-decay block models
//! joined block-by-block through tangential resistances, with inter-core
//! flows evaluated from pre-step temperatures once per cycle. The DTM
//! side is two-level: each core keeps its own sensors, policy, and
//! actuators (fetch toggling and V/f scaling, exactly the single-core
//! mechanisms), and an optional chip-level [`ChipSupervisor`] redistributes
//! the shared thermal budget each sampling interval by capping hot cores'
//! duty ceilings.
//!
//! The chip and the single-core [`Simulator`] run one and the same cycle
//! loop, generic over the thermal die; the single core is its N = 1 case.
//! So the degenerate cases are exact by construction:
//!
//! * **N = 1** (or zero coupling) has no coupling edges, so the thermal
//!   step is the plain single-core kernel bit for bit, and core 0's
//!   [`RunReport`] is byte-identical to [`Simulator::run`] (pinned by
//!   `tests/multicore.rs` and `tests/loop_contract.rs`).
//! * A cool chip makes the supervisor the identity, so attaching it to a
//!   chip with thermal headroom changes nothing.
//!
//! A core *parks* when it hits its stop condition (instruction budget,
//! cycle budget, or program halt): it stops cycling, stepping, and
//! counting, and its block temperatures freeze — still visible to
//! neighbors as a thermal boundary condition — until every core is parked
//! and the chip stops. Parked cores report `-inf` to the supervisor and
//! take no further DTM samples.
//!
//! The chip supports the direct trigger mechanism only (the single-core
//! simulator keeps the interrupt-delay model).

use crate::config::SimConfig;
use crate::cycle::{CoreSlot, CycleView, Machine, NoObserver, Observer};
use crate::metrics::RunReport;
use crate::simulator::{Simulator, SkipWindow, TelemetryState};
use std::sync::Arc;
use tdtm_dtm::{ChipSupervisor, TriggerMechanism};
use tdtm_isa::Program;
use tdtm_power::PowerModel;
use tdtm_telemetry::{Event, EventTrace, RegistrySnapshot, Telemetry, TelemetryConfig};
use tdtm_thermal::{CoupledChip, MulticoreFloorplan};
use tdtm_workloads::Workload;

/// The collected telemetry of one chip run: one per-core [`Telemetry`]
/// (events tagged with the core id, one metrics registry per core, stage
/// phase timers) plus a chip-level event ring for the hierarchy's own
/// decisions ([`Event::SupervisorCap`], [`Event::Park`]).
///
/// [`Event::SupervisorCap`]: tdtm_telemetry::Event::SupervisorCap
/// [`Event::Park`]: tdtm_telemetry::Event::Park
#[derive(Debug, Default)]
pub struct ChipTelemetry {
    /// Per-core collections, in core order.
    pub cores: Vec<Telemetry>,
    /// Supervisor cap decisions and park transitions, chip-wide, if the
    /// event trace was enabled.
    pub chip_events: Option<EventTrace>,
}

impl ChipTelemetry {
    /// Merges the per-core metric snapshots in core order (all cores
    /// share the simulator schema, so the merge is well-defined). `None`
    /// when metrics collection was off.
    pub fn merged_metrics(&self) -> Option<RegistrySnapshot> {
        let mut merged: Option<RegistrySnapshot> = None;
        for t in &self.cores {
            let snap = t.metrics.as_ref()?.snapshot();
            match &mut merged {
                None => merged = Some(snap),
                Some(m) => m.merge_from(&snap),
            }
        }
        merged
    }
}

/// In-flight chip telemetry, the chip's observer: one per-core collector
/// plus the chip-level event ring. Purely observational — ChipReports are
/// byte-identical with it attached or not (pinned by
/// `tests/observability.rs`).
struct ChipTelemetryState {
    cores: Vec<TelemetryState>,
    chip_events: Option<EventTrace>,
}

impl Observer for ChipTelemetryState {
    fn telemetry(&mut self, k: usize) -> Option<&mut TelemetryState> {
        self.cores.get_mut(k)
    }

    fn cycle(&mut self, k: usize, c: &CycleView) {
        self.cores[k].observe_cycle(c.cycle, c.temps, c.emergency);
    }

    fn park(&mut self, k: usize, cycle: u64) {
        self.cores[k].park_transitions += 1;
        if let Some(ring) = &mut self.chip_events {
            ring.record(Event::Park {
                cycle,
                core: k,
                parked: true,
            });
        }
    }

    fn supervisor_cap(&mut self, cycle: u64, k: usize, hottest: f64, cap: f64) {
        self.cores[k].supervisor_caps += 1;
        if let Some(ring) = &mut self.chip_events {
            ring.record(Event::SupervisorCap {
                cycle,
                core: k,
                hottest,
                cap,
            });
        }
    }
}

/// Results of one chip run: per-core reports plus chip-level counters.
#[derive(Clone, PartialEq, Debug)]
pub struct ChipReport {
    /// One report per core, in core order (core 0 keeps the plain
    /// workload name; core `k` is suffixed `#k`).
    pub cores: Vec<RunReport>,
    /// Sampling intervals on which the supervisor capped at least one
    /// core (0 without a supervisor).
    pub supervisor_interventions: u64,
    /// Whether any inter-core coupling edges were present.
    pub coupled: bool,
    /// Chip cycles executed (the lockstep clock, counting warmup).
    pub chip_cycles: u64,
}

impl ChipReport {
    /// The chip-wide peak block temperature: `(core, block, temp)`.
    pub fn hottest(&self) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::NEG_INFINITY);
        for (k, r) in self.cores.iter().enumerate() {
            for (b, m) in r.blocks.iter().enumerate() {
                if m.max_temp > best.2 {
                    best = (k, b, m.max_temp);
                }
            }
        }
        best
    }

    /// Total cycles any core spent in thermal emergency.
    pub fn emergency_cycles(&self) -> u64 {
        self.cores.iter().map(|r| r.emergency_cycles).sum()
    }
}

/// A full simulation of one program on an N-core chip.
///
/// All cores run the same program (each on its own pipeline), which makes
/// the cross-core-interference scenarios deterministic: differences
/// between cores come only from DTM throttling, heterogeneity, and
/// thermal coupling, never from workload skew.
pub struct MulticoreSim {
    cfg: SimConfig,
    chip: CoupledChip,
    slots: Vec<CoreSlot>,
    supervisor: Option<ChipSupervisor>,
    power: Arc<PowerModel>,
    chip_cycles: u64,
    /// Telemetry to collect on the next [`run`](MulticoreSim::run).
    telemetry: Option<ChipTelemetryState>,
    /// Collected telemetry of the last run.
    collected: Option<ChipTelemetry>,
    /// Fast-forwards chip-level gaps in which every active core is
    /// provably idle (see [`set_skip`](MulticoreSim::set_skip); on by
    /// default).
    skip: bool,
    /// Records one [`SkipWindow`] per chip-level gap when enabled.
    log_skip_windows: bool,
    /// The skip-window log of the last run (when enabled).
    skip_windows: Vec<SkipWindow>,
}

impl MulticoreSim {
    /// Builds a chip simulator over an arbitrary program (no warmup
    /// skip).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.chip.cores` is zero or the DTM trigger mechanism is
    /// not [`TriggerMechanism::Direct`].
    pub fn new(cfg: SimConfig, program: Program) -> MulticoreSim {
        let name = program.name.clone();
        MulticoreSim::build(cfg, Arc::new(program), &name, 0, None)
    }

    /// Builds a chip simulator for a suite workload, honoring its
    /// functional warmup skip on every core.
    pub fn for_workload(cfg: SimConfig, workload: &Workload) -> MulticoreSim {
        MulticoreSim::build(
            cfg,
            workload.program_shared(),
            workload.name,
            workload.warmup_insts,
            None,
        )
    }

    /// [`for_workload`](MulticoreSim::for_workload) with a prebuilt,
    /// shared power model (one model serves every core — all cores share
    /// `cfg.power`/`cfg.core`).
    pub fn for_workload_with_power(
        cfg: SimConfig,
        workload: &Workload,
        power: Arc<PowerModel>,
    ) -> MulticoreSim {
        MulticoreSim::build(
            cfg,
            workload.program_shared(),
            workload.name,
            workload.warmup_insts,
            Some(power),
        )
    }

    fn build(
        cfg: SimConfig,
        program: Arc<Program>,
        name: &str,
        skip: u64,
        power: Option<Arc<PowerModel>>,
    ) -> MulticoreSim {
        let n = cfg.chip.cores;
        assert!(n > 0, "need at least one core");
        assert!(
            matches!(cfg.dtm.mechanism, TriggerMechanism::Direct),
            "the multicore simulator supports direct triggering only"
        );
        let power = power.unwrap_or_else(|| Arc::new(PowerModel::new(&cfg.power, &cfg.core)));
        let chip = MulticoreFloorplan::with_blocks(n, cfg.blocks.clone())
            .coupling(cfg.chip.coupling)
            .heterogeneity(cfg.chip.heterogeneity)
            .build_chip(cfg.heatsink_temp, cfg.cycle_time());
        let slots = (0..n)
            .map(|k| {
                let mut dtm = cfg.dtm;
                if k > 0 {
                    if let Some(p) = cfg.chip.neighbor_policy {
                        dtm.policy = p;
                    }
                }
                let name = if k == 0 {
                    name.to_string()
                } else {
                    format!("{name}#{k}")
                };
                CoreSlot::new(&cfg, dtm, program.clone(), skip, name)
            })
            .collect();
        let supervisor = cfg.chip.supervisor.map(|sc| ChipSupervisor::new(sc, n));
        MulticoreSim {
            cfg,
            chip,
            slots,
            supervisor,
            power,
            chip_cycles: 0,
            telemetry: None,
            collected: None,
            skip: true,
            log_skip_windows: false,
            skip_windows: Vec::new(),
        }
    }

    /// Enables or disables chip-level idle-gap skipping (on by default).
    /// A gap opens only when *every* active core is simultaneously inside
    /// a provably-idle window (parked cores are idle by definition), and
    /// elides only the pipeline/power phase — the coupled thermal step and
    /// all accounting still run per cycle — so [`ChipReport`]s stay
    /// byte-identical either way (pinned by `tests/hot_loop_identity.rs`
    /// and `tests/loop_contract.rs`).
    pub fn set_skip(&mut self, on: bool) {
        self.skip = on;
    }

    /// Enables skip-window logging for the next
    /// [`run`](MulticoreSim::run); see
    /// [`skip_windows`](MulticoreSim::skip_windows).
    pub fn record_skip_windows(&mut self) {
        self.log_skip_windows = true;
    }

    /// The chip-level skip-window log of the last run (empty unless
    /// [`record_skip_windows`](MulticoreSim::record_skip_windows) was
    /// enabled and gaps actually opened). A gap in which at least one
    /// core sat parked reports
    /// [`SkipReason::Parked`](crate::SkipReason::Parked); an all-resync
    /// gap reports [`SkipReason::Resync`](crate::SkipReason::Resync);
    /// otherwise the gated cause wins over the drained one.
    pub fn skip_windows(&self) -> &[SkipWindow] {
        &self.skip_windows
    }

    /// Enables telemetry collection for the next [`run`](MulticoreSim::run):
    /// one collector per core (every event tagged with its core id) plus a
    /// chip-level event ring for supervisor caps and park transitions.
    /// The collected [`ChipTelemetry`] is available from
    /// [`take_telemetry`](MulticoreSim::take_telemetry) afterwards.
    /// Collection never changes the simulation: the [`ChipReport`] is
    /// byte-identical with telemetry on or off (pinned by test).
    ///
    /// Phase timing on the chip covers the pipeline stage timers only;
    /// the lockstep loop does not wrap the shared thermal step or the
    /// controllers in per-call timers.
    pub fn enable_telemetry(&mut self, cfg: &TelemetryConfig) {
        if cfg.phases {
            for slot in &mut self.slots {
                slot.core.set_stage_profiling(true);
            }
        }
        self.telemetry = Some(ChipTelemetryState {
            cores: self
                .slots
                .iter()
                .enumerate()
                .map(|(k, slot)| TelemetryState::with_core(cfg, k, &slot.core))
                .collect(),
            chip_events: cfg.events.map(|e| EventTrace::new(e.capacity, e.stride)),
        });
    }

    /// The telemetry collected by the last run, if enabled.
    pub fn telemetry(&self) -> Option<&ChipTelemetry> {
        self.collected.as_ref()
    }

    /// Takes ownership of the collected telemetry.
    pub fn take_telemetry(&mut self) -> Option<ChipTelemetry> {
        self.collected.take()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.slots.len()
    }

    /// The coupled thermal model (current temperatures, edges).
    pub fn chip(&self) -> &CoupledChip {
        &self.chip
    }

    /// The chip-level supervisor, if configured.
    pub fn supervisor(&self) -> Option<&ChipSupervisor> {
        self.supervisor.as_ref()
    }

    /// Sampled fetch-duty history of core `k` (post-supervisor-cap, one
    /// entry per DTM sample taken by that core).
    pub fn duty_history(&self, k: usize) -> &[f64] {
        &self.slots[k].duty_history
    }

    /// Runs every core to its stop condition and returns the chip report.
    ///
    /// The cores advance in chip-cycle lockstep through the cycle loop
    /// the single-core simulator also runs: each cycle every active core
    /// executes one pipeline cycle and stages its block powers, the
    /// coupled kernel steps the whole chip once (inter-core flows from
    /// pre-step temperatures), and every active core folds the cycle into
    /// its accumulators. At each sampling boundary every active core
    /// senses and samples its own policy; the supervisor (if any) then
    /// caps the commands before they are applied.
    ///
    /// Conducted heat is a flow, not dissipation: reported per-block and
    /// chip powers exclude the coupling flows.
    pub fn run(&mut self) -> ChipReport {
        self.skip_windows.clear();
        let mut observer = self.telemetry.take();
        let machine = Machine {
            cfg: &self.cfg,
            power: &self.power,
            die: &mut self.chip,
            slots: &mut self.slots,
            supervisor: self.supervisor.as_mut(),
            clock: &mut self.chip_cycles,
            skip: self.skip,
            log: self.log_skip_windows.then_some(&mut self.skip_windows),
        };
        match &mut observer {
            Some(obs) => machine.run(obs),
            None => machine.run(&mut NoObserver),
        }
        if let Some(obs) = observer {
            let cores = obs
                .cores
                .into_iter()
                .zip(&self.slots)
                .map(|(ts, slot)| ts.flush(&slot.core, &slot.acc))
                .collect();
            self.collected = Some(ChipTelemetry {
                cores,
                chip_events: obs.chip_events,
            });
        }
        ChipReport {
            cores: self
                .slots
                .iter()
                .zip(self.chip.core_models())
                .map(|(slot, model)| slot.report(model.params()))
                .collect(),
            supervisor_interventions: self
                .supervisor
                .as_ref()
                .map_or(0, ChipSupervisor::interventions),
            coupled: !self.chip.edges().is_empty(),
            chip_cycles: self.chip_cycles,
        }
    }
}

/// Runs `cfg` either on the single-core [`Simulator`] (when
/// `cfg.chip.cores == 1` and no supervisor is attached) or on the
/// multicore chip, returning core 0's report plus the chip report when a
/// chip actually ran. With `telemetry` set, the run collects it and also
/// returns the metric snapshot (merged over the cores on a chip) when
/// the config collects metrics. This is the one place a grid cell picks
/// its simulator: the engine's cell path and [`GridCell::run_chip`]
/// both run through it.
///
/// [`GridCell::run_chip`]: crate::engine::GridCell::run_chip
pub fn run_chip_cell(
    cfg: SimConfig,
    workload: &Workload,
    power: Arc<PowerModel>,
    telemetry: Option<&TelemetryConfig>,
) -> (RunReport, Option<ChipReport>, Option<RegistrySnapshot>) {
    if cfg.chip.cores == 1 && cfg.chip.supervisor.is_none() {
        let mut sim = Simulator::for_workload_with_power(cfg, workload, power);
        if let Some(telemetry) = telemetry {
            sim.enable_telemetry(telemetry);
        }
        let report = sim.run();
        let metrics = sim.take_telemetry().and_then(|t| t.metrics).map(|m| m.snapshot());
        (report, None, metrics)
    } else {
        let mut sim = MulticoreSim::for_workload_with_power(cfg, workload, power);
        if let Some(telemetry) = telemetry {
            sim.enable_telemetry(telemetry);
        }
        let chip = sim.run();
        let metrics = sim.take_telemetry().and_then(|t| t.merged_metrics());
        (chip.cores[0].clone(), Some(chip), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::NUM_THERMAL;
    use tdtm_dtm::PolicyKind;

    fn quick(policy: PolicyKind, cores: usize) -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.dtm.policy = policy;
        cfg.chip.cores = cores;
        cfg
    }

    fn workload() -> Workload {
        tdtm_workloads::by_name("gcc").expect("known workload")
    }

    #[test]
    fn single_core_chip_produces_a_sane_report() {
        let mut sim = MulticoreSim::for_workload(quick(PolicyKind::Pid, 1), &workload());
        let chip = sim.run();
        assert_eq!(chip.cores.len(), 1);
        assert!(!chip.coupled, "one core has no neighbors");
        assert_eq!(chip.supervisor_interventions, 0);
        let r = &chip.cores[0];
        assert!(r.committed >= 30_000);
        assert_eq!(r.blocks.len(), NUM_THERMAL);
        assert_eq!(r.name, "gcc");
    }

    #[test]
    fn chip_report_names_and_sizes_scale_with_cores() {
        let mut cfg = quick(PolicyKind::Pid, 3);
        cfg.max_insts = 10_000;
        cfg.thermal_warmup_cycles = 500;
        let mut sim = MulticoreSim::for_workload(cfg, &workload());
        let chip = sim.run();
        assert_eq!(chip.cores.len(), 3);
        assert!(chip.coupled);
        assert_eq!(chip.cores[0].name, "gcc");
        assert_eq!(chip.cores[1].name, "gcc#1");
        assert_eq!(chip.cores[2].name, "gcc#2");
        // Identical cores, identical program, homogeneous chip: every
        // core commits the same work.
        assert_eq!(chip.cores[0].committed, chip.cores[1].committed);
        assert_eq!(chip.cores[0].committed, chip.cores[2].committed);
    }

    #[test]
    fn neighbor_policy_splits_the_chip() {
        let mut cfg = quick(PolicyKind::Toggle1, 2);
        cfg.max_insts = 10_000;
        cfg.thermal_warmup_cycles = 500;
        cfg.chip.neighbor_policy = Some(PolicyKind::None);
        let mut sim = MulticoreSim::for_workload(cfg, &workload());
        let chip = sim.run();
        assert_eq!(chip.cores[0].policy, "toggle1");
        assert_eq!(chip.cores[1].policy, "none");
    }

    #[test]
    fn supervisor_caps_hot_cores_duty() {
        // Hot chip, weak per-core policy (none), supervisor on: the
        // supervisor must intervene and cap duty below 1.
        let mut cfg = quick(PolicyKind::None, 2);
        cfg.max_insts = 60_000;
        cfg.heatsink_temp = 107.0;
        cfg.thermal_warmup_cycles = 1_000;
        cfg.chip.supervisor = Some(tdtm_dtm::SupervisorConfig::default());
        let mut sim = MulticoreSim::for_workload(cfg, &workload());
        let chip = sim.run();
        assert!(
            chip.supervisor_interventions > 0,
            "hot chip must trigger the supervisor"
        );
        let mut duties = Vec::new();
        for k in 0..2 {
            duties.extend_from_slice(sim.duty_history(k));
        }
        assert!(
            duties.iter().any(|&d| d < 1.0),
            "at least one capped duty recorded"
        );
    }

    #[test]
    #[should_panic(expected = "direct triggering only")]
    fn interrupt_mechanism_is_rejected() {
        let mut cfg = quick(PolicyKind::Pid, 2);
        cfg.dtm.mechanism = TriggerMechanism::Interrupt {
            latency_cycles: 250,
        };
        let _ = MulticoreSim::for_workload(cfg, &workload());
    }

    #[test]
    fn run_chip_cell_dispatches_by_core_count() {
        let cfg = quick(PolicyKind::Pid, 1);
        let power = Arc::new(PowerModel::new(&cfg.power, &cfg.core));
        let observed = TelemetryConfig::metrics_and_phases();
        let (plain, chip, metrics) = run_chip_cell(cfg.clone(), &workload(), power.clone(), None);
        assert!(
            chip.is_none(),
            "one supervisor-less core takes the single-core path"
        );
        assert!(metrics.is_none(), "no telemetry, no snapshot");
        let (report, _, metrics) =
            run_chip_cell(cfg.clone(), &workload(), power.clone(), Some(&observed));
        assert_eq!(report, plain, "telemetry never perturbs the run");
        assert_eq!(metrics.expect("metrics collected").counter("cycles"), report.total_cycles);
        let mut cfg2 = cfg;
        cfg2.chip.cores = 2;
        cfg2.max_insts = 10_000;
        cfg2.thermal_warmup_cycles = 500;
        let (r0, chip, metrics) = run_chip_cell(cfg2, &workload(), power, Some(&observed));
        let chip = chip.expect("two cores take the chip path");
        assert_eq!(chip.cores[0], r0);
        let cycles: u64 = chip.cores.iter().map(|r| r.total_cycles).sum();
        assert_eq!(metrics.expect("merged metrics").counter("cycles"), cycles);
    }
}
