//! The multicore chip: N replicated cores over a thermally coupled die,
//! under hierarchical DTM.
//!
//! [`MulticoreSim`] is the chip face of the one simulator type
//! [`Machine`]: it runs `cfg.chip.cores` copies of the single-core
//! machine in chip-cycle lockstep. The thermal side is the bit-tested
//! coupled kernel ([`CoupledChip`]): per-core exact-decay block models
//! joined block-by-block through tangential resistances, with inter-core
//! flows evaluated from pre-step temperatures once per cycle. The DTM
//! side is two-level: each core keeps its own sensors, policy, and
//! actuators (fetch toggling and V/f scaling, directly or after an
//! interrupt delay, exactly the single-core mechanisms), and an optional
//! chip-level [`ChipSupervisor`] redistributes the shared thermal budget
//! each sampling interval by capping hot cores' duty ceilings.
//!
//! The chip and the single-core [`Simulator`] are one type over one cycle
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

use crate::config::SimConfig;
use crate::cycle::Die;
use crate::metrics::RunReport;
use crate::simulator::{Machine, Simulator};
use std::sync::Arc;
use tdtm_dtm::ChipSupervisor;
use tdtm_power::PowerModel;
use tdtm_telemetry::{RegistrySnapshot, TelemetryConfig};
use tdtm_thermal::CoupledChip;
use tdtm_workloads::Workload;

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

/// The chip face of [`Machine`]: one program on each of `cfg.chip.cores`
/// cores over the coupled die, under the optional supervisor.
pub type MulticoreSim = Machine<CoupledChip>;

impl Machine<CoupledChip> {
    /// The coupled thermal model (current temperatures, edges).
    pub fn chip(&self) -> &CoupledChip {
        &self.die
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

    /// Runs every core to its stop condition and returns the chip report
    /// ([`run_chip`](Machine::run_chip)).
    ///
    /// Each cycle every active core executes one pipeline cycle and
    /// stages its block powers, the coupled kernel steps the whole chip
    /// once (inter-core flows from pre-step temperatures), and every
    /// active core folds the cycle into its accumulators. At each
    /// sampling boundary every active core senses and samples its own
    /// policy; the supervisor (if any) then caps the commands before they
    /// are applied.
    ///
    /// Conducted heat is a flow, not dissipation: reported per-block and
    /// chip powers exclude the coupling flows.
    pub fn run(&mut self) -> ChipReport {
        self.run_chip()
    }
}

/// Runs `cfg` either on the single-core [`Simulator`] (when
/// `cfg.chip.cores == 1` and no supervisor is attached) or on the
/// multicore chip, returning core 0's report plus the chip report when a
/// chip actually ran. With `telemetry` set, the run collects it and also
/// returns the metric snapshot (merged over the cores) when the config
/// collects metrics. This is the one place a grid cell picks its
/// simulator: the engine's cell path and [`GridCell::run_chip`] both run
/// through it.
///
/// [`GridCell::run_chip`]: crate::engine::GridCell::run_chip
pub fn run_chip_cell(
    cfg: SimConfig,
    workload: &Workload,
    power: Arc<PowerModel>,
    telemetry: Option<&TelemetryConfig>,
) -> (RunReport, Option<ChipReport>, Option<RegistrySnapshot>) {
    fn run<D: Die>(
        mut sim: Machine<D>,
        telemetry: Option<&TelemetryConfig>,
    ) -> (ChipReport, Option<RegistrySnapshot>) {
        if let Some(telemetry) = telemetry {
            sim.enable_telemetry(telemetry);
        }
        let chip = sim.run_chip();
        (chip, sim.take_telemetry().and_then(|t| t.merged_metrics()))
    }
    let single = cfg.chip.cores == 1 && cfg.chip.supervisor.is_none();
    let (chip, metrics) = if single {
        run(Simulator::for_workload_with_power(cfg, workload, power), telemetry)
    } else {
        run(MulticoreSim::for_workload_with_power(cfg, workload, power), telemetry)
    };
    (chip.cores[0].clone(), (!single).then_some(chip), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::NUM_THERMAL;
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
