//! A replica of the simulator's cycle loop built from public calls only:
//! `Core::cycle` → `PowerModel::cycle_power` → `BlockModel::step` (or the
//! coupled chip's `step_masked`) every cycle, and `SensorModel::read_all`
//! → `DtmPolicy::sample` → (supervisor cap) → `Core::set_control` at
//! every DTM sample. The warm-start jump (`BlockModel::warm_start` +
//! `set_temperature`) and the V/f switch (`BlockModel::set_dt` plus the
//! resync stall) are public too, so nothing is disabled.
//!
//! The replica never fast-forwards idle windows; the simulator's skips
//! are bit-exact, so its per-core cycle count, committed instructions
//! and duty history must equal `Simulator::run` / `MulticoreSim::run`
//! for the same cell — the traced pass fails otherwise.
//!
//! The loop calls a [`Tracer`] around every layer call and around its own
//! bookkeeping (the stop checks and the per-cycle accounting), so the
//! loop span's self time is only its glue and the tracer's own cost;
//! with [`NoTrace`] the calls compile away.

use tdtm_core::SimConfig;
use tdtm_dtm::SensorModel;
use tdtm_dtm::{build_policy_at, ChipSupervisor, DtmCommand, DtmConfig, DtmPolicy, PolicyKind};
use tdtm_power::{PowerModel, PowerSample};
use tdtm_thermal::{BlockModel, CoupledChip, MulticoreFloorplan};
use tdtm_uarch::{Activity, Core, CoreControl};
use tdtm_workloads::Workload;

const BLOCKS: usize = 7;

/// A traced call site. The name's prefix is the layer (module) the time
/// is charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    Op,
    Build,
    UarchBuild,
    PowerBuild,
    ThermalBuild,
    DtmBuild,
    Loop,
    StopCheck,
    Cycle,
    CyclePower,
    ThermalStep,
    Account,
    WarmStart,
    ReadAll,
    Sample,
    Supervisor,
    SetControl,
    SetDt,
}

impl Span {
    pub const ALL: [Span; 18] = [
        Span::Op,
        Span::Build,
        Span::UarchBuild,
        Span::PowerBuild,
        Span::ThermalBuild,
        Span::DtmBuild,
        Span::Loop,
        Span::StopCheck,
        Span::Cycle,
        Span::CyclePower,
        Span::ThermalStep,
        Span::Account,
        Span::WarmStart,
        Span::ReadAll,
        Span::Sample,
        Span::Supervisor,
        Span::SetControl,
        Span::SetDt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Op => "simulator.op",
            Span::Build => "simulator.build",
            Span::UarchBuild => "uarch.build",
            Span::PowerBuild => "power.build",
            Span::ThermalBuild => "thermal.build",
            Span::DtmBuild => "dtm.build",
            Span::Loop => "simulator.loop",
            Span::StopCheck => "simulator.stop_check",
            Span::Cycle => "uarch.cycle",
            Span::CyclePower => "power.cycle_power",
            Span::ThermalStep => "thermal.step",
            Span::Account => "simulator.account",
            Span::WarmStart => "thermal.warm_start",
            Span::ReadAll => "dtm.read_all",
            Span::Sample => "dtm.sample",
            Span::Supervisor => "multicore.supervisor",
            Span::SetControl => "uarch.set_control",
            Span::SetDt => "thermal.set_dt",
        }
    }

    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("span names are layer.call")]
    }
}

/// Receives the replica's span boundaries (strictly nested).
pub trait Tracer {
    fn enter(&mut self, span: Span);
    fn exit(&mut self);
}

/// Records nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: Span) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// Times `f` as one span.
#[inline(always)]
fn span<T: Tracer, R>(t: &mut T, s: Span, f: impl FnOnce() -> R) -> R {
    t.enter(s);
    let r = f();
    t.exit();
    r
}

/// One core's result, in the terms `RunReport` uses.
pub struct CoreResult {
    pub total_cycles: u64,
    pub committed: u64,
    pub duty_history: Vec<f64>,
    /// Miss ratios (L1D, L2) of the modelled caches.
    pub l1d_miss: f64,
    pub l2_miss: f64,
}

pub struct ReplicaResult {
    pub cores: Vec<CoreResult>,
    /// `Core::cycle` calls (cycles neither skipped nor resync-stalled).
    pub cycle_calls: u64,
    /// Σ simulated cycles over cores.
    pub core_cycles: u64,
    /// Host nanoseconds per pipeline stage, summed over cores, in
    /// `tdtm_uarch::STAGE_NAMES` order (zero without stage profiling).
    pub stage_nanos: [u64; 6],
}

enum Thermal {
    Single(BlockModel),
    Chip(CoupledChip),
}

impl Thermal {
    fn model(&self, k: usize) -> &BlockModel {
        match self {
            Thermal::Single(m) => m,
            Thermal::Chip(c) => &c.core_models()[k],
        }
    }

    fn model_mut(&mut self, k: usize) -> &mut BlockModel {
        match self {
            Thermal::Single(m) => m,
            Thermal::Chip(c) => c.core_mut(k),
        }
    }
}

/// One core's machine and accounting state.
struct Slot {
    core: Core,
    policy: Box<dyn DtmPolicy>,
    sensors: SensorModel,
    dtm: DtmConfig,
    cycle: u64,
    counted: u64,
    committed_start: u64,
    parked: bool,
    resync: u64,
    vf_power_scale: f64,
    vf_engaged: bool,
    duty_history: Vec<f64>,
    warm_power: [f64; BLOCKS],
}

impl Slot {
    /// The simulator's stop check for this core: instruction budget
    /// (counted after warmup), cycle cap, or end of program.
    fn done(&mut self, cfg: &SimConfig, warmup: u64) -> bool {
        let counting = self.cycle >= warmup;
        if counting && self.counted == 0 {
            self.committed_start = self.core.stats().committed;
        }
        let budget_hit = counting
            && self
                .core
                .stats()
                .committed
                .saturating_sub(self.committed_start)
                >= cfg.max_insts;
        budget_hit || self.cycle >= cfg.max_cycles || self.core.finished()
    }
}

/// One core's block powers for the thermal step, V/f-scaled.
fn scale_into(out: &mut [f64], sample: &PowerSample, scale: f64) {
    for (p, bp) in out.iter_mut().zip(sample.thermal_powers()) {
        *p = bp * scale;
    }
}

/// Runs the cell `cfg` × `w` through the replica. A configuration with
/// one core and no supervisor is the plain single-core machine (one
/// `BlockModel`); anything else is the coupled chip.
pub fn run<T: Tracer>(
    cfg: &SimConfig,
    w: &Workload,
    t: &mut T,
    stage_profiling: bool,
) -> ReplicaResult {
    t.enter(Span::Op);
    t.enter(Span::Build);
    let n = cfg.chip.cores;
    let single = n == 1 && cfg.chip.supervisor.is_none();
    let power = span(t, Span::PowerBuild, || {
        PowerModel::new(&cfg.power, &cfg.core)
    });
    let cores: Vec<Core> = span(t, Span::UarchBuild, || {
        (0..n)
            .map(|_| {
                let mut core = Core::with_skip_shared(cfg.core, w.program_shared(), w.warmup_insts);
                core.set_stage_profiling(stage_profiling);
                core
            })
            .collect()
    });
    let mut thermal = span(t, Span::ThermalBuild, || {
        if single {
            Thermal::Single(BlockModel::new(
                cfg.blocks.clone(),
                cfg.heatsink_temp,
                cfg.cycle_time(),
            ))
        } else {
            Thermal::Chip(
                MulticoreFloorplan::with_blocks(n, cfg.blocks.clone())
                    .coupling(cfg.chip.coupling)
                    .heterogeneity(cfg.chip.heterogeneity)
                    .build_chip(cfg.heatsink_temp, cfg.cycle_time()),
            )
        }
    });
    let (mut slots, mut supervisor) = span(t, Span::DtmBuild, || {
        let slots: Vec<Slot> = cores
            .into_iter()
            .enumerate()
            .map(|(k, core)| {
                let mut dtm = cfg.dtm;
                if k > 0 {
                    if let Some(p) = cfg.chip.neighbor_policy {
                        dtm.policy = p;
                    }
                }
                Slot {
                    core,
                    policy: build_policy_at(&dtm, cfg.core.clock_hz),
                    sensors: SensorModel::ideal(),
                    dtm,
                    cycle: 0,
                    counted: 0,
                    committed_start: 0,
                    parked: false,
                    resync: 0,
                    vf_power_scale: 1.0,
                    vf_engaged: false,
                    duty_history: Vec::new(),
                    warm_power: [0.0; BLOCKS],
                }
            })
            .collect();
        (
            slots,
            cfg.chip.supervisor.map(|sc| ChipSupervisor::new(sc, n)),
        )
    });
    t.exit();

    t.enter(Span::Loop);
    let interval = cfg.dtm.sample_interval.max(1);
    let warmup = cfg.thermal_warmup_cycles;
    let warm_window = if cfg.warm_start { interval } else { 0 };
    let nominal_dt = cfg.cycle_time();
    let idle = span(t, Span::CyclePower, || power.cycle_power(&Activity::new()));
    let mut powers = vec![vec![0.0f64; BLOCKS]; n];
    let mut active = vec![true; n];
    let mut sensed = [0.0f64; BLOCKS];
    let mut hottest = vec![f64::NEG_INFINITY; n];
    let mut cmds: Vec<Option<DtmCommand>> = vec![None; n];
    let mut chip_cycle = 0u64;
    let mut cycle_calls = 0u64;

    'run: loop {
        if slots.iter().all(|s| s.parked) {
            break;
        }
        let mut remaining = interval - chip_cycle % interval;
        while remaining > 0 {
            // Stop checks for every core first (the cores' pipelines are
            // independent, so this order runs the simulator's), then one
            // pipeline cycle and its power per running core.
            let all_parked = span(t, Span::StopCheck, || {
                for (k, s) in slots.iter_mut().enumerate() {
                    if !s.parked && s.done(cfg, warmup) {
                        s.parked = true;
                        active[k] = false;
                    }
                }
                slots.iter().all(|s| s.parked)
            });
            if all_parked {
                break 'run;
            }
            for (k, s) in slots.iter_mut().enumerate() {
                if s.parked {
                    continue;
                }
                if s.resync > 0 {
                    s.resync -= 1;
                    scale_into(&mut powers[k], &idle, s.vf_power_scale);
                } else {
                    cycle_calls += 1;
                    t.enter(Span::Cycle);
                    let activity = s.core.cycle();
                    t.exit();
                    span(t, Span::CyclePower, || {
                        scale_into(
                            &mut powers[k],
                            &power.cycle_power(activity),
                            s.vf_power_scale,
                        )
                    });
                }
            }

            span(t, Span::ThermalStep, || match &mut thermal {
                Thermal::Single(m) => m.step(&powers[0]),
                Thermal::Chip(c) => c.step_masked(&powers, &active),
            });

            // Warm start and the counted-cycle clock, per core.
            t.enter(Span::Account);
            for (k, s) in slots.iter_mut().enumerate() {
                if s.parked {
                    continue;
                }
                if s.cycle < warm_window {
                    for (acc, p) in s.warm_power.iter_mut().zip(&powers[k]) {
                        *acc += p;
                    }
                    if s.cycle + 1 == interval {
                        let model = thermal.model_mut(k);
                        span(t, Span::WarmStart, || {
                            warm_start(model, &s.dtm, &mut s.warm_power, interval)
                        });
                    }
                }
                if s.cycle >= warmup {
                    s.counted += 1;
                }
                s.cycle += 1;
            }
            t.exit();
            chip_cycle += 1;
            remaining -= 1;
        }

        // DTM sample: sense and sample every active core, let the
        // supervisor cap the duties, then actuate.
        for (k, s) in slots.iter_mut().enumerate() {
            cmds[k] = None;
            hottest[k] = f64::NEG_INFINITY;
            if s.parked {
                continue;
            }
            let temps = thermal.model(k).temperatures();
            span(t, Span::ReadAll, || s.sensors.read_all(temps, &mut sensed));
            hottest[k] = sensed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            cmds[k] = Some(span(t, Span::Sample, || s.policy.sample(&sensed)));
        }
        if let Some(sup) = supervisor.as_mut() {
            t.enter(Span::Supervisor);
            let caps = sup.allocate(&hottest);
            for (cmd, &cap) in cmds.iter_mut().zip(caps) {
                if let Some(c) = cmd {
                    c.fetch_duty = c.fetch_duty.min(cap);
                }
            }
            t.exit();
        }
        for (k, s) in slots.iter_mut().enumerate() {
            let Some(cmd) = cmds[k].take() else { continue };
            s.duty_history.push(cmd.fetch_duty);
            apply(s, thermal.model_mut(k), cmd, nominal_dt, t);
        }
    }
    t.exit();
    t.exit();

    let mut stage_nanos = [0u64; 6];
    for s in &slots {
        for (acc, ns) in stage_nanos.iter_mut().zip(s.core.stage_nanos()) {
            *acc += ns;
        }
    }
    ReplicaResult {
        core_cycles: slots.iter().map(|s| s.cycle).sum(),
        cores: slots
            .into_iter()
            .map(|s| {
                let (_, l1d_miss, l2_miss) = s.core.cache_miss_ratios();
                CoreResult {
                    total_cycles: s.cycle,
                    committed: s.core.stats().committed.saturating_sub(s.committed_start),
                    duty_history: s.duty_history,
                    l1d_miss,
                    l2_miss,
                }
            })
            .collect(),
        cycle_calls,
        stage_nanos,
    }
}

/// The warm-start jump: every block to the steady state of its mean
/// power over the first interval, capped at the policy's control
/// ceiling.
fn warm_start(model: &mut BlockModel, dtm: &DtmConfig, power: &mut [f64; BLOCKS], interval: u64) {
    for p in power.iter_mut() {
        *p /= interval as f64;
    }
    model.warm_start(&power[..]);
    if dtm.policy != PolicyKind::None {
        let ceiling = if dtm.policy.is_control_theoretic() {
            dtm.setpoint
        } else {
            dtm.trigger
        };
        for i in 0..BLOCKS {
            if model.temperatures()[i] > ceiling {
                model.set_temperature(i, ceiling);
            }
        }
    }
}

/// Applies one command: the fetch actuators, then the V/f switch (which
/// retimes the core's thermal model and stalls for the resync).
fn apply<T: Tracer>(
    s: &mut Slot,
    model: &mut BlockModel,
    cmd: DtmCommand,
    nominal_dt: f64,
    t: &mut T,
) {
    span(t, Span::SetControl, || {
        s.core.set_control(CoreControl {
            fetch_duty: cmd.fetch_duty,
            fetch_width_limit: cmd.fetch_width_limit,
            max_unresolved_branches: cmd.max_unresolved_branches,
        })
    });
    let dt = match (cmd.vf, s.vf_engaged) {
        (Some(vf), false) => {
            s.vf_engaged = true;
            s.vf_power_scale = vf.power_scale();
            nominal_dt / vf.freq_scale
        }
        (None, true) => {
            s.vf_engaged = false;
            s.vf_power_scale = 1.0;
            nominal_dt
        }
        _ => return,
    };
    span(t, Span::SetDt, || model.set_dt(dt));
    s.resync = s.dtm.vf_resync_cycles;
}

/// Checks the replica against the simulator's `(total_cycles, committed,
/// duty history)` per core.
pub fn identity(replica: &ReplicaResult, reference: &[(u64, u64, &[f64])]) -> Result<(), String> {
    if replica.cores.len() != reference.len() {
        return Err(format!(
            "{} cores vs {}",
            replica.cores.len(),
            reference.len()
        ));
    }
    for (k, (r, &(total, committed, duty))) in replica.cores.iter().zip(reference).enumerate() {
        if r.total_cycles != total || r.committed != committed {
            return Err(format!(
                "core {k}: replica {} cycles / {} committed, simulator {total} / {committed}",
                r.total_cycles, r.committed
            ));
        }
        if r.duty_history != duty {
            return Err(format!(
                "core {k}: duty history differs from the simulator's"
            ));
        }
    }
    Ok(())
}
