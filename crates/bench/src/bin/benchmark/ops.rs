//! The benchmark's inputs, generated from `--seed` alone.
//!
//! A cell workload runs a fixed *cell set* — every (benchmark, policy or
//! chip shape, heatsink) it covers — in *passes*: each pass runs every
//! cell once, in a fresh seeded order. On `suite_busy` one heatsink,
//! drawn by the seed from 100–103 °C, serves every cell of a run: those
//! cells are pipeline-bound and never engage DTM there, so the heatsink
//! changes temperatures but not the work, and one heatsink per run keeps
//! a pass short enough to repeat every cell several times. Every op a
//! seed can produce has a committed golden digest.
//!
//! Because every pass covers the same cells, the per-cell times over the
//! passes — and every metric built on them — keep the same op mix from
//! seed to seed; the seed changes the order of the ops (and
//! `suite_busy`'s heatsink).
//!
//! The simulator sees only the generated `SimConfig` and `Workload`.

use tdtm_core::engine::GridCell;
use tdtm_core::experiments::ExperimentScale;
use tdtm_core::{ExperimentGrid, SimConfig};
use tdtm_dtm::{PolicyKind, SupervisorConfig};
use tdtm_workloads::{ThermalCategory, Workload};

/// splitmix64 (Steele, Lea and Flood), kept inline so the input stream
/// cannot drift with the simulator's own generators.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` is tiny, so modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    SuiteBusy,
    ThrottledHot,
    Chip4Coupled,
    GridFleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SuiteBusy,
        Kind::ThrottledHot,
        Kind::Chip4Coupled,
        Kind::GridFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteBusy => "suite_busy",
            Kind::ThrottledHot => "throttled_hot",
            Kind::Chip4Coupled => "chip4_coupled",
            Kind::GridFleet => "grid_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Per-workload stream tag, so two workloads on one seed draw
    /// independent streams.
    fn salt(self) -> u64 {
        match self {
            Kind::SuiteBusy => 0x5B51,
            Kind::ThrottledHot => 0x7407,
            Kind::Chip4Coupled => 0xC4C4,
            Kind::GridFleet => 0x6F1E,
        }
    }

    /// The seeded generator of this workload's inputs.
    pub fn rng(self, seed: u64) -> SplitMix64 {
        SplitMix64::new(seed ^ self.salt().rotate_left(32))
    }

    /// Benchmarks (indices into `suite()`) of this workload's cells.
    fn benches(self, suite: &[Workload]) -> Vec<usize> {
        (0..suite.len())
            .filter(|&i| match self {
                Kind::ThrottledHot => matches!(
                    suite[i].category,
                    ThermalCategory::Extreme | ThermalCategory::High
                ),
                _ => true,
            })
            .collect()
    }

    /// The (policy, shape) variants of each benchmark.
    fn variants(self) -> &'static [(PolicyKind, Shape)] {
        match self {
            Kind::SuiteBusy => &[
                (PolicyKind::None, Shape::Single),
                (PolicyKind::Pid, Shape::Single),
            ],
            Kind::ThrottledHot => &[
                (PolicyKind::Toggle1, Shape::Single),
                (PolicyKind::VfScale, Shape::Single),
                (PolicyKind::Pid, Shape::Single),
            ],
            Kind::Chip4Coupled => &[
                (PolicyKind::Pid, Shape::Supervised4),
                (PolicyKind::Toggle1, Shape::Toggle4),
            ],
            Kind::GridFleet => &[],
        }
    }

    /// Heatsink temperatures (°C) of this workload's cells.
    fn heatsinks(self) -> &'static [f64] {
        match self {
            Kind::SuiteBusy => &[100.0, 101.0, 102.0, 103.0],
            Kind::ThrottledHot => &[107.0, 107.5, 108.0],
            Kind::Chip4Coupled | Kind::GridFleet => &[GRID_HEATSINK],
        }
    }
}

/// The hot heatsink of the fleet grid and the chip workload (°C).
const GRID_HEATSINK: f64 = 107.0;

/// The chip shape of one op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// One core on the plain `Simulator`.
    Single,
    /// Four coupled cores: core 0 under the policy, unthrottled
    /// neighbors, and the chip supervisor.
    Supervised4,
    /// Four coupled cores, every core under the policy, no supervisor.
    Toggle4,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Single => "1",
            Shape::Supervised4 => "4+sup",
            Shape::Toggle4 => "4",
        }
    }

    pub fn is_chip(self) -> bool {
        self != Shape::Single
    }
}

/// Simulation size. [`Scale::FULL`] is what the benchmark measures and
/// what the golden digests cover; tests use a tiny scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Committed instructions per single-core cell.
    pub insts: u64,
    /// Committed instructions per core of a chip cell.
    pub chip_insts: u64,
    /// Counted-cycle warmup of every cell.
    pub warmup: u64,
    /// Cycle cap of the throttled cells.
    pub hot_max_cycles: u64,
    /// The fleet grid's scale.
    pub grid: ExperimentScale,
    /// Benchmarks per workload and per grid: the last this many eligible
    /// ones (all of them at full scale).
    pub benches: usize,
    /// Policies of the fleet grid (5 at full scale).
    pub grid_policies: usize,
    /// Whether ops are checked against the committed golden digests
    /// (which exist for the full scale only).
    pub golden: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        insts: 150_000,
        chip_insts: 5_000,
        warmup: 10_000,
        hot_max_cycles: 2_000_000,
        grid: ExperimentScale {
            insts: 30_000,
            warmup_cycles: 2_000,
        },
        benches: 18,
        grid_policies: 5,
        golden: true,
    };
}

/// One cell op: a benchmark under a policy on a heatsink, on one core or
/// a four-core chip.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Index into `suite()`.
    pub bench: usize,
    pub policy: PolicyKind,
    pub heatsink: f64,
    pub shape: Shape,
}

impl Op {
    /// The golden-table key: every field that shapes the simulation.
    pub fn key(&self, suite: &[Workload]) -> String {
        format!(
            "{}/{}/{}/{:.1}",
            suite[self.bench].name,
            self.policy.name(),
            self.shape.name(),
            self.heatsink
        )
    }

    pub fn config(&self, scale: &Scale) -> SimConfig {
        let mut cfg = SimConfig {
            max_insts: scale.insts,
            thermal_warmup_cycles: scale.warmup,
            heatsink_temp: self.heatsink,
            ..SimConfig::default()
        };
        cfg.dtm.policy = self.policy;
        if self.kind == Kind::ThrottledHot {
            cfg.max_cycles = scale.hot_max_cycles;
        }
        if self.shape.is_chip() {
            cfg.max_insts = scale.chip_insts;
            cfg.chip.cores = 4;
        }
        match self.shape {
            Shape::Single => {}
            Shape::Supervised4 => {
                cfg.chip.neighbor_policy = Some(PolicyKind::None);
                cfg.chip.supervisor = Some(SupervisorConfig::default());
            }
            Shape::Toggle4 => cfg.chip.neighbor_policy = Some(self.policy),
        }
        cfg
    }
}

/// Every cell any seed can draw for a cell workload, benchmark-major,
/// then variant, then heatsink (the golden table's key space).
pub fn cell_space(kind: Kind, suite: &[Workload], scale: &Scale) -> Vec<Op> {
    let mut benches = kind.benches(suite);
    benches.drain(..benches.len().saturating_sub(scale.benches));
    let mut ops = Vec::new();
    for bench in benches {
        for &(policy, shape) in kind.variants() {
            for &heatsink in kind.heatsinks() {
                ops.push(Op {
                    kind,
                    bench,
                    policy,
                    heatsink,
                    shape,
                });
            }
        }
    }
    ops
}

/// The cells of one cell-workload run and the seeded order of its
/// passes.
pub struct CellSet {
    pub cells: Vec<Op>,
    rng: SplitMix64,
}

impl CellSet {
    pub fn new(kind: Kind, seed: u64, suite: &[Workload], scale: &Scale) -> CellSet {
        assert!(kind != Kind::GridFleet, "the fleet grid has no cell set");
        let mut rng = kind.rng(seed);
        let mut cells = cell_space(kind, suite, scale);
        if kind == Kind::SuiteBusy {
            let heatsinks = kind.heatsinks();
            let heatsink = heatsinks[rng.below(heatsinks.len())];
            cells.retain(|op| op.heatsink == heatsink);
        }
        CellSet { cells, rng }
    }

    /// Whether cell `i` also gets the observed rerun: every seventh cell
    /// in cell-space order, a subset whose make-up does not depend on the
    /// seed. Seven is prime to the two or three variants and three
    /// heatsinks a benchmark has, so the subset covers every variant. An
    /// observed rerun costs two to eight cold ones (telemetry turns
    /// idle-gap skipping off), so a larger subset would leave too few
    /// cold passes in a run.
    pub fn sampled(i: usize) -> bool {
        i.is_multiple_of(7)
    }

    /// The next pass: every cell index once, in a seeded order.
    pub fn next_pass(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        self.rng.shuffle(&mut order);
        order
    }
}

fn hot(cfg: &mut SimConfig) {
    cfg.heatsink_temp = GRID_HEATSINK;
}

/// The fleet grid: the suite × {None, Toggle1, PID, VfScale,
/// Hierarchical} on the hot heatsink at quick scale, in that order. The
/// seed does not touch it: reordering either axis changes which cells
/// share a batch and which long cells (building an 8 MB memory image, or
/// running long) land in the tail of the queue, which swings the grid's
/// wall time and peak memory by a fifth from order to order — more than
/// any change the benchmark should be able to resolve. (The traced pass
/// draws its replayed cells by seed.)
pub fn fleet_grid(suite: &[Workload], scale: &Scale) -> ExperimentGrid {
    let policies = [
        PolicyKind::None,
        PolicyKind::Toggle1,
        PolicyKind::Pid,
        PolicyKind::VfScale,
        PolicyKind::Hierarchical,
    ];
    let benches = &suite[suite.len().saturating_sub(scale.benches)..];
    benches.iter().fold(
        ExperimentGrid::new(scale.grid)
            .policies(&policies[..scale.grid_policies])
            .variant("hot", hot),
        |grid, w| grid.workload(w.clone()),
    )
}

/// The fleet-grid cells every fleet op also times one at a time through
/// the single-cell entry point: one per benchmark, the policy rotating
/// with the benchmark so that every policy appears. The engine's own
/// per-cell times cannot stand in: it runs up to four cells in one
/// lockstep batch and charges each an even share of the batch's time.
pub fn fleet_timed_cells<'a>(cells: &'a [GridCell], scale: &Scale) -> Vec<&'a GridCell> {
    let policies = scale.grid_policies;
    cells
        .iter()
        .filter(|c| c.index % policies == (c.index / policies) % policies)
        .collect()
}
