//! Experiment drivers: one function per paper table/figure family.
//!
//! The `tdtm-bench` binaries are thin wrappers that call these drivers (or
//! run the grids they build) and print tables; keeping the logic here
//! makes it testable. Nothing here reads the environment: scale and
//! worker count are arguments.

use crate::config::SimConfig;
use crate::engine::{ConfigPatch, ExperimentGrid, GridResults};
use crate::metrics::RunReport;
use crate::simulator::Simulator;
use tdtm_dtm::{PolicyKind, SupervisorConfig};
use tdtm_thermal::comparison::AgreementCounts;
use tdtm_workloads::{ThermalCategory, Workload};

/// How much simulation to run per benchmark (scale knob for every
/// experiment driver).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExperimentScale {
    /// Committed instructions per run (post-warmup).
    pub insts: u64,
    /// Cycles excluded from metrics at the start of each run.
    pub warmup_cycles: u64,
}

impl ExperimentScale {
    /// Tiny runs for unit tests.
    pub fn quick() -> ExperimentScale {
        ExperimentScale { insts: 30_000, warmup_cycles: 2_000 }
    }

    /// The default used by the table binaries (~1M instructions each).
    pub fn standard() -> ExperimentScale {
        ExperimentScale { insts: 1_000_000, warmup_cycles: 100_000 }
    }

    /// Longer runs for final numbers.
    pub fn full() -> ExperimentScale {
        ExperimentScale { insts: 4_000_000, warmup_cycles: 200_000 }
    }

    /// A [`SimConfig`] at this scale with the given policy.
    pub fn config(&self, policy: PolicyKind) -> SimConfig {
        let mut cfg = SimConfig {
            max_insts: self.insts,
            thermal_warmup_cycles: self.warmup_cycles,
            ..SimConfig::default()
        };
        cfg.dtm.policy = policy;
        cfg
    }
}

/// Runs one workload with no DTM (the characterization configuration
/// behind Tables 4-8).
pub fn characterize(workload: &Workload, scale: ExperimentScale) -> RunReport {
    let mut sim = Simulator::for_workload(scale.config(PolicyKind::None), workload);
    sim.run()
}

/// Assigns a measured thermal category from a characterization run,
/// using the paper's Table 4/5 structure: emergencies ⇒ extreme; heavy
/// time above the stress threshold (emergency − 1 K) ⇒ high; coming
/// within 2 K of the emergency threshold ⇒ medium; else low.
pub fn categorize(report: &RunReport) -> ThermalCategory {
    categorize_against(report, 111.0)
}

/// [`categorize`] with an explicit emergency threshold.
pub fn categorize_against(report: &RunReport, emergency: f64) -> ThermalCategory {
    if report.emergency_fraction() > 0.001 {
        ThermalCategory::Extreme
    } else if report.stress_fraction() > 0.30 {
        ThermalCategory::High
    } else if report.stress_fraction() > 0.0005
        || report.hottest_block().is_some_and(|b| b.max_temp > emergency - 2.0)
    {
        ThermalCategory::Medium
    } else {
        ThermalCategory::Low
    }
}

/// Per-proxy agreement results for one benchmark (Tables 9 and 10).
#[derive(Clone, Debug)]
pub struct ProxyReport {
    /// Proxy label (e.g. "structure 10000", "chip-wide 500000").
    pub label: String,
    /// Per-block agreement counts (single entry for chip-wide proxies),
    /// labeled with block names.
    pub per_block: Vec<(String, AgreementCounts)>,
}

/// Runs `workload` under `cfg` with one boxcar proxy per window attached,
/// and labels their agreement counts against the RC model: the cell
/// behind [`proxy_comparison`], for a configuration built elsewhere (a
/// grid cell's, say).
pub fn score_proxies(
    cfg: SimConfig,
    workload: &Workload,
    structure_windows: &[usize],
    chipwide_windows: &[usize],
    chip_threshold_w: f64,
) -> (RunReport, Vec<ProxyReport>) {
    let block_names: Vec<String> = cfg.blocks.iter().map(|b| b.name.clone()).collect();
    let mut sim = Simulator::for_workload(cfg, workload);
    for &w in structure_windows {
        sim.add_structure_proxy(w);
    }
    for &w in chipwide_windows {
        sim.add_chipwide_proxy(w, chip_threshold_w);
    }
    let report = sim.run();
    let proxies = sim
        .proxies()
        .iter()
        .map(|p| ProxyReport {
            label: p.label.clone(),
            per_block: p
                .counts
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let name = if p.counts.len() == 1 {
                        "chip".to_string()
                    } else {
                        block_names[i].clone()
                    };
                    (name, *c)
                })
                .collect(),
        })
        .collect();
    (report, proxies)
}

/// Runs one workload with no DTM while scoring boxcar power proxies
/// against the RC thermal model.
pub fn proxy_comparison(
    workload: &Workload,
    scale: ExperimentScale,
    structure_windows: &[usize],
    chipwide_windows: &[usize],
    chip_threshold_w: f64,
) -> (RunReport, Vec<ProxyReport>) {
    let mut cfg = scale.config(PolicyKind::None);
    // Cold-start the thermal state: the proxy comparison is about how the
    // boxcar lags real heating *transients*, so the jump-started steady
    // state would hide exactly the dynamics Tables 9/10 measure.
    cfg.warm_start = false;
    score_proxies(cfg, workload, structure_windows, chipwide_windows, chip_threshold_w)
}

/// One benchmark's DTM-policy comparison (the Section 7 results).
#[derive(Clone, Debug)]
pub struct DtmComparison {
    /// Benchmark name.
    pub bench: String,
    /// The non-DTM baseline.
    pub baseline: RunReport,
    /// One report per evaluated policy.
    pub runs: Vec<RunReport>,
}

impl DtmComparison {
    /// Performance of `policy` as % of the non-DTM baseline.
    pub fn percent_of_baseline(&self, policy: PolicyKind) -> Option<f64> {
        self.runs
            .iter()
            .find(|r| r.policy == policy.to_string())
            .map(|r| r.percent_of(&self.baseline))
    }
}

/// The policy axis for a comparison grid: the non-DTM baseline first,
/// then each requested policy.
fn baseline_first(policies: &[PolicyKind]) -> Vec<PolicyKind> {
    let mut axis = vec![PolicyKind::None];
    axis.extend(policies.iter().copied().filter(|&p| p != PolicyKind::None));
    axis
}

/// The (suite × {baseline, policies…}) policy-comparison grid, for a
/// caller to run and [`group_policy_comparisons`] over.
pub fn compare_policies_grid(scale: ExperimentScale, policies: &[PolicyKind]) -> ExperimentGrid {
    ExperimentGrid::new(scale).suite().policies(&baseline_first(policies))
}

/// Groups an executed comparison grid (baseline-first policy axis, as
/// built by [`compare_policies_grid`]) into per-benchmark comparisons.
///
/// # Panics
///
/// Panics if the grid does not open each benchmark with a
/// [`PolicyKind::None`] baseline cell.
pub fn group_policy_comparisons(results: &GridResults) -> Vec<DtmComparison> {
    let mut out: Vec<DtmComparison> = Vec::new();
    for run in &results.runs {
        if run.policy == PolicyKind::None {
            out.push(DtmComparison {
                bench: run.bench.clone(),
                baseline: run.report.clone(),
                runs: Vec::new(),
            });
        } else {
            let current = out
                .last_mut()
                .filter(|c| c.bench == run.bench)
                .expect("each benchmark must open with its PolicyKind::None baseline");
            current.runs.push(run.report.clone());
        }
    }
    out
}

/// Runs one workload under the baseline and each listed policy, on
/// `threads` engine workers.
pub fn compare_policies(
    workload: &Workload,
    scale: ExperimentScale,
    policies: &[PolicyKind],
    threads: usize,
) -> DtmComparison {
    let grid = ExperimentGrid::new(scale)
        .workload(workload.clone())
        .policies(&baseline_first(policies));
    group_policy_comparisons(&grid.run_threads(threads))
        .pop()
        .expect("one workload yields one comparison")
}

/// Shared setup of every cross-core-interference variant: the chip is
/// pinned hot (107 C heatsink, the configuration the single-core DTM
/// tests use to force engagement) and cores 1..N run *unthrottled* — the
/// DTM-controlled core 0 has to cope with whatever its neighbors conduct
/// into it.
fn hot_neighbors(cfg: &mut SimConfig, cores: usize) {
    cfg.heatsink_temp = 107.0;
    cfg.chip.cores = cores;
    cfg.chip.neighbor_policy = Some(PolicyKind::None);
}

/// The chip variants of the cross-core-interference study: core count ×
/// coupling strength × heterogeneity × supervisor, against a single-core
/// control at the same heatsink temperature.
pub fn interference_variants() -> Vec<(&'static str, ConfigPatch)> {
    vec![
        ("solo", |cfg| hot_neighbors(cfg, 1)),
        ("2core", |cfg| hot_neighbors(cfg, 2)),
        ("2core-uncoupled", |cfg| {
            hot_neighbors(cfg, 2);
            cfg.chip.coupling = 0.0;
        }),
        ("2core-strong", |cfg| {
            hot_neighbors(cfg, 2);
            cfg.chip.coupling = 4.0;
        }),
        ("4core", |cfg| hot_neighbors(cfg, 4)),
        ("4core-hetero", |cfg| {
            hot_neighbors(cfg, 4);
            cfg.chip.heterogeneity = 0.3;
        }),
        ("4core-super", |cfg| {
            hot_neighbors(cfg, 4);
            cfg.chip.supervisor = Some(SupervisorConfig::default());
        }),
    ]
}

/// Builds the cross-core-interference grid for one workload: the non-DTM
/// baseline plus each requested policy, crossed with
/// [`interference_variants`]. Run it with [`GridCell::run_chip`] as the
/// cell driver to keep each chip cell's full
/// [`ChipReport`](crate::multicore::ChipReport).
///
/// [`GridCell::run_chip`]: crate::engine::GridCell::run_chip
pub fn interference_grid(
    workload: &Workload,
    scale: ExperimentScale,
    policies: &[PolicyKind],
) -> ExperimentGrid {
    ExperimentGrid::new(scale)
        .workload(workload.clone())
        .policies(&baseline_first(policies))
        .variants(&interference_variants())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_workloads::by_name;

    #[test]
    fn characterize_reports_cover_the_blocks() {
        let w = by_name("gcc").unwrap();
        let r = characterize(&w, ExperimentScale::quick());
        assert_eq!(r.blocks.len(), 7);
        assert!(r.ipc > 0.5, "gcc stand-in should have decent IPC, got {}", r.ipc);
        assert_eq!(r.policy, "none");
    }

    #[test]
    fn categorize_thresholds() {
        let w = by_name("vpr").unwrap();
        let mut r = characterize(&w, ExperimentScale::quick());
        r.emergency_cycles = 0;
        r.stress_cycles = 0;
        assert_eq!(categorize(&r), ThermalCategory::Low);
        r.stress_cycles = r.cycles / 2;
        assert_eq!(categorize(&r), ThermalCategory::High);
        r.emergency_cycles = r.cycles / 10;
        assert_eq!(categorize(&r), ThermalCategory::Extreme);
    }

    #[test]
    fn proxy_comparison_produces_reports() {
        let w = by_name("gcc").unwrap();
        let (report, proxies) =
            proxy_comparison(&w, ExperimentScale::quick(), &[10_000], &[10_000], 47.0);
        assert_eq!(proxies.len(), 2);
        assert_eq!(proxies[0].per_block.len(), 7);
        assert_eq!(proxies[1].per_block.len(), 1);
        let total: u64 = proxies[1].per_block[0].1.total();
        assert_eq!(total, report.cycles);
    }

    #[test]
    fn compare_policies_runs_all_requested() {
        let w = by_name("gcc").unwrap();
        let cmp = compare_policies(
            &w,
            ExperimentScale::quick(),
            &[PolicyKind::Toggle1, PolicyKind::Pid],
            2,
        );
        assert_eq!(cmp.runs.len(), 2);
        let pct = cmp.percent_of_baseline(PolicyKind::Pid).unwrap();
        assert!(pct > 0.0 && pct <= 100.0 + 1e-9, "pct {pct}");
        assert!(cmp.percent_of_baseline(PolicyKind::Manual).is_none());
    }

    #[test]
    fn grouping_matches_grid_order_and_baselines() {
        let gcc = by_name("gcc").unwrap();
        let art = by_name("art").unwrap();
        let grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(gcc.clone())
            .workload(art)
            .policies(&baseline_first(&[PolicyKind::Toggle1]));
        let grouped = group_policy_comparisons(&grid.run_threads(3));
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].bench, "gcc");
        assert_eq!(grouped[1].bench, "art");
        for cmp in &grouped {
            assert_eq!(cmp.baseline.policy, "none");
            assert_eq!(cmp.runs.len(), 1);
            assert!(cmp.percent_of_baseline(PolicyKind::Toggle1).is_some());
        }
        // The engine-backed single-workload path reproduces the same
        // reports (bitwise: the simulation is deterministic).
        let serial = compare_policies(&gcc, ExperimentScale::quick(), &[PolicyKind::Toggle1], 1);
        assert_eq!(serial.baseline, grouped[0].baseline);
        assert_eq!(serial.runs, grouped[0].runs);
    }

    #[test]
    fn interference_grid_covers_the_scenario_family() {
        let w = by_name("gcc").unwrap();
        let grid = interference_grid(&w, ExperimentScale::quick(), &[PolicyKind::Pid]);
        // {baseline, PID} × 7 chip variants.
        assert_eq!(grid.len(), 2 * interference_variants().len());
        let cells = grid.cells();
        assert_eq!(cells[0].config().chip.cores, 1, "solo control comes first");
        let multicore = cells.iter().filter(|c| c.config().chip.cores > 1).count();
        assert_eq!(multicore, 2 * 6, "every non-solo variant is a real chip");
        let supered = cells.iter().filter(|c| c.config().chip.supervisor.is_some()).count();
        assert_eq!(supered, 2, "one supervised variant per policy");
    }

    #[test]
    fn interference_grid_returns_chip_reports_for_chip_cells() {
        let w = by_name("gcc").unwrap();
        let mut scale = ExperimentScale::quick();
        scale.insts = 10_000;
        scale.warmup_cycles = 500;
        let results = interference_grid(&w, scale, &[PolicyKind::Pid])
            .run_with_threads(2, |cell| cell.run_chip());
        for run in &results.runs {
            let cores = if run.variant == "solo" { 1 } else { usize::from(run.extra.is_some()) };
            match (&run.extra, run.variant) {
                (None, "solo") => {}
                (Some(chip), v) => {
                    assert!(chip.cores.len() > 1, "{v}: chip report expected, cores={cores}");
                    assert_eq!(chip.cores[0], run.report, "{v}: report must be core 0's");
                }
                (None, v) => panic!("{v}: multicore variant missing its chip report"),
            }
        }
    }
}
