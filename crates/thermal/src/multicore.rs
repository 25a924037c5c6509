//! N-core generalization of the per-block thermal model.
//!
//! The paper models one 21264-like core, but its full lumped model
//! (Figure 3B) already supports arbitrary networks. This module scales
//! the validated reduction out to a chip: [`MulticoreFloorplan`]
//! replicates the Table 3 per-block RC models once per core and joins
//! neighboring cores through tangential resistances (Section 4.3's
//! `R_tan` formula, the same element the single-core reduction measures
//! and drops — across cores it is the *only* lateral heat path, so it
//! stays).
//!
//! Two fidelities share one topology:
//!
//! * [`CoupledChip`] — the hot-path kernel: per-core exact-decay
//!   [`BlockModel`] steps plus an operator-splitting coupling term.
//!   Each step first computes every inter-core flow
//!   `q = (T_a - T_b)·g` from the *pre-step* temperatures, then steps
//!   every core with the flow folded into its block powers. With no
//!   coupling edges the step degenerates to the plain single-core
//!   kernel, bit for bit.
//! * [`MulticoreFloorplan::build_reference`] — the same chip as a full
//!   forward-Euler [`RcNetwork`], used by the property tests to pin the
//!   splitting kernel within tolerance.
//!
//! Heterogeneity (Bhat et al., arXiv:2003.11081, analyze DTM stability
//! across thermally heterogeneous cores) is modeled as a per-core scale
//! on the normal resistances: core `k` of `N` gets `R · (1 + h·k/(N-1))`,
//! i.e. later cores have a worse conduction path to the heat spreader
//! (farther from its center), so they run hotter at equal power.

use crate::block_model::{table3_blocks, BlockModel, BlockParams};
use crate::network::{NodeId, RcNetwork};
use crate::silicon::SiliconProperties;
use crate::{Celsius, Watts};

/// A tangential heat path between the same functional block of two cores.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CouplingEdge {
    /// First core index.
    pub core_a: usize,
    /// Second core index.
    pub core_b: usize,
    /// Block index within each core.
    pub block: usize,
    /// Thermal conductance of the path, W/K.
    pub conductance: f64,
}

impl CouplingEdge {
    /// Heat flow from `core_a` to `core_b` (W) at the given endpoint
    /// temperatures — the same expression the [`RcNetwork`] Euler step
    /// uses for a resistive edge.
    pub fn flow(&self, t_a: Celsius, t_b: Celsius) -> Watts {
        (t_a - t_b) * self.conductance
    }
}

/// Declarative description of an N-core chip: replicated per-core block
/// parameters plus the inter-core coupling topology.
#[derive(Clone, PartialEq, Debug)]
pub struct MulticoreFloorplan {
    cores: usize,
    coupling: f64,
    heterogeneity: f64,
    blocks: Vec<BlockParams>,
    silicon: SiliconProperties,
}

impl MulticoreFloorplan {
    /// An `cores`-core chip of Table 3 cores in a linear chain.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> MulticoreFloorplan {
        MulticoreFloorplan::with_blocks(cores, table3_blocks())
    }

    /// An `cores`-core chip replicating the given per-core block set.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `blocks` is empty.
    pub fn with_blocks(cores: usize, blocks: Vec<BlockParams>) -> MulticoreFloorplan {
        assert!(cores > 0, "need at least one core");
        assert!(!blocks.is_empty(), "need at least one block per core");
        MulticoreFloorplan {
            cores,
            coupling: 1.0,
            heterogeneity: 0.0,
            blocks,
            silicon: SiliconProperties::effective(),
        }
    }

    /// Sets the coupling-strength multiplier on every inter-core
    /// conductance. `1.0` is the physical tangential value; `0.0`
    /// disconnects the cores entirely.
    ///
    /// # Panics
    ///
    /// Panics if `coupling` is negative or non-finite.
    pub fn coupling(mut self, coupling: f64) -> MulticoreFloorplan {
        assert!(coupling.is_finite() && coupling >= 0.0, "coupling must be >= 0");
        self.coupling = coupling;
        self
    }

    /// Sets the heterogeneity factor `h`: core `k` of `N` gets its normal
    /// resistances scaled by `1 + h·k/(N-1)` (core 0 always keeps the
    /// nominal parameters). `0.0` makes the chip homogeneous.
    ///
    /// # Panics
    ///
    /// Panics if `h` is negative or non-finite.
    pub fn heterogeneity(mut self, h: f64) -> MulticoreFloorplan {
        assert!(h.is_finite() && h >= 0.0, "heterogeneity must be >= 0");
        self.heterogeneity = h;
        self
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The normal-resistance scale applied to core `k`.
    pub fn core_scale(&self, k: usize) -> f64 {
        assert!(k < self.cores, "core index out of range");
        if self.cores == 1 {
            1.0
        } else {
            1.0 + self.heterogeneity * k as f64 / (self.cores - 1) as f64
        }
    }

    /// The block parameters of core `k` (normal R scaled by the core's
    /// heterogeneity factor; capacitances and names unchanged, so core 0
    /// of any chip is exactly the single-core parameter set).
    pub fn core_params(&self, k: usize) -> Vec<BlockParams> {
        let scale = self.core_scale(k);
        self.blocks
            .iter()
            .map(|b| BlockParams { r: b.r * scale, ..b.clone() })
            .collect()
    }

    /// The inter-core coupling edges: adjacent cores in the chain are
    /// joined block-by-block through the tangential resistance of the
    /// block's area (two half-paths in series, as in
    /// [`crate::floorplan::FloorplanBuilder`]), scaled by the coupling
    /// multiplier. Zero coupling yields no edges.
    pub fn edges(&self) -> Vec<CouplingEdge> {
        let mut edges = Vec::new();
        if self.coupling == 0.0 {
            return edges;
        }
        for k in 1..self.cores {
            for (i, b) in self.blocks.iter().enumerate() {
                let r_tan = self.silicon.r_tangential_for_block(b.area).0;
                edges.push(CouplingEdge {
                    core_a: k - 1,
                    core_b: k,
                    block: i,
                    conductance: self.coupling / r_tan,
                });
            }
        }
        edges
    }

    /// Builds one exact-decay [`BlockModel`] per core, every block at the
    /// heatsink temperature.
    pub fn build_models(&self, heatsink: Celsius, dt: f64) -> Vec<BlockModel> {
        (0..self.cores)
            .map(|k| BlockModel::new(self.core_params(k), heatsink, dt))
            .collect()
    }

    /// Builds the hot-path coupled kernel.
    pub fn build_chip(&self, heatsink: Celsius, dt: f64) -> CoupledChip {
        CoupledChip::new(self.build_models(heatsink, dt), self.edges())
    }

    /// Builds the same chip as a full [`RcNetwork`]: a fixed-temperature
    /// heatsink node (the reduction's constant-heatsink assumption), one
    /// node per block per core through its (scaled) normal resistance,
    /// and the coupling edges as explicit resistances.
    pub fn build_reference(&self, heatsink: Celsius) -> MulticoreReference {
        let mut network = RcNetwork::new(heatsink);
        let sink = network.add_fixed_node(heatsink);
        let nodes: Vec<Vec<NodeId>> = (0..self.cores)
            .map(|k| {
                self.core_params(k)
                    .iter()
                    .map(|b| {
                        let n = network.add_node(b.c, heatsink);
                        network.connect(n, sink, b.r);
                        n
                    })
                    .collect()
            })
            .collect();
        for e in self.edges() {
            network.connect(
                nodes[e.core_a][e.block],
                nodes[e.core_b][e.block],
                1.0 / e.conductance,
            );
        }
        MulticoreReference { network, heatsink: sink, nodes }
    }
}

/// The full-model rendering of a [`MulticoreFloorplan`], with handles to
/// its nodes.
#[derive(Debug)]
pub struct MulticoreReference {
    /// The network itself.
    pub network: RcNetwork,
    /// The fixed-temperature heatsink node.
    pub heatsink: NodeId,
    /// `nodes[core][block]` — one node per block per core.
    pub nodes: Vec<Vec<NodeId>>,
}

/// The coupled multicore kernel: per-core exact-decay block models plus
/// an operator-splitting inter-core coupling term.
#[derive(Clone, Debug)]
pub struct CoupledChip {
    cores: Vec<BlockModel>,
    edges: Vec<CouplingEdge>,
    /// Scratch: per-core net coupling inflow, W (recomputed each step).
    flows: Vec<Vec<f64>>,
    /// Scratch: one core's effective block powers for the step.
    heat: Vec<f64>,
}

impl CoupledChip {
    /// Assembles a chip from per-core models and coupling edges.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, cores disagree on block count, or an
    /// edge references an out-of-range core/block or has a non-positive
    /// conductance.
    pub fn new(cores: Vec<BlockModel>, edges: Vec<CouplingEdge>) -> CoupledChip {
        assert!(!cores.is_empty(), "need at least one core");
        let blocks = cores[0].len();
        assert!(cores.iter().all(|c| c.len() == blocks), "cores must agree on block count");
        for e in &edges {
            assert!(
                e.core_a < cores.len() && e.core_b < cores.len() && e.block < blocks,
                "coupling edge out of range"
            );
            assert!(e.conductance > 0.0, "conductance must be positive");
        }
        let flows = vec![vec![0.0; blocks]; cores.len()];
        CoupledChip { cores, edges, flows, heat: vec![0.0; blocks] }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The per-core block models.
    pub fn core_models(&self) -> &[BlockModel] {
        &self.cores
    }

    /// Mutable access to one core's model (e.g. to retime its `dt` under
    /// frequency scaling, or to set initial temperatures).
    pub fn core_mut(&mut self, k: usize) -> &mut BlockModel {
        &mut self.cores[k]
    }

    /// The coupling edges.
    pub fn edges(&self) -> &[CouplingEdge] {
        &self.edges
    }

    /// Block temperatures of core `k`.
    pub fn temperatures(&self, k: usize) -> &[Celsius] {
        self.cores[k].temperatures()
    }

    /// The chip-wide hottest block: `(core, block, temperature)`.
    pub fn hottest(&self) -> (usize, usize, Celsius) {
        let mut best = (0, 0, f64::NEG_INFINITY);
        for (k, core) in self.cores.iter().enumerate() {
            let (b, t) = core.hottest();
            if t > best.2 {
                best = (k, b, t);
            }
        }
        best
    }

    /// Advances every core one step under `powers[core][block]` watts.
    ///
    /// Operator splitting: inter-core flows are evaluated from the
    /// pre-step temperatures of *all* cores first, then each core takes
    /// its exact-decay step with the flow held constant — the same
    /// constant-power-over-the-step treatment the single-core kernel
    /// applies to dynamic power. With no coupling edges each core steps
    /// on its raw powers (bit-identical to an uncoupled [`BlockModel`]).
    ///
    /// # Panics
    ///
    /// Panics if `powers` does not hold one slice per core of one power
    /// per block.
    pub fn step<P: AsRef<[Watts]>>(&mut self, powers: &[P]) {
        self.step_inner(powers, None);
    }

    /// [`step`](CoupledChip::step) with a per-core activity mask: inactive
    /// (parked) cores do not step — their temperatures freeze — but they
    /// still participate in the flow evaluation, acting as thermal
    /// reservoirs for their neighbors. With every core active this is
    /// exactly [`step`](CoupledChip::step).
    ///
    /// # Panics
    ///
    /// Panics if `active` does not hold one flag per core, or on any
    /// [`step`](CoupledChip::step) shape violation.
    pub fn step_masked<P: AsRef<[Watts]>>(&mut self, powers: &[P], active: &[bool]) {
        assert_eq!(active.len(), self.cores.len(), "one active flag per core");
        self.step_inner(powers, Some(active));
    }

    fn step_inner<P: AsRef<[Watts]>>(&mut self, powers: &[P], active: Option<&[bool]>) {
        assert_eq!(powers.len(), self.cores.len(), "one power set per core");
        let live = |k: usize| active.is_none_or(|a| a[k]);
        if self.edges.is_empty() {
            for (k, (core, p)) in self.cores.iter_mut().zip(powers).enumerate() {
                if live(k) {
                    core.step(p.as_ref());
                }
            }
            return;
        }
        for f in &mut self.flows {
            f.fill(0.0);
        }
        for e in &self.edges {
            let q = e.flow(
                self.cores[e.core_a].temperatures()[e.block],
                self.cores[e.core_b].temperatures()[e.block],
            );
            self.flows[e.core_a][e.block] -= q;
            self.flows[e.core_b][e.block] += q;
        }
        for (k, core) in self.cores.iter_mut().enumerate() {
            if !live(k) {
                continue;
            }
            for (h, (&p, &f)) in self.heat.iter_mut().zip(powers[k].as_ref().iter().zip(&self.flows[k])) {
                *h = p + f;
            }
            core.step(&self.heat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_zero_keeps_the_nominal_parameters() {
        let plan = MulticoreFloorplan::new(4).heterogeneity(0.3);
        assert_eq!(plan.core_params(0), table3_blocks(), "core 0 is the single-core set");
        let single = MulticoreFloorplan::new(1).heterogeneity(0.3);
        assert_eq!(single.core_params(0), table3_blocks());
        // Later cores conduct worse, monotonically.
        for k in 1..4 {
            assert!(plan.core_scale(k) > plan.core_scale(k - 1));
            for (hot, base) in plan.core_params(k).iter().zip(table3_blocks()) {
                assert!(hot.r > base.r);
                assert_eq!(hot.c, base.c, "heterogeneity scales R only");
            }
        }
    }

    #[test]
    fn edge_topology_is_a_block_wise_chain() {
        let plan = MulticoreFloorplan::new(3);
        let edges = plan.edges();
        assert_eq!(edges.len(), 2 * 7, "two adjacent pairs x 7 blocks");
        for e in &edges {
            assert_eq!(e.core_b, e.core_a + 1);
            assert!(e.conductance > 0.0);
        }
        // Coupling strength scales conductance linearly; zero disconnects.
        let strong = MulticoreFloorplan::new(3).coupling(2.0).edges();
        assert_eq!(strong[0].conductance, 2.0 * edges[0].conductance);
        assert!(MulticoreFloorplan::new(3).coupling(0.0).edges().is_empty());
        assert!(MulticoreFloorplan::new(1).edges().is_empty(), "one core has no neighbors");
    }

    #[test]
    fn coupling_is_much_weaker_than_the_heatsink_path() {
        // Sanity on magnitudes: the tangential path must be a perturbation
        // (R_tan >> R_nor), or the single-core reduction would be invalid.
        let plan = MulticoreFloorplan::new(2);
        for e in plan.edges() {
            let r_nor = plan.core_params(0)[e.block].r;
            assert!(1.0 / e.conductance > 50.0 * r_nor, "block {}", e.block);
        }
    }

    #[test]
    fn uncoupled_chip_steps_bit_identically_to_lone_models() {
        // The N=1 / zero-coupling degenerate case must be *exactly* the
        // single-core kernel — this is what makes a one-core chip
        // byte-identical to the single-core simulator.
        let dt = 1.0 / 1.5e9;
        let plan = MulticoreFloorplan::new(2).coupling(0.0);
        let mut chip = plan.build_chip(103.0, dt);
        let mut lone = plan.build_models(103.0, dt);
        let powers = vec![
            vec![2.0, 6.0, 3.0, 2.5, 5.0, 6.5, 1.0],
            vec![1.0, 2.0, 7.0, 0.5, 3.0, 4.5, 2.0],
        ];
        for _ in 0..5_000 {
            chip.step(&powers);
            for (m, p) in lone.iter_mut().zip(&powers) {
                m.step(p);
            }
        }
        for (k, model) in lone.iter().enumerate() {
            assert_eq!(chip.temperatures(k), model.temperatures(), "core {k}");
        }
    }

    #[test]
    fn hot_neighbor_raises_a_cold_core() {
        // The tentpole's observable: heat leaks across the die. Core 1
        // burns 8 W in every block; idle core 0 must end warmer with
        // coupling than without, and the effect grows with coupling
        // strength.
        let dt = 1e-6;
        let peak_core0 = |coupling: f64| -> f64 {
            let mut chip = MulticoreFloorplan::new(2).coupling(coupling).build_chip(103.0, dt);
            let powers = vec![vec![0.0; 7], vec![8.0; 7]];
            for _ in 0..2_000 {
                // ~24 block time constants: effectively steady state.
                chip.step(&powers);
            }
            chip.temperatures(0).iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        };
        let isolated = peak_core0(0.0);
        let coupled = peak_core0(1.0);
        let strong = peak_core0(4.0);
        assert_eq!(isolated, 103.0, "no coupling: idle core stays at the heatsink");
        assert!(coupled > isolated + 1e-3, "coupling leaks heat: {coupled} vs {isolated}");
        assert!(strong > coupled + 1e-3, "stronger coupling leaks more: {strong} vs {coupled}");
    }

    #[test]
    fn heterogeneous_cores_run_hotter_at_equal_power() {
        let dt = 1e-6;
        let mut chip =
            MulticoreFloorplan::new(3).coupling(0.0).heterogeneity(0.4).build_chip(103.0, dt);
        let powers = vec![vec![4.0; 7]; 3];
        for _ in 0..2_000 {
            chip.step(&powers);
        }
        let peak = |k: usize| -> f64 {
            chip.temperatures(k).iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        };
        assert!(peak(1) > peak(0) + 0.1);
        assert!(peak(2) > peak(1) + 0.1);
    }

    /// The ISSUE's required property: the splitting kernel must track a
    /// reference [`RcNetwork`] integration of the *same* topology within
    /// tolerance, across random chip shapes, couplings, and powers.
    #[test]
    fn property_coupled_step_tracks_the_reference_network()  {
        tdtm_prng::cases(8, 0x0C0A_51ED, |rng| {
            let cores = 2 + rng.index(3); // 2..=4
            let coupling = 0.5 + rng.next_f64() * 3.5;
            let h = rng.next_f64() * 0.3;
            let plan = MulticoreFloorplan::new(cores).coupling(coupling).heterogeneity(h);
            let heatsink = 103.0;
            let dt = 1e-7;
            let mut chip = plan.build_chip(heatsink, dt);
            let mut reference = plan.build_reference(heatsink);
            assert!(dt < reference.network.max_stable_dt(), "test dt must be Euler-stable");

            let powers: Vec<Vec<f64>> = (0..cores)
                .map(|_| (0..7).map(|_| rng.next_f64() * 8.0).collect())
                .collect();
            for (k, core_nodes) in reference.nodes.iter().enumerate() {
                for (i, &n) in core_nodes.iter().enumerate() {
                    reference.network.set_power(n, powers[k][i]);
                }
            }

            // ~3.5 block time constants: covers transient and near-steady.
            for _ in 0..3_000 {
                chip.step(&powers);
                reference.network.step(dt);
            }
            for (k, core_nodes) in reference.nodes.iter().enumerate() {
                for (i, &n) in core_nodes.iter().enumerate() {
                    let kernel = chip.temperatures(k)[i];
                    let full = reference.network.temperature(n);
                    assert!(
                        (kernel - full).abs() < 0.1,
                        "core {k} block {i}: kernel {kernel} vs reference {full} \
                         (cores={cores}, coupling={coupling:.2}, h={h:.2})"
                    );
                }
            }
        });
    }

    #[test]
    fn per_core_dt_retiming_is_respected() {
        // Frequency scaling retimes one core's dt without touching its
        // neighbors: the retimed core must integrate at its own rate.
        let dt = 1e-6;
        let mut chip = MulticoreFloorplan::new(2).coupling(0.0).build_chip(103.0, dt);
        chip.core_mut(1).set_dt(2.0 * dt);
        let powers = vec![vec![5.0; 7]; 2];
        for _ in 0..10 {
            chip.step(&powers);
        }
        // Same power, same params, but core 1 advanced twice the time:
        // it is strictly closer to steady state (warmer).
        assert!(chip.temperatures(1)[0] > chip.temperatures(0)[0]);
    }

    #[test]
    fn masked_step_freezes_parked_cores_but_keeps_them_as_reservoirs() {
        let dt = 1e-6;
        let powers = vec![vec![0.0; 7], vec![8.0; 7]];
        // Uncoupled: the parked hot core freezes exactly where it parked.
        let mut chip = MulticoreFloorplan::new(2).coupling(0.0).build_chip(103.0, dt);
        for _ in 0..500 {
            chip.step(&powers);
        }
        let frozen = chip.temperatures(1).to_vec();
        for _ in 0..500 {
            chip.step_masked(&powers, &[true, false]);
        }
        assert_eq!(chip.temperatures(1), &frozen[..], "parked core holds its temperature");

        // Coupled: the frozen hot core still leaks heat into its active
        // idle neighbor.
        let mut chip = MulticoreFloorplan::new(2).coupling(4.0).build_chip(103.0, dt);
        for _ in 0..2_000 {
            chip.step(&powers);
        }
        let frozen = chip.temperatures(1).to_vec();
        let before = chip.temperatures(0)[0];
        for _ in 0..2_000 {
            chip.step_masked(&vec![vec![0.0; 7]; 2], &[true, false]);
        }
        assert_eq!(chip.temperatures(1), &frozen[..]);
        assert!(
            chip.temperatures(0)[0] > 103.0 && before > 103.0,
            "reservoir keeps the neighbor above the heatsink"
        );

        // All-active mask is exactly the unmasked step.
        let mut a = MulticoreFloorplan::new(2).build_chip(103.0, dt);
        let mut b = a.clone();
        for _ in 0..100 {
            a.step(&powers);
            b.step_masked(&powers, &[true, true]);
        }
        assert_eq!(a.temperatures(0), b.temperatures(0));
        assert_eq!(a.temperatures(1), b.temperatures(1));
    }

    #[test]
    #[should_panic(expected = "one power set per core")]
    fn power_shape_checked() {
        let mut chip = MulticoreFloorplan::new(2).build_chip(103.0, 1e-6);
        chip.step(&[vec![0.0; 7]]);
    }
}
