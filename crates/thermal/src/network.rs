//! A general lumped thermal-RC network (the "full model" of Figure 3B).
//!
//! Nodes carry a thermal capacitance and a temperature; resistive edges
//! connect nodes to each other and to the fixed-temperature ambient. Power
//! sources inject heat at nodes. Integration is explicit (forward Euler),
//! which is accurate and stable as long as the step is well below the
//! smallest RC product in the network; [`RcNetwork::max_stable_dt`] reports
//! that bound.
//!
//! This model is used to *validate* the paper's simplifications: build the
//! full network (blocks + tangential resistances + dynamic heatsink) and
//! check that the reduced per-block model of [`crate::block_model`] tracks
//! it closely over short horizons.

use crate::{Celsius, Watts};

/// Identifier for a node in an [`RcNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub(crate) usize);

#[derive(Clone, Debug)]
struct Node {
    capacitance: f64,
    temp: f64,
    power: f64,
    /// Fixed-temperature (infinite thermal mass) node.
    fixed: bool,
}

#[derive(Clone, Copy, Debug)]
struct Edge {
    a: usize,
    /// `usize::MAX` denotes the ambient reference.
    b: usize,
    conductance: f64,
}

const AMBIENT: usize = usize::MAX;

/// A lumped thermal-RC network with a fixed-temperature ambient reference.
#[derive(Clone, Debug)]
pub struct RcNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    ambient: Celsius,
    time: f64,
}

impl RcNetwork {
    /// Creates an empty network with the given ambient temperature.
    pub fn new(ambient: Celsius) -> RcNetwork {
        RcNetwork { nodes: Vec::new(), edges: Vec::new(), ambient, time: 0.0 }
    }

    /// Adds a node with thermal capacitance `capacitance` (J/K) starting at
    /// `initial` degrees.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is not positive.
    pub fn add_node(&mut self, capacitance: f64, initial: Celsius) -> NodeId {
        assert!(capacitance > 0.0, "capacitance must be positive");
        self.nodes.push(Node { capacitance, temp: initial, power: 0.0, fixed: false });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a fixed-temperature node (infinite thermal mass), e.g. a
    /// heatsink held constant over short horizons.
    pub fn add_fixed_node(&mut self, temp: Celsius) -> NodeId {
        self.nodes.push(Node { capacitance: 1.0, temp, power: 0.0, fixed: true });
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a thermal resistance `r` (K/W).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive.
    pub fn connect(&mut self, a: NodeId, b: NodeId, r: f64) {
        assert!(r > 0.0, "resistance must be positive");
        self.edges.push(Edge { a: a.0, b: b.0, conductance: 1.0 / r });
    }

    /// Connects a node to the ambient reference through resistance `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive.
    pub fn connect_to_ambient(&mut self, a: NodeId, r: f64) {
        assert!(r > 0.0, "resistance must be positive");
        self.edges.push(Edge { a: a.0, b: AMBIENT, conductance: 1.0 / r });
    }

    /// Sets the heat injected at `node` (W). Replaces any previous value.
    pub fn set_power(&mut self, node: NodeId, power: Watts) {
        self.nodes[node.0].power = power;
    }

    /// Current temperature of `node`.
    pub fn temperature(&self, node: NodeId) -> Celsius {
        self.nodes[node.0].temp
    }

    /// Overrides the temperature of `node` (e.g. to set initial conditions).
    pub fn set_temperature(&mut self, node: NodeId, temp: Celsius) {
        self.nodes[node.0].temp = temp;
    }

    /// Simulated time elapsed (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The largest forward-Euler step that keeps every node's update
    /// contraction stable (`dt < C_i / Σg_i`), with a 2x safety margin.
    ///
    /// Degenerate networks impose no bound and return `INFINITY`: an
    /// empty network, a fixed-only network, and free nodes with no
    /// edges at all (their Euler update `T += dt·P/C` has no
    /// contraction to destabilize). [`RcNetwork::run`] clamps with
    /// `min`, so an infinite bound simply leaves the caller's `dt`
    /// untouched.
    pub fn max_stable_dt(&self) -> f64 {
        let mut total_g = vec![0.0f64; self.nodes.len()];
        for e in &self.edges {
            total_g[e.a] += e.conductance;
            if e.b != AMBIENT {
                total_g[e.b] += e.conductance;
            }
        }
        self.nodes
            .iter()
            .zip(&total_g)
            .filter(|(n, &g)| !n.fixed && g > 0.0)
            .map(|(n, &g)| n.capacitance / g)
            .fold(f64::INFINITY, f64::min)
            / 2.0
    }

    /// Advances the network by `dt` seconds with one forward-Euler step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        // Net heat inflow per node.
        let mut inflow: Vec<f64> = self.nodes.iter().map(|n| n.power).collect();
        for e in &self.edges {
            let tb = if e.b == AMBIENT { self.ambient } else { self.nodes[e.b].temp };
            let q = (self.nodes[e.a].temp - tb) * e.conductance;
            inflow[e.a] -= q;
            if e.b != AMBIENT {
                inflow[e.b] += q;
            }
        }
        for (n, q) in self.nodes.iter_mut().zip(&inflow) {
            if !n.fixed {
                n.temp += dt * q / n.capacitance;
            }
        }
        self.time += dt;
    }

    /// Runs for `duration` seconds using steps of at most `dt`
    /// (clamped to the stability bound).
    ///
    /// The horizon is honored exactly: when `duration` is not an integer
    /// multiple of the (clamped) step, the last step is shortened so that
    /// [`RcNetwork::time`] advances by exactly `duration` rather than
    /// overshooting to the next step boundary.
    pub fn run(&mut self, duration: f64, dt: f64) {
        if duration <= 0.0 {
            return;
        }
        let dt = dt.min(self.max_stable_dt());
        let start = self.time;
        let steps = (duration / dt).ceil().max(1.0) as u64;
        for _ in 0..steps.saturating_sub(1) {
            self.step(dt);
        }
        // Final (possibly partial) step: exactly the remaining interval,
        // guarding against a zero/negative remainder from accumulated
        // floating-point drift.
        let remaining = start + duration - self.time;
        if remaining > 0.0 {
            self.step(remaining);
        }
        // Pin the clock to the requested horizon so repeated `run` calls
        // cannot accumulate rounding drift.
        self.time = start + duration;
    }

    /// Solves directly for the steady-state temperatures (Gauss-Seidel on
    /// the conductance system `G·T = P + g_amb·T_amb`), without
    /// integrating the dynamics. Fixed nodes keep their set temperature.
    ///
    /// Returns one temperature per node, or `None` if the iteration fails
    /// to converge (e.g. a floating node with no path to any temperature
    /// reference has no unique steady state).
    pub fn steady_state(&self) -> Option<Vec<f64>> {
        let n = self.nodes.len();
        let mut temps: Vec<f64> = self.nodes.iter().map(|nd| nd.temp).collect();
        // Precompute adjacency: per node, (other, conductance) pairs plus
        // conductance to ambient.
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut g_amb = vec![0.0f64; n];
        for e in &self.edges {
            if e.b == AMBIENT {
                g_amb[e.a] += e.conductance;
            } else {
                adj[e.a].push((e.b, e.conductance));
                adj[e.b].push((e.a, e.conductance));
            }
        }
        let mut worst = f64::INFINITY;
        for _ in 0..100_000 {
            worst = 0.0;
            for i in 0..n {
                if self.nodes[i].fixed {
                    continue;
                }
                let mut g_total = g_amb[i];
                let mut inflow = self.nodes[i].power + g_amb[i] * self.ambient;
                for &(j, g) in &adj[i] {
                    g_total += g;
                    inflow += g * temps[j];
                }
                if g_total == 0.0 {
                    return None; // isolated node: no steady state
                }
                let new = inflow / g_total;
                worst = worst.max((new - temps[i]).abs());
                temps[i] = new;
            }
            if worst < 1e-10 {
                return Some(temps);
            }
        }
        if worst < 1e-6 {
            Some(temps)
        } else {
            None
        }
    }

    /// Steady-state check: total power injected equals total power flowing
    /// to ambient/fixed nodes, within `tol` watts.
    pub fn is_settled(&self, tol: f64) -> bool {
        let mut inflow: Vec<f64> = self.nodes.iter().map(|n| n.power).collect();
        for e in &self.edges {
            let tb = if e.b == AMBIENT { self.ambient } else { self.nodes[e.b].temp };
            let q = (self.nodes[e.a].temp - tb) * e.conductance;
            inflow[e.a] -= q;
            if e.b != AMBIENT {
                inflow[e.b] += q;
            }
        }
        self.nodes
            .iter()
            .zip(&inflow)
            .all(|(n, &q)| n.fixed || q.abs() < tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single RC to ambient: analytic step response
    /// `T(t) = T_amb + P·R·(1 - e^{-t/RC})`.
    #[test]
    fn single_rc_matches_analytic_step_response() {
        let (r, c, p, amb) = (2.0, 0.5, 10.0, 27.0);
        let mut net = RcNetwork::new(amb);
        let n = net.add_node(c, amb);
        net.connect_to_ambient(n, r);
        net.set_power(n, p);
        let dt = 1e-4;
        let tau = r * c;
        for k in 1..=10_000 {
            net.step(dt);
            let t = k as f64 * dt;
            let expect = amb + p * r * (1.0 - (-t / tau).exp());
            assert!(
                (net.temperature(n) - expect).abs() < 0.05,
                "t={t}: {} vs {expect}",
                net.temperature(n)
            );
        }
    }

    #[test]
    fn paper_package_example_settles_at_77c() {
        let mut net = RcNetwork::new(27.0);
        let die = net.add_node(0.5, 27.0);
        let sink = net.add_node(60.0, 27.0);
        net.connect(die, sink, 1.0);
        net.connect_to_ambient(sink, 1.0);
        net.set_power(die, 25.0);
        net.run(1_000.0, 0.01);
        assert!((net.temperature(die) - 77.0).abs() < 0.1, "die = {}", net.temperature(die));
        assert!((net.temperature(sink) - 52.0).abs() < 0.1, "sink = {}", net.temperature(sink));
        assert!(net.is_settled(0.01));
    }

    #[test]
    fn fixed_node_holds_temperature() {
        let mut net = RcNetwork::new(27.0);
        let sink = net.add_fixed_node(100.0);
        let blk = net.add_node(7e-5, 100.0);
        net.connect(blk, sink, 1.2);
        net.set_power(blk, 5.0);
        net.run(0.01, 1e-6);
        assert_eq!(net.temperature(sink), 100.0);
        assert!((net.temperature(blk) - 106.0).abs() < 0.05);
    }

    #[test]
    fn heat_flows_from_hot_to_cold() {
        let mut net = RcNetwork::new(27.0);
        let a = net.add_node(1.0, 80.0);
        let b = net.add_node(1.0, 20.0);
        net.connect(a, b, 1.0);
        net.run(20.0, 1e-3);
        // No path to ambient: both approach the mean.
        assert!((net.temperature(a) - 50.0).abs() < 0.1);
        assert!((net.temperature(b) - 50.0).abs() < 0.1);
    }

    #[test]
    fn stability_bound_is_respected() {
        let mut net = RcNetwork::new(27.0);
        let n = net.add_node(1e-4, 27.0);
        net.connect_to_ambient(n, 1.0);
        let bound = net.max_stable_dt();
        assert!(bound <= 1e-4 / 2.0 + 1e-12);
        net.set_power(n, 3.0);
        net.run(0.01, 1.0); // dt clamped internally
        assert!((net.temperature(n) - 30.0).abs() < 0.05);
    }

    #[test]
    fn energy_conservation_without_ambient() {
        // Closed system: capacitance-weighted mean temperature is invariant.
        let mut net = RcNetwork::new(0.0);
        let a = net.add_node(2.0, 90.0);
        let b = net.add_node(1.0, 30.0);
        let c = net.add_node(3.0, 50.0);
        net.connect(a, b, 0.7);
        net.connect(b, c, 1.3);
        net.connect(a, c, 2.9);
        let mean0 = (2.0 * 90.0 + 30.0 + 3.0 * 50.0) / 6.0;
        net.run(5.0, 1e-3);
        let mean1 = (2.0 * net.temperature(a) + net.temperature(b) + 3.0 * net.temperature(c)) / 6.0;
        assert!((mean0 - mean1).abs() < 1e-6);
    }

    #[test]
    fn steady_state_solver_matches_integration() {
        let mut net = RcNetwork::new(27.0);
        let die = net.add_node(0.5, 27.0);
        let sink = net.add_node(60.0, 27.0);
        net.connect(die, sink, 1.0);
        net.connect_to_ambient(sink, 1.0);
        net.set_power(die, 25.0);
        let ss = net.steady_state().expect("converges");
        assert!((ss[0] - 77.0).abs() < 1e-6, "die ss {}", ss[0]);
        assert!((ss[1] - 52.0).abs() < 1e-6, "sink ss {}", ss[1]);
        // And the dynamics land there.
        net.run(1_000.0, 0.01);
        assert!((net.temperature(die) - ss[0]).abs() < 0.1);
    }

    #[test]
    fn steady_state_respects_fixed_nodes() {
        let mut net = RcNetwork::new(27.0);
        let sink = net.add_fixed_node(103.0);
        let a = net.add_node(1e-4, 20.0);
        let b = net.add_node(2e-4, 20.0);
        net.connect(a, sink, 2.0);
        net.connect(a, b, 1.0);
        net.set_power(a, 3.0);
        let ss = net.steady_state().expect("converges");
        assert_eq!(ss[0], 103.0, "fixed node pinned");
        // b has no own path to a reference: it equilibrates with a.
        assert!((ss[2] - ss[1]).abs() < 1e-8);
        // a: 3 W through 2 K/W above 103 C (no net flow to b).
        assert!((ss[1] - 109.0).abs() < 1e-6, "a ss {}", ss[1]);
    }

    #[test]
    fn steady_state_detects_isolated_nodes() {
        let mut net = RcNetwork::new(27.0);
        let _lonely = net.add_node(1.0, 50.0);
        assert!(net.steady_state().is_none());
    }

    /// Degenerate-input audit (regression pins): networks with nothing
    /// to integrate must answer consistently instead of dividing by
    /// zero, spinning, or panicking.
    #[test]
    fn degenerate_networks_have_consistent_answers() {
        // Empty network: no stability bound, a trivially converged
        // (empty) steady state, and `run` is a harmless clock advance.
        let mut empty = RcNetwork::new(27.0);
        assert_eq!(empty.max_stable_dt(), f64::INFINITY);
        assert_eq!(empty.steady_state(), Some(Vec::new()));
        empty.run(1.0, 0.1);
        assert_eq!(empty.time(), 1.0);
        assert!(empty.is_settled(1e-12));

        // Fixed-only network: every temperature is pinned, so there is
        // no bound to respect and the steady state is immediate.
        let mut fixed_only = RcNetwork::new(27.0);
        let a = fixed_only.add_fixed_node(103.0);
        let b = fixed_only.add_fixed_node(45.0);
        fixed_only.connect(a, b, 1.0);
        assert_eq!(fixed_only.max_stable_dt(), f64::INFINITY);
        assert_eq!(fixed_only.steady_state(), Some(vec![103.0, 45.0]));
        fixed_only.run(10.0, 1e-3);
        assert_eq!(fixed_only.temperature(a), 103.0, "fixed nodes never move");
        assert_eq!(fixed_only.temperature(b), 45.0);

        // An edgeless free node is a pure integrator: it bounds nothing
        // (its Euler update has no contraction), heats linearly under
        // power, and has no steady state.
        let mut lonely = RcNetwork::new(27.0);
        let n = lonely.add_node(0.5, 30.0);
        lonely.set_power(n, 2.0);
        assert_eq!(lonely.max_stable_dt(), f64::INFINITY);
        lonely.run(10.0, 0.1);
        assert!((lonely.temperature(n) - 70.0).abs() < 1e-9, "2 W / 0.5 J/K for 10 s = +40 K");
        assert!(lonely.steady_state().is_none());

        // A free node whose only neighbors are fixed still has a unique
        // steady state (the references pin it).
        let mut pinned = RcNetwork::new(27.0);
        let sink = pinned.add_fixed_node(103.0);
        let die = pinned.add_node(1e-4, 20.0);
        pinned.connect(die, sink, 2.0);
        pinned.set_power(die, 5.0);
        let ss = pinned.steady_state().expect("fixed neighbor is a reference");
        assert!((ss[1] - 113.0).abs() < 1e-9, "5 W x 2 K/W above 103 C");
    }

    /// The zero/negative-parameter guards: non-positive (or NaN)
    /// capacitances, resistances, and steps are construction errors,
    /// not silent divisions by zero.
    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn zero_capacitance_is_rejected() {
        RcNetwork::new(27.0).add_node(0.0, 27.0);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn nan_capacitance_is_rejected() {
        RcNetwork::new(27.0).add_node(f64::NAN, 27.0);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_is_rejected() {
        let mut net = RcNetwork::new(27.0);
        let n = net.add_node(1.0, 27.0);
        net.connect_to_ambient(n, 0.0);
    }

    /// Regression: `run(1.0, 0.3)` used to take `ceil(1.0/0.3) = 4` full
    /// 0.3 s steps and leave `time()` at 1.2 s. The horizon must be exact.
    #[test]
    fn run_lands_exactly_on_the_requested_horizon() {
        let mut net = RcNetwork::new(27.0);
        let n = net.add_node(10.0, 27.0);
        net.connect_to_ambient(n, 1.0);
        net.set_power(n, 5.0);
        net.run(1.0, 0.3);
        assert_eq!(net.time(), 1.0, "partial final step honors the horizon");

        // Repeated uneven runs must not accumulate *step* drift: the clock
        // is the exact sum of the requested durations (0.1 has no exact
        // binary representation, hence the epsilon on the literal).
        for _ in 0..7 {
            net.run(0.1, 0.03);
        }
        assert!((net.time() - 1.7).abs() < 1e-12, "time = {}", net.time());

        // And the trajectory still matches the analytic response at the
        // (now exact) horizon: tau = 10 s, so T = 27 + 5·(1 - e^{-1.7/10}).
        let expect = 27.0 + 5.0 * (1.0 - (-1.7f64 / 10.0).exp());
        assert!((net.temperature(n) - expect).abs() < 0.01, "T = {}", net.temperature(n));
    }

    /// An evenly-dividing duration takes only full steps (the pre-fix
    /// behavior), and a non-positive duration is a no-op.
    #[test]
    fn run_edge_cases() {
        let mut net = RcNetwork::new(27.0);
        let n = net.add_node(1.0, 40.0);
        net.connect_to_ambient(n, 2.0);
        net.run(1.0, 0.25);
        assert_eq!(net.time(), 1.0);
        let t_before = net.temperature(n);
        net.run(0.0, 0.25);
        assert_eq!(net.time(), 1.0, "zero duration is a no-op");
        assert_eq!(net.temperature(n), t_before);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_resistance_rejected() {
        let mut net = RcNetwork::new(27.0);
        let n = net.add_node(1.0, 27.0);
        net.connect_to_ambient(n, 0.0);
    }
}
