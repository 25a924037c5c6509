//! Microbenchmarks backing the paper's claim that the per-block RC model
//! is "computationally efficient": per-cycle thermal stepping must be
//! negligible next to pipeline and power modeling.

use std::hint::black_box;

use tdtm_bench::microbench::bench;
use tdtm_telemetry::{Phase, PhaseProfile};
use tdtm_thermal::block_model::{table3_blocks, BlockModel};
use tdtm_thermal::network::RcNetwork;

fn main() {
    let dt = 1.0 / 1.5e9;
    let powers = [3.0, 8.0, 2.5, 4.0, 9.0, 6.0, 5.0];

    let mut exact = BlockModel::new(table3_blocks(), 103.0, dt);
    bench("block_model_step_exact_7_blocks", || exact.step(black_box(&powers)));

    // The same step behind a telemetry phase timer: what
    // `TelemetryConfig::metrics_and_phases` adds to every thermal step.
    let mut timed = BlockModel::new(table3_blocks(), 103.0, dt);
    let mut profile = PhaseProfile::new();
    bench("block_model_step_exact_phase_timed", || {
        profile.time(Phase::ThermalStep, || timed.step(black_box(&powers)))
    });

    let mut euler = BlockModel::new(table3_blocks(), 103.0, dt);
    bench("block_model_step_euler_7_blocks", || euler.step_euler(black_box(&powers)));

    // The full network (blocks + tangential + heatsink) for comparison:
    // the fidelity the simplified model avoids paying for.
    let mut net = RcNetwork::new(27.0);
    let sink = net.add_fixed_node(103.0);
    let blocks = table3_blocks();
    let nodes: Vec<_> = blocks
        .iter()
        .map(|p| {
            let n = net.add_node(p.c, 103.0);
            net.connect(n, sink, p.r);
            n
        })
        .collect();
    for i in 1..nodes.len() {
        net.connect(nodes[i - 1], nodes[i], 500.0);
    }
    for (n, p) in nodes.iter().zip(powers) {
        net.set_power(*n, p);
    }
    bench("full_rc_network_step_9_nodes", || net.step(black_box(dt)));
}
