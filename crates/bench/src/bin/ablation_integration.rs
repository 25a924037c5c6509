//! Thermal-integration ablation: the paper integrates Eq. 5 (forward
//! Euler) every cycle. This harness quantifies (a) the exact-exponential
//! step this reproduction uses instead, and (b) how far the update can be
//! batched (one step per N cycles using the mean power over the batch)
//! before temperature error matters — the cost knob for faster
//! simulation.

use tdtm_core::engine::shard_map;
use tdtm_core::report::TextTable;
use tdtm_thermal::block_model::{table3_blocks, BlockModel};

/// A deterministic bursty power trace generator (hot/cool phases plus a
/// pseudo-random flutter), mimicking per-block power from a real run.
fn power_at(cycle: u64) -> [f64; 7] {
    let phase_hot = (cycle / 150_000).is_multiple_of(2);
    let flutter = ((cycle.wrapping_mul(2654435761)) >> 24) as f64 / 255.0; // 0..1
    let base = if phase_hot { 1.0 } else { 0.25 };
    [
        2.0 * base + flutter,
        9.0 * base,
        3.5 * base + 0.5 * flutter,
        3.0 * base,
        5.0 * base,
        7.0 * base + flutter,
        1.0,
    ]
}

fn main() {
    println!("== Ablation: thermal integration fidelity vs cost ==\n");
    let dt = 1.0 / 1.5e9;
    let cycles = 1_500_000u64;

    // Reference: exact step every cycle.
    let mut reference = BlockModel::new(table3_blocks(), 103.0, dt);
    let mut euler = BlockModel::new(table3_blocks(), 103.0, dt);
    let mut euler_err = 0.0f64;
    for c in 0..cycles {
        let p = power_at(c);
        reference.step(&p);
        euler.step_euler(&p);
        for i in 0..7 {
            euler_err = euler_err.max((reference.temperatures()[i] - euler.temperatures()[i]).abs());
        }
    }
    println!(
        "paper's Eq. 5 (per-cycle forward Euler) vs exact step: max divergence {euler_err:.2e} K over {} cycles\n",
        cycles
    );

    // Each batch size is an independent cell (its reference model is
    // recomputed inside the cell, so cells share nothing); shard them
    // across the engine's workers. shard_map returns rows in batch order
    // regardless of thread count.
    let batches = [1u64, 4, 16, 64, 256, 1024, 4096, 16_384];
    let threads = tdtm_bench::from_env().threads;
    let rows = shard_map(&batches, threads, |_, &batch| {
        let start = std::time::Instant::now();
        let mut reference = BlockModel::new(table3_blocks(), 103.0, dt);
        let mut batched = BlockModel::new(table3_blocks(), 103.0, dt * batch as f64);
        let mut acc = [0.0f64; 7];
        let mut max_err = 0.0f64;
        let mut steps = 0u64;
        for c in 0..cycles {
            let p = power_at(c);
            reference.step(&p);
            for i in 0..7 {
                acc[i] += p[i];
            }
            if (c + 1) % batch == 0 {
                let mean = acc.map(|a| a / batch as f64);
                batched.step(&mean);
                acc = [0.0; 7];
                steps += 1;
                for i in 0..7 {
                    max_err = max_err
                        .max((reference.temperatures()[i] - batched.temperatures()[i]).abs());
                }
            }
        }
        (batch, max_err, steps, start.elapsed().as_secs_f64())
    });

    let mut t =
        TextTable::new(["batch (cycles)", "max error vs per-cycle (K)", "steps taken", "wall (s)"]);
    for (batch, max_err, steps, wall) in rows {
        t.row([
            batch.to_string(),
            format!("{max_err:.2e}"),
            steps.to_string(),
            format!("{wall:.3}"),
        ]);
    }
    println!("({} cells on {threads} thread(s))\n", batches.len());
    println!("{}", t.render());
    println!("batching the exact update with mean power stays within millikelvins out to");
    println!("thousands of cycles (the thermal dynamics are the 84 us block constants, not");
    println!("the 667 ps cycle), so a simulator may trade a 1000x cheaper thermal model for");
    println!("negligible error — while the per-cycle model is already only a few ns/step.");
}
