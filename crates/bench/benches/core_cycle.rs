//! Per-cycle cost of the timing core alone and of the core→power→thermal
//! loop around it (ns per simulated cycle, calibrated best-of batches).
//! Ungated: the whole-run cost is gated by `gates`, and the benchmark
//! times the core only across the whole suite.

use std::hint::black_box;

use tdtm_bench::microbench::bench;
use tdtm_power::{PowerConfig, PowerModel};
use tdtm_thermal::block_model::{table3_blocks, BlockModel};
use tdtm_uarch::{Core, CoreConfig};
use tdtm_workloads::by_name;

fn main() {
    // High-IPC gcc keeps the window nearly empty, branchy crafty recovers
    // constantly, FP-heavy equake keeps it full.
    for name in ["gcc", "crafty", "equake"] {
        let w = by_name(name).expect("suite workload");
        let mut core = Core::with_skip(CoreConfig::alpha21264_like(), w.program(), w.warmup_insts);
        bench(&format!("core_cycle_{name}"), || {
            black_box(core.cycle());
        });
    }

    let w = by_name("gcc").expect("suite workload");
    let core_cfg = CoreConfig::alpha21264_like();
    let mut core = Core::with_skip(core_cfg, w.program(), w.warmup_insts);
    let power = PowerModel::new(&PowerConfig::default(), &core_cfg);
    let mut thermal = BlockModel::new(table3_blocks(), 103.0, core_cfg.cycle_time());
    bench("full_loop_cycle_gcc", || {
        let activity = core.cycle();
        let sample = power.cycle_power(activity);
        thermal.step(&sample.thermal_powers());
        black_box(thermal.temperatures()[0])
    });
}
