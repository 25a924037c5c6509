//! Cost comparison between the boxcar power proxy (prior work) and the
//! direct RC temperature model (this paper): the paper's model is not
//! just more accurate, it is also no more expensive per cycle.

use std::hint::black_box;

use tdtm_bench::microbench::bench;
use tdtm_thermal::block_model::{table3_blocks, BlockModel};
use tdtm_thermal::BoxcarProxy;

fn main() {
    for window in [10_000usize, 500_000] {
        let mut boxcar = BoxcarProxy::new(window);
        // Pre-fill so the steady-state (full window) path is measured.
        for i in 0..window {
            boxcar.push(i as f64 * 1e-3);
        }
        let mut p = 3.0f64;
        bench(&format!("boxcar_push_window_{window}"), || {
            p = 6.0 - p;
            boxcar.push(black_box(p));
            black_box(boxcar.average())
        });
    }

    let mut model = BlockModel::new(table3_blocks(), 103.0, 1.0 / 1.5e9);
    let powers = [3.0, 8.0, 2.5, 4.0, 9.0, 6.0, 5.0];
    bench("rc_model_step_plus_threshold_check", || {
        model.step(black_box(&powers));
        black_box(model.any_above(111.0))
    });
}
