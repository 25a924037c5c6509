//! Microbenchmarks for the controller path: the per-sample cost (the
//! paper argues dedicated adder+multiplier hardware for it is negligible)
//! and the one-time design cost.

use std::hint::black_box;

use tdtm_bench::microbench::bench;
use tdtm_control::design::{design_controller, ControllerKind, FopdtPlant};
use tdtm_control::pid::{quantize, PidController};
use tdtm_dtm::{build_policy, DtmConfig, PolicyKind};

fn main() {
    let plant = FopdtPlant { gain: 8.0, time_constant: 8.4e-5, delay: 333e-9 };
    let gains = design_controller(&plant, ControllerKind::Pid);

    let mut pid = PidController::new(gains, 667e-9, 0.0, 1.0);
    let mut e = 0.1f64;
    bench("pid_sample", || {
        e = -e;
        pid.sample(black_box(e))
    });

    bench("quantize_8_levels", || quantize(black_box(0.37), 8));

    let cfg = DtmConfig { policy: PolicyKind::Pid, ..DtmConfig::default() };
    let mut policy = build_policy(&cfg);
    let temps = [109.0, 110.0, 110.5, 109.5, 108.0, 110.9, 107.0];
    bench("pid_policy_sample_7_blocks", || policy.sample(black_box(&temps)));

    bench("design_pid_controller", || design_controller(black_box(&plant), ControllerKind::Pid));
}
