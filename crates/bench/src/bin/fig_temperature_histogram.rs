//! Temporal hot-spot distribution (Section 4.2: hot spots "have a
//! temporal distribution due to changing program behavior and the time
//! constants implied by the thermal mass"): a text histogram of the
//! hottest-block temperature across the run for one benchmark from each
//! thermal category.

use tdtm_bench::{banner, from_env};
use tdtm_core::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_workloads::by_name;

fn main() {
    let scale = from_env().scale;
    banner("Section 4.2: temporal distribution of the hottest block (no DTM)", scale);

    let lo = 103.0f64;
    let hi = 114.0f64;
    let bins = 22usize;
    let width = (hi - lo) / bins as f64;

    for bench in ["apsi", "mesa", "gzip", "art", "twolf"] {
        let w = by_name(bench).expect("suite");
        let mut sim = Simulator::for_workload(scale.config(PolicyKind::None), &w);
        sim.record_trace(1_000);
        let _ = sim.run();
        let trace = sim.trace().expect("recorded");

        let mut hist = vec![0u32; bins];
        for temps in &trace.temperatures {
            let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bin = (((hottest - lo) / width) as usize).min(bins - 1);
            hist[bin] += 1;
        }
        let peak = *hist.iter().max().unwrap_or(&1);

        println!("{bench} ({})", w.category);
        for (i, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let t0 = lo + i as f64 * width;
            let bar = "#".repeat((48 * count / peak.max(1)) as usize);
            let marker = if t0 >= 111.0 {
                " <- EMERGENCY"
            } else if t0 >= 110.0 {
                " <- stress"
            } else {
                ""
            };
            println!("  {:6.1}-{:5.1} C |{bar} {count}{marker}", t0, t0 + width);
        }
        println!();
    }
    println!("steady extremes (apsi) pile up at one hot operating point; bursty art is");
    println!("bimodal (hot bursts vs cool phases); the high category (mesa) sits wholly in");
    println!("the stress band without crossing it; cool programs never leave the bottom bins.");
}
