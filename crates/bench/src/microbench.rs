//! The std-only timing the `[[bench]]` targets share.
//!
//! - [`bench()`] times one closure over calibrated batches and prints its
//!   best-of ns/op: the ungated paper micro rows (`thermal_step`,
//!   `controller_sample`, `proxy_vs_rc`, `core_cycle`).
//! - [`Gate`], [`run_gates`], [`Spread`] and [`Bound`] are the one
//!   regression mechanism the `gates` target uses: A/B pairs timed
//!   alternately in one process, the gates' pairs interleaved
//!   round-robin, each gate checked on the median of its per-pair B/A
//!   ratios, so a noisy host moves both sides together and a burst lands
//!   on a few pairs of every gate instead of failing one gate.

use std::hint::black_box;
use std::time::Instant;

/// Target wall time per measured batch.
const BATCH_SECONDS: f64 = 0.02;
/// Number of measured batches; the minimum is reported.
const BATCHES: usize = 7;

/// Measures `f` and prints `name  ns/op  ops/s`, returning the minimum
/// per-iteration time in ns over `BATCHES` calibrated batches (the
/// minimum is the standard low-noise estimator for microbenchmarks).
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    // Calibrate: grow the batch until it runs long enough to time.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= BATCH_SECONDS || iters >= 1 << 30 {
            break;
        }
        // Aim straight for the target, with a growth cap.
        let scale = (BATCH_SECONDS / elapsed.max(1e-9)).min(100.0);
        iters = ((iters as f64 * scale).ceil() as u64).max(iters + 1);
    }
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    println!("{name:<44} {:>12.2} ns/op {:>16.0} ops/s", best * 1e9, 1.0 / best);
    best * 1e9
}

/// One gate: an A/B pair of timed calls (each returns its own
/// measurement, typically the ms it timed), how many pairs to time, and
/// the bound on the median of the per-pair B/A ratios.
pub struct Gate<'a> {
    name: String,
    pairs: usize,
    bound: Bound,
    a: Box<dyn FnMut() -> f64 + 'a>,
    b: Box<dyn FnMut() -> f64 + 'a>,
}

impl<'a> Gate<'a> {
    /// A gate `name` of `pairs` A/B pairs under `bound`.
    pub fn new(
        name: impl Into<String>,
        pairs: usize,
        bound: Bound,
        a: impl FnMut() -> f64 + 'a,
        b: impl FnMut() -> f64 + 'a,
    ) -> Gate<'a> {
        Gate { name: name.into(), pairs, bound, a: Box::new(a), b: Box::new(b) }
    }
}

/// Times every gate's pairs round-robin (see [`run_gates`]) and returns
/// each gate's A and B samples in pair order, gates in order.
fn interleave(gates: &mut [Gate<'_>]) -> Vec<(Vec<f64>, Vec<f64>)> {
    let rounds = gates.iter().map(|g| g.pairs).max().unwrap_or(0);
    let mut samples: Vec<(Vec<f64>, Vec<f64>)> =
        gates.iter().map(|g| (Vec::with_capacity(g.pairs), Vec::with_capacity(g.pairs))).collect();
    for round in 0..rounds {
        for (gate, (xs, ys)) in gates.iter_mut().zip(&mut samples) {
            let pair = xs.len();
            if pair == gate.pairs || (2 * pair + 1) * rounds / (2 * gate.pairs) != round {
                continue;
            }
            if pair % 2 == 0 {
                xs.push((gate.a)());
                ys.push((gate.b)());
            } else {
                ys.push((gate.b)());
                xs.push((gate.a)());
            }
        }
    }
    samples
}

/// Times the gates and checks every gate's bound, printing each; returns
/// whether all of them passed.
///
/// The pairs run round-robin. The run is `R` rounds, `R` the largest
/// pair count; a gate of `p` pairs times its pair `j` in round
/// `⌊(2j + 1)·R / 2p⌋`, so every gate's pairs spread evenly across the
/// whole run and a host burst of a few seconds lands on a few pairs of
/// each gate instead of on every pair of one. Within a gate the side that
/// goes first flips on every pair, so drift on the host lands on both
/// sides alike.
pub fn run_gates(mut gates: Vec<Gate<'_>>) -> bool {
    let samples = interleave(&mut gates);
    let mut ok = true;
    for (gate, (a, b)) in gates.iter().zip(samples) {
        ok &= gate.bound.check(&gate.name, &a, &b);
    }
    ok
}

/// The median and range of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of `xs`; an even count takes the mean of the middle two.
    ///
    /// # Panics
    ///
    /// On an empty sample.
    pub fn of(xs: &[f64]) -> Spread {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        assert!(n > 0, "spread of an empty sample");
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Spread { median, min: sorted[0], max: sorted[n - 1] }
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4} [{:.4}, {:.4}]", self.median, self.min, self.max)
    }
}

/// What a gate's median B/A ratio must satisfy.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// B/A must be at least this (B is the slow twin of a speedup).
    Floor(f64),
    /// B/A must be at most this (B is the cost being capped).
    Ceiling(f64),
}

impl Bound {
    /// Checks the A/B samples of one gate: prints each side's spread and
    /// that of the per-pair B/A ratios, and returns whether the median
    /// ratio meets the bound.
    pub fn check(self, name: &str, a: &[f64], b: &[f64]) -> bool {
        let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| b / a).collect();
        let ratio = Spread::of(&ratios);
        let (ok, bound) = match self {
            Bound::Floor(min) => (ratio.median >= min, format!(">= {min}")),
            Bound::Ceiling(max) => (ratio.median <= max, format!("<= {max}")),
        };
        println!("{name}: {} pairs", ratios.len());
        println!("  A   {}", Spread::of(a));
        println!("  B   {}", Spread::of(b));
        println!("  B/A {ratio}  {bound}  {}", if ok { "ok" } else { "FAILED" });
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn bench_returns_a_positive_time() {
        let mut x = 0u64;
        assert!(bench("wrapping_add", || {
            x = x.wrapping_add(black_box(3));
            x
        }) > 0.0);
    }

    /// A gate whose A and B calls append `a` and `b` to `calls`.
    fn logged<'a>(calls: &'a RefCell<String>, pairs: usize, a: char, b: char) -> Gate<'a> {
        let side = move |c: char, x: f64| {
            move || {
                calls.borrow_mut().push(c);
                x
            }
        };
        Gate::new(format!("{a}{b}"), pairs, Bound::Ceiling(3.0), side(a, 1.0), side(b, 2.0))
    }

    #[test]
    fn pairs_alternate_which_side_goes_first() {
        let calls = RefCell::new(String::new());
        let samples = interleave(&mut [logged(&calls, 4, 'a', 'b')]);
        assert_eq!(calls.into_inner(), "abbaabba");
        assert_eq!(samples, vec![(vec![1.0; 4], vec![2.0; 4])]);
    }

    #[test]
    fn gates_interleave_round_robin_and_spread_short_gates() {
        let calls = RefCell::new(String::new());
        let gates = vec![logged(&calls, 4, 'a', 'b'), logged(&calls, 2, 'c', 'd')];
        assert!(run_gates(gates));
        // Four rounds; the two-pair gate times its pairs in rounds 1 and 3:
        // ab | ba cd | ab | ba dc.
        assert_eq!(calls.into_inner(), "abbacdabbadc");
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        let odd = Spread::of(&[5.0, 1.0, 3.0]);
        assert_eq!(odd, Spread { median: 3.0, min: 1.0, max: 5.0 });
        let even = Spread::of(&[4.0, 1.0, 3.0, 10.0]);
        assert_eq!(even, Spread { median: 3.5, min: 1.0, max: 10.0 });
    }

    #[test]
    fn a_doubled_b_side_fails_a_ceiling() {
        let a = [1.0, 1.1, 0.9, 1.0, 1.05];
        let doubled: Vec<f64> = a.iter().map(|x| 2.0 * x).collect();
        assert!(!Bound::Ceiling(1.6).check("doubled", &a, &doubled));
        assert!(Bound::Ceiling(1.6).check("same", &a, &a));
    }

    #[test]
    fn a_small_speedup_fails_a_floor() {
        let fast = [1.0, 1.2, 0.8];
        let slow: Vec<f64> = fast.iter().map(|x| 1.4 * x).collect();
        assert!(!Bound::Floor(1.5).check("1.4x", &fast, &slow));
        let slower: Vec<f64> = fast.iter().map(|x| 1.6 * x).collect();
        assert!(Bound::Floor(1.5).check("1.6x", &fast, &slower));
    }
}
