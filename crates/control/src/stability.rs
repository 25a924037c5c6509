//! Stability analysis: the Routh-Hurwitz criterion and frequency-domain
//! gain/phase margins.
//!
//! The paper tunes its PID weights "according to stability analysis to
//! ensure that the system will not oscillate"; these are the tools that
//! back [`crate::design`]'s choices, and the tests here re-verify the
//! shipped designs.

use crate::poly::Polynomial;
use crate::tf::TransferFunction;

/// Result of a Routh-Hurwitz analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouthResult {
    /// Number of characteristic-polynomial roots in the right half plane.
    pub rhp_roots: usize,
    /// Whether a marginal case (a zero in the first column) was perturbed.
    pub marginal: bool,
}

impl RouthResult {
    /// Whether the polynomial is strictly Hurwitz (all roots in the open
    /// left half plane and no marginal perturbation was needed).
    pub fn is_stable(&self) -> bool {
        self.rhp_roots == 0 && !self.marginal
    }
}

/// Applies the Routh-Hurwitz criterion to a polynomial.
///
/// Returns the number of right-half-plane roots (sign changes in the first
/// column of the Routh array). Zero first-column entries are perturbed with
/// the standard epsilon method and flagged as `marginal`.
///
/// # Panics
///
/// Panics on the zero polynomial.
pub fn routh_hurwitz(p: &Polynomial) -> RouthResult {
    assert!(!p.is_zero(), "zero polynomial has no stability classification");
    let n = p.degree().expect("nonzero");
    // Normalize sign so the leading coefficient is positive.
    let coeffs: Vec<f64> = {
        let lead = *p.coeffs().last().expect("nonzero");
        p.coeffs().iter().map(|&c| c * lead.signum()).collect()
    };
    if n == 0 {
        return RouthResult { rhp_roots: 0, marginal: false };
    }

    // Rows are built from highest degree downward.
    let width = n / 2 + 1;
    let mut row0: Vec<f64> = Vec::with_capacity(width);
    let mut row1: Vec<f64> = Vec::with_capacity(width);
    let mut k = n as isize;
    while k >= 0 {
        let c = coeffs[k as usize];
        if (n as isize - k) % 2 == 0 {
            row0.push(c);
        } else {
            row1.push(c);
        }
        k -= 1;
    }
    row0.resize(width, 0.0);
    row1.resize(width, 0.0);

    let eps = 1e-9
        * coeffs
            .iter()
            .fold(0.0f64, |m, &c| m.max(c.abs()))
            .max(1.0);
    let mut marginal = false;
    let mut first_column = vec![row0[0]];
    // Degenerate degree-1 handling falls out of the loop naturally.
    let mut prev = row0;
    let mut cur = row1;
    for _ in 0..n {
        if cur[0] == 0.0 {
            if cur.iter().all(|&c| c == 0.0) {
                // Entire row of zeros: differentiate the auxiliary
                // polynomial built from `prev`.
                marginal = true;
                let order = n; // upper bound on powers; spacing is 2
                let mut aux = Vec::with_capacity(cur.len());
                for (i, &c) in prev.iter().enumerate() {
                    let power = order.saturating_sub(2 * i);
                    aux.push(c * power as f64);
                }
                cur = aux;
                if cur[0] == 0.0 {
                    cur[0] = eps;
                }
            } else {
                marginal = true;
                cur[0] = eps;
            }
        }
        first_column.push(cur[0]);
        // Next row: c[i] = (cur[0]·prev[i+1] − prev[0]·cur[i+1]) / cur[0].
        let mut next = vec![0.0; cur.len()];
        for i in 0..cur.len() - 1 {
            next[i] = (cur[0] * prev[i + 1] - prev[0] * cur.get(i + 1).copied().unwrap_or(0.0))
                / cur[0];
        }
        prev = cur;
        cur = next;
        if first_column.len() == n + 1 {
            break;
        }
    }

    let rhp = first_column
        .windows(2)
        .filter(|w| w[0].signum() != w[1].signum() && w[1] != 0.0)
        .count();
    RouthResult { rhp_roots: rhp, marginal }
}

/// Gain and phase margins of an open-loop transfer function.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Margins {
    /// Gain margin as a linear factor (∞ if the phase never crosses -180°).
    pub gain_margin: f64,
    /// Phase margin in radians (∞ if the gain never crosses unity).
    pub phase_margin: f64,
    /// Gain-crossover frequency (rad/s), if any.
    pub gain_crossover: Option<f64>,
    /// Phase-crossover frequency (rad/s), if any.
    pub phase_crossover: Option<f64>,
}

/// Computes gain/phase margins by sweeping `ω` logarithmically over
/// `[w_min, w_max]` and bisecting each crossover.
///
/// # Panics
///
/// Panics unless `0 < w_min < w_max`.
pub fn margins(open_loop: &TransferFunction, w_min: f64, w_max: f64) -> Margins {
    assert!(w_min > 0.0 && w_max > w_min, "need 0 < w_min < w_max");
    const STEPS: usize = 4000;
    let lmin = w_min.ln();
    let lmax = w_max.ln();
    let w_at = |i: usize| (lmin + (lmax - lmin) * i as f64 / STEPS as f64).exp();

    let mut gain_crossover = None;
    let mut phase_crossover = None;
    let mut prev_mag = open_loop.magnitude(w_at(0));
    let mut prev_phase = open_loop.phase(w_at(0));
    for i in 1..=STEPS {
        let w = w_at(i);
        let mag = open_loop.magnitude(w);
        let phase = open_loop.phase(w);
        if gain_crossover.is_none() && (prev_mag - 1.0) * (mag - 1.0) <= 0.0 && prev_mag != mag {
            gain_crossover = Some(bisect(w_at(i - 1), w, |w| open_loop.magnitude(w) - 1.0));
        }
        let pi = std::f64::consts::PI;
        if phase_crossover.is_none()
            && (prev_phase + pi) * (phase + pi) <= 0.0
            && prev_phase != phase
        {
            phase_crossover = Some(bisect(w_at(i - 1), w, |w| open_loop.phase(w) + pi));
        }
        prev_mag = mag;
        prev_phase = phase;
    }

    let gain_margin = match phase_crossover {
        Some(w) => 1.0 / open_loop.magnitude(w),
        None => f64::INFINITY,
    };
    let phase_margin = match gain_crossover {
        Some(w) => open_loop.phase(w) + std::f64::consts::PI,
        None => f64::INFINITY,
    };
    Margins { gain_margin, phase_margin, gain_crossover, phase_crossover }
}

fn bisect(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> f64) -> f64 {
    let flo = f(lo);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if (f(mid) > 0.0) == (flo > 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_second_order() {
        // s² + 3s + 2 = (s+1)(s+2): stable.
        let r = routh_hurwitz(&Polynomial::new(vec![2.0, 3.0, 1.0]));
        assert!(r.is_stable());
    }

    #[test]
    fn unstable_root_counted() {
        // (s-1)(s+2) = s² + s - 2: one RHP root.
        let r = routh_hurwitz(&Polynomial::new(vec![-2.0, 1.0, 1.0]));
        assert_eq!(r.rhp_roots, 1);
        assert!(!r.is_stable());
    }

    #[test]
    fn third_order_examples() {
        // s³ + 2s² + 3s + 1: stable (2·3 > 1·1).
        assert!(routh_hurwitz(&Polynomial::new(vec![1.0, 3.0, 2.0, 1.0])).is_stable());
        // s³ + s² + s + 10: unstable pair (1·1 < 10).
        let r = routh_hurwitz(&Polynomial::new(vec![10.0, 1.0, 1.0, 1.0]));
        assert_eq!(r.rhp_roots, 2);
    }

    #[test]
    fn marginal_oscillator_flagged() {
        // s² + 4: purely imaginary roots.
        let r = routh_hurwitz(&Polynomial::new(vec![4.0, 0.0, 1.0]));
        assert!(r.marginal);
        assert!(!r.is_stable());
    }

    #[test]
    fn negative_leading_coefficient_normalized() {
        // -(s+1)(s+2) is still a stable root set.
        let r = routh_hurwitz(&Polynomial::new(vec![-2.0, -3.0, -1.0]));
        assert!(r.is_stable());
    }

    #[test]
    fn first_order_margins() {
        // Open loop 4/(s+1): |H|=1 at w=√15, phase there = -atan(√15);
        // no -180° crossing, so gain margin is infinite.
        let ol = TransferFunction::first_order(4.0, 1.0, 0.0);
        let m = margins(&ol, 1e-2, 1e3);
        assert!(m.gain_margin.is_infinite());
        let wc = m.gain_crossover.expect("crosses unity");
        assert!((wc - 15f64.sqrt()).abs() < 1e-3, "wc = {wc}");
        let expected_pm = std::f64::consts::PI - 15f64.sqrt().atan();
        assert!((m.phase_margin - expected_pm).abs() < 1e-3);
    }

    #[test]
    fn delay_reduces_phase_margin() {
        let no_delay = TransferFunction::first_order(4.0, 1.0, 0.0);
        let with_delay = TransferFunction::first_order(4.0, 1.0, 0.3);
        let m0 = margins(&no_delay, 1e-2, 1e3);
        let m1 = margins(&with_delay, 1e-2, 1e3);
        assert!(m1.phase_margin < m0.phase_margin);
        assert!(m1.gain_margin.is_finite(), "delay creates a -180° crossing");
    }

    #[test]
    fn routh_agrees_with_margins_for_delayed_loop() {
        // Open loop k·e^{-0.5s}/(s+1): find a k that margins call unstable
        // and check the Padé char-poly agrees.
        let unstable = TransferFunction::first_order(8.0, 1.0, 0.5);
        let m = margins(&unstable, 1e-2, 1e3);
        assert!(m.phase_margin < 0.0 || m.gain_margin < 1.0, "{m:?}");
        let cp = unstable.pade1().characteristic_polynomial();
        assert!(!routh_hurwitz(&cp).is_stable());

        let stable = TransferFunction::first_order(1.5, 1.0, 0.5);
        let m = margins(&stable, 1e-2, 1e3);
        assert!(m.phase_margin > 0.0 && m.gain_margin > 1.0);
        let cp = stable.pade1().characteristic_polynomial();
        assert!(routh_hurwitz(&cp).is_stable());
    }
}
