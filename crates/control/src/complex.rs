//! A minimal complex-number type (the workspace avoids external numeric
//! crates; this is all the frequency-domain code needs).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + im·j`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates `re + im·j`.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// A purely imaginary `w·j` (the `s = jω` evaluation point).
    pub fn jw(w: f64) -> Complex {
        Complex { re: 0.0, im: w }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `e^z`.
    pub fn exp(self) -> Complex {
        let r = self.re.exp();
        Complex { re: r * self.im.cos(), im: r * self.im.sin() }
    }

    /// Reciprocal `1/z`.
    ///
    /// # Panics
    ///
    /// Panics on division by exact zero.
    pub fn recip(self) -> Complex {
        let d = self.re * self.re + self.im * self.im;
        assert!(d != 0.0, "division by zero complex number");
        Complex { re: self.re / d, im: -self.im / d }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, k: f64) -> Complex {
        Complex { re: self.re * k, im: self.im * k }
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via the reciprocal is the point, not a typo for `/`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, o: Complex) -> Complex {
        self * o.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert!((z * z.recip() - Complex::ONE).abs() < 1e-15);
        assert_eq!(Complex::J * Complex::J, Complex::new(-1.0, 0.0));
        assert_eq!(z + (-z), Complex::ZERO);
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let e = Complex::jw(std::f64::consts::PI).exp();
        assert!((e.re + 1.0).abs() < 1e-12);
        assert!(e.im.abs() < 1e-12);
    }

    #[test]
    fn arg_quadrants() {
        assert!((Complex::new(1.0, 1.0).arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((Complex::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < 1e-15);
        assert!((Complex::new(0.0, -2.0).arg() + std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn division_matches_multiplication() {
        let a = Complex::new(2.0, 5.0);
        let b = Complex::new(-1.5, 0.25);
        let q = a / b;
        assert!((q * b - a).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_reciprocal_panics() {
        let _ = Complex::ZERO.recip();
    }
}
