//! The smooth Heaviside approximation of §III-A:
//! `f(x) = 1 / (1 + e^{−2lx})`, `l > 0`, and its derivative
//! `f'(x) = 2l·e^{−2lx} / (1 + e^{−2lx})²` (used in the Lipschitz bound of
//! Lemma 1).

/// The paper's sigmoid smoothing of the Heaviside step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sigmoid {
    l: f64,
}

impl Sigmoid {
    /// Create a sigmoid with sharpness `l > 0`.
    ///
    /// # Panics
    ///
    /// Panics unless `l` is finite and strictly positive.
    pub fn new(l: f64) -> Self {
        assert!(
            l.is_finite() && l > 0.0,
            "sigmoid sharpness must be > 0, got {l}"
        );
        Self { l }
    }

    /// `f(x) = 1 / (1 + e^{−2lx})`.
    pub fn eval(&self, x: f64) -> f64 {
        1.0 / (1.0 + (-2.0 * self.l * x).exp())
    }

    /// `f'(x) = 2l·e^{−2lx} (1 + e^{−2lx})^{−2}`.
    pub fn derivative(&self, x: f64) -> f64 {
        let e = (-2.0 * self.l * x).exp();
        let denom = 1.0 + e;
        2.0 * self.l * e / (denom * denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_and_midpoint() {
        let f = Sigmoid::new(10.0);
        assert!((f.eval(0.0) - 0.5).abs() < 1e-12);
        assert!(f.eval(10.0) > 1.0 - 1e-12);
        assert!(f.eval(-10.0) < 1e-12);
    }

    #[test]
    fn monotone_increasing() {
        let f = Sigmoid::new(3.0);
        let mut prev = f.eval(-2.0);
        let mut x = -2.0;
        while x < 2.0 {
            x += 0.05;
            let cur = f.eval(x);
            assert!(cur > prev);
            prev = cur;
        }
    }

    #[test]
    fn complementary_symmetry() {
        let f = Sigmoid::new(5.0);
        for x in [-1.0, -0.3, 0.2, 0.9] {
            assert!((f.eval(x) + f.eval(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let f = Sigmoid::new(7.0);
        let h = 1e-6;
        for x in [-0.4, 0.0, 0.1, 0.5] {
            let fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h);
            assert!((f.derivative(x) - fd).abs() < 1e-5, "at {x}");
        }
    }

    #[test]
    fn derivative_peaks_at_origin() {
        let f = Sigmoid::new(4.0);
        // f'(0) = 2l/4 = l/2.
        assert!((f.derivative(0.0) - 2.0).abs() < 1e-12);
        assert!(f.derivative(0.5) < f.derivative(0.0));
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn zero_sharpness_rejected() {
        Sigmoid::new(0.0);
    }
}
