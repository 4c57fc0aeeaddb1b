//! The mean-reverting Ornstein–Uhlenbeck channel model of Eq. (1).
//!
//! `dh(t) = ½ ς_h (υ_h − h(t)) dt + ϱ_h dW(t)`
//!
//! The paper uses this process for the channel fading coefficient
//! `h_{i,j}(t)`: it gravitates towards the long-term mean `υ_h` at rate
//! `ς_h/2` while fluctuating with amplitude `ϱ_h` (§II-A). Besides the
//! generic [`Sde`] view (for Euler–Maruyama), this type exposes the *exact*
//! Gaussian transition density, which the tests use as ground truth for the
//! integrator and which the FPK solver tests use as an analytic reference.

use rand::Rng;

use crate::gaussian::StandardNormal;
use crate::process::Sde;
use crate::{require_finite, require_positive, SdeError};

/// Mean-reverting Ornstein–Uhlenbeck process in the paper's Eq. (1) form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrnsteinUhlenbeck {
    /// Changing rate `ς_h` (> 0). Note the effective reversion rate is `ς_h/2`.
    varsigma: f64,
    /// Long-term mean `υ_h`.
    upsilon: f64,
    /// Noise amplitude `ϱ_h` (> 0).
    varrho: f64,
}

impl OrnsteinUhlenbeck {
    /// Create the process `dh = ½ς(υ − h)dt + ϱ dW`.
    ///
    /// # Errors
    ///
    /// Returns an error if `varsigma` or `varrho` is not strictly positive,
    /// or `upsilon` is not finite.
    pub fn new(varsigma: f64, upsilon: f64, varrho: f64) -> Result<Self, SdeError> {
        Ok(Self {
            varsigma: require_positive("varsigma", varsigma)?,
            upsilon: require_finite("upsilon", upsilon)?,
            varrho: require_positive("varrho", varrho)?,
        })
    }

    /// The changing rate `ς_h`.
    pub fn varsigma(&self) -> f64 {
        self.varsigma
    }

    /// The long-term mean `υ_h`.
    pub fn upsilon(&self) -> f64 {
        self.upsilon
    }

    /// The noise amplitude `ϱ_h`.
    pub fn varrho(&self) -> f64 {
        self.varrho
    }

    /// Effective mean-reversion rate `θ = ς_h / 2`.
    fn reversion_rate(&self) -> f64 {
        0.5 * self.varsigma
    }

    /// Conditional mean `E[h(t+Δ) | h(t) = h]` of the exact transition.
    pub fn transition_mean(&self, h: f64, delta: f64) -> f64 {
        let theta = self.reversion_rate();
        self.upsilon + (h - self.upsilon) * (-theta * delta).exp()
    }

    /// Conditional variance `Var[h(t+Δ) | h(t)]` of the exact transition.
    pub fn transition_variance(&self, delta: f64) -> f64 {
        let theta = self.reversion_rate();
        self.varrho * self.varrho / (2.0 * theta) * (1.0 - (-2.0 * theta * delta).exp())
    }

    /// Sample the exact transition `h(t+Δ) | h(t) = h` (no discretization
    /// error, unlike Euler–Maruyama).
    pub fn sample_transition<R: Rng + ?Sized>(&self, h: f64, delta: f64, rng: &mut R) -> f64 {
        self.transition_mean(h, delta)
            + self.transition_variance(delta).sqrt() * StandardNormal.sample(rng)
    }

    /// Stationary mean (equals the long-term mean `υ_h`).
    pub fn stationary_mean(&self) -> f64 {
        self.upsilon
    }

    /// Stationary variance `ϱ² / ς` (i.e. `ϱ² / (2θ)`).
    pub fn stationary_variance(&self) -> f64 {
        self.varrho * self.varrho / (2.0 * self.reversion_rate())
    }
}

impl Sde for OrnsteinUhlenbeck {
    fn drift(&self, _t: f64, h: f64) -> f64 {
        0.5 * self.varsigma * (self.upsilon - h)
    }

    fn diffusion(&self, _t: f64, _h: f64) -> f64 {
        self.varrho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn ou() -> OrnsteinUhlenbeck {
        OrnsteinUhlenbeck::new(2.0, 5.0, 0.4).unwrap()
    }

    #[test]
    fn drift_points_towards_the_mean() {
        let p = ou();
        assert!(p.drift(0.0, 7.0) < 0.0);
        assert!(p.drift(0.0, 3.0) > 0.0);
        assert_eq!(p.drift(0.0, 5.0), 0.0);
    }

    #[test]
    fn transition_mean_decays_exponentially() {
        let p = ou();
        // θ = 1, so after Δ=1 the deviation shrinks by e^{-1}.
        let m = p.transition_mean(7.0, 1.0);
        assert!((m - (5.0 + 2.0 * (-1.0_f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn transition_variance_saturates_at_stationary() {
        let p = ou();
        let v_inf = p.stationary_variance();
        assert!((p.transition_variance(100.0) - v_inf).abs() < 1e-12);
        assert!(p.transition_variance(0.01) < v_inf);
    }

    #[test]
    fn exact_sampler_matches_analytic_moments() {
        let p = ou();
        let mut rng = seeded_rng(20);
        let (h0, delta) = (8.0, 0.5);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let h = p.sample_transition(h0, delta, &mut rng);
            sum += h;
            sum_sq += h * h;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(
            (mean - p.transition_mean(h0, delta)).abs() < 5e-3,
            "mean {mean}"
        );
        assert!(
            (var - p.transition_variance(delta)).abs() < 5e-3,
            "var {var}"
        );
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(OrnsteinUhlenbeck::new(0.0, 5.0, 0.4).is_err());
        assert!(OrnsteinUhlenbeck::new(2.0, f64::NAN, 0.4).is_err());
        assert!(OrnsteinUhlenbeck::new(2.0, 5.0, -0.1).is_err());
    }

    #[test]
    fn stationary_variance_formula() {
        let p = ou();
        // ϱ²/ς = 0.16 / 2 = 0.08.
        assert!((p.stationary_variance() - 0.08).abs() < 1e-12);
    }
}
