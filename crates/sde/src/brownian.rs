//! Standard Brownian motion increments.
//!
//! `W_{i,j}(t)` in Eq. (1) and `W_i(t)` in Eq. (4) are standard Brownian
//! motions; the Euler–Maruyama integrator consumes their increments
//! `ΔW ~ N(0, Δt)`.

use rand::Rng;

use crate::gaussian::StandardNormal;
use crate::{require_positive, SdeError};

/// An iterator-style source of Brownian increments `ΔW ~ N(0, dt)` for a
/// fixed step size.
#[derive(Debug, Clone, Copy)]
pub struct BrownianIncrements {
    sqrt_dt: f64,
    dt: f64,
}

impl BrownianIncrements {
    /// Create an increment source for step size `dt`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dt` is not strictly positive and finite.
    pub fn new(dt: f64) -> Result<Self, SdeError> {
        let dt = require_positive("dt", dt)?;
        Ok(Self {
            sqrt_dt: dt.sqrt(),
            dt,
        })
    }

    /// The step size this source was built for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Draw one increment `ΔW ~ N(0, dt)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sqrt_dt * StandardNormal.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn increments_have_correct_variance() {
        let mut rng = seeded_rng(10);
        let inc = BrownianIncrements::new(0.01).unwrap();
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = inc.sample(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!((var - 0.01).abs() < 3e-4, "variance {var}");
    }

    #[test]
    fn invalid_dt_is_rejected() {
        assert!(BrownianIncrements::new(0.0).is_err());
        assert!(BrownianIncrements::new(-0.5).is_err());
        assert!(BrownianIncrements::new(f64::NAN).is_err());
    }
}
