//! In-tree Gaussian sampling.
//!
//! The approved dependency list contains `rand` but not `rand_distr`, so the
//! normal distribution is implemented here with the Marsaglia polar method
//! (a rejection-free-in-expectation variant of Box–Muller that avoids
//! trigonometric calls and caches the second variate).

use rand::{Rng, RngExt as _};

use crate::{require_finite, require_positive, SdeError};

/// A standard normal distribution `N(0, 1)`.
///
/// Stateless marker type; sampling uses the Marsaglia polar method. Each call
/// draws a fresh pair and discards the spare — the memory-less form keeps the
/// sampler `Copy` and free of interior mutability, which matters because RNGs
/// are threaded explicitly through the parallel simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardNormal;

impl StandardNormal {
    /// Draw one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.random_range(-1.0..1.0);
            let v: f64 = rng.random_range(-1.0..1.0);
            let s: f64 = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// A normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is not finite or `std_dev` is not strictly
    /// positive.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, SdeError> {
        Ok(Self {
            mean: require_finite("mean", mean)?,
            std_dev: require_positive("std_dev", std_dev)?,
        })
    }

    /// Draw one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * StandardNormal.sample(rng)
    }

    /// Probability density function at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * core::f64::consts::PI).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = StandardNormal.sample(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = seeded_rng(2);
        let d = Normal::new(3.0, 0.5).unwrap();
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "variance {var}");
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Normal::new(0.7, 0.1).unwrap();
        // Trapezoidal rule over ±6σ.
        let (a, b) = (0.1, 1.3);
        let n = 10_000;
        let h = (b - a) / n as f64;
        let mut total = 0.5 * (d.pdf(a) + d.pdf(b));
        for i in 1..n {
            total += d.pdf(a + i as f64 * h);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-6, "integral {total}");
    }

    #[test]
    fn pdf_is_symmetric_about_mean() {
        let d = Normal::new(2.0, 0.3).unwrap();
        for dx in [0.1, 0.2, 0.5] {
            assert!((d.pdf(2.0 + dx) - d.pdf(2.0 - dx)).abs() < 1e-12);
        }
    }
}
