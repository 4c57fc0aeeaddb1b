//! The Zipf distribution of Def. 1:
//! `Π_k(t₀) = (1/k^ι) / Σ_{k'=1}^{K} 1/k'^ι` for ranks `k = 1..K`.
//!
//! Implemented in-tree (the approved dependency list has no `rand_distr`):
//! probabilities are precomputed and sampling uses inverse-CDF binary search.

use rand::{Rng, RngExt as _};

use crate::WorkloadError;

/// A Zipf distribution over ranks `0..K` (0-based indices; the paper's rank
/// `k` is `index + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    probabilities: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf distribution over `k` ranks with steepness `ι > 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0` or `ι <= 0`.
    pub fn new(k: usize, iota: f64) -> Result<Self, WorkloadError> {
        if k == 0 {
            return Err(WorkloadError::EmptyCatalog);
        }
        if iota.is_nan() || iota <= 0.0 || !iota.is_finite() {
            return Err(WorkloadError::NonPositive {
                name: "iota",
                value: iota,
            });
        }
        let mut probabilities: Vec<f64> = (1..=k).map(|rank| (rank as f64).powf(-iota)).collect();
        let total: f64 = probabilities.iter().sum();
        for p in &mut probabilities {
            *p /= total;
        }
        let mut cumulative = Vec::with_capacity(k);
        let mut acc = 0.0;
        for &p in &probabilities {
            acc += p;
            cumulative.push(acc);
        }
        // Guard against floating-point shortfall in the last bucket.
        *cumulative.last_mut().expect("k >= 1") = 1.0;
        Ok(Self {
            probabilities,
            cumulative,
        })
    }

    /// Number of ranks `K`.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability of rank `k` (0-based).
    pub fn pmf(&self, k: usize) -> f64 {
        self.probabilities[k]
    }

    /// All probabilities, most popular first.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Sample a rank (0-based) by inverse-CDF binary search.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_sde::seeded_rng;

    #[test]
    fn probabilities_sum_to_one_and_decrease() {
        let z = Zipf::new(20, 0.8).unwrap();
        let sum: f64 = z.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for w in z.probabilities().windows(2) {
            assert!(w[0] > w[1], "Zipf pmf must be strictly decreasing");
        }
    }

    #[test]
    fn matches_the_paper_formula() {
        let iota = 1.2;
        let k = 5;
        let z = Zipf::new(k, iota).unwrap();
        let norm: f64 = (1..=k).map(|r| (r as f64).powf(-iota)).sum();
        for r in 1..=k {
            let expected = (r as f64).powf(-iota) / norm;
            assert!((z.pmf(r - 1) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(4, 1.0).unwrap();
        let mut rng = seeded_rng(13);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!(
                (freq - z.pmf(k)).abs() < 0.01,
                "rank {k}: {freq} vs {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn degenerate_and_invalid_inputs() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, 0.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        let z = Zipf::new(1, 1.0).unwrap();
        assert_eq!(z.pmf(0), 1.0);
        let mut rng = seeded_rng(14);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn steeper_iota_concentrates_mass() {
        let flat = Zipf::new(10, 0.5).unwrap();
        let steep = Zipf::new(10, 2.0).unwrap();
        assert!(steep.pmf(0) > flat.pmf(0));
        assert!(steep.pmf(9) < flat.pmf(9));
    }
}
