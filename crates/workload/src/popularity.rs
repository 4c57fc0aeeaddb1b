//! Content popularity: Zipf initialization (Def. 1) and the request-driven
//! update of Eq. (3):
//!
//! `Π_k(t) = (K·Π_k(t₀) + |I_k(t)|) / (K + Σ_k |I_k(t)|)`.

use crate::zipf::Zipf;
use crate::WorkloadError;

/// Tracks per-content popularity for one EDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Popularity {
    /// `Π_k(t₀)` — the Zipf prior.
    initial: Vec<f64>,
    /// `Π_k(t)` — the current posterior.
    current: Vec<f64>,
}

impl Popularity {
    /// Initialize from the Zipf prior of Def. 1.
    ///
    /// # Errors
    ///
    /// Propagates invalid Zipf parameters.
    pub fn zipf(k: usize, iota: f64) -> Result<Self, WorkloadError> {
        let z = Zipf::new(k, iota)?;
        let initial = z.probabilities().to_vec();
        Ok(Self {
            current: initial.clone(),
            initial,
        })
    }

    /// Number of contents `K`.
    pub fn len(&self) -> usize {
        self.initial.len()
    }

    /// Whether the catalog is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current popularity `Π_k(t)`.
    #[inline]
    pub fn get(&self, k: usize) -> f64 {
        self.current[k]
    }

    /// The full current popularity vector.
    pub fn all(&self) -> &[f64] {
        &self.current
    }

    /// Apply Eq. (3) given the per-content request counts `|I_k(t)|`.
    ///
    /// # Panics
    ///
    /// Panics if `request_counts.len() != K`.
    pub fn update(&mut self, request_counts: &[usize]) {
        let k = self.len();
        assert_eq!(request_counts.len(), k, "request count length mismatch");
        let total: usize = request_counts.iter().sum();
        let denom = k as f64 + total as f64;
        for (idx, cur) in self.current.iter_mut().enumerate() {
            *cur = (k as f64 * self.initial[idx] + request_counts[idx] as f64) / denom;
        }
    }

    /// Index of the most popular content (ties broken by lowest id) —
    /// what the MPC baseline caches.
    pub fn most_popular(&self) -> usize {
        self.current
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
            .map(|(k, _)| k)
            .expect("non-empty by construction")
    }

    /// Content ids sorted by descending current popularity.
    pub fn ranked(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.len()).collect();
        ids.sort_by(|&a, &b| {
            self.current[b]
                .partial_cmp(&self.current[a])
                .expect("probabilities are finite")
        });
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_follows_eq_3_exactly() {
        let mut p = Popularity::zipf(3, 1.0).unwrap();
        let prior = [p.initial[0], p.initial[1], p.initial[2]];
        let counts = [4usize, 1, 0];
        p.update(&counts);
        let denom = 3.0 + 5.0;
        for k in 0..3 {
            let expected = (3.0 * prior[k] + counts[k] as f64) / denom;
            assert!((p.get(k) - expected).abs() < 1e-12, "content {k}");
        }
    }

    #[test]
    fn updated_popularity_remains_a_distribution() {
        let mut p = Popularity::zipf(5, 0.8).unwrap();
        p.update(&[10, 0, 3, 7, 1]);
        let sum: f64 = p.all().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        assert!(p.all().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn zero_requests_recover_the_prior() {
        let mut p = Popularity::zipf(4, 1.2).unwrap();
        p.update(&[0, 0, 0, 0]);
        for k in 0..4 {
            assert!((p.get(k) - p.initial[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn heavy_requests_flip_the_ranking() {
        let mut p = Popularity::zipf(3, 1.0).unwrap();
        assert_eq!(p.most_popular(), 0);
        // Flood the least popular content with requests.
        p.update(&[0, 0, 100]);
        assert_eq!(p.most_popular(), 2);
        assert_eq!(p.ranked()[0], 2);
    }
}
