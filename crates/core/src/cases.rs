//! The three response cases of §III-A and their smoothed occurrence
//! probabilities:
//!
//! * **Case 1** — the EDP has cached enough of content `k`
//!   (`P¹ = f(α·Q_k − q)`: remaining space below the `α·Q_k` threshold
//!   means most of the content is already stored);
//! * **Case 2** — the EDP lacks the content but some peer has it
//!   (`P² = f(q − α·Q_k)·f(α·Q_k − q₋)`);
//! * **Case 3** — nobody nearby has it; download from the cloud center
//!   (`P³ = f(q − α·Q_k)·f(q₋ − α·Q_k)`).
//!
//! `f` is the sigmoid Heaviside smoothing; `q₋` is the peer caching state,
//! approximated by the mean-field average `q̄₋` (Eq. (18)) in the MFG.

use crate::sigmoid::Sigmoid;

/// The occurrence probabilities of the three response cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseProbabilities {
    /// Case 1 (serve from own cache).
    pub p1: f64,
    /// Case 2 (buy the gap from a peer EDP).
    pub p2: f64,
    /// Case 3 (download the gap from the cloud center).
    pub p3: f64,
}

/// The two sigmoid factors of one caching state `s` against the
/// threshold: `full = f(α·Q_k − s)` (≈ 1 when the cache suffices) and
/// `short = f(s − α·Q_k)` (≈ 1 when it falls short). The own state `q`
/// and the peer state `q₋` each contribute one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CaseFactors {
    pub(crate) full: f64,
    pub(crate) short: f64,
}

impl CaseFactors {
    pub(crate) fn at(sigmoid: Sigmoid, s: f64, alpha_qk: f64) -> Self {
        Self {
            full: sigmoid.eval(alpha_qk - s),
            short: sigmoid.eval(s - alpha_qk),
        }
    }
}

impl CaseProbabilities {
    /// Evaluate the paper's formulas at own state `q`, peer state `q_peer`,
    /// threshold `alpha_qk = α·Q_k`.
    pub fn compute(sigmoid: Sigmoid, q: f64, q_peer: f64, alpha_qk: f64) -> Self {
        Self::from_factors(
            CaseFactors::at(sigmoid, q, alpha_qk),
            CaseFactors::at(sigmoid, q_peer, alpha_qk),
        )
    }

    /// The probabilities from the own and the peer factor pairs, so a
    /// sweep can table the own pairs once and evaluate only the peer pair
    /// per step.
    pub(crate) fn from_factors(own: CaseFactors, peer: CaseFactors) -> Self {
        Self {
            p1: own.full,
            p2: own.short * peer.full,
            p3: own.short * peer.short,
        }
    }

    /// Sum of the three probabilities (≈ 1 away from the threshold; the
    /// sigmoid smoothing makes it only approximately a partition).
    pub fn total(&self) -> f64 {
        self.p1 + self.p2 + self.p3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Sigmoid {
        Sigmoid::new(10.0)
    }

    #[test]
    fn full_cache_is_case_1() {
        // q = 0 (nothing left to cache) → case 1 dominant.
        let c = CaseProbabilities::compute(sig(), 0.0, 0.9, 0.2);
        assert!(c.p1 > 0.97, "p1 = {}", c.p1);
        assert!(c.p2 < 0.03 && c.p3 < 0.03);
    }

    #[test]
    fn short_cache_with_full_peer_is_case_2() {
        let c = CaseProbabilities::compute(sig(), 0.9, 0.0, 0.2);
        assert!(c.p2 > 0.95, "p2 = {}", c.p2);
        assert!(c.p1 < 0.05 && c.p3 < 0.05);
    }

    #[test]
    fn short_cache_with_short_peer_is_case_3() {
        let c = CaseProbabilities::compute(sig(), 0.9, 0.9, 0.2);
        assert!(c.p3 > 0.95, "p3 = {}", c.p3);
        assert!(c.p1 < 0.05 && c.p2 < 0.05);
    }

    #[test]
    fn probabilities_sum_near_one_away_from_threshold() {
        for &(q, qp) in &[(0.0, 0.0), (0.9, 0.05), (0.05, 0.9), (0.95, 0.95)] {
            let c = CaseProbabilities::compute(sig(), q, qp, 0.2);
            assert!(
                (c.total() - 1.0).abs() < 0.05,
                "at ({q},{qp}): {}",
                c.total()
            );
        }
    }

    #[test]
    fn cases_2_and_3_partition_the_short_regime() {
        // When the EDP is short, p2 + p3 ≈ p_short regardless of the peer.
        let c_full_peer = CaseProbabilities::compute(sig(), 0.9, 0.0, 0.2);
        let c_short_peer = CaseProbabilities::compute(sig(), 0.9, 0.9, 0.2);
        assert!(
            (c_full_peer.p2 + c_full_peer.p3 - (c_short_peer.p2 + c_short_peer.p3)).abs() < 1e-9
        );
    }
}
