//! I5 differential oracles: every fast path in the hot loops, checked
//! against the slow definitional form it replaced.
//!
//! Each oracle is a plain library function returning `Result<(), AuditError>`
//! so it can run inside property tests (this crate), the bench warm-up
//! (`bench_market`), or ad hoc in a debugger. The simulator-level oracles
//! (threaded vs single-threaded runs, audited full schemes) live in this
//! crate's `tests/differential.rs` because they need `mfgcp-sim` as a
//! dev-dependency.

use mfgcp_core::{finite_population_price, SharedSupplyPricer};

use crate::error::AuditError;

/// Distance between two floats in units of last place: the number of
/// representable doubles strictly between `a` and `b` plus one, 0 iff
/// `a == b` (so `-0.0` and `+0.0` are 0 apart), saturating at `u64::MAX`
/// when either input is NaN.
pub fn ulps_between(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Map the bit pattern to a monotonically ordered integer key: negative
    // floats count down from zero, so the key difference is exactly the
    // number of representable steps between the values.
    fn key(x: f64) -> i128 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            -((bits & 0x7fff_ffff_ffff_ffff) as i128)
        } else {
            bits as i128
        }
    }
    let d = (key(a) - key(b)).unsigned_abs();
    u64::try_from(d).unwrap_or(u64::MAX)
}

/// Worst-case ULP gap between the O(1) [`SharedSupplyPricer`] and the
/// O(M) Eq. (5) reference [`finite_population_price`], over every EDP in
/// the profile.
///
/// # Panics
///
/// Panics if `strategies` is empty (both pricers require `M ≥ 1`).
pub fn pricer_max_ulps(p_hat: f64, eta1: f64, q_size: f64, strategies: &[f64]) -> u64 {
    let pricer = SharedSupplyPricer::new(p_hat, eta1, q_size, strategies);
    strategies
        .iter()
        .enumerate()
        .map(|(i, &own)| {
            ulps_between(
                pricer.price(own),
                finite_population_price(p_hat, eta1, q_size, strategies, i),
            )
        })
        .max()
        .unwrap_or(0)
}

/// [`pricer_max_ulps`] as a pass/fail oracle: errors with
/// [`AuditError::OracleDivergence`] when any EDP's fast price is more than
/// `max_ulps` ULPs from the reference.
///
/// # Errors
///
/// Returns the offending EDP, both prices and the measured gap.
pub fn check_pricer(
    p_hat: f64,
    eta1: f64,
    q_size: f64,
    strategies: &[f64],
    max_ulps: u64,
) -> Result<(), AuditError> {
    let pricer = SharedSupplyPricer::new(p_hat, eta1, q_size, strategies);
    for (i, &own) in strategies.iter().enumerate() {
        let fast = pricer.price(own);
        let slow = finite_population_price(p_hat, eta1, q_size, strategies, i);
        let gap = ulps_between(fast, slow);
        if gap > max_ulps {
            return Err(AuditError::OracleDivergence {
                what: "pricer",
                detail: format!(
                    "EDP {i}: shared-supply price {fast} vs Eq. (5) reference {slow} \
                     ({gap} ULPs > {max_ulps})"
                ),
            });
        }
    }
    Ok(())
}

/// Streaming two-smallest tracker — the exact algorithm `mfgcp-sim` uses
/// to find each content's cheapest qualified sharer (and runner-up, for
/// when the cheapest is the buyer itself) in one pass instead of a per-buyer
/// `min_by` scan.
///
/// Semantics match `Iterator::min_by` over the offer sequence: on equal
/// keys the *earliest* offer wins, for both the best and the runner-up.
/// Offer ids must be distinct and keys non-NaN; [`TwoSmallest::min_excluding`]
/// then returns, in O(1), what a full scan skipping one id would return.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TwoSmallest {
    best: Option<(usize, f64)>,
    second: Option<(usize, f64)>,
}

impl TwoSmallest {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to empty (for reuse across slots without reallocation).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Feed one `(id, key)` offer.
    pub fn offer(&mut self, id: usize, key: f64) {
        let cand = (id, key);
        match self.best {
            Some(b) if cand.1 >= b.1 => {
                if self.second.map_or(true, |sec| cand.1 < sec.1) {
                    self.second = Some(cand);
                }
            }
            _ => {
                self.second = self.best;
                self.best = Some(cand);
            }
        }
    }

    /// Fold in a tracker that was fed offers which all came *after* this
    /// one's. Afterwards `self` holds exactly what one tracker fed both
    /// offer sequences in order would hold: the two smallest of the union
    /// are among the two trackers' four entries, and offering `later`'s
    /// best before its runner-up keeps the earliest-on-ties rule. A
    /// population pass split into contiguous chunks merges its per-chunk
    /// trackers this way, in chunk order.
    pub fn merge(&mut self, later: &TwoSmallest) {
        for (id, key) in [later.best, later.second].into_iter().flatten() {
            self.offer(id, key);
        }
    }

    /// The smallest offer so far (earliest on ties).
    pub fn best(&self) -> Option<(usize, f64)> {
        self.best
    }

    /// The second-smallest offer so far (earliest on ties among the rest).
    pub fn second(&self) -> Option<(usize, f64)> {
        self.second
    }

    /// The smallest offer whose id is not `id` — the "cheapest sharer that
    /// isn't the buyer" query the market clearing asks per request batch.
    pub fn min_excluding(&self, id: usize) -> Option<(usize, f64)> {
        match self.best {
            Some((b, _)) if b == id => self.second,
            found => found,
        }
    }
}

/// Reference implementation of [`TwoSmallest::min_excluding`]: a full
/// first-minimal scan over the offer list, skipping `exclude`.
pub fn two_smallest_naive(offers: &[(usize, f64)], exclude: usize) -> Option<(usize, f64)> {
    let mut min: Option<(usize, f64)> = None;
    for &(id, key) in offers {
        if id == exclude {
            continue;
        }
        match min {
            Some((_, k)) if key >= k => {}
            _ => min = Some((id, key)),
        }
    }
    min
}

/// Differential oracle for the two-smallest tracker: feeds `offers` (ids
/// must be distinct, keys non-NaN) through a [`TwoSmallest`] and checks
/// `min_excluding` against [`two_smallest_naive`] for every offered id and
/// for an id that never offered.
///
/// # Errors
///
/// Returns [`AuditError::OracleDivergence`] naming the excluded id and the
/// two answers.
pub fn check_two_smallest(offers: &[(usize, f64)]) -> Result<(), AuditError> {
    let mut tracker = TwoSmallest::new();
    for &(id, key) in offers {
        tracker.offer(id, key);
    }
    let absent = offers.iter().map(|&(id, _)| id).max().map_or(0, |m| m + 1);
    for exclude in offers.iter().map(|&(id, _)| id).chain([absent]) {
        let fast = tracker.min_excluding(exclude);
        let slow = two_smallest_naive(offers, exclude);
        // Bit-level comparison: the tracker must return the same id and
        // the same key bits the scan would (0.0 vs -0.0 included).
        let same = match (fast, slow) {
            (None, None) => true,
            (Some((fi, fk)), Some((si, sk))) => fi == si && fk.to_bits() == sk.to_bits(),
            _ => false,
        };
        if !same {
            return Err(AuditError::OracleDivergence {
                what: "two_smallest",
                detail: format!(
                    "excluding id {exclude}: tracker {fast:?} vs min_by scan {slow:?} \
                     over {} offers",
                    offers.len()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulps_basics() {
        assert_eq!(ulps_between(1.0, 1.0), 0);
        assert_eq!(ulps_between(0.0, -0.0), 0);
        assert_eq!(ulps_between(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulps_between(1.0 + f64::EPSILON, 1.0), 1);
        // Across zero: one step each side of ±0.
        let tiny = f64::from_bits(1);
        assert_eq!(ulps_between(tiny, -tiny), 2);
        assert_eq!(ulps_between(f64::NAN, 1.0), u64::MAX);
        assert!(ulps_between(1.0, 2.0) > 1_000_000);
    }

    #[test]
    fn pricer_oracle_accepts_the_fast_path() {
        let strategies = [0.0, 0.25, 1.0, 0.625, 0.5];
        // Dyadic inputs: every product and sum is exact, so the two
        // evaluation orders agree bit-for-bit.
        assert_eq!(pricer_max_ulps(5.0, 2.0, 0.5, &strategies), 0);
        check_pricer(5.0, 2.0, 0.5, &strategies, 1).unwrap();
    }

    #[test]
    fn pricer_oracle_rejects_a_corrupted_price() {
        // Feeding the checker a deliberately different eta1 via a wrapped
        // profile is awkward; instead verify the ULP measure itself flags
        // a perturbation of the magnitude a real bug would produce.
        let base = finite_population_price(5.0, 2.0, 0.5, &[0.2, 0.7], 0);
        assert!(ulps_between(base, base + 1e-9) > 1);
    }

    #[test]
    fn two_smallest_matches_scan_on_ties_and_exclusions() {
        // Duplicated keys, the minimum arriving late, and an excluded
        // element that is / is not the minimum.
        let cases: &[&[(usize, f64)]] = &[
            &[],
            &[(3, 1.0)],
            &[(0, 2.0), (1, 1.0), (2, 2.0)],
            &[(0, 1.0), (1, 1.0), (2, 1.0)],
            &[(5, 3.0), (4, 2.0), (3, 1.0), (2, 0.5)],
            &[(0, 0.0), (1, -0.0)],
        ];
        for offers in cases {
            check_two_smallest(offers).unwrap();
        }
    }

    #[test]
    fn two_smallest_runner_up_is_first_minimal_among_the_rest() {
        let mut t = TwoSmallest::new();
        for (id, k) in [(0, 2.0), (1, 1.0), (2, 2.0)] {
            t.offer(id, k);
        }
        assert_eq!(t.best(), Some((1, 1.0)));
        // Runner-up is id 0 (the earlier of the two 2.0s: id 0 was demoted
        // when id 1 took over, and id 2's equal key does not displace it).
        assert_eq!(t.second(), Some((0, 2.0)));
        assert_eq!(t.min_excluding(1), Some((0, 2.0)));
        assert_eq!(t.min_excluding(0), Some((1, 1.0)));
        t.clear();
        assert_eq!(t.best(), None);
    }
}
