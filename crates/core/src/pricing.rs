//! The supply–demand pricing rule.
//!
//! Finite population (Eq. (5)):
//! `p_{i,k} = p̂ − η₁ · Σ_{i'≠i} Q_k·x_{i',k} / (M − 1)` for `M ≥ 2`
//! (and `p̂` for a monopolist) — the more of content `k` the *other* EDPs
//! supply, the lower the price EDP `i` can charge.
//!
//! Mean-field limit (Eqs. (16)–(17)):
//! `p_k(t) ≈ p̂ − η₁·Q_k · ∬ λ(S)·x*(S) dh dq` — the average supply under
//! the mean-field distribution replaces the explicit sum over competitors.

use mfgcp_pde::Field2d;

/// Finite-population price of Eq. (5) for EDP `i`, given every EDP's
/// caching rate `strategies` (including `i`'s own, which is excluded from
/// the sum exactly as in the paper).
///
/// The price is floored at zero: the paper's linear rule can go negative
/// for large supplies, which would mean EDPs paying requesters to take
/// content; a free giveaway (price 0) is the economically meaningful floor.
///
/// # Panics
///
/// Panics if `strategies` is empty or `i` is out of range.
pub fn finite_population_price(
    p_hat: f64,
    eta1: f64,
    q_size: f64,
    strategies: &[f64],
    i: usize,
) -> f64 {
    let m = strategies.len();
    assert!(m > 0, "need at least one EDP");
    assert!(i < m, "EDP index {i} out of range {m}");
    if m == 1 {
        return p_hat.max(0.0);
    }
    let supply: f64 = strategies
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != i)
        .map(|(_, x)| q_size * x)
        .sum();
    (p_hat - eta1 * supply / (m - 1) as f64).max(0.0)
}

/// Shared-supply evaluation of Eq. (5): one O(M) pass per (content, slot)
/// builds `Σ_i x_i`, after which every EDP's price is the O(1) identity
/// `p̂ − η₁·Q_k·(Σx − x_i)/(M − 1)` — the competitor sum `Σ_{i'≠i} x_{i'}`
/// rewritten as total-minus-own. This turns the market-clearing pricing
/// pass from O(M²) per content into O(M); [`finite_population_price`] is
/// kept as the per-EDP reference implementation and property-test oracle.
#[derive(Clone, Copy, Debug)]
pub struct SharedSupplyPricer {
    p_hat: f64,
    /// `η₁·Q_k`, folded once.
    eta1_q: f64,
    m: usize,
    /// `Σ_i x_i` over the whole population (own strategy included).
    sum_x: f64,
}

impl SharedSupplyPricer {
    /// Accumulate the shared supply sum for one (content, slot).
    ///
    /// # Panics
    ///
    /// Panics if `strategies` is empty.
    pub fn new(p_hat: f64, eta1: f64, q_size: f64, strategies: &[f64]) -> Self {
        assert!(!strategies.is_empty(), "need at least one EDP");
        Self::from_sum(
            p_hat,
            eta1,
            q_size,
            strategies.len(),
            strategies.iter().sum(),
        )
    }

    /// Build from an already-accumulated population sum `Σ_i x_i` over `m`
    /// EDPs (for callers that fold the sum in their own pass, avoiding a
    /// strategy-profile allocation).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn from_sum(p_hat: f64, eta1: f64, q_size: f64, m: usize, sum_x: f64) -> Self {
        assert!(m > 0, "need at least one EDP");
        Self {
            p_hat,
            eta1_q: eta1 * q_size,
            m,
            sum_x,
        }
    }

    /// Eq. (5) price for an EDP whose own caching rate is `own` — O(1).
    ///
    /// `own` must be the same value that entered the sum in
    /// [`SharedSupplyPricer::new`]; the monopolist case (`M = 1`) prices at
    /// the cap exactly like the reference.
    pub fn price(&self, own: f64) -> f64 {
        if self.m == 1 {
            return self.p_hat.max(0.0);
        }
        (self.p_hat - self.eta1_q * (self.sum_x - own) / (self.m - 1) as f64).max(0.0)
    }
}

/// Mean-field price of Eq. (17): `p̂ − η₁·Q_k·∬ λ·x* dh dq`, floored at 0.
///
/// # Panics
///
/// Panics if `density` and `policy` are not on the same grid.
pub fn mean_field_price(
    p_hat: f64,
    eta1: f64,
    q_size: f64,
    density: &Field2d,
    policy: &Field2d,
) -> f64 {
    assert_eq!(
        density.grid(),
        policy.grid(),
        "density/policy grid mismatch"
    );
    let mut supply = 0.0;
    for (lam, x) in density.values().iter().zip(policy.values()) {
        supply += lam * x;
    }
    price_from_supply(p_hat, eta1, q_size, supply * density.grid().cell_area())
}

/// The Eq. (17) price given the mean-field supply `∬ λ·x* dh dq` — shared
/// by [`mean_field_price`] and the one-pass estimator snapshot.
pub(crate) fn price_from_supply(p_hat: f64, eta1: f64, q_size: f64, supply: f64) -> f64 {
    (p_hat - eta1 * q_size * supply).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_pde::{Axis, Grid2d};

    fn grid() -> Grid2d {
        Grid2d::new(
            Axis::new(0.0, 1.0, 11).unwrap(),
            Axis::new(0.0, 1.0, 11).unwrap(),
        )
    }

    #[test]
    fn monopolist_charges_the_cap() {
        assert_eq!(finite_population_price(5.0, 1.0, 1.0, &[0.8], 0), 5.0);
    }

    #[test]
    fn own_strategy_is_excluded() {
        // Competitor caches 1.0, I cache 0.0 → supply average = 1.0.
        let p = finite_population_price(5.0, 2.0, 1.0, &[0.0, 1.0], 0);
        assert!((p - 3.0).abs() < 1e-12);
        // Symmetric view: competitor caches 0 → no depression.
        let p = finite_population_price(5.0, 2.0, 1.0, &[0.0, 1.0], 1);
        assert!((p - 5.0).abs() < 1e-12);
    }

    #[test]
    fn more_competition_lowers_the_price() {
        let few = finite_population_price(5.0, 2.0, 1.0, &[0.0, 0.5, 0.0], 0);
        let many = finite_population_price(5.0, 2.0, 1.0, &[0.0, 0.5, 0.9], 0);
        assert!(many < few);
    }

    #[test]
    fn price_never_negative() {
        let p = finite_population_price(1.0, 100.0, 1.0, &[0.0, 1.0], 0);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn shared_sum_matches_reference_on_small_profiles() {
        let strategies = [0.0, 0.25, 1.0, 0.6];
        let pricer = SharedSupplyPricer::new(5.0, 2.0, 0.8, &strategies);
        for (i, &x) in strategies.iter().enumerate() {
            let oracle = finite_population_price(5.0, 2.0, 0.8, &strategies, i);
            assert!((pricer.price(x) - oracle).abs() < 1e-12, "EDP {i}");
        }
    }

    #[test]
    fn shared_sum_monopolist_charges_the_cap() {
        let pricer = SharedSupplyPricer::new(5.0, 1.0, 1.0, &[0.8]);
        assert_eq!(pricer.price(0.8), 5.0);
        let negative_cap = SharedSupplyPricer::new(-1.0, 1.0, 1.0, &[0.8]);
        assert_eq!(negative_cap.price(0.8), 0.0);
    }

    #[test]
    fn shared_sum_floors_at_zero() {
        let strategies = [0.0, 1.0];
        let pricer = SharedSupplyPricer::new(1.0, 100.0, 1.0, &strategies);
        assert_eq!(pricer.price(0.0), 0.0);
    }

    #[test]
    fn mean_field_price_matches_uniform_supply() {
        let g = grid();
        let mut lam = Field2d::from_fn(g.clone(), |_, _| 1.0);
        lam.normalize();
        let policy = Field2d::from_fn(g, |_, _| 0.5);
        // ∬λ·x = 0.5 → p = 5 − 2·1·0.5 = 4.
        let p = mean_field_price(5.0, 2.0, 1.0, &lam, &policy);
        assert!((p - 4.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn mean_field_price_weights_by_density() {
        let g = grid();
        // All mass where the policy is 1.
        let mut lam = Field2d::from_fn(g.clone(), |_, q| if q > 0.5 { 1.0 } else { 0.0 });
        lam.normalize();
        let policy = Field2d::from_fn(g, |_, q| if q > 0.5 { 1.0 } else { 0.0 });
        let p = mean_field_price(5.0, 1.0, 1.0, &lam, &policy);
        assert!((p - 4.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn finite_population_converges_to_mean_field() {
        // A large symmetric population with everyone at x̄ = 0.4 should
        // price like the mean-field formula with ∬λx = 0.4.
        let m = 1000;
        let strategies = vec![0.4; m];
        let p_finite = finite_population_price(5.0, 1.0, 1.0, &strategies, 0);
        let g = grid();
        let mut lam = Field2d::from_fn(g.clone(), |_, _| 1.0);
        lam.normalize();
        let policy = Field2d::from_fn(g, |_, _| 0.4);
        let p_mf = mean_field_price(5.0, 1.0, 1.0, &lam, &policy);
        assert!((p_finite - p_mf).abs() < 1e-6, "{p_finite} vs {p_mf}");
    }
}
