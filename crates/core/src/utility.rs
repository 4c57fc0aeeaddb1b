//! The utility model of §III-A (Eq. (10)):
//!
//! `U_k(t) = Φ¹ + Φ² − C¹ − C² − C³`
//!
//! * trading income `Φ¹` (Eq. (6)): requests × price × the amount of data
//!   actually sold under each of the three response cases;
//! * sharing benefit `Φ²` (Eq. (7)): in the mean-field view, the average
//!   benefit `Φ̄²` produced by the estimator;
//! * placement cost `C¹ = w₄x + w₅x²` (Eq. (8));
//! * staleness cost `C²` (Eq. (9)): η₂ × the total service delay — the
//!   center download for the caching rate, plus the per-case transmission
//!   delays to every requester;
//! * sharing cost `C³ = P²·p̄_k·(q − q̄₋)`.

use crate::cases::{CaseFactors, CaseProbabilities};
use crate::estimator::MeanFieldSnapshot;
use crate::params::Params;
use crate::rate::RateModel;
use crate::sigmoid::Sigmoid;

/// Per-content, per-epoch workload facts entering the utility and the
/// caching drift: `|I_k(t)|`, `Π_k(t)`, `ξ^{L_k(t)}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentContext {
    /// Request count `|I_k(t)|` per epoch.
    pub requests: f64,
    /// Popularity `Π_k(t)`.
    pub popularity: f64,
    /// Urgency factor `ξ^{L_k(t)}`.
    pub urgency_factor: f64,
}

impl ContentContext {
    /// The context implied by the defaults in `params`.
    pub fn from_params(params: &Params) -> Self {
        Self {
            requests: params.requests,
            popularity: params.popularity,
            urgency_factor: params.urgency_factor,
        }
    }
}

/// The individual terms of Eq. (10), exposed for the figure benches
/// (Figs. 8, 12–14 plot incomes and staleness costs separately).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilityBreakdown {
    /// Trading income `Φ¹`.
    pub trading_income: f64,
    /// Sharing benefit `Φ²`.
    pub sharing_benefit: f64,
    /// Placement cost `C¹`.
    pub placement_cost: f64,
    /// Staleness cost `C²`.
    pub staleness_cost: f64,
    /// Sharing cost `C³`.
    pub sharing_cost: f64,
}

impl UtilityBreakdown {
    /// Net utility `Φ¹ + Φ² − C¹ − C² − C³` (Eq. (10)).
    pub fn total(&self) -> f64 {
        self.trading_income + self.sharing_benefit
            - self.placement_cost
            - self.staleness_cost
            - self.sharing_cost
    }
}

/// Evaluates the generic player's utility at a state `(h, q)` given the
/// mean-field snapshot.
#[derive(Debug, Clone)]
pub struct Utility {
    params: Params,
    sigmoid: Sigmoid,
    rate: RateModel,
}

impl Utility {
    /// Build the evaluator (the rate model is calibrated from `params`).
    pub fn new(params: Params) -> Self {
        let sigmoid = Sigmoid::new(params.sigmoid_l);
        let rate = RateModel::from_params(&params);
        Self {
            params,
            sigmoid,
            rate,
        }
    }

    /// Case probabilities at own state `q` and peer state `q_peer`.
    pub fn cases(&self, q: f64, q_peer: f64) -> CaseProbabilities {
        CaseProbabilities::compute(self.sigmoid, q, q_peer, self.params.alpha_qk())
    }

    /// The sigmoid pair of one caching state `s` (own or peer) against the
    /// `α·Q_k` threshold; [`CaseProbabilities::from_factors`] combines two.
    pub(crate) fn case_factors(&self, s: f64) -> CaseFactors {
        CaseFactors::at(self.sigmoid, s, self.params.alpha_qk())
    }

    /// The edge delivery rate `H(h)` at fading `h`, floored at `1e-9` so
    /// the per-case delays of Eq. (9) stay finite.
    pub(crate) fn edge_rate(&self, h: f64) -> f64 {
        self.rate.rate(h).max(1e-9)
    }

    /// Trading income `Φ¹` (Eq. (6)): each of the `|I_k|` requesters pays
    /// `p_k` per unit for the data actually delivered — the cached part
    /// `Q_k − q` in case 1, the peer-completed `Q_k − q̄₋` in case 2, the
    /// full `Q_k` in case 3.
    pub fn trading_income(&self, ctx: &ContentContext, mf: &MeanFieldSnapshot, q: f64) -> f64 {
        self.trading_income_with(ctx, mf, q, &self.cases(q, mf.q_bar))
    }

    fn trading_income_with(
        &self,
        ctx: &ContentContext,
        mf: &MeanFieldSnapshot,
        q: f64,
        c: &CaseProbabilities,
    ) -> f64 {
        let qk = self.params.q_size;
        let sold = c.p1 * (qk - q).max(0.0) + c.p2 * (qk - mf.q_bar).max(0.0) + c.p3 * qk;
        ctx.requests * mf.price * sold
    }

    /// Placement cost `C¹ = w₄x + w₅x²` (Eq. (8)).
    pub fn placement_cost(&self, x: f64) -> f64 {
        self.params.w4 * x + self.params.w5 * x * x
    }

    /// Staleness cost `C²` (Eq. (9)): η₂ × total service delay.
    pub fn staleness_cost(
        &self,
        ctx: &ContentContext,
        mf: &MeanFieldSnapshot,
        x: f64,
        h: f64,
        q: f64,
    ) -> f64 {
        self.staleness_cost_with(ctx, mf, x, q, &self.cases(q, mf.q_bar), self.edge_rate(h))
    }

    fn staleness_cost_with(
        &self,
        ctx: &ContentContext,
        mf: &MeanFieldSnapshot,
        x: f64,
        q: f64,
        c: &CaseProbabilities,
        hj: f64,
    ) -> f64 {
        let p = &self.params;
        let qk = p.q_size;
        let hc = p.center_rate;
        // Downloading the caching rate's worth of data from the center.
        let download = qk * x / hc;
        // Per-requester delivery delay under each case.
        let per_request = c.p1 * (qk - q).max(0.0) / hj
            + c.p2 * (qk - mf.q_bar).max(0.0) / hj
            + c.p3 * (q / hc + qk / hj);
        p.eta2 * (download + ctx.requests * per_request)
    }

    /// Sharing cost `C³ = P²·p̄_k·(q − q̄₋)`: the remuneration paid to the
    /// peer for completing the missing `q − q̄₋` units in case 2.
    pub fn sharing_cost(&self, mf: &MeanFieldSnapshot, q: f64) -> f64 {
        self.sharing_cost_with(mf, q, &self.cases(q, mf.q_bar))
    }

    fn sharing_cost_with(&self, mf: &MeanFieldSnapshot, q: f64, c: &CaseProbabilities) -> f64 {
        c.p2 * self.params.p_bar * (q - mf.q_bar).max(0.0)
    }

    /// Full breakdown of Eq. (10) at control `x`, state `(h, q)`.
    pub fn breakdown(
        &self,
        ctx: &ContentContext,
        mf: &MeanFieldSnapshot,
        x: f64,
        h: f64,
        q: f64,
    ) -> UtilityBreakdown {
        self.breakdown_with(ctx, mf, x, q, &self.cases(q, mf.q_bar), self.edge_rate(h))
    }

    /// [`Utility::breakdown`] from precomputed state-only factors: the
    /// case probabilities `cases` at `(q, mf.q_bar)` (see
    /// [`Utility::cases`]) and the edge rate `hj` at the state's fading
    /// (see [`Utility::edge_rate`]). These hold every transcendental of
    /// Eq. (10), so callers sweeping a grid table them once per row or
    /// column instead of once per cell; [`Utility::breakdown`] calls this,
    /// so both give the same bits.
    pub(crate) fn breakdown_with(
        &self,
        ctx: &ContentContext,
        mf: &MeanFieldSnapshot,
        x: f64,
        q: f64,
        cases: &CaseProbabilities,
        hj: f64,
    ) -> UtilityBreakdown {
        UtilityBreakdown {
            trading_income: self.trading_income_with(ctx, mf, q, cases),
            sharing_benefit: mf.share_benefit,
            placement_cost: self.placement_cost(x),
            staleness_cost: self.staleness_cost_with(ctx, mf, x, q, cases, hj),
            sharing_cost: self.sharing_cost_with(mf, q, cases),
        }
    }

    /// Net utility `U_k(t, x, S, λ)` (Eq. (10)).
    pub fn evaluate(
        &self,
        ctx: &ContentContext,
        mf: &MeanFieldSnapshot,
        x: f64,
        h: f64,
        q: f64,
    ) -> f64 {
        self.breakdown(ctx, mf, x, h, q).total()
    }

    /// The closed-form optimal control of Thm. 1 (Eq. (21)) given the
    /// normalized value gradient `∂_q̃ V` (the paper's `Q_k·∂_q V` after the
    /// `q̃ = q/Q_k` normalization; see the crate-root unit notes):
    ///
    /// `x* = [ −( w₄/(2w₅) + η₂·Q_k/(2H_c·w₅) + w₁·∂_q̃V/(2w₅) ) ]⁺`.
    pub fn optimal_control(&self, dv_dq: f64) -> f64 {
        let p = &self.params;
        let raw = -(p.w4 / (2.0 * p.w5)
            + p.eta2 * p.q_size / (2.0 * p.center_rate * p.w5)
            + p.w1 * dv_dq / (2.0 * p.w5));
        raw.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mf() -> MeanFieldSnapshot {
        MeanFieldSnapshot {
            price: 4.0,
            q_bar: 0.5,
            delta_q: 0.3,
            share_benefit: 0.2,
            sharer_fraction: 0.3,
            case3_fraction: 0.2,
        }
    }

    fn setup() -> (Utility, ContentContext) {
        let params = Params::default();
        let ctx = ContentContext::from_params(&params);
        (Utility::new(params), ctx)
    }

    #[test]
    fn placement_cost_is_quadratic() {
        let (u, _) = setup();
        assert_eq!(u.placement_cost(0.0), 0.0);
        let c1 = u.placement_cost(0.5);
        // w4·0.5 + w5·0.25 = 0.25 + 0.5.
        assert!((c1 - 0.75).abs() < 1e-12);
        assert!(u.placement_cost(1.0) > 2.0 * c1, "strictly convex");
    }

    #[test]
    fn trading_income_rises_with_price_and_requests() {
        let (u, ctx) = setup();
        let base = u.trading_income(&ctx, &mf(), 0.1);
        let pricier = MeanFieldSnapshot { price: 5.0, ..mf() };
        assert!(u.trading_income(&ctx, &pricier, 0.1) > base);
        let busier = ContentContext {
            requests: 20.0,
            ..ctx
        };
        assert!(u.trading_income(&busier, &mf(), 0.1) > base);
    }

    #[test]
    fn fully_cached_edp_sells_the_most() {
        let (u, ctx) = setup();
        // q = 0: cached everything → sells Q_k per request (case 1).
        let full = u.trading_income(&ctx, &mf(), 0.0);
        // q = 1: cached nothing; with q̄ = 0.5 the peer completes half.
        let empty = u.trading_income(&ctx, &mf(), 1.0);
        assert!(full > 0.0 && empty > 0.0);
        // Expected: full ≈ I·p·Q_k = 10·4·1 = 40.
        assert!((full - 40.0).abs() < 2.0, "full {full}");
    }

    #[test]
    fn staleness_cost_increases_with_caching_rate() {
        let (u, ctx) = setup();
        let low = u.staleness_cost(&ctx, &mf(), 0.0, 5.0e-5, 0.5);
        let high = u.staleness_cost(&ctx, &mf(), 1.0, 5.0e-5, 0.5);
        assert!(high > low, "downloading more data takes longer");
        // The difference is exactly η₂·Q_k/H_c.
        assert!((high - low - 1.0 / 1.25).abs() < 1e-9);
    }

    #[test]
    fn staleness_cost_decreases_with_better_channel() {
        let (u, ctx) = setup();
        let bad = u.staleness_cost(&ctx, &mf(), 0.5, 1.0e-5, 0.5);
        let good = u.staleness_cost(&ctx, &mf(), 0.5, 9.0e-5, 0.5);
        assert!(good < bad);
    }

    #[test]
    fn sharing_cost_only_in_case_2() {
        let (u, _) = setup();
        // q = 0.9 (short), q̄ = 0.05 (peer full) → deep in case 2.
        let mf_case2 = MeanFieldSnapshot {
            q_bar: 0.05,
            ..mf()
        };
        let c = u.sharing_cost(&mf_case2, 0.9);
        assert!((c - 1.0 * 0.85).abs() < 0.05, "cost {c}");
        // q = 0.05 (own cache full) → no sharing needed.
        assert!(u.sharing_cost(&mf_case2, 0.05) < 0.02);
    }

    #[test]
    fn breakdown_total_is_the_sum() {
        let (u, ctx) = setup();
        let b = u.breakdown(&ctx, &mf(), 0.4, 5.0e-5, 0.6);
        let expected = b.trading_income + b.sharing_benefit
            - b.placement_cost
            - b.staleness_cost
            - b.sharing_cost;
        assert_eq!(b.total(), expected);
        assert_eq!(u.evaluate(&ctx, &mf(), 0.4, 5.0e-5, 0.6), expected);
    }

    #[test]
    fn optimal_control_matches_the_first_order_condition() {
        // x* maximizes the Hamiltonian term
        //   drift_q(x)·∂V − C¹(x) − η₂·Q_k·x/H_c
        // whose x-derivative is −w₁∂V − w₄ − 2w₅x − η₂Q_k/H_c.
        let (u, _) = setup();
        let dv = -2.0;
        let x_star = u.optimal_control(dv);
        assert!(x_star > 0.0 && x_star < 1.0, "interior: {x_star}");
        let p = &u.params;
        let foc = -p.w1 * dv - p.w4 - 2.0 * p.w5 * x_star - p.eta2 * p.q_size / p.center_rate;
        assert!(foc.abs() < 1e-9, "FOC residual {foc}");
    }

    #[test]
    fn optimal_control_clamps_at_both_ends() {
        let (u, _) = setup();
        assert_eq!(u.optimal_control(100.0), 0.0);
        assert_eq!(u.optimal_control(-1000.0), 1.0);
    }

    #[test]
    fn hamiltonian_is_maximized_at_x_star() {
        // Verify Thm. 1 numerically: scan x and check the closed form wins.
        let (u, ctx) = setup();
        let p = u.params.clone();
        let dv = -1.5;
        let x_star = u.optimal_control(dv);
        let ham = |x: f64| {
            p.drift_q(x, ctx.popularity, ctx.urgency_factor) * dv
                + u.evaluate(&ctx, &mf(), x, 5.0e-5, 0.5)
        };
        let best = ham(x_star);
        let mut x = 0.0;
        while x <= 1.0 {
            assert!(ham(x) <= best + 1e-9, "x = {x} beats x* = {x_star}");
            x += 0.01;
        }
    }
}
