//! The mean-field estimator of §IV-B(1).
//!
//! Given the mean-field density `λ(S_k(t))` and the current policy surface
//! `x*(S)`, the estimator computes everything the generic player needs that
//! would otherwise require querying all `M − 1` competitors:
//!
//! * the dynamic price `p_k(t)` (Eq. (17));
//! * the average peer caching state `q̄₋(t)` (Eq. (18));
//! * the average transfer size `Δq̄(t)` between a sharing and a needing EDP;
//! * the population fractions qualified to share (`M_k/M`, those with
//!   `q ≤ α·Q_k`) and stuck in case 3 (`M'_k/M`);
//! * the average sharing benefit
//!   `Φ̄²_k(t) = p̄_k·Δq̄·((M − M'_k)/M_k − 1)`.

use mfgcp_pde::{Axis, Field2d};

use crate::params::Params;
use crate::pricing::price_from_supply;
use crate::sigmoid::Sigmoid;

/// The per-time-step quantities produced by the estimator and consumed by
/// the generic player's utility (§IV-B(2)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanFieldSnapshot {
    /// Dynamic trading price `p_k(t)` (Eq. (17)).
    pub price: f64,
    /// Average peer remaining space `q̄₋(t)` (Eq. (18)).
    pub q_bar: f64,
    /// Average transfer size `Δq̄(t)`.
    pub delta_q: f64,
    /// Average sharing benefit `Φ̄²_k(t)` accruing to a qualified sharer.
    pub share_benefit: f64,
    /// Fraction of EDPs qualified to share (`M_k/M`).
    pub sharer_fraction: f64,
    /// Fraction of EDPs in case 3 (`M'_k/M`).
    pub case3_fraction: f64,
}

/// Computes [`MeanFieldSnapshot`]s from a density and a policy.
#[derive(Debug, Clone)]
pub struct MeanFieldEstimator {
    params: Params,
    sigmoid: Sigmoid,
    /// The solver grid's `q` axis, which the rows below are tabled on.
    q_axis: Axis,
    /// `q_j` per `q` node.
    q_row: Vec<f64>,
    /// `σ(q_j − α·Q_k)` per `q` node: the own-short factor of case 3.
    own_short_row: Vec<f64>,
}

/// The eight running sums behind one [`MeanFieldSnapshot`], each over the
/// whole grid in row-major (`h`-major) order and not yet scaled by the
/// cell area.
#[derive(Debug, Clone, Copy)]
struct MomentSums {
    mass: f64,
    q: f64,
    sharer_mass: f64,
    needer_mass: f64,
    sharer_q: f64,
    needer_q: f64,
    own_short: f64,
    supply: f64,
}

impl MomentSums {
    /// One pass over `density`/`policy`. Every sum adds the same `w·λ`
    /// products in the same order as the per-quantity
    /// [`Field2d::integral`]/[`Field2d::weighted_integral`] passes of the
    /// component methods (and [`crate::mean_field_price`]'s `λ·x`), so each
    /// sum is bit-identical to theirs.
    fn accumulate(
        density: &Field2d,
        policy: &Field2d,
        thr: f64,
        q_of: impl Fn(usize) -> f64,
        own_short_of: impl Fn(usize) -> f64,
    ) -> Self {
        let ny = density.grid().y().len();
        // `f64: Sum` folds from −0.0; the sign of a zero mass never reaches
        // an output (every use is behind `mass <= 0.0`), but mirror it.
        let mut s = Self {
            mass: -0.0,
            q: 0.0,
            sharer_mass: 0.0,
            needer_mass: 0.0,
            sharer_q: 0.0,
            needer_q: 0.0,
            own_short: 0.0,
            supply: 0.0,
        };
        let rows = density.values().chunks_exact(ny);
        for (lam_row, x_row) in rows.zip(policy.values().chunks_exact(ny)) {
            for (j, (&lam, &x)) in lam_row.iter().zip(x_row).enumerate() {
                let q = q_of(j);
                let sharer = q <= thr;
                let needer = q > thr;
                s.mass += lam;
                s.q += q * lam;
                s.sharer_mass += f64::from(u8::from(sharer)) * lam;
                s.needer_mass += f64::from(u8::from(needer)) * lam;
                s.sharer_q += (if sharer { q } else { 0.0 }) * lam;
                s.needer_q += (if needer { q } else { 0.0 }) * lam;
                s.own_short += own_short_of(j) * lam;
                s.supply += lam * x;
            }
        }
        s
    }
}

impl MeanFieldEstimator {
    /// Create an estimator for the given parameters.
    pub fn new(params: Params) -> Self {
        let sigmoid = Sigmoid::new(params.sigmoid_l);
        let q_axis = params.grid().y().clone();
        let thr = params.alpha_qk();
        let q_row = q_axis.coords();
        let own_short_row = q_row.iter().map(|&q| sigmoid.eval(q - thr)).collect();
        Self {
            params,
            sigmoid,
            q_axis,
            q_row,
            own_short_row,
        }
    }

    /// Average remaining space `q̄₋ = ∬ q·λ dh dq` (Eq. (18)).
    ///
    /// The density is renormalized inside the integral so small
    /// mass-clipping at the walls cannot bias the average.
    pub fn q_bar(&self, density: &Field2d) -> f64 {
        let mass = density.integral();
        if mass <= 0.0 {
            return 0.0;
        }
        density.weighted_integral(|_h, q| q) / mass
    }

    /// Fraction of EDPs with `q ≤ α·Q_k` — those holding enough of the
    /// content to share it (`M_k / M`).
    pub fn sharer_fraction(&self, density: &Field2d) -> f64 {
        let mass = density.integral();
        if mass <= 0.0 {
            return 0.0;
        }
        let thr = self.params.alpha_qk();
        density.weighted_integral(|_h, q| f64::from(u8::from(q <= thr))) / mass
    }

    /// Average transfer size `Δq̄`: the gap between the average state of
    /// the needing population (`q > α·Q_k`) and the sharing population
    /// (`q ≤ α·Q_k`).
    pub fn delta_q(&self, density: &Field2d) -> f64 {
        let thr = self.params.alpha_qk();
        let mass_sharers = density.weighted_integral(|_h, q| f64::from(u8::from(q <= thr)));
        let mass_needers = density.weighted_integral(|_h, q| f64::from(u8::from(q > thr)));
        let q_sharers = density.weighted_integral(|_h, q| if q <= thr { q } else { 0.0 });
        let q_needers = density.weighted_integral(|_h, q| if q > thr { q } else { 0.0 });
        transfer_gap(mass_sharers, mass_needers, q_sharers, q_needers)
    }

    /// Fraction of the population in case 3: both the EDP and its potential
    /// peer lack the content (`M'_k / M ≈ ∬ P³(q, q̄) λ`).
    pub fn case3_fraction(&self, density: &Field2d) -> f64 {
        let mass = density.integral();
        if mass <= 0.0 {
            return 0.0;
        }
        let thr = self.params.alpha_qk();
        let q_bar = self.q_bar(density);
        let peer_short = self.sigmoid.eval(q_bar - thr);
        let own_short = density.weighted_integral(|_h, q| self.sigmoid.eval(q - thr)) / mass;
        own_short * peer_short
    }

    /// Average sharing benefit
    /// `Φ̄²_k = p̄_k·Δq̄·((M − M')/M_k − 1)`, clamped at zero when nobody is
    /// qualified to share. `(M − M')/M_k − 1` counts how many buyers each
    /// qualified sharer serves beyond itself.
    pub fn share_benefit(&self, density: &Field2d) -> f64 {
        self.benefit(
            self.sharer_fraction(density),
            self.case3_fraction(density),
            self.delta_q(density),
        )
    }

    fn benefit(&self, sharer_fraction: f64, case3_fraction: f64, delta_q: f64) -> f64 {
        let m = self.params.num_edps as f64;
        let m_k = (sharer_fraction * m).max(1.0);
        let m_prime = case3_fraction * m;
        let buyers_per_sharer = ((m - m_prime) / m_k - 1.0).max(0.0);
        self.params.p_bar * delta_q * buyers_per_sharer
    }

    /// Assemble the full snapshot from a density and the current policy
    /// (Alg. 2 line 9) in one pass over the grid. Bit-identical to
    /// assembling it from [`crate::mean_field_price`] and the component methods
    /// above, which each make their own passes.
    ///
    /// # Panics
    ///
    /// Panics if `density` and `policy` are not on the same grid.
    pub fn snapshot(&self, density: &Field2d, policy: &Field2d) -> MeanFieldSnapshot {
        assert_eq!(
            density.grid(),
            policy.grid(),
            "density/policy grid mismatch"
        );
        let p = &self.params;
        let thr = p.alpha_qk();
        let axis = density.grid().y();
        let s = if *axis == self.q_axis {
            MomentSums::accumulate(
                density,
                policy,
                thr,
                |j| self.q_row[j],
                |j| self.own_short_row[j],
            )
        } else {
            MomentSums::accumulate(
                density,
                policy,
                thr,
                |j| axis.at(j),
                |j| self.sigmoid.eval(axis.at(j) - thr),
            )
        };
        let cell = density.grid().cell_area();
        let mass = s.mass * cell;
        let (q_bar, sharer_fraction, case3_fraction) = if mass <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            let q_bar = s.q * cell / mass;
            let own_short = s.own_short * cell / mass;
            (
                q_bar,
                s.sharer_mass * cell / mass,
                own_short * self.sigmoid.eval(q_bar - thr),
            )
        };
        let delta_q = transfer_gap(
            s.sharer_mass * cell,
            s.needer_mass * cell,
            s.sharer_q * cell,
            s.needer_q * cell,
        );
        MeanFieldSnapshot {
            price: price_from_supply(p.p_hat, p.eta1, p.q_size, s.supply * cell),
            q_bar,
            delta_q,
            share_benefit: self.benefit(sharer_fraction, case3_fraction, delta_q),
            sharer_fraction,
            case3_fraction,
        }
    }
}

/// `Δq̄ = |q̄_needers − q̄_sharers|` from the two populations' masses and
/// `q`-moments (an empty population averages to 0).
fn transfer_gap(mass_sharers: f64, mass_needers: f64, q_sharers: f64, q_needers: f64) -> f64 {
    let avg_sharers = if mass_sharers > 1e-12 {
        q_sharers / mass_sharers
    } else {
        0.0
    };
    let avg_needers = if mass_needers > 1e-12 {
        q_needers / mass_needers
    } else {
        0.0
    };
    (avg_needers - avg_sharers).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::mean_field_price;
    use mfgcp_pde::Grid2d;

    fn grid() -> Grid2d {
        Grid2d::new(
            Axis::new(1.0e-5, 10.0e-5, 8).unwrap(),
            Axis::new(0.0, 1.0, 101).unwrap(),
        )
    }

    fn delta_density(q0: f64) -> Field2d {
        // All mass concentrated near q = q0 (uniform in h).
        let mut f = Field2d::from_fn(grid(), |_h, q| {
            let z = (q - q0) / 0.02;
            (-0.5 * z * z).exp()
        });
        f.normalize();
        f
    }

    fn estimator() -> MeanFieldEstimator {
        MeanFieldEstimator::new(Params::default())
    }

    #[test]
    fn q_bar_of_concentrated_density() {
        let est = estimator();
        let lam = delta_density(0.6);
        assert!((est.q_bar(&lam) - 0.6).abs() < 0.01);
    }

    #[test]
    fn sharer_fraction_tracks_the_threshold() {
        let est = estimator();
        // α·Q_k = 0.2; all mass at q = 0.05 → everyone can share.
        assert!(est.sharer_fraction(&delta_density(0.05)) > 0.95);
        // All mass at q = 0.8 → nobody can share.
        assert!(est.sharer_fraction(&delta_density(0.8)) < 0.05);
    }

    #[test]
    fn delta_q_measures_the_gap() {
        let est = estimator();
        // Half the mass at 0.1 (sharers), half at 0.7 (needers).
        let mut lam = Field2d::from_fn(grid(), |_h, q| {
            let z1 = (q - 0.1) / 0.02;
            let z2 = (q - 0.7) / 0.02;
            (-0.5 * z1 * z1).exp() + (-0.5 * z2 * z2).exp()
        });
        lam.normalize();
        assert!(
            (est.delta_q(&lam) - 0.6).abs() < 0.02,
            "Δq = {}",
            est.delta_q(&lam)
        );
    }

    #[test]
    fn case3_fraction_high_when_everyone_is_short() {
        let est = estimator();
        assert!(est.case3_fraction(&delta_density(0.9)) > 0.9);
        assert!(est.case3_fraction(&delta_density(0.05)) < 0.1);
    }

    #[test]
    fn share_benefit_zero_when_everyone_has_the_content() {
        let est = estimator();
        // Everyone qualified (q = 0.05): no buyers → the (M−M')/M_k − 1
        // factor is ≈ 0.
        let b = est.share_benefit(&delta_density(0.05));
        assert!(b < 0.05, "benefit {b}");
    }

    #[test]
    fn share_benefit_positive_with_mixed_population() {
        // Sharing is active when the population mean sits near the α·Q_k
        // threshold (the paper's mean-field peer is the average EDP):
        // 20% well-stocked sharers, 80% needers just above the threshold.
        let est = estimator();
        let mut lam = Field2d::from_fn(grid(), |_h, q| {
            let z1 = (q - 0.08) / 0.02;
            let z2 = (q - 0.32) / 0.02;
            0.2 * (-0.5 * z1 * z1).exp() + 0.8 * (-0.5 * z2 * z2).exp()
        });
        lam.normalize();
        let b = est.share_benefit(&lam);
        assert!(b > 0.05, "benefit {b}");
    }

    /// Asserts `snapshot` equals the component methods and
    /// `mean_field_price`, each field compared bit for bit.
    fn assert_snapshot_matches_components(
        est: &MeanFieldEstimator,
        lam: &Field2d,
        policy: &Field2d,
    ) {
        let p = &est.params;
        let snap = est.snapshot(lam, policy);
        let price = mean_field_price(p.p_hat, p.eta1, p.q_size, lam, policy);
        let fields = [
            ("price", snap.price, price),
            ("q_bar", snap.q_bar, est.q_bar(lam)),
            ("delta_q", snap.delta_q, est.delta_q(lam)),
            ("share_benefit", snap.share_benefit, est.share_benefit(lam)),
            (
                "sharer_fraction",
                snap.sharer_fraction,
                est.sharer_fraction(lam),
            ),
            (
                "case3_fraction",
                snap.case3_fraction,
                est.case3_fraction(lam),
            ),
        ];
        for (name, one_pass, reference) in fields {
            assert_eq!(
                one_pass.to_bits(),
                reference.to_bits(),
                "{name}: one-pass {one_pass} vs components {reference}"
            );
        }
    }

    fn random_field(grid: Grid2d, rng: &mut mfgcp_sde::SimRng, lo: f64, hi: f64) -> Field2d {
        use rand::RngExt;
        let n = grid.len();
        let values = (0..n).map(|_| rng.random_range(lo..hi)).collect();
        Field2d::from_values(grid, values).unwrap()
    }

    #[test]
    fn one_pass_snapshot_matches_components_to_0_ulp() {
        let mut rng = mfgcp_sde::seeded_rng(2024);
        // Tabled path (the solver grid), with the sigmoid sharp and soft.
        for (l, num_edps) in [(10.0, 300), (0.7, 5), (60.0, 10_000)] {
            let params = Params {
                sigmoid_l: l,
                num_edps,
                ..Params::default()
            };
            let est = MeanFieldEstimator::new(params.clone());
            for _ in 0..8 {
                let mut lam = random_field(params.grid(), &mut rng, 0.0, 1.0);
                lam.normalize();
                let policy = random_field(params.grid(), &mut rng, 0.0, 1.0);
                assert_snapshot_matches_components(&est, &lam, &policy);
            }
            // Unnormalized mass with small negative undershoots.
            let lam = random_field(params.grid(), &mut rng, -0.05, 3.0);
            let policy = random_field(params.grid(), &mut rng, 0.0, 1.0);
            assert_snapshot_matches_components(&est, &lam, &policy);
        }
        // Off-grid fallback path: a density on a grid the estimator did
        // not table.
        let est = estimator();
        let mut lam = random_field(grid(), &mut rng, 0.0, 1.0);
        lam.normalize();
        let policy = random_field(grid(), &mut rng, 0.0, 1.0);
        assert_snapshot_matches_components(&est, &lam, &policy);
        // Concentrated densities on either side of the threshold.
        for q0 in [0.05, 0.5, 0.9] {
            assert_snapshot_matches_components(&est, &delta_density(q0), &policy);
        }
    }

    #[test]
    fn one_pass_snapshot_of_a_zero_mass_density_matches_components_to_0_ulp() {
        let params = Params::default();
        let est = MeanFieldEstimator::new(params.clone());
        let policy = Field2d::from_fn(params.grid(), |_h, q| q);
        for zero in [0.0, -0.0] {
            let lam = Field2d::from_fn(params.grid(), |_h, _q| zero);
            assert_snapshot_matches_components(&est, &lam, &policy);
            let snap = est.snapshot(&lam, &policy);
            assert_eq!(snap.q_bar, 0.0);
            assert_eq!(snap.sharer_fraction, 0.0);
            assert_eq!(snap.case3_fraction, 0.0);
        }
    }

    #[test]
    fn one_pass_snapshot_with_the_threshold_on_a_node_matches_components_to_0_ulp() {
        // q nodes at k/10: α·Q_k = 0.2 is node 2 exactly, so the `q ≤ α·Q_k`
        // split and σ(0) = ½ both land on a grid column.
        let params = Params {
            grid_q: 11,
            alpha: 0.2,
            q_size: 1.0,
            ..Params::default()
        };
        let thr = params.alpha_qk();
        assert!(
            params.grid().y().coords().contains(&thr),
            "α·Q_k must sit on a q node"
        );
        let est = MeanFieldEstimator::new(params.clone());
        let mut rng = mfgcp_sde::seeded_rng(7);
        for _ in 0..8 {
            let mut lam = random_field(params.grid(), &mut rng, 0.0, 1.0);
            lam.normalize();
            let policy = random_field(params.grid(), &mut rng, 0.0, 1.0);
            assert_snapshot_matches_components(&est, &lam, &policy);
        }
        // All mass on the threshold column.
        let lam = Field2d::from_fn(params.grid(), |_h, q| f64::from(u8::from(q == thr)));
        let policy = Field2d::from_fn(params.grid(), |_h, _q| 0.5);
        assert_snapshot_matches_components(&est, &lam, &policy);
    }

    #[test]
    fn snapshot_is_consistent_with_components() {
        let est = estimator();
        let lam = delta_density(0.5);
        let policy = Field2d::from_fn(grid(), |_h, _q| 0.3);
        let snap = est.snapshot(&lam, &policy);
        assert!((snap.q_bar - est.q_bar(&lam)).abs() < 1e-12);
        assert!(
            (snap.price - (5.0 - 1.0 * 0.3)).abs() < 1e-6,
            "price {}",
            snap.price
        );
        assert!(snap.sharer_fraction >= 0.0 && snap.sharer_fraction <= 1.0);
        assert!(snap.case3_fraction >= 0.0 && snap.case3_fraction <= 1.0);
    }
}
