//! Property-based tests on the invariants that hold the reproduction
//! together, exercised across crate boundaries with proptest.

use proptest::prelude::*;

use mfgcp::core::{
    finite_population_price, CaseProbabilities, MeanFieldEstimator, Params, Sigmoid, Utility,
};
use mfgcp::pde::{Axis, Field2d, FokkerPlanck2d, Grid2d, StepperScratch};
use mfgcp::prelude::*;

fn grid() -> Grid2d {
    Grid2d::new(
        Axis::new(1.0e-5, 10.0e-5, 8).unwrap(),
        Axis::new(0.0, 1.0, 41).unwrap(),
    )
}

proptest! {
    /// FPK mass conservation under arbitrary bounded policies: whatever the
    /// control surface, probability never leaks (the discrete counterpart
    /// of `∬λ = 1` below Eq. (14)).
    #[test]
    fn fpk_conserves_mass_under_any_policy(
        xs in proptest::collection::vec(0.0_f64..=1.0, 8),
        drift_scale in 0.1_f64..2.0,
    ) {
        let g = grid();
        let mut lam = Field2d::from_fn(g.clone(), |_h, q| {
            let z = (q - 0.7) / 0.1;
            (-0.5 * z * z).exp()
        });
        lam.normalize();
        let params = Params::default();
        let bx = Field2d::from_fn(g.clone(), |h, _q| params.drift_h(h));
        // A piecewise-constant random policy along q.
        let by = Field2d::from_fn(g, |_h, q| {
            let idx = ((q * 7.9) as usize).min(7);
            drift_scale * params.drift_q(xs[idx], 0.3, 0.05)
        });
        let fpk = FokkerPlanck2d::new(params.diffusion_h(), params.diffusion_q()).unwrap();
        let m0 = lam.integral();
        let mut scratch = StepperScratch::new();
        for _ in 0..10 {
            fpk.step_scratch(&mut lam, &bx, &by, 0.025, &mut scratch);
        }
        prop_assert!((lam.integral() - m0).abs() < 1e-9);
        prop_assert!(lam.min() >= -1e-12);
    }

    /// The Eq. (5) price is monotone non-increasing in any competitor's
    /// caching rate and always lands in `[0, p̂]`.
    #[test]
    fn price_is_monotone_and_bounded(
        strategies in proptest::collection::vec(0.0_f64..=1.0, 2..20),
        bump in 0.01_f64..0.5,
        eta1 in 0.0_f64..5.0,
    ) {
        let p_hat = 5.0;
        let p0 = finite_population_price(p_hat, eta1, 1.0, &strategies, 0);
        prop_assert!((0.0..=p_hat).contains(&p0));
        // Bump a competitor's supply: the price cannot rise.
        let mut more = strategies.clone();
        if more.len() > 1 {
            more[1] = (more[1] + bump).min(1.0);
            let p1 = finite_population_price(p_hat, eta1, 1.0, &more, 0);
            prop_assert!(p1 <= p0 + 1e-12);
        }
        // Bumping my OWN strategy never changes my price.
        let mut own = strategies.clone();
        own[0] = (own[0] + bump).min(1.0);
        let p2 = finite_population_price(p_hat, eta1, 1.0, &own, 0);
        prop_assert!((p2 - p0).abs() < 1e-12);
    }

    /// Thm. 1's closed form always lands in [0, 1] and is monotone
    /// non-increasing in the value gradient.
    #[test]
    fn optimal_control_clamped_and_monotone(dv1 in -100.0_f64..100.0, dv2 in -100.0_f64..100.0) {
        let u = Utility::new(Params::default());
        let x1 = u.optimal_control(dv1);
        let x2 = u.optimal_control(dv2);
        prop_assert!((0.0..=1.0).contains(&x1));
        if dv1 < dv2 {
            prop_assert!(x1 >= x2, "x*({dv1}) = {x1} < x*({dv2}) = {x2}");
        }
    }

    /// Case probabilities are individually in [0, 1], sum to ≈ 1 away from
    /// the threshold, and respond to states in the right direction.
    #[test]
    fn case_probabilities_are_probabilities(q in 0.0_f64..=1.0, q_peer in 0.0_f64..=1.0) {
        let s = Sigmoid::new(10.0);
        let c = CaseProbabilities::compute(s, q, q_peer, 0.2);
        prop_assert!((0.0..=1.0).contains(&c.p1));
        prop_assert!((0.0..=1.0).contains(&c.p2));
        prop_assert!((0.0..=1.0).contains(&c.p3));
        prop_assert!(c.total() <= 1.0 + 0.3);
        prop_assert!(c.total() >= 0.5);
    }

    /// The Zipf prior + Eq. (3) update always yields a probability vector,
    /// whatever the request counts.
    #[test]
    fn popularity_update_stays_normalized(
        counts in proptest::collection::vec(0usize..200, 1..30),
        iota in 0.1_f64..3.0,
    ) {
        let k = counts.len();
        let mut p = Popularity::zipf(k, iota).unwrap();
        p.update(&counts);
        let total: f64 = p.all().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.all().iter().all(|&x| x >= 0.0));
    }

    /// The mean-field estimator's snapshot fields are always within their
    /// physical ranges, for any (normalized) density shape.
    #[test]
    fn estimator_snapshot_is_physical(
        centers in proptest::collection::vec(0.05_f64..0.95, 1..4),
    ) {
        let g = grid();
        let mut lam = Field2d::from_fn(g.clone(), |_h, q| {
            centers.iter().map(|c| {
                let z = (q - c) / 0.05;
                (-0.5 * z * z).exp()
            }).sum::<f64>()
        });
        lam.normalize();
        let est = MeanFieldEstimator::new(Params::default());
        let policy = Field2d::from_fn(g, |_h, q| q); // arbitrary valid policy
        let snap = est.snapshot(&lam, &policy);
        prop_assert!((0.0..=5.0).contains(&snap.price));
        prop_assert!((0.0..=1.0).contains(&snap.q_bar));
        prop_assert!((0.0..=1.0).contains(&snap.delta_q));
        prop_assert!((0.0..=1.0).contains(&snap.sharer_fraction));
        prop_assert!((0.0..=1.0).contains(&snap.case3_fraction));
        prop_assert!(snap.share_benefit >= 0.0);
    }

    /// OU exact transitions from `mfgcp-sde` keep the channel band after
    /// clamping, for any dt (the simulator's channel invariant).
    #[test]
    fn channel_band_is_invariant(dt in 0.001_f64..5.0, h0 in 1.0e-5_f64..1.0e-4) {
        let cfg = NetworkConfig::default();
        let ou = cfg.fading_process();
        let mut rng = seeded_rng(99);
        let mut h = h0;
        for _ in 0..20 {
            h = cfg.clamp_fading(ou.sample_transition(h, dt, &mut rng));
            prop_assert!((cfg.fading_min..=cfg.fading_max).contains(&h));
        }
    }
}
