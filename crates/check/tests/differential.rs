//! Simulator-level differential oracles (invariant I5) and the
//! audit-clean gate over every scheme. These live here, not in the
//! library, because they need `mfgcp-sim` — a dev-only dependency cycle
//! (the simulator itself depends on `mfgcp-check` for the auditor).

use mfgcp_check::oracle::{check_pricer, check_two_smallest, pricer_max_ulps};
use mfgcp_check::TwoSmallest;
use mfgcp_core::{finite_population_price, Params, SharedSupplyPricer};
use mfgcp_sim::{baselines, CachingPolicy, SimConfig, Simulation};
use proptest::{collection, prop_assert, proptest};

fn schemes(params: &Params) -> Vec<Box<dyn CachingPolicy>> {
    vec![
        Box::new(baselines::MfgCpPolicy::new(params.clone()).unwrap()),
        Box::new(baselines::MfgCpPolicy::without_sharing(params.clone()).unwrap()),
        Box::new(baselines::Udcs::default()),
        Box::new(baselines::MostPopularCaching::default()),
        Box::new(baselines::RandomReplacement),
    ]
}

#[test]
fn every_scheme_passes_the_audit_on_the_small_config() {
    let cfg = SimConfig {
        audit: true,
        ..SimConfig::small()
    };
    for policy in schemes(&cfg.params) {
        let name = policy.name();
        let mut sim = Simulation::new(cfg.clone(), policy).unwrap();
        let report = sim.run();
        let audit = report.audit.expect("audit was requested");
        assert!(audit.is_clean(), "{name}: {:?}", audit.violations);
        assert_eq!(audit.slots_checked, report.series.len(), "{name}");
    }
}

#[test]
fn every_scheme_passes_the_handover_audit_under_mobility() {
    // The I6 gate: mobile runs with real epoch-boundary handovers must
    // keep the request partition exact and the per-EDP accumulators
    // untouched across every migration, under every scheme — and the
    // auditor must actually have checked one boundary per later epoch.
    let cfg = SimConfig {
        audit: true,
        epochs: 3,
        mobility: Some(mfgcp_net::RandomWaypoint::default()),
        ..SimConfig::small()
    };
    for policy in schemes(&cfg.params) {
        let name = policy.name();
        let mut sim = Simulation::new(cfg.clone(), policy).unwrap();
        let report = sim.run();
        let audit = report.audit.expect("audit was requested");
        assert!(audit.is_clean(), "{name}: {:?}", audit.violations);
        assert_eq!(
            audit.handovers_checked,
            cfg.epochs - 1,
            "{name}: one handover gate per later epoch"
        );
    }
}

#[test]
fn threaded_and_single_threaded_runs_are_bit_identical() {
    // The per-EDP phase (including the new per-slot cost buffer) must not
    // leak any thread-count dependence into the series or the metrics.
    let run = |threads: usize| {
        let cfg = SimConfig {
            worker_threads: threads,
            audit: true,
            ..SimConfig::small()
        };
        let policy = baselines::MostPopularCaching::default();
        Simulation::new(cfg, Box::new(policy)).unwrap().run()
    };
    let single = run(1);
    for threads in [2, 5, 8] {
        let multi = run(threads);
        assert_eq!(single.per_edp, multi.per_edp, "{threads} threads");
        assert_eq!(single.series, multi.series, "{threads} threads");
        assert!(multi.audit.expect("audited").is_clean());
    }
}

proptest! {
    #[test]
    fn pricer_is_exact_on_dyadic_profiles(
        strategies in collection::vec(0u8..=64, 1..=24),
        (p_hat_n, eta1_n, q_n) in (1u8..=40, 1u8..=16, 1u8..=16),
    ) {
        // Dyadic inputs (multiples of 2⁻⁶ and 2⁻², well inside the
        // mantissa): every product and partial sum in both evaluation
        // orders is exactly representable, so the O(1) total-minus-own
        // pricer must agree with the O(M) Eq. (5) reference to the bit —
        // the ≤ 1 ULP gate leaves room only for the final rounding.
        let xs: Vec<f64> = strategies.iter().map(|&n| f64::from(n) / 64.0).collect();
        let p_hat = f64::from(p_hat_n) / 4.0;
        let eta1 = f64::from(eta1_n) / 4.0;
        let q_size = f64::from(q_n) / 16.0;
        let gap = pricer_max_ulps(p_hat, eta1, q_size, &xs);
        prop_assert!(gap <= 1, "{gap} ULPs on a dyadic profile");
        check_pricer(p_hat, eta1, q_size, &xs, 1).unwrap();
    }

    #[test]
    fn pricer_stays_relatively_close_on_general_profiles(
        strategies in collection::vec(0.0f64..=1.0, 1..=32),
        (p_hat, eta1, q_size) in (4.0f64..=10.0, 0.1f64..=1.0, 0.1f64..=1.0),
    ) {
        // General reals: the two accumulation orders may differ by a few
        // ULPs of the supply term. With p̂ dominating the supply term
        // (η₁·Q_k·x̄ ≤ 1 here), the relative gap stays at rounding level.
        let pricer = SharedSupplyPricer::new(p_hat, eta1, q_size, &strategies);
        for (i, &own) in strategies.iter().enumerate() {
            let fast = pricer.price(own);
            let slow = finite_population_price(p_hat, eta1, q_size, &strategies, i);
            prop_assert!(
                (fast - slow).abs() <= 1e-12 * slow.abs().max(1.0),
                "EDP {i}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn two_smallest_tracker_matches_a_full_scan(
        keys in collection::vec(0.0f64..=1.0, 0..=24),
        dup_every in 1usize..=4,
    ) {
        // Distinct ids, keys deliberately collided (quantized to a coarse
        // grid every `dup_every`-th offer) to stress the tie-breaking.
        let offers: Vec<(usize, f64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let key = if i % dup_every == 0 { (k * 4.0).floor() / 4.0 } else { k };
                (i, key)
            })
            .collect();
        check_two_smallest(&offers).unwrap();
    }

    #[test]
    fn chunk_merged_tracker_matches_one_sequential_tracker_to_0_ulp(
        keys in collection::vec(0.0f64..=1.0, 0..=24),
        dup_every in 1usize..=4,
        cuts in collection::vec(0usize..=24, 0..=6),
    ) {
        // The same collided keys as above, split at random cut points
        // (repeated cuts and cuts at either end make empty chunks), one
        // tracker per chunk, merged in chunk order.
        let offers: Vec<(usize, f64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let key = if i % dup_every == 0 { (k * 4.0).floor() / 4.0 } else { k };
                (i, key)
            })
            .collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(offers.len())).collect();
        cuts.sort_unstable();
        let mut sequential = TwoSmallest::new();
        for &(id, key) in &offers {
            sequential.offer(id, key);
        }
        let mut merged = TwoSmallest::new();
        let bounds = std::iter::once(0).chain(cuts).chain(std::iter::once(offers.len()));
        let bounds: Vec<usize> = bounds.collect();
        for w in bounds.windows(2) {
            let mut chunk = TwoSmallest::new();
            for &(id, key) in &offers[w[0]..w[1]] {
                chunk.offer(id, key);
            }
            merged.merge(&chunk);
        }
        let bits = |t: &TwoSmallest| {
            [t.best(), t.second()].map(|e| e.map(|(id, key)| (id, key.to_bits())))
        };
        prop_assert!(bits(&merged) == bits(&sequential), "{merged:?} vs {sequential:?}");
    }
}
