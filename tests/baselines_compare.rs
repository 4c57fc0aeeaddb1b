//! The headline comparison (Fig. 14's shape): under identical market
//! conditions, MFG-CP's utility beats every baseline, and the MFG
//! (no-sharing) variant trades income for staleness exactly as §V-B3
//! describes.

use mfgcp::prelude::*;

fn config() -> SimConfig {
    SimConfig {
        num_edps: 30,
        num_requesters: 120,
        num_contents: 6,
        epochs: 2,
        slots_per_epoch: 30,
        params: Params {
            num_edps: 30,
            time_steps: 16,
            grid_h: 8,
            grid_q: 32,
            ..Params::default()
        },
        seed: 23,
        ..Default::default()
    }
}

fn run(policy: Box<dyn CachingPolicy>) -> SimReport {
    Simulation::new(config(), policy).unwrap().run()
}

#[test]
fn mfgcp_beats_every_baseline_on_utility() {
    // The Fig. 14 ordering is structural at the paper's catalog richness
    // (K = 20) once the market is big enough; at toy scale the two
    // strongest schemes sit within one realization's market noise of
    // each other. Run near the paper's setting — affordable because the
    // channel layer is flat in M — and average out the residual
    // noise over a few seeds.
    let headline = |seed: u64| SimConfig {
        num_edps: 120,
        num_requesters: 480,
        num_contents: 20,
        epochs: 2,
        slots_per_epoch: 30,
        params: Params {
            num_edps: 120,
            time_steps: 16,
            grid_h: 8,
            grid_q: 32,
            ..Params::default()
        },
        seed,
        ..Default::default()
    };
    let seeds = [23_u64, 61, 104];
    let mean_over_seeds = |make: &dyn Fn() -> Box<dyn CachingPolicy>| -> f64 {
        seeds
            .iter()
            .map(|&seed| {
                Simulation::new(headline(seed), make())
                    .unwrap()
                    .run()
                    .mean_utility()
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let params = headline(0).params;
    let mfgcp = mean_over_seeds(&|| Box::new(MfgCpPolicy::new(params.clone()).unwrap()));
    let baselines: Vec<(&str, f64)> = vec![
        (
            "MFG",
            mean_over_seeds(&|| Box::new(MfgCpPolicy::without_sharing(params.clone()).unwrap())),
        ),
        ("UDCS", mean_over_seeds(&|| Box::<Udcs>::default())),
        (
            "MPC",
            mean_over_seeds(&|| Box::<MostPopularCaching>::default()),
        ),
        ("RR", mean_over_seeds(&|| Box::new(RandomReplacement))),
    ];
    for (name, utility) in &baselines {
        assert!(
            mfgcp > *utility,
            "MFG-CP ({mfgcp:.2}) should beat {name} ({utility:.2})"
        );
    }
}

#[test]
fn sharing_reduces_staleness_cost() {
    // §V-B3: "the staleness cost of MFG obviously exceeds that of MFG-CP"
    // because peer completion beats center downloads on delay.
    let params = config().params;
    let with = run(Box::new(MfgCpPolicy::new(params.clone()).unwrap()));
    let without = run(Box::new(MfgCpPolicy::without_sharing(params).unwrap()));
    assert!(
        with.mean_staleness_cost() < without.mean_staleness_cost(),
        "sharing: {:.2}, no sharing: {:.2}",
        with.mean_staleness_cost(),
        without.mean_staleness_cost()
    );
    // And only the sharing variant generates sharing benefits / case 2.
    assert!(with.mean_sharing_benefit() >= 0.0);
    assert_eq!(without.mean_sharing_benefit(), 0.0);
    let (_, case2_with, _) = with.case_totals();
    let (_, case2_without, _) = without.case_totals();
    assert_eq!(case2_without, 0);
    assert!(case2_with > 0, "the sharing market never cleared");
}

#[test]
fn all_schemes_produce_valid_reports() {
    let params = config().params;
    let reports = vec![
        run(Box::new(MfgCpPolicy::new(params.clone()).unwrap())),
        run(Box::new(MfgCpPolicy::without_sharing(params).unwrap())),
        run(Box::new(Udcs::default())),
        run(Box::new(MostPopularCaching::default())),
        run(Box::new(RandomReplacement)),
    ];
    let names: Vec<&str> = reports.iter().map(|r| r.scheme.as_str()).collect();
    assert_eq!(names, vec!["MFG-CP", "MFG", "UDCS", "MPC", "RR"]);
    for r in &reports {
        assert_eq!(r.per_edp.len(), 30);
        assert!(r.mean_trading_income() > 0.0, "{} earned nothing", r.scheme);
        assert!(r.mean_utility().is_finite());
        for s in &r.series {
            assert!(s.mean_remaining_space.is_finite());
            assert!((0.0..=1.0).contains(&s.mean_caching_rate), "{}", r.scheme);
        }
    }
}
