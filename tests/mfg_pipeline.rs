//! Cross-crate integration: the mean-field solver's equilibrium must be
//! consistent with the finite-population simulator built from the other
//! crates — the whole point of the mean-field approximation (§IV).

use mfgcp::prelude::*;

fn params() -> Params {
    Params {
        num_edps: 60,
        time_steps: 20,
        grid_h: 10,
        grid_q: 40,
        max_iterations: 60,
        ..Params::default()
    }
}

#[test]
fn equilibrium_solves_and_is_internally_consistent() {
    let eq = MfgSolver::new(params()).unwrap().solve().unwrap();
    assert!(eq.report.converged);
    // Policy bounded, density normalized, values finite.
    for p in &eq.policy {
        assert!(p.values().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
    for lam in &eq.density {
        assert!((lam.integral() - 1.0).abs() < 1e-6);
    }
    for v in &eq.values {
        assert!(v.values().iter().all(|x| x.is_finite()));
    }
    // Prices consistent with the final policy/density (Eq. (17)).
    for (n, &p) in eq.price_series().iter().enumerate() {
        let recomputed = mfgcp::core::mean_field_price(
            eq.params.p_hat,
            eq.params.eta1,
            eq.params.q_size,
            &eq.density[n],
            &eq.policy[n],
        );
        assert!((p - recomputed).abs() < 1e-9, "step {n}");
    }
}

#[test]
fn finite_population_tracks_the_mean_field() {
    // Run the simulator under the MFG-CP policy and compare the
    // population's mean remaining space against the solver's prediction.
    let p = params();
    let cfg = SimConfig {
        num_edps: 60,
        num_requesters: 180,
        num_contents: 1,
        epochs: 1,
        slots_per_epoch: 20,
        params: p.clone(),
        seed: 11,
        ..Default::default()
    };
    let policy = MfgCpPolicy::new(p.clone()).unwrap();
    let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
    let report = sim.run();

    // Mean-field prediction with a matching workload context.
    let solver = MfgSolver::new(p.clone()).unwrap();
    // Match the simulator's epoch context: ~3 requesters per EDP at 30%
    // request probability over 20 slots -> ~18 requests per epoch; the
    // smoothed timeliness estimator stays at L = L_max/2, so the urgency
    // factor is ξ^2.5.
    let urgency = TimelinessConfig::default().urgency_factor(2.5);
    let ctx = ContentContext {
        requests: 18.0,
        popularity: 1.0,
        urgency_factor: urgency,
    };
    let eq = solver.solve_with(&vec![ctx; p.time_steps], None);

    let predicted = eq.mean_remaining_space();
    // Both start at the same initial distribution mean.
    let sim_start = report.series.first().unwrap().mean_remaining_space;
    assert!(
        (sim_start - predicted[0]).abs() < 0.1,
        "start: {sim_start} vs {}",
        predicted[0]
    );
    // Directional agreement at the end of the horizon: the finite
    // population should move the same way the mean field predicts.
    let sim_end = report.series.last().unwrap().mean_remaining_space;
    let pred_end = predicted[p.time_steps];
    let sim_delta = sim_end - sim_start;
    let pred_delta = pred_end - predicted[0];
    assert!(
        (sim_delta - pred_delta).abs() < 0.15,
        "trajectory drift: sim Δ = {sim_delta:.3}, mean-field Δ = {pred_delta:.3}"
    );
}

#[test]
fn framework_epoch_over_multiple_contents() {
    let fw = Framework::new(params()).unwrap();
    let zipf = Zipf::new(4, 0.8).unwrap();
    let contexts: Vec<ContentContext> = (0..4)
        .map(|k| ContentContext {
            requests: 40.0 * zipf.pmf(k),
            popularity: zipf.pmf(k),
            urgency_factor: 0.05,
        })
        .collect();
    let (outcomes, _) = fw.run_epoch(&contexts, Vec::new());
    assert_eq!(outcomes.len(), 4);
    let utils: Vec<f64> = outcomes
        .iter()
        .map(|eq| eq.as_ref().map(|e| e.accumulated_utility()).unwrap_or(0.0))
        .collect();
    // Popular contents earn more at equilibrium.
    assert!(utils[0] > utils[3], "utilities {utils:?}");
}
