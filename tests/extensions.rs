//! Integration tests for the extensions beyond the paper's evaluation
//! (DESIGN.md §5b): heterogeneous catalogs under MFG-CP, mobility, the
//! salvage terminal condition, the implicit-stepper switch, the
//! capacity-constrained framework, and the `serve` start-up gate.

use mfgcp::net::RandomWaypoint;
use mfgcp::prelude::*;

fn small_params() -> Params {
    Params {
        num_edps: 16,
        time_steps: 12,
        grid_h: 8,
        grid_q: 24,
        ..Params::default()
    }
}

fn small_config() -> SimConfig {
    SimConfig {
        num_edps: 16,
        num_requesters: 64,
        num_contents: 3,
        epochs: 1,
        slots_per_epoch: 15,
        params: small_params(),
        seed: 71,
        ..Default::default()
    }
}

#[test]
fn heterogeneous_catalog_under_mfgcp_solves_per_size() {
    let sizes = vec![1.0, 0.5, 0.25];
    let cfg = SimConfig {
        content_sizes: sizes.clone(),
        ..small_config()
    };
    let policy = MfgCpPolicy::new(cfg.params.clone())
        .unwrap()
        .with_content_sizes(sizes.clone());
    let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
    let report = sim.run();
    assert!(report.mean_trading_income() > 0.0);
    // Every EDP's per-content state respects its own size bound.
    for (k, &size) in sizes.iter().enumerate() {
        for q in sim.final_states(k) {
            assert!((0.0..=size).contains(&q), "content {k}: q = {q} > {size}");
        }
    }
}

#[test]
fn mobility_with_mfgcp_stays_consistent() {
    let cfg = SimConfig {
        mobility: Some(RandomWaypoint::default()),
        ..small_config()
    };
    let policy = MfgCpPolicy::new(cfg.params.clone()).unwrap();
    let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
    let report = sim.run();
    assert!(report.mean_utility().is_finite());
    // Money conservation holds with moving requesters too.
    let paid: f64 = report.per_edp.iter().map(|m| m.sharing_cost).sum();
    let earned: f64 = report.per_edp.iter().map(|m| m.sharing_benefit).sum();
    assert!((paid - earned).abs() < 1e-9);
    // Fairness in a symmetric market stays reasonable.
    assert!(
        report.gini_utility() < 0.5,
        "gini {}",
        report.gini_utility()
    );
}

#[test]
fn salvage_keeps_more_content_cached_at_the_horizon() {
    // Both salvage settings produce valid equilibria on the production
    // stepper.
    let mut trajectories = Vec::new();
    for &salvage in &[0.0, 2.0] {
        let params = Params {
            terminal_value_weight: salvage,
            ..small_params()
        };
        let eq = MfgSolver::new(params).unwrap().solve().unwrap();
        assert!(eq.report.converged, "salvage={salvage}");
        for lam in &eq.density {
            assert!((lam.integral() - 1.0).abs() < 1e-6);
        }
        trajectories.push(eq.mean_remaining_space());
    }
    // Salvage keeps more content cached at the horizon (less remaining
    // space is NOT guaranteed pointwise, but the late-horizon caching is):
    let plain_end = trajectories[0].last().unwrap();
    let salvage_end = trajectories[1].last().unwrap();
    assert!(
        salvage_end < plain_end,
        "salvage {salvage_end} vs plain {plain_end}"
    );
}

#[test]
fn capacity_framework_scales_rates_sensibly() {
    let fw = Framework::new(small_params()).unwrap();
    let contexts = vec![
        ContentContext {
            requests: 20.0,
            popularity: 0.5,
            urgency_factor: 0.05,
        },
        ContentContext {
            requests: 8.0,
            popularity: 0.2,
            urgency_factor: 0.05,
        },
    ];
    let (outcomes, plan) = fw.run_epoch_with_capacity(&contexts, 0.3);
    assert!(plan.total_weight <= 0.3 + 1e-9);
    // The kept set prefers the high-demand content.
    let items: Vec<KnapsackItem> = outcomes
        .iter()
        .enumerate()
        .map(|(k, eq)| match eq {
            Some(eq) => KnapsackItem::from_equilibrium(k, eq),
            None => KnapsackItem {
                content: k,
                value: 0.0,
                weight: 0.0,
            },
        })
        .collect();
    if items[0].weight > 0.0 && items[1].weight > 0.0 {
        let kept = plan.kept_contents(&items);
        assert!(kept.contains(&0), "high-demand content dropped: {kept:?}");
    }
}

#[test]
fn cli_surface_is_reachable_from_the_facade() {
    use mfgcp::cli::{parse, Command};
    let args: Vec<String> = [
        "solve",
        "--time-steps",
        "8",
        "--grid-q",
        "16",
        "--grid-h",
        "8",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    match parse(&args).unwrap() {
        Command::Solve { params, .. } => {
            // The parsed params actually drive a solve end-to-end.
            let eq = MfgSolver::new(*params).unwrap().solve().unwrap();
            assert!(eq.report.converged);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn serve_refuses_an_unconverged_artifact_at_start_up() {
    // `mfgcp serve` opens its artifact through the same fail-closed gate
    // as a hot swap: an intact artifact whose solve stopped unconverged
    // must stop the process with its cause, never start serving.
    use std::process::Command;
    use std::time::{Duration, Instant};

    let mut eq = MfgSolver::new(Params {
        time_steps: 8,
        grid_h: 8,
        grid_q: 16,
        ..Params::default()
    })
    .unwrap()
    .solve()
    .unwrap();
    eq.report.converged = false;
    eq.report.iterations = 40;
    let path = std::env::temp_dir().join(format!("mfgcp-unconverged-{}.eq", std::process::id()));
    mfgcp::serve::save(&eq, &path).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mfgcp"))
        .args(["serve", "--artifact", path.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("mfgcp binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("`mfgcp serve` started on an unconverged artifact");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!status.success(), "serve must exit non-zero");
    assert!(
        stderr.contains("unconverged after 40"),
        "the refusal names its cause: {stderr}"
    );
}

#[test]
fn ctl_reprice_under_mfg_solves_without_sharing() {
    // `simulate --scheme mfg --observe` hands the control plane the
    // parameters `Scheme::build` returns with the policy; a reprice on the
    // paused run must then solve the MFG game (p̄ = 0), bit-identical to
    // the policy's own cold reprice at the same live context and
    // occupancy — never the run's paid-sharing game.
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use mfgcp::cli::Scheme;
    use mfgcp::ctl::ControlPlane;
    use mfgcp::obs::BroadcastSink;
    use mfgcp::sim::EngineControl;

    let cfg = small_config();
    assert!(cfg.params.p_bar > 0.0);
    let (policy, solve_params) = Scheme::Mfg.build(cfg.params.clone()).unwrap();
    assert_eq!(solve_params.p_bar, 0.0);
    let plane = Arc::new(ControlPlane::new(
        solve_params,
        Arc::new(BroadcastSink::new()),
        true,
    ));
    let mut sim = Simulation::new(cfg.clone(), policy).unwrap();
    sim.set_control(Arc::clone(&plane) as Arc<dyn EngineControl>);
    let run = std::thread::spawn(move || sim.run());

    plane.step(3);
    let deadline = Instant::now() + Duration::from_secs(60);
    let snap = loop {
        match plane.latest() {
            Some(s) if s.global_slot == 3 => break s,
            _ => {
                assert!(Instant::now() < deadline, "run never parked");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    plane.reprice().expect("live reprice");
    let staged = plane.take_prepared_equilibrium().unwrap().equilibrium;
    plane.detach();
    run.join().unwrap();

    assert_eq!(staged.params.p_bar, 0.0);
    let direct = MfgCpPolicy::without_sharing(cfg.params.clone())
        .unwrap()
        .reprice(0, &snap.contexts[0], &snap.occupancy)
        .unwrap();
    assert_eq!(staged.params, direct.params);
    assert_eq!(
        (staged.report.converged, staged.report.iterations),
        (direct.report.converged, direct.report.iterations)
    );
    let bits = |fields: &[mfgcp::pde::Field2d]| -> Vec<u64> {
        fields
            .iter()
            .flat_map(|f| f.values().iter().map(|v| v.to_bits()))
            .collect()
    };
    assert_eq!(bits(&staged.policy), bits(&direct.policy));
    assert_eq!(bits(&staged.density), bits(&direct.density));
    assert_eq!(bits(&staged.values), bits(&direct.values));
}
