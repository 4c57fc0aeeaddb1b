//! Ablations of the design choices documented in `DESIGN.md` §5: Picard
//! relaxation weight, grid resolution, the conservative-vs-advective FPK
//! discretization, the mean-field approximation in `M`, the terminal
//! condition and the Picard-vs-fictitious-play update.

use mfgcp_core::{
    finite_population_price, mean_field_price, ContentContext, MfgSolver, Params, SolveMethod,
};
use mfgcp_pde::{Axis, Field1d, Field2d};

use super::base_params;
use crate::Row;

/// Ablation: the Picard relaxation weight `ω` of Alg. 2, held constant
/// through the whole solve (`damping = relaxation = ω`, so neither the
/// adaptive schedule nor the continuation hand-off, which opens at the
/// `damping` cap, moves it). Series `iterations` (x = ω) and `converged`
/// (1.0 / 0.0).
pub fn ablation_relaxation() -> Vec<Row> {
    let mut rows = Vec::new();
    for &omega in &[0.2, 0.35, 0.5, 0.75, 1.0] {
        let params = Params {
            relaxation: omega,
            damping: omega,
            ..base_params()
        };
        let eq = MfgSolver::new(params).expect("valid params").solve_with(
            &vec![
                mfgcp_core::ContentContext {
                    requests: 10.0,
                    popularity: 0.3,
                    urgency_factor: 0.05
                };
                32
            ],
            None,
        );
        rows.push(Row::new(
            "ablation_relaxation",
            "iterations",
            omega,
            eq.report.iterations as f64,
        ));
        rows.push(Row::new(
            "ablation_relaxation",
            "converged",
            omega,
            f64::from(u8::from(eq.report.converged)),
        ));
        rows.push(Row::new(
            "ablation_relaxation",
            "final-residual",
            omega,
            eq.report.final_residual(),
        ));
    }
    rows
}

/// Ablation: grid resolution on the `q` axis. Series `final-mean-q` and
/// `utility` vs grid size — quantifies the discretization error of the FD
/// scheme.
pub fn ablation_grid() -> Vec<Row> {
    let mut rows = Vec::new();
    for &grid_q in &[24usize, 48, 96] {
        let params = Params {
            grid_q,
            ..base_params()
        };
        let eq = MfgSolver::new(params.clone())
            .expect("valid params")
            .solve()
            .expect("grid sweep converges");
        let means = eq.mean_remaining_space();
        rows.push(Row::new(
            "ablation_grid",
            "final-mean-q",
            grid_q as f64,
            *means.last().unwrap(),
        ));
        rows.push(Row::new(
            "ablation_grid",
            "utility",
            grid_q as f64,
            eq.accumulated_utility(),
        ));
    }
    rows
}

/// A deliberately *non-conservative* (advective, central-difference) FPK
/// step used as the negative control: `λ ← λ − dt·b·∂λ + dt·D·∂²λ`.
fn advective_step(lam: &mut Field1d, drift: &[f64], diffusion: f64, dt: f64) {
    let dx = lam.axis().dx();
    let v = lam.values().to_vec();
    let n = v.len();
    let out = lam.values_mut();
    for i in 0..n {
        let grad = if i == 0 {
            (v[1] - v[0]) / dx
        } else if i == n - 1 {
            (v[n - 1] - v[n - 2]) / dx
        } else {
            (v[i + 1] - v[i - 1]) / (2.0 * dx)
        };
        let lap = if i == 0 {
            (v[1] - v[0]) / (dx * dx)
        } else if i == n - 1 {
            (v[n - 2] - v[n - 1]) / (dx * dx)
        } else {
            (v[i - 1] - 2.0 * v[i] + v[i + 1]) / (dx * dx)
        };
        out[i] = v[i] + dt * (-drift[i] * grad + diffusion * lap);
    }
}

/// Ablation: conservative (flux-form) vs advective FPK discretization.
/// Series `conservative-mass-error` and `advective-mass-error` over time:
/// the flux form holds mass to machine precision, the advective form
/// leaks, which is why the solver uses the former (DESIGN.md §2).
pub fn ablation_fpk_form() -> Vec<Row> {
    let axis = Axis::new(0.0, 1.0, 96).expect("valid axis");
    let gaussian = |mean: f64| {
        let mut f = Field1d::from_fn(axis.clone(), |q| {
            let z = (q - mean) / 0.1;
            (-0.5 * z * z).exp()
        });
        f.normalize();
        f
    };
    // A spatially varying drift (as produced by a q-dependent policy).
    let drift: Vec<f64> = axis.coords().iter().map(|&q| 0.8 - 1.5 * q).collect();
    let diffusion = 0.005;
    let dt = 0.01;
    let steps = 100;

    let mut conservative = gaussian(0.7);
    let mut fpk = mfgcp_pde::FokkerPlanck1d::new(diffusion).expect("valid diffusion");
    let mut advective = gaussian(0.7);

    let mut rows = Vec::new();
    for step in 0..=steps {
        let t = step as f64 * dt;
        rows.push(Row::new(
            "ablation_fpk_form",
            "conservative-mass-error",
            t,
            (conservative.integral() - 1.0).abs(),
        ));
        rows.push(Row::new(
            "ablation_fpk_form",
            "advective-mass-error",
            t,
            (advective.integral() - 1.0).abs(),
        ));
        if step < steps {
            fpk.step(&mut conservative, &drift, dt);
            advective_step(&mut advective, &drift, diffusion, dt);
        }
    }
    rows
}

/// Ablation: quality of the mean-field approximation in `M`. `M` EDP
/// states are *sampled* from the population law `λ`; each plays the
/// policy at its own state, and the resulting finite-population price of
/// Eq. (5) is compared with the mean-field limit Eq. (17). The mean
/// absolute gap decays as `O(1/√M)` — the statistical content of the
/// `M → ∞` limit below Eq. (16). Series `price-gap` (x = M, averaged over
/// 200 populations) and `share-benefit` (the estimator's `M`-dependent
/// sharing term).
pub fn ablation_finite_m() -> Vec<Row> {
    use rand::RngExt as _;
    let params = base_params();
    let grid = params.grid();
    let mut density = Field2d::from_fn(grid.clone(), |_h, q| {
        let z = (q - 0.25) / 0.08;
        (-0.5 * z * z).exp()
    });
    density.normalize();
    let policy = |q: f64| (0.8 - 0.5 * q).clamp(0.0, 1.0);
    let policy_field = Field2d::from_fn(grid.clone(), |_h, q| policy(q));
    let p_mf = mean_field_price(
        params.p_hat,
        params.eta1,
        params.q_size,
        &density,
        &policy_field,
    );

    // Inverse-CDF sampler on the q-marginal of λ.
    let marginal = density.marginal_y();
    let dq = marginal.axis().dx();
    let mut cdf = Vec::with_capacity(marginal.values().len());
    let mut acc = 0.0;
    for &v in marginal.values() {
        acc += v * dq;
        cdf.push(acc);
    }
    let total = *cdf.last().expect("non-empty");
    let mut rng = mfgcp_sde::seeded_rng(4242);
    let sample_q = |rng: &mut mfgcp_sde::SimRng| {
        let u: f64 = rng.random_range(0.0..total);
        let idx = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
        marginal.axis().at(idx)
    };

    let trials = 200;
    let mut rows = Vec::new();
    for &m in &[2usize, 5, 10, 30, 100, 300, 1000] {
        let mut gap_sum = 0.0;
        for _ in 0..trials {
            let strategies: Vec<f64> = (0..m).map(|_| policy(sample_q(&mut rng))).collect();
            let p_finite =
                finite_population_price(params.p_hat, params.eta1, params.q_size, &strategies, 0);
            gap_sum += (p_finite - p_mf).abs();
        }
        rows.push(Row::new(
            "ablation_finite_m",
            "price-gap",
            m as f64,
            gap_sum / trials as f64,
        ));
        let est = mfgcp_core::MeanFieldEstimator::new(Params {
            num_edps: m,
            ..params.clone()
        });
        rows.push(Row::new(
            "ablation_finite_m",
            "share-benefit",
            m as f64,
            est.share_benefit(&density),
        ));
    }
    rows
}

/// Ablation: the terminal salvage weight `γ` (`V(T) = γ·(Q_k − q)`).
/// `γ = 0` is the paper's expiring-horizon setting, whose equilibrium
/// stops caching near `T`; positive salvage keeps the late-horizon policy
/// alive (rolling epochs). Series `gamma=…-policy` (late-horizon mean
/// caching rate) and `utility` (accumulated, x = γ).
pub fn ablation_terminal() -> Vec<Row> {
    let mut rows = Vec::new();
    for &gamma in &[0.0, 1.0, 2.0, 4.0] {
        let params = Params {
            terminal_value_weight: gamma,
            ..base_params()
        };
        let eq = MfgSolver::new(params.clone())
            .expect("valid params")
            .solve()
            .expect("sweep converges");
        // Population-mean caching rate in the last quarter of the horizon.
        let n = params.time_steps;
        let mut late = 0.0;
        let mut count = 0;
        for step in (3 * n / 4)..n {
            let pol = &eq.policy[step];
            let lam = &eq.density[step];
            let cell = pol.grid().cell_area();
            let mut acc = 0.0;
            let mut mass = 0.0;
            for (x, l) in pol.values().iter().zip(lam.values()) {
                acc += x * l * cell;
                mass += l * cell;
            }
            if mass > 0.0 {
                late += acc / mass;
                count += 1;
            }
        }
        rows.push(Row::new(
            "ablation_terminal",
            "late-horizon-policy",
            gamma,
            late / count.max(1) as f64,
        ));
        rows.push(Row::new(
            "ablation_terminal",
            "utility",
            gamma,
            eq.accumulated_utility(),
        ));
    }
    rows
}

/// Ablation: Picard relaxation vs fictitious play as the fixed-point
/// scheme of Alg. 2. Series `picard-residual` / `fp-residual` (x =
/// iteration number): Picard contracts geometrically under its fixed ω,
/// fictitious play decays like `1/ψ` — the reason Picard is the default.
pub fn ablation_fictitious() -> Vec<Row> {
    let params = Params {
        max_iterations: 30,
        tolerance: 1e-6,
        ..base_params()
    };
    let solver = MfgSolver::new(params.clone()).expect("valid params");
    let ctx = ContentContext::from_params(&params);
    let contexts = vec![ctx; params.time_steps];
    let mut rows = Vec::new();
    for (label, method) in [
        ("picard-residual", SolveMethod::PicardRelaxation),
        ("fp-residual", SolveMethod::FictitiousPlay),
    ] {
        let eq = solver.solve_with_method(&contexts, None, method);
        for (i, &r) in eq.report.residuals.iter().enumerate() {
            rows.push(Row::new("ablation_fictitious", label, (i + 1) as f64, r));
        }
    }
    rows
}

/// Ablation: propagation of chaos — how fast the finite-population
/// simulator's empirical caching-state distribution approaches the
/// mean-field marginal as `M` grows. Series `w1-distance` (x = M): the
/// Wasserstein-1 distance `∫|F_emp(q) − F_mf(q)| dq` between the
/// equilibrium q-marginal `λ(T, ·)` and the empirical end-of-run states of
/// a finite MFG-CP market (CDF-based, so it has no binning noise floor).
pub fn ablation_population() -> Vec<Row> {
    use mfgcp_sim::baselines::MfgCpPolicy;
    use mfgcp_sim::{SimConfig, Simulation};

    let params = Params {
        num_edps: 10, // per-run override below
        time_steps: 16,
        grid_h: 8,
        grid_q: 32,
        ..Params::default()
    };
    // Mean-field prediction (independent of M).
    let solver = MfgSolver::new(Params {
        num_edps: 300,
        ..params.clone()
    })
    .expect("valid params");
    // Match the simulator's own epoch context exactly: 4 requesters/EDP ×
    // 0.3 request prob × 20 slots = 24 requests; a single content has
    // popularity 1; EDPs start at the timeliness midpoint L = L_max/2 =
    // 2.5, and uniform urgency observations keep it there, so the urgency
    // factor is ξ^2.5.
    let urgency = mfgcp_workload::TimelinessConfig::default().urgency_factor(2.5);
    let ctx = ContentContext {
        requests: 24.0,
        popularity: 1.0,
        urgency_factor: urgency,
    };
    let eq = solver.solve_with(&vec![ctx; params.time_steps], None);
    let marginal = eq.density_marginal_q(params.time_steps);
    let axis = marginal.axis().clone();
    let dq = axis.dx();

    let mut rows = Vec::new();
    for &m in &[10usize, 30, 100, 300] {
        let cfg = SimConfig {
            num_edps: m,
            num_requesters: 4 * m,
            num_contents: 1,
            epochs: 1,
            slots_per_epoch: 20,
            params: Params {
                num_edps: m,
                ..params.clone()
            },
            seed: 4100 + m as u64,
            ..SimConfig::default()
        };
        let policy = MfgCpPolicy::new(cfg.params.clone()).expect("valid params");
        let mut sim = Simulation::new(cfg, Box::new(policy)).expect("valid config");
        let report = sim.run();
        let _ = &report;
        // Wasserstein-1 via CDFs on the marginal's grid.
        let finals = sim.final_states(0);
        let m_f = finals.len() as f64;
        let mf_mass: f64 = marginal.values().iter().sum::<f64>() * dq;
        let mut f_emp = 0.0;
        let mut f_mf = 0.0;
        let mut w1 = 0.0;
        for i in 0..axis.len() {
            let edge = axis.at(i) + 0.5 * dq;
            f_emp = finals.iter().filter(|&&q| q <= edge).count() as f64 / m_f;
            f_mf += marginal.values()[i] * dq / mf_mass;
            w1 += (f_emp - f_mf.min(1.0)).abs() * dq;
        }
        let _ = f_emp;
        rows.push(Row::new("ablation_population", "w1-distance", m as f64, w1));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxation_ablation_reports_all_weights() {
        let rows = ablation_relaxation();
        let iters: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.series == "iterations")
            .map(|r| (r.x, r.y))
            .collect();
        assert_eq!(iters.len(), 5);
        // This fixed game contracts at every weight, so every ω
        // converges, and a longer step never costs iterations.
        for r in rows.iter().filter(|r| r.series == "converged") {
            assert_eq!(r.y, 1.0, "ω = {} did not converge", r.x);
        }
        for pair in iters.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1,
                "iterations rose from {} at ω = {} to {} at ω = {}",
                pair[0].1,
                pair[0].0,
                pair[1].1,
                pair[1].0
            );
        }
    }

    #[test]
    fn grid_ablation_converges_with_resolution() {
        let rows = ablation_grid();
        let q = |g: f64| {
            rows.iter()
                .find(|r| r.series == "final-mean-q" && r.x == g)
                .map(|r| r.y)
                .expect("row")
        };
        // Successive refinements should move less and less.
        let d1 = (q(48.0) - q(24.0)).abs();
        let d2 = (q(96.0) - q(48.0)).abs();
        assert!(d2 <= d1 + 0.01, "no refinement convergence: {d1} then {d2}");
    }

    #[test]
    fn finite_m_gap_shrinks_with_population() {
        let rows = ablation_finite_m();
        let gaps: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.series == "price-gap")
            .map(|r| (r.x, r.y))
            .collect();
        assert_eq!(gaps.len(), 7);
        // O(1/√M): the M = 1000 gap is far below the M = 2 gap, and the
        // Monte-Carlo averages decay monotonically up to noise.
        assert!(gaps.last().unwrap().1 < gaps[0].1 / 10.0, "gaps {gaps:?}");
        for w in gaps.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.2, "non-monotone: {gaps:?}");
        }
    }

    #[test]
    fn fictitious_ablation_shows_picard_contracting_faster() {
        let rows = ablation_fictitious();
        let last = |series: &str| {
            rows.iter()
                .filter(|r| r.series == series)
                .map(|r| r.y)
                .next_back()
                .expect("series")
        };
        // After the iteration budget, Picard's residual is below FP's.
        assert!(last("picard-residual") < last("fp-residual"));
    }

    #[test]
    fn population_ablation_shows_convergence_in_m() {
        let rows = ablation_population();
        let dist: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.series == "w1-distance")
            .map(|r| (r.x, r.y))
            .collect();
        assert_eq!(dist.len(), 4);
        // With the matched context the finite market tracks the mean field
        // tightly at every M (sub-0.15 Wasserstein on a unit interval);
        // the big-M run is within sampling noise of zero.
        assert!(
            dist.iter().all(|(_, d)| (0.0..=0.15).contains(d)),
            "{dist:?}"
        );
        assert!(dist[3].1 < 0.1, "M = 300 gap too large: {dist:?}");
    }

    #[test]
    fn terminal_ablation_keeps_late_policy_alive() {
        let rows = ablation_terminal();
        let policy_at = |gamma: f64| {
            rows.iter()
                .find(|r| r.series == "late-horizon-policy" && r.x == gamma)
                .map(|r| r.y)
                .expect("row")
        };
        assert!(
            policy_at(4.0) > policy_at(0.0),
            "salvage should keep caching alive"
        );
    }

    #[test]
    fn fpk_form_ablation_separates_the_schemes() {
        let rows = ablation_fpk_form();
        let final_err = |series: &str| {
            rows.iter()
                .filter(|r| r.series == series)
                .map(|r| r.y)
                .next_back()
                .expect("series")
        };
        assert!(final_err("conservative-mass-error") < 1e-10);
        assert!(
            final_err("advective-mass-error") > 1e-4,
            "advective error too small"
        );
    }
}
