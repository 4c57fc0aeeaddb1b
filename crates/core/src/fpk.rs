//! The forward FPK sweep of Eq. (15): evolve the mean-field density `λ`
//! under the closed-loop caching drift (Alg. 2 line 8).

use mfgcp_obs::RecorderHandle;
use mfgcp_pde::{CflSummary, Field2d, FokkerPlanck2d, Grid2d, StepperScratch};
use mfgcp_sde::Normal;

use crate::params::{CoreError, Params};
use crate::utility::ContentContext;

/// Reusable cross-iteration workspace for [`FpkSolver::solve_into`]: the
/// closed-loop caching drift field plus the stepper scratch, allocated
/// once (via [`FpkSolver::scratch`]) and reused across every Picard
/// iteration of Alg. 2.
#[derive(Debug, Clone)]
pub struct FpkScratch {
    by: Field2d,
    stepper: StepperScratch,
}

/// One forward sweep's health, folded over its macro steps: the CFL
/// bookkeeping always, the mass bookkeeping only while a recorder is
/// attached (it costs a pass over the density per step).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FpkSummary {
    /// Smallest CFL headroom and most sub-steps over the sweep.
    pub cfl: CflSummary,
    /// The stepper's mass error `∫λ − 1` before clipping at the step where
    /// it is largest in magnitude (NaN once any step's is); `0.0`
    /// unrecorded.
    pub worst_mass_drift: f64,
    /// The step of [`FpkSummary::worst_mass_drift`].
    pub worst_mass_drift_step: usize,
    /// Negative mass clipped to zero, summed over the sweep.
    pub clipped_mass: f64,
}

impl FpkSummary {
    fn add_mass_drift(&mut self, step: usize, drift: f64) {
        let worst = self.worst_mass_drift;
        if !worst.is_nan() && (drift.is_nan() || drift.abs() > worst.abs()) {
            self.worst_mass_drift = drift;
            self.worst_mass_drift_step = step;
        }
    }
}

/// Forward FPK solver.
#[derive(Debug, Clone)]
pub struct FpkSolver {
    params: Params,
    stepper: FokkerPlanck2d,
    grid: Grid2d,
    /// Channel drift `b_h(h)` — state-only, so assembled once here rather
    /// than on every solve.
    channel_drift: Field2d,
    recorder: RecorderHandle,
}

impl FpkSolver {
    /// Create a solver after validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    pub fn new(params: Params) -> Result<Self, CoreError> {
        params.validate()?;
        let grid = params.grid();
        let stepper = FokkerPlanck2d::new(params.diffusion_h(), params.diffusion_q())
            .expect("validated diffusions");
        let channel_drift = Field2d::from_fn(grid.clone(), |h, _q| params.drift_h(h));
        Ok(Self {
            params,
            stepper,
            grid,
            channel_drift,
            recorder: RecorderHandle::noop(),
        })
    }

    /// Attach a telemetry recorder. [`FpkSolver::solve_into`] then folds
    /// each macro step's mass bookkeeping (the stepper's mass error before
    /// clipping and the clipped negative mass) into its [`FpkSummary`];
    /// the recorder also propagates to the underlying stepper for the
    /// non-finite sentinel. Telemetry reads state only — solves are
    /// bit-identical with recording on or off.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.stepper.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// A fresh workspace for [`FpkSolver::solve_into`].
    pub fn scratch(&self) -> FpkScratch {
        FpkScratch {
            by: Field2d::zeros(self.grid.clone()),
            stepper: StepperScratch::new(),
        }
    }

    /// The state grid.
    pub fn grid(&self) -> &Grid2d {
        &self.grid
    }

    /// The paper's §V-A initial distribution: `q` component
    /// `N(lambda0_mean·Q_k, (lambda0_std·Q_k)²)`, `h` component the OU
    /// stationary law, truncated to the grid and normalized.
    pub fn initial_density(&self) -> Field2d {
        let p = &self.params;
        let q_dist = Normal::new(p.lambda0_mean * p.q_size, p.lambda0_std * p.q_size)
            .expect("validated initial distribution");
        let h_sd = (p.varrho_h * p.varrho_h / p.varsigma_h).sqrt();
        let h_dist = Normal::new(p.upsilon_h, h_sd).expect("validated fading parameters");
        let mut lam = Field2d::from_fn(self.grid.clone(), |h, q| h_dist.pdf(h) * q_dist.pdf(q));
        lam.normalize();
        lam
    }

    /// Evolve `initial` forward under the policy surface, writing the
    /// density trajectory `λ(t_n, ·)` for `n = 0..=N` into a caller-owned
    /// vector (resized and fully overwritten) with a reusable workspace —
    /// the allocation-free path the Picard loop of Alg. 2 runs on. The
    /// sweep runs on the calling thread; parallelism lives one level up,
    /// across an epoch's independent per-content solves.
    ///
    /// Tiny negative undershoots from the upwind scheme are clipped and the
    /// mass renormalized after every macro step, keeping `λ` a valid
    /// probability density throughout. Returns the sweep's health summary.
    ///
    /// # Panics
    ///
    /// Panics if `policy.len() != params.time_steps`, or if the initial
    /// density, a policy field or a reused buffer lives on a different
    /// grid.
    pub fn solve_into(
        &self,
        initial: &Field2d,
        contexts: &[ContentContext],
        policy: &[Field2d],
        out: &mut Vec<Field2d>,
        scratch: &mut FpkScratch,
    ) -> FpkSummary {
        let n_steps = self.params.time_steps;
        assert_eq!(policy.len(), n_steps, "need one policy field per time step");
        assert_eq!(contexts.len(), n_steps, "need one context per time step");
        assert_eq!(initial.grid(), &self.grid, "initial density grid mismatch");
        let dt = self.params.dt();

        out.resize_with(n_steps + 1, || Field2d::zeros(self.grid.clone()));
        for f in out.iter() {
            assert_eq!(f.grid(), &self.grid, "reused buffer grid mismatch");
        }
        out[0].values_mut().copy_from_slice(initial.values());
        let mut summary = FpkSummary::default();
        for n in 0..n_steps {
            assert_eq!(
                policy[n].grid(),
                &self.grid,
                "policy grid mismatch at step {n}"
            );
            let ctx = &contexts[n];
            let pol = &policy[n];
            for (b, &x) in scratch.by.values_mut().iter_mut().zip(pol.values()) {
                *b = self.params.drift_q(x, ctx.popularity, ctx.urgency_factor);
            }
            let (head, tail) = out.split_at_mut(n + 1);
            let lam = &mut tail[0];
            lam.values_mut().copy_from_slice(head[n].values());
            summary.cfl.add(self.stepper.step_scratch(
                lam,
                &self.channel_drift,
                &scratch.by,
                dt,
                &mut scratch.stepper,
            ));
            if self.recorder.enabled() {
                // The mass integral and clip accumulator are telemetry-only
                // derived quantities; the branch below leaves `lam` exactly
                // as the disabled path does.
                let mass = lam.integral();
                let mut clipped = 0.0;
                for v in lam.values_mut() {
                    if *v < 0.0 {
                        clipped -= *v;
                        *v = 0.0;
                    }
                }
                summary.add_mass_drift(n, mass - 1.0);
                summary.clipped_mass += clipped;
            } else {
                for v in lam.values_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            lam.normalize();
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One forward sweep from the §V-A initial density into a fresh
    /// trajectory.
    fn trajectory(
        solver: &FpkSolver,
        contexts: &[ContentContext],
        policy: &[Field2d],
    ) -> Vec<Field2d> {
        let mut out = Vec::new();
        let initial = solver.initial_density();
        solver.solve_into(&initial, contexts, policy, &mut out, &mut solver.scratch());
        out
    }

    fn params() -> Params {
        Params {
            time_steps: 20,
            grid_h: 12,
            grid_q: 48,
            ..Params::default()
        }
    }

    #[test]
    fn initial_density_matches_the_configured_normal() {
        let p = params();
        let solver = FpkSolver::new(p.clone()).unwrap();
        let lam = solver.initial_density();
        assert!((lam.integral() - 1.0).abs() < 1e-9);
        let q_mean = lam.weighted_integral(|_h, q| q);
        assert!((q_mean - 0.7).abs() < 0.02, "mean {q_mean}");
        let q_var = lam.weighted_integral(|_h, q| (q - q_mean) * (q - q_mean));
        assert!((q_var.sqrt() - 0.1).abs() < 0.02, "std {}", q_var.sqrt());
    }

    #[test]
    fn trajectory_stays_a_probability_density() {
        let p = params();
        let solver = FpkSolver::new(p.clone()).unwrap();
        let ctx = ContentContext::from_params(&p);
        let contexts = vec![ctx; p.time_steps];
        // Aggressive caching everywhere: drift pushes mass towards q = 0.
        let policy = vec![Field2d::from_fn(solver.grid().clone(), |_h, _q| 1.0); p.time_steps];
        let traj = trajectory(&solver, &contexts, &policy);
        assert_eq!(traj.len(), p.time_steps + 1);
        for (n, lam) in traj.iter().enumerate() {
            assert!((lam.integral() - 1.0).abs() < 1e-9, "mass at step {n}");
            assert!(lam.min() >= 0.0, "negative density at step {n}");
        }
    }

    #[test]
    fn caching_policy_moves_mass_towards_full_caches() {
        let p = params();
        let solver = FpkSolver::new(p.clone()).unwrap();
        // Low urgency so the refill drift does not mask the control.
        let ctx = ContentContext {
            requests: 10.0,
            popularity: 0.3,
            urgency_factor: 0.01,
        };
        let contexts = vec![ctx; p.time_steps];
        let policy = vec![Field2d::from_fn(solver.grid().clone(), |_h, _q| 1.0); p.time_steps];
        let traj = trajectory(&solver, &contexts, &policy);
        let mean0 = traj[0].weighted_integral(|_h, q| q);
        let mean_t = traj[p.time_steps].weighted_integral(|_h, q| q);
        assert!(
            mean_t < mean0 - 0.3,
            "remaining space should shrink: {mean0} -> {mean_t}"
        );
    }

    #[test]
    fn idle_policy_with_urgent_demand_refills_space() {
        let p = params();
        let solver = FpkSolver::new(p.clone()).unwrap();
        // x = 0 and strong urgency factor: Eq. (4) drift is positive.
        let ctx = ContentContext {
            requests: 10.0,
            popularity: 0.3,
            urgency_factor: 0.1,
        };
        let contexts = vec![ctx; p.time_steps];
        let policy = vec![Field2d::zeros(solver.grid().clone()); p.time_steps];
        let traj = trajectory(&solver, &contexts, &policy);
        let mean0 = traj[0].weighted_integral(|_h, q| q);
        let mean_t = traj[p.time_steps].weighted_integral(|_h, q| q);
        assert!(mean_t > mean0, "discard drift should grow remaining space");
    }

    #[test]
    #[should_panic(expected = "one policy field per time step")]
    fn mismatched_policy_rejected() {
        let p = params();
        let solver = FpkSolver::new(p.clone()).unwrap();
        let ctx = ContentContext::from_params(&p);
        trajectory(&solver, &vec![ctx; p.time_steps], &[]);
    }
}
