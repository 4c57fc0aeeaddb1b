//! The iterative best-response learning scheme of Alg. 2 — the heart of
//! MFG-CP.
//!
//! Starting from the initial density and a zero policy, each iteration
//!
//! 1. queries the [`MeanFieldEstimator`] for `p_k(t)`, `q̄₋(t)`, `Δq̄(t)`
//!    and the average sharing benefit along the current density trajectory
//!    (Alg. 2 line 9);
//! 2. solves the HJB equation backwards to refresh the policy
//!    (lines 4–5, Thm. 1);
//! 3. relaxes the policy (`x ← (1−ω)x_old + ω x_new`) — the practical
//!    realization of the contraction mapping in Thm. 2;
//! 4. solves the FPK equation forwards under the relaxed policy (line 8);
//! 5. stops when the *undamped* sup-norm best-response gap
//!    `max|BR(x) − x|` falls below the preset threshold (line 6). The gap
//!    is measured before the relaxation is applied: the damped update
//!    `ω·|BR(x) − x|` shrinks with the mixing weight, not with proximity
//!    to equilibrium, and is recorded separately in
//!    [`ConvergenceReport::update_norms`].
//!
//! The HJB/FPK sweeps run on cross-iteration scratch buffers, on the
//! calling thread. A solve is a pure function of its inputs, so an
//! epoch's per-content solves run side by side instead (the
//! [`Params::worker_threads`] fan-out in `mfgcp-sim`) with bit-identical
//! results.

use std::sync::OnceLock;

use mfgcp_obs::RecorderHandle;
use mfgcp_pde::{prolong, restrict_density, Field2d, Field2dView, Grid2d};

use crate::diag::ConvergenceReport;
use crate::estimator::{MeanFieldEstimator, MeanFieldSnapshot};
use crate::fpk::FpkSolver;
use crate::hjb::HjbSolver;
use crate::params::{step_index, CoreError, Params};
use crate::utility::{ContentContext, Utility, UtilityBreakdown};

/// A mean-field equilibrium: the fixed point `(V*, λ*)` of the coupled
/// HJB–FPK system, together with the induced policy and prices.
#[derive(Debug)]
pub struct Equilibrium {
    /// The parameters the equilibrium was computed under.
    pub params: Params,
    /// Per-step workload contexts used in the solve.
    pub contexts: Vec<ContentContext>,
    /// `policy[n]` = equilibrium caching rate `x*(t_n, h, q)`, `n = 0..N`.
    pub policy: Vec<Field2d>,
    /// `density[n]` = mean-field density `λ(t_n, ·)`, `n = 0..=N`.
    pub density: Vec<Field2d>,
    /// `values[n]` = value function `V(t_n, ·)`, `n = 0..=N`.
    pub values: Vec<Field2d>,
    /// Equilibrium mean-field snapshots per step (price, q̄, Δq̄, …).
    pub snapshots: Vec<MeanFieldSnapshot>,
    /// Convergence diagnostics of the Picard iteration.
    pub report: ConvergenceReport,
    /// Lazily computed per-step utility breakdown (the O(N·nx·ny)
    /// quadrature behind [`Equilibrium::utility_series`]), cached so the
    /// `accumulated_*` accessors share one computation.
    utility_cache: OnceLock<Vec<UtilityBreakdown>>,
}

impl Clone for Equilibrium {
    fn clone(&self) -> Self {
        let utility_cache = OnceLock::new();
        if let Some(series) = self.utility_cache.get() {
            let _ = utility_cache.set(series.clone());
        }
        Self {
            params: self.params.clone(),
            contexts: self.contexts.clone(),
            policy: self.policy.clone(),
            density: self.density.clone(),
            values: self.values.clone(),
            snapshots: self.snapshots.clone(),
            report: self.report.clone(),
            utility_cache,
        }
    }
}

impl Equilibrium {
    /// Rehydrate an equilibrium from externally stored parts (the loader
    /// path of the `mfgcp-serve` artifact store). Every structural
    /// invariant the accessors rely on is checked: one context and one
    /// snapshot per macro step, `time_steps` policy fields,
    /// `time_steps + 1` density and value fields, and all fields on the
    /// grid implied by `params`. Field *values* are taken as-is —
    /// including non-finite ones — so a load reproduces the stored
    /// trajectories bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InconsistentParts`] naming the first violated
    /// invariant, or a validation error from [`Params::validate`].
    pub fn from_parts(
        params: Params,
        contexts: Vec<ContentContext>,
        policy: Vec<Field2d>,
        density: Vec<Field2d>,
        values: Vec<Field2d>,
        snapshots: Vec<MeanFieldSnapshot>,
        report: ConvergenceReport,
    ) -> Result<Self, CoreError> {
        params.validate()?;
        let n = params.time_steps;
        let inconsistent = |message: String| CoreError::InconsistentParts { message };
        let check_len = |what: &str, got: usize, want: usize| {
            if got == want {
                Ok(())
            } else {
                Err(inconsistent(format!(
                    "{what} has {got} entries, expected {want}"
                )))
            }
        };
        check_len("contexts", contexts.len(), n)?;
        check_len("snapshots", snapshots.len(), n)?;
        check_len("policy", policy.len(), n)?;
        check_len("density", density.len(), n + 1)?;
        check_len("values", values.len(), n + 1)?;
        let grid = params.grid();
        for (what, fields) in [
            ("policy", &policy),
            ("density", &density),
            ("values", &values),
        ] {
            if let Some(i) = fields.iter().position(|f| *f.grid() != grid) {
                return Err(inconsistent(format!(
                    "{what}[{i}] is on a different grid than params imply"
                )));
            }
        }
        Ok(Self {
            params,
            contexts,
            policy,
            density,
            values,
            snapshots,
            report,
            utility_cache: OnceLock::new(),
        })
    }

    /// The macro time step.
    pub fn dt(&self) -> f64 {
        self.params.dt()
    }

    /// Index of the macro step containing time `t` (clamped to the
    /// horizon); delegates to [`Params::step_of`].
    pub fn step_of(&self, t: f64) -> usize {
        self.params.step_of(t)
    }

    /// Equilibrium caching rate at `(t, h, q)` via bilinear interpolation.
    pub fn policy_at(&self, t: f64, h: f64, q: f64) -> f64 {
        self.policy[self.step_of(t)].interpolate(h, q)
    }

    /// The hoisted form of [`Equilibrium::policy_at`] for repeated
    /// decisions against this equilibrium (see [`PolicyLookup`]).
    pub fn policy_lookup(&self) -> PolicyLookup {
        PolicyLookup {
            dt: self.dt(),
            last_step: self.params.time_steps - 1,
            grid: self.policy[0].grid().clone(),
        }
    }

    /// The equilibrium price trajectory `p_k(t_n)`.
    pub fn price_series(&self) -> Vec<f64> {
        self.snapshots.iter().map(|s| s.price).collect()
    }

    /// Equilibrium trading price `p*_k(t)` — piecewise constant over the
    /// macro step containing `t` (clamped to the horizon), matching the
    /// per-slot pricing the EDPs apply online.
    pub fn price_at(&self, t: f64) -> f64 {
        self.snapshots[self.step_of(t)].price
    }

    /// Mean peer remaining space `q̄₋(t)` (Eq. (18)) over the macro step
    /// containing `t` (clamped to the horizon).
    pub fn q_bar_at(&self, t: f64) -> f64 {
        self.snapshots[self.step_of(t)].q_bar
    }

    /// Prepares the slot containing `t` for repeated `(h, q)` evaluation:
    /// the step selection, price/q̄ lookups and policy-plane borrow happen
    /// once here instead of once per point.
    ///
    /// [`PreparedSlot::eval`] answers each point through the same
    /// [`Field2dView::interpolate`] kernel that [`Equilibrium::policy_at`]
    /// uses, so batched answers equal per-point answers to 0 ULP.
    pub fn prepare_slot(&self, t: f64) -> PreparedSlot<'_> {
        let step = self.step_of(t);
        PreparedSlot {
            step,
            price: self.snapshots[step].price,
            q_bar: self.snapshots[step].q_bar,
            policy: self.policy[step].as_view(),
        }
    }

    /// The q-marginal of the density at step `n` (what Figs. 4, 6, 7 plot).
    pub fn density_marginal_q(&self, n: usize) -> mfgcp_pde::Field1d {
        self.density[n].marginal_y()
    }

    /// Total FPK mass `∫λ(t_n) dS` at every stored step, `n = 0..=N`.
    /// The transport scheme is conservative, so each entry should sit
    /// within discretization error of 1 — the `mfgcp-check` auditor gates
    /// on exactly this series (invariant I4).
    pub fn mass_series(&self) -> Vec<f64> {
        self.density.iter().map(Field2d::integral).collect()
    }

    /// Population-average utility breakdown at each macro step:
    /// `Ū(t_n) = ∬ U(x*(S), S) λ(t_n, S) dS`, split by component.
    ///
    /// Computed once on first call and cached for the lifetime of the
    /// equilibrium, so `accumulated_utility`, `accumulated_trading_income`
    /// and `accumulated_staleness_cost` share a single quadrature pass.
    pub fn utility_series(&self) -> &[UtilityBreakdown] {
        self.utility_cache
            .get_or_init(|| self.compute_utility_series())
    }

    fn compute_utility_series(&self) -> Vec<UtilityBreakdown> {
        let utility = Utility::new(self.params.clone());
        let grid = self.policy[0].grid().clone();
        let ny = grid.y().len();
        let cell = grid.cell_area();
        // State-only factors of Eq. (10), tabled per h node and (per step)
        // per q node.
        let edge_rates: Vec<f64> = grid
            .x()
            .coords()
            .iter()
            .map(|&h| utility.edge_rate(h))
            .collect();
        let q_nodes = grid.y().coords();
        let mut cases = Vec::with_capacity(ny);
        let mut out = Vec::with_capacity(self.params.time_steps);
        for n in 0..self.params.time_steps {
            let lam = &self.density[n];
            let pol = &self.policy[n];
            let ctx = &self.contexts[n];
            let snap = &self.snapshots[n];
            cases.clear();
            cases.extend(q_nodes.iter().map(|&q| utility.cases(q, snap.q_bar)));
            let mut acc = UtilityBreakdown::default();
            let mut mass = 0.0;
            for (i, &hj) in edge_rates.iter().enumerate() {
                for j in 0..ny {
                    let w = lam.at(i, j) * cell;
                    if w <= 0.0 {
                        continue;
                    }
                    mass += w;
                    let q = q_nodes[j];
                    let b = utility.breakdown_with(ctx, snap, pol.at(i, j), q, &cases[j], hj);
                    acc.trading_income += w * b.trading_income;
                    acc.sharing_benefit += w * b.sharing_benefit;
                    acc.placement_cost += w * b.placement_cost;
                    acc.staleness_cost += w * b.staleness_cost;
                    acc.sharing_cost += w * b.sharing_cost;
                }
            }
            if mass > 0.0 {
                let inv = 1.0 / mass;
                acc.trading_income *= inv;
                acc.sharing_benefit *= inv;
                acc.placement_cost *= inv;
                acc.staleness_cost *= inv;
                acc.sharing_cost *= inv;
            }
            out.push(acc);
        }
        out
    }

    /// Accumulated (time-integrated) average utility over the horizon —
    /// the `𝒰` of Eq. (11) evaluated at the equilibrium.
    pub fn accumulated_utility(&self) -> f64 {
        let dt = self.dt();
        self.utility_series().iter().map(|b| b.total() * dt).sum()
    }

    /// Accumulated trading income over the horizon (Figs. 12, 14).
    pub fn accumulated_trading_income(&self) -> f64 {
        let dt = self.dt();
        self.utility_series()
            .iter()
            .map(|b| b.trading_income * dt)
            .sum()
    }

    /// Accumulated staleness cost over the horizon (Figs. 8, 13).
    pub fn accumulated_staleness_cost(&self) -> f64 {
        let dt = self.dt();
        self.utility_series()
            .iter()
            .map(|b| b.staleness_cost * dt)
            .sum()
    }

    /// A quantitative Nash check (Def. 3): roll a tagged EDP's
    /// (noise-free) caching state forward under the equilibrium policy and
    /// under every constant control on an `n_controls`-point grid, holding
    /// the equilibrium mean field fixed, and return the relative gap
    ///
    /// `max(0, max_c U(c) − U(x*)) / max(|U(x*)|, 1)`.
    ///
    /// At an exact equilibrium no deviation helps, so the gap is ≈ 0 up to
    /// discretization error; a large value flags a broken solve. This is
    /// the rollout counterpart of the fixed-point residual in
    /// [`ConvergenceReport`].
    pub fn deviation_gap(&self, n_controls: usize) -> f64 {
        assert!(n_controls >= 2, "need at least 2 controls to scan");
        let utility = Utility::new(self.params.clone());
        let h = self.params.upsilon_h;
        let q0 = self.params.lambda0_mean * self.params.q_size;
        let dt = self.dt();
        let rollout = |policy: &dyn Fn(usize, f64) -> f64| -> f64 {
            let mut q = q0;
            let mut total = 0.0;
            for n in 0..self.params.time_steps {
                let ctx = &self.contexts[n];
                let snap = &self.snapshots[n];
                let x = policy(n, q);
                total += utility.evaluate(ctx, snap, x, h, q) * dt;
                q = (q + self.params.drift_q(x, ctx.popularity, ctx.urgency_factor) * dt)
                    .clamp(0.0, self.params.q_size);
            }
            total
        };
        let star = rollout(&|n, q| self.policy[n].interpolate(h, q));
        let mut best_dev = f64::NEG_INFINITY;
        for i in 0..n_controls {
            let c = i as f64 / (n_controls - 1) as f64;
            best_dev = best_dev.max(rollout(&|_n, _q| c));
        }
        ((best_dev - star) / star.abs().max(1.0)).max(0.0)
    }

    /// Mean remaining space `∬ q λ(t_n) dS` at each step.
    pub fn mean_remaining_space(&self) -> Vec<f64> {
        self.density
            .iter()
            .map(|lam| {
                let mass = lam.integral();
                if mass > 0.0 {
                    lam.weighted_integral(|_h, q| q) / mass
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// One macro slot of an equilibrium, prepared for repeated evaluation:
/// step index, piecewise-constant price and mean occupancy, and a
/// borrowed view of the slot's policy plane.
///
/// Built by [`Equilibrium::prepare_slot`]; the serve-side artifact store
/// constructs the same shape over memory-mapped planes, which is what
/// makes batched serving testably bit-identical to per-point lookups.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSlot<'a> {
    /// Macro step index the slot covers (`step_of(t)`).
    pub step: usize,
    /// Equilibrium trading price `p*` over the slot.
    pub price: f64,
    /// Mean peer remaining space `q̄₋` over the slot.
    pub q_bar: f64,
    /// Borrowed policy plane `x*(t_step, ·, ·)`.
    pub policy: Field2dView<'a>,
}

impl PreparedSlot<'_> {
    /// Evaluates one `(h, q)` point: `[x*, p*, q̄₋]`, bit-identical to
    /// `[policy_at(t, h, q), price_at(t), q_bar_at(t)]` for any `t`
    /// inside the prepared slot.
    #[inline]
    pub fn eval(&self, h: f64, q: f64) -> [f64; 3] {
        [self.policy.interpolate(h, q), self.price, self.q_bar]
    }
}

/// The per-equilibrium constants of [`Equilibrium::policy_at`] as plain
/// data: the macro step `Δt` (the `t_horizon / time_steps` value
/// [`Params::step_of`] divides by), the last step index and a copy of
/// the `(h, q)` axes. A lookup through it costs one division for the
/// step plus the bilinear kernel; it answers through the same step rule
/// and the same [`Field2dView::interpolate`] kernel as
/// [`Equilibrium::policy_at`], so the two agree to 0 ULP.
///
/// Built once per installed equilibrium ([`Equilibrium::policy_lookup`])
/// and valid only for that equilibrium: rebuild it whenever the
/// equilibrium is replaced.
#[derive(Debug, Clone)]
pub struct PolicyLookup {
    dt: f64,
    last_step: usize,
    grid: Grid2d,
}

impl PolicyLookup {
    /// Equilibrium caching rate at `(t, h, q)`, bit-identical to
    /// `eq.policy_at(t, h, q)` for the `eq` this lookup was built from.
    #[inline]
    pub fn policy_at(&self, eq: &Equilibrium, t: f64, h: f64, q: f64) -> f64 {
        debug_assert_eq!(
            eq.policy.len(),
            self.last_step + 1,
            "lookup of another equilibrium"
        );
        let plane = eq.policy[step_index(t, self.dt, self.last_step)].values();
        Field2dView::new(&self.grid, plane)
            .expect("every policy plane lies on the equilibrium's grid")
            .interpolate(h, q)
    }
}

/// The fixed-point scheme used to solve the coupled HJB–FPK system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMethod {
    /// Damped best-response iteration (`x ← (1−ω)x + ω·BR(x)`), the
    /// literal reading of Alg. 2 with the Thm. 2 contraction enforced by
    /// the relaxation weight. The default, and the production path: a
    /// cold solve seeds it with a coarse-to-fine continuation, and the
    /// weight adapts between [`Params::relaxation`] and
    /// [`Params::damping`].
    #[default]
    PicardRelaxation,
    /// Fictitious play (Cardaliaguet–Hadikhanloo): the best response is
    /// computed against the *running average* of the past mean-field
    /// trajectories, `λ̄^ψ = (1 − 1/ψ)·λ̄^{ψ−1} + (1/ψ)·λ^ψ`. Converges
    /// under monotonicity assumptions without tuning a damping weight;
    /// its `1/ψ` averaging makes late iterations slow, which is why
    /// Picard is the default (see the `ablation_fictitious` bench).
    FictitiousPlay,
}

impl SolveMethod {
    /// The scheme's telemetry label.
    pub fn as_str(self) -> &'static str {
        match self {
            SolveMethod::PicardRelaxation => "picard",
            SolveMethod::FictitiousPlay => "fictitious_play",
        }
    }
}

/// MFG-CP solver implementing Alg. 2.
///
/// Every solve runs in trajectory buffers it owns and hands back in its
/// [`Equilibrium`]: fresh ones for a cold solve ([`MfgSolver::solve`],
/// [`MfgSolver::solve_with`], [`MfgSolver::solve_with_method`]), a copy
/// of the warm seed for [`MfgSolver::solve_from`] and the previous
/// equilibrium's own buffers, moved in, for [`MfgSolver::resolve`].
#[derive(Debug, Clone)]
pub struct MfgSolver {
    params: Params,
    hjb: HjbSolver,
    fpk: FpkSolver,
    estimator: MeanFieldEstimator,
    recorder: RecorderHandle,
}

impl MfgSolver {
    /// Create a solver after validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    pub fn new(params: Params) -> Result<Self, CoreError> {
        params.validate()?;
        Ok(Self {
            hjb: HjbSolver::new(params.clone())?,
            fpk: FpkSolver::new(params.clone())?,
            estimator: MeanFieldEstimator::new(params.clone()),
            params,
            recorder: RecorderHandle::noop(),
        })
    }

    /// Attach a telemetry recorder: the Picard loop then emits a
    /// `solver.solve` span wrapping per-iteration `solver.hjb`/`solver.fpk`
    /// spans and `solver.iteration` events (undamped residual, applied
    /// update norm, mixing weight), and the recorder propagates into the
    /// HJB/FPK solvers and their steppers (mass drift, CFL margins,
    /// non-finite sentinels). Telemetry reads state only — solves are
    /// bit-identical with recording on or off.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.hjb.set_recorder(recorder.clone());
        self.fpk.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Builder-style [`MfgSolver::set_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The §V-A initial mean-field density (delegates to the FPK solver).
    pub fn initial_density(&self) -> Field2d {
        self.fpk.initial_density()
    }

    /// Solve with the stationary workload context implied by the
    /// parameters (the common case for the single-content experiments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotConverged`] if the Picard iteration does not
    /// meet the tolerance within `max_iterations`; the partial equilibrium
    /// is discarded (call [`MfgSolver::solve_with`] and inspect the report
    /// for post-mortems).
    pub fn solve(&self) -> Result<Equilibrium, CoreError> {
        let ctx = ContentContext::from_params(&self.params);
        let contexts = vec![ctx; self.params.time_steps];
        let eq = self.solve_with(&contexts, None);
        if eq.report.converged {
            Ok(eq)
        } else {
            Err(CoreError::NotConverged {
                residual: eq.report.final_residual(),
                iterations: eq.report.iterations,
            })
        }
    }

    /// Solve with explicit per-step contexts and an optional custom
    /// initial density (defaults to the §V-A normal initial distribution).
    /// Always returns the last iterate — check `report.converged`.
    ///
    /// # Panics
    ///
    /// Panics if `contexts.len() != params.time_steps` or the initial
    /// density is on the wrong grid.
    pub fn solve_with(&self, contexts: &[ContentContext], initial: Option<Field2d>) -> Equilibrium {
        self.solve_with_method(contexts, initial, SolveMethod::PicardRelaxation)
    }

    /// [`MfgSolver::solve_with`] with an explicit fixed-point scheme.
    ///
    /// This is a *cold-start* entry point: the iteration begins from the
    /// density frozen at `λ(0)` and the zero policy (under Picard
    /// relaxation, a coarse-to-fine continuation replaces that guess with
    /// a prolonged coarse-grid fixed point first — still a pure function
    /// of the inputs). For warm starts from a previous solution, use
    /// [`MfgSolver::solve_from`] or [`MfgSolver::resolve`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as `solve_with`.
    pub fn solve_with_method(
        &self,
        contexts: &[ContentContext],
        initial: Option<Field2d>,
        method: SolveMethod,
    ) -> Equilibrium {
        let seed = match method {
            SolveMethod::PicardRelaxation => Seed::Continuation,
            SolveMethod::FictitiousPlay => Seed::Cold,
        };
        self.solve_impl(contexts, initial.as_ref(), method, seed)
    }

    /// [`MfgSolver::solve_with`], warm-started: instead of the cold init,
    /// the Picard iteration starts from a copy of `warm_policy` (one field
    /// per time step, on this solver's grid, typically a previous
    /// [`Equilibrium`]'s `policy`). `warm_density` is the matching stale
    /// density trajectory (`time_steps + 1` fields, typically the previous
    /// equilibrium's `density`); when `None`, one forward FPK pass under
    /// the warm policy rebuilds it from `initial` before the first best
    /// response. Near a previously converged fixed point — mid-run
    /// repricing after a small popularity shift, parameter sweeps — this
    /// converges in a handful of iterations instead of a full cold solve.
    /// The stale density only seeds the first iteration's mean-field
    /// snapshots; every FPK pass inside the loop re-propagates from
    /// `initial`, so the returned trajectory is consistent with it. No
    /// coarse-to-fine continuation runs (the warm seed replaces it); the
    /// same undamped-gap gate applies. Always returns the last iterate —
    /// check `report.converged`.
    ///
    /// # Panics
    ///
    /// Panics if `contexts.len() != params.time_steps`, the warm policy
    /// or density has the wrong length or grid, or the initial density is
    /// on the wrong grid.
    pub fn solve_from(
        &self,
        contexts: &[ContentContext],
        warm_policy: &[Field2d],
        warm_density: Option<&[Field2d]>,
        initial: Option<&Field2d>,
    ) -> Equilibrium {
        if let Some(density) = warm_density {
            assert_eq!(
                density.len(),
                self.params.time_steps + 1,
                "warm density needs one field per time node"
            );
        }
        let seed = Seed::Warm(Trajectories {
            policy: warm_policy.to_vec(),
            density: warm_density.map_or_else(Vec::new, <[Field2d]>::to_vec),
            ..Trajectories::default()
        });
        self.solve_impl(contexts, initial, SolveMethod::PicardRelaxation, seed)
    }

    /// Re-solve under new `contexts`, warm-started from `previous` — an
    /// equilibrium of this solver's game (same parameters and grid), such
    /// as the previous epoch's solve of the same content. The solve runs
    /// *in* `previous`'s own trajectory buffers: its policy is the initial
    /// iterate and its density seeds the first mean-field snapshots,
    /// exactly as [`MfgSolver::solve_from`] with `Some(&previous.density)`
    /// would (bit-identical results), but without copying either or
    /// allocating fresh trajectories. No continuation and no seed FPK pass
    /// run, and the initial density is the §V-A default. Always returns
    /// the last iterate — check `report.converged`.
    ///
    /// # Panics
    ///
    /// Panics if `contexts.len() != params.time_steps` or `previous`'s
    /// trajectories have the wrong length or grid.
    pub fn resolve(&self, contexts: &[ContentContext], previous: Equilibrium) -> Equilibrium {
        let Equilibrium {
            policy,
            density,
            values,
            snapshots,
            ..
        } = previous;
        let seed = Seed::Warm(Trajectories {
            policy,
            density,
            values,
            snapshots,
        });
        self.solve_impl(contexts, None, SolveMethod::PicardRelaxation, seed)
    }

    fn solve_impl(
        &self,
        contexts: &[ContentContext],
        initial: Option<&Field2d>,
        method: SolveMethod,
        seed: Seed,
    ) -> Equilibrium {
        let n_steps = self.params.time_steps;
        assert_eq!(contexts.len(), n_steps, "need one context per time step");
        let grid = self.fpk.grid();
        let owned_initial;
        let lambda0 = match initial {
            Some(f) => f,
            None => {
                owned_initial = self.fpk.initial_density();
                &owned_initial
            }
        };
        assert_eq!(lambda0.grid(), grid, "initial density grid mismatch");

        let solve_span = self.recorder.span_with(
            "solver.solve",
            &[
                ("method", method.as_str().into()),
                ("seed", seed.label().into()),
                ("time_steps", n_steps.into()),
                ("grid_h", grid.x().len().into()),
                ("grid_q", grid.y().len().into()),
            ],
        );

        let (mut it, warm) = match seed {
            Seed::Cold => (self.cold_start(lambda0), false),
            // Coarse-to-fine continuation: solve the same game on
            // coarsened grids first, prolongate the converged coarse
            // policy, and use it as the fine-grid warm seed. A pure
            // function of (params, contexts, λ0), so cold solves stay
            // deterministic.
            Seed::Continuation => match self.continuation_seed(contexts, lambda0) {
                Some(policy) => {
                    let it = Trajectories {
                        policy,
                        ..Trajectories::default()
                    };
                    (self.warm_start(it), true)
                }
                None => (self.cold_start(lambda0), false),
            },
            Seed::Warm(trajectories) => (self.warm_start(trajectories), true),
        };

        let report = self.run_picard(contexts, lambda0, method, warm, &mut it);

        // Final consistent snapshots for the returned equilibrium.
        it.snapshots.clear();
        it.snapshots
            .extend((0..n_steps).map(|n| self.estimator.snapshot(&it.density[n], &it.policy[n])));

        solve_span.close(&[
            ("converged", report.converged.into()),
            ("iterations", report.iterations.into()),
            ("final_residual", report.final_residual().into()),
        ]);
        Equilibrium {
            params: self.params.clone(),
            contexts: contexts.to_vec(),
            policy: it.policy,
            density: it.density,
            values: it.values,
            snapshots: it.snapshots,
            report,
            utility_cache: OnceLock::new(),
        }
    }

    /// Cold-start state: density frozen at `λ0`, zero policy — exactly
    /// the Alg. 2 initial guess.
    fn cold_start(&self, lambda0: &Field2d) -> Trajectories {
        let n_steps = self.params.time_steps;
        Trajectories {
            policy: vec![Field2d::zeros(self.fpk.grid().clone()); n_steps],
            density: vec![lambda0.clone(); n_steps + 1],
            ..Trajectories::default()
        }
    }

    /// Warm-start state, checked: `it.policy` is the initial iterate,
    /// paired with `it.density` (a stale mean field) when that is
    /// non-empty; an empty density is rebuilt by [`MfgSolver::run_picard`]'s
    /// seed FPK pass.
    fn warm_start(&self, it: Trajectories) -> Trajectories {
        let n_steps = self.params.time_steps;
        let grid = self.fpk.grid();
        assert_eq!(
            it.policy.len(),
            n_steps,
            "warm policy needs one field per time step"
        );
        if !it.density.is_empty() {
            assert_eq!(
                it.density.len(),
                n_steps + 1,
                "warm density needs one field per time node"
            );
        }
        for f in it.policy.iter().chain(&it.density) {
            assert_eq!(f.grid(), grid, "warm trajectory grid mismatch");
        }
        it
    }

    /// The coarsened `(grid_h, grid_q)` ladder, finest-coarse first:
    /// each level halves both axes (`max(2, ⌈n/2⌉)`) and stops before
    /// either axis would drop below the 4-point validation floor.
    fn continuation_dims(params: &Params) -> Vec<(usize, usize)> {
        let mut dims = Vec::new();
        let (mut nh, mut nq) = (params.grid_h, params.grid_q);
        loop {
            let (ch, cq) = (nh.div_ceil(2).max(2), nq.div_ceil(2).max(2));
            if ch < 4 || cq < 4 || (ch == nh && cq == nq) {
                break;
            }
            dims.push((ch, cq));
            nh = ch;
            nq = cq;
        }
        dims
    }

    /// Run the coarse-to-fine continuation: solve the game coarsest level
    /// first, warm-starting each finer level from the prolonged policy of
    /// the one below, and return the fine-grid warm seed. Returns `None`
    /// when the grid is too small to coarsen. Coarse solvers record
    /// nothing (their spans would interleave with ours); instead this
    /// level driver emits a `solver.continuation` span with one
    /// `solver.continuation.level` event per level.
    fn continuation_seed(
        &self,
        contexts: &[ContentContext],
        lambda0: &Field2d,
    ) -> Option<Vec<Field2d>> {
        let dims = Self::continuation_dims(&self.params);
        if dims.is_empty() {
            return None;
        }
        let span = self
            .recorder
            .span_with("solver.continuation", &[("levels", dims.len().into())]);

        // λ0 restricted level by level, so a caller-supplied initial
        // density (fork/reprice seeds) shapes the coarse solves too.
        let mut initials: Vec<Field2d> = Vec::with_capacity(dims.len());
        let mut cur = lambda0.clone();
        for _ in &dims {
            cur = restrict_density(&cur);
            initials.push(cur.clone());
        }

        // Coarsest level solves cold; every finer level warm-starts from
        // the prolonged policy of the level below, moved into its solve.
        let mut warm: Option<Vec<Field2d>> = None;
        let mut handoff_residual = f64::NAN;
        for (level_idx, &(ch, cq)) in dims.iter().enumerate().rev() {
            let cparams = Params {
                grid_h: ch,
                grid_q: cq,
                ..self.params.clone()
            };
            let solver = MfgSolver::new(cparams).expect("coarsened params stay valid");
            let initial = &initials[level_idx];
            let (mut it, seeded_warm) = match warm.take() {
                Some(policy) => {
                    let it = Trajectories {
                        policy: prolong_all(&policy, solver.fpk.grid()),
                        ..Trajectories::default()
                    };
                    (solver.warm_start(it), true)
                }
                None => (solver.cold_start(initial), false),
            };
            let report = solver.run_picard(
                contexts,
                initial,
                SolveMethod::PicardRelaxation,
                seeded_warm,
                &mut it,
            );
            handoff_residual = report.final_residual();
            self.recorder.event(
                "solver.continuation.level",
                &[
                    ("level", level_idx.into()),
                    ("grid_h", ch.into()),
                    ("grid_q", cq.into()),
                    ("iterations", report.iterations.into()),
                    ("residual", handoff_residual.into()),
                    ("converged", report.converged.into()),
                ],
            );
            warm = Some(it.policy);
        }

        let coarse = warm.expect("at least one continuation level ran");
        let seed = prolong_all(&coarse, self.fpk.grid());
        span.close(&[
            ("levels", dims.len().into()),
            ("handoff_residual", handoff_residual.into()),
        ]);
        Some(seed)
    }

    /// The fixed-point loop on already-seeded trajectories. `warm` marks
    /// an iterate seeded near the fixed point (warm start, continuation
    /// hand-off), where the adaptive ω can safely open at its cap. An
    /// empty `it.density` (a warm policy handed in without its density)
    /// is first filled by one forward FPK pass from `λ0` under that
    /// policy, so the first best response sees a coherent mean field;
    /// the loop's own FPK passes re-propagate from `λ0`, so a stale seed
    /// never leaks into the returned trajectory. The best-response buffer
    /// and the HJB/FPK scratches live for the whole loop, so the
    /// iterations themselves allocate nothing.
    fn run_picard(
        &self,
        contexts: &[ContentContext],
        lambda0: &Field2d,
        method: SolveMethod,
        warm: bool,
        it: &mut Trajectories,
    ) -> ConvergenceReport {
        let n_steps = self.params.time_steps;
        let mut br_policy = Vec::new();
        let mut hjb_scratch = self.hjb.scratch();
        let mut fpk_scratch = self.fpk.scratch();
        if it.density.is_empty() {
            self.fpk.solve_into(
                lambda0,
                contexts,
                &it.policy,
                &mut it.density,
                &mut fpk_scratch,
            );
        }
        let mut residuals = Vec::new();
        let mut update_norms = Vec::new();
        let mut converged = false;
        let mut iterations = 0;

        // Adaptive damping (Picard relaxation only): grow ω geometrically
        // from `relaxation` toward the `damping` cap while the undamped
        // gap keeps shrinking; fall back to `relaxation` the moment it
        // grows. Driven purely by the residual history, so the schedule is
        // bit-deterministic across thread counts.
        let adaptive = method == SolveMethod::PicardRelaxation;
        let omega_cap = self.params.damping.max(self.params.relaxation);
        let mut adaptive_omega = if adaptive && warm {
            omega_cap
        } else {
            self.params.relaxation
        };

        for psi in 0..self.params.max_iterations {
            iterations += 1;
            // (line 9) Mean-field estimates along the current trajectory.
            it.snapshots.clear();
            it.snapshots.extend(
                (0..n_steps).map(|n| self.estimator.snapshot(&it.density[n], &it.policy[n])),
            );
            // (lines 4-5) Backward HJB → candidate best response, written
            // into buffers reused across iterations.
            let hjb_span = self.recorder.span("solver.hjb");
            let cfl = self.hjb.solve_into(
                contexts,
                &it.snapshots,
                &mut it.values,
                &mut br_policy,
                &mut hjb_scratch,
            );
            hjb_span.close(&[
                ("min_cfl_margin", cfl.min_margin.into()),
                ("max_substeps", cfl.max_substeps.into()),
            ]);
            // Mix the best response into the iterate: Picard relaxation
            // uses the adaptive weight ω above, fictitious play averages
            // with the 1/(ψ+1) schedule.
            let omega = match method {
                SolveMethod::PicardRelaxation => adaptive_omega,
                SolveMethod::FictitiousPlay => 1.0 / (psi as f64 + 1.0),
            };
            let mut norms = MixNorms::default();
            for (pol, new) in it.policy.iter_mut().zip(&br_policy) {
                norms.mix(pol.values_mut(), new.values(), omega);
            }
            let (residual, update_norm) = norms.sup();
            if adaptive {
                let shrinking = residuals.last().map_or(true, |&prev| residual < prev);
                adaptive_omega = if shrinking {
                    (adaptive_omega * OMEGA_GROWTH).min(omega_cap)
                } else {
                    self.params.relaxation
                };
            }
            residuals.push(residual);
            update_norms.push(update_norm);
            // (line 8) Forward FPK under the mixed policy.
            let fpk_span = self.recorder.span("solver.fpk");
            let fpk = self.fpk.solve_into(
                lambda0,
                contexts,
                &it.policy,
                &mut it.density,
                &mut fpk_scratch,
            );
            fpk_span.close(&[
                ("min_cfl_margin", fpk.cfl.min_margin.into()),
                ("max_substeps", fpk.cfl.max_substeps.into()),
                ("worst_mass_drift", fpk.worst_mass_drift.into()),
                ("worst_mass_drift_step", fpk.worst_mass_drift_step.into()),
                ("clipped_mass", fpk.clipped_mass.into()),
            ]);
            self.recorder.event(
                "solver.iteration",
                &[
                    ("psi", psi.into()),
                    ("residual", residual.into()),
                    ("update_norm", update_norm.into()),
                    ("omega", omega.into()),
                ],
            );
            // (line 6) Stop on the undamped best-response gap. The applied
            // update ω·|BR(x) − x| shrinks with the damping weight even far
            // from equilibrium — under fictitious play ω = 1/(ψ+1) → 0 it
            // decays unconditionally — so gating on it reports spurious
            // convergence.
            if residual < self.params.tolerance {
                converged = true;
                break;
            }
        }

        ConvergenceReport {
            converged,
            iterations,
            residuals,
            update_norms,
        }
    }
}

/// The sup-norms of one Picard mix, `max |BR(x) − x|` (the undamped
/// residual) and `max |x' − x|` (the applied update), over four lanes
/// each. Both start at 0.0, and `f64::max` is exact and returns the
/// non-NaN operand, so the lanes give the serial fold's bits in any
/// order, while the fold vectorises instead of running one dependency
/// chain.
#[derive(Debug, Default)]
struct MixNorms {
    residual: [f64; 4],
    update: [f64; 4],
}

impl MixNorms {
    /// Relax `policy` toward `best_response` (same length) with weight
    /// `omega` in place, folding both gaps in.
    fn mix(&mut self, policy: &mut [f64], best_response: &[f64], omega: f64) {
        let mut quads = policy.chunks_exact_mut(4);
        let mut br_quads = best_response.chunks_exact(4);
        for (quad, br_quad) in (&mut quads).zip(&mut br_quads) {
            for lane in 0..4 {
                self.relax(lane, &mut quad[lane], br_quad[lane], omega);
            }
        }
        let tail = quads.into_remainder().iter_mut().zip(br_quads.remainder());
        for (d, &x_new) in tail {
            self.relax(0, d, x_new, omega);
        }
    }

    #[inline(always)]
    fn relax(&mut self, lane: usize, d: &mut f64, x_new: f64, omega: f64) {
        let relaxed = (1.0 - omega) * *d + omega * x_new;
        self.residual[lane] = self.residual[lane].max((x_new - *d).abs());
        self.update[lane] = self.update[lane].max((relaxed - *d).abs());
        *d = relaxed;
    }

    /// `(residual, update_norm)`.
    fn sup(&self) -> (f64, f64) {
        let fold = |l: &[f64; 4]| l[0].max(l[1]).max(l[2].max(l[3]));
        (fold(&self.residual), fold(&self.update))
    }
}

/// `policy` prolonged field by field onto `grid`.
fn prolong_all(policy: &[Field2d], grid: &Grid2d) -> Vec<Field2d> {
    policy.iter().map(|f| prolong(f, grid.clone())).collect()
}

/// The trajectories one solve iterates on and hands back in its
/// [`Equilibrium`]. `values` and `snapshots` are fully overwritten, so a
/// warm start may hand in stale ones to recycle their allocations.
#[derive(Debug, Default)]
struct Trajectories {
    policy: Vec<Field2d>,
    density: Vec<Field2d>,
    values: Vec<Field2d>,
    snapshots: Vec<MeanFieldSnapshot>,
}

/// How [`MfgSolver::solve_impl`] seeds the fixed-point iterate.
enum Seed {
    /// The Alg. 2 initial guess: density frozen at `λ0`, zero policy.
    Cold,
    /// A cold solve opened by the coarse-to-fine continuation (the plain
    /// cold guess on grids too small to coarsen).
    Continuation,
    /// Start from these trajectories' policy, paired with their density
    /// (a stale mean field), or, when the density is empty, with one FPK
    /// pass from `λ0`.
    Warm(Trajectories),
}

impl Seed {
    /// The `seed` field of the `solver.solve` span.
    fn label(&self) -> &'static str {
        match self {
            Seed::Cold | Seed::Continuation => "cold",
            Seed::Warm(_) => "warm",
        }
    }
}

/// Geometric growth factor of the adaptive damping schedule: with the
/// defaults (`relaxation` 0.2, `damping` 1.0) the weight takes eight
/// consecutive shrinking iterations to climb from the reset weight back
/// to the full step.
const OMEGA_GROWTH: f64 = 1.25;

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_params() -> Params {
        Params {
            time_steps: 16,
            grid_h: 10,
            grid_q: 36,
            max_iterations: 60,
            ..Params::default()
        }
    }

    /// The plain fixed-damping Picard iteration of Alg. 2 — cold start,
    /// constant `ω = relaxation` (a `damping` cap equal to `relaxation`
    /// pins the adaptive weight), no continuation — kept as the oracle
    /// the accelerated production path is checked against.
    fn solve_fixed_damping_picard(params: Params) -> Equilibrium {
        let solver = MfgSolver::new(Params {
            damping: params.relaxation,
            ..params
        })
        .unwrap();
        let contexts =
            vec![ContentContext::from_params(solver.params()); solver.params().time_steps];
        solver.solve_impl(&contexts, None, SolveMethod::PicardRelaxation, Seed::Cold)
    }

    #[test]
    fn default_game_converges() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        assert!(eq.report.converged);
        assert!(eq.report.iterations < 60);
        // Residuals should broadly decay (contraction).
        let c = eq.report.contraction_factor().unwrap();
        assert!(c < 1.0, "contraction factor {c}");
    }

    #[test]
    fn prepared_slot_matches_per_point_lookups_to_0_ulp() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let horizon = eq.params.t_horizon;
        for frac in [0.0, 0.23, 0.5, 0.99, 1.7, -0.4, f64::NAN] {
            let t = frac * horizon;
            let slot = eq.prepare_slot(t);
            assert_eq!(slot.step, eq.step_of(t));
            for &(h, q) in &[
                (0.5, 0.1),
                (2.0, 0.9),
                (-3.0, 50.0),
                (f64::NAN, 0.5),
                (1.0, f64::NEG_INFINITY),
            ] {
                let [x, price, q_bar] = slot.eval(h, q);
                assert_eq!(x.to_bits(), eq.policy_at(t, h, q).to_bits());
                assert_eq!(price.to_bits(), eq.price_at(t).to_bits());
                assert_eq!(q_bar.to_bits(), eq.q_bar_at(t).to_bits());
            }
        }
    }

    #[test]
    fn equilibrium_policy_and_density_are_valid() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        for p in &eq.policy {
            assert!(p.values().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        for lam in &eq.density {
            assert!((lam.integral() - 1.0).abs() < 1e-6);
            assert!(lam.min() >= 0.0);
        }
    }

    #[test]
    fn price_stays_in_the_supply_band() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        for &p in &eq.price_series() {
            // p ∈ [p̂ − η₁·Q_k, p̂] by Eq. (17) with x ∈ [0, 1].
            assert!((4.0 - 1e-9..=5.0 + 1e-9).contains(&p), "price {p}");
        }
    }

    #[test]
    fn utility_series_is_income_dominated_and_finite() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let series = eq.utility_series();
        assert_eq!(series.len(), 16);
        for b in series {
            assert!(b.total().is_finite());
            assert!(b.trading_income > 0.0);
        }
        assert!(eq.accumulated_utility() > 0.0);
        assert!(eq.accumulated_trading_income() > eq.accumulated_staleness_cost());
    }

    #[test]
    fn policy_lookup_interpolates() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let x = eq.policy_at(0.5, 5.0e-5, 0.7);
        assert!((0.0..=1.0).contains(&x));
        // Out-of-range queries clamp instead of panicking.
        let x = eq.policy_at(99.0, 1.0, 2.0);
        assert!((0.0..=1.0).contains(&x));
    }

    #[test]
    fn fictitious_play_reaches_the_same_equilibrium() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let ctx = ContentContext::from_params(solver.params());
        let contexts = vec![ctx; solver.params().time_steps];
        let picard = solver.solve_with(&contexts, None);
        let fp = solver.solve_with_method(&contexts, None, SolveMethod::FictitiousPlay);
        assert!(picard.report.converged);
        // FP's 1/ψ schedule slows late iterations; accept either outright
        // convergence or a small final residual.
        assert!(
            fp.report.final_residual() < 0.05,
            "FP residual {}",
            fp.report.final_residual()
        );
        // Both schemes should land on the same mean-field trajectory.
        let a = picard.mean_remaining_space();
        let b = fp.mean_remaining_space();
        for (n, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!((x - y).abs() < 0.05, "step {n}: picard {x} vs fp {y}");
        }
    }

    #[test]
    fn utility_series_cache_matches_recomputation_and_survives_clone() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let first = eq.utility_series().to_vec();
        // Second call must hand back the same cached slice.
        assert_eq!(eq.utility_series().as_ptr(), eq.utility_series().as_ptr());
        let cloned = eq.clone();
        let second = cloned.utility_series();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second) {
            assert_eq!(a.total(), b.total());
            assert_eq!(a.trading_income, b.trading_income);
        }
    }

    #[test]
    fn report_tracks_damped_and_undamped_series_separately() {
        // Plain Picard: the applied update is exactly ω times the undamped
        // gap, so the two series pin each other (the accelerated path's
        // adaptive ω breaks this fixed ratio by design).
        let eq = solve_fixed_damping_picard(fast_params());
        let r = &eq.report;
        assert_eq!(r.residuals.len(), r.update_norms.len());
        let omega = eq.params.relaxation;
        for (psi, (gap, applied)) in r.residuals.iter().zip(&r.update_norms).enumerate() {
            // Applied update is exactly ω times the undamped gap under
            // Picard relaxation.
            assert!(
                (applied - omega * gap).abs() < 1e-12,
                "iteration {psi}: gap {gap}, applied {applied}"
            );
        }
        // The gate is on the undamped gap.
        assert!(r.final_residual() < eq.params.tolerance);
    }

    #[test]
    fn accelerated_and_fixed_damping_picard_agree_on_the_fixed_point() {
        let accelerated = MfgSolver::new(fast_params()).unwrap().solve().unwrap();
        let plain = solve_fixed_damping_picard(fast_params());
        assert!(accelerated.report.converged && plain.report.converged);
        // Both pass the same undamped-gap gate, so they sit within a few
        // gate tolerances of the unique fixed point — and of each other.
        let tol = fast_params().tolerance;
        let mut sup = 0.0_f64;
        for (a, b) in accelerated.policy.iter().zip(&plain.policy) {
            sup = sup.max(a.sup_distance(b));
        }
        assert!(sup < 10.0 * tol, "policy sup distance {sup}");
        for (n, (x, y)) in accelerated
            .mean_remaining_space()
            .iter()
            .zip(&plain.mean_remaining_space())
            .enumerate()
        {
            assert!((x - y).abs() < 0.01, "step {n}: accelerated {x} plain {y}");
        }
        // The acceleration must actually accelerate: fewer fine-grid
        // iterations than the plain fixed-damping loop.
        assert!(
            accelerated.report.iterations < plain.report.iterations,
            "accelerated {} vs plain {}",
            accelerated.report.iterations,
            plain.report.iterations
        );
    }

    #[test]
    fn warm_start_reconverges_faster_to_the_same_fixed_point() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let base_ctx = ContentContext::from_params(solver.params());
        let contexts = vec![base_ctx; solver.params().time_steps];
        let eq = solver.solve_with(&contexts, None);
        assert!(eq.report.converged);

        // A small popularity perturbation, as mid-run repricing sees.
        let mut shifted = base_ctx;
        shifted.popularity = (shifted.popularity * 1.05).min(1.0);
        let shifted_contexts = vec![shifted; solver.params().time_steps];
        let cold = solver.solve_with(&shifted_contexts, None);
        let warm = solver.solve_from(&shifted_contexts, &eq.policy, Some(&eq.density), None);
        assert!(cold.report.converged && warm.report.converged);
        assert!(
            warm.report.iterations < cold.report.iterations,
            "warm {} vs cold {}",
            warm.report.iterations,
            cold.report.iterations
        );
        // Same fixed point within the gate tolerance's basin.
        let tol = solver.params().tolerance;
        let mut sup = 0.0_f64;
        for (a, b) in warm.policy.iter().zip(&cold.policy) {
            sup = sup.max(a.sup_distance(b));
        }
        assert!(sup < 10.0 * tol, "policy sup distance {sup}");
    }

    #[test]
    fn seeded_solves_take_the_full_step_and_cold_ones_open_at_the_reset_weight() {
        let defaults = Params::default();
        assert_eq!((defaults.relaxation, defaults.damping), (0.2, 1.0));
        // A grid too small to coarsen runs no continuation: the cold
        // solve starts from the zero policy at ω = `relaxation`, so its
        // first applied update is exactly that weight times its first gap.
        let small = MfgSolver::new(Params {
            grid_h: 6,
            grid_q: 6,
            ..fast_params()
        })
        .unwrap();
        assert!(MfgSolver::continuation_dims(small.params()).is_empty());
        let contexts = vec![ContentContext::from_params(small.params()); small.params().time_steps];
        let cold = small.solve_with(&contexts, None).report;
        assert_eq!(
            cold.update_norms[0],
            small.params().relaxation * cold.residuals[0]
        );

        // A warm solve, copied (`solve_from`) or in place (`resolve`),
        // opens at the `damping` cap: the full best-response step
        // x ← BR(x), whose applied update is the whole gap.
        let solver = MfgSolver::new(fast_params()).unwrap();
        let base = ContentContext::from_params(solver.params());
        let eq = solver.solve_with(&vec![base; solver.params().time_steps], None);
        let shifted = vec![
            ContentContext {
                popularity: base.popularity * 1.05,
                ..base
            };
            solver.params().time_steps
        ];
        let copied = solver
            .solve_from(&shifted, &eq.policy, Some(&eq.density), None)
            .report;
        let in_place = solver.resolve(&shifted, eq).report;
        assert_eq!(copied, in_place);
        assert!(in_place.converged);
        assert_eq!(in_place.update_norms[0], in_place.residuals[0]);
    }

    #[test]
    fn continuation_emits_level_telemetry() {
        use mfgcp_obs::{Kind, MemorySink, Value};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let solver = MfgSolver::new(fast_params())
            .unwrap()
            .with_recorder(mfgcp_obs::RecorderHandle::new(sink.clone()));
        let eq = solver.solve().unwrap();
        assert!(eq.report.converged);

        let events = sink.events();
        let text = events
            .iter()
            .map(|e| e.to_json_line())
            .collect::<Vec<_>>()
            .join("\n");
        mfgcp_obs::schema::validate_str(&text).unwrap();

        let open = events
            .iter()
            .find(|e| e.kind == Kind::SpanOpen && e.name == "solver.continuation")
            .expect("solver.continuation span open");
        let levels = match open.field("levels") {
            Some(&Value::U64(n)) => n as usize,
            other => panic!("levels field: {other:?}"),
        };
        assert!(levels >= 1);
        let level_events: Vec<_> = events
            .iter()
            .filter(|e| e.name == "solver.continuation.level")
            .collect();
        assert_eq!(level_events.len(), levels);
        for e in &level_events {
            assert!(matches!(e.field("iterations"), Some(&Value::U64(n)) if n >= 1));
            assert!(matches!(e.field("residual"), Some(&Value::F64(r)) if r.is_finite()));
        }
        let close = events
            .iter()
            .find(|e| e.kind == Kind::SpanClose && e.name == "solver.continuation")
            .expect("solver.continuation span close");
        assert!(matches!(
            close.field("handoff_residual"),
            Some(&Value::F64(r)) if r.is_finite()
        ));
        // Fictitious play runs no continuation.
        let fp_sink = Arc::new(MemorySink::new());
        let fp = MfgSolver::new(fast_params())
            .unwrap()
            .with_recorder(mfgcp_obs::RecorderHandle::new(fp_sink.clone()));
        let contexts = vec![ContentContext::from_params(fp.params()); fp.params().time_steps];
        fp.solve_with_method(&contexts, None, SolveMethod::FictitiousPlay);
        assert!(!fp_sink
            .events()
            .iter()
            .any(|e| e.name.starts_with("solver.continuation")));
    }

    #[test]
    fn recording_telemetry_does_not_perturb_the_solve() {
        use mfgcp_obs::{Kind, MemorySink, Value};
        use std::sync::Arc;

        let reference = MfgSolver::new(fast_params()).unwrap().solve().unwrap();
        let sink = Arc::new(MemorySink::new());
        let solver = MfgSolver::new(fast_params())
            .unwrap()
            .with_recorder(mfgcp_obs::RecorderHandle::new(sink.clone()));
        let eq = solver.solve().unwrap();

        // Bit-identical trajectories: telemetry reads, never perturbs.
        assert_eq!(eq.report.iterations, reference.report.iterations);
        for (a, b) in eq.policy.iter().zip(&reference.policy) {
            assert_eq!(a.values(), b.values());
        }
        for (a, b) in eq.density.iter().zip(&reference.density) {
            assert_eq!(a.values(), b.values());
        }
        for (a, b) in eq.values.iter().zip(&reference.values) {
            assert_eq!(a.values(), b.values());
        }

        // The emitted stream is schema-valid and structurally sane.
        let events = sink.events();
        assert!(!events.is_empty());
        let text = events
            .iter()
            .map(|e| e.to_json_line())
            .collect::<Vec<_>>()
            .join("\n");
        mfgcp_obs::schema::validate_str(&text).unwrap();

        // One solver.solve span; its close reports the same convergence
        // data as the returned report.
        let close = events
            .iter()
            .find(|e| e.kind == Kind::SpanClose && e.name == "solver.solve")
            .expect("solver.solve span close");
        assert_eq!(close.field("converged"), Some(&Value::Bool(true)));
        assert_eq!(
            close.field("iterations"),
            Some(&Value::U64(eq.report.iterations as u64))
        );
        assert_eq!(
            close.field("final_residual"),
            Some(&Value::F64(eq.report.final_residual()))
        );
        // One iteration event and one hjb/fpk span pair per iteration.
        let iter_events = events
            .iter()
            .filter(|e| e.name == "solver.iteration")
            .count();
        assert_eq!(iter_events, eq.report.iterations);
        let hjb_opens = events
            .iter()
            .filter(|e| e.kind == Kind::SpanOpen && e.name == "solver.hjb")
            .count();
        assert_eq!(hjb_opens, eq.report.iterations);
        // Each sweep's PDE health rides its span close; no per-step
        // gauges remain.
        assert!(!events
            .iter()
            .any(|e| e.kind == Kind::Gauge && e.name.starts_with("pde.")));
        for e in events.iter().filter(|e| e.kind == Kind::SpanClose) {
            let has = |key: &str| e.field(key).is_some();
            let cfl = has("min_cfl_margin") && has("max_substeps");
            let mass =
                has("worst_mass_drift") && has("worst_mass_drift_step") && has("clipped_mass");
            match e.name {
                "solver.hjb" => assert!(cfl && !mass, "{e:?}"),
                "solver.fpk" => {
                    assert!(cfl && mass, "{e:?}");
                    assert!(matches!(
                        e.field("min_cfl_margin"),
                        Some(&Value::F64(m)) if m >= 1.0
                    ));
                    assert!(matches!(
                        e.field("worst_mass_drift"),
                        Some(&Value::F64(d)) if d.abs() < 1e-9
                    ));
                    assert!(matches!(
                        e.field("max_substeps"),
                        Some(&Value::U64(n)) if n >= 1
                    ));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn from_parts_roundtrips_and_rejects_mismatches() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let rebuilt = Equilibrium::from_parts(
            eq.params.clone(),
            eq.contexts.clone(),
            eq.policy.clone(),
            eq.density.clone(),
            eq.values.clone(),
            eq.snapshots.clone(),
            eq.report.clone(),
        )
        .unwrap();
        // Bit-identical trajectories and identical lookups.
        for (a, b) in rebuilt.policy.iter().zip(&eq.policy) {
            assert_eq!(a.values(), b.values());
        }
        let (t, h, q) = (0.33, 5.0e-5, 0.61);
        assert_eq!(
            rebuilt.policy_at(t, h, q).to_bits(),
            eq.policy_at(t, h, q).to_bits()
        );
        assert_eq!(rebuilt.price_at(t).to_bits(), eq.price_at(t).to_bits());
        assert_eq!(rebuilt.q_bar_at(t).to_bits(), eq.q_bar_at(t).to_bits());

        // Wrong trajectory length.
        let mut short_policy = eq.policy.clone();
        short_policy.pop();
        let err = Equilibrium::from_parts(
            eq.params.clone(),
            eq.contexts.clone(),
            short_policy,
            eq.density.clone(),
            eq.values.clone(),
            eq.snapshots.clone(),
            eq.report.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InconsistentParts { .. }), "{err}");

        // Wrong grid.
        let other_grid = Params {
            grid_q: eq.params.grid_q + 4,
            ..eq.params.clone()
        }
        .grid();
        let mut bad_density = eq.density.clone();
        bad_density[0] = Field2d::zeros(other_grid);
        let err = Equilibrium::from_parts(
            eq.params.clone(),
            eq.contexts.clone(),
            eq.policy.clone(),
            bad_density,
            eq.values.clone(),
            eq.snapshots.clone(),
            eq.report.clone(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("grid"), "{err}");
    }

    #[test]
    fn price_and_q_bar_lookups_select_the_step() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let dt = eq.dt();
        assert_eq!(eq.price_at(0.0), eq.snapshots[0].price);
        assert_eq!(eq.price_at(0.5 * dt), eq.snapshots[0].price);
        assert_eq!(eq.price_at(1.5 * dt), eq.snapshots[1].price);
        // Clamped past the horizon.
        assert_eq!(eq.price_at(99.0), eq.snapshots.last().unwrap().price);
        assert_eq!(eq.q_bar_at(99.0), eq.snapshots.last().unwrap().q_bar);
    }

    #[test]
    fn deviation_gap_is_small_at_equilibrium() {
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let gap = eq.deviation_gap(11);
        // Constant controls cannot beat the equilibrium policy by more
        // than discretization-level slack.
        assert!(gap < 0.15, "deviation gap {gap}");
    }

    #[test]
    fn unilateral_deviation_does_not_improve_utility() {
        // The Nash property (Def. 3) along the q-drift: replacing the
        // equilibrium control with constant controls must not beat it.
        // (Coarse check: compare accumulated mean utilities with the
        // *equilibrium* mean field held fixed.)
        let solver = MfgSolver::new(fast_params()).unwrap();
        let eq = solver.solve().unwrap();
        let utility = Utility::new(eq.params.clone());
        let grid = eq.policy[0].grid().clone();
        let dt = eq.dt();

        // A tagged EDP following some constant control x̄, starting at the
        // population mean; deterministic drift (noise-free evaluation).
        let rollout = |policy: &dyn Fn(usize, f64, f64) -> f64| -> f64 {
            let mut q: f64 = 0.7;
            let h = eq.params.upsilon_h;
            let mut total = 0.0;
            for n in 0..eq.params.time_steps {
                let ctx = &eq.contexts[n];
                let snap = &eq.snapshots[n];
                let x = policy(n, h, q);
                total += utility.evaluate(ctx, snap, x, h, q) * dt;
                q = (q + eq.params.drift_q(x, ctx.popularity, ctx.urgency_factor) * dt)
                    .clamp(0.0, eq.params.q_size);
            }
            total
        };

        let star = rollout(&|n, h, q| eq.policy[n].interpolate(h, q));
        for dev in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let alt = rollout(&|_n, _h, _q| dev);
            assert!(
                star >= alt - 0.15 * star.abs().max(1.0),
                "constant deviation x = {dev} beats equilibrium: {alt} > {star}"
            );
        }
        let _ = grid;
    }
}
