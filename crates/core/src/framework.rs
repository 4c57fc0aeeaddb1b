//! The per-epoch framework loop of Alg. 1: the workspace's one epoch
//! driver.
//!
//! For each optimization epoch the EDP records the requests for every
//! content, computes popularity (Eq. (3)) and timeliness (Def. 2), filters
//! the content set `K'` to the contents actually worth caching (line 5),
//! runs the best-response learning scheme per content (line 9, Alg. 2),
//! and trades under the resulting policy (lines 11–14, executed by the
//! finite-population simulator in `mfgcp-sim`). [`Framework`] owns the
//! solve half: the per-content fan-out over [`Params::worker_threads`],
//! the telemetry forwarding, per-content sizes, and the occupancy-seeded
//! mid-run reprice that the simulator's policy and the control plane
//! share.
//!
//! `mfgcp-core` deliberately does not depend on the workload crate: epoch
//! inputs arrive as plain [`ContentContext`] schedules, so any request
//! source (synthetic, trace-driven, or the simulator's own bookkeeping)
//! can drive the framework.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mfgcp_obs::{MemorySink, RecorderHandle};
use mfgcp_pde::Field2d;

use crate::knapsack::{solve_fractional, CachePlan, KnapsackItem};
use crate::mfg::{Equilibrium, MfgSolver};
use crate::params::{CoreError, Params};
use crate::utility::ContentContext;

/// How an epoch's demanded contents were seeded: the close fields of the
/// simulator's `sim.prepare_epoch` span. Each demanded content counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSeeds {
    /// Warm-started from the previous epoch's equilibrium, converged.
    pub warm: usize,
    /// Solved cold: no previous equilibrium under identical parameters.
    pub cold: usize,
    /// Warm-started, missed the convergence gate, re-solved cold.
    pub fallback: usize,
}

/// How one content's epoch solve was seeded.
enum Seeded {
    Warm,
    Cold,
    Fallback,
}

/// Alg. 1 driver: one [`MfgSolver`] invocation per demanded content per
/// epoch.
#[derive(Debug, Clone)]
pub struct Framework {
    solver: MfgSolver,
    /// Per-content sizes; empty = uniform at the solver's `q_size`.
    content_sizes: Vec<f64>,
    /// The run's recorder. `solver` itself never records: every solve
    /// goes through [`Framework::solver_for`], which attaches this handle
    /// (or, in `run_epoch`, a per-content buffer).
    recorder: RecorderHandle,
}

impl Framework {
    /// Create a framework with the given game parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    pub fn new(params: Params) -> Result<Self, CoreError> {
        Ok(Self {
            solver: MfgSolver::new(params)?,
            content_sizes: Vec::new(),
            recorder: RecorderHandle::noop(),
        })
    }

    /// Use heterogeneous per-content sizes: content `k` is solved at
    /// `Q_k = sizes[k]` (its own state range, threshold and economics).
    #[must_use]
    pub fn with_content_sizes(mut self, sizes: Vec<f64>) -> Self {
        self.content_sizes = sizes;
        self
    }

    /// Record every solve's telemetry on `recorder`. Solves are
    /// bit-identical with recording on or off.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// The shared solver (contents at the default size).
    pub fn solver(&self) -> &MfgSolver {
        &self.solver
    }

    /// The `K'` filter of Alg. 1 line 5: a content is solved only when it
    /// has demand.
    fn demanded(ctx: &ContentContext) -> bool {
        ctx.requests > 0.0
    }

    /// The solver for `content`, recording on `recorder`: the shared one,
    /// or for a heterogeneous catalog a dedicated one at the content's own
    /// size (and grid).
    fn solver_for(&self, content: usize, recorder: RecorderHandle) -> Option<MfgSolver> {
        let solver = match self.content_sizes.get(content) {
            Some(&size) if size != self.solver.params().q_size => MfgSolver::new(Params {
                q_size: size,
                ..self.solver.params().clone()
            })
            .ok()?,
            _ => self.solver.clone(),
        };
        Some(solver.with_recorder(recorder))
    }

    /// Run one optimization epoch.
    ///
    /// `contexts[k]` is the workload context of content `k` for this epoch
    /// (held constant within the epoch, matching the paper's "the change in
    /// requesters' demands occurs at a relatively slow rate compared to the
    /// time scale of the optimization epoch"). Returns `None` for contents
    /// filtered out of `K'` (no demand).
    ///
    /// `previous` is the last epoch's result (empty for the first epoch).
    /// Because demand drifts slowly, a content's previous equilibrium is a
    /// near fixed point of this epoch's game: when it was solved under
    /// identical parameters, the content re-solves warm *in its buffers*
    /// ([`MfgSolver::resolve`]) and skips the continuation; a warm solve
    /// that misses the convergence gate is replaced by a cold one. Every
    /// other content solves cold, and previous equilibria of contents no
    /// longer demanded are dropped before any solve starts.
    ///
    /// The complexity is `O(K'·ψ_th)` — independent of `M`, the claim of
    /// the Remark in §IV-C and of Table II. The solves are independent
    /// fixed points, so workers claim contents off a shared counter (solve
    /// lengths differ) and each result lands at its content's index:
    /// bit-identical for any thread count, since each content's seed is its
    /// own previous equilibrium. With telemetry on, each solve records
    /// into its own buffer, forwarded in content order after the join so
    /// spans never interleave.
    pub fn run_epoch(
        &self,
        contexts: &[ContentContext],
        mut previous: Vec<Option<Equilibrium>>,
    ) -> (Vec<Option<Equilibrium>>, EpochSeeds) {
        let demanded: Vec<usize> = (0..contexts.len())
            .filter(|&k| Self::demanded(&contexts[k]))
            .collect();
        previous.resize_with(contexts.len(), || None);
        for (prev, ctx) in previous.iter_mut().zip(contexts) {
            if !Self::demanded(ctx) {
                *prev = None;
            }
        }
        let previous = Mutex::new(previous);
        let threads = match self.solver.params().worker_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .clamp(1, demanded.len().max(1));
        // `Relaxed` suffices: the counter only hands out indices, and the
        // results travel back through `join`.
        let next = AtomicUsize::new(0);
        let mut solved: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        while let Some(&k) = demanded.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let buffer =
                                self.recorder.enabled().then(|| Arc::new(MemorySink::new()));
                            let recorder = buffer
                                .clone()
                                .map_or_else(RecorderHandle::noop, RecorderHandle::new);
                            let prev = previous.lock().expect("epoch lock poisoned")[k].take();
                            let per_step = vec![contexts[k]; self.solver.params().time_steps];
                            let eq = self
                                .solver_for(k, recorder)
                                .map(|solver| Self::solve_content(&solver, &per_step, prev));
                            out.push((k, eq, buffer));
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("content solve panicked"))
                .collect()
        });
        solved.sort_unstable_by_key(|&(k, ..)| k);
        let mut equilibria = Vec::new();
        equilibria.resize_with(contexts.len(), || None);
        let mut seeds = EpochSeeds::default();
        for (k, eq, buffer) in solved {
            if let Some(buffer) = buffer {
                self.recorder.forward(buffer.events());
            }
            equilibria[k] = eq.map(|(eq, seeded)| {
                match seeded {
                    Seeded::Warm => seeds.warm += 1,
                    Seeded::Cold => seeds.cold += 1,
                    Seeded::Fallback => seeds.fallback += 1,
                }
                eq
            });
        }
        (equilibria, seeds)
    }

    /// One content's epoch solve: warm in `previous`'s buffers when it was
    /// solved under `solver`'s exact parameters and the warm solve
    /// converges, cold otherwise.
    fn solve_content(
        solver: &MfgSolver,
        per_step: &[ContentContext],
        previous: Option<Equilibrium>,
    ) -> (Equilibrium, Seeded) {
        let same_game =
            |prev: &Equilibrium| prev.params.canonical_bytes() == solver.params().canonical_bytes();
        match previous.filter(same_game) {
            Some(prev) => {
                let warm = solver.resolve(per_step, prev);
                if warm.report.converged {
                    return (warm, Seeded::Warm);
                }
                // Free the warm trajectories before the cold solve
                // allocates its own.
                drop(warm);
                (solver.solve_with(per_step, None), Seeded::Fallback)
            }
            None => (solver.solve_with(per_step, None), Seeded::Cold),
        }
    }

    /// Run one epoch under a total caching-capacity budget (the knapsack
    /// extension of §IV-C's Remark): solve every demanded content's MFG as
    /// in [`Framework::run_epoch`], then derive the final plan by solving
    /// the fractional knapsack over the per-content `(utility, storage)`
    /// pairs. Returns the raw equilibria and the capacity plan (fractions
    /// scale the equilibrium caching rates).
    pub fn run_epoch_with_capacity(
        &self,
        contexts: &[ContentContext],
        capacity: f64,
    ) -> (Vec<Option<Equilibrium>>, CachePlan) {
        let (equilibria, _) = self.run_epoch(contexts, Vec::new());
        let items: Vec<KnapsackItem> = equilibria
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
        let plan = solve_fractional(&items, capacity);
        (equilibria, plan)
    }

    /// Re-solve `content` mid-run from live population state: Alg. 2
    /// seeded with [`seed_density_from_occupancy`] over `occupancy`,
    /// warm-started from `stale` — the `(policy, density)` trajectories of
    /// a previous equilibrium for this content — when given, cold
    /// otherwise. Returns `None` for an undemanded content or a size the
    /// parameters reject.
    pub fn reprice(
        &self,
        content: usize,
        ctx: &ContentContext,
        occupancy: &[f64],
        stale: Option<(&[Field2d], &[Field2d])>,
    ) -> Option<Equilibrium> {
        if !Self::demanded(ctx) {
            return None;
        }
        let solver = self.solver_for(content, self.recorder.clone())?;
        let per_step = vec![*ctx; solver.params().time_steps];
        let initial = seed_density_from_occupancy(&solver.initial_density(), occupancy);
        Some(match stale {
            Some((policy, density)) => {
                solver.solve_from(&per_step, policy, Some(density), Some(&initial))
            }
            None => solver.solve_with(&per_step, Some(initial)),
        })
    }
}

/// Product density on the solver grid seeding a mid-run (re)solve from
/// live population state: the base density's `h`-marginal (the run's
/// fading statistics are stationary, so the §V-A marginal is the right
/// prior) times the empirical distribution of the live per-EDP occupancy
/// column, normalized to unit mass. Falls back to the base density when
/// the occupancy column is empty.
pub fn seed_density_from_occupancy(base: &Field2d, occupancy: &[f64]) -> Field2d {
    if occupancy.is_empty() {
        return base.clone();
    }
    let grid = base.grid().clone();
    let (nx, ny) = (grid.x().len(), grid.y().len());
    // h-marginal of the base density: f(h_i) = Σ_j λ(h_i, q_j) dq.
    let mut fh = vec![0.0; nx];
    for (i, f) in fh.iter_mut().enumerate() {
        for j in 0..ny {
            *f += base.at(i, j);
        }
    }
    // Empirical occupancy mass per q-cell (nearest-node binning).
    let mut gq = vec![0.0; ny];
    for &q in occupancy {
        if q.is_finite() {
            gq[grid.y().nearest(q)] += 1.0;
        }
    }
    let mut out = Field2d::zeros(grid);
    for (i, &f) in fh.iter().enumerate() {
        for (j, &g) in gq.iter().enumerate() {
            out.set(i, j, f * g);
        }
    }
    out.normalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        Params {
            time_steps: 10,
            grid_h: 8,
            grid_q: 24,
            max_iterations: 40,
            ..Params::default()
        }
    }

    /// Content 0 of `paper_market` (seed 23) in two consecutive epochs: a
    /// recorded epoch-to-epoch drift, far larger than a mid-epoch reprice's.
    const EPOCH_1: ContentContext = ContentContext {
        requests: 10.91,
        popularity: 0.212,
        urgency_factor: 0.0032,
    };
    const EPOCH_2: ContentContext = ContentContext {
        requests: 8.88,
        popularity: 0.257,
        urgency_factor: 0.0049,
    };

    fn assert_same_bits(a: &Equilibrium, b: &Equilibrium) {
        assert_eq!(a.report, b.report);
        let bits = |f: &Field2d| f.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (x, y) in [
            (&a.policy, &b.policy),
            (&a.density, &b.density),
            (&a.values, &b.values),
        ] {
            assert_eq!(x.len(), y.len());
            for (f, g) in x.iter().zip(y) {
                assert_eq!(bits(f), bits(g));
            }
        }
    }

    #[test]
    fn warm_second_epoch_agrees_with_a_cold_solve() {
        let fw = Framework::new(tiny_params()).unwrap();
        let (first, seeds) = fw.run_epoch(&[EPOCH_1], Vec::new());
        assert_eq!(
            seeds,
            EpochSeeds {
                cold: 1,
                ..EpochSeeds::default()
            }
        );
        let (second, seeds) = fw.run_epoch(&[EPOCH_2], first);
        assert_eq!(
            seeds,
            EpochSeeds {
                warm: 1,
                ..EpochSeeds::default()
            }
        );
        let warm = second[0].as_ref().unwrap();
        let cold = fw
            .solver()
            .solve_with(&vec![EPOCH_2; tiny_params().time_steps], None);
        assert!(warm.report.converged && cold.report.converged);
        let sup = warm
            .policy
            .iter()
            .zip(&cold.policy)
            .map(|(a, b)| a.sup_distance(b))
            .fold(0.0, f64::max);
        assert!(sup <= tiny_params().tolerance, "policy sup distance {sup}");
        let (u_warm, u_cold) = (warm.accumulated_utility(), cold.accumulated_utility());
        let gap = (u_warm - u_cold).abs() / u_cold.abs();
        assert!(gap <= 1e-4, "utility {u_warm} warm vs {u_cold} cold");
    }

    #[test]
    fn full_step_reconverges_the_epoch_drift_in_fewer_iterations_than_damping() {
        let n = tiny_params().time_steps;
        let warm_iterations = |params: Params| {
            let solver = MfgSolver::new(params).unwrap();
            let first = solver.solve_with(&vec![EPOCH_1; n], None);
            let second = solver.resolve(&vec![EPOCH_2; n], first);
            assert!(second.report.converged);
            second.report.iterations
        };
        let full_step = warm_iterations(tiny_params());
        // The earlier defaults: reset weight 0.5, cap 0.9.
        let damped = warm_iterations(Params {
            relaxation: 0.5,
            damping: 0.9,
            ..tiny_params()
        });
        assert!(
            full_step < damped,
            "full step {full_step} vs damped {damped} iterations"
        );
    }

    #[test]
    fn mismatched_params_and_failed_warm_solves_fall_back_to_the_cold_solve() {
        let n = tiny_params().time_steps;
        // Re-sized content: the previous equilibrium is another game.
        let (first, _) = Framework::new(tiny_params())
            .unwrap()
            .run_epoch(&[EPOCH_1], Vec::new());
        let resized = Framework::new(tiny_params())
            .unwrap()
            .with_content_sizes(vec![0.8]);
        let (second, seeds) = resized.run_epoch(&[EPOCH_2], first);
        assert_eq!(
            seeds,
            EpochSeeds {
                cold: 1,
                ..EpochSeeds::default()
            }
        );
        let cold = MfgSolver::new(Params {
            q_size: 0.8,
            ..tiny_params()
        })
        .unwrap()
        .solve_with(&vec![EPOCH_2; n], None);
        assert_same_bits(second[0].as_ref().unwrap(), &cold);

        // One Picard iteration cannot absorb the drift: the warm solve
        // stops unconverged and the cold solve replaces it.
        let capped = Framework::new(Params {
            max_iterations: 1,
            ..tiny_params()
        })
        .unwrap();
        let (first, _) = capped.run_epoch(&[EPOCH_1], Vec::new());
        let (second, seeds) = capped.run_epoch(&[EPOCH_2], first);
        assert_eq!(
            seeds,
            EpochSeeds {
                fallback: 1,
                ..EpochSeeds::default()
            }
        );
        let cold = capped.solver().solve_with(&vec![EPOCH_2; n], None);
        assert_same_bits(second[0].as_ref().unwrap(), &cold);
    }

    #[test]
    fn epoch_skips_undemanded_contents() {
        let fw = Framework::new(tiny_params()).unwrap();
        let contexts = vec![
            ContentContext {
                requests: 10.0,
                popularity: 0.5,
                urgency_factor: 0.1,
            },
            ContentContext {
                requests: 0.0,
                popularity: 0.1,
                urgency_factor: 0.1,
            },
        ];
        let (outcomes, _) = fw.run_epoch(&contexts, Vec::new());
        assert!(outcomes[0].is_some());
        assert!(outcomes[1].is_none());
    }

    #[test]
    fn demanded_contents_earn_positive_utility() {
        let fw = Framework::new(tiny_params()).unwrap();
        let contexts = vec![ContentContext {
            requests: 10.0,
            popularity: 0.4,
            urgency_factor: 0.1,
        }];
        let (outcomes, _) = fw.run_epoch(&contexts, Vec::new());
        // Equilibria land at their content's index.
        assert_eq!(outcomes.len(), 1);
        let eq = outcomes[0].as_ref().unwrap();
        assert!(eq.accumulated_utility() > 0.0);
        assert!(eq.accumulated_trading_income() > 0.0);
    }

    #[test]
    fn capacity_budget_prunes_the_plan() {
        let fw = Framework::new(tiny_params()).unwrap();
        let contexts = vec![
            ContentContext {
                requests: 20.0,
                popularity: 0.6,
                urgency_factor: 0.1,
            },
            ContentContext {
                requests: 10.0,
                popularity: 0.3,
                urgency_factor: 0.1,
            },
            ContentContext {
                requests: 2.0,
                popularity: 0.05,
                urgency_factor: 0.1,
            },
        ];
        let (outcomes, generous) = fw.run_epoch_with_capacity(&contexts, 10.0);
        assert_eq!(outcomes.len(), 3);
        // A generous budget keeps everything with positive value.
        let kept: f64 = generous.fractions.iter().sum();
        assert!(kept >= 2.0, "fractions {:?}", generous.fractions);
        // A starved budget keeps strictly less total weight.
        let (_, starved) = fw.run_epoch_with_capacity(&contexts, 0.05);
        assert!(starved.total_weight <= 0.05 + 1e-9);
        assert!(starved.total_value <= generous.total_value);
    }

    #[test]
    fn more_popular_content_earns_more() {
        let fw = Framework::new(tiny_params()).unwrap();
        let contexts = vec![
            ContentContext {
                requests: 20.0,
                popularity: 0.6,
                urgency_factor: 0.1,
            },
            ContentContext {
                requests: 5.0,
                popularity: 0.1,
                urgency_factor: 0.1,
            },
        ];
        let (outcomes, _) = fw.run_epoch(&contexts, Vec::new());
        let hot = outcomes[0].as_ref().unwrap().accumulated_utility();
        let cold = outcomes[1].as_ref().unwrap().accumulated_utility();
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }
}
