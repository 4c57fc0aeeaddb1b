//! The backward HJB sweep of Eq. (20) with the closed-form control of
//! Thm. 1 (Eq. (21)).
//!
//! Given the mean-field trajectory (one [`MeanFieldSnapshot`] per macro time
//! step) and the workload contexts, the solver marches the value function
//! backwards from the terminal condition `V(T, ·) = 0`, extracting the
//! optimal caching rate `x*(t, h, q)` from `∂_q V` at every step. This is
//! exactly lines 4–5 of Alg. 2.

use mfgcp_obs::RecorderHandle;
use mfgcp_pde::{BackwardParabolic2d, CflSummary, Field2d, Grid2d, StepperScratch};

use crate::cases::{CaseFactors, CaseProbabilities};
use crate::estimator::MeanFieldSnapshot;
use crate::params::{CoreError, Params};
use crate::utility::{ContentContext, Utility};

/// Reusable cross-iteration workspace for [`HjbSolver::solve_into`]: the
/// closed-loop drift and running-reward fields, the step's per-`q` rows of
/// Eq. (10) and the stepper scratch, allocated once (via
/// [`HjbSolver::scratch`]) and reused across every Picard iteration of
/// Alg. 2.
#[derive(Debug, Clone)]
pub struct HjbScratch {
    by: Field2d,
    source: Field2d,
    rows: SourceRows,
    stepper: StepperScratch,
}

/// The terms of Eq. (10) that depend on neither `h` nor `x`, one entry per
/// `q` node, rebuilt each step from `(q_j, q̄₋(t_n))` and the step's
/// context. Each entry is the same expression on the same operands as in
/// [`Utility::breakdown`], so the cell loop reproduces it bit for bit.
#[derive(Debug, Clone)]
struct SourceRows {
    /// Trading income `Φ¹` (Eq. (6)) plus the sharing benefit `Φ̄²`.
    income: Vec<f64>,
    /// Case-1 numerator of Eq. (9), `P¹·(Q_k − q)⁺`.
    short1: Vec<f64>,
    /// Case-2 numerator of Eq. (9), `P²·(Q_k − q̄₋)⁺`.
    short2: Vec<f64>,
    /// `P³`.
    p3: Vec<f64>,
    /// Sharing cost `C³ = P²·p̄_k·(q − q̄₋)⁺`.
    sharing: Vec<f64>,
}

/// Backward HJB solver.
#[derive(Debug, Clone)]
pub struct HjbSolver {
    params: Params,
    utility: Utility,
    stepper: BackwardParabolic2d,
    grid: Grid2d,
    /// Channel drift `b_h(h)` — state-only, so assembled once here rather
    /// than on every solve.
    channel_drift: Field2d,
    /// Floored edge rate `H(h_i)` per `h` node (state-only, like the drift).
    edge_rates: Vec<f64>,
    /// `Q_k / H(h_i)` per `h` node.
    qk_over_rate: Vec<f64>,
    /// `q_j` per `q` node.
    q_nodes: Vec<f64>,
    /// `q_j / H_c` per `q` node.
    q_over_center: Vec<f64>,
    /// The own-state sigmoid pair of Eq. (10) per `q` node; a step adds
    /// only the peer pair at `q̄₋(t_n)`.
    own_factors: Vec<CaseFactors>,
}

impl HjbSolver {
    /// Create a solver after validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    pub fn new(params: Params) -> Result<Self, CoreError> {
        params.validate()?;
        let grid = params.grid();
        let stepper = BackwardParabolic2d::new(params.diffusion_h(), params.diffusion_q())
            .expect("validated diffusions");
        let utility = Utility::new(params.clone());
        let channel_drift = Field2d::from_fn(grid.clone(), |h, _q| params.drift_h(h));
        let edge_rates: Vec<f64> = grid
            .x()
            .coords()
            .iter()
            .map(|&h| utility.edge_rate(h))
            .collect();
        let qk_over_rate = edge_rates.iter().map(|&hj| params.q_size / hj).collect();
        let q_nodes = grid.y().coords();
        let q_over_center = q_nodes.iter().map(|&q| q / params.center_rate).collect();
        let own_factors = q_nodes.iter().map(|&q| utility.case_factors(q)).collect();
        Ok(Self {
            params,
            utility,
            stepper,
            grid,
            channel_drift,
            edge_rates,
            qk_over_rate,
            q_nodes,
            q_over_center,
            own_factors,
        })
    }

    /// Attach a telemetry recorder, propagated to the underlying backward
    /// stepper (non-finite sentinels). Telemetry reads state only — sweeps
    /// are bit-identical with recording on or off.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.stepper.set_recorder(recorder);
    }

    /// A fresh workspace for [`HjbSolver::solve_into`].
    pub fn scratch(&self) -> HjbScratch {
        let ny = self.q_nodes.len();
        let row = || vec![0.0; ny];
        HjbScratch {
            by: Field2d::zeros(self.grid.clone()),
            source: Field2d::zeros(self.grid.clone()),
            rows: SourceRows {
                income: row(),
                short1: row(),
                short2: row(),
                p3: row(),
                sharing: row(),
            },
            stepper: StepperScratch::new(),
        }
    }

    /// Solve backwards over the whole horizon, writing `values[n]` =
    /// `V(t_n, ·)` for `n = 0..=N` (so `values[N]` is the terminal
    /// condition) and `policy[n]` = `x*(t_n, ·)` for `n = 0..N` into
    /// caller-owned vectors (resized and fully overwritten), with a
    /// reusable workspace — the allocation-free path the Picard loop of
    /// Alg. 2 runs on. `contexts` and `snapshots` must each have
    /// `params.time_steps` entries (one per macro step `t_n`). The sweep
    /// runs on the calling thread; parallelism lives one level up, across
    /// an epoch's independent per-content solves. Returns the sweep's CFL
    /// bookkeeping folded over its steps.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or if reused buffers live on a
    /// different grid.
    pub fn solve_into(
        &self,
        contexts: &[ContentContext],
        snapshots: &[MeanFieldSnapshot],
        values: &mut Vec<Field2d>,
        policy: &mut Vec<Field2d>,
        scratch: &mut HjbScratch,
    ) -> CflSummary {
        let n_steps = self.params.time_steps;
        assert_eq!(contexts.len(), n_steps, "need one context per time step");
        assert_eq!(snapshots.len(), n_steps, "need one snapshot per time step");
        let dt = self.params.dt();
        let (nx, ny) = (self.grid.x().len(), self.grid.y().len());

        values.resize_with(n_steps + 1, || Field2d::zeros(self.grid.clone()));
        policy.resize_with(n_steps, || Field2d::zeros(self.grid.clone()));
        for f in values.iter().chain(policy.iter()) {
            assert_eq!(f.grid(), &self.grid, "reused buffer grid mismatch");
        }
        // Terminal condition: V(T) = γ·(Q_k − q) (salvage value of the
        // cached inventory; γ = 0 reproduces the paper's V(T) = 0).
        let gamma = self.params.terminal_value_weight;
        let qk = self.params.q_size;
        for i in 0..nx {
            for j in 0..ny {
                values[n_steps].set(i, j, gamma * (qk - self.grid.y().at(j)));
            }
        }

        let mut cfl = CflSummary::default();
        for n in (0..n_steps).rev() {
            let ctx = &contexts[n];
            let snap = &snapshots[n];
            let (head, tail) = values.split_at_mut(n + 1);
            let v_next = &tail[0];
            self.fill_rows(ctx, snap, &mut scratch.rows);

            // Extract x* from ∂_q V(t_{n+1}) (Thm. 1), then build the
            // closed-loop drift and running reward for the step back.
            let dq = self.grid.y().dx();
            let rows = v_next
                .values()
                .chunks_exact(ny)
                .zip(policy[n].values_mut().chunks_exact_mut(ny))
                .zip(scratch.by.values_mut().chunks_exact_mut(ny))
                .zip(scratch.source.values_mut().chunks_exact_mut(ny))
                .zip(self.edge_rates.iter().zip(&self.qk_over_rate));
            for ((((v_row, pol_row), by_row), src_row), (&hj, &qk_hj)) in rows {
                // ∂_q V: one-sided at the walls, centred inside; held in
                // the policy row until the cell loop replaces it by x*.
                pol_row[0] = (v_row[1] - v_row[0]) / dq;
                pol_row[ny - 1] = (v_row[ny - 1] - v_row[ny - 2]) / dq;
                let centred = pol_row[1..ny - 1].iter_mut().zip(v_row.windows(3));
                for (d, w) in centred {
                    *d = (w[2] - w[0]) / (2.0 * dq);
                }
                source_row(
                    &self.utility,
                    &self.params,
                    ctx,
                    [hj, qk_hj],
                    &scratch.rows,
                    &self.q_over_center,
                    pol_row,
                    by_row,
                    src_row,
                );
            }

            let v = &mut head[n];
            v.values_mut().copy_from_slice(tail[0].values());
            cfl.add(self.stepper.step_back_scratch(
                v,
                &self.channel_drift,
                &scratch.by,
                &scratch.source,
                dt,
                &mut scratch.stepper,
            ));
        }
        cfl
    }

    /// Rebuild the step's per-`q` rows of Eq. (10) at `q̄₋(t_n)`.
    fn fill_rows(&self, ctx: &ContentContext, snap: &MeanFieldSnapshot, rows: &mut SourceRows) {
        let qk = self.params.q_size;
        let peer = self.utility.case_factors(snap.q_bar);
        let peer_gap = (qk - snap.q_bar).max(0.0);
        let terms = rows
            .income
            .iter_mut()
            .zip(rows.short1.iter_mut())
            .zip(rows.short2.iter_mut())
            .zip(rows.p3.iter_mut())
            .zip(rows.sharing.iter_mut())
            .zip(self.q_nodes.iter().zip(&self.own_factors));
        for (((((income, short1), short2), p3), sharing), (&q, &own)) in terms {
            let c = CaseProbabilities::from_factors(own, peer);
            *short1 = c.p1 * (qk - q).max(0.0);
            *short2 = c.p2 * peer_gap;
            *p3 = c.p3;
            let sold = *short1 + *short2 + c.p3 * qk;
            *income = ctx.requests * snap.price * sold + snap.share_benefit;
            *sharing = c.p2 * self.params.p_bar * (q - snap.q_bar).max(0.0);
        }
    }
}

/// One `h` row of the step's cell loop. `policy` comes in holding
/// `∂_q V` and leaves holding `x*` (Eq. (21)); `drift` gets the caching
/// drift and `source` the net utility of Eq. (10) at `x*`. The staleness
/// cost is [`Utility::staleness_cost`]'s expression on the tabled `rows`
/// and `[hj, qk_hj]` = `[H(h_i), Q_k / H(h_i)]`; everything else calls the
/// untabled functions, whose loop-invariant parts LLVM hoists. Every slice
/// is cut to one length first and, as a function of its own, they keep
/// the no-alias facts LLVM needs to vectorise the loop.
#[allow(clippy::too_many_arguments)] // internal kernel: all fields are hot-loop state
fn source_row(
    utility: &Utility,
    p: &Params,
    ctx: &ContentContext,
    [hj, qk_hj]: [f64; 2],
    rows: &SourceRows,
    q_over_center: &[f64],
    policy: &mut [f64],
    drift: &mut [f64],
    source: &mut [f64],
) {
    let n = policy.len();
    let (drift, source) = (&mut drift[..n], &mut source[..n]);
    let (income, short1, short2) = (&rows.income[..n], &rows.short1[..n], &rows.short2[..n]);
    let (p3, sharing, q_hc) = (&rows.p3[..n], &rows.sharing[..n], &q_over_center[..n]);
    for j in 0..n {
        let x = utility.optimal_control(policy[j]);
        policy[j] = x;
        drift[j] = p.drift_q(x, ctx.popularity, ctx.urgency_factor);
        let download = p.q_size * x / p.center_rate;
        let per_request = short1[j] / hj + short2[j] / hj + p3[j] * (q_hc[j] + qk_hj);
        let staleness = p.eta2 * (download + ctx.requests * per_request);
        source[j] = income[j] - utility.placement_cost(x) - staleness - sharing[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> MeanFieldSnapshot {
        MeanFieldSnapshot {
            price: 4.0,
            q_bar: 0.5,
            delta_q: 0.3,
            share_benefit: 0.2,
            sharer_fraction: 0.3,
            case3_fraction: 0.2,
        }
    }

    /// One backward sweep into fresh buffers: `(values, policy)`.
    fn sweep(
        solver: &HjbSolver,
        contexts: &[ContentContext],
        snapshots: &[MeanFieldSnapshot],
    ) -> (Vec<Field2d>, Vec<Field2d>) {
        let (mut values, mut policy) = (Vec::new(), Vec::new());
        let mut scratch = solver.scratch();
        solver.solve_into(contexts, snapshots, &mut values, &mut policy, &mut scratch);
        (values, policy)
    }

    fn solve_default() -> (HjbSolver, Vec<Field2d>, Vec<Field2d>) {
        let params = Params {
            time_steps: 20,
            grid_h: 12,
            grid_q: 32,
            ..Params::default()
        };
        let ctx = ContentContext::from_params(&params);
        let solver = HjbSolver::new(params.clone()).unwrap();
        let contexts = vec![ctx; params.time_steps];
        let snaps = vec![snapshot(); params.time_steps];
        let (values, policy) = sweep(&solver, &contexts, &snaps);
        (solver, values, policy)
    }

    #[test]
    fn terminal_condition_is_zero() {
        let (_, values, _) = solve_default();
        assert!(values.last().unwrap().values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn salvage_terminal_condition_is_linear_in_cached_inventory() {
        let params = Params {
            time_steps: 10,
            grid_h: 8,
            grid_q: 24,
            terminal_value_weight: 2.0,
            ..Params::default()
        };
        let ctx = ContentContext::from_params(&params);
        let solver = HjbSolver::new(params.clone()).unwrap();
        let (values, policy) = sweep(&solver, &vec![ctx; 10], &vec![snapshot(); 10]);
        let v_t = values.last().unwrap();
        // V(T, q = 0) = 2·Q_k, V(T, q = Q_k) = 0.
        assert!((v_t.interpolate(5.0e-5, 0.0) - 2.0).abs() < 1e-9);
        assert!(v_t.interpolate(5.0e-5, 1.0).abs() < 1e-9);
        // Salvage value keeps the policy caching near the horizon where
        // the γ = 0 solve has already shut down.
        let salvage_late = policy[9].interpolate(5.0e-5, 0.6);
        let plain = HjbSolver::new(Params {
            terminal_value_weight: 0.0,
            ..params
        })
        .unwrap();
        let (_, plain_policy) = sweep(&plain, &vec![ctx; 10], &vec![snapshot(); 10]);
        let plain_late = plain_policy[9].interpolate(5.0e-5, 0.6);
        assert!(
            salvage_late > plain_late,
            "salvage {salvage_late} <= plain {plain_late}"
        );
    }

    #[test]
    fn value_accumulates_positive_utility_backwards() {
        let (_, values, _) = solve_default();
        // With income-dominated utility, V(0) should be strictly positive
        // and exceed V at later times (more horizon left to earn).
        let v0_mid = values[0].interpolate(5.0e-5, 0.5);
        let v_mid_mid = values[10].interpolate(5.0e-5, 0.5);
        assert!(v0_mid > 0.0, "V(0) = {v0_mid}");
        assert!(v0_mid > v_mid_mid, "V decreases towards the horizon");
    }

    #[test]
    fn value_decreases_in_remaining_space() {
        // More remaining space = less content cached = less to sell:
        // V should decrease with q through most of the domain.
        let (_, values, _) = solve_default();
        let v = &values[0];
        let low_q = v.interpolate(5.0e-5, 0.1);
        let high_q = v.interpolate(5.0e-5, 0.9);
        assert!(low_q > high_q, "V(q=0.1) = {low_q} vs V(q=0.9) = {high_q}");
    }

    #[test]
    fn policy_is_a_valid_caching_rate_everywhere() {
        let (_, _, policy) = solve_default();
        for p in &policy {
            assert!(p.values().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn policy_is_interior_somewhere() {
        // A degenerate all-0 or all-1 policy would mean the calibration
        // broke the Thm. 1 trade-off.
        let (_, _, policy) = solve_default();
        let interior: usize = policy
            .iter()
            .map(|p| p.values().iter().filter(|&&x| x > 0.01 && x < 0.99).count())
            .sum();
        assert!(interior > 0, "policy is bang-bang everywhere");
    }

    #[test]
    fn policy_consistent_with_value_gradient() {
        let (solver, values, policy) = solve_default();
        // Recompute x* from the stored value surface at one step and
        // compare with the stored policy.
        let n = 5;
        let v = &values[n + 1];
        let grid = &solver.grid;
        let dqs = grid.y().dx();
        let (i, j) = (6, 16);
        let dv = (v.at(i, j + 1) - v.at(i, j - 1)) / (2.0 * dqs);
        let expected = solver.utility.optimal_control(dv);
        assert!((policy[n].at(i, j) - expected).abs() < 1e-12);
    }

    #[test]
    fn time_varying_contexts_shape_the_policy() {
        // A demand burst confined to the second half of the horizon should
        // produce more aggressive early caching than no burst at all
        // (the backward sweep anticipates it).
        let params = Params {
            time_steps: 20,
            grid_h: 8,
            grid_q: 32,
            ..Params::default()
        };
        let solver = HjbSolver::new(params.clone()).unwrap();
        let quiet = ContentContext {
            requests: 2.0,
            popularity: 0.1,
            urgency_factor: 0.01,
        };
        let burst = ContentContext {
            requests: 40.0,
            popularity: 0.8,
            urgency_factor: 0.01,
        };
        let snaps = vec![snapshot(); 20];

        let (_, flat) = sweep(&solver, &vec![quiet; 20], &snaps);
        let mut ramped_ctx = vec![quiet; 10];
        ramped_ctx.extend(vec![burst; 10]);
        let (_, ramped) = sweep(&solver, &ramped_ctx, &snaps);

        // Compare the early-horizon policy mass.
        let early_mass = |policy: &[Field2d]| -> f64 {
            policy[..5]
                .iter()
                .map(|p| p.values().iter().sum::<f64>())
                .sum()
        };
        assert!(
            early_mass(&ramped) > early_mass(&flat),
            "anticipation missing: ramped {} vs flat {}",
            early_mass(&ramped),
            early_mass(&flat)
        );
    }

    /// The backward sweep with the untabled per-cell Eq. (10): the
    /// reference the tabled sweep must match bit for bit at every step.
    fn reference_sweep(
        solver: &HjbSolver,
        contexts: &[ContentContext],
        snapshots: &[MeanFieldSnapshot],
    ) -> (Vec<Field2d>, Vec<Field2d>) {
        let p = &solver.params;
        let grid = &solver.grid;
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let dq = grid.y().dx();
        let mut values = vec![Field2d::zeros(grid.clone()); p.time_steps + 1];
        let mut policy = vec![Field2d::zeros(grid.clone()); p.time_steps];
        for i in 0..nx {
            for j in 0..ny {
                let terminal = p.terminal_value_weight * (p.q_size - grid.y().at(j));
                values[p.time_steps].set(i, j, terminal);
            }
        }
        for n in (0..p.time_steps).rev() {
            let (ctx, snap) = (&contexts[n], &snapshots[n]);
            let v_next = values[n + 1].clone();
            let mut by = Field2d::zeros(grid.clone());
            let mut source = Field2d::zeros(grid.clone());
            for i in 0..nx {
                for j in 0..ny {
                    let dv_dq = if j == 0 {
                        (v_next.at(i, 1) - v_next.at(i, 0)) / dq
                    } else if j == ny - 1 {
                        (v_next.at(i, ny - 1) - v_next.at(i, ny - 2)) / dq
                    } else {
                        (v_next.at(i, j + 1) - v_next.at(i, j - 1)) / (2.0 * dq)
                    };
                    let x = solver.utility.optimal_control(dv_dq);
                    let (h, q) = (grid.x().at(i), grid.y().at(j));
                    policy[n].set(i, j, x);
                    by.set(i, j, p.drift_q(x, ctx.popularity, ctx.urgency_factor));
                    source.set(i, j, solver.utility.evaluate(ctx, snap, x, h, q));
                }
            }
            let mut v = v_next;
            solver.stepper.step_back_scratch(
                &mut v,
                &solver.channel_drift,
                &by,
                &source,
                p.dt(),
                &mut StepperScratch::new(),
            );
            values[n] = v;
        }
        (values, policy)
    }

    #[test]
    fn tabled_sweep_matches_per_cell_reference_to_0_ulp() {
        for (grid_h, grid_q) in [(4, 4), (5, 7), (24, 48)] {
            let params = Params {
                time_steps: 8,
                grid_h,
                grid_q,
                terminal_value_weight: 0.4,
                ..Params::default()
            };
            let solver = HjbSolver::new(params.clone()).unwrap();
            // Every step sees its own peer state and demand.
            let snaps: Vec<MeanFieldSnapshot> = (0..params.time_steps)
                .map(|n| MeanFieldSnapshot {
                    q_bar: 0.1 * n as f64,
                    price: 4.0 + 0.1 * n as f64,
                    ..snapshot()
                })
                .collect();
            let contexts: Vec<ContentContext> = (0..params.time_steps)
                .map(|n| ContentContext {
                    requests: 4.0 + n as f64,
                    ..ContentContext::from_params(&params)
                })
                .collect();
            let (tabled_values, tabled_policy) = sweep(&solver, &contexts, &snaps);
            let (values, policy) = reference_sweep(&solver, &contexts, &snaps);
            let planes = tabled_values.iter().zip(&values);
            let planes = planes.chain(tabled_policy.iter().zip(&policy));
            for (k, (a, b)) in planes.enumerate() {
                let bits = |f: &Field2d| f.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{grid_h}x{grid_q}, plane {k}");
            }
        }
    }

    #[test]
    fn tabled_source_matches_breakdown_to_0_ulp() {
        // The last step swept (n = 0) leaves its drift and source in the
        // scratch; check them cell by cell against the untabled Eq. (10)
        // and Eq. (4) for a spread of peer states q̄₋, including one on a
        // q node, one at α·Q_k and the walls.
        for (grid_h, grid_q) in [(4, 4), (5, 7), (24, 48)] {
            let params = Params {
                time_steps: 6,
                grid_h,
                grid_q,
                terminal_value_weight: 0.7,
                ..Params::default()
            };
            let solver = HjbSolver::new(params.clone()).unwrap();
            let grid = solver.grid.clone();
            let ctx = ContentContext {
                requests: 13.0,
                popularity: 0.4,
                urgency_factor: 0.3,
            };
            let node = grid.y().at(grid_q / 2);
            for q_bar in [0.0, 0.13, node, params.alpha_qk(), 0.61, params.q_size] {
                let snaps: Vec<MeanFieldSnapshot> = (0..params.time_steps)
                    .map(|n| MeanFieldSnapshot {
                        q_bar: q_bar * (1.0 - 0.01 * n as f64),
                        ..snapshot()
                    })
                    .collect();
                let contexts = vec![ctx; params.time_steps];
                let (mut values, mut policy) = (Vec::new(), Vec::new());
                let mut scratch = solver.scratch();
                solver.solve_into(&contexts, &snaps, &mut values, &mut policy, &mut scratch);
                for i in 0..grid.x().len() {
                    let h = grid.x().at(i);
                    for j in 0..grid.y().len() {
                        let q = grid.y().at(j);
                        let x = policy[0].at(i, j);
                        let reference = solver.utility.breakdown(&ctx, &snaps[0], x, h, q);
                        assert_eq!(
                            scratch.source.at(i, j).to_bits(),
                            reference.total().to_bits(),
                            "source at ({i}, {j}), q̄ = {q_bar}"
                        );
                        let drift = params.drift_q(x, ctx.popularity, ctx.urgency_factor);
                        assert_eq!(scratch.by.at(i, j).to_bits(), drift.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one context per time step")]
    fn mismatched_contexts_rejected() {
        let params = Params {
            time_steps: 10,
            ..Params::default()
        };
        let solver = HjbSolver::new(params.clone()).unwrap();
        let snaps = vec![snapshot(); 10];
        sweep(&solver, &[], &snaps);
    }
}
