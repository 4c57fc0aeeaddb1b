//! The five placement schemes of §V-A: MFG-CP and the four baselines.
//!
//! Existing comparator code is closed-source; RR, MPC \[18\], MFG \[27\]
//! and UDCS \[28\] are re-implemented here from the paper's descriptions
//! ("the RR policy adopts random caching decisions; the MPC method only
//! caches currently most popular contents; the MFG scheme is a downgraded
//! version of MFG-CP, in which the content sharing is not considered; and
//! the UDCS approach takes into account the content overlap and
//! interference, without considering the pricing issue and content
//! sharing").

use std::mem;

use rand::RngExt as _;

use mfgcp_core::{ContentContext, EpochSeeds, Equilibrium, Framework, Params, PolicyLookup};
use mfgcp_obs::RecorderHandle;
use mfgcp_sde::SimRng;

use crate::policy::{CachingPolicy, DecisionContext};
use crate::SimError;

/// MFG-CP (Alg. 1 + Alg. 2): at each epoch, solve one mean-field
/// equilibrium per demanded content; every EDP then reads its caching rate
/// off the shared equilibrium policy surface at its own local state —
/// no inter-EDP communication, exactly the paper's decentralization claim.
/// A thin adapter over the core [`Framework`] driver.
pub struct MfgCpPolicy {
    framework: Framework,
    equilibria: Vec<Option<Equilibrium>>,
    /// `lookups[k]` = the hoisted [`Equilibrium::policy_at`] constants of
    /// `equilibria[k]`, rebuilt with every epoch and every install.
    lookups: Vec<Option<PolicyLookup>>,
    /// How the last `prepare_epoch` seeded its solves.
    seeds: Option<EpochSeeds>,
    sharing: bool,
    name: &'static str,
}

impl MfgCpPolicy {
    /// Full MFG-CP with paid peer sharing.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn new(params: Params) -> Result<Self, SimError> {
        Ok(Self {
            framework: Framework::new(params)?,
            equilibria: Vec::new(),
            lookups: Vec::new(),
            seeds: None,
            sharing: true,
            name: "MFG-CP",
        })
    }

    /// The "MFG" baseline \[27\]: identical machinery with content sharing
    /// disabled (no sharing benefit, no peer purchases — case 2 degrades
    /// to case 3 in the market).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn without_sharing(params: Params) -> Result<Self, SimError> {
        let no_share = Params {
            p_bar: 0.0,
            ..params
        };
        Ok(Self {
            sharing: false,
            name: "MFG",
            ..Self::new(no_share)?
        })
    }

    /// Use heterogeneous per-content sizes: content `k` is solved at
    /// `Q_k = sizes[k]` (its own state range, threshold and economics).
    #[must_use]
    pub fn with_content_sizes(mut self, sizes: Vec<f64>) -> Self {
        self.framework = self.framework.with_content_sizes(sizes);
        self
    }

    /// The parameters this policy's equilibria are solved under — the
    /// run's, except that the MFG baseline solves at `p̄ = 0`. A solve made
    /// on the policy's behalf elsewhere (a control-plane reprice) must use
    /// these, not the run's.
    pub fn params(&self) -> &Params {
        self.framework.solver().params()
    }

    /// The equilibrium for `content`, if one was computed this epoch.
    pub fn equilibrium(&self, content: usize) -> Option<&Equilibrium> {
        self.equilibria.get(content).and_then(Option::as_ref)
    }
}

impl CachingPolicy for MfgCpPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn allows_sharing(&self) -> bool {
        self.sharing
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.framework.set_recorder(recorder);
    }

    fn prepare_epoch(&mut self, contexts: &[ContentContext]) {
        // The previous epoch's equilibria (including any installed
        // reprice) seed this epoch's warm solves, which run in their
        // buffers: one epoch's set stays resident, not two.
        let previous = mem::take(&mut self.equilibria);
        let (equilibria, seeds) = self.framework.run_epoch(contexts, previous);
        self.lookups = equilibria
            .iter()
            .map(|eq| eq.as_ref().map(Equilibrium::policy_lookup))
            .collect();
        self.equilibria = equilibria;
        self.seeds = Some(seeds);
    }

    fn epoch_seeds(&self) -> Option<EpochSeeds> {
        self.seeds
    }

    fn prepared_equilibria(&self) -> Vec<(usize, &Equilibrium)> {
        self.equilibria
            .iter()
            .enumerate()
            .filter_map(|(k, eq)| eq.as_ref().map(|e| (k, e)))
            .collect()
    }

    fn reprice(
        &self,
        content: usize,
        ctx: &ContentContext,
        occupancy: &[f64],
    ) -> Option<Equilibrium> {
        // Warm from the stale fixed point when this epoch solved the
        // content — the cheap path the perf bar gates.
        let stale = self
            .equilibrium(content)
            .map(|eq| (eq.policy.as_slice(), eq.density.as_slice()));
        self.framework.reprice(content, ctx, occupancy, stale)
    }

    fn install_equilibrium(&mut self, content: usize, equilibrium: Equilibrium) -> bool {
        if self.equilibria.len() <= content {
            self.equilibria.resize_with(content + 1, || None);
            self.lookups.resize_with(content + 1, || None);
        }
        self.lookups[content] = Some(equilibrium.policy_lookup());
        self.equilibria[content] = Some(equilibrium);
        true
    }

    fn decide(&self, ctx: &DecisionContext, _rng: &mut SimRng) -> f64 {
        let k = ctx.content;
        match (self.lookups.get(k), self.equilibria.get(k)) {
            (Some(Some(lookup)), Some(Some(eq))) => {
                lookup.policy_at(eq, ctx.t_in_epoch, ctx.h, ctx.q)
            }
            _ => 0.0,
        }
    }
}

/// "RR": a uniform random caching rate per decision. The paper notes its
/// cost grows with `M` ("the RR scheme requires M iterations of random
/// number generation operations").
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomReplacement;

impl CachingPolicy for RandomReplacement {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn allows_sharing(&self) -> bool {
        false
    }

    fn decide(&self, _ctx: &DecisionContext, rng: &mut SimRng) -> f64 {
        rng.random_range(0.0..=1.0)
    }
}

/// "MPC" \[18\]: cache the currently most popular contents at full rate,
/// nothing else. `top_k` controls how many of the popularity ranks are
/// cached (storage budget).
#[derive(Debug, Clone, Copy)]
pub struct MostPopularCaching {
    /// How many top-ranked contents are cached at full rate.
    pub top_k: usize,
}

impl Default for MostPopularCaching {
    fn default() -> Self {
        Self { top_k: 4 }
    }
}

impl CachingPolicy for MostPopularCaching {
    fn name(&self) -> &'static str {
        "MPC"
    }

    fn reads_rank(&self) -> bool {
        true
    }

    fn allows_sharing(&self) -> bool {
        false
    }

    fn decide(&self, ctx: &DecisionContext, _rng: &mut SimRng) -> f64 {
        if ctx.rank < self.top_k {
            1.0
        } else {
            0.0
        }
    }
}

/// "UDCS" \[28\]: long-run average-cost minimization aware of content
/// overlap and aggregate interference, with no pricing and no sharing.
///
/// Re-implemented from the description: the caching rate follows local
/// popularity, discounted by (a) the fraction of neighboring EDPs already
/// holding the content (overlap avoidance) and (b) poor channel conditions
/// (interference awareness — serving over a bad channel is costly, so the
/// content is less valuable to cache).
#[derive(Debug, Clone, Copy)]
pub struct Udcs {
    /// Popularity-to-rate gain.
    pub gain: f64,
    /// Strength of the overlap discount in `[0, 1]`.
    pub overlap_discount: f64,
    /// Fading coefficient at which the channel factor reaches 1.
    pub h_ref: f64,
}

impl Default for Udcs {
    fn default() -> Self {
        Self {
            gain: 3.0,
            overlap_discount: 0.8,
            h_ref: 10.0e-5,
        }
    }
}

impl CachingPolicy for Udcs {
    fn name(&self) -> &'static str {
        "UDCS"
    }

    fn allows_sharing(&self) -> bool {
        false
    }

    fn decide(&self, ctx: &DecisionContext, _rng: &mut SimRng) -> f64 {
        let overlap = 1.0 - self.overlap_discount * ctx.neighbor_cached_fraction;
        let channel = (ctx.h / self.h_ref).clamp(0.0, 1.0);
        (self.gain * ctx.popularity * overlap * channel).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_core::MfgSolver;
    use mfgcp_obs::MemorySink;
    use mfgcp_sde::seeded_rng;
    use std::sync::Arc;

    fn ctx(rank: usize, q: f64) -> DecisionContext {
        DecisionContext {
            edp: 0,
            content: 0,
            t_in_epoch: 0.1,
            q,
            q_size: 1.0,
            h: 5.0e-5,
            popularity: 0.3,
            urgency_factor: 0.1,
            rank,
            num_contents: 4,
            neighbor_cached_fraction: 0.0,
        }
    }

    fn small_params() -> Params {
        Params {
            time_steps: 12,
            grid_h: 8,
            grid_q: 24,
            ..Params::default()
        }
    }

    #[test]
    fn rr_is_uniform_in_unit_interval() {
        let rr = RandomReplacement;
        let mut rng = seeded_rng(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rr.decide(&ctx(0, 0.5), &mut rng);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
        assert!(!rr.allows_sharing());
    }

    #[test]
    fn mpc_caches_only_top_ranks() {
        let mpc = MostPopularCaching { top_k: 2 };
        let mut rng = seeded_rng(3);
        assert_eq!(mpc.decide(&ctx(0, 0.5), &mut rng), 1.0);
        assert_eq!(mpc.decide(&ctx(1, 0.5), &mut rng), 1.0);
        assert_eq!(mpc.decide(&ctx(2, 0.5), &mut rng), 0.0);
        assert_eq!(mpc.name(), "MPC");
    }

    #[test]
    fn udcs_discounts_overlap_and_bad_channels() {
        let udcs = Udcs::default();
        let mut rng = seeded_rng(4);
        let free = udcs.decide(&ctx(0, 0.5), &mut rng);
        let crowded = udcs.decide(
            &DecisionContext {
                neighbor_cached_fraction: 1.0,
                ..ctx(0, 0.5)
            },
            &mut rng,
        );
        assert!(crowded < free);
        let weak = udcs.decide(
            &DecisionContext {
                h: 1.0e-5,
                ..ctx(0, 0.5)
            },
            &mut rng,
        );
        assert!(weak < free);
    }

    #[test]
    fn mfgcp_policy_prepares_and_decides() {
        let mut p = MfgCpPolicy::new(small_params()).unwrap();
        assert_eq!(p.name(), "MFG-CP");
        assert!(p.allows_sharing());
        let contexts = vec![
            ContentContext {
                requests: 10.0,
                popularity: 0.4,
                urgency_factor: 0.05,
            },
            ContentContext {
                requests: 0.0,
                popularity: 0.1,
                urgency_factor: 0.05,
            },
        ];
        p.prepare_epoch(&contexts);
        assert!(p.equilibrium(0).is_some());
        assert!(p.equilibrium(1).is_none());
        let mut rng = seeded_rng(5);
        let x = p.decide(&ctx(0, 0.6), &mut rng);
        assert!((0.0..=1.0).contains(&x));
        // Undemanded content → no caching.
        let x1 = p.decide(
            &DecisionContext {
                content: 1,
                ..ctx(0, 0.6)
            },
            &mut rng,
        );
        assert_eq!(x1, 0.0);
    }

    /// `decide`'s hoisted lookup answers exactly what
    /// `Equilibrium::policy_at` answers, bit for bit, at every slot time
    /// of a run, at exact step boundaries and their neighbors, before,
    /// after and at NaN times, and at `(h, q)` on, between and outside the
    /// grid nodes — over a heterogeneous catalog, and again after an
    /// install of an equilibrium solved under another step count and grid
    /// (which must rebuild the lookup).
    #[test]
    fn hoisted_lookup_matches_policy_at_to_0_ulp() {
        fn times(eq: &Equilibrium) -> Vec<f64> {
            let (horizon, steps) = (eq.params.t_horizon, eq.params.time_steps);
            let mut t: Vec<f64> = (0..40).map(|slot| slot as f64 * (horizon / 40.0)).collect();
            for n in 0..=steps + 1 {
                let edge = n as f64 * eq.dt();
                t.extend([edge, f64::from_bits(edge.to_bits() + 1)]);
                if edge > 0.0 {
                    t.push(f64::from_bits(edge.to_bits() - 1));
                }
            }
            t.extend([-1e-300, -0.5, f64::NEG_INFINITY, horizon, horizon * 3.0]);
            t.extend([f64::INFINITY, f64::NAN]);
            t
        }
        fn points(eq: &Equilibrium) -> Vec<(f64, f64)> {
            let grid = eq.policy[0].grid();
            let around = |coords: Vec<f64>| {
                let (lo, hi) = (coords[0], coords[coords.len() - 1]);
                let mut out = coords.clone();
                out.extend(coords.windows(2).map(|w| 0.5 * (w[0] + w[1])));
                out.extend([lo - (hi - lo), hi + (hi - lo), f64::NAN]);
                out
            };
            let (hs, qs) = (around(grid.x().coords()), around(grid.y().coords()));
            hs.iter()
                .flat_map(|&h| qs.iter().map(move |&q| (h, q)))
                .collect()
        }
        fn assert_matches(p: &MfgCpPolicy, k: usize, eq: &Equilibrium, tag: &str) {
            let mut rng = seeded_rng(0);
            for t in times(eq) {
                for (h, q) in points(eq) {
                    let ctx = DecisionContext {
                        content: k,
                        t_in_epoch: t,
                        h,
                        q,
                        ..ctx(0, q)
                    };
                    let (got, want) = (p.decide(&ctx, &mut rng), eq.policy_at(t, h, q));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{tag}: content {k}, t {t}, h {h}, q {q}"
                    );
                }
            }
        }

        let params = small_params();
        let (contexts, sizes) = catalog();
        let mut p = policy_with_threads(&params, 1, &sizes);
        p.prepare_epoch(&contexts);
        for k in 0..contexts.len() {
            match p.equilibrium(k) {
                Some(eq) => assert_matches(&p, k, &eq.clone(), "prepared"),
                None => {
                    let undemanded = DecisionContext {
                        content: k,
                        ..ctx(0, 0.5)
                    };
                    assert_eq!(p.decide(&undemanded, &mut seeded_rng(0)), 0.0);
                }
            }
        }
        let other = MfgSolver::new(Params {
            time_steps: 7,
            grid_h: 6,
            grid_q: 17,
            q_size: sizes[1],
            ..params.clone()
        })
        .unwrap()
        .solve_with(&[contexts[1]; 7], None);
        for k in [1, 2, contexts.len() + 2] {
            assert!(p.install_equilibrium(k, other.clone()));
            assert_matches(&p, k, &other, "installed");
        }
    }

    /// Five contents of a heterogeneous catalog: two on the shared solver
    /// and three at their own sizes, one of each kind undemanded.
    fn catalog() -> (Vec<ContentContext>, Vec<f64>) {
        let contexts = [(10.0, 0.4), (6.0, 0.3), (0.0, 0.2), (8.0, 0.1), (0.0, 0.05)]
            .map(|(requests, popularity)| ContentContext {
                requests,
                popularity,
                urgency_factor: 0.05,
            })
            .to_vec();
        (contexts, vec![1.0, 0.6, 1.0, 0.8, 0.6])
    }

    fn policy_with_threads(params: &Params, threads: usize, sizes: &[f64]) -> MfgCpPolicy {
        MfgCpPolicy::new(Params {
            worker_threads: threads,
            ..params.clone()
        })
        .unwrap()
        .with_content_sizes(sizes.to_vec())
    }

    fn assert_bit_identical(a: &Equilibrium, b: &Equilibrium, tag: &str) {
        assert_eq!(a.report, b.report, "report, {tag}");
        for (what, x, y) in [
            ("policy", &a.policy, &b.policy),
            ("density", &a.density, &b.density),
            ("values", &a.values, &b.values),
        ] {
            assert_eq!(x.len(), y.len(), "{what} length, {tag}");
            for (n, (p, q)) in x.iter().zip(y).enumerate() {
                assert_eq!(p.values(), q.values(), "{what} step {n}, {tag}");
            }
        }
    }

    /// The epoch fan-out lands every content's equilibrium at its index,
    /// bit-identical to a sequential solve on that content's solver, for
    /// any thread count (including more threads than contents) — over two
    /// epochs: a cold first one, then a drifted second one whose
    /// still-demanded contents go warm from their first-epoch equilibria
    /// and whose newly demanded content goes cold.
    #[test]
    fn prepare_epoch_is_bit_identical_across_worker_thread_counts() {
        let params = small_params();
        let (first, sizes) = catalog();
        let second: Vec<ContentContext> = first
            .iter()
            .enumerate()
            .map(|(k, ctx)| ContentContext {
                requests: if k == 2 { 5.0 } else { ctx.requests * 0.8 },
                popularity: ctx.popularity * 1.2,
                urgency_factor: ctx.urgency_factor * 1.5,
            })
            .collect();
        let solver = |size: f64| {
            MfgSolver::new(Params {
                q_size: size,
                ..params.clone()
            })
            .unwrap()
        };
        let per_step = |ctx: &ContentContext| vec![*ctx; params.time_steps];
        let cold: Vec<Option<Equilibrium>> = first
            .iter()
            .zip(&sizes)
            .map(|(ctx, &size)| {
                (ctx.requests > 0.0).then(|| solver(size).solve_with(&per_step(ctx), None))
            })
            .collect();
        let warm: Vec<Option<Equilibrium>> = second
            .iter()
            .zip(&sizes)
            .zip(&cold)
            .map(|((ctx, &size), prev)| match prev {
                Some(prev) => {
                    let eq = solver(size).solve_from(
                        &per_step(ctx),
                        &prev.policy,
                        Some(&prev.density),
                        None,
                    );
                    assert!(eq.report.converged, "warm reference converges");
                    Some(eq)
                }
                None => (ctx.requests > 0.0).then(|| solver(size).solve_with(&per_step(ctx), None)),
            })
            .collect();
        for threads in [1, 2, 3, 8] {
            let mut p = policy_with_threads(&params, threads, &sizes);
            for (epoch, contexts, reference, seeds) in [
                (
                    0,
                    &first,
                    &cold,
                    EpochSeeds {
                        cold: 3,
                        ..EpochSeeds::default()
                    },
                ),
                (
                    1,
                    &second,
                    &warm,
                    EpochSeeds {
                        warm: 3,
                        cold: 1,
                        fallback: 0,
                    },
                ),
            ] {
                p.prepare_epoch(contexts);
                assert_eq!(
                    p.epoch_seeds(),
                    Some(seeds),
                    "epoch {epoch}, {threads} threads"
                );
                for (k, reference) in reference.iter().enumerate() {
                    let tag = format!("epoch {epoch}, content {k}, {threads} threads");
                    match (p.equilibrium(k), reference) {
                        (Some(eq), Some(reference)) => assert_bit_identical(eq, reference, &tag),
                        (None, None) => {}
                        _ => panic!("{tag}: demanded/undemanded mismatch"),
                    }
                }
            }
        }
    }

    /// A warm reprice from a fanned-out epoch's stale equilibrium is
    /// bit-deterministic across the thread counts that prepared it.
    #[test]
    fn warm_reprice_is_bit_deterministic_across_thread_counts() {
        let params = small_params();
        let (contexts, sizes) = catalog();
        let occupancy: Vec<f64> = (0..params.num_edps)
            .map(|i| 0.2 + 0.6 * (i % 7) as f64 / 7.0)
            .collect();
        let reprice = |threads: usize| {
            let mut p = policy_with_threads(&params, threads, &sizes);
            p.prepare_epoch(&contexts);
            [0, 1]
                .map(|k| {
                    let mut shifted = contexts[k];
                    shifted.popularity = (shifted.popularity * 1.05).min(1.0);
                    p.reprice(k, &shifted, &occupancy).unwrap()
                })
                .to_vec()
        };
        let reference = reprice(1);
        for threads in [2, 8] {
            for (k, (eq, r)) in reprice(threads).iter().zip(&reference).enumerate() {
                assert_bit_identical(eq, r, &format!("content {k}, {threads} threads"));
            }
        }
    }

    /// Concurrent solves record into per-content buffers forwarded after
    /// the join: the run's stream stays schema-valid, with exactly one
    /// `solver.solve` span per demanded content per epoch, in content
    /// order, under unique span ids.
    #[test]
    fn traced_epochs_forward_one_solve_span_per_demanded_content_in_order() {
        use mfgcp_obs::{schema, Kind, Value};

        let (contexts, sizes) = catalog();
        let mut second = contexts.clone();
        second[0].requests = 0.0;
        second[2].requests = 5.0;
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        let mut p = policy_with_threads(&small_params(), 2, &sizes);
        p.set_recorder(rec.clone());
        let mut expected = Vec::new();
        for epoch in [&contexts, &second] {
            let span = rec.span("epoch");
            p.prepare_epoch(epoch);
            span.close(&[]);
            expected.push(
                p.prepared_equilibria()
                    .into_iter()
                    .map(|(_, eq)| eq.report.clone())
                    .collect::<Vec<_>>(),
            );
        }

        let events = sink.events();
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(schema::validate_str(&text).unwrap(), events.len());
        let mut opened: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == Kind::SpanOpen)
            .filter_map(|e| e.span)
            .collect();
        let n_open = opened.len();
        opened.sort_unstable();
        opened.dedup();
        assert_eq!(opened.len(), n_open, "span ids must be unique");

        let epochs = events.split(|e| e.name == "epoch" && e.kind == Kind::SpanClose);
        for (epoch, (events, reports)) in epochs.zip(&expected).enumerate() {
            let closes: Vec<_> = events
                .iter()
                .filter(|e| e.name == "solver.solve" && e.kind == Kind::SpanClose)
                .collect();
            assert_eq!(closes.len(), reports.len(), "epoch {epoch}");
            for (close, report) in closes.iter().zip(reports) {
                let iterations = report.iterations as u64;
                assert_eq!(close.field("iterations"), Some(&Value::U64(iterations)));
                let residual = Value::F64(report.final_residual());
                assert_eq!(close.field("final_residual"), Some(&residual));
            }
        }
    }

    #[test]
    fn mfg_without_sharing_has_the_right_flags() {
        let p = MfgCpPolicy::without_sharing(small_params()).unwrap();
        assert_eq!(p.name(), "MFG");
        assert!(!p.allows_sharing());
        assert_eq!(p.framework.solver().params().p_bar, 0.0);
    }
}
