//! The placement-policy abstraction shared by MFG-CP and the baselines.

use mfgcp_core::{ContentContext, EpochSeeds, Equilibrium};
use mfgcp_obs::RecorderHandle;
use mfgcp_sde::SimRng;

/// Everything a policy may look at when choosing a caching rate — the
/// EDP's *local* information (the incomplete-information premise of the
/// game: no other EDP's strategy or state appears here; population-level
/// facts arrive only through the policy's own mean-field estimate or, for
/// the overlap-aware UDCS baseline, the center-published neighborhood
/// occupancy).
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext {
    /// Index of the deciding EDP.
    pub edp: usize,
    /// Content being decided.
    pub content: usize,
    /// Time within the current epoch, `[0, T)`.
    pub t_in_epoch: f64,
    /// Own remaining space for this content.
    pub q: f64,
    /// This content's size `Q_k` (content units).
    pub q_size: f64,
    /// Current fading coefficient towards the served requesters (mean).
    pub h: f64,
    /// Current local popularity estimate `Π_k(t)`.
    pub popularity: f64,
    /// Current urgency factor `ξ^{L_k(t)}`.
    pub urgency_factor: f64,
    /// Popularity rank of this content at this EDP (0 = most popular).
    /// Ranked once per epoch, and only for a policy whose
    /// [`CachingPolicy::reads_rank`] is `true`; `0` for every other.
    pub rank: usize,
    /// Number of contents in the catalog.
    pub num_contents: usize,
    /// Fraction of neighboring EDPs that already hold this content
    /// (published by the center; used by the overlap-aware UDCS baseline).
    pub neighbor_cached_fraction: f64,
}

/// A content-placement policy: produces the caching rate `x ∈ [0, 1]`.
///
/// Implementations must be `Send + Sync` so per-EDP decision loops can
/// run in parallel against a shared policy. A policy is *shared* across EDPs within a run (symmetric
/// strategies, as in the MFG); per-EDP randomness comes from the per-EDP
/// RNG stream passed to [`CachingPolicy::decide`].
pub trait CachingPolicy: Send + Sync {
    /// Scheme name as used in the paper's figures ("MFG-CP", "RR", …).
    fn name(&self) -> &'static str;

    /// Whether this scheme participates in paid peer sharing (the "MFG"
    /// baseline and UDCS/RR/MPC do not).
    fn allows_sharing(&self) -> bool {
        true
    }

    /// Whether [`CachingPolicy::decide`] reads [`DecisionContext::rank`]
    /// (MPC). The engine sorts every EDP's catalog by popularity once per
    /// epoch for such a policy, and not at all for others (default).
    fn reads_rank(&self) -> bool {
        false
    }

    /// Attach a telemetry recorder. Policies that run a solver (MFG-CP)
    /// propagate it so their per-epoch solves emit `solver.*` and `pde.*`
    /// events; the stateless baselines ignore it (default). Recording
    /// never changes decisions — runs stay bit-identical either way.
    fn set_recorder(&mut self, recorder: RecorderHandle) {
        let _ = recorder;
    }

    /// Called once per optimization epoch with the per-content workload
    /// contexts (popularity, urgency, expected requests) so policies that
    /// precompute — MFG-CP solves its mean-field equilibria here — can do
    /// so. Default: no preparation.
    fn prepare_epoch(&mut self, contexts: &[ContentContext]) {
        let _ = contexts;
    }

    /// How the last [`CachingPolicy::prepare_epoch`] seeded its
    /// equilibrium solves (warm / cold / fallback counts, reported on the
    /// `sim.prepare_epoch` span close). Policies that solve nothing
    /// return `None` (default).
    fn epoch_seeds(&self) -> Option<EpochSeeds> {
        None
    }

    /// The mean-field equilibria the last [`CachingPolicy::prepare_epoch`]
    /// produced, as `(content, equilibrium)` pairs — what the
    /// `mfgcp-check` auditor gates for FPK mass drift and policy range
    /// (invariant I4). Baselines that solve nothing return nothing
    /// (default); MFG-CP returns one entry per successfully solved
    /// content.
    fn prepared_equilibria(&self) -> Vec<(usize, &Equilibrium)> {
        Vec::new()
    }

    /// Re-solve one content's equilibrium mid-run, warm-started from the
    /// stale solution and seeded from the live occupancy column (the
    /// engine's `reprice_slot` scenario hook calls this at the configured
    /// slot boundary). Policies that solve nothing return `None`
    /// (default); the result is *not* installed — the engine audits it
    /// and then calls [`CachingPolicy::install_equilibrium`].
    fn reprice(
        &self,
        content: usize,
        ctx: &ContentContext,
        occupancy: &[f64],
    ) -> Option<Equilibrium> {
        let _ = (content, ctx, occupancy);
        None
    }

    /// Hot-swap a freshly solved equilibrium into the policy between
    /// slots. Returns `true` if the swap was installed (the engine then
    /// bumps its reprice generation and emits `sim.reprice.swap`);
    /// baselines that hold no equilibria refuse (default).
    fn install_equilibrium(&mut self, content: usize, equilibrium: Equilibrium) -> bool {
        let _ = (content, equilibrium);
        false
    }

    /// The caching rate for one (EDP, content) pair at one slot.
    ///
    /// Takes `&self` so the per-EDP decision loop can run in parallel;
    /// per-decision randomness comes from the caller's per-EDP RNG.
    fn decide(&self, ctx: &DecisionContext, rng: &mut SimRng) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_sde::seeded_rng;

    struct Constant(f64);
    impl CachingPolicy for Constant {
        fn name(&self) -> &'static str {
            "CONST"
        }
        fn decide(&self, _ctx: &DecisionContext, _rng: &mut SimRng) -> f64 {
            self.0
        }
    }

    fn ctx() -> DecisionContext {
        DecisionContext {
            edp: 0,
            content: 0,
            t_in_epoch: 0.0,
            q: 0.5,
            q_size: 1.0,
            h: 5.0e-5,
            popularity: 0.3,
            urgency_factor: 0.1,
            rank: 0,
            num_contents: 4,
            neighbor_cached_fraction: 0.0,
        }
    }

    #[test]
    fn trait_object_dispatch_works() {
        let mut p: Box<dyn CachingPolicy> = Box::new(Constant(0.7));
        let mut rng = seeded_rng(1);
        assert_eq!(p.decide(&ctx(), &mut rng), 0.7);
        assert_eq!(p.name(), "CONST");
        assert!(p.allows_sharing());
        p.prepare_epoch(&[]);
    }
}
