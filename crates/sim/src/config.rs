//! Simulator configuration with the paper's §V-A defaults.

use mfgcp_core::Params;
use mfgcp_net::{NetworkConfig, RandomWaypoint};
use mfgcp_workload::TimelinessConfig;

use crate::SimError;

/// Configuration of one finite-population simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of EDPs `M` (paper: 300).
    pub num_edps: usize,
    /// Number of requesters `J`.
    pub num_requesters: usize,
    /// Number of contents `K` (paper: 20).
    pub num_contents: usize,
    /// Optimization epochs to simulate (`σ_max` of Alg. 1).
    pub epochs: usize,
    /// Trading/integration slots per epoch.
    pub slots_per_epoch: usize,
    /// Probability a requester issues a request in one slot.
    pub request_prob: f64,
    /// Zipf steepness `ι` of the initial popularity (Def. 1).
    pub zipf_iota: f64,
    /// Per-content sizes `Q_k` in content units (empty = every content at
    /// `params.q_size`). Enables heterogeneous catalogs: each content gets
    /// its own storage range `[0, Q_k]`, sharing threshold `α·Q_k`, and —
    /// under MFG-CP — its own mean-field equilibrium at that size.
    pub content_sizes: Vec<f64>,
    /// Game/model parameters shared with the mean-field solver.
    pub params: Params,
    /// Wireless network parameters. The channel runs the solver's Eq. (1)
    /// fading law: [`SimConfig::channel_network`] takes the five
    /// `fading_*` fields from `params`, so the values here are not read.
    pub network: NetworkConfig,
    /// Requester mobility (random waypoint); `None` = static requesters.
    /// Moving requesters change their link distances every slot and are
    /// re-associated to their nearest EDP at every epoch boundary (§II-A).
    pub mobility: Option<RandomWaypoint>,
    /// Timeliness generation parameters.
    pub timeliness: TimelinessConfig,
    /// Run the `mfgcp-check` conservation auditor alongside the
    /// simulation: per-slot money conservation and case-tally checks,
    /// FPK mass/policy gating of every prepared equilibrium, and the
    /// end-of-run Eq. (10) reconciliation of the slot series against the
    /// per-EDP accumulators. The auditor reads flows the engine computes
    /// anyway, so enabling it never perturbs the run; the report lands in
    /// `SimReport::audit`.
    pub audit: bool,
    /// Audit sampling stride: the auditor's per-slot checks run on every
    /// `audit_sample`-th slot, while the cumulative I1–I3 accumulators
    /// still see every slot (the end-of-run reconciliation stays exact).
    /// `1` checks every slot; larger strides keep the `mfgcp-check` gate
    /// affordable at production scale. Must be at least 1.
    pub audit_sample: usize,
    /// Master RNG seed (per-EDP streams derive from it).
    pub seed: u64,
    /// Worker threads for the parallel per-EDP phase; `0` = one per
    /// available core. Results are bit-identical for any value — every
    /// random draw comes from the owning EDP's private stream.
    pub worker_threads: usize,
    /// Scenario hook: at this *global* slot boundary (epoch-spanning
    /// index, before the slot runs), re-run Alg. 2 for content 0
    /// warm-started from the stale equilibrium and the live occupancy
    /// column, audit the result and hot-swap it into the policy (the
    /// `sim.reprice.swap` event records the swap). `None` disables
    /// repricing.
    pub reprice_slot: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_edps: 300,
            num_requesters: 900,
            num_contents: 20,
            epochs: 1,
            slots_per_epoch: 40,
            request_prob: 0.3,
            zipf_iota: 0.8,
            content_sizes: Vec::new(),
            params: Params::default(),
            network: NetworkConfig::default(),
            mobility: None,
            timeliness: TimelinessConfig::default(),
            audit: false,
            audit_sample: 1,
            seed: 42,
            worker_threads: 0,
            reprice_slot: None,
        }
    }
}

impl SimConfig {
    /// A small configuration for unit tests and quick examples.
    pub fn small() -> Self {
        Self {
            num_edps: 12,
            num_requesters: 48,
            num_contents: 4,
            epochs: 1,
            slots_per_epoch: 20,
            params: Params {
                time_steps: 16,
                grid_h: 8,
                grid_q: 32,
                num_edps: 12,
                ..Params::default()
            },
            ..Self::default()
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |name: &'static str, message: &str| SimError::BadConfig {
            name,
            message: message.to_string(),
        };
        if self.num_edps < 2 {
            return Err(bad("num_edps", "need at least 2 EDPs"));
        }
        if self.num_requesters == 0 {
            return Err(bad("num_requesters", "need at least 1 requester"));
        }
        if self.num_contents == 0 {
            return Err(bad("num_contents", "need at least 1 content"));
        }
        if self.epochs == 0 {
            return Err(bad("epochs", "need at least 1 epoch"));
        }
        if self.slots_per_epoch == 0 {
            return Err(bad("slots_per_epoch", "need at least 1 slot"));
        }
        if self.audit_sample == 0 {
            return Err(bad(
                "audit_sample",
                "must be at least 1 (audit every slot); use a larger stride to sample",
            ));
        }
        if self.request_prob.is_nan() || self.request_prob <= 0.0 || self.request_prob > 1.0 {
            return Err(bad("request_prob", "must be in (0, 1]"));
        }
        if self.zipf_iota.is_nan() || self.zipf_iota <= 0.0 {
            return Err(bad("zipf_iota", "must be > 0"));
        }
        if !self.content_sizes.is_empty() {
            if self.content_sizes.len() != self.num_contents {
                return Err(bad(
                    "content_sizes",
                    "must be empty or have one entry per content",
                ));
            }
            if self
                .content_sizes
                .iter()
                .any(|&s| s.is_nan() || s <= 0.0 || s > 1.0)
            {
                return Err(bad("content_sizes", "every size must be in (0, 1]"));
            }
        }
        if let Some(slot) = self.reprice_slot {
            if slot >= self.epochs * self.slots_per_epoch {
                return Err(bad(
                    "reprice_slot",
                    "must be a global slot index below epochs * slots_per_epoch",
                ));
            }
        }
        if self.params.num_edps != self.num_edps {
            return Err(bad(
                "params.num_edps",
                "must equal the simulator population (keeps Eq. (5) and the estimator consistent)",
            ));
        }
        self.params.validate()?;
        Ok(())
    }

    /// The channel's network: `network` with its Eq. (1) fading law
    /// (`fading_{rate, mean, noise, min, max}`) taken from the solver's
    /// `params.{varsigma_h, upsilon_h, varrho_h, h_min, h_max}`, so links
    /// are priced on the fading process they see.
    pub fn channel_network(&self) -> NetworkConfig {
        let p = &self.params;
        NetworkConfig {
            fading_rate: p.varsigma_h,
            fading_mean: p.upsilon_h,
            fading_noise: p.varrho_h,
            fading_min: p.h_min,
            fading_max: p.h_max,
            ..self.network.clone()
        }
    }

    /// Slot duration in epoch time units.
    pub fn slot_dt(&self) -> f64 {
        self.params.t_horizon / self.slots_per_epoch as f64
    }

    /// The resolved per-content sizes (uniform `params.q_size` fallback).
    pub fn resolved_sizes(&self) -> Vec<f64> {
        if self.content_sizes.is_empty() {
            vec![self.params.q_size; self.num_contents]
        } else {
            self.content_sizes.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_and_validate() {
        let c = SimConfig {
            params: Params {
                num_edps: 300,
                ..Params::default()
            },
            ..SimConfig::default()
        };
        assert_eq!(c.num_edps, 300);
        assert_eq!(c.num_contents, 20);
        c.validate().unwrap();
    }

    #[test]
    fn small_config_validates() {
        SimConfig::small().validate().unwrap();
    }

    #[test]
    fn population_mismatch_is_caught() {
        let mut c = SimConfig::small();
        c.params.num_edps = 99;
        match c.validate() {
            Err(SimError::BadConfig { name, .. }) => assert_eq!(name, "params.num_edps"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn bad_fields_are_caught() {
        let base = SimConfig::small();
        let mut c = base.clone();
        c.num_edps = 1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.request_prob = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.slots_per_epoch = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_audit_sample_is_rejected_with_a_typed_error() {
        let mut c = SimConfig::small();
        c.audit_sample = 0;
        match c.validate() {
            Err(SimError::BadConfig { name, .. }) => assert_eq!(name, "audit_sample"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn the_channel_runs_the_solver_fading_law() {
        let mut c = SimConfig::small();
        c.params.varsigma_h = 3.0;
        c.params.upsilon_h = 6.0e-5;
        c.params.varrho_h = 2.0e-5;
        c.params.h_min = 2.0e-5;
        c.params.h_max = 9.0e-5;
        c.network.fading_rate = 99.0;
        c.validate().unwrap();
        let net = c.channel_network();
        assert_eq!(
            [
                net.fading_rate,
                net.fading_mean,
                net.fading_noise,
                net.fading_min,
                net.fading_max
            ],
            [3.0, 6.0e-5, 2.0e-5, 2.0e-5, 9.0e-5]
        );
        assert_eq!(net.k_int, c.network.k_int);
        // The defaults already agree, so the channel of a default run is
        // the configured network itself.
        assert_eq!(
            SimConfig::small().channel_network(),
            SimConfig::small().network
        );
    }

    #[test]
    fn slot_dt_divides_the_horizon() {
        let c = SimConfig::small();
        assert!((c.slot_dt() * c.slots_per_epoch as f64 - c.params.t_horizon).abs() < 1e-12);
    }
}
