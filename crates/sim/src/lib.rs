//! Finite-population MEC market simulator for the MFG-CP reproduction.
//!
//! The mean-field solver in `mfgcp-core` reasons about a *generic* EDP
//! against the population distribution. This crate closes the loop with an
//! explicit finite population: `M` EDP agents placed in a disc, `J`
//! requesters associated to their nearest EDP, per-link OU channel fading,
//! trace-driven requests, per-slot trading under the finite-population
//! price of Eq. (5), and paid peer sharing with center-assigned matching
//! (Alg. 1 lines 11–14).
//!
//! The [`CachingPolicy`] trait abstracts the placement decision, with five
//! implementations matching §V-A:
//!
//! * [`baselines::MfgCpPolicy`] — the paper's MFG-CP (Alg. 1 + Alg. 2);
//! * [`baselines::MfgCpPolicy::without_sharing`] — "MFG" \[27\]: MFG-CP without peer
//!   sharing;
//! * [`baselines::RandomReplacement`] — "RR": uniform random caching rates;
//! * [`baselines::MostPopularCaching`] — "MPC" \[18\]: cache the currently
//!   most popular contents at full rate;
//! * [`baselines::Udcs`] — "UDCS" \[28\]: popularity-driven, overlap- and
//!   interference-aware cost minimization, no pricing/sharing.
//!
//! Per-EDP decision and state-integration loops run in parallel (matching
//! "for each EDP in parallel" of Alg. 1 line 2) with deterministic
//! per-EDP RNG streams, so results are reproducible regardless of the
//! thread count.
//!
//! Setting [`SimConfig::audit`] (or `mfgcp simulate --audit`) runs the
//! `mfgcp-check` conservation auditor alongside the simulation: money
//! conservation in the sharing market, case-tally consistency, FPK mass
//! gating of every prepared equilibrium, and the end-of-run Eq. (10)
//! reconciliation of the slot series against the per-EDP accumulators.
//! The report lands in [`SimReport::audit`].
//!
//! # Example
//!
//! ```
//! use mfgcp_sim::{baselines::RandomReplacement, SimConfig, Simulation};
//!
//! let mut sim = Simulation::new(SimConfig::small(), Box::new(RandomReplacement)).unwrap();
//! let report = sim.run();
//! assert_eq!(report.scheme, "RR");
//! assert!(report.mean_trading_income() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
mod config;
mod edp;
mod engine;
mod market;
mod metrics;
mod policy;
mod snapshot;
pub mod timing;

pub use config::SimConfig;
pub use edp::Edp;
pub use engine::{SimReport, Simulation};
pub use market::{resolve_trade, MarketOutcome, TradeCase};
pub use metrics::{EdpMetrics, SlotMetrics};
pub use policy::{CachingPolicy, DecisionContext};
pub use snapshot::{EngineControl, Histogram, PreparedEquilibrium, SimSnapshot, SNAPSHOT_BINS};

/// Errors from simulator construction.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid simulator configuration.
    BadConfig {
        /// Name of the offending field.
        name: &'static str,
        /// Constraint description.
        message: String,
    },
    /// An error bubbled up from the core solver.
    Core(mfgcp_core::CoreError),
    /// An error bubbled up from the workload layer.
    Workload(mfgcp_workload::WorkloadError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::BadConfig { name, message } => {
                write!(f, "invalid simulator config `{name}`: {message}")
            }
            SimError::Core(e) => write!(f, "core error: {e}"),
            SimError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<mfgcp_core::CoreError> for SimError {
    fn from(e: mfgcp_core::CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<mfgcp_workload::WorkloadError> for SimError {
    fn from(e: mfgcp_workload::WorkloadError) -> Self {
        SimError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = SimError::BadConfig {
            name: "num_edps",
            message: "must be > 0".into(),
        };
        assert!(e.to_string().contains("num_edps"));
        let e = SimError::Workload(mfgcp_workload::WorkloadError::EmptyCatalog);
        assert!(e.to_string().contains("workload"));
    }
}
