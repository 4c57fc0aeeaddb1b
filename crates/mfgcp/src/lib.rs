//! # MFG-CP — Joint Mobile Edge Caching and Pricing via Mean-Field Games
//!
//! Facade crate for the full reproduction of *"Joint Mobile Edge Caching
//! and Pricing: A Mean-Field Game Approach"* (Xu et al., ICDE 2024).
//! Downstream users depend on this crate and get the entire system:
//!
//! * [`core`] — the paper's contribution: utility model, dynamic pricing,
//!   mean-field estimator, coupled HJB/FPK solvers, iterative
//!   best-response learning (Alg. 1 + Alg. 2);
//! * [`sim`] — the finite-population MEC market simulator and the RR /
//!   MPC / MFG / UDCS baselines of §V-A;
//! * [`sde`] — Brownian motion, Ornstein–Uhlenbeck processes (Eq. (1)),
//!   Euler–Maruyama integration;
//! * [`pde`] — finite-difference grids and the forward/backward parabolic
//!   kernels the HJB/FPK solvers are built on;
//! * [`net`] — geometry, path loss, SINR and Shannon rates (Eq. (2));
//! * [`obs`] — the structured-telemetry layer: recorder handles, JSONL
//!   sinks and the event-schema validator behind `--telemetry`;
//! * [`workload`] — content catalog, Zipf popularity (Def. 1, Eq. (3)),
//!   timeliness (Def. 2), request processes and the trace layer;
//! * [`serve`] — the serving layer: checksummed equilibrium artifacts
//!   (`solve --save-equilibrium`) and the TCP policy server / client
//!   behind `mfgcp serve` and `mfgcp query`;
//! * [`check`] — the economic-conservation auditor and differential
//!   oracles behind `mfgcp simulate --audit`: money conservation,
//!   case-tally consistency, Eq. (10) reconciliation, FPK mass gating,
//!   and bit-level pricer/matching/workspace cross-checks;
//! * [`ctl`] — the live observer/control plane behind
//!   `mfgcp simulate --observe`: stream subscribed telemetry series,
//!   snapshot slot-boundary state, and steer (pause / step / resume /
//!   seed-fork) a running simulation without perturbing its results.
//!
//! ```
//! use mfgcp::prelude::*;
//!
//! let params = Params { time_steps: 12, grid_h: 8, grid_q: 24, ..Params::default() };
//! let eq = MfgSolver::new(params).unwrap().solve().unwrap();
//! assert!(eq.report.converged);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

pub use mfgcp_check as check;
pub use mfgcp_core as core;
pub use mfgcp_ctl as ctl;
pub use mfgcp_net as net;
pub use mfgcp_obs as obs;
pub use mfgcp_pde as pde;
pub use mfgcp_sde as sde;
pub use mfgcp_serve as serve;
pub use mfgcp_sim as sim;
pub use mfgcp_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mfgcp_check::{AuditError, AuditReport, Auditor};
    pub use mfgcp_core::{
        solve_01, solve_fractional, CachePlan, ContentContext, Equilibrium, Framework,
        KnapsackItem, MeanFieldEstimator, MeanFieldSnapshot, MfgSolver, Params, Utility,
        UtilityBreakdown,
    };
    pub use mfgcp_net::{ChannelState, NetworkConfig, Topology};
    pub use mfgcp_obs::{JsonlSink, MemorySink, RecorderHandle};
    pub use mfgcp_sde::{seeded_rng, EulerMaruyama, OrnsteinUhlenbeck, SimRng};
    pub use mfgcp_sim::{
        baselines::{MfgCpPolicy, MostPopularCaching, RandomReplacement, Udcs},
        CachingPolicy, SimConfig, SimReport, Simulation,
    };
    pub use mfgcp_workload::{
        trace::{parse_kaggle_csv, SyntheticYoutubeTrace, Trace},
        Popularity, RequestProcess, Timeliness, TimelinessConfig, Zipf,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_resolve() {
        use crate::prelude::*;
        let p = Params::default();
        p.validate().unwrap();
        let _rng = seeded_rng(1);
        let _z = Zipf::new(5, 1.0).unwrap();
    }
}
