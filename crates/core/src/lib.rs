//! # MFG-CP: Joint Mobile Edge Caching and Pricing via Mean-Field Games
//!
//! A from-scratch implementation of *"Joint Mobile Edge Caching and Pricing:
//! A Mean-Field Game Approach"* (Xu et al., ICDE 2024).
//!
//! Edge Data Providers (EDPs) cache contents, sell them to requesters at a
//! supply-dependent price, and trade cached data with peer EDPs. The
//! competitive content-placement problem is a non-cooperative stochastic
//! differential game; this crate implements the paper's mean-field reduction:
//!
//! * the utility model of §III-A (`utility`): trading income (Eq. (6)),
//!   sharing benefit (Eq. (7)), placement cost (Eq. (8)), staleness cost
//!   (Eq. (9)) and sharing cost;
//! * the supply–demand pricing rule of Eq. (5) and its mean-field limit
//!   Eq. (17) (`pricing`);
//! * the mean-field estimator of §IV-B(1) (`estimator`): `p_k(t)`,
//!   `q̄_{−,k}(t)` (Eq. (18)), `Δq̄(t)` and the average sharing benefit;
//! * the HJB solver of Eq. (20) with the closed-form optimal control of
//!   Thm. 1 (`hjb`), and the FPK solver of Eq. (15) (`fpk`);
//! * the iterative best-response learning scheme of Alg. 2 (`mfg`) with
//!   Picard relaxation implementing the contraction of Thm. 2;
//! * the capacity-constrained knapsack extension of §IV-C's Remark
//!   (`knapsack`);
//! * the per-epoch framework loop of Alg. 1 (`framework`): the one epoch
//!   driver, fanning the per-content solves out over worker threads, and
//!   the occupancy-seeded mid-run reprice.
//!
//! ## Unit conventions
//!
//! The paper quotes parameters in mixed units (bytes, MB, money per byte)
//! that do not cohere dimensionally as printed (e.g. Eq. (5) with
//! `Q_k = 10⁸ B` and `η₁ ≈ 10⁻⁷` would drive prices negative instantly).
//! We therefore work in a normalized unit system that preserves every
//! well-defined *ratio* in the paper — see [`Params`] — and record the
//! mapping in `EXPERIMENTS.md`:
//!
//! * storage state `q ∈ [0, 1]`: fraction of the 100 MB capacity remaining;
//! * content size `Q_k` in *content units* (1.0 ≡ 100 MB);
//! * money in currency units (cu) with `p̂ = 5`, `η₁ ∈ [1, 4]` so that the
//!   paper's `η₁/p̂ ∈ [0.2, 0.8]` price-depression range is exact;
//! * time in optimization epochs (`T = 1`), rates in content units per epoch.
//!
//! ## Quickstart
//!
//! ```
//! use mfgcp_core::{MfgSolver, Params};
//!
//! let params = Params::default();
//! let solver = MfgSolver::new(params).unwrap();
//! let eq = solver.solve().unwrap();
//! assert!(eq.report.converged);
//! // The equilibrium policy is a caching rate in [0, 1] for every
//! // (time, channel, storage) state.
//! let x = eq.policy_at(0.5, 5.0e-5, 0.7);
//! assert!((0.0..=1.0).contains(&x));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cases;
mod diag;
mod estimator;
mod fpk;
mod framework;
mod hjb;
mod knapsack;
mod mfg;
mod params;
mod pricing;
mod rate;
mod sigmoid;
mod utility;

pub use cases::CaseProbabilities;
pub use diag::ConvergenceReport;
pub use estimator::{MeanFieldEstimator, MeanFieldSnapshot};
pub use framework::{seed_density_from_occupancy, EpochSeeds, Framework};
pub use knapsack::{solve_01, solve_fractional, CachePlan, KnapsackItem};
pub use mfg::{Equilibrium, MfgSolver, PolicyLookup, PreparedSlot, SolveMethod};
pub use params::{CoreError, Params};
pub use pricing::{finite_population_price, mean_field_price, SharedSupplyPricer};
pub use rate::RateModel;
pub use sigmoid::Sigmoid;
pub use utility::{ContentContext, Utility, UtilityBreakdown};
