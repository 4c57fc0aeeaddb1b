//! Runtime invariant auditing and differential oracles for MFG-CP.
//!
//! The repo's performance story is a series of fast paths that replace
//! definitional computations: the O(1) total-minus-own [`SharedSupplyPricer`]
//! replaces the O(M) Eq. (5) sum, a two-smallest tracker replaces a full
//! `min_by` sharer scan, and scoped threads replace the sequential per-EDP
//! loop. Every one of those rewrites is only trustworthy while it stays
//! bit-compatible (or provably close) to the slow form it replaced — and
//! the paper's ε-Nash claim additionally rests on conservation properties
//! of the market itself. This crate enforces both continuously:
//!
//! * [`Auditor`] — a streaming conservation auditor the simulator feeds
//!   once per slot (behind `SimConfig::audit` / `mfgcp simulate --audit`):
//!   - **I1 money conservation** — every sharing fee paid by a buyer lands
//!     as exactly one peer's sharing benefit, per slot and cumulatively;
//!   - **I2 case-tally consistency** — per-slot trade tallies never exceed
//!     the served volume, sharing-disabled schemes never record case 2,
//!     and the end-of-run series tallies equal the per-EDP counters;
//!   - **I3 Eq. (10) reconciliation** — `Σ_slots slot_flow · M` equals the
//!     per-EDP accumulated totals for every term of Eq. (10);
//!   - **I4 solver-side gating** — FPK mass drift `|∫λ(t_n) − 1|` and the
//!     equilibrium policy range `x* ∈ [0, 1]`;
//!   - **I6 handover conservation** — every epoch-boundary re-association
//!     re-partitions the requester population exactly (no request is ever
//!     double-counted across a requester's old and new host EDP) and the
//!     per-EDP (= per-shard) money/case accumulators reconcile exactly
//!     across the migration ([`Auditor::check_handover`], fed with
//!     [`HandoverStats`] the simulator computes at each boundary).
//!
//!   Violations are typed [`AuditError`]s with slot/content coordinates;
//!   the first one also emits a fire-once `audit.violation` telemetry
//!   event through `mfgcp-obs`.
//!
//! * [`oracle`] — **I5 differential oracles** as plain library functions
//!   (each property-tested in this crate): [`oracle::pricer_max_ulps`]
//!   (fast pricer vs the naive Eq. (5) reference) and
//!   [`oracle::check_two_smallest`] (streaming tracker vs a full scan).
//!
//! The crate is std-only and depends only on `mfgcp-core` and
//! `mfgcp-obs`, so the simulator can embed the auditor without a
//! dependency cycle; the simulator-level differential tests live in this
//! crate's `tests/` as dev-dependencies.
//!
//! [`SharedSupplyPricer`]: mfgcp_core::SharedSupplyPricer

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod audit;
mod error;
pub mod oracle;

pub use audit::{
    AuditConfig, AuditReport, AuditStatus, Auditor, HandoverStats, PopulationTotals, SlotFlows,
};
pub use error::AuditError;
pub use oracle::TwoSmallest;
