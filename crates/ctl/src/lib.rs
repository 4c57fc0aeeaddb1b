//! Live observer/control plane for running MFG-CP simulations.
//!
//! `mfgcp simulate --observe ADDR` attaches this crate's [`CtlServer`]
//! to a [`Simulation`](mfgcp_sim::Simulation) through the engine's
//! slot-boundary hook (`mfgcp_sim::EngineControl`). A connected client
//! can then, against the *live* run:
//!
//! * **stream** subscribed telemetry series (`market.slot`,
//!   `net.shard.*`, `solver.*`, `audit.*`, …) as length-prefixed frames,
//!   fed by a bounded drop-counting [`BroadcastSink`](mfgcp_obs::BroadcastSink)
//!   that never blocks the simulation;
//! * **snapshot** the slot-boundary state — per-EDP occupancy, the
//!   Eq. (5) price distribution, cumulative audit status, shard gauges,
//!   and the slot clock — from a cell the engine republishes every slot;
//! * **steer** the run's *schedule*: pause, step `n` slots, resume, and
//!   seed-fork a detached what-if solve that re-enters Alg. 2 from the
//!   live empirical density.
//!
//! The non-negotiable invariant, enforced structurally and by the
//! `observe_parity` integration test: control gates *when* slots
//! execute, never *what* they compute. An observed, paused, stepped, or
//! forked run is bit-identical to a free run.
//!
//! Wire format: the shared `mfgcp_serve::wire` frame layer (LE `u32`
//! length + opcode + body), with control opcodes in the `0x2*`/`0xA*`
//! range — see [`protocol`] for the table and the subscription-filter
//! semantics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod plane;
pub mod protocol;
pub mod server;

pub use client::CtlClient;
pub use plane::{snapshot_json, ControlPlane, ForkError, ForkOutcome, GateStatus};
pub use protocol::{CtlReply, CtlRequest};
pub use server::CtlServer;
