//! Equilibrium artifact store and online policy/pricing server for MFG-CP.
//!
//! The solver side of this workspace computes a mean-field equilibrium
//! `(V*, λ*, x*, p*)` (Alg. 2) — an expensive Picard fixed point — and
//! until now that result died with the process: every simulation, bench or
//! downstream query re-ran the full solve. The paper's own deployment
//! story (§IV) is the opposite: the equilibrium is computed *once* per
//! optimization epoch on the slow time scale, and EDPs then query the
//! equilibrium caching policy and trading price online every slot on the
//! fast time scale. This crate provides that split:
//!
//! * [`artifact`] — a versioned, CRC-protected binary format persisting a
//!   solved [`Equilibrium`](mfgcp_core::Equilibrium) to disk: a
//!   fixed-offset header (magic, format version, build info, the
//!   canonical [`Params`](mfgcp_core::Params) block and its fingerprint,
//!   grid axes, per-step mean-field snapshots, the convergence report and
//!   a plane directory) followed by raw little-endian `f64` planes at
//!   8-byte-aligned offsets, so [`ArtifactStore`]
//!   can serve straight out of a memory mapping without rehydrating —
//!   O(header) load instead of O(grid · T) — with crash-safe atomic
//!   writes and typed rejection of wrong magic / version / fingerprint /
//!   CRC (non-finite values round-trip bit-exactly and are counted in the
//!   header);
//! * [`mmap`] — the std-only memory-mapping shim backing the store: a
//!   read-only `mmap(2)` on unix with an owned 8-byte-aligned fallback,
//!   the sole `unsafe` module in the crate;
//! * [`store`] — the hot-swappable serving slot: an atomically replaced
//!   `Arc<ArtifactStore>` with a monotonic generation counter, so a
//!   running server can take a new artifact without dropping in-flight
//!   replies;
//! * [`protocol`] — the length-prefixed binary frame protocol spoken over
//!   TCP: single and batched `(t, h, q)` queries answered with
//!   `(x*(t,h,q), p*(t), q̄₋(t))`, plus ping / info / graceful-shutdown
//!   control frames, with bounded frame lengths and typed error replies;
//! * [`framed`] — the one framed TCP server core, shared with the
//!   `mfgcp-ctl` control plane: an acceptor feeding a fixed worker pool,
//!   one frame loop with read deadlines and a write timeout, and a
//!   drain-aware graceful shutdown;
//! * [`server`] — the policy protocol as a service on that core, with
//!   `mfgcp-obs` instrumentation under the telemetry-never-perturbs rules;
//! * [`client`] — a small blocking client used by `mfgcp query`, the
//!   `bench_serve` load generator and the end-to-end tests;
//! * [`wire`] — the protocol-agnostic frame plumbing (length-prefixed
//!   read/write, the typed `0xEE` error reply, the bounds-checked body
//!   cursor), shared with `mfgcp-ctl`.
//!
//! Queries are answered by time-step selection plus bilinear interpolation
//! on the *rehydrated* equilibrium — the same
//! [`Equilibrium::policy_at`](mfgcp_core::Equilibrium::policy_at) code
//! path an in-process caller uses — so a served lookup equals the direct
//! one to 0 ULP (the e2e tests assert bit equality over a real socket).
//!
//! Like `mfgcp-obs`, this crate is std-only: the dependency list is
//! closed, so the wire format, CRC and server are hand-rolled on
//! `std::net` + `std::thread`.

#![warn(missing_docs)]
// `unsafe` is denied crate-wide; only the `mmap` module opts back in
// (module-level `allow`) for its four audited syscall/cast sites.
#![deny(unsafe_code)]

pub mod artifact;
pub mod client;
pub mod crc32;
pub mod error;
pub mod framed;
pub mod mmap;
pub mod protocol;
pub mod server;
pub mod store;
pub mod wire;

pub use artifact::{
    load, save, ArtifactHeader, ArtifactStore, LoadedArtifact, FORMAT_VERSION, MAGIC,
};
pub use client::{Client, PolicyPoint, ServerInfo, SlotEval};
pub use error::{ArtifactError, ClientError, FrameReadError, WireError};
pub use mmap::MapMode;
pub use protocol::{ErrorCode, Reply, Request, MAX_BATCH, MAX_FRAME_LEN, MAX_SLOT_BATCH};
pub use server::{PolicyServer, ServeConfig, ServerHandle, SwapHandle};
pub use store::{ArtifactSlot, ServedArtifact};

/// Build identification embedded in artifact headers, the `serve.server`
/// telemetry span and `mfgcp --version`: the crate version plus the git
/// hash baked in at compile time via the `MFGCP_GIT_HASH` environment
/// variable (`option_env!`), or `"unknown"` when built outside CI.
pub fn build_info() -> String {
    format!(
        "mfgcp {} ({})",
        env!("CARGO_PKG_VERSION"),
        option_env!("MFGCP_GIT_HASH").unwrap_or("unknown")
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn build_info_names_the_version() {
        let info = super::build_info();
        assert!(info.starts_with("mfgcp "));
        assert!(info.contains(env!("CARGO_PKG_VERSION")));
    }
}
