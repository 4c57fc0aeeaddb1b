//! Multi-threaded TCP policy server over an open artifact store.
//!
//! The server answers frame-protocol queries straight out of an
//! [`ArtifactStore`] — time-step selection plus bilinear interpolation
//! on borrowed payload planes, the same [`Field2dView`] kernel
//! [`Equilibrium::policy_at`] / [`Equilibrium::price_at`] /
//! [`Equilibrium::q_bar_at`] run on an in-process equilibrium, so served
//! answers are bit-identical to direct lookups without rehydrating
//! anything.
//!
//! [`Field2dView`]: mfgcp_pde::Field2dView
//!
//! # Hot swap
//!
//! The served artifact lives in an [`ArtifactSlot`]: workers grab the
//! current [`ServedArtifact`](crate::store::ServedArtifact) once per
//! frame and answer the whole frame
//! from that snapshot, so a concurrent `SwapArtifact` request (or
//! [`SwapHandle::swap_from_path`], which backs `mfgcp serve
//! --watch-artifact`) replaces the slot atomically — in-flight replies
//! finish on the generation they started with and no reply ever mixes
//! two generations. `Info` replies and the `serve.swap` telemetry
//! counter expose the generation so clients can observe the cutover.
//! A swap fails closed, through the same gate `mfgcp serve` start-up
//! uses ([`ArtifactStore::open_for_serving`]): an unreadable or corrupt
//! artifact, or one whose solve stopped unconverged
//! ([`ArtifactError::NotConverged`]), is refused with
//! [`ErrorCode::Refused`] and a `serve.swap_reject` counter (field
//! `reason`: `io`, `corrupt` or `not_converged`), and the current
//! generation keeps serving.
//!
//! # Architecture
//!
//! The policy protocol is a [`Service`] on the shared
//! [`framed`](crate::framed) core, which owns the acceptor, the fixed
//! pool of [`ServeConfig::threads`] workers (one connection each, for
//! its lifetime), the per-frame read deadlines, the write timeout, the
//! typed oversize reply and the drain on shutdown. A bad payload earns
//! a typed `Error` reply on a still-open connection.
//!
//! # Telemetry
//!
//! Under the workspace's telemetry-never-perturbs rules the server emits
//! exactly one `serve.server` span for its whole lifetime (opened at
//! bind, closed at join with request totals); workers emit per-request
//! `serve.request` counters (fields: `op`, `batch`, `ok`), a
//! `serve.request_nanos` latency gauge (answer plus write), and
//! `serve.frame_error` counters — kinds that carry no span linkage, so
//! strict span nesting holds for any thread interleaving.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mfgcp_core::Equilibrium;
use mfgcp_obs::{RecorderHandle, Span, Value};

use crate::artifact::{self, ArtifactStore};
use crate::error::{ArtifactError, WireError};
use crate::framed::{Endpoint, FramedServer, Next, Service};
use crate::protocol::{ErrorCode, Reply, Request};
use crate::store::ArtifactSlot;

/// Tuning knobs for [`PolicyServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker thread count; `0` picks a default from available
    /// parallelism (oversubscribed — see `resolved_threads`). Each
    /// worker owns one connection at a time, so this also bounds the
    /// number of concurrently served clients.
    pub threads: usize,
    /// Per-connection read timeout; an idle client is disconnected after
    /// this long without a complete frame.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            read_timeout: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    /// Workers own a connection for its lifetime and block on reads, so
    /// the default oversubscribes the cores: 2× parallelism, at least 4
    /// and at most 32.
    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        (cores * 2).clamp(4, 32)
    }
}

/// The policy server entry point; see the module docs for architecture.
#[derive(Debug)]
pub struct PolicyServer;

impl PolicyServer {
    /// Binds `addr` and serves an in-process [`Equilibrium`]: the
    /// equilibrium is encoded into the artifact image and opened as an
    /// owned [`ArtifactStore`], so this path and [`start_store`] answer
    /// queries through the identical store code.
    ///
    /// [`start_store`]: PolicyServer::start_store
    pub fn start(
        addr: impl ToSocketAddrs,
        equilibrium: Arc<Equilibrium>,
        config: ServeConfig,
        recorder: RecorderHandle,
    ) -> io::Result<ServerHandle> {
        let bytes = artifact::to_bytes(&equilibrium, &crate::build_info());
        let store = ArtifactStore::open_bytes(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Self::start_store(addr, store, config, recorder)
    }

    /// Binds `addr`, spawns the acceptor and worker pool, and returns a
    /// handle. Bind to port 0 to let the OS choose (the bound address is
    /// available via [`ServerHandle::local_addr`]). The store — usually
    /// memory-mapped via [`ArtifactStore::open`] — serves as generation
    /// 1; hot swaps bump the generation.
    pub fn start_store(
        addr: impl ToSocketAddrs,
        store: ArtifactStore,
        config: ServeConfig,
        recorder: RecorderHandle,
    ) -> io::Result<ServerHandle> {
        let threads = config.resolved_threads();
        let header = store.header();
        let (fingerprint, time_steps) = (header.fingerprint, header.time_steps);
        let service = PolicyService {
            artifact: ArtifactSlot::new(store),
            recorder,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            build_info: crate::build_info(),
        };
        let server = FramedServer::bind(addr, "serve", threads, config.read_timeout, service)?;
        let service = server.endpoint().service();
        let span = service.recorder.span_with(
            "serve.server",
            &[
                ("threads", Value::from(threads)),
                ("fingerprint", Value::from(fingerprint)),
                ("time_steps", Value::from(time_steps)),
                ("build_info", Value::from(service.build_info.clone())),
            ],
        );
        Ok(ServerHandle {
            server,
            span: Some(span),
        })
    }
}

/// Handle to a running server: address, shutdown trigger, thread reaper.
pub struct ServerHandle {
    server: FramedServer<PolicyService>,
    span: Option<Span>,
}

impl ServerHandle {
    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.endpoint().local_addr()
    }

    /// Whether the server is still accepting connections.
    pub fn is_running(&self) -> bool {
        self.server.endpoint().is_running()
    }

    /// Number of connections currently being served.
    pub fn connections(&self) -> usize {
        self.server.endpoint().connections()
    }

    /// Initiates a graceful shutdown without blocking: stop accepting,
    /// let workers drain. Idempotent; also triggered by a `Shutdown`
    /// frame from any client.
    pub fn shutdown(&self) {
        self.server.endpoint().shutdown();
    }

    /// A detachable handle for swapping the served artifact from another
    /// thread (the `--watch-artifact` poller, tests).
    pub fn swap_handle(&self) -> SwapHandle {
        SwapHandle {
            endpoint: Arc::clone(self.server.endpoint()),
        }
    }

    /// Blocks until the server has stopped, then closes the telemetry
    /// span with request totals. Without [`ServerHandle::shutdown`] or a
    /// client's `Shutdown` frame this waits forever, as `mfgcp serve`
    /// wants.
    pub fn join(self) {
        let endpoint = Arc::clone(self.server.endpoint());
        self.server.join();
        let service = endpoint.service();
        if let Some(span) = self.span {
            span.close(&[
                (
                    "requests_total",
                    Value::from(service.requests.load(Ordering::SeqCst)),
                ),
                (
                    "errors_total",
                    Value::from(service.errors.load(Ordering::SeqCst)),
                ),
            ]);
        }
        service.recorder.flush();
    }
}

/// Clonable-by-`Arc` handle that swaps the served artifact out-of-band
/// (without a client connection) — the engine behind `mfgcp serve
/// --watch-artifact`.
#[derive(Debug)]
pub struct SwapHandle {
    endpoint: Arc<Endpoint<PolicyService>>,
}

impl SwapHandle {
    /// Opens, fully verifies and installs the artifact at `path`;
    /// returns the new serving generation. An artifact whose solve did
    /// not converge is refused with [`ArtifactError::NotConverged`]. On
    /// error the slot is left unchanged.
    pub fn swap_from_path(&self, path: &Path) -> Result<u64, ArtifactError> {
        let swapped = self.endpoint.service().swap_from_path(path);
        swapped.map(|(generation, _)| generation)
    }

    /// The current serving generation.
    pub fn generation(&self) -> u64 {
        self.endpoint.service().artifact.generation()
    }

    /// Whether the server is still accepting connections.
    pub fn is_running(&self) -> bool {
        self.endpoint.is_running()
    }
}

/// The policy protocol: answers each frame from the served artifact and
/// records per-request telemetry.
#[derive(Debug)]
struct PolicyService {
    artifact: ArtifactSlot,
    recorder: RecorderHandle,
    requests: AtomicU64,
    errors: AtomicU64,
    build_info: String,
}

impl Service for PolicyService {
    /// The telemetry of the connection's latest frame: `op`, batch size
    /// and success.
    type Session = (&'static str, usize, bool);

    fn open(&self) -> Self::Session {
        ("", 0, false)
    }

    fn respond(&self, last: &mut Self::Session, payload: &[u8]) -> (Vec<u8>, Next) {
        let (reply, op, batch) = self.answer(payload);
        *last = (op, batch, !matches!(reply, Reply::Error { .. }));
        let next = if matches!(reply, Reply::ShutdownAck) {
            Next::Shutdown
        } else {
            Next::Continue
        };
        (reply.encode(), next)
    }

    fn replied(&self, &mut (op, batch, ok): &mut Self::Session, took: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if !self.recorder.enabled() {
            return;
        }
        let op = Value::from(op);
        let fields = [
            ("op", op.clone()),
            ("batch", Value::from(batch)),
            ("ok", Value::from(ok)),
        ];
        self.recorder.counter("serve.request", 1, &fields);
        self.recorder
            .gauge("serve.request_nanos", took.as_nanos() as f64, &[("op", op)]);
    }

    fn frame_error(&self, kind: &'static str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if self.recorder.enabled() {
            self.recorder
                .counter("serve.frame_error", 1, &[("kind", Value::from(kind))]);
        }
    }
}

impl PolicyService {
    /// Computes the reply for one frame payload; returns the reply plus the
    /// telemetry label and batch size.
    ///
    /// The served artifact is snapshotted **once** here, so every answer in
    /// the frame — including each point of a batch — comes from a single
    /// generation even if a swap lands mid-frame.
    fn answer(&self, payload: &[u8]) -> (Reply, &'static str, usize) {
        let served = self.artifact.current();
        let store = &served.store;
        match Request::decode(payload) {
            Err(WireError { code, message }) => (Reply::Error { code, message }, "malformed", 0),
            Ok(Request::Query { t, h, q }) => (
                Reply::Policy {
                    x: store.policy_at(t, h, q),
                    price: store.price_at(t),
                    q_bar: store.q_bar_at(t),
                },
                "query",
                1,
            ),
            Ok(Request::QueryBatch(points)) => {
                let answer = |&[t, h, q]: &[f64; 3]| {
                    [
                        store.policy_at(t, h, q),
                        store.price_at(t),
                        store.q_bar_at(t),
                    ]
                };
                let evaluable = |p: &[f64; 3]| p.iter().all(|v| v.is_finite());
                let reply = if points.iter().all(evaluable) {
                    Reply::PolicyBatch(points.iter().map(answer).collect())
                } else {
                    // Mixed result: the good points are still answered, each
                    // bad one carries its own typed code instead of failing
                    // the whole batch.
                    Reply::PolicyBatchMixed(
                        points
                            .iter()
                            .map(|p| {
                                evaluable(p)
                                    .then(|| answer(p))
                                    .ok_or(ErrorCode::PointOutOfDomain)
                            })
                            .collect(),
                    )
                };
                (reply, "batch", points.len())
            }
            Ok(Request::EvalSlotBatch { t, pairs }) => {
                let slot = store.prepare_slot(t);
                let xs = pairs.iter().map(|&[h, q]| slot.policy.interpolate(h, q));
                let (price, q_bar, xs) = (slot.price, slot.q_bar, xs.collect());
                (
                    Reply::SlotBatch { price, q_bar, xs },
                    "slot_batch",
                    pairs.len(),
                )
            }
            Ok(Request::SwapArtifact(path)) => {
                let reply = match self.swap_from_path(Path::new(&path)) {
                    Ok((generation, fingerprint)) => Reply::SwapAck {
                        generation,
                        fingerprint,
                    },
                    Err(e) => Reply::Error {
                        code: ErrorCode::Refused,
                        message: format!("artifact swap refused: {e}"),
                    },
                };
                (reply, "swap", 0)
            }
            Ok(Request::Ping) => (Reply::Pong, "ping", 0),
            Ok(Request::Info) => {
                let header = store.header();
                let info = Reply::Info {
                    fingerprint: header.fingerprint,
                    time_steps: header.time_steps as u64,
                    grid_h: header.grid_h as u64,
                    grid_q: header.grid_q as u64,
                    generation: served.generation,
                    build_info: self.build_info.clone(),
                };
                (info, "info", 0)
            }
            Ok(Request::Shutdown) => (Reply::ShutdownAck, "shutdown", 0),
        }
    }

    /// Opens the artifact at `path` through the fail-closed serving gate
    /// ([`ArtifactStore::open_for_serving`]) and installs it, then emits
    /// the `serve.swap` counter (generation + fingerprint fields, no span
    /// linkage). A refusal leaves the slot untouched and emits a
    /// `serve.swap_reject` counter naming the reason, so a reprice that
    /// hit its iteration cap never replaces a served equilibrium.
    fn swap_from_path(&self, path: &Path) -> Result<(u64, u64), ArtifactError> {
        let store = match ArtifactStore::open_for_serving(path) {
            Ok(store) => store,
            Err(e) => {
                if self.recorder.enabled() {
                    let reason = match e {
                        ArtifactError::Io(_) => "io",
                        ArtifactError::NotConverged { .. } => "not_converged",
                        _ => "corrupt",
                    };
                    self.recorder.counter(
                        "serve.swap_reject",
                        1,
                        &[("reason", Value::from(reason))],
                    );
                }
                return Err(e);
            }
        };
        let fingerprint = store.header().fingerprint;
        let generation = self.artifact.swap(store);
        if self.recorder.enabled() {
            self.recorder.counter(
                "serve.swap",
                1,
                &[
                    ("generation", Value::from(generation)),
                    ("fingerprint", Value::from(fingerprint)),
                ],
            );
        }
        Ok((generation, fingerprint))
    }
}
