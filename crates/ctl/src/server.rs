//! The control-plane TCP server.
//!
//! One acceptor thread plus two threads per connection: a *reader* that
//! blocks on frames and forwards decoded requests over a channel, and a
//! *writer* that owns the socket, interleaving request replies with
//! streamed `0xC0` event frames drained from the connection's
//! [`Subscription`]. The writer is the only thread that ever writes, so
//! frames never interleave mid-frame; the reader never writes, so a
//! client pipelining requests while streaming stays coherent.
//!
//! Backpressure never reaches the simulation: the broadcast sink's
//! bounded per-subscriber queues drop (and count) events the writer
//! hasn't drained, and a writer stuck on a full socket simply stops
//! draining its own queue. Shutdown reuses the policy server's drain
//! discipline ([`mfgcp_serve::wire`]): writers flush their queues, then
//! half-close and linger so no delivered frame is ever reset away.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mfgcp_core::Params;
use mfgcp_obs::{BroadcastSink, Subscription, SubscriptionFilter};
use mfgcp_serve::wire::{linger_close, read_frame, write_frame, ConnectionRegistry};
use mfgcp_serve::{ErrorCode, FrameReadError, WireError, MAX_FRAME_LEN};

use crate::plane::{fork_json, join_all, retain_live, snapshot_json, ControlPlane, ForkError};
use crate::protocol::{CtlReply, CtlRequest};

/// How often the writer wakes to drain stream events when idle.
const POLL: Duration = Duration::from_millis(20);
/// Drain window for the half-close handshake on connection teardown.
const LINGER: Duration = Duration::from_millis(500);
/// Write timeout: a peer that stops reading for this long is dropped
/// (its subscription closes; the simulation never notices).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest subscriber queue a client may request.
const MAX_SUBSCRIBER_CAPACITY: u32 = 65_536;

/// A running control-plane server. Attach its [`plane`](Self::plane) to
/// the simulation with `Simulation::set_control`, run the simulation,
/// then call [`shutdown`](Self::shutdown).
pub struct CtlServer {
    plane: Arc<ControlPlane>,
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    registry: Arc<ConnectionRegistry>,
    acceptor: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl CtlServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    /// `params` seeds what-if forks; `sink` is the broadcast sink the
    /// simulation records through; `hold` parks the gate before slot 0 so
    /// a client can attach first.
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any.
    pub fn spawn(
        addr: &str,
        params: Params,
        sink: Arc<BroadcastSink>,
        hold: bool,
    ) -> std::io::Result<CtlServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let plane = Arc::new(ControlPlane::new(params, sink, hold));
        let closing = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(ConnectionRegistry::new());
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let plane = Arc::clone(&plane);
            let closing = Arc::clone(&closing);
            let registry = Arc::clone(&registry);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if closing.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Some(token) = registry.register(&stream) else {
                        continue;
                    };
                    let plane = Arc::clone(&plane);
                    let closing = Arc::clone(&closing);
                    let registry = Arc::clone(&registry);
                    let addr_for_poke = addr;
                    let worker = std::thread::spawn(move || {
                        serve_connection(stream, token, plane, closing, registry, addr_for_poke);
                    });
                    retain_live(&workers, worker);
                }
            })
        };

        Ok(CtlServer {
            plane,
            addr,
            closing,
            registry,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared control plane — pass `Arc::clone` of this to
    /// `Simulation::set_control`.
    pub fn plane(&self) -> &Arc<ControlPlane> {
        &self.plane
    }

    /// Stop accepting, flush and close every connection, join every
    /// worker and fork thread. The gate detaches first, so a paused
    /// simulation can never be stranded by an observer going away.
    pub fn shutdown(mut self) {
        self.plane.detach();
        self.closing.store(true, Ordering::SeqCst);
        // Poke the acceptor out of `incoming()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Writers notice `closing` within one poll tick, drain their
        // queues, half-close, and exit; join them all.
        join_all(&self.workers);
        // Anything still registered (raced the drain) is closed hard.
        self.registry.drain();
        self.plane.sink().close_all();
        self.plane.join_forks();
    }
}

/// What the per-connection writer should do after a handled request.
enum Next {
    /// Keep serving this connection.
    Continue,
    /// Close this connection (detach).
    CloseConnection,
    /// Shut the whole server down.
    CloseServer,
}

fn serve_connection(
    stream: TcpStream,
    token: u64,
    plane: Arc<ControlPlane>,
    closing: Arc<AtomicBool>,
    registry: Arc<ConnectionRegistry>,
    poke_addr: SocketAddr,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let (tx, rx) = mpsc::channel::<Result<CtlRequest, WireError>>();
    let reader = {
        let Ok(mut rstream) = stream.try_clone() else {
            registry.deregister(token);
            return;
        };
        std::thread::spawn(move || loop {
            let decoded = match read_frame(&mut rstream, MAX_FRAME_LEN) {
                Ok(Some(payload)) => CtlRequest::decode(&payload),
                // The unread payload would desynchronize the stream: the
                // writer replies with the typed error, then closes.
                Err(FrameReadError::TooLong { declared, max }) => Err(WireError::new(
                    ErrorCode::FrameTooLong,
                    format!("frame length {declared} exceeds maximum {max}"),
                )),
                // Clean EOF or another framing-level failure: the
                // connection is done reading either way.
                _ => break,
            };
            let too_long = matches!(&decoded, Err(e) if e.code == ErrorCode::FrameTooLong);
            if tx.send(decoded).is_err() || too_long {
                break;
            }
        })
    };

    let mut stream = stream;
    let mut sub: Option<Subscription> = None;
    let mut server_shutdown = false;
    loop {
        if closing.load(Ordering::SeqCst) {
            break;
        }
        if !drain_events(&mut stream, &sub) {
            break;
        }
        match rx.recv_timeout(POLL) {
            Ok(decoded) => {
                let (reply, next) = match decoded {
                    Ok(req) => handle_request(req, &plane, &mut sub),
                    Err(e) => (
                        CtlReply::Error {
                            code: e.code,
                            message: e.message,
                        },
                        if e.code == ErrorCode::FrameTooLong {
                            Next::CloseConnection
                        } else {
                            Next::Continue
                        },
                    ),
                };
                if write_frame(&mut stream, &reply.encode()).is_err() {
                    break;
                }
                match next {
                    Next::Continue => {}
                    Next::CloseConnection => break,
                    Next::CloseServer => {
                        server_shutdown = true;
                        break;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Flush whatever the subscription still holds, then half-close so
    // every delivered frame survives the teardown.
    let _ = drain_events(&mut stream, &sub);
    let _ = stream.flush();
    linger_close(&stream, LINGER);
    // Unblock the reader thread if the peer is holding the (already
    // FIN'd and drained) connection open.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    registry.deregister(token);
    drop(sub);
    let _ = reader.join();
    if server_shutdown {
        plane.detach();
        closing.store(true, Ordering::SeqCst);
        // Poke the acceptor so it observes `closing`.
        let _ = TcpStream::connect(poke_addr);
    }
}

/// Write every queued stream event as an `0xC0` frame. Returns `false`
/// on a write failure (connection considered dead).
fn drain_events(stream: &mut TcpStream, sub: &Option<Subscription>) -> bool {
    let Some(sub) = sub else { return true };
    while let Some(event) = sub.try_recv() {
        let frame = CtlReply::Event(event.to_json_line()).encode();
        if write_frame(stream, &frame).is_err() {
            return false;
        }
    }
    true
}

fn handle_request(
    req: CtlRequest,
    plane: &Arc<ControlPlane>,
    sub: &mut Option<Subscription>,
) -> (CtlReply, Next) {
    let ok = |json: mfgcp_obs::json::Json| CtlReply::Ok(json.to_json_string());
    match req {
        CtlRequest::Subscribe { capacity, filters } => {
            if capacity > MAX_SUBSCRIBER_CAPACITY {
                return (
                    CtlReply::Error {
                        code: ErrorCode::Malformed,
                        message: format!(
                            "capacity {capacity} exceeds max {MAX_SUBSCRIBER_CAPACITY}"
                        ),
                    },
                    Next::Continue,
                );
            }
            // Re-subscribing replaces (and closes) the previous stream.
            if let Some(old) = sub.take() {
                old.close();
            }
            let filter = if filters.is_empty() {
                SubscriptionFilter::all()
            } else {
                SubscriptionFilter::new(filters.clone())
            };
            *sub = Some(plane.sink().subscribe(capacity as usize, filter));
            (
                ok(mfgcp_obs::json::Json::Obj(vec![
                    ("subscribed".to_string(), mfgcp_obs::json::Json::Bool(true)),
                    (
                        "capacity".to_string(),
                        mfgcp_obs::json::Json::Num(capacity as f64),
                    ),
                    (
                        "filters".to_string(),
                        mfgcp_obs::json::Json::Arr(
                            filters
                                .iter()
                                .map(|f| mfgcp_obs::json::Json::Str(f.clone()))
                                .collect(),
                        ),
                    ),
                ])),
                Next::Continue,
            )
        }
        CtlRequest::Snapshot => match plane.latest() {
            Some(snap) => (ok(snapshot_json(&snap)), Next::Continue),
            None => (ok(mfgcp_obs::json::Json::Null), Next::Continue),
        },
        CtlRequest::Occupancy { offset, len } => {
            let (total, offset, values) = match plane.latest() {
                Some(snap) => {
                    let total = snap.occupancy.len() as u32;
                    let start = offset.min(total);
                    let end = start.saturating_add(len).min(total);
                    (
                        total,
                        start,
                        snap.occupancy[start as usize..end as usize].to_vec(),
                    )
                }
                None => (0, 0, Vec::new()),
            };
            (
                CtlReply::Occupancy {
                    total,
                    offset,
                    values,
                },
                Next::Continue,
            )
        }
        CtlRequest::Pause => {
            plane.pause();
            (ok(plane.status_json()), Next::Continue)
        }
        CtlRequest::Step { n } => {
            plane.step(n as u64);
            (ok(plane.status_json()), Next::Continue)
        }
        CtlRequest::Resume => {
            plane.resume();
            (ok(plane.status_json()), Next::Continue)
        }
        CtlRequest::Fork => match plane.fork() {
            Ok(id) => (
                ok(fork_json(id, Some(&crate::plane::ForkOutcome::Running))),
                Next::Continue,
            ),
            Err(e) => (
                CtlReply::Error {
                    code: match e {
                        ForkError::NoSnapshot => ErrorCode::Internal,
                        ForkError::Busy => ErrorCode::Busy,
                    },
                    message: e.to_string(),
                },
                Next::Continue,
            ),
        },
        CtlRequest::ForkStatus { id } => (
            ok(fork_json(id, plane.fork_outcome(id).as_ref())),
            Next::Continue,
        ),
        CtlRequest::Status => (ok(plane.status_json()), Next::Continue),
        CtlRequest::Ping => (CtlReply::Pong, Next::Continue),
        CtlRequest::Reprice => match plane.reprice() {
            Ok(json) => (ok(json), Next::Continue),
            Err(e) => (
                CtlReply::Error {
                    code: ErrorCode::Internal,
                    message: format!("cannot reprice: {e}"),
                },
                Next::Continue,
            ),
        },
        CtlRequest::Shutdown => (
            ok(mfgcp_obs::json::Json::Obj(vec![(
                "shutdown".to_string(),
                mfgcp_obs::json::Json::Bool(true),
            )])),
            Next::CloseServer,
        ),
        CtlRequest::Detach => (
            ok(mfgcp_obs::json::Json::Obj(vec![(
                "detached".to_string(),
                mfgcp_obs::json::Json::Bool(true),
            )])),
            Next::CloseConnection,
        ),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    fn spawn_server() -> CtlServer {
        let params = mfgcp_sim::SimConfig::small().params;
        CtlServer::spawn("127.0.0.1:0", params, Arc::new(BroadcastSink::new()), false).unwrap()
    }

    /// One reply frame, after which the server must close the connection.
    fn reply_then_eof(peer: &mut TcpStream) -> CtlReply {
        let payload = read_frame(peer, MAX_FRAME_LEN).unwrap().expect("reply");
        let eof = read_frame(peer, MAX_FRAME_LEN).expect("eof");
        assert!(eof.is_none(), "server should close after the reply");
        CtlReply::decode(&payload).expect("decodable reply")
    }

    fn all_finished(handles: &Mutex<Vec<JoinHandle<()>>>) -> bool {
        handles.lock().unwrap().iter().all(JoinHandle::is_finished)
    }

    #[test]
    fn detached_observers_leave_at_most_one_worker_handle() {
        let server = spawn_server();
        for cycle in 0..20 {
            let mut peer = TcpStream::connect(server.local_addr()).unwrap();
            write_frame(&mut peer, &CtlRequest::Detach.encode()).unwrap();
            assert!(matches!(reply_then_eof(&mut peer), CtlReply::Ok(_)));
            drop(peer);
            // The peer has closed; wait for its worker to exit, so the
            // next accept finds only finished handles to reap.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !server.registry.is_empty() || !all_finished(&server.workers) {
                assert!(Instant::now() < deadline, "cycle {cycle}: worker hangs");
                std::thread::sleep(Duration::from_millis(2));
            }
            let retained = server.workers.lock().unwrap().len();
            assert!(retained <= 1, "cycle {cycle}: {retained} handles retained");
        }
        server.shutdown();
    }

    #[test]
    fn oversize_length_prefix_gets_a_typed_reply_then_close() {
        let server = spawn_server();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match reply_then_eof(&mut raw) {
            CtlReply::Error {
                code: ErrorCode::FrameTooLong,
                ..
            } => {}
            other => panic!("expected FrameTooLong error, got {other:?}"),
        }
        // The server stays up for well-formed peers.
        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut fresh, &CtlRequest::Ping.encode()).unwrap();
        let pong = read_frame(&mut fresh, MAX_FRAME_LEN).unwrap().unwrap();
        assert!(matches!(CtlReply::decode(&pong), Ok(CtlReply::Pong)));
        drop(fresh);
        server.shutdown();
    }
}
