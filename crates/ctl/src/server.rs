//! The control-plane TCP server: the control protocol as a [`Service`]
//! on the shared [`mfgcp_serve::framed`] server core, with a fixed pool
//! of `WORKERS` threads, one per connection for its lifetime. A
//! connection silent for `IDLE_TIMEOUT` is reaped, unless it is
//! subscribed: then its thread writes the queued `0xC0` event frames of
//! its [`Subscription`] every [`TICK`](mfgcp_serve::framed::TICK) while
//! it waits for the next request, so one thread owns the socket.
//!
//! Backpressure never reaches the simulation: the broadcast sink's
//! bounded queues drop (and count) undrained events, and a peer that
//! stops reading is dropped by the core's write timeout. On shutdown a
//! subscribed connection flushes its queue before its FIN.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mfgcp_core::Params;
use mfgcp_obs::json::Json;
use mfgcp_obs::{BroadcastSink, Subscription, SubscriptionFilter};
use mfgcp_serve::framed::{FramedServer, Next, Service};
use mfgcp_serve::wire::write_frame;
use mfgcp_serve::{ErrorCode, WireError};

use crate::plane::{fork_json, snapshot_json, ControlPlane, ForkError, ForkOutcome};
use crate::protocol::{CtlReply, CtlRequest, MAX_OCCUPANCY};

/// Worker pool size. Control traffic is at most a streaming `mfgcp
/// watch` plus a one-shot `mfgcp ctl` verb at a time; further
/// connections queue until a worker frees up.
const WORKERS: usize = 4;
/// How long a connection that does not stream may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest subscriber queue a client may request.
const MAX_SUBSCRIBER_CAPACITY: u32 = 65_536;

/// A running control-plane server. Attach its [`plane`](Self::plane) to
/// the simulation with `Simulation::set_control`, run the simulation,
/// then call [`shutdown`](Self::shutdown).
pub struct CtlServer {
    server: FramedServer<CtlService>,
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
        let plane = Arc::new(ControlPlane::new(params, sink, hold));
        let service = CtlService { plane };
        let server = FramedServer::bind(addr, "ctl", WORKERS, IDLE_TIMEOUT, service)?;
        Ok(CtlServer { server })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.endpoint().local_addr()
    }

    /// The shared control plane — pass `Arc::clone` of this to
    /// `Simulation::set_control`.
    pub fn plane(&self) -> &Arc<ControlPlane> {
        &self.server.endpoint().service().plane
    }

    /// Number of connections currently being served.
    pub fn connections(&self) -> usize {
        self.server.endpoint().connections()
    }

    /// Stop accepting, flush and close every connection, join every
    /// worker and fork thread. The gate detaches first, so a paused
    /// simulation can never be stranded by an observer going away.
    pub fn shutdown(self) {
        let plane = Arc::clone(self.plane());
        plane.detach();
        self.server.endpoint().shutdown();
        self.server.join();
        plane.sink().close_all();
        plane.join_forks();
    }
}

/// The control protocol; a connection's session is its subscription.
struct CtlService {
    plane: Arc<ControlPlane>,
}

impl Service for CtlService {
    type Session = Option<Subscription>;

    fn open(&self) -> Option<Subscription> {
        None
    }

    fn respond(&self, sub: &mut Option<Subscription>, payload: &[u8]) -> (Vec<u8>, Next) {
        let request = CtlRequest::decode(payload);
        let next = match request {
            Ok(CtlRequest::Shutdown) => Next::Shutdown,
            Ok(CtlRequest::Detach) => Next::Close,
            _ => Next::Continue,
        };
        let reply = request.and_then(|req| handle_request(req, &self.plane, sub));
        let reply = reply.unwrap_or_else(|e| CtlReply::Error {
            code: e.code,
            message: e.message,
        });
        (reply.encode(), next)
    }

    fn streams(&self, sub: &Option<Subscription>) -> bool {
        sub.is_some()
    }

    fn flush_stream(&self, sub: &mut Option<Subscription>, out: &mut TcpStream) -> io::Result<()> {
        if let Some(sub) = sub {
            while let Some(event) = sub.try_recv() {
                write_frame(out, &CtlReply::Event(event.to_json_line()).encode())?;
            }
        }
        Ok(())
    }
}

fn handle_request(
    req: CtlRequest,
    plane: &Arc<ControlPlane>,
    sub: &mut Option<Subscription>,
) -> Result<CtlReply, WireError> {
    let ok = |json: Json| Ok(CtlReply::Ok(json.to_json_string()));
    let flag = |name: &str| ok(Json::Obj(vec![(name.to_string(), Json::Bool(true))]));
    match req {
        CtlRequest::Subscribe { capacity, filters } => {
            if capacity > MAX_SUBSCRIBER_CAPACITY {
                return Err(WireError::new(
                    ErrorCode::Malformed,
                    format!("capacity {capacity} exceeds max {MAX_SUBSCRIBER_CAPACITY}"),
                ));
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
            ok(Json::Obj(vec![
                ("subscribed".to_string(), Json::Bool(true)),
                ("capacity".to_string(), Json::Num(capacity as f64)),
                (
                    "filters".to_string(),
                    Json::Arr(filters.into_iter().map(Json::Str).collect()),
                ),
            ]))
        }
        CtlRequest::Snapshot => ok(plane
            .latest()
            .map_or(Json::Null, |snap| snapshot_json(&snap))),
        CtlRequest::Occupancy { offset, len } => {
            let snap = plane.latest();
            let occupancy = snap.as_ref().map_or(&[][..], |snap| &snap.occupancy);
            let total = occupancy.len() as u32;
            let start = offset.min(total);
            let end = start.saturating_add(len.min(MAX_OCCUPANCY)).min(total);
            Ok(CtlReply::Occupancy {
                total,
                offset: start,
                values: occupancy[start as usize..end as usize].to_vec(),
            })
        }
        CtlRequest::Pause => {
            plane.pause();
            ok(plane.status_json())
        }
        CtlRequest::Step { n } => {
            plane.step(n as u64);
            ok(plane.status_json())
        }
        CtlRequest::Resume => {
            plane.resume();
            ok(plane.status_json())
        }
        CtlRequest::Fork => match plane.fork() {
            Ok(id) => ok(fork_json(id, Some(&ForkOutcome::Running))),
            Err(e) => {
                let code = match e {
                    ForkError::NoSnapshot => ErrorCode::Internal,
                    ForkError::Busy => ErrorCode::Busy,
                };
                Err(WireError::new(code, e.to_string()))
            }
        },
        CtlRequest::ForkStatus { id } => ok(fork_json(id, plane.fork_outcome(id).as_ref())),
        CtlRequest::Status => ok(plane.status_json()),
        CtlRequest::Ping => Ok(CtlReply::Pong),
        CtlRequest::Reprice => match plane.reprice() {
            Ok(json) => ok(json),
            Err(e) => Err(WireError::new(
                ErrorCode::Internal,
                format!("cannot reprice: {e}"),
            )),
        },
        CtlRequest::Shutdown => {
            // Release a paused run before anything else goes away.
            plane.detach();
            flag("shutdown")
        }
        CtlRequest::Detach => flag("detached"),
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::time::Instant;

    use mfgcp_serve::wire::read_frame;
    use mfgcp_serve::MAX_FRAME_LEN;

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

    #[test]
    fn detached_observers_leave_the_registry_empty() {
        let server = spawn_server();
        for _ in 0..20 {
            let mut peer = TcpStream::connect(server.local_addr()).unwrap();
            write_frame(&mut peer, &CtlRequest::Detach.encode().unwrap()).unwrap();
            assert!(matches!(reply_then_eof(&mut peer), CtlReply::Ok(_)));
        }
        // Every detached connection leaves the registry once its worker
        // has closed it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.connections() > 0 {
            assert!(Instant::now() < deadline, "a detached connection lingers");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut fresh, &CtlRequest::Ping.encode().unwrap()).unwrap();
        let pong = read_frame(&mut fresh, MAX_FRAME_LEN).unwrap().unwrap();
        assert!(matches!(CtlReply::decode(&pong), Ok(CtlReply::Pong)));
        drop(fresh);
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
        write_frame(&mut fresh, &CtlRequest::Ping.encode().unwrap()).unwrap();
        let pong = read_frame(&mut fresh, MAX_FRAME_LEN).unwrap().unwrap();
        assert!(matches!(CtlReply::decode(&pong), Ok(CtlReply::Pong)));
        drop(fresh);
        server.shutdown();
    }

    /// A client dropped without a goodbye frees its worker at once:
    /// with a fixed pool, a leaked connection would otherwise hold a
    /// worker until the idle bound.
    #[test]
    fn dropped_clients_free_their_workers() {
        let server = spawn_server();
        let addr = server.local_addr().to_string();
        let timeout = Duration::from_secs(2);
        for _ in 0..WORKERS + 1 {
            let mut client = crate::CtlClient::connect(&addr).unwrap();
            let pong = client.request(&CtlRequest::Ping, timeout);
            assert!(matches!(pong, Ok(CtlReply::Pong)), "{pong:?}");
        }
        server.shutdown();
    }

    /// An occupancy slice never outgrows one frame, however many EDPs
    /// the run has.
    #[test]
    fn an_occupancy_slice_is_clamped_to_one_frame() {
        use mfgcp_sim::EngineControl;

        let server = spawn_server();
        let edps = MAX_OCCUPANCY as usize + 10;
        let snapshot = crate::plane::tests::snapshot(vec![0.5; edps]);
        server.plane().at_slot_boundary(snapshot);
        let mut client = crate::CtlClient::connect(&server.local_addr().to_string()).unwrap();
        let request = CtlRequest::Occupancy {
            offset: 0,
            len: u32::MAX,
        };
        match client.request(&request, Duration::from_secs(10)) {
            Ok(CtlReply::Occupancy { total, values, .. }) => {
                assert_eq!(total as usize, edps);
                assert_eq!(values.len(), MAX_OCCUPANCY as usize);
            }
            other => panic!("expected a clamped occupancy slice, got {other:?}"),
        }
        drop(client);
        server.shutdown();
    }
}
