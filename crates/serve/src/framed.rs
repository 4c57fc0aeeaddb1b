//! The one framed TCP server core behind both endpoints, the policy
//! server and the `mfgcp-ctl` control plane: one acceptor feeding a
//! fixed worker pool, one frame loop per connection, one drain.
//! A [`Service`] supplies only what differs: how to open a session, how
//! to answer a frame, and, for a streaming session, how to write its queue.
//!
//! Frames are read under the per-frame deadlines of [`read_frame_timed`]
//! and written under a [`WRITE_TIMEOUT`]; a streaming session is exempt
//! from the idle bound and flushes its queue every [`TICK`] while it
//! waits. An oversized prefix earns a typed `0xEE FrameTooLong` reply and
//! a close. Shutdown pokes the blocking `accept` awake and drains the
//! registry: idle connections close at once, one mid-reply or streaming
//! finishes writing and closes with a FIN after its last frame
//! ([`linger_close`]), so a peer never sees a cut frame.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::error::FrameReadError;
use crate::protocol::ErrorCode;
use crate::wire::{
    encode_error, linger_close, read_frame_timed, write_frame, ConnectionRegistry, MAX_FRAME_LEN,
};

/// Per-connection write timeout.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a closing connection waits for the peer's FIN (see
/// [`linger_close`]).
pub const LINGER: Duration = Duration::from_secs(1);

/// How often a waiting streaming session writes its queued frames.
pub const TICK: Duration = Duration::from_millis(20);

/// What the frame loop does after writing a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Keep serving this connection.
    Continue,
    /// Close this connection gracefully.
    Close,
    /// Close this connection and shut the whole server down.
    Shutdown,
}

/// One endpoint's protocol, served by a [`FramedServer`].
pub trait Service: Send + Sync + 'static {
    /// Per-connection state.
    type Session: Send;

    /// Opens the session of a newly accepted connection.
    fn open(&self) -> Self::Session;

    /// Answers one frame payload: the encoded reply and what to do next.
    fn respond(&self, session: &mut Self::Session, payload: &[u8]) -> (Vec<u8>, Next);

    /// Called after the reply's write, with the time since `respond` began.
    fn replied(&self, _session: &mut Self::Session, _took: Duration) {}

    /// Counts an unreadable frame: `too_long`, `truncated` or `io`.
    fn frame_error(&self, _kind: &'static str) {}

    /// Whether the session streams frames of its own between requests.
    fn streams(&self, _session: &Self::Session) -> bool {
        false
    }

    /// Writes the session's queued stream frames.
    fn flush_stream(&self, _session: &mut Self::Session, _out: &mut TcpStream) -> io::Result<()> {
        Ok(())
    }
}

/// The shared half of a [`FramedServer`]: service, running flag, registry.
#[derive(Debug)]
pub struct Endpoint<S> {
    service: S,
    local_addr: SocketAddr,
    idle: Duration,
    running: AtomicBool,
    connections: ConnectionRegistry,
}

impl<S: Service> Endpoint<S> {
    /// The endpoint's service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the server is still accepting connections.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Number of connections currently being served.
    pub fn connections(&self) -> usize {
        self.connections.len()
    }

    /// Starts a graceful shutdown without blocking. Idempotent.
    pub fn shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
            self.connections.drain();
        }
    }
}

/// A bound listener with its acceptor and worker threads.
pub struct FramedServer<S: Service> {
    endpoint: Arc<Endpoint<S>>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> FramedServer<S> {
    /// Binds `addr` and starts `{name}-accept` plus `workers` threads
    /// `{name}-worker-{i}`, each serving one connection at a time; `idle`
    /// bounds the wait for each frame of a session that does not stream.
    pub fn bind(
        addr: impl ToSocketAddrs,
        name: &str,
        workers: usize,
        idle: Duration,
        service: S,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Arc::new(Endpoint {
            service,
            local_addr: listener.local_addr()?,
            idle,
            running: AtomicBool::new(true),
            connections: ConnectionRegistry::new(),
        });
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let (endpoint, rx) = (Arc::clone(&endpoint), Arc::clone(&rx));
            threads.push(
                thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || worker_loop(&endpoint, &rx))?,
            );
        }
        let acceptor = Arc::clone(&endpoint);
        threads.push(
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&acceptor, &listener, &tx))?,
        );
        Ok(FramedServer { endpoint, threads })
    }

    /// The shared half.
    pub fn endpoint(&self) -> &Arc<Endpoint<S>> {
        &self.endpoint
    }

    /// Blocks until every thread has exited (after a shutdown).
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

fn accept_loop<S: Service>(
    endpoint: &Endpoint<S>,
    listener: &TcpListener,
    tx: &mpsc::Sender<TcpStream>,
) {
    // Returning drops `tx`: the workers drain the backlog and exit.
    for stream in listener.incoming().flatten() {
        if !endpoint.is_running() || tx.send(stream).is_err() {
            return;
        }
    }
}

fn worker_loop<S: Service>(endpoint: &Endpoint<S>, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        // A poisoned lock or a closed channel (shutdown) ends the worker.
        let Ok(Ok(stream)) = rx.lock().map(|rx| rx.recv()) else {
            return;
        };
        serve_connection(endpoint, stream);
    }
}

fn serve_connection<S: Service>(endpoint: &Endpoint<S>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // `None`: a drain already started and shut the socket down.
    let Some(token) = endpoint.connections.register(&stream) else {
        return;
    };
    let mut session = endpoint.service.open();
    if frame_loop(endpoint, &mut stream, token, &mut session) {
        let _ = endpoint.service.flush_stream(&mut session, &mut stream);
        linger_close(&stream, LINGER);
    }
    endpoint.connections.deregister(token);
}

/// Serves frames until the connection ends: `true` for an orderly end
/// (EOF, a closing reply, a drain), which the caller closes with a
/// flush and a FIN; `false` for a fault, which just drops the socket.
fn frame_loop<S: Service>(
    endpoint: &Endpoint<S>,
    stream: &mut TcpStream,
    token: u64,
    session: &mut S::Session,
) -> bool {
    let (service, connections) = (&endpoint.service, &endpoint.connections);
    loop {
        if service.streams(session) {
            if let ControlFlow::Break(orderly) = await_request(endpoint, stream, token, session) {
                return orderly;
            }
        }
        let payload = match read_frame_timed(stream, MAX_FRAME_LEN, endpoint.idle) {
            Ok(Some(payload)) => payload,
            Ok(None) => return true,
            Err(FrameReadError::TooLong { declared, max }) => {
                let message = format!("frame length {declared} exceeds maximum {max}");
                let _ = write_frame(stream, &encode_error(ErrorCode::FrameTooLong, &message));
                service.frame_error("too_long");
                return true;
            }
            Err(e) => {
                let truncated = matches!(e, FrameReadError::Truncated { .. });
                service.frame_error(if truncated { "truncated" } else { "io" });
                return false;
            }
        };
        connections.begin_reply(token);
        let started = Instant::now();
        let (reply, next) = service.respond(session, &payload);
        let sent = write_frame(stream, &reply).is_ok();
        // A streaming session stays busy, so a drain leaves it to flush
        // its queue and close itself.
        let draining = if service.streams(session) {
            connections.is_draining()
        } else {
            connections.end_reply(token)
        };
        service.replied(session, started.elapsed());
        match next {
            Next::Shutdown => {
                endpoint.shutdown();
                return true;
            }
            Next::Close => return true,
            Next::Continue if !sent => return false,
            Next::Continue if draining => return true,
            Next::Continue => {}
        }
    }
}

/// Waits for a streaming session's next request in [`TICK`] steps,
/// flushing its queue every tick, until a byte (or EOF) is readable.
/// Breaks like [`frame_loop`] returns: `true` on a drain.
fn await_request<S: Service>(
    endpoint: &Endpoint<S>,
    stream: &mut TcpStream,
    token: u64,
    session: &mut S::Session,
) -> ControlFlow<bool> {
    endpoint.connections.begin_reply(token);
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return ControlFlow::Break(false);
    }
    loop {
        if endpoint.service.flush_stream(session, stream).is_err() {
            return ControlFlow::Break(false);
        }
        if endpoint.connections.is_draining() {
            return ControlFlow::Break(true);
        }
        match stream.peek(&mut [0u8; 1]) {
            Ok(_) => return ControlFlow::Continue(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return ControlFlow::Break(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::io::Write;

    use super::*;
    use crate::wire::read_frame;

    /// Idle bound of the test server.
    const BOUND: Duration = Duration::from_millis(50);

    /// Echoes every frame; an `b"stream"` frame turns the session into a
    /// streaming one, which then writes whatever the test queued.
    #[derive(Default)]
    struct Echo {
        queue: Mutex<VecDeque<Vec<u8>>>,
    }

    impl Service for Echo {
        type Session = bool;

        fn open(&self) -> bool {
            false
        }

        fn respond(&self, streaming: &mut bool, payload: &[u8]) -> (Vec<u8>, Next) {
            *streaming |= payload == b"stream";
            (payload.to_vec(), Next::Continue)
        }

        fn streams(&self, streaming: &bool) -> bool {
            *streaming
        }

        fn flush_stream(&self, streaming: &mut bool, out: &mut TcpStream) -> io::Result<()> {
            while let Some(frame) = self
                .queue
                .lock()
                .unwrap()
                .pop_front()
                .filter(|_| *streaming)
            {
                write_frame(out, &frame)?;
            }
            Ok(())
        }
    }

    fn echo_server() -> FramedServer<Echo> {
        FramedServer::bind("127.0.0.1:0", "echo", 2, BOUND, Echo::default()).expect("bind")
    }

    fn connect(server: &FramedServer<Echo>) -> TcpStream {
        let stream = TcpStream::connect(server.endpoint().local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
    }

    fn roundtrip(stream: &mut TcpStream, payload: &[u8]) {
        write_frame(stream, payload).expect("send");
        let echoed = read_frame(stream, MAX_FRAME_LEN)
            .expect("read")
            .expect("frame");
        assert_eq!(echoed, payload);
    }

    fn stop(server: FramedServer<Echo>) {
        server.endpoint().shutdown();
        server.join();
    }

    #[test]
    fn idle_and_stalled_connections_are_reaped() {
        let server = echo_server();
        let started = Instant::now();
        let mut idle = connect(&server);
        let mut stalled = connect(&server);
        stalled.write_all(&8u32.to_le_bytes()).expect("prefix");
        for peer in [&mut idle, &mut stalled] {
            let eof = read_frame(peer, MAX_FRAME_LEN).expect("clean close");
            assert!(eof.is_none(), "the server must hang up");
        }
        assert!(started.elapsed() < Duration::from_secs(5));
        // Both workers are free again.
        roundtrip(&mut connect(&server), b"ping");
        stop(server);
    }

    #[test]
    fn a_slow_steady_body_survives_the_idle_bound() {
        let server = echo_server();
        let mut stream = connect(&server);
        // 48 kB earns ~2.9 s of body grace; each 100 ms gap exceeds the
        // 50 ms idle bound.
        let body: Vec<u8> = (0..48_000usize).map(|i| (i % 251) as u8).collect();
        stream
            .write_all(&(body.len() as u32).to_le_bytes())
            .expect("prefix");
        for chunk in body.chunks(12_000) {
            std::thread::sleep(Duration::from_millis(100));
            stream.write_all(chunk).expect("chunk");
        }
        let echoed = read_frame(&mut stream, MAX_FRAME_LEN).expect("read");
        assert_eq!(echoed, Some(body));
        stop(server);
    }

    #[test]
    fn a_silent_streaming_session_outlives_the_idle_bound() {
        let server = echo_server();
        let mut stream = connect(&server);
        roundtrip(&mut stream, b"stream");
        std::thread::sleep(BOUND * 6);
        let service = server.endpoint().service();
        service.queue.lock().unwrap().push_back(b"event".to_vec());
        let event = read_frame(&mut stream, MAX_FRAME_LEN).expect("read");
        assert_eq!(event.as_deref(), Some(&b"event"[..]));
        roundtrip(&mut stream, b"ping");
        assert_eq!(server.endpoint().connections(), 1);
        stop(server);
    }

    #[test]
    fn queued_stream_frames_are_flushed_before_the_fin_on_shutdown() {
        let server = echo_server();
        let mut stream = connect(&server);
        roundtrip(&mut stream, b"stream");
        let queued: Vec<Vec<u8>> = (0..50u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let service = server.endpoint().service();
        service.queue.lock().unwrap().extend(queued.iter().cloned());
        server.endpoint().shutdown();
        for frame in &queued {
            let got = read_frame(&mut stream, MAX_FRAME_LEN).expect("complete frame");
            assert_eq!(got.as_ref(), Some(frame));
        }
        assert!(read_frame(&mut stream, MAX_FRAME_LEN)
            .expect("eof")
            .is_none());
        drop(stream);
        server.join();
    }
}
