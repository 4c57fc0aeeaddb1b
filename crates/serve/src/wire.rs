//! Shared wire-level plumbing for every TCP endpoint in the workspace.
//!
//! Both the policy server (`mfgcp serve`) and the live control plane
//! (`mfgcp-ctl`) speak the same frame discipline: a little-endian `u32`
//! payload length followed by that many payload bytes, the first of which
//! is an opcode. This module owns the pieces that are protocol-agnostic —
//! frame reading/writing with typed truncation errors, the typed `0xEE`
//! error reply, the bounds-checked [`Cursor`] body reader, the
//! little-endian encode helpers, and the drain-aware connection registry
//! the [`framed`](crate::framed) server core uses — so each endpoint
//! only defines its opcode table.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::{FrameReadError, WireError};
use crate::protocol::ErrorCode;

/// Maximum accepted frame payload length: 1 MiB.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Opcode of the typed error reply, shared by every endpoint.
pub const OP_ERROR: u8 = 0xEE;

/// Minimum body throughput a peer must sustain once a frame's length
/// prefix has arrived: the body deadline is the idle timeout plus
/// `len / MIN_BODY_BYTES_PER_SEC` of transfer grace (see
/// [`read_frame_timed`]).
pub const MIN_BODY_BYTES_PER_SEC: u64 = 16 * 1024;

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload, enforcing the `max_len` bound *before* the
/// payload is allocated or consumed.
///
/// Returns `Ok(None)` on clean end-of-stream (EOF before any prefix
/// byte); EOF mid-prefix or mid-payload is [`FrameReadError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, FrameReadError> {
    read_frame_with(r, max_len, |_, _| {})
}

/// Reads one frame from a TCP stream under per-*frame* deadlines, not a
/// per-*read* timeout that would take a slow body for an idle socket: the
/// prefix must arrive within `idle_timeout`, the declared `len` body
/// bytes within `idle_timeout` plus `len /` [`MIN_BODY_BYTES_PER_SEC`].
/// Expiry is [`FrameReadError::Io`] with [`io::ErrorKind::TimedOut`];
/// the socket read timeout is re-armed before each `read`.
pub fn read_frame_timed(
    stream: &TcpStream,
    max_len: u32,
    idle_timeout: Duration,
) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut r = Deadline {
        stream,
        at: Instant::now() + idle_timeout,
    };
    read_frame_with(&mut r, max_len, |r, len| {
        let grace = Duration::from_secs_f64(len as f64 / MIN_BODY_BYTES_PER_SEC as f64);
        r.at = Instant::now() + idle_timeout + grace;
    })
}

/// The one prefix → bound → body routine behind both frame readers;
/// `on_body` sees the declared length before the body is read.
fn read_frame_with<R: Read>(
    r: &mut R,
    max_len: u32,
    on_body: impl FnOnce(&mut R, u32),
) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut prefix = [0u8; 4];
    match read_counted(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(FrameReadError::Truncated { got, want: 4 }),
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(FrameReadError::TooLong {
            declared: len,
            max: max_len,
        });
    }
    on_body(r, len);
    let mut payload = vec![0u8; len as usize];
    let got = read_counted(r, &mut payload)?;
    if got < payload.len() {
        return Err(FrameReadError::Truncated {
            got,
            want: payload.len(),
        });
    }
    Ok(Some(payload))
}

/// `read_exact` that reports how far it got: the byte count is short of
/// `buf.len()` only when the stream hit EOF.
fn read_counted(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// A TCP stream read against a wall-clock deadline: each `read` re-arms
/// the socket timeout with the remaining budget and retries until then.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let remaining = self.at.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame deadline expired",
                ));
            }
            // `set_read_timeout` rejects a zero Duration; `remaining` was
            // just checked non-zero above.
            self.stream.set_read_timeout(Some(remaining))?;
            match Read::read(&mut { self.stream }, buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                other => return other,
            }
        }
    }
}

/// Encodes the typed `0xEE` error reply every endpoint shares: opcode,
/// code `u16`, then the UTF-8 message as the rest of the frame.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + message.len());
    out.push(OP_ERROR);
    out.extend_from_slice(&code.as_u16().to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes the body (after the opcode) of an `0xEE` error reply; an
/// unknown code or a non-UTF-8 message is itself a `Malformed` error.
pub fn decode_error(body: &[u8]) -> Result<(ErrorCode, String), WireError> {
    let mut c = Cursor::new(body);
    let code = c.code("error.code")?;
    let message = String::from_utf8(c.rest().to_vec())
        .map_err(|_| WireError::new(ErrorCode::Malformed, "error.message is not utf-8"))?;
    Ok((code, message))
}

/// Appends an `f64` to a frame body as raw little-endian IEEE-754 bits.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends `f64`s to a frame body as raw little-endian IEEE-754 bits.
pub fn push_f64s(out: &mut Vec<u8>, values: &[f64]) {
    values.iter().for_each(|&v| push_f64(out, v));
}

/// Appends a length-prefixed (`u16`) UTF-8 string to a frame body.
///
/// # Errors
///
/// A string longer than `u16::MAX` bytes is refused with a `Malformed`
/// [`WireError`] naming `what`, and nothing is appended: the prefix cannot
/// carry its length, and cutting it would change the string (or split a
/// UTF-8 character, which the peer then rejects).
pub fn push_str(out: &mut Vec<u8>, s: &str, what: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len()).map_err(|_| {
        WireError::new(
            ErrorCode::Malformed,
            format!(
                "{what} is {} bytes; a wire string holds at most {}",
                s.len(),
                u16::MAX
            ),
        )
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Rejects a non-empty body for an opcode that carries none.
pub fn empty_body(body: &[u8], what: &'static str) -> Result<(), WireError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(WireError::new(
            ErrorCode::Malformed,
            format!("{what} carries {} unexpected body byte(s)", body.len()),
        ))
    }
}

/// Bounds-checked little-endian reader over a frame body.
///
/// Every accessor names *what* it was reading in its error so a malformed
/// frame reports the exact field that fell off the end.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WireError> {
        let end = self
            .pos
            .checked_add(N)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::Malformed,
                    format!("truncated body while reading {what} at byte {}", self.pos),
                )
            })?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    /// Reads one `f64` from raw little-endian IEEE-754 bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        self.take::<8>(what)
            .map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        self.take::<8>(what).map(u64::from_le_bytes)
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        self.take::<4>(what).map(u32::from_le_bytes)
    }

    /// Reads a `u32` element count, rejecting one above `max` with
    /// `BatchTooLarge` before anything is allocated for it.
    pub fn count(&mut self, what: &str, max: u32) -> Result<u32, WireError> {
        let count = self.u32(what)?;
        if count > max {
            return Err(WireError::new(
                ErrorCode::BatchTooLarge,
                format!("{what} {count} exceeds maximum {max}"),
            ));
        }
        Ok(count)
    }

    /// Reads one little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        self.take::<2>(what).map(u16::from_le_bytes)
    }

    /// Reads a `u16` [`ErrorCode`]; an unknown value is `Malformed`.
    pub fn code(&mut self, what: &str) -> Result<ErrorCode, WireError> {
        let raw = self.u16(what)?;
        ErrorCode::from_u16(raw)
            .ok_or_else(|| WireError::new(ErrorCode::Malformed, format!("unknown {what} {raw}")))
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        self.take::<1>(what).map(|b| b[0])
    }

    /// Reads a `u16`-length-prefixed UTF-8 string (see [`push_str`]).
    pub fn str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::Malformed,
                    format!("truncated body while reading {what} at byte {}", self.pos),
                )
            })?;
        let out = String::from_utf8(self.bytes[self.pos..end].to_vec())
            .map_err(|_| WireError::new(ErrorCode::Malformed, format!("{what} is not utf-8")))?;
        self.pos = end;
        Ok(out)
    }

    /// Consumes and returns every remaining byte.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    /// Rejects trailing bytes after a fully decoded body.
    pub fn finish(&self, what: &str) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::new(
                ErrorCode::Malformed,
                format!(
                    "{} trailing byte(s) after {what} body",
                    self.bytes.len() - self.pos
                ),
            ))
        }
    }
}

/// Gracefully closes a connection that may still hold unread inbound
/// bytes (for example pipelined requests the server will never answer
/// because it is shutting down).
///
/// Half-closes the write side first — the FIN is ordered *after* every
/// reply already written, so the peer reads all of them and then a clean
/// EOF — and then drains and discards inbound bytes until the peer
/// closes or `timeout` passes without progress. Closing the socket with
/// unread data still queued would make the kernel send an RST, which
/// discards replies the peer has received but not yet read; the drain
/// loop is what keeps the close FIN-clean.
pub fn linger_close(stream: &TcpStream, timeout: Duration) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut sink = [0u8; 4096];
    let mut r = stream;
    loop {
        match Read::read(&mut r, &mut sink) {
            Ok(0) => break, // peer closed: receive queue is empty
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // timeout or hard error: give up
        }
    }
}

/// Drain-aware registry of live TCP connections.
///
/// Each serving thread registers its connection (a [`TcpStream`] clone
/// sharing the socket) and marks it busy with
/// [`begin_reply`](ConnectionRegistry::begin_reply) while it writes.
/// [`drain`](ConnectionRegistry::drain) shuts *idle* connections down at
/// once (unblocking threads parked in a read) but leaves busy ones to
/// finish their frame and close themselves when
/// [`end_reply`](ConnectionRegistry::end_reply) reports the drain, so a
/// client sees complete frames followed by a clean EOF.
#[derive(Debug, Default)]
pub(crate) struct ConnectionRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next: u64,
    draining: bool,
    conns: HashMap<u64, ConnEntry>,
}

#[derive(Debug)]
struct ConnEntry {
    stream: TcpStream,
    busy: bool,
}

impl ConnectionRegistry {
    /// An empty registry, not draining.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a connection and returns its token; `None` when the
    /// stream cannot be cloned or a drain has already started (the
    /// socket is then shut down on the spot).
    pub fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut inner = self.inner.lock().ok()?;
        if inner.draining {
            let _ = clone.shutdown(Shutdown::Both);
            return None;
        }
        let token = inner.next;
        inner.next += 1;
        inner.conns.insert(
            token,
            ConnEntry {
                stream: clone,
                busy: false,
            },
        );
        Some(token)
    }

    /// Removes a finished connection from the registry.
    pub fn deregister(&self, token: u64) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.conns.remove(&token);
        }
    }

    /// Marks the connection busy: a concurrent [`drain`] will not touch
    /// its socket until the matching [`end_reply`].
    ///
    /// [`drain`]: ConnectionRegistry::drain
    /// [`end_reply`]: ConnectionRegistry::end_reply
    pub fn begin_reply(&self, token: u64) {
        if let Ok(mut inner) = self.inner.lock() {
            if let Some(entry) = inner.conns.get_mut(&token) {
                entry.busy = true;
            }
        }
    }

    /// Marks the reply flushed. Returns `true` when a drain started: the
    /// caller then closes gracefully ([`linger_close`]), never with a
    /// hard shutdown that would RST away replies the peer has not read.
    pub fn end_reply(&self, token: u64) -> bool {
        if let Ok(mut inner) = self.inner.lock() {
            let draining = inner.draining;
            if let Some(entry) = inner.conns.get_mut(&token) {
                entry.busy = false;
                return draining;
            }
        }
        false
    }

    /// Starts draining: shuts down every idle connection immediately and
    /// flags busy ones to close themselves once their in-flight reply is
    /// flushed. Idempotent.
    pub fn drain(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.draining = true;
            for entry in inner.conns.values() {
                if !entry.busy {
                    let _ = entry.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }

    /// Whether a drain has started.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().map(|i| i.draining).unwrap_or(true)
    }

    /// Number of currently registered connections.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|i| i.conns.len()).unwrap_or(0)
    }

    /// Whether no connections are registered.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let payload = vec![0x42u8, 1, 2, 3];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write");
        write_frame(&mut wire, &[0x03]).expect("write");

        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).expect("frame 1"),
            Some(payload)
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).expect("frame 2"),
            Some(vec![0x03])
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).expect("eof"), None);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_the_payload_is_read() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = wire.as_slice();
        match read_frame(&mut r, MAX_FRAME_LEN) {
            Err(FrameReadError::TooLong { declared, max }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected TooLong, got {other:?}"),
        }
    }

    #[test]
    fn truncated_prefix_and_payload_are_typed() {
        // Two bytes of a four-byte prefix.
        let mut r: &[u8] = &[0x01, 0x00];
        match read_frame(&mut r, MAX_FRAME_LEN) {
            Err(FrameReadError::Truncated { got: 2, want: 4 }) => {}
            other => panic!("expected truncated prefix, got {other:?}"),
        }

        // Prefix promises 10 bytes, stream carries 3.
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        let mut r = wire.as_slice();
        match read_frame(&mut r, MAX_FRAME_LEN) {
            Err(FrameReadError::Truncated { got: 3, want: 10 }) => {}
            other => panic!("expected truncated payload, got {other:?}"),
        }
    }

    #[test]
    fn strings_roundtrip_and_reject_truncation() {
        let mut body = Vec::new();
        push_str(&mut body, "market.slot", "name").unwrap();
        push_f64(&mut body, 1.5);
        let mut c = Cursor::new(&body);
        assert_eq!(c.str("name").unwrap(), "market.slot");
        assert_eq!(c.f64("x").unwrap(), 1.5);
        c.finish("body").unwrap();

        // A string the u16 prefix cannot carry is refused whole.
        let mut body = vec![7];
        let err = push_str(&mut body, &"x".repeat(70_000), "name").unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
        assert_eq!(body, [7], "nothing was appended");
        push_str(&mut body, &"x".repeat(65_535), "name").unwrap();
        assert_eq!(Cursor::new(&body[1..]).str("name").unwrap().len(), 65_535);

        // Declared string length runs past the body.
        let mut short = Vec::new();
        short.extend_from_slice(&9u16.to_le_bytes());
        short.extend_from_slice(b"abc");
        let mut c = Cursor::new(&short);
        assert!(c.str("name").is_err());
    }

    fn local_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn timed_reader_tolerates_a_slow_body_within_the_rate_floor() {
        let (client, server) = local_pair();
        // 48 kB body: the transfer grace alone is ~3 s on top of the
        // 100 ms idle timeout. Dribble it with 150 ms inter-chunk gaps —
        // each gap exceeds the idle timeout, so a per-read socket
        // timeout would kill this connection mid-frame.
        let body: Vec<u8> = (0..48_000usize).map(|i| (i % 251) as u8).collect();
        let expect = body.clone();
        let writer = std::thread::spawn(move || {
            let mut w = &client;
            w.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            for chunk in body.chunks(16_000) {
                std::thread::sleep(Duration::from_millis(150));
                w.write_all(chunk).unwrap();
            }
            w.flush().unwrap();
            client
        });
        let got = read_frame_timed(&server, MAX_FRAME_LEN, Duration::from_millis(100))
            .expect("slow body within the rate floor")
            .expect("one frame");
        assert_eq!(got, expect);
        drop(writer.join().unwrap());
    }

    #[test]
    fn timed_reader_reaps_idle_prefixes_and_stalled_bodies() {
        // No prefix at all: idle reap within the idle timeout.
        let (_client, server) = local_pair();
        match read_frame_timed(&server, MAX_FRAME_LEN, Duration::from_millis(50)) {
            Err(FrameReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected idle timeout, got {other:?}"),
        }

        // A tiny body that simply never arrives: the body deadline
        // (idle + ~0 grace) expires.
        let (client, server) = local_pair();
        let mut w = &client;
        w.write_all(&8u32.to_le_bytes()).unwrap();
        w.flush().unwrap();
        match read_frame_timed(&server, MAX_FRAME_LEN, Duration::from_millis(50)) {
            Err(FrameReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected stalled body timeout, got {other:?}"),
        }
    }

    #[test]
    fn drain_closes_idle_connections_immediately() {
        let registry = ConnectionRegistry::new();
        let (stream, _peer) = local_pair();
        let token = registry.register(&stream).expect("register");
        assert_eq!(registry.len(), 1);
        registry.drain();
        assert!(registry.is_draining());
        // The socket was shut down: a read on the registered stream sees EOF.
        let mut buf = [0u8; 1];
        assert_eq!(io::Read::read(&mut { &stream }, &mut buf).unwrap(), 0);
        assert!(!registry.end_reply(token) || registry.is_draining());
        registry.deregister(token);
        assert!(registry.is_empty());
    }

    #[test]
    fn drain_defers_busy_connections_until_end_reply() {
        let registry = ConnectionRegistry::new();
        let (stream, peer) = local_pair();
        let token = registry.register(&stream).expect("register");
        registry.begin_reply(token);
        registry.drain();
        // Busy connection is untouched: a write still goes through.
        write_frame(&mut { &stream }, &[0xAB]).expect("busy connection still writable");
        // end_reply reports the drain; the caller then closes gracefully.
        assert!(registry.end_reply(token));
        linger_close(&stream, std::time::Duration::from_millis(200));
        let mut r = &peer;
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_LEN).expect("complete frame"),
            Some(vec![0xAB])
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).expect("eof"), None);
    }

    #[test]
    fn register_after_drain_is_rejected_and_closed() {
        let registry = ConnectionRegistry::new();
        registry.drain();
        let (stream, _peer) = local_pair();
        assert!(registry.register(&stream).is_none());
        let mut buf = [0u8; 1];
        assert_eq!(io::Read::read(&mut { &stream }, &mut buf).unwrap(), 0);
    }
}
