//! Blocking control-plane client.
//!
//! A dedicated reader thread turns the socket into a frame channel, so
//! the caller can interleave request/reply exchanges with streamed
//! `0xC0` event frames without ever losing framing: [`CtlClient::request`]
//! buffers any events that arrive while waiting for its reply, and
//! [`CtlClient::poll_event`] hands them (and newly streamed ones) back
//! in arrival order.

use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use mfgcp_obs::json::{parse, Json};
use mfgcp_serve::wire::{read_frame, write_frame};
use mfgcp_serve::{ClientError, ErrorCode, WireError, MAX_FRAME_LEN};

use crate::protocol::{CtlReply, CtlRequest};

/// A connected control-plane client.
pub struct CtlClient {
    stream: TcpStream,
    frames: Receiver<CtlReply>,
    buffered: std::collections::VecDeque<String>,
    _reader: JoinHandle<()>,
}

impl CtlClient {
    /// Connect to a control-plane server.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn connect(addr: &str) -> Result<CtlClient, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        let rstream = stream.try_clone().map_err(ClientError::Io)?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = rstream;
            // Clean EOF, a framing-level failure, an undecodable reply,
            // or a dropped receiver all end the reader the same way.
            while let Ok(Some(payload)) = read_frame(&mut r, MAX_FRAME_LEN) {
                let Ok(reply) = CtlReply::decode(&payload) else {
                    break;
                };
                if tx.send(reply).is_err() {
                    break;
                }
            }
        });
        Ok(CtlClient {
            stream,
            frames: rx,
            buffered: std::collections::VecDeque::new(),
            _reader: reader,
        })
    }

    /// Send `req` and wait (up to `timeout`) for its non-event reply,
    /// buffering any stream events that arrive in between.
    ///
    /// # Errors
    ///
    /// Returns encode (a string too long for the wire; nothing is sent),
    /// I/O, decode, or timeout errors; a server `0xEE` reply surfaces as
    /// [`ClientError::Server`].
    pub fn request(
        &mut self,
        req: &CtlRequest,
        timeout: Duration,
    ) -> Result<CtlReply, ClientError> {
        let frame = req.encode().map_err(ClientError::Encode)?;
        write_frame(&mut self.stream, &frame).map_err(ClientError::Io)?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match self.frames.recv_timeout(left) {
                Ok(CtlReply::Event(line)) => self.buffered.push_back(line),
                Ok(CtlReply::Error { code, message }) => {
                    return Err(ClientError::Server(WireError::new(code, message)))
                }
                Ok(reply) => return Ok(reply),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for control reply",
                    )))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "control connection closed",
                    )))
                }
            }
        }
    }

    /// Send `req` and parse the expected JSON (`0xA1`) reply.
    ///
    /// # Errors
    ///
    /// As [`CtlClient::request`], plus a typed error when the reply is
    /// not a JSON acknowledgement or fails to parse.
    pub fn request_json(
        &mut self,
        req: &CtlRequest,
        timeout: Duration,
    ) -> Result<Json, ClientError> {
        match self.request(req, timeout)? {
            CtlReply::Ok(doc) => parse(&doc).map_err(|e| {
                ClientError::Server(WireError::new(
                    ErrorCode::Internal,
                    format!("unparseable JSON reply: {e:?}"),
                ))
            }),
            other => Err(ClientError::Server(WireError::new(
                ErrorCode::Internal,
                format!("expected JSON reply, got {other:?}"),
            ))),
        }
    }

    /// Next streamed event line, if one arrives within `timeout`
    /// (buffered events are returned first, instantly).
    pub fn poll_event(&mut self, timeout: Duration) -> Option<String> {
        if let Some(line) = self.buffered.pop_front() {
            return Some(line);
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match self.frames.recv_timeout(left) {
                Ok(CtlReply::Event(line)) => return Some(line),
                // Out-of-band non-event frames at poll time are unexpected;
                // drop them rather than desynchronize the stream.
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    /// True when no streamed event is currently pending (more may still
    /// arrive while the connection is open).
    pub fn is_drained(&mut self) -> bool {
        // Pull anything already delivered into the buffer first.
        while let Ok(reply) = self.frames.try_recv() {
            if let CtlReply::Event(line) = reply {
                self.buffered.push_back(line);
            }
        }
        self.buffered.is_empty()
    }
}

impl Drop for CtlClient {
    /// Closes the socket, which also ends the reader thread (its clone
    /// would otherwise hold the connection and a server worker open).
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    #[test]
    fn an_over_long_filter_fails_at_the_client_and_sends_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut client = CtlClient::connect(&addr).expect("connect");
        let (mut server_side, _) = listener.accept().expect("accept");
        let subscribe = CtlRequest::Subscribe {
            capacity: 16,
            filters: vec!["m".repeat(70_000)],
        };
        match client.request(&subscribe, Duration::from_secs(1)) {
            Err(ClientError::Encode(e)) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected an encode error, got {other:?}"),
        }
        drop(client);
        let mut received = Vec::new();
        server_side.read_to_end(&mut received).expect("read");
        assert!(received.is_empty(), "{} bytes were sent", received.len());
    }
}
