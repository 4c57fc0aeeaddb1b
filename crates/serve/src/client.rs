//! Blocking client for the policy server's frame protocol.
//!
//! Used by `mfgcp query`, the `bench_serve` load generator and the
//! end-to-end tests. One [`Client`] wraps one TCP connection and issues
//! strictly request/reply exchanges; protocol-level `Error` replies
//! surface as [`ClientError::Server`] with the typed code intact.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::ClientError;
use crate::protocol::{read_frame, write_frame, ErrorCode, Reply, Request, MAX_FRAME_LEN};

/// One served policy query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPoint {
    /// Equilibrium caching policy `x*(t, h, q)`.
    pub x: f64,
    /// Equilibrium trading price `p*(t)`.
    pub price: f64,
    /// Mean-field average occupancy `q̄₋(t)`.
    pub q_bar: f64,
}

/// One slot-batched evaluation answer: the slot-shared price and mean
/// field plus one policy value per queried `(h, q)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotEval {
    /// Equilibrium trading price `p*(t)` of the shared slot.
    pub price: f64,
    /// Mean-field average occupancy `q̄₋(t)` of the shared slot.
    pub q_bar: f64,
    /// Interpolated policy `x*(t, h, q)` per pair, in request order.
    pub xs: Vec<f64>,
}

/// Server/artifact metadata returned by [`Client::info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Params fingerprint of the served equilibrium.
    pub fingerprint: u64,
    /// Number of macro time steps in the served trajectories.
    pub time_steps: u64,
    /// Grid resolution along `h`.
    pub grid_h: u64,
    /// Grid resolution along `q`.
    pub grid_q: u64,
    /// Serving generation of the answering artifact (1 at startup,
    /// incremented by every hot swap).
    pub generation: u64,
    /// Build info string of the serving binary.
    pub build_info: String,
}

/// A blocking connection to a policy server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sets the read timeout for replies (`None` blocks indefinitely).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Single policy query: `(t, h, q) → (x*, p*, q̄₋)`.
    pub fn query(&mut self, t: f64, h: f64, q: f64) -> Result<PolicyPoint, ClientError> {
        match self.roundtrip(&Request::Query { t, h, q })? {
            Reply::Policy { x, price, q_bar } => Ok(PolicyPoint { x, price, q_bar }),
            other => Err(unexpected(other)),
        }
    }

    /// Batched policy query; answers arrive in request order.
    ///
    /// Each point resolves independently: a rejected point (for example
    /// a non-finite coordinate) surfaces as `Err(code)` in its slot
    /// while every well-formed point still gets its answer — one bad
    /// point no longer fails the whole batch.
    pub fn query_batch(
        &mut self,
        points: &[[f64; 3]],
    ) -> Result<Vec<Result<PolicyPoint, ErrorCode>>, ClientError> {
        match self.roundtrip(&Request::QueryBatch(points.to_vec()))? {
            Reply::PolicyBatch(answers) => Ok(answers
                .into_iter()
                .map(|[x, price, q_bar]| Ok(PolicyPoint { x, price, q_bar }))
                .collect()),
            Reply::PolicyBatchMixed(answers) => Ok(answers
                .into_iter()
                .map(|point| point.map(|[x, price, q_bar]| PolicyPoint { x, price, q_bar }))
                .collect()),
            other => Err(unexpected(other)),
        }
    }

    /// Slot-batched evaluation: many `(h, q)` pairs at one shared time
    /// `t`, answered with the slot's price/mean-field once plus one
    /// policy value per pair.
    pub fn eval_slot(&mut self, t: f64, pairs: &[[f64; 2]]) -> Result<SlotEval, ClientError> {
        match self.roundtrip(&Request::EvalSlotBatch {
            t,
            pairs: pairs.to_vec(),
        })? {
            Reply::SlotBatch { price, q_bar, xs } => Ok(SlotEval { price, q_bar, xs }),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to hot-swap its served artifact from `path`
    /// (resolved on the server host); returns the new generation and
    /// the swapped-in artifact's fingerprint. A path longer than
    /// `u16::MAX` bytes fails with [`ClientError::Encode`] before
    /// anything is sent.
    pub fn swap_artifact(&mut self, path: &str) -> Result<(u64, u64), ClientError> {
        match self.roundtrip(&Request::SwapArtifact(path.to_string()))? {
            Reply::SwapAck {
                generation,
                fingerprint,
            } => Ok((generation, fingerprint)),
            other => Err(unexpected(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches server/artifact metadata.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.roundtrip(&Request::Info)? {
            Reply::Info {
                fingerprint,
                time_steps,
                grid_h,
                grid_q,
                generation,
                build_info,
            } => Ok(ServerInfo {
                fingerprint,
                time_steps,
                grid_h,
                grid_q,
                generation,
                build_info,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::ShutdownAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Sends raw payload bytes as one frame — test hook for driving the
    /// server with deliberately malformed traffic.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Reads one raw reply frame — test hook counterpart of
    /// [`Client::send_raw`]. Returns `None` on clean server close.
    pub fn read_raw(&mut self) -> Result<Option<Vec<u8>>, ClientError> {
        Ok(read_frame(&mut self.stream, MAX_FRAME_LEN)?)
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let frame = request.encode().map_err(ClientError::Encode)?;
        write_frame(&mut self.stream, &frame)?;
        let payload =
            read_frame(&mut self.stream, MAX_FRAME_LEN)?.ok_or(ClientError::Unexpected {
                got: "connection closed before reply",
            })?;
        let reply = Reply::decode(&payload).map_err(ClientError::Wire)?;
        if let Reply::Error { code, message } = reply {
            return Err(ClientError::Server(crate::error::WireError::new(
                code, message,
            )));
        }
        Ok(reply)
    }
}

fn unexpected(reply: Reply) -> ClientError {
    ClientError::Unexpected {
        got: match reply {
            Reply::Policy { .. } => "policy reply",
            Reply::PolicyBatch(_) => "batch reply",
            Reply::PolicyBatchMixed(_) => "mixed batch reply",
            Reply::SlotBatch { .. } => "slot batch reply",
            Reply::Pong => "pong",
            Reply::Info { .. } => "info reply",
            Reply::SwapAck { .. } => "swap ack",
            Reply::ShutdownAck => "shutdown ack",
            Reply::Error { .. } => "error reply",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    #[test]
    fn an_over_long_swap_path_fails_at_the_client_and_sends_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut server_side, _) = listener.accept().expect("accept");
        // A cut at 65,535 bytes would fall inside the trailing `é`.
        let path = format!("{}é", "a".repeat(65_534));
        match client.swap_artifact(&path) {
            Err(ClientError::Encode(e)) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected an encode error, got {other:?}"),
        }
        drop(client);
        let mut received = Vec::new();
        server_side.read_to_end(&mut received).expect("read");
        assert!(received.is_empty(), "{} bytes were sent", received.len());
    }
}
