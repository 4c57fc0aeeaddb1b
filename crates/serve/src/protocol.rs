//! Length-prefixed binary frame protocol for the policy server.
//!
//! Every message on the wire is one *frame*: a little-endian `u32` payload
//! length followed by that many payload bytes. The first payload byte is
//! an opcode; the remainder is the opcode-specific body. All multi-byte
//! integers and all `f64` values are little-endian; floats travel as raw
//! IEEE-754 bits, so NaN and ±∞ round-trip bit-exactly.
//!
//! Request opcodes (client → server):
//!
//! | opcode | body | meaning |
//! |--------|------|---------|
//! | `0x01` | `t, h, q` (3 × f64) | single policy query |
//! | `0x02` | `count` (u32) + `count` × 3 × f64 | batched policy query |
//! | `0x03` | — | ping |
//! | `0x04` | — | server/artifact info |
//! | `0x05` | path (u16-len utf-8) | hot-swap the served artifact |
//! | `0x06` | `t` (f64) + `count` (u32) + `count` × 2 × f64 `(h, q)` | slot-batched evaluation at one time |
//! | `0x0F` | — | graceful shutdown |
//!
//! Reply opcodes (server → client):
//!
//! | opcode | body | meaning |
//! |--------|------|---------|
//! | `0x81` | `x, price, q_bar` (3 × f64) | answer to `0x01` |
//! | `0x82` | `count` (u32) + `count` × 3 × f64 | answer to `0x02`, all points well-formed |
//! | `0x83` | — | pong |
//! | `0x84` | fingerprint u64, time_steps u64, grid_h u64, grid_q u64, generation u64, build info utf8 | answer to `0x04` |
//! | `0x85` | generation u64, fingerprint u64 | swap acknowledged |
//! | `0x86` | `price, q_bar` (2 × f64) + `count` (u32) + `count` × f64 `x` | answer to `0x06` |
//! | `0x87` | `count` (u32) + per point: tag u8 (1 + 3 × f64, or 0 + code u16) | answer to `0x02` with per-point errors |
//! | `0x8F` | — | shutdown acknowledged |
//! | `0xEE` | code u16 + utf8 message | typed error reply |
//!
//! A batched query (`0x02`) whose points are all evaluable is answered
//! with the compact `0x82` form; if any point is rejected (a non-finite
//! coordinate), the server answers `0x87` instead, carrying an answer
//! *or* a typed code per point so one bad point no longer fails the
//! whole batch. Slot-batched evaluation (`0x06`) shares one time-step
//! selection across the frame and never rejects points — its semantics
//! mirror the per-point lookups exactly, including non-finite
//! flow-through.
//!
//! Frame lengths are bounded ([`MAX_FRAME_LEN`] by default): a reader
//! rejects an oversized length prefix *before* allocating or consuming
//! the payload, so a hostile 4 GiB prefix costs the server nothing.
//! Malformed payloads (empty frame, unknown opcode, truncated body,
//! over-long batch) decode to a typed [`WireError`] that the server maps
//! straight into an `0xEE` reply.
//!
//! The protocol-agnostic plumbing — frame reading/writing, the typed
//! error reply, the bounds-checked body [`Cursor`] — lives in
//! [`crate::wire`] and is shared with the `mfgcp-ctl` control plane; this
//! module defines only the policy-server opcode table.

use crate::error::WireError;
use crate::wire::{decode_error, empty_body, encode_error, push_f64, push_f64s, Cursor, OP_ERROR};
pub use crate::wire::{read_frame, write_frame, MAX_FRAME_LEN};

/// Largest batch size whose reply still fits in a [`MAX_FRAME_LEN`]
/// frame in its *widest* encoding, the mixed per-point form (opcode
/// byte + u32 count + tag byte and 24 value bytes per point).
pub const MAX_BATCH: u32 = (MAX_FRAME_LEN - 5) / 25;

/// Largest slot-batch size whose request still fits in a
/// [`MAX_FRAME_LEN`] frame (opcode byte + f64 time + u32 count + 16
/// bytes per `(h, q)` pair); the reply (8 bytes per point) is smaller.
pub const MAX_SLOT_BATCH: u32 = (MAX_FRAME_LEN - 13) / 16;

/// Machine-readable rejection codes carried by `Error` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame length prefix exceeded the server's bound.
    FrameTooLong = 1,
    /// The payload was empty or its body did not match the opcode.
    Malformed = 2,
    /// The opcode byte is not one the server understands.
    UnknownOpcode = 3,
    /// A batch declared more points than [`MAX_BATCH`].
    BatchTooLarge = 4,
    /// The server failed internally while answering.
    Internal = 5,
    /// A batched point carried a coordinate the policy surface cannot
    /// evaluate (non-finite `t`, `h` or `q`).
    PointOutOfDomain = 6,
    /// The server is already running its fixed maximum of the requested
    /// background work (control-plane fork solves); retry later.
    Busy = 7,
    /// A hot swap was refused: the artifact could not be read, failed an
    /// integrity check, or holds an unconverged solve. The served
    /// generation is unchanged.
    Refused = 8,
}

impl ErrorCode {
    /// Wire encoding of the code.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire value back into a code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::FrameTooLong),
            2 => Some(ErrorCode::Malformed),
            3 => Some(ErrorCode::UnknownOpcode),
            4 => Some(ErrorCode::BatchTooLarge),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::PointOutOfDomain),
            7 => Some(ErrorCode::Busy),
            8 => Some(ErrorCode::Refused),
            _ => None,
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Single `(t, h, q)` policy query.
    Query {
        /// Query time in `[0, T]`.
        t: f64,
        /// Popularity-ratio coordinate.
        h: f64,
        /// Cache-occupancy coordinate.
        q: f64,
    },
    /// Batched policy query.
    QueryBatch(
        /// The `(t, h, q)` points, in request order.
        Vec<[f64; 3]>,
    ),
    /// Liveness probe.
    Ping,
    /// Artifact/server metadata request.
    Info,
    /// Hot-swap the served artifact from a path on the server's
    /// filesystem; in-flight replies finish on the old generation.
    SwapArtifact(
        /// Artifact path, resolved on the server host.
        String,
    ),
    /// Evaluate many `(h, q)` pairs at one shared time `t` — the
    /// time-step selection and snapshot reads are hoisted out of the
    /// per-point loop.
    EvalSlotBatch {
        /// Shared query time in `[0, T]`.
        t: f64,
        /// The `(h, q)` pairs, in request order.
        pairs: Vec<[f64; 2]>,
    },
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

/// A decoded server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Query`].
    Policy {
        /// Equilibrium caching policy `x*(t, h, q)`.
        x: f64,
        /// Equilibrium trading price `p*(t)`.
        price: f64,
        /// Mean-field average occupancy `q̄₋(t)`.
        q_bar: f64,
    },
    /// Answer to [`Request::QueryBatch`] when every point is evaluable;
    /// `[x, price, q_bar]` per point.
    PolicyBatch(
        /// One `[x, price, q_bar]` triple per queried point.
        Vec<[f64; 3]>,
    ),
    /// Answer to [`Request::QueryBatch`] when at least one point was
    /// rejected: an answer *or* a typed code per point, in request
    /// order.
    PolicyBatchMixed(
        /// `Ok([x, price, q_bar])` or `Err(code)` per queried point.
        Vec<Result<[f64; 3], ErrorCode>>,
    ),
    /// Answer to [`Request::EvalSlotBatch`]: the slot-shared price and
    /// mean field once, then one policy value per pair.
    SlotBatch {
        /// Equilibrium trading price `p*(t)` of the shared slot.
        price: f64,
        /// Mean-field average occupancy `q̄₋(t)` of the shared slot.
        q_bar: f64,
        /// Interpolated policy `x*(t, h, q)` per pair, in request order.
        xs: Vec<f64>,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info {
        /// Params fingerprint of the served equilibrium.
        fingerprint: u64,
        /// Number of time steps in the served trajectories.
        time_steps: u64,
        /// Grid resolution along `h`.
        grid_h: u64,
        /// Grid resolution along `q`.
        grid_q: u64,
        /// Serving generation of the answering artifact (1 at startup,
        /// incremented by every hot swap).
        generation: u64,
        /// Build info string of the serving binary.
        build_info: String,
    },
    /// Answer to [`Request::SwapArtifact`].
    SwapAck {
        /// Generation the swapped-in artifact serves as.
        generation: u64,
        /// Params fingerprint of the swapped-in artifact.
        fingerprint: u64,
    },
    /// Answer to [`Request::Shutdown`].
    ShutdownAck,
    /// Typed protocol error.
    Error {
        /// Machine-readable rejection code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const OP_QUERY: u8 = 0x01;
const OP_QUERY_BATCH: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_INFO: u8 = 0x04;
const OP_SWAP_ARTIFACT: u8 = 0x05;
const OP_EVAL_SLOT_BATCH: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x0F;
const OP_POLICY: u8 = 0x81;
const OP_POLICY_BATCH: u8 = 0x82;
const OP_PONG: u8 = 0x83;
const OP_INFO_REPLY: u8 = 0x84;
const OP_SWAP_ACK: u8 = 0x85;
const OP_SLOT_BATCH: u8 = 0x86;
const OP_POLICY_BATCH_MIXED: u8 = 0x87;
const OP_SHUTDOWN_ACK: u8 = 0x8F;

/// An opcode followed by raw `f64`s.
fn f64s(op: u8, values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + values.len() * 8);
    out.push(op);
    push_f64s(&mut out, values);
    out
}

/// An opcode, a `u32` count, then `count` × 3 raw `f64`s.
fn triples(op: u8, points: &[[f64; 3]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + points.len() * 24);
    out.push(op);
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());
    points.iter().for_each(|p| push_f64s(&mut out, p));
    out
}

/// Reads `count` × 3 raw `f64`s, naming each field in its error.
fn read_triples(c: &mut Cursor, count: u32, names: [&str; 3]) -> Result<Vec<[f64; 3]>, WireError> {
    let mut points = Vec::with_capacity(count as usize);
    for _ in 0..count {
        points.push([c.f64(names[0])?, c.f64(names[1])?, c.f64(names[2])?]);
    }
    Ok(points)
}

impl Request {
    /// Serializes the request into a frame payload (opcode + body).
    ///
    /// # Errors
    ///
    /// A [`Request::SwapArtifact`] path longer than `u16::MAX` bytes is
    /// refused (see [`crate::wire::push_str`]); nothing is truncated.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        Ok(match self {
            Request::Query { t, h, q } => f64s(OP_QUERY, &[*t, *h, *q]),
            Request::QueryBatch(points) => triples(OP_QUERY_BATCH, points),
            Request::Ping => vec![OP_PING],
            Request::Info => vec![OP_INFO],
            Request::SwapArtifact(path) => {
                let mut out = Vec::with_capacity(3 + path.len());
                out.push(OP_SWAP_ARTIFACT);
                crate::wire::push_str(&mut out, path, "swap.path")?;
                out
            }
            Request::EvalSlotBatch { t, pairs } => {
                let mut out = Vec::with_capacity(13 + pairs.len() * 16);
                out.push(OP_EVAL_SLOT_BATCH);
                push_f64(&mut out, *t);
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                pairs.iter().for_each(|p| push_f64s(&mut out, p));
                out
            }
            Request::Shutdown => vec![OP_SHUTDOWN],
        })
    }

    /// Parses a frame payload into a request, with typed rejection.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let (&op, body) = payload
            .split_first()
            .ok_or_else(|| WireError::new(ErrorCode::Malformed, "empty frame"))?;
        match op {
            OP_QUERY => {
                let mut c = Cursor::new(body);
                let t = c.f64("query.t")?;
                let h = c.f64("query.h")?;
                let q = c.f64("query.q")?;
                c.finish("query")?;
                Ok(Request::Query { t, h, q })
            }
            OP_QUERY_BATCH => {
                let mut c = Cursor::new(body);
                let count = c.u32("batch.count")?;
                if count > MAX_BATCH {
                    return Err(WireError::new(
                        ErrorCode::BatchTooLarge,
                        format!("batch of {count} points exceeds maximum {MAX_BATCH}"),
                    ));
                }
                let points = read_triples(&mut c, count, ["batch.t", "batch.h", "batch.q"])?;
                c.finish("batch")?;
                Ok(Request::QueryBatch(points))
            }
            OP_PING => empty_body(body, "ping").map(|()| Request::Ping),
            OP_INFO => empty_body(body, "info").map(|()| Request::Info),
            OP_SWAP_ARTIFACT => {
                let mut c = Cursor::new(body);
                let path = c.str("swap.path")?;
                c.finish("swap")?;
                if path.is_empty() {
                    return Err(WireError::new(ErrorCode::Malformed, "swap.path is empty"));
                }
                Ok(Request::SwapArtifact(path))
            }
            OP_EVAL_SLOT_BATCH => {
                let mut c = Cursor::new(body);
                let t = c.f64("slot_batch.t")?;
                let count = c.u32("slot_batch.count")?;
                if count > MAX_SLOT_BATCH {
                    return Err(WireError::new(
                        ErrorCode::BatchTooLarge,
                        format!("slot batch of {count} pairs exceeds maximum {MAX_SLOT_BATCH}"),
                    ));
                }
                let mut pairs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    pairs.push([c.f64("slot_batch.h")?, c.f64("slot_batch.q")?]);
                }
                c.finish("slot_batch")?;
                Ok(Request::EvalSlotBatch { t, pairs })
            }
            OP_SHUTDOWN => empty_body(body, "shutdown").map(|()| Request::Shutdown),
            other => Err(WireError::new(
                ErrorCode::UnknownOpcode,
                format!("unknown request opcode {other:#04X}"),
            )),
        }
    }
}

impl Reply {
    /// Serializes the reply into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Policy { x, price, q_bar } => f64s(OP_POLICY, &[*x, *price, *q_bar]),
            Reply::PolicyBatch(points) => triples(OP_POLICY_BATCH, points),
            Reply::PolicyBatchMixed(points) => {
                let mut out = Vec::with_capacity(5 + points.len() * 25);
                out.push(OP_POLICY_BATCH_MIXED);
                out.extend_from_slice(&(points.len() as u32).to_le_bytes());
                for p in points {
                    match p {
                        Ok(triple) => {
                            out.push(1);
                            push_f64s(&mut out, triple);
                        }
                        Err(code) => {
                            out.push(0);
                            out.extend_from_slice(&code.as_u16().to_le_bytes());
                        }
                    }
                }
                out
            }
            Reply::SlotBatch { price, q_bar, xs } => {
                let mut out = Vec::with_capacity(21 + xs.len() * 8);
                out.push(OP_SLOT_BATCH);
                push_f64s(&mut out, &[*price, *q_bar]);
                out.extend_from_slice(&(xs.len() as u32).to_le_bytes());
                push_f64s(&mut out, xs);
                out
            }
            Reply::Pong => vec![OP_PONG],
            Reply::Info {
                fingerprint,
                time_steps,
                grid_h,
                grid_q,
                generation,
                build_info,
            } => {
                let mut out = Vec::with_capacity(41 + build_info.len());
                out.push(OP_INFO_REPLY);
                out.extend_from_slice(&fingerprint.to_le_bytes());
                out.extend_from_slice(&time_steps.to_le_bytes());
                out.extend_from_slice(&grid_h.to_le_bytes());
                out.extend_from_slice(&grid_q.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(build_info.as_bytes());
                out
            }
            Reply::SwapAck {
                generation,
                fingerprint,
            } => {
                let mut out = Vec::with_capacity(17);
                out.push(OP_SWAP_ACK);
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&fingerprint.to_le_bytes());
                out
            }
            Reply::ShutdownAck => vec![OP_SHUTDOWN_ACK],
            Reply::Error { code, message } => encode_error(*code, message),
        }
    }

    /// Parses a frame payload into a reply, with typed rejection.
    pub fn decode(payload: &[u8]) -> Result<Reply, WireError> {
        let (&op, body) = payload
            .split_first()
            .ok_or_else(|| WireError::new(ErrorCode::Malformed, "empty frame"))?;
        match op {
            OP_POLICY => {
                let mut c = Cursor::new(body);
                let x = c.f64("policy.x")?;
                let price = c.f64("policy.price")?;
                let q_bar = c.f64("policy.q_bar")?;
                c.finish("policy")?;
                Ok(Reply::Policy { x, price, q_bar })
            }
            OP_POLICY_BATCH => {
                let mut c = Cursor::new(body);
                let count = c.count("batch.count", MAX_BATCH)?;
                let points =
                    read_triples(&mut c, count, ["batch.x", "batch.price", "batch.q_bar"])?;
                c.finish("batch")?;
                Ok(Reply::PolicyBatch(points))
            }
            OP_POLICY_BATCH_MIXED => {
                let mut c = Cursor::new(body);
                let count = c.count("mixed.count", MAX_BATCH)?;
                let mut points = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    match c.u8("mixed.tag")? {
                        1 => points.push(Ok([
                            c.f64("mixed.x")?,
                            c.f64("mixed.price")?,
                            c.f64("mixed.q_bar")?,
                        ])),
                        0 => points.push(Err(c.code("mixed.code")?)),
                        other => {
                            return Err(WireError::new(
                                ErrorCode::Malformed,
                                format!("unknown mixed-batch tag {other}"),
                            ))
                        }
                    }
                }
                c.finish("mixed")?;
                Ok(Reply::PolicyBatchMixed(points))
            }
            OP_SLOT_BATCH => {
                let mut c = Cursor::new(body);
                let price = c.f64("slot_batch.price")?;
                let q_bar = c.f64("slot_batch.q_bar")?;
                let count = c.count("slot_batch.count", MAX_SLOT_BATCH)?;
                let mut xs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    xs.push(c.f64("slot_batch.x")?);
                }
                c.finish("slot_batch")?;
                Ok(Reply::SlotBatch { price, q_bar, xs })
            }
            OP_PONG => empty_body(body, "pong").map(|()| Reply::Pong),
            OP_INFO_REPLY => {
                let mut c = Cursor::new(body);
                let fingerprint = c.u64("info.fingerprint")?;
                let time_steps = c.u64("info.time_steps")?;
                let grid_h = c.u64("info.grid_h")?;
                let grid_q = c.u64("info.grid_q")?;
                let generation = c.u64("info.generation")?;
                let build_info = String::from_utf8(c.rest().to_vec()).map_err(|_| {
                    WireError::new(ErrorCode::Malformed, "info.build_info is not utf-8")
                })?;
                Ok(Reply::Info {
                    fingerprint,
                    time_steps,
                    grid_h,
                    grid_q,
                    generation,
                    build_info,
                })
            }
            OP_SWAP_ACK => {
                let mut c = Cursor::new(body);
                let generation = c.u64("swap_ack.generation")?;
                let fingerprint = c.u64("swap_ack.fingerprint")?;
                c.finish("swap_ack")?;
                Ok(Reply::SwapAck {
                    generation,
                    fingerprint,
                })
            }
            OP_SHUTDOWN_ACK => empty_body(body, "shutdown-ack").map(|()| Reply::ShutdownAck),
            OP_ERROR => decode_error(body).map(|(code, message)| Reply::Error { code, message }),
            other => Err(WireError::new(
                ErrorCode::UnknownOpcode,
                format!("unknown reply opcode {other:#04X}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let decoded = Request::decode(&req.encode().unwrap()).expect("decode");
        assert_eq!(decoded, req);
    }

    fn roundtrip_reply(rep: Reply) {
        let decoded = Reply::decode(&rep.encode()).expect("decode");
        assert_eq!(decoded, rep);
    }

    #[test]
    fn requests_and_replies_roundtrip() {
        roundtrip_request(Request::Query {
            t: 0.25,
            h: 1.5,
            q: 3.0,
        });
        roundtrip_request(Request::QueryBatch(vec![[0.0, 1.0, 2.0], [0.5, 1.25, 7.5]]));
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Info);
        roundtrip_request(Request::SwapArtifact("artifacts/eq-v2.mfgcp".to_string()));
        roundtrip_request(Request::EvalSlotBatch {
            t: 0.75,
            pairs: vec![[1.0, 0.5], [2.0, 0.25], [3.0, 0.0]],
        });
        roundtrip_request(Request::EvalSlotBatch {
            t: 0.0,
            pairs: Vec::new(),
        });
        roundtrip_request(Request::Shutdown);
        roundtrip_reply(Reply::Policy {
            x: 0.75,
            price: 1.25,
            q_bar: 5.0,
        });
        roundtrip_reply(Reply::PolicyBatch(vec![[0.1, 0.2, 0.3]]));
        roundtrip_reply(Reply::PolicyBatchMixed(vec![
            Ok([0.1, 0.2, 0.3]),
            Err(ErrorCode::PointOutOfDomain),
            Ok([0.4, 0.5, 0.6]),
        ]));
        roundtrip_reply(Reply::SlotBatch {
            price: 1.25,
            q_bar: 0.5,
            xs: vec![0.1, 0.9, 0.3],
        });
        roundtrip_reply(Reply::SlotBatch {
            price: 0.0,
            q_bar: 0.0,
            xs: Vec::new(),
        });
        roundtrip_reply(Reply::Pong);
        roundtrip_reply(Reply::Info {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            time_steps: 40,
            grid_h: 16,
            grid_q: 48,
            generation: 3,
            build_info: "mfgcp 0.1.0 (abc1234)".to_string(),
        });
        roundtrip_reply(Reply::SwapAck {
            generation: 2,
            fingerprint: 0x0123_4567_89AB_CDEF,
        });
        roundtrip_reply(Reply::ShutdownAck);
        roundtrip_reply(Reply::Error {
            code: ErrorCode::UnknownOpcode,
            message: "unknown request opcode 0x55".to_string(),
        });
        roundtrip_reply(Reply::Error {
            code: ErrorCode::Refused,
            message: "artifact swap refused: unconverged".to_string(),
        });
    }

    #[test]
    fn an_over_long_swap_path_is_refused_not_truncated() {
        // 65,534 ASCII bytes and a two-byte `é`: a cut at 65,535 bytes
        // would split the `é`, and the peer would reject the path.
        let path = format!("{}é", "a".repeat(65_534));
        assert_eq!(path.len(), 65_536);
        let err = Request::SwapArtifact(path).encode().unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
        assert!(err.message.contains("65536 bytes"), "{err}");
        // The longest path the prefix can carry still round-trips.
        roundtrip_request(Request::SwapArtifact(format!("{}é", "a".repeat(65_533))));
    }

    #[test]
    fn non_finite_floats_roundtrip_bit_exactly() {
        let req = Request::Query {
            t: f64::NAN,
            h: f64::INFINITY,
            q: f64::NEG_INFINITY,
        };
        match Request::decode(&req.encode().unwrap()).expect("decode") {
            Request::Query { t, h, q } => {
                assert_eq!(t.to_bits(), f64::NAN.to_bits());
                assert_eq!(h.to_bits(), f64::INFINITY.to_bits());
                assert_eq!(q.to_bits(), f64::NEG_INFINITY.to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_decode_to_typed_errors() {
        let err = Request::decode(&[]).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        let err = Request::decode(&[0x55]).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownOpcode);

        // Query with a short body.
        let err = Request::decode(&[0x01, 0, 0, 0]).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Ping with an unexpected body.
        let err = Request::decode(&[0x03, 1]).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Batch whose declared count exceeds the bound.
        let mut payload = vec![0x02];
        payload.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        let err = Request::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::BatchTooLarge);

        // Batch whose declared count exceeds the supplied bytes.
        let mut payload = vec![0x02];
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 24]);
        let err = Request::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Query with trailing junk.
        let mut payload = Request::Query {
            t: 0.0,
            h: 0.0,
            q: 0.0,
        }
        .encode()
        .unwrap();
        payload.push(0xAA);
        let err = Request::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Swap with an empty path.
        let err =
            Request::decode(&Request::SwapArtifact(String::new()).encode().unwrap()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Slot batch whose declared count exceeds the bound.
        let mut payload = vec![0x06];
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&(MAX_SLOT_BATCH + 1).to_le_bytes());
        let err = Request::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::BatchTooLarge);

        // Slot batch whose declared count exceeds the supplied bytes.
        let mut payload = vec![0x06];
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&4u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        let err = Request::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Mixed batch reply with an unknown per-point tag.
        let mut payload = vec![0x87];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(7);
        let err = Reply::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);

        // Mixed batch reply with an unknown per-point error code.
        let mut payload = vec![0x87];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&999u16.to_le_bytes());
        let err = Reply::decode(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
    }

    #[test]
    fn slot_batch_non_finite_pairs_roundtrip_bit_exactly() {
        let req = Request::EvalSlotBatch {
            t: f64::NAN,
            pairs: vec![[f64::INFINITY, f64::NEG_INFINITY], [f64::NAN, -0.0]],
        };
        match Request::decode(&req.encode().unwrap()).expect("decode") {
            Request::EvalSlotBatch { t, pairs } => {
                assert_eq!(t.to_bits(), f64::NAN.to_bits());
                assert_eq!(pairs[0][0].to_bits(), f64::INFINITY.to_bits());
                assert_eq!(pairs[0][1].to_bits(), f64::NEG_INFINITY.to_bits());
                assert_eq!(pairs[1][0].to_bits(), f64::NAN.to_bits());
                assert_eq!(pairs[1][1].to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    // Frame-level tests (roundtrip over a stream, oversized prefix,
    // truncated prefix/payload) live with the framing code in `wire`.
}
