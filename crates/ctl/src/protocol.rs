//! Control-plane opcode table over the shared `mfgcp-serve` wire format.
//!
//! Frames are identical to the policy server's: a little-endian `u32`
//! payload length, then an opcode byte plus an opcode-specific body
//! (`mfgcp_serve::wire`). Control opcodes live in the `0x2*` request /
//! `0xA*` reply range so a frame can never be confused with a policy
//! query, and the error reply reuses the policy server's `0xEE` encoding
//! and [`ErrorCode`] table verbatim.
//!
//! Request opcodes (client → server):
//!
//! | opcode | body | meaning |
//! |--------|------|---------|
//! | `0x21` | capacity u32, count u16, count × str | subscribe to streamed events |
//! | `0x22` | — | slot-boundary snapshot (JSON) |
//! | `0x23` | offset u32, len u32 | per-EDP occupancy slice (binary f64, clamped to [`MAX_OCCUPANCY`]) |
//! | `0x24` | — | pause at the next slot boundary |
//! | `0x25` | n u32 | step `n` slots, then stay paused |
//! | `0x26` | — | resume free running |
//! | `0x27` | — | seed-fork a what-if solve from the live density |
//! | `0x28` | id u32 | poll a fork's status |
//! | `0x29` | — | gate/stream status (JSON) |
//! | `0x2A` | — | ping |
//! | `0x2B` | — | reprice: warm re-solve from the live density, staged for the next slot boundary |
//! | `0x2E` | — | detach the gate and shut the control plane down |
//! | `0x2F` | — | detach this client (connection closes cleanly) |
//!
//! Reply opcodes (server → client):
//!
//! | opcode | body | meaning |
//! |--------|------|---------|
//! | `0xA1` | utf8 JSON document | acknowledgement / query answer |
//! | `0xA3` | total u32, offset u32, count u32, count × f64 | occupancy slice |
//! | `0xAA` | — | pong |
//! | `0xC0` | utf8 JSON event line | one streamed telemetry event |
//! | `0xEE` | code u16 + utf8 message | typed error (policy-server encoding) |
//!
//! Subscription filters are *name prefixes*: the body strings of `0x21`
//! select event series by `Event::name` prefix match (`"market."`,
//! `"net.shard."`, `"solver."`, `"audit."`, …); zero strings subscribes
//! to everything. Streamed `0xC0` frames carry the exact
//! `Event::to_json_line` JSONL document of the `mfgcp-obs` schema and
//! keep their recorder-level `seq`, so a bounded subscriber that drops
//! frames still sees a strictly increasing (gapped) sequence.

use mfgcp_serve::wire::{
    decode_error, empty_body, encode_error, push_f64s, push_str, Cursor, OP_ERROR,
};
use mfgcp_serve::{ErrorCode, WireError, MAX_FRAME_LEN};

/// A decoded control-plane request.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlRequest {
    /// Subscribe this connection to streamed telemetry events.
    Subscribe {
        /// Bounded queue capacity; the sink drops (and counts) events
        /// beyond it rather than ever blocking the simulation.
        capacity: u32,
        /// Event-name prefixes to stream; empty = every series.
        filters: Vec<String>,
    },
    /// Ask for the latest slot-boundary snapshot as JSON.
    Snapshot,
    /// Ask for a slice of the per-EDP occupancy column.
    Occupancy {
        /// First EDP index of the slice.
        offset: u32,
        /// Maximum number of entries to return.
        len: u32,
    },
    /// Pause the simulation at the next slot boundary.
    Pause,
    /// Run exactly `n` more slots, then stay paused.
    Step {
        /// Number of slots to execute.
        n: u32,
    },
    /// Resume free running.
    Resume,
    /// Clone the live density into a detached what-if equilibrium solve.
    Fork,
    /// Poll the status of a previously started fork.
    ForkStatus {
        /// The fork id returned by [`CtlRequest::Fork`].
        id: u32,
    },
    /// Gate/stream status as JSON.
    Status,
    /// Liveness probe.
    Ping,
    /// Re-run Alg. 2 warm-started from the live density and stage the
    /// equilibrium for a generation-counted hot-swap at the next slot
    /// boundary. The reply carries the solve outcome as JSON.
    Reprice,
    /// Detach the gate (run freely) and shut the control plane down.
    Shutdown,
    /// Detach this client; the connection closes after the ack.
    Detach,
}

/// A decoded control-plane reply.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlReply {
    /// Acknowledgement / query answer carrying a JSON document.
    Ok(String),
    /// A slice of the per-EDP occupancy column.
    Occupancy {
        /// Population size `M` (slice bounds clamp against it).
        total: u32,
        /// First EDP index of the returned slice.
        offset: u32,
        /// The occupancy values, f64 bit-exact.
        values: Vec<f64>,
    },
    /// Answer to [`CtlRequest::Ping`].
    Pong,
    /// One streamed telemetry event (JSONL document of the obs schema).
    Event(String),
    /// Typed protocol error (same encoding as the policy server).
    Error {
        /// Machine-readable rejection code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const OP_SUBSCRIBE: u8 = 0x21;
const OP_SNAPSHOT: u8 = 0x22;
const OP_OCCUPANCY: u8 = 0x23;
const OP_PAUSE: u8 = 0x24;
const OP_STEP: u8 = 0x25;
const OP_RESUME: u8 = 0x26;
const OP_FORK: u8 = 0x27;
const OP_FORK_STATUS: u8 = 0x28;
const OP_STATUS: u8 = 0x29;
const OP_PING: u8 = 0x2A;
const OP_REPRICE: u8 = 0x2B;
const OP_SHUTDOWN: u8 = 0x2E;
const OP_DETACH: u8 = 0x2F;
const OP_OK: u8 = 0xA1;
const OP_OCCUPANCY_REPLY: u8 = 0xA3;
const OP_PONG: u8 = 0xAA;
const OP_EVENT: u8 = 0xC0;

/// Most subscription filters a single subscribe may carry.
pub const MAX_FILTERS: u16 = 64;

/// Most occupancy values one `0xA3` reply carries: the largest slice
/// that fits a [`MAX_FRAME_LEN`] frame (opcode byte, three `u32`s, then
/// 8 bytes per value). The server clamps every slice to it.
pub const MAX_OCCUPANCY: u32 = (MAX_FRAME_LEN - 13) / 8;

impl CtlRequest {
    /// Serializes the request into a frame payload (opcode + body).
    ///
    /// # Errors
    ///
    /// A [`CtlRequest::Subscribe`] whose filter count or any filter's
    /// byte length exceeds `u16::MAX` is refused with a `Malformed`
    /// [`WireError`]; nothing is truncated.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        Ok(match self {
            CtlRequest::Subscribe { capacity, filters } => {
                let count = u16::try_from(filters.len()).map_err(|_| {
                    WireError::new(
                        ErrorCode::Malformed,
                        format!("subscribe carries {} filters", filters.len()),
                    )
                })?;
                let mut out = vec![OP_SUBSCRIBE];
                out.extend_from_slice(&capacity.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                for f in filters {
                    push_str(&mut out, f, "subscribe filter")?;
                }
                out
            }
            CtlRequest::Snapshot => vec![OP_SNAPSHOT],
            CtlRequest::Occupancy { offset, len } => {
                let mut out = vec![OP_OCCUPANCY];
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out
            }
            CtlRequest::Pause => vec![OP_PAUSE],
            CtlRequest::Step { n } => {
                let mut out = vec![OP_STEP];
                out.extend_from_slice(&n.to_le_bytes());
                out
            }
            CtlRequest::Resume => vec![OP_RESUME],
            CtlRequest::Fork => vec![OP_FORK],
            CtlRequest::ForkStatus { id } => {
                let mut out = vec![OP_FORK_STATUS];
                out.extend_from_slice(&id.to_le_bytes());
                out
            }
            CtlRequest::Status => vec![OP_STATUS],
            CtlRequest::Ping => vec![OP_PING],
            CtlRequest::Reprice => vec![OP_REPRICE],
            CtlRequest::Shutdown => vec![OP_SHUTDOWN],
            CtlRequest::Detach => vec![OP_DETACH],
        })
    }

    /// Parses a frame payload into a request, with typed rejection.
    pub fn decode(payload: &[u8]) -> Result<CtlRequest, WireError> {
        let (&op, body) = payload
            .split_first()
            .ok_or_else(|| WireError::new(ErrorCode::Malformed, "empty frame"))?;
        match op {
            OP_SUBSCRIBE => {
                let mut c = Cursor::new(body);
                let capacity = c.u32("subscribe capacity")?;
                let count = c.u16("subscribe filter count")?;
                if count > MAX_FILTERS {
                    return Err(WireError::new(
                        ErrorCode::Malformed,
                        format!("subscribe declares {count} filters, max {MAX_FILTERS}"),
                    ));
                }
                let mut filters = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    filters.push(c.str("subscribe filter")?);
                }
                c.finish("subscribe")?;
                Ok(CtlRequest::Subscribe { capacity, filters })
            }
            OP_SNAPSHOT => empty_body(body, "snapshot").map(|()| CtlRequest::Snapshot),
            OP_OCCUPANCY => {
                let mut c = Cursor::new(body);
                let offset = c.u32("occupancy offset")?;
                let len = c.u32("occupancy len")?;
                c.finish("occupancy")?;
                Ok(CtlRequest::Occupancy { offset, len })
            }
            OP_PAUSE => empty_body(body, "pause").map(|()| CtlRequest::Pause),
            OP_STEP => {
                let mut c = Cursor::new(body);
                let n = c.u32("step count")?;
                c.finish("step")?;
                Ok(CtlRequest::Step { n })
            }
            OP_RESUME => empty_body(body, "resume").map(|()| CtlRequest::Resume),
            OP_FORK => empty_body(body, "fork").map(|()| CtlRequest::Fork),
            OP_FORK_STATUS => {
                let mut c = Cursor::new(body);
                let id = c.u32("fork id")?;
                c.finish("fork-status")?;
                Ok(CtlRequest::ForkStatus { id })
            }
            OP_STATUS => empty_body(body, "status").map(|()| CtlRequest::Status),
            OP_PING => empty_body(body, "ping").map(|()| CtlRequest::Ping),
            OP_REPRICE => empty_body(body, "reprice").map(|()| CtlRequest::Reprice),
            OP_SHUTDOWN => empty_body(body, "shutdown").map(|()| CtlRequest::Shutdown),
            OP_DETACH => empty_body(body, "detach").map(|()| CtlRequest::Detach),
            other => Err(WireError::new(
                ErrorCode::UnknownOpcode,
                format!("unknown control opcode 0x{other:02x}"),
            )),
        }
    }
}

impl CtlReply {
    /// Serializes the reply into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            CtlReply::Ok(doc) => {
                let mut out = Vec::with_capacity(1 + doc.len());
                out.push(OP_OK);
                out.extend_from_slice(doc.as_bytes());
                out
            }
            CtlReply::Occupancy {
                total,
                offset,
                values,
            } => {
                let mut out = Vec::with_capacity(13 + values.len() * 8);
                out.push(OP_OCCUPANCY_REPLY);
                out.extend_from_slice(&total.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                push_f64s(&mut out, values);
                out
            }
            CtlReply::Pong => vec![OP_PONG],
            CtlReply::Event(line) => {
                let mut out = Vec::with_capacity(1 + line.len());
                out.push(OP_EVENT);
                out.extend_from_slice(line.as_bytes());
                out
            }
            CtlReply::Error { code, message } => encode_error(*code, message),
        }
    }

    /// Parses a frame payload into a reply, with typed rejection.
    pub fn decode(payload: &[u8]) -> Result<CtlReply, WireError> {
        let (&op, body) = payload
            .split_first()
            .ok_or_else(|| WireError::new(ErrorCode::Malformed, "empty reply frame"))?;
        let utf8 = |bytes: &[u8], what: &str| {
            String::from_utf8(bytes.to_vec())
                .map_err(|_| WireError::new(ErrorCode::Malformed, format!("{what}: invalid utf8")))
        };
        match op {
            OP_OK => Ok(CtlReply::Ok(utf8(body, "ok body")?)),
            OP_OCCUPANCY_REPLY => {
                let mut c = Cursor::new(body);
                let total = c.u32("occupancy total")?;
                let offset = c.u32("occupancy offset")?;
                let count = c.count("occupancy count", MAX_OCCUPANCY)?;
                let mut values = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    values.push(c.f64("occupancy value")?);
                }
                c.finish("occupancy reply")?;
                Ok(CtlReply::Occupancy {
                    total,
                    offset,
                    values,
                })
            }
            OP_PONG => empty_body(body, "pong").map(|()| CtlReply::Pong),
            OP_EVENT => Ok(CtlReply::Event(utf8(body, "event body")?)),
            OP_ERROR => decode_error(body).map(|(code, message)| CtlReply::Error { code, message }),
            other => Err(WireError::new(
                ErrorCode::UnknownOpcode,
                format!("unknown control reply opcode 0x{other:02x}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            CtlRequest::Subscribe {
                capacity: 256,
                filters: vec!["market.".into(), "net.shard.".into()],
            },
            CtlRequest::Snapshot,
            CtlRequest::Occupancy { offset: 3, len: 7 },
            CtlRequest::Pause,
            CtlRequest::Step { n: 5 },
            CtlRequest::Resume,
            CtlRequest::Fork,
            CtlRequest::ForkStatus { id: 2 },
            CtlRequest::Status,
            CtlRequest::Ping,
            CtlRequest::Reprice,
            CtlRequest::Shutdown,
            CtlRequest::Detach,
        ];
        for r in reqs {
            assert_eq!(CtlRequest::decode(&r.encode().unwrap()).unwrap(), r);
        }
    }

    #[test]
    fn replies_roundtrip_bit_exactly() {
        let replies = [
            CtlReply::Ok("{\"paused\":true}".into()),
            CtlReply::Occupancy {
                total: 30,
                offset: 4,
                values: vec![0.25, f64::NAN, 1.0],
            },
            CtlReply::Pong,
            CtlReply::Event("{\"seq\":7,\"name\":\"market.slot\"}".into()),
            CtlReply::Error {
                code: ErrorCode::Malformed,
                message: "nope".into(),
            },
        ];
        for r in replies {
            let back = CtlReply::decode(&r.encode()).unwrap();
            // NaN-safe comparison: compare through the encoded bytes.
            assert_eq!(back.encode(), r.encode());
        }
    }

    #[test]
    fn over_long_subscriptions_are_refused_not_truncated() {
        let subscribe = |filters: Vec<String>| CtlRequest::Subscribe {
            capacity: 16,
            filters,
        };
        let err = subscribe(vec!["market.".into(), "m".repeat(70_000)])
            .encode()
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
        assert!(
            err.message.contains("subscribe filter is 70000 bytes"),
            "{err}"
        );
        // A cut at 65,535 bytes would split the trailing `é`.
        let split = format!("{}é", "m".repeat(65_534));
        assert!(subscribe(vec![split]).encode().is_err());
        // More filters than the u16 count can carry.
        assert!(subscribe(vec![String::new(); 65_536]).encode().is_err());
        // The longest filter the prefix can carry still round-trips.
        let longest = subscribe(vec![format!("{}é", "m".repeat(65_533))]);
        let bytes = longest.encode().unwrap();
        assert_eq!(CtlRequest::decode(&bytes).unwrap(), longest);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(CtlRequest::decode(&[]).is_err());
        assert!(CtlRequest::decode(&[0x7B]).is_err());
        // Truncated step body.
        assert!(CtlRequest::decode(&[OP_STEP, 1, 0]).is_err());
        // Trailing junk after a full body.
        assert!(CtlRequest::decode(&[OP_PAUSE, 9]).is_err());
        // Filter count over the cap.
        let mut sub = vec![OP_SUBSCRIBE];
        sub.extend_from_slice(&16u32.to_le_bytes());
        sub.extend_from_slice(&(MAX_FILTERS + 1).to_le_bytes());
        assert!(CtlRequest::decode(&sub).is_err());
    }
}
