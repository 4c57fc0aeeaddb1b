//! Typed errors for the artifact store, the wire protocol and the client.
//!
//! Every rejection path is a distinct variant so callers (and tests) can
//! assert *why* a load or a request failed rather than pattern-matching on
//! message strings: a truncated file, a flipped CRC bit and a bumped
//! format version are different failures and are reported as such.

use std::fmt;
use std::io;

use mfgcp_core::CoreError;

use crate::protocol::ErrorCode;

/// Failure while saving or loading an equilibrium artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying filesystem error (open, write, sync, rename, read).
    Io(io::Error),
    /// The file does not start with the `MFGCPEQ\0` magic.
    BadMagic {
        /// The first bytes actually found (up to 8).
        found: Vec<u8>,
    },
    /// The format version byte is one this build cannot decode.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u16,
        /// Version this build writes and reads.
        supported: u16,
    },
    /// The CRC-32 trailer does not match the file contents.
    CrcMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum recomputed over the body.
        computed: u32,
    },
    /// The file ends before a declared section is complete.
    Truncated {
        /// Byte offset at which the reader stopped.
        at: usize,
        /// Bytes still required by the section being read.
        needed: usize,
        /// Which section was being read.
        section: &'static str,
    },
    /// The params fingerprint stored in the header does not match the
    /// fingerprint recomputed from the decoded params block.
    FingerprintMismatch {
        /// Fingerprint stored in the header.
        stored: u64,
        /// Fingerprint recomputed on load.
        computed: u64,
    },
    /// The non-finite payload count in the header disagrees with the
    /// decoded trajectories.
    NonFiniteCountMismatch {
        /// Count stored in the header.
        stored: u64,
        /// Count recomputed on load.
        computed: u64,
    },
    /// Bytes remain after the CRC-verified body was fully decoded.
    TrailingBytes {
        /// Number of unexpected extra bytes.
        extra: usize,
    },
    /// A decoded section is internally inconsistent (for example the grid
    /// axes in the file disagree with the params block).
    Inconsistent {
        /// Human-readable description of the inconsistency.
        message: String,
    },
    /// The decoded parts were rejected by `mfgcp-core` validation.
    Core(CoreError),
    /// The artifact is intact, but its convergence report says the solve
    /// stopped without converging: a live server refuses to install it.
    NotConverged {
        /// Iterations the solve ran before it stopped.
        iterations: usize,
        /// The last recorded residual, if the report carries any.
        residual: Option<f64>,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::BadMagic { found } => {
                write!(f, "not an mfgcp equilibrium artifact (magic {found:02X?})")
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported artifact format version {found} (this build reads version {supported})"
            ),
            ArtifactError::CrcMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: trailer {stored:#010X}, computed {computed:#010X}"
            ),
            ArtifactError::Truncated {
                at,
                needed,
                section,
            } => write!(
                f,
                "artifact truncated at byte {at}: {section} needs {needed} more byte(s)"
            ),
            ArtifactError::FingerprintMismatch { stored, computed } => write!(
                f,
                "params fingerprint mismatch: header {stored:#018X}, recomputed {computed:#018X}"
            ),
            ArtifactError::NonFiniteCountMismatch { stored, computed } => write!(
                f,
                "non-finite payload count mismatch: header {stored}, recomputed {computed}"
            ),
            ArtifactError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected byte(s) after artifact body")
            }
            ArtifactError::Inconsistent { message } => {
                write!(f, "inconsistent artifact: {message}")
            }
            ArtifactError::Core(e) => write!(f, "artifact rejected by core validation: {e}"),
            ArtifactError::NotConverged {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "artifact refused: its solve stopped unconverged after {iterations} iteration(s)"
                )?;
                match residual {
                    Some(r) => write!(f, ", last residual {r:.3e}"),
                    None => Ok(()),
                }
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<CoreError> for ArtifactError {
    fn from(e: CoreError) -> Self {
        ArtifactError::Core(e)
    }
}

/// Failure while reading one length-prefixed frame from a stream.
#[derive(Debug)]
pub enum FrameReadError {
    /// Underlying socket error (including read timeouts).
    Io(io::Error),
    /// The declared frame length exceeds the configured bound.
    TooLong {
        /// Length declared by the prefix.
        declared: u32,
        /// Maximum the reader accepts.
        max: u32,
    },
    /// The stream ended mid-prefix or mid-payload.
    Truncated {
        /// Bytes actually received of the current section.
        got: usize,
        /// Bytes the section required.
        want: usize,
    },
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame io error: {e}"),
            FrameReadError::TooLong { declared, max } => {
                write!(f, "frame length {declared} exceeds maximum {max}")
            }
            FrameReadError::Truncated { got, want } => {
                write!(f, "frame truncated: got {got} of {want} byte(s)")
            }
        }
    }
}

impl std::error::Error for FrameReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

/// A malformed frame payload: carries the protocol error code the server
/// sends back in its `Error` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable rejection code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds a wire error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Failure on the client side of the protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The request could not be encoded (a string too long for its
    /// length prefix); nothing was sent.
    Encode(WireError),
    /// The reply frame could not be read.
    Frame(FrameReadError),
    /// The reply payload could not be decoded.
    Wire(WireError),
    /// The server answered with a protocol-level error reply.
    Server(WireError),
    /// The server answered with a reply of the wrong kind.
    Unexpected {
        /// Description of what arrived.
        got: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io error: {e}"),
            ClientError::Encode(e) => write!(f, "client encode error: {e}"),
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Wire(e) => write!(f, "client decode error: {e}"),
            ClientError::Server(e) => write!(f, "server rejected request: {e}"),
            ClientError::Unexpected { got } => write!(f, "unexpected reply kind: {got}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Encode(e) | ClientError::Wire(e) | ClientError::Server(e) => Some(e),
            ClientError::Unexpected { .. } => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        ClientError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        let e = ArtifactError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = ArtifactError::CrcMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum mismatch"));
        let e = ArtifactError::Truncated {
            at: 10,
            needed: 4,
            section: "policy",
        };
        assert!(e.to_string().contains("policy"));
        let e = ArtifactError::NotConverged {
            iterations: 40,
            residual: Some(0.25),
        };
        assert!(e.to_string().contains("unconverged after 40"));
        let e = FrameReadError::TooLong {
            declared: 99,
            max: 10,
        };
        assert!(e.to_string().contains("99"));
        let e = ClientError::Server(WireError::new(ErrorCode::UnknownOpcode, "op 0x55"));
        assert!(e.to_string().contains("0x55"));
    }
}
