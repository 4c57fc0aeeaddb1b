//! Content/workload substrate for the MFG-CP reproduction.
//!
//! Implements the edge-caching workload model of §II-B:
//!
//! * [`Zipf`] initial content popularity (Def. 1:
//!   `Π_k(t₀) = k^{−ι} / Σ k^{−ι}`);
//! * the request-driven popularity update of Eq. (3) in [`Popularity`];
//! * content timeliness `L_k` (Def. 2) aggregated from per-requester
//!   requirements in [`Timeliness`];
//! * per-slot request generation ([`RequestProcess`]), either synthetic or
//!   trace-driven;
//! * the trace layer ([`trace`]): a synthetic YouTube-like category trace
//!   (the substitution for the Kaggle "Trending YouTube Video Statistics"
//!   dataset — see `DESIGN.md` §3) plus a CSV loader accepting the real
//!   Kaggle schema so the genuine dataset can be dropped in.
//!
//! # Example
//!
//! ```
//! use mfgcp_workload::{Popularity, RequestProcess, TimelinessConfig};
//!
//! // Zipf prior over 5 contents (Def. 1), updated by a slot of requests
//! // (Eq. (3)) generated from a trace-weighted request process.
//! let process = RequestProcess::new(
//!     0.5,
//!     vec![4.0, 2.0, 1.0, 1.0, 1.0],
//!     TimelinessConfig::default(),
//! ).unwrap();
//! let mut rng = mfgcp_sde::seeded_rng(7);
//! let batch = process.generate(100, &mut rng);
//! let mut popularity = Popularity::zipf(5, 0.8).unwrap();
//! popularity.update(&batch.counts);
//! let total: f64 = popularity.all().iter().sum();
//! assert!((total - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod popularity;
mod requests;
mod timeliness;
pub mod trace;
mod zipf;

pub use popularity::Popularity;
pub use requests::{RequestBatch, RequestProcess};
pub use timeliness::{Timeliness, TimelinessConfig};
pub use zipf::Zipf;

/// Errors from workload construction and trace parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A parameter that must be strictly positive was not.
    NonPositive {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied.
        value: f64,
    },
    /// The catalog must contain at least one content.
    EmptyCatalog,
    /// A CSV trace line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl core::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorkloadError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be > 0, got {value}")
            }
            WorkloadError::EmptyCatalog => write!(f, "catalog must contain at least one content"),
            WorkloadError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(WorkloadError::EmptyCatalog.to_string().contains("catalog"));
        assert!(WorkloadError::NonPositive {
            name: "iota",
            value: 0.0
        }
        .to_string()
        .contains("iota"));
        assert!(WorkloadError::Parse {
            line: 3,
            message: "bad".into()
        }
        .to_string()
        .contains("line 3"));
    }
}
