//! Stochastic differential equation substrate for the MFG-CP reproduction.
//!
//! The paper models two sources of randomness, both as Itô diffusions:
//!
//! * the channel fading coefficient `h_{i,j}(t)` follows a mean-reverting
//!   Ornstein–Uhlenbeck process (Eq. (1)):
//!   `dh = ½ς_h(υ_h − h) dt + ϱ_h dW`,
//! * the remaining caching space `q_{i,k}(t)` follows a controlled drift
//!   plus Brownian noise (Eq. (4)).
//!
//! This crate provides the generic machinery both need: seedable Gaussian
//! sampling (implemented in-tree — `rand_distr` is deliberately not a
//! dependency), Brownian increments, a generic [`Sde`] trait with an
//! Euler–Maruyama integrator that records [`SamplePath`]s, and an exact
//! Ornstein–Uhlenbeck transition sampler.
//!
//! # Example
//!
//! ```
//! use mfgcp_sde::{OrnsteinUhlenbeck, EulerMaruyama, Sde};
//!
//! // Eq. (1) with ς_h = 2, υ_h = 5e-5, ϱ_h = 1e-6.
//! let ou = OrnsteinUhlenbeck::new(2.0, 5.0e-5, 1.0e-6).unwrap();
//! let path = EulerMaruyama::new(1e-3)
//!     .integrate(&ou, 8.0e-5, 0.0, 1.0, &mut mfgcp_sde::seeded_rng(7));
//! // The path reverts towards the long-term mean υ_h.
//! assert!((path.last_value() - 5.0e-5).abs() < 4.0e-5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod brownian;
mod gaussian;
mod integrate;
mod ou;
mod path;
mod process;

pub use brownian::BrownianIncrements;
pub use gaussian::{Normal, StandardNormal};
pub use integrate::EulerMaruyama;
pub use ou::OrnsteinUhlenbeck;
pub use path::SamplePath;
pub use process::Sde;

/// Error type for invalid SDE parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum SdeError {
    /// A parameter that must be strictly positive was not.
    NonPositive {
        /// Name of the offending parameter.
        name: &'static str,
        /// The value supplied.
        value: f64,
    },
    /// A parameter was not finite (NaN or infinite).
    NonFinite {
        /// Name of the offending parameter.
        name: &'static str,
    },
}

impl core::fmt::Display for SdeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SdeError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be > 0, got {value}")
            }
            SdeError::NonFinite { name } => {
                write!(f, "parameter `{name}` must be finite")
            }
        }
    }
}

impl std::error::Error for SdeError {}

pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, SdeError> {
    if !value.is_finite() {
        return Err(SdeError::NonFinite { name });
    }
    if value <= 0.0 {
        return Err(SdeError::NonPositive { name, value });
    }
    Ok(value)
}

pub(crate) fn require_finite(name: &'static str, value: f64) -> Result<f64, SdeError> {
    if !value.is_finite() {
        return Err(SdeError::NonFinite { name });
    }
    Ok(value)
}

/// A deterministic, seedable RNG used across the workspace.
///
/// Every stochastic component in this reproduction takes an explicit RNG so
/// experiments are reproducible bit-for-bit given a seed.
pub type SimRng = rand::rngs::StdRng;

/// Construct the workspace-standard RNG from a seed.
pub fn seeded_rng(seed: u64) -> SimRng {
    use rand::SeedableRng;
    SimRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        use rand::RngExt as _;
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn require_positive_rejects_bad_values() {
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", -1.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_positive("x", f64::INFINITY).is_err());
        assert_eq!(require_positive("x", 2.0), Ok(2.0));
    }

    #[test]
    fn error_display_is_informative() {
        let e = SdeError::NonPositive {
            name: "sigma",
            value: -1.0,
        };
        assert!(e.to_string().contains("sigma"));
        let e = SdeError::NonFinite { name: "mu" };
        assert!(e.to_string().contains("mu"));
    }
}
