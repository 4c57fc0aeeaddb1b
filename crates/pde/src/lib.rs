//! Finite-difference PDE substrate for the MFG-CP reproduction.
//!
//! The paper's evaluation (§V-A) solves the coupled HJB (Eq. (20)) and FPK
//! (Eq. (15)) equations "with the finite difference method". This crate
//! implements that machinery from scratch:
//!
//! * [`Axis`] / [`Grid2d`] — uniform 1-D axes and their tensor-product grid
//!   over the game state `S = (h, q)`;
//! * [`Field1d`] / [`Field2d`] — dense scalar fields on those grids;
//! * [`FokkerPlanck2d`] — the forward, mass-conservative (flux-form,
//!   upwinded) advection–diffusion stepper for the mean-field density `λ`,
//!   with its 1-D counterpart [`FokkerPlanck1d`];
//! * [`BackwardParabolic2d`] — the backward, upwinded stepper for value
//!   functions `V`;
//! * [`StabilityLimit`] — CFL bookkeeping; both steppers sub-step
//!   automatically so callers can think in macro time steps;
//! * [`restrict_density`] / [`prolong`] — mass-conserving restriction and
//!   bilinear prolongation between a grid and its [`coarsen_grid`]
//!   coarsening, the substrate of the solver's coarse-to-fine
//!   continuation.
//!
//! The FPK kernels are written in conservative (flux) form, so total
//! probability mass is preserved to machine precision under reflecting
//! boundaries — this is the discrete counterpart of
//! `∬ λ dh dq = 1` below Eq. (14) and is enforced by property tests.
//!
//! # Example
//!
//! ```
//! use mfgcp_pde::{Axis, Field1d, FokkerPlanck1d};
//!
//! // A Gaussian density advected towards q = 0 with a little diffusion.
//! let axis = Axis::new(0.0, 1.0, 101).unwrap();
//! let mut lam = Field1d::from_fn(axis, |q| (-50.0 * (q - 0.7f64).powi(2)).exp());
//! lam.normalize();
//! let drift = vec![-0.4; 101];
//! let mut fpk = FokkerPlanck1d::new(0.005).unwrap();
//! for _ in 0..20 {
//!     fpk.step(&mut lam, &drift, 0.02);
//! }
//! assert!((lam.integral() - 1.0).abs() < 1e-10); // mass conserved
//! assert!(lam.first_moment() < 0.7);             // mean moved left
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod axis;
mod backward;
mod field;
mod fokker_planck;
mod ops;
mod scratch;
mod stability;
mod telemetry;
#[cfg(test)]
mod testing;
mod transfer;

pub use axis::{Axis, Grid2d};
pub use backward::BackwardParabolic2d;
pub use field::{Field1d, Field2d, Field2dView};
pub use fokker_planck::{FokkerPlanck1d, FokkerPlanck2d};
pub use ops::Derivative1d;
pub use scratch::StepperScratch;
pub use stability::StabilityLimit;
pub use telemetry::{CflStep, CflSummary};
pub use transfer::{coarsen_axis, coarsen_grid, mass, prolong, restrict_density, ulp_distance};

/// Errors from grid/solver construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PdeError {
    /// An axis needs at least two points.
    TooFewPoints {
        /// Points requested.
        n: usize,
    },
    /// An axis upper bound must exceed the lower bound.
    EmptyInterval {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A coefficient that must be non-negative was negative or non-finite.
    BadCoefficient {
        /// Name of the offending coefficient.
        name: &'static str,
        /// Value supplied.
        value: f64,
    },
    /// Field dimensions do not match the grid.
    ShapeMismatch {
        /// Expected number of values.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
}

impl core::fmt::Display for PdeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PdeError::TooFewPoints { n } => write!(f, "axis needs >= 2 points, got {n}"),
            PdeError::EmptyInterval { lo, hi } => {
                write!(f, "axis interval [{lo}, {hi}] is empty")
            }
            PdeError::BadCoefficient { name, value } => {
                write!(
                    f,
                    "coefficient `{name}` must be finite and >= 0, got {value}"
                )
            }
            PdeError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "field shape mismatch: expected {expected} values, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for PdeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(PdeError::TooFewPoints { n: 1 }.to_string().contains('1'));
        assert!(PdeError::EmptyInterval { lo: 1.0, hi: 0.0 }
            .to_string()
            .contains("empty"));
        assert!(PdeError::BadCoefficient {
            name: "d",
            value: -1.0
        }
        .to_string()
        .contains('d'));
        assert!(PdeError::ShapeMismatch {
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains("mismatch"));
    }
}
