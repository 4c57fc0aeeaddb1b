//! Finite-difference stencil directions.
//!
//! The backward (HJB) stepper upwinds `∂_h V` and `∂_q V` in Eq. (20)
//! against the time-reversed characteristic speed; [`Derivative1d`] names
//! the one-sided stencil it picks at each cell.

/// Which one-sided stencil to use at a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Derivative1d {
    /// Backward difference `(f[i] − f[i−1]) / dx`.
    Backward,
    /// Forward difference `(f[i+1] − f[i]) / dx`.
    Forward,
}
