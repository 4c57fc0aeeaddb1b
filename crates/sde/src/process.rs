//! The generic Itô diffusion trait.
//!
//! The game's state dynamics (Eqs. (1) and (4)) are scalar Itô diffusions
//! `dX = b(t, X) dt + σ(t, X) dW`; [`Sde`] is what the Euler–Maruyama
//! integrator steps.

/// A scalar time-inhomogeneous Itô diffusion `dX = b(t, X) dt + σ(t, X) dW`.
pub trait Sde {
    /// Drift coefficient `b(t, x)`.
    fn drift(&self, t: f64, x: f64) -> f64;

    /// Diffusion coefficient `σ(t, x)`.
    fn diffusion(&self, t: f64, x: f64) -> f64;
}
