//! Finite-difference stencil directions.
//!
//! The backward (HJB) stepper upwinds `∂_h V` and `∂_q V` in Eq. (20)
//! against the time-reversed characteristic speed; [`Derivative1d`] names
//! the one-sided stencil it picks at each cell; the branch-free kernels
//! pick it with [`select`].

/// Which one-sided stencil to use at a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Derivative1d {
    /// Backward difference `(f[i] − f[i−1]) / dx`.
    Backward,
    /// Forward difference `(f[i+1] − f[i]) / dx`.
    Forward,
}

/// `if take_a { a } else { b }` as a bitwise blend. The result is one of
/// the operands bit for bit, as with the branch, but the blend is integer
/// `and`/`or` work: LLVM's cost model for the baseline x86-64 target
/// (SSE2, no `blendvpd`) rates a loop with a floating-point select as not
/// worth vectorising, and one with this blend as worth it.
#[inline(always)]
pub(crate) fn select(take_a: bool, a: f64, b: f64) -> f64 {
    let mask = u64::from(take_a).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_returns_an_operand_bit_for_bit() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        for (a, b) in [(1.5, -2.0), (-0.0, 0.0), (0.0, -0.0), (nan, f64::INFINITY)] {
            assert_eq!(select(true, a, b).to_bits(), a.to_bits());
            assert_eq!(select(false, a, b).to_bits(), b.to_bits());
        }
    }
}
