//! Reusable workspace for the 2-D steppers.
//!
//! Every 2-D stepper needs per-step temporaries (the explicit kernels a
//! grid-sized update buffer, the implicit Lie-split kernels strided column
//! copies). The plain `step`/`step_back` entry points allocate them on each
//! call, which is fine for one-shot use but wasteful inside the Picard loop
//! of Alg. 2 where the same stepper runs `time_steps × iterations` times.
//! [`StepperScratch`] lets such callers own the temporaries once and thread
//! them through the `*_scratch` variants.

/// Scratch for one allocation-free scalar Thomas sweep: the three bands,
/// plus the solver's `c_star` elimination row. Owned by [`StepperScratch`]
/// for the 2-D steppers; the 1-D steppers build a short-lived one per step
/// (they allocated per step before, too).
#[derive(Debug, Clone, Default)]
pub(crate) struct TriScratch {
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
    c_star: Vec<f64>,
}

impl TriScratch {
    /// Bands and `c_star` sized for an `n`-row system, in
    /// `(lower, diag, upper, c_star)` order. Contents are stale; the
    /// assembly code fills them.
    pub(crate) fn bands(&mut self, n: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        self.lower.resize(n, 0.0);
        self.diag.resize(n, 0.0);
        self.upper.resize(n, 0.0);
        self.c_star.resize(n, 0.0);
        (
            &mut self.lower,
            &mut self.diag,
            &mut self.upper,
            &mut self.c_star,
        )
    }
}

/// Caller-owned scratch buffers for the 2-D steppers' `*_scratch` entry
/// points. One instance can be shared across *all* three 2-D steppers (the
/// buffers are resized on demand and carry no state between calls).
#[derive(Debug, Clone, Default)]
pub struct StepperScratch {
    /// Grid-sized update buffer (explicit kernels).
    buf: Vec<f64>,
    /// Column copy for the implicit x-sweeps (length `nx`).
    col: Vec<f64>,
    /// Column drift copy for the implicit x-sweeps (length `nx`).
    col_drift: Vec<f64>,
    /// Row drift copy for the implicit y-sweeps (length `ny`).
    row_drift: Vec<f64>,
    /// Bands + `c_star` for the implicit sweeps.
    tri: TriScratch,
}

impl StepperScratch {
    /// A fresh, empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn buf_for(&mut self, len: usize) -> &mut [f64] {
        self.buf.resize(len, 0.0);
        &mut self.buf
    }

    pub(crate) fn lie_buffers(
        &mut self,
        nx: usize,
        ny: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64], &mut TriScratch) {
        self.col.resize(nx, 0.0);
        self.col_drift.resize(nx, 0.0);
        self.row_drift.resize(ny, 0.0);
        (
            &mut self.col,
            &mut self.col_drift,
            &mut self.row_drift,
            &mut self.tri,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Axis, BackwardParabolic2d, Field2d, FokkerPlanck2d, Grid2d, ImplicitFokkerPlanck2d,
    };

    fn grid() -> Grid2d {
        Grid2d::new(
            Axis::new(0.0, 1.0, 13).unwrap(),
            Axis::new(0.0, 1.0, 19).unwrap(),
        )
    }

    #[test]
    fn scratch_variants_are_bit_identical_to_allocating_ones() {
        let g = grid();
        let mut lam = Field2d::from_fn(g.clone(), |x, y| {
            (-30.0 * ((x - 0.4).powi(2) + (y - 0.6).powi(2))).exp()
        });
        lam.normalize();
        let bx = Field2d::from_fn(g.clone(), |x, _| 0.3 * (0.5 - x));
        let by = Field2d::from_fn(g.clone(), |_, y| -0.2 * y);
        let src = Field2d::from_fn(g, |x, y| x + 0.5 * y);
        // One shared workspace across all three steppers, reused over steps.
        let mut scratch = StepperScratch::new();

        let fpk = FokkerPlanck2d::new(0.003, 0.005).unwrap();
        let (mut a, mut b) = (lam.clone(), lam.clone());
        for _ in 0..5 {
            fpk.step(&mut a, &bx, &by, 0.01);
            fpk.step_scratch(&mut b, &bx, &by, 0.01, &mut scratch);
        }
        assert_eq!(a.values(), b.values());

        let back = BackwardParabolic2d::new(0.003, 0.005).unwrap();
        let (mut a, mut b) = (lam.clone(), lam.clone());
        for _ in 0..5 {
            back.step_back(&mut a, &bx, &by, &src, 0.01);
            back.step_back_scratch(&mut b, &bx, &by, &src, 0.01, &mut scratch);
        }
        assert_eq!(a.values(), b.values());

        let ifpk = ImplicitFokkerPlanck2d::new(0.003, 0.005).unwrap();
        let (mut a, mut b) = (lam.clone(), lam);
        for _ in 0..5 {
            ifpk.step(&mut a, &bx, &by, 0.05);
            ifpk.step_scratch(&mut b, &bx, &by, 0.05, &mut scratch);
        }
        assert_eq!(a.values(), b.values());
    }
}
