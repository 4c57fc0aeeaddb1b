//! Reusable workspace for the 2-D steppers.
//!
//! Both 2-D steppers need a grid-sized update buffer per step. The plain
//! `step`/`step_back` entry points allocate it on each call, which is fine
//! for one-shot use but wasteful inside the Picard loop of Alg. 2 where the
//! same stepper runs `time_steps × iterations` times. [`StepperScratch`]
//! lets such callers own the buffer once and thread it through the
//! `*_scratch` variants.

/// Caller-owned scratch buffer for the 2-D steppers' `*_scratch` entry
/// points. One instance can be shared across both 2-D steppers (the buffer
/// is resized on demand and carries no state between calls).
#[derive(Debug, Clone, Default)]
pub struct StepperScratch {
    /// Grid-sized update buffer.
    buf: Vec<f64>,
}

impl StepperScratch {
    /// A fresh, empty workspace (the buffer grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn buf_for(&mut self, len: usize) -> &mut [f64] {
        self.buf.resize(len, 0.0);
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Axis, BackwardParabolic2d, Field2d, FokkerPlanck2d, Grid2d};

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
        // One shared workspace across both steppers, reused over steps.
        let mut scratch = StepperScratch::new();

        let fpk = FokkerPlanck2d::new(0.003, 0.005).unwrap();
        let (mut a, mut b) = (lam.clone(), lam.clone());
        for _ in 0..5 {
            fpk.step(&mut a, &bx, &by, 0.01);
            fpk.step_scratch(&mut b, &bx, &by, 0.01, &mut scratch);
        }
        assert_eq!(a.values(), b.values());

        let back = BackwardParabolic2d::new(0.003, 0.005).unwrap();
        let (mut a, mut b) = (lam.clone(), lam);
        for _ in 0..5 {
            back.step_back(&mut a, &bx, &by, &src, 0.01);
            back.step_back_scratch(&mut b, &bx, &by, &src, 0.01, &mut scratch);
        }
        assert_eq!(a.values(), b.values());
    }
}
