//! Backward parabolic steppers for value functions.
//!
//! The HJB equation (Eq. (20)) after substituting the optimal control of
//! Thm. 1 is a semi-linear backward parabolic PDE
//!
//! `∂_t V + b_h ∂_h V + b_q ∂_q V + D_h ∂_hh V + D_q ∂_qq V + U = 0`
//!
//! with terminal data `V(T, ·)`. Stepping *backwards* from `t + dt` to `t`
//! is equivalent to stepping the time-reversed equation forwards, which is
//! stable explicitly provided the advection terms are upwinded against the
//! reversed characteristic speed (`−b`) and the step obeys the usual
//! advection–diffusion CFL bound — both handled internally, so callers use
//! macro steps aligned with the control-update grid of Alg. 2.

use mfgcp_obs::{OnceFlag, RecorderHandle};

use crate::axis::Grid2d;
use crate::field::Field2d;
use crate::ops::{select, Derivative1d};
use crate::stability::{abs_max, StabilityLimit};
use crate::telemetry::{report_nonfinite, CflStep};
use crate::PdeError;

fn check_diffusion(name: &'static str, d: f64) -> Result<f64, PdeError> {
    if !d.is_finite() || d < 0.0 {
        return Err(PdeError::BadCoefficient { name, value: d });
    }
    Ok(d)
}

/// Upwind direction for the term `+ b ∂V` in a *backward* equation: the
/// time-reversed advection speed is `−b`, so where `b > 0` the stencil
/// looks forward.
#[inline]
fn backward_upwind_dir(b: f64) -> Derivative1d {
    if b > 0.0 {
        Derivative1d::Forward
    } else {
        Derivative1d::Backward
    }
}

/// 2-D backward parabolic stepper over the `(h, q)` grid; the kernel of
/// the HJB sweep in Alg. 2 lines 4–5.
#[derive(Debug, Clone)]
pub struct BackwardParabolic2d {
    diffusion_x: f64,
    diffusion_y: f64,
    limit: StabilityLimit,
    recorder: RecorderHandle,
    nonfinite: OnceFlag,
}

impl BackwardParabolic2d {
    /// Create a stepper with per-axis diffusion coefficients
    /// `D_h = ½ϱ_h²`, `D_q = ½ϱ_q²`.
    ///
    /// # Errors
    ///
    /// Returns an error if either coefficient is negative or non-finite.
    pub fn new(diffusion_x: f64, diffusion_y: f64) -> Result<Self, PdeError> {
        Ok(Self {
            diffusion_x: check_diffusion("diffusion_x", diffusion_x)?,
            diffusion_y: check_diffusion("diffusion_y", diffusion_y)?,
            limit: StabilityLimit::default(),
            recorder: RecorderHandle::noop(),
            nonfinite: OnceFlag::new(),
        })
    }

    /// Attach a telemetry recorder: the first non-finite value surface
    /// entry then fires the `pde.hjb.nonfinite` sentinel (once per
    /// instance). The per-step CFL bookkeeping is returned by
    /// [`BackwardParabolic2d::step_back_scratch`] for the caller to fold.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Step `value` backwards by `dt` under drift fields `(bx, by)` and the
    /// running-reward `source` (all frozen across the step), sub-stepping
    /// inside the CFL bound, with a caller-owned [`crate::StepperScratch`]
    /// so repeated sweeps allocate nothing. Returns the step's CFL
    /// bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if any field is not on the value's grid.
    pub fn step_back_scratch(
        &self,
        value: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        source: &Field2d,
        dt: f64,
        scratch: &mut crate::StepperScratch,
    ) -> CflStep {
        assert_eq!(value.grid(), bx.grid(), "bx grid mismatch");
        assert_eq!(value.grid(), by.grid(), "by grid mismatch");
        assert_eq!(value.grid(), source.grid(), "source grid mismatch");
        let grid = value.grid().clone();
        let max_dt = self.limit.max_dt(&[
            (abs_max(bx.values()), self.diffusion_x, grid.x().dx()),
            (abs_max(by.values()), self.diffusion_y, grid.y().dx()),
        ]);
        let (n_sub, sub_dt) = self.limit.substeps(dt, max_dt);
        let next = scratch.buf_for(grid.len());
        for _ in 0..n_sub {
            self.substep(value, bx, by, source, sub_dt, &grid, next);
        }
        report_nonfinite(&self.recorder, &self.nonfinite, "pde.hjb.nonfinite", value);
        CflStep::new(max_dt, n_sub, sub_dt)
    }

    /// One explicit sub-step, row by row over row slices (no per-cell
    /// index math). The wall rows and wall columns run the per-cell
    /// expression with its boundary branches; the interior runs a
    /// branch-free loop over equal-length row slices that picks the
    /// upwind numerator before its one division, so it vectorises. Each
    /// cell's arithmetic is exactly that of the per-cell reference kept
    /// in the tests.
    #[allow(clippy::too_many_arguments)] // internal kernel: all fields are hot-loop state
    fn substep(
        &self,
        value: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        source: &Field2d,
        dt: f64,
        grid: &Grid2d,
        next: &mut [f64],
    ) {
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let (dx, dy) = (grid.x().dx(), grid.y().dx());
        let inv_dx2 = 1.0 / (dx * dx);
        let inv_dy2 = 1.0 / (dy * dy);
        let (diff_x, diff_y) = (self.diffusion_x, self.diffusion_y);
        // The per-cell expression at cell (i, j) of row `cur`, with
        // reflecting walls: upwinded first derivatives against the
        // reversed speed (a wall zeroes the gradient; an anti-upwind
        // fallback would violate the maximum principle) and zero-Neumann
        // second differences.
        let cell = |i: usize, j: usize, [up, cur, down]: [&[f64]; 3], [b_x, b_y, src]: [f64; 3]| {
            let v = cur[j];
            let grad_x = match backward_upwind_dir(b_x) {
                Derivative1d::Forward if i + 1 < nx => (down[j] - v) / dx,
                Derivative1d::Backward if i > 0 => (v - up[j]) / dx,
                _ => 0.0,
            };
            let grad_y = match backward_upwind_dir(b_y) {
                Derivative1d::Forward if j + 1 < ny => (cur[j + 1] - v) / dy,
                Derivative1d::Backward if j > 0 => (v - cur[j - 1]) / dy,
                _ => 0.0,
            };
            let lap_x = if i == 0 {
                (down[j] - v) * inv_dx2
            } else if i == nx - 1 {
                (up[j] - v) * inv_dx2
            } else {
                (up[j] - 2.0 * v + down[j]) * inv_dx2
            };
            let lap_y = if j == 0 {
                (cur[1] - v) * inv_dy2
            } else if j == ny - 1 {
                (cur[ny - 2] - v) * inv_dy2
            } else {
                (cur[j - 1] - 2.0 * v + cur[j + 1]) * inv_dy2
            };
            v + dt * (b_x * grad_x + b_y * grad_y + diff_x * lap_x + diff_y * lap_y + src)
        };
        let v = value.values();
        let rows = next
            .chunks_exact_mut(ny)
            .zip(bx.values().chunks_exact(ny))
            .zip(by.values().chunks_exact(ny))
            .zip(source.values().chunks_exact(ny))
            .enumerate();
        for (i, (((out, bx_row), by_row), src_row)) in rows {
            let row = |r: usize| &v[r * ny..(r + 1) * ny];
            let cur = row(i);
            // Neighbour rows; at a wall the missing one is never read, so
            // any row stands in for it.
            let up = if i > 0 { row(i - 1) } else { cur };
            let down = if i + 1 < nx { row(i + 1) } else { cur };
            if i == 0 || i + 1 == nx {
                for j in 0..ny {
                    out[j] = cell(i, j, [up, cur, down], [bx_row[j], by_row[j], src_row[j]]);
                }
                continue;
            }
            for j in [0, ny - 1] {
                out[j] = cell(i, j, [up, cur, down], [bx_row[j], by_row[j], src_row[j]]);
            }
            let coeffs = [dt, dx, dy, inv_dx2, inv_dy2, diff_x, diff_y];
            interior_row(coeffs, out, [up, cur, down], bx_row, by_row, src_row);
        }
        value.values_mut().copy_from_slice(next);
    }
}

/// Columns `1..ny − 1` of an interior row (empty when `ny = 2`), branch
/// free: the upwind numerator is selected before the one division. Every
/// slice is cut to one length `n` first, so the loop carries no bounds
/// checks, and as a function of its own the slices keep the no-alias
/// facts LLVM needs to vectorise it. `coeffs` is `[dt, dx, dy, 1/dx²,
/// 1/dy², D_x, D_y]`.
#[inline]
fn interior_row(
    coeffs: [f64; 7],
    out: &mut [f64],
    [up, cur, down]: [&[f64]; 3],
    bx: &[f64],
    by: &[f64],
    src: &[f64],
) {
    let [dt, dx, dy, inv_dx2, inv_dy2, diff_x, diff_y] = coeffs;
    let n = cur.len() - 2;
    let (left, mid, right) = (&cur[..n], &cur[1..=n], &cur[2..]);
    let (up, down) = (&up[1..=n], &down[1..=n]);
    let (bx, by, src) = (&bx[1..=n], &by[1..=n], &src[1..=n]);
    let out = &mut out[1..=n];
    for j in 0..n {
        let v = mid[j];
        let (b_x, b_y) = (bx[j], by[j]);
        let grad_x = select(b_x > 0.0, down[j] - v, v - up[j]) / dx;
        let grad_y = select(b_y > 0.0, right[j] - v, v - left[j]) / dy;
        let lap_x = (up[j] - 2.0 * v + down[j]) * inv_dx2;
        let lap_y = (left[j] - 2.0 * v + right[j]) * inv_dy2;
        out[j] = v + dt * (b_x * grad_x + b_y * grad_y + diff_x * lap_x + diff_y * lap_y + src[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use crate::testing::{kernel_cases, noise};
    use crate::StepperScratch;

    fn axis(lo: f64, hi: f64, n: usize) -> Axis {
        Axis::new(lo, hi, n).unwrap()
    }

    #[test]
    fn heat_kernel_smooths_2d() {
        let grid = Grid2d::new(axis(0.0, 1.0, 31), axis(0.0, 1.0, 31));
        let stepper = BackwardParabolic2d::new(0.01, 0.01).unwrap();
        let mut v = Field2d::from_fn(grid.clone(), |x, y| {
            (-200.0 * ((x - 0.5).powi(2) + (y - 0.5).powi(2))).exp()
        });
        let zero = Field2d::zeros(grid.clone());
        let max0 = v.max();
        let mut scratch = StepperScratch::new();
        for _ in 0..10 {
            stepper.step_back_scratch(&mut v, &zero, &zero, &zero, 0.02, &mut scratch);
        }
        assert!(v.max() < max0, "diffusion should lower the peak");
        assert!(v.min() > -1e-12, "maximum principle violated");
    }

    #[test]
    fn source_accumulates_2d() {
        let grid = Grid2d::new(axis(0.0, 1.0, 9), axis(0.0, 1.0, 9));
        let stepper = BackwardParabolic2d::new(0.0, 0.0).unwrap();
        let mut v = Field2d::zeros(grid.clone());
        let zero = Field2d::zeros(grid.clone());
        let src = Field2d::from_fn(grid, |x, _| 1.0 + x);
        let mut scratch = StepperScratch::new();
        for _ in 0..5 {
            stepper.step_back_scratch(&mut v, &zero, &zero, &src, 0.2, &mut scratch);
        }
        // V(0) = T · (1 + x) with T = 1.
        for i in 0..9 {
            for j in 0..9 {
                let x = v.grid().x().at(i);
                assert!((v.at(i, j) - (1.0 + x)).abs() < 1e-10);
            }
        }
    }

    /// The per-cell form of [`BackwardParabolic2d`]'s sub-step, through
    /// `Field2d::at` and `Grid2d::index`: the reference the row-slice
    /// kernel must match bit for bit.
    fn substep_reference(
        stepper: &BackwardParabolic2d,
        value: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        source: &Field2d,
        dt: f64,
    ) {
        let grid = value.grid().clone();
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let (dx, dy) = (grid.x().dx(), grid.y().dx());
        let inv_dx2 = 1.0 / (dx * dx);
        let inv_dy2 = 1.0 / (dy * dy);
        let mut next = vec![0.0; grid.len()];
        for i in 0..nx {
            for j in 0..ny {
                let v = value.at(i, j);
                let b_x = bx.at(i, j);
                let b_y = by.at(i, j);
                let grad_x = match backward_upwind_dir(b_x) {
                    Derivative1d::Forward if i + 1 < nx => (value.at(i + 1, j) - v) / dx,
                    Derivative1d::Backward if i > 0 => (v - value.at(i - 1, j)) / dx,
                    _ => 0.0,
                };
                let grad_y = match backward_upwind_dir(b_y) {
                    Derivative1d::Forward if j + 1 < ny => (value.at(i, j + 1) - v) / dy,
                    Derivative1d::Backward if j > 0 => (v - value.at(i, j - 1)) / dy,
                    _ => 0.0,
                };
                let lap_x = if i == 0 {
                    (value.at(1, j) - v) * inv_dx2
                } else if i == nx - 1 {
                    (value.at(nx - 2, j) - v) * inv_dx2
                } else {
                    (value.at(i - 1, j) - 2.0 * v + value.at(i + 1, j)) * inv_dx2
                };
                let lap_y = if j == 0 {
                    (value.at(i, 1) - v) * inv_dy2
                } else if j == ny - 1 {
                    (value.at(i, ny - 2) - v) * inv_dy2
                } else {
                    (value.at(i, j - 1) - 2.0 * v + value.at(i, j + 1)) * inv_dy2
                };
                next[grid.index(i, j)] = v + dt
                    * (b_x * grad_x
                        + b_y * grad_y
                        + stepper.diffusion_x * lap_x
                        + stepper.diffusion_y * lap_y
                        + source.at(i, j));
            }
        }
        value.values_mut().copy_from_slice(&next);
    }

    #[test]
    fn row_slice_substep_matches_per_cell_reference_to_0_ulp() {
        for (grid, bx, by) in
            kernel_cases(|nx, ny| Grid2d::new(axis(1.0, 2.0, nx), axis(0.0, 1.0, ny)))
        {
            let (nx, ny) = (grid.x().len(), grid.y().len());
            let stepper = BackwardParabolic2d::new(0.003, 0.007).unwrap();
            let src = Field2d::from_fn(grid.clone(), |x, y| 3.0 * x - y * y);
            let v0 = Field2d::from_values(
                grid.clone(),
                (0..grid.len())
                    .map(|k| 5.0 * noise(3, k / ny, k % ny))
                    .collect(),
            )
            .unwrap();
            for n_sub in [1, 3] {
                let (mut kernel, mut reference) = (v0.clone(), v0.clone());
                let mut next = vec![0.0; grid.len()];
                for _ in 0..n_sub {
                    stepper.substep(&mut kernel, &bx, &by, &src, 0.004, &grid, &mut next);
                    substep_reference(&stepper, &mut reference, &bx, &by, &src, 0.004);
                }
                for (k, (a, b)) in kernel.values().iter().zip(reference.values()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{nx}x{ny}, {n_sub} substeps, cell {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_diffusion_rejected() {
        assert!(BackwardParabolic2d::new(0.1, -0.2).is_err());
    }
}
