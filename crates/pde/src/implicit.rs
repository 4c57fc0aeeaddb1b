//! Implicit (backward-Euler) Fokker–Planck steppers built on the Thomas
//! solver — unconditionally stable alternatives to the explicit
//! CFL-sub-stepped kernels in [`crate::FokkerPlanck1d`] /
//! [`crate::FokkerPlanck2d`].
//!
//! The 1-D step solves the finite-volume system
//!
//! `λ^{n+1}_i + (Δt/Δx)(F_{i+1/2}(λ^{n+1}) − F_{i−1/2}(λ^{n+1})) = λ^n_i`
//!
//! with the same upwind face flux as the explicit kernel
//! (`F = b⁺λ_L + b⁻λ_R − D(λ_R − λ_L)/Δx`) and zero-flux walls. Because
//! the flux sum telescopes for *any* `λ^{n+1}`, total mass is conserved
//! exactly at every step size — no CFL restriction. The 2-D stepper applies
//! Lie (sequential) directional splitting: an implicit x-sweep per column,
//! then an implicit y-sweep per row; first-order in time like the rest of
//! the discretization.

use crate::axis::Grid2d;
use crate::field::{Field1d, Field2d};
use crate::linalg::solve_tridiagonal_into;
use crate::scratch::TriScratch;
use crate::PdeError;

fn check_diffusion(name: &'static str, d: f64) -> Result<f64, PdeError> {
    if !d.is_finite() || d < 0.0 {
        return Err(PdeError::BadCoefficient { name, value: d });
    }
    Ok(d)
}

/// Assemble and solve one implicit 1-D finite-volume step in place.
///
/// `values` holds `λ^n` on entry and `λ^{n+1}` on exit; `drift` is nodal.
fn implicit_sweep(
    values: &mut [f64],
    drift: &[f64],
    diffusion: f64,
    dt: f64,
    dx: f64,
    tri: &mut TriScratch,
) {
    let n = values.len();
    debug_assert!(n >= 2);
    let r = dt / dx;
    let d_over = diffusion / dx;
    let (lower, diag, upper, c_star) = tri.bands(n);
    lower.fill(0.0);
    diag.fill(1.0);
    upper.fill(0.0);
    // Face i+1/2 couples cells i and i+1. Accumulate each face's
    // contribution into the two balance equations it appears in.
    for i in 0..n - 1 {
        let b_face = 0.5 * (drift[i] + drift[i + 1]);
        let b_plus = b_face.max(0.0);
        let b_minus = b_face.min(0.0);
        // F_{i+1/2} = b⁺λ_i + b⁻λ_{i+1} − D(λ_{i+1} − λ_i)/Δx
        //           = (b⁺ + D/Δx) λ_i + (b⁻ − D/Δx) λ_{i+1}.
        let c_left = b_plus + d_over;
        let c_right = b_minus - d_over;
        // Row i: + (Δt/Δx)·F_{i+1/2}.
        diag[i] += r * c_left;
        upper[i] += r * c_right;
        // Row i+1: − (Δt/Δx)·F_{i+1/2}.
        lower[i + 1] -= r * c_left;
        diag[i + 1] -= r * c_right;
    }
    solve_tridiagonal_into(lower, diag, upper, values, c_star);
}

/// Unconditionally stable implicit 1-D Fokker–Planck stepper.
#[derive(Debug, Clone)]
pub struct ImplicitFokkerPlanck1d {
    diffusion: f64,
}

impl ImplicitFokkerPlanck1d {
    /// Create a stepper with diffusion coefficient `D = ½ϱ²`.
    ///
    /// # Errors
    ///
    /// Returns an error if `diffusion` is negative or non-finite.
    pub fn new(diffusion: f64) -> Result<Self, PdeError> {
        Ok(Self {
            diffusion: check_diffusion("diffusion", diffusion)?,
        })
    }

    /// Advance `density` by `dt` in a single implicit solve (no CFL bound).
    ///
    /// # Panics
    ///
    /// Panics if `drift.len()` mismatches the density.
    pub fn step(&self, density: &mut Field1d, drift: &[f64], dt: f64) {
        let n = density.values().len();
        assert_eq!(drift.len(), n, "drift length mismatch");
        let dx = density.axis().dx();
        let mut tri = TriScratch::default();
        implicit_sweep(
            density.values_mut(),
            drift,
            self.diffusion,
            dt,
            dx,
            &mut tri,
        );
    }
}

/// Unconditionally stable implicit 2-D Fokker–Planck stepper with Lie
/// directional splitting.
#[derive(Debug, Clone)]
pub struct ImplicitFokkerPlanck2d {
    diffusion_x: f64,
    diffusion_y: f64,
}

impl ImplicitFokkerPlanck2d {
    /// Create a stepper with per-axis diffusion coefficients.
    ///
    /// # Errors
    ///
    /// Returns an error if either coefficient is negative or non-finite.
    pub fn new(diffusion_x: f64, diffusion_y: f64) -> Result<Self, PdeError> {
        Ok(Self {
            diffusion_x: check_diffusion("diffusion_x", diffusion_x)?,
            diffusion_y: check_diffusion("diffusion_y", diffusion_y)?,
        })
    }

    /// Advance `density` by `dt`: one implicit x-sweep per column, then one
    /// implicit y-sweep per row.
    ///
    /// # Panics
    ///
    /// Panics if drift fields are not on the density's grid.
    pub fn step(&self, density: &mut Field2d, bx: &Field2d, by: &Field2d, dt: f64) {
        self.step_scratch(density, bx, by, dt, &mut crate::StepperScratch::new());
    }

    /// [`ImplicitFokkerPlanck2d::step`] with a caller-owned
    /// [`crate::StepperScratch`] so repeated steps allocate nothing
    /// beyond the Thomas solves.
    ///
    /// # Panics
    ///
    /// Panics if drift fields are not on the density's grid.
    pub fn step_scratch(
        &self,
        density: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        dt: f64,
        scratch: &mut crate::StepperScratch,
    ) {
        assert_eq!(density.grid(), bx.grid(), "bx grid mismatch");
        assert_eq!(density.grid(), by.grid(), "by grid mismatch");
        let grid: Grid2d = density.grid().clone();
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let (dx, dy) = (grid.x().dx(), grid.y().dx());

        let (col, col_drift, row_drift, tri) = scratch.lie_buffers(nx, ny);

        // X-direction sweeps (one tridiagonal solve per j-column).
        for j in 0..ny {
            for i in 0..nx {
                col[i] = density.at(i, j);
                col_drift[i] = bx.at(i, j);
            }
            implicit_sweep(col, col_drift, self.diffusion_x, dt, dx, tri);
            for (i, &v) in col.iter().enumerate() {
                density.set(i, j, v);
            }
        }
        // Y-direction sweeps (rows are contiguous in memory).
        for i in 0..nx {
            for (j, rd) in row_drift.iter_mut().enumerate() {
                *rd = by.at(i, j);
            }
            let start = grid.index(i, 0);
            implicit_sweep(
                &mut density.values_mut()[start..start + ny],
                row_drift,
                self.diffusion_y,
                dt,
                dy,
                tri,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use crate::fokker_planck::{FokkerPlanck1d, FokkerPlanck2d};

    fn axis(lo: f64, hi: f64, n: usize) -> Axis {
        Axis::new(lo, hi, n).unwrap()
    }

    fn gaussian(ax: Axis, mean: f64, sd: f64) -> Field1d {
        let mut f = Field1d::from_fn(ax, |x| {
            let z = (x - mean) / sd;
            (-0.5 * z * z).exp()
        });
        f.normalize();
        f
    }

    #[test]
    fn implicit_1d_conserves_mass_at_any_dt() {
        let stepper = ImplicitFokkerPlanck1d::new(0.02).unwrap();
        let drift: Vec<f64> = (0..81).map(|i| 0.5 - 0.01 * i as f64).collect();
        for &dt in &[0.001, 0.1, 10.0] {
            let mut lam = gaussian(axis(0.0, 1.0, 81), 0.7, 0.1);
            let m0 = lam.integral();
            for _ in 0..10 {
                stepper.step(&mut lam, &drift, dt);
            }
            assert!(
                (lam.integral() - m0).abs() < 1e-10,
                "dt = {dt}: {}",
                lam.integral()
            );
        }
    }

    #[test]
    fn implicit_1d_is_nonnegative_even_at_huge_dt() {
        // Backward Euler with an M-matrix system preserves positivity;
        // the explicit scheme would blow up at this dt.
        let stepper = ImplicitFokkerPlanck1d::new(0.01).unwrap();
        let drift = vec![-0.4; 61];
        let mut lam = gaussian(axis(0.0, 1.0, 61), 0.5, 0.05);
        for _ in 0..5 {
            stepper.step(&mut lam, &drift, 5.0);
        }
        assert!(lam.values().iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn implicit_matches_explicit_at_small_dt() {
        let diffusion = 0.004;
        let implicit = ImplicitFokkerPlanck1d::new(diffusion).unwrap();
        let mut explicit = FokkerPlanck1d::new(diffusion).unwrap();
        let drift = vec![-0.3; 101];
        let mut a = gaussian(axis(0.0, 1.0, 101), 0.7, 0.1);
        let mut b = a.clone();
        let dt = 5e-4;
        for _ in 0..400 {
            implicit.step(&mut a, &drift, dt);
            explicit.step(&mut b, &drift, dt);
        }
        assert!(a.sup_distance(&b) < 5e-3, "dist {}", a.sup_distance(&b));
    }

    #[test]
    fn implicit_1d_reaches_ou_stationary_density() {
        // Large steps straight to the stationary law — the whole point of
        // the implicit scheme.
        let theta = 4.0;
        let mu = 0.5;
        let varrho = 0.2;
        let stepper = ImplicitFokkerPlanck1d::new(0.5 * varrho * varrho).unwrap();
        let ax = axis(-0.5, 1.5, 201);
        let drift: Vec<f64> = ax.coords().iter().map(|&x| theta * (mu - x)).collect();
        let mut lam = gaussian(ax.clone(), 1.0, 0.05);
        for _ in 0..60 {
            stepper.step(&mut lam, &drift, 0.5);
        }
        let mean = lam.first_moment() / lam.integral();
        assert!((mean - mu).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn implicit_2d_conserves_mass_and_matches_explicit() {
        let gx = axis(0.0, 1.0, 17);
        let gy = axis(0.0, 1.0, 25);
        let grid = Grid2d::new(gx, gy);
        let mut lam = Field2d::from_fn(grid.clone(), |x, y| {
            (-40.0 * ((x - 0.5).powi(2) + (y - 0.6).powi(2))).exp()
        });
        lam.normalize();
        let bx = Field2d::from_fn(grid.clone(), |x, _| 0.2 * (0.5 - x));
        let by = Field2d::from_fn(grid, |_, y| -0.3 * y);
        let implicit = ImplicitFokkerPlanck2d::new(0.003, 0.005).unwrap();
        let explicit = FokkerPlanck2d::new(0.003, 0.005).unwrap();

        let mut a = lam.clone();
        let mut b = lam.clone();
        let m0 = lam.integral();
        for _ in 0..50 {
            implicit.step(&mut a, &bx, &by, 0.01);
            explicit.step(&mut b, &bx, &by, 0.01);
        }
        assert!(
            (a.integral() - m0).abs() < 1e-10,
            "implicit mass {}",
            a.integral()
        );
        // Splitting + backward-Euler smearing vs the explicit reference:
        // compare relative to the density peak (~8 on this grid).
        let rel = a.sup_distance(&b) / b.max();
        assert!(rel < 0.03, "relative dist {rel}");
        // And it stays sane at a dt the explicit scheme would reject via
        // hundreds of sub-steps.
        implicit.step(&mut a, &bx, &by, 50.0);
        assert!((a.integral() - m0).abs() < 1e-10);
        assert!(a.min() >= -1e-12);
    }

    #[test]
    fn invalid_diffusion_rejected() {
        assert!(ImplicitFokkerPlanck1d::new(-0.1).is_err());
        assert!(ImplicitFokkerPlanck2d::new(0.1, f64::NAN).is_err());
    }
}
