//! Forward Fokker–Planck–Kolmogorov steppers in conservative flux form.
//!
//! Eq. (15) of the paper is the FPK equation for the mean-field density
//! `λ(S_k(t))` under the channel drift `½ς_h(υ_h − h)` and the controlled
//! caching drift `Q_k[−w₁x − w₂Π + w₃ξ^L]`. We discretize the equivalent
//! conservative form
//!
//! `∂_t λ + ∂_h(b_h λ) + ∂_q(b_q λ) = ½ϱ_h² ∂_hh λ + ½ϱ_q² ∂_qq λ`
//!
//! with a finite-volume upwind flux: the face flux between cells `i` and
//! `i+1` is `F = b⁺λ_i + b⁻λ_{i+1} − D (λ_{i+1} − λ_i)/Δ` with
//! `b = ½(b_i + b_{i+1})`, and domain boundary faces carry zero flux
//! (reflecting walls — `q` can neither leave `[0, Q_k]` nor can `h` leave
//! its band). Total mass `Σ λ · cell` is then conserved *exactly*, the
//! discrete counterpart of `∬ λ dh dq = 1`.

use mfgcp_obs::{OnceFlag, RecorderHandle};

use crate::axis::Grid2d;
use crate::field::{Field1d, Field2d};
use crate::ops::select;
use crate::stability::{abs_max, StabilityLimit};
use crate::telemetry::{report_nonfinite, CflStep};
use crate::PdeError;

fn check_diffusion(name: &'static str, d: f64) -> Result<f64, PdeError> {
    if !d.is_finite() || d < 0.0 {
        return Err(PdeError::BadCoefficient { name, value: d });
    }
    Ok(d)
}

/// Upwind face flux between two adjacent cells. The upstream density is
/// selected before the one product, so the flux is branch-free.
#[inline]
fn face_flux(b_face: f64, left: f64, right: f64, d: f64, dx: f64) -> f64 {
    b_face * select(b_face > 0.0, left, right) - d * (right - left) / dx
}

/// 1-D forward Fokker–Planck stepper: the conservative scheme of the
/// `ablation_fpk_form` comparison and the validation target for the 2-D
/// kernel.
#[derive(Debug, Clone)]
pub struct FokkerPlanck1d {
    diffusion: f64,
    limit: StabilityLimit,
    /// Scratch: face fluxes (len = n − 1).
    flux: Vec<f64>,
}

impl FokkerPlanck1d {
    /// Create a stepper with diffusion coefficient `D = ½ϱ²`.
    ///
    /// # Errors
    ///
    /// Returns an error if `diffusion` is negative or non-finite.
    pub fn new(diffusion: f64) -> Result<Self, PdeError> {
        Ok(Self {
            diffusion: check_diffusion("diffusion", diffusion)?,
            limit: StabilityLimit::default(),
            flux: Vec::new(),
        })
    }

    /// Advance `density` by `dt` under nodal `drift` values, automatically
    /// sub-stepping to stay within the CFL bound.
    ///
    /// # Panics
    ///
    /// Panics if `drift.len()` does not match the density length.
    pub fn step(&mut self, density: &mut Field1d, drift: &[f64], dt: f64) {
        let n = density.values().len();
        assert_eq!(drift.len(), n, "drift length mismatch");
        let dx = density.axis().dx();
        let max_dt = self.limit.max_dt_1d(abs_max(drift), self.diffusion, dx);
        let (n_sub, sub_dt) = self.limit.substeps(dt, max_dt);
        for _ in 0..n_sub {
            self.substep(density, drift, sub_dt);
        }
    }

    fn substep(&mut self, density: &mut Field1d, drift: &[f64], dt: f64) {
        let dx = density.axis().dx();
        let lam = density.values();
        let n = lam.len();
        self.flux.clear();
        self.flux.reserve(n - 1);
        for i in 0..n - 1 {
            let b_face = 0.5 * (drift[i] + drift[i + 1]);
            self.flux
                .push(face_flux(b_face, lam[i], lam[i + 1], self.diffusion, dx));
        }
        let scale = dt / dx;
        let values = density.values_mut();
        for (i, v) in values.iter_mut().enumerate() {
            let f_right = if i + 1 < n { self.flux[i] } else { 0.0 };
            let f_left = if i > 0 { self.flux[i - 1] } else { 0.0 };
            *v -= scale * (f_right - f_left);
        }
    }
}

/// 2-D forward Fokker–Planck stepper over the `(h, q)` grid; the kernel of
/// the mean-field evolution in Alg. 2 line 8.
#[derive(Debug, Clone)]
pub struct FokkerPlanck2d {
    diffusion_x: f64,
    diffusion_y: f64,
    limit: StabilityLimit,
    recorder: RecorderHandle,
    nonfinite: OnceFlag,
}

impl FokkerPlanck2d {
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

    /// Attach a telemetry recorder: the first non-finite density value
    /// then fires the `pde.fpk.nonfinite` sentinel (once per stepper
    /// instance). The per-step CFL bookkeeping is returned by
    /// [`FokkerPlanck2d::step_scratch`] for the caller to fold.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Advance `density` by `dt` under drift fields `(bx, by)`,
    /// sub-stepping inside the CFL bound, with a caller-owned
    /// [`crate::StepperScratch`] so repeated steps (e.g. the Picard loop
    /// of Alg. 2) allocate nothing. Returns the step's CFL bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if the drift fields are not on the density's grid.
    pub fn step_scratch(
        &self,
        density: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        dt: f64,
        scratch: &mut crate::StepperScratch,
    ) -> CflStep {
        assert_eq!(density.grid(), bx.grid(), "bx grid mismatch");
        assert_eq!(density.grid(), by.grid(), "by grid mismatch");
        let grid = density.grid().clone();
        let max_dt = self.limit.max_dt(&[
            (abs_max(bx.values()), self.diffusion_x, grid.x().dx()),
            (abs_max(by.values()), self.diffusion_y, grid.y().dx()),
        ]);
        let (n_sub, sub_dt) = self.limit.substeps(dt, max_dt);
        let ny = grid.y().len();
        let (delta, flux) = scratch.buf_for(grid.len() + ny).split_at_mut(grid.len());
        for _ in 0..n_sub {
            self.substep(density, bx, by, sub_dt, &grid, delta, &mut flux[..ny - 1]);
        }
        report_nonfinite(
            &self.recorder,
            &self.nonfinite,
            "pde.fpk.nonfinite",
            density,
        );
        CflStep::new(max_dt, n_sub, sub_dt)
    }

    /// One explicit sub-step over row slices (no per-cell index math),
    /// written as branch-free loops that vectorise: the upwind choice is
    /// a select of the face's upstream density before its one product.
    /// Each face flux, and the order in which the fluxes accumulate into
    /// a cell's `delta` (x-faces low then high, then y-faces low then
    /// high, starting from 0.0), is exactly that of the per-cell
    /// reference kept in the tests. `flux` is a scratch row of `ny − 1`
    /// scaled y-face fluxes.
    #[allow(clippy::too_many_arguments)] // internal kernel: all fields are hot-loop state
    fn substep(
        &self,
        density: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        dt: f64,
        grid: &Grid2d,
        delta: &mut [f64],
        flux: &mut [f64],
    ) {
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let (dx, dy) = (grid.x().dx(), grid.y().dx());
        delta.fill(0.0);

        // X-direction face fluxes between rows i and i + 1.
        let scale_x = dt / dx;
        let (lam, bx) = (density.values(), bx.values());
        for i in 0..nx - 1 {
            let rows = i * ny..(i + 2) * ny;
            let (lam_lo, lam_hi) = lam[rows.clone()].split_at(ny);
            let (bx_lo, bx_hi) = bx[rows.clone()].split_at(ny);
            let (d_lo, d_hi) = delta[rows].split_at_mut(ny);
            let faces = bx_lo.iter().zip(bx_hi).zip(lam_lo.iter().zip(lam_hi));
            for (((&b_lo, &b_hi), (&left, &right)), (d_lo, d_hi)) in
                faces.zip(d_lo.iter_mut().zip(d_hi.iter_mut()))
            {
                let f = scale_x * face_flux(0.5 * (b_lo + b_hi), left, right, self.diffusion_x, dx);
                *d_lo -= f;
                *d_hi += f;
            }
        }
        // Y-direction face fluxes between (i, j) and (i, j + 1), row by
        // row: the row's scaled fluxes first, then each cell's delta
        // `(d + f[j − 1]) − f[j]` (the walls lack one term), which is final
        // and applied right away.
        let scale_y = dt / dy;
        let rows = density
            .values_mut()
            .chunks_exact_mut(ny)
            .zip(by.values().chunks_exact(ny))
            .zip(delta.chunks_exact(ny));
        for ((lam_row, by_row), d_row) in rows {
            let faces = by_row.windows(2).zip(lam_row.windows(2));
            for (f, (b, l)) in flux.iter_mut().zip(faces) {
                *f = scale_y * face_flux(0.5 * (b[0] + b[1]), l[0], l[1], self.diffusion_y, dy);
            }
            lam_row[0] += d_row[0] - flux[0];
            let inner = lam_row[1..ny - 1]
                .iter_mut()
                .zip(&d_row[1..ny - 1])
                .zip(flux.iter().zip(&flux[1..]));
            for ((v, &d), (&f_lo, &f_hi)) in inner {
                *v += (d + f_lo) - f_hi;
            }
            lam_row[ny - 1] += d_row[ny - 1] + flux[ny - 2];
        }
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

    fn gaussian_field(ax: Axis, mean: f64, sd: f64) -> Field1d {
        let mut f = Field1d::from_fn(ax, |x| {
            let z = (x - mean) / sd;
            (-0.5 * z * z).exp()
        });
        f.normalize();
        f
    }

    /// Supremum-norm distance between two fields on one axis.
    fn sup_distance(a: &Field1d, b: &Field1d) -> f64 {
        let pairs = a.values().iter().zip(b.values());
        pairs.fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn mass_is_conserved_1d() {
        let mut fpk = FokkerPlanck1d::new(0.02).unwrap();
        let mut lam = gaussian_field(axis(0.0, 1.0, 81), 0.7, 0.1);
        let drift: Vec<f64> = vec![-0.3; 81];
        let m0 = lam.integral();
        for _ in 0..50 {
            fpk.step(&mut lam, &drift, 0.02);
        }
        assert!(
            (lam.integral() - m0).abs() < 1e-12,
            "mass drifted: {}",
            lam.integral()
        );
    }

    #[test]
    fn density_stays_nonnegative_1d() {
        let mut fpk = FokkerPlanck1d::new(0.01).unwrap();
        let mut lam = gaussian_field(axis(0.0, 1.0, 61), 0.5, 0.05);
        let drift: Vec<f64> = (0..61)
            .map(|i| if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        for _ in 0..100 {
            fpk.step(&mut lam, &drift, 0.01);
        }
        assert!(
            lam.values().iter().all(|&v| v >= -1e-12),
            "negative density"
        );
    }

    #[test]
    fn advection_transports_the_mean_1d() {
        // With pure advection b = 0.2, the mean moves by b·t.
        let mut fpk = FokkerPlanck1d::new(0.0).unwrap();
        let mut lam = gaussian_field(axis(0.0, 2.0, 401), 0.5, 0.08);
        let drift = vec![0.2; 401];
        let mean0 = lam.first_moment();
        let t = 1.0;
        for _ in 0..100 {
            fpk.step(&mut lam, &drift, t / 100.0);
        }
        let mean1 = lam.first_moment();
        assert!(
            (mean1 - mean0 - 0.2).abs() < 0.01,
            "mean moved {}",
            mean1 - mean0
        );
    }

    #[test]
    fn ou_relaxes_to_analytic_stationary_density_1d() {
        // dX = θ(μ − X)dt + ϱ dW has stationary N(μ, ϱ²/(2θ)).
        let theta = 4.0;
        let mu = 0.5;
        let varrho = 0.2;
        let d = 0.5 * varrho * varrho;
        let mut fpk = FokkerPlanck1d::new(d).unwrap();
        let ax = axis(-0.5, 1.5, 201);
        let mut lam = gaussian_field(ax.clone(), 1.0, 0.05);
        let drift: Vec<f64> = ax.coords().iter().map(|&x| theta * (mu - x)).collect();
        for _ in 0..400 {
            fpk.step(&mut lam, &drift, 0.01);
        }
        let sd = (varrho * varrho / (2.0 * theta)).sqrt();
        let reference = gaussian_field(ax, mu, sd);
        let dist = sup_distance(&lam, &reference);
        assert!(dist < 0.25, "sup dist {dist}");
        // Moments are a sharper check than pointwise density values.
        assert!((lam.first_moment() - mu).abs() < 0.01);
    }

    #[test]
    fn mass_is_conserved_2d() {
        let gx = axis(0.0, 1.0, 21);
        let gy = axis(0.0, 1.0, 31);
        let grid = Grid2d::new(gx, gy);
        let mut lam = Field2d::from_fn(grid.clone(), |x, y| {
            (-30.0 * ((x - 0.5).powi(2) + (y - 0.6).powi(2))).exp()
        });
        lam.normalize();
        let bx = Field2d::from_fn(grid.clone(), |_x, _y| 0.1);
        let by = Field2d::from_fn(grid, |_x, y| -0.2 * y);
        let fpk = FokkerPlanck2d::new(0.005, 0.01).unwrap();
        let m0 = lam.integral();
        let mut scratch = StepperScratch::new();
        for _ in 0..40 {
            fpk.step_scratch(&mut lam, &bx, &by, 0.025, &mut scratch);
        }
        assert!(
            (lam.integral() - m0).abs() < 1e-10,
            "mass drifted: {}",
            lam.integral()
        );
        assert!(
            lam.values().iter().all(|&v| v >= -1e-12),
            "negative density"
        );
    }

    #[test]
    fn marginal_of_2d_matches_1d_dynamics() {
        // With x-independent drift/diffusion in y and zero dynamics in x,
        // the y-marginal must follow the 1-D equation.
        let gx = axis(0.0, 1.0, 5);
        let gy = axis(0.0, 1.0, 101);
        let grid = Grid2d::new(gx, gy.clone());
        let mut lam2 = Field2d::from_fn(grid.clone(), |_x, y| {
            let z = (y - 0.7) / 0.1;
            (-0.5 * z * z).exp()
        });
        lam2.normalize();
        let bx = Field2d::zeros(grid.clone());
        let drift_y = -0.3;
        let by = Field2d::from_fn(grid, |_x, _y| drift_y);
        let fpk2 = FokkerPlanck2d::new(0.0, 0.004).unwrap();

        let mut lam1 = gaussian_field(gy, 0.7, 0.1);
        let mut fpk1 = FokkerPlanck1d::new(0.004).unwrap();
        let drift1 = vec![drift_y; 101];

        let mut scratch = StepperScratch::new();
        for _ in 0..30 {
            fpk2.step_scratch(&mut lam2, &bx, &by, 0.01, &mut scratch);
            fpk1.step(&mut lam1, &drift1, 0.01);
        }
        let marg = lam2.marginal_y();
        // Same initial data, same scheme → the agreement should be tight.
        let dist = sup_distance(&marg, &lam1);
        assert!(dist < 1e-8, "dist {dist}");
    }

    /// The per-cell form of [`FokkerPlanck2d`]'s sub-step, through
    /// `Field2d::at` and `Grid2d::index`: the reference the row-slice
    /// kernel must match bit for bit.
    fn substep_reference(
        fpk: &FokkerPlanck2d,
        density: &mut Field2d,
        bx: &Field2d,
        by: &Field2d,
        dt: f64,
    ) {
        let grid = density.grid().clone();
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let (dx, dy) = (grid.x().dx(), grid.y().dx());
        let mut delta = vec![0.0; grid.len()];
        let scale_x = dt / dx;
        for i in 0..nx - 1 {
            for j in 0..ny {
                let b_face = 0.5 * (bx.at(i, j) + bx.at(i + 1, j));
                let f = face_flux(
                    b_face,
                    density.at(i, j),
                    density.at(i + 1, j),
                    fpk.diffusion_x,
                    dx,
                );
                delta[grid.index(i, j)] -= scale_x * f;
                delta[grid.index(i + 1, j)] += scale_x * f;
            }
        }
        let scale_y = dt / dy;
        for i in 0..nx {
            for j in 0..ny - 1 {
                let b_face = 0.5 * (by.at(i, j) + by.at(i, j + 1));
                let f = face_flux(
                    b_face,
                    density.at(i, j),
                    density.at(i, j + 1),
                    fpk.diffusion_y,
                    dy,
                );
                delta[grid.index(i, j)] -= scale_y * f;
                delta[grid.index(i, j + 1)] += scale_y * f;
            }
        }
        for (v, d) in density.values_mut().iter_mut().zip(delta.iter()) {
            *v += d;
        }
    }

    #[test]
    fn row_slice_substep_matches_per_cell_reference_to_0_ulp() {
        for (grid, bx, by) in
            kernel_cases(|nx, ny| Grid2d::new(axis(1.0, 2.0, nx), axis(0.0, 1.0, ny)))
        {
            let (nx, ny) = (grid.x().len(), grid.y().len());
            let fpk = FokkerPlanck2d::new(0.003, 0.007).unwrap();
            let mut lam0 = Field2d::from_values(
                grid.clone(),
                (0..grid.len())
                    .map(|k| 1.0 + noise(3, k / ny, k % ny))
                    .collect(),
            )
            .unwrap();
            lam0.normalize();
            for n_sub in [1, 3] {
                let (mut kernel, mut reference) = (lam0.clone(), lam0.clone());
                let mut delta = vec![0.0; grid.len()];
                let mut flux = vec![0.0; ny - 1];
                for _ in 0..n_sub {
                    fpk.substep(&mut kernel, &bx, &by, 0.004, &grid, &mut delta, &mut flux);
                    substep_reference(&fpk, &mut reference, &bx, &by, 0.004);
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
    fn negative_diffusion_rejected() {
        assert!(FokkerPlanck1d::new(-0.1).is_err());
        assert!(FokkerPlanck2d::new(0.1, f64::NAN).is_err());
    }
}
