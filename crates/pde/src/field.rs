//! Dense scalar fields over the grids.

use std::sync::Arc;

use crate::axis::{Axis, Grid2d};
use crate::PdeError;

/// A scalar field sampled on a 1-D [`Axis`].
#[derive(Debug, Clone, PartialEq)]
pub struct Field1d {
    axis: Axis,
    values: Vec<f64>,
}

impl Field1d {
    /// A field filled from a function of the coordinate.
    pub fn from_fn(axis: Axis, f: impl Fn(f64) -> f64) -> Self {
        let values = (0..axis.len()).map(|i| f(axis.at(i))).collect();
        Self { axis, values }
    }

    /// A field from explicit values.
    ///
    /// # Errors
    ///
    /// Returns [`PdeError::ShapeMismatch`] if `values.len() != axis.len()`.
    pub fn from_values(axis: Axis, values: Vec<f64>) -> Result<Self, PdeError> {
        if values.len() != axis.len() {
            return Err(PdeError::ShapeMismatch {
                expected: axis.len(),
                actual: values.len(),
            });
        }
        Ok(Self { axis, values })
    }

    /// The underlying axis.
    pub fn axis(&self) -> &Axis {
        &self.axis
    }

    /// Field values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable field values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Linear interpolation at coordinate `x` (clamped to the axis range).
    pub fn interpolate(&self, x: f64) -> f64 {
        let (i, w) = self.axis.locate(x);
        (1.0 - w) * self.values[i] + w * self.values[i + 1]
    }

    /// Cell-sum integral `Σ f_i · dx`.
    ///
    /// The Fokker–Planck stepper treats grid values as cell masses of a
    /// finite-volume discretization (each node owns a cell of width `dx`),
    /// so the plain Riemann sum — not the trapezoid — is the exactly
    /// conserved quantity; `Field2d::integral` follows the same convention.
    pub fn integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.axis.dx()
    }

    /// First moment `∫ x f(x) dx` (same cell-sum convention as
    /// [`Field1d::integral`]).
    pub fn first_moment(&self) -> f64 {
        let dx = self.axis.dx();
        let moment: f64 = (0..self.values.len())
            .map(|i| self.axis.at(i) * self.values[i])
            .sum();
        dx * moment
    }

    /// Normalize so that [`Field1d::integral`] is 1; no-op when the integral
    /// is zero or non-finite.
    pub fn normalize(&mut self) {
        let total = self.integral();
        if total.is_finite() && total > 0.0 {
            let inv = 1.0 / total;
            for v in &mut self.values {
                *v *= inv;
            }
        }
    }
}

/// A borrowed, read-only view of a scalar field on a [`Grid2d`]: a grid
/// reference plus a row-major value slice that need not be owned by a
/// [`Field2d`] at all (the serve-side artifact store builds views straight
/// over memory-mapped file bytes).
///
/// [`Field2d::interpolate`] delegates to [`Field2dView::interpolate`], so
/// a lookup through a view is bit-identical (0 ULP) to a lookup through
/// the owning field by construction, not by coincidence.
#[derive(Debug, Clone, Copy)]
pub struct Field2dView<'a> {
    grid: &'a Grid2d,
    values: &'a [f64],
}

impl<'a> Field2dView<'a> {
    /// A view over `values` laid out row-major on `grid`.
    ///
    /// # Errors
    ///
    /// Returns [`PdeError::ShapeMismatch`] on a length mismatch.
    #[inline]
    pub fn new(grid: &'a Grid2d, values: &'a [f64]) -> Result<Self, PdeError> {
        if values.len() != grid.len() {
            return Err(PdeError::ShapeMismatch {
                expected: grid.len(),
                actual: values.len(),
            });
        }
        Ok(Self { grid, values })
    }

    /// Value at `(i, j)`.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.values[self.grid.index(i, j)]
    }

    /// Bilinear interpolation at `(x, y)` (clamped to the grid).
    ///
    /// This is *the* interpolation kernel: [`Field2d::interpolate`] calls
    /// it, so owned and borrowed lookups share one code path.
    #[inline]
    pub fn interpolate(&self, x: f64, y: f64) -> f64 {
        let (i, wx) = self.grid.x().locate(x);
        let (j, wy) = self.grid.y().locate(y);
        let f00 = self.at(i, j);
        let f01 = self.at(i, j + 1);
        let f10 = self.at(i + 1, j);
        let f11 = self.at(i + 1, j + 1);
        (1.0 - wx) * ((1.0 - wy) * f00 + wy * f01) + wx * ((1.0 - wy) * f10 + wy * f11)
    }
}

/// A scalar field sampled on a [`Grid2d`], stored row-major
/// (`x`-index major, `y`-index minor).
///
/// The grid is held behind an [`Arc`] so the many per-time-step planes of
/// an equilibrium trajectory can share one allocation instead of cloning
/// the axes once per plane (see [`Field2d::from_shared`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Field2d {
    grid: Arc<Grid2d>,
    values: Vec<f64>,
}

impl Field2d {
    /// A zero field on `grid`.
    pub fn zeros(grid: Grid2d) -> Self {
        let n = grid.len();
        Self {
            grid: Arc::new(grid),
            values: vec![0.0; n],
        }
    }

    /// A field filled from a function of the coordinates `(x, y)`.
    pub fn from_fn(grid: Grid2d, f: impl Fn(f64, f64) -> f64) -> Self {
        let (nx, ny) = (grid.x().len(), grid.y().len());
        let mut values = Vec::with_capacity(nx * ny);
        for i in 0..nx {
            let x = grid.x().at(i);
            for j in 0..ny {
                values.push(f(x, grid.y().at(j)));
            }
        }
        Self {
            grid: Arc::new(grid),
            values,
        }
    }

    /// A field from explicit row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`PdeError::ShapeMismatch`] on a length mismatch.
    pub fn from_values(grid: Grid2d, values: Vec<f64>) -> Result<Self, PdeError> {
        Self::from_shared(Arc::new(grid), values)
    }

    /// A field from explicit row-major values on an already-shared grid —
    /// the allocation-flat constructor for trajectory loaders that build
    /// hundreds of planes over one grid.
    ///
    /// # Errors
    ///
    /// Returns [`PdeError::ShapeMismatch`] on a length mismatch.
    pub fn from_shared(grid: Arc<Grid2d>, values: Vec<f64>) -> Result<Self, PdeError> {
        if values.len() != grid.len() {
            return Err(PdeError::ShapeMismatch {
                expected: grid.len(),
                actual: values.len(),
            });
        }
        Ok(Self { grid, values })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid2d {
        &self.grid
    }

    /// The shared grid handle (cloning it is one refcount bump, not an
    /// axis copy).
    pub fn shared_grid(&self) -> &Arc<Grid2d> {
        &self.grid
    }

    /// A borrowed view of this field (see [`Field2dView`]).
    #[inline]
    pub fn as_view(&self) -> Field2dView<'_> {
        Field2dView {
            grid: &self.grid,
            values: &self.values,
        }
    }

    /// Raw row-major values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values[self.grid.index(i, j)]
    }

    /// Set value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let idx = self.grid.index(i, j);
        self.values[idx] = v;
    }

    /// Bilinear interpolation at `(x, y)` (clamped to the grid).
    #[inline]
    pub fn interpolate(&self, x: f64, y: f64) -> f64 {
        self.as_view().interpolate(x, y)
    }

    /// Cell-sum integral `ΣΣ f · dx·dy`.
    ///
    /// The FPK stepper treats grid values as cell masses of a finite-volume
    /// discretization, so a plain Riemann sum (not trapezoid) is the
    /// conserved quantity.
    pub fn integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.grid.cell_area()
    }

    /// Weighted integral `ΣΣ w(x,y) f · dx·dy`.
    pub fn weighted_integral(&self, w: impl Fn(f64, f64) -> f64) -> f64 {
        let (nx, ny) = (self.grid.x().len(), self.grid.y().len());
        let mut acc = 0.0;
        for i in 0..nx {
            let x = self.grid.x().at(i);
            for j in 0..ny {
                acc += w(x, self.grid.y().at(j)) * self.at(i, j);
            }
        }
        acc * self.grid.cell_area()
    }

    /// Marginal over the first axis: `g(y_j) = Σ_i f(x_i, y_j) dx`.
    pub fn marginal_y(&self) -> Field1d {
        let (nx, ny) = (self.grid.x().len(), self.grid.y().len());
        let dx = self.grid.x().dx();
        let mut out = vec![0.0; ny];
        for i in 0..nx {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.at(i, j);
            }
        }
        for o in &mut out {
            *o *= dx;
        }
        Field1d::from_values(self.grid.y().clone(), out).expect("lengths match")
    }

    /// Normalize so that [`Field2d::integral`] is 1; no-op when the integral
    /// is zero or non-finite.
    pub fn normalize(&mut self) {
        let total = self.integral();
        if total.is_finite() && total > 0.0 {
            let inv = 1.0 / total;
            for v in &mut self.values {
                *v *= inv;
            }
        }
    }

    /// Supremum-norm distance to another field on the same grid.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn sup_distance(&self, other: &Self) -> f64 {
        assert_eq!(self.grid, other.grid, "fields live on different grids");
        self.values
            .iter()
            .zip(&other.values)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Minimum value of the field.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value of the field.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(n: usize) -> Axis {
        Axis::new(0.0, 1.0, n).unwrap()
    }

    fn grid() -> Grid2d {
        Grid2d::new(axis(5), axis(9))
    }

    #[test]
    fn field1d_integral_of_constant() {
        // Cell-sum convention: 101 cells of width 0.01 each holding 2.0.
        let f = Field1d::from_fn(axis(101), |_| 2.0);
        assert!((f.integral() - 2.02).abs() < 1e-12);
    }

    #[test]
    fn field1d_first_moment_of_linear() {
        // ∫₀¹ x·x dx = 1/3 with f(x) = x.
        let f = Field1d::from_fn(axis(1001), |x| x);
        assert!((f.first_moment() - 1.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn field1d_interpolation() {
        let f = Field1d::from_fn(axis(5), |x| x * x);
        // Linear interp between 0.25²=0.0625 and 0.5²=0.25 at midpoint.
        assert!((f.interpolate(0.375) - 0.15625).abs() < 1e-12);
        assert_eq!(f.interpolate(-1.0), 0.0);
        assert_eq!(f.interpolate(2.0), 1.0);
    }

    #[test]
    fn field1d_normalize_makes_unit_mass() {
        let mut f = Field1d::from_fn(axis(51), |x| 1.0 + x);
        f.normalize();
        assert!((f.integral() - 1.0).abs() < 1e-12);
        // Normalizing a zero field is a no-op, not a NaN factory.
        let mut z = Field1d::from_fn(axis(5), |_| 0.0);
        z.normalize();
        assert!(z.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn field2d_from_fn_layout() {
        let f = Field2d::from_fn(grid(), |x, y| 10.0 * x + y);
        assert_eq!(f.at(0, 0), 0.0);
        assert!((f.at(1, 2) - (10.0 * 0.25 + 0.25)).abs() < 1e-12);
        assert!((f.at(4, 8) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn field2d_integral_of_constant() {
        let f = Field2d::from_fn(grid(), |_, _| 3.0);
        // Riemann cell-sum: nx*ny*dx*dy*3 = 5*9*0.25*0.125*3.
        let expected = 5.0 * 9.0 * 0.25 * 0.125 * 3.0;
        assert!((f.integral() - expected).abs() < 1e-12);
    }

    #[test]
    fn field2d_bilinear_interpolation_is_exact_for_bilinear() {
        let f = Field2d::from_fn(grid(), |x, y| 2.0 * x + 3.0 * y + x * y);
        for &(x, y) in &[(0.1, 0.2), (0.6, 0.9), (0.0, 1.0)] {
            let exact = 2.0 * x + 3.0 * y + x * y;
            assert!((f.interpolate(x, y) - exact).abs() < 1e-10, "at ({x},{y})");
        }
    }

    #[test]
    fn field2d_marginal_sums_rows() {
        let f = Field2d::from_fn(grid(), |_, y| y);
        let m = f.marginal_y();
        // Marginal at y_j is y_j * (nx * dx) = y_j * 1.25.
        for (j, &v) in m.values().iter().enumerate() {
            assert!((v - m.axis().at(j) * 1.25).abs() < 1e-12);
        }
    }

    #[test]
    fn field2d_shape_mismatch_rejected() {
        assert!(Field2d::from_values(grid(), vec![0.0; 3]).is_err());
        assert!(Field1d::from_values(axis(5), vec![0.0; 4]).is_err());
    }

    #[test]
    fn field2d_view_matches_owned_interpolation_bit_for_bit() {
        let f = Field2d::from_fn(grid(), |x, y| (x * 7.3).sin() + y * y);
        let view = f.as_view();
        for &(x, y) in &[
            (0.1, 0.2),
            (0.63, 0.91),
            (-5.0, 99.0),
            (f64::NAN, 0.5),
            (0.5, f64::INFINITY),
        ] {
            assert_eq!(
                view.interpolate(x, y).to_bits(),
                f.interpolate(x, y).to_bits(),
                "at ({x},{y})"
            );
        }
        // A view over a detached slice behaves identically too.
        let detached = Field2dView::new(f.grid(), f.values()).unwrap();
        assert_eq!(
            detached.interpolate(0.37, 0.81).to_bits(),
            f.interpolate(0.37, 0.81).to_bits()
        );
        assert!(Field2dView::new(f.grid(), &f.values()[1..]).is_err());
    }

    #[test]
    fn field2d_from_shared_shares_one_grid() {
        let shared = Arc::new(grid());
        let a = Field2d::from_shared(Arc::clone(&shared), vec![0.0; shared.len()]).unwrap();
        let b = Field2d::from_shared(Arc::clone(&shared), vec![1.0; shared.len()]).unwrap();
        assert!(Arc::ptr_eq(a.shared_grid(), b.shared_grid()));
        assert_eq!(a.grid(), b.grid());
        assert!(Field2d::from_shared(shared, vec![0.0; 2]).is_err());
    }

    #[test]
    fn field2d_min_max_and_sup_distance() {
        let f = Field2d::from_fn(grid(), |x, y| x - y);
        assert_eq!(f.min(), -1.0);
        assert_eq!(f.max(), 1.0);
        let g = Field2d::from_fn(grid(), |x, y| x - y + 0.5);
        assert!((f.sup_distance(&g) - 0.5).abs() < 1e-12);
    }
}
