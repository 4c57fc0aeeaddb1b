//! Uniform 1-D axes and the tensor-product 2-D grid.

use crate::PdeError;

/// A uniform 1-D axis with `n >= 2` points spanning `[lo, hi]` inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    lo: f64,
    hi: f64,
    n: usize,
    dx: f64,
}

impl Axis {
    /// Create an axis over `[lo, hi]` with `n` points.
    ///
    /// # Errors
    ///
    /// Returns an error if `n < 2` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Result<Self, PdeError> {
        if n < 2 {
            return Err(PdeError::TooFewPoints { n });
        }
        if hi.partial_cmp(&lo) != Some(core::cmp::Ordering::Greater)
            || !lo.is_finite()
            || !hi.is_finite()
        {
            return Err(PdeError::EmptyInterval { lo, hi });
        }
        Ok(Self {
            lo,
            hi,
            n,
            dx: (hi - lo) / (n - 1) as f64,
        })
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the axis is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grid spacing.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Coordinate of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn at(&self, i: usize) -> f64 {
        assert!(i < self.n, "axis index {i} out of range {}", self.n);
        if i == self.n - 1 {
            self.hi
        } else {
            self.lo + i as f64 * self.dx
        }
    }

    /// All coordinates as a vector.
    pub fn coords(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.at(i)).collect()
    }

    /// Index of the grid point nearest to `x` (clamped to the axis range).
    pub fn nearest(&self, x: f64) -> usize {
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return self.n - 1;
        }
        (((x - self.lo) / self.dx).round() as usize).min(self.n - 1)
    }

    /// Fractional position of `x` for linear interpolation: returns
    /// `(i, w)` such that `x ≈ (1-w)·at(i) + w·at(i+1)` with
    /// `i <= n-2`, `w ∈ [0, 1]`, clamping outside the range.
    #[inline]
    pub fn locate(&self, x: f64) -> (usize, f64) {
        if x <= self.lo {
            return (0, 0.0);
        }
        if x >= self.hi {
            return (self.n - 2, 1.0);
        }
        let s = (x - self.lo) / self.dx;
        // `x > lo` here, so `s` is non-negative (or NaN, which casts to 0
        // as its floor does): the truncating cast is the floor, without
        // the libm `floor` call the baseline x86-64 target makes.
        let i = (s as usize).min(self.n - 2);
        (i, s - i as f64)
    }
}

/// The tensor product of two axes; in MFG-CP, `x` is the channel fading
/// coefficient `h` and `y` is the remaining caching space `q`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    x: Axis,
    y: Axis,
}

impl Grid2d {
    /// Create a grid from two axes.
    pub fn new(x: Axis, y: Axis) -> Self {
        Self { x, y }
    }

    /// The first (row) axis.
    #[inline]
    pub fn x(&self) -> &Axis {
        &self.x
    }

    /// The second (column) axis.
    #[inline]
    pub fn y(&self) -> &Axis {
        &self.y
    }

    /// Total number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len() * self.y.len()
    }

    /// Whether the grid is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cell area `dx · dy` used in integrals.
    pub fn cell_area(&self) -> f64 {
        self.x.dx() * self.y.dx()
    }

    /// Flattened row-major index of point `(i, j)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.x.len() && j < self.y.len());
        i * self.y.len() + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_endpoints_are_exact() {
        let a = Axis::new(0.0, 1.0, 11).unwrap();
        assert_eq!(a.at(0), 0.0);
        assert_eq!(a.at(10), 1.0);
        assert!((a.dx() - 0.1).abs() < 1e-15);
        assert_eq!(a.coords().len(), 11);
    }

    #[test]
    fn axis_rejects_degenerate_input() {
        assert!(Axis::new(0.0, 1.0, 1).is_err());
        assert!(Axis::new(1.0, 1.0, 5).is_err());
        assert!(Axis::new(2.0, 1.0, 5).is_err());
        assert!(Axis::new(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn nearest_clamps_and_rounds() {
        let a = Axis::new(0.0, 1.0, 5).unwrap(); // dx = 0.25
        assert_eq!(a.nearest(-1.0), 0);
        assert_eq!(a.nearest(2.0), 4);
        assert_eq!(a.nearest(0.26), 1);
        assert_eq!(a.nearest(0.40), 2);
    }

    #[test]
    fn locate_gives_interpolation_weights() {
        let a = Axis::new(0.0, 1.0, 5).unwrap();
        let (i, w) = a.locate(0.3);
        assert_eq!(i, 1);
        assert!((w - 0.2).abs() < 1e-12);
        assert_eq!(a.locate(-5.0), (0, 0.0));
        let (i, w) = a.locate(5.0);
        assert_eq!(i, 3);
        assert_eq!(w, 1.0);
    }

    /// The truncating cast in `locate` answers what a `floor` would, bit
    /// for bit, on and between nodes, near both ends, outside the axis
    /// and at non-finite points.
    #[test]
    fn locate_matches_the_floor_reference_to_0_ulp() {
        fn reference(a: &Axis, x: f64) -> (usize, f64) {
            if x <= a.lo() {
                return (0, 0.0);
            }
            if x >= a.hi() {
                return (a.len() - 2, 1.0);
            }
            let s = (x - a.lo()) / a.dx();
            let i = (s.floor() as usize).min(a.len() - 2);
            (i, s - i as f64)
        }
        for a in [
            Axis::new(0.0, 1.0, 5).unwrap(),
            Axis::new(1.0e-5, 1.0e-4, 8).unwrap(),
            Axis::new(-3.0, 7.5, 33).unwrap(),
        ] {
            let mut xs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300, 1e300];
            for i in 0..a.len() {
                let x = a.at(i);
                xs.extend([x, f64::from_bits(x.to_bits() + 1), x + 0.5 * a.dx()]);
                xs.push(if x > 0.0 {
                    f64::from_bits(x.to_bits() - 1)
                } else {
                    x - 1e-300
                });
            }
            for x in xs {
                let (got, want) = (a.locate(x), reference(&a, x));
                assert_eq!(got.0, want.0, "index at {x}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "weight at {x}");
            }
        }
    }

    #[test]
    fn grid_index_is_row_major() {
        let g = Grid2d::new(
            Axis::new(0.0, 1.0, 3).unwrap(),
            Axis::new(0.0, 1.0, 4).unwrap(),
        );
        assert_eq!(g.len(), 12);
        assert_eq!(g.index(0, 0), 0);
        assert_eq!(g.index(0, 3), 3);
        assert_eq!(g.index(1, 0), 4);
        assert_eq!(g.index(2, 3), 11);
    }

    #[test]
    fn cell_area_matches_spacings() {
        let g = Grid2d::new(
            Axis::new(0.0, 1.0, 11).unwrap(),
            Axis::new(0.0, 2.0, 21).unwrap(),
        );
        assert!((g.cell_area() - 0.01).abs() < 1e-14);
    }
}
