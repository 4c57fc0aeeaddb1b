//! Property-based tests for the finite-difference substrate.

use proptest::prelude::*;

use mfgcp_pde::{Axis, Field1d, Field2d, FokkerPlanck1d, Grid2d, StabilityLimit};

proptest! {
    /// Axis lookups: `locate` reconstructs the coordinate, `nearest` is
    /// consistent with `locate`.
    #[test]
    fn axis_locate_roundtrips(
        lo in -10.0_f64..10.0,
        span in 0.1_f64..100.0,
        n in 2_usize..200,
        frac in 0.0_f64..1.0,
    ) {
        let axis = Axis::new(lo, lo + span, n).unwrap();
        let x = lo + frac * span;
        let (i, w) = axis.locate(x);
        prop_assert!(i <= n - 2);
        prop_assert!((0.0..=1.0).contains(&w));
        let reconstructed = (1.0 - w) * axis.at(i) + w * axis.at(i + 1);
        prop_assert!((reconstructed - x).abs() < 1e-9 * span.max(1.0));
        let nearest = axis.nearest(x);
        prop_assert!((axis.at(nearest) - x).abs() <= 0.5 * axis.dx() + 1e-12);
    }

    /// Explicit FPK: mass conservation and positivity for arbitrary
    /// bounded drifts and diffusions, any number of macro steps.
    #[test]
    fn fpk_conserves_mass_and_positivity(
        drift_knots in proptest::collection::vec(-2.0_f64..2.0, 4),
        diffusion in 0.0_f64..0.05,
        steps in 1_usize..30,
    ) {
        let n = 61;
        let axis = Axis::new(0.0, 1.0, n).unwrap();
        let mut lam = Field1d::from_fn(axis.clone(), |x| {
            let z = (x - 0.6) / 0.1;
            (-0.5 * z * z).exp()
        });
        lam.normalize();
        // Piecewise-linear drift from 4 random knots.
        let drift: Vec<f64> = (0..n)
            .map(|i| {
                let s = i as f64 / (n - 1) as f64 * 3.0;
                let k = (s.floor() as usize).min(2);
                let w = s - k as f64;
                (1.0 - w) * drift_knots[k] + w * drift_knots[k + 1]
            })
            .collect();
        let mut fpk = FokkerPlanck1d::new(diffusion).unwrap();
        let m0 = lam.integral();
        for _ in 0..steps {
            fpk.step(&mut lam, &drift, 0.02);
        }
        prop_assert!((lam.integral() - m0).abs() < 1e-10);
        prop_assert!(lam.values().iter().all(|&v| v >= -1e-10));
    }

    /// Bilinear interpolation of a 2-D field never exceeds the field's
    /// range (convex combination of 4 corners).
    #[test]
    fn field2d_interpolation_bounded(
        x in -0.5_f64..1.5,
        y in -0.5_f64..1.5,
        seedx in 0.1_f64..5.0,
        seedy in 0.1_f64..5.0,
    ) {
        let grid = Grid2d::new(Axis::new(0.0, 1.0, 9).unwrap(), Axis::new(0.0, 1.0, 7).unwrap());
        let f = Field2d::from_fn(grid, |a, b| (seedx * a).sin() * (seedy * b).cos());
        let v = f.interpolate(x, y);
        prop_assert!(v >= f.min() - 1e-12 && v <= f.max() + 1e-12);
    }

    /// The CFL substep machinery always covers the macro step exactly and
    /// respects the bound.
    #[test]
    fn substeps_partition_dt(dt in 1e-6_f64..100.0, max_dt in 1e-6_f64..100.0) {
        let limit = StabilityLimit::default();
        let (n, sub) = limit.substeps(dt, max_dt);
        prop_assert!(n >= 1);
        prop_assert!((sub * n as f64 - dt).abs() < 1e-9 * dt.max(1.0));
        prop_assert!(sub <= max_dt + 1e-12);
    }

    /// Field1d normalization produces unit mass whenever the input has
    /// positive mass.
    #[test]
    fn normalize_yields_unit_mass(values in proptest::collection::vec(0.0_f64..10.0, 2..100)) {
        let n = values.len();
        let axis = Axis::new(0.0, 1.0, n).unwrap();
        let mut f = Field1d::from_values(axis, values).unwrap();
        let before = f.integral();
        f.normalize();
        if before > 0.0 {
            prop_assert!((f.integral() - 1.0).abs() < 1e-9);
        } else {
            prop_assert!(f.values().iter().all(|&v| v == 0.0));
        }
    }
}
