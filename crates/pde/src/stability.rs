//! CFL stability bookkeeping shared by the explicit steppers.

/// Computes the largest stable explicit time step for an advection–diffusion
/// problem and splits macro steps into stable sub-steps.
///
/// For the scheme `u' = −∂(b u) + D ∂² u` (or its backward counterpart) the
/// explicit step is stable when
/// `dt · ( |b_x|/dx + |b_y|/dy + 2 D_x/dx² + 2 D_y/dy² ) <= 1`.
/// A safety factor (default 0.9) keeps the step strictly inside the bound.
#[derive(Debug, Clone, Copy)]
pub struct StabilityLimit {
    safety: f64,
}

impl Default for StabilityLimit {
    fn default() -> Self {
        Self { safety: 0.9 }
    }
}

impl StabilityLimit {
    /// Create a limit with a custom safety factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `safety` is outside `(0, 1]`.
    pub fn with_safety(safety: f64) -> Self {
        assert!(
            safety > 0.0 && safety <= 1.0,
            "safety must be in (0, 1], got {safety}"
        );
        Self { safety }
    }

    /// Largest stable `dt` for one axis with max speed `b_max`, diffusion
    /// `d`, spacing `dx`. Returns `f64::INFINITY` when both vanish.
    pub fn max_dt_1d(&self, b_max: f64, d: f64, dx: f64) -> f64 {
        self.max_dt(&[(b_max, d, dx)])
    }

    /// Largest stable `dt` for a multi-axis problem; each entry is
    /// `(b_max, d, dx)` for one axis.
    pub fn max_dt(&self, axes: &[(f64, f64, f64)]) -> f64 {
        let mut rate = 0.0;
        for &(b_max, d, dx) in axes {
            debug_assert!(dx > 0.0, "dx must be positive");
            rate += b_max.abs() / dx + 2.0 * d / (dx * dx);
        }
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            self.safety / rate
        }
    }

    /// Split a macro step `dt` into the smallest number of equal sub-steps
    /// that satisfy `sub_dt <= max_dt`. Returns `(n_sub, sub_dt)`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn substeps(&self, dt: f64, max_dt: f64) -> (usize, f64) {
        assert!(dt > 0.0, "dt must be positive, got {dt}");
        if max_dt.is_infinite() || dt <= max_dt {
            return (1, dt);
        }
        let n = (dt / max_dt).ceil() as usize;
        (n, dt / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_diffusion_bound() {
        let s = StabilityLimit::with_safety(1.0);
        // dt <= dx²/(2D): D=1, dx=0.1 → 0.005.
        assert!((s.max_dt_1d(0.0, 1.0, 0.1) - 0.005).abs() < 1e-12);
    }

    #[test]
    fn pure_advection_bound() {
        let s = StabilityLimit::with_safety(1.0);
        // dt <= dx/|b|: b=2, dx=0.1 → 0.05.
        assert!((s.max_dt_1d(2.0, 0.0, 0.1) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn combined_axes_sum_rates() {
        let s = StabilityLimit::with_safety(1.0);
        let dt = s.max_dt(&[(1.0, 0.0, 0.1), (1.0, 0.0, 0.1)]);
        assert!((dt - 0.05).abs() < 1e-12);
    }

    #[test]
    fn no_dynamics_means_unbounded() {
        let s = StabilityLimit::default();
        assert!(s.max_dt_1d(0.0, 0.0, 0.1).is_infinite());
        assert_eq!(s.substeps(1.0, f64::INFINITY), (1, 1.0));
    }

    #[test]
    fn substeps_cover_the_interval_exactly() {
        let s = StabilityLimit::default();
        let (n, sub) = s.substeps(1.0, 0.3);
        assert_eq!(n, 4);
        assert!((sub * n as f64 - 1.0).abs() < 1e-12);
        assert!(sub <= 0.3);
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn bad_safety_rejected() {
        StabilityLimit::with_safety(0.0);
    }
}
