//! CFL stability bookkeeping shared by the explicit steppers.

/// Computes the largest stable explicit time step for an advection–diffusion
/// problem and splits macro steps into stable sub-steps.
///
/// For the scheme `u' = −∂(b u) + D ∂² u` (or its backward counterpart) the
/// explicit step is stable when
/// `dt · ( |b_x|/dx + |b_y|/dy + 2 D_x/dx² + 2 D_y/dy² ) <= 1`.
/// A safety factor of 0.9 keeps the step strictly inside the bound.
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

/// `max |v|` over `values`, starting from `0.0`: the CFL speed bound of a
/// drift field. `f64::max` is exact and returns the non-NaN operand, so
/// the result (the largest non-NaN `|v|`, or `0.0`) does not depend on the
/// order of the fold; four independent lanes let it vectorise instead of
/// running one serial dependency chain.
pub(crate) fn abs_max(values: &[f64]) -> f64 {
    let mut lanes = [0.0_f64; 4];
    let mut chunks = values.chunks_exact(4);
    for quad in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(quad) {
            *lane = lane.max(v.abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0_f64, |m, v| m.max(v.abs()));
    lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3])).max(tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_diffusion_bound() {
        let s = StabilityLimit::default();
        // dt <= 0.9·dx²/(2D): D=1, dx=0.1 → 0.0045.
        assert!((s.max_dt_1d(0.0, 1.0, 0.1) - 0.0045).abs() < 1e-12);
    }

    #[test]
    fn pure_advection_bound() {
        let s = StabilityLimit::default();
        // dt <= 0.9·dx/|b|: b=2, dx=0.1 → 0.045.
        assert!((s.max_dt_1d(2.0, 0.0, 0.1) - 0.045).abs() < 1e-12);
    }

    #[test]
    fn combined_axes_sum_rates() {
        let s = StabilityLimit::default();
        let dt = s.max_dt(&[(1.0, 0.0, 0.1), (1.0, 0.0, 0.1)]);
        assert!((dt - 0.045).abs() < 1e-12);
    }

    #[test]
    fn no_dynamics_means_unbounded() {
        let s = StabilityLimit::default();
        assert!(s.max_dt_1d(0.0, 0.0, 0.1).is_infinite());
        assert_eq!(s.substeps(1.0, f64::INFINITY), (1, 1.0));
    }

    /// The serial fold the lane-wise [`abs_max`] replaces.
    fn serial_abs_max(values: &[f64]) -> f64 {
        values.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    #[test]
    fn lane_abs_max_matches_the_serial_fold_to_0_ulp() {
        let mut cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![-0.0],
            vec![f64::NAN],
            vec![f64::NAN; 9],
            vec![-0.0, 0.0, -0.0, -0.0, 0.0],
            vec![f64::NAN, -3.0, 0.5, f64::NAN, 2.0, -0.0, f64::NAN],
            vec![1.0, f64::NEG_INFINITY, f64::NAN, 4.0, 5.0],
            vec![-f64::MIN_POSITIVE, 1e-310, -0.0, f64::NAN],
        ];
        // Every length 0..=13, so each lane and remainder position holds
        // the maximum once, with NaN and -0.0 around it.
        for n in 0..=13 {
            for at in 0..n {
                let mut v: Vec<f64> = (0..n)
                    .map(|k| match k % 3 {
                        0 => f64::NAN,
                        1 => -0.0,
                        _ => -0.25 * k as f64,
                    })
                    .collect();
                v[at] = -100.0;
                cases.push(v);
            }
        }
        for v in &cases {
            assert_eq!(abs_max(v).to_bits(), serial_abs_max(v).to_bits(), "{v:?}");
        }
        assert_eq!(abs_max(&[f64::NAN, -0.0]).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn substeps_cover_the_interval_exactly() {
        let s = StabilityLimit::default();
        let (n, sub) = s.substeps(1.0, 0.3);
        assert_eq!(n, 4);
        assert!((sub * n as f64 - 1.0).abs() < 1e-12);
        assert!(sub <= 0.3);
    }
}
