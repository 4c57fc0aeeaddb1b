//! Euler–Maruyama integration of scalar Itô diffusions.

use rand::Rng;

use crate::brownian::BrownianIncrements;
use crate::path::SamplePath;
use crate::process::Sde;

/// The Euler–Maruyama scheme
/// `X_{n+1} = X_n + b(t_n, X_n) Δt + σ(t_n, X_n) ΔW_n`.
///
/// Strong order 1/2; sufficient here because it is only used to *simulate*
/// the finite-population system, never to solve the HJB/FPK equations (those
/// use the finite-difference solvers in `mfgcp-pde`).
#[derive(Debug, Clone, Copy)]
pub struct EulerMaruyama {
    dt: f64,
}

impl EulerMaruyama {
    /// Create an integrator with fixed step size `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn new(dt: f64) -> Self {
        assert!(
            dt.is_finite() && dt > 0.0,
            "dt must be finite and > 0, got {dt}"
        );
        Self { dt }
    }

    /// Integrate `sde` from `x0` over `[t0, t1]`, recording every step.
    ///
    /// The final step is shortened so the path ends exactly at `t1`.
    pub fn integrate<S: Sde, R: Rng + ?Sized>(
        &self,
        sde: &S,
        x0: f64,
        t0: f64,
        t1: f64,
        rng: &mut R,
    ) -> SamplePath {
        assert!(t1 > t0, "t1 must be > t0");
        let n_full = ((t1 - t0) / self.dt).floor() as usize;
        let mut times = Vec::with_capacity(n_full + 2);
        let mut values = Vec::with_capacity(n_full + 2);
        let inc = BrownianIncrements::new(self.dt).expect("dt validated in new()");
        let mut t = t0;
        let mut x = x0;
        times.push(t);
        values.push(x);
        for _ in 0..n_full {
            x = self.step_with(sde, t, x, self.dt, inc.sample(rng));
            t += self.dt;
            times.push(t);
            values.push(x);
        }
        let rem = t1 - t;
        if rem > 1e-12 * self.dt.max(1.0) {
            let tail = BrownianIncrements::new(rem).expect("rem > 0");
            x = self.step_with(sde, t, x, rem, tail.sample(rng));
            times.push(t1);
            values.push(x);
        }
        SamplePath::new(times, values)
    }

    /// One Euler–Maruyama step given a pre-sampled Brownian increment `dw`.
    fn step_with<S: Sde>(&self, sde: &S, t: f64, x: f64, dt: f64, dw: f64) -> f64 {
        x + sde.drift(t, x) * dt + sde.diffusion(t, x) * dw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::OrnsteinUhlenbeck;

    /// `dX = −k·X dt + s dW` with constant `k` and `s`.
    struct Linear {
        k: f64,
        s: f64,
    }

    impl Sde for Linear {
        fn drift(&self, _t: f64, x: f64) -> f64 {
            -self.k * x
        }

        fn diffusion(&self, _t: f64, _x: f64) -> f64 {
            self.s
        }
    }

    #[test]
    fn deterministic_ode_limit() {
        // With σ = 0 the scheme reduces to explicit Euler: dx = -x dt.
        let sde = Linear { k: 1.0, s: 0.0 };
        let em = EulerMaruyama::new(1e-4);
        let mut rng = seeded_rng(30);
        let path = em.integrate(&sde, 1.0, 0.0, 1.0, &mut rng);
        let exact = (-1.0_f64).exp();
        assert!((path.last_value() - exact).abs() < 1e-3);
    }

    #[test]
    fn path_spans_exact_interval() {
        let sde = Linear { k: 0.0, s: 1.0 };
        let em = EulerMaruyama::new(0.3);
        let mut rng = seeded_rng(31);
        let path = em.integrate(&sde, 0.0, 0.0, 1.0, &mut rng);
        assert_eq!(path.times()[0], 0.0);
        assert!((path.last_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ou_moments_match_exact_transition() {
        let ou = OrnsteinUhlenbeck::new(2.0, 1.0, 0.3).unwrap();
        let em = EulerMaruyama::new(1e-3);
        let mut rng = seeded_rng(32);
        let (h0, t1) = (3.0, 1.0);
        let n = 3_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let h = em.integrate(&ou, h0, 0.0, t1, &mut rng).last_value();
            sum += h;
            sum_sq += h * h;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(
            (mean - ou.transition_mean(h0, t1)).abs() < 0.02,
            "mean {mean}"
        );
        assert!((var - ou.transition_variance(t1)).abs() < 0.01, "var {var}");
    }

    #[test]
    #[should_panic(expected = "dt must be finite")]
    fn rejects_zero_dt() {
        EulerMaruyama::new(0.0);
    }
}
