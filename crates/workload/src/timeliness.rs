//! Content timeliness (Def. 2): each requester `j ∈ I_k(t)` attaches an
//! urgency `L_{k,j} ∈ [0, L_max]`; the EDP tracks the running average
//! `L_k(t) = Σ_j L_{k,j} / |I_k(t)|`. Larger `L` means the content is
//! wanted sooner; in Eq. (4) the factor `ξ^{L_k(t)}`, `ξ ∈ (0, 1)`, shrinks
//! the discard rate for urgent contents.

use crate::WorkloadError;

/// Parameters controlling requester urgency generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinessConfig {
    /// Maximum urgency `L_max`.
    pub l_max: f64,
    /// Pre-fixed steepness parameter `ξ ∈ (0, 1)` of Eq. (4).
    pub xi: f64,
    /// Exponential-smoothing weight `α ∈ (0, 1]` of the running average:
    /// `L_k ← (1−α)·L_k + α·(batch mean)`. Def. 2 averages over `I_k(t)`;
    /// when a slot carries only a handful of requests the raw batch mean
    /// fluctuates so hard that `E[ξ^L] ≫ ξ^{E[L]}` (Jensen), biasing the
    /// Eq. (4) discard drift — smoothing across slots recovers the
    /// population average Def. 2 intends. `α = 1` reproduces the raw
    /// per-slot estimator.
    pub smoothing: f64,
}

impl Default for TimelinessConfig {
    fn default() -> Self {
        // ξ = 0.1 is the paper's §V-A setting; L_max = 5 gives ξ^L a
        // dynamic range of 1 … 1e-5, plenty to differentiate urgencies.
        Self {
            l_max: 5.0,
            xi: 0.1,
            smoothing: 0.2,
        }
    }
}

impl TimelinessConfig {
    /// Validate a custom configuration.
    ///
    /// # Errors
    ///
    /// Returns an error unless `l_max > 0` and `0 < ξ < 1`.
    pub fn new(l_max: f64, xi: f64) -> Result<Self, WorkloadError> {
        Self::with_smoothing(l_max, xi, 0.2)
    }

    /// Validate a configuration with an explicit smoothing weight.
    ///
    /// # Errors
    ///
    /// Returns an error unless `l_max > 0`, `0 < ξ < 1`, `0 < α <= 1`.
    pub fn with_smoothing(l_max: f64, xi: f64, smoothing: f64) -> Result<Self, WorkloadError> {
        if l_max.is_nan() || l_max <= 0.0 || !l_max.is_finite() {
            return Err(WorkloadError::NonPositive {
                name: "l_max",
                value: l_max,
            });
        }
        if xi.is_nan() || xi <= 0.0 || xi >= 1.0 {
            return Err(WorkloadError::NonPositive {
                name: "xi",
                value: xi,
            });
        }
        if smoothing.is_nan() || smoothing <= 0.0 || smoothing > 1.0 {
            return Err(WorkloadError::NonPositive {
                name: "smoothing",
                value: smoothing,
            });
        }
        Ok(Self {
            l_max,
            xi,
            smoothing,
        })
    }

    /// An urgency clamped into `[0, L_max]`.
    pub fn clamp(&self, l: f64) -> f64 {
        l.clamp(0.0, self.l_max)
    }

    /// The urgency factor `ξ^L` appearing in the caching dynamics (Eq. (4)).
    pub fn urgency_factor(&self, l: f64) -> f64 {
        self.xi.powf(self.clamp(l))
    }
}

/// Per-content running-average timeliness for one EDP.
///
/// The Eq. (4) factor `ξ^{L_k}` is cached next to `L_k` and refreshed only
/// when an observation moves `L_k`, so reading it is a load, not a `powf`.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeliness {
    config: TimelinessConfig,
    current: Vec<f64>,
    /// `factors[k] = config.urgency_factor(current[k])`, always.
    factors: Vec<f64>,
}

impl Timeliness {
    /// Start with all contents at half of `L_max` (no information yet).
    pub fn new(k: usize, config: TimelinessConfig) -> Self {
        let start = config.l_max / 2.0;
        Self {
            current: vec![start; k],
            factors: vec![config.urgency_factor(start); k],
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TimelinessConfig {
        &self.config
    }

    /// Current average urgency `L_k(t)`.
    pub fn get(&self, k: usize) -> f64 {
        self.current[k]
    }

    /// The urgency factor `ξ^{L_k(t)}` for content `k`.
    #[inline]
    pub fn factor(&self, k: usize) -> f64 {
        self.factors[k]
    }

    /// Record the per-request urgencies for content `k` in this slot and
    /// update the running average (Def. 2 with exponential smoothing —
    /// see [`TimelinessConfig::smoothing`]). Empty slices leave the
    /// average unchanged (no requesters expressed a requirement).
    pub fn observe(&mut self, k: usize, urgencies: &[f64]) {
        let sum: f64 = urgencies.iter().map(|&l| self.config.clamp(l)).sum();
        self.observe_totals(k, sum, urgencies.len());
    }

    /// [`Timeliness::observe`] from a slot's totals: `sum` of the `n`
    /// urgencies for content `k`, each already clamped into `[0, L_max]`
    /// and added in request order (so the average matches `observe` on the
    /// same requests bit for bit). `n = 0` leaves the average unchanged.
    pub fn observe_totals(&mut self, k: usize, sum: f64, n: usize) {
        if n == 0 {
            return;
        }
        let batch_mean = sum / n as f64;
        let alpha = self.config.smoothing;
        self.current[k] = (1.0 - alpha) * self.current[k] + alpha * batch_mean;
        self.factors[k] = self.config.urgency_factor(self.current[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_blends_towards_the_batch_average() {
        let mut t = Timeliness::new(2, TimelinessConfig::default());
        // Start at L_max/2 = 2.5; batch mean 2.0; α = 0.2.
        t.observe(0, &[1.0, 3.0]);
        assert!((t.get(0) - (0.8 * 2.5 + 0.2 * 2.0)).abs() < 1e-12);
        // Content 1 untouched.
        assert_eq!(t.get(1), 2.5);
        // Repeated identical batches converge to the batch mean.
        for _ in 0..200 {
            t.observe(0, &[1.0, 3.0]);
        }
        assert!((t.get(0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_one_reproduces_the_raw_estimator() {
        let cfg = TimelinessConfig::with_smoothing(5.0, 0.1, 1.0).unwrap();
        let mut t = Timeliness::new(1, cfg);
        t.observe(0, &[1.0, 3.0]);
        assert_eq!(t.get(0), 2.0);
    }

    #[test]
    fn observe_clamps_out_of_range_urgencies() {
        let cfg = TimelinessConfig::with_smoothing(5.0, 0.1, 1.0).unwrap();
        let mut t = Timeliness::new(1, cfg);
        t.observe(0, &[-1.0, 99.0]);
        assert_eq!(t.get(0), 2.5); // (0 + 5) / 2
    }

    #[test]
    fn empty_observation_is_a_noop() {
        let mut t = Timeliness::new(1, TimelinessConfig::default());
        let before = t.get(0);
        t.observe(0, &[]);
        assert_eq!(t.get(0), before);
    }

    #[test]
    fn urgency_factor_decreases_with_urgency() {
        let cfg = TimelinessConfig::default();
        assert_eq!(cfg.urgency_factor(0.0), 1.0);
        assert!(cfg.urgency_factor(1.0) < 1.0);
        assert!(cfg.urgency_factor(2.0) < cfg.urgency_factor(1.0));
        // ξ = 0.1 → factor(1) = 0.1 exactly.
        assert!((cfg.urgency_factor(1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert!(TimelinessConfig::new(0.0, 0.1).is_err());
        assert!(TimelinessConfig::new(5.0, 0.0).is_err());
        assert!(TimelinessConfig::new(5.0, 1.0).is_err());
        assert!(TimelinessConfig::new(5.0, 0.5).is_ok());
        assert!(TimelinessConfig::with_smoothing(5.0, 0.1, 0.0).is_err());
        assert!(TimelinessConfig::with_smoothing(5.0, 0.1, 1.1).is_err());
        assert!(TimelinessConfig::with_smoothing(5.0, 0.1, 1.0).is_ok());
    }
}
