//! Mapping from the channel fading coefficient to a transmission rate in
//! content units per epoch.
//!
//! In the finite-population simulator (`mfgcp-sim`) rates come from the full
//! Eq. (2) SINR model in `mfgcp-net`. Inside the mean-field solver the
//! state carries only the scalar fading coefficient `h`, so the rate enters
//! through a calibrated monotone map `H(h)` with the same Shannon-law shape
//! `H ∝ log₂(1 + snr·h²)`: fading is the only random part of Eq. (2) once
//! distances are fixed (the paper fixes them too — "we set the fixed
//! distance between EDPs and requesters", §V-B1).

/// Monotone fading-to-rate map `H(h) = scale · log₂(1 + snr_coeff·h²) /
/// log₂(1 + snr_coeff·h_max²)`, normalized so `H(h_max) = scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateModel {
    scale: f64,
    snr_coeff: f64,
    norm: f64,
}

impl RateModel {
    /// Create a rate model.
    ///
    /// * `scale` — rate at the top of the fading band (content/epoch);
    /// * `h_max` — top of the fading band;
    /// * `snr_coeff` — effective `G/(d^τ·ϱ²)` lumped SNR coefficient;
    ///   pick it so the SINR at `h_max` is large but finite.
    ///
    /// # Panics
    ///
    /// Panics unless all arguments are finite and positive.
    pub fn new(scale: f64, h_max: f64, snr_coeff: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be > 0");
        assert!(h_max.is_finite() && h_max > 0.0, "h_max must be > 0");
        assert!(
            snr_coeff.is_finite() && snr_coeff > 0.0,
            "snr_coeff must be > 0"
        );
        let norm = (1.0 + snr_coeff * h_max * h_max).log2();
        Self {
            scale,
            snr_coeff,
            norm,
        }
    }

    /// Default calibration from [`crate::Params`]: the SNR coefficient puts
    /// ~20 dB of SINR at the top of the band, giving roughly a 5× rate
    /// spread across the paper's `[1, 10]·10⁻⁵` fading range.
    pub fn from_params(params: &crate::Params) -> Self {
        let snr_coeff = 100.0 / (params.h_max * params.h_max);
        Self::new(params.edge_rate_scale, params.h_max, snr_coeff)
    }

    /// Rate `H(h)` in content units per epoch.
    pub fn rate(&self, h: f64) -> f64 {
        let hh = h.max(0.0);
        self.scale * (1.0 + self.snr_coeff * hh * hh).log2() / self.norm
    }

    /// The rate at the top of the band (= `scale`).
    pub fn max_rate(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    #[test]
    fn rate_is_monotone_in_fading() {
        let m = RateModel::from_params(&Params::default());
        let mut prev = 0.0;
        let mut h = 1.0e-5;
        while h <= 10.0e-5 {
            let r = m.rate(h);
            assert!(r > prev);
            prev = r;
            h += 0.5e-5;
        }
    }

    #[test]
    fn normalized_at_band_top() {
        let p = Params::default();
        let m = RateModel::from_params(&p);
        assert!((m.rate(p.h_max) - p.edge_rate_scale).abs() < 1e-9);
    }

    #[test]
    fn rate_spread_across_band_is_meaningful() {
        let p = Params::default();
        let m = RateModel::from_params(&p);
        let lo = m.rate(p.h_min);
        let hi = m.rate(p.h_max);
        assert!(hi / lo > 3.0, "spread {}", hi / lo);
        assert!(lo > 0.0);
    }

    #[test]
    fn edge_beats_backhaul_at_the_mean() {
        // The staleness trade-off of Eq. (9) needs edge links to usually
        // beat the center rate.
        let p = Params::default();
        let m = RateModel::from_params(&p);
        assert!(m.rate(p.upsilon_h) > p.center_rate);
    }

    #[test]
    fn negative_fading_clamps_to_zero_rate() {
        let m = RateModel::new(8.0, 1.0e-4, 1.0e10);
        assert_eq!(m.rate(-1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "scale must be > 0")]
    fn invalid_scale_rejected() {
        RateModel::new(0.0, 1.0, 1.0);
    }
}
