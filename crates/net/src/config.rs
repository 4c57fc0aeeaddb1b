//! Network parameters with the paper's §V-A defaults.

use mfgcp_sde::OrnsteinUhlenbeck;

/// Parameters of the network model (§II-A) that the simulation reads: the
/// deployment disc and the Eq. (1) fading law, defaulting to the settings
/// of §V-A (channel fading coefficient in `[1, 10]·10⁻⁵`).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Radius of the deployment disc in meters.
    pub area_radius: f64,
    /// Channel-fading OU rate `ς_h` of Eq. (1).
    pub fading_rate: f64,
    /// Channel-fading long-term mean `υ_h` of Eq. (1).
    pub fading_mean: f64,
    /// Channel-fading noise amplitude `ϱ_h` of Eq. (1).
    pub fading_noise: f64,
    /// Lower clamp of the fading coefficient (paper: `1·10⁻⁵`).
    pub fading_min: f64,
    /// Upper clamp of the fading coefficient (paper: `10·10⁻⁵`).
    pub fading_max: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            area_radius: 500.0,
            // The paper plots fading paths reverting within ~1 time unit
            // (Fig. 3) over the band [1, 10]·10⁻⁵; ς_h = 4 and a mid-band
            // mean reproduce that behaviour.
            fading_rate: 4.0,
            fading_mean: 5.0e-5,
            fading_noise: 1.0e-5,
            fading_min: 1.0e-5,
            fading_max: 10.0e-5,
        }
    }
}

impl NetworkConfig {
    /// The OU process for one fading link under this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fading parameters are invalid (they are validated by
    /// construction for the default config).
    pub fn fading_process(&self) -> OrnsteinUhlenbeck {
        OrnsteinUhlenbeck::new(self.fading_rate, self.fading_mean, self.fading_noise)
            .expect("fading parameters must be valid")
    }

    /// Clamp a fading coefficient into the configured band.
    pub fn clamp_fading(&self, h: f64) -> f64 {
        h.clamp(self.fading_min, self.fading_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = NetworkConfig::default();
        assert_eq!(c.fading_min, 1.0e-5);
        assert_eq!(c.fading_max, 10.0e-5);
    }

    #[test]
    fn fading_process_uses_config_values() {
        let c = NetworkConfig::default();
        let ou = c.fading_process();
        assert_eq!(ou.varsigma(), c.fading_rate);
        assert_eq!(ou.upsilon(), c.fading_mean);
        assert_eq!(ou.varrho(), c.fading_noise);
    }

    #[test]
    fn clamp_keeps_band() {
        let c = NetworkConfig::default();
        assert_eq!(c.clamp_fading(0.0), c.fading_min);
        assert_eq!(c.clamp_fading(1.0), c.fading_max);
        let mid = 5.0e-5;
        assert_eq!(c.clamp_fading(mid), mid);
    }
}
