//! Network parameters with the paper's §V-A defaults.

use mfgcp_sde::OrnsteinUhlenbeck;

/// Parameters of the network model (§II-A), defaulting to the simulation
/// settings of §V-A: `B = 10 MHz`, `τ = 3`, `G = 1 W`, channel fading
/// coefficient in `[1, 10]·10⁻⁵`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Transmission bandwidth `B` in Hz.
    pub bandwidth: f64,
    /// Path-loss exponent `τ`.
    pub path_loss_exp: f64,
    /// Transmission power `G_i` in W (identical for all EDPs per §V-A).
    pub tx_power: f64,
    /// Noise power `ϱ²` in W.
    pub noise_power: f64,
    /// Radius of the deployment disc in meters.
    pub area_radius: f64,
    /// Minimum link distance in meters (clamps the path-loss singularity).
    pub min_distance: f64,
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
    /// Transmission rate `H_c` between the cloud center and any EDP, bits/s.
    pub center_rate: f64,
    /// Interferers tracked per requester by the channel state (the
    /// `k_int` nearest non-serving EDPs). Must be at least 1. The
    /// tracked links carry the dominant interferers with live fading;
    /// the untracked far field is covered by a frozen mean-field tail at
    /// the stationary-mean fading, so the full Eq. (2) interference
    /// power is represented in expectation and only far-field fading
    /// fluctuation remains (bounded by
    /// [`NetworkConfig::truncation_tol`]; the share carried by the tail
    /// is reported by the `net.shard.truncated_power` gauge).
    pub k_int: usize,
    /// Let the channel state resize `k_int` itself at every
    /// re-association, steering on the measured truncated-power share:
    /// doubled while the frozen tail carries more than
    /// `truncation_tol / 2` of the stationary-mean interference power,
    /// halved (with 4× hysteresis, floored at 4) when it carries less
    /// than `truncation_tol / 8`. [`NetworkConfig::k_int`] then only
    /// seeds the initial budget. The decision is a pure function of the
    /// tracked geometry, so adaptive runs stay bit-reproducible.
    pub adaptive_k_int: bool,
    /// Documented worst-case bound on the relative Eq. (2) interference
    /// error of the channel state at the default geometry. The tracked
    /// neighborhood plus the frozen mean-field tail cover the full
    /// interference power in expectation; what remains is the zero-mean
    /// fading fluctuation of the far field, which this bounds. The
    /// differential tests against a dense reference assert the measured
    /// error stays below it.
    pub truncation_tol: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            bandwidth: 10e6,
            path_loss_exp: 3.0,
            tx_power: 1.0,
            noise_power: 1e-13,
            area_radius: 500.0,
            min_distance: 1.0,
            // The paper plots fading paths reverting within ~1 time unit
            // (Fig. 3) over the band [1, 10]·10⁻⁵; ς_h = 4 and a mid-band
            // mean reproduce that behaviour.
            fading_rate: 4.0,
            fading_mean: 5.0e-5,
            fading_noise: 1.0e-5,
            fading_min: 1.0e-5,
            fading_max: 10.0e-5,
            // Backhaul to the cloud center is slower than a good edge link;
            // 20 Mbit/s keeps the staleness-cost trade-off of Eq. (9) alive.
            center_rate: 20e6,
            // 32 tracked interferers. With τ = 3 the untracked far field
            // still carries a sizeable share of the stationary-mean
            // interference power at uniform placements — 0.057 at
            // M = 100, J = 300; 0.095 at M = 300, J = 900; 0.128 at
            // M = 1000, J = 300; 0.158 at M = 6000, J = 18000; 0.183 at
            // M = 10⁵, J = 300 (the `net.shard.truncated_power` gauge; see
            // DESIGN.md §2f) — which is why the frozen tail is kept rather
            // than dropped.
            k_int: 32,
            adaptive_k_int: false,
            truncation_tol: 2e-2,
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
        assert_eq!(c.bandwidth, 10e6);
        assert_eq!(c.path_loss_exp, 3.0);
        assert_eq!(c.tx_power, 1.0);
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
