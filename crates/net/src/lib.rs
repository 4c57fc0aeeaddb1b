//! Wireless network substrate for the MFG-CP reproduction.
//!
//! Implements the network model of §II-A: planar geometry for Edge Data
//! Providers (EDPs) and requesters, random-waypoint requester mobility
//! (the stated source of channel randomness), nearest-EDP association, the
//! Ornstein–Uhlenbeck channel-fading dynamics of Eq. (1) (via `mfgcp-sde`),
//! the path-loss channel gain `|g|² = |h|² d^{−τ}`, and the
//! interference-limited Shannon rate of Eq. (2):
//!
//! `H_{i,j} = B log₂(1 + |g_{i,j}|² G_i / (ϱ² + Σ_{i'≠i} |g_{i',j}|² G_{i'}))`.
//!
//! The channel state holds exactly what the market reads: one serving
//! link per requester, an EDP index plus its OU fading, stepped every
//! slot from per-link counter-based streams. A spatial hash grid over the
//! EDP placement answers nearest-EDP association in O(1) expected. The
//! Eq. (2) formulas are free functions ([`shannon_rate`],
//! [`channel_gain`]) for callers that evaluate rates from a topology's
//! distances and the channel's fading.
//!
//! # Example
//!
//! ```
//! use mfgcp_net::{channel_gain, shannon_rate, ChannelState, NetworkConfig, Topology};
//! let cfg = NetworkConfig::default();
//! let mut rng = mfgcp_sde::seeded_rng(1);
//! let topo = Topology::random(8, 40, &cfg, &mut rng);
//! let mut channels = ChannelState::init(&topo, &cfg, &mut rng);
//! channels.advance(0.01);
//! // Eq. (2) for requester 0's serving link, interference-free, at §V-A's
//! // B = 10 MHz, τ = 3, G = 1 W and ϱ² = 10⁻¹³ W.
//! let i = topo.serving(0);
//! let gain = channel_gain(channels.fading(i, 0), topo.distance(i, 0), 3.0, 1.0);
//! let rate = shannon_rate(10e6, gain, 1.0, 1e-13, 0.0);
//! assert!(rate > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod channel;
mod config;
mod geometry;
mod grid;
mod mobility;
mod shard;
#[cfg(test)]
mod sharded_vs_dense;
mod topology;

pub use channel::{ChannelState, ShardStats};
pub use config::NetworkConfig;
pub use geometry::{uniform_in_disc, Point};
pub use mobility::{MobileRequesters, RandomWaypoint};
pub use topology::Topology;

/// Shannon rate of Eq. (2) given the desired-link gain, the total
/// interference gain (already weighted by the interfering EDPs' powers), the
/// transmit power of the serving EDP, the noise power, and the bandwidth.
///
/// All quantities are linear (not dB). Returns bits/s.
pub fn shannon_rate(
    bandwidth: f64,
    link_gain: f64,
    tx_power: f64,
    noise_power: f64,
    interference: f64,
) -> f64 {
    debug_assert!(bandwidth > 0.0 && noise_power > 0.0);
    let sinr = link_gain * tx_power / (noise_power + interference);
    bandwidth * (1.0 + sinr).log2()
}

/// Channel gain `|g|² = |h|² · d^{−τ}` from the fading coefficient `h`,
/// distance `d` and path-loss exponent `τ`.
///
/// Distances below `min_distance` are clamped to avoid the singularity at
/// co-located nodes.
pub fn channel_gain(h: f64, distance: f64, path_loss_exp: f64, min_distance: f64) -> f64 {
    let d = distance.max(min_distance);
    h * h * d.powf(-path_loss_exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shannon_rate_increases_with_gain() {
        let r1 = shannon_rate(10e6, 1e-10, 1.0, 1e-13, 0.0);
        let r2 = shannon_rate(10e6, 2e-10, 1.0, 1e-13, 0.0);
        assert!(r2 > r1);
    }

    #[test]
    fn shannon_rate_decreases_with_interference() {
        let r1 = shannon_rate(10e6, 1e-10, 1.0, 1e-13, 0.0);
        let r2 = shannon_rate(10e6, 1e-10, 1.0, 1e-13, 1e-11);
        assert!(r2 < r1);
    }

    #[test]
    fn zero_gain_means_zero_rate() {
        assert_eq!(shannon_rate(10e6, 0.0, 1.0, 1e-13, 0.0), 0.0);
    }

    #[test]
    fn channel_gain_follows_path_loss() {
        let g_near = channel_gain(1e-5, 10.0, 3.0, 1.0);
        let g_far = channel_gain(1e-5, 20.0, 3.0, 1.0);
        // Doubling distance with τ = 3 cuts the gain by 8×.
        assert!((g_near / g_far - 8.0).abs() < 1e-9);
    }

    #[test]
    fn channel_gain_clamps_tiny_distances() {
        let g0 = channel_gain(1e-5, 0.0, 3.0, 1.0);
        let g1 = channel_gain(1e-5, 0.5, 3.0, 1.0);
        assert_eq!(g0, g1);
        assert!(g0.is_finite());
    }
}
