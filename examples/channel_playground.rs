//! Channel playground: explore the Ornstein–Uhlenbeck fading model of
//! Eq. (1) and the interference-limited rates of Eq. (2) — the network
//! substrate underneath the game (and the subject of Fig. 3).
//!
//! Run with: `cargo run --release --example channel_playground`

use mfgcp::net::{channel_gain, shannon_rate, ChannelState, NetworkConfig, Topology};
use mfgcp::prelude::*;
use mfgcp::sde::Sde;

/// §V-A: bandwidth `B` (Hz), path-loss exponent `τ`, transmit power `G`
/// (W) and noise power `ϱ²` (W); distances below 1 m are clamped.
const BANDWIDTH: f64 = 10e6;
const TAU: f64 = 3.0;
const TX_POWER: f64 = 1.0;
const NOISE_POWER: f64 = 1e-13;
const MIN_DISTANCE: f64 = 1.0;

fn main() {
    let mut rng = seeded_rng(3);

    // --- Part 1: mean reversion of a single fading link (Eq. (1)).
    let cfg = NetworkConfig::default();
    let ou = cfg.fading_process();
    println!(
        "OU fading: ς_h = {}, υ_h = {:.1e}, ϱ_h = {:.1e}",
        ou.varsigma(),
        ou.upsilon(),
        ou.varrho()
    );
    println!(
        "Stationary std dev: {:.2e}\n",
        ou.stationary_variance().sqrt()
    );

    let em = EulerMaruyama::new(1e-3);
    let start_high = em.integrate(&ou, 9.0e-5, 0.0, 2.0, &mut rng);
    let start_low = em.integrate(&ou, 1.5e-5, 0.0, 2.0, &mut rng);
    println!("Mean reversion from both sides of υ_h = 5.0e-5:");
    println!("{:>6} {:>12} {:>12}", "t", "from 9e-5", "from 1.5e-5");
    for &t in &[0.0, 0.25, 0.5, 1.0, 2.0] {
        println!(
            "{:>6.2} {:>12.3e} {:>12.3e}",
            t,
            start_high.interpolate(t),
            start_low.interpolate(t)
        );
    }
    // The drift sign always points home.
    assert!(ou.drift(0.0, 9.0e-5) < 0.0 && ou.drift(0.0, 1.5e-5) > 0.0);

    // --- Part 2: a small cell with interference (Eq. (2)).
    let mut rng = seeded_rng(4);
    let topo = Topology::random(6, 24, &cfg, &mut rng);
    let mut channels = ChannelState::init(&topo, &cfg, &mut rng);
    // The channel holds each requester's serving-link fading; Eq. (2)
    // adds path loss and sums every other EDP's interference, taken here
    // at the stationary-mean fading.
    let h_bar = ou.stationary_mean();
    let rate = |channels: &ChannelState, i: usize, j: usize| {
        let gain = |h: f64, edp: usize| channel_gain(h, topo.distance(edp, j), TAU, MIN_DISTANCE);
        let interference: f64 = (0..topo.num_edps())
            .filter(|&other| other != i)
            .map(|other| gain(h_bar, other) * TX_POWER)
            .sum();
        shannon_rate(
            BANDWIDTH,
            gain(channels.fading(i, j), i),
            TX_POWER,
            NOISE_POWER,
            interference,
        )
    };
    println!(
        "\n6 EDPs / 24 requesters in a {:.0} m disc; per-EDP mean rates:",
        cfg.area_radius
    );
    println!("{:>4} {:>8} {:>14}", "EDP", "#served", "mean rate Mb/s");
    for i in 0..topo.num_edps() {
        let served = topo.served_by(i);
        let mean = if served.is_empty() {
            0.0
        } else {
            served.iter().map(|&j| rate(&channels, i, j)).sum::<f64>() / served.len() as f64
        };
        println!("{i:>4} {:>8} {:>14.1}", served.len(), mean / 1e6);
    }

    // --- Part 3: rates fluctuate as the fading evolves.
    let j = topo.served_by(0).first().copied();
    if let Some(j) = j {
        println!("\nLink (EDP 0 -> requester {j}) over time:");
        println!("{:>6} {:>12} {:>14}", "t", "fading", "rate Mb/s");
        for step in 0..6 {
            println!(
                "{:>6.2} {:>12.3e} {:>14.2}",
                step as f64 * 0.2,
                channels.fading(0, j),
                rate(&channels, 0, j) / 1e6
            );
            channels.advance(0.2);
        }
    }
}
