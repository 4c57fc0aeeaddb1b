//! Per-link counter-based fading streams behind the channel state.
//!
//! Every fading draw is a pure function of `(channel_seed, edp, requester,
//! draw id)`: the key is hashed through a SplitMix64 chain and seeds a
//! fresh [`mfgcp_sde::SimRng`] for that single Gaussian sample. Draw id
//! `2·n` is the transition noise into step `n`; draw id `2·n + 1` seeds a
//! link that becomes serving *at* step `n` (construction or handover) from
//! the OU stationary law. Consequences, all load-bearing:
//!
//! - **Dense parity**: a dense reference that steps every (EDP, requester)
//!   link evaluates the same function of the same key, so every serving
//!   link carries bit-identical fading at every step.
//! - **Order independence**: iteration order over links (sequential or
//!   chunked across threads) cannot change any draw, so runs stay
//!   bit-identical for any `--threads` value.
//! - **Deterministic handover**: a requester that changes serving EDP
//!   draws its new link from a stream that depends only on the key —
//!   never on which thread or in which order the re-association ran.

use mfgcp_sde::{seeded_rng, OrnsteinUhlenbeck, SimRng, StandardNormal};

use crate::config::NetworkConfig;

/// SplitMix64 finalizer: the bijective avalanche mix used to derive
/// per-link stream keys.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fresh single-use RNG for draw `draw` of link `(edp, requester)` under
/// `seed`. Used for exactly one Gaussian sample (rejection sampling may
/// consume a variable number of words, which is fine — the stream is
/// never shared across draws).
#[inline]
pub(crate) fn link_rng(seed: u64, edp: usize, requester: usize, draw: u64) -> SimRng {
    let a = mix(seed ^ (edp as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let b = mix(a ^ (requester as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    seeded_rng(mix(b ^ draw.wrapping_mul(0x2545_F491_4F6C_DD1D)))
}

/// Run `f` over disjoint chunks of `items` on scoped threads, passing each
/// chunk's base index. Falls back to one inline call when the population
/// is too small to amortize thread spawns. Every caller's per-item work is
/// keyed by counter-based per-link streams, so any chunking — including
/// the sequential fallback — is bit-identical.
pub(crate) fn par_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(items: &mut [T], f: F) {
    const MIN_PER_THREAD: usize = 1024;
    // `available_parallelism` reads the affinity mask and cgroup quota on
    // every call, so a population too small to split never asks.
    let most = items.len() / MIN_PER_THREAD;
    let threads = if most > 1 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(most)
    } else {
        1
    };
    if threads <= 1 {
        f(0, items);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, chunk_items) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || f(c * chunk, chunk_items));
        }
    });
}

/// Stationary-law fading for a link that becomes serving at step `step`
/// (`step = 0` at construction), clamped into the configured band.
#[inline]
pub(crate) fn init_fading(
    seed: u64,
    edp: usize,
    requester: usize,
    step: u64,
    process: &OrnsteinUhlenbeck,
    cfg: &NetworkConfig,
) -> f64 {
    let mut rng = link_rng(seed, edp, requester, 2 * step + 1);
    let z = StandardNormal.sample(&mut rng);
    cfg.clamp_fading(process.stationary_mean() + process.stationary_variance().sqrt() * z)
}

/// One exact OU transition of a link's fading into step `step`, clamped.
///
/// The flat argument list *is* the stream key plus transition inputs —
/// bundling them into a struct would hide which components key the
/// per-link RNG (`seed`/`edp`/`requester`/`step`) versus which feed the
/// OU transition, so the lint is waived.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn advance_fading(
    seed: u64,
    edp: usize,
    requester: usize,
    step: u64,
    h: f64,
    dt: f64,
    transition_sd: f64,
    process: &OrnsteinUhlenbeck,
    cfg: &NetworkConfig,
) -> f64 {
    let mut rng = link_rng(seed, edp, requester, 2 * step);
    let z = StandardNormal.sample(&mut rng);
    cfg.clamp_fading(process.transition_mean(h, dt) + transition_sd * z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_streams_are_reproducible_and_distinct() {
        use rand::RngExt as _;
        let mut a = link_rng(7, 3, 11, 40);
        let mut b = link_rng(7, 3, 11, 40);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
        // Different key components give different streams.
        let base = link_rng(7, 3, 11, 40).random::<u64>();
        assert_ne!(link_rng(8, 3, 11, 40).random::<u64>(), base);
        assert_ne!(link_rng(7, 4, 11, 40).random::<u64>(), base);
        assert_ne!(link_rng(7, 3, 12, 40).random::<u64>(), base);
        assert_ne!(link_rng(7, 3, 11, 41).random::<u64>(), base);
    }

    #[test]
    fn init_fading_is_clamped_and_deterministic() {
        let cfg = NetworkConfig::default();
        let process = cfg.fading_process();
        for step in [0u64, 1, 17] {
            for edp in 0..5 {
                let h = init_fading(99, edp, 2, step, &process, &cfg);
                assert!(h >= cfg.fading_min && h <= cfg.fading_max);
                assert_eq!(h, init_fading(99, edp, 2, step, &process, &cfg));
            }
        }
    }
}
