//! Per-link channel fading state and interference-limited rates.
//!
//! Maintains OU fading coefficients `h_{i,j}(t)` (Eq. (1)), advanced with
//! the *exact* OU transition (no discretization error), and computes the
//! Eq. (2) rate including the interference sum `Σ_{i'≠i} |g_{i',j}|² G_{i'}`.
//!
//! The storage is occupancy-local: per requester it tracks only the
//! serving-EDP link plus the `k_int` nearest interferers
//! ([`NetworkConfig::k_int`]). Memory and per-slot fading work are
//! O(J·k_int) — flat in `M` at fixed occupancy. The Eq. (2) interference
//! sum is the live tracked neighborhood plus a **frozen mean-field tail**:
//! the untracked far field at the OU stationary-mean fading, recomputed
//! only at (re)association from the moment pyramid over the static EDP
//! grid (near untracked EDPs link by link, far ones from their cell
//! moments). The tail aggregates many weak links whose fading
//! fluctuations average out, so the relative interference error stays
//! within [`NetworkConfig::truncation_tol`] (measured by the
//! `net.shard.truncated_power` gauge, bounded by the differential tests
//! against a dense reference that exists only in test code).
//!
//! Every fading draw comes from a per-link counter-based stream keyed on
//! `(channel seed, EDP, requester, draw id)` (see [`crate::shard`]), so
//! results do not depend on iteration order or thread count.

use mfgcp_obs::RecorderHandle;
use mfgcp_sde::OrnsteinUhlenbeck;
use rand::Rng;

use crate::config::NetworkConfig;
use crate::shard::{Link, ShardedLinks};
use crate::topology::Topology;
use crate::{channel_gain, shannon_rate};

/// Floor of the adaptive tracked-interferer budget: below this the
/// per-record bookkeeping is noise and further shrinking saves nothing.
const MIN_ADAPTIVE_K_INT: usize = 4;

/// Dynamic channel state for the tracked (EDP, requester) links.
#[derive(Debug, Clone)]
pub struct ChannelState {
    links: ShardedLinks,
    num_edps: usize,
    num_requesters: usize,
    process: OrnsteinUhlenbeck,
    cfg: NetworkConfig,
    /// Channel substream seed; every fading draw is keyed off it.
    seed: u64,
    /// Slot counter: [`ChannelState::advance`] increments it and draws
    /// transition noise with draw id `2·step`; links freshly tracked at
    /// a handover initialize with draw id `2·step + 1`.
    step: u64,
    recorder: RecorderHandle,
}

impl ChannelState {
    /// Initialize all tracked links from the OU stationary distribution,
    /// clamped to the configured fading band. Consumes exactly one `u64`
    /// from `rng` as the channel substream seed; all per-link draws are
    /// derived from it, never from `rng` again.
    pub fn init<R: Rng + ?Sized>(topo: &Topology, cfg: &NetworkConfig, rng: &mut R) -> Self {
        Self::init_with_seed(topo, cfg, rng.next_u64())
    }

    /// [`ChannelState::init`] with an explicit channel seed — the entry
    /// point for tests and benchmarks that must build several states over
    /// identical per-link streams.
    pub fn init_with_seed(topo: &Topology, cfg: &NetworkConfig, seed: u64) -> Self {
        assert!(cfg.k_int > 0, "k_int must be at least 1");
        let process = cfg.fading_process();
        Self {
            links: ShardedLinks::build(topo, cfg, &process, seed, 0, cfg.k_int),
            num_edps: topo.num_edps(),
            num_requesters: topo.num_requesters(),
            process,
            cfg: cfg.clone(),
            seed,
            step: 0,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attach a telemetry recorder: each re-association then emits
    /// `net.shard.*` gauges (occupancy, tracked interferers, truncated
    /// interference power). Telemetry reads state only — it never
    /// perturbs the channel dynamics.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Number of EDPs.
    pub fn num_edps(&self) -> usize {
        self.num_edps
    }

    /// Number of requesters.
    pub fn num_requesters(&self) -> usize {
        self.num_requesters
    }

    /// Number of links currently holding fading state.
    pub fn tracked_links(&self) -> usize {
        self.links
            .records
            .iter()
            .map(|r| 1 + r.interferers.len())
            .sum()
    }

    /// Resident bytes of the link records and the shard index.
    pub fn memory_bytes(&self) -> usize {
        self.links.memory_bytes()
    }

    /// Current fading coefficient `h_{i,j}`; `0` for an untracked link
    /// (use [`ChannelState::link_fading`] to distinguish untracked from
    /// faded-to-zero — the clamp band keeps tracked fading strictly
    /// positive).
    pub fn fading(&self, i: usize, j: usize) -> f64 {
        self.link_fading(i, j).unwrap_or(0.0)
    }

    /// Fading of link `(i, j)` if it is tracked, `None` otherwise.
    pub fn link_fading(&self, i: usize, j: usize) -> Option<f64> {
        self.links.records[j].link_to(i as u32).map(|l| l.fading)
    }

    /// Tracked interferer links of requester `j`.
    pub fn interferer_count(&self, j: usize) -> usize {
        self.links.records[j].interferers.len()
    }

    /// EDP indices of the tracked interferers of requester `j`, in the
    /// order they are summed by [`ChannelState::interference`].
    pub fn tracked_interferers(&self, j: usize) -> Vec<usize> {
        self.links.records[j]
            .interferers
            .iter()
            .map(|l| l.edp as usize)
            .collect()
    }

    /// Re-sync with a topology whose association changed (epoch-boundary
    /// mobility): refresh link distances and migrate link state between
    /// shards — links tracked on both sides of a handover keep their
    /// fading, newly tracked links draw from their per-link stationary
    /// stream at the current step, dropped links are forgotten, and the
    /// far-field tail is recomputed. Deterministic for any thread count
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if the topology's dimensions changed.
    pub fn refresh_distances(&mut self, topo: &Topology) {
        assert_eq!(topo.num_edps(), self.num_edps, "EDP count changed");
        assert_eq!(
            topo.num_requesters(),
            self.num_requesters,
            "requester count changed"
        );
        self.links
            .reassociate(topo, &self.cfg, &self.process, self.seed, self.step);
        if self.cfg.adaptive_k_int {
            self.adapt_k_int(topo);
        }
        self.emit_shard_gauges();
    }

    /// The adaptive-k controller: after a re-association, resize the
    /// tracked-interferer budget from the measured truncated-power share
    /// (the same quantity the `net.shard.truncated_power` gauge reports).
    /// Doubles `k_int` while the tail carries more than
    /// `truncation_tol / 2` of the stationary-mean interference power
    /// (capped at `M − 1`, where the tail is empty); halves it once per
    /// boundary when the tail share drops below `truncation_tol / 8`
    /// (floored at [`MIN_ADAPTIVE_K_INT`]). The 4× gap between the two
    /// thresholds is the hysteresis that keeps the controller from
    /// oscillating between boundaries. Deterministic: the decision is a
    /// pure function of tracked distances, so runs stay bit-reproducible
    /// for any thread count.
    fn adapt_k_int(&mut self, topo: &Topology) {
        let max_k = self.num_edps.saturating_sub(1).max(1);
        let (cfg, process, seed, step) = (&self.cfg, &self.process, self.seed, self.step);
        let links = &mut self.links;
        let mut grown = false;
        loop {
            let Some((fraction, _)) = links.tail_fraction(process, cfg) else {
                return;
            };
            let k = links.k_int;
            if fraction > 0.5 * cfg.truncation_tol && k < max_k {
                links.retrack(topo, cfg, process, seed, step, (k * 2).min(max_k));
                grown = true;
                continue;
            }
            // Never shrink in a pass that grew: a budget at the cap has a
            // tail share of exactly 0 (everything is tracked), which says
            // the tolerance *demanded* the cap, not that the budget is
            // slack — backing off would re-violate it next boundary.
            if grown {
                return;
            }
            if fraction < 0.125 * cfg.truncation_tol && k > MIN_ADAPTIVE_K_INT {
                // Shrink as a measured probe, at most one halving per
                // boundary: keep it only if the halved budget still meets
                // the grow threshold, otherwise revert. (A zero tail
                // carries no information about what halving would leave,
                // so the probe must re-measure rather than assume.)
                let target = (k / 2).max(MIN_ADAPTIVE_K_INT);
                links.retrack(topo, cfg, process, seed, step, target);
                if let Some((shrunk, _)) = links.tail_fraction(process, cfg) {
                    if shrunk > 0.5 * cfg.truncation_tol {
                        links.retrack(topo, cfg, process, seed, step, k);
                    }
                }
            }
            return;
        }
    }

    /// Recompute the tracked link distances from explicit requester
    /// positions, without touching the nearest-EDP association — the
    /// per-slot case where walkers move continuously but association
    /// only changes at epoch boundaries. O(tracked links), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the topology's EDP count or the position count changed.
    pub fn refresh_distances_from_positions(
        &mut self,
        topo: &Topology,
        positions: &[crate::Point],
    ) {
        assert_eq!(topo.num_edps(), self.num_edps, "EDP count changed");
        assert_eq!(
            positions.len(),
            self.num_requesters,
            "requester count changed"
        );
        self.links.refresh_distances(topo, positions);
    }

    /// Advance every tracked link by `dt` using the exact OU transition,
    /// clamping into the configured fading band. Each link draws from its
    /// own counter-based stream, so the result is independent of
    /// iteration order and thread count.
    pub fn advance(&mut self, dt: f64) {
        self.step += 1;
        self.links
            .advance(&self.cfg, &self.process, self.seed, self.step, dt);
    }

    /// Channel gain `|g_{i,j}|²`; `0` for an untracked link.
    pub fn gain(&self, i: usize, j: usize) -> f64 {
        self.links.records[j]
            .link_to(i as u32)
            .map_or(0.0, |l| self.link_gain(l))
    }

    fn link_gain(&self, l: &Link) -> f64 {
        channel_gain(
            l.fading,
            l.distance,
            self.cfg.path_loss_exp,
            self.cfg.min_distance,
        )
    }

    /// Interference power at requester `j` from all EDPs except `i`
    /// (`Σ_{i'≠i} |g_{i',j}|² G`, Eq. (2) denominator): the tracked
    /// neighborhood with live fading plus the frozen far-field tail at
    /// the stationary-mean fading (see [`NetworkConfig::truncation_tol`]).
    pub fn interference(&self, i: usize, j: usize) -> f64 {
        let record = &self.links.records[j];
        let mut acc = 0.0;
        for l in std::iter::once(&record.serving).chain(&record.interferers) {
            if l.edp as usize != i {
                acc += self.link_gain(l) * self.cfg.tx_power;
            }
        }
        // The frozen mean-field tail of the untracked far field (see
        // `RequesterLinks::tail_gain`).
        acc + record.tail_gain * self.cfg.tx_power
    }

    /// Achievable rate `H_{i,j}` of Eq. (2), bits/s. `0` for an untracked
    /// link (its gain is `0`).
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        shannon_rate(
            self.cfg.bandwidth,
            self.gain(i, j),
            self.cfg.tx_power,
            self.cfg.noise_power,
            self.interference(i, j),
        )
    }

    /// Mean rate from EDP `i` to its served requesters; `None` if it serves
    /// nobody. Used when a scalar per-EDP rate is needed (reduced solver).
    pub fn mean_rate_to_served(&self, topo: &Topology, i: usize) -> Option<f64> {
        let served = topo.served_by(i);
        if served.is_empty() {
            return None;
        }
        let total: f64 = served.iter().map(|&j| self.rate(i, j)).sum();
        Some(total / served.len() as f64)
    }

    /// The statistics behind the `net.shard.*` gauges as plain data, for
    /// the live snapshot/query path. Pure reads — no RNG, no mutation —
    /// but the truncated-power estimate costs O(J·k_int), so callers
    /// should sample it at re-association cadence, not per slot.
    pub fn shard_stats(&self) -> ShardStats {
        let links = &self.links;
        let occupied = links.shards.iter().filter(|s| !s.is_empty()).count();
        let max_occ = links.shards.iter().map(Vec::len).max().unwrap_or(0);
        let mean_occ = if occupied > 0 {
            self.num_requesters as f64 / occupied as f64
        } else {
            0.0
        };
        let tracked: usize = links.records.iter().map(|r| r.interferers.len()).sum();
        let mean_int = if self.num_requesters > 0 {
            tracked as f64 / self.num_requesters as f64
        } else {
            0.0
        };
        ShardStats {
            mean_occupancy: mean_occ,
            max_occupancy: max_occ as u64,
            occupied_shards: occupied as u64,
            edps: self.num_edps as u64,
            requesters: self.num_requesters as u64,
            mean_interferers: mean_int,
            k_int: links.k_int as u64,
            truncated_power: links.tail_fraction(&self.process, &self.cfg),
        }
    }

    /// Emit the `net.shard.*` gauges after a re-association. Pure reads —
    /// no RNG, no mutation — so telemetry cannot perturb the run. The
    /// truncated-power estimate evaluates every fading coefficient at
    /// the stationary mean (the split is geometric, so fading cancels in
    /// expectation); cost is O(J·k_int), never O(M·J).
    fn emit_shard_gauges(&self) {
        if !self.recorder.enabled() {
            return;
        }
        let stats = self.shard_stats();
        self.recorder.gauge(
            "net.shard.occupancy",
            stats.mean_occupancy,
            &[
                ("max", stats.max_occupancy.into()),
                ("occupied", stats.occupied_shards.into()),
                ("edps", stats.edps.into()),
                ("requesters", stats.requesters.into()),
            ],
        );
        self.recorder.gauge(
            "net.shard.interferers",
            stats.mean_interferers,
            &[("k_int", stats.k_int.into())],
        );
        // Share of the interference power (at the stationary-mean fading)
        // carried by the frozen mean-field tail rather than by live
        // tracked links — the part of Eq. (2) the sharding approximates,
        // and the signal the adaptive-k controller steers on.
        if let Some((fraction, sampled)) = stats.truncated_power {
            self.recorder.gauge(
                "net.shard.truncated_power",
                fraction,
                &[("sampled", sampled.into())],
            );
        }
    }
}

/// Channel statistics — the exact numbers behind the
/// `net.shard.{occupancy,interferers,truncated_power}` gauges, exposed
/// as plain data so the live control plane can serve them from snapshot
/// queries as well as from the telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Mean requesters per occupied shard.
    pub mean_occupancy: f64,
    /// Largest shard population.
    pub max_occupancy: u64,
    /// Number of non-empty shards.
    pub occupied_shards: u64,
    /// EDP count (M).
    pub edps: u64,
    /// Requester count (J).
    pub requesters: u64,
    /// Mean tracked interferers per requester.
    pub mean_interferers: f64,
    /// Configured interferer budget.
    pub k_int: u64,
    /// Frozen-tail share of interference power at the stationary-mean
    /// fading, with the number of requesters sampled for the estimate;
    /// `None` when the estimate is unavailable.
    pub truncated_power: Option<(f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use mfgcp_sde::seeded_rng;

    fn small() -> (Topology, NetworkConfig) {
        let edps = vec![Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let requesters = vec![Point::new(10.0, 0.0), Point::new(190.0, 0.0)];
        (
            Topology::with_positions(edps, requesters),
            NetworkConfig::default(),
        )
    }

    #[test]
    fn fading_stays_in_band_forever() {
        let (topo, cfg) = small();
        let mut rng = seeded_rng(8);
        let mut ch = ChannelState::init(&topo, &cfg, &mut rng);
        for _ in 0..200 {
            ch.advance(0.05);
            for i in 0..2 {
                for j in 0..2 {
                    let h = ch.fading(i, j);
                    assert!(h >= cfg.fading_min && h <= cfg.fading_max);
                }
            }
        }
    }

    #[test]
    fn nearer_link_has_better_rate_on_average() {
        let (topo, cfg) = small();
        let mut rng = seeded_rng(9);
        let mut near = 0.0;
        let mut far = 0.0;
        for _ in 0..100 {
            let ch = ChannelState::init(&topo, &cfg, &mut rng);
            near += ch.rate(0, 0); // 10 m away
            far += ch.rate(1, 0); // 190 m away
        }
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn interference_excludes_the_serving_edp() {
        let (topo, cfg) = small();
        let mut rng = seeded_rng(10);
        let ch = ChannelState::init(&topo, &cfg, &mut rng);
        let i0 = ch.interference(0, 0);
        // Only EDP 1 interferes with link (0, 0).
        assert!((i0 - ch.gain(1, 0) * cfg.tx_power).abs() < 1e-25);
    }

    #[test]
    fn mean_rate_handles_unserved_edps() {
        let edps = vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)];
        let requesters = vec![Point::new(1.0, 0.0)];
        let topo = Topology::with_positions(edps, requesters);
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(11);
        let ch = ChannelState::init(&topo, &cfg, &mut rng);
        assert!(ch.mean_rate_to_served(&topo, 0).is_some());
        assert!(ch.mean_rate_to_served(&topo, 1).is_none());
    }

    #[test]
    fn refresh_distances_tracks_topology() {
        let (mut topo, cfg) = small();
        let mut rng = seeded_rng(13);
        let mut ch = ChannelState::init(&topo, &cfg, &mut rng);
        let before = ch.gain(0, 0);
        // Move requester 0 far away from EDP 0.
        topo.update_requesters(&[Point::new(400.0, 0.0), Point::new(190.0, 0.0)]);
        ch.refresh_distances(&topo);
        assert!(ch.gain(0, 0) < before, "gain should drop with distance");
    }

    #[test]
    fn refresh_from_positions_matches_topology_rebuild() {
        let (topo, cfg) = small();
        let mut rng = seeded_rng(14);
        let mut via_positions = ChannelState::init(&topo, &cfg, &mut rng);
        let mut via_rebuild = via_positions.clone();
        let moved = vec![Point::new(321.0, -45.0), Point::new(-17.0, 60.0)];
        via_positions.refresh_distances_from_positions(&topo, &moved);
        let mut probe = topo.clone();
        probe.update_requesters(&moved);
        via_rebuild.refresh_distances(&probe);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(via_positions.gain(i, j), via_rebuild.gain(i, j));
            }
        }
    }

    #[test]
    fn advance_changes_the_state_deterministically_per_seed() {
        let (topo, cfg) = small();
        let mut rng1 = seeded_rng(12);
        let mut rng2 = seeded_rng(12);
        let mut a = ChannelState::init(&topo, &cfg, &mut rng1);
        let mut b = ChannelState::init(&topo, &cfg, &mut rng2);
        a.advance(0.1);
        b.advance(0.1);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(a.fading(i, j), b.fading(i, j));
                assert_ne!(a.fading(i, j), 0.0);
            }
        }
    }

    #[test]
    fn sharded_layout_truncates_to_k_int() {
        // A line of EDPs; with k_int = 1 each requester tracks its serving
        // EDP and exactly one interferer, and distant links report zero.
        let edps: Vec<Point> = (0..6).map(|i| Point::new(100.0 * i as f64, 0.0)).collect();
        let requesters = vec![Point::new(5.0, 0.0)];
        let topo = Topology::with_positions(edps, requesters);
        let cfg = NetworkConfig {
            k_int: 1,
            ..NetworkConfig::default()
        };
        let ch = ChannelState::init_with_seed(&topo, &cfg, 77);
        assert_eq!(ch.tracked_links(), 2);
        assert_eq!(ch.interferer_count(0), 1);
        assert!(ch.link_fading(0, 0).is_some(), "serving link tracked");
        assert!(ch.link_fading(1, 0).is_some(), "nearest interferer tracked");
        assert_eq!(ch.link_fading(5, 0), None, "distant link untracked");
        assert_eq!(ch.gain(5, 0), 0.0);
        assert_eq!(ch.rate(5, 0), 0.0);
    }

    #[test]
    fn sharded_memory_is_flat_in_edp_count() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(15);
        let small = Topology::random(50, 40, &cfg, &mut rng);
        let big = Topology::random(5_000, 40, &cfg, &mut rng);
        let ch_small = ChannelState::init_with_seed(&small, &cfg, 1);
        let ch_big = ChannelState::init_with_seed(&big, &cfg, 1);
        // Tracked links are J·(1 + k_int) in both; only the shard index
        // (one Vec header per EDP) grows with M.
        assert_eq!(ch_small.tracked_links(), ch_big.tracked_links());
        // One Vec header per EDP plus allocation-granularity slack for the
        // occupied shards' small buffers.
        let index_growth = (5_000 - 50) * std::mem::size_of::<Vec<u32>>() + 1024;
        assert!(
            ch_big.memory_bytes() <= ch_small.memory_bytes() + index_growth,
            "sharded channel memory must not scale with M beyond the index: \
             {} vs {}",
            ch_big.memory_bytes(),
            ch_small.memory_bytes()
        );
    }

    #[test]
    fn adaptive_k_int_grows_until_the_tail_meets_the_tolerance() {
        let mut rng = seeded_rng(19);
        let cfg = NetworkConfig {
            k_int: 1,
            adaptive_k_int: true,
            ..NetworkConfig::default()
        };
        let mut topo = Topology::random(60, 30, &cfg, &mut rng);
        let mut ch = ChannelState::init(&topo, &cfg, &mut rng);
        let moved: Vec<Point> = (0..30)
            .map(|_| crate::uniform_in_disc(500.0, &mut rng))
            .collect();
        topo.update_requesters(&moved);
        ch.refresh_distances(&topo);
        let links = &ch.links;
        assert!(links.k_int > 1, "one tracked interferer leaves a fat tail");
        let (fraction, _) = links.tail_fraction(&ch.process, &ch.cfg).unwrap();
        assert!(
            fraction <= 0.5 * ch.cfg.truncation_tol || links.k_int == 59,
            "controller must stop inside tolerance (or at M − 1): \
             fraction {fraction}, k {}",
            links.k_int
        );
    }

    #[test]
    fn adaptive_k_int_shrinks_a_slack_budget_one_probe_at_a_time() {
        // EDPs on a geometrically-spaced line: with τ = 3 the far field
        // is negligible, so a budget of 6 interferers is pure slack and
        // the halved budget of 4 still sits far inside the tolerance.
        let edps: Vec<Point> = std::iter::once(Point::new(0.0, 0.0))
            .chain((0..7).map(|i| Point::new(100.0 * (1 << i) as f64, 0.0)))
            .collect();
        let requesters = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let mut topo = Topology::with_positions(edps, requesters);
        let cfg = NetworkConfig {
            k_int: 6,
            adaptive_k_int: true,
            ..NetworkConfig::default()
        };
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, 20);
        topo.update_requesters(&[Point::new(1.5, 0.0), Point::new(2.5, 0.0)]);
        ch.refresh_distances(&topo);
        let links = &ch.links;
        assert_eq!(links.k_int, 4, "one probe halving, floored at 4");
    }

    #[test]
    fn adaptive_k_int_reverts_a_shrink_probe_that_breaks_the_tolerance() {
        // At the cap (k = M − 1) the tail share is exactly 0 — below the
        // shrink threshold — but this dense uniform geometry needs the
        // whole budget, so the probe must measure, fail, and revert.
        let mut rng = seeded_rng(20);
        let cfg = NetworkConfig {
            k_int: 59,
            adaptive_k_int: true,
            ..NetworkConfig::default()
        };
        let mut topo = Topology::random(60, 30, &cfg, &mut rng);
        let mut ch = ChannelState::init(&topo, &cfg, &mut rng);
        let moved: Vec<Point> = (0..30)
            .map(|_| crate::uniform_in_disc(500.0, &mut rng))
            .collect();
        topo.update_requesters(&moved);
        ch.refresh_distances(&topo);
        let links = &ch.links;
        assert_eq!(links.k_int, 59, "the failed probe must be reverted");
    }

    #[test]
    fn shard_gauges_are_emitted_on_reassociation() {
        use mfgcp_obs::MemorySink;
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(16);
        let mut topo = Topology::random(30, 60, &cfg, &mut rng);
        let mut ch = ChannelState::init(&topo, &cfg, &mut rng);
        let sink = std::sync::Arc::new(MemorySink::new());
        ch.set_recorder(RecorderHandle::new(sink.clone()));
        let moved: Vec<Point> = (0..60)
            .map(|_| crate::uniform_in_disc(500.0, &mut rng))
            .collect();
        topo.update_requesters(&moved);
        ch.refresh_distances(&topo);
        let names: Vec<String> = sink.events().iter().map(|e| e.name.to_string()).collect();
        assert!(names.contains(&"net.shard.occupancy".to_string()));
        assert!(names.contains(&"net.shard.interferers".to_string()));
        assert!(names.contains(&"net.shard.truncated_power".to_string()));
    }
}
