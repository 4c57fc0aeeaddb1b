//! Per-link channel fading state and interference-limited rates.
//!
//! Maintains OU fading coefficients `h_{i,j}(t)` (Eq. (1)), advanced with
//! the *exact* OU transition (no discretization error), and computes the
//! Eq. (2) rate including the interference sum `Σ_{i'≠i} |g_{i',j}|² G_{i'}`.
//!
//! The storage is occupancy-local: per requester it tracks only the
//! serving-EDP link plus the `k_int` nearest interferers
//! ([`NetworkConfig::k_int`]). Memory is O(J·k_int) — flat in `M` at
//! fixed occupancy — and per-slot fading work is O(J): each slot steps
//! only the serving links, and an interferer catches up on read by
//! replaying the per-link draws it missed. The Eq. (2) interference
//! sum is the live tracked neighborhood plus a **frozen mean-field tail**:
//! the untracked far field at the OU stationary-mean fading, frozen at the
//! last (re)association and computed on read from that association's
//! topology with the moment pyramid over the static EDP grid (near
//! untracked EDPs link by link, far ones from their cell moments). Only
//! the Eq. (2) reads ([`ChannelState::interference`],
//! [`ChannelState::rate`]) and the `net.shard.truncated_power` gauge pay
//! for it; construction and re-association do not. The tail aggregates
//! many weak links whose fading fluctuations average out, so the relative
//! interference error stays within [`TRUNCATION_TOL`](crate::TRUNCATION_TOL)
//! (measured by the `net.shard.truncated_power` gauge, bounded by the
//! differential tests against a dense reference that exists only in test
//! code).
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

/// Dynamic channel state for the tracked (EDP, requester) links.
///
/// Link distances hold as of the last association
/// ([`ChannelState::init`] or [`ChannelState::refresh_distances`]);
/// [`ChannelState::advance`] moves fading only. Fading reads never touch
/// a distance, so only a caller that reads gains, interference or rates
/// mid-epoch while requesters move needs
/// [`ChannelState::refresh_distances_from_positions`].
#[derive(Debug, Clone)]
pub struct ChannelState {
    links: ShardedLinks,
    num_edps: usize,
    num_requesters: usize,
    process: OrnsteinUhlenbeck,
    cfg: NetworkConfig,
    /// Channel substream seed; every fading draw is keyed off it.
    seed: u64,
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
        Self::starting_at(topo, cfg, seed, 0)
    }

    /// [`ChannelState::init_with_seed`] with the slot counter starting at
    /// `step` instead of 0: tests use it to run the counter across the
    /// `u32` stamp limit without taking billions of steps.
    #[cfg(test)]
    pub(crate) fn init_at_step(topo: &Topology, cfg: &NetworkConfig, seed: u64, step: u64) -> Self {
        Self::starting_at(topo, cfg, seed, step)
    }

    fn starting_at(topo: &Topology, cfg: &NetworkConfig, seed: u64, step: u64) -> Self {
        assert!(cfg.k_int > 0, "k_int must be at least 1");
        let process = cfg.fading_process();
        Self {
            links: ShardedLinks::build(topo, cfg, &process, seed, step),
            num_edps: topo.num_edps(),
            num_requesters: topo.num_requesters(),
            process,
            cfg: cfg.clone(),
            seed,
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

    /// Number of links currently holding fading state.
    pub fn tracked_links(&self) -> usize {
        self.links
            .records
            .iter()
            .map(|r| 1 + r.interferers.len())
            .sum()
    }

    /// Summed stationary-mean gain of requester `j`'s frozen far-field
    /// tail — the part of [`ChannelState::interference`] that no tracked
    /// link carries. Computed on read (one traversal of the EDP grid's
    /// moment pyramid) against `topo`, the topology of the last
    /// association, so it holds the value that association froze.
    pub fn tail_gain(&self, topo: &Topology, j: usize) -> f64 {
        self.links.tail_gain(topo, &self.cfg, &self.process, j)
    }

    /// Resident bytes of the link records, the per-EDP shard occupancy
    /// counts and the `dt` history.
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

    /// Every requester's serving-link fading at the current slot:
    /// `out[j] = fading(serving EDP of j, j)`, gathered in one pass for
    /// callers that read the serving link of many requesters per slot.
    /// Serving links are current at every step (each
    /// [`ChannelState::advance`] steps them), so the gather replays no
    /// draw and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per requester.
    pub fn serving_fading_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_requesters, "one entry per requester");
        self.links.serving_fading_into(out);
    }

    /// Fading of link `(i, j)` if it is tracked, `None` otherwise.
    pub fn link_fading(&self, i: usize, j: usize) -> Option<f64> {
        self.links.records[j]
            .link_to(i as u32)
            .map(|l| self.current_fading(j, l))
    }

    /// Fading of requester `j`'s tracked link `l` at the current slot: an
    /// interferer replays the transitions it missed (see
    /// [`ChannelState::advance`]).
    fn current_fading(&self, j: usize, l: &Link) -> f64 {
        self.links
            .current_fading(self.seed, j, l, &self.process, &self.cfg)
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
    /// far-field tail read from then on is `topo`'s. Deterministic for
    /// any thread count by construction.
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
            .reassociate(topo, &self.cfg, &self.process, self.seed);
        self.emit_shard_gauges(topo);
    }

    /// Recompute the tracked link distances from explicit requester
    /// positions, without touching the nearest-EDP association.
    /// O(tracked links), allocation-free.
    ///
    /// Only gain reads ([`ChannelState::gain`],
    /// [`ChannelState::interference`], [`ChannelState::rate`]) see a link
    /// distance, and the next [`ChannelState::refresh_distances`] rewrites
    /// every one, so a caller that reads only fading between
    /// re-associations (the simulation engine) never needs this. It is
    /// for callers that read gains mid-epoch while walkers move. The
    /// far-field tail stays frozen at the last association: those reads
    /// still take that association's topology, not the moved positions.
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

    /// Advance the channel one slot of `dt` with the exact OU transition,
    /// clamped into the configured fading band. O(J): only serving links
    /// are stepped. Every read of an interferer (`fading`, `link_fading`,
    /// `gain`, `interference`, `rate`) replays the transitions it missed
    /// from the same per-link draws, so every value is bit-identical to
    /// stepping all tracked links here. Each link draws from its own
    /// counter-based stream, so the result is independent of iteration
    /// order and thread count.
    pub fn advance(&mut self, dt: f64) {
        self.links.advance(&self.cfg, &self.process, self.seed, dt);
    }

    /// Channel gain `|g_{i,j}|²`; `0` for an untracked link.
    pub fn gain(&self, i: usize, j: usize) -> f64 {
        self.links.records[j]
            .link_to(i as u32)
            .map_or(0.0, |l| self.link_gain(j, l))
    }

    fn link_gain(&self, j: usize, l: &Link) -> f64 {
        channel_gain(
            self.current_fading(j, l),
            l.distance,
            self.cfg.path_loss_exp,
            self.cfg.min_distance,
        )
    }

    /// Interference power at requester `j` from all EDPs except `i`
    /// (`Σ_{i'≠i} |g_{i',j}|² G`, Eq. (2) denominator): the tracked
    /// neighborhood with live fading plus the frozen far-field tail at
    /// the stationary-mean fading (see [`TRUNCATION_TOL`](crate::TRUNCATION_TOL)).
    /// `topo` is the topology of the last association, which the tail is
    /// computed from ([`ChannelState::tail_gain`]).
    pub fn interference(&self, topo: &Topology, i: usize, j: usize) -> f64 {
        let record = &self.links.records[j];
        let mut acc = 0.0;
        for l in std::iter::once(&record.serving).chain(&record.interferers) {
            if l.edp as usize != i {
                acc += self.link_gain(j, l) * self.cfg.tx_power;
            }
        }
        acc + self.tail_gain(topo, j) * self.cfg.tx_power
    }

    /// Achievable rate `H_{i,j}` of Eq. (2), bits/s, against `topo`, the
    /// topology of the last association. `0` for an untracked link (its
    /// gain is `0`).
    pub fn rate(&self, topo: &Topology, i: usize, j: usize) -> f64 {
        shannon_rate(
            self.cfg.bandwidth,
            self.gain(i, j),
            self.cfg.tx_power,
            self.cfg.noise_power,
            self.interference(topo, i, j),
        )
    }

    /// Mean rate from EDP `i` to its served requesters; `None` if it serves
    /// nobody: a scalar per-EDP summary of the Eq. (2) rates.
    pub fn mean_rate_to_served(&self, topo: &Topology, i: usize) -> Option<f64> {
        let served = topo.served_by(i);
        if served.is_empty() {
            return None;
        }
        let total: f64 = served.iter().map(|&j| self.rate(topo, i, j)).sum();
        Some(total / served.len() as f64)
    }

    /// The statistics behind the `net.shard.*` gauges as plain data, for
    /// the live snapshot/query path, against `topo`, the topology of the
    /// last association. Pure reads — no RNG, no mutation — but the
    /// truncated-power estimate reads one far-field tail per sampled
    /// requester (at most 256), so callers should sample it at
    /// re-association cadence, not per slot.
    pub fn shard_stats(&self, topo: &Topology) -> ShardStats {
        let links = &self.links;
        let occupied = links.shard_sizes.iter().filter(|&&n| n > 0).count();
        let max_occ = links.shard_sizes.iter().copied().max().unwrap_or(0);
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
            k_int: self.cfg.k_int as u64,
            truncated_power: links.tail_fraction(topo, &self.process, &self.cfg),
        }
    }

    /// Emit the `net.shard.*` gauges after a re-association to `topo`.
    /// Pure reads — no RNG, no mutation — so telemetry cannot perturb the
    /// run. The truncated-power estimate evaluates every fading
    /// coefficient at the stationary mean (the split is geometric, so
    /// fading cancels in expectation) over a stride sample of at most
    /// 256 requesters; cost is O(M + J) plus 256 tail reads, never
    /// O(M·J).
    fn emit_shard_gauges(&self, topo: &Topology) {
        if !self.recorder.enabled() {
            return;
        }
        let stats = self.shard_stats(topo);
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
        // tracked links — the part of Eq. (2) the sharding approximates.
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
    /// fading, averaged over a deterministic stride sample of at most 256
    /// requesters (all of them when `J ≤ 256`), with the number of sampled
    /// requesters that had any interference power; `None` when none had.
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
            near += ch.rate(&topo, 0, 0); // 10 m away
            far += ch.rate(&topo, 1, 0); // 190 m away
        }
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn interference_excludes_the_serving_edp() {
        let (topo, cfg) = small();
        let mut rng = seeded_rng(10);
        let ch = ChannelState::init(&topo, &cfg, &mut rng);
        let i0 = ch.interference(&topo, 0, 0);
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

    /// Bit patterns of every link record field: serving and interferer
    /// EDP, stamp, fading and distance.
    fn record_bits(ch: &ChannelState) -> Vec<Vec<u64>> {
        ch.links
            .records
            .iter()
            .map(|r| {
                let links = std::iter::once(&r.serving).chain(&r.interferers);
                links
                    .flat_map(|l| {
                        let (edp, stamp) = (u64::from(l.edp), u64::from(l.stamp));
                        [edp, stamp, l.fading.to_bits(), l.distance.to_bits()]
                    })
                    .collect()
            })
            .collect()
    }

    /// Between re-associations only fading moves what the engine reads, so
    /// distances refreshed from the walkers every slot must leave no trace
    /// once the epoch-boundary re-association rewrites every link.
    #[test]
    fn per_slot_distance_refresh_leaves_no_trace_after_reassociation() {
        use crate::mobility::{MobileRequesters, RandomWaypoint};
        let cfg = NetworkConfig {
            k_int: 8,
            ..NetworkConfig::default()
        };
        let mut rng = seeded_rng(21);
        let mut topo = Topology::random(80, 400, &cfg, &mut rng);
        let start = (0..400).map(|j| topo.requester(j)).collect();
        let model = RandomWaypoint::default();
        let mut walkers = MobileRequesters::new(start, cfg.area_radius, model, &mut rng);
        let mut refreshed = ChannelState::init_with_seed(&topo, &cfg, 5);
        let mut unrefreshed = refreshed.clone();
        for epoch in 0..3 {
            for _ in 0..12 {
                walkers.step(0.05, &mut rng);
                refreshed.advance(0.05);
                unrefreshed.advance(0.05);
                refreshed.refresh_distances_from_positions(&topo, walkers.positions());
            }
            assert_ne!(
                record_bits(&refreshed),
                record_bits(&unrefreshed),
                "epoch {epoch}: the walkers never moved a link"
            );
            topo.update_requesters(walkers.positions());
            refreshed.refresh_distances(&topo);
            unrefreshed.refresh_distances(&topo);
            assert!(
                record_bits(&refreshed) == record_bits(&unrefreshed),
                "epoch {epoch}: link records differ"
            );
        }
    }

    /// `out[j]` of the serving-fading gather against a per-link read of
    /// `(serving EDP, j)`, bit for bit.
    fn assert_serving_column(ch: &ChannelState, topo: &Topology, tag: &str) {
        let mut column = vec![f64::NAN; ch.num_requesters];
        ch.serving_fading_into(&mut column);
        for (j, h) in column.iter().enumerate() {
            let want = ch.fading(topo.serving(j), j);
            assert_eq!(h.to_bits(), want.to_bits(), "{tag}: requester {j}");
        }
    }

    /// The serving-fading column equals the per-link read after init,
    /// after every advance, after each re-association, and after both
    /// paths that bring every link up to date and restart the stamps: the
    /// `dt`-run cap and the `u32` stamp limit.
    #[test]
    fn serving_fading_column_matches_per_link_reads_to_0_ulp() {
        use crate::mobility::{MobileRequesters, RandomWaypoint};
        let cfg = NetworkConfig {
            k_int: 4,
            ..NetworkConfig::default()
        };
        let mut rng = seeded_rng(31);
        let mut topo = Topology::random(40, 300, &cfg, &mut rng);
        let start = (0..300).map(|j| topo.requester(j)).collect();
        let mut walkers =
            MobileRequesters::new(start, cfg.area_radius, RandomWaypoint::default(), &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, 8);
        assert_serving_column(&ch, &topo, "init");
        for epoch in 0..3 {
            for slot in 0..6 {
                walkers.step(0.05, &mut rng);
                ch.advance(0.05);
                assert_serving_column(&ch, &topo, &format!("epoch {epoch}, slot {slot}"));
            }
            topo.update_requesters(walkers.positions());
            ch.refresh_distances(&topo);
            assert_serving_column(&ch, &topo, &format!("re-association {epoch}"));
        }
        // Every advance with a new `dt` opens a run; past the cap the
        // store catches every link up and drops the history.
        for n in 0..(crate::shard::MAX_DT_RUNS + 3) {
            ch.advance(0.01 + n as f64 * 1e-4);
            assert_serving_column(&ch, &topo, &format!("dt run {n}"));
        }
        let mut ch = ChannelState::init_at_step(&topo, &cfg, 8, u64::from(u32::MAX) - 2);
        assert_serving_column(&ch, &topo, "init near the stamp limit");
        for n in 0..5 {
            ch.advance(0.05);
            assert_serving_column(&ch, &topo, &format!("step {n} across the stamp limit"));
        }
    }

    /// Every requester's on-read tail against the association-time
    /// reference recomputed from `topo`, bit for bit.
    fn assert_tails_match(ch: &ChannelState, topo: &Topology, tag: &str) {
        let process = ch.cfg.fading_process();
        for j in 0..ch.num_requesters {
            let want = crate::shard::association_time_tail(topo, &ch.cfg, &process, j);
            let got = ch.tail_gain(topo, j);
            assert_eq!(got.to_bits(), want.to_bits(), "{tag}: requester {j}");
        }
    }

    /// The tail read on demand is the tail association used to store:
    /// after init, after advances, after per-slot distance refreshes
    /// (which leave it frozen at the association), across re-associations
    /// that promote interferers to serving, with every EDP tracked, and
    /// with coincident EDPs.
    #[test]
    fn on_read_tail_matches_the_association_time_tail_to_0_ulp() {
        use crate::mobility::{MobileRequesters, RandomWaypoint};
        let cfg = NetworkConfig {
            k_int: 6,
            ..NetworkConfig::default()
        };
        let mut rng = seeded_rng(41);
        let mut topo = Topology::random(300, 200, &cfg, &mut rng);
        let start = (0..200).map(|j| topo.requester(j)).collect();
        let mut walkers =
            MobileRequesters::new(start, cfg.area_radius, RandomWaypoint::default(), &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, 3);
        assert_tails_match(&ch, &topo, "init");
        let mut promotions = 0;
        for epoch in 0..3 {
            for _ in 0..8 {
                walkers.step(0.05, &mut rng);
                ch.advance(0.05);
            }
            assert_tails_match(&ch, &topo, &format!("epoch {epoch}, after advances"));
            ch.refresh_distances_from_positions(&topo, walkers.positions());
            assert_tails_match(&ch, &topo, &format!("epoch {epoch}, distances refreshed"));
            let before: Vec<Vec<usize>> = (0..200).map(|j| ch.tracked_interferers(j)).collect();
            topo.update_requesters(walkers.positions());
            ch.refresh_distances(&topo);
            promotions += (0..200)
                .filter(|&j| before[j].contains(&topo.serving(j)))
                .count();
            assert_tails_match(&ch, &topo, &format!("re-association {epoch}"));
        }
        assert!(promotions > 0, "no interferer was promoted to serving");

        // Every EDP tracked: nothing is left for the tail.
        for (m, k_int) in [(20_usize, 19_usize), (20, 40)] {
            let cfg = NetworkConfig {
                k_int,
                ..NetworkConfig::default()
            };
            let topo = Topology::random(m, 50, &cfg, &mut rng);
            let ch = ChannelState::init_with_seed(&topo, &cfg, 4);
            assert_tails_match(&ch, &topo, &format!("M = {m}, k_int = {k_int}"));
            assert!((0..50).all(|j| ch.tail_gain(&topo, j) == 0.0));
        }

        // Three EDPs per site: the split ties in distance with untracked
        // EDPs and only the index order separates tracked from tail.
        let sites: Vec<Point> = (0..100)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let edps: Vec<Point> = sites.iter().flat_map(|&s| [s, s, s]).collect();
        let requesters = (0..150)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let topo = Topology::with_positions(edps, requesters);
        let ch = ChannelState::init_with_seed(&topo, &cfg, 5);
        assert_tails_match(&ch, &topo, "coincident EDPs");
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
        assert_eq!(ch.tracked_interferers(0), vec![1]);
        assert!(ch.link_fading(0, 0).is_some(), "serving link tracked");
        assert!(ch.link_fading(1, 0).is_some(), "nearest interferer tracked");
        assert_eq!(ch.link_fading(5, 0), None, "distant link untracked");
        assert_eq!(ch.gain(5, 0), 0.0);
        assert_eq!(ch.rate(&topo, 5, 0), 0.0);
    }

    #[test]
    fn sharded_memory_is_flat_in_edp_count() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(15);
        let small = Topology::random(50, 40, &cfg, &mut rng);
        let big = Topology::random(5_000, 40, &cfg, &mut rng);
        let ch_small = ChannelState::init_with_seed(&small, &cfg, 1);
        let ch_big = ChannelState::init_with_seed(&big, &cfg, 1);
        // Tracked links are J·(1 + k_int) in both; only the shard
        // occupancy index (one u32 count per EDP) grows with M.
        assert_eq!(ch_small.tracked_links(), ch_big.tracked_links());
        // Bounded by the former index (one Vec header per EDP plus
        // allocation-granularity slack for the occupied shards' buffers)...
        let index_growth = (5_000 - 50) * std::mem::size_of::<Vec<u32>>() + 1024;
        assert!(
            ch_big.memory_bytes() <= ch_small.memory_bytes() + index_growth,
            "sharded channel memory must not scale with M beyond the index: \
             {} vs {}",
            ch_big.memory_bytes(),
            ch_small.memory_bytes()
        );
        // ...and exactly by the counts that replaced it.
        assert_eq!(
            ch_big.memory_bytes() - ch_small.memory_bytes(),
            (5_000 - 50) * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn shard_stats_mirror_the_association() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(16);
        let mut topo = Topology::random(40, 300, &cfg, &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, 5);
        for round in 0..3 {
            let sizes: Vec<usize> = (0..topo.num_edps())
                .map(|i| topo.served_by(i).len())
                .collect();
            let occupied = sizes.iter().filter(|&&n| n > 0).count();
            let stats = ch.shard_stats(&topo);
            assert_eq!(stats.occupied_shards, occupied as u64, "round {round}");
            assert_eq!(
                stats.max_occupancy,
                *sizes.iter().max().unwrap() as u64,
                "round {round}"
            );
            assert_eq!(stats.mean_occupancy, 300.0 / occupied as f64);
            // Scatter the requesters afresh and re-associate.
            let scatter = Topology::random(40, 300, &cfg, &mut rng);
            let moved: Vec<Point> = (0..300).map(|j| scatter.requester(j)).collect();
            topo.update_requesters(&moved);
            ch.refresh_distances(&topo);
        }
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
