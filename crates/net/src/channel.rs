//! Serving-link channel fading.
//!
//! Maintains the OU fading coefficient `h_{i,j}(t)` (Eq. (1)) of every
//! requester's serving link, advanced with the *exact* OU transition (no
//! discretization error). That is all the market reads: an EDP's rate
//! `H(h)` depends on its own serving fading, and the population enters
//! only through the mean field. Memory is one link per requester (J links,
//! flat in `M`) and per-slot work is O(J).
//!
//! Every fading draw comes from a per-link counter-based stream keyed on
//! `(channel seed, EDP, requester, draw id)` (see [`crate::shard`]), so
//! results do not depend on iteration order or thread count.

use mfgcp_obs::RecorderHandle;
use mfgcp_sde::OrnsteinUhlenbeck;
use rand::Rng;

use crate::config::NetworkConfig;
use crate::shard::{advance_fading, init_fading, par_chunks};
use crate::topology::Topology;

/// One requester's serving link.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Serving EDP.
    edp: u32,
    /// OU fading coefficient `h_{i,j}` at the current step.
    fading: f64,
}

/// Dynamic channel state: the serving link of every requester.
///
/// The serving EDP holds as of the last association
/// ([`ChannelState::init`] or [`ChannelState::refresh_distances`]);
/// [`ChannelState::advance`] moves fading only.
#[derive(Debug, Clone)]
pub struct ChannelState {
    /// `links[j]` = requester `j`'s serving link.
    links: Vec<Link>,
    /// `shard_sizes[i]` = number of requesters served by EDP `i` at the
    /// last association (`Topology::served_by(i).len()`), behind the
    /// occupancy statistics.
    shard_sizes: Vec<u32>,
    /// Slots advanced so far. Transition noise into step `n` is draw
    /// `2·n`; a link that becomes serving at step `n` draws its
    /// stationary state with draw `2·n + 1`.
    step: u64,
    process: OrnsteinUhlenbeck,
    cfg: NetworkConfig,
    /// Channel substream seed; every fading draw is keyed off it.
    seed: u64,
    recorder: RecorderHandle,
}

impl ChannelState {
    /// Initialize every serving link from the OU stationary distribution,
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
        // No requester has a serving link yet, so the association pass
        // draws every link from its stationary stream at step 0.
        let unassociated = Link {
            edp: u32::MAX,
            fading: 0.0,
        };
        let mut state = Self {
            links: vec![unassociated; topo.num_requesters()],
            shard_sizes: vec![0; topo.num_edps()],
            step: 0,
            process: cfg.fading_process(),
            cfg: cfg.clone(),
            seed,
            recorder: RecorderHandle::noop(),
        };
        state.associate(topo);
        state
    }

    /// Attach a telemetry recorder: each re-association then emits the
    /// `net.shard.occupancy` gauge. Telemetry reads state only — it never
    /// perturbs the channel dynamics.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Number of links holding fading state: one per requester.
    pub fn tracked_links(&self) -> usize {
        self.links.len()
    }

    /// Resident bytes of the serving links and the per-EDP occupancy
    /// counts.
    pub fn memory_bytes(&self) -> usize {
        self.links.capacity() * std::mem::size_of::<Link>()
            + self.shard_sizes.capacity() * std::mem::size_of::<u32>()
    }

    /// Current fading coefficient `h_{i,j}` if `i` serves `j`, `0`
    /// otherwise (the clamp band keeps serving fading strictly positive).
    pub fn fading(&self, i: usize, j: usize) -> f64 {
        let link = &self.links[j];
        if link.edp as usize == i {
            link.fading
        } else {
            0.0
        }
    }

    /// Every requester's serving-link fading at the current slot:
    /// `out[j] = fading(serving EDP of j, j)`, gathered in one pass for
    /// callers that read the serving link of many requesters per slot.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per requester.
    pub fn serving_fading_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.links.len(), "one entry per requester");
        for (h, link) in out.iter_mut().zip(&self.links) {
            *h = link.fading;
        }
    }

    /// Re-sync with a topology whose association changed (epoch-boundary
    /// mobility). A requester that keeps its serving EDP keeps its fading
    /// bit for bit; one whose serving EDP changed draws the new link from
    /// its per-link stationary stream at the current step. Deterministic
    /// for any thread count by construction.
    ///
    /// # Panics
    ///
    /// Panics if the topology's dimensions changed.
    pub fn refresh_distances(&mut self, topo: &Topology) {
        assert_eq!(topo.num_edps(), self.shard_sizes.len(), "EDP count changed");
        assert_eq!(
            topo.num_requesters(),
            self.links.len(),
            "requester count changed"
        );
        self.associate(topo);
        self.emit_shard_gauges();
    }

    /// Check explicit requester positions against the channel's
    /// dimensions, without touching the association. Nothing in the
    /// channel reads positions between re-associations — fading does not
    /// depend on distance, and [`ChannelState::refresh_distances`] takes
    /// the new association from the topology — so this reads no position
    /// and changes no state. It stays for the frozen benchmark's replay of
    /// the engine's per-slot layer calls.
    ///
    /// # Panics
    ///
    /// Panics if the topology's EDP count or the position count changed.
    pub fn refresh_distances_from_positions(
        &mut self,
        topo: &Topology,
        positions: &[crate::Point],
    ) {
        assert_eq!(topo.num_edps(), self.shard_sizes.len(), "EDP count changed");
        assert_eq!(positions.len(), self.links.len(), "requester count changed");
    }

    /// Advance the channel one slot of `dt` with the exact OU transition,
    /// clamped into the configured fading band. O(J). Each link draws from
    /// its own counter-based stream, so the result is independent of
    /// iteration order and thread count.
    pub fn advance(&mut self, dt: f64) {
        self.step += 1;
        let (seed, step, process, cfg) = (self.seed, self.step, &self.process, &self.cfg);
        let sd = process.transition_variance(dt).sqrt();
        par_chunks(&mut self.links, |base, chunk| {
            for (off, link) in chunk.iter_mut().enumerate() {
                link.fading = advance_fading(
                    seed,
                    link.edp as usize,
                    base + off,
                    step,
                    link.fading,
                    dt,
                    sd,
                    process,
                    cfg,
                );
            }
        });
    }

    /// Take every requester's serving EDP from `topo`: a link whose EDP
    /// is unchanged keeps its fading, any other is drawn from its per-link
    /// stationary stream at the current step. Then recount every EDP's
    /// occupancy.
    fn associate(&mut self, topo: &Topology) {
        let (seed, step, process, cfg) = (self.seed, self.step, &self.process, &self.cfg);
        par_chunks(&mut self.links, |base, chunk| {
            for (off, link) in chunk.iter_mut().enumerate() {
                let j = base + off;
                let edp = topo.serving(j);
                if link.edp as usize != edp {
                    *link = Link {
                        edp: edp as u32,
                        fading: init_fading(seed, edp, j, step, process, cfg),
                    };
                }
            }
        });
        self.shard_sizes.fill(0);
        for link in &self.links {
            self.shard_sizes[link.edp as usize] += 1;
        }
    }

    /// The statistics behind the `net.shard.occupancy` gauge as plain
    /// data, for the live snapshot/query path. Pure reads — no RNG, no
    /// mutation — and O(M).
    pub fn shard_stats(&self) -> ShardStats {
        let occupied = self.shard_sizes.iter().filter(|&&n| n > 0).count();
        let max_occ = self.shard_sizes.iter().copied().max().unwrap_or(0);
        let mean_occ = if occupied > 0 {
            self.links.len() as f64 / occupied as f64
        } else {
            0.0
        };
        ShardStats {
            mean_occupancy: mean_occ,
            max_occupancy: u64::from(max_occ),
            occupied_shards: occupied as u64,
            edps: self.shard_sizes.len() as u64,
            requesters: self.links.len() as u64,
        }
    }

    /// Emit the `net.shard.occupancy` gauge after a re-association.
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
    }
}

/// Channel statistics — the exact numbers behind the
/// `net.shard.occupancy` gauge, exposed as plain data so the live control
/// plane can serve them from snapshot queries as well as from the
/// telemetry stream.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::mobility::{MobileRequesters, RandomWaypoint};
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
            for j in 0..2 {
                let h = ch.fading(topo.serving(j), j);
                assert!(h >= cfg.fading_min && h <= cfg.fading_max);
            }
        }
    }

    #[test]
    fn each_requester_tracks_only_its_serving_link() {
        // A line of EDPs: the requester's serving link carries fading and
        // every other EDP reads zero.
        let edps: Vec<Point> = (0..6).map(|i| Point::new(100.0 * i as f64, 0.0)).collect();
        let requesters = vec![Point::new(5.0, 0.0)];
        let topo = Topology::with_positions(edps, requesters);
        let ch = ChannelState::init_with_seed(&topo, &NetworkConfig::default(), 77);
        assert_eq!(ch.tracked_links(), 1);
        assert!(ch.fading(0, 0) > 0.0, "serving link tracked");
        assert!((1..6).all(|i| ch.fading(i, 0) == 0.0));
    }

    #[test]
    fn refresh_distances_tracks_topology() {
        let (mut topo, cfg) = small();
        let mut rng = seeded_rng(13);
        let mut ch = ChannelState::init(&topo, &cfg, &mut rng);
        assert!(ch.fading(0, 0) > 0.0 && ch.fading(1, 0) == 0.0);
        // Move requester 0 next to EDP 1: its serving link follows.
        topo.update_requesters(&[Point::new(400.0, 0.0), Point::new(190.0, 0.0)]);
        ch.refresh_distances(&topo);
        assert_eq!(topo.serving(0), 1);
        assert!(ch.fading(1, 0) > 0.0 && ch.fading(0, 0) == 0.0);
        assert_eq!(ch.shard_stats().max_occupancy, 2);
    }

    /// Bit patterns of every serving link: EDP and fading.
    fn link_bits(ch: &ChannelState) -> Vec<(u32, u64)> {
        ch.links
            .iter()
            .map(|l| (l.edp, l.fading.to_bits()))
            .collect()
    }

    #[test]
    fn refresh_from_positions_matches_topology_rebuild() {
        let (topo, cfg) = small();
        let mut rng = seeded_rng(14);
        let mut via_positions = ChannelState::init(&topo, &cfg, &mut rng);
        let mut via_rebuild = via_positions.clone();
        let moved = vec![Point::new(321.0, -45.0), Point::new(-17.0, 60.0)];
        via_positions.refresh_distances_from_positions(&topo, &moved);
        assert_eq!(link_bits(&via_positions), link_bits(&via_rebuild));
        let mut probe = topo.clone();
        probe.update_requesters(&moved);
        via_positions.refresh_distances(&probe);
        via_rebuild.refresh_distances(&probe);
        assert_eq!(link_bits(&via_positions), link_bits(&via_rebuild));
    }

    /// Nothing in the channel reads a position between re-associations, so
    /// distances refreshed from the walkers every slot leave no trace.
    #[test]
    fn per_slot_distance_refresh_leaves_no_trace_after_reassociation() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(21);
        let mut topo = Topology::random(80, 400, &cfg, &mut rng);
        let start = (0..400).map(|j| topo.requester(j)).collect();
        let model = RandomWaypoint::default();
        let mut walkers = MobileRequesters::new(start, cfg.area_radius, model, &mut rng);
        let mut refreshed = ChannelState::init_with_seed(&topo, &cfg, 5);
        let mut unrefreshed = refreshed.clone();
        let mut handovers = 0;
        for epoch in 0..3 {
            for _ in 0..12 {
                walkers.step(0.05, &mut rng);
                refreshed.advance(0.05);
                unrefreshed.advance(0.05);
                refreshed.refresh_distances_from_positions(&topo, walkers.positions());
                assert!(link_bits(&refreshed) == link_bits(&unrefreshed));
            }
            let before = link_bits(&refreshed);
            topo.update_requesters(walkers.positions());
            refreshed.refresh_distances(&topo);
            unrefreshed.refresh_distances(&topo);
            let after = link_bits(&refreshed);
            handovers += before
                .iter()
                .zip(&after)
                .filter(|(b, a)| b.0 != a.0)
                .count();
            assert!(
                after == link_bits(&unrefreshed),
                "epoch {epoch}: serving links differ"
            );
        }
        assert!(handovers > 0, "the walkers never changed a serving EDP");
    }

    /// `out[j]` of the serving-fading gather against a per-link read of
    /// `(serving EDP, j)`, bit for bit.
    fn assert_serving_column(ch: &ChannelState, topo: &Topology, tag: &str) {
        let mut column = vec![f64::NAN; ch.links.len()];
        ch.serving_fading_into(&mut column);
        for (j, h) in column.iter().enumerate() {
            let want = ch.fading(topo.serving(j), j);
            assert_eq!(h.to_bits(), want.to_bits(), "{tag}: requester {j}");
        }
    }

    /// The serving-fading column equals the per-link read after init,
    /// after every advance and after each re-association.
    #[test]
    fn serving_fading_column_matches_per_link_reads_to_0_ulp() {
        let cfg = NetworkConfig::default();
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
                ch.advance(0.01 + slot as f64 * 1e-2);
                assert_serving_column(&ch, &topo, &format!("epoch {epoch}, slot {slot}"));
            }
            topo.update_requesters(walkers.positions());
            ch.refresh_distances(&topo);
            assert_serving_column(&ch, &topo, &format!("re-association {epoch}"));
        }
    }

    /// FNV-1a over the bits of the serving-fading column after each of 50
    /// advances, on a seeded uniform topology.
    fn serving_column_hash(m: usize, j: usize, seed: u64) -> u64 {
        let cfg = NetworkConfig::default();
        let topo = Topology::random(m, j, &cfg, &mut seeded_rng(seed));
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, seed);
        let mut column = vec![0.0; j];
        let mut hash = 0xCBF2_9CE4_8422_2325_u64;
        for _ in 0..50 {
            ch.advance(0.05);
            ch.serving_fading_into(&mut column);
            for h in &column {
                for byte in h.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        hash
    }

    /// Static runs read the serving links only, so their fading must be
    /// the bits of the earlier channel layout, which stepped the same
    /// serving links beside 32 more links per requester: these constants
    /// were recorded on it.
    #[test]
    fn serving_fading_column_is_pinned() {
        assert_eq!(serving_column_hash(100, 300, 1), 0xca47_0b56_186c_bf9a);
        assert_eq!(serving_column_hash(1000, 300, 2), 0x3f6e_6e83_580f_27ec);
    }

    /// The handover rule: across `update_requesters` + `refresh_distances`,
    /// a requester that keeps its serving EDP keeps its fading to 0 ulp,
    /// and one whose serving EDP changed reads
    /// `init_fading(seed, new_edp, j, step)`. J = 300 runs every link
    /// store pass inline; J = 3072 splits them into up to three chunks on
    /// scoped threads (as many as the host has cores).
    #[test]
    fn handover_keeps_unchanged_links_and_redraws_moved_ones() {
        let cfg = NetworkConfig::default();
        let process = cfg.fading_process();
        for (m, j) in [(60_usize, 300_usize), (400, 3072)] {
            let mut rng = seeded_rng(m as u64);
            let mut topo = Topology::random(m, j, &cfg, &mut rng);
            let start = (0..j).map(|jj| topo.requester(jj)).collect();
            let mut walkers =
                MobileRequesters::new(start, cfg.area_radius, RandomWaypoint::default(), &mut rng);
            let seed = 17;
            let mut ch = ChannelState::init_with_seed(&topo, &cfg, seed);
            let (mut kept, mut moved) = (0, 0);
            for step in 1..=4_u64 {
                for _ in 0..10 {
                    walkers.step(0.05, &mut rng);
                }
                ch.advance(0.05);
                let before: Vec<(usize, f64)> = (0..j)
                    .map(|jj| (topo.serving(jj), ch.fading(topo.serving(jj), jj)))
                    .collect();
                topo.update_requesters(walkers.positions());
                ch.refresh_distances(&topo);
                for (jj, &(old, h)) in before.iter().enumerate() {
                    let new = topo.serving(jj);
                    let want = if new == old {
                        kept += 1;
                        h
                    } else {
                        moved += 1;
                        init_fading(seed, new, jj, step, &process, &cfg)
                    };
                    let got = ch.fading(new, jj);
                    assert_eq!(got.to_bits(), want.to_bits(), "J = {j}, requester {jj}");
                }
            }
            assert!(kept > 0 && moved > 0, "J = {j}: {kept} kept, {moved} moved");
        }
    }

    #[test]
    fn advance_changes_the_state_deterministically_per_seed() {
        let (topo, cfg) = small();
        let mut rng1 = seeded_rng(12);
        let mut rng2 = seeded_rng(12);
        let mut a = ChannelState::init(&topo, &cfg, &mut rng1);
        let mut b = ChannelState::init(&topo, &cfg, &mut rng2);
        let before = link_bits(&a);
        a.advance(0.1);
        b.advance(0.1);
        assert_eq!(link_bits(&a), link_bits(&b));
        assert_ne!(link_bits(&a), before);
    }

    #[test]
    fn sharded_memory_is_flat_in_edp_count() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(15);
        let small = Topology::random(50, 40, &cfg, &mut rng);
        let big = Topology::random(5_000, 40, &cfg, &mut rng);
        let ch_small = ChannelState::init_with_seed(&small, &cfg, 1);
        let ch_big = ChannelState::init_with_seed(&big, &cfg, 1);
        // One link per requester in both; only the occupancy counts (one
        // u32 per EDP) grow with M.
        assert_eq!(ch_small.tracked_links(), 40);
        assert_eq!(ch_big.tracked_links(), 40);
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
            let stats = ch.shard_stats();
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
        assert_eq!(names, ["net.shard.occupancy"]);
    }
}
