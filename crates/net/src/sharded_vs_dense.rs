//! Differential suite: the serving-link [`ChannelState`] against a dense
//! reference that steps every (EDP, requester) link every slot.
//!
//! The reference lives only here. It draws every link from the same
//! crate-private per-link streams ([`init_fading`], [`advance_fading`]),
//! so every serving link is **bit-identical** to the reference at every
//! step — init and every OU transition. At a handover the channel state
//! starts the new serving link from its stationary stream at the boundary
//! step, and the reference redraws exactly those links.

use proptest::prelude::*;

use crate::shard::{advance_fading, init_fading};
use crate::{ChannelState, NetworkConfig, Point, Topology};
use mfgcp_sde::{seeded_rng, OrnsteinUhlenbeck};
use rand::RngExt as _;

/// Fading of every (EDP, requester) link, row-major `[m × j]`.
struct Dense {
    fading: Vec<f64>,
    num_edps: usize,
    num_requesters: usize,
    process: OrnsteinUhlenbeck,
    cfg: NetworkConfig,
    seed: u64,
    step: u64,
}

impl Dense {
    /// Every link drawn from its stationary stream at step 0.
    fn init(topo: &Topology, cfg: &NetworkConfig, seed: u64) -> Self {
        let process = cfg.fading_process();
        let (m, j) = (topo.num_edps(), topo.num_requesters());
        let mut fading = Vec::with_capacity(m * j);
        for i in 0..m {
            for jj in 0..j {
                fading.push(init_fading(seed, i, jj, 0, &process, cfg));
            }
        }
        Self {
            fading,
            num_edps: m,
            num_requesters: j,
            process,
            cfg: cfg.clone(),
            seed,
            step: 0,
        }
    }

    /// Redraw link `(i, j)` from its stationary stream at the current
    /// step, as the channel state does for a link that becomes serving.
    fn retrack(&mut self, i: usize, j: usize) {
        let k = self.idx(i, j);
        self.fading[k] = init_fading(self.seed, i, j, self.step, &self.process, &self.cfg);
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.num_requesters + j
    }

    fn advance(&mut self, dt: f64) {
        self.step += 1;
        let sd = self.process.transition_variance(dt).sqrt();
        for i in 0..self.num_edps {
            for j in 0..self.num_requesters {
                let k = self.idx(i, j);
                self.fading[k] = advance_fading(
                    self.seed,
                    i,
                    j,
                    self.step,
                    self.fading[k],
                    dt,
                    sd,
                    &self.process,
                    &self.cfg,
                );
            }
        }
    }

    fn fading(&self, i: usize, j: usize) -> f64 {
        self.fading[self.idx(i, j)]
    }
}

fn instance(seed: u64, m: usize, j: usize) -> (Topology, NetworkConfig) {
    let cfg = NetworkConfig::default();
    let mut rng = seeded_rng(seed);
    (Topology::random(m, j, &cfg, &mut rng), cfg)
}

/// Assert that every serving link reads bit for bit what the dense
/// reference holds. Returns the number of links checked.
fn assert_serving_links_match(
    ch: &ChannelState,
    dense: &Dense,
    topo: &Topology,
    when: &str,
) -> usize {
    let mut column = vec![0.0; topo.num_requesters()];
    ch.serving_fading_into(&mut column);
    for (j, h) in column.iter().enumerate() {
        let i = topo.serving(j);
        assert_eq!(
            h.to_bits(),
            dense.fading(i, j).to_bits(),
            "{when}: fading of serving link ({i}, {j})"
        );
    }
    column.len()
}

#[test]
fn serving_links_are_bit_identical_over_time() {
    let (topo, cfg) = instance(301, 200, 80);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 9001);
    let mut dense = Dense::init(&topo, &cfg, 9001);
    assert_eq!(sharded.tracked_links(), 80);
    assert_eq!(dense.fading.len(), 200 * 80);
    for step in 0..25 {
        assert_serving_links_match(&sharded, &dense, &topo, &format!("step {step}"));
        sharded.advance(0.05);
        dense.advance(0.05);
    }
}

#[test]
fn every_tracked_link_matches_the_dense_oracle() {
    // Enumerate every (EDP, requester) link: the channel state holds
    // exactly the serving links, each bit-identical to the oracle, and
    // reads every other link as untracked.
    let (topo, cfg) = instance(302, 150, 60);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 77);
    let mut dense = Dense::init(&topo, &cfg, 77);
    for _ in 0..10 {
        sharded.advance(0.05);
        dense.advance(0.05);
    }
    let mut tracked = 0usize;
    for j in 0..topo.num_requesters() {
        for i in 0..topo.num_edps() {
            let h = sharded.fading(i, j);
            if i == topo.serving(j) {
                assert_eq!(h.to_bits(), dense.fading(i, j).to_bits(), "link ({i}, {j})");
                tracked += 1;
            } else {
                assert_eq!(h, 0.0, "untracked link ({i}, {j})");
            }
        }
    }
    assert_eq!(tracked, sharded.tracked_links());
    assert_eq!(tracked, topo.num_requesters());
}

/// Apply `positions` as an epoch-boundary re-association on both sides:
/// the oracle redraws exactly the links that became serving. Returns the
/// number of requesters that kept and that changed their serving EDP.
fn hand_over(
    topo: &mut Topology,
    sharded: &mut ChannelState,
    dense: &mut Dense,
    positions: &[Point],
) -> (usize, usize) {
    let before: Vec<usize> = (0..topo.num_requesters())
        .map(|j| topo.serving(j))
        .collect();
    topo.update_requesters(positions);
    sharded.refresh_distances(topo);
    let (mut kept, mut moved) = (0, 0);
    for (j, &old) in before.iter().enumerate() {
        let new = topo.serving(j);
        if new == old {
            kept += 1;
        } else {
            dense.retrack(new, j);
            moved += 1;
        }
    }
    (kept, moved)
}

#[test]
fn mobility_keeps_continuously_tracked_links_bit_identical() {
    // Drive both representations through per-slot position refreshes and
    // an epoch-boundary re-association that moves every requester a
    // short way, so most keep their serving EDP. A kept link carries its
    // state and stays bit for bit equal to the oracle; a link first
    // tracked at the handover draws fresh stationary state, which the
    // oracle redraws.
    let (mut topo, cfg) = instance(305, 120, 50);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 42);
    let mut dense = Dense::init(&topo, &cfg, 42);
    let mut rng = seeded_rng(306);
    for _ in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
    }
    let positions: Vec<Point> = (0..topo.num_requesters())
        .map(|j| {
            let p = topo.requester(j);
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            Point::new(p.x + 10.0 * angle.cos(), p.y + 10.0 * angle.sin())
        })
        .collect();
    let (kept, _) = hand_over(&mut topo, &mut sharded, &mut dense, &positions);
    let mut checked = assert_serving_links_match(&sharded, &dense, &topo, "handover");
    for step in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
        sharded.refresh_distances_from_positions(&topo, &positions);
        checked += assert_serving_links_match(&sharded, &dense, &topo, &format!("step {step}"));
    }
    assert!(kept >= 25, "only {kept} requesters kept their serving EDP");
    assert!(checked >= 300, "only {checked} links checked");
}

/// A `dt` that changes every step.
fn varying_dt(step: usize) -> f64 {
    [0.05, 0.013, 0.2][step % 3]
}

#[test]
fn lazy_interferers_match_eager_stepping_through_handovers() {
    // The channel state steps each stored link once per slot; the oracle
    // steps all `M·J` links eagerly. Drive both through a `dt` that
    // changes every step and handovers that send requesters away from
    // their home EDP and back. A requester that keeps its serving EDP
    // carries its link, so it stays equal to the eager oracle; one that
    // changes serving EDP starts the new link from its stationary stream
    // at the boundary step, and the oracle redraws the same link.
    let m = 40;
    let (mut topo, cfg) = instance(307, m, 24);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 4242);
    let mut dense = Dense::init(&topo, &cfg, 4242);
    let mut rng = seeded_rng(306);
    let home: Vec<Point> = (0..topo.num_requesters())
        .map(|j| topo.requester(j))
        .collect();
    let away: Vec<Point> = home
        .iter()
        .map(|p| {
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            Point::new(p.x + 150.0 * angle.cos(), p.y + 150.0 * angle.sin())
        })
        .collect();
    let (mut step, mut checked, mut kept, mut moved) = (0usize, 0usize, 0usize, 0usize);
    for (boundary, positions) in [&away, &home, &away, &home].into_iter().enumerate() {
        for _ in 0..25 {
            sharded.advance(varying_dt(step));
            dense.advance(varying_dt(step));
            step += 1;
            checked += assert_serving_links_match(&sharded, &dense, &topo, &format!("step {step}"));
        }
        let (k, mv) = hand_over(&mut topo, &mut sharded, &mut dense, positions);
        kept += k;
        moved += mv;
        checked +=
            assert_serving_links_match(&sharded, &dense, &topo, &format!("boundary {boundary}"));
    }
    for _ in 0..5 {
        sharded.advance(varying_dt(step));
        dense.advance(varying_dt(step));
        step += 1;
    }
    checked += assert_serving_links_match(&sharded, &dense, &topo, "after the last handover");
    assert!(moved >= 20, "only {moved} handovers");
    assert!(kept >= 10, "only {kept} requesters kept their serving EDP");
    assert!(checked > 2_000, "only {checked} links checked");
}

proptest! {
    /// Handover never drops or duplicates link state: after any sequence
    /// of moves and re-associations every requester holds exactly its
    /// serving link, in the fading band, and a requester that keeps its
    /// serving EDP carries its fading over bit for bit.
    #[test]
    fn handover_migration_preserves_link_state(
        seed in 0_u64..500,
        m in 2_usize..40,
        j in 1_usize..20,
        epochs in 1_usize..5,
    ) {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(seed);
        let mut topo = Topology::random(m, j, &cfg, &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, seed ^ 0xABCD);
        for _ in 0..epochs {
            let before: Vec<(usize, f64)> = (0..j)
                .map(|jj| (topo.serving(jj), ch.fading(topo.serving(jj), jj)))
                .collect();
            let positions: Vec<Point> = (0..j)
                .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
                .collect();
            topo.update_requesters(&positions);
            ch.refresh_distances(&topo);
            prop_assert_eq!(ch.tracked_links(), j);
            for (jj, (old, h)) in before.into_iter().enumerate() {
                let serving = topo.serving(jj);
                let now = ch.fading(serving, jj);
                prop_assert!((cfg.fading_min..=cfg.fading_max).contains(&now));
                if serving == old {
                    prop_assert_eq!(now.to_bits(), h.to_bits(), "link ({}, {})", serving, jj);
                }
            }
            ch.advance(0.05);
        }
    }

    /// A link that becomes serving at a handover reads its per-link
    /// stationary stream at the boundary step — a pure function of the
    /// link key and the step, independent of how the requester got there.
    #[test]
    fn fresh_links_draw_from_their_per_link_stream(
        seed in 0_u64..200,
        m in 3_usize..30,
        j in 1_usize..10,
    ) {
        let cfg = NetworkConfig::default();
        let process = cfg.fading_process();
        let mut rng = seeded_rng(seed);
        let topo = Topology::random(m, j, &cfg, &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, seed);
        let positions: Vec<Point> = (0..j)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let mut t2 = topo.clone();
        t2.update_requesters(&positions);
        ch.advance(0.05);
        ch.refresh_distances(&t2);
        for jj in 0..j {
            let serving = t2.serving(jj);
            if serving != topo.serving(jj) {
                let want = init_fading(seed, serving, jj, 1, &process, &cfg);
                prop_assert_eq!(ch.fading(serving, jj).to_bits(), want.to_bits());
            }
        }
    }
}
