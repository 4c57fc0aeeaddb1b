//! Differential suite: the occupancy-local [`ChannelState`] against a
//! dense reference that tracks every (EDP, requester) link and sums
//! Eq. (2) exactly.
//!
//! The reference lives only here. It draws every link from the same
//! crate-private per-link streams ([`init_fading`], [`advance_fading`]),
//! so every link that both track is **bit-identical** — init, every OU
//! transition, and every distance refresh. The reference steps every
//! link every call, so it is also the eager oracle for the channel
//! state's interferers, which are stepped only when read. The only divergence the
//! channel state is allowed is the *truncation* of the Eq. (2)
//! interference sum to the `k_int` tracked interferers plus the frozen
//! far-field tail, which these tests bound by [`TRUNCATION_TOL`].

use proptest::prelude::*;

use crate::shard::{advance_fading, init_fading};
use crate::{
    channel_gain, shannon_rate, ChannelState, NetworkConfig, Point, Topology, TRUNCATION_TOL,
};
use mfgcp_sde::{seeded_rng, OrnsteinUhlenbeck};
use rand::RngExt as _;

/// Every (EDP, requester) link, row-major `[m × j]`, with live fading.
struct Dense {
    fading: Vec<f64>,
    distances: Vec<f64>,
    num_edps: usize,
    num_requesters: usize,
    process: OrnsteinUhlenbeck,
    cfg: NetworkConfig,
    seed: u64,
    step: u64,
}

impl Dense {
    fn init(topo: &Topology, cfg: &NetworkConfig, seed: u64) -> Self {
        Self::init_at(topo, cfg, seed, 0)
    }

    /// Every link drawn from its stationary stream at step `step`, the
    /// slot counter starting there.
    fn init_at(topo: &Topology, cfg: &NetworkConfig, seed: u64, step: u64) -> Self {
        let process = cfg.fading_process();
        let (m, j) = (topo.num_edps(), topo.num_requesters());
        let mut fading = Vec::with_capacity(m * j);
        let mut distances = Vec::with_capacity(m * j);
        for i in 0..m {
            for jj in 0..j {
                fading.push(init_fading(seed, i, jj, step, &process, cfg));
                distances.push(topo.distance(i, jj));
            }
        }
        Self {
            fading,
            distances,
            num_edps: m,
            num_requesters: j,
            process,
            cfg: cfg.clone(),
            seed,
            step,
        }
    }

    /// Redraw link `(i, j)` from its stationary stream at the current
    /// step, as the channel state does for a link it starts tracking.
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

    fn refresh_distances(&mut self, topo: &Topology) {
        for i in 0..self.num_edps {
            for j in 0..self.num_requesters {
                let k = self.idx(i, j);
                self.distances[k] = topo.distance(i, j);
            }
        }
    }

    fn refresh_distances_from_positions(&mut self, topo: &Topology, positions: &[Point]) {
        for i in 0..self.num_edps {
            let e = topo.edp(i);
            for (j, p) in positions.iter().enumerate() {
                let k = self.idx(i, j);
                self.distances[k] = e.distance(p);
            }
        }
    }

    fn link_fading(&self, i: usize, j: usize) -> Option<f64> {
        Some(self.fading[self.idx(i, j)])
    }

    fn gain(&self, i: usize, j: usize) -> f64 {
        let k = self.idx(i, j);
        channel_gain(
            self.fading[k],
            self.distances[k],
            self.cfg.path_loss_exp,
            self.cfg.min_distance,
        )
    }

    fn interference(&self, i: usize, j: usize) -> f64 {
        (0..self.num_edps)
            .filter(|&other| other != i)
            .map(|other| self.gain(other, j) * self.cfg.tx_power)
            .sum()
    }

    /// The channel state's truncated Eq. (2) sum at link `(i, j)` from
    /// this reference's fading: the `tracked` links in the channel
    /// state's summation order (serving link first), then its frozen
    /// far-field `tail`.
    fn truncated_interference(&self, i: usize, j: usize, tracked: &[usize], tail: f64) -> f64 {
        let mut acc = 0.0;
        for &other in tracked {
            if other != i {
                acc += self.gain(other, j) * self.cfg.tx_power;
            }
        }
        acc + tail * self.cfg.tx_power
    }

    fn rate(&self, i: usize, j: usize) -> f64 {
        shannon_rate(
            self.cfg.bandwidth,
            self.gain(i, j),
            self.cfg.tx_power,
            self.cfg.noise_power,
            self.interference(i, j),
        )
    }
}

/// A mid-sized instance where `k_int = 32 < M − 1`, so truncation is real.
fn instance(seed: u64, m: usize, j: usize) -> (Topology, NetworkConfig) {
    let cfg = NetworkConfig::default();
    let mut rng = seeded_rng(seed);
    (Topology::random(m, j, &cfg, &mut rng), cfg)
}

#[test]
fn serving_links_are_bit_identical_over_time() {
    let (topo, cfg) = instance(301, 200, 80);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 9001);
    let mut dense = Dense::init(&topo, &cfg, 9001);
    assert_eq!(sharded.tracked_links(), 80 * (cfg.k_int + 1));
    assert_eq!(dense.fading.len(), 200 * 80);
    for step in 0..25 {
        for j in 0..topo.num_requesters() {
            let i = topo.serving(j);
            assert_eq!(
                sharded.link_fading(i, j),
                dense.link_fading(i, j),
                "serving fading diverged at step {step}, link ({i}, {j})"
            );
            assert_eq!(
                sharded.gain(i, j),
                dense.gain(i, j),
                "serving gain diverged at step {step}, link ({i}, {j})"
            );
        }
        sharded.advance(0.05);
        dense.advance(0.05);
    }
}

#[test]
fn every_tracked_link_matches_the_dense_oracle() {
    let (topo, cfg) = instance(302, 150, 60);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 77);
    let mut dense = Dense::init(&topo, &cfg, 77);
    for _ in 0..10 {
        sharded.advance(0.05);
        dense.advance(0.05);
    }
    for j in 0..topo.num_requesters() {
        let mut tracked = sharded.tracked_interferers(j);
        tracked.push(topo.serving(j));
        assert_eq!(tracked.len(), cfg.k_int + 1);
        for i in tracked {
            assert_eq!(sharded.link_fading(i, j), dense.link_fading(i, j));
            assert_eq!(sharded.gain(i, j), dense.gain(i, j));
        }
    }
}

/// Worst relative error of the serving link's interference and rate
/// against the dense oracle after each of `slots` steps.
fn worst_serving_errors(
    sharded: &mut ChannelState,
    dense: &mut Dense,
    topo: &Topology,
    slots: usize,
) -> (f64, f64) {
    let (mut worst_interference, mut worst_rate) = (0.0_f64, 0.0_f64);
    for _ in 0..slots {
        sharded.advance(0.05);
        dense.advance(0.05);
        for j in 0..topo.num_requesters() {
            let i = topo.serving(j);
            let exact = dense.interference(i, j);
            if exact > 0.0 {
                let error = (exact - sharded.interference(topo, i, j)).abs() / exact;
                worst_interference = worst_interference.max(error);
            }
            let r_exact = dense.rate(i, j);
            if r_exact > 0.0 {
                let error = (sharded.rate(topo, i, j) - r_exact).abs() / r_exact;
                worst_rate = worst_rate.max(error);
            }
        }
    }
    (worst_interference, worst_rate)
}

#[test]
fn interference_and_rate_stay_within_the_truncation_bound() {
    // A mid-sized disc and the `metro_mobility` density (M = 6000), each
    // measured in place and then after every requester is scattered
    // afresh. At the handover the oracle redraws exactly the links the
    // channel state starts tracking, so what is left is the truncation.
    for (seed, m, j) in [(303, 400, 100), (310, 6000, 100)] {
        let (mut topo, cfg) = instance(seed, m, j);
        let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 12);
        let mut dense = Dense::init(&topo, &cfg, 12);
        let still = worst_serving_errors(&mut sharded, &mut dense, &topo, 5);
        let before: Vec<Vec<usize>> = (0..j)
            .map(|jj| tracked_links(&sharded, &topo, jj))
            .collect();
        let mut rng = seeded_rng(seed + 1);
        let positions: Vec<Point> = (0..j)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        topo.update_requesters(&positions);
        sharded.refresh_distances(&topo);
        dense.refresh_distances(&topo);
        redraw_newly_tracked(&mut dense, &sharded, &topo, &before);
        let moved = worst_serving_errors(&mut sharded, &mut dense, &topo, 5);
        for (phase, (interference, rate)) in [("static", still), ("after the handover", moved)] {
            assert!(
                interference <= TRUNCATION_TOL,
                "M = {m}, {phase}: interference truncation error {interference:.3e} above \
                 the documented bound {TRUNCATION_TOL:.1e}"
            );
            // Truncating interference can only increase SINR, and the
            // rate is a log of it, so the rate error is no worse than the
            // interference one.
            assert!(
                rate <= TRUNCATION_TOL,
                "M = {m}, {phase}: rate truncation error {rate:.3e} above the documented bound"
            );
        }
    }
}

#[test]
fn full_tracking_reproduces_dense_rates_to_rounding() {
    // With k_int >= M - 1 nothing is truncated; the only difference left
    // is floating-point summation order in the interference loop.
    let cfg = NetworkConfig {
        k_int: 39,
        ..NetworkConfig::default()
    };
    let mut rng = seeded_rng(304);
    let topo = Topology::random(40, 30, &cfg, &mut rng);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 5);
    let mut dense = Dense::init(&topo, &cfg, 5);
    for _ in 0..8 {
        sharded.advance(0.1);
        dense.advance(0.1);
    }
    for j in 0..topo.num_requesters() {
        for i in 0..topo.num_edps() {
            assert_eq!(sharded.link_fading(i, j), dense.link_fading(i, j));
            let (a, b) = (sharded.rate(&topo, i, j), dense.rate(i, j));
            let tol = 1e-12 * b.abs().max(1.0);
            assert!((a - b).abs() <= tol, "rate ({i}, {j}): {a} vs {b}");
        }
    }
}

#[test]
fn mobility_keeps_continuously_tracked_links_bit_identical() {
    // Drive both representations through per-slot position refreshes and
    // an epoch-boundary re-association (handover migration on the sharded
    // side). Links tracked on both sides of the handover must stay bit
    // for bit equal to the dense oracle; links first tracked *at* the
    // handover draw fresh stationary state (they cannot replay the dense
    // link's clamped OU history — the divergence is the documented,
    // deterministic part of the migration, covered by the proptests).
    let (mut topo, cfg) = instance(305, 120, 50);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 42);
    let mut dense = Dense::init(&topo, &cfg, 42);
    let mut rng = seeded_rng(306);
    for _ in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
    }
    let tracked_before: Vec<Vec<usize>> = (0..topo.num_requesters())
        .map(|j| {
            let mut edps = sharded.tracked_interferers(j);
            edps.push(topo.serving(j));
            edps
        })
        .collect();
    let positions: Vec<Point> = (0..topo.num_requesters())
        .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
        .collect();
    topo.update_requesters(&positions);
    sharded.refresh_distances(&topo);
    dense.refresh_distances(&topo);
    let mut checked = 0usize;
    for _ in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
        sharded.refresh_distances_from_positions(&topo, &positions);
        dense.refresh_distances_from_positions(&topo, &positions);
        for (j, before) in tracked_before.iter().enumerate() {
            let mut now = sharded.tracked_interferers(j);
            now.push(topo.serving(j));
            for i in now {
                if before.contains(&i) {
                    assert_eq!(
                        sharded.link_fading(i, j),
                        dense.link_fading(i, j),
                        "migrated link ({i}, {j}) diverged from the dense oracle"
                    );
                    assert_eq!(sharded.gain(i, j), dense.gain(i, j));
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked > 100,
        "handover kept too few links to be a real test"
    );
}

/// Requester `j`'s tracked EDPs in summation order: serving first, then
/// the interferers.
fn tracked_links(ch: &ChannelState, topo: &Topology, j: usize) -> Vec<usize> {
    let mut edps = vec![topo.serving(j)];
    edps.extend(ch.tracked_interferers(j));
    edps
}

/// Redraw in `dense` every link `ch` tracks now but did not track
/// `before` a handover, as the channel state drew it: from its
/// stationary stream at the boundary step.
fn redraw_newly_tracked(
    dense: &mut Dense,
    ch: &ChannelState,
    topo: &Topology,
    before: &[Vec<usize>],
) {
    for (j, before) in before.iter().enumerate() {
        for i in tracked_links(ch, topo, j) {
            if !before.contains(&i) {
                dense.retrack(i, j);
            }
        }
    }
}

/// Assert that every link `ch` tracks reads bit for bit what the eager
/// `dense` oracle holds: fading, gain, and the truncated interference
/// sum at that link. Returns the number of links checked.
fn assert_tracked_links_match(
    ch: &ChannelState,
    dense: &Dense,
    topo: &Topology,
    when: &str,
) -> usize {
    let mut checked = 0;
    for j in 0..topo.num_requesters() {
        let tracked = tracked_links(ch, topo, j);
        for &i in &tracked {
            assert_eq!(
                ch.link_fading(i, j).map(f64::to_bits),
                dense.link_fading(i, j).map(f64::to_bits),
                "{when}: fading of link ({i}, {j})"
            );
            assert_eq!(
                ch.gain(i, j).to_bits(),
                dense.gain(i, j).to_bits(),
                "{when}: gain of link ({i}, {j})"
            );
            let oracle = dense.truncated_interference(i, j, &tracked, ch.tail_gain(topo, j));
            assert_eq!(
                ch.interference(topo, i, j).to_bits(),
                oracle.to_bits(),
                "{when}: interference at link ({i}, {j})"
            );
            checked += 1;
        }
    }
    checked
}

/// A `dt` that changes every step, so the channel state's `dt` history
/// grows by one run per step.
fn varying_dt(step: usize) -> f64 {
    [0.05, 0.013, 0.2][step % 3]
}

#[test]
fn lazy_interferers_match_eager_stepping_through_handovers() {
    // Interferers are stepped only when read. Drive the channel state and
    // the eager oracle through a `dt` that changes every step (past the
    // cap on the `dt` history, which forces one full catch-up), then
    // handovers that send requesters away from their home EDP and back,
    // and check that every tracked link reads exactly what eager stepping
    // holds. Links tracked before and after a handover carry their state;
    // links the channel state starts tracking draw fresh stationary state
    // at the boundary step, and the oracle redraws the same links.
    let m = 40;
    let cfg = NetworkConfig {
        k_int: 16,
        ..NetworkConfig::default()
    };
    let mut rng = seeded_rng(307);
    let mut topo = Topology::random(m, 24, &cfg, &mut rng);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 4242);
    let mut dense = Dense::init(&topo, &cfg, 4242);
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
    let (mut step, mut checked) = (0usize, 0usize);
    let mut serving_before: Vec<usize> = (0..topo.num_requesters())
        .map(|j| topo.serving(j))
        .collect();
    // Per requester, the EDP whose serving link the last handover turned
    // into an interferer that kept its state.
    let mut demoted: Vec<Option<usize>> = vec![None; topo.num_requesters()];
    let (mut round_trips, mut promotions) = (0usize, 0usize);
    for (boundary, positions) in [&away, &home, &away, &home].into_iter().enumerate() {
        for _ in 0..25 {
            sharded.advance(varying_dt(step));
            dense.advance(varying_dt(step));
            step += 1;
            if step % 10 == 0 {
                checked +=
                    assert_tracked_links_match(&sharded, &dense, &topo, &format!("step {step}"));
            }
        }
        let before: Vec<Vec<usize>> = (0..topo.num_requesters())
            .map(|j| tracked_links(&sharded, &topo, j))
            .collect();
        topo.update_requesters(positions);
        sharded.refresh_distances(&topo);
        dense.refresh_distances(&topo);
        redraw_newly_tracked(&mut dense, &sharded, &topo, &before);
        for (j, before) in before.iter().enumerate() {
            let now = tracked_links(&sharded, &topo, j);
            let serving = now[0];
            if serving != serving_before[j] && before[1..].contains(&serving) {
                promotions += 1;
            }
            if demoted[j] == Some(serving) {
                round_trips += 1;
            }
            let old = serving_before[j];
            demoted[j] = (serving != old && now.contains(&old)).then_some(old);
            serving_before[j] = serving;
        }
        checked +=
            assert_tracked_links_match(&sharded, &dense, &topo, &format!("boundary {boundary}"));
    }
    for _ in 0..5 {
        sharded.advance(varying_dt(step));
        dense.advance(varying_dt(step));
        step += 1;
    }
    checked += assert_tracked_links_match(&sharded, &dense, &topo, "after the last handover");
    assert!(
        promotions >= 10,
        "only {promotions} interferers promoted to serving"
    );
    assert!(
        round_trips >= 5,
        "only {round_trips} serving -> interferer -> serving round trips"
    );
    assert!(checked > 5_000, "only {checked} links checked");
}

#[test]
fn stamps_restart_across_the_u32_limit_without_changing_a_value() {
    // Start the slot counter just below the `u32` stamp limit and step
    // across it: the channel state brings every link up to date and
    // restarts its stamps, and every read stays bit-identical to eager
    // stepping on both sides of the limit.
    let (mut topo, cfg) = instance(308, 60, 30);
    let start = u64::from(u32::MAX) - 4;
    let mut sharded = ChannelState::init_at_step(&topo, &cfg, 99, start);
    let mut dense = Dense::init_at(&topo, &cfg, 99, start);
    let mut rng = seeded_rng(309);
    for step in 0..10 {
        sharded.advance(varying_dt(step));
        dense.advance(varying_dt(step));
        assert_tracked_links_match(&sharded, &dense, &topo, &format!("step {step}"));
        if step == 6 {
            // A handover past the limit: carried links keep their
            // restarted stamps, fresh ones are stamped at the new base.
            let before: Vec<Vec<usize>> = (0..topo.num_requesters())
                .map(|j| tracked_links(&sharded, &topo, j))
                .collect();
            let moved: Vec<Point> = (0..topo.num_requesters())
                .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
                .collect();
            topo.update_requesters(&moved);
            sharded.refresh_distances(&topo);
            dense.refresh_distances(&topo);
            redraw_newly_tracked(&mut dense, &sharded, &topo, &before);
        }
    }
}

proptest! {
    /// Handover migration never drops or duplicates link state: after any
    /// sequence of moves and re-associations, every requester still
    /// tracks exactly its serving link plus `min(k_int, M − 1)` distinct
    /// non-serving interferers, and any link tracked across the handover
    /// carries its fading value over bit for bit.
    #[test]
    fn handover_migration_preserves_link_state(
        seed in 0_u64..500,
        m in 2_usize..40,
        j in 1_usize..20,
        k_int in 1_usize..6,
        epochs in 1_usize..5,
    ) {
        let cfg = NetworkConfig { k_int, ..NetworkConfig::default() };
        let mut rng = seeded_rng(seed);
        let mut topo = Topology::random(m, j, &cfg, &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, seed ^ 0xABCD);
        let expected_interferers = k_int.min(m - 1);
        for _ in 0..epochs {
            // Snapshot every tracked link before the handover.
            let mut before = Vec::new();
            for jj in 0..j {
                let mut edps = ch.tracked_interferers(jj);
                edps.push(topo.serving(jj));
                for i in edps {
                    before.push((i, jj, ch.link_fading(i, jj).expect("tracked")));
                }
            }
            let positions: Vec<Point> = (0..j)
                .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
                .collect();
            topo.update_requesters(&positions);
            ch.refresh_distances(&topo);
            for jj in 0..j {
                // The serving link always exists (never dropped).
                let serving = topo.serving(jj);
                prop_assert!(ch.link_fading(serving, jj).is_some());
                // Exactly the expected number of distinct interferers,
                // none of them the serving EDP (never duplicated).
                let ints = ch.tracked_interferers(jj);
                prop_assert_eq!(ints.len(), expected_interferers);
                let mut dedup = ints.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), ints.len(), "duplicate interferer");
                prop_assert!(!ints.contains(&serving), "serving EDP duplicated as interferer");
            }
            // Links tracked on both sides migrated their fading intact.
            for (i, jj, h) in before {
                if let Some(now) = ch.link_fading(i, jj) {
                    prop_assert_eq!(now, h, "fading changed across handover on link ({}, {})", i, jj);
                }
            }
            ch.advance(0.05);
        }
    }

    /// A freshly tracked link's fading is a pure function of the link key
    /// and the step — independent of how the requester got there.
    #[test]
    fn fresh_links_draw_from_their_per_link_stream(
        seed in 0_u64..200,
        m in 3_usize..30,
        j in 1_usize..10,
    ) {
        let cfg = NetworkConfig { k_int: 2, ..NetworkConfig::default() };
        let mut rng = seeded_rng(seed);
        let topo = Topology::random(m, j, &cfg, &mut rng);
        // Two independent states over the same seed and the same walk
        // must agree on everything, including links first tracked at a
        // handover.
        let mut a = ChannelState::init_with_seed(&topo, &cfg, seed);
        let mut b = ChannelState::init_with_seed(&topo, &cfg, seed);
        let positions: Vec<Point> = (0..j)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let mut t2 = topo.clone();
        t2.update_requesters(&positions);
        a.advance(0.05);
        b.advance(0.05);
        a.refresh_distances(&t2);
        b.refresh_distances(&t2);
        for jj in 0..j {
            let mut edps = a.tracked_interferers(jj);
            edps.push(t2.serving(jj));
            for i in edps {
                prop_assert_eq!(a.link_fading(i, jj), b.link_fading(i, jj));
            }
        }
    }
}
