//! Occupancy-local channel storage: per-EDP shards of (serving, requester)
//! links plus each requester's top-`k_int` interferers.
//!
//! # Per-link counter-based fading streams
//!
//! Every fading draw is a pure function of `(channel_seed, edp, requester,
//! draw id)`: the key is hashed through a SplitMix64 chain and seeds a
//! fresh [`mfgcp_sde::SimRng`] for that single Gaussian sample. Draw id
//! `2·n` is the transition noise into step `n`; draw id `2·n + 1` seeds a
//! link freshly tracked *at* step `n` (handover) from the OU stationary
//! law. Consequences, all load-bearing:
//!
//! - **Dense/sharded parity**: both representations evaluate the same
//!   function of the same key, so any link tracked by both carries
//!   bit-identical fading at every step — the sharded truncation changes
//!   *which* links exist, never their values.
//! - **Order independence**: iteration order over links (shard-major,
//!   row-major, or parallel) cannot change any draw, so runs stay
//!   bit-identical for any `--threads` value.
//! - **Deterministic handover migration**: when mobility re-associates a
//!   requester, links tracked on both sides of the handover carry their
//!   fading over unchanged, and newly tracked links draw from a stream
//!   that depends only on the key — never on which thread or in which
//!   order the migration ran.

use mfgcp_sde::{seeded_rng, OrnsteinUhlenbeck, SimRng, StandardNormal};

use crate::config::NetworkConfig;
use crate::geometry::Point;
use crate::grid::Moments;
use crate::topology::Topology;

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
/// keyed by counter-based per-link streams (or draws nothing at all), so
/// any chunking — including the sequential fallback — is bit-identical.
fn par_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(items: &mut [T], f: F) {
    const MIN_PER_THREAD: usize = 1024;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len() / MIN_PER_THREAD);
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

/// Stationary-law fading for a link first tracked at step `step`
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

/// `d^{−τ}`, with the paper's `τ = 3` (§V-A) computed without `powf`:
/// the far-field tail evaluates it about a hundred times per requester
/// at every (re)association, where `powf` would dominate the traversal.
#[inline]
fn inv_pow(d: f64, tau: f64) -> f64 {
    if tau == 3.0 {
        1.0 / (d * d * d)
    } else {
        d.powf(-tau)
    }
}

/// Summed channel gain, at fading `h`, of the EDPs under one pyramid
/// node seen from `p`: the second-order Taylor expansion of
/// `h²·|r + u|^{−τ}` about the centroid offset `r`, summed over the EDP
/// offsets `u` (the first-order term vanishes about the centroid):
/// `n·g(r) + ½·g(r)·(−τ·tr S / r² + τ(τ+2)·rᵀSr / r⁴)`. Only called for
/// nodes whose nearest point lies beyond `min_distance`, where the gain
/// is the smooth power law.
fn quadrupole_gain(h: f64, tau: f64, m: &Moments, p: &Point) -> f64 {
    let (rx, ry) = (m.centroid.x - p.x, m.centroid.y - p.y);
    let r2 = rx * rx + ry * ry;
    let g = h * h * inv_pow(r2.sqrt(), tau);
    let [sxx, sxy, syy] = m.second;
    let trace = sxx + syy;
    let rsr = rx * rx * sxx + 2.0 * rx * ry * sxy + ry * ry * syy;
    g * (f64::from(m.count) + 0.5 * (-tau * trace / r2 + tau * (tau + 2.0) * rsr / (r2 * r2)))
}

/// One tracked (EDP, requester) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    /// EDP side of the link.
    pub edp: u32,
    /// Current OU fading coefficient `h_{i,j}`.
    pub fading: f64,
    /// Current link distance in meters.
    pub distance: f64,
}

/// The links tracked for one requester: its serving EDP plus its
/// `k_int` strongest (nearest) interferers, and the frozen mean-field
/// tail of everything farther away.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequesterLinks {
    /// The serving-EDP link (always tracked).
    pub serving: Link,
    /// Interferer links, ordered by `(distance, EDP index)` at the last
    /// (re)association.
    pub interferers: Vec<Link>,
    /// Summed channel gain of every *untracked* non-serving EDP, taken at
    /// the OU stationary-mean fading — the far-field interference tail.
    /// Near untracked EDPs are summed link by link; far ones through the
    /// quadrupole moments of the EDP grid's pyramid nodes, within a few
    /// 10⁻³ relative error of the link-by-link sum. With `τ = 3` path
    /// loss the tail aggregates hundreds of weak links whose fading
    /// fluctuations average out (mean-field §III), so freezing it at the
    /// stationary mean between re-associations keeps the Eq. (2)
    /// denominator within the configured truncation bound while the
    /// per-slot work stays O(k_int).
    pub tail_gain: f64,
}

impl RequesterLinks {
    /// The tracked link to `edp`, if any.
    pub fn link_to(&self, edp: u32) -> Option<&Link> {
        if self.serving.edp == edp {
            return Some(&self.serving);
        }
        self.interferers.iter().find(|l| l.edp == edp)
    }
}

/// Occupancy-local channel storage: one [`RequesterLinks`] record per
/// requester, sharded by serving EDP.
#[derive(Debug, Clone)]
pub(crate) struct ShardedLinks {
    /// Per-requester link records, indexed by requester id.
    pub records: Vec<RequesterLinks>,
    /// `shards[i]` = requesters whose *serving* EDP is `i` (mirrors
    /// `Topology::served_by` at the last association). The fading hot
    /// loop iterates shard-major so each EDP's state stays cache-local.
    pub shards: Vec<Vec<u32>>,
    /// Interferers tracked per requester.
    pub k_int: usize,
}

impl ShardedLinks {
    /// Track the serving link and `k_int` nearest interferers for every
    /// requester, drawing initial fading from the per-link stationary
    /// streams at step `step`.
    pub fn build(
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u64,
        k_int: usize,
    ) -> Self {
        let m = topo.num_edps();
        let j = topo.num_requesters();
        // Each record is a pure function of its requester index (distances
        // from `topo`, fading from the per-link streams), so construction
        // fans out over record chunks like `reassociate`; only the shard
        // index rebuild stays sequential in ascending requester order.
        let mut slots: Vec<Option<RequesterLinks>> = vec![None; j];
        par_chunks(&mut slots, |base, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(Self::track(
                    topo,
                    cfg,
                    process,
                    seed,
                    step,
                    k_int,
                    base + off,
                    None,
                ));
            }
        });
        let records: Vec<RequesterLinks> = slots.into_iter().flatten().collect();
        let mut shards = vec![Vec::new(); m];
        for (jj, rec) in records.iter().enumerate() {
            shards[rec.serving.edp as usize].push(jj as u32);
        }
        Self {
            records,
            shards,
            k_int,
        }
    }

    /// Re-associate every requester after mobility, migrating link state
    /// between shards: links tracked both before and after the handover
    /// keep their fading; links tracked only after draw fresh stationary
    /// state at step `step` from their per-link stream; links no longer
    /// tracked are dropped. Distances are refreshed from `topo`.
    pub fn reassociate(
        &mut self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u64,
    ) {
        // Each record's new state depends only on its own carried links
        // and per-link streams, so the re-tracking runs on record chunks
        // across threads; only the shard index rebuild stays sequential
        // (ascending requester order, exactly as before).
        let k_int = self.k_int;
        par_chunks(&mut self.records, |base, chunk| {
            for (off, rec) in chunk.iter_mut().enumerate() {
                let jj = base + off;
                *rec = Self::track(topo, cfg, process, seed, step, k_int, jj, Some(&*rec));
            }
        });
        for shard in &mut self.shards {
            shard.clear();
        }
        for (jj, rec) in self.records.iter().enumerate() {
            self.shards[rec.serving.edp as usize].push(jj as u32);
        }
    }

    /// Resize the tracked-interferer budget to `k_int` and re-track every
    /// record under the new budget (the adaptive-k controller's lever).
    /// Links tracked under both budgets keep their fading; newly tracked
    /// links draw fresh stationary state, exactly as in
    /// [`ShardedLinks::reassociate`].
    pub fn retrack(
        &mut self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u64,
        k_int: usize,
    ) {
        self.k_int = k_int.max(1);
        self.reassociate(topo, cfg, process, seed, step);
    }

    /// Mean share of the interference power (every fading evaluated at
    /// the OU stationary mean, where the geometric split makes fading
    /// cancel in expectation) carried by the frozen tail rather than by
    /// live tracked links, plus how many requesters had any interference
    /// power at all. `None` when nobody did. Pure reads — the
    /// `net.shard.truncated_power` gauge and the adaptive-k controller
    /// both measure through here, so they can never disagree.
    pub fn tail_fraction(
        &self,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> Option<(f64, u64)> {
        let h = process.stationary_mean();
        let mut total = 0.0;
        let mut sampled = 0u64;
        for record in &self.records {
            let tracked: f64 = record
                .interferers
                .iter()
                .map(|l| crate::channel_gain(h, l.distance, cfg.path_loss_exp, cfg.min_distance))
                .sum();
            let t = tracked + record.tail_gain;
            if t > 0.0 {
                total += record.tail_gain / t;
                sampled += 1;
            }
        }
        (sampled > 0).then(|| (total / sampled as f64, sampled))
    }

    /// Build the link record for requester `jj`: serving EDP (= nearest,
    /// by the association invariant) plus the next `k_int` nearest EDPs
    /// as interferers. `carry` supplies fading for links already tracked.
    /// The argument list mirrors `advance_fading`'s stream-key components
    /// plus the tracking inputs; see the lint waiver there.
    #[allow(clippy::too_many_arguments)]
    fn track(
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u64,
        k_int: usize,
        jj: usize,
        carry: Option<&RequesterLinks>,
    ) -> RequesterLinks {
        let p = topo.requester(jj);
        let serving_edp = topo.serving(jj);
        let fading_of = |edp: u32| -> f64 {
            if let Some(prev) = carry {
                if let Some(link) = prev.link_to(edp) {
                    return link.fading;
                }
            }
            init_fading(seed, edp as usize, jj, step, process, cfg)
        };
        let serving = Link {
            edp: serving_edp as u32,
            fading: fading_of(serving_edp as u32),
            distance: topo.distance(serving_edp, jj),
        };
        // The serving EDP is the nearest by construction, so the k_int + 1
        // nearest minus the serving EDP are exactly the k_int nearest
        // interferers. Guard with a filter anyway: ties at equal distance
        // are broken by index in both queries, but the invariant lives in
        // `Topology`, not here.
        let near = topo.grid().k_nearest(&p, k_int + 1);
        let mut interferers = Vec::with_capacity(k_int.min(near.len()));
        for (edp, distance) in near {
            if edp == serving_edp || interferers.len() == k_int {
                continue;
            }
            interferers.push(Link {
                edp: edp as u32,
                fading: fading_of(edp as u32),
                distance,
            });
        }
        // Frozen mean-field tail: the untracked far field at the OU
        // stationary-mean fading, paid only at (re)association time, never
        // per slot. The serving EDP is the nearest, so every EDP at or
        // before the last tracked interferer in `(distance, index)` order
        // is tracked and everything after it is the tail — one pyramid
        // traversal, no membership test, and exactly 0 when every EDP is
        // tracked.
        let mut tail_gain = 0.0;
        if let Some(last) = interferers.last() {
            debug_assert!(serving.distance <= last.distance);
            let h = process.stationary_mean();
            let (tau, d_min) = (cfg.path_loss_exp, cfg.min_distance);
            tail_gain = topo.grid().far_field(
                &p,
                (last.distance, last.edp as usize),
                d_min,
                |d| h * h * inv_pow(d.max(d_min), tau),
                |m| quadrupole_gain(h, tau, m, &p),
            );
        }
        RequesterLinks {
            serving,
            interferers,
            tail_gain,
        }
    }

    /// Advance every tracked link by `dt` with its per-link transition
    /// stream into step `step`. Requester-major over record chunks on
    /// scoped threads; the counter-based streams make the result identical
    /// for any iteration order and thread count.
    pub fn advance(
        &mut self,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u64,
        dt: f64,
    ) {
        let sd = process.transition_variance(dt).sqrt();
        par_chunks(&mut self.records, |base, chunk| {
            for (off, record) in chunk.iter_mut().enumerate() {
                let jj = base + off;
                let s = &mut record.serving;
                s.fading = advance_fading(
                    seed,
                    s.edp as usize,
                    jj,
                    step,
                    s.fading,
                    dt,
                    sd,
                    process,
                    cfg,
                );
                for l in &mut record.interferers {
                    l.fading = advance_fading(
                        seed,
                        l.edp as usize,
                        jj,
                        step,
                        l.fading,
                        dt,
                        sd,
                        process,
                        cfg,
                    );
                }
            }
        });
    }

    /// Refresh tracked link distances from moved requester positions
    /// without re-associating (the per-slot mobility path).
    pub fn refresh_distances(&mut self, topo: &Topology, positions: &[Point]) {
        par_chunks(&mut self.records, |base, chunk| {
            for (off, record) in chunk.iter_mut().enumerate() {
                let p = &positions[base + off];
                record.serving.distance = topo.edp(record.serving.edp as usize).distance(p);
                for l in &mut record.interferers {
                    l.distance = topo.edp(l.edp as usize).distance(p);
                }
            }
        });
    }

    /// Resident bytes of the link store (records + shard index).
    pub fn memory_bytes(&self) -> usize {
        let records: usize = self
            .records
            .iter()
            .map(|r| {
                std::mem::size_of::<RequesterLinks>()
                    + r.interferers.capacity() * std::mem::size_of::<Link>()
            })
            .sum();
        let shards: usize = self
            .shards
            .iter()
            .map(|s| std::mem::size_of::<Vec<u32>>() + s.capacity() * std::mem::size_of::<u32>())
            .sum();
        records + shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_sde::seeded_rng;

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

    /// Worst relative error of the pyramid tail against the O(M)
    /// stationary-mean sum over the untracked EDPs, and of the
    /// stationary-mean interference (tracked + tail) it feeds.
    fn worst_tail_errors(topo: &Topology, cfg: &NetworkConfig) -> (f64, f64) {
        let process = cfg.fading_process();
        let h = process.stationary_mean();
        let gain = |d: f64| crate::channel_gain(h, d, cfg.path_loss_exp, cfg.min_distance);
        let links = ShardedLinks::build(topo, cfg, &process, 3, 0, cfg.k_int);
        let (mut worst_tail, mut worst_interference) = (0.0_f64, 0.0_f64);
        for (jj, rec) in links.records.iter().enumerate() {
            let exact: f64 = (0..topo.num_edps())
                .filter(|&i| rec.link_to(i as u32).is_none())
                .map(|i| gain(topo.distance(i, jj)))
                .sum();
            let tracked: f64 = rec.interferers.iter().map(|l| gain(l.distance)).sum();
            if exact == 0.0 {
                assert_eq!(rec.tail_gain, 0.0, "requester {jj}: no untracked EDP");
                continue;
            }
            worst_tail = worst_tail.max((rec.tail_gain - exact).abs() / exact);
            worst_interference =
                worst_interference.max((rec.tail_gain - exact).abs() / (tracked + exact));
        }
        (worst_tail, worst_interference)
    }

    fn assert_tail_within_bounds(topo: &Topology, cfg: &NetworkConfig, case: &str) {
        let (tail, interference) = worst_tail_errors(topo, cfg);
        assert!(tail <= 5e-3, "{case}: worst relative tail error {tail:.3e}");
        assert!(
            interference <= cfg.truncation_tol / 20.0,
            "{case}: worst relative interference error {interference:.3e}"
        );
    }

    #[test]
    fn pyramid_tail_matches_the_exact_sum_on_uniform_discs() {
        let cfg = NetworkConfig::default();
        for (seed, m) in [(1_u64, 50_usize), (2, 400), (3, 6000)] {
            let mut rng = seeded_rng(seed);
            let topo = Topology::random(m, 200, &cfg, &mut rng);
            assert_tail_within_bounds(&topo, &cfg, &format!("uniform M = {m}"));
        }
    }

    #[test]
    fn pyramid_tail_matches_the_exact_sum_on_clustered_hotspots() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(4);
        let centres: Vec<Point> = (0..6)
            .map(|_| crate::uniform_in_disc(400.0, &mut rng))
            .collect();
        let edps: Vec<Point> = (0..600)
            .map(|i| {
                let u = crate::uniform_in_disc(40.0, &mut rng);
                let c = centres[i % centres.len()];
                Point::new(c.x + u.x, c.y + u.y)
            })
            .collect();
        let requesters = (0..200)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let topo = Topology::with_positions(edps, requesters);
        assert_tail_within_bounds(&topo, &cfg, "clustered");
    }

    #[test]
    fn pyramid_tail_matches_the_exact_sum_on_collinear_edps() {
        // Zero vertical extent: the EDP grid is a single row of cells.
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(5);
        let edps: Vec<Point> = (0..300)
            .map(|i| Point::new(-450.0 + 3.0 * i as f64, 20.0))
            .collect();
        let requesters = (0..200)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let topo = Topology::with_positions(edps, requesters);
        assert_tail_within_bounds(&topo, &cfg, "collinear");
    }

    #[test]
    fn pyramid_tail_matches_the_exact_sum_outside_the_edp_bounding_box() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(6);
        let edps: Vec<Point> = (0..500)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let requesters = (0..200)
            .map(|k| {
                let angle = 0.1 * k as f64;
                let radius = 600.0 + 7.0 * k as f64;
                Point::new(radius * angle.cos(), radius * angle.sin())
            })
            .collect();
        let topo = Topology::with_positions(edps, requesters);
        assert_tail_within_bounds(&topo, &cfg, "outside the bounding box");
    }

    #[test]
    fn pyramid_tail_matches_the_exact_sum_with_coincident_edps() {
        // Every site hosts three EDPs, so the last tracked interferer
        // ties in distance with untracked ones and only the index order
        // separates tracked from tail.
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(7);
        let sites: Vec<Point> = (0..150)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let edps: Vec<Point> = sites.iter().flat_map(|&s| [s, s, s]).collect();
        let requesters = (0..200)
            .map(|_| crate::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let topo = Topology::with_positions(edps, requesters);
        assert_tail_within_bounds(&topo, &cfg, "coincident");
    }

    #[test]
    fn full_tracking_leaves_an_exactly_zero_tail() {
        let mut rng = seeded_rng(8);
        for (m, k_int) in [(20_usize, 19_usize), (20, 40), (2, 1)] {
            let cfg = NetworkConfig {
                k_int,
                ..NetworkConfig::default()
            };
            let topo = Topology::random(m, 50, &cfg, &mut rng);
            let links = ShardedLinks::build(&topo, &cfg, &cfg.fading_process(), 9, 0, k_int);
            assert!(links.records.iter().all(|r| r.tail_gain == 0.0));
        }
    }

    #[test]
    fn tails_are_bit_identical_across_states_of_one_topology() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(9);
        let topo = Topology::random(2000, 3000, &cfg, &mut rng);
        let process = cfg.fading_process();
        let a = ShardedLinks::build(&topo, &cfg, &process, 1, 0, cfg.k_int);
        let b = ShardedLinks::build(&topo.clone(), &cfg, &process, 2, 0, cfg.k_int);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.tail_gain.to_bits(), rb.tail_gain.to_bits());
        }
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
