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
//! - **Catch-up on read**: only serving links are stepped each slot.
//!   Each interferer keeps the step its fading is current at (its
//!   stamp), and a read replays the transitions it missed from the same
//!   per-step draws eager stepping would have taken, so a lazily read
//!   interferer is bit-identical to an eagerly stepped one.

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
/// the far-field tail evaluates it about a hundred times per read, where
/// `powf` would dominate the traversal.
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

/// Reference for [`ShardedLinks::tail_gain`]: the tail as association
/// computed it when it was stored per requester — the `k_int` nearest
/// interferers re-queried from the grid and the pyramid traversal split
/// at the last one's query distance, with the closures written out.
#[cfg(test)]
pub(crate) fn association_time_tail(
    topo: &Topology,
    cfg: &NetworkConfig,
    process: &OrnsteinUhlenbeck,
    jj: usize,
) -> f64 {
    let p = topo.requester(jj);
    let serving_edp = topo.serving(jj);
    let last = topo
        .grid()
        .k_nearest(&p, cfg.k_int + 1)
        .into_iter()
        .filter(|&(edp, _)| edp != serving_edp)
        .take(cfg.k_int)
        .last();
    let mut tail_gain = 0.0;
    if let Some((edp, distance)) = last {
        let h = process.stationary_mean();
        let (tau, d_min) = (cfg.path_loss_exp, cfg.min_distance);
        tail_gain = topo.grid().far_field(
            &p,
            (distance, edp),
            d_min,
            |d| h * h * inv_pow(d.max(d_min), tau),
            |m| quadrupole_gain(h, tau, m, &p),
        );
    }
    tail_gain
}

/// Most requesters [`ShardedLinks::tail_fraction`] reads a tail for: a
/// tail costs one pyramid traversal (≈ 17 µs at M = 6000), and the engine
/// samples the gauge every epoch.
const TAIL_SAMPLE: usize = 256;

/// Most `dt` runs the clock keeps before [`ShardedLinks::advance`]
/// brings every link up to date and drops the history; only a caller
/// that keeps changing `dt` ever reaches it.
pub(crate) const MAX_DT_RUNS: usize = 64;

/// One tracked (EDP, requester) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    /// EDP side of the link.
    pub edp: u32,
    /// Step `fading` is current at, counted from the link store's clock
    /// base (see `Clock`). It sits in what would otherwise be padding
    /// after `edp`.
    pub stamp: u32,
    /// OU fading coefficient `h_{i,j}` at the step `stamp` names.
    pub fading: f64,
    /// Current link distance in meters.
    pub distance: f64,
}

// The stamp must not grow the link store.
const _: () = assert!(std::mem::size_of::<Link>() == 24);

/// A run of consecutive steps advanced with one `dt`: every step from
/// `first` up to the next run's `first`.
#[derive(Debug, Clone, Copy)]
struct DtRun {
    first: u64,
    dt: f64,
    /// `√Var` of the OU transition over `dt`, computed once per run
    /// exactly as eager stepping computed it once per step.
    sd: f64,
}

/// The step counter of a link store plus the run-length `dt` history a
/// lagging link needs to replay its missed transitions.
#[derive(Debug, Clone)]
struct Clock {
    /// The step every serving link is current at. Transition noise into
    /// step `n` is draw `2·n`; a link first tracked at step `n` draws its
    /// stationary state with draw `2·n + 1`.
    step: u64,
    /// The step a link stamp of 0 stands for.
    base: u64,
    /// `dt` runs covering every step some link may still have to replay,
    /// in ascending `first` order.
    runs: Vec<DtRun>,
}

impl Clock {
    /// A clock at `step` with no history. The base is `step` with its low
    /// 32 bits cleared, so a stamp is the low 32 bits of its step.
    fn at(step: u64) -> Self {
        Self {
            step,
            base: step & !u64::from(u32::MAX),
            runs: Vec::new(),
        }
    }

    /// Stamp of the current step.
    fn stamp(&self) -> u32 {
        u32::try_from(self.step - self.base).expect("the clock re-bases before stamps overflow")
    }

    /// Fading of `link` (requester `jj`) at the current step: its stored
    /// fading with every missed transition replayed from the per-link
    /// stream, the same draws and clamp eager stepping would have used.
    /// Costs one draw per missed step and mutates nothing.
    fn fading(
        &self,
        seed: u64,
        jj: usize,
        link: &Link,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> f64 {
        let from = self.base + u64::from(link.stamp);
        let mut h = link.fading;
        if from == self.step {
            return h;
        }
        // The run holding step `from + 1`; runs cover consecutive steps,
        // so the replay moves to the next run exactly at its `first`.
        let mut r = self.runs.partition_point(|run| run.first <= from + 1) - 1;
        for s in from + 1..=self.step {
            if self.runs.get(r + 1).is_some_and(|next| next.first == s) {
                r += 1;
            }
            let run = &self.runs[r];
            h = advance_fading(
                seed,
                link.edp as usize,
                jj,
                s,
                h,
                run.dt,
                run.sd,
                process,
                cfg,
            );
        }
        h
    }
}

/// The links tracked for one requester: its serving EDP plus its
/// `k_int` strongest (nearest) interferers. The frozen mean-field tail
/// of everything farther away is not stored: it is a pure function of
/// the association (the topology and the last tracked interferer), so
/// [`ShardedLinks::tail_gain`] computes it on read.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequesterLinks {
    /// The serving-EDP link (always tracked).
    pub serving: Link,
    /// Interferer links, ordered by `(distance, EDP index)` at the last
    /// (re)association.
    pub interferers: Vec<Link>,
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
    /// `shard_sizes[i]` = number of requesters whose *serving* EDP is `i`
    /// (the shard occupancy at the last association, as
    /// `Topology::served_by(i).len()`). Only the occupancy statistics
    /// read it, so the shards' member lists are not kept.
    pub shard_sizes: Vec<u32>,
    /// Step counter and `dt` history behind the link stamps.
    clock: Clock,
}

impl ShardedLinks {
    /// Track the serving link and the `cfg.k_int` nearest interferers
    /// for every requester, drawing initial fading from the per-link
    /// stationary streams at step `step`, where the clock starts.
    pub fn build(
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u64,
    ) -> Self {
        let m = topo.num_edps();
        let j = topo.num_requesters();
        let clock = Clock::at(step);
        // Each record is a pure function of its requester index (distances
        // from `topo`, fading from the per-link streams), so construction
        // fans out over record chunks like `reassociate`; only the shard
        // occupancy count stays sequential.
        let mut slots: Vec<Option<RequesterLinks>> = vec![None; j];
        par_chunks(&mut slots, |base, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(Self::track(
                    topo,
                    cfg,
                    process,
                    seed,
                    &clock,
                    base + off,
                    None,
                ));
            }
        });
        let records: Vec<RequesterLinks> = slots.into_iter().flatten().collect();
        let mut links = Self {
            records,
            shard_sizes: vec![0; m],
            clock,
        };
        links.count_shards();
        links
    }

    /// Recount every shard's occupancy from the records' serving EDPs.
    fn count_shards(&mut self) {
        self.shard_sizes.fill(0);
        for rec in &self.records {
            self.shard_sizes[rec.serving.edp as usize] += 1;
        }
    }

    /// Re-associate every requester after mobility, migrating link state
    /// between shards: links tracked both before and after the handover
    /// keep their fading and stamp (an interferer promoted to serving is
    /// first brought up to date); links tracked only after draw fresh
    /// stationary state at the current step from their per-link stream;
    /// links no longer tracked are dropped. Distances are refreshed from
    /// `topo`.
    pub fn reassociate(
        &mut self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
    ) {
        // Each record's new state depends only on its own carried links
        // and per-link streams, so the re-tracking runs on record chunks
        // across threads; only the shard occupancy count stays
        // sequential.
        let clock = &self.clock;
        par_chunks(&mut self.records, |base, chunk| {
            for (off, rec) in chunk.iter_mut().enumerate() {
                let jj = base + off;
                *rec = Self::track(topo, cfg, process, seed, clock, jj, Some(&*rec));
            }
        });
        self.count_shards();
    }

    /// Mean share of the interference power (every fading evaluated at
    /// the OU stationary mean, where the geometric split makes fading
    /// cancel in expectation) carried by the frozen tail rather than by
    /// live tracked links, plus how many requesters had any interference
    /// power at all. `None` when nobody did. Pure reads, behind the
    /// `net.shard.truncated_power` gauge. The share is not the
    /// interference error: the tail is summed, not dropped, so only its
    /// frozen fading differs from the exact Eq. (2) sum.
    ///
    /// Each tail costs one pyramid traversal, so the mean runs over a
    /// deterministic stride sample of at most [`TAIL_SAMPLE`] requesters
    /// (every requester, in index order, when `J ≤ TAIL_SAMPLE`).
    /// `topo` is the topology of the last association.
    pub fn tail_fraction(
        &self,
        topo: &Topology,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> Option<(f64, u64)> {
        let h = process.stationary_mean();
        let mut total = 0.0;
        let mut sampled = 0u64;
        let stride = self.records.len().div_ceil(TAIL_SAMPLE).max(1);
        for (jj, record) in self.records.iter().enumerate().step_by(stride) {
            let tracked: f64 = record
                .interferers
                .iter()
                .map(|l| crate::channel_gain(h, l.distance, cfg.path_loss_exp, cfg.min_distance))
                .sum();
            let tail = self.tail_gain(topo, cfg, process, jj);
            let t = tracked + tail;
            if t > 0.0 {
                total += tail / t;
                sampled += 1;
            }
        }
        (sampled > 0).then(|| (total / sampled as f64, sampled))
    }

    /// Summed channel gain of every *untracked* non-serving EDP of
    /// requester `jj`, taken at the OU stationary-mean fading — the
    /// far-field interference tail, frozen at the last (re)association
    /// and computed on read from that association's topology `topo`.
    /// Near untracked EDPs are summed link by link; far ones through the
    /// quadrupole moments of the EDP grid's pyramid nodes, within a few
    /// 10⁻³ relative error of the link-by-link sum. With `τ = 3` path
    /// loss the tail aggregates hundreds of weak links whose fading
    /// fluctuations average out (mean-field §III), so freezing it at the
    /// stationary mean between re-associations keeps the Eq. (2)
    /// denominator within the configured truncation bound.
    ///
    /// The serving EDP is the nearest, so every EDP at or before the last
    /// tracked interferer in `(distance, index)` order is tracked and
    /// everything after it is the tail: one pyramid traversal, no
    /// membership test, and exactly 0 when every EDP is tracked. The
    /// split distance is read from `topo`, not from the link, so a
    /// per-slot distance refresh between re-associations leaves the tail
    /// where the association put it.
    pub fn tail_gain(
        &self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        jj: usize,
    ) -> f64 {
        let record = &self.records[jj];
        debug_assert_eq!(
            topo.serving(jj),
            record.serving.edp as usize,
            "the tail is read against the topology of the last association"
        );
        let Some(last) = record.interferers.last() else {
            return 0.0;
        };
        let edp = last.edp as usize;
        let p = topo.requester(jj);
        let h = process.stationary_mean();
        let (tau, d_min) = (cfg.path_loss_exp, cfg.min_distance);
        topo.grid().far_field(
            &p,
            (topo.distance(edp, jj), edp),
            d_min,
            |d| h * h * inv_pow(d.max(d_min), tau),
            |m| quadrupole_gain(h, tau, m, &p),
        )
    }

    /// Build the link record for requester `jj`: serving EDP (= nearest,
    /// by the association invariant) plus the next `cfg.k_int` nearest
    /// EDPs as interferers. `carry` supplies fading and stamps for links
    /// already tracked; the serving link leaves current at the clock's
    /// step. The argument list mirrors `advance_fading`'s stream-key
    /// components plus the tracking inputs; see the lint waiver there.
    #[allow(clippy::too_many_arguments)]
    fn track(
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        clock: &Clock,
        jj: usize,
        carry: Option<&RequesterLinks>,
    ) -> RequesterLinks {
        let k_int = cfg.k_int;
        let p = topo.requester(jj);
        let serving_edp = topo.serving(jj);
        let link_to = |edp: u32, distance: f64| -> Link {
            match carry.and_then(|prev| prev.link_to(edp)) {
                Some(link) => Link { distance, ..*link },
                None => Link {
                    edp,
                    stamp: clock.stamp(),
                    fading: init_fading(seed, edp as usize, jj, clock.step, process, cfg),
                    distance,
                },
            }
        };
        let mut serving = link_to(serving_edp as u32, topo.distance(serving_edp, jj));
        serving.fading = clock.fading(seed, jj, &serving, process, cfg);
        serving.stamp = clock.stamp();
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
            interferers.push(link_to(edp as u32, distance));
        }
        debug_assert!(interferers
            .last()
            .map_or(true, |last| serving.distance <= last.distance));
        RequesterLinks {
            serving,
            interferers,
        }
    }

    /// Advance the clock one step of `dt` and step every *serving* link
    /// into it with its per-link transition stream: O(J) per slot.
    /// Interferers keep their stamps and catch up when read
    /// ([`ShardedLinks::current_fading`]). Record chunks run on scoped
    /// threads; the counter-based streams make the result identical for
    /// any iteration order and thread count.
    ///
    /// The `dt` history grows by one run only when `dt` changes. When it
    /// would pass [`MAX_DT_RUNS`] runs, or the next stamp would not fit a
    /// `u32`, every link is first brought up to date, the stamps restart
    /// at the current step and the history is dropped — the work eager
    /// stepping would have done anyway, paid once.
    pub fn advance(
        &mut self,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        dt: f64,
    ) {
        let new_run = self
            .clock
            .runs
            .last()
            .map_or(true, |run| run.dt.to_bits() != dt.to_bits());
        let stamps_full = self.clock.step + 1 - self.clock.base > u64::from(u32::MAX);
        if stamps_full || (new_run && self.clock.runs.len() >= MAX_DT_RUNS) {
            self.catch_up_all(cfg, process, seed);
        }
        let clock = &mut self.clock;
        clock.step += 1;
        let step = clock.step;
        if new_run {
            clock.runs.push(DtRun {
                first: step,
                dt,
                sd: process.transition_variance(dt).sqrt(),
            });
        }
        let (sd, stamp) = (clock.runs[clock.runs.len() - 1].sd, clock.stamp());
        par_chunks(&mut self.records, |base, chunk| {
            for (off, record) in chunk.iter_mut().enumerate() {
                let s = &mut record.serving;
                debug_assert_eq!(s.stamp + 1, stamp, "serving links stay current");
                s.fading = advance_fading(
                    seed,
                    s.edp as usize,
                    base + off,
                    step,
                    s.fading,
                    dt,
                    sd,
                    process,
                    cfg,
                );
                s.stamp = stamp;
            }
        });
    }

    /// Bring every tracked link up to the current step, then restart the
    /// stamps there and keep only the newest `dt` run.
    fn catch_up_all(&mut self, cfg: &NetworkConfig, process: &OrnsteinUhlenbeck, seed: u64) {
        let clock = &self.clock;
        par_chunks(&mut self.records, |base, chunk| {
            for (off, record) in chunk.iter_mut().enumerate() {
                let jj = base + off;
                for l in std::iter::once(&mut record.serving).chain(&mut record.interferers) {
                    l.fading = clock.fading(seed, jj, l, process, cfg);
                    l.stamp = 0;
                }
            }
        });
        let clock = &mut self.clock;
        clock.base = clock.step;
        let newest = clock.runs.len().saturating_sub(1);
        clock.runs.drain(..newest);
    }

    /// Fading of requester `jj`'s tracked `link` at the current step;
    /// replays the link's missed transitions without storing them.
    pub fn current_fading(
        &self,
        seed: u64,
        jj: usize,
        link: &Link,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> f64 {
        self.clock.fading(seed, jj, link, process, cfg)
    }

    /// `out[j]` = requester `j`'s serving-link fading. Serving links stay
    /// current at the clock's step, so this reads the stored value.
    pub fn serving_fading_into(&self, out: &mut [f64]) {
        let stamp = self.clock.stamp();
        for (h, record) in out.iter_mut().zip(&self.records) {
            debug_assert_eq!(record.serving.stamp, stamp, "serving links stay current");
            *h = record.serving.fading;
        }
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

    /// Resident bytes of the link store (records, shard occupancy counts
    /// and `dt` history).
    pub fn memory_bytes(&self) -> usize {
        let records: usize = self
            .records
            .iter()
            .map(|r| {
                std::mem::size_of::<RequesterLinks>()
                    + r.interferers.capacity() * std::mem::size_of::<Link>()
            })
            .sum();
        let shards = self.shard_sizes.capacity() * std::mem::size_of::<u32>();
        records + shards + self.clock.runs.capacity() * std::mem::size_of::<DtRun>()
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
        let links = ShardedLinks::build(topo, cfg, &process, 3, 0);
        let (mut worst_tail, mut worst_interference) = (0.0_f64, 0.0_f64);
        for (jj, rec) in links.records.iter().enumerate() {
            let tail = links.tail_gain(topo, cfg, &process, jj);
            let exact: f64 = (0..topo.num_edps())
                .filter(|&i| rec.link_to(i as u32).is_none())
                .map(|i| gain(topo.distance(i, jj)))
                .sum();
            let tracked: f64 = rec.interferers.iter().map(|l| gain(l.distance)).sum();
            if exact == 0.0 {
                assert_eq!(tail, 0.0, "requester {jj}: no untracked EDP");
                continue;
            }
            worst_tail = worst_tail.max((tail - exact).abs() / exact);
            worst_interference = worst_interference.max((tail - exact).abs() / (tracked + exact));
        }
        (worst_tail, worst_interference)
    }

    fn assert_tail_within_bounds(topo: &Topology, cfg: &NetworkConfig, case: &str) {
        let (tail, interference) = worst_tail_errors(topo, cfg);
        assert!(tail <= 5e-3, "{case}: worst relative tail error {tail:.3e}");
        assert!(
            interference <= crate::TRUNCATION_TOL / 20.0,
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
            let process = cfg.fading_process();
            let links = ShardedLinks::build(&topo, &cfg, &process, 9, 0);
            assert!((0..50).all(|jj| links.tail_gain(&topo, &cfg, &process, jj) == 0.0));
        }
    }

    #[test]
    fn tails_are_bit_identical_across_states_of_one_topology() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(9);
        let topo = Topology::random(2000, 3000, &cfg, &mut rng);
        let process = cfg.fading_process();
        let a = ShardedLinks::build(&topo, &cfg, &process, 1, 0);
        let other = topo.clone();
        let b = ShardedLinks::build(&other, &cfg, &process, 2, 0);
        for jj in 0..topo.num_requesters() {
            let ta = a.tail_gain(&topo, &cfg, &process, jj);
            let tb = b.tail_gain(&other, &cfg, &process, jj);
            assert_eq!(ta.to_bits(), tb.to_bits(), "requester {jj}");
        }
    }

    /// `tail_fraction`'s mean over every requester, summed in index
    /// order with each tail taken from the association-time reference.
    fn exact_tail_fraction(
        links: &ShardedLinks,
        topo: &Topology,
        cfg: &NetworkConfig,
    ) -> Option<(f64, u64)> {
        let process = cfg.fading_process();
        let h = process.stationary_mean();
        let (mut total, mut sampled) = (0.0, 0u64);
        for (jj, record) in links.records.iter().enumerate() {
            let tracked: f64 = record
                .interferers
                .iter()
                .map(|l| crate::channel_gain(h, l.distance, cfg.path_loss_exp, cfg.min_distance))
                .sum();
            let tail = association_time_tail(topo, cfg, &process, jj);
            let t = tracked + tail;
            if t > 0.0 {
                total += tail / t;
                sampled += 1;
            }
        }
        (sampled > 0).then(|| (total / sampled as f64, sampled))
    }

    /// Up to `TAIL_SAMPLE` requesters the gauge reads every one of them,
    /// so it is the exact mean bit for bit; past it, the stride sample
    /// stays within a fixed distance of the exact mean.
    #[test]
    fn sampled_tail_fraction_tracks_the_exact_mean() {
        let cfg = NetworkConfig::default();
        let process = cfg.fading_process();
        let mut rng = seeded_rng(1);
        for (m, j) in [(300_usize, 256_usize), (1000, 100), (40, 1)] {
            let topo = Topology::random(m, j, &cfg, &mut rng);
            let links = ShardedLinks::build(&topo, &cfg, &process, 5, 0);
            let (sampled, exact) = (
                links.tail_fraction(&topo, &process, &cfg).unwrap(),
                exact_tail_fraction(&links, &topo, &cfg).unwrap(),
            );
            assert_eq!(sampled.0.to_bits(), exact.0.to_bits(), "M = {m}, J = {j}");
            assert_eq!(
                sampled.1, j as u64,
                "M = {m}, J = {j}: every requester sampled"
            );
        }
        let mut rng = seeded_rng(1);
        let topo = Topology::random(1000, 2000, &cfg, &mut rng);
        let links = ShardedLinks::build(&topo, &cfg, &process, 5, 0);
        let (fraction, sampled) = links.tail_fraction(&topo, &process, &cfg).unwrap();
        let (exact, _) = exact_tail_fraction(&links, &topo, &cfg).unwrap();
        assert_eq!(sampled, 250, "every 8th requester of 2000");
        assert!(
            (fraction - exact).abs() <= 0.015,
            "sampled {fraction:.4} vs exact {exact:.4}"
        );
    }

    #[test]
    fn dt_history_stays_bounded() {
        let cfg = NetworkConfig {
            k_int: 8,
            ..NetworkConfig::default()
        };
        let process = cfg.fading_process();
        let mut rng = seeded_rng(10);
        let topo = Topology::random(30, 20, &cfg, &mut rng);
        let mut links = ShardedLinks::build(&topo, &cfg, &process, 1, 0);
        for _ in 0..500 {
            links.advance(&cfg, &process, 1, 0.05);
        }
        assert_eq!(links.clock.runs.len(), 1, "a constant dt is one run");
        for n in 0..300 {
            let dt = if n % 2 == 0 { 0.013 } else { 0.05 };
            links.advance(&cfg, &process, 1, dt);
            assert!(links.clock.runs.len() <= MAX_DT_RUNS);
        }
    }

    #[test]
    fn stamps_restart_when_the_step_passes_the_u32_limit() {
        let cfg = NetworkConfig {
            k_int: 8,
            ..NetworkConfig::default()
        };
        let process = cfg.fading_process();
        let mut rng = seeded_rng(11);
        let topo = Topology::random(30, 20, &cfg, &mut rng);
        let start = u64::from(u32::MAX) - 2;
        let mut links = ShardedLinks::build(&topo, &cfg, &process, 1, start);
        assert_eq!(links.clock.base, 0);
        for _ in 0..5 {
            links.advance(&cfg, &process, 1, 0.05);
        }
        assert_eq!(links.clock.step, start + 5);
        assert_eq!(links.clock.base, u64::from(u32::MAX), "re-based once");
        let now = links.clock.stamp();
        assert_eq!(now, 3);
        for record in &links.records {
            assert_eq!(record.serving.stamp, now);
            assert!(record.interferers.iter().all(|l| l.stamp <= now));
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
