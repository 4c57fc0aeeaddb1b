//! Per-slot request generation: the requester population asks for contents
//! according to a (possibly trace-driven) popularity profile, producing the
//! request sets `I_k(t)` with per-request timeliness requirements (Def. 2).

use mfgcp_sde::{seeded_rng, SimRng};
use rand::{Rng, RngExt as _};

use crate::timeliness::TimelinessConfig;
use crate::WorkloadError;

/// SplitMix64 finalizer: the bijective avalanche mix used to derive
/// per-requester request-stream keys (same idiom as the per-link channel
/// streams in `mfgcp-net`).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fresh single-use RNG for requester `requester`'s draws in global slot
/// `slot` under `seed`. One stream per (requester, slot) pair: the gate,
/// content-choice, and urgency draws all come from it, so a requester's
/// demand is a pure function of its identity and the slot — independent
/// of which host EDP (or thread) generates it.
#[inline]
fn requester_rng(seed: u64, requester: usize, slot: u64) -> SimRng {
    let a = mix(seed ^ (requester as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    seeded_rng(mix(a ^ slot.wrapping_mul(0x2545_F491_4F6C_DD1D)))
}

/// The outcome of one slot of requests at one EDP: per-content counts
/// `|I_k(t)|` and the per-request urgencies `L_{k,j}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestBatch {
    /// `counts[k] = |I_k(t)|`.
    pub counts: Vec<usize>,
    /// `urgencies[k]` = the urgency each requester in `I_k(t)` declared.
    pub urgencies: Vec<Vec<f64>>,
}

impl RequestBatch {
    /// An empty batch over `k` contents.
    pub fn empty(k: usize) -> Self {
        Self {
            counts: vec![0; k],
            urgencies: vec![Vec::new(); k],
        }
    }

    /// Total number of requests in the slot, `Σ_k |I_k(t)|`.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Generates request batches from a per-requester request probability and a
/// content-choice weight profile (updatable each epoch, e.g. from a trace).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProcess {
    /// Probability that a given requester issues a request in one slot.
    request_prob: f64,
    /// Content-choice weights (renormalized on set).
    weights: Vec<f64>,
    cumulative: Vec<f64>,
    timeliness: TimelinessConfig,
}

impl RequestProcess {
    /// Create a process over `weights.len()` contents.
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty or `request_prob` is outside
    /// `(0, 1]`.
    pub fn new(
        request_prob: f64,
        weights: Vec<f64>,
        timeliness: TimelinessConfig,
    ) -> Result<Self, WorkloadError> {
        if weights.is_empty() {
            return Err(WorkloadError::EmptyCatalog);
        }
        if request_prob.is_nan() || request_prob <= 0.0 || request_prob > 1.0 {
            return Err(WorkloadError::NonPositive {
                name: "request_prob",
                value: request_prob,
            });
        }
        let mut p = Self {
            request_prob,
            weights: Vec::new(),
            cumulative: Vec::new(),
            timeliness,
        };
        p.set_weights(weights);
        Ok(p)
    }

    /// Number of contents.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the catalog is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Replace the content-choice weights (e.g. when a trace advances to
    /// the next epoch). Non-positive totals fall back to uniform.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the current catalog size,
    /// unless the process is still empty (first call from `new`).
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        if !self.weights.is_empty() {
            assert_eq!(weights.len(), self.weights.len(), "weight length mismatch");
        }
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        let k = weights.len();
        self.weights = if total > 0.0 {
            weights
                .into_iter()
                .map(|w| {
                    if w.is_finite() && w > 0.0 {
                        w / total
                    } else {
                        0.0
                    }
                })
                .collect()
        } else {
            vec![1.0 / k as f64; k]
        };
        self.cumulative.clear();
        let mut acc = 0.0;
        for &w in &self.weights {
            acc += w;
            self.cumulative.push(acc);
        }
        *self.cumulative.last_mut().expect("k >= 1") = 1.0;
    }

    /// Generate one slot of requests from `num_requesters` requesters.
    pub fn generate<R: Rng + ?Sized>(&self, num_requesters: usize, rng: &mut R) -> RequestBatch {
        let mut batch = RequestBatch::empty(self.len());
        for _ in 0..num_requesters {
            if rng.random_range(0.0_f64..1.0) < self.request_prob {
                let u: f64 = rng.random_range(0.0..1.0);
                let k = self
                    .cumulative
                    .partition_point(|&c| c < u)
                    .min(self.len() - 1);
                batch.counts[k] += 1;
                batch.urgencies[k].push(rng.random_range(0.0..self.timeliness.l_max));
            }
        }
        batch
    }

    /// Generate one slot of requests from an explicit requester set, each
    /// requester drawing from its own counter-based stream keyed
    /// `(seed, requester, slot)`.
    ///
    /// Unlike [`RequestProcess::generate`], which consumes a shared
    /// sequential RNG, the batch here is a pure function of *which*
    /// requesters are in `served` (and their order, for the urgency
    /// lists): a requester's demand does not change when its neighbours
    /// migrate to another host EDP, and disjoint shards can generate their
    /// batches on different threads with bit-identical results.
    pub fn generate_batched(&self, served: &[usize], seed: u64, slot: u64) -> RequestBatch {
        let mut batch = RequestBatch::empty(self.len());
        self.walk_batched(served, seed, slot, |k, urgency| {
            batch.counts[k] += 1;
            batch.urgencies[k].push(urgency);
        });
        batch
    }

    /// The same requests as [`RequestProcess::generate_batched`], tallied
    /// in place instead of materialized: `counts[k] = |I_k(t)|` and
    /// `urgency_sums[k]` = the sum of those requests' urgencies, each
    /// clamped into `[0, L_max]` and added in `served` order — exactly the
    /// `(sum, n)` that [`crate::Timeliness::observe_totals`] takes. Both
    /// slices are overwritten and must hold one entry per content.
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than the catalog.
    pub fn tally_batched(
        &self,
        served: &[usize],
        seed: u64,
        slot: u64,
        counts: &mut [u32],
        urgency_sums: &mut [f64],
    ) {
        counts.fill(0);
        urgency_sums.fill(0.0);
        self.walk_batched(served, seed, slot, |k, urgency| {
            counts[k] += 1;
            urgency_sums[k] += self.timeliness.clamp(urgency);
        });
    }

    /// The one request walk behind [`RequestProcess::generate_batched`]
    /// and [`RequestProcess::tally_batched`]: per requester in `served`
    /// order, the request gate, then the content choice and the urgency
    /// draw, all from that requester's own stream; `visit(k, urgency)`
    /// sees each request.
    fn walk_batched(
        &self,
        served: &[usize],
        seed: u64,
        slot: u64,
        mut visit: impl FnMut(usize, f64),
    ) {
        for &j in served {
            let mut rng = requester_rng(seed, j, slot);
            if rng.random_range(0.0_f64..1.0) < self.request_prob {
                let u: f64 = rng.random_range(0.0..1.0);
                let k = self
                    .cumulative
                    .partition_point(|&c| c < u)
                    .min(self.len() - 1);
                visit(k, rng.random_range(0.0..self.timeliness.l_max));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_sde::seeded_rng;

    fn process(weights: Vec<f64>) -> RequestProcess {
        RequestProcess::new(0.5, weights, TimelinessConfig::default()).unwrap()
    }

    #[test]
    fn batch_counts_match_urgency_lists() {
        let p = process(vec![3.0, 1.0]);
        let mut rng = seeded_rng(16);
        let b = p.generate(200, &mut rng);
        for k in 0..2 {
            assert_eq!(b.counts[k], b.urgencies[k].len());
        }
        assert_eq!(b.total(), b.counts.iter().sum::<usize>());
    }

    #[test]
    fn request_volume_matches_probability() {
        let p = process(vec![1.0, 1.0]);
        let mut rng = seeded_rng(17);
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            total += p.generate(100, &mut rng).total();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 50.0).abs() < 2.0, "mean requests {mean}");
    }

    #[test]
    fn weights_bias_content_choice() {
        let p = process(vec![9.0, 1.0]);
        let mut rng = seeded_rng(18);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            let b = p.generate(100, &mut rng);
            counts[0] += b.counts[0];
            counts[1] += b.counts[1];
        }
        let frac = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((frac - 0.9).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn set_weights_renormalizes_and_handles_garbage() {
        let mut p = process(vec![1.0, 1.0]);
        p.set_weights(vec![2.0, 6.0]);
        assert!((p.weights()[0] - 0.25).abs() < 1e-12);
        p.set_weights(vec![f64::NAN, 4.0]);
        assert_eq!(p.weights()[0], 0.0);
        assert_eq!(p.weights()[1], 1.0);
        p.set_weights(vec![0.0, 0.0]);
        assert_eq!(p.weights(), &[0.5, 0.5]);
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(RequestProcess::new(0.5, vec![], TimelinessConfig::default()).is_err());
        assert!(RequestProcess::new(0.0, vec![1.0], TimelinessConfig::default()).is_err());
        assert!(RequestProcess::new(1.5, vec![1.0], TimelinessConfig::default()).is_err());
    }

    #[test]
    fn batched_generation_is_deterministic_and_slot_dependent() {
        let p = process(vec![3.0, 1.0]);
        let served: Vec<usize> = (0..200).collect();
        let a = p.generate_batched(&served, 9, 4);
        let b = p.generate_batched(&served, 9, 4);
        assert_eq!(a, b, "same (seed, served, slot) must reproduce");
        let c = p.generate_batched(&served, 9, 5);
        assert_ne!(a, c, "a new slot draws fresh demand");
        let d = p.generate_batched(&served, 10, 4);
        assert_ne!(a, d, "a new seed draws fresh demand");
    }

    #[test]
    fn batched_generation_is_partition_invariant() {
        // A requester's demand is keyed by its identity, not its host:
        // generating for any partition of the population and summing the
        // shard batches reproduces the whole-population batch exactly.
        let p = process(vec![3.0, 1.0, 2.0]);
        let all: Vec<usize> = (0..300).collect();
        let whole = p.generate_batched(&all, 21, 7);
        for split in [1usize, 37, 150, 299] {
            let (left, right) = all.split_at(split);
            let a = p.generate_batched(left, 21, 7);
            let b = p.generate_batched(right, 21, 7);
            let counts: Vec<usize> = a.counts.iter().zip(&b.counts).map(|(x, y)| x + y).collect();
            assert_eq!(counts, whole.counts, "split at {split}");
            for k in 0..3 {
                let merged: Vec<f64> = a.urgencies[k]
                    .iter()
                    .chain(&b.urgencies[k])
                    .copied()
                    .collect();
                // Ascending split point: concatenation preserves the
                // served-order urgency lists bit for bit.
                assert_eq!(merged, whole.urgencies[k], "split at {split}, k {k}");
            }
        }
    }

    #[test]
    fn batched_volume_matches_probability() {
        let p = process(vec![1.0, 1.0]);
        let served: Vec<usize> = (0..100).collect();
        let mut total = 0usize;
        let trials = 200;
        for slot in 0..trials {
            total += p.generate_batched(&served, 23, slot).total();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 50.0).abs() < 2.0, "mean requests {mean}");
    }
}
