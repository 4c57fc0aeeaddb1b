//! The benchmark's own arithmetic: percentiles, work counting, layer
//! attribution and the attempted/failed tally. Pure functions, unit-tested
//! below, so a figure the benchmark reports can be traced to one rule.

use crate::alloc;

/// A growing buffer of measurements, kept out of the heap figures: its
/// size follows the run's speed, not the program's memory.
#[derive(Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Append one measurement.
    pub fn push(&mut self, v: f64) {
        if self.0.len() == self.0.capacity() {
            alloc::uncounted(|| self.0.reserve(self.0.len().max(64)));
        }
        self.0.push(v);
    }

    /// The measurements so far.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl Drop for Samples {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        alloc::uncounted(|| drop(buf));
    }
}

/// Percentiles the tail rule chooses from, in per-mille.
const TAIL_LADDER: [u32; 4] = [500, 900, 990, 999];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), `per_mille` in
/// `1..=1000`: the smallest value with at least `per_mille / 1000` of the
/// samples at or below it. `NaN` for an empty slice.
fn percentile(samples: &[f64], per_mille: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    alloc::uncounted(|| {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(sorted.len(), per_mille) - 1]
    })
}

/// Arithmetic mean; 0 for an empty slice (a layer that never ran).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// 1-based nearest rank `⌈p·n⌉` of the `per_mille` percentile of `n`
/// samples, clamped into `1..=n`.
fn rank(n: usize, per_mille: u32) -> usize {
    let r = (n * per_mille as usize).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// The highest percentile of the ladder p50/p90/p99/p99.9 that leaves at
/// least [`TAIL_MIN_BEYOND`] of `n` samples beyond it, in per-mille;
/// `None` when even the median does not.
fn tail_per_mille(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(n, p) + TAIL_MIN_BEYOND)
}

/// The `per_mille` percentile if the tail rule allows reporting it for
/// this many samples, else `NaN` (so an under-sampled tail never passes
/// for a measurement).
pub fn tail(samples: &[f64], per_mille: u32) -> f64 {
    match tail_per_mille(samples.len()) {
        Some(allowed) if allowed >= per_mille => percentile(samples, per_mille),
        _ => f64::NAN,
    }
}

/// EDP-slots one simulation run performs: every EDP decides, integrates
/// and trades once per slot.
pub fn edp_slots(edps: usize, epochs: usize, slots_per_epoch: usize) -> u64 {
    (edps * epochs * slots_per_epoch) as u64
}

/// Policy points one serve round answers: one per single-point query plus
/// one per `(h, q)` pair of the slot-batched frame.
pub fn round_points(queries: usize, frame_pairs: usize) -> u64 {
    (queries + frame_pairs) as u64
}

/// Per-slot wall times from slot-boundary marks `(epoch, slot, finished,
/// seconds)` in publication order. A mark's slot ran until the next mark
/// when that mark is the next slot of the same epoch or the final
/// `finished` mark; the interval across an epoch boundary also holds the
/// epoch's re-association and equilibrium preparation, so it is dropped.
pub fn slot_walls(marks: &[(usize, usize, bool, f64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter_map(|w| {
            let (e0, s0, done0, t0) = w[0];
            let (e1, s1, done1, t1) = w[1];
            (!done0 && (done1 || (e1 == e0 && s1 == s0 + 1))).then_some(t1 - t0)
        })
        .collect()
}

/// Shares of `whole` taken by each named part, plus the unattributed
/// remainder `1 − Σ shares` (negative when the parts overlap or
/// over-count). A zero `whole` attributes nothing.
pub fn attribute(whole: f64, parts: &[(&'static str, f64)]) -> (Vec<(&'static str, f64)>, f64) {
    if whole <= 0.0 {
        return (parts.iter().map(|&(n, _)| (n, 0.0)).collect(), 0.0);
    }
    let shares: Vec<(&'static str, f64)> = parts.iter().map(|&(n, v)| (n, v / whole)).collect();
    let attributed: f64 = shares.iter().map(|&(_, s)| s).sum();
    (shares, 1.0 - attributed)
}

/// Operations attempted and failed. Every correctness gate is one
/// attempted operation; a gate that does not hold is also a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
}

impl Tally {
    /// Count one gated operation; returns `pass` so callers can log.
    pub fn check(&mut self, pass: bool) -> bool {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
        }
        pass
    }

    /// Count `n` operations of which `bad` failed (capped at `n`).
    pub fn batch(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad.min(n);
    }

    /// Whether at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 990), 99.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_per_mille(10), None);
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        // The percentile reported really leaves ten samples beyond it.
        for n in [20, 57, 100, 450, 1000, 12_345] {
            let p = tail_per_mille(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn under_sampled_tails_are_not_reported() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&xs, 900).is_nan());
        assert_eq!(tail(&xs, 500), 49.0);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs, 900), 89.0);
    }

    #[test]
    fn samples_grow_outside_the_heap_figures() {
        let before = alloc::peak_bytes();
        let mut s = Samples::default();
        for i in 0..4_000_000 {
            s.push(f64::from(i));
        }
        assert_eq!(s.as_slice().len(), 4_000_000);
        assert_eq!(median(s.as_slice()), 1_999_999.0);
        drop(s);
        // Other tests allocate concurrently, so only a loose bound holds:
        // the 32 MB of samples (64 MB while the sort copies them) never
        // showed up in the peak.
        assert!(alloc::peak_bytes() < before + 16_000_000);
    }

    #[test]
    fn work_counting() {
        assert_eq!(edp_slots(300, 3, 40), 36_000);
        assert_eq!(edp_slots(3000, 2, 40), 240_000);
        assert_eq!(round_points(16, 256), 272);
        assert_eq!(round_points(0, 0), 0);
    }

    #[test]
    fn slot_walls_skip_epoch_boundaries() {
        let marks = [
            (0, 0, false, 0.0),
            (0, 1, false, 1.0),
            (0, 2, false, 3.0),
            // Epoch 1 starts after re-association and a solve.
            (1, 0, false, 10.0),
            (1, 1, false, 10.5),
            (1, 2, false, 11.5),
            (2, 0, true, 13.0),
        ];
        assert_eq!(slot_walls(&marks), vec![1.0, 2.0, 0.5, 1.0, 1.5]);
        assert!(slot_walls(&marks[..1]).is_empty());
        // Six slots run, one interval is lost at the epoch boundary.
        assert_eq!(slot_walls(&marks).len(), 2 * 3 - 1);
    }

    #[test]
    fn shares_and_remainder() {
        let (shares, rest) = attribute(10.0, &[("a", 5.0), ("b", 2.5)]);
        assert_eq!(shares, vec![("a", 0.5), ("b", 0.25)]);
        assert_eq!(rest, 0.25);
        let (_, over) = attribute(1.0, &[("a", 0.75), ("b", 0.5)]);
        assert_eq!(over, -0.25);
        let (shares, rest) = attribute(0.0, &[("a", 1.0)]);
        assert_eq!(shares, vec![("a", 0.0)]);
        assert_eq!(rest, 0.0);
    }

    #[test]
    fn failed_never_exceeds_attempted() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.batch(10, 0);
        assert!(t.check(true));
        assert!(t.correct());
        assert!(!t.check(false));
        t.batch(3, 7);
        assert_eq!(
            t,
            Tally {
                attempted: 15,
                failed: 4
            }
        );
        assert!(!t.correct());
    }
}
