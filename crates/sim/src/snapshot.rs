//! Slot-boundary state snapshots and the engine control hook.
//!
//! The observer/control plane (`mfgcp-ctl`) attaches to a running
//! [`Simulation`](crate::Simulation) through the [`EngineControl`] trait:
//! at every slot boundary the engine hands the controller a fresh
//! [`SimSnapshot`] of the population state *as of the end of the previous
//! slot*, and the controller decides when the engine may proceed (pause /
//! step / resume gating). The observation contract is one-directional —
//! the controller observes state and gates *when* the next slot runs,
//! never *what* it computes — so an observed, paused, stepped, or forked
//! run stays bit-identical to a free run.
//!
//! Online repricing is the single sanctioned exception: a controller may
//! hand the engine a freshly solved [`PreparedEquilibrium`] through
//! [`EngineControl::take_prepared_equilibrium`], and the engine
//! hot-swaps it into the policy *between* slots (audited first,
//! generation-counted via the `sim.reprice.swap` event). The swap is an
//! explicit, logged divergence point; everything before it is still
//! bit-identical to a free run, and everything after is bit-identical to
//! a run that installed the same equilibrium at the same slot.
//!
//! Snapshot construction reads engine state only (occupancy column,
//! previous slot's Eq. (5) pricer, audit counters, cached shard gauges)
//! and allocates a handful of small vectors; with no controller attached
//! the engine skips it entirely.

use mfgcp_check::AuditStatus;
use mfgcp_core::{ContentContext, Equilibrium};
use mfgcp_net::ShardStats;

use crate::metrics::SlotMetrics;

/// Bin count used for the occupancy and price histograms.
pub const SNAPSHOT_BINS: usize = 16;

/// A fixed-width histogram over `[lo, hi]` with [`SNAPSHOT_BINS`] bins
/// (degenerate ranges collapse every sample into bin 0).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower edge of the first bin (the sample minimum).
    pub lo: f64,
    /// Upper edge of the last bin (the sample maximum).
    pub hi: f64,
    /// Per-bin sample counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Bin `values` into [`SNAPSHOT_BINS`] equal-width bins spanning the
    /// sample range. Returns `None` when `values` is empty or contains a
    /// non-finite sample (a snapshot must never carry NaN edges).
    pub fn from_values(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut counts = vec![0u64; SNAPSHOT_BINS];
        let width = (hi - lo) / SNAPSHOT_BINS as f64;
        for &v in values {
            let bin = if width > 0.0 {
                (((v - lo) / width) as usize).min(SNAPSHOT_BINS - 1)
            } else {
                0
            };
            counts[bin] += 1;
        }
        Some(Self { lo, hi, counts })
    }
}

/// A point-in-time view of a running simulation, published at every slot
/// boundary (and once more with [`finished`](Self::finished) set after
/// the final slot). All state is *as of the end of the previous slot*;
/// `global_slot` counts completed slots, i.e. it is the index of the
/// next slot to run.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    /// Scheme name (from the policy).
    pub scheme: String,
    /// Epoch of the next slot to run (equals `epochs` once finished).
    pub epoch: usize,
    /// Slot-within-epoch of the next slot to run.
    pub slot: usize,
    /// Completed slots so far = index of the next slot to run.
    pub global_slot: u64,
    /// Total slots the run will execute (`epochs * slots_per_epoch`).
    pub total_slots: u64,
    /// Simulated time of the next slot's start.
    pub t: f64,
    /// True only for the final publication after the last slot.
    pub finished: bool,
    /// Population size `M`.
    pub num_edps: usize,
    /// Requester population `J`.
    pub num_requesters: usize,
    /// Catalog size `K`.
    pub num_contents: usize,
    /// Per-EDP remaining space for content 0 (the tracked content).
    pub occupancy: Vec<f64>,
    /// Histogram of [`occupancy`](Self::occupancy).
    pub occupancy_hist: Option<Histogram>,
    /// The current epoch's per-content workload contexts — the live
    /// demand the epoch's equilibria were solved for (empty before the
    /// first epoch starts).
    pub contexts: Vec<ContentContext>,
    /// Per-content sizes `Q_k`.
    pub q_sizes: Vec<f64>,
    /// Histogram of the Eq. (5) per-EDP prices for content 0 from the
    /// previous slot's cleared market (`None` before the first slot).
    pub price_hist: Option<Histogram>,
    /// The previous slot's population aggregates (`None` before the
    /// first slot).
    pub last_slot: Option<SlotMetrics>,
    /// Cumulative conservation-audit counters (`None` when auditing is
    /// off).
    pub audit: Option<AuditStatus>,
    /// Channel shard gauges sampled at the current epoch's start
    /// (`None` when no controller was attached to sample them).
    pub net: Option<ShardStats>,
}

impl SimSnapshot {
    /// Fraction of the run completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total_slots == 0 {
            1.0
        } else {
            self.global_slot as f64 / self.total_slots as f64
        }
    }
}

/// An equilibrium solved outside the engine (typically by the control
/// plane's `--reprice` verb, warm-started from the live density) waiting
/// to be hot-swapped into the running policy at the next slot boundary.
#[derive(Debug)]
pub struct PreparedEquilibrium {
    /// The content whose equilibrium is being replaced.
    pub content: usize,
    /// The replacement equilibrium (audited by the engine before the
    /// swap when auditing is on).
    pub equilibrium: Equilibrium,
}

/// The engine-side control hook. The simulation calls
/// [`at_slot_boundary`](Self::at_slot_boundary) before every slot (and
/// once more with `finished = true` after the last); the implementation
/// may block to pause the run. Blocking gates *when* the next slot runs;
/// the one sanctioned mutation channel is
/// [`take_prepared_equilibrium`](Self::take_prepared_equilibrium), whose
/// swaps the engine audits, installs between slots, and logs as
/// `sim.reprice.swap` events.
pub trait EngineControl: Send + Sync {
    /// Called with the freshly built snapshot before each slot executes.
    /// Blocking here pauses the engine between slots.
    fn at_slot_boundary(&self, snapshot: SimSnapshot);

    /// Hand over a pending repriced equilibrium, if one is ready. The
    /// engine polls this right after
    /// [`at_slot_boundary`](Self::at_slot_boundary) returns (i.e.
    /// after any pause/step gating), so a client can pause, trigger a
    /// reprice, and resume knowing the swap lands before the next slot.
    /// Default: never reprices.
    fn take_prepared_equilibrium(&self) -> Option<PreparedEquilibrium> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_span_the_range() {
        let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let h = Histogram::from_values(&values).unwrap();
        assert_eq!(h.lo, 0.0);
        assert_eq!(h.hi, 63.0);
        assert_eq!(h.counts.len(), SNAPSHOT_BINS);
        assert_eq!(h.counts.iter().sum::<u64>(), 64);
        // Uniform samples spread evenly: 4 per bin.
        assert!(h.counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn histogram_handles_degenerate_and_empty_input() {
        assert!(Histogram::from_values(&[]).is_none());
        assert!(Histogram::from_values(&[1.0, f64::NAN]).is_none());
        let h = Histogram::from_values(&[2.5, 2.5, 2.5]).unwrap();
        assert_eq!(h.lo, h.hi);
        assert_eq!(h.counts[0], 3);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn progress_is_a_fraction() {
        let snap = SimSnapshot {
            scheme: "RR".into(),
            epoch: 0,
            slot: 5,
            global_slot: 5,
            total_slots: 20,
            t: 0.5,
            finished: false,
            num_edps: 4,
            num_requesters: 16,
            num_contents: 2,
            occupancy: vec![0.0; 4],
            occupancy_hist: None,
            contexts: Vec::new(),
            q_sizes: vec![1.0; 2],
            price_hist: None,
            last_slot: None,
            audit: None,
            net: None,
        };
        assert!((snap.progress() - 0.25).abs() < 1e-12);
    }
}
