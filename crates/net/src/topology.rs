//! EDP/requester placement and nearest-EDP association.
//!
//! §II of the paper: EDPs and requesters are "randomly distributed within a
//! certain range", and "each requester is associated with a default serving
//! EDP that is nearest geographically"; `J_i(t)` is the set of requesters
//! served by EDP `i`.
//!
//! Association queries go through a [`SpatialGrid`] over the (static) EDP
//! placement, so building a topology and re-associating after mobility are
//! O(J) expected instead of O(M·J). The grid is exact: it reproduces the
//! dense scan's `(distance, index)` first-minimum semantics bit for bit.

use std::sync::Arc;

use mfgcp_obs::RecorderHandle;
use rand::Rng;

use crate::config::NetworkConfig;
use crate::geometry::{uniform_in_disc, Point};
use crate::grid::SpatialGrid;

/// Static node placement: `M` EDPs and `J` requesters in a disc, plus the
/// nearest-EDP association map.
#[derive(Debug, Clone)]
pub struct Topology {
    edps: Vec<Point>,
    requesters: Vec<Point>,
    /// `serving_edp[j]` = index of the EDP serving requester `j`.
    serving_edp: Vec<usize>,
    /// `served[i]` = indices of requesters associated with EDP `i`.
    served: Vec<Vec<usize>>,
    /// Spatial hash over the EDP positions; shared because EDPs never move.
    grid: Arc<SpatialGrid>,
    /// `anchor[j]` = the position at which requester `j`'s serving EDP was
    /// last established by a full nearest query.
    anchor: Vec<Point>,
    /// `margin[j]` = safe displacement radius around `anchor[j]`: while
    /// the requester stays strictly within it, the anchored nearest EDP is
    /// still strictly nearest (triangle inequality) and the grid query can
    /// be skipped. `∞` when a second-nearest EDP does not exist.
    margin: Vec<f64>,
    recorder: RecorderHandle,
}

/// Fraction of the exact triangle-inequality bound `(d₂ − d₁) / 2` kept
/// as the skip margin. After moving `δ < (d₂ − d₁)/2` from the anchor the
/// old nearest EDP is still *strictly* nearest (`d(r, s) ≤ d₁ + δ <
/// d₂ − δ ≤ d(r, e)` for every other EDP `e`), so the skip reproduces the
/// dense scan exactly and no tie-break can arise. Staying below `1/2`
/// leaves headroom for the rounding of the two distance evaluations.
const REASSOC_MARGIN_GUARD: f64 = 0.45;

impl Topology {
    /// Place `m` EDPs and `j` requesters uniformly in the configured disc
    /// and associate each requester with its nearest EDP.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn random<R: Rng + ?Sized>(m: usize, j: usize, cfg: &NetworkConfig, rng: &mut R) -> Self {
        assert!(m > 0, "need at least one EDP");
        let edps: Vec<Point> = (0..m)
            .map(|_| uniform_in_disc(cfg.area_radius, rng))
            .collect();
        let requesters: Vec<Point> = (0..j)
            .map(|_| uniform_in_disc(cfg.area_radius, rng))
            .collect();
        Self::with_positions(edps, requesters)
    }

    /// Build a topology from explicit positions (used by tests and the
    /// deterministic examples).
    ///
    /// # Panics
    ///
    /// Panics if `edps` is empty.
    pub fn with_positions(edps: Vec<Point>, requesters: Vec<Point>) -> Self {
        assert!(!edps.is_empty(), "need at least one EDP");
        let grid = Arc::new(SpatialGrid::build(&edps));
        let mut serving_edp = Vec::with_capacity(requesters.len());
        let mut served = vec![Vec::new(); edps.len()];
        let mut anchor = Vec::with_capacity(requesters.len());
        let mut margin = Vec::with_capacity(requesters.len());
        for (j, r) in requesters.iter().enumerate() {
            let (best, m) = anchored_nearest(&grid, r);
            serving_edp.push(best);
            served[best].push(j);
            anchor.push(*r);
            margin.push(m);
        }
        Self {
            edps,
            requesters,
            serving_edp,
            served,
            grid,
            anchor,
            margin,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attach a telemetry recorder: every
    /// [`Topology::update_requesters`] then emits a `net.reassociation`
    /// event counting how many requesters changed serving EDP. Telemetry
    /// reads state only — the association itself is unaffected.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Number of EDPs.
    pub fn num_edps(&self) -> usize {
        self.edps.len()
    }

    /// Number of requesters.
    pub fn num_requesters(&self) -> usize {
        self.requesters.len()
    }

    /// Position of EDP `i`.
    pub fn edp(&self, i: usize) -> Point {
        self.edps[i]
    }

    /// Position of requester `j`.
    pub fn requester(&self, j: usize) -> Point {
        self.requesters[j]
    }

    /// The EDP serving requester `j`.
    pub fn serving(&self, j: usize) -> usize {
        self.serving_edp[j]
    }

    /// The requesters served by EDP `i` (the paper's `J_i`).
    pub fn served_by(&self, i: usize) -> &[usize] {
        &self.served[i]
    }

    /// Distance between EDP `i` and requester `j`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.edps[i].distance(&self.requesters[j])
    }

    /// The spatial hash over the EDP placement (shared with the sharded
    /// channel state for interferer selection).
    pub(crate) fn grid(&self) -> &SpatialGrid {
        &self.grid
    }

    /// Replace the requester positions (mobility) and recompute the
    /// nearest-EDP association in place — O(J) expected via the spatial
    /// grid; the EDP placement, grid, and neighbor cache are untouched.
    ///
    /// Incremental: a requester whose displacement since its last full
    /// nearest query is strictly below its stored margin (a guarded
    /// `(d₂ − d₁)/2`, see `REASSOC_MARGIN_GUARD`) keeps its serving EDP
    /// without touching the grid — exact by the triangle inequality, so
    /// the resulting partition is identical to querying every requester.
    ///
    /// # Panics
    ///
    /// Panics if the number of positions changes.
    pub fn update_requesters(&mut self, positions: &[Point]) {
        assert_eq!(
            positions.len(),
            self.requesters.len(),
            "requester count must not change"
        );
        self.requesters.clear();
        self.requesters.extend_from_slice(positions);
        for list in &mut self.served {
            list.clear();
        }
        let mut moved = 0usize;
        for (j, r) in self.requesters.iter().enumerate() {
            let best = if r.distance(&self.anchor[j]) < self.margin[j] {
                self.serving_edp[j]
            } else {
                let (best, m) = anchored_nearest(&self.grid, r);
                self.anchor[j] = *r;
                self.margin[j] = m;
                best
            };
            if self.serving_edp[j] != best {
                moved += 1;
            }
            self.serving_edp[j] = best;
            self.served[best].push(j);
        }
        if self.recorder.enabled() {
            self.recorder.event(
                "net.reassociation",
                &[
                    ("moved", moved.into()),
                    ("requesters", self.serving_edp.len().into()),
                ],
            );
        }
    }
}

/// Full nearest query for `r` plus the skip margin for its new anchor:
/// the two nearest EDPs in `(distance, index)` order — the first matches
/// [`SpatialGrid::nearest`]'s first-minimum semantics exactly — and the
/// guarded half-gap between them (`∞` when the grid holds a single EDP,
/// where no handover is ever possible).
fn anchored_nearest(grid: &SpatialGrid, r: &Point) -> (usize, f64) {
    let nn = grid.k_nearest(r, 2);
    debug_assert_eq!(
        nn[0].0,
        grid.nearest(r),
        "k_nearest's head must match the single-nearest query"
    );
    let margin = if nn.len() > 1 {
        REASSOC_MARGIN_GUARD * (nn[1].1 - nn[0].1)
    } else {
        f64::INFINITY
    };
    (nn[0].0, margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_sde::seeded_rng;

    fn square_topology() -> Topology {
        // EDPs at the corners of a unit square; requesters near each corner.
        let edps = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let requesters = vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.1),
            Point::new(0.1, 0.9),
            Point::new(0.9, 0.9),
            Point::new(0.05, 0.0),
        ];
        Topology::with_positions(edps, requesters)
    }

    #[test]
    fn nearest_association() {
        let t = square_topology();
        assert_eq!(t.serving(0), 0);
        assert_eq!(t.serving(1), 1);
        assert_eq!(t.serving(2), 2);
        assert_eq!(t.serving(3), 3);
        assert_eq!(t.serving(4), 0);
        assert_eq!(t.served_by(0), &[0, 4]);
        assert_eq!(t.served_by(3), &[3]);
    }

    #[test]
    fn association_matches_the_dense_scan() {
        // The grid path must reproduce the historical O(M·J) min_by scan
        // bit for bit, including its first-minimum tie-break.
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(21);
        let t = Topology::random(137, 400, &cfg, &mut rng);
        for j in 0..t.num_requesters() {
            let r = t.requester(j);
            let dense = (0..t.num_edps())
                .map(|i| (i, t.edp(i).distance(&r)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty")
                .0;
            assert_eq!(t.serving(j), dense, "requester {j}");
        }
    }

    #[test]
    fn random_topology_respects_counts_and_partition() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(7);
        let t = Topology::random(10, 57, &cfg, &mut rng);
        assert_eq!(t.num_edps(), 10);
        assert_eq!(t.num_requesters(), 57);
        // Every requester appears in exactly one served list.
        let total: usize = (0..10).map(|i| t.served_by(i).len()).sum();
        assert_eq!(total, 57);
        for j in 0..57 {
            assert!(t.served_by(t.serving(j)).contains(&j));
        }
    }

    #[test]
    fn update_requesters_reassociates() {
        let mut t = square_topology();
        assert_eq!(t.serving(0), 0);
        // Move requester 0 next to EDP 3.
        let mut positions: Vec<Point> = (0..t.num_requesters()).map(|j| t.requester(j)).collect();
        positions[0] = Point::new(0.95, 0.95);
        t.update_requesters(&positions);
        assert_eq!(t.serving(0), 3);
        assert!(t.served_by(3).contains(&0));
        assert!(!t.served_by(0).contains(&0));
    }

    #[test]
    fn update_requesters_keeps_served_lists_in_requester_order() {
        let cfg = NetworkConfig::default();
        let mut rng = seeded_rng(22);
        let mut t = Topology::random(9, 80, &cfg, &mut rng);
        let moved: Vec<Point> = (0..80).map(|_| uniform_in_disc(500.0, &mut rng)).collect();
        t.update_requesters(&moved);
        let reference = Topology::with_positions((0..9).map(|i| t.edp(i)).collect(), moved);
        for i in 0..9 {
            assert_eq!(t.served_by(i), reference.served_by(i), "EDP {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one EDP")]
    fn empty_edps_rejected() {
        Topology::with_positions(vec![], vec![Point::default()]);
    }

    #[test]
    fn reassociation_event_counts_moved_requesters() {
        use mfgcp_obs::{MemorySink, Value};
        let mut t = square_topology();
        let sink = std::sync::Arc::new(MemorySink::new());
        t.set_recorder(RecorderHandle::new(sink.clone()));
        // Move requester 0 next to EDP 3; everyone else stays put.
        let mut positions: Vec<Point> = (0..t.num_requesters()).map(|j| t.requester(j)).collect();
        positions[0] = Point::new(0.95, 0.95);
        t.update_requesters(&positions);
        // A second update with the same positions moves nobody — and the
        // recorder must survive the update.
        t.update_requesters(&positions);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "net.reassociation");
        assert_eq!(events[0].field("moved"), Some(&Value::U64(1)));
        assert_eq!(events[0].field("requesters"), Some(&Value::U64(5)));
        assert_eq!(events[1].field("moved"), Some(&Value::U64(0)));
    }
}
