//! Uniform spatial hash grid over the deployment disc.
//!
//! Buckets the (static) EDP positions into a `g × g` grid with
//! `g ≈ ⌈√M⌉`, so each cell holds O(1) EDPs in expectation under the
//! uniform placement of §II. Nearest-EDP and k-nearest queries walk
//! expanding Chebyshev rings of cells around the query point and stop as
//! soon as no unexplored cell can still contain a closer candidate —
//! O(1) expected work per query, O(M) only in degenerate placements.
//!
//! Queries are **exact**, not approximate: the ring lower bound is
//! conservative and the final comparison uses the same `sqrt`'d Euclidean
//! distance with the same lexicographic `(distance, index)` tie-break as
//! the dense `min_by` scan it replaces, so associations are bit-identical
//! to the pre-grid implementation.

use crate::geometry::Point;

/// Spatial hash over a fixed set of points (the EDP placement).
#[derive(Debug, Clone)]
pub(crate) struct SpatialGrid {
    /// The indexed points, in their original order.
    points: Vec<Point>,
    /// Lower-left corner of the bounding box.
    origin: Point,
    /// Side length of one square cell (meters).
    cell: f64,
    /// Grid dimensions (columns, rows).
    nx: usize,
    ny: usize,
    /// `cells[cy * nx + cx]` = indices of the points in that cell.
    cells: Vec<Vec<u32>>,
}

impl SpatialGrid {
    /// Build a grid over `points` with roughly one point per cell.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or any coordinate is non-finite.
    pub(crate) fn build(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "need at least one point");
        let mut min = points[0];
        let mut max = points[0];
        for p in points {
            assert!(
                p.x.is_finite() && p.y.is_finite(),
                "grid points must be finite"
            );
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        let side = (points.len() as f64).sqrt().ceil() as usize;
        let extent = (max.x - min.x).max(max.y - min.y);
        // Degenerate extents (a single point, collinear clusters) fall back
        // to one cell; the ring search then terminates on the first ring.
        let cell = if extent > 0.0 {
            extent / side as f64
        } else {
            1.0
        };
        let nx = (((max.x - min.x) / cell).ceil() as usize).max(1);
        let ny = (((max.y - min.y) / cell).ceil() as usize).max(1);
        let mut cells = vec![Vec::new(); nx * ny];
        for (i, p) in points.iter().enumerate() {
            let (cx, cy) = cell_of(p, &min, cell, nx, ny);
            cells[cy * nx + cx].push(i as u32);
        }
        Self {
            points: points.to_vec(),
            origin: min,
            cell,
            nx,
            ny,
            cells,
        }
    }

    /// Number of indexed points.
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Index of the point nearest to `p`, breaking distance ties toward
    /// the smaller index (exactly the first-minimum semantics of the
    /// dense `min_by` scan).
    pub(crate) fn nearest(&self, p: &Point) -> usize {
        let (cx, cy) = cell_of(p, &self.origin, self.cell, self.nx, self.ny);
        let mut best: Option<(f64, u32)> = None;
        let max_rho = self.nx.max(self.ny);
        for rho in 0..=max_rho {
            self.for_ring(cx, cy, rho, |idx, q| {
                let d = p.distance(q);
                match best {
                    None => best = Some((d, idx)),
                    Some((bd, bi)) => {
                        if d < bd || (d == bd && idx < bi) {
                            best = Some((d, idx));
                        }
                    }
                }
            });
            // Rings 0..=rho are now explored. Any point in a cell at
            // Chebyshev distance >= rho + 1 from the query's (clamped)
            // cell is at least rho * cell away: the query point projects
            // into cell (cx, cy), and rho whole cell widths separate the
            // two cells' interiors. Stop once the incumbent is strictly
            // closer than that bound — a tie at exactly the bound could
            // still be claimed by a smaller index in an unexplored ring,
            // so `<` (not `<=`) is load-bearing.
            if let Some((d, _)) = best {
                if d < rho as f64 * self.cell {
                    break;
                }
            }
        }
        best.expect("non-empty grid").1 as usize
    }

    /// The `k` points nearest to `p`, sorted by `(distance, index)`.
    /// Returns all points (sorted) when `k >= len()`.
    pub(crate) fn k_nearest(&self, p: &Point, k: usize) -> Vec<(usize, f64)> {
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        let (cx, cy) = cell_of(p, &self.origin, self.cell, self.nx, self.ny);
        let mut cand: Vec<(f64, u32)> = Vec::with_capacity(k * 4);
        let max_rho = self.nx.max(self.ny);
        for rho in 0..=max_rho {
            self.for_ring(cx, cy, rho, |idx, q| cand.push((p.distance(q), idx)));
            if cand.len() >= k {
                cand.sort_unstable_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .expect("finite distances")
                        .then(a.1.cmp(&b.1))
                });
                // Same conservative ring bound as `nearest`, applied to
                // the current k-th best distance over the explored rings
                // 0..=rho.
                if cand[k - 1].0 < rho as f64 * self.cell {
                    break;
                }
            }
        }
        cand.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        cand.truncate(k);
        cand.into_iter().map(|(d, i)| (i as usize, d)).collect()
    }

    /// Visit every point in the cells at Chebyshev distance exactly `rho`
    /// from cell `(cx, cy)`.
    fn for_ring<F: FnMut(u32, &Point)>(&self, cx: usize, cy: usize, rho: usize, mut f: F) {
        let (cx, cy, rho) = (cx as isize, cy as isize, rho as isize);
        let visit = |x: isize, y: isize, f: &mut F| {
            if x < 0 || y < 0 || x >= self.nx as isize || y >= self.ny as isize {
                return;
            }
            for &idx in &self.cells[y as usize * self.nx + x as usize] {
                f(idx, &self.points[idx as usize]);
            }
        };
        if rho == 0 {
            visit(cx, cy, &mut f);
            return;
        }
        for x in (cx - rho)..=(cx + rho) {
            visit(x, cy - rho, &mut f);
            visit(x, cy + rho, &mut f);
        }
        for y in (cy - rho + 1)..=(cy + rho - 1) {
            visit(cx - rho, y, &mut f);
            visit(cx + rho, y, &mut f);
        }
    }
}

/// Cell coordinates of `p`, clamped into the grid (query points may lie
/// outside the bounding box of the indexed set).
fn cell_of(p: &Point, origin: &Point, cell: f64, nx: usize, ny: usize) -> (usize, usize) {
    let cx = ((p.x - origin.x) / cell).floor();
    let cy = ((p.y - origin.y) / cell).floor();
    let clamp = |v: f64, hi: usize| {
        if v.is_nan() || v < 0.0 {
            0
        } else {
            (v as usize).min(hi - 1)
        }
    };
    (clamp(cx, nx), clamp(cy, ny))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::uniform_in_disc;
    use mfgcp_sde::seeded_rng;

    /// The dense reference: first minimum by `(distance, index)`.
    fn dense_nearest(points: &[Point], p: &Point) -> usize {
        points
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.distance(p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .0
    }

    fn dense_k_nearest(points: &[Point], p: &Point, k: usize) -> Vec<usize> {
        let mut all: Vec<(f64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, e)| (e.distance(p), i))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        all.truncate(k);
        all.into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn nearest_matches_dense_scan_on_random_placements() {
        let mut rng = seeded_rng(41);
        for n in [1usize, 2, 3, 10, 100, 500] {
            let points: Vec<Point> = (0..n).map(|_| uniform_in_disc(500.0, &mut rng)).collect();
            let grid = SpatialGrid::build(&points);
            for _ in 0..200 {
                // Queries both inside the disc and well outside the bbox.
                let q = uniform_in_disc(900.0, &mut rng);
                assert_eq!(grid.nearest(&q), dense_nearest(&points, &q), "n = {n}");
            }
        }
    }

    #[test]
    fn nearest_breaks_ties_toward_the_smaller_index() {
        // Two coincident points and a duplicate farther pair: the dense
        // min_by keeps the first minimum, so index 1 must win over 2.
        let points = vec![
            Point::new(10.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
        ];
        let grid = SpatialGrid::build(&points);
        assert_eq!(grid.nearest(&Point::new(0.1, 0.0)), 1);
    }

    #[test]
    fn k_nearest_matches_dense_sort() {
        let mut rng = seeded_rng(42);
        for n in [1usize, 5, 64, 333] {
            let points: Vec<Point> = (0..n).map(|_| uniform_in_disc(500.0, &mut rng)).collect();
            let grid = SpatialGrid::build(&points);
            for k in [1usize, 4, 32, n, n + 10] {
                let q = uniform_in_disc(700.0, &mut rng);
                let got: Vec<usize> = grid.k_nearest(&q, k).into_iter().map(|(i, _)| i).collect();
                assert_eq!(got, dense_k_nearest(&points, &q, k), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn k_nearest_distances_are_sorted_and_exact() {
        let mut rng = seeded_rng(43);
        let points: Vec<Point> = (0..100).map(|_| uniform_in_disc(500.0, &mut rng)).collect();
        let grid = SpatialGrid::build(&points);
        let q = Point::new(3.0, -7.0);
        let got = grid.k_nearest(&q, 10);
        assert_eq!(got.len(), 10);
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for (i, d) in got {
            assert_eq!(d, points[i].distance(&q));
        }
    }

    #[test]
    fn degenerate_single_point_grid_works() {
        let points = vec![Point::new(4.0, 4.0)];
        let grid = SpatialGrid::build(&points);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.nearest(&Point::new(-100.0, 250.0)), 0);
        assert_eq!(grid.k_nearest(&Point::default(), 5).len(), 1);
    }

    #[test]
    fn collinear_points_are_handled() {
        // Zero vertical extent: the grid degenerates to a single row.
        let points: Vec<Point> = (0..20).map(|i| Point::new(i as f64, 2.0)).collect();
        let grid = SpatialGrid::build(&points);
        let mut rng = seeded_rng(44);
        for _ in 0..50 {
            let q = uniform_in_disc(30.0, &mut rng);
            assert_eq!(grid.nearest(&q), dense_nearest(&points, &q));
        }
    }
}
