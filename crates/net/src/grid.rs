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
//!
//! Beside the cells sits a coarsening **moment pyramid**: its first level
//! merges 2×2 grid cells, each further level merges 2×2 nodes of the one
//! below, and the top level is a single node. Every node stores its point
//! count, centroid, second central moments and tight bounding box, so
//! [`SpatialGrid::far_field`] can sum a radial kernel over a far-away
//! node from its moments instead of point by point.

use crate::geometry::Point;

/// Opening criterion of the far-field traversal: a node is summed from
/// its moments once its side is below `FAR_FIELD_THETA` times the
/// distance to its nearest point. At `0.25` with the quadrupole term the
/// worst relative error of a requester's path-loss tail stays below
/// 1.5·10⁻³ on uniform, clustered, collinear and coincident placements;
/// `0.5` let it reach 9·10⁻³.
const FAR_FIELD_THETA: f64 = 0.25;

/// Moments of the points under one pyramid node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Moments {
    /// Number of points under the node.
    pub count: u32,
    /// Centroid of those points.
    pub centroid: Point,
    /// Second central moments `S = Σ uuᵀ` over the offsets `u` of the
    /// points from the centroid, as `[Sxx, Sxy, Syy]`.
    pub second: [f64; 3],
}

/// One pyramid node: its moments plus the tight bounding box of its
/// points (empty nodes have `count == 0` and a meaningless box).
#[derive(Debug, Clone, Copy)]
struct Node {
    moments: Moments,
    lo: Point,
    hi: Point,
}

impl Node {
    const EMPTY: Node = Node {
        moments: Moments {
            count: 0,
            centroid: Point { x: 0.0, y: 0.0 },
            second: [0.0; 3],
        },
        lo: Point { x: 0.0, y: 0.0 },
        hi: Point { x: 0.0, y: 0.0 },
    };

    /// The node of a single point.
    fn point(q: Point) -> Node {
        Node {
            moments: Moments {
                count: 1,
                centroid: q,
                second: [0.0; 3],
            },
            lo: q,
            hi: q,
        }
    }

    /// Distance from `p` to the nearest point of the bounding box. The
    /// box edges are point coordinates and every floating-point step is
    /// monotone, so this never exceeds `p.distance(q)` as computed for
    /// any point `q` under the node.
    fn nearest(&self, p: &Point) -> f64 {
        let dx = (self.lo.x - p.x).max(p.x - self.hi.x).max(0.0);
        let dy = (self.lo.y - p.y).max(p.y - self.hi.y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Longer side of the bounding box.
    fn side(&self) -> f64 {
        (self.hi.x - self.lo.x).max(self.hi.y - self.lo.y)
    }

    /// Merge nodes by the parallel-axis theorem. `parts` yields the
    /// nodes afresh on each call (two passes: the second moments are
    /// taken about the merged centroid), so merging allocates nothing.
    fn merge<I: Iterator<Item = Node>>(parts: impl Fn() -> I) -> Node {
        let parts = || parts().filter(|n| n.moments.count > 0);
        let count: u32 = parts().map(|n| n.moments.count).sum();
        if count == 0 {
            return Node::EMPTY;
        }
        let (mut sx, mut sy) = (0.0, 0.0);
        let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for n in parts() {
            let w = f64::from(n.moments.count);
            sx += w * n.moments.centroid.x;
            sy += w * n.moments.centroid.y;
            lo = Point::new(lo.x.min(n.lo.x), lo.y.min(n.lo.y));
            hi = Point::new(hi.x.max(n.hi.x), hi.y.max(n.hi.y));
        }
        let centroid = Point::new(sx / f64::from(count), sy / f64::from(count));
        let mut second = [0.0; 3];
        for n in parts() {
            let w = f64::from(n.moments.count);
            let ux = n.moments.centroid.x - centroid.x;
            let uy = n.moments.centroid.y - centroid.y;
            second[0] += n.moments.second[0] + w * ux * ux;
            second[1] += n.moments.second[1] + w * ux * uy;
            second[2] += n.moments.second[2] + w * uy * uy;
        }
        Node {
            moments: Moments {
                count,
                centroid,
                second,
            },
            lo,
            hi,
        }
    }
}

/// One pyramid level: an `nx × ny` array of nodes, row-major.
#[derive(Debug, Clone)]
struct Level {
    nx: usize,
    ny: usize,
    nodes: Vec<Node>,
}

/// The in-range coordinates `(cx, cy)` of the 2×2 block of an `nx × ny`
/// array under coarse coordinates `(x, y)`, row by row.
fn block(x: usize, y: usize, nx: usize, ny: usize) -> impl Iterator<Item = (usize, usize)> {
    (2 * y..(2 * y + 2).min(ny))
        .flat_map(move |cy| (2 * x..(2 * x + 2).min(nx)).map(move |cx| (cx, cy)))
}

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
    /// The moment pyramid: `pyramid[0]` merges 2×2 cells, each later
    /// level merges 2×2 nodes of the one before, the last is `1 × 1`.
    pyramid: Vec<Level>,
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
        let pyramid = build_pyramid(points, &cells, nx, ny);
        Self {
            points: points.to_vec(),
            origin: min,
            cell,
            nx,
            ny,
            cells,
            pyramid,
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

    /// Sum a radial kernel over every point strictly after `after` in
    /// `(distance from p, index)` order — the order [`Self::k_nearest`]
    /// sorts by, so passing the last of the k nearest sums exactly the
    /// points it did not return.
    ///
    /// One top-down pyramid traversal. A node is summed from its moments
    /// by `cluster(moments)` when its nearest point lies beyond both
    /// `after.0` and `floor` and its side is below [`FAR_FIELD_THETA`]
    /// times that distance; every point under it is then strictly after
    /// `after`. Otherwise the node is descended, and the grid cells under
    /// a first-level node are summed point by point with `exact(distance)`.
    /// The traversal order is fixed, so the result is a pure function of
    /// the arguments.
    pub(crate) fn far_field<E, C>(
        &self,
        p: &Point,
        after: (f64, usize),
        floor: f64,
        exact: E,
        cluster: C,
    ) -> f64
    where
        E: Fn(f64) -> f64,
        C: Fn(&Moments) -> f64,
    {
        let top = self.pyramid.len() - 1;
        let ctx = FarField {
            p,
            after,
            floor,
            exact,
            cluster,
        };
        self.far_field_node(&ctx, top, 0, 0)
    }

    fn far_field_node<E, C>(
        &self,
        ctx: &FarField<'_, E, C>,
        level: usize,
        x: usize,
        y: usize,
    ) -> f64
    where
        E: Fn(f64) -> f64,
        C: Fn(&Moments) -> f64,
    {
        let lv = &self.pyramid[level];
        let node = &lv.nodes[y * lv.nx + x];
        if node.moments.count == 0 {
            return 0.0;
        }
        let near = node.nearest(ctx.p);
        if near > ctx.after.0 && near > ctx.floor && node.side() < FAR_FIELD_THETA * near {
            return (ctx.cluster)(&node.moments);
        }
        let mut acc = 0.0;
        if level == 0 {
            for (cx, cy) in block(x, y, self.nx, self.ny) {
                for &idx in &self.cells[cy * self.nx + cx] {
                    let d = ctx.p.distance(&self.points[idx as usize]);
                    if d > ctx.after.0 || (d == ctx.after.0 && idx as usize > ctx.after.1) {
                        acc += (ctx.exact)(d);
                    }
                }
            }
        } else {
            let below = &self.pyramid[level - 1];
            for (cx, cy) in block(x, y, below.nx, below.ny) {
                acc += self.far_field_node(ctx, level - 1, cx, cy);
            }
        }
        acc
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

/// The arguments of one [`SpatialGrid::far_field`] traversal.
struct FarField<'a, E, C> {
    p: &'a Point,
    after: (f64, usize),
    floor: f64,
    exact: E,
    cluster: C,
}

/// Build the moment pyramid over an `nx × ny` cell grid: the first level
/// from the points of each 2×2 block of cells, every later level by
/// merging 2×2 nodes, until a single node is left.
fn build_pyramid(points: &[Point], cells: &[Vec<u32>], nx: usize, ny: usize) -> Vec<Level> {
    let (bx, by) = (nx.div_ceil(2), ny.div_ceil(2));
    let mut nodes = Vec::with_capacity(bx * by);
    for y in 0..by {
        for x in 0..bx {
            nodes.push(Node::merge(|| {
                block(x, y, nx, ny)
                    .flat_map(|(cx, cy)| &cells[cy * nx + cx])
                    .map(|&i| Node::point(points[i as usize]))
            }));
        }
    }
    let mut pyramid = vec![Level {
        nx: bx,
        ny: by,
        nodes,
    }];
    while let Some(below) = pyramid.last().filter(|l| l.nx > 1 || l.ny > 1) {
        let (ux, uy) = (below.nx.div_ceil(2), below.ny.div_ceil(2));
        let mut nodes = Vec::with_capacity(ux * uy);
        for y in 0..uy {
            for x in 0..ux {
                nodes.push(Node::merge(|| {
                    block(x, y, below.nx, below.ny).map(|(cx, cy)| below.nodes[cy * below.nx + cx])
                }));
            }
        }
        pyramid.push(Level {
            nx: ux,
            ny: uy,
            nodes,
        });
    }
    pyramid
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
    fn pyramid_top_holds_the_moments_of_every_point() {
        let mut rng = seeded_rng(45);
        for n in [1usize, 7, 100, 2000] {
            let points: Vec<Point> = (0..n).map(|_| uniform_in_disc(500.0, &mut rng)).collect();
            let grid = SpatialGrid::build(&points);
            let top = grid.pyramid.last().expect("non-empty pyramid");
            assert_eq!((top.nx, top.ny), (1, 1));
            let m = top.nodes[0].moments;
            assert_eq!(m.count as usize, n);
            let cx = points.iter().map(|p| p.x).sum::<f64>() / n as f64;
            let cy = points.iter().map(|p| p.y).sum::<f64>() / n as f64;
            let direct = points.iter().fold([0.0; 3], |s, p| {
                let (ux, uy) = (p.x - cx, p.y - cy);
                [s[0] + ux * ux, s[1] + ux * uy, s[2] + uy * uy]
            });
            assert!((m.centroid.x - cx).abs() < 1e-9 && (m.centroid.y - cy).abs() < 1e-9);
            let scale = direct[0] + direct[2] + 1.0;
            for (got, want) in m.second.iter().zip(direct) {
                assert!(
                    (got - want).abs() < 1e-9 * scale,
                    "n = {n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn far_field_covers_exactly_the_points_after_the_cutoff() {
        // Counting kernels: every point contributes 1, every aggregated
        // node its count, so the far field must count exactly the points
        // after the cutoff in `(distance, index)` order — also when
        // coincident points tie with the cutoff.
        let mut rng = seeded_rng(46);
        let sites: Vec<Point> = (0..300).map(|_| uniform_in_disc(500.0, &mut rng)).collect();
        let points: Vec<Point> = sites.iter().flat_map(|&s| [s, s]).collect();
        let grid = SpatialGrid::build(&points);
        for _ in 0..100 {
            let q = uniform_in_disc(800.0, &mut rng);
            for k in [1usize, 2, 33, 599] {
                let near = grid.k_nearest(&q, k);
                let (last, d) = near[k - 1];
                let counted = grid.far_field(&q, (d, last), 1.0, |_| 1.0, |m| f64::from(m.count));
                assert_eq!(counted as usize, points.len() - k, "k = {k}");
            }
        }
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
