//! Uniform-grid spatial index over node positions.
//!
//! The wireless channel must answer one query per transmission: *which
//! nodes could possibly receive this frame above the interference
//! floor?* The naive answer scans all N nodes. [`UniformGrid`] buckets
//! nodes into square cells sized to the maximum reception range, so a
//! query visits only the cells whose squares intersect the reception
//! disc — O(k) in the local neighbourhood instead of O(N) in the
//! network.
//!
//! Guarantees the channel relies on:
//!
//! * **Superset**: [`UniformGrid::query_circle`] returns every node
//!   whose position lies within the query radius of the centre (it may
//!   also return nearby misses — callers re-check exactly, which they
//!   must do anyway to apply the propagation model).
//! * **Determinism**: results are sorted by node id, so event schedules
//!   derived from a query are independent of bucket iteration order and
//!   of the update history that produced the current bucket layout.
//!
//! Updates are incremental: [`UniformGrid::update`] moves one node
//! between buckets only when it crossed a cell boundary, so refreshing
//! positions under mobility costs a few integer operations per node and
//! allocates nothing in the steady state.
//!
//! # Cell stamps
//!
//! A caller may keep a query's result instead of asking again, and
//! needs to know when it went stale. Every change to the index ticks a
//! monotone clock ([`UniformGrid::clock`]) and stamps the cells it
//! touched with the new value: [`UniformGrid::update`] stamps the node's
//! old and new cell on *every* call, a move inside one cell included —
//! the query's distance pre-cull reads the indexed position, so that
//! move can change a result too — and [`UniformGrid::rebuild`] and
//! [`UniformGrid::retain_nodes`] stamp every cell.
//! [`UniformGrid::stamp_of`] is the latest stamp over the cells a query
//! with that centre and radius visits. A query reads nothing but those
//! cells' buckets and their nodes' indexed positions, so while
//! `stamp_of` is at most the clock read right after a query, the same
//! query returns the same nodes.

use std::ops::RangeInclusive;

use crate::geom::Point;

/// Sentinel cell id marking a node dropped from the index by
/// [`UniformGrid::retain_nodes`] — it sits in no bucket and never
/// appears in query results.
pub const UNTRACKED: u32 = u32::MAX;

/// A uniform bucket grid over a rectangular field.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    /// Cell edge length (m).
    cell: f64,
    /// Grid dimensions (cells).
    nx: usize,
    ny: usize,
    /// Per-cell node buckets (row-major, `cy * nx + cx`).
    buckets: Vec<Vec<u32>>,
    /// Current cell of every node (same indexing as `buckets`).
    node_cell: Vec<u32>,
    /// Tracked positions (authoritative copy for boundary checks).
    positions: Vec<Point>,
    /// Changes so far (module docs, "Cell stamps").
    clock: u64,
    /// Per cell, the clock of the last change that touched it.
    stamps: Vec<u64>,
}

impl UniformGrid {
    /// Build a grid over a `width`×`height` field with the given target
    /// cell size, holding `positions`. The cell size is clamped so the
    /// grid has at least one and at most 128×128 cells; positions
    /// outside the field are clamped onto the border cells, which only
    /// costs accuracy (bigger candidate sets), never correctness.
    pub fn new(width: f64, height: f64, cell: f64, positions: &[Point]) -> Self {
        assert!(width > 0.0 && height > 0.0, "degenerate field");
        assert!(cell > 0.0, "cell size must be positive");
        let nx = (width / cell).ceil().clamp(1.0, 128.0) as usize;
        let ny = (height / cell).ceil().clamp(1.0, 128.0) as usize;
        // Recompute the edge from the clamped dimensions so the grid
        // always covers the whole field.
        let cell = (width / nx as f64).max(height / ny as f64);
        let mut grid = UniformGrid {
            cell,
            nx,
            ny,
            buckets: vec![Vec::new(); nx * ny],
            node_cell: Vec::new(),
            positions: Vec::new(),
            clock: 0,
            stamps: vec![0; nx * ny],
        };
        grid.rebuild(positions);
        grid
    }

    /// Cell edge length (m).
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    #[inline]
    fn cell_of(&self, p: Point) -> u32 {
        let cx = ((p.x / self.cell).floor().max(0.0) as usize).min(self.nx - 1);
        let cy = ((p.y / self.cell).floor().max(0.0) as usize).min(self.ny - 1);
        (cy * self.nx + cx) as u32
    }

    /// The cell id currently holding `node` — a stable key for
    /// cell-keyed caches layered on top of the grid (ids are row-major
    /// and dense in `0..nx*ny`).
    #[inline]
    pub fn node_cell(&self, node: u32) -> u32 {
        self.node_cell[node as usize]
    }

    /// The position the index holds for `node` — what
    /// [`UniformGrid::query_circle`]'s distance pre-cull tests, as of the
    /// node's last [`UniformGrid::update`].
    #[inline]
    pub fn position(&self, node: u32) -> Point {
        self.positions[node as usize]
    }

    /// The index clock: the stamp of the latest change (module docs,
    /// "Cell stamps").
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The latest stamp over the cells
    /// [`UniformGrid::query_circle`]`(center, radius, ..)` visits: while
    /// it is at most [`UniformGrid::clock`] as read right after such a
    /// query, the query's result is unchanged.
    pub fn stamp_of(&self, center: Point, radius: f64) -> u64 {
        let (xs, ys) = self.cell_span(center, radius);
        ys.flat_map(|cy| self.stamps[cy * self.nx..][xs.clone()].iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Tick the clock and stamp every cell with it.
    fn stamp_all(&mut self) {
        self.clock += 1;
        self.stamps.fill(self.clock);
    }

    /// The column and row ranges of the cells intersecting the bounding
    /// box of the disc around `center`.
    #[inline]
    fn cell_span(
        &self,
        center: Point,
        radius: f64,
    ) -> (RangeInclusive<usize>, RangeInclusive<usize>) {
        let at = |v: f64, n: usize| ((v / self.cell).floor().max(0.0) as usize).min(n - 1);
        (
            at(center.x - radius, self.nx)..=at(center.x + radius, self.nx),
            at(center.y - radius, self.ny)..=at(center.y + radius, self.ny),
        )
    }

    /// Drop all state and re-bucket `positions` (reuses allocations).
    /// Stamps every cell.
    pub fn rebuild(&mut self, positions: &[Point]) {
        self.stamp_all();
        for b in &mut self.buckets {
            b.clear();
        }
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.node_cell.clear();
        for (i, &p) in positions.iter().enumerate() {
            let c = self.cell_of(p);
            self.node_cell.push(c);
            self.buckets[c as usize].push(i as u32);
        }
    }

    /// `true` while `node` still sits in a bucket (i.e. was not dropped
    /// by [`UniformGrid::retain_nodes`]).
    #[inline]
    pub fn is_tracked(&self, node: u32) -> bool {
        self.node_cell[node as usize] != UNTRACKED
    }

    /// Drop every node `keep` rejects from the buckets, marking its cell
    /// [`UNTRACKED`]. Queries then never return it and updates to it are
    /// forbidden. The owner-only region shards use this to keep only
    /// their owned nodes plus the boundary halo in the index — bucket
    /// memory (and query work) shrinks to the tracked population. Stamps
    /// every cell.
    pub fn retain_nodes(&mut self, keep: impl Fn(u32) -> bool) {
        self.stamp_all();
        for b in &mut self.buckets {
            b.retain(|&n| keep(n));
        }
        for (i, c) in self.node_cell.iter_mut().enumerate() {
            if !keep(i as u32) {
                *c = UNTRACKED;
            }
        }
    }

    /// Move `node` to `pos`, re-bucketing only on cell crossings. Stamps
    /// the node's old and new cell, even when they are one.
    pub fn update(&mut self, node: u32, pos: Point) {
        let i = node as usize;
        self.positions[i] = pos;
        let new_cell = self.cell_of(pos);
        let old_cell = self.node_cell[i];
        assert!(old_cell != UNTRACKED, "update of an untracked node");
        self.clock += 1;
        self.stamps[old_cell as usize] = self.clock;
        self.stamps[new_cell as usize] = self.clock;
        if new_cell == old_cell {
            return;
        }
        let old = &mut self.buckets[old_cell as usize];
        let at = old
            .iter()
            .position(|&n| n == node)
            .expect("node tracked in its recorded cell");
        old.swap_remove(at);
        self.buckets[new_cell as usize].push(node);
        self.node_cell[i] = new_cell;
    }

    /// Append to `out` every node whose position can lie within `radius`
    /// of `center` — a superset of the exact disc, limited to the cells
    /// intersecting its bounding box. `exclude` drops one node (typically
    /// the querying transmitter) during bucket iteration, so callers
    /// never pay a post-hoc search-and-remove over the result. `out` is
    /// sorted ascending before returning and is **not** cleared first.
    pub fn query_circle(
        &self,
        center: Point,
        radius: f64,
        exclude: Option<u32>,
        out: &mut Vec<u32>,
    ) {
        debug_assert!(radius >= 0.0);
        let (xs, ys) = self.cell_span(center, radius);
        let r_sq = radius * radius;
        let skip = exclude.unwrap_or(u32::MAX);
        for cy in ys {
            for cx in xs.clone() {
                for &n in &self.buckets[cy * self.nx + cx] {
                    // Exact distance pre-cull: cheap, and keeps candidate
                    // sets tight for the caller's per-node work.
                    if n != skip && self.positions[n as usize].distance_sq(center) <= r_sq {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(positions: &[Point], center: Point, radius: f64) -> Vec<u32> {
        (0..positions.len() as u32)
            .filter(|&i| positions[i as usize].distance_sq(center) <= radius * radius)
            .collect()
    }

    fn scatter(n: usize, w: f64, h: f64, seed: u64) -> Vec<Point> {
        // Cheap deterministic scatter (LCG) — no RNG dependency needed.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * w, next() * h)).collect()
    }

    #[test]
    fn query_matches_brute_force() {
        let pts = scatter(200, 1000.0, 1000.0, 7);
        let grid = UniformGrid::new(1000.0, 1000.0, 120.0, &pts);
        for (i, &c) in pts.iter().enumerate().step_by(17) {
            for radius in [0.0, 35.0, 120.0, 333.3, 1500.0] {
                let mut got = Vec::new();
                grid.query_circle(c, radius, None, &mut got);
                assert_eq!(got, brute(&pts, c, radius), "center {i} radius {radius}");
            }
        }
    }

    #[test]
    fn updates_track_movement() {
        let mut pts = scatter(50, 500.0, 500.0, 3);
        let mut grid = UniformGrid::new(500.0, 500.0, 60.0, &pts);
        // Move every node a few times, checking queries stay exact.
        let moves = scatter(50 * 3, 500.0, 500.0, 99);
        for (step, &m) in moves.iter().enumerate() {
            let node = step % 50;
            pts[node] = m;
            grid.update(node as u32, m);
            let mut got = Vec::new();
            grid.query_circle(m, 130.0, None, &mut got);
            assert_eq!(got, brute(&pts, m, 130.0), "after move {step}");
        }
    }

    #[test]
    fn out_of_field_positions_are_clamped_not_lost() {
        let pts = vec![
            Point::new(-50.0, -50.0),
            Point::new(2000.0, 2000.0),
            Point::new(500.0, 500.0),
        ];
        let grid = UniformGrid::new(1000.0, 1000.0, 100.0, &pts);
        let mut got = Vec::new();
        grid.query_circle(Point::new(500.0, 500.0), 5000.0, None, &mut got);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn tiny_cell_request_is_clamped() {
        let pts = scatter(20, 1000.0, 1000.0, 1);
        let grid = UniformGrid::new(1000.0, 1000.0, 0.001, &pts);
        // 128×128 cap ⇒ cell ≥ ~7.8 m.
        assert!(grid.cell_size() >= 1000.0 / 128.0 - 1e-9);
        let mut got = Vec::new();
        grid.query_circle(Point::new(0.0, 0.0), 2000.0, None, &mut got);
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn results_sorted_regardless_of_history() {
        let pts = scatter(100, 300.0, 300.0, 11);
        let mut grid = UniformGrid::new(300.0, 300.0, 40.0, &pts);
        // Shuffle bucket orders via updates.
        for i in (0..100).rev() {
            grid.update(i as u32, pts[i]);
        }
        let mut got = Vec::new();
        grid.query_circle(Point::new(150.0, 150.0), 200.0, None, &mut got);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn exclude_drops_exactly_one_node() {
        let pts = scatter(150, 800.0, 800.0, 5);
        let grid = UniformGrid::new(800.0, 800.0, 90.0, &pts);
        for (i, &c) in pts.iter().enumerate().step_by(13) {
            let mut all = Vec::new();
            grid.query_circle(c, 250.0, None, &mut all);
            let mut without = Vec::new();
            grid.query_circle(c, 250.0, Some(i as u32), &mut without);
            let expect: Vec<u32> = all.iter().copied().filter(|&n| n != i as u32).collect();
            assert_eq!(without, expect, "center {i}");
        }
    }

    #[test]
    fn retain_nodes_prunes_queries_and_memory() {
        let pts = scatter(120, 700.0, 700.0, 21);
        let mut grid = UniformGrid::new(700.0, 700.0, 80.0, &pts);
        // Keep every third node only.
        grid.retain_nodes(|n| n % 3 == 0);
        for n in 0..120u32 {
            assert_eq!(grid.is_tracked(n), n % 3 == 0);
        }
        let mut got = Vec::new();
        grid.query_circle(Point::new(350.0, 350.0), 1000.0, None, &mut got);
        let expect: Vec<u32> = (0..120).filter(|n| n % 3 == 0).collect();
        assert_eq!(got, expect);
        // Tracked nodes still update and query exactly.
        grid.update(3, Point::new(10.0, 10.0));
        let mut near = Vec::new();
        grid.query_circle(Point::new(10.0, 10.0), 1.0, None, &mut near);
        assert_eq!(near, vec![3]);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn updating_an_untracked_node_panics() {
        let pts = scatter(10, 100.0, 100.0, 2);
        let mut grid = UniformGrid::new(100.0, 100.0, 20.0, &pts);
        grid.retain_nodes(|n| n != 4);
        grid.update(4, Point::new(1.0, 1.0));
    }

    /// Queries cached at a clock reading stay exact for as long as their
    /// cells' stamps do not pass it — through cell crossings, moves
    /// inside one cell (small steps) and a rebuild.
    #[test]
    fn an_unchanged_stamp_means_an_unchanged_query() {
        let mut pts = scatter(80, 900.0, 900.0, 4);
        let mut grid = UniformGrid::new(900.0, 900.0, 100.0, &pts);
        let query = |grid: &UniformGrid, c: Point, r: f64| {
            let mut out = Vec::new();
            grid.query_circle(c, r, None, &mut out);
            out
        };
        let probes: Vec<(Point, f64)> = scatter(12, 900.0, 900.0, 8)
            .into_iter()
            .zip([40.0, 90.0, 150.0, 260.0].into_iter().cycle())
            .collect();
        let mut cached: Vec<(Vec<u32>, u64)> = probes
            .iter()
            .map(|&(c, r)| (query(&grid, c, r), grid.clock()))
            .collect();
        let steps = scatter(600, 1.0, 1.0, 13);
        let (mut kept, mut stale) = (0, 0);
        for (k, s) in steps.iter().enumerate() {
            let node = k % pts.len();
            // Mostly short hops, every fifth a jump anywhere.
            let to = if k % 5 == 0 {
                Point::new(s.x * 900.0, s.y * 900.0)
            } else {
                Point::new(
                    (pts[node].x + (s.x - 0.5) * 30.0).clamp(0.0, 899.0),
                    (pts[node].y + (s.y - 0.5) * 30.0).clamp(0.0, 899.0),
                )
            };
            pts[node] = to;
            if k == 300 {
                grid.rebuild(&pts);
            } else {
                grid.update(node as u32, to);
            }
            for (&(c, r), (ids, at)) in probes.iter().zip(&mut cached) {
                let fresh = query(&grid, c, r);
                if grid.stamp_of(c, r) <= *at {
                    assert_eq!(*ids, fresh, "step {k}: a stale result kept its stamp");
                    kept += 1;
                } else {
                    (*ids, *at) = (fresh, grid.clock());
                    stale += 1;
                }
            }
        }
        assert!(
            kept > 1000 && stale > 1000,
            "kept {kept}, refreshed {stale}"
        );
    }

    #[test]
    fn node_cell_tracks_updates() {
        let pts = scatter(30, 600.0, 600.0, 9);
        let mut grid = UniformGrid::new(600.0, 600.0, 100.0, &pts);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(grid.node_cell(i as u32), grid.cell_of(p));
        }
        let dest = Point::new(599.0, 1.0);
        grid.update(4, dest);
        assert_eq!(grid.node_cell(4), grid.cell_of(dest));
    }
}
