//! The window index: a static STR-packed R-tree over the stored
//! segments in (x, y, t).
//!
//! An entry is one segment — two consecutive kept fixes, or `(f, f)` for
//! an object with one fix — and its box is the rectangle of its
//! endpoints times `[a.t, b.t]`. Sort-Tile-Recursive bulk loading packs
//! `P` leaf pages of `FANOUT` entries by sorting on the t-centre into
//! `s = ⌈P^⅓⌉` slabs, each slab on the x-centre into `s` slices and each
//! slice on the y-centre; every level above is packed the same way. A
//! query descends only into nodes whose rectangle meets the window's and
//! whose time span meets `[t0, t1]`, so a long history is pruned by time
//! and a wide fleet by space; the query layer then verifies each
//! candidate exactly. A leaf is a run of the one sorted entry array and
//! a node a run of the level below, so only nodes carry boxes and memory
//! is linear in segments however far or long a segment reaches.

use traj_geom::{Bbox, Point2};
use traj_model::Fix;

use crate::query::QueryWindow;
use crate::store::ObjectId;

const FANOUT: usize = 16;

/// One indexed segment: the object and its linear motion `a → b`.
pub(crate) type SegmentEntry = (ObjectId, Fix, Fix);

/// A box in space × time.
#[derive(Debug, Clone, Copy)]
struct Box3 {
    bbox: Bbox,
    t0: f64,
    t1: f64,
}

impl Box3 {
    const EMPTY: Box3 = Box3 { bbox: Bbox::EMPTY, t0: f64::INFINITY, t1: f64::NEG_INFINITY };

    fn of((_, a, b): &SegmentEntry) -> Box3 {
        Box3 { bbox: Bbox::from_corners(a.pos, b.pos), t0: a.t.as_secs(), t1: b.t.as_secs() }
    }

    fn union(&self, other: &Box3) -> Box3 {
        let (t0, t1) = (self.t0.min(other.t0), self.t1.max(other.t1));
        Box3 { bbox: self.bbox.union(&other.bbox), t0, t1 }
    }

    fn meets(&self, w: &QueryWindow) -> bool {
        self.t0 <= w.t1.as_secs() && w.t0.as_secs() <= self.t1 && self.bbox.intersects(&w.bbox)
    }

    /// The centre along the STR axis: 0 = t, 1 = x, 2 = y.
    fn centre(&self, axis: usize) -> f64 {
        let Point2 { x, y } = self.bbox.center();
        [0.5 * (self.t0 + self.t1), x, y][axis]
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    bounds: Box3,
    /// Children `first..first + len`: entries for a leaf, nodes of the
    /// level below otherwise.
    first: usize,
    len: usize,
}

/// An immutable, bulk-loaded R-tree over the stored segments in
/// (x, y, t); built by [`crate::query::build_segment_rtree`] and queried
/// by [`crate::query::rtree_objects_in_window`].
///
/// ```
/// use traj_geom::Point2;
/// use traj_model::Trajectory;
/// use traj_store::query::{build_segment_rtree, rtree_objects_in_window};
/// use traj_store::{IngestMode, MovingObjectStore, QueryWindow};
///
/// let mut store = MovingObjectStore::new(IngestMode::Raw);
/// // One car driving east at 10 m/s: near x = 2000 m at t ≈ 200 s.
/// let east = (0..100).map(|i| (i as f64 * 10.0, i as f64 * 100.0, 0.0));
/// store.insert_trajectory(1, &Trajectory::from_triples(east).unwrap()).unwrap();
/// let tree = build_segment_rtree(&store);
/// let (min, max) = (Point2::new(1900.0, -50.0), Point2::new(2100.0, 50.0));
/// let at = |t0, t1| QueryWindow::new(min, max, t0, t1);
/// assert_eq!(rtree_objects_in_window(&tree, &at(150.0, 250.0)), vec![1]);
/// assert!(rtree_objects_in_window(&tree, &at(3600.0, 3700.0)).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SegmentRTree {
    /// Every entry, in leaf order.
    entries: Vec<SegmentEntry>,
    /// Every level, leaves first; the root is the last node.
    nodes: Vec<Node>,
    /// Nodes `0..leaves` are leaves.
    leaves: usize,
}

/// Sorts `items` into STR order over their (t, x, y) box centres, so
/// that runs of `FANOUT` consecutive items are the pages of one level.
fn str_sort<T>(items: &mut [T], bounds: impl Fn(&T) -> Box3) {
    let pages = items.len().div_ceil(FANOUT);
    let mut s = 1;
    while s * s * s < pages {
        s += 1;
    }
    let bounds = &bounds;
    let by = |axis| move |a: &T, b: &T| bounds(a).centre(axis).total_cmp(&bounds(b).centre(axis));
    items.sort_unstable_by(by(0));
    for slab in items.chunks_mut(s * s * FANOUT) {
        slab.sort_unstable_by(by(1));
        for slice in slab.chunks_mut(s * FANOUT) {
            slice.sort_unstable_by(by(2));
        }
    }
}

/// The nodes over consecutive runs of `FANOUT` items, numbered from
/// `first`.
fn pack<T>(items: &[T], first: usize, bounds: impl Fn(&T) -> Box3) -> Vec<Node> {
    let node = |(i, run): (usize, &[T])| Node {
        bounds: run.iter().fold(Box3::EMPTY, |acc, item| acc.union(&bounds(item))),
        first: first + i * FANOUT,
        len: run.len(),
    };
    items.chunks(FANOUT).enumerate().map(node).collect()
}

impl SegmentRTree {
    /// Bulk-loads the tree from its entries (`a.t <= b.t` in each).
    pub(crate) fn build(mut entries: Vec<SegmentEntry>) -> Self {
        str_sort(&mut entries, Box3::of);
        let mut nodes = pack(&entries, 0, Box3::of);
        let leaves = nodes.len();
        let mut level = 0..leaves;
        while level.len() > 1 {
            str_sort(&mut nodes[level.clone()], |n| n.bounds);
            let parents = pack(&nodes[level.clone()], level.start, |n| n.bounds);
            level = nodes.len()..nodes.len() + parents.len();
            nodes.extend(parents);
        }
        SegmentRTree { entries, nodes, leaves }
    }

    /// Number of indexed segments.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Height of the tree (0 for empty).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        let Some(mut id) = self.nodes.len().checked_sub(1) else { return 0 };
        let mut height = 1;
        while id >= self.leaves {
            id = self.nodes[id].first;
            height += 1;
        }
        height
    }

    /// Visits every entry whose box meets `window`: its rectangle meets
    /// `window.bbox` and `[a.t, b.t]` meets `[window.t0, window.t1]`.
    /// Candidates only — the motion inside the box may still miss.
    pub(crate) fn for_each_candidate<'a>(
        &'a self,
        window: &QueryWindow,
        mut f: impl FnMut(&'a SegmentEntry),
    ) {
        let Some(root) = self.nodes.len().checked_sub(1) else { return };
        // Node visits accumulate in a stack local and flush once per
        // query, keeping the traversal free of shared-state traffic.
        let mut visited = 0u64;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            visited += 1;
            let node = &self.nodes[id];
            if !node.bounds.meets(window) {
                continue;
            }
            let children = node.first..node.first + node.len;
            if id < self.leaves {
                for entry in &self.entries[children] {
                    if Box3::of(entry).meets(window) {
                        f(entry);
                    }
                }
            } else {
                stack.extend(children);
            }
        }
        traj_obs::counter!("store", "rtree_node_visits").add(visited);
        traj_obs::histogram!("store", "rtree_nodes_per_query").record(visited);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` random segments: short hops and a few long ones, over 10 km
    /// and a day.
    fn segments(n: usize, seed: u64) -> Vec<SegmentEntry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (x, y) = (rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
                let t = rng.gen_range(0.0..86_400.0);
                let reach = if i % 50 == 0 { 5_000.0 } else { 100.0 };
                let a = Fix::from_parts(t, x, y);
                let b = Fix::from_parts(
                    t + rng.gen_range(0.0..600.0),
                    x + rng.gen_range(-reach..reach),
                    y + rng.gen_range(-reach..reach),
                );
                (i as ObjectId, a, b)
            })
            .collect()
    }

    fn window(rng: &mut StdRng) -> QueryWindow {
        let (x, y) = (rng.gen_range(-500.0..10_000.0), rng.gen_range(-500.0..10_000.0));
        let t = rng.gen_range(-600.0..86_400.0);
        let (w, span) = (rng.gen_range(10.0..3_000.0), rng.gen_range(0.0..7_200.0));
        QueryWindow::new(Point2::new(x, y), Point2::new(x + w, y + w), t, t + span)
    }

    fn candidates(tree: &SegmentRTree, w: &QueryWindow) -> Vec<ObjectId> {
        let mut out = Vec::new();
        tree.for_each_candidate(w, |(id, _, _)| out.push(*id));
        out.sort_unstable();
        out
    }

    /// The brute-force oracle: every entry whose box meets the window.
    fn brute_force(entries: &[SegmentEntry], w: &QueryWindow) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> =
            entries.iter().filter(|e| Box3::of(e).meets(w)).map(|(id, _, _)| *id).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn candidates_equal_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n, seed) in [(1, 1), (15, 2), (16, 3), (17, 4), (300, 5), (5_000, 6)] {
            let entries = segments(n, seed);
            let tree = SegmentRTree::build(entries.clone());
            assert_eq!(tree.len(), n);
            let mut hits = 0;
            for q in 0..60 {
                let w = window(&mut rng);
                let want = brute_force(&entries, &w);
                hits += want.len();
                assert_eq!(candidates(&tree, &w), want, "{n} entries, window {q}");
            }
            assert!(n < 300 || hits > 0, "{n} entries: the windows must hit something");
        }
    }

    #[test]
    fn empty_tree() {
        let tree = SegmentRTree::build(Vec::new());
        assert_eq!((tree.len(), tree.height()), (0, 0));
        let w = QueryWindow::new(Point2::ORIGIN, Point2::new(1.0, 1.0), 0.0, 1.0);
        assert!(candidates(&tree, &w).is_empty());
    }

    #[test]
    fn single_entry() {
        let f = Fix::from_parts(50.0, 5.0, 5.0);
        let tree = SegmentRTree::build(vec![(42, f, f)]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        let hit = QueryWindow::new(Point2::new(5.0, 5.0), Point2::new(6.0, 6.0), 0.0, 50.0);
        assert_eq!(candidates(&tree, &hit), vec![42]);
        let far = QueryWindow::new(Point2::new(10.0, 10.0), Point2::new(11.0, 11.0), 0.0, 50.0);
        assert!(candidates(&tree, &far).is_empty());
        let later = QueryWindow::new(Point2::new(5.0, 5.0), Point2::new(6.0, 6.0), 50.1, 60.0);
        assert!(candidates(&tree, &later).is_empty());
    }

    #[test]
    fn height_is_logarithmic() {
        let tree = SegmentRTree::build(segments(4096, 8));
        // fanout 16 → height log₁₆(4096) = 3.
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn one_place_over_a_long_history_is_selected_by_time() {
        // One spot visited once a minute for a week: every entry has the
        // same rectangle, so only time separates them.
        let visit = |t: f64| (1, Fix::from_parts(t, 0.0, 0.0), Fix::from_parts(t + 30.0, 9.0, 9.0));
        let tree = SegmentRTree::build((0..10_080).map(|i| visit(i as f64 * 60.0)).collect());
        let w = QueryWindow::new(Point2::ORIGIN, Point2::new(10.0, 10.0), 300_000.0, 300_600.0);
        let mut seen = 0;
        tree.for_each_candidate(&w, |_| seen += 1);
        assert_eq!(seen, 11);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn queries_record_node_visits() {
        let tree = SegmentRTree::build(segments(1000, 9));
        let visits_before = traj_obs::counter!("store", "rtree_node_visits").get();
        let queries_before = traj_obs::histogram!("store", "rtree_nodes_per_query").count();
        let w = QueryWindow::new(Point2::ORIGIN, Point2::new(5_000.0, 5_000.0), 0.0, 86_400.0);
        let _ = candidates(&tree, &w);
        let visits_after = traj_obs::counter!("store", "rtree_node_visits").get();
        let queries_after = traj_obs::histogram!("store", "rtree_nodes_per_query").count();
        // At minimum the root is visited; deltas are monotone because the
        // registry is global and tests run concurrently.
        assert!(visits_after > visits_before);
        assert!(queries_after > queries_before);
    }
}
