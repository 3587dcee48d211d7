//! Query surface over the moving-object store.
//!
//! The paper's target applications "determine locations that objects have
//! had, have or will have" (§1): position-at-time lookups, space × time
//! window queries, and k-nearest-neighbour snapshots. All queries run on
//! the *stored* (possibly compressed) trajectories; with a compressed
//! store the answers are within the configured error budget of the raw
//! data at sample instants (see `traj-compress`).

use traj_geom::{Bbox, Point2, Segment};
use traj_model::{Fix, Timestamp};

use crate::rtree::SegmentRTree;
use crate::store::{MovingObjectStore, ObjectId};

/// Bumps the per-kind query counter (`store.queries{kind=…}`).
#[inline]
fn count_query(kind: &'static str) {
    traj_obs::registry().counter_with("store", "queries", &[("kind", kind)]).inc();
}

/// A spatiotemporal query window: a rectangle during a time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWindow {
    /// Spatial rectangle.
    pub bbox: Bbox,
    /// Interval start (inclusive).
    pub t0: Timestamp,
    /// Interval end (inclusive).
    pub t1: Timestamp,
}

impl QueryWindow {
    /// Convenience constructor from corner coordinates and seconds.
    pub fn new(min: Point2, max: Point2, t0: f64, t1: f64) -> Self {
        QueryWindow {
            bbox: Bbox::from_corners(min, max),
            t0: Timestamp::from_secs(t0),
            t1: Timestamp::from_secs(t1),
        }
    }
}

/// Position of object `id` at time `t`, linearly interpolated on its
/// stored trajectory; `None` for unknown objects or instants outside the
/// stored span. A binary search of the stored fixes, read in place.
pub fn position_of(store: &MovingObjectStore, id: ObjectId, t: Timestamp) -> Option<Point2> {
    count_query("position_at");
    let (committed, tail) = store.stored_parts(id)?;
    match (committed.last(), tail) {
        // Past the committed fixes: on the way to the open window's tail.
        (Some(last), Some(tail)) if last.t < t => position_on(&[*last, tail], t),
        _ => position_on(committed, t),
    }
}

fn position_on(fixes: &[Fix], t: Timestamp) -> Option<Point2> {
    let first = fixes.first()?;
    let last = fixes.last()?;
    if t < first.t || t > last.t {
        return None;
    }
    let i = fixes.partition_point(|f| f.t <= t);
    if i == 0 {
        return Some(first.pos);
    }
    if i == fixes.len() {
        return Some(last.pos);
    }
    Some(Fix::interpolate(&fixes[i - 1], &fixes[i], t))
}

/// An object's stored segments, read in place: consecutive committed
/// fixes, then the last of them to the open window's tail.
fn segments(committed: &[Fix], tail: Option<Fix>) -> impl Iterator<Item = (Fix, Fix)> + '_ {
    let to_tail = committed.last().zip(tail).map(|(a, b)| (*a, b));
    committed.windows(2).map(|w| (w[0], w[1])).chain(to_tail)
}

/// Exact predicate: does the linear motion `a → b` enter `window.bbox`
/// at some instant within `[window.t0, window.t1]`?
///
/// The motion is clipped to the overlap of `[a.t, b.t]` and the query
/// interval, then the clipped spatial sub-segment is tested against the
/// rectangle. Inlined: the scan calls it once per stored segment.
#[inline]
fn segment_enters_window(a: &Fix, b: &Fix, window: &QueryWindow) -> bool {
    let lo = if a.t > window.t0 { a.t } else { window.t0 };
    let hi = if b.t < window.t1 { b.t } else { window.t1 };
    if hi < lo {
        return false;
    }
    let p0 = Fix::interpolate(a, b, lo);
    let p1 = Fix::interpolate(a, b, hi);
    window.bbox.intersects_segment(&Segment::new(p0, p1))
}

/// Ids of objects whose stored motion enters `window.bbox` during the
/// window's time interval, ascending: the reference full scan that the
/// indexed path ([`rtree_objects_in_window`]) is tested against.
pub fn objects_in_window(store: &MovingObjectStore, window: &QueryWindow) -> Vec<ObjectId> {
    count_query("window_scan");
    let mut out = Vec::new();
    for id in store.object_ids() {
        let Some((committed, tail)) = store.stored_parts(id) else { continue };
        let hit = match (committed, tail) {
            ([f], None) => window.t0 <= f.t && f.t <= window.t1 && window.bbox.contains(f.pos),
            _ => segments(committed, tail).any(|(a, b)| segment_enters_window(&a, &b, window)),
        };
        if hit {
            out.push(id);
        }
    }
    out
}

/// Positions of every object whose stored span covers `t` — the
/// "where is everybody right now" snapshot, ascending by id.
pub fn snapshot_at(store: &MovingObjectStore, t: Timestamp) -> Vec<(ObjectId, Point2)> {
    count_query("snapshot");
    store
        .object_ids()
        .filter_map(|id| position_of(store, id, t).map(|p| (id, p)))
        .collect()
}

/// The `k` objects nearest to `query` at instant `t`, as
/// `(id, distance)` pairs sorted by distance (objects whose stored span
/// does not cover `t` are skipped).
pub fn knn_at(
    store: &MovingObjectStore,
    t: Timestamp,
    query: Point2,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    count_query("knn");
    let mut candidates: Vec<(ObjectId, f64)> = store
        .object_ids()
        .filter_map(|id| position_of(store, id, t).map(|p| (id, p.distance(query))))
        .collect();
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
    candidates.truncate(k);
    candidates
}

/// The stored motion of every object clipped to the query's time
/// interval, for objects that enter the window — the "give me the rush-
/// hour traces through this junction" query of the paper's §1.
///
/// Returns `(id, sliced trajectory)` pairs, ascending by id. Slices have
/// interpolated boundary fixes, so they span exactly the overlap of the
/// object's history with `[window.t0, window.t1]`.
pub fn trajectories_in_window(
    store: &MovingObjectStore,
    window: &QueryWindow,
) -> Vec<(ObjectId, traj_model::Trajectory)> {
    count_query("window_trajectories");
    objects_in_window(store, window)
        .into_iter()
        .filter_map(|id| {
            let traj = store.trajectory(id)?;
            let slice = traj_model::ops::slice_time(&traj, window.t0, window.t1)?;
            Some((id, slice))
        })
        .collect()
}

/// Builds the window index over every stored segment of the store (an
/// object with a single stored fix is one degenerate segment).
pub fn build_segment_rtree(store: &MovingObjectStore) -> SegmentRTree {
    // One entry per stored fix bounds the segment count from above.
    let mut entries = Vec::with_capacity(store.stats().stored_points);
    for id in store.object_ids() {
        let Some((committed, tail)) = store.stored_parts(id) else { continue };
        if let ([f], None) = (committed, tail) {
            entries.push((id, *f, *f));
        }
        entries.extend(segments(committed, tail).map(|(a, b)| (id, a, b)));
    }
    SegmentRTree::build(entries)
}

/// Window query through a prebuilt [`SegmentRTree`]; exact (candidates
/// are verified by time-clipped intersection) and equivalent to
/// [`objects_in_window`].
pub fn rtree_objects_in_window(tree: &SegmentRTree, window: &QueryWindow) -> Vec<ObjectId> {
    count_query("window_rtree");
    let mut hits = std::collections::HashSet::new();
    tree.for_each_candidate(window, |(id, a, b)| {
        if !hits.contains(id) && segment_enters_window(a, b, window) {
            hits.insert(*id);
        }
    });
    let mut out: Vec<ObjectId> = hits.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::IngestMode;
    use traj_model::Trajectory;

    fn demo_store() -> MovingObjectStore {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        // Three cars on parallel east-west roads, staggered in y.
        for (id, y) in [(1u64, 0.0), (2, 1000.0), (3, 2000.0)] {
            s.insert_trajectory(
                id,
                &Trajectory::from_triples(
                    (0..60).map(|i| (i as f64 * 10.0, i as f64 * 100.0, y)),
                )
                .unwrap(),
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn position_of_interpolates() {
        let s = demo_store();
        let p = position_of(&s, 1, Timestamp::from_secs(15.0)).unwrap();
        assert_eq!(p, Point2::new(150.0, 0.0));
        assert!(position_of(&s, 1, Timestamp::from_secs(-1.0)).is_none());
        assert!(position_of(&s, 99, Timestamp::from_secs(0.0)).is_none());
    }

    #[test]
    fn window_query_scan() {
        let s = demo_store();
        // Around x≈3000 at the right time, lane y=1000 only.
        let w = QueryWindow::new(Point2::new(2900.0, 900.0), Point2::new(3100.0, 1100.0), 250.0, 350.0);
        assert_eq!(objects_in_window(&s, &w), vec![2]);
    }

    #[test]
    fn snapshot_lists_covered_objects_only() {
        let mut s = demo_store();
        s.insert_trajectory(
            9,
            &Trajectory::from_triples([(5000.0, 0.0, 0.0), (5010.0, 1.0, 0.0)]).unwrap(),
        )
        .unwrap();
        let snap = snapshot_at(&s, Timestamp::from_secs(300.0));
        assert_eq!(snap.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![1, 2, 3]);
        for (_, p) in snap {
            assert_eq!(p.x, 3000.0);
        }
        assert!(snapshot_at(&s, Timestamp::from_secs(-10.0)).is_empty());
    }

    #[test]
    fn knn_orders_by_distance() {
        let s = demo_store();
        // At t=300 every car is at x=3000; distances determined by lanes.
        let q = Point2::new(3000.0, 900.0);
        let knn = knn_at(&s, Timestamp::from_secs(300.0), q, 2);
        assert_eq!(knn.len(), 2);
        assert_eq!(knn[0].0, 2);
        assert!((knn[0].1 - 100.0).abs() < 1e-9);
        assert_eq!(knn[1].0, 1);
        assert!((knn[1].1 - 900.0).abs() < 1e-9);
    }

    #[test]
    fn knn_skips_objects_outside_time_span() {
        let mut s = demo_store();
        // Object 4 exists only later.
        s.insert_trajectory(
            4,
            &Trajectory::from_triples([(10_000.0, 0.0, 0.0), (10_010.0, 1.0, 0.0)]).unwrap(),
        )
        .unwrap();
        let knn = knn_at(&s, Timestamp::from_secs(300.0), Point2::ORIGIN, 10);
        assert_eq!(knn.len(), 3, "object 4 must be skipped");
    }

    #[test]
    fn trajectories_in_window_are_clipped_slices() {
        let s = demo_store();
        let w = QueryWindow::new(
            Point2::new(2000.0, -100.0),
            Point2::new(4000.0, 2100.0),
            150.0,
            450.0,
        );
        let slices = trajectories_in_window(&s, &w);
        assert_eq!(slices.len(), 3, "all three lanes pass through");
        for (id, slice) in &slices {
            assert!(slice.start_time() >= w.t0, "object {id}");
            assert!(slice.end_time() <= w.t1, "object {id}");
            // The slice agrees with the full stored trajectory.
            let full = s.trajectory(*id).unwrap();
            let mid = slice.start_time().lerp(slice.end_time(), 0.5);
            let a = traj_model::interp::position_at(slice, mid).unwrap();
            let b = traj_model::interp::position_at(&full, mid).unwrap();
            assert!(a.distance(b) < 1e-6);
        }
    }

    #[test]
    fn rtree_window_equals_scan() {
        let s = demo_store();
        let tree = build_segment_rtree(&s);
        for i in 0..25 {
            let cx = i as f64 * 230.0;
            let w = QueryWindow::new(
                Point2::new(cx, -100.0),
                Point2::new(cx + 500.0, 2100.0),
                i as f64 * 25.0,
                i as f64 * 25.0 + 120.0,
            );
            assert_eq!(
                rtree_objects_in_window(&tree, &w),
                objects_in_window(&s, &w),
                "window {i}"
            );
        }
    }

    /// Three buses lapping 2 km-radius loops around nearby centres at
    /// 12 m/s (one lap ≈ 1,047 s), one fix per 10 s.
    fn looping_buses(mode: IngestMode, fixes: usize) -> MovingObjectStore {
        let mut s = MovingObjectStore::new(mode);
        let period = std::f64::consts::TAU * 2_000.0 / 12.0;
        for (id, (cx, cy)) in [(10u64, (0.0, 0.0)), (11, (1_500.0, 0.0)), (12, (0.0, 1_500.0))] {
            let trip = Trajectory::from_triples((0..fixes).map(|i| {
                let t = i as f64 * 10.0;
                let a = std::f64::consts::TAU * t / period + id as f64;
                (t, cx + 2_000.0 * a.cos(), cy + 2_000.0 * a.sin())
            }))
            .unwrap();
            s.insert_trajectory(id, &trip).unwrap();
        }
        s
    }

    #[test]
    fn rtree_and_scan_agree_on_a_long_compressed_history() {
        // 26,000 s ≈ 25 laps: each window's rectangle lies on the loops,
        // so a bus passes through it on every lap and only the time
        // interval tells the laps apart.
        let s = looping_buses(
            IngestMode::Compressed { epsilon: 30.0, speed_epsilon: None, max_window: 64 },
            2_600,
        );
        let tree = build_segment_rtree(&s);
        for i in 0..40 {
            let t = 26_000.0 * i as f64 / 40.0;
            let p = position_of(&s, 10 + i % 3, Timestamp::from_secs(t)).unwrap();
            let (lo, hi) = (p.x - 500.0, p.x + 500.0);
            let w = window(lo, p.y - 500.0, hi, p.y + 500.0, t - 300.0, t + 300.0);
            let scan = objects_in_window(&s, &w);
            assert!(scan.contains(&(10 + i % 3)), "window {i} holds the bus it is centred on");
            assert_eq!(rtree_objects_in_window(&tree, &w), scan, "window {i}");
        }
    }

    fn window(x0: f64, y0: f64, x1: f64, y1: f64, t0: f64, t1: f64) -> QueryWindow {
        QueryWindow::new(Point2::new(x0, y0), Point2::new(x1, y1), t0, t1)
    }

    /// The tree's answer to `w` over `s`, asserted equal to the scan's.
    fn tree_answer(s: &MovingObjectStore, w: &QueryWindow) -> Vec<ObjectId> {
        let got = rtree_objects_in_window(&build_segment_rtree(s), w);
        assert_eq!(got, objects_in_window(s, w), "tree vs scan");
        got
    }

    /// Object 1 drives west → east along y = 0 and object 2 south →
    /// north along x = 5000, both at 10 m/s for 990 s.
    fn crossing_store() -> MovingObjectStore {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        let east = (0..100).map(|i| (i as f64 * 10.0, i as f64 * 100.0, 0.0));
        let north = (0..100).map(|i| (i as f64 * 10.0, 5000.0, i as f64 * 100.0 - 5000.0));
        s.insert_trajectory(1, &Trajectory::from_triples(east).unwrap()).unwrap();
        s.insert_trajectory(2, &Trajectory::from_triples(north).unwrap()).unwrap();
        s
    }

    #[test]
    fn finds_object_crossing_window() {
        // Object 1 is near x = 2000 at t ≈ 200.
        let w = window(1900.0, -50.0, 2100.0, 50.0, 150.0, 250.0);
        assert_eq!(tree_answer(&crossing_store(), &w), vec![1]);
    }

    #[test]
    fn time_interval_excludes_wrong_epoch() {
        // Same rectangle, but queried when object 1 is long past it.
        let w = window(1900.0, -50.0, 2100.0, 50.0, 800.0, 990.0);
        assert!(tree_answer(&crossing_store(), &w).is_empty());
    }

    #[test]
    fn multiple_objects_in_one_window() {
        // Both pass near (5000, 0) around t = 500.
        let w = window(4000.0, -1000.0, 6000.0, 1000.0, 400.0, 600.0);
        assert_eq!(tree_answer(&crossing_store(), &w), vec![1, 2]);
    }

    #[test]
    fn equivalence_with_scan_on_many_windows() {
        let s = crossing_store();
        let tree = build_segment_rtree(&s);
        assert_eq!(tree.len(), 2 * 99);
        for i in 0..40 {
            let cx = i as f64 * 250.0;
            let w = window(cx, -500.0, cx + 400.0, 500.0, i as f64 * 20.0, i as f64 * 20.0 + 300.0);
            assert_eq!(rtree_objects_in_window(&tree, &w), objects_in_window(&s, &w), "window {i}");
        }
    }

    #[test]
    fn single_fix_object_is_findable() {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        s.append(7, Fix::from_parts(100.0, 50.0, 50.0)).unwrap();
        assert_eq!(build_segment_rtree(&s).len(), 1);
        assert_eq!(tree_answer(&s, &window(0.0, 0.0, 100.0, 100.0, 50.0, 150.0)), vec![7]);
        assert!(tree_answer(&s, &window(0.0, 0.0, 100.0, 100.0, 150.0, 250.0)).is_empty());
    }

    #[test]
    fn motion_through_window_between_samples_is_detected() {
        // The samples bracket the window: at t = 0 the object is west of
        // the box, at t = 10 east of it; the interpolated motion crosses
        // it near t = 5.
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        let trip = Trajectory::from_triples([(0.0, -1000.0, 0.0), (10.0, 1000.0, 0.0)]).unwrap();
        s.insert_trajectory(3, &trip).unwrap();
        assert_eq!(tree_answer(&s, &window(-50.0, -50.0, 50.0, 50.0, 0.0, 10.0)), vec![3]);
        // Not if the time interval excludes the crossing.
        assert!(tree_answer(&s, &window(-50.0, -50.0, 50.0, 50.0, 0.0, 2.0)).is_empty());
    }

    #[test]
    fn a_long_jump_and_a_long_silence_are_one_entry_each() {
        let ten_years = 10.0 * 365.25 * 86_400.0;
        // 800 km per axis in 10 s; 10 m per axis in ten years.
        let jump = ((10.0, 800_000.0, 800_000.0), 400_000.0);
        for (b, mid) in [jump, ((ten_years, 10.0, 10.0), 5.0)] {
            let mut s = MovingObjectStore::new(IngestMode::Raw);
            let trip = Trajectory::from_triples([(0.0, 0.0, 0.0), b]).unwrap();
            s.insert_trajectory(5, &trip).unwrap();
            let tree = build_segment_rtree(&s);
            assert_eq!((tree.len(), tree.height()), (1, 1));
            // Around the midpoint at mid-time: a hit.
            let (r, t) = (mid / 10.0, b.0 / 2.0);
            let at_mid = |t0: f64, t1: f64| window(mid - r, mid - r, mid + r, mid + r, t0, t1);
            assert_eq!(tree_answer(&s, &at_mid(t - b.0 / 100.0, t + b.0 / 100.0)), vec![5]);
            // The same rectangle early in the interval: a miss.
            assert!(tree_answer(&s, &at_mid(0.0, b.0 / 10.0)).is_empty());
        }
    }

    #[test]
    fn position_of_compressed_store_close_to_raw() {
        let raw_traj = Trajectory::from_triples((0..300).map(|i| {
            let t = i as f64 * 10.0;
            (t, t * 11.0, 300.0 * (t / 500.0).sin())
        }))
        .unwrap();
        let eps = 25.0;
        let mut s = MovingObjectStore::new(IngestMode::Compressed {
            epsilon: eps,
            speed_epsilon: None,
            max_window: 128,
        });
        s.insert_trajectory(1, &raw_traj).unwrap();
        // At every *sample* instant the stored answer is within eps.
        for f in raw_traj.fixes() {
            let p = position_of(&s, 1, f.t).unwrap();
            assert!(
                p.distance(f.pos) <= eps + 1e-6,
                "at {}: {} m",
                f.t,
                p.distance(f.pos)
            );
        }
    }
}
