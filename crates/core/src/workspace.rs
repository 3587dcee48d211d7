//! Reusable scratch memory for the compression kernels.
//!
//! Every kernel in this crate is an explicit-stack loop whose working
//! state — keep masks, split stacks, linked lists, merge heaps, window
//! distances — is borrowed from a [`Workspace`] instead of allocated per
//! call. A workspace that has processed one trajectory re-serves its
//! buffers to the next [`crate::Compressor::compress_into`] call at zero
//! allocation cost; the convenience [`crate::Compressor::compress`]
//! methods simply run against a fresh workspace.
//!
//! With the `obs` feature enabled, each warm reuse is counted in the
//! `ws.reuse` / `ws.bytes_saved` metrics (see `crates/obs/README.md`),
//! where `bytes_saved` is the *approximate* number of scratch bytes the
//! call did not have to allocate because capacity was already present.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::opening_window::{Lane, SpeedClass};
use crate::pair_map::PairMap;
use traj_model::{TrajColumns, Trajectory};

/// Min-heap candidate for bottom-up merging: removing `idx` (currently
/// flanked by kept `left` and `right`) costs `cost`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MergeCand {
    pub(crate) cost: f64,
    pub(crate) idx: usize,
    pub(crate) left: usize,
    pub(crate) right: usize,
}

impl PartialEq for MergeCand {
    fn eq(&self, o: &Self) -> bool {
        self.cost == o.cost
    }
}
impl Eq for MergeCand {}
impl PartialOrd for MergeCand {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for MergeCand {
    fn cmp(&self, o: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the cheapest first.
        o.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}

/// Per-interval split statistics memoized by the TD-SP one-pass sweep
/// (see `crate::sweep`): enough to re-derive the blended split decision
/// for any threshold without rescanning the interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpStats {
    /// First argmax of the synchronized distance over the interior.
    pub(crate) i_s: usize,
    /// Maximum synchronized distance over the interior.
    pub(crate) s: f64,
    /// First interior index with strictly positive synchronized
    /// distance, if any (the argmax under the `epsilon == 0` transform).
    pub(crate) i_pos: Option<usize>,
    /// First argmax of the derived-speed difference over the interior.
    pub(crate) i_v: usize,
    /// Maximum derived-speed difference over the interior.
    pub(crate) v: f64,
}

/// Reusable scratch for the compression kernels.
///
/// A `Workspace` owns every buffer the kernels need and hands them out
/// through [`crate::Compressor::compress_into`]. Reusing one workspace
/// across a batch of trajectories (or across repeated compressions of a
/// stream) keeps the hot path allocation-free once the buffers are warm:
///
/// ```
/// use traj_compress::{Compressor, CompressionResultBuf, TdTr, Workspace};
/// use traj_model::Trajectory;
///
/// let trajs: Vec<Trajectory> = (0..3)
///     .map(|k| {
///         Trajectory::from_triples((0..60).map(|i| {
///             let t = f64::from(i) * 10.0;
///             (t, t * 3.0, f64::from((i + k) % 5) * 20.0)
///         }))
///         .unwrap()
///     })
///     .collect();
///
/// let tdtr = TdTr::new(30.0);
/// let mut ws = Workspace::new();
/// let mut out = CompressionResultBuf::new();
/// for traj in &trajs {
///     tdtr.compress_into(traj, &mut ws, &mut out);
///     assert_eq!(out.take(), tdtr.compress(traj));
/// }
/// ```
///
/// The workspace is intentionally dumb: it carries no algorithm state
/// between calls, only capacity. Any kernel may use any subset of the
/// buffers; the crate-internal `begin` method clears them all before a
/// run.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Keep mask (top-down) / alive mask (bottom-up) over `0..n`.
    pub(crate) keep: Vec<bool>,
    /// Split stack for the top-down kernels: `(lo, hi, depth)`.
    pub(crate) stack: Vec<(usize, usize, u32)>,
    /// Split stack for the sweep tree walk: `(lo, hi, path_min)`.
    pub(crate) fstack: Vec<(usize, usize, f64)>,
    /// Sweep split-tree records: `(path_min, split_index)`.
    pub(crate) nodes: Vec<(f64, usize)>,
    /// Doubly linked list (bottom-up): previous surviving index.
    pub(crate) prev: Vec<usize>,
    /// Doubly linked list (bottom-up): next surviving index.
    pub(crate) next: Vec<usize>,
    /// Lazy merge-candidate heap (bottom-up).
    pub(crate) merge_heap: BinaryHeap<MergeCand>,
    /// Memoized per-interval statistics for the TD-SP sweep.
    pub(crate) sp_stats: PairMap<SpStats>,
    /// Opening-window engine (every window family, one lane or a sweep):
    /// interior distances of the window being scanned.
    pub(crate) ow_dists: Vec<f64>,
    /// Opening-window engine: per anchor, the first lane queued there.
    pub(crate) ow_queues: Vec<Option<usize>>,
    /// Opening-window sweep: the lanes of one engine call.
    pub(crate) ow_lanes: Vec<Lane>,
    /// Opening-window sweep: the speed classes of one engine call.
    pub(crate) ow_classes: Vec<SpeedClass>,
    /// Fixed polygon edge normals for the one-pass cone region.
    pub(crate) cone_dirs: Vec<(f64, f64)>,
    /// Per-direction tightest offsets for the one-pass cone region.
    pub(crate) cone_off: Vec<f64>,
    /// Cached structure-of-arrays columns for the bound trajectory.
    /// Identity-keyed, so it survives `begin` (unlike the scratch
    /// buffers above): sweeping one trajectory across many thresholds
    /// de-interleaves it exactly once.
    pub(crate) cols: TrajColumns,
}

impl Workspace {
    /// An empty workspace; kernels size the buffers on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Prepares the workspace for a run over an `n`-point trajectory:
    /// clears every buffer (retaining capacity) and, when the `obs`
    /// feature is on, credits the warm capacity to the `ws.reuse` /
    /// `ws.bytes_saved` metrics.
    pub(crate) fn begin(&mut self, n: usize) {
        #[cfg(feature = "obs")]
        {
            let saved = self.warm_bytes(n);
            if saved > 0 {
                crate::obs::note_workspace_reuse(saved);
            }
        }
        #[cfg(not(feature = "obs"))]
        let _ = n;
        self.keep.clear();
        self.stack.clear();
        self.fstack.clear();
        self.nodes.clear();
        self.prev.clear();
        self.next.clear();
        self.merge_heap.clear();
        self.sp_stats.clear();
        self.ow_dists.clear();
        self.ow_queues.clear();
        self.ow_lanes.clear();
        self.ow_classes.clear();
        self.cone_dirs.clear();
        self.cone_off.clear();
        // `cols` is deliberately *not* cleared: it is an identity-keyed
        // cache, invalidated by `bind_columns` when the trajectory
        // changes.
    }

    /// Points `cols` at `traj`, rebuilding only when the trajectory
    /// identity changed, and counts the outcome in the
    /// `layout.cols_built` / `layout.cols_reuse` metrics.
    pub(crate) fn bind_columns(&mut self, traj: &Trajectory) {
        let rebuilt = self.cols.bind(traj);
        #[cfg(feature = "obs")]
        crate::obs::note_columns(rebuilt);
        #[cfg(not(feature = "obs"))]
        let _ = rebuilt;
    }

    /// Takes the cached trajectory columns out of the workspace (leaving
    /// an empty, unbound set) so another consumer — typically an
    /// evaluation workspace scoring the same trajectory — can reuse them
    /// instead of de-interleaving the fixes again.
    pub fn take_columns(&mut self) -> TrajColumns {
        std::mem::take(&mut self.cols)
    }

    /// Seeds the workspace's column cache, e.g. with columns taken from
    /// another workspace that already processed the same trajectory. A
    /// later bind against that trajectory is then served from cache.
    pub fn seed_columns(&mut self, cols: TrajColumns) {
        self.cols = cols;
    }

    /// Approximate scratch bytes an `n`-point run can serve from warm
    /// capacity. Each buffer contributes `min(capacity, n)` elements —
    /// a deliberate *estimate* (heaps and stacks rarely reach `n`
    /// simultaneously) that is cheap, deterministic, and monotone in
    /// both capacity and input size.
    #[cfg(feature = "obs")]
    fn warm_bytes(&self, n: usize) -> u64 {
        fn warm<T>(capacity: usize, n: usize) -> u64 {
            (capacity.min(n) * std::mem::size_of::<T>()) as u64
        }
        warm::<bool>(self.keep.capacity(), n)
            + warm::<(usize, usize, u32)>(self.stack.capacity(), n)
            + warm::<(usize, usize, f64)>(self.fstack.capacity(), n)
            + warm::<(f64, usize)>(self.nodes.capacity(), n)
            + warm::<usize>(self.prev.capacity(), n)
            + warm::<usize>(self.next.capacity(), n)
            + warm::<MergeCand>(self.merge_heap.capacity(), n)
            + warm::<((usize, usize), SpStats)>(self.sp_stats.capacity(), n)
            + warm::<f64>(self.ow_dists.capacity(), n)
            + warm::<Option<usize>>(self.ow_queues.capacity(), n)
            + warm::<Lane>(self.ow_lanes.capacity(), n)
            + warm::<SpeedClass>(self.ow_classes.capacity(), n)
            + warm::<(f64, f64)>(self.cone_dirs.capacity(), n)
            + warm::<f64>(self.cone_off.capacity(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_all_buffers() {
        let mut ws = Workspace::new();
        ws.keep.resize(8, true);
        ws.stack.push((0, 7, 1));
        ws.fstack.push((0, 7, f64::INFINITY));
        ws.nodes.push((1.0, 3));
        ws.prev.extend(0..8);
        ws.next.extend(0..8);
        ws.merge_heap.push(MergeCand { cost: 1.0, idx: 1, left: 0, right: 2 });
        ws.sp_stats.insert(
            (0, 7),
            SpStats { i_s: 1, s: 2.0, i_pos: Some(1), i_v: 1, v: 0.5 },
        );
        ws.ow_dists.push(1.5);
        ws.ow_queues.push(Some(0));
        ws.ow_lanes.push(Lane::new(30.0, 0));
        ws.ow_classes.push(SpeedClass::new(Some(5.0)));
        ws.cone_dirs.push((1.0, 0.0));
        ws.cone_off.push(3.5);
        ws.begin(8);
        assert!(ws.keep.is_empty());
        assert!(ws.stack.is_empty());
        assert!(ws.fstack.is_empty());
        assert!(ws.nodes.is_empty());
        assert!(ws.prev.is_empty());
        assert!(ws.next.is_empty());
        assert!(ws.merge_heap.is_empty());
        assert!(ws.sp_stats.is_empty());
        assert!(ws.ow_dists.is_empty());
        assert!(ws.ow_queues.is_empty());
        assert!(ws.ow_lanes.is_empty());
        assert!(ws.ow_classes.is_empty());
        assert!(ws.cone_dirs.is_empty());
        assert!(ws.cone_off.is_empty());
        assert!(ws.keep.capacity() >= 8, "begin retains capacity");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn warm_bytes_grows_with_warm_capacity() {
        let mut ws = Workspace::new();
        assert_eq!(ws.warm_bytes(100), 0, "cold workspace saves nothing");
        ws.keep.resize(100, false);
        ws.prev.extend(0..100);
        let warm = ws.warm_bytes(100);
        assert_eq!(warm, 100 + 100 * 8);
        assert!(ws.warm_bytes(10) < warm, "small runs credit only what they use");
    }

    #[test]
    fn begin_preserves_the_column_cache() {
        let t = Trajectory::from_triples((0..20).map(|i| (i as f64, i as f64, 0.0))).unwrap();
        let mut ws = Workspace::new();
        ws.bind_columns(&t);
        assert_eq!(ws.cols.len(), 20);
        ws.begin(20);
        assert_eq!(ws.cols.len(), 20, "begin must not drop bound columns");
        assert!(!ws.cols.bind(&t), "columns still bound after begin");
    }

    #[test]
    fn take_and_seed_round_trip_the_columns() {
        let t = Trajectory::from_triples((0..10).map(|i| (i as f64, i as f64, 1.0))).unwrap();
        let mut a = Workspace::new();
        a.bind_columns(&t);
        let cols = a.take_columns();
        assert!(a.cols.is_empty(), "take leaves an unbound set behind");
        let mut b = Workspace::new();
        b.seed_columns(cols);
        assert!(!b.cols.bind(&t), "seeded columns serve the bind from cache");
    }

    #[test]
    fn merge_cand_orders_cheapest_first() {
        let mut heap = BinaryHeap::new();
        for (cost, idx) in [(3.0, 1), (1.0, 2), (2.0, 3)] {
            heap.push(MergeCand { cost, idx, left: 0, right: 4 });
        }
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|c| c.idx)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
