//! Top-down splitting algorithms: Douglas–Peucker, TD-TR and TD-SP.
//!
//! The top-down class (paper §2.1) recursively partitions the series at
//! the data point farthest from the current anchor–float approximation
//! until every point is within the threshold. With the perpendicular
//! criterion this is the classic Douglas–Peucker ("NDP" in the paper's
//! experiments, Fig. 7); with the synchronized time-ratio criterion it is
//! the paper's **TD-TR** (§3.2); with the blended spatiotemporal
//! criterion it is **TD-SP** (§3.3, see [`crate::TdSp`]).
//!
//! Three engines are provided:
//!
//! * [`TopDown::compress`] / [`Compressor::compress_into`] — iterative
//!   with an explicit stack borrowed from a [`Workspace`] (no
//!   recursion-depth hazard, no per-call allocation when warm); the
//!   production path;
//! * [`TopDown::compress_recursive`] — direct transcription of the
//!   textbook recursion, kept as an executable specification and used by
//!   equivalence tests and the ablation bench;
//! * [`TopDown::compress_to_count`] — the "number of data points" halting
//!   condition from the paper's §2 list: greedily keeps the globally
//!   worst-represented points until a target count is reached.
//!
//! Complexity: `O(N²)` worst case, `O(N log N)` typical, matching the
//! paper's statement for the original algorithm. (Hershberger & Snoeyink's
//! `O(N log N)` path-hull variant applies only to the perpendicular
//! criterion; the SED criterion has no such convexity structure, so we
//! keep the uniform implementation for all three.) For multi-threshold
//! evaluation see [`TopDown::sweep`], which exploits the
//! threshold-independence of the split tree.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::criterion::{Criterion, SegmentCriterion};
use crate::obs::AlgoRun;
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::Workspace;
use traj_geom::TrajView;
use traj_model::{Fix, Trajectory};

/// Generic top-down splitter over a [`Criterion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopDown {
    criterion: Criterion,
}

/// Classic Douglas–Peucker on perpendicular distance — the paper's NDP
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DouglasPeucker(TopDown);

/// Top-down time-ratio — the paper's TD-TR (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdTr(TopDown);

impl TopDown {
    /// Creates a top-down splitter over `criterion`.
    ///
    /// # Panics
    /// Panics unless the criterion's thresholds are valid (finite
    /// non-negative distance epsilon; non-NaN non-negative speed
    /// epsilon).
    pub fn new(criterion: Criterion) -> Self {
        criterion.validate();
        TopDown { criterion }
    }

    /// Top-down splitting on perpendicular distance (NDP) with threshold
    /// `epsilon` metres.
    pub fn perpendicular(epsilon: f64) -> Self {
        TopDown::new(Criterion::Perpendicular { epsilon })
    }

    /// Top-down splitting on synchronized distance (TD-TR) with
    /// threshold `epsilon` metres.
    pub fn time_ratio(epsilon: f64) -> Self {
        TopDown::new(Criterion::TimeRatio { epsilon })
    }

    /// Top-down splitting on the blended spatiotemporal criterion
    /// (TD-SP) with SED threshold `epsilon` metres and speed threshold
    /// `speed_epsilon` m/s.
    pub fn time_ratio_speed(epsilon: f64, speed_epsilon: f64) -> Self {
        TopDown::new(Criterion::TimeRatioSpeed { epsilon, speed_epsilon })
    }

    /// The distance threshold, metres.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.criterion.epsilon()
    }

    /// The splitting criterion.
    #[inline]
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }

    /// Static algorithm-family name for metric labels (threshold-free, so
    /// label cardinality stays bounded).
    pub(crate) fn family(&self) -> &'static str {
        match self.criterion {
            Criterion::Perpendicular { .. } => "ndp",
            Criterion::TimeRatio { .. } => "td-tr",
            Criterion::TimeRatioSpeed { .. } => "td-sp",
        }
    }

    /// Number of criterion evaluations one `farthest(lo, hi)` call
    /// performs.
    #[inline]
    pub(crate) fn evals(lo: usize, hi: usize) -> u64 {
        (hi - lo).saturating_sub(1) as u64
    }

    /// Interior point of `fixes[lo..=hi]` with the maximum split-ranking
    /// value relative to the `lo`–`hi` approximation, or `None` when
    /// there is no interior point. Ties resolve to the first (lowest
    /// index) maximum.
    pub(crate) fn farthest(&self, fixes: &[Fix], lo: usize, hi: usize) -> Option<(usize, f64)> {
        if hi <= lo + 1 {
            return None;
        }
        let mut best = (lo + 1, f64::NEG_INFINITY);
        for i in lo + 1..hi {
            let d = self.criterion.split_value(fixes, lo, hi, i);
            if d > best.1 {
                best = (i, d);
            }
        }
        Some(best)
    }

    /// Columnar [`TopDown::farthest`]: one batched
    /// [`SegmentCriterion::scan_segment`] over the structure-of-arrays
    /// view instead of a per-point dispatch loop. Bit-identical to the
    /// scalar form (same seed, same strict `>` first-maximum rule).
    pub(crate) fn farthest_view(&self, v: TrajView<'_>, lo: usize, hi: usize) -> Option<(usize, f64)> {
        if hi <= lo + 1 {
            return None;
        }
        let d = self.criterion.scan_segment(v, lo, hi);
        Some((d.split, d.value))
    }

    /// Iterative (explicit stack) kernel — the production engine behind
    /// both `compress` and `compress_into`.
    fn kernel(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        let n = traj.len();
        ws.begin(n);
        if n <= 2 {
            out.set_identity(n);
            return;
        }
        let _span = match self.criterion {
            Criterion::Perpendicular { .. } => traj_obs::trace_span!("ndp.compress", n),
            Criterion::TimeRatio { .. } => traj_obs::trace_span!("td_tr.compress", n),
            Criterion::TimeRatioSpeed { .. } => traj_obs::trace_span!("td_sp.compress", n),
        };
        let mut run = AlgoRun::new();
        ws.bind_columns(traj);
        let threshold = self.criterion.split_threshold();
        ws.keep.resize(n, false);
        ws.keep[0] = true;
        ws.keep[n - 1] = true;
        // The third element is the split depth, fed to the `dp_depth`
        // histogram (max over the run ≙ the recursion depth the textbook
        // formulation would reach).
        ws.stack.push((0, n - 1, 1));
        // Field-disjoint borrows: the view reads `ws.cols` while the loop
        // mutates `ws.stack` / `ws.keep`.
        let v = ws.cols.view();
        while let Some((lo, hi, depth)) = ws.stack.pop() {
            run.depth(u64::from(depth));
            run.sed_evals(Self::evals(lo, hi));
            if let Some((split, dist)) = self.farthest_view(v, lo, hi) {
                if dist > threshold {
                    ws.keep[split] = true;
                    ws.stack.push((lo, split, depth + 1));
                    ws.stack.push((split, hi, depth + 1));
                }
            }
        }
        out.reset(n);
        out.kept
            .extend(ws.keep.iter().enumerate().filter_map(|(i, &k)| k.then_some(i)));
        run.flush(self.family(), n, out.kept.len());
    }

    /// Reference recursion, equivalent to [`TopDown::compress`]; exposed
    /// for equivalence testing and the `ablation_dp_variants` benchmark.
    pub fn compress_recursive(&self, traj: &Trajectory) -> CompressionResult {
        let n = traj.len();
        if n <= 2 {
            return CompressionResult::identity(n);
        }
        let fixes = traj.fixes();
        let mut run = AlgoRun::new();
        let mut kept = vec![0usize];
        self.recurse(fixes, 0, n - 1, &mut kept, 1, &mut run);
        kept.push(n - 1);
        let result = CompressionResult::new(kept, n);
        run.flush(self.family(), n, result.kept_len());
        result
    }

    fn recurse(
        &self,
        fixes: &[Fix],
        lo: usize,
        hi: usize,
        kept: &mut Vec<usize>,
        depth: u32,
        run: &mut AlgoRun,
    ) {
        run.depth(u64::from(depth));
        run.sed_evals(Self::evals(lo, hi));
        if let Some((split, dist)) = self.farthest(fixes, lo, hi) {
            if dist > self.criterion.split_threshold() {
                self.recurse(fixes, lo, split, kept, depth + 1, run);
                kept.push(split);
                self.recurse(fixes, split, hi, kept, depth + 1, run);
            }
        }
    }

    /// Top-down splitting with the *point-count* halting condition:
    /// repeatedly splits the segment whose worst point is globally the
    /// farthest, until `target` points are kept (or no split remains).
    ///
    /// For `target <= 2` only the endpoints survive. The result keeps the
    /// same points an ε-threshold run would keep for the ε equal to the
    /// largest remaining deviation, making the two halting conditions
    /// consistent.
    pub fn compress_to_count(&self, traj: &Trajectory, target: usize) -> CompressionResult {
        let n = traj.len();
        if n <= 2 || target >= n {
            return CompressionResult::identity(n);
        }
        let fixes = traj.fixes();

        /// Max-heap entry ordered by deviation.
        struct Cand {
            dist: f64,
            split: usize,
            lo: usize,
            hi: usize,
        }
        impl PartialEq for Cand {
            fn eq(&self, o: &Self) -> bool {
                self.dist == o.dist
            }
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, o: &Self) -> Ordering {
                self.dist.partial_cmp(&o.dist).unwrap_or(Ordering::Equal)
            }
        }

        let mut run = AlgoRun::new();
        let mut heap = BinaryHeap::new();
        let push = |heap: &mut BinaryHeap<Cand>, run: &mut AlgoRun, lo: usize, hi: usize| {
            run.sed_evals(Self::evals(lo, hi));
            if let Some((split, dist)) = self.farthest(fixes, lo, hi) {
                heap.push(Cand { dist, split, lo, hi });
            }
        };
        push(&mut heap, &mut run, 0, n - 1);

        let mut keep = vec![false; n];
        keep[0] = true;
        keep[n - 1] = true;
        let mut count = 2usize;
        while count < target.max(2) {
            let Some(c) = heap.pop() else { break };
            run.heap_pop();
            keep[c.split] = true;
            count += 1;
            push(&mut heap, &mut run, c.lo, c.split);
            push(&mut heap, &mut run, c.split, c.hi);
        }
        let kept = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        let result = CompressionResult::new(kept, n);
        run.flush(self.family(), n, result.kept_len());
        result
    }
}

impl Compressor for TopDown {
    fn name(&self) -> String {
        match self.criterion {
            Criterion::Perpendicular { epsilon } => format!("ndp({epsilon}m)"),
            Criterion::TimeRatio { epsilon } => format!("td-tr({epsilon}m)"),
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => {
                format!("td-sp({epsilon}m,{speed_epsilon}m/s)")
            }
        }
    }

    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        self.kernel(traj, &mut ws, &mut out);
        out.take()
    }

    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        self.kernel(traj, ws, out);
    }
}

impl DouglasPeucker {
    /// Douglas–Peucker with perpendicular threshold `epsilon` metres.
    pub fn new(epsilon: f64) -> Self {
        DouglasPeucker(TopDown::perpendicular(epsilon))
    }

    /// The underlying generic splitter.
    pub fn inner(&self) -> &TopDown {
        &self.0
    }
}

impl TdTr {
    /// TD-TR with synchronized-distance threshold `epsilon` metres.
    pub fn new(epsilon: f64) -> Self {
        TdTr(TopDown::time_ratio(epsilon))
    }

    /// The underlying generic splitter.
    pub fn inner(&self) -> &TopDown {
        &self.0
    }
}

impl Compressor for DouglasPeucker {
    fn name(&self) -> String {
        self.0.name()
    }
    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        self.0.compress(traj)
    }
    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        self.0.compress_into(traj, ws, out)
    }
}

impl Compressor for TdTr {
    fn name(&self) -> String {
        self.0.name()
    }
    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        self.0.compress(traj)
    }
    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        self.0.compress_into(traj, ws, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sed;

    /// The paper's Fig. 1 shape: mostly-straight series with one spike.
    fn spike() -> Trajectory {
        Trajectory::from_triples([
            (0.0, 0.0, 0.0),
            (1.0, 10.0, 0.5),
            (2.0, 20.0, -0.5),
            (3.0, 30.0, 40.0), // spike
            (4.0, 40.0, 0.3),
            (5.0, 50.0, -0.2),
            (6.0, 60.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn dp_keeps_the_spike() {
        let r = DouglasPeucker::new(5.0).compress(&spike());
        assert!(r.contains(3), "spike must survive: {:?}", r.kept());
        assert!(r.kept_len() < 7);
    }

    #[test]
    fn dp_epsilon_zero_keeps_everything_noncollinear() {
        let r = DouglasPeucker::new(0.0).compress(&spike());
        assert_eq!(r.kept_len(), 7);
    }

    #[test]
    fn dp_collinear_points_collapse_to_endpoints() {
        let t = Trajectory::from_triples((0..50).map(|i| (i as f64, i as f64 * 3.0, 0.0)))
            .unwrap();
        let r = DouglasPeucker::new(0.5).compress(&t);
        assert_eq!(r.kept(), &[0, 49]);
    }

    #[test]
    fn tdtr_keeps_temporal_outliers_dp_misses() {
        // Object moves along a straight road but dwells: spatially
        // collinear, temporally violent. SED sees it; perpendicular
        // doesn't.
        let t = Trajectory::from_triples([
            (0.0, 0.0, 0.0),
            (10.0, 10.0, 0.0),
            (100.0, 20.0, 0.0), // long dwell before this point
            (110.0, 200.0, 0.0),
        ])
        .unwrap();
        let dp = DouglasPeucker::new(5.0).compress(&t);
        assert_eq!(dp.kept(), &[0, 3], "perpendicular metric sees a straight line");
        let tr = TdTr::new(5.0).compress(&t);
        assert!(tr.kept_len() > 2, "SED must keep interior points: {:?}", tr.kept());
    }

    #[test]
    fn iterative_equals_recursive() {
        for eps in [0.0, 1.0, 5.0, 50.0] {
            for td in [TopDown::perpendicular(eps), TopDown::time_ratio(eps)] {
                assert_eq!(
                    td.compress(&spike()).kept(),
                    td.compress_recursive(&spike()).kept(),
                    "eps={eps} criterion={:?}",
                    td.criterion()
                );
            }
        }
    }

    #[test]
    fn compress_into_reuses_workspace() {
        let t = spike();
        let td = TopDown::time_ratio(3.0);
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        for _ in 0..3 {
            td.compress_into(&t, &mut ws, &mut out);
            assert_eq!(out.to_result(), td.compress(&t));
        }
    }

    #[test]
    fn result_respects_epsilon_bound_tdtr() {
        // Post-condition of top-down splitting: every discarded point is
        // within eps of its covering approximation segment.
        let t = spike();
        let eps = 3.0;
        let r = TdTr::new(eps).compress(&t);
        let kept = r.kept();
        for w in kept.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            for i in lo + 1..hi {
                let d = sed(&t.fixes()[lo], &t.fixes()[hi], &t.fixes()[i]);
                assert!(d <= eps, "point {i} deviates {d} > {eps}");
            }
        }
    }

    #[test]
    fn compress_to_count_hits_target() {
        let t = spike();
        for target in 2..=7 {
            let r = TopDown::time_ratio(0.0).compress_to_count(&t, target);
            assert_eq!(r.kept_len(), target, "target {target}");
        }
    }

    #[test]
    fn compress_to_count_keeps_worst_point_first() {
        let r = TopDown::perpendicular(0.0).compress_to_count(&spike(), 3);
        assert_eq!(r.kept(), &[0, 3, 6], "the spike is the worst deviation");
    }

    #[test]
    fn compress_to_count_degenerate_targets() {
        let t = spike();
        let td = TopDown::perpendicular(0.0);
        assert_eq!(td.compress_to_count(&t, 0).kept(), &[0, 6]);
        assert_eq!(td.compress_to_count(&t, 100).kept_len(), 7);
    }

    #[test]
    fn short_inputs_identity() {
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 100.0, 0.0)]).unwrap();
        assert_eq!(DouglasPeucker::new(1.0).compress(&two).kept_len(), 2);
        let one = Trajectory::from_triples([(0.0, 0.0, 0.0)]).unwrap();
        assert_eq!(TdTr::new(1.0).compress(&one).kept_len(), 1);
    }

    #[test]
    fn names_identify_algorithm_and_threshold() {
        assert_eq!(DouglasPeucker::new(30.0).name(), "ndp(30m)");
        assert_eq!(TdTr::new(45.0).name(), "td-tr(45m)");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_negative_epsilon() {
        let _ = TopDown::perpendicular(-1.0);
    }

    /// Deltas only (the registry is global and tests run in parallel).
    #[cfg(feature = "obs")]
    #[test]
    fn compression_flushes_run_metrics() {
        let r = traj_obs::registry();
        let labels: &[(&str, &str)] = &[("algo", "td-tr")];
        let evals = r.counter_with("compress", "sed_evals", labels);
        let points_in = r.counter_with("compress", "points_in", labels);
        let points_out = r.counter_with("compress", "points_out", labels);
        let depth = r.histogram_with("compress", "dp_depth", labels);

        let (e0, i0, o0, d0) = (evals.get(), points_in.get(), points_out.get(), depth.count());
        let result = TdTr::new(5.0).compress(&spike());
        assert!(evals.get() >= e0 + 5, "top-level farthest() alone is 5 evals");
        assert!(points_in.get() >= i0 + 7);
        assert!(points_out.get() >= o0 + result.kept_len() as u64);
        assert!(depth.count() > d0, "one dp_depth observation per run");
    }

    /// Deltas only (the registry is global and tests run in parallel).
    #[cfg(feature = "obs")]
    #[test]
    fn warm_workspace_reuse_is_counted() {
        let r = traj_obs::registry();
        let reuse = r.counter("ws", "reuse");
        let bytes = r.counter("ws", "bytes_saved");
        let td = TopDown::time_ratio(3.0);
        let t = spike();
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        td.compress_into(&t, &mut ws, &mut out); // cold: buffers empty
        let (r0, b0) = (reuse.get(), bytes.get());
        td.compress_into(&t, &mut ws, &mut out); // warm
        assert!(reuse.get() > r0, "warm run must count a reuse");
        assert!(bytes.get() > b0, "warm run must credit bytes");
    }

    #[test]
    fn monotone_compression_in_epsilon() {
        // Larger thresholds never keep more points (on this input family).
        let t = spike();
        let mut prev = usize::MAX;
        for eps in [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0] {
            let k = TdTr::new(eps).compress(&t).kept_len();
            assert!(k <= prev, "eps={eps}: {k} > {prev}");
            prev = k;
        }
    }
}
