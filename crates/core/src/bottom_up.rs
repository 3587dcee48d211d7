//! Bottom-up compression (the third class of the paper's §2 taxonomy).
//!
//! "Starting from the finest possible representation, successive data
//! points are merged until some halting condition is met. The algorithm
//! may not visit all data points in sequence." (paper §2, after Keogh et
//! al. \[10\].)
//!
//! The implementation starts with every point kept and repeatedly removes
//! the point whose removal is *cheapest* — where the cost of removing an
//! interior point is the worst criterion deviation, over all original
//! points it would leave uncovered, from the segment joining its kept
//! neighbours. Removal continues while the cheapest cost stays within the
//! threshold. A lazy max-heap over candidates with a doubly linked list
//! of surviving indices keeps the loop `O(N log N)` heap operations with
//! `O(span)` cost re-evaluation; all of that state is borrowed from the
//! shared [`Workspace`] on the `compress_into` path.
//!
//! Being a batch algorithm with global choice of merge order, bottom-up
//! typically produces better error/compression trade-offs than the online
//! opening-window family at the same threshold — it is included both for
//! taxonomy completeness and as an ablation point.

use std::collections::BinaryHeap;

use crate::criterion::{max_split_value_view, Criterion};
use crate::obs::AlgoRun;
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::{MergeCand, Workspace};
use traj_geom::TrajView;
use traj_model::{TrajColumns, Trajectory};

/// Bottom-up merging compressor over a pluggable [`Criterion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottomUp {
    criterion: Criterion,
}

impl BottomUp {
    /// Creates a bottom-up compressor over `criterion`; points are
    /// removed while the removal cost (worst split value of the merged
    /// segment) stays within the criterion's split threshold.
    ///
    /// # Panics
    /// Panics unless the criterion's thresholds are valid.
    pub fn new(criterion: Criterion) -> Self {
        criterion.validate();
        BottomUp { criterion }
    }

    /// Bottom-up with the synchronized time-ratio metric — the
    /// spatiotemporally sound configuration.
    pub fn time_ratio(epsilon: f64) -> Self {
        BottomUp::new(Criterion::TimeRatio { epsilon })
    }

    /// Bottom-up with the classic perpendicular metric.
    pub fn perpendicular(epsilon: f64) -> Self {
        BottomUp::new(Criterion::Perpendicular { epsilon })
    }

    /// The active criterion.
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }

    /// Worst deviation of the original interior points `left+1..right`
    /// from the `left`–`right` approximation, in split-value units, plus
    /// criterion-evaluation accounting (`right - left - 1` distance
    /// evaluations per call). Computed by the batched columnar fold —
    /// bit-identical to the former per-point `split_value` max loop.
    #[inline]
    fn merge_cost_counted(&self, v: TrajView<'_>, left: usize, right: usize, run: &mut AlgoRun) -> f64 {
        run.sed_evals((right - left).saturating_sub(1) as u64);
        max_split_value_view(&self.criterion, v, left, right)
    }

    /// The merge loop shared by `compress` and `compress_into`: pops the
    /// cheapest candidate, removes it while `halt` allows, and repairs
    /// the neighbour candidates.
    fn kernel(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        let n = traj.len();
        ws.begin(n);
        if n <= 2 {
            out.set_identity(n);
            return;
        }
        let _span = traj_obs::trace_span!("bottom_up.compress", n);
        ws.bind_columns(traj);
        let mut run = AlgoRun::new();
        let threshold = self.criterion.split_threshold();
        // Doubly linked list over surviving indices.
        ws.prev.extend((0..n).map(|i| i.wrapping_sub(1)));
        ws.next.extend(1..=n);
        ws.keep.resize(n, true); // alive mask

        // Field-disjoint borrows: the view reads `ws.cols` while the loop
        // mutates the linked list and the merge heap.
        let v = ws.cols.view();
        for i in 1..n - 1 {
            ws.merge_heap.push(MergeCand {
                cost: self.merge_cost_counted(v, i - 1, i + 1, &mut run),
                idx: i,
                left: i - 1,
                right: i + 1,
            });
        }

        while let Some(c) = ws.merge_heap.pop() {
            run.heap_pop();
            // Lazy invalidation: skip stale entries.
            if !ws.keep[c.idx] || ws.prev[c.idx] != c.left || ws.next[c.idx] != c.right {
                continue;
            }
            if c.cost > threshold {
                break; // cheapest removal already violates: done.
            }
            // Remove c.idx.
            run.merge_step();
            ws.keep[c.idx] = false;
            ws.next[c.left] = c.right;
            ws.prev[c.right] = c.left;
            // Re-evaluate the neighbours' removal costs.
            if c.left > 0 {
                let (l, r) = (ws.prev[c.left], ws.next[c.left]);
                ws.merge_heap.push(MergeCand {
                    cost: self.merge_cost_counted(v, l, r, &mut run),
                    idx: c.left,
                    left: l,
                    right: r,
                });
            }
            if c.right < n - 1 {
                let (l, r) = (ws.prev[c.right], ws.next[c.right]);
                ws.merge_heap.push(MergeCand {
                    cost: self.merge_cost_counted(v, l, r, &mut run),
                    idx: c.right,
                    left: l,
                    right: r,
                });
            }
        }

        out.reset(n);
        out.kept.extend((0..n).filter(|&i| ws.keep[i]));
        run.flush("bottom-up", n, out.kept.len());
    }
}

impl BottomUp {
    /// Bottom-up merging under the paper's third halting condition (§2):
    /// "the sum of the errors of all segments exceeds a user-defined
    /// threshold". Merges cheapest-first while the *total* of
    /// per-segment worst deviations (in the criterion's split-value
    /// units) stays within `total_budget`; the per-point threshold of
    /// `self` is ignored.
    ///
    /// # Panics
    /// Panics unless `total_budget` is finite and non-negative.
    pub fn compress_total_budget(
        &self,
        traj: &Trajectory,
        total_budget: f64,
    ) -> CompressionResult {
        assert!(
            total_budget.is_finite() && total_budget >= 0.0,
            "total_budget must be finite and >= 0"
        );
        let n = traj.len();
        if n <= 2 {
            return CompressionResult::identity(n);
        }
        let cols = TrajColumns::from_fixes(traj.fixes());
        let v = cols.view();
        let mut run = AlgoRun::new();
        let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();
        let mut next: Vec<usize> = (1..=n).collect();
        let mut alive = vec![true; n];
        let mut total = 0.0f64; // Σ per-segment worst deviations (all 0 initially).

        let mut heap = BinaryHeap::with_capacity(n);
        for i in 1..n - 1 {
            heap.push(MergeCand {
                cost: self.merge_cost_counted(v, i - 1, i + 1, &mut run),
                idx: i,
                left: i - 1,
                right: i + 1,
            });
        }
        while let Some(c) = heap.pop() {
            run.heap_pop();
            if !alive[c.idx] || prev[c.idx] != c.left || next[c.idx] != c.right {
                continue;
            }
            // Replacing the two segments around idx with one changes the
            // total by (merged cost − left cost − right cost).
            let left_cost = self.merge_cost_counted(v, c.left, c.idx, &mut run);
            let right_cost = self.merge_cost_counted(v, c.idx, c.right, &mut run);
            let new_total = total + c.cost - left_cost - right_cost;
            if new_total > total_budget {
                // The cheapest remaining merge overruns the budget; any
                // other merge costs at least as much. Stop.
                break;
            }
            total = new_total;
            run.merge_step();
            alive[c.idx] = false;
            next[c.left] = c.right;
            prev[c.right] = c.left;
            if c.left > 0 {
                let (l, r) = (prev[c.left], next[c.left]);
                heap.push(MergeCand {
                    cost: self.merge_cost_counted(v, l, r, &mut run),
                    idx: c.left,
                    left: l,
                    right: r,
                });
            }
            if c.right < n - 1 {
                let (l, r) = (prev[c.right], next[c.right]);
                heap.push(MergeCand {
                    cost: self.merge_cost_counted(v, l, r, &mut run),
                    idx: c.right,
                    left: l,
                    right: r,
                });
            }
        }
        let kept = (0..n).filter(|&i| alive[i]).collect();
        let result = CompressionResult::new(kept, n);
        run.flush("bottom-up-budget", n, result.kept_len());
        result
    }
}

impl Compressor for BottomUp {
    fn name(&self) -> String {
        format!("bottom-up({})", self.criterion.label())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sed;

    fn wiggle() -> Trajectory {
        Trajectory::from_triples((0..40).map(|i| {
            let t = i as f64 * 10.0;
            let x = i as f64 * 50.0;
            let y = if i % 7 == 3 { 60.0 } else { (i % 3) as f64 };
            (t, x, y)
        }))
        .unwrap()
    }

    #[test]
    fn respects_threshold_postcondition() {
        let t = wiggle();
        let eps = 20.0;
        let r = BottomUp::time_ratio(eps).compress(&t);
        let f = t.fixes();
        for w in r.kept().windows(2) {
            for i in w[0] + 1..w[1] {
                let d = sed(&f[w[0]], &f[w[1]], &f[i]);
                assert!(d <= eps + 1e-9, "point {i} deviates {d}");
            }
        }
    }

    #[test]
    fn keeps_large_excursions() {
        let t = wiggle();
        let r = BottomUp::time_ratio(20.0).compress(&t);
        for i in (3..40).step_by(7) {
            assert!(r.contains(i), "excursion at {i} kept: {:?}", r.kept());
        }
    }

    #[test]
    fn zero_threshold_keeps_all_deviating_points() {
        // Straight constant-speed: everything but endpoints removable
        // even at eps = 0.
        let straight =
            Trajectory::from_triples((0..20).map(|i| (i as f64, i as f64 * 5.0, 0.0))).unwrap();
        let r = BottomUp::time_ratio(0.0).compress(&straight);
        assert_eq!(r.kept(), &[0, 19]);
    }

    #[test]
    fn huge_threshold_keeps_endpoints_only() {
        let t = wiggle();
        let r = BottomUp::time_ratio(1e9).compress(&t);
        assert_eq!(r.kept(), &[0, 39]);
    }

    #[test]
    fn perpendicular_metric_variant_works() {
        let t = wiggle();
        let r = BottomUp::perpendicular(20.0).compress(&t);
        assert!(r.kept_len() < t.len());
        assert!(r.kept_len() >= 2);
    }

    #[test]
    fn compresses_at_least_as_well_as_identity() {
        let t = wiggle();
        let r = BottomUp::time_ratio(5.0).compress(&t);
        assert!(r.kept_len() <= t.len());
        assert_eq!(r.kept()[0], 0);
        assert_eq!(*r.kept().last().unwrap(), t.len() - 1);
    }

    #[test]
    fn compress_into_matches_compress_and_reuses_buffers() {
        let t = wiggle();
        let bu = BottomUp::time_ratio(10.0);
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        for _ in 0..2 {
            bu.compress_into(&t, &mut ws, &mut out);
            assert_eq!(out.take(), bu.compress(&t));
        }
    }

    #[test]
    fn degenerate_inputs() {
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).unwrap();
        assert_eq!(BottomUp::time_ratio(1.0).compress(&two).kept_len(), 2);
    }

    #[test]
    fn total_budget_zero_keeps_all_deviating_points() {
        let t = wiggle();
        let r = BottomUp::time_ratio(0.0).compress_total_budget(&t, 0.0);
        // Only zero-cost merges allowed; wiggle has none except possibly
        // collinear runs.
        let full = BottomUp::time_ratio(0.0).compress(&t);
        assert_eq!(r.kept(), full.kept());
    }

    #[test]
    fn total_budget_controls_sum_of_segment_errors() {
        use crate::distance::sed;
        let t = wiggle();
        let budget = 50.0;
        let r = BottomUp::time_ratio(0.0).compress_total_budget(&t, budget);
        let f = t.fixes();
        let total: f64 = r
            .kept()
            .windows(2)
            .map(|w| {
                (w[0] + 1..w[1])
                    .map(|i| sed(&f[w[0]], &f[w[1]], &f[i]))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        assert!(total <= budget + 1e-9, "total segment error {total} over budget {budget}");
        assert!(r.kept_len() < t.len(), "some compression must happen");
    }

    #[test]
    fn larger_total_budget_compresses_more() {
        let t = wiggle();
        let small = BottomUp::time_ratio(0.0).compress_total_budget(&t, 20.0).kept_len();
        let large = BottomUp::time_ratio(0.0).compress_total_budget(&t, 200.0).kept_len();
        assert!(large <= small, "large-budget kept {large} > small-budget kept {small}");
    }

    #[test]
    fn infinite_is_rejected_huge_budget_keeps_endpoints() {
        let t = wiggle();
        let r = BottomUp::time_ratio(0.0).compress_total_budget(&t, 1e12);
        assert_eq!(r.kept(), &[0, 39]);
    }

    #[test]
    fn name_lists_metric_and_threshold() {
        assert_eq!(BottomUp::time_ratio(25.0).name(), "bottom-up(tr,25m)");
        assert_eq!(BottomUp::perpendicular(25.0).name(), "bottom-up(perp,25m)");
    }
}
