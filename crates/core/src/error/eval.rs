//! The one-pass evaluation engine: every error notion from a single
//! linear merge, with cross-threshold memoization.
//!
//! [`super::evaluate`] is the *reference* implementation: it materializes
//! the approximation (`CompressionResult::apply`), then computes each
//! notion independently — rebuilding and re-sorting the elementary-time
//! list per notion and binary-searching positions per instant. Correct,
//! but the experiment harness calls it for every (algorithm × threshold
//! × trajectory) cell of the paper's figures, where it dominates the run
//! time now that compression itself answers a whole threshold grid in
//! one pass (`DESIGN.md` §2b).
//!
//! This module exploits the structural fact the reference path ignores:
//! a [`CompressionResult`] keeps a **subsequence** of the original's
//! fixes. Consequences, for original `p` and approximation
//! `a = p.select(kept)`:
//!
//! * the merged elementary instants of `(p, a)` are exactly `p`'s own
//!   vertex instants — no merge, no sort, no dedup;
//! * `a`'s synchronized position at an original instant `t` inside the
//!   kept anchor pair `(lo, hi)` is `Fix::interpolate(p[lo], p[hi], t)`
//!   — no binary search, no materialized trajectory;
//! * therefore *all* notions — the `α` integral (eq. 3), the max
//!   synchronous error, the SED mean/max/quantile samples and the
//!   perpendicular errors — fall out of one O(n + m) cursor merge of the
//!   original fixes against the kept-anchor segments.
//!
//! [`ErrorEval`] is that merge; scratch lives in a reusable
//! [`EvalWorkspace`] so a warm evaluation allocates nothing.
//!
//! **Cross-threshold memoization.** Nested top-down results share
//! anchor segments: tightening the threshold only *splits* segments, so
//! most `(lo, hi)` pairs recur across the paper's fifteen thresholds.
//! The workspace caches, per anchor segment, the per-interval
//! contribution terms (the α integrand, the SED sample, the
//! perpendicular distance — the same pattern as the TD-SP sweep memo of
//! `crate::workspace::SpStats`); evaluating another threshold then only
//! re-sums cached terms. Terms — not partial sums — are cached so the
//! flat, in-order summation of the reference path is reproduced exactly:
//! every field of the returned [`Evaluation`] equals
//! [`super::evaluate`]'s, bit for bit (pinned by the proptests in
//! `tests/eval_engine.rs`).

use crate::error::synchronized::mean_linear_displacement;
use crate::error::Evaluation;
use crate::pair_map::PairMap;
use crate::result::CompressionResult;
use traj_geom::numeric::approx_zero;
use traj_geom::Vec2;
use traj_model::{Fix, TrajColumns, Trajectory};

/// Cache entry for one anchor segment: where its per-interval terms
/// live, plus the segment-level maxima.
///
/// The maxima are cached *reduced* — unlike the sums, a maximum is
/// associative and commutative over the non-negative finite distances
/// involved, so folding cached per-segment maxima yields bit-identical
/// results to the reference path's flat per-term max while costing the
/// warm re-evaluation two `max` operations per segment instead of two
/// per term.
#[derive(Debug, Clone, Copy)]
struct SegEntry {
    /// Offset of the segment's `hi - lo` terms in `EvalWorkspace::terms`.
    off: usize,
    /// Max synchronous distance over the segment's end vertices
    /// (seeded at `0.0`, as the reference fold's accumulator is).
    d_max: f64,
    /// Max perpendicular distance over the segment's removed vertices
    /// (seeded at `0.0`).
    perp_max: f64,
}

/// Contributions of one elementary interval `[i, i+1]` inside a kept
/// anchor segment, cached per `(lo, hi)` anchor pair.
#[derive(Debug, Clone, Copy)]
struct SegTerm {
    /// `Δt · ∫₀¹|δ|` — this interval's term of the α numerator (eq. 3).
    alpha: f64,
    /// Synchronous distance at the interval's end vertex — the SED
    /// sample at that original instant, and the candidate for the max
    /// synchronous error (|δ| is convex per interval, so vertex maxima
    /// are exact).
    d_end: f64,
    /// Perpendicular distance of the end vertex to the anchor chord;
    /// 0 when the end vertex is the anchor end itself (kept points are
    /// never "removed", so the value is unused there).
    perp: f64,
}

/// Reusable scratch for the one-pass evaluation engine — the evaluation
/// twin of [`crate::Workspace`].
///
/// Holds the identity-keyed trajectory columns (the structure-of-arrays
/// the cursor merge reads), the per-trajectory segment-contribution
/// cache and the SED sample buffer. Reuse one workspace across a sweep
/// (or a whole dataset) to keep evaluation allocation-free once warm;
/// the cache automatically resets when a different trajectory is
/// evaluated; until then it serves any compressor's results on that
/// trajectory (`traj_eval::sweep_algos` keeps one per trajectory per figure).
/// A compression [`crate::Workspace`] that already columnized
/// the same trajectory can hand its columns over through
/// [`seed_columns`](EvalWorkspace::seed_columns), so a compress→evaluate
/// pipeline de-interleaves each trajectory exactly once.
///
/// With the `obs` feature enabled, warm rebinds are counted in the
/// `eval.ws_reuse` metric, evaluated cells in `eval.cells`, anchor
/// segments served without computing terms (cache hits and single
/// intervals) in `eval.cache_hits`, and column binds in
/// `layout.cols_built` / `layout.cols_reuse` (see `crates/obs/README.md`).
#[derive(Debug, Default)]
pub struct EvalWorkspace {
    /// Anchor segment `(lo, hi)` → term offset and cached maxima.
    seg_at: PairMap<SegEntry>,
    /// Arena of cached per-interval terms, in discovery order.
    terms: Vec<SegTerm>,
    /// SED sample scratch for the quantile queries.
    seds: Vec<f64>,
    /// Columnar copy of the bound trajectory. Its identity key doubles
    /// as the cache invalidation signal for `seg_at`/`terms`.
    cols: TrajColumns,
}

impl EvalWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        EvalWorkspace::default()
    }

    /// Points the cache at `traj`, clearing it if it belonged to a
    /// different trajectory (capacity is retained either way).
    fn bind(&mut self, traj: &Trajectory) {
        let rebuilt = self.cols.bind(traj);
        #[cfg(feature = "obs")]
        crate::obs::note_columns(rebuilt);
        if !rebuilt {
            return;
        }
        #[cfg(feature = "obs")]
        if self.terms.capacity() > 0 {
            traj_obs::registry().counter("eval", "ws_reuse").inc();
        }
        self.seg_at.clear();
        self.terms.clear();
    }

    /// Installs columns another workspace already filled (see
    /// [`crate::Workspace::take_columns`]). If they come from a
    /// different trajectory than the current binding, the segment cache
    /// is invalidated; if they are the same trajectory's, both the
    /// columns and the cache survive.
    pub fn seed_columns(&mut self, cols: TrajColumns) {
        if !cols.same_source(&self.cols) {
            self.seg_at.clear();
            self.terms.clear();
            self.cols = cols;
        }
    }
}

/// The one-pass error evaluator for one original trajectory.
///
/// Construct once per trajectory, then [`evaluate`](ErrorEval::evaluate)
/// any number of [`CompressionResult`]s against it — each evaluation is
/// a single forward merge of the original fixes with the result's kept
/// anchors, and anchor segments shared between results (ubiquitous
/// across a threshold sweep) are computed once.
///
/// Every field of the returned [`Evaluation`] is exactly equal to the
/// reference [`super::evaluate`] — same operands, same summation order.
///
/// ```
/// use traj_compress::{Compressor, ErrorEval, EvalWorkspace, TdTr, evaluate};
/// use traj_model::Trajectory;
///
/// let trip = Trajectory::from_triples(
///     (0..50).map(|i| (f64::from(i) * 10.0, f64::from(i * i), 0.0)),
/// )
/// .unwrap();
/// let result = TdTr::new(25.0).compress(&trip);
///
/// let mut ws = EvalWorkspace::new();
/// let fast = ErrorEval::new(&trip, &mut ws).evaluate(&result);
/// assert_eq!(fast, evaluate(&trip, &result));
/// ```
#[derive(Debug)]
pub struct ErrorEval<'a> {
    fixes: &'a [Fix],
    /// Observation span in seconds — the α denominator.
    span_s: f64,
    ws: &'a mut EvalWorkspace,
    #[cfg(feature = "obs")]
    cells: u64,
    #[cfg(feature = "obs")]
    cache_hits: u64,
}

impl<'a> ErrorEval<'a> {
    /// Binds the engine (and the workspace cache) to `traj`.
    ///
    /// # Panics
    /// Panics if `traj` has fewer than two fixes — such a trajectory has
    /// no observation interval to average over (the reference path
    /// rejects it for the same reason).
    pub fn new(traj: &'a Trajectory, ws: &'a mut EvalWorkspace) -> Self {
        assert!(traj.len() >= 2, "evaluation requires at least two fixes");
        ws.bind(traj);
        let span_s = traj.last().t.as_secs() - traj.first().t.as_secs();
        ErrorEval {
            fixes: traj.fixes(),
            span_s,
            ws,
            #[cfg(feature = "obs")]
            cells: 0,
            #[cfg(feature = "obs")]
            cache_hits: 0,
        }
    }

    /// Evaluates one compression result under every error notion — the
    /// one-pass equivalent of [`super::evaluate`].
    ///
    /// With the `obs` feature and an active [`traj_obs::trace`] session,
    /// each evaluated result emits `eval.cache_hits` / `eval.cache_misses`
    /// instant events (anchor segments served without computing terms vs.
    /// added to the workspace cache), so the memoization is visible on the
    /// timeline.
    ///
    /// # Panics
    /// Panics if `result` does not belong to the bound trajectory
    /// (length mismatch).
    pub fn evaluate(&mut self, result: &CompressionResult) -> Evaluation {
        assert_eq!(
            self.fixes.len(),
            result.original_len(),
            "result/trajectory mismatch"
        );
        #[cfg(feature = "obs")]
        let hits_before = {
            self.cells += 1;
            self.cache_hits
        };
        let n = self.fixes.len();
        // Flat accumulators, updated in original-fix order across anchor
        // segments — the exact summation order of the reference path.
        let mut alpha_num = 0.0;
        let mut sed_sum = 0.0;
        let mut d_max = 0.0f64;
        let mut perp_sum = 0.0;
        let mut perp_max = 0.0f64;
        let kept = result.kept();
        for (&lo, &hi) in kept.iter().zip(kept.iter().skip(1)) {
            let Some(e) = self.seg_terms(lo, hi) else { continue };
            let seg = &self.ws.terms[e.off..e.off + (hi - lo)];
            // Three independent ordered add chains — the sums must keep
            // the reference path's flat per-term order bit-for-bit, so
            // they stay serial. The last term's `perp` is stored as
            // exactly `0.0` (its end vertex is kept), and the
            // accumulator is `+0.0` or a positive/`inf` sum of
            // non-negative distances, so adding it is a bitwise no-op —
            // no per-term branch or split needed.
            for term in seg {
                alpha_num += term.alpha;
                sed_sum += term.d_end;
                perp_sum += term.perp;
            }
            // Maxima fold from the per-segment cache; `max` over the
            // non-negative distances is associative, so this matches the
            // reference path's flat per-term max exactly.
            d_max = d_max.max(e.d_max);
            perp_max = perp_max.max(e.perp_max);
        }
        #[cfg(feature = "obs")]
        {
            let hits = self.cache_hits - hits_before;
            let segments = (kept.len() as u64).saturating_sub(1);
            traj_obs::trace_instant!("eval.cache_hits", hits);
            traj_obs::trace_instant!("eval.cache_misses", segments - hits);
        }
        let removed = n - result.kept_len();
        Evaluation {
            compression_pct: result.compression_pct(),
            avg_sync_err_m: alpha_num / self.span_s,
            // The elementary instants are the sample instants, so the
            // continuous max (attained at an interval endpoint — |δ| is
            // convex per interval) coincides with the max SED sample.
            max_sync_err_m: d_max,
            mean_sed_m: sed_sum / n as f64,
            max_sed_m: d_max,
            mean_perp_m: if removed == 0 {
                0.0
            } else {
                perp_sum / removed as f64
            },
            max_perp_m: perp_max,
        }
    }

    /// SED quantiles of `result` at the original sample instants —
    /// nearest-rank, one value per entry of `quantiles`, semantics
    /// identical to [`super::sed_quantiles`] on the materialized
    /// approximation. The samples come from the same cached terms as
    /// [`evaluate`](ErrorEval::evaluate); only the sort is extra.
    ///
    /// # Panics
    /// Panics if any quantile is outside `[0, 1]`, or on a
    /// result/trajectory length mismatch.
    pub fn sed_quantiles(&mut self, result: &CompressionResult, quantiles: &[f64]) -> Vec<f64> {
        assert!(
            quantiles.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantiles must lie in [0, 1]"
        );
        assert_eq!(
            self.fixes.len(),
            result.original_len(),
            "result/trajectory mismatch"
        );
        let mut seds = std::mem::take(&mut self.ws.seds);
        seds.clear();
        // The first vertex is always kept: its SED sample is exactly 0.
        seds.push(0.0);
        let kept = result.kept();
        for (&lo, &hi) in kept.iter().zip(kept.iter().skip(1)) {
            let Some(e) = self.seg_terms(lo, hi) else {
                seds.push(0.0); // one interval: the sample at its kept end
                continue;
            };
            seds.extend(self.ws.terms[e.off..e.off + (hi - lo)].iter().map(|t| t.d_end));
        }
        seds.sort_unstable_by(f64::total_cmp);
        let n = seds.len();
        let out = quantiles
            .iter()
            .map(|&q| {
                // Nearest-rank quantile, as in the reference path.
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                seds[rank - 1]
            })
            .collect();
        self.ws.seds = seds;
        out
    }

    /// The terms of anchor segment `(lo, hi)`: cached offset if seen
    /// before, else one linear walk over the covered elementary
    /// intervals, reading the workspace's columnar copy of the
    /// trajectory with all anchor-invariant subexpressions (time span,
    /// chord direction and length, degeneracy flags) hoisted out of the
    /// loop. Every per-point operation keeps the exact operand order of
    /// the former fix-based walk (`Fix::interpolate`, `Point2::distance`,
    /// `Segment::line_distance`), so each term is bit-identical.
    /// `None` for a single interval `(lo, lo + 1)`: δ is zero at both ends,
    /// so all its terms are `+0.0` (α's `Δt · 0` given a finite span), a
    /// bitwise no-op (see `evaluate`); counted as a hit, as it is served.
    fn seg_terms(&mut self, lo: usize, hi: usize) -> Option<SegEntry> {
        let single = hi == lo + 1 && self.span_s.is_finite();
        let cached = if single { None } else { self.ws.seg_at.get(&(lo, hi)).copied() };
        if single || cached.is_some() {
            #[cfg(feature = "obs")]
            {
                self.cache_hits += 1;
            }
            return cached;
        }
        // Field-disjoint borrows: the view reads `ws.cols` while the
        // loop appends to `ws.terms`.
        let ws = &mut *self.ws;
        let v = ws.cols.view();
        let (ts, xs, ys) = (v.ts, v.xs, v.ys);
        let (ta, ax, ay) = (ts[lo], xs[lo], ys[lo]);
        let (tb, bx, by) = (ts[hi], xs[hi], ys[hi]);
        // `Fix::interpolate`'s `ratio_within` denominator and its
        // degenerate (zero-span → anchor start) branch.
        let span = tb - ta;
        let span_degenerate = approx_zero(span, 0.0);
        // `Segment::line_distance`'s chord direction/length and its
        // degenerate (coincident endpoints → point distance) branch.
        let (dx, dy) = (bx - ax, by - ay);
        let len = (dx * dx + dy * dy).sqrt();
        let len_degenerate = approx_zero(len, 0.0);
        let off = ws.terms.len();
        ws.terms.reserve(hi - lo);
        // Displacement δ at the anchor start: the approximation passes
        // through the kept fix, so δ is exactly zero — bit-identical to
        // the reference path's `p - p` subtraction of finite coordinates.
        let mut d0 = Vec2::ZERO;
        // Segment-level maxima, reduced once at build time (see
        // `SegEntry`). Seeded at `0.0` like the reference accumulators;
        // the distances are `sqrt` results, so never negative or `-0.0`.
        let mut seg_d_max = 0.0f64;
        let mut seg_perp_max = 0.0f64;
        for i in lo..hi {
            let (t1, px, py) = (ts[i + 1], xs[i + 1], ys[i + 1]);
            // The approximation's synchronized position at p1's instant:
            // the kept vertex itself at the anchor end, else the linear
            // interpolation along the anchor — the same operands
            // `position_at` would reach through its binary search.
            let (a1x, a1y) = if i + 1 == hi {
                (bx, by)
            } else if span_degenerate {
                (ax, ay)
            } else {
                let f = (t1 - ta) / span;
                (ax + dx * f, ay + dy * f)
            };
            let d1 = Vec2::new(px - a1x, py - a1y);
            let dt = t1 - ts[i];
            let (ex, ey) = (a1x - px, a1y - py);
            let d_end = (ex * ex + ey * ey).sqrt();
            if d_end > seg_d_max {
                seg_d_max = d_end;
            }
            let perp = if i + 1 == hi {
                0.0
            } else if len_degenerate {
                let (gx, gy) = (ax - px, ay - py);
                (gx * gx + gy * gy).sqrt()
            } else {
                (dx * (py - ay) - dy * (px - ax)).abs() / len
            };
            if perp > seg_perp_max {
                seg_perp_max = perp;
            }
            ws.terms.push(SegTerm {
                alpha: dt * mean_linear_displacement(d0, d1),
                d_end,
                perp,
            });
            d0 = d1;
        }
        let e = SegEntry {
            off,
            d_max: seg_d_max,
            perp_max: seg_perp_max,
        };
        ws.seg_at.insert((lo, hi), e);
        Some(e)
    }
}

#[cfg(feature = "obs")]
impl Drop for ErrorEval<'_> {
    /// Flushes the per-engine counters into the registry exactly once —
    /// the same accumulate-then-flush discipline as `crate::obs::AlgoRun`.
    fn drop(&mut self) {
        if self.cells > 0 {
            let r = traj_obs::registry();
            r.counter("eval", "cells").add(self.cells);
            r.counter("eval", "cache_hits").add(self.cache_hits);
        }
    }
}

/// Evaluates every result of a threshold sweep against `original` in one
/// engine pass: anchor segments shared between thresholds (the common
/// case for nested top-down results) are computed once and re-summed per
/// threshold. Each returned [`Evaluation`] is exactly equal — bit for
/// bit — to [`super::evaluate`] on the same cell.
///
/// # Panics
/// Panics if `original` has fewer than two fixes or any result does not
/// belong to it.
pub fn evaluate_sweep(
    original: &Trajectory,
    results: &[CompressionResult],
    ws: &mut EvalWorkspace,
) -> Vec<Evaluation> {
    let mut ev = ErrorEval::new(original, ws);
    results.iter().map(|r| ev.evaluate(r)).collect()
}

/// One-pass, workspace-borrowing form of [`super::evaluate`]: same
/// result (exactly), no approximation materialized, scratch served from
/// `ws`.
///
/// # Panics
/// Panics if `original` has fewer than two fixes or `result` does not
/// belong to it.
pub fn evaluate_with(
    original: &Trajectory,
    result: &CompressionResult,
    ws: &mut EvalWorkspace,
) -> Evaluation {
    ErrorEval::new(original, ws).evaluate(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{evaluate, sed_quantiles};
    use crate::result::Compressor;

    fn t(triples: &[(f64, f64, f64)]) -> Trajectory {
        Trajectory::from_triples(triples.iter().copied()).unwrap()
    }

    fn zigzag(n: usize) -> Trajectory {
        Trajectory::from_triples((0..n).map(|i| {
            let s = i as f64 * 10.0;
            (s, s * 7.0, ((i * 13) % 9) as f64 * 21.0)
        }))
        .unwrap()
    }

    #[test]
    fn identity_result_has_zero_errors() {
        let p = zigzag(12);
        let mut ws = EvalWorkspace::new();
        let e = evaluate_with(&p, &CompressionResult::identity(12), &mut ws);
        assert_eq!(e.compression_pct, 0.0);
        assert_eq!(e.avg_sync_err_m, 0.0);
        assert_eq!(e.max_sync_err_m, 0.0);
        assert_eq!(e.mean_sed_m, 0.0);
        assert_eq!(e.mean_perp_m, 0.0);
        assert_eq!(e.max_perp_m, 0.0);
    }

    #[test]
    fn matches_reference_on_detour() {
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0), (20.0, 100.0, 100.0)]);
        let r = CompressionResult::new(vec![0, 2], 3);
        let mut ws = EvalWorkspace::new();
        assert_eq!(evaluate_with(&p, &r, &mut ws), evaluate(&p, &r));
    }

    #[test]
    fn matches_reference_across_compressors() {
        let p = zigzag(60);
        let mut ws = EvalWorkspace::new();
        for eps in [5.0, 20.0, 60.0, 150.0] {
            for r in [
                crate::douglas_peucker::TdTr::new(eps).compress(&p),
                crate::douglas_peucker::DouglasPeucker::new(eps).compress(&p),
                crate::opening_window::OpeningWindow::opw_tr(eps).compress(&p),
            ] {
                assert_eq!(
                    evaluate_with(&p, &r, &mut ws),
                    evaluate(&p, &r),
                    "eps={eps}"
                );
            }
        }
    }

    #[test]
    fn sweep_matches_per_cell_and_caches_shared_segments() {
        let p = zigzag(80);
        let td = crate::douglas_peucker::TopDown::time_ratio(0.0);
        let grid = [10.0, 20.0, 40.0, 80.0, 160.0];
        let mut cws = crate::workspace::Workspace::new();
        let results = td.sweep_with(&p, &grid, &mut cws);
        let mut ws = EvalWorkspace::new();
        let evals = evaluate_sweep(&p, &results, &mut ws);
        assert_eq!(evals.len(), grid.len());
        for (e, r) in evals.iter().zip(&results) {
            assert_eq!(*e, evaluate(&p, r));
        }
        // Nested results cover each elementary interval once per
        // *distinct* segment; far fewer terms than intervals × thresholds.
        assert!(
            ws.terms.len() < (p.len() - 1) * grid.len(),
            "cache failed to share segments: {} terms",
            ws.terms.len()
        );
    }

    #[test]
    fn workspace_rebinds_between_trajectories() {
        let p1 = zigzag(20);
        let p2 = zigzag(25);
        let mut ws = EvalWorkspace::new();
        let r1 = CompressionResult::new(vec![0, 19], 20);
        let r2 = CompressionResult::new(vec![0, 24], 25);
        let a = evaluate_with(&p1, &r1, &mut ws);
        let b = evaluate_with(&p2, &r2, &mut ws);
        assert_eq!(a, evaluate(&p1, &r1));
        assert_eq!(b, evaluate(&p2, &r2));
        // Re-evaluating the first trajectory after rebinding stays right.
        assert_eq!(evaluate_with(&p1, &r1, &mut ws), a);
    }

    #[test]
    fn quantiles_match_reference_path() {
        let p = zigzag(40);
        let r = crate::douglas_peucker::TdTr::new(30.0).compress(&p);
        let approx = r.apply(&p);
        let qs = [0.0, 0.25, 0.5, 0.9, 0.95, 1.0];
        let mut ws = EvalWorkspace::new();
        let fast = ErrorEval::new(&p, &mut ws).sed_quantiles(&r, &qs);
        assert_eq!(fast, sed_quantiles(&p, &approx, &qs));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_result_panics() {
        let p = zigzag(10);
        let r = CompressionResult::new(vec![0, 4], 5);
        let mut ws = EvalWorkspace::new();
        let _ = evaluate_with(&p, &r, &mut ws);
    }

    #[test]
    #[should_panic(expected = "two fixes")]
    fn single_fix_trajectory_rejected() {
        let p = Trajectory::from_triples([(0.0, 1.0, 2.0)]).unwrap();
        let mut ws = EvalWorkspace::new();
        let _ = ErrorEval::new(&p, &mut ws);
    }

    /// A span too long for `f64` makes `Δt` infinite and a single
    /// interval's α term `∞ · 0 = NaN`; the engine must still agree with
    /// the reference there, so such intervals are not skipped.
    #[test]
    fn single_intervals_of_an_overflowing_span_match_reference() {
        let p =
            t(&[(-1e308, 0.0, 0.0), (1e308, 5.0, 1.0), (1.2e308, 9.0, 3.0), (1.4e308, 1.0, 0.0)]);
        let mut ws = EvalWorkspace::new();
        for kept in [vec![0, 1, 2, 3], vec![0, 1, 3], vec![0, 3]] {
            let r = CompressionResult::new(kept, 4);
            let fast = evaluate_with(&p, &r, &mut ws);
            assert_eq!(format!("{fast:?}"), format!("{:?}", evaluate(&p, &r)));
        }
    }

    /// Every anchor segment of every result is either served (a memo
    /// hit, or a single interval skipped) or computed once (a miss, one
    /// memo entry): hits + misses = Σ (kept − 1), over results of three
    /// compressors sharing one memo.
    #[cfg(feature = "obs")]
    #[test]
    fn hits_and_misses_count_every_anchor_segment() {
        let p = zigzag(90);
        let grid = [5.0, 15.0, 40.0, 90.0];
        let mut cws = crate::workspace::Workspace::new();
        let mut results = crate::douglas_peucker::TopDown::time_ratio(0.0)
            .sweep_with(&p, &grid, &mut cws);
        let opw_tr = crate::opening_window::OpeningWindow::opw_tr(0.0);
        results.extend(opw_tr.sweep_with(&p, &grid, &mut cws));
        results.extend(grid.map(|e| crate::one_pass::OnePassCone::new(e).compress(&p)));
        let segments: usize = results.iter().map(|r| r.kept_len() - 1).sum();
        let singles = results
            .iter()
            .flat_map(|r| r.kept().windows(2))
            .filter(|w| w[1] == w[0] + 1)
            .count();
        assert!(singles > 0, "the sample must exercise the single-interval rule");
        let mut ws = EvalWorkspace::new();
        let mut ev = ErrorEval::new(&p, &mut ws);
        for r in &results {
            assert_eq!(ev.evaluate(r), evaluate(&p, r));
        }
        let hits = ev.cache_hits as usize;
        drop(ev);
        let misses = ws.seg_at.len();
        assert_eq!(hits + misses, segments);
        assert!(hits >= singles);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn counters_track_cells_and_cache_hits() {
        let reg = traj_obs::registry();
        let cells = reg.counter("eval", "cells");
        let hits = reg.counter("eval", "cache_hits");
        let c0 = cells.get();
        let h0 = hits.get();
        let p = zigzag(50);
        let td = crate::douglas_peucker::TopDown::time_ratio(0.0);
        let grid = [20.0, 20.0, 20.0]; // identical thresholds: maximal sharing
        let mut cws = crate::workspace::Workspace::new();
        let results = td.sweep_with(&p, &grid, &mut cws);
        let mut ws = EvalWorkspace::new();
        let _ = evaluate_sweep(&p, &results, &mut ws);
        assert!(cells.get() >= c0 + 3, "three cells evaluated");
        assert!(
            hits.get() > h0,
            "repeat thresholds must hit the segment cache"
        );
    }
}
