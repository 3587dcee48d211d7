//! The discarding criterion: one type, [`Criterion`], for every
//! compressor in this crate.
//!
//! Every compressor answers the same two questions about a candidate
//! approximation segment `anchor → float` — the *chord scan*:
//!
//! 1. **Violation** — does intermediate point `i` deviate beyond the
//!    configured threshold(s)? (The opening-window, sliding-window and
//!    streaming families stop growing a segment on the first violation.)
//! 2. **Split ranking** — *how badly* does point `i` deviate, on a scale
//!    where exceeding [`Criterion::split_threshold`] means the point must
//!    be kept? (The top-down and bottom-up families pick the
//!    worst-ranked point.)
//!
//! The three variants — perpendicular distance, synchronized time-ratio
//! distance, and SED blended with the derived speed difference
//! ([`Criterion::TimeRatioSpeed`]) — cover the paper's whole algorithm
//! matrix (§2 line-generalization baselines, §3.2 time-ratio, §3.3
//! spatiotemporal). Each method `match`es on the variant once, so there
//! is exactly one copy of each distance decision in the crate.
//!
//! The scalar methods take a *slice* of fixes with indices relative to
//! that slice: the recursive top-down reference passes the full
//! trajectory, while [`crate::streaming::OwStream`] passes its buffered
//! window — the decisions are identical because a window always contains
//! the anchor and the scanned point's immediate neighbours. The batch
//! kernels read trajectory columns instead: [`Criterion::scan_segment`]
//! ranks splits for the top-down family, and the opening-window engine
//! (`crate::opening_window`, which also serves the sliding window)
//! answers the violation question from one column of window distances,
//! compared against each threshold, plus the point-local speed
//! difference. Both read the one distance kernel per distance in
//! `traj_geom::soa`. The scalar methods stay the reference both batch
//! paths are pinned against.

use crate::distance::{perpendicular_distance, sed};
use traj_geom::numeric::approx_zero;
use traj_geom::soa::{perp_dists_into, sed_dists_into};
use traj_geom::TrajView;
use traj_model::Fix;

/// Distance values staged per batch by the `scan_segment` family: small
/// enough to live on the stack (no allocation on the hot path), large
/// enough for the batched kernels in `traj-geom` to vectorize.
const SCAN_CHUNK: usize = 64;

/// Result of a batched [`Criterion::scan_segment`] over the
/// interior points `lo+1 .. hi` of one candidate segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitDecision {
    /// First interior index attaining the maximum split value — the
    /// farthest-point selection of the top-down kernels (`lo + 1` when
    /// the segment has no interior points).
    pub split: usize,
    /// The maximum split value, in [`Criterion::split_threshold`]
    /// units (`f64::NEG_INFINITY` when the segment has no interior).
    pub value: f64,
}

/// Absolute derived-speed difference `‖vᵢ − vᵢ₋₁‖` at slice index `i`
/// (paper §3.3), or `None` when `i` has no two adjacent segments.
#[inline]
pub(crate) fn speed_difference_at(fixes: &[Fix], i: usize) -> Option<f64> {
    if i == 0 || i + 1 >= fixes.len() {
        return None;
    }
    let v_prev = fixes[i - 1].speed_to(&fixes[i])?;
    let v_next = fixes[i].speed_to(&fixes[i + 1])?;
    Some((v_next - v_prev).abs())
}

/// Columnar twin of [`speed_difference_at`], reading a [`TrajView`]
/// instead of fix structs. Same operation sequence (elapsed seconds,
/// point distance, quotient, absolute difference), hence the same bits.
#[inline]
pub(crate) fn speed_difference_view(v: TrajView<'_>, i: usize) -> Option<f64> {
    if i == 0 || i + 1 >= v.len() {
        return None;
    }
    let v_prev = speed_between(v, i - 1, i)?;
    let v_next = speed_between(v, i, i + 1)?;
    Some((v_next - v_prev).abs())
}

/// `Fix::speed_to` over columns: average speed from point `a` to `b`,
/// `None` on a zero (or NaN) time step.
#[inline]
fn speed_between(v: TrajView<'_>, a: usize, b: usize) -> Option<f64> {
    // Checked lookups: the callers pass in-bounds indices, so the `?`
    // never fires — it just keeps this kernel provably panic-free.
    let dt = *v.ts.get(b)? - *v.ts.get(a)?;
    if approx_zero(dt, 0.0) {
        return None;
    }
    let dx = *v.xs.get(a)? - *v.xs.get(b)?;
    let dy = *v.ys.get(a)? - *v.ys.get(b)?;
    Some((dx * dx + dy * dy).sqrt() / dt.abs())
}

/// The dimensionless [`Criterion::TimeRatioSpeed`] blend
/// `max(d/epsilon, dv/speed_epsilon)` for one interior point, given its
/// SED `d` and derived speed difference `dv` — shared by the scalar
/// [`Criterion::split_value`] and the batched scans.
#[inline]
fn trs_blend(d: f64, dv: Option<f64>, epsilon: f64, speed_epsilon: f64) -> f64 {
    let ds = if epsilon > 0.0 {
        d / epsilon
    } else if d > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let vs = dv.map(|x| x / speed_epsilon).unwrap_or(0.0);
    ds.max(vs)
}

/// Shared chunked scan for the single-distance criteria: stages up to
/// [`SCAN_CHUNK`] distances on the stack via `fill`, then reduces them
/// in index order to the first strict argmax (seeded at `NEG_INFINITY`,
/// the top-down selection rule).
fn scan_dists(
    v: TrajView<'_>,
    lo: usize,
    hi: usize,
    fill: fn(TrajView<'_>, usize, usize, usize, &mut [f64]),
) -> SplitDecision {
    let mut best = (lo + 1, f64::NEG_INFINITY);
    let mut buf = [0.0f64; SCAN_CHUNK];
    let mut i = lo + 1;
    while i < hi {
        let len = SCAN_CHUNK.min(hi - i);
        // `len <= SCAN_CHUNK` by construction, so the checked reborrow
        // always succeeds; `get_mut` keeps the scan provably panic-free.
        let Some(chunk) = buf.get_mut(..len) else {
            break;
        };
        fill(v, lo, hi, i, chunk);
        // Branch-free chunk max first (lane-independent folds the
        // backend keeps in vector registers), then rescan the staged
        // chunk for an index only when it can actually contribute —
        // the common chunk costs no per-element branches at all.
        let m = chunk_max(chunk);
        if m > best.1 {
            // First in-chunk occurrence of the max == the index the
            // first-strict-argmax loop would have picked. NaN distances
            // never exceed `best.1`, exactly as in the scalar loop.
            let k = chunk.iter().position(|&d| d == m).unwrap_or(0);
            best = (i + k, m);
        }
        i += len;
    }
    SplitDecision { split: best.0, value: best.1 }
}

/// The [`Criterion::TimeRatioSpeed`] scan: the SEDs batch as in
/// [`scan_dists`], while the speed-difference term is inherently
/// point-local (three neighbours), so it stays scalar per element.
fn scan_blend(
    v: TrajView<'_>,
    lo: usize,
    hi: usize,
    epsilon: f64,
    speed_epsilon: f64,
) -> SplitDecision {
    let mut best = (lo + 1, f64::NEG_INFINITY);
    let mut buf = [0.0f64; SCAN_CHUNK];
    let mut i = lo + 1;
    while i < hi {
        let len = SCAN_CHUNK.min(hi - i);
        // Checked reborrow, as in `scan_dists`: it always succeeds.
        let Some(chunk) = buf.get_mut(..len) else {
            break;
        };
        sed_dists_into(v, lo, hi, i, chunk);
        for (k, &d) in chunk.iter().enumerate() {
            let dv = speed_difference_view(v, i + k);
            let val = trs_blend(d, dv, epsilon, speed_epsilon);
            if val > best.1 {
                best = (i + k, val);
            }
        }
        i += len;
    }
    SplitDecision { split: best.0, value: best.1 }
}

/// Maximum of a staged distance chunk, NaN entries ignored (they can
/// never win a `>` comparison in the scalar loops either). Four
/// independent lane accumulators so the fold vectorizes without FP
/// reassociation; max is associative over the non-NaN reals, so the
/// lane-combine order cannot change the result.
#[inline]
fn chunk_max(chunk: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 4];
    for q in chunk.chunks_exact(4) {
        for (lane, &d) in lanes.iter_mut().zip(q) {
            if d > *lane {
                *lane = d;
            }
        }
    }
    let [l0, l1, l2, l3] = lanes;
    let mut m = l0.max(l1).max(l2.max(l3));
    for &d in chunk.iter().skip(chunk.len() - chunk.len() % 4) {
        if d > m {
            m = d;
        }
    }
    m
}

/// Writes the interior distances of the window `anchor → float` to
/// `out`, which holds `float - anchor - 1` entries (SED, or the
/// perpendicular distance for [`Criterion::Perpendicular`]), and returns
/// their maximum, NaN ignored (`NEG_INFINITY` when no distance is a
/// number). The window has a distance violation at `epsilon` exactly
/// when the result exceeds `epsilon`, and the first violating point is
/// the first entry of `out` above it — the one window test of the
/// opening-window engine, shared across thresholds.
pub(crate) fn window_dists_into(
    c: &Criterion,
    v: TrajView<'_>,
    anchor: usize,
    float: usize,
    out: &mut [f64],
) -> f64 {
    match c {
        Criterion::Perpendicular { .. } => perp_dists_into(v, anchor, float, anchor + 1, out),
        Criterion::TimeRatio { .. } | Criterion::TimeRatioSpeed { .. } => {
            sed_dists_into(v, anchor, float, anchor + 1, out)
        }
    }
    chunk_max(out)
}

/// The discarding criterion carried by the compressor structs, evaluated
/// for every intermediate point of a candidate segment `anchor → float`.
/// See the [module docs](self) for the two query families.
///
/// ```
/// use traj_compress::Criterion;
/// use traj_model::Fix;
///
/// // A straight constant-speed run: no point violates a 1 m SED budget.
/// let fixes: Vec<Fix> = (0..5)
///     .map(|i| Fix::from_parts(i as f64 * 10.0, i as f64 * 100.0, 0.0))
///     .collect();
/// let c = Criterion::TimeRatio { epsilon: 1.0 };
/// assert_eq!(c.first_violation(&fixes, 0, 4), None);
/// assert!(c.split_value(&fixes, 0, 4, 2) <= c.split_threshold());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Criterion {
    /// Perpendicular distance to the anchor–float line exceeds `epsilon`
    /// (classic line generalization, paper §2; NDP and the NOPW/BOPW
    /// baselines).
    Perpendicular {
        /// Distance threshold, metres.
        epsilon: f64,
    },
    /// Synchronized (time-ratio) distance exceeds `epsilon` (paper §3.2,
    /// equations (1)–(2); TD-TR and OPW-TR).
    TimeRatio {
        /// Distance threshold, metres.
        epsilon: f64,
    },
    /// Synchronized distance exceeds `epsilon` **or** the derived speed
    /// difference at the point exceeds `speed_epsilon` (paper §3.3;
    /// OPW-SP / SPT / TD-SP).
    ///
    /// The split-ranking value is the dimensionless blend
    /// `max(sed/epsilon, |Δv|/speed_epsilon)` (threshold `1`), which
    /// reduces to plain time-ratio ranking when `speed_epsilon` is
    /// infinite; the design rationale is recorded in `DESIGN.md`.
    TimeRatioSpeed {
        /// Distance threshold, metres.
        epsilon: f64,
        /// Speed-difference threshold, metres/second.
        speed_epsilon: f64,
    },
}

impl Criterion {
    /// Asserts the thresholds are usable: the distance threshold must be
    /// finite and non-negative; the speed threshold must be non-negative
    /// and not NaN (`+∞` is allowed and disables the speed check).
    pub(crate) fn validate(&self) {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        match *self {
            Criterion::Perpendicular { epsilon } | Criterion::TimeRatio { epsilon } => {
                assert!(ok(epsilon), "epsilon must be finite and >= 0");
            }
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => {
                assert!(ok(epsilon), "epsilon must be finite and >= 0");
                assert!(
                    speed_epsilon >= 0.0 && !speed_epsilon.is_nan(),
                    "speed_epsilon must be >= 0"
                );
            }
        }
    }

    /// The distance threshold, metres.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        match *self {
            Criterion::Perpendicular { epsilon }
            | Criterion::TimeRatio { epsilon }
            | Criterion::TimeRatioSpeed { epsilon, .. } => epsilon,
        }
    }

    /// The speed-difference threshold (m/s), if this criterion has one.
    #[inline]
    pub fn speed_epsilon(&self) -> Option<f64> {
        match *self {
            Criterion::TimeRatioSpeed { speed_epsilon, .. } => Some(speed_epsilon),
            _ => None,
        }
    }

    /// The same criterion with the distance threshold replaced (the
    /// speed threshold, if any, is preserved) — how a threshold sweep
    /// derives its per-threshold compressors.
    #[must_use]
    pub fn with_epsilon(self, epsilon: f64) -> Self {
        match self {
            Criterion::Perpendicular { .. } => Criterion::Perpendicular { epsilon },
            Criterion::TimeRatio { .. } => Criterion::TimeRatio { epsilon },
            Criterion::TimeRatioSpeed { speed_epsilon, .. } => {
                Criterion::TimeRatioSpeed { epsilon, speed_epsilon }
            }
        }
    }

    /// Report label fragment, e.g. `"tr,30m"`.
    pub fn label(&self) -> String {
        match *self {
            Criterion::Perpendicular { epsilon } => format!("perp,{epsilon}m"),
            Criterion::TimeRatio { epsilon } => format!("tr,{epsilon}m"),
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => {
                format!("tr,{epsilon}m,{speed_epsilon}m/s")
            }
        }
    }

    /// Whether intermediate point `i` of the window `anchor..float`
    /// violates the criterion.
    #[inline]
    pub fn violates(&self, fixes: &[Fix], anchor: usize, float: usize, i: usize) -> bool {
        debug_assert!(anchor < i && i < float);
        match *self {
            Criterion::Perpendicular { epsilon } => {
                perpendicular_distance(&fixes[anchor], &fixes[float], &fixes[i]) > epsilon
            }
            Criterion::TimeRatio { epsilon } => {
                sed(&fixes[anchor], &fixes[float], &fixes[i]) > epsilon
            }
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => {
                sed(&fixes[anchor], &fixes[float], &fixes[i]) > epsilon
                    || speed_difference_at(fixes, i).is_some_and(|dv| dv > speed_epsilon)
            }
        }
    }

    /// Split-ranking value of interior point `i` for the segment
    /// `lo → hi`: comparable across points, in the units fixed by
    /// [`Criterion::split_threshold`]. A value strictly above the
    /// threshold means the point violates.
    #[inline]
    pub fn split_value(&self, fixes: &[Fix], lo: usize, hi: usize, i: usize) -> f64 {
        match *self {
            Criterion::Perpendicular { .. } => {
                perpendicular_distance(&fixes[lo], &fixes[hi], &fixes[i])
            }
            Criterion::TimeRatio { .. } => sed(&fixes[lo], &fixes[hi], &fixes[i]),
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => trs_blend(
                sed(&fixes[lo], &fixes[hi], &fixes[i]),
                speed_difference_at(fixes, i),
                epsilon,
                speed_epsilon,
            ),
        }
    }

    /// The threshold [`Criterion::split_value`] is compared against (the
    /// distance epsilon for the single-distance criteria, `1` for the
    /// dimensionless blended score of [`Criterion::TimeRatioSpeed`]).
    #[inline]
    pub fn split_threshold(&self) -> f64 {
        match *self {
            Criterion::Perpendicular { epsilon } | Criterion::TimeRatio { epsilon } => epsilon,
            Criterion::TimeRatioSpeed { .. } => 1.0,
        }
    }

    /// First intermediate index violating the criterion for the window
    /// `anchor..float`, scanning forward (the paper's inner loop order).
    #[inline]
    pub fn first_violation(&self, fixes: &[Fix], anchor: usize, float: usize) -> Option<usize> {
        (anchor + 1..float).find(|&i| self.violates(fixes, anchor, float, i))
    }

    /// Batched scan of every interior point of the segment `lo → hi`
    /// over trajectory columns: one call replaces the per-point
    /// [`Criterion::split_value`] loop of the scalar kernels, with the
    /// criterion dispatched **once per segment** instead of once per
    /// point and distances computed by the chunked kernels in
    /// `traj_geom::soa`.
    ///
    /// The view must hold the same series the scalar methods would see
    /// as `fixes`; results are then bitwise identical to the scalar
    /// loop (pinned by the layout-equivalence proptests).
    pub fn scan_segment(&self, v: TrajView<'_>, lo: usize, hi: usize) -> SplitDecision {
        match *self {
            Criterion::Perpendicular { .. } => scan_dists(v, lo, hi, perp_dists_into),
            Criterion::TimeRatio { .. } => scan_dists(v, lo, hi, sed_dists_into),
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => {
                scan_blend(v, lo, hi, epsilon, speed_epsilon)
            }
        }
    }
}

/// Batched twin of the bottom-up merge cost: folds
/// `worst.max(split_value(i))` over the interior of `lo → hi` in index
/// order, seeded at `0.0` — exactly the scalar accumulation in
/// `bottom_up.rs`, with distances staged chunk-wise.
pub(crate) fn max_split_value_view(c: &Criterion, v: TrajView<'_>, lo: usize, hi: usize) -> f64 {
    let mut worst = 0.0f64;
    let mut buf = [0.0f64; SCAN_CHUNK];
    let mut i = lo + 1;
    while i < hi {
        let len = SCAN_CHUNK.min(hi - i);
        let Some(chunk) = buf.get_mut(..len) else {
            break;
        };
        match *c {
            Criterion::Perpendicular { .. } => {
                perp_dists_into(v, lo, hi, i, chunk);
                for &d in chunk.iter() {
                    worst = worst.max(d);
                }
            }
            Criterion::TimeRatio { .. } => {
                sed_dists_into(v, lo, hi, i, chunk);
                for &d in chunk.iter() {
                    worst = worst.max(d);
                }
            }
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon } => {
                sed_dists_into(v, lo, hi, i, chunk);
                for (k, &d) in chunk.iter().enumerate() {
                    let dv = speed_difference_view(v, i + k);
                    worst = worst.max(trs_blend(d, dv, epsilon, speed_epsilon));
                }
            }
        }
        i += len;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(t: f64, x: f64, y: f64) -> Fix {
        Fix::from_parts(t, x, y)
    }

    /// Straight in space, early in time: perp sees nothing, SED does.
    fn temporal_outlier() -> Vec<Fix> {
        vec![
            fix(0.0, 0.0, 0.0),
            fix(2.0, 8.0, 0.0),
            fix(10.0, 10.0, 0.0),
        ]
    }

    #[test]
    fn perpendicular_ignores_time_time_ratio_does_not() {
        let f = temporal_outlier();
        assert!(!Criterion::Perpendicular { epsilon: 1.0 }.violates(&f, 0, 2, 1));
        assert!(Criterion::TimeRatio { epsilon: 1.0 }.violates(&f, 0, 2, 1));
        assert_eq!(Criterion::TimeRatio { epsilon: 1.0 }.split_value(&f, 0, 2, 1), 6.0);
    }

    #[test]
    fn speed_blend_reduces_to_time_ratio_at_infinite_speed_threshold() {
        let f = temporal_outlier();
        let trs = Criterion::TimeRatioSpeed { epsilon: 3.0, speed_epsilon: f64::INFINITY };
        let tr = Criterion::TimeRatio { epsilon: 3.0 };
        assert_eq!(
            trs.split_value(&f, 0, 2, 1),
            tr.split_value(&f, 0, 2, 1) / 3.0,
        );
        assert_eq!(trs.violates(&f, 0, 2, 1), tr.violates(&f, 0, 2, 1));
    }

    #[test]
    fn speed_difference_slice_matches_trajectory_form() {
        let f = vec![
            fix(0.0, 0.0, 0.0),
            fix(10.0, 10.0, 0.0),
            fix(20.0, 40.0, 0.0),
        ];
        assert_eq!(speed_difference_at(&f, 1), Some(2.0));
        assert_eq!(speed_difference_at(&f, 0), None);
        assert_eq!(speed_difference_at(&f, 2), None);
    }

    #[test]
    fn labels() {
        assert_eq!(Criterion::Perpendicular { epsilon: 30.0 }.label(), "perp,30m");
        assert_eq!(Criterion::TimeRatio { epsilon: 30.0 }.label(), "tr,30m");
        assert_eq!(
            Criterion::TimeRatioSpeed { epsilon: 30.0, speed_epsilon: 5.0 }.label(),
            "tr,30m,5m/s"
        );
    }

    #[test]
    fn with_epsilon_preserves_shape_and_speed() {
        let c = Criterion::TimeRatioSpeed { epsilon: 30.0, speed_epsilon: 5.0 };
        assert_eq!(
            c.with_epsilon(60.0),
            Criterion::TimeRatioSpeed { epsilon: 60.0, speed_epsilon: 5.0 }
        );
        assert_eq!(
            Criterion::Perpendicular { epsilon: 1.0 }.with_epsilon(2.0).epsilon(),
            2.0
        );
    }

    #[test]
    fn split_thresholds() {
        assert_eq!(Criterion::TimeRatio { epsilon: 30.0 }.split_threshold(), 30.0);
        assert_eq!(
            Criterion::TimeRatioSpeed { epsilon: 30.0, speed_epsilon: 5.0 }.split_threshold(),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn validate_rejects_nan() {
        Criterion::TimeRatio { epsilon: f64::NAN }.validate();
    }

    #[test]
    fn validate_allows_infinite_speed_threshold() {
        Criterion::TimeRatioSpeed { epsilon: 1.0, speed_epsilon: f64::INFINITY }.validate();
    }

    /// The scalar reference for [`Criterion::scan_segment`]: the exact
    /// per-point loops the batched path replaced.
    fn scalar_scan(c: &Criterion, fixes: &[Fix], lo: usize, hi: usize) -> SplitDecision {
        let mut best = (lo + 1, f64::NEG_INFINITY);
        for i in lo + 1..hi {
            let d = c.split_value(fixes, lo, hi, i);
            if d > best.1 {
                best = (i, d);
            }
        }
        SplitDecision { split: best.0, value: best.1 }
    }

    fn wiggly(n: usize) -> Vec<Fix> {
        // Irregular timestamps and a few dwell points so the speed term
        // has structure; > SCAN_CHUNK points to cross chunk boundaries.
        (0..n)
            .map(|i| {
                let t = i as f64 * 7.0 + (i % 5) as f64;
                let x = (i as f64 * 0.37).sin() * 200.0 + i as f64 * 3.0;
                let y = if i % 11 == 0 { 0.0 } else { (i as f64 * 0.71).cos() * 150.0 };
                fix(t, x, y)
            })
            .collect()
    }

    #[test]
    fn scan_segment_matches_scalar_loops_bitwise() {
        let fixes = wiggly(200);
        let cols = traj_model::TrajColumns::from_fixes(&fixes);
        let v = cols.view();
        let criteria = [
            Criterion::Perpendicular { epsilon: 40.0 },
            Criterion::TimeRatio { epsilon: 40.0 },
            Criterion::TimeRatioSpeed { epsilon: 40.0, speed_epsilon: 2.0 },
            Criterion::TimeRatioSpeed { epsilon: 0.0, speed_epsilon: 0.0 },
            Criterion::TimeRatioSpeed { epsilon: 40.0, speed_epsilon: f64::INFINITY },
        ];
        for c in criteria {
            for (lo, hi) in [(0, 199), (0, 1), (3, 130), (63, 129), (100, 101), (10, 75)] {
                let got = c.scan_segment(v, lo, hi);
                let want = scalar_scan(&c, &fixes, lo, hi);
                assert_eq!(got.split, want.split, "{c:?} [{lo},{hi}]");
                assert_eq!(
                    got.value.to_bits(),
                    want.value.to_bits(),
                    "{c:?} [{lo},{hi}] got {} want {}",
                    got.value,
                    want.value
                );
            }
        }
    }

    #[test]
    fn max_split_value_view_matches_scalar_fold() {
        let fixes = wiggly(150);
        let cols = traj_model::TrajColumns::from_fixes(&fixes);
        let v = cols.view();
        for c in [
            Criterion::Perpendicular { epsilon: 40.0 },
            Criterion::TimeRatio { epsilon: 40.0 },
            Criterion::TimeRatioSpeed { epsilon: 40.0, speed_epsilon: 2.0 },
        ] {
            for (lo, hi) in [(0, 149), (5, 6), (20, 90)] {
                let mut worst = 0.0f64;
                for i in lo + 1..hi {
                    worst = worst.max(c.split_value(&fixes, lo, hi, i));
                }
                let got = max_split_value_view(&c, v, lo, hi);
                assert_eq!(got.to_bits(), worst.to_bits(), "{c:?} [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn speed_difference_view_matches_slice_form() {
        let fixes = wiggly(40);
        let cols = traj_model::TrajColumns::from_fixes(&fixes);
        let v = cols.view();
        for i in 0..fixes.len() {
            assert_eq!(speed_difference_view(v, i), speed_difference_at(&fixes, i), "i={i}");
        }
    }
}
