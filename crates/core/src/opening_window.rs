//! The opening-window family: NOPW, BOPW, OPW-TR and OPW-SP.
//!
//! Opening-window (OW) algorithms (paper §2.2) anchor the start of a
//! potential segment and grow ("open") a window by advancing a float
//! point until some intermediate point violates the discarding criterion.
//! On violation, either
//!
//! * the violating point itself becomes the break point
//!   ([`BreakStrategy::Normal`], NOPW — the paper's preferred strategy),
//!   or
//! * the point *just before the float* — the last float position for
//!   which the whole window was still representable —
//!   ([`BreakStrategy::BeforeFloat`], BOPW, which the paper finds
//!   compresses more but errs more, Fig. 8).
//!
//! The criterion is pluggable ([`Criterion`], re-exported from
//! [`crate::criterion`]): perpendicular distance yields the classic
//! baselines, the synchronized time-ratio distance yields **OPW-TR**
//! (§3.2), and time-ratio plus the derived speed-difference threshold
//! yields **OPW-SP**, the opening-window form of the paper's SPT
//! algorithm (§3.3).
//!
//! OW algorithms are *online*: they never look past the current float.
//! The batch form here is `O(N·w)` for maximum window size `w` (`O(N²)`
//! worst case), matching the paper. One engine grows the windows for
//! [`OpeningWindow`]'s `compress_into`, for the threshold sweep
//! ([`OpeningWindow::sweep`]) and for [`crate::SlidingWindow`].
//! [`crate::streaming::OwStream`] makes the same decisions fix by fix
//! through the scalar [`Criterion::first_violation`]; it is a
//! separate implementation, and the engine is pinned against it.
//!
//! The paper notes OW algorithms "may lose the last few data points";
//! as countermeasure the final data point is always emitted.

pub use crate::criterion::Criterion;
use crate::criterion::{speed_difference_view, window_dists_into};
use crate::obs::AlgoRun;
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::Workspace;
use traj_model::Trajectory;

/// What becomes the break point when the window can no longer be opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakStrategy {
    /// Break at the data point causing the threshold excess (NOPW).
    Normal,
    /// Break at the data point just before the float — the last float
    /// position for which the window was still valid (BOPW; paper Fig. 3).
    BeforeFloat,
}

/// Generic opening-window compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpeningWindow {
    criterion: Criterion,
    strategy: BreakStrategy,
}

impl OpeningWindow {
    /// General constructor.
    ///
    /// # Panics
    /// Panics on non-finite or negative thresholds.
    pub fn new(criterion: Criterion, strategy: BreakStrategy) -> Self {
        criterion.validate();
        OpeningWindow { criterion, strategy }
    }

    /// NOPW: perpendicular criterion, break at the excess point.
    pub fn nopw(epsilon: f64) -> Self {
        OpeningWindow::new(Criterion::Perpendicular { epsilon }, BreakStrategy::Normal)
    }

    /// BOPW: perpendicular criterion, break just before the float.
    pub fn bopw(epsilon: f64) -> Self {
        OpeningWindow::new(Criterion::Perpendicular { epsilon }, BreakStrategy::BeforeFloat)
    }

    /// OPW-TR: synchronized-distance criterion (paper §3.2).
    pub fn opw_tr(epsilon: f64) -> Self {
        OpeningWindow::new(Criterion::TimeRatio { epsilon }, BreakStrategy::Normal)
    }

    /// OPW-SP: synchronized distance + derived speed difference — the
    /// opening-window spatiotemporal algorithm (paper §3.3).
    pub fn opw_sp(epsilon: f64, speed_epsilon: f64) -> Self {
        OpeningWindow::new(
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon },
            BreakStrategy::Normal,
        )
    }

    /// The active criterion.
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }

    /// The active break strategy.
    pub fn strategy(&self) -> BreakStrategy {
        self.strategy
    }

    /// Static algorithm-family name (the threshold-free prefix of
    /// [`Compressor::name`]) used as metric label.
    pub(crate) fn family(&self) -> &'static str {
        match (self.criterion, self.strategy) {
            (Criterion::Perpendicular { .. }, BreakStrategy::Normal) => "nopw",
            (Criterion::Perpendicular { .. }, BreakStrategy::BeforeFloat) => "bopw",
            (Criterion::TimeRatio { .. }, BreakStrategy::Normal) => "opw-tr",
            (Criterion::TimeRatio { .. }, BreakStrategy::BeforeFloat) => "bopw-tr",
            (Criterion::TimeRatioSpeed { .. }, BreakStrategy::Normal) => "opw-sp",
            (Criterion::TimeRatioSpeed { .. }, BreakStrategy::BeforeFloat) => "bopw-sp",
        }
    }
}

impl Compressor for OpeningWindow {
    fn name(&self) -> String {
        format!("{}({})", self.family(), self.criterion.label())
    }

    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        self.compress_into(traj, &mut ws, &mut out);
        out.take()
    }

    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        let n = traj.len();
        ws.begin(n);
        if n <= 2 {
            out.set_identity(n);
            return;
        }
        let _span = traj_obs::trace_span!("ow.compress", n);
        let mut run = AlgoRun::new();
        out.reset(n);
        let mut kept = [std::mem::take(&mut out.kept)];
        let eps = [self.criterion.epsilon()];
        run.sed_evals(open_windows(&self.criterion, self.strategy, &eps, n, traj, ws, &mut kept));
        [out.kept] = kept;
        // Each kept segment was one window: opened at its anchor, closed
        // at its cut.
        for _ in 1..out.kept.len() {
            run.window_opened();
            run.window_closed();
        }
        run.flush(self.family(), n, out.kept.len());
    }
}

/// The opening-window engine: the one window scan behind
/// [`OpeningWindow::compress_into`] (one threshold),
/// [`OpeningWindow::sweep_with`] (a grid of them) and
/// [`crate::SlidingWindow`] (BOPW with the float at most `reach` points
/// past the anchor).
///
/// Appends to `kept[k]` the break points of `criterion` at distance
/// threshold `thresholds[k]`, from the anchor `0` to the last point, and
/// returns how many distances it computed. `traj` has at least three
/// fixes and `ws` has been begun for it.
///
/// For anchor `a` and float `f` the window test is one comparison: does
/// the largest interior distance `M(a, f)` exceed the threshold? A
/// threshold's first violating float is where the running maximum of
/// `M(a, ·)` first rises above it, so one growing window answers every
/// threshold anchored at `a`. The speed term closes every window anchored
/// at `a` at float `s(a) + 1`, where `s(a)` is the first later point
/// whose speed difference exceeds `speed_epsilon`, whatever the distance
/// threshold. Thresholds advance in lockstep over anchors, so each
/// `(anchor, float)` window is scanned once however many reach it.
pub(crate) fn open_windows(
    criterion: &Criterion,
    strategy: BreakStrategy,
    thresholds: &[f64],
    reach: usize,
    traj: &Trajectory,
    ws: &mut Workspace,
    kept: &mut [Vec<usize>],
) -> u64 {
    ws.bind_columns(traj);
    // Field-disjoint borrows: the view reads `ws.cols` while the scan
    // fills `ws.ow_dists`.
    let ws = &mut *ws;
    let v = ws.cols.view();
    let n = v.len();
    let last = n - 1;
    // `s(a)` of the current anchor, `n` when no later point violates.
    // Anchors only grow, so one forward pass finds every `s(a)`.
    let mut speed = 0;
    let mut evals = 0;
    for k in kept.iter_mut() {
        k.push(0);
    }
    // Serve together every threshold anchored at the smallest open anchor
    // `a`. Anchors only grow, so no threshold comes back to `a`. A
    // threshold is finished once it has kept `last`.
    while let Some(a) = kept.iter().filter_map(|k| k.last().copied()).filter(|&a| a != last).min()
    {
        // A plain loop, not `.count()`: `cargo xtask reach` resolves
        // method calls by bare name and would link unrelated `count`s.
        let mut open = 0;
        for k in kept.iter() {
            if k.last() == Some(&a) {
                open += 1;
            }
        }
        if speed <= a {
            speed = criterion.speed_epsilon().map_or(n, |veps| {
                (a + 1..n)
                    .find(|&i| speed_difference_view(v, i).is_some_and(|dv| dv > veps))
                    .unwrap_or(n)
            });
        }
        // From float `stop` on, every window anchored at `a` violates
        // through the speed term or reaches past the cap.
        let stop = n.min(speed + 1).min((a + 1).saturating_add(reach));
        // Where the running maximum of the window maxima rises from
        // `best` to `m`, the window first violates for every open
        // threshold below `m` (open ones are all at least `best`).
        let mut best = f64::NEG_INFINITY;
        let mut f = a + 2;
        while open > 0 {
            if f == n {
                // No float is left: every open threshold ends at `last`.
                cut_windows(strategy, kept, thresholds, a, n, f64::INFINITY, &[]);
                break;
            }
            ws.ow_dists.resize(f - a - 1, 0.0);
            let m = window_dists_into(criterion, v, a, f, &mut ws.ow_dists);
            evals += (f - a - 1) as u64;
            let bound = if f == stop { f64::INFINITY } else { m };
            if bound > best {
                best = bound;
                open -= cut_windows(strategy, kept, thresholds, a, f, bound, &ws.ow_dists);
            }
            f += 1;
        }
    }
    evals
}

/// Cuts the violated window `(a, float)` for every threshold still
/// anchored at `a` and below `bound`: NOPW at the first interior point
/// whose distance in `dists` exceeds the threshold (else at `float - 1`:
/// the speed violation, the cap or the last point), BOPW just before the
/// float. Returns how many thresholds it served.
fn cut_windows(
    strategy: BreakStrategy,
    kept: &mut [Vec<usize>],
    thresholds: &[f64],
    a: usize,
    float: usize,
    bound: f64,
    dists: &[f64],
) -> usize {
    let mut served = 0;
    for (k, &eps) in kept.iter_mut().zip(thresholds) {
        if k.last() != Some(&a) || eps >= bound {
            continue;
        }
        let cut = match strategy {
            BreakStrategy::Normal => {
                dists.iter().position(|&d| d > eps).map_or(float - 1, |p| a + 1 + p)
            }
            BreakStrategy::BeforeFloat => float - 1,
        };
        k.push(cut);
        served += 1;
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sed as sed_dist;

    /// Zig-zag line: straight runs of 4 points, then a 90° turn.
    fn zigzag() -> Trajectory {
        let mut triples = Vec::new();
        let mut t = 0.0;
        let (mut x, mut y) = (0.0, 0.0);
        for leg in 0..4 {
            for _ in 0..4 {
                triples.push((t, x, y));
                t += 10.0;
                if leg % 2 == 0 {
                    x += 100.0;
                } else {
                    y += 100.0;
                }
            }
        }
        triples.push((t, x, y));
        Trajectory::from_triples(triples).unwrap()
    }

    #[test]
    fn nopw_breaks_at_turns() {
        let t = zigzag();
        let r = OpeningWindow::nopw(30.0).compress(&t);
        // Must keep far fewer than all 17 points but more than endpoints.
        assert!(r.kept_len() < t.len());
        assert!(r.kept_len() > 2);
        assert_eq!(*r.kept().last().unwrap(), t.len() - 1);
    }

    #[test]
    fn bopw_compresses_at_least_as_much_as_nopw_here() {
        // The paper finds BOPW gives higher compression at worse error.
        let t = zigzag();
        let n = OpeningWindow::nopw(30.0).compress(&t).kept_len();
        let b = OpeningWindow::bopw(30.0).compress(&t).kept_len();
        assert!(b <= n, "BOPW kept {b} > NOPW kept {n}");
    }

    #[test]
    fn opw_tr_respects_sed_threshold_per_window() {
        let t = zigzag();
        let eps = 25.0;
        let r = OpeningWindow::opw_tr(eps).compress(&t);
        // Each kept segment must have been a valid open window at the
        // moment it was cut — in particular all interior SEDs are bounded
        // at the final float... Note: OW does NOT guarantee the *final*
        // segment SEDs are below eps at break-at-violation cuts, but with
        // Normal strategy the violating point becomes an anchor, so
        // interior points of emitted segments were all checked. Verify
        // the weaker, true invariant: no interior point of a kept segment
        // violates against that segment.
        let f = t.fixes();
        for w in r.kept().windows(2) {
            let (lo, hi) = (w[0], w[1]);
            for i in lo + 1..hi {
                let d = sed_dist(&f[lo], &f[hi], &f[i]);
                assert!(
                    d <= eps + 1e-9,
                    "interior point {i} of segment {lo}-{hi} deviates {d}"
                );
            }
        }
    }

    #[test]
    fn straight_constant_speed_collapses_to_endpoints() {
        let t = Trajectory::from_triples((0..30).map(|i| (i as f64 * 10.0, i as f64 * 50.0, 0.0)))
            .unwrap();
        for c in [
            OpeningWindow::nopw(10.0),
            OpeningWindow::opw_tr(10.0),
            OpeningWindow::opw_sp(10.0, 5.0),
        ] {
            let r = c.compress(&t);
            assert_eq!(r.kept(), &[0, 29], "{}", c.name());
        }
    }

    #[test]
    fn opw_sp_keeps_speed_kinks_opw_tr_misses() {
        // Straight line with a dramatic speed change at point 5: the
        // object halts (same positions advancing slowly).
        let mut triples = Vec::new();
        for i in 0..5 {
            triples.push((i as f64 * 10.0, i as f64 * 100.0, 0.0)); // 10 m/s
        }
        // Abrupt acceleration to 30 m/s.
        for i in 0..5 {
            triples.push((50.0 + i as f64 * 10.0, 400.0 + (i + 1) as f64 * 300.0, 0.0));
        }
        let t = Trajectory::from_triples(triples).unwrap();
        // Huge SED threshold so only speed matters.
        let sp = OpeningWindow::opw_sp(1e9, 5.0).compress(&t);
        let tr = OpeningWindow::opw_tr(1e9).compress(&t);
        assert_eq!(tr.kept(), &[0, 9], "SED alone sees nothing at eps=1e9");
        assert!(sp.kept_len() > 2, "speed criterion must fire: {:?}", sp.kept());
    }

    #[test]
    fn opw_sp_with_huge_speed_threshold_equals_opw_tr() {
        // Paper Fig. 10: OPW-SP(25 m/s) coincides with OPW-TR on their
        // car data. With an unbounded speed threshold they coincide
        // exactly by construction.
        let t = zigzag();
        for eps in [10.0, 30.0, 60.0] {
            let sp = OpeningWindow::opw_sp(eps, f64::MAX).compress(&t);
            let tr = OpeningWindow::opw_tr(eps).compress(&t);
            assert_eq!(sp.kept(), tr.kept(), "eps={eps}");
        }
    }

    #[test]
    fn compress_into_matches_compress() {
        let t = zigzag();
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        for c in [
            OpeningWindow::nopw(30.0),
            OpeningWindow::bopw(30.0),
            OpeningWindow::opw_tr(25.0),
            OpeningWindow::opw_sp(25.0, 5.0),
        ] {
            c.compress_into(&t, &mut ws, &mut out);
            assert_eq!(out.take(), c.compress(&t), "{}", c.name());
        }
    }

    #[test]
    fn degenerate_inputs() {
        let one = Trajectory::from_triples([(0.0, 0.0, 0.0)]).unwrap();
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).unwrap();
        let three =
            Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)])
                .unwrap();
        for c in [OpeningWindow::nopw(5.0), OpeningWindow::opw_tr(5.0)] {
            assert_eq!(c.compress(&one).kept_len(), 1);
            assert_eq!(c.compress(&two).kept_len(), 2);
            let r = c.compress(&three);
            assert_eq!(r.kept()[0], 0);
            assert_eq!(*r.kept().last().unwrap(), 2);
        }
    }

    #[test]
    fn epsilon_zero_keeps_all_nontrivial_points() {
        // With eps = 0 any deviation violates, so every point that is not
        // exactly on its window's approximation is kept.
        let t = zigzag();
        let r = OpeningWindow::opw_tr(0.0).compress(&t);
        // The zig-zag has straight constant-speed runs: interior points of
        // a run have SED 0 against the run, so some compression remains.
        assert!(r.kept_len() > 2);
    }

    #[test]
    fn names() {
        assert_eq!(OpeningWindow::nopw(30.0).name(), "nopw(perp,30m)");
        assert_eq!(OpeningWindow::bopw(30.0).name(), "bopw(perp,30m)");
        assert_eq!(OpeningWindow::opw_tr(30.0).name(), "opw-tr(tr,30m)");
        assert_eq!(OpeningWindow::opw_sp(30.0, 5.0).name(), "opw-sp(tr,30m,5m/s)");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nan_threshold() {
        let _ = OpeningWindow::nopw(f64::NAN);
    }
}
