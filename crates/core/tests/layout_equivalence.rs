//! Property pins for the structure-of-arrays refactor (PR 9).
//!
//! Every kernel that now scans a [`TrajColumns`] view is held
//! **bit-identical** to the pre-refactor array-of-structs path. The
//! scalar side of each pin is either the still-compiled scalar
//! `Criterion` method (`split_value` / `first_violation` — unchanged
//! since before the refactor) or a verbatim test-local replica of the
//! old kernel driving those methods. Comparisons are `prop_assert_eq!`
//! on kept indices and on raw `f64`s — no tolerances anywhere.

#![recursion_limit = "1024"]

use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use traj_compress::{
    BottomUp, CompressionResultBuf, Compressor, Criterion, DeadReckoning, DistanceThreshold,
    DouglasPeucker, OnePassCone, OnePassFit, OpeningWindow, SlidingWindow, TdSp, TdTr,
    UniformSample, Workspace,
};
use traj_model::{TrajColumns, Trajectory};

/// Random car-ish trajectory: 2..=80 fixes, bounded steps.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    (
        proptest::collection::vec((1.0..30.0f64, -200.0..200.0f64, -200.0..200.0f64), 1..80),
        (-1000.0..1000.0f64, -1000.0..1000.0f64),
    )
        .prop_map(|(steps, (x0, y0))| {
            let mut t = 0.0;
            let (mut x, mut y) = (x0, y0);
            let mut triples = vec![(t, x, y)];
            for (dt, dx, dy) in steps {
                t += dt;
                x += dx;
                y += dy;
                triples.push((t, x, y));
            }
            Trajectory::from_triples(triples).expect("valid by construction")
        })
}

/// The full 14-algorithm catalog (mirrors `traj-eval`'s registry, which
/// cannot be imported here without a dev-dependency cycle).
fn catalog(eps: f64, veps: f64) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(UniformSample::new(eps.round().max(1.0) as usize)),
        Box::new(DistanceThreshold::new(eps)),
        Box::new(DouglasPeucker::new(eps)),
        Box::new(TdTr::new(eps)),
        Box::new(TdSp::new(eps, veps)),
        Box::new(OpeningWindow::nopw(eps)),
        Box::new(OpeningWindow::bopw(eps)),
        Box::new(OpeningWindow::opw_tr(eps)),
        Box::new(OpeningWindow::opw_sp(eps, veps)),
        Box::new(DeadReckoning::new(eps)),
        Box::new(BottomUp::time_ratio(eps)),
        Box::new(SlidingWindow::time_ratio(eps, 32)),
        Box::new(OnePassFit::new(eps)),
        Box::new(OnePassCone::new(eps)),
    ]
}

/// The three segment criteria at the same thresholds.
fn criteria(eps: f64, veps: f64) -> [Criterion; 3] {
    [
        Criterion::Perpendicular { epsilon: eps },
        Criterion::TimeRatio { epsilon: eps },
        Criterion::TimeRatioSpeed { epsilon: eps, speed_epsilon: veps },
    ]
}

/// Pre-refactor farthest scan: first-argmax over per-index
/// `split_value`, exactly as `TopDown::farthest` still computes it.
fn scalar_scan(c: &Criterion, t: &Trajectory, lo: usize, hi: usize) -> (usize, f64) {
    let fixes = t.fixes();
    let mut best = (lo + 1, f64::NEG_INFINITY);
    for i in lo + 1..hi {
        let d = c.split_value(fixes, lo, hi, i);
        if d > best.1 {
            best = (i, d);
        }
    }
    best
}

/// Pre-refactor opening-window kernel, verbatim, driven by the scalar
/// `first_violation` (which has not changed since before the refactor).
fn scalar_opening_window(ow: &OpeningWindow, t: &Trajectory) -> Vec<usize> {
    use traj_compress::BreakStrategy;
    let fixes = t.fixes();
    let n = fixes.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut kept = vec![0];
    let mut anchor = 0usize;
    let mut float = 2usize;
    while float < n {
        match ow.criterion().first_violation(fixes, anchor, float) {
            Some(i) => {
                let cut = match ow.strategy() {
                    BreakStrategy::Normal => i,
                    BreakStrategy::BeforeFloat => float - 1,
                };
                kept.push(cut);
                anchor = cut;
                float = anchor + 2;
            }
            None => float += 1,
        }
    }
    if kept.last() != Some(&(n - 1)) {
        kept.push(n - 1);
    }
    kept
}

/// Pre-refactor sliding-window kernel, verbatim.
fn scalar_sliding_window(sw: &SlidingWindow, t: &Trajectory) -> Vec<usize> {
    let fixes = t.fixes();
    let n = fixes.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut kept = vec![0];
    let mut anchor = 0usize;
    while anchor < n - 1 {
        let limit = (anchor + sw.window()).min(n - 1);
        let mut float = anchor + 1;
        for cand in anchor + 2..=limit {
            if sw.criterion().first_violation(fixes, anchor, cand).is_some() {
                break;
            }
            float = cand;
        }
        kept.push(float);
        anchor = float;
    }
    kept
}

/// Min-heap candidate with the production `MergeCand` ordering: by cost
/// only, ties `Equal` — so a heap fed the same insertion sequence pops
/// in the same order.
#[derive(Clone, Copy)]
struct Cand {
    cost: f64,
    idx: usize,
    left: usize,
    right: usize,
}
impl PartialEq for Cand {
    fn eq(&self, o: &Self) -> bool {
        self.cost == o.cost
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
        o.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}

/// Pre-refactor bottom-up kernel, verbatim: scalar 0.0-seeded max fold
/// over `split_value` for each merge cost, same lazy-invalidated heap.
fn scalar_bottom_up(bu: &BottomUp, t: &Trajectory) -> Vec<usize> {
    let fixes = t.fixes();
    let n = fixes.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let c = bu.criterion();
    let merge_cost = |left: usize, right: usize| -> f64 {
        let mut worst = 0.0f64;
        for i in left + 1..right {
            worst = worst.max(c.split_value(fixes, left, right, i));
        }
        worst
    };
    let threshold = c.split_threshold();
    let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();
    let mut next: Vec<usize> = (1..=n).collect();
    let mut keep = vec![true; n];
    let mut heap = BinaryHeap::new();
    for i in 1..n - 1 {
        heap.push(Cand { cost: merge_cost(i - 1, i + 1), idx: i, left: i - 1, right: i + 1 });
    }
    while let Some(cand) = heap.pop() {
        if !keep[cand.idx] || prev[cand.idx] != cand.left || next[cand.idx] != cand.right {
            continue;
        }
        if cand.cost > threshold {
            break;
        }
        keep[cand.idx] = false;
        next[cand.left] = cand.right;
        prev[cand.right] = cand.left;
        if cand.left > 0 {
            let (l, r) = (prev[cand.left], next[cand.left]);
            heap.push(Cand { cost: merge_cost(l, r), idx: cand.left, left: l, right: r });
        }
        if cand.right < n - 1 {
            let (l, r) = (prev[cand.right], next[cand.right]);
            heap.push(Cand { cost: merge_cost(l, r), idx: cand.right, left: l, right: r });
        }
    }
    (0..n).filter(|&i| keep[i]).collect()
}

proptest! {
    /// `scan_segment` == the scalar first-argmax loop, split index and
    /// split value both, for all three criteria over arbitrary
    /// sub-segments. Covers the batched SED and perpendicular kernels.
    #[test]
    fn scan_segment_matches_scalar_argmax(
        t in trajectory(),
        eps in 0.0..200.0f64,
        veps in 0.5..30.0f64,
        a in any::<proptest::sample::Index>(),
        b in any::<proptest::sample::Index>(),
    ) {
        let n = t.len();
        prop_assume!(n >= 3);
        let (mut lo, mut hi) = (a.index(n), b.index(n));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        prop_assume!(lo + 1 < hi);
        let cols = TrajColumns::from_fixes(t.fixes());
        for c in criteria(eps, veps) {
            let d = c.scan_segment(cols.view(), lo, hi);
            let (si, sv) = scalar_scan(&c, &t, lo, hi);
            prop_assert_eq!(d.split, si, "{}", c.label());
            prop_assert_eq!(d.value.to_bits(), sv.to_bits(), "{}", c.label());
        }
    }

    /// The columnar iterative top-down kernel == the scalar recursive
    /// path (which still runs per-`Fix` `split_value`), for all three
    /// top-down algorithms.
    #[test]
    fn top_down_matches_scalar_recursive(
        t in trajectory(),
        eps in 0.0..200.0f64,
        veps in 0.5..30.0f64,
    ) {
        let ndp = DouglasPeucker::new(eps);
        prop_assert_eq!(ndp.compress(&t), ndp.inner().compress_recursive(&t));
        let tdtr = TdTr::new(eps);
        prop_assert_eq!(tdtr.compress(&t), tdtr.inner().compress_recursive(&t));
        let tdsp = TdSp::new(eps, veps);
        prop_assert_eq!(tdsp.compress(&t), tdsp.inner().compress_recursive(&t));
    }

}

proptest! {
    /// The columnar opening-window kernel == the pre-refactor scalar
    /// window loop, for all four OW catalog variants.
    #[test]
    fn opening_window_matches_scalar_loop(
        t in trajectory(),
        eps in 0.0..200.0f64,
        veps in 0.5..30.0f64,
    ) {
        for ow in [
            OpeningWindow::nopw(eps),
            OpeningWindow::bopw(eps),
            OpeningWindow::opw_tr(eps),
            OpeningWindow::opw_sp(eps, veps),
        ] {
            let got = ow.compress(&t);
            let want = scalar_opening_window(&ow, &t);
            prop_assert_eq!(got.kept(), want.as_slice(), "{}", ow.name());
        }
    }

    /// The columnar sliding-window kernel == the pre-refactor scalar
    /// loop, across window sizes (the smallest, 2, always) and all three
    /// criteria, the speed term zero, moderate and off.
    #[test]
    fn sliding_window_matches_scalar_loop(
        t in trajectory(),
        eps in 0.0..200.0f64,
        w in 2..48usize,
    ) {
        let mut sws = Vec::new();
        for window in [w, 2] {
            sws.push(SlidingWindow::time_ratio(eps, window));
            sws.push(SlidingWindow::perpendicular(eps, window));
            for speed_epsilon in [0.0, 2.0, f64::INFINITY] {
                let crit = Criterion::TimeRatioSpeed { epsilon: eps, speed_epsilon };
                sws.push(SlidingWindow::new(crit, window));
            }
        }
        for sw in sws {
            let got = sw.compress(&t);
            let want = scalar_sliding_window(&sw, &t);
            prop_assert_eq!(got.kept(), want.as_slice(), "{}", sw.name());
        }
    }

    /// The columnar bottom-up kernel == the pre-refactor scalar merge
    /// loop. Merge costs must match bitwise for the heaps to pop in the
    /// same order, so this pins `max_split_value_view` end-to-end.
    #[test]
    fn bottom_up_matches_scalar_merge_loop(
        t in trajectory(),
        eps in 0.0..200.0f64,
    ) {
        for bu in [BottomUp::time_ratio(eps), BottomUp::perpendicular(eps)] {
            let got = bu.compress(&t);
            let want = scalar_bottom_up(&bu, &t);
            prop_assert_eq!(got.kept(), want.as_slice(), "{}", bu.name());
        }
    }

}

proptest! {
    /// One warm workspace reused across every algorithm and a stream of
    /// different trajectories gives the same answer as a fresh
    /// compress. Owned trajectories are dropped as the loop advances, so
    /// the allocator may hand a later trajectory a recycled buffer at
    /// the same address — the column cache must rebuild, not alias.
    #[test]
    fn warm_workspace_reuse_matches_fresh(
        ts in proptest::collection::vec(trajectory(), 1..4),
        eps in 0.0..200.0f64,
        veps in 0.5..30.0f64,
    ) {
        let mut ws = Workspace::new();
        let mut buf = CompressionResultBuf::new();
        for c in catalog(eps, veps) {
            for t in ts.clone() {
                c.compress_into(&t, &mut ws, &mut buf);
                prop_assert_eq!(buf.take(), c.compress(&t), "{}", c.name());
            }
        }
    }

    /// Degenerate one- and two-fix trajectories pass through every
    /// algorithm as identity, on both the fresh and warm paths.
    #[test]
    fn degenerate_trajectories_are_identity(
        eps in 0.0..200.0f64,
        veps in 0.5..30.0f64,
        t0 in 0.0..100.0f64,
        x0 in -50.0..50.0f64,
        y0 in -50.0..50.0f64,
        dt in 0.5..100.0f64,
        x1 in -50.0..50.0f64,
        y1 in -50.0..50.0f64,
    ) {
        let one = Trajectory::from_triples([(t0, x0, y0)]).unwrap();
        let two = Trajectory::from_triples([(t0, x0, y0), (t0 + dt, x1, y1)]).unwrap();
        let mut ws = Workspace::new();
        let mut buf = CompressionResultBuf::new();
        for c in catalog(eps, veps) {
            for (t, n) in [(&one, 1usize), (&two, 2usize)] {
                let fresh = c.compress(t);
                let identity: Vec<usize> = (0..n).collect();
                prop_assert_eq!(fresh.kept(), identity.as_slice(), "{}", c.name());
                c.compress_into(t, &mut ws, &mut buf);
                prop_assert_eq!(buf.take(), fresh, "{}", c.name());
            }
        }
    }

    /// Duplicate (and backwards) timestamps are rejected at
    /// construction, wherever the duplicate lands — the column cache can
    /// therefore rely on strict monotonicity.
    #[test]
    fn duplicate_timestamps_rejected(t in trajectory(), at in any::<proptest::sample::Index>()) {
        let i = at.index(t.len());
        let mut triples: Vec<(f64, f64, f64)> =
            t.fixes().iter().map(|f| (f.t.as_secs(), f.pos.x, f.pos.y)).collect();
        let dup = triples[i];
        triples.insert(i, dup);
        prop_assert!(Trajectory::from_triples(triples).is_err());
    }
}
