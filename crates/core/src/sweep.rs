//! One-pass threshold sweeps for the top-down and opening-window
//! families.
//!
//! The reproduction (and the paper's §4 experiments) evaluate every
//! algorithm over a *grid* of thresholds — 15 distance epsilons × several
//! speed epsilons. Running [`TopDown::compress`] once per threshold
//! repeats the identical farthest-point searches `thresholds.len()`
//! times: the split choice of Douglas–Peucker and TD-TR is
//! **threshold-independent** (the split is the argmax of the raw
//! distance; `epsilon` only decides how deep the recursion goes).
//!
//! [`TopDown::sweep`] exploits that: it builds the full split tree once,
//! recording for each split the *path-inclusive minimum* of the node
//! maxima along its root path — exactly the largest `epsilon` for which
//! the split survives — then derives the kept set for every threshold by
//! a sorted-prefix lookup. Cost: one `epsilon = 0` tree build plus
//! `O(kept log kept)` per threshold, instead of one full build per
//! threshold.
//!
//! TD-SP's blended criterion is *not* threshold-independent (the split
//! ranks by `max(sed/ε, Δv/ε_v)`, so the argmax moves with `ε`), but the
//! per-interval extremes it is derived from are: `sweep` memoizes one
//! scan per distinct interval (max SED + argmax, first positive SED,
//! max speed difference + argmax) and re-derives each threshold's split
//! decision from those in `O(1)`, sharing scans across thresholds.
//!
//! [`OpeningWindow::sweep`] shares the window scans instead: it hands
//! the whole grid to the opening-window engine that also runs every
//! single-threshold window compression (see [`crate::opening_window`]).
//! For a fixed anchor the window test is one comparison of the window's
//! largest interior distance with `ε`, so one growing window answers
//! every threshold anchored there, and each `(anchor, float)` window is
//! scanned once per sweep however many thresholds reach it.
//!
//! **Contract:** for every supported criterion the sweep output is
//! byte-identical to calling `compress` separately per threshold —
//! pinned by tests here and in `traj-eval`.

use std::collections::HashMap;

use crate::criterion::{speed_difference_view, Criterion};
use crate::douglas_peucker::TopDown;
use crate::opening_window::{open_windows, OpeningWindow};
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::{SpStats, Workspace};
use traj_geom::soa::sed_dists_into;
use traj_geom::TrajView;
use traj_model::Trajectory;

impl TopDown {
    /// Compresses `traj` once per threshold in `thresholds`, returning
    /// results in the same order. For each `eps` the result is
    /// byte-identical to
    /// `TopDown::new(self.criterion().with_epsilon(eps)).compress(traj)`,
    /// but the farthest-point work is shared across thresholds.
    ///
    /// ```
    /// use traj_compress::{Compressor, TopDown};
    /// use traj_model::Trajectory;
    ///
    /// let t = Trajectory::from_triples(
    ///     (0..60).map(|i| (i as f64 * 10.0, i as f64 * 80.0, ((i % 7) * (i % 5)) as f64 * 9.0)),
    /// )
    /// .unwrap();
    /// let td = TopDown::time_ratio(0.0);
    /// let grid = [10.0, 30.0, 50.0];
    /// let swept = td.sweep(&t, &grid);
    /// for (r, &eps) in swept.iter().zip(&grid) {
    ///     assert_eq!(r.kept(), TopDown::time_ratio(eps).compress(&t).kept());
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if any threshold is NaN, infinite or negative.
    pub fn sweep(&self, traj: &Trajectory, thresholds: &[f64]) -> Vec<CompressionResult> {
        let mut ws = Workspace::new();
        self.sweep_with(traj, thresholds, &mut ws)
    }

    /// [`TopDown::sweep`] borrowing scratch space from `ws`, for callers
    /// sweeping many trajectories in a loop.
    pub fn sweep_with(
        &self,
        traj: &Trajectory,
        thresholds: &[f64],
        ws: &mut Workspace,
    ) -> Vec<CompressionResult> {
        for &eps in thresholds {
            self.criterion().with_epsilon(eps).validate();
        }
        let n = traj.len();
        ws.begin(n);
        if n <= 2 {
            return thresholds.iter().map(|_| CompressionResult::identity(n)).collect();
        }
        let _span = traj_obs::trace_span!("sweep.compress", n);
        ws.bind_columns(traj);
        match self.criterion() {
            Criterion::Perpendicular { .. } | Criterion::TimeRatio { .. } => {
                self.sweep_static_tree(traj, thresholds, ws)
            }
            Criterion::TimeRatioSpeed { speed_epsilon, .. } if speed_epsilon > 0.0 => {
                self.sweep_blended(traj, thresholds, speed_epsilon, ws)
            }
            Criterion::TimeRatioSpeed { .. } => {
                // speed_epsilon == 0 makes the blend ratio NaN/∞-valued;
                // fall back to the plain kernel so the byte-identical
                // contract holds even for this pathological setting.
                let mut out = CompressionResultBuf::new();
                thresholds
                    .iter()
                    .map(|&eps| {
                        let td = TopDown::new(self.criterion().with_epsilon(eps));
                        td.compress_into(traj, ws, &mut out);
                        out.take()
                    })
                    .collect()
            }
        }
    }

    /// Threshold-independent criteria: build the split tree once with
    /// path-inclusive minima, then answer each threshold by prefix.
    fn sweep_static_tree(
        &self,
        traj: &Trajectory,
        thresholds: &[f64],
        ws: &mut Workspace,
    ) -> Vec<CompressionResult> {
        let n = traj.len();
        // Tree build: every node records (path-min of split maxima, split
        // index). A split survives threshold eps iff its path-min > eps —
        // the same strict comparison the single-threshold kernel applies
        // at every ancestor. Field-disjoint borrows: the view reads
        // `ws.cols` while the loop mutates `ws.fstack` / `ws.nodes`.
        let v = ws.cols.view();
        ws.fstack.push((0, n - 1, f64::INFINITY));
        while let Some((lo, hi, pmin)) = ws.fstack.pop() {
            if let Some((split, value)) = self.farthest_view(v, lo, hi) {
                let m = value.min(pmin);
                ws.nodes.push((m, split));
                ws.fstack.push((lo, split, m));
                ws.fstack.push((split, hi, m));
            }
        }
        // Descending by survival threshold → per-eps kept set is a prefix.
        ws.nodes.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        thresholds
            .iter()
            .map(|&eps| {
                let k = ws.nodes.partition_point(|&(m, _)| m > eps);
                let mut kept = Vec::with_capacity(k + 2);
                kept.push(0);
                kept.extend(ws.nodes[..k].iter().map(|&(_, s)| s));
                kept.push(n - 1);
                kept.sort_unstable();
                CompressionResult::new(kept, n)
            })
            .collect()
    }

    /// Blended (TD-SP) criterion: per-threshold descent over memoized
    /// per-interval extremes.
    fn sweep_blended(
        &self,
        traj: &Trajectory,
        thresholds: &[f64],
        speed_epsilon: f64,
        ws: &mut Workspace,
    ) -> Vec<CompressionResult> {
        let n = traj.len();
        // Field-disjoint borrows: the view reads `ws.cols` while the
        // loop mutates `ws.stack` and the `ws.sp_stats` memo table.
        let ws = &mut *ws;
        let v = ws.cols.view();
        thresholds
            .iter()
            .map(|&eps| {
                let mut kept = vec![0, n - 1];
                ws.stack.clear();
                ws.stack.push((0, n - 1, 0));
                while let Some((lo, hi, _)) = ws.stack.pop() {
                    if hi <= lo + 1 {
                        continue;
                    }
                    let st = interval_stats(v, lo, hi, &mut ws.sp_stats);
                    let (split, max_ratio) = decide_split(&st, eps, speed_epsilon);
                    if max_ratio > 1.0 {
                        kept.push(split);
                        ws.stack.push((lo, split, 0));
                        ws.stack.push((split, hi, 0));
                    }
                }
                kept.sort_unstable();
                CompressionResult::new(kept, n)
            })
            .collect()
    }
}

/// Per-interval extremes of the blended criterion's two components,
/// memoized in `cache` (the workspace's `sp_stats` table): one scan per
/// distinct interval no matter how many thresholds query it. The SED
/// column is produced by the batched kernel in chunk-sized strips; the
/// running extremes use the same strict `>` updates as the former
/// per-point loop, so the results are bit-identical.
fn interval_stats(
    v: TrajView<'_>,
    lo: usize,
    hi: usize,
    cache: &mut HashMap<(usize, usize), SpStats>,
) -> SpStats {
    if let Some(st) = cache.get(&(lo, hi)) {
        return *st;
    }
    let mut st = SpStats {
        i_s: lo + 1,
        s: f64::NEG_INFINITY,
        i_pos: None,
        i_v: lo + 1,
        v: f64::NEG_INFINITY,
    };
    const CHUNK: usize = 64;
    let mut buf = [0.0f64; CHUNK];
    let mut start = lo + 1;
    while start < hi {
        let len = (hi - start).min(CHUNK);
        let dists = &mut buf[..len];
        sed_dists_into(v, lo, hi, start, dists);
        for (k, &d) in dists.iter().enumerate() {
            let i = start + k;
            if d > st.s {
                st.i_s = i;
                st.s = d;
            }
            if d > 0.0 && st.i_pos.is_none() {
                st.i_pos = Some(i);
            }
            let dv = speed_difference_view(v, i).unwrap_or(0.0);
            if dv > st.v {
                st.i_v = i;
                st.v = dv;
            }
        }
        start += len;
    }
    cache.insert((lo, hi), st);
    st
}

/// Re-derives the single-threshold kernel's split decision — the first
/// argmax of `max(sed/eps, Δv/veps)` over the interior, and that
/// maximum — from the interval extremes. The first argmax of a pointwise
/// max is the earlier of the two components' first argmaxes when they
/// tie, else the dominating component's.
fn decide_split(st: &SpStats, eps: f64, veps: f64) -> (usize, f64) {
    let (ms, s_first) = if eps > 0.0 {
        (st.s / eps, st.i_s)
    } else if let Some(ip) = st.i_pos {
        // eps == 0: any positive SED scales to ∞; the first argmax is
        // the first strictly positive SED, not the overall SED argmax.
        (f64::INFINITY, ip)
    } else {
        (0.0, st.i_s)
    };
    let mv = st.v / veps;
    if ms > mv {
        (s_first, ms)
    } else if mv > ms {
        (st.i_v, mv)
    } else {
        (s_first.min(st.i_v), ms)
    }
}

impl OpeningWindow {
    /// Compresses `traj` once per threshold in `thresholds`, returning
    /// results in the same order. For each `eps` the result is
    /// byte-identical to
    /// `OpeningWindow::new(self.criterion().with_epsilon(eps), self.strategy()).compress(traj)`,
    /// but each `(anchor, float)` window is scanned once for all
    /// thresholds that reach it.
    ///
    /// ```
    /// use traj_compress::{Compressor, OpeningWindow};
    /// use traj_model::Trajectory;
    ///
    /// let t = Trajectory::from_triples(
    ///     (0..60).map(|i| (i as f64 * 10.0, i as f64 * 80.0, ((i % 7) * (i % 5)) as f64 * 9.0)),
    /// )
    /// .unwrap();
    /// let grid = [10.0, 30.0, 50.0];
    /// let swept = OpeningWindow::opw_sp(0.0, 5.0).sweep(&t, &grid);
    /// for (r, &eps) in swept.iter().zip(&grid) {
    ///     assert_eq!(r, &OpeningWindow::opw_sp(eps, 5.0).compress(&t));
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if any threshold is NaN, infinite or negative.
    pub fn sweep(&self, traj: &Trajectory, thresholds: &[f64]) -> Vec<CompressionResult> {
        let mut ws = Workspace::new();
        self.sweep_with(traj, thresholds, &mut ws)
    }

    /// [`OpeningWindow::sweep`] borrowing scratch space from `ws`, for
    /// callers sweeping many trajectories in a loop. A warm workspace
    /// serves the whole sweep; only the results are allocated.
    pub fn sweep_with(
        &self,
        traj: &Trajectory,
        thresholds: &[f64],
        ws: &mut Workspace,
    ) -> Vec<CompressionResult> {
        let crit = self.criterion();
        for &eps in thresholds {
            crit.with_epsilon(eps).validate();
        }
        let n = traj.len();
        ws.begin(n);
        if n <= 2 {
            return thresholds.iter().map(|_| CompressionResult::identity(n)).collect();
        }
        let _span = traj_obs::trace_span!("ow.compress", n);
        let mut kept: Vec<Vec<usize>> = thresholds.iter().map(|_| Vec::new()).collect();
        open_windows(&crit, self.strategy(), thresholds, n, traj, ws, &mut kept);
        kept.into_iter().map(|k| CompressionResult::new(k, n)).collect()
    }
}

impl crate::DouglasPeucker {
    /// One-pass multi-threshold compression; see [`TopDown::sweep`].
    pub fn sweep(&self, traj: &Trajectory, thresholds: &[f64]) -> Vec<CompressionResult> {
        self.inner().sweep(traj, thresholds)
    }
}

impl crate::TdTr {
    /// One-pass multi-threshold compression; see [`TopDown::sweep`].
    pub fn sweep(&self, traj: &Trajectory, thresholds: &[f64]) -> Vec<CompressionResult> {
        self.inner().sweep(traj, thresholds)
    }
}

impl crate::TdSp {
    /// One-pass multi-threshold compression over the *distance*
    /// thresholds (the speed threshold stays fixed); see
    /// [`TopDown::sweep`].
    pub fn sweep(&self, traj: &Trajectory, thresholds: &[f64]) -> Vec<CompressionResult> {
        self.inner().sweep(traj, thresholds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BreakStrategy, TdSp};

    fn noisy(n: usize, seed: u64) -> Trajectory {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        Trajectory::from_triples((0..n).map(|i| {
            let t = i as f64 * 10.0;
            (t, t * 9.0 + 60.0 * next(), 250.0 * (t / 400.0).sin() + 60.0 * next())
        }))
        .unwrap()
    }

    const GRID: [f64; 7] = [0.0, 5.0, 15.0, 30.0, 55.0, 90.0, 1e6];

    #[test]
    fn sweep_matches_per_threshold_compress_dp_and_tdtr() {
        for seed in [1, 2, 3] {
            let t = noisy(250, seed);
            for make in [TopDown::perpendicular as fn(f64) -> TopDown, TopDown::time_ratio] {
                let swept = make(0.0).sweep(&t, &GRID);
                for (r, &eps) in swept.iter().zip(&GRID) {
                    assert_eq!(
                        r.kept(),
                        make(eps).compress(&t).kept(),
                        "seed={seed} eps={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_matches_per_threshold_compress_tdsp() {
        for seed in [1, 2] {
            let t = noisy(200, seed);
            for veps in [0.5, 5.0, 25.0, f64::INFINITY] {
                let swept = TopDown::time_ratio_speed(0.0, veps).sweep(&t, &GRID);
                for (r, &eps) in swept.iter().zip(&GRID) {
                    assert_eq!(
                        r.kept(),
                        TopDown::time_ratio_speed(eps, veps).compress(&t).kept(),
                        "seed={seed} eps={eps} veps={veps}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_matches_even_for_zero_speed_threshold_fallback() {
        let t = noisy(80, 4);
        let swept = TopDown::time_ratio_speed(0.0, 0.0).sweep(&t, &[10.0, 40.0]);
        for (r, &eps) in swept.iter().zip(&[10.0, 40.0]) {
            assert_eq!(r.kept(), TopDown::time_ratio_speed(eps, 0.0).compress(&t).kept());
        }
    }

    #[test]
    fn wrapper_sweeps_delegate() {
        let t = noisy(120, 7);
        let grid = [20.0, 60.0];
        assert_eq!(
            crate::DouglasPeucker::new(0.0).sweep(&t, &grid),
            TopDown::perpendicular(0.0).sweep(&t, &grid)
        );
        assert_eq!(
            crate::TdTr::new(0.0).sweep(&t, &grid),
            TopDown::time_ratio(0.0).sweep(&t, &grid)
        );
        let sp = TdSp::new(1.0, 5.0);
        let swept = sp.sweep(&t, &grid);
        for (r, &eps) in swept.iter().zip(&grid) {
            assert_eq!(r.kept(), TdSp::new(eps, 5.0).compress(&t).kept());
        }
    }

    #[test]
    fn sweep_with_reuses_workspace_across_trajectories() {
        let mut ws = Workspace::new();
        let td = TopDown::time_ratio(0.0);
        for seed in [11, 12, 13] {
            let t = noisy(150, seed);
            let swept = td.sweep_with(&t, &GRID, &mut ws);
            for (r, &eps) in swept.iter().zip(&GRID) {
                assert_eq!(r.kept(), TopDown::time_ratio(eps).compress(&t).kept());
            }
        }
    }

    #[test]
    fn degenerate_inputs_and_grids() {
        let one = Trajectory::from_triples([(0.0, 0.0, 0.0)]).unwrap();
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 9.0, 0.0)]).unwrap();
        for t in [&one, &two] {
            let swept = TopDown::time_ratio(0.0).sweep(t, &[0.0, 10.0]);
            assert_eq!(swept.len(), 2);
            for r in swept {
                assert_eq!(r.kept_len(), t.len());
            }
        }
        assert!(TopDown::time_ratio(0.0).sweep(&noisy(50, 1), &[]).is_empty());
    }

    #[test]
    fn unsorted_grids_are_answered_in_input_order() {
        let t = noisy(100, 2);
        let grid = [50.0, 5.0, 20.0];
        let swept = TopDown::time_ratio(0.0).sweep(&t, &grid);
        for (r, &eps) in swept.iter().zip(&grid) {
            assert_eq!(r.kept(), TopDown::time_ratio(eps).compress(&t).kept());
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nan_threshold() {
        let _ = TopDown::time_ratio(0.0).sweep(&noisy(20, 1), &[10.0, f64::NAN]);
    }

    /// Every criterion × break strategy, with the speed term zero,
    /// tight, loose and off; `1e6` opens windows over the whole input,
    /// far past one 64-point scan chunk.
    #[test]
    fn window_sweep_matches_per_threshold_compress() {
        let mut ows = vec![
            OpeningWindow::nopw(0.0),
            OpeningWindow::bopw(0.0),
            OpeningWindow::opw_tr(0.0),
            OpeningWindow::new(Criterion::TimeRatio { epsilon: 0.0 }, BreakStrategy::BeforeFloat),
        ];
        for veps in [0.0, 0.5, 5.0, f64::INFINITY] {
            ows.push(OpeningWindow::opw_sp(0.0, veps));
            ows.push(OpeningWindow::new(
                Criterion::TimeRatioSpeed { epsilon: 0.0, speed_epsilon: veps },
                BreakStrategy::BeforeFloat,
            ));
        }
        let grid = [55.0, 0.0, 15.0, 1e6, 5.0, 15.0, 90.0, 30.0];
        let mut ws = Workspace::new();
        for seed in [1, 2, 3] {
            let t = noisy(250, seed);
            for ow in &ows {
                let swept = ow.sweep_with(&t, &grid, &mut ws);
                assert_eq!(swept.len(), grid.len());
                for (r, &eps) in swept.iter().zip(&grid) {
                    let crit = ow.criterion().with_epsilon(eps);
                    let single = OpeningWindow::new(crit, ow.strategy()).compress(&t);
                    assert_eq!(r, &single, "{ow:?} seed={seed} eps={eps}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn window_sweep_rejects_negative_threshold() {
        let _ = OpeningWindow::nopw(0.0).sweep(&noisy(20, 1), &[10.0, -1.0]);
    }
}
