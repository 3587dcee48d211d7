//! Sliding-window compression (the fourth class of the paper's §2
//! taxonomy).
//!
//! "Starting from one end of the data series, a window of fixed size is
//! moved over the data points, and compression takes place only on the
//! data points inside the window." (paper §2.)
//!
//! The implementation anchors a segment at the current position and
//! opens a window at most `window` points ahead (the fixed window): the
//! segment ends at the last float before the first violating one, or at
//! the window's far edge when no float up to it violates. That is BOPW
//! with the float capped at `anchor + window`, so it runs on the
//! opening-window engine. Unlike the opening-window family the look-ahead
//! is bounded by the window size, so per-point work is `O(window²)` at
//! worst and memory for the online case is fixed — the trade-off being
//! that consecutive kept indices are at most `window` apart (a segment
//! covers at most `window + 1` fixes), capping the achievable
//! compression.

use crate::criterion::Criterion;
use crate::opening_window::{open_window, BreakStrategy};
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::Workspace;
use traj_model::Trajectory;

/// Fixed-size sliding-window compressor over a pluggable [`Criterion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlidingWindow {
    criterion: Criterion,
    window: usize,
}

impl SlidingWindow {
    /// Creates a sliding-window compressor: segments satisfy `criterion`
    /// and consecutive kept indices are at most `window` apart, so a
    /// segment covers at most `window + 1` fixes.
    ///
    /// # Panics
    /// Panics unless the criterion's thresholds are valid and
    /// `window >= 2`.
    pub fn new(criterion: Criterion, window: usize) -> Self {
        criterion.validate();
        assert!(window >= 2, "window must span at least 2 points");
        SlidingWindow { criterion, window }
    }

    /// Sliding window over the synchronized time-ratio distance.
    pub fn time_ratio(epsilon: f64, window: usize) -> Self {
        SlidingWindow::new(Criterion::TimeRatio { epsilon }, window)
    }

    /// Sliding window over the perpendicular distance.
    pub fn perpendicular(epsilon: f64, window: usize) -> Self {
        SlidingWindow::new(Criterion::Perpendicular { epsilon }, window)
    }

    /// The active criterion.
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }

    /// The largest index gap between consecutive kept points (a segment
    /// covers at most `window + 1` fixes).
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Compressor for SlidingWindow {
    fn name(&self) -> String {
        format!("sliding-window({},w={})", self.criterion.label(), self.window)
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
        out.reset(n);
        // BOPW with the float at most `window` points past the anchor.
        let bopw = BreakStrategy::BeforeFloat;
        open_window(&self.criterion, bopw, self.window, traj, ws, &mut out.kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sed;

    fn noisy_line(n: usize) -> Trajectory {
        Trajectory::from_triples((0..n).map(|i| {
            (
                i as f64 * 10.0,
                i as f64 * 80.0,
                if i % 5 == 2 { 12.0 } else { 0.0 },
            )
        }))
        .unwrap()
    }

    #[test]
    fn segments_never_exceed_window() {
        let t = noisy_line(50);
        let w = 6;
        let r = SlidingWindow::time_ratio(1e9, w).compress(&t);
        for pair in r.kept().windows(2) {
            assert!(pair[1] - pair[0] <= w, "segment {pair:?} exceeds window");
        }
    }

    #[test]
    fn respects_threshold_postcondition() {
        let t = noisy_line(50);
        let eps = 8.0;
        let r = SlidingWindow::time_ratio(eps, 10).compress(&t);
        let f = t.fixes();
        for w in r.kept().windows(2) {
            for i in w[0] + 1..w[1] {
                assert!(sed(&f[w[0]], &f[w[1]], &f[i]) <= eps + 1e-9);
            }
        }
    }

    #[test]
    fn straight_line_compresses_to_window_strides() {
        let t =
            Trajectory::from_triples((0..21).map(|i| (i as f64, i as f64 * 5.0, 0.0))).unwrap();
        let r = SlidingWindow::time_ratio(1.0, 5).compress(&t);
        assert_eq!(r.kept(), &[0, 5, 10, 15, 20]);
    }

    #[test]
    fn window_two_keeps_everything() {
        let t = noisy_line(10);
        let r = SlidingWindow::perpendicular(1e9, 2).compress(&t);
        // Window of 2 → every segment spans at most 2 points, but valid
        // 2-spans have one intermediate... a 2-span anchor..anchor+2 has
        // one intermediate; with huge eps it is always taken.
        for pair in r.kept().windows(2) {
            assert!(pair[1] - pair[0] <= 2);
        }
    }

    #[test]
    fn progress_is_guaranteed_even_at_zero_epsilon() {
        let t = noisy_line(30);
        let r = SlidingWindow::time_ratio(0.0, 8).compress(&t);
        assert_eq!(*r.kept().last().unwrap(), 29);
    }

    #[test]
    fn compress_into_matches_compress() {
        let t = noisy_line(40);
        let sw = SlidingWindow::time_ratio(8.0, 12);
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        sw.compress_into(&t, &mut ws, &mut out);
        assert_eq!(out.take(), sw.compress(&t));
    }

    #[test]
    fn degenerate_inputs() {
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).unwrap();
        let r = SlidingWindow::time_ratio(1.0, 4).compress(&two);
        assert_eq!(r.kept_len(), 2);
    }

    #[test]
    fn name_lists_criterion_and_window() {
        assert_eq!(
            SlidingWindow::time_ratio(30.0, 32).name(),
            "sliding-window(tr,30m,w=32)"
        );
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_tiny_window() {
        let _ = SlidingWindow::time_ratio(1.0, 1);
    }
}
