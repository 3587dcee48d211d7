//! Online (streaming) compression.
//!
//! The paper stresses that opening-window algorithms "are online
//! algorithms … typically used to compress data streams in real-time"
//! (§2). This module provides the record-at-a-time forms of the batch
//! compressors behind one shared lifecycle trait:
//!
//! * [`StreamingCompressor`] — input validation, accounting, and the
//!   metric flush-on-finish contract, shared by every stream;
//! * [`OwStream`] — the incremental [`crate::OpeningWindow`] (buffers the
//!   open window, optional `max_window` memory valve);
//! * [`OnePassStream`] — the incremental one-pass SED family
//!   ([`crate::OnePassFit`] / [`crate::OnePassCone`]): O(1) state, no
//!   window buffer at all;
//! * [`PassThrough`] — the lossless identity stream: validates like the
//!   others and keeps every fix.
//!
//! Feeding a whole trajectory through a stream produces *exactly* the
//! same kept points as the corresponding batch compressor — pinned by
//! equivalence tests and proptests, boxed (`Box<dyn
//! StreamingCompressor>`) or not.

use crate::obs::AlgoRun;
use crate::one_pass::{
    cone_apothem, cone_directions, one_pass_step, ConeRegion, FitRegion, Region,
};
use crate::opening_window::{BreakStrategy, Criterion};
use traj_model::{Fix, ModelError, Timestamp};

/// Shared bookkeeping every streaming compressor carries: accepted and
/// emitted fix counts, the last accepted timestamp (for monotonicity
/// checks), and the per-run metric accumulator flushed on
/// [`StreamingCompressor::finish`].
///
/// Constructed internally by the stream types; the fields are not part
/// of the public API.
#[derive(Debug, Clone, Default)]
pub struct StreamCore {
    pub(crate) pushed: usize,
    pub(crate) emitted: usize,
    pub(crate) last_t: Option<Timestamp>,
    pub(crate) run: AlgoRun,
}

impl StreamCore {
    fn new() -> Self {
        StreamCore::default()
    }
}

/// The shared open/flush lifecycle of a record-at-a-time compressor.
///
/// Implementors provide only the algorithm step ([`step`]) and the
/// end-of-stream drain ([`drain`]); the trait supplies the public
/// [`push`]/[`finish`] entry points with uniform input validation
/// (finite fixes, strictly increasing timestamps), accepted/emitted
/// accounting, and the flush-once metrics contract — the lifecycle that
/// `OwStream` and `OnePassStream` would otherwise duplicate.
///
/// [`step`]: StreamingCompressor::step
/// [`drain`]: StreamingCompressor::drain
/// [`push`]: StreamingCompressor::push
/// [`finish`]: StreamingCompressor::finish
///
/// The trait is object-safe: one function can feed every stream kind
/// behind a `Box<dyn StreamingCompressor>`.
///
/// ```
/// use traj_compress::streaming::{OnePassStream, OwStream, PassThrough, StreamingCompressor};
/// use traj_model::Fix;
///
/// fn drive(mut s: Box<dyn StreamingCompressor>) -> Vec<Fix> {
///     let mut kept = Vec::new();
///     for i in 0..100 {
///         let fix = Fix::from_parts(f64::from(i) * 10.0, f64::from(i) * 120.0, 0.0);
///         kept.extend(s.push(fix).expect("valid fix"));
///     }
///     kept.extend(s.finish());
///     kept
/// }
///
/// // A straight, constant-speed run compresses to its endpoints under
/// // both the opening-window and the one-pass family.
/// assert_eq!(drive(Box::new(OwStream::opw_tr(30.0))).len(), 2);
/// assert_eq!(drive(Box::new(OnePassStream::fit(30.0))).len(), 2);
/// assert_eq!(drive(Box::new(OnePassStream::cone(30.0))).len(), 2);
/// assert_eq!(drive(Box::new(PassThrough::default())).len(), 100);
/// ```
pub trait StreamingCompressor {
    /// Static algorithm-family label used when flushing stream metrics;
    /// by convention the batch family name with a `stream-` prefix, so
    /// online and batch runs stay distinguishable in reports.
    fn family(&self) -> &'static str;

    /// Shared bookkeeping (read side).
    fn core(&self) -> &StreamCore;

    /// Shared bookkeeping (write side).
    fn core_mut(&mut self) -> &mut StreamCore;

    /// Processes one *validated* fix, appending any fixes this step
    /// commits to `out`. Called by [`StreamingCompressor::push`] after
    /// finiteness/monotonicity checks pass; implementations never see
    /// invalid input.
    fn step(&mut self, fix: Fix, out: &mut Vec<Fix>);

    /// Commits whatever the end of the stream decides (typically the
    /// final buffered fix), appending to `out`. Called once by
    /// [`StreamingCompressor::finish`].
    fn drain(&mut self, out: &mut Vec<Fix>);

    /// Feeds the next fix; returns the fixes *committed* (kept) by this
    /// push, in order.
    ///
    /// # Errors
    /// [`ModelError::NonFinite`] for NaN/∞ input and
    /// [`ModelError::NonMonotonicTime`] when `fix.t` is not strictly
    /// later than the previously accepted fix (the index reported is the
    /// running count of accepted fixes). A rejected fix leaves the
    /// stream state untouched and usable.
    fn push(&mut self, fix: Fix) -> Result<Vec<Fix>, ModelError> {
        if !fix.is_finite() {
            return Err(ModelError::NonFinite { index: self.core().pushed });
        }
        if let Some(last) = self.core().last_t {
            // `fix` is already known finite, so >= is a total comparison.
            if last >= fix.t {
                return Err(ModelError::NonMonotonicTime { index: self.core().pushed });
            }
        }
        let core = self.core_mut();
        core.pushed += 1;
        core.last_t = Some(fix.t);
        let mut out = Vec::new();
        self.step(fix, &mut out);
        self.core_mut().emitted += out.len();
        Ok(out)
    }

    /// Ends the stream: drains the final committed fixes and publishes
    /// the stream's accumulated metrics to the `traj-obs` registry. The
    /// stream is then empty again — a later push starts a new stream.
    /// A stream dropped without `finish` reports nothing.
    fn finish(&mut self) -> Vec<Fix> {
        let mut out = Vec::new();
        self.drain(&mut out);
        let core = std::mem::take(self.core_mut());
        core.run.flush(self.family(), core.pushed, core.emitted + out.len());
        out
    }

    /// Number of fixes accepted so far.
    fn pushed(&self) -> usize {
        self.core().pushed
    }
}

/// Incremental opening-window compressor.
///
/// Memory: the stream buffers the currently open window. On highly
/// compressible input the window can grow without bound — the price of
/// the OW family's look-back — so a `max_window` safety valve can force
/// a cut just before the float once the buffer reaches a limit, trading
/// a little compression for bounded memory (used by `traj-store`'s
/// ingest path).
///
/// ```
/// use traj_compress::streaming::{OwStream, StreamingCompressor};
/// use traj_compress::{BreakStrategy, Criterion};
/// use traj_model::Fix;
///
/// let mut stream = OwStream::new(
///     Criterion::TimeRatio { epsilon: 30.0 },
///     BreakStrategy::Normal,
/// );
/// let mut kept = Vec::new();
/// for i in 0..100 {
///     let fix = Fix::from_parts(i as f64 * 10.0, i as f64 * 120.0, 0.0);
///     kept.extend(stream.push(fix).unwrap());
/// }
/// kept.extend(stream.finish());
/// // A straight, constant-speed run compresses to its endpoints.
/// assert_eq!(kept.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct OwStream {
    criterion: Criterion,
    strategy: BreakStrategy,
    /// Open window; `window[0]` is the current anchor (already emitted).
    window: Vec<Fix>,
    /// Next float index (relative to `window`) that still needs checking.
    checked: usize,
    /// Optional bound on the open window's length.
    max_window: Option<usize>,
    /// Shared streaming bookkeeping.
    core: StreamCore,
}

impl OwStream {
    /// Creates a stream with the given discarding criterion and break
    /// strategy.
    ///
    /// # Panics
    /// Panics on non-finite or negative thresholds (same contract as
    /// [`crate::OpeningWindow::new`]).
    pub fn new(criterion: Criterion, strategy: BreakStrategy) -> Self {
        // Reuse the batch constructor's validation.
        let _ = crate::opening_window::OpeningWindow::new(criterion, strategy);
        OwStream {
            criterion,
            strategy,
            window: Vec::new(),
            checked: 2,
            max_window: None,
            core: StreamCore::new(),
        }
    }

    /// OPW-TR stream (synchronized distance, break at the violation).
    pub fn opw_tr(epsilon: f64) -> Self {
        OwStream::new(Criterion::TimeRatio { epsilon }, BreakStrategy::Normal)
    }

    /// OPW-SP stream (synchronized distance + derived speed difference).
    pub fn opw_sp(epsilon: f64, speed_epsilon: f64) -> Self {
        OwStream::new(
            Criterion::TimeRatioSpeed { epsilon, speed_epsilon },
            BreakStrategy::Normal,
        )
    }

    /// Bounds the open window to `max` fixes. Once the buffer holds `max`
    /// fixes a cut is forced just before the float, bounding memory at
    /// the cost of compression. Values below 3 are clamped to 3 (anchor,
    /// one intermediate, float).
    ///
    /// ```
    /// use traj_compress::streaming::{OwStream, StreamingCompressor};
    /// use traj_model::Fix;
    ///
    /// // Straight constant-speed data never violates the threshold, so
    /// // an unbounded window would buffer every fix; the valve caps it.
    /// let mut stream = OwStream::opw_tr(100.0).with_max_window(16);
    /// let mut peak = 0;
    /// for i in 0..10_000 {
    ///     stream.push(Fix::from_parts(i as f64, i as f64 * 10.0, 0.0))?;
    ///     peak = peak.max(stream.window_len());
    /// }
    /// assert!(peak <= 16, "memory stayed bounded, window peaked at {peak}");
    /// # Ok::<(), traj_model::ModelError>(())
    /// ```
    #[must_use]
    pub fn with_max_window(mut self, max: usize) -> Self {
        self.max_window = Some(max.max(3));
        self
    }

    /// Number of fixes currently buffered.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The freshest buffered fix (the current float), if any.
    pub fn last_buffered(&self) -> Option<Fix> {
        self.window.last().copied()
    }

    /// Re-establishes the invariant that every float position in the
    /// current window has been checked against the current anchor,
    /// cutting (possibly repeatedly) on violations — the exact loop
    /// structure of the batch algorithm.
    fn advance(&mut self, emitted: &mut Vec<Fix>) {
        let mut e = self.checked.max(2);
        while e < self.window.len() {
            match self.first_violation(e) {
                Some(i) => {
                    // Scanned window indices 1..=i against float `e`.
                    self.core.run.sed_evals(i as u64);
                    self.core.run.window_closed();
                    self.core.run.window_opened();
                    let cut = match self.strategy {
                        BreakStrategy::Normal => i,
                        BreakStrategy::BeforeFloat => e - 1,
                    };
                    debug_assert!(cut > 0);
                    emitted.push(self.window[cut]);
                    self.window.drain(..cut);
                    e = 2;
                }
                None => {
                    self.core.run.sed_evals(e.saturating_sub(1) as u64);
                    e += 1;
                }
            }
        }
        self.checked = e;
    }

    /// First intermediate (window-relative) index violating the criterion
    /// for float `e` — the scalar [`Criterion::first_violation`] scan with
    /// the buffered window as the slice and the anchor at relative index 0.
    /// (For the speed criterion, `i + 1 <= e` keeps both derived-speed
    /// neighbours inside the window.)
    fn first_violation(&self, e: usize) -> Option<usize> {
        self.criterion.first_violation(&self.window, 0, e)
    }
}

impl StreamingCompressor for OwStream {
    fn family(&self) -> &'static str {
        match (self.criterion, self.strategy) {
            (Criterion::Perpendicular { .. }, BreakStrategy::Normal) => "stream-nopw",
            (Criterion::Perpendicular { .. }, BreakStrategy::BeforeFloat) => "stream-bopw",
            (Criterion::TimeRatio { .. }, BreakStrategy::Normal) => "stream-opw-tr",
            (Criterion::TimeRatio { .. }, BreakStrategy::BeforeFloat) => "stream-bopw-tr",
            (Criterion::TimeRatioSpeed { .. }, BreakStrategy::Normal) => "stream-opw-sp",
            (Criterion::TimeRatioSpeed { .. }, BreakStrategy::BeforeFloat) => "stream-bopw-sp",
        }
    }

    fn core(&self) -> &StreamCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut StreamCore {
        &mut self.core
    }

    fn step(&mut self, fix: Fix, out: &mut Vec<Fix>) {
        let first = self.window.is_empty();
        self.window.push(fix);
        if first {
            // The very first fix is the initial anchor and is always kept.
            self.checked = 2;
            self.core.run.window_opened();
            out.push(fix);
            return;
        }
        self.advance(out);
        if let Some(max) = self.max_window {
            if self.window.len() >= max {
                // Forced cut just before the float: the window up to
                // len-2 was fully validated, so this keeps a point known
                // to represent everything before it.
                let cut = self.window.len() - 2;
                if cut > 0 {
                    self.core.run.forced_cut();
                    self.core.run.window_closed();
                    self.core.run.window_opened();
                    out.push(self.window[cut]);
                    self.window.drain(..cut);
                    self.checked = 2;
                    self.advance(out);
                }
            }
        }
    }

    /// The final fix (if any besides the anchor) is committed, mirroring
    /// the batch algorithm's always-keep-the-last countermeasure.
    fn drain(&mut self, out: &mut Vec<Fix>) {
        if self.window.len() >= 2 {
            if let Some(last) = self.window.last() {
                self.core.run.window_closed();
                out.push(*last);
            }
        }
        self.window.clear();
    }
}

/// The identity stream: keeps every fix it accepts.
///
/// Validation and accounting are the shared
/// [`StreamingCompressor::push`]'s, so a pass-through rejects exactly
/// what every compressor rejects (non-finite fixes, non-increasing
/// timestamps) — the lossless baseline an ingest path can put where a
/// compressor would go.
#[derive(Debug, Clone, Default)]
pub struct PassThrough {
    core: StreamCore,
}

impl StreamingCompressor for PassThrough {
    fn family(&self) -> &'static str {
        "stream-raw"
    }

    fn core(&self) -> &StreamCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut StreamCore {
        &mut self.core
    }

    fn step(&mut self, fix: Fix, out: &mut Vec<Fix>) {
        out.push(fix);
    }

    /// Nothing is ever held back.
    fn drain(&mut self, _out: &mut Vec<Fix>) {}
}

/// The one-pass region state: a rectangle for the fit variant, the
/// owned polygon buffers for the cone variant.
#[derive(Debug, Clone)]
enum StreamRegion {
    Fit(FitRegion),
    Cone { dirs: Vec<(f64, f64)>, off: Vec<f64>, apothem: f64 },
}

/// Incremental one-pass SED simplifier — the streaming form of
/// [`crate::OnePassFit`] / [`crate::OnePassCone`].
///
/// Unlike [`OwStream`] this buffers *no window at all*: the state is the
/// current anchor, the previous fix, and the O(1)/O(m) fitting region,
/// so memory is constant regardless of how compressible the input is.
/// Fed fix-by-fix, it emits exactly the fixes the batch kernel keeps
/// (both run the same [`crate::one_pass`] step function; pinned by
/// proptests).
///
/// ```
/// use traj_compress::streaming::{OnePassStream, StreamingCompressor};
/// use traj_compress::{Compressor, OnePassFit};
/// use traj_model::{Fix, Trajectory};
///
/// let traj = Trajectory::from_triples((0..200).map(|i| {
///     let t = f64::from(i) * 5.0;
///     (t, t * 11.0, f64::from(i % 9) * 6.0)
/// })).unwrap();
///
/// let mut stream = OnePassStream::fit(25.0);
/// let mut kept = Vec::new();
/// for fix in traj.fixes() {
///     kept.extend(stream.push(*fix).unwrap());
/// }
/// kept.extend(stream.finish());
///
/// let batch = OnePassFit::new(25.0).compress(&traj);
/// let batch_fixes: Vec<Fix> = batch.kept().iter().map(|&i| traj.fixes()[i]).collect();
/// assert_eq!(kept, batch_fixes);
/// ```
#[derive(Debug, Clone)]
pub struct OnePassStream {
    epsilon: f64,
    region: StreamRegion,
    /// `(anchor, prev)` of the open segment; `None` before the first fix.
    state: Option<(Fix, Fix)>,
    /// Shared streaming bookkeeping.
    core: StreamCore,
}

impl OnePassStream {
    /// OP-FIT stream (rectangular fitting region) with a strict SED
    /// bound of `epsilon` metres.
    ///
    /// # Panics
    /// Panics on non-finite or negative `epsilon`.
    pub fn fit(epsilon: f64) -> Self {
        crate::one_pass::validate_epsilon(epsilon);
        OnePassStream {
            epsilon,
            region: StreamRegion::Fit(FitRegion::new()),
            state: None,
            core: StreamCore::new(),
        }
    }

    /// OP-CONE stream with the default
    /// [`crate::one_pass::CONE_DIRECTIONS`] polygon directions.
    ///
    /// # Panics
    /// Panics on non-finite or negative `epsilon`.
    pub fn cone(epsilon: f64) -> Self {
        OnePassStream::cone_with(epsilon, crate::one_pass::CONE_DIRECTIONS)
    }

    /// OP-CONE stream with `m` polygon directions (clamped to `4..=64`,
    /// matching [`crate::OnePassCone::with_directions`]).
    ///
    /// # Panics
    /// Panics on non-finite or negative `epsilon`.
    pub fn cone_with(epsilon: f64, m: usize) -> Self {
        crate::one_pass::validate_epsilon(epsilon);
        let m = m.clamp(4, 64);
        let mut dirs = Vec::new();
        cone_directions(m, &mut dirs);
        OnePassStream {
            epsilon,
            region: StreamRegion::Cone {
                dirs,
                off: vec![f64::INFINITY; m],
                apothem: cone_apothem(m),
            },
            state: None,
            core: StreamCore::new(),
        }
    }

    /// The declared SED bound, metres.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl StreamingCompressor for OnePassStream {
    fn family(&self) -> &'static str {
        match self.region {
            StreamRegion::Fit(_) => "stream-op-fit",
            StreamRegion::Cone { .. } => "stream-op-cone",
        }
    }

    fn core(&self) -> &StreamCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut StreamCore {
        &mut self.core
    }

    fn step(&mut self, fix: Fix, out: &mut Vec<Fix>) {
        let Some((anchor, prev)) = self.state.as_mut() else {
            // The very first fix is the initial anchor and is always kept.
            self.state = Some((fix, fix));
            out.push(fix);
            return;
        };
        self.core.run.sed_evals(1);
        self.core.run.op_check();
        let closed = match &mut self.region {
            StreamRegion::Fit(r) => one_pass_step(r, self.epsilon, anchor, prev, fix),
            StreamRegion::Cone { dirs, off, apothem } => {
                let mut r = ConeRegion { dirs, off, apothem: *apothem };
                one_pass_step(&mut r, self.epsilon, anchor, prev, fix)
            }
        };
        if closed {
            // The segment closed at the previous fix, which became the
            // new anchor — commit it. The batch kernel keeps the same
            // index (`j - 1`).
            self.core.run.op_close();
            out.push(*anchor);
        }
    }

    /// Commits the final fix, mirroring the batch kernel's
    /// always-keep-the-last countermeasure. A step never emits the
    /// newest fix (closes commit the *previous* one), so this cannot
    /// duplicate — except for a single-fix stream, whose only fix was
    /// already emitted as the anchor.
    fn drain(&mut self, out: &mut Vec<Fix>) {
        if self.core.pushed >= 2 {
            if let Some((_, prev)) = self.state.take() {
                out.push(prev);
            }
        }
        self.state = None;
        match &mut self.region {
            StreamRegion::Fit(r) => r.reset(),
            StreamRegion::Cone { dirs, off, apothem } => {
                let mut r = ConeRegion { dirs, off, apothem: *apothem };
                r.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opening_window::OpeningWindow;
    use crate::result::Compressor;
    use crate::{OnePassCone, OnePassFit};
    use traj_model::Trajectory;

    fn car_like() -> Trajectory {
        let mut triples = Vec::new();
        let mut t = 0.0;
        let (mut x, mut y) = (0.0, 0.0);
        for leg in 0..6 {
            let (dx, dy) = match leg % 4 {
                0 => (110.0, 3.0),
                1 => (5.0, 90.0),
                2 => (-80.0, 10.0),
                _ => (2.0, -60.0),
            };
            for _ in 0..7 {
                triples.push((t, x, y));
                t += 10.0;
                x += dx;
                y += dy;
            }
        }
        triples.push((t, x, y));
        Trajectory::from_triples(triples).unwrap()
    }

    fn run_stream<S: StreamingCompressor>(mut s: S, traj: &Trajectory) -> Vec<Fix> {
        let mut out = Vec::new();
        for f in traj.fixes() {
            out.extend(s.push(*f).unwrap());
        }
        out.extend(s.finish());
        out
    }

    fn kept_fixes(traj: &Trajectory, c: &dyn Compressor) -> Vec<Fix> {
        c.compress(traj).kept().iter().map(|&i| traj.fixes()[i]).collect()
    }

    #[test]
    fn stream_equals_batch_for_all_criteria() {
        let t = car_like();
        let cases = [
            (Criterion::Perpendicular { epsilon: 30.0 }, BreakStrategy::Normal),
            (Criterion::Perpendicular { epsilon: 30.0 }, BreakStrategy::BeforeFloat),
            (Criterion::TimeRatio { epsilon: 30.0 }, BreakStrategy::Normal),
            (Criterion::TimeRatio { epsilon: 60.0 }, BreakStrategy::BeforeFloat),
            (
                Criterion::TimeRatioSpeed { epsilon: 30.0, speed_epsilon: 5.0 },
                BreakStrategy::Normal,
            ),
        ];
        for (criterion, strategy) in cases {
            let batch = kept_fixes(&t, &OpeningWindow::new(criterion, strategy));
            let streamed = run_stream(OwStream::new(criterion, strategy), &t);
            assert_eq!(streamed, batch, "criterion {criterion:?} {strategy:?}");
        }
    }

    #[test]
    fn one_pass_stream_equals_batch() {
        let t = car_like();
        for eps in [5.0, 30.0, 120.0] {
            assert_eq!(
                run_stream(OnePassStream::fit(eps), &t),
                kept_fixes(&t, &OnePassFit::new(eps)),
                "fit eps {eps}"
            );
            assert_eq!(
                run_stream(OnePassStream::cone(eps), &t),
                kept_fixes(&t, &OnePassCone::new(eps)),
                "cone eps {eps}"
            );
            assert_eq!(
                run_stream(OnePassStream::cone_with(eps, 8), &t),
                kept_fixes(&t, &OnePassCone::with_directions(eps, 8)),
                "cone-8 eps {eps}"
            );
        }
    }

    #[test]
    fn one_pass_stream_emits_each_fix_once_when_a_velocity_overflows() {
        // The velocity from (0, 1e308) to (0, −1e308) in 1 s is (0, −∞).
        let t = Trajectory::from_triples([(0.0, 0.0, 1e308), (1.0, 0.0, -1e308), (2.0, 0.0, 0.0)])
            .unwrap();
        for eps in [0.0, 5.0] {
            let streamed = run_stream(OnePassStream::cone(eps), &t);
            assert_eq!(streamed, t.fixes(), "cone eps {eps}");
            assert_eq!(streamed, kept_fixes(&t, &OnePassCone::new(eps)), "cone eps {eps}");
            let fit = kept_fixes(&t, &OnePassFit::new(eps));
            assert_eq!(run_stream(OnePassStream::fit(eps), &t), fit, "fit eps {eps}");
        }
    }

    #[test]
    fn first_fix_emitted_immediately() {
        let f0 = Fix::from_parts(0.0, 1.0, 2.0);
        let mut ow = OwStream::opw_tr(10.0);
        assert_eq!(ow.push(f0).unwrap(), vec![f0]);
        let mut op = OnePassStream::fit(10.0);
        assert_eq!(op.push(f0).unwrap(), vec![f0]);
    }

    #[test]
    fn rejects_nonmonotonic_and_nonfinite_input() {
        let mut s = OwStream::opw_tr(10.0);
        s.push(Fix::from_parts(10.0, 0.0, 0.0)).unwrap();
        assert!(matches!(
            s.push(Fix::from_parts(10.0, 1.0, 0.0)),
            Err(ModelError::NonMonotonicTime { index: 1 })
        ));
        assert!(matches!(
            s.push(Fix::from_parts(f64::NAN, 1.0, 0.0)),
            Err(ModelError::NonFinite { .. })
        ));
        // Stream still usable after a rejected fix.
        assert!(s.push(Fix::from_parts(20.0, 1.0, 0.0)).is_ok());
    }

    #[test]
    fn one_pass_rejects_duplicate_timestamps() {
        let mut s = OnePassStream::cone(10.0);
        s.push(Fix::from_parts(5.0, 0.0, 0.0)).unwrap();
        assert!(matches!(
            s.push(Fix::from_parts(5.0, 1.0, 0.0)),
            Err(ModelError::NonMonotonicTime { index: 1 })
        ));
        assert!(matches!(
            s.push(Fix::from_parts(4.0, 1.0, 0.0)),
            Err(ModelError::NonMonotonicTime { index: 1 })
        ));
        assert!(s.push(Fix::from_parts(6.0, 1.0, 0.0)).is_ok());
        assert_eq!(s.pushed(), 2);
    }

    #[test]
    fn finish_emits_final_point() {
        let t = car_like();
        for streamed in [
            run_stream(OwStream::opw_tr(50.0), &t),
            run_stream(OnePassStream::fit(50.0), &t),
            run_stream(OnePassStream::cone(50.0), &t),
        ] {
            assert_eq!(streamed.last().unwrap(), t.last());
        }
    }

    #[test]
    fn single_fix_stream_finish_is_empty() {
        let mut s = OwStream::opw_tr(10.0);
        assert_eq!(s.push(Fix::from_parts(0.0, 0.0, 0.0)).unwrap().len(), 1);
        assert!(s.finish().is_empty(), "anchor already emitted");
        let mut s = OnePassStream::fit(10.0);
        assert_eq!(s.push(Fix::from_parts(0.0, 0.0, 0.0)).unwrap().len(), 1);
        assert!(s.finish().is_empty(), "anchor already emitted");
    }

    #[test]
    fn finish_resets_the_stream() {
        let f = |t: f64| Fix::from_parts(t, t, 0.0);
        let streams: [Box<dyn StreamingCompressor>; 3] = [
            Box::new(OwStream::opw_tr(10.0)),
            Box::new(OnePassStream::cone(10.0)),
            Box::new(PassThrough::default()),
        ];
        for mut s in streams {
            s.push(f(10.0)).unwrap();
            s.push(f(20.0)).unwrap();
            s.finish();
            assert_eq!(s.pushed(), 0, "{}", s.family());
            // An earlier instant is accepted as a new stream's anchor.
            assert_eq!(s.push(f(5.0)).unwrap(), vec![f(5.0)], "{}", s.family());
        }
    }

    #[test]
    fn pass_through_keeps_every_valid_fix() {
        let t = car_like();
        assert_eq!(run_stream(PassThrough::default(), &t), t.fixes());
        let mut s = PassThrough::default();
        s.push(Fix::from_parts(10.0, 0.0, 0.0)).unwrap();
        assert!(matches!(
            s.push(Fix::from_parts(10.0, 1.0, 0.0)),
            Err(ModelError::NonMonotonicTime { index: 1 })
        ));
        assert!(matches!(
            s.push(Fix::from_parts(11.0, f64::NAN, 0.0)),
            Err(ModelError::NonFinite { .. })
        ));
        assert!(s.finish().is_empty(), "nothing is held back");
    }

    #[test]
    fn empty_stream_finish_is_empty() {
        assert!(OwStream::opw_tr(10.0).finish().is_empty());
        assert!(OnePassStream::fit(10.0).finish().is_empty());
        assert!(OnePassStream::cone(10.0).finish().is_empty());
    }

    #[test]
    fn max_window_bounds_memory() {
        // Perfectly straight constant-speed data would grow the window
        // forever; the valve must cap it.
        let mut s = OwStream::opw_tr(100.0).with_max_window(16);
        let mut max_seen = 0usize;
        for i in 0..10_000 {
            s.push(Fix::from_parts(i as f64, i as f64 * 10.0, 0.0)).unwrap();
            max_seen = max_seen.max(s.window_len());
        }
        assert!(max_seen <= 16, "window grew to {max_seen}");
    }

    #[test]
    fn max_window_output_still_within_threshold() {
        let t = car_like();
        let eps = 30.0;
        let mut s = OwStream::opw_tr(eps).with_max_window(8);
        let mut kept = Vec::new();
        for f in t.fixes() {
            kept.extend(s.push(*f).unwrap());
        }
        kept.extend(s.finish());
        // The kept subsequence must still satisfy the per-segment SED
        // bound for all dropped points.
        let mut ki = 0usize;
        let fixes = t.fixes();
        let kept_idx: Vec<usize> = fixes
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                if ki < kept.len() && kept[ki] == **f {
                    ki += 1;
                    true
                } else {
                    false
                }
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(kept_idx.len(), kept.len(), "kept fixes are a subsequence");
        for w in kept_idx.windows(2) {
            for i in w[0] + 1..w[1] {
                let d = crate::distance::sed(&fixes[w[0]], &fixes[w[1]], &fixes[i]);
                assert!(d <= eps + 1e-9, "point {i} deviates {d}");
            }
        }
    }

    #[test]
    fn pushed_counts_accepted_fixes() {
        let mut s = OwStream::opw_tr(10.0);
        s.push(Fix::from_parts(0.0, 0.0, 0.0)).unwrap();
        s.push(Fix::from_parts(1.0, 1.0, 0.0)).unwrap();
        let _ = s.push(Fix::from_parts(0.5, 2.0, 0.0)); // rejected
        assert_eq!(s.pushed(), 2);
    }

    #[test]
    fn one_pass_stream_emits_within_bound() {
        let t = car_like();
        let eps = 40.0;
        for kept in [
            run_stream(OnePassStream::fit(eps), &t),
            run_stream(OnePassStream::cone(eps), &t),
        ] {
            let fixes = t.fixes();
            for w in kept.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                for f in fixes.iter().filter(|f| a.t < f.t && f.t < b.t) {
                    let d = crate::distance::sed(a, b, f);
                    assert!(d <= eps + 1e-9, "deviation {d}");
                }
            }
        }
    }
}
