//! Property-based tests for the compression algorithms and error
//! calculus.

use proptest::prelude::*;
use proptest::sample::Index;
use traj_compress::error::{
    average_synchronous_error, average_synchronous_error_numeric, max_synchronous_error,
    sed_at_samples,
};
use traj_compress::streaming::{OnePassStream, OwStream, StreamingCompressor};
use traj_compress::{
    sed, speed_difference, spt, BottomUp, BreakStrategy, CompressionResultBuf, Compressor, Criterion,
    DouglasPeucker, OnePassCone, OnePassFit, OpeningWindow, SlidingWindow, TdSp, TdTr, TopDown,
    UniformSample, Workspace,
};
use traj_model::{Fix, Trajectory};

/// Random car-ish trajectory: 4..=80 fixes, bounded steps.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    (
        proptest::collection::vec(
            (1.0..30.0f64, -200.0..200.0f64, -200.0..200.0f64),
            3..80,
        ),
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

/// Like [`trajectory`], but about a third of the steps dwell: time
/// advances while the position stays put, so windows meet zero-length
/// chords and runs of zero distances.
fn dwelling_trajectory() -> impl Strategy<Value = Trajectory> {
    proptest::collection::vec(
        (1.0..30.0f64, -200.0..200.0f64, -200.0..200.0f64, 0.0..1.0f64),
        3..80,
    )
    .prop_map(|steps| {
        let (mut t, mut x, mut y) = (0.0, 0.0, 0.0);
        let mut triples = vec![(t, x, y)];
        for (dt, dx, dy, dwell) in steps {
            t += dt;
            if dwell >= 1.0 / 3.0 {
                x += dx;
                y += dy;
            }
            triples.push((t, x, y));
        }
        Trajectory::from_triples(triples).expect("valid by construction")
    })
}

/// A threshold grid in arbitrary order that always contains `0` and a
/// repeated threshold.
fn unsorted_grid_with_repeats() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..250.0f64, 1..6).prop_map(|mut grid| {
        grid.push(0.0);
        grid.push(grid[0]);
        grid
    })
}

/// The window families the memoized sweep serves: NOPW, BOPW, OPW-TR
/// and OPW-SP with the speed term at zero, `veps` and off.
fn window_families(veps: f64) -> [OpeningWindow; 6] {
    [
        OpeningWindow::nopw(0.0),
        OpeningWindow::bopw(0.0),
        OpeningWindow::opw_tr(0.0),
        OpeningWindow::opw_sp(0.0, 0.0),
        OpeningWindow::opw_sp(0.0, veps),
        OpeningWindow::opw_sp(0.0, f64::INFINITY),
    ]
}

/// The single-threshold compressor a window sweep answers for at `eps`.
fn window_at(ow: &OpeningWindow, eps: f64) -> OpeningWindow {
    OpeningWindow::new(ow.criterion().with_epsilon(eps), ow.strategy())
}

/// Feeds every fix of `t` through a boxed stream — the dynamic
/// dispatch an ingest session uses — and finishes it.
fn run_boxed(mut stream: Box<dyn StreamingCompressor>, t: &Trajectory) -> Vec<Fix> {
    let mut got = Vec::new();
    for f in t.fixes() {
        got.extend(stream.push(*f).unwrap());
    }
    got.extend(stream.finish());
    got
}

fn all_compressors(eps: f64, veps: f64) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(UniformSample::new(3)),
        Box::new(traj_compress::DistanceThreshold::new(eps)),
        Box::new(DouglasPeucker::new(eps)),
        Box::new(TdTr::new(eps)),
        Box::new(TdSp::new(eps, veps)),
        Box::new(OpeningWindow::nopw(eps)),
        Box::new(OpeningWindow::bopw(eps)),
        Box::new(OpeningWindow::opw_tr(eps)),
        Box::new(OpeningWindow::opw_sp(eps, veps)),
        Box::new(BottomUp::time_ratio(eps)),
        Box::new(BottomUp::perpendicular(eps)),
        Box::new(SlidingWindow::time_ratio(eps, 12)),
        Box::new(OnePassFit::new(eps)),
        Box::new(OnePassCone::new(eps)),
    ]
}

proptest! {
    /// Every compressor upholds the CompressionResult invariants on
    /// arbitrary valid inputs (first/last kept, strictly increasing) —
    /// the constructor would panic otherwise, so surviving compression
    /// plus the explicit checks here is the property.
    #[test]
    fn compressors_uphold_result_invariants(t in trajectory(), eps in 0.0..200.0f64, veps in 0.5..30.0f64) {
        for c in all_compressors(eps, veps) {
            let r = c.compress(&t);
            prop_assert_eq!(r.original_len(), t.len());
            prop_assert_eq!(r.kept()[0], 0, "{}", c.name());
            prop_assert_eq!(*r.kept().last().unwrap(), t.len() - 1, "{}", c.name());
            prop_assert!(r.kept_len() <= t.len());
        }
    }

    /// Top-down algorithms guarantee every removed point is within eps of
    /// its covering segment under their own metric.
    #[test]
    fn top_down_epsilon_postcondition(t in trajectory(), eps in 1.0..150.0f64) {
        for criterion in [
            Criterion::Perpendicular { epsilon: eps },
            Criterion::TimeRatio { epsilon: eps },
        ] {
            let r = TopDown::new(criterion).compress(&t);
            let f = t.fixes();
            for w in r.kept().windows(2) {
                for i in w[0] + 1..w[1] {
                    let d = criterion.split_value(f, w[0], w[1], i);
                    prop_assert!(d <= eps + 1e-9, "{criterion:?} point {i}: {d} > {eps}");
                }
            }
        }
    }

    /// Opening-window (Normal strategy) postcondition: interior points of
    /// every emitted segment satisfy the SED bound (they were all checked
    /// while the window was open).
    #[test]
    fn opw_tr_interior_postcondition(t in trajectory(), eps in 1.0..150.0f64) {
        let r = OpeningWindow::opw_tr(eps).compress(&t);
        let f = t.fixes();
        for w in r.kept().windows(2) {
            for i in w[0] + 1..w[1] {
                prop_assert!(sed(&f[w[0]], &f[w[1]], &f[i]) <= eps + 1e-9);
            }
        }
    }

    /// The SPT recursion (paper pseudocode) and the production OPW-SP
    /// engine agree exactly.
    #[test]
    fn spt_spec_equals_opw_sp(t in trajectory(), eps in 1.0..150.0f64, veps in 0.5..30.0f64) {
        let spec = spt(&t, eps, veps);
        let prod = OpeningWindow::opw_sp(eps, veps).compress(&t);
        prop_assert_eq!(spec.kept(), prod.kept());
    }

    /// The streaming engine replays the batch engine exactly, for every
    /// criterion/strategy pair, called directly or through
    /// `Box<dyn StreamingCompressor>`.
    #[test]
    fn streaming_equals_batch(t in trajectory(), eps in 1.0..150.0f64, veps in 0.5..30.0f64) {
        let cases = [
            (Criterion::Perpendicular { epsilon: eps }, BreakStrategy::Normal),
            (Criterion::Perpendicular { epsilon: eps }, BreakStrategy::BeforeFloat),
            (Criterion::TimeRatio { epsilon: eps }, BreakStrategy::Normal),
            (Criterion::TimeRatioSpeed { epsilon: eps, speed_epsilon: veps }, BreakStrategy::Normal),
        ];
        for (criterion, strategy) in cases {
            let batch = OpeningWindow::new(criterion, strategy).compress(&t);
            let expected: Vec<Fix> = batch.kept().iter().map(|&i| t.fixes()[i]).collect();
            let mut stream = OwStream::new(criterion, strategy);
            let mut got = Vec::new();
            for f in t.fixes() {
                got.extend(stream.push(*f).unwrap());
            }
            got.extend(stream.finish());
            prop_assert_eq!(&got, &expected, "criterion {:?}", criterion);
            let boxed = Box::new(OwStream::new(criterion, strategy));
            prop_assert_eq!(&run_boxed(boxed, &t), &expected, "boxed {:?}", criterion);
        }
    }

    /// Fault injection: a stream fed out-of-order and non-finite fixes
    /// rejects exactly the invalid ones and produces, over the accepted
    /// subsequence, the same output as the batch algorithm on that
    /// subsequence.
    #[test]
    fn streaming_survives_dirty_input(
        raw in proptest::collection::vec(
            (0.0..5000.0f64, -500.0..500.0f64, -500.0..500.0f64, 0u8..10),
            4..80,
        ),
        eps in 5.0..100.0f64,
    ) {
        let mut stream = OwStream::opw_tr(eps);
        let mut accepted: Vec<Fix> = Vec::new();
        let mut got: Vec<Fix> = Vec::new();
        for (t, x, y, poison) in raw {
            // Occasionally corrupt the fix.
            let fix = match poison {
                0 => Fix::from_parts(f64::NAN, x, y),
                1 => Fix::from_parts(t, f64::INFINITY, y),
                _ => Fix::from_parts(t, x, y),
            };
            match stream.push(fix) {
                Ok(emitted) => {
                    accepted.push(fix);
                    got.extend(emitted);
                }
                Err(_) => {
                    // Must be an actual violation: non-finite or not
                    // strictly later than the last accepted fix.
                    let later = accepted.last().is_none_or(|l| l.t < fix.t);
                    prop_assert!(!fix.is_finite() || !later, "spurious rejection of {fix:?}");
                }
            }
        }
        got.extend(stream.finish());
        prop_assume!(accepted.len() >= 2);
        let clean = Trajectory::new(accepted).expect("accepted fixes are valid");
        let batch = OpeningWindow::opw_tr(eps).compress(&clean);
        let expected: Vec<Fix> = batch.kept().iter().map(|&i| clean.fixes()[i]).collect();
        prop_assert_eq!(got, expected);
    }

    /// One-pass family soundness: every point dropped from an emitted
    /// segment satisfies the *declared* SED bound against that segment —
    /// the bound is strict, not heuristic (the fitting regions are
    /// inscribed subsets of the exact feasibility disks).
    #[test]
    fn one_pass_strict_sed_bound(t in trajectory(), eps in 0.0..200.0f64, m in 4usize..64) {
        let compressors: Vec<Box<dyn Compressor>> = vec![
            Box::new(OnePassFit::new(eps)),
            Box::new(OnePassCone::new(eps)),
            Box::new(OnePassCone::with_directions(eps, m)),
        ];
        let f = t.fixes();
        for c in compressors {
            let r = c.compress(&t);
            for w in r.kept().windows(2) {
                for i in w[0] + 1..w[1] {
                    let d = sed(&f[w[0]], &f[w[1]], &f[i]);
                    prop_assert!(d <= eps + 1e-9, "{}: point {} deviates {} > {}", c.name(), i, d, eps);
                }
            }
        }
    }

    /// `OnePassStream` fed fix-by-fix is bit-identical to the batch
    /// kernel, for both region variants, called directly or through
    /// `Box<dyn StreamingCompressor>`.
    #[test]
    fn one_pass_streaming_equals_batch(t in trajectory(), eps in 0.0..200.0f64, m in 4usize..64) {
        let cases: Vec<(OnePassStream, Box<dyn Compressor>)> = vec![
            (OnePassStream::fit(eps), Box::new(OnePassFit::new(eps))),
            (OnePassStream::cone(eps), Box::new(OnePassCone::new(eps))),
            (
                OnePassStream::cone_with(eps, m),
                Box::new(OnePassCone::with_directions(eps, m)),
            ),
        ];
        for (mut stream, batch) in cases {
            let expected: Vec<Fix> =
                batch.compress(&t).kept().iter().map(|&i| t.fixes()[i]).collect();
            let boxed = Box::new(stream.clone());
            let mut got = Vec::new();
            for f in t.fixes() {
                got.extend(stream.push(*f).unwrap());
            }
            got.extend(stream.finish());
            prop_assert_eq!(&got, &expected, "{}", batch.name());
            prop_assert_eq!(&run_boxed(boxed, &t), &expected, "boxed {}", batch.name());
        }
    }

    /// Fault injection for the one-pass stream: out-of-order,
    /// *duplicate-timestamp*, and non-finite fixes are rejected exactly,
    /// and the accepted subsequence matches the batch kernel on the
    /// cleaned trajectory.
    #[test]
    fn one_pass_streaming_survives_dirty_input(
        raw in proptest::collection::vec(
            (0.0..5000.0f64, -500.0..500.0f64, -500.0..500.0f64, 0u8..12),
            4..80,
        ),
        eps in 5.0..100.0f64,
    ) {
        let mut stream = OnePassStream::cone(eps);
        let mut accepted: Vec<Fix> = Vec::new();
        let mut got: Vec<Fix> = Vec::new();
        for (t, x, y, poison) in raw {
            let fix = match poison {
                0 => Fix::from_parts(f64::NAN, x, y),
                1 => Fix::from_parts(t, f64::INFINITY, y),
                // Duplicate timestamp: exactly the last accepted instant.
                2 => match accepted.last() {
                    Some(l) => Fix::from_parts(l.t.as_secs(), x, y),
                    None => Fix::from_parts(t, x, y),
                },
                _ => Fix::from_parts(t, x, y),
            };
            match stream.push(fix) {
                Ok(emitted) => {
                    accepted.push(fix);
                    got.extend(emitted);
                }
                Err(_) => {
                    let later = accepted.last().is_none_or(|l| l.t < fix.t);
                    prop_assert!(!fix.is_finite() || !later, "spurious rejection of {fix:?}");
                }
            }
        }
        got.extend(stream.finish());
        prop_assume!(accepted.len() >= 2);
        let clean = Trajectory::new(accepted).expect("accepted fixes are valid");
        let batch = OnePassCone::new(eps).compress(&clean);
        let expected: Vec<Fix> = batch.kept().iter().map(|&i| clean.fixes()[i]).collect();
        prop_assert_eq!(got, expected);
    }

    /// DP iterative == DP recursive on arbitrary input.
    #[test]
    fn dp_engines_agree(t in trajectory(), eps in 0.0..150.0f64) {
        for criterion in [
            Criterion::Perpendicular { epsilon: eps },
            Criterion::TimeRatio { epsilon: eps },
        ] {
            let td = TopDown::new(criterion);
            let iterative = td.compress(&t);
            let recursive = td.compress_recursive(&t);
            prop_assert_eq!(iterative.kept(), recursive.kept());
        }
    }

    /// Larger epsilon never keeps more points (top-down family).
    #[test]
    fn top_down_monotone_in_epsilon(t in trajectory(), eps in 1.0..100.0f64, factor in 1.0..5.0f64) {
        let small = TdTr::new(eps).compress(&t).kept_len();
        let large = TdTr::new(eps * factor).compress(&t).kept_len();
        prop_assert!(large <= small);
    }

    /// Closed-form α equals numeric quadrature for arbitrary compression
    /// results.
    #[test]
    fn alpha_closed_form_matches_numeric(t in trajectory(), eps in 1.0..150.0f64) {
        let r = TdTr::new(eps).compress(&t);
        let a = r.apply(&t);
        let closed = average_synchronous_error(&t, &a);
        let numeric = average_synchronous_error_numeric(&t, &a, 1e-9);
        prop_assert!(
            (closed - numeric).abs() <= 1e-5 + 1e-6 * closed.abs(),
            "closed={closed} numeric={numeric}"
        );
    }

    /// α is bounded by the continuous maximum, which in turn bounds the
    /// discrete sample maximum from above.
    #[test]
    fn alpha_ordering_invariants(t in trajectory(), eps in 1.0..150.0f64) {
        let r = OpeningWindow::opw_tr(eps).compress(&t);
        let a = r.apply(&t);
        let avg = average_synchronous_error(&t, &a);
        let max = max_synchronous_error(&t, &a);
        let (mean_sed, max_sed) = sed_at_samples(&t, &a);
        prop_assert!(avg <= max + 1e-9);
        prop_assert!(mean_sed <= max_sed + 1e-9);
        prop_assert!(max_sed <= max + 1e-9);
        prop_assert!(avg >= 0.0 && max.is_finite());
    }

    /// TD-TR's α error is bounded by its threshold's continuous
    /// consequence: since every removed point is within eps *at sample
    /// instants*, and the synchronous distance is piecewise linear-ish
    /// between them, the discrete max SED over samples is ≤ eps.
    #[test]
    fn td_tr_sample_sed_bounded_by_epsilon(t in trajectory(), eps in 1.0..150.0f64) {
        let r = TdTr::new(eps).compress(&t);
        let a = r.apply(&t);
        let (_, max_sed) = sed_at_samples(&t, &a);
        prop_assert!(max_sed <= eps + 1e-9, "max_sed={max_sed} eps={eps}");
    }

    /// Compressing an already-compressed trajectory with the same
    /// threshold changes nothing for the top-down family (idempotence on
    /// the kept set).
    #[test]
    fn td_tr_idempotent(t in trajectory(), eps in 1.0..150.0f64) {
        let c = TdTr::new(eps);
        let once = c.compress(&t).apply(&t);
        let twice = c.compress(&once).apply(&once);
        prop_assert_eq!(once, twice);
    }

    /// Uniform sampling keeps ⌈n/step⌉ (+ last) points.
    #[test]
    fn uniform_sample_count(t in trajectory(), step in 1usize..10) {
        let r = UniformSample::new(step).compress(&t);
        let n = t.len();
        let expect = n.div_ceil(step);
        let got = r.kept_len();
        prop_assert!(got == expect || got == expect + 1, "n={n} step={step} got={got}");
    }

    /// `compress_into` with a single shared (dirty, reused) workspace is
    /// observationally identical to `compress` for every registered
    /// compressor — the allocation-free kernels change nothing but wall
    /// time.
    #[test]
    fn compress_into_equals_compress_for_all(t in trajectory(), eps in 0.0..200.0f64, veps in 0.5..30.0f64) {
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        for c in all_compressors(eps, veps) {
            c.compress_into(&t, &mut ws, &mut out);
            prop_assert_eq!(out.take(), c.compress(&t), "{}", c.name());
        }
    }

    /// The one-pass sweep is byte-identical to per-threshold compression
    /// for the whole top-down family, on arbitrary inputs and grids.
    #[test]
    fn sweep_equals_per_threshold_compress(
        t in trajectory(),
        grid in proptest::collection::vec(0.0..250.0f64, 1..6),
        veps in 0.5..30.0f64,
    ) {
        let tds = [
            TopDown::perpendicular(0.0),
            TopDown::time_ratio(0.0),
            TopDown::time_ratio_speed(0.0, veps),
        ];
        for td in tds {
            let swept = td.sweep(&t, &grid);
            for (r, &eps) in swept.iter().zip(&grid) {
                let single = TopDown::new(td.criterion().with_epsilon(eps)).compress(&t);
                prop_assert_eq!(r, &single, "{} eps={}", td.name(), eps);
            }
        }
    }

    /// The memoized opening-window sweep is byte-identical to
    /// per-threshold compression for every window family, on unsorted
    /// grids with repeats and `0`, on inputs with dwell points, with one
    /// workspace reused across trajectories of different lengths.
    #[test]
    fn window_sweep_equals_per_threshold_compress(
        ts in proptest::collection::vec(dwelling_trajectory(), 1..4),
        grid in unsorted_grid_with_repeats(),
        veps in 0.0..30.0f64,
    ) {
        let mut ws = Workspace::new();
        for t in &ts {
            for ow in window_families(veps) {
                let swept = ow.sweep_with(t, &grid, &mut ws);
                prop_assert_eq!(swept.len(), grid.len());
                for (r, &eps) in swept.iter().zip(&grid) {
                    let single = window_at(&ow, eps).compress(t);
                    prop_assert_eq!(r, &single, "{} n={} eps={}", ow.name(), t.len(), eps);
                }
            }
        }
    }

    /// The memoized opening-window sweep equals, at every threshold, an
    /// `OwStream` replay of the same criterion and strategy — a separate
    /// fix-by-fix implementation over the scalar `first_violation`, so
    /// the engine is not only compared with itself. Covers every window
    /// family plus both time-ratio criteria with BOPW cuts.
    #[test]
    fn window_sweep_equals_stream_oracle(
        t in dwelling_trajectory(),
        grid in unsorted_grid_with_repeats(),
        veps in 0.0..30.0f64,
    ) {
        let mut ows = window_families(veps).to_vec();
        let bopw = BreakStrategy::BeforeFloat;
        ows.push(OpeningWindow::new(Criterion::TimeRatio { epsilon: 0.0 }, bopw));
        for speed_epsilon in [0.0, veps, f64::INFINITY] {
            let crit = Criterion::TimeRatioSpeed { epsilon: 0.0, speed_epsilon };
            ows.push(OpeningWindow::new(crit, bopw));
        }
        for ow in ows {
            let swept = ow.sweep(&t, &grid);
            for (r, &eps) in swept.iter().zip(&grid) {
                let stream = OwStream::new(ow.criterion().with_epsilon(eps), ow.strategy());
                let expected: Vec<Fix> = r.kept().iter().map(|&i| t.fixes()[i]).collect();
                prop_assert_eq!(
                    &run_boxed(Box::new(stream), &t),
                    &expected,
                    "{:?} {:?} eps={}", ow.criterion(), ow.strategy(), eps
                );
            }
        }
    }

    /// Window sweeps over 1-, 2- and 3-fix inputs (an empty trajectory
    /// cannot be built) equal per-threshold compression for every grid,
    /// the empty grid included.
    #[test]
    fn window_sweep_degenerate_inputs(
        grid in proptest::collection::vec(0.0..100.0f64, 0..4),
        dx in -50.0..50.0f64,
        dy in -50.0..50.0f64,
        veps in 0.0..10.0f64,
    ) {
        prop_assert!(Trajectory::from_triples(std::iter::empty()).is_err());
        let triples = [(0.0, 0.0, 0.0), (10.0, dx, dy), (20.0, 2.0 * dx, -dy)];
        for len in 1..=triples.len() {
            let t = Trajectory::from_triples(triples[..len].iter().copied()).unwrap();
            for ow in window_families(veps) {
                let swept = ow.sweep(&t, &grid);
                prop_assert_eq!(swept.len(), grid.len());
                for (r, &eps) in swept.iter().zip(&grid) {
                    let single = window_at(&ow, eps).compress(&t);
                    prop_assert_eq!(r, &single, "{} n={}", ow.name(), len);
                }
            }
        }
    }

    /// A figure's window rows swept together — lanes of one engine scan
    /// per distance kernel and break strategy — equal, row by row and
    /// threshold by threshold, each row's own `compress`: mixes of NOPW,
    /// BOPW, OPW-TR, OPW-SP and the time-ratio BOPW forms with a repeated
    /// row, speed thresholds below, at, between and above the
    /// trajectory's speed differences, unsorted grids with repeats, `0`
    /// and `1e9`, and trajectories with stationary runs or of 1–2 fixes
    /// (an empty one cannot be built). A second sweep through the warm
    /// workspace must give the same results.
    #[test]
    fn window_rows_sweep_equals_per_row_compress(
        t in dwelling_trajectory(),
        cut in 0usize..8,
        picks in proptest::collection::vec((0u8..6, 0u8..6, any::<Index>()), 1..7),
        grid in unsorted_grid_with_repeats(),
        far in proptest::bool::ANY,
    ) {
        prop_assert!(Trajectory::from_triples(std::iter::empty()).is_err());
        let t = match t.fixes().get(..=cut).filter(|_| cut < 2) {
            Some(head) => Trajectory::new(head.to_vec()).unwrap(),
            None => t,
        };
        let mut grid = grid;
        if far {
            grid.push(1e9);
        }
        let mut dvs: Vec<f64> = (0..t.len()).filter_map(|i| speed_difference(&t, i)).collect();
        dvs.sort_by(f64::total_cmp);
        let dv = |i: usize| dvs.get(i).copied().unwrap_or(0.0);
        let speed = |pick: u8, at: &Index| {
            let i = at.index(dvs.len().max(1));
            match pick {
                0 => 0.0,
                1 => dv(0) / 2.0,
                2 => dv(i),
                3 => (dv(i) + dv((i + 1).min(dvs.len().saturating_sub(1)))) / 2.0,
                4 => dv(dvs.len().saturating_sub(1)) + 1.0,
                _ => f64::INFINITY,
            }
        };
        let bopw = BreakStrategy::BeforeFloat;
        let mut rows: Vec<OpeningWindow> = picks
            .iter()
            .map(|(kind, pick, at)| {
                let speed_epsilon = speed(*pick, at);
                match kind {
                    0 => OpeningWindow::nopw(0.0),
                    1 => OpeningWindow::bopw(0.0),
                    2 => OpeningWindow::opw_tr(0.0),
                    3 => OpeningWindow::new(Criterion::TimeRatio { epsilon: 0.0 }, bopw),
                    4 => OpeningWindow::opw_sp(0.0, speed_epsilon),
                    _ => OpeningWindow::new(
                        Criterion::TimeRatioSpeed { epsilon: 0.0, speed_epsilon },
                        bopw,
                    ),
                }
            })
            .collect();
        rows.push(rows[0]);
        let mut ws = Workspace::new();
        let swept = OpeningWindow::sweep_rows(&rows, &t, &grid, &mut ws);
        prop_assert_eq!(swept.len(), rows.len());
        for (ow, results) in rows.iter().zip(&swept) {
            prop_assert_eq!(results.len(), grid.len());
            for (r, &eps) in results.iter().zip(&grid) {
                let single = window_at(ow, eps).compress(&t);
                prop_assert_eq!(r, &single, "{} n={} eps={}", ow.name(), t.len(), eps);
            }
        }
        prop_assert_eq!(OpeningWindow::sweep_rows(&rows, &t, &grid, &mut ws), swept);
    }

    /// Degenerate trajectories (1 and 2 fixes) sweep to identities for
    /// every grid.
    #[test]
    fn sweep_degenerate_inputs(grid in proptest::collection::vec(0.0..100.0f64, 0..4)) {
        let one = Trajectory::from_triples([(0.0, 0.0, 0.0)]).unwrap();
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 3.0, 4.0)]).unwrap();
        for t in [&one, &two] {
            let swept = TopDown::time_ratio(0.0).sweep(t, &grid);
            prop_assert_eq!(swept.len(), grid.len());
            for r in swept {
                prop_assert_eq!(r.kept_len(), t.len());
            }
        }
    }
}

/// Streaming ≡ batch for the one-pass family on 0/1/2-fix degenerates
/// (the proptest strategy never generates fewer than 4 fixes, so these
/// are pinned explicitly).
#[test]
fn one_pass_stream_degenerate_inputs_match_batch() {
    let trajectories = [
        Vec::new(),
        vec![(0.0, 1.0, 2.0)],
        vec![(0.0, 0.0, 0.0), (7.0, 100.0, -3.0)],
    ];
    for triples in trajectories {
        let streams: Vec<(OnePassStream, Box<dyn Compressor>)> = vec![
            (OnePassStream::fit(20.0), Box::new(OnePassFit::new(20.0))),
            (OnePassStream::cone(20.0), Box::new(OnePassCone::new(20.0))),
        ];
        for (mut stream, batch) in streams {
            let mut got = Vec::new();
            for &(t, x, y) in &triples {
                got.extend(stream.push(Fix::from_parts(t, x, y)).unwrap());
            }
            got.extend(stream.finish());
            if triples.is_empty() {
                assert!(got.is_empty());
                continue;
            }
            let traj = Trajectory::from_triples(triples.iter().copied()).unwrap();
            let expected: Vec<Fix> =
                batch.compress(&traj).kept().iter().map(|&i| traj.fixes()[i]).collect();
            assert_eq!(got, expected, "{} on {} fixes", batch.name(), traj.len());
        }
    }
}
