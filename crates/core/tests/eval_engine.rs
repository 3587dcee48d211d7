//! Property-based pins for the one-pass evaluation engine.
//!
//! The engine's contract is **exact** agreement with the reference
//! `evaluate()` — same operands, same summation order — so every field
//! comparison here is `prop_assert_eq!`, not a tolerance check. The only
//! tolerance appears against the independent adaptive-quadrature α,
//! which is an approximation by construction.

use proptest::prelude::*;
use traj_compress::error::{average_synchronous_error_numeric, sed_quantiles};
use traj_compress::{
    evaluate, evaluate_sweep, evaluate_with, CompressionResult, Compressor, ErrorEval,
    EvalWorkspace, OnePassCone, OpeningWindow, TdSp, TdTr, TopDown, Workspace,
};
use traj_model::Trajectory;

/// Random car-ish trajectory: 4..=80 fixes, bounded steps.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    (
        proptest::collection::vec((1.0..30.0f64, -200.0..200.0f64, -200.0..200.0f64), 3..80),
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

/// An arbitrary valid compression result for a trajectory of `n` fixes:
/// endpoints always kept, interior points kept per the random mask.
fn random_result(mask: &[bool], n: usize) -> CompressionResult {
    let mut kept = vec![0];
    kept.extend((1..n - 1).filter(|&i| mask[i % mask.len()]));
    kept.push(n - 1);
    CompressionResult::new(kept, n)
}

proptest! {
    /// Engine == reference, field by field, exactly — on results from
    /// real compressors of every family.
    #[test]
    fn engine_equals_reference_for_compressors(t in trajectory(), eps in 0.0..200.0f64, veps in 0.5..30.0f64) {
        let compressors: [Box<dyn Compressor>; 4] = [
            Box::new(TdTr::new(eps)),
            Box::new(TdSp::new(eps, veps)),
            Box::new(OpeningWindow::opw_tr(eps)),
            Box::new(OpeningWindow::nopw(eps)),
        ];
        let mut ws = EvalWorkspace::new();
        for c in compressors {
            let r = c.compress(&t);
            prop_assert_eq!(evaluate_with(&t, &r, &mut ws), evaluate(&t, &r), "{}", c.name());
        }
    }

    /// Engine == reference on *arbitrary* kept subsets, not just ones a
    /// real algorithm would produce.
    #[test]
    fn engine_equals_reference_for_random_subsets(
        t in trajectory(),
        mask in proptest::collection::vec(any::<bool>(), 1..32),
    ) {
        let r = random_result(&mask, t.len());
        let mut ws = EvalWorkspace::new();
        prop_assert_eq!(evaluate_with(&t, &r, &mut ws), evaluate(&t, &r));
    }

    /// The engine's closed-form α agrees with the independent adaptive
    /// Simpson quadrature within tolerance.
    #[test]
    fn engine_alpha_matches_numeric_quadrature(t in trajectory(), eps in 1.0..150.0f64) {
        let r = TdTr::new(eps).compress(&t);
        let mut ws = EvalWorkspace::new();
        let engine = evaluate_with(&t, &r, &mut ws).avg_sync_err_m;
        let numeric = average_synchronous_error_numeric(&t, &r.apply(&t), 1e-9);
        prop_assert!(
            (engine - numeric).abs() <= 1e-5 + 1e-6 * engine.abs(),
            "engine={engine} numeric={numeric}"
        );
    }

    /// The memoized sweep path == per-cell evaluation, exactly, for
    /// arbitrary grids (shared anchor segments must not perturb a single
    /// bit).
    #[test]
    fn sweep_equals_per_cell(
        t in trajectory(),
        grid in proptest::collection::vec(0.0..250.0f64, 1..8),
    ) {
        let td = TopDown::time_ratio(0.0);
        let mut cws = Workspace::new();
        let results = td.sweep_with(&t, &grid, &mut cws);
        let mut ws = EvalWorkspace::new();
        let swept = evaluate_sweep(&t, &results, &mut ws);
        prop_assert_eq!(swept.len(), results.len());
        for (e, r) in swept.iter().zip(&results) {
            prop_assert_eq!(*e, evaluate(&t, r));
        }
    }

    /// SED quantiles from the engine == the reference on the applied
    /// approximation, for arbitrary kept subsets. The masks keep about
    /// four points in five, so most anchor segments span one interval
    /// (the engine serves those without a lookup).
    #[test]
    fn quantiles_equal_reference_for_dense_subsets(
        t in trajectory(),
        mask in proptest::collection::vec(0u8..10, 1..32),
    ) {
        let keep: Vec<bool> = mask.iter().map(|&m| m < 8).collect();
        let r = random_result(&keep, t.len());
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
        let mut ws = EvalWorkspace::new();
        let fast = ErrorEval::new(&t, &mut ws).sed_quantiles(&r, &qs);
        prop_assert_eq!(fast, sed_quantiles(&t, &r.apply(&t), &qs));
    }

    /// One workspace serves several compressors' results interleaved
    /// across a threshold grid — the experiment runner's figure-major
    /// order, where one memo per trajectory is shared by every
    /// algorithm of a figure. Every cell equals the reference.
    #[test]
    fn shared_memo_across_compressors_equals_reference(
        t in trajectory(),
        grid in proptest::collection::vec(0.0..150.0f64, 1..6),
        veps in 0.5..30.0f64,
    ) {
        let mut ws = EvalWorkspace::new();
        for &eps in &grid {
            let compressors: [Box<dyn Compressor>; 4] = [
                Box::new(TdTr::new(eps)),
                Box::new(OpeningWindow::opw_sp(eps, veps)),
                Box::new(OpeningWindow::nopw(eps)),
                Box::new(OnePassCone::new(eps)),
            ];
            for c in compressors {
                let r = c.compress(&t);
                let fast = evaluate_with(&t, &r, &mut ws);
                prop_assert_eq!(fast, evaluate(&t, &r), "{} eps={}", c.name(), eps);
            }
        }
    }

    /// A single dirty workspace reused across trajectories and result
    /// mixes never bleeds state: every evaluation matches a fresh one.
    #[test]
    fn workspace_reuse_is_stateless(
        ts in proptest::collection::vec(trajectory(), 1..4),
        eps in 1.0..150.0f64,
    ) {
        let mut shared = EvalWorkspace::new();
        for t in &ts {
            let mut ev = ErrorEval::new(t, &mut shared);
            for e in [eps, eps * 2.0, eps] {
                let r = TdTr::new(e).compress(t);
                prop_assert_eq!(ev.evaluate(&r), evaluate(t, &r));
            }
        }
    }
}
