//! Pins the one-pass sweep's byte-identical contract on the *actual
//! reproduction protocol*: the calibrated ten-trajectory dataset and the
//! paper's 30–100 m threshold grid. If the sweep and the per-threshold
//! compressors ever disagree — on any trajectory, threshold, or
//! speed-threshold — the figures silently change meaning; this test
//! makes that a hard failure.

use traj_compress::streaming::{OwStream, StreamingCompressor};
use traj_compress::{
    evaluate, evaluate_sweep, Compressor, EvalWorkspace, OpeningWindow, TdSp, TopDown, Workspace,
};
use traj_eval::{
    sweep, sweep_algo, sweep_algo_parallel, Algo, PAPER_SPEED_THRESHOLDS, PAPER_THRESHOLDS,
};
use traj_model::Fix;

/// Every opening-window configuration of Figs. 8–11.
fn figure_windows() -> Vec<(String, OpeningWindow)> {
    let mut ows = vec![
        ("BOPW".to_string(), OpeningWindow::bopw(0.0)),
        ("NOPW".to_string(), OpeningWindow::nopw(0.0)),
        ("OPW-TR".to_string(), OpeningWindow::opw_tr(0.0)),
    ];
    for v in PAPER_SPEED_THRESHOLDS {
        ows.push((format!("OPW-SP({v}m/s)"), OpeningWindow::opw_sp(0.0, v)));
    }
    ows
}

#[test]
fn sweep_is_byte_identical_to_per_threshold_compress_on_paper_grid() {
    let dataset = traj_gen::paper_dataset(42);
    let mut ws = Workspace::new();
    let tds = [
        ("NDP", TopDown::perpendicular(0.0)),
        ("TD-TR", TopDown::time_ratio(0.0)),
        ("TD-SP(5m/s)", TopDown::time_ratio_speed(0.0, 5.0)),
        ("TD-SP(15m/s)", TopDown::time_ratio_speed(0.0, 15.0)),
        ("TD-SP(25m/s)", TopDown::time_ratio_speed(0.0, 25.0)),
    ];
    for (label, td) in tds {
        for traj in &dataset {
            let swept = td.sweep_with(traj, &PAPER_THRESHOLDS, &mut ws);
            for (r, &eps) in swept.iter().zip(&PAPER_THRESHOLDS) {
                let single = TopDown::new(td.criterion().with_epsilon(eps)).compress(traj);
                assert_eq!(r, &single, "{label} eps={eps}");
            }
        }
    }
}

#[test]
fn tdsp_wrapper_sweep_matches_on_paper_grid() {
    let dataset = traj_gen::paper_dataset(42);
    for &veps in &PAPER_SPEED_THRESHOLDS {
        let sp = TdSp::new(30.0, veps);
        for traj in &dataset {
            let swept = sp.sweep(traj, &PAPER_THRESHOLDS);
            for (r, &eps) in swept.iter().zip(&PAPER_THRESHOLDS) {
                assert_eq!(r, &TdSp::new(eps, veps).compress(traj), "veps={veps} eps={eps}");
            }
        }
    }
}

#[test]
fn window_sweep_is_byte_identical_to_per_threshold_compress_on_paper_grid() {
    let dataset = traj_gen::paper_dataset(42);
    let mut ws = Workspace::new();
    for (label, ow) in &figure_windows() {
        for traj in &dataset {
            let swept = ow.sweep_with(traj, &PAPER_THRESHOLDS, &mut ws);
            for (r, &eps) in swept.iter().zip(&PAPER_THRESHOLDS) {
                let crit = ow.criterion().with_epsilon(eps);
                let single = OpeningWindow::new(crit, ow.strategy()).compress(traj);
                assert_eq!(r, &single, "{label} eps={eps}");
            }
        }
    }
}

/// The window sweep against an independent oracle: `OwStream` replays
/// each trajectory fix by fix through the scalar `first_violation`, so
/// this pin does not go through the opening-window engine at all.
#[test]
fn window_sweep_equals_stream_replay_on_paper_grid() {
    let dataset = traj_gen::paper_dataset(42);
    let mut ws = Workspace::new();
    for (label, ow) in &figure_windows() {
        for traj in &dataset {
            let swept = ow.sweep_with(traj, &PAPER_THRESHOLDS, &mut ws);
            for (r, &eps) in swept.iter().zip(&PAPER_THRESHOLDS) {
                let mut stream = OwStream::new(ow.criterion().with_epsilon(eps), ow.strategy());
                let mut replay: Vec<Fix> = Vec::new();
                for &fix in traj.fixes() {
                    replay.extend(stream.push(fix).expect("paper fixes are valid"));
                }
                replay.extend(stream.finish());
                assert_eq!(r.apply(traj).fixes(), replay.as_slice(), "{label} eps={eps}");
            }
        }
    }
}

#[test]
fn sweep_algo_aggregates_bit_identically_to_factory_sweep() {
    // The registry path must not change a single float in the figures.
    let dataset = traj_gen::paper_dataset(42);
    let fast = sweep_algo(
        &Algo::top_down("TD-TR", TopDown::time_ratio(0.0)),
        &dataset,
        &PAPER_THRESHOLDS,
    );
    let slow = sweep("TD-TR", &dataset, &PAPER_THRESHOLDS, |e| {
        Box::new(traj_compress::TdTr::new(e))
    });
    assert_eq!(fast, slow);
}

#[test]
fn window_sweep_algo_aggregates_bit_identically_to_factory_sweep() {
    let dataset = traj_gen::paper_dataset(42);
    let fast = sweep_algo(
        &Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
        &dataset,
        &PAPER_THRESHOLDS,
    );
    let slow = sweep("OPW-TR", &dataset, &PAPER_THRESHOLDS, |e| {
        Box::new(OpeningWindow::opw_tr(e))
    });
    assert_eq!(fast, slow);
}

#[test]
fn evaluate_sweep_matches_per_cell_evaluate_on_paper_grid() {
    // The memoized engine pass behind `sweep_algo` must reproduce the
    // reference per-cell evaluation exactly on the real protocol.
    let dataset = traj_gen::paper_dataset(42);
    let td = TopDown::time_ratio(0.0);
    let mut ws = Workspace::new();
    let mut ews = EvalWorkspace::new();
    for traj in &dataset {
        let results = td.sweep_with(traj, &PAPER_THRESHOLDS, &mut ws);
        let swept = evaluate_sweep(traj, &results, &mut ews);
        for ((e, r), &eps) in swept.iter().zip(&results).zip(&PAPER_THRESHOLDS) {
            assert_eq!(*e, evaluate(traj, r), "eps={eps}");
        }
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_on_paper_grid() {
    // The acceptance pin: fanning the reproduction grid across workers
    // must not change a single float in the aggregates, for the one-pass
    // top-down path, the memoized window path and the per-threshold
    // factory path.
    let dataset = traj_gen::paper_dataset(42);
    let algos = [
        Algo::top_down("TD-TR", TopDown::time_ratio(0.0)),
        Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
        Algo::factory("OPW-TR", |e| Box::new(OpeningWindow::opw_tr(e))),
    ];
    for algo in &algos {
        let serial = sweep_algo(algo, &dataset, &PAPER_THRESHOLDS);
        for threads in [0, 2, 3, 8] {
            let par = sweep_algo_parallel(algo, &dataset, &PAPER_THRESHOLDS, threads);
            assert_eq!(par, serial, "{} threads={threads}", algo.label());
        }
    }
}
