//! Pins the one-pass sweep's byte-identical contract on the *actual
//! reproduction protocol*: the calibrated ten-trajectory dataset and the
//! paper's 30–100 m threshold grid. If the sweep and the per-threshold
//! compressors ever disagree — on any trajectory, threshold, or
//! speed-threshold — the figures silently change meaning; this test
//! makes that a hard failure.

use traj_compress::streaming::{OwStream, StreamingCompressor};
use traj_compress::{
    evaluate, evaluate_sweep, Compressor, DeadReckoning, DouglasPeucker, EvalWorkspace,
    OnePassCone, OnePassFit, OpeningWindow, TdSp, TdTr, TopDown, Workspace,
};
use traj_eval::{
    fig10_threaded, fig11_threaded, fig7_threaded, fig8_threaded, fig9_threaded,
    fig_onepass_threaded, figure_to_csv, sweep_algo, sweep_algo_parallel, Algo, FigureData,
    PAPER_SPEED_THRESHOLDS, PAPER_THRESHOLDS,
};
use traj_model::{Fix, Trajectory};

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

/// Builds one compressor at one threshold, independently of the registry.
type Make = fn(f64) -> Box<dyn Compressor>;

fn row(algo: Algo, make: Make) -> (Algo, Make) {
    (algo, make)
}

/// Every registry row that the figures and the `repro ext` experiments
/// sweep, each paired with its compressor built directly.
fn swept_rows() -> Vec<(Algo, Make)> {
    vec![
        row(Algo::top_down("NDP", TopDown::perpendicular(0.0)), |e| {
            Box::new(DouglasPeucker::new(e))
        }),
        row(Algo::top_down("TD-TR", TopDown::time_ratio(0.0)), |e| {
            Box::new(TdTr::new(e))
        }),
        row(
            Algo::top_down("TD-SP(5m/s)", TopDown::time_ratio_speed(0.0, 5.0)),
            |e| Box::new(TdSp::new(e, 5.0)),
        ),
        row(
            Algo::opening_window("BOPW", OpeningWindow::bopw(0.0)),
            |e| Box::new(OpeningWindow::bopw(e)),
        ),
        row(
            Algo::opening_window("NOPW", OpeningWindow::nopw(0.0)),
            |e| Box::new(OpeningWindow::nopw(e)),
        ),
        row(
            Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
            |e| Box::new(OpeningWindow::opw_tr(e)),
        ),
        row(
            Algo::opening_window("OPW-SP(5m/s)", OpeningWindow::opw_sp(0.0, 5.0)),
            |e| Box::new(OpeningWindow::opw_sp(e, 5.0)),
        ),
        row(
            Algo::opening_window("OPW-SP(15m/s)", OpeningWindow::opw_sp(0.0, 15.0)),
            |e| Box::new(OpeningWindow::opw_sp(e, 15.0)),
        ),
        row(
            Algo::opening_window("OPW-SP(25m/s)", OpeningWindow::opw_sp(0.0, 25.0)),
            |e| Box::new(OpeningWindow::opw_sp(e, 25.0)),
        ),
        row(
            Algo::factory("OP-FIT", |e| Box::new(OnePassFit::new(e))),
            |e| Box::new(OnePassFit::new(e)),
        ),
        row(
            Algo::factory("OP-CONE", |e| Box::new(OnePassCone::new(e))),
            |e| Box::new(OnePassCone::new(e)),
        ),
        row(
            Algo::factory("DR", |e| Box::new(DeadReckoning::new(e))),
            |e| Box::new(DeadReckoning::new(e)),
        ),
    ]
}

/// The experiment runner against the reference path, cell by cell: for
/// every swept row, `Algo::run` equals the compressor built and run
/// separately at each threshold, and each `evaluate_sweep` cell equals
/// the reference `evaluate` of that result. The runner and any
/// per-threshold loop share the same aggregation, so equal cells mean
/// equal figures.
#[test]
fn every_swept_algo_equals_per_threshold_compress_and_evaluate_on_paper_grid() {
    let dataset = traj_gen::paper_dataset(42);
    let mut ws = Workspace::new();
    let mut ews = EvalWorkspace::new();
    for (algo, make) in swept_rows() {
        let label = algo.label();
        for traj in &dataset {
            let results = algo.run(traj, &PAPER_THRESHOLDS, &mut ws);
            assert_eq!(results.len(), PAPER_THRESHOLDS.len(), "{label}");
            let evals = evaluate_sweep(traj, &results, &mut ews);
            for ((r, e), &eps) in results.iter().zip(&evals).zip(&PAPER_THRESHOLDS) {
                assert_eq!(
                    r,
                    &make(eps).compress(traj),
                    "{label} eps={eps}: compression"
                );
                assert_eq!(e, &evaluate(traj, r), "{label} eps={eps}: evaluation");
            }
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

/// A figure constructor: dataset, thresholds, worker threads.
type FigureFn = fn(&[Trajectory], &[f64], usize) -> FigureData;

/// The figure-major runner against the algorithm-major one: each figure
/// sweeps all its algorithms trajectory by trajectory through one
/// evaluation memo per trajectory, and must print exactly the figure
/// assembled from one single-algorithm sweep (one memo per algorithm)
/// per row — at one and at two workers, on two datasets.
#[test]
fn figures_equal_one_sweep_per_row_on_paper_grid() {
    let figures: [FigureFn; 6] = [
        fig7_threaded,
        fig8_threaded,
        fig9_threaded,
        fig10_threaded,
        fig11_threaded,
        fig_onepass_threaded,
    ];
    let rows = swept_rows();
    for seed in [42, 11] {
        let dataset = traj_gen::paper_dataset(seed);
        let single: Vec<_> = rows
            .iter()
            .map(|(algo, _)| sweep_algo(algo, &dataset, &PAPER_THRESHOLDS))
            .collect();
        for figure in figures {
            for threads in [1, 2] {
                let fig = figure(&dataset, &PAPER_THRESHOLDS, threads);
                let sweeps = fig
                    .sweeps
                    .iter()
                    .map(|s| {
                        let row = single.iter().find(|r| r.label == s.label);
                        row.unwrap_or_else(|| panic!("no row for {}", s.label)).clone()
                    })
                    .collect();
                let assembled = FigureData { sweeps, ..fig.clone() };
                assert_eq!(
                    figure_to_csv(&fig),
                    figure_to_csv(&assembled),
                    "{} seed={seed} threads={threads}",
                    fig.id
                );
                assert_eq!(fig, assembled, "{} seed={seed} threads={threads}", fig.id);
            }
        }
    }
}
