//! The experiment runner de-interleaves each trajectory once per sweep:
//! `sweep_algos` compresses every row of a trajectory through one
//! `Workspace`, which builds the trajectory's columns, and then hands
//! those columns to the `EvalWorkspace` instead of building them again.
//! So each figure adds exactly one `layout.cols_built` per trajectory,
//! at one worker or two.
//!
//! Requires the `obs` feature, whose registry counts the builds. The
//! registry is process-wide, so this file holds one test.

#![cfg(feature = "obs")]

use traj_eval::{
    fig10_threaded, fig11_threaded, fig7_threaded, fig8_threaded, fig9_threaded,
    fig_onepass_threaded, FigureData, PAPER_THRESHOLDS,
};
use traj_model::Trajectory;

/// A figure constructor: dataset, thresholds, worker threads.
type FigureFn = fn(&[Trajectory], &[f64], usize) -> FigureData;

#[test]
fn each_figure_builds_each_trajectorys_columns_once() {
    let figures: [FigureFn; 6] = [
        fig7_threaded,
        fig8_threaded,
        fig9_threaded,
        fig10_threaded,
        fig11_threaded,
        fig_onepass_threaded,
    ];
    let dataset = traj_gen::paper_dataset(11);
    let built = traj_obs::registry().counter("layout", "cols_built");
    for figure in figures {
        for threads in [1, 2] {
            let before = built.get();
            let fig = figure(&dataset, &PAPER_THRESHOLDS, threads);
            assert_eq!(
                built.get() - before,
                dataset.len() as u64,
                "{} threads={threads}",
                fig.id
            );
        }
    }
}
