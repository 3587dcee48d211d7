//! One constructor per table/figure of the paper's evaluation.

use traj_compress::{OnePassCone, OnePassFit, OpeningWindow, TopDown};
use traj_model::stats::DatasetStats;
use traj_model::Trajectory;

use crate::experiment::{sweep_algo_parallel, AlgoSweep, PAPER_SPEED_THRESHOLDS, PAPER_THRESHOLDS};
use crate::registry::Algo;

/// The data behind one figure: a set of per-algorithm threshold sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier, e.g. `"fig7"`.
    pub id: &'static str,
    /// Human title as in the paper.
    pub title: &'static str,
    /// One sweep per algorithm (curve / bar group).
    pub sweeps: Vec<AlgoSweep>,
}

impl FigureData {
    /// The sweep with the given label.
    pub fn sweep(&self, label: &str) -> Option<&AlgoSweep> {
        self.sweeps.iter().find(|s| s.label == label)
    }
}

/// Table 2: statistics of the ten trajectories.
pub fn table2(dataset: &[Trajectory]) -> DatasetStats {
    DatasetStats::of(dataset)
}

/// Fig. 7: conventional top-down Douglas–Peucker (NDP) versus the
/// top-down time-ratio algorithm (TD-TR), per distance threshold.
pub fn fig7(dataset: &[Trajectory]) -> FigureData {
    fig7_with(dataset, &PAPER_THRESHOLDS)
}

/// [`fig7`] over custom thresholds (reduced sweeps for fast CI runs).
pub fn fig7_with(dataset: &[Trajectory], thresholds: &[f64]) -> FigureData {
    fig7_threaded(dataset, thresholds, 1)
}

/// [`fig7_with`] with each sweep fanned over `threads` workers
/// (`0` = all cores); bit-identical to the serial figure.
pub fn fig7_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    FigureData {
        id: "fig7",
        title: "NDP vs TD-TR: compression and error per distance threshold",
        sweeps: vec![
            sweep_algo_parallel(
                &Algo::top_down("NDP", TopDown::perpendicular(0.0)),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::top_down("TD-TR", TopDown::time_ratio(0.0)),
                dataset,
                thresholds,
                threads,
            ),
        ],
    }
}

/// Fig. 8: the two opening-window break strategies, BOPW vs NOPW.
pub fn fig8(dataset: &[Trajectory]) -> FigureData {
    fig8_with(dataset, &PAPER_THRESHOLDS)
}

/// [`fig8`] over custom thresholds.
pub fn fig8_with(dataset: &[Trajectory], thresholds: &[f64]) -> FigureData {
    fig8_threaded(dataset, thresholds, 1)
}

/// [`fig8_with`] with each sweep fanned over `threads` workers
/// (`0` = all cores); bit-identical to the serial figure.
pub fn fig8_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    FigureData {
        id: "fig8",
        title: "BOPW vs NOPW: error and compression per distance threshold",
        sweeps: vec![
            sweep_algo_parallel(
                &Algo::opening_window("BOPW", OpeningWindow::bopw(0.0)),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::opening_window("NOPW", OpeningWindow::nopw(0.0)),
                dataset,
                thresholds,
                threads,
            ),
        ],
    }
}

/// Fig. 9: NOPW vs the opening-window time-ratio algorithm (OPW-TR).
pub fn fig9(dataset: &[Trajectory]) -> FigureData {
    fig9_with(dataset, &PAPER_THRESHOLDS)
}

/// [`fig9`] over custom thresholds.
pub fn fig9_with(dataset: &[Trajectory], thresholds: &[f64]) -> FigureData {
    fig9_threaded(dataset, thresholds, 1)
}

/// [`fig9_with`] with each sweep fanned over `threads` workers
/// (`0` = all cores); bit-identical to the serial figure.
pub fn fig9_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    FigureData {
        id: "fig9",
        title: "NOPW vs OPW-TR: error and compression per distance threshold",
        sweeps: vec![
            sweep_algo_parallel(
                &Algo::opening_window("NOPW", OpeningWindow::nopw(0.0)),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
                dataset,
                thresholds,
                threads,
            ),
        ],
    }
}

/// Fig. 10: the spatiotemporal family — OPW-TR, TD-SP(5 m/s) and
/// OPW-SP at 5/15/25 m/s — error and compression versus threshold.
pub fn fig10(dataset: &[Trajectory]) -> FigureData {
    fig10_with(dataset, &PAPER_THRESHOLDS)
}

/// [`fig10`] over custom thresholds.
pub fn fig10_with(dataset: &[Trajectory], thresholds: &[f64]) -> FigureData {
    fig10_threaded(dataset, thresholds, 1)
}

/// [`fig10_with`] with each sweep fanned over `threads` workers
/// (`0` = all cores); bit-identical to the serial figure.
pub fn fig10_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let mut sweeps = vec![
        sweep_algo_parallel(
            &Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
            dataset,
            thresholds,
            threads,
        ),
        sweep_algo_parallel(
            &Algo::top_down("TD-SP(5m/s)", TopDown::time_ratio_speed(0.0, 5.0)),
            dataset,
            thresholds,
            threads,
        ),
    ];
    for v in PAPER_SPEED_THRESHOLDS {
        sweeps.push(sweep_algo_parallel(
            &Algo::opening_window(format!("OPW-SP({v}m/s)"), OpeningWindow::opw_sp(0.0, v)),
            dataset,
            thresholds,
            threads,
        ));
    }
    FigureData {
        id: "fig10",
        title: "OPW-TR vs TD-SP vs OPW-SP: error and compression per threshold",
        sweeps,
    }
}

/// Fig. 11: error versus compression for NDP, TD-TR, NOPW, OPW-TR and
/// OPW-SP(5/15/25) — the final ranking figure.
pub fn fig11(dataset: &[Trajectory]) -> FigureData {
    fig11_with(dataset, &PAPER_THRESHOLDS)
}

/// [`fig11`] over custom thresholds.
pub fn fig11_with(dataset: &[Trajectory], thresholds: &[f64]) -> FigureData {
    fig11_threaded(dataset, thresholds, 1)
}

/// [`fig11_with`] with each sweep fanned over `threads` workers
/// (`0` = all cores); bit-identical to the serial figure.
pub fn fig11_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let mut sweeps = vec![
        sweep_algo_parallel(
            &Algo::top_down("NDP", TopDown::perpendicular(0.0)),
            dataset,
            thresholds,
            threads,
        ),
        sweep_algo_parallel(
            &Algo::top_down("TD-TR", TopDown::time_ratio(0.0)),
            dataset,
            thresholds,
            threads,
        ),
        sweep_algo_parallel(
            &Algo::opening_window("NOPW", OpeningWindow::nopw(0.0)),
            dataset,
            thresholds,
            threads,
        ),
        sweep_algo_parallel(
            &Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
            dataset,
            thresholds,
            threads,
        ),
    ];
    for v in PAPER_SPEED_THRESHOLDS {
        sweeps.push(sweep_algo_parallel(
            &Algo::opening_window(format!("OPW-SP({v}m/s)"), OpeningWindow::opw_sp(0.0, v)),
            dataset,
            thresholds,
            threads,
        ));
    }
    FigureData {
        id: "fig11",
        title: "Error versus compression across algorithms",
        sweeps,
    }
}

/// One-pass family comparison (beyond the paper): the O(n) OP-FIT and
/// OP-CONE simplifiers against the paper's strongest batch (NDP, TD-TR)
/// and online (OPW-TR) algorithms on the same grid — compression ratio,
/// α error and SED statistics per threshold.
pub fn fig_onepass(dataset: &[Trajectory]) -> FigureData {
    fig_onepass_with(dataset, &PAPER_THRESHOLDS)
}

/// [`fig_onepass`] over custom thresholds.
pub fn fig_onepass_with(dataset: &[Trajectory], thresholds: &[f64]) -> FigureData {
    fig_onepass_threaded(dataset, thresholds, 1)
}

/// [`fig_onepass_with`] with each sweep fanned over `threads` workers
/// (`0` = all cores); bit-identical to the serial figure.
pub fn fig_onepass_threaded(
    dataset: &[Trajectory],
    thresholds: &[f64],
    threads: usize,
) -> FigureData {
    FigureData {
        id: "onepass",
        title: "One-pass SED family (OP-FIT / OP-CONE) vs NDP, TD-TR and OPW-TR",
        sweeps: vec![
            sweep_algo_parallel(
                &Algo::top_down("NDP", TopDown::perpendicular(0.0)),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::top_down("TD-TR", TopDown::time_ratio(0.0)),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0)),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::factory("OP-FIT", |e| Box::new(OnePassFit::new(e))),
                dataset,
                thresholds,
                threads,
            ),
            sweep_algo_parallel(
                &Algo::factory("OP-CONE", |e| Box::new(OnePassCone::new(e))),
                dataset,
                thresholds,
                threads,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast three-trajectory stand-in for figure-construction tests
    /// (the full paper-shape assertions run on the real dataset in
    /// `tests/paper_shapes.rs`).
    fn mini_dataset() -> Vec<Trajectory> {
        (0..3)
            .map(|k| {
                Trajectory::from_triples((0..60).map(|i| {
                    let t = i as f64 * 10.0;
                    let x = t * (8.0 + k as f64);
                    let y = 200.0 * ((t / 200.0) + k as f64).sin();
                    (t, x, y)
                }))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn fig7_has_two_sweeps_over_paper_thresholds() {
        let f = fig7(&mini_dataset());
        assert_eq!(f.sweeps.len(), 2);
        assert!(f.sweep("NDP").is_some());
        assert!(f.sweep("TD-TR").is_some());
        for s in &f.sweeps {
            assert_eq!(s.points.len(), 15);
        }
    }

    #[test]
    fn fig10_has_five_sweeps() {
        let f = fig10(&mini_dataset());
        let labels: Vec<&str> = f.sweeps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "OPW-TR",
                "TD-SP(5m/s)",
                "OPW-SP(5m/s)",
                "OPW-SP(15m/s)",
                "OPW-SP(25m/s)"
            ]
        );
    }

    #[test]
    fn fig11_includes_all_ranked_algorithms() {
        let f = fig11(&mini_dataset());
        assert_eq!(f.sweeps.len(), 7);
        assert!(f.sweep("NDP").is_some());
        assert!(f.sweep("OPW-SP(25m/s)").is_some());
    }

    #[test]
    fn fig_onepass_compares_the_family_against_the_paper_winners() {
        let f = fig_onepass(&mini_dataset());
        let labels: Vec<&str> = f.sweeps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["NDP", "TD-TR", "OPW-TR", "OP-FIT", "OP-CONE"]);
        assert_eq!(f.id, "onepass");
        for s in &f.sweeps {
            assert_eq!(s.points.len(), 15);
        }
    }

    #[test]
    fn one_pass_bound_is_strict_in_figure_output() {
        // The one-pass sweeps' max SED never exceeds the threshold —
        // the strictness contract visible at the experiment level.
        let f = fig_onepass(&mini_dataset());
        for label in ["OP-FIT", "OP-CONE"] {
            let s = f.sweep(label).unwrap();
            for p in &s.points {
                assert!(
                    p.max_sed_m <= p.threshold_m + 1e-9,
                    "{label}: max SED {} at threshold {}",
                    p.max_sed_m,
                    p.threshold_m
                );
            }
        }
    }

    #[test]
    fn table2_reports_dataset_statistics() {
        let s = table2(&mini_dataset());
        assert!(s.duration_s.mean > 0.0);
        assert!(s.n_points.mean > 0.0);
    }

    #[test]
    fn td_tr_error_below_ndp_even_on_mini_dataset() {
        // The core qualitative claim of Fig. 7 shows up on any dataset
        // with time structure.
        let f = fig7(&mini_dataset());
        let ndp = f.sweep("NDP").unwrap().mean_error();
        let tdtr = f.sweep("TD-TR").unwrap().mean_error();
        assert!(tdtr <= ndp, "TD-TR {tdtr} vs NDP {ndp}");
    }
}
