//! One constructor per table/figure of the paper's evaluation. A
//! figure is an id, a title and a list of registry [`Algo`]s, swept
//! together over the dataset × threshold grid by [`sweep_algos`].

use traj_compress::{OnePassCone, OnePassFit, OpeningWindow, TopDown};
use traj_model::stats::DatasetStats;
use traj_model::Trajectory;

use crate::experiment::{sweep_algos, AlgoSweep, PAPER_SPEED_THRESHOLDS};
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

/// Sweeps every algorithm of one figure over `dataset` × `thresholds`
/// in one [`sweep_algos`] call (one evaluation memo per trajectory for
/// the whole figure), fanned over `threads` workers. Every figure, and
/// every extension experiment that prints as one, is built here.
pub(crate) fn figure(
    id: &'static str,
    title: &'static str,
    algos: &[Algo],
    dataset: &[Trajectory],
    thresholds: &[f64],
    threads: usize,
) -> FigureData {
    FigureData { id, title, sweeps: sweep_algos(algos, dataset, thresholds, threads) }
}

/// Conventional top-down Douglas–Peucker (perpendicular distance).
pub(crate) fn ndp() -> Algo {
    Algo::top_down("NDP", TopDown::perpendicular(0.0))
}

/// The top-down time-ratio algorithm (paper §3.2).
pub(crate) fn td_tr() -> Algo {
    Algo::top_down("TD-TR", TopDown::time_ratio(0.0))
}

/// The normal opening window (perpendicular distance, paper §2.2).
fn nopw() -> Algo {
    Algo::opening_window("NOPW", OpeningWindow::nopw(0.0))
}

/// The opening-window time-ratio algorithm (paper §3.3).
pub(crate) fn opw_tr() -> Algo {
    Algo::opening_window("OPW-TR", OpeningWindow::opw_tr(0.0))
}

/// OPW-SP at each of the paper's speed thresholds, in order.
fn opw_sp() -> [Algo; 3] {
    PAPER_SPEED_THRESHOLDS
        .map(|v| Algo::opening_window(format!("OPW-SP({v}m/s)"), OpeningWindow::opw_sp(0.0, v)))
}

/// The one-pass figure's algorithms, in its sweep order: the paper's
/// strongest batch (NDP, TD-TR) and online (OPW-TR) algorithms, then
/// the one-pass SED family (OP-FIT, OP-CONE).
pub fn onepass_algos() -> [Algo; 5] {
    [
        ndp(),
        td_tr(),
        opw_tr(),
        Algo::factory("OP-FIT", |e| Box::new(OnePassFit::new(e))),
        Algo::factory("OP-CONE", |e| Box::new(OnePassCone::new(e))),
    ]
}

/// Fig. 7: conventional top-down Douglas–Peucker (NDP) versus the
/// top-down time-ratio algorithm (TD-TR), per distance threshold.
///
/// The figure is fanned over `threads` workers (`0` = auto, `1` =
/// inline), as in every `fig*_threaded`; it is bit-identical for every
/// thread count.
pub fn fig7_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let title = "NDP vs TD-TR: compression and error per distance threshold";
    let algos = [ndp(), td_tr()];
    figure("fig7", title, &algos, dataset, thresholds, threads)
}

/// Fig. 8: the two opening-window break strategies, BOPW vs NOPW.
pub fn fig8_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let title = "BOPW vs NOPW: error and compression per distance threshold";
    let bopw = Algo::opening_window("BOPW", OpeningWindow::bopw(0.0));
    let algos = [bopw, nopw()];
    figure("fig8", title, &algos, dataset, thresholds, threads)
}

/// Fig. 9: NOPW vs the opening-window time-ratio algorithm (OPW-TR).
pub fn fig9_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let title = "NOPW vs OPW-TR: error and compression per distance threshold";
    let algos = [nopw(), opw_tr()];
    figure("fig9", title, &algos, dataset, thresholds, threads)
}

/// Fig. 10: the spatiotemporal family — OPW-TR, TD-SP(5 m/s) and
/// OPW-SP at 5/15/25 m/s — error and compression versus threshold.
pub fn fig10_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let title = "OPW-TR vs TD-SP vs OPW-SP: error and compression per threshold";
    let td_sp = Algo::top_down("TD-SP(5m/s)", TopDown::time_ratio_speed(0.0, 5.0));
    let mut algos = vec![opw_tr(), td_sp];
    algos.extend(opw_sp());
    figure("fig10", title, &algos, dataset, thresholds, threads)
}

/// Fig. 11: error versus compression for NDP, TD-TR, NOPW, OPW-TR and
/// OPW-SP(5/15/25) — the final ranking figure.
pub fn fig11_threaded(dataset: &[Trajectory], thresholds: &[f64], threads: usize) -> FigureData {
    let title = "Error versus compression across algorithms";
    let mut algos = vec![ndp(), td_tr(), nopw(), opw_tr()];
    algos.extend(opw_sp());
    figure("fig11", title, &algos, dataset, thresholds, threads)
}

/// One-pass family comparison (beyond the paper): the O(n) OP-FIT and
/// OP-CONE simplifiers against the paper's strongest batch (NDP, TD-TR)
/// and online (OPW-TR) algorithms on the same grid — compression ratio,
/// α error and SED statistics per threshold ([`onepass_algos`]).
pub fn fig_onepass_threaded(
    dataset: &[Trajectory],
    thresholds: &[f64],
    threads: usize,
) -> FigureData {
    let title = "One-pass SED family (OP-FIT / OP-CONE) vs NDP, TD-TR and OPW-TR";
    let algos = onepass_algos();
    figure("onepass", title, &algos, dataset, thresholds, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PAPER_THRESHOLDS;

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
        let f = fig7_threaded(&mini_dataset(), &PAPER_THRESHOLDS, 1);
        assert_eq!(f.sweeps.len(), 2);
        assert!(f.sweep("NDP").is_some());
        assert!(f.sweep("TD-TR").is_some());
        for s in &f.sweeps {
            assert_eq!(s.points.len(), 15);
        }
    }

    #[test]
    fn fig10_has_five_sweeps() {
        let f = fig10_threaded(&mini_dataset(), &PAPER_THRESHOLDS, 1);
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
        let f = fig11_threaded(&mini_dataset(), &PAPER_THRESHOLDS, 1);
        assert_eq!(f.sweeps.len(), 7);
        assert!(f.sweep("NDP").is_some());
        assert!(f.sweep("OPW-SP(25m/s)").is_some());
    }

    #[test]
    fn fig_onepass_compares_the_family_against_the_paper_winners() {
        let f = fig_onepass_threaded(&mini_dataset(), &PAPER_THRESHOLDS, 1);
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
        let f = fig_onepass_threaded(&mini_dataset(), &PAPER_THRESHOLDS, 1);
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
        let f = fig7_threaded(&mini_dataset(), &PAPER_THRESHOLDS, 1);
        let ndp = f.sweep("NDP").unwrap().mean_error();
        let tdtr = f.sweep("TD-TR").unwrap().mean_error();
        assert!(tdtr <= ndp, "TD-TR {tdtr} vs NDP {ndp}");
    }
}
