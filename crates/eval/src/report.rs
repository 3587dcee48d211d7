//! Text/CSV rendering of experiment results and the paper-shape checker.

use std::fmt::Write as _;

use traj_model::stats::DatasetStats;
use traj_model::TimeDelta;

use crate::experiment::AlgoSweep;
use crate::figures::FigureData;

/// Renders Table 2 next to the paper's published values.
pub fn format_table2(stats: &DatasetStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 — statistics of the ten trajectories");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>14} {:>14}",
        "statistic", "ours(avg)", "ours(std)", "paper(avg)", "paper(std)"
    );
    let dur = |s: f64| TimeDelta::from_secs(s).to_string();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>14} {:>14}",
        "duration",
        dur(stats.duration_s.mean),
        dur(stats.duration_s.std),
        "00:32:16",
        "00:14:33"
    );
    let row = |out: &mut String, name: &str, ours: &traj_model::MeanStd, pa: &str, ps: &str| {
        let _ = writeln!(
            out,
            "{:<16} {:>12.2} {:>12.2} {:>14} {:>14}",
            name, ours.mean, ours.std, pa, ps
        );
    };
    row(&mut out, "speed (km/h)", &stats.speed_kmh, "40.85", "12.63");
    row(&mut out, "length (km)", &stats.length_km, "19.95", "12.84");
    row(
        &mut out,
        "displacement",
        &stats.displacement_km,
        "10.58",
        "8.97",
    );
    row(&mut out, "# data points", &stats.n_points, "200", "100.9");
    out
}

/// Renders a figure's sweeps as one aligned table: a threshold column
/// followed by `compression% / error m` pairs per algorithm.
pub fn format_figure(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} — {}", fig.id, fig.title);
    let _ = write!(out, "{:>9}", "thresh");
    for s in &fig.sweeps {
        let _ = write!(out, " | {:^21}", s.label);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:>9}", "(m)");
    for _ in &fig.sweeps {
        let _ = write!(out, " | {:>9} {:>11}", "comp%", "err(m)");
    }
    let _ = writeln!(out);
    let n = fig.sweeps.first().map_or(0, |s| s.points.len());
    for i in 0..n {
        let _ = write!(out, "{:>9.0}", fig.sweeps[0].points[i].threshold_m);
        for s in &fig.sweeps {
            let p = &s.points[i];
            let _ = write!(out, " | {:>9.2} {:>11.2}", p.compression_pct, p.error_m);
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:>9}", "mean");
    for s in &fig.sweeps {
        let _ = write!(
            out,
            " | {:>9.2} {:>11.2}",
            s.mean_compression(),
            s.mean_error()
        );
    }
    let _ = writeln!(out);
    out
}

/// Serializes a figure's sweeps as CSV with per-threshold means and
/// across-trajectory standard deviations:
/// `algo,threshold_m,compression_pct,compression_std,error_m,error_std,perp_error_m,mean_sed_m,max_sed_m`.
pub fn figure_to_csv(fig: &FigureData) -> String {
    let mut out = String::from(
        "algo,threshold_m,compression_pct,compression_std,error_m,error_std,perp_error_m,mean_sed_m,max_sed_m\n",
    );
    for s in &fig.sweeps {
        for p in &s.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                s.label,
                p.threshold_m,
                p.compression_pct,
                p.compression_std,
                p.error_m,
                p.error_std,
                p.perp_error_m,
                p.mean_sed_m,
                p.max_sed_m
            );
        }
    }
    out
}

/// Verifies the paper's qualitative claims on the reproduced figures.
/// Returns a list of violations (empty = every expected shape holds).
///
/// Checked claims (paper §4.3):
///
/// * Fig. 7 — "TD-TR produces much lower errors, while the compression
///   rate is only slightly lower": TD-TR mean error < 60% of NDP's;
///   compression within 25 points of NDP.
/// * Fig. 7 — compression increases monotonically with threshold for
///   NDP/TD-TR (the paper notes monotone increase toward an asymptote).
/// * Fig. 8 — "BOPW results in higher compression but worse errors".
/// * Fig. 9 — OPW-TR's error is below NOPW's, and OPW-TR's error varies
///   little with the threshold ("a change in threshold value does not
///   dramatically impact error level").
/// * Fig. 10 — OPW-SP(25 m/s) behaves like OPW-TR (the curves coincide
///   in the paper); OPW-SP(5 m/s) yields improved (at least equal)
///   compression — the paper's §4.3 observation.
/// * Fig. 11 — the spatiotemporal algorithms dominate: at comparable
///   compression, TD-TR/OPW-TR error is below NDP/NOPW error.
pub fn check_expectations(
    fig7: &FigureData,
    fig8: &FigureData,
    fig9: &FigureData,
    fig10: &FigureData,
    fig11: &FigureData,
) -> Vec<String> {
    let mut violations = Vec::new();
    fn expect(violations: &mut Vec<String>, ok: bool, msg: String) {
        if !ok {
            violations.push(msg);
        }
    }
    // Fetches a labeled sweep; a figure missing an expected sweep is
    // itself a recorded violation, not a panic — callers assemble the
    // figures from config and deserve a diagnosis, not an abort.
    fn sweep_of<'a>(
        violations: &mut Vec<String>,
        fig: &'a FigureData,
        id: &str,
        label: &str,
    ) -> Option<&'a AlgoSweep> {
        let s = fig.sweep(label);
        if s.is_none() {
            violations.push(format!("{id}: missing expected sweep {label}"));
        }
        s
    }

    // Fig. 7.
    let (ndp, tdtr) = (
        sweep_of(&mut violations, fig7, "fig7", "NDP"),
        sweep_of(&mut violations, fig7, "fig7", "TD-TR"),
    );
    if let (Some(ndp), Some(tdtr)) = (ndp, tdtr) {
        expect(
            &mut violations,
            tdtr.mean_error() < 0.6 * ndp.mean_error(),
            format!(
                "fig7: TD-TR error {:.1} not ≪ NDP error {:.1}",
                tdtr.mean_error(),
                ndp.mean_error()
            ),
        );
        expect(
            &mut violations,
            (ndp.mean_compression() - tdtr.mean_compression()).abs() < 25.0,
            format!(
                "fig7: compression gap too large (NDP {:.1} vs TD-TR {:.1})",
                ndp.mean_compression(),
                tdtr.mean_compression()
            ),
        );
        for s in [ndp, tdtr] {
            let monotone = s
                .points
                .windows(2)
                .all(|w| w[1].compression_pct >= w[0].compression_pct - 1e-9);
            expect(
                &mut violations,
                monotone,
                format!("fig7: {} compression not monotone", s.label),
            );
        }
    }

    // Fig. 8.
    let (bopw, nopw) = (
        sweep_of(&mut violations, fig8, "fig8", "BOPW"),
        sweep_of(&mut violations, fig8, "fig8", "NOPW"),
    );
    if let (Some(bopw), Some(nopw)) = (bopw, nopw) {
        expect(
            &mut violations,
            bopw.mean_compression() >= nopw.mean_compression(),
            format!(
                "fig8: BOPW compression {:.1} below NOPW {:.1}",
                bopw.mean_compression(),
                nopw.mean_compression()
            ),
        );
        expect(
            &mut violations,
            bopw.mean_error() >= nopw.mean_error(),
            format!(
                "fig8: BOPW error {:.1} below NOPW {:.1}",
                bopw.mean_error(),
                nopw.mean_error()
            ),
        );
    }

    // Fig. 9.
    let (nopw9, opwtr) = (
        sweep_of(&mut violations, fig9, "fig9", "NOPW"),
        sweep_of(&mut violations, fig9, "fig9", "OPW-TR"),
    );
    if let (Some(nopw9), Some(opwtr)) = (nopw9, opwtr) {
        expect(
            &mut violations,
            opwtr.mean_error() < nopw9.mean_error(),
            format!(
                "fig9: OPW-TR error {:.1} not below NOPW {:.1}",
                opwtr.mean_error(),
                nopw9.mean_error()
            ),
        );
        expect(
            &mut violations,
            opwtr.error_spread() < nopw9.error_spread(),
            format!(
                "fig9: OPW-TR error spread {:.1} not tighter than NOPW {:.1}",
                opwtr.error_spread(),
                nopw9.error_spread()
            ),
        );
    }

    // Fig. 10.
    let (opwtr10, sp25, sp5) = (
        sweep_of(&mut violations, fig10, "fig10", "OPW-TR"),
        sweep_of(&mut violations, fig10, "fig10", "OPW-SP(25m/s)"),
        sweep_of(&mut violations, fig10, "fig10", "OPW-SP(5m/s)"),
    );
    if let (Some(opwtr10), Some(sp25), Some(sp5)) = (opwtr10, sp25, sp5) {
        let coincide = opwtr10
            .points
            .iter()
            .zip(&sp25.points)
            .all(|(a, b)| (a.compression_pct - b.compression_pct).abs() < 5.0);
        expect(
            &mut violations,
            coincide,
            "fig10: OPW-SP(25m/s) does not track OPW-TR".to_string(),
        );
        // "Choosing a speed difference threshold of 5 m/s … results in
        // improved compression" (§4.3): the earlier cuts the speed criterion
        // forces re-anchor the window at kinks, which pays off downstream.
        expect(
            &mut violations,
            sp5.mean_compression() >= opwtr10.mean_compression() - 2.0,
            format!(
                "fig10: OPW-SP(5m/s) compression {:.1} not at/above OPW-TR {:.1}",
                sp5.mean_compression(),
                opwtr10.mean_compression()
            ),
        );
    }

    // Fig. 11: spatiotemporal dominance.
    let (ndp11, tdtr11, nopw11, opwtr11) = (
        sweep_of(&mut violations, fig11, "fig11", "NDP"),
        sweep_of(&mut violations, fig11, "fig11", "TD-TR"),
        sweep_of(&mut violations, fig11, "fig11", "NOPW"),
        sweep_of(&mut violations, fig11, "fig11", "OPW-TR"),
    );
    if let (Some(ndp11), Some(tdtr11), Some(nopw11), Some(opwtr11)) =
        (ndp11, tdtr11, nopw11, opwtr11)
    {
        expect(
            &mut violations,
            tdtr11.mean_error() < ndp11.mean_error(),
            "fig11: TD-TR does not dominate NDP on error".to_string(),
        );
        expect(
            &mut violations,
            opwtr11.mean_error() < nopw11.mean_error(),
            "fig11: OPW-TR does not dominate NOPW on error".to_string(),
        );
        expect(
            &mut violations,
            tdtr11.mean_compression() >= opwtr11.mean_compression() - 5.0,
            format!(
                "fig11: TD-TR compression {:.1} not ranked at/above OPW-TR {:.1}",
                tdtr11.mean_compression(),
                opwtr11.mean_compression()
            ),
        );
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{AlgoSweep, SweepPoint};

    fn sweep(label: &str, rows: &[(f64, f64, f64)]) -> AlgoSweep {
        AlgoSweep {
            label: label.into(),
            points: rows
                .iter()
                .map(|&(t, c, e)| SweepPoint {
                    threshold_m: t,
                    compression_pct: c,
                    compression_std: 0.0,
                    error_m: e,
                    error_std: 0.0,
                    perp_error_m: e / 2.0,
                    mean_sed_m: e / 3.0,
                    max_sed_m: e,
                })
                .collect(),
        }
    }

    fn fig(id: &'static str, sweeps: Vec<AlgoSweep>) -> FigureData {
        FigureData {
            id,
            title: "test",
            sweeps,
        }
    }

    #[test]
    fn format_figure_contains_all_labels_and_rows() {
        let f = fig(
            "figX",
            vec![
                sweep("A", &[(30.0, 50.0, 100.0), (40.0, 60.0, 120.0)]),
                sweep("B", &[(30.0, 55.0, 80.0), (40.0, 65.0, 90.0)]),
            ],
        );
        let text = format_figure(&f);
        assert!(text.contains("figX"));
        assert!(text.contains('A') && text.contains('B'));
        assert!(text.contains("30") && text.contains("40"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn csv_roundtrip_field_count() {
        let f = fig("figY", vec![sweep("A", &[(30.0, 50.0, 100.0)])]);
        let csv = figure_to_csv(&f);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "algo,threshold_m,compression_pct,compression_std,error_m,error_std,perp_error_m,mean_sed_m,max_sed_m"
        );
        let data = lines.next().unwrap();
        assert_eq!(data.split(',').count(), 9);
        assert!(data.starts_with("A,30"));
    }

    #[test]
    fn checker_accepts_paper_shaped_data() {
        // Hand-built data exhibiting every expected relation.
        let f7 = fig(
            "fig7",
            vec![
                sweep("NDP", &[(30.0, 70.0, 800.0), (40.0, 75.0, 900.0)]),
                sweep("TD-TR", &[(30.0, 65.0, 200.0), (40.0, 70.0, 250.0)]),
            ],
        );
        let f8 = fig(
            "fig8",
            vec![
                sweep("BOPW", &[(30.0, 80.0, 1200.0)]),
                sweep("NOPW", &[(30.0, 70.0, 800.0)]),
            ],
        );
        let f9 = fig(
            "fig9",
            vec![
                sweep("NOPW", &[(30.0, 70.0, 700.0), (40.0, 72.0, 1000.0)]),
                sweep("OPW-TR", &[(30.0, 60.0, 180.0), (40.0, 62.0, 200.0)]),
            ],
        );
        let f10 = fig(
            "fig10",
            vec![
                sweep("OPW-TR", &[(30.0, 60.0, 180.0)]),
                sweep("TD-SP(5m/s)", &[(30.0, 70.0, 300.0)]),
                sweep("OPW-SP(5m/s)", &[(30.0, 63.0, 220.0)]),
                sweep("OPW-SP(15m/s)", &[(30.0, 59.0, 185.0)]),
                sweep("OPW-SP(25m/s)", &[(30.0, 60.0, 180.0)]),
            ],
        );
        let f11 = fig(
            "fig11",
            vec![
                sweep("NDP", &[(30.0, 70.0, 800.0)]),
                sweep("TD-TR", &[(30.0, 68.0, 200.0)]),
                sweep("NOPW", &[(30.0, 66.0, 700.0)]),
                sweep("OPW-TR", &[(30.0, 60.0, 180.0)]),
                sweep("OPW-SP(5m/s)", &[(30.0, 63.0, 220.0)]),
                sweep("OPW-SP(15m/s)", &[(30.0, 59.0, 185.0)]),
                sweep("OPW-SP(25m/s)", &[(30.0, 60.0, 180.0)]),
            ],
        );
        let v = check_expectations(&f7, &f8, &f9, &f10, &f11);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn checker_flags_inverted_fig7() {
        // TD-TR worse than NDP must be flagged.
        let f7 = fig(
            "fig7",
            vec![
                sweep("NDP", &[(30.0, 70.0, 200.0)]),
                sweep("TD-TR", &[(30.0, 65.0, 800.0)]),
            ],
        );
        let ok8 = fig(
            "fig8",
            vec![
                sweep("BOPW", &[(30.0, 80.0, 1200.0)]),
                sweep("NOPW", &[(30.0, 70.0, 800.0)]),
            ],
        );
        let ok9 = fig(
            "fig9",
            vec![
                sweep("NOPW", &[(30.0, 70.0, 700.0), (40.0, 70.0, 1000.0)]),
                sweep("OPW-TR", &[(30.0, 60.0, 180.0), (40.0, 61.0, 190.0)]),
            ],
        );
        let ok10 = fig(
            "fig10",
            vec![
                sweep("OPW-TR", &[(30.0, 60.0, 180.0)]),
                sweep("TD-SP(5m/s)", &[(30.0, 70.0, 300.0)]),
                sweep("OPW-SP(5m/s)", &[(30.0, 63.0, 220.0)]),
                sweep("OPW-SP(15m/s)", &[(30.0, 59.0, 185.0)]),
                sweep("OPW-SP(25m/s)", &[(30.0, 60.0, 180.0)]),
            ],
        );
        let ok11 = fig(
            "fig11",
            vec![
                sweep("NDP", &[(30.0, 70.0, 800.0)]),
                sweep("TD-TR", &[(30.0, 68.0, 200.0)]),
                sweep("NOPW", &[(30.0, 66.0, 700.0)]),
                sweep("OPW-TR", &[(30.0, 60.0, 180.0)]),
                sweep("OPW-SP(5m/s)", &[(30.0, 63.0, 220.0)]),
                sweep("OPW-SP(15m/s)", &[(30.0, 59.0, 185.0)]),
                sweep("OPW-SP(25m/s)", &[(30.0, 60.0, 180.0)]),
            ],
        );
        let v = check_expectations(&f7, &ok8, &ok9, &ok10, &ok11);
        assert!(
            v.iter().any(|m| m.contains("fig7")),
            "fig7 violation not flagged: {v:?}"
        );
    }

    #[test]
    fn table2_formatting_mentions_paper_values() {
        let stats = traj_model::stats::DatasetStats {
            duration_s: traj_model::MeanStd {
                mean: 1800.0,
                std: 800.0,
            },
            speed_kmh: traj_model::MeanStd {
                mean: 42.0,
                std: 5.0,
            },
            length_km: traj_model::MeanStd {
                mean: 20.0,
                std: 9.0,
            },
            displacement_km: traj_model::MeanStd {
                mean: 12.0,
                std: 6.0,
            },
            n_points: traj_model::MeanStd {
                mean: 180.0,
                std: 80.0,
            },
        };
        let text = format_table2(&stats);
        assert!(text.contains("40.85"));
        assert!(text.contains("00:32:16"));
        assert!(text.contains("00:30:00")); // our formatted duration
        assert!(text.contains("# data points"));
    }
}
