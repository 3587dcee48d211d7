//! End-to-end reproduction check: the paper's qualitative claims must
//! hold on the calibrated dataset.
//!
//! Runs a reduced threshold sweep (5 of the paper's 15 thresholds) so the
//! test stays fast in debug builds; the `repro` binary runs the full
//! sweep. Shape claims are threshold-set-independent.

use traj_eval::{
    check_expectations, fig10_threaded, fig11_threaded, fig7_threaded, fig8_threaded,
    fig9_threaded, table2,
};

const FAST_THRESHOLDS: [f64; 5] = [30.0, 45.0, 60.0, 80.0, 100.0];

#[test]
fn paper_shape_claims_hold_on_calibrated_dataset() {
    let dataset = traj_gen::paper_dataset(42);
    let f7 = fig7_threaded(&dataset, &FAST_THRESHOLDS, 1);
    let f8 = fig8_threaded(&dataset, &FAST_THRESHOLDS, 1);
    let f9 = fig9_threaded(&dataset, &FAST_THRESHOLDS, 1);
    let f10 = fig10_threaded(&dataset, &FAST_THRESHOLDS, 1);
    let f11 = fig11_threaded(&dataset, &FAST_THRESHOLDS, 1);
    let violations = check_expectations(&f7, &f8, &f9, &f10, &f11);
    assert!(
        violations.is_empty(),
        "paper-shape violations: {violations:#?}"
    );
}

#[test]
fn shape_claims_are_seed_robust() {
    // The reproduction must not hinge on one lucky dataset.
    for seed in [7, 1234] {
        let dataset = traj_gen::paper_dataset(seed);
        let f7 = fig7_threaded(&dataset, &FAST_THRESHOLDS, 1);
        let f8 = fig8_threaded(&dataset, &FAST_THRESHOLDS, 1);
        let f9 = fig9_threaded(&dataset, &FAST_THRESHOLDS, 1);
        let f10 = fig10_threaded(&dataset, &FAST_THRESHOLDS, 1);
        let f11 = fig11_threaded(&dataset, &FAST_THRESHOLDS, 1);
        let violations = check_expectations(&f7, &f8, &f9, &f10, &f11);
        assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
    }
}

#[test]
fn table2_statistics_match_paper_bands() {
    let dataset = traj_gen::paper_dataset(42);
    let s = table2(&dataset);
    // Means within ±50% of the paper's Table 2 values.
    let close = |ours: f64, paper: f64| (ours - paper).abs() <= 0.5 * paper;
    assert!(
        close(s.duration_s.mean, 1936.0),
        "duration {}",
        s.duration_s.mean
    );
    assert!(close(s.speed_kmh.mean, 40.85), "speed {}", s.speed_kmh.mean);
    assert!(
        close(s.length_km.mean, 19.95),
        "length {}",
        s.length_km.mean
    );
    assert!(
        close(s.displacement_km.mean, 10.58),
        "displacement {}",
        s.displacement_km.mean
    );
    assert!(close(s.n_points.mean, 200.0), "points {}", s.n_points.mean);
}

#[test]
fn error_magnitudes_are_plausible() {
    // Beyond shape: errors must be in sane metre ranges for 30–100 m
    // thresholds (not micrometres, not kilometres).
    let dataset = traj_gen::paper_dataset(42);
    let f7 = fig7_threaded(&dataset, &FAST_THRESHOLDS, 1);
    for s in &f7.sweeps {
        for p in &s.points {
            assert!(
                p.error_m > 0.1 && p.error_m < 2000.0,
                "{} at {} m: error {} m out of range",
                s.label,
                p.threshold_m,
                p.error_m
            );
            assert!(p.compression_pct > 10.0 && p.compression_pct < 100.0);
        }
    }
    // TD-TR error stays below its own threshold at sample instants, so
    // the average synchronous error must be well below the threshold.
    let tdtr = f7.sweep("TD-TR").unwrap();
    for p in &tdtr.points {
        assert!(
            p.error_m < p.threshold_m,
            "TD-TR average error {} above threshold {}",
            p.error_m,
            p.threshold_m
        );
    }
}
