//! Matrix test: every compressor against every canonical motion shape.
//!
//! Each cell checks the universal invariants (endpoints kept, indices
//! strictly increasing, evaluation finite) plus shape-specific
//! expectations: stationary and straight-constant-speed motion must
//! collapse for the time-aware algorithms, stop-and-go must *not*
//! collapse under SED, and circles must keep enough points to bound the
//! error.

use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_compress::{
    evaluate, BottomUp, Compressor, DeadReckoning, DouglasPeucker, OpeningWindow, SlidingWindow,
    TdSp, TdTr,
};
use traj_gen::simple::{circle, random_walk, stop_and_go, straight};
use traj_model::Trajectory;

fn algorithms(eps: f64) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(DouglasPeucker::new(eps)),
        Box::new(TdTr::new(eps)),
        Box::new(TdSp::new(eps, 5.0)),
        Box::new(OpeningWindow::nopw(eps)),
        Box::new(OpeningWindow::bopw(eps)),
        Box::new(OpeningWindow::opw_tr(eps)),
        Box::new(OpeningWindow::opw_sp(eps, 5.0)),
        Box::new(BottomUp::time_ratio(eps)),
        Box::new(SlidingWindow::time_ratio(eps, 16)),
        Box::new(DeadReckoning::new(eps)),
    ]
}

fn shapes() -> Vec<(&'static str, Trajectory)> {
    vec![
        ("stationary", Trajectory::from_triples((0..50).map(|i| (i as f64 * 10.0, 3.0, 4.0))).unwrap()),
        ("straight", straight(100, 10.0, 14.0)),
        ("circle", circle(120, 10.0, 300.0, 0.01)),
        ("stop_and_go", stop_and_go(8, 10, 5, 10.0, 14.0)),
        ("random_walk", random_walk(&mut StdRng::seed_from_u64(5), 150, 10.0, 30.0)),
    ]
}

#[test]
fn universal_invariants_hold_for_every_cell() {
    for (shape, traj) in shapes() {
        for algo in algorithms(20.0) {
            let r = algo.compress(&traj);
            assert_eq!(r.kept()[0], 0, "{shape}/{}", algo.name());
            assert_eq!(
                *r.kept().last().unwrap(),
                traj.len() - 1,
                "{shape}/{}",
                algo.name()
            );
            let e = evaluate(&traj, &r);
            assert!(e.avg_sync_err_m.is_finite(), "{shape}/{}", algo.name());
            assert!(
                e.avg_sync_err_m <= e.max_sync_err_m + 1e-9,
                "{shape}/{}",
                algo.name()
            );
        }
    }
}

#[test]
fn stationary_object_collapses_everywhere() {
    let traj = Trajectory::from_triples((0..50).map(|i| (i as f64 * 10.0, 3.0, 4.0))).unwrap();
    for algo in algorithms(5.0) {
        let r = algo.compress(&traj);
        // Stationary: every interior point is exactly representable.
        // The sliding window caps segment span at 16 points by design, so
        // it keeps ⌈49/16⌉ + 1 = 5.
        let limit = if algo.name().starts_with("sliding-window") { 5 } else { 3 };
        assert!(
            r.kept_len() <= limit,
            "{} kept {} points of a stationary object",
            algo.name(),
            r.kept_len()
        );
    }
}

#[test]
fn straight_constant_speed_collapses_for_unbounded_lookback() {
    let traj = straight(100, 10.0, 14.0);
    for algo in [
        Box::new(DouglasPeucker::new(5.0)) as Box<dyn Compressor>,
        Box::new(TdTr::new(5.0)),
        Box::new(OpeningWindow::opw_tr(5.0)),
        Box::new(BottomUp::time_ratio(5.0)),
    ] {
        let r = algo.compress(&traj);
        assert_eq!(r.kept(), &[0, 99], "{}", algo.name());
    }
}

#[test]
fn stop_and_go_defeats_spatial_metrics_not_sed() {
    let traj = stop_and_go(8, 10, 5, 10.0, 14.0);
    // The path is a straight line: the perpendicular metric sees nothing.
    let ndp = DouglasPeucker::new(5.0).compress(&traj);
    assert_eq!(ndp.kept_len(), 2, "NDP collapses the straight path");
    let ndp_err = evaluate(&traj, &ndp).avg_sync_err_m;
    // The SED metric keeps the dwell structure.
    let tdtr = TdTr::new(5.0).compress(&traj);
    assert!(tdtr.kept_len() > 2);
    let tdtr_err = evaluate(&traj, &tdtr).avg_sync_err_m;
    assert!(
        tdtr_err < ndp_err / 5.0,
        "TD-TR {tdtr_err} m must crush NDP {ndp_err} m on stop-and-go"
    );
    assert!(tdtr_err <= 5.0, "TD-TR respects its own budget: {tdtr_err}");
}

#[test]
fn circle_error_stays_bounded_by_threshold_for_td_tr() {
    let traj = circle(120, 10.0, 300.0, 0.01);
    for eps in [5.0, 15.0, 40.0] {
        let r = TdTr::new(eps).compress(&traj);
        let e = evaluate(&traj, &r);
        assert!(
            e.max_sed_m <= eps + 1e-9,
            "eps={eps}: sample SED {} over budget",
            e.max_sed_m
        );
        // Tighter budgets keep more of the circle.
        assert!(e.compression_pct < 100.0);
    }
}

#[test]
fn compression_ranking_on_random_walk_is_sane() {
    // Batch top-down ≥ opening window ≥ sliding window (bounded span) in
    // compression at the same threshold, on rough terrain.
    let traj = random_walk(&mut StdRng::seed_from_u64(11), 300, 10.0, 25.0);
    let eps = 40.0;
    let td = TdTr::new(eps).compress(&traj).compression_pct();
    let ow = OpeningWindow::opw_tr(eps).compress(&traj).compression_pct();
    let sw = SlidingWindow::time_ratio(eps, 8).compress(&traj).compression_pct();
    assert!(td + 1e-9 >= ow, "td {td} < ow {ow}");
    assert!(ow + 15.0 >= sw, "ow {ow} ≪ sw {sw} — window cap should not win big");
}
