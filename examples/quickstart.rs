//! Quickstart: compress one GPS trajectory and measure what it cost you.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use trajc::compress::error::average_synchronous_error;
use trajc::compress::streaming::{OwStream, StreamingCompressor};
use trajc::compress::{
    evaluate_with, Compressor, DouglasPeucker, EvalWorkspace, OpeningWindow, TdTr,
};
use trajc::model::stats::TrajectoryStats;

fn main() {
    // 1. Get a trajectory. Here: one synthetic car trip from the
    //    paper-calibrated dataset. With real data you would use
    //    `trajc::model::io::read_csv` on a `t,x,y` file.
    let trip = trajc::gen::paper_dataset(42).remove(5);
    let stats = TrajectoryStats::of(&trip);
    println!(
        "trip: {} fixes, {:.1} km in {}, avg {:.1} km/h",
        stats.n_points,
        stats.length_km(),
        stats.duration,
        stats.avg_speed_kmh()
    );

    // 2. Compress with a 30 m error budget, three ways.
    let budget_m = 30.0;
    let mut ws = EvalWorkspace::new();
    for compressor in [
        Box::new(DouglasPeucker::new(budget_m)) as Box<dyn Compressor>,
        Box::new(TdTr::new(budget_m)),
        Box::new(OpeningWindow::opw_tr(budget_m)),
    ] {
        let result = compressor.compress(&trip);
        let eval = evaluate_with(&trip, &result, &mut ws);
        println!(
            "{:<28} kept {:>4}/{} fixes ({:>5.1}% compression), avg sync error {:>7.2} m",
            compressor.name(),
            result.kept_len(),
            trip.len(),
            eval.compression_pct,
            eval.avg_sync_err_m
        );
    }

    // 3. The same opening-window algorithm, online: feed fixes as they
    //    "arrive" and collect the kept ones immediately.
    let mut stream = OwStream::opw_tr(budget_m);
    let mut kept = Vec::new();
    for fix in trip.fixes() {
        kept.extend(stream.push(*fix).expect("fixes are valid and ordered"));
    }
    kept.extend(stream.finish());
    let online = trajc::model::Trajectory::new(kept).expect("stream preserves order");
    println!(
        "online OPW-TR: {} fixes kept, avg sync error {:.2} m",
        online.len(),
        average_synchronous_error(&trip, &online)
    );
}
