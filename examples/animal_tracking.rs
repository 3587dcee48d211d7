//! Wildlife telemetry: compressing tracks of a different nature.
//!
//! The paper's closing question (§5) — how do the techniques behave for
//! "moving objects of different nature"? — played out on a two-state
//! animal track (transit vs foraging, the standard movement-ecology
//! model). Collars are battery-bound, so the online OPW-SP stream is the
//! realistic deployment: the collar transmits only the kept fixes. We
//! compare thresholds, then ingest the track through a compressing store
//! and archive what it kept as a `t,x,y` file.
//!
//! ```text
//! cargo run --release --example animal_tracking
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajc::compress::{evaluate_with, Compressor, EvalWorkspace, OpeningWindow, TdTr};
use trajc::gen::{animal_track, AnimalParams};
use trajc::model::io::write_csv;
use trajc::model::stats::TrajectoryStats;
use trajc::store::{IngestMode, MovingObjectStore};

fn main() {
    // A day of 30 s fixes from a collared animal.
    let params = AnimalParams { steps: 2880, ..AnimalParams::default() };
    let track = animal_track(&params, &mut StdRng::seed_from_u64(11));
    let s = TrajectoryStats::of(&track);
    println!(
        "track: {} fixes over {}, {:.1} km, avg {:.2} m/s",
        s.n_points,
        s.duration,
        s.length_km(),
        s.avg_speed_ms
    );

    // Threshold guidance per the paper: sweep and look at the knee.
    println!("\n{:>8} {:>22} {:>22}", "ε (m)", "TD-TR comp%/err", "OPW-SP comp%/err");
    let mut ws = EvalWorkspace::new();
    for eps in [5.0, 10.0, 25.0, 50.0] {
        let td = evaluate_with(&track, &TdTr::new(eps).compress(&track), &mut ws);
        let ow = evaluate_with(&track, &OpeningWindow::opw_sp(eps, 1.0).compress(&track), &mut ws);
        println!(
            "{:>8.0} {:>13.1}% {:>6.2}m {:>13.1}% {:>6.2}m",
            eps, td.compression_pct, td.avg_sync_err_m, ow.compression_pct, ow.avg_sync_err_m
        );
    }

    // Archive: ingest through the store with a 10 m budget, then write
    // the kept fixes out.
    let mut store = MovingObjectStore::new(IngestMode::Compressed {
        epsilon: 10.0,
        speed_epsilon: Some(1.0),
        max_window: 128,
    });
    store.insert_trajectory(1, &track).expect("valid track");
    let stats = store.stats();
    println!(
        "\narchived {} of {} fixes ({:.1}% saved)",
        stats.stored_points,
        stats.ingested_points,
        stats.compression_pct()
    );
    let path = std::env::temp_dir().join("trajc_animal_archive.csv");
    let kept = store.trajectory(1).expect("the track was ingested");
    write_csv(&kept, &path).expect("writable temp dir");
    println!("wrote the {} kept fixes to {}", kept.len(), path.display());
}
