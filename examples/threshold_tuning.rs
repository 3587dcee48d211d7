//! Threshold tuning: the paper's parting problem, made operational.
//!
//! "Obtained results strongly depend on the chosen threshold values.
//! Choosing a proper threshold is not easy and is application-dependent."
//! (paper §5.) This example sweeps the trade-off surface for one
//! trajectory and answers the operational question directly: *what is
//! the largest threshold whose measured average synchronous error stays
//! under my application's tolerance?*
//!
//! ```text
//! cargo run --release --example threshold_tuning [tolerance_m]
//! ```

use trajc::compress::{evaluate_with, Compressor, EvalWorkspace, TdTr};

fn main() {
    let tolerance_m: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);

    let trip = trajc::gen::paper_dataset(42).remove(6);
    println!("tuning TD-TR on a {}-fix trip, error tolerance {tolerance_m} m\n", trip.len());
    println!("{:>11} {:>12} {:>14}", "threshold m", "compression%", "avg sync err m");

    let mut best: Option<(f64, f64, f64)> = None;
    let mut ws = EvalWorkspace::new();
    for i in 0..=20 {
        let eps = 10.0 + 10.0 * i as f64; // 10–210 m
        let result = TdTr::new(eps).compress(&trip);
        let e = evaluate_with(&trip, &result, &mut ws);
        println!("{:>11.0} {:>12.1} {:>14.2}", eps, e.compression_pct, e.avg_sync_err_m);
        if e.avg_sync_err_m <= tolerance_m {
            best = Some((eps, e.compression_pct, e.avg_sync_err_m));
        }
    }

    match best {
        Some((eps, comp, err)) => println!(
            "\n→ pick ε = {eps:.0} m: {comp:.1}% compression at {err:.2} m average error \
             (within the {tolerance_m} m tolerance)"
        ),
        None => println!(
            "\n→ no swept threshold meets the {tolerance_m} m tolerance; \
             lower the sweep floor or accept more error"
        ),
    }
}
