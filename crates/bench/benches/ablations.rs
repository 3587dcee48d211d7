//! Ablation benches for the design choices called out in `DESIGN.md`.
//!
//! * `dp_variants` — iterative vs recursive vs keep-best-N top-down
//!   engines (same outputs, different control flow);
//! * `error_eval` — closed-form average synchronous error vs adaptive
//!   quadrature (the accuracy cross-check's cost);
//! * `ow_restart` — NOPW (restart at the violating point, the paper's
//!   SPT choice) vs BOPW (restart just before the float), and the
//!   streaming engine vs the batch engine on identical input.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use traj_compress::error::{average_synchronous_error, average_synchronous_error_numeric};
use traj_compress::streaming::{OwStream, StreamingCompressor};
use traj_compress::{Compressor, OpeningWindow, TdTr, TopDown};

fn bench(c: &mut Criterion) {
    let dataset = traj_gen::paper_dataset(42);
    let trip = &dataset[6];

    let mut g = c.benchmark_group("ablation_dp_variants");
    g.sample_size(30);
    let td = TopDown::time_ratio(50.0);
    g.bench_function("iterative", |b| b.iter(|| black_box(td.compress(black_box(trip)))));
    g.bench_function("recursive", |b| {
        b.iter(|| black_box(td.compress_recursive(black_box(trip))))
    });
    let target = td.compress(trip).kept_len();
    g.bench_function("keep_best_n", |b| {
        b.iter(|| black_box(td.compress_to_count(black_box(trip), target)))
    });
    let textbook = traj_compress::DouglasPeucker::new(50.0);
    g.bench_function("perp_textbook", |b| {
        b.iter(|| black_box(textbook.compress(black_box(trip))))
    });
    g.finish();

    let mut g = c.benchmark_group("ablation_error_eval");
    g.sample_size(20);
    let approx = TdTr::new(50.0).compress(trip).apply(trip);
    g.bench_function("closed_form", |b| {
        b.iter(|| black_box(average_synchronous_error(black_box(trip), black_box(&approx))))
    });
    g.bench_function("numeric_quadrature", |b| {
        b.iter(|| {
            black_box(average_synchronous_error_numeric(
                black_box(trip),
                black_box(&approx),
                1e-6,
            ))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("ablation_ow_restart");
    g.sample_size(30);
    g.bench_function("restart_at_violation_nopw", |b| {
        let algo = OpeningWindow::opw_tr(50.0);
        b.iter(|| black_box(algo.compress(black_box(trip))))
    });
    g.bench_function("restart_before_float_bopw", |b| {
        let algo = OpeningWindow::new(
            traj_compress::Criterion::TimeRatio { epsilon: 50.0 },
            traj_compress::BreakStrategy::BeforeFloat,
        );
        b.iter(|| black_box(algo.compress(black_box(trip))))
    });
    g.bench_function("streaming_engine", |b| {
        b.iter(|| {
            let mut s = OwStream::opw_tr(50.0);
            let mut kept = 0usize;
            for f in trip.fixes() {
                kept += s.push(*f).expect("valid fixes").len();
            }
            kept += s.finish().len();
            black_box(kept)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
