//! One-pass evaluation engine vs the reference per-cell path — the PR 5
//! headline.
//!
//! Both sides produce bit-identical `Evaluation`s (pinned by
//! `crates/core/tests/eval_engine.rs` and
//! `crates/eval/tests/sweep_equivalence.rs`); this bench measures the
//! work saved by (a) the single cursor merge replacing per-notion
//! `apply()` + `elementary_times` rebuilds, (b) the cross-threshold
//! segment cache, and (c) fanning the experiment harness across worker
//! threads. Its past baseline is in `EXPERIMENTS.md`, "Benchmark
//! history".

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use traj_compress::{
    evaluate, evaluate_sweep, evaluate_with, CompressionResult, EvalWorkspace, TopDown, Workspace,
};
use traj_eval::PAPER_THRESHOLDS;
use traj_model::Trajectory;

fn bench(c: &mut Criterion) {
    let dataset = traj_gen::paper_dataset(42);
    let td = TopDown::time_ratio(0.0);
    let mut cws = Workspace::new();
    // Precompute the grid's compression results so the bench isolates
    // evaluation cost from compression cost.
    let grids: Vec<(&Trajectory, Vec<CompressionResult>)> = dataset
        .iter()
        .map(|t| (t, td.sweep_with(t, &PAPER_THRESHOLDS, &mut cws)))
        .collect();

    let mut g = c.benchmark_group("eval");
    g.sample_size(20);

    // The headline pair: full 10 × 15 grid evaluation, reference
    // per-cell path vs one engine pass per trajectory.
    g.bench_function("grid/per_cell_evaluate", |b| {
        b.iter(|| {
            for (t, results) in &grids {
                for r in results {
                    black_box(evaluate(black_box(t), black_box(r)));
                }
            }
        })
    });
    g.bench_function("grid/one_pass_sweep", |b| {
        let mut ws = EvalWorkspace::new();
        b.iter(|| {
            for (t, results) in &grids {
                black_box(evaluate_sweep(black_box(t), black_box(results), &mut ws));
            }
        })
    });

    // Single-cell cost with a cold cache: the kernel win alone, no
    // cross-threshold sharing.
    let (t0, r0) = (&dataset[0], &grids[0].1[7]);
    g.bench_function("cell/reference_evaluate", |b| {
        b.iter(|| black_box(evaluate(black_box(t0), black_box(r0))))
    });
    g.bench_function("cell/one_pass_cold", |b| {
        b.iter(|| {
            let mut ws = EvalWorkspace::new();
            black_box(evaluate_with(black_box(t0), black_box(r0), &mut ws))
        })
    });

    // The full experiment harness: serial vs fanned across 4 workers.
    g.sample_size(10);
    let algo = traj_eval::Algo::top_down("TD-TR", TopDown::time_ratio(0.0));
    g.bench_function("sweep_algo/serial", |b| {
        b.iter(|| {
            black_box(traj_eval::sweep_algo(
                black_box(&algo),
                black_box(&dataset),
                &PAPER_THRESHOLDS,
            ))
        })
    });
    g.bench_function("sweep_algo/parallel_4", |b| {
        b.iter(|| {
            black_box(traj_eval::sweep_algo_parallel(
                black_box(&algo),
                black_box(&dataset),
                &PAPER_THRESHOLDS,
                4,
            ))
        })
    });

    // Factory path (OPW-TR rebuilt per threshold): compression dominates
    // each cell, so this is where the thread fan-out earns its keep — the
    // TD-TR pair above mostly measures spawn overhead once both
    // compression and evaluation are one-pass.
    let opw = traj_eval::Algo::factory("OPW-TR", |e| {
        Box::new(traj_compress::OpeningWindow::opw_tr(e))
    });
    g.bench_function("sweep_algo_opw/serial", |b| {
        b.iter(|| {
            black_box(traj_eval::sweep_algo(
                black_box(&opw),
                black_box(&dataset),
                &PAPER_THRESHOLDS,
            ))
        })
    });
    g.bench_function("sweep_algo_opw/parallel_4", |b| {
        b.iter(|| {
            black_box(traj_eval::sweep_algo_parallel(
                black_box(&opw),
                black_box(&dataset),
                &PAPER_THRESHOLDS,
                4,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
