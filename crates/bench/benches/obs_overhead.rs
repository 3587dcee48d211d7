//! The observability overhead budget: what instrumentation costs when
//! it is on, off for the build, or compiled in but inactive.
//!
//! Four families:
//! - `macro/*` — a labeled counter, the unit cost of a per-call
//!   registry lookup.
//! - `trace/*` — one `trace_span!` with no session vs an active one:
//!   every span's cost (two clock reads and one `span.<name>` histogram
//!   record), and what a `--trace-out` run adds per begin/end pair.
//! - `sweep/*` — the paper-grid sweep (TD-TR over the ten-trajectory
//!   dataset × fifteen thresholds) with tracing off vs on. The budget:
//!   the traced run stays within 5% of the untraced run (EXPERIMENTS.md,
//!   "Benchmark history").
//! - `parallel/*` — `sweep_algo_parallel` serial vs explicit workers vs
//!   `0` (adaptive): the re-baseline after the adaptive-worker fix. On
//!   a single-core host the adaptive path must match serial.
//!
//! Run with `--test` for a one-iteration smoke pass (CI does, in both
//! feature states).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use traj_compress::{Compressor, TdTr, TopDown, Workspace};
use traj_eval::{sweep_algo, sweep_algo_parallel, Algo, PAPER_THRESHOLDS};

fn bench(c: &mut Criterion) {
    let dataset = traj_gen::paper_dataset(42);

    let mut g = c.benchmark_group("macro");
    g.sample_size(20);
    g.bench_function("labeled_counter", |b| {
        b.iter(|| {
            traj_obs::counter!("bench", "ticks", algo = "td-tr").inc();
        })
    });
    g.finish();

    let mut g = c.benchmark_group("trace");
    g.sample_size(20);
    g.bench_function("span_inactive", |b| {
        // Compiled in, no session: the histogram still records.
        b.iter(|| {
            let _t = traj_obs::trace_span!("bench.trace");
            black_box(());
        })
    });
    g.bench_function("span_active", |b| {
        traj_obs::trace::start();
        b.iter(|| {
            let _t = traj_obs::trace_span!("bench.trace");
            black_box(());
        });
        let trace = traj_obs::trace::stop();
        black_box(trace.event_count());
    });
    g.finish();

    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    let grid_sweep = |ws: &mut Workspace| {
        let td = TopDown::time_ratio(0.0);
        for t in &dataset {
            black_box(td.sweep_with(black_box(t), &PAPER_THRESHOLDS, ws));
        }
    };
    g.bench_function("paper_grid_untraced", |b| {
        let mut ws = Workspace::new();
        b.iter(|| grid_sweep(&mut ws));
    });
    g.bench_function("paper_grid_traced", |b| {
        traj_obs::trace::start();
        let mut ws = Workspace::new();
        b.iter(|| grid_sweep(&mut ws));
        let trace = traj_obs::trace::stop();
        black_box(trace.event_count());
    });
    g.finish();

    let mut g = c.benchmark_group("parallel");
    g.sample_size(10);
    let algo = Algo::top_down("TD-TR", TopDown::time_ratio(0.0));
    g.bench_function("sweep_algo_serial", |b| {
        b.iter(|| black_box(sweep_algo(&algo, &dataset, &PAPER_THRESHOLDS)))
    });
    g.bench_function("sweep_algo_parallel_4", |b| {
        b.iter(|| black_box(sweep_algo_parallel(&algo, &dataset, &PAPER_THRESHOLDS, 4)))
    });
    g.bench_function("sweep_algo_parallel_auto", |b| {
        b.iter(|| black_box(sweep_algo_parallel(&algo, &dataset, &PAPER_THRESHOLDS, 0)))
    });
    g.finish();

    // A compressed single-cell sanity: compression itself unaffected by
    // an inactive recorder (tracing compiled in, no session).
    let mut g = c.benchmark_group("compress");
    g.sample_size(20);
    g.bench_function("td_tr_cell", |b| {
        let c = TdTr::new(30.0);
        b.iter(|| black_box(c.compress(black_box(&dataset[0]))))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
