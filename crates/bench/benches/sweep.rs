//! One-pass sweep vs per-threshold compression.
//!
//! Both sides produce byte-identical results (pinned by
//! `crates/eval/tests/sweep_equivalence.rs`); this bench measures the
//! work saved by answering all fifteen paper thresholds from a single
//! split-tree pass per trajectory instead of fifteen independent runs.
//! The top-down rows' past baseline is in `EXPERIMENTS.md`, "Benchmark
//! history".
//!
//! The opening-window rows (`nopw`, `opw_tr`, `opw_sp_5ms`) compare the
//! memoized window sweep with what the experiment registry ran before
//! it: `compress_into` once per threshold on a warm workspace.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use traj_compress::{
    CompressionResultBuf, Compressor, OpeningWindow, TdSp, TdTr, TopDown, Workspace,
};
use traj_eval::PAPER_THRESHOLDS;

fn bench(c: &mut Criterion) {
    let dataset = traj_gen::paper_dataset(42);

    let mut g = c.benchmark_group("sweep_vs_per_threshold");
    g.sample_size(20);

    // TD-TR over the paper grid: the protocol behind Figs. 7 and 11.
    g.bench_function("td_tr/per_threshold", |b| {
        b.iter(|| {
            for t in &dataset {
                for &eps in &PAPER_THRESHOLDS {
                    black_box(TdTr::new(eps).compress(black_box(t)));
                }
            }
        })
    });
    g.bench_function("td_tr/one_pass_sweep", |b| {
        let td = TopDown::time_ratio(0.0);
        let mut ws = Workspace::new();
        b.iter(|| {
            for t in &dataset {
                black_box(td.sweep_with(black_box(t), &PAPER_THRESHOLDS, &mut ws));
            }
        })
    });

    // NDP (perpendicular): same tree trick, cheaper distance.
    g.bench_function("ndp/per_threshold", |b| {
        b.iter(|| {
            for t in &dataset {
                for &eps in &PAPER_THRESHOLDS {
                    black_box(traj_compress::DouglasPeucker::new(eps).compress(black_box(t)));
                }
            }
        })
    });
    g.bench_function("ndp/one_pass_sweep", |b| {
        let td = TopDown::perpendicular(0.0);
        let mut ws = Workspace::new();
        b.iter(|| {
            for t in &dataset {
                black_box(td.sweep_with(black_box(t), &PAPER_THRESHOLDS, &mut ws));
            }
        })
    });

    // TD-SP: the memoized interval-stats path (blended criterion).
    g.bench_function("td_sp_5ms/per_threshold", |b| {
        b.iter(|| {
            for t in &dataset {
                for &eps in &PAPER_THRESHOLDS {
                    black_box(TdSp::new(eps, 5.0).compress(black_box(t)));
                }
            }
        })
    });
    g.bench_function("td_sp_5ms/one_pass_sweep", |b| {
        let td = TopDown::time_ratio_speed(0.0, 5.0);
        let mut ws = Workspace::new();
        b.iter(|| {
            for t in &dataset {
                black_box(td.sweep_with(black_box(t), &PAPER_THRESHOLDS, &mut ws));
            }
        })
    });

    // Opening-window family: per-threshold kernel vs the memoized sweep.
    let windows = [
        ("nopw", OpeningWindow::nopw(0.0)),
        ("opw_tr", OpeningWindow::opw_tr(0.0)),
        ("opw_sp_5ms", OpeningWindow::opw_sp(0.0, 5.0)),
    ];
    for (name, ow) in windows {
        g.bench_function(format!("{name}/per_threshold"), |b| {
            let mut ws = Workspace::new();
            let mut out = CompressionResultBuf::new();
            b.iter(|| {
                for t in &dataset {
                    for &eps in &PAPER_THRESHOLDS {
                        let crit = ow.criterion().with_epsilon(eps);
                        let single = OpeningWindow::new(crit, ow.strategy());
                        single.compress_into(black_box(t), &mut ws, &mut out);
                        black_box(out.take());
                    }
                }
            })
        });
        g.bench_function(format!("{name}/memo_sweep"), |b| {
            let mut ws = Workspace::new();
            b.iter(|| {
                for t in &dataset {
                    black_box(ow.sweep_with(black_box(t), &PAPER_THRESHOLDS, &mut ws));
                }
            })
        });
    }

    // The full experiment runner: one split-tree pass and one memoized
    // evaluation pass per trajectory.
    g.sample_size(10);
    g.bench_function("experiment/registry_sweep_algo", |b| {
        let algo = traj_eval::Algo::top_down("TD-TR", TopDown::time_ratio(0.0));
        b.iter(|| {
            black_box(traj_eval::sweep_algo(
                black_box(&algo),
                black_box(&dataset),
                &PAPER_THRESHOLDS,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
