//! AoS vs SoA data layout — the PR 9 headline.
//!
//! Both sides compute the same quantities (pinned bit-identical by
//! `crates/core/tests/layout_equivalence.rs`); this bench measures what
//! the column layout buys:
//!
//! * `dp_scan` — one full farthest-point scan over a 10k-fix track, the
//!   inner loop of every top-down split. The AoS side is the
//!   pre-refactor kernel verbatim (`split_value` per index, endpoint
//!   fixes re-loaded each element); the SoA side is
//!   `SegmentCriterion::scan_segment` over a [`TrajColumns`] view.
//! * `eval_grid` — the full 15-threshold evaluation grid on the same
//!   track via `evaluate_sweep`. The pre-refactor baseline for this id
//!   is in `EXPERIMENTS.md`, "Benchmark history" (the old interleaved
//!   `seg_terms` no longer exists in-tree to benchmark directly).
//! * `op_cone` — the one-pass cone family, batch and streaming. These
//!   kernels are O(1)-state online loops that never revisit earlier
//!   fixes, so they gain nothing from columns; the pair documents that
//!   the refactor left them alone.
//!
//! Past numbers are in `EXPERIMENTS.md`, "Benchmark history".

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use traj_compress::{
    evaluate_sweep, Compressor, EvalWorkspace, OnePassCone, OnePassStream, SegmentCriterion,
    StreamingCompressor, TimeRatio, TopDown, Workspace,
};
use traj_eval::PAPER_THRESHOLDS;
use traj_model::{TrajColumns, Trajectory};

/// A gently winding vehicle track: 20 m/s forward, ±10 m lateral sine
/// (the `onepass.rs` smooth workload). Spatially almost straight, so
/// top-down recursion stays shallow and the single whole-track scan
/// below dominates — the shape where scan cost is purest.
fn winding(n: usize) -> Trajectory {
    Trajectory::from_triples((0..n).map(|i| {
        let t = i as f64 * 10.0;
        (t, i as f64 * 20.0, 10.0 * (i as f64 * 0.01).sin())
    }))
    .expect("winding workload is finite and monotone")
}

fn bench(c: &mut Criterion) {
    let t = winding(10_000);
    let fixes = t.fixes();
    let n = t.len();
    let cols = TrajColumns::from_fixes(fixes);
    let v = cols.view();
    let crit = TimeRatio { epsilon: 50.0 };

    let mut g = c.benchmark_group("layout");

    // Pre-refactor farthest-point scan: first-argmax over per-index
    // `split_value` calls, exactly as `DouglasPeucker::farthest` did
    // (and its recursive variants still do).
    g.bench_function("dp_scan/aos", |b| {
        b.iter(|| {
            let fixes = black_box(fixes);
            let mut best = (1usize, f64::NEG_INFINITY);
            for i in 1..n - 1 {
                let d = crit.split_value(fixes, 0, n - 1, i);
                if d > best.1 {
                    best = (i, d);
                }
            }
            black_box(best)
        })
    });
    g.bench_function("dp_scan/soa", |b| {
        b.iter(|| black_box(crit.scan_segment(black_box(v), 0, n - 1)))
    });

    // Full evaluation grid: compress at each paper threshold once, then
    // time the sweep evaluation over all 15 results. The workspace stays
    // warm across iterations, as it does in `traj-eval`'s harness.
    let td = TopDown::time_ratio(0.0);
    let mut cws = Workspace::new();
    let results = td.sweep_with(&t, &PAPER_THRESHOLDS, &mut cws);
    g.bench_function("eval_grid/sweep", |b| {
        let mut ws = EvalWorkspace::new();
        b.iter(|| black_box(evaluate_sweep(black_box(&t), black_box(&results), &mut ws)))
    });

    // Layout-insensitive control: the one-pass cone never looks back at
    // earlier fixes, so AoS vs SoA cannot matter — these ids exist to
    // catch accidental regressions from the refactor, not to show a win.
    let cone = OnePassCone::new(50.0);
    g.bench_function("op_cone/batch", |b| {
        b.iter(|| black_box(cone.compress(black_box(&t))))
    });
    g.bench_function("op_cone/stream", |b| {
        b.iter(|| {
            let mut s = OnePassStream::cone(50.0);
            for f in t.fixes() {
                let _ = black_box(s.push(*f));
            }
            black_box(s.finish())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
