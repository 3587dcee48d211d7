//! The one-pass SED family against OPW-TR on long trajectories.
//!
//! OPW-TR revalidates every buffered point each time the window grows,
//! so a long smooth stretch (few cuts, wide windows) drives it toward
//! its O(n²) worst case. OP-FIT and OP-CONE answer the same question —
//! "does a strict SED bound hold for the current segment?" — from an
//! O(1) fitting region per point, so they stay O(n) on exactly that
//! workload. The headline ratio is ≥5× on the 10k-fix smooth
//! trajectory (past numbers: `EXPERIMENTS.md`, "Benchmark history");
//! the noisy group shows the typical case where frequent cuts keep
//! OPW-TR's windows short.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use traj_compress::{
    Compressor, OnePassCone, OnePassFit, OnePassStream, OpeningWindow, StreamingCompressor,
};
use traj_gen::simple::random_walk;
use traj_model::Trajectory;

/// A gently winding vehicle track: 20 m/s forward, a ±10 m lateral
/// sine. At eps = 50 m the SED criterion almost never fires, so the
/// opening window keeps growing — the OW family's worst-case shape on
/// a workload that still looks like real movement.
fn smooth(n: usize) -> Trajectory {
    Trajectory::from_triples((0..n).map(|i| {
        let t = i as f64 * 10.0;
        (t, i as f64 * 20.0, 10.0 * (i as f64 * 0.01).sin())
    }))
    .expect("smooth workload is finite and monotone")
}

fn algos(eps: f64) -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        ("opw_tr", Box::new(OpeningWindow::opw_tr(eps))),
        ("op_fit", Box::new(OnePassFit::new(eps))),
        ("op_cone", Box::new(OnePassCone::new(eps))),
    ]
}

fn bench(c: &mut Criterion) {
    let eps = 50.0;

    // The headline: ≥10k fixes, few cuts — op_fit/op_cone must beat
    // opw_tr by ≥5× here.
    let mut g = c.benchmark_group("onepass_smooth");
    g.sample_size(10);
    for n in [10_000usize, 20_000] {
        let t = smooth(n);
        g.throughput(Throughput::Elements(n as u64));
        for (name, algo) in algos(eps) {
            g.bench_with_input(BenchmarkId::new(name, n), &t, |b, t| {
                b.iter(|| black_box(algo.compress(black_box(t))))
            });
        }
    }
    g.finish();

    // Typical case: a noisy random walk cuts every few fixes, so the
    // opening window stays short and everyone is near-linear.
    let mut g = c.benchmark_group("onepass_noisy");
    g.sample_size(10);
    let n = 10_000usize;
    let t = random_walk(&mut StdRng::seed_from_u64(9), n, 10.0, 40.0);
    g.throughput(Throughput::Elements(n as u64));
    for (name, algo) in algos(eps) {
        g.bench_with_input(BenchmarkId::new(name, n), &t, |b, t| {
            b.iter(|| black_box(algo.compress(black_box(t))))
        });
    }
    g.finish();

    // The record-at-a-time adapter: same decisions as the batch kernel,
    // paid one push at a time (includes the per-push Vec allocation).
    let mut g = c.benchmark_group("onepass_stream");
    g.sample_size(10);
    let t = smooth(n);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_with_input(BenchmarkId::new("op_cone_push", n), &t, |b, t| {
        b.iter(|| {
            let mut s = OnePassStream::cone(eps);
            let mut kept = 0usize;
            for &fix in t.fixes() {
                kept += s.push(fix).expect("bench fixes are clean").len();
            }
            kept += s.finish().len();
            black_box(kept)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
