//! Moving-object store benchmarks: ingest throughput (raw vs compressed)
//! and window-query cost (scan vs the spatiotemporal R-tree) on the
//! paper workload and on a long history of looping buses.

use std::f64::consts::TAU;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use traj_geom::Point2;
use traj_model::{Timestamp, Trajectory};
use traj_store::query::{build_segment_rtree, rtree_objects_in_window};
use traj_store::{position_of, IngestMode, MovingObjectStore, QueryWindow};

fn loaded_store(mode: IngestMode) -> MovingObjectStore {
    let dataset = traj_gen::paper_dataset(42);
    let mut store = MovingObjectStore::new(mode);
    for (id, trip) in dataset.iter().enumerate() {
        store.insert_trajectory(id as u64, trip).expect("valid trip");
    }
    store
}

/// `buses` buses lapping 2 km-radius loops at 12 m/s around centres
/// within ~4 km of each other, one fix per 10 s for `fixes` fixes each:
/// a long history in one place (10,000 fixes ≈ 28 h ≈ 95 laps).
fn looping_store(buses: u64, fixes: usize) -> MovingObjectStore {
    let mut rng = StdRng::seed_from_u64(7);
    let period = TAU * 2_000.0 / 12.0;
    let mut store = MovingObjectStore::new(IngestMode::Raw);
    for id in 0..buses {
        let (cx, cy) = (rng.gen_range(-2_000.0..2_000.0), rng.gen_range(-2_000.0..2_000.0));
        let phase = rng.gen_range(0.0..TAU);
        let trip = Trajectory::from_triples((0..fixes).map(|i| {
            let t = i as f64 * 10.0;
            let a = phase + TAU * t / period;
            (t, cx + 2_000.0 * a.cos(), cy + 2_000.0 * a.sin())
        }))
        .expect("valid loop");
        store.insert_trajectory(id, &trip).expect("valid loop");
    }
    store
}

/// `n` windows of 1 km × 600 s, each centred on a random bus of
/// [`looping_store`] at a random instant of its history.
fn windows_on_buses(
    store: &MovingObjectStore,
    buses: u64,
    fixes: usize,
    n: usize,
) -> Vec<QueryWindow> {
    let mut rng = StdRng::seed_from_u64(11);
    let end = (fixes - 1) as f64 * 10.0;
    (0..n)
        .map(|_| {
            let id = rng.gen_range(0..buses);
            let t = rng.gen_range(0.0..end);
            let p = position_of(store, id, Timestamp::from_secs(t)).expect("inside the history");
            QueryWindow::new(
                Point2::new(p.x - 500.0, p.y - 500.0),
                Point2::new(p.x + 500.0, p.y + 500.0),
                t - 300.0,
                t + 300.0,
            )
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let dataset = traj_gen::paper_dataset(42);
    let total_fixes: usize = dataset.iter().map(|t| t.len()).sum();

    let mut g = c.benchmark_group("store_ingest");
    g.sample_size(20);
    g.throughput(Throughput::Elements(total_fixes as u64));
    g.bench_function("raw", |b| {
        b.iter(|| {
            let mut store = MovingObjectStore::new(IngestMode::Raw);
            for (id, trip) in dataset.iter().enumerate() {
                store.insert_trajectory(id as u64, trip).expect("valid trip");
            }
            black_box(store.stats())
        })
    });
    g.bench_function("compressed_opw_tr_30m", |b| {
        b.iter(|| {
            let mut store = MovingObjectStore::new(IngestMode::Compressed {
                epsilon: 30.0,
                speed_epsilon: None,
                max_window: 256,
            });
            for (id, trip) in dataset.iter().enumerate() {
                store.insert_trajectory(id as u64, trip).expect("valid trip");
            }
            black_box(store.stats())
        })
    });
    g.finish();

    let store = loaded_store(IngestMode::Raw);
    let windows: Vec<QueryWindow> = (0..16)
        .map(|i| {
            let x = (i % 4) as f64 * 4_500.0;
            let y = (i / 4) as f64 * 4_500.0;
            QueryWindow::new(
                Point2::new(x, y),
                Point2::new(x + 5_000.0, y + 5_000.0),
                i as f64 * 120.0,
                i as f64 * 120.0 + 900.0,
            )
        })
        .collect();

    let mut g = c.benchmark_group("store_window_query");
    g.sample_size(30);
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(traj_store::objects_in_window(&store, w));
            }
        })
    });
    let tree = build_segment_rtree(&store);
    g.bench_function("str_rtree", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(rtree_objects_in_window(&tree, w));
            }
        })
    });
    g.bench_function("rtree_build", |b| {
        b.iter(|| black_box(build_segment_rtree(&store)))
    });
    g.finish();

    // The long history: 50 buses × 10,000 fixes (499,950 segments), 64
    // windows. The scan walks every segment; the index prunes by time.
    let (buses, fixes) = (50, 10_000);
    let store = looping_store(buses, fixes);
    let windows = windows_on_buses(&store, buses, fixes, 64);
    let mut g = c.benchmark_group("store_window_query_loops");
    g.sample_size(10);
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(traj_store::objects_in_window(&store, w));
            }
        })
    });
    let tree = build_segment_rtree(&store);
    g.bench_function("str_rtree", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(rtree_objects_in_window(&tree, w));
            }
        })
    });
    g.bench_function("rtree_build", |b| {
        b.iter(|| black_box(build_segment_rtree(&store)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
