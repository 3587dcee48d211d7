//! End-to-end service tests over the in-memory storage backend: full
//! ingest→shutdown runs, multi-shard recovery reassembly, the
//! backpressure contract under a stalled worker, and a shard stopped
//! by a storage failure.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use traj_gen::fleet::{Fleet, FleetConfig};
use traj_serve::{
    check_shards, shard_of, CodecSpec, ServeConfig, Service, SubmitError, MAX_SHARDS,
};
use traj_store::storage::{MemStorage, Storage, StorageWriter};
use traj_store::{DurableOptions, DurableStore, GroupCommitOptions, IngestMode};

const DIR: &str = "/serve";

fn raw_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        codec: CodecSpec::Raw,
        ..ServeConfig::default()
    }
}

/// Raw sessions + clean shutdown: every accepted fix is durable, and
/// reopening each shard directory as a plain [`DurableStore`]
/// reassembles exactly the submitted fleet.
#[test]
fn multi_shard_recovery_reassembles_the_fleet() {
    let disk = Arc::new(MemStorage::new());
    let shards = 3;
    let service =
        Service::start_with(disk.clone(), Path::new(DIR), raw_config(shards)).unwrap();
    let fleet = Fleet::new(FleetConfig { movers: 20, ..FleetConfig::default() });
    let fixes_per_mover = 15u64;
    for k in 0..fixes_per_mover {
        for mover in 0..fleet.movers() {
            service.submit(mover, fleet.fix_for(mover, k)).unwrap();
        }
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 20 * fixes_per_mover);
    assert_eq!(stats.emitted, 20 * fixes_per_mover, "raw sessions log 1:1");
    assert_eq!(stats.sessions, 20);
    assert!(stats.commits > 0);
    assert_eq!(stats.ack.count(), stats.acked);

    // Recover every shard independently — each is a standard durable
    // store directory — and reassemble the fleet across them.
    let mut recovered_total = 0u64;
    for k in 0..shards {
        let shard_dir = Path::new(DIR).join(format!("shard-{k}"));
        let (store, report) = DurableStore::open_with(
            disk.clone(),
            &shard_dir,
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        assert!(report.clean(), "shard {k}: {report:?}");
        for mover in store.store().object_ids().collect::<Vec<_>>() {
            // Routing invariant: the mover is in the shard the hash says.
            assert_eq!(shard_of(mover, shards), k, "mover {mover} in wrong shard");
            let t = store.store().trajectory(mover).unwrap();
            assert_eq!(t.len() as u64, fixes_per_mover, "mover {mover}");
            for (i, f) in t.fixes().iter().enumerate() {
                assert_eq!(*f, fleet.fix_for(mover, i as u64), "mover {mover} fix {i}");
            }
            recovered_total += t.len() as u64;
        }
    }
    assert_eq!(recovered_total, 20 * fixes_per_mover, "no mover lost or duplicated");
}

/// Compressed sessions: fewer WAL records than submissions, and a clean
/// shutdown flushes every session tail so each mover's recovered
/// trajectory spans the full submitted time range.
#[test]
fn compressed_sessions_shrink_the_wal_and_flush_on_shutdown() {
    let disk = Arc::new(MemStorage::new());
    let cfg = ServeConfig {
        shards: 2,
        codec: CodecSpec::default_with(20.0),
        ..ServeConfig::default()
    };
    let service = Service::start_with(disk.clone(), Path::new(DIR), cfg).unwrap();
    let fleet = Fleet::new(FleetConfig { movers: 8, ..FleetConfig::default() });
    let n = 200u64;
    for k in 0..n {
        for mover in 0..fleet.movers() {
            service.submit(mover, fleet.fix_for(mover, k)).unwrap();
        }
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 8 * n);
    assert!(
        stats.emitted < stats.acked / 2,
        "op-cone should compress: {} emitted of {} acked",
        stats.emitted,
        stats.acked
    );
    for k in 0..2usize {
        let shard_dir = Path::new(DIR).join(format!("shard-{k}"));
        let (store, _) = DurableStore::open_with(
            disk.clone(),
            &shard_dir,
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        for mover in store.store().object_ids().collect::<Vec<_>>() {
            let t = store.store().trajectory(mover).unwrap();
            let first = fleet.fix_for(mover, 0);
            let last = fleet.fix_for(mover, n - 1);
            assert_eq!(t.fixes()[0].t, first.t, "mover {mover}: head kept");
            assert_eq!(
                t.fixes()[t.len() - 1].t,
                last.t,
                "mover {mover}: shutdown flushed the open tail"
            );
        }
    }
}

/// `max_batch: 1` is the per-fix baseline: it acks everything too,
/// with one fsync per fix.
#[test]
fn max_batch_one_acks_with_per_fix_commits() {
    let disk = Arc::new(MemStorage::new());
    let cfg = ServeConfig { group: GroupCommitOptions { max_batch: 1 }, ..raw_config(1) };
    let service = Service::start_with(disk, Path::new(DIR), cfg).unwrap();
    for k in 0..10u64 {
        service.submit(7, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty());
    assert_eq!(stats.acked, 10);
    assert_eq!(stats.commits, 10, "one fsync batch per fix");
}

/// The queue and batch bounds are limits, not allocations: at
/// `usize::MAX` the service still starts and acks.
#[test]
fn huge_bounds_allocate_by_use() {
    let disk = Arc::new(MemStorage::new());
    let cfg = ServeConfig {
        queue_cap: usize::MAX,
        group: GroupCommitOptions { max_batch: usize::MAX },
        ..raw_config(1)
    };
    let service = Service::start_with(disk, Path::new(DIR), cfg).unwrap();
    for k in 0..100u64 {
        service.submit(7, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 100);
}

/// A shard stopped by a storage failure closes its queue: a submitter
/// that waits out backpressure learns of the failure as `Closed`
/// instead of spinning, and shutdown reports the one error.
#[test]
fn failed_shard_closes_its_queue() {
    let disk = Arc::new(MemStorage::new());
    let cfg = ServeConfig { queue_cap: 16, ..raw_config(1) };
    let service = Service::start_with(disk.clone(), Path::new(DIR), cfg).unwrap();
    disk.arm_write_budget(200);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut k = 0u64;
    loop {
        match service.submit(7, fix_at(k)) {
            Ok(()) => k += 1,
            Err(SubmitError::Backpressure { .. }) => std::thread::yield_now(),
            Err(SubmitError::Closed) => break,
        }
        assert!(Instant::now() < deadline, "no Closed after {k} accepted fixes");
    }
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.errors.len(), 1, "{:?}", stats.errors);
    assert!(stats.acked < k, "the failed batch acked nothing");
}

fn fix_at(k: u64) -> traj_model::Fix {
    traj_model::Fix::from_parts(k as f64, k as f64, 0.0)
}

/// A gate that fsyncs wait on while it is shut.
#[derive(Default)]
struct Gate {
    shut: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn set_shut(&self, shut: bool) {
        *self.shut.lock().unwrap() = shut;
        self.opened.notify_all();
    }

    fn wait_open(&self) {
        let mut shut = self.shut.lock().unwrap();
        while *shut {
            shut = self.opened.wait(shut).unwrap();
        }
    }
}

/// [`MemStorage`] whose writers' `sync` blocks while the gate is shut:
/// a shard worker holding a batch stalls in its commit, for as long as
/// the test wants.
struct GatedStorage {
    inner: MemStorage,
    gate: Arc<Gate>,
}

struct GatedWriter {
    inner: Box<dyn StorageWriter>,
    gate: Arc<Gate>,
}

impl StorageWriter for GatedWriter {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.gate.wait_open();
        self.inner.sync()
    }
}

impl Storage for GatedStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageWriter>> {
        let inner = self.inner.create(path)?;
        Ok(Box::new(GatedWriter { inner, gate: self.gate.clone() }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
}

/// A full queue surfaces typed backpressure to the submitter. The
/// single shard's worker is stalled deterministically: with the fsync
/// gate shut, its first batch blocks in commit, so the 8-fix queue
/// must fill within a few submits. The gate opens only after the
/// backpressure is seen, and shutdown then drains and acks the queue.
#[test]
fn overload_surfaces_typed_backpressure() {
    let gate = Arc::new(Gate::default());
    let disk = Arc::new(GatedStorage { inner: MemStorage::new(), gate: gate.clone() });
    let cfg = ServeConfig { queue_cap: 8, ..raw_config(1) };
    let service = Service::start_with(disk, Path::new(DIR), cfg).unwrap();
    gate.set_shut(true);
    let mut saw_backpressure = false;
    for k in 0..5_000u64 {
        match service.submit(1, fix_at(k)) {
            Ok(()) => {}
            Err(SubmitError::Backpressure { shard, capacity }) => {
                assert_eq!(shard, 0);
                assert_eq!(capacity, 8);
                saw_backpressure = true;
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    gate.set_shut(false);
    assert!(saw_backpressure, "tiny queue never filled under a stalled worker");
    // Shutdown still drains and acks what was accepted.
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert!(stats.acked >= 8, "buffered fixes drain on shutdown: {}", stats.acked);
}

/// Two concurrent submitters that shed on backpressure: every offered
/// fix is acked or rejected, and every ack has its latency recorded.
#[test]
fn concurrent_submitters_reconcile_with_service_stats() {
    let disk = Arc::new(MemStorage::new());
    let service = Service::start_with(disk, Path::new(DIR), raw_config(2)).unwrap();
    let fleet = Fleet::new(FleetConfig { movers: 50, ..FleetConfig::default() });
    let fixes_per_mover = 20u64;
    let rejected: u64 = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2u64)
            .map(|thread| {
                let (service, fleet) = (&service, &fleet);
                scope.spawn(move || {
                    let mut rejected = 0u64;
                    for k in 0..fixes_per_mover {
                        for mover in (thread..fleet.movers()).step_by(2) {
                            match service.submit(mover, fleet.fix_for(mover, k)) {
                                Ok(()) => {}
                                Err(SubmitError::Backpressure { .. }) => rejected += 1,
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                    }
                    rejected
                })
            })
            .collect();
        submitters.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked + rejected, 50 * fixes_per_mover, "acked + rejected = offered");
    assert_eq!(stats.invalid, 0, "fleet fixes are always valid");
    assert_eq!(stats.ack.count(), stats.acked);
    assert!(stats.ack.quantile(0.99) > 0, "latencies were recorded");
}

/// Restarting a service over existing shard directories recovers them
/// (the report path) and keeps ingesting the same movers.
#[test]
fn restart_recovers_and_continues() {
    let disk = Arc::new(MemStorage::new());
    {
        let service =
            Service::start_with(disk.clone(), Path::new(DIR), raw_config(2)).unwrap();
        for k in 0..5u64 {
            service.submit(3, fix_at(k)).unwrap();
        }
        let stats = service.shutdown().unwrap();
        assert_eq!(stats.acked, 5);
    }
    let service = Service::start_with(disk.clone(), Path::new(DIR), raw_config(2)).unwrap();
    for k in 5..8u64 {
        service.submit(3, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.acked, 3);
    let shard = shard_of(3, 2);
    let (store, _) = DurableStore::open_with(
        disk,
        &Path::new(DIR).join(format!("shard-{shard}")),
        IngestMode::Raw,
        DurableOptions::default(),
    )
    .unwrap();
    assert_eq!(store.store().trajectory(3).unwrap().len(), 8, "both runs' fixes");
}

/// Under `raw`, a NaN fix or one not later than the mover's previous fix
/// is counted invalid and the shard keeps acking: the pass-through
/// session validates like every codec, so the store never sees it.
#[test]
fn raw_sessions_reject_invalid_fixes_and_keep_acking() {
    let disk = Arc::new(MemStorage::new());
    let service = Service::start_with(disk, Path::new(DIR), raw_config(1)).unwrap();
    service.submit(7, fix_at(10)).unwrap();
    service.submit(7, fix_at(5)).unwrap();
    service.submit(7, traj_model::Fix::from_parts(f64::NAN, 0.0, 0.0)).unwrap();
    for k in 11..32u64 {
        service.submit(7, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.invalid, 2);
    assert_eq!(stats.acked, 22, "the first fix and all 21 after the invalid ones");
    assert_eq!(stats.acked + stats.invalid, 24, "acked + rejected + invalid = offered");
}

/// After a restart a mover's fresh session knows nothing of its
/// recovered history, so a fix at or before the recovered latest is
/// invalid — not a store error that stops the shard.
#[test]
fn restart_rejects_fixes_older_than_recovered_history() {
    let disk = Arc::new(MemStorage::new());
    let cfg = || ServeConfig { shards: 1, ..ServeConfig::default() };
    {
        let service = Service::start_with(disk.clone(), Path::new(DIR), cfg()).unwrap();
        for k in 0..10u64 {
            service.submit(3, fix_at(k)).unwrap();
        }
        assert_eq!(service.shutdown().unwrap().acked, 10);
    }
    let service = Service::start_with(disk.clone(), Path::new(DIR), cfg()).unwrap();
    service.submit(3, fix_at(9)).unwrap();
    service.submit(3, fix_at(4)).unwrap();
    for k in 10..31u64 {
        service.submit(3, fix_at(k)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!(stats.invalid, 2);
    assert_eq!(stats.acked, 21);
    assert_eq!(stats.acked + stats.invalid, 23, "acked + rejected + invalid = offered");
    let (store, _) = DurableStore::open_with(
        disk,
        &Path::new(DIR).join("shard-0"),
        IngestMode::Raw,
        DurableOptions::default(),
    )
    .unwrap();
    let t = store.store().trajectory(3).unwrap();
    assert_eq!((t.fixes()[0].t, t.last().t), (fix_at(0).t, fix_at(30).t));
}

/// An op-cone session whose first velocity overflows (finite
/// coordinates 2e308 m apart) emits each fix once: the shard logs and
/// acks all five records, and no storage failure stops it.
#[test]
fn op_cone_sessions_with_an_overflowing_velocity_ack_every_fix() {
    let disk = Arc::new(MemStorage::new());
    let cfg =
        ServeConfig { shards: 1, codec: CodecSpec::default_with(5.0), ..ServeConfig::default() };
    let service = Service::start_with(disk.clone(), Path::new(DIR), cfg).unwrap();
    let records = [
        (1, 0.0, 0.0, 1e308),
        (1, 1.0, 0.0, -1e308),
        (1, 2.0, 0.0, 0.0),
        (2, 0.0, 0.0, 0.0),
        (2, 1.0, 1.0, 1.0),
    ];
    for (id, t, x, y) in records {
        service.submit(id, traj_model::Fix::from_parts(t, x, y)).unwrap();
    }
    let stats = service.shutdown().unwrap();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    assert_eq!((stats.acked, stats.invalid), (5, 0));
    assert_eq!(stats.emitted, 5, "three fixes of mover 1, two of mover 2");
    let (store, report) = DurableStore::open_with(
        disk,
        &Path::new(DIR).join("shard-0"),
        IngestMode::Raw,
        DurableOptions::default(),
    )
    .unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(store.store().stored_fixes(1).unwrap().len(), 3);
    assert_eq!(store.store().stored_fixes(2).unwrap().len(), 2);
}

/// A shard count the service cannot run is refused before any shard
/// store opens: no directory is created and no worker thread starts. A
/// count of `usize::MAX` used to reach `Vec::with_capacity` first.
#[test]
fn oversized_shard_count_is_refused_before_any_store_opens() {
    let disk = Arc::new(MemStorage::new());
    let err = Service::start_with(disk.clone(), Path::new(DIR), raw_config(usize::MAX))
        .expect_err("usize::MAX shards must be refused");
    assert!(err.contains("outside 1..=256"), "{err}");
    assert!(disk.file_paths().is_empty(), "no store opened");
    assert!(check_shards(0).is_err());
    assert!(check_shards(1).is_ok());
    assert!(check_shards(MAX_SHARDS).is_ok());
    assert!(check_shards(MAX_SHARDS + 1).is_err());
}
