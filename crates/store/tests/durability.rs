//! Fault-injection suite for the durable ingest path.
//!
//! The central test sweeps a *crash at every byte offset* of the entire
//! on-disk write stream — WAL appends, segment headers, the checkpoint
//! temp file and its seal — and asserts the durability contract after
//! each: recovery restores exactly the acknowledged fixes, in order,
//! with no loss, no invention and no panic. Companion tests cover
//! at-rest bit rot and short reads (lost tails).
//!
//! Run with `cargo test -p traj-store --test durability`.

use std::path::Path;
use std::sync::Arc;

use traj_model::Fix;
use traj_store::storage::{MemStorage, Storage as _};
use traj_store::store::StoreError;
use traj_store::wal::WalOptions;
use traj_store::{DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode};

const DB: &str = "/db";

fn opts() -> DurableOptions {
    DurableOptions {
        // Small segments so the sweep also crosses rotation boundaries.
        wal: WalOptions { segment_max_bytes: 512 },
    }
}

/// The workload: three objects, interleaved appends, a mid-run snapshot
/// (so the sweep hits snapshot writes too), then more appends. Returns
/// the fixes that were *acknowledged* (append returned `Ok`) before the
/// injected crash — the set recovery must reproduce exactly.
fn run_workload(disk: &Arc<MemStorage>) -> Vec<(u64, Fix)> {
    let mut acked = Vec::new();
    let Ok((mut store, _)) =
        DurableStore::open_with(disk.clone(), Path::new(DB), IngestMode::Raw, opts())
    else {
        return acked; // crashed during open/recovery: nothing acknowledged
    };
    let fix = |i: usize, id: u64| {
        Fix::from_parts(i as f64 * 10.0, i as f64 * 35.0 + id as f64, (id * 100) as f64)
    };
    for i in 0..12 {
        for id in [1u64, 2, 3] {
            match store.append(id, fix(i, id)) {
                Ok(()) => acked.push((id, fix(i, id))),
                Err(_) => return acked, // crash: every later op fails too
            }
        }
        if i == 7 && store.snapshot().is_err() {
            return acked; // crash mid-snapshot loses no acknowledged fix
        }
    }
    acked
}

/// Reads back what a post-restart recovery sees, as (id, fix) pairs in
/// per-object order.
fn recover(disk: &Arc<MemStorage>) -> Vec<(u64, Fix)> {
    disk.lift_faults();
    let (store, report) =
        DurableStore::open_with(disk.clone(), Path::new(DB), IngestMode::Raw, opts())
            .expect("recovery after a clean tear must succeed");
    // A crash can only ever tear the *unacknowledged* tail.
    assert!(
        report.skipped_corrupt == 0,
        "crash tearing must never look like bit rot: {report:?}"
    );
    let mut out = Vec::new();
    for id in store.store().object_ids().collect::<Vec<_>>() {
        for f in store.store().stored_fixes(id).unwrap() {
            out.push((id, f));
        }
    }
    out
}

fn sort_key(v: &mut [(u64, Fix)]) {
    v.sort_by(|a, b| (a.0, a.1.t.as_secs()).partial_cmp(&(b.0, b.1.t.as_secs())).unwrap());
}

/// The acceptance criterion: after a crash at ANY byte boundary of the
/// write stream, recovery restores exactly the acknowledged-fix set.
#[test]
fn crash_at_every_byte_offset_preserves_acknowledged_prefix() {
    // Size the sweep with a fault-free run.
    let full_disk = Arc::new(MemStorage::new());
    let full_acked = run_workload(&full_disk);
    let total_bytes = full_disk.written_bytes();
    assert!(total_bytes > 1_500, "workload too small to be interesting: {total_bytes}");
    assert_eq!(full_acked.len(), 36);

    for budget in 0..=total_bytes {
        let disk = Arc::new(MemStorage::with_write_budget(budget));
        let mut acked = run_workload(&disk);
        let mut recovered = recover(&disk);
        sort_key(&mut acked);
        sort_key(&mut recovered);
        assert_eq!(
            recovered, acked,
            "crash after {budget} of {total_bytes} bytes: recovered set != acknowledged set"
        );
    }
}

/// Group-commit workload: three sessions' fixes interleave into one
/// shard store, committing every `max_batch` buffers. A fix counts as
/// *acknowledged* only once a `commit` whose returned sequence covers
/// it succeeds — the ack-after-fsync protocol. Returns that set.
fn run_group_workload(disk: &Arc<MemStorage>, opts: DurableOptions) -> Vec<(u64, Fix)> {
    let mut acked = Vec::new();
    let mut pending = Vec::new();
    let group = GroupCommitOptions { max_batch: 4 };
    let Ok((mut store, _)) =
        GroupCommitStore::open_with(disk.clone(), Path::new(DB), IngestMode::Raw, opts, group)
    else {
        return acked;
    };
    let fix = |i: usize, id: u64| {
        Fix::from_parts(i as f64 * 10.0, i as f64 * 35.0 + id as f64, (id * 100) as f64)
    };
    for i in 0..10 {
        for id in [1u64, 2, 3] {
            match store.buffer(id, fix(i, id)) {
                Ok(seq) => pending.push((seq, (id, fix(i, id)))),
                Err(_) => return acked, // crash: poisoned, nothing more acks
            }
            if store.pending() >= group.max_batch as u64 {
                match store.commit() {
                    // The fsync returned: everything at or below the
                    // durable sequence is now acknowledged.
                    Ok(durable) => {
                        acked.extend(
                            pending.iter().filter(|(s, _)| *s <= durable).map(|(_, f)| *f),
                        );
                        pending.retain(|(s, _)| *s > durable);
                    }
                    Err(_) => return acked,
                }
            }
        }
    }
    if let Ok(durable) = store.commit() {
        acked.extend(pending.iter().filter(|(s, _)| *s <= durable).map(|(_, f)| *f));
    }
    acked
}

/// The group-commit acceptance criterion: crash at ANY byte offset of a
/// batched write stream, then lose the page cache (power loss) — and
/// recovery restores *exactly* the acknowledged (fsynced) prefix, never
/// an unacknowledged suffix. With segments large enough that rotation
/// never fsyncs behind the protocol's back, the commit fsync is the
/// only durability event, so equality is exact in both directions.
#[test]
fn group_commit_crash_at_every_byte_offset_restores_exactly_the_acked_prefix() {
    let opts = DurableOptions {
        wal: WalOptions { segment_max_bytes: 1 << 20 },
    };
    // Size the sweep with a fault-free run.
    let full_disk = Arc::new(MemStorage::new());
    let full_acked = run_group_workload(&full_disk, opts);
    let total_bytes = full_disk.written_bytes();
    assert_eq!(full_acked.len(), 30, "fault-free run acks everything");

    for budget in 0..=total_bytes {
        let disk = Arc::new(MemStorage::with_write_budget(budget));
        let mut acked = run_group_workload(&disk, opts);
        // Power loss: unsynced page-cache bytes are gone, then restart.
        disk.drop_unsynced();
        let mut recovered = recover(&disk);
        sort_key(&mut acked);
        sort_key(&mut recovered);
        assert_eq!(
            recovered, acked,
            "crash after {budget} of {total_bytes} bytes: recovery must restore exactly \
             the fsync-covered acknowledged prefix"
        );
    }
}

/// With small segments, rotation adds fsyncs the commit protocol does
/// not see, so unacknowledged-but-synced records may legitimately
/// survive. The invariant that must still hold everywhere: no
/// acknowledged fix is ever lost, and nothing is invented — recovery is
/// a per-object prefix of the buffered stream at least as long as the
/// acknowledged one.
#[test]
fn group_commit_crash_sweep_with_rotation_never_loses_acked_fixes() {
    let opts = DurableOptions {
        wal: WalOptions { segment_max_bytes: 256 },
    };
    let full_disk = Arc::new(MemStorage::new());
    // The fault-free run acks every fix the workload ever buffers, so
    // it doubles as the universe recovery may draw from.
    let universe = run_group_workload(&full_disk, opts);
    for budget in (0..=full_disk.written_bytes()).step_by(3) {
        let disk = Arc::new(MemStorage::with_write_budget(budget));
        let mut acked = run_group_workload(&disk, opts);
        disk.drop_unsynced();
        let mut recovered = recover(&disk);
        sort_key(&mut acked);
        sort_key(&mut recovered);
        for f in &acked {
            assert!(
                recovered.contains(f),
                "budget {budget}: acknowledged fix {f:?} lost after power loss"
            );
        }
        // Everything recovered was genuinely buffered by the workload.
        for pair in &recovered {
            assert!(universe.contains(pair), "budget {budget}: invented fix {pair:?}");
        }
    }
}

/// Bit rot anywhere in the WAL: recovery must never panic, never invent
/// fixes, and must report the rot it skipped. (Rot in a *snapshot* is a
/// loud `Corrupt` error instead — covered in the unit tests.)
#[test]
fn bit_flips_across_the_wal_are_detected_or_tolerated() {
    let disk = Arc::new(MemStorage::new());
    let acked = {
        let (mut store, _) =
            DurableStore::open_with(disk.clone(), Path::new(DB), IngestMode::Raw, opts())
                .unwrap();
        let mut acked = Vec::new();
        for i in 0..40 {
            let f = Fix::from_parts(i as f64 * 5.0, i as f64 * 11.0, -(i as f64));
            store.append(6, f).unwrap();
            acked.push(f);
        }
        acked
    };
    let wal_files: Vec<_> = disk
        .file_paths()
        .into_iter()
        .filter(|p| p.to_string_lossy().contains("wal-"))
        .collect();
    assert!(!wal_files.is_empty());
    for path in wal_files {
        let pristine = disk.file(&path).unwrap();
        for offset in (0..pristine.len()).step_by(3) {
            assert!(disk.corrupt_byte(&path, offset, 1 << (offset % 8)));
            match DurableStore::open_with(
                disk.clone(),
                Path::new(DB),
                IngestMode::Raw,
                opts(),
            ) {
                Ok((store, report)) => {
                    let recovered = store.store().stored_fixes(6).unwrap_or_default();
                    for f in &recovered {
                        assert!(
                            acked.contains(f),
                            "flip at {offset}: invented fix {f:?} from corrupt data"
                        );
                    }
                    assert!(
                        recovered.len() == acked.len() || !report.clean(),
                        "flip at {offset}: fixes went missing without being reported"
                    );
                }
                // Some flips (e.g. in a timestamp, breaking per-object
                // monotonicity while keeping the CRC... impossible — or
                // a replay-order violation) surface as errors; erroring
                // loudly is acceptable, silent loss is not.
                Err(StoreError::Storage { .. }) | Err(StoreError::Model(_)) => {}
                Err(e) => panic!("flip at {offset}: unexpected error class {e}"),
            }
            // Restore the pristine byte for the next iteration.
            let mut w = disk.create(&path).unwrap();
            w.write_all(&pristine).unwrap();
        }
    }
}

/// A lost tail (filesystem truncation after power loss) behaves like a
/// torn write: the surviving prefix of acknowledged fixes is recovered.
#[test]
fn short_read_of_final_segment_recovers_prefix() {
    let disk = Arc::new(MemStorage::new());
    let (mut store, _) =
        DurableStore::open_with(disk.clone(), Path::new(DB), IngestMode::Raw, opts()).unwrap();
    for i in 0..10 {
        store.append(2, Fix::from_parts(i as f64, i as f64, 0.0)).unwrap();
    }
    drop(store);
    let seg = disk
        .file_paths()
        .into_iter()
        .find(|p| p.to_string_lossy().contains("wal-"))
        .unwrap();
    let len = disk.file(&seg).unwrap().len();
    for keep in (8..len).step_by(5) {
        let disk2 = Arc::new(MemStorage::new());
        disk2.create_dir_all(Path::new("/db/wal")).unwrap();
        disk2.create_dir_all(Path::new("/db/snapshot")).unwrap();
        {
            let mut w = disk2.create(&seg).unwrap();
            w.write_all(&disk.file(&seg).unwrap()[..keep]).unwrap();
        }
        let (store, report) =
            DurableStore::open_with(disk2.clone(), Path::new(DB), IngestMode::Raw, opts())
                .unwrap();
        let recovered = store.store().stored_fixes(2).unwrap_or_default();
        // Each record is an 8-byte header plus a 33-byte fix payload,
        // after the 8-byte segment magic: the surviving record count is
        // exactly the number of whole records kept.
        let record = traj_store::wal::RECORD_HEADER_BYTES + traj_store::wal::FIX_PAYLOAD_BYTES;
        let whole = (keep - 8) / record;
        assert_eq!(recovered.len(), whole, "keep={keep}");
        for (i, f) in recovered.iter().enumerate() {
            assert_eq!(f.t.as_secs(), i as f64, "keep={keep}: prefix order broken");
        }
        assert_eq!(report.torn_tail, (keep - 8) % record != 0, "keep={keep}");
    }
}

/// Durability composes with compressed ingest: after a crash at sampled
/// offsets, every acknowledged fix is represented by the recovered
/// trajectory within the error budget.
#[test]
fn compressed_mode_crash_sweep_stays_within_error_budget() {
    let eps = 30.0;
    let mode = IngestMode::Compressed { epsilon: eps, speed_epsilon: None, max_window: 16 };
    let workload = |disk: &Arc<MemStorage>| -> Vec<Fix> {
        let mut acked = Vec::new();
        let Ok((mut store, _)) =
            DurableStore::open_with(disk.clone(), Path::new(DB), mode, opts())
        else {
            return acked;
        };
        for i in 0..60 {
            let t = i as f64 * 10.0;
            let f = Fix::from_parts(t, t * 4.0, (i as f64 * 0.7).sin() * 120.0);
            match store.append(9, f) {
                Ok(()) => acked.push(f),
                Err(_) => return acked,
            }
            if i == 30 && store.snapshot().is_err() {
                return acked;
            }
        }
        acked
    };
    let full = Arc::new(MemStorage::new());
    let _ = workload(&full);
    for budget in (0..=full.written_bytes()).step_by(13) {
        let disk = Arc::new(MemStorage::with_write_budget(budget));
        let acked = workload(&disk);
        disk.lift_faults();
        let (store, _) =
            DurableStore::open_with(disk.clone(), Path::new(DB), mode, opts()).unwrap();
        if acked.is_empty() {
            continue;
        }
        let recovered = store.store().trajectory(9).expect("object recovered");
        for f in &acked {
            let p = traj_model::interp::position_at(&recovered, f.t)
                .expect("acknowledged instant covered");
            let d = p.distance(f.pos);
            assert!(
                d <= eps + 1e-6,
                "budget {budget}: fix at t={} off by {d} m (> {eps})",
                f.t.as_secs()
            );
        }
    }
}
