//! Group recovery ≡ durable recovery, as a property.
//!
//! A shard directory is written through `GroupCommitStore` on
//! `MemStorage`: one write phase, or two around a checkpoint taken with
//! `DurableStore::snapshot`, optionally with the pre-checkpoint log put
//! back as a crash between publication and truncation leaves it. It is
//! then damaged: a WAL segment or the checkpoint is cut at a byte,
//! bit-flipped, or has byte soup appended (valid records, crafted records
//! with non-finite values, junk), with or without a stray `*.tmp` and a
//! snapshot file of the older `*.csv` format. Opening one copy with
//! `GroupCommitStore::open_with` must give what opening another with
//! `DurableStore::open_with` gives: the same `RecoveryReport` and the
//! same latest time for every id, or an error of the same `StoreError`
//! variant.

use std::mem::discriminant;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use traj_model::Fix;
use traj_store::storage::{crc32, MemStorage, Storage};
use traj_store::wal::{FIX_PAYLOAD_BYTES, KIND_APPEND_FIX, RECORD_HEADER_BYTES, SEGMENT_MAGIC};
use traj_store::{
    DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode, WalOptions,
};

/// The shard directory.
const DB: &str = "/db";
/// Movers written; one id more is checked, which none wrote.
const IDS: u64 = 4;

/// Small segments, so a phase of fixes spans several.
fn opts() -> DurableOptions {
    DurableOptions { wal: WalOptions { segment_max_bytes: 300 } }
}

/// One write phase: per fix a mover, a time step, a position, and
/// whether to commit after it.
fn phase() -> impl Strategy<Value = Vec<(u64, f64, f64, f64, bool)>> {
    proptest::collection::vec(
        (0u64..IDS, 0.5..30.0f64, -1e4..1e4f64, -1e4..1e4f64, proptest::bool::ANY),
        0..30,
    )
}

/// Writes one phase through a group store on `disk`, every mover's
/// clock running on from `clock`, and commits it all.
fn write_phase(disk: &Arc<MemStorage>, steps: &[(u64, f64, f64, f64, bool)], clock: &mut [f64]) {
    let (mut store, _) = GroupCommitStore::open_with(
        disk.clone(),
        Path::new(DB),
        IngestMode::Raw,
        opts(),
        GroupCommitOptions::default(),
    )
    .expect("open the group store");
    for &(id, dt, x, y, commit) in steps {
        clock[id as usize] += dt;
        store.buffer(id, Fix::from_parts(clock[id as usize], x, y)).expect("a later fix");
        if commit {
            store.commit().expect("commit");
        }
    }
    store.commit().expect("commit");
}

/// Times, coordinates and ids of the crafted records: finite, edge and
/// non-finite.
const T: &[f64] = &[f64::NAN, -1.0, 0.0, 5.0, 1e3, 1e6];
const XY: &[f64] = &[0.0, 5.0, -7.5, f64::NAN, f64::INFINITY];

/// A WAL record of `id` reporting `(t, x, y)`, framed and checksummed as
/// the writer frames it, whatever the values.
fn crafted_record(id: u64, t: f64, x: f64, y: f64) -> Vec<u8> {
    let mut payload = vec![KIND_APPEND_FIX];
    for bytes in [id.to_le_bytes(), t.to_le_bytes(), x.to_le_bytes(), y.to_le_bytes()] {
        payload.extend_from_slice(&bytes);
    }
    let mut out = (FIX_PAYLOAD_BYTES as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Byte soup from `chunks` over `valid`, a segment of real records.
fn soup(chunks: &[(u8, u8, usize)], valid: &[u8]) -> Vec<u8> {
    let record = RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES;
    let records = (valid.len().saturating_sub(SEGMENT_MAGIC.len())) / record;
    let mut bytes = Vec::new();
    for &(kind, byte, len) in chunks {
        let at = SEGMENT_MAGIC.len() + usize::from(byte) % records.max(1) * record;
        match kind {
            0 if records > 0 => bytes.extend_from_slice(&valid[at..at + record]),
            1 if records > 0 => bytes.extend_from_slice(&valid[at..at + len.min(record)]),
            2 => {
                let b = usize::from(byte);
                let id = (b % (IDS as usize + 1)) as u64;
                let (t, x) = (T[b % T.len()], XY[(b / 7) % XY.len()]);
                bytes.extend(crafted_record(id, t, x, XY[len % XY.len()]));
            }
            3 => bytes.extend_from_slice(SEGMENT_MAGIC),
            _ => bytes.extend((0..len).map(|i| byte.wrapping_add((i * 37) as u8))),
        }
    }
    bytes
}

/// Replaces the file at `path` on `disk` with `bytes`, synced.
fn put(disk: &MemStorage, path: &Path, bytes: &[u8]) {
    if let Some(parent) = path.parent() {
        disk.create_dir_all(parent).expect("mkdir");
    }
    let mut w = disk.create(path).expect("create");
    w.write_all(bytes).expect("write");
    w.sync().expect("sync");
}

/// A fresh storage holding a copy of every file of `from`.
fn copy(from: &MemStorage) -> Arc<MemStorage> {
    let to = MemStorage::new();
    for path in from.file_paths() {
        put(&to, &path, &from.file(&path).expect("listed file"));
    }
    Arc::new(to)
}

/// The WAL segments on `disk`, with their bytes.
fn wal_files(disk: &MemStorage) -> Vec<(PathBuf, Vec<u8>)> {
    let wal = Path::new(DB).join(DurableStore::WAL_DIR);
    disk.file_paths()
        .into_iter()
        .filter(|p| p.parent() == Some(wal.as_path()))
        .map(|p| {
            let bytes = disk.file(&p).expect("listed file");
            (p, bytes)
        })
        .collect()
}

proptest! {
    /// Both stores recover a damaged shard directory alike: the same
    /// report and the same latest time per id, or the same error variant.
    #[test]
    fn group_recovery_matches_durable_recovery(
        first in phase(),
        second in phase(),
        checkpoint in proptest::bool::ANY,
        put_back_log in proptest::bool::ANY,
        damage in (0u8..4, any::<prop::sample::Index>(), any::<prop::sample::Index>(), 1u8..=255),
        chunks in proptest::collection::vec((0u8..5, 0u8..=255, 0usize..41), 0..8),
        stray_tmp in proptest::bool::ANY,
        old_csv in 0u8..8,
        compressed in proptest::bool::ANY,
    ) {
        let disk = Arc::new(MemStorage::new());
        let mut clock = [0.0; IDS as usize];
        write_phase(&disk, &first, &mut clock);
        if checkpoint {
            let log = wal_files(&disk);
            let (mut db, _) =
                DurableStore::open_with(disk.clone(), Path::new(DB), IngestMode::Raw, opts())
                    .expect("open the durable store");
            db.snapshot().expect("snapshot");
            drop(db);
            if put_back_log {
                for (path, bytes) in &log {
                    put(&disk, path, bytes);
                }
            }
            write_phase(&disk, &second, &mut clock);
        }

        // Damage one file: a WAL segment or the checkpoint.
        let (kind, which, at, mask) = damage;
        let files = disk.file_paths();
        let valid = wal_files(&disk).into_iter().next().map(|(_, b)| b).unwrap_or_default();
        if kind > 0 && !files.is_empty() {
            let path = &files[which.index(files.len())];
            let mut bytes = disk.file(path).expect("listed file");
            let len = bytes.len();
            match kind {
                1 => bytes.truncate(at.index(len + 1)),
                2 if len > 0 => bytes[at.index(len)] ^= mask,
                _ => bytes.extend(soup(&chunks, &valid)),
            }
            put(&disk, path, &bytes);
        }
        let snap = Path::new(DB).join(DurableStore::SNAPSHOT_DIR);
        if stray_tmp {
            put(&disk, &snap.join("checkpoint.tmp"), b"TRAJWAL1 torn");
        }
        if old_csv == 0 {
            put(&disk, &snap.join("3.csv"), b"t,x,y\n0,0,0\n");
        }

        let group = GroupCommitStore::open_with(
            copy(&disk),
            Path::new(DB),
            IngestMode::Raw,
            opts(),
            GroupCommitOptions::default(),
        );
        let mode = if compressed {
            IngestMode::Compressed { epsilon: 20.0, speed_epsilon: None, max_window: 8 }
        } else {
            IngestMode::Raw
        };
        let durable = DurableStore::open_with(copy(&disk), Path::new(DB), mode, opts());
        match (group, durable) {
            (Ok((g, group_report)), Ok((d, durable_report))) => {
                prop_assert_eq!(group_report, durable_report);
                for id in 0..=IDS {
                    prop_assert_eq!(g.latest(id), d.store().latest(id).map(|f| f.t), "id {}", id);
                }
            }
            (Err(g), Err(d)) => {
                prop_assert!(discriminant(&g) == discriminant(&d), "group: {g}; durable: {d}");
            }
            (g, d) => prop_assert!(
                false,
                "group {:?}, durable {:?}",
                g.map(|(_, r)| r),
                d.map(|(_, r)| r)
            ),
        }
    }
}
