//! Durable ingest: WAL-before-acknowledge, atomic snapshots, recovery.
//!
//! [`DurableStore`] wraps [`MovingObjectStore`] with the durability
//! contract the paper's fleet scenario (§1) needs: a reported fix that
//! has been acknowledged survives a crash. The moving parts:
//!
//! * every accepted fix is appended to the [write-ahead log](crate::wal)
//!   *before* `append` returns;
//! * [`DurableStore::snapshot`] persists the in-memory state with the
//!   atomic, checksummed writer of [`crate::persist`] and then truncates
//!   the WAL — the snapshot plus the (now empty) log always cover every
//!   acknowledged fix;
//! * [`DurableStore::open`] recovers: load the latest snapshot, replay
//!   the WAL tail over it, skip records the snapshot already covers
//!   (timestamps are strictly monotone per object, so coverage is a
//!   simple time comparison), and report torn/corrupt records instead
//!   of tripping over them.
//!
//! Why replay can double-see records: the snapshot commit point is the
//! per-file rename, but WAL truncation happens *after* all renames — a
//! crash between the two leaves a complete snapshot *and* a full log.
//! Replay dedup by timestamp makes that window harmless. The full
//! failure model is spelled out in `crates/store/README.md`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use traj_model::Fix;

use crate::persist;
use crate::storage::{FsStorage, Storage};
use crate::store::{IngestMode, MovingObjectStore, ObjectId, StoreError};
use crate::wal::{replay_dir, Wal, WalOptions};

/// Configuration of a [`DurableStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// Write-ahead log tuning (segment size, fsync batching).
    pub wal: WalOptions,
}

/// What [`DurableStore::open`] found and did while recovering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Objects restored from the snapshot directory.
    pub snapshot_objects: usize,
    /// Fixes restored from the snapshot directory.
    pub snapshot_fixes: usize,
    /// WAL segment files scanned.
    pub wal_segments: usize,
    /// WAL records replayed into the store.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already covered them.
    pub skipped_covered: usize,
    /// WAL records skipped as corrupt (checksum mismatch or undecodable).
    pub skipped_corrupt: usize,
    /// Whether the log ended in a torn (incomplete) record — the
    /// signature of a crash mid-append; never data loss, the torn record
    /// was by definition never acknowledged.
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// Whether recovery saw any evidence of a crash or corruption.
    pub fn clean(&self) -> bool {
        self.skipped_corrupt == 0 && !self.torn_tail
    }
}

/// A [`MovingObjectStore`] with a durable ingest path.
///
/// On-disk layout under the store directory: `snapshot/<id>.csv`
/// (atomic, checksummed, written by [`DurableStore::snapshot`]) and
/// `wal/wal-<seq>.log` (the append log). See `crates/store/README.md`
/// for the byte-level formats.
///
/// ```
/// use std::sync::Arc;
/// use traj_model::Fix;
/// use traj_store::storage::MemStorage;
/// use traj_store::{DurableOptions, DurableStore, IngestMode};
///
/// let disk = Arc::new(MemStorage::new());
/// let open = |disk: &Arc<MemStorage>| {
///     DurableStore::open_with(
///         disk.clone(),
///         "/fleet".as_ref(),
///         IngestMode::Raw,
///         DurableOptions::default(),
///     )
/// };
///
/// let (mut store, _) = open(&disk).unwrap();
/// store.append(7, Fix::from_parts(0.0, 0.0, 0.0)).unwrap();
/// store.append(7, Fix::from_parts(10.0, 120.0, 0.0)).unwrap();
/// drop(store); // crash: no snapshot was ever written
///
/// let (store, report) = open(&disk).unwrap();
/// assert_eq!(report.replayed, 2); // both acknowledged fixes came back
/// assert_eq!(store.store().trajectory(7).unwrap().len(), 2);
/// ```
pub struct DurableStore {
    store: MovingObjectStore,
    wal: Wal,
    storage: Arc<dyn Storage>,
    dir: PathBuf,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Storage { path: path.to_path_buf(), source }
}

impl DurableStore {
    /// Snapshot subdirectory name under the store directory.
    pub const SNAPSHOT_DIR: &'static str = "snapshot";
    /// WAL subdirectory name under the store directory.
    pub const WAL_DIR: &'static str = "wal";

    /// Opens (and recovers) a durable store at `dir` on the real
    /// filesystem, creating the directory tree on first use.
    ///
    /// # Errors
    /// Backend I/O failures and snapshot corruption
    /// ([`StoreError::Corrupt`] — snapshot files, unlike WAL records,
    /// have no younger redundant copy, so rot there is surfaced loudly
    /// rather than skipped).
    pub fn open(
        dir: &Path,
        mode: IngestMode,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        DurableStore::open_with(Arc::new(FsStorage), dir, mode, opts)
    }

    /// [`DurableStore::open`] over an injectable [`Storage`] backend.
    ///
    /// # Errors
    /// Like [`DurableStore::open`].
    pub fn open_with(
        storage: Arc<dyn Storage>,
        dir: &Path,
        mode: IngestMode,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let _span = traj_obs::trace_span!("store.recover");
        let snap_dir = dir.join(Self::SNAPSHOT_DIR);
        let wal_dir = dir.join(Self::WAL_DIR);
        storage.create_dir_all(&snap_dir).map_err(|e| io_err(&snap_dir, e))?;

        let mut report = RecoveryReport::default();

        // 1. Sweep temp files an interrupted snapshot left behind; their
        //    contents were never published.
        for path in storage.list(&snap_dir).map_err(|e| io_err(&snap_dir, e))? {
            if path.extension().is_some_and(|e| e == "tmp") {
                storage.remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }

        // 2. Load the snapshot: verified, installed without
        //    re-compression, then rebased onto the configured mode.
        let loaded = persist::load_dir_with(storage.as_ref(), &snap_dir)?;
        let mut store = MovingObjectStore::new(mode);
        for id in loaded.object_ids().collect::<Vec<_>>() {
            let Some(fixes) = loaded.stored_fixes(id) else { continue };
            report.snapshot_objects += 1;
            report.snapshot_fixes += fixes.len();
            store.restore_trajectory(id, fixes)?;
        }

        // 3. Replay the WAL tail. Records at or before an object's
        //    restored end are already covered by the snapshot.
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir)?;
        report.wal_segments = summary.segments;
        report.skipped_corrupt = summary.corrupt_skipped;
        report.torn_tail = summary.torn_tail;
        for rec in records {
            let covered = store.latest(rec.id).is_some_and(|l| l.t >= rec.fix.t);
            if covered {
                report.skipped_covered += 1;
            } else {
                store.append(rec.id, rec.fix)?;
                report.replayed += 1;
            }
        }
        traj_obs::counter!("store", "recovery_replayed").add(report.replayed as u64);
        traj_obs::counter!("store", "recovery_skipped")
            .add((report.skipped_covered + report.skipped_corrupt) as u64);

        // 4. Open the log for appending (always a fresh segment, so a
        //    torn tail can never sit in front of new records).
        let wal = Wal::open(storage.clone(), &wal_dir, opts.wal)?;
        Ok((DurableStore { store, wal, storage, dir: dir.to_path_buf() }, report))
    }

    /// The store directory this instance persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read access to the in-memory store (queries, stats, indexes).
    pub fn store(&self) -> &MovingObjectStore {
        &self.store
    }

    /// Appends a reported fix durably: validated, logged (durable per
    /// the configured [`crate::wal::SyncPolicy`]), then applied to the
    /// in-memory store. When this returns `Ok`, the fix is acknowledged:
    /// it will survive a crash.
    ///
    /// # Errors
    /// Rejects invalid fixes like [`MovingObjectStore::append`]
    /// (nothing is logged for them) and propagates WAL write failures
    /// (the fix is then neither durable nor applied).
    pub fn append(&mut self, id: ObjectId, fix: Fix) -> Result<(), StoreError> {
        // Validate first: the WAL must only ever hold accepted fixes.
        if !fix.is_finite() {
            return Err(StoreError::Model(traj_model::ModelError::NonFinite { index: 0 }));
        }
        if let Some(last) = self.store.latest(id) {
            if last.t >= fix.t {
                return Err(StoreError::Model(traj_model::ModelError::NonMonotonicTime {
                    index: 0,
                }));
            }
        }
        self.wal.append(id, &fix)?;
        self.store.append(id, fix)
    }

    /// Forces all logged fixes down to durable storage — the batch
    /// commit point under [`crate::wal::SyncPolicy::EveryN`] or
    /// [`crate::wal::SyncPolicy::Manual`].
    ///
    /// # Errors
    /// Propagates the backend's sync failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Persists the current state as an atomic, checksummed snapshot and
    /// truncates the WAL. Returns the number of object files written.
    ///
    /// Crash safety: each object file is published by rename; the WAL is
    /// deleted only after every file (and the directory entry) is
    /// durable. A crash anywhere in between leaves snapshot + log
    /// together covering every acknowledged fix, which recovery
    /// reconciles by timestamp.
    ///
    /// # Errors
    /// Backend I/O failures; the WAL is left untouched unless every
    /// snapshot file made it to disk.
    pub fn snapshot(&mut self) -> Result<usize, StoreError> {
        let _span = traj_obs::trace_span!("store.snapshot");
        let snap_dir = self.dir.join(Self::SNAPSHOT_DIR);
        let written = persist::save_dir_with(self.storage.as_ref(), &self.store, &snap_dir)?;
        self.wal.truncate()?;
        Ok(written)
    }

    /// Offline compaction of the committed history (see
    /// [`MovingObjectStore::compact`]); call [`DurableStore::snapshot`]
    /// afterwards to persist the smaller state. Until then the disk
    /// still holds the uncompacted (superset) data — conservative, never
    /// lossy.
    pub fn compact<C: traj_compress::Compressor + ?Sized>(&mut self, compressor: &C) -> usize {
        self.store.compact(compressor)
    }

    /// Consumes the handle, returning the in-memory store.
    pub fn into_store(self) -> MovingObjectStore {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::wal::SyncPolicy;

    fn open_mem(
        disk: &Arc<MemStorage>,
        mode: IngestMode,
    ) -> (DurableStore, RecoveryReport) {
        DurableStore::open_with(disk.clone(), Path::new("/db"), mode, DurableOptions::default())
            .unwrap()
    }

    fn fix(t: f64) -> Fix {
        Fix::from_parts(t, t * 7.0, (t * 0.1).sin() * 100.0)
    }

    #[test]
    fn wal_only_recovery_restores_everything() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report, RecoveryReport::default());
        for i in 0..30 {
            s.append(1, fix(i as f64)).unwrap();
            s.append(2, fix(i as f64 + 0.5)).unwrap();
        }
        drop(s); // crash before any snapshot

        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.replayed, 60);
        assert_eq!(report.snapshot_objects, 0);
        assert!(report.clean());
        assert_eq!(s.store().trajectory(1).unwrap().len(), 30);
        assert_eq!(s.store().trajectory(2).unwrap().len(), 30);
    }

    #[test]
    fn snapshot_truncates_wal_and_roundtrips() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        for i in 0..20 {
            s.append(9, fix(i as f64)).unwrap();
        }
        assert_eq!(s.snapshot().unwrap(), 1);
        // Post-snapshot appends land in the WAL only.
        for i in 20..25 {
            s.append(9, fix(i as f64)).unwrap();
        }
        drop(s);

        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.snapshot_objects, 1);
        assert_eq!(report.snapshot_fixes, 20);
        assert_eq!(report.replayed, 5);
        assert_eq!(report.skipped_covered, 0);
        assert_eq!(s.store().trajectory(9).unwrap().len(), 25);
    }

    #[test]
    fn replay_skips_records_the_snapshot_covers() {
        // Simulate the crash window between snapshot publication and
        // WAL truncation: write the snapshot, then put the log back.
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        for i in 0..10 {
            s.append(4, fix(i as f64)).unwrap();
        }
        // Keep a copy of the WAL segment, snapshot, then restore the log
        // as if truncation never happened.
        let wal_files: Vec<_> = disk
            .file_paths()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("wal-"))
            .map(|p| (p.clone(), disk.file(&p).unwrap()))
            .collect();
        assert!(!wal_files.is_empty());
        s.snapshot().unwrap();
        drop(s);
        for (path, bytes) in wal_files {
            let mut w = disk.create(&path).unwrap();
            w.write_all(&bytes).unwrap();
        }

        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.skipped_covered, 10, "all log records were in the snapshot");
        assert_eq!(report.replayed, 0);
        assert_eq!(s.store().trajectory(4).unwrap().len(), 10);
    }

    #[test]
    fn compressed_mode_recovers_within_budget_and_keeps_compressing() {
        let mode = IngestMode::Compressed { epsilon: 40.0, speed_epsilon: None, max_window: 32 };
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, mode);
        for i in 0..100 {
            s.append(1, fix(i as f64 * 10.0)).unwrap();
        }
        let stored_before = s.store().stats().stored_points;
        assert!(stored_before < 100, "ingest compresses");
        s.snapshot().unwrap();
        for i in 100..140 {
            s.append(1, fix(i as f64 * 10.0)).unwrap();
        }
        drop(s);

        let (s, report) = open_mem(&disk, mode);
        assert_eq!(report.replayed, 40);
        // The recovered store spans the full acknowledged time range.
        let t = s.store().trajectory(1).unwrap();
        assert_eq!(t.end_time().as_secs(), 139.0 * 10.0);
        // And the snapshot part was not re-compressed on load (its
        // stored prefix is intact).
        assert!(s.store().stats().stored_points >= stored_before);
    }

    #[test]
    fn manual_sync_policy_appends_then_syncs() {
        let disk = Arc::new(MemStorage::new());
        let opts = DurableOptions {
            wal: WalOptions { sync: SyncPolicy::Manual, ..WalOptions::default() },
        };
        let (mut s, _) =
            DurableStore::open_with(disk.clone(), Path::new("/db"), IngestMode::Raw, opts)
                .unwrap();
        for i in 0..5 {
            s.append(1, fix(i as f64)).unwrap();
        }
        s.sync().unwrap();
        drop(s);
        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.replayed, 5);
        assert_eq!(s.store().len(), 1);
    }

    #[test]
    fn rejected_fixes_never_reach_the_wal() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        s.append(1, fix(10.0)).unwrap();
        assert!(s.append(1, fix(5.0)).is_err(), "stale fix rejected");
        assert!(s.append(1, Fix::from_parts(f64::NAN, 0.0, 0.0)).is_err());
        drop(s);
        let (_, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.replayed, 1, "only the accepted fix was logged");
    }

    #[test]
    fn corrupt_snapshot_fails_loudly() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        for i in 0..5 {
            s.append(3, fix(i as f64)).unwrap();
        }
        s.snapshot().unwrap();
        drop(s);
        let snap = Path::new("/db/snapshot/3.csv");
        let n = disk.file(snap).unwrap().len();
        assert!(disk.corrupt_byte(snap, n / 2, 0x08));
        let err = DurableStore::open_with(
            disk.clone(),
            Path::new("/db"),
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }
}
