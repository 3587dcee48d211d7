//! Durable ingest: WAL-before-acknowledge, atomic checkpoints, recovery.
//!
//! [`DurableStore`] wraps [`MovingObjectStore`] with the durability
//! contract the paper's fleet scenario (§1) needs: a reported fix that
//! has been acknowledged survives a crash. The moving parts:
//!
//! * every accepted fix is appended to the [write-ahead log](crate::wal)
//!   and fsynced *before* `append` returns;
//! * [`DurableStore::snapshot`] writes the in-memory state as one sealed
//!   checkpoint file in the WAL's own record framing and then truncates
//!   the WAL — the checkpoint plus the (now empty) log always cover every
//!   acknowledged fix;
//! * [`DurableStore::open`] recovers: load the checkpoint (whole, or
//!   refuse it), replay the WAL tail over it, skip records the checkpoint
//!   already covers (timestamps are strictly monotone per object, so
//!   coverage is a simple time comparison), and report torn/corrupt
//!   records instead of tripping over them.
//!
//! Why replay can double-see records: the checkpoint's commit point is
//! its rename, but WAL truncation happens *after* it — a crash between
//! the two leaves a complete checkpoint *and* a full log. Replay dedup
//! by timestamp makes that window harmless. The full failure model is
//! spelled out in `crates/store/README.md`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use traj_model::{Fix, Timestamp};

use crate::persist::write_checkpoint;
use crate::recover::{recover, RecoverySink};
use crate::storage::{FsStorage, Storage};
use crate::store::{check_next, IngestMode, MovingObjectStore, ObjectId, StoreError};
use crate::wal::{Wal, WalOptions};

/// Configuration of a [`DurableStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// Write-ahead log tuning (segment size).
    pub wal: WalOptions,
}

/// What [`DurableStore::open`] found and did while recovering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Objects restored from the checkpoint.
    pub snapshot_objects: usize,
    /// Fixes restored from the checkpoint.
    pub snapshot_fixes: usize,
    /// WAL segment files scanned.
    pub wal_segments: usize,
    /// WAL records replayed into the store.
    pub replayed: usize,
    /// WAL records skipped because the checkpoint already covered them.
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
/// On-disk layout under the store directory: `snapshot/checkpoint.log`
/// (sealed, published by rename, written by [`DurableStore::snapshot`])
/// and `wal/wal-<seq>.log` (the append log), both in one record
/// framing. See `crates/store/README.md` for the byte-level format.
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

pub(crate) fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Storage { path: path.to_path_buf(), source }
}

impl DurableStore {
    /// Snapshot subdirectory name under the store directory.
    pub const SNAPSHOT_DIR: &'static str = "snapshot";
    /// The checkpoint's file name inside [`DurableStore::SNAPSHOT_DIR`].
    pub const CHECKPOINT_FILE: &'static str = "checkpoint.log";
    /// WAL subdirectory name under the store directory.
    pub const WAL_DIR: &'static str = "wal";

    /// Opens (and recovers) a durable store at `dir` on the real
    /// filesystem, creating the directory tree on first use.
    ///
    /// # Errors
    /// Backend I/O failures, a damaged checkpoint, and a `snapshot/*.csv`
    /// file of the older one-file-per-object format
    /// ([`StoreError::Corrupt`] — a checkpoint, unlike a WAL record, has
    /// no younger redundant copy, so damage there is surfaced loudly
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
        let mut store = MovingObjectStore::new(mode);
        let (wal, report) = recover(storage.clone(), dir, opts.wal, &mut store)?;
        Ok((DurableStore { store, wal, storage, dir: dir.to_path_buf() }, report))
    }

    /// Read access to the in-memory store (queries, stats, indexes).
    pub fn store(&self) -> &MovingObjectStore {
        &self.store
    }

    /// Appends a reported fix durably: validated, logged, fsynced, then
    /// applied to the in-memory store, so a fix whose log write or fsync
    /// failed is never in memory. When this returns `Ok`, the fix is
    /// acknowledged: it survives a crash and a power loss.
    ///
    /// # Errors
    /// Rejects invalid fixes like [`MovingObjectStore::append`]
    /// (nothing is logged for them) and propagates WAL write and fsync
    /// failures (the fix is then not applied, and not acknowledged).
    pub fn append(&mut self, id: ObjectId, fix: Fix) -> Result<(), StoreError> {
        // Validate first: the WAL must only ever hold accepted fixes.
        check_next(self.store.latest(id).map(|l| l.t), &fix, 0)?;
        self.wal.append(id, &fix)?;
        self.wal.sync()?;
        self.store.append(id, fix)
    }

    /// Persists the current state as one sealed checkpoint and truncates
    /// the WAL. Returns the number of objects written.
    ///
    /// Crash safety: the checkpoint is written to a temporary file,
    /// fsynced, published by rename over `snapshot/checkpoint.log`, and
    /// the directory is fsynced; the WAL is deleted only after that. A
    /// crash anywhere in between leaves the old or the new checkpoint
    /// plus the log, together covering every acknowledged fix, which
    /// recovery reconciles by timestamp.
    ///
    /// # Errors
    /// Backend I/O failures; the WAL is left untouched unless the
    /// checkpoint made it to disk.
    pub fn snapshot(&mut self) -> Result<usize, StoreError> {
        let _span = traj_obs::trace_span!("store.snapshot");
        let snap_dir = self.dir.join(Self::SNAPSHOT_DIR);
        let tmp = snap_dir.join("checkpoint.tmp");
        let path = snap_dir.join(Self::CHECKPOINT_FILE);
        let objects = write_checkpoint(self.storage.as_ref(), &self.store, &tmp)?;
        self.storage.rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        self.storage.sync_dir(&snap_dir).map_err(|e| io_err(&snap_dir, e))?;
        self.wal.truncate()?;
        Ok(objects)
    }
}

/// A durable store recovers the whole history: checkpoint runs are
/// installed without re-compression, and replayed records are appended
/// in the configured ingest mode.
impl RecoverySink for MovingObjectStore {
    fn latest_time(&self, id: ObjectId) -> Option<Timestamp> {
        self.latest(id).map(|l| l.t)
    }

    fn restore_run(&mut self, id: ObjectId, run: Vec<Fix>) -> Result<(), StoreError> {
        self.restore_trajectory(id, run)
    }

    fn replay(&mut self, id: ObjectId, fix: Fix) -> Result<bool, StoreError> {
        if self.latest_time(id).is_some_and(|l| l >= fix.t) {
            return Ok(false);
        }
        self.append(id, fix)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{crc32, MemStorage};
    use crate::wal::{encode_record, FIX_PAYLOAD_BYTES, RECORD_HEADER_BYTES, SEGMENT_MAGIC};

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
    fn every_acknowledged_append_survives_power_loss() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        for i in 0..20 {
            s.append(1, fix(i as f64)).unwrap();
            // Power loss right after the ack: the page cache empties.
            disk.drop_unsynced();
        }
        drop(s);
        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.replayed, 20);
        assert_eq!(s.store().trajectory(1).unwrap().len(), 20);
    }

    #[test]
    fn a_failed_fsync_is_no_ack_and_no_later_sync_makes_it_durable() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        s.append(1, fix(0.0)).unwrap();
        s.append(1, fix(1.0)).unwrap();
        disk.arm_sync_failure();
        assert!(matches!(s.append(1, fix(2.0)), Err(StoreError::Storage { .. })));
        assert_eq!(s.store().stored_fixes(1).unwrap(), vec![fix(0.0), fix(1.0)]);
        disk.lift_faults();
        // The next append starts a fresh segment: its fsync cannot carry
        // the failed record along.
        s.append(1, fix(3.0)).unwrap();
        drop(s);
        disk.drop_unsynced();
        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.replayed, 3);
        assert_eq!(s.store().stored_fixes(1).unwrap(), vec![fix(0.0), fix(1.0), fix(3.0)]);
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

    /// The checkpoint's path in the tests' store.
    fn checkpoint() -> PathBuf {
        Path::new("/db").join(DurableStore::SNAPSHOT_DIR).join(DurableStore::CHECKPOINT_FILE)
    }

    fn reopen(disk: &Arc<MemStorage>) -> Result<(DurableStore, RecoveryReport), StoreError> {
        let opts = DurableOptions::default();
        DurableStore::open_with(disk.clone(), Path::new("/db"), IngestMode::Raw, opts)
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
        let n = disk.file(&checkpoint()).unwrap().len();
        assert!(disk.corrupt_byte(&checkpoint(), n / 2, 0x08));
        let err = reopen(&disk).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("checkpoint.log"), "{err}");
    }

    #[test]
    fn snapshot_writes_one_sealed_segment() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        for i in 0..4 {
            s.append(2, fix(i as f64)).unwrap();
            s.append(1, fix(i as f64 + 0.5)).unwrap();
        }
        assert_eq!(s.snapshot().unwrap(), 2);
        assert_eq!(disk.file_paths(), vec![checkpoint()], "one file; the log is truncated");
        let bytes = disk.file(&checkpoint()).unwrap();
        let record = RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES;
        assert_eq!(bytes.len(), SEGMENT_MAGIC.len() + 8 * record + 4);
        // The WAL's magic, then object 1's records before object 2's.
        assert_eq!(&bytes[..8], SEGMENT_MAGIC);
        let mut first = Vec::new();
        encode_record(&mut first, 1, &fix(0.5));
        assert_eq!(&bytes[8..8 + record], first.as_slice());
        // The seal is the CRC-32 of every byte before it.
        let (body, seal) = bytes.split_at(bytes.len() - 4);
        assert_eq!(seal, crc32(body).to_le_bytes());
    }

    #[test]
    fn a_sealed_checkpoint_with_an_object_in_two_runs_is_refused() {
        let disk = Arc::new(MemStorage::new());
        drop(open_mem(&disk, IngestMode::Raw));
        let mut bytes = SEGMENT_MAGIC.to_vec();
        for (id, t) in [(1, 0.0), (2, 0.0), (1, 1.0)] {
            encode_record(&mut bytes, id, &fix(t));
        }
        let seal = crc32(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());
        disk.create(&checkpoint()).unwrap().write_all(&bytes).unwrap();
        let err = reopen(&disk).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("object 1 is split"), "{err}");
    }

    #[test]
    fn an_older_csv_snapshot_is_refused_by_name() {
        let disk = Arc::new(MemStorage::new());
        drop(open_mem(&disk, IngestMode::Raw));
        let (old, text) = (Path::new("/db/snapshot/7.csv"), b"t,x,y\n0,0,0\n10,5,5\n");
        disk.create(old).unwrap().write_all(text).unwrap();
        let err = reopen(&disk).unwrap_err();
        match &err {
            StoreError::Corrupt { path, .. } => assert_eq!(path, old),
            other => panic!("expected Corrupt naming {old:?}, got {other}"),
        }
        assert!(err.to_string().contains("7.csv"), "{err}");
        assert_eq!(disk.file(old).unwrap(), text, "the file is left as it was");
    }

    #[test]
    fn an_empty_store_snapshots_and_reopens() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(s.snapshot().unwrap(), 0);
        assert_eq!(disk.file(&checkpoint()).unwrap().len(), SEGMENT_MAGIC.len() + 4);
        drop(s);
        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report, RecoveryReport::default());
        assert!(s.store().is_empty());
    }

    #[test]
    fn compressed_stored_fixes_survive_snapshot_and_reopen() {
        let mode = IngestMode::Compressed { epsilon: 25.0, speed_epsilon: None, max_window: 16 };
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, mode);
        for i in 0..80 {
            s.append(1, fix(i as f64 * 10.0)).unwrap();
            s.append(5, fix(i as f64 * 7.0)).unwrap();
        }
        let before: Vec<_> = [1, 5].map(|id| s.store().stored_fixes(id).unwrap()).into();
        assert!(before[0].len() < 80, "ingest compresses");
        s.snapshot().unwrap();
        drop(s);
        let (s, report) = open_mem(&disk, mode);
        assert_eq!(report.snapshot_objects, 2);
        assert_eq!(report.snapshot_fixes, before[0].len() + before[1].len());
        assert_eq!(report.replayed, 0);
        let after: Vec<_> = [1, 5].map(|id| s.store().stored_fixes(id).unwrap()).into();
        assert_eq!(after, before);
    }

    #[test]
    fn leftover_temp_files_are_swept_and_foreign_files_ignored() {
        let disk = Arc::new(MemStorage::new());
        let (mut s, _) = open_mem(&disk, IngestMode::Raw);
        s.append(1, fix(0.0)).unwrap();
        s.snapshot().unwrap();
        drop(s);
        for (name, bytes) in [("checkpoint.tmp", &b"TRAJWAL1 torn"[..]), ("README.md", b"notes")] {
            disk.create(&Path::new("/db/snapshot").join(name)).unwrap().write_all(bytes).unwrap();
        }
        let (s, report) = open_mem(&disk, IngestMode::Raw);
        assert_eq!(report.snapshot_fixes, 1);
        assert_eq!(s.store().stored_fixes(1).unwrap(), vec![fix(0.0)]);
        assert!(!disk.exists(Path::new("/db/snapshot/checkpoint.tmp")));
        assert!(disk.exists(Path::new("/db/snapshot/README.md")));
    }
}
