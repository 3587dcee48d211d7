//! Recovery: one routine that reads a store directory into a sink.
//!
//! [`recover`] runs the steps of the recovery algorithm
//! (`crates/store/README.md`) in order: sweep `snapshot/*.tmp`, refuse a
//! `snapshot/*.csv` of the older format, load `snapshot/checkpoint.log`
//! whole or not at all, replay the WAL tail while skipping the records an
//! object's latest time covers, and open a fresh segment. What it rebuilds
//! is the [`RecoverySink`]'s business: a
//! [`MovingObjectStore`](crate::MovingObjectStore) keeps every fix for
//! [`DurableStore::open`], and a group store's latest-time map keeps one
//! time per object for
//! [`GroupCommitStore::open_with`](crate::GroupCommitStore::open_with).
//!
//! Records stream out of each file into the sink as they decode. A file
//! is still read whole through [`Storage::read`], one at a time, so
//! recovery holds one segment file's bytes (or the checkpoint's) plus the
//! sink: for the latest-time map that is O(objects + one segment file),
//! flat in the length of the history.

use std::path::Path;
use std::sync::Arc;

use traj_model::{Fix, Timestamp};

use crate::durable::{io_err, DurableStore, RecoveryReport};
use crate::persist::load_checkpoint;
use crate::storage::Storage;
use crate::store::{ObjectId, StoreError};
use crate::wal::{scan_dir, Wal, WalOptions};

/// The state recovery rebuilds.
pub(crate) trait RecoverySink {
    /// The time of `id`'s latest fix recovered so far.
    fn latest_time(&self, id: ObjectId) -> Option<Timestamp>;

    /// Installs one checkpoint run: `id`'s whole stored history, which
    /// the sink does not hold yet.
    ///
    /// # Errors
    /// A run whose fixes are not finite and strictly later one by one
    /// ([`StoreError::Model`]); the sink is then unchanged.
    fn restore_run(&mut self, id: ObjectId, run: Vec<Fix>) -> Result<(), StoreError>;

    /// Appends one WAL record unless `id`'s latest time is at or after
    /// the fix's; returns whether it appended.
    ///
    /// # Errors
    /// A non-finite fix that the latest time does not cover
    /// ([`StoreError::Model`]).
    fn replay(&mut self, id: ObjectId, fix: Fix) -> Result<bool, StoreError>;
}

/// Recovers the store directory `dir` into `sink` and opens its log for
/// appending, counting `store.recovery_replayed` and
/// `store.recovery_skipped` under the `store.recover` span.
///
/// # Errors
/// Backend I/O failures, a damaged checkpoint, a `snapshot/*.csv` of the
/// older one-file-per-object format ([`StoreError::Corrupt`]), and a WAL
/// record the sink refuses ([`StoreError::Model`]).
pub(crate) fn recover(
    storage: Arc<dyn Storage>,
    dir: &Path,
    wal: WalOptions,
    sink: &mut impl RecoverySink,
) -> Result<(Wal, RecoveryReport), StoreError> {
    let _span = traj_obs::trace_span!("store.recover");
    let snap_dir = dir.join(DurableStore::SNAPSHOT_DIR);
    let wal_dir = dir.join(DurableStore::WAL_DIR);
    storage.create_dir_all(&snap_dir).map_err(|e| io_err(&snap_dir, e))?;

    let mut report = RecoveryReport::default();

    // 1. Sweep temp files an interrupted snapshot left behind (their
    //    contents were never published), and refuse snapshot files of
    //    the older format: the log they covered was truncated, so
    //    skipping them would lose their fixes.
    let mut checkpoint = None;
    for path in storage.list(&snap_dir).map_err(|e| io_err(&snap_dir, e))? {
        if path.extension().is_some_and(|e| e == "tmp") {
            storage.remove_file(&path).map_err(|e| io_err(&path, e))?;
        } else if path.extension().is_some_and(|e| e == "csv") {
            let detail = format!(
                "a snapshot file of the older one-CSV-per-object format, the only copy \
                 of its fixes; this version reads only {}",
                DurableStore::CHECKPOINT_FILE
            );
            return Err(StoreError::Corrupt { path, detail });
        } else if path.file_name().is_some_and(|n| n == DurableStore::CHECKPOINT_FILE) {
            checkpoint = Some(path);
        }
    }

    // 2. Load the checkpoint, whole or not at all.
    if let Some(path) = checkpoint {
        load_checkpoint(storage.as_ref(), &path, sink, &mut report)?;
    }

    // 3. Replay the WAL tail, one segment at a time. Records at or
    //    before an object's latest time are already covered.
    let summary = scan_dir(storage.as_ref(), &wal_dir, |rec| {
        if sink.replay(rec.id, rec.fix)? {
            report.replayed += 1;
        } else {
            report.skipped_covered += 1;
        }
        Ok(())
    })?;
    report.wal_segments = summary.segments;
    report.skipped_corrupt = summary.corrupt_skipped;
    report.torn_tail = summary.torn_tail;
    traj_obs::counter!("store", "recovery_replayed").add(report.replayed as u64);
    traj_obs::counter!("store", "recovery_skipped")
        .add((report.skipped_covered + report.skipped_corrupt) as u64);

    // 4. Open the log for appending (always a fresh segment, so a torn
    //    tail can never sit in front of new records).
    let wal = Wal::open(storage, &wal_dir, wal)?;
    Ok((wal, report))
}
