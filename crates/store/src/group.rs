//! Cross-session group commit: many appends, one fsync, then acks.
//!
//! The per-append `fsync` of
//! [`DurableStore::append`](crate::DurableStore::append) is the dominant
//! cost of durable ingest: it caps a shard at the disk's sync rate
//! (`EXPERIMENTS.md`, "Ingest throughput"). Group commit amortizes it
//! without giving up the durability class: appends from any number of
//! sessions are *buffered* — written to the WAL, but **not yet
//! acknowledged** — and a single [`GroupCommitStore::commit`] fsyncs the
//! lot. Only fixes at or below the sequence number a commit returned may
//! be acknowledged to their reporters; a crash can then never take back
//! an acknowledged fix, exactly as with per-append fsync (pinned by
//! `crates/store/tests/durability.rs`).
//!
//! The protocol, from a caller's (shard worker's) perspective:
//!
//! 1. [`GroupCommitStore::buffer`] each incoming fix → a sequence
//!    number. Hold the reporter's ack.
//! 2. When [`GroupCommitOptions::max_batch`] fixes are pending or
//!    nothing more is waiting to be buffered, call
//!    [`GroupCommitStore::commit`]. It returns the durable high-water
//!    sequence.
//! 3. Release every ack whose sequence is covered.
//!
//! The commit point is the WAL fsync — the same commit point
//! [`DurableStore`](crate::DurableStore) uses, just batched:
//! [`GroupCommitStore::buffer`] logs without an fsync and
//! [`GroupCommitStore::commit`] is the only fsync on this path. The log
//! is the history: in memory a group store holds only the open WAL
//! segment and one time per object, and a shard directory is read with
//! [`DurableStore::open`](crate::DurableStore::open).
//!
//! Opening a group store runs the crate's one recovery routine — the
//! one [`DurableStore::open`](crate::DurableStore::open) runs, step by
//! step — into that map of latest times instead of a history. The
//! records of each segment stream into the map as they decode, one
//! lookup each, so a restart holds one segment file's bytes (each file
//! is still read whole through `Storage::read`) plus one entry per
//! object: O(objects + one segment file), flat in the length of the
//! history.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use traj_model::{Fix, Timestamp};

use crate::durable::{DurableOptions, RecoveryReport};
use crate::recover::{recover, RecoverySink};
use crate::storage::Storage;
use crate::store::{advance, check_next, check_run, IngestMode, ObjectId, StoreError};
use crate::wal::Wal;

/// The batching bound for [`GroupCommitStore`] callers.
///
/// The bound limits *ack latency*, not correctness: a commit may
/// legally happen at any time. `max_batch` caps how many buffered fixes
/// ride one fsync. Nothing waits for a batch to fill: a caller commits
/// whatever it has buffered once no more input is waiting, so under
/// load a batch is what arrived during the previous commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitOptions {
    /// Commit when this many fixes are buffered.
    pub max_batch: usize,
}

impl Default for GroupCommitOptions {
    fn default() -> Self {
        // 256 fixes ≈ 10 KiB of WAL per fsync.
        GroupCommitOptions { max_batch: 256 }
    }
}

/// A WAL writer plus each object's latest logged time, whose commit
/// point is an explicit, shared, batched fsync — see the [module
/// docs](self) for the protocol. It writes a
/// [`DurableStore`](crate::DurableStore) directory, which
/// [`DurableStore::open`](crate::DurableStore::open) and `trajc store
/// recover` read.
///
/// ```
/// use std::sync::Arc;
/// use traj_model::Fix;
/// use traj_store::storage::MemStorage;
/// use traj_store::{DurableOptions, GroupCommitOptions, GroupCommitStore, IngestMode};
///
/// let disk = Arc::new(MemStorage::new());
/// let (mut store, _) = GroupCommitStore::open_with(
///     disk.clone(),
///     "/shard-0".as_ref(),
///     IngestMode::Raw,
///     DurableOptions::default(),
///     GroupCommitOptions::default(),
/// )
/// .unwrap();
///
/// // Two sessions' fixes ride the same fsync.
/// let a = store.buffer(1, Fix::from_parts(0.0, 0.0, 0.0)).unwrap();
/// let b = store.buffer(2, Fix::from_parts(0.5, 9.0, 9.0)).unwrap();
/// let durable = store.commit().unwrap();
/// assert!(a <= durable && b <= durable); // both may now be acked
/// assert_eq!(store.latest(2).unwrap().as_secs(), 0.5);
/// ```
pub struct GroupCommitStore {
    wal: Wal,
    /// Each object's latest logged time, recovered or buffered since.
    /// Hashed with the default (randomly keyed) hasher: the ids come
    /// from outside the program.
    latest: HashMap<ObjectId, Timestamp>,
    /// The shard directory, named in the poisoned-handle error.
    dir: PathBuf,
    opts: GroupCommitOptions,
    /// Sequence of the last buffered fix (0 = none yet).
    buffered: u64,
    /// Highest sequence covered by a successful commit.
    durable: u64,
    /// Set after a storage-level failure: the WAL may hold a torn or
    /// never-to-be-synced suffix, so no further sequence may be
    /// acknowledged from this handle.
    poisoned: bool,
}

impl std::fmt::Debug for GroupCommitStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitStore")
            .field("objects", &self.latest.len())
            .field("buffered", &self.buffered)
            .field("durable", &self.durable)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl GroupCommitStore {
    /// Opens a group-commit store at `dir` over `storage`: runs the
    /// recovery [`DurableStore::open_with`](crate::DurableStore::open_with)
    /// runs, into a map of each object's latest time instead of a
    /// history, whatever `_mode` says (an object's latest time is the
    /// same in every mode). No fix is kept in memory: recovery holds one
    /// segment file's bytes at a time plus the map.
    ///
    /// # Errors
    /// Like [`DurableStore::open`](crate::DurableStore::open).
    pub fn open_with(
        storage: Arc<dyn Storage>,
        dir: &Path,
        _mode: IngestMode,
        opts: DurableOptions,
        group: GroupCommitOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let mut latest = HashMap::new();
        let (wal, report) = recover(storage, dir, opts.wal, &mut latest)?;
        let store = GroupCommitStore {
            wal,
            latest,
            dir: dir.to_path_buf(),
            opts: group,
            buffered: 0,
            durable: 0,
            poisoned: false,
        };
        Ok((store, report))
    }

    /// Logs a fix to the WAL *without* making it durable and records it
    /// as the object's latest. Returns its sequence number; the fix must
    /// not be acknowledged until a later [`GroupCommitStore::commit`]
    /// returns a sequence at or above it.
    ///
    /// # Errors
    /// A fix not finite or not later than [`GroupCommitStore::latest`]
    /// is rejected ([`StoreError::Model`]), the group intact. Storage
    /// failures poison the handle: the log may end in a torn or
    /// abandoned (never-to-be-synced) suffix, so no later commit from
    /// this handle may acknowledge anything — reopen the store to recover.
    pub fn buffer(&mut self, id: ObjectId, fix: Fix) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(self.poisoned_err());
        }
        advance(&mut self.latest, id, &fix)?;
        // No fsync here: `commit` is the only fsync on this path.
        if let Err(e) = Wal::append(&mut self.wal, id, &fix) {
            self.poisoned = true;
            return Err(e);
        }
        self.buffered += 1;
        Ok(self.buffered)
    }

    /// Makes every buffered fix durable with one fsync and returns the
    /// durable high-water sequence: acknowledge exactly the fixes whose
    /// [`GroupCommitStore::buffer`] sequence is `<=` this value.
    ///
    /// # Errors
    /// A failed fsync poisons the handle (the kernel may have dropped
    /// the dirty pages — nothing since the last good commit can be
    /// trusted durable); reopen the store to recover.
    pub fn commit(&mut self) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(self.poisoned_err());
        }
        if self.buffered > self.durable {
            let group = self.buffered - self.durable;
            if let Err(e) = Wal::sync(&mut self.wal) {
                self.poisoned = true;
                return Err(e);
            }
            traj_obs::counter!("store", "group_commits").inc();
            traj_obs::histogram!("store", "group_size").record(group);
            self.durable = self.buffered;
        }
        Ok(self.durable)
    }

    fn poisoned_err(&self) -> StoreError {
        StoreError::Storage {
            path: self.dir.clone(),
            source: std::io::Error::other(
                "group-commit store poisoned by an earlier storage failure; reopen to recover",
            ),
        }
    }

    /// Number of buffered fixes not yet covered by a commit.
    pub fn pending(&self) -> u64 {
        self.buffered - self.durable
    }

    /// The configured batching bound.
    pub fn options(&self) -> GroupCommitOptions {
        self.opts
    }

    /// How many objects have a fix on this shard, recovered or buffered
    /// since.
    pub fn objects(&self) -> usize {
        self.latest.len()
    }

    /// The time of `id`'s latest fix, recovered or buffered since, which
    /// the next [`GroupCommitStore::buffer`] of `id` must follow; `None`
    /// if this shard has none. A poisoned handle may count a failed one.
    pub fn latest(&self, id: ObjectId) -> Option<Timestamp> {
        self.latest.get(&id).copied()
    }
}

/// A group store recovers each object's latest time and nothing else:
/// one map lookup per replayed record.
impl RecoverySink for HashMap<ObjectId, Timestamp> {
    fn latest_time(&self, id: ObjectId) -> Option<Timestamp> {
        self.get(&id).copied()
    }

    fn restore_run(&mut self, id: ObjectId, run: Vec<Fix>) -> Result<(), StoreError> {
        if let Some(t) = check_run(&run)? {
            self.extend([(id, t)]);
        }
        Ok(())
    }

    fn replay(&mut self, id: ObjectId, fix: Fix) -> Result<bool, StoreError> {
        match self.entry(id) {
            Entry::Occupied(latest) if *latest.get() >= fix.t => return Ok(false),
            Entry::Occupied(mut latest) => {
                check_next(None, &fix, 0)?;
                latest.insert(fix.t);
            }
            Entry::Vacant(slot) => {
                check_next(None, &fix, 0)?;
                slot.insert(fix.t);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::DurableStore;

    fn fix(t: f64) -> Fix {
        Fix::from_parts(t, t * 3.0, -t)
    }

    fn open_mem(disk: &Arc<MemStorage>) -> GroupCommitStore {
        GroupCommitStore::open_with(
            disk.clone(),
            Path::new("/db"),
            IngestMode::Raw,
            DurableOptions::default(),
            GroupCommitOptions::default(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn sequences_advance_and_commit_covers_them() {
        let disk = Arc::new(MemStorage::new());
        let mut s = open_mem(&disk);
        assert_eq!(s.buffer(1, fix(0.0)).unwrap(), 1);
        assert_eq!(s.buffer(2, fix(0.0)).unwrap(), 2);
        assert_eq!(s.pending(), 2);
        let durable = s.commit().unwrap();
        assert_eq!(durable, 2);
        assert_eq!(s.pending(), 0);
        // An empty commit is free and keeps the high-water mark.
        assert_eq!(s.commit().unwrap(), durable);
    }

    #[test]
    fn uncommitted_fixes_do_not_survive_power_loss_committed_do() {
        let disk = Arc::new(MemStorage::new());
        let mut s = open_mem(&disk);
        for i in 0..5 {
            s.buffer(7, fix(i as f64)).unwrap();
        }
        let durable = s.commit().unwrap();
        assert_eq!(durable, 5);
        for i in 5..9 {
            s.buffer(7, fix(i as f64)).unwrap();
        }
        // Power loss before the next commit: the page cache empties.
        drop(s);
        disk.drop_unsynced();
        let (s, report) = DurableStore::open_with(
            disk.clone(),
            Path::new("/db"),
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.replayed, 5, "exactly the committed prefix");
        assert_eq!(s.store().trajectory(7).unwrap().len(), 5);
    }

    #[test]
    fn validation_rejects_do_not_poison_the_group() {
        let disk = Arc::new(MemStorage::new());
        let mut s = open_mem(&disk);
        s.buffer(1, fix(10.0)).unwrap();
        assert!(matches!(s.buffer(1, fix(5.0)), Err(StoreError::Model(_))));
        assert!(matches!(
            s.buffer(1, Fix::from_parts(f64::NAN, 0.0, 0.0)),
            Err(StoreError::Model(_))
        ));
        assert_eq!(s.commit().unwrap(), 1, "group still commits");
    }

    #[test]
    fn reopen_refuses_fixes_at_or_before_the_recovered_latest() {
        let disk = Arc::new(MemStorage::new());
        let mut s = open_mem(&disk);
        for i in 0..3 {
            s.buffer(4, fix(i as f64)).unwrap();
        }
        s.buffer(5, fix(10.0)).unwrap();
        s.commit().unwrap();
        drop(s);

        let mut s = open_mem(&disk);
        assert_eq!((s.latest(4), s.latest(5)), (Some(fix(2.0).t), Some(fix(10.0).t)));
        assert_eq!(s.latest(6), None);
        for stale in [fix(2.0), fix(1.5)] {
            assert!(matches!(s.buffer(4, stale), Err(StoreError::Model(_))));
        }
        // Not poisoned: the next later fix buffers, commits and replays.
        assert_eq!(s.buffer(4, fix(3.0)).unwrap(), 1);
        assert_eq!(s.commit().unwrap(), 1);
        assert_eq!(s.latest(4), Some(fix(3.0).t));
        drop(s);
        let (s, report) = DurableStore::open_with(
            disk.clone(),
            Path::new("/db"),
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.replayed, 5);
        let want: Vec<Fix> = (0..4).map(|i| fix(i as f64)).collect();
        assert_eq!(s.store().stored_fixes(4).unwrap(), want);
    }

    #[test]
    fn storage_failure_poisons_the_handle() {
        let disk = Arc::new(MemStorage::new());
        let mut s = open_mem(&disk);
        s.buffer(1, fix(0.0)).unwrap();
        s.commit().unwrap();
        // Exhaust the write budget mid-append: a torn suffix is possible.
        disk.arm_write_budget(3);
        assert!(matches!(s.buffer(1, fix(1.0)), Err(StoreError::Storage { .. })));
        // Every later operation refuses: nothing further may be acked.
        let err = s.commit().unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        let err = s.buffer(1, fix(2.0)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Reopen recovers the durable prefix.
        disk.lift_faults();
        disk.drop_unsynced();
        drop(s);
        let (s, report) = DurableStore::open_with(
            disk.clone(),
            Path::new("/db"),
            IngestMode::Raw,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(s.store().trajectory(1).unwrap().len(), 1);
    }
}
