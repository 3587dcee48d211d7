//! Cross-session group commit: many appends, one fsync, then acks.
//!
//! The per-append `fsync` of [`DurableStore::append`] is the dominant
//! cost of durable ingest: it caps a shard at the disk's sync rate
//! (`EXPERIMENTS.md`, "Ingest throughput"). Group commit amortizes it without giving
//! up the durability class: appends from any number of sessions are
//! *buffered* — written to the WAL and applied to the in-memory store,
//! but **not yet acknowledged** — and a single [`GroupCommitStore::commit`]
//! fsyncs the lot. Only fixes at or below the sequence number a commit
//! returned may be acknowledged to their reporters; a crash can then
//! never take back an acknowledged fix, exactly as with per-append
//! fsync (pinned by `crates/store/tests/durability.rs`).
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
//! [`DurableStore`] uses, just batched: [`GroupCommitStore::buffer`]
//! logs without an fsync and [`GroupCommitStore::commit`] is the only
//! fsync on this path. Recovery is unchanged: [`DurableStore::open`]-style
//! replay over the shard directory.

use std::path::Path;
use std::sync::Arc;

use traj_model::Fix;

use crate::durable::{DurableOptions, DurableStore, RecoveryReport};
use crate::storage::Storage;
use crate::store::{IngestMode, MovingObjectStore, ObjectId, StoreError};

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

/// A [`DurableStore`] whose durability commit point is an explicit,
/// shared, batched fsync — see the [module docs](self) for the
/// protocol.
///
/// Constructed via [`GroupCommitStore::open_with`] over any storage
/// backend; the on-disk layout is exactly a [`DurableStore`] directory,
/// so `trajc store recover` works on it unchanged.
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
/// ```
pub struct GroupCommitStore {
    inner: DurableStore,
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
            .field("buffered", &self.buffered)
            .field("durable", &self.durable)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl GroupCommitStore {
    /// Opens (and recovers) a group-commit store at `dir` over `storage`.
    ///
    /// # Errors
    /// Like [`DurableStore::open`].
    pub fn open_with(
        storage: Arc<dyn Storage>,
        dir: &Path,
        mode: IngestMode,
        opts: DurableOptions,
        group: GroupCommitOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let (inner, report) = DurableStore::open_with(storage, dir, mode, opts)?;
        Ok((
            GroupCommitStore { inner, opts: group, buffered: 0, durable: 0, poisoned: false },
            report,
        ))
    }

    /// Appends a fix to the WAL and the in-memory store *without*
    /// making it durable. Returns its sequence number; the fix must not
    /// be acknowledged until a later [`GroupCommitStore::commit`]
    /// returns a sequence at or above it.
    ///
    /// # Errors
    /// Validation failures ([`StoreError::Model`]) reject the fix and
    /// leave the group intact. Storage failures poison the handle: the
    /// log may end in a torn or abandoned (never-to-be-synced) suffix,
    /// so no later commit from this handle may acknowledge anything —
    /// reopen the store to recover.
    pub fn buffer(&mut self, id: ObjectId, fix: Fix) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(self.poisoned_err());
        }
        // No fsync here: `commit` is the only fsync on this path.
        match self.inner.log_then_apply(id, fix, false) {
            Ok(()) => {
                self.buffered += 1;
                Ok(self.buffered)
            }
            Err(e @ StoreError::Model(_)) => Err(e),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
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
            if let Err(e) = self.inner.sync() {
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
            path: self.inner.dir().to_path_buf(),
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

    /// Read access to the in-memory store (queries, stats, indexes).
    /// Note: it includes buffered-but-uncommitted fixes.
    pub fn store(&self) -> &MovingObjectStore {
        self.inner.store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

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
