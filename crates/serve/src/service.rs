//! The ingest service: shard ownership, submit routing and lifecycle.
//!
//! [`Service::start`] lays a store out as `dir/shard-K/` — each shard a
//! completely standard [`DurableStore`](traj_store::DurableStore)
//! directory, so `trajc store recover` (and every other store tool)
//! works on any shard in isolation — and spawns one worker thread per
//! shard. [`Service::submit`] routes by [`crate::shard::shard_of`] and
//! never blocks: a full shard queue is a typed
//! [`SubmitError::Backpressure`]. A shard stopped by a storage failure
//! closes its queue, so submits to it fail with [`SubmitError::Closed`]
//! instead of backing up. [`Service::shutdown`] closes the queues, lets
//! every worker drain, flush its sessions and commit, then merges the
//! per-shard statistics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use traj_model::Fix;
use traj_obs::LogHistogram;
use traj_store::storage::{FsStorage, Storage};
use traj_store::{DurableOptions, GroupCommitOptions, GroupCommitStore, IngestMode};

use crate::queue::{self, Item, Sender, SubmitError};
use crate::session::CodecSpec;
use crate::shard::shard_of;
use crate::worker::{self, ShardCore, ShardStats};

/// The most shards a service runs. Each shard is a store directory and
/// a worker thread, so [`Service::start_with`] checks the count before
/// any of them exists.
pub const MAX_SHARDS: usize = 256;

/// Checks a shard count against `1..=MAX_SHARDS`.
///
/// # Errors
/// The count and the bound, as a string.
pub fn check_shards(shards: usize) -> Result<(), String> {
    if (1..=MAX_SHARDS).contains(&shards) {
        Ok(())
    } else {
        Err(format!("shard count {shards} is outside 1..={MAX_SHARDS}"))
    }
}

/// Service configuration; see field docs for defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store shards (worker threads), `1..=`[`MAX_SHARDS`]; default 2.
    pub shards: usize,
    /// Per-shard queue capacity; default 4096 fixes.
    pub queue_cap: usize,
    /// Per-mover session codec; default `op-cone` at 30 m.
    pub codec: CodecSpec,
    /// Group commit bound: a shard commits what queued while it
    /// committed the previous batch, at most `max_batch` fixes per
    /// fsync; it never waits for a batch to fill. `max_batch: 1` is one
    /// fsync per fix, the per-append baseline.
    pub group: GroupCommitOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            queue_cap: 4096,
            codec: CodecSpec::default_with(30.0),
            group: GroupCommitOptions::default(),
        }
    }
}

/// Merged result of a clean [`Service::shutdown`].
#[derive(Debug)]
pub struct ShutdownStats {
    /// Fixes acknowledged across all shards.
    pub acked: u64,
    /// Fixes rejected as invalid (see [`ShardStats::invalid`]).
    pub invalid: u64,
    /// Compressed points written across all shard WALs.
    pub emitted: u64,
    /// Fsync batches across all shards.
    pub commits: u64,
    /// Distinct mover sessions across all shards.
    pub sessions: usize,
    /// Merged submit→fsync ack latency.
    pub ack: LogHistogram,
    /// Per-shard breakdowns, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Storage errors that stopped workers early (empty on a healthy
    /// run).
    pub errors: Vec<String>,
}

/// A running sharded ingest service; see the [module docs](self).
pub struct Service {
    senders: Vec<Sender>,
    workers: Vec<JoinHandle<ShardStats>>,
    shards: usize,
    dir: PathBuf,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("shards", &self.shards)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the service over the real filesystem at `dir` (created if
    /// missing), recovering any existing shard stores in place.
    ///
    /// # Errors
    /// As [`Service::start_with`].
    pub fn start(dir: &Path, cfg: ServeConfig) -> Result<Self, String> {
        Self::start_with(Arc::new(FsStorage), dir, cfg)
    }

    /// [`Service::start`] over an injectable storage backend (the tests
    /// run entire services against `MemStorage`).
    ///
    /// # Errors
    /// A shard count outside `1..=`[`MAX_SHARDS`] (before any store
    /// opens), then shard store open/recovery failures, as strings.
    pub fn start_with(
        storage: Arc<dyn Storage>,
        dir: &Path,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        check_shards(cfg.shards)?;
        let shards = cfg.shards;
        // Open every shard store before spawning anything, so an open
        // failure surfaces synchronously with no threads to unwind.
        let mut stores = Vec::with_capacity(shards);
        for k in 0..shards {
            let shard_dir = dir.join(format!("shard-{k}"));
            let (store, _report) = GroupCommitStore::open_with(
                storage.clone(),
                &shard_dir,
                IngestMode::Raw,
                DurableOptions::default(),
                cfg.group,
            )
            .map_err(|e| format!("shard {k}: {e}"))?;
            stores.push(store);
        }
        let mut senders: Vec<Sender> = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (k, store) in stores.into_iter().enumerate() {
            let (tx, rx) = queue::bounded(k, cfg.queue_cap);
            // The core is built on its thread: session codecs are not
            // `Send`.
            let handle = std::thread::Builder::new()
                .name(format!("serve-shard-{k}"))
                .spawn(move || worker::run(ShardCore::new(k, store, cfg.codec), &rx))
                .map_err(|e| {
                    // Unwind the shards that did start; their workers
                    // exit once their queues close.
                    for tx in &senders {
                        tx.close();
                    }
                    format!("shard {k}: spawn failed: {e}")
                })?;
            senders.push(tx);
            workers.push(handle);
        }
        Ok(Service { senders, workers, shards, dir: dir.to_path_buf() })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The service's root directory (`shard-K/` subdirectories).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current depth of one shard's queue (gauge/test support).
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.senders.get(shard).map_or(0, Sender::depth)
    }

    /// Submits one fix, stamped now. Non-blocking.
    ///
    /// # Errors
    /// [`SubmitError::Backpressure`] when the owning shard's queue is
    /// full; [`SubmitError::Closed`] during shutdown, or once the owning
    /// shard has stopped on a storage failure.
    pub fn submit(&self, mover: u64, fix: Fix) -> Result<(), SubmitError> {
        self.submit_at(mover, fix, Instant::now())
    }

    /// [`Service::submit`] with an explicit submit stamp — an open-loop
    /// load generator passes the *scheduled* arrival time so queueing
    /// delay under overload is charged to the latency numbers instead
    /// of silently omitted.
    ///
    /// # Errors
    /// As [`Service::submit`].
    pub fn submit_at(
        &self,
        mover: u64,
        fix: Fix,
        submitted: Instant,
    ) -> Result<(), SubmitError> {
        traj_obs::counter!("serve", "submitted").inc();
        let shard = shard_of(mover, self.shards);
        match self.senders[shard].try_send(Item { mover, fix, submitted }) {
            Ok(()) => Ok(()),
            Err(e) => {
                if matches!(e, SubmitError::Backpressure { .. }) {
                    traj_obs::counter!("serve", "backpressure").inc();
                }
                Err(e)
            }
        }
    }

    /// Stops ingest, drains every shard, flushes every session, commits
    /// every WAL and returns the merged statistics.
    ///
    /// # Errors
    /// A worker thread panic (a bug, distinct from the storage errors
    /// reported inside [`ShutdownStats::errors`]).
    pub fn shutdown(self) -> Result<ShutdownStats, String> {
        for tx in &self.senders {
            tx.close();
        }
        let mut merged = ShutdownStats {
            acked: 0,
            invalid: 0,
            emitted: 0,
            commits: 0,
            sessions: 0,
            ack: LogHistogram::new(),
            shards: Vec::with_capacity(self.workers.len()),
            errors: Vec::new(),
        };
        for handle in self.workers {
            let stats = handle
                .join()
                .map_err(|_| "shard worker panicked (bug)".to_string())?;
            merged.acked += stats.acked;
            merged.invalid += stats.invalid;
            merged.emitted += stats.emitted;
            merged.commits += stats.commits;
            merged.sessions += stats.sessions;
            merged.ack.merge(&stats.ack);
            if let Some(e) = &stats.error {
                merged.errors.push(format!("shard {}: {e}", stats.shard));
            }
            merged.shards.push(stats);
        }
        Ok(merged)
    }
}
