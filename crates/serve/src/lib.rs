//! # traj-serve — sharded multi-tenant trajectory ingest
//!
//! The paper's setting (§1) is a server ingesting position reports from
//! fleets of moving objects; this crate is that server's ingest core,
//! built on the rest of the workspace:
//!
//! * [`shard`] — deterministic mover→shard routing
//!   (`splitmix64(mover) % shards`), so each mover's history lives in
//!   exactly one shard directory;
//! * [`queue`] — bounded per-shard queues whose overload behaviour is a
//!   typed [`queue::SubmitError::Backpressure`], never blocking and
//!   never unbounded buffering;
//! * [`session`] — per-mover online codecs (default: one-pass cone)
//!   that compress *before* the WAL, shrinking log volume and fsync
//!   payloads;
//! * [`worker`] — one thread per shard owning a
//!   [`traj_store::GroupCommitStore`]: drain a batch, compress, buffer,
//!   **one fsync**, then acknowledge everything it covered
//!   (ack-after-fsync, pinned by the store's crash sweeps and by a
//!   seeded fault simulation of the shard's batch step);
//! * [`service`] — lifecycle: start/recover shards laid out as standard
//!   durable-store directories (`dir/shard-K/`, readable by
//!   `trajc store recover`), route submissions, clean shutdown that
//!   flushes every session and commits every WAL.
//!
//! `trajc serve <dir>` feeds the service `id,t,x,y` records from
//! stdin; the repository benchmark (`perfbench`, workload
//! `fleet_ingest`) drives it with an open-loop synthetic fleet.
//!
//! The throughput story is the group commit: per-append fsync caps a
//! shard at the disk's sync rate, while batching N appends behind one
//! fsync multiplies acknowledged throughput by ~N at the same
//! durability classification (nothing is acknowledged before it is on
//! disk). `DESIGN.md` §2h walks through the architecture.

pub mod queue;
pub mod service;
pub mod session;
pub mod shard;
pub mod worker;

pub use queue::SubmitError;
pub use service::{check_shards, ServeConfig, Service, ShutdownStats, MAX_SHARDS};
pub use session::CodecSpec;
pub use shard::shard_of;
pub use worker::ShardStats;
