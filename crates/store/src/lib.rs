//! # traj-store — a moving-object store with compressed ingest
//!
//! The paper's motivation (§1) is database support for moving objects:
//! "100 Mb of storage capacity is required to store the data for just
//! over 400 objects for a single day, barring any data compression".
//! This crate closes the loop: it is the storage layer the compression
//! algorithms exist for.
//!
//! * [`MovingObjectStore`] — per-object trajectory storage with two
//!   ingest paths: raw appends, and *online compressed* appends through
//!   the opening-window stream of `traj-compress` with a per-store error
//!   budget;
//! * [`DurableStore`] — the durable ingest path: a CRC-checksummed
//!   [write-ahead log](wal) appended to before a fix is acknowledged,
//!   an atomic, sealed checkpoint in the log's own record framing
//!   ([`DurableStore::snapshot`]), and crash recovery
//!   ([`DurableStore::open`]) that replays the log tail over the
//!   checkpoint (format spec: `crates/store/README.md`);
//! * [`GroupCommitStore`] — the write side of a `trajc serve` shard: a
//!   WAL writer whose appends from many sessions buffer behind one
//!   shared fsync and are acknowledged only once it returns ([`group`]).
//!   In memory it holds the open segment and one time per object, and a
//!   restart recovers only those times, with the same routine
//!   [`DurableStore::open`] runs; a shard directory is read with
//!   [`DurableStore::open`];
//! * [`storage`] — the injectable filesystem boundary behind the
//!   durability layer, including the fault-injecting
//!   [`storage::MemStorage`] the crash tests sweep with;
//! * [`rtree::SegmentRTree`] — the window index: an STR-packed R-tree
//!   over the stored segments' (x, y, t) boxes, pruning a window query
//!   (space rectangle × time interval) in space and time with memory
//!   linear in segments;
//! * [`query`] — position-at-time, window and nearest-neighbour queries
//!   evaluated on the (compressed) piecewise-linear trajectories; the
//!   window query has two paths, the reference scan
//!   ([`objects_in_window`]) and the index
//!   ([`query::rtree_objects_in_window`]), and answers the same on
//!   both.

pub mod durable;
pub mod group;
mod persist;
mod recover;
pub mod query;
pub mod rtree;
pub mod storage;
pub mod store;
pub mod wal;

pub use durable::{DurableOptions, DurableStore, RecoveryReport};
pub use group::{GroupCommitOptions, GroupCommitStore};
pub use query::{
    knn_at, objects_in_window, position_of, snapshot_at, trajectories_in_window, QueryWindow,
};
pub use rtree::SegmentRTree;
pub use store::{IngestMode, MovingObjectStore, ObjectId, StoreError, StoreStats};
pub use wal::WalOptions;
