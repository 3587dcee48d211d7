//! The shard worker: single owner of one shard's [`GroupCommitStore`].
//!
//! One thread per shard turns the concurrent ingest problem into a
//! sequence of single-threaded batches. The batch step is the
//! crate-private `ShardCore`, which owns the shard's mover sessions, its
//! store and its ack counts: `ShardCore::ingest` runs each fix of a
//! batch through its mover's session codec, buffers the emitted points
//! into the WAL, makes the whole batch durable with *one* fsync and
//! returns the submit stamps that fsync acknowledged. The thread around
//! it only receives a batch, ingests it and stamps the acks. All
//! cross-thread coordination lives in the queue; the store itself is
//! never shared.

use std::collections::BTreeMap;
use std::time::Instant;

use traj_compress::streaming::StreamingCompressor;
use traj_model::Fix;
use traj_obs::LogHistogram;
use traj_store::{GroupCommitStore, StoreError};

use crate::queue::{Item, Receiver};
use crate::session::CodecSpec;

/// What one shard worker did over its lifetime.
#[derive(Debug)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Fixes acknowledged (processed and covered by their fsync).
    pub acked: u64,
    /// Fixes rejected as invalid: non-finite, or not later than the
    /// mover's previous fix (in this session or in recovered history).
    pub invalid: u64,
    /// Compressed points written to this shard's WAL.
    pub emitted: u64,
    /// Fsync batches this shard committed.
    pub commits: u64,
    /// Distinct mover sessions this shard hosted.
    pub sessions: usize,
    /// Submit→fsync ack latency of this shard's fixes.
    pub ack: LogHistogram,
    /// A storage failure that stopped the worker early, if any.
    pub error: Option<String>,
}

/// One shard's ingest state machine: sessions, store and ack counts,
/// driven one batch at a time.
pub(crate) struct ShardCore {
    store: GroupCommitStore,
    codec: CodecSpec,
    sessions: BTreeMap<u64, Box<dyn StreamingCompressor>>,
    /// Submit stamps of the batch being ingested; what `ingest` returns.
    acked: Vec<Instant>,
    stats: ShardStats,
}

impl ShardCore {
    pub(crate) fn new(shard: usize, store: GroupCommitStore, codec: CodecSpec) -> Self {
        ShardCore {
            store,
            codec,
            sessions: BTreeMap::new(),
            acked: Vec::new(),
            stats: ShardStats {
                shard,
                acked: 0,
                invalid: 0,
                emitted: 0,
                commits: 0,
                sessions: 0,
                ack: LogHistogram::new(),
                error: None,
            },
        }
    }

    /// Ingests one batch with one commit and returns the submit stamps
    /// of the fixes that commit acknowledged, in batch order; invalid
    /// fixes are counted, not acknowledged. A batch that emitted
    /// nothing (every fix absorbed into an open codec window) commits
    /// nothing and acknowledges at once.
    ///
    /// # Errors
    /// A storage failure, with nothing of the batch acknowledged. The
    /// core then refuses every later batch, even one that would touch
    /// no storage: nothing after a failed commit may be acknowledged.
    pub(crate) fn ingest(&mut self, batch: &[Item]) -> Result<&[Instant], String> {
        if let Some(e) = &self.stats.error {
            return Err(e.clone());
        }
        self.acked.clear();
        for item in batch {
            let session =
                self.sessions.entry(item.mover).or_insert_with(|| self.codec.build());
            // A session that has accepted nothing yet knows nothing of
            // the mover's recovered history: a fix at or before the
            // store's latest would fail the store's own check, so it is
            // invalid here, like a stale fix within the session.
            let stale = session.pushed() == 0
                && self.store.latest(item.mover).is_some_and(|t| t >= item.fix.t);
            let accepted = if stale { None } else { session.push(item.fix).ok() };
            let Some(emitted) = accepted else {
                self.stats.invalid += 1;
                traj_obs::counter!("serve", "invalid").inc();
                continue;
            };
            self.log_points(item.mover, emitted)?;
            self.acked.push(item.submitted);
        }
        self.sync_batch()?;
        self.stats.acked += self.acked.len() as u64;
        Ok(&self.acked)
    }

    /// Clean shutdown: flushes every session's open tail, then one
    /// final commit so the WAL ends at a durable point. A failed core
    /// skips both. Returns the shard's lifetime statistics, a flush
    /// failure in [`ShardStats::error`].
    pub(crate) fn finish(mut self) -> ShardStats {
        self.stats.sessions = self.sessions.len();
        if self.stats.error.is_none() {
            let _span = traj_obs::trace_span!("serve.flush", self.sessions.len());
            let _ = std::mem::take(&mut self.sessions)
                .into_iter()
                .try_for_each(|(mover, mut session)| self.log_points(mover, session.finish()))
                .and_then(|()| self.sync_batch());
        }
        self.stats
    }

    /// Buffers a session's emitted points into the WAL.
    fn log_points(&mut self, mover: u64, points: Vec<Fix>) -> Result<(), String> {
        for f in points {
            self.store.buffer(mover, f).map_err(|e| self.fail(&e))?;
            self.stats.emitted += 1;
        }
        Ok(())
    }

    /// Makes everything buffered durable with one fsync.
    fn sync_batch(&mut self) -> Result<(), String> {
        if self.store.pending() > 0 {
            self.store.commit().map_err(|e| self.fail(&e))?;
            self.stats.commits += 1;
        }
        Ok(())
    }

    /// Records the storage failure that stops this core for good.
    fn fail(&mut self, e: &StoreError) -> String {
        let msg = e.to_string();
        self.stats.error = Some(msg.clone());
        msg
    }
}

/// The worker thread: receive a batch, ingest it, stamp its acks; until
/// the queue closes or storage fails. A batch is at most the store's
/// `max_batch` of what queued while the previous batch was ingested.
pub(crate) fn run(mut core: ShardCore, rx: &Receiver) -> ShardStats {
    let shard = core.stats.shard;
    let max_batch = core.store.options().max_batch;
    traj_obs::trace::set_track_label(&format!("serve-shard-{shard}"));
    let depth_gauge = traj_obs::registry().gauge_with(
        "serve",
        "queue_depth",
        &[("shard", &shard.to_string())],
    );
    let acks_ctr = traj_obs::counter!("serve", "acks");
    let ack_hist = traj_obs::histogram!("serve", "ack_latency_ns");
    let batch_hist = traj_obs::histogram!("serve", "batch_fixes");
    let mut ack = LogHistogram::new();
    let mut batch = Vec::new();
    loop {
        batch.clear();
        let open = rx.recv_batch(&mut batch, max_batch);
        if !batch.is_empty() {
            let _span = traj_obs::trace_span!("serve.batch", batch.len());
            batch_hist.record(batch.len() as u64);
            let Ok(acked) = core.ingest(&batch) else { break };
            let now = Instant::now();
            for submitted in acked {
                let ns = u64::try_from(now.saturating_duration_since(*submitted).as_nanos())
                    .unwrap_or(u64::MAX);
                ack.record(ns);
                ack_hist.record(ns);
            }
            acks_ctr.add(acked.len() as u64);
            depth_gauge.set(rx.depth() as f64);
        }
        if !open {
            break;
        }
    }
    let mut stats = core.finish();
    stats.ack = ack;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    use traj_gen::fleet::splitmix64;
    use traj_store::storage::MemStorage;
    use traj_store::{DurableOptions, DurableStore, GroupCommitOptions, IngestMode};

    use crate::queue;

    const MOVERS: usize = 8;
    const EPOCHS: usize = 4;
    const BATCHES: usize = 20;

    /// A seeded splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            splitmix64(self.0) % n
        }
    }

    const DIR: &str = "/shard-0";

    fn open(disk: &Arc<MemStorage>) -> GroupCommitStore {
        let opts = (DurableOptions::default(), GroupCommitOptions::default());
        GroupCommitStore::open_with(disk.clone(), DIR.as_ref(), IngestMode::Raw, opts.0, opts.1)
            .unwrap()
            .0
    }

    /// What a reader recovers from the shard directory.
    fn recover(disk: &Arc<MemStorage>) -> DurableStore {
        let opts = DurableOptions::default();
        DurableStore::open_with(disk.clone(), DIR.as_ref(), IngestMode::Raw, opts).unwrap().0
    }

    /// One seeded run of a shard core over fault-injected storage:
    /// `EPOCHS` crash/restart epochs of `BATCHES` batches, each batch
    /// 1–24 fixes over `MOVERS` movers, 1 fix in 20 NaN and 1 in 20 a
    /// stale repeat. A write budget is armed before 1 batch in 10 and a
    /// failed fsync before 1 in 20. Every epoch ends in a crash: the
    /// core is dropped unfinished, the faults lifted and unsynced bytes
    /// lost. Each restart's recovered store must hold only offered
    /// points, in per-mover time order, and under `raw` every fix ever
    /// acked; the reopened group store's latest time of each mover must
    /// be that of its last recovered fix.
    fn simulate(seed: u64, codec: CodecSpec) {
        let mut rng = Rng(seed << 32);
        let disk = Arc::new(MemStorage::new());
        let base = Instant::now();
        let mut clock = [0.0f64; MOVERS];
        let mut offered: Vec<Vec<Fix>> = vec![Vec::new(); MOVERS];
        // Every submitted (mover, fix); its submit stamp is `base` plus
        // its index + 1 in nanoseconds.
        let mut submitted: Vec<(usize, Fix)> = Vec::new();
        let mut acked: Vec<(usize, Fix)> = Vec::new();
        for epoch in 0..=EPOCHS {
            let recovered = recover(&disk);
            let recovered = recovered.store();
            let store = open(&disk);
            for (m, fixes) in offered.iter().enumerate() {
                let got = recovered.stored_fixes(m as u64).unwrap_or_default();
                assert!(
                    got.windows(2).all(|w| w[0].t < w[1].t),
                    "seed {seed} epoch {epoch}: mover {m} out of time order"
                );
                for f in &got {
                    assert!(fixes.contains(f), "seed {seed}: mover {m}: {f:?} never offered");
                }
                assert_eq!(
                    store.latest(m as u64),
                    got.last().map(|f| f.t),
                    "seed {seed} epoch {epoch}: mover {m}'s latest time"
                );
            }
            assert!(recovered.object_ids().all(|id| id < MOVERS as u64), "seed {seed}");
            if codec == CodecSpec::Raw {
                for (i, (m, f)) in acked.iter().enumerate() {
                    let got = recovered.stored_fixes(*m as u64).unwrap_or_default();
                    assert!(got.contains(f), "seed {seed} epoch {epoch}: acked fix {i} lost");
                }
            }
            if epoch == EPOCHS {
                break;
            }
            let mut core = ShardCore::new(0, store, codec);
            let mut failed = false;
            for _ in 0..BATCHES {
                if rng.below(10) == 0 {
                    disk.arm_write_budget(rng.below(400));
                }
                if rng.below(20) == 0 {
                    disk.arm_sync_failure();
                }
                let n = 1 + rng.below(24);
                let mut batch = Vec::new();
                for _ in 0..n {
                    let m = rng.below(MOVERS as u64) as usize;
                    let fix = match (rng.below(20), offered[m].last()) {
                        (0, _) => Fix::from_parts(f64::NAN, 0.0, 0.0),
                        (1, Some(&last)) => last,
                        _ => {
                            clock[m] += 1.0 + rng.below(10) as f64;
                            let wobble = rng.below(30) as f64;
                            let fix = Fix::from_parts(clock[m], clock[m] * 5.0 + wobble, wobble);
                            offered[m].push(fix);
                            fix
                        }
                    };
                    submitted.push((m, fix));
                    let stamp = base + Duration::from_nanos(submitted.len() as u64);
                    batch.push(Item { mover: m as u64, fix, submitted: stamp });
                }
                let invalid = core.stats.invalid;
                match core.ingest(&batch).map(<[Instant]>::to_vec) {
                    Ok(acks) => {
                        assert!(!failed, "seed {seed}: a batch acked after a failed one");
                        let invalid = core.stats.invalid - invalid;
                        assert_eq!(acks.len() as u64 + invalid, n, "seed {seed}");
                        for stamp in acks {
                            let i = stamp.duration_since(base).as_nanos() as usize;
                            acked.push(submitted[i - 1]);
                        }
                    }
                    Err(_) => failed = true,
                }
            }
            drop(core);
            disk.lift_faults();
            disk.drop_unsynced();
        }
    }

    /// The batching contract: a closed queue holding 1,000 `raw` fixes
    /// over 10 movers drains in full batches of the default `max_batch`
    /// (256), one commit each, and every fix is acknowledged.
    #[test]
    fn run_commits_a_full_queue_in_max_batch_groups() {
        let disk = Arc::new(MemStorage::new());
        let (tx, rx) = queue::bounded(0, 1_000);
        let stamp = Instant::now();
        for k in 0..100u64 {
            for mover in 0..10u64 {
                let fix = Fix::from_parts(k as f64, k as f64, mover as f64);
                tx.try_send(Item { mover, fix, submitted: stamp }).unwrap();
            }
        }
        tx.close();
        let stats = run(ShardCore::new(0, open(&disk), CodecSpec::Raw), &rx);
        assert!(stats.error.is_none(), "{:?}", stats.error);
        assert_eq!(GroupCommitOptions::default().max_batch, 256);
        assert_eq!((stats.acked, stats.emitted), (1_000, 1_000));
        assert_eq!(stats.commits, 4, "256 + 256 + 256 + 232 fixes, one fsync each");
        assert_eq!(stats.ack.count(), 1_000);
    }

    #[test]
    fn seeded_crash_simulation_raw() {
        for seed in 0..250 {
            simulate(seed, CodecSpec::Raw);
        }
    }

    #[test]
    fn seeded_crash_simulation_op_cone() {
        for seed in 0..250 {
            simulate(seed, CodecSpec::OpCone { eps: 10.0 });
        }
    }
}
