//! `fleet_ingest`: open-loop ingest through `trajc serve`'s service.
//!
//! One benchmark-owned submitter thread offers a synthetic fleet's fixes
//! at a fixed rate well below saturation, stamping each with the instant
//! it was *due*, so a stall is charged to the fixes behind it. The
//! service runs with `ServeConfig::default()` (2 shards, op-cone at
//! 30 m, group commit) over shard directories that already hold a prior
//! day, written through the store's API before any timing starts: set-up
//! is therefore the restart an operator pays. A unit is one 50 ms window
//! of offered load; its time is the mean submit→ack latency of the fixes
//! acked in that window.
//!
//! The shard directories live in the store's in-memory [`MemStorage`]
//! backend, where an fsync costs what it costs on tmpfs. On a shared
//! disk, other tenants' I/O stalls fsync for tens of milliseconds, which
//! fills the shard queues and turns the run's latency into a measure of
//! the neighbours.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_gen::fleet::{Fleet, FleetConfig};
use traj_obs::trace::{self, Trace};
use traj_serve::{shard_of, ServeConfig, Service, ShutdownStats, SubmitError};
use traj_store::storage::{MemStorage, Storage};
use traj_store::{DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode};

use crate::batch::{fnv1a, TRACE_CAPACITY};
use crate::metrics::Metrics;
use crate::spans::{insert_self_shares, SpanTotals};
use crate::stats::{mean, median, percentile, spread, tail_percentile};
use crate::{host, Opts, Outcome};

/// Movers in the fleet.
pub const MOVERS: u64 = 10_000;
/// Offered load, fixes per second.
pub const RATE: f64 = 100_000.0;
/// Fixes per mover already in the shards when the service starts.
const PRIOR_FIXES: u64 = 16;
/// Fixes offered during set-up, after the restart (one 50 ms window).
const WARMUP_FIXES: u64 = 5_000;
/// Fixes per unit window (50 ms at [`RATE`]).
const WINDOW_FIXES: u64 = 5_000;
/// Windows per tracing block; a traced run alternates traced and
/// untraced 1 s blocks.
const BLOCK_WINDOWS: u64 = 20;
/// Submitter pacing: it sleeps until a tick after the next due fix.
const TICK: Duration = Duration::from_millis(1);
/// Simulated seconds between one mover's fixes.
const REPORT_DT: f64 = 10.0;

fn counter(subsystem: &str, name: &str) -> u64 {
    traj_obs::registry().counter(subsystem, name).get()
}

/// The `(count, sum ns)` of the service's ack-latency histogram.
fn ack_totals() -> (u64, u64) {
    let s = traj_obs::registry()
        .histogram("serve", "ack_latency_ns")
        .summary();
    (s.count, s.sum)
}

/// The service root inside the in-memory storage.
const ROOT: &str = "/fleet";

/// A fresh storage holding a copy of every file of `from`.
fn copy_storage(from: &MemStorage) -> Result<Arc<MemStorage>, String> {
    let to = MemStorage::new();
    for path in from.file_paths() {
        let bytes = from.file(&path).unwrap_or_default();
        let err = |e: std::io::Error| format!("copying {}: {e}", path.display());
        if let Some(parent) = path.parent() {
            to.create_dir_all(parent).map_err(err)?;
        }
        let mut w = to.create(&path).map_err(err)?;
        w.write_all(&bytes).map_err(err)?;
        w.sync().map_err(err)?;
    }
    Ok(Arc::new(to))
}

/// The fleet of a seed.
pub fn fleet(seed: u64) -> Fleet {
    Fleet::new(FleetConfig {
        movers: MOVERS,
        seed,
        report_dt: REPORT_DT,
    })
}

/// Writes the prior day into `ROOT/shard-K/` of `disk` through the
/// store's group-commit API, exactly where the service will look for it;
/// returns the records written per shard.
fn write_prior_day(
    disk: &Arc<MemStorage>,
    fleet: &Fleet,
    shards: usize,
) -> Result<Vec<u64>, String> {
    let mut stores = (0..shards)
        .map(|k| {
            GroupCommitStore::open_with(
                disk.clone(),
                &Path::new(ROOT).join(format!("shard-{k}")),
                IngestMode::Raw,
                DurableOptions::default(),
                GroupCommitOptions::default(),
            )
            .map(|(s, _)| s)
            .map_err(|e| format!("prior day, shard {k}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut written = vec![0u64; shards];
    for k in 0..PRIOR_FIXES {
        for mover in 0..MOVERS {
            let shard = shard_of(mover, shards);
            let store = &mut stores[shard];
            store
                .buffer(mover, fleet.fix_for(mover, k))
                .map_err(|e| e.to_string())?;
            written[shard] += 1;
            if store.pending() >= 4_096 {
                store.commit().map_err(|e| e.to_string())?;
            }
        }
    }
    for s in &mut stores {
        s.commit().map_err(|e| e.to_string())?;
    }
    Ok(written)
}

/// The benchmark's open-loop submitter over one running service.
struct Load<'a> {
    service: &'a Service,
    fleet: Fleet,
    /// Global index of the next fix: mover `g % MOVERS`, that mover's
    /// fix `PRIOR_FIXES + g / MOVERS`.
    next: u64,
    offered: u64,
    rejected: u64,
    lag_max_s: f64,
    /// Duration of each `submit_at` call, while `time_submits` is set.
    submit_ns: Vec<u64>,
    time_submits: bool,
}

impl<'a> Load<'a> {
    fn new(service: &'a Service, fleet: Fleet) -> Self {
        Load {
            service,
            fleet,
            next: 0,
            offered: 0,
            rejected: 0,
            lag_max_s: 0.0,
            submit_ns: Vec::new(),
            time_submits: false,
        }
    }

    /// Offers `count` fixes, fix `i` due at `start + i / RATE`; calls
    /// `at_window` after every [`WINDOW_FIXES`] fixes.
    fn offer(&mut self, count: u64, start: Instant, mut at_window: impl FnMut(&mut Self, u64)) {
        for i in 0..count {
            let due = start + Duration::from_secs_f64(i as f64 / RATE);
            let now = Instant::now();
            if due > now {
                // Wake once per tick and submit everything due by then:
                // a sleep per fix would wake the submitter (and, through
                // the queue, a shard worker) tens of thousands of times a
                // second, and on a shared 2-CPU host those wake-ups, not
                // the service, would set the latency.
                std::thread::sleep(due - now + TICK);
            }
            self.lag_max_s = self
                .lag_max_s
                .max(Instant::now().duration_since(due).as_secs_f64());
            let g = self.next;
            self.next += 1;
            let mover = g % MOVERS;
            let fix = self.fleet.fix_for(mover, PRIOR_FIXES + g / MOVERS);
            let result = if self.time_submits {
                let t = Instant::now();
                let r = self.service.submit_at(mover, fix, due);
                self.submit_ns.push(t.elapsed().as_nanos() as u64);
                r
            } else {
                self.service.submit_at(mover, fix, due)
            };
            self.offered += 1;
            if let Err(SubmitError::Backpressure { .. } | SubmitError::Closed) = result {
                self.rejected += 1;
            }
            if (i + 1) % WINDOW_FIXES == 0 {
                at_window(self, (i + 1) / WINDOW_FIXES - 1);
            }
        }
    }
}

/// Checks a shut-down service's accounting and its shards' recovery:
/// every offered fix acked, rejected or invalid, and reopening each
/// shard replays exactly its prior day plus what it emitted. Returns
/// the failures, the failed operations (unacked fixes plus shards whose
/// replay mismatched) and a digest of the recovered shards.
fn verify(
    disk: &Arc<MemStorage>,
    stats: &ShutdownStats,
    offered: u64,
    rejected: u64,
    prior: &[u64],
) -> (Vec<String>, u64, u64) {
    let mut failed = offered.saturating_sub(stats.acked);
    let mut failures: Vec<String> = stats.errors.clone();
    if stats.acked + rejected + stats.invalid != offered {
        failures.push(format!(
            "acked {} + rejected {rejected} + invalid {} != offered {offered}",
            stats.acked, stats.invalid
        ));
    }
    if rejected + stats.invalid > 0 {
        failures.push(format!(
            "{rejected} rejected and {} invalid fixes",
            stats.invalid
        ));
    }
    let mut digest = 0;
    for s in &stats.shards {
        let shard_dir = Path::new(ROOT).join(format!("shard-{}", s.shard));
        let reopened = DurableStore::open_with(
            disk.clone(),
            &shard_dir,
            IngestMode::Raw,
            DurableOptions::default(),
        );
        match reopened {
            Ok((store, report)) => {
                let want = prior.get(s.shard).copied().unwrap_or(0) + s.emitted;
                if report.replayed as u64 != want || !report.clean() {
                    failed += 1;
                    failures.push(format!(
                        "shard {}: replayed {} records, want {want} (clean: {})",
                        s.shard,
                        report.replayed,
                        report.clean()
                    ));
                }
                let mut ids: Vec<u64> = store.store().object_ids().collect();
                ids.sort_unstable();
                for id in ids {
                    for f in store.store().stored_fixes(id).unwrap_or_default() {
                        for v in [id as f64, f.t.as_secs(), f.pos.x, f.pos.y] {
                            digest = fnv1a(digest, &v.to_le_bytes());
                        }
                    }
                }
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("shard {}: reopen failed: {e}", s.shard));
            }
        }
    }
    (failures, failed, digest)
}

/// Running totals of one kind of tracing block.
#[derive(Default)]
struct Block {
    cpu_s: f64,
    acks: u64,
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let cfg = ServeConfig::default();
    let fleet = fleet(opts.seed);
    let template = Arc::new(MemStorage::new());
    let prior = write_prior_day(&template, &fleet, cfg.shards)?;
    if opts.trace {
        trace::start_with_capacity(TRACE_CAPACITY);
        drop(traj_obs::trace_span!("bench.prime"));
        let _ = trace::stop();
    }

    // Set-up: restart over the prior day, then one warm-up window.
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut setups, mut recovers) = (Vec::new(), Vec::new());
    let mut replayed = 0u64;
    let mut kept: Option<(Service, Arc<MemStorage>, u64, u64, u64)> = None;
    for rep in 0..opts.setup_reps.max(1) {
        let disk = copy_storage(&template)?;
        let written0 = disk.written_bytes();
        let replayed0 = counter("store", "recovery_replayed");
        let t0 = Instant::now();
        let service = Service::start_with(disk.clone(), Path::new(ROOT), cfg.clone())?;
        recovers.push(t0.elapsed().as_secs_f64() * 1e3);
        replayed = counter("store", "recovery_replayed") - replayed0;
        let mut load = Load::new(&service, fleet);
        load.offer(WARMUP_FIXES, Instant::now(), |_, _| {});
        setups.push(t0.elapsed().as_secs_f64());
        let (offered, rejected, next) = (load.offered, load.rejected, load.next);
        drop(load);
        if rep + 1 < opts.setup_reps {
            let stats = service.shutdown()?;
            let (bad, bad_ops, _) = verify(&disk, &stats, offered, rejected, &prior);
            attempted += offered;
            failed += bad_ops;
            failures.extend(bad);
        } else {
            kept = Some((service, disk, written0, offered, rejected));
            debug_assert_eq!(next, WARMUP_FIXES);
        }
    }
    let (service, disk, written0, warm_offered, warm_rejected) = kept.ok_or("no set-up ran")?;

    // The timed phase: open-loop windows, then a clean shutdown.
    let windows = ((opts.seconds * RATE) as u64 / WINDOW_FIXES)
        .max(opts.min_units as u64)
        .max(1);
    let mut load = Load::new(&service, fleet);
    load.next = WARMUP_FIXES;
    let mut window_ms = Vec::with_capacity(windows as usize);
    let mut depth_max = 0usize;
    let mut blocks = [Block::default(), Block::default()]; // [untraced, traced]
    let mut traced_spans: Vec<SpanTotals> = Vec::new();
    let mut trace_file: Option<Trace> = None;
    let mut dropped = 0u64;
    let acks0 = counter("serve", "acks");
    let fsyncs0 = counter("store", "wal_fsyncs");
    let mut last = ack_totals();
    let cpu0 = (host::process_cpu_s(), host::thread_cpu_s());
    let t0 = Instant::now();
    let block_open = |load: &mut Load, block: u64| -> (f64, f64, u64) {
        if opts.trace && block % 2 == 1 {
            trace::start_with_capacity(TRACE_CAPACITY);
            load.time_submits = true;
        }
        (
            host::process_cpu_s(),
            host::thread_cpu_s(),
            counter("serve", "acks"),
        )
    };
    let mut block_start = block_open(&mut load, 0);
    load.offer(windows * WINDOW_FIXES, t0, |load, w| {
        let now = ack_totals();
        let (n, sum) = (now.0 - last.0, now.1 - last.1);
        if n > 0 {
            window_ms.push(sum as f64 / n as f64 / 1e6);
        }
        last = now;
        depth_max = (0..service.shards())
            .map(|k| service.queue_depth(k))
            .fold(depth_max, usize::max);
        if opts.trace && (w + 1) % BLOCK_WINDOWS == 0 {
            let block = w / BLOCK_WINDOWS;
            let traced = block % 2 == 1;
            let (cpu, thread, acks) = block_start;
            let b = &mut blocks[usize::from(traced)];
            b.cpu_s += (host::process_cpu_s() - cpu) - (host::thread_cpu_s() - thread);
            b.acks += counter("serve", "acks") - acks;
            if traced {
                let tr = trace::stop();
                load.time_submits = false;
                dropped += tr.dropped_total();
                traced_spans.push(SpanTotals::of(&tr, |t| t.label.starts_with("serve-shard")));
                if trace_file.is_none() {
                    trace_file = Some(tr);
                }
            }
            block_start = block_open(load, block + 1);
        }
    });
    let (lag_max_s, submit_ns, offered, rejected) = (
        load.lag_max_s,
        std::mem::take(&mut load.submit_ns),
        load.offered,
        load.rejected,
    );
    drop(load);
    if trace::is_active() {
        let _ = trace::stop();
    }
    let stats = service.shutdown()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let service_cpu_s = (host::process_cpu_s() - cpu0.0) - (host::thread_cpu_s() - cpu0.1);
    let acked = counter("serve", "acks") - acks0;
    let fsyncs = counter("store", "wal_fsyncs") - fsyncs0;
    let wal_bytes = disk.written_bytes() - written0;

    let offered_total = warm_offered + offered;
    let (bad, bad_ops, digest) = verify(
        &disk,
        &stats,
        offered_total,
        warm_rejected + rejected,
        &prior,
    );
    attempted += offered_total;
    failed += bad_ops;
    failures.extend(bad);
    failures.truncate(20);

    let mut metrics = Metrics::new();
    metrics.insert("setup_s".into(), median(&setups).unwrap_or(0.0));
    metrics.insert("unit_ms_p50".into(), median(&window_ms).unwrap_or(0.0));
    metrics.insert(
        "unit_ms_p90".into(),
        percentile(&window_ms, 90.0).unwrap_or(0.0),
    );
    metrics.insert("unit_ms_mean".into(), mean(&window_ms));
    metrics.insert("fixes_per_s".into(), acked as f64 / wall_s);
    metrics.insert(
        "cpu_us_per_fix".into(),
        service_cpu_s * 1e6 / acked.max(1) as f64,
    );
    metrics.insert("peak_rss_mb".into(), host::peak_rss_mb());
    metrics.insert("ack_us_mean".into(), stats.ack.mean() as f64 / 1e3);
    metrics.insert(
        "failed_share".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    let mut info = vec![
        ("units", window_ms.len().to_string()),
        (
            "tail_percentile",
            tail_percentile(window_ms.len()).unwrap_or(50.0).to_string(),
        ),
        ("unit_spread", spread(&window_ms).unwrap_or(0.0).to_string()),
        ("offered_rate_per_s", RATE.to_string()),
        ("movers", MOVERS.to_string()),
        ("submitter_threads", "1".to_string()),
        ("shard_storage", "memory".to_string()),
        ("emitted", stats.emitted.to_string()),
    ];
    if opts.trace {
        let per_fix = |b: &Block| b.cpu_s / b.acks.max(1) as f64;
        if blocks[0].acks > 0 && blocks[1].acks > 0 {
            metrics.insert(
                "obs.trace_overhead_share".into(),
                per_fix(&blocks[1]) / per_fix(&blocks[0]) - 1.0,
            );
        }
        let submit: Vec<f64> = submit_ns.iter().map(|&n| n as f64).collect();
        metrics.insert("serve.submit_ns_p50".into(), median(&submit).unwrap_or(0.0));
        metrics.insert(
            "serve.submit_ns_p99".into(),
            percentile(&submit, 99.0).unwrap_or(0.0),
        );
        metrics.insert("serve.queue_depth_max".into(), depth_max as f64);
        metrics.insert(
            "serve.group_size_mean".into(),
            stats.acked as f64 / stats.commits.max(1) as f64,
        );
        metrics.insert(
            "serve.emitted_share".into(),
            stats.emitted as f64 / stats.acked.max(1) as f64,
        );
        metrics.insert(
            "serve.ack_us_p50".into(),
            stats.ack.quantile(0.50) as f64 / 1e3,
        );
        metrics.insert(
            "serve.ack_us_p99".into(),
            stats.ack.quantile(0.99) as f64 / 1e3,
        );
        metrics.insert(
            "core.kept_share.op-cone".into(),
            stats.emitted as f64 / stats.acked.max(1) as f64,
        );
        metrics.insert("loadgen.lag_ms_max".into(), lag_max_s * 1e3);
        metrics.insert("store.recover_ms".into(), median(&recovers).unwrap_or(0.0));
        metrics.insert("store.replayed".into(), replayed as f64);
        metrics.insert(
            "store.wal_bytes_per_fix".into(),
            wal_bytes as f64 / stats.acked.max(1) as f64,
        );
        metrics.insert("store.fsyncs".into(), fsyncs as f64);
        let (fsync_ms, fsync_n): (f64, u64) = traced_spans
            .iter()
            .map(|s| {
                (
                    s.total_ms(|n| n == "wal.fsync"),
                    s.count(|n| n == "wal.fsync"),
                )
            })
            .fold((0.0, 0), |(a, b), (c, d)| (a + c, b + d));
        metrics.insert(
            "store.fsync_us_mean".into(),
            fsync_ms * 1e3 / fsync_n.max(1) as f64,
        );
        insert_self_shares(&traced_spans, &mut metrics);
        info.push(("traced_blocks", traced_spans.len().to_string()));
        info.push(("trace_dropped_events", dropped.to_string()));
    }
    Ok(Outcome {
        attempted,
        failed,
        failures,
        digest,
        metrics,
        info,
        trace: trace_file,
    })
}
