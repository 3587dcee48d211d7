//! Hostile shard directories through the restart path.
//!
//! Each case builds `<root>/shard-0/` on the real filesystem: a served
//! history written through the group store and then cut or bit-flipped,
//! WAL segments of byte soup (the segment magic, whole and cut records,
//! records whose values are non-finite or at the edges of `f64`, junk),
//! and a checkpoint that is missing, valid, damaged, sealed soup or
//! unsealed soup, with or without a stray `*.tmp` and a snapshot file of
//! the older `*.csv` format. It then runs what an operator runs on such
//! a directory: `trajc store recover <shard>`, a restart of the root with
//! `Service::start_with` over `FsStorage` (what `trajc serve` does before
//! it reads stdin) that takes two fixes, `trajc store recover <shard>
//! --snapshot`, and the restart again. Each must return `Ok` or `Err`,
//! never panic, and no shard worker may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::sample::Index;
use traj_serve::{ServeConfig, Service};
use trajc::cli::{run, Command};
use trajc::model::Fix;
use trajc::store::storage::{crc32, FsStorage};
use trajc::store::wal::{FIX_PAYLOAD_BYTES, KIND_APPEND_FIX, RECORD_HEADER_BYTES, SEGMENT_MAGIC};
use trajc::store::{
    DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode, WalOptions,
};

/// Ids, times and coordinates of the crafted records.
const IDS: &[u64] = &[0, 1, 2, u64::MAX];
const VALUES: &[f64] = &[
    0.0,
    1.0,
    -1.0,
    1e308,
    -1e308,
    f64::MAX,
    5e-324,
    1e15,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// The root of this test process, emptied at the start of each case and
/// removed at the end of each passing one.
fn fresh_root() -> PathBuf {
    let root = std::env::temp_dir().join(format!("trajc_cli_shards_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("create the root");
    root
}

/// Small segments, so a served history spans several.
fn opts() -> DurableOptions {
    DurableOptions { wal: WalOptions { segment_max_bytes: 300 } }
}

/// A record framed and checksummed as the writer frames one.
fn crafted_record(id: u64, t: f64, x: f64, y: f64) -> Vec<u8> {
    let mut payload = vec![KIND_APPEND_FIX];
    for bytes in [id.to_le_bytes(), t.to_le_bytes(), x.to_le_bytes(), y.to_le_bytes()] {
        payload.extend_from_slice(&bytes);
    }
    let mut out = (FIX_PAYLOAD_BYTES as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Byte soup from `chunks`, splicing in records of `valid` (a segment).
fn soup(magic: bool, chunks: &[(u8, u8, usize)], valid: &[u8]) -> Vec<u8> {
    let record = RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES;
    let records = valid.len().saturating_sub(SEGMENT_MAGIC.len()) / record;
    let mut bytes = Vec::new();
    if magic {
        bytes.extend_from_slice(SEGMENT_MAGIC);
    }
    for &(kind, byte, len) in chunks {
        let b = usize::from(byte);
        let at = SEGMENT_MAGIC.len() + b % records.max(1) * record;
        match kind {
            0 if records > 0 => bytes.extend_from_slice(&valid[at..at + record]),
            1 if records > 0 => bytes.extend_from_slice(&valid[at..at + len.min(record)]),
            2 => {
                let (id, t) = (IDS[b % IDS.len()], VALUES[b % VALUES.len()]);
                let (x, y) = (VALUES[(b / 3) % VALUES.len()], VALUES[len % VALUES.len()]);
                bytes.extend(crafted_record(id, t, x, y));
            }
            3 => bytes.extend_from_slice(SEGMENT_MAGIC),
            _ => bytes.extend((0..len).map(|i| byte.wrapping_add((i * 37) as u8))),
        }
    }
    bytes
}

/// Serves `fixes` fixes of three movers into `shard` through the group
/// store, as `trajc serve --algo raw` logs them.
fn serve_history(shard: &Path, fixes: usize) {
    let (mut store, _) = GroupCommitStore::open_with(
        Arc::new(FsStorage),
        shard,
        IngestMode::Raw,
        opts(),
        GroupCommitOptions::default(),
    )
    .expect("open a new shard");
    for i in 0..fixes {
        let fix = Fix::from_parts((i / 3) as f64 * 10.0, i as f64, -(i as f64));
        store.buffer((i % 3) as u64, fix).expect("a later fix");
    }
    store.commit().expect("commit");
}

/// The files directly under `dir`, sorted.
fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    files
}

/// Soup chunks: a kind, a byte and a length (see [`soup`]).
fn chunks() -> impl Strategy<Value = Vec<(u8, u8, usize)>> {
    proptest::collection::vec((0u8..5, 0u8..=255, 0usize..41), 0..10)
}

/// Cuts `path` at `at`, or flips its byte `at` with `mask`.
fn damage(path: &Path, cut: bool, at: Index, mask: u8) {
    let mut bytes = std::fs::read(path).expect("read the file to damage");
    let len = bytes.len();
    if cut {
        bytes.truncate(at.index(len + 1));
    } else if len > 0 {
        bytes[at.index(len)] ^= mask;
    }
    std::fs::write(path, bytes).expect("write the damaged file");
}

/// Runs `cmd`, which may succeed or fail; a panic fails the case.
fn recover_guarded(cmd: &Command) -> Result<(), TestCaseError> {
    catch_unwind(|| drop(run(cmd))).map_err(|_| TestCaseError::fail(format!("{cmd:?} panicked")))
}

/// Restarts the service over `root` and, if it starts, offers two fixes
/// and shuts it down; a panic, in the caller or a shard worker, fails
/// the case.
fn restart_guarded(root: &Path) -> Result<(), TestCaseError> {
    let cfg = ServeConfig { shards: 1, ..ServeConfig::default() };
    let start = AssertUnwindSafe(|| Service::start_with(Arc::new(FsStorage), root, cfg));
    let started =
        catch_unwind(start).map_err(|_| TestCaseError::fail("Service::start_with panicked"))?;
    let Ok(service) = started else { return Ok(()) };
    for (mover, t) in [(0, 1e9), (u64::MAX, 1e9)] {
        let _ = service.submit(mover, Fix::from_parts(t, 1.0, 2.0));
    }
    match service.shutdown() {
        Err(e) if e.contains("panicked") => Err(TestCaseError::fail(format!("shutdown: {e}"))),
        _ => Ok(()),
    }
}

proptest! {
    /// Recovery and restart return `Ok` or `Err` on hostile shard
    /// directories, never panic.
    #[test]
    fn recover_and_restart_never_panic_on_hostile_shards(
        served in 0usize..25,
        served_damage in (0u8..3, any::<Index>(), any::<Index>(), 1u8..=255),
        segments in proptest::collection::vec((proptest::bool::ANY, chunks()), 0..3),
        checkpoint in 0u8..5,
        checkpoint_damage in (proptest::bool::ANY, any::<Index>(), 1u8..=255),
        checkpoint_soup in chunks(),
        stray_tmp in proptest::bool::ANY,
        old_csv in 0u8..8,
    ) {
        let root = fresh_root();
        let shard = root.join("shard-0");
        let wal = shard.join(DurableStore::WAL_DIR);
        let snap = shard.join(DurableStore::SNAPSHOT_DIR);
        serve_history(&shard, served);
        let valid = files_in(&wal).first().and_then(|p| std::fs::read(p).ok()).unwrap_or_default();

        // The checkpoint: none, valid, damaged, sealed soup, unsealed soup.
        let path = snap.join(DurableStore::CHECKPOINT_FILE);
        match checkpoint {
            1 | 2 => {
                let (mut db, _) = DurableStore::open(&shard, IngestMode::Raw, opts())
                    .expect("recover the served shard");
                db.snapshot().expect("snapshot");
                drop(db);
                if checkpoint == 2 {
                    let (cut, at, mask) = checkpoint_damage;
                    damage(&path, cut, at, mask);
                }
            }
            3 | 4 => {
                let mut bytes = soup(true, &checkpoint_soup, &valid);
                if checkpoint == 3 {
                    let seal = crc32(&bytes);
                    bytes.extend_from_slice(&seal.to_le_bytes());
                }
                std::fs::write(&path, bytes).expect("write the checkpoint");
            }
            _ => {}
        }

        // The served log, cut or flipped in one segment, and soup
        // segments after it.
        let (kind, which, at, mask) = served_damage;
        let logged = files_in(&wal);
        if kind > 0 && !logged.is_empty() {
            damage(&logged[which.index(logged.len())], kind == 1, at, mask);
        }
        std::fs::create_dir_all(&wal).expect("create the WAL directory");
        for (k, (magic, chunks)) in segments.iter().enumerate() {
            let seq = logged.len() + 1 + k;
            let bytes = soup(*magic, chunks, &valid);
            std::fs::write(wal.join(format!("wal-{seq:08}.log")), bytes).expect("write a segment");
        }
        if stray_tmp {
            std::fs::write(snap.join("checkpoint.tmp"), b"TRAJWAL1 torn").expect("write the tmp");
        }
        if old_csv == 0 {
            std::fs::write(snap.join("3.csv"), "t,x,y\n0,0,0\n").expect("write the csv");
        }

        recover_guarded(&Command::StoreRecover { dir: shard.clone(), snapshot: false })?;
        restart_guarded(&root)?;
        recover_guarded(&Command::StoreRecover { dir: shard.clone(), snapshot: true })?;
        restart_guarded(&root)?;
        std::fs::remove_dir_all(&root).ok();
    }
}
