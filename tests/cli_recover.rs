//! `trajc store recover <shard>` counts what it recovers without
//! building the history: it opens the shard through the group store's
//! latest-time map and reports its size as the objects and
//! `snapshot_fixes + replayed` as the fixes. This pins those counts, and
//! the report's checkpoint, replay and corruption lines, to what
//! `DurableStore::open_with` rebuilds from a copy of the same damaged
//! directory: a served history that is cut or bit-flipped, an optional
//! checkpoint, and a segment of crafted records whose values are
//! non-finite, repeated or out of order. Where one open fails, so must
//! the other.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::sample::Index;
use trajc::cli::{run, Command};
use trajc::model::Fix;
use trajc::store::storage::{crc32, FsStorage};
use trajc::store::wal::{FIX_PAYLOAD_BYTES, KIND_APPEND_FIX, SEGMENT_MAGIC};
use trajc::store::{
    DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode, WalOptions,
};

/// Small segments, so a served history spans several.
fn small_segments() -> DurableOptions {
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

/// Serves `fixes` fixes of three movers into `shard` through the group
/// store, as `trajc serve --algo raw` logs them.
fn serve_history(shard: &Path, fixes: usize) {
    let (mut store, _) = GroupCommitStore::open_with(
        Arc::new(FsStorage),
        shard,
        IngestMode::Raw,
        small_segments(),
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
fn files_in(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    files
}

/// Copies the shard directory `from` (its `wal/` and `snapshot/`) to `to`.
fn copy_shard(from: &Path, to: &Path) {
    for sub in [DurableStore::WAL_DIR, DurableStore::SNAPSHOT_DIR] {
        std::fs::create_dir_all(to.join(sub)).expect("create the copy");
        for file in files_in(&from.join(sub)) {
            let name = file.file_name().expect("a file name");
            std::fs::copy(&file, to.join(sub).join(name)).expect("copy a file");
        }
    }
}

/// The report line that starts with `label`.
fn line<'r>(report: &'r str, label: &str) -> &'r str {
    report.lines().find(|l| l.starts_with(label)).unwrap_or("")
}

/// The crafted records' values: ordinary, extreme and non-finite.
const VALUES: &[f64] = &[0.0, 5.0, 25.0, 1e308, f64::NAN, f64::INFINITY];

proptest! {
    #[test]
    fn recover_counts_equal_the_durable_store_on_damaged_shards(
        served in 0usize..30,
        checkpoint in proptest::bool::ANY,
        damage in (0u8..3, any::<Index>(), any::<Index>(), 1u8..=255),
        crafted in proptest::collection::vec((0u64..4, 0usize..6, 0usize..6), 0..6),
    ) {
        let root = std::env::temp_dir()
            .join(format!("trajc_cli_recover_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (shard, copy) = (root.join("shard"), root.join("copy"));
        serve_history(&shard, served);
        if checkpoint {
            let (mut db, _) = DurableStore::open(&shard, IngestMode::Raw, small_segments())
                .expect("recover the served shard");
            db.snapshot().expect("snapshot");
        }
        // Cut or flip one segment of the served log.
        let wal = shard.join(DurableStore::WAL_DIR);
        let logged = files_in(&wal);
        let (kind, which, at, mask) = damage;
        if kind > 0 && !logged.is_empty() {
            let path = &logged[which.index(logged.len())];
            let mut bytes = std::fs::read(path).expect("read a segment");
            let len = bytes.len();
            if kind == 1 {
                bytes.truncate(at.index(len + 1));
            } else if len > 0 {
                bytes[at.index(len)] ^= mask;
            }
            std::fs::write(path, bytes).expect("write the damaged segment");
        }
        // A last segment of checksummed records, some of them repeats,
        // time travel or non-finite.
        let mut tail = SEGMENT_MAGIC.to_vec();
        for &(id, t, x) in &crafted {
            tail.extend(crafted_record(id, VALUES[t] + 1e4, VALUES[x], 1.0));
        }
        std::fs::create_dir_all(&wal).expect("create the WAL directory");
        let seq = logged.len() + 1;
        std::fs::write(wal.join(format!("wal-{seq:08}.log")), tail).expect("write a segment");

        copy_shard(&shard, &copy);
        let printed = run(&Command::StoreRecover { dir: shard.clone(), snapshot: false });
        let durable = DurableStore::open_with(
            Arc::new(FsStorage),
            &copy,
            IngestMode::Raw,
            DurableOptions::default(),
        );
        match (printed, durable) {
            (Ok(report), Ok((db, r))) => {
                let s = db.store().stats();
                prop_assert_eq!(
                    line(&report, "recovered state:"),
                    format!("recovered state:  {} objects, {} fixes", s.objects, s.stored_points)
                );
                let (objects, fixes) = (r.snapshot_objects, r.snapshot_fixes);
                prop_assert_eq!(
                    line(&report, "snapshot:"),
                    format!("snapshot:         {objects} objects, {fixes} fixes")
                );
                prop_assert_eq!(
                    line(&report, "replayed:"),
                    format!("replayed:         {} records", r.replayed)
                );
                prop_assert_eq!(
                    line(&report, "skipped corrupt:"),
                    format!("skipped corrupt:  {} records", r.skipped_corrupt)
                );
            }
            (Err(_), Err(_)) => {}
            (printed, durable) => prop_assert!(
                false,
                "recover printed {:?}, the durable store opened {:?}",
                printed,
                durable.map(|(_, r)| r)
            ),
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
