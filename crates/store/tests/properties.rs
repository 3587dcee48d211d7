//! Property-based tests for the moving-object store and its indexes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use traj_geom::{Bbox, Point2};
use traj_model::{Fix, Timestamp, Trajectory};
use traj_store::query::{build_segment_rtree, rtree_objects_in_window};
use traj_store::storage::{crc32, MemStorage, Storage};
use traj_store::wal::{
    replay_dir, Wal, WalRecord, FIX_PAYLOAD_BYTES, RECORD_HEADER_BYTES, SEGMENT_MAGIC,
};
use traj_store::{
    objects_in_window, position_of, DurableOptions, DurableStore, IngestMode, MovingObjectStore,
    QueryWindow, RecoveryReport, StoreError, WalOptions,
};

/// A small fleet of valid random trajectories.
fn fleet() -> impl Strategy<Value = Vec<Trajectory>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (5.0..20.0f64, -300.0..300.0f64, -300.0..300.0f64),
                3..40,
            ),
            0.0..500.0f64,
            (-3000.0..3000.0f64, -3000.0..3000.0f64),
        )
            .prop_map(|(steps, t0, (x0, y0))| {
                let mut t = t0;
                let (mut x, mut y) = (x0, y0);
                let mut triples = vec![(t, x, y)];
                for (dt, dx, dy) in steps {
                    t += dt;
                    x += dx;
                    y += dy;
                    triples.push((t, x, y));
                }
                Trajectory::from_triples(triples).expect("valid")
            }),
        1..6,
    )
}

/// A long history: 1–3 movers lapping circles of 200–1,500 m radius
/// for 20–25 laps each, so a window placed on a loop is passed through
/// on every lap and only its time interval tells the laps apart.
fn looping_fleet() -> impl Strategy<Value = Vec<Trajectory>> {
    proptest::collection::vec(
        (
            (-1500.0..1500.0f64, -1500.0..1500.0f64),
            200.0..1500.0f64,
            6usize..20,
            20usize..26,
            0.0..std::f64::consts::TAU,
            5.0..20.0f64,
        )
            .prop_map(|((cx, cy), r, per_lap, laps, phase, dt)| {
                Trajectory::from_triples((0..=per_lap * laps).map(|i| {
                    let a = phase + std::f64::consts::TAU * i as f64 / per_lap as f64;
                    (i as f64 * dt, cx + r * a.cos(), cy + r * a.sin())
                }))
                .expect("valid")
            }),
        1..4,
    )
}

fn load(fleet: &[Trajectory], mode: IngestMode) -> MovingObjectStore {
    let mut s = MovingObjectStore::new(mode);
    for (id, t) in fleet.iter().enumerate() {
        s.insert_trajectory(id as u64, t).expect("valid trajectories");
    }
    s
}

proptest! {
    /// The window index and the full scan answer every window query
    /// identically, for raw and compressed stores alike. Each window is
    /// centred on one mover's position at some instant of a 20+ lap
    /// history, so the index must prune by time as well as by space.
    #[test]
    fn window_query_paths_agree(
        fleet in looping_fleet(),
        pick in 0usize..3,
        at in 0.0..1.0f64,
        half in 25.0..1500.0f64,
        span in 10.0..2000.0f64,
        compressed in proptest::bool::ANY,
    ) {
        let mode = if compressed {
            IngestMode::Compressed { epsilon: 40.0, speed_epsilon: None, max_window: 32 }
        } else {
            IngestMode::Raw
        };
        let store = load(&fleet, mode);
        let mover = &fleet[pick % fleet.len()];
        let t = mover.start_time().lerp(mover.end_time(), at);
        let p = traj_model::interp::position_at(mover, t).expect("inside the span");
        let window = QueryWindow::new(
            Point2::new(p.x - half, p.y - half),
            Point2::new(p.x + half, p.y + half),
            t.as_secs() - span / 2.0,
            t.as_secs() + span / 2.0,
        );
        let scan = objects_in_window(&store, &window);
        let rtree = rtree_objects_in_window(&build_segment_rtree(&store), &window);
        prop_assert_eq!(&rtree, &scan);
    }

    /// Every window hit is justified: the object's stored motion really
    /// enters the box during the interval (verified by dense sampling).
    #[test]
    fn window_hits_are_sound(
        fleet in fleet(),
        cx in -2000.0..2000.0f64,
        cy in -2000.0..2000.0f64,
        w in 200.0..4000.0f64,
        t0 in 0.0..600.0f64,
        span in 50.0..500.0f64,
    ) {
        let store = load(&fleet, IngestMode::Raw);
        let bbox = Bbox::from_corners(Point2::new(cx, cy), Point2::new(cx + w, cy + w));
        let window = QueryWindow { bbox, t0: Timestamp::from_secs(t0), t1: Timestamp::from_secs(t0 + span) };
        for id in objects_in_window(&store, &window) {
            // Densely sample the motion over the window.
            let mut found = false;
            let steps = 400;
            for k in 0..=steps {
                let t = Timestamp::from_secs(t0 + span * k as f64 / steps as f64);
                if let Some(p) = position_of(&store, id, t) {
                    // Tolerance: the crossing may fall between samples.
                    if bbox.expanded(w.max(span) * 0.05 + 5.0).contains(p) {
                        found = true;
                        break;
                    }
                }
            }
            prop_assert!(found, "object {id} reported but never near the window");
        }
    }

    /// Compressed ingest honours the error budget at every original
    /// sample instant.
    #[test]
    fn compressed_store_error_budget(fleet in fleet(), eps in 5.0..100.0f64) {
        let store = load(
            &fleet,
            IngestMode::Compressed { epsilon: eps, speed_epsilon: None, max_window: 24 },
        );
        for (id, traj) in fleet.iter().enumerate() {
            for fix in traj.fixes() {
                let p = position_of(&store, id as u64, fix.t).expect("instant covered");
                prop_assert!(
                    p.distance(fix.pos) <= eps + 1e-6,
                    "object {id}: {} m over budget {eps}",
                    p.distance(fix.pos)
                );
            }
        }
    }

    /// Store statistics are conserved: ingested = Σ input lengths,
    /// stored ≤ ingested, raw mode stores everything.
    #[test]
    fn stats_conservation(fleet in fleet()) {
        let total: usize = fleet.iter().map(|t| t.len()).sum();
        let raw = load(&fleet, IngestMode::Raw);
        prop_assert_eq!(raw.stats().ingested_points, total);
        prop_assert_eq!(raw.stats().stored_points, total);
        let comp = load(
            &fleet,
            IngestMode::Compressed { epsilon: 50.0, speed_epsilon: None, max_window: 32 },
        );
        prop_assert_eq!(comp.stats().ingested_points, total);
        prop_assert!(comp.stats().stored_points <= total);
        prop_assert_eq!(comp.stats().objects, fleet.len());
    }

    /// The stored trajectory's span always reaches the latest ingested
    /// fix, compressed or not.
    #[test]
    fn span_reaches_latest(fleet in fleet(), compressed in proptest::bool::ANY) {
        let mode = if compressed {
            IngestMode::Compressed { epsilon: 30.0, speed_epsilon: Some(5.0), max_window: 16 }
        } else {
            IngestMode::Raw
        };
        let store = load(&fleet, mode);
        for (id, traj) in fleet.iter().enumerate() {
            let stored = store.trajectory(id as u64).expect("object exists");
            prop_assert_eq!(stored.start_time(), traj.start_time());
            prop_assert_eq!(stored.end_time(), traj.end_time());
        }
    }
}

proptest! {
    /// Tearing the final WAL record at any interior byte loses exactly
    /// that record: recovery reports the torn tail and restores every
    /// earlier acknowledged fix, in order.
    #[test]
    fn torn_final_record_recovery_preserves_acknowledged_fixes(
        steps in proptest::collection::vec((1.0..15.0f64, -40.0..40.0f64, -40.0..40.0f64), 2..25),
        cut in 1..41usize,
    ) {
        let disk = Arc::new(MemStorage::new());
        let opts = DurableOptions::default();
        let mut acked = Vec::new();
        {
            let (mut store, _) =
                DurableStore::open_with(disk.clone(), Path::new("/db"), IngestMode::Raw, opts)
                    .expect("fresh open");
            let (mut t, mut x, mut y) = (0.0f64, 0.0f64, 0.0f64);
            for (dt, dx, dy) in steps {
                t += dt;
                x += dx;
                y += dy;
                let f = Fix::from_parts(t, x, y);
                store.append(7, f).expect("append");
                acked.push(f);
            }
        }
        // Tear into the last record of the newest segment. Records are
        // 41 bytes (8-byte header + 33-byte payload), so any cut of
        // 1..=40 trailing bytes lands strictly inside it.
        let seg = disk
            .file_paths()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("wal-"))
            .max()
            .expect("a WAL segment exists");
        let len = disk.file(&seg).expect("segment bytes").len();
        prop_assert!(disk.truncate_file(&seg, len - cut));
        let (store, report) =
            DurableStore::open_with(disk.clone(), Path::new("/db"), IngestMode::Raw, opts)
                .expect("recovery");
        prop_assert!(report.torn_tail, "a mid-record tear must be reported");
        prop_assert_eq!(report.skipped_corrupt, 0);
        let recovered = store.store().stored_fixes(7).expect("object survives");
        prop_assert_eq!(recovered.len(), acked.len() - 1, "exactly the torn record is lost");
        prop_assert_eq!(recovered.as_slice(), &acked[..acked.len() - 1]);
    }
}

/// The WAL directory of the decoder tests.
const WAL_DIR: &str = "/wal";

/// Appends `n` distinct fixes through the real [`Wal`] into `disk`,
/// rotating every `segment_max_bytes`, and returns them in append order.
fn write_wal(disk: &Arc<MemStorage>, n: usize, segment_max_bytes: u64) -> Vec<WalRecord> {
    let opts = WalOptions { segment_max_bytes };
    let mut wal = Wal::open(disk.clone(), Path::new(WAL_DIR), opts).expect("open WAL");
    (0..n)
        .map(|i| {
            let rec = WalRecord {
                id: (i % 3) as u64,
                fix: Fix::from_parts(i as f64, i as f64 * 2.5, -(i as f64)),
            };
            wal.append(rec.id, &rec.fix).expect("append");
            rec
        })
        .collect()
}

/// Every replayed record was written, in append order: `got` is a
/// subsequence of `written`.
fn is_written_subsequence(got: &[WalRecord], written: &[WalRecord]) -> bool {
    let mut rest = written.iter();
    got.iter().all(|g| rest.any(|w| w == g))
}

/// Writes `bytes` as segment file `seq` of the decoder tests' WAL.
fn put_segment(disk: &MemStorage, seq: usize, bytes: &[u8]) {
    let path = Path::new(WAL_DIR).join(format!("wal-{seq:08}.log"));
    let mut w = disk.create(&path).expect("create segment");
    w.write_all(bytes).expect("write segment");
    w.sync().expect("sync segment");
}

proptest! {
    /// Byte soup: segments built from arbitrary bytes, the segment
    /// magic, and whole and cut valid records, in any order. The decoder
    /// returns a summary that counts what it returned, never panics, and
    /// every record it returns is one of the valid records spliced in.
    #[test]
    fn wal_replay_survives_byte_soup(
        segments in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((0u8..5, 0u8..=255, 0usize..41), 0..12),
            ),
            1..4,
        ),
    ) {
        let source = Arc::new(MemStorage::new());
        let written = write_wal(&source, 8, 1 << 20);
        let seg = source.file_paths().pop().expect("one segment written");
        let valid = source.file(&seg).expect("segment bytes");
        let record = RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES;
        let disk = MemStorage::new();
        disk.create_dir_all(Path::new(WAL_DIR)).expect("mkdir");
        for (seq, (magic, chunks)) in segments.iter().enumerate() {
            let mut bytes = Vec::new();
            if *magic {
                bytes.extend_from_slice(SEGMENT_MAGIC);
            }
            for &(kind, byte, len) in chunks {
                // A valid record chosen by `byte`: whole, or its first
                // `len` bytes.
                let at = SEGMENT_MAGIC.len() + usize::from(byte) % written.len() * record;
                match kind {
                    0 => bytes.extend_from_slice(&valid[at..at + record]),
                    1 => bytes.extend_from_slice(&valid[at..at + len.min(record)]),
                    // The segment magic in the middle of a segment.
                    2 => bytes.extend_from_slice(SEGMENT_MAGIC),
                    // A run of one byte value, and a run of counting bytes.
                    3 => bytes.resize(bytes.len() + len, byte),
                    _ => bytes.extend((0..len).map(|i| byte.wrapping_add((i * 37) as u8))),
                }
            }
            put_segment(&disk, seq + 1, &bytes);
        }
        let (records, summary) =
            replay_dir(&disk, Path::new(WAL_DIR)).expect("soup is data, not an I/O error");
        prop_assert_eq!(summary.segments, segments.len());
        prop_assert_eq!(summary.records, records.len());
        for r in &records {
            prop_assert!(written.contains(r), "decoded a record never written: {r:?}");
        }
    }

    /// Valid multi-segment WALs with random byte flips and truncations:
    /// replay returns a summary, never panics, and returns only written
    /// records, in append order; an undamaged WAL replays in full.
    #[test]
    fn wal_replay_survives_flips_and_truncations(
        n in 1usize..40,
        damage in proptest::collection::vec(
            (any::<bool>(), any::<prop::sample::Index>(), any::<prop::sample::Index>(), 1u8..=255),
            0..6,
        ),
    ) {
        let disk = Arc::new(MemStorage::new());
        // 200-byte segments hold four records each, so most runs rotate.
        let written = write_wal(&disk, n, 200);
        let segments = disk.file_paths();
        for (truncate, which, at, mask) in &damage {
            let path = &segments[which.index(segments.len())];
            let len = disk.file(path).expect("segment bytes").len();
            if len == 0 {
                continue;
            }
            if *truncate {
                prop_assert!(disk.truncate_file(path, at.index(len)));
            } else {
                prop_assert!(disk.corrupt_byte(path, at.index(len), *mask));
            }
        }
        let (records, summary) = replay_dir(disk.as_ref(), Path::new(WAL_DIR))
            .expect("damage is data, not an I/O error");
        prop_assert_eq!(summary.segments, segments.len());
        prop_assert_eq!(summary.records, records.len());
        prop_assert!(
            is_written_subsequence(&records, &written),
            "replay returned a record never written, or out of order"
        );
        if damage.is_empty() {
            prop_assert_eq!(records, written);
            prop_assert!(!summary.torn_tail);
        }
    }
}

/// The store directory of the checkpoint tests.
const DB: &str = "/db";

fn checkpoint_path() -> PathBuf {
    Path::new(DB).join(DurableStore::SNAPSHOT_DIR).join(DurableStore::CHECKPOINT_FILE)
}

fn open_db(
    disk: &Arc<MemStorage>,
    mode: IngestMode,
) -> Result<(DurableStore, RecoveryReport), StoreError> {
    DurableStore::open_with(disk.clone(), Path::new(DB), mode, DurableOptions::default())
}

/// Each object's stored fixes, ascending by id.
fn stored(store: &MovingObjectStore) -> Vec<(u64, Vec<Fix>)> {
    store.object_ids().map(|id| (id, store.stored_fixes(id).expect("listed object"))).collect()
}

/// Replaces the checkpoint on `disk` with `bytes`.
fn put_checkpoint(disk: &MemStorage, bytes: &[u8]) {
    let mut w = disk.create(&checkpoint_path()).expect("create checkpoint");
    w.write_all(bytes).expect("write checkpoint");
    w.sync().expect("sync checkpoint");
}

/// A raw store, or one compressing with a tight budget.
fn ingest_mode(compressed: bool) -> IngestMode {
    if compressed {
        IngestMode::Compressed { epsilon: 20.0, speed_epsilon: None, max_window: 16 }
    } else {
        IngestMode::Raw
    }
}

/// Ingests `fleet` (object `i` is `fleet[i]`) into a fresh store on
/// `disk` and snapshots it. Returns the stored fixes the checkpoint holds.
fn snapshot_fleet(
    disk: &Arc<MemStorage>,
    mode: IngestMode,
    fleet: &[Trajectory],
) -> Result<Vec<(u64, Vec<Fix>)>, TestCaseError> {
    let (mut db, _) = open_db(disk, mode).expect("fresh open");
    for (id, traj) in fleet.iter().enumerate() {
        for fix in traj.fixes() {
            db.append(id as u64, *fix).expect("valid fix");
        }
    }
    prop_assert_eq!(db.snapshot().expect("snapshot"), fleet.len());
    Ok(stored(db.store()))
}

proptest! {
    /// Snapshot → reopen → snapshot is a byte-for-byte fixpoint, raw or
    /// compressed: a checkpoint round-trips exactly through the loader
    /// (no re-compression, no reordering), so repeated snapshot cycles
    /// can never drift.
    #[test]
    fn save_load_save_is_a_fixpoint(fleet in fleet(), compressed in any::<bool>()) {
        let mode = ingest_mode(compressed);
        let disk = Arc::new(MemStorage::new());
        let expected = snapshot_fleet(&disk, mode, &fleet)?;
        let first = disk.file(&checkpoint_path()).expect("checkpoint written");
        let (mut db, report) = open_db(&disk, mode).expect("reopen");
        prop_assert_eq!(report.replayed, 0);
        prop_assert_eq!(stored(db.store()), expected);
        prop_assert_eq!(db.snapshot().expect("second snapshot"), fleet.len());
        let second = disk.file(&checkpoint_path()).expect("checkpoint rewritten");
        prop_assert!(first == second, "the checkpoint drifted across a load cycle");
    }

    /// A checkpoint loads whole or not at all. Untouched, it restores
    /// exactly the stored fixes of a raw or compressed store. Any flipped
    /// byte, the seal's included, and any cut, at any byte or at a record
    /// boundary (where every record before it still decodes), is a typed
    /// data error: never a panic, never a partial store.
    #[test]
    fn snapshot_decoder_survives_flips_and_truncations(
        fleet in fleet(),
        compressed in any::<bool>(),
        damage in proptest::collection::vec(
            (0u8..4, any::<prop::sample::Index>(), 1u8..=255),
            0..3,
        ),
    ) {
        let mode = ingest_mode(compressed);
        let disk = Arc::new(MemStorage::new());
        let expected = snapshot_fleet(&disk, mode, &fleet)?;
        let pristine = disk.file(&checkpoint_path()).expect("checkpoint written");
        let record = RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES;
        let records = (pristine.len() - SEGMENT_MAGIC.len()) / record;
        let mut bytes = pristine.clone();
        for &(kind, at, mask) in &damage {
            let len = bytes.len();
            if len == 0 {
                break;
            }
            match kind {
                0 => bytes[at.index(len)] ^= mask,
                1 => bytes.truncate(at.index(len)),
                2 => bytes.truncate(len.min(SEGMENT_MAGIC.len() + at.index(records + 1) * record)),
                // One of the last four bytes: the seal.
                _ => bytes[len - 1 - at.index(len.min(4))] ^= mask,
            }
        }
        put_checkpoint(&disk, &bytes);
        match open_db(&disk, mode) {
            Ok((db, report)) => {
                prop_assert!(bytes == pristine, "a damaged checkpoint loaded: {report:?}");
                prop_assert_eq!(report.snapshot_objects, fleet.len());
                prop_assert_eq!(report.replayed, 0);
                prop_assert_eq!(stored(db.store()), expected);
            }
            Err(e) => {
                prop_assert!(bytes != pristine, "an untouched checkpoint failed: {e}");
                prop_assert!(
                    matches!(e, StoreError::Corrupt { .. } | StoreError::Model(_)),
                    "damage is data, not an I/O error: {e}"
                );
            }
        }
    }

    /// Sealed soup: files built from the segment magic, whole and cut
    /// valid records and runs of arbitrary bytes, in any order, each with
    /// a correct seal, so the checks behind the seal decide. Opening
    /// returns a store or a typed data error, never panics, and a store
    /// holds only fixes that were written, one per record, with every
    /// byte of the file accounted for by a record it loaded.
    #[test]
    fn snapshot_decoder_survives_byte_soup(
        magic in any::<bool>(),
        chunks in proptest::collection::vec((0u8..5, 0u8..=255, 0usize..41), 0..12),
    ) {
        let source = Arc::new(MemStorage::new());
        let written = write_wal(&source, 8, 1 << 20);
        let seg = source.file_paths().pop().expect("one segment written");
        let valid = source.file(&seg).expect("segment bytes");
        let record = RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES;
        let mut bytes = Vec::new();
        if magic {
            bytes.extend_from_slice(SEGMENT_MAGIC);
        }
        for &(kind, byte, len) in &chunks {
            let at = SEGMENT_MAGIC.len() + usize::from(byte) % written.len() * record;
            match kind {
                0 => bytes.extend_from_slice(&valid[at..at + record]),
                1 => bytes.extend_from_slice(&valid[at..at + len.min(record)]),
                2 => bytes.extend_from_slice(SEGMENT_MAGIC),
                3 => bytes.resize(bytes.len() + len, byte),
                _ => bytes.extend((0..len).map(|i| byte.wrapping_add((i * 37) as u8))),
            }
        }
        let seal = crc32(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());
        let disk = Arc::new(MemStorage::new());
        disk.create_dir_all(&Path::new(DB).join(DurableStore::SNAPSHOT_DIR)).expect("mkdir");
        put_checkpoint(&disk, &bytes);
        match open_db(&disk, IngestMode::Raw) {
            Ok((db, report)) => {
                let objects = stored(db.store());
                let loaded: usize = objects.iter().map(|(_, fixes)| fixes.len()).sum();
                prop_assert_eq!(report.snapshot_objects, objects.len());
                prop_assert_eq!(report.snapshot_fixes, loaded);
                prop_assert_eq!(bytes.len(), SEGMENT_MAGIC.len() + loaded * record + 4);
                for (id, fixes) in objects {
                    for fix in fixes {
                        prop_assert!(
                            written.contains(&WalRecord { id, fix }),
                            "loaded a fix never written: {id} {fix:?}"
                        );
                    }
                }
            }
            Err(e) => prop_assert!(
                matches!(e, StoreError::Corrupt { .. } | StoreError::Model(_)),
                "soup is data, not an I/O error: {e}"
            ),
        }
    }
}
