//! The checkpoint file: a store's whole state as one sealed WAL segment.
//!
//! [`DurableStore::snapshot`](crate::DurableStore::snapshot) persists the
//! in-memory store with [`write_checkpoint`], and recovery
//! ([`crate::recover`]) reads it back into either store's state with
//! [`load_checkpoint`]. The file is the WAL's segment magic, then every
//! object's stored fixes as WAL append records (one run per object,
//! ascending id), then a 4-byte seal: the CRC-32 of every byte before it.
//! The log and the checkpoint therefore share one record encoder and one
//! decoder, the WAL's [`scan_segment`] (byte-level spec:
//! `crates/store/README.md`).

use std::path::Path;

use traj_model::Fix;

use crate::durable::{io_err, RecoveryReport};
use crate::recover::RecoverySink;
use crate::storage::{crc32, crc32_update, Storage};
use crate::store::{MovingObjectStore, ObjectId, StoreError};
use crate::wal::{encode_record, scan_segment, ReplaySummary};
use crate::wal::{FIX_PAYLOAD_BYTES, RECORD_HEADER_BYTES, SEGMENT_MAGIC};

/// Bytes a checkpoint writer gathers before each write.
const CHUNK_BYTES: usize = 64 << 10;

/// Writes every object's stored fixes to `path` as one WAL segment —
/// the magic, then each object's records in ascending id order — sealed
/// with the CRC-32 of all preceding bytes, and fsyncs it. The records go
/// out in chunks through one buffer, so memory stays flat in the store's
/// size. Returns the number of objects written.
pub(crate) fn write_checkpoint(
    storage: &dyn Storage,
    store: &MovingObjectStore,
    path: &Path,
) -> Result<usize, StoreError> {
    let err = |e| io_err(path, e);
    let mut w = storage.create(path).map_err(err)?;
    let mut buf = Vec::with_capacity(CHUNK_BYTES + RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES);
    buf.extend_from_slice(SEGMENT_MAGIC);
    let (mut register, mut bytes, mut objects) = (!0, 0, 0);
    for id in store.object_ids() {
        let Some((committed, tail)) = store.stored_parts(id) else { continue };
        if committed.is_empty() && tail.is_none() {
            continue;
        }
        objects += 1;
        for fix in committed.iter().chain(&tail) {
            encode_record(&mut buf, id, fix);
            if buf.len() >= CHUNK_BYTES {
                register = crc32_update(register, &buf);
                w.write_all(&buf).map_err(err)?;
                bytes += buf.len();
                buf.clear();
            }
        }
    }
    let seal = !crc32_update(register, &buf);
    buf.extend_from_slice(&seal.to_le_bytes());
    w.write_all(&buf).map_err(err)?;
    // The data must be durable before the rename publishes it: otherwise
    // the rename can survive a crash that the bytes did not.
    w.sync().map_err(err)?;
    traj_obs::counter!("store", "persist_bytes").add((bytes + buf.len()) as u64);
    Ok(objects)
}

/// Loads the checkpoint at `path` into `sink`, whole or not at all: the
/// seal must match, and the WAL's [`scan_segment`] must find no torn or
/// corrupt record and each object in one run. Unlike a WAL record, a
/// checkpoint has no younger copy, so damage is an error, never a skip.
/// Each run goes to the sink as soon as the next object's first record
/// ends it, so the loader holds the file's bytes and one run.
pub(crate) fn load_checkpoint(
    storage: &dyn Storage,
    path: &Path,
    sink: &mut impl RecoverySink,
    report: &mut RecoveryReport,
) -> Result<(), StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt { path: path.to_path_buf(), detail };
    let bytes = storage.read(path).map_err(|e| io_err(path, e))?;
    let Some(body_len) = bytes.len().checked_sub(4).filter(|&n| n >= SEGMENT_MAGIC.len()) else {
        return Err(corrupt(format!("{} bytes: shorter than its magic and seal", bytes.len())));
    };
    let (body, seal) = bytes.split_at(body_len);
    if crc32(body).to_le_bytes() != seal {
        return Err(corrupt("seal mismatch: the checkpoint is cut short or damaged".into()));
    }
    let mut restore = |id: ObjectId, run: Vec<Fix>| {
        if sink.latest_time(id).is_some() {
            return Err(corrupt(format!("object {id} is split across two runs of records")));
        }
        report.snapshot_objects += 1;
        report.snapshot_fixes += run.len();
        sink.restore_run(id, run)
    };
    let (mut current, mut run) = (None, Vec::new());
    let mut summary = ReplaySummary::default();
    scan_segment(body, &mut summary, |rec| {
        if let Some(id) = current.filter(|&id| id != rec.id) {
            restore(id, std::mem::take(&mut run))?;
        }
        current = Some(rec.id);
        run.push(rec.fix);
        Ok(())
    })?;
    if summary.torn_tail || summary.corrupt_skipped > 0 {
        return Err(corrupt(format!("torn or corrupt records under a valid seal: {summary:?}")));
    }
    match current {
        Some(id) => restore(id, run),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::store::IngestMode;

    const PATH: &str = "/snapshot/checkpoint.log";

    fn sample_store() -> MovingObjectStore {
        let mut s = MovingObjectStore::new(IngestMode::Raw);
        for id in [3u64, 11, 7] {
            for i in 0..20 {
                let fix = Fix::from_parts(i as f64 * 10.0, i as f64 * 100.0 + id as f64, id as f64);
                s.append(id, fix).unwrap();
            }
        }
        s
    }

    fn put(disk: &MemStorage, bytes: &[u8]) {
        disk.create(Path::new(PATH)).unwrap().write_all(bytes).unwrap();
    }

    /// Loads the checkpoint on `disk` into an empty raw store.
    fn load(disk: &MemStorage) -> Result<(MovingObjectStore, RecoveryReport), StoreError> {
        let mut store = MovingObjectStore::new(IngestMode::Raw);
        let mut report = RecoveryReport::default();
        load_checkpoint(disk, Path::new(PATH), &mut store, &mut report)?;
        Ok((store, report))
    }

    /// Seals `body` with the CRC-32 of its bytes, as the writer does.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let seal = crc32(&body);
        body.extend_from_slice(&seal.to_le_bytes());
        body
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let disk = MemStorage::new();
        let store = sample_store();
        assert_eq!(write_checkpoint(&disk, &store, Path::new(PATH)).unwrap(), 3);
        let (loaded, report) = load(&disk).unwrap();
        assert_eq!(
            loaded.object_ids().collect::<Vec<_>>(),
            store.object_ids().collect::<Vec<_>>()
        );
        for id in store.object_ids() {
            assert_eq!(loaded.trajectory(id), store.trajectory(id), "object {id}");
        }
        assert_eq!((report.snapshot_objects, report.snapshot_fixes), (3, 60));
    }

    #[test]
    fn load_surfaces_corruption() {
        // The seal passes on each of these files, so the record checks
        // behind it must refuse them: a torn last record, a record whose
        // own CRC fails, and a file too short to hold magic and seal.
        let mut torn = SEGMENT_MAGIC.to_vec();
        encode_record(&mut torn, 3, &Fix::from_parts(0.0, 0.0, 0.0));
        torn.extend_from_slice(b"garbage");
        let mut rotten = SEGMENT_MAGIC.to_vec();
        encode_record(&mut rotten, 3, &Fix::from_parts(0.0, 0.0, 0.0));
        rotten[SEGMENT_MAGIC.len() + RECORD_HEADER_BYTES + 9] ^= 0x40;
        let cases = [
            (sealed(torn), "torn or corrupt records"),
            (sealed(rotten), "torn or corrupt records"),
            (b"TRAJWAL".to_vec(), "shorter than its magic and seal"),
        ];
        let disk = MemStorage::new();
        for (bytes, detail) in cases {
            put(&disk, &bytes);
            let err = load(&disk).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(detail), "{err}");
        }
    }

    #[test]
    fn load_detects_bit_rot_via_trailer() {
        // Rot that every record's own CRC misses: object 7's first fix
        // is rewritten as another well-formed record. Only the seal, the
        // file's trailer, can tell.
        let disk = MemStorage::new();
        write_checkpoint(&disk, &sample_store(), Path::new(PATH)).unwrap();
        let mut bytes = disk.file(Path::new(PATH)).unwrap();
        let at = SEGMENT_MAGIC.len() + 20 * (RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES);
        let mut rot = Vec::new();
        encode_record(&mut rot, 7, &Fix::from_parts(0.0, 1.0, 7.0));
        assert_ne!(&bytes[at..at + rot.len()], rot.as_slice(), "the record changes");
        bytes[at..at + rot.len()].copy_from_slice(&rot);
        put(&disk, &bytes);
        let err = load(&disk).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("seal mismatch"), "{err}");
        assert!(err.to_string().contains("checkpoint.log"), "{err}");
    }
}
