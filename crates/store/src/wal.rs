//! Write-ahead log for the ingest path.
//!
//! Every fix accepted by [`crate::DurableStore`] is appended here
//! *before* it is acknowledged, so an ingest crash can lose at most the
//! unacknowledged fix in flight. The log is a sequence of segment files
//! `wal-<seq>.log`, each a magic header followed by length-prefixed,
//! CRC-32-checksummed records; the exact byte layout is specified in
//! `crates/store/README.md` and pinned by tests against these constants.
//! A checkpoint ([`crate::DurableStore::snapshot`]) is one more file in
//! this framing, encoded and scanned by the same two functions.
//!
//! The segment scanner tolerates exactly the failure modes a crash can
//! produce: a torn final record (stop, report the tail), a torn segment
//! header (treat the segment as empty), and at-rest bit rot (skip the
//! record whose CRC fails, keep scanning while the length framing stays
//! plausible).
//!
//! The scanner hands each decoded record to a visitor. Recovery, the
//! crate's one routine with two sinks (a `DurableStore`'s history and a
//! `GroupCommitStore`'s map of latest times), folds the records straight
//! into its sink segment by segment, so it holds one segment file's
//! bytes plus the sink's state: O(objects + one segment file) for the
//! group store, flat in the length of the log. A segment is still read
//! whole through [`Storage::read`]. [`replay_dir`] is the same scan
//! collecting every record into a `Vec`, for tools and tests.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use traj_model::Fix;

use crate::storage::{crc32, Storage, StorageWriter};
use crate::store::{ObjectId, StoreError};

/// Segment file magic: identifies the format and pins version 1.
pub const SEGMENT_MAGIC: &[u8; 8] = b"TRAJWAL1";

/// Per-record framing overhead: `len: u32` + `crc: u32`, little-endian.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Payload of an appended-fix record: kind tag, object id, `t`,`x`,`y`.
pub const FIX_PAYLOAD_BYTES: usize = 1 + 8 + 3 * 8;

/// Record kind tag for an appended fix (the only kind in version 1).
pub const KIND_APPEND_FIX: u8 = 1;

/// Upper bound on a sane record payload; a length field above this is
/// treated as framing corruption (torn tail), not a huge record.
pub const MAX_PAYLOAD_BYTES: u32 = 1024;

/// Tuning of the write-ahead log.
///
/// The log itself never fsyncs except at rotation and truncation: an
/// append is written but volatile until the caller's next
/// [`Wal::sync`], so the caller owns the commit point.
/// [`crate::DurableStore::append`] syncs after every fix;
/// [`crate::GroupCommitStore::commit`] syncs once per batch.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_max_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { segment_max_bytes: 1 << 20 }
    }
}

/// One logical WAL entry: object `id` reported `fix`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRecord {
    /// The reporting object.
    pub id: ObjectId,
    /// The reported fix.
    pub fix: Fix,
}

/// What a [`replay_dir`] scan found, beyond the records themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Segment files scanned.
    pub segments: usize,
    /// Records that decoded cleanly.
    pub records: usize,
    /// Records skipped because their CRC did not match (bit rot).
    pub corrupt_skipped: usize,
    /// Whether a segment ended in a torn (incomplete) record or header.
    pub torn_tail: bool,
}

/// Serializes one record (header + payload) into `out`.
pub(crate) fn encode_record(out: &mut Vec<u8>, id: ObjectId, fix: &Fix) {
    let mut payload = [0u8; FIX_PAYLOAD_BYTES];
    payload[0] = KIND_APPEND_FIX;
    payload[1..9].copy_from_slice(&id.to_le_bytes());
    payload[9..17].copy_from_slice(&fix.t.as_secs().to_le_bytes());
    payload[17..25].copy_from_slice(&fix.pos.x.to_le_bytes());
    payload[25..33].copy_from_slice(&fix.pos.y.to_le_bytes());
    out.extend_from_slice(&(FIX_PAYLOAD_BYTES as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() != FIX_PAYLOAD_BYTES || payload[0] != KIND_APPEND_FIX {
        return None;
    }
    let le8 = |s: &[u8]| -> Option<[u8; 8]> { s.try_into().ok() };
    let id = ObjectId::from_le_bytes(le8(&payload[1..9])?);
    let t = f64::from_le_bytes(le8(&payload[9..17])?);
    let x = f64::from_le_bytes(le8(&payload[17..25])?);
    let y = f64::from_le_bytes(le8(&payload[25..33])?);
    Some(WalRecord { id, fix: Fix::from_parts(t, x, y) })
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Parses a segment's sequence number out of its file name.
fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Storage { path: path.to_path_buf(), source }
}

/// The error for a segment whose sequence number has no successor.
fn exhausted(path: PathBuf) -> StoreError {
    let detail = String::from("WAL segment sequence number u64::MAX leaves no next segment");
    StoreError::Corrupt { path, detail }
}

/// Decodes one segment's bytes, handing each good record to `visit` in
/// file order and counting skips and tears in `summary`; stops at the
/// first error `visit` returns.
pub(crate) fn scan_segment(
    bytes: &[u8],
    summary: &mut ReplaySummary,
    mut visit: impl FnMut(WalRecord) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // A crash while writing the 8-byte header leaves a short or
        // garbled prefix; the segment holds no acknowledged data.
        summary.torn_tail = true;
        return Ok(());
    }
    let mut off = SEGMENT_MAGIC.len();
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < RECORD_HEADER_BYTES {
            summary.torn_tail = true; // torn mid-header
            return Ok(());
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if len > MAX_PAYLOAD_BYTES {
            // Length framing is implausible: either a torn header or a
            // flipped length byte. Resynchronizing past it is unsafe, so
            // stop here.
            summary.torn_tail = true;
            return Ok(());
        }
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let end = RECORD_HEADER_BYTES + len as usize;
        if rest.len() < end {
            summary.torn_tail = true; // torn mid-payload
            return Ok(());
        }
        let payload = &rest[RECORD_HEADER_BYTES..end];
        if crc32(payload) == crc {
            match decode_payload(payload) {
                Some(rec) => {
                    summary.records += 1;
                    visit(rec)?;
                }
                // Checksum fine but unknown kind/shape: a future format
                // we do not understand — skip, count it.
                None => summary.corrupt_skipped += 1,
            }
        } else {
            // Payload bit rot under intact framing: skip this record
            // and keep scanning.
            summary.corrupt_skipped += 1;
        }
        off += end;
    }
    Ok(())
}

/// Scans every `wal-*.log` under `dir` in ascending sequence, reading
/// one segment at a time and handing each good record to `visit`, and
/// returns a summary of skips and tears. A missing directory is an
/// empty log.
///
/// # Errors
/// Backend I/O errors (with the offending path attached), and the first
/// error `visit` returns; never corrupt contents, which the summary
/// reports.
pub(crate) fn scan_dir(
    storage: &dyn Storage,
    dir: &Path,
    mut visit: impl FnMut(WalRecord) -> Result<(), StoreError>,
) -> Result<ReplaySummary, StoreError> {
    let _span = traj_obs::trace_span!("wal.replay");
    let mut summary = ReplaySummary::default();
    let mut segments: Vec<(u64, PathBuf)> = match storage.list(dir) {
        Ok(paths) => paths.into_iter().filter_map(|p| segment_seq(&p).map(|s| (s, p))).collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(summary),
        Err(e) => return Err(io_err(dir, e)),
    };
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    for (_, path) in segments {
        let bytes = storage.read(&path).map_err(|e| io_err(&path, e))?;
        summary.segments += 1;
        scan_segment(&bytes, &mut summary, &mut visit)?;
    }
    Ok(summary)
}

/// Scans every `wal-*.log` under `dir` (ascending sequence) and returns
/// the decoded records plus a summary of skips and tears. Recovery
/// streams the same scan into its sink instead of collecting it. A
/// missing directory is an empty log.
///
/// # Errors
/// Fails only on backend I/O errors (with the offending path attached),
/// never on corrupt contents — those are reported in the summary.
pub fn replay_dir(
    storage: &dyn Storage,
    dir: &Path,
) -> Result<(Vec<WalRecord>, ReplaySummary), StoreError> {
    let mut records = Vec::new();
    let summary = scan_dir(storage, dir, |rec| {
        records.push(rec);
        Ok(())
    })?;
    Ok((records, summary))
}

/// The append-side handle of the write-ahead log.
///
/// A `Wal` only ever *starts new* segments — after recovery it never
/// appends to a pre-existing file, so a torn tail from the previous run
/// can never mask records written after it.
pub struct Wal {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    opts: WalOptions,
    /// Sequence number of the next segment to create.
    next_seq: u64,
    writer: Option<Box<dyn StorageWriter>>,
    segment_bytes: u64,
    buf: Vec<u8>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .field("segment_bytes", &self.segment_bytes)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens the log under `dir` (created if missing). Existing segments
    /// are left untouched; the first append starts a fresh segment after
    /// the highest existing sequence number.
    ///
    /// # Errors
    /// Backend failures creating or listing the directory, and
    /// [`StoreError::Corrupt`] naming the highest segment when its
    /// sequence number is `u64::MAX`, so no later segment can follow it.
    pub fn open(
        storage: Arc<dyn Storage>,
        dir: &Path,
        opts: WalOptions,
    ) -> Result<Self, StoreError> {
        storage.create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let last = storage
            .list(dir)
            .map_err(|e| io_err(dir, e))?
            .into_iter()
            .filter_map(|p| segment_seq(&p).map(|s| (s, p)))
            .max_by_key(|(s, _)| *s);
        let next_seq = match last {
            None => 1,
            Some((s, path)) => s.checked_add(1).ok_or_else(|| exhausted(path))?,
        };
        Ok(Wal {
            storage,
            dir: dir.to_path_buf(),
            opts,
            next_seq,
            writer: None,
            segment_bytes: 0,
            buf: Vec::with_capacity(RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES),
        })
    }

    /// Starts a fresh segment unless one is open.
    fn open_segment(&mut self) -> Result<(), StoreError> {
        if self.writer.is_some() {
            return Ok(());
        }
        let path = segment_path(&self.dir, self.next_seq);
        // Checked before the segment exists: a wrapped counter would name
        // the next segment `wal-00000000.log`, which replays before this
        // one and hides its records from recovery.
        let Some(next_seq) = self.next_seq.checked_add(1) else {
            return Err(exhausted(path));
        };
        let mut w = self.storage.create(&path).map_err(|e| io_err(&path, e))?;
        w.write_all(SEGMENT_MAGIC).map_err(|e| io_err(&path, e))?;
        // Make the segment's directory entry durable before any record
        // lands in it.
        self.storage.sync_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        self.next_seq = next_seq;
        self.segment_bytes = SEGMENT_MAGIC.len() as u64;
        self.writer = Some(w);
        traj_obs::counter!("store", "wal_segments").inc();
        Ok(())
    }

    /// Appends one fix record. The record is written but not durable
    /// until the next [`Wal::sync`] (or a rotation) returns.
    ///
    /// # Errors
    /// Backend write failures. After an error the current segment is
    /// abandoned (the next append starts a new one), so a torn tail
    /// never precedes good records within one segment.
    pub fn append(&mut self, id: ObjectId, fix: &Fix) -> Result<(), StoreError> {
        let _span = traj_obs::trace_span!("wal.append");
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        encode_record(&mut buf, id, fix);
        let res = self.append_encoded(&buf);
        if res.is_err() {
            // The segment may end in a torn record; never append after it.
            self.writer = None;
        }
        self.buf = buf;
        res
    }

    /// Writes one already-encoded record to the current segment,
    /// rotating when it is full. On error the caller abandons the
    /// segment.
    fn append_encoded(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        let n = buf.len() as u64;
        self.open_segment()?;
        let Some(w) = self.writer.as_mut() else {
            // Unreachable (opened just above); surfaced as an I/O error
            // rather than a panic to keep the library panic-free.
            return Err(io_err(&self.dir, std::io::Error::other("segment writer missing")));
        };
        // `next_seq` already points past the open segment.
        w.write_all(buf)
            .map_err(|e| io_err(&segment_path(&self.dir, self.next_seq - 1), e))?;
        self.segment_bytes += n;
        traj_obs::counter!("store", "wal_appends").inc();
        traj_obs::counter!("store", "wal_append_bytes").add(n);
        if self.segment_bytes >= self.opts.segment_max_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Forces everything appended so far down to durable storage.
    ///
    /// # Errors
    /// Backend sync failures. After one the current segment is
    /// abandoned like after a failed write: the kernel may have dropped
    /// its unsynced records, and a later sync of the same file must not
    /// make durable a record whose append was reported failed.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(w) = &mut self.writer {
            let _span = traj_obs::trace_span!("wal.fsync");
            if let Err(e) = w.sync() {
                self.writer = None;
                return Err(io_err(&self.dir, e));
            }
            traj_obs::counter!("store", "wal_fsyncs").inc();
        }
        Ok(())
    }

    /// Closes the current segment; the next append opens a new one.
    ///
    /// # Errors
    /// Propagates the final sync's failure.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        self.writer = None;
        Ok(())
    }

    /// Deletes every segment on disk — called once a snapshot has made
    /// their contents redundant. The next append starts a fresh segment.
    ///
    /// # Errors
    /// Backend list/remove failures; segments already gone are fine.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.rotate()?;
        for path in self.storage.list(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            if segment_seq(&path).is_some() {
                match self.storage.remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err(&path, e)),
                }
            }
        }
        self.storage.sync_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        traj_obs::counter!("store", "wal_truncations").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn fix(t: f64) -> Fix {
        Fix::from_parts(t, t * 2.0, -t)
    }

    fn wal_dir() -> PathBuf {
        PathBuf::from("/db/wal")
    }

    #[test]
    fn append_and_replay_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        for i in 0..10 {
            wal.append(7, &fix(i as f64))?;
        }
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 10);
        assert_eq!(summary.records, 10);
        assert_eq!(summary.segments, 1);
        assert!(!summary.torn_tail);
        assert_eq!(records[3], WalRecord { id: 7, fix: fix(3.0) });
        Ok(())
    }

    #[test]
    fn record_byte_layout_matches_spec() {
        let mut out = Vec::new();
        encode_record(&mut out, 0x0102_0304, &Fix::from_parts(1.0, 2.0, 3.0));
        assert_eq!(out.len(), RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES);
        // len field.
        assert_eq!(&out[..4], &(FIX_PAYLOAD_BYTES as u32).to_le_bytes());
        // crc over the payload.
        assert_eq!(&out[4..8], &crc32(&out[8..]).to_le_bytes());
        // payload: kind, id LE, then t/x/y as LE f64 bits.
        assert_eq!(out[8], KIND_APPEND_FIX);
        assert_eq!(&out[9..17], &0x0102_0304u64.to_le_bytes());
        assert_eq!(&out[17..25], &1.0f64.to_le_bytes());
        assert_eq!(&out[25..33], &2.0f64.to_le_bytes());
        assert_eq!(&out[33..41], &3.0f64.to_le_bytes());
    }

    #[test]
    fn rotation_produces_multiple_segments() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let opts = WalOptions { segment_max_bytes: 128 };
        let mut wal = Wal::open(storage.clone(), &wal_dir(), opts)?;
        for i in 0..20 {
            wal.append(1, &fix(i as f64))?;
        }
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 20);
        assert!(summary.segments > 1, "expected rotation, got {} segment", summary.segments);
        // Replay preserves append order across segments.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.fix.t.as_secs(), i as f64);
        }
        Ok(())
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        for i in 0..5 {
            wal.append(1, &fix(i as f64))?;
        }
        let seg = segment_path(&wal_dir(), 1);
        let len = storage.file(&seg).ok_or("missing segment")?.len();
        // Tear at every byte inside the final record.
        for cut in (len - RECORD_HEADER_BYTES - FIX_PAYLOAD_BYTES + 1)..len {
            let s2 = MemStorage::new();
            s2.create_dir_all(&wal_dir())?;
            let mut bytes = storage.file(&seg).ok_or("missing segment")?;
            bytes.truncate(cut);
            let mut w = s2.create(&seg)?;
            w.write_all(&bytes)?;
            let (records, summary) = replay_dir(&s2, &wal_dir())?;
            assert_eq!(records.len(), 4, "cut at {cut}");
            assert!(summary.torn_tail, "cut at {cut}");
        }
        Ok(())
    }

    #[test]
    fn bit_flip_in_payload_skips_only_that_record() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        for i in 0..5 {
            wal.append(1, &fix(i as f64))?;
        }
        let seg = segment_path(&wal_dir(), 1);
        // Flip a byte inside record 2's payload.
        let off = SEGMENT_MAGIC.len()
            + 2 * (RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES)
            + RECORD_HEADER_BYTES
            + 10;
        assert!(storage.corrupt_byte(&seg, off, 0x40));
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 4);
        assert_eq!(summary.corrupt_skipped, 1);
        assert!(!summary.torn_tail);
        let ts: Vec<f64> = records.iter().map(|r| r.fix.t.as_secs()).collect();
        assert_eq!(ts, vec![0.0, 1.0, 3.0, 4.0]);
        Ok(())
    }

    #[test]
    fn implausible_length_stops_the_scan() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        for i in 0..3 {
            wal.append(1, &fix(i as f64))?;
        }
        let seg = segment_path(&wal_dir(), 1);
        // Blow up record 1's length field (offset of its high byte).
        let off = SEGMENT_MAGIC.len() + (RECORD_HEADER_BYTES + FIX_PAYLOAD_BYTES) + 3;
        assert!(storage.corrupt_byte(&seg, off, 0xFF));
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 1);
        assert!(summary.torn_tail);
        Ok(())
    }

    #[test]
    fn reopen_never_appends_to_an_existing_segment() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        wal.append(1, &fix(0.0))?;
        drop(wal);
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        wal.append(1, &fix(1.0))?;
        let paths = storage.file_paths();
        assert_eq!(paths.len(), 2, "two segments expected: {paths:?}");
        let (records, _) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 2);
        Ok(())
    }

    /// Copies segment 1 of `src` under the name `wal-{seq}.log`.
    fn renamed_segment(
        src: &MemStorage,
        seq: u64,
    ) -> Result<MemStorage, Box<dyn std::error::Error>> {
        let bytes = src.file(&segment_path(&wal_dir(), 1)).ok_or("missing segment")?;
        let dst = MemStorage::new();
        dst.create_dir_all(&wal_dir())?;
        let mut w = dst.create(&segment_path(&wal_dir(), seq))?;
        w.write_all(&bytes)?;
        w.sync()?;
        Ok(dst)
    }

    #[test]
    fn segment_numbers_never_wrap() -> Result<(), Box<dyn std::error::Error>> {
        let src = Arc::new(MemStorage::new());
        let mut wal = Wal::open(src.clone(), &wal_dir(), WalOptions::default())?;
        for i in 0..3 {
            wal.append(1, &fix(i as f64))?;
        }
        let last = segment_path(&wal_dir(), u64::MAX);
        assert!(last.ends_with("wal-18446744073709551615.log"), "{last:?}");

        // `…615` on disk: no sequence number is left for the next segment.
        let storage = Arc::new(renamed_segment(&src, u64::MAX)?);
        match Wal::open(storage.clone(), &wal_dir(), WalOptions::default()) {
            Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, last),
            other => panic!("expected Corrupt naming {last:?}, got {other:?}"),
        }

        // `…614` on disk: opening works, but the segment `…615` would have
        // no successor, so the append is refused before anything is written.
        let storage = Arc::new(renamed_segment(&src, u64::MAX - 1)?);
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        match wal.append(1, &fix(3.0)) {
            Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, last),
            other => panic!("expected Corrupt naming {last:?}, got {other:?}"),
        }
        assert_eq!(storage.file_paths().len(), 1, "no segment was created");
        // The acknowledged fixes of the old segment all still replay.
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 3);
        assert_eq!(summary.corrupt_skipped, 0);
        Ok(())
    }

    #[test]
    fn truncate_clears_all_segments() -> Result<(), Box<dyn std::error::Error>> {
        let storage = Arc::new(MemStorage::new());
        let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
        for i in 0..4 {
            wal.append(1, &fix(i as f64))?;
        }
        wal.truncate()?;
        let (records, summary) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert!(records.is_empty());
        assert_eq!(summary.segments, 0);
        // The log is still usable after truncation.
        wal.append(1, &fix(9.0))?;
        let (records, _) = replay_dir(storage.as_ref(), &wal_dir())?;
        assert_eq!(records.len(), 1);
        Ok(())
    }

    #[test]
    fn missing_directory_replays_empty() -> Result<(), Box<dyn std::error::Error>> {
        let (records, summary) =
            replay_dir(&MemStorage::new(), Path::new("/nope"))?;
        assert!(records.is_empty());
        assert_eq!(summary, ReplaySummary::default());
        Ok(())
    }

    #[test]
    fn appends_are_volatile_until_sync() -> Result<(), Box<dyn std::error::Error>> {
        // Checked on the test's own storage rather than the global
        // `store.wal_fsyncs` counter, which parallel tests also bump.
        for (sync, durable) in [(false, 0), (true, 6)] {
            let storage = Arc::new(MemStorage::new());
            let mut wal = Wal::open(storage.clone(), &wal_dir(), WalOptions::default())?;
            for i in 0..6 {
                wal.append(1, &fix(i as f64))?;
            }
            if sync {
                wal.sync()?;
            }
            storage.drop_unsynced();
            let (records, _) = replay_dir(storage.as_ref(), &wal_dir())?;
            assert_eq!(records.len(), durable, "sync: {sync}");
        }
        Ok(())
    }
}
