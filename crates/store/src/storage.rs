//! Injectable storage backend for the durability layer.
//!
//! Everything the write-ahead log ([`crate::wal`]) and the checkpoint
//! writer ([`crate::DurableStore::snapshot`]) do to a disk goes through
//! the [`Storage`] trait, so the same code runs against the real
//! filesystem ([`FsStorage`]) and against an in-memory double
//! ([`MemStorage`]) that can tear writes at an exact byte offset, flip
//! bits, and refuse all further I/O — the crash model the
//! fault-injection tests sweep over (`crates/store/tests/durability.rs`).
//!
//! The fault model of [`MemStorage`]:
//!
//! * every byte written through [`StorageWriter::write_all`] consumes the
//!   *write budget*; the write that would exceed it lands only its
//!   allowed prefix (a torn write) and fails, and every subsequent
//!   operation fails too — the process is "dead" until
//!   [`MemStorage::lift_faults`] simulates the restart;
//! * renames are atomic and free (metadata, not data), matching POSIX
//!   `rename(2)` semantics on a journaling filesystem;
//! * [`MemStorage::arm_sync_failure`] makes the next
//!   [`StorageWriter::sync`] fail and crashes the storage, as a spent
//!   write budget does — the failed fsync a group commit must not ack;
//! * [`MemStorage::corrupt_byte`] models at-rest bit rot;
//! * every file tracks its *synced length* — the prefix an
//!   [`StorageWriter::sync`] has made durable — and
//!   [`MemStorage::drop_unsynced`] models a power loss that empties the
//!   page cache: bytes written but never fsynced vanish. This is the
//!   model the group-commit ack-after-fsync tests sweep over.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// This is the checksum of every WAL record and the seal of a
/// checkpoint file (see `crates/store/README.md` for the byte layout).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Feeds `bytes` into a running CRC-32 register: starting from `!0` and
/// inverting the final register gives [`crc32`] of everything fed, so a
/// writer can checksum a file it streams out in pieces.
///
/// Slicing-by-8: each 8-byte word costs eight independent table lookups
/// instead of eight dependent ones; a tail shorter than a word goes
/// bytewise through the first table.
pub(crate) fn crc32_update(register: u32, bytes: &[u8]) -> u32 {
    let mut crc = register;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        // Copied through `zip`, not `try_into`: `cargo xtask reach`
        // counts a std call it does not know as may-panic. The copy
        // compiles to one 8-byte load.
        let mut word = [0u8; 8];
        for (w, &b) in word.iter_mut().zip(chunk) {
            *w = b;
        }
        let v = u64::from_le_bytes(word) ^ u64::from(crc);
        crc = slot(7, v) ^ slot(6, v >> 8) ^ slot(5, v >> 16) ^ slot(4, v >> 24);
        crc ^= slot(3, v >> 32) ^ slot(2, v >> 40) ^ slot(1, v >> 48) ^ slot(0, v >> 56);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ slot(0, u64::from(crc ^ u32::from(b)));
    }
    crc
}

/// Entry `v & 0xFF` of table `k`: the register contribution of that
/// byte followed by `k` zero bytes.
#[inline(always)]
fn slot(k: usize, v: u64) -> u32 {
    CRC32_TABLES[k][(v & 0xFF) as usize]
}

/// The eight slicing-by-8 tables of the reflected polynomial
/// `0xEDB88320`: table 0 is the bytewise table, and table `k` advances
/// table `k - 1` by one zero byte.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A sequential writer into one storage object (file).
///
/// `Send` so a WAL (and the durable store owning it) can be handed to a
/// dedicated shard worker thread; a writer is only ever *used* by one
/// thread at a time.
pub trait StorageWriter: Send {
    /// Appends all of `buf` to the object.
    ///
    /// # Errors
    /// Fails on the backend's I/O errors; a fault-injecting backend may
    /// persist a *prefix* of `buf` before failing (a torn write).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Forces written data down to durable storage (`fsync`).
    ///
    /// # Errors
    /// Propagates the backend's sync failure.
    fn sync(&mut self) -> io::Result<()>;
}

/// Backend filesystem operations used by the durability layer.
///
/// Implementations must make [`Storage::rename`] atomic: after a crash
/// either the old or the new name is visible, never a half-state — this
/// is the commit point of snapshot publication.
pub trait Storage: Send + Sync {
    /// Reads the entire object at `path`.
    ///
    /// # Errors
    /// `NotFound` if the object does not exist, plus backend failures.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Lists the objects directly under `dir`, sorted by path.
    ///
    /// # Errors
    /// `NotFound` if the directory does not exist.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and all missing parents.
    ///
    /// # Errors
    /// Propagates backend failures; an existing directory is not an
    /// error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Creates (truncating) the object at `path` for writing.
    ///
    /// # Errors
    /// Propagates backend failures.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageWriter>>;

    /// Atomically renames `from` to `to`, replacing any existing `to`.
    ///
    /// # Errors
    /// `NotFound` if `from` does not exist, plus backend failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the object at `path`.
    ///
    /// # Errors
    /// `NotFound` if it does not exist.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Whether an object or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Flushes directory metadata (created/renamed/removed entries) for
    /// `dir` down to durable storage.
    ///
    /// # Errors
    /// Propagates backend failures.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`Storage`] over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStorage;

struct FsWriter(std::fs::File);

impl StorageWriter for FsWriter {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Storage for FsStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> =
            std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageWriter>> {
        Ok(Box::new(FsWriter(std::fs::File::create(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories as files; the rename itself is
        // already journaled there, so skipping is acceptable.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// In-memory fault-injecting double
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemFs {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: Vec<PathBuf>,
    /// Bytes that may still be written before the injected crash.
    budget: Option<u64>,
    /// Set once the budget is exhausted: all further I/O fails.
    crashed: bool,
    /// The next sync fails, crashing the storage.
    sync_failure: bool,
    /// Cumulative bytes successfully written (for sizing crash sweeps).
    written: u64,
    /// Per-file durable prefix length: what an fsync has pinned. Files
    /// without an entry have never been synced (durable length 0).
    synced: BTreeMap<PathBuf, usize>,
}

/// Locks the shared in-memory fs, recovering from poisoning.
///
/// A panicking test thread holding the lock poisons it; none of the
/// short critical sections below can leave the plain data inside (a
/// map of byte vectors plus three scalars) logically inconsistent, so
/// stripping the poison is sound and keeps the fault-injection harness
/// usable after an induced panic.
fn lock_fs(fs: &Mutex<MemFs>) -> std::sync::MutexGuard<'_, MemFs> {
    fs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MemFs {
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(io::Error::other("injected crash: storage is down"))
        } else {
            Ok(())
        }
    }
}

/// An in-memory [`Storage`] with byte-exact fault injection; see the
/// module docs for the crash model.
///
/// Cloning shares the underlying state, so a test can keep a handle,
/// run a workload "process" against another, and inspect or revive the
/// "disk" afterwards.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    fs: Arc<Mutex<MemFs>>,
}

impl MemStorage {
    /// A fault-free in-memory storage.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// A storage that crashes after exactly `budget` more bytes have
    /// been written: the write crossing the boundary lands only its
    /// allowed prefix and fails, and everything after it fails too.
    pub fn with_write_budget(budget: u64) -> Self {
        let s = MemStorage::new();
        lock_fs(&s.fs).budget = Some(budget);
        s
    }

    /// Arms (or re-arms) the write budget on a live storage: exactly
    /// `budget` more bytes may be written before the injected crash
    /// fires. Lets a test run a fault-free prefix workload first and
    /// then place the crash point precisely.
    pub fn arm_write_budget(&self, budget: u64) {
        let mut fs = lock_fs(&self.fs);
        fs.budget = Some(budget);
    }

    /// Arms a failed fsync: the next [`StorageWriter::sync`] fails
    /// without making anything durable, and the storage is crashed from
    /// then on, as when a write budget runs out.
    pub fn arm_sync_failure(&self) {
        lock_fs(&self.fs).sync_failure = true;
    }

    /// Clears the crashed flag, the write budget and an armed sync
    /// failure — the simulated machine restart. On-disk contents are
    /// untouched.
    pub fn lift_faults(&self) {
        let mut fs = lock_fs(&self.fs);
        fs.crashed = false;
        fs.budget = None;
        fs.sync_failure = false;
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        lock_fs(&self.fs).crashed
    }

    /// Cumulative bytes successfully written so far (used to size
    /// crash-at-every-offset sweeps).
    pub fn written_bytes(&self) -> u64 {
        lock_fs(&self.fs).written
    }

    /// Simulates a power loss that empties the page cache: every file
    /// is truncated back to its *synced length* — the prefix pinned by
    /// the last [`StorageWriter::sync`] on it. Files that were never
    /// synced keep their directory entry but lose all content (the WAL
    /// treats such an empty segment as a torn header: no records, no
    /// loss of acknowledged data). On-disk durable bytes are untouched.
    ///
    /// Composes with [`MemStorage::lift_faults`] for a full
    /// crash-and-restart: lift the injected fault, then drop the cache.
    pub fn drop_unsynced(&self) {
        let mut fs = lock_fs(&self.fs);
        let synced = std::mem::take(&mut fs.synced);
        for (path, file) in fs.files.iter_mut() {
            file.truncate(synced.get(path).copied().unwrap_or(0));
        }
        fs.synced = synced;
    }

    /// XORs `mask` into byte `offset` of `path` (at-rest bit rot).
    /// Returns `false` if the file or offset does not exist.
    pub fn corrupt_byte(&self, path: &Path, offset: usize, mask: u8) -> bool {
        let mut fs = lock_fs(&self.fs);
        match fs.files.get_mut(path).and_then(|f| f.get_mut(offset)) {
            Some(b) => {
                *b ^= mask;
                true
            }
            None => false,
        }
    }

    /// Truncates `path` to `len` bytes (a short read / lost tail).
    /// Returns `false` if the file does not exist or is already shorter.
    pub fn truncate_file(&self, path: &Path, len: usize) -> bool {
        let mut fs = lock_fs(&self.fs);
        match fs.files.get_mut(path) {
            Some(f) if f.len() > len => {
                f.truncate(len);
                true
            }
            _ => false,
        }
    }

    /// The current contents of `path`, if it exists.
    pub fn file(&self, path: &Path) -> Option<Vec<u8>> {
        lock_fs(&self.fs).files.get(path).cloned()
    }

    /// Paths of all stored files, sorted.
    pub fn file_paths(&self) -> Vec<PathBuf> {
        lock_fs(&self.fs).files.keys().cloned().collect()
    }
}

struct MemWriter {
    fs: Arc<Mutex<MemFs>>,
    path: PathBuf,
}

impl StorageWriter for MemWriter {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut fs = lock_fs(&self.fs);
        fs.check_alive()?;
        let allowed = match fs.budget {
            Some(b) => (b.min(buf.len() as u64)) as usize,
            None => buf.len(),
        };
        let file = fs.files.entry(self.path.clone()).or_default();
        file.extend_from_slice(&buf[..allowed]);
        fs.written += allowed as u64;
        if let Some(b) = &mut fs.budget {
            *b -= allowed as u64;
        }
        if allowed < buf.len() {
            fs.crashed = true;
            return Err(io::Error::other(format!(
                "injected crash: wrote {allowed} of {} bytes",
                buf.len()
            )));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut fs = lock_fs(&self.fs);
        if std::mem::take(&mut fs.sync_failure) {
            fs.crashed = true;
        }
        fs.check_alive()?;
        // The fsync commit point: everything written so far becomes
        // durable — it survives a later `drop_unsynced`.
        let len = fs.files.get(&self.path).map_or(0, Vec::len);
        fs.synced.insert(self.path.clone(), len);
        Ok(())
    }
}

impl Storage for MemStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fs = lock_fs(&self.fs);
        fs.check_alive()?;
        fs.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let fs = lock_fs(&self.fs);
        fs.check_alive()?;
        if !fs.dirs.iter().any(|d| d == dir) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such directory {}", dir.display()),
            ));
        }
        Ok(fs.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut fs = lock_fs(&self.fs);
        fs.check_alive()?;
        let mut d = dir.to_path_buf();
        loop {
            if !fs.dirs.contains(&d) {
                fs.dirs.push(d.clone());
            }
            match d.parent() {
                Some(p) if !p.as_os_str().is_empty() => d = p.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageWriter>> {
        let mut fs = lock_fs(&self.fs);
        fs.check_alive()?;
        fs.files.insert(path.to_path_buf(), Vec::new());
        // A truncating create discards any previously durable content.
        fs.synced.remove(path);
        Ok(Box::new(MemWriter { fs: Arc::clone(&self.fs), path: path.to_path_buf() }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = lock_fs(&self.fs);
        fs.check_alive()?;
        match fs.files.remove(from) {
            Some(data) => {
                fs.files.insert(to.to_path_buf(), data);
                // The rename is atomic metadata; the data's durability
                // travels with the file.
                match fs.synced.remove(from) {
                    Some(n) => {
                        fs.synced.insert(to.to_path_buf(), n);
                    }
                    None => {
                        fs.synced.remove(to);
                    }
                }
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rename source {}", from.display()),
            )),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut fs = lock_fs(&self.fs);
        fs.check_alive()?;
        fs.synced.remove(path);
        fs.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }

    fn exists(&self, path: &Path) -> bool {
        let fs = lock_fs(&self.fs);
        fs.files.contains_key(path) || fs.dirs.iter().any(|d| d == path)
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        lock_fs(&self.fs).check_alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The bytewise kernel: one dependent lookup in table 0 per byte.
    fn crc32_update_bytewise(register: u32, bytes: &[u8]) -> u32 {
        let mut crc = register;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The running register over pieces gives the same checksum.
        let register = crc32_update(crc32_update(!0, b"1234"), b"56789");
        assert_eq!(!register, 0xCBF4_3926);
        assert_eq!(!crc32_update_bytewise(!0, b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        /// Slicing-by-8 fed piece by piece — as the checkpoint writer
        /// feeds its chunks — equals the bytewise kernel over the whole
        /// string, wherever the pieces are cut.
        #[test]
        fn crc32_pieces_match_the_bytewise_kernel(
            bytes in proptest::collection::vec(0u8..=255, 0..200),
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
            register in 0u32..=u32::MAX,
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let (mut crc, mut from) = (register, 0);
            for &to in cuts.iter().chain([&bytes.len()]) {
                crc = crc32_update(crc, &bytes[from..to]);
                from = to;
            }
            prop_assert_eq!(crc, crc32_update_bytewise(register, &bytes));
        }
    }

    #[test]
    fn mem_storage_roundtrip() {
        let s = MemStorage::new();
        let dir = Path::new("/db");
        s.create_dir_all(dir).unwrap();
        let mut w = s.create(&dir.join("a.bin")).unwrap();
        w.write_all(b"hello").unwrap();
        w.sync().unwrap();
        assert_eq!(s.read(&dir.join("a.bin")).unwrap(), b"hello");
        assert_eq!(s.list(dir).unwrap(), vec![dir.join("a.bin")]);
        s.rename(&dir.join("a.bin"), &dir.join("b.bin")).unwrap();
        assert!(!s.exists(&dir.join("a.bin")));
        assert_eq!(s.read(&dir.join("b.bin")).unwrap(), b"hello");
        s.remove_file(&dir.join("b.bin")).unwrap();
        assert!(s.list(dir).unwrap().is_empty());
    }

    #[test]
    fn budget_tears_the_crossing_write_and_kills_the_rest() {
        let s = MemStorage::with_write_budget(3);
        s.create_dir_all(Path::new("/d")).unwrap();
        let mut w = s.create(Path::new("/d/f")).unwrap();
        let err = w.write_all(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(s.crashed());
        // The torn prefix landed; nothing else works until restart.
        assert!(s.read(Path::new("/d/f")).is_err());
        s.lift_faults();
        assert_eq!(s.read(Path::new("/d/f")).unwrap(), b"abc");
        assert_eq!(s.written_bytes(), 3);
    }

    #[test]
    fn corruption_helpers() {
        let s = MemStorage::new();
        s.create_dir_all(Path::new("/d")).unwrap();
        s.create(Path::new("/d/f")).unwrap().write_all(b"xyz").unwrap();
        assert!(s.corrupt_byte(Path::new("/d/f"), 1, 0x80));
        assert_eq!(s.file(Path::new("/d/f")).unwrap(), vec![b'x', b'y' ^ 0x80, b'z']);
        assert!(!s.corrupt_byte(Path::new("/d/f"), 99, 1));
        assert!(s.truncate_file(Path::new("/d/f"), 1));
        assert_eq!(s.file(Path::new("/d/f")).unwrap(), b"x");
        assert!(!s.truncate_file(Path::new("/d/f"), 5));
    }

    #[test]
    fn drop_unsynced_keeps_only_fsynced_prefixes() {
        let s = MemStorage::new();
        s.create_dir_all(Path::new("/d")).unwrap();
        // File a: sync after "ab", then write "cd" without syncing.
        let mut a = s.create(Path::new("/d/a")).unwrap();
        a.write_all(b"ab").unwrap();
        a.sync().unwrap();
        a.write_all(b"cd").unwrap();
        // File b: never synced at all.
        s.create(Path::new("/d/b")).unwrap().write_all(b"xyz").unwrap();
        s.drop_unsynced();
        assert_eq!(s.file(Path::new("/d/a")).unwrap(), b"ab");
        assert_eq!(s.file(Path::new("/d/b")).unwrap(), b"");
        // The durable prefix survives repeated drops.
        s.drop_unsynced();
        assert_eq!(s.file(Path::new("/d/a")).unwrap(), b"ab");
    }

    #[test]
    fn armed_sync_failure_fails_one_sync_and_crashes() {
        let s = MemStorage::new();
        s.create_dir_all(Path::new("/d")).unwrap();
        let mut w = s.create(Path::new("/d/f")).unwrap();
        w.write_all(b"ab").unwrap();
        w.sync().unwrap();
        w.write_all(b"cd").unwrap();
        s.arm_sync_failure();
        assert!(w.sync().unwrap_err().to_string().contains("injected crash"));
        assert!(s.crashed());
        assert!(w.write_all(b"ef").is_err(), "down until the restart");
        // The failed sync pinned nothing: power loss keeps only "ab".
        s.lift_faults();
        s.drop_unsynced();
        assert_eq!(s.file(Path::new("/d/f")).unwrap(), b"ab");
        // The restart disarms it; the next sync succeeds.
        s.arm_sync_failure();
        s.lift_faults();
        w.sync().unwrap();
    }

    #[test]
    fn rename_and_recreate_carry_durability_correctly() {
        let s = MemStorage::new();
        s.create_dir_all(Path::new("/d")).unwrap();
        let mut w = s.create(Path::new("/d/tmp")).unwrap();
        w.write_all(b"snapshot").unwrap();
        w.sync().unwrap();
        s.rename(Path::new("/d/tmp"), Path::new("/d/final")).unwrap();
        // Recreating a previously synced name restarts at durable len 0.
        let mut w2 = s.create(Path::new("/d/other")).unwrap();
        w2.write_all(b"a").unwrap();
        w2.sync().unwrap();
        s.create(Path::new("/d/other")).unwrap().write_all(b"bb").unwrap();
        s.drop_unsynced();
        assert_eq!(s.file(Path::new("/d/final")).unwrap(), b"snapshot");
        assert_eq!(s.file(Path::new("/d/other")).unwrap(), b"");
    }

    #[test]
    fn fs_storage_roundtrip() {
        let dir = std::env::temp_dir().join("trajc_storage_test");
        std::fs::remove_dir_all(&dir).ok();
        let s = FsStorage;
        s.create_dir_all(&dir).unwrap();
        let mut w = s.create(&dir.join("x")).unwrap();
        w.write_all(b"data").unwrap();
        w.sync().unwrap();
        s.sync_dir(&dir).unwrap();
        assert_eq!(s.read(&dir.join("x")).unwrap(), b"data");
        s.rename(&dir.join("x"), &dir.join("y")).unwrap();
        assert_eq!(s.list(&dir).unwrap(), vec![dir.join("y")]);
        assert!(s.exists(&dir.join("y")));
        s.remove_file(&dir.join("y")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
