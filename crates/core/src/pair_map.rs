//! The hash map behind the crate's two `(lo, hi)` memos: the TD-SP
//! sweep's interval statistics (`Workspace::sp_stats`) and the
//! evaluation engine's anchor segments (`EvalWorkspace`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by an index pair `(lo, hi)`, hashed with [`PairHasher`].
pub(crate) type PairMap<V> = HashMap<(usize, usize), V, BuildHasherDefault<PairHasher>>;

/// Multiply-rotate hasher for index-pair keys (the FxHash recipe).
/// `(lo, hi)` keys are a pair of small indices; SipHash's DoS hardening
/// buys nothing here and its per-lookup cost is visible in threshold
/// sweeps, where every interval or anchor segment is looked up.
#[derive(Debug, Default)]
pub(crate) struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(b as usize);
        }
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = (self.0.rotate_left(5) ^ v as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write_usize(v as usize);
    }
}
