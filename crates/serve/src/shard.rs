//! Deterministic shard routing: `hash(mover) % shards`.
//!
//! Routing must be a pure function of the mover id and the shard count:
//! a mover's whole history has to land in one shard directory so its
//! per-object WAL replay order (and the per-session compressor state)
//! stays linear. [`traj_gen::fleet::splitmix64`] supplies the mixing —
//! consecutive mover ids would otherwise all fall into shard
//! `id % shards` in lock-step and fleets numbered `0..movers` would
//! hammer shards unevenly under any stride pattern.

use traj_gen::fleet::splitmix64;

/// The shard that owns `mover` in an `shards`-way layout. Pure and
/// stable: the same `(mover, shards)` always maps to the same shard, on
/// every thread and across restarts. `shards` is clamped to at least 1.
#[must_use]
pub fn shard_of(mover: u64, shards: usize) -> usize {
    let n = shards.max(1) as u64;
    // A u64 % shard-count fits usize on every supported target.
    (splitmix64(mover) % n) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_shards_is_clamped() {
        assert_eq!(shard_of(17, 0), 0);
        assert_eq!(shard_of(17, 1), 0);
    }

    #[test]
    fn sequential_ids_spread_over_shards() {
        // Fleets number their movers 0..N; routing must not send
        // arithmetic progressions to one shard.
        let shards = 4;
        let mut counts = vec![0u64; shards];
        for mover in 0..10_000u64 {
            counts[shard_of(mover, shards)] += 1;
        }
        for (k, c) in counts.iter().enumerate() {
            assert!(
                (2_000..=3_000).contains(c),
                "shard {k} got {c} of 10000 movers (expected ~2500)"
            );
        }
    }

    proptest! {
        #[test]
        fn routing_is_deterministic_and_in_range(mover in 0u64..u64::MAX, shards in 1usize..64) {
            let s = shard_of(mover, shards);
            prop_assert!(s < shards);
            // Same inputs, same shard — the property recovery relies on.
            prop_assert_eq!(s, shard_of(mover, shards));
        }

        #[test]
        fn all_shards_are_reachable(shards in 1usize..16) {
            let mut seen = vec![false; shards];
            for mover in 0..4_096u64 {
                seen[shard_of(mover, shards)] = true;
            }
            prop_assert!(seen.iter().all(|s| *s), "unreachable shard in {seen:?}");
        }
    }
}
