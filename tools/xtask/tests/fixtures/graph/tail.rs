//! A slice walked in 8-byte words, then its tail: `remainder` is a
//! vouched clean std method, so the walk neither panics nor allocates.

pub fn tail_sum(bytes: &[u8]) -> u8 {
    let mut chunks = bytes.chunks_exact(8);
    let mut sum = 0u8;
    for chunk in chunks.by_ref() {
        for &b in chunk {
            sum = sum.wrapping_add(b);
        }
    }
    for &b in chunks.remainder() {
        sum = sum.wrapping_add(b);
    }
    sum
}
