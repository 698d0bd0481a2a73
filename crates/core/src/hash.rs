//! A fixed hasher for maps keyed by one integer id.
//!
//! `std`'s default SipHash is keyed per process to resist keys crafted to
//! collide, and pays several rounds a probe for it. The hot maps keyed by
//! ids the program makes (the dense map inside
//! [`crate::intern::IdInterner`], the platform's per-task state) are only
//! looked up, never iterated, so [`IdHasher`] hashes their keys with one
//! SplitMix64 finalizer, [`mix64`], and no output depends on the swap.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The SplitMix64 finalizer: an invertible mix in which every input bit
/// flips each output bit with probability close to one half, so strided
/// or clustered ids spread over the whole table.
#[inline]
pub const fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] for keys that hash as one integer, such as
/// [`crate::ids::TaskId`] and [`crate::ids::WorkerId`]: each integer
/// written is folded in with [`mix64`]. Not keyed, so use it only for
/// keys no adversary picks.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    /// Bytes are folded in eight at a time, little-endian, the last chunk
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A [`HashMap`] hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;
    use std::hash::BuildHasher;

    #[test]
    fn an_id_hashes_to_the_mix_of_its_raw_value() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for raw in [0, 1, 17, 2_654_435_778, u64::MAX] {
            assert_eq!(build.hash_one(TaskId::new(raw)), mix64(raw));
        }
    }

    #[test]
    fn mix64_spreads_strided_ids() {
        // Ids on a stride of 2^20 differ only in their high bits; their
        // hashes must differ in the low bits a table indexes by.
        let mut low: Vec<u64> = (0..1024u64).map(|i| mix64(i << 20) & 0xFFF).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 800, "{} distinct low 12-bit hashes", low.len());
    }

    #[test]
    fn byte_writes_fold_in_words() {
        let mut a = IdHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = IdHasher::default();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
    }
}
