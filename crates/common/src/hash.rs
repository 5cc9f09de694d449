//! [`FxHashMap`]: a `HashMap` under rustc's multiply-rotate "Fx" hash, a
//! few cycles per key where SipHash-1-3 costs tens. **It is not
//! DoS-resistant**: whoever picks the keys can make them collide. It is for
//! term and document ids and for the catalog's own text (the term
//! registry); keys from outside keep the standard `HashMap`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Folds each 8-byte word of its input in as `(h.rotate_left(5) ^ word) · K`,
/// `K` odd, and then the last 1–7 bytes as one more word with their count
/// above them. Integers arrive through `write` as their bytes, so a `u32`
/// id is one fold.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("an 8-byte chunk");
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let count = tail.len() as u64;
            self.add(tail.iter().rfold(count, |w, &b| w << 8 | b as u64));
        }
    }

    /// The state turned so its best-mixed high bits come out low, where
    /// `HashMap` takes its bucket index: unturned, short text keys that
    /// differ in one byte crowd into neighbouring buckets.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    /// Every length from empty to three words plus a full tail folds in
    /// every byte: no two prefixes of one string collide, a tail's count
    /// tells it from the same tail with a zero byte more, and a change in
    /// any single byte changes the hash.
    #[test]
    fn every_byte_of_every_tail_is_hashed() {
        let text: Vec<u8> = (1..=27u8).collect();
        let prefixes: Vec<u64> = (0..=text.len()).map(|n| hash_bytes(&text[..n])).collect();
        let mut distinct = prefixes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), prefixes.len(), "two prefixes collided");
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        for n in 1..=text.len() {
            for i in 0..n {
                let mut flipped = text[..n].to_vec();
                flipped[i] ^= 0x80;
                assert_ne!(hash_bytes(&flipped), prefixes[n], "byte {i} of {n} ignored");
            }
        }
    }

    proptest! {
        /// Maps keyed by text and by ids behave like an ordered oracle.
        #[test]
        fn prop_fx_maps_equal_a_btreemap(
            ops in proptest::collection::vec((0u32..64, proptest::collection::vec(0usize..4, 0..12)), 0..200),
        ) {
            let mut by_id: FxHashMap<u32, usize> = FxHashMap::default();
            let mut by_text: FxHashMap<String, usize> = FxHashMap::default();
            let (mut ids, mut texts) = (BTreeMap::new(), BTreeMap::new());
            for (i, (id, letters)) in ops.into_iter().enumerate() {
                let text: String = letters.into_iter().map(|l| ['a', 'b', 'é', 'Σ'][l]).collect();
                prop_assert_eq!(by_id.insert(id, i), ids.insert(id, i));
                prop_assert_eq!(by_text.insert(text.clone(), i), texts.insert(text, i));
            }
            prop_assert_eq!(by_id.into_iter().collect::<BTreeMap<_, _>>(), ids);
            prop_assert_eq!(by_text.into_iter().collect::<BTreeMap<_, _>>(), texts);
        }
    }
}
