//! A tiny stable hasher for structural fingerprints.
//!
//! Block signatures ([`crate::Kernel::block_signature`]) and launch-cache
//! keys ([`crate::LaunchCache`]) need a hash that is deterministic across
//! runs and Rust versions — `std::hash::DefaultHasher` guarantees neither.
//! The mixer is FNV-1a lifted from octets to whole 64-bit words (one
//! xor-multiply per word instead of eight): signature computation sits on
//! the launch fast path, so per-byte hashing is measurable. The word-level
//! variant keeps FNV's stability and avalanche-by-multiplication while
//! costing an eighth of the multiplies.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorb one word with a single FNV-1a xor-multiply round.
    #[inline]
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        self.state ^= word;
        self.state = self.state.wrapping_mul(FNV_PRIME);
        self
    }

    #[inline]
    pub fn write_usize(&mut self, word: usize) -> &mut Self {
        self.write_u64(word as u64)
    }

    /// Absorb a slice of words (e.g. a CSR index array). The slice *length*
    /// is folded in first: without it, consecutive `write_slice` calls
    /// concatenate, so two operand sets that split the same word sequence at
    /// different boundaries (a length-extension pair) would collide into one
    /// fingerprint — and one [`crate::LaunchCache`] key.
    pub fn write_slice(&mut self, words: &[u32]) -> &mut Self {
        self.write_usize(words.len());
        for &w in words {
            self.write_u64(w as u64);
        }
        self
    }

    /// Absorb raw bytes (e.g. a kernel name), length-prefixed like
    /// [`Fingerprint::write_slice`].
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_usize(bytes.len());
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot hash of a word sequence.
pub fn hash_words(words: &[u64]) -> u64 {
    let mut f = Fingerprint::new();
    for &w in words {
        f.write_u64(w);
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 3]));
        assert_ne!(hash_words(&[1, 2, 3]), hash_words(&[3, 2, 1]));
        assert_ne!(hash_words(&[0]), hash_words(&[]));
        // Known FNV-1a property: empty input hashes to the offset basis.
        assert_eq!(hash_words(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut f = Fingerprint::new();
        f.write_u64(7).write_u64(11);
        assert_eq!(f.finish(), hash_words(&[7, 11]));
    }

    #[test]
    fn slice_boundaries_are_not_extension_collisions() {
        // Regression: two same-prefix topologies that split the identical
        // word stream at different buffer boundaries must not share a
        // fingerprint. Before length mixing, `[1,2,3] ++ [4]` and
        // `[1,2,3,4] ++ []` hashed identically.
        let mut a = Fingerprint::new();
        a.write_slice(&[1, 2, 3]).write_slice(&[4]);
        let mut b = Fingerprint::new();
        b.write_slice(&[1, 2, 3, 4]).write_slice(&[]);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fingerprint::new();
        c.write_bytes(b"ab").write_bytes(b"c");
        let mut d = Fingerprint::new();
        d.write_bytes(b"abc").write_bytes(b"");
        assert_ne!(c.finish(), d.finish());

        // Same split, same content: still deterministic.
        let mut e = Fingerprint::new();
        e.write_slice(&[1, 2, 3]).write_slice(&[4]);
        assert_eq!(a.finish(), e.finish());
    }
}
