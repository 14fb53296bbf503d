//! FNV-1a, the workspace's one 64-bit hash: stable across platforms,
//! runs and thread counts. Every digest the determinism gates compare
//! (fault matrix, generator fuzz, sanitizer report, dataset codec) and
//! every label-seeded direction of the encoder is an FNV-1a fold.

/// The FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// A streaming FNV-1a hasher: feeding bytes in several [`Self::update`]
/// calls gives the same digest as one call over their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the standard [`OFFSET_BASIS`].
    pub const fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// A hasher starting from a custom basis (a domain-separated fold).
    pub(crate) const fn with_basis(basis: u64) -> Self {
        Self(basis)
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::default();
        h.update(b"foo");
        h.update(b"");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        assert_ne!(Fnv1a::with_basis(1).finish(), Fnv1a::new().finish());
    }
}
