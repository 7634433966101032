//! Streaming FNV-1a (64-bit) hashing with pinned constants: the one hash
//! behind every content-addressed cache key (tensor content,
//! specification and report keys).

/// Streaming FNV-1a (64-bit) hasher with the standard pinned constants.
///
/// Deliberately *not* `std::hash::Hasher`: `DefaultHasher`'s algorithm is
/// unspecified and has changed across Rust releases, while cache keys and
/// telemetry must be reproducible across toolchains.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// The FNV-1a 64-bit offset basis (the hash of zero bytes).
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher in the offset-basis state.
    #[inline]
    pub fn new() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a string with length framing, so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern (`-0.0 != 0.0`, NaNs by payload):
    /// cache keys must distinguish anything that could change a
    /// bit-identical result.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}
