//! A fast, deterministic hasher for the analyzer's internal maps.
//!
//! The interpreter's hot loops hit the `succ` memo of
//! [`crate::SymbolTable`] (one offset map per origin) on every
//! pointer-arithmetic step, and the trace DAG hashes each frontier
//! vertex's preds and label summary before a §6.4 sibling merge, so the
//! default SipHash (with its per-process random keys) is both slower than
//! needed and non-deterministic across runs. This is the classic
//! multiply-rotate "Fx" construction: not collision-resistant, but the
//! keys here are offsets and small fixed-shape tuples of ids and masks,
//! for which it behaves well.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`], usable as the `S` parameter of
/// `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; see the module docs.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m: HashMap<(u32, u64), u32, FxBuildHasher> = HashMap::default();
        m.insert((1, 4), 7);
        m.insert((1, 8), 9);
        assert_eq!(m.get(&(1, 4)), Some(&7));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"0123456789ab");
        let mut b = FxHasher::default();
        b.write(b"0123456789ab");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"0123456789ac");
        assert_ne!(a.finish(), c.finish());
    }
}
