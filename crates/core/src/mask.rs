//! Bit masks over the alphabet `{0, 1, ⊤}` (paper §5.1).
//!
//! A [`Mask`] records, for each bit position of a word, whether the bit is
//! known to be `0`, known to be `1`, or unknown (`⊤`, *symbolic*). Masked
//! bits are known at analysis time; symbolic bits are resolved only by a
//! valuation of the accompanying symbol (see
//! [`MaskedSymbol`](crate::MaskedSymbol)).

use std::fmt;

/// The value of a single mask bit: `0`, `1`, or `⊤` (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MaskBit {
    /// The bit is known to be `0`.
    Zero,
    /// The bit is known to be `1`.
    One,
    /// The bit is unknown at analysis time (written `⊤` in the paper).
    Top,
}

impl MaskBit {
    /// Converts a concrete bit into a mask bit.
    pub fn from_bool(b: bool) -> Self {
        if b {
            MaskBit::One
        } else {
            MaskBit::Zero
        }
    }

    /// Returns the concrete value if the bit is known.
    pub fn known_value(self) -> Option<bool> {
        match self {
            MaskBit::Zero => Some(false),
            MaskBit::One => Some(true),
            MaskBit::Top => None,
        }
    }
}

/// A pattern of known and unknown bits over a word of up to 64 bits
/// (`m ∈ {0, 1, ⊤}^n` in the paper).
///
/// ```
/// use leakaudit_core::{Mask, MaskBit};
///
/// // The mask of a cache-line-aligned pointer: ⊤···⊤000000 (paper Ex. 6).
/// let aligned = Mask::top(32).with_low_bits_known(6, 0);
/// assert_eq!(aligned.bit(0), MaskBit::Zero);
/// assert_eq!(aligned.bit(6), MaskBit::Top);
/// assert_eq!(aligned.to_string(), "⊤{26}000000");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mask {
    /// Bit width `n` (1..=64).
    width: u8,
    /// Bit `i` set ⇔ position `i` is known (`0` or `1`).
    known: u64,
    /// Values of known bits; invariant: `value & !known == 0` and both
    /// fields are zero above `width`.
    value: u64,
}

impl Mask {
    /// The fully-unknown mask `(⊤, …, ⊤)` of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn top(width: u8) -> Self {
        assert!((1..=64).contains(&width), "mask width must be in 1..=64");
        Mask {
            width,
            known: 0,
            value: 0,
        }
    }

    /// A fully-known mask holding `value` (truncated to `width` bits).
    pub fn constant(value: u64, width: u8) -> Self {
        let m = Mask::top(width);
        let all = m.width_mask();
        Mask {
            width,
            known: all,
            value: value & all,
        }
    }

    /// Builds a mask from explicit per-bit values, least significant first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or longer than 64.
    pub fn from_bits(bits: &[MaskBit]) -> Self {
        let mut m = Mask::top(bits.len() as u8);
        for (i, &b) in bits.iter().enumerate() {
            m = m.with_bit(i as u8, b);
        }
        m
    }

    /// The bit width `n`.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// All-ones pattern of this mask's width.
    pub fn width_mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Bitmap of known positions.
    pub fn known_bits(&self) -> u64 {
        self.known
    }

    /// Values of the known positions (0 at unknown positions).
    pub fn known_values(&self) -> u64 {
        self.value
    }

    /// The mask bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u8) -> MaskBit {
        assert!(i < self.width, "bit index out of range");
        if self.known >> i & 1 == 0 {
            MaskBit::Top
        } else if self.value >> i & 1 == 1 {
            MaskBit::One
        } else {
            MaskBit::Zero
        }
    }

    /// Returns a copy with bit `i` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn with_bit(&self, i: u8, b: MaskBit) -> Mask {
        assert!(i < self.width, "bit index out of range");
        let mut m = *self;
        match b {
            MaskBit::Top => {
                m.known &= !(1 << i);
                m.value &= !(1 << i);
            }
            MaskBit::Zero => {
                m.known |= 1 << i;
                m.value &= !(1 << i);
            }
            MaskBit::One => {
                m.known |= 1 << i;
                m.value |= 1 << i;
            }
        }
        m
    }

    /// Returns a copy whose `count` least-significant bits are known and
    /// equal to the low bits of `values`.
    pub fn with_low_bits_known(&self, count: u8, values: u64) -> Mask {
        let mut m = *self;
        for i in 0..count {
            m = m.with_bit(i, MaskBit::from_bool(values >> i & 1 == 1));
        }
        m
    }

    /// `true` iff every bit is known (the mask denotes a single bitvector).
    pub fn is_fully_known(&self) -> bool {
        self.known == self.width_mask()
    }

    /// `true` iff no bit is known.
    pub fn is_fully_unknown(&self) -> bool {
        self.known == 0
    }

    /// Number of unknown (`⊤`) bits.
    pub fn unknown_count(&self) -> u32 {
        (self.width_mask() & !self.known).count_ones()
    }

    /// The concrete value, if the mask is fully known.
    pub fn as_constant(&self) -> Option<u64> {
        self.is_fully_known().then_some(self.value)
    }

    /// Fills the unknown positions from `symbol_bits` (the valuation `λ(s)`),
    /// yielding the concrete word `λ(s) ⊙ m` of paper §5.2.
    pub fn apply_to(&self, symbol_bits: u64) -> u64 {
        (self.value & self.known) | (symbol_bits & !self.known & self.width_mask())
    }

    /// Iterates over the bits, least significant first.
    pub fn iter(&self) -> impl Iterator<Item = MaskBit> + '_ {
        (0..self.width).map(|i| self.bit(i))
    }
}

impl fmt::Display for Mask {
    /// Formats most-significant bit first, run-length compressing `⊤` runs
    /// longer than three as `⊤{k}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut i = self.width as i32 - 1;
        while i >= 0 {
            match self.bit(i as u8) {
                MaskBit::Zero => {
                    write!(f, "0")?;
                    i -= 1;
                }
                MaskBit::One => {
                    write!(f, "1")?;
                    i -= 1;
                }
                MaskBit::Top => {
                    let mut run = 0;
                    while i >= 0 && self.bit(i as u8) == MaskBit::Top {
                        run += 1;
                        i -= 1;
                    }
                    if run > 3 {
                        write!(f, "⊤{{{run}}}")?;
                    } else {
                        for _ in 0..run {
                            write!(f, "⊤")?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mask[{}]({})", self.width, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_has_no_known_bits() {
        let m = Mask::top(32);
        assert!(m.is_fully_unknown());
        assert_eq!(m.unknown_count(), 32);
        assert_eq!(m.as_constant(), None);
    }

    #[test]
    fn constant_is_fully_known() {
        let m = Mask::constant(0xdead_beef, 32);
        assert!(m.is_fully_known());
        assert_eq!(m.as_constant(), Some(0xdead_beef));
        assert_eq!(m.bit(0), MaskBit::One);
        assert_eq!(m.bit(4), MaskBit::Zero);
    }

    #[test]
    fn constant_truncates_to_width() {
        let m = Mask::constant(0x1_0000_0001, 32);
        assert_eq!(m.as_constant(), Some(1));
    }

    #[test]
    fn with_bit_round_trips() {
        let m = Mask::top(8)
            .with_bit(0, MaskBit::One)
            .with_bit(3, MaskBit::Zero);
        assert_eq!(m.bit(0), MaskBit::One);
        assert_eq!(m.bit(3), MaskBit::Zero);
        assert_eq!(m.bit(5), MaskBit::Top);
        let back = m.with_bit(0, MaskBit::Top).with_bit(3, MaskBit::Top);
        assert!(back.is_fully_unknown());
    }

    #[test]
    fn aligned_pointer_mask_example6() {
        // (s, ⊤···⊤000000): cache-line aligned, 64-byte lines.
        let m = Mask::top(32).with_low_bits_known(6, 0);
        assert_eq!(m.unknown_count(), 26);
        assert_eq!(m.apply_to(0xffff_ffff), 0xffff_ffc0);
        assert_eq!(m.apply_to(0x0000_1234), 0x0000_1200);
    }

    #[test]
    fn apply_to_respects_known_bits() {
        let m = Mask::top(8).with_low_bits_known(4, 0b1010);
        assert_eq!(m.apply_to(0b1111_0101), 0b1111_1010);
    }

    #[test]
    fn display_compresses_top_runs() {
        assert_eq!(
            Mask::top(32).with_low_bits_known(6, 0).to_string(),
            "⊤{26}000000"
        );
        assert_eq!(Mask::constant(0b101, 3).to_string(), "101");
        assert_eq!(Mask::top(2).to_string(), "⊤⊤");
    }

    #[test]
    fn from_bits_matches_example4_masks() {
        // Paper Ex. 4 uses three-bit masks like (0,0,1) and (⊤,⊤,1).
        // The paper writes masks most-significant first; from_bits takes
        // least-significant first.
        let m001 = Mask::from_bits(&[MaskBit::One, MaskBit::Zero, MaskBit::Zero]);
        assert_eq!(m001.as_constant(), Some(0b001));
        let mtt1 = Mask::from_bits(&[MaskBit::One, MaskBit::Top, MaskBit::Top]);
        assert_eq!(mtt1.bit(0), MaskBit::One);
        assert_eq!(mtt1.bit(2), MaskBit::Top);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_width_rejected() {
        let _ = Mask::top(0);
    }

    #[test]
    fn width_64_works() {
        let m = Mask::constant(u64::MAX, 64);
        assert_eq!(m.as_constant(), Some(u64::MAX));
        assert_eq!(Mask::top(64).apply_to(u64::MAX), u64::MAX);
    }
}
