//! Masked symbols (paper §5.1): pairs `(s, m)` of a symbol and a mask.

use std::fmt;

use crate::mask::Mask;
use crate::sym::SymId;

/// A masked symbol `(s, m)`: an unknown base value `s` together with
/// bit-level knowledge `m` about it (paper §5.1).
///
/// Two special cases generalize familiar notions:
///
/// * `(s, ⊤)` is a completely unknown value, and
/// * `(s, m)` with `m ∈ {0,1}^n` *is* the bitvector `m` — the symbol is
///   irrelevant. This type canonicalizes such values to the distinguished
///   symbol [`SymId::CONST`] so that equality and set membership behave like
///   the concretization: two fully-known masked symbols are equal iff their
///   bits are.
///
/// ```
/// use leakaudit_core::{Mask, MaskedSymbol, SymbolTable};
///
/// let mut table = SymbolTable::new();
/// let s = table.fresh("buf");
/// let aligned = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
/// assert!(!aligned.is_constant());
/// assert_eq!(MaskedSymbol::constant(7, 32), MaskedSymbol::constant(7, 32));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MaskedSymbol {
    sym: SymId,
    mask: Mask,
}

impl MaskedSymbol {
    /// Creates a masked symbol, canonicalizing fully-known masks to
    /// [`SymId::CONST`].
    pub fn new(sym: SymId, mask: Mask) -> Self {
        if mask.is_fully_known() {
            MaskedSymbol {
                sym: SymId::CONST,
                mask,
            }
        } else {
            MaskedSymbol { sym, mask }
        }
    }

    /// The fully-known masked symbol denoting `value` at the given width.
    pub fn constant(value: u64, width: u8) -> Self {
        MaskedSymbol {
            sym: SymId::CONST,
            mask: Mask::constant(value, width),
        }
    }

    /// The fully-unknown masked symbol `(s, ⊤)`.
    pub fn symbol(sym: SymId, width: u8) -> Self {
        MaskedSymbol {
            sym,
            mask: Mask::top(width),
        }
    }

    /// The symbol component.
    pub fn sym(&self) -> SymId {
        self.sym
    }

    /// The mask component.
    pub fn mask(&self) -> Mask {
        self.mask
    }

    /// The bit width.
    pub fn width(&self) -> u8 {
        self.mask.width()
    }

    /// `true` iff all bits are known.
    pub fn is_constant(&self) -> bool {
        self.mask.is_fully_known()
    }

    /// The concrete value, if fully known.
    pub fn as_constant(&self) -> Option<u64> {
        self.mask.as_constant()
    }

    /// Concretizes under a valuation of the symbol: `λ(s) ⊙ m` (paper §5.2).
    ///
    /// `symbol_bits` is `λ(s)`; it is ignored at known positions.
    pub fn concretize(&self, symbol_bits: u64) -> u64 {
        self.mask.apply_to(symbol_bits)
    }
}

impl fmt::Display for MaskedSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_constant() {
            write!(f, "0x{:x}", self.mask.known_values())
        } else {
            write!(f, "({}, {})", self.sym, self.mask)
        }
    }
}

impl fmt::Debug for MaskedSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymbolTable;

    #[test]
    fn constants_canonicalize_symbol_away() {
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        let via_new = MaskedSymbol::new(s, Mask::constant(42, 32));
        assert_eq!(via_new, MaskedSymbol::constant(42, 32));
        assert_eq!(via_new.sym(), SymId::CONST);
    }

    #[test]
    fn distinct_symbols_distinct_values() {
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        let u = t.fresh("u");
        assert_ne!(
            MaskedSymbol::symbol(s, 32),
            MaskedSymbol::symbol(u, 32),
            "unknown values with different symbols must not collapse"
        );
    }

    #[test]
    fn concretize_fills_unknown_bits() {
        let mut t = SymbolTable::new();
        let s = t.fresh("buf");
        let aligned = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
        assert_eq!(aligned.concretize(0x0804_8123), 0x0804_8100);
    }

    #[test]
    fn display_forms() {
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        assert_eq!(MaskedSymbol::constant(255, 32).to_string(), "0xff");
        let m = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
        assert_eq!(m.to_string(), format!("({s}, ⊤{{26}}000000)"));
    }
}
