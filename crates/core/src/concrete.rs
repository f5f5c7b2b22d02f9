//! Concretization: valuations `λ : Sym → {0,1}^n` and the `γ` functions of
//! paper §5.2/§6.2.
//!
//! These are not used by the analysis itself — the whole point of the
//! masked-symbol domain is that counting works *without* knowing `λ`
//! (Proposition 1). They exist to state and test soundness: property tests
//! draw random valuations and check that concrete results are covered by
//! abstract ones, and the integration suite compares emulator traces
//! against static bounds.

use std::collections::{BTreeSet, HashMap};

use crate::msym::MaskedSymbol;
use crate::observer::Observer;
use crate::sym::SymId;
use crate::value::ValueSet;

/// A valuation `λ : Sym → {0,1}^n` assigning concrete bits to symbols
/// (paper §5.2). For heap addresses, one valuation is one heap layout.
///
/// ```
/// use leakaudit_core::{Mask, MaskedSymbol, SymbolTable, Valuation};
///
/// let mut t = SymbolTable::new();
/// let s = t.fresh("buf");
/// let mut lambda = Valuation::new();
/// lambda.assign(s, 0x0804_8123);
/// let aligned = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
/// assert_eq!(lambda.concretize(&aligned), 0x0804_8100);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    map: HashMap<SymId, u64>,
}

impl Valuation {
    /// The empty valuation (unassigned symbols concretize to zero bits).
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Assigns the bits of `sym`.
    pub fn assign(&mut self, sym: SymId, bits: u64) -> &mut Self {
        self.map.insert(sym, bits);
        self
    }

    /// The bits of `sym` (zero if unassigned).
    fn bits_of(&self, sym: SymId) -> u64 {
        self.map.get(&sym).copied().unwrap_or(0)
    }

    /// `λ(s) ⊙ m` (paper §5.2): known bits from the mask, unknown bits from
    /// the valuation.
    pub fn concretize(&self, m: &MaskedSymbol) -> u64 {
        m.concretize(self.bits_of(m.sym()))
    }

    /// `γ^{M♯}_λ` of a value set: the set of concrete words it denotes.
    /// `None` for `Top` (denotes every word).
    pub fn concretize_set(&self, v: &ValueSet) -> Option<BTreeSet<u64>> {
        Some(v.as_slice()?.iter().map(|m| self.concretize(m)).collect())
    }

    /// Checks Proposition 1 for a concrete projection: the number of
    /// distinct *concrete* observations under this valuation is at most the
    /// number of distinct *abstract* observations.
    pub fn projection_bound_holds(&self, observer: Observer, v: &ValueSet) -> bool {
        let Some(concrete) = self.concretize_set(v) else {
            return true; // Top: abstract count is already 2^(n-b).
        };
        let concrete_units: BTreeSet<u64> = concrete
            .iter()
            .map(|a| a >> observer.offset_bits())
            .collect();
        let abstract_count = observer.project_set(v).count();
        abstract_count >= leakaudit_mpi::Natural::from(concrete_units.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::Mask;
    use crate::sym::SymbolTable;

    #[test]
    fn unassigned_symbols_default_to_zero() {
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        let lambda = Valuation::new();
        assert_eq!(lambda.concretize(&MaskedSymbol::symbol(s, 32)), 0);
        assert_eq!(lambda.concretize(&MaskedSymbol::constant(9, 32)), 9);
    }

    #[test]
    fn concretize_set_collapses_coinciding_values() {
        // {s, s+0}: same concrete value — γ is a set, so size 1.
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        let u = t.fresh("u");
        let v = ValueSet::from_masked_symbols([
            MaskedSymbol::symbol(s, 32),
            MaskedSymbol::symbol(u, 32),
        ]);
        let mut lambda = Valuation::new();
        lambda.assign(s, 7).assign(u, 7);
        assert_eq!(lambda.concretize_set(&v).unwrap().len(), 1);
        // The abstract count is 2 — an over-approximation, per Prop. 1.
        assert!(lambda.projection_bound_holds(Observer::address(), &v));
    }

    #[test]
    fn proposition_1_on_masked_sets() {
        // Different masks over the same symbol, projected to blocks.
        let mut t = SymbolTable::new();
        let s = t.fresh("buf");
        let aligned = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
        let v = ValueSet::from_masked_symbols(
            (0..8).map(|k| MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, k))),
        );
        for bits in [0x0, 0x1234_5678u64, 0xffff_ffff] {
            let mut lambda = Valuation::new();
            lambda.assign(s, bits);
            assert!(lambda.projection_bound_holds(Observer::block(6), &v));
            assert!(lambda.projection_bound_holds(Observer::address(), &v));
            assert!(lambda.projection_bound_holds(Observer::bank(), &v));
        }
        let _ = aligned;
    }

    #[test]
    fn top_always_satisfies_the_bound() {
        let lambda = Valuation::new();
        assert!(lambda.projection_bound_holds(Observer::address(), &ValueSet::top(32)));
    }
}
