//! The hierarchy of memory-trace observers (paper §3.2) and the projection
//! of masked symbols to observations (paper §5.3).
//!
//! An observer sees each memory access through the projection `π_{n:b}` to
//! the `n−b` most significant address bits: `b = 0` is the address-trace
//! observer, `b = 6` the 64-byte cache-line (block) observer, `b = 2` the
//! 4-byte cache-bank observer (CacheBleed), `b = 12` the 4-KB page observer.
//! Each has a *stuttering* variant that cannot distinguish repeated accesses
//! to the same unit.

use std::fmt;
use std::sync::Arc;

use leakaudit_mpi::Natural;

use crate::msym::MaskedSymbol;
use crate::sym::SymId;
use crate::value::ValueSet;

/// A memory-trace observer `view_{n:b}` (paper §3.2), optionally modulo
/// stuttering.
///
/// ```
/// use leakaudit_core::Observer;
///
/// let block = Observer::block(6); // 64-byte cache lines
/// assert_eq!(block.unit_bytes(), 64);
/// assert_eq!(block.to_string(), "block64");
/// assert_eq!(block.stuttering().to_string(), "b-block64");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Observer {
    /// `b`: number of invisible low offset bits; unit size is `2^b` bytes.
    offset_bits: u8,
    /// Whether repeated accesses to the same unit are indistinguishable.
    stuttering: bool,
}

impl Observer {
    /// The address-trace observer (`b = 0`): sees every accessed address.
    ///
    /// Security against it implies resilience to cache, TLB, DRAM and
    /// branch-prediction side channels (paper §3.2); restricted to
    /// instruction fetches it is the program-counter security model.
    pub fn address() -> Self {
        Observer {
            offset_bits: 0,
            stuttering: false,
        }
    }

    /// The block-trace observer: sees accesses at the granularity of memory
    /// blocks of `2^offset_bits` bytes (cache lines; commonly `b` = 5, 6
    /// or 7).
    pub fn block(offset_bits: u8) -> Self {
        Observer {
            offset_bits,
            stuttering: false,
        }
    }

    /// The bank-trace observer (`b = 2`): 4-byte cache banks, the
    /// granularity exploited by CacheBleed.
    pub fn bank() -> Self {
        Observer::block(2)
    }

    /// The page-trace observer (`b = 12`): 4096-byte pages.
    pub fn page() -> Self {
        Observer::block(12)
    }

    /// The stuttering variant of this observer (paper: `view^b-block` etc.).
    pub fn stuttering(self) -> Self {
        Observer {
            stuttering: true,
            ..self
        }
    }

    /// Number of invisible low bits `b`.
    pub fn offset_bits(&self) -> u8 {
        self.offset_bits
    }

    /// Unit size in bytes (`2^b`).
    pub fn unit_bytes(&self) -> u64 {
        1u64 << self.offset_bits
    }

    /// Whether this observer cannot distinguish repeated accesses to the
    /// same unit.
    pub fn is_stuttering(&self) -> bool {
        self.stuttering
    }

    /// Projects a masked symbol to this observer's observation (`π_{n:b}`
    /// applied to a masked symbol, paper §5.3).
    pub fn project(&self, m: &MaskedSymbol) -> Observation {
        project_range(m, self.offset_bits, m.width())
    }

    /// Projects every member of a value set, collapsing duplicates — the
    /// mechanism by which secret-dependent addresses within one unit leak
    /// nothing (paper §1, "the projection may collapse a multi-element set
    /// to a singleton").
    pub fn project_set(&self, v: &ValueSet) -> ObsSet {
        match v.as_slice() {
            None => ObsSet::top_bits(v.width().saturating_sub(self.offset_bits)),
            // Singletons — program counters, strong pointers — project
            // without touching the heap.
            Some([m]) => ObsSet::one(self.project(m)),
            Some(set) => ObsSet::from_observations(set.iter().map(|m| self.project(m))),
        }
    }

    /// Applies this observer's view to a *concrete* address trace: projects
    /// every address and, for stuttering observers, collapses maximal runs
    /// of equal units (paper §3.2, "Observations Modulo Stuttering").
    ///
    /// Used for empirical soundness validation against the emulator.
    pub fn view_concrete(&self, trace: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(trace.len());
        for &a in trace {
            let unit = a >> self.offset_bits;
            if self.stuttering && out.last() == Some(&unit) {
                continue;
            }
            out.push(unit);
        }
        out
    }
}

impl fmt::Display for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stut = if self.stuttering { "b-" } else { "" };
        match self.offset_bits {
            0 => write!(f, "{stut}address"),
            2 => write!(f, "{stut}bank{}", self.unit_bytes()),
            12 => write!(f, "{stut}page{}", self.unit_bytes()),
            _ => write!(f, "{stut}block{}", self.unit_bytes()),
        }
    }
}

/// Projects bits `lo..hi` of a masked symbol (general form used by the
/// worked examples; observers use `lo = b`, `hi = n`).
///
/// The result compares equal exactly when Proposition 1 allows counting the
/// two projections as one observation: all-known projections compare by
/// their bits; projections with symbolic bits compare by symbol *and* known
/// bits.
pub fn project_range(m: &MaskedSymbol, lo: u8, hi: u8) -> Observation {
    assert!(lo <= hi && hi <= m.width(), "invalid projection range");
    let bits = hi - lo;
    if bits == 0 {
        return Observation::Concrete { bits: 0, width: 0 };
    }
    let field = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let known = (m.mask().known_bits() >> lo) & field;
    let value = (m.mask().known_values() >> lo) & field;
    if known == field {
        Observation::Concrete {
            bits: value,
            width: bits,
        }
    } else {
        Observation::Symbolic {
            sym: m.sym(),
            known,
            value,
            width: bits,
        }
    }
}

/// What one observer sees in one memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Observation {
    /// The observed unit is fully determined by the masks.
    Concrete {
        /// The observed bits (already shifted down by `b`).
        bits: u64,
        /// Number of observed bits.
        width: u8,
    },
    /// Some observed bits come from a symbol; the observation is determined
    /// by the symbol identity plus the known bits (Proposition 1).
    Symbolic {
        /// The symbol providing the unknown bits.
        sym: SymId,
        /// Bitmap of known positions within the projection.
        known: u64,
        /// Values of the known positions.
        value: u64,
        /// Number of observed bits.
        width: u8,
    },
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::Concrete { bits, .. } => write!(f, "0x{bits:x}"),
            Observation::Symbolic {
                sym,
                known,
                value,
                width,
            } => {
                write!(f, "⟨{sym}:")?;
                for i in (0..*width).rev() {
                    if known >> i & 1 == 1 {
                        write!(f, "{}", (value >> i) & 1)?;
                    } else {
                        write!(f, "⊤")?;
                    }
                }
                write!(f, "⟩")
            }
        }
    }
}

impl fmt::Debug for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The set of observations one access may produce under one observer — a
/// vertex label of the memory-trace DAG (paper §6.1, with the projection
/// already applied per the §6.4 implementation notes).
///
/// Singleton sets (the overwhelmingly common label: an access whose unit
/// is secret-independent) are stored inline; larger sets are a sorted,
/// deduplicated slice behind an [`Arc`], so the DAG's label clones are
/// refcount bumps. Construction canonicalizes — a one-element set is
/// always the inline variant — so derived equality and ordering remain
/// structural, and a slice compares exactly as the ordered set of its
/// elements would.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObsSet {
    repr: ObsRepr,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum ObsRepr {
    /// Exactly one possible observation, stored inline.
    One(Observation),
    /// Zero or several possible observations, ascending and
    /// deduplicated (canonical: never one).
    Many(Arc<[Observation]>),
    /// Any of `2^bits` observations (projection of an unknown-high value).
    Top { bits: u8 },
}

impl ObsSet {
    /// The singleton observation set.
    pub fn one(o: Observation) -> Self {
        ObsSet {
            repr: ObsRepr::One(o),
        }
    }

    /// The set of every `2^bits` observation (an unknown-high access).
    fn top_bits(bits: u8) -> Self {
        ObsSet {
            repr: ObsRepr::Top { bits },
        }
    }

    /// Collects observations, deduplicating (canonicalizes singletons to
    /// the inline variant).
    pub fn from_observations(obs: impl IntoIterator<Item = Observation>) -> Self {
        let mut set: Vec<Observation> = obs.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        if let [o] = set[..] {
            return ObsSet::one(o);
        }
        ObsSet {
            repr: ObsRepr::Many(set.into()),
        }
    }

    /// Number of distinct observations this label permits — the factor
    /// `|π(L(v))|` of the counting formula (paper Eq. 3).
    pub fn count(&self) -> Natural {
        match &self.repr {
            ObsRepr::One(_) => Natural::one(),
            ObsRepr::Many(s) => Natural::from(s.len() as u64),
            ObsRepr::Top { bits } => Natural::one().shl_bits(*bits as usize),
        }
    }

    /// Like [`ObsSet::count`], but `None` when the count overflows `u64`
    /// (lets callers accumulate in machine words before spilling to
    /// big-number arithmetic).
    pub fn count_u64(&self) -> Option<u64> {
        match &self.repr {
            ObsRepr::One(_) => Some(1),
            ObsRepr::Many(s) => Some(s.len() as u64),
            ObsRepr::Top { bits } => 1u64.checked_shl(u32::from(*bits)),
        }
    }

    /// `true` iff exactly one observation is possible (the access leaks
    /// nothing to this observer).
    pub fn is_singleton(&self) -> bool {
        matches!(self.repr, ObsRepr::One(_))
    }
}

impl fmt::Display for ObsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            ObsRepr::Top { bits } => write!(f, "⊤^{bits}"),
            ObsRepr::One(o) => write!(f, "{{{o}}}"),
            ObsRepr::Many(s) => {
                write!(f, "{{")?;
                for (i, o) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Debug for ObsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{Mask, MaskBit};
    use crate::sym::SymbolTable;
    use std::collections::BTreeSet;

    #[test]
    fn example_1_bit_ranges() {
        // 32-bit architecture: pages (4KB) observe bits 12..31, cache lines
        // (64B) bits 6..31, banks (4B) bits 2..31.
        assert_eq!(Observer::page().offset_bits(), 12);
        assert_eq!(Observer::block(6).offset_bits(), 6);
        assert_eq!(Observer::bank().offset_bits(), 2);
        assert_eq!(Observer::address().offset_bits(), 0);
    }

    #[test]
    fn example_4_projection_counting() {
        // x♯ = {(s,(0,0,1)), (t,(⊤,⊤,1)), (u,(1,1,1))} over 3 bits.
        let mut tab = SymbolTable::new();
        let s = tab.fresh("s");
        let t = tab.fresh("t");
        let u = tab.fresh("u");
        let m_s = MaskedSymbol::new(
            s,
            Mask::from_bits(&[MaskBit::One, MaskBit::Zero, MaskBit::Zero]),
        );
        let m_t = MaskedSymbol::new(
            t,
            Mask::from_bits(&[MaskBit::One, MaskBit::Top, MaskBit::Top]),
        );
        let m_u = MaskedSymbol::new(
            u,
            Mask::from_bits(&[MaskBit::One, MaskBit::One, MaskBit::One]),
        );

        // Projection to the two most significant bits: three observations.
        let top2: BTreeSet<Observation> = [m_s, m_t, m_u]
            .iter()
            .map(|m| project_range(m, 1, 3))
            .collect();
        assert_eq!(top2.len(), 3);

        // Projection to the least significant bit: a singleton {1}.
        let low1: BTreeSet<Observation> = [m_s, m_t, m_u]
            .iter()
            .map(|m| project_range(m, 0, 1))
            .collect();
        assert_eq!(low1.len(), 1);
        assert_eq!(
            low1.iter().next(),
            Some(&Observation::Concrete { bits: 1, width: 1 })
        );
    }

    #[test]
    fn block_projection_collapses_same_line_addresses() {
        // Addresses 0x80eb140..0x80eb147 all fall in block 0x80eb140 / 64.
        let obs = Observer::block(6);
        let set = ValueSet::from_constants((0..8).map(|k| 0x80e_b140 + k), 32);
        let projected = obs.project_set(&set);
        assert!(projected.is_singleton());
        assert_eq!(projected.count(), Natural::one());
        // The address observer sees all eight.
        let addr = Observer::address().project_set(&set);
        assert_eq!(addr.count(), Natural::from(8u32));
    }

    #[test]
    fn aligned_symbolic_pointer_blocks_are_singleton() {
        // (s, ⊤…⊤000000) + k for k in 0..64 all project to the same block
        // observation ⟨s:⊤…⊤⟩ — the heart of the scatter/gather proof.
        let mut tab = SymbolTable::new();
        let s = tab.fresh("buf");
        let aligned = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
        let mut obs_set = BTreeSet::new();
        for k in 0..64u64 {
            let ptr = crate::ops::apply(
                &mut tab,
                crate::ops::BinOp::Add,
                &aligned,
                &MaskedSymbol::constant(k, 32),
            )
            .value;
            obs_set.insert(Observer::block(6).project(&ptr));
        }
        assert_eq!(obs_set.len(), 1, "same cache line for any offset < 64");
        // But the bank observer (b=2) distinguishes 16 banks.
        let mut banks = BTreeSet::new();
        for k in 0..64u64 {
            let ptr = crate::ops::apply(
                &mut tab,
                crate::ops::BinOp::Add,
                &aligned,
                &MaskedSymbol::constant(k, 32),
            )
            .value;
            banks.insert(Observer::bank().project(&ptr));
        }
        assert_eq!(banks.len(), 16);
    }

    #[test]
    fn top_value_projects_to_exponential_count() {
        let obs = Observer::block(6);
        let projected = obs.project_set(&ValueSet::top(32));
        assert_eq!(projected.count(), Natural::one().shl_bits(26));
    }

    #[test]
    fn stuttering_view_collapses_runs() {
        // Paper: AABCDDC and ABBBCCDDCC both map to ABCDC.
        let obs = Observer::address().stuttering();
        let (a, b, c, d) = (1u64, 2, 3, 4);
        assert_eq!(
            obs.view_concrete(&[a, a, b, c, d, d, c]),
            vec![a, b, c, d, c]
        );
        assert_eq!(
            obs.view_concrete(&[a, b, b, b, c, c, d, d, c, c]),
            vec![a, b, c, d, c]
        );
        // The exact observer keeps repetitions.
        assert_eq!(Observer::address().view_concrete(&[a, a, b]), vec![a, a, b]);
    }

    #[test]
    fn view_concrete_projects_units() {
        let obs = Observer::block(6);
        assert_eq!(obs.view_concrete(&[0x100, 0x13f, 0x140]), vec![4, 4, 5]);
    }

    #[test]
    fn observation_display() {
        let mut tab = SymbolTable::new();
        let s = tab.fresh("s");
        let m = MaskedSymbol::new(s, Mask::top(8).with_low_bits_known(4, 0b1010));
        let o = project_range(&m, 0, 8);
        assert_eq!(o.to_string(), format!("⟨{s}:⊤⊤⊤⊤1010⟩"));
        let c = project_range(&MaskedSymbol::constant(0xab, 8), 0, 8);
        assert_eq!(c.to_string(), "0xab");
    }

    #[test]
    fn observer_names() {
        assert_eq!(Observer::address().to_string(), "address");
        assert_eq!(Observer::address().stuttering().to_string(), "b-address");
        assert_eq!(Observer::block(5).to_string(), "block32");
        assert_eq!(Observer::block(6).stuttering().to_string(), "b-block64");
        assert_eq!(Observer::bank().to_string(), "bank4");
        assert_eq!(Observer::page().to_string(), "page4096");
    }
}
