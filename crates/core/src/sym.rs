//! Symbols, provenance, and the origin/offset mechanism of paper §5.4.2.

use std::collections::HashMap;
use std::fmt;

use crate::hash::FxBuildHasher;
use crate::mask::Mask;
use crate::msym::MaskedSymbol;

/// Identifier of a symbol (`s ∈ Sym` in the paper).
///
/// Symbols stand for values that are unknown at analysis time — typically
/// base addresses of dynamically allocated memory (*low but unknown* inputs,
/// paper §4). Fresh symbols are also introduced by abstract operations whose
/// result bits cannot be tied to an operand (paper §5.4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub(crate) u32);

impl SymId {
    /// The distinguished symbol carried by fully-known masked symbols.
    ///
    /// Its valuation is irrelevant: every bit is determined by the mask.
    pub const CONST: SymId = SymId(0);

    /// The raw index (useful for dense side tables).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SymId::CONST {
            write!(f, "·")
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

impl fmt::Debug for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// How a symbol came to exist — for diagnostics and for distinguishing the
/// *low input* symbols of `Sym_lo` from analysis-introduced ones (§7.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Part of the low initial state (e.g. a `malloc` result).
    Input,
    /// Introduced by an abstract operation during analysis.
    Derived {
        /// Short description of the producing operation, e.g. `"add"`.
        op: &'static str,
    },
}

/// Per-symbol metadata, one entry per allocated id.
///
/// Input symbols carry their user-supplied name; derived symbols store only
/// the producing operation — their display name `"{op}#{id}"` is rendered on
/// demand by [`SymbolTable::name`]. Abstract pointer arithmetic allocates a
/// derived symbol per step, so keeping allocation free of `format!` (and of
/// a second parallel `Vec` push) matters for interpreter throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SymInfo {
    /// Part of the low initial state, with its display name.
    Input(Box<str>),
    /// Introduced by abstract operation `op`.
    Derived(&'static str),
}

/// Allocator and metadata store for symbols.
///
/// Beyond allocation, the table implements the offset-tracking mechanism of
/// paper §5.4.2: every masked symbol has an *origin* and an *offset* from
/// that origin (`orig`/`off`), with a `succ` memo so that adding the same
/// constant to the same pointer twice yields the *same* masked symbol. This
/// is what lets the analysis decide pointer equalities like the loop guard
/// `x ≠ y` of paper Ex. 7/8.
///
/// A heavy analysis records thousands of offsets, nearly all on fresh
/// symbols derived from one or two origins, so both memos are shaped to
/// that load instead of keyed by whole `(masked symbol, offset)` tuples:
/// `orig`/`off` is a dense table indexed by the derived symbol's
/// [`SymId`], and `succ` is one offset map per origin.
///
/// ```
/// use leakaudit_core::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let buf = table.fresh("buf");
/// assert_eq!(table.name(buf), "buf");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    syms: Vec<SymInfo>,
    /// `orig`/`off` of §5.4.2, indexed by the derived masked symbol's
    /// [`SymId`]; an id past the end, like an [`OriginSlot::Empty`] slot,
    /// has no recorded derivation.
    origin: Vec<OriginSlot>,
    /// `succ(origin, offset)` memo of §5.4.2: per origin, offset →
    /// successor.
    succ: HashMap<MaskedSymbol, HashMap<u64, MaskedSymbol, FxBuildHasher>, FxBuildHasher>,
    /// When journaling (see [`SymbolTable::begin_journal`]), every
    /// [`SymbolTable::record_offset`] call that passes the early-return
    /// guard is also appended here, so a memo layer can replay the
    /// table mutations of a recorded transfer verbatim.
    journal: Option<Vec<OffsetRecord>>,
}

/// One recorded `orig`/`off` pair of a derived masked symbol, keyed by
/// the derived symbol's mask (its [`SymId`] is the slot's index).
#[derive(Debug, Clone, Copy)]
struct OriginEntry {
    mask: Mask,
    origin: MaskedSymbol,
    offset: u64,
}

/// The `orig`/`off` entries of one symbol, one per mask it was recorded
/// under.
#[derive(Debug, Clone, Default)]
enum OriginSlot {
    /// No recorded derivation.
    #[default]
    Empty,
    /// One mask: a fresh symbol from one pointer step, the common case.
    One(OriginEntry),
    /// Several masks, sorted by mask. A uniform constant add over a set
    /// (`ValueSet`'s shared fresh symbol) records one low-bit mask per
    /// element, up to 64 of them.
    Many(Vec<OriginEntry>),
}

impl OriginSlot {
    fn get(&self, mask: Mask) -> Option<&OriginEntry> {
        match self {
            OriginSlot::Empty => None,
            OriginSlot::One(e) => (e.mask == mask).then_some(e),
            OriginSlot::Many(v) => v
                .binary_search_by_key(&mask, |e| e.mask)
                .ok()
                .map(|i| &v[i]),
        }
    }

    /// Inserts `entry`, overwriting the entry of the same mask.
    fn insert(&mut self, entry: OriginEntry) {
        match self {
            OriginSlot::Empty => *self = OriginSlot::One(entry),
            OriginSlot::One(e) if e.mask == entry.mask => *e = entry,
            OriginSlot::One(e) => {
                let mut v = vec![*e, entry];
                v.sort_unstable_by_key(|e| e.mask);
                *self = OriginSlot::Many(v);
            }
            OriginSlot::Many(v) => match v.binary_search_by_key(&entry.mask, |e| e.mask) {
                Ok(i) => v[i] = entry,
                Err(i) => v.insert(i, entry),
            },
        }
    }
}

/// One journaled [`SymbolTable::record_offset`] call:
/// `(derived, origin, offset)`.
pub type OffsetRecord = (MaskedSymbol, MaskedSymbol, u64);

impl crate::fingerprint::CacheKeyed for SymbolTable {
    /// Encodes the allocated symbols (names and provenance, in id
    /// order). The `origin`/`succ` memos are *derived* bookkeeping —
    /// deterministic given the symbols and the analyzed operations — and
    /// are excluded; an initial-state table has them empty anyway.
    fn key_into(&self, h: &mut crate::fingerprint::FingerprintHasher) {
        h.write_len(self.syms.len());
        for info in &self.syms {
            match info {
                SymInfo::Input(name) => {
                    h.write_u8(0);
                    h.write_str(name);
                }
                SymInfo::Derived(op) => {
                    h.write_u8(1);
                    h.write_str(op);
                }
            }
        }
    }
}

impl SymbolTable {
    /// Creates a table containing only [`SymId::CONST`].
    pub fn new() -> Self {
        SymbolTable {
            syms: vec![SymInfo::Input("·".into())],
            origin: Vec::new(),
            succ: HashMap::default(),
            journal: None,
        }
    }

    /// Starts journaling [`SymbolTable::record_offset`] calls.
    ///
    /// While a journal is active, every effective `record_offset`
    /// (one that passes the `derived == origin || offset == 0` guard)
    /// is appended to the journal in call order. Used by the
    /// interpreter memo to capture the table mutations of a recorded
    /// transfer; replaying them is idempotent because `record_offset`
    /// is (insert into `origin`, `or_insert` into `succ`).
    pub fn begin_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Stops journaling and returns the recorded calls.
    pub fn end_journal(&mut self) -> Vec<OffsetRecord> {
        self.journal.take().unwrap_or_default()
    }

    /// Allocates a fresh *input* symbol (an element of `Sym_lo`).
    pub fn fresh(&mut self, name: &str) -> SymId {
        let id = SymId(self.syms.len() as u32);
        self.syms.push(SymInfo::Input(name.into()));
        id
    }

    /// Allocates a fresh symbol introduced by abstract operation `op`.
    ///
    /// Allocation is a single `Vec` push: the display name `"{op}#{id}"` is
    /// rendered lazily by [`SymbolTable::name`], never stored.
    pub fn fresh_derived(&mut self, op: &'static str) -> SymId {
        let id = SymId(self.syms.len() as u32);
        self.syms.push(SymInfo::Derived(op));
        id
    }

    /// The display name of a symbol (`"{op}#{id}"` for derived symbols).
    ///
    /// # Panics
    ///
    /// Panics if the symbol was not allocated by this table.
    pub fn name(&self, sym: SymId) -> String {
        match &self.syms[sym.index()] {
            SymInfo::Input(name) => name.to_string(),
            SymInfo::Derived(op) => format!("{}#{}", op, sym.index()),
        }
    }

    /// The provenance of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was not allocated by this table.
    pub fn provenance(&self, sym: SymId) -> Provenance {
        match self.syms[sym.index()] {
            SymInfo::Input(_) => Provenance::Input,
            SymInfo::Derived(op) => Provenance::Derived { op },
        }
    }

    /// Number of allocated symbols (including [`SymId::CONST`]).
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// `true` iff only [`SymId::CONST`] exists.
    pub fn is_empty(&self) -> bool {
        self.syms.len() <= 1
    }

    /// The origin and offset of a masked symbol (§5.4.2).
    ///
    /// Defaults to `(x, 0)` for symbols with no recorded derivation, matching
    /// the paper's initialization `orig(x) = x`, `off(x) = 0`.
    pub fn origin_of(&self, x: &MaskedSymbol) -> (MaskedSymbol, u64) {
        match self
            .origin
            .get(x.sym().index())
            .and_then(|slot| slot.get(x.mask()))
        {
            Some(e) => (e.origin, e.offset),
            None => (*x, 0),
        }
    }

    /// Looks up `succ(origin, offset)`.
    pub fn successor(&self, origin: &MaskedSymbol, offset: u64) -> Option<MaskedSymbol> {
        if offset == 0 {
            return Some(*origin);
        }
        self.succ.get(origin)?.get(&offset).copied()
    }

    /// Records that `derived = origin + offset` (wrapping at the width).
    ///
    /// Called by the abstract `ADD`/`SUB` with a constant operand. A
    /// second call for the same `derived` overwrites its origin and
    /// offset; `succ(origin, offset)` keeps the first symbol recorded.
    pub fn record_offset(&mut self, derived: MaskedSymbol, origin: MaskedSymbol, offset: u64) {
        if derived == origin || offset == 0 {
            return;
        }
        if let Some(journal) = &mut self.journal {
            journal.push((derived, origin, offset));
        }
        let idx = derived.sym().index();
        if idx >= self.origin.len() {
            self.origin.resize_with(idx + 1, OriginSlot::default);
        }
        self.origin[idx].insert(OriginEntry {
            mask: derived.mask(),
            origin,
            offset,
        });
        self.succ
            .entry(origin)
            .or_default()
            .entry(offset)
            .or_insert(derived);
    }

    /// Decides definite equality/disequality of the *values* of two masked
    /// symbols, if possible (used for the ZF rules of §5.4.3):
    ///
    /// * `Some(true)` — values are equal under every valuation;
    /// * `Some(false)` — values differ under every valuation;
    /// * `None` — undetermined.
    pub fn compare_values(&self, x: &MaskedSymbol, y: &MaskedSymbol) -> Option<bool> {
        if x == y {
            return Some(true);
        }
        if let (Some(a), Some(b)) = (x.as_constant(), y.as_constant()) {
            return Some(a == b);
        }
        // Same origin, different offset ⇒ values differ (mod 2^width they
        // are origin + off_x vs origin + off_y).
        let (ox, dx) = self.origin_of(x);
        let (oy, dy) = self.origin_of(y);
        if ox == oy && dx != dy {
            return Some(false);
        }
        // Identical symbols with incompatible known bits ⇒ differ.
        if x.sym() == y.sym() && x.sym() != SymId::CONST {
            let both_known = x.mask().known_bits() & y.mask().known_bits();
            if (x.mask().known_values() ^ y.mask().known_values()) & both_known != 0 {
                return Some(false);
            }
        }
        None
    }

    /// The distance `off(x) - off(y)` if both masked symbols share an
    /// origin, wrapped at `width` bits.
    pub fn offset_between(&self, x: &MaskedSymbol, y: &MaskedSymbol, width: u8) -> Option<u64> {
        let (ox, dx) = self.origin_of(x);
        let (oy, dy) = self.origin_of(y);
        (ox == oy).then(|| {
            let wrap = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            dx.wrapping_sub(dy) & wrap
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_symbols_are_distinct() {
        let mut t = SymbolTable::new();
        let a = t.fresh("a");
        let b = t.fresh("b");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn provenance_distinguishes_inputs_from_derived() {
        let mut t = SymbolTable::new();
        let i = t.fresh("heap");
        let d = t.fresh_derived("add");
        assert_eq!(t.provenance(i), Provenance::Input);
        assert_eq!(t.provenance(d), Provenance::Derived { op: "add" });
        assert_eq!(t.name(d), format!("add#{}", d.index()));
    }

    #[test]
    fn origin_defaults_to_self() {
        let mut t = SymbolTable::new();
        let s = t.fresh("p");
        let m = MaskedSymbol::symbol(s, 32);
        assert_eq!(t.origin_of(&m), (m, 0));
        assert_eq!(t.successor(&m, 0), Some(m));
        assert_eq!(t.successor(&m, 4), None);
    }

    #[test]
    fn record_offset_enables_succ_reuse() {
        let mut t = SymbolTable::new();
        let s = t.fresh("p");
        let d = t.fresh_derived("add");
        let base = MaskedSymbol::symbol(s, 32);
        let plus4 = MaskedSymbol::symbol(d, 32);
        t.record_offset(plus4, base, 4);
        assert_eq!(t.successor(&base, 4), Some(plus4));
        assert_eq!(t.origin_of(&plus4), (base, 4));
    }

    #[test]
    fn one_symbol_with_many_low_bit_masks_keeps_an_origin_per_mask() {
        // The `uniform_const_add` shape: one shared fresh symbol carrying
        // one low-bit mask per set element, each from its own origin.
        let mut t = SymbolTable::new();
        let shared = t.fresh_derived("add");
        let origins: Vec<MaskedSymbol> = (0..64)
            .map(|_| MaskedSymbol::symbol(t.fresh("p"), 32))
            .collect();
        let derived =
            |low: u64| MaskedSymbol::new(shared, Mask::top(32).with_low_bits_known(6, low));
        // Record the 64 masks out of order.
        for i in 0..64u64 {
            let low = (i * 37) % 64;
            t.record_offset(derived(low), origins[low as usize], low + 1);
        }
        for low in 0..64u64 {
            let origin = origins[low as usize];
            assert_eq!(t.origin_of(&derived(low)), (origin, low + 1));
            assert_eq!(t.successor(&origin, low + 1), Some(derived(low)));
        }
        // A mask never recorded has no derivation.
        let other = MaskedSymbol::new(shared, Mask::top(32).with_low_bits_known(5, 3));
        assert_eq!(t.origin_of(&other), (other, 0));
        // A second record overwrites `orig`/`off`; `succ` keeps the first.
        t.record_offset(derived(0), origins[1], 9);
        assert_eq!(t.origin_of(&derived(0)), (origins[1], 9));
        assert_eq!(t.successor(&origins[0], 1), Some(derived(0)));
        assert_eq!(t.successor(&origins[1], 9), Some(derived(0)));
    }

    #[test]
    fn compare_values_by_offset() {
        let mut t = SymbolTable::new();
        let s = t.fresh("r");
        let d1 = t.fresh_derived("add");
        let d2 = t.fresh_derived("add");
        let r = MaskedSymbol::symbol(s, 32);
        let x = MaskedSymbol::symbol(d1, 32);
        let y = MaskedSymbol::symbol(d2, 32);
        t.record_offset(x, r, 8);
        t.record_offset(y, r, 12);
        // Ex. 8: x and y derived from common origin r at different offsets.
        assert_eq!(t.compare_values(&x, &y), Some(false));
        assert_eq!(t.compare_values(&x, &x), Some(true));
        assert_eq!(t.compare_values(&x, &r), Some(false));
        assert_eq!(
            t.offset_between(&x, &y, 32),
            Some((8u64.wrapping_sub(12)) & 0xffff_ffff)
        );
        assert_eq!(t.offset_between(&y, &x, 32), Some(4));
    }

    #[test]
    fn compare_values_constants_and_unknowns() {
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        let u = t.fresh("u");
        let c1 = MaskedSymbol::constant(5, 32);
        let c2 = MaskedSymbol::constant(6, 32);
        assert_eq!(t.compare_values(&c1, &c2), Some(false));
        assert_eq!(t.compare_values(&c1, &c1), Some(true));
        // Unrelated symbols: cannot decide.
        let ms = MaskedSymbol::symbol(s, 32);
        let mu = MaskedSymbol::symbol(u, 32);
        assert_eq!(t.compare_values(&ms, &mu), None);
        assert_eq!(t.compare_values(&ms, &c1), None);
    }

    #[test]
    fn compare_values_same_symbol_conflicting_known_bits() {
        let mut t = SymbolTable::new();
        let s = t.fresh("s");
        let a = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(1, 0));
        let b = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(1, 1));
        // Same base value, but bit 0 is known 0 in one and 1 in the other:
        // these denote different concrete values under every valuation.
        assert_eq!(t.compare_values(&a, &b), Some(false));
        // Same known bits at disjoint positions: undetermined.
        let c = MaskedSymbol::new(s, Mask::top(32).with_bit(5, crate::MaskBit::One));
        assert_eq!(t.compare_values(&a, &c), None);
    }
}
