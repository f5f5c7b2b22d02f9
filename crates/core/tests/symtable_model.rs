//! Model-based test of the §5.4.2 origin/offset memo of [`SymbolTable`].
//!
//! The table keeps `orig`/`off` in a dense per-symbol table (one entry per
//! mask a symbol was recorded under) and `succ` as one offset map per
//! origin. Both must answer exactly like two flat `HashMap`s keyed by the
//! whole masked symbol and by `(origin, offset)`: `record_offset` is
//! (skip when `derived == origin` or `offset == 0`, else journal, insert-
//! overwrite into `orig`, `or_insert` into `succ`). Random operation
//! sequences over a few symbols, several masks each, drive the table and
//! the reference side by side.

use std::collections::HashMap;

use leakaudit_core::{Mask, MaskedSymbol, OffsetRecord, SymId, SymbolTable};
use proptest::prelude::*;

const WIDTH: u8 = 32;

/// A masked symbol drawn from a small pool: symbol `sym` (or the
/// constant symbol when `sym` is past the pool) with `low_known` low
/// bits known to `low`.
#[derive(Debug, Clone, Copy)]
struct Pick {
    sym: u8,
    low_known: u8,
    low: u64,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Record(Pick, Pick, u64),
    Query(Pick, Pick, u64),
    BeginJournal,
    EndJournal,
}

const POOL: u8 = 3;

fn pick() -> impl Strategy<Value = Pick> {
    // `sym == POOL` draws a constant. Up to 6 known low bits with 8 low
    // values give each symbol a couple of dozen masks, few enough that
    // records and queries often hit the same one.
    (0u8..=POOL, 0u8..7, 0u64..8).prop_map(|(sym, low_known, low)| Pick {
        sym,
        low_known,
        low,
    })
}

fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..6, Just(64u64), Just(u64::from(u32::MAX)),]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (pick(), pick(), offset()).prop_map(|(d, o, k)| Op::Record(d, o, k)),
        (pick(), pick(), offset()).prop_map(|(d, o, k)| Op::Record(d, o, k)),
        // `derived == origin`: the guard must skip it, journal included.
        (pick(), offset()).prop_map(|(d, k)| Op::Record(d, d, k)),
        (pick(), pick(), offset()).prop_map(|(x, y, k)| Op::Query(x, y, k)),
        Just(Op::BeginJournal),
        Just(Op::EndJournal),
    ]
}

/// Today's semantics, spelled with two flat maps.
#[derive(Default)]
struct Reference {
    origin: HashMap<MaskedSymbol, (MaskedSymbol, u64)>,
    succ: HashMap<(MaskedSymbol, u64), MaskedSymbol>,
    journal: Option<Vec<OffsetRecord>>,
}

impl Reference {
    fn record_offset(&mut self, derived: MaskedSymbol, origin: MaskedSymbol, offset: u64) {
        if derived == origin || offset == 0 {
            return;
        }
        if let Some(journal) = &mut self.journal {
            journal.push((derived, origin, offset));
        }
        self.origin.insert(derived, (origin, offset));
        self.succ.entry((origin, offset)).or_insert(derived);
    }

    fn origin_of(&self, x: &MaskedSymbol) -> (MaskedSymbol, u64) {
        self.origin.get(x).copied().unwrap_or((*x, 0))
    }

    fn successor(&self, origin: &MaskedSymbol, offset: u64) -> Option<MaskedSymbol> {
        if offset == 0 {
            return Some(*origin);
        }
        self.succ.get(&(*origin, offset)).copied()
    }
}

fn materialize(pool: &[SymId], p: Pick) -> MaskedSymbol {
    let mask = Mask::top(WIDTH).with_low_bits_known(p.low_known, p.low & ((1 << p.low_known) - 1));
    match pool.get(p.sym as usize) {
        Some(&sym) => MaskedSymbol::new(sym, mask),
        None => MaskedSymbol::constant(p.low, WIDTH),
    }
}

proptest! {
    #[test]
    fn offset_memo_matches_two_flat_maps(ops in proptest::collection::vec(op(), 0..64)) {
        let mut table = SymbolTable::new();
        let pool: Vec<SymId> = (0..POOL)
            .map(|i| if i == 0 { table.fresh("base") } else { table.fresh_derived("add") })
            .collect();
        let mut reference = Reference::default();
        for op in ops {
            match op {
                Op::Record(d, o, k) => {
                    let (d, o) = (materialize(&pool, d), materialize(&pool, o));
                    table.record_offset(d, o, k);
                    reference.record_offset(d, o, k);
                }
                Op::Query(x, y, k) => {
                    let (x, y) = (materialize(&pool, x), materialize(&pool, y));
                    prop_assert_eq!(table.origin_of(&x), reference.origin_of(&x));
                    prop_assert_eq!(table.origin_of(&y), reference.origin_of(&y));
                    prop_assert_eq!(table.successor(&x, k), reference.successor(&x, k));
                    let (ox, dx) = reference.origin_of(&x);
                    let (oy, dy) = reference.origin_of(&y);
                    let between = (ox == oy).then(|| dx.wrapping_sub(dy) & 0xffff_ffff);
                    prop_assert_eq!(table.offset_between(&x, &y, WIDTH), between);
                }
                Op::BeginJournal => {
                    table.begin_journal();
                    reference.journal = Some(Vec::new());
                }
                Op::EndJournal => {
                    let want = reference.journal.take().unwrap_or_default();
                    prop_assert_eq!(table.end_journal(), want);
                }
            }
        }
        // Every recorded key answers like the reference at the end.
        for (derived, want) in &reference.origin {
            prop_assert_eq!(table.origin_of(derived), *want);
        }
        for ((origin, offset), want) in &reference.succ {
            prop_assert_eq!(table.successor(origin, *offset), Some(*want));
        }
    }
}
