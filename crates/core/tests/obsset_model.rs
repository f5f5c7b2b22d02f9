//! Model-based tests for the [`ObsSet`] label representation.
//!
//! A trace-DAG vertex label is a set of observations: singletons inline,
//! larger sets as a sorted, deduplicated shared slice. These properties
//! drive a reference `BTreeSet<Observation>` through the same inputs and
//! demand identical equality, ordering, counts and rendering, and that
//! [`Observer::project_set`] agrees with projecting every element of a
//! value set into the tree.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use leakaudit_core::{
    Mask, MaskedSymbol, ObsSet, Observation, Observer, SymId, SymbolTable, ValueSet,
};
use leakaudit_mpi::Natural;
use proptest::prelude::*;

/// A generated observation over a small domain, so that multisets
/// repeat elements often.
#[derive(Debug, Clone, Copy)]
enum Obs {
    Concrete { bits: u64, wide: bool },
    Symbolic { pool: u8, known: u64, value: u64 },
}

fn obs_strategy() -> impl Strategy<Value = Obs> {
    prop_oneof![
        (0u64..4, any::<bool>()).prop_map(|(bits, wide)| Obs::Concrete { bits, wide }),
        (0u8..3, 0u64..4, 0u64..4).prop_map(|(pool, known, value)| Obs::Symbolic {
            pool,
            known,
            value: value & known,
        }),
    ]
}

/// Observation multisets: random draws (duplicates are common over the
/// small domain), or one observation repeated, which makes a singleton.
fn multiset_strategy() -> impl Strategy<Value = Vec<Obs>> {
    prop_oneof![
        proptest::collection::vec(obs_strategy(), 0..10),
        (obs_strategy(), 1usize..4).prop_map(|(o, n)| vec![o; n]),
    ]
}

fn symbol_pool(table: &mut SymbolTable) -> Vec<SymId> {
    (0..3).map(|i| table.fresh(&format!("s{i}"))).collect()
}

fn materialize(pool: &[SymId], obs: &[Obs]) -> Vec<Observation> {
    obs.iter()
        .map(|o| match *o {
            Obs::Concrete { bits, wide } => Observation::Concrete {
                bits,
                width: if wide { 30 } else { 26 },
            },
            Obs::Symbolic {
                pool: p,
                known,
                value,
            } => Observation::Symbolic {
                sym: pool[p as usize],
                known,
                value,
                width: 26,
            },
        })
        .collect()
}

/// The reference order: `ObsSet` ranks a singleton below every other
/// finite set, and compares sets of the same rank as ordered sets.
fn model_cmp(a: &BTreeSet<Observation>, b: &BTreeSet<Observation>) -> Ordering {
    (a.len() != 1, a).cmp(&(b.len() != 1, b))
}

/// The reference rendering: `{a, b, …}` in ascending order.
fn model_display(set: &BTreeSet<Observation>) -> String {
    let items: Vec<String> = set.iter().map(ToString::to_string).collect();
    format!("{{{}}}", items.join(", "))
}

/// Asserts an `ObsSet` agrees with its reference tree on every query.
fn assert_matches(got: &ObsSet, want: &BTreeSet<Observation>) {
    assert_eq!(got.count(), Natural::from(want.len() as u64));
    assert_eq!(got.count_u64(), Some(want.len() as u64));
    assert_eq!(got.is_singleton(), want.len() == 1);
    assert_eq!(got.to_string(), model_display(want));
}

proptest! {
    #[test]
    fn labels_match_tree_model(a in multiset_strategy(), b in multiset_strategy()) {
        let mut table = SymbolTable::new();
        let pool = symbol_pool(&mut table);
        let (oa, ob) = (materialize(&pool, &a), materialize(&pool, &b));
        let (sa, sb) = (
            ObsSet::from_observations(oa.iter().copied()),
            ObsSet::from_observations(ob.iter().copied()),
        );
        let (ta, tb): (BTreeSet<_>, BTreeSet<_>) =
            (oa.iter().copied().collect(), ob.iter().copied().collect());
        assert_matches(&sa, &ta);
        assert_matches(&sb, &tb);
        // Insertion order and duplicates do not matter.
        prop_assert_eq!(&ObsSet::from_observations(oa.iter().rev().copied()), &sa);
        prop_assert_eq!(sa == sb, ta == tb);
        prop_assert_eq!(sa.cmp(&sb), model_cmp(&ta, &tb));
        prop_assert_eq!(sa.partial_cmp(&sb), Some(model_cmp(&ta, &tb)));
    }

    #[test]
    fn project_set_matches_tree_projection(
        elems in proptest::collection::vec((0u8..4, 0u8..12, 0u64..1 << 12), 0..10),
        offset_bits in 0u8..10,
    ) {
        let mut table = SymbolTable::new();
        let pool = symbol_pool(&mut table);
        // Pool index 3 is a constant; the others are symbols with their
        // low bits known, the shape of secret-indexed pointers.
        let v = ValueSet::from_masked_symbols(elems.iter().map(|&(p, low_known, low)| match p {
            3 => MaskedSymbol::constant(low, 32),
            _ => MaskedSymbol::new(
                pool[p as usize],
                Mask::top(32).with_low_bits_known(low_known, low),
            ),
        }));
        let observer = Observer::block(offset_bits);
        let projected = observer.project_set(&v);
        let tree: BTreeSet<Observation> = v.iter().map(|m| observer.project(m)).collect();
        assert_matches(&projected, &tree);
        prop_assert_eq!(&projected, &ObsSet::from_observations(tree.iter().copied()));
    }
}

#[test]
fn top_labels_count_every_observation() {
    let projected = Observer::block(6).project_set(&ValueSet::top(32));
    assert_eq!(projected.count(), Natural::one().shl_bits(26));
    assert_eq!(projected.count_u64(), Some(1 << 26));
    assert!(!projected.is_singleton());
    assert_eq!(projected.to_string(), "⊤^26");
}
