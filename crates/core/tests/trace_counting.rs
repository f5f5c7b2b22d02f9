//! Brute-force validation of the trace-domain counting (Proposition 2 /
//! Theorem 1 at the domain level): for randomly generated fork/access
//! structures, enumerate *all* concrete observation sequences permitted by
//! the concretization and check the DAG's count dominates their number —
//! for exact and stuttering observers alike.
//!
//! The counting pass reads each vertex's `children` and `cursor_refs` to
//! decide when a predecessor's count may be moved instead of copied, so
//! these checks also guard that bookkeeping: nested forks, repeated
//! same-unit accesses (in-place repetition bumps and tail collapse),
//! sibling merges, multi-observation labels, and a count beyond `u128`.

use std::collections::BTreeSet;

use leakaudit_core::{Cursor, MaskedSymbol, Observer, SymbolTable, TraceDag, Valuation, ValueSet};
use leakaudit_mpi::Natural;
use proptest::prelude::*;

/// A tiny trace program: a straight-line prefix, an optional two-way
/// fork (each arm a straight line), and a straight-line suffix after the
/// join.
#[derive(Debug, Clone)]
struct TraceProgram {
    prefix: Vec<ValueSet>,
    fork: Option<(Vec<ValueSet>, Vec<ValueSet>)>,
    suffix: Vec<ValueSet>,
}

/// Small address sets over two symbols and clustered constants, so that
/// projections actually collide at coarse granularities.
fn value_set(table: &SymbolTable) -> impl Strategy<Value = ValueSet> + use<> {
    let _ = table;
    proptest::collection::btree_set(
        prop_oneof![
            (0u64..4).prop_map(|k| 0x100 + k),      // same 64-byte block
            (0u64..4).prop_map(|k| 0x100 + 64 * k), // distinct blocks
            Just(0x2000u64),
        ],
        1..4,
    )
    .prop_map(|consts| ValueSet::from_constants(consts, 32))
}

fn accesses(table: &SymbolTable) -> impl Strategy<Value = Vec<ValueSet>> + use<> {
    proptest::collection::vec(value_set(table), 0..4)
}

fn trace_program() -> impl Strategy<Value = TraceProgram> {
    let table = SymbolTable::new();
    (
        accesses(&table),
        proptest::option::of((accesses(&table), accesses(&table))),
        accesses(&table),
    )
        .prop_map(|(prefix, fork, suffix)| TraceProgram {
            prefix,
            fork,
            suffix,
        })
}

/// Builds the DAG exactly as the analysis engine would.
fn run_dag(p: &TraceProgram, observer: Observer) -> leakaudit_mpi::Natural {
    let (mut dag, mut cur) = TraceDag::new(observer);
    for v in &p.prefix {
        cur = dag.access(cur, v);
    }
    if let Some((left, right)) = &p.fork {
        let mut other = dag.clone_cursor(&cur);
        for v in left {
            cur = dag.access(cur, v);
        }
        for v in right {
            other = dag.access(other, v);
        }
        cur = dag.merge_cursors(cur, other);
    }
    for v in &p.suffix {
        cur = dag.access(cur, v);
    }
    dag.count(&cur)
}

/// Enumerates every concrete observation sequence in the concretization:
/// one path choice (if forked) × one address choice per access.
fn enumerate_views(p: &TraceProgram, observer: Observer, lambda: &Valuation) -> BTreeSet<Vec<u64>> {
    let concretize = |sets: &[ValueSet]| -> Vec<Vec<u64>> {
        // All per-access choices, as a growing cross product.
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new()];
        for set in sets {
            let choices: Vec<u64> = match lambda.concretize_set(set) {
                Some(c) => c.into_iter().collect(),
                None => vec![0],
            };
            let mut next = Vec::with_capacity(seqs.len() * choices.len());
            for s in &seqs {
                for &c in &choices {
                    let mut s2 = s.clone();
                    s2.push(c);
                    next.push(s2);
                }
            }
            seqs = next;
        }
        seqs
    };

    let mut paths: Vec<Vec<ValueSet>> = Vec::new();
    match &p.fork {
        None => {
            let mut line = p.prefix.clone();
            line.extend(p.suffix.iter().cloned());
            paths.push(line);
        }
        Some((left, right)) => {
            for arm in [left, right] {
                let mut line = p.prefix.clone();
                line.extend(arm.iter().cloned());
                line.extend(p.suffix.iter().cloned());
                paths.push(line);
            }
        }
    }

    let mut views = BTreeSet::new();
    for path in paths {
        for seq in concretize(&path) {
            views.insert(observer.view_concrete(&seq));
        }
    }
    views
}

fn masked(sym: MaskedSymbol) -> ValueSet {
    ValueSet::singleton(sym)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn proposition_2_counts_dominate_enumeration(
        program in trace_program(),
        b in prop_oneof![Just(0u8), Just(2), Just(6)],
        stuttering in any::<bool>(),
    ) {
        let observer = if stuttering {
            Observer::block(b).stuttering()
        } else {
            Observer::block(b)
        };
        let count = run_dag(&program, observer);
        let views = enumerate_views(&program, observer, &Valuation::new());
        prop_assert!(
            leakaudit_mpi::Natural::from(views.len() as u64) <= count,
            "{observer}: {} concrete views, DAG count {count}\n{program:?}",
            views.len()
        );
    }

    #[test]
    fn counts_shrink_along_the_observer_hierarchy(program in trace_program()) {
        let fine = run_dag(&program, Observer::address());
        let coarse = run_dag(&program, Observer::block(6));
        prop_assert!(coarse <= fine);
        let exact = run_dag(&program, Observer::block(6));
        let stut = run_dag(&program, Observer::block(6).stuttering());
        prop_assert!(stut <= exact);
    }
}

#[test]
fn symbolic_labels_count_independently_of_valuation() {
    // Prop. 2's "independent of the instantiation of the symbols": a DAG
    // over symbolic addresses yields one bound; any valuation's concrete
    // view count stays below it.
    let mut table = SymbolTable::new();
    let s = table.fresh("buf");
    let base = MaskedSymbol::symbol(s, 32);
    let plus64 = leakaudit_core::apply(
        &mut table,
        leakaudit_core::BinOp::Add,
        &base,
        &MaskedSymbol::constant(64, 32),
    )
    .value;

    let (mut dag, cur) = TraceDag::new(Observer::block(6));
    let secret_ptr = masked(base).join(&masked(plus64));
    let cur = dag.access(cur, &secret_ptr);
    let bound = dag.count(&cur);
    assert_eq!(bound.to_u64(), Some(2));

    for bits in [0u64, 0x1234_5640, 0xffff_ffc0] {
        let mut lambda = Valuation::new();
        lambda.assign(s, bits);
        let concrete: BTreeSet<u64> = lambda
            .concretize_set(&secret_ptr)
            .unwrap()
            .iter()
            .map(|a| a >> 6)
            .collect();
        assert!(concrete.len() as u64 <= 2);
    }
}

/// One step of a nested trace program.
#[derive(Debug, Clone)]
enum Step {
    /// `reps` back-to-back accesses to one address set — a loop body
    /// revisiting the same units, the bump and tail-collapse path.
    Access(ValueSet, u8),
    /// A two-way fork whose arms rejoin before the next step.
    Fork(Vec<Step>, Vec<Step>),
}

fn access_step() -> impl Strategy<Value = Step> {
    (value_set(&SymbolTable::new()), 1u8..4).prop_map(|(v, reps)| Step::Access(v, reps))
}

/// Fork arms: independent, or the same accesses with (possibly) other
/// repetition counts, so equal-label siblings meet at the join and
/// merge, unioning their repetition sets.
fn fork_of<S>(arm: impl Fn() -> S) -> impl Strategy<Value = Step>
where
    S: Strategy<Value = Vec<Step>> + 'static,
{
    let independent = (arm(), arm()).prop_map(|(l, r)| Step::Fork(l, r));
    let mirrored = (arm(), 1u8..4).prop_map(|(l, reps)| {
        let r = l
            .iter()
            .map(|step| match step {
                Step::Access(v, _) => Step::Access(v.clone(), reps),
                fork => fork.clone(),
            })
            .collect();
        Step::Fork(l, r)
    });
    prop_oneof![independent, mirrored]
}

/// Programs with forks nested two deep.
fn nested_program() -> impl Strategy<Value = Vec<Step>> {
    let leaf_arm = || proptest::collection::vec(access_step(), 0..3);
    let inner = move || prop_oneof![access_step(), fork_of(leaf_arm)];
    let mid_arm = move || proptest::collection::vec(inner(), 0..3);
    let outer = prop_oneof![access_step(), fork_of(mid_arm)];
    proptest::collection::vec(outer, 0..4).prop_filter("enumerable concretization", |p| {
        let paths = paths(p);
        paths.len() <= 32
            && paths.iter().all(|path| {
                path.iter()
                    .map(|v| v.len().map_or(u64::MAX, |n| n as u64))
                    .try_fold(1u64, |acc, n| acc.checked_mul(n).filter(|&x| x <= 4096))
                    .is_some()
            })
    })
}

/// Drives the DAG through `steps` from `cur`, forking and merging
/// cursors as the analysis engine does.
fn run_steps(dag: &mut TraceDag, mut cur: Cursor, steps: &[Step]) -> Cursor {
    for step in steps {
        match step {
            Step::Access(v, reps) => {
                for _ in 0..*reps {
                    cur = dag.access(cur, v);
                }
            }
            Step::Fork(left, right) => {
                let other = dag.clone_cursor(&cur);
                let a = run_steps(dag, cur, left);
                let b = run_steps(dag, other, right);
                cur = dag.merge_cursors(a, b);
            }
        }
    }
    cur
}

fn count_steps(steps: &[Step], observer: Observer) -> Natural {
    let (mut dag, cur) = TraceDag::new(observer);
    let cur = run_steps(&mut dag, cur, steps);
    dag.count(&cur)
}

/// Every control-flow path through `steps`, as its access sequence.
fn paths(steps: &[Step]) -> Vec<Vec<ValueSet>> {
    let mut out: Vec<Vec<ValueSet>> = vec![Vec::new()];
    for step in steps {
        out = match step {
            Step::Access(v, reps) => out
                .into_iter()
                .map(|mut path| {
                    path.extend(std::iter::repeat_n(v.clone(), usize::from(*reps)));
                    path
                })
                .collect(),
            Step::Fork(left, right) => {
                let arms: Vec<Vec<ValueSet>> =
                    paths(left).into_iter().chain(paths(right)).collect();
                out.iter()
                    .flat_map(|path| {
                        arms.iter().map(move |arm| {
                            let mut p = path.clone();
                            p.extend(arm.iter().cloned());
                            p
                        })
                    })
                    .collect()
            }
        };
    }
    out
}

/// The distinct views the observer can see over all paths and all
/// concrete address choices. Views grow one access at a time and are
/// deduplicated as they grow, which keeps the enumeration proportional
/// to the number of distinct views rather than of concrete traces; the
/// step rule is [`Observer::view_concrete`]'s, applied to one address.
fn distinct_views(steps: &[Step], observer: Observer) -> BTreeSet<Vec<u64>> {
    let lambda = Valuation::new();
    let mut all = BTreeSet::new();
    for path in paths(steps) {
        let mut views: BTreeSet<Vec<u64>> = BTreeSet::from([Vec::new()]);
        for set in &path {
            let units: BTreeSet<u64> = lambda
                .concretize_set(set)
                .expect("constant sets concretize")
                .into_iter()
                .map(|a| observer.view_concrete(&[a])[0])
                .collect();
            views = views
                .iter()
                .flat_map(|view| {
                    units.iter().map(move |&u| {
                        let mut next = view.clone();
                        if !(observer.is_stuttering() && view.last() == Some(&u)) {
                            next.push(u);
                        }
                        next
                    })
                })
                .collect();
        }
        all.extend(views);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nested_fork_counts_dominate_enumeration(
        program in nested_program(),
        b in prop_oneof![Just(0u8), Just(2), Just(6)],
        stuttering in any::<bool>(),
    ) {
        let observer = if stuttering {
            Observer::block(b).stuttering()
        } else {
            Observer::block(b)
        };
        let count = count_steps(&program, observer);
        let views = distinct_views(&program, observer);
        prop_assert!(
            Natural::from(views.len() as u64) <= count,
            "{observer}: {} concrete views, DAG count {count}\n{program:?}",
            views.len()
        );
    }

    /// Without forks there is nothing to over-approximate: an exact
    /// observer's count is the number of views, repetitions included.
    #[test]
    fn straight_line_exact_counts_are_tight(
        program in proptest::collection::vec(access_step(), 0..6),
        b in prop_oneof![Just(0u8), Just(2), Just(6)],
    ) {
        let observer = Observer::block(b);
        let count = count_steps(&program, observer);
        let views = distinct_views(&program, observer);
        prop_assert_eq!(Natural::from(views.len() as u64), count, "{:?}", program);
    }
}

fn consts(vals: impl IntoIterator<Item = u64>) -> ValueSet {
    ValueSet::from_constants(vals, 32)
}

#[test]
fn sibling_merges_union_repetition_counts() {
    // One loop run 2 or 3 times on either arm of a fork, then a shared
    // tail: the arms' equal-label vertices merge with R = {2, 3}. The
    // exact observer sees the trip count, the stuttering one does not.
    let program = vec![
        Step::Access(consts([0x100, 0x140]), 1),
        Step::Fork(
            vec![Step::Access(consts([0x200]), 2)],
            vec![Step::Access(consts([0x200]), 3)],
        ),
        Step::Access(consts([0x300]), 1),
    ];
    for (observer, expected) in [
        (Observer::block(6), 4u64),
        (Observer::block(6).stuttering(), 2),
    ] {
        let views = distinct_views(&program, observer);
        assert_eq!(views.len() as u64, expected, "{observer}");
        assert_eq!(
            count_steps(&program, observer).to_u64(),
            Some(expected),
            "{observer}"
        );
    }
}

#[test]
fn nested_forks_sum_their_arms() {
    // Fork inside fork: three paths, each ending in its own unit, below
    // a two-unit prefix and above a two-unit suffix: 2 * 3 * 2 views.
    let program = vec![
        Step::Access(consts([0x1000, 0x2000]), 1),
        Step::Fork(
            vec![Step::Fork(
                vec![Step::Access(consts([0x3000]), 1)],
                vec![Step::Access(consts([0x4000]), 2)],
            )],
            vec![Step::Access(consts([0x5000]), 3)],
        ),
        Step::Access(consts([0x6000, 0x7000]), 1),
    ];
    let observer = Observer::block(6);
    let views = distinct_views(&program, observer);
    assert_eq!(views.len(), 12);
    assert_eq!(count_steps(&program, observer).to_u64(), Some(12));
}

#[test]
fn counts_beyond_u128_match_enumeration() {
    // 44 accesses, each to one of 8 blocks (8^44 = 2^132 > u128), then a
    // fork into one or two further units and a join. Every path is a
    // product of per-access unit sets, so the views of the two paths
    // are counted exactly by inclusion–exclusion over their positions:
    // |P ∪ Q| = |P| + |Q| - |P ∩ Q|, with |P ∩ Q| the product of the
    // per-position intersections.
    let mut program: Vec<Step> = (0..44u64)
        .map(|i| Step::Access(consts((0..8).map(|k| 0x10_0000 * (i + 1) + 64 * k)), 1))
        .collect();
    program.push(Step::Fork(
        vec![Step::Access(consts([0x9000]), 1)],
        vec![Step::Access(consts([0xa000, 0xb000]), 1)],
    ));
    program.push(Step::Access(consts([0xc000]), 1));
    let observer = Observer::block(6);

    let lambda = Valuation::new();
    let unit_sets = |path: &[ValueSet]| -> Vec<BTreeSet<u64>> {
        path.iter()
            .map(|set| {
                lambda
                    .concretize_set(set)
                    .expect("constant sets concretize")
                    .into_iter()
                    .map(|a| observer.view_concrete(&[a])[0])
                    .collect()
            })
            .collect()
    };
    let [p, q] = <[Vec<ValueSet>; 2]>::try_from(paths(&program)).expect("two paths");
    let (p, q) = (unit_sets(&p), unit_sets(&q));
    assert_eq!(p.len(), q.len(), "equal-length paths");
    let views = &(&product(p.iter().map(BTreeSet::len)) + &product(q.iter().map(BTreeSet::len)))
        - &product(p.iter().zip(&q).map(|(a, b)| a.intersection(b).count()));

    let count = count_steps(&program, observer);
    assert!(count > Natural::from(u128::MAX), "the count overflows u128");
    assert_eq!(count, views);
    assert_eq!(
        count,
        &Natural::from(3u64) * &product(std::iter::repeat_n(8, 44))
    );
}

fn product(sizes: impl Iterator<Item = usize>) -> Natural {
    sizes.fold(Natural::one(), |acc, n| &acc * &Natural::from(n as u64))
}
