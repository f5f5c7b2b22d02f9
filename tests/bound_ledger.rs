//! Golden bound ledger: the static bound of every
//! `Registry::default_sweep()` cell under each spec of its
//! `observer_suite()`, beside the concrete view counts of the cell's
//! cases, pinned byte for byte in `golden/bounds.txt`.
//!
//! `leakage_tables` pins values only for the eight paper instances, and
//! `soundness_empirical` checks the other cells only for
//! concrete ≤ static. A change that moves a registry bound — the same way
//! with the interpreter memo on and off — passes both; it fails here.
//! Each line is `cell<TAB>channel<TAB>observer<TAB>count<TAB>bits<TAB>views`,
//! the count in decimal, the bits as `f64` `Display` (shortest round-trip
//! spelling, so a change in the last place shows), and `views` the
//! number of distinct concrete views over the cell's secrets for each
//! heap layout, comma-separated in layout order (Theorem 1: each is at
//! most the count). A view count far below the count marks a loose
//! bound.
//!
//! On a mismatch the test writes the rendered ledger to
//! `$TMPDIR/bounds.actual.txt`; copy it over the golden file only for a
//! deliberate change of the analysis, and explain the diff.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use leakaudit::analyzer::{Channel, Executor, ObserverSpec, OwnedJob};
use leakaudit::scenarios::{Registry, Scenario};
use leakaudit::x86::EmuTrace;

const GOLDEN: &str = include_str!("golden/bounds.txt");

/// Every case's concrete trace, grouped by heap layout.
fn traces_by_layout(s: &Scenario) -> BTreeMap<usize, Vec<EmuTrace>> {
    let mut by_layout: BTreeMap<usize, Vec<EmuTrace>> = BTreeMap::new();
    for case in &s.cases {
        let trace = s
            .emulate(case)
            .unwrap_or_else(|e| panic!("{}: {}: {e}", s.name, case.label));
        by_layout.entry(case.layout).or_default().push(trace);
    }
    by_layout
}

/// The number of distinct concrete `spec` views in each layout's traces,
/// in layout order.
fn concrete_views(by_layout: &BTreeMap<usize, Vec<EmuTrace>>, spec: ObserverSpec) -> Vec<usize> {
    by_layout
        .values()
        .map(|traces| {
            let views: BTreeSet<Vec<u64>> = traces
                .iter()
                .map(|t| {
                    let addrs = match spec.channel {
                        Channel::Instruction => t.fetch_addresses(),
                        Channel::Data => t.data_addresses(),
                        Channel::Shared => t.all_addresses(),
                    };
                    spec.observer.view_concrete(&addrs)
                })
                .collect();
            views.len()
        })
        .collect()
}

/// Analyzes every default-sweep cell in one executor batch and renders
/// one ledger line per (cell, suite spec).
fn render_ledger() -> String {
    let registry = Registry::default_sweep();
    let scenarios: Vec<Arc<Scenario>> = registry
        .specs()
        .iter()
        .map(|spec| Arc::new(spec.build()))
        .collect();
    let jobs = registry
        .specs()
        .iter()
        .zip(&scenarios)
        .map(|(spec, s)| OwnedJob::new(spec.id(), spec.analysis_config(), Arc::clone(s) as _))
        .collect();
    let batch = Executor::new().submit(jobs).wait();
    let mut out = String::new();
    for ((spec, s), outcome) in registry
        .specs()
        .iter()
        .zip(&scenarios)
        .zip(batch.outcomes())
    {
        let report = outcome
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", outcome.name));
        let by_layout = traces_by_layout(s);
        assert!(!by_layout.is_empty(), "{}: no concrete cases", outcome.name);
        for suite_spec in spec.analysis_config().observer_suite() {
            let row = report
                .rows()
                .iter()
                .find(|r| r.spec == suite_spec)
                .unwrap_or_else(|| panic!("{}: no row for {suite_spec:?}", outcome.name));
            let views = concrete_views(&by_layout, suite_spec);
            if let Some(bound) = row.count.to_u64() {
                assert!(
                    views.iter().all(|&v| v as u64 <= bound),
                    "{} {}/{}: concrete views {views:?} exceed the static count {bound}",
                    outcome.name,
                    suite_spec.channel,
                    suite_spec.observer
                );
            }
            let views: Vec<String> = views.iter().map(usize::to_string).collect();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\n",
                outcome.name,
                suite_spec.channel,
                suite_spec.observer,
                row.count,
                row.bits,
                views.join(",")
            ));
        }
    }
    out
}

#[test]
fn every_registry_bound_matches_the_golden_ledger() {
    let ledger = render_ledger();
    if ledger != GOLDEN {
        let actual = std::env::temp_dir().join("bounds.actual.txt");
        std::fs::write(&actual, &ledger).expect("the temp dir is writable");
        let first = ledger
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("golden: {g}\nactual: {a}"))
            .unwrap_or_else(|| "one ledger is a prefix of the other".into());
        panic!(
            "the bound ledger differs from tests/golden/bounds.txt \
             (first differing line below; full ledger in {}):\n{first}",
            actual.display()
        );
    }
}
