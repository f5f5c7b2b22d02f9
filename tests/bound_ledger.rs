//! Golden static ledger: the static bound of every
//! `Registry::default_sweep()` cell under each spec of its
//! `observer_suite()`, pinned byte for byte in `golden/bounds.txt`.
//!
//! `leakage_tables` pins values only for the eight paper instances, and
//! `soundness_empirical` checks the other cells only for
//! concrete ≤ static. A change that moves a registry bound — the same way
//! with the interpreter memo on and off — passes both; it fails here.
//! Each line is `cell<TAB>channel<TAB>observer<TAB>count<TAB>bits`, the
//! count in decimal and the bits as `f64` `Display` (shortest round-trip
//! spelling, so a change in the last place shows).
//!
//! On a mismatch the test writes the rendered ledger to
//! `$TMPDIR/bounds.actual.txt`; copy it over the golden file only for a
//! deliberate change of the analysis, and explain the diff.

use std::sync::Arc;

use leakaudit::analyzer::{AnalysisInput, Executor, OwnedJob};
use leakaudit::scenarios::Registry;

const GOLDEN: &str = include_str!("golden/bounds.txt");

/// Analyzes every default-sweep cell in one executor batch and renders
/// one ledger line per (cell, suite spec).
fn render_ledger() -> String {
    let registry = Registry::default_sweep();
    let jobs = registry
        .specs()
        .iter()
        .map(|spec| {
            let s = spec.build();
            let input = AnalysisInput {
                program: s.program,
                init: s.init,
            };
            OwnedJob::new(spec.id(), spec.analysis_config(), Arc::new(input))
        })
        .collect();
    let batch = Executor::new().submit(jobs).wait();
    let mut out = String::new();
    for (spec, outcome) in registry.specs().iter().zip(batch.outcomes()) {
        let report = outcome
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", outcome.name));
        for suite_spec in spec.analysis_config().observer_suite() {
            let row = report
                .rows()
                .iter()
                .find(|r| r.spec == suite_spec)
                .unwrap_or_else(|| panic!("{}: no row for {suite_spec:?}", outcome.name));
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                outcome.name, suite_spec.channel, suite_spec.observer, row.count, row.bits
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
            "the static ledger differs from tests/golden/bounds.txt \
             (first differing line below; full ledger in {}):\n{first}",
            actual.display()
        );
    }
}
