//! Regression suite for the paper's leakage tables: every cell of
//! Figs. 7a, 7b, 8, 14a, 14b, 14c, 14d must match, including the
//! fractional values (5.6 = log2 50, 2.3 = log2 5) and the CacheBleed
//! bank-trace bounds.
//!
//! All reports come out of one `scenarios::analyze_all` batch on the
//! `Executor` — the runner every sweep and daemon request uses — so this
//! suite doubles as a regression net for the batch pipeline itself.

use leakaudit::analyzer::LeakReport;
use leakaudit::core::Observer;
use leakaudit::scenarios::{self, Scenario};

const TOL: f64 = 1e-9;

/// Analyzes the full suite as one parallel batch and pairs each scenario
/// with its report.
fn batched_reports() -> Vec<(Scenario, LeakReport)> {
    let scenarios = scenarios::all();
    let batch = scenarios::analyze_all(&scenarios);
    scenarios
        .into_iter()
        .zip(batch.outcomes())
        .map(|(s, outcome)| {
            let report = outcome
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name))
                .clone();
            (s, report)
        })
        .collect()
}

#[test]
fn every_scenario_matches_its_paper_table() {
    for (s, report) in batched_reports() {
        let b = s.block_bits;
        let observers = [
            Observer::address(),
            Observer::block(b),
            Observer::block(b).stuttering(),
        ];
        for (i, obs) in observers.iter().enumerate() {
            let got = report.icache_bits(*obs);
            assert!(
                (got - s.expected.icache[i]).abs() < TOL,
                "{}: I-cache {obs}: measured {got}, paper {}",
                s.name,
                s.expected.icache[i]
            );
            let got = report.dcache_bits(*obs);
            assert!(
                (got - s.expected.dcache[i]).abs() < TOL,
                "{}: D-cache {obs}: measured {got}, paper {}",
                s.name,
                s.expected.dcache[i]
            );
        }
        if let Some(bank_bits) = s.expected.dcache_bank {
            let got = report.dcache_bits(Observer::bank());
            assert!(
                (got - bank_bits).abs() < TOL,
                "{}: D-cache bank: measured {got}, paper {bank_bits}",
                s.name
            );
        }
    }
}

#[test]
fn shared_cache_leakage_is_consistent_with_both() {
    // Paper footnote 5: "the leakage results were consistently the maximum
    // of the I-cache and D-cache leakage results". Our shared bound may
    // exceed the max (it sees the interleaving) but never be below it.
    for (s, report) in batched_reports() {
        for obs in [Observer::address(), Observer::block(s.block_bits)] {
            let i = report.icache_bits(obs);
            let d = report.dcache_bits(obs);
            let shared = report.shared_bits(obs);
            assert!(
                shared + 1e-9 >= i.max(d),
                "{}: shared {shared} < max(I {i}, D {d}) for {obs}",
                s.name
            );
        }
    }
}

#[test]
fn observer_hierarchy_is_monotone() {
    // Coarser observers can never learn more (§3.2's hierarchy).
    for (s, report) in batched_reports() {
        let chain = [
            Observer::address(),
            Observer::bank(),
            Observer::block(s.block_bits),
            Observer::page(),
        ];
        for w in chain.windows(2) {
            assert!(
                report.dcache_bits(w[0]) + 1e-9 >= report.dcache_bits(w[1]),
                "{}: {} < {}",
                s.name,
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn stuttering_never_exceeds_exact() {
    for (s, report) in batched_reports() {
        let b = s.block_bits;
        assert!(
            report.icache_bits(Observer::block(b)) + 1e-9
                >= report.icache_bits(Observer::block(b).stuttering()),
            "{}",
            s.name
        );
        assert!(
            report.dcache_bits(Observer::block(b)) + 1e-9
                >= report.dcache_bits(Observer::block(b).stuttering()),
            "{}",
            s.name
        );
    }
}

#[test]
fn analysis_runtime_is_in_the_papers_ballpark() {
    // Paper §8.1: 0–4 s per instance on a t1.micro. Allow slack for debug
    // builds and slow CI machines, but catch pathological blowups.
    for s in scenarios::all() {
        let start = std::time::Instant::now();
        let _ = s.analyze().unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_secs() < 60,
            "{}: analysis took {elapsed:?}",
            s.name
        );
    }
}
