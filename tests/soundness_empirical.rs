//! Empirical validation of Theorem 1: for every case-study binary and
//! every cell of the default registry sweep, run the emulator under
//! *every* secret value and *every* heap layout the scenario ships,
//! apply each observer's view to the concrete traces, and check that the
//! number of distinct views never exceeds the static bound.
//!
//! This is the end-to-end soundness check: concrete `|view(Col_λ)| ≤
//! cnt^π(v)` for each low input λ (heap layout), for every channel and
//! observer of the analyzed suite, with the interpreter memo both on and
//! off — so the memo layers and the sink replay under them are checked
//! against concrete semantics, not only against the naive abstract path.

use std::collections::{BTreeMap, BTreeSet};

use leakaudit::analyzer::{Analysis, AnalysisConfig, Channel};
use leakaudit::scenarios::{self, Registry, Scenario};

/// Collects, per heap layout, the set of distinct views over all secrets
/// for every spec of `config`'s observer suite, and checks it against
/// the static count of a memoized and of a naive analysis.
fn check_scenario(s: &Scenario, config: &AnalysisConfig) {
    assert!(!s.cases.is_empty(), "{}: no concrete cases", s.name);
    // layout -> traces of all secrets under that layout.
    let mut by_layout: BTreeMap<usize, Vec<leakaudit::x86::EmuTrace>> = BTreeMap::new();
    for case in &s.cases {
        let trace = s
            .emulate(case)
            .unwrap_or_else(|e| panic!("{}: {}: {e}", s.name, case.label));
        by_layout.entry(case.layout).or_default().push(trace);
    }
    let suite = config.observer_suite();

    for interp_memo in [true, false] {
        let report = Analysis::new(AnalysisConfig {
            interp_memo,
            ..config.clone()
        })
        .run(s)
        .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        for (layout, traces) in &by_layout {
            for spec in &suite {
                let (channel, obs) = (spec.channel, spec.observer);
                let views: BTreeSet<Vec<u64>> = traces
                    .iter()
                    .map(|t| {
                        let addrs = match channel {
                            Channel::Instruction => t.fetch_addresses(),
                            Channel::Data => t.data_addresses(),
                            Channel::Shared => t.all_addresses(),
                        };
                        obs.view_concrete(&addrs)
                    })
                    .collect();
                let row = report
                    .rows()
                    .iter()
                    .find(|r| r.spec == *spec)
                    .unwrap_or_else(|| panic!("{}: missing row {channel}/{obs}", s.name));
                // Huge counts (e.g. 2^1152) trivially dominate the handful
                // of concrete cases; compare exactly when they fit in u64.
                if let Some(bound) = row.count.to_u64() {
                    assert!(
                        views.len() as u64 <= bound,
                        "{} layout {layout} (interp_memo {interp_memo}): \
                         {channel}/{obs}: {} distinct concrete views exceed \
                         the static bound {bound}",
                        s.name,
                        views.len()
                    );
                }
            }
        }
    }
}

/// Checks one paper instance under its own configuration.
fn check_instance(s: &Scenario) {
    check_scenario(s, &s.analysis_config());
}

#[test]
fn theorem_1_every_registry_cell() {
    let registry = Registry::default_sweep();
    for spec in registry.specs() {
        check_scenario(&spec.build(), &spec.analysis_config());
    }
}

#[test]
fn theorem_1_square_and_multiply() {
    check_instance(&scenarios::square_multiply::libgcrypt_152());
}

#[test]
fn theorem_1_square_and_always_multiply_o2() {
    check_instance(&scenarios::square_always::libgcrypt_153_o2());
}

#[test]
fn theorem_1_square_and_always_multiply_o0() {
    check_instance(&scenarios::square_always::libgcrypt_153_o0());
}

#[test]
fn theorem_1_unprotected_lookup_o2() {
    check_instance(&scenarios::lookup_unprotected::libgcrypt_161_o2());
}

#[test]
fn theorem_1_unprotected_lookup_o1() {
    check_instance(&scenarios::lookup_unprotected::libgcrypt_161_o1());
}

#[test]
fn theorem_1_secure_retrieve() {
    check_instance(&scenarios::lookup_secure::libgcrypt_163());
}

#[test]
fn theorem_1_scatter_gather() {
    check_instance(&scenarios::scatter_gather::openssl_102f());
}

#[test]
fn theorem_1_defensive_gather() {
    check_instance(&scenarios::defensive_gather::openssl_102g());
}

#[test]
fn zero_bit_bounds_mean_identical_views() {
    // Where the analysis proves 0 bits, the concrete views must actually
    // be identical across secrets — tightness of the zero cells.
    for s in [
        scenarios::lookup_secure::libgcrypt_163(),
        scenarios::defensive_gather::openssl_102g(),
    ] {
        let mut by_layout: BTreeMap<usize, BTreeSet<Vec<u64>>> = BTreeMap::new();
        for case in &s.cases {
            let t = s.emulate(case).unwrap();
            by_layout
                .entry(case.layout)
                .or_default()
                .insert(t.all_addresses());
        }
        for (layout, views) in by_layout {
            assert_eq!(
                views.len(),
                1,
                "{} layout {layout}: traces differ despite a 0-bit bound",
                s.name
            );
        }
    }
}
