//! Invariants of the one analysis profile (`AnalysisProfile`) over the
//! eight paper instances and every default-sweep cell:
//!
//! * every abstract step is one transfer-memo hit or one miss, so with
//!   the memo on `transfer_hits + transfer_misses` equals the memo-off
//!   step count, and the memo-off run never hits;
//! * an executor's profile is the field-wise sum of its successful
//!   reports' profiles;
//! * a report that ran no pipeline — decoded from the result cache, a
//!   memory-cache hit, or a shared-pass view of another cell's pass —
//!   carries an all-zero profile, while every computed cell of a sweep,
//!   a shared pass's lead among them, carries its pass's profile (one
//!   run), and the cell profiles of every sweep on one engine sum to
//!   its executor profile.

use std::sync::Arc;

use leakaudit::analyzer::{AnalysisConfig, AnalysisProfile, Executor, OwnedJob};
use leakaudit::scenarios::{self, Registry, Scenario};
use leakaudit::service::cache::{decode_report, encode_report};
use leakaudit::service::{Provenance, SweepEngine};

/// Every paper instance and default-sweep cell, with its own config.
fn cells() -> Vec<(String, AnalysisConfig, Arc<Scenario>)> {
    let paper = scenarios::all()
        .into_iter()
        .map(|s| (s.name.clone(), s.analysis_config(), s));
    let registry = Registry::default_sweep();
    let sweep = registry
        .specs()
        .iter()
        .map(|spec| (spec.id(), spec.analysis_config(), spec.build()));
    paper
        .chain(sweep)
        .map(|(name, config, s)| (name, config, Arc::new(s)))
        .collect()
}

/// Runs every cell in one batch with the memo switched `memo`, checks
/// that the executor's profile sums the reports' profiles, and returns
/// the per-cell profiles in cell order.
fn batch_profiles(
    cells: &[(String, AnalysisConfig, Arc<Scenario>)],
    memo: bool,
) -> Vec<AnalysisProfile> {
    let executor = Executor::new();
    let jobs = cells
        .iter()
        .map(|(name, config, s)| {
            let config = AnalysisConfig {
                interp_memo: memo,
                ..config.clone()
            };
            OwnedJob::new(name.clone(), config, Arc::clone(s) as _)
        })
        .collect();
    let batch = executor.submit(jobs).wait();
    let profiles: Vec<AnalysisProfile> = batch
        .outcomes()
        .iter()
        .map(|o| {
            o.result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", o.name))
                .profile()
        })
        .collect();
    let mut sum = AnalysisProfile::default();
    for profile in &profiles {
        assert_eq!(profile.runs, 1, "a computed report ran one pipeline");
        sum.add(profile);
    }
    assert_eq!(executor.profile(), sum, "memo {memo}: executor = Σ reports");
    profiles
}

#[test]
fn memo_steps_partition_the_naive_steps_and_the_executor_sums_its_reports() {
    let cells = cells();
    let on = batch_profiles(&cells, true);
    let off = batch_profiles(&cells, false);
    for ((name, _, _), (on, off)) in cells.iter().zip(on.iter().zip(&off)) {
        assert_eq!(off.transfer_hits, 0, "{name}: memo off never hits");
        assert!(off.transfer_misses > 0, "{name}: the cell took steps");
        assert_eq!(
            on.transfer_hits + on.transfer_misses,
            off.transfer_misses,
            "{name}: every step is one hit or one miss"
        );
    }
}

#[test]
fn reports_that_ran_no_pipeline_carry_a_zero_profile() {
    let registry = Registry::default_sweep();
    let engine = SweepEngine::new();
    let report = engine.run(&registry);
    let mut shared = 0;
    let mut computed = AnalysisProfile::default();
    for cell in report.cells() {
        let leak = cell
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", cell.spec.id()));
        let decoded = decode_report(&encode_report(leak)).expect("round trip");
        assert_eq!(decoded.rows(), leak.rows());
        assert_eq!(decoded.profile(), AnalysisProfile::default());
        match cell.provenance {
            Provenance::SharedPass { .. } => {
                shared += 1;
                assert_eq!(
                    leak.profile(),
                    AnalysisProfile::default(),
                    "{}: a shared-pass view ran no pipeline",
                    cell.spec.id()
                );
            }
            Provenance::Computed => {
                assert_eq!(
                    leak.profile().runs,
                    1,
                    "{}: a computed cell carries its pass",
                    cell.spec.id()
                );
                computed.add(&leak.profile());
            }
            _ => {}
        }
    }
    assert!(shared > 0, "the default sweep shares scheduler passes");
    assert_eq!(engine.profile().runs, report.computed() as u64);
    assert_eq!(engine.profile(), computed, "executor = Σ computed cells");

    // The same sweep again on the same engine: every cell is a memory
    // hit, which ran no pipeline, so the engine's profile stays the sum
    // of both sweeps' cell profiles.
    let warm = engine.run(&registry);
    let mut sum = AnalysisProfile::default();
    for cell in report.cells().iter().chain(warm.cells()) {
        sum.add(&cell.result.as_ref().unwrap().profile());
    }
    for cell in warm.cells() {
        assert_eq!(cell.provenance, Provenance::MemoryHit, "{}", cell.spec.id());
        assert_eq!(
            cell.result.as_ref().unwrap().profile(),
            AnalysisProfile::default(),
            "{}: a memory hit ran no pipeline",
            cell.spec.id()
        );
    }
    assert_eq!(engine.profile(), sum, "executor = Σ cells of both sweeps");
}
