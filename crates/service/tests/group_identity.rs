//! The interpretation-sharing acceptance suite: every cell of a grouped
//! granularity sweep must come out byte-identical to running that cell
//! alone — counts, bounds, and the exact wire row text — cold, warm,
//! and through the daemon `stream` op. Alongside bit-identity, the
//! suite pins the "analyze once" half of the tentpole: a grouped sweep
//! runs exactly one scheduler pass per distinct interpretation.

use std::sync::Arc;

use leakaudit_scenarios::{FamilyParams, Opt, Registry, ScenarioSpec};
use leakaudit_service::{cache::encode_row, Daemon, Json, Provenance, SweepCell, SweepEngine};

/// The exact wire encoding of every row of a cell's report — textual
/// equality of these strings is bit identity (counts travel as hex
/// big-numbers, bounds as shortest-round-trip floats).
fn rendered_rows(cell: &SweepCell) -> Vec<String> {
    cell.result
        .as_ref()
        .expect("cell converged")
        .rows()
        .iter()
        .map(encode_row)
        .collect()
}

/// xorshift64* — deterministic spec shuffling without a rand dep.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[test]
fn every_grouped_cell_matches_its_solo_run_byte_for_byte() {
    let registry = Registry::granularity_sweep();
    assert!(registry.len() >= 8);

    // Grouped: the whole granularity matrix in one cold submission.
    let grouped_engine = SweepEngine::new();
    let grouped = grouped_engine.run(&registry);
    assert_eq!(
        grouped.computed() + grouped.shared_pass(),
        registry.len(),
        "a cold granularity sweep analyzes every cell, one way or the other"
    );
    assert!(
        grouped.shared_pass() > 0,
        "granularity variants of one binary must share a pass"
    );

    // Solo: each cell alone, on a fresh engine (nothing shared).
    for cell in grouped.cells() {
        let solo = SweepEngine::new().query(&cell.spec);
        assert_eq!(solo.provenance, Provenance::Computed);
        assert_eq!(solo.key, cell.key, "{}: stable content key", cell.spec.id());
        assert_eq!(
            rendered_rows(&solo),
            rendered_rows(cell),
            "{}: grouped rows must be byte-identical to the solo run",
            cell.spec.id()
        );
    }

    // Warm: the same sweep again is pure cache hits sharing the
    // grouped run's reports.
    let warm = grouped_engine.run(&registry);
    assert_eq!(warm.computed(), 0);
    assert_eq!(warm.shared_pass(), 0);
    for (g, w) in grouped.cells().iter().zip(warm.cells()) {
        assert_eq!(w.provenance, Provenance::MemoryHit, "{}", w.spec.id());
        assert!(Arc::ptr_eq(
            g.result.as_ref().unwrap(),
            w.result.as_ref().unwrap()
        ));
        assert_eq!(rendered_rows(g), rendered_rows(w));
    }
}

#[test]
fn grouping_runs_each_distinct_interpretation_exactly_once() {
    // Distinct interpretations of the granularity sweep = distinct
    // (program × init) bases (all cells share the default fuel/budget),
    // counted independently of the planner.
    let registry = Registry::granularity_sweep();
    let mut bases: Vec<_> = registry
        .specs()
        .iter()
        .map(|s| leakaudit_service::BaseKey::for_scenario(&s.build()))
        .collect();
    bases.sort_by_key(|b| format!("{b:?}"));
    bases.dedup();

    let report = SweepEngine::new().run(&registry);
    assert_eq!(
        report.computed(),
        bases.len(),
        "exactly one scheduler pass per distinct interpretation"
    );
    assert_eq!(report.shared_pass(), registry.len() - bases.len());
    // Every shared-pass cell names a computed lead with its own key.
    for cell in report.cells() {
        if let Provenance::SharedPass { of } = cell.provenance {
            let lead = &report.cells()[of];
            assert_eq!(lead.provenance, Provenance::Computed);
            assert_ne!(lead.key, cell.key, "distinct results, shared pass");
            assert_eq!(cell.elapsed, std::time::Duration::ZERO);
        }
    }
}

#[test]
fn shuffled_submission_orders_group_bit_identically() {
    // Proptest-style: several deterministic shuffles of the same matrix
    // must group differently (different leads) yet answer every cell
    // with the same bytes.
    let registry = Registry::granularity_sweep();
    let baseline: std::collections::HashMap<String, Vec<String>> = SweepEngine::new()
        .run(&registry)
        .cells()
        .iter()
        .map(|c| (c.spec.id(), rendered_rows(c)))
        .collect();

    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..4 {
        let mut specs: Vec<ScenarioSpec> = registry.specs().to_vec();
        // Fisher–Yates with the xorshift stream.
        for i in (1..specs.len()).rev() {
            let j = (xorshift(&mut seed) % (i as u64 + 1)) as usize;
            specs.swap(i, j);
        }
        let report = SweepEngine::new().run_specs(&specs);
        assert!(report.shared_pass() > 0, "round {round}: groups formed");
        for cell in report.cells() {
            assert_eq!(
                rendered_rows(cell),
                baseline[&cell.spec.id()],
                "round {round}, {}: order must not change a byte",
                cell.spec.id()
            );
        }
    }
}

#[test]
fn mixed_interpretations_split_groups_but_not_results() {
    // Same binary four ways: two observer variants under the default
    // interpretation, the same two under a tighter (but sufficient)
    // budget. The planner must form two groups of two — budgets are
    // interpretation — and all four must agree bit-for-bit on rows
    // (a sufficient budget never changes a converging run).
    use leakaudit_service::AuditProfile;
    let sa = ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6);
    let variants = [sa, sa.with_observer_bits(3, 10)];

    let engine = SweepEngine::new();
    let plain = engine.run_specs(&variants);
    assert_eq!(plain.computed(), 1);
    assert_eq!(plain.shared_pass(), 1);

    let budgeted_profile = AuditProfile {
        budget: leakaudit_analyzer::Budget::with_fuel(2_000_000),
        ..AuditProfile::default()
    };
    let budgeted = engine.run_with(&variants, &budgeted_profile);
    // Distinct interpretation → distinct keys → nothing reused, and a
    // fresh group of its own.
    assert_eq!(budgeted.computed(), 1);
    assert_eq!(budgeted.shared_pass(), 1);
    for (p, b) in plain.cells().iter().zip(budgeted.cells()) {
        assert_ne!(p.key, b.key, "budgets are part of result identity");
        assert_eq!(
            rendered_rows(p),
            rendered_rows(b),
            "a sufficient budget changes no bytes"
        );
    }
}

#[test]
fn memo_off_union_pass_is_byte_identical_and_key_identical() {
    // The interpreter's memo layer is a pure accelerator: a grouped
    // (union-pass) granularity sweep with the memo forced off must
    // produce the same groups, the same cache keys (the flag is not
    // part of result identity), and the same wire bytes in every row
    // as the default memoized sweep. Fresh engines on both sides so
    // nothing is served from cache.
    use leakaudit_service::AuditProfile;
    let registry = Registry::granularity_sweep();

    let memo_on = SweepEngine::new().run(&registry);
    assert!(memo_on.shared_pass() > 0, "groups must form");

    let naive_profile = AuditProfile {
        interp_memo: Some(false),
        ..AuditProfile::default()
    };
    let naive_engine = SweepEngine::new();
    let memo_off = naive_engine.run_with(registry.specs(), &naive_profile);
    assert_eq!(memo_off.computed(), memo_on.computed());
    assert_eq!(memo_off.shared_pass(), memo_on.shared_pass());

    for (on, off) in memo_on.cells().iter().zip(memo_off.cells()) {
        assert_eq!(on.spec.id(), off.spec.id());
        assert_eq!(
            on.key,
            off.key,
            "{}: the memo flag must not enter result identity",
            on.spec.id()
        );
        assert_eq!(
            on.provenance,
            off.provenance,
            "{}: grouping must not depend on the memo",
            on.spec.id()
        );
        assert_eq!(
            rendered_rows(on),
            rendered_rows(off),
            "{}: naive union-pass rows must be byte-identical",
            on.spec.id()
        );
    }

    // The naive engine really did take the naive path: its lifetime
    // profile shows misses and not a single hit.
    let profile = naive_engine.profile();
    assert_eq!(profile.transfer_hits, 0, "memo off must never hit");
    assert!(profile.transfer_misses > 0, "naive steps count as misses");
}

#[test]
fn profiles_ride_along_without_touching_identity() {
    use leakaudit_analyzer::AnalysisProfile;

    // A computed cell's report carries a real profile: one run, and an
    // interpret time that is never zero for a real binary.
    let sa = ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6);
    let engine = SweepEngine::new();
    let cold = engine.query(&sa);
    assert_eq!(cold.provenance, Provenance::Computed);
    let profile = cold.result.as_ref().unwrap().profile();
    assert_eq!(profile.runs, 1);
    assert!(profile.interpret_ns > 0);

    // The executor folds the same run into its lifetime profile.
    assert_eq!(engine.profile(), profile);

    // None of it is part of result identity: an independent engine's run
    // of the same cell has its own wall-clock split, yet every wire row
    // matches the first run byte for byte.
    let rerun = SweepEngine::new().query(&sa);
    assert_eq!(rendered_rows(&rerun), rendered_rows(&cold));

    // Warm hits share the cold report Arc, profile included; shared-pass
    // members view the pass through a demuxed report whose profile is
    // zero — a view did not pay for the pass. The lead's pass is still
    // accounted once in the executor's profile.
    let warm = engine.query(&sa);
    assert_eq!(warm.provenance, Provenance::MemoryHit);
    assert_eq!(warm.result.as_ref().unwrap().profile(), profile);
    assert_eq!(engine.profile().runs, 1, "a cache hit runs nothing");

    let registry = Registry::granularity_sweep();
    let grouped_engine = SweepEngine::new();
    let grouped = grouped_engine.run(&registry);
    for cell in grouped.cells() {
        if let Provenance::SharedPass { .. } = cell.provenance {
            assert_eq!(
                cell.result.as_ref().unwrap().profile(),
                AnalysisProfile::default(),
                "{}: a shared-pass view carries no profile of its own",
                cell.spec.id()
            );
        }
    }
    assert_eq!(
        grouped_engine.profile().runs,
        grouped.computed() as u64,
        "one profiled run per scheduler pass"
    );
}

#[test]
fn daemon_stream_carries_shared_pass_provenance_bit_identically() {
    // The granularity matrix through the wire: solo baselines first,
    // then a cold daemon `stream` of the same cells — every streamed
    // row must equal the solo run's encoding exactly, and shared-pass
    // provenance must be visible on the wire. Both sides normalize
    // through one Json parse→serialize round trip, exactly as the
    // daemon renders disk-encoded rows onto the wire.
    let registry = Registry::granularity_sweep();
    let solo: std::collections::HashMap<String, Vec<String>> = registry
        .specs()
        .iter()
        .map(|spec| {
            let cell = SweepEngine::new().query(spec);
            let rows = rendered_rows(&cell)
                .iter()
                .map(|text| Json::parse(text).expect("row encoding is JSON").to_string())
                .collect();
            (cell.spec.id(), rows)
        })
        .collect();

    let daemon = Daemon::new(SweepEngine::new());
    let ids: Vec<String> = registry
        .specs()
        .iter()
        .map(|s| format!("\"{}\"", s.id()))
        .collect();
    let submit = format!(r#"{{"op":"submit_sweep","specs":[{}]}}"#, ids.join(","));
    let submitted = Json::parse(&daemon.handle_line(&submit)).unwrap();
    assert_eq!(submitted.get("ok"), Some(&Json::Bool(true)));

    let mut streamed = Vec::new();
    daemon.handle_line_into(r#"{"op":"stream","job":0}"#, &mut |line| {
        streamed.push(Json::parse(line).expect("stream line is JSON"))
    });

    let mut shared_pass_cells = 0usize;
    let mut streamed_cells = 0usize;
    for msg in &streamed {
        if msg.get("stream_done").is_some() {
            let computed = msg.get("computed").and_then(Json::as_u64).unwrap();
            let shared = msg.get("shared_pass").and_then(Json::as_u64).unwrap();
            assert_eq!(computed + shared, registry.len() as u64);
            assert_eq!(msg.get("reused").and_then(Json::as_u64), Some(0));
            continue;
        }
        streamed_cells += 1;
        let id = msg.get("id").and_then(Json::as_str).unwrap();
        let provenance = msg.get("provenance").and_then(Json::as_str).unwrap();
        assert!(
            provenance == "computed" || provenance == "shared-pass",
            "{id}: cold provenance was {provenance:?}"
        );
        if provenance == "shared-pass" {
            shared_pass_cells += 1;
        }
        let rows = msg.get("rows").and_then(Json::as_arr).unwrap();
        let expected = &solo[id];
        assert_eq!(rows.len(), expected.len(), "{id}");
        for (row, want) in rows.iter().zip(expected) {
            assert_eq!(&row.to_string(), want, "{id}: wire row must match solo");
        }
    }
    assert_eq!(streamed_cells, registry.len());
    assert!(
        shared_pass_cells > 0,
        "the wire must surface shared-pass provenance"
    );
}
