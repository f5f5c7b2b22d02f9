//! The multi-tenant acceptance suite: per-request audit profiles
//! (observer overrides, fuel/deadline budgets) threaded end-to-end, and
//! the streaming result path.
//!
//! The contracts pinned here:
//!
//! * a fuel-starved cell resolves to `BudgetExhausted` while sibling
//!   cells of the same sweep complete and cache normally — and those
//!   siblings are bit-identical to an unbudgeted run;
//! * overridden requests are cached under distinct keys, and an
//!   override that reproduces another spec's native configuration
//!   shares its cache entry (key identity is semantic, not syntactic);
//! * `stream` pushes per-cell lines whose row text is bit-identical to
//!   the blocking `result` encoding;
//! * `ack` releases a collected job and released ids answer with the
//!   distinct `expired` status.

use leakaudit_analyzer::{AnalysisError, Budget, BudgetLimit};
use leakaudit_scenarios::{FamilyParams, Opt, ScenarioSpec};
use leakaudit_service::{AuditProfile, Daemon, Json, Provenance, SweepEngine};

fn cheap_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(
            FamilyParams::SquareMultiply {
                stub_stride: 0x40,
                secret_bits: 1,
            },
            6,
        ),
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
    ]
}

/// The expensive sibling: 7 × 96-word branchless copy, thousands of
/// abstract steps — far past any starvation budget used below.
fn expensive_spec() -> ScenarioSpec {
    ScenarioSpec::new(
        FamilyParams::LookupSecure {
            entries: 7,
            words: 96,
            pad_words: 0,
        },
        6,
    )
}

fn parse(response: &str) -> Json {
    Json::parse(response).expect("daemon responses are valid JSON")
}

#[test]
fn fuel_starved_cell_fails_while_siblings_complete_and_cache() {
    let mut specs = cheap_specs();
    specs.push(expensive_spec());
    let starving = AuditProfile {
        budget: Budget::with_fuel(500),
        ..AuditProfile::default()
    };

    let engine = SweepEngine::new();
    let budgeted = engine.run_with(&specs, &starving);
    // The cheap cells converge inside the budget …
    for cell in &budgeted.cells()[..2] {
        assert!(
            cell.result.is_ok(),
            "{}: sibling must complete, got {:?}",
            cell.spec.id(),
            cell.result.as_ref().err()
        );
    }
    // … the expensive one surfaces the budget, not an unbounded run.
    match budgeted.cells()[2].result.as_ref() {
        Err(e) => match **e {
            AnalysisError::BudgetExhausted { limit, steps } => {
                assert_eq!(limit, BudgetLimit::Fuel);
                assert_eq!(steps, 500);
            }
            ref other => panic!("expected BudgetExhausted, got {other}"),
        },
        Ok(_) => panic!("500 abstract steps cannot finish a 7x96 copy"),
    }

    // Siblings cached normally: a warm rerun under the same profile
    // serves them from memory and retries only the failed cell (errors
    // are never cached).
    let warm = engine.run_with(&specs, &starving);
    assert_eq!(warm.cells()[0].provenance, Provenance::MemoryHit);
    assert_eq!(warm.cells()[1].provenance, Provenance::MemoryHit);
    assert_eq!(warm.cells()[2].provenance, Provenance::Computed);
    assert!(warm.cells()[2].result.is_err(), "still starved");

    // Bit-identical to an unbudgeted run — the budget decides whether a
    // run may finish, never what a finished run computes.
    let unbudgeted = SweepEngine::new().run_specs(&specs);
    for (b, u) in budgeted.cells()[..2].iter().zip(unbudgeted.cells()) {
        assert_ne!(b.key, u.key, "budgeted requests cache under their own keys");
        let (rb, ru) = (b.result.as_ref().unwrap(), u.result.as_ref().unwrap());
        assert_eq!(rb.rows().len(), ru.rows().len());
        for (x, y) in rb.rows().iter().zip(ru.rows()) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.count, y.count);
            assert_eq!(x.bits.to_bits(), y.bits.to_bits(), "{}", b.spec.id());
        }
    }
    assert!(
        unbudgeted.cells()[2].result.is_ok(),
        "unbudgeted run finishes"
    );
}

#[test]
fn overridden_results_cache_under_distinct_but_semantic_keys() {
    let spec = ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6);
    let engine = SweepEngine::new();

    // A bank-granularity override computes fresh and caches separately
    // from the unoverridden cell …
    let coarse = AuditProfile {
        bank_bits: Some(3),
        ..AuditProfile::default()
    };
    let overridden = engine.run_with(&[spec], &coarse);
    assert_eq!(overridden.computed(), 1);
    let plain = engine.run_specs(&[spec]);
    assert_eq!(plain.computed(), 1, "distinct keys: no cross-serving");
    assert_ne!(overridden.cells()[0].key, plain.cells()[0].key);
    // … and each is warm under its own identity.
    assert_eq!(engine.run_with(&[spec], &coarse).computed(), 0);
    assert_eq!(engine.run_specs(&[spec]).computed(), 0);
    assert_eq!(engine.cached_reports(), 2);

    // Key identity is semantic: overriding block_bits to 5 lands on the
    // very same cache entry as the native b=5 spec (same program, same
    // effective configuration), so the override is answered warm.
    let native_b5 = ScenarioSpec::new(spec.params, 5);
    let cold = engine.run_specs(&[native_b5]);
    assert_eq!(cold.computed(), 1);
    let via_override = engine.run_with(
        &[spec],
        &AuditProfile {
            block_bits: Some(5),
            ..AuditProfile::default()
        },
    );
    assert_eq!(via_override.cells()[0].key, cold.cells()[0].key);
    assert_eq!(
        via_override.cells()[0].provenance,
        Provenance::MemoryHit,
        "an override reproducing another cell's config shares its entry"
    );
    assert_eq!(
        via_override.cells()[0].result.as_ref().unwrap().rows(),
        cold.cells()[0].result.as_ref().unwrap().rows()
    );
    assert_eq!(engine.cached_reports(), 3, "no entry of its own");
}

/// Collects every line the daemon emits for one request.
fn handle_streaming(daemon: &Daemon, line: &str) -> Vec<Json> {
    let mut lines = Vec::new();
    daemon.handle_line_into(line, &mut |response| lines.push(parse(response)));
    lines
}

#[test]
fn streamed_rows_are_bit_identical_to_the_blocking_result_encoding() {
    let daemon = Daemon::new(SweepEngine::new());
    let submit = r#"{"op":"submit_sweep","specs":[
        "square-and-multiply[stride=0x40,b=6]",
        "square-and-always-multiply[O2,b=6]",
        "square-and-always-multiply[O2,b=6]",
        "unprotected-lookup[O2,e=7,b=6]"]}"#
        .replace('\n', " ");

    // Job 0: collected cold through the *streaming* path.
    parse(&daemon.handle_line(&submit));
    let streamed = handle_streaming(&daemon, r#"{"op":"stream","job":0}"#);
    assert_eq!(streamed.len(), 5, "4 cell lines + 1 summary");
    let summary = streamed.last().unwrap();
    assert_eq!(summary.get("stream_done"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(4));
    assert_eq!(summary.get("computed").and_then(Json::as_u64), Some(3));
    assert_eq!(summary.get("reused").and_then(Json::as_u64), Some(1));

    // Job 1: the same sweep answered by the blocking result op.
    parse(&daemon.handle_line(&submit));
    let blocking = parse(&daemon.handle_line(r#"{"op":"result","job":1}"#));
    let cells = blocking.get("cells").and_then(Json::as_arr).unwrap();

    for (index, (line, cell)) in streamed[..4].iter().zip(cells).enumerate() {
        assert_eq!(line.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(line.get("job").and_then(Json::as_u64), Some(0));
        assert_eq!(line.get("cell").and_then(Json::as_u64), Some(index as u64));
        assert_eq!(line.get("id"), cell.get("id"));
        assert_eq!(line.get("key"), cell.get("key"), "same content identity");
        // The acceptance bar: identical row text (the encoding is
        // exact, so textual equality is bit identity).
        assert_eq!(
            line.get("rows").unwrap().to_string(),
            cell.get("rows").unwrap().to_string(),
            "cell {index}: streamed rows must be bit-identical"
        );
    }

    // Replaying the stream on the collected job yields the same lines.
    let replayed = handle_streaming(&daemon, r#"{"op":"stream","job":0}"#);
    assert_eq!(replayed.len(), streamed.len());
    for (a, b) in streamed.iter().zip(&replayed) {
        assert_eq!(a.to_string(), b.to_string(), "replay is deterministic");
    }
    // And the blocking result on the streamed job serves the stored
    // report with the identical cell encoding.
    let result0 = parse(&daemon.handle_line(r#"{"op":"result","job":0}"#));
    let cells0 = result0.get("cells").and_then(Json::as_arr).unwrap();
    for (line, cell) in streamed[..4].iter().zip(cells0) {
        assert_eq!(
            line.get("rows").unwrap().to_string(),
            cell.get("rows").unwrap().to_string()
        );
    }
}

#[test]
fn wire_config_overrides_reach_the_analyzer_and_the_cache_key() {
    let daemon = Daemon::new(SweepEngine::new());
    let spec = "square-and-always-multiply[O2,b=6]";

    // A zero deadline exhausts every cell before it starts.
    parse(&daemon.handle_line(&format!(
        r#"{{"op":"submit_sweep","specs":["{spec}"],"config":{{"budget":{{"deadline_ms":0}}}}}}"#
    )));
    let starved = parse(&daemon.handle_line(r#"{"op":"result","job":0}"#));
    let cell = &starved.get("cells").and_then(Json::as_arr).unwrap()[0];
    let error = cell.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        error.contains("budget exhausted (deadline)"),
        "expected a deadline exhaustion, got {error:?}"
    );

    // The same cell unbudgeted: computes (the starved attempt cached
    // nothing) under a different key.
    parse(&daemon.handle_line(&format!(r#"{{"op":"submit_sweep","specs":["{spec}"]}}"#)));
    let plain = parse(&daemon.handle_line(r#"{"op":"result","job":1}"#));
    let plain_cell = &plain.get("cells").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(
        plain_cell.get("provenance").and_then(Json::as_str),
        Some("computed")
    );
    assert!(plain_cell.get("rows").is_some());
    assert_ne!(plain_cell.get("key"), cell.get("key"));

    // An observer override is honored per request and cached distinctly.
    parse(&daemon.handle_line(&format!(
        r#"{{"op":"submit_sweep","specs":["{spec}"],"config":{{"bank_bits":3}}}}"#
    )));
    let coarse = parse(&daemon.handle_line(r#"{"op":"result","job":2}"#));
    let coarse_cell = &coarse.get("cells").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(
        coarse_cell.get("provenance").and_then(Json::as_str),
        Some("computed"),
        "override must not be served from the unoverridden entry"
    );
    assert_ne!(coarse_cell.get("key"), plain_cell.get("key"));

    // Malformed configs die with structured errors.
    for bad in [
        r#"{"op":"submit_sweep","registry":"paper","config":{"nope":1}}"#,
        r#"{"op":"submit_sweep","registry":"paper","config":{"budget":{"fuel":"lots"}}}"#,
        r#"{"op":"submit_sweep","registry":"paper","config":{"block_bits":0}}"#,
        r#"{"op":"submit_sweep","registry":"paper","config":[1]}"#,
    ] {
        let response = parse(&daemon.handle_line(bad));
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{bad}");
        assert!(response.get("error").is_some());
    }
    // `cycle_model` is no config field: the generic unknown-field error.
    let retired = r#"{"op":"submit_sweep","registry":"paper","config":{"cycle_model":"lru"}}"#;
    let response = parse(&daemon.handle_line(retired));
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some(r#"unknown config field "cycle_model""#)
    );
}

#[test]
fn ack_releases_collected_jobs_and_expiry_is_client_visible() {
    let daemon = Daemon::new(SweepEngine::new());
    let submit = r#"{"op":"submit_sweep","specs":["square-and-always-multiply[O2,b=6]"]}"#;

    // Acking an uncollected job is refused (its results would be lost).
    parse(&daemon.handle_line(submit));
    let premature = parse(&daemon.handle_line(r#"{"op":"ack","job":0}"#));
    assert_eq!(premature.get("ok"), Some(&Json::Bool(false)));
    assert!(premature
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("not collected"));

    // Collect, ack, and observe the released id answer as expired.
    parse(&daemon.handle_line(r#"{"op":"result","job":0}"#));
    let acked = parse(&daemon.handle_line(r#"{"op":"ack","job":0}"#));
    assert_eq!(acked.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(acked.get("acked"), Some(&Json::Bool(true)));

    let poll = parse(&daemon.handle_line(r#"{"op":"poll","job":0}"#));
    assert_eq!(poll.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(poll.get("state").and_then(Json::as_str), Some("expired"));

    for op in ["result", "ack", "cancel"] {
        let response = parse(&daemon.handle_line(&format!(r#"{{"op":"{op}","job":0}}"#)));
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{op}");
        assert_eq!(
            response.get("expired"),
            Some(&Json::Bool(true)),
            "{op}: released ids are expired, not unknown"
        );
    }
    let streamed = handle_streaming(&daemon, r#"{"op":"stream","job":0}"#);
    assert_eq!(streamed.len(), 1);
    assert_eq!(streamed[0].get("expired"), Some(&Json::Bool(true)));

    // Never-issued ids stay plain unknown — no expired flag.
    let unknown = parse(&daemon.handle_line(r#"{"op":"poll","job":999}"#));
    assert_eq!(unknown.get("ok"), Some(&Json::Bool(false)));
    assert!(unknown.get("expired").is_none());

    // The acked job's report still lives in the result cache: a
    // resubmission is answered warm.
    parse(&daemon.handle_line(submit));
    let warm = parse(&daemon.handle_line(r#"{"op":"result","job":1}"#));
    assert_eq!(warm.get("reused").and_then(Json::as_u64), Some(1));
}
