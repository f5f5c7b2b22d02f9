//! The per-request fuel budget at its exact boundary, through the
//! daemon, with trace replay offloaded to a helper thread and the
//! interpreter memo on and off.
//!
//! A cell's abstract step count `S` is read from an unbudgeted run's
//! profile (every step is one transfer-memo hit or one miss). A budget
//! of `S` steps must let the cell finish with the unbudgeted rows; a
//! budget of `S - 1` must stop it one step short.

use leakaudit_service::{Daemon, Json, SweepEngine};

const CELLS: [&str; 2] = [
    "defensive-gather[s=8,n=384,b=6]",
    "branchy-gather[e=16,r=24,b=6]",
];

/// Submits `spec` under the `config` override object and returns the
/// collected cell.
fn run_cell(daemon: &Daemon, job: &mut u64, spec: &str, config: &str) -> Json {
    let submit = format!(r#"{{"op":"submit_sweep","specs":["{spec}"],"config":{config}}}"#);
    let accepted = Json::parse(&daemon.handle_line(&submit)).unwrap();
    assert_eq!(accepted.get("ok"), Some(&Json::Bool(true)), "{submit}");
    let result = format!(r#"{{"op":"result","job":{job}}}"#);
    *job += 1;
    let response = Json::parse(&daemon.handle_line(&result)).unwrap();
    response.get("cells").and_then(Json::as_arr).unwrap()[0].clone()
}

/// One counter of the daemon's lifetime `stats` profile.
fn profile_field(daemon: &Daemon, field: &str) -> u64 {
    let stats = Json::parse(&daemon.handle_line(r#"{"op":"stats"}"#)).unwrap();
    stats
        .get("profile")
        .and_then(|p| p.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats profile lacks {field}"))
}

fn rows(cell: &Json) -> String {
    cell.get("rows")
        .unwrap_or_else(|| panic!("no rows: {cell}"))
        .to_string()
}

#[test]
fn a_fuel_budget_of_exactly_the_step_count_finishes_and_one_less_does_not() {
    for memo in [true, false] {
        for spec in CELLS {
            // A fresh daemon per cell: its profile is this cell's alone,
            // and the memo switch is not part of the cache key.
            let daemon = Daemon::new(SweepEngine::new().with_threads(2));
            let mut job = 0;
            let plain = run_cell(
                &daemon,
                &mut job,
                spec,
                &format!(r#"{{"interp_memo":{memo}}}"#),
            );
            let hits = profile_field(&daemon, "transfer_hits");
            let steps = hits + profile_field(&daemon, "transfer_misses");
            assert!(steps > 0, "{spec}: the cell ran");
            if !memo {
                assert_eq!(hits, 0, "{spec}: memo off never hits");
            }

            let budgeted = |fuel: u64, job: &mut u64| {
                let config = format!(r#"{{"interp_memo":{memo},"budget":{{"fuel":{fuel}}}}}"#);
                run_cell(&daemon, job, spec, &config)
            };
            let exact = budgeted(steps, &mut job);
            assert_eq!(
                exact.get("provenance").and_then(Json::as_str),
                Some("computed"),
                "{spec}: the budget is part of the key"
            );
            assert_eq!(rows(&exact), rows(&plain), "{spec} (memo {memo})");

            let short = budgeted(steps - 1, &mut job);
            assert!(short.get("rows").is_none(), "{spec}: {short}");
            assert_eq!(
                short.get("error").and_then(Json::as_str),
                Some(
                    format!("budget exhausted (fuel) after {} abstract steps", steps - 1).as_str()
                ),
                "{spec} (memo {memo})"
            );

            assert!(
                profile_field(&daemon, "offloaded") >= 1,
                "{spec}: one job at a time on two workers offloads replay"
            );
        }
    }
}
