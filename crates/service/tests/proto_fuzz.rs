//! Fuzz suite for the wire layer: arbitrary input lines must never
//! panic the JSON parser or the daemon's request handler, and malformed
//! requests must always come back as structured `{"ok":false,"error":…}`
//! responses — the connection stays usable no matter what a client
//! throws at it.
//!
//! Two input distributions are generated: raw byte soup (exercises the
//! parser's lexical edges: truncated escapes, invalid UTF-8, stray
//! digits) and "JSON-ish" token salads biased toward near-miss protocol
//! requests (real op names, real field names, wrong shapes), which land
//! much deeper in the daemon's request validation than random bytes
//! ever would.

use std::sync::OnceLock;

use leakaudit_service::{Daemon, Json, SweepEngine};
use proptest::prelude::*;

/// One shared daemon for the whole suite: `handle_line` must stay safe
/// on a long-lived instance (the production shape), and constructing an
/// engine per case would only slow the fuzzer down. No generated input
/// can reach the expensive path: the only way to make this daemon
/// analyze something is a `submit_sweep` with a *valid* spec id or
/// registry name, and the token alphabet below contains neither.
fn daemon() -> &'static Daemon {
    static DAEMON: OnceLock<Daemon> = OnceLock::new();
    DAEMON.get_or_init(|| Daemon::new(SweepEngine::new().with_threads(1)))
}

/// Asserts the daemon's response contract for one input line: at least
/// one response line, every line valid JSON carrying an `ok` bool, and
/// `ok:false` lines carrying an `error` string.
fn assert_response_contract(input: &str) -> Result<(), TestCaseError> {
    let mut lines: Vec<String> = Vec::new();
    daemon().handle_line_into(input, &mut |line| lines.push(line.to_string()));
    prop_assert!(!lines.is_empty(), "no response for {input:?}");
    for line in &lines {
        let response = match Json::parse(line) {
            Ok(response) => response,
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "unparsable response {line:?}: {e}"
                )))
            }
        };
        match response.get("ok") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                prop_assert!(
                    response.get("error").and_then(Json::as_str).is_some(),
                    "ok:false without error: {line:?}"
                );
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "response without ok bool ({other:?}): {line:?}"
                )))
            }
        }
    }
    Ok(())
}

/// Tokens biased toward the protocol's own vocabulary: op names, field
/// names, punctuation, and *invalid* spec/registry payloads (never a
/// valid one — see [`daemon`]).
fn protocol_token() -> impl Strategy<Value = String> {
    proptest::sample::select(vec![
        "{".to_string(),
        "}".to_string(),
        "[".to_string(),
        "]".to_string(),
        ",".to_string(),
        ":".to_string(),
        "\"op\"".to_string(),
        "\"submit_sweep\"".to_string(),
        "\"poll\"".to_string(),
        "\"result\"".to_string(),
        "\"stream\"".to_string(),
        "\"ack\"".to_string(),
        "\"cancel\"".to_string(),
        "\"stats\"".to_string(),
        "\"job\"".to_string(),
        "\"specs\"".to_string(),
        "\"registry\"".to_string(),
        "\"config\"".to_string(),
        "\"budget\"".to_string(),
        "\"fuel\"".to_string(),
        "\"deadline_ms\"".to_string(),
        "\"block_bits\"".to_string(),
        "\"everything\"".to_string(),
        "\"bogus[b=6]\"".to_string(),
        "\"scatter-gather[s=,aligned]\"".to_string(),
        "null".to_string(),
        "true".to_string(),
        "false".to_string(),
        "0".to_string(),
        "7".to_string(),
        "999999".to_string(),
        "-1".to_string(),
        "1e308".to_string(),
        "0.5".to_string(),
        " ".to_string(),
        "\\".to_string(),
        "\"".to_string(),
    ])
}

fn jsonish_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(protocol_token(), 0..24).prop_map(|tokens| tokens.concat())
}

/// Spec-shaped ids: a real (or near-miss) family name with a parameter
/// salad — mostly invalid, occasionally valid-and-cheap. Never an
/// expensive cell: table sizes above the validation caps are rejected
/// before any generator runs, and the in-range fragments are tiny.
fn specish_id() -> impl Strategy<Value = String> {
    let family = proptest::sample::select(vec![
        "square-and-multiply",
        "square-and-always-multiply",
        "unprotected-lookup",
        "secure-retrieve",
        "scatter-gather",
        "defensive-gather",
        "scatter-gather-extra",
        "",
    ]);
    let field = proptest::sample::select(vec![
        "O0",
        "O1",
        "O2",
        "O9",
        "e=0",
        "e=7",
        "e=4000000000",
        "w=0",
        "w=2",
        "w=99",
        "s=0",
        "s=3",
        "s=8",
        "n=0",
        "n=64",
        "p=8",
        "p=9999999",
        "stride=0x0",
        "stride=0x40",
        "stride=64",
        "aligned",
        "unaligned",
        "bank=0",
        "bank=31",
        "page=200",
        "b=6",
        "b=0",
        "b=255",
        "bogus",
        "e=",
        "=7",
        "",
    ]);
    (family, proptest::collection::vec(field, 0..6))
        .prop_map(|(family, fields)| format!("{family}[{}]", fields.join(",")))
}

/// The char-by-char JSON string escaper the serializer once used, kept
/// as the reference its run-copying escaper must agree with.
fn escape_reference(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Characters biased toward what escaping must get right: every control
/// character, quote, backslash, non-ASCII text (multi-byte UTF-8 right
/// next to escapes), and any Unicode scalar value.
fn string_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_filter_map("control character", char::from_u32),
        proptest::sample::select(vec![
            '"', '\\', '/', 'a', ' ', '\u{7f}', 'é', '€', '\u{2028}', '😀'
        ]),
        (0u32..0x11_0000).prop_filter_map("scalar value", char::from_u32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn string_escaping_matches_the_char_by_char_reference(
        chars in proptest::collection::vec(string_char(), 0..40),
    ) {
        let s: String = chars.into_iter().collect();
        let reference = escape_reference(&s);
        let value = Json::str(s.clone());
        let printed = value.to_string();
        prop_assert_eq!(&printed, &reference);
        // Object keys take the same path.
        let object = Json::Obj(vec![(s.clone(), Json::Null)]).to_string();
        prop_assert_eq!(object, format!("{{{reference}:null}}"));
        let back = Json::parse(&printed)
            .map_err(|e| TestCaseError::fail(format!("{printed:?}: {e}")))?;
        prop_assert_eq!(back, value, "escaped text must parse back");
    }

    #[test]
    fn json_parser_never_panics_and_round_trips_what_it_accepts(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(value) = Json::parse(&text) {
            let reprinted = value.to_string();
            let again = Json::parse(&reprinted)
                .map_err(|e| TestCaseError::fail(format!("{reprinted:?}: {e}")))?;
            prop_assert_eq!(again, value, "accepted input must round-trip");
        }
    }

    #[test]
    fn daemon_survives_raw_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        assert_response_contract(&line)?;
    }

    #[test]
    fn daemon_survives_jsonish_token_salad(line in jsonish_line()) {
        assert_response_contract(&line)?;
    }

    #[test]
    fn malformed_specs_and_configs_yield_structured_errors(
        spec in specish_id(),
        job in any::<u64>(),
    ) {
        // Shaped-but-wrong requests: real family names with hostile
        // parameter lists (zero-sized tables, undocumented opt levels,
        // absurd granularities — everything the validation layer must
        // turn into an error, never a builder panic), and job ids far
        // beyond anything submitted.
        let submit = format!(r#"{{"op":"submit_sweep","specs":["{spec}"]}}"#);
        assert_response_contract(&submit)?;
        for op in ["poll", "result", "ack", "cancel", "stream"] {
            assert_response_contract(&format!(r#"{{"op":"{op}","job":{job}}}"#))?;
        }
    }
}

/// The one valid-looking id whose family parses the opt level but whose
/// generator has no such layout: validation must reject it as a
/// structured error (it used to reach the builder and panic the daemon),
/// and the daemon must keep answering afterwards.
#[test]
fn square_always_without_an_o1_layout_is_a_structured_error() {
    let mut lines: Vec<String> = Vec::new();
    daemon().handle_line_into(
        r#"{"op":"submit_sweep","specs":["square-and-always-multiply[O1,b=6]"]}"#,
        &mut |line| lines.push(line.to_string()),
    );
    assert_eq!(lines.len(), 1, "one response line: {lines:?}");
    let response = Json::parse(&lines[0]).expect("valid JSON response");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", lines[0]);
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("-O1")),
        "error names the missing layout: {}",
        lines[0]
    );

    lines.clear();
    daemon().handle_line_into(r#"{"op":"stats"}"#, &mut |line| {
        lines.push(line.to_string())
    });
    let stats = Json::parse(&lines[0]).expect("valid JSON response");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{}", lines[0]);
}
