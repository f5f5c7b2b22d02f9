//! Golden wire transcript: one fixed daemon session whose every response
//! line must match `golden/wire_session.txt` byte for byte, with only the
//! wall-clock `elapsed_ms`/`wall_ms` values masked.
//!
//! The session covers every way a cell reaches the wire: a live `result`
//! and its re-serve, a `stream` replayed from a collected job, a live
//! `stream`, a dedup-`shared` cell, a `shared-pass` granularity pair,
//! and a fuel-starved override whose heavy cell comes back as an
//! `error` cell beside a cheap cell that converged. Each line must also
//! survive `Json::parse` →
//! `to_string` unchanged, so the response text is exactly what the
//! generic serializer would print for it.

use leakaudit_scenarios::{FamilyParams, Opt, Registry, ScenarioSpec};
use leakaudit_service::{Daemon, Json, SweepEngine};

const GOLDEN: &str = include_str!("golden/wire_session.txt");

fn submit(specs: &[ScenarioSpec], config: &str) -> String {
    let ids: Vec<String> = specs.iter().map(|s| format!("\"{}\"", s.id())).collect();
    format!(
        "{{\"op\":\"submit_sweep\",\"specs\":[{}]{config}}}",
        ids.join(",")
    )
}

/// The session's requests, in order.
fn requests() -> Vec<String> {
    let always_o2 = |b| ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, b);
    let cheap = ScenarioSpec::new(
        FamilyParams::SquareMultiply {
            stub_stride: 0x10,
            secret_bits: 1,
        },
        6,
    );
    let lookup = ScenarioSpec::new(
        FamilyParams::LookupUnprotected {
            opt: Opt::O2,
            entries: 3,
            stride: 4,
        },
        6,
    );
    let heavy = ScenarioSpec::new(
        FamilyParams::DefensiveGather {
            spacing: 8,
            value_bytes: 384,
        },
        6,
    );
    // The paper registry already holds the b=6 square-and-always cell:
    // its b=5 twin rides along in one shared pass, and a second b=6
    // copy is deduplicated as `shared`.
    let mut job0 = Registry::paper().specs().to_vec();
    job0.extend([cheap, lookup, always_o2(5), always_o2(6)]);
    let job1 = [cheap, heavy];
    vec![
        submit(&job0, ""),
        r#"{"op":"result","job":0}"#.into(),
        r#"{"op":"result","job":0}"#.into(),
        r#"{"op":"stream","job":0}"#.into(),
        r#"{"op":"poll","job":0}"#.into(),
        submit(&job1, r#","config":{"budget":{"fuel":20000}}"#),
        r#"{"op":"stream","job":1}"#.into(),
        r#"{"op":"result","job":1}"#.into(),
        r#"{"op":"poll","job":1}"#.into(),
    ]
}

/// Replaces the number after each `"elapsed_ms":` / `"wall_ms":` with 0.
fn mask_wall_clock(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = ["\"elapsed_ms\":", "\"wall_ms\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| at + key.len()))
            .min();
        let Some(at) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at]);
        out.push('0');
        rest = &rest[at..];
        let end = rest
            .find([',', '}'])
            .expect("a number is followed by , or }");
        rest = &rest[end..];
    }
}

/// Panics with the first byte where `got` and `want` differ, plus a
/// little context (response lines run to tens of kilobytes).
fn assert_same_text(got: &str, want: &str, what: &str) {
    let Some(at) = got.bytes().zip(want.bytes()).position(|(g, w)| g != w) else {
        assert_eq!(
            got.len(),
            want.len(),
            "{what}: one is a prefix of the other"
        );
        return;
    };
    let context = |s: &str| {
        let start = s.floor_char_boundary(at.saturating_sub(60));
        let end = s.ceil_char_boundary((at + 60).min(s.len()));
        s[start..end].to_string()
    };
    panic!(
        "{what} differs at byte {at}:\n   got: …{}…\n  want: …{}…",
        context(got),
        context(want)
    );
}

#[test]
fn wire_session_matches_the_golden_transcript() {
    let daemon = Daemon::new(SweepEngine::new());
    let mut transcript = String::new();
    for request in requests() {
        transcript.push_str(&format!("> {request}\n"));
        daemon.handle_line_into(&request, &mut |line| {
            let reprinted = Json::parse(line)
                .unwrap_or_else(|e| panic!("unparsable response {line:?}: {e}"))
                .to_string();
            assert_same_text(line, &reprinted, "response vs its generic reserialization");
            transcript.push_str(&format!("< {}\n", mask_wall_clock(line)));
        });
    }
    if transcript != GOLDEN {
        // A deliberate wire change copies this file over the golden one.
        let actual = std::env::temp_dir().join("wire_session.actual.txt");
        std::fs::write(&actual, &transcript).expect("the temp dir is writable");
        let what = format!(
            "transcript (written to {}) vs golden/wire_session.txt",
            actual.display()
        );
        assert_same_text(&transcript, GOLDEN, &what);
    }
}
