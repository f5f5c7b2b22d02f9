//! `perfbench` — the wall-clock benchmark harness behind the repo's
//! `BENCH_*.json` performance trajectory.
//!
//! Unlike the Criterion benches (statistical, interactive), this binary
//! produces one small machine-readable JSON file per PR so successive
//! PRs can be compared on the same machine: it times every case-study
//! scenario end to end (static analysis only) and the `batch_all_8`
//! parallel batch — the production path — reporting the **median** of N
//! timed iterations after a warmup.
//!
//! ```text
//! perfbench [--quick] [--ab] [--iters N] [--warmup N] [--label STR]
//!           [--out FILE] [--baseline FILE]
//! ```
//!
//! * `--quick`: 1 iteration, no warmup (CI mode — proves the harness
//!   runs).
//! * `--ab`: interleaved memo A/B — each scenario is timed with the
//!   interpreter memo on and off in strict alternation within the same
//!   process, so the on/off ratio is a same-boot paired control (the
//!   ROADMAP machine-shift caveat as a flag, not a hand-run ritual).
//!   Results print per scenario and land in `ab_memo_ms` when a JSON
//!   report is written.
//! * `--out FILE`: write the JSON report. Without it nothing is
//!   written, so a plain run never overwrites a committed record.
//! * `--baseline FILE`: embed a previous perfbench report as the
//!   `baseline` field and compute `speedup_vs_baseline`.
//!
//! JSON schema (`leakaudit-perfbench/v11` — v10 without the
//! superblock-script counters (`script_replays`, `script_replays_lone`,
//! `script_replays_forked`, `script_steps`) inside every `interp_memo`
//! object, whose layer is gone; that is its only change. Inherited from
//! v10: v9 without the sink-side script-memo counters (the four `sink_script_*` fields), whose replay
//! layer is gone, and with `scenario_phases_ms` taken as
//! per-phase medians over the timed iterations — the same iterations
//! as `scenarios_ms` — where v9 reported the last timed iteration.
//! Inherited from v9: `replay` inside `speedup_vs_baseline`, the
//! combined replay-phase ratio over the heavy cells (every
//! `secure-retrieve`, `scatter-gather` and `defensive-gather`
//! scenario). Inherited from v8: per-scenario interpreter-memo counter
//! splits (`scenario_interp_memo`: name → hit/miss counters for one
//! analysis of that scenario, where v7 had only run totals) and the
//! optional `ab_memo_ms` section (name → `{on, off}` median
//! ms) when `--ab` is given. Inherited from v7: the interpreter-memo
//! run totals (`interp_memo`: cumulative transfer-memo hit/miss
//! counters over one analysis of every scenario) and,
//! when a v6+ baseline is given, `phase_speedup_vs_baseline` — the
//! per-scenario interpret/replay/count phase ratios, extracted *scoped*
//! to each scenario's own object inside the baseline's
//! `scenario_phases_ms` so identical field names in sibling scenarios
//! or the embedded baseline-of-the-baseline can't bleed in): `label`,
//! `iters`, `warmup`, `threads`, `host_calib_ms` (median wall time of
//! a fixed synthetic integer workload — identical instructions on every
//! PR and build, so reports recorded on different boots can be
//! normalized by this number instead of re-documenting machine shifts),
//! `scenarios_ms` (name → median ms), `scenario_phases_ms` (name →
//! `{interpret, replay, count}`, each the median ms of that phase over
//! the timed iterations: where each scenario's milliseconds went —
//! scheduler fixpoint, sink replay, or Proposition 2 counting),
//! `total_sequential_ms` (sum of per-scenario medians),
//! `batch_all_8_ms` (median wall time of the 8-scenario parallel
//! batch), `sweep_cells` (size of the
//! default registry matrix), `sweep_cold_ms` (median wall time of a
//! cold default sweep through the service, fresh cache each iteration
//! — since v5 the cold sweep shares scheduler passes across
//! granularity variants, so it covers the grouped path),
//! `sweep_warm_ms` (median wall time of the same sweep answered
//! entirely from the result cache), `sweep_stolen_warm_ms` (the warm
//! sweep answered through the daemon's JSON-lines protocol — the
//! work-stealing submit/collect path plus wire encoding, i.e. what a
//! `leakaudit-serve` client pays per warm blocking query),
//! `sweep_stream_warm_ms` (the same warm matrix collected through the
//! `stream` op — per-cell push encoding, the new-client path),
//! `granularity_group_cold_ms` (a cold sweep of the pure
//! observer-granularity matrix — every cell a granularity variant of
//! some other cell, so the interpretation-group planner's best case:
//! one scheduler pass per distinct binary, extra cells riding along as
//! sinks), `evicting_sweep_ms` (the sweep re-run against a
//! capacity-starved evicting cache, so every cell pays eviction
//! bookkeeping plus recomputation — the bounded-memory worst case),
//! `baseline` (a previous report or `null`), and
//! `speedup_vs_baseline` (baseline / current, per shared metric).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use leakaudit_analyzer::{Analysis, MemoStats, PhaseTimings};
use leakaudit_scenarios::{analyze_all, Registry, Scenario};
use leakaudit_service::{Daemon, Json, SweepEngine};

struct Args {
    iters: usize,
    warmup: usize,
    label: String,
    out: Option<String>,
    baseline: Option<String>,
    ab: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 7,
        warmup: 2,
        label: String::from("perfbench"),
        out: None,
        baseline: None,
        ab: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match a.as_str() {
            "--quick" => {
                args.iters = 1;
                args.warmup = 0;
            }
            "--ab" => args.ab = true,
            "--iters" => args.iters = value_of("--iters").parse().expect("--iters: integer"),
            "--warmup" => args.warmup = value_of("--warmup").parse().expect("--warmup: integer"),
            "--label" => args.label = value_of("--label"),
            "--out" => args.out = Some(value_of("--out")),
            "--baseline" => args.baseline = Some(value_of("--baseline")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: perfbench [--quick] [--ab] [--iters N] [--warmup N] \
                     [--label STR] [--out FILE] [--baseline FILE]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    assert!(args.iters >= 1, "--iters must be >= 1");
    args
}

/// Median of timed milliseconds (interpolated for even lengths).
fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e3
}

fn measure(iters: usize, warmup: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    median_ms((0..iters).map(|_| time_ms(&mut f)).collect())
}

/// Pulls a numeric field out of a (flat enough) previous report without a
/// JSON dependency: finds `"key":` at any nesting level *outside* the
/// embedded `baseline` object by scanning the first occurrence.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `field` from the `name`-keyed object inside the named
/// top-level `section` of a previous report. [`extract_number`] is a
/// first-occurrence scan — fine for globally-unique keys, wrong for
/// per-scenario phase fields whose names (`interpret`, `replay`,
/// `count`) repeat in every sibling object *and* in the embedded
/// baseline-of-the-baseline. This narrows the scan to the scenario's
/// own `{...}` before extracting.
fn extract_scoped(json: &str, section: &str, name: &str, field: &str) -> Option<f64> {
    let sec_needle = format!("\"{section}\":");
    let body = &json[json.find(&sec_needle)? + sec_needle.len()..];
    let obj_needle = format!("\"{name}\":");
    let obj = &body[body.find(&obj_needle)? + obj_needle.len()..];
    let open = obj.find('{')?;
    let close = obj[open..].find('}')? + open;
    extract_number(&obj[open..=close], field)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A fixed synthetic calibration workload: 2×10⁷ xorshift64 steps of
/// pure register arithmetic — no allocation, no analyzer code, the same
/// instruction stream on every PR and every build. Its median wall time
/// is recorded as `host_calib_ms` in every report so numbers from
/// different boots can be normalized (`metric / host_calib`) instead of
/// hand-annotating machine shifts in the roadmap.
fn host_calibration_ms() -> f64 {
    fn spin() -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        acc
    }
    median_ms(
        (0..5)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(spin());
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// The combined replay-phase speedup over the *heavy* cells — every
/// `secure-retrieve`, `scatter-gather` and `defensive-gather` scenario,
/// where most of the sink-replay phase lives. `None` when the
/// baseline predates `scenario_phases_ms` (pre-v6) or the current
/// combined replay time is zero.
fn heavy_replay_speedup(base: &str, scenario_phases: &[(&str, PhaseTimings)]) -> Option<f64> {
    let heavy = |name: &str| {
        ["secure-retrieve", "scatter-gather", "defensive-gather"]
            .iter()
            .any(|p| name.starts_with(p))
    };
    let mut now = 0.0;
    let mut then = 0.0;
    for (name, phases) in scenario_phases {
        if !heavy(name) {
            continue;
        }
        now += phase_ms(phases.replay);
        then += extract_scoped(base, "scenario_phases_ms", name, "replay")?;
    }
    (now > 0.0).then(|| then / now)
}

/// Milliseconds of one phase duration, for report fields.
fn phase_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Each phase's median over the given iterations' phase splits, taken
/// phase by phase.
fn median_phases(samples: &[PhaseTimings]) -> PhaseTimings {
    let median = |phase: fn(&PhaseTimings) -> Duration| {
        let ms = median_ms(samples.iter().map(|p| phase_ms(phase(p))).collect());
        Duration::from_secs_f64(ms / 1e3)
    };
    PhaseTimings {
        interpret: median(|p| p.interpret),
        replay: median(|p| p.replay),
        count: median(|p| p.count),
    }
}

fn main() {
    let args = parse_args();
    let scenarios: Vec<Scenario> = leakaudit_scenarios::all();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "perfbench: {} scenarios, {} iters (+{} warmup), {} threads",
        scenarios.len(),
        args.iters,
        args.warmup,
        threads
    );

    let host_calib_ms = host_calibration_ms();
    println!(
        "  {:<42} {:>9.2} ms",
        "host_calib (synthetic)", host_calib_ms
    );

    let mut scenario_ms: Vec<(&str, f64)> = Vec::new();
    let mut scenario_phases: Vec<(&str, PhaseTimings)> = Vec::new();
    let mut scenario_memo: Vec<(&str, MemoStats)> = Vec::new();
    let mut memo_totals = MemoStats::default();
    for s in &scenarios {
        // Phase splits of every run, warmup first; the memo counters are
        // deterministic, so any run's will do.
        let mut runs: Vec<PhaseTimings> = Vec::new();
        let mut memo = MemoStats::default();
        let ms = measure(args.iters, args.warmup, || {
            let report = s.analyze().expect("analysis converges");
            runs.push(report.timings());
            memo = report.memo_stats();
        });
        let phases = median_phases(&runs[args.warmup..]);
        println!("  {:<42} {:>9.2} ms", s.name, ms);
        println!(
            "      phases: interpret {:.2} ms | replay {:.2} ms | count {:.2} ms",
            phase_ms(phases.interpret),
            phase_ms(phases.replay),
            phase_ms(phases.count),
        );
        println!(
            "      memo: {} hits / {} misses",
            memo.transfer_hits, memo.transfer_misses,
        );
        scenario_ms.push((s.name.as_str(), ms));
        scenario_phases.push((s.name.as_str(), phases));
        scenario_memo.push((s.name.as_str(), memo));
        memo_totals.accumulate(&memo);
    }
    let total_sequential: f64 = scenario_ms.iter().map(|(_, ms)| ms).sum();
    println!(
        "  interp memo: {} transfer hits / {} misses",
        memo_totals.transfer_hits, memo_totals.transfer_misses,
    );

    // Interleaved memo A/B: on and off alternate within the same loop,
    // so both sides see the same thermal/frequency environment — the
    // ratio is meaningful even when absolute numbers drift across boots.
    let mut ab_memo: Vec<(&str, f64, f64)> = Vec::new();
    if args.ab {
        println!("  interleaved memo A/B (on vs off):");
        for s in &scenarios {
            let cfg_on = s.analysis_config();
            let mut cfg_off = s.analysis_config();
            cfg_off.interp_memo = false;
            let mut on_samples = Vec::with_capacity(args.iters);
            let mut off_samples = Vec::with_capacity(args.iters);
            for _ in 0..args.warmup {
                Analysis::new(cfg_on.clone()).run(s).expect("ab warmup");
                Analysis::new(cfg_off.clone()).run(s).expect("ab warmup");
            }
            for _ in 0..args.iters {
                on_samples.push(time_ms(|| {
                    Analysis::new(cfg_on.clone()).run(s).expect("ab memo-on");
                }));
                off_samples.push(time_ms(|| {
                    Analysis::new(cfg_off.clone()).run(s).expect("ab memo-off");
                }));
            }
            let on = median_ms(on_samples);
            let off = median_ms(off_samples);
            println!(
                "    {:<40} on {:>8.2} ms | off {:>8.2} ms | off/on {:.2}x",
                s.name,
                on,
                off,
                off / on
            );
            ab_memo.push((s.name.as_str(), on, off));
        }
    }

    let batch_ms = measure(args.iters, args.warmup, || {
        let batch = analyze_all(&scenarios);
        assert_eq!(batch.errors().count(), 0, "batch must converge");
    });
    println!("  {:<42} {:>9.2} ms", "batch_all_8 (parallel)", batch_ms);
    println!(
        "  {:<42} {:>9.2} ms",
        "total (sequential sum)", total_sequential
    );

    // The sweep service: a cold default matrix (fresh cache every
    // iteration) vs the warm re-run answered from the result cache.
    let registry = Registry::default_sweep();
    let sweep_cells = registry.len();
    let sweep_cold_ms = measure(args.iters, args.warmup, || {
        let engine = SweepEngine::new();
        let report = engine.run(&registry);
        assert_eq!(
            report.computed() + report.shared_pass(),
            registry.len(),
            "cold sweep analyzes all — solo or via a shared pass"
        );
    });
    println!(
        "  {:<42} {:>9.2} ms",
        format!("sweep_cold ({sweep_cells} cells)"),
        sweep_cold_ms
    );
    let warm_engine = SweepEngine::new();
    warm_engine.run(&registry);
    let sweep_warm_ms = measure(args.iters, args.warmup, || {
        let report = warm_engine.run(&registry);
        assert_eq!(report.computed(), 0, "warm sweep is pure cache hits");
    });
    println!(
        "  {:<42} {:>9.2} ms",
        format!("sweep_warm ({sweep_cells} cells)"),
        sweep_warm_ms
    );

    // The daemon answer path: the same warm matrix requested through
    // the JSON-lines protocol (submit_sweep + result per iteration) —
    // the executor submit/collect machinery plus wire encoding.
    let daemon = Daemon::new(SweepEngine::new());
    let submit = r#"{"op":"submit_sweep","registry":"default"}"#;
    let mut next_job: u64 = 0;
    let mut daemon_round_trip = || {
        daemon.handle_line(submit);
        let result = daemon.handle_line(&format!("{{\"op\":\"result\",\"job\":{next_job}}}"));
        next_job += 1;
        let parsed = Json::parse(&result).expect("daemon response is JSON");
        parsed
            .get("reused")
            .and_then(Json::as_u64)
            .expect("result carries a reused count")
    };
    daemon_round_trip(); // cold prime
    let sweep_stolen_warm_ms = measure(args.iters, args.warmup, || {
        let reused = daemon_round_trip();
        assert_eq!(
            reused as usize, sweep_cells,
            "warm daemon query is all hits"
        );
    });
    println!(
        "  {:<42} {:>9.2} ms",
        format!("sweep_stolen_warm ({sweep_cells} cells, daemon)"),
        sweep_stolen_warm_ms
    );

    // The streaming answer path: the same warm matrix collected through
    // the `stream` op — per-cell push lines instead of one blocking
    // cells array. Measures the per-line encoding overhead a streaming
    // client pays on a warm cache.
    let mut stream_round_trip = || {
        daemon.handle_line(submit);
        let mut lines = 0usize;
        let mut reused = 0u64;
        daemon.handle_line_into(
            &format!("{{\"op\":\"stream\",\"job\":{next_job}}}"),
            &mut |response| {
                lines += 1;
                if response.contains("\"stream_done\":true") {
                    let parsed = Json::parse(response).expect("summary is JSON");
                    reused = parsed
                        .get("reused")
                        .and_then(Json::as_u64)
                        .expect("summary carries a reused count");
                }
            },
        );
        next_job += 1;
        (lines, reused)
    };
    let sweep_stream_warm_ms = measure(args.iters, args.warmup, || {
        let (lines, reused) = stream_round_trip();
        assert_eq!(lines, sweep_cells + 1, "one line per cell plus summary");
        assert_eq!(reused as usize, sweep_cells, "warm stream is all hits");
    });
    println!(
        "  {:<42} {:>9.2} ms",
        format!("sweep_stream_warm ({sweep_cells} cells, stream)"),
        sweep_stream_warm_ms
    );

    // The interpretation-group best case: the pure observer-granularity
    // matrix cold — every cell shares its binary with another, so the
    // planner folds the whole matrix into one scheduler pass per
    // distinct binary (extra cells ride along as sinks).
    let granularity = Registry::granularity_sweep();
    let granularity_cells = granularity.len();
    let granularity_group_cold_ms = measure(args.iters, args.warmup, || {
        let engine = SweepEngine::new();
        let report = engine.run(&granularity);
        assert_eq!(
            report.computed() + report.shared_pass(),
            granularity.len(),
            "cold granularity sweep analyzes all"
        );
        assert!(
            report.shared_pass() > 0,
            "granularity variants must share scheduler passes"
        );
    });
    println!(
        "  {:<42} {:>9.2} ms",
        format!("granularity_group_cold ({granularity_cells} cells)"),
        granularity_group_cold_ms
    );

    // The bounded-memory worst case: a cache too small to retain any
    // report, so every re-run pays eviction bookkeeping + recomputation.
    let evicting_engine = SweepEngine::new().with_eviction(64);
    evicting_engine.run(&registry); // prime the plan memo like a long-running daemon
    let evicting_sweep_ms = measure(args.iters, args.warmup, || {
        let report = evicting_engine.run(&registry);
        assert_eq!(
            report.computed() + report.shared_pass(),
            sweep_cells,
            "starved cache recomputes"
        );
    });
    assert!(
        evicting_engine.memory_stats().evictions > 0,
        "the starved engine must be evicting"
    );
    println!(
        "  {:<42} {:>9.2} ms",
        format!("evicting_sweep ({sweep_cells} cells, starved)"),
        evicting_sweep_ms
    );

    let baseline_text = args.baseline.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"))
    });
    if let Some(base) = &baseline_text {
        if let Some(base_batch) = extract_number(base, "batch_all_8_ms") {
            println!(
                "  speedup vs baseline: batch_all_8 {:.2}x, sequential {:.2}x",
                base_batch / batch_ms,
                extract_number(base, "total_sequential_ms").unwrap_or(f64::NAN) / total_sequential,
            );
        }
        if let Some(r) = heavy_replay_speedup(base, &scenario_phases) {
            println!("  heavy-cell replay speedup vs baseline: {r:.2}x");
        }
        // Per-phase ratios, scoped to each scenario's own object in the
        // baseline's `scenario_phases_ms` (absent for pre-v6 baselines).
        let ratio = |name: &str, field: &str, current_ms: f64| -> String {
            match extract_scoped(base, "scenario_phases_ms", name, field) {
                Some(b) if current_ms > 0.0 => format!("{:.2}x", b / current_ms),
                _ => "n/a".into(),
            }
        };
        for (name, phases) in &scenario_phases {
            let interpret = ratio(name, "interpret", phase_ms(phases.interpret));
            if interpret == "n/a" {
                continue;
            }
            println!(
                "  phase speedup vs baseline: {name} interpret {interpret} | replay {} | count {}",
                ratio(name, "replay", phase_ms(phases.replay)),
                ratio(name, "count", phase_ms(phases.count)),
            );
        }
    }

    let Some(out_path) = &args.out else {
        println!("(no --out: no JSON written)");
        return;
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"leakaudit-perfbench/v11\",");
    let _ = writeln!(json, "  \"label\": \"{}\",", json_escape(&args.label));
    let _ = writeln!(json, "  \"iters\": {},", args.iters);
    let _ = writeln!(json, "  \"warmup\": {},", args.warmup);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"host_calib_ms\": {host_calib_ms:.3},");
    let _ = writeln!(json, "  \"scenarios_ms\": {{");
    for (i, (name, ms)) in scenario_ms.iter().enumerate() {
        let comma = if i + 1 < scenario_ms.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {ms:.3}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"scenario_phases_ms\": {{");
    for (i, (name, phases)) in scenario_phases.iter().enumerate() {
        let comma = if i + 1 < scenario_phases.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"interpret\": {:.3}, \"replay\": {:.3}, \"count\": {:.3}}}{comma}",
            phase_ms(phases.interpret),
            phase_ms(phases.replay),
            phase_ms(phases.count),
        );
    }
    let _ = writeln!(json, "  }},");
    let memo_obj = |m: &MemoStats| {
        format!(
            "{{\"transfer_hits\": {}, \"transfer_misses\": {}}}",
            m.transfer_hits, m.transfer_misses,
        )
    };
    let _ = writeln!(json, "  \"scenario_interp_memo\": {{");
    for (i, (name, memo)) in scenario_memo.iter().enumerate() {
        let comma = if i + 1 < scenario_memo.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {}{comma}", memo_obj(memo));
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"interp_memo\": {},", memo_obj(&memo_totals));
    if args.ab {
        let _ = writeln!(json, "  \"ab_memo_ms\": {{");
        for (i, (name, on, off)) in ab_memo.iter().enumerate() {
            let comma = if i + 1 < ab_memo.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    \"{name}\": {{\"on\": {on:.3}, \"off\": {off:.3}}}{comma}"
            );
        }
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"total_sequential_ms\": {total_sequential:.3},");
    let _ = writeln!(json, "  \"batch_all_8_ms\": {batch_ms:.3},");
    let _ = writeln!(json, "  \"sweep_cells\": {sweep_cells},");
    let _ = writeln!(json, "  \"sweep_cold_ms\": {sweep_cold_ms:.3},");
    let _ = writeln!(json, "  \"sweep_warm_ms\": {sweep_warm_ms:.3},");
    let _ = writeln!(
        json,
        "  \"sweep_stolen_warm_ms\": {sweep_stolen_warm_ms:.3},"
    );
    let _ = writeln!(
        json,
        "  \"sweep_stream_warm_ms\": {sweep_stream_warm_ms:.3},"
    );
    let _ = writeln!(json, "  \"granularity_cells\": {granularity_cells},");
    let _ = writeln!(
        json,
        "  \"granularity_group_cold_ms\": {granularity_group_cold_ms:.3},"
    );
    let _ = writeln!(json, "  \"evicting_sweep_ms\": {evicting_sweep_ms:.3},");
    match &baseline_text {
        Some(base) => {
            let speedup = |key: &str, current: f64| {
                extract_number(base, key)
                    .map_or_else(|| "null".into(), |b| format!("{:.3}", b / current))
            };
            let speedup_batch = speedup("batch_all_8_ms", batch_ms);
            let speedup_seq = speedup("total_sequential_ms", total_sequential);
            // Sweep metrics exist only in v2+ baselines (and the daemon
            // metrics only in v3+): null against older baselines.
            let speedup_cold = speedup("sweep_cold_ms", sweep_cold_ms);
            let speedup_warm = speedup("sweep_warm_ms", sweep_warm_ms);
            let speedup_stolen = speedup("sweep_stolen_warm_ms", sweep_stolen_warm_ms);
            // Stream metric exists only in v4+ baselines, the
            // granularity-group metric only in v5+: null against older
            // ones.
            let speedup_stream = speedup("sweep_stream_warm_ms", sweep_stream_warm_ms);
            let speedup_group = speedup("granularity_group_cold_ms", granularity_group_cold_ms);
            let speedup_evicting = speedup("evicting_sweep_ms", evicting_sweep_ms);
            // Combined replay phase over the heavy cells.
            let speedup_replay = heavy_replay_speedup(base, &scenario_phases)
                .map_or_else(|| "null".into(), |r| format!("{r:.3}"));
            // Scoped per-scenario phase ratios (null per-field when the
            // baseline predates scenario_phases_ms or a phase is zero).
            let phase_speedup = |name: &str, field: &str, current_ms: f64| {
                extract_scoped(base, "scenario_phases_ms", name, field)
                    .filter(|_| current_ms > 0.0)
                    .map_or_else(|| "null".into(), |b| format!("{:.3}", b / current_ms))
            };
            let _ = writeln!(json, "  \"phase_speedup_vs_baseline\": {{");
            for (i, (name, phases)) in scenario_phases.iter().enumerate() {
                let comma = if i + 1 < scenario_phases.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    json,
                    "    \"{name}\": {{\"interpret\": {}, \"replay\": {}, \"count\": {}}}{comma}",
                    phase_speedup(name, "interpret", phase_ms(phases.interpret)),
                    phase_speedup(name, "replay", phase_ms(phases.replay)),
                    phase_speedup(name, "count", phase_ms(phases.count)),
                );
            }
            let _ = writeln!(json, "  }},");
            let indented = base.trim_end().replace('\n', "\n  ");
            let _ = writeln!(json, "  \"baseline\": {indented},");
            let _ = writeln!(json, "  \"speedup_vs_baseline\": {{");
            let _ = writeln!(json, "    \"batch_all_8\": {speedup_batch},");
            let _ = writeln!(json, "    \"total_sequential\": {speedup_seq},");
            let _ = writeln!(json, "    \"sweep_cold\": {speedup_cold},");
            let _ = writeln!(json, "    \"sweep_warm\": {speedup_warm},");
            let _ = writeln!(json, "    \"sweep_stolen_warm\": {speedup_stolen},");
            let _ = writeln!(json, "    \"sweep_stream_warm\": {speedup_stream},");
            let _ = writeln!(json, "    \"granularity_group_cold\": {speedup_group},");
            let _ = writeln!(json, "    \"evicting_sweep\": {speedup_evicting},");
            let _ = writeln!(json, "    \"replay\": {speedup_replay}");
            let _ = writeln!(json, "  }}");
        }
        None => {
            let _ = writeln!(json, "  \"baseline\": null,");
            let _ = writeln!(json, "  \"speedup_vs_baseline\": null");
        }
    }
    json.push_str("}\n");
    std::fs::write(out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}
