//! `perfbench` — the wall-clock benchmark harness behind the repo's
//! `BENCH_*.json` performance trajectory.
//!
//! Unlike the Criterion benches (statistical, interactive), this binary
//! produces one small machine-readable JSON report: it times every
//! case-study scenario end to end (static analysis only), the
//! `batch_all_8` parallel batch and the sweep service paths, reporting
//! the **median** of N timed iterations after a warmup. A report is one
//! machine's numbers; compare two builds only by interleaving their runs
//! on the same boot, never against a file recorded on another one.
//!
//! ```text
//! perfbench [--quick] [--ab] [--iters N] [--warmup N] [--label STR]
//!           [--out FILE]
//! ```
//!
//! * `--quick`: 1 iteration, no warmup (CI mode — proves the harness
//!   runs).
//! * `--ab`: interleaved memo A/B — each scenario is timed with the
//!   interpreter memo on and off in strict alternation within the same
//!   process, so the on/off ratio (below 1 when the memo is faster) is a
//!   same-boot paired control. Results print per scenario and land in
//!   `ab_memo_ms` when a JSON report is written.
//! * `--out FILE`: write the JSON report. Without it nothing is
//!   written, so a plain run never overwrites a committed record.
//!
//! JSON schema `leakaudit-perfbench/v12`: `label`, `iters`, `warmup`,
//! `threads`, `host_calib_ms` (median wall time of a fixed synthetic
//! integer workload), `scenarios_ms` (name → median ms),
//! `scenario_profiles` (name → that scenario's `AnalysisProfile`, each
//! field the median over the timed iterations; the step counters are
//! deterministic, so their median is every run's value), `profile` (the
//! field-wise sum of `scenario_profiles`), `ab_memo_ms` (with `--ab`:
//! name → `{on, off}` median ms), `total_sequential_ms` (sum of the
//! per-scenario medians), `batch_all_8_ms` (the 8-scenario parallel
//! batch), `sweep_cells` and `sweep_cold_ms` (a cold default sweep
//! through the service, fresh cache each iteration), `sweep_warm_ms`
//! (the same sweep answered from the result cache),
//! `sweep_stolen_warm_ms` (the warm sweep through the daemon's
//! JSON-lines `result` op), `sweep_stream_warm_ms` (the same through the
//! `stream` op), `granularity_cells` and `granularity_group_cold_ms` (a
//! cold sweep of the observer-granularity matrix, where every cell
//! shares a scheduler pass), and `evicting_sweep_ms` (the default sweep
//! against a cache too small to keep any report).

use std::fmt::Write as _;
use std::time::Instant;

use leakaudit_analyzer::{Analysis, AnalysisProfile};
use leakaudit_scenarios::{analyze_all, Registry, Scenario};
use leakaudit_service::{Daemon, Json, SweepEngine};

struct Args {
    iters: usize,
    warmup: usize,
    label: String,
    out: Option<String>,
    ab: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 7,
        warmup: 2,
        label: String::from("perfbench"),
        out: None,
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
            "--help" | "-h" => {
                eprintln!(
                    "usage: perfbench [--quick] [--ab] [--iters N] [--warmup N] \
                     [--label STR] [--out FILE]"
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

/// Each field's median over the given runs' profiles (the upper
/// median for an even count).
fn median_profile(samples: &[AnalysisProfile]) -> AnalysisProfile {
    let mut median = AnalysisProfile::default();
    for (i, (_, value)) in median.fields_mut().enumerate() {
        let mut column: Vec<u64> = samples
            .iter()
            .map(|p| p.fields().nth(i).expect("same fields").1)
            .collect();
        column.sort_unstable();
        *value = column[column.len() / 2];
    }
    median
}

/// Milliseconds of a nanosecond counter, for console lines.
fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
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
    let mut scenario_profiles: Vec<(&str, AnalysisProfile)> = Vec::new();
    let mut total = AnalysisProfile::default();
    for s in &scenarios {
        // The profile of every run, warmup first.
        let mut runs: Vec<AnalysisProfile> = Vec::new();
        let ms = measure(args.iters, args.warmup, || {
            runs.push(s.analyze().expect("analysis converges").profile());
        });
        let profile = median_profile(&runs[args.warmup..]);
        println!("  {:<42} {:>9.2} ms", s.name, ms);
        println!(
            "      phases: interpret {:.2} ms | replay {:.2} ms | count {:.2} ms",
            ns_ms(profile.interpret_ns),
            ns_ms(profile.replay_ns),
            ns_ms(profile.count_ns),
        );
        println!(
            "      memo: {} hits / {} misses",
            profile.transfer_hits, profile.transfer_misses,
        );
        scenario_ms.push((s.name.as_str(), ms));
        scenario_profiles.push((s.name.as_str(), profile));
        total.add(&profile);
    }
    let total_sequential: f64 = scenario_ms.iter().map(|(_, ms)| ms).sum();
    println!(
        "  interp memo: {} transfer hits / {} misses",
        total.transfer_hits, total.transfer_misses,
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
                "    {:<40} on {:>8.2} ms | off {:>8.2} ms | on/off {:.2}x",
                s.name,
                on,
                off,
                on / off
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

    let Some(out_path) = &args.out else {
        println!("(no --out: no JSON written)");
        return;
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"leakaudit-perfbench/v12\",");
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
    let _ = writeln!(json, "  \"scenario_profiles\": {{");
    for (i, (name, profile)) in scenario_profiles.iter().enumerate() {
        let comma = if i + 1 < scenario_profiles.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "    \"{name}\": {}{comma}", profile.to_json());
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"profile\": {},", total.to_json());
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
    let _ = writeln!(json, "  \"evicting_sweep_ms\": {evicting_sweep_ms:.3}");
    json.push_str("}\n");
    std::fs::write(out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}
