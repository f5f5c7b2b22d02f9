//! The audit benchmark: drives a `leakaudit-serve` child over stdio
//! from one single-threaded closed-loop client (each request is a
//! `submit_sweep` followed by a blocking `result`), checks every served
//! verdict outside the timed windows, and prints one JSON result line.
//!
//! ```text
//! auditbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of an in-process traced
//! replay of the same seeded requests. A line with run metadata (sample
//! counts, host calibration, oracle coverage) precedes the result line.

mod gen;
mod host;
mod oracle;
mod serve;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::time::Instant;

use leakaudit_service::Json;

use gen::{submit_line, Kind, Workload};
use host::Calibration;
use oracle::Oracle;
use serve::{peak_rss_mb, proc_stat, Server};
use stats::{median, quantile, Metrics};

struct Args {
    server: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-ups per replay. `setup_s` is the median over the replays of each
/// replay's fastest set-up: the samples spread over the whole run, and
/// as with request latency, the fastest of a few repeats filters the
/// host's contended phases (on a 2-vCPU guest a cold set-up takes
/// ~27 ms quiet and ~40 ms contended).
const SETUPS_PER_REPLAY: usize = 5;

/// Replays of the timed request stream per run, each on a fresh server
/// (so a cold cell is never-seen in every replay).
///
/// The host's co-tenants contend for memory in phases of seconds to
/// minutes that slow whole stretches of a run by up to half, while the
/// fastest of a few repeats of the same work stays steadier. Phases
/// longer than a run still shift all of its replays together; that
/// spread across runs is the host's. Each request is therefore
/// timed once per replay, the replays ~6 s apart, and the latency and
/// throughput metrics use each request's fastest replay; CPU per cell is
/// the least of the replays'.
const REPLAYS: usize = 6;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("auditbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("auditbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The closed loop's outcome against one server.
struct Loop {
    latencies_ms: Vec<f64>,
    cells: usize,
    cpu_ms: f64,
    minor_faults: u64,
    peak_rss_mb: f64,
}

/// Spawns the server `setups` times, each up to the answer of the
/// priming request, and keeps the last one running. Returns it with
/// the set-up times in seconds.
fn set_up(
    args: &Args,
    workload: &Workload,
    setups: usize,
    oracle: &mut Oracle,
) -> std::io::Result<(Server, Vec<f64>)> {
    let line = submit_line(&workload.priming);
    let mut times = Vec::with_capacity(setups);
    for k in 0..setups {
        let start = Instant::now();
        let mut server = Server::spawn(&args.server)?;
        let primed = server.sweep(&line)?;
        times.push(start.elapsed().as_secs_f64());
        if k + 1 < setups {
            server.shutdown()?;
        } else {
            oracle.record(&workload.priming, &primed.submit, &primed.result, 0);
            return Ok((server, times));
        }
    }
    Err(std::io::Error::other("no set-up requested"))
}

/// Sends `requests` in order, one at a time. Each response is checked
/// between requests, outside the timed windows.
fn closed_loop(
    server: &mut Server,
    requests: &[Vec<leakaudit_scenarios::ScenarioSpec>],
    first_job: u64,
    oracle: &mut Oracle,
) -> std::io::Result<Loop> {
    let lines: Vec<String> = requests.iter().map(|r| submit_line(r)).collect();
    let pid = server.pid();
    let before = proc_stat(pid)?;
    let mut latencies_ms = Vec::with_capacity(requests.len());
    for (i, (request, line)) in requests.iter().zip(&lines).enumerate() {
        match server.sweep(line) {
            Ok(ex) => {
                latencies_ms.push(ex.latency.as_secs_f64() * 1e3);
                oracle.record(request, &ex.submit, &ex.result, first_job + i as u64);
            }
            Err(e) => {
                // The server died: every remaining cell is lost, and the
                // run stops measuring.
                for rest in &requests[i..] {
                    oracle.lost(rest, &e.to_string());
                }
                return Err(e);
            }
        }
    }
    let after = proc_stat(pid)?;
    Ok(Loop {
        cells: requests.iter().map(Vec::len).sum(),
        latencies_ms,
        cpu_ms: after.cpu_ms - before.cpu_ms,
        minor_faults: after.minor_faults - before.minor_faults,
        peak_rss_mb: peak_rss_mb(pid)?,
    })
}

fn calibration_json(c: Calibration) -> Json {
    Json::obj([
        ("alu_ms", Json::Num(c.alu_ms)),
        ("chase_ms", Json::Num(c.chase_ms)),
    ])
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let kind = args.kind;
    let count = (kind.rate() * args.seconds as f64).round().max(1.0) as usize;
    let warmup = (count / 20).max(3);
    let host_before = host::calibrate();
    let started = Instant::now();
    let mut oracle = Oracle::new(args.seed);
    let mut metrics = Metrics::default();
    let mut meta: Vec<(&'static str, Json)> = vec![
        ("workload", Json::str(kind.name())),
        ("seed", Json::num(args.seed)),
        ("trace", Json::Bool(args.trace)),
    ];

    if args.trace {
        // A shorter prefix: the traced replay runs every request through
        // four daemons (a traced and an untraced twin of two) plus two
        // standalone interpretations.
        let requests = (count / 12).max(20);
        let workload = Workload::generate(kind, args.seed, requests);
        // The same prefix over stdio first, for the server's own fault
        // counter.
        let (mut server, _) = set_up(args, &workload, 1, &mut oracle).map_err(|e| e.to_string())?;
        let plain = closed_loop(&mut server, &workload.requests, 1, &mut oracle)
            .map_err(|e| e.to_string())?;
        server.shutdown().map_err(|e| e.to_string())?;
        let tracer = traced::run(&workload, requests, &mut metrics, &mut oracle);
        metrics.add(
            "server.minor_faults_per_cell",
            plain.minor_faults as f64 / plain.cells as f64,
            "count",
        );
        let dir =
            Path::new(&std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
                .join("auditbench-spans");
        let path = dir.join(format!("{}-{}.jsonl", kind.name(), args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
            .map_err(|e| format!("writing spans: {e}"))?;
        meta.push(("requests", Json::num(requests as u64)));
        meta.push(("spans", Json::str(path.display().to_string())));
    } else {
        let per_replay = count / REPLAYS;
        let warmup = warmup / REPLAYS;
        let mut workload = Workload::generate(kind, args.seed, per_replay + warmup);
        // Warm up on the draws after the timed ones, so the timed
        // requests are the first draws of the seed.
        workload.requests.rotate_right(warmup);
        let (warm, timed) = workload.requests.split_at(warmup);
        let mut fastest_ms = vec![f64::INFINITY; timed.len()];
        let (mut setups, mut cpu_per_cell, mut rss, mut replay_p50) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut replay = |oracle: &mut Oracle| -> std::io::Result<()> {
            let (mut server, t) = set_up(args, &workload, SETUPS_PER_REPLAY, oracle)?;
            setups.push(t.iter().copied().fold(f64::INFINITY, f64::min));
            closed_loop(&mut server, warm, 1, oracle)?;
            let done = closed_loop(&mut server, timed, 1 + warmup as u64, oracle)?;
            server.shutdown()?;
            for (fastest, &ms) in fastest_ms.iter_mut().zip(&done.latencies_ms) {
                *fastest = fastest.min(ms);
            }
            cpu_per_cell.push(done.cpu_ms / done.cells as f64);
            rss.push(done.peak_rss_mb);
            replay_p50.push(median(&done.latencies_ms));
            Ok(())
        };
        for _ in 0..REPLAYS {
            if let Err(e) = replay(&mut oracle) {
                // Reported through the oracle's lost cells: the result
                // says `correct: false` rather than vanishing.
                eprintln!("auditbench: server failed: {e}");
                break;
            }
        }

        // Requests no replay answered (the server died) have no time.
        fastest_ms.retain(|ms| ms.is_finite());
        let p90 = quantile(&fastest_ms, 0.9);
        let beyond = fastest_ms.iter().filter(|&&l| l > p90).count();
        if beyond < 10 && oracle.is_clean() {
            return Err(format!(
                "only {beyond} samples beyond p90; the workload is too short"
            ));
        }
        let cells = fastest_ms.len() * kind.request_cells();
        let wall_s: f64 = fastest_ms.iter().sum::<f64>() / 1e3;
        metrics.add("setup_s", median(&setups), "s");
        metrics.add("request_ms.p50", median(&fastest_ms), "ms");
        metrics.add("request_ms.p90", p90, "ms");
        metrics.add("cells_per_s", cells as f64 / wall_s.max(1e-9), "1/s");
        metrics.add(
            "cpu_ms_per_cell",
            cpu_per_cell.iter().copied().reduce(f64::min).unwrap_or(0.0),
            "ms",
        );
        metrics.add("peak_rss_mb", median(&rss), "MB");
        let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
        meta.push(("replays", Json::num(REPLAYS as u64)));
        meta.push(("warmup_requests", Json::num(warmup as u64)));
        meta.push(("cells_per_request", Json::num(kind.request_cells() as u64)));
        meta.push(("request_samples", Json::num(fastest_ms.len() as u64)));
        meta.push(("samples_beyond_p90", Json::num(beyond as u64)));
        meta.push(("replay_setup_s", nums(setups)));
        meta.push(("replay_p50_ms", nums(replay_p50)));
        meta.push(("replay_cpu_ms_per_cell", nums(cpu_per_cell)));
    }

    let measured = started.elapsed();
    let verdict = oracle.finish();
    let failed_share = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    meta.push(("failed_share", Json::Num(failed_share)));
    meta.push(("emulated_cells", Json::num(verdict.emulated)));
    meta.push((
        "failures",
        Json::Arr(
            verdict
                .failures
                .iter()
                .map(|f| Json::str(f.clone()))
                .collect(),
        ),
    ));
    meta.push(("measure_s", Json::Num(measured.as_secs_f64())));
    meta.push((
        "oracle_s",
        Json::Num((started.elapsed() - measured).as_secs_f64()),
    ));
    meta.push(("host_before", calibration_json(host_before)));
    meta.push(("host_after", calibration_json(host::calibrate())));

    let result = Json::obj([
        ("correct", Json::Bool(verdict.failed == 0)),
        ("attempted", Json::num(verdict.attempted)),
        ("failed", Json::num(verdict.failed)),
        ("metrics", metrics.to_json()),
    ]);
    Ok(vec![
        Json::obj([("run", Json::obj(meta))]).to_string(),
        result.to_string(),
    ])
}
