//! The traced run: the workload's seeded requests replayed in process
//! through each layer's public API, with spans recorded around every
//! call and counters read as deltas of the public getters. Nothing is
//! traced inside the program; every span boundary is a call the
//! benchmark makes.
//!
//! Each request goes through a traced [`Target`] and through its
//! untraced twin; the ratio of their request times is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use leakaudit_analyzer::sink::{EventBus, TraceEvent};
use leakaudit_analyzer::{Analysis, MemoStats, PhaseTotals};
use leakaudit_scenarios::{Scenario, ScenarioSpec};
use leakaudit_service::cache::{decode_row, encode_row};
use leakaudit_service::{AuditProfile, BaseKey, Daemon, Provenance, SweepEngine};

use crate::gen::{submit_line, Workload};
use crate::oracle::Oracle;
use crate::stats::{median, Metrics};

/// One recorded span. Times are offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: usize,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, request: usize) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let at = self.open.pop().expect("exit without enter");
        self.spans[at].end = self.origin.elapsed();
    }

    /// Durations of every span with this name, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// The spans as JSON lines, each with its self time: the duration
    /// minus the time its children cover (children of one span never
    /// overlap — the traced run is a single thread).
    pub fn to_jsonl(&self) -> String {
        let mut child_time: BTreeMap<usize, Duration> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.end - s.start;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own =
                (s.end - s.start).saturating_sub(child_time.get(&i).copied().unwrap_or_default());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"request\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{},\"parent\":{}}}\n",
                s.name,
                s.request,
                s.start.as_micros(),
                s.end.as_micros(),
                own.as_micros(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An event bus that only counts what the interpreter publishes.
#[derive(Default)]
struct CountingBus {
    access: u64,
    fork: u64,
    merge: u64,
}

impl EventBus for CountingBus {
    fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access { .. } => self.access += 1,
            TraceEvent::Fork { .. } => self.fork += 1,
            TraceEvent::Merge { .. } => self.merge += 1,
            _ => {}
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One in-process replay target: daemon `a` takes every request through
/// `Daemon::handle_line` (the daemon and protocol layers), daemon `b`
/// through `SweepEngine::submit_with` on `Daemon::engine()` (the sweep
/// layer alone). Both hold the same cache state at every request.
struct Target {
    a: Daemon,
    b: Daemon,
}

/// What one request's layer calls measured, summed over the requests.
#[derive(Default)]
struct Acc {
    build_us: Vec<f64>,
    key_us: Vec<f64>,
    /// Time in the daemon-path calls (submit + result), in ms.
    daemon_ms: f64,
    bus: CountingBus,
    interpreted: usize,
    interpret_only_ms: f64,
    /// Access events weighted by the class sinks that replay them.
    sink_events: f64,
}

/// Runs `f` inside a span named `name` when there is a tracer.
fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, r: usize, f: impl FnOnce() -> T) -> T {
    if let Some(t) = tr.as_deref_mut() {
        t.enter(name, r);
    }
    let out = f();
    if let Some(t) = tr.as_deref_mut() {
        t.exit();
    }
    out
}

impl Target {
    /// Two fresh daemons, both primed with the workload's priming
    /// request. Returns the target with the daemon path's priming answer.
    fn primed(workload: &Workload, profile: &AuditProfile) -> (Target, String, String) {
        let t = Target {
            a: Daemon::new(SweepEngine::new().with_threads(2)),
            b: Daemon::new(SweepEngine::new().with_threads(2)),
        };
        let submit = t.a.handle_line(&submit_line(&workload.priming));
        let result = t.a.handle_line("{\"op\":\"result\",\"job\":0}");
        t.b.engine().run_with(&workload.priming, profile);
        (t, submit, result)
    }

    /// Request `r` (job `r + 1`) through every layer, with a span around
    /// each layer's calls when `tr` is given. Returns the daemon path's
    /// `submit_sweep` and `result` answers.
    fn request(
        &self,
        r: usize,
        cells: &[ScenarioSpec],
        profile: &AuditProfile,
        acc: &mut Acc,
        mut tr: Option<&mut Tracer>,
    ) -> (String, String) {
        let built: Vec<(ScenarioSpec, Scenario)> = span(&mut tr, "scenarios.build", r, || {
            cells
                .iter()
                .map(|cell| {
                    let id = cell.id();
                    let start = Instant::now();
                    let spec: ScenarioSpec = id.parse().expect("generated ids parse");
                    let scenario = spec.build();
                    acc.build_us.push(start.elapsed().as_secs_f64() * 1e6);
                    (spec, scenario)
                })
                .collect()
        });

        span(&mut tr, "key.derive", r, || {
            for (spec, scenario) in &built {
                let start = Instant::now();
                let key = BaseKey::for_scenario(scenario)
                    .with_config(&profile.configure(spec.analysis_config()));
                acc.key_us.push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(key);
            }
        });

        let line = submit_line(cells);
        let start = Instant::now();
        let submit = span(&mut tr, "daemon.submit", r, || self.a.handle_line(&line));
        let result = span(&mut tr, "daemon.result", r, || {
            self.a
                .handle_line(&format!("{{\"op\":\"result\",\"job\":{}}}", r + 1))
        });
        acc.daemon_ms += ms(start.elapsed());

        let specs: Vec<ScenarioSpec> = built.iter().map(|(s, _)| *s).collect();
        let ticket = span(&mut tr, "sweep.submit", r, || {
            self.b.engine().submit_with(&specs, profile)
        });
        let report = span(&mut tr, "sweep.collect", r, || {
            self.b.engine().collect(ticket)
        });

        span(&mut tr, "analyzer.interpret", r, || {
            for (lead, (cell, (spec, scenario))) in report.cells().iter().zip(&built).enumerate() {
                if cell.provenance != Provenance::Computed {
                    continue;
                }
                let before = acc.bus.access;
                let start = Instant::now();
                // Every analysis of these cells converges (the oracle
                // checks the served rows); an error would show as a
                // failed cell there.
                let _ = Analysis::new(spec.analysis_config()).interpret(scenario, &mut acc.bus);
                acc.interpret_only_ms += ms(start.elapsed());
                acc.interpreted += 1;
                // One class sink per distinct observer offset of the
                // pass's union suite (the lead's and its shared-pass
                // members').
                let mut offsets: Vec<u8> = Vec::new();
                for (member, c) in report.cells().iter().enumerate() {
                    if member == lead || c.provenance == (Provenance::SharedPass { of: lead }) {
                        for s in c.spec.analysis_config().observer_suite() {
                            if !offsets.contains(&s.observer.offset_bits()) {
                                offsets.push(s.observer.offset_bits());
                            }
                        }
                    }
                }
                acc.sink_events += (acc.bus.access - before) as f64 * offsets.len() as f64;
            }
        });
        (submit, result)
    }
}

/// Replays `workload` (its priming and its first `requests` requests)
/// in process, adding the per-layer metrics to `metrics` and every
/// response to `oracle`. Returns the recorded spans.
///
/// Every request also goes, untraced, through a twin target in the same
/// state, alternating which of the two goes first. The tracing overhead
/// is the geometric mean of each request's traced span over its untraced
/// time: whichever twin goes second runs faster (it reuses the heap the
/// first one freed), and alternating cancels that exactly in log space.
pub fn run(
    workload: &Workload,
    requests: usize,
    metrics: &mut Metrics,
    oracle: &mut Oracle,
) -> Tracer {
    let profile = AuditProfile::default();
    let (traced, submit, result) = Target::primed(workload, &profile);
    oracle.record(&workload.priming, &submit, &result, 0);
    let (plain, _, _) = Target::primed(workload, &profile);
    let a = &traced.a;

    let stats0 = a.engine().memory_stats();
    let phases0 = a.engine().phase_totals();
    let memo0 = a.engine().memo_totals();

    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let mut plain_acc = Acc::default();
    let mut plain_ms = Vec::with_capacity(requests);
    let (mut response_bytes, mut encode_us, mut encoded_cells) = (0usize, 0.0, 0usize);
    let (mut computed, mut shared_pass, mut busy_ms) = (0usize, 0usize, 0.0);

    for (r, cells) in workload.requests[..requests].iter().enumerate() {
        let mut untraced = || {
            let start = Instant::now();
            plain.request(r, cells, &profile, &mut plain_acc, None);
            plain_ms.push(ms(start.elapsed()));
        };
        if r % 2 == 1 {
            untraced();
        }
        tr.enter("request", r);
        let (submit, result) = traced.request(r, cells, &profile, &mut acc, Some(&mut tr));
        tr.exit();
        if r % 2 == 0 {
            untraced();
        }
        response_bytes += result.len();

        // Checking and decoding the answer are the benchmark's own work:
        // outside the request span.
        let served = oracle.record(cells, &submit, &result, r as u64 + 1);
        let rows: Vec<Vec<_>> = served
            .iter()
            .map(|c| {
                let raw = c.rows.as_deref().unwrap_or("");
                raw.split_inclusive('}')
                    .filter_map(|row| decode_row(row.trim_start_matches([',', '['])))
                    .collect()
            })
            .collect();
        tr.enter("proto.encode", r);
        for cell_rows in &rows {
            let start = Instant::now();
            for row in cell_rows {
                std::hint::black_box(encode_row(row));
            }
            encode_us += start.elapsed().as_secs_f64() * 1e6;
        }
        tr.exit();
        encoded_cells += rows.len();
        for cell in &served {
            match cell.provenance.as_str() {
                "computed" => {
                    computed += 1;
                    busy_ms += cell.elapsed_ms;
                }
                "shared-pass" => shared_pass += 1,
                _ => {}
            }
        }
    }

    let stats = a.engine().memory_stats();
    let (hits, misses) = (stats.hits - stats0.hits, stats.misses - stats0.misses);
    let phases = delta_phases(a.engine().phase_totals(), phases0);
    let memo = delta_memo(a.engine().memo_totals(), memo0);
    let runs = phases.runs.max(1) as f64;
    let steps = (memo.transfer_hits + memo.transfer_misses + memo.script_steps) as f64;
    let cells_served = encoded_cells.max(1) as f64;

    metrics.add(
        "daemon.submit_ms.p50",
        median(&tr.durations_ms("daemon.submit")),
        "ms",
    );
    metrics.add(
        "daemon.result_ms.p50",
        median(&tr.durations_ms("daemon.result")),
        "ms",
    );
    metrics.add(
        "proto.response_kb",
        response_bytes as f64 / 1024.0 / requests as f64,
        "kB",
    );
    metrics.add("proto.encode_us_per_cell", encode_us / cells_served, "us");
    metrics.add(
        "sweep.submit_ms.p50",
        median(&tr.durations_ms("sweep.submit")),
        "ms",
    );
    metrics.add(
        "sweep.shared_pass_share",
        ratio(shared_pass as f64, (computed + shared_pass) as f64),
        "ratio",
    );
    metrics.add("scenarios.build_us.p50", median(&acc.build_us), "us");
    metrics.add("key.derive_us.p50", median(&acc.key_us), "us");
    metrics.add(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    metrics.add("cache.mb", a.engine().memory_bytes() as f64 / 1e6, "MB");
    metrics.add(
        "executor.busy_share",
        ratio(busy_ms, acc.daemon_ms * 2.0),
        "ratio",
    );
    metrics.add("analyzer.interpret_ms", ms(phases.interpret) / runs, "ms");
    metrics.add("analyzer.replay_ms", ms(phases.replay) / runs, "ms");
    metrics.add("analyzer.count_ms", ms(phases.count) / runs, "ms");
    let interpreted_f = acc.interpreted.max(1) as f64;
    metrics.add(
        "analyzer.interpret_only_ms",
        acc.interpret_only_ms / interpreted_f,
        "ms",
    );
    metrics.add("analyzer.steps", steps / runs, "count");
    metrics.add(
        "events.access",
        acc.bus.access as f64 / interpreted_f,
        "count",
    );
    metrics.add("events.fork", acc.bus.fork as f64 / interpreted_f, "count");
    metrics.add(
        "events.merge",
        acc.bus.merge as f64 / interpreted_f,
        "count",
    );
    metrics.add(
        "memo.transfer_hit_ratio",
        ratio(
            memo.transfer_hits as f64,
            (memo.transfer_hits + memo.transfer_misses) as f64,
        ),
        "ratio",
    );
    metrics.add(
        "memo.script_step_share",
        ratio(memo.script_steps as f64, steps),
        "ratio",
    );
    metrics.add(
        "memo.sink_event_share",
        ratio(memo.sink_script_events as f64, acc.sink_events),
        "ratio",
    );
    let log_ratio: f64 = tr
        .durations_ms("request")
        .iter()
        .zip(&plain_ms)
        .map(|(traced, plain)| (traced / plain).ln())
        .sum::<f64>()
        / requests as f64;
    metrics.add("trace.overhead_share", log_ratio.exp() - 1.0, "ratio");

    tr
}

fn delta_phases(now: PhaseTotals, then: PhaseTotals) -> PhaseTotals {
    PhaseTotals {
        runs: now.runs - then.runs,
        interpret: now.interpret - then.interpret,
        replay: now.replay - then.replay,
        count: now.count - then.count,
    }
}

fn delta_memo(now: MemoStats, then: MemoStats) -> MemoStats {
    MemoStats {
        transfer_hits: now.transfer_hits - then.transfer_hits,
        transfer_misses: now.transfer_misses - then.transfer_misses,
        script_steps: now.script_steps - then.script_steps,
        sink_script_events: now.sink_script_events - then.sink_script_events,
        ..MemoStats::default()
    }
}
