//! The leakage-audit daemon: a request handler mapping the JSON-lines
//! protocol onto a shared [`SweepEngine`].
//!
//! One [`Daemon`] owns one engine (one result cache, one worker pool)
//! and a table of submitted jobs. Front-ends are thin: the
//! `leakaudit-serve` binary pumps newline-delimited JSON between a
//! stdio/TCP stream and [`Daemon::handle_line`], and `repro sweep` is
//! an in-process client of the very same request strings — every
//! consumer speaks the protocol, so the protocol cannot rot.
//!
//! # Protocol
//!
//! One request object per line; every op except `stream` answers with
//! exactly one response line (`stream` pushes one line per cell plus a
//! summary line):
//!
//! ```text
//! → {"op":"submit_sweep","registry":"default"}
//! ← {"ok":true,"job":0,"cells":45}
//! → {"op":"submit_sweep","specs":["scatter-gather[s=8,n=384,aligned,b=6]"],
//!    "config":{"bank_bits":3,"budget":{"fuel":200000,"deadline_ms":5000}}}
//! ← {"ok":true,"job":1,"cells":1}
//! → {"op":"poll","job":0}
//! ← {"ok":true,"job":0,"state":"running","done":3,"total":45,"cancelled":false}
//! → {"op":"result","job":0}
//! ← {"ok":true,"job":0,"computed":29,"reused":0,"shared_pass":16,"wall_ms":…,"cells":[…]}
//! → {"op":"stream","job":1}
//! ← {"ok":true,"job":1,"cell":0,"id":…,"name":…,"key":…,"provenance":…,"elapsed_ms":…,"rows":[…]}
//! ← {"ok":true,"job":1,"stream_done":true,"cells":1,"computed":…,"reused":…,"shared_pass":…,"wall_ms":…}
//! → {"op":"ack","job":0}
//! ← {"ok":true,"job":0,"acked":true}
//! → {"op":"poll","job":0}
//! ← {"ok":true,"job":0,"state":"expired"}
//! → {"op":"cancel","job":1}
//! ← {"ok":true,"job":1,"cancelled":true}
//! → {"op":"stats"}
//! ← {"ok":true,"cache":{…},…,"jobs":2,"executor":{"workers":…,…},"profile":{…},"ops":{…}}
//! → {"op":"shutdown"}
//! ← {"ok":true,"shutting_down":true}
//! ```
//!
//! Scenario specs travel as their stable id strings
//! (`ScenarioSpec::id`, parsed back via `FromStr`); leakage rows carry
//! exactly the text of the result-cache rows (counts as hex
//! big-numbers, bounds as the shortest number that round-trips, so an
//! integral bound is `"bits":1` on the wire and on disk). Two responses
//! — and the per-cell lines of a `stream` — are bit-comparable as text.
//!
//! `stats` carries `profile`, the field-wise sum of every computed
//! analysis' `AnalysisProfile`, and an `ops` table with, per op, the
//! request count, cumulative handling time (`us`) and response bytes;
//! `result` and `stream` add `wait_us` (blocked on the job's cells) and
//! `render_us` (writing cell text).
//!
//! `submit_sweep` takes an optional `config` override object (the
//! request's [`AuditProfile`]): `block_bits`/`bank_bits`/`page_bits`
//! select the observer-granularity family, `fuel` moves the divergence
//! guard, `budget` (`{"fuel":…,"deadline_ms":…}`) bounds each cell of
//! the job individually, and `interp_memo` (boolean) toggles the
//! interpreter's memo layer (diagnostics only — results are identical
//! either way and cache under the same keys). Other overridden results
//! are cached under distinct keys; any other field is rejected as an
//! `unknown config field`.
//!
//! `result` blocks until the job finishes; `stream` pushes each cell as
//! its analysis lands; `poll` never blocks. A collected job stays
//! re-servable until the client `ack`s it (or it is pruned past the
//! retention bound); requests naming a released job answer with the
//! distinct `expired` state instead of "unknown job". Errors come back
//! as `{"ok":false,"error":"…"}` — the connection stays usable.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use leakaudit_analyzer::Budget;
use leakaudit_scenarios::{Registry, ScenarioSpec};

use crate::proto::{write_escaped, write_num, Json};
use crate::sweep::{AuditProfile, SweepCell, SweepEngine, SweepProbe, SweepReport, SweepTicket};

/// Completed jobs retained for repeated `result` requests. Above this,
/// the oldest collected jobs are pruned (their reports stay in the
/// result cache — only the per-job response bookkeeping goes away), so
/// a long-running daemon's job table stays bounded.
const MAX_RETAINED_JOBS: usize = 64;

/// The ops `stats` reports under `"ops"`, in this order. Request lines
/// naming none of them (malformed JSON, unknown ops) are not counted.
const OPS: [&str; 8] = [
    "submit_sweep",
    "poll",
    "result",
    "stream",
    "ack",
    "cancel",
    "stats",
    "shutdown",
];

/// Daemon-lifetime counters of one op: requests, handling time and
/// response bytes; `result` and `stream` also split out the time spent
/// waiting for the job's cells and rendering them into wire text.
#[derive(Default)]
struct OpCounters {
    count: AtomicU64,
    ns: AtomicU64,
    bytes: AtomicU64,
    wait_ns: AtomicU64,
    render_ns: AtomicU64,
}

impl OpCounters {
    fn to_json(&self, op: &'static str) -> Json {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut fields = vec![
            ("count", Json::num(load(&self.count))),
            ("us", Json::num(load(&self.ns) / 1000)),
            ("bytes", Json::num(load(&self.bytes))),
        ];
        if matches!(op, "result" | "stream") {
            fields.push(("wait_us", Json::num(load(&self.wait_ns) / 1000)));
            fields.push(("render_us", Json::num(load(&self.render_ns) / 1000)));
        }
        Json::obj(fields)
    }
}

fn add_time(counter: &AtomicU64, elapsed: Duration) {
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// One submitted job: still running (ticket) or collected (report).
enum JobState {
    Running(Box<SweepTicket>),
    /// A `result` request is collecting right now (slot lock held by
    /// the collector only briefly around the state switch).
    Collecting,
    Done(Arc<SweepReport>),
}

struct JobSlot {
    state: Mutex<JobState>,
    /// Signalled when `state` becomes `Done`.
    done: Condvar,
    /// Progress view that stays live while a collector holds the
    /// ticket, so `poll` keeps reporting real numbers.
    probe: SweepProbe,
}

/// The daemon: one shared engine plus the submitted-job table.
pub struct Daemon {
    engine: SweepEngine,
    jobs: Mutex<HashMap<u64, Arc<JobSlot>>>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
    /// Per-op counters, indexed like [`OPS`].
    ops: [OpCounters; OPS.len()],
}

impl Daemon {
    /// A daemon over the given engine (caches, eviction, worker count
    /// are the engine's configuration).
    pub fn new(engine: SweepEngine) -> Self {
        Daemon {
            engine,
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            ops: Default::default(),
        }
    }

    /// The underlying engine (stats, cache access).
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// `true` once a `shutdown` request was handled; front-ends stop
    /// reading and exit.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Handles one request line, returning the response text (no
    /// trailing newline). Every op answers one line; a `stream` request
    /// answers several, joined with `'\n'` — transports that can flush
    /// incrementally should prefer [`Daemon::handle_line_into`].
    /// Malformed input yields an `ok:false` response rather than an
    /// error — the stream stays usable.
    pub fn handle_line(&self, line: &str) -> String {
        let mut lines: Vec<String> = Vec::new();
        self.handle_line_into(line, &mut |response| lines.push(response.to_string()));
        lines.join("\n")
    }

    /// Handles one request line, emitting each response line through
    /// `emit` as soon as it exists. For every op except `stream` that
    /// is exactly one call; for `stream` it is one call per cell —
    /// fired the moment the cell's analysis lands — plus a summary
    /// line, which is what lets a client render rows while the sweep is
    /// still running.
    ///
    /// Every line handled here is counted in `stats`' `"ops"` table.
    pub fn handle_line_into(&self, line: &str, emit: &mut dyn FnMut(&str)) {
        let start = Instant::now();
        let mut bytes = 0;
        let mut counted = |response: &str| {
            bytes += response.len();
            emit(response);
        };
        let op = match Json::parse(line.trim()) {
            Ok(request) => {
                self.handle_into(&request, &mut counted);
                request
                    .get("op")
                    .and_then(Json::as_str)
                    .and_then(|op| self.counters(op))
            }
            Err(e) => {
                counted(&error_response(&format!("invalid JSON: {e}")).to_string());
                None
            }
        };
        if let Some(op) = op {
            op.count.fetch_add(1, Ordering::Relaxed);
            add_time(&op.ns, start.elapsed());
            op.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    fn counters(&self, op: &str) -> Option<&OpCounters> {
        OPS.iter().position(|&o| o == op).map(|i| &self.ops[i])
    }

    /// Handles one parsed single-response request (every op except
    /// `stream`, which needs [`Daemon::handle_line_into`]'s emitter and
    /// answers an error here). A `result` response carries its `cells`
    /// as pre-rendered text ([`Json::Raw`]).
    fn handle(&self, request: &Json) -> Json {
        let Some(op) = request.get("op").and_then(Json::as_str) else {
            return error_response("missing \"op\" field");
        };
        match op {
            "submit_sweep" => self.submit_sweep(request),
            "poll" => self.poll_job(request),
            "result" => self.with_job(request, |id, slot| self.result_response(id, &slot)),
            "stream" => error_response("stream requires a streaming transport"),
            "ack" => self.ack_response(request),
            "cancel" => self.with_job(request, |id, slot| {
                if let JobState::Running(ticket) = &*slot.state.lock().expect("job poisoned") {
                    ticket.cancel();
                }
                Ok(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("job", Json::num(id)),
                    ("cancelled", Json::Bool(true)),
                ]))
            }),
            "stats" => self.stats_response(),
            "shutdown" => {
                self.shutdown.store(true, Ordering::Relaxed);
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ])
            }
            other => error_response(&format!("unknown op {other:?}")),
        }
    }

    fn handle_into(&self, request: &Json, emit: &mut dyn FnMut(&str)) {
        if request.get("op").and_then(Json::as_str) == Some("stream") {
            self.stream_response(request, emit);
        } else {
            emit(&self.handle(request).to_string());
        }
    }

    fn submit_sweep(&self, request: &Json) -> Json {
        let specs: Vec<ScenarioSpec> = match (request.get("registry"), request.get("specs")) {
            (Some(Json::Str(name)), None) => match name.as_str() {
                "default" => Registry::default_sweep().specs().to_vec(),
                "paper" => Registry::paper().specs().to_vec(),
                other => {
                    return error_response(&format!(
                        "unknown registry {other:?} (expected \"default\" or \"paper\")"
                    ))
                }
            },
            (None, Some(Json::Arr(ids))) => {
                let mut specs = Vec::with_capacity(ids.len());
                for id in ids {
                    let Some(text) = id.as_str() else {
                        return error_response("\"specs\" must be an array of id strings");
                    };
                    match text.parse::<ScenarioSpec>() {
                        Ok(spec) => specs.push(spec),
                        Err(e) => return error_response(&e.to_string()),
                    }
                }
                specs
            }
            _ => {
                return error_response(
                    "submit_sweep needs exactly one of \"registry\" or \"specs\"",
                )
            }
        };
        if specs.is_empty() {
            return error_response("empty sweep");
        }
        let profile = match request.get("config") {
            None => AuditProfile::default(),
            Some(config) => match parse_profile(config) {
                Ok(profile) => profile,
                Err(e) => return error_response(&e),
            },
        };
        let cells = specs.len();
        let ticket = self.engine.submit_with(&specs, &profile);
        // Allocate the id and insert its slot under one jobs-lock
        // critical section: a concurrent request that observes the
        // bumped counter must also observe the slot, or it would
        // misread a just-submitted job as expired.
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        jobs.insert(
            id,
            Arc::new(JobSlot {
                probe: ticket.probe(),
                state: Mutex::new(JobState::Running(Box::new(ticket))),
                done: Condvar::new(),
            }),
        );
        prune_collected_jobs(&mut jobs);
        drop(jobs);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("job", Json::num(id)),
            ("cells", Json::num(cells as u64)),
        ])
    }

    /// Looks a job slot up. `Err(true)` means the id was issued but its
    /// slot has been released (acked or pruned — "expired");
    /// `Err(false)` means the id was never issued. The issued-id
    /// counter is read under the table lock, and `submit_sweep`
    /// allocates + inserts under the same lock, so a concurrent
    /// submission can never make a live job read as expired.
    fn lookup(&self, id: u64) -> Result<Arc<JobSlot>, bool> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        match jobs.get(&id) {
            Some(slot) => Ok(Arc::clone(slot)),
            None => Err(id < self.next_job.load(Ordering::Relaxed)),
        }
    }

    /// `poll` with the client-visible expiry state: a job id that was
    /// handed out but whose slot has been released (acked, or pruned
    /// past the retention bound) answers `state:"expired"` — a client
    /// driving a progress bar can tell "you waited too long" apart from
    /// "no such job ever existed".
    fn poll_job(&self, request: &Json) -> Json {
        let Some(id) = request.get("job").and_then(Json::as_u64) else {
            return error_response("missing or invalid \"job\" field");
        };
        match self.lookup(id) {
            Ok(slot) => poll_response(id, &slot),
            Err(true) => Json::obj([
                ("ok", Json::Bool(true)),
                ("job", Json::num(id)),
                ("state", Json::str("expired")),
            ]),
            Err(false) => error_response(&format!("unknown job {id}")),
        }
    }

    fn with_job(
        &self,
        request: &Json,
        f: impl FnOnce(u64, Arc<JobSlot>) -> Result<Json, String>,
    ) -> Json {
        let Some(id) = request.get("job").and_then(Json::as_u64) else {
            return error_response("missing or invalid \"job\" field");
        };
        match self.lookup(id) {
            Ok(slot) => f(id, slot).unwrap_or_else(|e| error_response(&e)),
            Err(true) => expired_response(id),
            Err(false) => error_response(&format!("unknown job {id}")),
        }
    }

    /// `ack`: the client has durably consumed the job's results, so the
    /// daemon releases its slot (the reports stay in the result cache —
    /// only the per-job bookkeeping goes away). Acking makes expiry
    /// *client-driven*: a polite client never relies on the pruning
    /// bound. Running jobs cannot be acked (cancel them instead).
    fn ack_response(&self, request: &Json) -> Json {
        let Some(id) = request.get("job").and_then(Json::as_u64) else {
            return error_response("missing or invalid \"job\" field");
        };
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let Some(slot) = jobs.get(&id) else {
            let expired = id < self.next_job.load(Ordering::Relaxed);
            drop(jobs);
            return if expired {
                expired_response(id)
            } else {
                error_response(&format!("unknown job {id}"))
            };
        };
        // A blocking lock: a concurrent `result` holds the state mutex
        // only briefly (rendering happens outside it for the live path,
        // and Done re-serving merely clones an Arc), and no path takes
        // the jobs lock while holding a state lock, so jobs → state is
        // a safe order. `try_lock` here would spuriously refuse acks
        // raced by another client's re-read of the same job.
        let collected = matches!(
            &*slot.state.lock().expect("job poisoned"),
            JobState::Done(_)
        );
        if !collected {
            // Note: cancellation alone does not collect a job — the
            // cells (some resolving as cancelled errors) still have to
            // be fetched once before the slot can be released.
            return error_response(&format!(
                "job {id} is not collected; fetch its result (even if cancelled) before acking"
            ));
        }
        jobs.remove(&id);
        drop(jobs);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("job", Json::num(id)),
            ("acked", Json::Bool(true)),
        ])
    }

    /// Collects (waiting if needed) and renders a job's report. The
    /// report is kept, so repeated `result` requests re-serve it.
    fn result_response(&self, id: u64, slot: &JobSlot) -> Result<Json, String> {
        let ops = self.counters("result").expect("result is a counted op");
        let render = |report: &SweepReport| {
            let start = Instant::now();
            let response = result_json(id, report);
            add_time(&ops.render_ns, start.elapsed());
            response
        };
        let taken = {
            let mut state = slot.state.lock().expect("job poisoned");
            match &*state {
                JobState::Done(report) => return Ok(render(report)),
                JobState::Collecting => None,
                JobState::Running(_) => {
                    match std::mem::replace(&mut *state, JobState::Collecting) {
                        JobState::Running(ticket) => Some(ticket),
                        _ => unreachable!("state matched Running above"),
                    }
                }
            }
        };
        match taken {
            Some(ticket) => {
                // Wait outside the slot lock so `poll` stays responsive.
                let start = Instant::now();
                let report = Arc::new(self.engine.collect(*ticket));
                add_time(&ops.wait_ns, start.elapsed());
                *slot.state.lock().expect("job poisoned") = JobState::Done(Arc::clone(&report));
                slot.done.notify_all();
                Ok(render(&report))
            }
            // Another client is collecting; park on the slot's condvar
            // until it stores the report (the collect itself happens
            // exactly once).
            None => {
                let start = Instant::now();
                let mut state = slot.state.lock().expect("job poisoned");
                loop {
                    if let JobState::Done(report) = &*state {
                        add_time(&ops.wait_ns, start.elapsed());
                        return Ok(render(report));
                    }
                    state = slot.done.wait(state).expect("job poisoned");
                }
            }
        }
    }

    /// `stream`: pushes one line per cell — in submission order, each
    /// the moment its result exists — then a summary line. The per-cell
    /// payload is exactly the object `result` would put in its `cells`
    /// array (plus the `job`/`cell` envelope), so streamed rows are
    /// textually bit-identical to blocked ones.
    fn stream_response(&self, request: &Json, emit: &mut dyn FnMut(&str)) {
        let Some(id) = request.get("job").and_then(Json::as_u64) else {
            emit(&error_response("missing or invalid \"job\" field").to_string());
            return;
        };
        let slot = match self.lookup(id) {
            Ok(slot) => slot,
            Err(expired) => {
                let response = if expired {
                    expired_response(id)
                } else {
                    error_response(&format!("unknown job {id}"))
                };
                emit(&response.to_string());
                return;
            }
        };

        let ops = self.counters("stream").expect("stream is a counted op");
        let emit_cell = |emit: &mut dyn FnMut(&str), index: usize, cell: &SweepCell| {
            let start = Instant::now();
            let mut line = String::new();
            let head = format!("\"ok\":true,\"job\":{id},\"cell\":{index},");
            write_cell(&mut line, &head, cell).expect("writing to a String cannot fail");
            add_time(&ops.render_ns, start.elapsed());
            emit(&line);
        };
        let emit_summary = |emit: &mut dyn FnMut(&str), report: &SweepReport| {
            emit(
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("job", Json::num(id)),
                    ("stream_done", Json::Bool(true)),
                    ("cells", Json::num(report.cells().len() as u64)),
                    ("computed", Json::num(report.computed() as u64)),
                    ("reused", Json::num(report.reused() as u64)),
                    ("shared_pass", Json::num(report.shared_pass() as u64)),
                    ("wall_ms", Json::Num(report.wall_time().as_secs_f64() * 1e3)),
                ])
                .to_string(),
            );
        };
        let replay = |emit: &mut dyn FnMut(&str), report: &SweepReport| {
            for (index, cell) in report.cells().iter().enumerate() {
                emit_cell(emit, index, cell);
            }
            emit_summary(emit, report);
        };

        let taken = {
            let mut state = slot.state.lock().expect("job poisoned");
            match &*state {
                JobState::Done(report) => {
                    // Already collected: replay the stored cells (still
                    // line by line, just no longer incremental).
                    let report = Arc::clone(report);
                    drop(state);
                    replay(emit, &report);
                    return;
                }
                JobState::Collecting => None,
                JobState::Running(_) => {
                    match std::mem::replace(&mut *state, JobState::Collecting) {
                        JobState::Running(ticket) => Some(ticket),
                        _ => unreachable!("state matched Running above"),
                    }
                }
            }
        };
        match taken {
            Some(ticket) => {
                // The live path: this request owns the collection and
                // pushes each cell as the engine hands it over. Time
                // spent in the callback is rendering and transport, not
                // waiting.
                let start = Instant::now();
                let mut in_callback = Duration::ZERO;
                let report = Arc::new(self.engine.collect_stream(*ticket, &mut |index, cell| {
                    let at = Instant::now();
                    emit_cell(emit, index, cell);
                    in_callback += at.elapsed();
                }));
                add_time(&ops.wait_ns, start.elapsed().saturating_sub(in_callback));
                *slot.state.lock().expect("job poisoned") = JobState::Done(Arc::clone(&report));
                slot.done.notify_all();
                emit_summary(emit, &report);
            }
            None => {
                // Another client is collecting; park until the report
                // lands, then replay it.
                let start = Instant::now();
                let mut state = slot.state.lock().expect("job poisoned");
                loop {
                    if let JobState::Done(report) = &*state {
                        add_time(&ops.wait_ns, start.elapsed());
                        let report = Arc::clone(report);
                        drop(state);
                        replay(emit, &report);
                        return;
                    }
                    state = slot.done.wait(state).expect("job poisoned");
                }
            }
        }
    }

    fn stats_response(&self) -> Json {
        let stats = self.engine.memory_stats();
        Json::obj([
            ("ok", Json::Bool(true)),
            (
                "cache",
                Json::obj([
                    ("entries", Json::num(self.engine.cached_reports() as u64)),
                    ("bytes", Json::num(self.engine.memory_bytes())),
                    ("hits", Json::num(stats.hits)),
                    ("misses", Json::num(stats.misses)),
                    ("evictions", Json::num(stats.evictions)),
                ]),
            ),
            ("disk_entries", Json::num(self.engine.disk_entries() as u64)),
            (
                "jobs",
                Json::num(self.jobs.lock().expect("job table poisoned").len() as u64),
            ),
            (
                "executor",
                Json::obj([
                    ("workers", Json::num(self.engine.workers() as u64)),
                    ("pending", Json::num(self.engine.pending_jobs() as u64)),
                    ("in_flight", Json::num(self.engine.in_flight_jobs() as u64)),
                ]),
            ),
            (
                // Daemon-lifetime sum of every computed analysis'
                // profile (the shared `AnalysisProfile` writer). Cache
                // hits and shared-pass views run no pipeline and add
                // nothing, so warm daemons show flat counters.
                "profile",
                Json::Raw(self.engine.profile().to_json()),
            ),
            (
                // Daemon-lifetime per-op counters (see `OpCounters`).
                "ops",
                Json::Obj(
                    OPS.iter()
                        .zip(&self.ops)
                        .map(|(&op, counters)| (op.to_string(), counters.to_json(op)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Parses a `submit_sweep` request's `config` override object into an
/// [`AuditProfile`]. Unknown fields are rejected (a typo must not
/// silently run an un-overridden sweep).
fn parse_profile(config: &Json) -> Result<AuditProfile, String> {
    let Json::Obj(fields) = config else {
        return Err("\"config\" must be an object".to_string());
    };
    let mut profile = AuditProfile::default();
    for (key, value) in fields {
        match key.as_str() {
            "block_bits" | "bank_bits" | "page_bits" => {
                let bits = value
                    .as_u64()
                    .filter(|&b| (1..=30).contains(&b))
                    .ok_or_else(|| format!("\"{key}\" must be an integer in 1..=30"))?;
                let bits = Some(bits as u8);
                match key.as_str() {
                    "block_bits" => profile.block_bits = bits,
                    "bank_bits" => profile.bank_bits = bits,
                    _ => profile.page_bits = bits,
                }
            }
            "fuel" => {
                profile.fuel = Some(
                    value
                        .as_u64()
                        .filter(|&f| f > 0)
                        .ok_or("\"fuel\" must be a positive integer")?,
                );
            }
            "budget" => {
                let Json::Obj(budget_fields) = value else {
                    return Err("\"budget\" must be an object".to_string());
                };
                let mut budget = Budget::UNLIMITED;
                for (bkey, bvalue) in budget_fields {
                    match bkey.as_str() {
                        "fuel" => {
                            budget.fuel = Some(
                                bvalue
                                    .as_u64()
                                    .ok_or("\"budget.fuel\" must be a non-negative integer")?,
                            );
                        }
                        "deadline_ms" => {
                            budget.deadline_ms =
                                Some(bvalue.as_u64().ok_or(
                                    "\"budget.deadline_ms\" must be a non-negative integer",
                                )?);
                        }
                        other => return Err(format!("unknown budget field {other:?}")),
                    }
                }
                profile.budget = budget;
            }
            "interp_memo" => {
                profile.interp_memo = Some(match value {
                    Json::Bool(b) => *b,
                    _ => return Err("\"interp_memo\" must be a boolean".into()),
                });
            }
            other => return Err(format!("unknown config field {other:?}")),
        }
    }
    Ok(profile)
}

fn error_response(message: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))])
}

/// The distinct released-job response for result-bearing ops: `ok:false`
/// (there is nothing to serve) but flagged `expired:true` so clients can
/// tell retention expiry from a bogus id.
fn expired_response(id: u64) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("job", Json::num(id)),
        ("expired", Json::Bool(true)),
        ("error", Json::str(format!("job {id} expired"))),
    ])
}

/// Drops the oldest `Done` jobs above [`MAX_RETAINED_JOBS`]. Running
/// and currently-collecting jobs are never pruned; their ids are merely
/// counted against the bound.
fn prune_collected_jobs(jobs: &mut HashMap<u64, Arc<JobSlot>>) {
    if jobs.len() <= MAX_RETAINED_JOBS {
        return;
    }
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        if jobs.len() <= MAX_RETAINED_JOBS {
            break;
        }
        let done = jobs[&id]
            .state
            .try_lock()
            .is_ok_and(|state| matches!(&*state, JobState::Done(_)));
        if done {
            jobs.remove(&id);
        }
    }
}

fn poll_response(id: u64, slot: &JobSlot) -> Json {
    // The probe reads the executor's counters directly, so progress
    // stays truthful even while a `result` request holds the ticket
    // (`Collecting`) — a progress bar never regresses to 0/0.
    let (state, done, total, cancelled) = match &*slot.state.lock().expect("job poisoned") {
        JobState::Running(_) | JobState::Collecting => {
            let p = slot.probe.progress();
            let state = if p.is_complete() { "done" } else { "running" };
            (state, p.done, p.total, p.cancelled)
        }
        JobState::Done(report) => ("done", report.cells().len(), report.cells().len(), false),
    };
    Json::obj([
        ("ok", Json::Bool(true)),
        ("job", Json::num(id)),
        ("state", Json::str(state)),
        ("done", Json::num(done as u64)),
        ("total", Json::num(total as u64)),
        ("cancelled", Json::Bool(cancelled)),
    ])
}

/// Appends one cell's wire object to `out` in one pass: `{`, then
/// `head` (the `stream` envelope fields, or nothing inside `result`'s
/// `cells` array), then the cell's fields, with rows written straight
/// from each [`LeakRow`](leakaudit_analyzer::LeakRow). `result` and
/// `stream` share it, so a streamed cell carries exactly the text of
/// its `result` entry.
fn write_cell(out: &mut String, head: &str, cell: &SweepCell) -> fmt::Result {
    out.push('{');
    out.push_str(head);
    out.push_str("\"id\":");
    write_escaped(out, &cell.spec.id())?;
    out.push_str(",\"name\":");
    write_escaped(out, &cell.name)?;
    out.push_str(",\"key\":\"");
    cell.key.write_hex(out);
    out.push_str("\",\"provenance\":");
    write_escaped(out, cell.provenance.tag())?;
    out.push_str(",\"elapsed_ms\":");
    write_num(out, cell.elapsed.as_secs_f64() * 1e3)?;
    match &cell.result {
        Ok(leak) => {
            out.push_str(",\"rows\":[");
            for (i, row) in leak.rows().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                crate::cache::write_wire_row(out, row)?;
            }
            out.push(']');
        }
        Err(e) => {
            out.push_str(",\"error\":");
            write_escaped(out, &e.to_string())?;
        }
    }
    out.push('}');
    Ok(())
}

fn result_json(id: u64, report: &SweepReport) -> Json {
    let mut cells = String::from("[");
    for (i, cell) in report.cells().iter().enumerate() {
        if i > 0 {
            cells.push(',');
        }
        write_cell(&mut cells, "", cell).expect("writing to a String cannot fail");
    }
    cells.push(']');
    Json::obj([
        ("ok", Json::Bool(true)),
        ("job", Json::num(id)),
        ("computed", Json::num(report.computed() as u64)),
        ("reused", Json::num(report.reused() as u64)),
        ("shared_pass", Json::num(report.shared_pass() as u64)),
        ("wall_ms", Json::Num(report.wall_time().as_secs_f64() * 1e3)),
        ("cells", Json::Raw(cells)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon() -> Daemon {
        Daemon::new(SweepEngine::new())
    }

    #[test]
    fn malformed_requests_yield_structured_errors() {
        let d = daemon();
        for bad in [
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"submit_sweep"}"#,
            r#"{"op":"submit_sweep","registry":"everything"}"#,
            r#"{"op":"submit_sweep","specs":["bogus[b=6]"]}"#,
            r#"{"op":"submit_sweep","specs":[]}"#,
            r#"{"op":"poll"}"#,
            r#"{"op":"result","job":999}"#,
        ] {
            let response = Json::parse(&d.handle_line(bad)).expect("responses are JSON");
            assert_eq!(
                response.get("ok"),
                Some(&Json::Bool(false)),
                "{bad} must fail"
            );
            assert!(response.get("error").is_some());
        }
        assert!(!d.is_shutdown());
    }

    #[test]
    fn submit_poll_result_round_trip() {
        let d = daemon();
        let submitted = Json::parse(&d.handle_line(
            r#"{"op":"submit_sweep","specs":["square-and-always-multiply[O2,b=6]","square-and-always-multiply[O2,b=6]"]}"#,
        ))
        .unwrap();
        assert_eq!(submitted.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(submitted.get("job").and_then(Json::as_u64), Some(0));
        assert_eq!(submitted.get("cells").and_then(Json::as_u64), Some(2));

        let result = Json::parse(&d.handle_line(r#"{"op":"result","job":0}"#)).unwrap();
        assert_eq!(result.get("computed").and_then(Json::as_u64), Some(1));
        assert_eq!(result.get("reused").and_then(Json::as_u64), Some(1));
        let cells = result.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0].get("provenance").and_then(Json::as_str),
            Some("computed")
        );
        assert_eq!(
            cells[1].get("provenance").and_then(Json::as_str),
            Some("shared")
        );
        assert!(cells[0].get("rows").and_then(Json::as_arr).is_some());

        // Polling after collection reports done; a repeated result
        // re-serves the same cells.
        let poll = Json::parse(&d.handle_line(r#"{"op":"poll","job":0}"#)).unwrap();
        assert_eq!(poll.get("state").and_then(Json::as_str), Some("done"));
        let again = Json::parse(&d.handle_line(r#"{"op":"result","job":0}"#)).unwrap();
        assert_eq!(again.get("cells"), result.get("cells"));
    }

    #[test]
    fn collected_jobs_are_pruned_beyond_the_retention_bound() {
        let d = daemon();
        let total = MAX_RETAINED_JOBS + 6;
        for i in 0..total {
            let submitted = Json::parse(&d.handle_line(
                r#"{"op":"submit_sweep","specs":["square-and-always-multiply[O2,b=6]"]}"#,
            ))
            .unwrap();
            assert_eq!(
                submitted.get("job").and_then(Json::as_u64),
                Some(i as u64),
                "job ids stay sequential"
            );
            let result =
                Json::parse(&d.handle_line(&format!("{{\"op\":\"result\",\"job\":{i}}}"))).unwrap();
            assert_eq!(result.get("ok"), Some(&Json::Bool(true)));
        }
        let stats = Json::parse(&d.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(
            stats.get("jobs").and_then(Json::as_u64),
            Some(MAX_RETAINED_JOBS as u64),
            "the job table stays bounded"
        );
        // The oldest collected jobs are gone; recent ones still serve.
        let expired = Json::parse(&d.handle_line(r#"{"op":"result","job":0}"#)).unwrap();
        assert_eq!(expired.get("ok"), Some(&Json::Bool(false)));
        let recent =
            Json::parse(&d.handle_line(&format!("{{\"op\":\"result\",\"job\":{}}}", total - 1)))
                .unwrap();
        assert_eq!(recent.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn stats_and_shutdown() {
        let d = daemon();
        // defensive-gather revisits its gather loop with recurring input
        // identities, so the interpreter-memo counters below are
        // guaranteed to move (square-and-multiply runs are too short
        // and counter-dependent to hit the memo).
        d.handle_line(r#"{"op":"submit_sweep","specs":["defensive-gather[s=8,n=384,b=6]"]}"#);
        d.handle_line(r#"{"op":"result","job":0}"#);
        let stats = Json::parse(&d.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("jobs").and_then(Json::as_u64), Some(1));
        // The worker count lives under `executor` only.
        let workers = stats.get("executor").and_then(|e| e.get("workers"));
        assert!(workers.and_then(Json::as_u64).is_some_and(|n| n > 0));
        assert_eq!(stats.get("workers"), None, "no top-level duplicate");

        // The profile: the computed sweep ran the pipeline once, so
        // some phase is nonzero; the gather loop revisits its body with
        // recurring inputs, so the transfer memo must have hit.
        let profile = stats.get("profile").unwrap();
        let field = |k: &str| profile.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(field("runs"), 1);
        let phase_ns: u64 = ["interpret_ns", "replay_ns", "count_ns"]
            .iter()
            .map(|k| field(k))
            .sum();
        assert!(phase_ns > 0, "computed cell leaves nonzero phase time");
        assert!(
            field("transfer_hits") > 0,
            "loop bodies must hit the transfer memo"
        );
        assert!(field("transfer_misses") > 0, "first visits always miss");

        // Per-op counters: one line of each op so far, the result split
        // into waiting and rendering within its total.
        let ops = stats.get("ops").unwrap();
        let op = |name: &str, field: &str| {
            ops.get(name)
                .and_then(|o| o.get(field))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(op("submit_sweep", "count"), 1);
        assert_eq!(op("result", "count"), 1);
        assert_eq!(op("stream", "count"), 0);
        assert_eq!(op("stats", "count"), 0, "counted after it answers");
        assert!(op("result", "bytes") > 0);
        assert!(op("result", "render_us") + op("result", "wait_us") <= op("result", "us"));
        assert!(ops.get("poll").unwrap().get("render_us").is_none());

        assert!(!d.is_shutdown());
        let bye = Json::parse(&d.handle_line(r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(bye.get("shutting_down"), Some(&Json::Bool(true)));
        assert!(d.is_shutdown());
    }
}
