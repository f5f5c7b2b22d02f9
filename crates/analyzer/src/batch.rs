//! Batch analysis: many targets, analyzed in parallel on one persistent
//! worker pool, with structured per-target results.
//!
//! The paper's evaluation (§8) runs the analyzer over eight
//! countermeasure binaries, each against the full observer hierarchy of
//! §3.2. Those runs are completely independent — separate programs,
//! separate initial states, separate symbol tables — so a service that
//! answers many analysis requests should never serialize them.
//! [`Executor`] is the one runner: the paper tables
//! (`scenarios::analyze_all`), the sweep engine and the daemon all
//! submit [`OwnedJob`]s to it and collect one [`BatchOutcome`] per job
//! (report or error, plus wall-clock timing) through a [`BatchTicket`].
//!
//! Parallelism lives at this level: across jobs, workers pull from a
//! shared queue. Within one job, the engine's single
//! abstract-interpretation pass feeds every observer sink of the suite,
//! and decoded instructions are shared across all configurations of the
//! run. The one exception is a spare core: a worker that pops the last
//! queued job while another worker has no job lets that job's trace
//! replay run on a helper thread, overlapping its interpretation (see
//! [`crate::sink::run_pipeline`]). While jobs queue, every worker
//! replays on its own thread. Each job still computes exactly the
//! Theorem 1 bounds a sequential [`Analysis::run`] would: the
//! batch-consistency integration suite asserts the reports are
//! bit-identical on both paths.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::{Analysis, AnalysisConfig, AnalysisError, AnalysisProfile, AnalysisTarget, LeakReport};

/// The result of one batch job.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The job's label.
    pub name: String,
    /// The leakage report, or the analyzer error for this target.
    pub result: Result<LeakReport, AnalysisError>,
    /// Wall-clock time this job took (analysis only, excluding queueing).
    pub elapsed: Duration,
}

/// The results of a whole batch, in job-submission order.
#[derive(Debug)]
pub struct BatchReport {
    outcomes: Vec<BatchOutcome>,
    wall: Duration,
}

impl BatchReport {
    /// Per-job outcomes, in submission order.
    pub fn outcomes(&self) -> &[BatchOutcome] {
        &self.outcomes
    }

    /// Wall-clock time for the whole batch (with parallelism this is
    /// far less than the sum of the per-job times).
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// The outcome with the given name, if any.
    pub fn get(&self, name: &str) -> Option<&BatchOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// Successful `(name, report)` pairs, in submission order.
    pub fn reports(&self) -> impl Iterator<Item = (&str, &LeakReport)> {
        self.outcomes
            .iter()
            .filter_map(|o| Some((o.name.as_str(), o.result.as_ref().ok()?)))
    }

    /// Failed `(name, error)` pairs, in submission order.
    pub fn errors(&self) -> impl Iterator<Item = (&str, &AnalysisError)> {
        self.outcomes
            .iter()
            .filter_map(|o| Some((o.name.as_str(), o.result.as_ref().err()?)))
    }
}

/// An owned, `'static` unit of work for the persistent [`Executor`]
/// (submissions outlive the submitting call, so the target is shared,
/// not borrowed).
pub struct OwnedJob {
    /// Label carried through to the outcome.
    pub name: String,
    /// Analyzer configuration for this target.
    pub config: AnalysisConfig,
    /// Relative cost estimate used to order work heaviest-first (`0` =
    /// unknown; ties keep submission order). See [`OwnedJob::with_cost_hint`].
    pub cost_hint: u64,
    /// The shared target to analyze.
    pub target: Arc<dyn AnalysisTarget + Send + Sync>,
    /// Additional interpretation-group member configs. When non-empty,
    /// the worker computes what [`Analysis::run_union`] would with
    /// `config` as the group lead, so the outcome's report carries the
    /// union observer suite; empty (the default) gives exactly the
    /// report of [`Analysis::run`].
    pub members: Vec<AnalysisConfig>,
}

impl OwnedJob {
    /// A job analyzing `target` under `config`.
    pub fn new(
        name: impl Into<String>,
        config: AnalysisConfig,
        target: Arc<dyn AnalysisTarget + Send + Sync>,
    ) -> Self {
        OwnedJob {
            name: name.into(),
            config,
            cost_hint: 0,
            target,
            members: Vec::new(),
        }
    }

    /// Attaches a relative cost estimate. Workers pull pending jobs
    /// heaviest-first, so giving the dominant job (e.g. the
    /// defensive-gather scenario of a sweep) a high hint stops it from
    /// serializing the tail of the batch. Results are bit-identical for
    /// any hints — only scheduling changes.
    #[must_use]
    pub fn with_cost_hint(mut self, cost_hint: u64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Attaches interpretation-group members: the worker will run one
    /// shared pass whose report carries the union of this job's and
    /// every member's observer suites (see [`Analysis::run_union`]).
    #[must_use]
    pub fn with_group(mut self, members: Vec<AnalysisConfig>) -> Self {
        self.members = members;
        self
    }
}

/// Progress of one submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Jobs with a recorded outcome (completed, failed, or cancelled).
    pub done: usize,
    /// Jobs in the submission.
    pub total: usize,
    /// Whether the batch was cancelled.
    pub cancelled: bool,
}

impl Progress {
    /// `true` once every job has an outcome.
    pub fn is_complete(&self) -> bool {
        self.done == self.total
    }
}

/// Slot table of one submission, guarded by the mutex the completion
/// condvar is tied to.
struct SlotTable {
    slots: Vec<Option<BatchOutcome>>,
    done: usize,
}

/// Shared state of one submission.
struct BatchState {
    jobs: Vec<OwnedJob>,
    table: Mutex<SlotTable>,
    complete: Condvar,
    cancelled: AtomicBool,
    started: Instant,
}

impl BatchState {
    fn progress(&self) -> Progress {
        let table = self.table.lock().expect("batch table poisoned");
        Progress {
            done: table.done,
            total: self.jobs.len(),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    fn record(&self, index: usize, outcome: BatchOutcome) {
        let mut table = self.table.lock().expect("batch table poisoned");
        debug_assert!(table.slots[index].is_none(), "job ran twice");
        table.slots[index] = Some(outcome);
        table.done += 1;
        // Notify on *every* outcome, not only the last: streaming
        // consumers park in `take_outcome` waiting for one specific
        // slot, and `wait` re-checks its own done-count either way.
        self.complete.notify_all();
    }

    fn cancelled_outcome(&self, index: usize) -> BatchOutcome {
        BatchOutcome {
            name: self.jobs[index].name.clone(),
            result: Err(AnalysisError::Cancelled),
            elapsed: Duration::ZERO,
        }
    }
}

/// A handle on one submitted batch: poll progress, cancel pending work,
/// or block for the full [`BatchReport`].
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("progress", &self.progress())
            .finish()
    }
}

impl BatchTicket {
    /// Current progress (never blocks).
    pub fn progress(&self) -> Progress {
        self.state.progress()
    }

    /// A cloneable, read-only progress handle that stays valid after
    /// the ticket itself is consumed by [`BatchTicket::wait`] — lets a
    /// server poll a batch another thread is collecting.
    pub fn probe(&self) -> ProgressProbe {
        ProgressProbe {
            state: Arc::clone(&self.state),
        }
    }

    /// Cancels every job of this batch that no worker has started yet;
    /// those jobs resolve to [`AnalysisError::Cancelled`]. Jobs already
    /// running finish normally and keep their results.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Blocks until the job at `index` (submission order) has an
    /// outcome, and takes it — the streaming consumption path: a caller
    /// walking indices in order sees each outcome as soon as it exists
    /// instead of waiting for the whole batch.
    ///
    /// Each slot can be taken once; mixing `take_outcome` with a later
    /// [`BatchTicket::wait`] on the same ticket is a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or its outcome was already
    /// taken.
    pub fn take_outcome(&self, index: usize) -> BatchOutcome {
        assert!(index < self.state.jobs.len(), "job index out of range");
        let mut table = self.state.table.lock().expect("batch table poisoned");
        loop {
            if let Some(outcome) = table.slots[index].take() {
                return outcome;
            }
            assert!(
                table.done < self.state.jobs.len() || table.slots[index].is_some(),
                "outcome {index} was already taken"
            );
            table = self
                .state
                .complete
                .wait(table)
                .expect("batch table poisoned");
        }
    }

    /// Blocks until every job has an outcome, returning them in
    /// submission order (cancelled jobs carry
    /// [`AnalysisError::Cancelled`]).
    pub fn wait(self) -> BatchReport {
        let mut table = self.state.table.lock().expect("batch table poisoned");
        while table.done < self.state.jobs.len() {
            table = self
                .state
                .complete
                .wait(table)
                .expect("batch table poisoned");
        }
        let outcomes = table
            .slots
            .iter_mut()
            .map(|s| s.take().expect("every job produces an outcome"))
            .collect();
        BatchReport {
            outcomes,
            wall: self.state.started.elapsed(),
        }
    }
}

/// A cloneable, read-only view of one batch's progress (see
/// [`BatchTicket::probe`]).
#[derive(Clone)]
pub struct ProgressProbe {
    state: Arc<BatchState>,
}

impl ProgressProbe {
    /// Current progress (never blocks).
    pub fn progress(&self) -> Progress {
        self.state.progress()
    }
}

impl std::fmt::Debug for ProgressProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressProbe")
            .field("progress", &self.progress())
            .finish()
    }
}

/// One schedulable queue entry. Ordered cost-descending, then globally
/// oldest-first (submission sequence, then index within the submission),
/// so the pop order is deterministic.
struct WorkItem {
    cost: u64,
    seq: u64,
    index: usize,
    state: Arc<BatchState>,
}

impl PartialEq for WorkItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorkItem {}

impl PartialOrd for WorkItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorkItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the maximum: highest cost wins; among equal
        // costs the *lower* (seq, index) — the older item — wins.
        self.cost
            .cmp(&other.cost)
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| other.index.cmp(&self.index))
    }
}

struct JobQueue {
    heap: BinaryHeap<WorkItem>,
    shutdown: bool,
    /// Jobs a worker has popped and not yet finished — the "currently
    /// analyzing" depth a `stats` request reports.
    running: usize,
    /// Running jobs allowed a replay helper, each holding the core of
    /// one worker that has no job.
    lent: usize,
}

/// Shared interior of the executor.
struct ExecutorShared {
    queue: Mutex<JobQueue>,
    work_ready: Condvar,
    seq: AtomicU64,
    /// Pool size: the cores the executor may occupy.
    workers: usize,
    /// The field-wise sum of every successful job's profile.
    profile: Mutex<AnalysisProfile>,
}

/// A persistent worker pool executing [`OwnedJob`]s from a shared,
/// cost-ordered queue — the one batch runner of the crate.
///
/// The executor outlives its submissions: many batches can be in
/// flight, and every
/// idle worker steals the costliest pending item regardless of which
/// batch submitted it. Outcomes land in per-submission [`BatchTicket`]s
/// with progress reporting and queue-drop cancellation. Results are
/// bit-identical to sequential runs of the same jobs (order only affects
/// scheduling).
///
/// Dropping the executor stops the workers: items still queued resolve
/// to [`AnalysisError::Cancelled`] (running jobs finish first), so
/// outstanding [`BatchTicket::wait`] calls return rather than hang.
pub struct Executor {
    shared: Arc<ExecutorShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// A pool sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        Executor::with_threads(threads)
    }

    /// A pool with exactly `threads` workers (`1` = a serial executor).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(ExecutorShared {
            queue: Mutex::new(JobQueue {
                heap: BinaryHeap::new(),
                shutdown: false,
                running: 0,
                lent: 0,
            }),
            work_ready: Condvar::new(),
            seq: AtomicU64::new(0),
            workers: threads,
            profile: Mutex::new(AnalysisProfile::default()),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Executor { shared, workers }
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs queued and not yet picked up by any worker.
    pub fn pending(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("job queue poisoned")
            .heap
            .len()
    }

    /// Jobs currently being analyzed by a worker.
    pub fn in_flight(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("job queue poisoned")
            .running
    }

    /// The field-wise sum of the profiles of every job this executor
    /// completed successfully (cancelled, failed and cache-served work
    /// contributes nothing). `offloaded` is always 0 on a one-worker
    /// executor.
    pub fn profile(&self) -> AnalysisProfile {
        *self.shared.profile.lock().expect("profile poisoned")
    }

    /// Submits one batch; its items join the shared queue immediately.
    pub fn submit(&self, jobs: Vec<OwnedJob>) -> BatchTicket {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let total = jobs.len();
        let state = Arc::new(BatchState {
            table: Mutex::new(SlotTable {
                slots: (0..total).map(|_| None).collect(),
                done: 0,
            }),
            complete: Condvar::new(),
            cancelled: AtomicBool::new(false),
            started: Instant::now(),
            jobs,
        });
        {
            let mut queue = self.shared.queue.lock().expect("job queue poisoned");
            if queue.shutdown {
                // Executor is being dropped: resolve everything as
                // cancelled instead of queueing into the void.
                for index in 0..total {
                    state.record(index, state.cancelled_outcome(index));
                }
            } else {
                for (index, job) in state.jobs.iter().enumerate() {
                    queue.heap.push(WorkItem {
                        cost: job.cost_hint,
                        seq,
                        index,
                        state: Arc::clone(&state),
                    });
                }
            }
        }
        self.shared.work_ready.notify_all();
        BatchTicket { state }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let drained: Vec<WorkItem> = {
            let mut queue = self.shared.queue.lock().expect("job queue poisoned");
            queue.shutdown = true;
            queue.heap.drain().collect()
        };
        for item in drained {
            item.state
                .record(item.index, item.state.cancelled_outcome(item.index));
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("executor worker panicked");
        }
    }
}

/// The panic payload as text, when it was one of the string types
/// `panic!` produces.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

fn worker_loop(shared: &ExecutorShared) {
    loop {
        let (item, offload) = {
            let mut queue = shared.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(item) = queue.heap.pop() {
                    queue.running += 1;
                    // A helper may take this job's replay only when no
                    // other job waits for a worker and some worker's
                    // core is neither running a job nor lent to another
                    // job's helper.
                    let offload =
                        queue.heap.is_empty() && queue.running + queue.lent < shared.workers;
                    queue.lent += usize::from(offload);
                    break (item, offload);
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("job queue poisoned");
            }
        };
        let outcome = if item.state.cancelled.load(Ordering::Relaxed) {
            item.state.cancelled_outcome(item.index)
        } else {
            let job = &item.state.jobs[item.index];
            let started = Instant::now();
            // Contain per-job panics: an unwinding worker would never
            // record an outcome, hanging every wait on the batch and
            // shrinking the pool.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Analysis::new(job.config.clone()).run_group(
                    &job.members,
                    &job.target.as_ref(),
                    offload,
                )
            }))
            .unwrap_or_else(|payload| {
                Err(AnalysisError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            });
            if let Ok(report) = &result {
                let mut profile = shared.profile.lock().expect("profile poisoned");
                profile.add(&report.profile());
            }
            BatchOutcome {
                name: job.name.clone(),
                result,
                elapsed: started.elapsed(),
            }
        };
        {
            // Free the core before publishing the outcome, so a caller
            // that submits its next job on seeing this one finds it free.
            let mut queue = shared.queue.lock().expect("job queue poisoned");
            queue.running -= 1;
            queue.lent -= usize::from(offload);
        }
        item.state.record(item.index, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisInput, InitState};
    use leakaudit_core::{Observer, ValueSet};
    use leakaudit_x86::{Asm, Mem, Reg};

    fn secret_load_input(entries: u64) -> AnalysisInput {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::Eax, Mem::sib(Reg::Ebx, Reg::Ecx, 8, 0));
        a.hlt();
        let mut init = InitState::new();
        init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        init.set_reg(Reg::Ecx, ValueSet::from_constants(0..entries, 32));
        AnalysisInput {
            program: a.assemble().unwrap(),
            init,
        }
    }

    fn diverging_input() -> AnalysisInput {
        let mut a = Asm::new(0x2000);
        a.label("spin");
        a.jmp("spin");
        AnalysisInput {
            program: a.assemble().unwrap(),
            init: InitState::new(),
        }
    }

    #[test]
    fn one_failing_job_does_not_poison_the_batch() {
        let good: Arc<dyn AnalysisTarget + Send + Sync> = Arc::new(secret_load_input(4));
        let config = AnalysisConfig {
            fuel: 1_000,
            ..AnalysisConfig::default()
        };
        let batch = Executor::with_threads(2)
            .submit(vec![
                OwnedJob::new("good", config.clone(), Arc::clone(&good)),
                OwnedJob::new("bad", config.clone(), Arc::new(diverging_input())),
                OwnedJob::new("good2", config, good),
            ])
            .wait();
        assert!(batch.get("good").unwrap().result.is_ok());
        assert!(matches!(
            batch.get("bad").unwrap().result,
            Err(AnalysisError::OutOfFuel { .. })
        ));
        assert!(batch.get("good2").unwrap().result.is_ok());
        assert_eq!(batch.errors().count(), 1);
        assert_eq!(batch.reports().count(), 2);
    }

    #[test]
    fn executor_outcomes_match_sequential_analysis() {
        let inputs: Vec<AnalysisInput> = (2..6).map(secret_load_input).collect();
        let executor = Executor::with_threads(2);
        let jobs: Vec<OwnedJob> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                OwnedJob::new(
                    format!("job{i}"),
                    AnalysisConfig::default(),
                    Arc::new(input.clone()),
                )
                .with_cost_hint(i as u64)
            })
            .collect();
        let ticket = executor.submit(jobs);
        let report = ticket.wait();
        assert_eq!(report.outcomes().len(), 4);
        for (i, input) in inputs.iter().enumerate() {
            let outcome = &report.outcomes()[i];
            assert_eq!(outcome.name, format!("job{i}"), "submission order kept");
            let got = outcome.result.as_ref().unwrap();
            let want = Analysis::new(AnalysisConfig::default()).run(input).unwrap();
            for (g, w) in got.rows().iter().zip(want.rows()) {
                assert_eq!(g.spec, w.spec);
                assert_eq!(g.count, w.count);
                assert_eq!(g.bits.to_bits(), w.bits.to_bits());
            }
        }
        // Spot-check a known bound: 4 entries -> 2 bits at the d-cache.
        let job2 = report.get("job2").unwrap().result.as_ref().unwrap();
        assert_eq!(job2.dcache_bits(Observer::address()), 2.0);
    }

    #[test]
    fn executor_progress_and_multiple_batches() {
        let input = secret_load_input(4);
        let executor = Executor::with_threads(2);
        let submit = |n: usize| {
            executor.submit(
                (0..n)
                    .map(|i| {
                        OwnedJob::new(
                            format!("j{i}"),
                            AnalysisConfig::default(),
                            Arc::new(input.clone()) as Arc<dyn AnalysisTarget + Send + Sync>,
                        )
                    })
                    .collect(),
            )
        };
        let a = submit(3);
        let b = submit(2);
        assert_eq!(a.progress().total, 3);
        let rb = b.wait();
        let ra = a.wait();
        assert_eq!(ra.reports().count(), 3);
        assert_eq!(rb.reports().count(), 2);
    }

    #[test]
    fn cancellation_drops_pending_jobs_without_hanging() {
        // A single worker pinned on a slow job guarantees the second
        // batch is still queued when the cancellation arrives.
        let blocker_input = diverging_input();
        let quick = secret_load_input(4);
        let executor = Executor::with_threads(1);
        let blocker = executor.submit(vec![OwnedJob::new(
            "blocker",
            AnalysisConfig {
                fuel: 100_000,
                ..AnalysisConfig::default()
            },
            Arc::new(blocker_input),
        )]);
        let batch = executor.submit(
            (0..3)
                .map(|i| {
                    OwnedJob::new(
                        format!("q{i}"),
                        AnalysisConfig::default(),
                        Arc::new(quick.clone()) as Arc<dyn AnalysisTarget + Send + Sync>,
                    )
                })
                .collect(),
        );
        batch.cancel();
        let report = batch.wait();
        assert!(report
            .outcomes()
            .iter()
            .all(|o| matches!(o.result, Ok(_) | Err(AnalysisError::Cancelled))));
        // The worker was busy with the blocker for the whole cancel
        // window, so at most the first job can have slipped through.
        assert!(
            report
                .outcomes()
                .iter()
                .skip(1)
                .all(|o| matches!(o.result, Err(AnalysisError::Cancelled))),
            "queued jobs must resolve as cancelled"
        );
        assert!(matches!(
            blocker.wait().outcomes()[0].result,
            Err(AnalysisError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn dropping_the_executor_resolves_queued_work_as_cancelled() {
        let executor = Executor::with_threads(1);
        let blocker_input = diverging_input();
        let quick = secret_load_input(4);
        let blocker = executor.submit(vec![OwnedJob::new(
            "blocker",
            AnalysisConfig {
                fuel: 100_000,
                ..AnalysisConfig::default()
            },
            Arc::new(blocker_input),
        )]);
        let pending = executor.submit(vec![OwnedJob::new(
            "pending",
            AnalysisConfig::default(),
            Arc::new(quick),
        )]);
        drop(executor);
        // wait() returns (instead of hanging) with a structured outcome.
        let report = pending.wait();
        assert!(matches!(
            report.outcomes()[0].result,
            Ok(_) | Err(AnalysisError::Cancelled)
        ));
        assert_eq!(blocker.wait().outcomes().len(), 1);
    }

    #[test]
    fn a_panicking_job_does_not_hang_the_batch_or_kill_the_worker() {
        struct PanickingTarget;
        impl AnalysisTarget for PanickingTarget {
            fn program(&self) -> &leakaudit_x86::Program {
                panic!("target exploded")
            }
            fn init_state(&self) -> crate::InitState {
                crate::InitState::new()
            }
        }
        let executor = Executor::with_threads(1);
        let good = secret_load_input(4);
        let ticket = executor.submit(vec![
            OwnedJob::new("boom", AnalysisConfig::default(), Arc::new(PanickingTarget)),
            OwnedJob::new(
                "good",
                AnalysisConfig::default(),
                Arc::new(good) as Arc<dyn AnalysisTarget + Send + Sync>,
            ),
        ]);
        // wait() returns instead of hanging; the panic is an outcome …
        let report = ticket.wait();
        match &report.get("boom").unwrap().result {
            Err(AnalysisError::Panicked { message }) => {
                assert_eq!(message, "target exploded");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // … and the single worker survived to run the next job.
        assert!(report.get("good").unwrap().result.is_ok());
        let again = executor.submit(vec![OwnedJob::new(
            "after",
            AnalysisConfig::default(),
            Arc::new(secret_load_input(4)) as Arc<dyn AnalysisTarget + Send + Sync>,
        )]);
        assert!(again.wait().get("after").unwrap().result.is_ok());
    }

    #[test]
    fn a_serial_executor_completes_and_sums_the_job_profiles() {
        let executor = Executor::with_threads(1);
        assert_eq!(executor.profile(), AnalysisProfile::default());
        let input: Arc<dyn AnalysisTarget + Send + Sync> = Arc::new(secret_load_input(8));
        let batch = executor
            .submit(vec![
                OwnedJob::new("a", AnalysisConfig::default(), Arc::clone(&input)),
                OwnedJob::new("b", AnalysisConfig::default(), input),
            ])
            .wait();
        assert_eq!(batch.reports().count(), 2);
        assert!(batch.wall_time() > Duration::ZERO);
        let mut sum = AnalysisProfile::default();
        for (_, report) in batch.reports() {
            sum.add(&report.profile());
        }
        assert_eq!(executor.profile(), sum);
        assert_eq!(sum.runs, 2);
        assert!(
            sum.interpret_ns + sum.replay_ns + sum.count_ns > 0,
            "a completed run leaves nonzero phase time"
        );
    }

    #[test]
    fn probes_outlive_the_ticket() {
        let executor = Executor::with_threads(1);
        let ticket = executor.submit(vec![OwnedJob::new(
            "job",
            AnalysisConfig::default(),
            Arc::new(secret_load_input(4)) as Arc<dyn AnalysisTarget + Send + Sync>,
        )]);
        let probe = ticket.probe();
        assert_eq!(probe.progress().total, 1);
        ticket.wait();
        let progress = probe.progress();
        assert!(progress.is_complete());
        assert_eq!(progress.done, 1);
    }

    #[test]
    fn work_items_pop_heaviest_first_then_oldest() {
        let state = Arc::new(BatchState {
            jobs: Vec::new(),
            table: Mutex::new(SlotTable {
                slots: Vec::new(),
                done: 0,
            }),
            complete: Condvar::new(),
            cancelled: AtomicBool::new(false),
            started: Instant::now(),
        });
        let item = |cost, seq, index| WorkItem {
            cost,
            seq,
            index,
            state: Arc::clone(&state),
        };
        let mut heap = BinaryHeap::new();
        for (cost, seq, index) in [(1, 0, 0), (100, 1, 0), (100, 0, 1), (10, 0, 2)] {
            heap.push(item(cost, seq, index));
        }
        let order: Vec<(u64, u64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|i| (i.cost, i.seq, i.index))
            .collect();
        assert_eq!(
            order,
            vec![(100, 0, 1), (100, 1, 0), (10, 0, 2), (1, 0, 0)],
            "cost descending, then submission order"
        );
    }
}
