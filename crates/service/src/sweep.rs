//! The sweep engine: plan a scenario matrix, deduplicate work, consult
//! the result cache, and batch-analyze only what is actually new.
//!
//! A sweep is the service-shaped workload of the ROADMAP: many analysis
//! requests, most of which repeat — across cells of one matrix (two
//! specs can denote the same program × config), across reruns of the
//! same matrix, and across processes (via the optional disk store).
//! The engine answers each cell from the cheapest source and records
//! *provenance* so reports say where every number came from:
//!
//! 1. an identical cell earlier in the same sweep ([`Provenance::Shared`]),
//! 2. the in-memory cache ([`Provenance::MemoryHit`]),
//! 3. the on-disk cache ([`Provenance::DiskHit`]),
//! 4. a fresh parallel analysis ([`Provenance::Computed`]) on the
//!    engine's persistent [`Executor`],
//! 5. the shared scheduler pass of another computed cell
//!    ([`Provenance::SharedPass`]): cells that differ only in observer
//!    granularity are partitioned into *interpretation groups* (by
//!    [`BaseKey`] × the interpretation half of the config — see
//!    [`crate::key::GroupKey`]) and analyzed as **one** abstract
//!    interpretation with the union of all member observer suites
//!    attached as sinks. The group lead is `Computed`; every other
//!    member's report is projected out of the union rows, bit-identical
//!    to a solo run of that cell.
//!
//! Cache hits are bit-identical to cold runs: in-memory hits share the
//! original report (`Arc`), disk hits round-trip through the exact
//! encoding of [`crate::cache`], and the consistency suite asserts both.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use leakaudit_analyzer::{
    AnalysisConfig, AnalysisError, AnalysisProfile, BatchTicket, Budget, Executor, LeakReport,
    MemoStats, OwnedJob, PhaseTotals, ProgressProbe,
};
use leakaudit_scenarios::{Registry, Scenario, ScenarioSpec};

use crate::cache::{CacheStats, DiskCache, MemoryCache};
use crate::key::{BaseKey, CacheKey, GroupKey};

/// Per-request analysis overrides: the client-facing half of an audit
/// profile (the other half being the cells themselves). A profile is
/// applied on top of each cell's own [`ScenarioSpec::analysis_config`];
/// `None` fields keep the spec's value. Because the overridden
/// configuration is folded into each cell's [`CacheKey`], overridden
/// results are cached under distinct keys — two clients asking the same
/// cells under different observer suites or budgets never cross-serve
/// each other's reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditProfile {
    /// Override for the block observer's cache-line bits.
    pub block_bits: Option<u8>,
    /// Override for the bank observer's bits.
    pub bank_bits: Option<u8>,
    /// Override for the page observer's bits.
    pub page_bits: Option<u8>,
    /// Override for the analyzer's divergence-guard fuel.
    pub fuel: Option<u64>,
    /// Per-job resource budget (fuel cap / wall-clock deadline); the
    /// executor honors it per cell, so one pathological cell returns
    /// `BudgetExhausted` while its siblings complete normally.
    pub budget: Budget,
    /// Override for the interpreter's memo layer (`Some(false)` forces
    /// the naive reference path). Not part of result identity — memoized
    /// and naive runs are bit-identical by construction, so flipping
    /// this never changes a cache key or a row.
    pub interp_memo: Option<bool>,
}

impl AuditProfile {
    /// The effective analyzer configuration for one cell: the spec's
    /// own configuration with this profile's overrides applied.
    pub fn configure(&self, mut config: AnalysisConfig) -> AnalysisConfig {
        if let Some(bits) = self.block_bits {
            config.block_bits = bits;
        }
        if let Some(bits) = self.bank_bits {
            config.bank_bits = bits;
        }
        if let Some(bits) = self.page_bits {
            config.page_bits = bits;
        }
        if let Some(fuel) = self.fuel {
            config.fuel = fuel;
        }
        if let Some(memo) = self.interp_memo {
            config.interp_memo = memo;
        }
        config.budget = self.budget;
        config
    }
}

/// Where one sweep cell's report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Freshly analyzed in this sweep.
    Computed,
    /// Identical to the cell at the given index of the same sweep
    /// (same cache key — deduplicated before any analysis ran): the
    /// owner's rows with an all-zero profile, like a cache hit.
    Shared {
        /// Index of the cell that owns the work.
        of: usize,
    },
    /// Served by the shared scheduler pass of the cell at the given
    /// index: this cell's interpretation (program, initial state, fuel,
    /// budget, configuration cap) is identical to the group lead's, so
    /// its observer suite rode along as extra sinks on the lead's
    /// single abstract-interpretation pass and its report was projected
    /// out of the union rows — a distinct *result* (own cache key, own
    /// rows), but no scheduler pass of its own.
    SharedPass {
        /// Index of the group lead ([`Provenance::Computed`]) whose
        /// pass carried this cell's sinks.
        of: usize,
    },
    /// Served from the in-memory cache.
    MemoryHit,
    /// Served from the on-disk cache.
    DiskHit,
}

impl Provenance {
    /// Short tag for tables: `computed`, `shared`, `shared-pass`,
    /// `memory`, `disk`.
    pub fn tag(&self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::Shared { .. } => "shared",
            Provenance::SharedPass { .. } => "shared-pass",
            Provenance::MemoryHit => "memory",
            Provenance::DiskHit => "disk",
        }
    }
}

/// The shared result of one cell: the leakage report, or the analysis
/// error (both `Arc`-shared across cells with equal content keys).
pub type CellResult = Result<Arc<LeakReport>, Arc<AnalysisError>>;

/// One answered cell of a sweep: the spec it came from, the content key,
/// where the report was found, and the report itself.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The matrix cell.
    pub spec: ScenarioSpec,
    /// The generated scenario's name (canonical for paper points).
    pub name: String,
    /// Content-addressed identity of the underlying analysis request.
    pub key: CacheKey,
    /// Where the report came from.
    pub provenance: Provenance,
    /// The leakage report, or the analysis error (shared across cells
    /// with equal keys).
    pub result: CellResult,
    /// Analysis wall-clock time for computed cells, zero for hits.
    pub elapsed: Duration,
}

/// The answered sweep, cells in registry order.
#[derive(Debug)]
pub struct SweepReport {
    cells: Vec<SweepCell>,
    wall: Duration,
}

impl SweepReport {
    /// The cells, in submission order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Wall-clock time of the whole sweep (planning + cache + analysis).
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// The cell with the given spec id, if any.
    pub fn get(&self, id: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.spec.id() == id)
    }

    /// Number of cells that required a scheduler pass of their own —
    /// one per interpretation group of the pending work.
    pub fn computed(&self) -> usize {
        self.count(|p| matches!(p, Provenance::Computed))
    }

    /// Number of cells served by another cell's scheduler pass
    /// ([`Provenance::SharedPass`]): fresh results (they were analyzed
    /// this sweep, under their own cache keys) that cost only extra
    /// sinks, not an extra abstract interpretation.
    pub fn shared_pass(&self) -> usize {
        self.count(|p| matches!(p, Provenance::SharedPass { .. }))
    }

    /// Number of cells answered without analyzing (shared, memory, disk).
    pub fn reused(&self) -> usize {
        self.cells.len() - self.computed() - self.shared_pass()
    }

    fn count(&self, pred: impl Fn(Provenance) -> bool) -> usize {
        self.cells.iter().filter(|c| pred(c.provenance)).count()
    }

    /// Renders the sweep as a table: one line per cell with family,
    /// parameters, provenance, timing, and the headline D-cache bounds.
    pub fn to_table(&self) -> String {
        use leakaudit_core::Observer;
        let mut out = format!(
            "{:<44} {:>8} {:>9}  {:>12} {:>12}\n",
            "cell", "source", "time", "D-addr", "D-block"
        );
        for cell in &self.cells {
            let (daddr, dblock) = match &cell.result {
                Ok(report) => {
                    let b = cell.spec.block_bits;
                    (
                        format!(
                            "{} bit",
                            leakaudit_analyzer::format_bits(
                                report.dcache_bits(Observer::address())
                            )
                        ),
                        format!(
                            "{} bit",
                            leakaudit_analyzer::format_bits(report.dcache_bits(Observer::block(b)))
                        ),
                    )
                }
                Err(e) => (format!("error: {e}"), String::new()),
            };
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>8.2?}  {:>12} {:>12}",
                cell.name,
                cell.provenance.tag(),
                cell.elapsed,
                daddr,
                dblock
            );
        }
        let _ = writeln!(
            out,
            "{} cells: {} computed, {} shared-pass, {} reused, {:.2?} wall",
            self.cells.len(),
            self.computed(),
            self.shared_pass(),
            self.reused(),
            self.wall
        );
        out
    }
}

/// Progress of one submitted sweep (see [`SweepEngine::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Cells with an answer (cache-resolved at submission, or analyzed
    /// since).
    pub done: usize,
    /// Cells in the sweep.
    pub total: usize,
    /// Whether the sweep was cancelled.
    pub cancelled: bool,
}

impl SweepProgress {
    /// `true` once every cell is answered.
    pub fn is_complete(&self) -> bool {
        self.done == self.total
    }
}

/// A submitted, possibly still-running sweep: poll progress, cancel the
/// pending analyses, then hand it back to
/// [`SweepEngine::collect`] for the assembled [`SweepReport`].
#[derive(Debug)]
pub struct SweepTicket {
    specs: Vec<ScenarioSpec>,
    metas: Vec<(CacheKey, String)>,
    /// Each cell's effective (profile-overridden) configuration; the
    /// collection pass projects a grouped cell's observer suite out of
    /// its job's union report with it.
    configs: Vec<AnalysisConfig>,
    /// Cells answered at submission time (cache/disk hits).
    resolved: Vec<Option<(Provenance, CellResult)>>,
    /// Cells deferring to an earlier identical cell.
    shared_of: Vec<Option<usize>>,
    /// One entry per executor job: the member cells of that job's
    /// interpretation group, ascending, lead first. Solo groups take
    /// the plain analysis path; larger ones run one union-suite pass.
    jobs: Vec<Vec<usize>>,
    batch: Option<BatchTicket>,
    started: Instant,
}

impl SweepTicket {
    /// Number of cells in the sweep.
    pub fn cells(&self) -> usize {
        self.specs.len()
    }

    /// Current progress (never blocks). Cells answered from cache at
    /// submission — including intra-sweep duplicates — count as done
    /// from the start.
    pub fn progress(&self) -> SweepProgress {
        self.probe().progress()
    }

    /// A cloneable progress handle that stays valid after the ticket is
    /// consumed by [`SweepEngine::collect`] — lets a daemon keep
    /// answering `poll` with real numbers while another request is
    /// blocked collecting the same sweep.
    pub fn probe(&self) -> SweepProbe {
        let scheduled = self.jobs.iter().map(Vec::len).sum::<usize>();
        SweepProbe {
            resolved: self.specs.len() - scheduled,
            total: self.specs.len(),
            scheduled,
            batch: self.batch.as_ref().map(BatchTicket::probe),
        }
    }

    /// Cancels the analyses no worker has started yet; those cells
    /// resolve to [`AnalysisError::Cancelled`] instead of a report.
    /// Already-answered cells and running analyses are unaffected.
    pub fn cancel(&self) {
        if let Some(batch) = &self.batch {
            batch.cancel();
        }
    }
}

/// A cloneable, read-only view of a submitted sweep's progress (see
/// [`SweepTicket::probe`]).
#[derive(Debug, Clone)]
pub struct SweepProbe {
    resolved: usize,
    total: usize,
    /// Cells covered by executor jobs (≥ the job count: a grouped job
    /// answers every member of its interpretation group).
    scheduled: usize,
    batch: Option<ProgressProbe>,
}

impl SweepProbe {
    /// Current progress (never blocks). A finished *job* may answer
    /// several grouped cells at once; mid-flight the estimate counts
    /// each done job as one cell (a deliberate undercount — progress
    /// stays monotone and lands exactly on `total` at completion).
    pub fn progress(&self) -> SweepProgress {
        let batch = self.batch.as_ref().map(ProgressProbe::progress);
        let done = self.resolved
            + batch.map_or(0, |p| {
                if p.done == p.total {
                    self.scheduled
                } else {
                    p.done.min(self.scheduled)
                }
            });
        SweepProgress {
            done,
            total: self.total,
            cancelled: batch.is_some_and(|p| p.cancelled),
        }
    }
}

/// The sweep engine: cache front-ends plus a persistent work-stealing
/// executor for the cells the caches cannot answer.
#[derive(Debug, Default)]
pub struct SweepEngine {
    memory: MemoryCache,
    disk: Option<DiskCache>,
    threads: Option<usize>,
    /// Spec → (base key, scenario name): building a scenario (assembly
    /// plus the initial abstract state) just to learn its content base is
    /// paid once per spec per engine; warm sweeps — under *any* profile
    /// — plan from this memo alone, folding the per-request
    /// configuration into the base without rebuilding anything.
    plan: Mutex<HashMap<ScenarioSpec, (BaseKey, String)>>,
    /// The worker pool, spawned on first use (an engine that only ever
    /// answers from cache starts no threads). All sweeps of this engine
    /// share it: idle workers steal the costliest pending cell across
    /// concurrent submissions.
    executor: OnceLock<Executor>,
}

impl SweepEngine {
    /// An engine with a fresh in-memory cache and no disk store.
    pub fn new() -> Self {
        SweepEngine::default()
    }

    /// Attaches an on-disk JSON store at `dir` (created if missing).
    /// Disk entries survive the process: a new engine pointed at the
    /// same directory answers repeated sweeps without re-analyzing.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    #[must_use = "builder returns a new engine"]
    pub fn with_disk_cache(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.disk = Some(DiskCache::open(dir)?);
        Ok(self)
    }

    /// Overrides the executor worker count (`1` forces sequential
    /// analysis). Takes effect when the pool spawns, i.e. before the
    /// first sweep runs — set it at construction time.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Bounds the in-memory result cache at roughly `capacity_bytes`,
    /// evicting the least-recently-used entries. Replaces the engine's
    /// memory cache, so set it at construction time. Eviction never
    /// changes results: an evicted cell is recomputed bit-identically
    /// (pinned by the sweep-under-eviction consistency test).
    #[must_use]
    pub fn with_eviction(mut self, capacity_bytes: u64) -> Self {
        self.memory = MemoryCache::new().with_capacity_bytes(capacity_bytes);
        self
    }

    /// In-memory cache lookup counters (the warm/cold observability).
    pub fn memory_stats(&self) -> CacheStats {
        self.memory.stats()
    }

    /// Number of entries in the in-memory cache.
    pub fn cached_reports(&self) -> usize {
        self.memory.len()
    }

    /// Approximate bytes retained by the in-memory cache.
    pub fn memory_bytes(&self) -> u64 {
        self.memory.bytes()
    }

    /// Number of entries in the on-disk store (0 without one).
    pub fn disk_entries(&self) -> usize {
        self.disk.as_ref().map_or(0, DiskCache::len)
    }

    /// The executor worker count (spawning the pool if needed).
    pub fn workers(&self) -> usize {
        self.executor().workers()
    }

    fn executor(&self) -> &Executor {
        self.executor.get_or_init(|| match self.threads {
            Some(n) => Executor::with_threads(n),
            None => Executor::new(),
        })
    }

    /// Jobs queued on the executor and not yet started (0 when the pool
    /// was never spawned).
    pub fn pending_jobs(&self) -> usize {
        self.executor.get().map_or(0, Executor::pending)
    }

    /// Jobs a worker is analyzing right now (0 when the pool was never
    /// spawned).
    pub fn in_flight_jobs(&self) -> usize {
        self.executor.get().map_or(0, Executor::in_flight)
    }

    /// The field-wise sum of the profiles of every analysis this
    /// engine's executor completed (zero when the pool was never
    /// spawned; cache hits and shared-pass views contribute nothing).
    pub fn profile(&self) -> AnalysisProfile {
        self.executor
            .get()
            .map_or_else(AnalysisProfile::default, Executor::profile)
    }

    /// [`SweepEngine::profile`]'s phase times, kept for the benchmark
    /// client.
    pub fn phase_totals(&self) -> PhaseTotals {
        self.profile().into()
    }

    /// [`SweepEngine::profile`]'s memo counters, kept for the benchmark
    /// client.
    pub fn memo_totals(&self) -> MemoStats {
        self.profile().into()
    }

    /// Answers one cell (a "single query" against the service).
    pub fn query(&self, spec: &ScenarioSpec) -> SweepCell {
        self.run_specs(std::slice::from_ref(spec))
            .cells
            .pop()
            .expect("one spec yields one cell")
    }

    /// Plans and answers a whole sweep over a registry.
    pub fn run(&self, registry: &Registry) -> SweepReport {
        self.run_specs(registry.specs())
    }

    /// Plans and answers a sweep over explicit specs (duplicates
    /// allowed — they are answered once and shared):
    /// [`SweepEngine::submit`] + [`SweepEngine::collect`] back to back.
    pub fn run_specs(&self, specs: &[ScenarioSpec]) -> SweepReport {
        let ticket = self.submit(specs);
        self.collect(ticket)
    }

    /// [`SweepEngine::run_specs`] under a per-request profile.
    pub fn run_with(&self, specs: &[ScenarioSpec], profile: &AuditProfile) -> SweepReport {
        let ticket = self.submit_with(specs, profile);
        self.collect(ticket)
    }

    /// Plans a sweep and schedules its cache misses on the executor,
    /// returning without waiting for the analyses.
    ///
    /// Work is deduplicated by content key before anything is analyzed;
    /// remaining misses join the shared work queue **costliest-first**
    /// (see [`ScenarioSpec::cost_hint`]), so the dominant cell of an
    /// uneven mix starts immediately instead of serializing the sweep
    /// tail. The ticket reports progress and supports cancellation; the
    /// daemon's `submit_sweep`/`poll`/`result`/`stream` requests map
    /// onto submit/progress/collect directly.
    pub fn submit(&self, specs: &[ScenarioSpec]) -> SweepTicket {
        self.submit_with(specs, &AuditProfile::default())
    }

    /// [`SweepEngine::submit`] under a per-request [`AuditProfile`]:
    /// every cell's configuration gets the profile's overrides, the
    /// overridden configuration is folded into the cell's cache key,
    /// and the profile's budget bounds each scheduled job individually.
    pub fn submit_with(&self, specs: &[ScenarioSpec], profile: &AuditProfile) -> SweepTicket {
        let started = Instant::now();
        // Planning pass: content key + display name per cell, via the
        // spec memo — a warm sweep never builds a scenario at all, and
        // a cold cell's build is retained for the analysis pass below.
        let mut built: HashMap<usize, Arc<Scenario>> = HashMap::new();
        let mut configs: Vec<AnalysisConfig> = Vec::with_capacity(specs.len());
        let mut bases: Vec<BaseKey> = Vec::with_capacity(specs.len());
        let metas: Vec<(CacheKey, String)> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let ((base, name), fresh) = self.cell_meta(spec);
                if let Some(scenario) = fresh {
                    built.insert(i, Arc::new(scenario));
                }
                let config = profile.configure(spec.analysis_config());
                let key = base.with_config(&config);
                configs.push(config);
                bases.push(base);
                (key, name)
            })
            .collect();

        // Resolution pass: cheapest source per cell, misses scheduled.
        let mut first_with_key: HashMap<CacheKey, usize> = HashMap::new();
        let mut resolved: Vec<Option<(Provenance, CellResult)>> = Vec::with_capacity(specs.len());
        let mut shared_of: Vec<Option<usize>> = vec![None; specs.len()];
        let mut miss_indices: Vec<usize> = Vec::new();
        for (i, (key, _)) in metas.iter().enumerate() {
            if let Some(&of) = first_with_key.get(key) {
                // Same key as an earlier cell; the result is filled in
                // from it at collection (unrepresentable until then).
                shared_of[i] = Some(of);
                resolved.push(None);
                continue;
            }
            first_with_key.insert(*key, i);
            if let Some(report) = self.memory.get(key) {
                resolved.push(Some((Provenance::MemoryHit, Ok(report))));
            } else if let Some(report) = self.disk.as_ref().and_then(|d| d.get(key)) {
                // Promote to memory so the next lookup skips the disk.
                self.memory.put(*key, Arc::clone(&report));
                resolved.push(Some((Provenance::DiskHit, Ok(report))));
            } else {
                miss_indices.push(i);
                resolved.push(None);
            }
        }

        // Grouping pass: pending cells that share program bytes,
        // initial state, *and* interpretation config (fuel, budget,
        // `max_configs` — the [`GroupKey`]) need only one scheduler
        // pass between them; their observer granularities merely pick
        // different sinks on the same event stream. First pending cell
        // of a group leads it; the rest ride along as extra suites.
        let mut group_index: HashMap<GroupKey, usize> = HashMap::new();
        let mut grouped: Vec<Vec<usize>> = Vec::new();
        for &i in &miss_indices {
            let group = bases[i].interpretation_group(&configs[i]);
            match group_index.get(&group) {
                Some(&job) => grouped[job].push(i),
                None => {
                    group_index.insert(group, grouped.len());
                    grouped.push(vec![i]);
                }
            }
        }

        // Scheduling pass: one executor job per interpretation group,
        // reusing the scenarios the planning pass already built — and
        // hash-consing them per BaseKey, so groups over the same
        // program × state (e.g. block-bit variants planned as separate
        // specs) share one `Arc`'d scenario instead of rebuilding the
        // initial abstract memory per job. Each job carries the lead's
        // *effective* (profile-overridden) config, so the executor
        // enforces the per-job budget and the analysis matches the key
        // it will be cached under; member configs ride along for the
        // union suite. The cost hint grows mildly with group size —
        // extra sinks cost far less than extra passes.
        let mut by_base: HashMap<BaseKey, Arc<Scenario>> = HashMap::new();
        let jobs: Vec<OwnedJob> = grouped
            .iter()
            .map(|members| {
                let lead = members[0];
                let scenario = Arc::clone(by_base.entry(bases[lead]).or_insert_with(|| {
                    Arc::clone(
                        built
                            .entry(lead)
                            .or_insert_with(|| Arc::new(specs[lead].build())),
                    )
                }));
                let hint = specs[lead].cost_hint();
                let extra = (members.len() as u64).saturating_sub(1);
                let mut job = OwnedJob::new(metas[lead].1.clone(), configs[lead].clone(), scenario)
                    .with_cost_hint(hint + hint * extra / 8);
                if members.len() > 1 {
                    job =
                        job.with_group(members[1..].iter().map(|&m| configs[m].clone()).collect());
                }
                job
            })
            .collect();
        let batch = (!jobs.is_empty()).then(|| self.executor().submit(jobs));

        SweepTicket {
            specs: specs.to_vec(),
            metas,
            configs,
            resolved,
            shared_of,
            jobs: grouped,
            batch,
            started,
        }
    }

    /// Waits for a submitted sweep's analyses and assembles the report,
    /// storing every fresh result in the caches (memory, and disk when
    /// attached) so re-running the same sweep answers every cell from
    /// cache, bit-identically.
    pub fn collect(&self, ticket: SweepTicket) -> SweepReport {
        self.collect_stream(ticket, &mut |_, _| {})
    }

    /// [`SweepEngine::collect`] with per-cell push: `on_cell` fires for
    /// every cell **in submission order, as soon as its result exists**
    /// — cache hits immediately, computed cells the moment their
    /// analysis lands — instead of holding everything back until the
    /// whole sweep is done. The daemon's `stream` op is this callback
    /// plus wire encoding; the returned report is identical to
    /// [`SweepEngine::collect`]'s (the consistency suite pins streamed
    /// cells bit-identical to blocked ones).
    pub fn collect_stream(
        &self,
        ticket: SweepTicket,
        on_cell: &mut dyn FnMut(usize, &SweepCell),
    ) -> SweepReport {
        let SweepTicket {
            specs,
            metas,
            configs,
            mut resolved,
            shared_of,
            jobs,
            batch,
            started,
        } = ticket;

        // Group members are ascending and the lead is the smallest, so
        // walking cells in submission order reaches each job at its
        // lead first; taking that outcome resolves the whole group into
        // `demuxed` at once and later members pop from it.
        let mut job_of: HashMap<usize, usize> = HashMap::new();
        for (job, members) in jobs.iter().enumerate() {
            for &m in members {
                job_of.insert(m, job);
            }
        }
        let mut demuxed: HashMap<usize, (Provenance, CellResult, Duration)> = HashMap::new();
        // Fresh reports headed for the disk store; written in one
        // batched `put_many` after collection instead of a
        // write+rename per cell inside the streaming loop. (Memory
        // inserts stay inline so concurrent sweeps hit them at once.)
        let mut disk_batch: Vec<(CacheKey, Arc<LeakReport>)> = Vec::new();

        let mut cells: Vec<SweepCell> = Vec::with_capacity(specs.len());
        for (i, &spec) in specs.iter().enumerate() {
            let (provenance, result, elapsed) = if let Some(of) = shared_of[i] {
                // The owning cell precedes every sharer. A repeat ran no
                // pipeline, so it gets the rows without the owner's pass.
                let result = match &cells[of].result {
                    Ok(report) => Ok(Arc::new(LeakReport::from_rows(report.rows().to_vec()))),
                    Err(e) => Err(Arc::clone(e)),
                };
                (Provenance::Shared { of }, result, Duration::ZERO)
            } else if let Some((provenance, result)) = resolved[i].take() {
                (provenance, result, Duration::ZERO)
            } else {
                if !demuxed.contains_key(&i) {
                    let job = job_of[&i];
                    debug_assert_eq!(jobs[job][0], i, "first unresolved member is the lead");
                    let outcome = batch
                        .as_ref()
                        .expect("unresolved cells imply a batch")
                        .take_outcome(job);
                    self.demux_outcome(
                        &jobs[job],
                        &metas,
                        &configs,
                        outcome,
                        &mut demuxed,
                        &mut disk_batch,
                    );
                }
                demuxed.remove(&i).expect("demux covered every member")
            };
            let cell = SweepCell {
                spec,
                name: metas[i].1.clone(),
                key: metas[i].0,
                provenance,
                result,
                elapsed,
            };
            on_cell(i, &cell);
            cells.push(cell);
        }

        if let Some(disk) = &self.disk {
            disk.put_many(disk_batch.iter().map(|(k, r)| (*k, r.as_ref())));
        }

        SweepReport {
            cells,
            wall: started.elapsed(),
        }
    }

    /// Splits one executor outcome back into per-cell results. A solo
    /// group's report passes through untouched (the worker ran the
    /// plain analysis path, so its rows *are* the cell's suite); a
    /// grouped outcome carries the union suite, and each member's solo
    /// suite is projected out by row selection — nothing is recomputed,
    /// so grouped rows are byte-for-byte what a solo run yields. The
    /// lead is `Computed` with the pass's wall time and profile; other
    /// members are [`Provenance::SharedPass`] at zero elapsed with an
    /// all-zero profile. The caches store every member's rows with an
    /// all-zero profile (one row copy for the lead), so a later memory
    /// hit reads like a disk hit. Errors (including
    /// cancellations) apply to every member and, like solo errors, are
    /// never cached.
    fn demux_outcome(
        &self,
        members: &[usize],
        metas: &[(CacheKey, String)],
        configs: &[AnalysisConfig],
        outcome: leakaudit_analyzer::BatchOutcome,
        demuxed: &mut HashMap<usize, (Provenance, CellResult, Duration)>,
        disk_batch: &mut Vec<(CacheKey, Arc<LeakReport>)>,
    ) {
        let lead = members[0];
        match outcome.result {
            Ok(union) => {
                let union = Arc::new(union);
                for (pos, &m) in members.iter().enumerate() {
                    let report = if members.len() == 1 {
                        Arc::clone(&union)
                    } else {
                        let rows = configs[m]
                            .observer_suite()
                            .into_iter()
                            .map(|spec| {
                                union
                                    .rows()
                                    .iter()
                                    .find(|row| row.spec == spec)
                                    .expect("union suite covers every member suite")
                                    .clone()
                            })
                            .collect();
                        let profile = if pos == 0 {
                            union.profile()
                        } else {
                            AnalysisProfile::default()
                        };
                        Arc::new(LeakReport::new(rows, profile))
                    };
                    // The caches keep the rows alone: a later hit ran
                    // no pipeline, so it must not carry the lead's pass.
                    let cached = if pos == 0 {
                        Arc::new(LeakReport::from_rows(report.rows().to_vec()))
                    } else {
                        Arc::clone(&report)
                    };
                    let key = metas[m].0;
                    self.memory.put(key, Arc::clone(&cached));
                    if self.disk.is_some() {
                        disk_batch.push((key, cached));
                    }
                    let (provenance, elapsed) = if pos == 0 {
                        (Provenance::Computed, outcome.elapsed)
                    } else {
                        (Provenance::SharedPass { of: lead }, Duration::ZERO)
                    };
                    demuxed.insert(m, (provenance, Ok(report), elapsed));
                }
            }
            // Errors (including cancellations and exhausted budgets)
            // are not cached: a raised limit or a resubmitted sweep
            // should get a fresh run.
            Err(e) => {
                let e = Arc::new(e);
                for (pos, &m) in members.iter().enumerate() {
                    let (provenance, elapsed) = if pos == 0 {
                        (Provenance::Computed, outcome.elapsed)
                    } else {
                        (Provenance::SharedPass { of: lead }, Duration::ZERO)
                    };
                    demuxed.insert(m, (provenance, Err(Arc::clone(&e)), elapsed));
                }
            }
        }
    }

    /// The (base key, name) of one cell. Built at most once per engine:
    /// the memo answers repeats, and a first-time build is handed back
    /// so the caller can reuse the scenario instead of rebuilding it.
    fn cell_meta(&self, spec: &ScenarioSpec) -> ((BaseKey, String), Option<Scenario>) {
        if let Some(meta) = self.plan.lock().expect("plan poisoned").get(spec) {
            return (meta.clone(), None);
        }
        let scenario = spec.build();
        let meta = (BaseKey::for_scenario(&scenario), scenario.name.clone());
        self.plan
            .lock()
            .expect("plan poisoned")
            .insert(*spec, meta.clone());
        (meta, Some(scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_scenarios::{FamilyParams, Opt};

    fn small_registry() -> Registry {
        // Fast cells only: keeps the unit suite quick; the full default
        // matrix runs in the integration suite.
        Registry::from_specs(vec![
            ScenarioSpec::new(
                FamilyParams::SquareMultiply {
                    stub_stride: 0x40,
                    secret_bits: 1,
                },
                6,
            ),
            ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
            ScenarioSpec::new(
                FamilyParams::LookupUnprotected {
                    opt: Opt::O2,
                    entries: 7,
                    stride: 4,
                },
                6,
            ),
        ])
    }

    #[test]
    fn cold_sweep_computes_warm_sweep_hits() {
        let engine = SweepEngine::new();
        let registry = small_registry();
        let cold = engine.run(&registry);
        assert_eq!(cold.computed(), registry.len());
        assert_eq!(cold.reused(), 0);

        let warm = engine.run(&registry);
        assert_eq!(warm.computed(), 0);
        assert_eq!(warm.reused(), registry.len());
        for (a, b) in cold.cells().iter().zip(warm.cells()) {
            assert_eq!(b.provenance, Provenance::MemoryHit);
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.rows(), rb.rows(), "warm hits serve the original rows");
            assert_eq!(rb.profile(), AnalysisProfile::default(), "without its pass");
        }
    }

    #[test]
    fn repeated_specs_are_deduplicated_within_one_sweep() {
        let engine = SweepEngine::new();
        let spec = ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6);
        let report = engine.run_specs(&[spec, spec, spec]);
        assert_eq!(report.computed(), 1, "one analysis serves all three");
        assert_eq!(report.cells()[0].provenance, Provenance::Computed);
        let lead = report.cells()[0].result.as_ref().unwrap();
        assert_eq!(lead.profile().runs, 1, "the lead carries its pass");
        for cell in &report.cells()[1..] {
            assert_eq!(cell.provenance, Provenance::Shared { of: 0 });
            let repeat = cell.result.as_ref().unwrap();
            assert_eq!(repeat.rows(), lead.rows());
            assert_eq!(
                repeat.profile(),
                AnalysisProfile::default(),
                "no pass of its own"
            );
        }
        // A later single query hits the memory cache.
        let again = engine.query(&spec);
        assert_eq!(again.provenance, Provenance::MemoryHit);
    }

    #[test]
    fn table_rendering_mentions_provenance() {
        let engine = SweepEngine::new();
        let registry = small_registry();
        engine.run(&registry);
        let table = engine.run(&registry).to_table();
        assert!(table.contains("memory"));
        assert!(table.contains("computed, "));
        assert!(table.contains("square-and-multiply-1.5.2"));
    }
}
