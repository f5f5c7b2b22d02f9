//! The observer-sink pipeline: per-observer trace bookkeeping behind a
//! trait, decoupled from configuration scheduling.
//!
//! # Why a pipeline
//!
//! The scheduler's fixpoint iteration (see [`crate::scheduler`]) never
//! inspects trace state: forking, joining, and stepping depend only on
//! program counters and abstract machine states. Trace bookkeeping is a
//! pure *consumer* of what the scheduler does. This module exploits that
//! one-way data flow: the single abstract-interpretation pass emits a
//! stream of [`TraceEvent`]s, and one [`ObserverSink`] per observer spec
//! replays the stream against its own [`TraceDag`]. Sinks never
//! communicate with each other, so the pipeline buffers the stream and
//! hands each chunk to every sink in turn — one engine pass feeds the
//! whole observer suite instead of interleaving 18 cursor updates into
//! the scheduler loop.
//!
//! # Mapping onto the paper
//!
//! Each sink implements the per-observer protocol of §6.4 verbatim:
//! `Fork` duplicates a frontier cursor ([`TraceDag::clone_cursor`]),
//! `Merge` applies the delayed ε-join ([`TraceDag::merge_cursors`]),
//! `Access` is the update rule (projection at update time), and `Retire`
//! folds a halted path into the final frontier. The final count per sink
//! is `cnt^π(v)` of Theorem 1 / Proposition 2; because every sink sees
//! the events of *every* abstract path in the order the scheduler
//! produced them, the per-sink replay is observationally identical to
//! the old engine that threaded one `Vec<Option<Cursor>>` through every
//! configuration — bit-for-bit, as the batch-consistency suite checks.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use leakaudit_core::{Cursor, DagStep, Label, MemoKey, ObsSet, TraceDag, ValueSet};
use leakaudit_mpi::Natural;

use crate::report::{Channel, LeakRow, MemoStats, ObserverSpec, PhaseTimings};

/// FxHash-style multiply-xor hasher (the rustc/Firefox construction):
/// [`MemoKey`]s are hashed once per trace event per sink, so SipHash's
/// per-call setup would dominate the projection cache it guards.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Identifier of one live configuration (abstract execution path).
///
/// Allocated by the scheduler, monotonically increasing; sinks use it to
/// key their cursor bookkeeping. Replaces the old scheme where every
/// configuration carried a positionally-indexed `Vec<Option<Cursor>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigId(pub(crate) u64);

impl ConfigId {
    /// The initial configuration every run starts from. The scheduler
    /// allocates ids upward from here; sinks seed their root cursor
    /// under this id.
    pub const ROOT: ConfigId = ConfigId(0);

    /// Build a configuration id from a raw value. External drivers (and the
    /// replay property tests) use this to synthesise event streams without
    /// going through the scheduler's allocator; ids only need to be unique
    /// among the configurations live at any given moment.
    pub fn from_raw(id: u64) -> ConfigId {
        ConfigId(id)
    }
}

/// Which kind of memory access an [`TraceEvent::Access`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An instruction fetch (visible to I-cache and shared observers).
    Fetch,
    /// A data access (visible to D-cache and shared observers).
    Data,
}

impl AccessKind {
    /// Whether an observer watching `channel` sees this access.
    pub fn visible_to(self, channel: Channel) -> bool {
        match channel {
            Channel::Instruction => self == AccessKind::Fetch,
            Channel::Data => self == AccessKind::Data,
            Channel::Shared => true,
        }
    }
}

/// One scheduler action relevant to trace bookkeeping, in the exact
/// order the abstract interpretation performed it.
///
/// `Access` dwarfs the bookkeeping variants (it carries the address set
/// inline), but it is also the overwhelming majority of the stream —
/// boxing it to shrink the enum would buy nothing and cost a heap
/// allocation per access on the hottest path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Configuration `parent` forked; `child` continues on the taken
    /// branch with a duplicated frontier.
    Fork {
        /// The configuration that hit the undecided branch.
        parent: ConfigId,
        /// The new configuration for the taken path.
        child: ConfigId,
    },
    /// Configuration `from` reached the same pc as `into` and was joined
    /// into it (paper §6.4 join; `into`'s cursor is the left operand).
    Merge {
        /// The surviving configuration.
        into: ConfigId,
        /// The configuration dissolved into it.
        from: ConfigId,
    },
    /// A memory access with the given set of possible addresses.
    Access {
        /// The configuration performing the access.
        config: ConfigId,
        /// Fetch or data.
        kind: AccessKind,
        /// The abstract address set. Its [`MemoKey`] is *not* carried in
        /// the event — inline keys would double the event size and every
        /// event is moved through buffers on the hot path; the consuming
        /// class sinks derive it once per visible event instead.
        addresses: ValueSet,
    },
    /// The configuration reached `hlt`; its frontier joins the final
    /// cursor the leakage count is taken from.
    Retire {
        /// The halting configuration.
        config: ConfigId,
    },
    /// A script token: the next `events` events on the bus are the
    /// `Access` events of one replay of interpreter script `script` for
    /// configuration `config`, emitted back to back (the scheduler
    /// replays a script synchronously, so no other event can interleave
    /// and markers never nest). Purely an announcement — the access
    /// events that follow are complete on their own, so sinks without a
    /// script memo simply ignore it. [`DagSink`] uses the token to
    /// memoize the run's net DAG delta per lane and, once recorded,
    /// apply it in bulk instead of replaying the run event by event.
    Script {
        /// The configuration whose script is replaying.
        config: ConfigId,
        /// Run-unique script id (see the interpreter's decode cache).
        script: u32,
        /// Number of `Access` events one replay emits.
        events: u32,
        /// Whether fork siblings were live during the replay (the
        /// lone/forked split of the sink hit counters).
        forked: bool,
    },
}

impl TraceEvent {
    /// Builds an [`TraceEvent::Access`].
    pub fn access(config: ConfigId, kind: AccessKind, addresses: ValueSet) -> Self {
        TraceEvent::Access {
            config,
            kind,
            addresses,
        }
    }
}

/// Trace bookkeeping for one *equivalence class* of observers fed by the
/// scheduler's event stream.
///
/// Implementations own whatever state their observers need (for the
/// paper's analysis: one [`TraceDag`] plus one cursor per live
/// configuration, per observer) and produce one [`LeakRow`] per served
/// spec when the stream ends. Most sinks serve a single spec; the class
/// sink built by [`DagSink::for_class`] serves every spec of one
/// (channel, offset-bits) class from a shared per-event front end.
pub trait ObserverSink {
    /// Consumes one scheduler event.
    fn absorb(&mut self, event: &TraceEvent);

    /// Consumes a batch of events. The default forwards to
    /// [`ObserverSink::absorb`]; the pipeline's chunked bus calls this so a
    /// sink's per-chunk setup (if any) runs once per chunk.
    fn absorb_chunk(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.absorb(event);
        }
    }

    /// Finishes the stream: count traces and convert to leakage bounds,
    /// one row per served spec, in the sink's row order.
    fn into_rows(self: Box<Self>) -> Vec<LeakRow>;

    /// The memo counters this sink accumulated (sink-side script
    /// replay). The default reports none; the pipeline reads this just
    /// before [`ObserverSink::into_rows`] and folds it into the run's
    /// [`MemoStats`].
    fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }
}

/// Consecutive failed bulk-apply guards (or broken recordings) before a
/// lane stops re-recording a script's delta, mirroring the interpreter
/// memo's cooldown: a script whose entry context never stabilizes pays
/// the journaling a bounded number of times, with a periodic retry
/// (every 16th sight) so late-stabilizing contexts can warm back up.
const SCRIPT_COLD_CAP: u8 = 12;

/// One lane's memo slot for one interpreter script.
struct LaneScript {
    state: ScriptState,
    /// Consecutive guard failures / broken recordings (see
    /// [`SCRIPT_COLD_CAP`]).
    cold: u8,
}

/// The two-touch lifecycle of a lane's script delta: the first sight of
/// a script merely primes the slot (scripts that replay once cost no
/// journaling), the second records the per-event steps, the third and
/// later apply the recorded delta in bulk whenever the guard passes.
enum ScriptState {
    /// Seen once: journal on the next sight.
    Primed,
    /// Recorded: apply in bulk when the guard passes.
    Ready(ScriptDelta),
}

/// The net cursor transition of one script run through one lane: the
/// frontier ("entry") vertex context it was journaled against, the
/// in-place repetition bumps it applies to that vertex, and the chain of
/// appended vertices. Deliberately free of vertex ids — labels and
/// observations only — so a delta survives DAG compaction.
///
/// Validity argument: every vertex the chain appends is fresh, so its
/// step decisions depend only on the (fixed) script observation
/// sequence and the lane's stuttering flag. The only live state a
/// replay consults is the entry vertex — its label (stutter/bump vs
/// extend) and its exclusivity (bump vs extend) — which is exactly what
/// the guard pins. Projection is deterministic per address set, so the
/// same script yields the same observations every run.
struct ScriptDelta {
    /// Label of the entry vertex at journal time.
    entry_label: Label,
    /// Whether the entry vertex was exclusively owned at journal time.
    entry_exclusive: bool,
    /// Bump steps taken on the entry vertex before the first extend.
    entry_bumps: u64,
    /// Appended vertices: one `(observation, repetitions)` link per
    /// extend, with the following bumps folded into the count.
    chain: Vec<(ObsSet, u64)>,
    /// Whether this lane consumed any event of the run at all. An
    /// untouched delta (channel-invisible script) replays as a no-op
    /// under *any* frontier, so the guard skips the entry checks — a
    /// data lane must not veto a fetch-only script over an unrelated
    /// frontier change.
    touched: bool,
    /// The journaled run broke the singleton-frontier shape (or the bus
    /// contract) mid-script: discard instead of storing at finish.
    broken: bool,
}

impl ScriptDelta {
    /// A journal opened against the given entry context (`None` when the
    /// frontier was not a singleton — recorded as already broken).
    fn open(entry: Option<(Label, bool)>) -> ScriptDelta {
        let broken = entry.is_none();
        let (entry_label, entry_exclusive) = entry.unwrap_or((Label::Epsilon, false));
        ScriptDelta {
            entry_label,
            entry_exclusive,
            entry_bumps: 0,
            chain: Vec::new(),
            touched: false,
            broken,
        }
    }
}

/// One observer's replay state inside a [`DagSink`]: its own DAG, its
/// cursor table (dense, indexed by [`ConfigId`] — ids are allocated
/// monotonically from zero, so the table stays small and hash-free),
/// and its script delta memo.
struct Lane {
    spec: ObserverSpec,
    dag: TraceDag,
    cursors: Vec<Option<Cursor>>,
    finals: Option<Cursor>,
    /// Per-script delta memo, indexed by the run-unique script id. The
    /// decode cache allocates ids densely from zero, so a flat table
    /// replaces two hash probes per marker per lane with direct loads —
    /// markers outnumber the events they elide only a few to one, so
    /// per-marker cost decides whether the script memo pays for itself.
    /// Entries survive compaction (no vertex ids inside).
    scripts: Vec<Option<LaneScript>>,
    /// The journal of the script run currently replaying per event
    /// through this lane: `(script id, replaying config, delta so far)`.
    /// Moved into `scripts` when the sink sees the run's last event.
    journal: Option<(u32, ConfigId, ScriptDelta)>,
}

impl Lane {
    fn new(spec: ObserverSpec, initial: ConfigId) -> Self {
        let (dag, cursor) = TraceDag::new(spec.observer);
        let mut lane = Lane {
            spec,
            dag,
            cursors: Vec::new(),
            finals: None,
            scripts: Vec::new(),
            journal: None,
        };
        lane.put(initial, cursor);
        lane
    }

    fn take(&mut self, id: ConfigId) -> Cursor {
        self.cursors
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .expect("cursor present for config")
    }

    fn put(&mut self, id: ConfigId, cursor: Cursor) {
        let idx = id.0 as usize;
        if idx >= self.cursors.len() {
            self.cursors.resize_with(idx + 1, || None);
        }
        self.cursors[idx] = Some(cursor);
    }

    fn fork(&mut self, parent: ConfigId, child: ConfigId) {
        let cloned = {
            let cur = self.cursors[parent.0 as usize]
                .as_ref()
                .expect("cursor present for config");
            self.dag.clone_cursor(cur)
        };
        self.put(child, cloned);
    }

    fn merge(&mut self, into: ConfigId, from: ConfigId) {
        let mine = self.take(into);
        let theirs = self.take(from);
        let merged = self.dag.merge_cursors(mine, theirs);
        self.put(into, merged);
        self.maybe_compact();
    }

    /// Advances `config`'s cursor by one observation. A live journal for
    /// `config` records the step this event takes; the mutation path is
    /// shared, so observing cannot change it.
    fn access(&mut self, config: ConfigId, obs: &ObsSet) {
        let cur = self.take(config);
        let cur = match self.journal.as_mut() {
            Some((_, jc, delta)) if *jc == config && !delta.broken => {
                delta.touched = true;
                if cur.vertices().len() == 1 {
                    let (cur, step) = self.dag.update_observed(cur, obs);
                    match step {
                        DagStep::Stutter => {}
                        DagStep::Bump => match delta.chain.last_mut() {
                            Some(link) => link.1 += 1,
                            None => delta.entry_bumps += 1,
                        },
                        DagStep::Extend => delta.chain.push((obs.clone(), 1)),
                    }
                    cur
                } else {
                    // A multi-vertex frontier mid-script cannot be
                    // captured by the singleton-shaped delta.
                    delta.broken = true;
                    self.dag.update(cur, obs)
                }
            }
            _ => self.dag.update(cur, obs),
        };
        self.put(config, cur);
    }

    /// Whether the recorded delta for `script` may be applied in bulk to
    /// `config`'s cursor right now: the slot is ready and the live entry
    /// context matches the journaled one (vacuously for a delta this
    /// lane never saw an event of).
    fn script_ready(&self, script: u32, config: ConfigId) -> bool {
        let Some(Some(LaneScript {
            state: ScriptState::Ready(delta),
            ..
        })) = self.scripts.get(script as usize)
        else {
            return false;
        };
        if !delta.touched {
            return true;
        }
        match self.cursors.get(config.0 as usize).and_then(Option::as_ref) {
            Some(cur) => match cur.vertices() {
                &[v] => {
                    *self.dag.label(v) == delta.entry_label
                        && self.dag.is_exclusive(v) == delta.entry_exclusive
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Applies the recorded delta for `script` in bulk. Caller must have
    /// checked [`Lane::script_ready`].
    fn apply_script(&mut self, script: u32, config: ConfigId) {
        let slot = self.scripts[script as usize]
            .as_mut()
            .expect("checked ready");
        slot.cold = 0;
        let ScriptState::Ready(delta) = &slot.state else {
            unreachable!("checked ready")
        };
        if !delta.touched {
            return;
        }
        let cur = self.cursors[config.0 as usize]
            .take()
            .expect("cursor present for config");
        let cur = self
            .dag
            .apply_script_delta(cur, delta.entry_bumps, &delta.chain);
        self.cursors[config.0 as usize] = Some(cur);
    }

    /// Script marker on the per-event fallback path: advance this lane's
    /// memo state for `script`, opening a journal when this sight should
    /// record (second sight, or a guard-failed re-record within the
    /// cooldown). `self_ready` says this lane's own guard passed — a
    /// sibling lane forced the fallback — so its delta is kept as is
    /// (re-journaling would record the identical delta).
    fn script_fallback(&mut self, script: u32, config: ConfigId, self_ready: bool) {
        let idx = script as usize;
        if idx >= self.scripts.len() {
            self.scripts.resize_with(idx + 1, || None);
        }
        let slot = match &mut self.scripts[idx] {
            vacant @ None => {
                *vacant = Some(LaneScript {
                    state: ScriptState::Primed,
                    cold: 0,
                });
                return;
            }
            Some(slot) => slot,
        };
        let record = match &slot.state {
            ScriptState::Primed => true,
            ScriptState::Ready(_) if self_ready => false,
            ScriptState::Ready(_) => {
                slot.cold = slot.cold.saturating_add(1);
                true
            }
        };
        if !record || (slot.cold >= SCRIPT_COLD_CAP && slot.cold & 0x0F != 0) {
            return;
        }
        let entry = self
            .cursors
            .get(config.0 as usize)
            .and_then(Option::as_ref)
            .and_then(|cur| match cur.vertices() {
                &[v] => Some((self.dag.label(v).clone(), self.dag.is_exclusive(v))),
                _ => None,
            });
        self.journal = Some((script, config, ScriptDelta::open(entry)));
    }

    /// Ends the journaling window for `script`: a clean journal becomes
    /// the ready delta, a broken one bumps the cooldown and leaves the
    /// previous state in place.
    fn finish_script(&mut self, script: u32) {
        let Some((journaled, _, delta)) = self.journal.take() else {
            return;
        };
        debug_assert_eq!(journaled, script, "journal crosses script windows");
        let Some(Some(slot)) = self.scripts.get_mut(script as usize) else {
            return;
        };
        if delta.broken {
            slot.cold = slot.cold.saturating_add(1);
        } else {
            slot.state = ScriptState::Ready(delta);
        }
    }

    /// Marks the open journal (if any) unusable — the bus contract was
    /// violated mid-window, so whatever was journaled is not one clean
    /// script run.
    fn poison_journal(&mut self) {
        if let Some((_, _, delta)) = self.journal.as_mut() {
            delta.broken = true;
        }
    }

    fn retire(&mut self, config: ConfigId) {
        let cur = self.take(config);
        self.finals = Some(match self.finals.take() {
            None => cur,
            Some(acc) => self.dag.merge_cursors(acc, cur),
        });
        self.maybe_compact();
    }

    /// Reclaim dead DAG vertices once they dominate the table. Joins are
    /// the only producer of dead vertices, so this runs after `Merge`
    /// and `Retire` events; fork-heavy runs (defensive copies analyzed
    /// with thousands of joins) otherwise re-scan an ever-growing
    /// graveyard in every counting pass.
    fn maybe_compact(&mut self) {
        const MIN_DEAD: usize = 1024;
        if self.dag.dead_vertices() >= MIN_DEAD
            && self.dag.dead_vertices() * 2 >= self.dag.vertex_count()
        {
            self.dag.compact(
                self.cursors
                    .iter_mut()
                    .flatten()
                    .chain(self.finals.as_mut()),
            );
        }
    }

    fn into_row(self) -> LeakRow {
        let (count, bits) = match &self.finals {
            Some(cur) => {
                let n = self.dag.count(cur);
                let bits = TraceDag::bits_for_count(&n);
                (n, bits)
            }
            // No path reached hlt: zero traces.
            None => (Natural::zero(), 0.0),
        };
        LeakRow {
            spec: self.spec,
            count,
            bits,
        }
    }
}

/// The standard sink: the replay state of one offset-bits equivalence
/// class of observers, one [`Lane`] per member spec behind a shared
/// per-event front end.
///
/// Every lane of a class projects addresses identically — projection
/// depends only on the offset bits; neither the channel (which decides
/// *visibility*, filtered per lane) nor stuttering (which changes how a
/// lane's DAG consumes an observation, never the observation itself)
/// enters it. So the class sink derives the [`MemoKey`] and resolves
/// the projection **once per event**, then fans the resolved [`ObsSet`]
/// out to the lanes whose channel sees the access. Grouping by offset
/// alone (rather than per (channel, offset) pair) matters on the hot
/// path: a fetch used to be keyed, hashed, and resolved separately by
/// the instruction-channel and shared-channel sinks of every
/// granularity; now each granularity pays once. Lanes are *not* merged
/// into one DAG: stuttering and exact observers build structurally
/// different DAGs (a stutter keeps the cursor on a vertex an exact
/// observer would have extended past), so sharing a DAG across them
/// would change counts.
///
/// The sink also consumes [`TraceEvent::Script`] markers: a script whose
/// delta every lane has recorded (and whose guards pass) is applied as
/// one bulk DAG mutation per lane, and the run's events are skipped
/// wholesale. The application is all-or-nothing across lanes so the skip
/// counter stays a single per-sink scalar; any lane falling back sends
/// the whole run down the per-event path, which doubles as the journaling
/// pass that records (or refreshes) the lane deltas.
pub struct DagSink {
    lanes: Vec<Lane>,
    /// Whether any lane sees (fetches, data accesses) — lets the front
    /// end skip key derivation and projection for invisible kinds.
    sees: (bool, bool),
    proj: HashMap<MemoKey, ObsSet, BuildHasherDefault<FxHasher>>,
    /// Events left to skip after a script delta was applied in bulk
    /// (sink state, so it spans chunk boundaries).
    skip: u32,
    /// The script run currently replaying per event (lanes journal it).
    recording: Option<ScriptRun>,
    /// Sink-side script counters, folded into the run's [`MemoStats`].
    stats: MemoStats,
}

/// A script window being consumed per event: countdown bookkeeping for
/// the journaling fallback path.
struct ScriptRun {
    script: u32,
    config: ConfigId,
    remaining: u32,
}

impl DagSink {
    /// Creates a single-spec sink with the root cursor owned by
    /// `initial`.
    pub fn new(spec: ObserverSpec, initial: ConfigId) -> Self {
        DagSink::for_class(std::slice::from_ref(&spec), initial)
    }

    /// Creates one sink serving a whole offset-bits equivalence class,
    /// one lane per spec in the given row order.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or the specs disagree on offset bits
    /// (they would not project identically).
    pub fn for_class(specs: &[ObserverSpec], initial: ConfigId) -> Self {
        let first = specs.first().expect("class has at least one spec");
        assert!(
            specs
                .iter()
                .all(|s| s.observer.offset_bits() == first.observer.offset_bits()),
            "class specs must share offset bits"
        );
        DagSink {
            lanes: specs.iter().map(|&s| Lane::new(s, initial)).collect(),
            sees: (
                specs
                    .iter()
                    .any(|s| AccessKind::Fetch.visible_to(s.channel)),
                specs.iter().any(|s| AccessKind::Data.visible_to(s.channel)),
            ),
            proj: HashMap::default(),
            skip: 0,
            recording: None,
            stats: MemoStats::default(),
        }
    }

    /// Handles a [`TraceEvent::Script`] marker: bulk-apply when every
    /// lane's delta is ready and guarded, otherwise fall back to
    /// per-event replay with the lanes journaling.
    fn script_marker(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        if events == 0 {
            return;
        }
        if self.recording.is_some() {
            // A marker inside another marker's window violates the bus
            // contract; poison the open journals rather than record lies.
            self.recording = None;
            for lane in &mut self.lanes {
                lane.journal = None;
            }
        }
        if self
            .lanes
            .iter()
            .all(|lane| lane.script_ready(script, config))
        {
            for lane in &mut self.lanes {
                lane.apply_script(script, config);
            }
            self.skip = events;
            self.stats.sink_script_hits += 1;
            if forked {
                self.stats.sink_script_hits_forked += 1;
            } else {
                self.stats.sink_script_hits_lone += 1;
            }
            self.stats.sink_script_events += u64::from(events);
        } else {
            for i in 0..self.lanes.len() {
                let ready = self.lanes[i].script_ready(script, config);
                self.lanes[i].script_fallback(script, config, ready);
            }
            self.recording = Some(ScriptRun {
                script,
                config,
                remaining: events,
            });
        }
    }

    /// The pre-script per-event dispatch (everything but
    /// [`TraceEvent::Script`] handling and window bookkeeping).
    fn dispatch(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Fork { parent, child } => {
                for lane in &mut self.lanes {
                    lane.fork(*parent, *child);
                }
            }
            TraceEvent::Merge { into, from } => {
                for lane in &mut self.lanes {
                    lane.merge(*into, *from);
                }
            }
            TraceEvent::Access {
                config,
                kind,
                addresses,
            } => {
                // The memo key is derived and the projection resolved
                // once per class; all lanes project identically, so
                // lane 0's observer stands in for the class. The
                // observation is *borrowed* out of the projection map
                // for the lane fan-out — cloning it per event would
                // put an allocation on the hottest path for every
                // multi-element address set. Visibility is a per-lane
                // channel filter.
                let visible = match kind {
                    AccessKind::Fetch => self.sees.0,
                    AccessKind::Data => self.sees.1,
                };
                if !visible {
                    return;
                }
                let key = addresses.memo_key();
                let observer = self.lanes[0].dag.observer();
                let obs = self
                    .proj
                    .entry(key)
                    .or_insert_with(|| observer.project_set(addresses));
                for lane in &mut self.lanes {
                    if kind.visible_to(lane.spec.channel) {
                        lane.access(*config, obs);
                    }
                }
            }
            TraceEvent::Retire { config } => {
                for lane in &mut self.lanes {
                    lane.retire(*config);
                }
            }
            TraceEvent::Script { .. } => unreachable!("handled before dispatch"),
        }
    }
}

impl ObserverSink for DagSink {
    fn absorb_chunk(&mut self, events: &[TraceEvent]) {
        // Runs of events covered by an applied script delta are skipped
        // in one stride instead of one decrement per event.
        let mut i = 0;
        while i < events.len() {
            if self.skip > 0 {
                let stride = (self.skip as usize).min(events.len() - i);
                self.skip -= stride as u32;
                i += stride;
                continue;
            }
            self.absorb(&events[i]);
            i += 1;
        }
    }

    fn absorb(&mut self, event: &TraceEvent) {
        // Events covered by an applied script delta: already accounted
        // for in bulk, skip them wholesale.
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        if let TraceEvent::Script {
            config,
            script,
            events,
            forked,
        } = event
        {
            self.script_marker(*config, *script, *events, *forked);
            return;
        }
        // Inside a journaling window: count the run's events down and
        // sanity-check the bus contract (only the replaying config's
        // access events may appear; anything else poisons the journals).
        let finish = match &mut self.recording {
            Some(run) => {
                if !matches!(event, TraceEvent::Access { config, .. } if *config == run.config) {
                    for lane in &mut self.lanes {
                        lane.poison_journal();
                    }
                }
                run.remaining -= 1;
                (run.remaining == 0).then_some(run.script)
            }
            None => None,
        };
        self.dispatch(event);
        if let Some(script) = finish {
            self.recording = None;
            for lane in &mut self.lanes {
                lane.finish_script(script);
            }
        }
    }

    fn into_rows(self: Box<Self>) -> Vec<LeakRow> {
        self.lanes.into_iter().map(Lane::into_row).collect()
    }

    fn memo_stats(&self) -> MemoStats {
        self.stats
    }
}

/// Where the scheduler publishes its events.
pub trait EventBus {
    /// Emits one event to every sink.
    fn emit(&mut self, event: TraceEvent);

    /// Announces that the next `events` access events for `config` are
    /// one replay of interpreter script `script`. The default is a
    /// no-op: the events that follow are complete on their own, so
    /// buses feeding plain collectors (tests, external drivers) never
    /// surface script identity and their raw streams stay unchanged.
    /// The pipeline's bus forwards a [`TraceEvent::Script`] marker.
    fn emit_script(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        let _ = (config, script, events, forked);
    }
}

/// Events buffered between flushes of the pipeline's bus. Looping every
/// sink over one buffered batch keeps each sink's working set hot per
/// chunk and needs only two clock reads per chunk to attribute replay
/// time. Script markers and skip strides span chunk boundaries, so the
/// value changes no result.
const CHUNK: usize = 256;

/// Runs a set of sinks against the event stream produced by `drive`.
///
/// Events are buffered and applied to every sink in `CHUNK`-sized
/// (256-event) batches on the calling thread. Row order in the result
/// is sink order, flattened over each sink's
/// [`ObserverSink::into_rows`]. If `drive` errors, the partial rows are
/// discarded and the error is returned.
///
/// The returned [`PhaseTimings`] split the run's wall clock into three
/// disjoint phases: interpretation (scheduler fixpoint), replay (sink
/// event consumption) and counting (Proposition 2 arithmetic).
///
/// The returned [`MemoStats`] are the sinks' own counters (sink-side
/// script replay), summed across sinks; the caller folds them into the
/// interpreter's.
pub fn run_pipeline<E>(
    sinks: Vec<Box<dyn ObserverSink>>,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<(Vec<LeakRow>, PhaseTimings, MemoStats), E> {
    let mut bus = SerialBus {
        sinks,
        buffer: Vec::with_capacity(CHUNK),
        replay: Duration::ZERO,
    };
    let started = Instant::now();
    drive(&mut bus)?;
    bus.flush();
    let interpret = started.elapsed().saturating_sub(bus.replay);
    let mut memo = MemoStats::default();
    for sink in &bus.sinks {
        memo.accumulate(&sink.memo_stats());
    }
    let counting = Instant::now();
    let rows: Vec<LeakRow> = bus
        .sinks
        .into_iter()
        .flat_map(ObserverSink::into_rows)
        .collect();
    let timings = PhaseTimings {
        interpret,
        replay: bus.replay,
        count: counting.elapsed(),
    };
    Ok((rows, timings, memo))
}

/// The pipeline's bus: buffers events and applies them to every sink in
/// [`CHUNK`]-sized batches (see [`run_pipeline`]).
struct SerialBus {
    sinks: Vec<Box<dyn ObserverSink>>,
    buffer: Vec<TraceEvent>,
    replay: Duration,
}

impl SerialBus {
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let started = Instant::now();
        for sink in &mut self.sinks {
            sink.absorb_chunk(&self.buffer);
        }
        self.replay += started.elapsed();
        self.buffer.clear();
    }
}

impl EventBus for SerialBus {
    fn emit(&mut self, event: TraceEvent) {
        self.buffer.push(event);
        if self.buffer.len() >= CHUNK {
            self.flush();
        }
    }

    fn emit_script(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        self.emit(TraceEvent::Script {
            config,
            script,
            events,
            forked,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    fn consts(vals: &[u64]) -> ValueSet {
        ValueSet::from_constants(vals.iter().copied(), 32)
    }

    /// The Ex. 9 protocol (fork, diverge, merge, continue) through the
    /// event-stream interface.
    fn example9_events(bus: &mut dyn EventBus) -> Result<(), std::convert::Infallible> {
        let (main, taken) = (ConfigId(0), ConfigId(1));
        for pc in [0x41a90u64, 0x41a97, 0x41a99] {
            bus.emit(TraceEvent::access(main, AccessKind::Fetch, consts(&[pc])));
        }
        bus.emit(TraceEvent::Fork {
            parent: main,
            child: taken,
        });
        for pc in [0x41a9bu64, 0x41a9d, 0x41a9f] {
            bus.emit(TraceEvent::access(main, AccessKind::Fetch, consts(&[pc])));
        }
        bus.emit(TraceEvent::Merge {
            into: main,
            from: taken,
        });
        bus.emit(TraceEvent::access(
            main,
            AccessKind::Fetch,
            consts(&[0x41aa1]),
        ));
        bus.emit(TraceEvent::Retire { config: main });
        Ok(())
    }

    /// Runs `sinks` over `drive`, keeping only the rows.
    fn rows<E>(
        sinks: Vec<Box<dyn ObserverSink>>,
        drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
    ) -> Result<Vec<LeakRow>, E> {
        run_pipeline(sinks, drive).map(|(rows, _, _)| rows)
    }

    #[test]
    fn pipeline_reproduces_example9() {
        let specs = [
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::address(),
            },
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6).stuttering(),
            },
            ObserverSpec {
                channel: Channel::Data,
                observer: Observer::address(),
            },
        ];
        let sinks: Vec<Box<dyn ObserverSink>> = specs
            .iter()
            .map(|&spec| Box::new(DagSink::new(spec, ConfigId(0))) as Box<dyn ObserverSink>)
            .collect();
        let rows = rows(sinks, example9_events).unwrap();
        assert_eq!(rows[0].count.to_u64(), Some(2), "address observer");
        assert_eq!(rows[1].count.to_u64(), Some(1), "stuttering block");
        // The data channel saw no accesses: exactly one (empty) trace.
        assert_eq!(rows[2].count.to_u64(), Some(1));
    }

    #[test]
    fn class_sink_matches_solo_sinks_bit_for_bit() {
        let specs = [
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6),
            },
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6).stuttering(),
            },
        ];
        let solo: Vec<LeakRow> = specs
            .iter()
            .map(|&spec| {
                let sinks: Vec<Box<dyn ObserverSink>> =
                    vec![Box::new(DagSink::new(spec, ConfigId(0)))];
                rows(sinks, example9_events).unwrap().remove(0)
            })
            .collect();
        let class: Vec<Box<dyn ObserverSink>> =
            vec![Box::new(DagSink::for_class(&specs, ConfigId(0)))];
        let grouped = rows(class, example9_events).unwrap();
        assert_eq!(grouped.len(), specs.len(), "one row per lane");
        for (s, g) in solo.iter().zip(&grouped) {
            assert_eq!(s.spec, g.spec);
            assert_eq!(s.count, g.count);
            assert_eq!(s.bits.to_bits(), g.bits.to_bits());
        }
    }

    #[test]
    fn retire_without_access_counts_one_trace() {
        let spec = ObserverSpec {
            channel: Channel::Shared,
            observer: Observer::address(),
        };
        let sinks: Vec<Box<dyn ObserverSink>> = vec![Box::new(DagSink::new(spec, ConfigId(0)))];
        let rows = rows(sinks, |bus| -> Result<(), std::convert::Infallible> {
            bus.emit(TraceEvent::Retire {
                config: ConfigId(0),
            });
            Ok(())
        })
        .unwrap();
        assert_eq!(rows[0].count.to_u64(), Some(1));
        assert_eq!(rows[0].bits, 0.0);
    }

    #[test]
    fn error_from_driver_discards_rows() {
        let spec = ObserverSpec {
            channel: Channel::Shared,
            observer: Observer::address(),
        };
        let sinks: Vec<Box<dyn ObserverSink>> = vec![Box::new(DagSink::new(spec, ConfigId(0)))];
        let err = rows(sinks, |bus| {
            bus.emit(TraceEvent::access(
                ConfigId(0),
                AccessKind::Data,
                consts(&[0x10]),
            ));
            Err("boom")
        })
        .unwrap_err();
        assert_eq!(err, "boom");
    }
}
