//! The observer-sink pipeline: per-observer trace bookkeeping,
//! decoupled from configuration scheduling.
//!
//! # Why a pipeline
//!
//! The scheduler's fixpoint iteration (the crate's `scheduler` module) never
//! inspects trace state: forking, joining, and stepping depend only on
//! program counters and abstract machine states. Trace bookkeeping is a
//! pure *consumer* of what the scheduler does. This module exploits that
//! one-way data flow: the single abstract-interpretation pass emits a
//! stream of [`TraceEvent`]s, and one [`DagSink`] per observer class
//! replays the stream against its own [`TraceDag`]s. Sinks never
//! communicate with each other, so the pipeline buffers the stream and
//! hands each chunk to every sink in turn — one engine pass feeds the
//! whole observer suite instead of interleaving 18 cursor updates into
//! the scheduler loop.
//!
//! The same one-way flow lets replay leave the interpreting thread. When
//! the caller allows it (the executor does when another worker has no
//! job), [`run_pipeline`] moves the sinks to one helper thread at the
//! first full chunk and ships it full chunks over a bounded channel, so
//! interpretation and replay overlap. The sinks still see one stream in
//! emission order, so the rows do not change.
//!
//! # Mapping onto the paper
//!
//! Each sink implements the per-observer protocol of §6.4 verbatim:
//! `Fork` duplicates a frontier cursor ([`TraceDag::clone_cursor`]),
//! `Merge` applies the delayed ε-join ([`TraceDag::merge_cursors`]),
//! `Access` is the update rule (projection at update time, once per
//! event per offset-bits class, then one [`TraceDag::update`] per lane),
//! and `Retire` folds a halted path into the final frontier. The final
//! count per sink is `cnt^π(v)` of Theorem 1 / Proposition 2, taken in
//! one counting pass ([`TraceDag::count`]); because every sink sees
//! the events of *every* abstract path in the order the scheduler
//! produced them, the per-sink replay is observationally identical to
//! the old engine that threaded one `Vec<Option<Cursor>>` through every
//! configuration — bit-for-bit, as the batch-consistency suite checks.

use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use leakaudit_core::{Cursor, ObsSet, TraceDag, ValueSet};
use leakaudit_mpi::Natural;

use crate::report::{AnalysisProfile, Channel, LeakRow, ObserverSpec};

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
/// `Access` carries its address set inline, and a `ValueSet` is one
/// masked symbol wide, so the enum stays within 64 bytes: the event
/// buffer moves every event by value.
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
        /// The abstract address set, unprojected: each consuming class
        /// sink projects it once at its own granularity.
        addresses: ValueSet,
    },
    /// The configuration reached `hlt`; its frontier joins the final
    /// cursor the leakage count is taken from.
    Retire {
        /// The halting configuration.
        config: ConfigId,
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

/// One observer's replay state inside a [`DagSink`]: its own DAG and its
/// cursor table (dense, indexed by [`ConfigId`] — ids are allocated
/// monotonically from zero, so the table stays small and hash-free).
struct Lane {
    spec: ObserverSpec,
    dag: TraceDag,
    cursors: Vec<Option<Cursor>>,
    finals: Option<Cursor>,
}

impl Lane {
    fn new(spec: ObserverSpec, initial: ConfigId) -> Self {
        let (dag, cursor) = TraceDag::new(spec.observer);
        let mut lane = Lane {
            spec,
            dag,
            cursors: Vec::new(),
            finals: None,
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
    }

    /// Advances `config`'s cursor by one observation (the §6.4 update
    /// rule), in its own table slot.
    fn access(&mut self, config: ConfigId, obs: &ObsSet) {
        let cur = self.cursors[config.0 as usize]
            .as_mut()
            .expect("cursor present for config");
        self.dag.advance(cur, obs);
    }

    fn retire(&mut self, config: ConfigId) {
        let cur = self.take(config);
        self.finals = Some(match self.finals.take() {
            None => cur,
            Some(acc) => self.dag.merge_cursors(acc, cur),
        });
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

/// The observer sink: the replay state of one offset-bits equivalence
/// class of observers, one lane per member spec behind a shared
/// per-event front end.
///
/// Every lane of a class projects addresses identically — projection
/// depends only on the offset bits; neither the channel (which decides
/// *visibility*, filtered per lane) nor stuttering (which changes how a
/// lane's DAG consumes an observation, never the observation itself)
/// enters it. So the class sink projects the address set **once per
/// event**, then fans the borrowed [`ObsSet`] out to the lanes whose
/// channel sees the access. Grouping by offset alone (rather than per
/// (channel, offset) pair) matters on the hot path: a fetch is projected
/// once per granularity, not once by each of the instruction-channel
/// and shared-channel lanes. Lanes are *not* merged into one DAG:
/// stuttering and exact observers build structurally different DAGs (a
/// stutter keeps the cursor on a vertex an exact observer would have
/// extended past), so sharing a DAG across them would change counts.
pub struct DagSink {
    lanes: Vec<Lane>,
    /// Whether any lane sees (fetches, data accesses) — lets the front
    /// end skip projection for invisible kinds.
    sees: (bool, bool),
}

impl DagSink {
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
        }
    }

    /// Consumes one scheduler event.
    pub fn absorb(&mut self, event: &TraceEvent) {
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
                // Projected once per class (paper §6.4: projection at
                // update time); all lanes project identically, so lane
                // 0's observer stands in for the class, and every lane
                // borrows the one observation. Visibility is a per-lane
                // channel filter.
                let visible = match kind {
                    AccessKind::Fetch => self.sees.0,
                    AccessKind::Data => self.sees.1,
                };
                if !visible {
                    return;
                }
                let obs = self.lanes[0].dag.observer().project_set(addresses);
                for lane in &mut self.lanes {
                    if kind.visible_to(lane.spec.channel) {
                        lane.access(*config, &obs);
                    }
                }
            }
            TraceEvent::Retire { config } => {
                for lane in &mut self.lanes {
                    lane.retire(*config);
                }
            }
        }
    }

    /// Finishes the stream: counts traces and converts them to leakage
    /// bounds, one row per lane in the class's spec order.
    fn into_rows(self) -> Vec<LeakRow> {
        self.lanes.into_iter().map(Lane::into_row).collect()
    }
}

/// Where the scheduler publishes its events.
pub trait EventBus {
    /// Emits one event to every sink.
    fn emit(&mut self, event: TraceEvent);
}

/// Events buffered between flushes of the pipeline's bus. Looping every
/// sink over one buffered batch keeps each sink's working set hot per
/// chunk and needs only two clock reads per chunk to attribute replay
/// time; the value changes no result. It is also the unit handed to the
/// replay helper, so a stream shorter than one chunk never starts it.
pub(crate) const CHUNK: usize = 256;

/// Full chunks that may wait for the replay helper before the
/// interpreting thread blocks. With the buffers in the helper's and the
/// interpreter's hands it caps the events in flight at
/// `(QUEUE + 2) * CHUNK`. The value changes no result; depths 1 and 4
/// measured level end to end.
const QUEUE: usize = 4;

// The replay helper takes the sinks to another thread.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<DagSink>();
    send::<TraceEvent>();
};

/// Runs a set of sinks against the event stream produced by `drive`.
///
/// Events are buffered and applied to every sink in `CHUNK`-sized
/// (256-event) batches. Without `offload` every batch replays on the
/// calling thread. With `offload`, the first full batch starts one
/// scoped helper thread that takes the sinks; from then on full batches
/// travel to it over a bounded channel and emptied ones come back for
/// reuse, so interpretation and replay overlap. A stream shorter than
/// one batch starts no thread. Either way each sink sees every event in
/// emission order, so the rows are bit-identical.
///
/// Row order in the result is sink order, each sink's rows in its
/// class's spec order. If `drive` errors, the helper is joined, the
/// partial rows are discarded and the error is returned. A panic on the
/// helper is re-raised on the calling thread once the helper is joined;
/// no thread outlives the call.
///
/// The returned [`AnalysisProfile`] has `runs == 1`, the three phase
/// busy times — interpretation (scheduler fixpoint, less any time spent
/// blocked on a full channel), replay (sink event consumption, on
/// whichever thread ran it) and counting (Proposition 2 arithmetic) —
/// and `offloaded == 1` when the helper ran. Step counters are the
/// caller's: `drive` sees only the bus.
pub fn run_pipeline<E>(
    sinks: Vec<DagSink>,
    offload: bool,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<(Vec<LeakRow>, AnalysisProfile), E> {
    std::thread::scope(|scope| {
        let mut bus = Bus {
            sinks,
            buffer: Vec::with_capacity(CHUNK),
            replay: Duration::ZERO,
            blocked: Duration::ZERO,
            scope: offload.then_some(scope),
            helper: None,
        };
        let started = Instant::now();
        if let Err(e) = drive(&mut bus) {
            if let Some(helper) = bus.helper.take() {
                helper.join();
            }
            return Err(e);
        }
        bus.flush();
        let interpret = started.elapsed().saturating_sub(bus.replay + bus.blocked);
        let offloaded = u64::from(bus.helper.is_some());
        let (sinks, replay) = match bus.helper.take() {
            Some(helper) => helper.join(),
            None => (bus.sinks, bus.replay),
        };
        let counting = Instant::now();
        let rows: Vec<LeakRow> = sinks.into_iter().flat_map(DagSink::into_rows).collect();
        let profile = AnalysisProfile {
            runs: 1,
            interpret_ns: interpret.as_nanos() as u64,
            replay_ns: replay.as_nanos() as u64,
            count_ns: counting.elapsed().as_nanos() as u64,
            offloaded,
            ..AnalysisProfile::default()
        };
        Ok((rows, profile))
    })
}

/// Applies one batch of events to every sink.
fn replay_chunk(sinks: &mut [DagSink], events: &[TraceEvent]) {
    for sink in sinks {
        for event in events {
            sink.absorb(event);
        }
    }
}

/// The replay helper of an offloaded [`run_pipeline`]: full batches go
/// out on `full`, emptied ones come back on `empty`, and the thread
/// hands the sinks and its replay time back when `full` closes.
struct Helper<'scope> {
    full: SyncSender<Vec<TraceEvent>>,
    empty: Receiver<Vec<TraceEvent>>,
    handle: ScopedJoinHandle<'scope, (Vec<DagSink>, Duration)>,
}

impl<'scope> Helper<'scope> {
    fn start<'env>(scope: &'scope Scope<'scope, 'env>, mut sinks: Vec<DagSink>) -> Self {
        let (full, inbox) = mpsc::sync_channel::<Vec<TraceEvent>>(QUEUE);
        let (outbox, empty) = mpsc::channel();
        let handle = scope.spawn(move || {
            let mut replay = Duration::ZERO;
            for mut events in inbox {
                let started = Instant::now();
                replay_chunk(&mut sinks, &events);
                replay += started.elapsed();
                events.clear();
                // The interpreter stops taking buffers back once its
                // stream has ended.
                let _ = outbox.send(events);
            }
            (sinks, replay)
        });
        Helper {
            full,
            empty,
            handle,
        }
    }

    /// Closes the channel and waits for the helper, re-raising its
    /// panic on this thread.
    fn join(self) -> (Vec<DagSink>, Duration) {
        drop(self.full);
        self.handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

/// The pipeline's bus: buffers events and replays them in [`CHUNK`]-sized
/// batches, inline or on the helper (see [`run_pipeline`]).
struct Bus<'scope, 'env> {
    /// The sinks while replay is inline; empty once the helper has them.
    sinks: Vec<DagSink>,
    buffer: Vec<TraceEvent>,
    /// Inline replay time.
    replay: Duration,
    /// Time the interpreting thread waited on a full channel.
    blocked: Duration,
    /// Where to start the helper: set while offload is allowed and no
    /// helper runs yet.
    scope: Option<&'scope Scope<'scope, 'env>>,
    helper: Option<Helper<'scope>>,
}

impl Bus<'_, '_> {
    /// Replays the buffered events, on the helper once it runs.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        if self.helper.is_some() {
            self.send();
        } else {
            self.replay_inline();
        }
    }

    fn replay_inline(&mut self) {
        let started = Instant::now();
        replay_chunk(&mut self.sinks, &self.buffer);
        self.replay += started.elapsed();
        self.buffer.clear();
    }

    /// Hands the buffer to the helper and takes an emptied one back (or
    /// a fresh one while all are in flight). If the helper has died,
    /// joins it, which re-raises its panic.
    fn send(&mut self) {
        let helper = self.helper.as_ref().expect("helper started");
        let next = helper
            .empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(CHUNK));
        let events = std::mem::replace(&mut self.buffer, next);
        let sent = match helper.full.try_send(events) {
            Ok(()) => true,
            Err(TrySendError::Full(events)) => {
                let started = Instant::now();
                let sent = helper.full.send(events).is_ok();
                self.blocked += started.elapsed();
                sent
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
        if !sent {
            self.helper.take().expect("helper started").join();
            unreachable!("the replay helper only hangs up by panicking");
        }
    }
}

impl EventBus for Bus<'_, '_> {
    fn emit(&mut self, event: TraceEvent) {
        self.buffer.push(event);
        if self.buffer.len() >= CHUNK {
            if let Some(scope) = self.scope.take() {
                self.helper = Some(Helper::start(scope, std::mem::take(&mut self.sinks)));
            }
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::panic_message;
    use leakaudit_core::Observer;

    /// The bus buffers [`CHUNK`] events by value, so an event stays
    /// within 64 bytes (56 on 64-bit targets, less on narrower ones).
    #[test]
    fn trace_event_stays_small() {
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
    }

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
        sinks: Vec<DagSink>,
        drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
    ) -> Result<Vec<LeakRow>, E> {
        run_pipeline(sinks, false, drive).map(|(rows, _)| rows)
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
        let sinks: Vec<DagSink> = specs
            .iter()
            .map(|spec| DagSink::for_class(std::slice::from_ref(spec), ConfigId(0)))
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
            .map(|spec| {
                let sinks = vec![DagSink::for_class(std::slice::from_ref(spec), ConfigId(0))];
                rows(sinks, example9_events).unwrap().remove(0)
            })
            .collect();
        let class = vec![DagSink::for_class(&specs, ConfigId(0))];
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
        let sinks = vec![DagSink::for_class(std::slice::from_ref(&spec), ConfigId(0))];
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

    /// A stream several chunks long: a root loop of fetches and data
    /// loads, with a side path forked, advanced, merged back every few
    /// rounds and a second one retired on its own.
    fn long_events(bus: &mut dyn EventBus) -> Result<(), std::convert::Infallible> {
        let (root, side, spur) = (ConfigId(0), ConfigId(1), ConfigId(2));
        for round in 0..600u64 {
            bus.emit(TraceEvent::access(root, AccessKind::Fetch, consts(&[0x40])));
            bus.emit(TraceEvent::access(
                root,
                AccessKind::Data,
                consts(&[0x1000 + (round % 5) * 0x40, 0x2000]),
            ));
            if round % 7 == 0 {
                bus.emit(TraceEvent::Fork {
                    parent: root,
                    child: side,
                });
                bus.emit(TraceEvent::access(
                    side,
                    AccessKind::Data,
                    consts(&[0x3000]),
                ));
                bus.emit(TraceEvent::Merge {
                    into: root,
                    from: side,
                });
            }
        }
        bus.emit(TraceEvent::Fork {
            parent: root,
            child: spur,
        });
        bus.emit(TraceEvent::access(spur, AccessKind::Fetch, consts(&[0x80])));
        bus.emit(TraceEvent::Retire { config: spur });
        bus.emit(TraceEvent::Retire { config: root });
        Ok(())
    }

    fn suite_sinks() -> Vec<DagSink> {
        [Channel::Instruction, Channel::Data, Channel::Shared]
            .into_iter()
            .flat_map(|channel| {
                [
                    Observer::address(),
                    Observer::block(6),
                    Observer::block(6).stuttering(),
                ]
                .map(|observer| {
                    DagSink::for_class(&[ObserverSpec { channel, observer }], ConfigId(0))
                })
            })
            .collect()
    }

    #[test]
    fn offloaded_replay_is_bit_identical_to_inline() {
        let mut emitted = Count(0);
        long_events(&mut emitted).unwrap();
        assert!(
            emitted.0 > 4 * CHUNK,
            "{} events: several chunks",
            emitted.0
        );
        let (inline, inline_profile) = run_pipeline(suite_sinks(), false, long_events).unwrap();
        let (offloaded, profile) = run_pipeline(suite_sinks(), true, long_events).unwrap();
        assert_eq!(
            (inline_profile.offloaded, profile.offloaded),
            (0, 1),
            "only the offloaded run starts the helper"
        );
        assert_eq!(inline.len(), offloaded.len());
        for (a, b) in inline.iter().zip(&offloaded) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.count, b.count);
            assert_eq!(a.bits.to_bits(), b.bits.to_bits());
        }
        assert!(
            inline.iter().any(|r| r.bits > 0.0),
            "the stream leaks somewhere"
        );
    }

    #[test]
    fn a_stream_shorter_than_a_chunk_starts_no_helper() {
        let (rows, profile) = run_pipeline(suite_sinks(), true, example9_events).unwrap();
        assert_eq!(profile.offloaded, 0);
        assert_eq!(rows[0].count.to_u64(), Some(2), "address observer");
    }

    /// Counts events.
    struct Count(usize);

    impl EventBus for Count {
        fn emit(&mut self, _: TraceEvent) {
            self.0 += 1;
        }
    }

    /// `n` data loads by `config`.
    fn loads(bus: &mut dyn EventBus, config: u64, n: usize) {
        for _ in 0..n {
            bus.emit(TraceEvent::access(
                ConfigId(config),
                AccessKind::Data,
                consts(&[0x10]),
            ));
        }
    }

    #[test]
    fn a_drive_panic_after_the_helper_started_is_raised_without_hanging() {
        let payload = std::panic::catch_unwind(|| {
            run_pipeline(suite_sinks(), true, |bus| -> Result<(), ()> {
                loads(bus, 0, 3 * CHUNK);
                panic!("drive exploded")
            })
        })
        .unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "drive exploded");
    }

    #[test]
    fn a_helper_panic_is_raised_on_the_interpreting_thread() {
        // An access by a configuration no sink has a cursor for panics
        // inside `DagSink::absorb`; offloaded, that runs on the helper,
        // which has had the sinks since the first full chunk.
        let message = |offload| {
            let payload = std::panic::catch_unwind(|| {
                run_pipeline(suite_sinks(), offload, |bus| -> Result<(), ()> {
                    loads(bus, 0, 2 * CHUNK);
                    loads(bus, 9, 1);
                    loads(bus, 0, 8 * CHUNK);
                    Ok(())
                })
            })
            .unwrap_err();
            panic_message(payload.as_ref())
        };
        let inline = message(false);
        assert!(!inline.is_empty());
        assert_eq!(message(true), inline);
    }

    #[test]
    fn a_drive_error_after_the_helper_started_discards_rows() {
        for offload in [false, true] {
            let err = run_pipeline(suite_sinks(), offload, |bus| {
                loads(bus, 0, 3 * CHUNK);
                Err("late boom")
            });
            assert_eq!(err.unwrap_err(), "late boom", "offload {offload}");
        }
    }

    #[test]
    fn error_from_driver_discards_rows() {
        let spec = ObserverSpec {
            channel: Channel::Shared,
            observer: Observer::address(),
        };
        let sinks = vec![DagSink::for_class(std::slice::from_ref(&spec), ConfigId(0))];
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
