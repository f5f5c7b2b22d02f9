//! The observer-sink pipeline: per-observer trace bookkeeping,
//! decoupled from configuration scheduling.
//!
//! # Why a pipeline
//!
//! The scheduler's fixpoint iteration (see [`crate::scheduler`]) never
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

use std::time::{Duration, Instant};

use leakaudit_core::{Cursor, ObsSet, TraceDag, ValueSet};
use leakaudit_mpi::Natural;

use crate::report::{Channel, LeakRow, ObserverSpec, PhaseTimings};

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
        let slot = &mut self.cursors[config.0 as usize];
        let cur = slot.take().expect("cursor present for config");
        *slot = Some(self.dag.update(cur, obs));
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
/// class of observers, one [`Lane`] per member spec behind a shared
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
    pub fn into_rows(self) -> Vec<LeakRow> {
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
/// time; the value changes no result.
const CHUNK: usize = 256;

/// Runs a set of sinks against the event stream produced by `drive`.
///
/// Events are buffered and applied to every sink in `CHUNK`-sized
/// (256-event) batches on the calling thread. Row order in the result
/// is sink order, flattened over each sink's [`DagSink::into_rows`]. If
/// `drive` errors, the partial rows are discarded and the error is
/// returned.
///
/// The returned [`PhaseTimings`] split the run's wall clock into three
/// disjoint phases: interpretation (scheduler fixpoint), replay (sink
/// event consumption) and counting (Proposition 2 arithmetic).
pub fn run_pipeline<E>(
    sinks: Vec<DagSink>,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<(Vec<LeakRow>, PhaseTimings), E> {
    let mut bus = SerialBus {
        sinks,
        buffer: Vec::with_capacity(CHUNK),
        replay: Duration::ZERO,
    };
    let started = Instant::now();
    drive(&mut bus)?;
    bus.flush();
    let interpret = started.elapsed().saturating_sub(bus.replay);
    let counting = Instant::now();
    let rows: Vec<LeakRow> = bus.sinks.into_iter().flat_map(DagSink::into_rows).collect();
    let timings = PhaseTimings {
        interpret,
        replay: bus.replay,
        count: counting.elapsed(),
    };
    Ok((rows, timings))
}

/// The pipeline's bus: buffers events and applies them to every sink in
/// [`CHUNK`]-sized batches (see [`run_pipeline`]).
struct SerialBus {
    sinks: Vec<DagSink>,
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
            for event in &self.buffer {
                sink.absorb(event);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
        run_pipeline(sinks, drive).map(|(rows, _)| rows)
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
            .map(|&spec| DagSink::new(spec, ConfigId(0)))
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
                let sinks = vec![DagSink::new(spec, ConfigId(0))];
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
        let sinks = vec![DagSink::new(spec, ConfigId(0))];
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
        let sinks = vec![DagSink::new(spec, ConfigId(0))];
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
