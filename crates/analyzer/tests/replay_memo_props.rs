//! Property tests pinning the production class-sink replay bit-identical
//! to a naive, one-spec-at-a-time replay of the same event stream.
//!
//! The production sinks ([`DagSink`]) share work across specs: one
//! `project_set` per event per offset-bits class, borrowed by every lane
//! of the class, over a chunked bus with a dense per-lane cursor table.
//! None of that may change a single bit of the resulting counts. The
//! reference implementation here replays the identical event stream
//! straight through the public [`TraceDag`] API — one spec per DAG, its
//! own `project_set` and one `update` per visible event, cursors in a
//! hash map — and the properties assert that counts and bits agree
//! exactly for every spec, over random fork/merge/retire salads,
//! repeated loop-like accesses, and stuttering and exact observers. The
//! stream reaches the sinks through [`run_pipeline`], the production
//! bus, with its replay inline or offloaded to a helper thread as a
//! generated input, after a generated number of lead-in accesses: a
//! stream longer than one 256-event chunk replays on the helper when
//! offloaded, and the rows must not change.

use std::collections::HashMap;

use leakaudit_analyzer::sink::{run_pipeline, AccessKind, ConfigId, DagSink, TraceEvent};
use leakaudit_analyzer::{Channel, LeakRow, ObserverSpec};
use leakaudit_core::{Cursor, Observer, TraceDag, ValueSet};
use leakaudit_mpi::Natural;
use proptest::prelude::*;

/// The observer suite under test: exact and stuttering lanes at several
/// granularities on every channel, so classes mix lane kinds and one
/// projection is shared across channels of equal offset bits.
fn suite() -> Vec<ObserverSpec> {
    let spec = |channel, observer| ObserverSpec { channel, observer };
    vec![
        spec(Channel::Instruction, Observer::address()),
        spec(Channel::Instruction, Observer::block(6)),
        spec(Channel::Instruction, Observer::block(6).stuttering()),
        spec(Channel::Data, Observer::block(6)),
        spec(Channel::Data, Observer::block(6).stuttering()),
        spec(Channel::Shared, Observer::address()),
        spec(Channel::Shared, Observer::block(2)),
        spec(Channel::Shared, Observer::block(2).stuttering()),
    ]
}

/// A small fixed pool of address sets, built once per stream so that
/// cloned entries share [`leakaudit_core::MemoKey`] identity — repeated
/// address sets, the loop-body shape. Entry 4 crosses the block(6) boundary, entry 3 stays inside
/// one block (same-unit for coarse observers, distinct for `address()`).
fn address_pool() -> Vec<ValueSet> {
    vec![
        ValueSet::constant(0x1000, 32),
        ValueSet::constant(0x1040, 32),
        ValueSet::constant(0x2000, 32),
        ValueSet::from_constants([0x1000, 0x1004, 0x1008], 32),
        ValueSet::from_constants([0x1000, 0x1040], 32),
        ValueSet::from_constants([0x3000, 0x3010, 0x3020, 0x3030, 0x3040], 32),
    ]
}

/// One abstract script step. Raw indices are reduced modulo the live
/// set when the script is lowered to events, so every generated script
/// is a well-formed stream: events only ever reference live
/// configurations, forks allocate fresh monotone ids, merges and
/// retires consume.
#[derive(Debug, Clone)]
enum RawOp {
    /// `reps` identical accesses in a row — a loop body revisiting one
    /// address, the repetition-bump and stuttering hot path.
    Access {
        cfg: u8,
        fetch: bool,
        addr: u8,
        reps: u8,
    },
    /// Clone a live cursor mid-stream.
    Fork { parent: u8 },
    /// Join two distinct live configurations.
    Merge { into: u8, from: u8 },
    /// Halt one configuration; its cursor joins the finals.
    Retire { cfg: u8 },
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        5 => (any::<u8>(), any::<bool>(), any::<u8>(), 0u8..4).prop_map(|(cfg, fetch, addr, reps)| {
            RawOp::Access { cfg, fetch, addr, reps }
        }),
        1 => any::<u8>().prop_map(|parent| RawOp::Fork { parent }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(into, from)| RawOp::Merge { into, from }),
        1 => any::<u8>().prop_map(|cfg| RawOp::Retire { cfg }),
    ]
}

/// Lowers a raw script to a well-formed event stream, retiring every
/// still-live configuration at the end so each lane has a finals cursor.
fn build_events(ops: &[RawOp]) -> Vec<TraceEvent> {
    let pool = address_pool();
    let mut live: Vec<u64> = vec![0];
    let mut next = 1u64;
    let mut events = Vec::new();
    for op in ops {
        match *op {
            RawOp::Access {
                cfg,
                fetch,
                addr,
                reps,
            } => {
                if live.is_empty() {
                    continue;
                }
                let id = ConfigId::from_raw(live[cfg as usize % live.len()]);
                let kind = if fetch {
                    AccessKind::Fetch
                } else {
                    AccessKind::Data
                };
                let set = &pool[addr as usize % pool.len()];
                for _ in 0..=reps {
                    events.push(TraceEvent::access(id, kind, set.clone()));
                }
            }
            RawOp::Fork { parent } => {
                if live.is_empty() || live.len() >= 6 {
                    continue;
                }
                let p = live[parent as usize % live.len()];
                let c = next;
                next += 1;
                live.push(c);
                events.push(TraceEvent::Fork {
                    parent: ConfigId::from_raw(p),
                    child: ConfigId::from_raw(c),
                });
            }
            RawOp::Merge { into, from } => {
                if live.len() < 2 {
                    continue;
                }
                let a = into as usize % live.len();
                let mut b = from as usize % live.len();
                if a == b {
                    b = (b + 1) % live.len();
                }
                let (into, from) = (live[a], live[b]);
                live.retain(|&id| id != from);
                events.push(TraceEvent::Merge {
                    into: ConfigId::from_raw(into),
                    from: ConfigId::from_raw(from),
                });
            }
            RawOp::Retire { cfg } => {
                if live.is_empty() {
                    continue;
                }
                let id = live.remove(cfg as usize % live.len());
                events.push(TraceEvent::Retire {
                    config: ConfigId::from_raw(id),
                });
            }
        }
    }
    for id in live {
        events.push(TraceEvent::Retire {
            config: ConfigId::from_raw(id),
        });
    }
    events
}

/// `lead` accesses by the root configuration, then the lowered script: a
/// loop prologue that moves the script past zero or more 256-event
/// chunk boundaries, so an offloaded replay reaches the helper at a
/// random point of the script (a script alone rarely fills one chunk,
/// because retiring every live configuration ends it).
fn events_after(lead: usize, ops: &[RawOp]) -> Vec<TraceEvent> {
    let pool = address_pool();
    let kinds = [AccessKind::Fetch, AccessKind::Data];
    let mut events: Vec<TraceEvent> = (0..lead)
        .map(|i| TraceEvent::access(ConfigId::ROOT, kinds[i % 2], pool[i % pool.len()].clone()))
        .collect();
    events.extend(build_events(ops));
    events
}

/// The reference replayer: one spec, one DAG, nothing shared. Every
/// visible access pays its own `project_set` and one
/// [`TraceDag::update`].
struct Naive {
    channel: Channel,
    observer: Observer,
    dag: TraceDag,
    cursors: HashMap<ConfigId, Cursor>,
    finals: Option<Cursor>,
}

impl Naive {
    fn new(spec: ObserverSpec) -> Self {
        let (dag, root) = TraceDag::new(spec.observer);
        let mut cursors = HashMap::new();
        cursors.insert(ConfigId::ROOT, root);
        Naive {
            channel: spec.channel,
            observer: spec.observer,
            dag,
            cursors,
            finals: None,
        }
    }

    fn absorb(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Access {
                config,
                kind,
                addresses,
                ..
            } => {
                if kind.visible_to(self.channel) {
                    let obs = self.observer.project_set(addresses);
                    let cur = self.cursors.remove(config).expect("live cursor");
                    let cur = self.dag.update(cur, &obs);
                    self.cursors.insert(*config, cur);
                }
            }
            TraceEvent::Fork { parent, child } => {
                let cloned = self.dag.clone_cursor(&self.cursors[parent]);
                self.cursors.insert(*child, cloned);
            }
            TraceEvent::Merge { into, from } => {
                let a = self.cursors.remove(into).expect("live cursor");
                let b = self.cursors.remove(from).expect("live cursor");
                let merged = self.dag.merge_cursors(a, b);
                self.cursors.insert(*into, merged);
            }
            TraceEvent::Retire { config } => {
                let cur = self.cursors.remove(config).expect("live cursor");
                self.finals = Some(match self.finals.take() {
                    None => cur,
                    Some(acc) => self.dag.merge_cursors(acc, cur),
                });
            }
        }
    }

    fn row(self) -> (Natural, f64) {
        match &self.finals {
            Some(cur) => {
                let n = self.dag.count(cur);
                let bits = TraceDag::bits_for_count(&n);
                (n, bits)
            }
            None => (Natural::zero(), 0.0),
        }
    }
}

/// Groups the suite into (channel, offset-bits) class sinks — the
/// engine's production layout.
fn class_sinks(suite: &[ObserverSpec]) -> Vec<DagSink> {
    let mut classes: Vec<(Channel, u8, Vec<ObserverSpec>)> = Vec::new();
    for spec in suite {
        let key = (spec.channel, spec.observer.offset_bits());
        match classes.iter_mut().find(|(c, b, _)| (*c, *b) == key) {
            Some((_, _, members)) => members.push(*spec),
            None => classes.push((key.0, key.1, vec![*spec])),
        }
    }
    classes
        .into_iter()
        .map(|(_, _, members)| DagSink::for_class(&members, ConfigId::ROOT))
        .collect()
}

/// Replays the events through `sinks` on the production pipeline, with
/// replay offloaded or inline, and returns the rows in sink order.
fn pipeline_rows(sinks: Vec<DagSink>, events: &[TraceEvent], offload: bool) -> Vec<LeakRow> {
    let (rows, _) = run_pipeline(sinks, offload, |bus| {
        for event in events {
            bus.emit(event.clone());
        }
        Ok::<(), std::convert::Infallible>(())
    })
    .expect("infallible drive");
    rows
}

/// Replays the events through the memoized production class sinks.
fn memoized_rows(events: &[TraceEvent], offload: bool) -> Vec<LeakRow> {
    pipeline_rows(class_sinks(&suite()), events, offload)
}

proptest! {
    /// The flagship property: over random event salads, every spec's
    /// memoized class-sink count equals the naive replay bit for bit,
    /// with replay inline or offloaded.
    #[test]
    fn memoized_class_replay_matches_naive_replay(
        ops in proptest::collection::vec(raw_op(), 0..120),
        lead in 0usize..700,
        offload in any::<bool>(),
    ) {
        let events = events_after(lead, &ops);
        let rows = memoized_rows(&events, offload);
        for spec in suite() {
            let row = rows
                .iter()
                .find(|r| r.spec == spec)
                .expect("one row per suite spec");
            let mut naive = Naive::new(spec);
            for event in &events {
                naive.absorb(event);
            }
            let (count, bits) = naive.row();
            prop_assert_eq!(&row.count, &count, "count mismatch for {:?}", spec);
            prop_assert_eq!(
                row.bits.to_bits(),
                bits.to_bits(),
                "bits mismatch for {:?}",
                spec
            );
        }
    }

    /// Solo sinks (one spec each, no class sharing, no shared
    /// projection) agree with the class layout — the two
    /// production configurations may never diverge from each other.
    #[test]
    fn solo_sinks_match_class_sinks(
        ops in proptest::collection::vec(raw_op(), 0..80),
        lead in 0usize..700,
        offload in any::<bool>(),
    ) {
        let events = events_after(lead, &ops);
        let class_rows = memoized_rows(&events, offload);
        let solo_sinks = suite()
            .into_iter()
            .map(|spec| DagSink::for_class(std::slice::from_ref(&spec), ConfigId::ROOT))
            .collect();
        let solo_rows = pipeline_rows(solo_sinks, &events, !offload);
        for solo in &solo_rows {
            let class = class_rows
                .iter()
                .find(|r| r.spec == solo.spec)
                .expect("one row per suite spec");
            prop_assert_eq!(&class.count, &solo.count);
            prop_assert_eq!(class.bits.to_bits(), solo.bits.to_bits());
        }
    }
}

/// A deterministic loop-heavy stream: a long loop on one address
/// (repetition bumps and tail collapses on one hot vertex) punctuated by
/// forks and merges that move the frontier, checked against the naive
/// replay, inline and offloaded (the stream spans more than one chunk).
/// Kept outside `proptest!` so it always runs with this exact shape
/// regardless of generator drift.
#[test]
fn loop_heavy_stream_matches_naive_replay() {
    let pool = address_pool();
    let mut events = Vec::new();
    let root = ConfigId::ROOT;
    let side = ConfigId::from_raw(1);
    for round in 0..20u64 {
        for _ in 0..8 {
            events.push(TraceEvent::access(root, AccessKind::Fetch, pool[0].clone()));
            events.push(TraceEvent::access(root, AccessKind::Data, pool[3].clone()));
        }
        if round % 3 == 0 {
            events.push(TraceEvent::Fork {
                parent: root,
                child: side,
            });
            events.push(TraceEvent::access(
                side,
                AccessKind::Data,
                pool[round as usize % pool.len()].clone(),
            ));
            events.push(TraceEvent::Merge {
                into: root,
                from: side,
            });
        }
    }
    events.push(TraceEvent::Retire { config: root });
    assert!(events.len() > 256, "more than one chunk");

    for offload in [false, true] {
        let rows = memoized_rows(&events, offload);
        for spec in suite() {
            let row = rows.iter().find(|r| r.spec == spec).expect("row for spec");
            let mut naive = Naive::new(spec);
            for event in &events {
                naive.absorb(event);
            }
            let (count, bits) = naive.row();
            assert_eq!(
                row.count, count,
                "count mismatch for {spec:?} (offload {offload})"
            );
            assert_eq!(
                row.bits.to_bits(),
                bits.to_bits(),
                "bits mismatch for {spec:?} (offload {offload})"
            );
        }
    }
}
