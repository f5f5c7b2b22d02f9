//! Property tests pinning the sink-side *script* memo bit-identical to
//! a naive, memo-free replay of the same event stream.
//!
//! The script memo is the sharpest-edged cache in the sink: on a hit it
//! skips the per-event replay entirely and applies a recorded DAG delta
//! in bulk, trusting its entry guard (singleton frontier, same entry
//! label, same exclusivity) to justify the shortcut. These properties
//! drive randomized fork/merge/retire salads *interleaved with
//! well-formed scripted runs* — the `Script` marker followed by exactly
//! the announced run of access events, same script id always carrying
//! the same access template, exactly as the scheduler emits them — and
//! assert that every spec's count matches the reference replay bit for
//! bit, for any chunk boundaries: the stream reaches each sink through
//! [`ObserverSink::absorb_chunk`], cut at proptest-chosen split points,
//! so the skip stride of an applied delta and open journaling windows
//! must carry across every cut. The deterministic fixtures then pin
//! that the memo actually *fires* (a stream that never hits would make
//! the properties vacuous) and that the lone/forked counters partition
//! the hits.

use std::collections::HashMap;

use leakaudit_analyzer::sink::{AccessKind, ConfigId, DagSink, ObserverSink, TraceEvent};
use leakaudit_analyzer::{Channel, LeakRow, MemoStats, ObserverSpec};
use leakaudit_core::{Cursor, Observer, TraceDag, ValueSet};
use leakaudit_mpi::Natural;
use proptest::prelude::*;

/// The observer suite under test: exact and stuttering lanes at several
/// granularities on every channel, the same class mix the engine runs.
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

/// A small fixed pool of address sets (shared `MemoKey` identity across
/// repeats). Entry 4 crosses the block(6) boundary; entry 3 stays
/// inside one block (same-unit for coarse observers).
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

/// The fixed access template of script `id`: the scheduler's invariant
/// that one script always replays one instruction sequence means the
/// same id always announces the same run of events.
fn script_template(id: u32) -> Vec<(AccessKind, usize)> {
    let len = 2 + (id as usize % 3);
    (0..len)
        .map(|i| {
            let kind = if (id as usize + i).is_multiple_of(2) {
                AccessKind::Fetch
            } else {
                AccessKind::Data
            };
            (kind, (id as usize * 3 + i) % 6)
        })
        .collect()
}

/// One abstract step of the generated stream. Raw indices are reduced
/// modulo the live set at lowering time, so every generated stream is
/// well-formed — including the bus contract on `Script` markers.
#[derive(Debug, Clone)]
enum RawOp {
    /// `reps` identical unscripted accesses in a row.
    Access {
        cfg: u8,
        fetch: bool,
        addr: u8,
        reps: u8,
    },
    /// A scripted run: the marker followed by script `id`'s template.
    Scripted { cfg: u8, script: u8, forked: bool },
    /// Clone a live cursor mid-stream.
    Fork { parent: u8 },
    /// Join two distinct live configurations.
    Merge { into: u8, from: u8 },
    /// Halt one configuration; its cursor joins the finals.
    Retire { cfg: u8 },
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<bool>(), any::<u8>(), 0u8..4).prop_map(|(cfg, fetch, addr, reps)| {
            RawOp::Access { cfg, fetch, addr, reps }
        }),
        4 => (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(cfg, script, forked)| {
            RawOp::Scripted { cfg, script, forked }
        }),
        1 => any::<u8>().prop_map(|parent| RawOp::Fork { parent }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(into, from)| RawOp::Merge { into, from }),
        1 => any::<u8>().prop_map(|cfg| RawOp::Retire { cfg }),
    ]
}

/// Lowers a raw script to a well-formed event stream, retiring every
/// still-live configuration at the end.
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
            RawOp::Scripted {
                cfg,
                script,
                forked,
            } => {
                if live.is_empty() {
                    continue;
                }
                let id = ConfigId::from_raw(live[cfg as usize % live.len()]);
                // A small id pool so the same script recurs often
                // enough to prime and then hit.
                let sid = u32::from(script % 5);
                let template = script_template(sid);
                events.push(TraceEvent::Script {
                    config: id,
                    script: sid,
                    events: template.len() as u32,
                    forked,
                });
                for (kind, addr) in template {
                    events.push(TraceEvent::access(id, kind, pool[addr].clone()));
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

/// The reference replayer: one spec, one DAG, no memo of any kind, and
/// script markers ignored — the access events that follow a marker are
/// complete on their own.
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
            TraceEvent::Script { .. } => {}
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
fn class_sinks(suite: &[ObserverSpec]) -> Vec<Box<dyn ObserverSink>> {
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
        .map(|(_, _, members)| {
            Box::new(DagSink::for_class(&members, ConfigId::ROOT)) as Box<dyn ObserverSink>
        })
        .collect()
}

/// Replays the events through the memoized production sinks, handing
/// each sink the stream in chunks cut at `cuts` (raw offsets, reduced
/// modulo the stream length); returns rows and the summed memo counters.
fn memoized_rows(events: &[TraceEvent], cuts: &[usize]) -> (Vec<LeakRow>, MemoStats) {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (events.len() + 1)).collect();
    bounds.push(events.len());
    bounds.sort_unstable();
    bounds.dedup();
    let mut sinks = class_sinks(&suite());
    let mut stats = MemoStats::default();
    for sink in &mut sinks {
        let mut start = 0;
        for &end in &bounds {
            sink.absorb_chunk(&events[start..end]);
            start = end;
        }
        stats.accumulate(&sink.memo_stats());
    }
    let rows = sinks
        .into_iter()
        .flat_map(ObserverSink::into_rows)
        .collect();
    (rows, stats)
}

/// Cuts every `stride` events.
fn stride_cuts(len: usize, stride: usize) -> Vec<usize> {
    (stride..len).step_by(stride).collect()
}

fn assert_rows_match_naive(events: &[TraceEvent], rows: &[LeakRow]) {
    for spec in suite() {
        let row = rows
            .iter()
            .find(|r| r.spec == spec)
            .expect("one row per suite spec");
        let mut naive = Naive::new(spec);
        for event in events {
            naive.absorb(event);
        }
        let (count, bits) = naive.row();
        assert_eq!(row.count, count, "count mismatch for {spec:?}");
        assert_eq!(
            row.bits.to_bits(),
            bits.to_bits(),
            "bits mismatch for {spec:?}"
        );
    }
}

proptest! {
    /// The flagship property: over random salads of scripted runs,
    /// unscripted accesses, forks, merges and retires, every spec's
    /// script-memoized count equals the naive replay bit for bit, for
    /// any chunk boundaries — and whenever the memo did fire, the
    /// lone/forked counters partition the hits.
    #[test]
    fn script_memoized_replay_matches_naive_replay(
        ops in proptest::collection::vec(raw_op(), 0..120),
        cuts in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let events = build_events(&ops);
        let (rows, stats) = memoized_rows(&events, &cuts);
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
        prop_assert_eq!(
            stats.sink_script_hits_lone + stats.sink_script_hits_forked,
            stats.sink_script_hits
        );
    }
}

/// A deterministic hot loop of one script id: the third and every later
/// occurrence must hit (two-touch priming), events must be accounted,
/// and the result must still match the naive replay exactly.
#[test]
fn repeated_script_hits_after_priming_and_matches_naive() {
    let pool = address_pool();
    let root = ConfigId::ROOT;
    let mut events = Vec::new();
    let template = script_template(2);
    let occurrences = 10u64;
    for _ in 0..occurrences {
        events.push(TraceEvent::Script {
            config: root,
            script: 2,
            events: template.len() as u32,
            forked: false,
        });
        for &(kind, addr) in &template {
            events.push(TraceEvent::access(root, kind, pool[addr].clone()));
        }
    }
    events.push(TraceEvent::Retire { config: root });

    let (rows, stats) = memoized_rows(&events, &stride_cuts(events.len(), 7));
    assert_rows_match_naive(&events, &rows);
    // Occurrence 1 primes, occurrence 2 records, 3..=10 hit.
    assert!(
        stats.sink_script_hits >= occurrences - 2,
        "expected >= {} hits, got {stats:?}",
        occurrences - 2
    );
    assert_eq!(stats.sink_script_hits_forked, 0, "stream is all lone");
    assert_eq!(stats.sink_script_hits_lone, stats.sink_script_hits);
    assert_eq!(
        stats.sink_script_events,
        stats.sink_script_hits * template.len() as u64,
        "every hit must account its whole run"
    );
}

/// The forked flavor: scripted runs announced with `forked: true` while
/// a sibling configuration is live land in the forked counter, and the
/// counts still match the naive replay.
#[test]
fn forked_script_hits_are_counted_forked_and_match_naive() {
    let pool = address_pool();
    let root = ConfigId::ROOT;
    let side = ConfigId::from_raw(1);
    let mut events = Vec::new();
    let template = script_template(4);
    events.push(TraceEvent::Fork {
        parent: root,
        child: side,
    });
    for _ in 0..8 {
        events.push(TraceEvent::Script {
            config: root,
            script: 4,
            events: template.len() as u32,
            forked: true,
        });
        for &(kind, addr) in &template {
            events.push(TraceEvent::access(root, kind, pool[addr].clone()));
        }
        // The sibling wanders between scripted runs so the entry guard
        // re-validates against a moving DAG.
        events.push(TraceEvent::access(side, AccessKind::Data, pool[5].clone()));
    }
    events.push(TraceEvent::Retire { config: side });
    events.push(TraceEvent::Retire { config: root });

    let (rows, stats) = memoized_rows(&events, &stride_cuts(events.len(), 3));
    assert_rows_match_naive(&events, &rows);
    assert!(
        stats.sink_script_hits_forked > 0,
        "forked scripted runs never hit: {stats:?}"
    );
    assert_eq!(stats.sink_script_hits_lone, 0, "stream is all forked");
}
