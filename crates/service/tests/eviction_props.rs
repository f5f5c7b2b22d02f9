//! Property tests for the bounded, sharded, evicting result cache.
//!
//! The cache is content-addressed: key `k` always maps to the same
//! report content, so "correct under eviction" means exactly two
//! things — a hit must return the canonical content of its key (never a
//! stale or cross-key value), and a miss must only ever cost a
//! recomputation. These properties are checked over generated
//! get/insert interleavings, sequentially and across threads, with the
//! capacity small enough that eviction runs constantly.

use std::collections::HashMap;
use std::sync::Arc;

use leakaudit_analyzer::{Channel, LeakReport, LeakRow, ObserverSpec};
use leakaudit_core::Observer;
use leakaudit_mpi::Natural;
use leakaudit_service::{CacheKey, MemoryCache, ResultCache};
use proptest::prelude::*;

/// The canonical report of key `k`: content the property can verify
/// from the key alone (count = k + 1, bits = k).
fn report_for(k: u64) -> Arc<LeakReport> {
    let rows = (0..3)
        .map(|i| LeakRow {
            spec: ObserverSpec {
                channel: Channel::Data,
                observer: Observer::block(i),
            },
            count: Natural::from(k + 1),
            bits: k as f64,
        })
        .collect();
    Arc::new(LeakReport::from_rows(rows))
}

fn key_for(k: u64) -> CacheKey {
    CacheKey::from_hex(&format!("{k:032x}")).expect("fixed-width hex")
}

/// Asserts a served report is the canonical content of `k`.
fn assert_canonical(k: u64, report: &LeakReport) {
    for row in report.rows() {
        assert_eq!(
            row.count,
            Natural::from(k + 1),
            "key {k} served another key's content"
        );
        assert_eq!(row.bits.to_bits(), (k as f64).to_bits());
    }
}

/// One generated operation: `insert` or `get` on one of 8 keys.
#[derive(Debug, Clone, Copy)]
struct Op {
    key: u64,
    insert: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u64..8, any::<bool>()).prop_map(|(key, insert)| Op { key, insert })
}

fn weight_unit() -> u64 {
    leakaudit_service::cache::report_weight(&report_for(0))
}

proptest! {
    #[test]
    fn bounded_cache_never_serves_stale_or_cross_key_values(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        capacity_units in 1u64..6,
        shards in 1usize..5,
    ) {
        let cache = MemoryCache::with_shards(shards)
            .with_capacity_bytes(capacity_units * weight_unit());
        let mut inserted: HashMap<u64, bool> = HashMap::new();
        let (mut gets, mut hits) = (0u64, 0u64);
        for op in &ops {
            if op.insert {
                cache.put(key_for(op.key), report_for(op.key));
                inserted.insert(op.key, true);
            } else {
                gets += 1;
                if let Some(report) = cache.get(&key_for(op.key)) {
                    hits += 1;
                    assert_canonical(op.key, &report);
                    prop_assert!(
                        inserted.contains_key(&op.key),
                        "hit on a never-inserted key"
                    );
                }
            }
        }
        // Counters are coherent and the byte budget holds.
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, gets - hits);
        prop_assert!(cache.bytes() <= capacity_units * weight_unit());
        prop_assert!(cache.len() as u64 <= capacity_units);
    }

    #[test]
    fn concurrent_bounded_access_stays_key_consistent(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..40), 4),
        capacity_units in 1u64..4,
    ) {
        let cache = MemoryCache::with_shards(2).with_capacity_bytes(capacity_units * weight_unit());
        std::thread::scope(|scope| {
            for ops in &per_thread {
                let cache = &cache;
                scope.spawn(move || {
                    for op in ops {
                        if op.insert {
                            cache.put(key_for(op.key), report_for(op.key));
                        } else if let Some(report) = cache.get(&key_for(op.key)) {
                            // The invariant under interleaving: whatever
                            // a hit returns is the key's own content.
                            assert_canonical(op.key, &report);
                        }
                    }
                });
            }
        });
        prop_assert!(cache.bytes() <= capacity_units * weight_unit());
        let stats = cache.stats();
        let total_gets: u64 = per_thread
            .iter()
            .flatten()
            .filter(|op| !op.insert)
            .count() as u64;
        prop_assert_eq!(stats.hits + stats.misses, total_gets);
    }
}

#[test]
fn unbounded_cache_never_evicts() {
    let cache = MemoryCache::new();
    for k in 0..64 {
        cache.put(key_for(k), report_for(k));
    }
    assert_eq!(cache.len(), 64);
    assert_eq!(cache.stats().evictions, 0);
    for k in 0..64 {
        assert_canonical(k, &cache.get(&key_for(k)).expect("nothing evicted"));
    }
}
