//! Property tests for the bounded, evicting result cache and
//! its disk entry codec.
//!
//! The cache is content-addressed: key `k` always maps to the same
//! report content, so "correct under eviction" means exactly two
//! things — a hit must return the canonical content of its key (never a
//! stale or cross-key value), and a miss must only ever cost a
//! recomputation. These properties are checked over generated
//! get/insert interleavings, sequentially and across threads, with the
//! capacity small enough that eviction runs constantly.
//!
//! The disk entry obeys the same rule under damage: a corrupted entry
//! decodes to the exact original report or to a miss, never to a report
//! with a wrong count.

use std::collections::HashMap;
use std::sync::Arc;

use leakaudit_analyzer::{Channel, LeakReport, LeakRow, ObserverSpec};
use leakaudit_core::{Observer, TraceDag};
use leakaudit_mpi::Natural;
use leakaudit_service::cache::{decode_report, encode_report};
use leakaudit_service::{CacheKey, MemoryCache};
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

/// A row whose count is `hex` and whose bits are derived from it, as
/// the analyzer derives them.
fn counted_row(code: u8, offset_bits: u8, hex: &str) -> LeakRow {
    let count = Natural::from_hex(hex).expect("generated hex");
    LeakRow {
        spec: ObserverSpec {
            channel: Channel::from_code(code).expect("generated code"),
            observer: Observer::block(offset_bits),
        },
        bits: TraceDag::bits_for_count(&count),
        count,
    }
}

/// Reports with at least one count above 2^53 and integral bits (a
/// power of two), one above 2^53 with fractional bits (a mantissa in
/// [5·2^60, 6·2^60), so log2 sits strictly between 62.3 and 62.6 before
/// the shift), and small counts.
fn large_count_report() -> impl Strategy<Value = LeakReport> {
    (
        14usize..30,
        any::<u64>(),
        0usize..8,
        proptest::collection::vec(1u64..1000, 0..3),
        0u8..3,
    )
        .prop_map(|(pow_zeros, mantissa, shift, small, code)| {
            let mantissa = (mantissa >> 3) | (0b101 << 60);
            let mut rows = vec![
                counted_row(code, 6, &format!("1{}", "0".repeat(pow_zeros))),
                counted_row(code, 5, &format!("{mantissa:x}{}", "0".repeat(shift))),
            ];
            rows.extend(
                small
                    .iter()
                    .enumerate()
                    .map(|(i, n)| counted_row(code, i as u8, &format!("{n:x}"))),
            );
            LeakReport::from_rows(rows)
        })
}

/// One byte-level corruption, positioned modulo the text length.
/// `Digit` is the flip a uniform position rarely hits: one of the last
/// three hex digits of a count replaced by another digit, which keeps
/// the entry well-formed and, for counts above 2^53, can leave
/// `log2(count)` as an `f64` unchanged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Flip {
        at: usize,
        mask: u8,
    },
    Truncate {
        at: usize,
    },
    Insert {
        at: usize,
        byte: u8,
    },
    Digit {
        row: usize,
        from_end: usize,
        digit: usize,
    },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        any::<usize>().prop_map(|at| Damage::Truncate { at }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Insert { at, byte }),
        (any::<usize>(), 0usize..3, 0usize..16).prop_map(|(row, from_end, digit)| {
            Damage::Digit {
                row,
                from_end,
                digit,
            }
        }),
    ]
}

fn apply(bytes: &mut Vec<u8>, damage: Damage) {
    let len = bytes.len();
    match damage {
        Damage::Flip { at, mask } if len > 0 => bytes[at % len] ^= mask,
        Damage::Flip { .. } => {}
        Damage::Truncate { at } => bytes.truncate(at % (len + 1)),
        Damage::Insert { at, byte } => bytes.insert(at % (len + 1), byte),
        Damage::Digit {
            row,
            from_end,
            digit,
        } => {
            const FIELD: &[u8] = b"\"count_hex\":\"";
            let starts: Vec<usize> = (0..len.saturating_sub(FIELD.len()))
                .filter(|&i| bytes[i..].starts_with(FIELD))
                .map(|i| i + FIELD.len())
                .collect();
            let Some(&start) = starts.get(row % starts.len().max(1)) else {
                return;
            };
            let digits = bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_hexdigit())
                .count();
            if digits > 0 {
                bytes[start + digits - 1 - from_end % digits] = b"0123456789abcdef"[digit];
            }
        }
    }
}

proptest! {
    #[test]
    fn bounded_cache_never_serves_stale_or_cross_key_values(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        capacity_units in 1u64..6,
    ) {
        let cache = MemoryCache::new().with_capacity_bytes(capacity_units * weight_unit());
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
        let cache = MemoryCache::new().with_capacity_bytes(capacity_units * weight_unit());
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

    #[test]
    fn a_corrupted_entry_decodes_to_the_original_or_misses(
        report in large_count_report(),
        damage in proptest::collection::vec(damage_strategy(), 1..4),
    ) {
        let text = encode_report(&report);
        let original = decode_report(&text).expect("an intact entry decodes");
        prop_assert_eq!(original.rows(), report.rows());
        prop_assert!(report.rows().iter().any(|r| r.bits.fract() == 0.0 && r.bits > 53.0));
        prop_assert!(report.rows().iter().any(|r| r.bits.fract() != 0.0 && r.bits > 53.0));
        let mut bytes = text.into_bytes();
        for d in &damage {
            apply(&mut bytes, *d);
        }
        // Bytes that are not UTF-8 never reach the decoder: reading the
        // entry file as text already fails, which is a miss.
        if let Some(decoded) = String::from_utf8(bytes).ok().and_then(|t| decode_report(&t)) {
            prop_assert_eq!(decoded.rows().len(), report.rows().len());
            for (got, want) in decoded.rows().iter().zip(report.rows()) {
                prop_assert_eq!(got.spec, want.spec);
                prop_assert_eq!(&got.count, &want.count);
                prop_assert_eq!(got.bits.to_bits(), want.bits.to_bits());
            }
        }
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
