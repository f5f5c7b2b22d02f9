//! A set-associative cache simulator: the concrete miss-pattern oracle.
//!
//! The paper's observers (§3.2) abstract away cache *state*: they model
//! what an adversary learns from the sequence of accessed units. An L1
//! adversary that sees which of the victim's accesses hit and which
//! missed (the trace-driven class in the usual taxonomy of cache
//! attacks, surveyed in arXiv 2312.11094) learns no more than the
//! block-trace observer. This crate is the concrete side of that
//! correspondence. A [`Cache`] started empty turns a data-address trace
//! into a hit/miss sequence, and that sequence depends only on the
//! trace's sequence of lines (addresses within one line are
//! interchangeable, pinned by a unit test under every [`Policy`]). So
//! for one heap layout:
//!
//! > distinct hit/miss patterns ≤ distinct block views ≤ static count,
//!
//! the second step being the paper's Theorem 1 for the block observer
//! at the cache's line size. The `cache_policies` example checks the
//! whole chain for every paper scenario under LRU, FIFO and tree-PLRU.
//!
//! # Example
//!
//! ```
//! use leakaudit_cache::{Cache, CacheConfig, Policy};
//!
//! let mut cache = Cache::new(CacheConfig {
//!     sets: 64,
//!     ways: 8,
//!     line_bytes: 64,
//!     policy: Policy::Lru,
//! });
//! assert!(!cache.access(0x1000)); // cold miss
//! assert!(cache.access(0x1004)); // same line: hit
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Tree-based pseudo-LRU (the policy of most real L1s, including the
    /// Core 2 generation the paper measured on). Requires a power-of-two
    /// associativity.
    Plru,
}

impl Policy {
    /// Every policy, for sweeps and comparison tables.
    pub const ALL: [Policy; 3] = [Policy::Lru, Policy::Fifo, Policy::Plru];

    /// Stable lowercase name (`"lru"`, `"fifo"`, `"plru"`).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "lru",
            Policy::Fifo => "fifo",
            Policy::Plru => "plru",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 64-byte-line L1 (the paper's default block size).
    pub fn l1_default() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            policy: Policy::Lru,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of hits.
    pub hits: u64,
    /// Number of misses.
    pub misses: u64,
    /// Number of evictions caused by misses in full sets.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (zero when no accesses were made).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({:.1}% miss)",
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

/// Replacement state of one cache set.
#[derive(Debug, Clone)]
enum CacheSet {
    /// LRU/FIFO: a queue of resident tags, front = next victim.
    Queue(VecDeque<u64>),
    /// Tree-PLRU: way-indexed tags plus the decision bits. Bit `n`
    /// (heap-indexed, root = 1) selects which subtree holds the
    /// pseudo-least-recently-used way; every access flips the bits on
    /// its leaf-to-root path away from itself.
    Tree { ways: Vec<Option<u64>>, bits: u32 },
}

impl CacheSet {
    fn new(config: &CacheConfig) -> Self {
        match config.policy {
            Policy::Lru | Policy::Fifo => {
                CacheSet::Queue(VecDeque::with_capacity(config.ways as usize))
            }
            Policy::Plru => CacheSet::Tree {
                ways: vec![None; config.ways as usize],
                bits: 0,
            },
        }
    }

    fn contains(&self, tag: u64) -> bool {
        match self {
            CacheSet::Queue(q) => q.contains(&tag),
            CacheSet::Tree { ways, .. } => ways.contains(&Some(tag)),
        }
    }

    fn clear(&mut self) {
        match self {
            CacheSet::Queue(q) => q.clear(),
            CacheSet::Tree { ways, bits } => {
                ways.fill(None);
                *bits = 0;
            }
        }
    }
}

/// Walks the PLRU tree from the root to the victim way: at each inner
/// node, follow the direction the decision bit points to.
fn plru_victim(bits: u32, ways: usize) -> usize {
    let mut node = 1usize;
    while node < ways {
        let b = (bits >> node) & 1;
        node = 2 * node + b as usize;
    }
    node - ways
}

/// Points every decision bit on the accessed way's root path *away* from
/// it (the way becomes pseudo-most-recently-used).
fn plru_touch(bits: &mut u32, ways: usize, way: usize) {
    let mut node = ways + way;
    while node > 1 {
        let parent = node / 2;
        // Came from the left child (2·parent): point right, and vice versa.
        if node == 2 * parent {
            *bits |= 1 << parent;
        } else {
            *bits &= !(1 << parent);
        }
        node = parent;
    }
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<CacheSet>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, if `ways`
    /// is zero, or if the policy is [`Policy::Plru`] and `ways` is not a
    /// power of two (the decision tree needs complete levels).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "associativity must be positive");
        if config.policy == Policy::Plru {
            assert!(
                config.ways.is_power_of_two() && config.ways <= 32,
                "PLRU needs a power-of-two associativity (max 32)"
            );
        }
        Cache {
            config,
            sets: vec![CacheSet::new(&config); config.sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The (set index, tag) decomposition of an address.
    pub fn locate(&self, addr: u64) -> (u32, u64) {
        let line = addr / u64::from(self.config.line_bytes);
        let set = (line % u64::from(self.config.sets)) as u32;
        let tag = line / u64::from(self.config.sets);
        (set, tag)
    }

    /// Performs one access; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let capacity = self.config.ways as usize;
        let policy = self.config.policy;
        match &mut self.sets[set_idx as usize] {
            CacheSet::Queue(set) => {
                if let Some(pos) = set.iter().position(|&t| t == tag) {
                    self.stats.hits += 1;
                    if policy == Policy::Lru {
                        // Move to the back (most recently used).
                        let t = set.remove(pos).unwrap();
                        set.push_back(t);
                    }
                    true
                } else {
                    self.stats.misses += 1;
                    if set.len() == capacity {
                        set.pop_front();
                        self.stats.evictions += 1;
                    }
                    set.push_back(tag);
                    false
                }
            }
            CacheSet::Tree { ways, bits } => {
                if let Some(way) = ways.iter().position(|&t| t == Some(tag)) {
                    self.stats.hits += 1;
                    plru_touch(bits, capacity, way);
                    true
                } else {
                    self.stats.misses += 1;
                    let way = match ways.iter().position(Option::is_none) {
                        Some(empty) => empty,
                        None => {
                            self.stats.evictions += 1;
                            plru_victim(*bits, capacity)
                        }
                    };
                    ways[way] = Some(tag);
                    plru_touch(bits, capacity, way);
                    false
                }
            }
        }
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.sets[set_idx as usize].contains(tag)
    }

    /// Empties the cache, keeping statistics.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
            policy: Policy::Lru,
        })
    }

    #[test]
    fn same_line_hits() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x13f));
        assert!(!c.access(0x140), "next line is a different block");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with (line % 2 == 0): 0x000, 0x100, 0x200...
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // refresh 0x000
        c.access(0x200); // evicts 0x100 (LRU), not 0x000
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn fifo_evicts_first_in() {
        let mut c = Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
            policy: Policy::Fifo,
        });
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // does NOT refresh under FIFO
        c.access(0x200); // evicts 0x000
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
    }

    fn plru4() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 4,
            line_bytes: 64,
            policy: Policy::Plru,
        })
    }

    // Set 0 holds even lines; five conflicting addresses for a 4-way set.
    const A: u64 = 0x000;
    const B: u64 = 0x080;
    const C: u64 = 0x100;
    const D: u64 = 0x180;
    const E: u64 = 0x200;

    #[test]
    fn plru_fills_invalid_ways_before_evicting() {
        let mut c = plru4();
        for addr in [A, B, C, D] {
            assert!(!c.access(addr), "cold miss");
        }
        assert_eq!(c.stats().evictions, 0, "invalid ways absorb cold misses");
        for addr in [A, B, C, D] {
            assert!(c.probe(addr));
        }
    }

    #[test]
    fn plru_sequential_fill_victimizes_the_oldest() {
        let mut c = plru4();
        for addr in [A, B, C, D] {
            c.access(addr);
        }
        // After an in-order fill the tree points at way 0 (= A), like LRU.
        c.access(E);
        assert!(!c.probe(A), "A is the pseudo-LRU victim");
        assert!(c.probe(B) && c.probe(C) && c.probe(D) && c.probe(E));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn plru_diverges_from_true_lru_after_a_refresh() {
        // The classic tree-PLRU artifact: fill A B C D, re-touch A. True
        // LRU would now evict B; the tree's root points at the *other*
        // half, so C goes instead.
        let mut c = plru4();
        for addr in [A, B, C, D] {
            c.access(addr);
        }
        assert!(c.access(A), "refresh hit");
        c.access(E);
        assert!(!c.probe(C), "tree victim is C");
        assert!(c.probe(B), "true-LRU victim B survives under PLRU");
        assert!(c.probe(A) && c.probe(D) && c.probe(E));
    }

    #[test]
    fn plru_single_way_acts_direct_mapped() {
        let mut c = Cache::new(CacheConfig {
            sets: 2,
            ways: 1,
            line_bytes: 64,
            policy: Policy::Plru,
        });
        assert!(!c.access(A));
        assert!(c.access(A));
        assert!(!c.access(B));
        assert!(!c.probe(A), "1-way: any conflicting fill evicts");
    }

    #[test]
    #[should_panic(expected = "power-of-two associativity")]
    fn plru_rejects_non_power_of_two_ways() {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 3,
            line_bytes: 64,
            policy: Policy::Plru,
        });
    }

    #[test]
    fn plru_flush_resets_tags_and_tree_bits() {
        let mut c = plru4();
        for addr in [A, B, C, D] {
            c.access(addr);
        }
        c.flush();
        assert!(!c.probe(A));
        // Post-flush behavior matches a fresh cache exactly.
        for addr in [A, B, C, D] {
            assert!(!c.access(addr));
        }
        c.access(E);
        assert!(!c.probe(A) && c.probe(B));
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(Policy::Lru.name(), "lru");
        assert_eq!(Policy::Fifo.to_string(), "fifo");
        assert_eq!(Policy::Plru.to_string(), "plru");
        assert_eq!(Policy::ALL.len(), 3);
    }

    #[test]
    fn set_mapping() {
        let c = small();
        assert_eq!(c.locate(0x000).0, 0);
        assert_eq!(c.locate(0x040).0, 1);
        assert_eq!(c.locate(0x080).0, 0);
        assert_eq!(c.locate(0x080).1, 1);
    }

    #[test]
    fn capacity_and_defaults() {
        let cfg = CacheConfig::l1_default();
        assert_eq!(cfg.capacity(), 32 * 1024);
        assert_eq!(cfg.policy, Policy::Lru);
    }

    #[test]
    fn prime_probe_distinguishes_victim_sets() {
        // The adversary primes both sets, lets the victim access one line,
        // then probes: exactly the victim's set shows a miss-displacement.
        // This is why block-granular observations model cache attacks.
        let mut c = small();
        for addr in [0x000u64, 0x200, 0x040, 0x240] {
            c.access(addr); // prime: fills both sets
        }
        c.access(0x400); // victim: set 0 -> evicts 0x000
        assert!(!c.probe(0x000), "victim displaced the adversary's line");
        assert!(c.probe(0x040), "untouched set still holds the probe line");
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut c = small();
        c.access(0x100);
        c.flush();
        assert!(!c.probe(0x100));
        assert_eq!(c.stats().misses, 1);
    }

    /// The (sets, ways) geometries of the random-stream tests. Their
    /// streams range over 32 lines, more than every geometry holds, so
    /// evictions occur.
    const GEOMETRIES: [(u32, u32); 6] = [(1, 1), (1, 2), (2, 2), (1, 4), (2, 4), (4, 2)];

    /// xorshift64: a fixed, dependency-free pseudo-random stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Line invariance, the premise of "hit/miss patterns ≤ block
    /// views": two address streams with the same line sequence (the
    /// addresses differ only below `line_bytes`) yield the same hit/miss
    /// sequence and the same counters, so the outcome of a run is a
    /// function of its block view at the line size.
    #[test]
    fn streams_with_equal_line_sequences_hit_and_miss_alike() {
        const LINE: u64 = 16;
        for policy in Policy::ALL {
            for (sets, ways) in GEOMETRIES {
                let config = CacheConfig {
                    sets,
                    ways,
                    line_bytes: LINE as u32,
                    policy,
                };
                for seed in 1..=16u64 {
                    let mut next = xorshift(seed);
                    let mut a = Cache::new(config);
                    let mut b = Cache::new(config);
                    for _ in 0..64 {
                        let line = next() % 32;
                        let (x, y) = (next() % LINE, next() % LINE);
                        assert_eq!(
                            a.access(line * LINE + x),
                            b.access(line * LINE + y),
                            "{policy} {sets}x{ways} seed {seed}"
                        );
                    }
                    assert_eq!(a.stats(), b.stats(), "{policy} {sets}x{ways} seed {seed}");
                }
            }
        }
    }

    /// Stutter invariance, the property behind stuttering observers: an
    /// immediate repeat of the line just accessed always hits and leaves
    /// the cache state as it was. (An LRU hit moves the back element to
    /// the back, FIFO ignores hits, and `plru_touch` is idempotent.)
    #[test]
    fn immediate_repeats_of_a_line_hit_and_change_nothing() {
        const LINE: u64 = 16;
        let mut repeats = 0u32;
        for policy in Policy::ALL {
            for (sets, ways) in GEOMETRIES {
                let config = CacheConfig {
                    sets,
                    ways,
                    line_bytes: LINE as u32,
                    policy,
                };
                for seed in 1..=16u64 {
                    let mut next = xorshift(seed);
                    let mut plain = Cache::new(config);
                    let mut stuttered = Cache::new(config);
                    for _ in 0..64 {
                        let addr = next() % (32 * LINE);
                        let hit = plain.access(addr);
                        assert_eq!(stuttered.access(addr), hit, "{policy} {sets}x{ways}");
                        for _ in 0..next() % 3 {
                            let offset = next() % LINE;
                            assert!(
                                stuttered.access(addr - addr % LINE + offset),
                                "{policy} {sets}x{ways}: a repeat must hit"
                            );
                            repeats += 1;
                        }
                    }
                    assert_eq!(
                        format!("{:?}", plain.sets),
                        format!("{:?}", stuttered.sets),
                        "{policy} {sets}x{ways} seed {seed}"
                    );
                    assert_eq!(plain.stats().misses, stuttered.stats().misses);
                    assert_eq!(plain.stats().evictions, stuttered.stats().evictions);
                }
            }
        }
        assert!(repeats > 0, "the sequences must stutter");
    }
}
