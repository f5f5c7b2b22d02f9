//! The content-addressed result cache: a sharded, optionally bounded
//! in-memory store plus a fan-out on-disk JSON store.
//!
//! Reports are immutable once computed (the analyzer is deterministic),
//! so cache entries are `Arc`-shared: a hit hands out the same report
//! the first computation produced, and "bit-identical" is trivially
//! true for in-memory hits. Disk entries round-trip through an explicit
//! JSON encoding whose exactness is pinned by tests (counts as hex
//! big-numbers, bits as shortest-round-trip floats).
//!
//! # Sharding and eviction
//!
//! A daemon serving many clients cannot live with PR 3's single mutex
//! and unbounded map: every lookup serialized on one lock, and memory
//! grew without bound. [`MemoryCache`] now hashes keys across N
//! mutex-guarded shards (contention drops N-fold; the key's fingerprint
//! bits pick the shard, no re-hashing) and optionally enforces a byte
//! budget per shard, evicting through a pluggable [`EvictionPolicy`]
//! that reuses the `leakaudit-cache` replacement-policy vocabulary
//! (LRU/FIFO, by bytes). [`DiskCache`] fans entries out into
//! `ab/cd/<key>.json` subdirectories — flat directories stop scaling
//! past a few thousand files — while transparently reading (and
//! re-sharding) entries written in the PR-3 flat layout.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use leakaudit_analyzer::{Channel, LeakReport, LeakRow, ObserverSpec};
use leakaudit_core::{Observer, TraceDag};
use leakaudit_mpi::Natural;

use crate::key::CacheKey;

/// Schema tag of the on-disk entry format.
const RESULT_SCHEMA: &str = "leakaudit-result/v1";

/// A store of analysis results addressed by [`CacheKey`].
pub trait ResultCache {
    /// Looks a report up.
    fn get(&self, key: &CacheKey) -> Option<Arc<LeakReport>>;

    /// Stores a report (last write wins; identical content either way).
    fn put(&self, key: CacheKey, report: Arc<LeakReport>);
}

/// Hit/miss/eviction counters of a cache front-end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to satisfy the byte budget.
    pub evictions: u64,
}

/// Recency/age metadata of one cached entry, as seen by an
/// [`EvictionPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct EntryMeta {
    /// Approximate retained bytes of the entry.
    pub weight: u64,
    /// Logical timestamp of the last hit (or the insertion, whichever
    /// is later). Monotonic across the whole cache.
    pub last_touch: u64,
    /// Logical timestamp of the insertion.
    pub inserted: u64,
}

/// Chooses which entry a full shard drops.
///
/// The vocabulary deliberately mirrors the replacement policies of the
/// `leakaudit-cache` simulator ([`leakaudit_cache::Policy`]) — the same
/// names an operator already uses for cache geometry sweeps select the
/// result store's eviction behavior (see [`eviction_for`]).
pub trait EvictionPolicy: Send + Sync + fmt::Debug {
    /// Stable lowercase name (`"lru"`, `"fifo"`).
    fn name(&self) -> &'static str;

    /// The entry to evict, given every entry of the over-budget shard.
    /// `None` is only allowed for an empty iterator.
    fn victim(&self, entries: &mut dyn Iterator<Item = (CacheKey, EntryMeta)>) -> Option<CacheKey>;
}

/// Evict the least-recently-used entry (by [`EntryMeta::last_touch`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LruBytes;

impl EvictionPolicy for LruBytes {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victim(&self, entries: &mut dyn Iterator<Item = (CacheKey, EntryMeta)>) -> Option<CacheKey> {
        entries.min_by_key(|(_, m)| m.last_touch).map(|(k, _)| k)
    }
}

/// Evict the oldest entry (by [`EntryMeta::inserted`]), hits ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoBytes;

impl EvictionPolicy for FifoBytes {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn victim(&self, entries: &mut dyn Iterator<Item = (CacheKey, EntryMeta)>) -> Option<CacheKey> {
        entries.min_by_key(|(_, m)| m.inserted).map(|(k, _)| k)
    }
}

/// The eviction policy matching a cache-simulator replacement policy.
/// Tree-PLRU approximates LRU in hardware because exact recency is
/// expensive per set; a software byte-weighted store tracks exact
/// recency anyway, so `Plru` maps to [`LruBytes`].
pub fn eviction_for(policy: leakaudit_cache::Policy) -> Arc<dyn EvictionPolicy> {
    match policy {
        leakaudit_cache::Policy::Fifo => Arc::new(FifoBytes),
        leakaudit_cache::Policy::Lru | leakaudit_cache::Policy::Plru => Arc::new(LruBytes),
    }
}

/// Approximate retained bytes of one report (rows, counts, specs). Used
/// as the eviction weight; exactness is irrelevant, monotonicity with
/// actual size is what bounds memory.
pub fn report_weight(report: &LeakReport) -> u64 {
    let rows = report.rows();
    let per_row: u64 = rows
        .iter()
        .map(|r| 48 + r.count.to_hex().len() as u64 / 2)
        .sum();
    64 + per_row
}

struct Entry {
    report: Arc<LeakReport>,
    meta: EntryMeta,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    bytes: u64,
}

/// The in-memory store: key-sharded maps of shared reports with an
/// optional byte budget enforced by an [`EvictionPolicy`].
///
/// [`MemoryCache::new`] is unbounded (the PR-3 behavior); bound it with
/// [`MemoryCache::with_capacity_bytes`]. The budget splits evenly
/// across shards, so a pathological shard cannot starve the others.
pub struct MemoryCache {
    shards: Vec<Mutex<Shard>>,
    capacity: Option<u64>,
    policy: Arc<dyn EvictionPolicy>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl fmt::Debug for MemoryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for MemoryCache {
    fn default() -> Self {
        MemoryCache::new()
    }
}

/// Default shard count: enough to make lock contention negligible for a
/// worker pool of typical size, small enough to stay cheap to sum over.
const DEFAULT_SHARDS: usize = 8;

impl MemoryCache {
    /// An empty, unbounded cache with the default shard count.
    pub fn new() -> Self {
        MemoryCache::with_shards(DEFAULT_SHARDS)
    }

    /// An empty, unbounded cache sharded `shards` ways (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        MemoryCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: None,
            policy: Arc::new(LruBytes),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bounds the cache at roughly `bytes` retained report bytes
    /// (estimated via [`report_weight`]); inserting past the budget
    /// evicts via the configured policy. An entry larger than a whole
    /// shard's budget is evicted immediately after insertion — the
    /// cache stays bounded, the caller just recomputes.
    #[must_use]
    pub fn with_capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    /// Selects the eviction policy (default: [`LruBytes`]).
    #[must_use]
    pub fn with_policy(mut self, policy: Arc<dyn EvictionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").map.len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate retained bytes across all shards.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").bytes)
            .sum()
    }

    /// Lookup/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The configured eviction policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mask = self.shards.len() - 1;
        &self.shards[(key.low_bits() as usize) & mask]
    }

    fn shard_budget(&self) -> Option<u64> {
        self.capacity.map(|c| c / self.shards.len() as u64)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

impl ResultCache for MemoryCache {
    fn get(&self, key: &CacheKey) -> Option<Arc<LeakReport>> {
        let now = self.tick();
        let mut shard = self.shard(key).lock().expect("cache poisoned");
        let found = shard.map.get_mut(key).map(|entry| {
            entry.meta.last_touch = now;
            Arc::clone(&entry.report)
        });
        drop(shard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: CacheKey, report: Arc<LeakReport>) {
        let now = self.tick();
        let weight = report_weight(&report);
        let mut shard = self.shard(&key).lock().expect("cache poisoned");
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                report,
                meta: EntryMeta {
                    weight,
                    last_touch: now,
                    inserted: now,
                },
            },
        ) {
            shard.bytes -= old.meta.weight;
        }
        shard.bytes += weight;
        if let Some(budget) = self.shard_budget() {
            while shard.bytes > budget && !shard.map.is_empty() {
                let victim = self
                    .policy
                    .victim(&mut shard.map.iter().map(|(k, e)| (*k, e.meta)))
                    .expect("non-empty shard yields a victim");
                let evicted = shard.map.remove(&victim).expect("victim exists");
                shard.bytes -= evicted.meta.weight;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The on-disk store: one `ab/cd/<key-hex>.json` file per entry, fanned
/// out by the first four hex digits of the key.
///
/// Writes are best-effort (a full disk degrades the store to a smaller
/// cache, never to an error in the sweep); reads treat unparsable files
/// as misses, so a corrupted entry costs a re-analysis, not a panic.
/// Entries written by the PR-3 flat layout (`<key-hex>.json` directly
/// in the directory) stay readable: a flat hit is served, rewritten
/// into the sharded layout, and the flat file removed — or migrate the
/// whole store at once with [`DiskCache::migrate`].
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of (syntactically plausible) entries on disk, flat and
    /// sharded layouts combined.
    pub fn len(&self) -> usize {
        self.flat_len() + self.sharded_len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries still in the PR-3 flat layout.
    pub fn flat_len(&self) -> usize {
        count_json(&self.dir)
    }

    /// Entries in the sharded `ab/cd/` layout.
    pub fn sharded_len(&self) -> usize {
        let Ok(level1) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        level1
            .flatten()
            .filter(|d| is_shard_dir(&d.path()))
            .flat_map(|d| std::fs::read_dir(d.path()).into_iter().flatten().flatten())
            .filter(|d| is_shard_dir(&d.path()))
            .map(|d| count_json(&d.path()))
            .sum()
    }

    /// Moves every flat-layout entry into the sharded layout, returning
    /// how many were moved. Safe to run on a live store (entry files
    /// are renamed one by one; readers fall back between layouts).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error; already-moved entries stay moved.
    pub fn migrate(&self) -> std::io::Result<usize> {
        let mut moved = 0;
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let path = entry.path();
            let Some(key) = key_of_flat_entry(&path) else {
                continue;
            };
            let target = self.sharded_path(&key);
            std::fs::create_dir_all(target.parent().expect("sharded path has a parent"))?;
            std::fs::rename(&path, &target)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Stores a whole collected sweep in two phases: every entry is
    /// first written to its sideways `.json.tmp` file, then all the
    /// renames happen back to back. The visible effect is identical to
    /// calling [`ResultCache::put`] per entry, but the metadata churn
    /// (directory creation, rename barriers) batches at the end of the
    /// sweep instead of interleaving with result collection — and a
    /// crash mid-batch leaves only ignorable `.tmp` litter, never a
    /// torn entry. Best-effort like `put`: errors degrade to a smaller
    /// cache.
    pub fn put_many<'a>(&self, entries: impl IntoIterator<Item = (CacheKey, &'a LeakReport)>) {
        let mut staged: Vec<(PathBuf, PathBuf)> = Vec::new();
        for (key, report) in entries {
            let path = self.sharded_path(&key);
            let Some(parent) = path.parent() else {
                continue;
            };
            if std::fs::create_dir_all(parent).is_err() {
                continue;
            }
            let tmp = path.with_extension("json.tmp");
            if std::fs::write(&tmp, encode_report(report)).is_ok() {
                staged.push((tmp, path));
            }
        }
        for (tmp, path) in staged {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    fn sharded_path(&self, key: &CacheKey) -> PathBuf {
        let hex = key.to_hex();
        self.dir
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.json"))
    }

    fn flat_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }
}

/// `true` for the two-hex-digit directories of the sharded layout.
fn is_shard_dir(path: &Path) -> bool {
    path.is_dir()
        && path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.len() == 2 && n.bytes().all(|b| b.is_ascii_hexdigit()))
}

fn count_json(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            let p = e.path();
            p.is_file() && p.extension().is_some_and(|x| x == "json")
        })
        .count()
}

/// The key encoded in a flat-layout entry file name, if this is one.
fn key_of_flat_entry(path: &Path) -> Option<CacheKey> {
    if !path.is_file() || path.extension()? != "json" {
        return None;
    }
    CacheKey::from_hex(path.file_stem()?.to_str()?)
}

impl ResultCache for DiskCache {
    fn get(&self, key: &CacheKey) -> Option<Arc<LeakReport>> {
        if let Ok(text) = std::fs::read_to_string(self.sharded_path(key)) {
            return decode_report(&text).map(Arc::new);
        }
        // Flat-layout fallback: serve the hit, then re-shard it so the
        // next lookup (and `len`) sees the new layout.
        let flat = self.flat_path(key);
        let text = std::fs::read_to_string(&flat).ok()?;
        let report = decode_report(&text).map(Arc::new)?;
        self.put(*key, Arc::clone(&report));
        let _ = std::fs::remove_file(&flat);
        Some(report)
    }

    fn put(&self, key: CacheKey, report: Arc<LeakReport>) {
        let path = self.sharded_path(&key);
        let Some(parent) = path.parent() else { return };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
        let tmp = path.with_extension("json.tmp");
        // Atomic-enough: write sideways, then rename over.
        if std::fs::write(&tmp, encode_report(&report)).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// Encodes a report as the `leakaudit-result/v1` JSON document: one
/// row object per line, counts as hex big-numbers, bits via the
/// shortest float representation that round-trips.
pub fn encode_report(report: &LeakReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{RESULT_SCHEMA}\",");
    let _ = writeln!(out, "  \"rows\": [");
    let rows = report.rows();
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", encode_row(row));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Encodes one row as a flat JSON object, the line format of
/// [`encode_report`]. `bits` is spelled as Rust's shortest round-trip
/// float (`1.0`, `2.321928094887362`). Daemon wire rows share the
/// field order but spell an integral `bits` as an integer (`1`);
/// [`decode_row`] reads both.
pub fn encode_row(row: &LeakRow) -> String {
    format!(
        "{{\"channel\":{},\"offset_bits\":{},\"stuttering\":{},\
         \"count_hex\":\"{}\",\"bits\":{:?}}}",
        row.spec.channel.code(),
        row.spec.observer.offset_bits(),
        u8::from(row.spec.observer.is_stuttering()),
        row.count.to_hex(),
        row.bits,
    )
}

/// Appends one row as the daemon's wire protocol spells it: the
/// [`encode_row`] fields in the same order, with `bits` in the
/// protocol's number spelling (integral values without a fraction).
pub(crate) fn write_wire_row(out: &mut String, row: &LeakRow) -> fmt::Result {
    write!(
        out,
        "{{\"channel\":{},\"offset_bits\":{},\"stuttering\":{},\"count_hex\":\"{}\",\"bits\":",
        row.spec.channel.code(),
        row.spec.observer.offset_bits(),
        u8::from(row.spec.observer.is_stuttering()),
        row.count.to_hex(),
    )?;
    crate::proto::write_num(out, row.bits)?;
    out.push('}');
    Ok(())
}

/// Decodes [`encode_report`]'s format. `None` on any structural or
/// field-level mismatch (treated as a cache miss by callers): an entry
/// is served whole and right, or not at all.
///
/// - The schema line must name exactly [`RESULT_SCHEMA`]; a document of
///   another version (`leakaudit-result/v10` included) is a miss.
/// - Every line between `"rows": [` and `]` must be one whole `{…}` row
///   object that decodes, so a damaged row line cannot silently drop
///   out of the report.
/// - A row's `bits` must be bit-identical to
///   [`TraceDag::bits_for_count`] of its count — the way every
///   production row is built — so damage to the count or bits field that
///   still parses is caught whenever it changes `log2(count)` as an
///   `f64`. Damage below that precision is not: a flipped low-order
///   digit of a count above about 2^53 leaves the `f64` logarithm, and
///   so the check, unchanged.
/// - A document cut short — the torn file a crash between write and
///   rename can leave behind — is a mismatch too: the closing `]` and
///   `}` lines and the final newline must be present, and only the last
///   row may lack its trailing comma, so no proper prefix of a valid
///   document decodes.
pub fn decode_report(text: &str) -> Option<LeakReport> {
    let schema_line = format!("\"schema\": \"{RESULT_SCHEMA}\",");
    let mut lines: Vec<&str> = text.strip_suffix('\n')?.lines().map(str::trim).collect();
    if lines.pop()? != "}" || lines.pop()? != "]" {
        return None;
    }
    let row_lines = match lines.as_slice() {
        ["{", schema, "\"rows\": [", rows @ ..] if *schema == schema_line => rows,
        _ => return None,
    };
    let mut rows = Vec::with_capacity(row_lines.len());
    for (i, line) in row_lines.iter().enumerate() {
        let last = i + 1 == row_lines.len();
        let row = match line.strip_suffix(',') {
            Some(row) if !last => row,
            None if last => line,
            _ => return None,
        };
        if !(row.starts_with('{') && row.ends_with('}')) {
            return None;
        }
        let row = decode_row(row)?;
        if row.bits.to_bits() != TraceDag::bits_for_count(&row.count).to_bits() {
            return None;
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return None;
    }
    Some(LeakReport::from_rows(rows))
}

/// Decodes one [`encode_row`] line. `None` on any mismatch.
pub fn decode_row(line: &str) -> Option<LeakRow> {
    let channel = Channel::from_code(field(line, "channel")?.parse().ok()?)?;
    let offset_bits: u8 = field(line, "offset_bits")?.parse().ok()?;
    let stuttering = match field(line, "stuttering")? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let count = Natural::from_hex(field(line, "count_hex")?).ok()?;
    let bits: f64 = field(line, "bits")?.parse().ok()?;
    let mut observer = Observer::block(offset_bits);
    if stuttering {
        observer = observer.stuttering();
    }
    Some(LeakRow {
        spec: ObserverSpec { channel, observer },
        count,
        bits,
    })
}

/// Extracts the raw text of `"key":value` within one flat JSON object
/// line (quotes stripped).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LeakReport {
        let s = leakaudit_scenarios::lookup_unprotected::libgcrypt_161_o2();
        s.analyze().expect("analysis converges")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "leakaudit-cache-test-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn key_n(n: u64) -> CacheKey {
        CacheKey::from_hex(&format!("{n:032x}")).unwrap()
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let report = sample_report();
        let decoded = decode_report(&encode_report(&report)).expect("decodes");
        assert_eq!(report.rows().len(), decoded.rows().len());
        for (a, b) in report.rows().iter().zip(decoded.rows()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.count, b.count);
            assert_eq!(a.bits.to_bits(), b.bits.to_bits(), "exact f64 identity");
        }
    }

    #[test]
    fn disk_and_wire_rows_spell_integral_bits_differently() {
        let row = |count: u64, bits: f64| LeakRow {
            spec: ObserverSpec {
                channel: Channel::Data,
                observer: Observer::block(6).stuttering(),
            },
            count: Natural::from(count),
            bits,
        };
        let head = r#"{"channel":1,"offset_bits":6,"stuttering":1,"count_hex":"#;
        for (row, disk_bits, wire_bits) in [
            (row(2, 1.0), "1.0", "1"),
            (
                row(5, 5f64.log2()),
                "2.321928094887362",
                "2.321928094887362",
            ),
        ] {
            let hex = row.count.to_hex();
            let disk = encode_row(&row);
            let mut wire = String::new();
            write_wire_row(&mut wire, &row).unwrap();
            assert_eq!(disk, format!(r#"{head}"{hex}","bits":{disk_bits}}}"#));
            assert_eq!(wire, format!(r#"{head}"{hex}","bits":{wire_bits}}}"#));
            for text in [&disk, &wire] {
                let back = decode_row(text).expect("both spellings decode");
                assert_eq!(back.spec, row.spec);
                assert_eq!(back.count, row.count);
                assert_eq!(back.bits.to_bits(), row.bits.to_bits(), "{text}");
            }
        }
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = MemoryCache::new();
        let key = key_n(0);
        assert!(cache.get(&key).is_none());
        cache.put(key, Arc::new(sample_report()));
        assert!(cache.get(&key).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = MemoryCache::with_shards(4);
        let report = Arc::new(sample_report());
        for n in 0..32 {
            cache.put(key_n(n), Arc::clone(&report));
        }
        assert_eq!(cache.len(), 32);
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(populated > 1, "sequential keys must not pile on one shard");
        for n in 0..32 {
            assert!(cache.get(&key_n(n)).is_some());
        }
    }

    #[test]
    fn capacity_bound_evicts_lru_first() {
        let report = Arc::new(sample_report());
        let weight = report_weight(&report);
        // One shard, room for ~3 entries.
        let cache = MemoryCache::with_shards(1)
            .with_capacity_bytes(3 * weight)
            .with_policy(Arc::new(LruBytes));
        for n in 0..3 {
            cache.put(key_n(n), Arc::clone(&report));
        }
        assert_eq!(cache.len(), 3);
        // Touch key 0 so key 1 is now the least recently used …
        assert!(cache.get(&key_n(0)).is_some());
        cache.put(key_n(3), Arc::clone(&report));
        // … and gets evicted, while 0, 2, 3 survive.
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key_n(1)).is_none(), "LRU victim evicted");
        assert!(cache.get(&key_n(0)).is_some());
        assert!(cache.get(&key_n(2)).is_some());
        assert!(cache.get(&key_n(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.bytes() <= 3 * weight);
    }

    #[test]
    fn fifo_ignores_touches() {
        let report = Arc::new(sample_report());
        let weight = report_weight(&report);
        let cache = MemoryCache::with_shards(1)
            .with_capacity_bytes(3 * weight)
            .with_policy(eviction_for(leakaudit_cache::Policy::Fifo));
        assert_eq!(cache.policy_name(), "fifo");
        for n in 0..3 {
            cache.put(key_n(n), Arc::clone(&report));
        }
        assert!(
            cache.get(&key_n(0)).is_some(),
            "touching 0 does not save it"
        );
        cache.put(key_n(3), Arc::clone(&report));
        assert!(cache.get(&key_n(0)).is_none(), "FIFO evicts the oldest");
        assert!(cache.get(&key_n(1)).is_some());
    }

    #[test]
    fn reinserting_a_key_does_not_double_count_bytes() {
        let report = Arc::new(sample_report());
        let cache = MemoryCache::with_shards(1);
        cache.put(key_n(7), Arc::clone(&report));
        let once = cache.bytes();
        cache.put(key_n(7), Arc::clone(&report));
        assert_eq!(cache.bytes(), once);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_cache_round_trips_through_sharded_files() {
        let dir = temp_dir("sharded");
        let cache = DiskCache::open(&dir).expect("temp dir");
        let key = CacheKey::from_hex(&"ab".repeat(16)).unwrap();
        assert!(cache.get(&key).is_none());
        let report = Arc::new(sample_report());
        cache.put(key, Arc::clone(&report));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.sharded_len(), 1);
        assert_eq!(cache.flat_len(), 0);
        // The fan-out layout: ab/ab/<key>.json for this key.
        assert!(dir
            .join("ab")
            .join("ab")
            .join(format!("{}.json", key.to_hex()))
            .is_file());
        let loaded = cache.get(&key).expect("entry exists");
        for (a, b) in report.rows().iter().zip(loaded.rows()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.count, b.count);
            assert_eq!(a.bits.to_bits(), b.bits.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flat_layout_entries_are_served_and_resharded() {
        let dir = temp_dir("flat");
        let cache = DiskCache::open(&dir).expect("temp dir");
        let key = CacheKey::from_hex(&"cd".repeat(16)).unwrap();
        let report = sample_report();
        // Write the PR-3 flat layout by hand.
        std::fs::write(
            dir.join(format!("{}.json", key.to_hex())),
            encode_report(&report),
        )
        .unwrap();
        assert_eq!(cache.flat_len(), 1);
        let loaded = cache.get(&key).expect("flat entry readable");
        assert_eq!(loaded.rows().len(), report.rows().len());
        // Served once, the entry now lives in the sharded layout.
        assert_eq!(cache.flat_len(), 0);
        assert_eq!(cache.sharded_len(), 1);
        assert!(cache.get(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn migrate_moves_every_flat_entry() {
        let dir = temp_dir("migrate");
        let cache = DiskCache::open(&dir).expect("temp dir");
        let report = sample_report();
        let keys: Vec<CacheKey> = (0..5).map(key_n).collect();
        for key in &keys {
            std::fs::write(
                dir.join(format!("{}.json", key.to_hex())),
                encode_report(&report),
            )
            .unwrap();
        }
        // A stray non-entry file must survive untouched.
        std::fs::write(dir.join("README.txt"), "not a cache entry").unwrap();
        assert_eq!(cache.flat_len(), 5);
        assert_eq!(cache.migrate().expect("migration succeeds"), 5);
        assert_eq!(cache.flat_len(), 0);
        assert_eq!(cache.sharded_len(), 5);
        assert_eq!(cache.migrate().expect("idempotent"), 0);
        for key in &keys {
            assert!(cache.get(key).is_some(), "{key} readable after migration");
        }
        assert!(dir.join("README.txt").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_entries_read_as_misses() {
        assert!(decode_report("not json").is_none());
        assert!(decode_report("{\"schema\": \"leakaudit-result/v1\", \"rows\": []}").is_none());
        let good = encode_report(&sample_report());
        let bad = good.replace("\"count_hex\":\"", "\"count_hex\":\"zz");
        assert!(decode_report(&bad).is_none());
    }

    #[test]
    fn another_schema_version_is_a_miss() {
        let good = encode_report(&sample_report());
        assert!(decode_report(&good).is_some());
        for other in [
            "leakaudit-result/v10",
            "leakaudit-result/v2",
            "xleakaudit-result/v1",
        ] {
            let text = good.replace(RESULT_SCHEMA, other);
            assert!(decode_report(&text).is_none(), "{other} decoded as v1");
        }
    }

    #[test]
    fn a_damaged_row_line_misses_the_whole_entry() {
        let good = encode_report(&sample_report());
        let rows = good.lines().filter(|l| l.contains("\"channel\"")).count();
        assert!(rows > 1, "the sample has several rows");
        // Corrupt the leading `{` of each row line in turn: no prefix of
        // the rows may be served as a hit.
        for n in 0..rows {
            let mut seen = 0;
            let text: String = good
                .lines()
                .map(|line| {
                    let mut line = line.to_string();
                    if line.contains("\"channel\"") {
                        if seen == n {
                            line = line.replacen('{', "#", 1);
                        }
                        seen += 1;
                    }
                    line + "\n"
                })
                .collect();
            assert!(decode_report(&text).is_none(), "row {n} damaged:\n{text}");
        }
    }

    #[test]
    fn a_count_that_disagrees_with_its_bits_is_a_miss() {
        let report = sample_report();
        let good = encode_report(&report);
        let row = report
            .rows()
            .iter()
            .find(|row| row.count.to_u64() == Some(2))
            .expect("the sample has a one-bit row");
        // One flipped digit: count 2 -> 3 still parses, but 1.0 bits is
        // no longer log2 of it.
        let line = encode_row(row);
        let flipped = line.replace("\"count_hex\":\"2\"", "\"count_hex\":\"3\"");
        assert_ne!(line, flipped);
        let text = good.replacen(&line, &flipped, 1);
        assert!(decode_report(&text).is_none());
    }

    #[test]
    fn a_low_digit_flip_beyond_f64_precision_still_decodes() {
        // The count/bits check only sees damage that moves log2(count) as
        // an f64. Above about 2^53 a low-order digit does not: this entry
        // is served with the wrong count.
        let mut row = sample_report().rows()[0].clone();
        row.count = Natural::from_hex("2000000000000010").unwrap();
        row.bits = TraceDag::bits_for_count(&row.count);
        let text = encode_report(&LeakReport::from_rows(vec![row]));
        let flipped = text.replace("2000000000000010", "2000000000000011");
        assert_ne!(text, flipped);
        let decoded = decode_report(&flipped).expect("the flip is invisible to the check");
        assert_eq!(
            decoded.rows()[0].count,
            Natural::from_hex("2000000000000011").unwrap()
        );
    }

    #[test]
    fn no_proper_prefix_of_a_report_decodes() {
        let report = sample_report();
        let text = encode_report(&report);
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(
                decode_report(&text[..cut]).is_none(),
                "prefix of {cut}/{} bytes decoded:\n{}",
                text.len(),
                &text[..cut]
            );
        }
        let full = decode_report(&text).expect("full text decodes");
        assert_eq!(full.rows(), report.rows());
    }

    #[test]
    fn truncated_disk_entry_is_a_miss() {
        let dir = temp_dir("torn");
        let cache = DiskCache::open(&dir).unwrap();
        let key = key_n(7);
        cache.put(key, Arc::new(sample_report()));
        let path = cache.sharded_path(&key);
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut after the third row line, as a crash at a row boundary
        // would leave the file.
        let cut = text.match_indices('\n').nth(5).unwrap().0 + 1;
        std::fs::write(&path, &text[..cut]).unwrap();
        assert!(cache.get(&key).is_none(), "torn entry must miss");
        std::fs::write(&path, &text).unwrap();
        assert!(cache.get(&key).is_some(), "intact entry still hits");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
