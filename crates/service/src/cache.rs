//! The content-addressed result cache: an optionally bounded in-memory
//! store plus a fan-out on-disk JSON store.
//!
//! Reports are immutable once computed (the analyzer is deterministic),
//! so cache entries are `Arc`-shared: a hit hands out the same report
//! the first computation produced, and "bit-identical" is trivially
//! true for in-memory hits. Disk entries round-trip through an explicit
//! JSON encoding whose exactness is pinned by tests: rows in the daemon's
//! wire spelling (counts as hex big-numbers, bits as shortest-round-trip
//! numbers) under a checksum over the whole entry.
//!
//! # Locking and eviction
//!
//! [`MemoryCache`] is one map behind one mutex. Every lookup and store
//! runs on a request thread (planning a sweep, collecting its results),
//! never on an executor worker, so the lock is not contended by the
//! analysis itself. The store optionally enforces one byte budget over
//! all entries, evicting the least-recently-used first. [`DiskCache`]
//! fans entries out into `ab/cd/<key>.json` subdirectories — flat
//! directories stop scaling past a few thousand files.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use leakaudit_analyzer::{Channel, LeakReport, LeakRow, ObserverSpec};
use leakaudit_core::{Fingerprint, FingerprintHasher, Observer, TraceDag};
use leakaudit_mpi::Natural;

use crate::key::CacheKey;

/// Schema tag of the on-disk entry format, and the domain tag of its
/// checksum.
///
/// v2: rows in the wire spelling (`"bits":1`, not `1.0`) and a closing
/// checksum line; a v1 entry is a miss.
const RESULT_SCHEMA: &str = "leakaudit-result/v2";

/// The start of an entry's closing checksum line.
const CHECKSUM_LINE: &str = "  \"checksum\": \"";

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
    /// Approximate retained bytes ([`report_weight`]).
    weight: u64,
    /// Logical timestamp of the last hit or the insertion, whichever is
    /// later. The smallest is evicted.
    last_touch: u64,
}

#[derive(Default)]
struct Store {
    map: HashMap<CacheKey, Entry>,
    bytes: u64,
    /// Logical clock of the LRU order, ticked by every lookup and store.
    clock: u64,
    stats: CacheStats,
}

/// The in-memory store: one map of shared reports with an optional byte
/// budget enforced by least-recently-used eviction.
///
/// [`MemoryCache::new`] is unbounded; bound it with
/// [`MemoryCache::with_capacity_bytes`].
#[derive(Default)]
pub struct MemoryCache {
    store: Mutex<Store>,
    capacity: Option<u64>,
}

impl fmt::Debug for MemoryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl MemoryCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        MemoryCache::default()
    }

    /// Bounds the cache at roughly `bytes` retained report bytes
    /// (estimated via [`report_weight`]); inserting past the budget
    /// evicts the least-recently-used entries. An entry larger than the
    /// whole budget is evicted immediately after insertion — the cache
    /// stays bounded, the caller just recomputes.
    #[must_use]
    pub fn with_capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().expect("cache poisoned")
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.store().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate retained bytes.
    pub fn bytes(&self) -> u64 {
        self.store().bytes
    }

    /// Lookup/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.store().stats
    }

    /// Looks a report up, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<LeakReport>> {
        let mut store = self.store();
        store.clock += 1;
        let now = store.clock;
        let found = store.map.get_mut(key).map(|entry| {
            entry.last_touch = now;
            Arc::clone(&entry.report)
        });
        match &found {
            Some(_) => store.stats.hits += 1,
            None => store.stats.misses += 1,
        }
        found
    }

    /// Stores a report (last write wins; identical content either way),
    /// evicting least-recently-used entries past the budget.
    pub fn put(&self, key: CacheKey, report: Arc<LeakReport>) {
        let weight = report_weight(&report);
        let mut store = self.store();
        store.clock += 1;
        let entry = Entry {
            report,
            weight,
            last_touch: store.clock,
        };
        if let Some(old) = store.map.insert(key, entry) {
            store.bytes -= old.weight;
        }
        store.bytes += weight;
        let Some(budget) = self.capacity else {
            return;
        };
        while store.bytes > budget && !store.map.is_empty() {
            let victim = *store
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .expect("a non-empty store yields a victim")
                .0;
            let evicted = store.map.remove(&victim).expect("victim exists");
            store.bytes -= evicted.weight;
            store.stats.evictions += 1;
        }
    }
}

/// The on-disk store: one `ab/cd/<key-hex>.json` file per entry, fanned
/// out by the first four hex digits of the key.
///
/// Writes are best-effort (a full disk degrades the store to a smaller
/// cache, never to an error in the sweep); reads treat unparsable files
/// as misses, so a corrupted entry costs a re-analysis, not a panic.
/// Entries of another schema version — among them every
/// `leakaudit-result/v1` entry — are misses too. A lookup deletes the
/// entry file it could not decode, so [`DiskCache::len`] counts only
/// servable entries; the recomputation writes the file again.
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

    /// Number of entry files in the `ab/cd/` layout. Each call walks the
    /// whole store (the daemon's `stats` request does so every time). A
    /// damaged entry counts until a lookup finds and deletes it.
    pub fn len(&self) -> usize {
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

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a report up; a missing, unreadable or undecodable entry is
    /// a miss. An entry file that reads but does not decode is deleted
    /// (best-effort: a failed delete changes nothing but the count).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<LeakReport>> {
        let path = self.path(key);
        let bytes = std::fs::read(&path).ok()?;
        let report = std::str::from_utf8(&bytes).ok().and_then(decode_report);
        if report.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        report.map(Arc::new)
    }

    /// Stores a whole collected sweep in two phases: every entry is
    /// first written to its sideways `.json.tmp` file, then all the
    /// renames happen back to back. The metadata churn (directory
    /// creation, rename barriers) batches at the end of the sweep
    /// instead of interleaving with result collection — and a crash
    /// mid-batch leaves only ignorable `.tmp` litter, never a torn
    /// entry. Best-effort: errors degrade to a smaller cache.
    pub fn put_many<'a>(&self, entries: impl IntoIterator<Item = (CacheKey, &'a LeakReport)>) {
        let mut staged: Vec<(PathBuf, PathBuf)> = Vec::new();
        for (key, report) in entries {
            let path = self.path(&key);
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

    fn path(&self, key: &CacheKey) -> PathBuf {
        let hex = key.to_hex();
        self.dir
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.json"))
    }
}

/// `true` for the two-hex-digit directories of the fan-out layout.
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

/// Encodes a report as the `leakaudit-result/v2` JSON document: one
/// row per line in the wire spelling ([`encode_row`]), closed by a
/// `"checksum"` line holding the [`Fingerprint`] of every byte before it.
pub fn encode_report(report: &LeakReport) -> String {
    let mut out = header();
    for (i, row) in report.rows().iter().enumerate() {
        out.push_str(if i == 0 { "    " } else { ",\n    " });
        write_wire_row(&mut out, row).expect("writing to a String cannot fail");
    }
    out.push_str("\n  ],\n");
    let sum = checksum(&out);
    out.push_str(CHECKSUM_LINE);
    out.push_str(&sum.to_hex());
    out.push_str("\"\n}\n");
    out
}

/// Encodes one row as a flat JSON object: the line format of
/// [`encode_report`] and the `rows` elements of a daemon cell, with
/// `bits` as the shortest number that round-trips (`1`,
/// `2.321928094887362`).
pub fn encode_row(row: &LeakRow) -> String {
    let mut out = String::new();
    write_wire_row(&mut out, row).expect("writing to a String cannot fail");
    out
}

/// Appends one row in the [`encode_row`] spelling — the only row
/// formatter, shared by disk entries and daemon responses.
pub(crate) fn write_wire_row(out: &mut String, row: &LeakRow) -> fmt::Result {
    use fmt::Write as _;
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

/// An entry's text before its first row.
fn header() -> String {
    format!("{{\n  \"schema\": \"{RESULT_SCHEMA}\",\n  \"rows\": [\n")
}

/// The checksum of an entry's text up to its checksum line.
fn checksum(body: &str) -> Fingerprint {
    let mut h = FingerprintHasher::new(RESULT_SCHEMA);
    h.write_str(body);
    h.finish()
}

/// Decodes [`encode_report`]'s format. `None` on any mismatch (treated
/// as a cache miss by callers): an entry is served whole and right, or
/// not at all.
///
/// - The last line but one must carry the checksum of every byte before
///   it. Damage anywhere — a flipped digit of a count above 2^53 that
///   no `f64` check could see, a torn file cut short by a crash between
///   write and rename — fails it.
/// - The header must name exactly `leakaudit-result/v2`; a document of
///   another version (`v1`, `v20`) is a miss.
/// - Every row line must decode, and its `bits` must be bit-identical
///   to [`TraceDag::bits_for_count`] of its count — the way every
///   production row is built.
pub fn decode_report(text: &str) -> Option<LeakReport> {
    let (body, tail) = text.split_at(text.rfind(CHECKSUM_LINE)?);
    let sum = tail[CHECKSUM_LINE.len()..].strip_suffix("\"\n}\n")?;
    if Fingerprint::from_hex(sum)? != checksum(body) {
        return None;
    }
    let rows = body
        .strip_prefix(&header())?
        .strip_suffix("\n  ],\n")?
        .split(",\n")
        .map(|line| {
            let row = decode_row(line.strip_prefix("    ")?)?;
            let exact = row.bits.to_bits() == TraceDag::bits_for_count(&row.count).to_bits();
            exact.then_some(row)
        })
        .collect::<Option<Vec<_>>>()?;
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
    fn disk_and_wire_rows_are_the_same_text() {
        let row = |count: u64, bits: f64| LeakRow {
            spec: ObserverSpec {
                channel: Channel::Data,
                observer: Observer::block(6).stuttering(),
            },
            count: Natural::from(count),
            bits,
        };
        let head = r#"{"channel":1,"offset_bits":6,"stuttering":1,"count_hex":"#;
        for (row, bits) in [
            (row(2, 1.0), "1"),
            (row(5, 5f64.log2()), "2.321928094887362"),
        ] {
            let hex = row.count.to_hex();
            let disk = encode_row(&row);
            let mut wire = String::new();
            write_wire_row(&mut wire, &row).unwrap();
            assert_eq!(disk, wire);
            assert_eq!(disk, format!(r#"{head}"{hex}","bits":{bits}}}"#));
            assert!(encode_report(&LeakReport::from_rows(vec![row.clone()])).contains(&disk));
            let back = decode_row(&disk).expect("the row decodes");
            assert_eq!(back.spec, row.spec);
            assert_eq!(back.count, row.count);
            assert_eq!(back.bits.to_bits(), row.bits.to_bits(), "{disk}");
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
    fn capacity_bound_evicts_lru_first() {
        let report = Arc::new(sample_report());
        let weight = report_weight(&report);
        // Room for ~3 entries.
        let cache = MemoryCache::new().with_capacity_bytes(3 * weight);
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
    fn reinserting_a_key_does_not_double_count_bytes() {
        let report = Arc::new(sample_report());
        let cache = MemoryCache::new();
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
        let report = sample_report();
        cache.put_many([(key, &report)]);
        assert_eq!(cache.len(), 1);
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
    fn corrupted_entries_read_as_misses() {
        assert!(decode_report("not json").is_none());
        assert!(decode_report("{\"schema\": \"leakaudit-result/v2\", \"rows\": []}").is_none());
        let good = encode_report(&sample_report());
        let bad = good.replace("\"count_hex\":\"", "\"count_hex\":\"zz");
        assert!(decode_report(&bad).is_none());
    }

    /// Rewrites an entry's checksum line to match its (edited) body, as
    /// a writer of that body would have sealed it.
    fn reseal(text: &str) -> String {
        let body = &text[..text.rfind(CHECKSUM_LINE).unwrap()];
        format!("{body}{CHECKSUM_LINE}{}\"\n}}\n", checksum(body))
    }

    #[test]
    fn another_schema_version_is_a_miss() {
        let good = encode_report(&sample_report());
        assert!(decode_report(&good).is_some());
        assert!(decode_report(&reseal(&good)).is_some());
        for other in [
            "leakaudit-result/v20",
            "leakaudit-result/v1",
            "xleakaudit-result/v2",
        ] {
            let text = reseal(&good.replace(RESULT_SCHEMA, other));
            assert!(decode_report(&text).is_none(), "{other} decoded as v2");
        }
        // An entry as v1 wrote it: no checksum, `bits` spelled `1.0`.
        let v1 = "{\n  \"schema\": \"leakaudit-result/v1\",\n  \"rows\": [\n    \
                  {\"channel\":1,\"offset_bits\":6,\"stuttering\":1,\"count_hex\":\"2\",\"bits\":1.0}\n  \
                  ]\n}\n";
        assert!(decode_report(v1).is_none());
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
        // One flipped digit: count 2 -> 3 still parses, but 1 bit is no
        // longer log2 of it. Resealed, the checksum passes and the
        // count/bits check alone must reject the row.
        let line = encode_row(row);
        let flipped = line.replace("\"count_hex\":\"2\"", "\"count_hex\":\"3\"");
        assert_ne!(line, flipped);
        let text = good.replacen(&line, &flipped, 1);
        assert!(decode_report(&text).is_none());
        assert!(decode_report(&reseal(&text)).is_none());
    }

    #[test]
    fn a_low_digit_flip_beyond_f64_precision_is_a_miss() {
        // The count/bits check only sees damage that moves log2(count) as
        // an f64. Above about 2^53 a low-order digit does not: the
        // checksum is what turns this entry into a miss.
        let mut row = sample_report().rows()[0].clone();
        row.count = Natural::from_hex("2000000000000010").unwrap();
        row.bits = TraceDag::bits_for_count(&row.count);
        let text = encode_report(&LeakReport::from_rows(vec![row]));
        assert!(decode_report(&text).is_some());
        let flipped = text.replace("2000000000000010", "2000000000000011");
        assert_ne!(text, flipped);
        assert!(decode_report(&flipped).is_none(), "wrong count served");
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
    fn a_damaged_entry_is_deleted_on_lookup_and_rewritten() {
        let dir = temp_dir("damaged");
        let cache = DiskCache::open(&dir).unwrap();
        let report = sample_report();
        let keys: Vec<CacheKey> = (1..=4).map(key_n).collect();
        cache.put_many(keys.iter().map(|&k| (k, &report)));
        assert_eq!(cache.len(), 4);
        std::fs::write(cache.path(&keys[2]), "garbage").unwrap();
        assert_eq!(cache.len(), 4, "a damaged file counts until looked up");
        assert!(cache.get(&keys[2]).is_none(), "garbage is a miss");
        assert_eq!(cache.len(), 3, "the miss deleted the damaged file");
        assert!(cache.get(&keys[1]).is_some(), "its neighbours still hit");
        cache.put_many([(keys[2], &report)]);
        assert_eq!(cache.len(), 4);
        let again = cache.get(&keys[2]).expect("the rewrite hits");
        assert_eq!(again.rows(), report.rows());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_entry_is_a_miss() {
        let dir = temp_dir("torn");
        let cache = DiskCache::open(&dir).unwrap();
        let key = key_n(7);
        cache.put_many([(key, &sample_report())]);
        let path = cache.path(&key);
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
