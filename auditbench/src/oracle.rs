//! The verdict oracle. It runs outside every timed window and judges
//! each served cell against references that do not go through the
//! analyzer:
//!
//! * the eight paper cells against the published tables, written out
//!   by hand below;
//! * Theorem 1 against the concrete emulator: for every layout, the
//!   number of distinct concrete observer views must not exceed the
//!   served count, per channel × observer (every cheap cell, and a fixed
//!   seeded sample of heavy cells);
//! * cache hits against the bytes first served for the same cell.
//!
//! A cell fails when its response was `ok:false`, it carries an error
//! instead of rows, its rows are not the requested observer suite, or
//! any of the checks above fails. A request whose response never came
//! (the server died) fails all of its cells.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use leakaudit_analyzer::{Channel, LeakRow};
use leakaudit_core::Observer;
use leakaudit_scenarios::{FamilyParams, ScenarioSpec};
use leakaudit_service::cache::decode_row;
use leakaudit_service::Json;

use crate::gen::is_heavy;

/// One heavy cell in this many gets the emulator check.
const HEAVY_SAMPLE: u64 = 10;

/// One paper cell's published leakage in bits: the I-cache and D-cache
/// rows over the (address, block, stuttering block) observers, plus the
/// D-cache bank observer where the paper reports it.
type PaperRow = (&'static str, [f64; 3], [f64; 3], Option<f64>);

/// The published tables (Figs. 7, 8, 14), per paper cell.
const PAPER: [PaperRow; 8] = [
    (
        "square-and-multiply[stride=0x40,b=6]",
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        None,
    ),
    (
        "square-and-always-multiply[O2,b=6]",
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        None,
    ),
    (
        "square-and-always-multiply[O0,b=5]",
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        None,
    ),
    (
        "unprotected-lookup[O2,e=7,b=6]",
        [1.0, 1.0, 1.0],
        [LOG2_50, LOG2_5, LOG2_5],
        None,
    ),
    (
        "unprotected-lookup[O1,e=7,b=6]",
        [1.0, 1.0, 0.0],
        [LOG2_50, LOG2_5, LOG2_5],
        None,
    ),
    (
        "secure-retrieve[e=7,w=96,b=6]",
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        Some(0.0),
    ),
    (
        "scatter-gather[s=8,n=384,aligned,b=6]",
        [0.0, 0.0, 0.0],
        [1152.0, 0.0, 0.0],
        Some(384.0),
    ),
    (
        "defensive-gather[s=8,n=384,b=6]",
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        Some(0.0),
    ),
];
const LOG2_50: f64 = 5.643_856_189_774_724;
const LOG2_5: f64 = 2.321_928_094_887_362;

/// One cell as served on the wire.
pub struct ServedCell {
    pub id: String,
    pub provenance: String,
    pub elapsed_ms: f64,
    /// The raw text of the `rows` array, or `None` for an error cell.
    pub rows: Option<String>,
}

/// Parses a `result` response for a request of `expected` cells,
/// checking the envelope: `ok:true`, the right job, the right cells in
/// submission order.
pub fn parse_result(
    submit: &str,
    result: &str,
    job: u64,
    expected: &[ScenarioSpec],
) -> Result<Vec<ServedCell>, String> {
    let submitted = Json::parse(submit).map_err(|e| format!("submit response: {e}"))?;
    if submitted.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("submit refused: {submit}"));
    }
    let doc = Json::parse(result).map_err(|e| format!("result response: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("result refused: {result}"));
    }
    for (name, d) in [("submit", &submitted), ("result", &doc)] {
        if d.get("job").and_then(Json::as_u64) != Some(job) {
            return Err(format!("{name} answered for another job than {job}"));
        }
    }
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    if cells.len() != expected.len() {
        return Err(format!(
            "{} cells served for {}",
            cells.len(),
            expected.len()
        ));
    }
    let mut raw_rows = raw_row_arrays(result);
    let mut out = Vec::with_capacity(cells.len());
    for (cell, spec) in cells.iter().zip(expected) {
        let id = cell.get("id").and_then(Json::as_str).unwrap_or("");
        if id != spec.id() {
            return Err(format!("cell {id} served in place of {spec}"));
        }
        let rows = match cell.get("rows") {
            Some(_) => Some(raw_rows.next().ok_or("rows array missing from text")?),
            None => None,
        };
        out.push(ServedCell {
            id: id.to_string(),
            provenance: cell
                .get("provenance")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            elapsed_ms: match cell.get("elapsed_ms") {
                Some(Json::Num(ms)) => *ms,
                _ => 0.0,
            },
            rows,
        });
    }
    Ok(out)
}

/// The raw `rows` arrays of a response, in order. Row objects are flat,
/// so each array ends at the first `]` after its opening.
fn raw_row_arrays(text: &str) -> impl Iterator<Item = String> + '_ {
    let key = "\"rows\":[";
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at + text[at..].find(key)? + key.len() - 1;
        let end = start + text[start..].find(']')? + 1;
        at = end;
        Some(text[start..end].to_string())
    })
}

/// Decodes a raw rows array into rows.
fn decode_rows(raw: &str) -> Result<Vec<LeakRow>, String> {
    let mut rows = Vec::new();
    let mut rest = raw;
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}').ok_or("unterminated row")?;
        let row = &rest[open..=close];
        rows.push(decode_row(row).ok_or_else(|| format!("undecodable row {row}"))?);
        rest = &rest[close + 1..];
    }
    Ok(rows)
}

/// The binary a cell analyses: everything but the bank/page observer
/// granularities (which do not change what is built).
type Binary = (FamilyParams, u8);

/// A served row reduced to what the emulator check needs: the channel
/// code, the observer (offset bits, stuttering), and the count when it
/// fits in `u64` (larger counts dominate any handful of concrete cases).
type Bound = ((u8, u8, bool), Option<u64>);

/// A cell awaiting the emulator check.
type Queued = (ScenarioSpec, Vec<Bound>);

/// FNV-1a, for the seeded heavy sample and the served-bytes identity.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[derive(Default)]
pub struct Oracle {
    seed: u64,
    attempted: u64,
    failed: u64,
    /// Hash of the rows first served per cell id.
    first_rows: HashMap<String, u64>,
    /// Cells awaiting the emulator check, grouped by binary.
    theorem1: HashMap<Binary, Vec<Queued>>,
    failures: Vec<String>,
}

/// The oracle's final tally.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub emulated: u64,
    pub failures: Vec<String>,
}

impl Oracle {
    pub fn new(seed: u64) -> Self {
        Oracle {
            seed,
            ..Oracle::default()
        }
    }

    fn fail(&mut self, cells: u64, why: String) {
        self.failed += cells;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Whether no cell has failed so far.
    pub fn is_clean(&self) -> bool {
        self.failed == 0
    }

    /// Records a request whose response never arrived.
    pub fn lost(&mut self, request: &[ScenarioSpec], why: &str) {
        self.attempted += request.len() as u64;
        self.fail(request.len() as u64, format!("request lost: {why}"));
    }

    /// Judges one answered request (the cheap checks now, the emulator
    /// check at [`Oracle::finish`]). Returns the parsed cells.
    pub fn record(
        &mut self,
        request: &[ScenarioSpec],
        submit: &str,
        result: &str,
        job: u64,
    ) -> Vec<ServedCell> {
        self.attempted += request.len() as u64;
        let cells = match parse_result(submit, result, job, request) {
            Ok(cells) => cells,
            Err(e) => {
                self.fail(request.len() as u64, e);
                return Vec::new();
            }
        };
        for (spec, cell) in request.iter().zip(&cells) {
            if let Err(e) = self.check_cell(spec, cell) {
                self.fail(1, format!("{}: {e}", cell.id));
            }
        }
        cells
    }

    fn check_cell(&mut self, spec: &ScenarioSpec, cell: &ServedCell) -> Result<(), String> {
        let raw = cell
            .rows
            .as_ref()
            .ok_or("served an error instead of rows")?;
        let served = fnv(raw);
        match self.first_rows.get(&cell.id) {
            Some(&first) if first != served => {
                return Err(format!(
                    "{} rows differ from the rows first served",
                    cell.provenance
                ))
            }
            Some(_) => return Ok(()),
            None => {
                self.first_rows.insert(cell.id.clone(), served);
            }
        }
        let rows = decode_rows(raw)?;
        let suite = spec.analysis_config().observer_suite();
        if rows.len() != suite.len() || rows.iter().zip(&suite).any(|(r, s)| r.spec != *s) {
            return Err("rows are not the requested observer suite".into());
        }
        if let Some(paper) = PAPER.iter().find(|p| p.0 == cell.id) {
            check_paper(spec, &rows, paper)?;
        }
        if !is_heavy(spec) || (fnv(&cell.id) ^ self.seed).is_multiple_of(HEAVY_SAMPLE) {
            self.theorem1
                .entry((spec.params, spec.block_bits))
                .or_default()
                .push((
                    *spec,
                    rows.iter()
                        .map(|r| {
                            let obs = r.spec.observer;
                            (
                                (
                                    r.spec.channel.code(),
                                    obs.offset_bits(),
                                    obs.is_stuttering(),
                                ),
                                r.count.to_u64(),
                            )
                        })
                        .collect(),
                ));
        }
        Ok(())
    }

    /// Runs the queued emulator checks on two threads and returns the
    /// tally.
    pub fn finish(mut self) -> Verdict {
        let groups: Vec<(Binary, Vec<Queued>)> = self.theorem1.drain().collect();
        let next = AtomicUsize::new(0);
        let found: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, cells)) = groups.get(i) else {
                        break;
                    };
                    let bad = check_theorem1(cells);
                    found.lock().expect("oracle poisoned").extend(bad);
                });
            }
        });
        let emulated: usize = groups.iter().map(|(_, c)| c.len()).sum();
        for why in found.into_inner().expect("oracle poisoned") {
            self.fail(1, why);
        }
        Verdict {
            attempted: self.attempted,
            failed: self.failed,
            emulated: emulated as u64,
            failures: self.failures,
        }
    }
}

fn row_bits(rows: &[LeakRow], channel: Channel, offset: u8, stuttering: bool) -> Option<f64> {
    rows.iter()
        .find(|r| {
            r.spec.channel == channel
                && r.spec.observer.offset_bits() == offset
                && r.spec.observer.is_stuttering() == stuttering
        })
        .map(|r| r.bits)
}

fn check_paper(
    spec: &ScenarioSpec,
    rows: &[LeakRow],
    (_, icache, dcache, bank): &PaperRow,
) -> Result<(), String> {
    let b = spec.block_bits;
    let columns = [(0, false), (b, false), (b, true)];
    let mut expected: Vec<(Channel, u8, bool, f64)> = Vec::new();
    for (i, &(offset, stuttering)) in columns.iter().enumerate() {
        expected.push((Channel::Instruction, offset, stuttering, icache[i]));
        expected.push((Channel::Data, offset, stuttering, dcache[i]));
    }
    if let Some(bank) = bank {
        expected.push((Channel::Data, 2, false, *bank));
    }
    for (channel, offset, stuttering, paper) in expected {
        let got = row_bits(rows, channel, offset, stuttering).ok_or("paper column missing")?;
        if (got - paper).abs() > 1e-9 {
            return Err(format!(
                "{channel} offset {offset}{}: served {got} bit, paper {paper} bit",
                if stuttering { " stuttering" } else { "" }
            ));
        }
    }
    Ok(())
}

/// Theorem 1 for every cell of one binary: emulate each concrete case
/// once, then for every served row and every layout the distinct
/// concrete views must not exceed the served count.
fn check_theorem1(cells: &[Queued]) -> Vec<String> {
    let scenario = cells[0].0.build();
    let mut by_layout: BTreeMap<usize, Vec<[Vec<u64>; 3]>> = BTreeMap::new();
    for case in &scenario.cases {
        match scenario.emulate(case) {
            Ok(t) => by_layout.entry(case.layout).or_default().push([
                t.fetch_addresses(),
                t.data_addresses(),
                t.all_addresses(),
            ]),
            Err(e) => {
                return cells
                    .iter()
                    .map(|(spec, _)| format!("{spec}: emulation: {e}"))
                    .collect()
            }
        }
    }
    // Largest distinct-view count over layouts, per (channel, observer).
    let mut views: HashMap<(u8, u8, bool), u64> = HashMap::new();
    let mut bad = Vec::new();
    for (spec, rows) in cells {
        for &(key, count) in rows {
            let (channel, offset, stuttering) = key;
            let mut obs = Observer::block(offset);
            if stuttering {
                obs = obs.stuttering();
            }
            let most = *views.entry(key).or_insert_with(|| {
                by_layout
                    .values()
                    .map(|traces| {
                        let distinct: BTreeSet<Vec<u64>> = traces
                            .iter()
                            .map(|t| obs.view_concrete(&t[usize::from(channel)]))
                            .collect();
                        distinct.len() as u64
                    })
                    .max()
                    .unwrap_or(0)
            });
            if let Some(bound) = count.filter(|&bound| most > bound) {
                bad.push(format!(
                    "{spec}: channel {channel} {obs}: {most} distinct concrete views \
                     exceed the served bound {bound}"
                ));
                break;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_service::{Daemon, SweepEngine};

    /// Serves `ids` through an in-process daemon and returns the two
    /// responses.
    fn serve(ids: &[ScenarioSpec]) -> (String, String) {
        let daemon = Daemon::new(SweepEngine::new().with_threads(2));
        let submit = daemon.handle_line(&crate::gen::submit_line(ids));
        let result = daemon.handle_line("{\"op\":\"result\",\"job\":0}");
        (submit, result)
    }

    fn paper_and_cheap() -> Vec<ScenarioSpec> {
        let mut cells = leakaudit_scenarios::Registry::paper().specs().to_vec();
        cells.push("secure-retrieve[e=5,w=4,p=3,bank=3,b=7]".parse().unwrap());
        cells.push(
            "square-and-multiply[stride=0x30,w=2,bank=3,b=7]"
                .parse()
                .unwrap(),
        );
        cells
    }

    #[test]
    fn served_paper_cells_pass_every_check() {
        let cells = paper_and_cheap();
        let (submit, result) = serve(&cells);
        let mut oracle = Oracle::new(1);
        oracle.record(&cells, &submit, &result, 0);
        let verdict = oracle.finish();
        assert_eq!(verdict.failures, Vec::<String>::new());
        assert_eq!((verdict.attempted, verdict.failed), (10, 0));
        assert!(verdict.emulated >= 6, "every cheap cell is emulated");
    }

    #[test]
    fn a_corrupted_row_counts_as_failed() {
        let cells = paper_and_cheap();
        let (submit, result) = serve(&cells);
        // Claim the last cell's first row (the I-cache address observer
        // of a secret-dependent branch) admits a single observation.
        let rows = result.rfind("\"rows\":[").unwrap();
        let at = rows + result[rows..].find("\"count_hex\":\"").unwrap() + "\"count_hex\":\"".len();
        let end = at + result[at..].find('"').unwrap();
        let mut last_row = result.clone();
        last_row.replace_range(at..end, "1");
        let mut oracle = Oracle::new(1);
        oracle.record(&cells, &submit, &last_row, 0);
        let verdict = oracle.finish();
        assert_eq!(verdict.failed, 1, "{:?}", verdict.failures);

        // A paper cell whose bits drift from the published table fails
        // without the emulator.
        let mut drifted = result.clone();
        let at = drifted.find("\"bits\":").unwrap() + "\"bits\":".len();
        let end = at + drifted[at..].find('}').unwrap();
        drifted.replace_range(at..end, "0.5");
        let mut oracle = Oracle::new(1);
        oracle.record(&cells, &submit, &drifted, 0);
        assert_eq!(oracle.finish().failed, 1);
    }

    #[test]
    fn a_changed_warm_hit_counts_as_failed() {
        let cells = paper_and_cheap();
        let (submit, result) = serve(&cells);
        let mut oracle = Oracle::new(1);
        oracle.record(&cells, &submit, &result, 0);
        // The same cells served again, one bit column re-spelled: the
        // value is equal but the bytes are not.
        let respelled = result.replacen("\"bits\":1}", "\"bits\":1.0}", 1);
        assert_ne!(respelled, result);
        oracle.record(&cells, &submit, &respelled, 0);
        let verdict = oracle.finish();
        assert_eq!((verdict.attempted, verdict.failed), (20, 1));
    }

    #[test]
    fn lost_and_refused_requests_fail_every_cell() {
        let cells = paper_and_cheap();
        let mut oracle = Oracle::new(1);
        oracle.lost(&cells, "server died");
        oracle.record(
            &cells,
            "{\"ok\":true,\"job\":1}",
            "{\"ok\":false,\"error\":\"x\"}",
            1,
        );
        let verdict = oracle.finish();
        assert_eq!((verdict.attempted, verdict.failed), (20, 20));
    }
}
