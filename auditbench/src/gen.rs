//! Seeded request generation.
//!
//! Every family's capped parameter space is enumerated up front and
//! drawn from through a seeded permutation, so a draw never repeats a
//! cell and never stalls on a small family (there is no rejection
//! loop). The same seed yields the same requests, byte for byte.

use leakaudit_scenarios::{FamilyParams, Opt, Registry, ScenarioSpec};

/// splitmix64: small, seedable, and stable across platforms and
/// releases (the benchmark's inputs must not drift with a dependency).
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The (bank bits, page bits) observer granularities a cell may carry;
/// the first pair is the architecture default.
const OBSERVER_PAIRS: [(u8, u8); 6] = [(2, 12), (3, 12), (4, 12), (2, 10), (3, 10), (2, 11)];

/// Cache-line bits the generated cells are analysed under.
const BLOCK_BITS: [u8; 4] = [4, 5, 6, 7];

/// Whether a cell is one of the table-walking heavy families (its
/// Theorem 1 check is sampled rather than exhaustive: emulating one can
/// cost more than analysing it).
pub fn is_heavy(spec: &ScenarioSpec) -> bool {
    matches!(
        spec.params,
        FamilyParams::DefensiveGather { .. }
            | FamilyParams::ScatterGather { .. }
            | FamilyParams::BranchyGather { .. }
    ) || matches!(spec.params, FamilyParams::LookupSecure { words, .. } if words > 8)
}

/// The heavy table-walking binaries, capped so one analysis costs about
/// 2–35 ms: defensive-gather, secure-retrieve, scatter-gather and
/// branchy-gather. The published binaries are left out, so no variant
/// of a heavy cell can coincide with a primed paper cell.
///
/// The caps bound the footprint a binary's analysis grows with (table
/// spacing × value size, gather rounds). Larger cells cost up to 150 ms
/// each and a few hundred MB of heap; they made the pass twice as long
/// and its time far more sensitive to co-tenant memory contention.
pub fn heavy_space() -> Vec<FamilyParams> {
    let mut out = Vec::new();
    for spacing in [2u32, 4, 8, 16] {
        for value_bytes in (64..=1024).step_by(32).filter(|n| spacing * n <= 2048) {
            out.push(FamilyParams::DefensiveGather {
                spacing,
                value_bytes,
            });
        }
    }
    for entries in 2u32..=16 {
        for words in (16u32..=192).step_by(8) {
            if entries * words <= 1536 {
                out.push(FamilyParams::LookupSecure {
                    entries,
                    words,
                    pad_words: 0,
                });
            }
        }
    }
    for spacing in [2u32, 4, 8, 16, 32] {
        for value_bytes in (192..=1024)
            .step_by(32)
            .filter(|n| n * (spacing + 16) <= 32 * 1024)
        {
            for aligned in [true, false] {
                out.push(FamilyParams::ScatterGather {
                    spacing,
                    value_bytes,
                    aligned,
                });
            }
        }
    }
    for entries in 6u32..=16 {
        for rounds in entries..=entries + 12 {
            if entries * rounds <= 240 {
                out.push(FamilyParams::BranchyGather { entries, rounds });
            }
        }
    }
    out.retain(|p| !ScenarioSpec::new(*p, 6).is_paper_point());
    out
}

/// The cheap binaries (analysis 0.05–1 ms) with their cache-line bits:
/// square-and-multiply, square-and-always-multiply (`O0`/`O2` only:
/// `validate()` accepts `O1`, but `build()` panics on it),
/// unprotected-lookup, and secure-retrieve with up to 8 entries of up
/// to 8 words.
pub fn cheap_space() -> Vec<(FamilyParams, u8)> {
    let mut params = Vec::new();
    for stub_stride in 8u32..=0x1000 {
        for secret_bits in 1u32..=4 {
            params.push(FamilyParams::SquareMultiply {
                stub_stride,
                secret_bits,
            });
        }
    }
    for opt in [Opt::O0, Opt::O2] {
        params.push(FamilyParams::SquareAlways { opt });
    }
    for opt in [Opt::O1, Opt::O2] {
        for (stride, top) in [(4u32, 16u32), (8, 8)] {
            for entries in 1..=top {
                params.push(FamilyParams::LookupUnprotected {
                    opt,
                    entries,
                    stride,
                });
            }
        }
    }
    for entries in 1u32..=8 {
        for words in 1u32..=8 {
            for pad_words in 0u32..128 {
                params.push(FamilyParams::LookupSecure {
                    entries,
                    words,
                    pad_words,
                });
            }
        }
    }
    params
        .into_iter()
        .flat_map(|p| BLOCK_BITS.map(|b| (p, b)))
        .collect()
}

/// A spec under observer pair `pair`, moved to the next pair when that
/// would make it one of the published paper points (those are primed,
/// never sent as new cells).
fn cell(params: FamilyParams, block_bits: u8, pair: usize) -> ScenarioSpec {
    let at = |p: usize| {
        let (bank, page) = OBSERVER_PAIRS[p % OBSERVER_PAIRS.len()];
        ScenarioSpec::new(params, block_bits).with_observer_bits(bank, page)
    };
    let spec = at(pair);
    if spec.is_paper_point() {
        at(pair + 1)
    } else {
        spec
    }
}

/// Draws never-seen cheap cells in seeded order; each base cell carries
/// a seeded observer pair, and `sibling` derives a second cell of the
/// same binary under a different pair.
pub struct CheapDraw {
    space: Vec<(FamilyParams, u8)>,
    next: usize,
    rng: Rng,
}

impl CheapDraw {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut space = cheap_space();
        rng.shuffle(&mut space);
        CheapDraw {
            space,
            next: 0,
            rng,
        }
    }

    /// The next base cell and the observer pair it was given.
    pub fn base(&mut self) -> (ScenarioSpec, usize) {
        assert!(
            self.next < self.space.len(),
            "cheap space exhausted: the workload is sized beyond its never-seen cells"
        );
        let (params, b) = self.space[self.next];
        self.next += 1;
        let pair = self.rng.below(OBSERVER_PAIRS.len());
        let spec = cell(params, b, pair);
        (spec, pair)
    }

    /// A bank/page-granularity sibling of `base`: the same binary and
    /// cache-line bits under another observer pair.
    pub fn sibling(&mut self, base: &ScenarioSpec, pair: usize) -> ScenarioSpec {
        let shift = 1 + self.rng.below(OBSERVER_PAIRS.len() - 1);
        let mut spec = cell(base.params, base.block_bits, pair + shift);
        if spec == *base {
            spec = cell(base.params, base.block_bits, pair + shift + 1);
        }
        spec
    }
}

/// `per_family` heavy binaries of each family, spread evenly over the
/// family's cost range (by cost hint): the same sample in every seed.
fn heavy_strata(per_family: usize) -> Vec<FamilyParams> {
    let mut space = heavy_space();
    space.sort_by_key(|p| {
        let spec = ScenarioSpec::new(*p, 6);
        (spec.family(), spec.cost_hint())
    });
    let mut out = Vec::new();
    let mut start = 0;
    while start < space.len() {
        let family = ScenarioSpec::new(space[start], 6).family();
        let len = space[start..]
            .iter()
            .take_while(|p| ScenarioSpec::new(**p, 6).family() == family)
            .count();
        out.extend((0..per_family).map(|j| space[start + (2 * j + 1) * len / (2 * per_family)]));
        start += len;
    }
    out
}

/// Draws never-seen heavy cells: every heavy binary once per pass, pass
/// after pass, each pass under a fresh (cache-line, observer) variant of
/// every binary, so no cell repeats within a run.
///
/// The seed picks each binary's observer pair. The order of the pass
/// and each binary's cache-line bits in it are the same in every seed:
/// the line size sets most of a cell's cost, and the order sets how the
/// heap fragments, so every seed's pass costs the same and peaks at the
/// same resident set.
pub struct HeavyDraw {
    space: Vec<FamilyParams>,
    pairs: Vec<usize>,
    next: usize,
}

impl HeavyDraw {
    pub fn new(seed: u64) -> Self {
        let mut space = heavy_space();
        Rng::new(0, 2).shuffle(&mut space);
        let mut rng = Rng::new(seed, 2);
        let pairs = space
            .iter()
            .map(|_| rng.below(OBSERVER_PAIRS.len()))
            .collect();
        HeavyDraw {
            space,
            pairs,
            next: 0,
        }
    }

    pub fn next_cell(&mut self) -> ScenarioSpec {
        let i = self.next % self.space.len();
        let pass = self.next / self.space.len();
        self.next += 1;
        assert!(
            pass < BLOCK_BITS.len() * OBSERVER_PAIRS.len(),
            "heavy space exhausted"
        );
        cell(
            self.space[i],
            BLOCK_BITS[(i + pass) % BLOCK_BITS.len()],
            self.pairs[i] + pass / BLOCK_BITS.len(),
        )
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdHeavy,
    WarmReaudit,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold-heavy" => Some(Kind::ColdHeavy),
            "warm-reaudit" => Some(Kind::WarmReaudit),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdHeavy => "cold-heavy",
            Kind::WarmReaudit => "warm-reaudit",
        }
    }

    /// Timed requests per second of `--seconds` on the reference host:
    /// a run times `rate × seconds` requests, split evenly over its
    /// replays. The count is a function of the arguments only, so every
    /// run of one seed does identical work.
    pub fn rate(self) -> f64 {
        match self {
            // At the benchmark's 40 s, each replay is one whole pass
            // over the heavy binaries, so every seed analyses the same
            // binaries.
            Kind::ColdHeavy => 101.25,
            Kind::WarmReaudit => 150.0,
        }
    }

    /// Cells per request.
    pub fn request_cells(self) -> usize {
        match self {
            Kind::ColdHeavy => 1,
            Kind::WarmReaudit => 64,
        }
    }
}

/// Never-seen cheap binaries in each `warm-reaudit` request; each is
/// sent twice, under two bank/page granularities, so the two cells
/// share one analysis pass.
const WARM_NEW_BINARIES: usize = 2;
/// The `warm-reaudit` primed matrix: 512 cheap cells, and 16 heavy
/// cells spread over the cost range of the four heavy families.
const WARM_PRIMED_CHEAP: usize = 512;
const WARM_PRIMED_HEAVY_PER_FAMILY: usize = 4;

/// One workload instance: the priming request sent during set-up, then
/// the requests of the closed loop in order.
pub struct Workload {
    pub priming: Vec<ScenarioSpec>,
    pub requests: Vec<Vec<ScenarioSpec>>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64, requests: usize) -> Workload {
        let mut cheap = CheapDraw::new(seed);
        let mut heavy = HeavyDraw::new(seed);
        let mut rng = Rng::new(seed, 3);
        let paper = Registry::paper().specs().to_vec();
        match kind {
            Kind::ColdHeavy => Workload {
                priming: paper,
                requests: (0..requests).map(|_| vec![heavy.next_cell()]).collect(),
            },
            Kind::WarmReaudit => {
                let mut primed: Vec<ScenarioSpec> =
                    (0..WARM_PRIMED_CHEAP).map(|_| cheap.base().0).collect();
                primed.extend(
                    heavy_strata(WARM_PRIMED_HEAVY_PER_FAMILY)
                        .into_iter()
                        .map(|p| {
                            let b = BLOCK_BITS[rng.below(BLOCK_BITS.len())];
                            cell(p, b, rng.below(OBSERVER_PAIRS.len()))
                        }),
                );
                rng.shuffle(&mut primed);
                let requests = (0..requests)
                    .map(|_| {
                        let mut picks: Vec<usize> = (0..primed.len()).collect();
                        // A partial Fisher–Yates: the first draws of a
                        // seeded permutation of the primed matrix.
                        let reuse = kind.request_cells() - 2 * WARM_NEW_BINARIES;
                        for i in 0..reuse {
                            let j = i + rng.below(picks.len() - i);
                            picks.swap(i, j);
                        }
                        let mut cells: Vec<ScenarioSpec> =
                            picks[..reuse].iter().map(|&i| primed[i]).collect();
                        for _ in 0..WARM_NEW_BINARIES {
                            let (base, pair) = cheap.base();
                            cells.push(base);
                            cells.push(cheap.sibling(&base, pair));
                        }
                        rng.shuffle(&mut cells);
                        cells
                    })
                    .collect();
                Workload {
                    priming: primed,
                    requests,
                }
            }
        }
    }
}

/// The wire form of a `submit_sweep` request over `cells`.
pub fn submit_line(cells: &[ScenarioSpec]) -> String {
    let ids: Vec<String> = cells.iter().map(|c| format!("\"{}\"", c.id())).collect();
    format!("{{\"op\":\"submit_sweep\",\"specs\":[{}]}}", ids.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_wire_safe(spec: &ScenarioSpec) {
        let id = spec.id();
        let parsed: ScenarioSpec = id.parse().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(&parsed, spec, "{id} must round-trip");
        assert_eq!(parsed.id(), id);
        spec.validate().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert!(
            !matches!(spec.params, FamilyParams::SquareAlways { opt: Opt::O1 }),
            "{id}: the O1 build is excluded"
        );
    }

    #[test]
    fn every_space_cell_parses_validates_and_round_trips() {
        for params in heavy_space() {
            for b in BLOCK_BITS {
                for pair in 0..OBSERVER_PAIRS.len() {
                    assert_wire_safe(&cell(params, b, pair));
                }
            }
        }
        for (params, b) in cheap_space() {
            for pair in 0..OBSERVER_PAIRS.len() {
                assert_wire_safe(&cell(params, b, pair));
            }
        }
    }

    #[test]
    fn workloads_are_seeded_and_never_repeat_a_new_cell() {
        for kind in [Kind::ColdHeavy, Kind::WarmReaudit] {
            let a = Workload::generate(kind, 7, 300);
            let b = Workload::generate(kind, 7, 300);
            let c = Workload::generate(kind, 8, 300);
            assert_eq!(
                a.requests,
                b.requests,
                "{}: same seed, same inputs",
                kind.name()
            );
            assert_ne!(a.requests, c.requests, "{}: seeds differ", kind.name());
            let primed: HashSet<ScenarioSpec> = a.priming.iter().copied().collect();
            let mut seen = HashSet::new();
            for request in &a.requests {
                assert_eq!(request.len(), kind.request_cells());
                for spec in request {
                    assert_wire_safe(spec);
                    if !primed.contains(spec) {
                        assert!(seen.insert(*spec), "{}: {spec} repeats", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn each_cold_heavy_replay_of_forty_seconds_is_one_whole_pass() {
        let timed = (Kind::ColdHeavy.rate() * 40.0).round() as usize;
        assert_eq!(heavy_space().len(), timed / crate::REPLAYS);
    }

    #[test]
    fn warm_requests_send_each_new_binary_under_two_granularities() {
        let w = Workload::generate(Kind::WarmReaudit, 3, 20);
        let primed: HashSet<ScenarioSpec> = w.priming.iter().copied().collect();
        for request in &w.requests {
            let new: Vec<&ScenarioSpec> = request.iter().filter(|s| !primed.contains(s)).collect();
            assert_eq!(new.len(), 2 * WARM_NEW_BINARIES);
            let binaries: HashSet<(String, u8)> = new
                .iter()
                .map(|s| (format!("{:?}", s.params), s.block_bits))
                .collect();
            assert_eq!(binaries.len(), WARM_NEW_BINARIES);
        }
    }
}
