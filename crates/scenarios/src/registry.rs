//! The scenario registry: data-driven generation of case-study variants.
//!
//! The paper's evaluation is not eight fixed binaries — it is a *matrix*:
//! each countermeasure swept across observer granularities (Figs. 7 vs 8:
//! 64- vs 32-byte lines), code layouts (Figs. 9/15: -O2 vs -O0/-O1),
//! table shapes (window size, value size, entry stride), alignment (the
//! load-bearing `align` of Fig. 3), secret-window widths, and the
//! bank/page observer granularities (Fig. 13's CacheBleed axis). This
//! module turns the builder modules from one-off constructors into
//! parameterized *families* and enumerates a default sweep of ≥ 40
//! variants over them:
//!
//! * [`FamilyParams`] — the per-family parameter space;
//! * [`ScenarioSpec`] — one point of the matrix (family parameters plus
//!   the architecture's block/bank/page observer bits), with
//!   [`ScenarioSpec::build`] producing the concrete [`Scenario`];
//! * [`Registry`] — an ordered, unique collection of specs, with
//!   [`Registry::paper`] (the published eight) and
//!   [`Registry::default_sweep`] (the full default matrix).
//!
//! Specs that coincide with a published instance build the *paper*
//! scenario — canonical name and expected bounds included — so sweep
//! reports remain comparable against the paper's tables.

use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

use leakaudit_analyzer::AnalysisConfig;

use crate::{
    branchy_gather, defensive_gather, lookup_secure, lookup_unprotected, scatter_gather,
    square_always, square_multiply, Scenario,
};

/// Compiler optimization level of a documented build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opt {
    /// `gcc -O0` (stack-heavy spills, paper Fig. 9b).
    O0,
    /// `gcc -O1` (compact both-paths layout, paper Fig. 15b).
    O1,
    /// `gcc -O2` (the common production layout).
    O2,
}

impl fmt::Display for Opt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opt::O0 => write!(f, "O0"),
            Opt::O1 => write!(f, "O1"),
            Opt::O2 => write!(f, "O2"),
        }
    }
}

/// The countermeasure families of the case study (paper §8.2–§8.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Unprotected square-and-multiply (libgcrypt 1.5.2, Fig. 5).
    SquareMultiply,
    /// Square-and-always-multiply (libgcrypt 1.5.3, Fig. 6).
    SquareAlways,
    /// Unprotected windowed lookup (libgcrypt 1.6.1, Fig. 10).
    LookupUnprotected,
    /// Branchless defensive lookup (libgcrypt 1.6.3, Fig. 11).
    LookupSecure,
    /// Scatter/gather interleaving (OpenSSL 1.0.2f, Fig. 3).
    ScatterGather,
    /// Defensive gather (OpenSSL 1.0.2g, Fig. 12).
    DefensiveGather,
    /// Secret-guarded gather loop (the Figs. 11/12 anti-pattern; the
    /// registry's fork-dense hot-loop stress family).
    BranchyGather,
}

impl Family {
    /// All seven families.
    pub const ALL: [Family; 7] = [
        Family::SquareMultiply,
        Family::SquareAlways,
        Family::LookupUnprotected,
        Family::LookupSecure,
        Family::ScatterGather,
        Family::DefensiveGather,
        Family::BranchyGather,
    ];
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Family::SquareMultiply => "square-and-multiply",
            Family::SquareAlways => "square-and-always-multiply",
            Family::LookupUnprotected => "unprotected-lookup",
            Family::LookupSecure => "secure-retrieve",
            Family::ScatterGather => "scatter-gather",
            Family::DefensiveGather => "defensive-gather",
            Family::BranchyGather => "branchy-gather",
        };
        f.write_str(name)
    }
}

/// Family-specific generation parameters (the countermeasure axis of the
/// sweep matrix). See each builder module's `variant` function for the
/// precise meaning and accepted range of every parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FamilyParams {
    /// Parameterized by the code layout of the mpi stubs and the secret
    /// window width.
    SquareMultiply {
        /// Distance in bytes between consecutive stubs (paper: `0x40`).
        stub_stride: u32,
        /// Secret exponent-window width in bits (paper: 1 — the bitwise
        /// loop; wider windows model sliding-window exponentiation).
        secret_bits: u32,
    },
    /// Parameterized by the compilation strategy.
    SquareAlways {
        /// `-O2` (register copy) or `-O0` (stack copy).
        opt: Opt,
    },
    /// Parameterized by layout and window-table shape.
    LookupUnprotected {
        /// `-O2` (far branch body) or `-O1` (compact layout).
        opt: Opt,
        /// Window-table entries (paper: 7).
        entries: u32,
        /// Entry stride in bytes: 4 = packed (paper), 8 = padded — the
        /// table-footprint axis of the block/page observers.
        stride: u32,
    },
    /// Parameterized by the table shape.
    LookupSecure {
        /// Pre-computed values (paper: 7).
        entries: u32,
        /// 32-bit words per value (paper: 96).
        words: u32,
        /// Unused 32-bit words between consecutive values (paper: 0 —
        /// packed; larger values model page-rounded table strides).
        pad_words: u32,
    },
    /// Parameterized by interleaving width, value size and alignment.
    ScatterGather {
        /// Number of interleaved values (paper: 8).
        spacing: u32,
        /// Bytes per value (paper: 384).
        value_bytes: u32,
        /// Whether the `align` step runs (the Fig. 3 proof ingredient).
        aligned: bool,
    },
    /// Parameterized by interleaving width and value size.
    DefensiveGather {
        /// Number of interleaved values (paper: 8).
        spacing: u32,
        /// Bytes per value (paper: 384).
        value_bytes: u32,
    },
    /// Parameterized by secret range and loop trip count.
    BranchyGather {
        /// Secret index candidates (each forks one loop trip).
        entries: u32,
        /// Loop trip count (`>= entries`; the excess trips stay lone).
        rounds: u32,
    },
}

impl FamilyParams {
    /// The family this parameter point belongs to.
    pub fn family(&self) -> Family {
        match self {
            FamilyParams::SquareMultiply { .. } => Family::SquareMultiply,
            FamilyParams::SquareAlways { .. } => Family::SquareAlways,
            FamilyParams::LookupUnprotected { .. } => Family::LookupUnprotected,
            FamilyParams::LookupSecure { .. } => Family::LookupSecure,
            FamilyParams::ScatterGather { .. } => Family::ScatterGather,
            FamilyParams::DefensiveGather { .. } => Family::DefensiveGather,
            FamilyParams::BranchyGather { .. } => Family::BranchyGather,
        }
    }
}

/// Default cache-bank bits of the analyzed architecture (4-byte banks,
/// the CacheBleed platform — matches `AnalysisConfig::default`).
pub const DEFAULT_BANK_BITS: u8 = 2;
/// Default page bits of the analyzed architecture (4-KiB pages).
pub const DEFAULT_PAGE_BITS: u8 = 12;

/// One cell of the sweep matrix: family parameters plus the architecture
/// axis — the full observer-granularity family of the analysis (block,
/// bank, and page bits), not just the cache-line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    /// The countermeasure axis.
    pub params: FamilyParams,
    /// Cache-line bits `b` of the analyzed architecture (6 = 64-byte
    /// lines, the Fig. 7 default; 5 = 32-byte, the Fig. 8 sweep).
    pub block_bits: u8,
    /// Cache-bank bits of the bank observer (default 2 = 4-byte banks,
    /// the CacheBleed platform; 3 = the 8-byte banks of newer parts).
    pub bank_bits: u8,
    /// Page bits of the page observer (default 12 = 4-KiB pages;
    /// 10 models small-page / TLB-slice observers).
    pub page_bits: u8,
}

impl ScenarioSpec {
    /// A spec from the countermeasure and cache-line axes, with the
    /// default bank/page observer granularities.
    pub fn new(params: FamilyParams, block_bits: u8) -> Self {
        ScenarioSpec {
            params,
            block_bits,
            bank_bits: DEFAULT_BANK_BITS,
            page_bits: DEFAULT_PAGE_BITS,
        }
    }

    /// Overrides the bank/page observer granularities — the
    /// observer-family axis of the sweep. The generated *scenario* is
    /// unchanged (same program bytes, same initial state); only the
    /// analysis configuration, and therefore the result identity,
    /// differs.
    #[must_use]
    pub fn with_observer_bits(mut self, bank_bits: u8, page_bits: u8) -> Self {
        self.bank_bits = bank_bits;
        self.page_bits = page_bits;
        self
    }

    /// The countermeasure family.
    pub fn family(&self) -> Family {
        self.params.family()
    }

    /// A stable identifier derived from the parameters alone — unique
    /// within any well-formed registry, independent of whether the spec
    /// happens to build a published paper instance.
    ///
    /// Parameters at their paper defaults are omitted (`w=1` secret
    /// windows, `s=4` lookup strides, `p=0` pads, default bank/page
    /// bits), so ids printed by earlier releases keep naming the same
    /// cells.
    pub fn id(&self) -> String {
        let family = match self.params {
            FamilyParams::SquareMultiply {
                stub_stride,
                secret_bits,
            } => {
                let w = if secret_bits == 1 {
                    String::new()
                } else {
                    format!(",w={secret_bits}")
                };
                format!("square-and-multiply[stride={stub_stride:#x}{w}")
            }
            FamilyParams::SquareAlways { opt } => {
                format!("square-and-always-multiply[{opt}")
            }
            FamilyParams::LookupUnprotected {
                opt,
                entries,
                stride,
            } => {
                let s = if stride == 4 {
                    String::new()
                } else {
                    format!(",s={stride}")
                };
                format!("unprotected-lookup[{opt},e={entries}{s}")
            }
            FamilyParams::LookupSecure {
                entries,
                words,
                pad_words,
            } => {
                let p = if pad_words == 0 {
                    String::new()
                } else {
                    format!(",p={pad_words}")
                };
                format!("secure-retrieve[e={entries},w={words}{p}")
            }
            FamilyParams::ScatterGather {
                spacing,
                value_bytes,
                aligned,
            } => {
                let tag = if aligned { "aligned" } else { "unaligned" };
                format!("scatter-gather[s={spacing},n={value_bytes},{tag}")
            }
            FamilyParams::DefensiveGather {
                spacing,
                value_bytes,
            } => {
                format!("defensive-gather[s={spacing},n={value_bytes}")
            }
            FamilyParams::BranchyGather { entries, rounds } => {
                format!("branchy-gather[e={entries},r={rounds}")
            }
        };
        let mut out = family;
        if self.bank_bits != DEFAULT_BANK_BITS {
            let _ = write!(out, ",bank={}", self.bank_bits);
        }
        if self.page_bits != DEFAULT_PAGE_BITS {
            let _ = write!(out, ",page={}", self.page_bits);
        }
        let _ = write!(out, ",b={}]", self.block_bits);
        out
    }

    /// The analyzer configuration for this cell's architecture: the
    /// full observer-granularity family (block, bank, page bits).
    pub fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig {
            block_bits: self.block_bits,
            bank_bits: self.bank_bits,
            page_bits: self.page_bits,
            ..AnalysisConfig::default()
        }
    }

    /// The spec's *observation* parameters — `(block, bank, page)`
    /// bits. Everything a `ScenarioSpec` contributes to its analysis
    /// configuration is observation: the bits select which observers
    /// watch the event stream but never alter the abstract
    /// interpretation itself, whose *interpretation* parameters (fuel,
    /// budget, configuration cap) come from `AnalysisConfig` defaults
    /// or per-request profile overrides. Two specs over the same
    /// binary that differ only in these bits therefore share one
    /// scheduler pass in a sweep (the service's interpretation-group
    /// planner keys on exactly this split).
    pub fn observation_bits(&self) -> (u8, u8, u8) {
        (self.block_bits, self.bank_bits, self.page_bits)
    }

    /// A relative analysis-cost estimate for heaviest-first batch
    /// scheduling (see `BatchJob::with_cost_hint` in the analyzer).
    ///
    /// The constants reflect the observed cost ordering of the paper's
    /// eight instances — defensive-gather dominates every batch (its
    /// branchless copy forks per table word), scatter/gather and the
    /// secure lookup follow, the exponentiation loops are cheap — and
    /// scale with the table-shape parameters that drive each family's
    /// fork count. Only scheduling depends on these numbers; results
    /// are bit-identical for any values.
    pub fn cost_hint(&self) -> u64 {
        match self.params {
            FamilyParams::SquareMultiply { secret_bits, .. } => 20 + u64::from(secret_bits),
            FamilyParams::SquareAlways { .. } => 30,
            FamilyParams::LookupUnprotected { entries, .. } => 50 + u64::from(entries),
            FamilyParams::LookupSecure {
                entries,
                words,
                pad_words,
            } => 200 + u64::from(entries) * u64::from(words + pad_words) / 4,
            FamilyParams::ScatterGather {
                spacing,
                value_bytes,
                ..
            } => 500 + u64::from(spacing) * u64::from(value_bytes) / 8,
            FamilyParams::DefensiveGather {
                spacing,
                value_bytes,
            } => 10_000 + u64::from(spacing) * u64::from(value_bytes),
            // Fork count scales with the candidate prefix; the lone
            // tail is nearly free.
            FamilyParams::BranchyGather { entries, rounds } => {
                100 + u64::from(entries) * u64::from(rounds)
            }
        }
    }

    /// Bounds-checks the parameters against each family's documented
    /// domain plus wire-safety caps, so a validated spec can always
    /// [`ScenarioSpec::build`] without panicking — and without
    /// unbounded memory (a 4-billion-entry table request must die here,
    /// not in the generator). [`FromStr`](std::str::FromStr) runs this
    /// on every parsed id, making it the daemon's wire boundary: no
    /// remote input reaches a builder assertion.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.block_bits > 30 || self.bank_bits > 30 || self.page_bits > 30 {
            return Err("observer granularities must be at most 30 bits");
        }
        match self.params {
            FamilyParams::SquareMultiply {
                stub_stride,
                secret_bits,
            } => {
                if !(8..=0x1000).contains(&stub_stride) {
                    return Err("stub stride must be in 8..=0x1000 bytes");
                }
                if !(1..=8).contains(&secret_bits) {
                    return Err("secret window width must be in 1..=8 bits");
                }
            }
            FamilyParams::SquareAlways { opt } => {
                if opt == Opt::O1 {
                    return Err("square-and-always-multiply has no documented -O1 build");
                }
            }
            FamilyParams::LookupUnprotected {
                opt,
                entries,
                stride,
            } => {
                if opt == Opt::O0 {
                    return Err("unprotected lookup has no documented -O0 build");
                }
                if stride != 4 && stride != 8 {
                    return Err("lookup entry stride must be 4 or 8 bytes");
                }
                // u64 product: `entries * stride` must not wrap in
                // release builds (a ~2^30-entry request would otherwise
                // slip past this cap and OOM the generator).
                if entries == 0 || u64::from(entries) * u64::from(stride) > 64 {
                    return Err("entries x stride must fit the 64-byte table slot");
                }
            }
            FamilyParams::LookupSecure {
                entries,
                words,
                pad_words,
            } => {
                if !(1..=64).contains(&entries) {
                    return Err("secure-retrieve entries must be in 1..=64");
                }
                if !(1..=4096).contains(&words) {
                    return Err("secure-retrieve words must be in 1..=4096");
                }
                if pad_words > 4096 {
                    return Err("secure-retrieve pad must be at most 4096 words");
                }
            }
            FamilyParams::ScatterGather {
                spacing,
                value_bytes,
                ..
            }
            | FamilyParams::DefensiveGather {
                spacing,
                value_bytes,
            } => {
                if !spacing.is_power_of_two() || !(2..=64).contains(&spacing) {
                    return Err("spacing must be a power of two in 2..=64");
                }
                if !(1..=4096).contains(&value_bytes) {
                    return Err("value bytes must be in 1..=4096");
                }
            }
            FamilyParams::BranchyGather { entries, rounds } => {
                if !(1..=64).contains(&entries) {
                    return Err("branchy-gather entries must be in 1..=64");
                }
                if !(1..=4096).contains(&rounds) || rounds < entries {
                    return Err("branchy-gather rounds must be in entries..=4096");
                }
            }
        }
        Ok(())
    }

    /// Whether this spec coincides with one of the published instances
    /// (including the documented unaligned ablation). Cheap: a match on
    /// the parameters, no scenario is built.
    pub fn is_paper_point(&self) -> bool {
        self.paper_constructor().is_some()
    }

    /// The single source of truth for paper-point mapping: the published
    /// constructor for this parameter point, if any. Cells analyzed
    /// under non-default bank/page observer granularities are *not*
    /// paper points: the published tables were produced under the
    /// default observer family, and a granularity variant is a distinct
    /// sweep cell with its own identity.
    fn paper_constructor(&self) -> Option<fn() -> Scenario> {
        if self.bank_bits != DEFAULT_BANK_BITS || self.page_bits != DEFAULT_PAGE_BITS {
            return None;
        }
        Some(match (self.params, self.block_bits) {
            (
                FamilyParams::SquareMultiply {
                    stub_stride: 0x40,
                    secret_bits: 1,
                },
                6,
            ) => square_multiply::libgcrypt_152,
            (FamilyParams::SquareAlways { opt: Opt::O2 }, 6) => square_always::libgcrypt_153_o2,
            (FamilyParams::SquareAlways { opt: Opt::O0 }, 5) => square_always::libgcrypt_153_o0,
            (
                FamilyParams::LookupUnprotected {
                    opt: Opt::O2,
                    entries: 7,
                    stride: 4,
                },
                6,
            ) => lookup_unprotected::libgcrypt_161_o2,
            (
                FamilyParams::LookupUnprotected {
                    opt: Opt::O1,
                    entries: 7,
                    stride: 4,
                },
                6,
            ) => lookup_unprotected::libgcrypt_161_o1,
            (
                FamilyParams::LookupSecure {
                    entries: 7,
                    words: 96,
                    pad_words: 0,
                },
                6,
            ) => lookup_secure::libgcrypt_163,
            (
                FamilyParams::ScatterGather {
                    spacing: 8,
                    value_bytes: 384,
                    aligned: true,
                },
                6,
            ) => scatter_gather::openssl_102f,
            (
                FamilyParams::ScatterGather {
                    spacing: 8,
                    value_bytes: 384,
                    aligned: false,
                },
                6,
            ) => scatter_gather::openssl_102f_unaligned,
            (
                FamilyParams::DefensiveGather {
                    spacing: 8,
                    value_bytes: 384,
                },
                6,
            ) => defensive_gather::openssl_102g,
            _ => return None,
        })
    }

    fn paper_scenario(&self) -> Option<Scenario> {
        self.paper_constructor().map(|build| build())
    }

    /// Generates the concrete scenario for this cell.
    ///
    /// Paper points come back with their canonical names and expected
    /// bounds; other cells carry a parameter-derived name (equal to
    /// [`ScenarioSpec::id`], so bank/page observer variants of the same
    /// binary remain distinguishable) and [`crate::Expected::unknown`].
    ///
    /// # Panics
    ///
    /// Panics when the parameters are out of the family's documented
    /// range (see each builder module's `variant`).
    pub fn build(&self) -> Scenario {
        if let Some(paper) = self.paper_scenario() {
            return paper;
        }
        let b = self.block_bits;
        let mut s = match self.params {
            FamilyParams::SquareMultiply {
                stub_stride,
                secret_bits,
            } => square_multiply::variant(stub_stride, secret_bits, b),
            FamilyParams::SquareAlways { opt } => square_always::variant(opt, b),
            FamilyParams::LookupUnprotected {
                opt,
                entries,
                stride,
            } => lookup_unprotected::variant(opt, entries, stride, b),
            FamilyParams::LookupSecure {
                entries,
                words,
                pad_words,
            } => lookup_secure::variant(entries, words, pad_words, b),
            FamilyParams::ScatterGather {
                spacing,
                value_bytes,
                aligned,
            } => scatter_gather::variant(spacing, value_bytes, aligned, b),
            FamilyParams::DefensiveGather {
                spacing,
                value_bytes,
            } => defensive_gather::variant(spacing, value_bytes, b),
            FamilyParams::BranchyGather { entries, rounds } => {
                branchy_gather::variant(entries, rounds, b)
            }
        };
        // The spec is the name authority: builders do not know the
        // observer-granularity axes, so a bank/page variant would
        // otherwise collide with its base cell's name.
        s.name = self.id();
        s
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// Error parsing a [`ScenarioSpec`] from its [`ScenarioSpec::id`] form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// The offending input.
    pub input: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseSpecError {}

/// The inverse of [`ScenarioSpec::id`] — the sweep daemon's wire format
/// for naming cells, so a client can submit exactly the cell a sweep
/// table printed. Round-tripping is pinned by tests:
/// `id().parse() == spec` for every representable spec.
///
/// ```
/// use leakaudit_scenarios::ScenarioSpec;
/// let spec: ScenarioSpec = "scatter-gather[s=8,n=384,aligned,b=6]".parse().unwrap();
/// assert_eq!(spec.id(), "scatter-gather[s=8,n=384,aligned,b=6]");
/// ```
impl std::str::FromStr for ScenarioSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, ParseSpecError> {
        let err = |reason: &'static str| ParseSpecError {
            input: s.to_string(),
            reason,
        };
        let (family, rest) = s.split_once('[').ok_or_else(|| err("missing `[`"))?;
        let args = rest
            .strip_suffix(']')
            .ok_or_else(|| err("missing closing `]`"))?;
        let mut fields: Vec<&str> = args.split(',').map(str::trim).collect();
        // Every id ends with the architecture axis `b=<bits>`, possibly
        // preceded by the optional observer-granularity axes
        // `bank=<bits>` and `page=<bits>` (in that order).
        let b_field = fields.pop().ok_or_else(|| err("empty parameter list"))?;
        let block_bits: u8 = b_field
            .strip_prefix("b=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("last parameter must be `b=<bits>`"))?;
        let mut trailing_u8 =
            |key: &str, reason: &'static str| -> Result<Option<u8>, ParseSpecError> {
                match fields.last().and_then(|f| f.strip_prefix(key)) {
                    Some(rest) => {
                        let value = rest
                            .strip_prefix('=')
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(reason))?;
                        fields.pop();
                        Ok(Some(value))
                    }
                    None => Ok(None),
                }
            };
        let page_bits = trailing_u8("page", "expected `page=<bits>`")?.unwrap_or(DEFAULT_PAGE_BITS);
        let bank_bits = trailing_u8("bank", "expected `bank=<bits>`")?.unwrap_or(DEFAULT_BANK_BITS);

        let value_of = |key: &str| -> Option<&str> {
            fields
                .iter()
                .find_map(|f| f.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        };
        let u32_of = |key: &str, reason: &'static str| -> Result<u32, ParseSpecError> {
            value_of(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(reason))
        };
        let u32_or =
            |key: &str, default: u32, reason: &'static str| -> Result<u32, ParseSpecError> {
                match value_of(key) {
                    Some(v) => v.parse().map_err(|_| err(reason)),
                    None => Ok(default),
                }
            };
        let opt_of = || -> Result<Opt, ParseSpecError> {
            match fields.first().copied() {
                Some("O0") => Ok(Opt::O0),
                Some("O1") => Ok(Opt::O1),
                Some("O2") => Ok(Opt::O2),
                _ => Err(err("expected an optimization level (O0/O1/O2)")),
            }
        };

        let params = match family {
            "square-and-multiply" => {
                let raw = value_of("stride").ok_or_else(|| err("expected `stride=0x<hex>`"))?;
                let stub_stride = raw
                    .strip_prefix("0x")
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| err("expected `stride=0x<hex>`"))?;
                FamilyParams::SquareMultiply {
                    stub_stride,
                    secret_bits: u32_or("w", 1, "expected `w=<bits>`")?,
                }
            }
            "square-and-always-multiply" => FamilyParams::SquareAlways { opt: opt_of()? },
            "unprotected-lookup" => FamilyParams::LookupUnprotected {
                opt: opt_of()?,
                entries: u32_of("e", "expected `e=<entries>`")?,
                stride: u32_or("s", 4, "expected `s=<stride>`")?,
            },
            "secure-retrieve" => FamilyParams::LookupSecure {
                entries: u32_of("e", "expected `e=<entries>`")?,
                words: u32_of("w", "expected `w=<words>`")?,
                pad_words: u32_or("p", 0, "expected `p=<pad-words>`")?,
            },
            "scatter-gather" => FamilyParams::ScatterGather {
                spacing: u32_of("s", "expected `s=<spacing>`")?,
                value_bytes: u32_of("n", "expected `n=<value-bytes>`")?,
                aligned: match fields.last().copied() {
                    Some("aligned") => true,
                    Some("unaligned") => false,
                    _ => return Err(err("expected `aligned` or `unaligned`")),
                },
            },
            "defensive-gather" => FamilyParams::DefensiveGather {
                spacing: u32_of("s", "expected `s=<spacing>`")?,
                value_bytes: u32_of("n", "expected `n=<value-bytes>`")?,
            },
            "branchy-gather" => FamilyParams::BranchyGather {
                entries: u32_of("e", "expected `e=<entries>`")?,
                rounds: u32_of("r", "expected `r=<rounds>`")?,
            },
            _ => return Err(err("unknown family")),
        };
        // Strictness: every remaining field must be one this family
        // recognizes. A misspelled key (`pad=8`), another family's key,
        // or observer axes not directly before `b=` (`page=` popped
        // above only when trailing) must fail loudly — silently parsing
        // to a *different* cell would make the daemon serve results the
        // client did not ask for.
        let (keys, tokens): (&[&str], &[&str]) = match family {
            "square-and-multiply" => (&["stride", "w"], &[]),
            "square-and-always-multiply" => (&[], &["O0", "O1", "O2"]),
            "unprotected-lookup" => (&["e", "s"], &["O0", "O1", "O2"]),
            "secure-retrieve" => (&["e", "w", "p"], &[]),
            "scatter-gather" => (&["s", "n"], &["aligned", "unaligned"]),
            "defensive-gather" => (&["s", "n"], &[]),
            "branchy-gather" => (&["e", "r"], &[]),
            _ => unreachable!("unknown families were rejected above"),
        };
        for field in &fields {
            let known_key = field
                .split_once('=')
                .is_some_and(|(key, _)| keys.contains(&key));
            if !known_key && !tokens.contains(field) {
                return Err(err(
                    "unexpected parameter (unknown key, or observer axes not directly before `b=`)",
                ));
            }
        }
        let spec = ScenarioSpec::new(params, block_bits).with_observer_bits(bank_bits, page_bits);
        // The wire boundary: an id that parses always builds. Remote
        // clients must be able to trip a structured error, never a
        // builder assertion.
        spec.validate().map_err(err)?;
        Ok(spec)
    }
}

/// An ordered collection of sweep cells with unique ids.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    specs: Vec<ScenarioSpec>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry from explicit specs.
    ///
    /// # Panics
    ///
    /// Panics if two specs share an id.
    pub fn from_specs(specs: Vec<ScenarioSpec>) -> Self {
        let mut r = Registry::new();
        for s in specs {
            r.push(s);
        }
        r
    }

    /// Appends one spec.
    ///
    /// # Panics
    ///
    /// Panics if an equal spec is already present.
    pub fn push(&mut self, spec: ScenarioSpec) {
        assert!(
            !self.specs.contains(&spec),
            "duplicate sweep cell: {}",
            spec.id()
        );
        self.specs.push(spec);
    }

    /// The eight published instances, in the paper's presentation order
    /// (the same order and scenarios as [`crate::all`]).
    pub fn paper() -> Self {
        Registry::from_specs(vec![
            ScenarioSpec::new(
                FamilyParams::SquareMultiply {
                    stub_stride: 0x40,
                    secret_bits: 1,
                },
                6,
            ),
            ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
            ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O0 }, 5),
            ScenarioSpec::new(
                FamilyParams::LookupUnprotected {
                    opt: Opt::O2,
                    entries: 7,
                    stride: 4,
                },
                6,
            ),
            ScenarioSpec::new(
                FamilyParams::LookupUnprotected {
                    opt: Opt::O1,
                    entries: 7,
                    stride: 4,
                },
                6,
            ),
            ScenarioSpec::new(
                FamilyParams::LookupSecure {
                    entries: 7,
                    words: 96,
                    pad_words: 0,
                },
                6,
            ),
            ScenarioSpec::new(
                FamilyParams::ScatterGather {
                    spacing: 8,
                    value_bytes: 384,
                    aligned: true,
                },
                6,
            ),
            ScenarioSpec::new(
                FamilyParams::DefensiveGather {
                    spacing: 8,
                    value_bytes: 384,
                },
                6,
            ),
        ])
    }

    /// The default sweep matrix: the eight paper points plus layout,
    /// table-shape, alignment, line-size, secret-width, lookup-stride
    /// and observer-granularity variants of every family — 45 cells
    /// over all seven families.
    pub fn default_sweep() -> Self {
        let mut r = Registry::paper();
        // square-and-multiply: line-size, stub-layout and secret-width
        // axes.
        for (stride, w, b) in [
            (0x40u32, 1u32, 5u8),
            (0x10, 1, 6),
            (0x80, 1, 6),
            (0x40, 2, 6), // window width: the sliding-window loops
            (0x40, 4, 6),
        ] {
            r.push(ScenarioSpec::new(
                FamilyParams::SquareMultiply {
                    stub_stride: stride,
                    secret_bits: w,
                },
                b,
            ));
        }
        // square-and-always-multiply: line-size × compilation axes.
        for (opt, b) in [(Opt::O2, 5u8), (Opt::O2, 7), (Opt::O0, 6)] {
            r.push(ScenarioSpec::new(FamilyParams::SquareAlways { opt }, b));
        }
        // unprotected lookup: window-size, entry-stride and line-size
        // axes.
        for (opt, entries, stride, b) in [
            (Opt::O2, 3u32, 4u32, 6u8),
            (Opt::O2, 15, 4, 6),
            (Opt::O2, 7, 4, 5),
            (Opt::O2, 7, 8, 6), // padded pointer table (Fig. 14a ablation)
            (Opt::O2, 7, 8, 5),
            (Opt::O1, 7, 8, 6),
        ] {
            r.push(ScenarioSpec::new(
                FamilyParams::LookupUnprotected {
                    opt,
                    entries,
                    stride,
                },
                b,
            ));
        }
        // secure retrieve: table-shape and entry-padding axes.
        for (entries, words, pad, b) in [
            (3u32, 96u32, 0u32, 6u8),
            (7, 24, 0, 6),
            (3, 24, 0, 5),
            (3, 24, 8, 6),   // 128-byte entry stride
            (7, 24, 104, 6), // 512-byte (page-fraction) entry stride
        ] {
            r.push(ScenarioSpec::new(
                FamilyParams::LookupSecure {
                    entries,
                    words,
                    pad_words: pad,
                },
                b,
            ));
        }
        // scatter/gather: alignment ablation, interleaving and line-size.
        for (spacing, value_bytes, aligned, b) in [
            (8u32, 384u32, false, 6u8), // the documented ablation
            (4, 64, true, 6),
            (16, 64, true, 6),
            (8, 384, true, 5),
        ] {
            r.push(ScenarioSpec::new(
                FamilyParams::ScatterGather {
                    spacing,
                    value_bytes,
                    aligned,
                },
                b,
            ));
        }
        // defensive gather: interleaving axes.
        for (spacing, value_bytes) in [(4u32, 64u32), (16, 64)] {
            r.push(ScenarioSpec::new(
                FamilyParams::DefensiveGather {
                    spacing,
                    value_bytes,
                },
                6,
            ));
        }
        // branchy gather: the fork-dense hot-loop stress axis — secret
        // range × loop length, including a lone straight-line tail
        // (rounds > entries) so scripted loop bodies replay both forked
        // and lone at scale.
        for (entries, rounds, b) in [(8u32, 12u32, 6u8), (16, 24, 6), (8, 32, 5)] {
            r.push(ScenarioSpec::new(
                FamilyParams::BranchyGather { entries, rounds },
                b,
            ));
        }
        // Observer-granularity families: the same binaries analyzed
        // under coarser banks (8-byte, post-CacheBleed parts) and
        // smaller pages (1-KiB observer slices) — the Fig. 13 axis made
        // sweepable. The scenario bytes are identical to the base
        // cells; only the observer suite (and thus result identity)
        // changes.
        for spec in Registry::granularity_sweep().specs() {
            r.push(*spec);
        }
        r
    }

    /// The observer-granularity variants of the default sweep on their
    /// own: the same binaries under coarser banks and smaller pages.
    /// Each cell differs from some other default-sweep cell only in
    /// observation parameters — never in interpretation — so submitting
    /// this matrix cold exercises the interpretation-group planner
    /// maximally: the sweep engine runs one shared scheduler pass per
    /// distinct binary and demultiplexes the rest as
    /// `Provenance::SharedPass`. The perfbench `granularity_group_cold`
    /// metric times exactly this submission.
    pub fn granularity_sweep() -> Self {
        let mut r = Registry::new();
        let sg = FamilyParams::ScatterGather {
            spacing: 8,
            value_bytes: 384,
            aligned: true,
        };
        for (bank, page) in [(3u8, 12u8), (4, 12)] {
            r.push(ScenarioSpec::new(sg, 6).with_observer_bits(bank, page));
        }
        let retrieve = FamilyParams::LookupSecure {
            entries: 7,
            words: 96,
            pad_words: 0,
        };
        r.push(ScenarioSpec::new(retrieve, 6).with_observer_bits(3, 12));
        let lookup = FamilyParams::LookupUnprotected {
            opt: Opt::O2,
            entries: 7,
            stride: 4,
        };
        r.push(ScenarioSpec::new(lookup, 6).with_observer_bits(3, 12));
        r.push(ScenarioSpec::new(lookup, 6).with_observer_bits(2, 10));
        let sm = FamilyParams::SquareMultiply {
            stub_stride: 0x40,
            secret_bits: 1,
        };
        r.push(ScenarioSpec::new(sm, 6).with_observer_bits(3, 10));
        let dg = FamilyParams::DefensiveGather {
            spacing: 4,
            value_bytes: 64,
        };
        r.push(ScenarioSpec::new(dg, 6).with_observer_bits(3, 12));
        let sa = FamilyParams::SquareAlways { opt: Opt::O2 };
        r.push(ScenarioSpec::new(sa, 6).with_observer_bits(3, 10));
        r.push(ScenarioSpec::new(sa, 5).with_observer_bits(3, 12));
        r
    }

    /// The specs, in insertion order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when no cells are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The distinct families covered by the registry.
    pub fn families(&self) -> BTreeSet<Family> {
        self.specs.iter().map(ScenarioSpec::family).collect()
    }

    /// Builds every cell's scenario, in order.
    pub fn build_all(&self) -> Vec<Scenario> {
        self.specs.iter().map(ScenarioSpec::build).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_a_proper_matrix() {
        let r = Registry::default_sweep();
        assert!(r.len() >= 40, "matrix has {} cells, need >= 40", r.len());
        assert!(
            r.families().len() >= 5,
            "matrix covers {} families, need >= 5",
            r.families().len()
        );
        // Ids are unique.
        let mut ids: Vec<String> = r.specs().iter().map(ScenarioSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), r.len());
    }

    #[test]
    fn every_spec_builds_a_valid_scenario() {
        // The registry round trip: every cell of the default matrix
        // generates a scenario that assembled, decodes at its entry
        // point, and ships concrete validation cases over >= 2 layouts.
        let r = Registry::default_sweep();
        for (spec, s) in r.specs().iter().zip(r.build_all()) {
            assert_eq!(s.block_bits, spec.block_bits, "{}", spec.id());
            assert!(!s.cases.is_empty(), "{}: no concrete cases", spec.id());
            assert!(s.layout_count() >= 2, "{}: needs >= 2 layouts", spec.id());
            assert!(
                s.program.decode_at(s.program.entry()).is_ok(),
                "{}: undecodable entry",
                spec.id()
            );
            if !spec.is_paper_point() {
                assert_eq!(s.name, spec.id(), "generated names mirror the spec");
                assert!(!s.expected.is_paper());
            }
        }
    }

    #[test]
    fn paper_registry_matches_the_published_eight() {
        let names: Vec<String> = Registry::paper()
            .build_all()
            .into_iter()
            .map(|s| s.name)
            .collect();
        let expected: Vec<String> = crate::all().into_iter().map(|s| s.name).collect();
        assert_eq!(names, expected);
        assert!(Registry::paper()
            .specs()
            .iter()
            .all(ScenarioSpec::is_paper_point));
    }

    #[test]
    fn paper_points_carry_paper_expectations() {
        let r = Registry::paper();
        for s in r.build_all() {
            assert!(
                s.expected.is_paper(),
                "{}: paper point without expectations",
                s.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate sweep cell")]
    fn duplicate_specs_are_rejected() {
        let spec = ScenarioSpec::new(
            FamilyParams::SquareMultiply {
                stub_stride: 0x40,
                secret_bits: 1,
            },
            6,
        );
        Registry::from_specs(vec![spec, spec]);
    }

    #[test]
    fn spec_ids_round_trip_through_parsing() {
        // The wire format: every cell of the default matrix (and the
        // paper registry inside it) parses back to exactly itself.
        for spec in Registry::default_sweep().specs() {
            let parsed: ScenarioSpec = spec.id().parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(&parsed, spec, "{}", spec.id());
            assert_eq!(parsed.id(), spec.id());
        }
    }

    #[test]
    fn spec_parsing_rejects_malformed_input() {
        for (input, reason_part) in [
            ("", "missing `[`"),
            ("unknown-family[b=6]", "unknown family"),
            ("scatter-gather[s=8,n=384,aligned,b=6", "closing"),
            ("scatter-gather[s=8,n=384,b=6]", "aligned"),
            ("secure-retrieve[e=7,b=6]", "w=<words>"),
            ("secure-retrieve[e=7,w=96,p=x,b=6]", "p=<pad-words>"),
            ("square-and-multiply[stride=64,b=6]", "0x<hex>"),
            ("square-and-multiply[stride=0x40,w=no,b=6]", "w=<bits>"),
            ("square-and-always-multiply[O3,b=6]", "optimization"),
            ("square-and-always-multiply[O2,bank=x,b=6]", "bank=<bits>"),
            ("square-and-always-multiply[O2,page=,b=6]", "page=<bits>"),
            ("defensive-gather[s=4,n=64]", "b=<bits>"),
            // Unknown or misplaced parameters must fail loudly rather
            // than silently parse to a different cell.
            (
                "secure-retrieve[e=7,w=96,pad=8,b=6]",
                "unexpected parameter",
            ),
            (
                // Observer axes in the wrong order: `bank=` is popped
                // (trailing), the stray `page=` then fails the
                // alignment-tag check — rejected either way.
                "scatter-gather[s=8,n=384,aligned,page=10,bank=3,b=6]",
                "aligned",
            ),
            (
                "secure-retrieve[e=7,w=96,page=10,bank=3,b=6]",
                "unexpected parameter",
            ),
            ("unprotected-lookup[O2,e=7,w=4,b=6]", "unexpected parameter"),
        ] {
            let got = input.parse::<ScenarioSpec>().unwrap_err();
            assert!(
                got.reason.contains(reason_part),
                "{input:?}: reason {:?} should mention {reason_part:?}",
                got.reason
            );
        }
    }

    #[test]
    fn parsing_rejects_specs_that_could_not_build() {
        // Parseable-but-unbuildable parameters must die at the wire
        // boundary with a structured reason, never in a builder panic
        // (these strings are exactly what a hostile daemon client can
        // send).
        for (input, reason_part) in [
            ("secure-retrieve[e=0,w=96,b=6]", "1..=64"),
            ("secure-retrieve[e=7,w=0,b=6]", "1..=4096"),
            ("secure-retrieve[e=7,w=4000000000,b=6]", "1..=4096"),
            ("unprotected-lookup[O0,e=7,b=6]", "-O0"),
            ("square-and-always-multiply[O1,b=6]", "-O1"),
            ("unprotected-lookup[O2,e=0,b=6]", "64-byte table slot"),
            ("unprotected-lookup[O2,e=7,s=16,b=6]", "4 or 8"),
            ("square-and-multiply[stride=0x4,b=6]", "8..=0x1000"),
            ("square-and-multiply[stride=0x40,w=9,b=6]", "1..=8"),
            ("scatter-gather[s=3,n=384,aligned,b=6]", "power of two"),
            ("defensive-gather[s=8,n=0,b=6]", "1..=4096"),
            ("branchy-gather[e=0,r=12,b=6]", "1..=64"),
            ("branchy-gather[e=16,r=8,b=6]", "entries..=4096"),
            ("square-and-always-multiply[O2,b=77]", "at most 30 bits"),
            (
                "square-and-always-multiply[O2,bank=31,b=6]",
                "at most 30 bits",
            ),
        ] {
            let got = input.parse::<ScenarioSpec>().unwrap_err();
            assert!(
                got.reason.contains(reason_part),
                "{input:?}: reason {:?} should mention {reason_part:?}",
                got.reason
            );
        }
        // Every default cell passes its own validation.
        for spec in Registry::default_sweep().specs() {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.id()));
        }
    }

    #[test]
    fn cost_hints_rank_defensive_gather_heaviest() {
        let r = Registry::paper();
        let hints: Vec<u64> = r.specs().iter().map(ScenarioSpec::cost_hint).collect();
        let max = *hints.iter().max().unwrap();
        let gather = ScenarioSpec::new(
            FamilyParams::DefensiveGather {
                spacing: 8,
                value_bytes: 384,
            },
            6,
        );
        assert_eq!(max, gather.cost_hint(), "defensive-gather dominates");
        assert!(hints.iter().all(|&h| h > 0));
    }

    #[test]
    fn new_axis_ids_round_trip_and_old_ids_stay_valid() {
        // Fresh axes appear in the id and parse back …
        for (spec, id) in [
            (
                ScenarioSpec::new(
                    FamilyParams::SquareMultiply {
                        stub_stride: 0x40,
                        secret_bits: 4,
                    },
                    6,
                ),
                "square-and-multiply[stride=0x40,w=4,b=6]",
            ),
            (
                ScenarioSpec::new(
                    FamilyParams::LookupUnprotected {
                        opt: Opt::O2,
                        entries: 7,
                        stride: 8,
                    },
                    6,
                ),
                "unprotected-lookup[O2,e=7,s=8,b=6]",
            ),
            (
                ScenarioSpec::new(
                    FamilyParams::LookupSecure {
                        entries: 3,
                        words: 24,
                        pad_words: 8,
                    },
                    6,
                ),
                "secure-retrieve[e=3,w=24,p=8,b=6]",
            ),
            (
                ScenarioSpec::new(
                    FamilyParams::ScatterGather {
                        spacing: 8,
                        value_bytes: 384,
                        aligned: true,
                    },
                    6,
                )
                .with_observer_bits(3, 10),
                "scatter-gather[s=8,n=384,aligned,bank=3,page=10,b=6]",
            ),
        ] {
            assert_eq!(spec.id(), id);
            assert_eq!(id.parse::<ScenarioSpec>().unwrap(), spec);
        }
        // … while ids printed before the axes existed still parse to
        // the same cells (defaults are omitted, not renamed).
        let legacy: ScenarioSpec = "unprotected-lookup[O2,e=7,b=6]".parse().unwrap();
        assert_eq!(
            legacy,
            ScenarioSpec::new(
                FamilyParams::LookupUnprotected {
                    opt: Opt::O2,
                    entries: 7,
                    stride: 4,
                },
                6,
            )
        );
        assert_eq!(legacy.bank_bits, DEFAULT_BANK_BITS);
        assert_eq!(legacy.page_bits, DEFAULT_PAGE_BITS);
    }

    #[test]
    fn observer_variants_are_distinct_cells_of_the_same_binary() {
        let base = ScenarioSpec::new(
            FamilyParams::ScatterGather {
                spacing: 8,
                value_bytes: 384,
                aligned: true,
            },
            6,
        );
        let coarse = base.with_observer_bits(3, 12);
        // Same binary, same init …
        let (a, b) = (base.build(), coarse.build());
        assert_eq!(a.program.encode_bytes(), b.program.encode_bytes());
        // … but a different analysis configuration and identity.
        assert!(base.is_paper_point());
        assert!(
            !coarse.is_paper_point(),
            "granularity variants are cells of their own"
        );
        assert_eq!(b.name, coarse.id());
        assert_eq!(coarse.analysis_config().bank_bits, 3);
        assert_eq!(base.analysis_config().bank_bits, DEFAULT_BANK_BITS);
        assert_eq!(coarse.analysis_config().block_bits, 6);
    }

    #[test]
    fn spec_ids_and_display_agree() {
        let spec = ScenarioSpec::new(
            FamilyParams::ScatterGather {
                spacing: 4,
                value_bytes: 64,
                aligned: true,
            },
            6,
        );
        assert_eq!(spec.to_string(), spec.id());
        assert_eq!(spec.id(), "scatter-gather[s=4,n=64,aligned,b=6]");
        assert_eq!(spec.family(), Family::ScatterGather);
    }
}
