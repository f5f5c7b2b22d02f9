//! The PLDI'17 case-study binaries: side-channel countermeasures for
//! modular exponentiation from libgcrypt 1.5.2/1.5.3/1.6.1/1.6.3 and
//! OpenSSL 1.0.2f/1.0.2g (paper §8).
//!
//! Each scenario packages:
//!
//! * an **x86-32 binary** assembled at the addresses and with the code
//!   layouts the paper documents (Figs. 9 and 15 show how countermeasure
//!   effectiveness depends on exactly where instructions fall relative to
//!   cache-line boundaries — we reproduce those layouts byte-exactly);
//! * the **initial abstract state**: which registers/memory hold secrets
//!   (value sets), which hold dynamically allocated pointers (fresh
//!   symbols, per the paper's `malloc` model);
//! * the **paper's expected leakage bounds** for the I-/D-cache observer
//!   tables (Figs. 7, 8, 14), used by the regression suite and the
//!   `repro` harness;
//! * **concrete cases** — full register/memory initializations for every
//!   secret value under several heap layouts, so the emulator can validate
//!   the static bounds empirically (Theorem 1) and check functional
//!   correctness of each countermeasure. They are generated on first
//!   read ([`Cases`]): the static analysis never reads them.
//!
//! ```
//! use leakaudit_core::Observer;
//! use leakaudit_scenarios::scatter_gather;
//!
//! let scenario = scatter_gather::openssl_102f();
//! let report = scenario.analyze().unwrap();
//! // The scatter/gather security proof (Fig. 14c, block column):
//! assert_eq!(report.dcache_bits(Observer::block(6)), 0.0);
//! // ... and the CacheBleed leak it misses (bank column, 384 bit):
//! assert_eq!(report.dcache_bits(Observer::block(2)), 384.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branchy_gather;
pub mod defensive_gather;
pub mod lookup_secure;
pub mod lookup_unprotected;
pub mod registry;
pub mod scatter_gather;
pub mod square_always;
pub mod square_multiply;

pub use registry::{Family, FamilyParams, Opt, ParseSpecError, Registry, ScenarioSpec};

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, LazyLock};

use leakaudit_analyzer::{
    Analysis, AnalysisConfig, AnalysisError, AnalysisInput, AnalysisTarget, BatchReport, Executor,
    InitState, LeakReport, OwnedJob,
};
use leakaudit_x86::{EmuError, EmuTrace, Emulator, Program, Reg};

/// Error produced when running a scenario's concrete cases.
#[derive(Debug)]
pub enum ScenarioError {
    /// The emulator failed (bad memory access, undecodable code, …).
    Emu(EmuError),
    /// The run completed but a functional post-condition does not hold:
    /// the countermeasure mis-copied.
    PostCondition {
        /// The scenario's name.
        scenario: String,
        /// The concrete case's label.
        case: String,
        /// Base address of the violated `expect_mem` range.
        addr: u32,
        /// Offset of the first mismatching byte within the range.
        offset: usize,
        /// The byte the countermeasure should have produced.
        expected: u8,
        /// The byte actually found in emulated memory.
        actual: u8,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Emu(e) => write!(f, "emulation failed: {e}"),
            ScenarioError::PostCondition {
                scenario,
                case,
                addr,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "{scenario}: {case}: post-condition failed at {addr:#x}+{offset}: \
                 expected {expected:#04x}, found {actual:#04x}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Emu(e) => Some(e),
            ScenarioError::PostCondition { .. } => None,
        }
    }
}

impl From<EmuError> for ScenarioError {
    fn from(e: EmuError) -> Self {
        ScenarioError::Emu(e)
    }
}

/// The paper's expected leakage numbers for one scenario, in bits, for the
/// `[address, block, b-block]` observer columns of Figs. 7/8/14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// I-cache row.
    pub icache: [f64; 3],
    /// D-cache row.
    pub dcache: [f64; 3],
    /// D-cache bank-trace observer (only reported for scatter/gather: the
    /// CacheBleed leak, §8.4).
    pub dcache_bank: Option<f64>,
}

impl Expected {
    /// No paper expectation: the instance is a generated sweep variant,
    /// not one of the published tables. All entries are `NaN`;
    /// regression suites skip `NaN` cells.
    pub fn unknown() -> Self {
        Expected {
            icache: [f64::NAN; 3],
            dcache: [f64::NAN; 3],
            dcache_bank: None,
        }
    }

    /// `true` when this carries published numbers (any non-`NaN` cell).
    pub fn is_paper(&self) -> bool {
        self.icache.iter().chain(&self.dcache).any(|b| !b.is_nan())
    }
}

/// A fully concrete initialization of one emulator run: one secret value
/// under one heap layout.
///
/// Cases exist for the Theorem 1 checks (the emulator validating a
/// static bound) and for functional correctness of a countermeasure;
/// they live in a scenario's [`Cases`] list, which generates them on
/// first read.
#[derive(Debug, Clone)]
pub struct ConcreteCase {
    /// Human-readable description (e.g. `"k=3, layout B"`).
    pub label: String,
    /// Index of the heap layout (the valuation λ); cases sharing a layout
    /// differ only in the secret.
    pub layout: usize,
    /// Initial register values.
    pub regs: Vec<(Reg, u32)>,
    /// Initial memory bytes.
    pub bytes: Vec<(u32, u8)>,
    /// Post-condition: memory ranges that must equal the given bytes after
    /// the run (functional correctness of the countermeasure).
    pub expect_mem: Vec<(u32, Vec<u8>)>,
}

/// The concrete validation cases of one scenario, generated on first
/// read and shared by clones.
///
/// A case list can hold over a million `(address, byte)` pairs (a
/// scatter-gather cell fills every interleaved value for every secret
/// and layout), and neither the static analysis nor any sweep or
/// daemon path reads it: only the emulator-side checks do (Theorem 1,
/// functional post-conditions, the cache-simulator oracle example). So
/// a builder hands its case loop over as a closure, and the first read
/// through [`Deref`] or `&Cases` runs it once; every clone of the
/// scenario shares the result. `Debug` prints the cases only once they
/// exist.
///
/// ```
/// use leakaudit_scenarios::scatter_gather;
///
/// let scenario = scatter_gather::openssl_102f();
/// scenario.analyze().unwrap();
/// assert!(!scenario.cases.is_generated(), "analysis reads no case");
/// assert_eq!(scenario.cases.len(), 16); // 8 secrets x 2 layouts
/// assert!(scenario.cases.is_generated());
/// ```
#[derive(Clone, Debug)]
pub struct Cases(Arc<LazyLock<Vec<ConcreteCase>, CaseLoop>>);

type CaseLoop = Box<dyn FnOnce() -> Vec<ConcreteCase> + Send>;

impl Cases {
    /// A list whose cases `generate` produces on first read.
    pub fn new(generate: impl FnOnce() -> Vec<ConcreteCase> + Send + 'static) -> Self {
        Cases(Arc::new(LazyLock::new(Box::new(generate))))
    }

    /// `true` once some read (of this list or of a clone) has
    /// generated the cases. Generates nothing itself.
    pub fn is_generated(&self) -> bool {
        LazyLock::get(&self.0).is_some()
    }
}

impl Deref for Cases {
    type Target = [ConcreteCase];

    fn deref(&self) -> &[ConcreteCase] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Cases {
    type Item = &'a ConcreteCase;
    type IntoIter = std::slice::Iter<'a, ConcreteCase>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One case-study instance: binary, abstract initial state, architecture,
/// paper expectations, and concrete validation cases.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short identifier (e.g. `"scatter-gather-1.0.2f"`, or a generated
    /// parameter string for sweep variants).
    pub name: String,
    /// Which paper table/figure this instance reproduces (or the family
    /// it was generated from).
    pub paper_ref: String,
    /// The binary.
    pub program: Program,
    /// Initial abstract state (secrets and heap symbols).
    pub init: InitState,
    /// Cache-line bits `b` for this instance (6 = 64-byte, 5 = 32-byte).
    pub block_bits: u8,
    /// The paper's reported bounds.
    pub expected: Expected,
    /// Concrete secret × layout sweep for emulator validation,
    /// generated on first read (see [`Cases`]). Read only by the
    /// emulator-side checks (Theorem 1, functional correctness, the
    /// cache-simulator oracle); the static analysis, its cache keys,
    /// the sweep engine and the daemon never read it.
    pub cases: Cases,
}

impl Scenario {
    /// The analyzer configuration matching this scenario's architecture
    /// (cache-line bits, default everything else).
    pub fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig::with_block_bits(self.block_bits)
    }

    /// Runs the static analysis with this scenario's architecture
    /// parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the analyzer.
    pub fn analyze(&self) -> Result<LeakReport, AnalysisError> {
        Analysis::new(self.analysis_config()).run(self)
    }

    /// This scenario as one unit of batch work (see [`analyze_all`]).
    /// The job owns a copy of the binary and the initial state only,
    /// not the concrete validation cases.
    pub fn batch_job(&self) -> OwnedJob {
        let input = AnalysisInput {
            program: self.program.clone(),
            init: self.init.clone(),
        };
        OwnedJob::new(self.name.clone(), self.analysis_config(), Arc::new(input))
    }

    /// Runs one concrete case in the emulator, returning its memory trace.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Emu`] when emulation fails and
    /// [`ScenarioError::PostCondition`] when the run completes but the
    /// countermeasure produced the wrong memory contents.
    pub fn emulate(&self, case: &ConcreteCase) -> Result<EmuTrace, ScenarioError> {
        let mut emu = Emulator::new(&self.program);
        for &(r, v) in &case.regs {
            emu.set_reg(r, v);
        }
        for &(addr, b) in &case.bytes {
            emu.write_u8(addr, b);
        }
        let trace = emu.run(1_000_000)?;
        for (addr, expected) in &case.expect_mem {
            for (i, &b) in expected.iter().enumerate() {
                let actual = emu.read_u8(addr + i as u32);
                if actual != b {
                    return Err(ScenarioError::PostCondition {
                        scenario: self.name.clone(),
                        case: case.label.clone(),
                        addr: *addr,
                        offset: i,
                        expected: b,
                        actual,
                    });
                }
            }
        }
        Ok(trace)
    }

    /// The number of distinct heap layouts covered by [`Scenario::cases`]
    /// (generates the cases).
    pub fn layout_count(&self) -> usize {
        self.cases
            .iter()
            .map(|c| c.layout)
            .max()
            .map_or(0, |m| m + 1)
    }
}

impl AnalysisTarget for Scenario {
    fn program(&self) -> &Program {
        &self.program
    }

    fn init_state(&self) -> InitState {
        self.init.clone()
    }
}

/// All eight case-study instances, in the paper's presentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        square_multiply::libgcrypt_152(),
        square_always::libgcrypt_153_o2(),
        square_always::libgcrypt_153_o0(),
        lookup_unprotected::libgcrypt_161_o2(),
        lookup_unprotected::libgcrypt_161_o1(),
        lookup_secure::libgcrypt_163(),
        scatter_gather::openssl_102f(),
        defensive_gather::openssl_102g(),
    ]
}

/// Analyzes a set of scenarios in parallel on an
/// [`leakaudit_analyzer::Executor`] (the runner the sweep engine and the
/// daemon use), each under its own architecture parameters. Outcomes
/// come back in input order and are bit-identical to per-scenario
/// [`Scenario::analyze`] calls.
///
/// ```
/// let scenarios = leakaudit_scenarios::all();
/// let batch = leakaudit_scenarios::analyze_all(&scenarios);
/// assert_eq!(batch.outcomes().len(), 8);
/// assert_eq!(batch.errors().count(), 0);
/// ```
pub fn analyze_all(scenarios: &[Scenario]) -> BatchReport {
    Executor::new()
        .submit(scenarios.iter().map(Scenario::batch_job).collect())
        .wait()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_assemble_and_have_cases() {
        let scenarios = all();
        assert_eq!(scenarios.len(), 8);
        for s in &scenarios {
            assert!(!s.cases.is_empty(), "{} has no concrete cases", s.name);
            assert!(s.layout_count() >= 2, "{} needs >=2 heap layouts", s.name);
            assert!(s.program.decode_at(s.program.entry()).is_ok());
        }
    }

    #[test]
    fn post_condition_failure_is_an_error_not_a_panic() {
        let s = scatter_gather::openssl_102f();
        let mut case = s.cases[0].clone();
        // First make sure the pristine case passes...
        s.emulate(&case).expect("pristine case must pass");
        // ...then corrupt one expected byte and demand a structured error.
        let (addr, bytes) = case
            .expect_mem
            .first_mut()
            .expect("scatter/gather checks the gathered value");
        bytes[0] ^= 0xff;
        let (addr, expected) = (*addr, bytes[0]);
        match s.emulate(&case) {
            Err(ScenarioError::PostCondition {
                scenario,
                addr: got_addr,
                offset,
                expected: got_expected,
                ..
            }) => {
                assert_eq!(scenario, s.name);
                assert_eq!(got_addr, addr);
                assert_eq!(offset, 0);
                assert_eq!(got_expected, expected);
            }
            other => panic!("expected PostCondition error, got {other:?}"),
        }
    }

    #[test]
    fn batch_analyze_all_covers_every_scenario() {
        let scenarios = all();
        let batch = analyze_all(&scenarios);
        assert_eq!(batch.outcomes().len(), scenarios.len());
        assert_eq!(batch.errors().count(), 0);
        for (s, outcome) in scenarios.iter().zip(batch.outcomes()) {
            assert_eq!(outcome.name, s.name);
        }
    }

    #[test]
    fn cases_are_generated_on_first_read_and_shared_by_clones() {
        // The heaviest heavy-space scatter-gather cell: 64 cases of
        // 32 × 672 scattered bytes each.
        let spec: ScenarioSpec = "scatter-gather[s=32,n=672,aligned,b=6]".parse().unwrap();
        let s = spec.build();
        s.analyze().unwrap();
        let _ = format!("{s:?}");
        let clone = s.clone();
        assert!(!s.cases.is_generated(), "build, analyze, Debug and clone");

        assert_eq!(s.cases.len(), 2 * 32);
        for (i, case) in s.cases.iter().enumerate() {
            assert_eq!(case.layout, i / 32);
            assert_eq!(case.label, format!("k={}, layout {}", i % 32, i / 32));
            assert_eq!(case.bytes.len(), 32 * 672);
        }
        assert!(clone.cases.is_generated(), "the clone shares the list");
        assert!(std::ptr::eq(&s.cases[..], &clone.cases[..]));
    }

    #[test]
    fn names_are_unique() {
        let scenarios = all();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }
}
