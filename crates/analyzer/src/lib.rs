//! The `leakaudit` static analyzer: abstract interpretation of x86-32
//! binaries that bounds memory-trace leakage for a hierarchy of
//! side-channel observers.
//!
//! This crate glues the paper's abstract domains (`leakaudit-core`) to
//! decoded binaries (`leakaudit-x86`), mirroring the role CacheAudit plays
//! in the paper's §8.1: it walks the executable instruction by
//! instruction, maintains an abstract machine state over the masked-symbol
//! domain, forks on branch flags it cannot decide, rejoins at merge
//! points, and feeds every instruction fetch and data access into one
//! memory-trace DAG per observer. The final counts are the leakage bounds
//! of Theorem 1.
//!
//! # Usage
//!
//! ```
//! use leakaudit_analyzer::{Analysis, AnalysisConfig, AnalysisInput, InitState};
//! use leakaudit_core::{Observer, ValueSet};
//! use leakaudit_x86::{Asm, Mem, Reg};
//!
//! // A secret-indexed table load: mov eax, [0x8000 + k*8], k ∈ {0..7}.
//! let mut a = Asm::new(0x1000);
//! a.mov(Reg::Eax, Mem::sib(Reg::Ebx, Reg::Ecx, 8, 0));
//! a.hlt();
//!
//! let mut init = InitState::new();
//! init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
//! init.set_reg(Reg::Ecx, ValueSet::from_constants(0..8, 32)); // secret
//!
//! let report = Analysis::new(AnalysisConfig::default()).run(&AnalysisInput {
//!     program: a.assemble()?,
//!     init,
//! })?;
//! assert_eq!(report.dcache_bits(Observer::address()), 3.0);
//! assert_eq!(report.dcache_bits(Observer::block(6)), 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod engine;
mod exec;
mod memo;
mod report;
mod scheduler;
pub mod sink;
mod state;

use std::fmt;

use leakaudit_core::{CacheKeyed, FingerprintHasher, Observer};
use leakaudit_x86::{DecodeError, Program};

pub use batch::{
    BatchOutcome, BatchReport, BatchTicket, Executor, OwnedJob, Progress, ProgressProbe,
};
pub use exec::{
    address_of, eval_cond, execute, execute_decoded, AccessVec, ForkPlan, Next, StepEffect,
};
pub use report::{
    format_bits, AnalysisProfile, Channel, LeakReport, LeakRow, MemoStats, ObserverSpec,
    PhaseTotals,
};
pub use state::{AbsState, AbstractMemory, FlagsState, InitState};

/// Which resource of a per-request [`Budget`] ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetLimit {
    /// The budget's abstract-step cap tripped.
    Fuel,
    /// The budget's wall-clock deadline passed.
    Deadline,
}

impl fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetLimit::Fuel => f.write_str("fuel"),
            BudgetLimit::Deadline => f.write_str("deadline"),
        }
    }
}

/// A per-request resource budget, distinct from the analyzer's own
/// divergence guard ([`AnalysisConfig::fuel`]): the config fuel answers
/// "is this abstract loop ever going to terminate?", the budget answers
/// "how long is *this caller* willing to wait?". A budgeted run that
/// converges is bit-identical to an unbudgeted one (the budget only
/// decides whether the run is allowed to finish); a run that trips the
/// budget surfaces [`AnalysisError::BudgetExhausted`] instead of holding
/// a worker indefinitely.
///
/// The budget is part of result identity (a `BudgetExhausted` outcome
/// depends on it), so [`CacheKeyed`] for [`AnalysisConfig`] folds it
/// into the cache key — budgeted requests cache separately from
/// unbudgeted ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Cap on abstractly executed instructions for one job, on top of
    /// (and typically far below) [`AnalysisConfig::fuel`]. `None` = no
    /// per-request cap.
    pub fuel: Option<u64>,
    /// Wall-clock deadline for one job, in milliseconds, measured from
    /// the moment a worker starts interpreting (queue time excluded —
    /// the scheduler cannot refund time the caller spent waiting for a
    /// worker). `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

impl Budget {
    /// The unlimited budget (the default).
    pub const UNLIMITED: Budget = Budget {
        fuel: None,
        deadline_ms: None,
    };

    /// A budget capped at `fuel` abstract steps.
    pub fn with_fuel(fuel: u64) -> Self {
        Budget {
            fuel: Some(fuel),
            ..Budget::UNLIMITED
        }
    }

    /// A budget with a wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(ms: u64) -> Self {
        Budget {
            deadline_ms: Some(ms),
            ..Budget::UNLIMITED
        }
    }
}

impl CacheKeyed for Budget {
    fn key_into(&self, h: &mut FingerprintHasher) {
        // Option encoding: presence flag then value, so `None` and
        // `Some(0)` stay distinct.
        h.write_u8(u8::from(self.fuel.is_some()));
        h.write_u64(self.fuel.unwrap_or(0));
        h.write_u8(u8::from(self.deadline_ms.is_some()));
        h.write_u64(self.deadline_ms.unwrap_or(0));
    }
}

/// Error produced by the analyzer.
#[derive(Debug)]
pub enum AnalysisError {
    /// The analyzed region contains undecodable bytes.
    Decode(DecodeError),
    /// The step budget was exhausted (diverging abstract loop).
    OutOfFuel {
        /// The exhausted budget.
        fuel: u64,
    },
    /// The caller's per-request [`Budget`] ran out before the analysis
    /// converged. Unlike [`AnalysisError::OutOfFuel`] (the analyzer's
    /// own divergence guard), this is the *client's* bound: raise the
    /// budget and resubmit to get a full run.
    BudgetExhausted {
        /// Which budgeted resource tripped.
        limit: BudgetLimit,
        /// Abstract steps executed when the budget tripped.
        steps: u64,
    },
    /// A `ret` whose return address is not a unique concrete value.
    UnresolvedReturn {
        /// Address of the `ret`.
        at: u32,
    },
    /// Forking exceeded the configuration limit.
    TooManyConfigs {
        /// The limit.
        limit: usize,
    },
    /// The job was cancelled before a worker picked it up (see
    /// [`batch::BatchTicket::cancel`]). Jobs already running when the
    /// cancellation arrives finish normally — cancellation is a
    /// queue-drop, not a preemption.
    Cancelled,
    /// The job panicked inside an [`batch::Executor`] worker. The panic
    /// is contained per job: the worker survives and the batch still
    /// completes (waiters see this error instead of hanging).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Decode(e) => write!(f, "decoding failed: {e}"),
            AnalysisError::OutOfFuel { fuel } => {
                write!(f, "analysis exceeded {fuel} abstract steps")
            }
            AnalysisError::BudgetExhausted { limit, steps } => {
                write!(f, "budget exhausted ({limit}) after {steps} abstract steps")
            }
            AnalysisError::UnresolvedReturn { at } => {
                write!(f, "unresolved return address at 0x{at:x}")
            }
            AnalysisError::TooManyConfigs { limit } => {
                write!(f, "more than {limit} live configurations")
            }
            AnalysisError::Cancelled => write!(f, "job cancelled before execution"),
            AnalysisError::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for AnalysisError {
    fn from(e: DecodeError) -> Self {
        AnalysisError::Decode(e)
    }
}

/// Analyzer configuration: architecture parameters and resource limits.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// `b` for the block observer (cache-line bits; 6 = 64-byte lines).
    pub block_bits: u8,
    /// `b` for the bank observer (2 = 4-byte banks, the CacheBleed
    /// platform).
    pub bank_bits: u8,
    /// `b` for the page observer (12 = 4-KiB pages).
    pub page_bits: u8,
    /// Maximum number of abstractly executed instructions.
    pub fuel: u64,
    /// The caller's per-request resource budget (fuel cap and/or
    /// wall-clock deadline), checked in the scheduler loop alongside
    /// `fuel`. Unlimited by default; see [`Budget`].
    pub budget: Budget,
    /// Maximum number of simultaneously live configurations.
    pub max_configs: usize,
    /// Memoize abstract transfers per pc (see `crate::memo`): a step
    /// whose read inputs repeat replays the recorded effect.
    /// Results are bit-identical either way — the memo layer only skips
    /// recomputation, pinned by the `interp_memo_props` suite — so this
    /// is excluded from cache-key identity.
    /// On by default; turn off to run the naive interpreter (the
    /// reference the property suite compares against).
    pub interp_memo: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            block_bits: 6,
            bank_bits: 2,
            page_bits: 12,
            fuel: 5_000_000,
            budget: Budget::UNLIMITED,
            max_configs: 4096,
            interp_memo: true,
        }
    }
}

impl AnalysisConfig {
    /// A configuration with 32-byte cache lines (the paper's Fig. 8).
    pub fn with_block_bits(block_bits: u8) -> Self {
        AnalysisConfig {
            block_bits,
            ..AnalysisConfig::default()
        }
    }

    /// The observers analyzed for each channel: address, block, b-block,
    /// bank, b-bank, and page (paper §3.2's hierarchy).
    ///
    /// Colliding granularities (e.g. `block_bits == bank_bits`, where the
    /// block and bank observers are the same function) are deduplicated,
    /// so no spec is analyzed — or counted — twice.
    pub fn observer_suite(&self) -> Vec<ObserverSpec> {
        let observers = [
            Observer::address(),
            Observer::block(self.block_bits),
            Observer::block(self.block_bits).stuttering(),
            Observer::block(self.bank_bits),
            Observer::block(self.bank_bits).stuttering(),
            Observer::block(self.page_bits),
        ];
        let mut specs: Vec<ObserverSpec> = Vec::new();
        for channel in [Channel::Instruction, Channel::Data, Channel::Shared] {
            for observer in observers {
                let spec = ObserverSpec { channel, observer };
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
            }
        }
        specs
    }

    /// The *observation* half of the config fingerprint: the three
    /// observer granularities. These determine which lanes watch the
    /// event stream but never influence the stream itself, so two
    /// configs differing only here can share one scheduler pass (see
    /// [`Analysis::run_union`]).
    fn observation_key_into(&self, h: &mut FingerprintHasher) {
        h.write_u8(self.block_bits);
        h.write_u8(self.bank_bits);
        h.write_u8(self.page_bits);
    }

    /// The *interpretation* half of the config fingerprint: everything
    /// that shapes the abstract interpretation itself — `fuel`, the
    /// per-request `budget`, and `max_configs`. Configs that agree here
    /// (and on the analyzed scenario) produce bit-identical event
    /// streams; the service groups such cells into one shared pass.
    pub fn interpretation_key_into(&self, h: &mut FingerprintHasher) {
        h.write_u64(self.fuel);
        self.budget.key_into(h);
        h.write_len(self.max_configs);
    }

    /// `true` when `other` would drive the scheduler identically: same
    /// fuel, budget, and configuration cap. Observer granularities are
    /// deliberately ignored — they only pick lanes.
    fn same_interpretation(&self, other: &AnalysisConfig) -> bool {
        self.fuel == other.fuel
            && self.budget == other.budget
            && self.max_configs == other.max_configs
    }
}

impl CacheKeyed for AnalysisConfig {
    /// Encodes every field that can influence an analysis *result*:
    /// the three observer granularities (which determine the suite) and
    /// the resource limits — `fuel`, `max_configs`, and the per-request
    /// `budget` — which determine whether a run converges or errors.
    /// `interp_memo` only skips recomputation — the interpreter-memo
    /// property suite proves results are bit-identical either way — and
    /// is deliberately excluded, so memoized and naive runs share cache
    /// entries.
    ///
    /// The encoding is the concatenation of the observation half and the
    /// interpretation half (in that order, byte-for-byte what earlier
    /// releases wrote), so splitting the fingerprint changed no existing
    /// cache key.
    fn key_into(&self, h: &mut FingerprintHasher) {
        self.observation_key_into(h);
        self.interpretation_key_into(h);
    }
}

/// A binary plus its initial abstract state — everything the analyzer
/// needs about one case-study instance.
#[derive(Debug, Clone)]
pub struct AnalysisInput {
    /// The program image.
    pub program: Program,
    /// Initial registers, memory, and the low-input symbol table.
    pub init: InitState,
}

/// A target the analyzer can run on (implemented by [`AnalysisInput`] and
/// by the scenario types of `leakaudit-scenarios`).
pub trait AnalysisTarget {
    /// The program image.
    fn program(&self) -> &Program;
    /// The initial abstract state.
    fn init_state(&self) -> InitState;
}

impl AnalysisTarget for AnalysisInput {
    fn program(&self) -> &Program {
        &self.program
    }

    fn init_state(&self) -> InitState {
        self.init.clone()
    }
}

impl<T: AnalysisTarget + ?Sized> AnalysisTarget for &T {
    fn program(&self) -> &Program {
        (**self).program()
    }

    fn init_state(&self) -> InitState {
        (**self).init_state()
    }
}

/// The analyzer entry point.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    config: AnalysisConfig,
}

impl Analysis {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalysisConfig) -> Self {
        Analysis { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Analyzes a target from its entry point to `hlt`, returning leakage
    /// bounds for the full observer suite.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] on undecodable code, exhausted fuel, or
    /// unresolvable control flow.
    pub fn run(&self, target: &impl AnalysisTarget) -> Result<LeakReport, AnalysisError> {
        self.run_group(&[], target, false)
    }

    /// Drives one abstract interpretation of `target`, publishing the
    /// raw trace-event stream on `bus` instead of counting it into a
    /// report. Returns the run's profile: its step counters
    /// (`transfer_hits`, `transfer_misses`); everything else is zero, as
    /// no pipeline ran.
    ///
    /// This is the bit-identity test surface: two `interpret` calls
    /// whose configs differ only in [`AnalysisConfig::interp_memo`]
    /// must produce byte-identical event streams (and identical
    /// errors), which the `interp_memo_props` suite pins.
    ///
    /// # Errors
    ///
    /// Exactly as [`Analysis::run`].
    pub fn interpret(
        &self,
        target: &impl AnalysisTarget,
        bus: &mut dyn sink::EventBus,
    ) -> Result<AnalysisProfile, AnalysisError> {
        let init = target.init_state();
        let mut profile = AnalysisProfile::default();
        scheduler::drive(&self.config, target.program(), &init, bus, &mut profile)?;
        Ok(profile)
    }

    /// Analyzes a target once for a whole *interpretation group*: this
    /// analysis' own configuration (the group lead) plus `members`,
    /// which must agree with it on every interpretation field (fuel,
    /// budget, `max_configs`) and may differ only in observer
    /// granularities.
    ///
    /// One scheduler pass drives the union of all member observer
    /// suites (lead first, then each member's novel specs in order), so
    /// the returned report contains every member's suite as an in-order
    /// subset of its rows — each member's solo report can be projected
    /// out bit-identically without re-running anything. Within the
    /// pass, every lane of one offset-bits granularity shares one
    /// projection per event, so an access projects once per granularity
    /// in the group rather than once per spec.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a member disagrees on an
    /// interpretation field (callers group by the interpretation key,
    /// so a mismatch is a planner bug).
    ///
    /// # Errors
    ///
    /// Exactly as [`Analysis::run`]; an error applies to every member
    /// of the group.
    pub fn run_union(
        &self,
        members: &[AnalysisConfig],
        target: &impl AnalysisTarget,
    ) -> Result<LeakReport, AnalysisError> {
        self.run_group(members, target, false)
    }

    /// [`Analysis::run_union`] with the executor's replay decision:
    /// `offload` lets trace replay move to a helper thread while this
    /// one interprets. The public entry points replay inline.
    pub(crate) fn run_group(
        &self,
        members: &[AnalysisConfig],
        target: &impl AnalysisTarget,
        offload: bool,
    ) -> Result<LeakReport, AnalysisError> {
        debug_assert!(
            members.iter().all(|m| self.config.same_interpretation(m)),
            "interpretation-group members must share fuel/budget/max_configs"
        );
        let init = target.init_state();
        engine::run_union(&self.config, members, target.program(), &init, offload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_suite_covers_six_observers_per_channel() {
        let specs = AnalysisConfig::default().observer_suite();
        assert_eq!(specs.len(), 18);
    }

    #[test]
    fn observer_suite_dedups_colliding_granularities() {
        // 4-byte cache lines == 4-byte banks: block and bank observers
        // coincide, as do their stuttering variants — 4 distinct
        // observers per channel instead of 6.
        let config = AnalysisConfig::with_block_bits(2);
        assert_eq!(config.block_bits, config.bank_bits);
        let specs = config.observer_suite();
        assert_eq!(specs.len(), 12, "colliding specs must not double-count");
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a, b, "duplicate spec in suite");
            }
        }
    }

    #[test]
    fn page_collision_also_dedups() {
        // Degenerate but allowed: every granularity equal.
        let config = AnalysisConfig {
            block_bits: 12,
            bank_bits: 12,
            page_bits: 12,
            ..AnalysisConfig::default()
        };
        // address, block(12), block(12).stuttering per channel.
        assert_eq!(config.observer_suite().len(), 9);
    }
}
