//! Content-addressed cache keys for analysis results.

use std::fmt;

use leakaudit_analyzer::{AnalysisConfig, InitState};
use leakaudit_core::{CacheKeyed, Fingerprint, FingerprintHasher};
use leakaudit_scenarios::Scenario;
use leakaudit_x86::Program;

/// Domain tag of the current key encoding. Bump the version whenever any
/// participating encoding changes ([`Program::encode_bytes`], the
/// [`CacheKeyed`] impls of [`InitState`] or [`AnalysisConfig`]): old disk
/// entries then become unreachable instead of wrong.
///
/// v2: the key is computed in two stages (a program×state [`BaseKey`]
/// folded with the configuration), and [`AnalysisConfig`] grew the
/// per-request `budget` field — both change every key value.
const KEY_DOMAIN: &str = "leakaudit-cachekey/v2";

/// Domain tag of the [`BaseKey`] stage.
const BASE_DOMAIN: &str = "leakaudit-basekey/v2";

/// Domain tag of the [`GroupKey`] stage. Group keys are scheduling
/// identity only (they never reach a cache), so bumping this version
/// invalidates nothing.
const GROUP_DOMAIN: &str = "leakaudit-groupkey/v1";

/// The configuration-independent half of a [`CacheKey`]: program bytes ×
/// initial abstract state. A sweep engine memoizes one `BaseKey` per
/// generated scenario and derives a full key per analysis configuration
/// with [`BaseKey::with_config`] — per-request config overrides (observer
/// granularities, budgets) never force a scenario rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaseKey(Fingerprint);

impl BaseKey {
    /// Computes the program×state fingerprint.
    pub fn compute(program: &Program, init: &InitState) -> Self {
        let mut h = FingerprintHasher::new(BASE_DOMAIN);
        h.write_blob(&program.encode_bytes());
        init.key_into(&mut h);
        BaseKey(h.finish())
    }

    /// The base of a scenario (program bytes plus initial state; no
    /// configuration).
    pub fn for_scenario(s: &Scenario) -> Self {
        BaseKey::compute(&s.program, &s.init)
    }

    /// Folds an analysis configuration in, yielding the full result
    /// identity.
    pub fn with_config(self, config: &AnalysisConfig) -> CacheKey {
        let mut h = FingerprintHasher::new(KEY_DOMAIN);
        h.write_u64((self.0 .0 >> 64) as u64);
        h.write_u64(self.0 .0 as u64);
        config.key_into(&mut h);
        CacheKey(h.finish())
    }

    /// Folds in only the *interpretation* half of a configuration
    /// (fuel, budget, configuration cap — see
    /// [`AnalysisConfig::interpretation_key_into`]), yielding the
    /// identity of the scheduler pass this cell needs. Cells with equal
    /// group keys differ at most in observer granularities and can be
    /// served by one shared pass; cells with equal [`CacheKey`]s always
    /// have equal group keys.
    pub fn interpretation_group(self, config: &AnalysisConfig) -> GroupKey {
        let mut h = FingerprintHasher::new(GROUP_DOMAIN);
        h.write_u64((self.0 .0 >> 64) as u64);
        h.write_u64(self.0 .0 as u64);
        config.interpretation_key_into(&mut h);
        GroupKey(h.finish())
    }
}

/// The identity of one *scheduler pass*: program bytes × initial state
/// × the interpretation half of the configuration (fuel, budget,
/// `max_configs`). Unlike a [`CacheKey`] it deliberately omits the
/// observer granularities — those select sinks on the event stream but
/// never change the stream — so the sweep planner uses it to partition
/// pending cells into groups that one `Analysis::run_union` pass can
/// serve. Never persisted: results are still cached per [`CacheKey`].
///
/// [`Analysis::run_union`]: leakaudit_analyzer::Analysis::run_union
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey(Fingerprint);

/// The identity of one analysis request, derived purely from content:
///
/// * the **program bytes** (entry point + segments, via
///   [`Program::encode_bytes`] — labels and other assembler metadata
///   excluded),
/// * the **initial abstract state** (symbol table, registers, flags,
///   pre-populated memory),
/// * the **analyzer configuration** (observer granularities and resource
///   limits; scheduling switches excluded).
///
/// Two requests with equal keys produce bit-identical [`LeakReport`]s
/// (the analyzer is deterministic given these inputs — the batch
/// consistency suite pins that down), so a key hit can substitute the
/// cached report for a re-analysis.
///
/// [`LeakReport`]: leakaudit_analyzer::LeakReport
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(Fingerprint);

impl CacheKey {
    /// Computes the key for one analysis request.
    pub fn compute(program: &Program, init: &InitState, config: &AnalysisConfig) -> Self {
        BaseKey::compute(program, init).with_config(config)
    }

    /// The key of a scenario analyzed under its own architecture
    /// parameters (the sweep engine's per-cell key).
    pub fn for_scenario(s: &Scenario) -> Self {
        CacheKey::compute(&s.program, &s.init, &s.analysis_config())
    }

    /// Fixed-width lowercase hex (32 chars) — the on-disk file stem.
    pub fn to_hex(self) -> String {
        self.0.to_hex()
    }

    /// Appends the [`CacheKey::to_hex`] spelling to `out`.
    pub(crate) fn write_hex(self, out: &mut String) {
        self.0.write_hex(out);
    }

    /// Parses [`CacheKey::to_hex`] back.
    pub fn from_hex(s: &str) -> Option<Self> {
        Fingerprint::from_hex(s).map(CacheKey)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_scenarios::{registry::Registry, ScenarioSpec};

    #[test]
    fn keys_are_deterministic_and_distinct_across_the_sweep() {
        // Each cell's identity is its scenario base folded with the
        // *spec's* configuration: observer-granularity variants share
        // program bytes but must not share keys.
        let key_of = |spec: &ScenarioSpec| -> CacheKey {
            BaseKey::for_scenario(&spec.build()).with_config(&spec.analysis_config())
        };
        let reg = Registry::default_sweep();
        let keys: Vec<CacheKey> = reg.specs().iter().map(key_of).collect();
        // Deterministic: rebuilding gives the same keys.
        let again: Vec<CacheKey> = reg.specs().iter().map(key_of).collect();
        assert_eq!(keys, again);
        // Distinct: no two default cells collide.
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "sweep cells must not collide");
    }

    #[test]
    fn budgets_change_the_key() {
        use leakaudit_analyzer::Budget;
        let s = leakaudit_scenarios::square_multiply::libgcrypt_152();
        let plain = s.analysis_config();
        let budgeted = leakaudit_analyzer::AnalysisConfig {
            budget: Budget::with_fuel(10_000),
            ..s.analysis_config()
        };
        assert_ne!(
            CacheKey::compute(&s.program, &s.init, &plain),
            CacheKey::compute(&s.program, &s.init, &budgeted),
            "a budgeted request caches separately from an unbudgeted one"
        );
        // Staged and one-shot computation agree.
        assert_eq!(
            BaseKey::for_scenario(&s).with_config(&plain),
            CacheKey::compute(&s.program, &s.init, &plain)
        );
    }

    #[test]
    fn interp_memo_does_not_change_the_key() {
        let s = leakaudit_scenarios::scatter_gather::openssl_102f();
        let mut naive = s.analysis_config();
        naive.interp_memo = false;
        let mut memoized = s.analysis_config();
        memoized.interp_memo = true;
        assert_eq!(
            CacheKey::compute(&s.program, &s.init, &naive),
            CacheKey::compute(&s.program, &s.init, &memoized),
            "the interpreter memo is not part of result identity"
        );
    }

    #[test]
    fn block_bits_change_the_key() {
        let spec = ScenarioSpec::new(
            leakaudit_scenarios::FamilyParams::SquareAlways {
                opt: leakaudit_scenarios::Opt::O2,
            },
            6,
        );
        let s6 = spec.build();
        let s5 = ScenarioSpec::new(spec.params, 5).build();
        // Identical program bytes, different analysis granularity.
        assert_eq!(s6.program.encode_bytes(), s5.program.encode_bytes());
        assert_ne!(
            CacheKey::for_scenario(&s6),
            CacheKey::for_scenario(&s5),
            "the observer suite is part of result identity"
        );
    }

    #[test]
    fn observer_granularities_share_a_group_but_not_a_key() {
        // The tentpole invariant: bank/page (and even block) variants of
        // one scenario are distinct *results* but one *scheduler pass*.
        let spec = ScenarioSpec::new(
            leakaudit_scenarios::FamilyParams::SquareAlways {
                opt: leakaudit_scenarios::Opt::O2,
            },
            6,
        );
        let coarse = spec.with_observer_bits(3, 10);
        let b5 = ScenarioSpec::new(spec.params, 5);
        let base = BaseKey::for_scenario(&spec.build());
        assert_eq!(base, BaseKey::for_scenario(&coarse.build()));
        assert_eq!(base, BaseKey::for_scenario(&b5.build()));
        let group = base.interpretation_group(&spec.analysis_config());
        assert_eq!(
            group,
            base.interpretation_group(&coarse.analysis_config()),
            "bank/page variants share the scheduler pass"
        );
        assert_eq!(
            group,
            base.interpretation_group(&b5.analysis_config()),
            "block bits pick sinks, not scheduling"
        );
        assert_ne!(
            base.with_config(&spec.analysis_config()),
            base.with_config(&coarse.analysis_config()),
            "shared pass or not, the results cache separately"
        );
    }

    #[test]
    fn interpretation_fields_split_the_group() {
        use leakaudit_analyzer::Budget;
        let s = leakaudit_scenarios::square_multiply::libgcrypt_152();
        let base = BaseKey::for_scenario(&s);
        let plain = s.analysis_config();
        let group = base.interpretation_group(&plain);
        let fueled = AnalysisConfig {
            fuel: plain.fuel / 2,
            ..plain.clone()
        };
        assert_ne!(group, base.interpretation_group(&fueled));
        let budgeted = AnalysisConfig {
            budget: Budget::with_fuel(10_000),
            ..plain.clone()
        };
        assert_ne!(group, base.interpretation_group(&budgeted));
        let capped = AnalysisConfig {
            max_configs: 16,
            ..plain.clone()
        };
        assert_ne!(group, base.interpretation_group(&capped));
        // The interpreter memo stays outside group identity too.
        let naive = AnalysisConfig {
            interp_memo: false,
            ..plain
        };
        assert_eq!(group, base.interpretation_group(&naive));
    }

    #[test]
    fn hex_round_trip() {
        let s = leakaudit_scenarios::square_multiply::libgcrypt_152();
        let key = CacheKey::for_scenario(&s);
        assert_eq!(CacheKey::from_hex(&key.to_hex()), Some(key));
    }
}
