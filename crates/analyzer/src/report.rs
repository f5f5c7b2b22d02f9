//! Leakage reports: per-observer, per-channel bounds in the format of the
//! paper's result tables (Figs. 7, 8, 14).

use std::fmt;
use std::time::Duration;

use leakaudit_core::Observer;
use leakaudit_mpi::Natural;

/// Declares [`AnalysisProfile`] from one field table. Each field is a
/// `u64` counter whose name carries its unit; the table also generates
/// [`AnalysisProfile::add`], field iteration and the flat JSON writer,
/// so a new counter costs one line here.
macro_rules! analysis_profile {
    ($($(#[$attr:meta])* $field:ident,)+) => {
        /// What one analysis cost, as flat `u64` counters — the one
        /// record carried by [`LeakReport`], summed by the executor and
        /// printed by the daemon's `stats` and by `perfbench`.
        ///
        /// Instrumentation only: never part of result identity. The
        /// profile never enters cache keys or serialized rows, and two
        /// bit-identical reports may carry different timings. A computed
        /// report has `runs == 1`; cache-decoded reports and shared-pass
        /// views carry an all-zero profile, since they ran no pipeline.
        ///
        /// Each `_ns` phase is busy time on the thread that ran it. When
        /// replay stays on the interpreting thread, the three phases
        /// partition the pipeline's wall clock (report assembly sits
        /// outside all three). When replay runs on a helper thread (see
        /// [`crate::sink::run_pipeline`]), interpretation and replay
        /// overlap, so their sum can exceed the job's wall time.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct AnalysisProfile {
            $($(#[$attr])* pub $field: u64,)+
        }

        impl AnalysisProfile {
            /// Adds every counter of `other` into this one.
            pub fn add(&mut self, other: &AnalysisProfile) {
                $(self.$field += other.$field;)+
            }

            /// Every `(name, value)` pair, in table order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }

            /// Every `(name, counter)` pair, in table order, for writing.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [$((stringify!($field), &mut self.$field)),+].into_iter()
            }
        }
    };
}

analysis_profile! {
    /// Completed analysis pipelines (1 for a computed report).
    runs,
    /// Abstract interpretation: the scheduler's fixpoint loop (decode,
    /// transfer functions, merge planning, event emission), less any
    /// time spent blocked on the replay helper.
    interpret_ns,
    /// Trace replay: sinks consuming events (cursor updates, DAG
    /// maintenance, projections), on whichever thread ran it.
    replay_ns,
    /// Final counting: Proposition 2 big-number arithmetic and row
    /// conversion.
    count_ns,
    /// Abstract steps answered by the per-pc transfer memo (a recorded
    /// effect replayed). Every step is exactly one hit or one miss.
    transfer_hits,
    /// Abstract steps that ran the naive transfer (memo misses and
    /// bypasses; every step of a memo-off run).
    transfer_misses,
    /// Pipelines whose trace replay ran on a helper thread.
    offloaded,
}

impl AnalysisProfile {
    /// The profile as one flat JSON object, keys in table order:
    /// `{"runs":1,"interpret_ns":…,…}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .fields()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Per-phase totals, a view of an [`AnalysisProfile`]. Kept because the
/// benchmark client names it; everything else reads the profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Completed analysis pipelines.
    pub runs: u64,
    /// Abstract-interpretation time.
    pub interpret: Duration,
    /// Sink replay time.
    pub replay: Duration,
    /// Proposition 2 counting time.
    pub count: Duration,
}

impl From<AnalysisProfile> for PhaseTotals {
    fn from(p: AnalysisProfile) -> Self {
        PhaseTotals {
            runs: p.runs,
            interpret: Duration::from_nanos(p.interpret_ns),
            replay: Duration::from_nanos(p.replay_ns),
            count: Duration::from_nanos(p.count_ns),
        }
    }
}

/// Interpreter-memo counters, a view of an [`AnalysisProfile`]. Kept
/// because the benchmark client names it; everything else reads the
/// profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Per-pc transfer memo hits.
    pub transfer_hits: u64,
    /// Transfer memo misses and bypasses.
    pub transfer_misses: u64,
    /// Always 0: the per-pc transfer memo is the interpreter's only memo
    /// layer.
    pub script_steps: u64,
    /// Always 0: every trace event replays through the per-event DAG
    /// update.
    pub sink_script_events: u64,
}

impl From<AnalysisProfile> for MemoStats {
    fn from(p: AnalysisProfile) -> Self {
        MemoStats {
            transfer_hits: p.transfer_hits,
            transfer_misses: p.transfer_misses,
            ..MemoStats::default()
        }
    }
}

/// Which cache an observer watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// Instruction fetches only (I-cache).
    Instruction,
    /// Data accesses only (D-cache).
    Data,
    /// All memory accesses, interleaved (shared cache).
    Shared,
}

impl Channel {
    /// A stable one-byte code for serialization (0 = instruction,
    /// 1 = data, 2 = shared).
    pub fn code(self) -> u8 {
        match self {
            Channel::Instruction => 0,
            Channel::Data => 1,
            Channel::Shared => 2,
        }
    }

    /// Inverse of [`Channel::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Channel::Instruction),
            1 => Some(Channel::Data),
            2 => Some(Channel::Shared),
            _ => None,
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Channel::Instruction => write!(f, "I-Cache"),
            Channel::Data => write!(f, "D-Cache"),
            Channel::Shared => write!(f, "Shared"),
        }
    }
}

/// One observer attached to one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverSpec {
    /// The channel.
    pub channel: Channel,
    /// The observer.
    pub observer: Observer,
}

/// One row of a leakage report.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakRow {
    /// The channel/observer this row bounds.
    pub spec: ObserverSpec,
    /// Upper bound on the number of distinguishable observation sequences.
    pub count: Natural,
    /// `log2(count)` — bits of leakage (paper §4).
    pub bits: f64,
}

/// The complete result of one analysis: leakage bounds for every observer
/// in the suite.
#[derive(Debug, Clone, Default)]
pub struct LeakReport {
    rows: Vec<LeakRow>,
    profile: AnalysisProfile,
}

impl LeakReport {
    pub(crate) fn new(rows: Vec<LeakRow>, profile: AnalysisProfile) -> Self {
        LeakReport { rows, profile }
    }

    /// Reassembles a report from rows — the deserialization path of the
    /// sweep service's on-disk result cache. Callers are expected to
    /// provide rows that came out of [`LeakReport::rows`] (same specs,
    /// same order); nothing is recomputed or checked. The profile is
    /// zero: a cache hit did not run the pipeline.
    pub fn from_rows(rows: Vec<LeakRow>) -> Self {
        LeakReport::new(rows, AnalysisProfile::default())
    }

    /// All rows.
    pub fn rows(&self) -> &[LeakRow] {
        &self.rows
    }

    /// What this run cost (all zero for cache-decoded reports and
    /// shared-pass views).
    pub fn profile(&self) -> AnalysisProfile {
        self.profile
    }

    /// The leakage bound in bits for a channel/observer pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not part of the analyzed suite.
    pub fn bits(&self, channel: Channel, observer: Observer) -> f64 {
        self.rows
            .iter()
            .find(|r| r.spec.channel == channel && r.spec.observer == observer)
            .unwrap_or_else(|| panic!("no row for {channel}/{observer}"))
            .bits
    }

    /// I-cache leakage in bits.
    pub fn icache_bits(&self, observer: Observer) -> f64 {
        self.bits(Channel::Instruction, observer)
    }

    /// D-cache leakage in bits.
    pub fn dcache_bits(&self, observer: Observer) -> f64 {
        self.bits(Channel::Data, observer)
    }

    /// Shared-cache leakage in bits.
    pub fn shared_bits(&self, observer: Observer) -> f64 {
        self.bits(Channel::Shared, observer)
    }

    /// Renders the paper-style table (rows: I/D-cache; columns: observers).
    pub fn to_table(&self, observers: &[Observer]) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10}", "Observer"));
        for o in observers {
            out.push_str(&format!(" {:>12}", o.to_string()));
        }
        out.push('\n');
        for channel in [Channel::Instruction, Channel::Data] {
            out.push_str(&format!("{:<10}", channel.to_string()));
            for o in observers {
                let bits = self.bits(channel, *o);
                out.push_str(&format!(" {:>8} bit", format_bits(bits)));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a bit count the way the paper does (integers plain, fractions
/// with one decimal: "5.6 bit").
pub fn format_bits(bits: f64) -> String {
    if (bits - bits.round()).abs() < 0.05 {
        format!("{}", bits.round() as i64)
    } else {
        format!("{bits:.1}")
    }
}

impl fmt::Display for LeakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(
                f,
                "{:<12} {:<12} {} bits (count {})",
                row.spec.channel.to_string(),
                row.spec.observer.to_string(),
                format_bits(row.bits),
                row.count
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LeakReport {
        LeakReport::from_rows(vec![
            LeakRow {
                spec: ObserverSpec {
                    channel: Channel::Instruction,
                    observer: Observer::address(),
                },
                count: Natural::from(2u32),
                bits: 1.0,
            },
            LeakRow {
                spec: ObserverSpec {
                    channel: Channel::Data,
                    observer: Observer::address(),
                },
                count: Natural::from(50u32),
                bits: 50f64.log2(),
            },
        ])
    }

    #[test]
    fn lookup_by_spec() {
        let r = report();
        assert_eq!(r.icache_bits(Observer::address()), 1.0);
        assert!((r.dcache_bits(Observer::address()) - 5.64).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "no row")]
    fn missing_spec_panics() {
        report().bits(Channel::Shared, Observer::page());
    }

    #[test]
    fn bits_formatting_matches_paper_style() {
        assert_eq!(format_bits(0.0), "0");
        assert_eq!(format_bits(1.0), "1");
        assert_eq!(format_bits(1152.0), "1152");
        assert_eq!(format_bits(5.643), "5.6");
        assert_eq!(format_bits(2.3219), "2.3");
    }

    #[test]
    fn profiles_add_field_by_field_and_print_flat() {
        let mut total = AnalysisProfile::default();
        let one = AnalysisProfile {
            runs: 1,
            interpret_ns: 5,
            transfer_hits: 2,
            offloaded: 1,
            ..AnalysisProfile::default()
        };
        total.add(&one);
        total.add(&one);
        assert_eq!(total.fields().map(|(_, v)| v).sum::<u64>(), 18);
        assert_eq!(
            total.to_json(),
            "{\"runs\":2,\"interpret_ns\":10,\"replay_ns\":0,\"count_ns\":0,\
             \"transfer_hits\":4,\"transfer_misses\":0,\"offloaded\":2}"
        );
    }

    #[test]
    fn table_rendering() {
        let t = report().to_table(&[Observer::address()]);
        assert!(t.contains("I-Cache"));
        assert!(t.contains("D-Cache"));
        assert!(t.contains("5.6 bit"));
    }
}
