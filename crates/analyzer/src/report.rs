//! Leakage reports: per-observer, per-channel bounds in the format of the
//! paper's result tables (Figs. 7, 8, 14).

use std::fmt;
use std::time::Duration;

use leakaudit_core::Observer;
use leakaudit_mpi::Natural;

/// Where one analysis run spent its time, split by pipeline phase.
///
/// Instrumentation only: timings are **not** part of result identity —
/// they never enter cache keys or serialized rows, are zeroed when a
/// report is decoded from cache, and two bit-identical reports may carry
/// different timings. The three phases are a disjoint partition of the
/// sink pipeline's wall clock: sinks replay events on the thread that
/// interprets, so `total()` is the pipeline's elapsed time (report
/// assembly sits outside all three).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Abstract interpretation: the scheduler's fixpoint loop (decode,
    /// transfer functions, merge planning, event emission).
    pub interpret: Duration,
    /// Trace replay: sinks consuming events (cursor updates, DAG
    /// maintenance, projections).
    pub replay: Duration,
    /// Final counting: Proposition 2 big-number arithmetic and row
    /// conversion.
    pub count: Duration,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.interpret + self.replay + self.count
    }

    /// Accumulates another run's timings into this one.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.interpret += other.interpret;
        self.replay += other.replay;
        self.count += other.count;
    }
}

/// Interpreter-memo counters for one analysis run.
///
/// Instrumentation only, like [`PhaseTimings`]: never part of result
/// identity, zeroed for cache-decoded reports. Every abstract step is
/// exactly one hit or one miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Per-pc transfer memo hits (recorded effect replayed).
    pub transfer_hits: u64,
    /// Transfer memo misses and bypasses (naive transfer executed).
    pub transfer_misses: u64,
    /// Always 0: the per-pc transfer memo is the interpreter's only
    /// memo layer. Kept because the benchmark client names it.
    pub script_steps: u64,
    /// Always 0: every trace event replays through the per-event DAG
    /// update. Kept because the benchmark client names it.
    pub sink_script_events: u64,
}

impl MemoStats {
    /// Accumulates another run's counters into this one.
    pub fn accumulate(&mut self, other: &MemoStats) {
        self.transfer_hits += other.transfer_hits;
        self.transfer_misses += other.transfer_misses;
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
    timings: PhaseTimings,
    memo: MemoStats,
}

impl LeakReport {
    pub(crate) fn new(rows: Vec<LeakRow>) -> Self {
        LeakReport {
            rows,
            timings: PhaseTimings::default(),
            memo: MemoStats::default(),
        }
    }

    /// Attaches phase timings (builder style, used by the analysis
    /// entry points). Timings are informational only — see
    /// [`PhaseTimings`] for the identity rules.
    pub(crate) fn with_timings(mut self, timings: PhaseTimings) -> Self {
        self.timings = timings;
        self
    }

    /// Attaches interpreter-memo counters (informational only, same
    /// identity rules as timings).
    pub(crate) fn with_memo(mut self, memo: MemoStats) -> Self {
        self.memo = memo;
        self
    }

    /// Reassembles a report from rows — the deserialization path of the
    /// sweep service's on-disk result cache. Callers are expected to
    /// provide rows that came out of [`LeakReport::rows`] (same specs,
    /// same order); nothing is recomputed or checked. Timings are zero:
    /// a cache hit did not run the pipeline.
    pub fn from_rows(rows: Vec<LeakRow>) -> Self {
        LeakReport::new(rows)
    }

    /// All rows.
    pub fn rows(&self) -> &[LeakRow] {
        &self.rows
    }

    /// Where this run spent its time (zero for cache-decoded reports).
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Interpreter-memo counters (zero for cache-decoded reports).
    pub fn memo_stats(&self) -> MemoStats {
        self.memo
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
        LeakReport::new(vec![
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
    fn table_rendering() {
        let t = report().to_table(&[Observer::address()]);
        assert!(t.contains("I-Cache"));
        assert!(t.contains("D-Cache"));
        assert!(t.contains("5.6 bit"));
    }
}
