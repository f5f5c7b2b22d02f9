//! The `leakaudit` sweep service: parameterized scenario sweeps with a
//! content-addressed result cache.
//!
//! The ROADMAP's north star is a system that "serves heavy traffic" of
//! analysis requests — and analysis requests repeat: the same binaries
//! under the same configurations, queried again and again. Because the
//! analyzer is deterministic (given program bytes, initial abstract
//! state, and configuration), a repeated request need not re-run the
//! abstract interpretation at all. This crate is that architecture step:
//!
//! * [`CacheKey`] — the content identity of one analysis request:
//!   program bytes × initial state × analyzer config, hashed with a
//!   stable (cross-process, cross-platform) 128-bit encoding;
//! * [`MemoryCache`] / [`DiskCache`] — one-lock `Arc`-shared
//!   in-memory entries with an optional byte budget (least recently
//!   used evicted first), plus a fan-out directory of JSON entries
//!   surviving the process;
//! * [`SweepEngine`] — plans a [`Registry`] sweep under a per-request
//!   [`AuditProfile`] (observer-granularity overrides and fuel/deadline
//!   budgets, folded into every cell's key), deduplicates
//!   cells by key, answers what it can from the caches, partitions the
//!   rest into interpretation groups ([`GroupKey`] — cells differing
//!   only in observer granularity share one scheduler pass, surfaced
//!   as [`Provenance::SharedPass`]) and schedules one job per group on
//!   a persistent work-stealing worker pool, with per-sweep
//!   progress/cancellation ([`SweepTicket`]), per-cell [`Provenance`],
//!   and streaming collection ([`SweepEngine::collect_stream`]);
//! * [`Daemon`] — the JSON-lines request handler behind the
//!   `leakaudit-serve` binary (`submit_sweep` with config overrides /
//!   `poll` / `result` / `stream` / `ack` / `cancel` / `stats` over
//!   stdio or TCP), serving many clients from one warm cache with
//!   client-visible job expiry.
//!
//! # Example
//!
//! ```
//! use leakaudit_scenarios::{FamilyParams, Opt, Registry, ScenarioSpec};
//! use leakaudit_service::{Provenance, SweepEngine};
//!
//! let registry = Registry::from_specs(vec![
//!     ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
//!     ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 5),
//! ]);
//! let engine = SweepEngine::new();
//! let cold = engine.run(&registry);
//! // The two cells differ only in observer granularity (cache-line
//! // bits), so they form one interpretation group: a single abstract
//! // interpretation serves both, the second cell riding along as
//! // extra sinks ([`Provenance::SharedPass`]).
//! assert_eq!(cold.computed(), 1);
//! assert_eq!(cold.shared_pass(), 1);
//! // The second sweep is pure cache lookups, bit-identical results.
//! let warm = engine.run(&registry);
//! assert_eq!(warm.computed(), 0);
//! assert!(warm
//!     .cells()
//!     .iter()
//!     .all(|c| c.provenance == Provenance::MemoryHit));
//! ```
//!
//! [`Registry`]: leakaudit_scenarios::Registry

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod key;
pub mod proto;
pub mod sweep;

pub use cache::{CacheStats, DiskCache, MemoryCache};
pub use daemon::Daemon;
pub use key::{BaseKey, CacheKey, GroupKey};
pub use proto::Json;
pub use sweep::{
    AuditProfile, Provenance, SweepCell, SweepEngine, SweepProbe, SweepProgress, SweepReport,
    SweepTicket,
};
