//! # leakaudit
//!
//! A static analyzer that derives upper bounds on the information an x86
//! binary leaks through its memory-access trace, as observable by a hierarchy
//! of microarchitectural side-channel adversaries (address-, cache-line-,
//! cache-bank-, and page-granular observers, with and without stuttering).
//!
//! This workspace is a from-scratch reproduction of Doychev & Köpf,
//! *"Rigorous Analysis of Software Countermeasures against Cache Attacks"*,
//! PLDI 2017. The meta-crate re-exports every sub-crate:
//!
//! - [`core`] — the paper's contribution: masked-symbol and memory-trace
//!   abstract domains, observers, and leakage counting.
//! - [`x86`] — x86-32 subset assembler, decoder, CFG reconstruction, and a
//!   concrete emulator used for empirical soundness validation.
//! - [`analyzer`] — the abstract interpreter that glues the domains to
//!   decoded binaries and produces leakage reports.
//! - [`scenarios`] — the eight analyzed countermeasure binaries from the
//!   paper's case study (libgcrypt 1.5.2/1.5.3/1.6.1/1.6.3, OpenSSL
//!   1.0.2f/1.0.2g).
//! - [`service`] — the sweep engine: parameterized scenario registries
//!   analyzed through a content-addressed result cache (repeated
//!   queries are lookups, not re-analyses).
//! - [`crypto`] — runnable modular-exponentiation countermeasures and
//!   ElGamal, used for the performance experiments (Fig. 16).
//! - [`mpi`] — multi-precision naturals (also used for exact observation
//!   counting).
//! - [`cache`] — a set-associative cache simulator, the concrete
//!   hit/miss oracle behind the block-trace observer.
//!
//! ## Quickstart
//!
//! Analyze the `align` pointer-alignment idiom from OpenSSL (paper Ex. 5/6):
//!
//! ```
//! use leakaudit::analyzer::{Analysis, AnalysisConfig};
//! use leakaudit::scenarios::scatter_gather;
//!
//! let scenario = scatter_gather::openssl_102f();
//! let report = Analysis::new(AnalysisConfig::default())
//!     .run(&scenario)
//!     .expect("analysis converges");
//! // Scatter/gather is secure at block granularity...
//! assert_eq!(report.dcache_bits(leakaudit::core::Observer::block(6)), 0.0);
//! ```
//!
//! Or run the paper's whole case study as one parallel batch (the
//! production path — results are bit-identical to sequential runs):
//!
//! ```
//! let scenarios = leakaudit::scenarios::all();
//! let batch = leakaudit::scenarios::analyze_all(&scenarios);
//! assert_eq!(batch.errors().count(), 0);
//! ```

pub use leakaudit_analyzer as analyzer;
pub use leakaudit_cache as cache;
pub use leakaudit_core as core;
pub use leakaudit_crypto as crypto;
pub use leakaudit_mpi as mpi;
pub use leakaudit_scenarios as scenarios;
pub use leakaudit_service as service;
pub use leakaudit_x86 as x86;
