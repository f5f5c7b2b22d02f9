//! The acceptance suite for the sweep service: the default ≥24-cell
//! registry sweeps cold, then warm, and every warm cell must come out of
//! the result cache bit-identical to the cold run — counts, bounds, and
//! rendered table rows.

use leakaudit_analyzer::AnalysisProfile;
use leakaudit_core::Observer;
use leakaudit_scenarios::{FamilyParams, Opt, Registry, ScenarioSpec};
use leakaudit_service::{Provenance, SweepEngine};

/// Asserts two sweep cells carry bit-identical reports.
fn assert_cells_identical(
    cold: &leakaudit_service::SweepCell,
    warm: &leakaudit_service::SweepCell,
) {
    let id = cold.spec.id();
    assert_eq!(cold.key, warm.key, "{id}: key must be stable");
    let (a, b) = (
        cold.result.as_ref().expect("cold cell converged"),
        warm.result.as_ref().expect("warm cell converged"),
    );
    assert_eq!(a.rows().len(), b.rows().len(), "{id}");
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        assert_eq!(ra.spec, rb.spec, "{id}");
        assert_eq!(ra.count, rb.count, "{id}: counts must be bit-identical");
        assert_eq!(
            ra.bits.to_bits(),
            rb.bits.to_bits(),
            "{id}: bounds must be bit-identical"
        );
    }
    // Rendered table rows too (the user-visible artifact).
    let observers = [
        Observer::address(),
        Observer::block(cold.spec.block_bits),
        Observer::block(cold.spec.block_bits).stuttering(),
    ];
    assert_eq!(a.to_table(&observers), b.to_table(&observers), "{id}");
}

#[test]
fn warm_sweep_hits_the_cache_for_every_cell_bit_identically() {
    let registry = Registry::default_sweep();
    assert!(registry.len() >= 24);
    assert!(registry.families().len() >= 5);

    let engine = SweepEngine::new();
    let cold = engine.run(&registry);
    assert_eq!(
        cold.computed() + cold.shared_pass(),
        registry.len(),
        "a fresh engine analyzes every cell — solo or via a shared pass"
    );
    assert!(
        cold.shared_pass() > 0,
        "the default sweep has granularity variants that must group"
    );
    for cell in cold.cells() {
        assert!(
            cell.result.is_ok(),
            "{}: {:?}",
            cell.spec.id(),
            cell.result.as_ref().err()
        );
    }

    let warm = engine.run(&registry);
    assert_eq!(warm.computed(), 0, "the warm sweep analyzes nothing");
    for (cold_cell, warm_cell) in cold.cells().iter().zip(warm.cells()) {
        assert_eq!(
            warm_cell.provenance,
            Provenance::MemoryHit,
            "{}",
            warm_cell.spec.id()
        );
        // In-memory hits serve the cold run's rows without its pass.
        assert_eq!(
            warm_cell.result.as_ref().unwrap().profile(),
            AnalysisProfile::default(),
            "{}",
            warm_cell.spec.id()
        );
        assert_cells_identical(cold_cell, warm_cell);
    }
    let stats = engine.memory_stats();
    assert!(stats.hits >= registry.len() as u64);
}

#[test]
fn disk_cache_survives_the_process_boundary_bit_identically() {
    // A small but cross-family matrix keeps this suite quick; the full
    // matrix is covered by the in-memory test above.
    let registry = Registry::from_specs(vec![
        ScenarioSpec::new(
            FamilyParams::SquareMultiply {
                stub_stride: 0x40,
                secret_bits: 1,
            },
            6,
        ),
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O0 }, 5),
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
                entries: 3,
                words: 24,
                pad_words: 0,
            },
            6,
        ),
    ]);
    let dir = std::env::temp_dir().join(format!(
        "leakaudit-sweep-disk-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));

    // First engine: cold, populates the disk store.
    let first = SweepEngine::new()
        .with_disk_cache(&dir)
        .expect("temp dir creatable");
    let cold = first.run(&registry);
    assert_eq!(cold.computed(), registry.len());

    // Second engine (fresh memory — "a new process"): everything from
    // disk, bit-identical after the JSON round trip.
    let second = SweepEngine::new()
        .with_disk_cache(&dir)
        .expect("temp dir exists");
    let warm = second.run(&registry);
    assert_eq!(warm.computed(), 0);
    for (cold_cell, warm_cell) in cold.cells().iter().zip(warm.cells()) {
        assert_eq!(
            warm_cell.provenance,
            Provenance::DiskHit,
            "{}",
            warm_cell.spec.id()
        );
        assert_cells_identical(cold_cell, warm_cell);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn work_stealing_executor_matches_the_sequential_path_bit_identically() {
    // A cross-family registry with the dominant defensive-gather cell
    // included, so the heaviest-first queue actually reorders work.
    let registry = Registry::from_specs(vec![
        ScenarioSpec::new(
            FamilyParams::DefensiveGather {
                spacing: 4,
                value_bytes: 64,
            },
            6,
        ),
        ScenarioSpec::new(
            FamilyParams::SquareMultiply {
                stub_stride: 0x40,
                secret_bits: 1,
            },
            6,
        ),
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
        ScenarioSpec::new(
            FamilyParams::ScatterGather {
                spacing: 4,
                value_bytes: 64,
                aligned: true,
            },
            6,
        ),
    ]);
    // The PR-3-equivalent sequential path: one worker, submission order.
    let sequential = SweepEngine::new().with_threads(1).run(&registry);
    // The pooled executor with cost-ordered stealable work items.
    let pooled = SweepEngine::new().with_threads(4).run(&registry);
    assert_eq!(sequential.computed(), registry.len());
    assert_eq!(pooled.computed(), registry.len());
    for (s, p) in sequential.cells().iter().zip(pooled.cells()) {
        assert_cells_identical(s, p);
    }
}

#[test]
fn submitted_tickets_report_progress_and_collect_once() {
    let engine = SweepEngine::new();
    // Raw spec lists (unlike registries) may repeat cells; the repeat
    // is deduplicated at submission.
    let specs = vec![
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
        ScenarioSpec::new(
            FamilyParams::SquareMultiply {
                stub_stride: 0x40,
                secret_bits: 1,
            },
            6,
        ),
    ];
    let ticket = engine.submit(&specs);
    assert_eq!(ticket.cells(), 3);
    let progress = ticket.progress();
    assert_eq!(progress.total, 3);
    // The duplicated cell is deduplicated at submission: at most two
    // analyses are ever pending.
    assert!(progress.done >= 1, "shared cells count as done up front");
    let report = engine.collect(ticket);
    assert_eq!(report.computed(), 2);
    assert_eq!(report.cells()[1].provenance, Provenance::Shared { of: 0 });
    // A warm resubmission is already complete at submission time.
    let warm = engine.submit(&specs);
    assert!(warm.progress().is_complete());
    assert_eq!(engine.collect(warm).computed(), 0);
}

#[test]
fn recomputation_after_eviction_stays_bit_identical() {
    let registry = Registry::from_specs(vec![
        ScenarioSpec::new(
            FamilyParams::SquareMultiply {
                stub_stride: 0x40,
                secret_bits: 1,
            },
            6,
        ),
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
        ScenarioSpec::new(
            FamilyParams::LookupUnprotected {
                opt: Opt::O2,
                entries: 7,
                stride: 4,
            },
            6,
        ),
        ScenarioSpec::new(
            FamilyParams::LookupSecure {
                entries: 3,
                words: 24,
                pad_words: 0,
            },
            6,
        ),
    ]);
    // A cache too small to hold even one report: every warm cell is
    // recomputed — the worst case for consistency.
    let starved = SweepEngine::new().with_eviction(64);
    let cold = starved.run(&registry);
    let warm = starved.run(&registry);
    assert!(
        starved.memory_stats().evictions > 0,
        "the starved cache must have evicted"
    );
    assert_eq!(
        warm.computed(),
        registry.len(),
        "evicted cells are recomputed, not wrongly served"
    );
    for (c, w) in cold.cells().iter().zip(warm.cells()) {
        assert_cells_identical(c, w);
    }
    // Cross-check against an unbounded engine: eviction and
    // recomputation never change a single bit of any report.
    let unbounded = SweepEngine::new();
    for (c, u) in cold.cells().iter().zip(unbounded.run(&registry).cells()) {
        assert_cells_identical(c, u);
    }
    // A roomy evicting cache behaves like the unbounded one.
    let roomy = SweepEngine::new().with_eviction(1 << 20);
    roomy.run(&registry);
    let roomy_warm = roomy.run(&registry);
    assert_eq!(roomy_warm.computed(), 0, "no spurious eviction under room");
    assert_eq!(roomy.memory_stats().evictions, 0);
}

#[test]
fn single_cell_queries_reuse_sweep_results() {
    let engine = SweepEngine::new();
    let registry = Registry::from_specs(vec![
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 6),
        ScenarioSpec::new(FamilyParams::SquareAlways { opt: Opt::O2 }, 7),
    ]);
    engine.run(&registry);
    // Re-querying one cell of the matrix is a lookup, not a re-analysis.
    let cell = engine.query(&registry.specs()[0]);
    assert_eq!(cell.provenance, Provenance::MemoryHit);
    assert_eq!(engine.cached_reports(), 2);
}
