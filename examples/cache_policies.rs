//! The cache simulator as a concrete oracle for the block observer.
//!
//! For every paper scenario and each heap layout, three numbers:
//!
//! 1. the static D-cache `block64` count (the analyzer's bound);
//! 2. the distinct concrete `block64` views over the layout's cases;
//! 3. per replacement policy (LRU, FIFO, tree-PLRU), the distinct
//!    hit/miss sequences of a 32 KiB L1 D-cache started empty for each
//!    case — what an adversary watching the victim's own hits and
//!    misses sees.
//!
//! A hit/miss sequence is a function of the line sequence (the
//! simulator's line-invariance unit test), and the line sequence is the
//! `block64` view, so the example asserts the chain
//! patterns ≤ views ≤ static count on every row.
//!
//! ```sh
//! cargo run --release --example cache_policies
//! ```

use std::collections::{BTreeMap, BTreeSet};

use leakaudit::analyzer::{Analysis, AnalysisConfig, Channel, ObserverSpec};
use leakaudit::cache::{Cache, CacheConfig, Policy};
use leakaudit::core::Observer;

fn main() {
    let block64 = Observer::block(6);
    let dcache_block64 = ObserverSpec {
        channel: Channel::Data,
        observer: block64,
    };
    let l1 = CacheConfig::l1_default();
    assert_eq!(u64::from(l1.line_bytes), block64.unit_bytes());

    print!(
        "{:<36} {:>6} {:>8} {:>6}",
        "scenario", "layout", "static", "views"
    );
    for policy in Policy::ALL {
        print!(" {:>6}", policy.to_string());
    }
    println!();
    for scenario in leakaudit::scenarios::all() {
        let report = Analysis::new(AnalysisConfig::with_block_bits(6))
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let row = report
            .rows()
            .iter()
            .find(|r| r.spec == dcache_block64)
            .expect("the suite has a D-cache block64 row");

        let mut by_layout: BTreeMap<usize, Vec<Vec<u64>>> = BTreeMap::new();
        for case in &scenario.cases {
            let trace = scenario
                .emulate(case)
                .unwrap_or_else(|e| panic!("{}: {}: {e}", scenario.name, case.label));
            by_layout
                .entry(case.layout)
                .or_default()
                .push(trace.data_addresses());
        }
        for (layout, traces) in &by_layout {
            let views: BTreeSet<Vec<u64>> =
                traces.iter().map(|t| block64.view_concrete(t)).collect();
            if let Some(count) = row.count.to_u64() {
                assert!(
                    views.len() as u64 <= count,
                    "{} layout {layout}: block64 views exceed the static count",
                    scenario.name
                );
            }
            print!(
                "{:<36} {layout:>6} {:>8} {:>6}",
                scenario.name,
                row.count,
                views.len()
            );
            for policy in Policy::ALL {
                let patterns: BTreeSet<Vec<bool>> = traces
                    .iter()
                    .map(|t| {
                        let mut cache = Cache::new(CacheConfig { policy, ..l1 });
                        t.iter().map(|&addr| cache.access(addr)).collect()
                    })
                    .collect();
                assert!(
                    patterns.len() <= views.len(),
                    "{} layout {layout} {policy}: hit/miss patterns exceed views",
                    scenario.name
                );
                print!(" {:>6}", patterns.len());
            }
            println!();
        }
    }
    println!(
        "\nhit/miss patterns <= block64 views <= static count on every row:\n\
         the hit/miss adversary learns no more than the block observer bounds."
    );
}
