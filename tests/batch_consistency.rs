//! The parallel batch pipeline must be a pure optimization: running all
//! eight case-study scenarios through `BatchAnalysis` (parallel across
//! scenarios) must produce `LeakReport` rows **bit-identical** to calling
//! `Scenario::analyze` sequentially — same specs, same exact big-number
//! counts, same f64 bits, same row order.

use leakaudit::analyzer::{BatchAnalysis, BatchJob};
use leakaudit::scenarios::{self, Scenario};

#[test]
fn batch_over_all_scenarios_is_bit_identical_to_sequential() {
    let scenarios = scenarios::all();
    let batch = scenarios::analyze_all(&scenarios);

    assert_eq!(batch.outcomes().len(), scenarios.len());
    assert_eq!(batch.errors().count(), 0, "no scenario may fail");

    for (s, outcome) in scenarios.iter().zip(batch.outcomes()) {
        assert_eq!(outcome.name, s.name, "outcomes keep submission order");
        let parallel = outcome.result.as_ref().unwrap();
        let sequential = s.analyze().unwrap_or_else(|e| panic!("{}: {e}", s.name));

        assert_eq!(parallel.rows().len(), sequential.rows().len(), "{}", s.name);
        for (p, q) in parallel.rows().iter().zip(sequential.rows()) {
            assert_eq!(p.spec, q.spec, "{}: row order differs", s.name);
            assert_eq!(
                p.count, q.count,
                "{}: {:?}/{} count differs",
                s.name, p.spec.channel, p.spec.observer
            );
            assert!(
                p.bits == q.bits,
                "{}: {:?}/{} bits differ: batch {} vs sequential {}",
                s.name,
                p.spec.channel,
                p.spec.observer,
                p.bits,
                q.bits
            );
        }
    }
}

#[test]
fn single_worker_batch_matches_parallel_batch() {
    let scenarios: Vec<Scenario> = scenarios::all().into_iter().take(3).collect();
    fn jobs(list: &[Scenario]) -> Vec<BatchJob<'_>> {
        list.iter().map(Scenario::batch_job).collect()
    }
    let parallel = BatchAnalysis::new().run(jobs(&scenarios));
    let sequential = BatchAnalysis::new().with_threads(1).run(jobs(&scenarios));
    for (p, q) in parallel.outcomes().iter().zip(sequential.outcomes()) {
        assert_eq!(p.name, q.name);
        let (pr, qr) = (p.result.as_ref().unwrap(), q.result.as_ref().unwrap());
        for (a, b) in pr.rows().iter().zip(qr.rows()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.count, b.count);
            assert!(a.bits == b.bits);
        }
    }
}
