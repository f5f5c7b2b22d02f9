//! The parallel batch pipeline must be a pure optimization: running all
//! eight case-study scenarios through `scenarios::analyze_all` (the
//! daemon's `Executor`, parallel across scenarios) must produce
//! `LeakReport` rows **bit-identical** to calling `Scenario::analyze`
//! sequentially — same specs, same exact big-number counts, same f64
//! bits, same row order.

use leakaudit::analyzer::{BatchReport, Executor};
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
    let run = |threads: usize| -> BatchReport {
        let jobs = scenarios.iter().map(Scenario::batch_job).collect();
        Executor::with_threads(threads).submit(jobs).wait()
    };
    let (parallel, sequential) = (run(2), run(1));
    assert_eq!(parallel.outcomes().len(), sequential.outcomes().len());
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

/// One job at a time, a two-worker executor always has an idle worker,
/// so every scenario whose event stream spans more than one chunk (3 of
/// the 8) replays on a helper thread; a one-worker executor never has
/// one. The rows must not differ, and the offload counters show that
/// both paths ran.
#[test]
fn offloaded_replay_matches_inline_replay_one_job_at_a_time() {
    let scenarios = scenarios::all();
    let run = |threads: usize| -> (Vec<BatchReport>, u64) {
        let executor = Executor::with_threads(threads);
        let reports = scenarios
            .iter()
            .map(|s| executor.submit(vec![s.batch_job()]).wait())
            .collect();
        (reports, executor.profile().offloaded)
    };
    let ((offloaded, helpers), (inline, none)) = (run(2), run(1));
    assert!(helpers > 0, "the two-worker executor offloaded replay");
    assert_eq!(none, 0, "a one-worker executor never offloads");
    for (p, q) in offloaded.iter().zip(&inline) {
        let (p, q) = (&p.outcomes()[0], &q.outcomes()[0]);
        assert_eq!(p.name, q.name);
        let (pr, qr) = (p.result.as_ref().unwrap(), q.result.as_ref().unwrap());
        assert_eq!(pr.rows().len(), qr.rows().len(), "{}", p.name);
        for (a, b) in pr.rows().iter().zip(qr.rows()) {
            assert_eq!(a.spec, b.spec, "{}", p.name);
            assert_eq!(a.count, b.count, "{}", p.name);
            assert_eq!(a.bits.to_bits(), b.bits.to_bits(), "{}", p.name);
        }
    }
}
