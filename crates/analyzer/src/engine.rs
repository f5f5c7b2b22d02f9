//! The fixpoint engine: one abstract-interpretation pass feeding one
//! trace sink for the whole observer suite.
//!
//! This module is a thin orchestrator over two layers that used to be
//! welded together in a single monolithic loop:
//!
//! * [`crate::scheduler`] owns *control* — the lowest-pc worklist,
//!   forking on undecided branch flags, §6.4 state joins at merge
//!   points, and the fuel/configuration resource limits. It publishes
//!   every trace-relevant action as a [`crate::sink::TraceEvent`].
//! * [`crate::sink`] owns *observation* — one [`crate::sink::DagSink`]
//!   replays the event stream against one trace DAG per observer spec,
//!   projecting each access once per granularity, and produces the
//!   Theorem 1 leakage bound for each observer, in suite order.
//!
//! The pipeline buffers the event stream and replays it through the
//! sink a chunk at a time: the full observer suite (18 specs by
//! default) costs one abstract pass plus chunked bookkeeping, rather
//! than 18 cursor updates interleaved into every scheduler step.
//! Because the stream flows one way, the chunks can also replay on a
//! helper thread while the scheduler keeps interpreting; the executor
//! asks for that only when a worker's core would otherwise sit idle,
//! and the public entry points replay inline.

use leakaudit_x86::Program;

use crate::report::{AnalysisProfile, LeakReport, ObserverSpec};
use crate::sink::DagSink;
use crate::state::InitState;
use crate::{scheduler, sink, AnalysisConfig, AnalysisError};

/// Runs one abstract interpretation of `program` from its entry to `hlt`
/// for an interpretation group (a lone analysis is the group with no
/// members): `lead` drives the scheduler (its interpretation fields are
/// shared by every `member` — the service groups cells by exactly those
/// fields), and the one attached sink serves the first-occurrence union
/// of the lead's observer suite and every member's.
///
/// Because the lead's suite comes first and each member suite is itself
/// deduplicated in a deterministic order, every group config's solo
/// suite is an in-order subset of the union rows — projecting a
/// member's report out of the union is pure row selection. Because the
/// sink projects per granularity, each access projects once per
/// granularity per *pass*, however many member suites requested it.
///
/// `offload` lets the pipeline replay on a helper thread while this one
/// interprets (see [`sink::run_pipeline`]); the executor sets it only
/// when another worker has no job, and the rows are the same either way.
pub(crate) fn run_union(
    lead: &AnalysisConfig,
    members: &[AnalysisConfig],
    program: &Program,
    init: &InitState,
    offload: bool,
) -> Result<LeakReport, AnalysisError> {
    let mut union: Vec<ObserverSpec> = lead.observer_suite();
    for member in members {
        for spec in member.observer_suite() {
            if !union.contains(&spec) {
                union.push(spec);
            }
        }
    }
    let mut steps = AnalysisProfile::default();
    let (rows, mut profile) = sink::run_pipeline(DagSink::new(&union), offload, |bus| {
        scheduler::drive(lead, program, init, bus, &mut steps)
    })?;
    profile.add(&steps);
    Ok(LeakReport::new(rows, profile))
}

#[cfg(test)]
mod tests {
    use crate::report::LeakReport;
    use crate::state::InitState;
    use crate::{Analysis, AnalysisConfig, AnalysisError, AnalysisInput};
    use leakaudit_core::{Observer, ValueSet};
    use leakaudit_x86::{Asm, Mem, Reg};

    fn analyze(setup: impl FnOnce(&mut Asm), init: InitState) -> LeakReport {
        let mut a = Asm::new(0x41a90);
        setup(&mut a);
        let program = a.assemble().unwrap();
        Analysis::new(AnalysisConfig::default())
            .run(&AnalysisInput { program, init })
            .unwrap()
    }

    #[test]
    fn straight_line_code_leaks_nothing() {
        let report = analyze(
            |a| {
                a.mov(Reg::Eax, 5u32);
                a.add(Reg::Eax, 3u32);
                a.hlt();
            },
            InitState::new(),
        );
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
        assert_eq!(report.dcache_bits(Observer::address()), 0.0);
    }

    #[test]
    fn example_9_full_pipeline() {
        // The complete Ex. 9 snippet, at its published addresses, with a
        // secret-dependent flag from a stack slot of {0, 1}.
        let mut init = InitState::new();
        init.write_mem(
            leakaudit_core::MaskedSymbol::constant(0x00f0_0080, 32),
            ValueSet::from_constants([0, 1], 32),
        );
        let report = analyze(
            |a| {
                a.mov(Reg::Eax, Mem::base_disp(Reg::Esp, 0x80));
                a.test(Reg::Eax, Reg::Eax);
                a.jne("merge");
                a.mov(Reg::Eax, Reg::Ebp);
                a.mov(Reg::Ebp, Reg::Edi);
                a.mov(Reg::Edi, Reg::Eax);
                a.label("merge");
                a.sub(Reg::Edx, 1u32);
                a.hlt();
            },
            init,
        );
        // Paper Fig. 4: 2 traces for address/block observers (1 bit), 1
        // for the stuttering block observer (0 bits).
        assert_eq!(report.icache_bits(Observer::address()), 1.0);
        assert_eq!(report.icache_bits(Observer::block(6)), 1.0);
        assert_eq!(report.icache_bits(Observer::block(6).stuttering()), 0.0);
        // The D-cache sees only the initial stack load on both paths.
        assert_eq!(report.dcache_bits(Observer::address()), 0.0);
    }

    #[test]
    fn counted_loop_unrolls_to_zero_leak() {
        let report = analyze(
            |a| {
                a.mov(Reg::Ecx, 5u32);
                a.label("loop");
                a.dec(Reg::Ecx);
                a.jne("loop");
                a.hlt();
            },
            InitState::new(),
        );
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
    }

    #[test]
    fn pointer_loop_terminates_via_offsets() {
        // for (x = r; x != y; x += 4) *x = 0  with y = r + 16 (Ex. 7/8).
        let mut init = InitState::new();
        let r = init.fresh_heap_pointer("r");
        init.set_reg(Reg::Eax, ValueSet::singleton(r));
        init.set_reg(Reg::Ebx, ValueSet::singleton(r));
        let report = analyze(
            |a| {
                a.add(Reg::Ebx, 16u32); // y = r + 16
                a.label("loop");
                a.mov(Mem::reg(Reg::Eax), 0u32);
                a.add(Reg::Eax, 4u32);
                a.cmp(Reg::Eax, Reg::Ebx);
                a.jne("loop");
                a.hlt();
            },
            init,
        );
        // Four deterministic iterations: no leakage anywhere.
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
        assert_eq!(report.dcache_bits(Observer::address()), 0.0);
    }

    #[test]
    fn secret_indexed_load_leaks_at_address_not_block() {
        // One load from table[k*8], k in {0..7}, table 64-byte aligned:
        // 8 addresses -> 3 bits; a single cache line -> 0 bits.
        let mut init = InitState::new();
        init.set_reg(Reg::Ecx, ValueSet::from_constants(0..8, 32));
        let report = analyze(
            |a| {
                a.mov(Reg::Eax, Mem::sib(Reg::Ebx, Reg::Ecx, 8, 0));
                a.hlt();
            },
            {
                init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
                init
            },
        );
        assert_eq!(report.dcache_bits(Observer::address()), 3.0);
        assert_eq!(report.dcache_bits(Observer::block(6)), 0.0);
        assert_eq!(report.dcache_bits(Observer::bank()), 3.0, "8 banks hit");
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut a = Asm::new(0x1000);
        a.label("spin");
        a.jmp("spin");
        let program = a.assemble().unwrap();
        let err = Analysis::new(AnalysisConfig {
            fuel: 100,
            ..AnalysisConfig::default()
        })
        .run(&AnalysisInput {
            program,
            init: InitState::new(),
        })
        .unwrap_err();
        assert!(matches!(err, AnalysisError::OutOfFuel { .. }));
    }

    #[test]
    fn budget_fuel_trips_before_config_fuel() {
        use crate::{Budget, BudgetLimit};
        let mut a = Asm::new(0x1000);
        a.label("spin");
        a.jmp("spin");
        let program = a.assemble().unwrap();
        let input = AnalysisInput {
            program,
            init: InitState::new(),
        };
        // The config's own guard is far away; the caller's budget trips
        // first and is reported as the caller's problem.
        let err = Analysis::new(AnalysisConfig {
            fuel: 1_000_000,
            budget: Budget::with_fuel(50),
            ..AnalysisConfig::default()
        })
        .run(&input)
        .unwrap_err();
        match err {
            AnalysisError::BudgetExhausted { limit, steps } => {
                assert_eq!(limit, BudgetLimit::Fuel);
                assert_eq!(steps, 50);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // With the budget above the config guard, OutOfFuel wins.
        let err = Analysis::new(AnalysisConfig {
            fuel: 100,
            budget: Budget::with_fuel(1_000_000),
            ..AnalysisConfig::default()
        })
        .run(&input)
        .unwrap_err();
        assert!(matches!(err, AnalysisError::OutOfFuel { fuel: 100 }));
    }

    #[test]
    fn a_fuel_budget_that_trips_after_the_helper_started_reports_the_same_steps() {
        use crate::sink::{EventBus, TraceEvent, CHUNK};
        use crate::{Budget, BudgetLimit};
        let mut a = Asm::new(0x1000);
        a.label("spin");
        a.mov(Reg::Eax, Mem::abs(0x8000));
        a.jmp("spin");
        let program = a.assemble().unwrap();
        let config = AnalysisConfig {
            budget: Budget::with_fuel(2_000),
            ..AnalysisConfig::default()
        };
        struct Count(usize);
        impl EventBus for Count {
            fn emit(&mut self, _: TraceEvent) {
                self.0 += 1;
            }
        }
        let mut events = Count(0);
        let input = AnalysisInput {
            program: program.clone(),
            init: InitState::new(),
        };
        let _ = Analysis::new(config.clone()).interpret(&input, &mut events);
        assert!(events.0 > 2 * CHUNK, "the helper starts before the trip");
        let steps =
            |offload| match super::run_union(&config, &[], &program, &InitState::new(), offload) {
                Err(AnalysisError::BudgetExhausted {
                    limit: BudgetLimit::Fuel,
                    steps,
                }) => steps,
                other => panic!("expected a fuel trip, got {other:?}"),
            };
        assert_eq!(steps(true), steps(false));
        assert_eq!(steps(false), 2_000);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        use crate::{Budget, BudgetLimit};
        let mut a = Asm::new(0x1000);
        a.label("spin");
        a.jmp("spin");
        let program = a.assemble().unwrap();
        let err = Analysis::new(AnalysisConfig {
            budget: Budget::with_deadline_ms(0),
            ..AnalysisConfig::default()
        })
        .run(&AnalysisInput {
            program,
            init: InitState::new(),
        })
        .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::BudgetExhausted {
                limit: BudgetLimit::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn a_sufficient_budget_changes_nothing() {
        use crate::Budget;
        let mut init = InitState::new();
        init.set_reg(Reg::Ecx, ValueSet::from_constants(0..8, 32));
        init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        let mut a = Asm::new(0x41a90);
        a.mov(Reg::Eax, Mem::sib(Reg::Ebx, Reg::Ecx, 8, 0));
        a.hlt();
        let input = AnalysisInput {
            program: a.assemble().unwrap(),
            init,
        };
        let plain = Analysis::new(AnalysisConfig::default())
            .run(&input)
            .unwrap();
        let budgeted = Analysis::new(AnalysisConfig {
            budget: Budget {
                fuel: Some(10_000),
                deadline_ms: Some(60_000),
            },
            ..AnalysisConfig::default()
        })
        .run(&input)
        .unwrap();
        for (a, b) in plain.rows().iter().zip(budgeted.rows()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.count, b.count);
            assert_eq!(a.bits.to_bits(), b.bits.to_bits());
        }
    }

    #[test]
    fn shared_channel_bounds_cover_both() {
        let mut init = InitState::new();
        init.set_reg(Reg::Ecx, ValueSet::from_constants(0..4, 32));
        init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        let report = analyze(
            |a| {
                a.mov(Reg::Eax, Mem::sib(Reg::Ebx, Reg::Ecx, 4, 0));
                a.hlt();
            },
            init,
        );
        assert_eq!(report.shared_bits(Observer::address()), 2.0);
    }
}
