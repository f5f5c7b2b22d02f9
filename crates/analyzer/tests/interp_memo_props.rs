//! Property tests pinning the memoized interpreter bit-identical to the
//! naive, memo-free abstract interpreter.
//!
//! The scheduler layers one cache over abstract interpretation (see
//! `leakaudit_analyzer::memo`): the per-pc transfer memo, which replays
//! a recorded `StepEffect` when an instruction's read footprint carries
//! the same input identities as a previous visit. It may not change a
//! single bit of the observable behavior: the trace-event
//! stream (every fetch, data access, fork, merge, and retirement, in
//! order), the final report rows, and — crucially — the *step index* at
//! which a fuel or budget limit trips. The reference implementation is
//! the same scheduler with [`AnalysisConfig::interp_memo`] off, which
//! executes every abstract transfer naively.
//!
//! Programs are generated randomly from structured pieces — counted
//! loops (whose repeated bodies are the memo's hot path once their
//! inputs stabilize), fork/join diamonds on
//! undecidable flags (whose sibling configurations revisit the same pcs
//! with near-identical states), SIB loads off a data table,
//! stores/pushes/pops (which churn the memory stamp), subroutine
//! call/ret, and far code sections — over registers seeded with
//! constants, small secret sets, and `Top`s (the bypass path).

use leakaudit_analyzer::sink::{EventBus, TraceEvent};
use leakaudit_analyzer::{
    Analysis, AnalysisConfig, AnalysisInput, AnalysisProfile, Budget, InitState,
};
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Cond, Mem, Reg, Reg8};
use proptest::prelude::*;

/// Collects the raw event stream for byte-for-byte comparison.
#[derive(Default)]
struct Collector(Vec<TraceEvent>);

impl EventBus for Collector {
    fn emit(&mut self, event: TraceEvent) {
        self.0.push(event);
    }
}

/// Scratch registers generated code may use. `Esp` is reserved for the
/// stack, `Ebp` for the data-table base, and `Ecx` for loop counters.
const SCRATCH: [Reg; 5] = [Reg::Eax, Reg::Ebx, Reg::Edx, Reg::Esi, Reg::Edi];

fn scratch(i: u8) -> Reg {
    SCRATCH[i as usize % SCRATCH.len()]
}

/// Byte registers generated code may use. `Cl` is excluded so loop
/// bodies can never clobber the `Ecx` counter through its low byte.
const SCRATCH8: [Reg8; 3] = [Reg8::Al, Reg8::Bl, Reg8::Dl];

fn scratch8(i: u8) -> Reg8 {
    SCRATCH8[i as usize % SCRATCH8.len()]
}

fn cond(i: u8) -> Cond {
    Cond::from_code(i % 16)
}

/// One straight-line instruction template. Register/immediate indices
/// are reduced at emission time, so every generated value is valid.
#[derive(Debug, Clone)]
enum Op {
    MovImm {
        dst: u8,
        imm: u32,
    },
    MovReg {
        dst: u8,
        src: u8,
    },
    Alu {
        kind: u8,
        dst: u8,
        src: u8,
    },
    AluImm {
        kind: u8,
        dst: u8,
        imm: u32,
    },
    Load {
        dst: u8,
        idx: u8,
        scale_log: u8,
        disp: u8,
    },
    Store {
        src: u8,
        disp: u8,
    },
    LoadB {
        dst: u8,
        disp: u8,
    },
    StoreB {
        src: u8,
        disp: u8,
    },
    Lea {
        dst: u8,
        idx: u8,
        scale_log: u8,
        disp: u8,
    },
    Movzx {
        dst: u8,
        src: u8,
    },
    Imul {
        dst: u8,
        src: u8,
        imm: i32,
    },
    Shift {
        left: bool,
        dst: u8,
        amount: u8,
    },
    Unary {
        neg: bool,
        dst: u8,
    },
    IncDec {
        inc: bool,
        dst: u8,
    },
    Test {
        a: u8,
        b: u8,
    },
    PushPop {
        r: u8,
    },
    Setcc {
        cond: u8,
        dst: u8,
    },
    Cmovcc {
        cond: u8,
        dst: u8,
        src: u8,
    },
    Nop,
}

fn emit_op(a: &mut Asm, op: &Op) {
    let table = |idx: u8, scale_log: u8, disp: u8| {
        Mem::sib(
            Reg::Ebp,
            scratch(idx),
            1 << (scale_log % 4),
            i32::from(disp % 128),
        )
    };
    match op {
        Op::MovImm { dst, imm } => {
            a.mov(scratch(*dst), *imm);
        }
        Op::MovReg { dst, src } => {
            a.mov(scratch(*dst), scratch(*src));
        }
        Op::Alu { kind, dst, src } => {
            let (d, s) = (scratch(*dst), scratch(*src));
            match kind % 6 {
                0 => a.add(d, s),
                1 => a.sub(d, s),
                2 => a.and(d, s),
                3 => a.or(d, s),
                4 => a.xor(d, s),
                _ => a.cmp(d, s),
            };
        }
        Op::AluImm { kind, dst, imm } => {
            let d = scratch(*dst);
            match kind % 6 {
                0 => a.add(d, *imm),
                1 => a.sub(d, *imm),
                2 => a.and(d, *imm),
                3 => a.or(d, *imm),
                4 => a.xor(d, *imm),
                _ => a.cmp(d, *imm),
            };
        }
        Op::Load {
            dst,
            idx,
            scale_log,
            disp,
        } => {
            a.mov(scratch(*dst), table(*idx, *scale_log, *disp));
        }
        Op::Store { src, disp } => {
            a.mov(
                Mem::base_disp(Reg::Ebp, i32::from(disp % 128)),
                scratch(*src),
            );
        }
        Op::LoadB { dst, disp } => {
            a.mov_load_b(
                scratch8(*dst),
                Mem::base_disp(Reg::Ebp, i32::from(disp % 128)),
            );
        }
        Op::StoreB { src, disp } => {
            a.mov_store_b(
                Mem::base_disp(Reg::Ebp, i32::from(disp % 128)),
                scratch8(*src),
            );
        }
        Op::Lea {
            dst,
            idx,
            scale_log,
            disp,
        } => {
            a.lea(scratch(*dst), table(*idx, *scale_log, *disp));
        }
        Op::Movzx { dst, src } => {
            a.movzx(scratch(*dst), scratch(*src));
        }
        Op::Imul { dst, src, imm } => {
            a.imul(scratch(*dst), scratch(*src), *imm % 64);
        }
        Op::Shift { left, dst, amount } => {
            if *left {
                a.shl(scratch(*dst), *amount % 32);
            } else {
                a.shr(scratch(*dst), *amount % 32);
            }
        }
        Op::Unary { neg, dst } => {
            if *neg {
                a.neg(scratch(*dst));
            } else {
                a.not(scratch(*dst));
            }
        }
        Op::IncDec { inc, dst } => {
            if *inc {
                a.inc(scratch(*dst));
            } else {
                a.dec(scratch(*dst));
            }
        }
        Op::Test { a: x, b } => {
            a.test(scratch(*x), scratch(*b));
        }
        Op::PushPop { r } => {
            a.push_op(scratch(*r));
            a.pop(scratch(*r));
        }
        Op::Setcc { cond: c, dst } => {
            a.setcc(cond(*c), scratch8(*dst));
        }
        Op::Cmovcc { cond: c, dst, src } => {
            a.cmovcc(cond(*c), scratch(*dst), scratch(*src));
        }
        Op::Nop => {
            a.nop();
        }
    }
}

/// One structured program piece.
#[derive(Debug, Clone)]
enum Piece {
    Straight(Vec<Op>),
    /// `mov ecx, 0; L: body; inc ecx; cmp ecx, count; jne L` — the
    /// counter is concrete, so the loop unrolls and terminates. Bodies
    /// that re-establish their inputs (`MovImm`-seeded) hit the
    /// transfer memo from the third iteration on (the second records).
    Loop {
        count: u8,
        body: Vec<Op>,
    },
    /// `cmp reg, imm; jcc T; else; jmp E; T: then; E:` — an undecided
    /// flag forks, and both configurations re-execute the join's
    /// successors with near-identical states (the memo's cross-config
    /// hit path).
    Diamond {
        reg: u8,
        imm: u32,
        cond: u8,
        then_ops: Vec<Op>,
        else_ops: Vec<Op>,
    },
    /// `call S; … S: body; ret` — exercises stack reads/writes and the
    /// `ret` resolution path. Subroutine bodies are emitted after the
    /// final `hlt`.
    Call(Vec<Op>),
}

/// Assembles the generated pieces into a program. When `far_split` is
/// set, the tail pieces live in a far section (0x9000) reached through
/// a near jump, with the data table between the code sections.
fn assemble(pieces: &[Piece], far_split: Option<u8>) -> leakaudit_x86::Program {
    let mut a = Asm::new(0x1000);
    let mut subs: Vec<(String, Vec<Op>)> = Vec::new();
    let split = far_split.map(|k| k as usize % (pieces.len() + 1));
    let emit_piece =
        |a: &mut Asm, i: usize, piece: &Piece, subs: &mut Vec<(String, Vec<Op>)>| match piece {
            Piece::Straight(ops) => {
                for op in ops {
                    emit_op(a, op);
                }
            }
            Piece::Loop { count, body } => {
                let top = format!("l{i}");
                a.mov(Reg::Ecx, 0u32);
                a.label(&top);
                for op in body {
                    emit_op(a, op);
                }
                a.inc(Reg::Ecx);
                a.cmp(Reg::Ecx, u32::from(count % 6 + 2));
                a.jne(&*top);
            }
            Piece::Diamond {
                reg,
                imm,
                cond: c,
                then_ops,
                else_ops,
            } => {
                let then_lbl = format!("t{i}");
                let end_lbl = format!("e{i}");
                a.cmp(scratch(*reg), *imm % 16);
                a.jcc_near(cond(*c), &*then_lbl);
                for op in else_ops {
                    emit_op(a, op);
                }
                a.jmp_near(&*end_lbl);
                a.label(&then_lbl);
                for op in then_ops {
                    emit_op(a, op);
                }
                a.label(&end_lbl);
            }
            Piece::Call(ops) => {
                let sub = format!("s{i}");
                a.call(&*sub);
                subs.push((sub, ops.clone()));
            }
        };
    for (i, piece) in pieces.iter().enumerate() {
        if split == Some(i) {
            a.jmp_near("far");
            a.section_at(0x9000);
            a.label("far");
        }
        emit_piece(&mut a, i, piece, &mut subs);
    }
    if split == Some(pieces.len()) {
        a.jmp_near("far");
        a.section_at(0x9000);
        a.label("far");
    }
    a.hlt();
    for (name, ops) in &subs {
        a.label(name);
        for op in ops {
            emit_op(&mut a, op);
        }
        a.ret();
    }
    // The data table Ebp points at (0x8000..0x8100), between the two
    // code sections when the program is split.
    a.section_at(0x8000);
    let words: Vec<u32> = (0..64u32)
        .map(|i| i.wrapping_mul(0x01010101) ^ 0xbeef)
        .collect();
    a.dd(&words);
    a.assemble().expect("generated program assembles")
}

/// Assembles a fork-dense program: each block guards a counted loop
/// behind a conditional branch whose flags come from comparing a (often
/// secret-seeded) register — an undecided condition forks, parking the
/// taken configuration at the skip label *after* the loop while the
/// fall-through configuration records and replays transfers inside it,
/// with the sibling live the whole time. Blocks merge at their skip
/// labels, so configuration counts stay bounded across blocks.
fn assemble_fork_dense(blocks: &[(u8, u8, u32, Vec<Op>, u8)]) -> leakaudit_x86::Program {
    let mut a = Asm::new(0x1000);
    for (i, (c, reg, imm, body, count)) in blocks.iter().enumerate() {
        let skip = format!("k{i}");
        let top = format!("f{i}");
        a.cmp(scratch(*reg), *imm % 16);
        a.jcc_near(cond(*c), &*skip);
        a.mov(Reg::Ecx, 0u32);
        a.label(&top);
        for op in body {
            emit_op(&mut a, op);
        }
        a.inc(Reg::Ecx);
        a.cmp(Reg::Ecx, u32::from(count % 5 + 2));
        a.jne(&*top);
        a.label(&skip);
    }
    a.hlt();
    a.section_at(0x8000);
    let words: Vec<u32> = (0..64u32)
        .map(|i| i.wrapping_mul(0x01010101) ^ 0xbeef)
        .collect();
    a.dd(&words);
    a.assemble().expect("fork-dense program assembles")
}

/// How one scratch register starts out.
#[derive(Debug, Clone, Copy)]
enum Seed {
    /// A concrete constant.
    Const(u32),
    /// A small set (a secret in 0..n) — forks on comparisons, leaks on
    /// table loads.
    Secret(u8),
    /// Uninitialized (`Top`) — the memo's bypass path.
    Top,
}

fn init_state(seeds: &(Seed, Seed, Seed, Seed, Seed)) -> InitState {
    let mut init = InitState::new();
    init.set_reg(Reg::Ebp, ValueSet::constant(0x8000, 32));
    let seeds = [seeds.0, seeds.1, seeds.2, seeds.3, seeds.4];
    for (i, seed) in seeds.iter().enumerate() {
        match seed {
            Seed::Const(c) => {
                init.set_reg(SCRATCH[i], ValueSet::constant(u64::from(*c % 256), 32));
            }
            Seed::Secret(n) => {
                init.set_reg(
                    SCRATCH[i],
                    ValueSet::from_constants(0..u64::from(n % 7 + 2), 32),
                );
            }
            Seed::Top => {}
        }
    }
    init
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(dst, imm)| Op::MovImm { dst, imm }),
        (any::<u8>(), any::<u8>()).prop_map(|(dst, src)| Op::MovReg { dst, src }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, dst, src)| Op::Alu {
            kind,
            dst,
            src
        }),
        (any::<u8>(), any::<u8>(), any::<u32>()).prop_map(|(kind, dst, imm)| Op::AluImm {
            kind,
            dst,
            imm: imm % 512
        }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(dst, idx, scale_log, disp)| Op::Load {
                dst,
                idx,
                scale_log,
                disp
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(src, disp)| Op::Store { src, disp }),
        (any::<u8>(), any::<u8>()).prop_map(|(dst, disp)| Op::LoadB { dst, disp }),
        (any::<u8>(), any::<u8>()).prop_map(|(src, disp)| Op::StoreB { src, disp }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(dst, idx, scale_log, disp)| Op::Lea {
                dst,
                idx,
                scale_log,
                disp
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(dst, src)| Op::Movzx { dst, src }),
        (any::<u8>(), any::<u8>(), any::<i32>()).prop_map(|(dst, src, imm)| Op::Imul {
            dst,
            src,
            imm
        }),
        (any::<bool>(), any::<u8>(), any::<u8>()).prop_map(|(left, dst, amount)| Op::Shift {
            left,
            dst,
            amount
        }),
        (any::<bool>(), any::<u8>()).prop_map(|(neg, dst)| Op::Unary { neg, dst }),
        (any::<bool>(), any::<u8>()).prop_map(|(inc, dst)| Op::IncDec { inc, dst }),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Test { a, b }),
        any::<u8>().prop_map(|r| Op::PushPop { r }),
        (any::<u8>(), any::<u8>()).prop_map(|(cond, dst)| Op::Setcc { cond, dst }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(cond, dst, src)| Op::Cmovcc {
            cond,
            dst,
            src
        }),
        Just(Op::Nop),
    ];
    proptest::collection::vec(op, 0..max)
}

fn piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        3 => ops(8).prop_map(Piece::Straight),
        3 => (any::<u8>(), ops(10)).prop_map(|(count, body)| Piece::Loop { count, body }),
        2 => (any::<u8>(), any::<u32>(), any::<u8>(), ops(5), ops(5)).prop_map(
            |(reg, imm, cond, then_ops, else_ops)| Piece::Diamond {
                reg,
                imm,
                cond,
                then_ops,
                else_ops
            }
        ),
        1 => ops(5).prop_map(Piece::Call),
    ]
}

fn seed() -> impl Strategy<Value = Seed> {
    prop_oneof![
        3 => any::<u32>().prop_map(Seed::Const),
        2 => any::<u8>().prop_map(Seed::Secret),
        1 => Just(Seed::Top),
    ]
}

/// Drives one interpretation and returns `(events, outcome, stats)`.
/// Errors are compared by their debug rendering — `AnalysisError`
/// carries the tripping step index, so equal renderings pin equal
/// error step counts.
fn interpret(
    config: &AnalysisConfig,
    input: &AnalysisInput,
) -> (Vec<TraceEvent>, Result<AnalysisProfile, String>) {
    let mut bus = Collector::default();
    let result = Analysis::new(config.clone())
        .interpret(input, &mut bus)
        .map_err(|e| format!("{e:?}"));
    (bus.0, result)
}

fn config(memo: bool, budget_fuel: Option<u64>) -> AnalysisConfig {
    AnalysisConfig {
        interp_memo: memo,
        fuel: 200_000,
        budget: budget_fuel.map_or(Budget::UNLIMITED, Budget::with_fuel),
        ..AnalysisConfig::default()
    }
}

proptest! {
    /// The flagship property: over random programs and initial states,
    /// the memoized interpreter's event stream and outcome equal the
    /// naive interpreter's bit for bit.
    #[test]
    fn memoized_interpretation_matches_naive(
        pieces in proptest::collection::vec(piece(), 0..7),
        seeds in (seed(), seed(), seed(), seed(), seed()),
        far_split in proptest::option::of(any::<u8>()),
    ) {
        let input = AnalysisInput {
            program: assemble(&pieces, far_split),
            init: init_state(&seeds),
        };
        let (naive_events, naive_out) = interpret(&config(false, None), &input);
        let (memo_events, memo_out) = interpret(&config(true, None), &input);
        prop_assert_eq!(
            memo_out.as_ref().err(), naive_out.as_ref().err(),
            "outcome must not depend on the memo"
        );
        prop_assert_eq!(memo_events.len(), naive_events.len());
        prop_assert_eq!(memo_events, naive_events);
        if let (Ok(m), Ok(n)) = (&memo_out, &naive_out) {
            prop_assert_eq!(n.transfer_hits, 0, "naive runs never memo");
            // Every abstract step is a miss or a hit — the naive run's
            // misses count the total.
            prop_assert_eq!(
                m.transfer_hits + m.transfer_misses,
                n.transfer_misses
            );
        }
    }

    /// Fork-dense programs: every block guards a counted loop behind a
    /// secret-dependent branch, so undecided conditions fork before (and
    /// while) loops record and replay transfers, and sibling
    /// configurations wait at the skip label ahead. Event streams and
    /// outcomes must match the naive interpreter.
    #[test]
    fn fork_dense_programs_match_naive(
        blocks in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), ops(6), any::<u8>()),
            1..5,
        ),
        seeds in (seed(), seed(), seed(), seed(), seed()),
    ) {
        let input = AnalysisInput {
            program: assemble_fork_dense(&blocks),
            init: init_state(&seeds),
        };
        let (naive_events, naive_out) = interpret(&config(false, None), &input);
        let (memo_events, memo_out) = interpret(&config(true, None), &input);
        prop_assert_eq!(memo_out.err(), naive_out.err());
        prop_assert_eq!(memo_events, naive_events);
    }

    /// Budget truncation on fork-dense programs: the boundary must trip
    /// at the identical step index even when it lands inside a loop
    /// replayed from the memo with fork siblings live.
    #[test]
    fn fork_dense_budgets_trip_identically(
        blocks in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), ops(4), any::<u8>()),
            1..4,
        ),
        seeds in (seed(), seed(), seed(), seed(), seed()),
        budget in 1u64..300,
    ) {
        let input = AnalysisInput {
            program: assemble_fork_dense(&blocks),
            init: init_state(&seeds),
        };
        let (naive_events, naive_out) = interpret(&config(false, Some(budget)), &input);
        let (memo_events, memo_out) = interpret(&config(true, Some(budget)), &input);
        prop_assert_eq!(memo_out.err(), naive_out.err());
        prop_assert_eq!(memo_events, naive_events);
    }

    /// Fork-dense reports through the full engine path (sinks, counting)
    /// are bit-identical with the memo on.
    #[test]
    fn fork_dense_reports_are_bit_identical(
        blocks in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), ops(5), any::<u8>()),
            1..4,
        ),
        seeds in (seed(), seed(), seed(), seed(), seed()),
    ) {
        let input = AnalysisInput {
            program: assemble_fork_dense(&blocks),
            init: init_state(&seeds),
        };
        let naive = Analysis::new(config(false, None)).run(&input);
        let memo = Analysis::new(config(true, None)).run(&input);
        match (naive, memo) {
            (Ok(n), Ok(m)) => prop_assert_eq!(n.rows(), m.rows()),
            (n, m) => prop_assert_eq!(
                n.err().map(|e| format!("{e:?}")),
                m.err().map(|e| format!("{e:?}"))
            ),
        }
    }

    /// Budget exhaustion fires at the same step index with the memo on,
    /// even when the boundary lands on a step the memo would replay.
    #[test]
    fn budget_trips_at_identical_step_counts(
        pieces in proptest::collection::vec(piece(), 1..6),
        seeds in (seed(), seed(), seed(), seed(), seed()),
        budget in 1u64..400,
    ) {
        let input = AnalysisInput {
            program: assemble(&pieces, None),
            init: init_state(&seeds),
        };
        let (naive_events, naive_out) = interpret(&config(false, Some(budget)), &input);
        let (memo_events, memo_out) = interpret(&config(true, Some(budget)), &input);
        prop_assert_eq!(memo_out.err(), naive_out.err());
        prop_assert_eq!(memo_events, naive_events);
    }

    /// The full engine path (sinks, reports) projects identical rows
    /// either way: same specs, same counts, same bits.
    #[test]
    fn reports_are_bit_identical(
        pieces in proptest::collection::vec(piece(), 0..5),
        seeds in (seed(), seed(), seed(), seed(), seed()),
    ) {
        let input = AnalysisInput {
            program: assemble(&pieces, None),
            init: init_state(&seeds),
        };
        let naive = Analysis::new(config(false, None)).run(&input);
        let memo = Analysis::new(config(true, None)).run(&input);
        match (naive, memo) {
            (Ok(n), Ok(m)) => prop_assert_eq!(n.rows(), m.rows()),
            (n, m) => prop_assert_eq!(
                n.err().map(|e| format!("{e:?}")),
                m.err().map(|e| format!("{e:?}"))
            ),
        }
    }
}

/// A fixed program whose loop bodies re-establish their inputs every
/// iteration, so the body's transfers replay from the memo on every
/// later iteration — `interp_memo_props` exercises the replay path
/// deterministically here, not just when the generator happens to
/// produce one.
fn scripted_loop_input() -> AnalysisInput {
    let mut a = Asm::new(0x1000);
    // Outer work before the loop.
    a.mov(Reg::Eax, 5u32);
    a.mov(Reg::Ecx, 0u32);
    a.label("loop");
    // Body: every input is re-seeded, so later iterations hit the memo
    // (the `inc`/`cmp` pair reads the changing counter and always
    // misses).
    a.mov(Reg::Eax, 3u32);
    a.mov(Reg::Ebx, Mem::sib(Reg::Ebp, Reg::Esi, 4, 0));
    a.add(Reg::Eax, Reg::Ebx);
    a.mov(Reg::Edx, 7u32);
    a.xor(Reg::Edx, Reg::Eax);
    a.inc(Reg::Ecx);
    a.cmp(Reg::Ecx, 40u32);
    a.jne("loop");
    a.hlt();
    a.section_at(0x8000);
    a.dd(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut init = InitState::new();
    init.set_reg(Reg::Ebp, ValueSet::constant(0x8000, 32));
    init.set_reg(Reg::Esi, ValueSet::from_constants(0..4, 32));
    AnalysisInput {
        program: a.assemble().expect("scripted loop assembles"),
        init,
    }
}

/// Exhaustive fuel-starvation sweep on the scripted loop: for *every*
/// budget value up to past the program's full length, the memoized run
/// trips (or completes) exactly like the naive run, with the identical
/// event prefix: a boundary on a replayed step must error at the exact
/// step index.
#[test]
fn every_budget_boundary_is_exact_on_the_scripted_loop() {
    let input = scripted_loop_input();
    let (naive_events, naive_out) = interpret(&config(false, None), &input);
    let total = naive_events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Access {
                    kind: leakaudit_analyzer::sink::AccessKind::Fetch,
                    ..
                }
            )
        })
        .count() as u64;
    assert!(total > 100, "the loop runs long enough to replay");
    let stats = naive_out.expect("scripted loop converges");
    assert_eq!(stats.transfer_hits, 0);

    // The unlimited memoized run must actually replay, otherwise the
    // boundary sweep below proves nothing.
    let (memo_events, memo_out) = interpret(&config(true, None), &input);
    assert_eq!(memo_events, naive_events);
    let stats = memo_out.expect("memoized run converges");
    assert!(stats.transfer_hits > 0, "loop body must hit the memo");

    for budget in 1..=total + 1 {
        let (naive_events, naive_out) = interpret(&config(false, Some(budget)), &input);
        let (memo_events, memo_out) = interpret(&config(true, Some(budget)), &input);
        assert_eq!(
            memo_out.as_ref().err(),
            naive_out.as_ref().err(),
            "budget {budget}: outcome must match"
        );
        assert_eq!(
            memo_events, naive_events,
            "budget {budget}: event prefix must match"
        );
        if budget < total {
            let err = naive_out.expect_err("starved run errors");
            assert!(
                err.contains(&format!("steps: {budget}")),
                "budget {budget} trips at its own step count: {err}"
            );
        }
    }
}

/// A fixed program where transfer-memo hits happen *with a fork sibling
/// live*: a secret-dependent `je` forks, the taken configuration parks
/// at `done` (past the loop), and the fall-through configuration runs a
/// loop whose every pc sits below `done`, so the sibling waits there
/// until the loop exits.
#[test]
fn forked_transfer_hits_are_bit_identical() {
    let mut a = Asm::new(0x1000);
    a.cmp(Reg::Esi, 3u32); // esi is a secret set: ZF undecided, forks.
    a.jcc_near(Cond::E, "done");
    a.mov(Reg::Ecx, 0u32);
    a.label("loop");
    // The body re-establishes its inputs each iteration, so later
    // iterations hit the transfer memo.
    a.mov(Reg::Eax, 3u32);
    a.mov(Reg::Ebx, Mem::sib(Reg::Ebp, Reg::Edi, 4, 0));
    a.add(Reg::Eax, Reg::Ebx);
    a.xor(Reg::Eax, 0x55u32);
    a.inc(Reg::Ecx);
    a.cmp(Reg::Ecx, 30u32);
    a.jne("loop");
    a.label("done");
    a.hlt();
    a.section_at(0x8000);
    a.dd(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut init = InitState::new();
    init.set_reg(Reg::Ebp, ValueSet::constant(0x8000, 32));
    init.set_reg(Reg::Esi, ValueSet::from_constants(0..6, 32));
    init.set_reg(Reg::Edi, ValueSet::from_constants(0..4, 32));
    let input = AnalysisInput {
        program: a.assemble().expect("forked loop assembles"),
        init,
    };

    let (naive_events, naive_out) = interpret(&config(false, None), &input);
    let (memo_events, memo_out) = interpret(&config(true, None), &input);
    assert_eq!(memo_events, naive_events, "events must not depend on memo");
    naive_out.expect("naive run converges");
    let stats = memo_out.expect("memoized run converges");
    // Before the fork only `cmp`/`je` run, and after the merge at `done`
    // only `hlt`, each once: every hit is a loop step taken while the
    // sibling waits.
    assert!(
        stats.transfer_hits > 0,
        "the loop must hit the memo while the forked sibling waits at \
         `done`: {stats:?}"
    );

    let naive = Analysis::new(config(false, None)).run(&input).unwrap();
    let memo = Analysis::new(config(true, None)).run(&input).unwrap();
    assert_eq!(naive.rows(), memo.rows(), "reports are bit-identical");
}

/// The analyzer's own divergence guard (`config.fuel` → `OutOfFuel`)
/// is just as exact as the per-request budget.
#[test]
fn config_fuel_boundaries_are_exact_on_the_scripted_loop() {
    let input = scripted_loop_input();
    for fuel in [1u64, 7, 50, 121, 122, 123, 200] {
        let cfg = |memo| AnalysisConfig {
            interp_memo: memo,
            fuel,
            ..AnalysisConfig::default()
        };
        let (naive_events, naive_out) = interpret(&cfg(false), &input);
        let (memo_events, memo_out) = interpret(&cfg(true), &input);
        assert_eq!(memo_out.err(), naive_out.err(), "fuel {fuel}");
        assert_eq!(memo_events, naive_events, "fuel {fuel}");
    }
}

/// A wall-clock deadline does not change what the memo does: with a
/// deadline far beyond the run, the memoized interpreter emits the same
/// events, takes the same memo hits and misses, and reports the same
/// rows as an unbudgeted run.
#[test]
fn a_deadline_keeps_the_memo_on() {
    let input = scripted_loop_input();
    let with_deadline = AnalysisConfig {
        budget: Budget::with_deadline_ms(600_000),
        ..config(true, None)
    };
    let (plain_events, plain_out) = interpret(&config(true, None), &input);
    let (deadline_events, deadline_out) = interpret(&with_deadline, &input);
    assert_eq!(deadline_events, plain_events);
    let plain = plain_out.expect("unbudgeted run converges");
    let deadline = deadline_out.expect("a generous deadline never trips");
    assert!(plain.transfer_hits > 0, "loop body must hit the memo");
    assert_eq!(deadline, plain, "the memo runs the same under a deadline");

    let plain = Analysis::new(config(true, None)).run(&input).unwrap();
    let deadline = Analysis::new(with_deadline).run(&input).unwrap();
    assert_eq!(deadline.rows(), plain.rows());
}
