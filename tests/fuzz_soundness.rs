//! Whole-pipeline fuzzing of Theorem 1: generate random small binaries
//! with a secret register, analyze them statically, run them concretely
//! under every secret value, and check that the number of distinct
//! observer views never exceeds the static bound.
//!
//! This exercises assembler → decoder → abstract interpreter → trace
//! domain → counting against assembler → decoder → emulator → concrete
//! views, end to end, on programs nobody hand-picked. Generated programs
//! include counted loops whose bodies may branch on the secret, so the
//! interpreter's per-pc transfer memo sees repeated steps, some under
//! forks; every program is analyzed
//! with the memo on and off, the two reports must agree row for row, and
//! both must bound the concrete views.

use std::collections::BTreeSet;

use leakaudit::analyzer::{Analysis, AnalysisConfig, AnalysisInput, Channel, InitState};
use leakaudit::core::{Observer, ValueSet};
use leakaudit::x86::{AluOp, Asm, Emulator, Mem, Reg};
use proptest::prelude::*;

/// One generated instruction-ish step. Loads/stores go through `esi`
/// masked to 5 bits so all addresses stay inside the 128-byte table at
/// 0x8000.
#[derive(Debug, Clone)]
enum Step {
    AluImm(AluOp, Reg, u32),
    AluReg(AluOp, Reg, Reg),
    Shift(bool, Reg, u8),
    LoadIndexed {
        from: Reg,
        into: Reg,
    },
    StoreIndexed {
        from: Reg,
        index_src: Reg,
    },
    /// `test r, r; je +skip-one` — a (possibly secret-dependent) branch
    /// over the following step.
    SkipNextIfZero(Reg),
    /// `mov ebp, trips; top: body; dec ebp; jnz top` — a counted loop
    /// whose body may branch on the secret. `ebp` is the counter; no
    /// other step touches it, and loops do not nest.
    Loop {
        trips: u32,
        body: Vec<Step>,
    },
}

fn regs() -> impl Strategy<Value = Reg> {
    proptest::sample::select(vec![Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Edi])
}

fn alu_ops() -> impl Strategy<Value = AluOp> {
    proptest::sample::select(vec![
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
    ])
}

/// Every step kind but [`Step::Loop`].
fn plain_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (alu_ops(), regs(), any::<u32>()).prop_map(|(o, r, i)| Step::AluImm(o, r, i)),
        (alu_ops(), regs(), regs()).prop_map(|(o, a, b)| Step::AluReg(o, a, b)),
        (any::<bool>(), regs(), 0u8..16).prop_map(|(l, r, a)| Step::Shift(l, r, a)),
        (regs(), regs()).prop_map(|(from, into)| Step::LoadIndexed { from, into }),
        (regs(), regs()).prop_map(|(from, index_src)| Step::StoreIndexed { from, index_src }),
        regs().prop_map(Step::SkipNextIfZero),
    ]
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let counted_loop = (2u32..7, proptest::collection::vec(plain_step(), 1..5))
        .prop_map(|(trips, body)| Step::Loop { trips, body });
    proptest::collection::vec(prop_oneof![plain_step(), counted_loop], 1..8)
}

/// Emits `steps`, numbering branch targets from `*label` up so nested
/// emission never reuses a name.
fn emit(asm: &mut Asm, steps: &[Step], label: &mut usize) {
    let mut i = 0;
    while i < steps.len() {
        match &steps[i] {
            Step::AluImm(op, r, imm) => {
                asm.inst(leakaudit::x86::Inst::Alu {
                    op: *op,
                    dst: (*r).into(),
                    src: (*imm).into(),
                });
            }
            Step::AluReg(op, a, b) => {
                asm.inst(leakaudit::x86::Inst::Alu {
                    op: *op,
                    dst: (*a).into(),
                    src: (*b).into(),
                });
            }
            Step::Shift(left, r, amount) => {
                if *left {
                    asm.shl(*r, *amount);
                } else {
                    asm.shr(*r, *amount);
                }
            }
            Step::LoadIndexed { from, into } => {
                asm.mov(Reg::Esi, *from);
                asm.and(Reg::Esi, 0x1fu32);
                asm.mov(*into, Mem::sib(Reg::Ebx, Reg::Esi, 4, 0));
            }
            Step::StoreIndexed { from, index_src } => {
                asm.mov(Reg::Esi, *index_src);
                asm.and(Reg::Esi, 0x1fu32);
                asm.mov(Mem::sib(Reg::Ebx, Reg::Esi, 4, 0), *from);
            }
            Step::SkipNextIfZero(r) => {
                let name = format!("skip{label}");
                *label += 1;
                asm.test(*r, *r);
                asm.je(name.as_str());
                // Emit the next step inside the branch (if any), then land.
                if i + 1 < steps.len() {
                    // Only emit simple steps inside; recurse one level.
                    let inner = [steps[i + 1].clone()];
                    if !matches!(steps[i + 1], Step::SkipNextIfZero(_) | Step::Loop { .. }) {
                        emit(asm, &inner, label);
                        i += 1;
                    }
                }
                asm.label(name.as_str());
            }
            Step::Loop { trips, body } => {
                let name = format!("loop{label}");
                *label += 1;
                asm.mov(Reg::Ebp, *trips);
                asm.label(name.as_str());
                emit(asm, body, label);
                asm.dec(Reg::Ebp);
                asm.jne(name.as_str());
            }
        }
        i += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_respect_theorem_1(
        program_steps in steps(),
        secrets in proptest::collection::btree_set(0u64..8, 2..8),
        eax0 in any::<u32>(),
        edx0 in any::<u32>(),
    ) {
        // Assemble.
        let mut asm = Asm::new(0x1000);
        emit(&mut asm, &program_steps, &mut 0);
        asm.hlt();
        let program = asm.assemble().expect("generated program assembles");

        // Static analysis: ecx is the secret.
        let mut init = InitState::new();
        init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        init.set_reg(Reg::Eax, ValueSet::constant(u64::from(eax0), 32));
        init.set_reg(Reg::Edx, ValueSet::constant(u64::from(edx0), 32));
        init.set_reg(Reg::Edi, ValueSet::constant(0, 32));
        init.set_reg(Reg::Ecx, ValueSet::from_constants(secrets.iter().copied(), 32));
        let input = AnalysisInput { program: program.clone(), init };
        let report = Analysis::new(AnalysisConfig::default())
            .run(&input)
            .expect("analysis terminates");
        let naive = Analysis::new(AnalysisConfig {
            interp_memo: false,
            ..AnalysisConfig::default()
        })
        .run(&input)
        .expect("memo-off analysis terminates");
        prop_assert_eq!(report.rows(), naive.rows(), "memo on/off rows differ");

        // Concrete sweep over the secret.
        let mut traces = Vec::new();
        for &k in &secrets {
            let mut emu = Emulator::new(&program);
            emu.set_reg(Reg::Ebx, 0x8000);
            emu.set_reg(Reg::Eax, eax0);
            emu.set_reg(Reg::Edx, edx0);
            emu.set_reg(Reg::Edi, 0);
            emu.set_reg(Reg::Ecx, k as u32);
            traces.push(emu.run(10_000).expect("emulation terminates"));
        }

        // Compare every observer/channel.
        for channel in [Channel::Instruction, Channel::Data, Channel::Shared] {
            for obs in [
                Observer::address(),
                Observer::block(6),
                Observer::block(6).stuttering(),
                Observer::bank(),
            ] {
                let views: BTreeSet<Vec<u64>> = traces
                    .iter()
                    .map(|t| {
                        let addrs = match channel {
                            Channel::Instruction => t.fetch_addresses(),
                            Channel::Data => t.data_addresses(),
                            Channel::Shared => t.all_addresses(),
                        };
                        obs.view_concrete(&addrs)
                    })
                    .collect();
                for (memo, analysis) in [("on", &report), ("off", &naive)] {
                    let row = analysis
                        .rows()
                        .iter()
                        .find(|r| r.spec.channel == channel && r.spec.observer == obs)
                        .expect("row present");
                    if let Some(bound) = row.count.to_u64() {
                        prop_assert!(
                            views.len() as u64 <= bound,
                            "{channel}/{obs} (memo {memo}): {} concrete views > bound \
                             {bound}\nsteps: {:?}",
                            views.len(),
                            program_steps
                        );
                    }
                }
            }
        }
    }
}
