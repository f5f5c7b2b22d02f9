//! A concrete x86-32 emulator with memory-access tracing.
//!
//! The emulator plays two roles in the reproduction:
//!
//! 1. **Empirical soundness validation** — integration tests run each
//!    case-study binary under every secret valuation, apply the observer
//!    views of §3.2 to the recorded traces, and check that the number of
//!    distinct views never exceeds the static bound (Theorem 1, tested).
//! 2. **Concrete cache behaviour** — instruction counts per run, and the
//!    data traces that `leakaudit-cache` replays into hit/miss patterns
//!    (the `cache_policies` example).

use std::collections::BTreeMap;
use std::fmt;

use crate::decode::DecodeError;
use crate::isa::{AluOp, Cond, Inst, Mem, Operand, Reg, ShiftOp};
use crate::program::Program;

/// The kind of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (I-cache traffic).
    Fetch,
    /// Data read (D-cache traffic).
    Read,
    /// Data write (D-cache traffic).
    Write,
}

/// One memory access performed during emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The accessed address.
    pub addr: u32,
    /// Fetch, read or write.
    pub kind: AccessKind,
    /// Access size in bytes.
    pub size: u8,
}

impl Access {
    /// `true` for reads and writes (D-cache traffic).
    pub fn is_data(&self) -> bool {
        !matches!(self.kind, AccessKind::Fetch)
    }
}

/// The trace of a complete emulation run.
#[derive(Debug, Clone, Default)]
pub struct EmuTrace {
    /// Every access, in program order.
    pub accesses: Vec<Access>,
    /// Number of executed instructions.
    pub steps: u64,
}

impl EmuTrace {
    /// Addresses of data accesses, in order (the D-cache trace of §3).
    pub fn data_addresses(&self) -> Vec<u64> {
        self.accesses
            .iter()
            .filter(|a| a.is_data())
            .map(|a| u64::from(a.addr))
            .collect()
    }

    /// Addresses of instruction fetches, in order (the I-cache trace).
    pub fn fetch_addresses(&self) -> Vec<u64> {
        self.accesses
            .iter()
            .filter(|a| !a.is_data())
            .map(|a| u64::from(a.addr))
            .collect()
    }

    /// All accessed addresses, in order (the shared-cache trace).
    pub fn all_addresses(&self) -> Vec<u64> {
        self.accesses.iter().map(|a| u64::from(a.addr)).collect()
    }
}

/// CPU flags tracked by the emulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Carry flag.
    pub cf: bool,
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Overflow flag.
    pub of: bool,
    /// Parity flag.
    pub pf: bool,
}

/// Error produced during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Instruction decoding failed (e.g. the PC left mapped code).
    Decode(DecodeError),
    /// The step budget was exhausted before `hlt`.
    OutOfFuel {
        /// The budget that was exhausted.
        steps: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Decode(e) => write!(f, "emulation stopped: {e}"),
            EmuError::OutOfFuel { steps } => {
                write!(f, "emulation exceeded {steps} steps without reaching hlt")
            }
        }
    }
}

impl std::error::Error for EmuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmuError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for EmuError {
    fn from(e: DecodeError) -> Self {
        EmuError::Decode(e)
    }
}

/// A concrete x86-32 machine: registers, flags, sparse byte memory.
///
/// ```
/// use leakaudit_x86::{Asm, Emulator, Reg};
///
/// let mut a = Asm::new(0x1000);
/// a.mov(Reg::Eax, 6u32);
/// a.imul(Reg::Eax, Reg::Eax, 7);
/// a.hlt();
/// let mut emu = Emulator::new(&a.assemble()?);
/// emu.run(100)?;
/// assert_eq!(emu.reg(Reg::Eax), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    regs: [u32; 8],
    flags: Flags,
    /// Written bytes; reads fall back to the program image, then zero.
    mem: BTreeMap<u32, u8>,
    pc: u32,
    halted: bool,
    program: Program,
}

impl Emulator {
    /// Creates an emulator for a program, with PC at its entry, all
    /// registers zero, and `esp` pointing at a scratch stack (0x00f0_0000).
    pub fn new(program: &Program) -> Self {
        let mut regs = [0u32; 8];
        regs[Reg::Esp as usize] = 0x00f0_0000;
        Emulator {
            regs,
            flags: Flags::default(),
            mem: BTreeMap::new(),
            pc: program.entry(),
            halted: false,
            program: program.clone(),
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Jumps to an address.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// `true` once `hlt` executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r as usize]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r as usize] = v;
    }

    /// The current flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Reads one byte of memory (overlay, then program image, then zero).
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.mem
            .get(&addr)
            .copied()
            .or_else(|| self.program.byte_at(addr))
            .unwrap_or(0)
    }

    /// Reads a little-endian 32-bit word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes one byte of memory.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.mem.insert(addr, v);
    }

    /// Writes a little-endian 32-bit word.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    fn effective(&self, m: &Mem) -> u32 {
        let mut a = m.disp as u32;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.reg(b));
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.reg(i).wrapping_mul(u32::from(s)));
        }
        a
    }

    fn read_operand(&self, op: &Operand, trace: &mut Vec<Access>) -> u32 {
        match op {
            Operand::Reg(r) => self.reg(*r),
            Operand::Imm(v) => *v,
            Operand::Mem(m) => {
                let addr = self.effective(m);
                trace.push(Access {
                    addr,
                    kind: AccessKind::Read,
                    size: 4,
                });
                self.read_u32(addr)
            }
        }
    }

    fn write_operand(&mut self, op: &Operand, v: u32, trace: &mut Vec<Access>) {
        match op {
            Operand::Reg(r) => self.set_reg(*r, v),
            Operand::Mem(m) => {
                let addr = self.effective(m);
                trace.push(Access {
                    addr,
                    kind: AccessKind::Write,
                    size: 4,
                });
                self.write_u32(addr, v);
            }
            Operand::Imm(_) => unreachable!("encoder rejects immediate destinations"),
        }
    }

    fn set_logic_flags(&mut self, r: u32) {
        self.flags.cf = false;
        self.flags.of = false;
        self.flags.zf = r == 0;
        self.flags.sf = r >> 31 == 1;
        self.flags.pf = (r as u8).count_ones().is_multiple_of(2);
    }

    fn set_add_flags(&mut self, a: u32, b: u32, r: u32) {
        self.flags.cf = r < a;
        self.flags.of = ((a ^ r) & (b ^ r)) >> 31 == 1;
        self.flags.zf = r == 0;
        self.flags.sf = r >> 31 == 1;
        self.flags.pf = (r as u8).count_ones().is_multiple_of(2);
    }

    fn set_sub_flags(&mut self, a: u32, b: u32, r: u32) {
        self.flags.cf = a < b;
        self.flags.of = ((a ^ b) & (a ^ r)) >> 31 == 1;
        self.flags.zf = r == 0;
        self.flags.sf = r >> 31 == 1;
        self.flags.pf = (r as u8).count_ones().is_multiple_of(2);
    }

    /// Evaluates a condition against the current flags.
    pub fn cond(&self, c: Cond) -> bool {
        let f = self.flags;
        match c {
            Cond::O => f.of,
            Cond::No => !f.of,
            Cond::B => f.cf,
            Cond::Ae => !f.cf,
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::Be => f.cf || f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
            Cond::P => f.pf,
            Cond::Np => !f.pf,
            Cond::L => f.sf != f.of,
            Cond::Ge => f.sf == f.of,
            Cond::Le => f.zf || (f.sf != f.of),
            Cond::G => !f.zf && (f.sf == f.of),
        }
    }

    /// Executes one instruction, appending its memory accesses to `trace`.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Decode`] if the PC does not point at a valid
    /// instruction.
    pub fn step(&mut self, trace: &mut Vec<Access>) -> Result<(), EmuError> {
        let (inst, len) = self.program.decode_at(self.pc)?;
        trace.push(Access {
            addr: self.pc,
            kind: AccessKind::Fetch,
            size: len as u8,
        });
        let next = self.pc.wrapping_add(len);
        self.pc = next;
        match inst {
            Inst::Nop => {}
            Inst::Hlt => self.halted = true,
            Inst::Mov { dst, src } => {
                let v = self.read_operand(&src, trace);
                self.write_operand(&dst, v, trace);
            }
            Inst::MovStoreB { dst, src } => {
                let addr = self.effective(&dst);
                trace.push(Access {
                    addr,
                    kind: AccessKind::Write,
                    size: 1,
                });
                let v = self.reg(src.parent()) as u8;
                self.write_u8(addr, v);
            }
            Inst::MovLoadB { dst, src } => {
                let addr = self.effective(&src);
                trace.push(Access {
                    addr,
                    kind: AccessKind::Read,
                    size: 1,
                });
                let v = self.read_u8(addr);
                let parent = dst.parent();
                let old = self.reg(parent);
                self.set_reg(parent, (old & 0xffff_ff00) | u32::from(v));
            }
            Inst::Movzx { dst, src } => {
                let v = match src {
                    Operand::Reg(r) => self.reg(r) & 0xff,
                    Operand::Mem(m) => {
                        let addr = self.effective(&m);
                        trace.push(Access {
                            addr,
                            kind: AccessKind::Read,
                            size: 1,
                        });
                        u32::from(self.read_u8(addr))
                    }
                    Operand::Imm(_) => unreachable!("decoder never yields movzx imm"),
                };
                self.set_reg(dst, v);
            }
            Inst::Lea { dst, src } => {
                let addr = self.effective(&src);
                self.set_reg(dst, addr);
            }
            Inst::Alu { op, dst, src } => {
                let a = self.read_operand(&dst, trace);
                let b = self.read_operand(&src, trace);
                let r = match op {
                    AluOp::Add => {
                        let r = a.wrapping_add(b);
                        self.set_add_flags(a, b, r);
                        r
                    }
                    AluOp::Sub | AluOp::Cmp => {
                        let r = a.wrapping_sub(b);
                        self.set_sub_flags(a, b, r);
                        r
                    }
                    AluOp::And => {
                        let r = a & b;
                        self.set_logic_flags(r);
                        r
                    }
                    AluOp::Or => {
                        let r = a | b;
                        self.set_logic_flags(r);
                        r
                    }
                    AluOp::Xor => {
                        let r = a ^ b;
                        self.set_logic_flags(r);
                        r
                    }
                };
                if op != AluOp::Cmp {
                    self.write_operand(&dst, r, trace);
                }
            }
            Inst::Test { a, b } => {
                let x = self.read_operand(&a, trace);
                let y = self.read_operand(&b, trace);
                self.set_logic_flags(x & y);
            }
            Inst::Imul { dst, src, imm } => {
                let a = self.read_operand(&src, trace) as i32 as i64;
                let b = match imm {
                    Some(i) => i64::from(i),
                    None => self.reg(dst) as i32 as i64,
                };
                let full = a * b;
                let r = full as i32;
                self.flags.cf = i64::from(r) != full;
                self.flags.of = self.flags.cf;
                self.set_reg(dst, r as u32);
            }
            Inst::Shift { op, dst, amount } => {
                let amt = u32::from(amount) & 31;
                let v = self.read_operand(&dst, trace);
                let r = match op {
                    ShiftOp::Shl => {
                        if amt > 0 {
                            self.flags.cf = amt <= 32 && (v >> (32 - amt)) & 1 == 1;
                        }
                        v.wrapping_shl(amt)
                    }
                    ShiftOp::Shr => {
                        if amt > 0 {
                            self.flags.cf = (v >> (amt - 1)) & 1 == 1;
                        }
                        v.wrapping_shr(amt)
                    }
                    ShiftOp::Sar => {
                        if amt > 0 {
                            self.flags.cf = (v >> (amt - 1)) & 1 == 1;
                        }
                        ((v as i32) >> amt) as u32
                    }
                };
                if amt > 0 {
                    self.flags.zf = r == 0;
                    self.flags.sf = r >> 31 == 1;
                    self.flags.pf = (r as u8).count_ones().is_multiple_of(2);
                    self.flags.of = false;
                }
                self.write_operand(&dst, r, trace);
            }
            Inst::Not { dst } => {
                let v = self.read_operand(&dst, trace);
                self.write_operand(&dst, !v, trace);
            }
            Inst::Neg { dst } => {
                let v = self.read_operand(&dst, trace);
                let r = 0u32.wrapping_sub(v);
                self.set_sub_flags(0, v, r);
                self.flags.cf = v != 0;
                self.write_operand(&dst, r, trace);
            }
            Inst::Inc { dst } => {
                let cf = self.flags.cf;
                let a = self.reg(dst);
                let r = a.wrapping_add(1);
                self.set_add_flags(a, 1, r);
                self.flags.cf = cf; // INC leaves CF unchanged
                self.set_reg(dst, r);
            }
            Inst::Dec { dst } => {
                let cf = self.flags.cf;
                let a = self.reg(dst);
                let r = a.wrapping_sub(1);
                self.set_sub_flags(a, 1, r);
                self.flags.cf = cf; // DEC leaves CF unchanged
                self.set_reg(dst, r);
            }
            Inst::Push { src } => {
                let v = self.read_operand(&src, trace);
                let esp = self.reg(Reg::Esp).wrapping_sub(4);
                self.set_reg(Reg::Esp, esp);
                trace.push(Access {
                    addr: esp,
                    kind: AccessKind::Write,
                    size: 4,
                });
                self.write_u32(esp, v);
            }
            Inst::Pop { dst } => {
                let esp = self.reg(Reg::Esp);
                trace.push(Access {
                    addr: esp,
                    kind: AccessKind::Read,
                    size: 4,
                });
                let v = self.read_u32(esp);
                self.set_reg(Reg::Esp, esp.wrapping_add(4));
                self.set_reg(dst, v);
            }
            Inst::Jmp { target, .. } => self.pc = target,
            Inst::Jcc { cond, target, .. } => {
                if self.cond(cond) {
                    self.pc = target;
                }
            }
            Inst::Call { target } => {
                let esp = self.reg(Reg::Esp).wrapping_sub(4);
                self.set_reg(Reg::Esp, esp);
                trace.push(Access {
                    addr: esp,
                    kind: AccessKind::Write,
                    size: 4,
                });
                self.write_u32(esp, next);
                self.pc = target;
            }
            Inst::Ret => {
                let esp = self.reg(Reg::Esp);
                trace.push(Access {
                    addr: esp,
                    kind: AccessKind::Read,
                    size: 4,
                });
                self.pc = self.read_u32(esp);
                self.set_reg(Reg::Esp, esp.wrapping_add(4));
            }
            Inst::Setcc { cond, dst } => {
                let v = u32::from(self.cond(cond));
                let parent = dst.parent();
                let old = self.reg(parent);
                self.set_reg(parent, (old & 0xffff_ff00) | v);
            }
            Inst::Cmovcc { cond, dst, src } => {
                // x86 performs the source read regardless of the condition.
                let v = self.read_operand(&src, trace);
                if self.cond(cond) {
                    self.set_reg(dst, v);
                }
            }
        }
        Ok(())
    }

    /// Runs until `hlt` or the step budget is exhausted, collecting the
    /// full memory trace.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::OutOfFuel`] if `hlt` is not reached within
    /// `max_steps`, or a decode error if the PC escapes mapped code.
    pub fn run(&mut self, max_steps: u64) -> Result<EmuTrace, EmuError> {
        let mut trace = EmuTrace::default();
        while !self.halted {
            if trace.steps >= max_steps {
                return Err(EmuError::OutOfFuel { steps: max_steps });
            }
            self.step(&mut trace.accesses)?;
            trace.steps += 1;
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::Reg8;

    fn run(setup: impl FnOnce(&mut Asm)) -> Emulator {
        let mut a = Asm::new(0x1000);
        setup(&mut a);
        a.hlt();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        emu.run(10_000).unwrap();
        emu
    }

    #[test]
    fn arithmetic_and_flags() {
        let emu = run(|a| {
            a.mov(Reg::Eax, 0xffff_ffffu32);
            a.add(Reg::Eax, 1u32);
        });
        assert_eq!(emu.reg(Reg::Eax), 0);
        assert!(emu.flags().zf);
        assert!(emu.flags().cf);
        assert!(!emu.flags().of);
    }

    #[test]
    fn signed_overflow() {
        let emu = run(|a| {
            a.mov(Reg::Eax, 0x7fff_ffffu32);
            a.add(Reg::Eax, 1u32);
        });
        assert!(emu.flags().of);
        assert!(emu.flags().sf);
        assert!(!emu.flags().cf);
    }

    #[test]
    fn loop_with_counter() {
        // Sum 1..=5 via a dec/jne loop.
        let emu = run(|a| {
            a.mov(Reg::Ecx, 5u32);
            a.mov(Reg::Eax, 0u32);
            a.label("loop");
            a.add(Reg::Eax, Reg::Ecx);
            a.dec(Reg::Ecx);
            a.jne("loop");
        });
        assert_eq!(emu.reg(Reg::Eax), 15);
    }

    #[test]
    fn memory_round_trip_and_trace() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::Ebx, 0x8000u32);
        a.mov(Mem::reg(Reg::Ebx), 0xdead_beefu32);
        a.mov(Reg::Eax, Mem::reg(Reg::Ebx));
        a.hlt();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        let trace = emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::Eax), 0xdead_beef);
        assert_eq!(trace.data_addresses(), vec![0x8000, 0x8000]);
        assert_eq!(trace.fetch_addresses().len(), 4);
    }

    #[test]
    fn byte_loads_and_stores() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::Ebx, 0x8000u32);
        a.mov(Reg::Eax, 0x1234_5678u32);
        a.mov_store_b(Mem::reg(Reg::Ebx), Reg8::Al);
        a.movzx(Reg::Ecx, Mem::reg(Reg::Ebx));
        a.hlt();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::Ecx), 0x78);
    }

    #[test]
    fn call_and_ret() {
        let mut a = Asm::new(0x1000);
        a.call("f");
        a.hlt();
        a.label("f");
        a.mov(Reg::Eax, 0x42u32);
        a.ret();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::Eax), 0x42);
    }

    #[test]
    fn push_pop() {
        let emu = run(|a| {
            a.push_op(0x1111u32);
            a.push_op(0x2222u32);
            a.pop(Reg::Eax);
            a.pop(Reg::Ebx);
        });
        assert_eq!(emu.reg(Reg::Eax), 0x2222);
        assert_eq!(emu.reg(Reg::Ebx), 0x1111);
        assert_eq!(emu.reg(Reg::Esp), 0x00f0_0000);
    }

    #[test]
    fn setcc_and_cmov_branchless_select() {
        // The OpenSSL 1.0.2g defensive-gather idiom: mask = 0 - (k == j).
        let emu = run(|a| {
            a.mov(Reg::Eax, 5u32);
            a.cmp(Reg::Eax, 5u32);
            a.setcc(Cond::E, Reg8::Cl);
            a.neg(Reg::Ecx);
        });
        assert_eq!(emu.reg(Reg::Ecx), 0xffff_ffff);
        let emu = run(|a| {
            a.mov(Reg::Eax, 1u32);
            a.mov(Reg::Ebx, 7u32);
            a.cmp(Reg::Eax, 0u32);
            a.cmovcc(Cond::E, Reg::Eax, Reg::Ebx);
        });
        assert_eq!(emu.reg(Reg::Eax), 1, "condition false: no move");
    }

    #[test]
    fn unsigned_compare_conditions() {
        let emu = run(|a| {
            a.mov(Reg::Eax, 3u32);
            a.cmp(Reg::Eax, 5u32);
            a.setcc(Cond::B, Reg8::Bl);
            a.setcc(Cond::A, Reg8::Cl);
        });
        assert_eq!(emu.reg(Reg::Ebx) & 0xff, 1);
        assert_eq!(emu.reg(Reg::Ecx) & 0xff, 0);
    }

    #[test]
    fn shifts() {
        let emu = run(|a| {
            a.mov(Reg::Eax, 0b1011u32);
            a.shl(Reg::Eax, 3);
            a.mov(Reg::Ebx, 0x8000_0000u32);
            a.shr(Reg::Ebx, 31);
        });
        assert_eq!(emu.reg(Reg::Eax), 0b101_1000);
        assert_eq!(emu.reg(Reg::Ebx), 1);
    }

    #[test]
    fn out_of_fuel() {
        let mut a = Asm::new(0x1000);
        a.label("spin");
        a.jmp("spin");
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        assert!(matches!(
            emu.run(10),
            Err(EmuError::OutOfFuel { steps: 10 })
        ));
    }

    #[test]
    fn lea_performs_no_memory_access() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::Ebx, 0x4000u32);
        a.lea(Reg::Eax, Mem::base_disp(Reg::Ebx, 0x20));
        a.hlt();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        let trace = emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::Eax), 0x4020);
        assert!(trace.data_addresses().is_empty());
    }
}
