//! Abstract machine state: registers, flags, and memory over the
//! masked-symbol value domain.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use leakaudit_core::{
    AbstractBool, AbstractFlags, CacheKeyed, FingerprintHasher, MaskedSymbol, SymbolTable, ValueSet,
};
use leakaudit_x86::{Program, Reg};

/// Records which register/partition an undecided ZF came from, so branches
/// can refine the register's value set per path.
///
/// CacheAudit's value domains provide the same precision by returning one
/// abstract state per flag combination (paper §7.2 inherits them); here a
/// `cmp reg, const` or `test reg, reg` partitions the register's set into
/// the elements where ZF would be 1 (`eq`) and 0 (`ne`). A subsequent
/// `je`/`jne` installs the matching partition on each forked path — this
/// is what makes the unprotected-lookup bound exactly `1 + 7·7 = 50`
/// observations (Fig. 14a) instead of `1 + 8·8`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagSource {
    /// The compared register.
    pub reg: Reg,
    /// Elements for which ZF = 1.
    pub eq: ValueSet,
    /// Elements for which ZF = 0.
    pub ne: ValueSet,
}

impl CacheKeyed for FlagSource {
    fn key_into(&self, h: &mut FingerprintHasher) {
        h.write_u8(self.reg as u8);
        self.eq.key_into(h);
        self.ne.key_into(h);
    }
}

/// Abstract CPU flags (each three-valued).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagsState {
    /// Zero flag.
    pub zf: AbstractBool,
    /// Carry flag.
    pub cf: AbstractBool,
    /// Sign flag.
    pub sf: AbstractBool,
    /// Overflow flag.
    pub of: AbstractBool,
    /// Provenance of an undecided ZF, for branch refinement.
    pub source: Option<FlagSource>,
}

impl FlagsState {
    /// All flags unknown.
    pub fn top() -> Self {
        FlagsState {
            zf: AbstractBool::Top,
            cf: AbstractBool::Top,
            sf: AbstractBool::Top,
            of: AbstractBool::Top,
            source: None,
        }
    }

    /// Replaces the flags with an operation's outcome (clears provenance).
    pub fn assign(&mut self, outcome: AbstractFlags) {
        self.zf = outcome.zf;
        self.cf = outcome.cf;
        self.sf = outcome.sf;
        self.of = outcome.of;
        self.source = None;
    }

    /// Pointwise join; provenance survives only if identical.
    pub fn join(&self, other: &FlagsState) -> FlagsState {
        FlagsState {
            zf: self.zf.join(other.zf),
            cf: self.cf.join(other.cf),
            sf: self.sf.join(other.sf),
            of: self.of.join(other.of),
            source: if self.source == other.source {
                self.source.clone()
            } else {
                None
            },
        }
    }
}

impl CacheKeyed for FlagsState {
    fn key_into(&self, h: &mut FingerprintHasher) {
        self.zf.key_into(h);
        self.cf.key_into(h);
        self.sf.key_into(h);
        self.of.key_into(h);
        match &self.source {
            None => h.write_u8(0),
            Some(src) => {
                h.write_u8(1);
                src.key_into(h);
            }
        }
    }
}

/// Abstract memory: a map from masked-symbol addresses to value sets.
///
/// Addresses absent from the map denote *unknown-high* contents (`Top`) —
/// this is what makes the secret pre-computed tables of the case study
/// high data without any explicit setup. Reads from absent *concrete*
/// addresses fall back to the program image (the data segments assembled
/// into the binary), which models the initialized `.data` section.
///
/// # Aliasing assumption
///
/// Distinct symbolic base addresses are assumed not to alias each other or
/// the program image. This is the paper's heap model (§4): `malloc` draws
/// from a pool of fresh low addresses. A store through a symbolic pointer
/// therefore does not invalidate entries under other bases.
///
/// # Sharing
///
/// The entry map sits behind an [`Arc`]: cloning a memory (every
/// scheduler fork) is a refcount bump, and the map is copied only when a
/// forked path actually writes ([`Arc::make_mut`]). Diamond-shaped code
/// whose branches never touch memory — the common case in the case-study
/// binaries — never pays for the copy.
#[derive(Debug, Clone, Default)]
pub struct AbstractMemory {
    entries: Arc<BTreeMap<MaskedSymbol, (ValueSet, u8)>>,
    /// Set once a store through `Top` clobbered everything.
    havocked: bool,
    /// Content-identity stamp for the interpreter memo (see
    /// [`AbstractMemory::stamp`]). Not part of equality.
    stamp: u64,
}

/// Process-global allocator for memory stamps. Stamp `0` is reserved for
/// fresh ([`Default`]) memories — which are all content-equal (empty, not
/// havocked) — so the counter starts at 1.
fn fresh_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Equality is over *contents* (entries and the havoc flag); the memo
/// stamp is bookkeeping and deliberately excluded.
impl PartialEq for AbstractMemory {
    fn eq(&self, other: &Self) -> bool {
        self.havocked == other.havocked && self.entries == other.entries
    }
}

impl Eq for AbstractMemory {}

impl AbstractMemory {
    /// Empty memory (all-high, program image visible).
    pub fn new() -> Self {
        AbstractMemory::default()
    }

    /// Content-identity stamp for the interpreter memo.
    ///
    /// Invariant: two memories (from the same process) with equal stamps
    /// have equal contents — stamp values are allocated once per mutation
    /// from a process-global counter and then propagated only along
    /// content-preserving paths (clone, and the `ptr_eq` join fast path
    /// when the havoc flag is unchanged). The converse does *not* hold:
    /// differing stamps say nothing, so a memo keyed on the stamp can
    /// miss but never wrongly hit.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads `size` bytes through a set of possible addresses.
    pub fn read(&self, addrs: &ValueSet, size: u8, program: &Program) -> ValueSet {
        let width = addrs.width();
        if addrs.is_top() || self.havocked {
            return ValueSet::top(width);
        }
        let mut out: Option<ValueSet> = None;
        for a in addrs.iter() {
            let v = self.read_one(a, size, program);
            out = Some(match out {
                None => v,
                Some(acc) => acc.join(&v),
            });
        }
        out.unwrap_or_else(|| ValueSet::top(width))
    }

    fn read_one(&self, addr: &MaskedSymbol, size: u8, program: &Program) -> ValueSet {
        if let Some((v, s)) = self.entries.get(addr) {
            if *s == size {
                return v.clone();
            }
            return ValueSet::top(addr.width());
        }
        if let Some(base) = addr.as_constant() {
            let bytes = program.bytes_at(base as u32, size as usize);
            if bytes.len() == size as usize {
                let mut v = 0u64;
                for (i, b) in bytes.iter().enumerate() {
                    v |= u64::from(*b) << (8 * i);
                }
                return ValueSet::constant(v, addr.width());
            }
        }
        ValueSet::top(addr.width())
    }

    /// Writes `value` (of `size` bytes) through a set of possible
    /// addresses: strong update for a unique address, weak update
    /// otherwise, full havoc for `Top`.
    pub fn write(&mut self, addrs: &ValueSet, value: ValueSet, size: u8) {
        if addrs.is_top() {
            self.havoc();
            return;
        }
        self.stamp = fresh_stamp();
        if let Some(single) = addrs.as_singleton() {
            Arc::make_mut(&mut self.entries).insert(single, (value, size));
            return;
        }
        for a in addrs.iter() {
            if let Some((old, s)) = self.entries.get(a) {
                let merged = if *s == size {
                    old.join(&value)
                } else {
                    ValueSet::top(a.width())
                };
                Arc::make_mut(&mut self.entries).insert(*a, (merged, size));
            }
            // Absent entries stay absent: absent already means Top.
        }
    }

    /// Forgets everything (a store through a completely unknown pointer).
    pub fn havoc(&mut self) {
        self.entries = Arc::new(BTreeMap::new());
        self.havocked = true;
        self.stamp = fresh_stamp();
    }

    /// Join: keep only entries present and mergeable in both memories.
    pub fn join(&self, other: &AbstractMemory) -> AbstractMemory {
        let havocked = self.havocked || other.havocked;
        // Both sides share the same map (fork that never wrote): reuse it.
        if Arc::ptr_eq(&self.entries, &other.entries) {
            return AbstractMemory {
                entries: Arc::clone(&self.entries),
                havocked,
                // The result has self's contents iff the havoc flag is
                // unchanged; otherwise it is a new content identity.
                stamp: if havocked == self.havocked {
                    self.stamp
                } else {
                    fresh_stamp()
                },
            };
        }
        let mut entries = BTreeMap::new();
        for (k, (v, s)) in self.entries.iter() {
            if let Some((v2, s2)) = other.entries.get(k) {
                if s == s2 {
                    entries.insert(*k, (v.join(v2), *s));
                }
            }
        }
        AbstractMemory {
            entries: Arc::new(entries),
            havocked,
            stamp: fresh_stamp(),
        }
    }
}

impl CacheKeyed for AbstractMemory {
    fn key_into(&self, h: &mut FingerprintHasher) {
        h.write_u8(u8::from(self.havocked));
        h.write_len(self.entries.len());
        // BTreeMap iteration order is the key order: deterministic.
        for (addr, (value, size)) in self.entries.iter() {
            addr.key_into(h);
            value.key_into(h);
            h.write_u8(*size);
        }
    }
}

/// The full abstract machine state of one analysis configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    regs: [ValueSet; 8],
    /// Abstract flags.
    pub flags: FlagsState,
    /// Abstract memory.
    pub memory: AbstractMemory,
}

impl AbsState {
    /// Fresh state: registers `Top`, `esp` at the scratch stack, flags
    /// unknown, memory all-high.
    pub fn new() -> Self {
        let mut s = AbsState {
            regs: std::array::from_fn(|_| ValueSet::top(32)),
            flags: FlagsState::top(),
            memory: AbstractMemory::new(),
        };
        s.set_reg(Reg::Esp, ValueSet::constant(0x00f0_0000, 32));
        s
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> &ValueSet {
        &self.regs[r as usize]
    }

    /// Writes a register (invalidating flag provenance that referred to
    /// its old value).
    pub fn set_reg(&mut self, r: Reg, v: ValueSet) {
        if self.flags.source.as_ref().is_some_and(|s| s.reg == r) {
            self.flags.source = None;
        }
        self.regs[r as usize] = v;
    }

    /// Installs a refined value for `r` *without* clearing flag provenance
    /// (used by branch refinement itself).
    pub fn refine_reg(&mut self, r: Reg, v: ValueSet) {
        self.regs[r as usize] = v;
    }

    /// Pointwise join of two states.
    pub fn join(&self, other: &AbsState) -> AbsState {
        AbsState {
            regs: std::array::from_fn(|i| self.regs[i].join(&other.regs[i])),
            flags: self.flags.join(&other.flags),
            memory: self.memory.join(&other.memory),
        }
    }
}

impl Default for AbsState {
    fn default() -> Self {
        AbsState::new()
    }
}

impl CacheKeyed for AbsState {
    fn key_into(&self, h: &mut FingerprintHasher) {
        for r in &self.regs {
            r.key_into(h);
        }
        self.flags.key_into(h);
        self.memory.key_into(h);
    }
}

impl fmt::Display for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in Reg::ALL {
            if !self.reg(r).is_top() {
                writeln!(f, "  {r} = {}", self.reg(r))?;
            }
        }
        writeln!(f, "  memory: {} entries", self.memory.len())
    }
}

/// The initial analysis state of a case-study binary: the symbol table
/// holding the low-input symbols (heap pointers), initial register values,
/// and pre-populated memory.
///
/// ```
/// use leakaudit_analyzer::InitState;
/// use leakaudit_core::ValueSet;
/// use leakaudit_x86::Reg;
///
/// let mut init = InitState::new();
/// let buf = init.fresh_heap_pointer("buf");
/// init.set_reg(Reg::Eax, ValueSet::singleton(buf));
/// // ecx holds the secret window index k ∈ {0..7}.
/// init.set_reg(Reg::Ecx, ValueSet::from_constants(0..8, 32));
/// ```
#[derive(Debug, Clone, Default)]
pub struct InitState {
    /// The symbol table (grows during analysis).
    pub table: SymbolTable,
    /// Initial state.
    pub state: AbsState,
}

impl InitState {
    /// Fresh initial state.
    pub fn new() -> Self {
        InitState {
            table: SymbolTable::new(),
            state: AbsState::new(),
        }
    }

    /// Allocates a fresh low-but-unknown heap pointer (the paper's
    /// `malloc` model, §4).
    pub fn fresh_heap_pointer(&mut self, name: &str) -> MaskedSymbol {
        let sym = self.table.fresh(name);
        MaskedSymbol::symbol(sym, 32)
    }

    /// Sets a register's initial value.
    pub fn set_reg(&mut self, r: Reg, v: ValueSet) -> &mut Self {
        self.state.set_reg(r, v);
        self
    }

    /// Pre-populates one memory word (e.g. an argument on the stack).
    pub fn write_mem(&mut self, addr: MaskedSymbol, value: ValueSet) -> &mut Self {
        self.state
            .memory
            .write(&ValueSet::singleton(addr), value, 4);
        self
    }
}

impl CacheKeyed for InitState {
    /// The initial-state half of the sweep service's cache key: the
    /// symbol table (low-input symbols) plus the full abstract machine
    /// state (registers, flags, pre-populated memory).
    fn key_into(&self, h: &mut FingerprintHasher) {
        self.table.key_into(h);
        self.state.key_into(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_x86::Asm;

    /// Registers are copied on every fork and every join, so the state
    /// stays within 512 bytes (440 on 64-bit targets, less on narrower
    /// ones).
    #[test]
    fn abs_state_stays_small() {
        assert!(std::mem::size_of::<AbsState>() <= 512);
    }

    fn empty_program() -> Program {
        let mut a = Asm::new(0x1000);
        a.hlt();
        a.assemble().unwrap()
    }

    #[test]
    fn absent_memory_is_high() {
        let mem = AbstractMemory::new();
        let p = empty_program();
        let addr = ValueSet::constant(0x9999_0000, 32);
        assert!(mem.read(&addr, 4, &p).is_top());
    }

    #[test]
    fn concrete_reads_fall_back_to_program_image() {
        let mut a = Asm::new(0x1000);
        a.hlt();
        a.section_at(0x8000);
        a.dd(&[0xdead_beef]);
        let p = a.assemble().unwrap();
        let mem = AbstractMemory::new();
        let v = mem.read(&ValueSet::constant(0x8000, 32), 4, &p);
        assert_eq!(v.as_constant(), Some(0xdead_beef));
        let b = mem.read(&ValueSet::constant(0x8001, 32), 1, &p);
        assert_eq!(b.as_constant(), Some(0xbe));
    }

    #[test]
    fn strong_then_weak_updates() {
        let p = empty_program();
        let mut mem = AbstractMemory::new();
        let a1 = ValueSet::constant(0x100, 32);
        let a2 = ValueSet::constant(0x104, 32);
        mem.write(&a1, ValueSet::constant(1, 32), 4);
        mem.write(&a2, ValueSet::constant(2, 32), 4);
        // Weak update through {0x100, 0x104}.
        let both = a1.join(&a2);
        mem.write(&both, ValueSet::constant(9, 32), 4);
        assert_eq!(mem.read(&a1, 4, &p), ValueSet::from_constants([1, 9], 32));
        assert_eq!(mem.read(&a2, 4, &p), ValueSet::from_constants([2, 9], 32));
    }

    #[test]
    fn size_mismatch_reads_top() {
        let p = empty_program();
        let mut mem = AbstractMemory::new();
        let a = ValueSet::constant(0x100, 32);
        mem.write(&a, ValueSet::constant(0xff, 32), 1);
        assert!(mem.read(&a, 4, &p).is_top());
        assert_eq!(mem.read(&a, 1, &p).as_constant(), Some(0xff));
    }

    #[test]
    fn havoc_hides_the_image() {
        let mut a = Asm::new(0x1000);
        a.hlt();
        a.section_at(0x8000);
        a.dd(&[42]);
        let p = a.assemble().unwrap();
        let mut mem = AbstractMemory::new();
        mem.write(&ValueSet::top(32), ValueSet::constant(0, 32), 4);
        assert!(mem.read(&ValueSet::constant(0x8000, 32), 4, &p).is_top());
    }

    #[test]
    fn join_keeps_common_entries() {
        let p = empty_program();
        let mut m1 = AbstractMemory::new();
        let mut m2 = AbstractMemory::new();
        let a = ValueSet::constant(0x100, 32);
        let b = ValueSet::constant(0x200, 32);
        m1.write(&a, ValueSet::constant(1, 32), 4);
        m2.write(&a, ValueSet::constant(2, 32), 4);
        m1.write(&b, ValueSet::constant(3, 32), 4);
        let j = m1.join(&m2);
        assert_eq!(j.read(&a, 4, &p), ValueSet::from_constants([1, 2], 32));
        assert!(j.read(&b, 4, &p).is_top(), "one-sided entries drop to Top");
    }

    #[test]
    fn state_join_registers_and_flags() {
        let mut s1 = AbsState::new();
        let mut s2 = AbsState::new();
        s1.set_reg(Reg::Eax, ValueSet::constant(1, 32));
        s2.set_reg(Reg::Eax, ValueSet::constant(2, 32));
        s1.flags.zf = AbstractBool::True;
        s2.flags.zf = AbstractBool::False;
        let j = s1.join(&s2);
        assert_eq!(*j.reg(Reg::Eax), ValueSet::from_constants([1, 2], 32));
        assert_eq!(j.flags.zf, AbstractBool::Top);
        assert_eq!(j.reg(Reg::Esp).as_constant(), Some(0x00f0_0000));
    }

    #[test]
    fn symbolic_keys_do_not_alias() {
        let p = empty_program();
        let mut init = InitState::new();
        let buf = init.fresh_heap_pointer("buf");
        let other = init.fresh_heap_pointer("other");
        let mut mem = AbstractMemory::new();
        mem.write(&ValueSet::singleton(buf), ValueSet::constant(7, 32), 4);
        assert_eq!(
            mem.read(&ValueSet::singleton(buf), 4, &p).as_constant(),
            Some(7)
        );
        assert!(mem.read(&ValueSet::singleton(other), 4, &p).is_top());
    }
}
