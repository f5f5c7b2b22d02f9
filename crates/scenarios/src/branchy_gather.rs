//! A gather loop with a secret-indexed *branch* in the hot path — the
//! anti-pattern the defensive copies of Figs. 11/12 exist to avoid,
//! distilled to its essence: walk a public table and do extra work
//! exactly at the secret index.
//!
//! No shipped library looks like this on purpose; it models the
//! accidental variant (an early-exit compare, a debug hook, a bounds
//! check hoisted wrong) where one loop iteration takes a different
//! instruction path for one secret value. Every iteration that *could*
//! match forks the analysis on the undecided compare, so the family is
//! the registry's stress test for fork-dense hot loops: the interpreter
//! must replay the same two-sided loop body once per secret candidate
//! per round.

use leakaudit_analyzer::InitState;
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Mem, Reg};

use crate::{ConcreteCase, Expected, Scenario};

/// Image address of the guard word the loop reloads every trip. A page
/// past the code so the data block stays distinct from every fetch
/// block at any granularity the sweeps use.
const GUARD: u32 = 0x4_f000;

/// One gather loop with a secret-guarded accumulate (pseudo-code):
///
/// ```text
/// acc := 0
/// for i in 0..rounds:
///     g := guard          // constant reload (a liveness canary)
///     v := p[i]
///     if i == k:          // k secret — the leaking branch
///         acc := acc + v
///         acc := acc + 5
///     acc := acc ^ v
/// ```
///
/// The guard reload is the loop's memoizable kernel: its only input is
/// the memory stamp (no registers, no flags), so its transfer replays
/// from the interpreter memo on every trip — including trips taken
/// while a matched sibling is parked in the cold section. The table
/// load right after it reads through `ebx`, whose value is fresh each
/// trip, so it always misses.
///
/// `ecx` holds the secret index `k ∈ {0..entries-1}`; `ebx` holds the
/// dynamically allocated table `p` of `rounds` 32-bit words; the guard
/// word lives in the image at `GUARD` (`0x4f000`). Iterations
/// `i < entries` fork on the undecided `i == k` compare (both paths are
/// possible); iterations `i >= entries` decide the compare and stay
/// lone — `rounds > entries` mixes forked and straight-line trips of
/// the same loop body.
///
/// The matched body is laid out *cold*, after the loop — the compiler
/// idiom for an unlikely path. The layout is load-bearing for the
/// memo: the hot not-matched path then sits entirely below the address
/// where the matched sibling parks, so the lowest-pc-first scheduler
/// keeps stepping (and replaying) the loop while the sibling waits.
///
/// # Panics
///
/// Panics if `entries` or `rounds` is zero, or `entries > rounds`
/// (secret indices past the walked prefix would never be compared).
pub fn variant(entries: u32, rounds: u32, block_bits: u8) -> Scenario {
    assert!(entries > 0 && rounds > 0, "loop must be non-empty");
    assert!(entries <= rounds, "every secret index must be reachable");
    let mut a = Asm::new(0x4e000);
    a.mov(Reg::Edx, 0u32); // i
    a.xor(Reg::Eax, Reg::Eax); // acc
    a.label("loop");
    a.mov(Reg::Edi, Mem::abs(GUARD)); // g = guard (constant reload)
    a.mov(Reg::Esi, Mem::reg(Reg::Ebx)); // v = p[i]
    a.cmp(Reg::Ecx, Reg::Edx); // i == k? (undecided while i < entries)
    a.je("matched"); // the secret match takes the out-of-line path
    a.label("back");
    a.xor(Reg::Eax, Reg::Esi); // acc ^= v
    a.add(Reg::Ebx, 4u32);
    a.inc(Reg::Edx);
    a.cmp(Reg::Edx, rounds);
    a.jne("loop");
    a.hlt();
    // Cold section: the matched accumulate, jumped back into the loop.
    a.label("matched");
    a.add(Reg::Eax, Reg::Esi); // acc += v
    a.add(Reg::Eax, 5u32);
    a.jmp("back");
    // The guard word, in its own block even at 4 KiB granularity.
    a.section_at(GUARD);
    a.dd(&[0x600d_cafe]);

    let program = a.assemble().expect("scenario assembles");

    let mut init = InitState::new();
    let p = init.fresh_heap_pointer("p");
    init.set_reg(Reg::Ebx, ValueSet::singleton(p));
    init.set_reg(
        Reg::Ecx,
        ValueSet::from_constants(0..u64::from(entries), 32),
    );

    let mut cases = Vec::new();
    for (layout, p_base) in [0x080e_d000u32, 0x0930_0080].into_iter().enumerate() {
        let mut bytes = Vec::new();
        for j in 0..(4 * rounds) {
            bytes.push((p_base + j, table_byte(j)));
        }
        for k in 0..entries {
            cases.push(ConcreteCase {
                label: format!("k={k}, layout {layout}"),
                layout,
                regs: vec![(Reg::Ebx, p_base), (Reg::Ecx, k)],
                bytes: bytes.clone(),
                expect_mem: Vec::new(),
            });
        }
    }

    Scenario {
        name: format!("branchy-gather[e={entries},r={rounds},b={block_bits}]"),
        paper_ref: String::from("anti-pattern of Figs. 11/12 (secret-guarded loop body)"),
        program,
        init,
        block_bits,
        expected: Expected::unknown(),
        cases,
    }
}

/// Deterministic table contents for functional validation.
pub fn table_byte(offset: u32) -> u8 {
    (offset.wrapping_mul(29) ^ 0xa3) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    #[test]
    fn secret_guarded_branch_leaks_through_the_icache() {
        // The matched path fetches extra code at exactly one loop trip:
        // the address-level I-cache observer separates every secret.
        let s = variant(8, 12, 6);
        let report = s.analyze().unwrap();
        // The sound upper bound must admit at least the log2(8) bits
        // the 8 distinct fetch traces actually reveal.
        assert!(report.icache_bits(Observer::address()) >= 3.0);
        assert_eq!(s.name, "branchy-gather[e=8,r=12,b=6]");
    }

    #[test]
    fn fork_dense_loop_hits_the_transfer_memo() {
        // The registry's purpose for this family: every candidate
        // iteration forks, and the loop's guard-reload kernel must
        // still replay from the interpreter memo, with rows identical
        // to the naive interpreter's.
        let s = variant(8, 12, 6);
        let report = s.analyze().unwrap();
        let profile = report.profile();
        assert!(
            profile.transfer_hits > 0,
            "interpreter never hit the transfer memo: {profile:?}"
        );
        let mut naive = s.analysis_config();
        naive.interp_memo = false;
        let naive = leakaudit_analyzer::Analysis::new(naive).run(&s).unwrap();
        assert_eq!(report.rows(), naive.rows(), "memo on = memo off");
    }

    #[test]
    fn emulator_traces_differ_by_secret_index() {
        let s = variant(4, 6, 6);
        let t0 = s.emulate(&s.cases[0]).unwrap();
        let t1 = s.emulate(&s.cases[1]).unwrap();
        assert_ne!(
            t0.fetch_addresses(),
            t1.fetch_addresses(),
            "the matched path executes extra code"
        );
        // The data accesses are the constant table walk.
        assert_eq!(t0.data_addresses(), t1.data_addresses());
    }

    #[test]
    fn every_secret_emulates_cleanly() {
        let s = variant(4, 6, 6);
        for case in &s.cases {
            s.emulate(case).unwrap();
        }
    }
}
