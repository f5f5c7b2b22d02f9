//! Square-and-multiply modular exponentiation (paper Fig. 5, libgcrypt
//! 1.5.2) — the unprotected baseline whose conditional multiplication was
//! exploited by prime+probe and flush+reload attacks.
//!
//! The family is parameterized by the *code layout* of the
//! multi-precision stubs (how far apart `mpi_sqr`/`mpi_mod`/`mpi_mul`
//! land in memory) and by the cache-line size of the analyzed
//! architecture. The paper's instance places each stub in its own
//! 64-byte line; packing them into one line is the layout question of
//! Figs. 9/15 asked of this countermeasure.

use leakaudit_analyzer::InitState;
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Mem, Reg};

use crate::{Cases, ConcreteCase, Expected, Scenario};

/// Base address of the multi-precision stubs.
const STUBS: u32 = 0x41b00;

/// One loop iteration of square-and-multiply (paper Fig. 5 lines 3–7):
///
/// ```text
/// r := mpi_sqr(r); r := mpi_mod(r, m);
/// if e_i = 1 then r := mpi_mul(b, r); r := mpi_mod(r, m)
/// ```
///
/// The exponent window `e_i` is the secret (`edx`, `secret_bits` wide:
/// the paper's bitwise loop uses width 1, `edx ∈ {0, 1}`; wider windows
/// model the sliding-window loops of later libgcrypt versions, where the
/// multiply is skipped exactly for the all-zero window); `ebp`/`esi`
/// hold the dynamically allocated `r`/`b`. With the paper's layout the
/// multiply path fetches code from separate cache lines *and* reads `b`
/// — exactly the instruction- and data-cache leaks of the paper's
/// Fig. 7a.
///
/// `stub_stride` is the distance in bytes between consecutive stubs
/// (`mpi_sqr`, `mpi_mod`, `mpi_mul`); the paper's binary uses `0x40`
/// (one stub per 64-byte line). `block_bits` sets the cache-line size of
/// the analyzed architecture.
///
/// # Panics
///
/// Panics if `stub_stride < 8` (stubs would overlap) or `secret_bits`
/// is outside `1..=8`.
pub fn variant(stub_stride: u32, secret_bits: u32, block_bits: u8) -> Scenario {
    assert!(stub_stride >= 8, "stubs are up to 8 bytes long");
    assert!(
        (1..=8).contains(&secret_bits),
        "secret windows of 1..=8 bits are supported"
    );
    let sqr = STUBS;
    let modred = STUBS + stub_stride;
    let mul = STUBS + 2 * stub_stride;

    let mut a = Asm::new(0x41a00);
    a.call(sqr);
    a.call(modred);
    a.test(Reg::Edx, Reg::Edx);
    a.je("skip"); // e_i = 0: no multiplication
    a.call(mul);
    a.call(modred);
    a.label("skip");
    a.hlt();

    // mpi stubs: representative first access of each routine.
    a.section_at(sqr);
    a.mov(Reg::Eax, Mem::reg(Reg::Ebp)); // reads r
    a.ret();
    a.section_at(modred);
    a.mov(Reg::Eax, Mem::reg(Reg::Ebp));
    a.ret();
    a.section_at(mul);
    a.mov(Reg::Eax, Mem::reg(Reg::Esi)); // reads b
    a.mov(Reg::Ecx, Mem::reg(Reg::Ebp)); // and r
    a.ret();

    let program = a.assemble().expect("scenario assembles");

    let mut init = InitState::new();
    let r = init.fresh_heap_pointer("r");
    let b = init.fresh_heap_pointer("b");
    init.set_reg(Reg::Ebp, ValueSet::singleton(r));
    init.set_reg(Reg::Esi, ValueSet::singleton(b));
    // The secret exponent window.
    init.set_reg(
        Reg::Edx,
        ValueSet::from_constants(0..1u64 << secret_bits, 32),
    );

    let cases = Cases::new(move || {
        let mut cases = Vec::new();
        for (layout, (r_base, b_base)) in
            [(0x080e_b000u32, 0x080e_c000u32), (0x0910_0040, 0x0920_0100)]
                .into_iter()
                .enumerate()
        {
            // Concrete validation covers the boundary windows (0, 1, max);
            // wider windows take the same two paths as 1.
            let mut windows = vec![0u32, 1];
            let max = (1u32 << secret_bits) - 1;
            if max > 1 {
                windows.push(max);
            }
            for window in windows {
                cases.push(ConcreteCase {
                    label: format!("e_i={window}, layout {layout}"),
                    layout,
                    regs: vec![(Reg::Ebp, r_base), (Reg::Esi, b_base), (Reg::Edx, window)],
                    bytes: Vec::new(),
                    expect_mem: Vec::new(),
                });
            }
        }
        cases
    });

    let w = if secret_bits == 1 {
        String::new()
    } else {
        format!(",w={secret_bits}")
    };
    Scenario {
        name: format!("square-and-multiply[stride={stub_stride:#x}{w},b={block_bits}]"),
        paper_ref: String::from("Fig. 5 family (parameterized layout)"),
        program,
        init,
        block_bits,
        expected: Expected::unknown(),
        cases,
    }
}

/// The paper's instance: one stub per 64-byte line, 64-byte cache lines,
/// with the published name and the Fig. 7a expectations (1 bit
/// everywhere).
pub fn libgcrypt_152() -> Scenario {
    let mut s = variant(0x40, 1, 6);
    s.name = String::from("square-and-multiply-1.5.2");
    s.paper_ref = String::from("Fig. 7a (leakage), Fig. 5 (algorithm)");
    s.expected = Expected {
        icache: [1.0, 1.0, 1.0],
        dcache: [1.0, 1.0, 1.0],
        dcache_bank: None,
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    #[test]
    fn reproduces_fig_7a() {
        let s = libgcrypt_152();
        let report = s.analyze().unwrap();
        for (i, obs) in [
            Observer::address(),
            Observer::block(6),
            Observer::block(6).stuttering(),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(report.icache_bits(*obs), s.expected.icache[i], "I {obs}");
            assert_eq!(report.dcache_bits(*obs), s.expected.dcache[i], "D {obs}");
        }
    }

    #[test]
    fn emulator_traces_differ_by_exponent_bit() {
        let s = libgcrypt_152();
        let t0 = s.emulate(&s.cases[0]).unwrap();
        let t1 = s.emulate(&s.cases[1]).unwrap();
        assert_ne!(
            t0.fetch_addresses(),
            t1.fetch_addresses(),
            "the multiply path executes extra code"
        );
        assert_ne!(t0.data_addresses(), t1.data_addresses());
    }

    #[test]
    fn packed_stub_layout_still_leaks_through_the_stuttering_block_trace() {
        // All three stubs inside one 64-byte line: the multiply path
        // still *re-enters* the stub line after touching the call-site
        // line, so even the stuttering block observer sees the
        // difference — layout alone cannot fix square-and-multiply.
        let s = variant(0x10, 1, 6);
        let report = s.analyze().unwrap();
        assert!(report.icache_bits(Observer::block(6).stuttering()) >= 1.0);
        // The D-cache leak (reading b) is layout-independent.
        assert_eq!(report.dcache_bits(Observer::address()), 1.0);
    }

    #[test]
    fn wider_secret_windows_keep_the_one_bit_branch_leak() {
        // The observable is still the taken/skipped multiply: a 4-bit
        // window leaks the same 1 bit (zero vs non-zero), not 4.
        let s = variant(0x40, 4, 6);
        let report = s.analyze().unwrap();
        assert_eq!(report.icache_bits(Observer::address()), 1.0);
        assert_eq!(report.dcache_bits(Observer::address()), 1.0);
        assert_eq!(s.name, "square-and-multiply[stride=0x40,w=4,b=6]");
        // Concrete boundary windows emulate cleanly on both paths.
        let t0 = s.emulate(&s.cases[0]).unwrap();
        let tmax = s.emulate(s.cases.last().unwrap()).unwrap();
        assert_ne!(t0.fetch_addresses(), tmax.fetch_addresses());
    }
}
