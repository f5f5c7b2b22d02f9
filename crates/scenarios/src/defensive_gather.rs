//! The defensive gather of OpenSSL 1.0.2g (paper Fig. 12), introduced in
//! response to CacheBleed: read *every* byte of every interleaved value
//! and select with a branchless mask, making even the full address trace
//! secret-independent (paper Fig. 14d: zero everywhere).
//!
//! The family shares its interleaving parameters with
//! [`crate::scatter_gather`]: `spacing` values of `value_bytes` bytes
//! each, analyzed at a chosen cache-line size.

use leakaudit_analyzer::InitState;
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Cond, Mem, Reg, Reg8};

use crate::scatter_gather::{value_byte, SPACING, VALUE_BYTES};
use crate::{Cases, ConcreteCase, Expected, Scenario};

/// `defensive_gather(r, buf, k)` from paper Fig. 12:
///
/// ```text
/// for i in 0..N:
///     r[i] := 0
///     for j in 0..spacing:
///         v := buf[j + i*spacing]
///         r[i] := r[i] | (v & (0 - (k == j)))
/// ```
///
/// The buffer walk is fully sequential (every byte), `k` only feeds the
/// `setcc`-based mask — there is no secret-dependent address or branch
/// left, for *any* interleaving width.
///
/// # Panics
///
/// Panics unless `spacing` is a power of two in `2..=64` and
/// `value_bytes > 0`.
pub fn variant(spacing: u32, value_bytes: u32, block_bits: u8) -> Scenario {
    assert!(
        spacing.is_power_of_two() && (2..=64).contains(&spacing),
        "spacing must be a power of two in 2..=64"
    );
    assert!(value_bytes > 0, "values must be non-empty");
    let mut a = Asm::new(0x4e000);
    // align(buf), as in 1.0.2f.
    a.and(Reg::Eax, 0xffff_ffc0u32);
    a.add(Reg::Eax, 0x40u32);
    // end-of-r sentinel on the stack (register pressure, like -O2).
    a.mov(Reg::Esi, Reg::Edi);
    a.add(Reg::Esi, value_bytes);
    a.push_op(Reg::Esi);
    a.label("outer");
    a.xor(Reg::Ebx, Reg::Ebx); // acc = 0
    a.xor(Reg::Ebp, Reg::Ebp); // j = 0
    a.label("inner");
    a.movzx(Reg::Esi, Mem::reg(Reg::Eax)); // v = buf[j + i*spacing]
    a.xor(Reg::Edx, Reg::Edx);
    a.cmp(Reg::Ecx, Reg::Ebp); // k == j ?
    a.setcc(Cond::E, Reg8::Dl);
    a.neg(Reg::Edx); // mask = 0 - s
    a.and(Reg::Esi, Reg::Edx); // v & mask
    a.or(Reg::Ebx, Reg::Esi); // acc |= ...
    a.inc(Reg::Eax); // buf cursor (sequential walk)
    a.inc(Reg::Ebp);
    a.cmp(Reg::Ebp, spacing);
    a.jne("inner");
    a.mov_store_b(Mem::reg(Reg::Edi), Reg8::Bl); // r[i] = acc
    a.inc(Reg::Edi);
    a.cmp(Reg::Edi, Mem::reg(Reg::Esp)); // i loop: r cursor vs sentinel
    a.jne("outer");
    a.hlt();

    let program = a.assemble().expect("scenario assembles");

    let mut init = InitState::new();
    let buf = init.fresh_heap_pointer("buf");
    let r = init.fresh_heap_pointer("r");
    init.set_reg(Reg::Eax, ValueSet::singleton(buf));
    init.set_reg(Reg::Edi, ValueSet::singleton(r));
    init.set_reg(
        Reg::Ecx,
        ValueSet::from_constants(0..u64::from(spacing), 32),
    );

    let cases = Cases::new(move || {
        let mut cases = Vec::new();
        for (layout, (buf_raw, r_base)) in
            [(0x080e_b0c4u32, 0x080e_a000u32), (0x0910_0011, 0x0920_0100)]
                .into_iter()
                .enumerate()
        {
            let aligned = buf_raw - (buf_raw & 63) + 64;
            for k in 0..spacing {
                let mut bytes = Vec::new();
                for kk in 0..spacing {
                    for i in 0..value_bytes {
                        bytes.push((aligned + kk + i * spacing, value_byte(kk, i)));
                    }
                }
                let expected: Vec<u8> = (0..value_bytes).map(|i| value_byte(k, i)).collect();
                cases.push(ConcreteCase {
                    label: format!("k={k}, layout {layout}"),
                    layout,
                    regs: vec![(Reg::Eax, buf_raw), (Reg::Ecx, k), (Reg::Edi, r_base)],
                    bytes,
                    expect_mem: vec![(r_base, expected)],
                });
            }
        }
        cases
    });

    Scenario {
        name: format!("defensive-gather[s={spacing},n={value_bytes},b={block_bits}]"),
        paper_ref: String::from("Fig. 12 family (parameterized interleaving)"),
        program,
        init,
        block_bits,
        expected: Expected::unknown(),
        cases,
    }
}

/// The paper's instance: 8 interleaved 384-byte values, 64-byte lines,
/// with the published name and the Fig. 14d expectations (zero
/// everywhere).
pub fn openssl_102g() -> Scenario {
    let mut s = variant(SPACING, VALUE_BYTES, 6);
    s.name = String::from("defensive-gather-1.0.2g");
    s.paper_ref = String::from("Fig. 14d (leakage), Fig. 12 (code), Fig. 13 (bank layout)");
    s.expected = Expected {
        icache: [0.0, 0.0, 0.0],
        dcache: [0.0, 0.0, 0.0],
        dcache_bank: Some(0.0),
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    #[test]
    fn reproduces_fig_14d_zero_everywhere() {
        let report = openssl_102g().analyze().unwrap();
        for obs in [
            Observer::address(),
            Observer::block(6),
            Observer::block(6).stuttering(),
            Observer::bank(),
            Observer::page(),
        ] {
            assert_eq!(report.icache_bits(obs), 0.0, "I {obs}");
            assert_eq!(report.dcache_bits(obs), 0.0, "D {obs}");
        }
    }

    #[test]
    fn proof_holds_for_narrow_variants_too() {
        // 4 values of 64 bytes: the defensive walk is still sequential,
        // so every observer still sees nothing.
        let s = variant(4, 64, 6);
        let report = s.analyze().unwrap();
        assert_eq!(report.dcache_bits(Observer::address()), 0.0);
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
        s.emulate(&s.cases[1]).unwrap();
    }

    #[test]
    fn full_address_traces_are_secret_independent() {
        let s = openssl_102g();
        let t0 = s.emulate(&s.cases[0]).unwrap();
        let base = t0.all_addresses();
        for case in &s.cases[1..4] {
            let t = s.emulate(case).unwrap();
            assert_eq!(t.all_addresses(), base, "{}", case.label);
        }
    }

    #[test]
    fn still_selects_the_right_value() {
        let s = openssl_102g();
        for case in s.cases.iter().take(2) {
            s.emulate(case).unwrap(); // post-condition asserted inside
        }
    }
}
