//! The scatter/gather countermeasure of OpenSSL 1.0.2f (paper §2, Fig. 3):
//! pre-computed values are interleaved byte-wise so that retrieving any of
//! them touches the *same sequence of cache lines* — but not the same
//! sequence of addresses or cache banks, which is the CacheBleed attack
//! surface (paper §8.4, Fig. 14c).
//!
//! The family is parameterized by the interleaving width (`spacing`, the
//! number of pre-computed values), the value size in bytes, whether the
//! `align` step runs at all (the ablation that destroys the proof), and
//! the cache-line size of the analyzed architecture.

use leakaudit_analyzer::InitState;
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Mem, Reg, Reg8};

use crate::{Cases, ConcreteCase, Expected, Scenario};

/// Number of interleaved pre-computed values in the paper's instance
/// (`spacing` in Fig. 3).
pub const SPACING: u32 = 8;
/// Bytes per 3072-bit value in the paper's instance (`N` in Fig. 3).
pub const VALUE_BYTES: u32 = 384;

/// `align(buf)` + `gather(r, buf, k)` from paper Fig. 3, compiled like
/// gcc -O2 compiles it (the `align` is exactly paper Ex. 5's two
/// instructions):
///
/// ```text
/// buf := buf - (buf & 63) + 64      (omitted when !aligned)
/// for i in 0..N: r[i] := buf[k + i*spacing]
/// ```
///
/// `eax` holds the raw (unaligned, dynamically allocated) buffer pointer —
/// a fresh symbol; `ecx` the secret value index `k ∈ {0..spacing-1}`;
/// `edi` the destination.
///
/// With `aligned = false` the paper's block-trace proof must disappear:
/// with a raw (unknown) buffer pointer the set `{buf + k + spacing·i}`
/// may or may not straddle a line boundary depending on the allocation,
/// and the analyzer can no longer bound the block-trace leakage by 0 —
/// the align instruction is load-bearing, and the analysis fails closed.
///
/// # Panics
///
/// Panics unless `spacing` is a power of two in `2..=64` and
/// `value_bytes > 0`.
pub fn variant(spacing: u32, value_bytes: u32, aligned: bool, block_bits: u8) -> Scenario {
    assert!(
        spacing.is_power_of_two() && (2..=64).contains(&spacing),
        "spacing must be a power of two in 2..=64"
    );
    assert!(value_bytes > 0, "values must be non-empty");
    let mut a = Asm::new(if aligned { 0x4d000 } else { 0x4d800 });
    if aligned {
        // align: paper Ex. 5 / Ex. 6.
        a.and(Reg::Eax, 0xffff_ffc0u32);
        a.add(Reg::Eax, 0x40u32);
    }
    // gather
    a.add(Reg::Ecx, Reg::Eax); // ptr = base + k
    a.mov(Reg::Edx, value_bytes); // i counter
    a.label("gather");
    a.movzx(Reg::Ebx, Mem::reg(Reg::Ecx)); // buf[k + i*spacing]
    a.mov_store_b(Mem::reg(Reg::Edi), Reg8::Bl); // r[i] = byte
    a.add(Reg::Ecx, spacing);
    a.add(Reg::Edi, 1u32);
    a.dec(Reg::Edx);
    a.jne("gather");
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
            let base = if aligned {
                buf_raw - (buf_raw & 63) + 64
            } else {
                buf_raw
            };
            for k in 0..spacing {
                // Host-side scatter: buf[k' + i*spacing] = byte i of value k'.
                let mut bytes = Vec::new();
                for kk in 0..spacing {
                    for i in 0..value_bytes {
                        bytes.push((base + kk + i * spacing, value_byte(kk, i)));
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

    let align_tag = if aligned { "aligned" } else { "unaligned" };
    Scenario {
        name: format!("scatter-gather[s={spacing},n={value_bytes},{align_tag},b={block_bits}]"),
        paper_ref: String::from("Fig. 3 family (parameterized interleaving)"),
        program,
        init,
        block_bits,
        expected: Expected::unknown(),
        cases,
    }
}

/// The paper's instance: 8 interleaved 384-byte values, aligned, 64-byte
/// lines, with the published name and the Fig. 14c expectations.
pub fn openssl_102f() -> Scenario {
    let mut s = variant(SPACING, VALUE_BYTES, true, 6);
    s.name = String::from("scatter-gather-1.0.2f");
    s.paper_ref = String::from("Fig. 14c (leakage), Figs. 2/3 (layout/code), §8.4 CacheBleed");
    s.expected = Expected {
        icache: [0.0, 0.0, 0.0],
        // 3 bits per access × 384 accesses = 1152 bit at address
        // granularity; 0 at block granularity (the proof).
        dcache: [1152.0, 0.0, 0.0],
        // CacheBleed: 1 bit per access × 384 accesses.
        dcache_bank: Some(384.0),
    };
    s
}

/// Deterministic value bytes for functional validation of the gather.
pub fn value_byte(value: u32, offset: u32) -> u8 {
    (value.wrapping_mul(73) ^ offset.wrapping_mul(29) ^ 0xa5) as u8
}

/// Ablation: the same gather **without the `align` step** (see
/// [`variant`] with `aligned = false`), under its published name.
pub fn openssl_102f_unaligned() -> Scenario {
    let mut s = variant(SPACING, VALUE_BYTES, false, 6);
    s.name = String::from("scatter-gather-unaligned-ablation");
    s.paper_ref = String::from("ablation of Fig. 14c: align removed, proof must disappear");
    s.expected = Expected {
        icache: [0.0, 0.0, 0.0],
        // No exact D-cache expectation: the point is block > 0 (no proof).
        dcache: [f64::NAN, f64::NAN, f64::NAN],
        dcache_bank: None,
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    #[test]
    fn reproduces_fig_14c() {
        let s = openssl_102f();
        let report = s.analyze().unwrap();
        // I-cache: deterministic loop, nothing anywhere.
        for obs in [
            Observer::address(),
            Observer::block(6),
            Observer::block(6).stuttering(),
        ] {
            assert_eq!(report.icache_bits(obs), 0.0, "I {obs}");
        }
        // D-cache: the paper's headline numbers.
        assert_eq!(report.dcache_bits(Observer::address()), 1152.0);
        assert_eq!(report.dcache_bits(Observer::block(6)), 0.0, "the proof");
        assert_eq!(report.dcache_bits(Observer::block(6).stuttering()), 0.0);
        assert_eq!(report.dcache_bits(Observer::bank()), 384.0, "CacheBleed");
    }

    #[test]
    fn ablation_without_align_loses_the_block_proof() {
        let s = openssl_102f_unaligned();
        let report = s.analyze().unwrap();
        // The countermeasure's essential ingredient is gone: the analyzer
        // must NOT report 0 bits at block granularity any more.
        assert!(
            report.dcache_bits(Observer::block(6)) > 0.0,
            "removing align must destroy the block-trace proof"
        );
        // The binary still computes the right thing, though.
        s.emulate(&s.cases[2]).unwrap();
    }

    #[test]
    fn gather_assembles_the_right_value() {
        let s = openssl_102f();
        for case in s.cases.iter().take(3) {
            // emulate() asserts r == value k byte-for-byte.
            s.emulate(case).unwrap();
        }
    }

    #[test]
    fn narrow_interleaving_proof_scales_with_spacing() {
        // 4 values of 64 bytes: the proof argument is the same — the
        // aligned walk covers the same lines for every k < spacing.
        let s = variant(4, 64, true, 6);
        let report = s.analyze().unwrap();
        assert_eq!(report.dcache_bits(Observer::block(6)), 0.0);
        // 2 bits per access × 64 accesses at address granularity.
        assert_eq!(report.dcache_bits(Observer::address()), 128.0);
        s.emulate(&s.cases[1]).unwrap();
    }

    #[test]
    fn block_traces_are_secret_independent_but_bank_traces_differ() {
        let s = openssl_102f();
        let block = Observer::block(6);
        let bank = Observer::bank();
        let t0 = s.emulate(&s.cases[0]).unwrap();
        let base_blocks = block.view_concrete(&t0.data_addresses());
        let base_banks = bank.view_concrete(&t0.data_addresses());
        let mut bank_differs = false;
        for case in &s.cases[1..SPACING as usize] {
            let t = s.emulate(case).unwrap();
            assert_eq!(
                block.view_concrete(&t.data_addresses()),
                base_blocks,
                "{}: cache-line trace must be constant",
                case.label
            );
            if bank.view_concrete(&t.data_addresses()) != base_banks {
                bank_differs = true;
            }
        }
        assert!(bank_differs, "CacheBleed observes bank differences");
    }
}
