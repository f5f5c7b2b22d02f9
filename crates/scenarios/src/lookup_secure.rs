//! The defensive table lookup of libgcrypt 1.6.3 / NaCl (paper Fig. 11):
//! copy *every* table entry with a branchless mask so that the sequence of
//! memory accesses is a constant — the paper's Fig. 14b proves 0 bits of
//! leakage to every observer.
//!
//! The family is parameterized by the table shape: `entries` pre-computed
//! values of `words` 32-bit words each (the paper's window-3
//! exponentiation uses 7 × 96), and by the analyzed cache-line size.

use leakaudit_analyzer::InitState;
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Cond, Mem, Reg, Reg8};

use crate::{ConcreteCase, Expected, Scenario};

/// Number of pre-computed values in the paper's instance (the window
/// size 3 minus the `1` handled separately: 7 entries, paper §8.4).
pub const ENTRIES: u32 = 7;
/// Words per 3072-bit entry in the paper's instance (384 bytes).
pub const WORDS: u32 = 96;

/// `secure_retrieve` (paper Fig. 11):
///
/// ```text
/// for i in 0..n:
///     s := (i == k)
///     for j in 0..N: r[j] ^= (0 - s) & (r[j] ^ p[i][j])
/// ```
///
/// `ecx` holds the secret index `k ∈ {0..entries-1}`; `ebx`/`edi` hold
/// the heap table `p` and destination `r`. Register allocation mirrors a
/// `-O2` build: the inner loop compares pointers (paper Ex. 7) instead
/// of keeping an index.
///
/// `pad_words` spaces consecutive table entries by that many unused
/// 32-bit words (`0` = the paper's packed layout): a page-aligned table
/// stride (e.g. entries padded out to 1 KiB rows) models libgcrypt's
/// allocator rounding, and the branchless copy must stay 0-bit no
/// matter how the entries are strided — every run still touches the
/// same addresses in the same order.
///
/// # Panics
///
/// Panics if `entries` or `words` is zero.
pub fn variant(entries: u32, words: u32, pad_words: u32, block_bits: u8) -> Scenario {
    assert!(entries > 0 && words > 0, "table must be non-empty");
    let mut a = Asm::new(0x4c000);
    // ebp = r + 4·words: the inner loop's end pointer (compiled guard).
    a.mov(Reg::Ebp, Reg::Edi);
    a.add(Reg::Ebp, 4 * words);
    a.mov(Reg::Esi, 0u32); // i
    a.label("outer");
    // mask = 0 - (i == k), branchless.
    a.xor(Reg::Eax, Reg::Eax);
    a.cmp(Reg::Ecx, Reg::Esi);
    a.setcc(Cond::E, Reg8::Al);
    a.neg(Reg::Eax);
    a.label("inner");
    a.mov(Reg::Edx, Mem::reg(Reg::Ebx)); // p[i][j]
    a.xor(Reg::Edx, Mem::reg(Reg::Edi)); // ^ r[j]
    a.and(Reg::Edx, Reg::Eax); // & mask
    a.xor(Mem::reg(Reg::Edi), Reg::Edx); // r[j] ^= ...
    a.add(Reg::Ebx, 4u32);
    a.add(Reg::Edi, 4u32);
    a.cmp(Reg::Edi, Reg::Ebp);
    a.jne("inner");
    a.sub(Reg::Edi, 4 * words); // rewind r for the next entry
    if pad_words > 0 {
        a.add(Reg::Ebx, 4 * pad_words); // skip the entry padding
    }
    a.inc(Reg::Esi);
    a.cmp(Reg::Esi, entries);
    a.jne("outer");
    a.hlt();

    let program = a.assemble().expect("scenario assembles");

    let mut init = InitState::new();
    let p = init.fresh_heap_pointer("p");
    let r = init.fresh_heap_pointer("r");
    init.set_reg(Reg::Ebx, ValueSet::singleton(p));
    init.set_reg(Reg::Edi, ValueSet::singleton(r));
    init.set_reg(
        Reg::Ecx,
        ValueSet::from_constants(0..u64::from(entries), 32),
    );

    let mut cases = Vec::new();
    for (layout, (p_base, r_base)) in [(0x080e_c000u32, 0x080e_b000u32), (0x0920_0100, 0x0910_0040)]
        .into_iter()
        .enumerate()
    {
        for k in 0..entries {
            // Fill the table with a recognizable per-entry pattern and
            // zero the destination; afterwards r must equal entry k.
            let entry_stride = 4 * (words + pad_words);
            let mut bytes = Vec::new();
            for i in 0..entries {
                for j in 0..(4 * words) {
                    bytes.push((p_base + i * entry_stride + j, entry_byte(i, j)));
                }
            }
            for j in 0..(4 * words) {
                bytes.push((r_base + j, 0));
            }
            let expected: Vec<u8> = (0..(4 * words)).map(|j| entry_byte(k, j)).collect();
            cases.push(ConcreteCase {
                label: format!("k={k}, layout {layout}"),
                layout,
                regs: vec![(Reg::Ebx, p_base), (Reg::Edi, r_base), (Reg::Ecx, k)],
                bytes,
                expect_mem: vec![(r_base, expected)],
            });
        }
    }

    let p = if pad_words == 0 {
        String::new()
    } else {
        format!(",p={pad_words}")
    };
    Scenario {
        name: format!("secure-retrieve[e={entries},w={words}{p},b={block_bits}]"),
        paper_ref: String::from("Fig. 11 family (parameterized table shape)"),
        program,
        init,
        block_bits,
        expected: Expected::unknown(),
        cases,
    }
}

/// The paper's instance: 7 entries of 96 words, 64-byte lines, with the
/// published name and the Fig. 14b expectations (zero everywhere).
pub fn libgcrypt_163() -> Scenario {
    let mut s = variant(ENTRIES, WORDS, 0, 6);
    s.name = String::from("secure-retrieve-1.6.3");
    s.paper_ref = String::from("Fig. 14b (leakage), Fig. 11 (code)");
    s.expected = Expected {
        icache: [0.0, 0.0, 0.0],
        dcache: [0.0, 0.0, 0.0],
        dcache_bank: Some(0.0),
    };
    s
}

/// Deterministic table contents for functional validation.
pub fn entry_byte(entry: u32, offset: u32) -> u8 {
    (entry.wrapping_mul(37) ^ offset.wrapping_mul(11) ^ 0x5a) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    #[test]
    fn reproduces_fig_14b_zero_everywhere() {
        let report = libgcrypt_163().analyze().unwrap();
        for obs in [
            Observer::address(),
            Observer::block(6),
            Observer::block(6).stuttering(),
            Observer::bank(),
            Observer::page(),
        ] {
            assert_eq!(report.icache_bits(obs), 0.0, "I {obs}");
            assert_eq!(report.dcache_bits(obs), 0.0, "D {obs}");
            assert_eq!(report.shared_bits(obs), 0.0, "shared {obs}");
        }
    }

    #[test]
    fn proof_holds_for_smaller_tables() {
        // 3 entries of 24 words: the branchless copy stays branchless.
        let s = variant(3, 24, 0, 6);
        let report = s.analyze().unwrap();
        assert_eq!(report.dcache_bits(Observer::address()), 0.0);
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
        // The functional post-condition holds for each secret index.
        for case in s.cases.iter().take(3) {
            s.emulate(case).unwrap();
        }
    }

    #[test]
    fn proof_holds_for_padded_entry_strides() {
        // 8 pad words between entries (a 128-byte entry stride): the
        // copy still reads every entry in order — 0 bits everywhere,
        // and the selected entry is still copied correctly from its
        // strided position.
        let s = variant(3, 24, 8, 6);
        assert_eq!(s.name, "secure-retrieve[e=3,w=24,p=8,b=6]");
        let report = s.analyze().unwrap();
        for obs in [Observer::address(), Observer::block(6), Observer::page()] {
            assert_eq!(report.dcache_bits(obs), 0.0, "D {obs}");
            assert_eq!(report.icache_bits(obs), 0.0, "I {obs}");
        }
        // emulate() asserts the functional post-condition internally.
        for case in s.cases.iter().take(3) {
            s.emulate(case).unwrap();
        }
        // Traces stay secret-independent under the padded layout.
        let base: Vec<u64> = s.emulate(&s.cases[0]).unwrap().all_addresses();
        for case in &s.cases[1..3] {
            assert_eq!(s.emulate(case).unwrap().all_addresses(), base);
        }
    }

    #[test]
    fn copies_exactly_the_selected_entry() {
        let s = libgcrypt_163();
        // emulate() asserts the functional post-condition internally.
        let t = s.emulate(&s.cases[3]).unwrap();
        assert!(t.steps > u64::from(ENTRIES * WORDS));
    }

    #[test]
    fn traces_are_secret_independent() {
        let s = libgcrypt_163();
        let base: Vec<u64> = s.emulate(&s.cases[0]).unwrap().all_addresses();
        for case in &s.cases[1..ENTRIES as usize] {
            let t = s.emulate(case).unwrap();
            assert_eq!(t.all_addresses(), base, "{}", case.label);
        }
    }
}
