//! The unprotected table lookup of windowed modular exponentiation (paper
//! Fig. 10, libgcrypt 1.6.1): `base_u := b_2i3[e0-1]` indexed directly by
//! the secret window — the classic prime+probe target.
//!
//! Data layout: the pointer and size tables are placed so that (at the
//! paper's 7 entries) each straddles a 64-byte block boundary (entries
//! 0–3 in one block, 4–6 in the next). This reproduces the paper's
//! Fig. 14a numbers exactly: `1 + 7·7 = 50` address observations
//! (5.6 bit) and `1 + 2·2 = 5` block-trace observations (2.3 bit).
//!
//! The family is parameterized by the compilation layout (`-O2` places
//! the zero-window branch body in a far cache line, `-O1` keeps both
//! paths in consecutive lines — paper Figs. 15a/15b), by the window
//! table size (`entries`), and by the analyzed cache-line size.

use leakaudit_analyzer::InitState;
use leakaudit_core::ValueSet;
use leakaudit_x86::{Asm, Mem, Reg};

use crate::registry::Opt;
use crate::{Cases, ConcreteCase, Expected, Scenario};

/// Number of window-table entries in the paper's instance.
pub const ENTRIES: u32 = 7;

/// Pointer table `b_2i3`: entries × 4 bytes at offset 48 of its block.
const B2I3: u32 = 0x80e_b0f0;
/// Size table `b_2i3size`: same straddling placement one block later.
const B2I3SIZE: u32 = 0x80e_b130;
/// `bp` / `bsize` (the power-of-one shortcut operands), same block.
const BP: u32 = 0x80e_b080;
const BSIZE: u32 = 0x80e_b084;

fn data_section(a: &mut Asm, entries: u32, stride: u32) {
    // Heap addresses of the pre-computed values (their contents are
    // high; only the pointers are data here). With a widened stride the
    // slack words between entries are zero padding, so every entry
    // still sits at `table + i·stride`.
    let pad = stride / 4 - 1;
    let strided = |values: Vec<u32>| -> Vec<u32> {
        let mut out = Vec::new();
        for v in values {
            out.push(v);
            out.extend(std::iter::repeat_n(0, pad as usize));
        }
        out
    };
    a.section_at(B2I3);
    a.label("b_2i3");
    let pointers: Vec<u32> = (0..entries).map(|i| 0x80e_c000 + i * 0x180).collect();
    a.dd(&strided(pointers));
    a.section_at(B2I3SIZE);
    a.label("b_2i3size");
    a.dd(&strided(vec![96u32; entries as usize]));
    a.section_at(BP);
    a.dd(&[0x80e_d000, 96]); // bp, bsize
}

fn secret_window(entries: u32) -> ValueSet {
    // e0: the window right-shifted by 1 (paper Fig. 10), in
    // {0..entries}; 0 takes the power-of-one shortcut.
    ValueSet::from_constants(0..=u64::from(entries), 32)
}

fn cases(entries: u32) -> Vec<ConcreteCase> {
    let mut cases = Vec::new();
    // The tables are in the image; layouts vary the (unused) scratch regs.
    for (layout, scratch) in [0u32, 0x1000].into_iter().enumerate() {
        for e0 in 0..=entries {
            cases.push(ConcreteCase {
                label: format!("e0={e0}, layout {layout}"),
                layout,
                regs: vec![(Reg::Eax, e0), (Reg::Ebp, 0x00f0_0400 + scratch)],
                bytes: Vec::new(),
                expect_mem: Vec::new(),
            });
        }
    }
    cases
}

fn check_shape(entries: u32, stride: u32) {
    assert!(
        stride == 4 || stride == 8,
        "entry strides of 4 (packed) and 8 (padded) bytes are supported"
    );
    assert!(entries >= 1, "the window table cannot be empty");
    assert!(
        u64::from(entries) * u64::from(stride) <= u64::from(B2I3SIZE - B2I3),
        "entries x stride must fit between the b_2i3 and b_2i3size tables"
    );
}

/// The secret-indexed lookup under a chosen layout and table size.
///
/// `-O2` (paper Fig. 15a): the `e0 == 0` branch body lives in the far
/// cache line `0x4ba40` and jumps back — block trace `B·C·B` when taken
/// vs `B` when not, so every I-cache observer sees 1 bit. `-O1` (paper
/// Fig. 15b): both branch bodies fall within the same two consecutive
/// cache lines, visited in the same order — the stuttering block-trace
/// leak is eliminated (paper §8.4, first bullet).
///
/// The `stride` parameter spaces the table entries (`4` = the packed
/// paper layout, `8` = one entry per 8 bytes): widening the stride
/// doubles the table footprint, so the pointer table spans more blocks
/// — the block-trace bound grows with the stride while the address
/// bound stays a function of the window size alone.
///
/// # Panics
///
/// Panics if `entries × stride` exceeds the space between the tables,
/// `stride` is not 4 or 8, or `opt` is [`Opt::O0`] (the paper documents
/// no -O0 build of this routine).
pub fn variant(opt: Opt, entries: u32, stride: u32, block_bits: u8) -> Scenario {
    check_shape(entries, stride);
    let scale = stride as u8;
    let (program, init) = match opt {
        Opt::O2 => {
            let mut a = Asm::new(0x4b980);
            a.test(Reg::Eax, Reg::Eax); // e0 == 0?
            a.jcc_near(leakaudit_x86::Cond::E, "power_of_one");
            // e0 != 0: the secret-indexed lookups.
            a.lea(Reg::Esi, Mem::base_disp(Reg::Eax, -1)); // esi = e0 - 1
            a.mov(
                Reg::Ecx,
                Mem {
                    base: None,
                    index: Some((Reg::Esi, scale)),
                    disp: B2I3 as i32,
                },
            ); // base_u = b_2i3[e0-1]
            a.mov(
                Reg::Edx,
                Mem {
                    base: None,
                    index: Some((Reg::Esi, scale)),
                    disp: B2I3SIZE as i32,
                },
            ); // base_u_size = b_2i3size[e0-1]
            a.label("done");
            a.hlt();

            a.section_at(0x4ba40);
            a.label("power_of_one");
            a.mov(Reg::Ecx, Mem::abs(BP));
            a.mov(Reg::Edx, Mem::abs(BSIZE));
            a.jmp_near("done");

            data_section(&mut a, entries, stride);
            let program = a.assemble().expect("scenario assembles");
            let mut init = InitState::new();
            init.set_reg(Reg::Eax, secret_window(entries));
            (program, init)
        }
        Opt::O1 => {
            let mut a = Asm::new(0x47dc0);
            a.test(Reg::Eax, Reg::Eax);
            a.je("power_of_one");
            a.lea(Reg::Esi, Mem::base_disp(Reg::Eax, -1));
            a.mov(
                Reg::Ecx,
                Mem {
                    base: None,
                    index: Some((Reg::Esi, scale)),
                    disp: B2I3 as i32,
                },
            );
            a.mov(
                Reg::Edx,
                Mem {
                    base: None,
                    index: Some((Reg::Esi, scale)),
                    disp: B2I3SIZE as i32,
                },
            );
            a.jmp("done");
            a.align(64);
            a.label("power_of_one"); // 0x47e00: the next cache line
            a.mov(Reg::Ecx, Mem::abs(BP));
            a.mov(Reg::Edx, Mem::abs(BSIZE));
            a.align(16);
            a.label("done"); // 0x47e10: same cache line as power_of_one
            a.hlt();

            data_section(&mut a, entries, stride);
            let program = a.assemble().expect("scenario assembles");
            assert_eq!(program.label("power_of_one"), Some(0x47e00));
            assert_eq!(program.label("done"), Some(0x47e10));
            let mut init = InitState::new();
            init.set_reg(Reg::Eax, secret_window(entries));
            (program, init)
        }
        Opt::O0 => panic!("unprotected lookup: no -O0 layout is documented"),
    };

    let s = if stride == 4 {
        String::new()
    } else {
        format!(",s={stride}")
    };
    Scenario {
        name: format!("unprotected-lookup[{opt},e={entries}{s},b={block_bits}]"),
        paper_ref: String::from("Fig. 10 family (parameterized layout/table)"),
        program,
        init,
        block_bits,
        expected: Expected::unknown(),
        cases: Cases::new(move || cases(entries)),
    }
}

/// The paper's `-O2` instance (Figs. 14a/15a), published name and
/// expectations.
pub fn libgcrypt_161_o2() -> Scenario {
    let mut s = variant(Opt::O2, ENTRIES, 4, 6);
    s.name = String::from("unprotected-lookup-1.6.1-O2");
    s.paper_ref = String::from("Fig. 14a (leakage), Fig. 10 (code), Fig. 15a (layout)");
    s.expected = Expected {
        icache: [1.0, 1.0, 1.0],
        dcache: [50f64.log2(), 5f64.log2(), 5f64.log2()],
        dcache_bank: None,
    };
    s
}

/// The paper's `-O1` instance (Fig. 15b), published name and
/// expectations.
pub fn libgcrypt_161_o1() -> Scenario {
    let mut s = variant(Opt::O1, ENTRIES, 4, 6);
    s.name = String::from("unprotected-lookup-1.6.1-O1");
    s.paper_ref = String::from("Fig. 15b (layout): I-cache b-block leak eliminated");
    s.expected = Expected {
        icache: [1.0, 1.0, 0.0],
        dcache: [50f64.log2(), 5f64.log2(), 5f64.log2()],
        dcache_bank: None,
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    #[test]
    fn o2_reproduces_fig_14a() {
        let s = libgcrypt_161_o2();
        let report = s.analyze().unwrap();
        assert_eq!(report.icache_bits(Observer::address()), 1.0);
        assert_eq!(report.icache_bits(Observer::block(6)), 1.0);
        assert_eq!(report.icache_bits(Observer::block(6).stuttering()), 1.0);
        // 1 + 7·7 = 50 observations → 5.64 ≈ "5.6 bit".
        assert!((report.dcache_bits(Observer::address()) - 50f64.log2()).abs() < 1e-9);
        // 1 + 2·2 = 5 observations → 2.32 ≈ "2.3 bit".
        assert!((report.dcache_bits(Observer::block(6)) - 5f64.log2()).abs() < 1e-9);
        assert!((report.dcache_bits(Observer::block(6).stuttering()) - 5f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn o1_eliminates_the_stuttering_icache_leak() {
        let s = libgcrypt_161_o1();
        let report = s.analyze().unwrap();
        assert_eq!(report.icache_bits(Observer::address()), 1.0);
        assert_eq!(report.icache_bits(Observer::block(6)), 1.0);
        assert_eq!(report.icache_bits(Observer::block(6).stuttering()), 0.0);
    }

    #[test]
    fn window_size_scales_the_dcache_bound() {
        // 3 entries: 1 + 3·3 = 10 address observations; 15 entries:
        // 1 + 15·15 = 226 — the bound is a function of the window size.
        let small = variant(Opt::O2, 3, 4, 6).analyze().unwrap();
        assert!((small.dcache_bits(Observer::address()) - 10f64.log2()).abs() < 1e-9);
        let large = variant(Opt::O2, 15, 4, 6).analyze().unwrap();
        assert!((large.dcache_bits(Observer::address()) - 226f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn widened_stride_grows_the_block_footprint_not_the_address_bound() {
        // At 32-byte lines the packed 28-byte table spans 2 blocks while
        // the strided 56-byte table spans 3 — the stride axis moves the
        // block-trace bound without touching the address-trace bound.
        let packed = variant(Opt::O2, 7, 4, 5).analyze().unwrap();
        let strided = variant(Opt::O2, 7, 8, 5).analyze().unwrap();
        // The address bound counts entries, not bytes: identical.
        assert_eq!(
            packed.dcache_bits(Observer::address()).to_bits(),
            strided.dcache_bits(Observer::address()).to_bits()
        );
        assert!(
            strided.dcache_bits(Observer::block(5)) > packed.dcache_bits(Observer::block(5)),
            "stride widens the block footprint"
        );
        // The emulator agrees on where entries landed.
        let s = variant(Opt::O2, 7, 8, 6);
        assert_eq!(s.name, "unprotected-lookup[O2,e=7,s=8,b=6]");
        for case in &s.cases {
            let e0: u32 = case.regs[0].1;
            if e0 == 0 {
                continue;
            }
            let data = s.emulate(case).unwrap().data_addresses();
            assert_eq!(
                data,
                vec![
                    u64::from(B2I3 + 8 * (e0 - 1)),
                    u64::from(B2I3SIZE + 8 * (e0 - 1))
                ]
            );
        }
    }

    #[test]
    fn emulator_lookup_reads_the_right_entry() {
        let s = libgcrypt_161_o2();
        for case in &s.cases {
            let trace = s.emulate(case).unwrap();
            let data = trace.data_addresses();
            let e0: u32 = case.regs[0].1;
            if e0 == 0 {
                assert_eq!(data, vec![u64::from(BP), u64::from(BSIZE)]);
            } else {
                assert_eq!(
                    data,
                    vec![
                        u64::from(B2I3 + 4 * (e0 - 1)),
                        u64::from(B2I3SIZE + 4 * (e0 - 1))
                    ]
                );
            }
        }
    }

    #[test]
    fn pointer_table_straddles_a_block_boundary() {
        // Entries 0..3 in block 0x80eb0c0, 4..6 in block 0x80eb100.
        assert_eq!((B2I3 % 64), 48);
        assert_eq!((B2I3SIZE % 64), 48);
    }
}
