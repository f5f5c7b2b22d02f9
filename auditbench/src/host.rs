//! Host calibration: two fixed probes timed before and after each run,
//! kept as run metadata so a run taken during a contended phase of the
//! machine can be recognised afterwards. They are not metrics.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;

/// One calibration sample, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// A dependent multiply–xorshift chain held in registers.
    pub alu_ms: f64,
    /// A random cyclic pointer chase through 16 MiB (memory latency).
    pub chase_ms: f64,
}

const ALU_STEPS: u64 = 40_000_000;
const CHASE_SLOTS: usize = 16 << 20 >> 2;
const CHASE_STEPS: usize = 1 << 20;

pub fn calibrate() -> Calibration {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x);
    let alu_ms = start.elapsed().as_secs_f64() * 1e3;

    // One random cycle over all slots (Sattolo's algorithm), so every
    // step depends on the previous load and prefetchers cannot help.
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut rng = Rng::new(1, 99);
    for i in (1..CHASE_SLOTS).rev() {
        let j = rng.below(i);
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    black_box(at);
    let chase_ms = start.elapsed().as_secs_f64() * 1e3;
    Calibration { alu_ms, chase_ms }
}
