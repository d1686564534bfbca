//! Host-speed calibration. The speed of a shared host drifts by tens of
//! percent over minutes (other tenants' load on the same physical cores,
//! memory and clock), and a pass's time drifts with it. A fixed kernel
//! that lives in this package, and so never changes with the simulator,
//! is timed after every pass; dividing pass times by the kernel's time
//! cancels the drift and leaves the program's own cost.
//!
//! Over five minutes of `list-mix` on a shared 2-vCPU VM, the fastest
//! quartile of passes in 20 s windows drifted 353–472 ms (interquartile
//! range 8.7% of the median); divided by the kernel's time in the same
//! windows the spread fell to 1.6%.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (one quiet 2.0 GHz Xeon vCPU),
/// in ms. Scaled times read as milliseconds on that host.
pub const REFERENCE_MS: f64 = 45.0;

/// Words in the random-access table: 16 MiB, past the private caches, so
/// the kernel feels contention on the shared cache and memory as the
/// simulator's tag arrays and heaps do.
const TABLE_WORDS: usize = 1 << 21;

/// A fixed mix of memory-bound, hash-map and branchy register work.
pub struct Calibrator {
    table: Vec<u64>,
    round: u64,
}

impl Calibrator {
    /// Allocates the table and runs the kernel once to fault it in.
    pub fn new() -> Self {
        let mut cal = Calibrator {
            table: vec![1; TABLE_WORDS],
            round: 0,
        };
        cal.sample();
        cal
    }

    /// Runs the kernel once and returns its wall time. Every round does
    /// the same amount of work; only the random indices change.
    pub fn sample(&mut self) -> Duration {
        self.round += 1;
        let seed = self.round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let start = Instant::now();
        black_box(table_walk(&mut self.table, seed));
        black_box(map_churn(seed));
        black_box(branchy(seed));
        start.elapsed()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Dependent random read-modify-writes over the table.
fn table_walk(table: &mut [u64], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..1_000_000 {
        let i = xorshift(&mut x) as usize & mask;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    acc
}

/// Inserts and lookups over 64K keys, with a fixed hasher.
fn map_churn(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        let k = xorshift(&mut x) & 0xFFFF;
        *map.entry(k).or_insert(0) += i;
        if let Some(v) = map.get(&(k ^ 0x55)) {
            acc = acc.wrapping_add(*v);
        }
    }
    acc
}

/// Data-dependent branches on register values.
fn branchy(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..3_000_000 {
        let v = xorshift(&mut x);
        acc = if v & 3 == 0 {
            acc.wrapping_mul(v | 1)
        } else if v & 4 == 0 {
            acc ^ (v >> 3)
        } else {
            acc.wrapping_add(v.rotate_left(7))
        };
    }
    acc
}
