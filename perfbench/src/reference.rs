//! A fixed reference kernel that measures how fast the machine is right now.
//!
//! On a shared host the same work can take a quarter longer for tens of seconds at
//! a time, which moves every timing of a run together. The timed run samples this
//! kernel throughout and reports its timings at the nominal reference speed:
//! `reported = measured × NOMINAL_MS / median(kernel time)`. The kernel uses only the
//! standard library (string formatting, sorting, map inserts: the same kinds of
//! work as the verifier's normalisation), so no change to the repository's crates
//! changes it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel time the reported timings are scaled to.
pub const NOMINAL_MS: f64 = 12.0;

/// Runs the kernel once and returns its wall time in milliseconds. It works in
/// three rounds over 10 000 keys, so its own memory stays small next to the
/// verifier's and does not set the run's peak resident memory.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..3 {
        let mut keys: Vec<String> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                format!("key{}-{}", x % 1_000_003, x % 97)
            })
            .collect();
        keys.sort();
        let tree: BTreeMap<String, usize> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i))
            .collect();
        let hashed: HashMap<&String, usize> = tree.iter().map(|(k, v)| (k, *v)).collect();
        black_box(hashed.len());
    }
    start.elapsed().as_secs_f64() * 1e3
}
