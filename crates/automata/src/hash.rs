//! The hasher behind the kernel's hash indexes.
//!
//! Product pairs, column pairs, subset bitsets, minimisation signatures and table columns
//! are runs of machine words that the kernel hashes once per table entry or symbol, so
//! the hash must cost about a multiply per word. std's default SipHash resists keys
//! crafted to collide, but these keys are state and class numbers the kernel assigns
//! itself, never values read from input; with SipHash the MONA attempts ran about twice
//! as slow. The kernel only looks keys up and never iterates a map, so hash order cannot
//! reach an automaton.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`MulHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// A multiplicative word hasher: each 64-bit word is mixed in by a rotate, an xor and a
/// multiply by an odd constant.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher {
    hash: u64,
}

const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table indexes buckets by
    /// the low bits, so rotate the top bits down.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}
