//! The one hasher of the front half's tables.
//!
//! `ir`, `reorg` and `codegen` key their maps by small structured
//! values — declared names, value-numbering keys, node and chunk ids —
//! and look one up for nearly every node they build or instruction they
//! emit. The standard library's SipHash-1-3 spends tens of cycles on
//! such a key; [`FoldHasher`] mixes each word into its state with one
//! *folded multiply* (the two halves of a 64 × 64 → 128-bit product,
//! xored), the step foldhash and ahash are built on.
//!
//! The hasher is keyed: the first [`FoldState`] of a process draws its
//! two key words from the standard library's randomly keyed
//! `RandomState`, and every later one reuses them. Keys stay fixed for
//! the life of the process, so iteration order is as arbitrary as with
//! the default hasher and no output may depend on it; and source text
//! cannot be written in advance to make a parser's name map collide,
//! which is why the front half may hash names read off the wire with
//! it.

use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`std::collections::HashMap`] hashed by [`FoldHasher`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, FoldState>;

/// A [`std::collections::HashSet`] hashed by [`FoldHasher`].
pub type HashSet<T> = std::collections::HashSet<T, FoldState>;

/// The low and high halves of `a · b`, xored: every bit of either
/// input reaches the middle of the product, and the fold brings the
/// middle to both ends.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Builds [`FoldHasher`]s under this process's key.
#[derive(Debug, Clone, Copy)]
pub struct FoldState {
    seed: u64,
    multiplier: u64,
}

impl FoldState {
    /// The state keyed with this process's key, drawn on first use.
    pub fn new() -> FoldState {
        static KEY: OnceLock<FoldState> = OnceLock::new();
        *KEY.get_or_init(|| {
            let random = std::collections::hash_map::RandomState::new();
            FoldState::with_key(random.hash_one(0u64), random.hash_one(1u64))
        })
    }

    /// A state keyed with `seed` and `multiplier`. An odd multiplier
    /// keeps the product's low half a permutation of its input.
    fn with_key(seed: u64, multiplier: u64) -> FoldState {
        FoldState {
            seed,
            multiplier: multiplier | 1,
        }
    }
}

impl Default for FoldState {
    fn default() -> FoldState {
        FoldState::new()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// A keyed word-at-a-time hasher: one folded multiply per integer
/// written, whatever its width, and per eight bytes of a byte string.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
    multiplier: u64,
}

impl FoldHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.multiplier);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        let tail = chunks.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        // The length tells `ab` + `c` from `a` + `bc` when two byte
        // strings are hashed back to back.
        self.mix(u64::from_le_bytes(last) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    // The signed writes' default forwards to these unsigned ones.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn two_keys_hash_one_value_differently() {
        let (a, b) = (FoldState::with_key(1, 2), FoldState::with_key(3, 4));
        for value in [0u64, 1, 42, u64::MAX] {
            assert_ne!(a.hash_one(value), b.hash_one(value), "{value}");
        }
        assert_ne!(a.hash_one("a[i+1]"), b.hash_one("a[i+1]"));
        // One process, one key.
        assert_eq!(
            FoldState::new().hash_one("b"),
            FoldState::default().hash_one("b")
        );
    }

    #[test]
    fn strings_and_integer_widths_separate() {
        let s = FoldState::new();
        assert_ne!(s.hash_one(7u32), s.hash_one(8u32));
        assert_ne!(s.hash_one(("ab", "c")), s.hash_one(("a", "bc")));
        assert_ne!(s.hash_one("abcdefgh"), s.hash_one("abcdefgh\0"));
        assert_ne!(s.hash_one([1u8, 2]), s.hash_one([2u8, 1]));
    }

    /// Value-numbering-style keys — a variant tag, then small fields
    /// that differ from one another by a few units — land in the 1 024
    /// buckets a table of that size indexes by the low bits, and the
    /// top seven bits a hashbrown table compares first spread too. A
    /// uniform spread puts 97.7 ± 9.9 keys in each bucket; none may
    /// hold half again its share or half of it.
    #[test]
    fn structured_keys_spread_over_the_buckets() {
        #[derive(Hash)]
        enum Key {
            Load {
                array: u32,
                epoch: u32,
                elem: i64,
                scale: i64,
            },
            Bin(u8, u32, u32),
        }
        let mut keys = Vec::with_capacity(100_000);
        for array in 0..10u32 {
            for epoch in 0..4 {
                for elem in -125..1125i64 {
                    keys.push(Key::Load {
                        array,
                        epoch,
                        elem,
                        scale: 1,
                    });
                }
            }
        }
        for op in 0..10u8 {
            for a in 0..50 {
                for b in 0..100 {
                    keys.push(Key::Bin(op, a, a + b));
                }
            }
        }
        assert_eq!(keys.len(), 100_000);
        // This process's key and two fixed ones, so a failure repeats.
        for state in [
            FoldState::new(),
            FoldState::with_key(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344),
            FoldState::with_key(0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89),
        ] {
            spread(&state, &keys);
        }
    }

    fn spread(state: &FoldState, keys: &[impl Hash]) {
        let mut low = vec![0u32; 1024];
        let mut top = [0u32; 128];
        for key in keys {
            let h = state.hash_one(key);
            low[(h & 1023) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        let share = keys.len() as f64 / 1024.0;
        let (min, max) = (low.iter().min().unwrap(), low.iter().max().unwrap());
        assert!(
            f64::from(*max) < 1.5 * share && f64::from(*min) > 0.5 * share,
            "{state:?}: buckets hold {min}..={max} keys, share {share:.1}"
        );
        // A chi-square of 1 023 degrees of freedom stays near 1 023 for
        // a uniform spread; 1 300 is beyond its 99.999th percentile.
        let chi: f64 = low
            .iter()
            .map(|&n| (f64::from(n) - share).powi(2) / share)
            .sum();
        assert!(chi < 1300.0, "{state:?}: chi-square {chi:.0}");
        let top_share = keys.len() as f64 / 128.0;
        assert!(
            top.iter().all(|&n| f64::from(n) < 2.0 * top_share),
            "{state:?}: {top:?}"
        );
    }
}
