//! A sharded, lock-striped, LRU-bounded cache of baked kernels, each
//! pinned to its ISA tier ([`SimdKernel`]), shared across sweep
//! workers and server threads.
//!
//! The paper's pipeline front-loads all alignment reasoning into
//! compile time, which makes the baked kernel the natural unit to
//! cache: it depends only on *(program, runtime input, memory layout)*
//! and never on the image contents, so any job with the same key can
//! reuse it byte-for-byte, across workers and — in `simdize serve` —
//! across requests:
//!
//! * **Keying.** A [`CacheKey`] is a 64-bit program fingerprint (a
//!   structural word-at-a-time hash of the [`SimdProgram`], which
//!   embeds the placement policy and codegen scheme — see
//!   [`program_fingerprint`]), the [`RunInput`], a [`LayoutSig`]
//!   (shape, element type, image length, every array base), and the
//!   dispatched [`IsaLevel`], so an AVX2 kernel and a v2 kernel of
//!   the same program never collide, within a sweep or across server
//!   requests. The input, layout and tier are compared in full; the
//!   program is compared by fingerprint only, so a 64-bit collision
//!   between two programs serves one the other's kernel, which the
//!   oracle diff of every run then reports as `verified: false`.
//! * **Sharding.** Entries are striped over `shards` independent
//!   mutexes selected by key hash; concurrent workers only contend
//!   when they touch the same stripe.
//! * **Bounding.** Each shard holds at most `capacity_per_shard`
//!   entries and evicts least-recently-used. Sweeps over runtime
//!   alignments produce one layout per seed, so an unbounded cache
//!   would grow linearly with the seed count.
//! * **Counters.** Hits, misses, evictions and per-shard occupancy are
//!   exposed via [`KernelCache::stats`] and surfaced through
//!   `SweepStats`, the sweep summary line, and the server's `stats`
//!   response and `/metrics` exposition.
//!
//! Bakes happen *outside* the shard lock: two workers missing the same
//! key concurrently both bake and the second insert wins, trading a
//! rare duplicated compile for never blocking a stripe on compilation.

use crate::kernel::{KernelOptions, PredecodedKernel};
use crate::native::{IsaLevel, SimdKernel};
use simdize_codegen::SimdProgram;
use simdize_ir::{ArrayId, ScalarType};
use simdize_vm::{ExecError, MemoryImage, RunInput};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A word-at-a-time [`Hasher`], so `#[derive(Hash)]` can feed it a
/// structure field by field without rendering it to text first. Nearly
/// every field is a small integer: each is one rotate-xor-multiply step
/// whatever its width, byte strings go eight bytes per step, and
/// [`Hasher::finish`] runs a full-avalanche finaliser (MurmurHash3's
/// `fmix64`), so every input bit reaches every output bit — the low
/// bits the shard choice reads included. It has no per-process seed:
/// nothing here is a hash table that input could flood.
struct WordHasher(u64);

impl WordHasher {
    fn new() -> WordHasher {
        WordHasher(0x243f_6a88_85a3_08d3)
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
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

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    // The signed writes' default forwards to these unsigned ones.
}

/// A 64-bit structural fingerprint of a [`SimdProgram`]: a
/// word-at-a-time hash with a full-avalanche finish, fed by the derived
/// `Hash` of the program — the source loop, the shape, the bounds and
/// every instruction of every section, so the placement policy's shift
/// choices and every codegen decision are in it — one mixing step per
/// field, with no intermediate text and no allocation. Programs that compare equal
/// fingerprint equal. The value is process-local: nothing stores it or
/// puts it on the wire, so it may change between builds.
///
/// A [`CacheKey`] holds only this fingerprint, not the program, so two
/// different programs whose fingerprints collide (at equal input,
/// layout and tier) share a cache entry: the second is served the
/// first's kernel. Nothing unsafe follows — the layout matched, so the
/// kernel stays inside the image — and it is not silent: the run is
/// diffed against the scalar oracle and reports `verified: false`.
pub fn program_fingerprint(program: &SimdProgram) -> u64 {
    let mut h = WordHasher::new();
    program.hash(&mut h);
    h.finish()
}

/// The layout half of a cache key, and the layout a baked plan keeps:
/// everything [`SimdKernel::layout_matches`] checks, captured by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSig {
    shape_bytes: u32,
    elem: ScalarType,
    image_len: usize,
    bases: Vec<u64>,
}

impl LayoutSig {
    /// Captures the placement of the first `narrays` arrays of `image`.
    pub fn of(image: &MemoryImage, narrays: usize) -> LayoutSig {
        LayoutSig {
            shape_bytes: image.shape().bytes(),
            elem: image.elem(),
            image_len: image.bytes().len(),
            bases: (0..narrays)
                .map(|k| image.base_of(ArrayId::from_index(k)))
                .collect(),
        }
    }

    /// Whether `image` has this layout, without capturing its own.
    pub(crate) fn matches(&self, image: &MemoryImage) -> bool {
        image.shape().bytes() == self.shape_bytes
            && image.elem() == self.elem
            && image.bytes().len() == self.image_len
            && (self.bases.iter().enumerate())
                .all(|(k, &base)| image.base_of(ArrayId::from_index(k)) == base)
    }

    /// The captured array bases, in declaration order.
    pub(crate) fn bases(&self) -> &[u64] {
        &self.bases
    }
}

/// The tier half of a cache key: the same program at two ISA tiers
/// is two artifacts and must occupy two cache entries.
// One variant, spelled this way because the benchmark package
// (`benchmark/`, frozen between benchmark PRs) builds its keys as
// `CacheKey::for_backend(.., KernelBackend::Simd(isa))`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// A kernel pinned to one ISA tier.
    Simd(IsaLevel),
}

/// What one baked kernel was compiled for. Two jobs with equal keys
/// produce byte-identical kernels (the image *contents* are not part
/// of the key because baking never reads them — only array placement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    program: u64,
    input: RunInput,
    layout: LayoutSig,
    isa: IsaLevel,
}

impl CacheKey {
    /// A key for `program_fingerprint` baked against `input` on the
    /// layout of `image` (first `narrays` arrays), pinned to the tier
    /// `backend` names.
    pub fn for_backend(
        program_fingerprint: u64,
        input: &RunInput,
        image: &MemoryImage,
        narrays: usize,
        backend: KernelBackend,
    ) -> CacheKey {
        let KernelBackend::Simd(isa) = backend;
        CacheKey {
            program: program_fingerprint,
            input: input.clone(),
            layout: LayoutSig::of(image, narrays),
            isa,
        }
    }

    /// The shard-selection hash: the fingerprint's hasher over every
    /// key component.
    fn mix(&self) -> u64 {
        let mut h = WordHasher::new();
        h.write_u64(self.program);
        h.write_u64(self.input.ub);
        for &p in &self.input.params {
            h.write_i64(p);
        }
        h.write_u32(self.layout.shape_bytes);
        h.write_usize(self.layout.image_len);
        for &b in &self.layout.bases {
            h.write_u64(b);
        }
        h.write(self.isa.name().as_bytes());
        h.finish()
    }
}

/// What a [`KernelCache::get_or_bake_simd`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The kernel came out of the cache.
    pub hit: bool,
    /// Inserting the freshly baked kernel evicted an LRU entry.
    pub evicted: bool,
}

struct Entry {
    key: CacheKey,
    kernel: Arc<SimdKernel>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: Vec<Entry>,
    tick: u64,
}

/// A point-in-time summary of the cache's counters and occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to bake.
    pub misses: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Per-shard entry counts at snapshot time.
    pub occupancy: Vec<usize>,
    /// Per-shard capacity.
    pub capacity_per_shard: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Total entries resident across every shard.
    pub fn occupied(&self) -> usize {
        self.occupancy.iter().sum()
    }
}

/// The sharded concurrent baked-kernel cache.
pub struct KernelCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish_non_exhaustive()
    }
}

impl Default for KernelCache {
    fn default() -> KernelCache {
        KernelCache::new(8, 32)
    }
}

impl KernelCache {
    /// A cache striped over `shards` mutexes holding at most
    /// `capacity_per_shard` kernels each. Both are clamped to ≥ 1.
    pub fn new(shards: usize, capacity_per_shard: usize) -> KernelCache {
        let shards = shards.max(1);
        KernelCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.mix() % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, bumping its LRU stamp on a hit.
    pub fn get_simd(&self, key: &CacheKey) -> Option<Arc<SimdKernel>> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.iter_mut().find(|e| &e.key == key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.kernel))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the shard's LRU entry when
    /// full. Returns whether an eviction happened.
    pub fn insert_simd(&self, key: CacheKey, kernel: Arc<SimdKernel>) -> bool {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.entries.iter_mut().find(|e| e.key == key) {
            // A racing worker baked the same key first; refresh it.
            entry.kernel = kernel;
            entry.last_used = tick;
            return false;
        }
        let mut evicted = false;
        if shard.entries.len() >= self.capacity_per_shard {
            let lru = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("full shard is nonempty");
            shard.entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted = true;
        }
        shard.entries.push(Entry {
            key,
            kernel,
            last_used: tick,
        });
        evicted
    }

    /// The cached kernel for *(program, input, layout, ISA)*, baking,
    /// pinning to `isa` and inserting on a miss; the bake runs outside
    /// the shard lock. Distinct ISA tiers occupy distinct entries — a
    /// request dispatched at AVX2 never reuses a v2 kernel or vice
    /// versa.
    ///
    /// # Errors
    ///
    /// Propagates [`PredecodedKernel::bake`] failures; nothing is
    /// inserted on error.
    pub fn get_or_bake_simd(
        &self,
        program_fingerprint: u64,
        pre: &PredecodedKernel<'_>,
        image: &MemoryImage,
        input: &RunInput,
        opts: &KernelOptions,
        isa: IsaLevel,
    ) -> Result<(Arc<SimdKernel>, Lookup), ExecError> {
        let key = CacheKey::for_backend(
            program_fingerprint,
            input,
            image,
            pre.narrays(),
            KernelBackend::Simd(isa),
        );
        if let Some(kernel) = self.get_simd(&key) {
            return Ok((
                kernel,
                Lookup {
                    hit: true,
                    evicted: false,
                },
            ));
        }
        let kernel = Arc::new(SimdKernel::lower(&pre.bake(image, input, opts)?, isa));
        let evicted = self.insert_simd(key, Arc::clone(&kernel));
        Ok((
            kernel,
            Lookup {
                hit: false,
                evicted,
            },
        ))
    }

    /// Current counters and per-shard occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            occupancy: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
                .collect(),
            capacity_per_shard: self.capacity_per_shard,
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.entries.clear();
            shard.tick = 0;
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod hasher_tests {
    use super::*;

    fn hash(value: impl Hash) -> u64 {
        let mut h = WordHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integers_of_every_width_and_strings_separate() {
        assert_eq!(hash(7u32), hash(7u32));
        assert_ne!(hash(7u32), hash(8u32));
        assert_ne!(hash(("ab", "c")), hash(("a", "bc")));
        assert_ne!(hash("abcdefgh"), hash("abcdefgh\0"));
        assert_ne!(hash([1u8, 2]), hash([2u8, 1]));
    }

    #[test]
    fn every_input_bit_reaches_the_low_output_bits() {
        // Flipping any one bit of a word changes about half the output
        // bits, the low byte included.
        for bit in 0..64 {
            let flipped = hash(0u64) ^ hash(1u64 << bit);
            let ones = flipped.count_ones();
            assert!((16..=48).contains(&ones), "bit {bit}: {ones} output bits");
        }
        let low: std::collections::HashSet<u8> =
            (0..64).map(|bit| hash(1u64 << (63 - bit)) as u8).collect();
        assert!(low.len() > 32, "{} distinct low bytes", low.len());
    }
}
