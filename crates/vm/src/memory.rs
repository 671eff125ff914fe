//! The byte-addressable memory image with controlled array placement.

use crate::error::ExecError;
use simdize_ir::{AlignKind, ArrayId, LoopProgram, ScalarType, Value, VectorShape};
use simdize_prng::SplitMix64;

/// Guard padding, in multiples of the vector length, kept on both sides
/// of every array. Shifted streams legitimately *read* up to two chunks
/// past either end of a stream (the paper's figures exclude these
/// boundary chunks); partial stores may *rewrite* guard bytes with their
/// own previous contents. Four chunks is comfortably past every case the
/// generator can produce.
const GUARD_CHUNKS: u64 = 4;

/// A memory image holding every array of a loop at a base address with
/// the declared (or chosen) misalignment, plus guard padding.
///
/// The image is the single source of truth for runtime alignments: it
/// implements [`simdize_codegen` scalar environments](simdize_codegen::SExpr)
/// by exposing [`MemoryImage::base_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryImage {
    bytes: Vec<u8>,
    bases: Vec<u64>,
    lens: Vec<u64>,
    elem: ScalarType,
    shape: VectorShape,
}

impl MemoryImage {
    /// Builds an image for `program`, choosing the misalignment of each
    /// runtime-aligned array pseudo-randomly from `seed` (always a
    /// multiple of the element size, preserving natural alignment) and
    /// filling every array with pseudo-random element values.
    pub fn with_seed(program: &LoopProgram, shape: VectorShape, seed: u64) -> MemoryImage {
        let offsets = seeded_offsets(program, shape, seed);
        let mut image = MemoryImage::with_offsets(program, shape, &offsets);
        image.fill_random(seed ^ 0x9E37_79B9_7F4A_7C15);
        image
    }

    /// Re-initializes this image in place to exactly what
    /// [`MemoryImage::with_seed`]`(program, shape, seed)` would build,
    /// reusing the existing byte allocation. Sweep workers call this
    /// once per job instead of allocating a fresh image.
    pub fn reseed(&mut self, program: &LoopProgram, shape: VectorShape, seed: u64) {
        let offsets = seeded_offsets(program, shape, seed);
        let (bases, lens, total) = layout(program, shape, &offsets);
        self.bases = bases;
        self.lens = lens;
        self.elem = program.elem();
        self.shape = shape;
        self.bytes.clear();
        self.bytes.resize(total, 0);
        self.fill_random(seed ^ 0x9E37_79B9_7F4A_7C15);
    }

    /// Makes this image an exact copy of `src`, reusing the existing
    /// byte allocation. Equivalent to `*self = src.clone()` without the
    /// fresh allocation — sweep workers use it to rebuild the oracle
    /// image from the engine image once per job.
    pub fn copy_from(&mut self, src: &MemoryImage) {
        self.bytes.clear();
        self.bytes.extend_from_slice(&src.bytes);
        self.bases.clear();
        self.bases.extend_from_slice(&src.bases);
        self.lens.clear();
        self.lens.extend_from_slice(&src.lens);
        self.elem = src.elem;
        self.shape = src.shape;
    }

    /// Builds an image with explicit per-array misalignments (entries
    /// for arrays with compile-time alignments are ignored in favour of
    /// their declarations). Contents start zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is shorter than the array table, or if an
    /// offset used for a runtime array is not naturally aligned.
    pub fn with_offsets(program: &LoopProgram, shape: VectorShape, offsets: &[u32]) -> MemoryImage {
        let (bases, lens, total) = layout(program, shape, offsets);
        MemoryImage {
            bytes: vec![0; total],
            bases,
            lens,
            elem: program.elem(),
            shape,
        }
    }

    /// Fills every array element with pseudo-random values (guard bytes
    /// stay untouched, so differential comparisons cover them too).
    ///
    /// One [`SplitMix64`] draw per element, in array then index order;
    /// the element is the draw's low `D` bytes, little-endian — what
    /// `Value::from_i64(elem, draw)` holds. Each array's elements are
    /// contiguous, so the fill is one pass over its byte range with no
    /// per-element address arithmetic, bounds check or allocation, and
    /// the element width is matched once per array: the pass writes
    /// fixed `D`-byte chunks.
    pub fn fill_random(&mut self, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed | 1);
        let d = self.elem.size();
        for (&base, &len) in self.bases.iter().zip(&self.lens) {
            let at = base as usize;
            let array = &mut self.bytes[at..at + len as usize * d];
            match d {
                1 => fill::<1>(array, &mut rng),
                2 => fill::<2>(array, &mut rng),
                4 => fill::<4>(array, &mut rng),
                _ => fill::<8>(array, &mut rng),
            }
        }
    }

    /// The byte address of `array`'s first element.
    ///
    /// # Panics
    ///
    /// Panics if `array` does not belong to the image's program.
    pub fn base_of(&self, array: ArrayId) -> u64 {
        self.bases[array.index()]
    }

    /// The element count of `array`; 0 for an array the image does not
    /// hold, so an up-front bounds check rejects it.
    pub(crate) fn len_of(&self, array: ArrayId) -> u64 {
        self.lens.get(array.index()).copied().unwrap_or(0)
    }

    /// The vector shape the image was laid out for.
    pub fn shape(&self) -> VectorShape {
        self.shape
    }

    /// The element type of every array.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// Reads element `idx` of `array`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ElementOutOfBounds`] when `idx` is past the
    /// array's length.
    pub fn get(&self, array: ArrayId, idx: u64) -> Result<Value, ExecError> {
        self.check_elem(array, idx)?;
        let d = self.elem.size();
        let at = (self.bases[array.index()] + idx * d as u64) as usize;
        Ok(Value::from_le_bytes(self.elem, &self.bytes[at..at + d]))
    }

    /// Writes element `idx` of `array`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ElementOutOfBounds`] when `idx` is past the
    /// array's length.
    pub fn set(&mut self, array: ArrayId, idx: u64, value: Value) -> Result<(), ExecError> {
        self.check_elem(array, idx)?;
        let d = self.elem.size();
        let at = (self.bases[array.index()] + idx * d as u64) as usize;
        self.bytes[at..at + d].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn check_elem(&self, array: ArrayId, idx: u64) -> Result<(), ExecError> {
        if idx >= self.lens[array.index()] {
            return Err(ExecError::ElementOutOfBounds {
                array,
                index: idx,
                len: self.lens[array.index()],
            });
        }
        Ok(())
    }

    /// Reads the `V`-byte chunk enclosing `addr` (truncating, like
    /// AltiVec `lvx`).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ChunkOutOfBounds`] when the chunk leaves
    /// `array`'s guarded region — this catches generator bugs; correct
    /// programs never trip it.
    pub fn load_chunk(&self, array: ArrayId, addr: i64) -> Result<Vec<u8>, ExecError> {
        let at = self.check_chunk(array, addr)?;
        Ok(self.bytes[at..at + self.shape.bytes() as usize].to_vec())
    }

    /// Writes the `V`-byte chunk enclosing `addr` (truncating, like
    /// AltiVec `stvx`).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ChunkOutOfBounds`] when the chunk leaves
    /// `array`'s guarded region.
    pub fn store_chunk(&mut self, array: ArrayId, addr: i64, data: &[u8]) -> Result<(), ExecError> {
        let at = self.check_chunk(array, addr)?;
        self.bytes[at..at + self.shape.bytes() as usize].copy_from_slice(data);
        Ok(())
    }

    /// Reads `V` bytes at the *exact* address `addr` (a hardware
    /// misaligned load, SSE2 `movdqu`-style).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ChunkOutOfBounds`] when the access leaves
    /// `array`'s guarded region.
    pub fn load_exact(&self, array: ArrayId, addr: i64) -> Result<Vec<u8>, ExecError> {
        let at = self.check_exact(array, addr)?;
        Ok(self.bytes[at..at + self.shape.bytes() as usize].to_vec())
    }

    /// Writes `V` bytes at the *exact* address `addr` (a hardware
    /// misaligned store).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ChunkOutOfBounds`] when the access leaves
    /// `array`'s guarded region.
    pub fn store_exact(&mut self, array: ArrayId, addr: i64, data: &[u8]) -> Result<(), ExecError> {
        let at = self.check_exact(array, addr)?;
        self.bytes[at..at + self.shape.bytes() as usize].copy_from_slice(data);
        Ok(())
    }

    fn check_exact(&self, array: ArrayId, addr: i64) -> Result<usize, ExecError> {
        let v = self.shape.bytes() as i64;
        let base = self.bases[array.index()] as i64;
        let len = (self.lens[array.index()] * self.elem.size() as u64) as i64;
        let guard = (GUARD_CHUNKS as i64) * v;
        if addr < base - guard || addr + v > base + len + guard || addr < 0 {
            return Err(ExecError::ChunkOutOfBounds {
                array,
                addr,
                base: base as u64,
                byte_len: len as u64,
            });
        }
        Ok(addr as usize)
    }

    fn check_chunk(&self, array: ArrayId, addr: i64) -> Result<usize, ExecError> {
        let v = self.shape.bytes() as i64;
        let base = self.bases[array.index()] as i64;
        let len = (self.lens[array.index()] * self.elem.size() as u64) as i64;
        let guard = (GUARD_CHUNKS as i64) * v;
        let chunk = addr & !(v - 1);
        if chunk < base - guard || chunk + v > base + len + guard || chunk < 0 {
            return Err(ExecError::ChunkOutOfBounds {
                array,
                addr,
                base: base as u64,
                byte_len: len as u64,
            });
        }
        Ok(chunk as usize)
    }

    /// The raw image bytes (for whole-image differential comparison).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw image bytes, for executors that have
    /// validated their accesses up front (the compiled engine).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// The guarded byte range `[lo, hi)` of `array`: every `V`-byte
    /// chunk access the truncating load/store instructions accept
    /// satisfies `lo ≤ chunk` and `chunk + V ≤ hi`. Lets a compiler
    /// validate a whole access stream once instead of per access.
    pub fn guarded_range(&self, array: ArrayId) -> (i64, i64) {
        let v = self.shape.bytes() as i64;
        let base = self.bases[array.index()] as i64;
        let len = (self.lens[array.index()] * self.elem.size() as u64) as i64;
        let guard = (GUARD_CHUNKS as i64) * v;
        ((base - guard).max(0), base + len + guard)
    }

    /// First byte position at which two images differ, if any.
    pub fn first_difference(&self, other: &MemoryImage) -> Option<usize> {
        // Every verified run compares equal images: clear those at
        // `memcmp` speed and walk bytes only to locate a difference.
        if self.bytes == other.bytes {
            return None;
        }
        self.bytes
            .iter()
            .zip(other.bytes.iter())
            .position(|(a, b)| a != b)
            .or_else(|| {
                if self.bytes.len() != other.bytes.len() {
                    Some(self.bytes.len().min(other.bytes.len()))
                } else {
                    None
                }
            })
    }
}

/// Writes the low `D` bytes of one draw into each `D`-byte element of
/// `bytes`, in order.
fn fill<const D: usize>(bytes: &mut [u8], rng: &mut SplitMix64) {
    for elem in bytes.as_chunks_mut::<D>().0 {
        elem.copy_from_slice(&rng.next_u64().to_le_bytes()[..D]);
    }
}

/// The per-array misalignments `with_seed` derives from `seed`: declared
/// offsets pass through, runtime arrays draw a naturally aligned lane
/// offset from the seed's stream.
fn seeded_offsets(program: &LoopProgram, shape: VectorShape, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(2).wrapping_add(1));
    let d = program.elem().size() as u64;
    let lanes = (shape.bytes() as u64) / d;
    program
        .arrays()
        .iter()
        .map(|a| match a.align() {
            AlignKind::Known(off) => off % shape.bytes(),
            AlignKind::Runtime => ((rng.next_u64() % lanes) * d) as u32,
        })
        .collect()
}

/// Array placement for one set of misalignments: `(bases, lens, total bytes)`.
fn layout(
    program: &LoopProgram,
    shape: VectorShape,
    offsets: &[u32],
) -> (Vec<u64>, Vec<u64>, usize) {
    let v = shape.bytes() as u64;
    let guard = GUARD_CHUNKS * v;
    let d = program.elem().size() as u64;
    let mut bases = Vec::new();
    let mut lens = Vec::new();
    let mut cursor = v; // never place anything at address 0
    for (idx, a) in program.arrays().iter().enumerate() {
        let off = match a.align() {
            AlignKind::Known(o) => (o % shape.bytes()) as u64,
            AlignKind::Runtime => {
                let o = offsets[idx] as u64 % v;
                assert!(
                    o.is_multiple_of(d),
                    "runtime misalignment must be naturally aligned"
                );
                o
            }
        };
        cursor += guard;
        cursor = cursor.div_ceil(v) * v; // align up to V
        let base = cursor + off;
        bases.push(base);
        lens.push(a.len());
        cursor = base + a.byte_len() + guard;
    }
    (bases, lens, (cursor + v) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, Expr, LoopBuilder};

    fn program() -> LoopProgram {
        parse_program(
            "arrays { a: i32[64] @ 12; b: i32[64] @ 4; c: i32[64] @ ?; }
             for i in 0..32 { a[i] = b[i] + c[i]; }",
        )
        .unwrap()
    }

    #[test]
    fn bases_respect_declared_misalignment() {
        let p = program();
        let img = MemoryImage::with_seed(&p, VectorShape::V16, 7);
        assert_eq!(img.base_of(ArrayId::from_index(0)) % 16, 12);
        assert_eq!(img.base_of(ArrayId::from_index(1)) % 16, 4);
        // runtime array: naturally aligned for i32
        assert_eq!(img.base_of(ArrayId::from_index(2)) % 4, 0);
    }

    #[test]
    fn runtime_offsets_vary_with_seed() {
        let p = program();
        let offs: Vec<u64> = (0..16)
            .map(|s| {
                MemoryImage::with_seed(&p, VectorShape::V16, s).base_of(ArrayId::from_index(2)) % 16
            })
            .collect();
        assert!(offs.iter().any(|&o| o != offs[0]));
    }

    #[test]
    fn element_roundtrip_and_bounds() {
        let p = program();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 1);
        let a = ArrayId::from_index(0);
        img.set(a, 5, Value::from_i64(img.elem(), -77)).unwrap();
        assert_eq!(img.get(a, 5).unwrap().as_i64(), -77);
        assert!(matches!(
            img.get(a, 64),
            Err(ExecError::ElementOutOfBounds { .. })
        ));
    }

    #[test]
    fn chunk_ops_truncate() {
        let p = program();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 1);
        let b = ArrayId::from_index(1);
        let base = img.base_of(b) as i64;
        // Loads from base, base+1, base+14 all return the same chunk.
        let c0 = img.load_chunk(b, base).unwrap();
        assert_eq!(img.load_chunk(b, base + 1).unwrap(), c0);
        assert_eq!(img.load_chunk(b, base + 11).unwrap(), c0);
        // A store at a misaligned address writes the truncated chunk.
        let data = vec![0xAB; 16];
        img.store_chunk(b, base + 3, &data).unwrap();
        assert_eq!(img.load_chunk(b, base).unwrap(), data);
    }

    #[test]
    fn chunk_guard_limits() {
        let p = program();
        let img = MemoryImage::with_seed(&p, VectorShape::V16, 1);
        let b = ArrayId::from_index(1);
        let base = img.base_of(b) as i64;
        // Within guard: fine. Far before the array: error.
        assert!(img.load_chunk(b, base - 16).is_ok());
        assert!(img.load_chunk(b, base - 64 * 16).is_err());
        assert!(img.load_chunk(b, base + 64 * 4 + 63 * 16).is_err());
    }

    #[test]
    fn differential_helper_spots_changes() {
        let p = program();
        let img1 = MemoryImage::with_seed(&p, VectorShape::V16, 3);
        let mut img2 = img1.clone();
        assert_eq!(img1.first_difference(&img2), None);
        img2.set(ArrayId::from_index(0), 0, Value::from_i64(img2.elem(), 1))
            .unwrap();
        assert!(img1.first_difference(&img2).is_some());
        // The position reported is the first differing byte.
        let mut img3 = img1.clone();
        let last = img3.bytes().len() - 1;
        img3.bytes_mut()[last] ^= 1;
        assert_eq!(img1.first_difference(&img3), Some(last));
        img3.bytes_mut()[7] ^= 0x80;
        assert_eq!(img1.first_difference(&img3), Some(7));
    }

    #[test]
    fn fill_random_is_deterministic() {
        let p = program();
        let mut a = MemoryImage::with_offsets(&p, VectorShape::V16, &[0, 0, 8]);
        let mut b = MemoryImage::with_offsets(&p, VectorShape::V16, &[0, 0, 8]);
        a.fill_random(9);
        b.fill_random(9);
        assert_eq!(a, b);
        b.fill_random(10);
        assert_ne!(a, b);
    }

    #[test]
    fn bulk_fill_writes_what_per_element_values_would() {
        // The fill as it was first written: one `Value` per element,
        // stored through the checked setter.
        for ty in ScalarType::ALL {
            let mut bld = LoopBuilder::new(ty);
            let a = bld.array("a", 37, (3 * ty.size() as u32) % 16);
            let c = bld.array_runtime_align("c", 64);
            bld.stmt(a.at(0), Expr::load(c.at(1)));
            let p = bld.finish(32).unwrap();
            for seed in 0..4 {
                let img = MemoryImage::with_seed(&p, VectorShape::V16, seed);
                let mut by_value = img.clone();
                by_value.bytes_mut().fill(0);
                let mut rng = SplitMix64::seed_from_u64((seed ^ 0x9E37_79B9_7F4A_7C15) | 1);
                for (k, decl) in p.arrays().iter().enumerate() {
                    for idx in 0..decl.len() {
                        let v = Value::from_i64(ty, rng.next_u64() as i64);
                        by_value.set(ArrayId::from_index(k), idx, v).unwrap();
                    }
                }
                assert_eq!(img, by_value, "{ty} seed {seed}");
                let mut reused = MemoryImage::with_seed(&program(), VectorShape::V16, 9);
                reused.reseed(&p, VectorShape::V16, seed);
                assert_eq!(reused, img, "{ty} seed {seed}");
            }
        }
    }

    #[test]
    fn reseed_matches_with_seed() {
        let p = program();
        // Start from a different seed so bases, lengths and contents all
        // have to change, then reseed in place.
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 2);
        for seed in [0u64, 7, 13, 14] {
            img.reseed(&p, VectorShape::V16, seed);
            assert_eq!(img, MemoryImage::with_seed(&p, VectorShape::V16, seed));
        }
    }

    #[test]
    fn copy_from_matches_clone() {
        let p = program();
        let src = MemoryImage::with_seed(&p, VectorShape::V16, 9);
        let mut dst = MemoryImage::with_seed(&p, VectorShape::V16, 2);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn i8_arrays_place_at_any_offset() {
        let mut bld = LoopBuilder::new(simdize_ir::ScalarType::U8);
        let a = bld.array("a", 64, 3);
        let c = bld.array_runtime_align("c", 64);
        bld.stmt(a.at(0), Expr::load(c.at(1)));
        let p = bld.finish(32).unwrap();
        let img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert_eq!(img.base_of(a.id()) % 16, 3);
    }
}
