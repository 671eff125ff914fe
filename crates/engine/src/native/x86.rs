//! x86_64 intrinsic tiers: x86-64-v2 and AVX2.
//!
//! The paper lowers its reorganization ops onto a byte permute and a
//! byte select (§2.2). On x86 those are SSSE3's `palignr` and `pshufb`
//! and SSE4.1's `pblendvb`, which with `pmulld` and the full min/max
//! family make the x86-64-v2 level. So there is one set of 128-bit
//! arms, one per operation family — [`shift`] (`palignr`), [`splice`]
//! (`pblendvb`), [`perm`] (two `pshufb` and a `por`), [`bin`] and
//! [`un`] — compiled at `ssse3,sse4.1`, and one bundle of them
//! ([`narrow`]) that both tiers build, each with its own `fold`: the
//! v2 tier ([`v2`]) and the AVX2 tier ([`avx2`]). Each tier has three
//! `#[target_feature]` entries that instantiate the generic driver: the
//! strip loop, and — out of line, so their lane loops stay out of the
//! strip loop — the two superinstruction runners the bundle's `fold`
//! picks between, one for mixed trees and one for the rest: the AVX2
//! tier's for paired superinstructions, wide (below), its `fold` sending
//! any other to the v2 tier's. They const-match the 25 canonical
//! `(BinOp, ScalarType)` pairs x86 has an instruction for. Every call
//! between them is a safe same-context call: rustc's implied-feature
//! rules make the v2 arms and runners callable from the AVX2 tier, and
//! a bundle's closures inherit the features of the function building it.
//!
//! The engine's vector shape is V16, so both tiers' generic ops work
//! on 128-bit registers. A superinstruction whose folds split into the
//! unrolled pair's two halves (`lower` decides it once per bake) runs
//! 256 bits wide on the AVX2 tier instead ([`avx2_wide`]): both halves
//! of each lane in one `ymm`, since the second half is the first one
//! source iteration — 16 bytes — on. A stream's halves load as one
//! `vmovdqu ymm` (a stride-2 pack's, 32 bytes apart, as a `vmovdqu`
//! and a `vinserti128`), the two stores are one 32-byte store, and
//! `vpshufb` shuffles — gathers and rotation shifts, their tables
//! broadcast — work half by half. A rotation builds each half's
//! previous vector, `[prev_hi | cur_lo]`, with one `vperm2i128`; a lane
//! partial folds the `ymm` to 128 bits by its operator before it joins
//! the lane's partial.
//!
//! Operation/width pairs with no instruction at v2 fall back to the
//! [`lanes`] reference loops on register copies — bit-identical by
//! definition, and only ever hit for combinations the paper's kernels
//! do not emit in hot loops: 8- and 64-bit multiply, 64-bit min/max and
//! 64-bit abs; the wide form runs those half by half. A host below v2
//! runs the portable tier.
//!
//! This module is the only place in the crate allowed to use
//! `unsafe`; every block is a load/store intrinsic on an
//! exactly-16-byte array or a feature-checked tier entry. The strip
//! driver hands those arrays out of bounds-checked slices of the
//! image, so no access here can leave it. The wide form needs no
//! block of its own: LLVM merges its two 16-byte loads of adjacent
//! vectors, and its two stores into one 32-byte array, into single
//! `vmovdqu ymm`s.

use super::strip::{self, Columns, FoldLanes, Lanes, Program, Super, Tier, Wide};
use super::IsaLevel;
use crate::lanes::{self, Reg};
use core::arch::x86_64::*;
use simdize_ir::{BinOp, ScalarType, UnOp};
use std::cell::Cell;

/// Safe dispatch into the x86 tiers. `wide` asks for the AVX2 tier;
/// each tier's runtime probe is re-checked here, so this safe function
/// cannot reach unsupported instructions even if called with a stale
/// flag. Returns whether it ran: a host below v2 runs the portable tier.
pub(super) fn exec(program: &Program, mem: &mut [u8], wide: bool, columns: &mut Columns) -> bool {
    if wide && IsaLevel::Avx2.available() {
        // SAFETY: the `avx2` branch of `available` just confirmed
        // ssse3, sse4.1 and avx2 via `is_x86_feature_detected!`.
        unsafe { run_avx2(program, mem, columns) }
    } else if IsaLevel::V2.available() {
        // SAFETY: the `v2` branch of `available` just confirmed ssse3
        // and sse4.1 via `is_x86_feature_detected!`.
        unsafe { run_v2(program, mem, columns) }
    } else {
        return false;
    }
    true
}

#[target_feature(enable = "ssse3,sse4.1")]
fn run_v2(program: &Program, mem: &mut [u8], columns: &mut Columns) {
    strip::run(v2(), program, mem, columns)
}

#[target_feature(enable = "ssse3,sse4.1,avx2")]
fn run_avx2(program: &Program, mem: &mut [u8], columns: &mut Columns) {
    strip::run(avx2(), program, mem, columns)
}

#[inline(never)]
#[target_feature(enable = "ssse3,sse4.1")]
fn fold_v2(
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<__m128i>],
    mem: &mut [u8],
) {
    strip::fold::<_, true>(v2(), f, k0, len, elem, regs, mem)
}

/// A mixed tree's column loops, in a function of their own: inside the
/// runner of every other superinstruction, they kept their lane
/// counters on the stack.
#[inline(never)]
#[target_feature(enable = "ssse3,sse4.1")]
#[allow(clippy::too_many_arguments)]
fn tree_v2(
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<__m128i>],
    mem: &mut [u8],
    columns: &mut Columns,
) {
    strip::tree::<_, true>(v2(), f, k0, len, elem, regs, mem, columns)
}

/// A paired superinstruction, both halves of each lane in one `ymm`
/// ([`avx2_wide`]); the AVX2 tier runs any other on [`fold_v2`].
#[inline(never)]
#[target_feature(enable = "ssse3,sse4.1,avx2")]
fn fold_avx2(
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<__m128i>],
    mem: &mut [u8],
) {
    strip::fold::<_, true>(avx2_wide(), f, k0, len, elem, regs, mem)
}

/// [`tree_v2`] for a paired mixed tree, wide.
#[inline(never)]
#[target_feature(enable = "ssse3,sse4.1,avx2")]
#[allow(clippy::too_many_arguments)]
fn tree_avx2(
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<__m128i>],
    mem: &mut [u8],
    columns: &mut Columns,
) {
    strip::tree::<_, true>(avx2_wide(), f, k0, len, elem, regs, mem, columns)
}

/// The 128-bit arms as one tier's operations, its superinstructions
/// run by `fold`.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn narrow<Fo>(fold: Fo) -> impl Lanes<V = __m128i>
where
    Fo: Fn(&Super, i64, usize, ScalarType, &[Cell<__m128i>], &mut [u8], &mut Columns) + Copy,
{
    Tier {
        load: from_bytes,
        store: |v, out: &mut Reg| *out = to_bytes(v),
        shift: |a, b, amt| shift(a, b, amt),
        splice: |a, b, mask| splice(a, b, mask),
        perm: |a, b, lo: &Reg, hi: &Reg| perm(a, b, lo, hi),
        bin: |op, elem, a, b| bin(op, elem, a, b),
        un: |op, elem, a| un(op, elem, a),
        fold,
    }
}

/// The v2 tier's operations.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn v2() -> impl Lanes<V = __m128i> {
    narrow(|f, k0, len, elem, regs, mem, columns| match f.tree {
        Some(_) => tree_v2(f, k0, len, elem, regs, mem, columns),
        None => fold_v2(f, k0, len, elem, regs, mem),
    })
}

/// The AVX2 tier's 128-bit operations: the v2 tier's, whose runners
/// its `fold` calls for every superinstruction but a paired one.
#[inline]
#[target_feature(enable = "ssse3,sse4.1,avx2")]
fn avx2() -> impl Lanes<V = __m128i> {
    narrow(
        |f, k0, len, elem, regs, mem, columns| match (f.halves, &f.tree) {
            (0, _) => v2().fold(f, k0, len, elem, regs, mem, columns),
            (_, Some(_)) => tree_avx2(f, k0, len, elem, regs, mem, columns),
            (_, None) => fold_avx2(f, k0, len, elem, regs, mem),
        },
    )
}

/// The AVX2 tier's wide form: an unrolled pair's two halves in one
/// `ymm`, the first half in the lower 128 bits. Two 16-byte loads 16
/// bytes apart become one `vmovdqu ymm`, the two stores into one
/// 32-byte array likewise; `vpshufb` already works half by half.
#[inline]
#[target_feature(enable = "ssse3,sse4.1,avx2")]
fn avx2_wide() -> impl FoldLanes<W = __m256i, V = __m128i> {
    Wide {
        read: |lo: &Reg, hi: &Reg| _mm256_set_m128i(from_bytes(hi), from_bytes(lo)),
        splat: |src: &Reg| _mm256_broadcastsi128_si256(from_bytes(src)),
        write: |v, out: &mut [u8; 32]| {
            let (lo, hi) = out.split_at_mut(16);
            lo.copy_from_slice(&to_bytes(_mm256_castsi256_si128(v)));
            hi.copy_from_slice(&to_bytes(_mm256_extracti128_si256::<1>(v)));
        },
        gather: |a, b, lo: &Reg, hi: &Reg| {
            let table = |t: &Reg| _mm256_broadcastsi128_si256(from_bytes(t));
            _mm256_or_si256(
                _mm256_shuffle_epi8(a, table(lo)),
                _mm256_shuffle_epi8(b, table(hi)),
            )
        },
        combine: |op, elem, a, b| bin_wide(op, elem, a, b),
        prev: |prev, cur| _mm256_permute2x128_si256::<0x21>(prev, cur),
        lift: |r| _mm256_broadcastsi128_si256(r),
        halves: |v| (_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)),
        bin: |op, elem, a, b| bin(op, elem, a, b),
    }
}

#[inline]
fn to_bytes(v: __m128i) -> Reg {
    let mut out = [0u8; 16];
    // SAFETY: SSE2 is architecturally guaranteed on x86_64; `out` is
    // exactly 16 writable bytes and movdqu has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
    out
}

#[inline]
fn from_bytes(r: &Reg) -> __m128i {
    // SAFETY: SSE2 is architecturally guaranteed on x86_64; `r` is
    // exactly 16 readable bytes and movdqu has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(r.as_ptr().cast()) }
}

/// `vshiftpair` as the paper lowers it: one `palignr` per amount, the
/// amount a const immediate, hence the match table over all 17 legal
/// amounts. `palignr(b, a, n)` reads the concatenation `b:a` shifted
/// right `n` bytes — exactly `out[i] = (a ++ b)[i + n]`.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn shift(a: __m128i, b: __m128i, amt: u8) -> __m128i {
    macro_rules! arm {
        ($n:literal) => {
            _mm_alignr_epi8::<$n>(b, a)
        };
    }
    by_amount!(amt, a, b, arm)
}

/// `vsplice` select: mask byte `0xFF` takes `a`, `0x00` takes `b`.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn splice(a: __m128i, b: __m128i, mask: __m128i) -> __m128i {
    // blendv picks its *second* source where the mask byte's high bit
    // is set; our mask is 0xFF-on-`a`.
    _mm_blendv_epi8(b, a, mask)
}

/// `vperm` as dual `pshufb`: each half-table selects from one source
/// register (0x80 lanes shuffle to zero), OR merges the halves.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn perm(a: __m128i, b: __m128i, lo: &Reg, hi: &Reg) -> __m128i {
    _mm_or_si128(
        _mm_shuffle_epi8(a, from_bytes(lo)),
        _mm_shuffle_epi8(b, from_bytes(hi)),
    )
}

#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn bin(op: BinOp, elem: ScalarType, a: __m128i, b: __m128i) -> __m128i {
    let signed = elem.is_signed();
    match (op, elem.size()) {
        (BinOp::Add, 1) => _mm_add_epi8(a, b),
        (BinOp::Add, 2) => _mm_add_epi16(a, b),
        (BinOp::Add, 4) => _mm_add_epi32(a, b),
        (BinOp::Add, _) => _mm_add_epi64(a, b),
        (BinOp::Sub, 1) => _mm_sub_epi8(a, b),
        (BinOp::Sub, 2) => _mm_sub_epi16(a, b),
        (BinOp::Sub, 4) => _mm_sub_epi32(a, b),
        (BinOp::Sub, _) => _mm_sub_epi64(a, b),
        (BinOp::Mul, 2) => _mm_mullo_epi16(a, b),
        (BinOp::Mul, 4) => _mm_mullo_epi32(a, b),
        (BinOp::And, _) => _mm_and_si128(a, b),
        (BinOp::Or, _) => _mm_or_si128(a, b),
        (BinOp::Xor, _) => _mm_xor_si128(a, b),
        (BinOp::Min, 1) if signed => _mm_min_epi8(a, b),
        (BinOp::Min, 1) => _mm_min_epu8(a, b),
        (BinOp::Min, 2) if signed => _mm_min_epi16(a, b),
        (BinOp::Min, 2) => _mm_min_epu16(a, b),
        (BinOp::Min, 4) if signed => _mm_min_epi32(a, b),
        (BinOp::Min, 4) => _mm_min_epu32(a, b),
        (BinOp::Max, 1) if signed => _mm_max_epi8(a, b),
        (BinOp::Max, 1) => _mm_max_epu8(a, b),
        (BinOp::Max, 2) if signed => _mm_max_epi16(a, b),
        (BinOp::Max, 2) => _mm_max_epu16(a, b),
        (BinOp::Max, 4) if signed => _mm_max_epi32(a, b),
        (BinOp::Max, 4) => _mm_max_epu32(a, b),
        // 8- and 64-bit multiply, 64-bit min/max.
        _ => from_bytes(&lanes::bin(op, elem, &to_bytes(a), &to_bytes(b))),
    }
}

/// [`bin`] on both halves at once; what has no 256-bit instruction
/// (64-bit multiply and min/max, 8-bit multiply) runs half by half.
#[inline]
#[target_feature(enable = "ssse3,sse4.1,avx2")]
fn bin_wide(op: BinOp, elem: ScalarType, a: __m256i, b: __m256i) -> __m256i {
    let signed = elem.is_signed();
    match (op, elem.size()) {
        (BinOp::Add, 1) => _mm256_add_epi8(a, b),
        (BinOp::Add, 2) => _mm256_add_epi16(a, b),
        (BinOp::Add, 4) => _mm256_add_epi32(a, b),
        (BinOp::Add, _) => _mm256_add_epi64(a, b),
        (BinOp::Sub, 1) => _mm256_sub_epi8(a, b),
        (BinOp::Sub, 2) => _mm256_sub_epi16(a, b),
        (BinOp::Sub, 4) => _mm256_sub_epi32(a, b),
        (BinOp::Sub, _) => _mm256_sub_epi64(a, b),
        (BinOp::Mul, 2) => _mm256_mullo_epi16(a, b),
        (BinOp::Mul, 4) => _mm256_mullo_epi32(a, b),
        (BinOp::And, _) => _mm256_and_si256(a, b),
        (BinOp::Or, _) => _mm256_or_si256(a, b),
        (BinOp::Xor, _) => _mm256_xor_si256(a, b),
        (BinOp::Min, 1) if signed => _mm256_min_epi8(a, b),
        (BinOp::Min, 1) => _mm256_min_epu8(a, b),
        (BinOp::Min, 2) if signed => _mm256_min_epi16(a, b),
        (BinOp::Min, 2) => _mm256_min_epu16(a, b),
        (BinOp::Min, 4) if signed => _mm256_min_epi32(a, b),
        (BinOp::Min, 4) => _mm256_min_epu32(a, b),
        (BinOp::Max, 1) if signed => _mm256_max_epi8(a, b),
        (BinOp::Max, 1) => _mm256_max_epu8(a, b),
        (BinOp::Max, 2) if signed => _mm256_max_epi16(a, b),
        (BinOp::Max, 2) => _mm256_max_epu16(a, b),
        (BinOp::Max, 4) if signed => _mm256_max_epi32(a, b),
        (BinOp::Max, 4) => _mm256_max_epu32(a, b),
        _ => {
            let half = |v: __m256i| (_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let ((a_lo, a_hi), (b_lo, b_hi)) = (half(a), half(b));
            _mm256_set_m128i(bin(op, elem, a_hi, b_hi), bin(op, elem, a_lo, b_lo))
        }
    }
}

#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn un(op: UnOp, elem: ScalarType, a: __m128i) -> __m128i {
    let signed = elem.is_signed();
    let zero = _mm_setzero_si128();
    match (op, elem.size()) {
        (UnOp::Neg, 1) => _mm_sub_epi8(zero, a),
        (UnOp::Neg, 2) => _mm_sub_epi16(zero, a),
        (UnOp::Neg, 4) => _mm_sub_epi32(zero, a),
        (UnOp::Neg, _) => _mm_sub_epi64(zero, a),
        (UnOp::Not, _) => _mm_xor_si128(a, _mm_cmpeq_epi32(zero, zero)),
        // abs on an unsigned type is the identity (lanes semantics).
        (UnOp::Abs, _) if !signed => a,
        // pabs* keeps MIN as MIN — exactly `wrapping_abs`.
        (UnOp::Abs, 1) => _mm_abs_epi8(a),
        (UnOp::Abs, 2) => _mm_abs_epi16(a),
        (UnOp::Abs, 4) => _mm_abs_epi32(a),
        // 64-bit abs.
        _ => from_bytes(&lanes::un(op, elem, &to_bytes(a))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_prng::SplitMix64;

    fn random_reg(rng: &mut SplitMix64) -> Reg {
        let mut r = [0u8; 16];
        for chunk in r.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        r
    }

    /// Every 128-bit arm against its scalar reference, across all shift
    /// amounts, splice points, ops and element types.
    fn check<L: Lanes<V = __m128i>>(l: L) {
        let mut rng = SplitMix64::seed_from_u64(0x51D);
        for _ in 0..64 {
            let ar = random_reg(&mut rng);
            let br = random_reg(&mut rng);
            let (a, b) = (l.load(&ar), l.load(&br));
            let bytes = |v| {
                let mut out = [0u8; 16];
                l.store(v, &mut out);
                out
            };
            let mut pair = [0u8; 32];
            pair[..16].copy_from_slice(&ar);
            pair[16..].copy_from_slice(&br);
            for amt in 0..=16usize {
                let want = &pair[amt..amt + 16];
                assert_eq!(bytes(l.shift(a, b, amt as u8)), want, "shift {amt}");
            }
            for point in 0..=16usize {
                let mask = strip::splice_mask(point as u8);
                let mut want = br;
                want[..point].copy_from_slice(&ar[..point]);
                assert_eq!(bytes(l.splice(a, b, l.load(&mask))), want, "splice");
            }
            let pattern: [u8; 16] = std::array::from_fn(|_| (rng.next_u64() % 32) as u8);
            let (lo, hi) = strip::perm_tables(&pattern);
            let want = pattern.map(|sel| pair[sel as usize]);
            assert_eq!(bytes(l.perm(a, b, &lo, &hi)), want, "perm");
            for ty in simdize_ir::ScalarType::ALL {
                for op in [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Min,
                    BinOp::Max,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                ] {
                    let want = lanes::bin(op, ty, &ar, &br);
                    assert_eq!(bytes(l.bin(op, ty, a, b)), want, "{op:?} {ty}");
                }
                for op in [UnOp::Neg, UnOp::Not, UnOp::Abs] {
                    let want = lanes::un(op, ty, &ar);
                    assert_eq!(bytes(l.un(op, ty, a)), want, "{op:?} {ty}");
                }
            }
        }
    }

    /// Every operation of the AVX2 tier's wide form against the 128-bit
    /// arm applied to each half.
    fn check_wide<L: Lanes<V = __m128i>, W: FoldLanes<W = __m256i, V = __m128i>>(l: L, w: W) {
        let mut rng = SplitMix64::seed_from_u64(0x256);
        let bytes = |v| {
            let mut out = [0u8; 16];
            l.store(v, &mut out);
            out
        };
        let halves = |v| {
            let mut out = [[0u8; 16]; 2];
            w.write(v, &mut out);
            out
        };
        for _ in 0..64 {
            let [a, a2, b, b2, p] = std::array::from_fn(|_| random_reg(&mut rng));
            assert_eq!(halves(w.read(&[a, a2], 1)), [a, a2], "read");
            assert_eq!(
                halves(w.read(&[a, b, a2], 2)),
                [a, a2],
                "read 32 bytes apart"
            );
            assert_eq!(halves(w.splat(&p)), [p, p], "splat");
            let (x, y) = (w.read(&[a, a2], 1), w.read(&[b, b2], 1));
            let both = |f: &dyn Fn(Reg, Reg) -> __m128i| [bytes(f(a, b)), bytes(f(a2, b2))];
            let pattern: [u8; 16] = std::array::from_fn(|_| (rng.next_u64() % 32) as u8);
            let (lo, hi) = strip::perm_tables(&pattern);
            let perm = |a, b| l.perm(l.load(&a), l.load(&b), &lo, &hi);
            assert_eq!(halves(w.gather(x, y, &lo, &hi)), both(&perm), "gather");
            assert_eq!(halves(w.prev(x, y)), [a2, b], "prev");
            assert_eq!(bytes(w.last(x)), a2, "last");
            assert_eq!(bytes(w.last(w.lift(l.load(&p)))), p, "lift");
            for ty in simdize_ir::ScalarType::ALL {
                for op in [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Min,
                    BinOp::Max,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                ] {
                    let bin = |a, b| l.bin(op, ty, l.load(&a), l.load(&b));
                    assert_eq!(halves(w.combine(op, ty, x, y)), both(&bin), "{op:?} {ty}");
                    let want = l.bin(op, ty, l.load(&p), l.bin(op, ty, l.load(&a), l.load(&a2)));
                    assert_eq!(
                        bytes(w.reduce(op, ty, l.load(&p), x)),
                        bytes(want),
                        "reduce {op:?} {ty}"
                    );
                }
            }
        }
    }

    #[test]
    fn tier_operations_match_scalar_reference() {
        if IsaLevel::V2.available() {
            // SAFETY: `available` just confirmed ssse3 and sse4.1.
            check(unsafe { v2() });
        }
        if IsaLevel::Avx2.available() {
            // SAFETY: `available` just confirmed ssse3, sse4.1 and avx2.
            let (narrow, wide) = unsafe { (avx2(), avx2_wide()) };
            check(narrow);
            check_wide(narrow, wide);
        }
    }
}
