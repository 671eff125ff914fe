//! aarch64 NEON tier. ASIMD is architecturally guaranteed on
//! aarch64, so like SSE2 on x86_64 this is a baseline, not a probed
//! tier: `vextq_u8` for `vshiftpair`, `vbslq_u8` for `vsplice`,
//! `vqtbl2q_u8` over the raw 0..32 selector for `vperm`,
//! `vld1q`/`vst1q` for the chunk-aligned streams and the
//! `vaddq`/`vsubq`/`vmulq`/`vminq`/`vmaxq`/`vabsq` families per
//! element width. 64-bit multiply/min/max fall back to the
//! [`lanes`] reference loops on register copies.
//!
//! This module and `x86` are the only two places in the crate allowed
//! to use `unsafe`; every block is a load/store intrinsic on an
//! exactly-16-byte array or the baseline-feature tier entry.

use super::strip::{self, Lanes, Program, Super, Tier};
use crate::lanes::{self, Reg};
use core::arch::aarch64::*;
use simdize_ir::{BinOp, ScalarType, UnOp};
use std::cell::Cell;

/// Safe dispatch into the NEON tier.
pub(super) fn exec(program: &Program, mem: &mut [u8]) {
    // SAFETY: NEON (ASIMD) is architecturally guaranteed on aarch64.
    unsafe { run_neon(program, mem) }
}

#[target_feature(enable = "neon")]
fn run_neon(program: &Program, mem: &mut [u8]) {
    strip::run(neon(), program, mem)
}

#[inline(never)]
#[target_feature(enable = "neon")]
fn fold_neon(f: &Super, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<uint8x16_t>], mem: &mut [u8]) {
    strip::fold::<_, true>(neon(), f, k0, len, elem, regs, mem)
}

/// The NEON tier's operations. The closures inherit this function's
/// feature set, so they call the helpers below safely.
#[inline]
#[target_feature(enable = "neon")]
fn neon() -> impl Lanes<V = uint8x16_t> {
    Tier {
        load: from_bytes,
        store: |v, out: &mut Reg| *out = to_bytes(v),
        shift: |a, b, amt| shift(a, b, amt),
        splice: |a, b, mask| vbslq_u8(mask, a, b),
        perm: |a, b, pattern: &[u8; 16], _: &Reg, _: &Reg| perm(a, b, pattern),
        bin: |op, elem, a, b| bin(op, elem, a, b),
        un: |op, elem, a| un(op, elem, a),
        fold: |f: &Super, k0, len, elem, regs: &[Cell<uint8x16_t>], mem: &mut [u8]| fold_neon(f, k0, len, elem, regs, mem),
    }
}

#[inline]
fn to_bytes(v: uint8x16_t) -> Reg {
    let mut out = [0u8; 16];
    // SAFETY: NEON is architecturally guaranteed on aarch64; `out` is
    // exactly 16 writable bytes.
    unsafe { vst1q_u8(out.as_mut_ptr(), v) };
    out
}

#[inline]
fn from_bytes(r: &Reg) -> uint8x16_t {
    // SAFETY: NEON is architecturally guaranteed on aarch64; `r` is
    // exactly 16 readable bytes.
    unsafe { vld1q_u8(r.as_ptr()) }
}

#[inline]
#[target_feature(enable = "neon")]
fn emul_bin(op: BinOp, elem: ScalarType, a: uint8x16_t, b: uint8x16_t) -> uint8x16_t {
    from_bytes(&lanes::bin(op, elem, &to_bytes(a), &to_bytes(b)))
}

#[inline]
#[target_feature(enable = "neon")]
fn emul_un(op: UnOp, elem: ScalarType, a: uint8x16_t) -> uint8x16_t {
    from_bytes(&lanes::un(op, elem, &to_bytes(a)))
}

/// `vshiftpair` as a single `ext`: `vextq_u8(a, b, n)` takes the high
/// `16 − n` bytes of `a` followed by the low `n` bytes of `b`.
#[inline]
#[target_feature(enable = "neon")]
fn shift(a: uint8x16_t, b: uint8x16_t, amt: u8) -> uint8x16_t {
    macro_rules! arm {
        ($n:literal) => {
            vextq_u8::<$n>(a, b)
        };
    }
    by_amount!(amt, a, b, arm)
}

/// `vperm` as a two-register table lookup over the raw 0..32 pattern.
#[inline]
#[target_feature(enable = "neon")]
fn perm(a: uint8x16_t, b: uint8x16_t, pattern: &[u8; 16]) -> uint8x16_t {
    vqtbl2q_u8(uint8x16x2_t(a, b), from_bytes(pattern))
}

#[inline]
#[target_feature(enable = "neon")]
fn bin(op: BinOp, elem: ScalarType, a: uint8x16_t, b: uint8x16_t) -> uint8x16_t {
    let signed = elem.is_signed();
    match (op, elem.size()) {
        (BinOp::Add, 1) => vaddq_u8(a, b),
        (BinOp::Add, 2) => vreinterpretq_u8_u16(vaddq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
        (BinOp::Add, 4) => vreinterpretq_u8_u32(vaddq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
        (BinOp::Add, _) => vreinterpretq_u8_u64(vaddq_u64(vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b))),
        (BinOp::Sub, 1) => vsubq_u8(a, b),
        (BinOp::Sub, 2) => vreinterpretq_u8_u16(vsubq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
        (BinOp::Sub, 4) => vreinterpretq_u8_u32(vsubq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
        (BinOp::Sub, _) => vreinterpretq_u8_u64(vsubq_u64(vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b))),
        (BinOp::Mul, 1) => vmulq_u8(a, b),
        (BinOp::Mul, 2) => vreinterpretq_u8_u16(vmulq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
        (BinOp::Mul, 4) => vreinterpretq_u8_u32(vmulq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
        (BinOp::And, _) => vandq_u8(a, b),
        (BinOp::Or, _) => vorrq_u8(a, b),
        (BinOp::Xor, _) => veorq_u8(a, b),
        (BinOp::Min, 1) if signed => {
            vreinterpretq_u8_s8(vminq_s8(vreinterpretq_s8_u8(a), vreinterpretq_s8_u8(b)))
        }
        (BinOp::Min, 1) => vminq_u8(a, b),
        (BinOp::Min, 2) if signed => {
            vreinterpretq_u8_s16(vminq_s16(vreinterpretq_s16_u8(a), vreinterpretq_s16_u8(b)))
        }
        (BinOp::Min, 2) => vreinterpretq_u8_u16(vminq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
        (BinOp::Min, 4) if signed => {
            vreinterpretq_u8_s32(vminq_s32(vreinterpretq_s32_u8(a), vreinterpretq_s32_u8(b)))
        }
        (BinOp::Min, 4) => vreinterpretq_u8_u32(vminq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
        (BinOp::Max, 1) if signed => {
            vreinterpretq_u8_s8(vmaxq_s8(vreinterpretq_s8_u8(a), vreinterpretq_s8_u8(b)))
        }
        (BinOp::Max, 1) => vmaxq_u8(a, b),
        (BinOp::Max, 2) if signed => {
            vreinterpretq_u8_s16(vmaxq_s16(vreinterpretq_s16_u8(a), vreinterpretq_s16_u8(b)))
        }
        (BinOp::Max, 2) => vreinterpretq_u8_u16(vmaxq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
        (BinOp::Max, 4) if signed => {
            vreinterpretq_u8_s32(vmaxq_s32(vreinterpretq_s32_u8(a), vreinterpretq_s32_u8(b)))
        }
        (BinOp::Max, 4) => vreinterpretq_u8_u32(vmaxq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
        _ => emul_bin(op, elem, a, b),
    }
}

#[inline]
#[target_feature(enable = "neon")]
fn un(op: UnOp, elem: ScalarType, a: uint8x16_t) -> uint8x16_t {
    let signed = elem.is_signed();
    match (op, elem.size()) {
        (UnOp::Neg, 1) => vsubq_u8(vdupq_n_u8(0), a),
        (UnOp::Neg, 2) => vreinterpretq_u8_u16(vsubq_u16(vdupq_n_u16(0), vreinterpretq_u16_u8(a))),
        (UnOp::Neg, 4) => vreinterpretq_u8_u32(vsubq_u32(vdupq_n_u32(0), vreinterpretq_u32_u8(a))),
        (UnOp::Neg, _) => vreinterpretq_u8_u64(vsubq_u64(vdupq_n_u64(0), vreinterpretq_u64_u8(a))),
        (UnOp::Not, _) => vmvnq_u8(a),
        // abs on an unsigned type is the identity (lanes semantics).
        (UnOp::Abs, _) if !signed => a,
        // vabsq keeps MIN as MIN — exactly `wrapping_abs`.
        (UnOp::Abs, 1) => vreinterpretq_u8_s8(vabsq_s8(vreinterpretq_s8_u8(a))),
        (UnOp::Abs, 2) => vreinterpretq_u8_s16(vabsq_s16(vreinterpretq_s16_u8(a))),
        (UnOp::Abs, 4) => vreinterpretq_u8_s32(vabsq_s32(vreinterpretq_s32_u8(a))),
        _ => emul_un(op, elem, a),
    }
}
