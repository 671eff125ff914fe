//! Portable scalar-emulation tier: the [`Lanes`] operations on
//! `[u8; 16]` registers with no `unsafe` and no architecture
//! assumptions. This is the tier every host can run — what
//! `CompiledKernel::run` executes on — and the clamp target for
//! unavailable ISAs.
//!
//! It consumes the same operands — splice byte masks, `vperm`'s two
//! `pshufb` half-tables, renamed columns — through the same strip
//! driver as the intrinsic tiers, so those operands, the renaming pass
//! and the strip schedule are under test even on hosts without SIMD.

use super::strip::{self, Columns, Lanes, Program, Super, Tier};
use crate::lanes::{self, Reg};
use simdize_ir::ScalarType;
use std::cell::Cell;

/// The strip driver on this tier, its one instance: out of line, so no
/// frame of it sits under the x86 tiers' runners.
#[inline(never)]
pub(super) fn run(program: &Program, mem: &mut [u8], columns: &mut Columns) {
    strip::run(portable(), program, mem, columns)
}

fn portable() -> impl Lanes<V = Reg> {
    Tier {
        load: |src: &Reg| *src,
        store: |v, out: &mut Reg| *out = v,
        shift: |a: Reg, b: Reg, amt| {
            let mut pair = [0u8; 32];
            pair[..16].copy_from_slice(&a);
            pair[16..].copy_from_slice(&b);
            std::array::from_fn(|i| pair[i + amt as usize])
        },
        // Driven off the mask (not the splice point) so the mask itself
        // is differentially tested.
        splice: |a: Reg, b: Reg, mask: Reg| {
            std::array::from_fn(|i| (a[i] & mask[i]) | (b[i] & !mask[i]))
        },
        // `pshufb` semantics off the two tables, so the tables
        // themselves are differentially tested.
        perm: |a: Reg, b: Reg, lo: &Reg, hi: &Reg| {
            let pshufb = |v: &Reg, t: u8| {
                if t & 0x80 == 0 {
                    v[(t & 15) as usize]
                } else {
                    0
                }
            };
            std::array::from_fn(|i| pshufb(&a, lo[i]) | pshufb(&b, hi[i]))
        },
        bin: |op, elem, a: Reg, b: Reg| lanes::bin(op, elem, &a, &b),
        un: |op, elem, a: Reg| lanes::un(op, elem, &a),
        fold,
    }
}

#[inline(never)]
fn fold(
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<Reg>],
    mem: &mut [u8],
    columns: &mut Columns,
) {
    if f.tree.is_some() {
        strip::tree::<_, false>(portable(), f, k0, len, elem, regs, mem, columns)
    } else {
        strip::fold::<_, false>(portable(), f, k0, len, elem, regs, mem)
    }
}
