//! Width-specialized lane arithmetic on fixed 16-byte registers.
//!
//! The interpreter in `simdize-vm` decodes every lane through the
//! width-dynamic [`simdize_ir::Value`]. The engine instead dispatches
//! once per instruction on `(element width, signedness)` and runs a
//! monomorphic loop over the register bytes — no per-lane branching.
//! Two structural choices keep the loops wide:
//!
//! * the operator `match` is resolved *once per register*, outside the
//!   lane loop: each arm hands a lane closure to a `map` helper whose
//!   body is a branch-free `as_chunks` sweep rustc autovectorizes;
//! * bitwise operations (`And`/`Or`/`Xor`/`Not`) are width-agnostic, so
//!   they skip lane decomposition entirely and run on the register's two
//!   `u64` words.
//!
//! The results must be *bit-identical* to `Value` semantics (wrapping
//! arithmetic, signedness-aware min/max, `abs(MIN) == MIN`); the tests
//! below pin that equivalence for every operation and element type.

use simdize_ir::{BinOp, ScalarType, UnOp};

/// One 16-byte vector register.
pub(crate) type Reg = [u8; 16];

/// The register as two little-endian `u64` words.
#[inline(always)]
fn words(r: &Reg) -> (u64, u64) {
    let (c, _) = r.as_chunks::<8>();
    (u64::from_le_bytes(c[0]), u64::from_le_bytes(c[1]))
}

/// Rebuilds a register from two little-endian `u64` words.
#[inline(always)]
fn from_words(lo: u64, hi: u64) -> Reg {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    out
}

macro_rules! width_ops {
    ($bin:ident, $un:ident, $map2:ident, $map1:ident, $n:literal, $u:ty, $s:ty) => {
        /// Applies `f` to every lane pair. The loop body is branch-free
        /// and chunk-exact, so rustc vectorizes it.
        #[inline(always)]
        fn $map2(a: &Reg, b: &Reg, f: impl Fn($u, $u) -> $u) -> Reg {
            let mut out = [0u8; 16];
            let (oc, _) = out.as_chunks_mut::<$n>();
            let (ac, _) = a.as_chunks::<$n>();
            let (bc, _) = b.as_chunks::<$n>();
            for ((o, x), y) in oc.iter_mut().zip(ac).zip(bc) {
                *o = f(<$u>::from_le_bytes(*x), <$u>::from_le_bytes(*y)).to_le_bytes();
            }
            out
        }

        /// Applies `f` to every lane.
        #[inline(always)]
        fn $map1(a: &Reg, f: impl Fn($u) -> $u) -> Reg {
            let mut out = [0u8; 16];
            let (oc, _) = out.as_chunks_mut::<$n>();
            let (ac, _) = a.as_chunks::<$n>();
            for (o, x) in oc.iter_mut().zip(ac) {
                *o = f(<$u>::from_le_bytes(*x)).to_le_bytes();
            }
            out
        }

        fn $bin(op: BinOp, signed: bool, a: &Reg, b: &Reg) -> Reg {
            match op {
                BinOp::Add => $map2(a, b, <$u>::wrapping_add),
                BinOp::Sub => $map2(a, b, <$u>::wrapping_sub),
                BinOp::Mul => $map2(a, b, <$u>::wrapping_mul),
                BinOp::Min if signed => $map2(a, b, |x, y| (x as $s).min(y as $s) as $u),
                BinOp::Min => $map2(a, b, <$u>::min),
                BinOp::Max if signed => $map2(a, b, |x, y| (x as $s).max(y as $s) as $u),
                BinOp::Max => $map2(a, b, <$u>::max),
                // Bitwise ops are intercepted on the u64-word path in
                // `bin`; these arms keep the per-width helpers total.
                BinOp::And => $map2(a, b, |x, y| x & y),
                BinOp::Or => $map2(a, b, |x, y| x | y),
                BinOp::Xor => $map2(a, b, |x, y| x ^ y),
            }
        }

        fn $un(op: UnOp, signed: bool, a: &Reg) -> Reg {
            match op {
                UnOp::Neg => $map1(a, <$u>::wrapping_neg),
                UnOp::Not => $map1(a, |x| !x),
                UnOp::Abs if signed => $map1(a, |x| (x as $s).wrapping_abs() as $u),
                UnOp::Abs => a.to_owned(),
            }
        }
    };
}

width_ops!(bin1, un1, map2_1, map1_1, 1, u8, i8);
width_ops!(bin2, un2, map2_2, map1_2, 2, u16, i16);
width_ops!(bin4, un4, map2_4, map1_4, 4, u32, i32);
width_ops!(bin8, un8, map2_8, map1_8, 8, u64, i64);

/// Applies `op` lane-wise over two registers of `ty` elements.
pub(crate) fn bin(op: BinOp, ty: ScalarType, a: &Reg, b: &Reg) -> Reg {
    if matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) {
        // Width-agnostic: two u64 word operations regardless of lane count.
        let (al, ah) = words(a);
        let (bl, bh) = words(b);
        return match op {
            BinOp::And => from_words(al & bl, ah & bh),
            BinOp::Or => from_words(al | bl, ah | bh),
            _ => from_words(al ^ bl, ah ^ bh),
        };
    }
    let signed = ty.is_signed();
    match ty.size() {
        1 => bin1(op, signed, a, b),
        2 => bin2(op, signed, a, b),
        4 => bin4(op, signed, a, b),
        _ => bin8(op, signed, a, b),
    }
}

/// Applies `op` lane-wise over one register of `ty` elements.
pub(crate) fn un(op: UnOp, ty: ScalarType, a: &Reg) -> Reg {
    if op == UnOp::Not {
        // Width-agnostic complement on the register's two u64 words.
        let (lo, hi) = words(a);
        return from_words(!lo, !hi);
    }
    let signed = ty.is_signed();
    match ty.size() {
        1 => un1(op, signed, a),
        2 => un2(op, signed, a),
        4 => un4(op, signed, a),
        _ => un8(op, signed, a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::Value;
    use simdize_prng::SplitMix64;

    const BINS: [BinOp; 8] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    const UNS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::Abs];

    fn value_bin(op: BinOp, ty: ScalarType, a: &Reg, b: &Reg) -> Reg {
        let d = ty.size();
        let mut out = [0u8; 16];
        for lane in 0..16 / d {
            let x = Value::from_le_bytes(ty, &a[lane * d..]);
            let y = Value::from_le_bytes(ty, &b[lane * d..]);
            out[lane * d..lane * d + d].copy_from_slice(&op.apply(x, y).to_le_bytes());
        }
        out
    }

    fn value_un(op: UnOp, ty: ScalarType, a: &Reg) -> Reg {
        let d = ty.size();
        let mut out = [0u8; 16];
        for lane in 0..16 / d {
            let x = Value::from_le_bytes(ty, &a[lane * d..]);
            out[lane * d..lane * d + d].copy_from_slice(&op.apply(x).to_le_bytes());
        }
        out
    }

    fn random_reg(rng: &mut SplitMix64) -> Reg {
        let mut r = [0u8; 16];
        for chunk in r.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        r
    }

    #[test]
    fn bit_identical_to_value_semantics() {
        let mut rng = SplitMix64::seed_from_u64(0x1A7E5);
        for ty in ScalarType::ALL {
            for _ in 0..64 {
                let a = random_reg(&mut rng);
                let b = random_reg(&mut rng);
                for op in BINS {
                    assert_eq!(
                        bin(op, ty, &a, &b),
                        value_bin(op, ty, &a, &b),
                        "{op:?} {ty}"
                    );
                }
                for op in UNS {
                    assert_eq!(un(op, ty, &a), value_un(op, ty, &a), "{op:?} {ty}");
                }
            }
        }
    }

    #[test]
    fn edge_patterns_match() {
        // Lane extremes: MIN/MAX patterns where abs/neg/min diverge
        // between naive and wrapping implementations.
        let min8 = [0x80u8; 16];
        let ff = [0xFFu8; 16];
        let zero = [0u8; 16];
        for ty in ScalarType::ALL {
            for a in [&min8, &ff, &zero] {
                for b in [&min8, &ff, &zero] {
                    for op in BINS {
                        assert_eq!(bin(op, ty, a, b), value_bin(op, ty, a, b), "{op:?} {ty}");
                    }
                }
                for op in UNS {
                    assert_eq!(un(op, ty, a), value_un(op, ty, a), "{op:?} {ty}");
                }
            }
        }
    }

    #[test]
    fn word_helpers_round_trip() {
        let mut rng = SplitMix64::seed_from_u64(0xB17);
        for _ in 0..32 {
            let r = random_reg(&mut rng);
            let (lo, hi) = words(&r);
            assert_eq!(from_words(lo, hi), r);
        }
    }
}
