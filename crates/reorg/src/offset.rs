//! Stream offsets (paper §3.2–§3.3).

use simdize_ir::{ArrayId, ArrayRef, LoopProgram, VectorShape};
use std::fmt;
use std::ops::Range;

/// The `V`-byte chunks the pack or scatter of the non-unit-stride `r`
/// covers with lanes `lanes` at `i = 0`, in ascending order, numbered
/// from the aligned chunk that holds its array's base. At a simdized
/// iteration `i` (a multiple of `B`) every index moves by
/// `stride · i / B`, so the set is the same for every iteration.
///
/// # Panics
///
/// Panics if `r`'s array has no compile-time alignment: code
/// generation packs and scatters nothing else.
pub fn pack_chunks(r: ArrayRef, program: &LoopProgram, shape: VectorShape, lanes: Range<usize>) -> Vec<i64> {
    let (d, v) = (program.elem().size() as i64, shape.bytes() as i64);
    let beta = program
        .array(r.array)
        .align()
        .known_offset(shape)
        .expect("a pack's array has a compile-time alignment") as i64;
    let start = beta + r.offset * d;
    let mut out: Vec<i64> = lanes
        .flat_map(|t| {
            let first = start + t as i64 * r.stride as i64 * d;
            [first.div_euclid(v), (first + d - 1).div_euclid(v)]
        })
        .collect();
    out.dedup();
    out
}

/// The stream offset of a register stream: the byte offset, within a
/// vector register, of the first *desired* value of the stream (the value
/// belonging to original iteration `i = 0`).
///
/// Offsets are always non-negative and smaller than the vector length
/// `V` (paper §3.2). Three cases are distinguished:
///
/// * [`Offset::Byte`] — known at compile time;
/// * [`Offset::Runtime`] — the alignment of `base(array) + disp` where
///   the array's base address is only known at run time; it is computed
///   at run time as `addr & (V - 1)` (paper §3.3). Two runtime offsets
///   are *provably equal* iff they name the same array with the same
///   displacement mod `V`;
/// * [`Offset::Any`] — the paper's ⊥, used for `vsplat` streams whose
///   lanes all hold the same value and therefore match any offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Offset {
    /// Compile-time byte offset in `0..V`.
    Byte(u32),
    /// Runtime offset `(base(array) + disp) mod V`, with `disp` already
    /// reduced mod `V`.
    Runtime {
        /// The array whose (runtime) base address defines the offset.
        array: ArrayId,
        /// Compile-time byte displacement from the base, reduced mod `V`.
        disp: u32,
    },
    /// The ⊥ offset of replicated (splat) streams: matches anything.
    Any,
}

impl Offset {
    /// The stream offset of the reference `r` at `i = 0`, given its
    /// array's declared alignment.
    ///
    /// For a stride-one reference with a known base alignment `base`,
    /// this is `(base + r.offset * D) mod V` (paper eq. 1); otherwise it
    /// is the symbolic runtime offset of the same address. A
    /// non-unit-stride reference is not byte-contiguous: its load is a
    /// *pack* (the window's chunks gathered into lane order) and its
    /// store a *scatter* (load–merge–store per chunk), both at offset 0.
    pub fn of_ref(r: ArrayRef, program: &LoopProgram, shape: VectorShape) -> Offset {
        if !r.is_unit_stride() {
            return Offset::Byte(0);
        }
        let d = program.elem().size() as i64;
        let disp = (r.offset * d).rem_euclid(shape.bytes() as i64) as u32;
        match program.array(r.array).align().known_offset(shape) {
            Some(base) => Offset::Byte((base + disp) % shape.bytes()),
            None => Offset::Runtime {
                array: r.array,
                disp,
            },
        }
    }

    /// Whether a stream at this offset has its elements aligned to
    /// lane boundaries (`offset % D == 0`), which lane-wise arithmetic
    /// requires: a `vop` over streams whose elements straddle lanes
    /// would mix element halves. Runtime offsets are natural by
    /// construction (the memory image places runtime-aligned arrays at
    /// element-aligned addresses); ⊥ matches any context.
    pub fn is_natural(self, elem_size: u32) -> bool {
        match self {
            Offset::Byte(b) => b % elem_size == 0,
            Offset::Runtime { .. } | Offset::Any => true,
        }
    }

    /// Whether the offset is known at compile time.
    pub fn is_known(self) -> bool {
        matches!(self, Offset::Byte(_))
    }

    /// The compile-time byte value, if known.
    pub fn known(self) -> Option<u32> {
        match self {
            Offset::Byte(b) => Some(b),
            _ => None,
        }
    }

    /// Whether two offsets are *provably equal* (constraint C.3 is
    /// satisfiable without a shift). `Any` matches everything; runtime
    /// offsets match only structurally.
    pub fn matches(self, other: Offset) -> bool {
        match (self, other) {
            (Offset::Any, _) | (_, Offset::Any) => true,
            (a, b) => a == b,
        }
    }

    /// The meet of two offsets under [`Offset::matches`]: the more
    /// specific of the two, or `None` when they conflict.
    pub fn meet(self, other: Offset) -> Option<Offset> {
        match (self, other) {
            (Offset::Any, o) | (o, Offset::Any) => Some(o),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }

    /// Classifies the direction of a stream shift from `self` to `to`
    /// following the rules of paper Figure 7:
    ///
    /// * shift **left** (combine current and *next* registers) when both
    ///   offsets are known and `from > to`, or when `from` is a runtime
    ///   value (the zero-shift policy only ever shifts runtime streams
    ///   down to offset 0, which is never a right shift);
    /// * shift **right** (combine *previous* and current registers) when
    ///   both are known and `from < to`, or when `to` is a runtime value
    ///   (zero-shift stores shift from offset 0 up);
    /// * [`ShiftDir::None`] when the offsets provably match.
    ///
    /// Returns `None` for undecidable combinations (both runtime with
    /// different symbols, or an `Any` endpoint) — valid graphs never
    /// contain such shifts.
    pub fn shift_dir(self, to: Offset) -> Option<ShiftDir> {
        match (self, to) {
            (from, to) if from.matches(to) => Some(ShiftDir::None),
            (Offset::Byte(f), Offset::Byte(t)) if f > t => Some(ShiftDir::Left),
            (Offset::Byte(_), Offset::Byte(_)) => Some(ShiftDir::Right),
            (Offset::Runtime { .. }, Offset::Byte(0)) => Some(ShiftDir::Left),
            (Offset::Byte(0), Offset::Runtime { .. }) => Some(ShiftDir::Right),
            _ => None,
        }
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Offset::Byte(b) => write!(f, "{b}"),
            Offset::Runtime { array, disp } => write!(f, "rt({array}+{disp})"),
            Offset::Any => f.write_str("⊥"),
        }
    }
}

/// Direction of a stream shift, which determines whether the code
/// generator combines the current register with the next (left) or the
/// previous (right) register of the stream (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDir {
    /// No data movement needed: source and target offsets match.
    None,
    /// Shift left: data from the next register enters the current one.
    Left,
    /// Shift right: data from the previous register enters.
    Right,
}

/// The paper's `(from - to) mod V` shift amount for compile-time
/// offsets: the byte index at which [`ShiftDir`]-directed `vshiftpair`
/// selection starts (see `simdize-codegen`).
pub fn shift_amount(from: u32, to: u32, shape: VectorShape) -> u32 {
    let v = shape.bytes();
    (from + v - to) % v
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{Expr, LoopBuilder, ScalarType};

    fn program() -> (LoopProgram, ArrayRef, ArrayRef, ArrayRef) {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 128, 12);
        let bb = b.array("b", 128, 0);
        let c = b.array_runtime_align("c", 128);
        b.stmt(a.at(0), Expr::load(bb.at(1)) + Expr::load(c.at(2)));
        let p = b.finish(64).unwrap();
        (p, a.at(0), bb.at(1), c.at(2))
    }

    #[test]
    fn of_ref_known_and_runtime() {
        let (p, a0, b1, c2) = program();
        let v = VectorShape::V16;
        assert_eq!(Offset::of_ref(a0, &p, v), Offset::Byte(12));
        assert_eq!(Offset::of_ref(b1, &p, v), Offset::Byte(4));
        assert_eq!(
            Offset::of_ref(c2, &p, v),
            Offset::Runtime {
                array: c2.array,
                disp: 8
            }
        );
    }

    #[test]
    fn runtime_offsets_wrap_mod_v() {
        let (p, _, _, c2) = program();
        // c[i+2] and c[i+6] differ by 16 bytes: provably equal offsets.
        let c6 = ArrayRef::new(c2.array, 6);
        let v = VectorShape::V16;
        assert_eq!(Offset::of_ref(c2, &p, v), Offset::of_ref(c6, &p, v));
    }

    #[test]
    fn matches_and_meet() {
        let b4 = Offset::Byte(4);
        let b8 = Offset::Byte(8);
        assert!(b4.matches(b4));
        assert!(!b4.matches(b8));
        assert!(Offset::Any.matches(b8));
        assert_eq!(b4.meet(Offset::Any), Some(b4));
        assert_eq!(b4.meet(b8), None);
        assert_eq!(Offset::Any.meet(Offset::Any), Some(Offset::Any));
    }

    #[test]
    fn shift_direction_rules() {
        let rt = Offset::Runtime {
            array: ArrayId::from_index(0),
            disp: 0,
        };
        assert_eq!(
            Offset::Byte(4).shift_dir(Offset::Byte(0)),
            Some(ShiftDir::Left)
        );
        assert_eq!(
            Offset::Byte(0).shift_dir(Offset::Byte(12)),
            Some(ShiftDir::Right)
        );
        assert_eq!(
            Offset::Byte(4).shift_dir(Offset::Byte(4)),
            Some(ShiftDir::None)
        );
        assert_eq!(rt.shift_dir(Offset::Byte(0)), Some(ShiftDir::Left));
        assert_eq!(Offset::Byte(0).shift_dir(rt), Some(ShiftDir::Right));
        assert_eq!(rt.shift_dir(rt), Some(ShiftDir::None)); // provably equal
        assert_eq!(Offset::Byte(4).shift_dir(rt), None);
    }

    #[test]
    fn shift_amount_mod_v() {
        let v = VectorShape::V16;
        assert_eq!(shift_amount(4, 0, v), 4);
        assert_eq!(shift_amount(0, 12, v), 4);
        assert_eq!(shift_amount(8, 8, v), 0);
    }
}
