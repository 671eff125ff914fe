//! Scalar values with SIMD-lane (wrapping, width-masked) semantics:
//! the width-dynamic [`Value`] and, next to it, the same semantics over
//! the eight native integer types ([`Lane`]).

use crate::expr::{BinOp, UnOp};
use crate::types::ScalarType;
use std::fmt;
use std::ops::Deref;

/// A scalar value as it lives in one SIMD lane: a bit pattern of the
/// element width, interpreted as signed or unsigned by its [`ScalarType`].
///
/// All arithmetic wraps, mirroring packed integer hardware. The raw bits
/// are kept zero-extended in a `u64`.
///
/// # Example
///
/// ```
/// use simdize_ir::{ScalarType, Value};
/// let a = Value::new(ScalarType::U8, 250);
/// let b = Value::new(ScalarType::U8, 10);
/// assert_eq!(a.wrapping_add(b).bits(), 4); // 260 mod 256
/// let neg = Value::new(ScalarType::I16, -5i64 as u64);
/// assert_eq!(neg.as_i64(), -5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    ty: ScalarType,
    bits: u64,
}

impl Value {
    /// Creates a value of type `ty` from raw `bits` (masked to the
    /// element width).
    pub fn new(ty: ScalarType, bits: u64) -> Value {
        Value {
            ty,
            bits: bits & ty_mask(ty),
        }
    }

    /// Creates a value of type `ty` from a signed integer, wrapping to the
    /// element width.
    pub fn from_i64(ty: ScalarType, v: i64) -> Value {
        Value::new(ty, v as u64)
    }

    /// The value's element type.
    pub fn ty(self) -> ScalarType {
        self.ty
    }

    /// Raw bits, zero-extended to 64 bits.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The value interpreted per its type's signedness, widened to `i64`.
    pub fn as_i64(self) -> i64 {
        if self.ty.is_signed() {
            sign_extend(self.bits, self.ty.bits())
        } else {
            self.bits as i64
        }
    }

    /// Little-endian byte representation, `ty.size()` bytes long, held
    /// by value: writing an element never touches the heap.
    pub fn to_le_bytes(self) -> LeBytes {
        LeBytes {
            buf: self.bits.to_le_bytes(),
            len: self.ty.size() as u8,
        }
    }

    /// Reads a value of type `ty` from the first `ty.size()` bytes of a
    /// little-endian byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `ty.size()`.
    pub fn from_le_bytes(ty: ScalarType, bytes: &[u8]) -> Value {
        let mut buf = [0u8; 8];
        buf[..ty.size()].copy_from_slice(&bytes[..ty.size()]);
        Value::new(ty, u64::from_le_bytes(buf))
    }

    /// Wrapping lane addition.
    pub fn wrapping_add(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a.wrapping_add(b))
    }

    /// Wrapping lane subtraction.
    pub fn wrapping_sub(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a.wrapping_sub(b))
    }

    /// Wrapping lane multiplication.
    pub fn wrapping_mul(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a.wrapping_mul(b))
    }

    /// Lane minimum, respecting signedness.
    pub fn min_lane(self, rhs: Value) -> Value {
        self.ordered(rhs, true)
    }

    /// Lane maximum, respecting signedness.
    pub fn max_lane(self, rhs: Value) -> Value {
        self.ordered(rhs, false)
    }

    /// Bitwise AND.
    pub fn and(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a ^ b)
    }

    /// Wrapping lane negation.
    pub fn wrapping_neg(self) -> Value {
        Value::new(self.ty, (self.bits as i64).wrapping_neg() as u64)
    }

    /// Bitwise NOT.
    #[allow(clippy::should_implement_trait)] // lane semantics, not operator sugar
    pub fn not(self) -> Value {
        Value::new(self.ty, !self.bits)
    }

    /// Wrapping absolute value (`abs(i::MIN) == i::MIN`, as on hardware).
    pub fn wrapping_abs(self) -> Value {
        if self.ty.is_signed() && self.as_i64() < 0 {
            self.wrapping_neg()
        } else {
            self
        }
    }

    fn binary(self, rhs: Value, f: impl FnOnce(u64, u64) -> u64) -> Value {
        debug_assert_eq!(self.ty, rhs.ty, "mixed-type lane operation");
        Value::new(self.ty, f(self.bits, rhs.bits))
    }

    fn ordered(self, rhs: Value, take_min: bool) -> Value {
        debug_assert_eq!(self.ty, rhs.ty, "mixed-type lane operation");
        let less = if self.ty.is_signed() {
            self.as_i64() < rhs.as_i64()
        } else {
            self.bits < rhs.bits
        };
        if less == take_min {
            self
        } else {
            rhs
        }
    }
}

/// The little-endian bytes of one [`Value`]: a `[u8]` of the element's
/// size (1, 2, 4 or 8) that lives on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeBytes {
    buf: [u8; 8],
    len: u8,
}

impl Deref for LeBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

/// One SIMD lane as a native integer: the semantics of [`Value`] with
/// the element type fixed at compile time, so a loop over elements
/// monomorphises to plain wrapping machine arithmetic.
///
/// Implemented for exactly the eight integer types behind
/// [`ScalarType::ALL`]. Every operation is bit-identical to the
/// corresponding [`Value`] method (`tests/properties.rs` checks all
/// types × operators, exhaustively for the 8-bit ones): arithmetic
/// wraps, `min`/`max` follow the type's signedness, `abs(MIN) == MIN`
/// and `abs` is the identity on unsigned types.
pub trait Lane: Copy + Eq + fmt::Debug {
    /// The element type this native integer implements.
    const TYPE: ScalarType;

    /// Wraps `v` to the lane width (as [`Value::from_i64`]).
    fn from_i64(v: i64) -> Self;

    /// The same lane as a width-dynamic [`Value`].
    fn to_value(self) -> Value;

    /// Reads a lane from the first `TYPE.size()` bytes of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `TYPE.size()`.
    fn read_le(bytes: &[u8]) -> Self;

    /// Writes the lane to the first `TYPE.size()` bytes of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `TYPE.size()`.
    fn write_le(self, out: &mut [u8]);

    /// `op` applied lane-wise (as [`BinOp::apply`]).
    fn binary(self, op: BinOp, rhs: Self) -> Self;

    /// `op` applied lane-wise (as [`UnOp::apply`]).
    fn unary(self, op: UnOp) -> Self;
}

macro_rules! impl_lane {
    ($($t:ty => $ty:ident, $abs:expr;)*) => {$(
        impl Lane for $t {
            const TYPE: ScalarType = ScalarType::$ty;

            #[inline]
            fn from_i64(v: i64) -> $t {
                v as $t
            }

            fn to_value(self) -> Value {
                Value::from_i64(ScalarType::$ty, self as i64)
            }

            #[inline]
            fn read_le(bytes: &[u8]) -> $t {
                const N: usize = std::mem::size_of::<$t>();
                <$t>::from_le_bytes(bytes[..N].try_into().expect("sliced to N bytes"))
            }

            #[inline]
            fn write_le(self, out: &mut [u8]) {
                const N: usize = std::mem::size_of::<$t>();
                out[..N].copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn binary(self, op: BinOp, rhs: $t) -> $t {
                match op {
                    BinOp::Add => self.wrapping_add(rhs),
                    BinOp::Sub => self.wrapping_sub(rhs),
                    BinOp::Mul => self.wrapping_mul(rhs),
                    BinOp::Min => self.min(rhs),
                    BinOp::Max => self.max(rhs),
                    BinOp::And => self & rhs,
                    BinOp::Or => self | rhs,
                    BinOp::Xor => self ^ rhs,
                }
            }

            #[inline]
            fn unary(self, op: UnOp) -> $t {
                let abs: fn($t) -> $t = $abs;
                match op {
                    UnOp::Neg => self.wrapping_neg(),
                    UnOp::Not => !self,
                    UnOp::Abs => abs(self),
                }
            }
        }
    )*};
}

impl_lane! {
    i8 => I8, i8::wrapping_abs;
    u8 => U8, |x| x;
    i16 => I16, i16::wrapping_abs;
    u16 => U16, |x| x;
    i32 => I32, i32::wrapping_abs;
    u32 => U32, |x| x;
    i64 => I64, i64::wrapping_abs;
    u64 => U64, |x| x;
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.as_i64(), self.ty)
    }
}

fn ty_mask(ty: ScalarType) -> u64 {
    match ty.bits() {
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

fn sign_extend(bits: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_add_wraps_at_width() {
        let a = Value::new(ScalarType::I8, 0x7F);
        let one = Value::new(ScalarType::I8, 1);
        assert_eq!(a.wrapping_add(one).as_i64(), -128);
        let b = Value::new(ScalarType::U16, 0xFFFF);
        assert_eq!(b.wrapping_add(Value::new(ScalarType::U16, 2)).bits(), 1);
    }

    #[test]
    fn signed_vs_unsigned_min() {
        let big = Value::new(ScalarType::I8, 0xFF); // -1 signed, 255 unsigned
        let one = Value::new(ScalarType::I8, 1);
        assert_eq!(big.min_lane(one).as_i64(), -1);
        let ubig = Value::new(ScalarType::U8, 0xFF);
        let uone = Value::new(ScalarType::U8, 1);
        assert_eq!(ubig.min_lane(uone).bits(), 1);
    }

    #[test]
    fn byte_roundtrip_all_types() {
        for ty in ScalarType::ALL {
            let v = Value::from_i64(ty, -123456789);
            let bytes = v.to_le_bytes();
            assert_eq!(bytes.len(), ty.size());
            assert_eq!(Value::from_le_bytes(ty, &bytes), v, "{ty}");
        }
    }

    #[test]
    fn le_bytes_deref_to_the_element_width() {
        let v = Value::from_i64(ScalarType::U16, 0x1_ABCD);
        assert_eq!(*v.to_le_bytes(), [0xCD, 0xAB]);
        assert_eq!(v.to_le_bytes().len(), 2);
    }

    #[test]
    fn neg_abs_not() {
        let v = Value::from_i64(ScalarType::I16, -7);
        assert_eq!(v.wrapping_neg().as_i64(), 7);
        assert_eq!(v.wrapping_abs().as_i64(), 7);
        assert_eq!(v.not().as_i64(), 6);
        // abs(MIN) wraps to MIN like hardware packed-abs.
        let min = Value::from_i64(ScalarType::I8, -128);
        assert_eq!(min.wrapping_abs().as_i64(), -128);
    }

    #[test]
    fn mul_and_bitops() {
        let a = Value::from_i64(ScalarType::U8, 16);
        let b = Value::from_i64(ScalarType::U8, 17);
        assert_eq!(a.wrapping_mul(b).bits(), (16 * 17) % 256);
        assert_eq!(a.or(b).bits(), 16 | 17);
        assert_eq!(a.and(b).bits(), 16 & 17);
        assert_eq!(a.xor(b).bits(), 16 ^ 17);
    }

    #[test]
    fn display_shows_value_and_type() {
        assert_eq!(Value::from_i64(ScalarType::I32, -3).to_string(), "-3i32");
    }
}
