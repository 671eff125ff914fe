//! Array declarations and stride-one array references.

use crate::types::{ScalarType, VectorShape};
use std::fmt;

/// Identifier of an array declared in a [`crate::LoopProgram`].
///
/// Indexes the program's array table; create arrays through
/// [`crate::LoopBuilder::array`] or the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub(crate) u32);

impl ArrayId {
    /// The index of this array in the program's array table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id referring to the array at `index` in some program's
    /// array table.
    ///
    /// This is a low-level escape hatch for tests and tools; ids minted
    /// this way are only meaningful against a program whose table actually
    /// has an entry at `index`.
    pub fn from_index(index: usize) -> ArrayId {
        ArrayId(index as u32)
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}", self.0)
    }
}

/// How much is known at compile time about an array's base alignment.
///
/// The paper distinguishes *compile-time* alignments (the common case,
/// enabling the eager/lazy/dominant shift policies) from *runtime*
/// alignments, where the offset of the base address within its `V`-byte
/// chunk is only discoverable at run time via `addr & (V-1)` and only the
/// zero-shift policy applies (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlignKind {
    /// The base address is known to be `offset` bytes past a `V`-byte
    /// boundary. `offset` is stored un-reduced; consumers reduce it
    /// modulo their `V`.
    Known(u32),
    /// Nothing is known at compile time; the memory image still places
    /// the array at a concrete misalignment (chosen when the image is
    /// built), but the compiler must not exploit it.
    Runtime,
}

impl AlignKind {
    /// The compile-time byte offset reduced mod `V`, if known.
    pub fn known_offset(self, shape: VectorShape) -> Option<u32> {
        match self {
            AlignKind::Known(off) => Some(off % shape.bytes()),
            AlignKind::Runtime => None,
        }
    }

    /// Whether the alignment is known at compile time.
    pub fn is_known(self) -> bool {
        matches!(self, AlignKind::Known(_))
    }
}

impl fmt::Display for AlignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignKind::Known(off) => write!(f, "@{off}"),
            AlignKind::Runtime => f.write_str("@?"),
        }
    }
}

/// Declaration of one array: name, element type, length and base
/// alignment.
///
/// The paper assumes every array base is *naturally aligned* to its
/// element length (§4.1); [`crate::LoopBuilder::finish`] enforces
/// `offset % elem.size() == 0` for known alignments, and the memory image
/// enforces it for runtime ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    name: String,
    elem: ScalarType,
    len: u64,
    align: AlignKind,
}

impl ArrayDecl {
    /// Creates a declaration. Prefer [`crate::LoopBuilder::array`], which
    /// also registers the array with a program under construction.
    pub fn new(name: impl Into<String>, elem: ScalarType, len: u64, align: AlignKind) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            elem,
            len,
            align,
        }
    }

    /// The array's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.len * self.elem.size() as u64
    }

    /// Base alignment knowledge.
    pub fn align(&self) -> AlignKind {
        self.align
    }
}

impl fmt::Display for ArrayDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}[{}] {}",
            self.name, self.elem, self.len, self.align
        )
    }
}

/// A strided array reference `array[stride·i + offset]`, where `i` is
/// the loop counter.
///
/// The element address at original iteration `i` is
/// `base(array) + (stride·i + offset) · D`. The paper's core pipeline
/// handles `stride == 1` (its §4.1 precondition); larger power-of-two
/// strides are accepted by the IR and compiled by the `simdize-stride`
/// extension crate (§7 future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// The constant element offset `k` in `array[stride·i + k]`.
    pub offset: i64,
    /// The loop-counter multiplier (1 for the paper's stride-one
    /// references).
    pub stride: u32,
}

impl ArrayRef {
    /// Creates the stride-one reference `array[i + offset]`.
    pub fn new(array: ArrayId, offset: i64) -> ArrayRef {
        ArrayRef {
            array,
            offset,
            stride: 1,
        }
    }

    /// Creates the strided reference `array[stride·i + offset]`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn strided(array: ArrayId, stride: u32, offset: i64) -> ArrayRef {
        assert!(stride > 0, "stride must be positive");
        ArrayRef {
            array,
            offset,
            stride,
        }
    }

    /// The byte offset of this reference's address at `i = 0` relative to
    /// the array base: `offset * D`.
    pub fn byte_offset(self, elem: ScalarType) -> i64 {
        self.offset * elem.size() as i64
    }

    /// Whether this is one of the paper's stride-one references.
    pub fn is_unit_stride(self) -> bool {
        self.stride == 1
    }

    /// The element index accessed at iteration `i`.
    pub fn index_at(self, i: u64) -> u64 {
        (self.stride as i64 * i as i64 + self.offset) as u64
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let i = if self.stride == 1 {
            "i".to_string()
        } else {
            format!("{}*i", self.stride)
        };
        match self.offset {
            0 => write!(f, "{}[{i}]", self.array),
            k if k > 0 => write!(f, "{}[{i}+{k}]", self.array),
            k => write!(f, "{}[{i}{k}]", self.array),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_offset_reduces_mod_v() {
        let a = AlignKind::Known(20);
        assert_eq!(a.known_offset(VectorShape::V16), Some(4));
        assert_eq!(AlignKind::Runtime.known_offset(VectorShape::V16), None);
        assert!(a.is_known());
        assert!(!AlignKind::Runtime.is_known());
    }

    #[test]
    fn decl_byte_len() {
        let d = ArrayDecl::new("x", ScalarType::I16, 100, AlignKind::Known(2));
        assert_eq!(d.byte_len(), 200);
        assert_eq!(d.to_string(), "x: i16[100] @2");
        assert!(!d.is_empty());
    }

    #[test]
    fn ref_display_and_byte_offset() {
        let r = ArrayRef::new(ArrayId(2), 3);
        assert_eq!(r.to_string(), "arr2[i+3]");
        assert_eq!(r.byte_offset(ScalarType::I32), 12);
        let n = ArrayRef::new(ArrayId(0), -1);
        assert_eq!(n.to_string(), "arr0[i-1]");
        let z = ArrayRef::new(ArrayId(1), 0);
        assert_eq!(z.to_string(), "arr1[i]");
    }
}

#[cfg(test)]
mod stride_unit_tests {
    use super::*;

    #[test]
    fn strided_ref_accessors() {
        let r = ArrayRef::strided(ArrayId::from_index(1), 4, 3);
        assert!(!r.is_unit_stride());
        assert_eq!(r.index_at(0), 3);
        assert_eq!(r.index_at(10), 43);
        assert_eq!(r.to_string(), "arr1[4*i+3]");
        assert!(ArrayRef::new(ArrayId::from_index(0), 0).is_unit_stride());
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = ArrayRef::strided(ArrayId::from_index(0), 0, 0);
    }
}
