//! Fluent construction of loop programs.

use crate::array::{AlignKind, ArrayDecl, ArrayId, ArrayRef};
use crate::error::ValidateLoopError;
use crate::expr::Expr;
use crate::program::{LoopProgram, ParamDecl, ParamId, TripCount};
use crate::stmt::Stmt;
use crate::types::ScalarType;

/// A handle to an array being declared by a [`LoopBuilder`].
///
/// Handles are cheap copies; [`ArrayHandle::at`] produces the stride-one
/// reference `array[i + k]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayHandle {
    id: ArrayId,
}

impl ArrayHandle {
    /// The underlying array id.
    pub fn id(self) -> ArrayId {
        self.id
    }

    /// The reference `array[i + offset]`.
    pub fn at(self, offset: i64) -> ArrayRef {
        ArrayRef::new(self.id, offset)
    }

    /// A load expression `array[i + offset]`.
    pub fn load(self, offset: i64) -> Expr {
        Expr::load(self.at(offset))
    }

    /// The strided reference `array[stride·i + offset]` (compiled as a
    /// pack or scatter by `codegen::pack`).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn at_strided(self, stride: u32, offset: i64) -> ArrayRef {
        ArrayRef::strided(self.id, stride, offset)
    }

    /// A strided load expression.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn load_strided(self, stride: u32, offset: i64) -> Expr {
        Expr::load(self.at_strided(stride, offset))
    }
}

/// Incremental builder for a [`LoopProgram`].
///
/// # Example
///
/// ```
/// use simdize_ir::{LoopBuilder, ScalarType, Expr};
/// let mut b = LoopBuilder::new(ScalarType::I16);
/// let dst = b.array("dst", 256, 0);
/// let src = b.array("src", 256, 6);
/// let gain = b.param("gain");
/// b.stmt(dst.at(0), src.load(1) * Expr::param(gain));
/// let program = b.finish(200)?;
/// assert_eq!(program.params().len(), 1);
/// # Ok::<(), simdize_ir::ValidateLoopError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LoopBuilder {
    elem: ScalarType,
    arrays: Vec<ArrayDecl>,
    params: Vec<ParamDecl>,
    stmts: Vec<Stmt>,
}

impl LoopBuilder {
    /// Starts a builder for a loop whose references all have element type
    /// `elem`.
    pub fn new(elem: ScalarType) -> LoopBuilder {
        LoopBuilder {
            elem,
            arrays: Vec::new(),
            params: Vec::new(),
            stmts: Vec::new(),
        }
    }

    /// The loop's uniform element type.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// Declares an array of `len` elements whose base address sits
    /// `misalign` bytes past a vector-register boundary (compile-time
    /// known alignment).
    pub fn array(&mut self, name: impl Into<String>, len: u64, misalign: u32) -> ArrayHandle {
        self.declare(ArrayDecl::new(
            name,
            self.elem,
            len,
            AlignKind::Known(misalign),
        ))
    }

    /// Declares an array whose base alignment is only known at run time.
    pub fn array_runtime_align(&mut self, name: impl Into<String>, len: u64) -> ArrayHandle {
        self.declare(ArrayDecl::new(name, self.elem, len, AlignKind::Runtime))
    }

    /// Declares an array from a full [`ArrayDecl`].
    pub fn declare(&mut self, decl: ArrayDecl) -> ArrayHandle {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(decl);
        ArrayHandle { id }
    }

    /// Declares a loop-invariant runtime scalar parameter.
    pub fn param(&mut self, name: impl Into<String>) -> ParamId {
        let id = ParamId(self.params.len() as u32);
        self.params.push(ParamDecl::new(name));
        id
    }

    /// Appends the statement `target = rhs` to the loop body.
    pub fn stmt(&mut self, target: ArrayRef, rhs: Expr) -> &mut LoopBuilder {
        self.stmts.push(Stmt::new(target, rhs));
        self
    }

    /// Appends the reduction `target op= rhs`, folding every
    /// iteration's value into the single element
    /// `target.array[target.offset]`.
    pub fn reduce(&mut self, target: ArrayRef, op: crate::BinOp, rhs: Expr) -> &mut LoopBuilder {
        self.stmts.push(Stmt::reduce(target, op, rhs));
        self
    }

    /// Finishes with a compile-time trip count of `ub` iterations.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateLoopError`] if the assembled loop violates a
    /// §4.1 precondition.
    pub fn finish(self, ub: u64) -> Result<LoopProgram, ValidateLoopError> {
        self.finish_trip(TripCount::Known(ub))
    }

    /// Finishes with a trip count only known at run time.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateLoopError`] if the assembled loop violates a
    /// §4.1 precondition.
    pub fn finish_runtime_trip(self) -> Result<LoopProgram, ValidateLoopError> {
        self.finish_trip(TripCount::Runtime)
    }

    /// Finishes with an explicit [`TripCount`].
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateLoopError`] if the assembled loop violates a
    /// §4.1 precondition.
    pub fn finish_trip(self, trip: TripCount) -> Result<LoopProgram, ValidateLoopError> {
        LoopProgram::new(self.elem, self.arrays, self.params, trip, self.stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_paper_example() {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 128, 0);
        let bb = b.array("b", 128, 0);
        let c = b.array("c", 128, 0);
        b.stmt(a.at(3), bb.load(1) + c.load(2));
        let p = b.finish(100).unwrap();
        assert_eq!(p.stmts().len(), 1);
        assert_eq!(p.stmts()[0].target, a.at(3));
        assert_eq!(p.array(a.id()).name(), "a");
    }

    #[test]
    fn runtime_pieces() {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array_runtime_align("a", 64);
        let c = b.array("c", 64, 0);
        let k = b.param("k");
        b.stmt(a.at(0), c.load(0) + Expr::param(k));
        let p = b.finish_runtime_trip().unwrap();
        assert!(!p.all_alignments_known());
        assert_eq!(p.trip(), TripCount::Runtime);
        assert_eq!(p.params()[k.index()].name(), "k");
    }

    #[test]
    fn handle_is_copy_and_stable() {
        let mut b = LoopBuilder::new(ScalarType::I8);
        let a = b.array("a", 10, 0);
        let a2 = a;
        assert_eq!(a.id(), a2.id());
        assert_eq!(a.at(1).offset, 1);
    }
}
