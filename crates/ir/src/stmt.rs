//! Loop-body statements.

use crate::array::ArrayRef;
use crate::expr::{BinOp, Expr};
use std::fmt;

/// One loop-body statement.
///
/// * Without `reduction`: `target.array[stride·i + offset] = rhs` — a
///   stride-one (or strided) store of an element-wise expression; the
///   store reference's alignment drives the prologue/epilogue splice
///   points of the code generator (paper §4.2).
/// * With `reduction = Some(op)`: the statement is the reduction
///   `target.array[offset] = fold(op, target.array[offset], rhs(i) for
///   all i)` — the single array element accumulates every iteration's
///   value (`+=`-style). This is the §7 extension for scalar accesses
///   in non-address computation; `op` must be associative and
///   commutative so the vector accumulator may reassociate freely.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// The store target (for reductions, the fixed accumulated element
    /// `target.array[target.offset]`; the stride is ignored).
    pub target: ArrayRef,
    /// The value stored (or accumulated) each iteration.
    pub rhs: Expr,
    /// `Some(op)` makes this a reduction statement.
    pub reduction: Option<BinOp>,
}

impl Stmt {
    /// Creates the statement `target = rhs`.
    pub fn new(target: ArrayRef, rhs: Expr) -> Stmt {
        Stmt {
            target,
            rhs,
            reduction: None,
        }
    }

    /// Creates the reduction statement `target op= rhs` folded over the
    /// whole iteration space.
    pub fn reduce(target: ArrayRef, op: BinOp, rhs: Expr) -> Stmt {
        Stmt {
            target,
            rhs,
            reduction: Some(op),
        }
    }

    /// Whether this statement is a reduction.
    pub fn is_reduction(&self) -> bool {
        self.reduction.is_some()
    }

    /// All array references touched by the statement: the loads of `rhs`
    /// followed by the store target.
    pub fn refs(&self) -> Vec<ArrayRef> {
        let mut out = self.rhs.loads();
        out.push(self.target);
        out
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reduction {
            Some(op) => write!(f, "{} {op}= {};", self.target, self.rhs),
            None => write!(f, "{} = {};", self.target, self.rhs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayId;

    #[test]
    fn refs_include_store_last() {
        let s = Stmt::new(
            ArrayRef::new(ArrayId::from_index(0), 3),
            Expr::load(ArrayRef::new(ArrayId::from_index(1), 1))
                + Expr::load(ArrayRef::new(ArrayId::from_index(2), 2)),
        );
        let refs = s.refs();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[2].array.index(), 0);
        assert_eq!(s.to_string(), "arr0[i+3] = (arr1[i+1] + arr2[i+2]);");
    }
}
