//! The top-level loop program: arrays, parameters, trip count, statements.

use crate::array::{ArrayDecl, ArrayId, ArrayRef};
use crate::error::ValidateLoopError;
use crate::expr::{Expr, Invariant};
use crate::hash::HashSet;
use crate::stmt::Stmt;
use crate::types::ScalarType;
use std::fmt;
use std::sync::Arc;

/// Identifier of a loop-invariant scalar parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// The index of this parameter in the program's parameter table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id referring to the parameter at `index`; low-level
    /// escape hatch mirroring [`ArrayId::from_index`].
    ///
    /// [`ArrayId::from_index`]: crate::ArrayId::from_index
    pub fn from_index(index: usize) -> ParamId {
        ParamId(index as u32)
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Declaration of a loop-invariant runtime scalar parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamDecl {
    name: String,
}

impl ParamDecl {
    /// Creates a parameter declaration with the given source name.
    pub fn new(name: impl Into<String>) -> ParamDecl {
        ParamDecl { name: name.into() }
    }

    /// The parameter's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The loop's trip count `ub`, known at compile time or not.
///
/// Unknown trip counts force the runtime upper-bound formulas (paper
/// eqs. 15–16) and the `ub > 3B` guard of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripCount {
    /// `ub` is a compile-time constant.
    Known(u64),
    /// `ub` is only available at run time (supplied when the loop runs).
    Runtime,
}

impl TripCount {
    /// The compile-time trip count, if known.
    pub fn known(self) -> Option<u64> {
        match self {
            TripCount::Known(n) => Some(n),
            TripCount::Runtime => None,
        }
    }
}

impl fmt::Display for TripCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripCount::Known(n) => write!(f, "{n}"),
            TripCount::Runtime => f.write_str("ub"),
        }
    }
}

/// A validated, normalized innermost loop — the unit of simdization.
///
/// `for i in 0..trip { stmts }` over the declared arrays and parameters.
/// Construct via [`crate::LoopBuilder`] or [`crate::parse_program`]; both
/// run [`LoopProgram::validate`], so a `LoopProgram` in hand always
/// satisfies the paper's §4.1 preconditions.
///
/// A program is immutable once built, so its tables are shared: a
/// clone bumps three reference counts and allocates nothing. A shared
/// slice hashes, compares and prints as the `Vec` it was built from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopProgram {
    elem: ScalarType,
    arrays: Arc<[ArrayDecl]>,
    params: Arc<[ParamDecl]>,
    trip: TripCount,
    stmts: Arc<[Stmt]>,
}

impl LoopProgram {
    /// Assembles and validates a program from parts.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateLoopError`] if any §4.1 precondition is
    /// violated; see [`LoopProgram::validate`] for the list of checks.
    pub fn new(
        elem: ScalarType,
        arrays: Vec<ArrayDecl>,
        params: Vec<ParamDecl>,
        trip: TripCount,
        stmts: Vec<Stmt>,
    ) -> Result<LoopProgram, ValidateLoopError> {
        let p = LoopProgram {
            elem,
            arrays: arrays.into(),
            params: params.into(),
            trip,
            stmts: stmts.into(),
        };
        p.validate()?;
        Ok(p)
    }

    /// The uniform element type `D` of every reference in the loop.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// The declared arrays, indexed by [`ArrayId`].
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Declaration of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted for this program.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// The declared runtime parameters, indexed by [`ParamId`].
    pub fn params(&self) -> &[ParamDecl] {
        &self.params
    }

    /// The loop trip count.
    pub fn trip(&self) -> TripCount {
        self.trip
    }

    /// The loop-body statements, in program order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Every array reference in the loop (all loads, then the store, per
    /// statement in order).
    pub fn all_refs(&self) -> Vec<ArrayRef> {
        self.stmts.iter().flat_map(|s| s.refs()).collect()
    }

    /// Whether every array's base alignment is known at compile time.
    ///
    /// When false, only the zero-shift policy applies (paper §4.4).
    pub fn all_alignments_known(&self) -> bool {
        self.arrays.iter().all(|a| a.align().is_known())
    }

    /// Checks the §4.1 preconditions and this IR's additional
    /// independence requirements:
    ///
    /// * at least one statement;
    /// * every array has the program's uniform element type;
    /// * no array is both stored and loaded, and no two statements store
    ///   to the same array (rules out loop-carried and intra-iteration
    ///   dependences, which simdization must not reorder);
    /// * reference offsets are non-negative and, for known trip counts,
    ///   `ub + offset <= len` for every reference;
    /// * a known trip count is at least 1;
    /// * every parameter reference is in range.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as a [`ValidateLoopError`].
    pub fn validate(&self) -> Result<(), ValidateLoopError> {
        if self.stmts.is_empty() {
            return Err(ValidateLoopError::EmptyBody);
        }
        if self.trip.known() == Some(0) {
            return Err(ValidateLoopError::ZeroTripCount);
        }
        for (idx, a) in self.arrays.iter().enumerate() {
            if a.elem() != self.elem {
                return Err(ValidateLoopError::MixedElementTypes {
                    array: a.name().to_string(),
                    expected: self.elem,
                    found: a.elem(),
                });
            }
            // Non-naturally aligned bases (offset not a multiple of the
            // element size) are accepted: the paper lists them as future
            // work (§7), and this implementation handles them by
            // quantizing shift-placement targets to natural offsets (see
            // `simdize-reorg`). Runtime-aligned arrays stay naturally
            // aligned by construction of the memory image.
            let _ = idx;
        }

        let mut stored: HashSet<ArrayId> = HashSet::default();
        for s in self.stmts.iter() {
            if !stored.insert(s.target.array) {
                return Err(ValidateLoopError::DuplicateStore {
                    array: self.name_of(s.target.array),
                });
            }
        }
        for s in self.stmts.iter() {
            let mut err = None;
            s.rhs.visit_loads(&mut |r| {
                if err.is_none() && stored.contains(&r.array) {
                    err = Some(ValidateLoopError::StoreLoadOverlap {
                        array: self.name_of(r.array),
                    });
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }

        for s in self.stmts.iter() {
            if let Some(op) = s.reduction {
                if !op.is_reassociable() {
                    return Err(ValidateLoopError::NonReassociableReduction { op });
                }
            }
        }
        for s in self.stmts.iter() {
            // A reduction target is a single fixed element; only it
            // escapes the per-iteration bounds rule below.
            if s.reduction.is_some() {
                let r = s.target;
                if r.offset < 0 || r.offset as u64 >= self.array(r.array).len() {
                    return Err(ValidateLoopError::OutOfBounds {
                        array: self.name_of(r.array),
                        offset: r.offset,
                        trip: 1,
                        len: self.array(r.array).len(),
                    });
                }
            }
            let mut err = None;
            s.rhs.visit_loads(&mut |r| {
                if err.is_none() {
                    err = self.check_ref(r).err();
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            if s.reduction.is_none() {
                self.check_ref(s.target)?;
            }
        }

        for s in self.stmts.iter() {
            self.check_params(&s.rhs)?;
        }
        Ok(())
    }

    /// Checks that the per-iteration reference `r` names a declared
    /// array and stays inside it for every iteration.
    fn check_ref(&self, r: ArrayRef) -> Result<(), ValidateLoopError> {
        if r.array.index() >= self.arrays.len() {
            return Err(ValidateLoopError::UnknownArray { id: r.array });
        }
        if r.offset < 0 {
            return Err(ValidateLoopError::NegativeOffset {
                array: self.name_of(r.array),
                offset: r.offset,
            });
        }
        if let TripCount::Known(ub) = self.trip {
            let last = r.stride as u64 * (ub - 1) + r.offset as u64;
            if last >= self.array(r.array).len() {
                return Err(ValidateLoopError::OutOfBounds {
                    array: self.name_of(r.array),
                    offset: r.offset,
                    trip: ub,
                    len: self.array(r.array).len(),
                });
            }
        }
        Ok(())
    }

    fn check_params(&self, e: &Expr) -> Result<(), ValidateLoopError> {
        match e {
            Expr::Splat(Invariant::Param(p)) if p.index() >= self.params.len() => {
                Err(ValidateLoopError::UnknownParam { id: *p })
            }
            Expr::Binary(_, a, b) => {
                self.check_params(a)?;
                self.check_params(b)
            }
            Expr::Unary(_, a) => self.check_params(a),
            _ => Ok(()),
        }
    }

    fn name_of(&self, id: ArrayId) -> String {
        self.arrays
            .get(id.index())
            .map(|a| a.name().to_string())
            .unwrap_or_else(|| id.to_string())
    }

    /// Renders the program in the textual syntax accepted by
    /// [`crate::parse_program`].
    pub fn to_source(&self) -> String {
        let mut out = String::from("arrays { ");
        for a in self.arrays.iter() {
            out.push_str(&format!("{a}; "));
        }
        out.push_str("}\n");
        if !self.params.is_empty() {
            out.push_str("params { ");
            for p in self.params.iter() {
                out.push_str(&format!("{}; ", p.name()));
            }
            out.push_str("}\n");
        }
        out.push_str(&format!("for i in 0..{} {{\n", self.trip));
        for s in self.stmts.iter() {
            out.push_str(&format!("    {}\n", self.render_stmt(s)));
        }
        out.push_str("}\n");
        out
    }

    fn render_stmt(&self, s: &Stmt) -> String {
        match s.reduction {
            Some(op) => format!(
                "{} {op}= {};",
                self.render_ref(s.target),
                self.render_expr(&s.rhs)
            ),
            None => format!(
                "{} = {};",
                self.render_ref(s.target),
                self.render_expr(&s.rhs)
            ),
        }
    }

    fn render_ref(&self, r: ArrayRef) -> String {
        let name = self.name_of(r.array);
        let i = if r.stride == 1 {
            "i".to_string()
        } else {
            format!("{}*i", r.stride)
        };
        match r.offset {
            0 => format!("{name}[{i}]"),
            k if k > 0 => format!("{name}[{i}+{k}]"),
            k => format!("{name}[{i}{k}]"),
        }
    }

    fn render_expr(&self, e: &Expr) -> String {
        match e {
            Expr::Load(r) => self.render_ref(*r),
            Expr::Splat(Invariant::Const(c)) => format!("{c}"),
            Expr::Splat(Invariant::Param(p)) => self
                .params
                .get(p.index())
                .map(|d| d.name().to_string())
                .unwrap_or_else(|| p.to_string()),
            Expr::Binary(op, a, b) => match op {
                crate::BinOp::Min | crate::BinOp::Max => {
                    format!("{op}({}, {})", self.render_expr(a), self.render_expr(b))
                }
                _ => format!("({} {op} {})", self.render_expr(a), self.render_expr(b)),
            },
            Expr::Unary(op, a) => match op {
                crate::UnOp::Abs => format!("abs({})", self.render_expr(a)),
                _ => format!("{op}({})", self.render_expr(a)),
            },
        }
    }
}

impl fmt::Display for LoopProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::{AlignKind, Expr};

    fn example() -> LoopProgram {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 128, 12);
        let bb = b.array("b", 128, 4);
        let c = b.array("c", 128, 8);
        b.stmt(a.at(0), Expr::load(bb.at(1)) + Expr::load(c.at(2)));
        b.finish(100).unwrap()
    }

    #[test]
    fn accessors() {
        let p = example();
        assert_eq!(p.elem(), ScalarType::I32);
        assert_eq!(p.arrays().len(), 3);
        assert_eq!(p.trip(), TripCount::Known(100));
        assert!(p.all_alignments_known());
        assert_eq!(p.all_refs().len(), 3);
    }

    #[test]
    fn rejects_store_load_overlap() {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 128, 0);
        b.stmt(a.at(0), Expr::load(a.at(1)));
        assert!(matches!(
            b.finish(10),
            Err(ValidateLoopError::StoreLoadOverlap { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_store() {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 128, 0);
        let c = b.array("c", 128, 0);
        b.stmt(a.at(0), Expr::load(c.at(0)));
        b.stmt(a.at(1), Expr::load(c.at(1)));
        assert!(matches!(
            b.finish(10),
            Err(ValidateLoopError::DuplicateStore { .. })
        ));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 100, 0);
        let c = b.array("c", 100, 0);
        b.stmt(a.at(5), Expr::load(c.at(0)));
        assert!(matches!(
            b.finish(100),
            Err(ValidateLoopError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn rejects_negative_offset() {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 100, 0);
        let c = b.array("c", 100, 0);
        b.stmt(a.at(0), Expr::load(c.at(-1)));
        assert!(matches!(
            b.finish(10),
            Err(ValidateLoopError::NegativeOffset { .. })
        ));
    }

    #[test]
    fn accepts_unnatural_alignment() {
        // §7 extension: byte-granular base offsets are allowed; the
        // reorganization phase quantizes operation offsets to natural
        // boundaries.
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 100, 2); // 2 is not a multiple of 4
        let c = b.array("c", 100, 0);
        b.stmt(a.at(0), Expr::load(c.at(0)));
        assert!(b.finish(10).is_ok());
    }

    #[test]
    fn rejects_mixed_types() {
        let arrays = vec![
            ArrayDecl::new("a", ScalarType::I32, 10, AlignKind::Known(0)),
            ArrayDecl::new("b", ScalarType::I16, 10, AlignKind::Known(0)),
        ];
        let stmts = vec![Stmt::new(
            ArrayRef::new(ArrayId::from_index(0), 0),
            Expr::load(ArrayRef::new(ArrayId::from_index(1), 0)),
        )];
        let r = LoopProgram::new(ScalarType::I32, arrays, vec![], TripCount::Known(5), stmts);
        assert!(matches!(
            r,
            Err(ValidateLoopError::MixedElementTypes { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_zero_trip() {
        let r = LoopProgram::new(ScalarType::I32, vec![], vec![], TripCount::Known(5), vec![]);
        assert!(matches!(r, Err(ValidateLoopError::EmptyBody)));
        let mut b = LoopBuilder::new(ScalarType::I32);
        let a = b.array("a", 100, 0);
        let c = b.array("c", 100, 0);
        b.stmt(a.at(0), Expr::load(c.at(0)));
        assert!(matches!(b.finish(0), Err(ValidateLoopError::ZeroTripCount)));
    }

    #[test]
    fn source_roundtrip() {
        let p = example();
        let src = p.to_source();
        let q = crate::parse_program(&src).unwrap();
        assert_eq!(p, q);
    }
}
