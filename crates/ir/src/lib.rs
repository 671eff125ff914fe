//! Loop intermediate representation for the `simdize` workspace.
//!
//! This crate defines the *input language* of the simdization pipeline: the
//! class of loops that Eichenberger, Wu and O'Brien's PLDI 2004 algorithm
//! ("Vectorization for SIMD Architectures with Alignment Constraints")
//! assumes as its precondition (paper §4.1):
//!
//! * an innermost, normalized counted loop `for i in 0..ub`;
//! * every memory reference is either loop invariant or a **stride-one**
//!   array reference `a[i + k]`;
//! * array base addresses are *naturally aligned* to the element length;
//! * the loop counter appears only in address computations;
//! * all memory references access data of one uniform length `D`.
//!
//! The IR is deliberately small: [`LoopProgram`] owns a table of
//! [`ArrayDecl`]s (each with a compile-time-known or runtime base
//! alignment), a table of loop-invariant [`ParamDecl`]s, and a list of
//! [`Stmt`]s of the form `a[i+k] = expr` where `expr` is a tree of
//! element-wise operations over stride-one loads and invariants.
//!
//! # Example
//!
//! Build the paper's running example `a[i+3] = b[i+1] + c[i+2]` (Figure 1):
//!
//! ```
//! use simdize_ir::{LoopBuilder, ScalarType, Expr};
//!
//! let mut b = LoopBuilder::new(ScalarType::I32);
//! let a = b.array("a", 128, 0);   // base aligned to the 16-byte boundary
//! let bb = b.array("b", 128, 0);
//! let c = b.array("c", 128, 0);
//! b.stmt(a.at(3), Expr::load(bb.at(1)) + Expr::load(c.at(2)));
//! let program = b.finish(100).expect("valid loop");
//! assert_eq!(program.stmts().len(), 1);
//! ```
//!
//! The same loop can also be written in the crate's textual syntax and
//! parsed with [`parse_program`]:
//!
//! ```
//! # use simdize_ir::parse_program;
//! let src = "
//!     arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
//!     for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }
//! ";
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.arrays().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod builder;
mod error;
mod expr;
pub mod hash;
mod parser;
mod program;
mod stmt;
mod types;
mod value;

pub use array::{AlignKind, ArrayDecl, ArrayId, ArrayRef};
pub use builder::{ArrayHandle, LoopBuilder};
pub use error::ValidateLoopError;
pub use expr::{BinOp, Expr, Invariant, UnOp};
pub use parser::{parse_program, ParseProgramError, MAX_EXPR_DEPTH};
pub use program::{LoopProgram, ParamDecl, ParamId, TripCount};
pub use stmt::Stmt;
pub use types::{ScalarType, VectorShape};
pub use value::{Lane, LeBytes, Value};
