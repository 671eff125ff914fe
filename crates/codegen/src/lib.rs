//! SIMD code generation from data reorganization graphs.
//!
//! This crate implements §4 of Eichenberger, Wu and O'Brien (PLDI 2004):
//! it lowers a valid [`simdize_reorg::ReorgGraph`] to a [`SimdProgram`] in
//! a small *vector target IR* (VIR) whose instructions correspond one to
//! one to the generic SIMD operations of paper §2.2 — truncating aligned
//! `vload`/`vstore`, `vshiftpair` (AltiVec `vec_perm`), `vsplice`
//! (AltiVec `vec_sel`), `vsplat` and lane-wise arithmetic.
//!
//! The generator reproduces the paper's algorithms:
//!
//! * **Figure 7** — `GenSimdExpr`/`GenSimdShiftStream`: expressions and
//!   stream shifts, combining the current register with the next
//!   (left shift) or previous (right shift) register of a stream;
//! * **Figure 9** — prologue / steady-state / epilogue statement
//!   generation with partial stores implemented load–splice–store;
//! * **eqs. 12–14** — multi-statement loop bounds exploiting address
//!   truncation (`LB = B`);
//! * **§4.4 / eqs. 15–16** — runtime alignments and unknown loop bounds,
//!   with the `ub > 3B` guard and a scalar fallback;
//! * **Figure 10** — software-pipelined generation that keeps the
//!   previous iteration's register in a loop-carried virtual register so
//!   that no chunk of a static stream is ever loaded twice.
//!
//! [`CodegenOptions`] select the paper's §5.5 code-generation
//! optimizations: memory normalization with local CSE (`MemNorm`),
//! which the generator applies as it emits each instruction; predictive
//! commoning (`PC`), a post pass followed by value numbering and dead
//! code elimination; and copy-removing unroll-by-2.
//!
//! # Example
//!
//! ```
//! use simdize_ir::{parse_program, VectorShape};
//! use simdize_reorg::{Policy, ReorgGraph};
//! use simdize_codegen::{generate, CodegenOptions, ReuseMode};
//!
//! let p = parse_program(
//!     "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
//!      for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
//! )?;
//! let graph = ReorgGraph::build(&p, VectorShape::V16)?.with_policy(Policy::Zero)?;
//! let options = CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline);
//! let program = generate(&graph, &options)?;
//! assert_eq!(program.block(), 4); // four i32 lanes per 16-byte register
//! println!("{program}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod error;
mod generate;
mod lower;
mod options;
mod pack;
mod passes;
mod sexpr;
mod trace;
mod unaligned;
mod verify;
mod vir;

pub use analysis::{max_live_vregs, MACHINE_VREGS};
pub use error::GenCodeError;
pub use generate::{generate, generate_traced, reduction_identity, MAX_REGS};
pub use lower::lower_altivec;
pub use options::{CodegenOptions, ReuseMode};
pub use passes::value_number;
pub use sexpr::{SCond, SExpr, ScalarEnv};
pub use trace::{BoundFormula, CodegenEvent, CodegenTrace, SectionCounts};
pub use unaligned::generate_unaligned;
pub use verify::{verify_program, VerifyProgramError};
pub use vir::{Addr, SimdProgram, VInst, VReg};
