//! A simulated SIMD machine for executing and evaluating simdized loops.
//!
//! The paper evaluates its compilation scheme on a cycle-accurate
//! simulator of a PowerPC-with-VMX machine, reporting the
//! micro-architecture-independent **operations per datum** (OPD) metric —
//! a dynamic instruction count divided by the number of data elements
//! produced. This crate provides the equivalent substrate:
//!
//! * [`MemoryImage`] — a byte-addressable memory that places every array
//!   at a base address with its declared misalignment (choosing concrete
//!   misalignments for runtime-aligned arrays), surrounded by guard
//!   padding so shifted streams may read one or two chunks past either
//!   end, exactly like page-safe AltiVec code;
//! * [`run_scalar`] — the scalar reference executor, used both as the
//!   correctness oracle and as the `ub ≤ 3B` fallback path;
//! * [`run_simd`] — an interpreter for [`simdize_codegen::SimdProgram`]s
//!   with AltiVec-style truncating vector loads and stores, which counts
//!   every executed instruction by class ([`RunStats`]);
//! * [`run_differential`] — the end-to-end harness: run the scalar
//!   oracle and the simdized program on identical memory images and
//!   compare every byte (§5.4's verification).
//!
//! # Cost model
//!
//! OPD is a count, not a cycle estimate. Counted per execution:
//! every VIR vector instruction costs 1; each steady-state iteration
//! adds [`LOOP_OVERHEAD_PER_ITERATION`] (index update + fused
//! compare-and-branch, assuming index-register addressing folded into
//! the memory instructions, as on PowerPC with update forms); one loop
//! invocation adds [`CALL_OVERHEAD`]; and each *distinct* runtime scalar
//! expression (alignment masks, permute vectors, runtime bounds) adds
//! [`RUNTIME_SETUP_PER_EXPR`] once, since such values are loop invariant
//! and hoisted. The scalar baseline counts loads, lane operations and
//! stores only — the paper's "idealistic scalar instruction count".
//!
//! # Example
//!
//! ```
//! use simdize_ir::{parse_program, VectorShape};
//! use simdize_reorg::{Policy, ReorgGraph};
//! use simdize_codegen::{generate, CodegenOptions, ReuseMode};
//! use simdize_vm::{run_differential, DiffConfig};
//!
//! let p = parse_program(
//!     "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
//!      for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
//! )?;
//! let g = ReorgGraph::build(&p, VectorShape::V16)?.with_policy(Policy::Zero)?;
//! let prog = generate(&g, &CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline))?;
//! let outcome = run_differential(&prog, &DiffConfig::with_seed(42))?;
//! assert!(outcome.verified);
//! assert!(outcome.stats.opd(outcome.data_produced) < 12.0 / 4.0 + 2.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod error;
mod interp;
mod memory;
mod scalar;
mod stats;

pub use diff::{run_differential, DiffConfig, DiffOutcome};
pub use error::{ExecError, VerifyError};
pub use interp::{run_simd, runtime_expr_count, RunInput};
pub use memory::MemoryImage;
pub use scalar::{run_scalar, scalar_ideal_ops, ORACLE_COLUMN};
pub use stats::{
    RunStats, CALL_OVERHEAD, LOOP_OVERHEAD_PER_ITERATION, RUNTIME_SETUP_PER_EXPR,
    UNALIGNED_MEM_COST,
};
