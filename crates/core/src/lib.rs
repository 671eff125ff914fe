//! `simdize` — auto-vectorization for SIMD architectures with alignment
//! constraints.
//!
//! A faithful, executable reproduction of **Eichenberger, Wu and
//! O'Brien, "Vectorization for SIMD Architectures with Alignment
//! Constraints" (PLDI 2004)**: a compilation scheme that simdizes loops
//! containing *misaligned* stride-one memory references for machines
//! (AltiVec/VMX-class) whose vector loads and stores silently truncate
//! addresses to register-length boundaries.
//!
//! The pipeline has the paper's two phases plus an execution substrate:
//!
//! 1. **Data reorganization** ([`simdize_reorg`], re-exported here):
//!    build an expression graph as if alignment did not exist, then
//!    insert `vshiftstream` operations per a shift-placement
//!    [`Policy`] (zero / eager / lazy / dominant, §3.4) so that every
//!    stream offset satisfies the validity constraints (C.2)/(C.3).
//! 2. **SIMD code generation** ([`simdize_codegen`]): lower the graph
//!    to a vector target IR with prologue/steady-state/epilogue
//!    structure, partial stores via `vsplice`, multi-statement bounds,
//!    runtime alignments, unknown trip counts with the `ub > 3B` guard,
//!    and software pipelining or predictive commoning so no chunk of a
//!    static stream is loaded twice (§4).
//! 3. **Simulated SIMD machine** ([`simdize_vm`]): execute the result
//!    against a memory image with controlled misalignment, verify it
//!    byte-for-byte against a scalar oracle, and report the paper's
//!    operations-per-datum and speedup metrics (§5).
//! 4. **Compiled engine** ([`simdize_engine`]): a baked execution plan
//!    ([`CompiledKernel`]) that folds all runtime scalars and addresses
//!    at compile time and runs the steady state through one strip-mined
//!    driver, on a portable tier or pinned to the host's `std::arch`
//!    tier ([`SimdKernel`]) — byte- and stat-identical to the
//!    interpreter, orders of magnitude faster — plus parallel batch
//!    sweeps ([`run_sweep`]) over many memory seeds.
//! 5. **Bounded verification** ([`simdize_verify`], re-exported here):
//!    a model-checking tier ([`prove_loop`]) that proves
//!    byte-equivalence to the scalar oracle by exhaustive enumeration
//!    over every realizable alignment, trip counts up to a bound, and
//!    all policy/reuse/unroll configurations, with counterexample
//!    shrinking and seeded fault injection ([`MutationKind`]).
//!
//! # Quick start
//!
//! ```
//! use simdize::{Simdizer, Policy, ReuseMode};
//!
//! // The paper's Figure 1: every reference misaligned differently.
//! let program = simdize::parse_program(
//!     "arrays { a: i32[1024] @ 0; b: i32[1024] @ 0; c: i32[1024] @ 0; }
//!      for i in 0..1000 { a[i+3] = b[i+1] + c[i+2]; }",
//! )?;
//!
//! let report = Simdizer::new()
//!     .policy(Policy::Lazy)
//!     .reuse(ReuseMode::SoftwarePipeline)
//!     .evaluate(&program, 42)?;
//!
//! assert!(report.verified);
//! assert!(report.speedup > 2.0); // toward the 4× peak for 4-lane i32
//! # Ok::<(), simdize::SimdizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod report;
mod scheme;
mod simdizer;
pub mod trace;

pub use error::SimdizeError;
pub use report::Report;
pub use scheme::Scheme;
pub use simdizer::{Simdizer, Target};
pub use trace::{trace_source, traced_pass, TraceOutcome, TRACE_SWEEP_SEEDS};

// The full pipeline surface, re-exported for one-stop use.
pub use simdize_analysis::{
    analyze_program, AnalysisFailed, AnalysisReport, AnalyzeOptions, Finding, Level, Lint, Section,
};
pub use simdize_codegen::{
    generate, generate_traced, generate_unaligned, lower_altivec, max_live_vregs,
    verify_program, Addr, BoundFormula, CodegenEvent, CodegenOptions, CodegenTrace, GenCodeError,
    ReuseMode, SCond, SExpr, SectionCounts, SimdProgram, VInst, VReg, VerifyProgramError,
    MACHINE_VREGS,
};
pub use simdize_ir::{
    parse_program, AlignKind, ArrayDecl, ArrayId, ArrayRef, BinOp, Expr, Invariant, Lane,
    LoopBuilder, LoopProgram, ParamId, ParseProgramError, ScalarType, Stmt, TripCount, UnOp,
    ValidateLoopError, Value, VectorShape,
};
pub use simdize_reorg::{
    branch_and_bound_shift_counts, distinct_alignments, optimal_shift_counts, reassociate,
    simdizable_aligned_only, simdizable_by_peeling, to_dot, BuildGraphError, Constraint,
    GraphStats, Offset, OptimalStmt, PlacementEvent, PlacementTrace, Policy, PolicyError,
    ReorgGraph, ValidateGraphError, MAX_STRIDE,
};

/// What [`Simdizer::compile`] makes of `program` on `shape`: strided
/// loops compile through the one pipeline now. Kept for callers that
/// still name the strided entry point.
#[doc(hidden)]
pub fn generate_strided(
    program: &LoopProgram,
    shape: VectorShape,
) -> Result<SimdProgram, SimdizeError> {
    Simdizer::new().shape(shape).compile(program)
}
pub use simdize_engine::{
    program_fingerprint, run_job, run_sweep, run_sweep_collect, run_sweep_shared, CacheStats,
    CompiledKernel, FusionEvent, FusionEventKind, FusionStats, IsaLevel, JobRun, KernelBackend,
    KernelCache, KernelOptions, PredecodedKernel, Schedule, SectionSchedule, SequentialReason,
    SimdKernel,
    SweepBackend, SweepJob, SweepOptions, SweepOutcome, SweepStats,
};
pub use simdize_telemetry::{RequestTrace, TraceId, TRACE_SCHEMA};
pub use simdize_verify::{
    apply_mutation, prove_loop, prove_source, Counterexample, HarnessSummary, Mode as VerifyMode,
    MutationKind, Probe, ProveError, TripStyle, VerifyOptions, VerifyReport, HARNESS_NAMES,
};
pub use simdize_vm::{
    run_differential, run_scalar, run_simd, scalar_ideal_ops, DiffConfig,
    DiffOutcome, ExecError, MemoryImage, RunInput, RunStats, VerifyError,
    UNALIGNED_MEM_COST,
};
pub use simdize_workloads::{
    alpha_blend, dot_product, fir_filter, harmonic_mean, lower_bound_opd, lower_bound_opd_cse,
    lower_bound_opd_unaligned, lower_bound_parts, offset_saxpy, rgba_to_gray, sum_abs_diff,
    synthesize, LowerBound, Summary, TripSpec, WorkloadSpec,
};
