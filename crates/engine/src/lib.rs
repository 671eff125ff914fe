//! A compiled execution engine for simdized loops.
//!
//! The interpreter in `simdize-vm` is the *reference semantics*: it
//! walks [`simdize_codegen::SimdProgram`] instruction by instruction,
//! re-evaluating scalar expressions, re-deriving addresses and
//! allocating a fresh `Vec<u8>` per register write. That is exactly
//! right for an oracle and far too slow for large sweeps.
//!
//! This crate is the fast path, and there is one of it: **bake → fuse
//! → rename and schedule → strip driver → tier**, over one lowered
//! instruction form below the VIR. [`PredecodedKernel`] checks, once
//! per program and without allocating, what no layout can change (the
//! vector shape, permutation patterns) and borrows the program;
//! [`PredecodedKernel::bake`] (or the one-shot
//! [`CompiledKernel::compile`]) walks the VIR per (memory layout,
//! runtime input) pair —
//!
//! * every scalar expression (alignment masks, shift amounts, splice
//!   points, runtime trip bounds) evaluated exactly once,
//! * every address folded to a baked `(start, step)` byte-offset pair
//!   with chunk truncation pre-applied,
//! * guarded blocks resolved and flattened,
//! * all memory streams bounds-checked and registers checked
//!   defined-before-use up front,
//! * dynamic instruction counts computed analytically —
//!
//! into prologue, steady-state and epilogue sections of that form. On
//! that plan a fusion pass (on by default, see [`FusionStats`])
//! rewrites `vload`+`vshiftpair` chains into single fused loads, folds known-operand arithmetic into splat/immediate
//! forms, hoists loop invariants into once-run headers and deletes
//! dead ops — shrinking the steady-state op count without changing a
//! stored byte or a reported stat ([`RunStats`] are fixed before
//! fusion). The bake ends by renaming registers onto one dense block
//! and deciding which loops may run strip-mined ([`Schedule`]);
//! [`CompiledKernel::trace`] lists the result on demand.
//!
//! One strip-mined driver executes the plan, instantiated per
//! instruction tier ([`native`]): a portable tier every host has —
//! what [`CompiledKernel::run`] uses — and real `std::arch`
//! intrinsics — x86-64-v2 and AVX2 on x86_64, each by runtime feature
//! detection — which [`SimdKernel`] pins a kernel to,
//! by [`IsaLevel::detect`] unless told otherwise. Every tier is
//! byte-for-byte and stat-for-stat identical to
//! [`simdize_vm::run_simd`] (the differential tests enforce it, fused
//! and unfused) while running orders of magnitude faster. `unsafe` is
//! confined to one audited per-architecture module (`x86`)
//! behind the crate-wide `#![deny(unsafe_code)]` lint; the driver
//! hands them 16-byte arrays sliced out of per-strip stream windows.
//!
//! The [`batch`] module scales this to sweeps: many (program, seed)
//! jobs distributed over scoped worker threads, each job compiled,
//! executed on the detected tier and differentially verified, with
//! per-job [`RunStats`]. Sweeps check each distinct program once into
//! a [`Template`] (program, fingerprint, check), which a caller may
//! also keep and run again ([`Template::run`], [`Template::sweep`]),
//! and reuse per-worker scratch images across jobs. Baked kernels live
//! in a sharded, LRU-bounded [`cache::KernelCache`] keyed by *(program
//! fingerprint, runtime input, memory layout, ISA tier)* — shared
//! across workers within a sweep and, through
//! [`batch::run_sweep_shared`], across sweeps entirely (the `simdize
//! serve` server keeps one process-wide cache for every request it
//! handles).
//!
//! # Example
//!
//! ```
//! use simdize_ir::{parse_program, VectorShape};
//! use simdize_reorg::{Policy, ReorgGraph};
//! use simdize_codegen::{generate, CodegenOptions};
//! use simdize_vm::{MemoryImage, RunInput};
//! use simdize_engine::CompiledKernel;
//!
//! let p = parse_program(
//!     "arrays { a: i32[128] @ 0; b: i32[128] @ 4; }
//!      for i in 0..100 { a[i] = b[i+1]; }",
//! )?;
//! let g = ReorgGraph::build(&p, VectorShape::V16)?.with_policy(Policy::Zero)?;
//! let prog = generate(&g, &CodegenOptions::default())?;
//! let mut image = MemoryImage::with_seed(&p, VectorShape::V16, 7);
//! let kernel = CompiledKernel::compile(&prog, &image, &RunInput::with_ub(100))?;
//! let stats = kernel.run(&mut image)?;
//! assert!(stats.total() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`RunStats`]: simdize_vm::RunStats

// `deny`, not `forbid`: the two per-architecture intrinsics modules
// under `native/` opt back in with `#[allow(unsafe_code)]`; everything
// else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
mod kernel;
mod lanes;
pub mod native;
mod trace;

pub use batch::{
    run_job, run_sweep_collect, run_sweep_shared, JobRun, SweepBackend, SweepJob, SweepOptions,
    SweepOutcome, SweepStats, Template,
};
pub use cache::{
    program_fingerprint, CacheKey, CacheStats, KernelBackend, KernelCache, LayoutSig, Lookup,
};
pub use kernel::{CompiledKernel, KernelOptions, PredecodedKernel};
pub use native::{IsaLevel, Schedule, SectionSchedule, SequentialReason, SimdKernel};
pub use trace::{FusionEvent, FusionEventKind, FusionStats};
