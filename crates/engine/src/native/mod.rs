//! Execution: the strip driver, the pass that prepares a baked plan
//! for it, and the instruction tiers it runs on.
//!
//! The section type here (`Section`) is the one a bake emits, six of
//! them from prologue to epilogue (`Section::plan`), and trace fusion
//! rewrites in place. The last step of a bake (`lower`) finishes those
//! same sections: it renames the (trace-fused) plan's registers onto one
//! dense block, settles which loop sections run in strips and, in
//! those, which runs of ops form superinstructions — folds of loaded
//! streams into a store, a rotation shift or a reduction partial, run
//! as one lane loop with their values in registers. The one strip-mined
//! driver (`strip`) then replays that plan on one of three instruction
//! tiers picked by [`IsaLevel`] — the
//! portable tier behind [`CompiledKernel::run`] (and the detected one on
//! hosts other than x86_64), the detected one behind [`SimdKernel`]:
//!
//! | VIR form         | v2 and AVX2 tiers (128-bit)                        | AVX2, paired superinstruction             |
//! |------------------|----------------------------------------------------|-------------------------------------------|
//! | `vload`/`.fused` | `movdqu` (chunk-aligned address)                   | one `vmovdqu ymm` for both halves         |
//! | `vstore`         | `movdqu`                                           | one `vmovdqu ymm`                         |
//! | `vshiftpair`     | `palignr`                                          | `vperm2i128` + 2×`vpshufb`+`vpor`         |
//! | `vsplice`        | `pblendvb`                                         | (generic op: 128-bit)                     |
//! | `vperm`          | 2×`pshufb`+`por`                                   | 2×`vpshufb`+`vpor`, tables in both halves |
//! | `vsplat`         | immediate register image                           | `vbroadcasti128`                          |
//! | arithmetic       | `padd*`/`psub*`/`pmull*`, `pmin*`/`pmax*`, `pabs*` | the same at 256 bits                      |
//!
//! A *paired* superinstruction is one whose folds split into the
//! unrolled pair's two matching halves, the second one source
//! iteration (16 bytes) after the first: `lower` decides it once per
//! bake, and the AVX2 tier then holds both halves in one `ymm`. Every
//! other superinstruction, every generic column op and the other tiers
//! stay 128-bit, on the one set of 128-bit arms both x86 tiers share.
//!
//! The fused `vload.fused` forms from the trace pass are already
//! single loads, so they lower to one `movdqu` — the paper's whole
//! lowering table lands on real instructions. What an intrinsic wants
//! precomputed — the splice's byte-select mask, the permutation's two
//! `pshufb` half-tables — the driver derives from the op once per
//! dispatch, outside the lane loop (a superinstruction's rotation shift
//! is a `vperm` whose tables `lower` computes once). Every memory
//! stream is sliced once per strip into the window the strip touches,
//! and the lane loops index that slice. Operation/width pairs a tier has
//! no instruction for (64-bit multiply, for example) fall back per-op
//! to the `crate::lanes` reference loops on register copies, so every
//! tier is total and byte-identical to the interpreter by
//! construction.
//!
//! `unsafe` lives only in the x86 module; the portable tier and
//! everything here stay safe. Stats come straight
//! from the bake (they are computed analytically before fusion), so
//! the interpreter and every tier agree on [`RunStats`] by
//! construction too.

use crate::kernel::CompiledKernel;
use simdize_codegen::SimdProgram;
use simdize_vm::{ExecError, MemoryImage, RunInput, RunStats};

/// Dispatches on a `vshiftpair` amount with the amount a literal in
/// each arm — `$a` for 0, `$arm!(n)` for 1..=15, `$b` for 16 — because
/// the byte-shift intrinsics take it as a const.
macro_rules! by_amount {
    ($amt:expr, $a:expr, $b:expr, $arm:ident) => {
        by_amount!(@ $amt, $a, $b, $arm, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@ $amt:expr, $a:expr, $b:expr, $arm:ident, $($n:literal)+) => {
        match $amt {
            0 => $a,
            $($n => $arm!($n),)+
            _ => $b,
        }
    };
}

mod isa;
mod lower;
mod portable;
mod strip;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use isa::IsaLevel;
pub(crate) use lower::lower;
pub(crate) use strip::{Leaf, Program, Section, Sink, Super, Term};

/// Runs a lowered plan over `mem` on the tier `isa` names, or on the
/// portable tier when this host cannot execute that one, lending it the
/// thread's mixed-tree scratch columns.
pub(crate) fn exec(isa: IsaLevel, program: &Program, mem: &mut [u8]) {
    strip::COLUMNS.with_borrow_mut(|columns| match isa {
        #[cfg(target_arch = "x86_64")]
        IsaLevel::V2 => x86::exec(program, mem, false, columns),
        #[cfg(target_arch = "x86_64")]
        IsaLevel::Avx2 => x86::exec(program, mem, true, columns),
        _ => strip::run(portable::portable(), program, mem, columns),
    })
}

/// How [`SimdKernel::run`] executes one loop section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionSchedule {
    /// Strip-mined: each op is dispatched once per strip of
    /// iterations and runs down a register column.
    Strip,
    /// One iteration per dispatch, in program order, for the reason
    /// given.
    Sequential(SequentialReason),
}

/// Why a loop section runs one iteration per dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequentialReason {
    /// The loop never runs (or the kernel is the scalar fallback).
    NoLoop,
    /// The loop runs once: there is nothing to amortize.
    OneIteration,
    /// A register carries a value between iterations that is neither a
    /// rotation nor a reduction accumulator.
    CarriedRegister,
    /// A store may touch what another iteration of the strip accesses,
    /// or a load a rotation needs hoisted would pass a store to it.
    MemoryDependence,
}

/// The schedule a bake chose for the two loop sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// The unrolled pair loop.
    pub pair: SectionSchedule,
    /// The steady-state body loop.
    pub body: SectionSchedule,
}

/// A baked kernel pinned to one [`IsaLevel`]: the same plan
/// [`CompiledKernel::run`] executes on the portable tier, replayed
/// through that tier's `std::arch` instructions.
///
/// Built with [`lower`](SimdKernel::lower) from any [`CompiledKernel`]
/// (typically a trace-fused one), whose plan it shares. Scalar
/// fallback kernels (the `ub ≤ 3B` guard) run the scalar loop on every
/// tier — there is no vector section.
#[derive(Debug, Clone)]
pub struct SimdKernel {
    base: CompiledKernel,
    isa: IsaLevel,
}

impl SimdKernel {
    /// Pins `kernel` to `isa`. A tier the current host cannot execute
    /// (wrong architecture, failed AVX2 probe) is clamped to the
    /// portable scalar tier, so `run` can never dispatch into
    /// unsupported instructions.
    pub fn lower(kernel: &CompiledKernel, isa: IsaLevel) -> SimdKernel {
        let isa = if isa.available() { isa } else { IsaLevel::Scalar };
        SimdKernel { base: kernel.clone(), isa }
    }

    /// [`lower`](SimdKernel::lower) at the host's detected tier
    /// ([`IsaLevel::detect`], honoring the `SIMDIZE_ISA` override).
    pub fn lower_detected(kernel: &CompiledKernel) -> SimdKernel {
        SimdKernel::lower(kernel, IsaLevel::detect())
    }

    /// Compiles `program` and pins it to the detected tier — the
    /// one-shot counterpart of [`CompiledKernel::compile`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledKernel::compile`].
    pub fn compile(
        program: &SimdProgram,
        image: &MemoryImage,
        input: &RunInput,
    ) -> Result<SimdKernel, ExecError> {
        Ok(SimdKernel::lower_detected(&CompiledKernel::compile(
            program, image, input,
        )?))
    }

    /// The instruction tier `run` dispatches to.
    pub fn isa(&self) -> IsaLevel {
        self.isa
    }

    /// [`CompiledKernel::schedule`] of the base kernel.
    pub fn schedule(&self) -> Schedule {
        self.base.schedule()
    }

    /// The baked kernel this one shares its plan with.
    pub fn base(&self) -> &CompiledKernel {
        &self.base
    }

    /// The base kernel's analytic [`RunStats`] — identical across the
    /// interpreter and every tier by construction.
    pub fn stats(&self) -> RunStats {
        self.base.stats()
    }

    /// Whether the base kernel resolved to the scalar fallback path.
    pub fn is_fallback(&self) -> bool {
        self.base.is_fallback()
    }

    /// Whether `image` has the layout this kernel was baked for.
    pub fn layout_matches(&self, image: &MemoryImage) -> bool {
        self.base.layout_matches(image)
    }

    /// Executes the kernel against `image` on its tier.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledKernel::run`].
    pub fn run(&self, image: &mut MemoryImage) -> Result<RunStats, ExecError> {
        self.base.run_at(self.isa, image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_codegen::{generate, CodegenOptions, ReuseMode};
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};
    use simdize_vm::run_simd;

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    fn compile_at(src: &str, policy: Policy, ub: u64) -> (SimdProgram, CompiledKernel, MemoryImage) {
        compile_reusing(src, policy, ReuseMode::SoftwarePipeline, ub)
    }

    fn compile_reusing(
        src: &str,
        policy: Policy,
        reuse: ReuseMode,
        ub: u64,
    ) -> (SimdProgram, CompiledKernel, MemoryImage) {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        let prog = generate(&g, &CodegenOptions::default().reuse(reuse)).unwrap();
        let image = MemoryImage::with_seed(&p, VectorShape::V16, 0xC0FFEE);
        let kernel = CompiledKernel::compile(&prog, &image, &RunInput::with_ub(ub)).unwrap();
        (prog, kernel, image)
    }

    #[test]
    fn every_available_tier_matches_the_interpreter() {
        for policy in Policy::ALL {
            let (prog, kernel, image) = compile_at(FIG1, policy, 100);
            let mut reference = image.clone();
            let want_stats = run_simd(&prog, &mut reference, &RunInput::with_ub(100)).unwrap();
            for isa in IsaLevel::ALL.into_iter().filter(|l| l.available()) {
                let lowered = SimdKernel::lower(&kernel, isa);
                assert_eq!(lowered.isa(), isa);
                let mut got = image.clone();
                let stats = lowered.run(&mut got).unwrap();
                assert_eq!(stats, want_stats, "{policy:?} {isa}");
                assert_eq!(got.bytes(), reference.bytes(), "{policy:?} {isa}");
            }
        }
    }

    #[test]
    fn unavailable_tier_clamps_to_scalar() {
        let (_, kernel, _) = compile_at(FIG1, Policy::Zero, 100);
        for isa in IsaLevel::ALL.into_iter().filter(|l| !l.available()) {
            assert_eq!(SimdKernel::lower(&kernel, isa).isa(), IsaLevel::Scalar);
        }
    }

    const RUNTIME_UB: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
                              for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn fallback_kernels_run_the_scalar_loop_on_every_tier() {
        // ub below the guard minimum trips the scalar fallback.
        let (prog, kernel, image) = compile_at(RUNTIME_UB, Policy::Zero, 2);
        assert!(kernel.is_fallback());
        let lowered = SimdKernel::lower_detected(&kernel);
        assert!(lowered.is_fallback());
        let mut reference = image.clone();
        run_simd(&prog, &mut reference, &RunInput::with_ub(2)).unwrap();
        let mut got = image.clone();
        lowered.run(&mut got).unwrap();
        assert_eq!(got.bytes(), reference.bytes());
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        let (_, kernel, _) = compile_at(FIG1, Policy::Zero, 100);
        let other = parse_program(
            "arrays { a: i32[256] @ 0; b: i32[256] @ 4; c: i32[256] @ 8; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        let mut foreign = MemoryImage::with_seed(&other, VectorShape::V16, 1);
        let lowered = SimdKernel::lower_detected(&kernel);
        assert!(lowered.run(&mut foreign).is_err());
    }

    #[test]
    fn register_block_is_sized_by_live_values() {
        let (_, kernel, _) = compile_reusing(FIG1, Policy::Zero, ReuseMode::None, 100);
        assert_eq!(kernel.schedule().body, SectionSchedule::Strip);
        // Two loads, two shifts, an add and the store's source, some
        // of them sharing a column: far fewer than one per baked id.
        let columns = kernel.program().nregs / strip::STRIP;
        assert!((1..=6).contains(&columns), "{columns} columns");

        // A rotation shares its source's column, plus one seed lane per
        // level of the chain: against the same loop without reuse, the
        // block grows by at most those lanes. (`deinterleave`, the
        // strided sample, has no reuse to compare.)
        for name in ["figure1", "runtime", "dot_product", "halfword"] {
            let path = format!("{}/../../loops/{name}.loop", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(path).unwrap();
            let ub = parse_program(&src).unwrap().trip().known().unwrap_or(4096);
            let block = |reuse| {
                let (_, kernel, _) = compile_reusing(&src, Policy::Zero, reuse, ub);
                let program = kernel.program();
                let seeds: usize = program.sections.iter().flat_map(|s| &s.seeds).map(|&(_, d)| d as usize).sum();
                (program.nregs, seeds)
            };
            let (plain, _) = block(ReuseMode::None);
            for reuse in [ReuseMode::SoftwarePipeline, ReuseMode::PredictiveCommoning] {
                let (nregs, seeds) = block(reuse);
                assert!(nregs <= plain + seeds, "{name} {reuse:?}: {nregs} lanes, {plain} without reuse");
                assert!(nregs <= 8 * strip::STRIP, "{name} {reuse:?}: {nregs} lanes");
            }
        }
    }
}
