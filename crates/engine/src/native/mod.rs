//! The real-intrinsics backend: lowering baked plans to `std::arch`.
//!
//! [`SimdKernel::lower`] translates a baked (and trace-fused)
//! [`CompiledKernel`] into sections of `NOp`s whose every operand is
//! ready for a 128-bit register file — registers renamed onto dense
//! columns, splice points expanded to byte-select masks, permutation
//! patterns split into the two `pshufb`-style half-tables — then
//! replays it through the one strip-mined driver (`strip`), on one of
//! four instruction tiers picked by [`IsaLevel`]:
//!
//! | VIR form        | SSE2                               | AVX2 tier                | NEON            |
//! |-----------------|------------------------------------|--------------------------|-----------------|
//! | `vload`/`.fused`| `movdqu` (chunk-aligned address)   | same                     | `vld1q_u8`      |
//! | `vshiftpair`    | `psrldq`+`pslldq`+`por`            | `palignr`                | `vextq_u8`      |
//! | `vsplice`       | `pand`/`pandn`/`por` mask select   | `pblendvb`               | `vbslq_u8`      |
//! | `vperm`         | scalar byte gather                 | 2×`pshufb`+`por`         | `vqtbl2q_u8`    |
//! | `vsplat`        | immediate register image           | same                     | same            |
//! | arithmetic      | `padd*`/`psub*`/`pmullw`/…         | + `pmulld`, full min/max | `vaddq`/`vsubq`/…|
//!
//! The fused `vload.fused` forms from the trace pass are already
//! single loads, so they lower to one `movdqu` — the paper's whole
//! lowering table lands on real instructions. Operation/width pairs a
//! tier has no instruction for (64-bit multiply, for example) fall
//! back per-op to the `crate::lanes` reference loops on
//! register copies, so every tier is total and byte-identical to the
//! interpreter by construction.
//!
//! `unsafe` lives only in the two per-architecture modules; the
//! portable tier and everything here stay safe. Stats come straight
//! from the base kernel (they are computed analytically before fusion),
//! so interpreter, fused engine and intrinsics backend agree on
//! [`RunStats`] by construction too.

use crate::kernel::CompiledKernel;
use crate::lanes::Reg;
use simdize_codegen::SimdProgram;
use simdize_ir::{BinOp, UnOp};
use simdize_telemetry as telemetry;
use simdize_vm::{ExecError, Executor, MemoryImage, RunInput, RunStats};
use strip::Program;

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

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use isa::IsaLevel;

/// One lowered native instruction. Compared to the interpreter's
/// [`Op`](crate::kernel::Op), everything an intrinsic wants
/// precomputed is precomputed at lowering time: splices carry their
/// byte-select mask, permutations carry the two half-register shuffle
/// tables, and register operands are offsets into the run's register
/// block, not the baked kernel's sparse register ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum NOp {
    Load {
        dst: u32,
        start: i64,
        step: i64,
    },
    Store {
        src: u32,
        start: i64,
        step: i64,
    },
    Shift {
        dst: u32,
        a: u32,
        b: u32,
        amt: u8,
    },
    Splice {
        dst: u32,
        a: u32,
        b: u32,
        /// `0xFF` where the output byte comes from `a` (index < point),
        /// `0x00` where it comes from `b` — the operand `pblendvb` /
        /// `vbslq_u8` take directly.
        mask: Reg,
    },
    Perm {
        dst: u32,
        a: u32,
        b: u32,
        /// The original 0..32 selector, for the tiers without `pshufb`.
        pattern: [u8; 16],
        /// `pshufb` table over `a`: selector when < 16, else `0x80`
        /// (shuffle-to-zero).
        lo: Reg,
        /// `pshufb` table over `b`: selector − 16 when ≥ 16, else `0x80`.
        hi: Reg,
    },
    Splat {
        dst: u32,
        bytes: Reg,
    },
    Bin {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
    },
    BinImm {
        dst: u32,
        op: BinOp,
        a: u32,
        imm: Reg,
        imm_left: bool,
    },
    Un {
        dst: u32,
        op: UnOp,
        a: u32,
    },
    Copy {
        dst: u32,
        src: u32,
    },
}

/// How [`SimdKernel::run`] executes one loop section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionSchedule {
    /// Strip-mined: each op is dispatched once per strip of
    /// iterations and runs down a register column.
    Strip,
    /// One iteration per dispatch, in program order — what a loop that
    /// carries a register or a close memory dependence between
    /// iterations needs.
    Sequential,
}

/// The schedule [`SimdKernel::lower`] chose for the two loop sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// The unrolled pair loop.
    pub pair: SectionSchedule,
    /// The steady-state body loop.
    pub body: SectionSchedule,
}

/// A baked kernel lowered to real SIMD, pinned to one [`IsaLevel`].
///
/// Built with [`lower`](SimdKernel::lower) from any [`CompiledKernel`]
/// (typically a trace-fused one); [`run`](SimdKernel::run) replays the
/// lowered program through the tier's `std::arch` executor. Scalar
/// fallback kernels (the `ub ≤ 3B` guard) delegate to the base kernel
/// unchanged — there is no vector section to lower.
#[derive(Debug, Clone)]
pub struct SimdKernel {
    base: CompiledKernel,
    isa: IsaLevel,
    schedule: Schedule,
    program: Program,
}

impl SimdKernel {
    /// Lowers `kernel` for `isa`. A tier the current host cannot
    /// execute (wrong architecture, failed AVX2 probe) is clamped to
    /// the portable scalar tier, so lowering is total and `run` can
    /// never dispatch into unsupported instructions.
    pub fn lower(kernel: &CompiledKernel, isa: IsaLevel) -> SimdKernel {
        let _span = telemetry::span("lower");
        let isa = if isa.available() { isa } else { IsaLevel::Scalar };
        telemetry::tag("isa", isa);
        let (program, schedule) = lower::lower(kernel);
        SimdKernel {
            base: kernel.clone(),
            isa,
            schedule,
            program,
        }
    }

    /// [`lower`](SimdKernel::lower) at the host's detected tier
    /// ([`IsaLevel::detect`], honoring the `SIMDIZE_ISA` override).
    pub fn lower_detected(kernel: &CompiledKernel) -> SimdKernel {
        SimdKernel::lower(kernel, IsaLevel::detect())
    }

    /// Compiles `program` and lowers it at the detected tier — the
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

    /// How `run` executes the two loop sections: in strips where
    /// lowering proved that equivalent to program order, else
    /// sequentially. The same on every tier.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The baked kernel this lowering came from.
    pub fn base(&self) -> &CompiledKernel {
        &self.base
    }

    /// The base kernel's analytic [`RunStats`] — identical across
    /// interpreter, fused engine and this backend by construction.
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

    /// Executes the lowered kernel against `image`.
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] when `image` has a different layout
    /// than compiled for; scalar-fallback kernels propagate the base
    /// kernel's faults.
    pub fn run(&self, image: &mut MemoryImage) -> Result<RunStats, ExecError> {
        if self.base.is_fallback() {
            return self.base.run(image);
        }
        let _span = telemetry::span("run");
        if !self.base.layout_matches(image) {
            return Err(ExecError::Unsupported {
                what: "a memory image with a different layout than compiled for",
            });
        }
        let mem = image.bytes_mut();
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            IsaLevel::Sse2 => x86::exec(&self.program, mem, false),
            #[cfg(target_arch = "x86_64")]
            IsaLevel::Avx2 => x86::exec(&self.program, mem, true),
            #[cfg(target_arch = "aarch64")]
            IsaLevel::Neon => neon::exec(&self.program, mem),
            // `lower` clamps foreign-architecture tiers to Scalar.
            _ => strip::run(portable::portable(), &self.program, mem),
        }
        Ok(self.base.stats())
    }
}

/// [`Executor`] running every program through the intrinsics backend
/// at the detected ISA tier — `simdize run --engine simd`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdEngine;

impl Executor for SimdEngine {
    fn execute(
        &self,
        program: &SimdProgram,
        image: &mut MemoryImage,
        input: &RunInput,
    ) -> Result<RunStats, ExecError> {
        SimdKernel::compile(program, image, input)?.run(image)
    }

    fn name(&self) -> &'static str {
        "simd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_codegen::{generate, CodegenOptions, ReuseMode};
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    fn compile_at(src: &str, policy: Policy, ub: u64) -> (CompiledKernel, MemoryImage) {
        compile_reusing(src, policy, ReuseMode::SoftwarePipeline, ub)
    }

    fn compile_reusing(
        src: &str,
        policy: Policy,
        reuse: ReuseMode,
        ub: u64,
    ) -> (CompiledKernel, MemoryImage) {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        let prog = generate(&g, &CodegenOptions::default().reuse(reuse)).unwrap();
        let image = MemoryImage::with_seed(&p, VectorShape::V16, 0xC0FFEE);
        let kernel = CompiledKernel::compile(&prog, &image, &RunInput::with_ub(ub)).unwrap();
        (kernel, image)
    }

    fn tiers() -> Vec<IsaLevel> {
        IsaLevel::ALL
            .into_iter()
            .filter(|l| l.available())
            .collect()
    }

    #[test]
    fn every_available_tier_matches_the_fused_engine() {
        for policy in [Policy::Zero, Policy::Eager, Policy::Lazy, Policy::Dominant, Policy::Optimal] {
            let (kernel, image) = compile_at(FIG1, policy, 100);
            let mut reference = image.clone();
            let want_stats = kernel.run(&mut reference).unwrap();
            for isa in tiers() {
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
        let (kernel, _) = compile_at(FIG1, Policy::Zero, 100);
        let foreign = if cfg!(target_arch = "x86_64") {
            IsaLevel::Neon
        } else {
            IsaLevel::Avx2
        };
        if !foreign.available() {
            let lowered = SimdKernel::lower(&kernel, foreign);
            assert_eq!(lowered.isa(), IsaLevel::Scalar);
        }
    }

    const RUNTIME_UB: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
                              for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn fallback_kernels_delegate_to_the_base_path() {
        // ub below the guard minimum trips the scalar fallback.
        let (kernel, image) = compile_at(RUNTIME_UB, Policy::Zero, 2);
        assert!(kernel.is_fallback());
        let lowered = SimdKernel::lower_detected(&kernel);
        assert!(lowered.is_fallback());
        let mut reference = image.clone();
        kernel.run(&mut reference).unwrap();
        let mut got = image.clone();
        lowered.run(&mut got).unwrap();
        assert_eq!(got.bytes(), reference.bytes());
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        let (kernel, _) = compile_at(FIG1, Policy::Zero, 100);
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
        let (kernel, _) = compile_reusing(FIG1, Policy::Zero, ReuseMode::None, 100);
        let lowered = SimdKernel::lower(&kernel, IsaLevel::Scalar);
        assert_eq!(lowered.schedule().body, SectionSchedule::Strip);
        // Two loads, two shifts, an add and the store's source, some
        // of them sharing a column: far fewer than one per baked id.
        let columns = lowered.program.nregs / strip::STRIP;
        assert!((1..=6).contains(&columns), "{columns} columns");
        assert!(kernel.nregs > 2 * columns, "{} baked registers", kernel.nregs);
    }
}
