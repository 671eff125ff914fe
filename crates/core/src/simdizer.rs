//! The high-level pipeline driver.

use crate::error::SimdizeError;
use crate::report::Report;
use crate::scheme::Scheme;
use simdize_analysis::{analyze_program, AnalysisFailed, AnalyzeOptions};
use simdize_codegen::{
    generate, generate_traced, generate_unaligned, CodegenOptions, CodegenTrace, ReuseMode,
    SimdProgram,
};
use simdize_ir::{LoopProgram, VectorShape};
use simdize_reorg::{reassociate, PlacementTrace, Policy, ReorgGraph};
use simdize_telemetry as telemetry;
use simdize_vm::UNALIGNED_MEM_COST;
use simdize_vm::{run_differential, DiffConfig};
use simdize_workloads::{lower_bound_opd, lower_bound_opd_unaligned};

/// The machine model code is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Target {
    /// AltiVec/VMX-style: aligned-only, truncating vector memory — the
    /// paper's machine, requiring the full alignment-handling pipeline.
    #[default]
    Aligned,
    /// SSE2-style hardware misaligned memory (`movdqu`): no
    /// reorganization needed, but every access costs
    /// [`UNALIGNED_MEM_COST`]. Used by the E9 ablation to quantify when
    /// software alignment handling beats hardware support.
    Unaligned,
}

/// One-stop driver for the complete simdization pipeline:
/// reassociation → reorganization graph → shift placement → code
/// generation → (optionally) differential execution and measurement.
///
/// # Example
///
/// ```
/// use simdize::{Simdizer, Policy};
/// let p = simdize::parse_program(
///     "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
///      for i in 0..100 { a[i+1] = b[i+2] * 3; }",
/// )?;
/// let program = Simdizer::new().policy(Policy::Eager).compile(&p)?;
/// assert_eq!(program.block(), 4);
/// # Ok::<(), simdize::SimdizeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simdizer {
    shape: VectorShape,
    policy: Option<Policy>,
    options: CodegenOptions,
    reassoc: bool,
    target: Target,
}

impl Default for Simdizer {
    fn default() -> Self {
        Simdizer {
            shape: VectorShape::V16,
            policy: None,
            options: CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline),
            reassoc: false,
            target: Target::Aligned,
        }
    }
}

impl Simdizer {
    /// A driver with the paper's best defaults: 16-byte vectors,
    /// automatic policy choice (dominant-shift when alignments are
    /// known at compile time, zero-shift otherwise), software
    /// pipelining, memory normalization, unroll-by-2.
    pub fn new() -> Simdizer {
        Simdizer::default()
    }

    /// Sets the vector register shape.
    pub fn shape(mut self, shape: VectorShape) -> Simdizer {
        self.shape = shape;
        self
    }

    /// Forces a specific shift-placement policy. Without this call the
    /// driver picks automatically.
    pub fn policy(mut self, policy: Policy) -> Simdizer {
        self.policy = Some(policy);
        self
    }

    /// Sets the reuse mode (software pipelining by default).
    pub fn reuse(mut self, reuse: ReuseMode) -> Simdizer {
        self.options = self.options.reuse(reuse);
        self
    }

    /// Enables or disables memory normalization + CSE.
    pub fn memnorm(mut self, on: bool) -> Simdizer {
        self.options = self.options.memnorm(on);
        self
    }

    /// Enables or disables the copy-removing unroll-by-2.
    pub fn unroll(mut self, on: bool) -> Simdizer {
        self.options = self.options.unroll(on);
        self
    }

    /// Enables or disables common-offset reassociation.
    pub fn reassociate(mut self, on: bool) -> Simdizer {
        self.reassoc = on;
        self
    }

    /// Enables or disables the post-codegen static analysis gate: when
    /// on, [`Simdizer::compile`] runs the `simdize-analysis` abstract
    /// interpreter over the generated program and rejects it with
    /// [`SimdizeError::Analysis`] on any deny-level finding.
    pub fn analyze(mut self, on: bool) -> Simdizer {
        self.options = self.options.analyze(on);
        self
    }

    /// Selects the machine model (aligned-only, the default, or
    /// hardware-misaligned).
    pub fn target(mut self, target: Target) -> Simdizer {
        self.target = target;
        self
    }

    /// Configures policy, reuse and reassociation from a named
    /// [`Scheme`].
    pub fn scheme(self, scheme: Scheme) -> Simdizer {
        self.policy(scheme.policy)
            .reuse(scheme.reuse)
            .reassociate(scheme.reassoc)
    }

    /// The policy that will be used for `program` — the forced one, or
    /// the automatic choice (dominant-shift when every alignment is
    /// known at compile time, zero-shift otherwise, per §4.4).
    pub fn policy_for(&self, program: &LoopProgram) -> Policy {
        self.policy.unwrap_or(if program.all_alignments_known() {
            Policy::Dominant
        } else {
            Policy::Zero
        })
    }

    /// The vector register shape.
    pub fn vector_shape(&self) -> VectorShape {
        self.shape
    }

    /// The forced shift-placement policy, or `None` when the driver
    /// chooses per loop ([`Simdizer::policy_for`]).
    pub fn forced_policy(&self) -> Option<Policy> {
        self.policy
    }

    /// The machine model code is generated for.
    pub fn machine(&self) -> Target {
        self.target
    }

    /// The shift-placed reorganization graph of `program`:
    /// common-offset reassociation when on, then the graph, then
    /// placement under [`Simdizer::policy_for`]. The graph
    /// [`Simdizer::compile`] generates code from on the aligned target.
    ///
    /// # Errors
    ///
    /// Graph construction or shift placement failures.
    pub fn place(&self, program: &LoopProgram) -> Result<ReorgGraph, SimdizeError> {
        self.place_with(program, None)
    }

    fn place_with(
        &self,
        program: &LoopProgram,
        trace: Option<&mut PlacementTrace>,
    ) -> Result<ReorgGraph, SimdizeError> {
        let policy = self.policy_for(program);
        telemetry::tag("policy", policy);
        let _span = telemetry::span("reorg");
        let reassociated = self.reassoc.then(|| reassociate(program, self.shape));
        let graph = ReorgGraph::build(reassociated.as_ref().unwrap_or(program), self.shape)?;
        Ok(match trace {
            Some(trace) => graph.with_policy_traced(policy, trace)?,
            None => graph.with_policy(policy)?,
        })
    }

    /// Compiles `program` to a simdized VIR program.
    ///
    /// # Errors
    ///
    /// Any [`SimdizeError`] from graph construction, shift placement or
    /// code generation — e.g. forcing a non-zero policy on a loop with
    /// runtime alignments.
    pub fn compile(&self, program: &LoopProgram) -> Result<SimdProgram, SimdizeError> {
        self.compile_with(program, None).map(|(_, compiled)| compiled)
    }

    /// [`Simdizer::compile`], recording every placement decision into
    /// `placement` and every code-generation decision into `codegen`.
    /// Also returns the placed graph the program was generated from:
    /// `None` for the hardware-misaligned generator, which places no
    /// shifts and records nothing.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Simdizer::compile`].
    pub fn compile_traced(
        &self,
        program: &LoopProgram,
        placement: &mut PlacementTrace,
        codegen: &mut CodegenTrace,
    ) -> Result<(Option<ReorgGraph>, SimdProgram), SimdizeError> {
        self.compile_with(program, Some((placement, codegen)))
    }

    /// The one compile body: traced when `traces` is given, and then
    /// only.
    fn compile_with(
        &self,
        program: &LoopProgram,
        traces: Option<(&mut PlacementTrace, &mut CodegenTrace)>,
    ) -> Result<(Option<ReorgGraph>, SimdProgram), SimdizeError> {
        let (placed, compiled) = if self.target == Target::Unaligned {
            let graph = {
                let _span = telemetry::span("reorg");
                ReorgGraph::build(program, self.shape)?
            };
            let _span = telemetry::span("codegen");
            (None, generate_unaligned(&graph)?)
        } else {
            let (placement, codegen) = traces.unzip();
            let placed = self.place_with(program, placement)?;
            let _span = telemetry::span("codegen");
            let compiled = match codegen {
                Some(trace) => generate_traced(&placed, &self.options, trace)?,
                None => generate(&placed, &self.options)?,
            };
            (Some(placed), compiled)
        };
        if self.options.analyze_enabled() {
            let _span = telemetry::span("analysis");
            let report = analyze_program(&compiled, &self.analyze_options());
            if report.deny_count() > 0 {
                return Err(AnalysisFailed::new(report).into());
            }
        }
        Ok((placed, compiled))
    }

    /// What the static analyzer is told about the code this driver
    /// generates for `program`: whether memory normalization ran, and
    /// the reuse scheme — only on the aligned target, because the
    /// exactly-once reuse lint does not apply to the hardware-misaligned
    /// generator, which doesn't pipeline chunks.
    pub fn analyze_options(&self) -> AnalyzeOptions {
        let opts = AnalyzeOptions::new().memnorm(self.options.memnorm_enabled());
        if self.target == Target::Aligned {
            opts.reuse(self.options.reuse_mode())
        } else {
            opts
        }
    }

    /// The operations-per-datum bound reported next to a measured OPD:
    /// the §5.3 analytic bound under [`Simdizer::policy_for`] (its
    /// hardware-misaligned form on [`Target::Unaligned`]).
    pub fn opd_bound(&self, program: &LoopProgram) -> f64 {
        match self.target {
            Target::Aligned => lower_bound_opd(program, self.shape, self.policy_for(program)),
            Target::Unaligned => lower_bound_opd_unaligned(program, self.shape, UNALIGNED_MEM_COST),
        }
    }

    /// Compiles, runs differentially against the scalar oracle with the
    /// given `seed`, and reports the paper's metrics.
    ///
    /// # Errors
    ///
    /// Compilation errors, execution faults, or
    /// [`simdize_vm::VerifyError::MemoryMismatch`] if the simdized code
    /// computed wrong results.
    pub fn evaluate(&self, program: &LoopProgram, seed: u64) -> Result<Report, SimdizeError> {
        self.evaluate_with(program, &DiffConfig::with_seed(seed))
    }

    /// [`Simdizer::evaluate`] with full control over the differential
    /// configuration (runtime trip count, parameters).
    ///
    /// # Errors
    ///
    /// Same as [`Simdizer::evaluate`].
    pub fn evaluate_with(
        &self,
        program: &LoopProgram,
        config: &DiffConfig,
    ) -> Result<Report, SimdizeError> {
        let compiled = self.compile(program)?;
        let outcome = run_differential(&compiled, config)?;
        let bound = self.opd_bound(program);
        let scalar_opd = outcome.scalar_ideal as f64 / outcome.data_produced as f64;
        Ok(Report {
            verified: outcome.verified,
            stats: outcome.stats,
            data_produced: outcome.data_produced,
            opd: outcome.opd(),
            lower_bound_opd: bound,
            scalar_ideal: outcome.scalar_ideal,
            speedup: outcome.speedup(),
            speedup_bound: scalar_opd / bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::parse_program;

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn auto_policy_selection() {
        let known = parse_program(FIG1).unwrap();
        assert_eq!(Simdizer::new().policy_for(&known), Policy::Dominant);
        let runtime = parse_program(
            "arrays { a: i32[64] @ ?; b: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i]; }",
        )
        .unwrap();
        assert_eq!(Simdizer::new().policy_for(&runtime), Policy::Zero);
        assert_eq!(
            Simdizer::new().policy(Policy::Lazy).policy_for(&runtime),
            Policy::Lazy
        );
    }

    #[test]
    fn evaluate_all_schemes_on_fig1() {
        let p = parse_program(FIG1).unwrap();
        for scheme in Scheme::all() {
            let report = Simdizer::new().scheme(scheme).evaluate(&p, 7).unwrap();
            assert!(report.verified, "{scheme}");
            assert!(
                report.opd + 1e-9 >= report.lower_bound_opd,
                "{scheme}: measured {} below bound {}",
                report.opd,
                report.lower_bound_opd
            );
        }
    }

    #[test]
    fn reassociation_helps_lazy() {
        let src = "arrays { a: i32[2048] @ 0; b: i32[2048] @ 0; c: i32[2048] @ 0;
                            d: i32[2048] @ 0; e: i32[2048] @ 0; }
                   for i in 0..2000 { a[i] = b[i+1] + c[i+2] + d[i+1] + e[i+2]; }";
        let p = parse_program(src).unwrap();
        let base = Simdizer::new()
            .policy(Policy::Lazy)
            .reuse(ReuseMode::SoftwarePipeline)
            .evaluate(&p, 3)
            .unwrap();
        let re = Simdizer::new()
            .policy(Policy::Lazy)
            .reuse(ReuseMode::SoftwarePipeline)
            .reassociate(true)
            .evaluate(&p, 3)
            .unwrap();
        assert!(re.stats.shifts < base.stats.shifts);
        assert!(re.opd < base.opd);
    }

    #[test]
    fn analysis_gate_accepts_generated_programs() {
        let p = parse_program(FIG1).unwrap();
        for scheme in Scheme::all() {
            Simdizer::new()
                .scheme(scheme)
                .analyze(true)
                .compile(&p)
                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        }
        let runtime = parse_program(
            "arrays { a: i32[256] @ ?; b: i32[256] @ ?; }
             for i in 0..ub { a[i] = b[i+1]; }",
        )
        .unwrap();
        Simdizer::new().analyze(true).compile(&runtime).unwrap();
        let strided = parse_program(
            "arrays { out: i32[128] @ 0; inter: i32[300] @ 4; }
             for i in 0..100 { out[i] = inter[2*i] + inter[2*i+1]; }",
        )
        .unwrap();
        Simdizer::new().analyze(true).compile(&strided).unwrap();
    }

    #[test]
    fn forced_policy_on_runtime_alignment_errors() {
        let p = parse_program(
            "arrays { a: i32[64] @ ?; b: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i]; }",
        )
        .unwrap();
        assert!(matches!(
            Simdizer::new().policy(Policy::Eager).compile(&p),
            Err(SimdizeError::Policy(_))
        ));
    }

    #[test]
    fn speedup_approaches_peak_on_friendly_loops() {
        // Large loop, shorts (8 lanes): speedup should clear 4× even
        // with misalignment.
        let src = "arrays { a: i16[4096] @ 0; b: i16[4096] @ 2; c: i16[4096] @ 6; }
                   for i in 0..4000 { a[i+1] = b[i] + c[i]; }";
        let p = parse_program(src).unwrap();
        let report = Simdizer::new().evaluate(&p, 1).unwrap();
        assert!(report.speedup > 4.0, "speedup {}", report.speedup);
        assert!(report.speedup <= 8.0);
    }
}
