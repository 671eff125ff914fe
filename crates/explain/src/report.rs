//! The explain driver: run the full pipeline with tracing enabled and
//! assemble an [`ExplainReport`].

use crate::accounting::{account, Accounting};
use crate::backlink::{annotate, AnnotatedSection};
use crate::decision::Decisions;
use simdize_codegen::{
    generate_strided, generate_traced, strided_model_opd, CodegenOptions, CodegenTrace, ReuseMode,
    SimdProgram,
};
use simdize_engine::{CompiledKernel, FusionEvent};
use simdize_ir::{parse_program, LoopProgram, VectorShape};
use simdize_reorg::{Policy, PolicyError, ReorgGraph};
use simdize_vm::{run_differential, DiffConfig, MemoryImage, RunInput, RunStats};
use simdize_workloads::{lower_bound_parts, LowerBound};
use std::error::Error;

/// Errors from the explain pipeline (parse, graph construction, code
/// generation, execution, verification).
///
/// Note that an *inapplicable policy* is not an error: it produces an
/// [`ExplainReport::Inapplicable`] page explaining why (§4.4), so a
/// docs generator can cover every loop × policy combination.
pub type ExplainError = Box<dyn Error>;

/// Configures and runs the explainable-simdization pipeline.
#[derive(Debug, Clone)]
pub struct Explainer {
    policy: Option<Policy>,
    shape: VectorShape,
    reuse: ReuseMode,
    seed: u64,
    ub: u64,
    params: Vec<i64>,
}

impl Default for Explainer {
    fn default() -> Explainer {
        Explainer {
            policy: None,
            shape: VectorShape::V16,
            reuse: ReuseMode::SoftwarePipeline,
            seed: 2004,
            ub: 1000,
            params: Vec::new(),
        }
    }
}

/// What the explained loop was compiled as.
#[derive(Debug)]
pub enum ExplainReport {
    /// The standard stream-simdization path, fully traced.
    Stream(Box<StreamReport>),
    /// The requested policy cannot apply to this loop; the report
    /// explains why instead of failing.
    Inapplicable(InapplicableReport),
    /// A non-unit-stride loop compiled by the §7 gather/scatter
    /// extension, which bypasses the stream placement policies.
    Strided(Box<StridedReport>),
}

/// Loop-level metadata shared by all report forms.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop in source syntax.
    pub source: String,
    /// `arrN` id → declared name, in declaration order.
    pub array_names: Vec<String>,
    /// The policy that was (or would have been) used.
    pub policy: Policy,
    /// Whether the policy was forced or chosen automatically (§4.4).
    pub policy_forced: bool,
    /// Target vector shape.
    pub shape: VectorShape,
    /// Blocking factor `B`.
    pub block: u32,
    /// Memory-image seed of the measured run.
    pub seed: u64,
    /// Trip count of the measured run.
    pub ub: u64,
}

/// The full decision-trace report of a stream-simdized loop.
#[derive(Debug)]
pub struct StreamReport {
    /// Loop metadata.
    pub info: LoopInfo,
    /// The placed reorganization graph, rendered.
    pub graph: String,
    /// `vshiftstream` nodes in the placed graph.
    pub shift_count: usize,
    /// Every decision of the three phases.
    pub decisions: Decisions,
    /// The generated program.
    pub program: SimdProgram,
    /// The program listing with per-instruction decision links.
    pub sections: Vec<AnnotatedSection>,
    /// OPD accounting against the §5.3 bound.
    pub accounting: Accounting,
    /// §5.3 per-iteration lower bound.
    pub lower_bound: LowerBound,
    /// Measured dynamic counts (interpreter == engine).
    pub stats: RunStats,
    /// Whether the simdized run was byte-identical to the scalar
    /// oracle.
    pub verified: bool,
    /// Speedup over the idealistic scalar loop.
    pub speedup: f64,
    /// Whether the native engine reproduced the interpreter's stats
    /// exactly.
    pub engine_matches: bool,
    /// Whether the native engine fell back to the scalar path.
    pub engine_fallback: bool,
}

/// Report for a (loop, policy) pair the placement phase rejects.
#[derive(Debug)]
pub struct InapplicableReport {
    /// Loop metadata (policy = the rejected one).
    pub info: LoopInfo,
    /// The policy error, verbatim.
    pub error: String,
    /// Why the paper says this combination cannot work, in prose.
    pub explanation: String,
}

/// Report for a strided loop (the §7 extension path).
#[derive(Debug)]
pub struct StridedReport {
    /// Loop metadata (policy is recorded but unused by this path).
    pub info: LoopInfo,
    /// The generated program.
    pub program: SimdProgram,
    /// Measured dynamic counts.
    pub stats: RunStats,
    /// Data elements produced.
    pub data: u64,
    /// Measured operations per datum.
    pub opd: f64,
    /// The strided generator's static cost model OPD.
    pub model_opd: f64,
    /// Whether the run verified against the scalar oracle.
    pub verified: bool,
    /// Speedup over the idealistic scalar loop.
    pub speedup: f64,
    /// The engine's trace-fusion rewrites of the baked plan (`F<n>`):
    /// the composed `vperm` gather chains, among others. Empty for
    /// shapes the engine does not bake (it runs V16 only).
    pub fusion: Vec<FusionEvent>,
}

impl Explainer {
    /// An explainer with the pipeline's defaults: 16-byte vectors,
    /// automatic policy, software pipelining, seed 2004, runtime trip
    /// count 1000.
    pub fn new() -> Explainer {
        Explainer::default()
    }

    /// Forces a shift-placement policy (automatic choice otherwise).
    pub fn policy(mut self, policy: Policy) -> Explainer {
        self.policy = Some(policy);
        self
    }

    /// Sets the vector register shape.
    pub fn shape(mut self, shape: VectorShape) -> Explainer {
        self.shape = shape;
        self
    }

    /// Sets the register-reuse scheme.
    pub fn reuse(mut self, reuse: ReuseMode) -> Explainer {
        self.reuse = reuse;
        self
    }

    /// Sets the memory-image seed of the measured run.
    pub fn seed(mut self, seed: u64) -> Explainer {
        self.seed = seed;
        self
    }

    /// Sets the trip count used when the loop's is a runtime value.
    pub fn ub(mut self, ub: u64) -> Explainer {
        self.ub = ub;
        self
    }

    /// Sets the loop's runtime parameter values.
    pub fn params(mut self, params: Vec<i64>) -> Explainer {
        self.params = params;
        self
    }

    /// Parses `source` and explains it (see [`Explainer::explain`]).
    ///
    /// # Errors
    ///
    /// Parse errors, plus everything [`Explainer::explain`] returns.
    pub fn explain_source(&self, source: &str) -> Result<ExplainReport, ExplainError> {
        let program = parse_program(source)?;
        self.explain(&program)
    }

    /// Runs the traced pipeline over `program` and assembles the
    /// report: placement trace → codegen trace → differential run →
    /// native-engine cross-check → back-linked listing → OPD
    /// accounting.
    ///
    /// # Errors
    ///
    /// Graph construction, code generation, execution or verification
    /// failures. A policy that merely *does not apply* returns
    /// `Ok(ExplainReport::Inapplicable)` instead.
    pub fn explain(&self, program: &LoopProgram) -> Result<ExplainReport, ExplainError> {
        let policy = self.policy.unwrap_or(if program.all_alignments_known() {
            Policy::Dominant
        } else {
            Policy::Zero
        });
        let info = LoopInfo {
            source: program.to_source(),
            array_names: program
                .arrays()
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            policy,
            policy_forced: self.policy.is_some(),
            shape: self.shape,
            block: self.shape.blocking_factor(program.elem()),
            seed: self.seed,
            ub: program.trip().known().unwrap_or(self.ub),
        };

        if program.all_refs().iter().any(|r| !r.is_unit_stride()) {
            return self.explain_strided(program, info);
        }

        let graph = ReorgGraph::build(program, self.shape)?;
        let mut decisions = Decisions::default();
        let placed = match graph.with_policy_traced(policy, &mut decisions.placement) {
            Ok(p) => p,
            Err(e @ PolicyError::NeedsCompileTimeAlignment { .. }) => {
                return Ok(ExplainReport::Inapplicable(InapplicableReport {
                    info,
                    error: e.to_string(),
                    explanation: format!(
                        "The {}-shift policy reconciles stream offsets to compile-time \
                         byte positions, but this loop has at least one array whose \
                         alignment is only known at run time. Only the zero-shift \
                         policy applies then (paper §4.4): it shifts every load \
                         stream to offset 0 — an amount computable at run time as \
                         `addr & (V-1)` — and shifts back up just before the store. \
                         Re-run with `--policy zero`, or drop `--policy` to let the \
                         driver choose automatically.",
                        policy.name()
                    ),
                }));
            }
            Err(e) => {
                return Ok(ExplainReport::Inapplicable(InapplicableReport {
                    info,
                    error: e.to_string(),
                    explanation:
                        "The placement phase rejected this loop/policy combination; \
                         see the error above for the violated precondition."
                            .to_string(),
                }));
            }
        };

        let options = CodegenOptions::default().reuse(self.reuse);
        let mut ctrace = CodegenTrace::new();
        let compiled = generate_traced(&placed, &options, &mut ctrace)?;
        decisions.codegen = ctrace;

        let outcome = run_differential(&compiled, &self.diff_config())?;

        // Cross-check with the compiled native engine and pick up its
        // trace-fusion decisions.
        let input = RunInput {
            ub: info.ub,
            params: self.params.clone(),
        };
        let mut image = MemoryImage::with_seed(program, self.shape, self.seed);
        let kernel = CompiledKernel::compile(&compiled, &image, &input)?;
        let engine_stats = kernel.run(&mut image)?;
        let engine_matches = engine_stats == outcome.stats;
        let engine_fallback = kernel.is_fallback();
        decisions.fusion = kernel.fusion_events().to_vec();

        let sections = annotate(&compiled, &placed, &decisions);
        let lower_bound = lower_bound_parts(program, self.shape, policy);
        let accounting = account(
            &outcome.stats,
            outcome.data_produced,
            Some(&lower_bound),
            &decisions,
        );

        Ok(ExplainReport::Stream(Box::new(StreamReport {
            info,
            graph: placed.to_string(),
            shift_count: placed.shift_count(),
            decisions,
            program: compiled,
            sections,
            accounting,
            lower_bound,
            stats: outcome.stats,
            verified: outcome.verified,
            speedup: outcome.speedup(),
            engine_matches,
            engine_fallback,
        })))
    }

    fn explain_strided(
        &self,
        program: &LoopProgram,
        info: LoopInfo,
    ) -> Result<ExplainReport, ExplainError> {
        let compiled = generate_strided(program, self.shape)?;
        let outcome = run_differential(&compiled, &self.diff_config())?;
        let input = RunInput {
            ub: info.ub,
            params: self.params.clone(),
        };
        let image = MemoryImage::with_seed(program, self.shape, self.seed);
        let fusion = match CompiledKernel::compile(&compiled, &image, &input) {
            Ok(kernel) => kernel.fusion_events().to_vec(),
            Err(_) if self.shape != VectorShape::V16 => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        Ok(ExplainReport::Strided(Box::new(StridedReport {
            info,
            opd: outcome.opd(),
            model_opd: strided_model_opd(program, self.shape).unwrap_or(f64::NAN),
            verified: outcome.verified,
            speedup: outcome.speedup(),
            data: outcome.data_produced,
            stats: outcome.stats,
            program: compiled,
            fusion,
        })))
    }

    fn diff_config(&self) -> DiffConfig {
        DiffConfig::with_seed(self.seed)
            .runtime_ub(self.ub)
            .params(self.params.clone())
    }
}
