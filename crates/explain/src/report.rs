//! The explain driver: compile through [`Simdizer`]'s traced compile,
//! run the result once, and assemble an [`ExplainReport`].

use crate::accounting::{account, Accounting};
use crate::backlink::{annotate, AnnotatedSection};
use crate::decision::Decisions;
use simdize::{
    lower_bound_parts, run_differential, run_job, DiffConfig, ExecError,
    JobRun, KernelCache, LoopProgram, LowerBound, Policy, PolicyError, RunStats,
    SimdProgram, SimdizeError, Simdizer, SweepJob, Target, VectorShape,
};
use std::error::Error;

/// Errors from the explain pipeline (parse, graph construction, code
/// generation, execution, verification).
///
/// Note that an *inapplicable policy* is not an error: it produces an
/// [`ExplainReport::Inapplicable`] page explaining why (§4.4), so a
/// docs generator can cover every loop × policy combination.
pub type ExplainError = Box<dyn Error>;

/// Explains the program a [`Simdizer`] compiles: its traced compile,
/// then one measured run.
#[derive(Debug, Clone)]
pub struct Explainer {
    driver: Simdizer,
    run: DiffConfig,
}

/// What the explained loop was compiled as.
#[derive(Debug)]
pub enum ExplainReport {
    /// The standard stream-simdization path, fully traced.
    Stream(Box<StreamReport>),
    /// The requested policy cannot apply to this loop; the report
    /// explains why instead of failing.
    Inapplicable(InapplicableReport),
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
    /// Whether the engine's run reproduced the interpreter's stats
    /// exactly and the scalar oracle's memory byte for byte.
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

impl Explainer {
    /// An explainer for the program `driver` compiles, measured on the
    /// memory image, trip count and parameters `run` names.
    pub fn new(driver: Simdizer, run: DiffConfig) -> Explainer {
        Explainer { driver, run }
    }

    /// Compiles `program` through the driver's traced compile and
    /// assembles the report: placement and codegen traces →
    /// differential run → engine cross-check → back-linked listing →
    /// OPD accounting.
    ///
    /// # Errors
    ///
    /// Graph construction, code generation, execution or verification
    /// failures. A policy that merely *does not apply* returns
    /// `Ok(ExplainReport::Inapplicable)` instead, and so does the
    /// hardware-misaligned target.
    pub fn explain(&self, program: &LoopProgram) -> Result<ExplainReport, ExplainError> {
        let policy = self.driver.policy_for(program);
        let shape = self.driver.vector_shape();
        let info = LoopInfo {
            source: program.to_source(),
            array_names: program
                .arrays()
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            policy,
            policy_forced: self.driver.forced_policy().is_some(),
            shape,
            block: shape.blocking_factor(program.elem()),
            seed: self.run.seed,
            ub: program.trip().known().unwrap_or(self.run.runtime_ub),
        };
        if self.driver.machine() == Target::Unaligned {
            return Ok(ExplainReport::Inapplicable(InapplicableReport {
                info,
                error: "the unaligned target has no data reorganization to explain".to_string(),
                explanation: "Hardware-misaligned loads and stores replace every stream shift \
                              and splice; drop `--target unaligned` to explain the aligned \
                              program."
                    .to_string(),
            }));
        }

        let mut decisions = Decisions::default();
        let traced =
            self.driver
                .compile_traced(program, &mut decisions.placement, &mut decisions.codegen);
        let (placed, compiled) = match traced {
            Ok(traced) => traced,
            Err(SimdizeError::Policy(e)) => {
                return Ok(ExplainReport::Inapplicable(inapplicable(info, &e)))
            }
            Err(e) => return Err(e.into()),
        };
        let outcome = run_differential(&compiled, &self.run)?;
        let engine = self.engine_run(&compiled);

        let placed = placed.expect("the aligned target places shifts");
        let (run, kernel, _) = engine?;
        let engine_matches = run.verified && run.stats == outcome.stats;
        decisions.fusion = kernel.base().fusion_events().to_vec();

        let sections = annotate(&compiled, &placed, &decisions);
        let lower_bound = lower_bound_parts(program, shape, policy);
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
            engine_fallback: kernel.is_fallback(),
        })))
    }

    /// The measured run on the engine, through the one-job entry point
    /// on a private cache: its outcome is the cross-check, its kernel
    /// carries the trace-fusion decisions.
    fn engine_run(&self, compiled: &SimdProgram) -> Result<JobRun, ExecError> {
        let mut job = SweepJob::new(compiled.clone(), self.run.seed, self.run.runtime_ub);
        job.input.params.clone_from(&self.run.params);
        run_job(&job, &KernelCache::new(1, 1))
    }
}

/// The page for a (loop, policy) pair the placement phase rejects.
fn inapplicable(info: LoopInfo, error: &PolicyError) -> InapplicableReport {
    let explanation = match error {
        PolicyError::NeedsCompileTimeAlignment { .. } => format!(
            "The {}-shift policy reconciles stream offsets to compile-time \
             byte positions, but this loop has at least one array whose \
             alignment is only known at run time. Only the zero-shift \
             policy applies then (paper §4.4): it shifts every load \
             stream to offset 0 — an amount computable at run time as \
             `addr & (V-1)` — and shifts back up just before the store. \
             Re-run with `--policy zero`, or drop `--policy` to let the \
             driver choose automatically.",
            info.policy.name()
        ),
        _ => "The placement phase rejected this loop/policy combination; \
              see the error above for the violated precondition."
            .to_string(),
    };
    InapplicableReport {
        info,
        error: error.to_string(),
        explanation,
    }
}
