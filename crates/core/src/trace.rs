//! The `simdize trace` driver: one request-scoped end-to-end pass over
//! a loop, producing a [`RequestTrace`] — the span timeline, the
//! pipeline attributes (policy, dispatched ISA, cache hit/miss, fusion
//! rewrites, OPD vs the §5.3 bound), and the Chrome-trace export.
//!
//! This is the request-scoped sibling of [`profile_source`]: the same
//! deterministic pipeline (parse → compile → predecode → bake → run →
//! scalar verification → a single-threaded seed sweep), but collected
//! through [`begin_request`](simdize_telemetry::begin_request) instead
//! of a process-wide session, exactly as the server's `trace` wire verb
//! collects it. With one sweep worker the span tree, attribute set and
//! cache counters are deterministic for a fixed loop, so the normalized
//! JSON rendering is pinned by a golden test.
//!
//! [`profile_source`]: crate::profile_source

use crate::error::SimdizeError;
use crate::profile::PROFILE_SWEEP_SEEDS;
use crate::simdizer::Simdizer;
use simdize_engine::{
    run_sweep_collect, IsaLevel, KernelOptions, PredecodedKernel, SweepJob, SweepOptions,
};
use simdize_ir::{parse_program, VectorShape};
use simdize_telemetry::{self as telemetry, RequestTrace, TraceId};
use simdize_vm::{run_scalar, ExecError, MemoryImage, RunInput, VerifyError};
use simdize_workloads::lower_bound_opd;

/// Everything one traced pass produced.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// The request-scoped collection: span timeline, attributes,
    /// renderable as `simdize-trace/v1` JSON or Chrome trace events.
    pub trace: RequestTrace,
    /// Whether the instrumented run matched the scalar oracle byte for
    /// byte.
    pub verified: bool,
    /// Jobs of the trace sweep that verified.
    pub sweep_verified: usize,
    /// Total jobs in the trace sweep.
    pub sweep_jobs: usize,
    /// Speedup of the instrumented run over the idealistic scalar
    /// baseline.
    pub speedup: f64,
    /// Achieved operations per datum of the instrumented run (§5).
    pub opd: f64,
    /// The §5.3 lower bound on operations per datum for this loop
    /// under the chosen policy.
    pub opd_bound: f64,
}

fn exec_err(e: ExecError) -> SimdizeError {
    SimdizeError::from(VerifyError::from(e))
}

/// Traces one loop end to end under a fresh CLI-local [`TraceId`].
///
/// # Errors
///
/// Any [`SimdizeError`] the instrumented pipeline raises; the partial
/// trace is discarded on error (the caller's own scope, if any, still
/// records the failure).
pub fn trace_source(src: &str) -> Result<TraceOutcome, SimdizeError> {
    trace_source_with(src, TraceId::next(0))
}

/// [`trace_source`] under a caller-supplied id — the server's `trace`
/// verb passes the wire request's id so the exported document and the
/// response envelope agree.
///
/// # Errors
///
/// See [`trace_source`].
pub fn trace_source_with(src: &str, id: TraceId) -> Result<TraceOutcome, SimdizeError> {
    let scope = telemetry::begin_request(id, "trace");
    let program = {
        let _span = telemetry::span("parse");
        parse_program(src)?
    };
    let simdizer = Simdizer::new().analyze(true);
    let policy = simdizer.policy_for(&program);
    let compiled = simdizer.compile(&program)?;
    let ub = program.trip().known().unwrap_or(256);
    let input = RunInput::with_ub(ub);

    let pre = PredecodedKernel::new(&compiled).map_err(exec_err)?;
    let mut engine_img = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let mut oracle_img = engine_img.clone();
    let kernel = pre
        .bake(&engine_img, &input, &KernelOptions::default())
        .map_err(exec_err)?;
    let stats = kernel.run(&mut engine_img).map_err(exec_err)?;
    let scalar_ideal =
        run_scalar(&program, &mut oracle_img, ub, &input.params).map_err(exec_err)?;
    let verified = engine_img.first_difference(&oracle_img).is_none();
    let speedup = scalar_ideal as f64 / stats.total() as f64;
    let data_produced = program.stmts().len() as u64 * ub;
    let opd = stats.opd(data_produced);
    let opd_bound = lower_bound_opd(&program, VectorShape::V16, policy);

    // Attribute the run's headline numbers. Policy, fusion rewrites
    // and cache hit/miss are tagged inside the pipeline; the tier the
    // sweep below dispatches to is tagged here.
    telemetry::tag("isa", IsaLevel::detect());
    telemetry::tag("opd", format!("{opd:.3}"));
    telemetry::tag("opd.bound", format!("{opd_bound:.3}"));
    telemetry::tag("speedup", format!("{speedup:.2}"));
    telemetry::tag("verified", verified);

    // A single-threaded seed sweep, as in the profile driver: one
    // worker keeps the cache hit/miss attribution deterministic.
    let jobs: Vec<SweepJob> = (0..PROFILE_SWEEP_SEEDS)
        .map(|seed| SweepJob::new(compiled.clone(), seed, ub))
        .collect();
    let (outcomes, _sweep_stats) = run_sweep_collect(&jobs, SweepOptions::new(1));
    let sweep_jobs = outcomes.len();
    let mut sweep_verified = 0;
    for outcome in outcomes {
        if outcome.map_err(exec_err)?.verified {
            sweep_verified += 1;
        }
    }

    Ok(TraceOutcome {
        trace: scope.finish(None),
        verified,
        sweep_verified,
        sweep_jobs,
        speedup,
        opd,
        opd_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn trace_collects_spans_and_pipeline_attrs() {
        let outcome = trace_source(FIG1).unwrap();
        assert!(outcome.verified);
        assert_eq!(outcome.sweep_verified, outcome.sweep_jobs);
        assert_eq!(outcome.trace.verb, "trace");
        assert!(outcome.trace.error.is_none());
        let roots: Vec<&str> = outcome
            .trace
            .spans
            .iter()
            .map(|n| n.name.as_str())
            .collect();
        for phase in ["parse", "reorg", "codegen", "analysis", "bake", "run", "sweep"] {
            assert!(roots.contains(&phase), "missing phase {phase} in {roots:?}");
        }
        let attrs = &outcome.trace.attrs;
        assert_eq!(attrs["policy"], "dominant");
        assert_eq!(attrs["verified"], "true");
        assert!(attrs.contains_key("isa"));
        assert!(attrs.contains_key("fusion.rewrites"));
        // Known alignments + one worker: 1 miss, 15 hits.
        assert_eq!(attrs["cache.misses"], "1");
        assert_eq!(
            attrs["cache.hits"],
            (PROFILE_SWEEP_SEEDS - 1).to_string()
        );
        // OPD is achieved, the §5.3 bound is a bound.
        assert!(outcome.opd >= outcome.opd_bound);
        assert_eq!(attrs["opd"], format!("{:.3}", outcome.opd));
        assert_eq!(attrs["opd.bound"], format!("{:.3}", outcome.opd_bound));
        // The timeline carries every span completion.
        assert!(!outcome.trace.events.is_empty());
    }

    #[test]
    fn trace_sums_consistently_with_its_own_tree() {
        // The Chrome export's per-event durations must sum to the span
        // tree's totals — both views come from the same records.
        let outcome = trace_source(FIG1).unwrap();
        let tree_total: u64 = outcome.trace.spans.iter().map(|n| n.total_ns).sum();
        let events_total: u64 = outcome
            .trace
            .events
            .iter()
            .filter(|e| !e.path.contains('/'))
            .map(|e| e.ns)
            .sum();
        assert_eq!(tree_total, events_total);
    }

    #[test]
    fn trace_propagates_parse_errors_and_discards_scope() {
        assert!(matches!(
            trace_source("garbage"),
            Err(SimdizeError::Parse(_))
        ));
        // The dropped scope restored this thread cleanly. (The global
        // enabled flag is not asserted here — sibling tests may hold
        // their own scopes concurrently.)
        assert!(telemetry::current_context().is_none());
    }

    #[test]
    fn trace_uses_the_supplied_id() {
        let id = TraceId::next(42);
        let outcome = trace_source_with(FIG1, id).unwrap();
        assert_eq!(outcome.trace.trace_id, id.to_string());
    }
}
