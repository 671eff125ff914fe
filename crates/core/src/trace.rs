//! The `simdize trace` driver: one instrumented end-to-end pass over a
//! loop, collected under a request scope — the span timeline covering
//! every pipeline phase, the pipeline attributes (policy, dispatched
//! ISA, cache hit/miss, fusion rewrites, OPD vs its bound), and
//! the Chrome-trace export.
//!
//! The pass runs, in order: parse → reorg → codegen → analysis (the
//! static-analysis gate is always on here) → predecode (the engine's
//! once-per-program check) → bake (with the per-pass fusion spans
//! beneath it) → run + scalar verification → a small single-threaded
//! seed sweep that exercises the baked-kernel cache, the scratch-image
//! reuse and the per-worker accounting. The sweep is single-threaded on
//! purpose: with one worker the span tree, attribute set and cache
//! counters are deterministic for a fixed loop, which is what lets the
//! normalized JSON rendering be pinned by a golden test.
//!
//! [`traced_pass`] is that pass under whatever scope its caller holds —
//! the server's `trace` verb runs it under the request's own scope, so
//! the exported document is the request's; [`trace_source`] is the
//! CLI's form, which opens the scope itself.

use crate::error::SimdizeError;
use crate::simdizer::Simdizer;
use simdize_analysis::{analyze_program, AnalysisFailed};
use simdize_engine::{
    run_job, run_sweep_collect, IsaLevel, KernelCache, SweepJob, SweepOptions, SweepStats,
};
use simdize_ir::parse_program;
use simdize_telemetry::{self as telemetry, RequestTrace, TraceId};
use simdize_vm::{ExecError, VerifyError};

/// How many seeds the traced sweep covers. Small enough to finish
/// instantly, large enough that cache hits dominate misses on a
/// known-alignment loop.
pub const TRACE_SWEEP_SEEDS: u64 = 16;

/// What one traced pass measured.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Whether the instrumented run matched the scalar oracle byte for
    /// byte.
    pub verified: bool,
    /// Jobs of the trace sweep that verified.
    pub sweep_verified: usize,
    /// Total jobs in the trace sweep.
    pub sweep_jobs: usize,
    /// What the sweep's caches did.
    pub sweep_stats: SweepStats,
    /// Speedup of the instrumented run over the idealistic scalar
    /// baseline.
    pub speedup: f64,
    /// Achieved operations per datum of the instrumented run (§5).
    pub opd: f64,
    /// The operations-per-datum bound `simdize run` reports for this
    /// loop ([`Simdizer::opd_bound`]): §5.3's under the chosen policy.
    pub opd_bound: f64,
}

/// Traces one loop end to end under a fresh CLI-local [`TraceId`] and
/// returns the request-scoped collection with what the pass measured.
///
/// # Errors
///
/// Any [`SimdizeError`] the instrumented pipeline raises: parse
/// failures, graph/codegen errors, analysis rejections, or engine
/// faults (wrapped as [`SimdizeError::Verify`]). The partial trace is
/// discarded on error.
pub fn trace_source(src: &str) -> Result<(RequestTrace, TraceOutcome), SimdizeError> {
    let scope = telemetry::begin_request(TraceId::next(0), "trace");
    let outcome = traced_pass(src)?;
    Ok((scope.finish(None), outcome))
}

/// The traced pass under the caller's request scope: parse → compile →
/// the static-analysis gate (a deny-level finding fails the pass) →
/// predecode → bake → run → scalar oracle → diff, then the one-worker
/// seed sweep, with the headline numbers tagged onto the scope. The run
/// is `run_job` on a fresh cache, so it always bakes: every engine
/// phase shows up as a span.
///
/// # Errors
///
/// See [`trace_source`]; the caller's scope records the failure.
pub fn traced_pass(src: &str) -> Result<TraceOutcome, SimdizeError> {
    let exec_err = |e: ExecError| SimdizeError::from(VerifyError::from(e));
    let program = {
        let _span = telemetry::span("parse");
        parse_program(src)?
    };
    let simdizer = Simdizer::new();
    let compiled = simdizer.compile(&program)?;
    {
        let _span = telemetry::span("analysis");
        let report = analyze_program(&compiled, &simdizer.analyze_options());
        if report.deny_count() > 0 {
            return Err(AnalysisFailed::new(report).into());
        }
    }
    let job = SweepJob::new(compiled, 1, 256);
    let (run, ..) = run_job(&job, &KernelCache::new(1, 1)).map_err(exec_err)?;

    let jobs: Vec<SweepJob> = (0..TRACE_SWEEP_SEEDS)
        .map(|seed| SweepJob::new(job.program.clone(), seed, job.input.ub))
        .collect();
    let (outcomes, sweep_stats) = run_sweep_collect(&jobs, SweepOptions::new(1));
    let sweep_jobs = outcomes.len();
    let mut sweep_verified = 0;
    for outcome in outcomes {
        if outcome.map_err(exec_err)?.verified {
            sweep_verified += 1;
        }
    }

    let outcome = TraceOutcome {
        verified: run.verified,
        sweep_verified,
        sweep_jobs,
        sweep_stats,
        speedup: run.speedup(),
        opd: run.stats.opd(run.data_produced),
        opd_bound: simdizer.opd_bound(&program),
    };
    // Policy, fusion rewrites and cache hit/miss are tagged inside the
    // pipeline (the sweep's cache traffic is the last written); the
    // headline numbers and the tier both runs dispatched to are tagged
    // here.
    telemetry::tag("isa", IsaLevel::detect());
    telemetry::tag("opd", format!("{:.3}", outcome.opd));
    telemetry::tag("opd.bound", format!("{:.3}", outcome.opd_bound));
    telemetry::tag("speedup", format!("{:.2}", outcome.speedup));
    telemetry::tag("verified", outcome.verified);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn trace_collects_spans_and_pipeline_attrs() {
        let (trace, outcome) = trace_source(FIG1).unwrap();
        assert!(outcome.verified);
        assert_eq!(outcome.sweep_verified, outcome.sweep_jobs);
        assert_eq!(outcome.sweep_jobs, TRACE_SWEEP_SEEDS as usize);
        assert_eq!(outcome.sweep_stats.workers, 1);
        assert!(outcome.speedup > 1.0);
        assert_eq!(trace.verb, "trace");
        assert!(trace.error.is_none());
        let roots: Vec<&str> = trace.spans.iter().map(|n| n.name.as_str()).collect();
        for phase in [
            "parse",
            "reorg",
            "codegen",
            "analysis",
            "predecode",
            "bake",
            "run",
            "sweep",
            "sweep.job",
        ] {
            assert!(roots.contains(&phase), "missing phase {phase} in {roots:?}");
        }
        // Fusion passes nest under bake/fuse.
        let bake = trace.spans.iter().find(|n| n.name == "bake").unwrap();
        let fuse = bake.children.iter().find(|n| n.name == "fuse").unwrap();
        let passes: Vec<&str> = fuse.children.iter().map(|n| n.name.as_str()).collect();
        assert!(passes.contains(&"rewrite"));
        assert!(passes.contains(&"dce"));
        let attrs = &trace.attrs;
        assert_eq!(attrs["policy"], "dominant");
        assert_eq!(attrs["verified"], "true");
        assert!(attrs.contains_key("isa"));
        assert!(attrs.contains_key("fusion.rewrites"));
        // Known alignments + one worker: the sweep bakes once and hits
        // the cache on every remaining seed.
        assert_eq!(attrs["cache.misses"], "1");
        assert_eq!(attrs["cache.hits"], (TRACE_SWEEP_SEEDS - 1).to_string());
        assert_eq!(outcome.sweep_stats.cache_misses, 1);
        assert_eq!(outcome.sweep_stats.cache_hits, TRACE_SWEEP_SEEDS - 1);
        // OPD is achieved, the §5.3 bound is a bound.
        assert!(outcome.opd >= outcome.opd_bound);
        assert_eq!(attrs["opd"], format!("{:.3}", outcome.opd));
        assert_eq!(attrs["opd.bound"], format!("{:.3}", outcome.opd_bound));
        // The timeline carries every span completion.
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn trace_sums_consistently_with_its_own_tree() {
        // The Chrome export's per-event durations must sum to the span
        // tree's totals — both views come from the same records.
        let (trace, _) = trace_source(FIG1).unwrap();
        let tree_total: u64 = trace.spans.iter().map(|n| n.total_ns).sum();
        let events_total: u64 = trace
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
    fn traced_pass_collects_into_the_callers_scope() {
        let id = TraceId::next(42);
        let scope = telemetry::begin_request(id, "caller");
        let outcome = traced_pass(FIG1).unwrap();
        let trace = scope.finish(None);
        assert_eq!(trace.trace_id, id.to_string());
        assert_eq!(trace.verb, "caller");
        assert_eq!(trace.attrs["opd"], format!("{:.3}", outcome.opd));
        assert!(trace.spans.iter().any(|n| n.name == "sweep.job"));
    }
}
