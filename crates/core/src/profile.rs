//! The `simdize profile` driver: one instrumented end-to-end pass over
//! a loop, producing a [`TelemetryReport`] whose span tree covers every
//! pipeline phase.
//!
//! The pass runs, in order: parse → reorg → codegen → analysis (the
//! static-analysis gate is always on here) → predecode → bake (with the
//! per-pass fusion spans beneath it) → run + scalar verification → a
//! small single-threaded seed sweep that exercises the baked-kernel
//! cache, the scratch-image reuse and the per-worker accounting. The
//! sweep is single-threaded on purpose: with one worker the cache
//! hit/miss counters and the span tree are deterministic for a fixed
//! loop, which is what lets the JSON rendering be pinned by a golden
//! test (timings normalized to zero).

use crate::error::SimdizeError;
use crate::simdizer::Simdizer;
use simdize_engine::{
    run_sweep_collect, KernelOptions, PredecodedKernel, SweepJob, SweepOptions, SweepStats,
};
use simdize_ir::{parse_program, VectorShape};
use simdize_telemetry::{self as telemetry, TelemetryReport};
use simdize_vm::{run_scalar, ExecError, MemoryImage, RunInput, VerifyError};
use simdize_workloads::lower_bound_opd;

/// How many seeds the profiling sweep covers. Small enough to finish
/// instantly, large enough that cache hits dominate misses on a
/// known-alignment loop.
pub const PROFILE_SWEEP_SEEDS: u64 = 16;

/// Everything one profiling pass produced.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// The collected telemetry: span tree plus engine metrics.
    pub report: TelemetryReport,
    /// Whether the single instrumented run matched the scalar oracle
    /// byte for byte.
    pub verified: bool,
    /// Jobs of the profiling sweep that verified.
    pub sweep_verified: usize,
    /// Total jobs in the profiling sweep.
    pub sweep_jobs: usize,
    /// What the sweep's caches did.
    pub sweep_stats: SweepStats,
    /// Speedup of the instrumented run over the idealistic scalar
    /// baseline (the paper's OPD terms).
    pub speedup: f64,
}

/// What the one instrumented pass measured. [`profile_source`] and
/// [`trace_source_with`](crate::trace_source_with) each wrap it in
/// their own collector — a session, a request scope — and add their
/// own tags.
pub(crate) struct InstrumentedPass {
    pub verified: bool,
    pub speedup: f64,
    pub opd: f64,
    pub opd_bound: f64,
    pub sweep_verified: usize,
    pub sweep_jobs: usize,
    pub sweep_stats: SweepStats,
}

/// The pass both drivers instrument: parse → compile with the analysis
/// gate on → predecode → bake → run → scalar oracle → diff, then the
/// one-worker seed sweep. The bake is deliberately uncached and builds
/// the disassembly — this is the path whose every phase must show up
/// as a span — so it does not go through `run_job`.
pub(crate) fn instrumented_pass(src: &str) -> Result<InstrumentedPass, SimdizeError> {
    let exec_err = |e: ExecError| SimdizeError::from(VerifyError::from(e));
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

    let jobs: Vec<SweepJob> = (0..PROFILE_SWEEP_SEEDS)
        .map(|seed| SweepJob::new(compiled.clone(), seed, ub))
        .collect();
    let (outcomes, sweep_stats) = run_sweep_collect(&jobs, SweepOptions::new(1));
    let sweep_jobs = outcomes.len();
    let mut sweep_verified = 0;
    for outcome in outcomes {
        if outcome.map_err(exec_err)?.verified {
            sweep_verified += 1;
        }
    }

    Ok(InstrumentedPass {
        verified,
        speedup: scalar_ideal as f64 / stats.total() as f64,
        opd: stats.opd(program.stmts().len() as u64 * ub),
        opd_bound: lower_bound_opd(&program, VectorShape::V16, policy),
        sweep_verified,
        sweep_jobs,
        sweep_stats,
    })
}

/// Profiles one loop end to end and returns the telemetry plus a
/// verification summary.
///
/// # Errors
///
/// Any [`SimdizeError`] the instrumented pipeline raises: parse
/// failures, graph/codegen errors, analysis rejections, or engine
/// faults (wrapped as [`SimdizeError::Verify`]).
pub fn profile_source(src: &str) -> Result<ProfileOutcome, SimdizeError> {
    let mut session = telemetry::session();
    let pass = instrumented_pass(src)?;
    Ok(ProfileOutcome {
        report: session.finish(),
        verified: pass.verified,
        sweep_verified: pass.sweep_verified,
        sweep_jobs: pass.sweep_jobs,
        sweep_stats: pass.sweep_stats,
        speedup: pass.speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn profile_covers_every_pipeline_phase() {
        let outcome = profile_source(FIG1).unwrap();
        assert!(outcome.verified);
        assert_eq!(outcome.sweep_verified, outcome.sweep_jobs);
        assert_eq!(outcome.sweep_jobs, PROFILE_SWEEP_SEEDS as usize);
        assert!(outcome.speedup > 1.0);
        let roots: Vec<&str> = outcome
            .report
            .spans
            .iter()
            .map(|n| n.name.as_str())
            .collect();
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
        let bake = outcome
            .report
            .spans
            .iter()
            .find(|n| n.name == "bake")
            .unwrap();
        let fuse = bake.children.iter().find(|n| n.name == "fuse").unwrap();
        let passes: Vec<&str> = fuse.children.iter().map(|n| n.name.as_str()).collect();
        assert!(passes.contains(&"rewrite"));
        assert!(passes.contains(&"dce"));
        // Known alignments + one worker: the sweep bakes once and hits
        // the cache on every remaining seed.
        let counters = &outcome.report.metrics.counters;
        assert_eq!(counters["sweep.kernel_cache.miss"], 1);
        assert_eq!(
            counters["sweep.kernel_cache.hit"],
            PROFILE_SWEEP_SEEDS - 1
        );
        assert_eq!(outcome.sweep_stats.workers, 1);
    }

    #[test]
    fn profile_propagates_parse_errors() {
        assert!(matches!(
            profile_source("garbage"),
            Err(SimdizeError::Parse(_))
        ));
    }
}
