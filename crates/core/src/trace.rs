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
use crate::profile::instrumented_pass;
use simdize_engine::IsaLevel;
use simdize_telemetry::{self as telemetry, RequestTrace, TraceId};

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
    let pass = instrumented_pass(src)?;

    // Attribute the run's headline numbers. Policy, fusion rewrites
    // and cache hit/miss are tagged inside the pipeline; the tier the
    // pass's sweep dispatched to is tagged here.
    telemetry::tag("isa", IsaLevel::detect());
    telemetry::tag("opd", format!("{:.3}", pass.opd));
    telemetry::tag("opd.bound", format!("{:.3}", pass.opd_bound));
    telemetry::tag("speedup", format!("{:.2}", pass.speedup));
    telemetry::tag("verified", pass.verified);

    Ok(TraceOutcome {
        trace: scope.finish(None),
        verified: pass.verified,
        sweep_verified: pass.sweep_verified,
        sweep_jobs: pass.sweep_jobs,
        speedup: pass.speedup,
        opd: pass.opd,
        opd_bound: pass.opd_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PROFILE_SWEEP_SEEDS;

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
