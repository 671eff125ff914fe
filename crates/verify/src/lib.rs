//! simdize-verify — bounded-equivalence prover for generated, fused
//! and cached kernels.
//!
//! This crate is the repository's answer to "how do we *know* the
//! vectorizer is right, not just lucky on the seeds we happened to
//! test": a bounded model-checking tier that proves, by exhaustive
//! enumeration, byte-equivalence to the scalar oracle over
//!
//! * every realizable byte alignment per stream (all 16 candidate
//!   offsets, filtered to the multiples of the element width, crossed
//!   across streams),
//! * every trip count up to a bound (default 64), in both the
//!   runtime-`ub` and compile-time-known codegen forms,
//! * all four shift policies × reuse × unroll configurations, in both
//!   declared- and runtime-alignment modes, and
//! * a small structured value domain (seeded fills, lane-index ramps,
//!   single-hot bytes, boundary sentinels).
//!
//! Four Kani-style named harnesses run through one shared enumeration
//! driver with a work budget and parallel workers:
//!
//! * [`prover::HARNESS_NAMES`]`[0]` — `harness_codegen_equiv`: the
//!   generated program, interpreted, matches the scalar oracle byte
//!   for byte (guard padding included).
//! * `harness_fusion_equiv`: the baked, trace-fused plan, run by the
//!   engine on the portable tier, matches the oracle *and* reports the
//!   interpreter's exact `RunStats` (its counterexamples replay as
//!   `SIMDIZE_ISA=scalar simdize run --engine simd`).
//! * `harness_cache_coherence`: a kernel-cache hit is byte-identical
//!   to a fresh bake for the same `(program, input, layout, tier)` key.
//! * `harness_native_equiv`: the same function as the fusion harness
//!   at the host's detected ISA tier — the `std::arch` intrinsics —
//!   (its counterexamples replay as `simdize run --engine simd`).
//!
//! Counterexamples are shrunk to the minimal `(alignment, trip, seed)`
//! triple and printed as a replayable `simdize run` command line. The
//! prover also cross-checks the static-analysis tier: a deny-level
//! lint on a program the prover passed (or a prover violation on a
//! lint-clean program) is reported as an inconsistency.
//!
//! The crate is wired three ways: the `simdize verify` CLI subcommand,
//! a `verify` request in the server's `simdize-wire/v1` protocol, and
//! the seeded mutate-and-catch meta-test ([`MutationKind`]), which
//! injects a known-bad off-by-one into the generated code and asserts
//! the prover catches it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod mutate;
pub mod prover;
mod report;
mod shrink;

pub use domain::{Mode, Probe, TripStyle, VerifyOptions};
pub use mutate::{apply as apply_mutation, MutationKind};
pub use prover::{prove_loop, HARNESS_NAMES};
pub use report::{Counterexample, HarnessSummary, VerifyReport};

use simdize_ir::{parse_program, ParseProgramError};

/// Why [`prove_source`] could not even start the enumeration.
#[derive(Debug)]
pub enum ProveError {
    /// The loop source did not parse.
    Parse(ParseProgramError),
}

impl std::fmt::Display for ProveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProveError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for ProveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProveError::Parse(e) => Some(e),
        }
    }
}

/// Parses `source` and proves it under `opts`. The happy path behind
/// `simdize verify <loop>`.
pub fn prove_source(
    name: &str,
    source: &str,
    opts: &VerifyOptions,
) -> Result<VerifyReport, ProveError> {
    let program = parse_program(source).map_err(ProveError::Parse)?;
    Ok(prove_loop(name, &program, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = "arrays { a: i32[64] @ 0; b: i32[64] @ 4; c: i32[64] @ 8; }
                           for i in 0..40 { a[i+1] = b[i] + c[i+2]; }";

    #[test]
    fn quick_prove_passes_on_figure1() {
        let report = prove_source("figure1", FIGURE1, &VerifyOptions::quick()).unwrap();
        assert!(
            report.proved,
            "expected a proof, got:\n{}",
            report.render_text()
        );
        assert_eq!(report.violations_total, 0);
        assert!(report.units_compiled > 0);
        assert!(report.runs > 0);
        assert!(!report.budget_exhausted);
        assert_eq!(report.inconsistencies_total, 0);
    }

    #[test]
    fn mutate_and_catch_finds_shrunk_counterexample() {
        let mut opts = VerifyOptions::quick();
        opts.mutation = Some(MutationKind::SpliceOffByOne);
        let report = prove_source("figure1", FIGURE1, &opts).unwrap();
        assert!(!report.proved);
        assert!(report.violations_total > 0, "mutation must be caught");
        assert!(report.units_mutated > 0);
        let ce = report
            .violations
            .first()
            .expect("at least one shrunk counterexample");
        assert!(ce.replay.contains("simdize run"), "replay: {}", ce.replay);
        assert!(ce.shrink_steps > 0);
    }

    #[test]
    fn strided_and_reduction_loops_prove_via_known_trips() {
        // Neither compiles with a runtime trip count: a pack's partial
        // scatter and a reduction's residue mask are compile-time
        // patterns. Both must still prove — including the cache
        // harness, which moves to the known-trip pass when no
        // runtime-`ub` compilation exists — and a strided loop under
        // every configuration a unit-stride one gets.
        let strided = "arrays { out: i32[64] @ 0; inter: i32[160] @ 0; }
                       for i in 0..60 { out[i] = inter[2*i] + inter[2*i+1]; }";
        let report = prove_source("strided", strided, &VerifyOptions::quick()).unwrap();
        assert!(report.proved, "{}", report.render_text());
        assert_eq!(report.configs_enumerated, 6);
        assert!(report.harnesses.iter().all(|h| h.runs > 0));

        let reduction = "arrays { acc: i32[4] @ 0; x: i32[64] @ 4; }
                         for i in 0..4 { acc[i] += x[i+1]; }";
        let report = prove_source("reduction", reduction, &VerifyOptions::quick()).unwrap();
        assert!(report.proved, "{}", report.render_text());
        assert!(report.harnesses.iter().all(|h| h.runs > 0));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            prove_source("bad", "arrays {", &VerifyOptions::quick()),
            Err(ProveError::Parse(_))
        ));
    }
}
