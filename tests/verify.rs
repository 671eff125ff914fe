//! Integration tests for the bounded-equivalence prover
//! (`simdize-verify`): the quick proof over the bundled loops, the
//! mutate-and-catch meta-test (an injected off-by-one must surface as
//! a shrunk, replayable counterexample), and a golden
//! `simdize-verify/v1` JSON report.

use simdize::{prove_source, MutationKind, VerifyOptions};
use simdize_suite::{assert_golden, sample};

fn quick(threads: usize) -> VerifyOptions {
    let mut opts = VerifyOptions::quick();
    opts.threads = threads;
    opts
}

#[test]
fn figure1_quick_proof_holds() {
    let report = prove_source("figure1", &sample("figure1"), &quick(2)).unwrap();
    assert!(report.proved, "{}", report.render_text());
    assert_eq!(report.violations_total, 0);
    assert_eq!(report.inconsistencies_total, 0);
    assert!(!report.budget_exhausted);
    // The quick domain still crosses policies, modes and alignments.
    assert!(report.units_compiled >= 10, "{}", report.units_compiled);
    assert!(report.points > 100, "{}", report.points);
    assert_eq!(report.harnesses.len(), 4);
    for h in &report.harnesses {
        assert!(h.runs > 0, "harness {} never ran", h.name);
        assert_eq!(h.violations, 0);
    }
    assert!(
        report
            .harnesses
            .iter()
            .any(|h| h.name == "harness_native_equiv"),
        "the intrinsics backend must be part of the quick proof"
    );
}

#[test]
fn runtime_alignment_loop_quick_proof_holds() {
    let report = prove_source("runtime", &sample("runtime"), &quick(2)).unwrap();
    assert!(report.proved, "{}", report.render_text());
    // Runtime alignments restrict the applicable policies, so some
    // enumerated units are skipped — but counted, not silently lost.
    assert!(report.units_compiled > 0);
}

#[test]
fn mutate_and_catch_shrinks_to_a_replayable_counterexample() {
    for kind in [MutationKind::SpliceOffByOne, MutationKind::ShiftOffByOne] {
        let mut opts = quick(2);
        opts.mutation = Some(kind);
        let report = prove_source("figure1", &sample("figure1"), &opts).unwrap();
        assert!(!report.proved, "mutation {kind:?} went uncaught");
        assert!(report.violations_total > 0, "{kind:?}");
        assert!(report.units_mutated > 0, "{kind:?} found no site");
        let ce = report
            .violations
            .first()
            .unwrap_or_else(|| panic!("{kind:?}: no shrunk counterexample"));
        // Every harness's replay is a `simdize run` command line the
        // CLI still has an engine for: the interpreter, or `simd` (with
        // the tier forced down where the harness ran the portable one).
        for ce in &report.violations {
            let command = ce.replay.split("  #").next().unwrap();
            let replays = command.contains("| simdize run -")
                || command.contains("| SIMDIZE_ISA=scalar simdize run -");
            assert!(replays, "{kind:?} replay not a command line: {}", ce.replay);
            assert!(
                !command.contains("--engine native"),
                "{kind:?}: {}",
                ce.replay
            );
            let engine = ce.harness != "harness_codegen_equiv";
            assert_eq!(
                command.ends_with(" --engine simd"),
                engine,
                "{kind:?}: {}",
                ce.replay
            );
        }
        assert!(
            ce.replay.contains("--policy") && ce.replay.contains("--reuse"),
            "{kind:?} replay lacks the configuration: {}",
            ce.replay
        );
        assert!(ce.shrink_steps > 0, "{kind:?}: shrinker never ran");
        assert!(ce.trip >= 1);
        // A wrong splice window is invisible to the lints, so the
        // prover/lint cross-check must flag the disagreement. A wrong
        // shift amount the abstract interpreter catches itself —
        // prover and lints agree, so no inconsistency is reported.
        if kind == MutationKind::SpliceOffByOne {
            assert!(
                report.inconsistencies_total > 0,
                "prover violation on lint-clean code must be an inconsistency"
            );
        }
    }
}

/// Pins the `simdize-verify/v1` JSON shape for the figure-1 quick
/// proof. `wall_ms` is the one nondeterministic field and is zeroed.
/// Regenerate after an intentional report change with
/// `UPDATE_GOLDEN=1 cargo test --test verify`.
#[test]
fn verify_report_json_golden() {
    let mut report = prove_source("figure1", &sample("figure1"), &quick(2)).unwrap();
    report.wall_ms = 0;
    assert_golden(
        "tests/golden/verify-figure1-quick.json",
        &report.render_json(),
        "verify-report drift",
    );
}
