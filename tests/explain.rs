//! The explain layer's contract tests: the versioned JSON schema is
//! golden-pinned, every generated instruction is back-linked to at
//! least one decision, the OPD accounting sums exactly to the measured
//! stats, and the checked-in worked-example docs cannot rot out of
//! sync with the compiler.

use simdize::{parse_program, Policy};
use simdize_explain::{render_json, render_markdown, ExplainReport, Explainer};
use simdize_suite::{assert_golden, repo, sample};

const POLICIES: [(Policy, &str); 5] = [
    (Policy::Zero, "zero"),
    (Policy::Eager, "eager"),
    (Policy::Lazy, "lazy"),
    (Policy::Dominant, "dominant"),
    (Policy::Optimal, "optimal"),
];

const LOOPS: [&str; 4] = ["figure1", "runtime", "dot_product", "deinterleave"];

fn explain(name: &str, policy: Policy) -> ExplainReport {
    let program = parse_program(&sample(name)).unwrap();
    Explainer::new()
        .policy(policy)
        .explain(&program)
        .unwrap_or_else(|e| panic!("{name}/{}: {e}", policy.name()))
}

/// Pins the `simdize-explain/v1` JSON documents for Figure 1 under all
/// five policies, byte for byte. If an intentional pipeline change
/// shifts a decision or a count, re-verify and regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test explain`.
#[test]
fn figure1_json_golden() {
    for (policy, pname) in POLICIES {
        let json = render_json(&explain("figure1", policy));
        assert_golden(
            &format!("tests/golden/explain-figure1-{pname}.json"),
            &json,
            &format!("golden drift for figure1/{pname}"),
        );
    }
}

/// The schema discriminants the v1 contract promises, independent of
/// the golden bytes.
#[test]
fn json_schema_fields() {
    let json = render_json(&explain("figure1", Policy::Dominant));
    assert!(json.starts_with("{\"schema\":\"simdize-explain/v1\",\"mode\":\"stream\""));
    for key in [
        "\"loop\":", "\"decisions\":", "\"program\":", "\"accounting\":", "\"stats\":",
        "\"verified\":", "\"engine\":",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    let inapp = render_json(&explain("runtime", Policy::Eager));
    assert!(inapp.contains("\"mode\":\"inapplicable\""));
    assert!(inapp.contains("\"explanation\":"));
    let strided = render_json(&explain("deinterleave", Policy::Zero));
    assert!(strided.contains("\"mode\":\"strided\""));
    assert!(strided.contains("\"model_opd\":"));
}

/// Every instruction of every stream report is back-linked to at least
/// one decision — the tentpole's coverage guarantee.
#[test]
fn every_instruction_is_backlinked() {
    for name in LOOPS {
        for (policy, pname) in POLICIES {
            let ExplainReport::Stream(r) = explain(name, policy) else {
                continue;
            };
            for section in &r.sections {
                for inst in &section.insts {
                    assert!(
                        !inst.links.is_empty(),
                        "{name}/{pname}: `{}` in {} has no decision links",
                        inst.text,
                        section.name
                    );
                }
            }
            assert!(r.verified, "{name}/{pname}");
            assert!(r.engine_matches, "{name}/{pname}");
        }
    }
}

/// The accounting rows sum *exactly* to the engine's measured total
/// for every loop × policy — no operation goes unattributed.
#[test]
fn accounting_covers_every_op() {
    for name in LOOPS {
        for (policy, pname) in POLICIES {
            let ExplainReport::Stream(r) = explain(name, policy) else {
                continue;
            };
            let sum: u64 = r.accounting.rows.iter().map(|row| row.contribution).sum();
            assert_eq!(sum, r.accounting.total, "{name}/{pname}");
            assert_eq!(sum, r.stats.total(), "{name}/{pname}");
            // Rows with operations must carry a decision attribution
            // (unaligned_mem is pure hardware cost and exempt).
            for row in &r.accounting.rows {
                if row.count > 0 && row.class != "unaligned_mem" {
                    assert!(
                        !row.links.is_empty(),
                        "{name}/{pname}: row `{}` unattributed",
                        row.class
                    );
                }
            }
        }
    }
}

/// Inapplicable (loop, policy) pairs produce an explanation page, not
/// an error — the docs generator relies on this to cover the full
/// loop × policy matrix.
#[test]
fn inapplicable_is_a_page_not_an_error() {
    for (policy, _) in &POLICIES[1..] {
        let report = explain("runtime", *policy);
        let ExplainReport::Inapplicable(r) = report else {
            panic!("runtime/{} should be inapplicable", policy.name());
        };
        assert!(r.error.contains("zero-shift"), "{}", r.error);
        assert!(r.explanation.contains("§4.4"), "{}", r.explanation);
    }
    // Zero-shift is the one policy that does apply (§4.4).
    assert!(matches!(
        explain("runtime", Policy::Zero),
        ExplainReport::Stream(_)
    ));
}

/// The checked-in worked examples must match what the compiler
/// produces today (the in-process twin of `scripts/gen-docs.sh
/// --check`).
#[test]
fn worked_example_docs_are_current() {
    for name in LOOPS {
        for (policy, pname) in POLICIES {
            let path = repo(&format!("docs/worked-examples/{name}-{pname}.md"));
            let checked_in = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing {path}: {e} (run scripts/gen-docs.sh)"));
            let fresh = render_markdown(&explain(name, policy));
            assert_eq!(
                checked_in, fresh,
                "{path} is stale; run scripts/gen-docs.sh"
            );
        }
    }
}
