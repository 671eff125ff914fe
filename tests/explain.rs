//! The explain layer's contract tests: the versioned JSON schema is
//! golden-pinned, every generated instruction is back-linked to at
//! least one decision, the OPD accounting sums exactly to the measured
//! stats, and the checked-in worked-example docs cannot rot out of
//! sync with the compiler.

use simdize::{parse_program, DiffConfig, Policy, ReuseMode, Simdizer, Target};
use simdize_explain::{render_json, render_markdown, ExplainReport, Explainer};
use simdize_suite::{assert_golden, sample, sample_loops};

const POLICIES: [(Policy, &str); 5] = [
    (Policy::Zero, "zero"),
    (Policy::Eager, "eager"),
    (Policy::Lazy, "lazy"),
    (Policy::Dominant, "dominant"),
    (Policy::Optimal, "optimal"),
];

const LOOPS: [&str; 4] = ["figure1", "runtime", "dot_product", "deinterleave"];

/// The measured run of every report here: the CLI's default seed and
/// runtime trip count.
fn measured() -> DiffConfig {
    DiffConfig::with_seed(2004)
}

fn explain(name: &str, policy: Policy) -> ExplainReport {
    let program = parse_program(&sample(name)).unwrap();
    Explainer::new(Simdizer::new().policy(policy), measured())
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
        "\"loop\":",
        "\"decisions\":",
        "\"program\":",
        "\"accounting\":",
        "\"stats\":",
        "\"verified\":",
        "\"engine\":",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    let inapp = render_json(&explain("runtime", Policy::Eager));
    assert!(inapp.contains("\"mode\":\"inapplicable\""));
    assert!(inapp.contains("\"explanation\":"));
    // A strided loop is a stream report like any other.
    let strided = render_json(&explain("deinterleave", Policy::Zero));
    assert!(strided.contains("\"mode\":\"stream\""));
    assert!(strided.contains("\"accounting\":"));
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
/// an error — the worked-example docs rely on this to cover the full
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

/// A report explains the program `Simdizer::compile` emits under the
/// same driver, across every option that changes that program — or
/// both refuse it.
#[test]
fn explained_program_is_the_compiled_program() {
    let reuses = [
        ReuseMode::None,
        ReuseMode::SoftwarePipeline,
        ReuseMode::PredictiveCommoning,
    ];
    for (name, source) in sample_loops() {
        let program = parse_program(&source).unwrap();
        for (policy, pname) in POLICIES {
            for reuse in reuses {
                for bits in 0..8 {
                    let (memnorm, unroll, reassoc) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                    let driver = Simdizer::new()
                        .policy(policy)
                        .reuse(reuse)
                        .memnorm(memnorm)
                        .unroll(unroll)
                        .reassociate(reassoc);
                    let case = format!(
                        "{name}/{pname}/{reuse:?} memnorm={memnorm} unroll={unroll} \
                         reassoc={reassoc}"
                    );
                    let explained = Explainer::new(driver, measured()).explain(&program);
                    match (driver.compile(&program), explained) {
                        (Ok(compiled), Ok(ExplainReport::Stream(r))) => {
                            assert_eq!(r.program, compiled, "{case}");
                            assert!(r.verified && r.engine_matches, "{case}");
                        }
                        (Err(_), Ok(ExplainReport::Inapplicable(_)) | Err(_)) => {}
                        (compiled, explained) => panic!(
                            "{case}: compile {:?}, explain {:?}",
                            compiled.map(|_| "a program"),
                            explained.map(|r| match r {
                                ExplainReport::Stream(_) => "stream",
                                ExplainReport::Inapplicable(_) => "inapplicable",
                            })
                        ),
                    }
                }
            }
        }
    }
}

/// The hardware-misaligned target has no reorganization to explain:
/// an inapplicable page, not a report on the aligned program.
#[test]
fn unaligned_target_explains_as_inapplicable() {
    let program = parse_program(&sample("figure1")).unwrap();
    let driver = Simdizer::new().target(Target::Unaligned);
    let report = Explainer::new(driver, measured())
        .explain(&program)
        .unwrap();
    let ExplainReport::Inapplicable(r) = report else {
        panic!("the unaligned target should explain as inapplicable");
    };
    assert!(r.error.contains("unaligned target"), "{}", r.error);
    assert!(!r.error.contains('\n'), "{}", r.error);
}

/// The head of `docs/worked-examples/README.md`; one table row per
/// sample loop follows.
const INDEX_HEAD: &str = "\
# Worked examples

Generated by `tests/explain.rs` — do not edit by hand; regenerate with
`UPDATE_GOLDEN=1 cargo test --test explain`.
Each page is the output of `simdize explain --markdown` for one
sample loop under one shift-placement policy: the decision trace,
the generated program with every instruction back-linked to the
decisions that produced it, and the operations-per-datum accounting
against the paper's §5.3 analytic lower bound. The tier-1 tests fail
if these pages drift from the compiler's actual behavior.

| loop | zero | eager | lazy | dominant | optimal |
|------|------|-------|------|----------|---------|
";

/// The checked-in worked examples — one page per sample loop in
/// `loops/` per policy, and their index — must match what the compiler
/// produces today. If an intentional pipeline change moves them,
/// re-verify and regenerate with `UPDATE_GOLDEN=1 cargo test --test
/// explain`.
#[test]
fn worked_example_docs_are_current() {
    let mut index = INDEX_HEAD.to_string();
    for (name, _) in sample_loops() {
        index += &format!("| `loops/{name}.loop` |");
        for (policy, pname) in POLICIES {
            let page = format!("{name}-{pname}.md");
            let path = format!("docs/worked-examples/{page}");
            let fresh = render_markdown(&explain(&name, policy));
            assert_golden(&path, &fresh, &format!("{path} is stale"));
            index += &format!(" [{pname}]({page}) |");
        }
        index.push('\n');
    }
    let path = "docs/worked-examples/README.md";
    assert_golden(path, &index, &format!("{path} is stale"));
}
