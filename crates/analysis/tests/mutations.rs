//! Mutation tests: every lint must fire, with a correct structured
//! diagnostic, when its defect is injected into a known-good program.
//!
//! Each test compiles a program the analyzer accepts, asserts it is
//! clean, applies one surgical mutation through the VIR mutation API,
//! and asserts the expected lint fires in the expected section with a
//! rendered explanation.

use simdize_analysis::{analyze_program, AnalysisReport, AnalyzeOptions, Level, Lint, Section};
use simdize_codegen::{generate, Addr, CodegenOptions, ReuseMode, SExpr, SimdProgram, VInst};
use simdize_ir::{parse_program, VectorShape};
use simdize_reorg::{Policy, ReorgGraph};

/// The paper's Figure 1 shape: every reference misaligned differently,
/// so the generated code exercises shifts and both splices.
const FIG1: &str = "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
                    for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }";

fn compile(src: &str, policy: Policy, reuse: ReuseMode, unroll: bool) -> SimdProgram {
    let p = parse_program(src).unwrap();
    let g = ReorgGraph::build(&p, VectorShape::V16)
        .unwrap()
        .with_policy(policy)
        .unwrap();
    generate(&g, &CodegenOptions::default().reuse(reuse).unroll(unroll)).unwrap()
}

fn assert_clean(prog: &SimdProgram, opts: &AnalyzeOptions) {
    let report = analyze_program(prog, opts);
    assert!(
        report.is_clean(),
        "baseline program should be clean:\n{}",
        report.render_text()
    );
}

fn findings_of(report: &AnalysisReport, lint: Lint) -> Vec<simdize_analysis::Finding> {
    report
        .findings()
        .iter()
        .filter(|f| f.lint == lint)
        .cloned()
        .collect()
}

#[test]
fn skewed_shift_amount_breaks_store_bytes() {
    let mut prog = compile(FIG1, Policy::Zero, ReuseMode::None, false);
    let opts = AnalyzeOptions::new();
    assert_clean(&prog, &opts);

    // Skew the first constant vshiftpair amount in the body by one
    // byte: every lane now holds the neighbouring stream byte, which
    // constraint (C.2)/(C.3) checking must reject at the store.
    let skewed = prog.body_mut().iter_mut().find_map(|inst| match inst {
        VInst::ShiftPair { amt, .. } => {
            let a = amt.as_const()?;
            *amt = SExpr::c(if a < 16 { a + 1 } else { a - 1 });
            Some(())
        }
        _ => None,
    });
    assert!(skewed.is_some(), "body should contain a constant shift");

    let report = analyze_program(&prog, &opts);
    let hits = findings_of(&report, Lint::StoreByteMismatch);
    assert!(
        !hits.is_empty(),
        "expected a finding:\n{}",
        report.render_text()
    );
    let f = &hits[0];
    assert_eq!(f.level, Level::Deny);
    assert_eq!(f.section, Section::Body);
    assert!(
        f.register.is_some(),
        "store findings name the stored register"
    );
    assert!(
        f.message.contains("must come from the source stream bytes")
            || f.message.contains("neither the element's stream bytes"),
        "diagnostic should explain the provenance mismatch: {}",
        f.message
    );
    assert!(
        f.message.contains("vstore a["),
        "diagnostic should render the store operand: {}",
        f.message
    );
    assert!(report.deny_count() > 0);
}

#[test]
fn skewed_prologue_splice_clobbers_preceding_bytes() {
    let mut prog = compile(FIG1, Policy::Zero, ReuseMode::None, false);
    let opts = AnalyzeOptions::new();
    assert_clean(&prog, &opts);

    // Move the prologue partial-store boundary one byte down: the byte
    // just before the store's first element is now overwritten with
    // computed data instead of preserving the original memory.
    let skewed = prog.prologue_mut().iter_mut().find_map(|inst| match inst {
        VInst::Splice { point, .. } => {
            let p = point.as_const()?;
            assert!(p > 0, "prologue splice keeps a positive prefix");
            *point = SExpr::c(p - 1);
            Some(())
        }
        _ => None,
    });
    assert!(
        skewed.is_some(),
        "prologue should contain a constant splice"
    );

    let report = analyze_program(&prog, &opts);
    let hits = findings_of(&report, Lint::SpliceClobber);
    assert!(
        !hits.is_empty(),
        "expected a finding:\n{}",
        report.render_text()
    );
    let f = &hits[0];
    assert_eq!(f.level, Level::Deny);
    assert_eq!(f.section, Section::Prologue);
    assert!(
        f.message.contains("original memory byte"),
        "diagnostic should explain the clobber: {}",
        f.message
    );
}

#[test]
fn duplicated_load_breaks_exactly_once() {
    let mut prog = compile(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline, false);
    let opts = AnalyzeOptions::new()
        .reuse(ReuseMode::SoftwarePipeline)
        .memnorm(true);
    assert_clean(&prog, &opts);

    // Re-issue a chunk load the pipelined body already performs: the
    // §5 exactly-once guarantee is gone.
    let addr = prog
        .body()
        .iter()
        .find_map(|inst| match inst {
            VInst::LoadA { addr, .. } => Some(*addr),
            _ => None,
        })
        .expect("pipelined body should load chunks");
    let dst = prog.alloc_vreg();
    prog.body_mut().push(VInst::LoadA { dst, addr });

    let report = analyze_program(&prog, &opts);
    let hits = findings_of(&report, Lint::ChunkLoadedTwice);
    assert!(
        !hits.is_empty(),
        "expected a finding:\n{}",
        report.render_text()
    );
    let f = &hits[0];
    assert_eq!(f.level, Level::Deny);
    assert_eq!(f.section, Section::Body);
    assert!(
        f.message.contains("exactly once") || f.message.contains("already loaded"),
        "diagnostic should cite the exactly-once guarantee: {}",
        f.message
    );
}

#[test]
fn useless_and_chained_shifts_are_flagged() {
    let mut prog = compile(FIG1, Policy::Zero, ReuseMode::None, false);
    let opts = AnalyzeOptions::new();
    assert_clean(&prog, &opts);

    let src = prog
        .body()
        .iter()
        .find_map(|inst| inst.def())
        .expect("body defines registers");
    // A shift by zero is a no-op ...
    let noop = prog.alloc_vreg();
    // ... and a rotation of a rotation should be folded into one.
    let rot1 = prog.alloc_vreg();
    let rot2 = prog.alloc_vreg();
    prog.body_mut().extend([
        VInst::ShiftPair {
            dst: noop,
            a: src,
            b: src,
            amt: SExpr::c(0),
        },
        VInst::ShiftPair {
            dst: rot1,
            a: src,
            b: src,
            amt: SExpr::c(4),
        },
        VInst::ShiftPair {
            dst: rot2,
            a: rot1,
            b: rot1,
            amt: SExpr::c(4),
        },
    ]);

    let report = analyze_program(&prog, &opts);
    let hits = findings_of(&report, Lint::RedundantShift);
    assert!(
        hits.len() >= 2,
        "expected two findings:\n{}",
        report.render_text()
    );
    assert!(hits.iter().all(|f| f.level == Level::Warn));
    assert!(
        hits.iter().any(|f| f.message.contains("no-op")),
        "{}",
        report.render_text()
    );
    assert!(
        hits.iter()
            .any(|f| f.message.contains("fold into one vshiftpair")),
        "{}",
        report.render_text()
    );
    // Warn-level findings alone must not flip the deny gate.
    assert_eq!(report.deny_count(), 0);

    // The registry honours level overrides: denied, the same finding
    // gates; allowed, it disappears.
    let denied = analyze_program(
        &prog,
        &AnalyzeOptions::new().level(Lint::RedundantShift, Level::Deny),
    );
    assert!(denied.deny_count() >= 2);
    let allowed = analyze_program(
        &prog,
        &AnalyzeOptions::new().level(Lint::RedundantShift, Level::Allow),
    );
    assert!(findings_of(&allowed, Lint::RedundantShift).is_empty());
}

#[test]
fn unconsumed_load_is_dead() {
    let mut prog = compile(FIG1, Policy::Zero, ReuseMode::None, false);
    let opts = AnalyzeOptions::new();
    assert_clean(&prog, &opts);

    // Load a chunk of `b` that no store ever consumes.
    let dst = prog.alloc_vreg();
    prog.body_mut().push(VInst::LoadA {
        dst,
        addr: Addr::new(simdize_ir::ArrayId::from_index(1), 0),
    });

    let report = analyze_program(&prog, &opts);
    let hits = findings_of(&report, Lint::DeadLoad);
    assert!(
        !hits.is_empty(),
        "expected a finding:\n{}",
        report.render_text()
    );
    let f = &hits[0];
    assert_eq!(f.level, Level::Warn);
    assert_eq!(f.section, Section::Body);
    assert_eq!(f.register, Some(dst));
    assert!(
        f.message.contains("never reaches any store"),
        "diagnostic should explain the dead value: {}",
        f.message
    );
}

#[test]
fn rendered_report_shapes() {
    // The text and JSON renderings carry the structured fields through.
    let mut prog = compile(FIG1, Policy::Zero, ReuseMode::None, false);
    let dst = prog.alloc_vreg();
    prog.body_mut().push(VInst::LoadA {
        dst,
        addr: Addr::new(simdize_ir::ArrayId::from_index(1), 0),
    });
    let report = analyze_program(&prog, &AnalyzeOptions::new());
    let text = report.render_text();
    assert!(text.contains("warn[dead-load] body["), "{text}");
    let json = report.render_json();
    assert!(json.contains("\"lint\":\"dead-load\""), "{json}");
    assert!(json.contains("\"section\":\"body\""), "{json}");
}
