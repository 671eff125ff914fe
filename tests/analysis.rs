//! The static-analysis tier, exercised end to end.
//!
//! Two halves:
//!
//! * a **corpus sweep**: every workload kernel and Figure-1 variant,
//!   compiled under every applicable policy × reuse mode × unroll
//!   setting (plus the strided and hardware-misaligned paths), must
//!   come out of the abstract interpreter with zero deny-level
//!   findings — the static counterpart of the differential sweeps;
//! * a **seeded mutation property**: random well-formed programs,
//!   randomly mutated at one instruction, must be caught by the
//!   structural verifier or the analyzer. Every case derives from its
//!   index, so a failing `case` number reproduces it exactly.

use simdize::{
    alpha_blend, analyze_program, dot_product, fir_filter, offset_saxpy, parse_program,
    rgba_to_gray, sum_abs_diff, synthesize, verify_program, Addr, AnalyzeOptions, ArrayId,
    LoopProgram, Policy, ReuseMode, SExpr, ScalarType, SimdProgram, SimdizeError, Simdizer, Target,
    TripSpec, VInst, WorkloadSpec,
};
use simdize_prng::SplitMix64;

/// Case-count multiplier: 1 normally, 8 under `--features fuzz`.
const SCALE: usize = if cfg!(feature = "fuzz") { 8 } else { 1 };

const REUSES: [ReuseMode; 3] = [
    ReuseMode::None,
    ReuseMode::SoftwarePipeline,
    ReuseMode::PredictiveCommoning,
];

/// The corpus: the paper's Figure 1 in several alignment flavours plus
/// every workload kernel (including reductions and a strided loop).
fn corpus() -> Vec<(&'static str, LoopProgram)> {
    let mut programs: Vec<(&'static str, LoopProgram)> = vec![
        (
            "fig1",
            parse_program(
                "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
                 for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }",
            )
            .unwrap(),
        ),
        (
            "fig1-runtime",
            parse_program(
                "arrays { a: i32[256] @ ?; b: i32[256] @ ?; c: i32[256] @ ?; }
                 for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }",
            )
            .unwrap(),
        ),
        (
            "multi-stmt",
            parse_program(
                "arrays { a: i32[300] @ 4; b: i32[300] @ 8; c: i32[300] @ 0; d: i32[300] @ 12; }
                 for i in 0..250 { a[i+1] = b[i+2] * 3; d[i] = b[i+2] + c[i+1]; }",
            )
            .unwrap(),
        ),
        (
            "i16-misaligned",
            parse_program(
                "arrays { a: i16[512] @ 2; b: i16[512] @ 6; c: i16[512] @ 0; }
                 for i in 0..400 { a[i+1] = b[i] + c[i+3]; }",
            )
            .unwrap(),
        ),
    ];
    programs.push(("fir", fir_filter(200, 3).0));
    programs.push(("alpha-blend", alpha_blend(200).0));
    programs.push(("offset-saxpy", offset_saxpy(200).0));
    programs.push(("dot-product", dot_product(200)));
    programs.push(("sum-abs-diff", sum_abs_diff(200)));
    programs.push(("rgba-to-gray", rgba_to_gray(200).0));
    programs
}

/// Zero deny findings over the whole corpus under every configuration
/// the pipeline accepts.
#[test]
fn corpus_is_deny_free_under_all_configs() {
    for (name, program) in corpus() {
        for policy in Policy::ALL {
            for reuse in REUSES {
                for unroll in [false, true] {
                    let driver = Simdizer::new().policy(policy).reuse(reuse).unroll(unroll);
                    let compiled = match driver.compile(&program) {
                        Ok(c) => c,
                        // Non-zero policies legitimately refuse loops
                        // with runtime alignments.
                        Err(SimdizeError::Policy(_)) => continue,
                        Err(e) => panic!("{name}/{policy:?}/{reuse:?}: {e}"),
                    };
                    let opts = AnalyzeOptions::new().memnorm(true).reuse(reuse);
                    let report = analyze_program(&compiled, &opts);
                    // Generated code must be deny-free; in practice it
                    // is warning-free too, which pins the lints against
                    // false positives.
                    assert!(
                        report.is_clean(),
                        "{name} {policy:?} {reuse:?} unroll={unroll}:\n{}",
                        report.render_text()
                    );
                }
            }
        }
        // SSE2-style hardware-misaligned target.
        let compiled = Simdizer::new()
            .target(Target::Unaligned)
            .compile(&program)
            .unwrap();
        let report = analyze_program(&compiled, &AnalyzeOptions::new().memnorm(true));
        assert!(
            report.is_clean(),
            "{name} unaligned target:\n{}",
            report.render_text()
        );
    }
}

/// The applicable single-instruction mutations for a compiled program.
/// Each provably breaks a property the analyzer or verifier owns.
fn mutate(prog: &mut SimdProgram, pick: u64) -> &'static str {
    let has_const_shift = prog
        .body()
        .iter()
        .any(|i| matches!(i, VInst::ShiftPair { amt, .. } if amt.as_const().is_some()));
    let has_prologue_splice = prog.prologue().iter().any(
        |i| matches!(i, VInst::Splice { point, .. } if point.as_const().is_some_and(|p| p > 0)),
    );
    let mut menu: Vec<&'static str> = vec!["store-undefined", "bad-perm"];
    if has_const_shift {
        menu.push("skew-shift");
    }
    if has_prologue_splice {
        menu.push("skew-splice");
    }
    let v = prog.shape().bytes() as i64;
    match menu[(pick % menu.len() as u64) as usize] {
        // An undefined register flows into memory: the verifier rejects
        // the use-before-def, and the analyzer sees undefined store
        // bytes.
        "store-undefined" => {
            let ghost = prog.alloc_vreg();
            prog.body_mut().push(VInst::StoreA {
                addr: Addr::new(ArrayId::from_index(0), 0),
                src: ghost,
            });
            "store-undefined"
        }
        // A permute selecting past both sources.
        "bad-perm" => {
            let src = prog.body().iter().find_map(|i| i.def()).unwrap_or_else(|| {
                prog.prologue().iter().find_map(|i| i.def()).expect("defs")
            });
            let dst = prog.alloc_vreg();
            prog.body_mut().push(VInst::Perm {
                dst,
                a: src,
                b: src,
                pattern: vec![2 * v as u8 + 7; v as usize],
            });
            "bad-perm"
        }
        // Rotate a stream by one extra byte: every store byte downstream
        // holds the neighbouring stream byte.
        "skew-shift" => {
            for inst in prog.body_mut() {
                if let VInst::ShiftPair { amt, .. } = inst {
                    if let Some(a) = amt.as_const() {
                        *amt = SExpr::c(if a < v { a + 1 } else { a - 1 });
                        break;
                    }
                }
            }
            "skew-shift"
        }
        // Shrink the prologue partial-store window: a byte before the
        // store's first element is clobbered.
        "skew-splice" => {
            for inst in prog.prologue_mut() {
                if let VInst::Splice { point, .. } = inst {
                    if let Some(p) = point.as_const() {
                        if p > 0 {
                            *point = SExpr::c(p - 1);
                            break;
                        }
                    }
                }
            }
            "skew-splice"
        }
        _ => unreachable!(),
    }
}

/// Any random well-formed program, mutated at a random instruction, is
/// caught by the structural verifier or the abstract interpreter.
#[test]
fn random_mutations_are_caught() {
    for case in 0..32 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x1147_0000 + case as u64);
        let spec = WorkloadSpec::new(
            rng.range_inclusive(1, 3) as usize,
            rng.range_inclusive(1, 4) as usize,
        )
        .elem(if rng.chance(0.5) {
            ScalarType::I32
        } else {
            ScalarType::I16
        })
        .trip(TripSpec::KnownInRange(117, 130))
        .runtime_align(rng.chance(0.3));
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(rng.next_u64()));

        let reuse = REUSES[rng.index(REUSES.len())];
        let driver = Simdizer::new().reuse(reuse).unroll(rng.chance(0.5));
        let mut compiled = driver
            .compile(&program)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        let opts = AnalyzeOptions::new().memnorm(true).reuse(reuse);
        verify_program(&compiled).unwrap_or_else(|e| panic!("case {case} baseline: {e}"));
        let base = analyze_program(&compiled, &opts);
        assert!(
            base.is_clean(),
            "case {case} baseline should be clean:\n{}",
            base.render_text()
        );

        let which = mutate(&mut compiled, rng.next_u64());
        let verifier_caught = verify_program(&compiled).is_err();
        let analyzer_caught = !analyze_program(&compiled, &opts).is_clean();
        assert!(
            verifier_caught || analyzer_caught,
            "case {case}: mutation `{which}` slipped past both the verifier and the analyzer"
        );
    }
}
