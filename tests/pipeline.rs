//! End-to-end pipeline tests spanning all crates: IR → reorganization →
//! policies → code generation → simulated execution → verification.

use simdize::{
    alpha_blend, fir_filter, generate, offset_saxpy, parse_program, run_differential,
    CodegenOptions, DiffConfig, Policy, ReorgGraph, ReuseMode, Scheme, Simdizer, VInst,
    VectorShape, MAX_EXPR_DEPTH,
};

const FIG1: &str = "arrays { a: i32[1024] @ 0; b: i32[1024] @ 0; c: i32[1024] @ 0; }
                    for i in 0..1000 { a[i+3] = b[i+1] + c[i+2]; }";

#[test]
fn all_schemes_verify_and_order_sensibly() {
    let p = parse_program(FIG1).unwrap();
    let mut naive_opd = f64::NEG_INFINITY;
    let mut best_opd = f64::INFINITY;
    for scheme in Scheme::all() {
        let r = Simdizer::new().scheme(scheme).evaluate(&p, 5).unwrap();
        assert!(r.verified, "{scheme}");
        if scheme.reuse == ReuseMode::None {
            naive_opd = naive_opd.max(r.opd);
        } else {
            best_opd = best_opd.min(r.opd);
        }
    }
    // Reuse exploitation must clearly beat the naive generator (the
    // paper reports more than a factor-of-2 gap at the extreme).
    assert!(
        best_opd < naive_opd,
        "reuse ({best_opd}) did not beat naive ({naive_opd})"
    );
}

#[test]
fn sp_and_pc_generate_equally_efficient_loops() {
    // The paper treats software pipelining and predictive commoning as
    // interchangeable ways to exploit the same reuse; our PC pass
    // converges to the SP code shape. Compare dynamic counts.
    for policy in Policy::ALL {
        let p = parse_program(FIG1).unwrap();
        let sp = Simdizer::new()
            .policy(policy)
            .reuse(ReuseMode::SoftwarePipeline)
            .evaluate(&p, 9)
            .unwrap();
        let pc = Simdizer::new()
            .policy(policy)
            .reuse(ReuseMode::PredictiveCommoning)
            .evaluate(&p, 9)
            .unwrap();
        assert_eq!(sp.stats.loads, pc.stats.loads, "{policy}");
        assert_eq!(sp.stats.shifts, pc.stats.shifts, "{policy}");
        assert_eq!(sp.stats.copies, pc.stats.copies, "{policy}");
    }
}

#[test]
fn policy_shift_ranking_on_dynamic_counts() {
    // Figure 11's middle components: dominant introduces no more
    // dynamic shift work than lazy, lazy no more than eager, and all
    // compile-time policies no more than runtime-restricted zero.
    let p = parse_program(
        "arrays { a: i32[1024] @ 0; b: i32[1024] @ 0; c: i32[1024] @ 0; d: i32[1024] @ 0; }
         for i in 0..1000 { a[i+3] = b[i+1] * c[i+2] + d[i+1]; }",
    )
    .unwrap();
    let shifts = |policy: Policy| {
        Simdizer::new()
            .policy(policy)
            .reuse(ReuseMode::SoftwarePipeline)
            .evaluate(&p, 2)
            .unwrap()
            .stats
            .shifts
    };
    let (z, e, l, d) = (
        shifts(Policy::Zero),
        shifts(Policy::Eager),
        shifts(Policy::Lazy),
        shifts(Policy::Dominant),
    );
    assert!(d <= l, "dominant {d} > lazy {l}");
    assert!(l <= e, "lazy {l} > eager {e}");
    assert!(e <= z, "eager {e} > zero {z}");
    assert!(d < z, "no improvement from placement at all");
}

#[test]
fn wider_and_narrower_vector_shapes() {
    // The pipeline is generic in V: run the same loop at V8 and V32.
    let p = parse_program(
        "arrays { a: i16[2048] @ 2; b: i16[2048] @ 6; c: i16[2048] @ 0; }
         for i in 0..2000 { a[i] = b[i+1] + c[i+3]; }",
    )
    .unwrap();
    for shape in [VectorShape::V8, VectorShape::V16, VectorShape::V32] {
        let report = Simdizer::new().shape(shape).evaluate(&p, 4).unwrap();
        assert!(report.verified, "{shape}");
        let lanes = shape.bytes() as f64 / 2.0;
        assert!(
            report.speedup <= lanes + 1e-9,
            "{shape}: speedup {} exceeds the lane count",
            report.speedup
        );
    }
    // More lanes must produce a higher speedup on this large loop.
    let s8 = Simdizer::new()
        .shape(VectorShape::V8)
        .evaluate(&p, 4)
        .unwrap();
    let s32 = Simdizer::new()
        .shape(VectorShape::V32)
        .evaluate(&p, 4)
        .unwrap();
    assert!(s32.speedup > s8.speedup);
}

#[test]
fn kernels_verify_under_their_natural_drivers() {
    let (fir, coeffs) = fir_filter(1000, 7);
    let coeff_values: Vec<i64> = (0..coeffs.len() as i64).collect();
    let r = Simdizer::new()
        .evaluate_with(&fir, &DiffConfig::with_seed(1).params(coeff_values))
        .unwrap();
    assert!(r.verified);
    assert!(r.speedup > 2.0, "fir speedup {}", r.speedup);

    let (blend, _) = alpha_blend(1920);
    let r = Simdizer::new()
        .evaluate_with(&blend, &DiffConfig::with_seed(2).params(vec![77, 179]))
        .unwrap();
    assert!(r.verified);
    assert!(r.speedup > 4.0, "blend speedup {}", r.speedup);

    let (saxpy, _) = offset_saxpy(1000);
    let r = Simdizer::new()
        .evaluate_with(&saxpy, &DiffConfig::with_seed(3).params(vec![-3]))
        .unwrap();
    assert!(r.verified);
}

#[test]
fn epilogue_residues_cover_all_cases() {
    // Sweep store misalignment × trip residue: every (ProSplice,
    // EpiLeftOver) combination of eqs. 8/14 must verify, including the
    // two-store epilogue (EpiLeftOver > V) and the empty one.
    for store_off in 0..4i64 {
        for residue in 0..4u64 {
            let ub = 96 + residue;
            let src = format!(
                "arrays {{ a: i32[128] @ 0; b: i32[128] @ 4; }}
                 for i in 0..{ub} {{ a[i+{store_off}] = b[i+1] * 3; }}"
            );
            let p = parse_program(&src).unwrap();
            for scheme in Scheme::contenders() {
                let r = Simdizer::new()
                    .scheme(scheme)
                    .evaluate(&p, ub)
                    .unwrap_or_else(|e| panic!("store_off={store_off} ub={ub} {scheme}: {e}"));
                assert!(r.verified, "store_off={store_off} ub={ub} {scheme}");
            }
        }
    }
}

#[test]
fn guard_boundary_is_exact() {
    // 3B = 12 for i32/V16: ub = 12 falls back, ub = 13 simdizes.
    let p = parse_program(
        "arrays { a: i32[64] @ 4; b: i32[64] @ 8; }
         for i in 0..ub { a[i] = b[i+1]; }",
    )
    .unwrap();
    let compiled = Simdizer::new().compile(&p).unwrap();
    for (ub, fallback) in [(12u64, true), (13, false)] {
        let out = run_differential(&compiled, &DiffConfig::with_seed(0).runtime_ub(ub)).unwrap();
        assert_eq!(out.stats.used_fallback, fallback, "ub = {ub}");
        assert!(out.verified);
    }
}

#[test]
fn generated_code_contains_no_unaligned_memory_ops() {
    // Structural check: every memory instruction in the generated code
    // is the truncating LoadA/StoreA — the machine has nothing else.
    let p = parse_program(FIG1).unwrap();
    let g = ReorgGraph::build(&p, VectorShape::V16)
        .unwrap()
        .with_policy(Policy::Dominant)
        .unwrap();
    let prog = generate(
        &g,
        &CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline),
    )
    .unwrap();
    let mut memops = 0;
    let mut visit = |insts: &[VInst]| {
        fn walk(insts: &[VInst], memops: &mut usize) {
            for inst in insts {
                match inst {
                    VInst::LoadA { .. } | VInst::StoreA { .. } => *memops += 1,
                    VInst::Guarded { body, .. } => walk(body, memops),
                    _ => {}
                }
            }
        }
        walk(insts, &mut memops);
    };
    visit(prog.prologue());
    visit(prog.body());
    visit(prog.epilogue());
    assert!(memops > 0);
}

#[test]
fn multi_statement_distinct_store_alignments() {
    // The §4.3 headline case: statements whose stores have all four
    // possible alignments, in one loop, sharing input arrays.
    let src = "arrays { w: i32[256] @ 0; x: i32[256] @ 0; y: i32[256] @ 0; z: i32[256] @ 0;
                        in0: i32[256] @ 0; in1: i32[256] @ 0; }
               for i in 0..200 {
                   w[i] = in0[i+1] + in1[i+2];
                   x[i+1] = in0[i+3] + in1[i];
                   y[i+2] = in0[i] + in1[i+1];
                   z[i+3] = in0[i+2] + in1[i+3];
               }";
    let p = parse_program(src).unwrap();
    for scheme in Scheme::contenders() {
        let r = Simdizer::new().scheme(scheme).evaluate(&p, 31).unwrap();
        assert!(r.verified, "{scheme}");
    }
}

#[test]
fn unaligned_target_verifies_and_skips_reorg() {
    use simdize::Target;
    // The hardware-misaligned machine needs no shifts at all; results
    // must still match the oracle, including residual iterations.
    for ub in [96u64, 97, 99, 102] {
        let src = format!(
            "arrays {{ a: i32[128] @ 4; b: i32[128] @ 8; c: i32[128] @ 12; }}
             for i in 0..{ub} {{ a[i+1] = b[i+3] + c[i+2]; }}"
        );
        let p = parse_program(&src).unwrap();
        let r = Simdizer::new()
            .target(Target::Unaligned)
            .evaluate(&p, ub)
            .unwrap();
        assert!(r.verified, "ub = {ub}");
        assert_eq!(r.stats.shifts, 0);
        assert_eq!(r.stats.loads, 0); // only unaligned accesses
        assert!(r.stats.unaligned_mem > 0);
    }
    // Runtime trip count and alignments work identically.
    let p = parse_program(
        "arrays { a: i16[4096] @ ?; b: i16[4096] @ ?; }
         for i in 0..ub { a[i] = b[i+5] * 3; }",
    )
    .unwrap();
    for ub in [50u64, 997, 1000] {
        let r = Simdizer::new()
            .target(Target::Unaligned)
            .evaluate_with(&p, &DiffConfig::with_seed(9).runtime_ub(ub))
            .unwrap();
        assert!(r.verified, "runtime ub = {ub}");
    }
}

#[test]
fn non_naturally_aligned_arrays_verify() {
    // §7 extension: base addresses that are not multiples of the
    // element size. Lane arithmetic must happen at natural offsets, so
    // policies quantize reconciliation targets; the byte-level shifts,
    // splices and truncating stores handle the rest.
    let src = "arrays { a: i32[256] @ 2; b: i32[256] @ 1; c: i32[256] @ 7; }
               for i in 0..200 { a[i+1] = b[i+2] + c[i]; }";
    let p = parse_program(src).unwrap();
    for scheme in Scheme::contenders() {
        let r = Simdizer::new()
            .scheme(scheme)
            .evaluate(&p, 77)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.verified, "{scheme}");
    }
    // Odd offsets on i16, mixed with a naturally aligned stream, and a
    // multi-statement loop.
    let src = "arrays { a: i16[512] @ 3; b: i16[512] @ 5; c: i16[512] @ 0;
                        x: i16[512] @ 9; y: i16[512] @ 1; }
               for i in 0..400 { a[i] = b[i+1] + c[i+2]; x[i+3] = y[i] * 5; }";
    let p = parse_program(src).unwrap();
    for scheme in Scheme::contenders() {
        let r = Simdizer::new()
            .scheme(scheme.reassoc(true))
            .evaluate(&p, 78)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.verified, "{scheme}+reassoc");
    }
    // The unaligned-hardware target is byte-exact by construction.
    let r = Simdizer::new()
        .target(simdize::Target::Unaligned)
        .evaluate(&p, 79)
        .unwrap();
    assert!(r.verified);
}

/// A loop whose expression is exactly [`MAX_EXPR_DEPTH`] levels deep —
/// a left-deep sum, right-nested parenthesized sums, nested calls —
/// compiles and runs verified on a 2 MiB thread (the default stack of
/// a spawned thread, and so of a server connection) in a debug build,
/// under the automatic policy and under zero- and lazy-shift, whose
/// shifts deepen the graph below each operator.
#[test]
fn a_loop_at_the_depth_limit_compiles_on_a_two_mib_thread() {
    let max = MAX_EXPR_DEPTH;
    let array = |k: usize| ["b", "c"][k % 2];
    let sum: Vec<String> = (0..max)
        .map(|k| format!("{}[i+{}]", array(k), k % 7))
        .collect();
    // A negation, then each level a sum and a pair of parentheses.
    let mut nested = String::from("-b[i]");
    for k in 0..(max - 2) / 2 {
        nested = format!("{}[i+{}] + ({nested})", array(k + 1), k % 5);
    }
    let mut calls = String::from("b[i]");
    for k in 0..max - 1 {
        calls = format!("{}(c[i+{}], {calls})", ["min", "max"][k % 2], k % 5);
    }
    for rhs in [sum.join(" + "), nested, calls] {
        let src = format!(
            "arrays {{ a: i32[1100] @ 0; b: i32[1100] @ 4; c: i32[1100] @ 8; }}
             for i in 0..1000 {{ a[i+1] = {rhs}; }}"
        );
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let p = parse_program(&src).unwrap();
                for driver in [
                    Simdizer::new(),
                    Simdizer::new().policy(Policy::Zero),
                    Simdizer::new().policy(Policy::Lazy),
                ] {
                    driver.compile(&p).unwrap();
                    assert!(driver.evaluate(&p, 5).unwrap().verified);
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}

/// A 200-term sum whose terms alternate between two offsets every three
/// terms. Under the optimal policy, shifting the running sum once costs
/// less than shifting the next three terms, so its shifts nest one
/// deeper per run of three and the generator, which expands a shift's
/// source once per register it combines, would take 2^66 registers: it
/// stops past `simdize::MAX_REGS` and refuses the program, in about a
/// second in a debug build. Lazy placement without reuse reconciles
/// every operator to the store's offset, so no shift's source holds
/// another shift and the same sum takes registers linear in its terms.
#[test]
fn nested_shifts_past_the_register_cap_are_refused() {
    let terms = 200;
    let rhs = (0..terms)
        .map(|k| format!("b[i+{}]", k / 3 % 2))
        .collect::<Vec<_>>()
        .join(" + ");
    let src = format!(
        "arrays {{ a: i32[1100] @ 0; b: i32[1100] @ 4; }}
         for i in 0..1000 {{ a[i] = {rhs}; }}"
    );
    let p = parse_program(&src).unwrap();
    let start = std::time::Instant::now();
    let refused = Simdizer::new().policy(Policy::Optimal).compile(&p);
    assert!(
        matches!(
            refused,
            Err(simdize::SimdizeError::Gen(
                simdize::GenCodeError::TooManyRegisters
            ))
        ),
        "{refused:?}"
    );
    assert!(start.elapsed().as_secs() < 30, "{:?}", start.elapsed());
    let lazy = Simdizer::new().policy(Policy::Lazy).reuse(ReuseMode::None);
    let regs = lazy.compile(&p).unwrap().vreg_count();
    assert!(regs <= 40 * terms, "{regs} registers for {terms} terms");
}
