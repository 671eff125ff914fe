//! Differential tests for the engine's trace fusion pass: a fused
//! kernel must be byte-for-byte and stat-for-stat identical to its
//! unfused twin across the full policy × reuse × alignment matrix, on
//! the portable tier and on the host's detected one (fusion is a pure
//! execution-plan optimization — [`RunStats`] are fixed analytically
//! before it runs), and the fused plan for the paper's Figure 1 loop
//! is pinned by a golden trace snapshot.
//!
//! [`RunStats`]: simdize::RunStats

use simdize::{
    IsaLevel, KernelOptions, MemoryImage, Policy, PredecodedKernel, ReuseMode, RunInput,
    SimdKernel, SimdizeError, Simdizer, VectorShape,
};

const REUSES: [ReuseMode; 3] = [
    ReuseMode::None,
    ReuseMode::SoftwarePipeline,
    ReuseMode::PredictiveCommoning,
];

/// The same two alignment regimes the engine differential matrix uses:
/// compile-time misaligned arrays, and runtime alignments with a
/// runtime trip count.
const MISALIGNED: &str = "arrays { a: i32[256] @ 12; b: i32[256] @ 4; c: i32[256] @ 8; }
                          for i in 0..200 { a[i+1] = b[i+3] + c[i+2]; }";
const RUNTIME: &str = "arrays { a: i32[256] @ ?; b: i32[256] @ ?; c: i32[256] @ ?; }
                       for i in 0..ub { a[i+1] = b[i+3] + c[i+2]; }";

#[test]
fn fused_matches_unfused_across_policy_reuse_alignment_matrix() {
    let mut combos = 0;
    for (src, ub) in [(MISALIGNED, 200u64), (RUNTIME, 197)] {
        let program = simdize::parse_program(src).unwrap();
        for policy in Policy::ALL {
            for reuse in REUSES {
                let compiled = match Simdizer::new()
                    .policy(policy)
                    .reuse(reuse)
                    .compile(&program)
                {
                    Ok(c) => c,
                    // Some policies legitimately reject some loops
                    // (e.g. dominant-alignment needs a dominant one).
                    Err(SimdizeError::Policy(_)) => continue,
                    Err(e) => panic!("{policy}/{reuse:?}: {e}"),
                };
                let pre = PredecodedKernel::new(&compiled).unwrap();
                for seed in [2, 11, 2004] {
                    let input = RunInput::with_ub(ub);
                    let image = MemoryImage::with_seed(&program, VectorShape::V16, seed);
                    let fused = pre.bake(&image, &input, &KernelOptions::new()).unwrap();
                    let unfused = pre
                        .bake(&image, &input, &KernelOptions::new().fuse(false))
                        .unwrap();
                    // Stats are finalized before fusion, so the two
                    // plans must *promise* the same counts...
                    assert_eq!(
                        fused.stats(),
                        unfused.stats(),
                        "{policy}/{reuse:?} seed {seed}: baked stats diverged"
                    );
                    // ...and report them identically after running, on
                    // either tier.
                    for tier in [IsaLevel::Scalar, IsaLevel::detect()] {
                        let (mut fused_img, mut unfused_img) = (image.clone(), image.clone());
                        let got = SimdKernel::lower(&fused, tier).run(&mut fused_img).unwrap();
                        let want = SimdKernel::lower(&unfused, tier)
                            .run(&mut unfused_img)
                            .unwrap();
                        let label = format!("{policy}/{reuse:?} seed {seed} at {tier}");
                        assert_eq!(got, want, "{label}: run stats diverged");
                        assert_eq!(
                            fused_img.first_difference(&unfused_img),
                            None,
                            "{label}: memory diverged"
                        );
                    }
                    combos += 1;
                }
            }
        }
    }
    assert!(
        combos >= 36,
        "matrix too sparse: only {combos} combinations ran"
    );
}

#[test]
fn fusion_fires_on_every_policy_for_the_misaligned_loop() {
    // The matrix above proves fusion is *safe*; this proves it is not
    // vacuous. MISALIGNED is *relatively* aligned (offset plus index
    // cancel mod 16 for every reference) so it compiles shift-free;
    // this loop keeps all three streams at distinct alignments and
    // must produce load+shift chains for the pass to collapse.
    let program = simdize::parse_program(
        "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
         for i in 0..200 { a[i+1] = b[i+3] + c[i+2]; }",
    )
    .unwrap();
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 7);
    for policy in [Policy::Zero, Policy::Eager, Policy::Lazy] {
        let compiled = Simdizer::new()
            .policy(policy)
            .reuse(ReuseMode::SoftwarePipeline)
            .compile(&program)
            .unwrap();
        let pre = PredecodedKernel::new(&compiled).unwrap();
        let kernel = pre
            .bake(&img, &RunInput::with_ub(200), &KernelOptions::new())
            .unwrap();
        let stats = kernel.fusion_stats();
        assert!(stats.fused_loads > 0, "{policy}: no loads fused");
        assert!(stats.eliminated > 0, "{policy}: nothing eliminated");
    }
}

/// Pins the fused execution plan for the paper's Figure 1 loop under
/// the zero-shift policy with software pipelining — the fused twin of
/// `golden_disassembly_for_figure1_zero_sp` in `tests/engine.rs`, the
/// same `trace()` listing of the plan the strip driver executes. Every
/// `load`+`shift` chain collapses into a `vload.fused` at the shifted
/// byte offset, and the software pipeline's rotations of the raw load
/// registers die with the shifts: only the computed-value rotation
/// survives, as one seed lane in front of the sum's column, feeding the
/// store-side shift. The stripped pair body drops from 14 ops to 10,
/// and those 10 run as one rotation superinstruction: one dispatched
/// line per strip, its members listed under it.
#[test]
fn golden_trace_for_figure1_zero_sp() {
    let program = simdize::parse_program(
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
         for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
    )
    .unwrap();
    let compiled = Simdizer::new()
        .policy(Policy::Zero)
        .reuse(ReuseMode::SoftwarePipeline)
        .compile(&program)
        .unwrap();
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let kernel = PredecodedKernel::new(&compiled)
        .unwrap()
        .bake(&img, &RunInput::with_ub(100), &KernelOptions::new())
        .unwrap();
    let expected = "\
; plan: V=16 lanes=161 fused-loads=12 splat-ops=0 hoisted=0 eliminated=20
prologue:
  v0 = vload.fused arr1[base-12]
  v1 = vload.fused arr2[base-8]
  v2 = add(v0, v1)
  v1 = vload.fused arr1[base+4]
  v0 = vload.fused arr2[base+8]
  v3 = add(v1, v0)
  v0 = vshiftpair(v2, v3, 4)
  v2 = vload arr0[base+0]
  v1 = vsplice(v2, v0, 12)
  vstore arr0[base+0], v1
  v32 = v3
pair x12, strip:
  ; v32: 1 seed lane(s) of column v33
  fold add, 2+2 streams -> vshiftpair from v32 + vstore
    v65 = vload.fused arr1[base+20; +32/iter]
    v97 = vload.fused arr2[base+24; +32/iter]
    v129 = add(v65, v97)
    v97 = vload.fused arr1[base+36; +32/iter]
    v65 = vload.fused arr2[base+40; +32/iter]
    v33 = add(v97, v65)
    v65 = vshiftpair(v32, v129, 4)
    vstore arr0[base+16; +32/iter], v65
    v65 = vshiftpair(v129, v33, 4)
    vstore arr0[base+32; +32/iter], v65
epilogue:
  v3 = vload.fused arr1[base+388]
  v1 = vload.fused arr2[base+392]
  v0 = add(v3, v1)
  v1 = vload.fused arr1[base+404]
  v3 = vload.fused arr2[base+408]
  v2 = add(v1, v3)
  v3 = vshiftpair(v0, v2, 4)
  v2 = vload arr0[base+400]
  v0 = vsplice(v3, v2, 12)
  vstore arr0[base+400], v0
";
    assert_eq!(kernel.trace(), expected);
}
