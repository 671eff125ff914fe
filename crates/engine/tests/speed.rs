//! Performance floors on 1M-element loops: the compiled kernel must
//! beat the interpreter by at least 5×, trace fusion must pay for
//! itself where the steady state is load/shift chains (≥ 1.3×), the
//! detected `std::arch` tier must beat the portable tier on the same
//! plan (≥ 1.5×), the v2 tier must stay within 2.5× of the AVX2 tier's
//! time, and software-pipelined reuse must cost no more than
//! recomputing (≤ 1.1× the time without reuse). Timing assertions are
//! only meaningful on optimized builds, so the whole test compiles away
//! in debug mode
//! (`cargo test --release` / `scripts/ci.sh` exercise it).
#![cfg(not(debug_assertions))]

use simdize_codegen::{generate, CodegenOptions, ReuseMode, SimdProgram};
use simdize_engine::{CompiledKernel, IsaLevel, KernelOptions, PredecodedKernel, SimdKernel};
use simdize_ir::{parse_program, VectorShape};
use simdize_reorg::{Policy, ReorgGraph};
use simdize_vm::{run_simd, MemoryImage, RunInput};
use std::time::Instant;

/// The paper's Figure 1 loop: two misaligned loads, one misaligned store.
const FIG1: &str = "arrays { a: i32[1000016] @ 0; b: i32[1000016] @ 4; c: i32[1000016] @ 8; }
                    for i in 0..1000000 { a[i+3] = b[i+1] + c[i+2]; }";
/// A misaligned copy is nothing but load/shift/store, so fusion sheds
/// the largest op fraction here.
const COPY3: &str = "arrays { a: i32[1000016] @ 0; b: i32[1000016] @ 12; }
                     for i in 0..1000000 { a[i] = b[i+3]; }";
/// Figure 1 with runtime alignments: the store-side shift keeps its
/// software-pipelined rotation through fusion.
const RUNTIME: &str = "arrays { a: i32[1000016] @ ?; b: i32[1000016] @ ?; c: i32[1000016] @ ?; }
                       for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }";
/// An `i32` multiply-accumulate: the misaligned dot product of
/// `loops/dot_product.loop`.
const DOT: &str = "arrays { acc: i32[4] @ 4; x: i32[1000016] @ 4; y: i32[1000016] @ 8; }
                   for i in 0..1000000 { acc[i] += x[i+1] * y[i+2]; }";

fn compile(source: &str, policy: Policy) -> (SimdProgram, MemoryImage, RunInput) {
    compile_reusing(source, policy, ReuseMode::SoftwarePipeline)
}

fn compile_reusing(
    source: &str,
    policy: Policy,
    reuse: ReuseMode,
) -> (SimdProgram, MemoryImage, RunInput) {
    let p = parse_program(source).unwrap();
    let g = ReorgGraph::build(&p, VectorShape::V16)
        .unwrap()
        .with_policy(policy)
        .unwrap();
    let prog = generate(&g, &CodegenOptions::default().reuse(reuse)).unwrap();
    let img = MemoryImage::with_seed(&p, VectorShape::V16, 2004);
    (prog, img, RunInput::with_ub(1_000_000))
}

/// Seconds of the fastest of three full passes, after one warm-up: a
/// slow episode on a shared box stretches one pass, rarely all three.
fn best_of_three<R>(mut pass: impl FnMut() -> R) -> f64 {
    pass();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn engine_vs_interpreter() {
    let (prog, mut img, input) = compile(FIG1, Policy::Zero);
    let kernel = CompiledKernel::compile(&prog, &img, &input).unwrap();
    let engine_t = best_of_three(|| kernel.run(&mut img).unwrap());
    let interp_t = best_of_three(|| run_simd(&prog, &mut img, &input).unwrap());
    let ratio = interp_t / engine_t;
    assert!(
        ratio >= 5.0,
        "compiled kernel only {ratio:.1}x faster than the interpreter \
         (engine {engine_t:.4} s, interp {interp_t:.4} s; need >= 5x)"
    );
}

/// Times what fusion alone buys: both bakes of a no-reuse plan run in
/// strips, so the difference is the ops fusion sheds (two loads and a
/// shift become one load). On the dispatched tier, because the portable
/// tier's lane arithmetic hides it on Figure 1.
fn fused_vs_unfused(name: &str, source: &str) {
    let (prog, mut img, input) = compile_reusing(source, Policy::Dominant, ReuseMode::None);
    let pre = PredecodedKernel::new(&prog).unwrap();
    let opts = KernelOptions::new();
    let fused = SimdKernel::lower_detected(&pre.bake(&img, &input, &opts).unwrap());
    let unfused = SimdKernel::lower_detected(&pre.bake(&img, &input, &opts.fuse(false)).unwrap());
    let fused_t = best_of_three(|| fused.run(&mut img).unwrap());
    let unfused_t = best_of_three(|| unfused.run(&mut img).unwrap());
    let ratio = unfused_t / fused_t;
    assert!(
        ratio >= 1.3,
        "{name}: fused plan only {ratio:.2}x faster than the unfused one \
         (fused {fused_t:.4} s, unfused {unfused_t:.4} s; need >= 1.3x)"
    );
}

fn detected_vs_portable_tier() {
    if IsaLevel::detect() == IsaLevel::Scalar {
        return; // no std::arch tier dispatched: both sides are the same code
    }
    let (prog, mut img, input) = compile(FIG1, Policy::Dominant);
    let portable = CompiledKernel::compile(&prog, &img, &input).unwrap();
    let detected = SimdKernel::lower_detected(&portable);
    let portable_t = best_of_three(|| portable.run(&mut img).unwrap());
    let detected_t = best_of_three(|| detected.run(&mut img).unwrap());
    let ratio = portable_t / detected_t;
    assert!(
        ratio >= 1.5,
        "{} tier only {ratio:.2}x faster than the portable tier \
         (detected {detected_t:.4} s, portable {portable_t:.4} s; need >= 1.5x)",
        detected.isa()
    );
}

/// The v2 tier runs the AVX2 tier's 128-bit operations, every
/// superinstruction 128 bits wide: on the same plan, at most 2.5× the
/// AVX2 tier's time.
fn v2_vs_avx2_tier(name: &str, source: &str) {
    if !IsaLevel::Avx2.available() {
        return; // no AVX2 tier to hold the v2 tier to
    }
    let (prog, mut img, input) = compile(source, Policy::Dominant);
    let kernel = CompiledKernel::compile(&prog, &img, &input).unwrap();
    let (v2, avx2) = (
        SimdKernel::lower(&kernel, IsaLevel::V2),
        SimdKernel::lower(&kernel, IsaLevel::Avx2),
    );
    let v2_t = best_of_three(|| v2.run(&mut img).unwrap());
    let avx2_t = best_of_three(|| avx2.run(&mut img).unwrap());
    let ratio = v2_t / avx2_t;
    assert!(
        ratio <= 2.5,
        "{name}: v2 tier takes {ratio:.2}x the AVX2 tier's time \
         (v2 {v2_t:.4} s, avx2 {avx2_t:.4} s; need <= 2.5x)"
    );
}

/// The software pipeline loads each chunk once and carries it into the
/// next iteration, which only pays while the carried register runs in
/// strips like everything else.
fn reuse_vs_recompute() {
    let time = |reuse| {
        let (prog, mut img, input) = compile_reusing(RUNTIME, Policy::Zero, reuse);
        let kernel = SimdKernel::compile(&prog, &img, &input).unwrap();
        best_of_three(|| kernel.run(&mut img).unwrap())
    };
    let (pipelined_t, plain_t) = (time(ReuseMode::SoftwarePipeline), time(ReuseMode::None));
    let ratio = pipelined_t / plain_t;
    assert!(
        ratio <= 1.1,
        "software pipelining takes {ratio:.2}x the time of no reuse \
         (pipelined {pipelined_t:.4} s, plain {plain_t:.4} s; need <= 1.1x)"
    );
}

/// One test, so the floors are timed one after another: the harness
/// would run separate tests on parallel threads, and a ratio of two
/// timings means little when the two sides had different core shares.
#[test]
fn engine_speed_floors() {
    engine_vs_interpreter();
    fused_vs_unfused("fig1", FIG1);
    fused_vs_unfused("copy3", COPY3);
    detected_vs_portable_tier();
    v2_vs_avx2_tier("fig1", FIG1);
    v2_vs_avx2_tier("dot_product", DOT);
    reuse_vs_recompute();
}
