//! End-to-end tests of non-unit strides (§7 future work): packs and
//! scatters in the reorganization graph, against the scalar oracle.

use simdize::{
    parse_program, LoopBuilder, LoopProgram, Policy, ReuseMode, ScalarType, Simdizer, VectorShape,
};
use simdize_suite::strided_loop;

/// Checks `p` under every policy × reuse × unroll configuration and
/// returns the default driver's report.
fn verify(p: &LoopProgram, seed: u64) -> simdize::Report {
    for policy in Policy::ALL {
        for reuse in [
            ReuseMode::None,
            ReuseMode::SoftwarePipeline,
            ReuseMode::PredictiveCommoning,
        ] {
            for unroll in [false, true] {
                let driver = Simdizer::new().policy(policy).reuse(reuse).unroll(unroll);
                let r = driver.evaluate(p, seed).unwrap_or_else(|e| {
                    panic!("{policy}/{reuse:?}/unroll={unroll} failed: {e}\n{p}");
                });
                assert!(
                    r.verified,
                    "{policy}/{reuse:?}/unroll={unroll} diverged:\n{p}"
                );
                assert!(
                    r.opd + 1e-9 >= r.lower_bound_opd,
                    "{policy}/{reuse:?}: under the bound"
                );
            }
        }
    }
    let r = Simdizer::new().evaluate(p, seed).unwrap();
    assert!(r.verified, "loop diverged:\n{p}");
    r
}

fn parsed(name: &str) -> LoopProgram {
    parse_program(&strided_loop(name)).unwrap()
}

#[test]
fn deinterleave_stride_two() {
    // out[i] = inter[2i] * inter[2i] + inter[2i+1] * inter[2i+1]
    // (the squared magnitude of interleaved complex data).
    let r = verify(&parsed("deinterleave_stride_two"), 1);
    assert!(r.speedup > 1.0, "speedup {}", r.speedup);
}

#[test]
fn interleave_stride_two_store() {
    // inter[2i+1] = x[i] + y[i+3]: a strided *store* merging into
    // existing interleaved data, with a misaligned stride-one input.
    verify(&parsed("interleave_stride_two_store"), 2);
}

#[test]
fn stride_four_and_residues() {
    // Every fourth element, with trip counts exercising all residues.
    for ub in 96u64..=100 {
        verify(&parsed(&format!("stride_four_ub{ub}")), ub);
    }
}

#[test]
fn mixed_strides_and_statements() {
    // Statement 1 de-interleaves, statement 2 interleaves, sharing an
    // input array at stride 1.
    verify(&parsed("mixed_strides_and_statements"), 9);
}

#[test]
fn strided_with_non_natural_alignment() {
    // Byte-odd base offsets fold into the permute patterns.
    verify(&parsed("strided_with_non_natural_alignment"), 4);
}

#[test]
fn u8_stride_two_pixels() {
    // Extracting one channel of interleaved two-channel bytes: 16 lanes.
    let r = verify(&parsed("u8_stride_two_pixels"), 5);
    assert!(r.stats.shifts > 0); // permutes are doing the packing
}

#[test]
fn runtime_aligned_streams_beside_a_pack() {
    // Only the strided array needs a compile-time alignment: the
    // zero-shift policy shifts the runtime-aligned streams around a
    // pack at offset 0, under the eq. 15 bound.
    let p = parse_program(
        "arrays { out: i32[600] @ ?; src: i32[1300] @ 4; y: i32[600] @ ?; }
         for i in 0..501 { out[i+1] = src[2*i+1] + y[i+2]; }",
    )
    .unwrap();
    for reuse in [
        ReuseMode::None,
        ReuseMode::SoftwarePipeline,
        ReuseMode::PredictiveCommoning,
    ] {
        for seed in 1..4 {
            let r = Simdizer::new().reuse(reuse).evaluate(&p, seed).unwrap();
            assert!(r.verified, "{reuse:?} seed {seed} diverged");
        }
    }
}

#[test]
fn strided_rejections_are_clean_errors() {
    let mut b = LoopBuilder::new(ScalarType::I32);
    let out = b.array("out", 4096, 0);
    let src = b.array("src", 8200, 0);
    b.stmt(out.at(0), src.load_strided(2, 0));
    let p = b.finish_runtime_trip().unwrap();
    let err = Simdizer::new().compile(&p).unwrap_err();
    assert!(err.to_string().contains("trip count"), "{err}");

    // Pack patterns are compile-time byte selections.
    let mut b = LoopBuilder::new(ScalarType::I32);
    let out = b.array("out", 64, 0);
    let src = b.array_runtime_align("src", 200);
    b.stmt(out.at(0), src.load_strided(2, 0));
    let err = Simdizer::new().compile(&b.finish(64).unwrap()).unwrap_err();
    assert!(err.to_string().contains("compile-time alignment"), "{err}");

    // A window wider than the memory image's guard padding.
    let mut b = LoopBuilder::new(ScalarType::I32);
    let out = b.array("out", 64, 0);
    let src = b.array("src", 600, 0);
    b.stmt(out.at(0), src.load_strided(8, 0));
    let p = b.finish(64).unwrap();
    assert!(matches!(
        simdize::ReorgGraph::build(&p, VectorShape::V16),
        Err(simdize::BuildGraphError::UnsupportedStride { stride: 8 })
    ));
}

#[test]
fn strided_reductions_match_the_scalar_loop() {
    // `acc[0] += x[2i] * x[2i+1]`: a dot product of pairs, whose packs
    // feed the reduction's accumulator like any other stream.
    for ty in ["i8", "i16", "i32", "i64"] {
        verify(&parsed(&format!("pair_dot_{ty}")), 3);
    }
}
