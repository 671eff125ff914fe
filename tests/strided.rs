//! End-to-end tests of the non-unit-stride extension (§7 future work):
//! the gather/scatter permute generator against the scalar oracle.

use simdize::{BinOp, Expr, LoopBuilder, LoopProgram, ScalarType, Simdizer, VectorShape};

fn verify(p: &LoopProgram, seed: u64) -> simdize::Report {
    let r = Simdizer::new().evaluate(p, seed).unwrap_or_else(|e| {
        panic!("strided loop failed: {e}\n{p}");
    });
    assert!(r.verified, "loop diverged:\n{p}");
    r
}

#[test]
fn deinterleave_stride_two() {
    // out[i] = inter[2i] * inter[2i] + inter[2i+1] * inter[2i+1]
    // (the squared magnitude of interleaved complex data).
    let mut b = LoopBuilder::new(ScalarType::I32);
    let out = b.array("out", 512, 0);
    let inter = b.array("inter", 1040, 8);
    let re = inter.load_strided(2, 0);
    let im = inter.load_strided(2, 1);
    b.stmt(out.at(0), re.clone() * re + im.clone() * im);
    let p = b.finish(500).unwrap();
    let r = verify(&p, 1);
    assert!(r.speedup > 1.0, "speedup {}", r.speedup);
}

#[test]
fn interleave_stride_two_store() {
    // inter[2i+1] = x[i] + y[i+3]: a strided *store* merging into
    // existing interleaved data, with a misaligned stride-one input.
    let mut b = LoopBuilder::new(ScalarType::I16);
    let inter = b.array("inter", 2100, 2);
    let x = b.array("x", 1040, 0);
    let y = b.array("y", 1040, 6);
    b.stmt(inter.at_strided(2, 1), x.load(0) + y.load(3));
    let p = b.finish(1000).unwrap();
    verify(&p, 2);
}

#[test]
fn stride_four_and_residues() {
    // Every fourth element, with trip counts exercising all residues.
    for ub in [96u64, 97, 98, 99, 100] {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let out = b.array("out", 128, 4);
        let src = b.array("src", 512, 12);
        b.stmt(out.at(1), src.load_strided(4, 2) * Expr::constant(3));
        let p = b.finish(ub).unwrap();
        verify(&p, ub);
    }
}

#[test]
fn mixed_strides_and_statements() {
    // Statement 1 de-interleaves, statement 2 interleaves, sharing an
    // input array at stride 1.
    let mut b = LoopBuilder::new(ScalarType::I16);
    let gains = b.array("gains", 600, 4);
    let packed = b.array("packed", 1200, 0);
    let left = b.array("left", 600, 2);
    let stereo = b.array("stereo", 1220, 6);
    b.stmt(left.at(0), packed.load_strided(2, 0) * gains.load(1));
    b.stmt(
        stereo.at_strided(2, 1),
        packed.load_strided(2, 1) + gains.load(0),
    );
    let p = b.finish(512).unwrap();
    verify(&p, 9);
}

#[test]
fn strided_with_non_natural_alignment() {
    // Byte-odd base offsets fold into the permute patterns.
    let mut b = LoopBuilder::new(ScalarType::I32);
    let out = b.array("out", 300, 3);
    let src = b.array("src", 700, 5);
    b.stmt(out.at(0), src.load_strided(2, 1) + Expr::constant(7));
    let p = b.finish(256).unwrap();
    verify(&p, 4);
}

#[test]
fn u8_stride_two_pixels() {
    // Extracting one channel of interleaved two-channel bytes: 16 lanes.
    let mut b = LoopBuilder::new(ScalarType::U8);
    let gray = b.array("gray", 1024, 0);
    let ga = b.array("ga", 2080, 1);
    b.stmt(gray.at(0), ga.load_strided(2, 0));
    let p = b.finish(1000).unwrap();
    let r = verify(&p, 5);
    assert!(r.stats.shifts > 0); // permutes are doing the packing
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

    // The paper's core pipeline refuses strided graphs explicitly.
    let p2 = {
        let mut b = LoopBuilder::new(ScalarType::I32);
        let out = b.array("out", 64, 0);
        let src = b.array("src", 200, 0);
        b.stmt(out.at(0), src.load_strided(2, 0));
        b.finish(64).unwrap()
    };
    let err = simdize::ReorgGraph::build(&p2, VectorShape::V16).unwrap_err();
    assert!(matches!(
        err,
        simdize::BuildGraphError::NonUnitStride { stride: 2 }
    ));
}

#[test]
fn strided_reductions_are_refused() {
    // `acc[0] += x[2i] * x[2i+1]`: the gather/scatter generator has no
    // reduction form, and storing the value element-wise would be wrong.
    let mut b = LoopBuilder::new(ScalarType::I32);
    let acc = b.array("acc", 16, 4);
    let x = b.array("x", 1100, 0);
    let product = Expr::binary(BinOp::Mul, x.load_strided(2, 0), x.load_strided(2, 1));
    b.reduce(acc.at(0), BinOp::Add, product);
    let p = b.finish(500).unwrap();
    let err = Simdizer::new().compile(&p).unwrap_err();
    assert!(err.to_string().contains("does not support reductions"), "{err}");
}
