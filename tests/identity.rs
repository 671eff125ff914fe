//! Every emitted program, pinned by one number.
//!
//! Each test compiles a fixed set of loops under every driver
//! configuration — 5 policies × 3 reuse modes × MemNorm on/off ×
//! unroll on/off — and folds the [`program_fingerprint`] of each
//! result (or a hash of its error) into one `u64`, compared with a
//! constant. A change to the front half that is meant to leave the
//! emitted code alone (a faster pass, a pass moved into the generator)
//! must leave the constant alone; a change that means to alter the code
//! re-pins it and says why.
//!
//! The tier-1 set is every stride-one `loops/*.loop` sample plus a
//! seeded corpus of the §5.3 4 × 6 shape grid with compile-time and
//! runtime alignments, a runtime trip count, `i16` elements and
//! reductions. The non-unit-stride loops — `loops/deinterleave.loop` and
//! the loops of `tests/strided.rs` — are pinned apart, so a change to
//! packs and scatters shows as a change to their constants alone.
//! The `#[ignore]`d twin covers 4 seeds × 512 loops of the same grid
//! (`cargo test --release --test identity -- --ignored`).
//!
//! The back half is pinned the same way: every plan the engine bakes
//! from those programs — its listing ([`CompiledKernel::trace`]), its
//! fusion counts and events, its loop schedules and its run stats, or
//! the error text of a bake that fails — folds into one constant per
//! corpus. Each program is baked fused and unfused, on an image that
//! puts every runtime-aligned array at offset 0 and on a seeded one
//! that misaligns them. A change to baking, trace fusion or lowering
//! that is meant to be a pure speed-up must leave that constant alone.

use simdize::{
    parse_program, program_fingerprint, synthesize, BinOp, KernelOptions, LoopBuilder, LoopProgram,
    MemoryImage, Policy, PredecodedKernel, ReuseMode, RunInput, ScalarType, SimdProgram, Simdizer,
    TripSpec, VectorShape, WorkloadSpec,
};
use simdize_prng::SplitMix64;
use simdize_suite::{sample_loops, strided_loops};

const REUSE: [ReuseMode; 3] = [
    ReuseMode::None,
    ReuseMode::SoftwarePipeline,
    ReuseMode::PredictiveCommoning,
];

/// Folds one word into the running digest.
fn fold(acc: u64, word: u64) -> u64 {
    (acc.rotate_left(23) ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The digest of `programs` under every driver configuration, and how
/// many of those compiles succeeded.
fn digest(programs: &[LoopProgram]) -> (u64, usize) {
    let (mut acc, mut compiled) = (0xcbf2_9ce4_8422_2325u64, 0);
    for program in programs {
        for policy in Policy::ALL {
            for reuse in REUSE {
                for memnorm in [false, true] {
                    for unroll in [false, true] {
                        let driver = Simdizer::new()
                            .policy(policy)
                            .reuse(reuse)
                            .memnorm(memnorm)
                            .unroll(unroll);
                        acc = match driver.compile(program) {
                            Ok(simd) => {
                                compiled += 1;
                                fold(acc, program_fingerprint(&simd))
                            }
                            Err(e) => e
                                .to_string()
                                .bytes()
                                .fold(fold(acc, 0xE55), |h, b| fold(h, u64::from(b))),
                        };
                    }
                }
            }
        }
    }
    (acc, compiled)
}

/// Folds the bytes of `text` into the running digest.
fn fold_text(acc: u64, text: &str) -> u64 {
    text.bytes()
        .fold(fold(acc, text.len() as u64), |h, b| fold(h, u64::from(b)))
}

/// Folds every plan the engine bakes from `program` into `acc`: fused
/// and unfused, on an image with every runtime alignment at 0 and on
/// the image `seed` misaligns. Returns the digest and how many bakes
/// succeeded.
fn fold_bakes(mut acc: u64, program: &SimdProgram, seed: u64) -> (u64, usize) {
    let source = program.source();
    let input = RunInput::with_ub(source.trip().known().unwrap_or(997));
    let pre = match PredecodedKernel::new(program) {
        Ok(pre) => pre,
        Err(e) => return (fold_text(fold(acc, 0xBAD), &e.to_string()), 0),
    };
    let zeros = vec![0; source.arrays().len()];
    let images = [
        MemoryImage::with_offsets(source, VectorShape::V16, &zeros),
        MemoryImage::with_seed(source, VectorShape::V16, seed),
    ];
    let mut baked = 0;
    for image in &images {
        for fuse in [true, false] {
            match pre.bake(image, &input, &KernelOptions::new().fuse(fuse)) {
                Ok(kernel) => {
                    baked += 1;
                    acc = fold_text(acc, &kernel.trace());
                    acc = fold_text(acc, &format!("{:?}", kernel.fusion_stats()));
                    for event in kernel.fusion_events() {
                        acc = fold_text(acc, &event.to_string());
                    }
                    acc = fold_text(acc, &format!("{:?}", kernel.schedule()));
                    acc = fold_text(acc, &format!("{:?}", kernel.stats()));
                }
                Err(e) => acc = fold_text(fold(acc, 0xE55), &e.to_string()),
            }
        }
    }
    (acc, baked)
}

/// The digest of every plan baked from `programs`, each compiled under
/// every policy and reuse mode, with and without unrolling, and how
/// many bakes succeeded.
fn bake_digest(programs: &[LoopProgram]) -> (u64, usize) {
    let (mut acc, mut baked) = (0xcbf2_9ce4_8422_2325u64, 0);
    for (k, program) in programs.iter().enumerate() {
        for policy in Policy::ALL {
            for reuse in REUSE {
                for unroll in [false, true] {
                    let driver = Simdizer::new().policy(policy).reuse(reuse).unroll(unroll);
                    let Ok(simd) = driver.compile(program) else {
                        acc = fold(acc, 0xC0DE);
                        continue;
                    };
                    let (next, n) = fold_bakes(acc, &simd, k as u64);
                    (acc, baked) = (next, baked + n);
                }
            }
        }
    }
    (acc, baked)
}

/// The `k`-th loop of `bake-cold`'s corpus for `rng`'s seed: shape
/// `k mod 24` of the 4 × 6 grid, `i32`, trip in `[997, 1000]`.
fn bake_cold_loop(k: usize, rng: &mut SplitMix64) -> LoopProgram {
    let cell = k % 24;
    let spec =
        WorkloadSpec::new(1 + cell % 4, 1 + cell / 4).trip(TripSpec::KnownInRange(997, 1000));
    synthesize(&spec, rng)
}

/// `program` with its first statement turned into a `+=` reduction
/// onto the element it stored to.
fn with_reduction(program: &LoopProgram) -> LoopProgram {
    let mut b = LoopBuilder::new(program.elem());
    for decl in program.arrays() {
        b.declare(decl.clone());
    }
    for (k, s) in program.stmts().iter().enumerate() {
        if k == 0 {
            b.reduce(s.target, BinOp::Add, s.rhs.clone());
        } else {
            b.stmt(s.target, s.rhs.clone());
        }
    }
    b.finish_trip(program.trip()).unwrap()
}

/// The `k`-th loop of a seeded grid corpus: shape `k mod 24` of the
/// 4 × 6 (statements × loads) grid, and variant `k mod 5`: compile-time,
/// runtime alignments, runtime trip count, `i16` elements, or a
/// reduction (120 consecutive loops hold every pair once).
fn grid_loop(k: usize, rng: &mut SplitMix64) -> LoopProgram {
    let cell = k % 24;
    let spec =
        WorkloadSpec::new(1 + cell % 4, 1 + cell / 4).trip(TripSpec::KnownInRange(997, 1000));
    match k % 5 {
        0 => synthesize(&spec, rng),
        1 => synthesize(&spec.runtime_align(true), rng),
        2 => synthesize(&spec.trip(TripSpec::Runtime), rng),
        3 => synthesize(&spec.elem(ScalarType::I16), rng),
        _ => with_reduction(&synthesize(&spec, rng)),
    }
}

fn grid(seed: u64, n: usize) -> Vec<LoopProgram> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n).map(|k| grid_loop(k, &mut rng)).collect()
}

/// Whether every reference of `program` has stride one.
fn unit_stride(program: &LoopProgram) -> bool {
    program.all_refs().iter().all(|r| r.is_unit_stride())
}

/// The stride-one sample loops and the tier-1 grid.
fn unit_stride_set() -> Vec<LoopProgram> {
    let mut programs: Vec<LoopProgram> = sample_loops()
        .into_iter()
        .map(|(_, text)| parse_program(&text).unwrap())
        .filter(unit_stride)
        .collect();
    programs.extend(grid(34, 60));
    programs
}

/// The non-unit-stride sample loops and the loops of `tests/strided.rs`.
fn strided_set() -> Vec<LoopProgram> {
    sample_loops()
        .into_iter()
        .chain(strided_loops())
        .map(|(_, text)| parse_program(&text).unwrap())
        .filter(|p| !unit_stride(p))
        .collect()
}

#[test]
fn every_emitted_program_is_pinned() {
    let (digest, compiled) = digest(&unit_stride_set());
    assert_eq!(compiled, 3216, "compiles that succeeded");
    assert_eq!(
        digest, 0xb577_3730_882f_6465,
        "emitted programs changed ({compiled} compiled): {digest:#018x}"
    );
}

#[test]
#[ignore = "4 × 512 loops × 60 configurations; run in release"]
fn every_emitted_program_of_the_wide_corpus_is_pinned() {
    let digests: Vec<u64> = [1, 2, 3, 7]
        .into_iter()
        .map(|seed| digest(&grid(seed, 512)).0)
        .collect();
    assert_eq!(
        digests,
        [
            0xd2f4_7174_b2e4_aede,
            0x048c_06fb_61ab_b39d,
            0x277d_3e48_4c23_bb66,
            0x44c4_8a7e_1f11_9310,
        ],
        "emitted programs changed"
    );
}

#[test]
fn every_emitted_strided_program_is_pinned() {
    let (digest, compiled) = digest(&strided_set());
    assert_eq!(compiled, 900, "compiles that succeeded");
    assert_eq!(
        digest, 0x44e4_5a43_dcc0_d75c,
        "emitted programs changed ({compiled} compiled): {digest:#018x}"
    );
}

/// The strided entry point `benchmark/` still calls is the pipeline.
#[test]
fn generate_strided_is_the_pipeline() {
    for program in strided_set() {
        let shim = simdize::generate_strided(&program, VectorShape::V16).unwrap();
        let compiled = Simdizer::new().compile(&program).unwrap();
        assert_eq!(program_fingerprint(&shim), program_fingerprint(&compiled), "{program}");
    }
}

#[test]
fn baked_plans_are_unchanged() {
    let (digest, baked) = bake_digest(&unit_stride_set());
    assert_eq!(baked, 6432, "bakes that succeeded");
    assert_eq!(
        digest, 0xe086_f6df_c6ac_36d7,
        "baked plans changed ({baked} baked): {digest:#018x}"
    );
}

#[test]
fn baked_strided_plans_are_pinned() {
    let (digest, baked) = bake_digest(&strided_set());
    assert_eq!(baked, 1800, "bakes that succeeded");
    assert_eq!(
        digest, 0x219c_9502_3b3c_6647,
        "baked plans changed ({baked} baked): {digest:#018x}"
    );
}

#[test]
#[ignore = "4 × 512 loops, each baked four ways; run in release"]
fn baked_plans_of_the_bake_cold_corpus_are_unchanged() {
    let digests: Vec<u64> = [1u64, 2, 3, 7]
        .into_iter()
        .map(|seed| {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let driver = Simdizer::new();
            let mut acc = 0xcbf2_9ce4_8422_2325u64;
            for k in 0..512 {
                let program = bake_cold_loop(k, &mut rng);
                acc = match driver.compile(&program) {
                    Ok(simd) => fold_bakes(acc, &simd, seed.wrapping_add(k as u64)).0,
                    Err(e) => fold_text(fold(acc, 0xC0DE), &e.to_string()),
                };
            }
            acc
        })
        .collect();
    assert_eq!(
        digests,
        [
            0x0e68_7a5d_51d8_e036,
            0xa9c8_ec1d_05a6_1651,
            0x8e31_0475_f3a2_9178,
            0xea63_0665_46eb_e53e,
        ],
        "baked plans changed: {digests:#018x?}"
    );
}
