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
//! The tier-1 set is every `loops/*.loop` sample plus a seeded corpus
//! of the §5.3 4 × 6 shape grid with compile-time and runtime
//! alignments, a runtime trip count, `i16` elements and reductions.
//! The `#[ignore]`d twin covers 4 seeds × 512 loops of the same grid
//! (`cargo test --release --test identity -- --ignored`).

use simdize::{
    parse_program, program_fingerprint, synthesize, BinOp, LoopBuilder, LoopProgram, Policy,
    ReuseMode, ScalarType, Simdizer, TripSpec, WorkloadSpec,
};
use simdize_prng::SplitMix64;
use simdize_suite::sample_loops;

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

#[test]
fn every_emitted_program_is_pinned() {
    let mut programs: Vec<LoopProgram> = sample_loops()
        .into_iter()
        .map(|(_, text)| parse_program(&text).unwrap())
        .collect();
    programs.extend(grid(34, 60));
    let (digest, compiled) = digest(&programs);
    assert_eq!(compiled, 3276, "compiles that succeeded");
    assert_eq!(
        digest, 0xf063_244d_5d73_180e,
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
