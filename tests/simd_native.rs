//! Differential tests for the engine's instruction tiers: every
//! available ISA tier of `SimdKernel` must be byte-for-byte and
//! stat-for-stat identical to the `simdize-vm` interpreter
//! (`run_simd`, the reference semantics) and byte-for-byte identical
//! to the scalar loop (`run_scalar`, the oracle), across the full
//! policy × alignment × trip matrix and every shipped sample loop —
//! including the 16-bit `halfword.loop`.

use simdize::{
    run_scalar, run_simd, Addr, ArrayId, IsaLevel, KernelOptions, MemoryImage, Policy,
    PredecodedKernel, ReuseMode, RunInput, RunStats, Schedule, SectionSchedule, SequentialReason,
    SimdKernel, SimdizeError, Simdizer, VInst, VectorShape,
};
use std::collections::BTreeSet;

/// Every ISA tier the host can actually execute: always `Scalar`; on
/// x86_64 `V2` exactly when the CPU has SSSE3 and SSE4.1, plus `Avx2`
/// when it has AVX2 too; elsewhere only `Scalar`.
fn host_tiers() -> Vec<IsaLevel> {
    let tiers: Vec<IsaLevel> = IsaLevel::ALL
        .into_iter()
        .filter(|t| t.available())
        .collect();
    assert!(tiers.contains(&IsaLevel::Scalar));
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        tiers.contains(&IsaLevel::V2),
        is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1"),
        "v2 is there exactly when its probe passes"
    );
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(tiers, [IsaLevel::Scalar]);
    tiers
}

const REUSES: [ReuseMode; 3] = [
    ReuseMode::None,
    ReuseMode::SoftwarePipeline,
    ReuseMode::PredictiveCommoning,
];

/// Compile-time misaligned and runtime-aligned regimes (paper §4.1 and
/// §4.4), mirroring `tests/engine.rs` so the two engines face the same
/// matrix.
const MISALIGNED: &str = "arrays { a: i32[256] @ 12; b: i32[256] @ 4; c: i32[256] @ 8; }
                          for i in 0..200 { a[i+1] = b[i+3] + c[i+2]; }";
const RUNTIME: &str = "arrays { a: i32[256] @ ?; b: i32[256] @ ?; c: i32[256] @ ?; }
                       for i in 0..ub { a[i+1] = b[i+3] + c[i+2]; }";

/// [`check_tiers`], after holding the interpreter itself to the scalar
/// loop `compiled` was generated from (wherever that loop stays inside
/// its arrays: the matrix also runs trips only the guard padding makes
/// safe).
fn check_all_tiers(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    ub: u64,
    seed: u64,
    label: &str,
) -> (Schedule, RunStats) {
    let input = RunInput::with_ub(ub);
    let mut interp_img = MemoryImage::with_seed(program, VectorShape::V16, seed);
    let mut scalar_img = interp_img.clone();
    run_simd(compiled, &mut interp_img, &input).unwrap();
    if run_scalar(program, &mut scalar_img, ub, &input.params).is_ok() {
        assert_eq!(
            interp_img.first_difference(&scalar_img),
            None,
            "{label}: interpreter vs oracle"
        );
    }
    check_tiers(program, compiled, ub, seed, label)
}

/// Runs every host tier against the interpreter; returns the bake's
/// schedule (the same on every tier) and the stats all of them agreed
/// on.
fn check_tiers(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    ub: u64,
    seed: u64,
    label: &str,
) -> (Schedule, RunStats) {
    let (schedule, stats, _) = check_bake(program, compiled, ub, seed, label, KernelOptions::new());
    (schedule, stats)
}

/// [`check_tiers`] for a bake with `opts`; also returns the bake's plan
/// listing.
fn check_bake(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    ub: u64,
    seed: u64,
    label: &str,
    opts: KernelOptions,
) -> (Schedule, RunStats, String) {
    check_input(program, compiled, &RunInput::with_ub(ub), seed, label, opts)
}

/// [`check_bake`] for a loop with runtime parameters.
fn check_input(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    input: &RunInput,
    seed: u64,
    label: &str,
    opts: KernelOptions,
) -> (Schedule, RunStats, String) {
    let mut interp_img = MemoryImage::with_seed(program, VectorShape::V16, seed);
    let kernel = PredecodedKernel::new(compiled)
        .unwrap()
        .bake(&interp_img, input, &opts)
        .unwrap();
    let want = run_simd(compiled, &mut interp_img, input).unwrap();
    let schedule = kernel.schedule();
    for tier in host_tiers() {
        let lowered = SimdKernel::lower(&kernel, tier);
        assert_eq!(lowered.isa(), tier);
        assert_eq!(
            lowered.schedule(),
            schedule,
            "{label}/{tier}: schedule depends on the tier"
        );
        let mut simd_img = MemoryImage::with_seed(program, VectorShape::V16, seed);
        let got = lowered.run(&mut simd_img).unwrap();
        assert_eq!(got, want, "{label}/{tier}: stats diverged");
        assert_eq!(
            simd_img.first_difference(&interp_img),
            None,
            "{label}/{tier}: memory diverged"
        );
    }
    (schedule, want, kernel.trace())
}

#[test]
fn simd_backend_matches_interpreter_across_policy_reuse_alignment_matrix() {
    let mut combos = 0;
    for (src, ubs) in [
        (MISALIGNED, &[200u64][..]),
        (RUNTIME, &[1u64, 9, 197, 256][..]),
    ] {
        let program = simdize::parse_program(src).unwrap();
        for policy in Policy::ALL {
            for reuse in REUSES {
                let compiled = match Simdizer::new()
                    .policy(policy)
                    .reuse(reuse)
                    .compile(&program)
                {
                    Ok(c) => c,
                    Err(SimdizeError::Policy(_)) => continue,
                    Err(e) => panic!("{policy}/{reuse:?}: {e}"),
                };
                for &ub in ubs {
                    check_all_tiers(
                        &program,
                        &compiled,
                        ub,
                        2004,
                        &format!("{policy}/{reuse:?}/ub={ub}"),
                    );
                    combos += 1;
                }
            }
        }
    }
    assert!(
        combos >= 20,
        "matrix too sparse: only {combos} combinations ran"
    );
}

#[test]
fn simd_backend_matches_on_every_sample_loop() {
    for (name, ub) in [
        ("figure1.loop", 1000u64),
        ("runtime.loop", 777),
        ("dot_product.loop", 1000),
        ("deinterleave.loop", 500),
        ("halfword.loop", 1800),
    ] {
        let path = format!("{}/loops/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        let program = simdize::parse_program(&src).unwrap();
        for policy in Policy::ALL {
            let compiled = match Simdizer::new().policy(policy).compile(&program) {
                Ok(c) => c,
                Err(SimdizeError::Policy(_)) => continue,
                Err(e) => panic!("{name}/{policy}: {e}"),
            };
            check_all_tiers(&program, &compiled, ub, 7, &format!("{name}/{policy}"));
        }
    }
}

/// The 16-bit sample must actually exercise the halfword domain: eight
/// realizable byte offsets per stream and i16 lane products that wrap
/// mod 2^16 (the paths the intrinsics tiers lower to pmullw/vmulq.i16).
#[test]
fn halfword_sample_covers_the_i16_offset_domain() {
    let path = format!("{}/loops/halfword.loop", env!("CARGO_MANIFEST_DIR"));
    let program = simdize::parse_program(&std::fs::read_to_string(path).unwrap()).unwrap();
    let graph = simdize::ReorgGraph::build(&program, VectorShape::V16).unwrap();
    // B = V/elem = 8 halfword lanes ⇒ 8 realizable byte offsets per stream.
    assert_eq!(graph.blocking_factor(), 8, "i16 ⇒ 8 lanes per V16 chunk");
    check_all_tiers(
        &program,
        &Simdizer::new().compile(&program).unwrap(),
        1800,
        13,
        "halfword",
    );
}

/// The strip driver's width (`STRIP` in `crates/engine/src/native/strip.rs`,
/// private on purpose). The tests below only use it to aim trip counts
/// and dependence distances at its boundaries; the coverage assertion
/// in the matrix fails if it drifts.
const STRIP: u64 = 32;

/// A loop without a pair loop whose body a memory dependence keeps
/// sequential.
const SEQUENTIAL: Schedule = Schedule {
    pair: SectionSchedule::Sequential(SequentialReason::NoLoop),
    body: SectionSchedule::Sequential(SequentialReason::MemoryDependence),
};

/// Strip transitions: the loop sections run `STRIP−1`, `STRIP`,
/// `STRIP+1` and `2·STRIP+1` iterations — a short only strip, an exact
/// one, a full strip plus a one-lane remainder, two plus one — under
/// every policy, reuse mode and host tier. The bounded prover never
/// leaves the first strip (64 elements, 16 in `--quick`), so this
/// matrix is the coverage for everything past it.
#[test]
fn strip_boundaries_match_interpreter_across_policy_reuse_tier_matrix() {
    let program = simdize::parse_program(
        "arrays { a: i32[600] @ 12; b: i32[600] @ 4; c: i32[600] @ 8; }
         for i in 0..ub { a[i+1] = b[i+3] + c[i+2]; }",
    )
    .unwrap();
    let targets = [STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1];
    // B = 4 lanes: a body-only steady loop runs about ub/4 iterations,
    // a two-way unrolled pair loop about ub/8.
    let ubs: BTreeSet<u64> = targets
        .iter()
        .flat_map(|n| (4 * n - 4..=4 * n + 8).chain(8 * n - 8..=8 * n + 16))
        .collect();
    let mut stripped = BTreeSet::new();
    for policy in Policy::ALL {
        for reuse in REUSES {
            let compiled = match Simdizer::new()
                .policy(policy)
                .reuse(reuse)
                .compile(&program)
            {
                Ok(c) => c,
                Err(SimdizeError::Policy(_)) => continue,
                Err(e) => panic!("{policy}/{reuse:?}: {e}"),
            };
            for &ub in &ubs {
                let label = format!("{policy}/{reuse:?}/ub={ub}");
                let (schedule, stats) = check_all_tiers(&program, &compiled, ub, 31, &label);
                // A pair loop leaves the body at most one iteration,
                // so a strip-scheduled body is the whole steady loop.
                if schedule.pair == SectionSchedule::Strip {
                    stripped.insert(stats.steady_iterations / 2);
                }
                if schedule.body == SectionSchedule::Strip {
                    stripped.insert(stats.steady_iterations);
                }
            }
        }
    }
    for n in targets {
        assert!(
            stripped.contains(&n),
            "no strip-scheduled loop ran {n} iterations"
        );
    }
}

/// Compiles `src` without reuse (so no register is carried and only
/// memory decides the schedule), redirects every access on array
/// `from` to array `to`, and checks all tiers. The front end refuses
/// loops that load an array they store, so aliased streams — which the
/// backend must still get right for any `SimdProgram` it is handed —
/// are built by retargeting a legal loop's VIR; the interpreter
/// running the same VIR stays the reference.
fn aliased_schedule(src: &str, (from, to): (usize, usize), label: &str) -> Schedule {
    let (program, compiled) = aliased(src, (from, to));
    let ub = program.trip().known().unwrap();
    check_tiers(&program, &compiled, ub, 5, label).0
}

/// A source loop and the program compiled from it.
type Compiled = (simdize::LoopProgram, simdize::SimdProgram);

/// `src` compiled without reuse, every access on array `from` then
/// redirected to array `to` ([`aliased_schedule`]).
fn aliased(src: &str, (from, to): (usize, usize)) -> Compiled {
    fn retarget(insts: &mut [VInst], from: ArrayId, to: ArrayId) {
        for inst in insts {
            match inst {
                VInst::LoadA { addr, .. }
                | VInst::LoadU { addr, .. }
                | VInst::StoreA { addr, .. }
                | VInst::StoreU { addr, .. }
                    if addr.array == from =>
                {
                    addr.array = to;
                }
                VInst::Guarded { body, .. } => retarget(body, from, to),
                _ => {}
            }
        }
    }
    let program = simdize::parse_program(src).unwrap();
    let mut compiled = Simdizer::new()
        .reuse(ReuseMode::None)
        .compile(&program)
        .unwrap();
    let (from, to) = (ArrayId::from_index(from), ArrayId::from_index(to));
    retarget(compiled.prologue_mut(), from, to);
    retarget(compiled.body_mut(), from, to);
    if let Some(pair) = compiled.body_pair_mut() {
        retarget(pair, from, to);
    }
    retarget(compiled.epilogue_mut(), from, to);
    (program, compiled)
}

fn strips(schedule: Schedule) -> bool {
    schedule.pair == SectionSchedule::Strip || schedule.body == SectionSchedule::Strip
}

/// An in-place loop strips only once its dependence distance leaves
/// the strip window, whichever way the dependence points; either way
/// every tier matches the interpreter.
#[test]
fn in_place_loops_strip_only_past_the_dependence_window() {
    // `a[i] = a[i+d] + b[i]` and `a[i+d] = a[i] + b[i]`, with `c`
    // standing in for the loaded `a` until the VIR is retargeted.
    let ahead = |d: u64| {
        format!(
            "arrays {{ a: i32[1200] @ 0; c: i32[1200] @ 0; b: i32[1200] @ 0; }}
             for i in 0..1000 {{ a[i] = c[i+{d}] + b[i]; }}"
        )
    };
    let behind = |d: u64| {
        format!(
            "arrays {{ a: i32[1200] @ 0; c: i32[1200] @ 0; b: i32[1200] @ 0; }}
             for i in 0..1000 {{ a[i+{d}] = c[i] + b[i]; }}"
        )
    };
    // One vector apart, one short of a strip of vectors, a whole strip.
    for (d, legal) in [(4, false), (4 * (STRIP - 1), false), (4 * STRIP, true)] {
        for (way, src) in [("ahead", ahead(d)), ("behind", behind(d))] {
            let label = format!("in place, {d} {way}");
            let schedule = aliased_schedule(&src, (1, 0), &label);
            assert_eq!(strips(schedule), legal, "{label}: {schedule:?}");
        }
    }
}

/// Mixed steps strip on disjoint whole-trip extents only: the strided
/// `deinterleave` computation does, and stops once its output is
/// folded onto its own input.
#[test]
fn mixed_step_loops_strip_only_on_disjoint_extents() {
    let src = "arrays { out: i32[1040] @ 0; inter: i32[1040] @ 8; }
               for i in 0..500 { out[i] = inter[2*i] * inter[2*i] + inter[2*i+1] * inter[2*i+1]; }";
    assert!(strips(aliased_schedule(src, (0, 0), "deinterleave")));
    assert_eq!(
        aliased_schedule(src, (0, 1), "deinterleave, folded"),
        SEQUENTIAL
    );
}

/// The schedule of the loop that runs the most iterations: the pair
/// loop when there is one (it leaves the body one iteration at most).
fn main_loop(schedule: Schedule) -> SectionSchedule {
    match schedule.pair {
        SectionSchedule::Sequential(SequentialReason::NoLoop) => schedule.body,
        pair => pair,
    }
}

/// The loop text of a `kernel-steady` kernel at trip `n`: the four
/// that no sample under `loops/` has the shape of.
fn kernel_source(name: &str, n: u64) -> String {
    let len = n + 16;
    match name {
        "fig1" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8; }}
             for i in 0..{n} {{ a[i+3] = b[i+1] + c[i+2]; }}"
        ),
        "chain6" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8;
                       d: i32[{len}] @ 12; e: i32[{len}] @ 4; f: i32[{len}] @ 8;
                       g: i32[{len}] @ 12; }}
             for i in 0..{n} {{ a[i] = b[i+1] + c[i+2] + d[i+3] + e[i+3] + f[i+1] + g[i+2]; }}"
        ),
        "fir4" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 0; }}
             for i in 0..{n} {{ a[i] = b[i] + b[i+1] + b[i+2] + b[i+3]; }}"
        ),
        "copy3" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 12; }}
             for i in 0..{n} {{ a[i] = b[i+3]; }}"
        ),
        other => panic!("no kernel named `{other}`"),
    }
}

/// A register carried between iterations no longer keeps a loop
/// sequential: the main loop of every `loops/` sample (the
/// software-pipelined `vshiftpair` operand of the runtime-aligned one
/// over store-side shifts 16, 12, 8 and 4, the reduction's accumulator)
/// and of every benchmark kernel shape runs in strips, on every tier,
/// and matches the interpreter.
#[test]
fn carried_registers_strip_the_main_loop_of_every_sample_and_kernel() {
    let dir = format!("{}/loops", env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    assert!(sources.len() >= 5, "{} samples in {dir}", sources.len());
    for name in ["fig1", "chain6", "fir4", "copy3"] {
        sources.push((name.to_string(), kernel_source(name, 4096)));
    }
    for (name, src) in sources {
        let program = simdize::parse_program(&src).unwrap();
        let compiled = Simdizer::new().compile(&program).unwrap();
        let ub = program.trip().known().unwrap_or(4096);
        for seed in 1..=8 {
            let label = format!("{name} seed {seed}");
            let (schedule, _) = check_tiers(&program, &compiled, ub, seed, &label);
            assert_eq!(
                main_loop(schedule),
                SectionSchedule::Strip,
                "{label}: {schedule:?}\n{program}"
            );
        }
    }
}

/// One bake's main-loop schedule, pair-loop iterations and plan listing.
type Bake = (SectionSchedule, u64, String);

/// [`check_tiers`] for a fused and an unfused bake of `compiled`.
fn check_bakes(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    ub: u64,
    seed: u64,
    label: &str,
) -> Vec<Bake> {
    check_bakes_with(program, compiled, &RunInput::with_ub(ub), seed, label)
}

/// [`check_bakes`] for a loop with runtime parameters.
fn check_bakes_with(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    input: &RunInput,
    seed: u64,
    label: &str,
) -> Vec<Bake> {
    [true, false]
        .map(|fuse| {
            let label = format!("{label}/fuse={fuse}");
            let (schedule, stats, listing) = check_input(
                program,
                compiled,
                input,
                seed,
                &label,
                KernelOptions::new().fuse(fuse),
            );
            (main_loop(schedule), stats.steady_iterations / 2, listing)
        })
        .to_vec()
}

/// Runs `runs` over trips around main loops of `STRIP−1`, `STRIP`,
/// `STRIP+1` and `2·STRIP+1` pair iterations, `per_pair` elements
/// each: every bake must strip, and every target must have run.
fn check_strip_boundaries(label: &str, runs: &mut dyn FnMut(u64) -> Vec<Bake>, per_pair: u64) {
    check_pair_trips(
        label,
        runs,
        per_pair,
        &[STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1],
    );
}

/// Runs `runs` over trips around main loops of each of `targets` pair
/// iterations, `per_pair` elements each: every bake must strip, and
/// every target must have run.
fn check_pair_trips(
    label: &str,
    runs: &mut dyn FnMut(u64) -> Vec<Bake>,
    per_pair: u64,
    targets: &[u64],
) {
    let mut stripped = BTreeSet::new();
    for &n in targets {
        for ub in (per_pair * n..per_pair * (n + 2)).step_by(per_pair as usize / 2) {
            for (schedule, pairs, _) in runs(ub) {
                assert_eq!(schedule, SectionSchedule::Strip, "{label} ub={ub}");
                stripped.insert(pairs);
            }
        }
    }
    for &n in targets {
        assert!(
            stripped.contains(&n),
            "{label}: no strip of {n} pair iterations ran"
        );
    }
}

/// The strip transitions of [`strip_boundaries_match_interpreter_across_policy_reuse_tier_matrix`]
/// for loops that carry registers: main loops of `STRIP−1`, `STRIP`,
/// `STRIP+1` and `2·STRIP+1` pair iterations, fused and unfused, on
/// every tier, for the runtime-aligned Figure 1 loop's rotations under
/// both reuse modes, every reduction operator on every integer width
/// (unsigned `min=` starts its lanes at all ones), and a reduction
/// beside a rotated store stream. Each case must have run in strips at
/// every target.
#[test]
fn carried_register_strip_boundaries_match_interpreter() {
    let fig1 = simdize::parse_program(
        "arrays { a: i32[700] @ ?; b: i32[700] @ ?; c: i32[700] @ ?; }
         for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }",
    )
    .unwrap();
    for reuse in [ReuseMode::SoftwarePipeline, ReuseMode::PredictiveCommoning] {
        let compiled = Simdizer::new().reuse(reuse).compile(&fig1).unwrap();
        let label = format!("runtime fig1 {reuse:?}");
        check_strip_boundaries(
            &label,
            &mut |ub| check_bakes(&fig1, &compiled, ub, ub % 8, &format!("{label} ub={ub}")),
            8,
        );
    }

    let ops = ["+=", "*=", "&=", "|=", "^=", "min=", "max="];
    for ty in ["i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64"] {
        let lanes: u64 = 128 / ty[1..].parse::<u64>().unwrap();
        for op in ops {
            let label = format!("{ty} {op}");
            check_strip_boundaries(
                &label,
                &mut |ub| {
                    let program = simdize::parse_program(&format!(
                        "arrays {{ acc: {ty}[16] @ 4; x: {ty}[{}] @ 4; }}
                         for i in 0..{ub} {{ acc[i+1] {op} x[i+3]; }}",
                        ub + 16
                    ))
                    .unwrap();
                    let compiled = Simdizer::new().compile(&program).unwrap();
                    check_bakes(&program, &compiled, ub, ub, &format!("{label} ub={ub}"))
                },
                2 * lanes,
            );
        }
    }

    check_strip_boundaries(
        "reduction beside a rotated store",
        &mut |ub| {
            let program = simdize::parse_program(&format!(
                "arrays {{ out: i32[{len}] @ ?; sum: i32[4] @ 0; x: i32[{len}] @ ?; y: i32[{len}] @ ?; }}
                 for i in 0..{ub} {{ out[i+3] = x[i+1] + y[i+2]; sum[i] += x[i+1] * y[i+2]; }}",
                len = ub + 16
            ))
            .unwrap();
            let compiled = Simdizer::new().compile(&program).unwrap();
            check_bakes(&program, &compiled, ub, ub % 8, &format!("mixed ub={ub}"))
        },
        8,
    );
}

/// Column allocation under pressure: the §5.3 generator's
/// multi-statement loops (up to 4 statements × 6 loads, so dozens of
/// baked registers whose ids the pair loop and the remainder body
/// share, and under software pipelining a rotation per misaligned
/// stream) with and without reuse, every tier against the
/// interpreter. Every main loop runs in strips.
#[test]
fn synthesized_multi_statement_loops_match_interpreter() {
    let mut rng = simdize_prng::SplitMix64::seed_from_u64(0x5712);
    for k in 0..48 {
        let (statements, loads) = (1 + k % 4, 1 + (k / 4) % 6);
        let spec = simdize::WorkloadSpec::new(statements, loads)
            .trip(simdize::TripSpec::KnownInRange(397, 400));
        let program = simdize::synthesize(&spec, &mut rng);
        let ub = program.trip().known().unwrap();
        for reuse in [ReuseMode::None, ReuseMode::SoftwarePipeline] {
            let compiled = Simdizer::new().reuse(reuse).compile(&program).unwrap();
            let label = format!("synth {statements}x{loads} #{k} {reuse:?}");
            let (schedule, _) = check_all_tiers(&program, &compiled, ub, k as u64, &label);
            assert_eq!(
                main_loop(schedule),
                SectionSchedule::Strip,
                "{label}: {schedule:?}"
            );
        }
    }
}

/// The dispatched lines of the first strip-scheduled section of a plan
/// listing: its ops and superinstructions, without their members and
/// without the seed-lane and partial notes.
fn strip_dispatches(listing: &str) -> Vec<&str> {
    listing
        .lines()
        .skip_while(|l| !l.ends_with(", strip:"))
        .skip(1)
        .take_while(|l| l.starts_with(' '))
        .filter(|l| !l.starts_with("    ") && !l.starts_with("  ;"))
        .collect()
}

/// The superinstructions of a fused bake, as `(role, paired, all)`.
fn supers(
    program: &simdize::LoopProgram,
    compiled: &simdize::SimdProgram,
    ub: u64,
    seed: u64,
) -> Vec<(&'static str, usize, usize)> {
    let image = MemoryImage::with_seed(program, VectorShape::V16, seed);
    let kernel = PredecodedKernel::new(compiled)
        .unwrap()
        .bake(&image, &RunInput::with_ub(ub), &KernelOptions::new())
        .unwrap();
    kernel.superinstructions()
}

/// The AVX2 tier's 256-bit body against the interpreter (and so the
/// portable tier), through [`check_strip_boundaries`] — fused and
/// unfused, with last strips of 1, 31 and 32 lanes: a fold of loaded
/// streams into stores at every canonical `(BinOp, ScalarType)` pair;
/// rotation shifts at every amount the generator emits (1..=15 at
/// compile-time alignments, 16 at a runtime one — a zero shift is a
/// plain store); lane partials by every reduction operator at every
/// width; `deinterleave`'s stride-2 gathers at every width (its
/// unrolled second half loading one of its streams first); and
/// superinstructions that must keep the 128-bit body — a body section
/// with no unroll, and a pair whose halves share a stream. The
/// misaligned streams select superinstructions in the fused bake only,
/// where each pair loop must run paired ones alone.
#[test]
fn paired_halves_match_the_portable_tier_at_strip_boundaries() {
    let case = |label: &str, per_pair: u64, source: &dyn Fn(u64) -> String, seed: Option<u64>| {
        let mut runs = |ub| {
            let program = simdize::parse_program(&source(ub)).unwrap();
            let compiled = Simdizer::new().compile(&program).unwrap();
            let (seed, label) = (seed.unwrap_or(ub), format!("{label} ub={ub}"));
            assert_eq!(
                supers(&program, &compiled, ub, seed),
                [("pair", 1, 1)],
                "{label}"
            );
            check_bakes(&program, &compiled, ub, seed, &label)
        };
        check_strip_boundaries(label, &mut runs, per_pair);
    };
    for ty in WIDTHS {
        let lanes: u64 = 128 / ty[1..].parse::<u64>().unwrap();
        let arrays = |names: &[&str], len: u64| {
            names
                .iter()
                .map(|a| format!("{a}: {ty}[{len}] @ 0;"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for symbol in BINOPS {
            let bin = |x: &str, y: &str| match symbol {
                f @ ("min" | "max") => format!("{f}({x}, {y})"),
                o => format!("{x} {o} {y}"),
            };
            let rhs = if symbol == "-" {
                bin("b[i+1]", "c[i+2]")
            } else {
                bin(&bin("b[i+1]", "c[i+2]"), "d[i+3]")
            };
            let source = |ub| {
                format!(
                    "arrays {{ {} }} for i in 0..{ub} {{ a[i+3] = {rhs}; }}",
                    arrays(&["a", "b", "c", "d"], ub + 64)
                )
            };
            case(&format!("stores {symbol} {ty}"), 2 * lanes, &source, None);
        }
        for op in ["+=", "*=", "&=", "|=", "^=", "min=", "max="] {
            let source = |ub| {
                format!("arrays {{ acc: {ty}[16] @ 0; {} }} for i in 0..{ub} {{ acc[i] {op} x[i+1] + y[i+2]; }}", arrays(&["x", "y"], ub + 64))
            };
            case(&format!("partials {op} {ty}"), 2 * lanes, &source, None);
        }
    }
    for ty in ["i8", "i16", "i32", "i64"] {
        let lanes = 128 / ty[1..].parse::<u64>().unwrap();
        let source = |ub| {
            format!("arrays {{ out: {ty}[{}] @ 0; x: {ty}[{}] @ 4; }} for i in 0..{ub} {{ out[i] = x[2*i] * x[2*i] + x[2*i+1] * x[2*i+1]; }}", ub + 16, 2 * ub + 32)
        };
        case(&format!("deinterleave {ty}"), 2 * lanes, &source, None);
    }

    // i8 stores `s` lanes past their sum shift it by 16 - s.
    let mut amounts = BTreeSet::new();
    for s in 1..16u64 {
        let source = |ub| {
            format!("arrays {{ a: i8[2300] @ 0; b: i8[2300] @ 0; c: i8[2300] @ 0; }} for i in 0..{ub} {{ a[i+{s}] = b[i] + c[i]; }}")
        };
        case(&format!("rotation by {}", 16 - s), 32, &source, None);
        amounts.insert(16 - s);
    }
    // A runtime alignment whose store-side shift is a whole vector.
    let runtime = "arrays { a: i8[2300] @ ?; b: i8[2300] @ ?; c: i8[2300] @ ?; } for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }";
    let program = simdize::parse_program(runtime).unwrap();
    let compiled = Simdizer::new().compile(&program).unwrap();
    let whole = (0..64).find(|&seed| {
        let (.., listing) = check_bake(
            &program,
            &compiled,
            1000,
            seed,
            "runtime",
            KernelOptions::new(),
        );
        listing
            .lines()
            .skip_while(|l| !l.starts_with("pair x"))
            .any(|l| l.contains("vshiftpair(") && l.ends_with(", 16)"))
    });
    let seed = whole.expect("a layout that shifts by 16");
    amounts.insert(16);
    case("rotation by 16", 32, &|_| runtime.to_string(), Some(seed));
    assert_eq!(amounts, (1..=16).collect(), "rotation amounts");

    // Must stay narrow: a body section (one fold), and a pair — its
    // streams aligned, its sum rotated into the store — whose second
    // half reads `d` where the first half reads `c`.
    let narrow = |label: &str, driver: Simdizer, mismatch: bool| {
        let mut runs = |ub| {
            let program = simdize::parse_program(&format!(
                "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 0; c: i32[{len}] @ 0; d: i32[{len}] @ 0; }} for i in 0..{ub} {{ a[i+1] = b[i] + c[i]; }}",
                len = ub + 64
            ))
            .unwrap();
            let mut compiled = driver.compile(&program).unwrap();
            if let Some(pair) = compiled.body_pair_mut().filter(|_| mismatch) {
                let (c, d) = (ArrayId::from_index(2), ArrayId::from_index(3));
                let last_c = pair.iter_mut().rev().find_map(|inst| match inst {
                    VInst::LoadA { addr, .. } | VInst::LoadU { addr, .. } if addr.array == c => {
                        Some(addr)
                    }
                    _ => None,
                });
                last_c.expect("the second half loads c").array = d;
            }
            let label = format!("{label} ub={ub}");
            let supers = supers(&program, &compiled, ub, ub);
            assert!(
                !supers.is_empty() && supers.iter().all(|&(_, paired, _)| paired == 0),
                "{label}: {supers:?}"
            );
            check_bakes(&program, &compiled, ub, ub, &label)
        };
        check_strip_boundaries(label, &mut runs, 8);
    };
    narrow("no unroll", Simdizer::new().unroll(false), false);
    narrow("mismatched halves", Simdizer::new(), true);
}

/// Each superinstruction family with the mark its dispatched line
/// carries in the plan listing.
const FAMILIES: [(&str, &str); 3] = [
    ("fold", "streams -> vstore"),
    ("rotation", "streams -> vshiftpair from"),
    ("reduction", "lane partials by"),
];

const BINOPS: [&str; 8] = ["+", "-", "*", "&", "|", "^", "min", "max"];

const WIDTHS: [&str; 8] = ["i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64"];

/// A loop of family `family` whose fold combines its streams by
/// `BINOPS[op]`, at element type `ty` and trip `n`. The streams are
/// aligned, so the unfused bake selects the family as well as the
/// fused one.
fn family_source(family: usize, op: usize, ty: &str, n: u64) -> String {
    let len = n + 64;
    let bin = |x: &str, y: &str| match BINOPS[op] {
        f @ ("min" | "max") => format!("{f}({x}, {y})"),
        o => format!("{x} {o} {y}"),
    };
    let arrays = |names: &[&str]| {
        names
            .iter()
            .map(|a| format!("{a}: {ty}[{len}] @ 0;"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    match family {
        // Three streams where the operator reassociates, two for `-`.
        0 => {
            let rhs = if BINOPS[op] == "-" {
                bin("b[i]", "c[i]")
            } else {
                bin(&bin("b[i]", "c[i]"), "d[i]")
            };
            format!(
                "arrays {{ {} }} for i in 0..{n} {{ a[i] = {rhs}; }}",
                arrays(&["a", "b", "c", "d"])
            )
        }
        // The store a lane off the streams: a rotation shift feeds it.
        1 => format!(
            "arrays {{ {} }} for i in 0..{n} {{ a[i+2] = {}; }}",
            arrays(&["a", "b", "c"]),
            bin("b[i+1]", "c[i+1]")
        ),
        // A reduction of the fold, by each reassociable operator in turn.
        _ => format!(
            "arrays {{ acc: {ty}[16] @ 0; {} }} for i in 0..{n} {{ acc[i] {} {}; }}",
            arrays(&["x", "y"]),
            ["+=", "*=", "&=", "|=", "^=", "min=", "max="][op % 7],
            bin("x[i]", "y[i]")
        ),
    }
}

/// Every superinstruction family × every `BinOp` × every integer width,
/// through [`check_strip_boundaries`] — fused and unfused, on every
/// host tier, against the interpreter — and every bake's listing shows
/// its family selected.
#[test]
fn superinstruction_families_match_interpreter_at_strip_boundaries() {
    for (family, (name, mark)) in FAMILIES.into_iter().enumerate() {
        for ty in WIDTHS {
            let lanes: u64 = 128 / ty[1..].parse::<u64>().unwrap();
            for (op, symbol) in BINOPS.into_iter().enumerate() {
                let label = format!("{name} {symbol} {ty}");
                let mut runs = |ub| {
                    let program =
                        simdize::parse_program(&family_source(family, op, ty, ub)).unwrap();
                    let compiled = Simdizer::new().compile(&program).unwrap();
                    let bakes =
                        check_bakes(&program, &compiled, ub, ub, &format!("{label} ub={ub}"));
                    for (_, _, listing) in &bakes {
                        let selected = strip_dispatches(listing).iter().any(|l| l.contains(mark));
                        assert!(selected, "{label} ub={ub}: not selected\n{listing}");
                    }
                    bakes
                };
                check_strip_boundaries(&label, &mut runs, 2 * lanes);
            }
        }
    }
}

/// The main loops a section of folds of loaded streams runs as one
/// strip, its whole trip a dispatch: around `STRIP` (one strip either
/// way), past it, and long — 511 and 4096 pair iterations.
const WHOLE_TRIPS: [u64; 6] = [STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1, 511, 4096];

/// Every superinstruction family — a fold into a store, into a rotation
/// shift (whose carry goes straight to its seed lane) and into lane
/// partials (lane `u % STRIP`) — at two operators and two widths,
/// through [`WHOLE_TRIPS`], fused and unfused, on every host tier,
/// against the interpreter.
#[test]
fn folds_run_whole_match_interpreter_on_long_trips() {
    for (family, (name, mark)) in FAMILIES.into_iter().enumerate() {
        for ty in ["i16", "i32"] {
            let lanes: u64 = 128 / ty[1..].parse::<u64>().unwrap();
            for op in [0, 6] {
                let label = format!("{name} {} {ty}", BINOPS[op]);
                let mut runs = |ub| {
                    let program =
                        simdize::parse_program(&family_source(family, op, ty, ub)).unwrap();
                    let compiled = Simdizer::new().compile(&program).unwrap();
                    let bakes =
                        check_bakes(&program, &compiled, ub, ub, &format!("{label} ub={ub}"));
                    for (_, _, listing) in &bakes {
                        let selected = strip_dispatches(listing).iter().any(|l| l.contains(mark));
                        assert!(selected, "{label} ub={ub}: not selected\n{listing}");
                    }
                    bakes
                };
                check_pair_trips(&label, &mut runs, 2 * lanes, &WHOLE_TRIPS);
            }
        }
    }
}

/// Two statements, each a fold of aligned loaded streams (so the unfused
/// bake selects them too): both folds run whole. Then two whose second reads, 40 pair iterations (320 elements) ahead,
/// what the first stores — `g` stands in for `a` until the VIR is
/// retargeted ([`aliased`]): the dependence keeps the main loop at
/// `STRIP` iterations a strip (`lower`'s width rule, pinned in its unit
/// tests). Both match the interpreter through [`WHOLE_TRIPS`], fused
/// and unfused, on every host tier.
#[test]
fn two_statement_folds_match_interpreter_on_long_trips() {
    let two = |n: u64| {
        let len = n + 64;
        let program = simdize::parse_program(&format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 0; c: i32[{len}] @ 0;
                       d: i32[{len}] @ 0; e: i32[{len}] @ 0; f: i32[{len}] @ 0; }}
             for i in 0..{n} {{ a[i] = b[i] + c[i]; d[i] = e[i] - f[i]; }}"
        ))
        .unwrap();
        let compiled = Simdizer::new().compile(&program).unwrap();
        (program, compiled)
    };
    let apart = |n: u64| {
        let len = n + 384;
        aliased(
            &format!(
                "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 0; c: i32[{len}] @ 0;
                           d: i32[{len}] @ 0; e: i32[{len}] @ 0; g: i32[{len}] @ 0; }}
                 for i in 0..{n} {{ a[i] = b[i] + c[i]; d[i] = g[i+320] + e[i]; }}"
            ),
            (5, 0),
        )
    };
    let cases: [(&str, &dyn Fn(u64) -> Compiled); 2] =
        [("two folds", &two), ("a dependence 40 pairs apart", &apart)];
    for (label, build) in cases {
        let mut runs = |ub| {
            let (program, compiled) = build(ub);
            let bakes = check_bakes(&program, &compiled, ub, ub, &format!("{label} ub={ub}"));
            // Each statement a fold of its own, unrolled or not.
            for (_, _, listing) in &bakes {
                let dispatches = strip_dispatches(listing);
                assert!(
                    dispatches.len() >= 2 && dispatches.iter().all(|l| l.starts_with("  fold")),
                    "{label} ub={ub}\n{listing}"
                );
            }
            bakes
        };
        check_pair_trips(label, &mut runs, 8, &WHOLE_TRIPS);
    }
}

/// Whether a listing's first strip section runs a mixed tree.
fn runs_a_tree(listing: &str) -> bool {
    strip_dispatches(listing)
        .iter()
        .any(|l| l.starts_with("  fold") && l.contains(" over "))
}

/// The mixed-tree family and the gathers trace fusion composes for it,
/// through [`check_strip_boundaries`] — fused and unfused, on every host
/// tier, against the interpreter: the stride-2 sum of squares at every
/// width, `deinterleave` at every input alignment, a non-reassociable
/// root, a gather stored as it is, a splat leaf, a mixed tree into a
/// lane partial, the `b - c - d` and immediate-operand shapes the
/// one-operator folds refuse, `min` and `max` at 64 bits (pairs x86
/// has no instruction for), an unpaired `deinterleave` (on the AVX2
/// tier, the v2 tier's runner) and `alpha_blend` (its two products of a
/// stream and a parameter) under the default and the zero-shift
/// policy. Every fused bake but the default-policy `alpha_blend` (whose
/// products feed rotation shifts) runs a mixed tree.
#[test]
fn mixed_trees_match_interpreter_at_strip_boundaries() {
    fn squares(ty: &'static str, at: u64, rhs: &'static str) -> impl Fn(u64) -> String {
        move |ub| {
            format!("arrays {{ out: {ty}[{}] @ 0; x: {ty}[{}] @ {at}; }} for i in 0..{ub} {{ out[i] = {rhs}; }}", ub + 16, 2 * ub + 32)
        }
    }
    let sum = "x[2*i] * x[2*i] + x[2*i+1] * x[2*i+1]";
    type Case = (String, u64, Box<dyn Fn(u64) -> String>);
    let mut cases: Vec<Case> = Vec::new();
    for ty in ["i8", "i16", "i32", "i64"] {
        let lanes = 128 / ty[1..].parse::<u64>().unwrap();
        cases.push((
            format!("stride 2 {ty}"),
            lanes,
            Box::new(squares(ty, 0, sum)),
        ));
    }
    // Pairs x86 has no instruction for, in a term and between terms.
    for ty in ["i64", "u64"] {
        cases.push((
            format!("min and max {ty}"),
            2,
            Box::new(squares(
                ty,
                8,
                "max(min(x[2*i], x[2*i+1]), x[2*i] - x[2*i+1])",
            )),
        ));
    }
    for at in [0, 4, 8, 12] {
        cases.push((
            format!("deinterleave @ {at}"),
            4,
            Box::new(squares("i32", at, sum)),
        ));
    }
    cases.push((
        "non-reassociable root".into(),
        4,
        Box::new(squares("i32", 0, "x[2*i] * x[2*i] - x[2*i+1] * x[2*i+1]")),
    ));
    cases.push((
        "stride-2 copy".into(),
        4,
        Box::new(squares("i32", 8, "x[2*i+1]")),
    ));
    cases.push((
        "splat leaf".into(),
        4,
        Box::new(squares("i32", 4, "x[2*i] * 3 + x[2*i+1]")),
    ));
    let streams = |rhs: &'static str| {
        move |ub: u64| {
            let arrays: Vec<String> = ["a", "b", "c", "d"]
                .iter()
                .map(|a| format!("{a}: i32[{}] @ 0;", ub + 16))
                .collect();
            format!(
                "arrays {{ acc: i32[4] @ 0; {} }} for i in 0..{ub} {{ {rhs} }}",
                arrays.join(" ")
            )
        }
    };
    cases.push((
        "tree into a lane partial".into(),
        4,
        Box::new(streams("acc[i] += b[i] * 3 - c[i] * d[i];")),
    ));
    cases.push((
        "sub tree".into(),
        4,
        Box::new(streams("a[i] = b[i] - c[i] - d[i];")),
    ));
    cases.push((
        "immediate operand".into(),
        4,
        Box::new(streams("a[i] = b[i] * 3 + c[i];")),
    ));
    // Not unrolled, so not paired: the AVX2 tier runs it on the v2
    // tier's runner.
    let unpaired = "unpaired deinterleave".to_string();
    cases.push((unpaired.clone(), 4, Box::new(squares("i32", 8, sum))));
    for (label, lanes, source) in &cases {
        let mut runs = |ub| {
            let program = simdize::parse_program(&source(ub)).unwrap();
            let driver = Simdizer::new().unroll(*label != unpaired);
            let compiled = driver.compile(&program).unwrap();
            let bakes = check_bakes(&program, &compiled, ub, ub, &format!("{label} ub={ub}"));
            assert!(
                runs_a_tree(&bakes[0].2),
                "{label} ub={ub}: no mixed tree\n{}",
                bakes[0].2
            );
            bakes
        };
        check_strip_boundaries(label, &mut runs, 2 * lanes);
    }
    for zero in [false, true] {
        let label = format!("alpha_blend zero={zero}");
        let mut runs = |ub| {
            let (program, _) = simdize_workloads::alpha_blend(ub);
            let driver = if zero {
                Simdizer::new().policy(Policy::Zero)
            } else {
                Simdizer::new()
            };
            let compiled = driver.compile(&program).unwrap();
            let input = RunInput {
                params: vec![77, 179],
                ..RunInput::with_ub(ub)
            };
            let bakes =
                check_bakes_with(&program, &compiled, &input, ub, &format!("{label} ub={ub}"));
            assert_eq!(
                runs_a_tree(&bakes[0].2),
                zero,
                "{label} ub={ub}\n{}",
                bakes[0].2
            );
            bakes
        };
        check_strip_boundaries(&label, &mut runs, 32);
    }
}

/// A mixed tree runs each step down every lane of its strip, so the
/// last strip's length is the one remainder its column loops have:
/// `deinterleave` and a tree into a lane partial, with main loops of
/// `STRIP + r` pair iterations for every `r` in `1..=STRIP`, fused and
/// unfused, on every host tier, against the interpreter. Every fused
/// bake runs a mixed tree.
#[test]
fn mixed_trees_match_interpreter_at_every_last_strip_length() {
    let deinterleave = |ub: u64| {
        format!(
            "arrays {{ out: i32[{}] @ 0; x: i32[{}] @ 8; }} for i in 0..{ub} {{ out[i] = x[2*i] * x[2*i] + x[2*i+1] * x[2*i+1]; }}",
            ub + 16,
            2 * ub + 32
        )
    };
    let partial = |ub: u64| {
        let arrays: Vec<String> = ["b", "c", "d"]
            .iter()
            .map(|a| format!("{a}: i32[{}] @ 0;", ub + 16))
            .collect();
        format!("arrays {{ acc: i32[4] @ 0; {} }} for i in 0..{ub} {{ acc[i] += b[i] * 3 - c[i] * d[i]; }}", arrays.join(" "))
    };
    let cases: [(&str, &dyn Fn(u64) -> String); 2] = [
        ("deinterleave", &deinterleave),
        ("tree into a lane partial", &partial),
    ];
    for (label, source) in cases {
        let mut last = BTreeSet::new();
        // Eight elements a pair iteration, half a pair apart.
        for ub in (8 * (STRIP + 1)..8 * (2 * STRIP + 2)).step_by(4) {
            let program = simdize::parse_program(&source(ub)).unwrap();
            let compiled = Simdizer::new().compile(&program).unwrap();
            let bakes = check_bakes(&program, &compiled, ub, ub, &format!("{label} ub={ub}"));
            assert!(
                runs_a_tree(&bakes[0].2),
                "{label} ub={ub}: no mixed tree\n{}",
                bakes[0].2
            );
            for (schedule, pairs, _) in bakes {
                assert_eq!(schedule, SectionSchedule::Strip, "{label} ub={ub}");
                if pairs > STRIP {
                    last.insert((pairs - 1) % STRIP + 1);
                }
            }
        }
        assert_eq!(
            last,
            (1..=STRIP).collect::<BTreeSet<_>>(),
            "{label}: last strip lengths"
        );
    }
}

/// The stack a kernel's run may take. In a debug build no runner frame
/// merges into its caller's, and each const-matched lane loop keeps
/// stack slots of its own: the deepest chain, the AVX2 strip driver and
/// its wide fold runner, takes about 570 KiB.
const RUN_STACK: usize = 768 * 1024;

/// A paired and an unpaired fold of loaded streams and a paired and an
/// unpaired mixed tree, run on every host tier on a thread with a
/// [`RUN_STACK`] stack — one that outgrows it aborts this test binary
/// with a stack overflow — and matched against the interpreter.
#[test]
fn superinstructions_run_within_a_fixed_stack() {
    let fig1 = |ub: u64| {
        format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8; }}
             for i in 0..{ub} {{ a[i+3] = b[i+1] + c[i+2]; }}",
            len = ub + 16
        )
    };
    let deinterleave = |ub: u64| {
        format!(
            "arrays {{ out: i32[{}] @ 0; x: i32[{}] @ 8; }} for i in 0..{ub} {{ out[i] = x[2*i] * x[2*i] + x[2*i+1] * x[2*i+1]; }}",
            ub + 16,
            2 * ub + 32
        )
    };
    let ub = 200;
    let mut runs = Vec::new();
    for (source, tree) in [(fig1(ub), false), (deinterleave(ub), true)] {
        for paired in [true, false] {
            let program = simdize::parse_program(&source).unwrap();
            let compiled = Simdizer::new().unroll(paired).compile(&program).unwrap();
            let label = format!("tree={tree} paired={paired}");
            let mut want = MemoryImage::with_seed(&program, VectorShape::V16, 7);
            let image = want.clone();
            let input = RunInput::with_ub(ub);
            run_simd(&compiled, &mut want, &input).unwrap();
            let kernel = PredecodedKernel::new(&compiled)
                .unwrap()
                .bake(&image, &input, &KernelOptions::new())
                .unwrap();
            let supers = kernel.superinstructions();
            assert!(
                !supers.is_empty() && supers.iter().all(|&(_, p, _)| (p > 0) == paired),
                "{label}: {supers:?}"
            );
            assert_eq!(runs_a_tree(&kernel.trace()), tree, "{label}");
            for tier in host_tiers() {
                let label = format!("{label}/{tier}");
                runs.push((
                    label,
                    SimdKernel::lower(&kernel, tier),
                    image.clone(),
                    want.clone(),
                ));
            }
        }
    }
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(RUN_STACK)
            .spawn_scoped(scope, || {
                for (_, kernel, image, _) in &mut runs {
                    kernel.run(image).unwrap();
                }
            })
            .unwrap()
            .join()
            .unwrap()
    });
    for (label, _, got, want) in &runs {
        assert_eq!(got.first_difference(want), None, "{label}");
    }
}

/// Shapes no family covers run on the generic arms — in strips, and
/// matching the interpreter on every tier, fused and unfused: a tree
/// three operators deep, a value stored twice, a value the epilogue
/// reads and a predictive-commoning chain of depth 2.
#[test]
fn shapes_outside_the_families_fall_back_to_the_generic_driver() {
    let arrays = "arrays { a: i32[520] @ 0; b: i32[520] @ 0; c: i32[520] @ 0; d: i32[520] @ 0; }";
    let compile = |body: &str, driver: Simdizer| {
        let program =
            simdize::parse_program(&format!("{arrays} for i in 0..500 {{ {body} }}")).unwrap();
        let compiled = driver.compile(&program).unwrap();
        (program, compiled)
    };
    let d = ArrayId::from_index(3);
    let mut cases = Vec::new();
    cases.push((
        "three levels",
        compile("a[i] = (b[i] + c[i]) * d[i] - b[i];", Simdizer::new()),
    ));

    // Every loop store of the sum again, to `d`.
    let (program, mut stored_twice) = compile("a[i] = b[i] + c[i];", Simdizer::new());
    let twice = |insts: &mut Vec<VInst>| {
        let copies: Vec<VInst> = insts
            .iter()
            .filter_map(|inst| match *inst {
                VInst::StoreA { addr, src } => Some(VInst::StoreA {
                    addr: Addr { array: d, ..addr },
                    src,
                }),
                _ => None,
            })
            .collect();
        insts.extend(copies);
    };
    twice(stored_twice.body_mut());
    if let Some(pair) = stored_twice.body_pair_mut() {
        twice(pair);
    }
    cases.push(("stored twice", (program, stored_twice)));

    // The epilogue stores the body's last sum.
    let (program, mut read_after) = compile("a[i] = b[i] + c[i];", Simdizer::new().unroll(false));
    let sum = read_after.body().iter().find_map(|inst| match *inst {
        VInst::Bin { dst, .. } => Some(dst),
        _ => None,
    });
    let src = sum.expect("the body adds");
    read_after.epilogue_mut().push(VInst::StoreA {
        addr: Addr::new(d, 0),
        src,
    });
    cases.push(("read by the epilogue", (program, read_after)));

    let chain = Simdizer::new()
        .reuse(ReuseMode::PredictiveCommoning)
        .unroll(false);
    cases.push((
        "chain of depth 2",
        compile("a[i] = b[i] + b[i+4] + b[i+8];", chain),
    ));

    for (name, (program, compiled)) in cases {
        for fuse in [true, false] {
            let label = format!("{name} fuse={fuse}");
            let (schedule, _, listing) = check_bake(
                &program,
                &compiled,
                500,
                3,
                &label,
                KernelOptions::new().fuse(fuse),
            );
            assert_eq!(
                main_loop(schedule),
                SectionSchedule::Strip,
                "{label}\n{listing}"
            );
            let dispatches = strip_dispatches(&listing);
            assert!(
                !dispatches.is_empty() && dispatches.iter().all(|l| !l.starts_with("  fold")),
                "{label}\n{listing}"
            );
            if name == "chain of depth 2" {
                assert!(listing.contains(": 2 seed lane(s)"), "{label}\n{listing}");
            }
        }
    }
}
