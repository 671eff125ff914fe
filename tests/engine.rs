//! Differential tests for the compiled engine: `simdize-engine` must
//! be byte-for-byte and stat-for-stat identical to the `simdize-vm`
//! interpreter (the reference semantics) across the full configuration
//! matrix, the plan of an unfused bake is pinned by a golden listing,
//! every fault a bake raises before touching memory is pinned, and its
//! kernel cache keeps its keying, LRU and counter contracts.

use simdize::{
    program_fingerprint, run_simd, synthesize, CompiledKernel, ExecError, IsaLevel, KernelCache,
    KernelOptions, MemoryImage, Policy, PredecodedKernel, ReuseMode, RunInput, SimdProgram,
    SimdizeError, Simdizer, TripSpec, VInst, VectorShape, WorkloadSpec,
};
use simdize_prng::SplitMix64;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const REUSES: [ReuseMode; 3] = [
    ReuseMode::None,
    ReuseMode::SoftwarePipeline,
    ReuseMode::PredictiveCommoning,
];

/// Compile-time misaligned arrays (every reference off by a different
/// amount) and runtime-aligned arrays with a runtime trip count — the
/// two alignment regimes of paper §4.1 and §4.4.
const MISALIGNED: &str = "arrays { a: i32[256] @ 12; b: i32[256] @ 4; c: i32[256] @ 8; }
                          for i in 0..200 { a[i+1] = b[i+3] + c[i+2]; }";
const RUNTIME: &str = "arrays { a: i32[256] @ ?; b: i32[256] @ ?; c: i32[256] @ ?; }
                       for i in 0..ub { a[i+1] = b[i+3] + c[i+2]; }";

#[test]
fn engine_matches_interpreter_across_policy_reuse_alignment_matrix() {
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
                for seed in [2, 11, 2004] {
                    let input = RunInput::with_ub(ub);
                    let mut interp_img = MemoryImage::with_seed(&program, VectorShape::V16, seed);
                    let mut engine_img = interp_img.clone();
                    let want = run_simd(&compiled, &mut interp_img, &input).unwrap();
                    let kernel = CompiledKernel::compile(&compiled, &engine_img, &input).unwrap();
                    let got = kernel.run(&mut engine_img).unwrap();
                    assert_eq!(got, want, "{policy}/{reuse:?} seed {seed}: stats diverged");
                    assert_eq!(
                        engine_img.first_difference(&interp_img),
                        None,
                        "{policy}/{reuse:?} seed {seed}: memory diverged"
                    );
                    // Identical stats imply identical OPD — assert the
                    // derived metric too so a future stats-shape change
                    // cannot silently decouple them.
                    let data = program.stmts().len() as u64 * ub;
                    assert_eq!(got.opd(data).to_bits(), want.opd(data).to_bits());
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
fn engine_matches_interpreter_on_scalar_fallback_trips() {
    let program = simdize::parse_program(RUNTIME).unwrap();
    let compiled = Simdizer::new()
        .policy(Policy::Zero)
        .reuse(ReuseMode::SoftwarePipeline)
        .compile(&program)
        .unwrap();
    for ub in [1u64, 7, 12] {
        let input = RunInput::with_ub(ub);
        let mut interp_img = MemoryImage::with_seed(&program, VectorShape::V16, 5);
        let mut engine_img = interp_img.clone();
        let want = run_simd(&compiled, &mut interp_img, &input).unwrap();
        let kernel = CompiledKernel::compile(&compiled, &engine_img, &input).unwrap();
        assert!(kernel.is_fallback());
        let got = kernel.run(&mut engine_img).unwrap();
        assert_eq!(got, want, "ub {ub}");
        assert!(got.used_fallback);
        assert_eq!(engine_img.first_difference(&interp_img), None, "ub {ub}");
    }
}

/// The paper's Figure 1 loop, compiled under the zero-shift policy
/// with software pipelining.
fn figure1_zero_sp() -> (simdize::LoopProgram, SimdProgram) {
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
    (program, compiled)
}

/// Pins the plan of an unfused bake of Figure 1 under the zero-shift
/// policy with software pipelining — the listing `trace()` renders of
/// what the strip driver executes, before fusion touches it: the prologue shifts
/// both streams to offset zero, the unrolled pair body strips with its
/// three rotations riding seed lanes, and the epilogue finishes with a
/// load–splice–store partial store. Every chunk access is truncated
/// (`b[i+1]` at `i = 0` loads `base-16`, not `base-12`) and every
/// stream carries its baked `(start, step)`; offsets are relative to
/// each array's base, so the text is layout-stable.
#[test]
fn golden_disassembly_for_figure1_zero_sp() {
    let (program, compiled) = figure1_zero_sp();
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let kernel = PredecodedKernel::new(&compiled)
        .unwrap()
        .bake(
            &img,
            &RunInput::with_ub(100),
            &KernelOptions::new().fuse(false),
        )
        .unwrap();
    let expected = "\
; plan: V=16 lanes=291 fused-loads=0 splat-ops=0 hoisted=0 eliminated=0
prologue:
  v0 = vload arr1[base-16]
  v1 = vload arr1[base+0]
  v2 = vshiftpair(v0, v1, 4)
  v0 = vload arr2[base-16]
  v3 = vload arr2[base+0]
  v4 = vshiftpair(v0, v3, 8)
  v0 = add(v2, v4)
  v4 = vload arr1[base+16]
  v2 = vshiftpair(v1, v4, 4)
  v1 = vload arr2[base+16]
  v5 = vshiftpair(v3, v1, 8)
  v3 = add(v2, v5)
  v5 = vshiftpair(v0, v3, 4)
  v0 = vload arr0[base+0]
  v2 = vsplice(v0, v5, 12)
  vstore arr0[base+0], v2
  v32 = v3
  v65 = v4
  v98 = v1
pair x12, strip:
  ; v65: 1 seed lane(s) of column v66
  ; v98: 1 seed lane(s) of column v99
  ; v32: 1 seed lane(s) of column v33
  v131 = vload arr1[base+32; +32/iter]
  v66 = vload arr1[base+48; +32/iter]
  v163 = vshiftpair(v65, v131, 4)
  v195 = vload arr2[base+32; +32/iter]
  v99 = vload arr2[base+48; +32/iter]
  v227 = vshiftpair(v98, v195, 8)
  v259 = add(v163, v227)
  v227 = vshiftpair(v131, v66, 4)
  v131 = vshiftpair(v195, v99, 8)
  v33 = add(v227, v131)
  v131 = vshiftpair(v32, v259, 4)
  vstore arr0[base+16; +32/iter], v131
  v131 = vshiftpair(v259, v33, 4)
  vstore arr0[base+32; +32/iter], v131
epilogue:
  v1 = vload arr1[base+384]
  v4 = vload arr1[base+400]
  v3 = vshiftpair(v1, v4, 4)
  v1 = vload arr2[base+384]
  v2 = vload arr2[base+400]
  v5 = vshiftpair(v1, v2, 8)
  v1 = add(v3, v5)
  v5 = vload arr1[base+416]
  v3 = vshiftpair(v4, v5, 4)
  v5 = vload arr2[base+416]
  v4 = vshiftpair(v2, v5, 8)
  v5 = add(v3, v4)
  v4 = vshiftpair(v1, v5, 4)
  v5 = vload arr0[base+400]
  v1 = vsplice(v4, v5, 12)
  vstore arr0[base+400], v1
";
    assert_eq!(kernel.trace(), expected);
}

/// Pins the fused plan of `loops/deinterleave.loop` (`out[i] =
/// inter[2i]² + inter[2i+1]²`): trace fusion composes each pack's chain
/// of three `vperm`s over three chunk loads into one `vperm` of the two
/// vectors at `base+0` / `base+16`, which both packs share, so the
/// chunk software pipelining carries across the back edge dies; and the
/// strip driver runs the unrolled pair as one mixed-tree
/// superinstruction — one dispatch per strip, 2 loads and 2 perms an
/// iteration.
#[test]
fn golden_plan_for_the_composed_deinterleave_body() {
    let path = format!("{}/loops/deinterleave.loop", env!("CARGO_MANIFEST_DIR"));
    let program = simdize::parse_program(&std::fs::read_to_string(path).unwrap()).unwrap();
    let compiled = Simdizer::new().compile(&program).unwrap();
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let kernel = CompiledKernel::compile(&compiled, &img, &RunInput::with_ub(500)).unwrap();
    let expected = "\
; plan: V=16 lanes=160 fused-loads=0 splat-ops=0 hoisted=0 eliminated=23
prologue:
  v0 = vload.fused arr1[base+0]
  v1 = vload.fused arr1[base+16]
  v2 = vperm(v0, v1, [0,1,2,3,8,9,10,11,16,17,18,19,24,25,26,27])
  v3 = mul(v2, v2)
  v2 = vperm(v0, v1, [4,5,6,7,12,13,14,15,20,21,22,23,28,29,30,31])
  v1 = mul(v2, v2)
  v2 = add(v3, v1)
  vstore arr0[base+0], v2
pair x62, strip:
  fold add(mul(g0, g0), mul(g1, g1)); add(mul(g2, g2), mul(g3, g3)) over 4 streams -> vstore
    v32 = vload.fused arr1[base+32; +64/iter]
    v64 = vload.fused arr1[base+48; +64/iter]
    v96 = vperm(v32, v64, [0,1,2,3,8,9,10,11,16,17,18,19,24,25,26,27])
    v128 = mul(v96, v96)
    v96 = vperm(v32, v64, [4,5,6,7,12,13,14,15,20,21,22,23,28,29,30,31])
    v64 = mul(v96, v96)
    v96 = add(v128, v64)
    vstore arr0[base+16; +32/iter], v96
    v96 = vload.fused arr1[base+64; +64/iter]
    v64 = vload.fused arr1[base+80; +64/iter]
    v128 = vperm(v96, v64, [0,1,2,3,8,9,10,11,16,17,18,19,24,25,26,27])
    v32 = mul(v128, v128)
    v128 = vperm(v96, v64, [4,5,6,7,12,13,14,15,20,21,22,23,28,29,30,31])
    v64 = mul(v128, v128)
    v128 = add(v32, v64)
    vstore arr0[base+32; +32/iter], v128
";
    assert_eq!(kernel.trace(), expected);
    // Each pack's last two perms composed (the middle one first onto
    // the chunks already loaded, then dead): the prologue's two packs
    // and the pair's four.
    assert_eq!(kernel.fusion_stats().composed, 12);
}

/// The listing is a view of the plan, not something a bake builds:
/// `disassembly(false)`, a no-op, bakes the identical plan — the same
/// listing and the same bytes, fused or not.
#[test]
fn the_listing_does_not_depend_on_the_disassembly_switch() {
    let (program, compiled) = figure1_zero_sp();
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 7);
    let pre = PredecodedKernel::new(&compiled).unwrap();
    let input = RunInput::with_ub(100);
    for fuse in [true, false] {
        let opts = KernelOptions::new().fuse(fuse);
        let plain = pre.bake(&img, &input, &opts).unwrap();
        let quiet = pre.bake(&img, &input, &opts.disassembly(false)).unwrap();
        assert_eq!(quiet.trace(), plain.trace(), "fuse {fuse}");
        assert_eq!(quiet.stats(), plain.stats(), "fuse {fuse}");
        let (mut a, mut b) = (img.clone(), img.clone());
        quiet.run(&mut a).unwrap();
        plain.run(&mut b).unwrap();
        assert_eq!(a.first_difference(&b), None, "fuse {fuse}");
    }
}

/// What the bake refuses, before it touches memory: inputs that
/// contradict the loop, an image of another shape, and — at `run` —
/// an image of another layout.
#[test]
fn bake_rejects_inputs_the_loop_does_not_fit() {
    let (program, compiled) = figure1_zero_sp();
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let pre = PredecodedKernel::new(&compiled).unwrap();
    let opts = KernelOptions::new();
    assert_eq!(
        pre.bake(&img, &RunInput::with_ub(99), &opts).unwrap_err(),
        ExecError::TripMismatch {
            declared: 100,
            supplied: 99
        }
    );
    let img8 = MemoryImage::with_seed(&program, VectorShape::V8, 1);
    assert!(matches!(
        pre.bake(&img8, &RunInput::with_ub(100), &opts),
        Err(ExecError::Unsupported { .. })
    ));

    // A parameter the loop declares and the input lacks.
    let scaled = simdize::parse_program(
        "arrays { a: i32[128] @ 0; b: i32[128] @ 4; } params { k; }
         for i in 0..100 { a[i] = b[i+1] * k; }",
    )
    .unwrap();
    let scaled_compiled = Simdizer::new().compile(&scaled).unwrap();
    let scaled_img = MemoryImage::with_seed(&scaled, VectorShape::V16, 1);
    let scaled_pre = PredecodedKernel::new(&scaled_compiled).unwrap();
    assert_eq!(
        scaled_pre
            .bake(&scaled_img, &RunInput::with_ub(100), &opts)
            .unwrap_err(),
        ExecError::MissingParam { index: 0 }
    );
    let given = RunInput {
        ub: 100,
        params: vec![3],
    };
    assert!(scaled_pre.bake(&scaled_img, &given, &opts).is_ok());

    // Same layout, refilled contents: accepted. Another program's
    // image: rejected, not corrupted.
    let kernel = pre.bake(&img, &RunInput::with_ub(100), &opts).unwrap();
    let mut refill = img.clone();
    refill.fill_random(77);
    assert!(kernel.layout_matches(&refill));
    kernel.run(&mut refill).unwrap();
    let mut foreign = scaled_img.clone();
    assert!(!kernel.layout_matches(&foreign));
    assert!(matches!(
        kernel.run(&mut foreign),
        Err(ExecError::Unsupported { .. })
    ));
    assert_eq!(foreign.first_difference(&scaled_img), None);
}

/// What the program check and the bake refuse in a malformed program,
/// built by patching generated VIR: a `vperm` whose pattern is not 16
/// selectors below 32, and a read of a register nothing wrote yet —
/// refused exactly as the interpreter faults on it.
#[test]
fn bake_rejects_malformed_programs() {
    let program = simdize::parse_program(MISALIGNED).unwrap();
    let compiled = Simdizer::new()
        .policy(Policy::Zero)
        .reuse(ReuseMode::None)
        .compile(&program)
        .unwrap();
    let r = compiled.body().iter().find_map(VInst::def).unwrap();
    for (pattern, amount) in [
        (vec![0u8; 15], 15),
        ((0..16).map(|k| 2 * k + 2).collect(), 32),
    ] {
        let mut bad = compiled.clone();
        bad.body_mut().push(VInst::Perm {
            dst: r,
            a: r,
            b: r,
            pattern,
        });
        assert_eq!(
            PredecodedKernel::new(&bad).unwrap_err(),
            ExecError::BadShiftAmount { amount }
        );
    }

    // The body's last result, read at its top: the first iteration
    // reads it before anything wrote it.
    assert!(compiled.body_pair().is_none(), "the body must run first");
    let late = compiled.body().iter().rev().find_map(VInst::def).unwrap();
    let mut bad = compiled.clone();
    bad.body_mut().insert(0, VInst::Copy { dst: r, src: late });
    let img = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let input = RunInput::with_ub(200);
    let want = run_simd(&bad, &mut img.clone(), &input).unwrap_err();
    assert_eq!(
        want,
        ExecError::UninitializedRegister {
            index: late.index()
        }
    );
    let pre = PredecodedKernel::new(&bad).unwrap();
    assert_eq!(
        pre.bake(&img, &input, &KernelOptions::new()).unwrap_err(),
        want
    );
}

/// One program and a seeded image: what a cache lookup takes.
/// `lookup` is [`KernelCache::get_or_bake_simd`] at `isa`, reduced to
/// `(hit, evicted)`.
struct Cached {
    program: SimdProgram,
    image: MemoryImage,
}

impl Cached {
    fn new(source: &str, seed: u64) -> Cached {
        let parsed = simdize::parse_program(source).unwrap();
        let program = Simdizer::new()
            .policy(Policy::Zero)
            .reuse(ReuseMode::SoftwarePipeline)
            .compile(&parsed)
            .unwrap();
        let image = MemoryImage::with_seed(&parsed, VectorShape::V16, seed);
        Cached { program, image }
    }

    fn runtime_trip(seed: u64) -> Cached {
        Cached::new(
            "arrays { a: i32[256] @ 0; b: i32[256] @ 4; }
             for i in 0..ub { a[i] = b[i+1]; }",
            seed,
        )
    }

    fn kernel(
        &self,
        cache: &KernelCache,
        ub: u64,
        isa: IsaLevel,
    ) -> (Arc<simdize::SimdKernel>, bool, bool) {
        let pre = PredecodedKernel::new(&self.program).unwrap();
        let fingerprint = program_fingerprint(&self.program);
        let input = RunInput::with_ub(ub);
        let (kernel, lookup) = cache
            .get_or_bake_simd(
                fingerprint,
                &pre,
                &self.image,
                &input,
                &KernelOptions::new(),
                isa,
            )
            .unwrap();
        (kernel, lookup.hit, lookup.evicted)
    }

    fn lookup(&self, cache: &KernelCache, ub: u64) -> (bool, bool) {
        let (_, hit, evicted) = self.kernel(cache, ub, IsaLevel::Scalar);
        (hit, evicted)
    }
}

#[test]
fn cache_fingerprints_distinguish_policies_not_clones() {
    // Distinct known misalignments: Zero normalizes every stream to
    // offset 0 while Eager shifts straight to the store alignment, so
    // the generated programs (and fingerprints) must differ.
    let parsed = simdize::parse_program(
        "arrays { a: i32[256] @ 8; b: i32[256] @ 4; c: i32[256] @ 12; }
         for i in 0..ub { a[i] = b[i+1] + c[i+3]; }",
    )
    .unwrap();
    let compile = |policy| Simdizer::new().policy(policy).compile(&parsed).unwrap();
    let zero = compile(Policy::Zero);
    assert_eq!(
        program_fingerprint(&zero),
        program_fingerprint(&zero.clone())
    );
    assert_ne!(
        program_fingerprint(&zero),
        program_fingerprint(&compile(Policy::Eager))
    );

    // The fingerprint hashes the program's structure, so it must agree
    // with `==` in both directions: two independent compiles of one
    // source fingerprint equal, and every pair of the five policies x
    // three reuse modes that compiles to different programs
    // fingerprints different. (Four stream offsets feeding two
    // multiplies separate zero, eager, lazy and dominant; optimal finds
    // dominant's placement here, generates an equal program and must
    // fingerprint equal.)
    let parsed = simdize::parse_program(
        "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; d: i32[256] @ 0;
                  e: i32[256] @ 0; }
         for i in 0..ub { a[i+3] = b[i+1] * c[i+2] + d[i+1] * e[i+1]; }",
    )
    .unwrap();
    let mut compiled = Vec::new();
    for policy in Policy::ALL {
        for reuse in REUSES {
            let build = || Simdizer::new().policy(policy).reuse(reuse).compile(&parsed);
            let Ok(first) = build() else { continue };
            let again = build().unwrap();
            assert_eq!(first, again, "{policy}/{reuse:?}");
            assert_eq!(
                program_fingerprint(&first),
                program_fingerprint(&again),
                "{policy}/{reuse:?}: two compiles of one source"
            );
            compiled.push((format!("{policy}/{reuse:?}"), first));
        }
    }
    assert_eq!(compiled.len(), Policy::ALL.len() * REUSES.len());
    let mut classes = 0;
    for (k, (name_a, a)) in compiled.iter().enumerate() {
        for (name_b, b) in &compiled[k + 1..] {
            assert_eq!(
                a == b,
                program_fingerprint(a) == program_fingerprint(b),
                "{name_a} vs {name_b}"
            );
        }
        classes += usize::from(compiled[..k].iter().all(|(_, earlier)| earlier != a));
    }
    assert!(classes >= 12, "only {classes} distinct programs among 15");

    // ... and across sources: every `loops/` sample is its own program.
    let samples = simdize_suite::sample_loops();
    let prints: Vec<u64> = samples
        .iter()
        .map(|(_, src)| {
            let program = simdize::parse_program(src).unwrap();
            program_fingerprint(&Simdizer::new().compile(&program).unwrap())
        })
        .collect();
    assert!(prints.len() >= 5);
    for (k, a) in prints.iter().enumerate() {
        assert!(!prints[k + 1..].contains(a), "{}", samples[k].0);
    }
}

/// The fingerprint agrees with `==` over a large population: 512
/// distinct §5.3 corpus loops per seed for three seeds (the 4 × 6 shape
/// grid in turn, as the `compile-cold` benchmark draws them) and every
/// `loops/` sample, each under all five policies. Equal programs
/// fingerprint equal, and no two unequal programs share a fingerprint.
#[test]
fn fingerprints_separate_every_distinct_corpus_program() {
    let mut sources: Vec<String> = simdize_suite::sample_loops()
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    for seed in 1..=3 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let mut cell = 0;
        while seen.len() < 512 {
            let spec = WorkloadSpec::new(1 + cell % 4, 1 + cell / 4 % 6)
                .trip(TripSpec::KnownInRange(997, 1000));
            cell += 1;
            let text = synthesize(&spec, &mut rng).to_string();
            if seen.insert(text.clone()) {
                sources.push(text);
            }
        }
    }
    let mut by_print: HashMap<u64, SimdProgram> = HashMap::new();
    let mut programs = 0;
    for src in &sources {
        let parsed = simdize::parse_program(src).unwrap();
        for policy in Policy::ALL {
            let Ok(program) = Simdizer::new().policy(policy).compile(&parsed) else {
                continue;
            };
            programs += 1;
            let print = program_fingerprint(&program);
            assert_eq!(print, program_fingerprint(&program.clone()));
            match by_print.get(&print) {
                Some(earlier) => assert_eq!(earlier, &program, "collision at {print:#x}"),
                None => {
                    by_print.insert(print, program);
                }
            }
        }
    }
    assert!(programs >= 5 * 3 * 512, "{programs} programs");
    // Policies often agree on a loop (always on one with a single
    // load), so about half the programs are repeats.
    let distinct = by_print.len();
    assert!(distinct >= 4000, "{distinct} distinct of {programs}");
}

#[test]
fn cache_hit_shares_the_kernel_and_keys_on_input_and_layout() {
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(4, 8);
    let (k1, hit, _) = c.kernel(&cache, 100, IsaLevel::Scalar);
    assert!(!hit);
    let (k2, hit, _) = c.kernel(&cache, 100, IsaLevel::Scalar);
    assert!(
        hit && Arc::ptr_eq(&k1, &k2),
        "a hit must share the baked kernel"
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
    assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    // A different trip count is a distinct key ...
    assert_eq!(c.lookup(&cache, 60), (false, false));
    // ... a *different* image with the same placement is not: the
    // alignments are compile-time known, so every seed shares a layout.
    assert_eq!(Cached::runtime_trip(999).lookup(&cache, 100), (true, false));
    assert_eq!(cache.stats().occupied(), 2);
}

#[test]
fn cache_lru_evicts_the_oldest_entry_of_a_shard() {
    // One shard, capacity 2: the third distinct input evicts the least
    // recently used of the first two.
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(1, 2);
    c.lookup(&cache, 50);
    c.lookup(&cache, 51);
    assert_eq!(c.lookup(&cache, 50), (true, false), "touch 50 so 51 is LRU");
    assert_eq!(c.lookup(&cache, 52), (false, true));
    assert_eq!(
        c.lookup(&cache, 50),
        (true, false),
        "recently used entry survives"
    );
    assert_eq!(
        c.lookup(&cache, 51),
        (false, true),
        "the LRU entry was the victim"
    );
    let stats = cache.stats();
    assert_eq!((stats.evictions, stats.capacity_per_shard), (2, 2));
    assert_eq!(stats.occupancy, vec![2]);
}

#[test]
fn cache_of_capacity_one_evicts_in_strict_alternation() {
    // The degenerate LRU: every distinct key displaces the previous
    // one, so an A/B/A/B access pattern never hits and evicts on every
    // insert after the first.
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(1, 1);
    assert_eq!(
        c.lookup(&cache, 50),
        (false, false),
        "first insert fills the empty slot"
    );
    for round in 0..3 {
        for ub in [60, 50] {
            assert_eq!(
                c.lookup(&cache, ub),
                (false, true),
                "round {round}: thrashing never hits"
            );
        }
    }
    assert_eq!(
        c.lookup(&cache, 50),
        (true, false),
        "the resident key does hit"
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 7, 6));
    assert_eq!(stats.occupied(), 1);
}

#[test]
fn cache_eviction_counter_matches_the_occupancy_delta() {
    // Inserts minus evictions must equal residents at every step: the
    // counters and the occupancy snapshot describe the same history.
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(1, 3);
    for k in 0..10u64 {
        assert_eq!(
            c.lookup(&cache, 40 + k),
            (false, k >= 3),
            "evictions start at capacity"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.misses - stats.evictions,
            stats.occupied() as u64,
            "{stats:?}"
        );
    }
    assert_eq!((cache.stats().occupied(), cache.stats().evictions), (3, 7));
    cache.clear();
    let cleared = cache.stats();
    assert_eq!(
        cleared.occupied() as u64 + cleared.hits + cleared.misses + cleared.evictions,
        0
    );
}

#[test]
fn cache_same_key_race_converges_to_one_entry_with_identical_bytes() {
    // Threads released together on the *same* key: at most all of them
    // bake (a later insert refreshes the entry), exactly one entry
    // stays resident, and whichever kernel each thread got produces
    // byte-identical output.
    let c = Cached::runtime_trip(5);
    let cache = KernelCache::new(1, 4);
    let barrier = std::sync::Barrier::new(4);
    let images: Vec<MemoryImage> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let (kernel, _, _) = c.kernel(&cache, 100, IsaLevel::Scalar);
                    let mut image = c.image.clone();
                    kernel.run(&mut image).unwrap();
                    image
                })
            })
            .collect();
        racers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for image in &images[1..] {
        assert_eq!(image.first_difference(&images[0]), None);
    }
    let stats = cache.stats();
    assert_eq!(stats.occupied(), 1, "one key, one resident entry");
    assert_eq!(stats.hits + stats.misses, 4);
    assert_eq!(stats.evictions, 0, "a same-key refresh is not an eviction");
    assert_eq!(
        c.lookup(&cache, 100),
        (true, false),
        "the survivor serves later lookups"
    );
}

#[test]
fn cache_concurrent_lookups_count_every_lookup() {
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(8, 32);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for k in 0..32u64 {
                    let (kernel, _, _) = c.kernel(&cache, 50 + k % 4, IsaLevel::Scalar);
                    kernel.run(&mut c.image.clone()).unwrap();
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 8 * 32);
    assert_eq!(stats.occupied(), 4, "4 distinct keys resident");
    // Racing first-touch bakes may duplicate, but never exceed one per
    // thread per key.
    assert!((4..=32).contains(&stats.misses), "{stats:?}");
}

#[test]
fn cache_bake_errors_do_not_populate() {
    let fixed = Cached::new(
        "arrays { a: i32[256] @ 0; b: i32[256] @ 4; }
         for i in 0..100 { a[i] = b[i+1]; }",
        3,
    );
    let cache = KernelCache::new(2, 4);
    // A trip count the program does not declare fails the bake.
    let mismatch = cache.get_or_bake_simd(
        program_fingerprint(&fixed.program),
        &PredecodedKernel::new(&fixed.program).unwrap(),
        &fixed.image,
        &RunInput::with_ub(7),
        &KernelOptions::new(),
        IsaLevel::Scalar,
    );
    assert!(mismatch.is_err());
    assert_eq!(cache.stats().occupied(), 0);
    assert_eq!(
        fixed.lookup(&cache, 100),
        (false, false),
        "the good path still works"
    );
    assert_eq!(cache.stats().occupied(), 1);
}

#[test]
fn cache_keys_isa_tiers_separately_in_one_lru_arena() {
    // The same (program, input, layout) at the portable tier and at the
    // best host tier: two residents pinned to their tiers, identical
    // output, and — with capacity 2 — a third key evicts the older.
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(1, 2);
    let best = IsaLevel::host_best();
    let (scalar, hit, _) = c.kernel(&cache, 100, IsaLevel::Scalar);
    assert!(!hit);
    let (fast, hit, evicted) = c.kernel(&cache, 100, best);
    assert_eq!((scalar.isa(), fast.isa()), (IsaLevel::Scalar, best));
    assert_eq!(hit, best == IsaLevel::Scalar, "two tiers are two entries");
    assert!(!evicted);
    let (mut want, mut got) = (c.image.clone(), c.image.clone());
    scalar.run(&mut want).unwrap();
    fast.run(&mut got).unwrap();
    assert_eq!(got.first_difference(&want), None, "{best}");
    if best == IsaLevel::Scalar {
        return; // no second tier on this host
    }
    assert_eq!(
        c.lookup(&cache, 60),
        (false, true),
        "a third key evicts the LRU scalar entry"
    );
    assert!(
        c.kernel(&cache, 100, best).1,
        "the host-tier entry survived"
    );
    assert!(
        !c.kernel(&cache, 100, IsaLevel::Scalar).1,
        "the scalar entry was the victim"
    );
    let stats = cache.stats();
    assert_eq!(stats.occupied(), 2);
    assert_eq!(stats.misses - stats.evictions, stats.occupied() as u64);
}

/// Everything a bake produces that a caller can see: its listing,
/// stats, schedule and fusion telemetry, and the image after a run on
/// the portable tier and on the detected one — or the fault it raised.
type Outcome = Result<
    (
        String,
        simdize::RunStats,
        simdize::Schedule,
        simdize::FusionStats,
        Vec<simdize::FusionEvent>,
        MemoryImage,
        MemoryImage,
    ),
    ExecError,
>;

fn bake_outcome(
    compiled: &SimdProgram,
    img: &MemoryImage,
    input: &RunInput,
    opts: &KernelOptions,
) -> Outcome {
    let kernel = PredecodedKernel::new(compiled)?.bake(img, input, opts)?;
    let (mut portable, mut detected) = (img.clone(), img.clone());
    kernel.run(&mut portable)?;
    simdize::SimdKernel::lower(&kernel, IsaLevel::detect()).run(&mut detected)?;
    let events = kernel.fusion_events().to_vec();
    Ok((
        kernel.trace(),
        kernel.stats(),
        kernel.schedule(),
        kernel.fusion_stats(),
        events,
        portable,
        detected,
    ))
}

/// Whether a strip section of `listing` rotates a twin: a column behind
/// seed lanes that a plain copy of another register fills.
fn rotates_a_twin(listing: &str) -> bool {
    let mut columns = listing
        .lines()
        .filter_map(|l| l.split_once("seed lane(s) of column ").map(|(_, c)| c));
    columns.any(|c| {
        listing.lines().any(|l| {
            l.trim().split_once(" = ").is_some_and(|(d, src)| {
                d == c && src.starts_with('v') && src[1..].bytes().all(|b| b.is_ascii_digit())
            })
        })
    })
}

/// A bake does not depend on the bakes its thread made before: every
/// table a bake fills is the thread's, kept from one bake to the next,
/// so each bake here — a large program, then small ones, then the large
/// one again, each fused and unfused — must give what the same bake
/// gives on a fresh thread. Among the small ones: a rotation whose
/// source rotates twice (the unfused reduction beside a rotated store
/// makes a twin copy), `deinterleave`'s gather composition, a
/// reduction, and a bake that fails partway, at an out-of-bounds stream
/// of its pair loop.
#[test]
fn a_bake_does_not_depend_on_the_bakes_its_thread_made_before() {
    let mut rng = SplitMix64::seed_from_u64(46);
    let large = synthesize(
        &WorkloadSpec::new(4, 6).trip(TripSpec::KnownInRange(997, 1000)),
        &mut rng,
    );
    let sample = |name: &str| {
        let path = format!("{}/loops/{name}.loop", env!("CARGO_MANIFEST_DIR"));
        simdize::parse_program(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let mixed = simdize::parse_program(
        "arrays { out: i32[216] @ ?; sum: i32[4] @ 0; x: i32[216] @ ?; y: i32[216] @ ?; }
         for i in 0..200 { out[i+3] = x[i+1] + y[i+2]; sum[i] += x[i+1] * y[i+2]; }",
    )
    .unwrap();
    let runtime = simdize::parse_program(RUNTIME).unwrap();
    let cases = [
        (&large, large.trip().known().unwrap(), 1),
        (&mixed, 200, 3),
        (&sample("deinterleave"), 500, 1),
        (&sample("dot_product"), 1000, 2),
        (&runtime, 197, 5),
        // Past the arrays' end: the pair loop's last stream is out of bounds.
        (&runtime, 1000, 5),
        (&sample("figure1"), 1000, 1),
        (&large, large.trip().known().unwrap(), 1),
    ];
    let (mut twins, mut composed, mut faults) = (0, 0, 0);
    for (program, ub, seed) in cases {
        let compiled = Simdizer::new().compile(program).unwrap();
        let img = MemoryImage::with_seed(program, VectorShape::V16, seed);
        let input = RunInput::with_ub(ub);
        for opts in [KernelOptions::new(), KernelOptions::new().fuse(false)] {
            let here = bake_outcome(&compiled, &img, &input, &opts);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| bake_outcome(&compiled, &img, &input, &opts))
                    .join()
                    .unwrap()
            });
            assert_eq!(here, fresh, "{program} ub={ub}");
            match here {
                Ok((listing, ..)) => {
                    twins += usize::from(rotates_a_twin(&listing));
                    composed +=
                        usize::from(listing.contains("vperm(") && listing.contains("vload.fused"));
                }
                Err(ExecError::ChunkOutOfBounds { .. }) => faults += 1,
                Err(e) => panic!("{program} ub={ub}: {e}"),
            }
        }
    }
    assert!(
        twins > 0 && composed > 0 && faults == 2,
        "{twins} {composed} {faults}"
    );
}
