//! Differential tests for the compiled engine: `simdize-engine` must
//! be byte-for-byte and stat-for-stat identical to the `simdize-vm`
//! interpreter (the reference semantics) across the full configuration
//! matrix, its kernel lowering is pinned by a golden disassembly, and
//! its kernel cache keeps its keying, LRU and counter contracts.

use simdize::{
    program_fingerprint, run_simd, CompiledKernel, IsaLevel, KernelCache, KernelOptions,
    MemoryImage, Policy, PredecodedKernel, ReuseMode, RunInput, SimdProgram, SimdizeError,
    Simdizer, VectorShape,
};
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
                    let mut interp_img =
                        MemoryImage::with_seed(&program, VectorShape::V16, seed);
                    let mut engine_img = interp_img.clone();
                    let want = run_simd(&compiled, &mut interp_img, &input).unwrap();
                    let kernel =
                        CompiledKernel::compile(&compiled, &engine_img, &input).unwrap();
                    let got = kernel.run(&mut engine_img).unwrap();
                    assert_eq!(
                        got, want,
                        "{policy}/{reuse:?} seed {seed}: stats diverged"
                    );
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
    assert!(combos >= 36, "matrix too sparse: only {combos} combinations ran");
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

/// Pins the lowered kernel for the paper's Figure 1 loop under the
/// zero-shift policy with software pipelining: the prologue shifts both
/// streams to offset zero, the unrolled pair body carries three
/// registers across iterations and the epilogue finishes with a
/// load–splice–store partial store. Offsets are relative to each
/// array's base, so the text is layout-stable.
#[test]
fn golden_disassembly_for_figure1_zero_sp() {
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
    let kernel = CompiledKernel::compile(&compiled, &img, &RunInput::with_ub(100)).unwrap();
    let expected = "\
; kernel: V=16 D=4 B=4 ub=100 upper=97 regs=90
prologue (i = 0):
  v0 = load.chunk arr1[base-16]
  v1 = load.chunk arr1[base+0]
  v2 = shift(v0, v1, 4)
  v3 = load.chunk arr2[base-16]
  v4 = load.chunk arr2[base+0]
  v5 = shift(v3, v4, 8)
  v6 = add(v2, v5)
  v8 = load.chunk arr1[base+16]
  v9 = shift(v1, v8, 4)
  v11 = load.chunk arr2[base+16]
  v12 = shift(v4, v11, 8)
  v13 = add(v9, v12)
  v14 = shift(v6, v13, 4)
  v15 = load.chunk arr0[base+0]
  v16 = splice(v15, v14, 12)
  store.chunk arr0[base+0], v16
  v17 = v13
  v25 = v8
  v29 = v11
pair (i = 4, step 8, x12):
  v27 = load.chunk arr1[base+32; +32/iter]
  v28 = shift(v25, v27, 4)
  v31 = load.chunk arr2[base+32; +32/iter]
  v32 = shift(v29, v31, 8)
  v33 = add(v28, v32)
  v34 = shift(v17, v33, 4)
  store.chunk arr0[base+16; +32/iter], v34
  v84 = load.chunk arr1[base+48; +32/iter]
  v85 = shift(v27, v84, 4)
  v86 = load.chunk arr2[base+48; +32/iter]
  v87 = shift(v31, v86, 8)
  v88 = add(v85, v87)
  v89 = shift(v33, v88, 4)
  store.chunk arr0[base+32; +32/iter], v89
  v25 = v84
  v29 = v86
  v17 = v88
epilogue (i = 100):
  v67 = load.chunk arr1[base+384]
  v68 = load.chunk arr1[base+400]
  v69 = shift(v67, v68, 4)
  v70 = load.chunk arr2[base+384]
  v71 = load.chunk arr2[base+400]
  v72 = shift(v70, v71, 8)
  v73 = add(v69, v72)
  v75 = load.chunk arr1[base+416]
  v76 = shift(v68, v75, 4)
  v78 = load.chunk arr2[base+416]
  v79 = shift(v71, v78, 8)
  v80 = add(v76, v79)
  v81 = shift(v73, v80, 4)
  v82 = load.chunk arr0[base+400]
  v83 = splice(v81, v82, 12)
  store.chunk arr0[base+400], v83
";
    assert_eq!(kernel.disassembly(), expected);
}

/// One program, its pre-decode and a seeded image: what a cache lookup
/// takes. `lookup` is [`KernelCache::get_or_bake_simd`] at `isa`,
/// reduced to `(hit, evicted)`.
struct Cached {
    program: SimdProgram,
    pre: PredecodedKernel,
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
        let pre = PredecodedKernel::new(&program).unwrap();
        let image = MemoryImage::with_seed(&parsed, VectorShape::V16, seed);
        Cached { program, pre, image }
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
        let opts = KernelOptions::new().disassembly(false);
        let fingerprint = program_fingerprint(&self.program);
        let (kernel, lookup) = cache
            .get_or_bake_simd(fingerprint, &self.pre, &self.image, &RunInput::with_ub(ub), &opts, isa)
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
    assert_eq!(program_fingerprint(&zero), program_fingerprint(&zero.clone()));
    assert_ne!(program_fingerprint(&zero), program_fingerprint(&compile(Policy::Eager)));

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

#[test]
fn cache_hit_shares_the_kernel_and_keys_on_input_and_layout() {
    let c = Cached::runtime_trip(1);
    let cache = KernelCache::new(4, 8);
    let (k1, hit, _) = c.kernel(&cache, 100, IsaLevel::Scalar);
    assert!(!hit);
    let (k2, hit, _) = c.kernel(&cache, 100, IsaLevel::Scalar);
    assert!(hit && Arc::ptr_eq(&k1, &k2), "a hit must share the baked kernel");
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
    assert_eq!(c.lookup(&cache, 50), (true, false), "recently used entry survives");
    assert_eq!(c.lookup(&cache, 51), (false, true), "the LRU entry was the victim");
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
    assert_eq!(c.lookup(&cache, 50), (false, false), "first insert fills the empty slot");
    for round in 0..3 {
        for ub in [60, 50] {
            assert_eq!(c.lookup(&cache, ub), (false, true), "round {round}: thrashing never hits");
        }
    }
    assert_eq!(c.lookup(&cache, 50), (true, false), "the resident key does hit");
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
        assert_eq!(c.lookup(&cache, 40 + k), (false, k >= 3), "evictions start at capacity");
        let stats = cache.stats();
        assert_eq!(stats.misses - stats.evictions, stats.occupied() as u64, "{stats:?}");
    }
    assert_eq!((cache.stats().occupied(), cache.stats().evictions), (3, 7));
    cache.clear();
    let cleared = cache.stats();
    assert_eq!(cleared.occupied() as u64 + cleared.hits + cleared.misses + cleared.evictions, 0);
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
    assert_eq!(c.lookup(&cache, 100), (true, false), "the survivor serves later lookups");
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
        &fixed.pre,
        &fixed.image,
        &RunInput::with_ub(7),
        &KernelOptions::new(),
        IsaLevel::Scalar,
    );
    assert!(mismatch.is_err());
    assert_eq!(cache.stats().occupied(), 0);
    assert_eq!(fixed.lookup(&cache, 100), (false, false), "the good path still works");
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
    assert_eq!(c.lookup(&cache, 60), (false, true), "a third key evicts the LRU scalar entry");
    assert!(c.kernel(&cache, 100, best).1, "the host-tier entry survived");
    assert!(!c.kernel(&cache, 100, IsaLevel::Scalar).1, "the scalar entry was the victim");
    let stats = cache.stats();
    assert_eq!(stats.occupied(), 2);
    assert_eq!(stats.misses - stats.evictions, stats.occupied() as u64);
}
