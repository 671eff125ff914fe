//! Heap traffic on the path every `run` request takes, counted.
//!
//! Seeding an image, running the scalar oracle and fingerprinting a
//! program once cost one `malloc` per element written or instruction
//! hashed (`Value::to_le_bytes` returned a `Vec`, the fingerprint
//! rendered the program to a `String`). This binary installs a counting
//! global allocator and pins the fix as a scaling law rather than a
//! number: doubling the array length, the trip count or the instruction
//! count must not change how many times each function allocates. The
//! engine's once-per-program check (`PredecodedKernel::new`) and a run
//! of a lowered kernel are pinned at zero. Parsing, untraced
//! placement, generation and baking are pinned per source term: what an
//! added `+ b[i+k]` costs — a bake in bytes as well as in calls. A
//! second bake on a thread is pinned to what its plan keeps.

use simdize::{
    generate, parse_program, program_fingerprint, run_scalar, CodegenOptions, IsaLevel,
    KernelOptions, LoopProgram, MemoryImage, Policy, PredecodedKernel, ReorgGraph, ReuseMode,
    RunInput, SimdKernel, SimdProgram, Simdizer, VectorShape,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (the test harness runs each
    /// test on its own thread, so tests do not see each other).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread handed back (`dealloc` calls).
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many times `f` called the allocator.
fn allocations(f: impl FnOnce()) -> u64 {
    heap_traffic(f).0
}

/// How many times `f` called the allocator, and how many bytes it
/// asked for.
fn heap_traffic(f: impl FnOnce()) -> (u64, u64) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        CALLS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// A two-statement loop over `len`-element arrays, trip `len − 8`.
fn program(len: u64) -> LoopProgram {
    parse_program(&format!(
        "arrays {{ a: i16[{len}] @ 2; b: i16[{len}] @ ?; c: i16[{len}] @ 6; d: i16[{len}] @ 0; }}
         params {{ k; }}
         for i in 0..{} {{ a[i+1] = b[i+3] * k + c[i]; d[i] = max(b[i], abs(c[i+2])) - 7; }}",
        len - 8
    ))
    .unwrap()
}

#[test]
fn reseeding_an_image_allocates_independently_of_its_size() {
    let counts: Vec<u64> = [256, 512, 1024]
        .into_iter()
        .map(|len| {
            let p = program(len);
            let mut image = MemoryImage::with_seed(&p, VectorShape::V16, 1);
            let n = allocations(|| image.reseed(&p, VectorShape::V16, 2));
            assert_eq!(image, MemoryImage::with_seed(&p, VectorShape::V16, 2));
            n
        })
        .collect();
    assert!(counts.iter().all(|&n| n == counts[0]), "{counts:?}");
    // The layout's three small vectors (offsets, bases, lengths) and
    // their growth; nothing per element.
    assert!(counts[0] <= 8, "{counts:?}");
}

#[test]
fn the_scalar_oracle_allocates_independently_of_the_trip_count() {
    let counts: Vec<u64> = [256, 512, 1024]
        .into_iter()
        .map(|len| {
            let p = program(len);
            let mut image = MemoryImage::with_seed(&p, VectorShape::V16, 1);
            let mut ops = 0;
            let n = allocations(|| ops = run_scalar(&p, &mut image, len - 8, &[3]).unwrap());
            assert_eq!(ops, 11 * (len - 8));
            n
        })
        .collect();
    assert!(counts.iter().all(|&n| n == counts[0]), "{counts:?}");
    // Per statement: the flattened steps and the ideal-op count's load
    // list; per run: the statement table and the value stack.
    assert!(counts[0] <= 16, "{counts:?}");
}

fn compile(src: &str) -> SimdProgram {
    let program = parse_program(src).unwrap();
    Simdizer::new()
        .policy(Policy::Zero)
        .reuse(ReuseMode::SoftwarePipeline)
        .compile(&program)
        .unwrap()
}

#[test]
fn fingerprinting_never_allocates() {
    let one = compile(
        "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
         for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
    );
    let two = compile(
        "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; d: i32[128] @ 12;
                  e: i32[128] @ 4; }
         for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; d[i+1] = b[i+2] * c[i+3] - b[i];
                           e[i+2] = c[i+1] ^ b[i+3]; }",
    );
    let insts = |p: &SimdProgram| {
        let (pro, body, epi) = p.static_counts();
        pro + body + epi
    };
    assert!(
        insts(&two) >= 2 * insts(&one),
        "{} vs {}",
        insts(&two),
        insts(&one)
    );
    for program in [&one, &two] {
        let mut fp = 0;
        assert_eq!(allocations(|| fp = program_fingerprint(program)), 0);
        assert_eq!(fp, program_fingerprint(&program.clone()));
    }
    assert_ne!(program_fingerprint(&one), program_fingerprint(&two));
}

/// Checking a program for the engine borrows it and allocates nothing,
/// whatever its size: the bake walks the VIR itself, so there is no
/// decoded copy to build. The larger program has runtime alignments, so
/// counting its distinct runtime expressions has work to do too.
#[test]
fn checking_a_program_for_the_engine_never_allocates() {
    let one = compile(
        "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
         for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
    );
    let two = compile(
        "arrays { a: i32[512] @ ?; b: i32[512] @ ?; c: i32[512] @ ?; d: i32[512] @ ?; }
         for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; d[i+1] = b[i+2] * c[i+3] - b[i]; }",
    );
    assert!(one.upper_bound().as_const().is_some() && two.upper_bound().is_runtime());
    assert!(two.static_counts().1 > one.static_counts().1);
    for program in [&one, &two] {
        let mut checked = false;
        let calls = allocations(|| checked = PredecodedKernel::new(program).is_ok());
        assert!(checked);
        assert_eq!(calls, 0);
    }
}

/// A run of a lowered kernel allocates nothing: its register block is a
/// stack array up to eight columns, and superinstructions and stream
/// windows are slices of that block and of the image. Every `loops/`
/// sample and the `kernel-steady` shapes `fig1`, `chain6`, `fir4` and
/// `copy3`, on the detected tier and on the portable one.
#[test]
fn running_a_lowered_kernel_never_allocates() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/loops");
    let mut sources: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    assert!(sources.len() >= 5, "{} samples in {dir}", sources.len());
    let (n, len) = (4096, 4112);
    sources.extend([
        format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8; }}
             for i in 0..{n} {{ a[i+3] = b[i+1] + c[i+2]; }}"
        ),
        format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8;
                       d: i32[{len}] @ 12; e: i32[{len}] @ 4; f: i32[{len}] @ 8;
                       g: i32[{len}] @ 12; }}
             for i in 0..{n} {{ a[i] = b[i+1] + c[i+2] + d[i+3] + e[i+3] + f[i+1] + g[i+2]; }}"
        ),
        format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 0; }}
             for i in 0..{n} {{ a[i] = b[i] + b[i+1] + b[i+2] + b[i+3]; }}"
        ),
        format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 12; }}
             for i in 0..{n} {{ a[i] = b[i+3]; }}"
        ),
    ]);
    for src in sources {
        let program = parse_program(&src).unwrap();
        let compiled = Simdizer::new().compile(&program).unwrap();
        let ub = program.trip().known().unwrap_or(1000);
        let mut image = MemoryImage::with_seed(&program, VectorShape::V16, 1);
        let detected = SimdKernel::compile(&compiled, &image, &RunInput::with_ub(ub)).unwrap();
        assert!(!detected.is_fallback());
        for isa in [detected.isa(), IsaLevel::Scalar] {
            let kernel = SimdKernel::lower(detected.base(), isa);
            let mut ran = false;
            let calls = allocations(|| ran = kernel.run(&mut image).is_ok());
            assert!(ran);
            assert_eq!(calls, 0, "{isa}: {program}");
        }
    }
}

/// A one-statement loop summing `terms` loads of `b`: each term past
/// the first adds `+ b[i+k]` to the source.
fn sum_of_terms(terms: usize) -> String {
    let rhs: Vec<String> = (0..terms).map(|k| format!("b[i+{k}]")).collect();
    format!(
        "arrays {{ a: i32[1100] @ 0; b: i32[1100] @ 4; }}
         for i in 0..1000 {{ a[i+1] = {}; }}",
        rhs.join(" + ")
    )
}

/// Allocator calls `f` makes on the source of each term count in
/// `terms`, and the largest growth per added term between neighbours.
fn growth_per_term(terms: &[usize], f: impl Fn(&str) -> u64) -> (Vec<u64>, f64) {
    let counts: Vec<u64> = terms.iter().map(|&n| f(&sum_of_terms(n))).collect();
    let worst = terms
        .windows(2)
        .zip(counts.windows(2))
        .map(|(n, c)| (c[1] as f64 - c[0] as f64) / (n[1] - n[0]) as f64)
        .fold(f64::MIN, f64::max);
    (counts, worst)
}

const TERMS: [usize; 4] = [4, 8, 16, 32];

/// Tokens borrow the source, identifiers are looked up by `&str`, and
/// the source is lexed one token ahead of the parser rather than into
/// a token vector, so a `+ b[i+k]` term costs the parser only its
/// expression node's two boxes — not a `String` per identifier, a
/// token copy, or a share of the vector's doublings.
#[test]
fn parsing_allocates_two_calls_per_term() {
    let (counts, worst) = growth_per_term(&TERMS, |src| {
        let mut parsed = false;
        let n = allocations(|| parsed = parse_program(src).is_ok());
        assert!(parsed);
        n
    });
    assert!(worst <= 2.0, "{worst} calls per term: {counts:?}");
}

/// A program's tables are shared, so a clone — what graph building
/// and the driver take of the loop they compile — allocates nothing,
/// however many statements and terms the loop has.
#[test]
fn cloning_a_program_never_allocates() {
    for program in [program(256), parse_program(&sum_of_terms(32)).unwrap()] {
        let mut copy = None;
        assert_eq!(allocations(|| copy = Some(program.clone())), 0);
        assert_eq!(copy.as_ref(), Some(&program));
        assert_eq!(allocations(|| drop(copy)), 0);
    }
}

/// Untraced placement builds no decision records — no `format!`ed
/// description or rule per load — so a `+ b[i+k]` term costs a greedy
/// policy only the source clone's two boxes and the rebuilt nodes'
/// operand lists. The optimal search adds one DP row per node, computed
/// once per subtree rather than once per ancestor.
#[test]
fn untraced_placement_allocates_few_calls_per_term() {
    for policy in Policy::ALL {
        let (counts, worst) = growth_per_term(&TERMS, |src| {
            let graph = ReorgGraph::build(&parse_program(src).unwrap(), VectorShape::V16).unwrap();
            let mut placed = false;
            let n = allocations(|| placed = graph.with_policy(policy).is_ok());
            assert!(placed);
            n
        });
        let bound = if policy == Policy::Optimal { 5.5 } else { 4.0 };
        assert!(
            worst <= bound,
            "{policy}: {worst} calls per term: {counts:?}"
        );
    }
}

/// The generator value-numbers each instruction as it emits it, in a
/// table keyed by a `Copy` key and sized from the graph, and emits its
/// sections and software-pipelining state into storage sized from the
/// graph too: a `+ b[i+k]` term costs untraced generation no allocator
/// call of its own, only a share of a doubling now and then.
/// Generating into growing `Vec`s and numbering afterwards, in a pass
/// with a growing map of its own, cost 2.25 calls per term without
/// reuse and 4.25 with software pipelining under `cargo test`, which
/// also counts the debug-build checks between passes (1.5 without
/// reuse in a release build). Predictive commoning builds signature
/// strings per candidate and is not pinned.
#[test]
fn untraced_generation_allocates_under_one_call_per_term() {
    for reuse in [ReuseMode::None, ReuseMode::SoftwarePipeline] {
        let (counts, worst) = growth_per_term(&TERMS, |src| {
            let placed = ReorgGraph::build(&parse_program(src).unwrap(), VectorShape::V16)
                .unwrap()
                .with_policy(Policy::Zero)
                .unwrap();
            let options = CodegenOptions::default().reuse(reuse);
            let mut generated = false;
            let n = allocations(|| generated = generate(&placed, &options).is_ok());
            assert!(generated);
            n
        });
        assert!(
            worst <= 1.0,
            "{reuse:?}: {worst} calls per term: {counts:?}"
        );
    }
}

/// A bake sizes every table it fills by the plan it bakes: registers
/// are numbered densely as they are first defined, the loop-entry
/// fixpoint runs over the registers a loop reads before it writes them,
/// and the tables fusion and lowering fill are the thread's, cleared
/// and re-sized per bake, not built per pass, round or section. So a
/// `+ b[i+k]` term costs a bake — trace fusion and lowering included,
/// and the first bake on a thread growing those tables — at most one
/// allocator call and 4 KiB. Sizing them by the VIR's register id
/// space, and cloning the loop-entry facts every round, cost 8.2 KiB
/// (and 0.57 calls) per term.
#[test]
fn baking_allocates_in_proportion_to_the_plan() {
    let traffic: Vec<(u64, u64)> = TERMS
        .iter()
        .map(|&n| {
            let simd = Simdizer::new()
                .compile(&parse_program(&sum_of_terms(n)).unwrap())
                .unwrap();
            let image = MemoryImage::with_seed(simd.source(), VectorShape::V16, 1);
            let pre = PredecodedKernel::new(&simd).unwrap();
            let mut baked = false;
            let traffic = heap_traffic(|| {
                baked = pre
                    .bake(&image, &RunInput::with_ub(1000), &KernelOptions::new())
                    .is_ok()
            });
            assert!(baked);
            traffic
        })
        .collect();
    let calls: Vec<u64> = traffic.iter().map(|t| t.0).collect();
    let bytes: Vec<u64> = traffic.iter().map(|t| t.1).collect();
    // Over the whole range: a table's doubling lands between whichever
    // neighbours it lands between.
    let per_term = |v: &[u64]| {
        (v[v.len() - 1] as f64 - v[0] as f64) / (TERMS[TERMS.len() - 1] - TERMS[0]) as f64
    };
    let (per_call, per_byte) = (per_term(&calls), per_term(&bytes));
    assert!(per_call <= 1.0, "{per_call} calls per term: {calls:?}");
    assert!(per_byte <= 4096.0, "{per_byte} bytes per term: {bytes:?}");
}

/// The allocator calls and the blocks handed back of the first and the
/// second bake of `sum_of_terms(terms)` on this thread. Both plans stay
/// alive, so no plan's drop counts.
fn bake_twice(terms: usize) -> [(u64, u64); 2] {
    let simd = Simdizer::new()
        .compile(&parse_program(&sum_of_terms(terms)).unwrap())
        .unwrap();
    let image = MemoryImage::with_seed(simd.source(), VectorShape::V16, 1);
    let pre = PredecodedKernel::new(&simd).unwrap();
    let mut kept = Vec::new();
    [(); 2].map(|()| {
        let frees = FREES.with(Cell::get);
        let calls = allocations(|| {
            kept.push(
                pre.bake(&image, &RunInput::with_ub(1000), &KernelOptions::new())
                    .unwrap(),
            )
        });
        (calls, FREES.with(Cell::get) - frees)
    })
}

/// Every table a bake fills and throws away is the thread's, kept
/// between bakes: a second bake of a program on the same thread hands
/// no block back — each call it makes is for the plan it keeps (its
/// sections' ops, superinstructions and strip lists, its events, its
/// array bases) — and makes no more calls for a sum of 32 terms than
/// for one of 4. Building the tables per bake cost a second bake 42–50
/// calls, rising with the terms, and 26–29 blocks handed back.
#[test]
fn a_second_bake_on_a_thread_allocates_only_its_plan() {
    let bakes: Vec<[(u64, u64); 2]> = TERMS.iter().map(|&n| bake_twice(n)).collect();
    let first = bakes[0][1].0;
    assert!(first <= 16, "{bakes:?}");
    for (n, [_, (calls, frees)]) in TERMS.iter().zip(&bakes) {
        assert_eq!(*frees, 0, "{n} terms: {bakes:?}");
        assert!(*calls <= first, "{n} terms: {bakes:?}");
    }
}
