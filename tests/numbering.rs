//! What value numbering may and may not merge (§5.5 MemNorm + CSE).
//!
//! The generator numbers every instruction as it emits it, and
//! predictive commoning's initializers are numbered by a pass over the
//! finished program (`value_number`); both use one table. These tests
//! pin its semantics from the outside, on generated and patched
//! programs: chunk and syntactic load
//! keys, stores retiring loads of their array, guarded-block scoping,
//! compile-time-false blocks, and operand order. Every program here is
//! also held to `verify_program`, which rejects a read of a register
//! defined only inside another guarded block.

use simdize::{
    generate, parse_program, verify_program, Addr, ArrayId, CodegenOptions, Policy, ReorgGraph,
    ReuseMode, SimdProgram, VInst, VectorShape,
};
use simdize_codegen::value_number;

fn compile(src: &str, policy: Policy, options: CodegenOptions) -> SimdProgram {
    let program = parse_program(src).unwrap();
    let placed = ReorgGraph::build(&program, VectorShape::V16)
        .unwrap()
        .with_policy(policy)
        .unwrap();
    let simd = generate(&placed, &options).unwrap();
    verify_program(&simd).unwrap();
    simd
}

/// Instructions of `insts` (guarded blocks included) that `pred` holds
/// for.
fn count(insts: &[VInst], pred: &impl Fn(&VInst) -> bool) -> usize {
    insts
        .iter()
        .map(|inst| match inst {
            VInst::Guarded { body, .. } => count(body, pred),
            _ => usize::from(pred(inst)),
        })
        .sum()
}

/// Loads of the array declared `array`-th in the source.
fn loads_of(insts: &[VInst], array: usize) -> usize {
    count(
        insts,
        &|inst| matches!(inst, VInst::LoadA { addr, .. } if addr.array.index() == array),
    )
}

fn body_loads(src: &str, memnorm: bool) -> usize {
    let simd = compile(
        src,
        Policy::Lazy,
        CodegenOptions::default().memnorm(memnorm).unroll(false),
    );
    count(simd.body(), &|inst| matches!(inst, VInst::LoadA { .. }))
}

#[test]
fn chunk_normalization_merges_same_chunk_loads() {
    // b[i] and b[i+1] (bytes 0 and 4 past a 16-byte-aligned base) always
    // fall in the same chunk.
    let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
               for i in 0..64 { a[i] = b[i] + b[i+1]; }";
    assert!(body_loads(src, true) < body_loads(src, false));
}

#[test]
fn syntactic_duplicates_always_merge() {
    let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
               for i in 0..64 { a[i] = b[i+1] + b[i+1]; }";
    assert_eq!(body_loads(src, false), body_loads(src, true));
}

#[test]
fn software_pipelining_keeps_prologue_defs_used_by_body() {
    let src = "arrays { a: i32[512] @ 0; b: i32[512] @ 0; c: i32[512] @ 0; }
               for i in 0..256 { a[i+3] = b[i+1] + c[i+2]; }";
    let options = CodegenOptions::default()
        .reuse(ReuseMode::SoftwarePipeline)
        .unroll(false);
    let simd = compile(src, Policy::Zero, options);
    // One initializer copy per carried chain (three shifts under the
    // zero policy), read by the body before its rotation rewrites it.
    let copies = count(simd.prologue(), &|inst| matches!(inst, VInst::Copy { .. }));
    assert_eq!(copies, 3);
}

/// A source loop never loads an array it stores, so this body is
/// patched in: `b`'s chunk is loaded, optionally stored, and loaded
/// again (through `b[i+1]`, the same chunk under MemNorm) into `a`.
#[test]
fn a_store_between_same_chunk_loads_blocks_the_merge() {
    let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
               for i in 0..64 { a[i] = b[i]; }";
    let simd = compile(src, Policy::Zero, CodegenOptions::default().unroll(false));
    let (a, b) = (ArrayId::from_index(0), ArrayId::from_index(1));
    let numbered_body_loads = |unaligned: bool, store: bool| {
        let mut patched = simd.clone();
        let (x, y) = (patched.alloc_vreg(), patched.alloc_vreg());
        let load = |dst, addr| match unaligned {
            true => VInst::LoadU { dst, addr },
            false => VInst::LoadA { dst, addr },
        };
        let mut body = vec![load(x, Addr::new(b, 0))];
        if store {
            body.push(VInst::StoreA {
                addr: Addr::new(b, 0),
                src: x,
            });
        }
        body.push(load(y, Addr::new(b, i64::from(!unaligned))));
        body.push(VInst::StoreA {
            addr: Addr::new(a, 0),
            src: y,
        });
        *patched.body_mut() = body;
        value_number(&mut patched, true);
        count(patched.body(), &|inst| {
            matches!(inst, VInst::LoadA { .. } | VInst::LoadU { .. })
        })
    };
    for unaligned in [false, true] {
        assert_eq!(numbered_body_loads(unaligned, false), 1, "{unaligned}");
        assert_eq!(numbered_body_loads(unaligned, true), 2, "{unaligned}");
    }
}

#[test]
fn values_numbered_inside_a_runtime_guard_stay_inside_it() {
    // With a runtime trip count, the epilogue's full-block store and
    // its partial store are separate guarded blocks that each compute
    // `b[i+1] + c[i+2]` at the same iteration: the second must compute
    // it again rather than read the first block's registers.
    let src = "arrays { a: i32[4096] @ 0; b: i32[4096] @ 0; c: i32[4096] @ 0; }
               for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }";
    let simd = compile(src, Policy::Zero, CodegenOptions::default().unroll(false));
    let blocks: Vec<&[VInst]> = simd
        .epilogue()
        .iter()
        .filter_map(|inst| match inst {
            VInst::Guarded { body, .. } => Some(body.as_slice()),
            _ => None,
        })
        .collect();
    assert_eq!(blocks.len(), 2, "{simd}");
    for block in blocks {
        assert!(loads_of(block, 1) > 0, "{simd}");
        assert!(loads_of(block, 2) > 0, "{simd}");
    }
}

#[test]
fn a_compile_time_false_block_leaves_nothing_in_the_table() {
    // Figure 1's epilogue leaves 12 bytes (< V): the full-block store
    // fails at compile time and is dropped, and the partial store
    // that remains must load its operands itself.
    let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
               for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";
    let simd = compile(src, Policy::Zero, CodegenOptions::default().unroll(false));
    assert!(!simd
        .epilogue()
        .iter()
        .any(|inst| matches!(inst, VInst::Guarded { .. })));
    let stores = count(simd.epilogue(), &|inst| {
        matches!(inst, VInst::StoreA { .. })
    });
    assert_eq!(stores, 1, "{simd}");
    assert!(loads_of(simd.epilogue(), 1) > 0, "{simd}");
    assert!(loads_of(simd.epilogue(), 2) > 0, "{simd}");
}

#[test]
fn reassociable_operands_merge_in_either_order() {
    let body_ops = |op: &str| {
        let src = format!(
            "arrays {{ x: i32[128] @ 0; y: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }}
             for i in 0..64 {{ x[i] = b[i] {op} c[i]; y[i] = c[i] {op} b[i]; }}"
        );
        let simd = compile(&src, Policy::Zero, CodegenOptions::default().unroll(false));
        count(simd.body(), &|inst| matches!(inst, VInst::Bin { .. }))
    };
    assert_eq!(body_ops("+"), 1);
    assert_eq!(body_ops("*"), 1);
    assert_eq!(body_ops("-"), 2);
}
