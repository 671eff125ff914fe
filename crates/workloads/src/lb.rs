//! The analytic operations-per-datum lower bound of paper §5.3.

use simdize_ir::{AlignKind, LoopProgram, VectorShape};
use simdize_reorg::{distinct_alignments, pack_chunks, Offset, Policy, ReorgGraph};
use std::collections::HashSet;

/// The lower bound on operations per datum for simdizing `program`
/// under `policy` (paper §5.3). Accounts, per simdized iteration, for:
///
/// * one vector load per *distinct* 16-byte-aligned static load (two
///   loads that provably map to the same aligned chunk count once —
///   footnote 3) and one vector store per statement;
/// * the minimum number of data reorganization operations: for the
///   zero-shift policy, exactly one `vshiftpair` per misaligned stream
///   (its shift count is fully deterministic); for the other policies,
///   `n − 1` per statement for `n` distinct alignments among the
///   statement's loads and store;
/// * the loop's data computations (one vector op per scalar op);
/// * for a non-unit-stride load (a *pack*), the chunks its window
///   covers, each loaded once — a stride-`s` window advances `s` chunks
///   an iteration, so a chunk the previous window also covered counts
///   once — and one `vperm` per chunk; for a non-unit-stride store (a
///   *scatter*), a load, a `vperm` and a store per covered chunk;
///
/// and excludes all architecture- and compiler-dependent overhead
/// (address computation, constant generation, loop control).
///
/// # Panics
///
/// Panics if the element does not fit `shape` (the pipeline rejects
/// such programs before this point).
pub fn lower_bound_opd(program: &LoopProgram, shape: VectorShape, policy: Policy) -> f64 {
    lower_bound_parts(program, shape, policy).opd()
}

/// The components of the §5.3 lower bound, per simdized iteration.
///
/// Exposed so the evaluation harness can reproduce the paper's Figure
/// 11/12 bar breakdown (bound / reorganization overhead / other
/// overhead) component by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBound {
    /// Distinct 16-byte-aligned loads per iteration (footnote 3).
    pub loads: usize,
    /// Vector stores per iteration (one per statement).
    pub stores: usize,
    /// Minimum data reorganization operations per iteration.
    pub shifts: usize,
    /// Vector data computations per iteration.
    pub ops: usize,
    /// Blocking factor `B`.
    pub block: u32,
    /// Statements per loop.
    pub statements: usize,
}

impl LowerBound {
    /// Data elements produced per simdized iteration.
    pub fn data_per_iteration(&self) -> f64 {
        self.block as f64 * self.statements as f64
    }

    /// The bound in operations per datum.
    pub fn opd(&self) -> f64 {
        (self.loads + self.stores + self.shifts + self.ops) as f64 / self.data_per_iteration()
    }

    /// Just the reorganization component in operations per datum.
    pub fn shift_opd(&self) -> f64 {
        self.shifts as f64 / self.data_per_iteration()
    }
}

/// Computes the components of [`lower_bound_opd`].
///
/// # Panics
///
/// Panics if the element does not fit `shape`.
pub fn lower_bound_parts(program: &LoopProgram, shape: VectorShape, policy: Policy) -> LowerBound {
    let graph = ReorgGraph::build(program, shape).expect("element fits the vector register");
    let d = program.elem().size() as i64;
    let v = shape.bytes() as i64;

    let b = shape.blocking_factor(program.elem()) as usize;
    // Distinct chunk loads across the whole loop (cross-statement reuse
    // included — the generator's CSE achieves exactly this).
    let mut chunks: HashSet<(usize, i64)> = HashSet::new();
    // Pack chunks by (array, stride, chunk), and the distinct packs.
    let mut covered: HashSet<(usize, u32, i64)> = HashSet::new();
    let mut packs: HashSet<(usize, u32, i64)> = HashSet::new();
    let mut perms = 0;
    // Distinct misaligned (array, offset) load streams, for the
    // zero-shift count.
    let mut misaligned_streams: HashSet<(usize, i64)> = HashSet::new();

    for stmt in program.stmts() {
        stmt.rhs.visit_loads(&mut |r| {
            if !r.is_unit_stride() {
                let window = pack_chunks(r, program, shape, 0..b);
                if packs.insert((r.array.index(), r.stride, r.offset)) {
                    perms += window.len();
                }
                let key = |c| (r.array.index(), r.stride, c);
                covered.extend(window.into_iter().map(key));
                return;
            }
            let key = match program.array(r.array).align() {
                AlignKind::Known(beta) => {
                    let beta = (beta % shape.bytes()) as i64;
                    (r.array.index(), (beta + r.offset * d).div_euclid(v))
                }
                AlignKind::Runtime => (r.array.index(), r.offset),
            };
            chunks.insert(key);
            let off = Offset::of_ref(r, program, shape);
            if off != Offset::Byte(0) {
                misaligned_streams.insert((r.array.index(), r.offset));
            }
        });
    }

    // A pack chunk the previous iteration's windows covered, `stride`
    // chunks back, is not loaded again.
    let pack_loads = covered
        .iter()
        .filter(|&&(a, s, c)| !covered.contains(&(a, s, c - s as i64)))
        .count();
    // A scatter loads, merges and stores every chunk it covers.
    let scatter_chunks: usize = program
        .stmts()
        .iter()
        .filter(|s| !s.target.is_unit_stride())
        .map(|s| pack_chunks(s.target, program, shape, 0..b).len())
        .sum();

    let scatters = program
        .stmts()
        .iter()
        .filter(|s| !s.target.is_unit_stride())
        .count();
    let stores = program.stmts().len() - scatters + scatter_chunks;
    let ops: usize = program.stmts().iter().map(|s| s.rhs.op_count()).sum();

    let shifts: usize = match policy {
        Policy::Zero => {
            let misaligned_stores = program
                .stmts()
                .iter()
                .filter(|s| Offset::of_ref(s.target, program, shape) != Offset::Byte(0))
                .count();
            misaligned_streams.len() + misaligned_stores
        }
        _ => (0..program.stmts().len())
            .map(|s| distinct_alignments(&graph, s).saturating_sub(1))
            .sum(),
    };

    LowerBound {
        loads: chunks.len() + pack_loads + scatter_chunks,
        stores,
        shifts: shifts + perms + scatter_chunks,
        ops,
        block: shape.blocking_factor(program.elem()),
        statements: program.stmts().len(),
    }
}

/// The analytic bound for a machine with hardware *misaligned* vector
/// memory (the `generate_unaligned` target): one unaligned load per
/// distinct static reference and one unaligned store per statement —
/// each costing `unaligned_cost` (2 on SSE2-class hardware) — plus the
/// data computations. No reorganization operations exist on this
/// target.
pub fn lower_bound_opd_unaligned(
    program: &LoopProgram,
    shape: VectorShape,
    unaligned_cost: u64,
) -> f64 {
    let b = shape.blocking_factor(program.elem()) as f64;
    let stores = program.stmts().len();
    let mut refs: HashSet<(usize, i64)> = HashSet::new();
    for stmt in program.stmts() {
        stmt.rhs.visit_loads(&mut |r| {
            refs.insert((r.array.index(), r.offset));
        });
    }
    let ops: usize = program.stmts().iter().map(|s| s.rhs.op_count()).sum();
    let mem = (refs.len() + stores) as u64 * unaligned_cost;
    (mem as f64 + ops as f64) / (b * stores as f64)
}

/// A *CSE-aware* refinement of [`lower_bound_opd`]: the minimum
/// operations per datum achievable by ideal code generation including
/// **cross-statement** common subexpression elimination.
///
/// The paper's per-statement shift bound (`n − 1` per statement) can be
/// beaten when statements share arrays (`r > 0`): two statements
/// shifting the *same* stream to the *same* offset need only one
/// `vshiftpair`, and identical subexpressions need only one `vop`. This
/// bound value-numbers the policy-placed graph globally and counts
/// distinct loads (chunk-level), shifts and operations — it is a true
/// floor for this crate's generated code, used as the test-suite
/// assertion; the figures report the paper's formula for comparability.
///
/// # Panics
///
/// Panics if the element does not fit `shape`, or if `policy` does not
/// apply to `program` (e.g. a non-zero policy with runtime alignments).
pub fn lower_bound_opd_cse(program: &LoopProgram, shape: VectorShape, policy: Policy) -> f64 {
    let graph = ReorgGraph::build(program, shape)
        .expect("element fits the vector register")
        .with_policy(policy)
        .expect("policy applies to this program");
    let b = shape.blocking_factor(program.elem()) as f64;
    let stores = program.stmts().len();

    let mut loads: HashSet<String> = HashSet::new();
    let mut shifts: HashSet<String> = HashSet::new();
    let mut ops: HashSet<String> = HashSet::new();
    for &root in graph.roots() {
        signature(
            &graph,
            root,
            program,
            shape,
            &mut loads,
            &mut shifts,
            &mut ops,
        );
    }

    let per_iteration = loads.len() + stores + shifts.len() + ops.len();
    per_iteration as f64 / (b * stores as f64)
}

/// Canonical value signature of a placed-graph node, recording each
/// distinct load / shift / op along the way.
fn signature(
    graph: &ReorgGraph,
    node: simdize_reorg::NodeId,
    program: &LoopProgram,
    shape: VectorShape,
    loads: &mut HashSet<String>,
    shifts: &mut HashSet<String>,
    ops: &mut HashSet<String>,
) -> String {
    use simdize_reorg::RNode;
    match graph.node(node) {
        RNode::Load { r } => {
            let d = program.elem().size() as i64;
            let v = shape.bytes() as i64;
            let key = match program.array(r.array).align() {
                simdize_ir::AlignKind::Known(beta) => {
                    let beta = (beta % shape.bytes()) as i64;
                    format!(
                        "ld({},{})",
                        r.array.index(),
                        (beta + r.offset * d).div_euclid(v)
                    )
                }
                simdize_ir::AlignKind::Runtime => format!("ldrt({},{})", r.array.index(), r.offset),
            };
            loads.insert(key.clone());
            key
        }
        RNode::Splat { inv } => format!("sp({inv})"),
        RNode::Op { kind, srcs } => {
            let mut child: Vec<String> = srcs
                .iter()
                .map(|&s| signature(graph, s, program, shape, loads, shifts, ops))
                .collect();
            if let simdize_reorg::VOpKind::Bin(op) = kind {
                if op.is_reassociable() {
                    child.sort();
                }
            }
            let key = format!("op({kind},{})", child.join(","));
            ops.insert(key.clone());
            key
        }
        RNode::ShiftStream { src, to } => {
            let inner = signature(graph, *src, program, shape, loads, shifts, ops);
            let key = format!("sh({inner},{to})");
            shifts.insert(key.clone());
            key
        }
        RNode::Store { src, .. } => signature(graph, *src, program, shape, loads, shifts, ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::parse_program;

    #[test]
    fn naive_bound_for_aligned_loop() {
        // 6 loads + 5 adds + 1 store, all aligned: 12 ops per 4 data = 3.
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; d: i32[64] @ 0;
                      e: i32[64] @ 0; f: i32[64] @ 0; g: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i] + c[i] + d[i] + e[i] + f[i] + g[i]; }",
        )
        .unwrap();
        for policy in Policy::ALL {
            assert!((lower_bound_opd(&p, VectorShape::V16, policy) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_example_bounds() {
        // Figure 1: loads at 4 and 8, store at 12.
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        // zero: 2 loads + 1 store + 3 shifts + 1 add = 7 / 4.
        assert!((lower_bound_opd(&p, VectorShape::V16, Policy::Zero) - 7.0 / 4.0).abs() < 1e-12);
        // lazy: n = 3 distinct alignments → 2 shifts → 6 / 4.
        assert!((lower_bound_opd(&p, VectorShape::V16, Policy::Lazy) - 6.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn chunk_dedup_counts_once() {
        // b[i] and b[i+1] share every chunk: one load, not two.
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i] + b[i+1]; }",
        )
        .unwrap();
        // 1 chunk-load + 1 store + 1 shift (b[i+1] misaligned; lazy:
        // alignments {0, 4, 0} → n−1 = 1) + 1 add = 4 / 4.
        assert!((lower_bound_opd(&p, VectorShape::V16, Policy::Lazy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_shift_counts_misaligned_streams() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i+1] + c[i]; }",
        )
        .unwrap();
        // zero: 2 loads + 1 store + 1 shift (only b misaligned) + 1 add.
        assert!((lower_bound_opd(&p, VectorShape::V16, Policy::Zero) - 5.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn shorter_elements_lower_the_bound() {
        let int = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i]; }",
        )
        .unwrap();
        let short = parse_program(
            "arrays { a: i16[64] @ 0; b: i16[64] @ 0; }
             for i in 0..32 { a[i] = b[i]; }",
        )
        .unwrap();
        let li = lower_bound_opd(&int, VectorShape::V16, Policy::Lazy);
        let ls = lower_bound_opd(&short, VectorShape::V16, Policy::Lazy);
        assert!(ls < li);
    }
}
