//! Code generation for machines with hardware *misaligned* memory
//! access (SSE2-style `movdqu`) — the alternative the paper's §2
//! footnote mentions: "SSE2 supports some limited form of misaligned
//! memory accesses which incurs additional overhead."
//!
//! On such a machine no data reorganization is needed at all: every
//! stream is loaded and stored at its exact address, at a higher
//! per-access cost (see `simdize-vm`'s `UNALIGNED_MEM_COST`). Comparing
//! this generator against the alignment-handling pipeline quantifies
//! when the paper's software scheme beats hardware support — the `E9`
//! ablation bench.

use crate::error::GenCodeError;
use crate::sexpr::{SCond, SExpr};
use crate::vir::{Addr, SimdProgram, VInst, VReg};
use simdize_ir::{Expr, Invariant, TripCount};
use simdize_reorg::ReorgGraph;
use std::sync::Arc;

/// Generates code for a machine with unaligned vector loads and stores.
///
/// The structure is much simpler than the aligned-machine generator:
/// no prologue, a steady loop from 0 to `ub − (ub mod B)` storing full
/// vectors at exact addresses, and an epilogue that splices the
/// remaining `ub mod B` elements. There are no stream shifts, so the
/// input graph's shift placement (if any) is ignored; the generator
/// works directly from the source loop.
///
/// # Errors
///
/// Currently infallible for validated loops; the `Result` mirrors
/// [`crate::generate`] for uniform call sites.
pub fn generate_unaligned(graph: &ReorgGraph) -> Result<SimdProgram, GenCodeError> {
    let program = Arc::clone(graph.shared_program());
    let shape = graph.shape();
    let b = graph.blocking_factor() as i64;
    let d = program.elem().size() as i64;

    let ub_sexpr = match program.trip() {
        TripCount::Known(u) => SExpr::c(u as i64),
        TripCount::Runtime => SExpr::Ub,
    };
    // Steady loop stores whole vectors: i ∈ [0, ub − ub mod B).
    let residue = ub_sexpr.clone().rem(SExpr::c(b));
    let upper_bound = ub_sexpr.clone().sub(residue.clone());

    let mut next_reg = 0u32;
    let mut fresh = || {
        let r = VReg(next_reg);
        next_reg += 1;
        r
    };

    let mut body = Vec::new();
    let mut epilogue = Vec::new();
    for stmt in program.stmts() {
        let addr = Addr::new(stmt.target.array, stmt.target.offset);
        // Steady: full unaligned store of the computed vector.
        let value = gen_expr(&stmt.rhs, &mut fresh, &mut body);
        body.push(VInst::StoreU { addr, src: value });

        // Epilogue: splice the first (ub mod B)·D bytes of the new
        // value over the old contents, at the exact residual address.
        let mut partial = Vec::new();
        let new = gen_expr(&stmt.rhs, &mut fresh, &mut partial);
        let old = fresh();
        partial.push(VInst::LoadU { dst: old, addr });
        let spliced = fresh();
        partial.push(VInst::Splice {
            dst: spliced,
            a: new,
            b: old,
            point: residue.clone().mul(SExpr::c(d)),
        });
        partial.push(VInst::StoreU { addr, src: spliced });
        push_guarded(
            SCond::Gt(residue.clone(), SExpr::c(0)),
            partial,
            &mut epilogue,
        );
    }

    Ok(SimdProgram {
        program,
        shape,
        nvregs: next_reg,
        prologue: Vec::new(),
        body,
        body_pair: None,
        epilogue,
        lower_bound: 0,
        upper_bound,
        guard_min_trip: 0,
    })
}

fn gen_expr(e: &Expr, fresh: &mut impl FnMut() -> VReg, out: &mut Vec<VInst>) -> VReg {
    match e {
        Expr::Load(r) => {
            let dst = fresh();
            out.push(VInst::LoadU {
                dst,
                addr: Addr::new(r.array, r.offset),
            });
            dst
        }
        Expr::Splat(Invariant::Const(value)) => {
            let dst = fresh();
            out.push(VInst::SplatConst { dst, value: *value });
            dst
        }
        Expr::Splat(Invariant::Param(param)) => {
            let dst = fresh();
            out.push(VInst::SplatParam { dst, param: *param });
            dst
        }
        Expr::Binary(op, a, b) => {
            let a = gen_expr(a, fresh, out);
            let b = gen_expr(b, fresh, out);
            let dst = fresh();
            out.push(VInst::Bin { dst, op: *op, a, b });
            dst
        }
        Expr::Unary(op, a) => {
            let a = gen_expr(a, fresh, out);
            let dst = fresh();
            out.push(VInst::Un { dst, op: *op, a });
            dst
        }
    }
}

fn push_guarded(cond: SCond, body: Vec<VInst>, out: &mut Vec<VInst>) {
    match cond.as_const() {
        Some(true) => out.extend(body),
        Some(false) => {}
        None => out.push(VInst::Guarded { cond, body }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, VectorShape};

    #[test]
    fn structure_is_shift_free() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let prog = generate_unaligned(&g).unwrap();
        assert!(prog.prologue().is_empty());
        assert_eq!(prog.lower_bound(), 0);
        assert_eq!(prog.upper_bound().as_const(), Some(100));
        assert!(!prog
            .body()
            .iter()
            .any(|i| matches!(i, VInst::ShiftPair { .. } | VInst::LoadA { .. })));
        // 100 is a multiple of B = 4: no epilogue.
        assert!(prog.epilogue().is_empty());
    }

    #[test]
    fn residue_emits_partial_store() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
             for i in 0..102 { a[i] = b[i+1]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let prog = generate_unaligned(&g).unwrap();
        assert_eq!(prog.upper_bound().as_const(), Some(100));
        assert!(prog
            .epilogue()
            .iter()
            .any(|i| matches!(i, VInst::Splice { .. })));
    }

    #[test]
    fn runtime_trip_guards_epilogue() {
        let p = parse_program(
            "arrays { a: i32[4096] @ ?; b: i32[4096] @ ?; }
             for i in 0..ub { a[i] = b[i+1]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let prog = generate_unaligned(&g).unwrap();
        assert!(prog.upper_bound().is_runtime());
        assert!(prog
            .epilogue()
            .iter()
            .any(|i| matches!(i, VInst::Guarded { .. })));
    }
}
