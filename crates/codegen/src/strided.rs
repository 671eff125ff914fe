//! Code generation for loops with non-unit-stride references — the
//! first item on the paper's §7 future-work list ("alignment handling
//! of loops with non-unit stride accesses").
//!
//! Strided streams are not byte-contiguous, so the stream-shift
//! framework of §3 does not apply. This generator uses a different,
//! uniform strategy built on the general `vperm` byte permute
//! ([`VInst::Perm`], AltiVec `vec_perm`):
//!
//! * **gather (loads)**: per simdized iteration, load the aligned
//!   chunks covering the `B` wanted elements (a window of about
//!   `stride · V` bytes) and *pack* them into lane order with an
//!   accumulating permute per used chunk — misalignment, including
//!   non-natural byte offsets, folds into the compile-time patterns;
//! * **scatter (stores)**: per covered chunk, load–merge–store with a
//!   permute that deposits exactly this iteration's lanes and keeps
//!   every other byte, which makes boundary handling automatic (no
//!   prologue or peeling needed);
//! * computation happens on packed registers at lane offset 0, so the
//!   §3 validity constraints hold trivially.
//!
//! The price of uniformity: no cross-iteration reuse (each window is
//! reloaded) and one permute per used chunk — the strided ablation
//! bench quantifies this against the scalar loop. Stride-one references
//! inside a strided loop go through the same path, so mixed-stride
//! loops (de-interleaving, interleaved stores) work naturally.

use crate::error::GenCodeError;
use crate::sexpr::SExpr;
use crate::vir::{Addr, SimdProgram, VInst, VReg};
use simdize_ir::{AlignKind, ArrayRef, Expr, Invariant, LoopProgram, VectorShape};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The largest supported stride. Larger strides would only need wider
/// windows, but the guard padding of the simulated memory image covers
/// reads this far past a stream and no farther.
pub const MAX_STRIDE: u32 = 4;

/// Failure to generate strided code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GenStridedError {
    /// A reference's stride exceeds [`MAX_STRIDE`].
    UnsupportedStride {
        /// The offending stride.
        stride: u32,
    },
    /// Pack/scatter patterns are compile-time byte selections, so every
    /// base alignment must be known at compile time.
    RuntimeAlignment,
    /// The residue epilogue is specialized per `ub mod B`, so the trip
    /// count must be known at compile time.
    RuntimeTripCount,
    /// The generator packs and scatters element-wise statements only;
    /// a reduction (`target op= rhs`) would be stored as one.
    Reduction,
    /// One element does not fit the vector register, or `B < 2`.
    Shape(simdize_reorg::BuildGraphError),
}

impl fmt::Display for GenStridedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenStridedError::UnsupportedStride { stride } => {
                write!(
                    f,
                    "stride {stride} exceeds the supported maximum {MAX_STRIDE}"
                )
            }
            GenStridedError::RuntimeAlignment => f.write_str(
                "strided generation needs compile-time alignments (permute patterns \
                 are compile-time byte selections)",
            ),
            GenStridedError::RuntimeTripCount => f.write_str(
                "strided generation needs a compile-time trip count for the residue epilogue",
            ),
            GenStridedError::Reduction => f.write_str(
                "strided generation does not support reductions (the scalar loop runs them)",
            ),
            GenStridedError::Shape(e) => write!(f, "{e}"),
        }
    }
}

impl Error for GenStridedError {}

/// Generates a [`SimdProgram`] for a loop that may contain strided
/// references, using the gather/scatter permute strategy described in
/// the module docs.
///
/// # Errors
///
/// See [`GenStridedError`]; notably runtime alignments and runtime trip
/// counts are not supported by this extension (use the scalar loop).
pub fn generate_strided(
    program: &LoopProgram,
    shape: VectorShape,
) -> Result<SimdProgram, GenCodeError> {
    match try_generate(program, shape) {
        Ok(p) => Ok(p),
        Err(e) => Err(GenCodeError::Strided(e)),
    }
}

fn try_generate(program: &LoopProgram, shape: VectorShape) -> Result<SimdProgram, GenStridedError> {
    let d = program.elem().size() as i64;
    let v = shape.bytes() as i64;
    if d > v || v / d < 2 {
        return Err(GenStridedError::Shape(
            simdize_reorg::ReorgGraph::build(program, shape)
                .err()
                .unwrap_or(simdize_reorg::BuildGraphError::NoParallelism {
                    elem: program.elem(),
                    shape,
                }),
        ));
    }
    for r in program.all_refs() {
        if r.stride > MAX_STRIDE || r.stride == 0 {
            return Err(GenStridedError::UnsupportedStride { stride: r.stride });
        }
    }
    if !program.all_alignments_known() {
        return Err(GenStridedError::RuntimeAlignment);
    }
    let Some(ub) = program.trip().known() else {
        return Err(GenStridedError::RuntimeTripCount);
    };
    if program.stmts().iter().any(|s| s.reduction.is_some()) {
        return Err(GenStridedError::Reduction);
    }

    let b = (v / d) as u64; // blocking factor
    let steady_ub = ub - ub % b;
    let residue = (ub % b) as usize;

    let mut g = Gen {
        program,
        shape,
        d: d as usize,
        v: v as usize,
        b: b as usize,
        next: 0,
    };

    let mut body = Vec::new();
    for stmt in program.stmts() {
        let value = g.gen_expr(&stmt.rhs, g.b, &mut body);
        g.scatter(stmt.target, value, g.b, &mut body);
    }

    let mut epilogue = Vec::new();
    if residue > 0 {
        for stmt in program.stmts() {
            let value = g.gen_expr(&stmt.rhs, residue, &mut epilogue);
            g.scatter(stmt.target, value, residue, &mut epilogue);
        }
    }

    let mut compiled = SimdProgram {
        program: Arc::new(program.clone()),
        shape,
        nvregs: g.next,
        prologue: Vec::new(),
        body,
        body_pair: None,
        epilogue,
        lower_bound: 0,
        upper_bound: SExpr::c(steady_ub as i64),
        guard_min_trip: 0,
    };
    // Duplicate gathers (the same strided reference used twice) and
    // their pack networks deduplicate like any other value.
    crate::passes::lvn::run(&mut compiled, true);
    crate::passes::debug_verify(&compiled, "strided lvn");
    crate::passes::dce::run(&mut compiled);
    crate::passes::debug_verify(&compiled, "strided dce");
    Ok(compiled)
}

struct Gen<'p> {
    program: &'p LoopProgram,
    shape: VectorShape,
    d: usize,
    v: usize,
    b: usize,
    next: u32,
}

impl Gen<'_> {
    fn fresh(&mut self) -> VReg {
        let r = VReg(self.next);
        self.next += 1;
        r
    }

    /// The window misalignment of `r` at steady iterations: the byte
    /// offset of element `stride·i + offset` within its aligned chunk,
    /// constant because `stride · i · D` is a multiple of `V` when `i`
    /// is a multiple of `B`.
    fn alpha(&self, r: ArrayRef) -> usize {
        let beta = match self.program.array(r.array).align() {
            AlignKind::Known(beta) => (beta % self.shape.bytes()) as i64,
            AlignKind::Runtime => unreachable!("checked by try_generate"),
        };
        (beta + r.offset * self.d as i64).rem_euclid(self.v as i64) as usize
    }

    /// The source position of output byte `lane·D + u` of a packed
    /// register: `(window chunk, byte within chunk)`.
    fn source(&self, alpha: usize, r: ArrayRef, lane: usize, u: usize) -> (usize, usize) {
        let g = alpha + lane * r.stride as usize * self.d + u;
        (g / self.v, g % self.v)
    }

    /// Loads the used window chunks of `r` and packs the first `limit`
    /// elements into lanes `0..limit`; bytes past `limit · D` are
    /// unspecified.
    fn gather(&mut self, r: ArrayRef, limit: usize, out: &mut Vec<VInst>) -> VReg {
        let alpha = self.alpha(r);
        let mut used: Vec<usize> = Vec::new();
        for t in 0..limit {
            for u in 0..self.d {
                let (c, _) = self.source(alpha, r, t, u);
                if !used.contains(&c) {
                    used.push(c);
                }
            }
        }
        used.sort_unstable();

        // Chunk j sits j·V bytes (= j·B elements) past the window start.
        let bfac = self.b;
        let chunk_addr =
            move |j: usize| Addr::strided(r.array, r.stride as i64, r.offset + (j * bfac) as i64);

        // Fast path: one chunk, already in lane order.
        if used == [0] && alpha == 0 && r.stride == 1 {
            let dst = self.fresh();
            out.push(VInst::LoadA {
                dst,
                addr: chunk_addr(0),
            });
            return dst;
        }

        let mut acc: Option<VReg> = None;
        for &j in &used {
            let chunk = self.fresh();
            out.push(VInst::LoadA {
                dst: chunk,
                addr: chunk_addr(j),
            });
            let prev = acc.unwrap_or(chunk);
            let mut pattern = Vec::with_capacity(self.v);
            for p in 0..self.v {
                let (t, u) = (p / self.d, p % self.d);
                let sel = if t < limit {
                    let (c, off) = self.source(alpha, r, t, u);
                    if c == j {
                        (self.v + off) as u8 // from this chunk
                    } else {
                        p as u8 // keep what acc already placed
                    }
                } else {
                    p as u8
                };
                pattern.push(sel);
            }
            let dst = self.fresh();
            out.push(VInst::Perm {
                dst,
                a: prev,
                b: chunk,
                pattern,
            });
            acc = Some(dst);
        }
        acc.expect("limit > 0 implies at least one used chunk")
    }

    /// Packs the value of `e` for lanes `0..limit`.
    fn gen_expr(&mut self, e: &Expr, limit: usize, out: &mut Vec<VInst>) -> VReg {
        match e {
            Expr::Load(r) => self.gather(*r, limit, out),
            Expr::Splat(Invariant::Const(value)) => {
                let dst = self.fresh();
                out.push(VInst::SplatConst { dst, value: *value });
                dst
            }
            Expr::Splat(Invariant::Param(param)) => {
                let dst = self.fresh();
                out.push(VInst::SplatParam { dst, param: *param });
                dst
            }
            Expr::Binary(op, x, y) => {
                let x = self.gen_expr(x, limit, out);
                let y = self.gen_expr(y, limit, out);
                let dst = self.fresh();
                out.push(VInst::Bin {
                    dst,
                    op: *op,
                    a: x,
                    b: y,
                });
                dst
            }
            Expr::Unary(op, x) => {
                let x = self.gen_expr(x, limit, out);
                let dst = self.fresh();
                out.push(VInst::Un { dst, op: *op, a: x });
                dst
            }
        }
    }

    /// Scatters lanes `0..limit` of `value` through the strided store
    /// `target`, merging with the existing contents of every covered
    /// chunk (load–permute–store). Boundary and residue cases need no
    /// special handling because only this iteration's lanes are ever
    /// written.
    fn scatter(&mut self, target: ArrayRef, value: VReg, limit: usize, out: &mut Vec<VInst>) {
        let alpha = self.alpha(target);
        let mut used: Vec<usize> = Vec::new();
        for t in 0..limit {
            for u in 0..self.d {
                let (c, _) = self.source(alpha, target, t, u);
                if !used.contains(&c) {
                    used.push(c);
                }
            }
        }
        used.sort_unstable();

        for &j in &used {
            let addr = Addr::strided(
                target.array,
                target.stride as i64,
                target.offset + (j * self.b) as i64,
            );
            let mut pattern: Vec<u8> = (0..self.v).map(|p| (self.v + p) as u8).collect();
            let mut full = true;
            for t in 0..limit {
                for u in 0..self.d {
                    let (c, off) = self.source(alpha, target, t, u);
                    if c == j {
                        pattern[off] = (t * self.d + u) as u8;
                    }
                }
            }
            for &sel in &pattern {
                if sel as usize >= self.v {
                    full = false;
                }
            }
            if full && target.stride == 1 && alpha == 0 {
                // Whole chunk rewritten in order: plain store.
                out.push(VInst::StoreA { addr, src: value });
                continue;
            }
            let old = self.fresh();
            out.push(VInst::LoadA { dst: old, addr });
            let merged = self.fresh();
            out.push(VInst::Perm {
                dst: merged,
                a: value,
                b: old,
                pattern,
            });
            out.push(VInst::StoreA { addr, src: merged });
        }
    }
}

/// The static per-datum cost of the strided generator's steady body —
/// the cost *model* reported as the bound for strided loops (the §5.3
/// analytic bound only covers the stream framework).
pub fn strided_model_opd(program: &LoopProgram, shape: VectorShape) -> Option<f64> {
    let compiled = generate_strided(program, shape).ok()?;
    let (_, body, _) = compiled.static_counts();
    let b = shape.blocking_factor(program.elem()) as f64;
    Some(body as f64 / (b * program.stmts().len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{LoopBuilder, ScalarType};

    fn deinterleave() -> LoopProgram {
        // out[i] = inter[2i] + inter[2i+1]  — classic de-interleave.
        let mut bld = LoopBuilder::new(ScalarType::I32);
        let out = bld.array("out", 256, 0);
        let inter = bld.array("inter", 520, 4);
        bld.stmt(
            out.at(0),
            inter.load_strided(2, 0) + inter.load_strided(2, 1),
        );
        bld.finish(256).unwrap()
    }

    #[test]
    fn generates_pack_networks() {
        let p = deinterleave();
        let compiled = generate_strided(&p, VectorShape::V16).unwrap();
        assert!(compiled.prologue().is_empty());
        assert_eq!(compiled.upper_bound().as_const(), Some(256));
        assert!(compiled
            .body()
            .iter()
            .any(|i| matches!(i, VInst::Perm { .. })));
        assert!(strided_model_opd(&p, VectorShape::V16).unwrap() > 0.0);
    }

    #[test]
    fn rejects_unsupported_inputs() {
        let mut bld = LoopBuilder::new(ScalarType::I32);
        let out = bld.array("out", 64, 0);
        let src = bld.array("x", 1024, 0);
        bld.stmt(out.at(0), src.load_strided(8, 0));
        let p = bld.finish(64).unwrap();
        assert!(matches!(
            try_generate(&p, VectorShape::V16),
            Err(GenStridedError::UnsupportedStride { stride: 8 })
        ));

        let mut bld = LoopBuilder::new(ScalarType::I32);
        let out = bld.array("out", 64, 0);
        let src = bld.array_runtime_align("x", 256);
        bld.stmt(out.at(0), src.load_strided(2, 0));
        let p = bld.finish(64).unwrap();
        assert!(matches!(
            try_generate(&p, VectorShape::V16),
            Err(GenStridedError::RuntimeAlignment)
        ));

        let mut bld = LoopBuilder::new(ScalarType::I32);
        let out = bld.array("out", 4096, 0);
        let src = bld.array("x", 8192, 0);
        bld.stmt(out.at(0), src.load_strided(2, 0));
        let p = bld.finish_runtime_trip().unwrap();
        assert!(matches!(
            try_generate(&p, VectorShape::V16),
            Err(GenStridedError::RuntimeTripCount)
        ));
    }
}
