//! The VIR interpreter: executes a simdized program against a memory
//! image with AltiVec-style truncating vector memory operations, and
//! counts every instruction by class.

use crate::error::ExecError;
use crate::memory::MemoryImage;
use crate::scalar::run_scalar;
use crate::stats::{RunStats, CALL_OVERHEAD, LOOP_OVERHEAD_PER_ITERATION, RUNTIME_SETUP_PER_EXPR};
use simdize_codegen::{SExpr, ScalarEnv, SimdProgram, VInst};
use simdize_ir::{ArrayId, Value, VectorShape};

/// Runtime inputs of one loop invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunInput {
    /// The trip count (ignored in favour of the compile-time value when
    /// the loop has one — they must agree for verification).
    pub ub: u64,
    /// Values for the loop's scalar parameters, in declaration order.
    pub params: Vec<i64>,
}

impl RunInput {
    /// An input running `ub` iterations with no parameters.
    pub fn with_ub(ub: u64) -> RunInput {
        RunInput {
            ub,
            params: Vec::new(),
        }
    }
}

struct Env<'a> {
    ub: i64,
    image: &'a MemoryImage,
}

impl ScalarEnv for Env<'_> {
    fn ub(&self) -> i64 {
        self.ub
    }
    fn base_of(&self, array: ArrayId) -> u64 {
        self.image.base_of(array)
    }
    fn shape(&self) -> VectorShape {
        self.image.shape()
    }
}

/// Executes `program` on `image` and returns the dynamic instruction
/// counts.
///
/// Follows the execution model documented on [`SimdProgram`]: trip
/// counts at or below the `ub > 3B` guard run the original scalar loop
/// (counted into [`RunStats::scalar_fallback`]); otherwise prologue,
/// steady state (unrolled pair first when present) and epilogue run in
/// order.
///
/// # Errors
///
/// Propagates any [`ExecError`] — all of which indicate a bug in code
/// generation, never a legal program behaviour.
pub fn run_simd(
    program: &SimdProgram,
    image: &mut MemoryImage,
    input: &RunInput,
) -> Result<RunStats, ExecError> {
    let source = program.source();
    if input.params.len() < source.params().len() {
        return Err(ExecError::MissingParam {
            index: input.params.len(),
        });
    }
    if let Some(declared) = source.trip().known() {
        if input.ub != declared {
            return Err(ExecError::TripMismatch {
                declared,
                supplied: input.ub,
            });
        }
    }
    let ub = source.trip().known().unwrap_or(input.ub);
    let mut stats = RunStats {
        invocation_overhead: CALL_OVERHEAD,
        ..RunStats::default()
    };

    if ub <= program.guard_min_trip() {
        // §4.4 guard: run the original scalar loop.
        let ideal = run_scalar(source, image, ub, &input.params)?;
        stats.used_fallback = true;
        stats.scalar_fallback = ideal + ub * LOOP_OVERHEAD_PER_ITERATION;
        return Ok(stats);
    }

    stats.invocation_overhead += RUNTIME_SETUP_PER_EXPR * runtime_expr_count(program) as u64;

    let mut machine = Machine {
        regs: vec![None; program.vreg_count() as usize + 64],
        image,
        elem_size: source.elem().size() as i64,
        v: program.shape().bytes() as usize,
        ub: ub as i64,
        params: &input.params,
    };

    let b = program.block() as i64;
    let upper = {
        let env = Env {
            ub: ub as i64,
            image: machine.image,
        };
        program.upper_bound().eval(&env)
    };

    // Prologue at i = 0.
    machine.exec_all(program.prologue(), 0, &mut stats)?;

    // Steady state.
    let mut i: i64 = program.lower_bound() as i64;
    if let Some(pair) = program.body_pair() {
        while i + b < upper {
            machine.exec_all(pair, i, &mut stats)?;
            i += 2 * b;
            stats.steady_iterations += 2;
            stats.loop_overhead += LOOP_OVERHEAD_PER_ITERATION;
        }
    }
    while i < upper {
        machine.exec_all(program.body(), i, &mut stats)?;
        i += b;
        stats.steady_iterations += 1;
        stats.loop_overhead += LOOP_OVERHEAD_PER_ITERATION;
    }

    // Epilogue at the first un-executed steady value.
    machine.exec_all(program.epilogue(), i, &mut stats)?;
    Ok(stats)
}

/// Counts the distinct runtime scalar expressions a program needs to
/// materialize per invocation (alignment masks, permute vectors, the
/// runtime upper bound).
///
/// Public so alternative executors (the compiled engine) charge exactly
/// the same [`RUNTIME_SETUP_PER_EXPR`] invocation overhead as the
/// interpreter. Allocates nothing: one walk keeps the distinct
/// expressions it has met in a stack buffer of 32, and a program with
/// more than that is counted by a quadratic walk, an occurrence
/// counting when no earlier one equals it.
pub fn runtime_expr_count(program: &SimdProgram) -> usize {
    distinct_count::<32>(program)
}

/// [`runtime_expr_count`] with room for `N` distinct expressions.
fn distinct_count<const N: usize>(program: &SimdProgram) -> usize {
    let mut distinct = [program.upper_bound(); N];
    let (mut n, mut full) = (0, false);
    visit_runtime(program, &mut |e| {
        if full || distinct[..n].contains(&e) {
            return;
        }
        match distinct.get_mut(n) {
            Some(slot) => (*slot, n) = (e, n + 1),
            None => full = true,
        }
    });
    if full {
        repeat_count(program)
    } else {
        n
    }
}

/// The definition [`runtime_expr_count`] counts by: an occurrence
/// counts when no earlier one equals it — a walk of the whole program
/// per occurrence.
fn repeat_count(program: &SimdProgram) -> usize {
    let (mut distinct, mut seen) = (0, 0);
    visit_runtime(program, &mut |e| {
        let (mut earlier, mut repeat) = (0, false);
        visit_runtime(program, &mut |other| {
            repeat |= earlier < seen && other == e;
            earlier += 1;
        });
        distinct += usize::from(!repeat);
        seen += 1;
    });
    distinct
}

/// Calls `f` on every runtime scalar expression of `program` in a fixed
/// order (recursing into guards), the runtime upper bound last.
fn visit_runtime<'p>(program: &'p SimdProgram, f: &mut impl FnMut(&'p SExpr)) {
    fn walk<'p>(insts: &'p [VInst], f: &mut impl FnMut(&'p SExpr)) {
        for inst in insts {
            match inst {
                VInst::ShiftPair { amt: e, .. } | VInst::Splice { point: e, .. }
                    if e.is_runtime() =>
                {
                    f(e)
                }
                VInst::Guarded { body, .. } => walk(body, f),
                _ => {}
            }
        }
    }
    let pair = program.body_pair().unwrap_or_default();
    for insts in [program.prologue(), program.body(), pair, program.epilogue()] {
        walk(insts, f);
    }
    if program.upper_bound().is_runtime() {
        f(program.upper_bound());
    }
}

struct Machine<'a> {
    regs: Vec<Option<Vec<u8>>>,
    image: &'a mut MemoryImage,
    elem_size: i64,
    v: usize,
    ub: i64,
    params: &'a [i64],
}

impl Machine<'_> {
    fn exec_all(&mut self, insts: &[VInst], i: i64, stats: &mut RunStats) -> Result<(), ExecError> {
        for inst in insts {
            self.exec(inst, i, stats)?;
        }
        Ok(())
    }

    fn read(&self, r: simdize_codegen::VReg) -> Result<&Vec<u8>, ExecError> {
        self.regs[r.index()]
            .as_ref()
            .ok_or(ExecError::UninitializedRegister { index: r.index() })
    }

    fn eval(&self, e: &SExpr) -> i64 {
        let env = Env {
            ub: self.ub,
            image: self.image,
        };
        e.eval(&env)
    }

    fn exec(&mut self, inst: &VInst, i: i64, stats: &mut RunStats) -> Result<(), ExecError> {
        match inst {
            VInst::LoadA { dst, addr } => {
                let byte = self.image.base_of(addr.array) as i64
                    + (addr.scale * i + addr.elem) * self.elem_size;
                let chunk = self.image.load_chunk(addr.array, byte)?;
                self.regs[dst.index()] = Some(chunk);
                stats.loads += 1;
            }
            VInst::StoreA { addr, src } => {
                let byte = self.image.base_of(addr.array) as i64
                    + (addr.scale * i + addr.elem) * self.elem_size;
                let data = self.read(*src)?.clone();
                self.image.store_chunk(addr.array, byte, &data)?;
                stats.stores += 1;
            }
            VInst::LoadU { dst, addr } => {
                let byte = self.image.base_of(addr.array) as i64
                    + (addr.scale * i + addr.elem) * self.elem_size;
                let chunk = self.image.load_exact(addr.array, byte)?;
                self.regs[dst.index()] = Some(chunk);
                stats.unaligned_mem += 1;
            }
            VInst::StoreU { addr, src } => {
                let byte = self.image.base_of(addr.array) as i64
                    + (addr.scale * i + addr.elem) * self.elem_size;
                let data = self.read(*src)?.clone();
                self.image.store_exact(addr.array, byte, &data)?;
                stats.unaligned_mem += 1;
            }
            VInst::ShiftPair { dst, a, b, amt } => {
                // Amounts live in [0, V]: V selects the second register
                // whole (the runtime right-shift identity case).
                let amount = self.eval(amt);
                if !(0..=self.v as i64).contains(&amount) {
                    return Err(ExecError::BadShiftAmount { amount });
                }
                let mut pair = self.read(*a)?.clone();
                pair.extend_from_slice(self.read(*b)?);
                let out = pair[amount as usize..amount as usize + self.v].to_vec();
                self.regs[dst.index()] = Some(out);
                stats.shifts += 1;
            }
            VInst::Perm { dst, a, b, pattern } => {
                let mut pair = self.read(*a)?.clone();
                pair.extend_from_slice(self.read(*b)?);
                let mut out = Vec::with_capacity(self.v);
                for &sel in pattern {
                    let sel = sel as usize;
                    if sel >= 2 * self.v {
                        return Err(ExecError::BadShiftAmount { amount: sel as i64 });
                    }
                    out.push(pair[sel]);
                }
                if out.len() != self.v {
                    return Err(ExecError::BadShiftAmount {
                        amount: out.len() as i64,
                    });
                }
                self.regs[dst.index()] = Some(out);
                stats.shifts += 1; // permutes count as reorganization ops
            }
            VInst::Splice { dst, a, b, point } => {
                let p = self.eval(point);
                if !(0..=self.v as i64).contains(&p) {
                    return Err(ExecError::BadSplicePoint { point: p });
                }
                let p = p as usize;
                let mut out = self.read(*a)?[..p].to_vec();
                out.extend_from_slice(&self.read(*b)?[p..]);
                self.regs[dst.index()] = Some(out);
                stats.splices += 1;
            }
            VInst::SplatConst { dst, value } => {
                self.regs[dst.index()] = Some(self.splat(*value));
                stats.splats += 1;
            }
            VInst::SplatParam { dst, param } => {
                let value = *self
                    .params
                    .get(param.index())
                    .ok_or(ExecError::MissingParam {
                        index: param.index(),
                    })?;
                self.regs[dst.index()] = Some(self.splat(value));
                stats.splats += 1;
            }
            VInst::Bin { dst, op, a, b } => {
                let elem = self.image.elem();
                let d = self.elem_size as usize;
                let av = self.read(*a)?.clone();
                let bv = self.read(*b)?;
                let mut out = Vec::with_capacity(self.v);
                for lane in 0..self.v / d {
                    let x = Value::from_le_bytes(elem, &av[lane * d..]);
                    let y = Value::from_le_bytes(elem, &bv[lane * d..]);
                    out.extend_from_slice(&op.apply(x, y).to_le_bytes());
                }
                self.regs[dst.index()] = Some(out);
                stats.ops += 1;
            }
            VInst::Un { dst, op, a } => {
                let elem = self.image.elem();
                let d = self.elem_size as usize;
                let av = self.read(*a)?.clone();
                let mut out = Vec::with_capacity(self.v);
                for lane in 0..self.v / d {
                    let x = Value::from_le_bytes(elem, &av[lane * d..]);
                    out.extend_from_slice(&op.apply(x).to_le_bytes());
                }
                self.regs[dst.index()] = Some(out);
                stats.ops += 1;
            }
            VInst::Copy { dst, src } => {
                let v = self.read(*src)?.clone();
                self.regs[dst.index()] = Some(v);
                stats.copies += 1;
            }
            VInst::Guarded { cond, body } => {
                let env = Env {
                    ub: self.ub,
                    image: self.image,
                };
                if cond.eval(&env) {
                    self.exec_all(body, i, stats)?;
                }
            }
        }
        Ok(())
    }

    fn splat(&self, value: i64) -> Vec<u8> {
        let elem = self.image.elem();
        let d = self.elem_size as usize;
        let bytes = Value::from_i64(elem, value).to_le_bytes();
        let mut out = Vec::with_capacity(self.v);
        for _ in 0..self.v / d {
            out.extend_from_slice(&bytes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_codegen::{generate, CodegenOptions, ReuseMode};
    use simdize_ir::parse_program;
    use simdize_reorg::{Policy, ReorgGraph};

    fn compile(src: &str, policy: Policy, reuse: ReuseMode) -> SimdProgram {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        generate(&g, &CodegenOptions::default().reuse(reuse)).unwrap()
    }

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    /// The one-walk count is the quadratic definition, with room for
    /// every distinct expression and with too little, on programs whose
    /// shift amounts and splice points repeat (`loops/runtime.loop`'s
    /// three runtime-aligned streams) and differ (three statements over
    /// seven arrays), with a runtime trip count and a known one.
    #[test]
    fn runtime_expressions_are_counted_in_one_walk() {
        let runtime = "arrays { dst: i32[4096] @ ?; src1: i32[4096] @ ?; src2: i32[4096] @ ?; }
                       for i in 0..ub { dst[i+3] = src1[i+1] + src2[i+2]; }";
        let distinct =
            "arrays { a: i32[512] @ ?; b: i32[512] @ ?; c: i32[512] @ ?; d: i32[512] @ ?;
                                 e: i32[512] @ 4; f: i32[512] @ ?; g: i32[512] @ ?; }
                        for i in 0..400 { a[i+3] = b[i+1] + c[i+2]; d[i+1] = b[i+2] * c[i+3] - f[i];
                                          e[i] = f[i+5] + g[i+1]; }";
        let mut counts = Vec::new();
        for src in [runtime, distinct, FIG1] {
            for reuse in [
                ReuseMode::None,
                ReuseMode::SoftwarePipeline,
                ReuseMode::PredictiveCommoning,
            ] {
                let program = compile(src, Policy::Zero, reuse);
                let want = repeat_count(&program);
                assert_eq!(runtime_expr_count(&program), want, "{src}");
                assert_eq!(distinct_count::<1>(&program), want, "{src}");
                assert_eq!(distinct_count::<2>(&program), want, "{src}");
                let mut occurrences = 0;
                visit_runtime(&program, &mut |_| occurrences += 1);
                counts.push((want, occurrences));
            }
        }
        // Repeats and distinct expressions past the small buffers, and
        // none at all where everything is known.
        assert!(
            counts.iter().any(|&(want, seen)| want > 2 && seen > want),
            "{counts:?}"
        );
        assert!(counts[counts.len() - 1] == (0, 0), "{counts:?}");
    }

    #[test]
    fn simd_matches_scalar_on_paper_example() {
        for policy in Policy::ALL {
            for reuse in [
                ReuseMode::None,
                ReuseMode::SoftwarePipeline,
                ReuseMode::PredictiveCommoning,
            ] {
                let prog = compile(FIG1, policy, reuse);
                let source = prog.source().clone();
                let mut simd_img = MemoryImage::with_seed(&source, VectorShape::V16, 99);
                let mut oracle_img = simd_img.clone();
                run_scalar(&source, &mut oracle_img, 100, &[]).unwrap();
                run_simd(&prog, &mut simd_img, &RunInput::with_ub(100)).unwrap();
                assert_eq!(
                    simd_img.first_difference(&oracle_img),
                    None,
                    "{policy}/{reuse:?} diverged"
                );
            }
        }
    }

    #[test]
    fn mismatched_ub_is_rejected() {
        // The docs promise the compile-time trip count wins, but a
        // caller who disagrees is comparing against the wrong oracle —
        // that must be a loud error, not a silent pick.
        let prog = compile(FIG1, Policy::Zero, ReuseMode::None);
        let source = prog.source().clone();
        let mut img = MemoryImage::with_seed(&source, VectorShape::V16, 1);
        let err = run_simd(&prog, &mut img, &RunInput::with_ub(99)).unwrap_err();
        assert_eq!(
            err,
            ExecError::TripMismatch {
                declared: 100,
                supplied: 99
            }
        );
        // The agreeing value still runs.
        run_simd(&prog, &mut img, &RunInput::with_ub(100)).unwrap();
    }

    #[test]
    fn guard_takes_scalar_fallback() {
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
                   for i in 0..ub { a[i] = b[i+1]; }";
        let prog = compile(src, Policy::Zero, ReuseMode::None);
        let source = prog.source().clone();
        let mut img = MemoryImage::with_seed(&source, VectorShape::V16, 3);
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(10)).unwrap();
        assert!(stats.used_fallback);
        assert!(stats.scalar_fallback > 0);
        // And the memory is still correct.
        let mut oracle = MemoryImage::with_seed(&source, VectorShape::V16, 3);
        run_scalar(&source, &mut oracle, 10, &[]).unwrap();
        assert_eq!(img.first_difference(&oracle), None);
    }

    #[test]
    fn stats_count_instruction_classes() {
        let prog = compile(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let mut img = MemoryImage::with_seed(&source, VectorShape::V16, 5);
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(100)).unwrap();
        assert!(stats.loads > 0);
        assert!(stats.stores > 0);
        assert!(stats.shifts > 0);
        assert!(stats.steady_iterations > 0);
        assert_eq!(stats.invocation_overhead, CALL_OVERHEAD); // no runtime exprs
        assert!(!stats.used_fallback);
    }

    #[test]
    fn runtime_alignment_charges_setup() {
        let src = "arrays { a: i32[256] @ ?; b: i32[256] @ ?; }
                   for i in 0..200 { a[i] = b[i+1]; }";
        let prog = compile(src, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let mut img = MemoryImage::with_seed(&source, VectorShape::V16, 5);
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(200)).unwrap();
        assert!(stats.invocation_overhead > CALL_OVERHEAD);
    }

    #[test]
    fn never_loads_a_chunk_twice_with_sp() {
        // SP guarantee: per steady iteration, exactly one load per
        // input stream → loads ≈ chunks touched once each.
        let prog = compile(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let mut img = MemoryImage::with_seed(&source, VectorShape::V16, 5);
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(100)).unwrap();
        // Streams b[1..101] and c[2..102] each span ceil(404/16)+1 ≤ 27
        // chunks; plus prologue/epilogue boundary work (re-loads at the
        // edges and store-side splice loads are expected).
        assert!(
            stats.loads <= 2 * 27 + 12,
            "loads = {} exceeds never-load-twice budget",
            stats.loads
        );
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::stats::UNALIGNED_MEM_COST;
    use simdize_codegen::{generate, generate_unaligned, CodegenOptions};
    use simdize_ir::{parse_program, LoopBuilder, ScalarType};
    use simdize_reorg::{Policy, ReorgGraph};

    #[test]
    fn unaligned_accesses_cost_double() {
        let p = parse_program(
            "arrays { a: i32[256] @ 4; b: i32[256] @ 8; }
             for i in 0..200 { a[i] = b[i+1]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let prog = generate_unaligned(&g).unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 2);
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(200)).unwrap();
        assert_eq!(stats.loads, 0);
        assert_eq!(stats.stores, 0);
        assert!(stats.unaligned_mem > 0);
        // Every unaligned access contributes UNALIGNED_MEM_COST.
        let recomputed = stats.unaligned_mem * UNALIGNED_MEM_COST
            + stats.ops
            + stats.splices
            + stats.splats
            + stats.loop_overhead
            + stats.invocation_overhead;
        assert_eq!(stats.total(), recomputed);
    }

    #[test]
    fn perm_executes_byte_exact() {
        // A stride-2 gather exercises Perm; check one element directly.
        let mut b = LoopBuilder::new(ScalarType::I32);
        let out = b.array("out", 64, 0);
        let inter = b.array("inter", 200, 4);
        b.stmt(out.at(0), inter.load_strided(2, 1));
        let p = b.finish(64).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let prog = generate(
            &g.with_policy(Policy::Zero).unwrap(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 9);
        let expected: Vec<i64> = (0..64u64)
            .map(|i| {
                img.get(simdize_ir::ArrayId::from_index(1), 2 * i + 1)
                    .unwrap()
                    .as_i64()
            })
            .collect();
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(64)).unwrap();
        assert!(stats.shifts > 0, "perms counted as reorganization ops");
        for (i, want) in expected.iter().enumerate() {
            let got = img
                .get(simdize_ir::ArrayId::from_index(0), i as u64)
                .unwrap()
                .as_i64();
            assert_eq!(got, *want, "element {i}");
        }
    }

    #[test]
    fn fallback_stats_render() {
        let p = parse_program(
            "arrays { a: i32[64] @ 4; b: i32[64] @ 8; }
             for i in 0..ub { a[i] = b[i+1]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let g = g.with_policy(simdize_reorg::Policy::Zero).unwrap();
        let prog = simdize_codegen::generate(&g, &CodegenOptions::default()).unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 2);
        let stats = run_simd(&prog, &mut img, &RunInput::with_ub(5)).unwrap();
        assert!(stats.used_fallback);
        assert!(stats.to_string().contains("fallback"));
    }
}
