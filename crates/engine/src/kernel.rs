//! Kernel compilation: one `SimdProgram` + one memory layout + one set
//! of runtime inputs, lowered once into straight-line instruction
//! slices that a tight dispatch loop can execute with no per-iteration
//! decisions left.
//!
//! Compilation is split into two phases so sweeps can share work:
//!
//! * [`PredecodedKernel::new`] does everything that depends only on the
//!   *program*: V16 shape check, permutation validation, constant-splat
//!   materialization, address reduction to per-array `(byte offset,
//!   byte scale)` pairs, register-file sizing. One pre-decode is shared
//!   across every seed of a sweep.
//! * [`PredecodedKernel::bake`] does the cheap per-(layout, input)
//!   remainder: every scalar expression (alignment masks, shift
//!   amounts, splice points, the runtime upper bound) is evaluated
//!   against the image; every address becomes a baked `(start, step)`
//!   byte pair — truncation to the enclosing chunk happens here, which
//!   is sound because a steady iteration advances every address by
//!   `scale · V` bytes, a multiple of the chunk size; guarded blocks
//!   are resolved (the conditions are loop invariant) and flattened;
//!   every access stream is bounds-checked first-and-last against the
//!   image's guarded ranges; registers are checked defined-before-use;
//!   dynamic instruction counts are computed analytically, charging the
//!   same costs as `simdize_vm::run_simd` charges dynamically.
//!
//! After baking, the [`trace`](crate::trace) pass (on by default)
//! fuses superinstructions, hoists loop invariants into per-loop
//! headers and strips dead ops — without changing a single stored byte
//! or stat, since [`RunStats`] are fixed before fusion runs. The last
//! step of a bake renames the plan's registers onto one dense block
//! and decides which loop sections may run in strips
//! (`native::lower`); what comes out is what every tier executes.

use crate::lanes::Reg;
use crate::native::{self, IsaLevel, Program, Schedule, SectionSchedule, SequentialReason};
use crate::trace::{self, FusionEvent, FusionStats};
use simdize_codegen::{SCond, SExpr, ScalarEnv, SimdProgram, VInst};
use simdize_ir::{ArrayId, BinOp, LoopProgram, ScalarType, UnOp, Value, VectorShape};
use simdize_vm::{
    run_scalar, runtime_expr_count, scalar_ideal_ops, ExecError, MemoryImage, RunInput,
    RunStats, CALL_OVERHEAD, LOOP_OVERHEAD_PER_ITERATION, RUNTIME_SETUP_PER_EXPR,
};
use simdize_telemetry as telemetry;
use std::fmt::Write as _;
use std::sync::Arc;

/// The one vector width the engine has kernels for.
pub(crate) const V: i64 = 16;

/// "No register", in [`Op::regs`] triples and lowering's slot tables.
pub(crate) const NO_REG: u32 = u32::MAX;

/// One lowered engine instruction — the only lowered form: baking
/// emits it, the trace pass rewrites it, register renaming finishes it
/// and the strip driver executes it on every tier. Memory operands are
/// raw byte offsets into the image — `at = start + iteration · step` —
/// with any chunk truncation already applied; all scalar operands are
/// folded. `arr` identifies the accessed array so the trace pass can
/// reason about aliasing (array guarded regions never overlap).
/// Register operands are baked ids until renaming, offsets into the
/// run's register block after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    Load { dst: u32, arr: u32, start: i64, step: i64 },
    /// A `vload` + `vshiftpair` pair fused by the trace pass into one
    /// shifted load. Executes exactly like `Load`; kept distinct so the
    /// trace listing and fusion telemetry can tell them apart.
    LoadFused { dst: u32, arr: u32, start: i64, step: i64 },
    Store { src: u32, arr: u32, start: i64, step: i64 },
    Shift { dst: u32, a: u32, b: u32, amt: u8 },
    Splice { dst: u32, a: u32, b: u32, point: u8 },
    Perm { dst: u32, a: u32, b: u32, pattern: [u8; 16] },
    Splat { dst: u32, bytes: Reg },
    Bin { dst: u32, op: BinOp, a: u32, b: u32 },
    /// A binop whose other operand the trace pass proved constant at
    /// bake time; the immediate rides in the instruction.
    BinSplat { dst: u32, op: BinOp, a: u32, imm: Reg, imm_left: bool },
    Un { dst: u32, op: UnOp, a: u32 },
    Copy { dst: u32, src: u32 },
}

impl Op {
    /// The registers the op names — `[written, read, read]` —
    /// [`NO_REG`] where it has no such operand.
    pub(crate) fn regs(&self) -> [u32; 3] {
        match *self {
            Op::Load { dst, .. } | Op::LoadFused { dst, .. } | Op::Splat { dst, .. } => {
                [dst, NO_REG, NO_REG]
            }
            Op::Store { src, .. } => [NO_REG, src, NO_REG],
            Op::Copy { dst, src } => [dst, src, NO_REG],
            Op::Shift { dst, a, b, .. }
            | Op::Splice { dst, a, b, .. }
            | Op::Perm { dst, a, b, .. }
            | Op::Bin { dst, a, b, .. } => [dst, a, b],
            Op::BinSplat { dst, a, .. } | Op::Un { dst, a, .. } => [dst, a, NO_REG],
        }
    }

    /// Renames every register the op names through `f`.
    pub(crate) fn rename(&mut self, f: impl Fn(u32) -> u32) {
        match self {
            Op::Load { dst, .. } | Op::LoadFused { dst, .. } | Op::Splat { dst, .. } => {
                *dst = f(*dst)
            }
            Op::Store { src, .. } => *src = f(*src),
            Op::Copy { dst, src } => (*dst, *src) = (f(*dst), f(*src)),
            Op::Shift { dst, a, b, .. }
            | Op::Splice { dst, a, b, .. }
            | Op::Perm { dst, a, b, .. }
            | Op::Bin { dst, a, b, .. } => (*dst, *a, *b) = (f(*dst), f(*a), f(*b)),
            Op::BinSplat { dst, a, .. } | Op::Un { dst, a, .. } => (*dst, *a) = (f(*dst), f(*a)),
        }
    }
}

/// The `ub ≤ 3B` guard resolved to the scalar path at compile time.
#[derive(Debug, Clone)]
struct FallbackPlan {
    source: Arc<LoopProgram>,
    ub: u64,
    params: Vec<i64>,
}

/// Knobs for [`PredecodedKernel::bake`].
///
/// The defaults match [`CompiledKernel::compile`]: trace fusion on,
/// disassembly text built. Sweeps turn the disassembly off (nobody
/// reads per-seed text); the differential fusion tests turn fusion off
/// to pin fused == unfused execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptions {
    fuse: bool,
    disassembly: bool,
}

impl Default for KernelOptions {
    fn default() -> KernelOptions {
        KernelOptions {
            fuse: true,
            disassembly: true,
        }
    }
}

impl KernelOptions {
    /// The default options: fusion on, disassembly on.
    pub fn new() -> KernelOptions {
        KernelOptions::default()
    }

    /// Enables or disables the trace fusion pass.
    pub fn fuse(mut self, on: bool) -> KernelOptions {
        self.fuse = on;
        self
    }

    /// Enables or disables building the disassembly listing.
    pub fn disassembly(mut self, on: bool) -> KernelOptions {
        self.disassembly = on;
        self
    }
}

/// One program-level instruction after pre-decoding: registers are raw
/// indices, addresses are `(array, byte offset, byte scale)` triples,
/// permutation patterns are validated, constant splats materialized.
/// Everything left symbolic (`SExpr`/`SCond`) genuinely depends on the
/// memory layout or runtime input.
#[derive(Debug, Clone)]
enum PInst {
    LoadA { dst: u32, arr: u32, off: i64, scale: i64 },
    LoadU { dst: u32, arr: u32, off: i64, scale: i64 },
    StoreA { src: u32, arr: u32, off: i64, scale: i64 },
    StoreU { src: u32, arr: u32, off: i64, scale: i64 },
    Shift { dst: u32, a: u32, b: u32, amt: SExpr },
    Splice { dst: u32, a: u32, b: u32, point: SExpr },
    Perm { dst: u32, a: u32, b: u32, pattern: [u8; 16] },
    Splat { dst: u32, bytes: Reg, value: i64 },
    SplatParam { dst: u32, param: usize },
    Bin { dst: u32, op: BinOp, a: u32, b: u32 },
    Un { dst: u32, op: UnOp, a: u32 },
    Copy { dst: u32, src: u32 },
    Guarded { cond: SCond, body: Vec<PInst> },
}

/// The program-dependent half of kernel compilation, shared across
/// every memory layout and runtime input.
///
/// Build once per distinct `SimdProgram` with [`PredecodedKernel::new`],
/// then [`bake`](PredecodedKernel::bake) a [`CompiledKernel`] per
/// (image, input) pair. `engine::run_sweep` keys a cache of these on
/// program identity so a 64-seed sweep pre-decodes once, not 64 times.
#[derive(Debug, Clone)]
pub struct PredecodedKernel {
    source: Arc<LoopProgram>,
    elem: ScalarType,
    elem_size: i64,
    nregs: usize,
    narrays: usize,
    nparams: usize,
    trip_known: Option<u64>,
    guard_min_trip: u64,
    block: i64,
    lower_bound: i64,
    upper_bound: SExpr,
    runtime_exprs: u64,
    prologue: Vec<PInst>,
    pair: Option<Vec<PInst>>,
    body: Vec<PInst>,
    epilogue: Vec<PInst>,
}

/// A `SimdProgram` compiled for one memory layout and one set of
/// runtime inputs.
///
/// Compile once with [`CompiledKernel::compile`] (or pre-decode with
/// [`PredecodedKernel`] and [`bake`](PredecodedKernel::bake)), then
/// [`run`] against the image (or any image with the identical layout —
/// same bases, same length). The kernel's [`stats`] are computed at
/// compile time, *before* trace fusion, and are identical to what
/// [`simdize_vm::run_simd`] would count dynamically; the differential
/// tests enforce byte-for-byte and stat-for-stat equality with the
/// interpreter whether fusion is on or off.
///
/// The baked plan is immutable and shared: cloning a kernel, or pinning
/// it to an ISA tier with [`SimdKernel::lower`](crate::SimdKernel::lower),
/// copies a pointer, not the plan.
///
/// [`run`]: CompiledKernel::run
/// [`stats`]: CompiledKernel::stats
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    plan: Arc<Plan>,
}

/// Everything a bake produces.
#[derive(Debug)]
struct Plan {
    /// The lowered sections, in execution order, over one register
    /// block; empty for a scalar-fallback kernel.
    program: Program,
    schedule: Schedule,
    shape: VectorShape,
    stats: RunStats,
    bases: Vec<u64>,
    image_len: usize,
    fallback: Option<FallbackPlan>,
    disassembly: String,
    trace: String,
    fusion: FusionStats,
    fusion_events: Vec<FusionEvent>,
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

/// Pre-decodes one instruction list (recursing into guards).
fn predecode(insts: &[VInst], elem_size: i64, elem: ScalarType, out: &mut Vec<PInst>) -> Result<(), ExecError> {
    let addr = |a: &simdize_codegen::Addr| (a.array.index() as u32, a.elem * elem_size, a.scale * elem_size);
    for inst in insts {
        match inst {
            VInst::LoadA { dst, addr: a } => {
                let (arr, off, scale) = addr(a);
                out.push(PInst::LoadA { dst: dst.index() as u32, arr, off, scale });
            }
            VInst::StoreA { addr: a, src } => {
                let (arr, off, scale) = addr(a);
                out.push(PInst::StoreA { src: src.index() as u32, arr, off, scale });
            }
            VInst::LoadU { dst, addr: a } => {
                let (arr, off, scale) = addr(a);
                out.push(PInst::LoadU { dst: dst.index() as u32, arr, off, scale });
            }
            VInst::StoreU { addr: a, src } => {
                let (arr, off, scale) = addr(a);
                out.push(PInst::StoreU { src: src.index() as u32, arr, off, scale });
            }
            VInst::ShiftPair { dst, a, b, amt } => out.push(PInst::Shift {
                dst: dst.index() as u32,
                a: a.index() as u32,
                b: b.index() as u32,
                amt: amt.clone(),
            }),
            VInst::Splice { dst, a, b, point } => out.push(PInst::Splice {
                dst: dst.index() as u32,
                a: a.index() as u32,
                b: b.index() as u32,
                point: point.clone(),
            }),
            VInst::Perm { dst, a, b, pattern } => {
                if pattern.len() != V as usize {
                    return Err(ExecError::BadShiftAmount {
                        amount: pattern.len() as i64,
                    });
                }
                let mut pat = [0u8; 16];
                for (t, &sel) in pattern.iter().enumerate() {
                    if sel as i64 >= 2 * V {
                        return Err(ExecError::BadShiftAmount { amount: sel as i64 });
                    }
                    pat[t] = sel;
                }
                out.push(PInst::Perm {
                    dst: dst.index() as u32,
                    a: a.index() as u32,
                    b: b.index() as u32,
                    pattern: pat,
                });
            }
            VInst::SplatConst { dst, value } => out.push(PInst::Splat {
                dst: dst.index() as u32,
                bytes: splat_bytes(elem, *value),
                value: *value,
            }),
            VInst::SplatParam { dst, param } => out.push(PInst::SplatParam {
                dst: dst.index() as u32,
                param: param.index(),
            }),
            VInst::Bin { dst, op, a, b } => out.push(PInst::Bin {
                dst: dst.index() as u32,
                op: *op,
                a: a.index() as u32,
                b: b.index() as u32,
            }),
            VInst::Un { dst, op, a } => out.push(PInst::Un {
                dst: dst.index() as u32,
                op: *op,
                a: a.index() as u32,
            }),
            VInst::Copy { dst, src } => out.push(PInst::Copy {
                dst: dst.index() as u32,
                src: src.index() as u32,
            }),
            VInst::Guarded { cond, body } => {
                let mut inner = Vec::new();
                predecode(body, elem_size, elem, &mut inner)?;
                out.push(PInst::Guarded {
                    cond: cond.clone(),
                    body: inner,
                });
            }
        }
    }
    Ok(())
}

/// `value` replicated into every `elem`-sized lane of a register.
pub(crate) fn splat_bytes(elem: ScalarType, value: i64) -> Reg {
    let bytes = Value::from_i64(elem, value).to_le_bytes();
    let d = elem.size();
    let mut out = [0u8; 16];
    for lane in 0..16 / d {
        out[lane * d..lane * d + d].copy_from_slice(&bytes);
    }
    out
}

/// Per-bake lowering state.
struct Baking<'a> {
    image: &'a MemoryImage,
    params: &'a [i64],
    ub: i64,
    elem: ScalarType,
    defined: Vec<bool>,
    dis: String,
    want_dis: bool,
}

impl Baking<'_> {
    fn eval(&self, e: &SExpr) -> i64 {
        e.eval(&Env {
            ub: self.ub,
            image: self.image,
        })
    }

    fn use_reg(&self, r: u32) -> Result<u32, ExecError> {
        if !self.defined[r as usize] {
            return Err(ExecError::UninitializedRegister { index: r as usize });
        }
        Ok(r)
    }

    fn def_reg(&mut self, r: u32) -> u32 {
        self.defined[r as usize] = true;
        r
    }

    /// Validates one memory stream: `iters` accesses starting at byte
    /// `start`, advancing by `step` bytes each, every one inside the
    /// array's guarded region.
    fn check_stream(&self, arr: u32, start: i64, step: i64, iters: i64) -> Result<(), ExecError> {
        let array = ArrayId::from_index(arr as usize);
        let (lo, hi) = self.image.guarded_range(array);
        let last = start + (iters - 1) * step;
        for at in [start, last] {
            if at < lo || at + V > hi {
                let base = self.image.base_of(array);
                return Err(ExecError::ChunkOutOfBounds {
                    array,
                    addr: at,
                    base,
                    byte_len: (hi - base as i64 - 4 * V) as u64,
                });
            }
        }
        Ok(())
    }

    fn dis_addr(&self, arr: u32, start: i64, step: i64) -> String {
        let array = ArrayId::from_index(arr as usize);
        let rel = start - self.image.base_of(array) as i64;
        if step != 0 {
            format!("{array}[base{rel:+}; {step:+}/iter]")
        } else {
            format!("{array}[base{rel:+}]")
        }
    }

    /// Bakes `insts` executed with the induction variable starting at
    /// `i0` and advancing by `step_i` elements for `iters` iterations,
    /// appending engine ops to `out` and class counts (per single
    /// iteration) to `counts`.
    fn bake_insts(
        &mut self,
        insts: &[PInst],
        i0: i64,
        step_i: i64,
        iters: i64,
        counts: &mut RunStats,
        out: &mut Vec<Op>,
    ) -> Result<(), ExecError> {
        for inst in insts {
            self.bake_inst(inst, i0, step_i, iters, counts, out)?;
        }
        Ok(())
    }

    fn bake_inst(
        &mut self,
        inst: &PInst,
        i0: i64,
        step_i: i64,
        iters: i64,
        counts: &mut RunStats,
        out: &mut Vec<Op>,
    ) -> Result<(), ExecError> {
        // Baked `(first byte address, bytes per iteration)` of one
        // pre-decoded address.
        let baked = |this: &Baking, arr: u32, off: i64, scale: i64| {
            let base = this.image.base_of(ArrayId::from_index(arr as usize)) as i64;
            (base + off + scale * i0, scale * step_i)
        };
        match *inst {
            PInst::LoadA { dst, arr, off, scale } => {
                let (a0, step) = baked(self, arr, off, scale);
                let start = a0 & !(V - 1);
                self.check_stream(arr, start, step, iters)?;
                let d = self.def_reg(dst);
                if self.want_dis {
                    let at = self.dis_addr(arr, start, step);
                    let _ = writeln!(self.dis, "  v{d} = load.chunk {at}");
                }
                out.push(Op::Load { dst: d, arr, start, step });
                counts.loads += 1;
            }
            PInst::StoreA { src, arr, off, scale } => {
                let (a0, step) = baked(self, arr, off, scale);
                let start = a0 & !(V - 1);
                self.check_stream(arr, start, step, iters)?;
                let s = self.use_reg(src)?;
                if self.want_dis {
                    let at = self.dis_addr(arr, start, step);
                    let _ = writeln!(self.dis, "  store.chunk {at}, v{s}");
                }
                out.push(Op::Store { src: s, arr, start, step });
                counts.stores += 1;
            }
            PInst::LoadU { dst, arr, off, scale } => {
                let (start, step) = baked(self, arr, off, scale);
                self.check_stream(arr, start, step, iters)?;
                let d = self.def_reg(dst);
                if self.want_dis {
                    let at = self.dis_addr(arr, start, step);
                    let _ = writeln!(self.dis, "  v{d} = load.exact {at}");
                }
                out.push(Op::Load { dst: d, arr, start, step });
                counts.unaligned_mem += 1;
            }
            PInst::StoreU { src, arr, off, scale } => {
                let (start, step) = baked(self, arr, off, scale);
                self.check_stream(arr, start, step, iters)?;
                let s = self.use_reg(src)?;
                if self.want_dis {
                    let at = self.dis_addr(arr, start, step);
                    let _ = writeln!(self.dis, "  store.exact {at}, v{s}");
                }
                out.push(Op::Store { src: s, arr, start, step });
                counts.unaligned_mem += 1;
            }
            PInst::Shift { dst, a, b, ref amt } => {
                let amount = self.eval(amt);
                if !(0..=V).contains(&amount) {
                    return Err(ExecError::BadShiftAmount { amount });
                }
                let (ra, rb) = (self.use_reg(a)?, self.use_reg(b)?);
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(self.dis, "  v{d} = shift(v{ra}, v{rb}, {amount})");
                }
                out.push(Op::Shift {
                    dst: d,
                    a: ra,
                    b: rb,
                    amt: amount as u8,
                });
                counts.shifts += 1;
            }
            PInst::Splice { dst, a, b, ref point } => {
                let p = self.eval(point);
                if !(0..=V).contains(&p) {
                    return Err(ExecError::BadSplicePoint { point: p });
                }
                let (ra, rb) = (self.use_reg(a)?, self.use_reg(b)?);
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(self.dis, "  v{d} = splice(v{ra}, v{rb}, {p})");
                }
                out.push(Op::Splice {
                    dst: d,
                    a: ra,
                    b: rb,
                    point: p as u8,
                });
                counts.splices += 1;
            }
            PInst::Perm { dst, a, b, pattern } => {
                let (ra, rb) = (self.use_reg(a)?, self.use_reg(b)?);
                let d = self.def_reg(dst);
                if self.want_dis {
                    let pat_str: Vec<String> = pattern.iter().map(|x| x.to_string()).collect();
                    let _ = writeln!(
                        self.dis,
                        "  v{d} = perm(v{ra}, v{rb}, [{}])",
                        pat_str.join(",")
                    );
                }
                out.push(Op::Perm {
                    dst: d,
                    a: ra,
                    b: rb,
                    pattern,
                });
                counts.shifts += 1; // permutes count as reorganization ops
            }
            PInst::Splat { dst, bytes, value } => {
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(self.dis, "  v{d} = splat({value})");
                }
                out.push(Op::Splat { dst: d, bytes });
                counts.splats += 1;
            }
            PInst::SplatParam { dst, param } => {
                let value = *self
                    .params
                    .get(param)
                    .ok_or(ExecError::MissingParam { index: param })?;
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(self.dis, "  v{d} = splat(p{param}={value})");
                }
                out.push(Op::Splat {
                    dst: d,
                    bytes: splat_bytes(self.elem, value),
                });
                counts.splats += 1;
            }
            PInst::Bin { dst, op, a, b } => {
                let (ra, rb) = (self.use_reg(a)?, self.use_reg(b)?);
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(
                        self.dis,
                        "  v{d} = {}(v{ra}, v{rb})",
                        format!("{op:?}").to_lowercase()
                    );
                }
                out.push(Op::Bin {
                    dst: d,
                    op,
                    a: ra,
                    b: rb,
                });
                counts.ops += 1;
            }
            PInst::Un { dst, op, a } => {
                let ra = self.use_reg(a)?;
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(
                        self.dis,
                        "  v{d} = {}(v{ra})",
                        format!("{op:?}").to_lowercase()
                    );
                }
                out.push(Op::Un { dst: d, op, a: ra });
                counts.ops += 1;
            }
            PInst::Copy { dst, src } => {
                let s = self.use_reg(src)?;
                let d = self.def_reg(dst);
                if self.want_dis {
                    let _ = writeln!(self.dis, "  v{d} = v{s}");
                }
                out.push(Op::Copy { dst: d, src: s });
                counts.copies += 1;
            }
            PInst::Guarded { ref cond, ref body } => {
                let taken = cond.eval(&Env {
                    ub: self.ub,
                    image: self.image,
                });
                if self.want_dis {
                    let _ = writeln!(
                        self.dis,
                        "  ; guard [{cond}] resolved {}",
                        if taken { "taken" } else { "skipped" }
                    );
                }
                if taken {
                    self.bake_insts(body, i0, step_i, iters, counts, out)?;
                }
            }
        }
        Ok(())
    }
}

impl PredecodedKernel {
    /// Pre-decodes `program`: the program-only half of compilation,
    /// reusable across every memory layout and runtime input.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Unsupported`] for vector shapes other than
    /// 16 bytes and [`ExecError::BadShiftAmount`] for malformed
    /// permutation patterns.
    pub fn new(program: &SimdProgram) -> Result<PredecodedKernel, ExecError> {
        let _span = telemetry::span("predecode");
        if program.shape().bytes() as i64 != V {
            return Err(ExecError::Unsupported {
                what: "vector shapes other than V16",
            });
        }
        let source = program.source();
        let elem = source.elem();
        let elem_size = elem.size() as i64;
        let mut prologue = Vec::new();
        let mut body = Vec::new();
        let mut epilogue = Vec::new();
        predecode(program.prologue(), elem_size, elem, &mut prologue)?;
        predecode(program.body(), elem_size, elem, &mut body)?;
        let pair = match program.body_pair() {
            Some(p) => {
                let mut v = Vec::new();
                predecode(p, elem_size, elem, &mut v)?;
                Some(v)
            }
            None => None,
        };
        predecode(program.epilogue(), elem_size, elem, &mut epilogue)?;
        Ok(PredecodedKernel {
            source: Arc::new(source.clone()),
            elem,
            elem_size,
            nregs: max_reg(program) + 1,
            narrays: source.arrays().len(),
            nparams: source.params().len(),
            trip_known: source.trip().known(),
            guard_min_trip: program.guard_min_trip(),
            block: program.block() as i64,
            lower_bound: program.lower_bound() as i64,
            upper_bound: program.upper_bound().clone(),
            runtime_exprs: runtime_expr_count(program) as u64,
            prologue,
            pair,
            body,
            epilogue,
        })
    }

    /// Number of arrays in the source loop (the cache keys a layout by
    /// this many base addresses).
    pub(crate) fn narrays(&self) -> usize {
        self.narrays
    }

    /// Bakes a [`CompiledKernel`] for the layout of `image` and the
    /// runtime inputs in `input`. The image's *contents* do not matter —
    /// only its array placement — so one kernel may run over many
    /// refills of the same layout.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Unsupported`] for non-V16 images,
    /// [`ExecError::TripMismatch`]/[`ExecError::MissingParam`] on
    /// inconsistent inputs, and any machine fault the interpreter would
    /// raise at runtime (out-of-bounds streams, bad shift amounts,
    /// reads of undefined registers) — those are detected here, before
    /// any memory is touched.
    pub fn bake(
        &self,
        image: &MemoryImage,
        input: &RunInput,
        opts: &KernelOptions,
    ) -> Result<CompiledKernel, ExecError> {
        let _span = telemetry::span("bake");
        if image.shape().bytes() as i64 != V {
            return Err(ExecError::Unsupported {
                what: "vector shapes other than V16",
            });
        }
        if input.params.len() < self.nparams {
            return Err(ExecError::MissingParam {
                index: input.params.len(),
            });
        }
        if let Some(declared) = self.trip_known {
            if input.ub != declared {
                return Err(ExecError::TripMismatch {
                    declared,
                    supplied: input.ub,
                });
            }
        }
        let ub = self.trip_known.unwrap_or(input.ub);
        let bases: Vec<u64> = (0..self.narrays)
            .map(|k| image.base_of(ArrayId::from_index(k)))
            .collect();

        let mut stats = RunStats {
            invocation_overhead: CALL_OVERHEAD,
            ..RunStats::default()
        };

        if ub <= self.guard_min_trip {
            // §4.4 guard: the kernel is the original scalar loop.
            stats.used_fallback = true;
            stats.scalar_fallback =
                scalar_ideal_ops(&self.source, ub) + ub * LOOP_OVERHEAD_PER_ITERATION;
            let disassembly = format!(
                "; scalar fallback: ub = {ub} <= guard {}\n",
                self.guard_min_trip
            );
            return Ok(CompiledKernel::new(Plan {
                program: Program { sections: Vec::new(), nregs: 0, elem: self.elem },
                schedule: Schedule {
                    pair: SectionSchedule::Sequential(SequentialReason::NoLoop),
                    body: SectionSchedule::Sequential(SequentialReason::NoLoop),
                },
                shape: image.shape(),
                stats,
                bases,
                image_len: image.bytes().len(),
                fallback: Some(FallbackPlan {
                    source: Arc::clone(&self.source),
                    ub,
                    params: input.params.clone(),
                }),
                trace: disassembly.clone(),
                disassembly,
                fusion: FusionStats::default(),
                fusion_events: Vec::new(),
            }));
        }

        stats.invocation_overhead += RUNTIME_SETUP_PER_EXPR * self.runtime_exprs;

        let b = self.block;
        let lb = self.lower_bound;
        let upper = self.upper_bound.eval(&Env {
            ub: ub as i64,
            image,
        });

        // Iteration counts, mirroring run_simd's loop structure exactly:
        //   if pair: while i + B < upper { i += 2B }   (steady ×2)
        //   while i < upper { i += B }                 (leftover)
        let pair_iters = if self.pair.is_some() && lb + b < upper {
            (upper - b - lb + 2 * b - 1).div_euclid(2 * b)
        } else {
            0
        };
        let i_after = lb + 2 * b * pair_iters;
        let body_iters = if i_after < upper {
            (upper - i_after + b - 1).div_euclid(b)
        } else {
            0
        };
        let i_final = i_after + b * body_iters;

        let mut bk = Baking {
            image,
            params: &input.params,
            ub: ub as i64,
            elem: self.elem,
            defined: vec![false; self.nregs],
            dis: String::new(),
            want_dis: opts.disassembly,
        };
        if bk.want_dis {
            let _ = writeln!(
                bk.dis,
                "; kernel: V={V} D={} B={b} ub={ub} upper={upper} regs={}",
                self.elem_size, self.nregs
            );
        }

        let mut prologue = Vec::new();
        let mut pair = Vec::new();
        let mut body = Vec::new();
        let mut epilogue = Vec::new();
        let mut pro_counts = RunStats::default();
        let mut pair_counts = RunStats::default();
        let mut body_counts = RunStats::default();
        let mut epi_counts = RunStats::default();

        if bk.want_dis {
            let _ = writeln!(bk.dis, "prologue (i = 0):");
        }
        bk.bake_insts(&self.prologue, 0, 0, 1, &mut pro_counts, &mut prologue)?;
        if pair_iters > 0 {
            if bk.want_dis {
                let _ = writeln!(bk.dis, "pair (i = {lb}, step {}, x{pair_iters}):", 2 * b);
            }
            bk.bake_insts(
                self.pair.as_ref().expect("pair_iters > 0 implies pair"),
                lb,
                2 * b,
                pair_iters,
                &mut pair_counts,
                &mut pair,
            )?;
        }
        if body_iters > 0 {
            if bk.want_dis {
                let _ = writeln!(bk.dis, "body (i = {i_after}, step {b}, x{body_iters}):");
            }
            bk.bake_insts(&self.body, i_after, b, body_iters, &mut body_counts, &mut body)?;
        }
        if bk.want_dis {
            let _ = writeln!(bk.dis, "epilogue (i = {i_final}):");
        }
        bk.bake_insts(&self.epilogue, i_final, 0, 1, &mut epi_counts, &mut epilogue)?;

        stats += pro_counts;
        stats += scaled(pair_counts, pair_iters as u64);
        stats += scaled(body_counts, body_iters as u64);
        stats += epi_counts;
        stats.steady_iterations = 2 * pair_iters as u64 + body_iters as u64;
        stats.loop_overhead =
            (pair_iters as u64 + body_iters as u64) * LOOP_OVERHEAD_PER_ITERATION;

        // Stats are final: fusion below only changes how the host
        // executes the trace, never what the machine model charges.
        let (pair_header, body_header, fusion, fusion_events) = if opts.fuse {
            let _span = telemetry::span("fuse");
            trace::optimize(trace::Sections {
                prologue: &mut prologue,
                pair: &mut pair,
                pair_iters,
                body: &mut body,
                body_iters,
                epilogue: &mut epilogue,
                nregs: self.nregs,
                elem: self.elem,
            })
        } else {
            (Vec::new(), Vec::new(), FusionStats::default(), Vec::new())
        };

        let trace = match opts.disassembly {
            true => TraceListing { bases: &bases, elem: self.elem }.render(
                &format!(
                    "; trace: V={V} regs={} fused={} fused-loads={} splat-ops={} hoisted={} eliminated={}",
                    self.nregs, opts.fuse, fusion.fused_loads, fusion.splat_ops, fusion.hoisted,
                    fusion.eliminated
                ),
                &prologue,
                [("pair", &pair_header, &pair, pair_iters), ("body", &body_header, &body, body_iters)],
                &epilogue,
            ),
            false => String::new(),
        };

        // Nothing reads the baked register ids past this point: rename
        // them onto one dense block and settle each loop's schedule.
        let (program, schedule) = {
            let _span = telemetry::span("lower");
            native::lower(
                prologue,
                [(pair_header, pair, pair_iters), (body_header, body, body_iters)],
                epilogue,
                self.nregs,
                self.elem,
            )
        };

        Ok(CompiledKernel::new(Plan {
            program,
            schedule,
            shape: image.shape(),
            stats,
            bases,
            image_len: image.bytes().len(),
            fallback: None,
            disassembly: bk.dis,
            trace,
            fusion,
            fusion_events,
        }))
    }
}

impl CompiledKernel {
    /// Compiles `program` for the layout of `image` and the runtime
    /// inputs in `input`: [`PredecodedKernel::new`] followed by
    /// [`PredecodedKernel::bake`] with default [`KernelOptions`]
    /// (fusion on, disassembly on). The image's *contents* do not
    /// matter — only its array placement — so one kernel may run over
    /// many refills of the same layout.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Unsupported`] for vector shapes other than
    /// 16 bytes, [`ExecError::TripMismatch`]/[`ExecError::MissingParam`]
    /// on inconsistent inputs, and any machine fault the interpreter
    /// would raise at runtime (out-of-bounds streams, bad shift
    /// amounts, reads of undefined registers) — those are detected here,
    /// before any memory is touched.
    pub fn compile(
        program: &SimdProgram,
        image: &MemoryImage,
        input: &RunInput,
    ) -> Result<CompiledKernel, ExecError> {
        PredecodedKernel::new(program)?.bake(image, input, &KernelOptions::default())
    }

    fn new(plan: Plan) -> CompiledKernel {
        CompiledKernel { plan: Arc::new(plan) }
    }

    /// Whether `image` has the exact layout this kernel was baked for
    /// (shape, element type, total length, every array base).
    pub fn layout_matches(&self, image: &MemoryImage) -> bool {
        let plan = &*self.plan;
        image.shape() == plan.shape
            && image.elem() == plan.program.elem
            && image.bytes().len() == plan.image_len
            && (0..plan.bases.len())
                .all(|k| image.base_of(ArrayId::from_index(k)) == plan.bases[k])
    }

    /// Executes the kernel against `image`, which must have the layout
    /// the kernel was compiled for, on the portable tier every host
    /// has; [`SimdKernel`](crate::SimdKernel) runs the same plan on the
    /// host's `std::arch` tier.
    ///
    /// The lowered plan is fault-free by construction (every access
    /// and register was validated at compile time), so the hot loop is
    /// pure dispatch. Returns the compile-time [`RunStats`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] when `image` has a different layout
    /// than the compile-time one; scalar-fallback kernels propagate
    /// [`run_scalar`] faults.
    pub fn run(&self, image: &mut MemoryImage) -> Result<RunStats, ExecError> {
        self.run_at(IsaLevel::Scalar, image)
    }

    /// [`run`](CompiledKernel::run) on the tier `isa` names.
    pub(crate) fn run_at(
        &self,
        isa: IsaLevel,
        image: &mut MemoryImage,
    ) -> Result<RunStats, ExecError> {
        let _span = telemetry::span("run");
        if !self.layout_matches(image) {
            return Err(ExecError::Unsupported {
                what: "a memory image with a different layout than compiled for",
            });
        }
        let plan = &*self.plan;
        match &plan.fallback {
            Some(fb) => run_scalar(&fb.source, image, fb.ub, &fb.params).map(drop)?,
            None => native::exec(isa, &plan.program, image.bytes_mut()),
        }
        Ok(plan.stats)
    }

    /// The dynamic instruction counts this kernel's execution produces,
    /// computed analytically at compile time (before trace fusion, so
    /// fused and unfused kernels report identical stats).
    pub fn stats(&self) -> RunStats {
        self.plan.stats
    }

    /// Whether the `ub ≤ 3B` guard resolved to the scalar path.
    pub fn is_fallback(&self) -> bool {
        self.plan.fallback.is_some()
    }

    /// How [`run`](CompiledKernel::run) executes the two loop sections:
    /// in strips where lowering proved that equivalent to program
    /// order, else sequentially. The same on every tier.
    pub fn schedule(&self) -> Schedule {
        self.plan.schedule
    }

    /// What the trace fusion pass did to this kernel (all zero when
    /// baked with fusion disabled).
    pub fn fusion_stats(&self) -> FusionStats {
        self.plan.fusion
    }

    /// The individual rewrites the trace fusion pass applied, in order
    /// (empty when baked with fusion disabled). Each names its section
    /// and — for fused loads — the array.
    pub fn fusion_events(&self) -> &[FusionEvent] {
        &self.plan.fusion_events
    }

    /// A human-readable listing of the baked kernel: baked offsets,
    /// folded scalars, resolved guards and per-section iteration
    /// counts. Offsets are printed relative to each array's base so the
    /// text is stable across layouts of the same program. This listing
    /// shows the kernel *before* trace fusion; see
    /// [`trace`](CompiledKernel::trace) for the fused form. Empty when
    /// baked with the disassembly disabled.
    pub fn disassembly(&self) -> &str {
        &self.plan.disassembly
    }

    /// The plan [`run`](CompiledKernel::run) dispatches, listed before
    /// its registers are renamed so it reads against the disassembly:
    /// fused superinstructions (`vload.fused`, immediate binops),
    /// hoisted per-loop headers and dead ops stripped. Like the
    /// disassembly, offsets are printed relative to array bases so the
    /// text is stable across layouts, and it is empty when baked with
    /// the disassembly disabled.
    pub fn trace(&self) -> &str {
        &self.plan.trace
    }

    /// The lowered plan the driver runs.
    #[cfg(test)]
    pub(crate) fn program(&self) -> &Program {
        &self.plan.program
    }
}

/// Renders [`CompiledKernel::trace`].
struct TraceListing<'a> {
    bases: &'a [u64],
    elem: ScalarType,
}

impl TraceListing<'_> {
    fn render(
        &self,
        header: &str,
        prologue: &[Op],
        loops: [(&str, &Vec<Op>, &Vec<Op>, i64); 2],
        epilogue: &[Op],
    ) -> String {
        let mut out = format!("{header}\n");
        self.section(&mut out, "prologue", prologue, 1);
        for (name, header, ops, iters) in loops {
            if iters > 0 {
                if !header.is_empty() {
                    self.section(&mut out, &format!("{name}.header"), header, 1);
                }
                self.section(&mut out, name, ops, iters);
            }
        }
        self.section(&mut out, "epilogue", epilogue, 1);
        out
    }

    fn section(&self, out: &mut String, name: &str, ops: &[Op], iters: i64) {
        if iters == 1 {
            let _ = writeln!(out, "{name}:");
        } else {
            let _ = writeln!(out, "{name} x{iters}:");
        }
        for op in ops {
            let _ = writeln!(out, "{}", self.op(op));
        }
    }

    fn op(&self, op: &Op) -> String {
        let addr = |arr: u32, start: i64, step: i64| {
            let a = ArrayId::from_index(arr as usize);
            let rel = start - self.bases[arr as usize] as i64;
            if step != 0 {
                format!("{a}[base{rel:+}; {step:+}/iter]")
            } else {
                format!("{a}[base{rel:+}]")
            }
        };
        let imm_hex = |bytes: &Reg| {
            let mut s = String::new();
            for b in bytes[..self.elem.size()].iter().rev() {
                let _ = write!(s, "{b:02x}");
            }
            s
        };
        match *op {
            Op::Load { dst, arr, start, step } => {
                format!("  v{dst} = vload {}", addr(arr, start, step))
            }
            Op::LoadFused { dst, arr, start, step } => {
                format!("  v{dst} = vload.fused {}", addr(arr, start, step))
            }
            Op::Store { src, arr, start, step } => {
                format!("  vstore {}, v{src}", addr(arr, start, step))
            }
            Op::Shift { dst, a, b, amt } => format!("  v{dst} = vshiftpair(v{a}, v{b}, {amt})"),
            Op::Splice { dst, a, b, point } => format!("  v{dst} = vsplice(v{a}, v{b}, {point})"),
            Op::Perm { dst, a, b, ref pattern } => {
                let pat: Vec<String> = pattern.iter().map(|x| x.to_string()).collect();
                format!("  v{dst} = vperm(v{a}, v{b}, [{}])", pat.join(","))
            }
            Op::Splat { dst, ref bytes } => format!("  v{dst} = vsplat(0x{})", imm_hex(bytes)),
            Op::Bin { dst, op, a, b } => {
                format!("  v{dst} = {}(v{a}, v{b})", format!("{op:?}").to_lowercase())
            }
            Op::BinSplat { dst, op, a, ref imm, imm_left } => {
                let o = format!("{op:?}").to_lowercase();
                if imm_left {
                    format!("  v{dst} = {o}(0x{}, v{a})", imm_hex(imm))
                } else {
                    format!("  v{dst} = {o}(v{a}, 0x{})", imm_hex(imm))
                }
            }
            Op::Un { dst, op, a } => {
                format!("  v{dst} = {}(v{a})", format!("{op:?}").to_lowercase())
            }
            Op::Copy { dst, src } => format!("  v{dst} = v{src}"),
        }
    }
}

/// Highest register index mentioned anywhere in the program.
fn max_reg(program: &SimdProgram) -> usize {
    let mut max = 0usize;
    let mut scan = |insts: &[VInst]| {
        for inst in insts {
            if let Some(d) = inst.def() {
                max = max.max(d.index());
            }
            inst.visit_uses(&mut |r| max = max.max(r.index()));
        }
    };
    scan(program.prologue());
    scan(program.body());
    if let Some(pair) = program.body_pair() {
        scan(pair);
    }
    scan(program.epilogue());
    max
}

/// Class counts of one section iteration, scaled to `n` iterations.
fn scaled(counts: RunStats, n: u64) -> RunStats {
    RunStats {
        loads: counts.loads * n,
        stores: counts.stores * n,
        shifts: counts.shifts * n,
        splices: counts.splices * n,
        splats: counts.splats * n,
        ops: counts.ops * n,
        copies: counts.copies * n,
        unaligned_mem: counts.unaligned_mem * n,
        ..RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_codegen::{generate, CodegenOptions, ReuseMode};
    use simdize_ir::parse_program;
    use simdize_reorg::{Policy, ReorgGraph};
    use simdize_vm::run_simd;

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    fn compile_prog(src: &str, policy: Policy, reuse: ReuseMode) -> SimdProgram {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        generate(&g, &CodegenOptions::default().reuse(reuse)).unwrap()
    }

    #[test]
    fn engine_matches_interpreter_on_paper_example() {
        for policy in Policy::ALL {
            for reuse in [
                ReuseMode::None,
                ReuseMode::SoftwarePipeline,
                ReuseMode::PredictiveCommoning,
            ] {
                let prog = compile_prog(FIG1, policy, reuse);
                let source = prog.source().clone();
                let input = RunInput::with_ub(100);
                let mut interp_img = MemoryImage::with_seed(&source, VectorShape::V16, 99);
                let mut engine_img = interp_img.clone();
                let want = run_simd(&prog, &mut interp_img, &input).unwrap();
                let kernel = CompiledKernel::compile(&prog, &engine_img, &input).unwrap();
                let got = kernel.run(&mut engine_img).unwrap();
                assert_eq!(got, want, "{policy}/{reuse:?} stats diverged");
                assert_eq!(
                    engine_img.first_difference(&interp_img),
                    None,
                    "{policy}/{reuse:?} memory diverged"
                );
            }
        }
    }

    #[test]
    fn runtime_alignment_and_ub_match() {
        let src = "arrays { a: i32[256] @ ?; b: i32[256] @ ?; }
                   for i in 0..ub { a[i] = b[i+1]; }";
        let prog = compile_prog(src, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        for seed in [1u64, 5, 13] {
            for ub in [14u64, 100, 201] {
                let input = RunInput::with_ub(ub);
                let mut interp_img = MemoryImage::with_seed(&source, VectorShape::V16, seed);
                let mut engine_img = interp_img.clone();
                let want = run_simd(&prog, &mut interp_img, &input).unwrap();
                let got = CompiledKernel::compile(&prog, &engine_img, &input)
                    .unwrap()
                    .run(&mut engine_img)
                    .unwrap();
                assert_eq!(got, want, "seed {seed} ub {ub}");
                assert_eq!(engine_img.first_difference(&interp_img), None);
            }
        }
    }

    #[test]
    fn fallback_matches_interpreter() {
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
                   for i in 0..ub { a[i] = b[i+1]; }";
        let prog = compile_prog(src, Policy::Zero, ReuseMode::None);
        let source = prog.source().clone();
        let input = RunInput::with_ub(7);
        let mut interp_img = MemoryImage::with_seed(&source, VectorShape::V16, 3);
        let mut engine_img = interp_img.clone();
        let want = run_simd(&prog, &mut interp_img, &input).unwrap();
        let kernel = CompiledKernel::compile(&prog, &engine_img, &input).unwrap();
        assert!(kernel.is_fallback());
        assert!(kernel.disassembly().contains("scalar fallback"));
        assert!(kernel.trace().contains("scalar fallback"));
        let got = kernel.run(&mut engine_img).unwrap();
        assert!(got.used_fallback);
        assert_eq!(got, want);
        assert_eq!(engine_img.first_difference(&interp_img), None);
    }

    #[test]
    fn rejects_mismatched_trip_and_shapes() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::None);
        let source = prog.source().clone();
        let img = MemoryImage::with_seed(&source, VectorShape::V16, 1);
        let err = CompiledKernel::compile(&prog, &img, &RunInput::with_ub(99)).unwrap_err();
        assert_eq!(
            err,
            ExecError::TripMismatch {
                declared: 100,
                supplied: 99
            }
        );
        let img8 = MemoryImage::with_seed(&source, VectorShape::V8, 1);
        let err = CompiledKernel::compile(&prog, &img8, &RunInput::with_ub(100)).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported { .. }));
    }

    #[test]
    fn rejects_foreign_layout_at_run() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::None);
        let source = prog.source().clone();
        let img = MemoryImage::with_seed(&source, VectorShape::V16, 1);
        let kernel = CompiledKernel::compile(&prog, &img, &RunInput::with_ub(100)).unwrap();
        // Same layout, refilled contents: accepted.
        let mut refill = img.clone();
        refill.fill_random(77);
        assert!(kernel.layout_matches(&refill));
        kernel.run(&mut refill).unwrap();
        // A different program's image: rejected, not corrupted.
        let other = parse_program(
            "arrays { x: i32[16] @ 0; y: i32[16] @ 0; }
             for i in 0..8 { x[i] = y[i]; }",
        )
        .unwrap();
        let mut foreign = MemoryImage::with_seed(&other, VectorShape::V16, 1);
        assert!(!kernel.layout_matches(&foreign));
        assert!(matches!(
            kernel.run(&mut foreign),
            Err(ExecError::Unsupported { .. })
        ));
    }

    #[test]
    fn kernel_reuse_across_refills_matches_fresh_interpreter_runs() {
        let prog = compile_prog(FIG1, Policy::Eager, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let input = RunInput::with_ub(100);
        let base = MemoryImage::with_seed(&source, VectorShape::V16, 42);
        let kernel = CompiledKernel::compile(&prog, &base, &input).unwrap();
        for fill in [9u64, 10, 11] {
            let mut engine_img = base.clone();
            engine_img.fill_random(fill);
            let mut interp_img = engine_img.clone();
            kernel.run(&mut engine_img).unwrap();
            run_simd(&prog, &mut interp_img, &input).unwrap();
            assert_eq!(engine_img.first_difference(&interp_img), None, "fill {fill}");
        }
    }

    #[test]
    fn disassembly_lists_sections_and_baked_offsets() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let img = MemoryImage::with_seed(&source, VectorShape::V16, 1);
        let kernel = CompiledKernel::compile(&prog, &img, &RunInput::with_ub(100)).unwrap();
        let dis = kernel.disassembly();
        assert!(dis.starts_with("; kernel: V=16 D=4 B=4 ub=100"));
        assert!(dis.contains("prologue (i = 0):"));
        assert!(dis.contains("epilogue"));
        assert!(dis.contains("load.chunk"));
        assert!(dis.contains("/iter"));
    }

    #[test]
    fn predecode_plus_bake_equals_compile() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let input = RunInput::with_ub(100);
        let pre = PredecodedKernel::new(&prog).unwrap();
        for seed in [1u64, 9, 23] {
            let img = MemoryImage::with_seed(&source, VectorShape::V16, seed);
            let direct = CompiledKernel::compile(&prog, &img, &input).unwrap();
            let baked = pre.bake(&img, &input, &KernelOptions::default()).unwrap();
            assert_eq!(baked.stats(), direct.stats(), "seed {seed}");
            assert_eq!(baked.disassembly(), direct.disassembly(), "seed {seed}");
            assert_eq!(baked.trace(), direct.trace(), "seed {seed}");
            let mut a = img.clone();
            let mut b = img.clone();
            direct.run(&mut a).unwrap();
            baked.run(&mut b).unwrap();
            assert_eq!(a.first_difference(&b), None, "seed {seed}");
        }
    }

    #[test]
    fn fused_and_unfused_kernels_agree() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let input = RunInput::with_ub(100);
        let pre = PredecodedKernel::new(&prog).unwrap();
        let img = MemoryImage::with_seed(&source, VectorShape::V16, 5);
        let fused = pre.bake(&img, &input, &KernelOptions::default()).unwrap();
        let plain = pre
            .bake(&img, &input, &KernelOptions::default().fuse(false))
            .unwrap();
        assert_eq!(fused.stats(), plain.stats());
        assert_eq!(plain.fusion_stats(), FusionStats::default());
        let mut a = img.clone();
        let mut b = img.clone();
        fused.run(&mut a).unwrap();
        plain.run(&mut b).unwrap();
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn trace_shows_fused_loads_on_shift_heavy_kernel() {
        // Zero + software pipelining on misaligned streams: the steady
        // state is load/shift chains, exactly what fusion targets.
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let img = MemoryImage::with_seed(&source, VectorShape::V16, 1);
        let kernel = CompiledKernel::compile(&prog, &img, &RunInput::with_ub(100)).unwrap();
        let st = kernel.fusion_stats();
        assert!(st.fused_loads > 0, "no fused loads: {st:?}");
        assert!(kernel.trace().contains("vload.fused"));
        // The fused trace executes fewer steady-state ops than the
        // unfused listing.
        assert!(st.eliminated > 0, "nothing eliminated: {st:?}");
    }

    #[test]
    fn disassembly_off_skips_text_only() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let input = RunInput::with_ub(100);
        let pre = PredecodedKernel::new(&prog).unwrap();
        let img = MemoryImage::with_seed(&source, VectorShape::V16, 7);
        let quiet = pre
            .bake(&img, &input, &KernelOptions::default().disassembly(false))
            .unwrap();
        let loud = pre.bake(&img, &input, &KernelOptions::default()).unwrap();
        assert!(quiet.disassembly().is_empty());
        assert_eq!(quiet.stats(), loud.stats());
        let mut a = img.clone();
        let mut b = img.clone();
        quiet.run(&mut a).unwrap();
        loud.run(&mut b).unwrap();
        assert_eq!(a.first_difference(&b), None);
    }
}
