//! Kernel compilation: one `SimdProgram` + one memory layout + one set
//! of runtime inputs, baked once into straight-line [`Op`] sections
//! that a tight dispatch loop can execute with no per-iteration
//! decisions left.
//!
//! [`PredecodedKernel::new`] checks, once per program, what no layout
//! can change — the V16 shape and every `vperm` pattern — and counts
//! the register file and the runtime scalar expressions. It borrows the
//! program and allocates nothing, so a sweep shares one across every
//! seed and a one-job request pays nothing for it.
//!
//! [`PredecodedKernel::bake`] walks the VIR itself, per (layout,
//! input): every scalar expression (alignment masks, shift amounts,
//! splice points, the runtime upper bound) is evaluated against the
//! image; every address becomes a baked `(start, step)` byte pair —
//! truncation to the enclosing chunk happens here, which is sound
//! because a steady iteration advances every address by `scale · V`
//! bytes, a multiple of the chunk size; guarded blocks are resolved
//! (the conditions are loop invariant) and flattened; every access
//! stream is bounds-checked first-and-last against the image's guarded
//! ranges; registers are checked defined-before-use and numbered
//! densely, in the order of their first definitions, so every table a
//! later pass indexes by register is sized by the bake's registers, not
//! by the VIR's id space; dynamic instruction counts are computed
//! analytically, charging the same costs as `simdize_vm::run_simd`
//! charges dynamically. Those tables — the baked ids, fusion's and
//! lowering's — are the thread's bake workspace ([`Workspace`]), lent
//! once per bake and cleared and re-sized by it, so a bake allocates
//! only what its plan keeps.
//!
//! A bake emits §4's loop as one list of six sections, each with its
//! iteration count: prologue, pair header, pair, body header, body and
//! epilogue (`Section::plan`; a header stays empty until fusion hoists
//! into it). That one list runs to the end. The [`trace`](crate::trace)
//! pass (on by default) rewrites it in place: it fuses
//! superinstructions, hoists loop invariants into the header slots and
//! strips dead ops, without changing a single stored byte or stat,
//! since [`RunStats`] are fixed before fusion runs. The last step of a
//! bake (`native::lower`) finishes the same sections: it renames the
//! plan's registers onto one dense block and decides which loop
//! sections may run in strips. What comes out is what every tier
//! executes and what [`CompiledKernel::trace`] lists. One function,
//! [`live_in`], computes the registers a section reads before it writes
//! them, for fusion and lowering alike.

use crate::lanes::Reg;
use crate::native::{
    self, IsaLevel, Leaf, Program, Schedule, Section, SectionSchedule, SequentialReason, Sink,
    Super, Term,
};
use crate::trace::{self, FusionEvent, FusionStats};
use simdize_codegen::{Addr, ScalarEnv, SimdProgram, VInst, VReg};
use simdize_ir::{ArrayId, BinOp, LoopProgram, ScalarType, UnOp, Value, VectorShape};
use simdize_telemetry as telemetry;
use simdize_vm::{
    run_scalar, runtime_expr_count, scalar_ideal_ops, ExecError, MemoryImage, RunInput, RunStats,
    CALL_OVERHEAD, LOOP_OVERHEAD_PER_ITERATION, RUNTIME_SETUP_PER_EXPR,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;

/// The one vector width the engine has kernels for.
pub(crate) const V: i64 = 16;

/// "No register", in [`Op::regs`] triples and lowering's slot tables.
pub(crate) const NO_REG: u32 = u32::MAX;

/// One lowered engine instruction — the only IR below the VIR: baking
/// emits it, the trace pass rewrites it, register renaming finishes it
/// and the strip driver executes it on every tier. Memory operands are
/// raw byte offsets into the image — `at = start + iteration · step` —
/// with any chunk truncation already applied; all scalar operands are
/// folded. `arr` identifies the accessed array so the trace pass can
/// reason about aliasing (array guarded regions never overlap).
/// Register operands are baked ids (dense, in first-definition order)
/// until renaming, offsets into the run's register block after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    Load {
        dst: u32,
        arr: u32,
        start: i64,
        step: i64,
    },
    /// A `vload` + `vshiftpair` pair fused by the trace pass into one
    /// shifted load. Executes exactly like `Load`; kept distinct so the
    /// plan listing and fusion telemetry can tell them apart.
    LoadFused {
        dst: u32,
        arr: u32,
        start: i64,
        step: i64,
    },
    Store {
        src: u32,
        arr: u32,
        start: i64,
        step: i64,
    },
    Shift {
        dst: u32,
        a: u32,
        b: u32,
        amt: u8,
    },
    Splice {
        dst: u32,
        a: u32,
        b: u32,
        point: u8,
    },
    Perm {
        dst: u32,
        a: u32,
        b: u32,
        pattern: [u8; 16],
    },
    Splat {
        dst: u32,
        bytes: Reg,
    },
    Bin {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
    },
    /// A binop whose other operand the trace pass proved constant at
    /// bake time; the immediate rides in the instruction.
    BinSplat {
        dst: u32,
        op: BinOp,
        a: u32,
        imm: Reg,
        imm_left: bool,
    },
    Un {
        dst: u32,
        op: UnOp,
        a: u32,
    },
    Copy {
        dst: u32,
        src: u32,
    },
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

/// The registers `ops` read before (or without) writing them — what a
/// section needs live on entry — in the order it first reads them, into
/// `live`. The one live-in rule of the back half: fusion's loop-entry
/// fixpoint, its hoist and its liveness sweep, and lowering all call it.
/// `seen` is scratch, sized here to the `nregs` register ids.
pub(crate) fn live_in(ops: &[Op], nregs: usize, seen: &mut Vec<bool>, live: &mut Vec<u32>) {
    seen.clear();
    seen.resize(nregs, false);
    live.clear();
    for op in ops {
        let [dst, a, b] = op.regs();
        // Sources before the destination: `acc = acc + x` reads first.
        for r in [a, b] {
            if r != NO_REG && !std::mem::replace(&mut seen[r as usize], true) {
                live.push(r);
            }
        }
        if dst != NO_REG {
            seen[dst as usize] = true;
        }
    }
}

/// The `ub ≤ 3B` guard resolved to the scalar path at compile time.
#[derive(Debug, Clone)]
struct FallbackPlan {
    source: LoopProgram,
    ub: u64,
    guard: u64,
    params: Vec<i64>,
}

/// Knobs for [`PredecodedKernel::bake`]: trace fusion, on by default
/// as in [`CompiledKernel::compile`]. The differential fusion tests
/// turn it off to pin fused == unfused execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptions {
    fuse: bool,
}

impl Default for KernelOptions {
    fn default() -> KernelOptions {
        KernelOptions { fuse: true }
    }
}

impl KernelOptions {
    /// The default options: fusion on.
    pub fn new() -> KernelOptions {
        KernelOptions::default()
    }

    /// Enables or disables the trace fusion pass.
    pub fn fuse(mut self, on: bool) -> KernelOptions {
        self.fuse = on;
        self
    }

    /// Does nothing: a bake formats no text, and
    /// [`CompiledKernel::trace`] renders the plan on demand.
    // Kept only because the benchmark package (`benchmark/`, frozen
    // between benchmark PRs) spells `KernelOptions::new().disassembly(false)`.
    #[doc(hidden)]
    pub fn disassembly(self, _on: bool) -> KernelOptions {
        self
    }
}

/// The program-dependent half of kernel compilation, shared across
/// every memory layout and runtime input.
///
/// [`PredecodedKernel::new`] checks a `SimdProgram` once and borrows
/// it; [`bake`](PredecodedKernel::bake) then compiles a
/// [`CompiledKernel`] per (image, input) pair straight from its VIR.
/// A sweep (`run_sweep_collect`) builds one per distinct program, so a
/// 64-seed sweep checks the program once, not 64 times.
#[derive(Debug, Clone, Copy)]
pub struct PredecodedKernel<'p> {
    program: &'p SimdProgram,
    checked: Checked,
}

/// What [`PredecodedKernel::new`] learns about a program, without the
/// borrow: a [`Template`](crate::Template) that owns its program keeps
/// this and lends a [`PredecodedKernel`] out per use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checked {
    nregs: usize,
    runtime_exprs: u64,
}

impl Checked {
    /// The check behind [`PredecodedKernel::new`].
    pub(crate) fn of(program: &SimdProgram) -> Result<Checked, ExecError> {
        let _span = telemetry::span("predecode");
        if program.shape().bytes() as i64 != V {
            return Err(ExecError::Unsupported {
                what: "vector shapes other than V16",
            });
        }
        let (mut max_reg, mut runtime) = (0, program.upper_bound().is_runtime());
        let pair = program.body_pair().unwrap_or_default();
        for insts in [program.prologue(), program.body(), pair, program.epilogue()] {
            check(insts, &mut max_reg, &mut runtime)?;
        }
        Ok(Checked {
            nregs: max_reg + 1,
            // A program with no runtime expression has none to count.
            runtime_exprs: if runtime {
                runtime_expr_count(program) as u64
            } else {
                0
            },
        })
    }

    /// `program`'s predecoded form; `self` must be its check.
    pub(crate) fn lend(self, program: &SimdProgram) -> PredecodedKernel<'_> {
        PredecodedKernel {
            program,
            checked: self,
        }
    }
}

/// A `SimdProgram` compiled for one memory layout and one set of
/// runtime inputs.
///
/// Compile once with [`CompiledKernel::compile`] (or check with
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

/// Checks the `vperm` patterns of `insts` (recursing into guards),
/// raises `max` to the highest register they name and sets `runtime`
/// if a shift amount or splice point is a runtime expression.
fn check(insts: &[VInst], max: &mut usize, runtime: &mut bool) -> Result<(), ExecError> {
    for inst in insts {
        match inst {
            VInst::Perm { pattern, .. } if pattern.len() != V as usize => {
                return Err(ExecError::BadShiftAmount {
                    amount: pattern.len() as i64,
                });
            }
            VInst::Perm { pattern, .. } => {
                if let Some(&sel) = pattern.iter().find(|&&sel| sel as i64 >= 2 * V) {
                    return Err(ExecError::BadShiftAmount { amount: sel as i64 });
                }
            }
            VInst::Guarded { body, .. } => check(body, max, runtime)?,
            VInst::ShiftPair { amt: e, .. } | VInst::Splice { point: e, .. } => {
                *runtime |= e.is_runtime()
            }
            _ => {}
        }
        if let Some(d) = inst.def() {
            *max = (*max).max(d.index());
        }
        inst.visit_uses(&mut |r| *max = (*max).max(r.index()));
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

/// Every table a bake fills and throws away: the baked ids and the
/// tables of trace fusion and lowering. Each thread keeps one
/// ([`WORKSPACE`]), which [`PredecodedKernel::bake`] borrows once and
/// every pass clears and re-sizes what it uses, so a bake allocates only
/// what its plan keeps and a thread holds at most what its largest bake
/// needed at once.
#[derive(Default)]
struct Workspace {
    /// By VIR register ([`Baking::ids`]).
    ids: Vec<u32>,
    fuse: trace::Tables,
    lower: native::Tables,
}

thread_local! {
    /// The thread's bake workspace, the way `strip::COLUMNS` holds its
    /// run scratch.
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Per-bake lowering state.
struct Baking<'a> {
    image: &'a MemoryImage,
    params: &'a [i64],
    ub: i64,
    elem: ScalarType,
    /// By VIR register: its baked id, [`NO_REG`] until its first
    /// definition. Ids are handed out in first-definition order, so
    /// every table downstream is sized by the bake's registers
    /// (`nregs`), not by the VIR's id space.
    ids: &'a mut Vec<u32>,
    nregs: u32,
}

impl Baking<'_> {
    fn env(&self) -> Env<'_> {
        Env {
            ub: self.ub,
            image: self.image,
        }
    }

    fn use_reg(&self, r: VReg) -> Result<u32, ExecError> {
        match self.ids[r.index()] {
            NO_REG => Err(ExecError::UninitializedRegister { index: r.index() }),
            id => Ok(id),
        }
    }

    fn def_reg(&mut self, r: VReg) -> u32 {
        let id = &mut self.ids[r.index()];
        if *id == NO_REG {
            (*id, self.nregs) = (self.nregs, self.nregs + 1);
        }
        *id
    }

    /// The baked `(array, first byte, bytes per iteration)` of `addr`
    /// over `iters` iterations from element `i0` in steps of `step_i` —
    /// truncated to its chunk when `truncate` — once the first and last
    /// access are checked to lie inside the array's guarded region.
    fn stream(
        &self,
        addr: &Addr,
        truncate: bool,
        i0: i64,
        step_i: i64,
        iters: i64,
    ) -> Result<(u32, i64, i64), ExecError> {
        let d = self.elem.size() as i64;
        let base = self.image.base_of(addr.array);
        let exact = base as i64 + (addr.elem + addr.scale * i0) * d;
        let start = if truncate { exact & !(V - 1) } else { exact };
        let step = addr.scale * step_i * d;
        let (lo, hi) = self.image.guarded_range(addr.array);
        for at in [start, start + (iters - 1) * step] {
            if at < lo || at + V > hi {
                return Err(ExecError::ChunkOutOfBounds {
                    array: addr.array,
                    addr: at,
                    base,
                    byte_len: (hi - base as i64 - 4 * V) as u64,
                });
            }
        }
        Ok((addr.array.index() as u32, start, step))
    }

    /// Bakes `insts` executed with the induction variable starting at
    /// `i0` and advancing by `step_i` elements for `iters` iterations,
    /// appending engine ops to `out` and class counts (per single
    /// iteration) to `counts`.
    fn bake_insts(
        &mut self,
        insts: &[VInst],
        i0: i64,
        step_i: i64,
        iters: i64,
        counts: &mut RunStats,
        out: &mut Vec<Op>,
    ) -> Result<(), ExecError> {
        for inst in insts {
            match inst {
                VInst::LoadA { dst, addr } | VInst::LoadU { dst, addr } => {
                    let aligned = matches!(inst, VInst::LoadA { .. });
                    let (arr, start, step) = self.stream(addr, aligned, i0, step_i, iters)?;
                    out.push(Op::Load {
                        dst: self.def_reg(*dst),
                        arr,
                        start,
                        step,
                    });
                    if aligned {
                        counts.loads += 1;
                    } else {
                        counts.unaligned_mem += 1;
                    }
                }
                VInst::StoreA { addr, src } | VInst::StoreU { addr, src } => {
                    let aligned = matches!(inst, VInst::StoreA { .. });
                    let (arr, start, step) = self.stream(addr, aligned, i0, step_i, iters)?;
                    out.push(Op::Store {
                        src: self.use_reg(*src)?,
                        arr,
                        start,
                        step,
                    });
                    if aligned {
                        counts.stores += 1;
                    } else {
                        counts.unaligned_mem += 1;
                    }
                }
                VInst::ShiftPair { dst, a, b, amt } => {
                    let amount = amt.eval(&self.env());
                    if !(0..=V).contains(&amount) {
                        return Err(ExecError::BadShiftAmount { amount });
                    }
                    let (a, b) = (self.use_reg(*a)?, self.use_reg(*b)?);
                    out.push(Op::Shift {
                        dst: self.def_reg(*dst),
                        a,
                        b,
                        amt: amount as u8,
                    });
                    counts.shifts += 1;
                }
                VInst::Splice { dst, a, b, point } => {
                    let p = point.eval(&self.env());
                    if !(0..=V).contains(&p) {
                        return Err(ExecError::BadSplicePoint { point: p });
                    }
                    let (a, b) = (self.use_reg(*a)?, self.use_reg(*b)?);
                    out.push(Op::Splice {
                        dst: self.def_reg(*dst),
                        a,
                        b,
                        point: p as u8,
                    });
                    counts.splices += 1;
                }
                VInst::Perm { dst, a, b, pattern } => {
                    let (a, b) = (self.use_reg(*a)?, self.use_reg(*b)?);
                    let pattern = pattern[..]
                        .try_into()
                        .expect("`PredecodedKernel::new` checked it");
                    out.push(Op::Perm {
                        dst: self.def_reg(*dst),
                        a,
                        b,
                        pattern,
                    });
                    counts.shifts += 1; // permutes count as reorganization ops
                }
                VInst::SplatConst { dst, value } => {
                    let bytes = splat_bytes(self.elem, *value);
                    out.push(Op::Splat {
                        dst: self.def_reg(*dst),
                        bytes,
                    });
                    counts.splats += 1;
                }
                VInst::SplatParam { dst, param } => {
                    let index = param.index();
                    let value = *self
                        .params
                        .get(index)
                        .ok_or(ExecError::MissingParam { index })?;
                    let bytes = splat_bytes(self.elem, value);
                    out.push(Op::Splat {
                        dst: self.def_reg(*dst),
                        bytes,
                    });
                    counts.splats += 1;
                }
                VInst::Bin { dst, op, a, b } => {
                    let (a, b) = (self.use_reg(*a)?, self.use_reg(*b)?);
                    out.push(Op::Bin {
                        dst: self.def_reg(*dst),
                        op: *op,
                        a,
                        b,
                    });
                    counts.ops += 1;
                }
                VInst::Un { dst, op, a } => {
                    let a = self.use_reg(*a)?;
                    out.push(Op::Un {
                        dst: self.def_reg(*dst),
                        op: *op,
                        a,
                    });
                    counts.ops += 1;
                }
                VInst::Copy { dst, src } => {
                    let src = self.use_reg(*src)?;
                    out.push(Op::Copy {
                        dst: self.def_reg(*dst),
                        src,
                    });
                    counts.copies += 1;
                }
                VInst::Guarded { cond, body } => {
                    if cond.eval(&self.env()) {
                        self.bake_insts(body, i0, step_i, iters, counts, out)?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl<'p> PredecodedKernel<'p> {
    /// Checks `program` for every layout and input at once — its
    /// vector shape and its permutation patterns — and counts its
    /// registers and runtime scalar expressions. Borrows the program;
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Unsupported`] for vector shapes other than
    /// 16 bytes and [`ExecError::BadShiftAmount`] for malformed
    /// permutation patterns.
    pub fn new(program: &'p SimdProgram) -> Result<PredecodedKernel<'p>, ExecError> {
        Checked::of(program).map(|checked| checked.lend(program))
    }

    /// Number of arrays in the source loop (the cache keys a layout by
    /// this many base addresses).
    pub(crate) fn narrays(&self) -> usize {
        self.program.source().arrays().len()
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
        let program = self.program;
        let source = program.source();
        if image.shape().bytes() as i64 != V {
            return Err(ExecError::Unsupported {
                what: "vector shapes other than V16",
            });
        }
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
        let ub = input.ub;
        let elem = source.elem();
        let bases: Vec<u64> = (0..self.narrays())
            .map(|k| image.base_of(ArrayId::from_index(k)))
            .collect();

        let mut stats = RunStats {
            invocation_overhead: CALL_OVERHEAD,
            ..RunStats::default()
        };

        let guard = program.guard_min_trip();
        if ub <= guard {
            // §4.4 guard: the kernel is the original scalar loop.
            stats.used_fallback = true;
            stats.scalar_fallback = scalar_ideal_ops(source, ub) + ub * LOOP_OVERHEAD_PER_ITERATION;
            return Ok(CompiledKernel::new(Plan {
                program: Program {
                    sections: Vec::new(),
                    nregs: 0,
                    elem,
                },
                schedule: Schedule {
                    pair: SectionSchedule::Sequential(SequentialReason::NoLoop),
                    body: SectionSchedule::Sequential(SequentialReason::NoLoop),
                },
                shape: image.shape(),
                stats,
                bases,
                image_len: image.bytes().len(),
                fallback: Some(FallbackPlan {
                    source: source.clone(),
                    ub,
                    guard,
                    params: input.params.clone(),
                }),
                fusion: FusionStats::default(),
                fusion_events: Vec::new(),
            }));
        }

        stats.invocation_overhead += RUNTIME_SETUP_PER_EXPR * self.checked.runtime_exprs;
        WORKSPACE
            .with_borrow_mut(|ws| self.bake_plan(image, input, opts, stats, bases, ws))
            .map(CompiledKernel::new)
    }

    /// [`bake`](PredecodedKernel::bake) past the scalar-fallback guard,
    /// from its stats so far and the image's array bases, on the tables
    /// of `ws`.
    fn bake_plan(
        &self,
        image: &MemoryImage,
        input: &RunInput,
        opts: &KernelOptions,
        mut stats: RunStats,
        bases: Vec<u64>,
        ws: &mut Workspace,
    ) -> Result<Plan, ExecError> {
        let program = self.program;
        let (ub, elem) = (input.ub, program.source().elem());
        let b = program.block() as i64;
        let lb = program.lower_bound() as i64;
        let upper = program.upper_bound().eval(&Env {
            ub: ub as i64,
            image,
        });

        // Iteration counts, mirroring run_simd's loop structure exactly:
        //   if pair: while i + B < upper { i += 2B }   (steady ×2)
        //   while i < upper { i += B }                 (leftover)
        let pair_iters = if program.body_pair().is_some() && lb + b < upper {
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

        ws.ids.clear();
        ws.ids.resize(self.checked.nregs, NO_REG);
        let mut bk = Baking {
            image,
            params: &input.params,
            ub: ub as i64,
            elem,
            ids: &mut ws.ids,
            nregs: 0,
        };

        // Baked in execution order, so register ids are handed out in
        // first-definition order; the headers stay empty until fusion
        // hoists into them.
        let mut sections = Section::plan(pair_iters, body_iters);
        let pair = program.body_pair().unwrap_or_default();
        let vir = [
            (program.prologue(), 0, 0),
            (&[][..], 0, 0),
            (pair, lb, 2 * b),
            (&[], 0, 0),
            (program.body(), i_after, b),
            (program.epilogue(), i_final, 0),
        ];
        for (section, (insts, i0, step_i)) in
            sections.iter_mut().zip(vir).filter(|(s, _)| s.iters > 0)
        {
            // Class counts of one iteration, scaled below.
            let mut counts = RunStats::default();
            // Sized by the VIR; a guarded block that runs may still grow it.
            section.ops.reserve(insts.len());
            bk.bake_insts(
                insts,
                i0,
                step_i,
                section.iters,
                &mut counts,
                &mut section.ops,
            )?;
            stats += scaled(counts, section.iters as u64);
        }
        stats.steady_iterations = 2 * pair_iters as u64 + body_iters as u64;
        stats.loop_overhead = (pair_iters as u64 + body_iters as u64) * LOOP_OVERHEAD_PER_ITERATION;

        // Stats are final: fusion below only changes how the host
        // executes the trace, never what the machine model charges.
        let mut nregs = bk.nregs as usize;
        let (fusion, fusion_events) = if opts.fuse {
            let _span = telemetry::span("fuse");
            trace::optimize(&mut sections, &mut nregs, elem, &mut ws.fuse)
        } else {
            Default::default()
        };

        // Nothing reads the baked register ids past this point: rename
        // them onto one dense block and settle each loop's schedule.
        let (program, schedule) = {
            let _span = telemetry::span("lower");
            native::lower(sections, nregs, elem, &mut ws.lower)
        };

        Ok(Plan {
            program,
            schedule,
            shape: image.shape(),
            stats,
            bases,
            image_len: image.bytes().len(),
            fallback: None,
            fusion,
            fusion_events,
        })
    }
}

impl CompiledKernel {
    /// Compiles `program` for the layout of `image` and the runtime
    /// inputs in `input`: [`PredecodedKernel::new`] followed by
    /// [`PredecodedKernel::bake`] with default [`KernelOptions`]
    /// (fusion on). The image's *contents* do not matter — only its
    /// array placement — so one kernel may run over many refills of
    /// the same layout.
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
        CompiledKernel {
            plan: Arc::new(plan),
        }
    }

    /// Whether `image` has the exact layout this kernel was baked for
    /// (shape, element type, total length, every array base).
    pub fn layout_matches(&self, image: &MemoryImage) -> bool {
        let plan = &*self.plan;
        image.shape() == plan.shape
            && image.elem() == plan.program.elem
            && image.bytes().len() == plan.image_len
            && (0..plan.bases.len()).all(|k| image.base_of(ArrayId::from_index(k)) == plan.bases[k])
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

    /// Each section that runs superinstructions, in execution order, as
    /// `(role, paired, all)`: how many of its superinstructions split
    /// into an unrolled pair's two matching halves — the ones the AVX2
    /// tier runs with both halves in one 256-bit register — out of how
    /// many it runs. The same on every tier.
    pub fn superinstructions(&self) -> Vec<(&'static str, usize, usize)> {
        let sections = self
            .plan
            .program
            .sections
            .iter()
            .filter(|s| !s.supers.is_empty());
        sections
            .map(|s| {
                (
                    s.role,
                    s.supers.iter().filter(|f| f.halves != 0).count(),
                    s.supers.len(),
                )
            })
            .collect()
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

    /// A listing of the plan [`run`](CompiledKernel::run) dispatches,
    /// rendered on each call from the lowered sections themselves: each
    /// section's role, iteration count and schedule (strip, or
    /// sequential with its reason), then what the strip driver
    /// dispatches, one line each — an op, or a `fold` superinstruction
    /// with its member ops indented under it — with fused loads
    /// (`vload.fused`), immediate binops, hoisted headers, registers
    /// renamed onto the run's register block, and rotation copies
    /// replaced by seed lanes. Offsets
    /// are printed relative to array bases, so the text is stable
    /// across layouts of the same program.
    pub fn trace(&self) -> String {
        let plan = &*self.plan;
        if let Some(fb) = &plan.fallback {
            return format!("; scalar fallback: ub = {} <= guard {}\n", fb.ub, fb.guard);
        }
        let f = plan.fusion;
        let mut out = format!(
            "; plan: V={V} lanes={} fused-loads={} splat-ops={} hoisted={} eliminated={}\n",
            plan.program.nregs, f.fused_loads, f.splat_ops, f.hoisted, f.eliminated
        );
        let listing = Listing {
            bases: &plan.bases,
            elem: plan.program.elem,
        };
        for section in plan.program.sections.iter().filter(|s| !s.ops.is_empty()) {
            listing.section(&mut out, section);
        }
        out
    }

    /// The lowered plan the driver runs.
    #[cfg(test)]
    pub(crate) fn program(&self) -> &Program {
        &self.plan.program
    }
}

/// Renders [`CompiledKernel::trace`], one line per dispatch.
struct Listing<'a> {
    bases: &'a [u64],
    elem: ScalarType,
}

impl Listing<'_> {
    fn section(&self, out: &mut String, s: &Section) {
        let _ = match (s.iters, s.schedule) {
            (1, _) => writeln!(out, "{}:", s.role),
            (n, SectionSchedule::Strip) => writeln!(out, "{} x{n}, strip:", s.role),
            (n, SectionSchedule::Sequential(why)) => {
                writeln!(out, "{} x{n}, sequential ({why:?}):", s.role)
            }
        };
        for &(c, d) in &s.seeds {
            let _ = writeln!(out, "  ; v{c}: {d} seed lane(s) of column v{}", c + d);
        }
        for (c, op, _) in &s.partials {
            let _ = writeln!(out, "  ; v{c}: lane partials, folded by {}", name(op));
        }
        let mut at = 0;
        for i in 0..=s.supers.len() {
            let f = s.supers.get(i);
            for op in &s.ops[at..f.map_or(s.ops.len(), |f| f.ops.start)] {
                let _ = writeln!(out, "{}", self.op(op));
            }
            if let Some(f) = f {
                let _ = writeln!(out, "{}", fold(f));
                for op in &s.ops[f.ops.clone()] {
                    let _ = writeln!(out, "  {}", self.op(op));
                }
                at = f.ops.end;
            }
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
            Op::Load {
                dst,
                arr,
                start,
                step,
            } => {
                format!("  v{dst} = vload {}", addr(arr, start, step))
            }
            Op::LoadFused {
                dst,
                arr,
                start,
                step,
            } => {
                format!("  v{dst} = vload.fused {}", addr(arr, start, step))
            }
            Op::Store {
                src,
                arr,
                start,
                step,
            } => {
                format!("  vstore {}, v{src}", addr(arr, start, step))
            }
            Op::Shift { dst, a, b, amt } => format!("  v{dst} = vshiftpair(v{a}, v{b}, {amt})"),
            Op::Splice { dst, a, b, point } => format!("  v{dst} = vsplice(v{a}, v{b}, {point})"),
            Op::Perm {
                dst,
                a,
                b,
                ref pattern,
            } => {
                let pat: Vec<String> = pattern.iter().map(|x| x.to_string()).collect();
                format!("  v{dst} = vperm(v{a}, v{b}, [{}])", pat.join(","))
            }
            Op::Splat { dst, ref bytes } => format!("  v{dst} = vsplat(0x{})", imm_hex(bytes)),
            Op::Bin { dst, op, a, b } => format!("  v{dst} = {}(v{a}, v{b})", name(&op)),
            Op::BinSplat {
                dst,
                op,
                a,
                ref imm,
                imm_left,
            } => {
                let o = name(&op);
                if imm_left {
                    format!("  v{dst} = {o}(0x{}, v{a})", imm_hex(imm))
                } else {
                    format!("  v{dst} = {o}(v{a}, 0x{})", imm_hex(imm))
                }
            }
            Op::Un { dst, op, a } => format!("  v{dst} = {}(v{a})", name(&op)),
            Op::Copy { dst, src } => format!("  v{dst} = v{src}"),
        }
    }
}

/// A superinstruction's dispatched line: its operator (`copy` when
/// no fold combines two streams), each fold's stream count and the
/// folds' sink — or, for mixed trees, each fold's expression over its
/// leaves (`s` a stream, `g` a gather and `k` a splat, numbered by
/// stream and by table) and the stream count.
fn fold(f: &Super) -> String {
    let sink = match f.folds()[0].sink {
        Sink::Store { .. } => "vstore".to_string(),
        Sink::Shift { .. } => format!("vshiftpair from v{} + vstore", f.column),
        Sink::Reduce { op } => format!("v{} lane partials by {}", f.column, name(&op)),
    };
    let Some(shape) = &f.tree else {
        let op = if f.folds().iter().all(|g| g.leaves == 1) {
            "copy".to_string()
        } else {
            name(&f.op)
        };
        let leaves: Vec<String> = f.folds().iter().map(|g| g.leaves.to_string()).collect();
        return format!("  fold {op}, {} streams -> {sink}", leaves.join("+"));
    };
    let leaf = |j: u8| match shape.leaves[j as usize] {
        Leaf::Stream(s) => format!("s{s}"),
        Leaf::Gather { table, .. } => format!("g{table}"),
        Leaf::Splat(table) => format!("k{table}"),
    };
    let term = |t: &Term| match t.op {
        Some(op) => format!("{}({}, {})", name(&op), leaf(t.a), leaf(t.b)),
        None => leaf(t.a),
    };
    let (mut at, mut folds) = (0, Vec::new());
    for (g, op) in f.folds().iter().zip(&shape.ops) {
        let terms: Vec<String> = shape.terms[at..at + g.leaves].iter().map(term).collect();
        folds.push(if g.leaves == 1 {
            terms.join("")
        } else {
            format!("{}({})", name(op), terms.join(", "))
        });
        at += g.leaves;
    }
    format!(
        "  fold {} over {} streams -> {sink}",
        folds.join("; "),
        f.loads().len()
    )
}

/// An operator's listing name: its variant, lower-cased.
fn name(op: &impl std::fmt::Debug) -> String {
    format!("{op:?}").to_lowercase()
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
        assert!(kernel
            .trace()
            .starts_with("; scalar fallback: ub = 7 <= guard"));
        let got = kernel.run(&mut engine_img).unwrap();
        assert!(got.used_fallback);
        assert_eq!(got, want);
        assert_eq!(engine_img.first_difference(&interp_img), None);
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
            assert_eq!(
                engine_img.first_difference(&interp_img),
                None,
                "fill {fill}"
            );
        }
    }

    #[test]
    fn new_plus_bake_equals_compile() {
        let prog = compile_prog(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        let source = prog.source().clone();
        let input = RunInput::with_ub(100);
        let pre = PredecodedKernel::new(&prog).unwrap();
        for seed in [1u64, 9, 23] {
            let img = MemoryImage::with_seed(&source, VectorShape::V16, seed);
            let direct = CompiledKernel::compile(&prog, &img, &input).unwrap();
            let baked = pre.bake(&img, &input, &KernelOptions::default()).unwrap();
            assert_eq!(baked.stats(), direct.stats(), "seed {seed}");
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
}
