//! The SIMD code generator (paper §4).

use crate::error::GenCodeError;
use crate::options::{CodegenOptions, ReuseMode};
use crate::pack::{self, Step, Window};
use crate::passes;
use crate::passes::lvn::Table;
use crate::sexpr::{SCond, SExpr};
use crate::trace::{BoundFormula, CodegenEvent, CodegenTrace, Recorder, SectionCounts};
use crate::vir::{Addr, SimdProgram, VInst, VReg};
use simdize_ir::hash::{HashMap, HashSet};
use simdize_ir::{AlignKind, ArrayRef, BinOp, Invariant, ScalarType, TripCount};
use simdize_reorg::{NodeId, Offset, RNode, ReorgGraph, ShiftDir, VOpKind};
use std::ops::Range;
use std::sync::Arc;

/// Most vector registers one generated program may take: past it,
/// generation stops with [`GenCodeError::TooManyRegisters`]. A shift
/// generates its source once for each register it combines (software
/// pipelining's steady body memoizes them; prologues and epilogues never
/// do), so registers grow exponentially with the shifts nested along one
/// path. The largest program of `loops/` and of the benchmark's
/// `compile-cold` corpus, under every policy and reuse mode, takes about
/// 1 500.
pub const MAX_REGS: u32 = 1 << 20;

/// Generates a [`SimdProgram`] from a valid data reorganization graph.
///
/// The generator implements the paper's Figure 7 (expressions and stream
/// shifts), Figure 9 (prologue / steady state / epilogue with partial
/// stores), the multi-statement bound formulas (eqs. 12–14), the runtime
/// alignment and unknown-bound handling of §4.4 (eqs. 15–16 and the
/// `ub > 3B` guard), and — when [`ReuseMode::SoftwarePipeline`] is
/// selected — the software-pipelined scheme of Figure 10. A
/// non-unit-stride load is a pack and a non-unit-stride store a scatter
/// (see the `pack` module); under software pipelining a pack's chunk
/// that the next iteration loads again is carried instead. Every
/// instruction is value-numbered as it is emitted (§5.5 CSE, with
/// MemNorm's chunk keys when enabled), so no computed value is emitted
/// twice within a section. Post passes then run according to `options`:
/// under [`ReuseMode::PredictiveCommoning`] predictive commoning,
/// value numbering of its initializers and dead code elimination; and
/// copy-removing unroll-by-2.
///
/// # Errors
///
/// Returns [`GenCodeError::InvalidGraph`] when the graph violates
/// constraint (C.2) or (C.3); apply a [`simdize_reorg::Policy`] first.
/// Reductions and non-unit-stride references need the compile-time
/// facts their patterns are built from, and a program may take at most
/// [`MAX_REGS`] registers.
pub fn generate(graph: &ReorgGraph, options: &CodegenOptions) -> Result<SimdProgram, GenCodeError> {
    run(graph, options, &mut Recorder::off())
}

/// Like [`generate`], but records every structural decision — bound
/// formula, prologue/epilogue shapes, reuse scheme, post-pass effects —
/// into `trace`.
///
/// # Errors
///
/// Same as [`generate`]; on error the trace may hold the events emitted
/// before the failure.
pub fn generate_traced(
    graph: &ReorgGraph,
    options: &CodegenOptions,
    trace: &mut CodegenTrace,
) -> Result<SimdProgram, GenCodeError> {
    run(graph, options, &mut Recorder::on(trace))
}

/// The one generator and pass pipeline behind both entry points; `rec`
/// decides whether their decisions are recorded.
fn run(
    graph: &ReorgGraph,
    options: &CodegenOptions,
    rec: &mut Recorder<'_>,
) -> Result<SimdProgram, GenCodeError> {
    graph.validate()?;
    pack::check(graph.program())?;
    let (mut program, merged) = Generator::new(graph, options).run(rec)?;
    passes::run_pipeline(&mut program, merged, options, rec);
    Ok(program)
}

/// Internal code generation mode: the paper's `GenSimdExpr` (standard)
/// versus `GenSimdExprSP` (software pipelined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Std,
    Sp,
}

/// A section under construction: its instructions, and the table they
/// were value-numbered in as they were emitted.
struct Section<'g> {
    insts: Vec<VInst>,
    table: Table<'g>,
    /// Instructions the table merged into an earlier value, for the
    /// trace's `lvn` counts.
    merged: usize,
    /// Inside a block that fails at compile time: emit nothing, number
    /// nothing.
    discarding: bool,
}

impl<'g> Section<'g> {
    fn new(table: Table<'g>, capacity: usize) -> Section<'g> {
        Section {
            insts: Vec::with_capacity(capacity),
            table,
            merged: 0,
            discarding: false,
        }
    }

    /// Emits `inst` unless a register already holds its value; returns
    /// the register holding the value it defines, if any.
    fn emit(&mut self, inst: VInst) -> Option<VReg> {
        if self.discarding {
            return inst.def();
        }
        match self.table.number(&inst) {
            Some(rep) => {
                self.merged += 1;
                Some(rep)
            }
            None => {
                let def = inst.def();
                self.insts.push(inst);
                def
            }
        }
    }

    /// [`Section::emit`] for an instruction that defines a value.
    fn value(&mut self, inst: VInst) -> VReg {
        self.emit(inst).expect("value-defining instruction")
    }

    /// The finished instructions, holding no spare room (kernel caches
    /// keep the program), the merge count and the table.
    fn finish(self) -> (Vec<VInst>, usize, Table<'g>) {
        (shrunk(self.insts), self.merged, self.table)
    }
}

struct Generator<'g> {
    graph: &'g ReorgGraph,
    options: CodegenOptions,
    next_reg: u32,
    /// The prologue, open while the body is generated: software
    /// pipelining appends its initializers to it.
    prologue: Option<Section<'g>>,
    /// Loop-carried rotations `(old, second)` appended at the bottom of
    /// the steady body (Figure 10 line 19).
    carried: Vec<(VReg, VReg)>,
    /// Software-pipelining memo: result register per (shift node, i
    /// substitution), so one carried chain serves all uses.
    sp_memo: HashMap<(NodeId, i64), VReg>,
    /// Under software pipelining, the chunks the steady body's packs
    /// read, as `(array, stride, chunk on the array's grid)`: chunk `c`
    /// is next iteration's chunk `c − stride`.
    pack_chunks: HashSet<(u32, u32, i64)>,
    /// The carried register per pack chunk, and its rotations
    /// `(chunk, old, second)`.
    chunk_memo: HashMap<(u32, u32, i64), VReg>,
    chunk_carried: Vec<((u32, u32, i64), VReg, VReg)>,
    /// The iteration the section being generated runs at, when known at
    /// compile time (the prologue's 0, the epilogue's after a
    /// compile-time steady state), and the trip count packs assume.
    at: Option<i64>,
    ub: i64,
    /// Blocking factor in elements.
    b: i64,
    /// Vector length in bytes.
    v: i64,
    /// Element size in bytes.
    d: i64,
}

impl<'g> Generator<'g> {
    fn new(graph: &'g ReorgGraph, options: &CodegenOptions) -> Generator<'g> {
        // Software pipelining carries one register per shift.
        let carried = match options.reuse_mode() {
            ReuseMode::SoftwarePipeline => graph.shift_count(),
            _ => 0,
        };
        let mut pack_chunks = HashSet::default();
        if options.reuse_mode() == ReuseMode::SoftwarePipeline {
            let lanes = graph.blocking_factor() as usize;
            for node in graph.nodes() {
                if let RNode::Load { r } = *node {
                    if !r.is_unit_stride() {
                        let chunks =
                            simdize_reorg::pack_chunks(r, graph.program(), graph.shape(), 0..lanes);
                        let key = |c| (r.array.index() as u32, r.stride, c);
                        pack_chunks.extend(chunks.into_iter().map(key));
                    }
                }
            }
        }
        Generator {
            graph,
            options: *options,
            next_reg: 0,
            prologue: None,
            carried: Vec::with_capacity(carried),
            sp_memo: HashMap::with_capacity_and_hasher(carried, Default::default()),
            pack_chunks,
            chunk_memo: HashMap::default(),
            chunk_carried: Vec::new(),
            at: None,
            ub: graph.program().trip().known().map_or(0, |ub| ub as i64),
            b: graph.blocking_factor() as i64,
            v: graph.shape().bytes() as i64,
            d: graph.program().elem().size() as i64,
        }
    }

    fn fresh(&mut self) -> VReg {
        let r = VReg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Room to reserve for a section's instructions and values.
    fn section_capacity(&self) -> usize {
        2 * self.graph.nodes().len()
    }

    /// An empty section with its own value-numbering table.
    fn section(&self) -> Section<'g> {
        let table = Table::new(
            self.graph.program(),
            self.graph.shape(),
            self.options.memnorm_enabled(),
            self.section_capacity(),
        );
        Section::new(table, self.section_capacity())
    }

    /// Generates the program, passing each structural decision to `rec`;
    /// also returns how many instructions value numbering merged in
    /// each section.
    fn run(
        &mut self,
        rec: &mut Recorder<'_>,
    ) -> Result<(SimdProgram, SectionCounts), GenCodeError> {
        let program = Arc::clone(self.graph.shared_program());
        let guard_min_trip = (3 * self.b) as u64;

        // Per-statement stores (or reduction accumulators) and their
        // ProSplice expressions (eq. 8; reductions have none).
        let stmts: Vec<(ArrayRef, NodeId, Option<BinOp>)> = self
            .graph
            .roots()
            .iter()
            .zip(program.stmts())
            .map(|(&root, stmt)| match self.graph.node(root) {
                RNode::Store { r, src } => (*r, *src, stmt.reduction),
                other => unreachable!("root is not a store: {other:?}"),
            })
            .collect();
        let has_reduction = stmts.iter().any(|&(_, _, red)| red.is_some());
        if has_reduction {
            if program.trip().known().is_none() {
                return Err(GenCodeError::ReductionNeedsKnownTrip);
            }
            for &(r, _, red) in &stmts {
                if red.is_some() && !program.array(r.array).align().is_known() {
                    return Err(GenCodeError::ReductionNeedsKnownAlignment);
                }
            }
        }
        let prosplices: Vec<Option<SExpr>> = stmts
            .iter()
            .map(|&(r, _, red)| {
                if red.is_some() {
                    None
                } else {
                    Some(self.offset_expr(Offset::of_ref(r, &program, self.graph.shape())))
                }
            })
            .collect();

        // Steady-state upper bound: eq. 13 when everything is known at
        // compile time, eq. 15 otherwise. Loops containing reductions
        // always use the eq. 15 bound so that the reduction tail is
        // exactly `ub mod B` elements.
        let ub_sexpr = match program.trip() {
            TripCount::Known(u) => SExpr::c(u as i64),
            TripCount::Runtime => SExpr::Ub,
        };
        let compile_time = program.all_alignments_known() && ub_sexpr.as_const().is_some();
        let use_eq15 = !compile_time || has_reduction;
        let upper_bound = if !use_eq15 {
            let ub = ub_sexpr.as_const().expect("checked");
            // A pack reads whole blocks at offset 0, like a store there:
            // the steady state stops before it would read past `ub`.
            let packs = self
                .graph
                .nodes()
                .iter()
                .any(|n| matches!(n, RNode::Load { r } if !r.is_unit_stride()));
            let max_e = prosplices
                .iter()
                .flatten()
                .map(|ps| {
                    let ps = ps.as_const().expect("compile-time prosplice");
                    let episplice = (ps + ub * self.d).rem_euclid(self.v);
                    episplice.div_euclid(self.d)
                })
                .chain(packs.then_some(ub % self.b))
                .max()
                .unwrap_or(0);
            SExpr::c(ub - max_e)
        } else {
            ub_sexpr.clone().sub(SExpr::c(self.b - 1))
        };
        rec.record(|| CodegenEvent::BoundsChosen {
            lower_bound: self.b as u64,
            upper_bound: upper_bound.clone(),
            formula: if use_eq15 {
                BoundFormula::Eq15
            } else {
                BoundFormula::Eq13
            },
            guard_min_trip,
        });

        // Loop-carried accumulator registers, one per reduction.
        let mut accs: Vec<Option<VReg>> = vec![None; stmts.len()];

        // Prologue (Figure 9, GenSimdStmt-Prologue), executed at i = 0.
        // Reductions initialize their accumulator with the first block
        // E(0) here instead of a partial store.
        let mut pro = self.section();
        self.at = Some(0);
        for (idx, &(store, src, reduction)) in stmts.iter().enumerate() {
            rec.record(|| CodegenEvent::ProloguePeeled {
                stmt: idx,
                prosplice: prosplices[idx].clone(),
                spliced: prosplices[idx]
                    .as_ref()
                    .is_some_and(|ps| ps.as_const() != Some(0)),
            });
            if reduction.is_some() {
                let first = self.gen_expr(src, 0, &mut pro, Mode::Std);
                let acc = self.fresh();
                pro.emit(VInst::Copy {
                    dst: acc,
                    src: first,
                });
                accs[idx] = Some(acc);
                continue;
            }
            let addr = Addr::new(store.array, store.offset);
            let new = self.gen_expr(src, 0, &mut pro, Mode::Std);
            let ps = prosplices[idx].clone().expect("stores have splice points");
            if ps.as_const() == Some(0) {
                self.store(store, new, 0, &mut pro);
            } else {
                let old = self.fresh();
                let old = pro.value(VInst::LoadA { dst: old, addr });
                let spliced = self.fresh();
                let spliced = pro.value(VInst::Splice {
                    dst: spliced,
                    a: old,
                    b: new,
                    point: ps,
                });
                pro.emit(VInst::StoreA { addr, src: spliced });
            }
        }
        self.prologue = Some(pro);
        self.at = None;

        // Steady-state body (GenSimdStmt-Steady), plus carried copies.
        let body_mode = match self.options.reuse_mode() {
            ReuseMode::SoftwarePipeline => Mode::Sp,
            _ => Mode::Std,
        };
        let mut body = self.section();
        for (idx, &(store, src, reduction)) in stmts.iter().enumerate() {
            let new = self.gen_expr(src, 0, &mut body, body_mode);
            match reduction {
                Some(op) => {
                    let acc = accs[idx].expect("initialized in prologue");
                    let newacc = self.fresh();
                    let newacc = body.value(VInst::Bin {
                        dst: newacc,
                        op,
                        a: acc,
                        b: new,
                    });
                    self.carried.push((acc, newacc));
                }
                None => self.store(store, new, 0, &mut body),
            }
        }
        // A pack chunk's rotation may read the carried register of the
        // chunk `stride` further on: rotate in grid order.
        self.chunk_carried
            .sort_unstable_by_key(|&(chunk, _, _)| chunk);
        let chunks = self
            .chunk_carried
            .iter()
            .map(|&(_, old, second)| (old, second));
        self.carried.extend(chunks);
        for &(old, second) in &self.carried {
            body.emit(VInst::Copy {
                dst: old,
                src: second,
            });
        }
        let (prologue, pro_merged, _) = self.prologue.take().expect("opened above").finish();
        // The epilogue numbers its values in the body's table, cleared.
        let (body, body_merged, mut table) = body.finish();
        table.reset(0);
        let mut epi = Section::new(table, self.section_capacity());
        rec.record(|| CodegenEvent::ReuseApplied {
            mode: self.options.reuse_mode(),
            carried_chains: self.carried.len(),
        });

        // Epilogue (Figure 9, GenSimdStmt-Epilogue; eqs. 14/16),
        // executed with i at the first un-executed steady value.
        self.at = upper_bound
            .as_const()
            .map(|ubound| ceil_div(ubound, self.b).max(1) * self.b);
        for (idx, &(store, src, reduction)) in stmts.iter().enumerate() {
            if let Some(op) = reduction {
                let acc = accs[idx].expect("initialized in prologue");
                let ub = ub_sexpr.as_const().expect("reductions have known trips");
                let residue = (ub % self.b) as usize;
                rec.record(|| CodegenEvent::ReductionEpilogue {
                    stmt: idx,
                    residue,
                    fold_steps: (self.b as u64).ilog2() as usize,
                });
                self.gen_reduction_epilogue(store, src, op, acc, residue, &mut epi);
                continue;
            }
            let ps = prosplices[idx].clone().expect("stores have splice points");
            let elo = if !use_eq15 {
                let ub = ub_sexpr.as_const().expect("checked");
                let ubound = upper_bound.as_const().expect("checked");
                let steady_chunks = ceil_div(ubound, self.b);
                SExpr::c(ub * self.d + ps.as_const().expect("checked") - steady_chunks * self.v)
            } else {
                // eq. 16: EpiLeftOver = ProSplice + (ub mod B) · D.
                ps.clone()
                    .add(ub_sexpr.clone().rem(SExpr::c(self.b)).mul(SExpr::c(self.d)))
            };
            let episplice = elo.clone().rem(SExpr::c(self.v));
            rec.record(|| CodegenEvent::EpilogueForm {
                stmt: idx,
                leftover: elo.clone(),
                episplice: episplice.clone(),
                compile_time: elo.as_const().is_some(),
            });

            // Full vector store when a whole chunk is left (ELO >= V),
            // followed by a partial store at i+B for the remainder.
            let (v, b) = (self.v, self.b);
            self.guarded(SCond::Ge(elo.clone(), SExpr::c(v)), &mut epi, |g, sec| {
                let new = g.gen_expr(src, 0, sec, Mode::Std);
                g.store(store, new, 0, sec);
                g.guarded(SCond::Gt(elo.clone(), SExpr::c(v)), sec, |g, sec| {
                    g.gen_partial_store(src, store, b, episplice.clone(), sec);
                });
            });

            // Otherwise a single partial store at i (when anything is
            // left at all).
            self.guarded(SCond::Lt(elo.clone(), SExpr::c(v)), &mut epi, |g, sec| {
                g.guarded(SCond::Gt(elo.clone(), SExpr::c(0)), sec, |g, sec| {
                    g.gen_partial_store(src, store, 0, episplice.clone(), sec);
                });
            });
        }
        let (epilogue, epi_merged, _) = epi.finish();
        if self.next_reg > MAX_REGS {
            return Err(GenCodeError::TooManyRegisters);
        }

        let simd = SimdProgram {
            program,
            shape: self.graph.shape(),
            nvregs: self.next_reg,
            prologue,
            body,
            body_pair: None,
            epilogue,
            lower_bound: self.b as u64,
            upper_bound,
            guard_min_trip,
        };
        let merged = SectionCounts {
            prologue: pro_merged,
            body: body_merged,
            epilogue: epi_merged,
        };
        Ok((simd, merged))
    }

    /// Emits into `sec` what `emit` emits, under `cond`: inline when
    /// `cond` holds at compile time, as a `Guarded` block whose values
    /// stay inside it when it is decided at run time, and not at all
    /// when it fails at compile time. A discarded block still allocates
    /// its registers, so register numbers do not depend on which blocks
    /// survive.
    fn guarded(
        &mut self,
        cond: SCond,
        sec: &mut Section<'g>,
        emit: impl FnOnce(&mut Self, &mut Section<'g>),
    ) {
        match cond.as_const() {
            Some(true) => emit(self, sec),
            Some(false) => {
                let discarding = std::mem::replace(&mut sec.discarding, true);
                emit(self, sec);
                sec.discarding = discarding;
            }
            None => {
                let mark = sec.table.open();
                let outer =
                    std::mem::replace(&mut sec.insts, Vec::with_capacity(self.graph.nodes().len()));
                emit(self, sec);
                let body = std::mem::replace(&mut sec.insts, outer);
                sec.table.close(mark);
                // Empty only inside a discarded block.
                if !body.is_empty() {
                    sec.insts.push(VInst::Guarded {
                        cond,
                        body: shrunk(body),
                    });
                }
            }
        }
    }

    /// Finishes a reduction: fold the residue block (masked to the
    /// `residue` valid lanes), reduce the accumulator horizontally with
    /// log2(B) rotate-and-combine steps, and merge the scalar total into
    /// the accumulator element with a final permute.
    fn gen_reduction_epilogue(
        &mut self,
        target: ArrayRef,
        src: NodeId,
        op: BinOp,
        acc: VReg,
        residue: usize,
        epi: &mut Section<'g>,
    ) {
        let program = self.graph.program();
        let d = self.d as usize;
        let v = self.v as usize;
        let ident_value = reduction_identity(op, program.elem());

        let mut current = acc;
        if residue > 0 {
            let value = self.gen_expr(src, 0, epi, Mode::Std);
            let ident = self.fresh();
            let ident = epi.value(VInst::SplatConst {
                dst: ident,
                value: ident_value,
            });
            let pattern: Vec<u8> = (0..v)
                .map(|p| {
                    if p / d < residue {
                        p as u8
                    } else {
                        (v + p) as u8
                    }
                })
                .collect();
            let masked = self.fresh();
            let masked = epi.value(VInst::Perm {
                dst: masked,
                a: value,
                b: ident,
                pattern,
            });
            let folded = self.fresh();
            current = epi.value(VInst::Bin {
                dst: folded,
                op,
                a: current,
                b: masked,
            });
        }

        // Horizontal fold: rotate by B/2, B/4, … lanes and combine.
        let mut step = (self.b / 2) as usize;
        while step >= 1 {
            let rotated = self.fresh();
            let rotated = epi.value(VInst::ShiftPair {
                dst: rotated,
                a: current,
                b: current,
                amt: SExpr::c((step * d) as i64),
            });
            let combined = self.fresh();
            current = epi.value(VInst::Bin {
                dst: combined,
                op,
                a: current,
                b: rotated,
            });
            step /= 2;
        }

        // Merge `old op total` into the accumulator element only.
        let beta = match program.array(target.array).align() {
            AlignKind::Known(beta) => (beta % self.graph.shape().bytes()) as i64,
            AlignKind::Runtime => unreachable!("checked in run()"),
        };
        let pos = (beta + target.offset * self.d).rem_euclid(self.v) as usize;
        let addr = Addr::invariant(target.array, target.offset);
        let old = self.fresh();
        let old = epi.value(VInst::LoadA { dst: old, addr });
        let combined = self.fresh();
        let combined = epi.value(VInst::Bin {
            dst: combined,
            op,
            a: current,
            b: old,
        });
        // After the horizontal fold every lane of `current` holds the
        // total, so lane `pos / D` of `combined` is exactly
        // `total op old[pos / D]` — select it in place.
        let pattern: Vec<u8> = (0..v)
            .map(|p| {
                if p >= pos && p < pos + d {
                    p as u8
                } else {
                    (v + p) as u8
                }
            })
            .collect();
        let merged = self.fresh();
        let merged = epi.value(VInst::Perm {
            dst: merged,
            a: combined,
            b: old,
            pattern,
        });
        epi.emit(VInst::StoreA { addr, src: merged });
    }

    /// Stores every lane of `src` through `r` at `i + delta`: one vector
    /// store, or a scatter.
    fn store(&mut self, r: ArrayRef, src: VReg, delta: i64, out: &mut Section<'g>) {
        if r.is_unit_stride() {
            let addr = Addr::new(r.array, r.offset).shifted(delta);
            out.emit(VInst::StoreA { addr, src });
        } else {
            self.scatter(r, src, delta, 0..self.b as usize, out);
        }
    }

    /// Scatters `lanes` of `value` through the non-unit-stride `r` at
    /// `i + delta`: load–merge–store per covered chunk, so only those
    /// lanes' bytes change.
    fn scatter(
        &mut self,
        r: ArrayRef,
        value: VReg,
        delta: i64,
        lanes: Range<usize>,
        out: &mut Section<'g>,
    ) {
        let window = Window::of(r, self.graph.program(), self.graph.shape());
        window.scatter(&lanes, delta, value, |step| self.step(step, out));
    }

    /// A pack of the non-unit-stride `r` at `i + delta`: its window's
    /// chunks, each folded into lane order by one `vperm`. Where the
    /// section's `i` is known, only lanes of iterations in `0..ub` are
    /// gathered (no other lane reaches memory), so the window never
    /// reads past the guard padding; a pack with no such lane is a
    /// don't-care splat.
    fn gen_pack(&mut self, r: ArrayRef, delta: i64, out: &mut Section<'g>, mode: Mode) -> VReg {
        let window = Window::of(r, self.graph.program(), self.graph.shape());
        let b = self.b;
        let lanes = match self.at {
            Some(i) => {
                let (first, ub) = (i + delta, self.ub);
                (-first).clamp(0, b) as usize..(ub - first).clamp(0, b) as usize
            }
            None => 0..b as usize,
        };
        if lanes.is_empty() {
            let dst = self.fresh();
            return out.value(VInst::SplatConst { dst, value: 0 });
        }
        let pipelined = mode == Mode::Sp && delta == 0;
        window.pack(&lanes, delta, |step| match step {
            Step::Load(c, addr) if pipelined => {
                self.body_chunk((r.array.index() as u32, r.stride, c), addr, out)
            }
            step => self.step(step, out),
        })
    }

    /// Emits a pack or scatter step; returns the register holding its
    /// value (for a store, the stored one).
    fn step(&mut self, step: Step, out: &mut Section<'g>) -> VReg {
        match step {
            Step::Store(_, src) => {
                out.emit(step.inst(src));
                src
            }
            step => {
                let dst = self.fresh();
                out.value(step.inst(dst))
            }
        }
    }

    /// The software-pipelined body's register for pack chunk `key` at
    /// `addr`: the previous iteration's chunk `stride` further on,
    /// carried, when the body reads that chunk too (Figure 10 applied
    /// to a window's chunks); otherwise a load.
    fn body_chunk(&mut self, key: (u32, u32, i64), addr: Addr, out: &mut Section<'g>) -> VReg {
        if let Some(&old) = self.chunk_memo.get(&key) {
            return old;
        }
        let (array, stride, chunk) = key;
        let next = (array, stride, chunk + stride as i64);
        if !self.pack_chunks.contains(&next) {
            let dst = self.fresh();
            return out.value(VInst::LoadA { dst, addr });
        }
        // Prologue: the chunk at the first steady iteration (i = B).
        let old = self.fresh();
        let mut pro = self
            .prologue
            .take()
            .expect("open while the body is generated");
        let first = self.fresh();
        let first = pro.value(VInst::LoadA {
            dst: first,
            addr: addr.shifted(self.b),
        });
        pro.emit(VInst::Copy {
            dst: old,
            src: first,
        });
        self.prologue = Some(pro);
        self.chunk_memo.insert(key, old);
        let ahead = Addr {
            elem: addr.elem + stride as i64 * self.b,
            ..addr
        };
        let second = self.body_chunk(next, ahead, out);
        self.chunk_carried.push((key, old, second));
        old
    }

    /// Figure 9's epilogue partial store: load–splice–store at
    /// `i + delta`, keeping the first `point` bytes of the new value —
    /// for a scatter, its first `point / D` lanes.
    fn gen_partial_store(
        &mut self,
        src: NodeId,
        store: ArrayRef,
        delta: i64,
        point: SExpr,
        out: &mut Section<'g>,
    ) {
        let new = self.gen_expr(src, delta, out, Mode::Std);
        if !store.is_unit_stride() {
            let bytes = point
                .as_const()
                .expect("scatters have compile-time splice points");
            return self.scatter(store, new, delta, 0..(bytes / self.d) as usize, out);
        }
        let addr = Addr::new(store.array, store.offset);
        let old = self.fresh();
        let old = out.value(VInst::LoadA {
            dst: old,
            addr: addr.shifted(delta),
        });
        let spliced = self.fresh();
        let spliced = out.value(VInst::Splice {
            dst: spliced,
            a: new,
            b: old,
            point,
        });
        out.emit(VInst::StoreA {
            addr: addr.shifted(delta),
            src: spliced,
        });
    }

    /// Figure 7 `GenSimdExpr` / Figure 10 `GenSimdExprSP`. `delta` is the
    /// accumulated `Substitute(n, i → i + delta)` in elements.
    fn gen_expr(&mut self, node: NodeId, delta: i64, out: &mut Section<'g>, mode: Mode) -> VReg {
        // Past the cap, generation only unwinds: `run` refuses the
        // program, so what the frames still on the stack emit is moot.
        if self.next_reg > MAX_REGS {
            return VReg(0);
        }
        let graph = self.graph;
        match *graph.node(node) {
            RNode::Load { r } if !r.is_unit_stride() => self.gen_pack(r, delta, out, mode),
            RNode::Load { r } => {
                let dst = self.fresh();
                out.value(VInst::LoadA {
                    dst,
                    addr: Addr::new(r.array, r.offset + delta),
                })
            }
            RNode::Splat { inv } => {
                let dst = self.fresh();
                out.value(match inv {
                    Invariant::Const(value) => VInst::SplatConst { dst, value },
                    Invariant::Param(param) => VInst::SplatParam { dst, param },
                })
            }
            RNode::Op {
                kind: VOpKind::Bin(op),
                ref srcs,
            } => {
                let a = self.gen_expr(srcs[0], delta, out, mode);
                let b = self.gen_expr(srcs[1], delta, out, mode);
                let dst = self.fresh();
                out.value(VInst::Bin { dst, op, a, b })
            }
            RNode::Op {
                kind: VOpKind::Un(op),
                ref srcs,
            } => {
                let a = self.gen_expr(srcs[0], delta, out, mode);
                let dst = self.fresh();
                out.value(VInst::Un { dst, op, a })
            }
            RNode::ShiftStream { src, to } => {
                let from = self.graph.offset_of(src);
                let dir = from.shift_dir(to).expect("graph validated");
                match dir {
                    ShiftDir::None => self.gen_expr(src, delta, out, mode),
                    ShiftDir::Left | ShiftDir::Right if mode == Mode::Sp => {
                        self.gen_shift_sp(node, src, from, to, dir, delta, out)
                    }
                    ShiftDir::Left => {
                        // Combine current and next registers of the stream.
                        let curr = self.gen_expr(src, delta, out, mode);
                        let next = self.gen_expr(src, delta + self.b, out, mode);
                        let dst = self.fresh();
                        out.value(VInst::ShiftPair {
                            dst,
                            a: curr,
                            b: next,
                            amt: self.amount_expr(from, to),
                        })
                    }
                    ShiftDir::Right => {
                        // Combine previous and current registers.
                        let prev = self.gen_expr(src, delta - self.b, out, mode);
                        let curr = self.gen_expr(src, delta, out, mode);
                        let dst = self.fresh();
                        out.value(VInst::ShiftPair {
                            dst,
                            a: prev,
                            b: curr,
                            amt: self.amount_expr(from, to),
                        })
                    }
                }
            }
            RNode::Store { .. } => unreachable!("stores are handled per statement"),
        }
    }

    /// Figure 10 `GenSimdShiftStreamSP`: carry the previous iteration's
    /// "second" register in `old` so each stream chunk is loaded once.
    #[allow(clippy::too_many_arguments)]
    fn gen_shift_sp(
        &mut self,
        node: NodeId,
        src: NodeId,
        from: Offset,
        to: Offset,
        dir: ShiftDir,
        delta: i64,
        out: &mut Section<'g>,
    ) -> VReg {
        if let Some(&r) = self.sp_memo.get(&(node, delta)) {
            return r;
        }
        let (first_delta, second_delta) = match dir {
            ShiftDir::Left => (delta, delta + self.b),
            ShiftDir::Right => (delta - self.b, delta),
            ShiftDir::None => unreachable!("handled by caller"),
        };

        // Prologue: old = first, computed by the standard generator and
        // evaluated at the first steady iteration (i = LB = B, while the
        // prologue itself runs at i = 0).
        let old = self.fresh();
        let mut pro = self
            .prologue
            .take()
            .expect("open while the body is generated");
        let first = self.gen_expr(src, first_delta + self.b, &mut pro, Mode::Std);
        pro.emit(VInst::Copy {
            dst: old,
            src: first,
        });
        self.prologue = Some(pro);

        // Body: compute only second; combine with the carried old.
        let second = self.gen_expr(src, second_delta, out, Mode::Sp);
        let dst = self.fresh();
        let dst = out.value(VInst::ShiftPair {
            dst,
            a: old,
            b: second,
            amt: self.amount_expr(from, to),
        });
        self.carried.push((old, second));
        self.sp_memo.insert((node, delta), dst);
        dst
    }

    /// The `(from − to) mod V` shift amount as a loop-invariant scalar
    /// expression.
    fn amount_expr(&self, from: Offset, to: Offset) -> SExpr {
        match (from, to) {
            (Offset::Byte(f), Offset::Byte(t)) => {
                SExpr::c(((f as i64) + self.v - (t as i64)).rem_euclid(self.v))
            }
            // Runtime load shift to 0: amount is the runtime alignment.
            (Offset::Runtime { array, disp }, Offset::Byte(0)) => SExpr::AlignOf {
                array,
                disp: disp as i64,
            },
            // Runtime store shift from 0: V − align, in [1, V]. The
            // amount V (runtime alignment 0) selects the current
            // register whole; reducing mod V would wrongly select the
            // previous register when the alignment happens to be 0.
            (Offset::Byte(0), Offset::Runtime { array, disp }) => {
                SExpr::c(self.v).sub(SExpr::AlignOf {
                    array,
                    disp: disp as i64,
                })
            }
            (f, t) => unreachable!("undecidable shift {f} -> {t} survived validation"),
        }
    }

    /// A stream offset as a loop-invariant scalar expression.
    fn offset_expr(&self, offset: Offset) -> SExpr {
        match offset {
            Offset::Byte(b) => SExpr::c(b as i64),
            Offset::Runtime { array, disp } => SExpr::AlignOf {
                array,
                disp: disp as i64,
            },
            Offset::Any => unreachable!("store offsets are never ⊥"),
        }
    }
}

/// `insts` holding no spare room.
fn shrunk(mut insts: Vec<VInst>) -> Vec<VInst> {
    insts.shrink_to_fit();
    insts
}

/// The identity element of a reduction operation for lanes of `elem`:
/// what codegen masks a residue block with, and what the engine fills
/// the lanes of a strip's partial accumulators with.
///
/// # Panics
///
/// On [`BinOp::Sub`], which is not reassociable and so never reduces.
pub fn reduction_identity(op: BinOp, elem: ScalarType) -> i64 {
    match op {
        BinOp::Add | BinOp::Or | BinOp::Xor => 0,
        BinOp::Mul => 1,
        BinOp::And => -1,
        BinOp::Min => {
            if elem.is_signed() {
                // The signed maximum bit pattern (wraps correctly for
                // 64-bit lanes too).
                (1i64 << (elem.bits() - 1)).wrapping_sub(1)
            } else {
                -1 // all ones: the unsigned maximum after wrapping
            }
        }
        BinOp::Max => {
            if elem.is_signed() {
                // The signed minimum bit pattern; the lane constructor
                // masks to the element width.
                1i64 << (elem.bits() - 1)
            } else {
                0
            }
        }
        BinOp::Sub => unreachable!("rejected by loop validation"),
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::Policy;

    fn gen(src: &str, policy: Policy, options: CodegenOptions) -> SimdProgram {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        generate(&g, &options).unwrap()
    }

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    /// A generator whose register counter crosses [`MAX_REGS`] stops
    /// expanding expressions and refuses the program; one that ends at
    /// the cap exactly still generates it.
    #[test]
    fn a_program_past_the_register_cap_is_refused() {
        let p = parse_program(FIG1).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Lazy)
            .unwrap();
        let options = CodegenOptions::default().reuse(ReuseMode::None);
        let run = |start: u32| {
            let mut generator = Generator::new(&g, &options);
            generator.next_reg = start;
            generator
                .run(&mut Recorder::off())
                .map(|(program, _)| program)
        };
        let regs = run(0).unwrap().nvregs;
        assert!(run(MAX_REGS - regs).is_ok());
        assert!(matches!(
            run(MAX_REGS - regs + 1),
            Err(GenCodeError::TooManyRegisters)
        ));
        // Past the cap, what is left of generation only unwinds: far
        // fewer registers than the program takes.
        let mut generator = Generator::new(&g, &options);
        generator.next_reg = MAX_REGS;
        assert!(generator.run(&mut Recorder::off()).is_err());
        assert!(generator.next_reg - MAX_REGS < regs / 2);
    }

    #[test]
    fn bounds_match_paper_example() {
        // a[i+3]: ProSplice = 12, EpiSplice = (12 + 400) mod 16 = 12,
        // UB = 100 - 12/4 = 97, LB = B = 4.
        let opts = CodegenOptions::default().memnorm(false).unroll(false);
        let p = gen(FIG1, Policy::Zero, opts);
        assert_eq!(p.lower_bound(), 4);
        assert_eq!(p.upper_bound().as_const(), Some(97));
        assert_eq!(p.guard_min_trip(), 12);
        assert_eq!(p.block(), 4);
    }

    #[test]
    fn rejects_invalid_graph() {
        let p = parse_program(FIG1).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap(); // no policy
        assert!(matches!(
            generate(&g, &CodegenOptions::default()),
            Err(GenCodeError::InvalidGraph(_))
        ));
    }

    #[test]
    fn prologue_splices_unless_aligned() {
        let opts = CodegenOptions::default().unroll(false);
        let p = gen(FIG1, Policy::Zero, opts);
        // store misaligned (ProSplice = 12): prologue has load+splice+store.
        assert!(p
            .prologue()
            .iter()
            .any(|i| matches!(i, VInst::Splice { .. })));
        let aligned = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
                       for i in 0..100 { a[i] = b[i+1]; }";
        let p = gen(aligned, Policy::Zero, opts);
        // aligned store: prologue stores the full new vector directly.
        assert!(!p
            .prologue()
            .iter()
            .any(|i| matches!(i, VInst::Splice { .. })));
    }

    #[test]
    fn epilogue_folds_compile_time_guards() {
        let opts = CodegenOptions::default().unroll(false);
        let p = gen(FIG1, Policy::Zero, opts);
        // Compile-time: no Guarded instructions survive.
        assert!(!p
            .epilogue()
            .iter()
            .any(|i| matches!(i, VInst::Guarded { .. })));
        // EpiLeftOver = 400 + 12 - 25*16 = 12 < 16: single partial store.
        let stores = p
            .epilogue()
            .iter()
            .filter(|i| matches!(i, VInst::StoreA { .. }))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn runtime_ub_keeps_guards() {
        let src = "arrays { a: i32[4096] @ 0; b: i32[4096] @ 0; c: i32[4096] @ 0; }
                   for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }";
        let opts = CodegenOptions::default().unroll(false);
        let p = gen(src, Policy::Zero, opts);
        assert!(p.upper_bound().is_runtime());
        assert!(p
            .epilogue()
            .iter()
            .any(|i| matches!(i, VInst::Guarded { .. })));
    }

    #[test]
    fn software_pipeline_emits_carried_copies() {
        let opts = CodegenOptions::default()
            .reuse(ReuseMode::SoftwarePipeline)
            .unroll(false);
        let p = gen(FIG1, Policy::Zero, opts);
        let copies = p
            .body()
            .iter()
            .filter(|i| matches!(i, VInst::Copy { .. }))
            .count();
        // Three shifts (zero policy) → three carried chains.
        assert_eq!(copies, 3);
        // The body loads each of b and c exactly once (never-load-twice).
        let loads = p
            .body()
            .iter()
            .filter(|i| matches!(i, VInst::LoadA { .. }))
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn naive_body_loads_twice() {
        let opts = CodegenOptions::default().memnorm(false).unroll(false);
        let p = gen(FIG1, Policy::Zero, opts);
        // Without reuse, the store shift recomputes the whole expression
        // at i−B and the load shifts duplicate each stream (curr+next):
        // per input stream the body touches chunks {i−B, i, i+B} → 3
        // loads each after local CSE, versus 1 each with SP/PC.
        let loads = p
            .body()
            .iter()
            .filter(|i| matches!(i, VInst::LoadA { .. }))
            .count();
        assert_eq!(loads, 6);
    }

    #[test]
    fn runtime_alignment_amounts() {
        let src = "arrays { a: i32[4096] @ ?; b: i32[4096] @ ?; }
                   for i in 0..100 { a[i] = b[i+1]; }";
        let opts = CodegenOptions::default().unroll(false);
        let p = gen(src, Policy::Zero, opts);
        // Load shift amount is a raw AlignOf; store shift is (V−align)
        // mod V. The body holds the load shift at i−B and i (feeding the
        // store shift's prev/curr) plus the store shift itself: 3.
        let amts: Vec<&SExpr> = p
            .body()
            .iter()
            .filter_map(|i| match i {
                VInst::ShiftPair { amt, .. } => Some(amt),
                _ => None,
            })
            .collect();
        assert_eq!(amts.len(), 3);
        assert!(amts.iter().all(|a| a.is_runtime()));
    }

    #[test]
    fn ceil_div_matches_math() {
        assert_eq!(ceil_div(97, 4), 25);
        assert_eq!(ceil_div(96, 4), 24);
        assert_eq!(ceil_div(1, 4), 1);
        assert_eq!(ceil_div(0, 4), 0);
    }
}
