//! Back-linking emitted instructions to the decisions that produced
//! them.
//!
//! Code generation and the post passes (LVN, DCE, unroll) renumber and
//! rewrite instructions, so no id survives from the reorganization
//! graph to the final [`SimdProgram`]. Instead of threading provenance
//! through every pass, the matcher works *post hoc* on the final
//! program: each instruction kind carries enough structure (the array
//! of a truncating load, the `(from − to) mod V` amount of a
//! `vshiftpair`, the lane operation of a `vop`, the section it sits
//! in) to recover the placement and codegen decisions that explain it.
//!
//! The matcher is deliberately conservative: an ambiguous instruction
//! (e.g. two shifts with the same byte amount) links to *every*
//! decision that could have produced it, and an instruction introduced
//! purely by loop structure (bounds, guards) links to the structural
//! [`CodegenEvent::BoundsChosen`] decision — so every instruction in
//! the report carries at least one link.

use crate::decision::{DecisionId, Decisions};
use simdize::{
    BinOp, CodegenEvent, Constraint, Offset, PlacementEvent, ReorgGraph, SExpr, SimdProgram, UnOp,
    VInst,
};
use simdize_reorg::{shift_amount, RNode, VOpKind};

/// One instruction of the annotated program listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedInst {
    /// The rendered instruction (guard headers render as `if <cond>:`).
    pub text: String,
    /// Nesting depth: 0 at section top level, 1 inside a guarded block.
    pub depth: usize,
    /// Decisions this instruction is attributed to (never empty for
    /// real instructions produced by [`annotate`]).
    pub links: Vec<DecisionId>,
}

/// One section of the annotated program listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedSection {
    /// Stable section key (`prologue`, `body_pair`, `body`, `epilogue`).
    pub name: &'static str,
    /// The human-readable section header with its loop bounds.
    pub header: String,
    /// The annotated instructions, in program order.
    pub insts: Vec<AnnotatedInst>,
}

/// Which program section an instruction sits in — the matcher uses it
/// to pick between prologue, steady-state and epilogue decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SectionKind {
    Prologue,
    Body,
    Epilogue,
}

/// Annotates every instruction of `program` with the decisions that
/// produced it. `graph` must be the placed reorganization graph the
/// program was generated from (its node ids give meaning to the
/// placement events in `decisions`).
pub fn annotate(
    program: &SimdProgram,
    graph: &ReorgGraph,
    decisions: &Decisions,
) -> Vec<AnnotatedSection> {
    let linker = Linker::new(program, graph, decisions);
    let mut out = Vec::new();
    out.push(linker.section(
        "prologue",
        "prologue (i = 0):".to_string(),
        program.prologue(),
        SectionKind::Prologue,
    ));
    if let Some(pair) = program.body_pair() {
        out.push(linker.section(
            "body_pair",
            format!(
                "steady ×2 (i = {}; i + {} < {}; i += {}):",
                program.lower_bound(),
                program.block(),
                program.upper_bound(),
                2 * program.block()
            ),
            pair,
            SectionKind::Body,
        ));
        out.push(linker.section(
            "body",
            format!(
                "steady leftover (while i < {}; i += {}):",
                program.upper_bound(),
                program.block()
            ),
            program.body(),
            SectionKind::Body,
        ));
    } else {
        out.push(linker.section(
            "body",
            format!(
                "steady (i = {}; i < {}; i += {}):",
                program.lower_bound(),
                program.upper_bound(),
                program.block()
            ),
            program.body(),
            SectionKind::Body,
        ));
    }
    out.push(linker.section(
        "epilogue",
        "epilogue:".to_string(),
        program.epilogue(),
        SectionKind::Epilogue,
    ));
    out
}

/// Prepared lookup tables from decision streams to ids.
struct Linker<'a> {
    program: &'a SimdProgram,
    /// Load-array index → decisions about that load stream.
    load_links: Vec<(usize, Vec<DecisionId>)>,
    /// Compile-time shifts: `(id, (from − to) mod V)`.
    shift_known: Vec<(DecisionId, u32)>,
    /// Runtime shifts: `(id, arrays named by the runtime offsets)`.
    shift_runtime: Vec<(DecisionId, Vec<usize>)>,
    /// stmt → (C.2) constraint + store-offset + dominant-choice ids.
    store_links: Vec<(usize, Vec<DecisionId>)>,
    /// Binary lane op → (C.3) decision ids.
    c3_bin: Vec<(BinOp, Vec<DecisionId>)>,
    /// Unary lane op → (C.3) decision ids.
    c3_un: Vec<(UnOp, Vec<DecisionId>)>,
    /// Splat constant value → decision ids.
    splat_const: Vec<(i64, Vec<DecisionId>)>,
    /// Splat parameter index → decision ids.
    splat_param: Vec<(usize, Vec<DecisionId>)>,
    /// Store-target array index → statement index.
    store_stmt: Vec<(usize, usize)>,
    /// Statement indices that are reductions.
    reduction_stmts: Vec<usize>,
    bounds: Vec<DecisionId>,
    prologue_d: Vec<(usize, DecisionId)>,
    reuse_d: Vec<DecisionId>,
    epilogue_d: Vec<(usize, DecisionId)>,
    reduction_d: Vec<(usize, DecisionId)>,
    /// The placement of every pack and scatter, which their `vperm`s
    /// carry out.
    pack_d: Vec<DecisionId>,
}

fn push_to<K: PartialEq>(map: &mut Vec<(K, Vec<DecisionId>)>, key: K, id: DecisionId) {
    if let Some((_, v)) = map.iter_mut().find(|(k, _)| *k == key) {
        v.push(id);
    } else {
        map.push((key, vec![id]));
    }
}

fn get_from<K: PartialEq>(map: &[(K, Vec<DecisionId>)], key: &K) -> Vec<DecisionId> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// Array indices named by `Offset::Runtime` endpoints.
fn runtime_arrays(offsets: &[Offset]) -> Vec<usize> {
    let mut out = Vec::new();
    for o in offsets {
        if let Offset::Runtime { array, .. } = o {
            if !out.contains(&array.index()) {
                out.push(array.index());
            }
        }
    }
    out
}

/// Array indices named by `AlignOf` leaves of a scalar expression.
fn sexpr_arrays(e: &SExpr, out: &mut Vec<usize>) {
    match e {
        SExpr::Const(_) | SExpr::Ub => {}
        SExpr::AlignOf { array, .. } => {
            if !out.contains(&array.index()) {
                out.push(array.index());
            }
        }
        SExpr::Add(a, b)
        | SExpr::Sub(a, b)
        | SExpr::Mul(a, b)
        | SExpr::Div(a, b)
        | SExpr::Mod(a, b) => {
            sexpr_arrays(a, out);
            sexpr_arrays(b, out);
        }
    }
}

impl<'a> Linker<'a> {
    fn new(program: &'a SimdProgram, graph: &ReorgGraph, d: &Decisions) -> Linker<'a> {
        let shape = graph.shape();
        let mut l = Linker {
            program,
            load_links: Vec::new(),
            shift_known: Vec::new(),
            shift_runtime: Vec::new(),
            store_links: Vec::new(),
            c3_bin: Vec::new(),
            c3_un: Vec::new(),
            splat_const: Vec::new(),
            splat_param: Vec::new(),
            store_stmt: Vec::new(),
            reduction_stmts: Vec::new(),
            bounds: Vec::new(),
            prologue_d: Vec::new(),
            reuse_d: Vec::new(),
            epilogue_d: Vec::new(),
            reduction_d: Vec::new(),
            pack_d: Vec::new(),
        };
        for (s, stmt) in program.source().stmts().iter().enumerate() {
            l.store_stmt.push((stmt.target.array.index(), s));
            if stmt.is_reduction() {
                l.reduction_stmts.push(s);
            }
        }
        for (i, e) in d.placement.events.iter().enumerate() {
            let id = DecisionId::placement(i);
            match e {
                PlacementEvent::OffsetComputed { stmt, node, .. } => match graph.node(*node) {
                    RNode::Load { r } => {
                        if !r.is_unit_stride() {
                            l.pack_d.push(id);
                        }
                        push_to(&mut l.load_links, r.array.index(), id)
                    }
                    RNode::Splat { inv } => {
                        use simdize::Invariant;
                        match inv {
                            Invariant::Const(c) => push_to(&mut l.splat_const, *c, id),
                            Invariant::Param(p) => push_to(&mut l.splat_param, p.index(), id),
                        }
                    }
                    RNode::Store { r, .. } => {
                        if !r.is_unit_stride() {
                            l.pack_d.push(id);
                        }
                        push_to(&mut l.store_links, *stmt, id)
                    }
                    _ => {}
                },
                PlacementEvent::DominantChosen { stmt, .. }
                | PlacementEvent::OptimalChosen { stmt, .. } => {
                    push_to(&mut l.store_links, *stmt, id);
                }
                PlacementEvent::ConstraintChecked {
                    stmt,
                    constraint,
                    node,
                    ..
                } => match constraint {
                    Constraint::C2 => push_to(&mut l.store_links, *stmt, id),
                    Constraint::C3 => match graph.node(*node) {
                        RNode::Op {
                            kind: VOpKind::Bin(op),
                            ..
                        } => push_to(&mut l.c3_bin, *op, id),
                        RNode::Op {
                            kind: VOpKind::Un(op),
                            ..
                        } => push_to(&mut l.c3_un, *op, id),
                        _ => {}
                    },
                },
                PlacementEvent::ShiftInserted { from, to, .. } => {
                    match (from.known(), to.known()) {
                        (Some(f), Some(t)) => {
                            l.shift_known.push((id, shift_amount(f, t, shape)));
                        }
                        _ => {
                            l.shift_runtime.push((id, runtime_arrays(&[*from, *to])));
                        }
                    }
                }
                PlacementEvent::ShiftElided { node, .. } => {
                    if let RNode::Load { r } = graph.node(*node) {
                        push_to(&mut l.load_links, r.array.index(), id);
                    }
                }
            }
        }
        for (i, e) in d.codegen.events.iter().enumerate() {
            let id = DecisionId::codegen(i);
            match e {
                CodegenEvent::BoundsChosen { .. } => l.bounds.push(id),
                CodegenEvent::ProloguePeeled { stmt, .. } => l.prologue_d.push((*stmt, id)),
                CodegenEvent::ReuseApplied { .. } => l.reuse_d.push(id),
                CodegenEvent::EpilogueForm { stmt, .. } => l.epilogue_d.push((*stmt, id)),
                CodegenEvent::ReductionEpilogue { stmt, .. } => l.reduction_d.push((*stmt, id)),
                CodegenEvent::PassApplied { .. } => {}
            }
        }
        l
    }

    fn section(
        &self,
        name: &'static str,
        header: String,
        insts: &[VInst],
        kind: SectionKind,
    ) -> AnnotatedSection {
        // Flatten guarded blocks so statement context can look across
        // guard boundaries.
        let mut flat: Vec<(usize, &VInst)> = Vec::new();
        fn flatten<'v>(insts: &'v [VInst], depth: usize, out: &mut Vec<(usize, &'v VInst)>) {
            for inst in insts {
                out.push((depth, inst));
                if let VInst::Guarded { body, .. } = inst {
                    flatten(body, depth + 1, out);
                }
            }
        }
        flatten(insts, 0, &mut flat);

        let mut annotated = Vec::with_capacity(flat.len());
        for (idx, (depth, inst)) in flat.iter().enumerate() {
            let stmt = self.stmt_context(&flat, idx);
            let mut links = self.links_for(inst, kind, stmt);
            links.sort();
            links.dedup();
            let text = match inst {
                VInst::Guarded { cond, .. } => format!("if {cond}:"),
                other => other.to_string(),
            };
            annotated.push(AnnotatedInst {
                text,
                depth: *depth,
                links,
            });
        }
        AnnotatedSection {
            name,
            header,
            insts: annotated,
        }
    }

    /// The statement an instruction belongs to: the statement of the
    /// nearest following store (stores close a statement's instruction
    /// run), falling back to the nearest preceding store, then to
    /// statement 0 for single-statement loops.
    fn stmt_context(&self, flat: &[(usize, &VInst)], idx: usize) -> Option<usize> {
        let stmt_of = |inst: &VInst| -> Option<usize> {
            match inst {
                VInst::StoreA { addr, .. } | VInst::StoreU { addr, .. } => self
                    .store_stmt
                    .iter()
                    .find(|(a, _)| *a == addr.array.index())
                    .map(|(_, s)| *s),
                _ => None,
            }
        };
        for (_, inst) in &flat[idx..] {
            if let Some(s) = stmt_of(inst) {
                return Some(s);
            }
        }
        for (_, inst) in flat[..idx].iter().rev() {
            if let Some(s) = stmt_of(inst) {
                return Some(s);
            }
        }
        if self.program.source().stmts().len() == 1 {
            Some(0)
        } else {
            None
        }
    }

    fn links_for(&self, inst: &VInst, kind: SectionKind, stmt: Option<usize>) -> Vec<DecisionId> {
        let mut links = match inst {
            VInst::LoadA { addr, .. } | VInst::LoadU { addr, .. } => {
                let array = addr.array.index();
                let mut ls = get_from(&self.load_links, &array);
                // A load of a *store-target* array is the read half of a
                // partial store (Figure 9) or a reduction accumulator
                // read — attribute it to the section's shaping decision.
                if let Some((_, s)) = self.store_stmt.iter().find(|(a, _)| *a == array) {
                    match kind {
                        SectionKind::Prologue => ls.extend(get_ids(&self.prologue_d, *s)),
                        SectionKind::Epilogue => {
                            ls.extend(get_ids(&self.epilogue_d, *s));
                            ls.extend(get_ids(&self.reduction_d, *s));
                        }
                        SectionKind::Body => ls.extend(get_from(&self.store_links, s)),
                    }
                }
                ls
            }
            VInst::StoreA { addr, .. } | VInst::StoreU { addr, .. } => {
                let array = addr.array.index();
                let s = self
                    .store_stmt
                    .iter()
                    .find(|(a, _)| *a == array)
                    .map(|(_, s)| *s);
                match (kind, s) {
                    (SectionKind::Prologue, Some(s)) => get_ids(&self.prologue_d, s),
                    (SectionKind::Epilogue, Some(s)) => {
                        let mut ls = get_ids(&self.epilogue_d, s);
                        ls.extend(get_ids(&self.reduction_d, s));
                        ls
                    }
                    (SectionKind::Body, Some(s)) => get_from(&self.store_links, &s),
                    _ => Vec::new(),
                }
            }
            VInst::ShiftPair { amt, .. } => {
                let mut ls = Vec::new();
                if let Some(k) = amt.as_const() {
                    for (id, a) in &self.shift_known {
                        if i64::from(*a) == k {
                            ls.push(*id);
                        }
                    }
                } else {
                    let mut arrays = Vec::new();
                    sexpr_arrays(amt, &mut arrays);
                    for (id, shift_arrays) in &self.shift_runtime {
                        if arrays.iter().any(|a| shift_arrays.contains(a)) {
                            ls.push(*id);
                        }
                    }
                    if ls.is_empty() {
                        ls.extend(self.shift_runtime.iter().map(|(id, _)| *id));
                    }
                }
                // Horizontal reduction folds rotate with power-of-two
                // amounts the placement phase never chose.
                if ls.is_empty() && kind == SectionKind::Epilogue {
                    ls.extend(self.reduction_ids(stmt));
                }
                ls
            }
            VInst::Splice { .. } => match (kind, stmt) {
                (SectionKind::Prologue, Some(s)) => get_ids(&self.prologue_d, s),
                (SectionKind::Epilogue, Some(s)) => {
                    let mut ls = get_ids(&self.epilogue_d, s);
                    ls.extend(get_ids(&self.reduction_d, s));
                    ls
                }
                (SectionKind::Prologue, None) => {
                    self.prologue_d.iter().map(|(_, id)| *id).collect()
                }
                (SectionKind::Epilogue, None) => {
                    self.epilogue_d.iter().map(|(_, id)| *id).collect()
                }
                _ => Vec::new(),
            },
            VInst::Perm { .. } => {
                let mut ls = self.reduction_ids(stmt);
                ls.extend(self.pack_d.iter().copied());
                ls
            }
            VInst::SplatConst { value, .. } => {
                let mut ls = get_from(&self.splat_const, value);
                if ls.is_empty() {
                    // Reduction identities and fold masks are synthesized
                    // by codegen, not present in the source expression.
                    ls = match kind {
                        SectionKind::Prologue => self.reduction_prologue_ids(stmt),
                        _ => self.reduction_ids(stmt),
                    };
                }
                ls
            }
            VInst::SplatParam { param, .. } => get_from(&self.splat_param, &param.index()),
            VInst::Bin { op, .. } => {
                let mut ls = get_from(&self.c3_bin, op);
                // The vector accumulate of a reduction statement is
                // introduced by codegen, not by the expression graph.
                let reducers: Vec<usize> = self
                    .reduction_stmts
                    .iter()
                    .copied()
                    .filter(|s| self.program.source().stmts()[*s].reduction == Some(*op))
                    .collect();
                if !reducers.is_empty() {
                    for s in reducers {
                        match kind {
                            SectionKind::Epilogue => ls.extend(get_ids(&self.reduction_d, s)),
                            _ => ls.extend(get_ids(&self.prologue_d, s)),
                        }
                    }
                }
                ls
            }
            VInst::Un { op, .. } => get_from(&self.c3_un, op),
            VInst::Copy { .. } => self.reuse_d.clone(),
            VInst::Guarded { .. } => {
                // Runtime guards exist because an epilogue (or bound)
                // couldn't fold at compile time.
                let mut ls = match stmt {
                    Some(s) => {
                        let mut v = get_ids(&self.epilogue_d, s);
                        v.extend(get_ids(&self.reduction_d, s));
                        v
                    }
                    None => self.epilogue_d.iter().map(|(_, id)| *id).collect(),
                };
                ls.extend(self.bounds.clone());
                ls
            }
        };
        if links.is_empty() {
            // Structural fallback: the loop-shape decision.
            links = self.bounds.clone();
        }
        links
    }

    fn reduction_ids(&self, stmt: Option<usize>) -> Vec<DecisionId> {
        match stmt {
            Some(s) if get_ids(&self.reduction_d, s).is_empty() => {
                self.reduction_d.iter().map(|(_, id)| *id).collect()
            }
            Some(s) => get_ids(&self.reduction_d, s),
            None => self.reduction_d.iter().map(|(_, id)| *id).collect(),
        }
    }

    fn reduction_prologue_ids(&self, stmt: Option<usize>) -> Vec<DecisionId> {
        let stmts: Vec<usize> = match stmt {
            Some(s) if self.reduction_stmts.contains(&s) => vec![s],
            _ => self.reduction_stmts.clone(),
        };
        stmts
            .iter()
            .flat_map(|s| get_ids(&self.prologue_d, *s))
            .collect()
    }
}

fn get_ids(map: &[(usize, DecisionId)], key: usize) -> Vec<DecisionId> {
    map.iter()
        .filter(|(k, _)| *k == key)
        .map(|(_, id)| *id)
        .collect()
}
