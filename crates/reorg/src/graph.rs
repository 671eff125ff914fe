//! The data reorganization graph (paper §3.3).

use crate::error::{BuildGraphError, ValidateGraphError};
use crate::offset::Offset;
use crate::policy::Policy;
use crate::stats::GraphStats;
use simdize_ir::{ArrayRef, BinOp, Expr, Invariant, LoopProgram, UnOp, VectorShape};
use std::fmt;
use std::sync::Arc;

/// The largest stride a reference may have. A pack reads, and a
/// scatter rewrites, about `stride` chunks per simdized iteration; the
/// memory image's guard padding covers a window this wide past either
/// end of a stream and no wider.
pub const MAX_STRIDE: u32 = 4;

/// Identifier of a node within a [`ReorgGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's index in the graph's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The element-wise operation performed by a `vop` node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOpKind {
    /// A binary lane-wise operation.
    Bin(BinOp),
    /// A unary lane-wise operation.
    Un(UnOp),
}

impl fmt::Display for VOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VOpKind::Bin(op) => write!(f, "v{}", format!("{op:?}").to_lowercase()),
            VOpKind::Un(op) => write!(f, "v{}", format!("{op:?}").to_lowercase()),
        }
    }
}

/// One node of a data reorganization graph.
///
/// The node kinds mirror the paper's §3.3 exactly: `vload`, `vsplat`,
/// `vop`, `vshiftstream` and `vstore`. Stream offsets are not stored in
/// the nodes: the graph derives each node's once, from the array
/// declarations and its operands', as the node is added (see
/// [`ReorgGraph::offset_of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RNode {
    /// `vload(addr(i))` for the reference `r`; produces a register
    /// stream whose offset is `addr(0) mod V` (eq. 1). A non-unit
    /// stride makes it a *pack* at offset 0 (see [`Offset::of_ref`]).
    Load {
        /// The loaded reference.
        r: ArrayRef,
    },
    /// `vsplat(x)` of a loop invariant; stream offset ⊥.
    Splat {
        /// The replicated invariant.
        inv: Invariant,
    },
    /// `vop(src1, …, srcn)`: a lane-wise computation whose inputs must
    /// satisfy constraint (C.3).
    Op {
        /// The operation.
        kind: VOpKind,
        /// Input streams, in operand order.
        srcs: Vec<NodeId>,
    },
    /// `vshiftstream(src, Osrc, to)`: re-offsets the `src` stream to
    /// stream offset `to` (eq. 5).
    ShiftStream {
        /// The stream being shifted.
        src: NodeId,
        /// The target stream offset (must be loop invariant).
        to: Offset,
    },
    /// `vstore(addr(i), src)`: consumes a stream; constraint (C.2)
    /// requires `offset_of(src) == addr(0) mod V` — 0 for a
    /// non-unit-stride *scatter*.
    Store {
        /// The stored reference.
        r: ArrayRef,
        /// The value stream being stored.
        src: NodeId,
    },
}

/// An expression forest augmented with data reordering operations —
/// the *data reorganization graph* of paper §3.3.
///
/// The graph owns a validated [`LoopProgram`] plus the target
/// [`VectorShape`], holds one [`RNode::Store`] root per statement, and is
/// produced in two stages:
///
/// 1. [`ReorgGraph::build`] simdizes the loop *as if the machine had no
///    alignment constraints* (no shift nodes);
/// 2. [`ReorgGraph::with_policy`] inserts `vshiftstream` nodes according
///    to a [`Policy`], yielding a graph that satisfies (C.2)/(C.3) —
///    checkable with [`ReorgGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorgGraph {
    pub(crate) program: Arc<LoopProgram>,
    pub(crate) shape: VectorShape,
    pub(crate) nodes: Vec<RNode>,
    /// `offsets[n]`: the stream offset of node `n`, computed by `add`
    /// from its operands', which are always added first.
    offsets: Vec<Offset>,
    pub(crate) roots: Vec<NodeId>,
    pub(crate) policy: Option<Policy>,
}

impl ReorgGraph {
    /// Builds the unshifted graph for `program` on a machine with vector
    /// registers of `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError::ElementTooWide`] when one element does
    /// not fit a register, [`BuildGraphError::NoParallelism`] when the
    /// blocking factor `B = V / D` is 1 and simdization is pointless, or
    /// [`BuildGraphError::UnsupportedStride`] past [`MAX_STRIDE`].
    pub fn build(program: &LoopProgram, shape: VectorShape) -> Result<ReorgGraph, BuildGraphError> {
        let d = program.elem().size() as u32;
        if d > shape.bytes() {
            return Err(BuildGraphError::ElementTooWide {
                elem: program.elem(),
                shape,
            });
        }
        if shape.bytes() / d < 2 {
            return Err(BuildGraphError::NoParallelism {
                elem: program.elem(),
                shape,
            });
        }
        // The first reference too wide, in `all_refs` order; and one
        // node per expression node and per store.
        let mut wide = None;
        let mut check = |r: ArrayRef| {
            if wide.is_none() && r.stride > MAX_STRIDE {
                wide = Some(r.stride);
            }
        };
        let mut nodes = 0;
        for stmt in program.stmts() {
            stmt.rhs.visit_loads(&mut check);
            check(stmt.target);
            nodes += stmt.rhs.node_count() + 1;
        }
        if let Some(stride) = wide {
            return Err(BuildGraphError::UnsupportedStride { stride });
        }
        let mut g = ReorgGraph::empty(Arc::new(program.clone()), shape, None, nodes);
        for stmt in program.stmts() {
            let src = g.add_expr(&stmt.rhs);
            let root = g.add(RNode::Store {
                r: stmt.target,
                src,
            });
            g.roots.push(root);
        }
        Ok(g)
    }

    fn add_expr(&mut self, e: &Expr) -> NodeId {
        match e {
            Expr::Load(r) => self.add(RNode::Load { r: *r }),
            Expr::Splat(inv) => self.add(RNode::Splat { inv: *inv }),
            Expr::Binary(op, a, b) => {
                let a = self.add_expr(a);
                let b = self.add_expr(b);
                self.add(RNode::Op {
                    kind: VOpKind::Bin(*op),
                    srcs: vec![a, b],
                })
            }
            Expr::Unary(op, a) => {
                let a = self.add_expr(a);
                self.add(RNode::Op {
                    kind: VOpKind::Un(*op),
                    srcs: vec![a],
                })
            }
        }
    }

    /// A graph of `program` with no nodes yet and room for `capacity`.
    pub(crate) fn empty(
        program: Arc<LoopProgram>,
        shape: VectorShape,
        policy: Option<Policy>,
        capacity: usize,
    ) -> ReorgGraph {
        ReorgGraph {
            nodes: Vec::with_capacity(capacity),
            offsets: Vec::with_capacity(capacity),
            roots: Vec::with_capacity(program.stmts().len()),
            program,
            shape,
            policy,
        }
    }

    /// Appends `node`, whose operands must already be in the graph,
    /// and records its stream offset.
    pub(crate) fn add(&mut self, node: RNode) -> NodeId {
        let offset = match &node {
            RNode::Load { r } | RNode::Store { r, .. } => {
                Offset::of_ref(*r, &self.program, self.shape)
            }
            RNode::Splat { .. } => Offset::Any,
            RNode::ShiftStream { to, .. } => *to,
            RNode::Op { srcs, .. } => {
                let mut acc = Offset::Any;
                for &s in srcs {
                    match acc.meet(self.offsets[s.index()]) {
                        Some(m) => acc = m,
                        None => break, // invalid graph; keep leftmost
                    }
                }
                acc
            }
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.offsets.push(offset);
        id
    }

    /// The loop this graph simdizes.
    pub fn program(&self) -> &LoopProgram {
        &self.program
    }

    /// The loop this graph simdizes, shared: placement hands it to the
    /// placed graph, and code generation to the program it emits,
    /// without copying it.
    pub fn shared_program(&self) -> &Arc<LoopProgram> {
        &self.program
    }

    /// The target vector register shape.
    pub fn shape(&self) -> VectorShape {
        self.shape
    }

    /// The blocking factor `B = V / D` (paper eq. 7).
    pub fn blocking_factor(&self) -> u32 {
        self.shape.blocking_factor(self.program.elem())
    }

    /// The node arena; indexes are [`NodeId`]s.
    pub fn nodes(&self) -> &[RNode] {
        &self.nodes
    }

    /// The node with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &RNode {
        &self.nodes[id.index()]
    }

    /// The store roots, one per statement, in statement order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The policy that produced this graph's shifts, if
    /// [`ReorgGraph::with_policy`] has run.
    pub fn policy(&self) -> Option<Policy> {
        self.policy
    }

    /// The stream offset of `id` (paper §3.3):
    ///
    /// * load → `addr(0) mod V`;
    /// * splat → ⊥;
    /// * shift → its target offset;
    /// * op → the meet of its operand offsets (first conflict-free
    ///   answer; on an *invalid* graph, the leftmost operand's offset);
    /// * store → the offset the store *requires* of its source, i.e.
    ///   `addr(0) mod V`.
    ///
    /// Each node's offset is computed once, bottom-up, when the node is
    /// added, so this is a lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn offset_of(&self, id: NodeId) -> Offset {
        self.offsets[id.index()]
    }

    /// The required store offset of statement `stmt` — the right-hand
    /// side of constraint (C.2). Reduction statements require offset 0
    /// (their registers are accumulated whole).
    pub fn store_offset(&self, stmt: usize) -> Offset {
        if self.program.stmts()[stmt].is_reduction() {
            Offset::Byte(0)
        } else {
            self.offset_of(self.roots[stmt])
        }
    }

    /// Checks the validity constraints (C.2) and (C.3) on every node.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, naming the offending node.
    pub fn validate(&self) -> Result<(), ValidateGraphError> {
        for (idx, node) in self.nodes.iter().enumerate() {
            let id = NodeId(idx as u32);
            match node {
                RNode::Op { srcs, .. } => {
                    let mut acc = Offset::Any;
                    for &s in srcs {
                        let o = self.offset_of(s);
                        match acc.meet(o) {
                            Some(m) => acc = m,
                            None => {
                                return Err(ValidateGraphError::OperandMismatch {
                                    node: id,
                                    left: acc,
                                    right: o,
                                })
                            }
                        }
                    }
                    let d = self.program.elem().size() as u32;
                    if !acc.is_natural(d) {
                        return Err(ValidateGraphError::UnnaturalOperands {
                            node: id,
                            offset: acc,
                        });
                    }
                }
                RNode::Store { r, src } => {
                    let stmt = self
                        .roots
                        .iter()
                        .position(|&root| root == id)
                        .expect("store nodes are roots");
                    let need = if self.program.stmts()[stmt].is_reduction() {
                        // Reductions accumulate whole registers; offset 0
                        // keeps steady-state registers garbage-free.
                        Offset::Byte(0)
                    } else {
                        Offset::of_ref(*r, &self.program, self.shape)
                    };
                    let have = self.offset_of(*src);
                    if !have.matches(need) {
                        return Err(ValidateGraphError::StoreMismatch {
                            node: id,
                            required: need,
                            found: have,
                        });
                    }
                }
                RNode::ShiftStream { src, to } => {
                    let from = self.offset_of(*src);
                    if from.shift_dir(*to).is_none() {
                        return Err(ValidateGraphError::UndecidableShift {
                            node: id,
                            from,
                            to: *to,
                        });
                    }
                }
                RNode::Load { .. } | RNode::Splat { .. } => {}
            }
        }
        Ok(())
    }

    /// Number of `vshiftstream` nodes in the graph — the data
    /// reorganization overhead a policy introduces.
    pub fn shift_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, RNode::ShiftStream { .. }))
            .count()
    }

    /// Per-kind node counts and shift statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats::of(self)
    }

    /// The `vshiftstream` source and `from` offset for a shift node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a shift node.
    pub fn shift_parts(&self, id: NodeId) -> (NodeId, Offset, Offset) {
        match self.node(id) {
            RNode::ShiftStream { src, to } => (*src, self.offset_of(*src), *to),
            other => panic!("shift_parts on non-shift node {other:?}"),
        }
    }
}

impl fmt::Display for ReorgGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (s, &root) in self.roots.iter().enumerate() {
            writeln!(f, "stmt {s}:")?;
            self.fmt_node(f, root, 1)?;
        }
        Ok(())
    }
}

impl ReorgGraph {
    fn fmt_node(&self, f: &mut fmt::Formatter<'_>, id: NodeId, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self.node(id) {
            RNode::Load { r } => {
                writeln!(
                    f,
                    "{pad}{id} = vload({}) @{}",
                    self.ref_str(*r),
                    self.offset_of(id)
                )
            }
            RNode::Splat { inv } => writeln!(f, "{pad}{id} = vsplat({inv}) @⊥"),
            RNode::Op { kind, srcs } => {
                let args: Vec<String> = srcs.iter().map(|s| s.to_string()).collect();
                writeln!(
                    f,
                    "{pad}{id} = {kind}({}) @{}",
                    args.join(", "),
                    self.offset_of(id)
                )?;
                for &s in srcs {
                    self.fmt_node(f, s, depth + 1)?;
                }
                Ok(())
            }
            RNode::ShiftStream { src, to } => {
                writeln!(
                    f,
                    "{pad}{id} = vshiftstream({src}, from={}, to={to})",
                    self.offset_of(*src)
                )?;
                self.fmt_node(f, *src, depth + 1)
            }
            RNode::Store { r, src } => {
                writeln!(
                    f,
                    "{pad}{id} = vstore({} @{}, {src})",
                    self.ref_str(*r),
                    self.offset_of(id)
                )?;
                self.fmt_node(f, *src, depth + 1)
            }
        }
    }

    /// How a placement event names the load of `r`.
    pub(crate) fn load_desc(&self, r: ArrayRef) -> String {
        match r.stride {
            1 => format!("vload({})", self.ref_str(r)),
            s => format!(
                "vload({}) [pack: stride {s} gathered to offset 0]",
                self.ref_str(r)
            ),
        }
    }

    /// How a placement event names the store of `r`.
    pub(crate) fn store_desc(&self, r: ArrayRef) -> String {
        match r.stride {
            1 => format!("vstore({})", self.ref_str(r)),
            s => format!(
                "vstore({}) [scatter: stride {s} from offset 0]",
                self.ref_str(r)
            ),
        }
    }

    pub(crate) fn ref_str(&self, r: ArrayRef) -> String {
        let name = self.program.array(r.array).name();
        let i = match r.stride {
            1 => "i".to_string(),
            s => format!("{s}*i"),
        };
        match r.offset {
            0 => format!("{name}[{i}]"),
            k if k > 0 => format!("{name}[{i}+{k}]"),
            k => format!("{name}[{i}{k}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, ScalarType};

    fn paper_example() -> ReorgGraph {
        // Figure 1 with 16-byte-aligned bases: offsets b[i+1] → 4,
        // c[i+2] → 8, a[i+3] → 12, exactly as in Figure 3.
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        ReorgGraph::build(&p, VectorShape::V16).unwrap()
    }

    #[test]
    fn builds_one_root_per_statement() {
        let g = paper_example();
        assert_eq!(g.roots().len(), 1);
        assert_eq!(g.nodes().len(), 4); // 2 loads + add + store
        assert_eq!(g.blocking_factor(), 4);
        assert!(g.policy().is_none());
    }

    #[test]
    fn offsets_match_figure_3() {
        // Figure 3: b[i+1] has offset 4, c[i+2] offset 8, a[i+3] offset 12.
        let g = paper_example();
        let loads: Vec<Offset> = g
            .nodes()
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                RNode::Load { .. } => Some(g.offset_of(NodeId(i as u32))),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec![Offset::Byte(4), Offset::Byte(8)]);
        assert_eq!(g.store_offset(0), Offset::Byte(12));
    }

    #[test]
    fn unshifted_misaligned_graph_fails_validation() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
             for i in 0..100 { a[i] = b[i] + c[i]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        assert!(matches!(
            g.validate(),
            Err(ValidateGraphError::OperandMismatch { .. })
        ));
    }

    #[test]
    fn aligned_graph_validates_without_shifts() {
        let p = parse_program(
            "arrays { a: i32[128] @ 4; b: i32[128] @ 4; c: i32[128] @ 4; }
             for i in 0..100 { a[i] = b[i] + c[i]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        g.validate().unwrap();
        assert_eq!(g.shift_count(), 0);
    }

    #[test]
    fn splat_streams_match_everything() {
        let p = parse_program(
            "arrays { a: i32[128] @ 4; b: i32[128] @ 4; }
             for i in 0..100 { a[i] = b[i] * 3; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn element_too_wide_and_no_parallelism() {
        let mut b = simdize_ir::LoopBuilder::new(ScalarType::I64);
        let a = b.array("a", 32, 0);
        let c = b.array("c", 32, 0);
        b.stmt(a.at(0), c.load(0));
        let p = b.finish(16).unwrap();
        assert!(matches!(
            ReorgGraph::build(&p, VectorShape::V8),
            Err(BuildGraphError::NoParallelism { .. })
        ));
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        assert_eq!(g.blocking_factor(), 2);
    }

    /// The stream offset of `id` as `offset_of` once computed it on
    /// every call: by walking the node's whole subtree.
    fn walked_offset(g: &ReorgGraph, id: NodeId) -> Offset {
        match g.node(id) {
            RNode::Load { r } | RNode::Store { r, .. } => {
                Offset::of_ref(*r, g.program(), g.shape())
            }
            RNode::Splat { .. } => Offset::Any,
            RNode::ShiftStream { to, .. } => *to,
            RNode::Op { srcs, .. } => {
                let mut acc = Offset::Any;
                for &s in srcs {
                    match acc.meet(walked_offset(g, s)) {
                        Some(m) => acc = m,
                        None => return acc,
                    }
                }
                acc
            }
        }
    }

    fn assert_offsets_are_walked_offsets(g: &ReorgGraph, what: &str) {
        for idx in 0..g.nodes().len() {
            let id = NodeId(idx as u32);
            assert_eq!(g.offset_of(id), walked_offset(g, id), "{what}: {id}\n{g}");
        }
    }

    /// The `loops/` samples, and a 4 × 6 grid (statements × loads per
    /// statement) of seeded loops in five variants: compile-time and
    /// runtime alignments, a runtime trip count, `i16` elements and a
    /// reduction.
    fn offset_corpus() -> Vec<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../loops");
        let mut sources: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "loop"))
            .map(|p| std::fs::read_to_string(p).unwrap())
            .collect();
        assert!(sources.len() >= 5, "{} samples in {dir}", sources.len());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for cell in 0..24 {
            let (stmts, loads) = (1 + cell % 4, 1 + cell / 4);
            for variant in 0..5 {
                let (ty, d) = if variant == 3 { ("i16", 2) } else { ("i32", 4) };
                let mut arrays = String::new();
                let mut body = String::new();
                for s in 0..stmts {
                    let align = if variant == 1 {
                        "?".to_string()
                    } else {
                        (d * next(16 / d)).to_string()
                    };
                    arrays += &format!("s{s}: {ty}[1100] @ {align}; ");
                    let terms: Vec<String> = (0..loads)
                        .map(|l| match next(8) {
                            0 => "3".to_string(),
                            1 => format!("min(l{l}[i+{}], 7)", next(8)),
                            _ => format!("l{l}[i+{}]", next(8)),
                        })
                        .collect();
                    let op = ["+", "*", "-", "^"][next(4) as usize];
                    let assign = if variant == 4 && s == 0 { "+=" } else { "=" };
                    body += &format!("s{s}[i+{}] {assign} {};\n", next(8), terms.join(op));
                }
                for l in 0..loads {
                    let align = if variant == 1 {
                        "?".to_string()
                    } else {
                        (d * next(16 / d)).to_string()
                    };
                    arrays += &format!("l{l}: {ty}[1100] @ {align}; ");
                }
                let trip = if variant == 2 { "ub" } else { "1000" };
                sources.push(format!(
                    "arrays {{ {arrays}}}\nfor i in 0..{trip} {{\n{body}}}"
                ));
            }
        }
        sources
    }

    #[test]
    fn cached_offsets_are_the_walked_offsets() {
        let mut placed = 0;
        for src in offset_corpus() {
            let p = parse_program(&src).unwrap();
            let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
            assert_offsets_are_walked_offsets(&g, &src);
            for policy in Policy::ALL {
                if let Ok(placed_graph) = g.with_policy(policy) {
                    assert_offsets_are_walked_offsets(&placed_graph, &format!("{policy}: {src}"));
                    placed += 1;
                }
            }
        }
        assert!(placed > 300, "{placed} placed graphs");
    }

    #[test]
    fn an_invalid_graph_caches_the_leftmost_offset() {
        // b @ 4 and c @ 8 disagree: the add keeps b's offset, 4.
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 4; c: i32[128] @ 8; }
             for i in 0..100 { a[i] = b[i] + c[i] + 3; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        assert!(g.validate().is_err());
        assert_offsets_are_walked_offsets(&g, "invalid");
        let ops: Vec<Offset> = (0..g.nodes().len())
            .filter(|&i| matches!(g.nodes()[i], RNode::Op { .. }))
            .map(|i| g.offset_of(NodeId(i as u32)))
            .collect();
        assert_eq!(ops, vec![Offset::Byte(4), Offset::Byte(4)]);
    }

    #[test]
    fn display_includes_offsets() {
        let g = paper_example();
        let s = g.to_string();
        assert!(s.contains("vload(b[i+1]) @4"), "got:\n{s}");
        assert!(s.contains("vstore(a[i+3] @12"), "got:\n{s}");
    }
}
