//! The data reorganization graph (paper §3.3).

use crate::error::{BuildGraphError, ValidateGraphError};
use crate::offset::Offset;
use crate::policy::Policy;
use crate::stats::GraphStats;
use simdize_ir::{ArrayRef, BinOp, Expr, Invariant, LoopProgram, UnOp, VectorShape};
use std::fmt;
use std::sync::Arc;

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
/// the nodes; they are derived by [`ReorgGraph::offset_of`], which keeps
/// the graph's single source of truth in the array declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RNode {
    /// `vload(addr(i))` for the stride-one reference `r`; produces a
    /// register stream whose offset is `addr(0) mod V` (eq. 1).
    Load {
        /// The loaded stride-one reference.
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
    /// requires `offset_of(src) == addr(0) mod V`.
    Store {
        /// The stored stride-one reference.
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
    /// not fit a register, or [`BuildGraphError::NoParallelism`] when the
    /// blocking factor `B = V / D` is 1 and simdization is pointless.
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
        for r in program.all_refs() {
            if !r.is_unit_stride() {
                return Err(BuildGraphError::NonUnitStride { stride: r.stride });
            }
        }
        let mut g = ReorgGraph {
            program: Arc::new(program.clone()),
            shape,
            nodes: Vec::new(),
            roots: Vec::new(),
            policy: None,
        };
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

    pub(crate) fn add(&mut self, node: RNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
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
    pub fn offset_of(&self, id: NodeId) -> Offset {
        match self.node(id) {
            RNode::Load { r } => Offset::of_ref(*r, &self.program, self.shape),
            RNode::Splat { .. } => Offset::Any,
            RNode::ShiftStream { to, .. } => *to,
            RNode::Op { srcs, .. } => {
                let mut acc = Offset::Any;
                for &s in srcs {
                    match acc.meet(self.offset_of(s)) {
                        Some(m) => acc = m,
                        None => return acc, // invalid graph; keep leftmost
                    }
                }
                acc
            }
            RNode::Store { r, .. } => Offset::of_ref(*r, &self.program, self.shape),
        }
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

    pub(crate) fn ref_str(&self, r: ArrayRef) -> String {
        let name = self.program.array(r.array).name();
        match r.offset {
            0 => format!("{name}[i]"),
            k if k > 0 => format!("{name}[i+{k}]"),
            k => format!("{name}[i{k}]"),
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

    #[test]
    fn display_includes_offsets() {
        let g = paper_example();
        let s = g.to_string();
        assert!(s.contains("vload(b[i+1]) @4"), "got:\n{s}");
        assert!(s.contains("vstore(a[i+3] @12"), "got:\n{s}");
    }
}
