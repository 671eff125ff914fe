//! Graph statistics used by the evaluation harness and the lower-bound
//! model of paper §5.3.

use crate::graph::{NodeId, RNode, ReorgGraph};
use crate::offset::Offset;
use simdize_ir::hash::HashSet;
use std::fmt;

/// Node-kind counts for a [`ReorgGraph`].
///
/// The `shifts` field is the data reorganization overhead a placement
/// policy introduced; `per_stmt_shifts` breaks it down by statement, the
/// granularity at which the paper's lower bound reasons ("for a statement
/// with accesses of n distinct alignments, a minimum of n − 1 vshiftpair
/// operations are required").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Number of `vload` nodes.
    pub loads: usize,
    /// Number of `vstore` nodes (equals the statement count).
    pub stores: usize,
    /// Number of `vop` nodes.
    pub ops: usize,
    /// Number of `vsplat` nodes.
    pub splats: usize,
    /// Number of `vshiftstream` nodes.
    pub shifts: usize,
    /// Shift count per statement, in statement order.
    pub per_stmt_shifts: Vec<usize>,
}

impl GraphStats {
    /// Computes the statistics of `graph`.
    pub fn of(graph: &ReorgGraph) -> GraphStats {
        let mut stats = GraphStats::default();
        for node in graph.nodes() {
            match node {
                RNode::Load { .. } => stats.loads += 1,
                RNode::Store { .. } => stats.stores += 1,
                RNode::Op { .. } => stats.ops += 1,
                RNode::Splat { .. } => stats.splats += 1,
                RNode::ShiftStream { .. } => stats.shifts += 1,
            }
        }
        stats.per_stmt_shifts = graph
            .roots()
            .iter()
            .map(|&root| count_shifts(graph, root))
            .collect();
        stats
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} loads, {} stores, {} ops, {} splats, {} shifts",
            self.loads, self.stores, self.ops, self.splats, self.shifts
        )
    }
}

fn count_shifts(graph: &ReorgGraph, node: NodeId) -> usize {
    match graph.node(node) {
        RNode::Load { .. } | RNode::Splat { .. } => 0,
        RNode::Op { srcs, .. } => srcs.iter().map(|&s| count_shifts(graph, s)).sum(),
        RNode::ShiftStream { src, .. } => 1 + count_shifts(graph, *src),
        RNode::Store { src, .. } => count_shifts(graph, *src),
    }
}

/// The number of distinct stream offsets among statement `stmt`'s load
/// streams and its store stream — the `n` of the paper's per-statement
/// shift lower bound `n − 1` (§5.3).
///
/// Runtime offsets count by structural identity; splats (offset ⊥) do
/// not count.
///
/// # Panics
///
/// Panics if `stmt` is out of range.
pub fn distinct_alignments(graph: &ReorgGraph, stmt: usize) -> usize {
    let root = graph.roots()[stmt];
    let mut seen: HashSet<Offset> = HashSet::default();
    collect(graph, root, &mut seen);
    seen.len()
}

fn collect(graph: &ReorgGraph, node: NodeId, seen: &mut HashSet<Offset>) {
    match graph.node(node) {
        RNode::Load { .. } => {
            seen.insert(graph.offset_of(node));
        }
        RNode::Splat { .. } => {}
        RNode::Op { srcs, .. } => {
            for &s in srcs {
                collect(graph, s, seen);
            }
        }
        RNode::ShiftStream { src, .. } => collect(graph, *src, seen),
        RNode::Store { src, .. } => {
            seen.insert(graph.offset_of(node));
            collect(graph, *src, seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use simdize_ir::{parse_program, VectorShape};

    fn graph(src: &str) -> ReorgGraph {
        let p = parse_program(src).unwrap();
        ReorgGraph::build(&p, VectorShape::V16).unwrap()
    }

    #[test]
    fn stats_count_kinds() {
        let g = graph(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2] * 2; }",
        );
        let s = g.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.ops, 2);
        assert_eq!(s.splats, 1);
        assert_eq!(s.shifts, 0);
        let z = g.with_policy(Policy::Zero).unwrap();
        assert_eq!(z.stats().shifts, 3);
        assert_eq!(z.stats().per_stmt_shifts, vec![3]);
        assert!(z.stats().to_string().contains("3 shifts"));
    }

    #[test]
    fn distinct_alignment_counts() {
        // offsets: loads 4, 8; store 12 → 3 distinct.
        let g = graph(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        );
        assert_eq!(distinct_alignments(&g, 0), 3);
        // all at 4 → 1 distinct.
        let g = graph(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+1] = b[i+1] + c[i+1]; }",
        );
        assert_eq!(distinct_alignments(&g, 0), 1);
    }

    #[test]
    fn per_stmt_breakdown_multi() {
        let g = graph(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; x: i32[128] @ 0; y: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + b[i+1]; x[i] = y[i]; }",
        );
        let l = g.with_policy(Policy::Lazy).unwrap();
        assert_eq!(l.stats().per_stmt_shifts, vec![1, 0]);
    }
}
