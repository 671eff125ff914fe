//! Graphviz (DOT) export of data reorganization graphs.

use crate::graph::{NodeId, RNode, ReorgGraph};

/// Renders `graph` in Graphviz DOT syntax.
///
/// Load/store nodes are boxes labelled with their reference and stream
/// offset, shifts are double octagons, and edges point from producers to
/// consumers (data-flow direction). Paste the output into `dot -Tsvg`
/// to visualize a placement policy's work.
///
/// # Example
///
/// ```
/// # use simdize_ir::{parse_program, VectorShape};
/// # use simdize_reorg::{ReorgGraph, Policy, to_dot};
/// # let p = parse_program(
/// #     "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
/// #      for i in 0..16 { a[i+1] = b[i+2]; }").unwrap();
/// let g = ReorgGraph::build(&p, VectorShape::V16)?.with_policy(Policy::Zero)?;
/// let dot = to_dot(&g);
/// assert!(dot.starts_with("digraph reorg"));
/// assert!(dot.contains("vshiftstream"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_dot(graph: &ReorgGraph) -> String {
    let mut out =
        String::from("digraph reorg {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n");
    for (idx, node) in graph.nodes().iter().enumerate() {
        let id = NodeId(idx as u32);
        let (label, shape) = match node {
            RNode::Load { r } => (
                format!(
                    "vload {}[{}i{:+}]\\n@{}",
                    graph.program().array(r.array).name(),
                    if r.stride == 1 {
                        String::new()
                    } else {
                        format!("{}*", r.stride)
                    },
                    r.offset,
                    graph.offset_of(id)
                ),
                "box",
            ),
            RNode::Splat { inv } => (format!("vsplat {inv}\\n@⊥"), "ellipse"),
            RNode::Op { kind, .. } => (format!("{kind}\\n@{}", graph.offset_of(id)), "oval"),
            RNode::ShiftStream { src, to } => (
                format!("vshiftstream\\n{} → {to}", graph.offset_of(*src)),
                "doubleoctagon",
            ),
            RNode::Store { r, .. } => (
                format!(
                    "vstore {}[i{:+}]\\n@{}",
                    graph.program().array(r.array).name(),
                    r.offset,
                    graph.offset_of(id)
                ),
                "box",
            ),
        };
        out.push_str(&format!("  {id} [label=\"{label}\", shape={shape}];\n"));
        match node {
            RNode::Op { srcs, .. } => {
                for &s in srcs {
                    out.push_str(&format!("  {s} -> {id};\n"));
                }
            }
            RNode::ShiftStream { src, .. } => out.push_str(&format!("  {src} -> {id};\n")),
            RNode::Store { src, .. } => out.push_str(&format!("  {src} -> {id};\n")),
            _ => {}
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use simdize_ir::{parse_program, VectorShape};

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Eager)
            .unwrap();
        let dot = to_dot(&g);
        assert_eq!(dot.matches("vload").count(), 2);
        assert_eq!(dot.matches("vstore").count(), 1);
        assert_eq!(dot.matches("vshiftstream").count(), 2);
        // A forest has (nodes − roots) edges.
        assert_eq!(
            dot.matches(" -> ").count(),
            g.nodes().len() - g.roots().len()
        );
        assert!(dot.ends_with("}\n"));
    }
}
