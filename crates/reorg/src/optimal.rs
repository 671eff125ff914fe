//! Provably minimum-shift placement ([`Policy::Optimal`]).
//!
//! The four §3.4 policies are greedy: each picks shift targets from
//! local rules (shift-to-zero, shift-to-store, delay-until-conflict,
//! shift-to-dominant). This module finds the *global* minimum instead,
//! with two independent engines:
//!
//! 1. **Tree dynamic programming** — the primary engine. Because
//!    [`crate::ReorgGraph::build`] clones every expression occurrence
//!    into a fresh node, each statement is a tree, and the minimum
//!    number of `vshiftstream` nodes decomposes exactly over subtrees:
//!    for every node and every *candidate offset* `t`, compute the
//!    cheapest way to deliver the node's result stream at `t`. A child
//!    is delivered either by computing directly at `t`, or by computing
//!    at its own best offset and paying one shift — chained shifts
//!    never beat a single direct shift, so this two-way choice is
//!    exhaustive. The candidate set is the statement's natural load
//!    offsets plus the store's natural target: a standard exchange
//!    argument shows restricting to these offsets loses nothing.
//!
//! 2. **Branch-and-bound** — an independent cross-check (and the
//!    fallback engine for graph shapes the tree argument would not
//!    cover). It enumerates explicit offset assignments for every
//!    `vop` node, seeded with a greedy incumbent (the lazy-policy
//!    count) as the upper bound and pruned by the partial cost and the
//!    §5.3 analytic per-statement bound (`n − 1` shifts for `n`
//!    distinct alignments).
//!
//! Both engines are offline and dependency-free. The test suite
//! asserts they agree on every checked-in loop, and that the optimal
//! count never exceeds any greedy policy's.

use crate::graph::{NodeId, RNode, ReorgGraph};
use crate::offset::Offset;
use crate::policy::natural_target;
use crate::stats::distinct_alignments;
use crate::trace::{Constraint, PlacementEvent, Recorder};

/// The exact-search result for one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimalStmt {
    /// The proven minimum shift count (including any final store
    /// shift).
    pub shifts: usize,
    /// The §5.3 analytic per-statement lower bound (`n − 1`).
    pub lower_bound: usize,
    /// The candidate natural offsets the search ranged over, sorted.
    pub candidates: Vec<u32>,
}

/// The provably minimum shift count of every statement of the
/// *unshifted* graph, by tree dynamic programming.
///
/// The per-statement counts include the final store shift when the
/// store offset cannot be met directly; their sum equals
/// `graph.with_policy(Policy::Optimal)?.shift_count()`.
///
/// # Panics
///
/// Panics if `graph` already carries a policy's shifts or has runtime
/// alignments — callers go through [`crate::ReorgGraph::with_policy`],
/// which rejects both conditions first.
pub fn optimal_shift_counts(graph: &ReorgGraph) -> Vec<OptimalStmt> {
    assert!(
        graph.policy().is_none(),
        "optimal search runs on the unshifted graph"
    );
    assert!(
        graph.program().all_alignments_known(),
        "optimal placement requires compile-time alignments"
    );
    (0..graph.roots().len())
        .map(|stmt| {
            let search = Search::for_stmt(graph, stmt);
            OptimalStmt {
                shifts: search.minimum(),
                lower_bound: distinct_alignments(graph, stmt).saturating_sub(1),
                candidates: search.candidates,
            }
        })
        .collect()
}

/// The provably minimum shift count of every statement by
/// branch-and-bound over explicit per-`vop` offset assignments — the
/// independent cross-check of [`optimal_shift_counts`].
///
/// `incumbents` supplies one upper bound per statement (typically the
/// lazy policy's per-statement shift counts); the search never returns
/// more than the incumbent and stops early once the §5.3 analytic
/// bound is met.
///
/// # Panics
///
/// Same preconditions as [`optimal_shift_counts`], plus
/// `incumbents.len()` must equal the statement count.
pub fn branch_and_bound_shift_counts(graph: &ReorgGraph, incumbents: &[usize]) -> Vec<usize> {
    assert!(
        graph.policy().is_none(),
        "optimal search runs on the unshifted graph"
    );
    assert!(
        graph.program().all_alignments_known(),
        "optimal placement requires compile-time alignments"
    );
    assert_eq!(incumbents.len(), graph.roots().len());
    (0..graph.roots().len())
        .map(|stmt| {
            let search = Search::for_stmt(graph, stmt);
            search.branch_and_bound(
                incumbents[stmt],
                distinct_alignments(graph, stmt).saturating_sub(1),
            )
        })
        .collect()
}

/// Per-statement exact search context over the unshifted graph.
pub(crate) struct Search<'a> {
    old: &'a ReorgGraph,
    stmt: usize,
    /// The statement's expression root (the store's source).
    expr: NodeId,
    /// The (C.2) target offset of the store.
    store_off: Offset,
    /// Sorted candidate natural offsets: every natural load offset in
    /// the statement plus the store's natural target.
    pub(crate) candidates: Vec<u32>,
}

/// Per-node DP table over the statement's candidate offsets.
struct Dp {
    /// `raw[k]`: minimum shifts in the subtree with the result
    /// *computed* at `candidates[k]` (no trailing shift on this node).
    raw: Vec<usize>,
    /// Whether the subtree's result offset is ⊥ (splats only), which
    /// matches every delivery target for free.
    any: bool,
}

impl Dp {
    fn best(&self) -> usize {
        if self.any {
            0
        } else {
            self.raw.iter().copied().min().unwrap_or(0)
        }
    }

    /// Cheapest delivery at `candidates[k]`: compute there directly, or
    /// compute at the best offset and pay one shift.
    fn delivered(&self, k: usize) -> usize {
        if self.any {
            0
        } else {
            self.raw[k].min(self.best() + 1)
        }
    }
}

impl<'a> Search<'a> {
    pub(crate) fn for_stmt(old: &'a ReorgGraph, stmt: usize) -> Search<'a> {
        let root = old.roots()[stmt];
        let expr = match old.node(root) {
            RNode::Store { src, .. } => *src,
            other => unreachable!("root is not a store: {other:?}"),
        };
        let store_off = old.store_offset(stmt);
        let elem_size = old.program().elem().size() as u32;
        let mut candidates = Vec::new();
        collect_natural_leaf_offsets(old, expr, elem_size, &mut candidates);
        if let Offset::Byte(b) = natural_target(store_off, elem_size) {
            candidates.push(b);
        }
        candidates.sort_unstable();
        candidates.dedup();
        Search {
            old,
            stmt,
            expr,
            store_off,
            candidates,
        }
    }

    /// The proven minimum shift count for the statement (DP engine).
    pub(crate) fn minimum(&self) -> usize {
        match self.old.node(self.expr) {
            // A bare leaf feeds the store directly — even at a
            // non-natural offset — so no candidate restriction applies.
            RNode::Load { .. } | RNode::Splat { .. } => {
                usize::from(!self.old.offset_of(self.expr).matches(self.store_off))
            }
            _ => {
                let memo = self.dp_tables();
                let dp = memo[self.expr.index()].as_ref().expect("filled");
                (0..self.candidates.len())
                    .map(|k| dp.raw[k] + self.store_penalty(k))
                    .min()
                    .expect("candidate set is never empty for op-rooted statements")
            }
        }
    }

    /// One extra shift if computing at `candidates[k]` still misses the
    /// store offset.
    fn store_penalty(&self, k: usize) -> usize {
        usize::from(!Offset::Byte(self.candidates[k]).matches(self.store_off))
    }

    /// The DP table of the statement's expression and of every node
    /// below it, indexed by node: each subtree's table is computed once,
    /// and the argmin rebuild reads its children's from here.
    fn dp_tables(&self) -> Vec<Option<Dp>> {
        let mut memo: Vec<Option<Dp>> = (0..self.old.nodes().len()).map(|_| None).collect();
        self.fill_dp(self.expr, &mut memo);
        memo
    }

    fn fill_dp(&self, node: NodeId, memo: &mut [Option<Dp>]) {
        let n = self.candidates.len();
        let dp = match self.old.node(node) {
            RNode::Load { .. } => {
                let off = self.old.offset_of(node);
                Dp {
                    raw: self
                        .candidates
                        .iter()
                        .map(|&t| usize::from(!off.matches(Offset::Byte(t))))
                        .collect(),
                    any: false,
                }
            }
            RNode::Splat { .. } => Dp {
                raw: vec![0; n],
                any: true,
            },
            RNode::Op { srcs, .. } => {
                for &s in srcs {
                    self.fill_dp(s, memo);
                }
                let kid = |s: NodeId| memo[s.index()].as_ref().expect("filled above");
                Dp {
                    raw: (0..n)
                        .map(|k| srcs.iter().map(|&s| kid(s).delivered(k)).sum())
                        .collect(),
                    any: srcs.iter().all(|&s| kid(s).any),
                }
            }
            RNode::ShiftStream { .. } | RNode::Store { .. } => {
                unreachable!("optimal search runs on unshifted expression subtrees")
            }
        };
        memo[node.index()] = Some(dp);
    }

    /// The branch-and-bound engine: depth-first over explicit offset
    /// assignments for every `vop`, parents before children, pruning on
    /// `partial ≥ best` and stopping as soon as the proven count
    /// reaches `analytic_lb`.
    pub(crate) fn branch_and_bound(&self, incumbent: usize, analytic_lb: usize) -> usize {
        match self.old.node(self.expr) {
            RNode::Load { .. } | RNode::Splat { .. } => self.minimum(),
            _ => {
                let mut best = incumbent;
                if best > analytic_lb {
                    self.bb_queue(&[(self.expr, None)], 0, &mut best, analytic_lb);
                }
                best
            }
        }
    }

    /// Processes a work queue of `(vop node, consumer offset)` pairs —
    /// `None` for the statement root, whose consumer is the store. An
    /// empty queue means every `vop` is assigned, so `partial` is a
    /// complete (and, past the pruning, improving) shift count.
    fn bb_queue(
        &self,
        queue: &[(NodeId, Option<u32>)],
        partial: usize,
        best: &mut usize,
        analytic_lb: usize,
    ) {
        if *best <= analytic_lb || partial >= *best {
            return;
        }
        let Some((&(node, parent), rest)) = queue.split_first() else {
            *best = partial;
            return;
        };
        let RNode::Op { srcs, .. } = self.old.node(node) else {
            unreachable!("queue holds only vop nodes");
        };
        for (k, &t) in self.candidates.iter().enumerate() {
            // Edge cost toward the consumer: one shift unless the
            // offsets agree (for the root, the final (C.2) shift).
            let edge = match parent {
                Some(p) => usize::from(p != t),
                None => self.store_penalty(k),
            };
            // Leaf children settle immediately once the op's offset is
            // fixed; splats match anything for free.
            let leaves: usize = srcs
                .iter()
                .map(|&s| match self.old.node(s) {
                    RNode::Load { .. } => {
                        usize::from(!self.old.offset_of(s).matches(Offset::Byte(t)))
                    }
                    _ => 0,
                })
                .sum();
            let cost = partial + edge + leaves;
            if cost >= *best {
                continue;
            }
            let mut next: Vec<(NodeId, Option<u32>)> = srcs
                .iter()
                .copied()
                .filter(|&s| matches!(self.old.node(s), RNode::Op { .. }))
                .map(|s| (s, Some(t)))
                .collect();
            next.extend_from_slice(rest);
            self.bb_queue(&next, cost, best, analytic_lb);
        }
    }

    /// Rebuilds the statement's expression into `out` along the DP's
    /// argmin placement, passing `rec` the same event shapes as the
    /// greedy policies; returns the new source node and its offset (the
    /// caller adds the final (C.2) store shift if needed).
    pub(crate) fn rebuild(&self, out: &mut ReorgGraph, rec: &mut Recorder<'_>) -> (NodeId, Offset) {
        rec.record(|| PlacementEvent::OptimalChosen {
            stmt: self.stmt,
            shifts: self.minimum(),
            lower_bound: distinct_alignments(self.old, self.stmt).saturating_sub(1),
            candidates: self.candidates.clone(),
            store: self.store_off,
        });
        match self.old.node(self.expr) {
            RNode::Load { .. } => {
                let (loaded, off) = self.leaf(out, self.expr, rec);
                rec.record(|| PlacementEvent::ShiftElided {
                    stmt: self.stmt,
                    node: loaded,
                    offset: off,
                    rule: "optimal placement keeps the bare load at its natural offset; \
                           any required movement is the single (C.2) store shift"
                        .to_string(),
                });
                (loaded, off)
            }
            RNode::Splat { .. } => self.leaf(out, self.expr, rec),
            RNode::Op { .. } => {
                let memo = self.dp_tables();
                let dp = memo[self.expr.index()].as_ref().expect("filled");
                // Argmin with ties broken toward meeting the store
                // without a final shift, then the smallest offset —
                // deterministic output for the docs generator.
                let k = (0..self.candidates.len())
                    .min_by_key(|&k| {
                        (
                            dp.raw[k] + self.store_penalty(k),
                            self.store_penalty(k),
                            self.candidates[k],
                        )
                    })
                    .expect("op-rooted statement has candidates");
                let node = self.rebuild_op_at(out, self.expr, k, &memo, rec);
                (node, Offset::Byte(self.candidates[k]))
            }
            RNode::ShiftStream { .. } | RNode::Store { .. } => {
                unreachable!("optimal search runs on unshifted expression subtrees")
            }
        }
    }

    /// Copies the load or splat at `node` into `out` at its own stream
    /// offset.
    fn leaf(&self, out: &mut ReorgGraph, node: NodeId, rec: &mut Recorder<'_>) -> (NodeId, Offset) {
        match *self.old.node(node) {
            RNode::Load { r } => {
                let off = self.old.offset_of(node);
                let loaded = out.add(RNode::Load { r });
                rec.record(|| PlacementEvent::OffsetComputed {
                    stmt: self.stmt,
                    node: loaded,
                    desc: self.old.load_desc(r),
                    offset: off,
                });
                (loaded, off)
            }
            RNode::Splat { inv } => {
                let n = out.add(RNode::Splat { inv });
                rec.record(|| PlacementEvent::OffsetComputed {
                    stmt: self.stmt,
                    node: n,
                    desc: format!("vsplat({inv})"),
                    offset: Offset::Any,
                });
                (n, Offset::Any)
            }
            _ => unreachable!("leaf visits only loads and splats"),
        }
    }

    /// Rebuilds the op at `node` computing at `candidates[k]`: each
    /// child is delivered at that offset, by direct computation when
    /// the DP says it is no worse, otherwise via its own best offset
    /// plus one reconciling shift.
    fn rebuild_op_at(
        &self,
        out: &mut ReorgGraph,
        node: NodeId,
        k: usize,
        memo: &[Option<Dp>],
        rec: &mut Recorder<'_>,
    ) -> NodeId {
        let target = Offset::Byte(self.candidates[k]);
        let RNode::Op { kind, srcs } = self.old.node(node) else {
            unreachable!("rebuild_op_at visits only vop nodes");
        };
        // Build children at their chosen computing offsets first.
        let rebuilt: Vec<(NodeId, Offset)> = srcs
            .iter()
            .map(|&s| match self.old.node(s) {
                RNode::Load { .. } | RNode::Splat { .. } => self.leaf(out, s, rec),
                RNode::Op { .. } => {
                    let dp = memo[s.index()].as_ref().expect("filled by dp_tables");
                    // Deliver at `k` directly unless computing at the
                    // child's own best offset plus one shift is
                    // strictly cheaper.
                    let kc = if dp.any || dp.raw[k] <= dp.best() + 1 {
                        k
                    } else {
                        (0..self.candidates.len())
                            .min_by_key(|&j| (dp.raw[j], self.candidates[j]))
                            .expect("op node has candidates")
                    };
                    let built = self.rebuild_op_at(out, s, kc, memo, rec);
                    let off = if dp.any {
                        Offset::Any
                    } else {
                        Offset::Byte(self.candidates[kc])
                    };
                    (built, off)
                }
                RNode::ShiftStream { .. } | RNode::Store { .. } => {
                    unreachable!("optimal search runs on unshifted expression subtrees")
                }
            })
            .collect();

        let all_match = rebuilt.iter().all(|&(_, o)| o.matches(target));
        if all_match {
            let ids = rebuilt.iter().map(|&(n, _)| n).collect();
            let op = out.add(RNode::Op {
                kind: *kind,
                srcs: ids,
            });
            rec.record(|| PlacementEvent::ConstraintChecked {
                stmt: self.stmt,
                constraint: Constraint::C3,
                node: op,
                required: target,
                found: target,
                satisfied: true,
            });
            return op;
        }
        // Reconcile: the (C.3) check reads first (it is the reason for
        // the shifts), so remember where to insert it.
        let mark = rec.mark();
        let found = rebuilt
            .iter()
            .map(|&(_, o)| o)
            .find(|o| !o.matches(target))
            .unwrap_or(target);
        let ids = rebuilt
            .into_iter()
            .map(|(n, o)| {
                if o.matches(target) {
                    rec.record(|| PlacementEvent::ShiftElided {
                        stmt: self.stmt,
                        node: n,
                        offset: o,
                        rule: format!("operand already at the optimal computing offset {target}"),
                    });
                    n
                } else {
                    let s = out.add(RNode::ShiftStream { src: n, to: target });
                    rec.record(|| PlacementEvent::ShiftInserted {
                        stmt: self.stmt,
                        node: s,
                        src: n,
                        from: o,
                        to: target,
                        rule: "optimal placement reconciles the (C.3) conflict: the exact \
                               search chose this offset as the statement's cheapest \
                               computing point"
                            .to_string(),
                    });
                    s
                }
            })
            .collect();
        let op = out.add(RNode::Op {
            kind: *kind,
            srcs: ids,
        });
        rec.record_at(mark, || PlacementEvent::ConstraintChecked {
            stmt: self.stmt,
            constraint: Constraint::C3,
            node: op,
            required: target,
            found,
            satisfied: false,
        });
        op
    }
}

fn collect_natural_leaf_offsets(
    graph: &ReorgGraph,
    node: NodeId,
    elem_size: u32,
    out: &mut Vec<u32>,
) {
    match graph.node(node) {
        RNode::Load { .. } => {
            if let Offset::Byte(b) = graph.offset_of(node) {
                if b % elem_size == 0 {
                    out.push(b);
                }
            }
        }
        RNode::Op { srcs, .. } => {
            for &s in srcs {
                collect_natural_leaf_offsets(graph, s, elem_size, out);
            }
        }
        RNode::Splat { .. } | RNode::ShiftStream { .. } | RNode::Store { .. } => {}
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

    const CASES: [&str; 6] = [
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
         for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
         for i in 0..100 { a[i+3] = b[i+1] + c[i+1]; }",
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; d: i32[128] @ 0; }
         for i in 0..100 { a[i+3] = b[i+1] * c[i+2] + d[i+1]; }",
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0;
                  d: i32[128] @ 0; e: i32[128] @ 0; }
         for i in 0..100 { a[i+3] = (b[i+1] + c[i+1]) * d[i+2] + e[i+2]; }",
        "arrays { out: i16[256] @ 2; u: i16[256] @ 6; v: i16[256] @ 10; }
         for i in 0..100 { out[i+2] = u[i+1] * v[i+3]; }",
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; x: i32[128] @ 0; y: i32[128] @ 0; }
         for i in 0..100 { a[i+3] = b[i+1] + b[i+1]; x[i] = y[i]; }",
    ];

    #[test]
    fn dp_and_branch_and_bound_agree() {
        for src in CASES {
            let g = graph(src);
            let dp: Vec<usize> = optimal_shift_counts(&g).iter().map(|s| s.shifts).collect();
            let lazy = g.with_policy(Policy::Lazy).unwrap();
            let incumbents = lazy.stats().per_stmt_shifts;
            let bb = branch_and_bound_shift_counts(&g, &incumbents);
            assert_eq!(dp, bb, "DP vs B&B disagree on {src}");
        }
    }

    #[test]
    fn per_stmt_counts_sum_to_the_placed_graph() {
        for src in CASES {
            let g = graph(src);
            let total: usize = optimal_shift_counts(&g).iter().map(|s| s.shifts).sum();
            let placed = g.with_policy(Policy::Optimal).unwrap();
            placed.validate().unwrap();
            assert_eq!(total, placed.shift_count(), "on {src}");
        }
    }

    #[test]
    fn minimum_respects_the_analytic_bound() {
        for src in CASES {
            for s in optimal_shift_counts(&graph(src)) {
                assert!(s.shifts >= s.lower_bound, "below §5.3 bound on {src}");
                assert!(s.candidates.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn branch_and_bound_keeps_a_tight_incumbent() {
        // An incumbent already at the analytic bound is returned as-is
        // (the search proves it cannot be beaten and stops).
        let g = graph(CASES[0]);
        let stmts = optimal_shift_counts(&g);
        let bb = branch_and_bound_shift_counts(&g, &[stmts[0].shifts]);
        assert_eq!(bb, vec![stmts[0].shifts]);
    }

    #[test]
    fn non_natural_offsets_fall_back_to_the_store_target() {
        // All leaves non-natural: the candidate set is just the store's
        // natural target, and every load pays its own shift.
        let g = graph(
            "arrays { out: i32[64] @ 2; x: i32[64] @ 2; y: i32[64] @ 2; }
             for i in 0..48 { out[i] = x[i] + y[i]; }",
        );
        let s = optimal_shift_counts(&g);
        assert_eq!(s[0].candidates, vec![0]);
        assert_eq!(s[0].shifts, 3); // two load shifts + the (C.2) store shift
    }
}
