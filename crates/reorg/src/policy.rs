//! Stream-shift placement policies (paper §3.4).

use crate::error::PolicyError;
use crate::graph::{NodeId, RNode, ReorgGraph};
use crate::offset::Offset;
use crate::trace::{Constraint, PlacementEvent, PlacementTrace, Recorder};
use std::fmt;
use std::sync::Arc;

/// Where `vshiftstream` nodes are placed to make a graph valid.
///
/// The policies trade generality for shift count exactly as in §3.4:
///
/// | policy | shifts for `a[i+3]=b[i+1]+c[i+2]` | runtime alignments? |
/// |---|---|---|
/// | [`Policy::Zero`] | 3 | yes (the only one) |
/// | [`Policy::Eager`] | 2 | no |
/// | [`Policy::Lazy`] | 2 | no |
/// | [`Policy::Dominant`] | 2 | no |
/// | [`Policy::Optimal`] | 2 | no |
///
/// Lazy and dominant pay off on larger statements: lazy keeps relatively
/// aligned subexpressions unshifted (Figure 6a needs 1 shift instead of
/// 3), and dominant shifts minority streams toward the statement's most
/// common offset (Figure 6b needs 2 instead of 4). Optimal is not a
/// greedy rule at all: it proves the minimum per statement by exact
/// search (see the `optimal` module) and can beat every greedy policy
/// on deep expressions where the best reconciliation target differs
/// per subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Shift every misaligned load stream to offset 0 right after the
    /// load, and shift the computed stream from 0 to the store alignment
    /// just before the store. Works with runtime alignments because every
    /// load shift is a left shift and every store shift a right shift
    /// (§4.4).
    Zero,
    /// Shift each misaligned load stream directly to the alignment of
    /// the store. Requires compile-time alignments.
    Eager,
    /// Like eager, but delay shifts as long as constraints (C.2)/(C.3)
    /// hold: relatively aligned operands are combined unshifted, and a
    /// conflict is reconciled directly to the store alignment.
    Lazy,
    /// Like lazy, but reconcile conflicts to the statement's *dominant*
    /// (most frequent) stream offset, further reducing shifts when the
    /// store alignment is in the minority.
    Dominant,
    /// The provably minimum-shift placement, found per statement by
    /// exact search: tree dynamic programming over candidate natural
    /// offsets, cross-checkable by branch-and-bound seeded with the
    /// lazy incumbent and pruned by the §5.3 analytic bound. Requires
    /// compile-time alignments.
    Optimal,
}

impl Policy {
    /// All policies: the paper's four greedy rules in presentation
    /// order, then the exact-search extension.
    pub const ALL: [Policy; 5] = [
        Policy::Zero,
        Policy::Eager,
        Policy::Lazy,
        Policy::Dominant,
        Policy::Optimal,
    ];

    /// Short lowercase name used in reports (`"zero"`, `"eager"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Zero => "zero",
            Policy::Eager => "eager",
            Policy::Lazy => "lazy",
            Policy::Dominant => "dominant",
            Policy::Optimal => "optimal",
        }
    }

    /// Whether the policy supports runtime alignments (only zero-shift
    /// does, §4.4).
    pub fn supports_runtime_alignment(self) -> bool {
        self == Policy::Zero
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ReorgGraph {
    /// Produces a new graph with `vshiftstream` nodes placed by `policy`
    /// so that the result satisfies constraints (C.2)/(C.3).
    ///
    /// # Errors
    ///
    /// * [`PolicyError::AlreadyPlaced`] if this graph already carries a
    ///   policy's shifts — apply policies to the graph returned by
    ///   [`ReorgGraph::build`];
    /// * [`PolicyError::NeedsCompileTimeAlignment`] if a policy other
    ///   than zero-shift is requested and some alignment is unknown at
    ///   compile time.
    pub fn with_policy(&self, policy: Policy) -> Result<ReorgGraph, PolicyError> {
        self.place(policy, &mut Recorder::off())
    }

    /// Like [`ReorgGraph::with_policy`], but records every placement
    /// decision — offsets computed, (C.2)/(C.3) instantiations, shifts
    /// inserted or elided with the rule that fired — into `trace`.
    ///
    /// Node ids in the recorded events refer to the *returned* graph.
    ///
    /// # Errors
    ///
    /// Same as [`ReorgGraph::with_policy`]; on error the trace is left
    /// unchanged.
    pub fn with_policy_traced(
        &self,
        policy: Policy,
        trace: &mut PlacementTrace,
    ) -> Result<ReorgGraph, PolicyError> {
        self.place(policy, &mut Recorder::on(trace))
    }

    /// The one placer behind both entry points; `rec` decides whether
    /// its decisions are recorded.
    fn place(&self, policy: Policy, rec: &mut Recorder<'_>) -> Result<ReorgGraph, PolicyError> {
        if let Some(existing) = self.policy {
            return Err(PolicyError::AlreadyPlaced { existing });
        }
        if !policy.supports_runtime_alignment() && !self.program.all_alignments_known() {
            return Err(PolicyError::NeedsCompileTimeAlignment { policy });
        }

        let mut out = ReorgGraph {
            program: Arc::clone(&self.program),
            shape: self.shape,
            nodes: Vec::with_capacity(self.nodes.len()),
            roots: Vec::with_capacity(self.roots.len()),
            policy: Some(policy),
        };

        let elem_size = self.program.elem().size() as u32;
        for (idx, &root) in self.roots.iter().enumerate() {
            let (r, src_old) = match self.node(root) {
                RNode::Store { r, src } => (*r, *src),
                other => unreachable!("root is not a store: {other:?}"),
            };
            let reduction = self.program.stmts()[idx].is_reduction();
            let store_off = if reduction {
                Offset::Byte(0)
            } else {
                Offset::of_ref(r, &self.program, self.shape)
            };
            // Lane arithmetic requires element-aligned (natural) stream
            // offsets, so reconciliation targets are the store offset
            // rounded down to the element grid (§7 extension: stores to
            // non-naturally aligned addresses get one final byte-level
            // shift; see `natural_target`).
            let natural_store = natural_target(store_off, elem_size);

            let placer = Placer {
                old: self,
                stmt: idx,
                policy,
                elem_size,
            };
            let (new_src, src_off) = match policy {
                Policy::Zero => {
                    placer.rebuild(&mut out, src_old, ShiftLeavesTo(Offset::Byte(0)), rec)
                }
                Policy::Eager => {
                    placer.rebuild(&mut out, src_old, ShiftLeavesTo(natural_store), rec)
                }
                Policy::Lazy => placer.rebuild(&mut out, src_old, ReconcileTo(natural_store), rec),
                Policy::Dominant => {
                    let (d, histogram) =
                        dominant_offset(self, src_old, natural_store, elem_size);
                    rec.record(|| PlacementEvent::DominantChosen {
                        stmt: idx,
                        target: d,
                        histogram,
                        store: store_off,
                    });
                    placer.rebuild(&mut out, src_old, ReconcileTo(d), rec)
                }
                Policy::Optimal => {
                    let search = crate::optimal::Search::for_stmt(self, idx);
                    search.rebuild(&mut out, rec)
                }
            };

            let satisfied = src_off.matches(store_off);
            let final_src = if satisfied {
                new_src
            } else {
                out.add(RNode::ShiftStream {
                    src: new_src,
                    to: store_off,
                })
            };
            let new_root = out.add(RNode::Store { r, src: final_src });
            rec.record(|| PlacementEvent::OffsetComputed {
                stmt: idx,
                node: new_root,
                desc: if reduction {
                    format!(
                        "vstore({}) [reduction: accumulator kept at offset 0]",
                        self.ref_str(r)
                    )
                } else {
                    self.store_desc(r)
                },
                offset: store_off,
            });
            rec.record(|| PlacementEvent::ConstraintChecked {
                stmt: idx,
                constraint: Constraint::C2,
                node: new_root,
                required: store_off,
                found: src_off,
                satisfied,
            });
            if satisfied {
                rec.record(|| PlacementEvent::ShiftElided {
                    stmt: idx,
                    node: new_src,
                    offset: src_off,
                    rule: "source stream already at the store offset; (C.2) holds without a \
                           shift"
                        .to_string(),
                });
            } else {
                rec.record(|| PlacementEvent::ShiftInserted {
                    stmt: idx,
                    node: final_src,
                    src: new_src,
                    from: src_off,
                    to: store_off,
                    rule: if policy == Policy::Zero {
                        "zero-shift: one right shift from offset 0 to the store offset just \
                         before the store (§4.4, works for runtime alignments)"
                            .to_string()
                    } else {
                        format!(
                            "final shift to satisfy (C.2): the {policy}-placed stream offset \
                             differs from the store offset"
                        )
                    },
                });
            }
            out.roots.push(new_root);
        }
        Ok(out)
    }
}

use Strategy::{ReconcileTo, ShiftLeavesTo};

/// How `rebuild` places shifts below the store.
#[derive(Clone, Copy)]
enum Strategy {
    /// Shift every load not already at the target offset (zero/eager).
    ShiftLeavesTo(Offset),
    /// Keep natural offsets; reconcile `vop` conflicts to the target
    /// offset (lazy/dominant).
    ReconcileTo(Offset),
}

/// The nearest natural (element-aligned) reconciliation target at or
/// below `offset`. Runtime offsets are natural by construction.
pub(crate) fn natural_target(offset: Offset, elem_size: u32) -> Offset {
    match offset {
        Offset::Byte(b) => Offset::Byte(b - b % elem_size),
        other => other,
    }
}

/// Per-statement context for the recursive rebuild.
struct Placer<'a> {
    old: &'a ReorgGraph,
    stmt: usize,
    policy: Policy,
    elem_size: u32,
}

impl Placer<'_> {
    /// Recursively copies the subtree at `node` from `self.old` into
    /// `out`, inserting shifts per `strategy` and passing each decision
    /// to `rec`; returns the new node and its stream offset. All `vop`
    /// results end up at natural offsets.
    fn rebuild(
        &self,
        out: &mut ReorgGraph,
        node: NodeId,
        strategy: Strategy,
        rec: &mut Recorder<'_>,
    ) -> (NodeId, Offset) {
        let stmt = self.stmt;
        match self.old.node(node) {
            &RNode::Load { r } => {
                let off = self.old.offset_of(node);
                let loaded = out.add(RNode::Load { r });
                rec.record(|| PlacementEvent::OffsetComputed {
                    stmt,
                    node: loaded,
                    desc: self.old.load_desc(r),
                    offset: off,
                });
                match strategy {
                    ShiftLeavesTo(target) if !off.matches(target) => {
                        let s = out.add(RNode::ShiftStream {
                            src: loaded,
                            to: target,
                        });
                        rec.record(|| PlacementEvent::ShiftInserted {
                            stmt,
                            node: s,
                            src: loaded,
                            from: off,
                            to: target,
                            rule: match self.policy {
                                Policy::Zero => {
                                    "zero-shift: every load stream is left-shifted to offset 0 \
                                     immediately after the load (§3.4; the only policy valid \
                                     for runtime alignments)"
                                }
                                _ => {
                                    "eager-shift: each load stream is shifted directly to the \
                                     store's natural offset (§3.4)"
                                }
                            }
                            .to_string(),
                        });
                        (s, target)
                    }
                    ShiftLeavesTo(target) => {
                        rec.record(|| PlacementEvent::ShiftElided {
                            stmt,
                            node: loaded,
                            offset: off,
                            rule: format!(
                                "load stream is already at the {}-shift target offset \
                                 {target}",
                                self.policy
                            ),
                        });
                        (loaded, off)
                    }
                    ReconcileTo(_) => {
                        rec.record(|| PlacementEvent::ShiftElided {
                            stmt,
                            node: loaded,
                            offset: off,
                            rule: format!(
                                "{}-shift delays shifts: the load is kept at its natural \
                                 offset until a constraint forces movement",
                                self.policy
                            ),
                        });
                        (loaded, off)
                    }
                }
            }
            &RNode::Splat { inv } => {
                let n = out.add(RNode::Splat { inv });
                rec.record(|| PlacementEvent::OffsetComputed {
                    stmt,
                    node: n,
                    desc: format!("vsplat({inv})"),
                    offset: Offset::Any,
                });
                (n, Offset::Any)
            }
            RNode::Op { kind, srcs } => {
                let kind = *kind;
                let rebuilt: Vec<(NodeId, Offset)> = srcs
                    .iter()
                    .map(|&s| self.rebuild(out, s, strategy, rec))
                    .collect();
                let meet = rebuilt
                    .iter()
                    .try_fold(Offset::Any, |acc, &(_, o)| acc.meet(o));
                match meet {
                    // A natural agreed offset can be computed on in place;
                    // a non-natural one (possible only with non-naturally
                    // aligned arrays) must still be reconciled.
                    Some(common) if common.is_natural(self.elem_size) => {
                        let ids = rebuilt.iter().map(|&(n, _)| n).collect();
                        let op = out.add(RNode::Op { kind, srcs: ids });
                        rec.record(|| PlacementEvent::ConstraintChecked {
                            stmt,
                            constraint: Constraint::C3,
                            node: op,
                            required: common,
                            found: common,
                            satisfied: true,
                        });
                        (op, common)
                    }
                    _ => {
                        // Conflict: reconcile every operand to the strategy's
                        // target offset. (Under ShiftLeavesTo the leaves are
                        // already uniform, so this branch is lazy/dominant.)
                        let target = match strategy {
                            ShiftLeavesTo(t) | ReconcileTo(t) => t,
                        };
                        // The check is the *reason* for the shifts below,
                        // so it reads first in the trace; remember where
                        // to insert it once the vop node id is known.
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
                                        stmt,
                                        node: n,
                                        offset: o,
                                        rule: format!(
                                            "operand already at the reconciliation target \
                                             {target}"
                                        ),
                                    });
                                    n
                                } else {
                                    let s =
                                        out.add(RNode::ShiftStream { src: n, to: target });
                                    rec.record(|| PlacementEvent::ShiftInserted {
                                        stmt,
                                        node: s,
                                        src: n,
                                        from: o,
                                        to: target,
                                        rule: format!(
                                            "{}-shift reconciles the (C.3) conflict: \
                                             operand shifted to {}",
                                            self.policy,
                                            match self.policy {
                                                Policy::Dominant =>
                                                    "the statement's dominant offset",
                                                _ => "the store's natural offset",
                                            }
                                        ),
                                    });
                                    s
                                }
                            })
                            .collect();
                        let op = out.add(RNode::Op { kind, srcs: ids });
                        rec.record_at(mark, || PlacementEvent::ConstraintChecked {
                            stmt,
                            constraint: Constraint::C3,
                            node: op,
                            required: target,
                            found,
                            satisfied: false,
                        });
                        (op, target)
                    }
                }
            }
            RNode::ShiftStream { .. } | RNode::Store { .. } => {
                unreachable!("policies run on unshifted expression subtrees")
            }
        }
    }
}

/// The statement's dominant stream offset: the most frequent offset over
/// all load streams plus the store stream, preferring the store offset
/// and then the smallest byte value on ties. Also returns the offset
/// histogram (`(byte, count)` sorted by byte) for the decision trace.
fn dominant_offset(
    old: &ReorgGraph,
    src: NodeId,
    store_off: Offset,
    elem_size: u32,
) -> (Offset, Vec<(u32, usize)>) {
    let mut histogram: Vec<(u32, usize)> = Vec::new();
    collect_load_offsets(old, src, &mut histogram, elem_size);
    if let Offset::Byte(b) = store_off {
        count_offset(&mut histogram, b);
    }
    let store_byte = store_off.known();
    let chosen = histogram
        .iter()
        .max_by_key(|&&(byte, count)| (count, Some(byte) == store_byte, u32::MAX - byte))
        .map(|&(byte, _)| Offset::Byte(byte))
        .unwrap_or(store_off);
    (chosen, histogram)
}

/// Counts one stream at byte offset `b` in the histogram, kept sorted
/// by offset (a statement has a handful of distinct offsets at most).
fn count_offset(hist: &mut Vec<(u32, usize)>, b: u32) {
    match hist.binary_search_by_key(&b, |&(byte, _)| byte) {
        Ok(k) => hist[k].1 += 1,
        Err(k) => hist.insert(k, (b, 1)),
    }
}

fn collect_load_offsets(
    old: &ReorgGraph,
    node: NodeId,
    hist: &mut Vec<(u32, usize)>,
    elem_size: u32,
) {
    match old.node(node) {
        RNode::Load { .. } => {
            // Only natural offsets are legal reconciliation targets.
            if let Offset::Byte(b) = old.offset_of(node) {
                if b % elem_size == 0 {
                    count_offset(hist, b);
                }
            }
        }
        RNode::Op { srcs, .. } => {
            for &s in srcs {
                collect_load_offsets(old, s, hist, elem_size);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, VectorShape};

    fn graph(src: &str) -> ReorgGraph {
        let p = parse_program(src).unwrap();
        ReorgGraph::build(&p, VectorShape::V16).unwrap()
    }

    const FIG1: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                        for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }";

    // Figure 6a: b and c relatively aligned, store misaligned.
    const FIG6A: &str = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                         for i in 0..100 { a[i+3] = b[i+1] + c[i+1]; }";

    // Figure 6b: dominant offset 4 (b, d), minority c@8, store @12.
    const FIG6B: &str =
        "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; d: i32[128] @ 0; }
                         for i in 0..100 { a[i+3] = b[i+1] * c[i+2] + d[i+1]; }";

    #[test]
    fn zero_shift_counts_match_paper() {
        // One shift per misaligned stream: 2 loads + 1 store for Fig 1.
        let g = graph(FIG1);
        let z = g.with_policy(Policy::Zero).unwrap();
        z.validate().unwrap();
        assert_eq!(z.shift_count(), 3);
        // Fig 6a: 3 misaligned streams → 3 shifts under zero.
        let z = graph(FIG6A).with_policy(Policy::Zero).unwrap();
        assert_eq!(z.shift_count(), 3);
        // Fig 6b: 4 misaligned streams → 4 shifts under zero.
        let z = graph(FIG6B).with_policy(Policy::Zero).unwrap();
        assert_eq!(z.shift_count(), 4);
    }

    #[test]
    fn eager_shifts_loads_to_store_alignment() {
        let e = graph(FIG1).with_policy(Policy::Eager).unwrap();
        e.validate().unwrap();
        assert_eq!(e.shift_count(), 2); // Figure 5
                                        // Fig 6a: eager still shifts both loads.
        let e = graph(FIG6A).with_policy(Policy::Eager).unwrap();
        e.validate().unwrap();
        assert_eq!(e.shift_count(), 2);
    }

    #[test]
    fn lazy_exploits_relative_alignment() {
        // Figure 6a: only the add result needs shifting.
        let l = graph(FIG6A).with_policy(Policy::Lazy).unwrap();
        l.validate().unwrap();
        assert_eq!(l.shift_count(), 1);
        // Figure 6b under lazy: mul conflict → 2 shifts to 12, then the
        // add conflict shifts d too: 3 total.
        let l = graph(FIG6B).with_policy(Policy::Lazy).unwrap();
        l.validate().unwrap();
        assert_eq!(l.shift_count(), 3);
    }

    #[test]
    fn dominant_matches_figure_6b() {
        // Dominant offset 4: shift c to 4, then the result to 12 → 2.
        let d = graph(FIG6B).with_policy(Policy::Dominant).unwrap();
        d.validate().unwrap();
        assert_eq!(d.shift_count(), 2);
        // Fig 6a: dominant offset is 4 (two loads) → add stays at 4,
        // store shift only → 1, same as lazy.
        let d = graph(FIG6A).with_policy(Policy::Dominant).unwrap();
        d.validate().unwrap();
        assert_eq!(d.shift_count(), 1);
    }

    #[test]
    fn aligned_loop_needs_no_shifts_under_any_policy() {
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
                   for i in 0..100 { a[i] = b[i] + c[i]; }";
        for policy in Policy::ALL {
            let g = graph(src).with_policy(policy).unwrap();
            g.validate().unwrap();
            assert_eq!(g.shift_count(), 0, "{policy}");
        }
    }

    #[test]
    fn runtime_alignment_restricts_to_zero_shift() {
        let src = "arrays { a: i32[128] @ ?; b: i32[128] @ 0; }
                   for i in 0..100 { a[i] = b[i+1]; }";
        let g = graph(src);
        let z = g.with_policy(Policy::Zero).unwrap();
        z.validate().unwrap();
        assert_eq!(z.shift_count(), 2); // load shift (b misaligned) + runtime store shift
        for policy in [Policy::Eager, Policy::Lazy, Policy::Dominant, Policy::Optimal] {
            assert!(matches!(
                g.with_policy(policy),
                Err(PolicyError::NeedsCompileTimeAlignment { .. })
            ));
        }
    }

    #[test]
    fn runtime_aligned_load_still_shifts_under_zero() {
        // Even a runtime stream that happens to be aligned must shift:
        // the compiler cannot know.
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ ?; }
                   for i in 0..100 { a[i] = b[i]; }";
        let z = graph(src).with_policy(Policy::Zero).unwrap();
        z.validate().unwrap();
        assert_eq!(z.shift_count(), 1);
    }

    #[test]
    fn double_application_is_rejected() {
        let g = graph(FIG1).with_policy(Policy::Zero).unwrap();
        assert!(matches!(
            g.with_policy(Policy::Lazy),
            Err(PolicyError::AlreadyPlaced {
                existing: Policy::Zero
            })
        ));
    }

    #[test]
    fn splat_only_statement() {
        let src = "arrays { a: i32[128] @ 4; b: i32[128] @ 4; }
                   for i in 0..100 { a[i] = b[i] * 0 + 7; }";
        for policy in Policy::ALL {
            let g = graph(src).with_policy(policy).unwrap();
            g.validate().unwrap();
        }
    }

    #[test]
    fn multi_statement_policies_are_per_statement() {
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0;
                            x: i32[128] @ 0; y: i32[128] @ 0; }
                   for i in 0..100 { a[i+3] = b[i+1] + b[i+1]; x[i+1] = y[i+1] + y[i+1]; }";
        let l = graph(src).with_policy(Policy::Lazy).unwrap();
        l.validate().unwrap();
        // stmt 0: operands agree at 4, store at 12 → 1 shift;
        // stmt 1: everything at 4 → 0 shifts.
        assert_eq!(l.shift_count(), 1);
    }

    #[test]
    fn policy_metadata() {
        assert_eq!(Policy::Zero.name(), "zero");
        assert_eq!(Policy::Optimal.name(), "optimal");
        assert!(Policy::Zero.supports_runtime_alignment());
        assert!(!Policy::Dominant.supports_runtime_alignment());
        assert!(!Policy::Optimal.supports_runtime_alignment());
        assert_eq!(Policy::ALL.len(), 5);
    }

    #[test]
    fn optimal_matches_best_greedy_on_paper_figures() {
        // Figure 1: 3 distinct alignments → the §5.3 bound of 2 is met.
        let o = graph(FIG1).with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.shift_count(), 2);
        // Figure 6a: relative alignment → 1 shift, same as lazy.
        let o = graph(FIG6A).with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.shift_count(), 1);
        // Figure 6b: 2 shifts, same as dominant (lazy needs 3).
        let o = graph(FIG6B).with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.shift_count(), 2);
    }

    #[test]
    fn optimal_beats_every_greedy_policy_on_deep_trees() {
        // ((b@4 + c@4) * d@8) + e@8, store @12: the cheapest plan
        // computes the product at offset 8 (one shift for the add's
        // result) and pays one final store shift — 2 total. Greedy:
        // zero 5, eager 4, lazy 3, dominant 3.
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0;
                            d: i32[128] @ 0; e: i32[128] @ 0; }
                   for i in 0..100 { a[i+3] = (b[i+1] + c[i+1]) * d[i+2] + e[i+2]; }";
        let g = graph(src);
        let o = g.with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.shift_count(), 2);
        for policy in [Policy::Zero, Policy::Eager, Policy::Lazy, Policy::Dominant] {
            assert!(
                g.with_policy(policy).unwrap().shift_count() > 2,
                "{policy} unexpectedly matched the optimum"
            );
        }
    }

    #[test]
    fn optimal_never_exceeds_any_greedy_policy() {
        for src in [
            FIG1,
            FIG6A,
            FIG6B,
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 4; d: i32[128] @ 8; }
             for i in 0..100 { a[i] = b[i+1] * c[i+2] + d[i+3] * b[i]; }",
            "arrays { a: i16[128] @ 2; b: i16[128] @ 6; c: i16[128] @ 10; }
             for i in 0..100 { a[i] = b[i] + c[i] * 3; }",
        ] {
            let g = graph(src);
            let best = g.with_policy(Policy::Optimal).unwrap().shift_count();
            for policy in [Policy::Zero, Policy::Eager, Policy::Lazy, Policy::Dominant] {
                assert!(
                    best <= g.with_policy(policy).unwrap().shift_count(),
                    "{policy} beat optimal on {src}"
                );
            }
        }
    }

    #[test]
    fn optimal_handles_leaf_and_reduction_statements() {
        // Bare-load statement: offsets match → 0 shifts.
        let g = graph(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
             for i in 0..100 { a[i+1] = b[i+1]; }",
        );
        let o = g.with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.shift_count(), 0);
        // Misaligned bare load: exactly the one (C.2) shift.
        let g = graph(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
             for i in 0..100 { a[i+1] = b[i+2]; }",
        );
        let o = g.with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.shift_count(), 1);
        // Reduction: the accumulator pins the store side to offset 0.
        let g = graph(
            "arrays { s: i32[4] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { s[i] += b[i+1] * c[i+1]; }",
        );
        let o = g.with_policy(Policy::Optimal).unwrap();
        o.validate().unwrap();
        let l = g.with_policy(Policy::Lazy).unwrap();
        assert!(o.shift_count() <= l.shift_count());
    }

    #[test]
    fn optimal_trace_records_the_proof() {
        let mut trace = PlacementTrace::new();
        let o = graph(FIG1)
            .with_policy_traced(Policy::Optimal, &mut trace)
            .unwrap();
        assert_eq!(trace.shifts_inserted(), o.shift_count());
        let chosen: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                PlacementEvent::OptimalChosen {
                    shifts,
                    lower_bound,
                    candidates,
                    ..
                } => Some((*shifts, *lower_bound, candidates.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(chosen, vec![(2, 2, vec![4, 8, 12])]);
        assert!(trace.events.iter().any(|e| e
            .to_string()
            .contains("optimal placement proved minimal")));
    }
}

#[cfg(test)]
mod natural_tests {
    use super::*;
    use crate::error::ValidateGraphError;
    use simdize_ir::{parse_program, VectorShape};

    #[test]
    fn relatively_aligned_at_non_natural_offset_still_shifts() {
        // Both loads sit at byte offset 2 (non-natural for i32): lazy
        // must not combine them in place; it reconciles to a natural
        // target and shifts the result to the store's byte offset.
        let p = parse_program(
            "arrays { out: i32[64] @ 2; x: i32[64] @ 2; y: i32[64] @ 2; }
             for i in 0..48 { out[i] = x[i] + y[i]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        // The unshifted graph agrees at offset 2 — but that offset is
        // not natural, so validation rejects it.
        assert!(matches!(
            g.validate(),
            Err(ValidateGraphError::UnnaturalOperands { .. })
        ));
        for policy in Policy::ALL {
            let placed = g.with_policy(policy).unwrap();
            placed.validate().unwrap();
            assert!(
                placed.shift_count() >= 2,
                "{policy} produced too few shifts"
            );
        }
    }

    #[test]
    fn natural_target_rounds_down() {
        assert_eq!(natural_target(Offset::Byte(14), 4), Offset::Byte(12));
        assert_eq!(natural_target(Offset::Byte(12), 4), Offset::Byte(12));
        assert_eq!(natural_target(Offset::Byte(3), 2), Offset::Byte(2));
        assert_eq!(natural_target(Offset::Any, 4), Offset::Any);
    }

    #[test]
    fn dominant_ignores_non_natural_candidates() {
        // Loads at byte 2 (×2) and byte 4 (×1): the dominant target must
        // be 4 (byte 2 is not a legal vop offset for i32).
        let p = parse_program(
            "arrays { out: i32[64] @ 0; x: i32[64] @ 2; y: i32[64] @ 2; z: i32[64] @ 4; }
             for i in 0..48 { out[i] = x[i] + y[i] + z[i]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let placed = g.with_policy(Policy::Dominant).unwrap();
        placed.validate().unwrap();
    }
}
