//! Decision traces for stream-shift placement (the explainability
//! layer's view of §3.4).
//!
//! [`crate::ReorgGraph::with_policy_traced`] records every decision the
//! shift-placement policy makes — stream offsets as they are computed,
//! each (C.2)/(C.3) constraint instantiation, and each `vshiftstream`
//! inserted or elided together with the policy rule that fired — as a
//! flat sequence of [`PlacementEvent`]s. Node ids in the events refer
//! to the *placed* graph that `with_policy_traced` returns, so a
//! consumer can link decisions to graph nodes and, downstream, to the
//! generated instructions (see the `simdize-explain` crate).

use crate::graph::NodeId;
use crate::offset::Offset;
use std::fmt;

/// Which of the paper's §3.3 validity constraints a
/// [`PlacementEvent::ConstraintChecked`] event instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// (C.2): the stream consumed by `vstore(addr(i), src)` must have
    /// stream offset `addr(0) mod V`.
    C2,
    /// (C.3): all inputs of a `vop` must have matching stream offsets.
    C3,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::C2 => f.write_str("C.2"),
            Constraint::C3 => f.write_str("C.3"),
        }
    }
}

/// One decision made while placing stream shifts.
///
/// Every event carries the statement index it belongs to; node ids
/// refer to the placed graph returned by
/// [`crate::ReorgGraph::with_policy_traced`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementEvent {
    /// The stream offset of a leaf (load or splat) or of the store was
    /// computed from the array declarations (paper eq. 1).
    OffsetComputed {
        /// Statement index.
        stmt: usize,
        /// The node in the placed graph.
        node: NodeId,
        /// A human-readable description (`vload(b[i+1])`, `vstore(a[i+3])`, ...).
        desc: String,
        /// The computed stream offset.
        offset: Offset,
    },
    /// The dominant policy chose its reconciliation target from the
    /// statement's offset histogram (§3.4, Figure 6b).
    DominantChosen {
        /// Statement index.
        stmt: usize,
        /// The chosen dominant offset.
        target: Offset,
        /// `(byte offset, stream count)` pairs, sorted by offset.
        histogram: Vec<(u32, usize)>,
        /// The statement's store offset (tie-break preference).
        store: Offset,
    },
    /// The optimal policy proved a statement's minimum shift count by
    /// exact search (tree DP over candidate natural offsets,
    /// cross-checkable by branch-and-bound; see `crate::optimal`).
    OptimalChosen {
        /// Statement index.
        stmt: usize,
        /// The shift count the search proved minimal for the statement
        /// (including any final store shift).
        shifts: usize,
        /// The §5.3 analytic per-statement lower bound (`n − 1` for `n`
        /// distinct alignments).
        lower_bound: usize,
        /// The candidate natural offsets the search ranged over.
        candidates: Vec<u32>,
        /// The statement's store offset.
        store: Offset,
    },
    /// A validity constraint was instantiated and checked.
    ConstraintChecked {
        /// Statement index.
        stmt: usize,
        /// Which constraint.
        constraint: Constraint,
        /// The node the constraint applies to (a `vop` for C.3, the
        /// store for C.2).
        node: NodeId,
        /// The offset the constraint requires.
        required: Offset,
        /// The offset actually found on the inputs.
        found: Offset,
        /// Whether the constraint held without inserting a shift.
        satisfied: bool,
    },
    /// A `vshiftstream` node was inserted.
    ShiftInserted {
        /// Statement index.
        stmt: usize,
        /// The new shift node in the placed graph.
        node: NodeId,
        /// The stream being shifted.
        src: NodeId,
        /// Source stream offset.
        from: Offset,
        /// Target stream offset.
        to: Offset,
        /// The policy rule that fired, in prose.
        rule: String,
    },
    /// A shift was provably unnecessary and elided.
    ShiftElided {
        /// Statement index.
        stmt: usize,
        /// The node whose stream needed no movement.
        node: NodeId,
        /// The (already matching) stream offset.
        offset: Offset,
        /// Why no shift was needed, in prose.
        rule: String,
    },
}

impl PlacementEvent {
    /// The statement this event belongs to.
    pub fn stmt(&self) -> usize {
        match self {
            PlacementEvent::OffsetComputed { stmt, .. }
            | PlacementEvent::DominantChosen { stmt, .. }
            | PlacementEvent::OptimalChosen { stmt, .. }
            | PlacementEvent::ConstraintChecked { stmt, .. }
            | PlacementEvent::ShiftInserted { stmt, .. }
            | PlacementEvent::ShiftElided { stmt, .. } => *stmt,
        }
    }

    /// The placed-graph node this event is about, if any.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            PlacementEvent::OffsetComputed { node, .. }
            | PlacementEvent::ConstraintChecked { node, .. }
            | PlacementEvent::ShiftInserted { node, .. }
            | PlacementEvent::ShiftElided { node, .. } => Some(*node),
            PlacementEvent::DominantChosen { .. } | PlacementEvent::OptimalChosen { .. } => None,
        }
    }
}

impl fmt::Display for PlacementEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementEvent::OffsetComputed {
                stmt,
                node,
                desc,
                offset,
            } => write!(f, "stmt {stmt}: {node} {desc} has stream offset {offset}"),
            PlacementEvent::DominantChosen {
                stmt,
                target,
                histogram,
                store,
            } => {
                let hist: Vec<String> = histogram
                    .iter()
                    .map(|(b, n)| format!("{b}\u{d7}{n}"))
                    .collect();
                write!(
                    f,
                    "stmt {stmt}: dominant offset {target} chosen from {{{}}} (store @{store})",
                    hist.join(", ")
                )
            }
            PlacementEvent::OptimalChosen {
                stmt,
                shifts,
                lower_bound,
                candidates,
                store,
            } => {
                let cands: Vec<String> = candidates.iter().map(u32::to_string).collect();
                write!(
                    f,
                    "stmt {stmt}: optimal placement proved minimal: {shifts} shift(s) over \
                     candidate offsets {{{}}} (\u{a7}5.3 bound {lower_bound}, store @{store})",
                    cands.join(", ")
                )
            }
            PlacementEvent::ConstraintChecked {
                stmt,
                constraint,
                node,
                required,
                found,
                satisfied,
            } => write!(
                f,
                "stmt {stmt}: ({constraint}) at {node}: requires {required}, found {found} — {}",
                if *satisfied { "satisfied" } else { "violated" }
            ),
            PlacementEvent::ShiftInserted {
                stmt,
                node,
                src,
                from,
                to,
                rule,
            } => write!(
                f,
                "stmt {stmt}: {node} = vshiftstream({src}, {from} \u{2192} {to}): {rule}"
            ),
            PlacementEvent::ShiftElided {
                stmt,
                node,
                offset,
                rule,
            } => write!(
                f,
                "stmt {stmt}: no shift at {node} (offset {offset}): {rule}"
            ),
        }
    }
}

/// The ordered decision record of one
/// [`crate::ReorgGraph::with_policy_traced`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementTrace {
    /// The events, in the order the decisions were made.
    pub events: Vec<PlacementEvent>,
}

impl PlacementTrace {
    /// An empty trace.
    pub fn new() -> PlacementTrace {
        PlacementTrace::default()
    }

    /// Number of [`PlacementEvent::ShiftInserted`] events — equals the
    /// placed graph's [`crate::ReorgGraph::shift_count`].
    pub fn shifts_inserted(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, PlacementEvent::ShiftInserted { .. }))
            .count()
    }

    /// Events belonging to statement `stmt`, in order.
    pub fn for_stmt(&self, stmt: usize) -> impl Iterator<Item = &PlacementEvent> {
        self.events.iter().filter(move |e| e.stmt() == stmt)
    }
}

/// Where the placer sends its decisions: into a [`PlacementTrace`] when
/// one was asked for, nowhere otherwise. Each event is passed as a
/// closure that runs only when a trace is being recorded, so the
/// untraced [`crate::ReorgGraph::with_policy`] runs the same placer
/// without building a single event or formatting a single rule.
pub(crate) struct Recorder<'t>(Option<&'t mut PlacementTrace>);

impl<'t> Recorder<'t> {
    /// Records into `trace`.
    pub(crate) fn on(trace: &'t mut PlacementTrace) -> Recorder<'t> {
        Recorder(Some(trace))
    }

    /// Records nothing.
    pub(crate) fn off() -> Recorder<'t> {
        Recorder(None)
    }

    /// Appends the event `event` builds, if a trace is being recorded.
    pub(crate) fn record(&mut self, event: impl FnOnce() -> PlacementEvent) {
        if let Some(trace) = self.0.as_deref_mut() {
            trace.events.push(event());
        }
    }

    /// The position the next recorded event will take; pass it to
    /// [`Recorder::record_at`] for an event that must read before the
    /// ones recorded after it.
    pub(crate) fn mark(&self) -> usize {
        self.0.as_ref().map_or(0, |trace| trace.events.len())
    }

    /// Inserts the event `event` builds at `mark`, if a trace is being
    /// recorded.
    pub(crate) fn record_at(&mut self, mark: usize, event: impl FnOnce() -> PlacementEvent) {
        if let Some(trace) = self.0.as_deref_mut() {
            trace.events.insert(mark, event());
        }
    }
}
