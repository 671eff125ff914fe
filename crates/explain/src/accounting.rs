//! Operations-per-datum accounting: decomposing the measured dynamic
//! instruction counts against the paper's §5.3 analytic lower bound,
//! with every operation class attributed to the decisions that caused
//! it.
//!
//! The invariant the explain tests pin down: the weighted contributions
//! of all rows sum *exactly* to [`RunStats::total`] — no operation the
//! machine executed goes unaccounted.

use crate::decision::{DecisionId, Decisions};
use simdize::{CodegenEvent, Constraint, LowerBound, PlacementEvent, RunStats, UNALIGNED_MEM_COST};

/// One operation class of the accounting table.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountRow {
    /// The [`RunStats`] field this row accounts for.
    pub class: &'static str,
    /// Raw dynamic count.
    pub count: u64,
    /// Cost-model weight (1 for everything except hardware-misaligned
    /// accesses, which cost [`UNALIGNED_MEM_COST`]).
    pub weight: u64,
    /// `count × weight` — the row's contribution to the total.
    pub contribution: u64,
    /// The analytic lower bound's contribution for this class over the
    /// whole run (0 for classes the bound proves avoidable).
    pub bound: f64,
    /// Prose attribution of the class (and of any excess over the
    /// bound).
    pub note: &'static str,
    /// Decisions responsible for operations in this class.
    pub links: Vec<DecisionId>,
}

/// The full accounting of one measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// One row per [`RunStats`] class, in the cost model's order.
    pub rows: Vec<AccountRow>,
    /// Σ row contributions — equals [`RunStats::total`] exactly.
    pub total: u64,
    /// Data elements produced.
    pub data: u64,
    /// Measured operations per datum (`total / data`).
    pub opd: f64,
    /// The analytic lower-bound OPD (§5.3).
    pub bound_opd: f64,
}

/// Decision ids selected from the streams by a predicate, for row
/// attribution.
fn placement_ids(d: &Decisions, pred: impl Fn(&PlacementEvent) -> bool) -> Vec<DecisionId> {
    d.placement
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| pred(e))
        .map(|(i, _)| DecisionId::placement(i))
        .collect()
}

fn codegen_ids(d: &Decisions, pred: impl Fn(&CodegenEvent) -> bool) -> Vec<DecisionId> {
    d.codegen
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| pred(e))
        .map(|(i, _)| DecisionId::codegen(i))
        .collect()
}

/// Builds the accounting table for one measured run.
///
/// `bound` is the §5.3 per-steady-iteration lower bound; its per-class
/// counts are scaled to the whole run (`data / (B · statements)`
/// steady iterations' worth of work) so measured and bound columns are
/// directly comparable. Classes outside the bound's model (splices,
/// splats, copies, overheads) get a zero bound and a decision
/// attribution instead.
pub fn account(
    stats: &RunStats,
    data: u64,
    bound: Option<&LowerBound>,
    decisions: &Decisions,
) -> Accounting {
    let iterations = bound.map_or(0.0, |b| data as f64 / b.data_per_iteration());
    let scale = |per_iter: usize| iterations * per_iter as f64;

    // Packs and scatters reorganize with `vperm`s.
    let shifts = placement_ids(decisions, |e| match e {
        PlacementEvent::ShiftInserted { .. } => true,
        PlacementEvent::OffsetComputed { desc, .. } => {
            desc.contains("[pack") || desc.contains("[scatter")
        }
        _ => false,
    });
    let loads = placement_ids(
        decisions,
        |e| matches!(e, PlacementEvent::OffsetComputed { desc, .. } if desc.starts_with("vload")),
    );
    let splats = placement_ids(
        decisions,
        |e| matches!(e, PlacementEvent::OffsetComputed { desc, .. } if desc.starts_with("vsplat")),
    );
    let c2 = placement_ids(decisions, |e| {
        matches!(
            e,
            PlacementEvent::ConstraintChecked {
                constraint: Constraint::C2,
                ..
            }
        )
    });
    let c3 = placement_ids(decisions, |e| {
        matches!(
            e,
            PlacementEvent::ConstraintChecked {
                constraint: Constraint::C3,
                ..
            }
        )
    });
    let bounds_d = codegen_ids(decisions, |e| {
        matches!(e, CodegenEvent::BoundsChosen { .. })
    });
    let prologue_d = codegen_ids(decisions, |e| {
        matches!(e, CodegenEvent::ProloguePeeled { .. })
    });
    let epilogue_d = codegen_ids(decisions, |e| {
        matches!(
            e,
            CodegenEvent::EpilogueForm { .. } | CodegenEvent::ReductionEpilogue { .. }
        )
    });
    let reuse_d = codegen_ids(decisions, |e| {
        matches!(e, CodegenEvent::ReuseApplied { .. })
    });
    let reduction_d = codegen_ids(decisions, |e| {
        matches!(e, CodegenEvent::ReductionEpilogue { .. })
    });

    let mut edge_d = prologue_d.clone();
    edge_d.extend(epilogue_d.iter().copied());

    let mut load_d = loads.clone();
    load_d.extend(edge_d.iter().copied());
    let mut store_d = c2;
    store_d.extend(edge_d.iter().copied());
    let mut splat_d = splats;
    splat_d.extend(reduction_d.iter().copied());
    let mut ops_d = c3;
    ops_d.extend(reduction_d.iter().copied());
    let mut guard_d = bounds_d.clone();
    guard_d.extend(edge_d.iter().copied());

    let rows = vec![
        AccountRow {
            class: "loads",
            count: stats.loads,
            weight: 1,
            contribution: stats.loads,
            bound: bound.map_or(0.0, |b| scale(b.loads)),
            note: "distinct truncated chunk loads; excess over the bound comes from \
                   prologue/epilogue partial-store reads",
            links: load_d,
        },
        AccountRow {
            class: "stores",
            count: stats.stores,
            weight: 1,
            contribution: stats.stores,
            bound: bound.map_or(0.0, |b| scale(b.stores)),
            note: "one truncated store per steady iteration per statement, plus \
                   partial stores at the loop edges",
            links: store_d,
        },
        AccountRow {
            class: "shifts",
            count: stats.shifts,
            weight: 1,
            contribution: stats.shifts,
            bound: bound.map_or(0.0, |b| scale(b.shifts)),
            note: "vshiftpair reorganization: each dynamic shift executes one \
                   vshiftstream the placement policy inserted",
            links: shifts,
        },
        AccountRow {
            class: "splices",
            count: stats.splices,
            weight: 1,
            contribution: stats.splices,
            bound: 0.0,
            note: "partial-store blends at prologue/epilogue boundaries (Figure 9); \
                   the steady state needs none",
            links: edge_d.clone(),
        },
        AccountRow {
            class: "splats",
            count: stats.splats,
            weight: 1,
            contribution: stats.splats,
            bound: 0.0,
            note: "invariant replications (source constants/parameters, reduction \
                   identities and fold masks)",
            links: splat_d,
        },
        AccountRow {
            class: "ops",
            count: stats.ops,
            weight: 1,
            contribution: stats.ops,
            bound: bound.map_or(0.0, |b| scale(b.ops)),
            note: "lane-wise arithmetic of the source expressions (plus reduction \
                   accumulate/fold ops)",
            links: ops_d,
        },
        AccountRow {
            class: "copies",
            count: stats.copies,
            weight: 1,
            contribution: stats.copies,
            bound: 0.0,
            note: "loop-carried register rotations of the reuse scheme (Figure 10 \
                   line 19); unroll-by-2 removes most",
            links: reuse_d,
        },
        AccountRow {
            class: "loop_overhead",
            count: stats.loop_overhead,
            weight: 1,
            contribution: stats.loop_overhead,
            bound: 0.0,
            note: "one increment-and-branch per executed loop iteration (cost \
                   model, not in the paper's OPD bound)",
            links: bounds_d.clone(),
        },
        AccountRow {
            class: "invocation_overhead",
            count: stats.invocation_overhead,
            weight: 1,
            contribution: stats.invocation_overhead,
            bound: 0.0,
            note: "per-invocation setup: call overhead plus runtime evaluation of \
                   alignment/bound expressions",
            links: bounds_d,
        },
        AccountRow {
            class: "unaligned_mem",
            count: stats.unaligned_mem,
            weight: UNALIGNED_MEM_COST,
            contribution: stats.unaligned_mem * UNALIGNED_MEM_COST,
            bound: 0.0,
            note: "hardware-misaligned accesses (unaligned target only), weighted \
                   by their extra cost",
            links: Vec::new(),
        },
        AccountRow {
            class: "scalar_fallback",
            count: stats.scalar_fallback,
            weight: 1,
            contribution: stats.scalar_fallback,
            bound: 0.0,
            note: "scalar loop taken when the trip count fails the ub > 3B guard \
                   (§4.4)",
            links: guard_d,
        },
    ];

    let total: u64 = rows.iter().map(|r| r.contribution).sum();
    debug_assert_eq!(total, stats.total(), "accounting must cover every op");
    Accounting {
        rows,
        total,
        data,
        opd: total as f64 / data as f64,
        bound_opd: bound.map_or(f64::NAN, |b| b.opd()),
    }
}
