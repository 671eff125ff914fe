//! The optimality study: how often does each greedy shift-placement
//! policy match the provably minimum shift count of [`Policy::Optimal`]?
//!
//! For every cell of a §5.3-style `(l, s, b, r)` workload matrix this
//! module synthesizes a suite of loops, places each one under all four
//! greedy policies, and compares the shift counts against the exact
//! minimum computed by [`optimal_shift_counts`]. The aggregate — match
//! rate and total excess shifts — is the evidence behind the claims in
//! `docs/POLICIES.md`, whose summary table is [`render`]ed by the
//! `repro` bin (experiment E16; CI checks it for drift).
//!
//! Everything here is placement-only and deterministic given the base
//! seed, so the table is reproducible byte for byte.

use crate::{suite, LOOPS_PER_BENCHMARK, SEED};
use simdize::{
    distinct_alignments, optimal_shift_counts, Policy, ReorgGraph, TripSpec, VectorShape,
    WorkloadSpec,
};
use std::fmt::Write as _;

/// The greedy policies the study measures against the optimum.
pub const GREEDY_POLICIES: [Policy; 4] =
    [Policy::Zero, Policy::Eager, Policy::Lazy, Policy::Dominant];

/// One greedy policy's aggregate over a study cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyGap {
    /// The greedy policy measured.
    pub policy: Policy,
    /// Loops whose shift count equalled the proven minimum.
    pub matched: usize,
    /// Total shifts placed beyond the minimum, summed over the suite.
    pub excess: u64,
}

/// One `(l, s, b, r)` cell of the study matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyCell {
    /// Cell label, e.g. `S2*L4 b=0.3 r=0.3`.
    pub label: String,
    /// Loops in the suite.
    pub loops: usize,
    /// Total proven-minimum shifts over the suite.
    pub optimal_total: u64,
    /// Total §5.3 analytic lower bound (distinct alignments − 1 per
    /// statement) over the suite.
    pub bound_total: u64,
    /// Loops where the proven minimum equals the analytic bound.
    pub tight: usize,
    /// One [`PolicyGap`] per greedy policy, in [`GREEDY_POLICIES`] order.
    pub gaps: Vec<PolicyGap>,
}

impl StudyCell {
    /// The gap entry for `policy`.
    pub fn gap(&self, policy: Policy) -> &PolicyGap {
        self.gaps
            .iter()
            .find(|g| g.policy == policy)
            .expect("every greedy policy is measured")
    }
}

/// The §5.3 analytic lower bound of a whole (unplaced) graph: per
/// statement, one shift fewer than the number of distinct alignments.
fn analytic_bound(graph: &ReorgGraph) -> u64 {
    (0..graph.roots().len())
        .map(|s| distinct_alignments(graph, s).saturating_sub(1) as u64)
        .sum()
}

/// Measures one suite of `count` loops drawn from `spec`.
///
/// # Panics
///
/// Panics if `spec` declares runtime alignments (the optimal search,
/// like every policy but zero-shift, needs compile-time offsets) or if
/// any generated loop fails to place under a greedy policy.
pub fn study_cell(spec: &WorkloadSpec, count: usize, base_seed: u64) -> StudyCell {
    assert!(
        !spec.runtime_align,
        "the optimality study needs compile-time alignments"
    );
    let mut optimal_total = 0u64;
    let mut bound_total = 0u64;
    let mut tight = 0usize;
    let mut gaps: Vec<PolicyGap> = GREEDY_POLICIES
        .iter()
        .map(|&policy| PolicyGap {
            policy,
            matched: 0,
            excess: 0,
        })
        .collect();

    for program in suite(spec, count, base_seed) {
        let graph = ReorgGraph::build(&program, VectorShape::V16).expect("study loop builds");
        let optimal: usize = optimal_shift_counts(&graph).iter().map(|s| s.shifts).sum();
        let bound = analytic_bound(&graph);
        optimal_total += optimal as u64;
        bound_total += bound;
        if optimal as u64 == bound {
            tight += 1;
        }
        for gap in &mut gaps {
            let placed = graph
                .with_policy(gap.policy)
                .expect("compile-time alignments place under every policy")
                .shift_count();
            assert!(
                placed >= optimal,
                "{}: greedy {} beat the proven minimum ({placed} < {optimal})",
                spec.name(),
                gap.policy.name()
            );
            if placed == optimal {
                gap.matched += 1;
            }
            gap.excess += (placed - optimal) as u64;
        }
    }

    StudyCell {
        label: format!("{} b={} r={}", spec.name(), spec.bias, spec.reuse),
        loops: count,
        optimal_total,
        bound_total,
        tight,
        gaps,
    }
}

/// The default study matrix: the paper's statement/load shapes crossed
/// with no-bias, headline-bias and full-bias alignment distributions.
pub fn study_specs() -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for (s, l) in [(1, 2), (1, 4), (1, 6), (2, 4), (4, 4), (4, 8)] {
        for (bias, reuse) in [(0.0, 0.3), (0.3, 0.3), (0.8, 0.3), (0.3, 0.0)] {
            specs.push(
                WorkloadSpec::new(s, l)
                    .bias(bias)
                    .reuse(reuse)
                    .trip(TripSpec::Known(200)),
            );
        }
    }
    specs
}

/// Runs [`study_cell`] over the whole default matrix.
pub fn study_matrix(count: usize, base_seed: u64) -> Vec<StudyCell> {
    study_specs()
        .iter()
        .map(|spec| study_cell(spec, count, base_seed))
        .collect()
}

/// Sums `cells` into one overall row (the table's footer).
pub fn study_overall(cells: &[StudyCell]) -> StudyCell {
    let mut gaps: Vec<PolicyGap> = GREEDY_POLICIES
        .iter()
        .map(|&policy| PolicyGap {
            policy,
            matched: 0,
            excess: 0,
        })
        .collect();
    let mut overall = StudyCell {
        label: "overall".to_string(),
        loops: 0,
        optimal_total: 0,
        bound_total: 0,
        tight: 0,
        gaps: Vec::new(),
    };
    for cell in cells {
        overall.loops += cell.loops;
        overall.optimal_total += cell.optimal_total;
        overall.bound_total += cell.bound_total;
        overall.tight += cell.tight;
        for gap in &mut gaps {
            let g = cell.gap(gap.policy);
            gap.matched += g.matched;
            gap.excess += g.excess;
        }
    }
    overall.gaps = gaps;
    overall
}

fn pct(part: usize, whole: usize) -> String {
    if whole == 0 {
        return "-".to_string();
    }
    format!("{:.0}%", 100.0 * part as f64 / whole as f64)
}

/// E16: the default matrix at the paper's suite size, as the Markdown
/// table embedded in `docs/POLICIES.md`.
pub fn render() -> String {
    render_study_markdown(&study_matrix(LOOPS_PER_BENCHMARK, SEED))
}

/// Renders the study as a Markdown table.
///
/// Per cell: suite size, total proven-minimum shifts, how often the
/// minimum met the §5.3 analytic bound, and per greedy policy the
/// match rate plus total excess shifts.
pub fn render_study_markdown(cells: &[StudyCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| suite | loops | min shifts | bound tight | zero | eager | lazy | dominant |"
    );
    let _ = writeln!(
        out,
        "|-------|-------|-----------|-------------|------|-------|------|----------|"
    );
    let overall = study_overall(cells);
    for cell in cells.iter().chain(std::iter::once(&overall)) {
        let mut row = format!(
            "| {} | {} | {} | {} |",
            if cell.label == "overall" {
                "**overall**".to_string()
            } else {
                format!("`{}`", cell.label)
            },
            cell.loops,
            cell.optimal_total,
            pct(cell.tight, cell.loops),
        );
        for policy in GREEDY_POLICIES {
            let gap = cell.gap(policy);
            let _ = write!(row, " {} (+{}) |", pct(gap.matched, cell.loops), gap.excess);
        }
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Per policy column: match rate against the proven minimum, then total \
         excess shifts over the suite in parentheses. \"bound tight\" is how \
         often the proven minimum equals the §5.3 analytic bound (distinct \
         alignments − 1 per statement)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_is_deterministic_and_sound() {
        let spec = WorkloadSpec::new(2, 4).trip(TripSpec::Known(200));
        let a = study_cell(&spec, 8, 11);
        let b = study_cell(&spec, 8, 11);
        assert_eq!(a, b);
        assert_eq!(a.loops, 8);
        // The optimum can never beat the analytic bound...
        assert!(a.optimal_total >= a.bound_total);
        // ...and no greedy policy can match more often than it runs.
        for gap in &a.gaps {
            assert!(gap.matched <= a.loops);
            if gap.matched == a.loops {
                assert_eq!(gap.excess, 0);
            }
        }
    }

    #[test]
    fn lazy_dominates_zero_in_aggregate() {
        // On the headline bias, lazy's match count is never below
        // zero-shift's: zero pays for every distinct load alignment.
        let spec = WorkloadSpec::new(1, 6).trip(TripSpec::Known(200));
        let cell = study_cell(&spec, 12, 2004);
        assert!(cell.gap(Policy::Lazy).matched >= cell.gap(Policy::Zero).matched);
        assert!(cell.gap(Policy::Lazy).excess <= cell.gap(Policy::Zero).excess);
    }

    #[test]
    fn renderers_cover_every_cell() {
        let cells = vec![
            study_cell(&WorkloadSpec::new(1, 2).trip(TripSpec::Known(200)), 4, 7),
            study_cell(&WorkloadSpec::new(2, 4).trip(TripSpec::Known(200)), 4, 7),
        ];
        let md = render_study_markdown(&cells);
        assert!(md.contains("S1*L2"));
        assert!(md.contains("S2*L4"));
        assert!(md.contains("**overall**"));
        let overall = study_overall(&cells);
        assert_eq!(overall.loops, 8);
    }
}
