//! Cross-checks of the exact shift-placement search: the dynamic
//! program and the independent branch-and-bound must return identical
//! minimum shift counts on every sample loop, the placed graph must
//! realize exactly the proven count, and — over a seeded matrix of
//! §5.3 synthesized loops — the optimum can never exceed any greedy
//! policy's placement.

use simdize::{
    branch_and_bound_shift_counts, optimal_shift_counts, parse_program, LoopProgram, Policy,
    ReorgGraph, Simdizer, TripSpec, VectorShape, WorkloadSpec,
};
use simdize_prng::SplitMix64;
use simdize_suite::sample_loops;

/// Every sample loop whose alignments are compile-time constants (the
/// optimal search, like every policy but zero-shift, refuses `@ ?`).
fn static_sample_loops() -> Vec<(String, LoopProgram)> {
    sample_loops()
        .into_iter()
        .map(|(name, text)| (name, parse_program(&text).unwrap()))
        .filter(|(_, program)| program.all_alignments_known())
        .collect()
}

#[test]
fn dp_and_branch_and_bound_agree_on_every_sample_loop() {
    let mut covered = 0usize;
    for (name, program) in static_sample_loops() {
        // Strided loops (deinterleave) go through the gather/scatter
        // generator, not the stream reorg graph — nothing to place.
        let Ok(graph) = ReorgGraph::build(&program, VectorShape::V16) else {
            continue;
        };
        covered += 1;
        let dp: Vec<usize> = optimal_shift_counts(&graph)
            .iter()
            .map(|s| s.shifts)
            .collect();
        let lazy = graph.with_policy(Policy::Lazy).unwrap();
        let bb = branch_and_bound_shift_counts(&graph, &lazy.stats().per_stmt_shifts);
        assert_eq!(dp, bb, "{name}: DP and branch-and-bound disagree");
        // The placed graph realizes exactly the proven count.
        let placed = graph.with_policy(Policy::Optimal).unwrap();
        placed.validate().unwrap();
        assert_eq!(
            placed.shift_count(),
            dp.iter().sum::<usize>(),
            "{name}: placement does not realize the proven minimum"
        );
    }
    assert!(covered >= 3, "expected the checked-in stream sample loops");
}

#[test]
fn optimal_never_exceeds_any_greedy_policy_on_synthesized_loops() {
    // A seeded sweep across the §5.3 matrix: every greedy placement is
    // an upper bound the exact search must meet or beat, statement by
    // statement in aggregate.
    for (s, l) in [(1, 2), (1, 6), (2, 4), (3, 5)] {
        for seed in 0..8u64 {
            let spec = WorkloadSpec::new(s, l)
                .bias(0.1 * seed as f64)
                .trip(TripSpec::Known(64));
            let mut rng = SplitMix64::seed_from_u64(seed * 7919 + 13);
            let program = simdize::synthesize(&spec, &mut rng);
            let graph = ReorgGraph::build(&program, VectorShape::V16).unwrap();
            let optimal: usize = optimal_shift_counts(&graph).iter().map(|o| o.shifts).sum();
            for policy in [Policy::Zero, Policy::Eager, Policy::Lazy, Policy::Dominant] {
                let greedy = graph.with_policy(policy).unwrap().shift_count();
                assert!(
                    optimal <= greedy,
                    "S{s}*L{l} seed {seed}: optimal {optimal} > {} {greedy}",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn optimal_scheme_verifies_end_to_end() {
    // The OPD of the full pipeline under the optimal policy is never
    // worse than under the best greedy policy (shifts are the only
    // knob the policy turns), and the simdized loop still proves
    // byte-identical to the scalar oracle.
    let program = parse_program(
        "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0;
                  d: i32[256] @ 0; e: i32[256] @ 0; }
         for i in 0..200 { a[i+3] = (b[i+1] + c[i+1]) * d[i+2] + e[i+2]; }",
    )
    .unwrap();
    let opd_of = |policy: Policy| {
        let report = Simdizer::new()
            .policy(policy)
            .evaluate(&program, 42)
            .unwrap();
        assert!(report.verified, "{} failed verification", policy.name());
        report.opd
    };
    let optimal = opd_of(Policy::Optimal);
    let best_greedy = [Policy::Zero, Policy::Eager, Policy::Lazy, Policy::Dominant]
        .into_iter()
        .map(opd_of)
        .fold(f64::INFINITY, f64::min);
    assert!(
        optimal <= best_greedy + 1e-9,
        "optimal OPD {optimal} worse than best greedy {best_greedy}"
    );
}
