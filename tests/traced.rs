//! The traced and untraced front halves are one code path.
//!
//! `ReorgGraph::with_policy` and `generate` run the same placer and
//! generator as their `_traced` twins, but build no decision records.
//! Over every sample loop and a seeded §5.3 corpus — the 4 × 6 shape
//! grid, with compile-time and runtime alignments, plain stores and
//! reductions — under all five policies and all three reuse modes,
//! both entry points must return the same graph and the same program
//! (or the same error), and the traced runs must still record every
//! decision: one `ShiftInserted` per placed shift and one `PassApplied`
//! per pass that ran (value numbering at emission counts as `lvn`).

use simdize::{
    generate, generate_traced, parse_program, synthesize, BinOp, CodegenEvent, CodegenOptions,
    CodegenTrace, LoopBuilder, LoopProgram, PlacementTrace, Policy, ReorgGraph, ReuseMode,
    TripSpec, VectorShape, WorkloadSpec,
};
use simdize_prng::SplitMix64;
use simdize_suite::sample_loops;

const REUSE: [ReuseMode; 3] = [
    ReuseMode::None,
    ReuseMode::SoftwarePipeline,
    ReuseMode::PredictiveCommoning,
];

/// `program` with its first statement turned into a `+=` reduction
/// onto the element it stored to.
fn with_reduction(program: &LoopProgram) -> LoopProgram {
    let mut b = LoopBuilder::new(program.elem());
    for decl in program.arrays() {
        b.declare(decl.clone());
    }
    for (k, s) in program.stmts().iter().enumerate() {
        if k == 0 {
            b.reduce(s.target, BinOp::Add, s.rhs.clone());
        } else {
            b.stmt(s.target, s.rhs.clone());
        }
    }
    b.finish_trip(program.trip()).unwrap()
}

/// The seeded corpus: each cell of the 4 × 6 (statements × loads)
/// grid with compile-time alignments, runtime alignments, and each of
/// those with a reduction.
fn corpus() -> Vec<(String, LoopProgram)> {
    let mut rng = SplitMix64::seed_from_u64(30);
    let mut out = Vec::new();
    for cell in 0..24 {
        let (statements, loads) = (1 + cell % 4, 1 + cell / 4);
        for runtime in [false, true] {
            let spec = WorkloadSpec::new(statements, loads)
                .trip(TripSpec::KnownInRange(997, 1000))
                .runtime_align(runtime);
            let program = synthesize(&spec, &mut rng);
            let name = format!("{}{}", spec.name(), if runtime { "@?" } else { "" });
            out.push((format!("{name}+="), with_reduction(&program)));
            out.push((name, program));
        }
    }
    out
}

/// The pass names a traced `generate` records, in order.
fn passes(trace: &CodegenTrace) -> Vec<&'static str> {
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            CodegenEvent::PassApplied { pass, .. } => Some(*pass),
            _ => None,
        })
        .collect()
}

#[test]
fn traced_and_untraced_runs_agree() {
    let mut inputs: Vec<(String, LoopProgram)> = sample_loops()
        .into_iter()
        .map(|(name, text)| (name, parse_program(&text).unwrap()))
        .collect();
    inputs.extend(corpus());

    let (mut placed_graphs, mut programs, mut runtime, mut reductions) = (0, 0, 0, 0);
    for (name, program) in &inputs {
        // Strided loops take the gather/scatter generator: no graph.
        let Ok(graph) = ReorgGraph::build(program, VectorShape::V16) else {
            continue;
        };
        for policy in Policy::ALL {
            let mut trace = PlacementTrace::new();
            let traced = graph.with_policy_traced(policy, &mut trace);
            let untraced = graph.with_policy(policy);
            assert_eq!(traced, untraced, "{name} {policy}: placement differs");
            let Ok(placed) = untraced else {
                assert!(
                    trace.events.is_empty(),
                    "{name} {policy}: error left events"
                );
                continue;
            };
            placed_graphs += 1;
            assert_eq!(
                trace.shifts_inserted(),
                placed.shift_count(),
                "{name} {policy}: shifts recorded"
            );
            for reuse in REUSE {
                let options = CodegenOptions::default().reuse(reuse);
                let mut ctrace = CodegenTrace::new();
                let traced = generate_traced(&placed, &options, &mut ctrace);
                let untraced = generate(&placed, &options);
                assert_eq!(
                    traced, untraced,
                    "{name} {policy} {reuse:?}: program differs"
                );
                if untraced.is_err() {
                    continue;
                }
                programs += 1;
                runtime += usize::from(!program.all_alignments_known());
                reductions += usize::from(program.stmts().iter().any(|s| s.is_reduction()));
                // Value numbering happens at emission; only predictive
                // commoning leaves duplicates and dead code behind.
                let mut expected = vec!["lvn"];
                if reuse == ReuseMode::PredictiveCommoning {
                    expected.extend(["pc", "post-pc lvn", "dce"]);
                }
                if options.unroll_enabled() {
                    expected.push("unroll");
                }
                assert_eq!(
                    passes(&ctrace),
                    expected,
                    "{name} {policy} {reuse:?}: passes"
                );
            }
        }
    }
    // Every kind of input reached code generation.
    assert!(placed_graphs >= 5 * 48, "{placed_graphs} placed graphs");
    assert!(programs >= 15 * 48, "{programs} programs");
    assert!(runtime >= 3 * 24, "{runtime} runtime-aligned programs");
    assert!(
        reductions >= 15 * 24,
        "{reductions} programs with a reduction"
    );
}
