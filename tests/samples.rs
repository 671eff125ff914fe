//! The shipped sample loops (`loops/*.loop`) must stay valid, compile,
//! execute and verify — they are the CLI's first-contact surface.

use simdize::{parse_program, DiffConfig, Simdizer};
use simdize_suite::sample;

#[test]
fn all_samples_verify() {
    for name in [
        "figure1",
        "runtime",
        "dot_product",
        "deinterleave",
        "halfword",
    ] {
        let program = parse_program(&sample(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = Simdizer::new()
            .evaluate_with(&program, &DiffConfig::with_seed(1).runtime_ub(1000))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.verified, "{name}");
        assert!(report.speedup > 1.0, "{name}: speedup {}", report.speedup);
    }
}

#[test]
fn samples_roundtrip_through_the_printer() {
    for name in [
        "figure1",
        "dot_product",
        "deinterleave",
        "halfword",
    ] {
        let program = parse_program(&sample(name)).unwrap();
        let reparsed = parse_program(&program.to_source()).unwrap();
        assert_eq!(program, reparsed, "{name}");
    }
}

#[test]
fn traced_execution_matches_plain() {
    use simdize::{run_simd, run_simd_traced, MemoryImage, RunInput, VectorShape};
    let program = parse_program(&sample("figure1")).unwrap();
    let compiled = Simdizer::new().compile(&program).unwrap();
    let mut a = MemoryImage::with_seed(&program, VectorShape::V16, 3);
    let mut b = a.clone();
    let plain = run_simd(&compiled, &mut a, &RunInput::with_ub(1000)).unwrap();
    let (traced, trace) =
        run_simd_traced(&compiled, &mut b, &RunInput::with_ub(1000), 64).unwrap();
    assert_eq!(plain, traced);
    assert_eq!(a.first_difference(&b), None);
    assert!(!trace.is_empty());
    assert!(trace.iter().all(|l| l.starts_with("[i=")));
}

#[test]
fn reduction_graph_metadata() {
    use simdize::{Offset, ReorgGraph, VectorShape};
    let program = parse_program(&sample("dot_product")).unwrap();
    let graph = ReorgGraph::build(&program, VectorShape::V16).unwrap();
    // Reductions require stream offset 0 of their expression.
    assert_eq!(graph.store_offset(0), Offset::Byte(0));
    let placed = graph
        .with_policy(simdize::Policy::Dominant)
        .unwrap();
    placed.validate().unwrap();
    let stats = placed.stats();
    assert_eq!(stats.stores, 1);
    assert!(stats.shifts >= 1);
}
