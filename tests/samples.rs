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
    for name in ["figure1", "dot_product", "deinterleave", "halfword"] {
        let program = parse_program(&sample(name)).unwrap();
        let reparsed = parse_program(&program.to_source()).unwrap();
        assert_eq!(program, reparsed, "{name}");
    }
}

#[test]
fn reduction_graph_metadata() {
    use simdize::{Offset, ReorgGraph, VectorShape};
    let program = parse_program(&sample("dot_product")).unwrap();
    let graph = ReorgGraph::build(&program, VectorShape::V16).unwrap();
    // Reductions require stream offset 0 of their expression.
    assert_eq!(graph.store_offset(0), Offset::Byte(0));
    let placed = graph.with_policy(simdize::Policy::Dominant).unwrap();
    placed.validate().unwrap();
    let stats = placed.stats();
    assert_eq!(stats.stores, 1);
    assert!(stats.shifts >= 1);
}
