//! Golden-pinned `simdize trace` export: the normalized
//! `simdize-trace/v1` document for the paper's Figure 1 loop must stay
//! byte-stable (`tests/golden/trace-figure1.json`), and the Chrome
//! trace-event export must agree with the span timeline it was derived
//! from. Regenerate after an intentional schema change with
//! `UPDATE_GOLDEN=1 cargo test --test trace`.

use simdize::trace_source;
use simdize_suite::{assert_golden, sample};

/// Pins the `isa` attribute host-independently: `IsaLevel::detect()`
/// re-reads the override on every call, and `scalar` is a valid tier
/// on every host. Both tests in this binary set the same value, so the
/// parallel writes are idempotent.
fn force_scalar_isa() {
    std::env::set_var("SIMDIZE_ISA", "scalar");
}

#[test]
fn normalized_trace_json_matches_golden() {
    force_scalar_isa();
    let (trace, outcome) = trace_source(&sample("figure1")).unwrap();
    assert!(outcome.verified);
    assert_golden(
        "tests/golden/trace-figure1.json",
        &trace.render_json(true),
        "trace schema drift",
    );
}

#[test]
fn chrome_export_agrees_with_the_span_timeline() {
    force_scalar_isa();
    let (trace, _) = trace_source(&sample("figure1")).unwrap();
    let chrome = trace.render_chrome();
    // One complete event per recorded span, plus the request root.
    let events = chrome.matches("\"ph\":\"X\"").count();
    assert_eq!(events, trace.events.len() + 1, "{chrome}");
    // The root request event's duration is the request wall time, and
    // every span's microsecond duration appears with its name.
    assert!(
        chrome.contains(&format!(
            "\"name\":\"request:trace\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":0,\"dur\":{}",
            trace.wall_us
        )),
        "{chrome}"
    );
    for ev in &trace.events {
        let name = ev.path.rsplit('/').next().unwrap();
        assert!(chrome.contains(&format!("\"name\":\"{name}\"")), "{name} missing");
    }
    // The document is parseable JSON with the trace id in the root args.
    let doc = simdize_telemetry::json::parse(&chrome).unwrap();
    assert!(doc.get("traceEvents").is_some());
    assert!(chrome.contains(&format!("\"trace_id\":\"{}\"", trace.trace_id)));
}
