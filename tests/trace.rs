//! Golden-pinned `simdize trace` export: the `simdize-trace/v1`
//! document for the paper's Figure 1 loop, normalized by the suite's
//! `normalize` (the one the wire golden uses), must stay byte-stable
//! (`tests/golden/trace-figure1.json`), and the Chrome
//! trace-event export must agree with the span timeline it was derived
//! from. Regenerate after an intentional schema change with
//! `UPDATE_GOLDEN=1 cargo test --test trace`.

use simdize::{parse_program, trace_source, Simdizer};
use simdize_suite::{assert_golden, normalize, sample, sample_loops};

#[test]
fn normalized_trace_json_matches_golden() {
    let (trace, outcome) = trace_source(&sample("figure1")).unwrap();
    assert!(outcome.verified);
    assert_golden(
        "tests/golden/trace-figure1.json",
        &normalize(&trace.render_json()),
        "trace schema drift",
    );
}

#[test]
fn chrome_export_agrees_with_the_span_timeline() {
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

/// Every bundled loop traces, strided ones included, and the traced
/// pass tags the bound `simdize run` reports: §5.3's, which charges
/// `deinterleave`'s packs their chunk loads and `vperm`s.
#[test]
fn every_sample_loop_traces_with_the_bound_run_reports() {
    for (name, src) in sample_loops() {
        let (trace, outcome) = trace_source(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.verified, "{name}");
        assert_eq!(outcome.sweep_verified, outcome.sweep_jobs, "{name}");
        let report = Simdizer::new().evaluate(&parse_program(&src).unwrap(), 1).unwrap();
        let bound = format!("{:.3}", report.lower_bound_opd);
        assert_eq!(trace.attrs["opd.bound"], bound, "{name}");
        if name == "deinterleave" {
            assert_eq!(bound, "3.000");
        }
    }
}
