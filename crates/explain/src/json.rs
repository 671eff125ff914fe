//! Machine-readable report rendering: the versioned
//! `simdize-explain/v1` JSON schema.
//!
//! The schema is hand-rolled (the project carries zero external
//! dependencies) and pinned by golden-file tests: every document has a
//! `"schema"` field, a `"mode"` discriminant
//! (`"stream"` / `"inapplicable"`), and a `"loop"` object; stream
//! reports add `"decisions"`, `"program"`, `"accounting"`, `"stats"`
//! and `"engine"` sections.

use crate::accounting::Accounting;
use crate::backlink::AnnotatedSection;
use crate::decision::DecisionId;
use crate::report::{ExplainReport, InapplicableReport, LoopInfo, StreamReport};
use simdize_telemetry::json::escape;
use simdize::RunStats;

/// The version tag emitted in every document's `"schema"` field.
pub const SCHEMA: &str = "simdize-explain/v1";

/// JSON has no NaN/Infinity: render those as `null`, everything else
/// with six fractional digits (deterministic across runs).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn links_json(links: &[DecisionId]) -> String {
    let items: Vec<String> = links.iter().map(|l| format!("\"{l}\"")).collect();
    format!("[{}]", items.join(","))
}

fn loop_json(info: &LoopInfo) -> String {
    let arrays: Vec<String> = info
        .array_names
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    format!(
        "{{\"source\":\"{}\",\"arrays\":[{}],\"policy\":\"{}\",\"policy_forced\":{},\
         \"shape\":\"{}\",\"block\":{},\"seed\":{},\"ub\":{}}}",
        escape(&info.source),
        arrays.join(","),
        info.policy.name(),
        info.policy_forced,
        info.shape,
        info.block,
        info.seed,
        info.ub
    )
}

fn stats_json(stats: &RunStats) -> String {
    format!(
        "{{\"loads\":{},\"stores\":{},\"shifts\":{},\"splices\":{},\"splats\":{},\
         \"ops\":{},\"copies\":{},\"loop_overhead\":{},\"invocation_overhead\":{},\
         \"unaligned_mem\":{},\"scalar_fallback\":{},\"total\":{}}}",
        stats.loads,
        stats.stores,
        stats.shifts,
        stats.splices,
        stats.splats,
        stats.ops,
        stats.copies,
        stats.loop_overhead,
        stats.invocation_overhead,
        stats.unaligned_mem,
        stats.scalar_fallback,
        stats.total()
    )
}

fn sections_json(sections: &[AnnotatedSection]) -> String {
    let rendered: Vec<String> = sections
        .iter()
        .map(|s| {
            let insts: Vec<String> = s
                .insts
                .iter()
                .map(|i| {
                    format!(
                        "{{\"text\":\"{}\",\"depth\":{},\"links\":{}}}",
                        escape(&i.text),
                        i.depth,
                        links_json(&i.links)
                    )
                })
                .collect();
            format!(
                "{{\"name\":\"{}\",\"header\":\"{}\",\"insts\":[{}]}}",
                s.name,
                escape(&s.header),
                insts.join(",")
            )
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

fn accounting_json(a: &Accounting) -> String {
    let rows: Vec<String> = a
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"class\":\"{}\",\"count\":{},\"weight\":{},\"contribution\":{},\
                 \"bound\":{},\"note\":\"{}\",\"links\":{}}}",
                r.class,
                r.count,
                r.weight,
                r.contribution,
                num(r.bound),
                escape(r.note),
                links_json(&r.links)
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"total\":{},\"data\":{},\"opd\":{},\"bound_opd\":{}}}",
        rows.join(","),
        a.total,
        a.data,
        num(a.opd),
        num(a.bound_opd)
    )
}

/// Renders a report as a `simdize-explain/v1` JSON document.
pub fn render_json(report: &ExplainReport) -> String {
    match report {
        ExplainReport::Stream(r) => stream_json(r),
        ExplainReport::Inapplicable(r) => inapplicable_json(r),
    }
}

fn stream_json(r: &StreamReport) -> String {
    let decisions: Vec<String> = r
        .decisions
        .entries()
        .iter()
        .map(|(id, text)| {
            format!(
                "{{\"id\":\"{id}\",\"phase\":\"{}\",\"text\":\"{}\"}}",
                id.phase.name(),
                escape(text)
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"mode\":\"stream\",\"loop\":{},\
         \"shift_count\":{},\"decisions\":[{}],\"program\":{{\"sections\":{}}},\
         \"accounting\":{},\"stats\":{},\"verified\":{},\"speedup\":{},\
         \"engine\":{{\"matches\":{},\"fallback\":{}}}}}",
        loop_json(&r.info),
        r.shift_count,
        decisions.join(","),
        sections_json(&r.sections),
        accounting_json(&r.accounting),
        stats_json(&r.stats),
        r.verified,
        num(r.speedup),
        r.engine_matches,
        r.engine_fallback
    )
}

fn inapplicable_json(r: &InapplicableReport) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"mode\":\"inapplicable\",\"loop\":{},\
         \"error\":\"{}\",\"explanation\":\"{}\"}}",
        loop_json(&r.info),
        escape(&r.error),
        escape(&r.explanation)
    )
}
