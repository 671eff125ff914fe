//! Machine-readable report rendering: the versioned
//! `simdize-explain/v1` JSON schema.
//!
//! The schema is pinned by golden-file tests: every document has a
//! `"schema"` field, a `"mode"` discriminant
//! (`"stream"` / `"inapplicable"`), and a `"loop"` object; stream
//! reports add `"decisions"`, `"program"`, `"accounting"`, `"stats"`
//! and `"engine"` sections. Floats carry six fractional digits.

use crate::decision::DecisionId;
use crate::report::{ExplainReport, LoopInfo, StreamReport};
use simdize_telemetry::json::{Fixed, Text, Writer};

/// The version tag emitted in every document's `"schema"` field.
pub const SCHEMA: &str = "simdize-explain/v1";

/// Renders a report as a `simdize-explain/v1` JSON document.
pub fn render_json(report: &ExplainReport) -> String {
    let mut w = Writer::default();
    w.obj().field("schema", SCHEMA);
    match report {
        ExplainReport::Stream(r) => write_stream(&mut w, r),
        ExplainReport::Inapplicable(r) => {
            w.field("mode", "inapplicable");
            write_loop(&mut w, &r.info);
            w.field("error", &r.error)
                .field("explanation", &r.explanation);
        }
    }
    w.end_obj();
    w.finish()
}

fn write_stream(w: &mut Writer, r: &StreamReport) {
    w.field("mode", "stream");
    write_loop(w, &r.info);
    w.field("shift_count", r.shift_count).key("decisions").arr();
    for (id, text) in r.decisions.entries() {
        w.obj()
            .field("id", Text(id))
            .field("phase", id.phase.name());
        w.field("text", &text).end_obj();
    }
    w.end_arr().key("program").obj().key("sections").arr();
    for s in &r.sections {
        w.obj()
            .field("name", s.name)
            .field("header", &s.header)
            .key("insts")
            .arr();
        for i in &s.insts {
            w.obj().field("text", &i.text).field("depth", i.depth);
            write_links(w, &i.links).end_obj();
        }
        w.end_arr().end_obj();
    }
    let a = &r.accounting;
    w.end_arr()
        .end_obj()
        .key("accounting")
        .obj()
        .key("rows")
        .arr();
    for row in &a.rows {
        w.obj().field("class", row.class).field("count", row.count);
        w.field("weight", row.weight)
            .field("contribution", row.contribution);
        w.field("bound", Fixed(row.bound, 6))
            .field("note", row.note);
        write_links(w, &row.links).end_obj();
    }
    w.end_arr().field("total", a.total).field("data", a.data);
    w.field("opd", Fixed(a.opd, 6))
        .field("bound_opd", Fixed(a.bound_opd, 6));
    let stats = &r.stats;
    w.end_obj().key("stats").obj().field("loads", stats.loads);
    w.field("stores", stats.stores)
        .field("shifts", stats.shifts);
    w.field("splices", stats.splices)
        .field("splats", stats.splats);
    w.field("ops", stats.ops).field("copies", stats.copies);
    w.field("loop_overhead", stats.loop_overhead);
    w.field("invocation_overhead", stats.invocation_overhead);
    w.field("unaligned_mem", stats.unaligned_mem);
    w.field("scalar_fallback", stats.scalar_fallback)
        .field("total", stats.total());
    w.end_obj()
        .field("verified", r.verified)
        .field("speedup", Fixed(r.speedup, 6));
    w.key("engine").obj().field("matches", r.engine_matches);
    w.field("fallback", r.engine_fallback).end_obj();
}

fn write_loop(w: &mut Writer, info: &LoopInfo) {
    w.key("loop")
        .obj()
        .field("source", &info.source)
        .key("arrays")
        .arr();
    for name in &info.array_names {
        w.val(name);
    }
    w.end_arr().field("policy", info.policy.name());
    w.field("policy_forced", info.policy_forced)
        .field("shape", Text(info.shape));
    w.field("block", info.block)
        .field("seed", info.seed)
        .field("ub", info.ub);
    w.end_obj();
}

fn write_links<'w>(w: &'w mut Writer, links: &[DecisionId]) -> &'w mut Writer {
    w.key("links").arr();
    for &link in links {
        w.val(Text(link));
    }
    w.end_arr()
}
