//! Request-scoped trace collection: per-request span trees, pipeline
//! attributes, deterministic trace ids, and the `simdize-trace/v1` +
//! Chrome trace-event encoders.
//!
//! A server handling concurrent requests needs one collection *per
//! request*, and the CLI is a server of one. [`begin_request`] opens a
//! [`RequestScope`]: it installs a thread-local [`TraceContext`] so
//! every span completed on the thread is delivered to the request's
//! private buffer, bumps the global enabled flag, and records wall
//! time. Pipeline code annotates the trace with [`tag`]
//! (policy, dispatched ISA, cache hits, …) — a no-op on threads with no
//! active context. Worker threads doing work on behalf of the request
//! call [`adopt_context`] with a handle obtained from
//! [`current_context`] on the requesting thread, so a multi-threaded
//! sweep still lands all its spans in the right request.
//!
//! [`RequestScope::finish`] returns the [`RequestTrace`]: the raw
//! timeline events (start offset, duration, thread track), the
//! aggregated span tree, the attribute map and the error, renderable
//! as versioned JSON ([`TRACE_SCHEMA`]) or as the Chrome trace-event
//! format that `chrome://tracing` and Perfetto load directly.

use crate::json::{Fixed, Text, Writer};
use crate::span::{build_tree, SpanNode, SpanRecord};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The versioned schema identifier of a rendered [`RequestTrace`].
pub const TRACE_SCHEMA: &str = "simdize-trace/v1";

/// A request's identity on the wire: the connection that carried it
/// plus a process-scoped sequence number, rendered `c<conn>-<seq>`.
/// Deterministic — no randomness, no clock — so a single-connection
/// exchange against a fresh server always sees the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId {
    /// Id of the connection (or 0 for CLI-local traces).
    pub conn: u64,
    /// Process-scoped request sequence number (from [`TraceId::next`]).
    pub seq: u64,
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// The next trace id for connection `conn`: the process-scoped
    /// request counter ticks once per call.
    pub fn next(conn: u64) -> TraceId {
        TraceId {
            conn,
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}-{}", self.conn, self.seq)
    }
}

struct CtxInner {
    spans: Mutex<Vec<SpanRecord>>,
    attrs: Mutex<BTreeMap<String, String>>,
    start_ns: u64,
}

/// A cloneable handle to one request's collection buffers. Obtain with
/// [`current_context`] on the requesting thread, install on a worker
/// thread with [`adopt_context`].
#[derive(Clone)]
pub struct TraceContext {
    inner: Arc<CtxInner>,
}

thread_local! {
    static CURRENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// Whether the calling thread has an active context — [`crate::span`]
/// only opens a live guard when it does.
pub(crate) fn has_context() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Delivers one flushed span batch to the thread's active context. A
/// batch whose context was un-adopted while its spans were still open
/// is dropped: there is no other collector.
pub(crate) fn sink_spans(records: Vec<SpanRecord>) {
    CURRENT.with(|c| {
        if let Some(ctx) = &*c.borrow() {
            ctx.inner
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(records);
        }
    });
}

/// Records a request attribute (`policy`, `isa`, `cache.hits`, …) on
/// the thread's active trace context. Last write per key wins. A no-op
/// when telemetry is disabled or the thread has no active context, so
/// pipeline code tags unconditionally.
pub fn tag(key: &str, value: impl fmt::Display) {
    if !crate::enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(ctx) = &*c.borrow() {
            ctx.inner
                .attrs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key.to_string(), value.to_string());
        }
    });
}

/// The thread's active trace context, if a request scope is live on
/// it (or was adopted). Clone-cheap handle for handing to workers.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previously-installed context on drop (see
/// [`adopt_context`]).
#[must_use = "dropping the guard immediately un-adopts the context"]
pub struct ContextGuard {
    prev: Option<TraceContext>,
    restore: bool,
}

/// Installs `ctx` as the calling thread's active context until the
/// returned guard drops. Worker threads call this so their spans and
/// tags are credited to the request that spawned them.
pub fn adopt_context(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    ContextGuard {
        prev,
        restore: true,
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.restore {
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// An in-flight request collection, returned by [`begin_request`].
/// Call [`finish`](RequestScope::finish) to obtain the
/// [`RequestTrace`]; dropping the scope without finishing discards the
/// collection but still restores the thread and the global flag.
pub struct RequestScope {
    ctx: TraceContext,
    prev: Option<TraceContext>,
    trace_id: String,
    verb: String,
    started: Instant,
    active: bool,
}

/// Opens a request scope for `id` on the calling thread: enables
/// collection globally (if it was not already), installs a fresh
/// [`TraceContext`] thread-locally, and starts the request clock.
/// Scopes may nest — the inner scope shadows the outer until finished.
pub fn begin_request(id: TraceId, verb: &str) -> RequestScope {
    crate::scope_begin();
    let ctx = TraceContext {
        inner: Arc::new(CtxInner {
            spans: Mutex::new(Vec::new()),
            attrs: Mutex::new(BTreeMap::new()),
            start_ns: crate::span::epoch_ns_now(),
        }),
    };
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx.clone()));
    RequestScope {
        ctx,
        prev,
        trace_id: id.to_string(),
        verb: verb.to_string(),
        started: Instant::now(),
        active: true,
    }
}

impl RequestScope {
    fn deactivate(&mut self) {
        if !self.active {
            return;
        }
        self.active = false;
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
        crate::scope_end();
    }

    /// Ends collection and returns everything the request recorded.
    /// Span start offsets are rebased to the scope's begin, so the
    /// first event of the request starts near 0.
    pub fn finish(mut self, error: Option<String>) -> RequestTrace {
        self.deactivate();
        let wall_us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let base = self.ctx.inner.start_ns;
        let mut events = std::mem::take(
            &mut *self
                .ctx
                .inner
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for ev in &mut events {
            ev.start_ns = ev.start_ns.saturating_sub(base);
        }
        let attrs = std::mem::take(
            &mut *self
                .ctx
                .inner
                .attrs
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        RequestTrace {
            trace_id: std::mem::take(&mut self.trace_id),
            verb: std::mem::take(&mut self.verb),
            wall_us,
            attrs,
            spans: build_tree(&events),
            events,
            error,
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        self.deactivate();
    }
}

/// Everything one request-scoped collection produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The request's wire identity (`c<conn>-<seq>`).
    pub trace_id: String,
    /// The verb that ran (`run`, `sweep`, `trace`, …).
    pub verb: String,
    /// Wall-clock microseconds from scope begin to finish.
    pub wall_us: u64,
    /// Pipeline attributes recorded via [`tag`], sorted by key.
    pub attrs: BTreeMap<String, String>,
    /// The aggregated span tree.
    pub spans: Vec<SpanNode>,
    /// The raw timeline: every completed span with its start offset
    /// (ns from scope begin), duration and thread track.
    pub events: Vec<SpanRecord>,
    /// The error message, when the request failed.
    pub error: Option<String>,
}

impl RequestTrace {
    /// The versioned JSON rendering ([`TRACE_SCHEMA`]).
    pub fn render_json(&self) -> String {
        let mut w = Writer::default();
        w.obj()
            .field("schema", TRACE_SCHEMA)
            .field("trace_id", &self.trace_id);
        w.field("verb", &self.verb).field("wall_us", self.wall_us);
        w.field("error", self.error.as_ref()).key("attrs");
        write_attrs(&mut w, &self.attrs);
        w.key("spans").arr();
        for node in &self.spans {
            write_span(&mut w, node);
        }
        w.end_arr().key("events").arr();
        for ev in &self.events {
            w.obj().field("path", &ev.path).field("tid", ev.tid);
            w.field("start_ns", ev.start_ns)
                .field("dur_ns", ev.ns)
                .end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }

    /// The Chrome trace-event rendering: one complete (`"ph":"X"`)
    /// event per recorded span with microsecond `ts`/`dur` relative to
    /// the request start, one track per recording thread, plus a root
    /// event spanning the whole request that carries the trace id and
    /// attributes. Load the output in `chrome://tracing` or Perfetto.
    pub fn render_chrome(&self) -> String {
        let us = |ns: u64| Fixed(ns as f64 / 1000.0, 3);
        let mut w = Writer::default();
        w.obj()
            .field("displayTimeUnit", "ms")
            .key("traceEvents")
            .arr();
        w.obj()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", 1u64);
        w.key("args")
            .obj()
            .field("name", "simdize")
            .end_obj()
            .end_obj();
        w.obj()
            .field("name", Text(format_args!("request:{}", self.verb)));
        w.field("cat", "request").field("ph", "X").field("ts", 0u64);
        w.field("dur", self.wall_us)
            .field("pid", 1u64)
            .field("tid", 0u64);
        w.key("args").obj().field("trace_id", &self.trace_id);
        for (k, v) in &self.attrs {
            w.field(k, v);
        }
        w.end_obj().end_obj();
        for ev in &self.events {
            let name = ev.path.rsplit('/').next().unwrap_or(&ev.path);
            w.obj()
                .field("name", name)
                .field("cat", &ev.path)
                .field("ph", "X");
            w.field("ts", us(ev.start_ns)).field("dur", us(ev.ns));
            w.field("pid", 1u64).field("tid", ev.tid).end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }

    /// A human-readable rendering: the id/verb/latency header, the
    /// attribute list, and the indented span tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {}  verb={}  wall {:.3} ms{}",
            self.trace_id,
            self.verb,
            self.wall_us as f64 / 1000.0,
            match &self.error {
                Some(e) => format!("  ERROR: {e}"),
                None => String::new(),
            }
        );
        let _ = writeln!(out, "== attributes ==");
        if self.attrs.is_empty() {
            let _ = writeln!(out, "(none tagged)");
        }
        for (k, v) in &self.attrs {
            let _ = writeln!(out, "{k:<24} {v}");
        }
        let _ = writeln!(out, "== spans ==");
        if self.spans.is_empty() {
            let _ = writeln!(out, "(none recorded)");
        }
        for node in &self.spans {
            render_span_text(&mut out, node, 0);
        }
        out
    }
}

fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn render_span_text(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{indent}{:<w$} {:>12}  x{:<6} p50 {:>10}  p95 {:>10}  max {:>10}",
        node.name,
        format_ns(node.total_ns),
        node.count,
        format_ns(node.p50_ns),
        format_ns(node.p95_ns),
        format_ns(node.max_ns),
        w = 24usize.saturating_sub(2 * depth),
    );
    for child in &node.children {
        render_span_text(out, child, depth + 1);
    }
}

fn write_span(w: &mut Writer, node: &SpanNode) {
    w.obj().field("name", &node.name).field("count", node.count);
    w.field("total_ns", node.total_ns)
        .field("p50_ns", node.p50_ns);
    w.field("p95_ns", node.p95_ns).field("max_ns", node.max_ns);
    w.key("children").arr();
    for child in &node.children {
        write_span(w, child);
    }
    w.end_arr().end_obj();
}

/// Writes a string map as one JSON object, keys in map order.
pub(crate) fn write_attrs(w: &mut Writer, attrs: &BTreeMap<String, String>) {
    w.obj();
    for (k, v) in attrs {
        w.field(k, v);
    }
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, span};

    #[test]
    fn trace_ids_are_sequential_and_render_conn() {
        let a = TraceId::next(3);
        let b = TraceId::next(3);
        assert_eq!(a.conn, 3);
        assert!(b.seq > a.seq);
        assert_eq!(a.to_string(), format!("c3-{}", a.seq));
    }

    #[test]
    fn request_scope_collects_spans_tags_and_error() {
        let _flags = crate::flag_guard();
        let scope = begin_request(TraceId::next(1), "run");
        assert!(crate::enabled());
        {
            let _outer = span("req_outer");
            let _inner = span("req_inner");
            tag("policy", "lazy");
            tag("cache.hits", 7);
        }
        let trace = scope.finish(Some("boom".to_string()));
        assert!(!crate::enabled());
        assert_eq!(trace.verb, "run");
        assert_eq!(trace.error.as_deref(), Some("boom"));
        assert_eq!(trace.attrs["policy"], "lazy");
        assert_eq!(trace.attrs["cache.hits"], "7");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "req_outer");
        assert_eq!(trace.spans[0].children[0].name, "req_inner");
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn adopted_context_credits_worker_spans() {
        let _flags = crate::flag_guard();
        let scope = begin_request(TraceId::next(2), "sweep");
        let ctx = current_context().expect("scope installs a context");
        std::thread::scope(|s| {
            for _ in 0..3 {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _adopt = adopt_context(ctx);
                    let _g = span("adopted_job");
                    tag("worker", "yes");
                });
            }
        });
        let trace = scope.finish(None);
        let job = trace
            .spans
            .iter()
            .find(|n| n.name == "adopted_job")
            .expect("worker spans in request tree");
        assert_eq!(job.count, 3);
        assert_eq!(trace.attrs["worker"], "yes");
        // Three distinct worker tracks.
        let tids: std::collections::BTreeSet<u64> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn nested_scopes_shadow_and_restore() {
        let _flags = crate::flag_guard();
        let outer = begin_request(TraceId::next(4), "outer");
        {
            let _a = span("outer_side");
        }
        let inner = begin_request(TraceId::next(4), "inner");
        {
            let _b = span("inner_only");
        }
        let inner = inner.finish(None);
        {
            let _c = span("outer_side");
        }
        let outer = outer.finish(None);
        assert_eq!(inner.spans.len(), 1);
        assert_eq!(inner.spans[0].name, "inner_only");
        assert_eq!(outer.spans.len(), 1);
        assert_eq!(outer.spans[0].name, "outer_side");
        assert_eq!(outer.spans[0].count, 2);
    }

    #[test]
    fn rendered_json_is_versioned_and_carries_attributes() {
        let _flags = crate::flag_guard();
        let scope = begin_request(TraceId::next(5), "trace");
        {
            let _a = span("phase_a");
            tag("opd", "2.250");
        }
        let trace = scope.finish(None);
        let doc = json::parse(&trace.render_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(doc.get("verb").unwrap().as_str(), Some("trace"));
        assert_eq!(
            doc.get("attrs").unwrap().get("opd").unwrap().as_str(),
            Some("2.250")
        );
    }

    #[test]
    fn chrome_rendering_is_loadable_json_with_one_event_per_span() {
        let _flags = crate::flag_guard();
        let scope = begin_request(TraceId::next(6), "run");
        {
            let _a = span("chrome_outer");
            let _b = span("chrome_inner");
        }
        let trace = scope.finish(None);
        let doc = json::parse(&trace.render_chrome()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + request root + 2 spans
        assert_eq!(events.len(), 4);
        let root = events
            .iter()
            .find(|e| e.get("name").and_then(json::Json::as_str) == Some("request:run"))
            .unwrap();
        assert_eq!(
            root.get("dur").and_then(json::Json::as_f64),
            Some(trace.wall_us as f64)
        );
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(json::Json::as_str) == Some("chrome_inner"))
            .unwrap();
        assert_eq!(
            inner.get("cat").and_then(json::Json::as_str),
            Some("chrome_outer/chrome_inner")
        );
        assert_eq!(inner.get("ph").and_then(json::Json::as_str), Some("X"));
    }

    #[test]
    fn dropping_a_scope_discards_cleanly() {
        let _flags = crate::flag_guard();
        {
            let _scope = begin_request(TraceId::next(7), "dropped");
            let _a = span("discarded");
        }
        assert!(!crate::enabled());
        assert!(current_context().is_none());
    }

    #[test]
    fn text_rendering_lists_header_attrs_and_tree() {
        let _flags = crate::flag_guard();
        let scope = begin_request(TraceId::next(8), "run");
        {
            let _a = span("text_phase");
            tag("policy", "zero");
        }
        let trace = scope.finish(None);
        let text = trace.render_text();
        assert!(text.contains("verb=run"));
        assert!(text.contains("policy"));
        assert!(text.contains("text_phase"));
        assert!(text.contains("p95"));
        let empty = begin_request(TraceId::next(8), "run")
            .finish(None)
            .render_text();
        assert!(empty.contains("(none tagged)"));
        assert!(empty.contains("(none recorded)"));
    }
}
