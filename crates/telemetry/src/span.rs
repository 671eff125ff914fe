//! The span profiler: monotonic-clock scopes with thread-local
//! buffers, drained into a hierarchical phase tree.
//!
//! Instrumented code calls [`span`] at the top of a scope and holds the
//! returned guard; nesting is tracked per thread with a name stack, so
//! a span's identity is its *path* (`"bake/fuse/rewrite"`), not just
//! its name. Completed spans accumulate in a thread-local buffer that
//! is flushed whenever the thread's span stack empties — one mutex
//! acquisition per top-level span, none per nested span. The flush
//! goes to the thread's request context (see [`crate::trace`]) or
//! nowhere: there is no process-wide buffer, so a thread that runs
//! under no request scope opens only inert guards, however many
//! scopes are live elsewhere. When telemetry is disabled (the
//! default), [`span`] is a single relaxed atomic load and returns an
//! inert guard: no clock read, no TLS access, no allocation.
//!
//! Every record also carries a start offset against a process-scoped
//! epoch and a small per-thread id, which is what lets a request trace
//! be exported as a Chrome trace-event timeline (`ts`/`dur` per event,
//! one track per thread) and not just an aggregated tree.

use crate::enabled;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One completed span: its slash-joined path, when it started
/// (process-epoch offset), how long it ran, and which thread ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-joined ancestry, e.g. `"bake/fuse/rewrite"`.
    pub path: String,
    /// Wall-clock nanoseconds the span was open.
    pub ns: u64,
    /// Nanoseconds from the process telemetry epoch to the span's
    /// open. Request scopes rebase this to the scope's own start.
    pub start_ns: u64,
    /// Small dense id of the recording thread (first-use order), for
    /// per-track timeline export. Not an OS thread id.
    pub tid: u64,
}

/// The process-scoped instant all span start offsets are measured
/// from (first telemetry use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process telemetry epoch.
pub(crate) fn epoch_ns_now() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans { stack: Vec::new(), buf: Vec::new(), tid: 0 })
    };
}

struct ThreadSpans {
    stack: Vec<&'static str>,
    buf: Vec<SpanRecord>,
    tid: u64,
}

impl ThreadSpans {
    fn tid(&mut self) -> u64 {
        if self.tid == 0 {
            self.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        self.tid
    }
}

/// An open profiling scope; records its duration on drop.
///
/// Close spans in the order they were opened (ordinary lexical scoping
/// does this automatically) — the path of a span is derived from the
/// thread's stack at the moment it closes.
#[must_use = "a span measures the scope that holds it"]
pub struct SpanGuard {
    start: Option<Instant>,
    start_ns: u64,
}

/// Opens a span named `name` under the thread's current span path.
/// Near-zero cost when telemetry is disabled; inert, too, on a thread
/// with no request context — its record would have nowhere to go.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() || !crate::trace::has_context() {
        return SpanGuard {
            start: None,
            start_ns: 0,
        };
    }
    THREAD.with(|t| t.borrow_mut().stack.push(name));
    let start_ns = epoch_ns_now();
    SpanGuard {
        start: Some(Instant::now()),
        start_ns,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let path = t.stack.join("/");
            t.stack.pop();
            let tid = t.tid();
            t.buf.push(SpanRecord {
                path,
                ns,
                start_ns: self.start_ns,
                tid,
            });
            if t.stack.is_empty() {
                let drained: Vec<SpanRecord> = t.buf.drain(..).collect();
                drop(t);
                crate::trace::sink_spans(drained);
            }
        });
    }
}

/// One node of the aggregated span tree: all completions of one path,
/// with exact order statistics over the recorded durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's name (the last path component).
    pub name: String,
    /// How many times this span completed.
    pub count: u64,
    /// Total nanoseconds across all completions.
    pub total_ns: u64,
    /// Median duration.
    pub p50_ns: u64,
    /// 95th-percentile duration (nearest rank).
    pub p95_ns: u64,
    /// Longest single completion.
    pub max_ns: u64,
    /// Child spans, in first-completion order.
    pub children: Vec<SpanNode>,
}

struct Building {
    name: String,
    samples: Vec<u64>,
    children: Vec<Building>,
}

fn child_of<'a>(nodes: &'a mut Vec<Building>, name: &str) -> &'a mut Building {
    if let Some(idx) = nodes.iter().position(|n| n.name == name) {
        return &mut nodes[idx];
    }
    nodes.push(Building {
        name: name.to_string(),
        samples: Vec::new(),
        children: Vec::new(),
    });
    nodes.last_mut().expect("just pushed")
}

fn finish(mut b: Building) -> SpanNode {
    b.samples.sort_unstable();
    let rank = |q: f64| -> u64 {
        if b.samples.is_empty() {
            return 0;
        }
        let r = ((q * b.samples.len() as f64).ceil() as usize).clamp(1, b.samples.len());
        b.samples[r - 1]
    };
    SpanNode {
        count: b.samples.len() as u64,
        total_ns: b.samples.iter().sum(),
        p50_ns: rank(0.5),
        p95_ns: rank(0.95),
        max_ns: b.samples.last().copied().unwrap_or(0),
        name: b.name,
        children: b.children.into_iter().map(finish).collect(),
    }
}

/// Aggregates drained records into a hierarchical phase tree. Nodes
/// keep first-completion order, so on a single profiling thread the
/// tree reads in pipeline order. A parent that never completed a span
/// of its own (only interior path component) reports zero counts.
pub fn build_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    let mut roots: Vec<Building> = Vec::new();
    for rec in records {
        let mut level = &mut roots;
        let parts: Vec<&str> = rec.path.split('/').collect();
        for (k, part) in parts.iter().enumerate() {
            let next = child_of(level, part);
            if k + 1 == parts.len() {
                next.samples.push(rec.ns);
            }
            level = &mut next.children;
        }
    }
    roots.into_iter().map(finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{adopt_context, begin_request, current_context, flag_guard, TraceId};

    #[test]
    fn nested_spans_build_a_tree() {
        let _flags = flag_guard();
        let scope = begin_request(TraceId::next(0), "span_test");
        {
            let _a = span("outer");
            for _ in 0..3 {
                let _b = span("inner");
                std::hint::black_box(1 + 1);
            }
        }
        {
            let _c = span("second");
        }
        let trace = scope.finish(None);
        let names: Vec<&str> = trace.spans.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["outer", "second"]);
        let outer = &trace.spans[0];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].count, 3);
        assert!(outer.total_ns >= outer.children[0].total_ns);
        assert!(outer.children[0].p50_ns <= outer.children[0].p95_ns);
        assert!(outer.children[0].p95_ns <= outer.children[0].max_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _flags = flag_guard();
        // No scope: telemetry is off, the guard must be inert.
        assert!(span("ghost").start.is_none());
    }

    /// The leak the global collector used to be: a scope live on this
    /// thread switches collection on process-wide, and a thread that
    /// never adopted the context closes spans meanwhile. They must go
    /// nowhere — not into this scope, not into a buffer nobody drains.
    #[test]
    fn spans_on_a_thread_with_no_context_are_inert() {
        let _flags = flag_guard();
        let scope = begin_request(TraceId::next(0), "span_test");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(crate::enabled() && current_context().is_none());
                for _ in 0..10_000 {
                    let outer = span("stray");
                    let inner = span("stray.child");
                    assert!(outer.start.is_none() && inner.start.is_none());
                }
                THREAD.with(|t| {
                    let t = t.borrow();
                    assert!(t.stack.is_empty() && t.buf.is_empty());
                });
            });
        });
        assert!(scope.finish(None).events.is_empty());
    }

    #[test]
    fn cross_thread_spans_merge_by_path() {
        let _flags = flag_guard();
        let scope = begin_request(TraceId::next(0), "span_test");
        let ctx = current_context().expect("scope installs a context");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _adopted = adopt_context(ctx);
                    let _g = span("worker");
                    let _h = span("step");
                });
            }
        });
        let trace = scope.finish(None);
        assert_eq!(trace.spans.len(), 1);
        let worker = &trace.spans[0];
        assert_eq!((worker.name.as_str(), worker.count), ("worker", 4));
        assert_eq!(worker.children.len(), 1);
        assert_eq!(worker.children[0].count, 4);
    }

    #[test]
    fn records_carry_timeline_fields() {
        let _flags = flag_guard();
        let scope = begin_request(TraceId::next(0), "span_test");
        {
            let _outer = span("outer2");
            let _inner = span("inner2");
            std::hint::black_box(0);
        }
        let trace = scope.finish(None);
        let find = |path: &str| trace.events.iter().find(|r| r.path == path).unwrap();
        let (outer, inner) = (find("outer2"), find("outer2/inner2"));
        assert!(outer.tid > 0, "thread id assigned");
        assert_eq!(outer.tid, inner.tid);
        // A nested span starts at or after its parent.
        assert!(outer.start_ns <= inner.start_ns);
    }
}
