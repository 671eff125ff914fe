//! Runtime telemetry for the simdize stack: a span profiler,
//! request-scoped tracing, a flight recorder, a latency histogram, and
//! the workspace's JSON reader and its one writer.
//!
//! The crate is built around one invariant: **when telemetry is off
//! (the default), instrumentation costs a single relaxed atomic load
//! per call site** — no clock reads, no allocation, no locks. The
//! engine and compiler are instrumented unconditionally; the flag
//! decides whether any of it does work.
//!
//! # Request scopes
//!
//! Collection is scoped by a request: [`begin_request`] opens a
//! [`RequestScope`], which installs a thread-local [`TraceContext`] so
//! spans completed on that thread (and on worker threads that
//! [`adopt_context`]) go to the request's private buffer, together
//! with string attributes recorded via [`tag`]:
//!
//! ```
//! use simdize_telemetry as telemetry;
//!
//! let scope = telemetry::begin_request(telemetry::TraceId::next(0), "demo");
//! {
//!     let _phase = telemetry::span("parse");
//!     telemetry::tag("cache.hits", 15);
//! }
//! let trace = scope.finish(None);
//! assert_eq!(trace.spans[0].name, "parse");
//! assert_eq!(trace.attrs["cache.hits"], "15");
//! ```
//!
//! The scope is the only collector. Any number can be live at once —
//! a server runs one per request — and collection is globally enabled
//! while at least one is. A span opened on a thread with no context is
//! inert even then: there is no process-wide buffer for it to land in.
//! [`RequestScope::finish`] yields a [`RequestTrace`], renderable as
//! text, as `simdize-trace/v1` JSON or as a Chrome trace-event
//! timeline. There is no process-wide counter registry: a count lives
//! once, in the typed stats of whatever keeps it (the engine's
//! `SweepStats` / `FusionStats`, the kernel cache, the server), and a
//! request sees its share as attributes.
//!
//! # Layers
//!
//! - [`span`] / [`SpanNode`] — hierarchical wall-clock phase profiling
//!   with per-path call counts and exact p50/p95/max.
//! - [`trace`] — request-scoped span/attribute collection, trace ids,
//!   and the `simdize-trace/v1` + Chrome trace-event encoders.
//! - [`flight`] — a fixed-capacity lock-striped ring buffer of recent
//!   request summaries for postmortem dumps.
//! - [`hist`] — a log-linear latency [`Histogram`] (the server's
//!   per-verb latency summaries).
//! - [`json`] — the `simdize-wire/v1` request parser and the one JSON
//!   writer every document in the workspace is rendered through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod json;
mod span;
pub mod trace;

pub use flight::{FlightEntry, FlightRecorder, FLIGHT_SCHEMA};
pub use hist::Histogram;
pub use span::{build_tree, span, SpanGuard, SpanNode, SpanRecord};
pub use trace::{
    adopt_context, begin_request, current_context, tag, ContextGuard, RequestScope, RequestTrace,
    TraceContext, TraceId, TRACE_SCHEMA,
};

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many [`RequestScope`]s are live, process-wide. Relaxed
/// throughout: the count publishes no data — a request's buffers reach
/// other threads through the [`TraceContext`] handed to them, never
/// through this flag.
static LIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Whether anything is currently collecting (at least one
/// [`RequestScope`] is live). One relaxed atomic load — this is the
/// disabled path's entire cost.
#[inline]
pub fn enabled() -> bool {
    LIVE_SCOPES.load(Ordering::Relaxed) != 0
}

pub(crate) fn scope_begin() {
    LIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn scope_end() {
    LIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
}

/// Serializes unit tests that assert on the *global* enabled flag (or
/// rely on "no scope ⇒ disabled") against every other test that opens
/// a request scope — otherwise a concurrently live scope flips the
/// flag under them.
#[cfg(test)]
pub(crate) fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_on_while_any_scope_is_live() {
        let _flags = flag_guard();
        assert!(!enabled());
        // Two scopes on two threads: the flag is the OR of both, so
        // the first to finish must not switch the other off.
        let a = begin_request(TraceId::next(0), "flags.a");
        assert!(enabled());
        std::thread::scope(|s| {
            s.spawn(|| {
                let b = begin_request(TraceId::next(0), "flags.b");
                assert!(enabled());
                let _ = b.finish(None);
                assert!(enabled());
            });
        });
        let _ = a.finish(None);
        assert!(!enabled());
    }

    #[test]
    fn dropped_scope_disables_collection() {
        let _flags = flag_guard();
        {
            let _scope = begin_request(TraceId::next(0), "flags.dropped");
            assert!(enabled());
            let _g = span("lib_test.dropped");
        }
        assert!(!enabled());
        assert!(current_context().is_none());
    }
}
