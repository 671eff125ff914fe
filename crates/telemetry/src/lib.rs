//! Runtime telemetry for the simdize stack: a span profiler, a metrics
//! registry, request-scoped tracing, a flight recorder, and the
//! workspace's JSON reader and string escaper.
//!
//! The crate is built around one invariant: **when telemetry is off
//! (the default), instrumentation costs a single relaxed atomic load
//! per call site** — no clock reads, no allocation, no locks. The
//! engine and compiler are instrumented unconditionally; the flag
//! decides whether any of it does work.
//!
//! # Sessions
//!
//! Process-wide collection is scoped by a [`Session`], obtained from
//! [`session`]:
//!
//! ```
//! use simdize_telemetry as telemetry;
//!
//! let mut session = telemetry::session();
//! {
//!     let _phase = telemetry::span("parse");
//!     telemetry::counter("demo.events").inc();
//! }
//! let report = session.finish();
//! assert_eq!(report.spans[0].name, "parse");
//! assert_eq!(report.metrics.counters["demo.events"], 1);
//! ```
//!
//! A session enables the global flag, resets every registered metric
//! and discards stale spans on entry; [`Session::finish`] disables the
//! flag and drains everything collected into a [`TelemetryReport`],
//! renderable as text or as versioned JSON ([`TELEMETRY_SCHEMA`]).
//! Sessions serialize on a global lock — the collector is process-wide
//! state, so concurrent sessions would observe each other.
//!
//! # Request scopes
//!
//! A server handling many concurrent requests cannot use sessions: it
//! needs one span tree *per request*, collected simultaneously. That is
//! what [`begin_request`] provides — a [`RequestScope`] installs a
//! thread-local [`TraceContext`] so spans completed on that thread (and
//! on worker threads that [`adopt_context`]) go to the request's
//! private buffer instead of the global collector, together with
//! string attributes recorded via [`tag`]. Any number of request
//! scopes can be live at once; collection is globally enabled while at
//! least one is. [`RequestScope::finish`] yields a [`RequestTrace`],
//! renderable as `simdize-trace/v1` JSON or a Chrome trace-event
//! timeline.
//!
//! # Layers
//!
//! - [`span`] / [`SpanNode`] — hierarchical wall-clock phase profiling
//!   with per-path call counts and exact p50/p95/max.
//! - [`counter`] / [`gauge`] / [`histogram`] — named metrics for hot
//!   paths (cache hits, worker imbalance), snapshot-sorted, zeroes
//!   omitted; exportable in Prometheus text format via
//!   [`render_prometheus`].
//! - [`trace`] — request-scoped span/attribute collection, trace ids,
//!   and the `simdize-trace/v1` + Chrome trace-event encoders.
//! - [`flight`] — a fixed-capacity lock-striped ring buffer of recent
//!   request summaries for postmortem dumps.
//! - [`json`] — the `simdize-wire/v1` request parser and the one JSON
//!   string escaper every renderer in the workspace calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod json;
mod metrics;
mod prom;
mod report;
mod span;
pub mod trace;

pub use flight::{FlightEntry, FlightRecorder, FLIGHT_SCHEMA};
pub use hist::Histogram;
pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, HistogramHandle,
    HistogramSummary, MetricsSnapshot,
};
pub use prom::render_prometheus;
pub use report::{TelemetryReport, TELEMETRY_SCHEMA};
pub use span::{build_tree, drain_spans, span, SpanGuard, SpanNode, SpanRecord};
pub use trace::{
    adopt_context, begin_request, current_context, tag, ContextGuard, RequestScope, RequestTrace,
    TraceContext, TraceId, TRACE_SCHEMA,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether anything is currently collecting (a [`Session`] or at least
/// one [`RequestScope`]). One relaxed atomic load — this is the
/// disabled path's entire cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Who is collecting. `ENABLED` is the derived fast flag; transitions
/// go through this mutex so a session ending cannot race a request
/// scope beginning into a lost-update on the flag.
struct CollectState {
    session: bool,
    scopes: usize,
}

static STATE: Mutex<CollectState> = Mutex::new(CollectState {
    session: false,
    scopes: 0,
});

fn set_session_collecting(on: bool) {
    let mut st = STATE.lock().unwrap_or_else(|e| e.into_inner());
    st.session = on;
    ENABLED.store(st.session || st.scopes > 0, Ordering::Relaxed);
}

pub(crate) fn scope_begin() {
    let mut st = STATE.lock().unwrap_or_else(|e| e.into_inner());
    st.scopes += 1;
    ENABLED.store(true, Ordering::Relaxed);
}

pub(crate) fn scope_end() {
    let mut st = STATE.lock().unwrap_or_else(|e| e.into_inner());
    st.scopes = st.scopes.saturating_sub(1);
    ENABLED.store(st.session || st.scopes > 0, Ordering::Relaxed);
}

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Serializes unit tests that assert on the *global* enabled flag (or
/// rely on "no session ⇒ disabled") against tests that open request
/// scopes — otherwise a concurrently live scope flips the flag under
/// them.
#[cfg(test)]
pub(crate) fn flag_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// An active collection scope. Dropping it (or calling
/// [`Session::finish`]) disables collection.
pub struct Session {
    guard: Option<MutexGuard<'static, ()>>,
}

/// Starts a telemetry session: resets all metrics, discards stale
/// spans, and enables collection. Blocks until any other session in
/// the process has finished. Request scopes are unaffected (their
/// spans bypass the global collector), but note the metrics registry
/// is process-wide: a concurrent request scope keeps the registry hot
/// while the session resets and snapshots it.
pub fn session() -> Session {
    let guard = session_lock().lock().unwrap_or_else(|e| e.into_inner());
    let _ = span::drain_spans();
    metrics::reset_metrics();
    set_session_collecting(true);
    Session { guard: Some(guard) }
}

impl Session {
    /// Stops collection and returns everything the session recorded.
    /// Calling it twice returns an empty report the second time.
    pub fn finish(&mut self) -> TelemetryReport {
        set_session_collecting(false);
        let report = TelemetryReport {
            spans: span::build_tree(&span::drain_spans()),
            metrics: metrics::metrics_snapshot(),
        };
        self.guard = None;
        report
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.guard.is_some() {
            set_session_collecting(false);
            let _ = span::drain_spans();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_scopes_collection() {
        let _flags = flag_guard();
        assert!(!enabled());
        let mut s = session();
        assert!(enabled());
        {
            let _g = span("lib_test.phase");
        }
        let report = s.finish();
        assert!(!enabled());
        assert!(report.spans.iter().any(|n| n.name == "lib_test.phase"));
        // finish() twice: second report is empty, not a panic.
        let again = s.finish();
        assert!(again.spans.is_empty());
    }

    #[test]
    fn dropped_session_disables_collection() {
        let _flags = flag_guard();
        {
            let _s = session();
            assert!(enabled());
            let _g = span("lib_test.dropped");
        }
        assert!(!enabled());
        // The dropped session's spans must not leak into the next one.
        let mut s = session();
        let report = s.finish();
        assert!(report.spans.iter().all(|n| n.name != "lib_test.dropped"));
    }

    #[test]
    fn scope_and_session_flags_compose() {
        let _flags = flag_guard();
        // A request scope keeps collection on after a session ends,
        // and vice versa — the flag is the OR of both populations.
        let scope = begin_request(TraceId::next(0), "flags");
        assert!(enabled());
        {
            let mut s = session();
            assert!(enabled());
            let _ = s.finish();
            // Session over, scope still live: must remain enabled.
            assert!(enabled());
        }
        let _ = scope.finish(None);
        assert!(!enabled());
    }
}
