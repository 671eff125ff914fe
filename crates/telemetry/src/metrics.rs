//! The metrics registry: named counters, gauges and histograms behind
//! a near-zero-cost disabled path.
//!
//! Handles are cheap `Arc` clones that instrumented code fetches once
//! (per worker, per phase) and then updates lock-free; every update
//! first checks the global enabled flag with one relaxed atomic load,
//! so a disabled build path costs a predictable branch and nothing
//! else. Names are dotted lowercase (`sweep.kernel_cache.hit`). The
//! registry is a monotonic process-lifetime feed — nothing resets it —
//! and the snapshot reports it sorted, omitting metrics still at zero.

use crate::enabled;
use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` when telemetry is enabled.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 when telemetry is enabled.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v` when telemetry is enabled.
    pub fn set(&self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to a shared [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one sample when telemetry is enabled.
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .observe(v);
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<Mutex<Histogram>>>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static REGISTRY: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(RegistryInner::default()))
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &str) -> Counter {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    Counter(Arc::clone(
        reg.counters.entry(name.to_string()).or_default(),
    ))
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    Gauge(Arc::clone(reg.gauges.entry(name.to_string()).or_default()))
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &str) -> HistogramHandle {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    HistogramHandle(Arc::clone(
        reg.histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Histogram::new()))),
    ))
}

/// The summarized state of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median (log-linear bucketed, ≤ 6.25% relative error).
    pub p50: u64,
    /// 95th percentile (same error bound).
    pub p95: u64,
}

/// A point-in-time copy of every touched metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters with a nonzero value.
    pub counters: BTreeMap<String, u64>,
    /// Gauges with a nonzero value.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms with at least one sample.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// The `== metrics ==` text block: one line per touched metric,
    /// sorted by name within each kind.
    pub fn render_text(&self) -> String {
        let mut out = String::from("== metrics ==\n");
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("(none touched)\n");
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<36} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<36} {v} (gauge)");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<36} n={} min={} p50={} p95={} max={}",
                h.count, h.min, h.p50, h.p95, h.max
            );
        }
        out
    }
}

/// Snapshots every registered metric, omitting untouched (zero /
/// empty) entries.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = MetricsSnapshot::default();
    for (name, c) in &reg.counters {
        let v = c.load(Ordering::Relaxed);
        if v != 0 {
            snap.counters.insert(name.clone(), v);
        }
    }
    for (name, g) in &reg.gauges {
        let v = g.load(Ordering::Relaxed);
        if v != 0 {
            snap.gauges.insert(name.clone(), v);
        }
    }
    for (name, h) in &reg.histograms {
        let h = h.lock().unwrap_or_else(|e| e.into_inner());
        if h.count() != 0 {
            snap.histograms.insert(
                name.clone(),
                HistogramSummary {
                    count: h.count(),
                    min: h.min(),
                    max: h.max(),
                    sum: h.sum(),
                    p50: h.quantile(0.5),
                    p95: h.quantile(0.95),
                },
            );
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{begin_request, flag_guard, TraceId};

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let _flags = flag_guard();
        let _scope = begin_request(TraceId::next(0), "metrics_test");
        counter("test.hits").add(3);
        counter("test.hits").inc();
        gauge("test.workers").set(4);
        let h = histogram("test.jobs");
        for v in [10u64, 20, 30] {
            h.observe(v);
        }
        let snap = metrics_snapshot();
        assert_eq!(snap.counters["test.hits"], 4);
        assert_eq!(snap.gauges["test.workers"], 4);
        let jobs = &snap.histograms["test.jobs"];
        assert_eq!(jobs.count, 3);
        assert_eq!(jobs.min, 10);
        assert_eq!(jobs.max, 30);
        assert_eq!(jobs.sum, 60);
        let text = snap.render_text();
        assert!(text.starts_with("== metrics ==\n"), "{text}");
        assert!(
            text.contains("test.hits                            4\n"),
            "{text}"
        );
        assert!(text.contains("4 (gauge)"), "{text}");
        assert!(text.contains("n=3 min=10"), "{text}");
        assert!(MetricsSnapshot::default()
            .render_text()
            .contains("(none touched)"));
    }

    #[test]
    fn disabled_updates_are_dropped_and_zeroes_omitted() {
        let _flags = flag_guard();
        // No scope live: enabled() is false, nothing records.
        counter("test.ghost").add(100);
        gauge("test.ghost_gauge").set(9);
        histogram("test.ghost_hist").observe(5);
        let snap = metrics_snapshot();
        assert!(!snap.counters.contains_key("test.ghost"));
        assert!(!snap.gauges.contains_key("test.ghost_gauge"));
        assert!(!snap.histograms.contains_key("test.ghost_hist"));
    }
}
