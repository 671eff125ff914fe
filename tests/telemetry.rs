//! Telemetry tier contract tests: concurrent request scopes collect
//! exactly their own records, and the disabled instrumentation path
//! costs a negligible fraction of a kernel run. (The span tree and the
//! `simdize-trace/v1` document of a Figure 1 pass are pinned by
//! `tests/trace.rs` and the traced pass's own unit tests.)

use simdize::{
    parse_program, KernelOptions, MemoryImage, PredecodedKernel, RunInput, Simdizer, VectorShape,
};
use simdize_suite::sample;
use simdize_telemetry as telemetry;

/// Request-scoped collection under contention: 16 threads open their
/// own request scopes behind a barrier, each records a known number of
/// nested spans (exercising the flush-on-stack-empty path) and a
/// same-key tag on every iteration; every finished trace must carry
/// exactly its own records — no loss, no cross-thread leakage — and
/// plain histograms merged across the threads must account for every
/// observation.
#[test]
fn concurrent_request_scopes_collect_exact_counts() {
    use simdize_telemetry::{Histogram, TraceId};
    use std::sync::{Arc, Barrier};
    const THREADS: usize = 16;
    const ITERS: usize = 25;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let scope = telemetry::begin_request(TraceId::next(t as u64 + 1), "stress");
                barrier.wait();
                let mut hist = Histogram::new();
                for i in 0..ITERS {
                    let _outer = telemetry::span("stress.outer");
                    let _inner = telemetry::span("stress.inner");
                    telemetry::tag("iter", i);
                    hist.observe(i as u64 + 1);
                }
                (scope.finish(None), hist)
            })
        })
        .collect();
    let mut merged = Histogram::new();
    let mut ids = std::collections::HashSet::new();
    for handle in handles {
        let (trace, hist) = handle.join().unwrap();
        assert!(ids.insert(trace.trace_id.clone()), "{}", trace.trace_id);
        // Exactly this thread's records: ITERS outer spans each with
        // one inner child, flushed when the outer guard emptied the
        // thread's span stack.
        assert_eq!(trace.events.len(), ITERS * 2, "{:?}", trace.events);
        assert_eq!(trace.spans.len(), 1);
        let outer = &trace.spans[0];
        assert_eq!(
            (outer.name.as_str(), outer.count),
            ("stress.outer", ITERS as u64)
        );
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(
            (inner.name.as_str(), inner.count),
            ("stress.inner", ITERS as u64)
        );
        // The same-key tag kept the last write.
        assert_eq!(trace.attrs["iter"], (ITERS - 1).to_string());
        merged.merge(&hist);
    }
    // The multi-threaded merge lost nothing: every observation from
    // every thread is accounted for, with exact extremes and sum.
    assert_eq!(merged.count(), (THREADS * ITERS) as u64);
    assert_eq!(merged.max(), ITERS as u64);
    assert_eq!(merged.sum(), (THREADS * ITERS * (ITERS + 1) / 2) as u64);
    // This thread never held a scope, so its context is clear.
    assert!(telemetry::current_context().is_none());
}

/// With telemetry disabled (the default), one instrumentation call is
/// a relaxed atomic load and must cost well under 2% of a Figure 1
/// kernel run. Timing-sensitive, so gated: set `TELEMETRY_OVERHEAD=1`
/// to run it (alone, on a quiet machine).
#[test]
fn disabled_instrumentation_overhead_under_two_percent() {
    if std::env::var_os("TELEMETRY_OVERHEAD").is_none() {
        eprintln!("skipped: set TELEMETRY_OVERHEAD=1 to measure instrumentation overhead");
        return;
    }
    assert!(!telemetry::enabled());
    let program = parse_program(&sample("figure1")).unwrap();
    let compiled = Simdizer::new().compile(&program).unwrap();
    let ub = program.trip().known().unwrap_or(256);
    let input = RunInput::with_ub(ub);
    let image = MemoryImage::with_seed(&program, VectorShape::V16, 1);
    let kernel = PredecodedKernel::new(&compiled)
        .unwrap()
        .bake(&image, &input, &KernelOptions::default())
        .unwrap();

    // Median-of-runs kernel wall time, the denominator.
    let mut runs: Vec<u64> = (0..32)
        .map(|_| {
            let mut img = image.clone();
            let t0 = std::time::Instant::now();
            kernel.run(&mut img).unwrap();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    runs.sort_unstable();
    let run_ns = runs[runs.len() / 2] as f64;

    // Per-call cost of a disabled span — the engine adds one per
    // `CompiledKernel::run`, so this *is* the added overhead.
    const CALLS: u32 = 1_000_000;
    let t0 = std::time::Instant::now();
    for _ in 0..CALLS {
        let _g = telemetry::span("overhead.probe");
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / f64::from(CALLS);

    assert!(
        per_call_ns < 0.02 * run_ns,
        "disabled span costs {per_call_ns:.1} ns vs {run_ns:.0} ns kernel run (>= 2%)"
    );
}
