//! Runs every workload end to end at a small sizing: counts repeat
//! exactly, a damaged reference fails the run, and the traced run
//! accounts for the op time and leaves a loadable trace.

use simdize_benchmark::bake_cold::BakeCold;
use simdize_benchmark::compile_cold::CompileCold;
use simdize_benchmark::kernel_steady::KernelSteady;
use simdize_benchmark::{run_inproc, serve_hot, trace_path, InProc, Outcome, Sizing};
use simdize_telemetry::json;

const SEED: u64 = 7;

fn small(passes: usize) -> Sizing {
    Sizing {
        setups: 1,
        warmup: 1,
        rounds: 4,
        passes,
    }
}

/// Metrics that are counts, not times: they must not differ between
/// two runs of the same seed.
const COUNTS: [&str; 9] = [
    "opd_gmean",
    "ir.src_bytes_per_op",
    "reorg.shifts_per_stmt",
    "codegen.insts_per_op",
    "engine.fuse.fused_loads_per_op",
    "engine.fuse.eliminated_per_op",
    "engine.cache.evictions_per_op",
    "engine.cache.hit_ratio",
    "server.busy_ratio",
];

fn assert_same_counts(a: &Outcome, b: &Outcome) {
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    // Everything that identifies the run but the machine speed, which
    // is a measurement.
    let same = |o: &Outcome| {
        (
            o.context.sizing,
            o.context.ops_per_round,
            o.context.isa.clone(),
        )
    };
    assert_eq!(same(a), same(b));
    for name in COUNTS {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
}

/// The checks common to every traced run: the layers account for the
/// op, tracing is cheap, and the trace file loads.
fn assert_traced(outcome: &Outcome, workload: &str, spans: &[&str]) {
    assert_eq!(outcome.failed, 0);
    let get = |name: &str| outcome.metric(name).unwrap_or_else(|| panic!("no {name}"));
    let harness = get("harness.share");
    assert!((-0.05..=0.05).contains(&harness), "harness share {harness}");
    let overhead = get("telemetry.trace_overhead");
    assert!(
        overhead > 0.5 && overhead < 1.5,
        "trace overhead {overhead}"
    );
    for span in spans {
        assert!(get(&format!("{span}.p50_us")) > 0.0, "{span}");
        assert!(get(&format!("{span}.share")) > 0.0, "{span}");
    }
    let doc = std::fs::read_to_string(trace_path(workload)).expect("trace file written");
    let doc = json::parse(&doc).expect("trace file is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents");
    for span in spans {
        let named = |e: &json::Json| e.get("name").and_then(|n| n.as_str()) == Some(*span);
        assert!(events.iter().any(named), "no {span} event in the trace");
    }
}

fn run_plain<W: InProc>(passes: usize) -> Outcome {
    run_inproc::<W>(SEED, small(passes), false, |_| ())
}

#[test]
fn compile_cold_counts_repeat_and_a_wrong_fingerprint_fails_the_run() {
    let a = run_plain::<CompileCold>(1);
    assert_eq!(a.failed, 0);
    assert_eq!(a.exit_code(), 0);
    assert_eq!(a.attempted, 512 * 6);
    assert_same_counts(&a, &run_plain::<CompileCold>(1));

    let bad = run_inproc::<CompileCold>(SEED, small(1), false, |w| w.expected[3] ^= 1);
    assert_eq!(bad.failed, 4, "op 3 fails once per timed round");
    assert_eq!(bad.exit_code(), 1);
    assert!(!bad.correct());
}

#[test]
fn compile_cold_trace_accounts_for_the_op() {
    let a = run_inproc::<CompileCold>(SEED, small(1), true, |_| ());
    let spans = [
        "ir.parse",
        "reorg.build",
        "reorg.place",
        "codegen.generate",
        "engine.fingerprint",
    ];
    assert_traced(&a, "compile-cold", &spans);
    assert_same_counts(&a, &run_inproc::<CompileCold>(SEED, small(1), true, |_| ()));
}

#[test]
fn bake_cold_never_hits_and_a_wrong_reference_fails_the_run() {
    let a = run_plain::<BakeCold>(1);
    assert_eq!(a.failed, 0);
    assert_same_counts(&a, &run_plain::<BakeCold>(1));

    let bad = run_inproc::<BakeCold>(SEED, small(1), false, |w| {
        w.entries[5].reference.bytes_mut()[40] ^= 0xFF;
    });
    assert_eq!(bad.failed, 4);
    assert_eq!(bad.exit_code(), 1);

    let t = run_inproc::<BakeCold>(SEED, small(1), true, |_| ());
    let spans = [
        "engine.predecode",
        "engine.bake",
        "engine.lower",
        "engine.cache_insert",
        "engine.run_short",
        "vm.diff",
    ];
    assert_traced(&t, "bake-cold", &spans);
    assert_eq!(t.metric("engine.cache.hit_ratio"), Some(0.0));
    assert!(t.metric("engine.cache.evictions_per_op").unwrap() > 0.8);
    assert_same_counts(&t, &run_inproc::<BakeCold>(SEED, small(1), true, |_| ()));
}

#[test]
fn bake_cold_corpus_has_no_duplicate_cache_key() {
    let (w, failed) = BakeCold::setup(SEED);
    assert_eq!(failed, 0);
    assert_eq!(w.entries.len(), 512);
    let isa = simdize::IsaLevel::detect();
    let keys: Vec<_> = w.entries.iter().map(|e| e.key(isa)).collect();
    for (i, a) in keys.iter().enumerate() {
        assert!(!keys[i + 1..].contains(a), "entry {i} shares its key");
    }
}

#[test]
fn kernel_steady_counts_repeat_and_a_wrong_reference_fails_the_round() {
    let a = run_plain::<KernelSteady>(50);
    assert_eq!(a.failed, 0);
    assert_same_counts(&a, &run_plain::<KernelSteady>(50));

    let bad = run_inproc::<KernelSteady>(SEED, small(50), false, |w| {
        w.kernels[7].reference.bytes_mut()[64] ^= 0xFF;
    });
    assert_eq!(bad.failed, 4 * 50, "every op of every timed round");
    assert_eq!(bad.exit_code(), 1);

    let t = run_inproc::<KernelSteady>(SEED, small(50), true, |_| ());
    assert_traced(&t, "kernel-steady", &["vm.image_restore"]);
    for span in simdize_benchmark::KERNEL_SPANS {
        assert!(t.metric(&format!("{span}.ns_per_elem")).unwrap() > 0.0);
        let frac = t.metric(&format!("{span}.frac_of_copy")).unwrap();
        assert!(frac > 0.0 && frac < 1.5, "{span}: {frac} of copy bandwidth");
    }
    assert!(t.metric("engine.run.fig1.dram_frac_of_copy").unwrap() > 0.0);
}

#[test]
fn serve_hot_requests_are_byte_identical_per_seed() {
    let lines = |seed| -> Vec<String> {
        serve_hot::requests(seed)
            .into_iter()
            .map(|r| r.line)
            .collect()
    };
    assert_eq!(lines(SEED), lines(SEED));
    assert_ne!(lines(SEED), lines(SEED + 1));
    assert_eq!(lines(SEED).len(), 64);
    // The five sample loops are the same for every seed.
    assert_eq!(lines(SEED)[..20], lines(SEED + 1)[..20]);
}

#[test]
fn serve_hot_counts_repeat_and_a_wrong_reply_fails_the_run() {
    let a = serve_hot::run(SEED, small(2), false, |_| ());
    assert_eq!(a.failed, 0);
    assert_eq!(a.attempted, 64 + 2 * 5 * 128);
    assert_same_counts(&a, &serve_hot::run(SEED, small(2), false, |_| ()));

    let bad = serve_hot::run(SEED, small(2), false, |reqs| reqs[9].expected.push(' '));
    // Request 9, twice a round, on both connections, four rounds.
    assert_eq!(bad.failed, 2 * 2 * 4);
    assert_eq!(bad.exit_code(), 1);
}

#[test]
fn serve_hot_trace_splits_the_round_trip() {
    let t = serve_hot::run(SEED, small(2), true, |_| ());
    assert_eq!(t.failed, 0);
    let get = |name: &str| t.metric(name).unwrap();
    let rtt = get("server.rtt.p50_us");
    assert!(rtt > get("server.ping_rtt.p50_us"));
    assert!(get("engine.sweep1.p50_us") > get("engine.run_short.p50_us"));
    assert!(
        get("engine.cache.hit_ratio") >= 0.9,
        "hot set hits the kernel cache"
    );
    assert_eq!(get("server.busy_ratio"), 0.0);
    // The shares are of the round trip and, with the two remainders,
    // add up to all of it.
    let shares: f64 = t
        .metrics
        .iter()
        .filter(|m| m.0.ends_with(".share"))
        .map(|m| m.1)
        .sum();
    assert!((shares - 1.0).abs() < 0.05, "shares sum to {shares}");
    let doc = std::fs::read_to_string(trace_path("serve-hot")).unwrap();
    let doc = json::parse(&doc).expect("trace file is JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    for span in [
        "server.rtt",
        "server.ping_rtt",
        "replay",
        "engine.sweep1",
        "parts",
    ] {
        let named = |e: &json::Json| e.get("name").and_then(|n| n.as_str()) == Some(span);
        assert!(events.iter().any(named), "no {span} event in the trace");
    }
}
