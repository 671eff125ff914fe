//! Counterexample shrinking: reduce a raw violation to the minimal
//! `(alignment, trip, seed)` triple that still fails, and render it as
//! a replayable `simdize run` command line.
//!
//! The shrinker is greedy and only ever accepts a candidate after
//! re-compiling the variant and re-running the single failing harness —
//! so every intermediate it keeps is itself a true counterexample, and
//! the final triple is guaranteed to still violate the property.

use crate::domain::{
    params_for, rebuild, reuse_name, Config, Mode, Probe, TripStyle, VerifyOptions,
};
use crate::prover::{
    compile_variant, Point, RawCe, Verdict, HARNESSES, HARNESS_NAMES, H_CACHE, H_CODEGEN, H_NATIVE,
    NH,
};
use crate::report::Counterexample;
use simdize_engine::{program_fingerprint, KernelCache, PredecodedKernel};
use simdize_ir::{LoopProgram, TripCount, VectorShape};
use simdize_vm::{run_scalar, RunInput};
use std::fmt::Write as _;

/// Re-runs the single failing harness at one candidate point. `true`
/// means the property is still violated there.
#[allow(clippy::too_many_arguments)]
fn fails(
    base: &LoopProgram,
    opts: &VerifyOptions,
    shape: VectorShape,
    cfg: Config,
    aligns: &[u32],
    trip: u64,
    style: TripStyle,
    probe: Probe,
    harness: usize,
    steps: &mut u64,
) -> bool {
    *steps += 1;
    let tripc = match style {
        TripStyle::RuntimeUb => TripCount::Runtime,
        TripStyle::KnownTrip => TripCount::Known(trip),
    };
    let Ok((prog, _)) = compile_variant(base, cfg, aligns, tripc, opts.mutation, shape) else {
        return false;
    };
    let src = prog.source().clone();
    let params = params_for(base);
    let img = probe.build_image(&src, shape, aligns);
    let mut oracle = img.clone();
    if run_scalar(&src, &mut oracle, trip, &params).is_err() {
        return false;
    }
    let input = RunInput { ub: trip, params };
    let mut point = Point {
        prog: &prog,
        img: &img,
        oracle: &oracle,
        input: &input,
        interp_stats: None,
        cached: None,
    };
    let (pre, cache);
    if harness == H_CACHE {
        let Ok(predecoded) = PredecodedKernel::new(&prog) else {
            return false;
        };
        (pre, cache) = (predecoded, KernelCache::new(1, 4));
        point.cached = Some((program_fingerprint(&prog), &pre, &cache));
    } else if harness != H_CODEGEN {
        // The engine harnesses: run the interpreter first so the
        // RunStats cross check — one of the properties they prove —
        // still applies during shrinking.
        HARNESSES[H_CODEGEN](&mut point);
    }
    matches!(HARNESSES[harness](&mut point), Verdict::Violation(_))
}

/// Shrinks `raw` and renders the replayable counterexample.
pub(crate) fn shrink_and_replay(
    base: &LoopProgram,
    opts: &VerifyOptions,
    shape: VectorShape,
    raw: RawCe,
) -> Counterexample {
    let cfg = raw.cfg;
    let mut steps = 0u64;
    let mut trip = raw.trip;
    let mut aligns = raw.aligns.clone();
    let mut probe = raw.probe;
    let budget_ok = |steps: u64| steps < 512;

    // 1. Minimal failing trip count.
    for t in 1..trip {
        if !budget_ok(steps) {
            break;
        }
        if fails(
            base,
            opts,
            shape,
            cfg,
            &aligns,
            t,
            raw.style,
            probe,
            raw.harness,
            &mut steps,
        ) {
            trip = t;
            break;
        }
    }
    // 2. Zero out per-stream offsets greedily (smaller alignments are
    // easier to reason about in the replay).
    for s in 0..aligns.len() {
        if aligns[s] == 0 || !budget_ok(steps) {
            continue;
        }
        let mut cand = aligns.clone();
        cand[s] = 0;
        if fails(
            base,
            opts,
            shape,
            cfg,
            &cand,
            trip,
            raw.style,
            probe,
            raw.harness,
            &mut steps,
        ) {
            aligns = cand;
        }
    }
    // 3. Canonicalize the probe to a small seed so the CLI replay is
    // exact (`simdize run --seed`).
    if !matches!(probe, Probe::Seeded(s) if s < 8) && budget_ok(steps) {
        for s in 0..8u64 {
            if fails(
                base,
                opts,
                shape,
                cfg,
                &aligns,
                trip,
                raw.style,
                Probe::Seeded(s),
                raw.harness,
                &mut steps,
            ) {
                probe = Probe::Seeded(s);
                break;
            }
        }
    }
    // Confirmation replay: the minimized triple must itself reproduce
    // the violation (also guarantees every counterexample was
    // re-executed at least once after minimization).
    let shrunk = fails(
        base,
        opts,
        shape,
        cfg,
        &aligns,
        trip,
        raw.style,
        probe,
        raw.harness,
        &mut steps,
    );

    // The replay declares the shrunk alignments, so a runtime-mode
    // counterexample is only exact if the declared compilation fails at
    // the same point.
    let exact_mode = cfg.mode == Mode::Declared
        || fails(
            base,
            opts,
            shape,
            Config {
                mode: Mode::Declared,
                ..cfg
            },
            &aligns,
            trip,
            raw.style,
            probe,
            raw.harness,
            &mut steps,
        );

    let tripc = match raw.style {
        TripStyle::RuntimeUb => TripCount::Runtime,
        TripStyle::KnownTrip => TripCount::Known(trip),
    };
    let src_mode = if exact_mode { Mode::Declared } else { cfg.mode };
    let src = rebuild(base, &aligns, src_mode, tripc)
        .to_source()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");

    // Replay through what the harness actually exercised: the
    // interpreter for codegen, the engine otherwise — on the host's
    // tier for native, forced down to the portable one for the rest.
    let isa_env = match raw.harness {
        H_CODEGEN | H_NATIVE => "",
        _ => "SIMDIZE_ISA=scalar ",
    };
    let mut cmd = format!("echo '{src}' | {isa_env}simdize run -");
    let _ = write!(cmd, " --policy {}", cfg.policy.name());
    let _ = write!(cmd, " --reuse {}", reuse_name(cfg.reuse));
    if !cfg.unroll {
        cmd.push_str(" --no-unroll");
    }
    if raw.style == TripStyle::RuntimeUb {
        let _ = write!(cmd, " --ub {trip}");
    }
    for p in params_for(base) {
        let _ = write!(cmd, " --param {p}");
    }
    if let Probe::Seeded(s) = probe {
        let _ = write!(cmd, " --seed {s}");
    }
    if raw.harness != H_CODEGEN {
        cmd.push_str(" --engine simd");
    }
    if let Some(kind) = opts.mutation {
        let _ = write!(cmd, "  # with --mutate {} injected", kind.name());
    }
    if !matches!(probe, Probe::Seeded(_)) {
        let _ = write!(
            cmd,
            "  # probe {} has no --seed equivalent; rerun simdize verify",
            probe.label()
        );
    }
    if !exact_mode {
        cmd.push_str("  # runtime-alignment compilation; rerun simdize verify to reproduce");
    }

    Counterexample {
        harness: HARNESS_NAMES[raw.harness.min(NH - 1)],
        policy: cfg.policy.name().to_string(),
        reuse: reuse_name(cfg.reuse).to_string(),
        unroll: cfg.unroll,
        mode: cfg.mode.name().to_string(),
        aligns,
        trip,
        trip_style: raw.style.name().to_string(),
        probe: probe.label(),
        detail: raw.detail,
        shrunk,
        shrink_steps: steps,
        replay: cmd,
    }
}
