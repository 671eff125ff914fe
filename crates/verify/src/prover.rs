//! The shared enumeration driver and the four named harnesses.
//!
//! One *unit* is a `(configuration, alignment-vector)` pair; the driver
//! compiles each unit's program once and sweeps it over every trip
//! count and value probe, running each enabled harness and charging one
//! budget token per harness execution. Units are distributed over
//! scoped worker threads through an atomic cursor (long units don't
//! stall a static partition), and results are merged in unit order so
//! the report is deterministic regardless of thread count.

use crate::domain::{
    alignment_vectors, configs, known_trips, params_for, probes, realizable_offsets, rebuild,
    trip_cap, trips, Config, Probe, TripStyle, VerifyOptions,
};
use crate::mutate::{self, MutationKind};
use crate::report::{HarnessSummary, VerifyReport};
use crate::shrink;
use simdize_analysis::{analyze_program, AnalyzeOptions};
use simdize_codegen::{generate, CodegenOptions, SimdProgram};
use simdize_engine::{
    program_fingerprint, IsaLevel, KernelCache, KernelOptions, PredecodedKernel, SimdKernel,
};
use simdize_ir::{LoopProgram, TripCount, VectorShape};
use simdize_reorg::ReorgGraph;
use simdize_vm::{run_scalar, run_simd, MemoryImage, RunInput, RunStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// The Kani-style property names, indexed by harness id.
pub const HARNESS_NAMES: [&str; 4] = [
    "harness_codegen_equiv",
    "harness_fusion_equiv",
    "harness_cache_coherence",
    "harness_native_equiv",
];

pub(crate) const H_CODEGEN: usize = 0;
pub(crate) const H_FUSION: usize = 1;
pub(crate) const H_CACHE: usize = 2;
pub(crate) const H_NATIVE: usize = 3;

/// Number of harnesses, for sizing per-harness accounting arrays.
pub(crate) const NH: usize = HARNESS_NAMES.len();

/// The harnesses, indexed like [`HARNESS_NAMES`] and run in that order
/// at every point: the interpreter first, so the engine harnesses can
/// hold every tier to its exact [`RunStats`].
pub(crate) const HARNESSES: [fn(&mut Point) -> Verdict; NH] = [
    harness_codegen_equiv,
    // `harness_fusion_equiv`: the trace-fused plan on the portable
    // tier, which every host has.
    |p| harness_engine_equiv(p, IsaLevel::Scalar),
    harness_cache_coherence,
    // `harness_native_equiv`: the same plan on the host's detected
    // tier (v2/AVX2; `SIMDIZE_ISA` can force a lower one).
    |p| harness_engine_equiv(p, IsaLevel::detect()),
];

/// The verdict of one harness execution.
pub(crate) enum Verdict {
    /// The property held.
    Pass,
    /// The property is violated; the string says how.
    Violation(String),
}

/// One un-shrunk counterexample, as found by the sweep.
#[derive(Debug, Clone)]
pub(crate) struct RawCe {
    pub cfg: Config,
    pub aligns: Vec<u32>,
    pub trip: u64,
    pub style: TripStyle,
    pub probe: Probe,
    pub harness: usize,
    pub detail: String,
}

/// One point of the proof domain, as the harnesses see it.
pub(crate) struct Point<'a> {
    pub prog: &'a SimdProgram,
    pub img: &'a MemoryImage,
    pub oracle: &'a MemoryImage,
    pub input: &'a RunInput,
    /// The interpreter's stats, once `harness_codegen_equiv` ran here.
    pub interp_stats: Option<RunStats>,
    /// What `harness_cache_coherence` looks up: the program's
    /// fingerprint and checked form, and the cache. `None` at the points
    /// where that harness does not run.
    pub cached: Option<(u64, &'a PredecodedKernel<'a>, &'a KernelCache)>,
}

/// Why [`compile_variant`] compiled nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Skip {
    /// The configuration does not apply: a compile-time-shift policy
    /// over runtime alignments (§4.4).
    Policy,
    /// The front end refused the variant, for the reason given — a
    /// strided reference or a reduction target needs a compile-time
    /// alignment, or a compile-time trip count.
    Refused(String),
}

/// Compiles the loop variant a unit proves: alignments per `cfg.mode`,
/// the given trip form, the unit's reuse/unroll options, plus the
/// requested mutation.
pub(crate) fn compile_variant(
    base: &LoopProgram,
    cfg: Config,
    aligns: &[u32],
    trip: TripCount,
    mutation: Option<MutationKind>,
    shape: VectorShape,
) -> Result<(SimdProgram, bool), Skip> {
    let src = rebuild(base, aligns, cfg.mode, trip);
    let refused = |e: &dyn std::fmt::Display| Skip::Refused(e.to_string());
    let graph = ReorgGraph::build(&src, shape).map_err(|e| refused(&e))?;
    let graph = graph.with_policy(cfg.policy).map_err(|_| Skip::Policy)?;
    let opts = CodegenOptions::default()
        .reuse(cfg.reuse)
        .unroll(cfg.unroll);
    let mut prog = generate(&graph, &opts).map_err(|e| refused(&e))?;
    let mutated = match mutation {
        Some(kind) => mutate::apply(&mut prog, kind),
        None => false,
    };
    Ok((prog, mutated))
}

/// `harness_codegen_equiv`: the generated program, run by the VIR
/// interpreter, leaves memory byte-identical to the scalar oracle —
/// including the guard padding around every array.
fn harness_codegen_equiv(p: &mut Point) -> Verdict {
    let mut mem = p.img.clone();
    match run_simd(p.prog, &mut mem, p.input) {
        Ok(stats) => {
            p.interp_stats = Some(stats);
            match mem.first_difference(p.oracle) {
                None => Verdict::Pass,
                Some(off) => Verdict::Violation(format!(
                    "interpreter output differs from the scalar oracle at byte {off}"
                )),
            }
        }
        Err(e) => Verdict::Violation(format!("interpreter fault: {e}")),
    }
}

/// `harness_fusion_equiv` and `harness_native_equiv`: the baked,
/// trace-fused plan, run by the engine on the tier `isa`, produces the
/// oracle's bytes and (when the interpreter also ran) the
/// interpreter's exact [`RunStats`]. Stats are fixed before fusion and
/// lowering, so a stats divergence is an accounting bug and a byte
/// divergence a fusion, lowering or — off the portable tier —
/// intrinsics one.
fn harness_engine_equiv(p: &mut Point, isa: IsaLevel) -> Verdict {
    let mut mem = p.img.clone();
    let baked = PredecodedKernel::new(p.prog)
        .and_then(|pre| pre.bake(&mem, p.input, &KernelOptions::new()));
    let kernel = match baked {
        Ok(k) => SimdKernel::lower(&k, isa),
        Err(e) => return Verdict::Violation(format!("bake fault: {e}")),
    };
    let isa = kernel.isa();
    match kernel.run(&mut mem) {
        Ok(stats) => {
            if let Some(off) = mem.first_difference(p.oracle) {
                return Verdict::Violation(format!(
                    "engine ({isa} tier) output differs from the scalar oracle at byte {off}"
                ));
            }
            match p.interp_stats {
                Some(is) if is != stats => Verdict::Violation(format!(
                    "engine ({isa} tier) RunStats diverge from the interpreter ({} vs {} total ops)",
                    stats.total(),
                    is.total()
                )),
                _ => Verdict::Pass,
            }
        }
        Err(e) => Verdict::Violation(format!("engine ({isa} tier) fault: {e}")),
    }
}

/// `harness_cache_coherence`: for one `(program, input, layout, tier)`
/// key, a [`KernelCache`] hit runs byte-identically to a fresh bake,
/// and the second lookup of the key actually hits.
fn harness_cache_coherence(p: &mut Point) -> Verdict {
    let (fingerprint, pre, cache) = p.cached.expect("only run where the point carries a cache");
    let (img, input) = (p.img, p.input);
    let kopts = KernelOptions::new();
    let lookup = || cache.get_or_bake_simd(fingerprint, pre, img, input, &kopts, IsaLevel::Scalar);
    let (k1, _) = match lookup() {
        Ok(r) => r,
        Err(e) => return Verdict::Violation(format!("cache bake fault: {e}")),
    };
    let mut m1 = img.clone();
    let s1 = match k1.run(&mut m1) {
        Ok(s) => s,
        Err(e) => return Verdict::Violation(format!("cached kernel fault: {e}")),
    };
    let (k2, l2) = match lookup() {
        Ok(r) => r,
        Err(e) => return Verdict::Violation(format!("cache bake fault: {e}")),
    };
    if !l2.hit {
        return Verdict::Violation(
            "second lookup of an identical (program, input, layout) key missed the cache"
                .to_string(),
        );
    }
    let mut m2 = img.clone();
    let s2 = match k2.run(&mut m2) {
        Ok(s) => s,
        Err(e) => return Verdict::Violation(format!("cache-hit kernel fault: {e}")),
    };
    let fresh = match pre.bake(img, input, &kopts) {
        Ok(k) => k,
        Err(e) => return Verdict::Violation(format!("fresh bake fault: {e}")),
    };
    let mut m3 = img.clone();
    let s3 = match fresh.run(&mut m3) {
        Ok(s) => s,
        Err(e) => return Verdict::Violation(format!("fresh kernel fault: {e}")),
    };
    if let Some(off) = m2.first_difference(&m3) {
        return Verdict::Violation(format!("cache hit differs from a fresh bake at byte {off}"));
    }
    if m1.first_difference(&m2).is_some() || s1 != s2 || s2 != s3 {
        return Verdict::Violation(
            "cached and fresh kernels disagree on outputs or stats".to_string(),
        );
    }
    if let Some(off) = m3.first_difference(p.oracle) {
        return Verdict::Violation(format!(
            "fresh bake differs from the scalar oracle at byte {off}"
        ));
    }
    Verdict::Pass
}

/// Per-unit sweep results, merged into the report in unit order.
#[derive(Default)]
struct UnitOutcome {
    compiled: bool,
    /// Why the front end refused a variant of the unit, if it did.
    refused: Option<String>,
    mutated: bool,
    points: u64,
    points_skipped: u64,
    harness_runs: [u64; NH],
    harness_viol: [u64; NH],
    lint_deny: usize,
    violations: Vec<RawCe>,
    exhausted: bool,
}

/// One compiled variant of a unit, swept over its trips and probes.
struct Variant<'a> {
    prog: &'a SimdProgram,
    style: TripStyle,
    /// The program's fingerprint and checked form, where this variant
    /// carries the unit's cache-coherence proof.
    pre: Option<(u64, PredecodedKernel<'a>)>,
}

impl<'a> Variant<'a> {
    fn new(prog: &'a SimdProgram, style: TripStyle, proves_cache: bool) -> Variant<'a> {
        let pre = proves_cache
            .then(|| PredecodedKernel::new(prog).ok())
            .flatten();
        Variant {
            prog,
            style,
            pre: pre.map(|pre| (program_fingerprint(prog), pre)),
        }
    }
}

/// A unit's sweep state: what it proves, the budget it draws on, and
/// what it has found so far.
struct Unit<'a> {
    cfg: Config,
    aligns: &'a [u32],
    shape: VectorShape,
    params: Vec<i64>,
    budget: u64,
    spent: &'a AtomicU64,
    cache: KernelCache,
    /// One violation per harness per unit is recorded; the rest of the
    /// unit's sweep for that harness is redundant evidence.
    found: [bool; NH],
    out: UnitOutcome,
}

impl Unit<'_> {
    /// Runs every harness still open at the points `(trip, probe)` of
    /// one variant. `false` once the budget is spent.
    fn sweep(&mut self, v: &Variant, trip: u64, probes: Vec<Probe>) -> bool {
        let src = v.prog.source();
        let input = RunInput {
            ub: trip,
            params: self.params.clone(),
        };
        for (pi, probe) in probes.into_iter().enumerate() {
            let img = probe.build_image(src, self.shape, self.aligns);
            let mut oracle = img.clone();
            if run_scalar(src, &mut oracle, trip, &self.params).is_err() {
                self.out.points_skipped += 1;
                continue;
            }
            self.out.points += 1;
            let mut point = Point {
                prog: v.prog,
                img: &img,
                oracle: &oracle,
                input: &input,
                interp_stats: None,
                // The cache harness runs once per trip: a kernel does
                // not depend on the image's contents.
                cached: (v.pre.as_ref().filter(|_| pi == 0))
                    .map(|(fingerprint, pre)| (*fingerprint, pre, &self.cache)),
            };
            for (h, harness) in HARNESSES.iter().enumerate() {
                if self.found[h] || (h == H_CACHE && point.cached.is_none()) {
                    continue;
                }
                if self.spent.fetch_add(1, Ordering::Relaxed) >= self.budget {
                    self.out.exhausted = true;
                    return false;
                }
                self.out.harness_runs[h] += 1;
                if let Verdict::Violation(detail) = harness(&mut point) {
                    self.found[h] = true;
                    self.out.harness_viol[h] += 1;
                    self.out.violations.push(RawCe {
                        cfg: self.cfg,
                        aligns: self.aligns.to_vec(),
                        trip,
                        style: v.style,
                        probe,
                        harness: h,
                        detail,
                    });
                }
            }
        }
        true
    }
}

#[allow(clippy::too_many_arguments)]
fn run_unit(
    base: &LoopProgram,
    cfg: Config,
    aligns: &[u32],
    opts: &VerifyOptions,
    shape: VectorShape,
    block: u64,
    trips_ub: &[u64],
    trips_known: &[u64],
    spent: &AtomicU64,
) -> UnitOutcome {
    let mut unit = Unit {
        cfg,
        aligns,
        shape,
        params: params_for(base),
        budget: opts.budget,
        spent,
        cache: KernelCache::new(1, 4),
        found: [false; NH],
        out: UnitOutcome::default(),
    };
    let mut lint_done = false;
    let lint_deny_count = |prog: &SimdProgram| {
        let lopts = AnalyzeOptions::new().memnorm(true).reuse(cfg.reuse);
        analyze_program(prog, &lopts).deny_count()
    };

    // Runtime-`ub` pass (eqs 13/15). Reductions and strided loops have
    // no runtime-trip compilation (`trips_ub` arrives empty for a
    // reduction, a strided loop does not compile), and the known-trip
    // pass below carries the whole proof.
    let mut cache_proved_here = false;
    let compile = |unit: &mut Unit, trip| match compile_variant(
        base,
        cfg,
        aligns,
        trip,
        opts.mutation,
        shape,
    ) {
        Ok(variant) => Some(variant),
        Err(Skip::Refused(why)) => {
            unit.out.refused.get_or_insert(why);
            None
        }
        Err(Skip::Policy) => None,
    };
    let runtime_variant = if trips_ub.is_empty() {
        None
    } else {
        compile(&mut unit, TripCount::Runtime)
    };
    if let Some((prog, mutated)) = runtime_variant {
        unit.out.compiled = true;
        unit.out.mutated = mutated;
        unit.out.lint_deny = lint_deny_count(&prog);
        lint_done = true;
        let variant = Variant::new(&prog, TripStyle::RuntimeUb, true);
        cache_proved_here = variant.pre.is_some();
        for &trip in trips_ub {
            let probes = probes(trip, block, opts.trip_bound, opts.quick, trip);
            if !unit.sweep(&variant, trip, probes) {
                break;
            }
        }
    }

    // Compile-time-known trip counts take the other bound formulas
    // (eqs 12/14): a small subset, each its own compilation. For
    // reduction and strided loops this pass is the entire proof, so it
    // also takes over the cache-coherence harness.
    for &trip in trips_known {
        let f = &unit.found;
        let all_found =
            f[H_CODEGEN] && f[H_FUSION] && f[H_NATIVE] && (cache_proved_here || f[H_CACHE]);
        if unit.out.exhausted || all_found {
            break;
        }
        let known = TripCount::Known(trip);
        let Some((kprog, kmutated)) = compile(&mut unit, known) else {
            continue;
        };
        unit.out.compiled = true;
        unit.out.mutated |= kmutated;
        if !lint_done {
            unit.out.lint_deny = lint_deny_count(&kprog);
            lint_done = true;
        }
        let variant = Variant::new(&kprog, TripStyle::KnownTrip, !cache_proved_here);
        unit.sweep(&variant, trip, vec![Probe::Seeded(trip), Probe::LaneRamp]);
    }
    unit.out
}

/// Proves the loop over the full bounded domain and returns the
/// verdict. This is the entry point behind `simdize verify`.
pub fn prove_loop(name: &str, base: &LoopProgram, opts: &VerifyOptions) -> VerifyReport {
    let start = Instant::now();
    let shape = VectorShape::V16;
    let d = base.elem().size() as u32;
    let block = (shape.bytes() / d) as u64;
    let cands = realizable_offsets(shape, d);
    let narrays = base.arrays().len();
    let (vectors, capped) = alignment_vectors(narrays, &cands, opts.quick);
    let reduction = base.stmts().iter().any(|s| s.is_reduction());
    let cfgs = configs(opts);
    // Reductions only compile with a known trip count; the runtime-`ub`
    // pass is empty and the known-trip pass carries the whole proof.
    let trips_ub = if reduction {
        Vec::new()
    } else {
        trips(base, opts.trip_bound, block, opts.quick)
    };
    let trips_known = known_trips(base, opts.trip_bound, block, opts.quick);

    let units: Vec<(Config, &Vec<u32>)> = cfgs
        .iter()
        .flat_map(|c| vectors.iter().map(move |v| (*c, v)))
        .collect();

    let spent = AtomicU64::new(0);
    let cursor = AtomicUsize::new(0);
    let threads = opts.threads.clamp(1, units.len().max(1));
    let mut outcomes: Vec<(usize, UnitOutcome)> = Vec::with_capacity(units.len());
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let units = &units;
            let spent = &spent;
            let cursor = &cursor;
            let trips_ub = &trips_ub;
            let trips_known = &trips_known;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= units.len() {
                        return mine;
                    }
                    let (cfg, aligns) = units[idx];
                    mine.push((
                        idx,
                        run_unit(
                            base,
                            cfg,
                            aligns,
                            opts,
                            shape,
                            block,
                            trips_ub,
                            trips_known,
                            spent,
                        ),
                    ));
                }
            }));
        }
        for h in handles {
            outcomes.extend(h.join().expect("verify worker panicked"));
        }
    });
    outcomes.sort_by_key(|(idx, _)| *idx);

    let mut report = VerifyReport {
        loop_name: name.to_string(),
        proved: false,
        quick: opts.quick,
        trip_bound: opts.trip_bound,
        trip_cap: trip_cap(base).min(opts.trip_bound),
        align_candidates: shape.bytes(),
        align_realizable: cands.len() as u32,
        streams: narrays as u32,
        align_vectors: vectors.len() as u64,
        align_capped: capped,
        configs_enumerated: cfgs.len() as u64,
        units_compiled: 0,
        units_skipped: 0,
        units_refused: 0,
        refusals: Vec::new(),
        units_mutated: 0,
        points: 0,
        points_skipped: 0,
        runs: 0,
        budget: opts.budget,
        budget_exhausted: false,
        harnesses: HARNESS_NAMES
            .iter()
            .map(|&name| HarnessSummary {
                name,
                runs: 0,
                violations: 0,
            })
            .collect(),
        violations_total: 0,
        violations: Vec::new(),
        inconsistencies: Vec::new(),
        inconsistencies_total: 0,
        wall_ms: 0,
    };

    let mut raw_ces: Vec<RawCe> = Vec::new();
    for (_, u) in &outcomes {
        match (u.compiled, &u.refused) {
            (true, _) => report.units_compiled += 1,
            (false, None) => report.units_skipped += 1,
            (false, Some(why)) => {
                report.units_refused += 1;
                match report.refusals.iter_mut().find(|(reason, _)| reason == why) {
                    Some((_, units)) => *units += 1,
                    None => report.refusals.push((why.clone(), 1)),
                }
            }
        }
        if u.mutated {
            report.units_mutated += 1;
        }
        report.points += u.points;
        report.points_skipped += u.points_skipped;
        report.budget_exhausted |= u.exhausted;
        for h in 0..NH {
            report.harnesses[h].runs += u.harness_runs[h];
            report.harnesses[h].violations += u.harness_viol[h];
            report.runs += u.harness_runs[h];
        }
        report.violations_total += u.violations.len() as u64;

        // Lint cross-check: the abstract interpreter's deny verdict and
        // the prover's concrete verdict must agree on program-semantics
        // properties (cache coherence is invisible to lints).
        if u.compiled {
            let sem_viol = u.harness_viol[H_CODEGEN] + u.harness_viol[H_FUSION] > 0;
            let lint_deny = u.lint_deny > 0;
            if sem_viol != lint_deny {
                report.inconsistencies_total += 1;
                if report.inconsistencies.len() < 8 {
                    let cfg_desc = u
                        .violations
                        .first()
                        .map(|c| c.cfg.describe())
                        .unwrap_or_else(|| "passing unit".to_string());
                    report.inconsistencies.push(if lint_deny {
                        format!(
                            "{} deny-level lint finding(s) on a program the prover passed ({cfg_desc})",
                            u.lint_deny
                        )
                    } else {
                        format!(
                            "prover violation on a lint-clean program ({cfg_desc})"
                        )
                    });
                }
            }
        }
        raw_ces.extend(u.violations.iter().cloned());
    }

    // Shrink the first counterexample of each harness to its minimal
    // (alignment, trip, seed) triple with a replayable command line.
    for h in 0..NH {
        if let Some(raw) = raw_ces.iter().find(|c| c.harness == h) {
            report
                .violations
                .push(shrink::shrink_and_replay(base, opts, shape, raw.clone()));
        }
    }

    report.proved =
        report.violations_total == 0 && !report.budget_exhausted && report.units_compiled > 0;
    report.wall_ms = start.elapsed().as_millis() as u64;
    report
}
