//! The paper reproduction: every experiment of EXPERIMENTS.md as a
//! function returning its rendered table — the §5.4 coverage sweep
//! (E2), the OPD breakdown of Figures 11/12 (E3, E4), the speedup
//! tables (E5, E6), the [`ablations`] (E7–E13) and the optimality
//! [`study`] (E16).
//!
//! Every function here is deterministic (seed [`SEED`]), so the tables
//! are checked outputs: the `repro` bin prints [`experiments`], splices
//! them between per-experiment markers in EXPERIMENTS.md and
//! docs/POLICIES.md (`--update-docs`) and fails on drift
//! (`--check-docs`, run by `scripts/ci.sh`). Every run doubles as a
//! correctness check: a loop that fails to verify panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod docs;
pub mod study;

use simdize_prng::SplitMix64;

use simdize::{
    harmonic_mean, lower_bound_parts, synthesize, DiffConfig, LoopProgram, Report, ScalarType,
    Scheme, Simdizer, TripSpec, VectorShape, WorkloadSpec,
};
use std::fmt::Write as _;

/// Number of loops per benchmark, as in the paper ("each benchmark …
/// consists of 50 distinct loops with identical (l, s, n, b, r)
/// characteristics").
pub const LOOPS_PER_BENCHMARK: usize = 50;

/// The base seed of every checked-in table.
pub const SEED: u64 = 2004;

/// The trip counts of the paper's §5 benchmarks.
pub const PAPER_TRIP: TripSpec = TripSpec::KnownInRange(997, 1000);

/// Builds a deterministic suite of `count` loops from one spec.
pub fn suite(spec: &WorkloadSpec, count: usize, base_seed: u64) -> Vec<LoopProgram> {
    (0..count)
        .map(|k| {
            let mut rng = SplitMix64::seed_from_u64(base_seed.wrapping_add(k as u64 * 7919));
            synthesize(spec, &mut rng)
        })
        .collect()
}

/// Compiles `program` under `driver`, runs it on memory seeded with
/// `seed` and returns the measured report.
///
/// # Panics
///
/// Panics if the loop fails to simdize or diverges from the scalar
/// oracle — every reproduction run doubles as a correctness check.
pub fn evaluate(driver: Simdizer, program: &LoopProgram, seed: u64) -> Report {
    let report = driver
        .evaluate_with(program, &DiffConfig::with_seed(seed))
        .unwrap_or_else(|e| panic!("{driver:?}, data seed {seed}: {e}"));
    assert!(report.verified, "{driver:?}, data seed {seed}: diverged");
    report
}

/// One bar of Figure 11/12: a scheme's OPD decomposed into the §5.3
/// lower bound, the data reorganization overhead actually introduced
/// beyond the bound, and the remaining (compiler/loop) overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// The scheme label (`SEQ`, `ZERO-sp`, `LAZY-pc`, …).
    pub label: String,
    /// Mean lower-bound component (bottom of the bar).
    pub bound: f64,
    /// Mean reorganization overhead over the bound (middle).
    pub reorg_overhead: f64,
    /// Mean remaining overhead (top).
    pub other_overhead: f64,
    /// Harmonic-mean total OPD (the paper's reported aggregate).
    pub total: f64,
}

/// Reproduces the Figure 11 (reassoc off) / Figure 12 (reassoc on)
/// experiment for the given spec: the `SEQ` scalar row, every
/// compile-time scheme, and the runtime-alignment `ZERO-pc`/`ZERO-sp`
/// rows the paper quotes for the no-static-information case.
///
/// # Panics
///
/// Panics if any loop fails to verify — reproduction runs double as
/// correctness checks.
pub fn figure_opd(spec: &WorkloadSpec, reassoc: bool, base_seed: u64) -> Vec<FigureRow> {
    let loops = suite(spec, LOOPS_PER_BENCHMARK, base_seed);
    let mut rows = Vec::new();

    // SEQ: the idealistic scalar count, e.g. 12 OPD for 1 × 6 loads.
    let seq: f64 = loops
        .iter()
        .map(|p| {
            let stmts = p.stmts().len() as f64;
            p.stmts()
                .iter()
                .map(|s| (s.rhs.loads().len() + s.rhs.op_count() + 1) as f64)
                .sum::<f64>()
                / stmts
        })
        .sum::<f64>()
        / loops.len() as f64;
    rows.push(FigureRow {
        label: "SEQ".into(),
        bound: seq,
        reorg_overhead: 0.0,
        other_overhead: 0.0,
        total: seq,
    });

    for scheme in Scheme::all() {
        rows.push(scheme_row(
            &loops,
            scheme.reassoc(reassoc),
            &scheme.label(),
            base_seed,
        ));
    }

    // Runtime-alignment rows: same shapes, alignments hidden from the
    // compiler.
    let rt_spec = spec.clone().runtime_align(true);
    let rt_loops = suite(&rt_spec, LOOPS_PER_BENCHMARK, base_seed ^ 0xACE1);
    for scheme in Scheme::runtime_contenders() {
        rows.push(scheme_row(
            &rt_loops,
            scheme.reassoc(reassoc),
            &format!("rt-{}", scheme.label()),
            base_seed,
        ));
    }
    rows
}

fn scheme_row(loops: &[LoopProgram], scheme: Scheme, label: &str, base_seed: u64) -> FigureRow {
    let mut bounds = Vec::new();
    let mut reorg = Vec::new();
    let mut others = Vec::new();
    let mut totals = Vec::new();
    for (k, program) in loops.iter().enumerate() {
        let driver = Simdizer::new().scheme(scheme);
        let report = evaluate(driver, program, base_seed ^ (k as u64 * 131 + 17));
        let lb = lower_bound_parts(program, VectorShape::V16, scheme.policy);
        let measured_reorg = report.stats.reorg_ops() as f64 / report.data_produced as f64;
        let reorg_overhead = (measured_reorg - lb.shift_opd()).max(0.0);
        bounds.push(lb.opd());
        reorg.push(reorg_overhead);
        others.push((report.opd - lb.opd() - reorg_overhead).max(0.0));
        totals.push(report.opd);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    FigureRow {
        label: label.to_string(),
        bound: mean(&bounds),
        reorg_overhead: mean(&reorg),
        other_overhead: mean(&others),
        total: harmonic_mean(totals.iter().copied()).expect("positive opds"),
    }
}

/// Renders a figure as an aligned text table with proportional bars.
pub fn render_figure(title: &str, rows: &[FigureRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<14} {:>7} {:>8} {:>8} {:>8}  bar (#=bound, +=reorg, .=other)\n",
        "scheme", "bound", "reorg", "other", "opd"
    ));
    let scale = 6.0;
    for r in rows {
        let bar = format!(
            "{}{}{}",
            "#".repeat((r.bound * scale) as usize),
            "+".repeat((r.reorg_overhead * scale) as usize),
            ".".repeat((r.other_overhead * scale) as usize)
        );
        out.push_str(&format!(
            "{:<14} {:>7.3} {:>8.3} {:>8.3} {:>8.3}  {bar}\n",
            r.label, r.bound, r.reorg_overhead, r.other_overhead, r.total
        ));
    }
    out
}

/// One row of Table 1/2: the best-performing scheme with and without
/// compile-time alignment information, with the lower-bound speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// The benchmark name (`S1*L2`, …).
    pub name: String,
    /// Best compile-time scheme label.
    pub best_static: String,
    /// Its aggregate speedup.
    pub static_speedup: f64,
    /// Lower-bound speedup with compile-time alignments.
    pub static_bound: f64,
    /// Best runtime-alignment scheme label.
    pub best_runtime: String,
    /// Its aggregate speedup.
    pub runtime_speedup: f64,
    /// Lower-bound speedup for the runtime case.
    pub runtime_bound: f64,
}

/// Reproduces Table 1 (`elem = i32`) / Table 2 (`elem = i16`): for each
/// loop shape, the best contender's aggregate speedup (total scalar
/// instructions over total simdized instructions, as in the paper's
/// footnote 7) with compile-time and with runtime alignments, plus the
/// lower-bound speedups.
///
/// # Panics
///
/// Panics if any loop fails to verify.
pub fn speedup_table(
    shapes: &[(usize, usize)],
    elem: ScalarType,
    trip: TripSpec,
    base_seed: u64,
) -> Vec<SpeedupRow> {
    shapes
        .iter()
        .map(|&(s, l)| {
            let spec = WorkloadSpec::new(s, l).elem(elem).trip(trip);
            let static_loops = suite(&spec, LOOPS_PER_BENCHMARK, base_seed);
            let (best_static, static_speedup, static_bound) =
                best_scheme(&static_loops, &Scheme::contenders(), base_seed);

            let rt_spec = spec.clone().runtime_align(true);
            let rt_loops = suite(&rt_spec, LOOPS_PER_BENCHMARK, base_seed ^ 0xBEEF);
            let (best_runtime, runtime_speedup, runtime_bound) =
                best_scheme(&rt_loops, &Scheme::runtime_contenders(), base_seed);

            SpeedupRow {
                name: spec.name(),
                best_static,
                static_speedup,
                static_bound,
                best_runtime,
                runtime_speedup,
                runtime_bound,
            }
        })
        .collect()
}

fn best_scheme(loops: &[LoopProgram], schemes: &[Scheme], base_seed: u64) -> (String, f64, f64) {
    let mut best: Option<(String, f64)> = None;
    let mut bound_speedup = 0.0f64;
    for &scheme in schemes {
        let mut scalar_total = 0u64;
        let mut simd_total = 0u64;
        let mut lb_total = 0.0f64;
        for (k, program) in loops.iter().enumerate() {
            let driver = Simdizer::new().scheme(scheme);
            let report = evaluate(driver, program, base_seed ^ (k as u64 * 977 + 3));
            scalar_total += report.scalar_ideal;
            simd_total += report.stats.total();
            lb_total += lower_bound_parts(program, VectorShape::V16, scheme.policy).opd()
                * report.data_produced as f64;
        }
        let speedup = scalar_total as f64 / simd_total as f64;
        bound_speedup = bound_speedup.max(scalar_total as f64 / lb_total);
        if best.as_ref().is_none_or(|(_, s)| speedup > *s) {
            best = Some((scheme.label(), speedup));
        }
    }
    let (label, speedup) = best.expect("at least one scheme");
    (label, speedup, bound_speedup)
}

/// Renders a speedup table in the paper's Table 1/2 layout.
pub fn render_table(title: &str, rows: &[SpeedupRow], peak: u32) -> String {
    let mut out = format!("{title} (peak speedup {peak}x)\n");
    out.push_str(&format!(
        "{:<8} | {:<10} {:>7} {:>7} | {:<10} {:>7} {:>7}\n",
        "loop", "best(ct)", "actual", "LB", "best(rt)", "actual", "LB"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} | {:<10} {:>6.2}x {:>6.2}x | {:<10} {:>6.2}x {:>6.2}x\n",
            r.name,
            r.best_static,
            r.static_speedup,
            r.static_bound,
            r.best_runtime,
            r.runtime_speedup,
            r.runtime_bound
        ));
    }
    out
}

/// The loop shapes of Tables 1 and 2.
pub const TABLE_SHAPES: [(usize, usize); 6] = [(1, 2), (1, 4), (1, 6), (2, 4), (4, 4), (4, 8)];

/// The headline spec of Figures 11/12: one statement, six loads,
/// bias 30%, reuse 30%, integer elements.
pub fn figure_spec() -> WorkloadSpec {
    WorkloadSpec::new(1, 6)
        .bias(0.3)
        .reuse(0.3)
        .trip(PAPER_TRIP)
}

/// E3 (reassoc off) / E4 (reassoc on): Figure 11 / 12 on the headline
/// benchmark.
pub fn figure(reassoc: bool) -> String {
    let title = if reassoc {
        "Figure 12 — operations per datum (S1*L6 i32, bias 30%, reuse 30%, reassoc ON)"
    } else {
        "Figure 11 — operations per datum (S1*L6 i32, bias 30%, reuse 30%, reassoc OFF)"
    };
    render_figure(title, &figure_opd(&figure_spec(), reassoc, SEED))
}

/// E5 / E6: Table 1 (`i32`, peak 4×) / Table 2 (`i16`, peak 8×) at the
/// paper's trip counts.
pub fn table(title: &str, elem: ScalarType, peak: u32) -> String {
    let rows = speedup_table(&TABLE_SHAPES, elem, PAPER_TRIP, SEED);
    render_table(title, &rows, peak)
}

/// E2, the §5.4 coverage sweep: 16 synthesized loops for every
/// `(s, l)` in 1..=4 × 1..=8 with compile-time and with runtime
/// alignments (1024 loops, random bias and reuse, the paper's trip
/// counts), each compiled under every applicable contender and run
/// against the scalar oracle.
///
/// # Panics
///
/// Panics if any loop fails to simdize or verify — that every run
/// passes is the experiment's claim.
pub fn coverage() -> String {
    // (loops, executions) with compile-time and with runtime alignments.
    let mut counts = [(0usize, 0usize); 2];
    let mut seed = 0u64;
    for s in 1..=4usize {
        for l in 1..=8usize {
            for runtime_align in [false, true] {
                for rep in 0..16u64 {
                    seed += 1;
                    let mut meta = SplitMix64::seed_from_u64(seed * 131 + rep);
                    let spec = WorkloadSpec::new(s, l)
                        .bias(meta.range_f64(0.0, 1.0))
                        .reuse(meta.range_f64(0.0, 1.0))
                        .trip(PAPER_TRIP)
                        .runtime_align(runtime_align);
                    let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
                    let schemes = if runtime_align {
                        Scheme::runtime_contenders()
                    } else {
                        Scheme::contenders()
                    };
                    let (loops, runs) = &mut counts[usize::from(runtime_align)];
                    *loops += 1;
                    for scheme in schemes {
                        evaluate(Simdizer::new().scheme(scheme), &program, seed);
                        *runs += 1;
                    }
                }
            }
        }
    }
    let mut out =
        String::from("§5.4 coverage — every execution verified against the scalar oracle\n");
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>11}",
        "alignments", "loops", "executions"
    );
    let [ct, rt] = counts;
    for (label, (loops, runs)) in [
        ("compile-time", ct),
        ("runtime", rt),
        ("total", (ct.0 + rt.0, ct.1 + rt.1)),
    ] {
        let _ = writeln!(out, "{label:<14} {loops:>6} {runs:>11}");
    }
    out
}

/// The documents that embed generated blocks, relative to the
/// repository root.
pub const DOCS: [&str; 2] = ["EXPERIMENTS.md", "docs/POLICIES.md"];

/// One drift-gated experiment: its id (the marker key), the document
/// of [`DOCS`] that embeds it and the function rendering its Markdown
/// block (deterministic; runs the experiment).
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// `E2` … `E16`, as in EXPERIMENTS.md's section titles.
    pub id: &'static str,
    /// Where the block lives.
    pub doc: &'static str,
    /// Renders the block.
    pub render: fn() -> String,
}

fn fenced(table: String) -> String {
    format!("```\n{table}```\n")
}

/// Every generated table, in EXPERIMENTS.md's numbering.
pub fn experiments() -> Vec<Experiment> {
    let [doc, policies] = DOCS;
    let e = |id, render| Experiment { id, doc, render };
    vec![
        e("E2", || fenced(coverage())),
        e("E3", || fenced(figure(false))),
        e("E4", || fenced(figure(true))),
        e("E5", || {
            fenced(table("Table 1 — 4 × i32 per register", ScalarType::I32, 4))
        }),
        e("E6", || {
            fenced(table("Table 2 — 8 × i16 per register", ScalarType::I16, 8))
        }),
        e("E7", || fenced(ablations::policies())),
        e("E8", || fenced(ablations::reuse())),
        e("E9", || fenced(ablations::hardware())),
        e("E10", || fenced(ablations::applicability())),
        e("E11", || fenced(ablations::stride())),
        e("E12", || fenced(ablations::scaling())),
        e("E13", || fenced(ablations::reduction())),
        Experiment {
            id: "E16",
            doc: policies,
            render: study::render,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic() {
        let spec = WorkloadSpec::new(1, 3).trip(TripSpec::Known(200));
        let a = suite(&spec, 3, 9);
        let b = suite(&spec, 3, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_ne!(a[0], a[1]);
    }
}
