//! The ablations and §7-extension experiments E7–E13, each a function
//! returning its rendered table. EXPERIMENTS.md holds the discussion;
//! the numbers live only here.

use crate::{evaluate, figure_spec, suite, LOOPS_PER_BENCHMARK, SEED};
use simdize::{
    dot_product, harmonic_mean, max_live_vregs, reassociate, simdizable_aligned_only,
    simdizable_by_peeling, BinOp, Expr, LoopBuilder, LoopProgram, Policy, ReorgGraph, Report,
    ReuseMode, ScalarType, Simdizer, Target, TripSpec, VectorShape, WorkloadSpec, MACHINE_VREGS,
};
use std::fmt::Write as _;

/// Evaluates every loop of `loops` under `driver`, loop `k` on data
/// seed `k`.
fn evaluate_all(driver: Simdizer, loops: &[LoopProgram]) -> Vec<Report> {
    loops
        .iter()
        .enumerate()
        .map(|(k, p)| evaluate(driver, p, k as u64))
        .collect()
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// E7: shift counts per placement policy as the alignment bias sweeps
/// from 0 (uniform random) to 1 (all references share one alignment) —
/// the design space behind Figure 11's middle components.
pub fn policies() -> String {
    let mut out =
        String::from("E7 — mean shifts per statement, S1*L6, by policy and alignment bias\n");
    let _ = writeln!(
        out,
        "{:<6} {:>7} {:>7} {:>7} {:>9} {:>9} {:>13}",
        "bias", "zero", "eager", "lazy", "dominant", "optimal", "lazy+reassoc"
    );
    for bias in [0.0, 0.3, 0.6, 1.0] {
        let spec = WorkloadSpec::new(1, 6)
            .bias(bias)
            .trip(TripSpec::Known(500));
        let loops = suite(&spec, LOOPS_PER_BENCHMARK, 77);
        let shifts = |policy: Policy, reassoc: bool| {
            mean(loops.iter().map(|p| {
                let p = if reassoc {
                    reassociate(p, VectorShape::V16)
                } else {
                    p.clone()
                };
                ReorgGraph::build(&p, VectorShape::V16)
                    .expect("synthesized loops build")
                    .with_policy(policy)
                    .expect("compile-time alignments place under every policy")
                    .shift_count() as f64
            }))
        };
        let _ = writeln!(
            out,
            "{:<6.1} {:>7.2} {:>7.2} {:>7.2} {:>9.2} {:>9.2} {:>13.2}",
            bias,
            shifts(Policy::Zero, false),
            shifts(Policy::Eager, false),
            shifts(Policy::Lazy, false),
            shifts(Policy::Dominant, false),
            shifts(Policy::Optimal, false),
            shifts(Policy::Lazy, true),
        );
    }
    out
}

/// E8: the cost of not exploiting reuse — dynamic loads and total OPD
/// for none / predictive commoning / software pipelining, with and
/// without the copy-removing unroll (§4.5's closing remark), on the
/// first loop of the headline suite under dominant-shift.
pub fn reuse() -> String {
    let program = suite(&figure_spec(), 1, SEED).remove(0);
    let mut out = String::from("E8 — reuse ablation on one S1*L6 loop (dominant-shift policy)\n");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>8} {:>8} {:>8} {:>9}",
        "scheme", "loads/it", "copies", "opd", "speedup", "max live"
    );
    for (label, reuse, unroll) in [
        ("naive", ReuseMode::None, true),
        ("pc, no unroll", ReuseMode::PredictiveCommoning, false),
        ("pc + unroll", ReuseMode::PredictiveCommoning, true),
        ("sp, no unroll", ReuseMode::SoftwarePipeline, false),
        ("sp + unroll", ReuseMode::SoftwarePipeline, true),
    ] {
        let driver = Simdizer::new()
            .policy(Policy::Dominant)
            .reuse(reuse)
            .unroll(unroll);
        let report = evaluate(driver, &program, 8);
        let compiled = driver.compile(&program).expect("evaluated above");
        let iters = report.stats.steady_iterations.max(1);
        let _ = writeln!(
            out,
            "{:<22} {:>9.2} {:>8} {:>8.3} {:>7.2}x {:>6}/{}",
            label,
            report.stats.loads as f64 / iters as f64,
            report.stats.copies,
            report.opd,
            report.speedup,
            max_live_vregs(&compiled),
            MACHINE_VREGS
        );
    }
    out
}

/// E9: software alignment handling (aligned-only machine, the paper's
/// scheme) versus hardware misaligned memory (SSE2-style `movdqu` at 2×
/// per access), then the hardware penalty swept analytically: at what
/// per-access cost does the misaligned-memory machine overtake?
pub fn hardware() -> String {
    let winner = |paper: f64, movdqu: f64| if paper < movdqu { "paper" } else { "movdqu" };
    let mut out = String::from(
        "E9 — aligned-machine simdization vs hardware misaligned memory\n\
         (S1*L6 i32, 50 loops per point; opd, lower is better; movdqu cost 2)\n",
    );
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>10}",
        "alignment bias", "paper/OPD", "movdqu/OPD", "winner"
    );
    let run = |bias: f64, target| {
        let spec = WorkloadSpec::new(1, 6)
            .bias(bias)
            .trip(TripSpec::Known(1000));
        let loops = suite(&spec, LOOPS_PER_BENCHMARK, 42);
        evaluate_all(Simdizer::new().target(target), &loops)
    };
    let opd = |reports: &[Report]| mean(reports.iter().map(|r| r.opd));
    for bias in [0.0, 0.3, 0.6, 1.0] {
        let aligned = opd(&run(bias, Target::Aligned));
        let unaligned = opd(&run(bias, Target::Unaligned));
        let _ = writeln!(
            out,
            "{:<22} {:>12.3} {:>12.3} {:>10}",
            format!("b = {bias:.1}"),
            aligned,
            unaligned,
            winner(aligned, unaligned)
        );
    }

    out.push_str("\ncrossover vs. hardware penalty (bias 0.0, S1*L6):\n");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>10}",
        "penalty", "movdqu/OPD", "winner"
    );
    let aligned = opd(&run(0.0, Target::Aligned));
    let unaligned = run(0.0, Target::Unaligned);
    let per_datum = |f: fn(&Report) -> u64| {
        mean(
            unaligned
                .iter()
                .map(|u| f(u) as f64 / u.data_produced as f64),
        )
    };
    let mem = per_datum(|u| u.stats.unaligned_mem);
    let base = per_datum(|u| u.stats.total() - 2 * u.stats.unaligned_mem);
    for penalty in [1.0f64, 1.25, 1.5, 2.0, 3.0] {
        let opd = base + penalty * mem;
        let _ = writeln!(
            out,
            "{:<10} {:>12.3} {:>10}",
            format!("{penalty:.2}x"),
            opd,
            winner(aligned, opd)
        );
    }
    out
}

/// E10: how much of the loop space each strategy can simdize at all —
/// the paper's motivating argument. Effective speedup counts
/// non-simdizable loops at 1.0× (they run the scalar loop); on the
/// loops a baseline does cover it produces the same shift-free code our
/// lazy policy does, so it is credited with our speedup there.
pub fn applicability() -> String {
    let mut out = String::from(
        "E10 — applicability & effective speedup by strategy (S2*L4 i32, 50 loops/point)\n",
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>14} {:>14} {:>10} | {:>10} {:>10} {:>10}",
        "bias", "aligned-only%", "peeling%", "paper%", "eff(al)", "eff(peel)", "eff(paper)"
    );
    for bias in [0.0, 0.3, 0.6, 0.9, 1.0] {
        let spec = WorkloadSpec::new(2, 4)
            .bias(bias)
            .trip(TripSpec::Known(1000));
        let loops = suite(&spec, LOOPS_PER_BENCHMARK, 11);
        let reports = evaluate_all(Simdizer::new(), &loops);
        let strategy = |applies: fn(&LoopProgram, VectorShape) -> bool| {
            let covered: Vec<bool> = loops.iter().map(|p| applies(p, VectorShape::V16)).collect();
            let speedups = covered
                .iter()
                .zip(&reports)
                .map(|(&c, r)| if c { r.speedup } else { 1.0 });
            (
                100.0 * covered.iter().filter(|&&c| c).count() as f64 / loops.len() as f64,
                harmonic_mean(speedups).expect("positive speedups"),
            )
        };
        let (al, peel, paper) = (
            strategy(simdizable_aligned_only),
            strategy(simdizable_by_peeling),
            strategy(|_, _| true),
        );
        let _ = writeln!(
            out,
            "{:<8.1} | {:>13.0}% {:>13.0}% {:>9.0}% | {:>9.2}x {:>9.2}x {:>9.2}x",
            bias, al.0, peel.0, paper.0, al.1, peel.1, paper.1
        );
    }
    out
}

/// E11: the non-unit-stride extension — strided loads as packs in the
/// reorganization graph, against the scalar loop for strides 1, 2 and
/// 4 (stride 1 is a plain stream).
pub fn stride() -> String {
    let mut out =
        String::from("E11 — strided loads as reorg-graph packs (i16, 8 lanes, 1000 iterations)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>10}",
        "stride", "opd", "speedup", "perms/it"
    );
    for stride in [1u32, 2, 4] {
        let mut b = LoopBuilder::new(ScalarType::I16);
        let dst = b.array("out", 1100, 0);
        let src = b.array("src", 1100 * stride as u64 + 64, 6);
        b.stmt(
            dst.at(0),
            src.load_strided(stride, 1) + src.load_strided(stride, 0) * Expr::constant(2),
        );
        let program = b.finish(1000).expect("the strided loop is well formed");
        let r = evaluate(Simdizer::new(), &program, 3);
        let iters = r.stats.steady_iterations.max(1);
        let _ = writeln!(
            out,
            "{:<10} {:>8.3} {:>9.2}x {:>10.2}",
            stride,
            r.opd,
            r.speedup,
            r.stats.shifts as f64 / iters as f64
        );
    }
    out
}

/// E12: vector-width scaling. The pipeline is generic in `V`; this
/// sweeps 8/16/32-byte registers over an i16 S1×L6 suite.
pub fn scaling() -> String {
    let mut out =
        String::from("E12 — vector-width scaling (S1*L6 i16, 50 loops, dominant-shift + SP)\n");
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>8} {:>10} {:>12}",
        "V", "lanes", "opd", "speedup", "reorg opd"
    );
    let spec = WorkloadSpec::new(1, 6)
        .elem(ScalarType::I16)
        .trip(TripSpec::Known(1000));
    let loops = suite(&spec, LOOPS_PER_BENCHMARK, 21);
    for shape in [VectorShape::V8, VectorShape::V16, VectorShape::V32] {
        let reports = evaluate_all(Simdizer::new().shape(shape), &loops);
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>8.3} {:>9.2}x {:>12.3}",
            shape.to_string(),
            shape.bytes() / 2,
            mean(reports.iter().map(|r| r.opd)),
            mean(reports.iter().map(|r| r.speedup)),
            mean(
                reports
                    .iter()
                    .map(|r| r.stats.reorg_ops() as f64 / r.data_produced as f64)
            )
        );
    }
    out
}

/// E13: the reduction extension (§7 "scalar accesses in non-address
/// computation") — a dot product and min/max/xor scans with misaligned
/// inputs, and the static size of the horizontal epilogue.
pub fn reduction() -> String {
    let scan = |op: BinOp| {
        let mut b = LoopBuilder::new(ScalarType::I16);
        let acc = b.array("acc", 8, 2);
        let x = b.array("x", 1016, 6);
        b.reduce(acc.at(0), op, x.load(1));
        b.finish(1000).expect("the scan is well formed")
    };
    let mut out = String::from("E13 — reductions (1000 iterations, misaligned inputs)\n");
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>10} {:>12}",
        "kernel", "opd", "speedup", "epilogue ops"
    );
    for (name, program) in [
        ("dot_product (i32, 4x)", dot_product(1000)),
        ("running max (i16, 8x)", scan(BinOp::Max)),
        ("running min (i16, 8x)", scan(BinOp::Min)),
        ("checksum xor (i16, 8x)", scan(BinOp::Xor)),
    ] {
        let r = evaluate(Simdizer::new(), &program, 13);
        let compiled = Simdizer::new().compile(&program).expect("evaluated above");
        let (_, _, epilogue) = compiled.static_counts();
        let _ = writeln!(
            out,
            "{:<26} {:>8.3} {:>9.2}x {:>12}",
            name, r.opd, r.speedup, epilogue
        );
    }
    out
}
