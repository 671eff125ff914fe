//! Executes pipeline requests against the simdize toolchain.
//!
//! `run`, `sweep`, `compile` and `analyze` share one front half,
//! [`template`]: the server's [`TemplateMemo`] beside its
//! [`KernelCache`], keyed by the request's source bytes and forced
//! policy (all that [`driver`] reads), compiles each distinct source
//! once and hands every later request the same `Arc`'d template —
//! program, fingerprint, check — so a repeated source skips parse,
//! placement, codegen and fingerprinting as a repeated kernel skips
//! the bake.
//!
//! Every handler's `result` body is deterministic for a given request
//! on a fixed host: pipeline results carry no timestamps or cache-hit
//! markers, so a reply served from the memo and the kernel cache is
//! byte-identical to one compiled and baked from scratch (the stress
//! tests assert exactly this, after normalizing the envelope's trace
//! id), and so are its flight entry's attributes: a memo hit re-tags
//! the `policy` the compile would have. Wall-clock observability lives
//! in the `stats` verb, the trace export and the flight recorder; the
//! golden transcript test normalizes the timing fields (`wall_ms`,
//! `wall_us`, span durations) rather than the handlers zeroing them at
//! the source.

use crate::memo::TemplateMemo;
use crate::protocol::{Command, ExecRequest};
use crate::server::{ServerConfig, MAX_SOURCE_BYTES};
use simdize::{
    analyze_program, parse_program, traced_pass, DiffConfig, KernelCache, LoopProgram, Simdizer,
    SweepOptions, Template,
};
use simdize_explain::{render_json, Explainer};
use simdize_telemetry as telemetry;
use simdize_telemetry::json::{Fixed, Text, Writer};
use std::borrow::Cow;
use std::sync::Arc;

/// Runs one pipeline command to completion under the caller's request
/// scope, using `memo` for compiled sources and `cache` for baked
/// kernels. On success the `result` value has been written to `out` —
/// except for `trace`, whose result is the caller's finished scope, so
/// it writes nothing. On failure, returns a readable message.
pub fn execute(
    cmd: &Command,
    memo: &TemplateMemo,
    cache: &KernelCache,
    config: &ServerConfig,
    out: &mut Writer,
) -> Result<(), String> {
    match cmd {
        Command::Compile(req) => compile(&*template(req, memo)?, out),
        Command::Analyze(req) => analyze(req, &*template(req, memo)?, out),
        Command::Run(req) => run(req, &*template(req, memo)?, cache, out),
        Command::Sweep(req) => sweep(req, &*template(req, memo)?, cache, config, out),
        Command::Explain(req) => explain(req, &parse(&req.source)?, out),
        Command::Verify(req) => verify(req, &parse(&req.source)?, config, out),
        Command::Trace(req) => parse(&req.source).and_then(|_| trace(req)),
        // Control-plane verbs are answered before the gate.
        _ => Err("internal: control command reached the pipeline".to_string()),
    }
}

/// The front half of `run`, `sweep`, `compile` and `analyze`: the
/// request's source compiled under its policy, from `memo` when an
/// earlier request compiled it. Only a successful compile is stored, so
/// a hit implies the [`MAX_SOURCE_BYTES`] check passed, and a failing
/// source answers its error every time.
fn template(req: &ExecRequest, memo: &TemplateMemo) -> Result<Arc<Template<'static>>, String> {
    let (template, policy) = memo.get_or_compile(&req.source, req.policy, || {
        let program = parse(&req.source)?;
        let driver = driver(req);
        let compiled = driver.compile(&program).map_err(err)?;
        Ok((
            Template::new(Cow::Owned(compiled)),
            driver.policy_for(&program),
        ))
    })?;
    // The attribute the compile tags, so a hit's flight entry matches.
    telemetry::tag("policy", policy);
    Ok(template)
}

/// Parses a request's source, refusing one whose arrays declare more
/// than [`MAX_SOURCE_BYTES`]: every verb but `compile` and `analyze`
/// allocates a memory image of that size, several for a sweep.
fn parse(source: &str) -> Result<LoopProgram, String> {
    let program = parse_program(source).map_err(err)?;
    let declared = program.arrays().iter().fold(0u64, |sum, a| {
        sum.saturating_add(a.len().saturating_mul(a.elem().size() as u64))
    });
    if declared > MAX_SOURCE_BYTES {
        return Err(format!(
            "the source declares {declared} bytes of arrays, over this server's cap of \
             {MAX_SOURCE_BYTES} bytes"
        ));
    }
    Ok(program)
}

/// The pipeline's defaults, with the request's policy when it forces
/// one.
fn driver(req: &ExecRequest) -> Simdizer {
    req.policy
        .map_or_else(Simdizer::new, |p| Simdizer::new().policy(p))
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn compile(template: &Template, out: &mut Writer) -> Result<(), String> {
    let compiled = template.program();
    out.obj()
        .field("code", Text(compiled))
        .key("sections")
        .obj()
        .field("prologue", compiled.prologue().len())
        .field("body", compiled.body().len())
        .field("epilogue", compiled.epilogue().len())
        .end_obj()
        .end_obj();
    Ok(())
}

fn analyze(req: &ExecRequest, template: &Template, out: &mut Writer) -> Result<(), String> {
    let report = analyze_program(template.program(), &driver(req).analyze_options());
    out.obj()
        .field("deny", report.deny_count())
        .field("warn", report.warn_count())
        .key("report")
        .raw(&report.render_json())
        .end_obj();
    Ok(())
}

fn run(
    req: &ExecRequest,
    template: &Template,
    cache: &KernelCache,
    out: &mut Writer,
) -> Result<(), String> {
    let mut input = template.input(req.ub);
    input.params.clone_from(&req.params);
    let (outcome, ..) = template.run(req.seed, &input, cache).map_err(err)?;
    out.obj()
        .field("verified", outcome.verified)
        .field("seed", outcome.seed)
        .field("engine_ops", outcome.stats.total())
        .field("scalar_ideal", outcome.scalar_ideal)
        .field("opd", Fixed(outcome.stats.opd(outcome.data_produced), 3))
        .field("speedup", Fixed(outcome.speedup(), 3))
        .end_obj();
    Ok(())
}

fn sweep(
    req: &ExecRequest,
    template: &Template,
    cache: &KernelCache,
    config: &ServerConfig,
    out: &mut Writer,
) -> Result<(), String> {
    let count = req.count.clamp(1, 4096);
    let mut input = template.input(req.ub);
    input.params.clone_from(&req.params);
    let seeds = (0..count as u64).map(|k| req.seed.wrapping_add(k));
    let threads = config.sweep_threads.max(1);
    let (outcomes, _) = template.sweep(seeds, &input, SweepOptions::new(threads), cache);
    let mut verified = 0usize;
    let mut speedup_sum = 0.0;
    let mut min_speedup = f64::INFINITY;
    for outcome in outcomes {
        let o = outcome.map_err(err)?;
        verified += usize::from(o.verified);
        let s = o.speedup();
        speedup_sum += s;
        min_speedup = min_speedup.min(s);
    }
    out.obj().field("count", count).field("verified", verified);
    out.field("mean_speedup", Fixed(speedup_sum / count as f64, 3));
    out.field("min_speedup", Fixed(min_speedup, 3)).end_obj();
    Ok(())
}

fn verify(
    req: &ExecRequest,
    program: &LoopProgram,
    config: &ServerConfig,
    out: &mut Writer,
) -> Result<(), String> {
    let mut vopts = simdize::VerifyOptions::quick();
    vopts.threads = config.sweep_threads.max(1);
    if let Some(p) = req.policy {
        vopts.policies = vec![p];
    }
    let report = simdize::prove_loop("wire", program, &vopts);
    // wall_ms stays real (every verb reports true wall time); the
    // golden transcript normalizes it instead.
    out.obj().key("verify").raw(&report.render_json()).end_obj();
    Ok(())
}

fn trace(req: &ExecRequest) -> Result<(), String> {
    // The traced pipeline chooses its own (deterministic) driver
    // configuration; the request's policy/seed knobs do not apply.
    // It collects into the request's own scope, so the document the
    // server renders from it carries the envelope's trace id.
    traced_pass(&req.source).map_err(err)?;
    Ok(())
}

fn explain(req: &ExecRequest, program: &LoopProgram, out: &mut Writer) -> Result<(), String> {
    let measured = DiffConfig::with_seed(req.seed)
        .runtime_ub(req.ub)
        .params(req.params.clone());
    let report = Explainer::new(driver(req), measured)
        .explain(program)
        .map_err(err)?;
    out.obj().key("report").raw(&render_json(&report)).end_obj();
    Ok(())
}
