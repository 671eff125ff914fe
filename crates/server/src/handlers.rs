//! Executes pipeline requests against the simdize toolchain.
//!
//! Every handler's `result` body is deterministic for a given request
//! on a fixed host: pipeline results carry no timestamps or cache-hit
//! markers, so a reply served from the kernel cache is byte-identical
//! to one that baked from scratch (the stress tests assert exactly
//! this, after normalizing the envelope's trace id). Wall-clock
//! observability lives in the `stats` verb, the trace export and the
//! flight recorder; the golden transcript test normalizes the timing
//! fields (`wall_ms`, `wall_us`, span durations) rather than the
//! handlers zeroing them at the source.

use crate::protocol::{Command, ExecRequest};
use crate::server::{ServerConfig, MAX_SOURCE_BYTES};
use simdize::{
    analyze_program, parse_program, run_job, run_sweep_shared, traced_pass, DiffConfig,
    KernelCache, LoopProgram, Simdizer, SweepJob, SweepOptions,
};
use simdize_explain::{render_json, Explainer};
use simdize_telemetry::json;

/// Runs one pipeline command to completion under the caller's request
/// scope, using `cache` for baked kernels. Returns the rendered
/// `result` JSON on success, a readable message on failure — except
/// for `trace`, whose result is the caller's finished scope, so its
/// `Ok` body is empty.
pub fn execute(
    cmd: &Command,
    cache: &KernelCache,
    config: &ServerConfig,
) -> Result<String, String> {
    let (Command::Compile(req)
    | Command::Analyze(req)
    | Command::Run(req)
    | Command::Sweep(req)
    | Command::Explain(req)
    | Command::Verify(req)
    | Command::Trace(req)) = cmd
    else {
        // Control-plane verbs are answered before the gate.
        return Err("internal: control command reached the pipeline".to_string());
    };
    let program = parse(&req.source)?;
    match cmd {
        Command::Compile(_) => compile(req, &program),
        Command::Analyze(_) => analyze(req, &program),
        Command::Run(_) => run(req, &program, cache),
        Command::Sweep(_) => sweep(req, &program, cache, config),
        Command::Explain(_) => explain(req, &program),
        Command::Verify(_) => verify(req, &program, config),
        _ => trace(req),
    }
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

fn compile(req: &ExecRequest, program: &LoopProgram) -> Result<String, String> {
    let compiled = driver(req).compile(program).map_err(err)?;
    Ok(format!(
        "{{\"code\":\"{}\",\"sections\":{{\"prologue\":{},\"body\":{},\"epilogue\":{}}}}}",
        json::escape(&compiled.to_string()),
        compiled.prologue().len(),
        compiled.body().len(),
        compiled.epilogue().len()
    ))
}

fn analyze(req: &ExecRequest, program: &LoopProgram) -> Result<String, String> {
    let driver = driver(req);
    let compiled = driver.compile(program).map_err(err)?;
    let report = analyze_program(&compiled, &driver.analyze_options());
    Ok(format!(
        "{{\"deny\":{},\"warn\":{},\"report\":{}}}",
        report.deny_count(),
        report.warn_count(),
        report.render_json()
    ))
}

fn run(req: &ExecRequest, program: &LoopProgram, cache: &KernelCache) -> Result<String, String> {
    let compiled = driver(req).compile(program).map_err(err)?;
    let mut job = SweepJob::new(compiled, req.seed, req.ub);
    job.input.params.clone_from(&req.params);
    let (outcome, ..) = run_job(&job, cache).map_err(err)?;
    Ok(format!(
        "{{\"verified\":{},\"seed\":{},\"engine_ops\":{},\"scalar_ideal\":{},\
         \"opd\":{:.3},\"speedup\":{:.3}}}",
        outcome.verified,
        outcome.seed,
        outcome.stats.total(),
        outcome.scalar_ideal,
        outcome.stats.opd(outcome.data_produced),
        outcome.speedup()
    ))
}

fn sweep(
    req: &ExecRequest,
    program: &LoopProgram,
    cache: &KernelCache,
    config: &ServerConfig,
) -> Result<String, String> {
    let compiled = driver(req).compile(program).map_err(err)?;
    let count = req.count.clamp(1, 4096);
    let jobs: Vec<SweepJob> = (0..count as u64)
        .map(|k| {
            let mut job = SweepJob::new(compiled.clone(), req.seed.wrapping_add(k), req.ub);
            job.input.params.clone_from(&req.params);
            job
        })
        .collect();
    let threads = config.sweep_threads.max(1);
    let (outcomes, _) = run_sweep_shared(&jobs, SweepOptions::new(threads), cache);
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
    Ok(format!(
        "{{\"count\":{count},\"verified\":{verified},\
         \"mean_speedup\":{:.3},\"min_speedup\":{:.3}}}",
        speedup_sum / count as f64,
        min_speedup
    ))
}

fn verify(
    req: &ExecRequest,
    program: &LoopProgram,
    config: &ServerConfig,
) -> Result<String, String> {
    let mut vopts = simdize::VerifyOptions::quick();
    vopts.threads = config.sweep_threads.max(1);
    if let Some(p) = req.policy {
        vopts.policies = vec![p];
    }
    let report = simdize::prove_loop("wire", program, &vopts);
    // wall_ms stays real (every verb reports true wall time); the
    // golden transcript normalizes it instead.
    Ok(format!("{{\"verify\":{}}}", report.render_json()))
}

fn trace(req: &ExecRequest) -> Result<String, String> {
    // The traced pipeline chooses its own (deterministic) driver
    // configuration; the request's policy/seed knobs do not apply.
    // It collects into the request's own scope, so the document the
    // server renders from it carries the envelope's trace id.
    traced_pass(&req.source).map_err(err)?;
    Ok(String::new())
}

fn explain(req: &ExecRequest, program: &LoopProgram) -> Result<String, String> {
    let measured = DiffConfig::with_seed(req.seed)
        .runtime_ub(req.ub)
        .params(req.params.clone());
    let report = Explainer::new(driver(req), measured)
        .explain(program)
        .map_err(err)?;
    Ok(format!("{{\"report\":{}}}", render_json(&report)))
}
