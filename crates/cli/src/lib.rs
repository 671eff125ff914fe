//! The `simdize` command-line driver: parse a loop in the textual
//! syntax, run it through the alignment-handling pipeline, and print
//! graphs, generated code, lowerings and evaluation reports.
//!
//! The binary is a thin wrapper around [`run`], which is exposed (and
//! unit-tested) here. Usage — what `simdize` with no arguments,
//! `simdize --help` and `simdize -h` print:
//!
//! ```text
#![doc = include_str!("usage.txt")]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simdize::{
    analyze_program, lower_altivec, run_job, to_dot, DiffConfig, IsaLevel, KernelCache, Level,
    Lint, MutationKind, Policy, ReuseMode, SimdizeError, Simdizer, SweepJob, SweepOptions, Target,
    Template, VectorShape, VerifyOptions,
};
use simdize_explain::{render_json, render_markdown, render_text, Explainer};
use simdize_telemetry::{self as telemetry, TraceId};
use std::borrow::Cow;
use std::error::Error;
use std::fmt::Write as _;

/// Source reader injected into [`parse_args`] so tests can supply loop
/// text without touching the filesystem.
pub type ReadSource = dyn Fn(&str) -> Result<String, Box<dyn Error>>;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    command: String,
    source: String,
    loop_name: String,
    policy: Option<Policy>,
    reuse: ReuseMode,
    reassoc: bool,
    memnorm: bool,
    unroll: bool,
    target: Target,
    shape: VectorShape,
    seed: u64,
    ub: u64,
    params: Vec<i64>,
    engine: String,
    lints: Vec<(Lint, Level)>,
    json: bool,
    markdown: bool,
    threads: usize,
    count: usize,
    smoke: bool,
    telemetry: bool,
    dot: bool,
    asm: bool,
    addr: String,
    workers: usize,
    queue: usize,
    shards: usize,
    cache_cap: usize,
    quick: bool,
    trip_bound: Option<u64>,
    budget: Option<u64>,
    mutate: Option<MutationKind>,
    chrome_out: Option<String>,
    flight_cap: usize,
    metrics_addr: Option<String>,
}

/// Parses argv-style arguments (`args` excludes the program name) and
/// reads the loop source via `read_file` (injected for testability;
/// `"-"` means standard input in the binary).
///
/// # Errors
///
/// Returns a usage message on malformed arguments.
pub fn parse_args(args: &[String], read_file: &ReadSource) -> Result<Options, Box<dyn Error>> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        None | Some("--help" | "-h") => "help".to_string(),
        Some(command) => command.to_string(),
    };
    if !matches!(
        command.as_str(),
        "help"
            | "check"
            | "graph"
            | "compile"
            | "analyze"
            | "run"
            | "verify"
            | "explain"
            | "policies"
            | "sweep"
            | "trace"
            | "serve"
    ) {
        return Err(format!("unknown command `{command}`\n{USAGE}").into());
    }
    let mut opts = Options {
        command,
        source: String::new(),
        loop_name: String::new(),
        policy: None,
        reuse: ReuseMode::SoftwarePipeline,
        reassoc: false,
        memnorm: true,
        unroll: true,
        target: Target::Aligned,
        shape: VectorShape::V16,
        seed: 2004,
        ub: 1000,
        params: Vec::new(),
        engine: "interp".to_string(),
        lints: Vec::new(),
        json: false,
        markdown: false,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        count: 32,
        smoke: false,
        telemetry: false,
        dot: false,
        asm: false,
        addr: String::new(),
        workers: 2,
        queue: 64,
        shards: 8,
        cache_cap: 32,
        quick: false,
        trip_bound: None,
        budget: None,
        mutate: None,
        chrome_out: None,
        flight_cap: 128,
        metrics_addr: None,
    };
    // The first argument that is no option (nor an option's value) is
    // the loop, or `serve`'s listen address.
    let mut positional = None;
    while let Some(arg) = it.next() {
        if arg == "-" || !arg.starts_with("--") {
            if positional.replace(arg).is_some() || opts.command == "help" {
                return Err(format!("unexpected argument `{arg}`\n{USAGE}").into());
            }
            continue;
        }
        let mut value = |name: &str| -> Result<String, Box<dyn Error>> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match arg.as_str() {
            "--policy" => {
                let name = value("--policy")?;
                let policy =
                    Policy::from_name(&name).ok_or_else(|| format!("unknown policy `{name}`"))?;
                opts.policy = Some(policy);
            }
            "--reuse" => {
                opts.reuse = match value("--reuse")?.as_str() {
                    "none" => ReuseMode::None,
                    "sp" => ReuseMode::SoftwarePipeline,
                    "pc" => ReuseMode::PredictiveCommoning,
                    other => return Err(format!("unknown reuse mode `{other}`").into()),
                }
            }
            "--reassoc" => opts.reassoc = true,
            "--no-memnorm" => opts.memnorm = false,
            "--no-unroll" => opts.unroll = false,
            "--target" => {
                opts.target = match value("--target")?.as_str() {
                    "aligned" => Target::Aligned,
                    "unaligned" => Target::Unaligned,
                    other => return Err(format!("unknown target `{other}`").into()),
                }
            }
            "--shape" => {
                let bytes: u32 = value("--shape")?.parse()?;
                opts.shape =
                    VectorShape::new(bytes).ok_or_else(|| format!("unsupported shape {bytes}"))?;
            }
            "--seed" => opts.seed = value("--seed")?.parse()?,
            "--ub" => {
                opts.ub = value("--ub")?.parse()?;
                if opts.ub == 0 {
                    return Err("--ub must be at least 1".into());
                }
            }
            "--param" => opts.params.push(value("--param")?.parse()?),
            "--engine" => {
                let name = value("--engine")?;
                if !matches!(name.as_str(), "interp" | "simd") {
                    return Err(
                        format!("unknown engine `{name}` (expected `interp` or `simd`)").into(),
                    );
                }
                opts.engine = name;
            }
            "--lint" => {
                let spec = value("--lint")?;
                let (name, level) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--lint expects `name=level`, got `{spec}`"))?;
                let lint = Lint::from_name(name).ok_or_else(|| format!("unknown lint `{name}`"))?;
                let level: Level = level.parse().map_err(|e| format!("--lint {name}: {e}"))?;
                opts.lints.push((lint, level));
            }
            "--json" => opts.json = true,
            "--markdown" => opts.markdown = true,
            "--threads" | "--jobs" => {
                opts.threads = value(arg)?.parse()?;
                if opts.threads == 0 {
                    return Err(format!("{arg} must be at least 1").into());
                }
            }
            "--count" => opts.count = value("--count")?.parse()?,
            "--smoke" => opts.smoke = true,
            "--telemetry" => opts.telemetry = true,
            "--dot" => opts.dot = true,
            "--asm" => opts.asm = true,
            "--workers" => {
                opts.workers = value("--workers")?.parse()?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue" => {
                opts.queue = value("--queue")?.parse()?;
                if opts.queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--shards" => opts.shards = value("--shards")?.parse()?,
            "--cache-cap" => opts.cache_cap = value("--cache-cap")?.parse()?,
            "--quick" => opts.quick = true,
            "--trip-bound" => {
                let bound: u64 = value("--trip-bound")?.parse()?;
                if bound == 0 {
                    return Err("--trip-bound must be at least 1".into());
                }
                opts.trip_bound = Some(bound);
            }
            "--budget" => {
                let budget: u64 = value("--budget")?.parse()?;
                if budget == 0 {
                    return Err("--budget must be at least 1".into());
                }
                opts.budget = Some(budget);
            }
            "--chrome-out" => opts.chrome_out = Some(value("--chrome-out")?),
            "--flight-cap" => {
                opts.flight_cap = value("--flight-cap")?.parse()?;
                if opts.flight_cap == 0 {
                    return Err("--flight-cap must be at least 1".into());
                }
            }
            "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")?),
            "--mutate" => {
                let name = value("--mutate")?;
                opts.mutate = Some(MutationKind::from_name(&name).ok_or_else(|| {
                    format!("unknown mutation `{name}` (expected `splice` or `shift`)")
                })?);
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}").into()),
        }
    }
    match (opts.command.as_str(), positional) {
        ("help", _) => {}
        // `serve` takes a listen address and reads no loop file.
        ("serve", addr) => {
            opts.addr = addr
                .ok_or("serve needs a listen address, e.g. `serve 127.0.0.1:4910` (port 0 = ephemeral)")?
                .clone();
        }
        (_, path) => {
            let path = path.ok_or_else(|| format!("missing <file.loop> argument\n{USAGE}"))?;
            opts.loop_name = if path == "-" {
                "stdin".to_string()
            } else {
                std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.clone())
            };
            opts.source = read_file(path).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(opts)
}

const USAGE: &str =
    "usage: simdize <check|graph|compile|analyze|run|verify|explain|policies|sweep|trace> <file.loop|-> [options]
       simdize serve <addr> [--workers N] [--queue N] [--shards N] [--cache-cap N] [--flight-cap N] [--metrics-addr ADDR]
run `simdize` with no arguments (or `simdize --help`) for the full option list";

/// The full option list: what `simdize` with no arguments, `--help` and
/// `-h` print, and the crate docs show.
const HELP: &str = include_str!("usage.txt");

/// Resolves a `<file.loop>` argument: an existing path (or anything
/// path-like, containing `/` or `.`) is used as-is; a bare loop name
/// like `figure1` falls back to `loops/figure1.loop`, searched in the
/// current directory and then each ancestor, so bare names work from
/// anywhere inside the checkout. Returns the bare name unchanged when
/// no bundled loop matches (the caller's read then reports the usual
/// not-found error).
pub fn resolve_loop_path(path: &str) -> std::path::PathBuf {
    let direct = std::path::Path::new(path);
    if direct.exists() || path.contains(['/', '.']) {
        return direct.to_path_buf();
    }
    let rel = format!("loops/{path}.loop");
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        let candidate = dir.join(&rel);
        if candidate.exists() {
            return candidate;
        }
        if !dir.pop() {
            break;
        }
    }
    direct.to_path_buf()
}

/// Executes the parsed command and returns its printable output.
///
/// # Errors
///
/// Propagates parse, pipeline and verification errors with readable
/// messages.
pub fn run(opts: &Options) -> Result<String, Box<dyn Error>> {
    match opts.command.as_str() {
        "help" => return Ok(format!("usage: {HELP}")),
        "serve" => return run_serve(opts),
        _ => {}
    }
    // --telemetry wraps the whole command in a request scope; what it
    // collected is appended to the normal output.
    let scope = opts
        .telemetry
        .then(|| telemetry::begin_request(TraceId::next(0), &opts.command));
    let program = simdize::parse_program(&opts.source)?;
    let mut driver = Simdizer::new()
        .shape(opts.shape)
        .reuse(opts.reuse)
        .memnorm(opts.memnorm)
        .unroll(opts.unroll)
        .reassociate(opts.reassoc)
        .target(opts.target);
    if let Some(p) = opts.policy {
        driver = driver.policy(p);
    }
    // The memory image, trip count and parameters of every measured run.
    let measured = DiffConfig::with_seed(opts.seed)
        .runtime_ub(opts.ub)
        .params(opts.params.clone());

    let mut out = String::new();
    match opts.command.as_str() {
        "check" => {
            writeln!(out, "valid simdizable loop:")?;
            write!(out, "{program}")?;
            writeln!(
                out,
                "element {} ({} lanes on {}), {} statement(s), alignments {}",
                program.elem(),
                opts.shape.blocking_factor(program.elem()),
                opts.shape,
                program.stmts().len(),
                if program.all_alignments_known() {
                    "compile-time"
                } else {
                    "runtime"
                }
            )?;
        }
        "graph" => {
            let placed = driver.place(&program)?;
            if opts.dot {
                out.push_str(&to_dot(&placed));
            } else {
                write!(out, "{placed}")?;
                writeln!(out, "{} stream shifts", placed.shift_count())?;
            }
        }
        "compile" => {
            let compiled = driver.compile(&program)?;
            if opts.asm {
                out.push_str(&lower_altivec(&compiled));
            } else {
                write!(out, "{compiled}")?;
            }
        }
        "analyze" => {
            let compiled = driver.compile(&program)?;
            let mut aopts = driver.analyze_options();
            for (lint, level) in &opts.lints {
                aopts = aopts.level(*lint, *level);
            }
            let report = analyze_program(&compiled, &aopts);
            let rendered = if opts.json {
                report.render_json()
            } else {
                report.render_text()
            };
            writeln!(out, "{rendered}")?;
            if report.deny_count() > 0 {
                return Err(format!(
                    "analysis found {} deny-level finding(s)\n{rendered}",
                    report.deny_count()
                )
                .into());
            }
        }
        "run" if opts.engine == "simd" => {
            let mut job = SweepJob::new(driver.compile(&program)?, opts.seed, opts.ub);
            job.input.params.clone_from(&opts.params);
            let (outcome, lowered, _) = run_job(&job, &KernelCache::new(1, 1))?;
            let (verified, stats) = (outcome.verified, outcome.stats);
            writeln!(out, "verified: {verified}")?;
            writeln!(
                out,
                "engine: simd (std::arch intrinsics{})",
                if lowered.is_fallback() {
                    ", scalar fallback"
                } else {
                    ""
                }
            )?;
            writeln!(out, "backend: simd/{}", lowered.isa())?;
            let fusion = lowered.base().fusion_stats();
            writeln!(
                out,
                "trace: {} fused load(s), {} composed gather(s), {} splat op(s), {} hoisted, {} eliminated",
                fusion.fused_loads, fusion.composed, fusion.splat_ops, fusion.hoisted, fusion.eliminated
            )?;
            writeln!(
                out,
                "opd: {:.3}  speedup: {:.2}x over idealistic scalar",
                stats.opd(outcome.data_produced),
                outcome.speedup()
            )?;
            writeln!(out, "stats: {stats}")?;
            if !verified {
                return Err("simd engine diverged from the scalar oracle".into());
            }
        }
        "run" => {
            let report = driver.evaluate_with(&program, &measured)?;
            writeln!(out, "verified: {}", report.verified)?;
            writeln!(out, "{report}")?;
        }
        "verify" => {
            let mut vopts = if opts.quick {
                VerifyOptions::quick()
            } else {
                VerifyOptions::new()
            };
            if let Some(bound) = opts.trip_bound {
                vopts.trip_bound = bound;
            }
            if let Some(budget) = opts.budget {
                vopts.budget = budget;
            }
            vopts.threads = opts.threads.max(1);
            if let Some(p) = opts.policy {
                vopts.policies = vec![p];
            }
            vopts.mutation = opts.mutate;
            let report = simdize::prove_loop(&opts.loop_name, &program, &vopts);
            let rendered = if opts.json {
                report.render_json()
            } else {
                report.render_text()
            };
            out.push_str(&rendered);
            if !out.ends_with('\n') {
                out.push('\n');
            }
            if report.violations_total > 0 {
                return Err(format!(
                    "verification found {} violated propert{}\n{rendered}",
                    report.violations_total,
                    if report.violations_total == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                )
                .into());
            }
        }
        "explain" => {
            let report = Explainer::new(driver, measured).explain(&program)?;
            out.push_str(&if opts.json {
                render_json(&report)
            } else if opts.markdown {
                render_markdown(&report)
            } else {
                render_text(&report)
            });
            if !out.ends_with('\n') {
                out.push('\n');
            }
            // Text mode is interactive, so the host's dispatched ISA is
            // useful context; JSON/Markdown feed goldens and generated
            // docs, which must stay byte-identical across hosts.
            if !opts.json && !opts.markdown {
                writeln!(
                    out,
                    "backend: simd/{} (std::arch dispatch)",
                    IsaLevel::detect()
                )?;
            }
        }
        "trace" => {
            let (trace, outcome) = simdize::trace_source(&opts.source)?;
            if let Some(path) = &opts.chrome_out {
                std::fs::write(path, trace.render_chrome())
                    .map_err(|e| format!("--chrome-out {path}: {e}"))?;
            }
            if opts.json {
                out.push_str(&trace.render_json());
                out.push('\n');
            } else {
                writeln!(
                    out,
                    "traced {}: verified={} sweep {}/{} verified, {:.2}x speedup, \
                     opd {:.3} (bound {:.3}), kernel cache {:.0}% hit rate",
                    trace.trace_id,
                    outcome.verified,
                    outcome.sweep_verified,
                    outcome.sweep_jobs,
                    outcome.speedup,
                    outcome.opd,
                    outcome.opd_bound,
                    outcome.sweep_stats.cache_hit_rate() * 100.0
                )?;
                out.push_str(&trace.render_text());
            }
            if let Some(path) = &opts.chrome_out {
                writeln!(out, "chrome trace written to {path}")?;
            }
            if !outcome.verified || outcome.sweep_verified != outcome.sweep_jobs {
                return Err("traced run diverged from the scalar oracle".into());
            }
        }
        "sweep" => {
            let template = Template::new(Cow::Owned(driver.compile(&program)?));
            let count = if opts.smoke { 8 } else { opts.count };
            let seeds = (0..count as u64).map(|k| opts.seed.wrapping_add(k));
            let started = std::time::Instant::now();
            let (outcomes, stats) = template.sweep(
                seeds,
                &template.input(opts.ub),
                SweepOptions::new(opts.threads),
                &KernelCache::new(opts.threads.clamp(1, 16), 32),
            );
            let elapsed = started.elapsed();
            writeln!(out, "backend: simd/{}", IsaLevel::detect())?;
            writeln!(
                out,
                "{:>6} {:>9} {:>9} {:>9}",
                "seed", "verified", "opd", "speedup"
            )?;
            let mut ok = 0usize;
            for outcome in &outcomes {
                match outcome {
                    Ok(o) => {
                        ok += usize::from(o.verified);
                        writeln!(
                            out,
                            "{:>6} {:>9} {:>9.3} {:>8.2}x",
                            o.seed,
                            o.verified,
                            o.stats.opd(o.data_produced),
                            o.speedup()
                        )?;
                    }
                    Err(e) => writeln!(out, "     - error: {e}")?,
                }
            }
            writeln!(
                out,
                "{ok}/{count} verified on {} worker thread(s), {:.0} jobs/sec",
                stats.workers,
                count as f64 / elapsed.as_secs_f64().max(1e-9)
            )?;
            writeln!(
                out,
                "wall time {:.3} ms, kernel cache {} hit / {} miss / {} evict \
                 ({:.0}% hit rate, {} resident over {} shard(s)), {} scratch reseed(s)",
                elapsed.as_secs_f64() * 1e3,
                stats.cache_hits,
                stats.cache_misses,
                stats.cache_evictions,
                stats.cache_hit_rate() * 100.0,
                stats.cache_occupied(),
                stats.cache_occupancy.len(),
                stats.scratch_reseeds
            )?;
            if ok != count {
                return Err(format!("sweep failed: {ok}/{count} seeds verified").into());
            }
        }
        "policies" => {
            writeln!(
                out,
                "{:<10} {:>7} {:>9} {:>9} {:>9}",
                "policy", "shifts", "opd", "bound", "speedup"
            )?;
            for policy in Policy::ALL {
                let driver = driver.policy(policy);
                let row = driver.place(&program).and_then(|placed| {
                    Ok((
                        placed.shift_count(),
                        driver.evaluate_with(&program, &measured)?,
                    ))
                });
                match row {
                    Ok((shifts, r)) => writeln!(
                        out,
                        "{:<10} {:>7} {:>9.3} {:>9.3} {:>8.2}x",
                        policy.name(),
                        shifts,
                        r.opd,
                        r.lower_bound_opd,
                        r.speedup
                    )?,
                    Err(SimdizeError::Policy(e)) => writeln!(out, "{:<10} {e}", policy.name())?,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        _ => unreachable!("validated in parse_args"),
    }
    if let Some(scope) = scope {
        writeln!(out, "\n-- telemetry --")?;
        out.push_str(&scope.finish(None).render_text());
    }
    Ok(out)
}

/// `simdize serve <addr>`: bind, announce the resolved address on
/// stdout (so scripts can bind port 0 and discover the port), then
/// block serving the simdize-wire/v1 protocol until a `shutdown`
/// request or SIGINT. The returned string summarizes the traffic once
/// the server has drained.
fn run_serve(opts: &Options) -> Result<String, Box<dyn Error>> {
    use simdize_server::{Server, ServerConfig};
    let metrics_addr = opts
        .metrics_addr
        .as_deref()
        .map(|a| a.parse().map_err(|e| format!("--metrics-addr {a}: {e}")))
        .transpose()?;
    let config = ServerConfig {
        workers: opts.workers,
        queue_depth: opts.queue,
        cache_shards: opts.shards,
        cache_capacity: opts.cache_cap,
        sweep_threads: opts.threads.max(1),
        handle_sigint: true,
        flight_capacity: opts.flight_cap,
        metrics_addr,
    };
    let server = Server::bind(&opts.addr, config)?;
    // Printed (and flushed) before blocking: these lines are the
    // contract scripts use to learn ephemeral ports.
    println!("listening on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on {addr}");
    }
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let summary = server.serve()?;
    Ok(format!(
        "served {} request(s) over {} connection(s): {} busy rejection(s), {} error(s)\n",
        summary.requests, summary.connections, summary.busy, summary.errors
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP: &str = "arrays { a: i32[1024] @ 0; b: i32[1024] @ 0; c: i32[1024] @ 0; }
                        for i in 0..1000 { a[i+3] = b[i+1] + c[i+2]; }";

    fn opts(args: &[&str]) -> Options {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args, &|_| Ok(LOOP.to_string())).unwrap()
    }

    #[test]
    fn check_prints_summary() {
        let out = run(&opts(&["check", "x.loop"])).unwrap();
        assert!(out.contains("valid simdizable loop"));
        assert!(out.contains("4 lanes"));
        assert!(out.contains("compile-time"));
    }

    #[test]
    fn graph_and_dot() {
        let out = run(&opts(&["graph", "x.loop", "--policy", "zero"])).unwrap();
        assert!(out.contains("vshiftstream"));
        assert!(out.contains("3 stream shifts"));
        let dot = run(&opts(&["graph", "x.loop", "--dot"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn compile_and_asm() {
        let out = run(&opts(&["compile", "x.loop"])).unwrap();
        assert!(out.contains("prologue"));
        assert!(out.contains("vshiftpair"));
        let asm = run(&opts(&["compile", "x.loop", "--asm"])).unwrap();
        assert!(asm.contains("lvx"));
    }

    #[test]
    fn analyze_reports_clean() {
        let out = run(&opts(&["analyze", "x.loop"])).unwrap();
        assert!(out.contains("analysis clean"), "{out}");
        let json = run(&opts(&["analyze", "x.loop", "--json"])).unwrap();
        assert!(json.contains("\"findings\":[]"), "{json}");
        // Lint overrides parse and apply (allow-all keeps it clean too).
        let out = run(&opts(&[
            "analyze",
            "x.loop",
            "--lint",
            "redundant-shift=deny",
            "--lint",
            "dead-load=allow",
        ]))
        .unwrap();
        assert!(out.contains("analysis clean"), "{out}");
    }

    #[test]
    fn analyze_lint_parse_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |_: &str| -> Result<String, Box<dyn Error>> { Ok(LOOP.into()) };
        assert!(parse_args(&args(&["analyze", "x", "--lint", "dead-load"]), &read).is_err());
        assert!(parse_args(&args(&["analyze", "x", "--lint", "bogus=deny"]), &read).is_err());
        assert!(parse_args(&args(&["analyze", "x", "--lint", "dead-load=loud"]), &read).is_err());
    }

    #[test]
    fn run_verifies() {
        let out = run(&opts(&["run", "x.loop", "--seed", "7"])).unwrap();
        assert!(out.contains("verified: true"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn verify_quick_proves() {
        let out = run(&opts(&["verify", "x.loop", "--quick", "--threads", "2"])).unwrap();
        assert!(out.starts_with("PROVED: x"), "{out}");
        assert!(out.contains("harness_codegen_equiv"), "{out}");
        let json = run(&opts(&[
            "verify",
            "x.loop",
            "--quick",
            "--json",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(
            json.starts_with("{\"schema\":\"simdize-verify/v1\""),
            "{json}"
        );
        assert!(json.contains("\"proved\":true"), "{json}");
    }

    #[test]
    fn verify_mutate_and_catch_exits_nonzero() {
        let err = run(&opts(&[
            "verify",
            "x.loop",
            "--quick",
            "--mutate",
            "splice",
            "--threads",
            "2",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("violated propert"), "{err}");
        assert!(err.contains("simdize run"), "{err}");
    }

    #[test]
    fn verify_argument_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |_: &str| -> Result<String, Box<dyn Error>> { Ok(LOOP.into()) };
        assert!(parse_args(&args(&["verify", "x", "--mutate", "bogus"]), &read).is_err());
        assert!(parse_args(&args(&["verify", "x", "--trip-bound", "0"]), &read).is_err());
        assert!(parse_args(&args(&["verify", "x", "--budget", "0"]), &read).is_err());
    }

    #[test]
    fn a_zero_ub_is_refused() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |_: &str| -> Result<String, Box<dyn Error>> { Ok(LOOP.into()) };
        for cmd in ["run", "policies", "sweep"] {
            let err = parse_args(&args(&[cmd, "x", "--ub", "0"]), &read).unwrap_err();
            assert_eq!(err.to_string(), "--ub must be at least 1");
        }
        assert_eq!(
            parse_args(&args(&["run", "x", "--ub", "1"]), &read)
                .unwrap()
                .ub,
            1
        );
    }

    #[test]
    fn the_loop_is_the_first_argument_that_is_not_an_option() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |path: &str| -> Result<String, Box<dyn Error>> {
            assert_eq!(path, "loops/x.loop", "read the option as the loop");
            Ok(LOOP.into())
        };
        let parsed = parse_args(&args(&["verify", "--quick", "loops/x.loop"]), &read).unwrap();
        assert!(parsed.quick && parsed.loop_name == "x", "{parsed:?}");
        let parsed = parse_args(
            &args(&["run", "--policy", "zero", "loops/x.loop", "--ub", "9"]),
            &read,
        )
        .unwrap();
        assert_eq!(
            (parsed.policy, parsed.ub, parsed.source.as_str()),
            (Some(Policy::Zero), 9, LOOP)
        );
        let parsed = parse_args(&args(&["serve", "--workers", "3", "127.0.0.1:0"]), &read).unwrap();
        assert_eq!((parsed.addr.as_str(), parsed.workers), ("127.0.0.1:0", 3));
        let err = parse_args(&args(&["run", "loops/x.loop", "loops/x.loop"]), &read).unwrap_err();
        assert!(err.to_string().contains("unexpected argument"), "{err}");
        assert!(parse_args(&args(&["verify", "--quick"]), &read).is_err());
    }

    #[test]
    fn no_arguments_and_help_print_the_option_list() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |path: &str| -> Result<String, Box<dyn Error>> { panic!("read `{path}`") };
        for help in [&[][..], &["--help"], &["-h"]] {
            let out = run(&parse_args(&args(help), &read).unwrap()).unwrap();
            assert!(
                out.starts_with("usage: simdize <command>"),
                "{help:?}: {out}"
            );
            for option in ["commands:", "--policy", "--quick", "--metrics-addr"] {
                assert!(out.contains(option), "{help:?}: no `{option}`\n{out}");
            }
        }
        let err = parse_args(&args(&["frobnicate"]), &read)
            .unwrap_err()
            .to_string();
        assert!(err.contains("run `simdize` with no arguments"), "{err}");
    }

    #[test]
    fn verify_counts_a_strided_loops_refusals_apart_from_policy_skips() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |path: &str| -> Result<String, Box<dyn Error>> {
            Ok(std::fs::read_to_string(format!(
                "{}/../../{path}",
                env!("CARGO_MANIFEST_DIR")
            ))?)
        };
        let opts = parse_args(
            &args(&[
                "verify",
                "--quick",
                "loops/deinterleave.loop",
                "--threads",
                "2",
            ]),
            &read,
        )
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.starts_with("PROVED: deinterleave"), "{out}");
        // Its runtime-alignment configs: the zero policy applies, the
        // pack patterns need the alignment at compile time.
        let refused = "0 skipped (inapplicable policy), 5 refused by codegen (a non-unit-stride reference needs a compile-time alignment)";
        assert!(out.contains(refused), "{out}");
    }

    #[test]
    fn a_read_error_names_the_path() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |_: &str| -> Result<String, Box<dyn Error>> {
            Err(std::io::Error::from(std::io::ErrorKind::NotFound).into())
        };
        let err =
            parse_args(&args(&["verify", "--quick", "loops/missing.loop"]), &read).unwrap_err();
        assert!(err.to_string().starts_with("loops/missing.loop: "), "{err}");
    }

    #[test]
    fn explain_backlinks_and_formats() {
        let out = run(&opts(&["explain", "x.loop"])).unwrap();
        assert!(out.contains("== decisions =="), "{out}");
        assert!(out.contains('\u{2190}'), "{out}");
        // Text mode reports the host's dispatched ISA; the golden-backed
        // JSON/Markdown forms must stay host-independent.
        assert!(
            out.contains(&format!("backend: simd/{}", IsaLevel::detect())),
            "{out}"
        );
        let json = run(&opts(&["explain", "x.loop", "--json"])).unwrap();
        assert!(
            json.starts_with("{\"schema\":\"simdize-explain/v1\""),
            "{json}"
        );
        assert!(!json.contains("backend: simd/"), "{json}");
        let md = run(&opts(&[
            "explain",
            "x.loop",
            "--policy",
            "zero",
            "--markdown",
        ]))
        .unwrap();
        assert!(md.starts_with("# Worked example"), "{md}");
        assert!(!md.contains("backend: simd/"), "{md}");
    }

    #[test]
    fn policies_table() {
        let out = run(&opts(&["policies", "x.loop", "--reassoc"])).unwrap();
        assert!(out.contains("zero"));
        assert!(out.contains("dominant"));
        assert!(out.contains("optimal"));
        assert_eq!(out.lines().count(), 6);
    }

    /// `graph` and the `policies` shift column count the placement
    /// `compile` generates from, reassociated under `--reassoc`.
    #[test]
    fn shift_counts_follow_reassociation() {
        const SUM4: &str = "arrays { a: i32[2048] @ 0; b: i32[2048] @ 0; c: i32[2048] @ 0;
                                     d: i32[2048] @ 0; e: i32[2048] @ 0; }
                            for i in 0..2000 { a[i] = b[i+1] + c[i+2] + d[i+1] + e[i+2]; }";
        let run_on = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            run(&parse_args(&args, &|_| Ok(SUM4.to_string())).unwrap()).unwrap()
        };
        let program = simdize::parse_program(SUM4).unwrap();
        let lazy = Simdizer::new().policy(Policy::Lazy);
        let plain = lazy.place(&program).unwrap().shift_count();
        let reassociated = lazy
            .reassociate(true)
            .place(&program)
            .unwrap()
            .shift_count();
        assert!(reassociated < plain, "{reassociated} vs {plain}");
        for (flags, shifts) in [(&[][..], plain), (&["--reassoc"][..], reassociated)] {
            let graph = run_on(&[&["graph", "x.loop", "--policy", "lazy"], flags].concat());
            assert!(
                graph.ends_with(&format!("\n{shifts} stream shifts\n")),
                "{graph}"
            );
            let table = run_on(&[&["policies", "x.loop"], flags].concat());
            let row = table.lines().find(|l| l.starts_with("lazy ")).unwrap();
            let column: usize = row.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert_eq!(column, shifts, "{table}");
        }
    }

    #[test]
    fn run_simd_engine_verifies_and_reports_isa() {
        let out = run(&opts(&["run", "x.loop", "--engine", "simd", "--seed", "7"])).unwrap();
        assert!(out.contains("verified: true"), "{out}");
        assert!(out.contains("engine: simd (std::arch intrinsics)"), "{out}");
        assert!(
            out.contains(&format!("backend: simd/{}", IsaLevel::detect())),
            "{out}"
        );
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("fused load(s)"), "{out}");
    }

    #[test]
    fn sweep_smoke_reports_all_seeds_and_the_isa() {
        let out = run(&opts(&["sweep", "x.loop", "--smoke", "--jobs", "2"])).unwrap();
        assert!(
            out.contains(&format!("backend: simd/{}", IsaLevel::detect())),
            "{out}"
        );
        assert!(out.contains("8/8 verified"), "{out}");
        assert!(out.contains("jobs/sec"));
        assert!(out.lines().count() >= 10); // header + 8 rows + summary
    }

    #[test]
    fn threads_flag_matches_jobs_alias() {
        let via_threads = opts(&["sweep", "x.loop", "--threads", "3"]);
        let via_jobs = opts(&["sweep", "x.loop", "--jobs", "3"]);
        assert_eq!(via_threads, via_jobs);
        let out = run(&opts(&["sweep", "x.loop", "--smoke", "--threads", "2"])).unwrap();
        assert!(out.contains("8/8 verified on 2 worker thread(s)"));
    }

    #[test]
    fn option_parsing_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |_: &str| -> Result<String, Box<dyn Error>> { Ok(LOOP.into()) };
        assert!(parse_args(&args(&["frobnicate", "x"]), &read).is_err());
        // Retired commands answer like any other unknown word.
        let err = parse_args(&args(&["profile", "x"]), &read).unwrap_err();
        assert!(
            err.to_string().starts_with("unknown command `profile`"),
            "{err}"
        );
        assert!(parse_args(&args(&["run"]), &read).is_err());
        assert!(parse_args(&args(&["run", "x", "--policy", "bogus"]), &read).is_err());
        assert!(parse_args(&args(&["run", "x", "--shape", "12"]), &read).is_err());
        assert!(parse_args(&args(&["run", "x", "--whatever"]), &read).is_err());
        assert!(parse_args(&args(&["run", "x", "--engine", "jit"]), &read).is_err());
        assert!(parse_args(&args(&["run", "x", "--engine", "native"]), &read).is_err());
        assert!(parse_args(&args(&["sweep", "x", "--jobs", "0"]), &read).is_err());
        assert!(parse_args(&args(&["sweep", "x", "--threads", "0"]), &read).is_err());
    }

    /// The prover prints its counterexamples as `simdize run` command
    /// lines; this crate is the one that has to accept them. A
    /// mutated quick proof yields one shrunk replay per harness — the
    /// flags of each must parse, and the engine ones must name `simd`.
    #[test]
    fn shrunk_replays_parse_as_run_commands() {
        let mut vopts = VerifyOptions::quick();
        vopts.mutation = Some(MutationKind::SpliceOffByOne);
        let source = "arrays { a: i32[64] @ 0; b: i32[64] @ 4; c: i32[64] @ 8; }
                      for i in 0..40 { a[i+1] = b[i] + c[i+2]; }";
        let report = simdize::prove_source("replay", source, &vopts).unwrap();
        assert!(report.violations.len() >= 2, "{}", report.render_text());
        for ce in &report.violations {
            let (echo, command) = ce.replay.split_once(" | ").expect("a pipeline");
            let piped = echo
                .strip_prefix("echo '")
                .and_then(|s| s.strip_suffix('\''));
            let piped = piped.expect("the loop source, quoted").to_string();
            let command = command.split("  #").next().unwrap();
            let words: Vec<&str> = command.split_whitespace().collect();
            let at = words
                .iter()
                .position(|w| *w == "simdize")
                .expect("the binary");
            assert!(
                words[..at].iter().all(|w| *w == "SIMDIZE_ISA=scalar"),
                "{command}"
            );
            let args: Vec<String> = words[at + 1..].iter().map(|w| w.to_string()).collect();
            let read = move |path: &str| -> Result<String, Box<dyn Error>> {
                assert_eq!(path, "-");
                Ok(piped.clone())
            };
            let opts = parse_args(&args, &read).unwrap_or_else(|e| panic!("{command}: {e}"));
            assert_eq!(opts.command, "run", "{command}");
            let engine = if ce.harness == "harness_codegen_equiv" {
                "interp"
            } else {
                "simd"
            };
            assert_eq!(opts.engine, engine, "{command}");
        }
    }

    /// The `cache.hits` attribute of a rendered request scope.
    fn cache_hits_attr(out: &str) -> u64 {
        let line = out
            .lines()
            .find(|l| l.starts_with("cache.hits "))
            .unwrap_or_else(|| panic!("no cache.hits attribute in {out}"));
        line["cache.hits".len()..].trim().parse().unwrap()
    }

    #[test]
    fn trace_text_json_and_chrome_out() {
        let out = run(&opts(&["trace", "x.loop"])).unwrap();
        assert!(out.contains("traced c"), "{out}");
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("policy"), "{out}");
        assert!(out.contains("== spans =="), "{out}");
        assert!(!out.contains("== metrics =="), "{out}");
        assert!(cache_hits_attr(&out) > 0, "{out}");
        let json = run(&opts(&["trace", "x.loop", "--json"])).unwrap();
        assert!(
            json.starts_with("{\"schema\":\"simdize-trace/v1\""),
            "{json}"
        );
        assert!(json.contains("\"verb\":\"trace\""), "{json}");
        assert!(json.contains("\"policy\":\"dominant\""), "{json}");
        assert!(json.contains("\"name\":\"parse\""), "{json}");
        // --chrome-out writes a loadable trace-event file alongside.
        let path =
            std::env::temp_dir().join(format!("simdize-cli-chrome-{}.json", std::process::id()));
        let out = run(&opts(&[
            "trace",
            "x.loop",
            "--chrome-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("chrome trace written to"), "{out}");
        let chrome = std::fs::read_to_string(&path).unwrap();
        assert!(
            chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            "{chrome}"
        );
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn telemetry_flag_appends_report() {
        let out = run(&opts(&[
            "sweep",
            "x.loop",
            "--smoke",
            "--threads",
            "1",
            "--telemetry",
        ]))
        .unwrap();
        assert!(out.contains("8/8 verified"), "{out}");
        assert!(out.contains("-- telemetry --"), "{out}");
        assert!(out.contains("== spans =="), "{out}");
        assert_eq!(cache_hits_attr(&out), 7, "{out}");
        // Without the flag, no telemetry section.
        let plain = run(&opts(&["sweep", "x.loop", "--smoke", "--threads", "1"])).unwrap();
        assert!(!plain.contains("-- telemetry --"), "{plain}");
    }

    #[test]
    fn sweep_summary_reports_cache_and_wall_time() {
        let out = run(&opts(&["sweep", "x.loop", "--smoke", "--threads", "1"])).unwrap();
        assert!(out.contains("wall time"), "{out}");
        assert!(
            out.contains("kernel cache 7 hit / 1 miss / 0 evict (88% hit rate, 1 resident"),
            "{out}"
        );
        assert!(out.contains("scratch reseed(s)"), "{out}");
    }

    #[test]
    fn serve_argument_parsing() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read =
            |_: &str| -> Result<String, Box<dyn Error>> { unreachable!("serve reads no loop") };
        let parsed = parse_args(
            &args(&[
                "serve",
                "127.0.0.1:0",
                "--workers",
                "3",
                "--queue",
                "7",
                "--flight-cap",
                "9",
                "--metrics-addr",
                "127.0.0.1:0",
            ]),
            &read,
        )
        .unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:0");
        assert_eq!((parsed.workers, parsed.queue), (3, 7));
        assert_eq!(parsed.flight_cap, 9);
        assert_eq!(parsed.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(parse_args(&args(&["serve"]), &read).is_err());
        assert!(parse_args(&args(&["serve", "a:1", "--workers", "0"]), &read).is_err());
        assert!(parse_args(&args(&["serve", "a:1", "--queue", "0"]), &read).is_err());
        assert!(parse_args(&args(&["serve", "a:1", "--flight-cap", "0"]), &read).is_err());
        // A malformed metrics address fails at run time with context.
        let bad = parse_args(
            &args(&["serve", "127.0.0.1:0", "--metrics-addr", "bogus"]),
            &read,
        )
        .unwrap();
        let err = run(&bad).unwrap_err().to_string();
        assert!(err.contains("--metrics-addr bogus"), "{err}");
    }

    #[test]
    fn serve_round_trip_over_tcp() {
        use std::io::{BufRead, BufReader, Write};
        let parsed = opts(&["serve", "127.0.0.1:0", "--workers", "1"]);
        // run() prints the listening line to stdout and blocks; drive
        // it from a second thread through a real socket. Port 0 means
        // we must learn the port from the server — bind ourselves via
        // the library to keep the test deterministic instead.
        use simdize_server::{Server, ServerConfig};
        let server = Server::bind(&parsed.addr, ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        writeln!(conn, r#"{{"v":1,"id":1,"cmd":"ping"}}"#).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\":true"), "{line}");
        writeln!(conn, r#"{{"v":1,"id":2,"cmd":"shutdown"}}"#).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.requests, 2);
    }

    #[test]
    fn bare_loop_names_resolve_from_subdirectories() {
        // Path-like arguments pass through untouched.
        assert_eq!(
            resolve_loop_path("loops/figure1.loop"),
            std::path::PathBuf::from("loops/figure1.loop")
        );
        assert_eq!(resolve_loop_path("./x"), std::path::PathBuf::from("./x"));
        // A bare name resolves against loops/ in an ancestor of the
        // current directory (tests run somewhere inside the checkout).
        let resolved = resolve_loop_path("figure1");
        assert!(
            resolved.ends_with("loops/figure1.loop") && resolved.exists(),
            "{resolved:?}"
        );
        // An unknown bare name falls through unchanged.
        assert_eq!(
            resolve_loop_path("no-such-loop-anywhere"),
            std::path::PathBuf::from("no-such-loop-anywhere")
        );
    }

    #[test]
    fn unaligned_target_flag() {
        let out = run(&opts(&["run", "x.loop", "--target", "unaligned"])).unwrap();
        assert!(out.contains("verified: true"));
        let code = run(&opts(&["compile", "x.loop", "--target", "unaligned"])).unwrap();
        assert!(code.contains("vloadu"));
    }
}
