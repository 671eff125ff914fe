//! The simdize regression benchmark: four fixed-work workloads, each
//! timed as the median over rounds, each layer timed from outside.
//!
//! `README.md` beside this package says why each workload exists and
//! what every metric means; `BENCHMARK.json` at the repository root
//! is the contract the driver holds later changes to.

pub mod bake_cold;
pub mod calib;
pub mod compile_cold;
pub mod corpus;
pub mod kernel_steady;
pub mod serve_hot;
pub mod stats;
pub mod sys;
pub mod tracer;

use calib::SpeedReadings;
use stats::{median, median_of, Round, RoundSummary};
use std::time::Instant;
use tracer::{RoundFold, Tracer};

/// The workload names, fixed: later issues refer to them.
pub const WORKLOADS: [&str; 4] = ["compile-cold", "bake-cold", "kernel-steady", "serve-hot"];

/// The end-to-end metrics, the same seven on every workload, with
/// their units. Printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("opd_gmean", "ops/datum"),
];

/// The span of each of the eight `kernel-steady` kernels, in execution
/// order; the kernel's name is what follows `engine.run.`.
pub const KERNEL_SPANS: [&str; 8] = [
    "engine.run.fig1",
    "engine.run.chain6",
    "engine.run.fir4",
    "engine.run.copy3",
    "engine.run.halfword",
    "engine.run.runtime",
    "engine.run.deinterleave",
    "engine.run.dot_product",
];

/// Layers reported as `<name>.p50_us` and `<name>.share`.
pub const LAYER_SPANS: [&str; 17] = [
    "ir.parse",
    "reorg.build",
    "reorg.place",
    "codegen.generate",
    "engine.fingerprint",
    "engine.predecode",
    "engine.bake",
    "engine.lower",
    "engine.cache_insert",
    "engine.cache_hit",
    "engine.run_short",
    "vm.diff",
    "vm.image_restore",
    "vm.image_seed",
    "vm.scalar_oracle",
    "core.compile",
    "server.wire_parse",
];

/// Every per-layer metric with its unit, in the order printed by a
/// `--trace 1` run. A metric of a layer the workload does not execute
/// reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for span in LAYER_SPANS {
        out.push((format!("{span}.p50_us"), "us"));
        out.push((format!("{span}.share"), "ratio"));
    }
    for (name, unit) in [
        ("engine.sweep1.p50_us", "us"),
        ("engine.batch_overhead.us", "us"),
        ("engine.batch_overhead.share", "ratio"),
        ("server.rtt.p50_us", "us"),
        ("server.ping_rtt.p50_us", "us"),
        ("server.overhead.us", "us"),
        ("server.overhead.share", "ratio"),
        ("harness.share", "ratio"),
        ("ir.src_bytes_per_op", "bytes"),
        ("reorg.shifts_per_stmt", "count"),
        ("codegen.insts_per_op", "count"),
        ("engine.fuse.fused_loads_per_op", "count"),
        ("engine.fuse.eliminated_per_op", "count"),
        ("engine.cache.evictions_per_op", "count"),
        ("engine.cache.hit_ratio", "ratio"),
        ("server.busy_ratio", "ratio"),
    ] {
        out.push((name.to_string(), unit));
    }
    for span in KERNEL_SPANS {
        out.push((format!("{span}.ns_per_elem"), "ns"));
        out.push((format!("{span}.frac_of_copy"), "ratio"));
        out.push((format!("{span}.share"), "ratio"));
    }
    for (name, unit) in [
        ("engine.run.gmean_ns_per_elem", "ns"),
        ("engine.run.fig1.dram_frac_of_copy", "ratio"),
        ("probe.copy_gb_per_s", "GB/s"),
        ("telemetry.trace_overhead", "ratio"),
        ("tail.op_p99_us", "us"),
        ("tail.op_max_us", "us"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// How much work one run does. Work is fixed by count, never by
/// duration: `--seconds` only picks the round count, and a round is
/// the same op schedule every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Times set-up (inputs, references, correctness pass, warm-up) is
    /// repeated; `setup_s` is the median.
    pub setups: usize,
    /// Untimed warm-up rounds, `W`; part of set-up.
    pub warmup: usize,
    /// Timed rounds, `R`.
    pub rounds: usize,
    /// Passes over the workload's schedule per round.
    pub passes: usize,
}

impl Sizing {
    /// The sizing of a real run: `W = 2`, `R = 2·seconds + 1` (41 at
    /// the contract's 20 s, odd so the median is a round that ran),
    /// three set-ups when `setup_s` is reported and one otherwise.
    pub fn standard(passes: usize, seconds: u64, trace: bool) -> Sizing {
        Sizing {
            setups: if trace { 1 } else { 3 },
            warmup: 2,
            rounds: 2 * seconds.max(1) as usize + 1,
            passes,
        }
    }
}

/// What identifies a run, printed with every result so two result
/// files can be checked for like-with-like before they are compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The ISA tier the engine dispatched to.
    pub isa: String,
    /// Hardware threads available.
    pub nproc: usize,
    /// The sizing used.
    pub sizing: Sizing,
    /// Ops in one round (per connection, for `serve-hot`).
    pub ops_per_round: usize,
    /// Load-generating threads.
    pub clients: usize,
    /// The machine speed every reported time was scaled by
    /// ([`calib`]); a reported time divided by it is the raw reading.
    pub speed: f64,
}

impl Context {
    /// The context of a run on this machine.
    pub fn new(
        workload: &'static str,
        seed: u64,
        trace: bool,
        sizing: Sizing,
        ops_per_round: usize,
        clients: usize,
        speed: f64,
    ) -> Context {
        Context {
            workload,
            seed,
            trace,
            isa: simdize::IsaLevel::detect().to_string(),
            nproc: sys::nproc(),
            sizing,
            ops_per_round,
            clients,
            speed,
        }
    }

    /// One JSON object on one line.
    pub fn render(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"isa\":\"{}\",\"simdize_isa_env\":false,\
             \"nproc\":{},\"clients\":{},\"R\":{},\"W\":{},\"ops_per_round\":{},\"setups\":{},\
             \"machine_speed\":{}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.isa,
            self.nproc,
            self.clients,
            self.sizing.rounds,
            self.sizing.warmup,
            self.ops_per_round,
            self.sizing.setups,
            self.speed,
        )
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What ran.
    pub context: Context,
    /// Checked ops executed: every set-up's correctness pass, the
    /// warm-up rounds and the timed rounds.
    pub attempted: u64,
    /// Ops whose check failed, errored, or were answered `busy`.
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Whether every op's output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The process exit status: non-zero on any failed op.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The last line of the run's output: the object the driver reads.
    pub fn render_result(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The per-layer metrics of a traced run, every declared name present,
/// in declared order, and 0 until the workload sets it.
#[derive(Debug, Clone)]
pub struct Layers {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Layers {
    fn default() -> Layers {
        Layers {
            metrics: per_layer().into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }
}

impl Layers {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name [`per_layer`] does not list: the output must
    /// stay exactly the set `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric `{name}`"))
            .1 = value;
    }

    /// Sets `<span>.p50_us` and `<span>.share` (self time over the
    /// total duration of the `root` spans) for each of `spans`, and
    /// returns the sum of the shares.
    pub fn set_spans(&mut self, folds: &[RoundFold], spans: &[&str], root: &str) -> f64 {
        let mut sum = 0.0;
        for span in spans {
            let share = tracer::share(folds, span, root);
            self.set(&format!("{span}.p50_us"), tracer::p50_us(folds, span));
            self.set(&format!("{span}.share"), share);
            sum += share;
        }
        sum
    }
}

/// The seven end-to-end metrics from the timed rounds of an untraced
/// run.
pub fn end_to_end(
    rounds: &[RoundSummary],
    ops_per_s: f64,
    cpu_secs: f64,
    timed_ops: u64,
    setup_secs: &[f64],
    opd_gmean: f64,
) -> Vec<(String, f64, &'static str)> {
    let values = [
        ops_per_s,
        median_of(rounds, |r| r.p50_us),
        median_of(rounds, |r| r.p90_us),
        cpu_secs * 1e6 / timed_ops as f64,
        sys::peak_rss_mb(),
        median(setup_secs),
        opd_gmean,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), v, *unit))
        .collect()
}

/// The three per-layer metrics every traced run derives from its own
/// rounds: tracing overhead (traced over untraced op rate) and the
/// latency tail beyond the gated p90.
pub fn set_overhead_and_tail(layers: &mut Layers, plain: &[RoundSummary], overhead: f64) {
    layers.set("telemetry.trace_overhead", overhead);
    layers.set("tail.op_p99_us", median_of(plain, |r| r.p99_us));
    let max = plain.iter().map(|r| r.max_us).fold(0.0, f64::max);
    layers.set("tail.op_max_us", max);
}

/// Scales every time in `metrics` to a machine running at speed 1.0
/// (see [`calib`]): measured at speed 0.8, an op that took 100 µs
/// counts as 80 µs and a rate of 8000/s as 10000/s. Picked by unit, so
/// counts, ratios and sizes pass through.
pub fn at_unit_speed(metrics: &mut [(String, f64, &'static str)], speed: f64) {
    for (_, value, unit) in metrics {
        match *unit {
            "s" | "us" | "ns" => *value *= speed,
            "1/s" | "GB/s" => *value /= speed,
            _ => {}
        }
    }
}

/// A workload that runs in this process on one thread.
pub trait InProc: Sized {
    /// The workload's name in [`WORKLOADS`].
    const NAME: &'static str;
    /// Passes over the schedule per round, sized so that a round takes
    /// about half a second on the commit that introduced the benchmark.
    const PASSES: usize;

    /// Builds inputs and references from `seed` and runs every op
    /// once, checked against the independent scalar oracle. Returns the
    /// workload and how many of those ops failed.
    fn setup(seed: u64) -> (Self, u64);

    /// Distinct ops; a pass runs each once, in the seed's order.
    fn ops(&self) -> usize;

    /// Runs op `i` with its cheap check; `false` is a failed op.
    fn op(&mut self, i: usize) -> bool;

    /// [`op`](InProc::op) with one span per layer call.
    fn op_traced(&mut self, i: usize, t: &mut Tracer) -> bool;

    /// A check deferred to the end of a round, outside its timing;
    /// `false` fails every op of the round.
    fn round_check(&mut self) -> bool {
        true
    }

    /// Geometric mean of operations per datum over the distinct
    /// programs: the paper's quality measure.
    fn opd_gmean(&self) -> f64;

    /// Fills in the workload's per-layer metrics from the traced
    /// rounds' folds.
    fn layers(&mut self, folds: &[RoundFold], out: &mut Layers);
}

/// Whether round `r` of a run records spans: a traced run alternates
/// plain and traced rounds, so the overhead ratio compares neighbours
/// in time.
pub fn is_traced_round(trace: bool, r: usize) -> bool {
    trace && r % 2 == 1
}

/// Runs one round: `passes` passes over `order`. Returns the round and
/// its failed-op count.
fn run_round<W: InProc>(
    w: &mut W,
    order: &[usize],
    passes: usize,
    mut tracer: Option<&mut Tracer>,
) -> (Round, u64) {
    let mut lat_ns = Vec::with_capacity(order.len() * passes);
    let mut failed = 0u64;
    let start = Instant::now();
    for _ in 0..passes {
        for &i in order {
            let t0 = Instant::now();
            let ok = match tracer.as_deref_mut() {
                Some(t) => t.op(lat_ns.len() as u32, "op", |t| w.op_traced(i, t)),
                None => w.op(i),
            };
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            failed += u64::from(!ok);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    if !w.round_check() {
        failed = lat_ns.len() as u64;
    }
    if let Some(t) = tracer {
        t.end_round();
    }
    (Round { secs, lat_ns }, failed)
}

/// Runs an in-process workload start to finish. `corrupt` is called on
/// the workload after set-up and before the timed rounds; tests use it
/// to damage a reference and watch the run fail.
pub fn run_inproc<W: InProc>(
    seed: u64,
    sizing: Sizing,
    trace: bool,
    corrupt: impl FnOnce(&mut W),
) -> Outcome {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup_secs = Vec::with_capacity(sizing.setups);
    let mut kept: Option<W> = None;
    let mut order = Vec::new();
    for _ in 0..sizing.setups.max(1) {
        // Drop the previous instance first: peak memory is one workload's.
        drop(kept.take());
        let t0 = Instant::now();
        let (mut w, setup_failed) = W::setup(seed);
        attempted += w.ops() as u64;
        failed += setup_failed;
        order = corpus::schedule(seed, w.ops());
        for _ in 0..sizing.warmup {
            let (round, f) = run_round(&mut w, &order, sizing.passes, None);
            attempted += round.lat_ns.len() as u64;
            failed += f;
        }
        setup_secs.push(t0.elapsed().as_secs_f64());
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");
    corrupt(&mut w);

    let mut tracer = Tracer::new(Instant::now(), 1);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut speed = SpeedReadings::default();
    let cpu0 = sys::cpu_seconds();
    for r in 0..sizing.rounds {
        speed.take();
        let this_traced = is_traced_round(trace, r);
        let (round, f) = run_round(
            &mut w,
            &order,
            sizing.passes,
            this_traced.then_some(&mut tracer),
        );
        attempted += round.lat_ns.len() as u64;
        failed += f;
        if this_traced {
            traced.push(round.summary());
        } else {
            plain.push(round.summary());
        }
    }
    speed.take();
    let cpu_secs = sys::cpu_seconds() - cpu0 - speed.cpu_secs();

    let ops_per_round = order.len() * sizing.passes;
    let mut metrics = if trace {
        let mut layers = Layers::default();
        if !traced.is_empty() {
            let overhead = median_of(&traced, |r| r.rate) / median_of(&plain, |r| r.rate);
            set_overhead_and_tail(&mut layers, &plain, overhead);
            w.layers(tracer.folds(), &mut layers);
            write_trace(W::NAME, &[tracer.kept()]);
        }
        layers.metrics
    } else {
        end_to_end(
            &plain,
            median_of(&plain, |r| r.rate),
            cpu_secs,
            (sizing.rounds * ops_per_round) as u64,
            &setup_secs,
            w.opd_gmean(),
        )
    };
    at_unit_speed(&mut metrics, speed.median());
    Outcome {
        context: Context::new(
            W::NAME,
            seed,
            trace,
            sizing,
            ops_per_round,
            1,
            speed.median(),
        ),
        attempted,
        failed,
        metrics,
    }
}

/// Where the traced run of `workload` leaves its Chrome trace.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// Writes the kept spans of `threads` to [`trace_path`]. A trace that
/// cannot be written is reported and does not fail the run: the
/// metrics were computed from memory.
pub fn write_trace(workload: &str, threads: &[(u32, &[tracer::Rec])]) {
    let path = trace_path(workload);
    let doc = tracer::render_chrome(workload, threads);
    let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, doc));
    match written {
        Ok(()) => println!("trace {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

/// Runs `workload` with the standard sizing for `seconds`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    fn go<W: InProc>(seed: u64, seconds: u64, trace: bool) -> Outcome {
        run_inproc::<W>(
            seed,
            Sizing::standard(W::PASSES, seconds, trace),
            trace,
            |_| (),
        )
    }
    match workload {
        "compile-cold" => Ok(go::<compile_cold::CompileCold>(seed, seconds, trace)),
        "bake-cold" => Ok(go::<bake_cold::BakeCold>(seed, seconds, trace)),
        "kernel-steady" => Ok(go::<kernel_steady::KernelSteady>(seed, seconds, trace)),
        "serve-hot" => Ok(serve_hot::run(
            seed,
            Sizing::standard(serve_hot::PASSES, seconds, trace),
            trace,
            |_| (),
        )),
        other => Err(format!(
            "unknown workload `{other}` (expected {})",
            WORKLOADS.join("|")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` and the program must name the same workloads
    /// and metrics with the same units, or the driver refuses the run.
    #[test]
    fn benchmark_json_declares_exactly_what_the_program_prints() {
        use simdize_telemetry::json::{parse, Json};
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("`{key}` is a list"))
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(list("workloads", "name"), WORKLOADS);
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let e2e_units: Vec<String> = END_TO_END.iter().map(|m| m.1.to_string()).collect();
        assert_eq!(list("end_to_end", "name"), e2e);
        assert_eq!(list("end_to_end", "unit"), e2e_units);
        let (names, units): (Vec<String>, Vec<String>) = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .unzip();
        assert_eq!(list("per_layer", "name"), names);
        assert_eq!(list("per_layer", "unit"), units);
        let paths = list_strings(&doc, "paths");
        assert_eq!(paths, ["benchmark"]);
        assert!(list_strings(&doc, "command")
            .iter()
            .all(|a| !a.starts_with('/')));
    }

    fn list_strings(doc: &simdize_telemetry::json::Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("list")
            .iter()
            .map(|s| s.as_str().expect("string").to_string())
            .collect()
    }

    #[test]
    fn scaling_to_unit_speed_goes_by_unit() {
        let mut m = vec![
            ("op_p50_us".to_string(), 100.0, "us"),
            ("ops_per_s".to_string(), 8000.0, "1/s"),
            ("setup_s".to_string(), 2.0, "s"),
            ("opd_gmean".to_string(), 2.5, "ops/datum"),
            ("peak_rss_mb".to_string(), 5.0, "MB"),
            ("harness.share".to_string(), 0.04, "ratio"),
        ];
        // The machine ran at 0.8 of its speed.
        at_unit_speed(&mut m, 0.8);
        let values: Vec<f64> = m.iter().map(|m| m.1).collect();
        assert_eq!(values, [80.0, 10000.0, 1.6, 2.5, 5.0, 0.04]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        use simdize_telemetry::json::parse;
        let outcome = Outcome {
            context: Context {
                workload: "compile-cold",
                seed: 1,
                trace: false,
                isa: "avx2".into(),
                nproc: 2,
                sizing: Sizing::standard(10, 20, false),
                ops_per_round: 5120,
                clients: 1,
                speed: 0.97,
            },
            attempted: 10,
            failed: 1,
            metrics: vec![("ops_per_s".into(), 1234.5678, "1/s")],
        };
        assert_eq!(outcome.context.sizing.rounds, 41);
        assert_eq!(outcome.exit_code(), 1);
        let doc = parse(&outcome.render_result()).unwrap();
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
        let m = doc.get("metrics").and_then(|m| m.get("ops_per_s")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1234.5678));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("1/s"));
        assert!(parse(&outcome.context.render()).is_ok());
    }
}
