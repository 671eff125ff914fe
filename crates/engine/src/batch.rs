//! Parallel batch sweeps: run many `(program, memory seed)` jobs across
//! scoped worker threads, each job executed by the engine and verified
//! against the scalar oracle, with per-job [`RunStats`].
//!
//! The runner uses `std::thread::scope` so jobs can be borrowed rather
//! than moved, and a shared atomic cursor so threads self-schedule —
//! long jobs (large trip counts) don't stall a statically partitioned
//! worker.
//!
//! Sweeps repeat the same handful of programs over many seeds, so
//! compilation work is shared:
//!
//! * each *distinct* program (by structural equality) is fingerprinted
//!   and checked exactly once into a [`Template`] before the workers
//!   start;
//! * each worker keeps one scratch engine image and one scratch oracle
//!   image, re-seeded in place per job ([`MemoryImage::reseed`])
//!   instead of allocating fresh images;
//! * baked kernels live in a sharded, LRU-bounded [`KernelCache`]
//!   keyed by *(program fingerprint, runtime input, memory layout, ISA
//!   tier)* and shared by **every** worker — the first worker to bake a
//!   kernel makes it a hit for all of them. [`run_sweep_shared`]
//!   accepts an external cache so a long-running caller (the `simdize
//!   serve` server) can reuse baked kernels *across* sweeps too.
//!
//! Every job runs on the tier [`IsaLevel::detect`] reports when the
//! sweep starts. A caller with exactly one job ([`run_job`]) runs the
//! same job body on its own thread, and a caller that keeps a
//! [`Template`] across requests (the server's template memo) runs it
//! again with [`Template::run`] or [`Template::sweep`]: one job body
//! serves all of them.

use crate::cache::{program_fingerprint, KernelCache, Lookup};
use crate::kernel::{KernelOptions, PredecodedKernel};
use crate::native::{IsaLevel, SimdKernel};
use simdize_codegen::SimdProgram;
use simdize_ir::VectorShape;
use simdize_telemetry as telemetry;
use simdize_vm::{run_scalar, ExecError, MemoryImage, RunInput, RunStats};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// One sweep job: a compiled program plus the seed that determines its
/// memory image (runtime misalignments and contents) and the runtime
/// inputs for the invocation.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The program to execute.
    pub program: SimdProgram,
    /// Seed for [`MemoryImage::with_seed`].
    pub seed: u64,
    /// Runtime trip count and parameter values.
    pub input: RunInput,
}

impl SweepJob {
    /// A job for `program` on the image seeded by `seed`, with the trip
    /// count taken from the loop when compile-time known and from `ub`
    /// otherwise.
    pub fn new(program: SimdProgram, seed: u64, ub: u64) -> SweepJob {
        SweepJob {
            input: input_for(&program, ub),
            program,
            seed,
        }
    }
}

/// The runtime input of a job of `program`: the loop's trip count when
/// it is known at compile time, `ub` otherwise.
fn input_for(program: &SimdProgram, ub: u64) -> RunInput {
    RunInput::with_ub(program.source().trip().known().unwrap_or(ub))
}

/// One distinct program, prepared once for every job that runs it: the
/// program, its fingerprint (the kernel cache's program key) and the
/// verdict of its [`PredecodedKernel`] shape check. A sweep borrows
/// each distinct program from its jobs; a caller that keeps a template across requests owns
/// it (`Template<'static>`), so a later request runs the program again
/// without compiling, fingerprinting or cloning it.
#[derive(Debug)]
pub struct Template<'p> {
    program: Cow<'p, SimdProgram>,
    fingerprint: u64,
    shape: Result<(), ExecError>,
}

impl<'p> Template<'p> {
    /// Fingerprints and checks `program` (neither allocates).
    pub fn new(program: Cow<'p, SimdProgram>) -> Template<'p> {
        let fingerprint = program_fingerprint(&program);
        let shape = PredecodedKernel::new(&program).map(drop);
        Template {
            program,
            fingerprint,
            shape,
        }
    }

    /// The program.
    pub fn program(&self) -> &SimdProgram {
        &self.program
    }

    /// The program's fingerprint ([`program_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The runtime input of a job: the loop's trip count when it is
    /// known at compile time, `ub` otherwise (as [`SweepJob::new`]).
    pub fn input(&self, ub: u64) -> RunInput {
        input_for(&self.program, ub)
    }

    /// Runs and verifies one job of this program on the caller's
    /// thread: the job body every sweep worker runs, with no worker
    /// thread. A request that is one job (the server's `run`, the
    /// CLI's `run --engine simd`) calls this, or [`run_job`], instead
    /// of a sweep of length one: same [`SweepOutcome`], same cache
    /// traffic.
    ///
    /// # Errors
    ///
    /// Program-check, bake or execution faults, as a sweep reports per
    /// job.
    pub fn run(
        &self,
        seed: u64,
        input: &RunInput,
        cache: &KernelCache,
    ) -> Result<JobRun, ExecError> {
        let mut tally = WorkerTally::default();
        let run = run_prepared(
            self,
            seed,
            input,
            cache,
            IsaLevel::detect(),
            &mut Scratch::default(),
            &mut tally,
        );
        tag_cache_traffic(tally.cache_hits, tally.cache_misses);
        run
    }

    /// [`run_sweep_shared`] over one job of this program per seed, all
    /// on `input`, without a [`SweepJob`] (and so a program clone) per
    /// seed.
    pub fn sweep(
        &self,
        seeds: impl IntoIterator<Item = u64>,
        input: &RunInput,
        opts: SweepOptions,
        cache: &KernelCache,
    ) -> (Vec<Result<SweepOutcome, ExecError>>, SweepStats) {
        let slots: Vec<Slot> = seeds.into_iter().map(|seed| (0, seed, input)).collect();
        if slots.is_empty() {
            return (Vec::new(), SweepStats::empty());
        }
        let _span = telemetry::span("sweep");
        sweep_slots(std::slice::from_ref(self), &slots, opts, cache)
    }

    fn predecoded(&self) -> Result<PredecodedKernel<'_>, ExecError> {
        let program = &*self.program;
        self.shape.clone().map(|()| PredecodedKernel { program })
    }
}

/// The result of one sweep job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// The job's memory seed.
    pub seed: u64,
    /// Dynamic instruction counts of the engine execution.
    pub stats: RunStats,
    /// Whether the engine's memory image matched the scalar oracle's
    /// byte for byte.
    pub verified: bool,
    /// Data elements produced (`statements × trip count`).
    pub data_produced: u64,
    /// The idealistic scalar instruction count for the same run.
    pub scalar_ideal: u64,
}

impl SweepOutcome {
    /// Speedup of the engine-executed simdized loop over the idealistic
    /// scalar baseline, in the paper's OPD terms.
    pub fn speedup(&self) -> f64 {
        self.scalar_ideal as f64 / self.stats.total() as f64
    }
}

/// The tier a sweep's jobs run on: the one [`IsaLevel::detect`]
/// reports when the sweep starts.
// One variant, kept (with [`SweepOptions::backend`]) because the
// benchmark package (`benchmark/`, frozen between benchmark PRs) spells
// `SweepOptions::new(n).backend(SweepBackend::Simd)`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepBackend {
    /// The detected `std::arch` tier.
    #[default]
    Simd,
}

/// How a sweep schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker thread count (clamped to `[1, jobs.len()]`).
    pub threads: usize,
}

impl SweepOptions {
    /// A sweep over `threads` worker threads.
    pub fn new(threads: usize) -> SweepOptions {
        SweepOptions { threads }
    }

    /// Does nothing: there is one backend. See [`SweepBackend`].
    #[doc(hidden)]
    pub fn backend(self, _backend: SweepBackend) -> SweepOptions {
        self
    }
}

/// Per-worker scratch images, re-seeded in place per job.
#[derive(Default)]
struct Scratch {
    engine: Option<MemoryImage>,
    oracle: Option<MemoryImage>,
}

/// One worker's job results (tagged with their original indices) plus
/// its local event tally.
type WorkerPartial = (Vec<(usize, Result<SweepOutcome, ExecError>)>, WorkerTally);

/// Per-worker event counts, merged into [`SweepStats`] when the sweep
/// finishes.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerTally {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    scratch_reseeds: u64,
}

/// What a sweep's caches and workers actually did, reported by
/// [`run_sweep_collect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Worker threads actually spawned (after clamping to the job
    /// count).
    pub workers: usize,
    /// Jobs whose baked kernel came out of the cache.
    pub cache_hits: u64,
    /// Jobs that had to bake a kernel.
    pub cache_misses: u64,
    /// Kernels displaced by LRU eviction during this sweep.
    pub cache_evictions: u64,
    /// Kernels resident per cache shard when the sweep finished.
    pub cache_occupancy: Vec<usize>,
    /// Jobs that re-seeded an existing scratch image instead of
    /// allocating a fresh one.
    pub scratch_reseeds: u64,
}

impl SweepStats {
    /// Baked-kernel cache hits as a fraction of all jobs, or 0 for an
    /// empty sweep.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Kernels resident across every shard when the sweep finished.
    pub fn cache_occupied(&self) -> usize {
        self.cache_occupancy.iter().sum()
    }

    fn empty() -> SweepStats {
        SweepStats {
            workers: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_occupancy: Vec::new(),
            scratch_reseeds: 0,
        }
    }
}

/// Runs every job, distributing them over `opts.threads` scoped worker
/// threads, and returns per-job outcomes in job order, with what the
/// sweep's cache and workers did ([`SweepStats`]) — kernel-cache hits,
/// misses and evictions, shard occupancy and scratch-image reseeds.
/// Each job executes its program on the image seeded by its seed and
/// differentially verifies the result against [`run_scalar`] on an
/// identical image.
///
/// A fresh sweep-local [`KernelCache`] is built; use
/// [`run_sweep_shared`] to reuse kernels across sweeps.
pub fn run_sweep_collect(
    jobs: &[SweepJob],
    opts: SweepOptions,
) -> (Vec<Result<SweepOutcome, ExecError>>, SweepStats) {
    run_sweep_shared(jobs, opts, &KernelCache::new(opts.threads.clamp(1, 16), 32))
}

/// Like [`run_sweep_collect`], but baked kernels go through `cache`,
/// which outlives the sweep: a server handling many sweep requests (or
/// a bench repeating a sweep) hits on every kernel the previous
/// request already baked. The reported [`SweepStats`] count only this
/// sweep's hits/misses/evictions; `cache_occupancy` reflects the
/// cache's (global) state as the sweep finished.
pub fn run_sweep_shared(
    jobs: &[SweepJob],
    opts: SweepOptions,
    cache: &KernelCache,
) -> (Vec<Result<SweepOutcome, ExecError>>, SweepStats) {
    if jobs.is_empty() {
        return (Vec::new(), SweepStats::empty());
    }
    let _span = telemetry::span("sweep");
    // One check (and one fingerprint) per distinct program, shared
    // by every worker.
    let mut templates: Vec<Template> = Vec::new();
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let idx = match templates.iter().position(|t| t.program() == &job.program) {
            Some(idx) => idx,
            None => {
                templates.push(Template::new(Cow::Borrowed(&job.program)));
                templates.len() - 1
            }
        };
        slots.push((idx, job.seed, &job.input));
    }
    sweep_slots(&templates, &slots, opts, cache)
}

/// One job of a sweep: the index of its template, its seed and its
/// runtime input.
type Slot<'j> = (usize, u64, &'j RunInput);

/// The sweep runner behind [`run_sweep_shared`] and [`Template::sweep`]:
/// `slots` (nonempty) over `opts.threads` scoped workers, each running
/// the one job body.
fn sweep_slots(
    templates: &[Template<'_>],
    slots: &[Slot<'_>],
    opts: SweepOptions,
    cache: &KernelCache,
) -> (Vec<Result<SweepOutcome, ExecError>>, SweepStats) {
    let threads = opts.threads.clamp(1, slots.len());
    // One ISA detection per sweep, not per job: the env override and
    // feature probes are stable for the process lifetime.
    let isa = IsaLevel::detect();

    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    // If the sweep runs on behalf of a request scope, credit the
    // worker threads' spans to that request; without the context they
    // would be inert.
    let trace_ctx = telemetry::current_context();
    let partials: Vec<WorkerPartial> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let trace_ctx = trace_ctx.clone();
                s.spawn(move || {
                    let _adopted = trace_ctx.map(telemetry::adopt_context);
                    let mut scratch = Scratch::default();
                    let mut tally = WorkerTally::default();
                    let mut mine = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(template, seed, input)) = slots.get(idx) else {
                            break;
                        };
                        let _span = telemetry::span("sweep.job");
                        let res = run_prepared(
                            &templates[template],
                            seed,
                            input,
                            cache,
                            isa,
                            &mut scratch,
                            &mut tally,
                        );
                        mine.push((idx, res.map(|(outcome, ..)| outcome)));
                    }
                    (mine, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut results: Vec<Option<Result<SweepOutcome, ExecError>>> =
        (0..slots.len()).map(|_| None).collect();
    let mut stats = SweepStats {
        workers: threads,
        cache_occupancy: cache.stats().occupancy,
        ..SweepStats::empty()
    };
    for (outcomes, tally) in partials {
        for (idx, outcome) in outcomes {
            results[idx] = Some(outcome);
        }
        stats.cache_hits += tally.cache_hits;
        stats.cache_misses += tally.cache_misses;
        stats.cache_evictions += tally.cache_evictions;
        stats.scratch_reseeds += tally.scratch_reseeds;
    }
    tag_cache_traffic(stats.cache_hits, stats.cache_misses);
    let results = results
        .into_iter()
        .map(|r| r.expect("every job index claimed exactly once"))
        .collect();
    (results, stats)
}

/// Tags the requesting scope with one call's kernel-cache traffic
/// (`cache.hits` / `cache.misses`). One helper, so a one-job request
/// and a sweep report alike; the cache's lifetime totals are
/// [`KernelCache::stats`].
fn tag_cache_traffic(hits: u64, misses: u64) {
    telemetry::tag("cache.hits", hits);
    telemetry::tag("cache.misses", misses);
}

/// What one job produced: its outcome, the kernel it ran (the cache's
/// own handle) and what the cache lookup did.
pub type JobRun = (SweepOutcome, Arc<SimdKernel>, Lookup);

/// Runs and verifies one job on the caller's thread:
/// [`Template::run`] on the job's program, borrowed.
///
/// # Errors
///
/// Program-check, bake or execution faults, as a sweep reports per job.
pub fn run_job(job: &SweepJob, cache: &KernelCache) -> Result<JobRun, ExecError> {
    Template::new(Cow::Borrowed(&job.program)).run(job.seed, &job.input, cache)
}

/// The job body: scratch images re-seeded in place
/// ([`MemoryImage::reseed`] rebuilds exactly the image `with_seed`
/// would), the kernel out of `cache` — reused only when the program,
/// the runtime input, the memory layout and the tier all match — and
/// the result diffed against the scalar oracle.
fn run_prepared(
    template: &Template,
    seed: u64,
    input: &RunInput,
    cache: &KernelCache,
    isa: IsaLevel,
    scratch: &mut Scratch,
    tally: &mut WorkerTally,
) -> Result<JobRun, ExecError> {
    let pre = template.predecoded()?;
    let source = template.program().source();
    let shape = VectorShape::V16;

    let engine_img = match &mut scratch.engine {
        Some(img) => {
            img.reseed(source, shape, seed);
            tally.scratch_reseeds += 1;
            img
        }
        slot => slot.insert(MemoryImage::with_seed(source, shape, seed)),
    };
    let oracle_img = match &mut scratch.oracle {
        Some(img) => {
            // Copy the freshly seeded engine image instead of reseeding
            // independently: a memcpy is far cheaper than a second
            // element-by-element random fill.
            img.copy_from(engine_img);
            img
        }
        slot => slot.insert(engine_img.clone()),
    };

    let (kernel, lookup) = cache.get_or_bake_simd(
        template.fingerprint(),
        &pre,
        engine_img,
        input,
        &KernelOptions::new(),
        isa,
    )?;
    if lookup.hit {
        tally.cache_hits += 1;
    } else {
        tally.cache_misses += 1;
    }
    tally.cache_evictions += u64::from(lookup.evicted);
    let stats = kernel.run(engine_img)?;

    let ub = source.trip().known().unwrap_or(input.ub);
    let scalar_ideal = run_scalar(source, oracle_img, ub, &input.params)?;
    let outcome = SweepOutcome {
        seed,
        stats,
        verified: engine_img.first_difference(oracle_img).is_none(),
        data_produced: source.stmts().len() as u64 * ub,
        scalar_ideal,
    };
    Ok((outcome, kernel, lookup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_codegen::{generate, CodegenOptions, ReuseMode};
    use simdize_ir::parse_program;
    use simdize_reorg::{Policy, ReorgGraph};

    fn program(src: &str) -> SimdProgram {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Zero)
            .unwrap();
        generate(
            &g,
            &CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline),
        )
        .unwrap()
    }

    const RUNTIME: &str = "arrays { a: i32[512] @ ?; b: i32[512] @ ?; c: i32[512] @ ?; }
                           for i in 0..ub { a[i] = b[i+1] + c[i+3]; }";

    const KNOWN: &str = "arrays { a: i32[512] @ 0; b: i32[512] @ 4; }
                         for i in 0..ub { a[i] = b[i+1]; }";

    #[test]
    fn sweep_verifies_every_seed() {
        let prog = program(RUNTIME);
        let jobs: Vec<SweepJob> = (0..24)
            .map(|seed| SweepJob::new(prog.clone(), seed, 500))
            .collect();
        let outcomes = run_sweep_collect(&jobs, SweepOptions::new(4)).0;
        assert_eq!(outcomes.len(), 24);
        for (seed, outcome) in outcomes.into_iter().enumerate() {
            let o = outcome.unwrap();
            assert_eq!(o.seed, seed as u64);
            assert!(o.verified, "seed {seed} failed verification");
            assert!(o.speedup() > 1.0, "seed {seed} not profitable");
            assert_eq!(o.data_produced, 500);
        }
    }

    #[test]
    fn thread_counts_agree() {
        let prog = program(RUNTIME);
        let jobs: Vec<SweepJob> = (0..9)
            .map(|seed| SweepJob::new(prog.clone(), seed * 7, 200))
            .collect();
        let serial = run_sweep_collect(&jobs, SweepOptions::new(1)).0;
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                run_sweep_collect(&jobs, SweepOptions::new(threads)).0,
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn reseeded_scratch_and_cached_kernels_match_fresh_runs() {
        // KNOWN alignments: every seed shares one layout, so one baked
        // kernel serves every job. RUNTIME alignments: layouts differ
        // per seed, exercising re-bake over reseeded scratch. Either
        // way each outcome must equal a from-scratch compile and run
        // on freshly allocated images.
        for src in [KNOWN, RUNTIME] {
            let prog = program(src);
            let jobs: Vec<SweepJob> = (0..16)
                .map(|seed| SweepJob::new(prog.clone(), seed * 3 + 1, 300))
                .collect();
            for (job, outcome) in jobs
                .iter()
                .zip(run_sweep_collect(&jobs, SweepOptions::new(3)).0)
            {
                let outcome = outcome.unwrap();
                assert!(outcome.verified);
                let mut image = MemoryImage::with_seed(prog.source(), VectorShape::V16, job.seed);
                let kernel = crate::SimdKernel::compile(&prog, &image, &job.input).unwrap();
                assert_eq!(
                    kernel.run(&mut image).unwrap(),
                    outcome.stats,
                    "seed {}",
                    job.seed
                );
            }
        }
    }

    #[test]
    fn mixed_program_sweep_interleaves_templates() {
        // Alternating templates on one worker force the scratch images
        // to be re-laid-out between jobs; the cache holds one kernel
        // per (program, layout) throughout.
        let a = program(KNOWN);
        let b = program(
            "arrays { a: i32[512] @ 0; c: i32[512] @ 8; }
                         for i in 0..ub { a[i] = c[i+2]; }",
        );
        let jobs: Vec<SweepJob> = (0..12)
            .map(|k| {
                let prog = if k % 2 == 0 { a.clone() } else { b.clone() };
                SweepJob::new(prog, k as u64, 250)
            })
            .collect();
        let (outcomes, stats) = run_sweep_collect(&jobs, SweepOptions::new(1));
        assert!(outcomes.into_iter().all(|o| o.unwrap().verified));
        assert_eq!(stats.cache_misses, 2, "one bake per program");
        assert_eq!(stats.cache_hits, 10);
        assert_eq!(stats.cache_occupied(), 2);
    }

    #[test]
    fn external_cache_carries_hits_across_sweeps() {
        let prog = program(KNOWN);
        let jobs: Vec<SweepJob> = (0..6)
            .map(|seed| SweepJob::new(prog.clone(), seed, 300))
            .collect();
        let cache = KernelCache::new(4, 16);
        // One worker: two could both miss the first touch and bake twice.
        let (_, first) = run_sweep_shared(&jobs, SweepOptions::new(1), &cache);
        assert_eq!(first.cache_misses, 1);
        // The second sweep over the same program misses nothing: the
        // kernel survived in the shared cache.
        let (outcomes, second) = run_sweep_shared(&jobs, SweepOptions::new(2), &cache);
        assert_eq!(second.cache_misses, 0, "{second:?}");
        assert_eq!(second.cache_hits, 6);
        for o in outcomes {
            assert!(o.unwrap().verified);
        }
    }

    #[test]
    fn run_job_is_a_one_job_sweep_without_the_sweep() {
        let one = SweepOptions::new(1);
        for src in [KNOWN, RUNTIME] {
            let job = SweepJob::new(program(src), 9, 300);
            let jobs = std::slice::from_ref(&job);
            let (swept_cache, direct_cache) = (KernelCache::new(4, 16), KernelCache::new(4, 16));
            let mut kernels = Vec::new();
            for round in 0..2 {
                let (swept, stats) = run_sweep_shared(jobs, one, &swept_cache);
                let (outcome, kernel, lookup) = run_job(&job, &direct_cache).unwrap();
                assert_eq!(Ok(&outcome), swept[0].as_ref());
                assert!(outcome.verified);
                assert_eq!((lookup.hit, lookup.evicted), (round == 1, false));
                assert_eq!(stats.cache_hits, u64::from(lookup.hit));
                assert_eq!(stats.cache_misses, u64::from(!lookup.hit));
                assert_eq!(direct_cache.stats(), swept_cache.stats());
                kernels.push(kernel);
            }
            // A hit hands out the cache's own kernel, and the two paths
            // key alike: each hits on the entry the other baked.
            assert!(Arc::ptr_eq(&kernels[0], &kernels[1]));
            assert!(run_job(&job, &swept_cache).unwrap().2.hit);
            assert_eq!(run_sweep_shared(jobs, one, &direct_cache).1.cache_hits, 1);
        }
    }

    #[test]
    fn a_kept_template_runs_and_sweeps_as_its_jobs_do() {
        for src in [KNOWN, RUNTIME] {
            let prog = program(src);
            let template = Template::new(Cow::Owned(prog.clone()));
            let input = template.input(300);
            let jobs: Vec<SweepJob> = (0..5)
                .map(|seed| SweepJob::new(prog.clone(), seed, 300))
                .collect();
            assert_eq!(jobs[0].input, input);
            let cache = KernelCache::new(4, 16);
            let (swept, _) = run_sweep_shared(&jobs, SweepOptions::new(2), &cache);
            let (kept, stats) = template.sweep(0..5, &input, SweepOptions::new(2), &cache);
            assert_eq!(kept, swept);
            // The kept template keys the cache as its borrowed twin did.
            assert_eq!(stats.cache_misses, 0, "{stats:?}");
            let (outcome, _, lookup) = template.run(3, &input, &cache).unwrap();
            assert_eq!(Ok(&outcome), swept[3].as_ref());
            assert!(lookup.hit);
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let (outcomes, stats) = run_sweep_collect(&[], SweepOptions::new(4));
        assert!(outcomes.is_empty());
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.cache_hit_rate(), 0.0);
        assert_eq!(stats.cache_occupied(), 0);
    }

    #[test]
    fn sweep_stats_count_cache_traffic() {
        // KNOWN alignments on one worker: the first job bakes, every
        // later job reuses the kernel — 1 miss, N−1 hits, and each job
        // after the first reseeds the scratch image in place.
        let prog = program(KNOWN);
        let jobs: Vec<SweepJob> = (0..12)
            .map(|seed| SweepJob::new(prog.clone(), seed, 300))
            .collect();
        let (outcomes, stats) = run_sweep_collect(&jobs, SweepOptions::new(1));
        assert!(outcomes.into_iter().all(|o| o.unwrap().verified));
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 11);
        assert_eq!(stats.cache_evictions, 0);
        assert_eq!(stats.cache_occupied(), 1);
        assert_eq!(stats.scratch_reseeds, 11);
        assert!((stats.cache_hit_rate() - 11.0 / 12.0).abs() < 1e-12);
    }
}
