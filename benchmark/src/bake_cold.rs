//! `bake-cold`: everything between generated vector code and the
//! first executed vector op — predecode, bake, trace fusion,
//! `std::arch` lowering, the kernel cache's write side — with the
//! front half excluded. Every lookup misses: the corpus has no
//! duplicate key and is twice the cache's capacity, walked cyclically.

use crate::corpus;
use crate::stats::gmean;
use crate::tracer::{RoundFold, Tracer};
use crate::{InProc, Layers};
use simdize::{
    program_fingerprint, run_scalar, IsaLevel, KernelBackend, KernelCache, KernelOptions,
    MemoryImage, PredecodedKernel, RunInput, RunStats, SimdKernel, SimdProgram,
};
use simdize_engine::CacheKey;
use std::collections::HashSet;
use std::sync::Arc;

/// Distinct programs in the corpus; the default cache holds 8 × 32.
const CORPUS: usize = 512;

/// One program with its memory image and the scalar oracle's result.
pub struct Entry {
    program: SimdProgram,
    fingerprint: u64,
    input: RunInput,
    image: MemoryImage,
    /// The image `run_scalar` leaves behind; what every run is diffed
    /// against. Tests corrupt one to see the run fail.
    pub reference: MemoryImage,
}

impl Entry {
    /// The kernel-cache key this entry's lookups use.
    pub fn key(&self, isa: IsaLevel) -> CacheKey {
        CacheKey::for_backend(
            self.fingerprint,
            &self.input,
            &self.image,
            self.program.source().arrays().len(),
            KernelBackend::Simd(isa),
        )
    }
}

/// The workload's state.
pub struct BakeCold {
    /// The corpus, one entry per distinct program.
    pub entries: Vec<Entry>,
    cache: KernelCache,
    isa: IsaLevel,
    opts: KernelOptions,
    opd: Vec<f64>,
    fused_loads: usize,
    eliminated: usize,
}

impl BakeCold {
    /// The op: predecode, bake + lower through the cache, one run.
    /// `None` on any engine error.
    fn exec(&mut self, i: usize) -> Option<Arc<SimdKernel>> {
        let e = &mut self.entries[i];
        let pre = PredecodedKernel::new(&e.program).ok()?;
        let (kernel, _) = self
            .cache
            .get_or_bake_simd(
                e.fingerprint,
                &pre,
                &e.image,
                &e.input,
                &self.opts,
                self.isa,
            )
            .ok()?;
        kernel.run(&mut e.image).ok()?;
        Some(kernel)
    }

    fn matches_reference(&self, i: usize) -> bool {
        let e = &self.entries[i];
        e.image.first_difference(&e.reference).is_none()
    }
}

fn opd_of(stats: RunStats, program: &SimdProgram, input: &RunInput) -> f64 {
    stats.opd(program.source().stmts().len() as u64 * input.ub)
}

impl InProc for BakeCold {
    const NAME: &'static str = "bake-cold";
    const PASSES: usize = 11;

    fn setup(seed: u64) -> (BakeCold, u64) {
        let driver = corpus::driver();
        let mut fingerprints = HashSet::new();
        let mut compiled = Vec::with_capacity(CORPUS);
        corpus::synthesized(seed, CORPUS, |l| {
            let Ok(program) = driver.compile(&l.program) else {
                return false;
            };
            let fingerprint = program_fingerprint(&program);
            let fresh = fingerprints.insert(fingerprint);
            if fresh {
                compiled.push((program, fingerprint));
            }
            fresh
        });

        let mut failed = 0;
        let mut entries = Vec::with_capacity(CORPUS);
        for (k, (program, fingerprint)) in compiled.into_iter().enumerate() {
            let source = program.source();
            let trip = source
                .trip()
                .known()
                .expect("corpus loops have known trips");
            let image = MemoryImage::with_seed(source, corpus::SHAPE, seed.wrapping_add(k as u64));
            let mut reference = image.clone();
            failed += u64::from(run_scalar(source, &mut reference, trip, &[]).is_err());
            entries.push(Entry {
                input: RunInput::with_ub(trip),
                program,
                fingerprint,
                image,
                reference,
            });
        }

        let mut w = BakeCold {
            entries,
            cache: KernelCache::default(),
            isa: IsaLevel::detect(),
            opts: KernelOptions::new().disassembly(false),
            opd: Vec::with_capacity(CORPUS),
            fused_loads: 0,
            eliminated: 0,
        };
        // In the order the rounds will use, so the cyclic walk that makes
        // every lookup a miss starts here and the hit count stays 0.
        for i in corpus::schedule(seed, w.entries.len()) {
            match w.exec(i) {
                Some(kernel) => {
                    failed += u64::from(!w.matches_reference(i));
                    let e = &w.entries[i];
                    w.opd.push(opd_of(kernel.stats(), &e.program, &e.input));
                    let fusion = kernel.base().fusion_stats();
                    w.fused_loads += fusion.fused_loads;
                    w.eliminated += fusion.eliminated;
                }
                None => {
                    failed += 1;
                    w.opd.push(1.0);
                }
            }
        }
        (w, failed)
    }

    fn ops(&self) -> usize {
        self.entries.len()
    }

    fn op(&mut self, i: usize) -> bool {
        self.exec(i).is_some() && self.matches_reference(i)
    }

    fn op_traced(&mut self, i: usize, t: &mut Tracer) -> bool {
        let (isa, opts) = (self.isa, self.opts);
        let e = &mut self.entries[i];
        let Ok(pre) = t.span("engine.predecode", |_| PredecodedKernel::new(&e.program)) else {
            return false;
        };
        // What `get_or_bake_simd` does on a miss, one span per step.
        let Ok(baked) = t.span("engine.bake", |_| pre.bake(&e.image, &e.input, &opts)) else {
            return false;
        };
        let kernel = t.span("engine.lower", |_| Arc::new(SimdKernel::lower(&baked, isa)));
        let cache = &self.cache;
        t.span("engine.cache_insert", |_| {
            let key = e.key(isa);
            if cache.get_simd(&key).is_none() {
                cache.insert_simd(key, Arc::clone(&kernel));
            }
        });
        if t.span("engine.run_short", |_| kernel.run(&mut e.image))
            .is_err()
        {
            return false;
        }
        t.span("vm.diff", |_| {
            e.image.first_difference(&e.reference).is_none()
        })
    }

    fn opd_gmean(&self) -> f64 {
        gmean(&self.opd)
    }

    fn layers(&mut self, folds: &[RoundFold], out: &mut Layers) {
        let spans = [
            "engine.predecode",
            "engine.bake",
            "engine.lower",
            "engine.cache_insert",
            "engine.run_short",
            "vm.diff",
        ];
        let sum = out.set_spans(folds, &spans, "op");
        out.set("harness.share", 1.0 - sum);

        let n = self.entries.len() as f64;
        out.set(
            "engine.fuse.fused_loads_per_op",
            self.fused_loads as f64 / n,
        );
        out.set("engine.fuse.eliminated_per_op", self.eliminated as f64 / n);
        let cache = self.cache.stats();
        let lookups = (cache.hits + cache.misses) as f64;
        out.set(
            "engine.cache.evictions_per_op",
            cache.evictions as f64 / lookups,
        );
        out.set("engine.cache.hit_ratio", cache.hit_rate());
    }
}
