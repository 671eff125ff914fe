//! Seed-derived inputs shared by the workloads: the §5.3 synthesized
//! loop corpus and the front half (parse → reorg → codegen) split into
//! one span per layer.

use crate::tracer::Tracer;
use simdize::{
    generate, generate_strided, CodegenOptions, LoopProgram, ReorgGraph, ReuseMode, SimdProgram,
    Simdizer, TripSpec, VectorShape, WorkloadSpec,
};
use simdize_prng::SplitMix64;

/// The vector shape every workload compiles for (the paper's 16-byte
/// registers; the only one the engine executes).
pub const SHAPE: VectorShape = VectorShape::V16;

/// One synthesized loop and its source text.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop as the generator built it.
    pub program: LoopProgram,
    /// `program` rendered with `Display`; what the timed op parses.
    pub text: String,
}

/// The (statements, loads per statement) shape of the `k`-th corpus
/// loop: the 4 × 6 grid of §5.3 walked in a fixed order, so every seed
/// draws the same mix of loop sizes and only alignments, reuse and
/// trip counts vary. A free draw of shapes moved the mean op cost by
/// ±3 % from seed to seed.
pub fn shape_of(k: usize) -> (usize, usize) {
    let cell = k % 24;
    (1 + cell % 4, 1 + cell / 4)
}

/// `n` loops synthesized from `seed`, i32, trip in [997, 1000],
/// skipping any candidate `accept` turns down (a duplicate, in every
/// caller). The `k`-th candidate has shape [`shape_of`]`(k)`.
pub fn synthesized(seed: u64, n: usize, mut accept: impl FnMut(&Loop) -> bool) -> Vec<Loop> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut k = 0;
    while out.len() < n {
        let (statements, loads) = shape_of(k);
        k += 1;
        assert!(
            k <= 64 * n + 1024,
            "corpus generator cannot find {n} distinct loops"
        );
        let spec = WorkloadSpec::new(statements, loads).trip(TripSpec::KnownInRange(997, 1000));
        let program = simdize::synthesize(&spec, &mut rng);
        let candidate = Loop {
            text: program.to_string(),
            program,
        };
        if accept(&candidate) {
            out.push(candidate);
        }
    }
    out
}

/// A seed-derived order over `0..n` (Fisher–Yates), repeated unchanged
/// every round.
pub fn schedule(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5CED_01E5);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// The driver configuration every workload compiles with — the one
/// the server's `run` handler and the CLI default to.
pub fn driver() -> Simdizer {
    Simdizer::new()
}

/// The front half exactly as [`Simdizer::compile`] runs it for the
/// default driver, one span per layer. Callers compare the result's
/// fingerprint with `Simdizer::compile`'s, which keeps this copy of
/// the pipeline honest.
pub fn compile_traced(program: &LoopProgram, t: &mut Tracer) -> Result<SimdProgram, String> {
    if program.all_refs().iter().any(|r| !r.is_unit_stride()) {
        return t
            .span("codegen.generate", |_| generate_strided(program, SHAPE))
            .map_err(|e| e.to_string());
    }
    // The clone is the driver's (it reassociates a copy when asked to).
    let graph = t
        .span("reorg.build", |_| {
            ReorgGraph::build(&program.clone(), SHAPE)
        })
        .map_err(|e| e.to_string())?;
    let policy = driver().policy_for(program);
    let placed = t
        .span("reorg.place", |_| graph.with_policy(policy))
        .map_err(|e| e.to_string())?;
    let options = CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline);
    t.span("codegen.generate", |_| generate(&placed, &options))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_byte_identical_per_seed_and_differs_across_seeds() {
        let texts = |seed| -> Vec<String> {
            synthesized(seed, 48, |_| true)
                .into_iter()
                .map(|l| l.text)
                .collect()
        };
        assert_eq!(texts(11), texts(11));
        assert_ne!(texts(11), texts(12));
    }

    #[test]
    fn every_seed_draws_the_same_shapes() {
        for seed in [1, 2] {
            for (k, l) in synthesized(seed, 48, |_| true).iter().enumerate() {
                let (statements, loads) = shape_of(k);
                assert_eq!(l.program.stmts().len(), statements);
                assert_eq!(l.program.stmts()[0].rhs.loads().len(), loads);
            }
        }
    }

    #[test]
    fn schedule_is_a_seeded_permutation() {
        let a = schedule(5, 100);
        assert_eq!(a, schedule(5, 100));
        assert_ne!(a, schedule(6, 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_front_half_matches_the_driver() {
        let mut t = Tracer::new(std::time::Instant::now(), 0);
        for l in synthesized(3, 24, |_| true) {
            let whole = driver().compile(&l.program).unwrap();
            let split = compile_traced(&l.program, &mut t).unwrap();
            assert_eq!(whole, split);
        }
    }
}
