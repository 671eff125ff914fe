//! The paper's §5.4 coverage analysis, as an integration test.
//!
//! "More than a thousand loops were generated with varying
//! (l, s, n, b, r) parameters. … Our compiler simdized all the loops.
//! The generated binaries were simulated on a cycle-accurate simulator,
//! and the results were verified."
//!
//! This file sweeps the same parameter space (up to eight loads per
//! statement, four statements per loop, random bias and reuse, both
//! compile-time and runtime alignments and trip counts) at a trip-count
//! scale that keeps the suite fast; the full >1000-loop sweep at the
//! paper's trip counts is `simdize_bench::coverage`, experiment E2 of
//! `cargo run -p simdize-bench --bin repro --release`.

use simdize::{synthesize, DiffConfig, Scheme, Simdizer, TripSpec, WorkloadSpec};
use simdize_prng::SplitMix64;

fn verify_spec(spec: &WorkloadSpec, seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let program = synthesize(spec, &mut rng);
    let schemes = if spec.runtime_align {
        Scheme::runtime_contenders()
    } else {
        Scheme::contenders()
    };
    for scheme in schemes {
        let report = Simdizer::new()
            .scheme(scheme)
            .evaluate_with(
                &program,
                &DiffConfig::with_seed(seed ^ 0xABCD).runtime_ub(197),
            )
            .unwrap_or_else(|e| panic!("{} under {scheme} failed: {e}", spec.name()));
        assert!(report.verified, "{} under {scheme}", spec.name());
        // The CSE-aware floor, with 10% slack: predictive commoning
        // plus unroll-by-2 can legally dip slightly below any static
        // per-iteration count by chaining next-iteration values through
        // carried registers (a producer becomes an amortized copy).
        let floor =
            simdize::lower_bound_opd_cse(&program, simdize::VectorShape::V16, scheme.policy);
        assert!(
            report.opd >= floor * 0.9,
            "{} under {scheme}: opd {} implausibly beat the CSE floor {}",
            spec.name(),
            report.opd,
            floor
        );
    }
}

#[test]
fn coverage_compile_time_alignments() {
    let mut seed = 0u64;
    for s in [1usize, 2, 4] {
        for l in [1usize, 2, 4, 6, 8] {
            for _ in 0..4 {
                seed += 1;
                let mut meta = SplitMix64::seed_from_u64(seed * 31);
                let spec = WorkloadSpec::new(s, l)
                    .bias(meta.range_f64(0.0, 1.0))
                    .reuse(meta.range_f64(0.0, 1.0))
                    .trip(TripSpec::KnownInRange(197, 200));
                verify_spec(&spec, seed);
            }
        }
    }
}

#[test]
fn coverage_runtime_alignments() {
    let mut seed = 1000u64;
    for s in [1usize, 2, 4] {
        for l in [2usize, 4, 8] {
            for _ in 0..3 {
                seed += 1;
                let mut meta = SplitMix64::seed_from_u64(seed * 31);
                let spec = WorkloadSpec::new(s, l)
                    .bias(meta.range_f64(0.0, 1.0))
                    .reuse(meta.range_f64(0.0, 1.0))
                    .trip(TripSpec::KnownInRange(197, 200))
                    .runtime_align(true);
                verify_spec(&spec, seed);
            }
        }
    }
}

#[test]
fn coverage_runtime_trip_counts() {
    let mut seed = 2000u64;
    for s in [1usize, 3] {
        for l in [3usize, 5] {
            for runtime_align in [false, true] {
                seed += 1;
                let spec = WorkloadSpec::new(s, l)
                    .trip(TripSpec::Runtime)
                    .runtime_align(runtime_align);
                let mut rng = SplitMix64::seed_from_u64(seed);
                let program = synthesize(&spec, &mut rng);
                let schemes = if runtime_align {
                    Scheme::runtime_contenders()
                } else {
                    Scheme::contenders()
                };
                for scheme in schemes {
                    for ub in [197u64, 200, 203] {
                        let report = Simdizer::new()
                            .scheme(scheme)
                            .evaluate_with(&program, &DiffConfig::with_seed(seed).runtime_ub(ub))
                            .unwrap_or_else(|e| panic!("{scheme}/ub={ub}: {e}"));
                        assert!(report.verified);
                    }
                }
            }
        }
    }
}

#[test]
fn coverage_short_and_byte_elements() {
    use simdize::ScalarType;
    let mut seed = 3000u64;
    for elem in [ScalarType::I16, ScalarType::U8, ScalarType::I64] {
        for s in [1usize, 2] {
            for l in [2usize, 5] {
                seed += 1;
                let spec = WorkloadSpec::new(s, l)
                    .elem(elem)
                    .trip(TripSpec::KnownInRange(197, 200));
                verify_spec(&spec, seed);
            }
        }
    }
}

#[test]
fn coverage_reassociation_everywhere() {
    let mut seed = 4000u64;
    for s in [1usize, 4] {
        for l in [4usize, 8] {
            seed += 1;
            let spec = WorkloadSpec::new(s, l).trip(TripSpec::KnownInRange(197, 200));
            let mut rng = SplitMix64::seed_from_u64(seed);
            let program = synthesize(&spec, &mut rng);
            for scheme in Scheme::contenders() {
                let report = Simdizer::new()
                    .scheme(scheme.reassoc(true))
                    .evaluate(&program, seed)
                    .unwrap();
                assert!(report.verified, "{scheme}+reassoc");
            }
        }
    }
}

#[test]
fn coverage_other_vector_shapes() {
    // The pipeline is generic in V: sweep V8 and V32 too.
    use simdize::VectorShape;
    let mut seed = 5000u64;
    for shape in [VectorShape::V8, VectorShape::V32] {
        for s in [1usize, 2] {
            for l in [2usize, 5] {
                seed += 1;
                let spec = WorkloadSpec::new(s, l).trip(TripSpec::KnownInRange(197, 200));
                let mut rng = SplitMix64::seed_from_u64(seed);
                let program = synthesize(&spec, &mut rng);
                for scheme in Scheme::contenders() {
                    let report = Simdizer::new()
                        .shape(shape)
                        .scheme(scheme)
                        .evaluate(&program, seed)
                        .unwrap_or_else(|e| panic!("{shape}/{scheme}: {e}"));
                    assert!(report.verified, "{shape}/{scheme}");
                }
            }
        }
    }
}

#[test]
fn coverage_strided_workloads() {
    // The §7 strided extension across the (s, l, bias, reuse) space.
    let mut seed = 6000u64;
    for s in [1usize, 2, 3] {
        for l in [1usize, 3, 5] {
            seed += 1;
            let mut meta = SplitMix64::seed_from_u64(seed * 31);
            let spec = WorkloadSpec::new(s, l)
                .bias(meta.range_f64(0.0, 1.0))
                .reuse(meta.range_f64(0.0, 1.0))
                .trip(TripSpec::KnownInRange(197, 203))
                .strides(vec![1, 2, 4]);
            let mut rng = SplitMix64::seed_from_u64(seed);
            let program = synthesize(&spec, &mut rng);
            let report = Simdizer::new()
                .evaluate(&program, seed)
                .unwrap_or_else(|e| panic!("strided {}: {e}", spec.name()));
            assert!(report.verified, "{}", spec.name());
        }
    }
}
