//! The data path every `verified` rests on, pinned from outside the
//! crates: the seeded memory image and the scalar oracle.
//!
//! `MemoryImage::with_seed` fills arrays in bulk, one fixed-width pass
//! per array, and `run_scalar` runs a typed loop — statement by
//! statement, `ORACLE_COLUMN` iterations at a time — whenever an
//! up-front bounds check shows no access can fault. Neither may change
//! a byte: image contents are pinned by digests recorded before the
//! bulk fill existed, and the oracle is compared — result, error and
//! image bytes after a fault — against a reference walk written here
//! over `Value`, one checked access at a time in iteration order, at
//! trip counts either side of every bound and of the column
//! boundaries. (`crates/vm` runs the same comparisons against its own
//! checked walk.)

use simdize::{
    alpha_blend, fir_filter, parse_program, rgba_to_gray, run_scalar, scalar_ideal_ops,
    sum_abs_diff, synthesize, BinOp, ExecError, Expr, Invariant, LoopBuilder, LoopProgram,
    MemoryImage, ScalarType, TripSpec, UnOp, Value, VectorShape, WorkloadSpec,
};
use simdize_prng::SplitMix64;
use simdize_suite::sample_loops;
use simdize_vm::ORACLE_COLUMN;

const SHAPE: VectorShape = VectorShape::V16;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One loop per element type over a declared-misaligned array, a
/// runtime-aligned one (its base is drawn from the seed) and an aligned
/// one, of three different lengths.
fn digest_program(ty: ScalarType) -> LoopProgram {
    let d = ty.size() as u32;
    let mut b = LoopBuilder::new(ty);
    let a = b.array("a", 40, (3 * d) % 16);
    let r = b.array_runtime_align("r", 33);
    let c = b.array("c", 17, 0);
    b.stmt(a.at(0), r.load(1) + c.load(0));
    b.finish(16).unwrap()
}

/// FNV-1a over every array base, then every byte of the image.
fn image_digest(image: &MemoryImage, program: &LoopProgram) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for k in 0..program.arrays().len() {
        h = fnv1a(
            &image.base_of(simdize::ArrayId::from_index(k)).to_le_bytes(),
            h,
        );
    }
    fnv1a(image.bytes(), h)
}

/// `image_digest(with_seed(digest_program(ty), V16, seed))` for `ty` in
/// `ScalarType::ALL` order × seeds 0..4, recorded at the parent of the
/// bulk-fill change (per-element `Value` writes).
/// (Signed and unsigned rows agree because the bytes do; seeds 0 and 1
/// draw one fill stream and differ only where the runtime base does.)
#[rustfmt::skip]
const PARENT_DIGESTS: [[u64; 4]; 8] = [
    [0x00dc5a4df9bb4d40, 0xf9f816f2bfc9dcac, 0x0435e2def208ca13, 0x19b9440e60c3019e], // i8
    [0x00dc5a4df9bb4d40, 0xf9f816f2bfc9dcac, 0x0435e2def208ca13, 0x19b9440e60c3019e], // u8
    [0x2f211e87bd38b882, 0xa0c7b275f465900a, 0x214a1c5f6f33f998, 0x61c9a6bb5d1e5672], // i16
    [0x2f211e87bd38b882, 0xa0c7b275f465900a, 0x214a1c5f6f33f998, 0x61c9a6bb5d1e5672], // u16
    [0x78fbbac7d7dea1db, 0x78fbbac7d7dea1db, 0xe17aa1409834aef8, 0xe9142bcdc485c32c], // i32
    [0x78fbbac7d7dea1db, 0x78fbbac7d7dea1db, 0xe17aa1409834aef8, 0xe9142bcdc485c32c], // u32
    [0xdfa260f70da53213, 0xdfa260f70da53213, 0x06952167ff085ed5, 0x38a275a3b115d89d], // i64
    [0xdfa260f70da53213, 0xdfa260f70da53213, 0x06952167ff085ed5, 0x38a275a3b115d89d], // u64
];

#[test]
fn seeded_images_are_byte_identical_to_the_recorded_ones() {
    for (ty, row) in ScalarType::ALL.into_iter().zip(PARENT_DIGESTS) {
        let program = digest_program(ty);
        // Reseeded in place from an image of another shape and seed.
        let mut reused = MemoryImage::with_seed(&digest_program(ScalarType::I64), SHAPE, 99);
        for (seed, expected) in row.into_iter().enumerate() {
            let image = MemoryImage::with_seed(&program, SHAPE, seed as u64);
            assert_eq!(
                image_digest(&image, &program),
                expected,
                "{ty} seed {seed}: image bytes changed"
            );
            reused.reseed(&program, SHAPE, seed as u64);
            assert_eq!(reused, image, "{ty} seed {seed}: reseed != with_seed");
        }
    }
}

/// The oracle as it was before the typed loop: a tree walk over
/// `Value` that checks every access.
fn reference_walk(
    program: &LoopProgram,
    image: &mut MemoryImage,
    ub: u64,
    params: &[i64],
) -> Result<u64, ExecError> {
    fn eval(
        e: &Expr,
        i: u64,
        elem: ScalarType,
        image: &MemoryImage,
        params: &[i64],
    ) -> Result<Value, ExecError> {
        Ok(match e {
            Expr::Load(r) => image.get(r.array, r.index_at(i))?,
            Expr::Splat(Invariant::Const(c)) => Value::from_i64(elem, *c),
            Expr::Splat(Invariant::Param(p)) => Value::from_i64(elem, params[p.index()]),
            Expr::Binary(op, a, b) => op.apply(
                eval(a, i, elem, image, params)?,
                eval(b, i, elem, image, params)?,
            ),
            Expr::Unary(op, a) => op.apply(eval(a, i, elem, image, params)?),
        })
    }
    if params.len() < program.params().len() {
        return Err(ExecError::MissingParam {
            index: params.len(),
        });
    }
    for i in 0..ub {
        for stmt in program.stmts() {
            let value = eval(&stmt.rhs, i, program.elem(), image, params)?;
            let (idx, value) = match stmt.reduction {
                Some(op) => {
                    let idx = stmt.target.offset as u64;
                    (idx, op.apply(image.get(stmt.target.array, idx)?, value))
                }
                None => (stmt.target.index_at(i), value),
            };
            image.set(stmt.target.array, idx, value)?;
        }
    }
    Ok(scalar_ideal_ops(program, ub))
}

/// Every `loops/` sample, the §5.3 generator's shapes over every
/// element type (compile-time and runtime alignments and trip counts,
/// strides 2 and 4), the parameterised kernels, and hand-built
/// reductions and unary chains.
fn corpus() -> Vec<(String, LoopProgram)> {
    let mut out = Vec::new();
    for (name, src) in sample_loops() {
        out.push((name, parse_program(&src).unwrap()));
    }

    let mut rng = SplitMix64::seed_from_u64(0x0_4AC1E);
    for (k, elem) in ScalarType::ALL.into_iter().enumerate() {
        for (stmts, loads) in [(1, 1), (2, 3), (4, 8)] {
            let spec = WorkloadSpec::new(stmts, loads)
                .elem(elem)
                .trip(if k % 2 == 0 {
                    TripSpec::Known(40)
                } else {
                    TripSpec::Runtime
                })
                .runtime_align((k + stmts) % 2 == 0);
            out.push((
                format!("{} {elem}", spec.name()),
                synthesize(&spec, &mut rng),
            ));
        }
        let strided = WorkloadSpec::new(2, 3)
            .elem(elem)
            .trip(TripSpec::Known(40))
            .strides(vec![1, 2, 4]);
        out.push((format!("strided {elem}"), synthesize(&strided, &mut rng)));
    }

    out.push(("fir".into(), fir_filter(64, 4).0));
    out.push(("blend".into(), alpha_blend(64).0));
    out.push(("gray".into(), rgba_to_gray(64).0));
    out.push(("sad".into(), sum_abs_diff(64)));

    for (k, op) in [
        BinOp::Add,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ]
    .into_iter()
    .enumerate()
    {
        // A reduction next to a strided store, with a parameter, a
        // constant and every unary operator in the expressions.
        let elem = ScalarType::ALL[k];
        let mut b = LoopBuilder::new(elem);
        // Long enough for several oracle columns.
        let acc = b.array("acc", 8, 0);
        let x = b.array("x", 300, elem.size() as u32);
        let y = b.array_runtime_align("y", 600);
        let out_arr = b.array("o", 1200, 0);
        let gain = b.param("gain");
        b.reduce(
            acc.at(3),
            op,
            Expr::unary(UnOp::Abs, x.load(2)) * Expr::param(gain) - Expr::constant(-5),
        );
        b.stmt(
            out_arr.at_strided(4, 1),
            Expr::unary(UnOp::Neg, y.load_strided(2, 1)).max(Expr::unary(UnOp::Not, x.load(0))),
        );
        out.push((
            format!("reduce {op} {elem}"),
            b.finish_runtime_trip().unwrap(),
        ));
    }
    out
}

/// The largest trip count at which no reference of `program` leaves
/// its array.
fn last_safe_trip(program: &LoopProgram) -> u64 {
    let mut safe = u64::MAX;
    for stmt in program.stmts() {
        let mut refs = stmt.rhs.loads();
        if !stmt.is_reduction() {
            refs.push(stmt.target);
        }
        for r in refs {
            let len = program.array(r.array).len();
            safe = safe.min((len - 1 - r.offset as u64) / u64::from(r.stride) + 1);
        }
    }
    safe
}

#[test]
fn typed_oracle_matches_the_checked_walk_at_every_trip_count() {
    let (mut completed, mut faulted) = (0, 0);
    // Element types, reductions and strided statements run past two
    // whole columns.
    let (mut long_types, mut long_reductions, mut long_strided) = (Vec::new(), 0, 0);
    for (name, program) in corpus() {
        let safe = last_safe_trip(&program);
        let shortest = program.arrays().iter().map(|a| a.len()).min().unwrap();
        let params: Vec<i64> = (0..program.params().len() as i64)
            .map(|k| 3 - 5 * k)
            .collect();
        // Either side of the oracle's column boundaries, where the
        // loop still completes.
        let column = ORACLE_COLUMN as u64;
        let columns = [column - 1, column, column + 1, 2 * column + 1].map(|ub| ub.min(safe));
        for ub in [
            0,
            1,
            safe - 1,
            safe,
            safe + 1,
            shortest,
            1000 * safe + 7,
            u64::MAX,
        ]
        .into_iter()
        .chain(columns)
        {
            for seed in [1, 6] {
                let pristine = MemoryImage::with_seed(&program, SHAPE, seed);
                let (mut fast, mut slow) = (pristine.clone(), pristine.clone());
                let got = run_scalar(&program, &mut fast, ub, &params);
                let want = reference_walk(&program, &mut slow, ub, &params);
                assert_eq!(got, want, "{name} ub {ub} seed {seed}");
                assert_eq!(got.is_ok(), ub <= safe, "{name} ub {ub}");
                assert!(
                    fast.bytes() == slow.bytes(),
                    "{name} ub {ub} seed {seed}: image bytes differ after {got:?}"
                );
                match got {
                    Ok(_) => {
                        completed += 1;
                        if ub > 2 * column {
                            long_types.push(program.elem());
                            let stmts = program.stmts();
                            long_reductions += stmts.iter().filter(|s| s.is_reduction()).count();
                            long_strided += stmts
                                .iter()
                                .filter(|s| s.refs().iter().any(|r| r.stride > 1))
                                .count();
                        }
                    }
                    // Count the faults that left partial writes behind:
                    // those are the bytes the comparison above is for.
                    Err(_) => faulted += usize::from(fast != pristine),
                }
            }
        }
    }
    assert!(completed > 100 && faulted > 100, "{completed} / {faulted}");
    for ty in ScalarType::ALL {
        assert!(
            long_types.contains(&ty),
            "no {ty} loop ran past two columns"
        );
    }
    assert!(long_reductions > 0 && long_strided > 0);
}

#[test]
fn a_missing_parameter_wins_over_any_bounds_fault() {
    let (program, _) = fir_filter(64, 4);
    let pristine = MemoryImage::with_seed(&program, SHAPE, 3);
    for ub in [0, 1, 64, 10_000, u64::MAX] {
        for given in 0..4 {
            let mut image = pristine.clone();
            assert_eq!(
                run_scalar(&program, &mut image, ub, &[7; 4][..given]),
                Err(ExecError::MissingParam { index: given }),
                "ub {ub}, {given} of 4 params"
            );
            assert!(
                image == pristine,
                "ub {ub}: a refused run wrote to the image"
            );
        }
    }
}
