//! The scalar reference executor (correctness oracle and `ub ≤ 3B`
//! fallback path) and the idealistic scalar instruction count.
//!
//! The oracle is what every `verified` compares against, so it is
//! driven by the source [`LoopProgram`] alone and shares no code with
//! the vector interpreter or `simdize-engine`: the only things it
//! trusts are the loop's own statements and the lane semantics that
//! live next to [`Value`] in `simdize-ir`. It has two walks over the
//! same iteration space:
//!
//! * the **typed loop** — every reference is affine in `i` with a
//!   positive stride, so its first and last index decide whether *any*
//!   iteration leaves its array. When none does, the loop runs
//!   monomorphised on the element's native integer type ([`Lane`]),
//!   one statement at a time and [`ORACLE_COLUMN`] iterations at a
//!   time: each statement is flattened once to postfix steps whose
//!   loads carry a precomputed byte base and byte stride, each step is
//!   one lane loop over a column of iterations with its operator
//!   matched once per column, and a reduction folds its column in
//!   iteration order — no `Result`, no width dispatch and no
//!   allocation per element. Running statement by statement writes the
//!   bytes the source order does because every program is validated:
//!   no two statements store to one array and no statement loads an
//!   array that any statement stores, so no statement sees another's
//!   writes;
//! * the **checked walk** — the tree walk over [`Value`] that checks
//!   every access, element by element in iteration and statement
//!   order. It runs whenever the up-front check fails, from the
//!   untouched image, so the error, the faulting iteration and the
//!   partial writes before it are exactly what they always were — and
//!   it is the in-tree reference the typed loop is tested against.

use crate::error::ExecError;
use crate::memory::MemoryImage;
use simdize_ir::{
    ArrayRef, BinOp, Expr, Invariant, Lane, LoopProgram, ScalarType, Stmt, UnOp, Value,
};

/// Executes `program` for `ub` iterations with scalar lane
/// operations, writing exactly the bytes the original scalar loop
/// would (and, on a fault, exactly the writes before it).
///
/// Returns the number of *ideal* scalar instructions executed: one per
/// load, lane operation and store — the paper's "idealistic scalar
/// instruction count" used as the speedup baseline (loop overhead and
/// address computation excluded).
///
/// # Errors
///
/// Returns [`ExecError::ElementOutOfBounds`] when `ub` drives a
/// reference outside its array (the image then holds every write made
/// before the faulting access), or [`ExecError::MissingParam`] when
/// `params` is shorter than the loop's parameter table (nothing is
/// written).
pub fn run_scalar(
    program: &LoopProgram,
    image: &mut MemoryImage,
    ub: u64,
    params: &[i64],
) -> Result<u64, ExecError> {
    if params.len() < program.params().len() {
        return Err(ExecError::MissingParam {
            index: params.len(),
        });
    }
    if ub > 0 && never_faults(program, image, ub) {
        match program.elem() {
            ScalarType::I8 => run_typed::<i8>(program, image, ub, params),
            ScalarType::U8 => run_typed::<u8>(program, image, ub, params),
            ScalarType::I16 => run_typed::<i16>(program, image, ub, params),
            ScalarType::U16 => run_typed::<u16>(program, image, ub, params),
            ScalarType::I32 => run_typed::<i32>(program, image, ub, params),
            ScalarType::U32 => run_typed::<u32>(program, image, ub, params),
            ScalarType::I64 => run_typed::<i64>(program, image, ub, params),
            ScalarType::U64 => run_typed::<u64>(program, image, ub, params),
        }
    } else {
        run_checked(program, image, ub, params)?;
    }
    Ok(scalar_ideal_ops(program, ub))
}

/// Whether `ub ≥ 1` iterations keep every reference of `program`
/// inside its array of `image`. A reference's index `stride·i + offset`
/// is affine and increasing in `i`, so iterations `0` and `ub − 1`
/// decide; a reduction target is the fixed element `offset`.
fn never_faults(program: &LoopProgram, image: &MemoryImage, ub: u64) -> bool {
    let in_bounds = |r: ArrayRef, stride: u32| {
        let last = i128::from(stride) * i128::from(ub - 1) + i128::from(r.offset);
        r.offset >= 0 && last < i128::from(image.len_of(r.array))
    };
    image.elem() == program.elem()
        && program.stmts().iter().all(|stmt| {
            let mut ok = in_bounds(stmt.target, target_stride(stmt));
            stmt.rhs.visit_loads(&mut |r| ok &= in_bounds(r, r.stride));
            ok
        })
}

/// How far `stmt`'s target advances per iteration, in elements: a
/// reduction accumulates into one fixed element.
fn target_stride(stmt: &Stmt) -> u32 {
    if stmt.is_reduction() {
        0
    } else {
        stmt.target.stride
    }
}

/// One postfix step of a flattened right-hand side.
#[derive(Clone, Copy)]
enum Step<T> {
    /// Push the element at byte `at + i·stride` of the image.
    Load { at: usize, stride: usize },
    /// Push a loop invariant (constant or parameter, already wrapped).
    Splat(T),
    /// Pop two, push `op` of them.
    Bin(BinOp),
    /// Replace the top with `op` of it.
    Un(UnOp),
}

/// One statement, flattened: the postfix steps of its right-hand side
/// and where the result goes at iteration `i` (byte `at + i·stride`;
/// a reduction accumulates into the fixed byte `at`, stride 0).
struct Flat<T> {
    steps: Vec<Step<T>>,
    at: usize,
    stride: usize,
    reduction: Option<BinOp>,
}

/// Evaluates `$body` with `$op` bound to the constant `BinOp` that
/// `$value` holds, so `$value` is matched once and `$body` is compiled
/// once per operator.
macro_rules! each_binop {
    ($value:expr, $op:ident => $body:expr) => {
        match $value {
            BinOp::Add => {
                const $op: BinOp = BinOp::Add;
                $body
            }
            BinOp::Sub => {
                const $op: BinOp = BinOp::Sub;
                $body
            }
            BinOp::Mul => {
                const $op: BinOp = BinOp::Mul;
                $body
            }
            BinOp::Min => {
                const $op: BinOp = BinOp::Min;
                $body
            }
            BinOp::Max => {
                const $op: BinOp = BinOp::Max;
                $body
            }
            BinOp::And => {
                const $op: BinOp = BinOp::And;
                $body
            }
            BinOp::Or => {
                const $op: BinOp = BinOp::Or;
                $body
            }
            BinOp::Xor => {
                const $op: BinOp = BinOp::Xor;
                $body
            }
        }
    };
}

/// Iterations per column of the typed loop: each postfix step runs
/// over this many consecutive iterations at once.
pub const ORACLE_COLUMN: usize = 64;

/// The typed loop, one statement at a time, [`ORACLE_COLUMN`]
/// iterations at a time: each postfix step is one lane loop over a
/// column of the value stack, its operator matched once per column; a
/// store writes its column in iteration order and a reduction folds it
/// in iteration order. Statement-major order writes the bytes
/// iteration order does because [`LoopProgram::validate`] holds for
/// every program: no two statements store to one array
/// (`DuplicateStore`) and no statement loads an array any statement
/// stores (`StoreLoadOverlap`), so a statement's loads read bytes no
/// statement writes, and its stores (or its reduction's
/// read-modify-writes) touch bytes no other statement touches.
///
/// [`never_faults`] has shown that no access of the `ub` iterations
/// leaves its array, so the slice indexing below cannot fail. It is
/// still bounds-checked against the image: a wrong pre-check could at
/// worst reach a neighbouring array's bytes — which the comparison
/// against the checked walk would show — never memory outside the
/// image.
fn run_typed<T: Lane>(program: &LoopProgram, image: &mut MemoryImage, ub: u64, params: &[i64]) {
    debug_assert!(
        program.validate().is_ok(),
        "the oracle runs validated programs"
    );
    let d = T::TYPE.size();
    let byte_at = |r: ArrayRef| image.base_of(r.array) as usize + r.offset as usize * d;
    let mut depth = 0;
    let stmts: Vec<Flat<T>> = program
        .stmts()
        .iter()
        .map(|stmt| {
            let mut steps = Vec::with_capacity(stmt.rhs.node_count());
            depth = depth.max(flatten(&stmt.rhs, params, &byte_at, &mut steps));
            Flat {
                steps,
                at: byte_at(stmt.target),
                stride: target_stride(stmt) as usize * d,
                reduction: stmt.reduction,
            }
        })
        .collect();
    let mut stack = vec![[T::from_i64(0); ORACLE_COLUMN]; depth];
    let bytes = image.bytes_mut();
    let ub = ub as usize;
    for stmt in &stmts {
        for first in (0..ub).step_by(ORACLE_COLUMN) {
            let n = ORACLE_COLUMN.min(ub - first);
            let mut sp = 0;
            for step in &stmt.steps {
                match *step {
                    Step::Load { at, stride } => {
                        let at = at + first * stride;
                        for (k, lane) in stack[sp][..n].iter_mut().enumerate() {
                            *lane = T::read_le(&bytes[at + k * stride..]);
                        }
                        sp += 1;
                    }
                    Step::Splat(v) => {
                        stack[sp][..n].fill(v);
                        sp += 1;
                    }
                    Step::Bin(op) => {
                        sp -= 1;
                        let (lhs, rhs) = stack.split_at_mut(sp);
                        binary_column(op, &mut lhs[sp - 1][..n], &rhs[0][..n]);
                    }
                    Step::Un(op) => unary_column(op, &mut stack[sp - 1][..n]),
                }
            }
            let column = &stack[0][..n];
            match stmt.reduction {
                Some(op) => {
                    let acc = T::read_le(&bytes[stmt.at..]);
                    each_binop!(op, OP => column
                        .iter()
                        .fold(acc, |acc, &v| acc.binary(OP, v))
                        .write_le(&mut bytes[stmt.at..]));
                }
                None => {
                    let at = stmt.at + first * stmt.stride;
                    for (k, v) in column.iter().enumerate() {
                        v.write_le(&mut bytes[at + k * stmt.stride..]);
                    }
                }
            }
        }
    }
}

/// `lhs[k] = op(lhs[k], rhs[k])` for every lane of a column.
fn binary_column<T: Lane>(op: BinOp, lhs: &mut [T], rhs: &[T]) {
    each_binop!(op, OP => {
        for (a, &b) in lhs.iter_mut().zip(rhs) {
            *a = a.binary(OP, b);
        }
    });
}

/// `lanes[k] = op(lanes[k])` for every lane of a column.
fn unary_column<T: Lane>(op: UnOp, lanes: &mut [T]) {
    match op {
        UnOp::Neg => lanes.iter_mut().for_each(|a| *a = a.unary(UnOp::Neg)),
        UnOp::Not => lanes.iter_mut().for_each(|a| *a = a.unary(UnOp::Not)),
        UnOp::Abs => lanes.iter_mut().for_each(|a| *a = a.unary(UnOp::Abs)),
    }
}

/// Appends `e` in postfix order to `steps`; returns the stack depth
/// evaluating it needs.
fn flatten<T: Lane>(
    e: &Expr,
    params: &[i64],
    byte_at: &impl Fn(ArrayRef) -> usize,
    steps: &mut Vec<Step<T>>,
) -> usize {
    match e {
        Expr::Load(r) => {
            steps.push(Step::Load {
                at: byte_at(*r),
                stride: r.stride as usize * T::TYPE.size(),
            });
            1
        }
        Expr::Splat(inv) => {
            steps.push(Step::Splat(T::from_i64(match inv {
                Invariant::Const(c) => *c,
                Invariant::Param(p) => params[p.index()],
            })));
            1
        }
        Expr::Binary(op, a, b) => {
            let da = flatten(a, params, byte_at, steps);
            let db = flatten(b, params, byte_at, steps);
            steps.push(Step::Bin(*op));
            da.max(db + 1)
        }
        Expr::Unary(op, a) => {
            let da = flatten(a, params, byte_at, steps);
            steps.push(Step::Un(*op));
            da
        }
    }
}

/// The checked walk: every access bounds-checked, every lane a
/// width-dynamic [`Value`]. Reached only when [`never_faults`] says an
/// access will fault (or for `ub == 0`).
fn run_checked(
    program: &LoopProgram,
    image: &mut MemoryImage,
    ub: u64,
    params: &[i64],
) -> Result<(), ExecError> {
    for i in 0..ub {
        for stmt in program.stmts() {
            let value = eval(&stmt.rhs, i, program, image, params)?;
            match stmt.reduction {
                Some(op) => {
                    let idx = stmt.target.offset as u64;
                    let acc = image.get(stmt.target.array, idx)?;
                    image.set(stmt.target.array, idx, op.apply(acc, value))?;
                }
                None => {
                    image.set(stmt.target.array, stmt.target.index_at(i), value)?;
                }
            }
        }
    }
    Ok(())
}

fn eval(
    e: &Expr,
    i: u64,
    program: &LoopProgram,
    image: &MemoryImage,
    params: &[i64],
) -> Result<Value, ExecError> {
    Ok(match e {
        Expr::Load(r) => image.get(r.array, r.index_at(i))?,
        Expr::Splat(Invariant::Const(c)) => Value::from_i64(program.elem(), *c),
        Expr::Splat(Invariant::Param(p)) => Value::from_i64(program.elem(), params[p.index()]),
        Expr::Binary(op, a, b) => op.apply(
            eval(a, i, program, image, params)?,
            eval(b, i, program, image, params)?,
        ),
        Expr::Unary(op, a) => op.apply(eval(a, i, program, image, params)?),
    })
}

/// The paper's idealistic scalar instruction count for `ub` iterations:
/// per statement, one instruction per load, per lane operation and for
/// the store. For a statement with `l` loads combined by `l − 1` adds
/// this is `2l` per datum — e.g. 12 OPD for the 6-load single-statement
/// benchmark (the `SEQ` bar of Figure 11).
pub fn scalar_ideal_ops(program: &LoopProgram, ub: u64) -> u64 {
    let per_iter: u64 = program
        .stmts()
        .iter()
        .map(|s| (s.rhs.loads().len() + s.rhs.op_count() + 1) as u64)
        .sum();
    per_iter * ub
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, ArrayId, VectorShape};

    #[test]
    fn executes_the_paper_example() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 11);
        let ops = run_scalar(&p, &mut img, 100, &[]).unwrap();
        assert_eq!(ops, 400); // (2 loads + 1 add + 1 store) × 100
    }

    #[test]
    fn results_match_hand_computation() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i+1] * 2 + c[i]; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        let (a, b, c) = (
            ArrayId::from_index(0),
            ArrayId::from_index(1),
            ArrayId::from_index(2),
        );
        let expect: Vec<i64> = (0..32)
            .map(|i| {
                let bv = img.get(b, i + 1).unwrap().as_i64();
                let cv = img.get(c, i).unwrap().as_i64();
                (bv.wrapping_mul(2)).wrapping_add(cv) as i32 as i64
            })
            .collect();
        run_scalar(&p, &mut img, 32, &[]).unwrap();
        for i in 0..32u64 {
            assert_eq!(img.get(a, i).unwrap().as_i64(), expect[i as usize]);
        }
    }

    #[test]
    fn params_are_respected() {
        let p = parse_program(
            "arrays { a: i16[32] @ 0; b: i16[32] @ 0; }
             params { gain; }
             for i in 0..16 { a[i] = b[i] * gain; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        let b0 = img.get(ArrayId::from_index(1), 0).unwrap().as_i64();
        run_scalar(&p, &mut img, 16, &[3]).unwrap();
        assert_eq!(
            img.get(ArrayId::from_index(0), 0).unwrap().as_i64(),
            (b0.wrapping_mul(3)) as i16 as i64
        );
        let mut img2 = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert!(matches!(
            run_scalar(&p, &mut img2, 16, &[]),
            Err(ExecError::MissingParam { .. })
        ));
    }

    #[test]
    fn trip_beyond_array_faults() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; }
             for i in 0..ub { a[i] = b[i+1]; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert!(run_scalar(&p, &mut img, 63, &[]).is_ok());
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert!(run_scalar(&p, &mut img, 64, &[]).is_err());
    }

    /// The loops of `loops/` plus one per feature the typed loop
    /// flattens: strides 2 and 4, a reduction, parameters, constants,
    /// every unary operator, several statements, 1- and 8-byte lanes;
    /// and a strided reduction long enough for several columns.
    const CORPUS: [&str; 10] = [
        include_str!("../../../loops/figure1.loop"),
        include_str!("../../../loops/runtime.loop"),
        include_str!("../../../loops/dot_product.loop"),
        include_str!("../../../loops/deinterleave.loop"),
        include_str!("../../../loops/halfword.loop"),
        "arrays { o: u8[100] @ 3; x: u8[260] @ ?; }
         for i in 0..ub { o[i] = x[4*i+2] - x[2*i] * 3; }",
        "arrays { acc: i64[4] @ 0; lo: i64[8] @ 8; x: i64[90] @ 8; y: i64[64] @ 0; }
         params { k; }
         for i in 0..ub { acc[i+2] += abs(x[i+1]) * k; lo[i+1] min= -x[i] ^ ~y[i]; }",
        "arrays { p: u16[80] @ 2; q: u16[300] @ 0; r: u16[77] @ 6; s: u16[70] @ 4; }
         params { a; b; }
         for i in 0..ub { p[i+3] = max(q[4*i+1], r[i]) | a; s[i] = (r[i+2] & b) + 65535; }",
        "arrays { t: i8[50] @ 5; u: i8[50] @ 9; }
         for i in 0..ub { t[i] = abs(-u[i]) - 128; }",
        "arrays { s: i16[4] @ 0; w: i16[700] @ 6; v: i16[1000] @ ?; }
         params { a; }
         for i in 0..ub { s[i+1] += w[2*i+3] * a; v[i+5] = max(-w[3*i], a) ^ 7; }",
    ];

    #[test]
    fn typed_loop_matches_the_checked_walk() {
        for (k, src) in CORPUS.iter().enumerate() {
            let p = parse_program(src).unwrap();
            let params = [-3, 0x1_2345_6789];
            let image = MemoryImage::with_seed(&p, VectorShape::V16, 0);
            let safe = (1..).take_while(|&ub| never_faults(&p, &image, ub)).last();
            let column = ORACLE_COLUMN as u64;
            let columns = [column - 1, column, column + 1, 2 * column + 1]
                .map(|ub| ub.min(safe.unwrap_or(0)));
            // Past every array of the corpus, so each loop faults
            // somewhere in the sweep and completes before it; and
            // either side of the column boundaries it completes at.
            assert!(k < 9 || safe > Some(2 * column), "loop {k} is short");
            for ub in (0..=70)
                .chain([257, 4000, u64::MAX / 2, u64::MAX])
                .chain(columns)
            {
                let pristine = MemoryImage::with_seed(&p, VectorShape::V16, ub ^ 5);
                let (mut fast, mut slow) = (pristine.clone(), pristine);
                let got = run_scalar(&p, &mut fast, ub, &params);
                let want = run_checked(&p, &mut slow, ub, &params);
                assert_eq!(got.is_ok(), ub == 0 || never_faults(&p, &slow, ub));
                assert_eq!(got.map(drop), want, "loop {k} ub {ub}");
                assert_eq!(fast, slow, "loop {k} ub {ub}");
            }
        }
    }

    #[test]
    fn missing_param_wins_over_a_bounds_fault() {
        let p = parse_program(CORPUS[7]).unwrap();
        let pristine = MemoryImage::with_seed(&p, VectorShape::V16, 1);
        for ub in [0, 1, 70, 71, u64::MAX] {
            let mut img = pristine.clone();
            assert_eq!(
                run_scalar(&p, &mut img, ub, &[4]),
                Err(ExecError::MissingParam { index: 1 })
            );
            assert_eq!(img, pristine);
        }
    }

    #[test]
    fn ideal_count_matches_seq_bar() {
        // 1 statement × 6 loads: 6 + 5 + 1 = 12 per datum.
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; d: i32[64] @ 0;
                      e: i32[64] @ 0; f: i32[64] @ 0; g: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i] + c[i] + d[i] + e[i] + f[i] + g[i+1]; }",
        )
        .unwrap();
        assert_eq!(scalar_ideal_ops(&p, 32), 12 * 32);
    }
}
