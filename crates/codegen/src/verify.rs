//! A static well-formedness verifier for generated programs.
//!
//! Production compilers ship an IR verifier that runs after every pass;
//! this is ours. It checks the structural discipline the interpreter
//! relies on, so generator or pass bugs surface as typed errors instead
//! of execution faults or silent corruption:
//!
//! * every register is read only after it is defined — except the
//!   loop-carried registers, which may be read at the top of the steady
//!   body before their bottom-of-body rotation, provided the prologue
//!   initialized them;
//! * compile-time `vshiftpair` amounts lie in `[0, V]` and `vsplice`
//!   points in `[0, V]`;
//! * `vperm` patterns have exactly `V` entries, each below `2V`;
//! * every memory operand names an array of the source program, with a
//!   meaningful scale: never negative, and `scale == 0` (a
//!   loop-invariant address) only for reduction accumulators in the
//!   epilogue;
//! * the unrolled body pair, when present, obeys the same rules *and*
//!   performs every loop-carried register rotation the primary body
//!   performs — otherwise the second unrolled iteration and the
//!   epilogue would read stale chunks.

use crate::vir::{SimdProgram, VInst, VReg};
use simdize_ir::hash::HashSet;
use std::error::Error;
use std::fmt;

/// A structural defect found by [`verify_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyProgramError {
    /// A register is read before any definition reaches it.
    UseBeforeDef {
        /// Which section the use is in.
        section: &'static str,
        /// The offending register.
        reg: VReg,
    },
    /// A compile-time shift amount outside `[0, V]`.
    ShiftAmountOutOfRange {
        /// The evaluated amount.
        amount: i64,
    },
    /// A compile-time splice point outside `[0, V]`.
    SplicePointOutOfRange {
        /// The evaluated point.
        point: i64,
    },
    /// A permute pattern with the wrong length or an out-of-range entry.
    BadPermPattern {
        /// The pattern length found.
        len: usize,
        /// The first out-of-range entry, if any.
        bad_entry: Option<u8>,
    },
    /// A memory operand names an array outside the program's table.
    UnknownArray {
        /// The dangling array index.
        index: usize,
    },
    /// A memory operand with a meaningless scale: negative, or zero
    /// outside a reduction accumulator access in the epilogue.
    BadAddrScale {
        /// Which section the operand is in.
        section: &'static str,
        /// The offending scale.
        scale: i64,
    },
    /// The unrolled body pair fails to redefine a loop-carried register
    /// that the primary body rotates.
    PairMissingRotation {
        /// The carried register the pair leaves stale.
        reg: VReg,
    },
}

impl fmt::Display for VerifyProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyProgramError::UseBeforeDef { section, reg } => {
                write!(
                    f,
                    "register {reg} is read before definition in the {section}"
                )
            }
            VerifyProgramError::ShiftAmountOutOfRange { amount } => {
                write!(f, "compile-time vshiftpair amount {amount} outside [0, V]")
            }
            VerifyProgramError::SplicePointOutOfRange { point } => {
                write!(f, "compile-time vsplice point {point} outside [0, V]")
            }
            VerifyProgramError::BadPermPattern { len, bad_entry } => match bad_entry {
                Some(e) => write!(f, "vperm pattern entry {e} selects past both sources"),
                None => write!(f, "vperm pattern has {len} entries instead of V"),
            },
            VerifyProgramError::UnknownArray { index } => {
                write!(f, "memory operand names undeclared array index {index}")
            }
            VerifyProgramError::BadAddrScale { section, scale } => {
                write!(
                    f,
                    "memory operand scale {scale} is meaningless in the {section} \
                     (scale 0 is reserved for reduction accumulators in the epilogue)"
                )
            }
            VerifyProgramError::PairMissingRotation { reg } => {
                write!(
                    f,
                    "unrolled body pair never redefines loop-carried register {reg} \
                     rotated by the primary body"
                )
            }
        }
    }
}

impl Error for VerifyProgramError {}

/// Immutable per-program facts threaded through the section checks.
struct Ctx {
    v: i64,
    arrays: usize,
    /// Arrays accumulated by reduction statements — the only legal
    /// targets of loop-invariant (`scale == 0`) addresses.
    reduction_targets: HashSet<usize>,
}

/// Checks the structural discipline of a generated program.
///
/// # Errors
///
/// Returns the first defect found; see [`VerifyProgramError`].
pub fn verify_program(program: &SimdProgram) -> Result<(), VerifyProgramError> {
    let ctx = Ctx {
        v: program.shape().bytes() as i64,
        arrays: program.source().arrays().len(),
        reduction_targets: program
            .source()
            .stmts()
            .iter()
            .filter(|s| s.reduction.is_some())
            .map(|s| s.target.array.index())
            .collect(),
    };

    // Definitions available at the top of each section.
    let mut prologue_defs: HashSet<VReg> = HashSet::default();
    check_section(
        "prologue",
        program.prologue(),
        &HashSet::default(),
        &mut prologue_defs,
        &ctx,
    )?;

    // The steady body may read prologue definitions; carried registers
    // are exactly the prologue-defined registers rewritten by body
    // copies, so the prologue-def set covers them.
    let mut body_defs = prologue_defs.clone();
    check_section("body", program.body(), &prologue_defs, &mut body_defs, &ctx)?;

    if let Some(pair) = program.body_pair() {
        let mut pair_defs = prologue_defs.clone();
        check_section("body pair", pair, &prologue_defs, &mut pair_defs, &ctx)?;

        // Every loop-carried rotation the primary body performs (its
        // `Copy` rewrites of prologue-initialized registers) must also
        // be performed by the pair: the pair stands for two steady
        // iterations, and the leftover body/epilogue read the carried
        // registers after it runs. Only the pair's *own* top-level
        // definitions count — the registers being rotated are
        // prologue-defined, so the live-in set would mask the check.
        let pair_own: HashSet<VReg> = pair.iter().filter_map(|i| i.def()).collect();
        for inst in program.body() {
            if let VInst::Copy { dst, .. } = inst {
                if !pair_own.contains(dst) {
                    return Err(VerifyProgramError::PairMissingRotation { reg: *dst });
                }
            }
        }
    }

    let mut epi_defs = body_defs.clone();
    check_section(
        "epilogue",
        program.epilogue(),
        &body_defs,
        &mut epi_defs,
        &ctx,
    )?;
    Ok(())
}

fn check_section(
    section: &'static str,
    insts: &[VInst],
    live_in: &HashSet<VReg>,
    defs: &mut HashSet<VReg>,
    ctx: &Ctx,
) -> Result<(), VerifyProgramError> {
    for inst in insts {
        check_inst(section, inst, live_in, defs, ctx)?;
    }
    Ok(())
}

fn check_inst(
    section: &'static str,
    inst: &VInst,
    live_in: &HashSet<VReg>,
    defs: &mut HashSet<VReg>,
    ctx: &Ctx,
) -> Result<(), VerifyProgramError> {
    // Guarded blocks are checked recursively (their own definitions
    // stay local, mirroring the LVN scoping); the flat use-scan below
    // must not see inside them, since `visit_uses` recurses.
    if let VInst::Guarded { body, .. } = inst {
        let mut inner = defs.clone();
        for i in body {
            check_inst(section, i, live_in, &mut inner, ctx)?;
        }
        return Ok(());
    }

    // Uses first (an instruction may not read its own definition).
    let mut bad_use: Option<VReg> = None;
    inst.visit_uses(&mut |r| {
        if bad_use.is_none() && !defs.contains(&r) && !live_in.contains(&r) {
            bad_use = Some(r);
        }
    });
    if let Some(reg) = bad_use {
        return Err(VerifyProgramError::UseBeforeDef { section, reg });
    }

    match inst {
        VInst::LoadA { addr, .. }
        | VInst::StoreA { addr, .. }
        | VInst::LoadU { addr, .. }
        | VInst::StoreU { addr, .. } => {
            if addr.array.index() >= ctx.arrays {
                return Err(VerifyProgramError::UnknownArray {
                    index: addr.array.index(),
                });
            }
            let invariant_ok =
                section == "epilogue" && ctx.reduction_targets.contains(&addr.array.index());
            if addr.scale < 0 || (addr.scale == 0 && !invariant_ok) {
                return Err(VerifyProgramError::BadAddrScale {
                    section,
                    scale: addr.scale,
                });
            }
        }
        VInst::ShiftPair { amt, .. } => {
            if let Some(a) = amt.as_const() {
                if !(0..=ctx.v).contains(&a) {
                    return Err(VerifyProgramError::ShiftAmountOutOfRange { amount: a });
                }
            }
        }
        VInst::Splice { point, .. } => {
            if let Some(p) = point.as_const() {
                if !(0..=ctx.v).contains(&p) {
                    return Err(VerifyProgramError::SplicePointOutOfRange { point: p });
                }
            }
        }
        VInst::Perm { pattern, .. } => {
            if pattern.len() != ctx.v as usize {
                return Err(VerifyProgramError::BadPermPattern {
                    len: pattern.len(),
                    bad_entry: None,
                });
            }
            if let Some(&bad) = pattern.iter().find(|&&e| (e as i64) >= 2 * ctx.v) {
                return Err(VerifyProgramError::BadPermPattern {
                    len: pattern.len(),
                    bad_entry: Some(bad),
                });
            }
        }
        _ => {}
    }

    if let Some(d) = inst.def() {
        defs.insert(d);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{CodegenOptions, ReuseMode};
    use crate::sexpr::SExpr;
    use crate::vir::Addr;
    use simdize_ir::{parse_program, ArrayId, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    fn compiled(src: &str, reuse: ReuseMode, unroll: bool) -> SimdProgram {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Zero)
            .unwrap();
        crate::generate::generate(&g, &CodegenOptions::default().reuse(reuse).unroll(unroll))
            .unwrap()
    }

    const SRC: &str = "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
                       for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn generated_programs_verify() {
        for reuse in [
            ReuseMode::None,
            ReuseMode::SoftwarePipeline,
            ReuseMode::PredictiveCommoning,
        ] {
            for unroll in [false, true] {
                verify_program(&compiled(SRC, reuse, unroll))
                    .unwrap_or_else(|e| panic!("{reuse:?}/unroll={unroll}: {e}"));
            }
        }
    }

    #[test]
    fn strided_and_unaligned_programs_verify() {
        let strided = "arrays { out: i32[128] @ 0; inter: i32[300] @ 4; }
                       for i in 0..100 { out[i] = inter[2*i] + inter[2*i+1]; }";
        for reuse in [
            ReuseMode::None,
            ReuseMode::SoftwarePipeline,
            ReuseMode::PredictiveCommoning,
        ] {
            verify_program(&compiled(strided, reuse, true)).unwrap();
        }
        let p = parse_program(strided).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        verify_program(&crate::unaligned::generate_unaligned(&g).unwrap()).unwrap();

        let p2 = parse_program(SRC).unwrap();
        let g = ReorgGraph::build(&p2, VectorShape::V16).unwrap();
        verify_program(&crate::unaligned::generate_unaligned(&g).unwrap()).unwrap();
    }

    #[test]
    fn reduction_programs_verify() {
        // Reductions are the one place a loop-invariant (scale 0)
        // accumulator address is legal — in the epilogue.
        let prog = compiled(
            "arrays { acc: i32[256] @ 0; x: i32[256] @ 4; }
             for i in 0..200 { acc[i] += x[i] * x[i]; }",
            ReuseMode::SoftwarePipeline,
            true,
        );
        assert!(prog
            .epilogue
            .iter()
            .any(|i| matches!(i, VInst::LoadA { addr, .. } if addr.scale == 0)));
        verify_program(&prog).unwrap();
    }

    #[test]
    fn catches_use_before_def() {
        let mut prog = compiled(SRC, ReuseMode::None, false);
        let ghost = VReg(prog.nvregs);
        prog.nvregs += 1;
        prog.body.insert(
            0,
            VInst::StoreA {
                addr: Addr::new(ArrayId::from_index(0), 0),
                src: ghost,
            },
        );
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyProgramError::UseBeforeDef {
                section: "body",
                ..
            })
        ));
    }

    #[test]
    fn catches_invariant_addr_outside_reduction_epilogue() {
        // A scale-0 load in the steady body is meaningless: the chunk
        // never advances with `i`.
        let mut prog = compiled(SRC, ReuseMode::None, false);
        let dst = VReg(prog.nvregs);
        prog.nvregs += 1;
        prog.body.insert(
            0,
            VInst::LoadA {
                dst,
                addr: Addr::invariant(ArrayId::from_index(1), 0),
            },
        );
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyProgramError::BadAddrScale {
                section: "body",
                scale: 0,
            })
        ));

        // Even in the epilogue it is only legal for reduction targets.
        let mut prog = compiled(SRC, ReuseMode::None, false);
        let dst = VReg(prog.nvregs);
        prog.nvregs += 1;
        prog.epilogue.push(VInst::LoadA {
            dst,
            addr: Addr::invariant(ArrayId::from_index(1), 0),
        });
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyProgramError::BadAddrScale {
                section: "epilogue",
                scale: 0,
            })
        ));
    }

    #[test]
    fn catches_pair_missing_rotation() {
        let mut prog = compiled(SRC, ReuseMode::SoftwarePipeline, true);
        assert!(prog.body_pair.is_some(), "unroll should produce a pair");
        verify_program(&prog).unwrap();
        // Drop the pair's loop-carried rotations: the second unrolled
        // iteration would then read stale chunks.
        prog.body_pair
            .as_mut()
            .unwrap()
            .retain(|i| !matches!(i, VInst::Copy { .. }));
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyProgramError::PairMissingRotation { .. })
        ));
    }

    #[test]
    fn catches_bad_perm_and_ranges() {
        let mut prog = compiled(SRC, ReuseMode::None, false);
        let dst = VReg(prog.nvregs);
        prog.nvregs += 1;
        let some_def = prog.body.iter().find_map(|i| i.def()).unwrap();
        prog.body.push(VInst::Perm {
            dst,
            a: some_def,
            b: some_def,
            pattern: vec![40; 16],
        });
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyProgramError::BadPermPattern {
                bad_entry: Some(40),
                ..
            })
        ));

        let mut prog = compiled(SRC, ReuseMode::None, false);
        let dst = VReg(prog.nvregs);
        prog.nvregs += 1;
        let some_def = prog.body.iter().find_map(|i| i.def()).unwrap();
        prog.body.push(VInst::ShiftPair {
            dst,
            a: some_def,
            b: some_def,
            amt: SExpr::c(99),
        });
        assert!(matches!(
            verify_program(&prog),
            Err(VerifyProgramError::ShiftAmountOutOfRange { amount: 99 })
        ));
    }
}
