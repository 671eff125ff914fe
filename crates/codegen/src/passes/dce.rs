//! Dead code elimination over the whole VIR program.
//!
//! An instruction is live when it has a side effect (store, guarded
//! block with live contents) or defines a register transitively used by
//! a live instruction — in any section, since prologue definitions (the
//! carried-register initializers) are consumed by the steady body.

use crate::vir::{SimdProgram, VInst};

pub(crate) fn run(program: &mut SimdProgram) {
    // `used[r]`: register `r` is read somewhere in the program.
    let mut used = vec![false; program.nvregs as usize];
    // Fixpoint: removing an instruction can kill the uses that kept
    // another alive.
    loop {
        used.fill(false);
        for section in [&program.prologue, &program.body, &program.epilogue] {
            for inst in section {
                inst.visit_uses(&mut |r| used[r.index()] = true);
            }
        }
        let mut removed = false;
        for section in [
            &mut program.prologue,
            &mut program.body,
            &mut program.epilogue,
        ] {
            removed |= sweep(section, &used);
        }
        if !removed {
            break;
        }
    }
}

/// Drops the dead instructions of `insts`; returns whether any were.
fn sweep(insts: &mut Vec<VInst>, used: &[bool]) -> bool {
    let before = insts.len();
    let mut removed = false;
    insts.retain_mut(|inst| match inst {
        VInst::StoreA { .. } | VInst::StoreU { .. } => true,
        VInst::Guarded { body, .. } => {
            removed |= sweep(body, used);
            !body.is_empty()
        }
        other => match other.def() {
            Some(dst) => used[dst.index()],
            None => true,
        },
    });
    removed || insts.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexpr::SExpr;
    use crate::vir::{Addr, VReg};
    use simdize_ir::{parse_program, ArrayId, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    #[test]
    fn removes_unused_chains_keeps_stores() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
             for i in 0..64 { a[i] = b[i]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Zero)
            .unwrap();
        let mut prog =
            crate::generate::generate(&g, &crate::options::CodegenOptions::default().unroll(false))
                .unwrap();

        // Inject garbage: a load whose result is never used, feeding
        // another dead op.
        let dead1 = VReg(prog.nvregs);
        let dead2 = VReg(prog.nvregs + 1);
        prog.nvregs += 2;
        prog.body.insert(
            0,
            VInst::LoadA {
                dst: dead1,
                addr: Addr::new(ArrayId::from_index(1), 7),
            },
        );
        prog.body.insert(
            1,
            VInst::ShiftPair {
                dst: dead2,
                a: dead1,
                b: dead1,
                amt: SExpr::c(4),
            },
        );
        let with_garbage = prog.body.len();
        run(&mut prog);
        assert_eq!(prog.body.len(), with_garbage - 2);
        assert!(prog.body.iter().any(|i| matches!(i, VInst::StoreA { .. })));
    }

    #[test]
    fn keeps_prologue_defs_used_by_body() {
        let p = parse_program(
            "arrays { a: i32[512] @ 0; b: i32[512] @ 0; c: i32[512] @ 0; }
             for i in 0..256 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Zero)
            .unwrap();
        let opts = crate::options::CodegenOptions::default()
            .reuse(crate::options::ReuseMode::SoftwarePipeline)
            .unroll(false);
        let prog = crate::generate::generate(&g, &opts).unwrap();
        // The SP initializer copies in the prologue must survive DCE
        // (their dsts are read by the body before being re-written).
        let copies = prog
            .prologue()
            .iter()
            .filter(|i| matches!(i, VInst::Copy { .. }))
            .count();
        assert_eq!(copies, 3);
    }
}
