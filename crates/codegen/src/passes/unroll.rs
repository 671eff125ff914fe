//! Copy-removing unroll-by-2 of the steady-state loop (paper §4.5,
//! closing remark: "the copy operation can be easily removed by
//! unrolling the loop twice and forward propagating the copy").
//!
//! The unrolled body executes two steady iterations; in the first half
//! the loop-carried copies are forward-propagated away (reads of a
//! carried register in the second half go straight to the first half's
//! value), so only the second half's rotations remain. A leftover
//! single-iteration loop (the original body) handles odd trip counts.

use crate::vir::{SimdProgram, VInst, VReg};

pub(crate) fn run(program: &mut SimdProgram) {
    let ncopies = program
        .body
        .iter()
        .filter(|i| matches!(i, VInst::Copy { .. }))
        .count();
    if ncopies == 0 {
        return; // nothing to win
    }
    let mut copies: Vec<(VReg, VReg)> = Vec::with_capacity(ncopies);
    copies.extend(program.body.iter().filter_map(|i| match i {
        VInst::Copy { dst, src } => Some((*dst, *src)),
        _ => None,
    }));

    // Chains (a copy reading another carried register) need the
    // sequential-copy semantics preserved; keep the copies in that case.
    let has_chain = copies
        .iter()
        .any(|&(_, src)| copies.iter().any(|&(carried, _)| carried == src));

    // The core becomes the pair's first half: room for all of it.
    let ncore = program.body.len() - ncopies;
    let mut core: Vec<VInst> =
        Vec::with_capacity(2 * ncore + ncopies + if has_chain { ncopies } else { 0 });
    core.extend(
        program
            .body
            .iter()
            .filter(|i| !matches!(i, VInst::Copy { .. }))
            .cloned(),
    );

    // Both maps are indexed by register: every register they are asked
    // about is one of the body's, below the count before unrolling.
    let nvregs = program.nvregs as usize;
    // The value each carried register holds at the end of half 1.
    let mut end_value: Vec<Option<VReg>> = vec![None; nvregs];
    for &(dst, src) in &copies {
        end_value[dst.index()] = Some(src);
    }

    // Second half: addresses advance by B; every defined register is
    // renamed; reads of carried registers take half 1's value directly
    // (forward-propagated copies) unless chains forced real copies.
    let b = program.block() as i64;
    let mut rename: Vec<Option<VReg>> = vec![None; nvregs];
    let mut half2: Vec<VInst> = Vec::with_capacity(core.len() + copies.len());
    for inst in &core {
        let mut inst = inst.clone();
        // Rewrite uses first (pre-rename state).
        inst.visit_uses_mut(&mut |r| {
            if let Some(n) = rename[r.index()] {
                *r = n;
            } else if !has_chain {
                *r = end_value[r.index()].unwrap_or(*r);
            }
        });
        shift_addrs(&mut inst, b);
        if let Some(dst) = inst.def_mut() {
            let fresh = VReg(program.nvregs);
            program.nvregs += 1;
            rename[dst.index()] = Some(fresh);
            *dst = fresh;
        }
        half2.push(inst);
    }
    // Second half's rotations close the loop for the next pair.
    for &(dst, src) in &copies {
        let src = rename[src.index()].unwrap_or(src);
        half2.push(VInst::Copy { dst, src });
    }

    // First half: the body without its rotations, which are
    // forward-propagated into half 2 (or kept when chains need them).
    let mut pair = core;
    pair.reserve_exact(half2.len() + if has_chain { copies.len() } else { 0 });
    if has_chain {
        pair.extend(copies.iter().map(|&(dst, src)| VInst::Copy { dst, src }));
    }
    pair.extend(half2);
    program.body_pair = Some(pair);
}

fn shift_addrs(inst: &mut VInst, delta: i64) {
    match inst {
        VInst::LoadA { addr, .. }
        | VInst::StoreA { addr, .. }
        | VInst::LoadU { addr, .. }
        | VInst::StoreU { addr, .. } => *addr = addr.shifted(delta),
        VInst::Guarded { body, .. } => {
            for i in body {
                shift_addrs(i, delta);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use crate::options::{CodegenOptions, ReuseMode};
    use crate::vir::VInst;
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    const FIG1: &str = "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
                        for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }";

    fn gen(reuse: ReuseMode, unroll: bool) -> crate::vir::SimdProgram {
        let p = parse_program(FIG1).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Zero)
            .unwrap();
        crate::generate::generate(&g, &CodegenOptions::default().reuse(reuse).unroll(unroll))
            .unwrap()
    }

    #[test]
    fn unroll_halves_copy_overhead() {
        let p = gen(ReuseMode::SoftwarePipeline, true);
        let pair = p.body_pair().expect("unrolled");
        let pair_copies = pair
            .iter()
            .filter(|i| matches!(i, VInst::Copy { .. }))
            .count();
        let body_copies = p
            .body()
            .iter()
            .filter(|i| matches!(i, VInst::Copy { .. }))
            .count();
        // Two iterations' worth of work, one iteration's worth of copies.
        assert_eq!(pair_copies, body_copies);
        let pair_stores = pair
            .iter()
            .filter(|i| matches!(i, VInst::StoreA { .. }))
            .count();
        assert_eq!(pair_stores, 2);
    }

    #[test]
    fn no_copies_no_unroll() {
        let p = gen(ReuseMode::None, true);
        assert!(p.body_pair().is_none());
    }
}
