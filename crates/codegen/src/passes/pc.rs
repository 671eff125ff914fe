//! Predictive commoning (the paper's `PC` code-generation option,
//! crediting O'Brien's TPO optimization).
//!
//! The naive Figure 7 generator materializes, for every stream shift,
//! both the *current* and the *next/previous* register of a stream in
//! the same iteration. Predictive commoning discovers that one body
//! expression equals another body expression of the *next* iteration —
//! `e₂(i) = e₁(i + B)` — and carries `e₂`'s value across iterations in a
//! register instead of recomputing `e₁`:
//!
//! * prologue: `carried = e₁` evaluated at the first steady iteration;
//! * body: uses of `e₁` read `carried`; only `e₂` is computed;
//! * bottom of loop: `carried = e₂`.
//!
//! On the output of this crate's generator the transformation converges
//! to exactly the software-pipelined code of Figure 10, which is how the
//! paper's evaluation can compare the two as alternatives.

use crate::vir::{SimdProgram, VInst, VReg};
use simdize_ir::hash::HashMap;

pub(crate) fn run(program: &mut SimdProgram) {
    let b = program.block() as i64;

    // Map each body-defined register to its defining instruction. A
    // load of an array the body stores (a scatter's merge) reads what
    // the previous iteration wrote, so it is never carried: left out,
    // it is a live-in no signature covers.
    let stored: Vec<_> = program
        .body
        .iter()
        .filter_map(|i| match i {
            VInst::StoreA { addr, .. } => Some(addr.array),
            _ => None,
        })
        .collect();
    let defs: HashMap<VReg, VInst> = program
        .body
        .iter()
        .filter(|i| !matches!(i, VInst::LoadA { addr, .. } if stored.contains(&addr.array)))
        .filter_map(|i| i.def().map(|d| (d, i.clone())))
        .collect();

    // Signatures at substitution 0 and +B for every defined register.
    let mut sig0: HashMap<String, VReg> = HashMap::default();
    let mut candidates: Vec<(VReg, String, usize)> = Vec::new();
    for &reg in defs.keys() {
        if let Some((s0, size, has_load)) = signature(reg, 0, &defs) {
            if has_load {
                sig0.entry(s0).or_insert(reg);
            }
            if let Some((sb, _, has_load_b)) = signature(reg, b, &defs) {
                if has_load_b {
                    candidates.push((reg, sb, size));
                }
            }
        }
    }

    // Deterministic order: largest trees first, then register number.
    // Every pair is taken — pairs living inside trees that die anyway
    // produce carried registers with no remaining uses, which the DCE
    // pass removes along with their rotations and initializers.
    candidates.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));

    let mut chosen: Vec<(VReg, VReg)> = Vec::new(); // (e1, e2): e2(i) == e1(i+B)
    for (e1, sig_b, _) in candidates {
        let Some(&e2) = sig0.get(&sig_b) else {
            continue;
        };
        if e2 != e1 {
            chosen.push((e1, e2));
        }
    }

    if chosen.is_empty() {
        return;
    }

    // Apply: carried register per pair; uses of e1 → carried.
    let mut rename: HashMap<VReg, VReg> = HashMap::default();
    let mut inits: Vec<VInst> = Vec::new();
    let mut copies: Vec<(VReg, VReg)> = Vec::new();
    for &(e1, e2) in &chosen {
        let carried = VReg(program.nvregs);
        program.nvregs += 1;
        // Prologue initializer: e1 evaluated at i = LB (the prologue
        // runs at i = 0, LB = B), i.e. e1's tree shifted by +B — which
        // is e2's tree shifted by 0 evaluated at the prologue... we
        // simply clone e1's tree with addresses shifted by +B.
        let init_val = emit_shifted_tree(e1, b, &defs, program, &mut inits);
        inits.push(VInst::Copy {
            dst: carried,
            src: init_val,
        });
        rename.insert(e1, carried);
        copies.push((carried, e2));
    }
    program.prologue.extend(inits);

    // Rewrite uses in the body (defs of e1 trees become dead; DCE
    // removes them next).
    for inst in &mut program.body {
        inst.visit_uses_mut(&mut |r| *r = rename.get(r).copied().unwrap_or(*r));
    }

    // Bottom-of-loop rotations. A copy source may itself be a carried
    // register (shift chains: e2 of one pair is e1 of another, renamed
    // to its carried register), in which case that copy must read the
    // register *before* the rotation overwrites it. Order the copies
    // topologically: emit a copy once no remaining copy still needs to
    // read its destination. The dependency graph is acyclic — a cycle
    // would require sig(e, +kB) == sig(e) for some k > 0, impossible
    // for trees containing loads.
    let mut remaining: Vec<(VReg, VReg)> = copies
        .iter()
        .map(|&(c, s)| (c, *rename.get(&s).unwrap_or(&s)))
        .collect();
    while !remaining.is_empty() {
        let idx = remaining
            .iter()
            .position(|&(c, _)| !remaining.iter().any(|&(c2, s2)| c2 != c && s2 == c))
            .expect("carried-copy dependencies are acyclic");
        let (carried, src) = remaining.remove(idx);
        program.body.push(VInst::Copy { dst: carried, src });
    }
}

/// Canonical signature of `reg`'s value with loads shifted by `delta`
/// elements. Returns `(signature, node count, contains a load)`, or
/// `None` when the tree reads a register not defined in the body (a
/// live-in, which cannot be shifted).
fn signature(reg: VReg, delta: i64, defs: &HashMap<VReg, VInst>) -> Option<(String, usize, bool)> {
    let inst = defs.get(&reg)?;
    match inst {
        VInst::LoadA { addr, .. } => {
            let sh = addr.shifted(delta);
            Some((
                format!("ld({},{},{})", sh.array.index(), sh.elem, sh.scale),
                1,
                true,
            ))
        }
        VInst::SplatConst { value, .. } => Some((format!("sc({value})"), 1, false)),
        VInst::SplatParam { param, .. } => Some((format!("sp({param})"), 1, false)),
        VInst::Bin { op, a, b, .. } => {
            let (sa, na, la) = signature(*a, delta, defs)?;
            let (sb, nb, lb) = signature(*b, delta, defs)?;
            Some((format!("b({op:?},{sa},{sb})"), 1 + na + nb, la || lb))
        }
        VInst::Un { op, a, .. } => {
            let (sa, na, la) = signature(*a, delta, defs)?;
            Some((format!("u({op:?},{sa})"), 1 + na, la))
        }
        VInst::ShiftPair { a, b, amt, .. } => {
            let (sa, na, la) = signature(*a, delta, defs)?;
            let (sb, nb, lb) = signature(*b, delta, defs)?;
            Some((format!("pair({sa},{sb},{amt})"), 1 + na + nb, la || lb))
        }
        VInst::Splice { a, b, point, .. } => {
            let (sa, na, la) = signature(*a, delta, defs)?;
            let (sb, nb, lb) = signature(*b, delta, defs)?;
            Some((format!("splice({sa},{sb},{point})"), 1 + na + nb, la || lb))
        }
        VInst::Perm { a, b, pattern, .. } => {
            let (sa, na, la) = signature(*a, delta, defs)?;
            let (sb, nb, lb) = signature(*b, delta, defs)?;
            Some((
                format!("perm({sa},{sb},{pattern:?})"),
                1 + na + nb,
                la || lb,
            ))
        }
        VInst::LoadU { addr, .. } => {
            let sh = addr.shifted(delta);
            Some((
                format!("ldu({},{},{})", sh.array.index(), sh.elem, sh.scale),
                1,
                true,
            ))
        }
        VInst::Copy { .. }
        | VInst::StoreA { .. }
        | VInst::StoreU { .. }
        | VInst::Guarded { .. } => None,
    }
}

/// Emits a copy of `reg`'s defining tree with load addresses shifted by
/// `delta` elements; returns the result register.
fn emit_shifted_tree(
    reg: VReg,
    delta: i64,
    defs: &HashMap<VReg, VInst>,
    program: &mut SimdProgram,
    out: &mut Vec<VInst>,
) -> VReg {
    let inst = defs
        .get(&reg)
        .expect("tree regs are body-defined (checked by signature)")
        .clone();
    let mut fresh = || {
        let r = VReg(program.nvregs);
        program.nvregs += 1;
        r
    };
    match inst {
        VInst::LoadA { addr, .. } => {
            let dst = fresh();
            out.push(VInst::LoadA {
                dst,
                addr: addr.shifted(delta),
            });
            dst
        }
        VInst::SplatConst { value, .. } => {
            let dst = fresh();
            out.push(VInst::SplatConst { dst, value });
            dst
        }
        VInst::SplatParam { param, .. } => {
            let dst = fresh();
            out.push(VInst::SplatParam { dst, param });
            dst
        }
        VInst::Bin { op, a, b, .. } => {
            let a = emit_shifted_tree(a, delta, defs, program, out);
            let b = emit_shifted_tree(b, delta, defs, program, out);
            let dst = VReg(program.nvregs);
            program.nvregs += 1;
            out.push(VInst::Bin { dst, op, a, b });
            dst
        }
        VInst::Un { op, a, .. } => {
            let a = emit_shifted_tree(a, delta, defs, program, out);
            let dst = VReg(program.nvregs);
            program.nvregs += 1;
            out.push(VInst::Un { dst, op, a });
            dst
        }
        VInst::ShiftPair { a, b, amt, .. } => {
            let a = emit_shifted_tree(a, delta, defs, program, out);
            let b = emit_shifted_tree(b, delta, defs, program, out);
            let dst = VReg(program.nvregs);
            program.nvregs += 1;
            out.push(VInst::ShiftPair { dst, a, b, amt });
            dst
        }
        VInst::Splice { a, b, point, .. } => {
            let a = emit_shifted_tree(a, delta, defs, program, out);
            let b = emit_shifted_tree(b, delta, defs, program, out);
            let dst = VReg(program.nvregs);
            program.nvregs += 1;
            out.push(VInst::Splice { dst, a, b, point });
            dst
        }
        VInst::LoadU { addr, .. } => {
            let dst = fresh();
            out.push(VInst::LoadU {
                dst,
                addr: addr.shifted(delta),
            });
            dst
        }
        VInst::Perm { a, b, pattern, .. } => {
            let a = emit_shifted_tree(a, delta, defs, program, out);
            let b = emit_shifted_tree(b, delta, defs, program, out);
            let dst = VReg(program.nvregs);
            program.nvregs += 1;
            out.push(VInst::Perm { dst, a, b, pattern });
            dst
        }
        VInst::Copy { .. }
        | VInst::StoreA { .. }
        | VInst::StoreU { .. }
        | VInst::Guarded { .. } => {
            unreachable!("filtered by signature")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::options::{CodegenOptions, ReuseMode};
    use crate::vir::VInst;
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    fn counts(src: &str, reuse: ReuseMode) -> (usize, usize) {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Zero)
            .unwrap();
        let prog =
            crate::generate::generate(&g, &CodegenOptions::default().reuse(reuse).unroll(false))
                .unwrap();
        let loads = prog
            .body()
            .iter()
            .filter(|i| matches!(i, VInst::LoadA { .. }))
            .count();
        let copies = prog
            .body()
            .iter()
            .filter(|i| matches!(i, VInst::Copy { .. }))
            .count();
        (loads, copies)
    }

    const FIG1: &str = "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
                        for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn pc_matches_software_pipelining() {
        let (pc_loads, pc_copies) = counts(FIG1, ReuseMode::PredictiveCommoning);
        let (sp_loads, sp_copies) = counts(FIG1, ReuseMode::SoftwarePipeline);
        assert_eq!(pc_loads, sp_loads, "PC should reach SP's load count");
        assert_eq!(pc_copies, sp_copies);
        let (naive_loads, _) = counts(FIG1, ReuseMode::None);
        assert!(pc_loads < naive_loads);
    }

    #[test]
    fn pc_guarantees_single_load_per_stream() {
        let (loads, _) = counts(FIG1, ReuseMode::PredictiveCommoning);
        assert_eq!(loads, 2); // one per input stream
    }
}
