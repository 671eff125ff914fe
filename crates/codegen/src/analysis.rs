//! Static analyses over generated programs.
//!
//! The paper observes that the dominant-shift policy "introduces more
//! redundancy and may generate codes that are more difficult to
//! optimize" — visible in its larger compiler-overhead bar. Register
//! pressure is the concrete mechanism: AltiVec has 32 vector registers,
//! and bodies whose maximum number of simultaneously-live values
//! exceeds that spill. [`max_live_vregs`] measures it.

use crate::vir::{SimdProgram, VInst, VReg};
use simdize_ir::hash::HashSet;

/// The maximum number of simultaneously live virtual vector registers
/// in the steady-state body (the unrolled pair when present, since
/// that is what actually executes).
///
/// Loop-carried registers (the destinations of the bottom-of-body
/// `Copy` rotations, read at the top of the next iteration) are live
/// across the back edge and therefore live throughout.
pub fn max_live_vregs(program: &SimdProgram) -> usize {
    let body: &[VInst] = program.body_pair().unwrap_or(program.body());
    // Live-in of the body equals its own live-out (steady loop): the
    // registers read before being defined within the body.
    let mut defined: HashSet<VReg> = HashSet::default();
    let mut live_in: HashSet<VReg> = HashSet::default();
    for inst in body {
        inst.visit_uses(&mut |r| {
            if !defined.contains(&r) {
                live_in.insert(r);
            }
        });
        if let Some(d) = inst.def() {
            defined.insert(d);
        }
    }

    // Backward scan with live-out = live-in (the back edge).
    let mut live: HashSet<VReg> = live_in.clone();
    let mut max = live.len();
    for inst in body.iter().rev() {
        if let Some(d) = inst.def() {
            live.remove(&d);
        }
        inst.visit_uses(&mut |r| {
            live.insert(r);
        });
        max = max.max(live.len());
    }
    max
}

/// The number of vector registers on the modeled machine (AltiVec/VMX
/// and most 128-bit ISAs provide 32).
pub const MACHINE_VREGS: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{CodegenOptions, ReuseMode};
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    fn pressure(src: &str, policy: Policy, reuse: ReuseMode) -> usize {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        let prog = crate::generate::generate(&g, &CodegenOptions::default().reuse(reuse)).unwrap();
        max_live_vregs(&prog)
    }

    const FIG1: &str = "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0; }
                        for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }";

    #[test]
    fn sp_keeps_carried_registers_live() {
        // Three carried chains under zero-shift: pressure must be at
        // least the carried count plus working values, but well under
        // the machine limit for this small loop.
        let p = pressure(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        assert!(p >= 3, "carried registers not counted: {p}");
        assert!(
            p <= MACHINE_VREGS,
            "tiny loop cannot exceed the machine: {p}"
        );
    }

    #[test]
    fn naive_bodies_need_fewer_live_but_more_work() {
        // The naive generator has no loop-carried values: pressure can
        // be lower even though it executes many more instructions.
        let naive = pressure(FIG1, Policy::Zero, ReuseMode::None);
        let sp = pressure(FIG1, Policy::Zero, ReuseMode::SoftwarePipeline);
        assert!(naive >= 2);
        assert!(sp >= 2);
    }

    #[test]
    fn large_loops_grow_pressure() {
        let small = pressure(FIG1, Policy::Lazy, ReuseMode::SoftwarePipeline);
        let big_src = "arrays { a: i32[256] @ 0; b: i32[256] @ 0; c: i32[256] @ 0;
                                d: i32[256] @ 0; e: i32[256] @ 0; f: i32[256] @ 0;
                                g: i32[256] @ 0; h: i32[256] @ 0; }
                       for i in 0..200 {
                           a[i+3] = b[i+1] + c[i+2] + d[i+3] + e[i+1] + f[i+2] + g[i+1] + h[i+2];
                       }";
        let big = pressure(big_src, Policy::Lazy, ReuseMode::SoftwarePipeline);
        assert!(big > small, "big {big} <= small {small}");
    }
}
