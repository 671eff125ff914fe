//! The last step of a bake, preparing a plan for the strip driver:
//! which loop sections may run in strips, and which column of the
//! register block each baked register lives in.

use super::strip::{Program, Section, STRIP};
use super::{Schedule, SectionSchedule};
use crate::kernel::{Op, NO_REG as NONE, V};
use simdize_ir::ScalarType;

/// What lowering tracks per baked register.
#[derive(Clone, Copy)]
struct Reg {
    /// Its offset in the register block while it holds one.
    slot: u32,
    /// The last op that names it in the section being assigned.
    last: u32,
    /// Bit `s`: section `s` reads it before (or without) writing it.
    reads_first: u8,
    /// Bit `s`: section `s` writes it.
    defs: u8,
    /// Named by a strip section, so it needs a whole column.
    wide: bool,
    /// Live into the loop being assigned: kept until the loop ends.
    pinned: bool,
}

impl Reg {
    const UNNAMED: Reg =
        Reg { slot: NONE, last: 0, reads_first: 0, defs: 0, wide: false, pinned: false };

    /// Whether a section after `s` reads the value section `s` leaves.
    fn live_after(&self, s: usize) -> bool {
        let (reads, defs) = (self.reads_first >> (s + 1), self.defs >> (s + 1));
        reads != 0 && reads.trailing_zeros() <= defs.trailing_zeros()
    }
}

/// One section's analysis: for a loop, the registers live into it
/// (read before, or without, being written) and whether it may run in
/// strips.
struct Scan {
    live_in: Vec<u32>,
    strips: bool,
}

/// Whether two memory accesses `(start, step)` of one loop section,
/// at least one of them a store, stay independent when the section's
/// `iters` iterations run in strips.
///
/// Either their whole-trip extents are disjoint — the only way
/// accesses with different steps (the strided `deinterleave` body)
/// qualify — or they share a step of at least a vector and never
/// touch overlapping bytes from two different iterations of one strip
/// window: `x` in iteration `k + q` overlaps `y` in iteration `k`
/// when `q·step` lands within a vector of `y.start − x.start`, and
/// only the two multiples of `step` around that distance can.
fn independent(x: (i64, i64), y: (i64, i64), iters: i64) -> bool {
    let extent = |(start, step): (i64, i64)| {
        let span = (iters - 1).max(0) * step;
        (start + span.min(0), start + span.max(0) + V)
    };
    let ((x_lo, x_hi), (y_lo, y_hi)) = (extent(x), extent(y));
    if x_hi <= y_lo || y_hi <= x_lo {
        return true;
    }
    let step = x.1;
    if step != y.1 || step.abs() < V {
        return false;
    }
    let d = y.0 - x.0;
    let q = d.div_euclid(step);
    [q, q + step.signum()]
        .into_iter()
        .all(|q| q == 0 || q.abs() >= STRIP as i64 || (q * step - d).abs() >= V)
}

/// Scans section `s`: appends its operand triples to `named`, records
/// in `info` which registers it reads first and which it writes, and,
/// for a loop section (the unrolled pair loop or the steady-state
/// body), decides whether it may run in strips.
///
/// A strip reorders execution: op `i` runs for iterations
/// `k..k + STRIP` before op `i + 1` runs for any of them. That is
/// observationally equivalent to the sequential schedule exactly when
///
/// 1. no register carries a value between iterations — every live-in
///    is never written by the section at all (a loop invariant,
///    broadcast down its column), and
/// 2. every store is [`independent`] of every access, itself included.
///
/// Software-pipelined bodies and reductions fail condition 1; loops
/// with a dependence distance under `STRIP` vectors fail condition 2.
/// A single iteration has nothing to amortize and stays sequential.
fn scan(ops: &[Op], iters: i64, s: usize, info: &mut [Reg], named: &mut Vec<[u32; 3]>) -> Scan {
    let (bit, looped) = (1u8 << s, iters > 1);
    let mut live_in = Vec::with_capacity(if looped { ops.len() } else { 0 });
    let mut accesses = Vec::with_capacity(live_in.capacity());
    let mut carried = false;
    for op in ops {
        let [dst, a, b] = op.regs();
        named.push([dst, a, b]);
        // Sources before the destination: `acc = acc + x` reads first.
        for r in [a, b] {
            if r != NONE && (info[r as usize].reads_first | info[r as usize].defs) & bit == 0 {
                info[r as usize].reads_first |= bit;
                if looped {
                    live_in.push(r);
                }
            }
        }
        if dst != NONE {
            carried |= info[dst as usize].reads_first & bit != 0;
            info[dst as usize].defs |= bit;
        }
        match *op {
            Op::Load { start, step, .. } | Op::LoadFused { start, step, .. } if looped => {
                accesses.push(((start, step), false));
            }
            Op::Store { start, step, .. } if looped => accesses.push(((start, step), true)),
            _ => {}
        }
    }
    let strips = looped
        && !carried
        && accesses.iter().filter(|(_, stores)| *stores).all(|&(store, _)| {
            accesses.iter().all(|&(other, _)| independent(store, other, iters))
        });
    Scan { live_in, strips }
}

/// The free parts of the register block. Registers a strip section
/// names take whole [`STRIP`]-lane columns; the rest (prologue and
/// epilogue temporaries, mostly) take single lanes of columns split up
/// for them.
#[derive(Default)]
struct Slots {
    columns: u32,
    free_columns: Vec<u32>,
    free_lanes: Vec<u32>,
}

impl Slots {
    fn claim(&mut self, wide: bool) -> u32 {
        if let Some(lane) = (!wide).then(|| self.free_lanes.pop()).flatten() {
            return lane;
        }
        let column = self.free_columns.pop().unwrap_or_else(|| {
            self.columns += 1;
            (self.columns - 1) * STRIP as u32
        });
        if !wide {
            self.free_lanes.extend((column + 1..column + STRIP as u32).rev());
        }
        column
    }

    fn release(&mut self, wide: bool, slot: u32) {
        match wide {
            true => self.free_columns.push(slot),
            false => self.free_lanes.push(slot),
        }
    }
}

/// Lowers a baked plan — its prologue, its two loops as `(header,
/// ops, iterations)` and its epilogue — onto one register block.
///
/// Sections come out in execution order; a loop that never runs drops
/// out with its header. Registers are renamed onto the block by one
/// linear scan per section: a register takes a slot at the first op
/// that names it and hands it on after the last one, unless a later
/// section reads the value or — for a register live into a loop — the
/// loop has not ended. The block is therefore sized by the values
/// live at once, not by the baked plan's sparse id space (`nregs`).
pub(crate) fn lower(
    prologue: Vec<Op>,
    loops: [(Vec<Op>, Vec<Op>, i64); 2],
    epilogue: Vec<Op>,
    nregs: usize,
    elem: ScalarType,
) -> (Program, Schedule) {
    let mut plan: Vec<(Vec<Op>, i64)> = Vec::with_capacity(6);
    plan.push((prologue, 1));
    let mut loop_at = [usize::MAX; 2];
    for (i, (header, ops, iters)) in loops.into_iter().enumerate() {
        if iters > 0 {
            plan.push((header, 1));
            loop_at[i] = plan.len();
            plan.push((ops, iters));
        }
    }
    plan.push((epilogue, 1));

    let mut info = vec![Reg::UNNAMED; nregs];
    let mut named = Vec::with_capacity(plan.iter().map(|(ops, _)| ops.len()).sum());
    let scans: Vec<Scan> = plan
        .iter()
        .enumerate()
        .map(|(s, (ops, iters))| {
            let from = named.len();
            let scan = scan(ops, *iters, s, &mut info, &mut named);
            if scan.strips {
                for &r in named[from..].iter().flatten().filter(|&&r| r != NONE) {
                    info[r as usize].wide = true;
                }
            }
            scan
        })
        .collect();

    let mut slots = Slots::default();
    let mut named = &named[..];
    let mut sections = Vec::with_capacity(plan.len());
    for (s, ((mut ops, iters), scan)) in plan.into_iter().zip(&scans).enumerate() {
        let (here, rest) = named.split_at(ops.len());
        named = rest;
        for (i, regs) in here.iter().enumerate() {
            for &r in regs.iter().filter(|&&r| r != NONE) {
                info[r as usize].last = i as u32;
            }
        }
        let (mut invariant, mut written) = (Vec::new(), Vec::new());
        for &r in &scan.live_in {
            let reg = &mut info[r as usize];
            reg.pinned = true;
            if reg.slot == NONE {
                reg.slot = slots.claim(reg.wide);
            }
            if scan.strips {
                invariant.push(reg.slot);
            }
        }
        for (i, (op, regs)) in ops.iter_mut().zip(here).enumerate() {
            for &r in regs.iter().filter(|&&r| r != NONE) {
                let reg = &mut info[r as usize];
                if reg.slot == NONE {
                    reg.slot = slots.claim(reg.wide);
                }
            }
            op.rename(|r| info[r as usize].slot);
            if scan.strips && regs[0] != NONE {
                written.push(info[regs[0] as usize].slot);
            }
            for &r in regs.iter().filter(|&&r| r != NONE) {
                let reg = &mut info[r as usize];
                // An op may name a register twice: release it once.
                let done = reg.last == i as u32 && reg.slot != NONE;
                if done && !reg.pinned && !reg.live_after(s) {
                    slots.release(reg.wide, reg.slot);
                    reg.slot = NONE;
                }
            }
        }
        for &r in &scan.live_in {
            let reg = &mut info[r as usize];
            reg.pinned = false;
            if !reg.live_after(s) {
                slots.release(reg.wide, reg.slot);
                reg.slot = NONE;
            }
        }
        let width = if scan.strips { STRIP } else { 1 };
        sections.push(Section { ops, iters, width, invariant, written });
    }

    let schedule = |i: usize| match scans.get(loop_at[i]).is_some_and(|scan| scan.strips) {
        true => SectionSchedule::Strip,
        false => SectionSchedule::Sequential,
    };
    let program = Program { sections, nregs: slots.columns as usize * STRIP, elem };
    (program, Schedule { pair: schedule(0), body: schedule(1) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::BinOp;

    fn strips(ops: &[Op], iters: i64) -> bool {
        scan(ops, iters, 0, &mut [Reg::UNNAMED; 8], &mut Vec::new()).strips
    }

    #[test]
    fn strip_legality_separates_independent_sections_from_dependent_ones() {
        let load = |dst, start, step| Op::Load { dst, arr: 0, start, step };
        let store = |src, start, step| Op::Store { src, arr: 1, start, step };
        let far = 1 << 20;

        // A misaligned copy between disjoint streams.
        assert!(strips(&[load(0, 1024, 16), store(0, far, 16)], 1000));
        // Software-pipelined shift: r1 is read before the body rewrites
        // it — a value carried across iterations.
        let pipelined = [
            load(0, 1024, 16),
            Op::Shift { dst: 2, a: 1, b: 0, amt: 4 },
            Op::Copy { dst: 1, src: 0 },
            store(2, far, 16),
        ];
        assert!(!strips(&pipelined, 1000));
        // A loop-invariant register (only read here) does not block strips.
        let invariant = [
            load(0, 1024, 16),
            Op::Bin { dst: 2, op: BinOp::Add, a: 0, b: 7 },
            store(2, far, 16),
        ];
        assert!(strips(&invariant, 1000));

        // In place, the load `q` vectors ahead of the store: a
        // dependence inside the strip window until `q` reaches STRIP,
        // in either direction and at unaligned distances too.
        let s = STRIP as i64;
        for (distance, legal) in [(16, false), (16 * (s - 1), false), (16 * s - 1, false), (16 * s, true)] {
            assert_eq!(strips(&[load(0, 4096 + distance, 16), store(0, 4096, 16)], 1000), legal);
            assert_eq!(strips(&[load(0, 4096, 16), store(0, 4096 + distance, 16)], 1000), legal);
        }
        // ... unless the trip is too short for the extents to meet.
        assert!(strips(&[load(0, 4096 + 64, 16), store(0, 4096, 16)], 4));

        // Mixed steps: legal on disjoint whole-trip extents only.
        assert!(strips(&[load(0, 1024, 32), store(0, far, 16)], 1000));
        assert!(!strips(&[load(0, 1024, 32), store(0, 1024 + 32 * 500, 16)], 1000));
        // A store that does not advance overwrites itself.
        assert!(!strips(&[load(0, 1024, 16), store(0, far, 0)], 1000));
    }
}
