//! The last step of a bake, preparing a plan for the strip driver:
//! which loop sections may run in strips, where the registers they
//! carry between iterations live in the lanes, and which column of the
//! register block each baked register lives in.

use super::strip::{Program, Section, STRIP};
use super::{Schedule, SectionSchedule, SequentialReason};
use crate::kernel::{splat_bytes, Op, NO_REG as NONE, V};
use simdize_codegen::reduction_identity;
use simdize_ir::{BinOp, ScalarType};
use SequentialReason::{CarriedRegister, MemoryDependence, OneIteration};

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
    /// Its rotation chain ([`Block::groups`], `NONE` if none) and its
    /// lane offset there.
    group: u32,
    offset: u32,
}

impl Reg {
    const UNNAMED: Reg =
        Reg { slot: NONE, last: 0, reads_first: 0, defs: 0, wide: false, pinned: false, group: NONE, offset: 0 };

    /// Whether a section after `s` reads the value section `s` leaves.
    fn live_after(&self, s: usize) -> bool {
        let (reads, defs) = (self.reads_first >> (s + 1), self.defs >> (s + 1));
        reads != 0 && reads.trailing_zeros() <= defs.trailing_zeros()
    }
}

/// One section's analysis. The lists but `regs` stay empty outside loops.
struct Scan {
    /// Each op's operands, [`Op::regs`].
    regs: Vec<[u32; 3]>,
    /// Registers live into the loop: read before, or without, being written.
    live_in: Vec<u32>,
    /// Those of them it also writes: values carried between iterations.
    carried: Vec<u32>,
    /// Every store is [`independent`] of every access, itself included.
    independent: bool,
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

/// Scans section `s`: records in `info` which registers it reads first
/// and which it writes and, for a loop, what it carries and whether
/// its memory accesses allow strips.
fn scan(ops: &[Op], iters: i64, s: usize, info: &mut [Reg]) -> Scan {
    let (bit, looped) = (1u8 << s, iters > 1);
    let capacity = if looped { ops.len() } else { 0 };
    let (mut live_in, mut carried) = (Vec::with_capacity(capacity), Vec::new());
    let mut accesses = Vec::with_capacity(capacity);
    let regs: Vec<[u32; 3]> = ops.iter().map(Op::regs).collect();
    for (op, &[dst, a, b]) in ops.iter().zip(&regs) {
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
            let reg = &mut info[dst as usize];
            if looped && reg.reads_first & !reg.defs & bit != 0 {
                carried.push(dst);
            }
            reg.defs |= bit;
        }
        match *op {
            Op::Load { start, step, .. } | Op::LoadFused { start, step, .. } if looped => {
                accesses.push(((start, step), false));
            }
            Op::Store { start, step, .. } if looped => accesses.push(((start, step), true)),
            _ => {}
        }
    }
    let independent = accesses.iter().filter(|(_, stores)| *stores).all(|&(store, _)| {
        accesses.iter().all(|&(other, _)| independent(store, other, iters))
    });
    Scan { regs, live_in, carried, independent }
}

/// What a strip section does with the registers it carries.
#[derive(Default)]
struct Carried {
    /// Rotation chains `[r_d, …, r_1, n]`: `r_k` holds what `n` held
    /// `k` iterations back — `n`'s column shifted down `k` lanes.
    chains: Vec<Vec<u32>>,
    /// Reduction accumulators and their operator, one partial per lane.
    partials: Vec<(u32, BinOp)>,
}

/// How often, and where first, `regs` write and read one register, and
/// where they read it last (a read per operand).
#[derive(Clone, Copy)]
struct Uses {
    defs: usize,
    def: usize,
    reads: usize,
    read: usize,
    last_read: usize,
}

fn uses(regs: &[[u32; 3]], r: u32) -> Uses {
    let mut u = Uses { defs: 0, def: usize::MAX, reads: 0, read: usize::MAX, last_read: 0 };
    for (i, &[dst, a, b]) in regs.iter().enumerate() {
        if dst == r {
            (u.defs, u.def) = (u.defs + 1, u.def.min(i));
        }
        for _ in [a, b].into_iter().filter(|&x| x == r) {
            (u.reads, u.read, u.last_read) = (u.reads + 1, u.read.min(i), i);
        }
    }
    u
}

/// The operator of the reduction carried register `acc` closes, if it
/// closes one: `acc`'s only def (at `close`, `reads` its reads) is a
/// `Copy` from the end of a chain `acc → t_1 → … → t_m` of one
/// reassociable operator, in which every link is read once, by the
/// next, and no `t_i` is live after section `s`.
fn reduction(ops: &[Op], regs: &[[u32; 3]], acc: u32, close: usize, mut reads: Uses, s: usize, info: &[Reg]) -> Option<BinOp> {
    let Op::Copy { src: end, .. } = ops[close] else { return None };
    // `from` only grows, so the walk ends.
    let (mut link, mut from, mut kind) = (acc, 0, None);
    while link != end {
        let next = reads.read;
        let (Op::Bin { dst, op, .. } | Op::BinSplat { dst, op, .. }) = ops.get(next)? else { return None };
        if reads.reads != 1 || next < from || !op.is_reassociable() || *kind.get_or_insert(*op) != *op {
            return None;
        }
        reads = uses(regs, *dst);
        if reads.defs != 1 || info[*dst as usize].live_after(s) {
            return None;
        }
        (link, from) = (*dst, next + 1);
    }
    (reads.reads == 1 && reads.read == close && close >= from).then_some(kind?)
}

/// Where, in `order`, the first op reading a rotated register of
/// `chain` is, and where its source is written.
fn span(order: &[usize], regs: &[[u32; 3]], chain: &[u32]) -> (usize, usize) {
    let (rotated, n) = chain.split_at(chain.len() - 1);
    let first = order.iter().position(|&i| regs[i][1..].iter().any(|r| rotated.contains(r)));
    let def = order.iter().position(|&i| regs[i][0] == n[0]).expect("a chain's source is written");
    (first.unwrap_or(order.len()), def)
}

/// Lifts the backward slice of `chain`'s source above the chain's first
/// read, as one block; every other op keeps its relative order. A
/// lifted op may not pass an op naming a register it writes, nor a
/// lifted load a store to its array. `marks` comes and goes all zero.
fn hoist(order: &mut [usize], ops: &[Op], regs: &[[u32; 3]], chain: &[u32], marks: &mut [u8]) -> Result<(), SequentialReason> {
    const NEEDED: u8 = 1;
    const WRITTEN: u8 = 2;
    let (first, def) = span(order, regs, chain);
    if def < first {
        return Ok(());
    }
    let (rotated, n) = chain.split_at(chain.len() - 1);
    marks[n[0] as usize] = NEEDED;
    let (mut lift, mut loaded, mut verdict) = (vec![false; def + 1 - first], Vec::new(), Ok(()));
    for p in (first..=def).rev() {
        let [dst, a, b] = regs[order[p]];
        let marked = |r: u32, mark: u8| r != NONE && marks[r as usize] & mark != 0;
        if marked(dst, NEEDED) {
            // The source depends on the rotation: a true recurrence.
            if rotated.contains(&a) || rotated.contains(&b) {
                verdict = Err(CarriedRegister);
                break;
            }
            marks[dst as usize] = WRITTEN;
            for r in [a, b].into_iter().filter(|&r| r != NONE) {
                marks[r as usize] |= NEEDED;
            }
            if let Some(Op::Load { arr, .. } | Op::LoadFused { arr, .. }) = ops.get(order[p]) {
                loaded.push(*arr);
            }
            lift[p - first] = true;
        } else if [dst, a, b].into_iter().any(|r| marked(r, WRITTEN)) {
            verdict = Err(CarriedRegister);
            break;
        } else if matches!(ops.get(order[p]), Some(Op::Store { arr, .. }) if loaded.contains(arr)) {
            verdict = Err(MemoryDependence);
            break;
        }
    }
    // Every register marked is named in the window.
    for r in order[first..=def].iter().flat_map(|&i| regs[i]).filter(|&r| r != NONE) {
        marks[r as usize] = 0;
    }
    verdict?;
    let mut moved: Vec<usize> = (first..=def).filter(|&p| lift[p - first]).map(|p| order[p]).collect();
    moved.extend((first..=def).filter(|&p| !lift[p - first]).map(|p| order[p]));
    order[first..=def].copy_from_slice(&moved);
    Ok(())
}

/// Decides how section `s` runs (DESIGN §11.3). A strip runs op `i`
/// for iterations `k..k + STRIP` before op `i + 1` runs for any of
/// them: equivalent to program order when every store is
/// [`independent`] of every access and every carried register is a
/// rotation — only def a `Copy { r, n }` after every read of `r`, so
/// `r`'s column is `n`'s shifted down a lane — or a [`reduction`]
/// accumulator. On success the rotation copies are gone, each chain's
/// source [`hoist`]ed above its first read, and `ops` and `scan.regs`
/// are in strip order.
fn decide(ops: &mut Vec<Op>, iters: i64, s: usize, scan: &mut Scan, info: &mut Vec<Reg>) -> Result<Carried, SequentialReason> {
    if iters < 2 {
        return Err(OneIteration);
    }
    if !scan.independent {
        return Err(MemoryDependence);
    }
    let mut carried = Carried::default();
    if scan.carried.is_empty() {
        return Ok(carried);
    }
    let mut regs = scan.regs.clone();
    let mut rotations = Vec::new();
    for &r in &scan.carried {
        let u = uses(&regs, r);
        let (1, Op::Copy { src, .. }) = (u.defs, &ops[u.def]) else { return Err(CarriedRegister) };
        let (src, at, before) = (*src, u.def, u.last_read < u.def);
        match reduction(ops, &regs, r, at, u, s, info) {
            Some(op) => carried.partials.push((r, op)),
            None if before && src != r => rotations.push((r, src, at)),
            None => return Err(CarriedRegister),
        }
    }
    if rotations.is_empty() {
        return Ok(carried);
    }
    // The strip's op order, as indices: `ops`, then any twin copies.
    let mut order: Vec<usize> = (0..ops.len()).filter(|&i| !rotations.iter().any(|&(.., at)| at == i)).collect();
    for i in 0..rotations.len() {
        let (_, n, at) = rotations[i];
        if rotations.iter().any(|&(x, ..)| x == n) {
            continue; // a link inside a chain
        }
        // A chain's source: written once, before the rotation copy
        // that reads it, and carrying nothing itself.
        let Uses { defs, def, .. } = uses(&regs, n);
        if defs != 1 || def > at || scan.carried.contains(&n) {
            return Err(CarriedRegister);
        }
        // One seed lane fits in front of a column: a second rotation
        // of the same source rotates a lane-aligned copy of it.
        if rotations[..i].iter().any(|&(_, m, _)| m == n) {
            let twin = info.len() as u32;
            info.push(Reg::UNNAMED);
            let after = order.iter().position(|&k| k == def).expect("the source is kept") + 1;
            order.insert(after, regs.len());
            regs.push([twin, n, NONE]);
            rotations[i].1 = twin;
        }
    }
    // Chains run from a register no rotation reads to their root; with
    // distinct sources they never merge, and a cycle is left uncovered.
    let sources: Vec<u32> = rotations.iter().map(|&(_, n, _)| n).collect();
    if (1..sources.len()).any(|i| sources[..i].contains(&sources[i])) {
        return Err(CarriedRegister);
    }
    for &(r, ..) in rotations.iter().filter(|(r, ..)| !sources.contains(r)) {
        let mut chain = vec![r];
        while let Some(&(_, n, _)) = rotations.iter().find(|&&(x, ..)| Some(&x) == chain.last()) {
            chain.push(n);
        }
        carried.chains.push(chain);
    }
    if carried.chains.iter().map(|c| c.len() - 1).sum::<usize>() != rotations.len() {
        return Err(CarriedRegister);
    }
    let mut marks = vec![0; info.len()];
    for chain in &carried.chains {
        hoist(&mut order, ops, &regs, chain, &mut marks)?;
    }
    // A later hoist must not have lifted a read above an earlier source.
    if carried.chains.len() > 1 && carried.chains.iter().map(|c| span(&order, &regs, c)).any(|(first, def)| first < def) {
        return Err(CarriedRegister);
    }
    let op = |i: usize| ops.get(i).cloned().unwrap_or(Op::Copy { dst: regs[i][0], src: regs[i][1] });
    *ops = order.iter().map(|&i| op(i)).collect();
    scan.regs = order.into_iter().map(|i| regs[i]).collect();
    Ok(carried)
}

/// A rotation chain's `STRIP + d` lanes, claimed by the first of its
/// registers and freed after the last.
struct Group {
    base: u32,
    held: u32,
    lanes: u32,
}

/// The register block. Registers a strip section names take whole
/// [`STRIP`]-lane columns — a rotation chain one longer span — and the
/// rest (prologue and epilogue temporaries, mostly) take single lanes
/// of columns split up for them.
#[derive(Default)]
struct Block {
    lanes: u32,
    /// Free single lanes, and free spans as `(lanes, first lane)`.
    free_lanes: Vec<u32>,
    free: Vec<(u32, u32)>,
    groups: Vec<Group>,
}

impl Block {
    fn span(&mut self, lanes: u32) -> u32 {
        if lanes == 1 {
            if let Some(lane) = self.free_lanes.pop() {
                return lane;
            }
            let column = self.span(STRIP as u32);
            self.free_lanes.extend((column + 1..column + STRIP as u32).rev());
            return column;
        }
        if let Some(i) = self.free.iter().rposition(|&(n, _)| n == lanes) {
            return self.free.remove(i).1;
        }
        self.lanes += lanes;
        self.lanes - lanes
    }

    fn free(&mut self, lanes: u32, slot: u32) {
        match lanes {
            1 => self.free_lanes.push(slot),
            _ => self.free.push((lanes, slot)),
        }
    }

    fn claim(&mut self, reg: &mut Reg) {
        let Some(&Group { held, lanes, .. }) = self.groups.get(reg.group as usize) else {
            reg.slot = self.span(if reg.wide { STRIP as u32 } else { 1 });
            return;
        };
        if held == 0 {
            self.groups[reg.group as usize].base = self.span(lanes);
        }
        let g = &mut self.groups[reg.group as usize];
        g.held += 1;
        reg.slot = g.base + reg.offset;
    }

    fn release(&mut self, reg: &mut Reg) {
        match self.groups.get_mut(reg.group as usize) {
            Some(g) => {
                g.held -= 1;
                if g.held == 0 {
                    let (lanes, base) = (g.lanes, g.base);
                    self.free(lanes, base);
                }
            }
            None => self.free(if reg.wide { STRIP as u32 } else { 1 }, reg.slot),
        }
        reg.slot = NONE;
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
    let mut roles = Vec::with_capacity(6);
    plan.push((prologue, 1));
    roles.push("prologue");
    let mut loop_at = [usize::MAX; 2];
    let loop_roles = [["pair.header", "pair"], ["body.header", "body"]];
    for (i, ((header, ops, iters), [header_role, role])) in loops.into_iter().zip(loop_roles).enumerate() {
        if iters > 0 {
            plan.push((header, 1));
            loop_at[i] = plan.len();
            plan.push((ops, iters));
            roles.extend([header_role, role]);
        }
    }
    plan.push((epilogue, 1));
    roles.push("epilogue");

    let mut info = vec![Reg::UNNAMED; nregs];
    let mut scans: Vec<Scan> = plan.iter().enumerate().map(|(s, (ops, iters))| scan(ops, *iters, s, &mut info)).collect();
    // Legality needs every section's liveness, so it comes second.
    let decisions: Vec<_> = plan
        .iter_mut()
        .zip(&mut scans)
        .enumerate()
        .map(|(s, ((ops, iters), scan))| decide(ops, *iters, s, scan, &mut info))
        .collect();
    let schedule = |i: usize| match decisions.get(loop_at[i]) {
        Some(Ok(_)) => SectionSchedule::Strip,
        Some(&Err(why)) => SectionSchedule::Sequential(why),
        None => SectionSchedule::Sequential(SequentialReason::NoLoop),
    };
    let schedule = Schedule { pair: schedule(0), body: schedule(1) };

    let mut block = Block::default();
    for (scan, carried) in scans.iter().zip(&decisions) {
        let Ok(carried) = carried else { continue };
        for r in scan.regs.iter().flatten().copied().filter(|&r| r != NONE) {
            info[r as usize].wide = true;
        }
        for chain in &carried.chains {
            for (offset, &r) in chain.iter().enumerate() {
                (info[r as usize].group, info[r as usize].offset) = (block.groups.len() as u32, offset as u32);
            }
            block.groups.push(Group { base: NONE, held: 0, lanes: (STRIP + chain.len() - 1) as u32 });
        }
    }

    let mut sections = Vec::with_capacity(plan.len());
    let sections_in = plan.into_iter().zip(&scans).zip(decisions).zip(roles);
    for (s, ((((mut ops, iters), scan), decision), role)) in sections_in.enumerate() {
        let schedule = match &decision {
            Ok(_) => SectionSchedule::Strip,
            Err(why) => SectionSchedule::Sequential(*why),
        };
        let strips = schedule == SectionSchedule::Strip;
        let Carried { chains, partials } = decision.unwrap_or_default();
        for (i, regs) in scan.regs.iter().enumerate() {
            for &r in regs.iter().filter(|&&r| r != NONE) {
                info[r as usize].last = i as u32;
            }
        }
        let (mut invariant, mut written) = (Vec::new(), Vec::new());
        for &r in &scan.live_in {
            let reg = &mut info[r as usize];
            reg.pinned = true;
            if reg.slot == NONE {
                block.claim(reg);
            }
            if strips && !scan.carried.contains(&r) {
                invariant.push(reg.slot);
            }
        }
        for (i, (op, regs)) in ops.iter_mut().zip(&scan.regs).enumerate() {
            for &r in regs.iter().filter(|&&r| r != NONE) {
                if info[r as usize].slot == NONE {
                    block.claim(&mut info[r as usize]);
                }
            }
            op.rename(|r| info[r as usize].slot);
            let d = regs[0];
            if strips && d != NONE && !partials.iter().any(|&(acc, _)| acc == d) {
                written.push(info[d as usize].slot);
            }
            for &r in regs.iter().filter(|&&r| r != NONE) {
                let reg = &mut info[r as usize];
                // An op may name a register twice: release it once.
                let done = reg.last == i as u32 && reg.slot != NONE;
                if done && !reg.pinned && !reg.live_after(s) {
                    block.release(reg);
                }
            }
        }
        let seeds = chains.iter().map(|chain| (info[chain[0] as usize].slot, chain.len() as u32 - 1)).collect();
        let identity = |op| splat_bytes(elem, reduction_identity(op, elem));
        let partials = partials.into_iter().map(|(r, op)| (info[r as usize].slot, op, identity(op))).collect();
        for &r in &scan.live_in {
            let reg = &mut info[r as usize];
            reg.pinned = false;
            if !reg.live_after(s) {
                block.release(reg);
            }
        }
        let width = if strips { STRIP } else { 1 };
        sections.push(Section { role, ops, iters, schedule, width, invariant, written, seeds, partials });
    }

    let program = Program { sections, nregs: block.lanes as usize, elem };
    (program, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(ops: &[Op], iters: i64) -> (Result<Carried, SequentialReason>, Vec<Op>) {
        decision_after(ops, iters, &[])
    }

    /// [`decide`] on one loop section, followed by `after` (what a
    /// later section reads decides liveness).
    fn decision_after(ops: &[Op], iters: i64, after: &[Op]) -> (Result<Carried, SequentialReason>, Vec<Op>) {
        let mut info = vec![Reg::UNNAMED; 16];
        let mut looped = scan(ops, iters, 0, &mut info);
        scan(after, 1, 1, &mut info);
        let mut ops = ops.to_vec();
        (decide(&mut ops, iters, 0, &mut looped, &mut info), ops)
    }

    fn strips(ops: &[Op], iters: i64) -> bool {
        decision(ops, iters).0.is_ok()
    }

    fn why(ops: &[Op], iters: i64) -> Option<SequentialReason> {
        decision(ops, iters).0.err()
    }

    const FAR: i64 = 1 << 20;

    fn load(dst: u32, start: i64, step: i64) -> Op {
        Op::Load { dst, arr: 0, start, step }
    }

    fn store(src: u32, start: i64, step: i64) -> Op {
        Op::Store { src, arr: 1, start, step }
    }

    #[test]
    fn strip_legality_separates_independent_sections_from_dependent_ones() {
        // A misaligned copy between disjoint streams.
        assert!(strips(&[load(0, 1024, 16), store(0, FAR, 16)], 1000));
        // One iteration has nothing to amortize.
        assert_eq!(why(&[load(0, 1024, 16), store(0, FAR, 16)], 1), Some(OneIteration));
        // A loop-invariant register (only read here) does not block strips.
        let invariant = [
            load(0, 1024, 16),
            Op::Bin { dst: 2, op: BinOp::Add, a: 0, b: 7 },
            store(2, FAR, 16),
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
        assert_eq!(why(&[load(0, 4096 + 16, 16), store(0, 4096, 16)], 1000), Some(MemoryDependence));
        // ... unless the trip is too short for the extents to meet.
        assert!(strips(&[load(0, 4096 + 64, 16), store(0, 4096, 16)], 4));

        // Mixed steps: legal on disjoint whole-trip extents only.
        assert!(strips(&[load(0, 1024, 32), store(0, FAR, 16)], 1000));
        assert!(!strips(&[load(0, 1024, 32), store(0, 1024 + 32 * 500, 16)], 1000));
        // A store that does not advance overwrites itself.
        assert!(!strips(&[load(0, 1024, 16), store(0, FAR, 0)], 1000));
    }

    #[test]
    fn a_software_pipelined_rotation_strips_in_place() {
        // r1 is read before the body rewrites it: the column of r0
        // shifted down one lane.
        let pipelined = [
            load(0, 1024, 16),
            Op::Shift { dst: 2, a: 1, b: 0, amt: 4 },
            store(2, FAR, 16),
            Op::Copy { dst: 1, src: 0 },
        ];
        let (carried, ops) = decision(&pipelined, 1000);
        assert_eq!(carried.unwrap().chains, [vec![1, 0]]);
        assert_eq!(ops, pipelined[..3], "the rotation copy goes");
    }

    #[test]
    fn a_rotation_whose_source_is_defined_after_the_read_is_hoisted() {
        // The unrolled pair loop: the first half reads r1, the second
        // half computes what the rotation hands to the next iteration.
        let pair = [
            load(0, 1024, 32),
            Op::Shift { dst: 2, a: 1, b: 0, amt: 4 },
            store(2, FAR, 32),
            load(3, 1040, 32),
            Op::Bin { dst: 4, op: BinOp::Add, a: 3, b: 0 },
            Op::Shift { dst: 5, a: 0, b: 4, amt: 4 },
            store(5, FAR + 16, 32),
            Op::Copy { dst: 1, src: 4 },
        ];
        let (carried, ops) = decision(&pair, 1000);
        assert_eq!(carried.unwrap().chains, [vec![1, 4]]);
        let order = [0, 3, 4, 1, 2, 5, 6].map(|i| pair[i].clone());
        assert_eq!(ops, order, "the source's slice moves above the read, all else in order");
    }

    #[test]
    fn a_hoist_blocked_by_a_same_array_store_stays_sequential() {
        // The source's load would have to pass a store to its array.
        let pair = [
            load(0, 1024, 32),
            Op::Shift { dst: 2, a: 1, b: 0, amt: 4 },
            Op::Store { src: 2, arr: 0, start: FAR, step: 32 },
            load(3, 1040, 32),
            Op::Copy { dst: 1, src: 3 },
        ];
        assert_eq!(why(&pair, 1000), Some(MemoryDependence));
        // To another array it may.
        let mut other = pair.clone();
        other[2] = store(2, FAR, 32);
        assert!(strips(&other, 1000));
    }

    #[test]
    fn reductions_strip_with_lane_private_accumulators() {
        // The unrolled dot product: acc → t → u → acc through `add`.
        let dot = [
            load(0, 1024, 32),
            Op::Bin { dst: 1, op: BinOp::Add, a: 7, b: 0 },
            load(2, 1040, 32),
            Op::Bin { dst: 3, op: BinOp::Add, a: 1, b: 2 },
            Op::Copy { dst: 7, src: 3 },
        ];
        let (carried, ops) = decision(&dot, 1000);
        assert_eq!(carried.unwrap().partials, [(7, BinOp::Add)]);
        assert_eq!(ops, dot, "the reduction's ops stay as they are");
    }

    #[test]
    fn a_sub_recurrence_stays_sequential() {
        let sub = [
            load(0, 1024, 16),
            Op::Bin { dst: 1, op: BinOp::Sub, a: 7, b: 0 },
            Op::Copy { dst: 7, src: 1 },
        ];
        assert_eq!(why(&sub, 1000), Some(CarriedRegister));
        // Two operators in one chain do not reassociate either.
        let mixed = [
            load(0, 1024, 16),
            Op::Bin { dst: 1, op: BinOp::Add, a: 7, b: 0 },
            Op::Bin { dst: 2, op: BinOp::Mul, a: 1, b: 0 },
            Op::Copy { dst: 7, src: 2 },
        ];
        assert_eq!(why(&mixed, 1000), Some(CarriedRegister));
    }

    #[test]
    fn a_reduction_whose_intermediate_escapes_stays_sequential() {
        let stored = [
            load(0, 1024, 16),
            Op::Bin { dst: 1, op: BinOp::Add, a: 7, b: 0 },
            store(1, FAR, 16),
            Op::Copy { dst: 7, src: 1 },
        ];
        assert_eq!(why(&stored, 1000), Some(CarriedRegister));
        let chained = [
            load(0, 1024, 16),
            Op::Bin { dst: 1, op: BinOp::Add, a: 7, b: 0 },
            Op::Bin { dst: 2, op: BinOp::Add, a: 1, b: 0 },
            Op::Copy { dst: 7, src: 2 },
        ];
        assert!(strips(&chained, 1000));
        // The epilogue reads the intermediate: it must hold the last
        // iteration's value, which no lane has.
        let epilogue = [store(1, FAR, 0)];
        assert_eq!(decision_after(&chained, 1000, &epilogue).0.err(), Some(CarriedRegister));
    }

    #[test]
    fn a_register_read_on_both_sides_of_its_rotation_stays_sequential() {
        let both = [
            load(0, 1024, 16),
            Op::Shift { dst: 2, a: 1, b: 0, amt: 4 },
            Op::Copy { dst: 1, src: 0 },
            Op::Shift { dst: 3, a: 1, b: 0, amt: 8 },
            store(2, FAR, 16),
            store(3, 2 * FAR, 16),
        ];
        assert_eq!(why(&both, 1000), Some(CarriedRegister));
    }

    #[test]
    fn predictive_commoning_chains_rotate_by_their_depth() {
        // r2 = r1; r1 = n: r2 is n two iterations back.
        let chain = [
            load(0, 1024, 16),
            Op::Bin { dst: 3, op: BinOp::Add, a: 2, b: 1 },
            Op::Bin { dst: 4, op: BinOp::Add, a: 3, b: 0 },
            store(4, FAR, 16),
            Op::Copy { dst: 2, src: 1 },
            Op::Copy { dst: 1, src: 0 },
        ];
        let (carried, ops) = decision(&chain, 1000);
        assert_eq!(carried.unwrap().chains, [vec![2, 1, 0]]);
        assert_eq!(ops, chain[..4]);
        // Copied the other way round, r2 is r1's plain copy of n.
        let mut flat = chain.clone();
        flat.swap(4, 5);
        assert_eq!(why(&flat, 1000), Some(CarriedRegister), "r1 is read after its rotation");
        // Two rotations of one source would need one seed lane each:
        // the second rotates a copy of it (the first free id, 16).
        let twice = [
            load(0, 1024, 16),
            Op::Bin { dst: 3, op: BinOp::Add, a: 2, b: 1 },
            store(3, FAR, 16),
            Op::Copy { dst: 2, src: 0 },
            Op::Copy { dst: 1, src: 0 },
        ];
        let (carried, ops) = decision(&twice, 1000);
        assert_eq!(carried.unwrap().chains, [vec![2, 0], vec![1, 16]]);
        assert_eq!(ops[..2], [twice[0].clone(), Op::Copy { dst: 16, src: 0 }]);
    }
}
