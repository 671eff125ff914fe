//! The last step of a bake, preparing a plan for the strip driver:
//! which loop sections may run in strips, where the registers they
//! carry between iterations live in the lanes, which runs of a strip
//! section's ops the driver runs as one superinstruction, and which
//! column of the register block each baked register lives in.
//!
//! It finishes, in place, the six sections bake emitted and fusion
//! rewrote ([`Section::plan`]) in two walks over each. The analysis
//! walk ([`scan`]) takes the registers a section reads before it writes
//! them from the engine's one live-in rule ([`live_in`]) and reads each
//! op's operands ([`Op::regs`]) once: the registers it names and
//! writes, what a loop carries, its memory accesses and its use table
//! ([`Uses`]). Once every section's schedule is decided ([`decide`]),
//! the emission walk ([`lower`]) picks a superinstruction where one
//! starts ([`pick`], looking ahead over the run) and renames its ops,
//! or renames the lone op, onto the register block. Only [`rotate`],
//! for a loop that carries a rotation, walks a section again: it puts
//! the loop in strip order and tabulates that order's uses as it goes.
//! Every table it fills and throws away is the thread's ([`Tables`], in
//! the bake's workspace), cleared and re-sized per bake; the tables
//! indexed by register are sized by the bake's dense register ids.

use super::strip::{
    perm_tables, Fold, Leaf, Program, Section, Shape, Sink, Super, Term, MAX_LEAVES, STRIP,
};
use super::{Schedule, SectionSchedule, SequentialReason};
use crate::kernel::{live_in, splat_bytes, Op, NO_REG as NONE, V};
use crate::lanes::Reg as Bytes;
use simdize_codegen::reduction_identity;
use simdize_ir::{BinOp, ScalarType};
use std::ops::Range;
use SequentialReason::{CarriedRegister, MemoryDependence, OneIteration};

/// What lowering tracks per baked register.
#[derive(Clone, Copy)]
struct Reg {
    /// Its offset in the register block while it holds one.
    slot: u32,
    /// Bit `s`: section `s` names it. Named by a strip section, it
    /// needs a whole column.
    named: u8,
    /// Bit `s`: section `s` reads it before (or without) writing it.
    reads_first: u8,
    /// Bit `s`: section `s` writes it.
    defs: u8,
    /// Live into the loop being assigned: kept until the loop ends.
    pinned: bool,
    /// Its rotation chain ([`Block::groups`], `NONE` if none) and its
    /// lane offset there.
    group: u32,
    offset: u32,
}

impl Reg {
    const UNNAMED: Reg = Reg {
        slot: NONE,
        named: 0,
        reads_first: 0,
        defs: 0,
        pinned: false,
        group: NONE,
        offset: 0,
    };

    /// Whether a section after `s` reads the value section `s` leaves.
    fn live_after(&self, s: usize) -> bool {
        let (reads, defs) = (self.reads_first >> (s + 1), self.defs >> (s + 1));
        reads != 0 && reads.trailing_zeros() <= defs.trailing_zeros()
    }
}

/// One section's analysis. The lists stay empty outside loops.
#[derive(Default)]
struct Scan {
    /// Registers live into the loop: read before, or without, being written.
    live_in: Vec<u32>,
    /// Those of them it also writes: values carried between iterations.
    carried: Vec<u32>,
    /// The fewest iterations apart at which a store and an access of the
    /// section, itself included, touch the same bytes ([`apart`];
    /// `i64::MAX` when none do): the section may run that many
    /// iterations per dispatch.
    apart: i64,
    /// The use table of its ops (none without ops), in strip order once
    /// [`rotate`]d.
    uses: Vec<Uses>,
}

/// A memory access `(start, step)` of a loop section's `iters`
/// iterations, and the bytes `[lo, hi)` it touches over the whole trip.
#[derive(Clone, Copy)]
struct Access {
    start: i64,
    step: i64,
    lo: i64,
    hi: i64,
    store: bool,
}

impl Access {
    fn new(start: i64, step: i64, iters: i64, store: bool) -> Access {
        let span = (iters - 1).max(0) * step;
        Access {
            start,
            step,
            lo: start + span.min(0),
            hi: start + span.max(0) + V,
            store,
        }
    }
}

/// The fewest iterations apart at which two memory accesses of one loop
/// section, at least one of them a store, touch the same bytes: the
/// section's iterations may run in strips of up to that many, each op
/// down the whole strip before the next, and stay in program order.
///
/// Accesses whose whole-trip extents are disjoint never meet — the only
/// way accesses with different steps (the strided `deinterleave` body)
/// qualify — and others meet one iteration apart unless they share a
/// step of at least a vector. Then `x` in iteration `k + q` overlaps `y`
/// in iteration `k` when `q·step` lands within a vector of `y.start −
/// x.start`, and only the two multiples of `step` around that distance
/// can; `q = 0` is one iteration, which runs its ops in order.
fn apart(x: &Access, y: &Access) -> i64 {
    if x.hi <= y.lo || y.hi <= x.lo {
        return i64::MAX;
    }
    let step = x.step;
    if step != y.step || step.abs() < V {
        return 1;
    }
    let d = y.start - x.start;
    let q = d.div_euclid(step);
    [q, q + step.signum()]
        .into_iter()
        .filter(|&q| q != 0 && (q * step - d).abs() < V)
        .map(i64::abs)
        .min()
        .unwrap_or(i64::MAX)
}

/// Scans section `s` into `out` in one walk over its ops: records in
/// `info` which registers it names, reads first ([`live_in`], `(seen,
/// live)` its scratch) and writes and, for a loop, what it carries and
/// whether its memory accesses allow strips, and tabulates its uses.
fn scan(
    ops: &[Op],
    iters: i64,
    s: usize,
    info: &mut [Reg],
    (seen, live, accesses): &mut (Vec<bool>, Vec<u32>, Vec<Access>),
    out: &mut Scan,
) {
    let (bit, looped) = (1u8 << s, iters > 1);
    live_in(ops, info.len(), seen, live);
    for &r in live.iter() {
        info[r as usize].reads_first |= bit;
    }
    let Scan {
        live_in,
        carried,
        apart,
        uses,
    } = out;
    uses.clear();
    if !ops.is_empty() {
        uses.resize(info.len(), Uses::NONE);
    }
    carried.clear();
    accesses.clear();
    for (i, op) in ops.iter().enumerate() {
        let regs = op.regs();
        note(uses, i, regs);
        for r in regs.into_iter().filter(|&r| r != NONE) {
            info[r as usize].named |= bit;
        }
        let dst = regs[0];
        if dst != NONE {
            let reg = &mut info[dst as usize];
            // Read here before its first write: carried between iterations.
            if looped && reg.reads_first & !reg.defs & bit != 0 {
                carried.push(dst);
            }
            reg.defs |= bit;
        }
        match *op {
            Op::Load { start, step, .. } | Op::LoadFused { start, step, .. } if looped => {
                accesses.push(Access::new(start, step, iters, false))
            }
            Op::Store { start, step, .. } if looped => {
                accesses.push(Access::new(start, step, iters, true))
            }
            _ => {}
        }
    }
    *apart = accesses
        .iter()
        .filter(|x| x.store)
        .flat_map(|store| accesses.iter().map(|other| self::apart(store, other)))
        .min()
        .unwrap_or(i64::MAX);
    live_in.clear();
    if looped {
        live_in.extend_from_slice(live);
    }
}

/// What a strip section does with the registers it carries.
#[derive(Default)]
struct Carried {
    /// Rotation chains `[r_d, …, r_1, n]`, back to back, each ending
    /// where `ends` says: `r_k` holds what `n` held `k` iterations back
    /// — `n`'s column shifted down `k` lanes.
    links: Vec<u32>,
    ends: Vec<usize>,
    /// Reduction accumulators and their operator, one partial per lane.
    partials: Vec<(u32, BinOp)>,
}

impl Carried {
    /// The rotation chains, in order.
    fn chains(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.links[start..end])
    }

    fn clear(&mut self) {
        self.links.clear();
        self.ends.clear();
        self.partials.clear();
    }
}

/// How a section's ops name one register: how often, and where first,
/// they write it, how often they read it (a read per operand) and where
/// first and last, and the last op that names it at all. Op indices fit
/// in 32 bits, which halves the tables lowering fills.
#[derive(Clone, Copy)]
struct Uses {
    defs: u32,
    def: u32,
    reads: u32,
    read: u32,
    last_read: u32,
    last: u32,
}

impl Uses {
    const NONE: Uses = Uses {
        defs: 0,
        def: u32::MAX,
        reads: 0,
        read: u32::MAX,
        last_read: 0,
        last: 0,
    };
}

/// Enters op `i`'s operands `[dst, a, b]` ([`Op::regs`]) in the use
/// table `uses`.
fn note(uses: &mut [Uses], i: usize, [dst, a, b]: [u32; 3]) {
    let i = i as u32;
    for r in [a, b].into_iter().filter(|&r| r != NONE) {
        let u = &mut uses[r as usize];
        (u.reads, u.read, u.last_read, u.last) = (u.reads + 1, u.read.min(i), i, i);
    }
    if dst != NONE {
        let u = &mut uses[dst as usize];
        (u.defs, u.def, u.last) = (u.defs + 1, u.def.min(i), i);
    }
}

/// The operator of the reduction carried register `acc` closes, if it
/// closes one: `acc`'s only def (at `close`) is a `Copy` from the end of
/// a chain `acc → t_1 → … → t_m` of one reassociable operator, in which
/// every link is read once, by the next, and no `t_i` is live after
/// section `s`.
fn reduction(
    ops: &[Op],
    uses: &[Uses],
    acc: u32,
    close: usize,
    s: usize,
    info: &[Reg],
) -> Option<BinOp> {
    let Op::Copy { src: end, .. } = ops[close] else {
        return None;
    };
    // `from` only grows, so the walk ends.
    let (mut link, mut from, mut kind, mut reads) = (acc, 0, None, uses[acc as usize]);
    while link != end {
        let next = reads.read as usize;
        let (Op::Bin { dst, op, .. } | Op::BinSplat { dst, op, .. }) = ops.get(next)? else {
            return None;
        };
        if reads.reads != 1
            || next < from
            || !op.is_reassociable()
            || *kind.get_or_insert(*op) != *op
        {
            return None;
        }
        reads = uses[*dst as usize];
        if reads.defs != 1 || info[*dst as usize].live_after(s) {
            return None;
        }
        (link, from) = (*dst, next + 1);
    }
    (reads.reads == 1 && reads.read as usize == close && close >= from).then_some(kind?)
}

/// Where, in `order`, the first op reading a rotated register of
/// `chain` is, and where its source is written; `op(i)` is op `i`.
fn span<'a>(order: &[usize], op: impl Fn(usize) -> &'a Op, chain: &[u32]) -> (usize, usize) {
    let (rotated, n) = chain.split_at(chain.len() - 1);
    let first = order
        .iter()
        .position(|&i| op(i).regs()[1..].iter().any(|r| rotated.contains(r)));
    let def = order
        .iter()
        .position(|&i| op(i).regs()[0] == n[0])
        .expect("a chain's source is written");
    (first.unwrap_or(order.len()), def)
}

/// [`lift`]'s buffers: the marks by register, which come and go all
/// zero, which ops of the window it lifts, the arrays they load and the
/// window's new order.
#[derive(Default)]
struct Lift {
    marks: Vec<u8>,
    lifted: Vec<bool>,
    loaded: Vec<u32>,
    moved: Vec<usize>,
}

/// Lifts the backward slice of `chain`'s source above the chain's first
/// read, as one block; every other op keeps its relative order. A
/// lifted op may not pass an op naming a register it writes, nor a
/// lifted load a store to its array.
fn lift<'a>(
    order: &mut [usize],
    op: impl Fn(usize) -> &'a Op,
    chain: &[u32],
    t: &mut Lift,
) -> Result<(), SequentialReason> {
    const NEEDED: u8 = 1;
    const WRITTEN: u8 = 2;
    let (first, def) = span(order, &op, chain);
    if def < first {
        return Ok(());
    }
    let (rotated, n) = chain.split_at(chain.len() - 1);
    let Lift {
        marks,
        lifted: lift,
        loaded,
        moved,
    } = t;
    marks[n[0] as usize] = NEEDED;
    lift.clear();
    lift.resize(def + 1 - first, false);
    loaded.clear();
    let mut verdict = Ok(());
    for p in (first..=def).rev() {
        let at = op(order[p]);
        let [dst, a, b] = at.regs();
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
            if let Op::Load { arr, .. } | Op::LoadFused { arr, .. } = at {
                loaded.push(*arr);
            }
            lift[p - first] = true;
        } else if [dst, a, b].into_iter().any(|r| marked(r, WRITTEN)) {
            verdict = Err(CarriedRegister);
            break;
        } else if matches!(at, Op::Store { arr, .. } if loaded.contains(arr)) {
            verdict = Err(MemoryDependence);
            break;
        }
    }
    // Every register marked is named in the window.
    for r in order[first..=def]
        .iter()
        .flat_map(|&i| op(i).regs())
        .filter(|&r| r != NONE)
    {
        marks[r as usize] = 0;
    }
    verdict?;
    moved.clear();
    moved.extend((first..=def).filter(|&p| lift[p - first]).map(|p| order[p]));
    moved.extend(
        (first..=def)
            .filter(|&p| !lift[p - first])
            .map(|p| order[p]),
    );
    order[first..=def].copy_from_slice(moved);
    Ok(())
}

/// Decides how section `s` runs (DESIGN §11.3), into `carried`. A strip
/// runs op `i` for iterations `k..k + STRIP` before op `i + 1` runs for
/// any of them: equivalent to program order when no store meets an
/// access fewer than [`STRIP`] iterations [`apart`] and every carried
/// register is a rotation — only def a `Copy { r, n }` after every read
/// of `r`, so `r`'s column is `n`'s shifted down a lane — or a
/// [`reduction`] accumulator, which [`rotate`] checks. `carried` is
/// empty unless the section strips.
fn decide(
    ops: &mut Vec<Op>,
    iters: i64,
    s: usize,
    scan: &mut Scan,
    info: &mut Vec<Reg>,
    carried: &mut Carried,
    t: &mut Rotation,
) -> Result<(), SequentialReason> {
    carried.clear();
    if iters < 2 {
        return Err(OneIteration);
    }
    if scan.apart < STRIP as i64 {
        return Err(MemoryDependence);
    }
    let verdict = rotate(ops, s, scan, info, carried, t);
    if verdict.is_err() {
        carried.clear();
    }
    verdict
}

/// [`rotate`]'s buffers.
#[derive(Default)]
struct Rotation {
    /// `(r, n, at)`: op `at` is the rotation copy `r = n`.
    rotations: Vec<(u32, u32, usize)>,
    /// The section's ops as baked, then the twin copies rotation adds.
    baked: Vec<Op>,
    twins: Vec<Op>,
    /// The strip's op order, as indices into `baked` and then `twins`.
    order: Vec<usize>,
    lift: Lift,
    /// The use table of the strip order.
    uses: Vec<Uses>,
}

/// [`decide`]'s check of the registers a loop section carries, on the
/// buffers `t` lends. On success the rotation copies are gone, each
/// chain's source [`lift`]ed above its first read, and `ops` and
/// `scan.uses` are in strip order; on failure both are as they were.
fn rotate(
    ops: &mut Vec<Op>,
    s: usize,
    scan: &mut Scan,
    info: &mut Vec<Reg>,
    carried: &mut Carried,
    t: &mut Rotation,
) -> Result<(), SequentialReason> {
    let Rotation {
        rotations,
        baked,
        twins,
        order,
        lift: lifting,
        uses: strip_uses,
    } = t;
    let uses = &scan.uses;
    rotations.clear();
    for &r in &scan.carried {
        let u = uses[r as usize];
        let (1, Op::Copy { src, .. }) = (u.defs, &ops[u.def as usize]) else {
            return Err(CarriedRegister);
        };
        let (src, at, before) = (*src, u.def as usize, u.last_read < u.def);
        match reduction(ops, uses, r, at, s, info) {
            Some(op) => carried.partials.push((r, op)),
            None if before && src != r => rotations.push((r, src, at)),
            None => return Err(CarriedRegister),
        }
    }
    if rotations.is_empty() {
        return Ok(());
    }
    baked.clear();
    baked.extend_from_slice(ops);
    twins.clear();
    order.clear();
    order.extend((0..baked.len()).filter(|&i| !rotations.iter().any(|&(.., at)| at == i)));
    for i in 0..rotations.len() {
        let (_, n, at) = rotations[i];
        if rotations.iter().any(|&(x, ..)| x == n) {
            continue; // a link inside a chain
        }
        // A chain's source: written once, before the rotation copy
        // that reads it, and carrying nothing itself.
        let Uses { defs, def, .. } = uses[n as usize];
        if defs != 1 || def as usize > at || scan.carried.contains(&n) {
            return Err(CarriedRegister);
        }
        // One seed lane fits in front of a column: a second rotation
        // of the same source rotates a lane-aligned copy of it.
        if rotations[..i].iter().any(|&(_, m, _)| m == n) {
            let twin = info.len() as u32;
            info.push(Reg {
                named: 1 << s,
                ..Reg::UNNAMED
            });
            let after = order
                .iter()
                .position(|&k| k == def as usize)
                .expect("the source is kept")
                + 1;
            order.insert(after, baked.len() + twins.len());
            twins.push(Op::Copy { dst: twin, src: n });
            rotations[i].1 = twin;
        }
    }
    // Chains run from a register no rotation reads to their root; with
    // distinct sources they never merge, and a cycle is left uncovered.
    let source = |r: u32| rotations.iter().any(|&(_, n, _)| n == r);
    if (1..rotations.len()).any(|i| rotations[..i].iter().any(|&(_, n, _)| n == rotations[i].1)) {
        return Err(CarriedRegister);
    }
    for &(r, ..) in rotations.iter().filter(|&&(r, ..)| !source(r)) {
        carried.links.push(r);
        let mut last = r;
        while let Some(&(_, n, _)) = rotations.iter().find(|&&(x, ..)| x == last) {
            carried.links.push(n);
            last = n;
        }
        carried.ends.push(carried.links.len());
    }
    if carried.links.len() - carried.ends.len() != rotations.len() {
        return Err(CarriedRegister);
    }
    let (baked, twins) = (&baked[..], &twins[..]);
    let op = |i: usize| baked.get(i).unwrap_or_else(|| &twins[i - baked.len()]);
    lifting.marks.clear();
    lifting.marks.resize(info.len(), 0);
    for chain in carried.chains() {
        lift(order, op, chain, lifting)?;
    }
    // A later lift must not have lifted a read above an earlier source.
    if carried.ends.len() > 1
        && carried
            .chains()
            .map(|c| span(order, op, c))
            .any(|(first, def)| first < def)
    {
        return Err(CarriedRegister);
    }
    strip_uses.clear();
    strip_uses.resize(info.len(), Uses::NONE);
    ops.clear();
    for (i, &k) in order.iter().enumerate() {
        note(strip_uses, i, op(k).regs());
        ops.push(op(k).clone());
    }
    std::mem::swap(&mut scan.uses, strip_uses);
    Ok(())
}

/// Returns `None` from the enclosing selection rule unless `$cond`
/// holds: the ops it looked at stay on the generic arms.
macro_rules! require {
    ($cond:expr) => {
        if !$cond {
            return None;
        }
    };
}

/// Most terms one fold combines.
const MAX_FOLD: usize = 8;

/// At most `N` values, held inline: [`Parse`]'s buffers, so selection
/// allocates nothing.
struct Stack<T, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy, const N: usize> Stack<T, N> {
    fn new(fill: T) -> Self {
        Stack {
            len: 0,
            items: [fill; N],
        }
    }

    /// Appends `x`; `None` when full.
    fn push(&mut self, x: T) -> Option<()> {
        *self.items.get_mut(self.len)? = x;
        self.len += 1;
        Some(())
    }

    /// Inserts `x` before index `at`; `None` when full.
    fn insert(&mut self, at: usize, x: T) -> Option<()> {
        self.push(x)?;
        self.items.copy_within(at..self.len - 1, at + 1);
        self.items[at] = x;
        Some(())
    }

    fn remove(&mut self, at: usize) {
        self.items.copy_within(at + 1..self.len, at);
        self.len -= 1;
    }

    fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T, const N: usize> std::ops::Deref for Stack<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T, const N: usize> std::ops::DerefMut for Stack<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

/// What a register defined inside a [`Parse`] run holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Value {
    /// A loaded stream, by index.
    Stream(u8),
    /// A gather or splat leaf, by index: read any number of times.
    Leaf(u8),
    /// A tree begun and not yet folded into another or sunk.
    Tree,
}

/// Where the ops so far end a whole superinstruction: `[end, folds,
/// streams, leaves, terms, tables]`.
type Whole = [usize; 6];

/// A run of a strip section's ops read as a superinstruction, one op
/// at a time ([`Parse::push`]): folds of up to [`MAX_FOLD`] terms by one
/// operator each, each into a sink; a term a leaf or two leaves by
/// another operator, a leaf a loaded stream, a `vperm` of two of them or
/// a splat. [`Parse::build`] makes the run a fold of loaded streams
/// where its shape is one, and a mixed tree otherwise.
struct Parse {
    /// By register: the run that defined it last — the current one is
    /// `run` — and what it holds.
    defs: Vec<(u32, Value)>,
    run: u32,
    /// The streams' step, and the stores'.
    step: Option<i64>,
    out_step: Option<i64>,
    /// Each stream's first byte, and its leaf once it is read whole.
    loads: Stack<i64, MAX_LEAVES>,
    stream_leaf: [u8; MAX_LEAVES],
    leaves: Stack<Leaf, MAX_LEAVES>,
    /// Gather patterns (`true`) and splat images, by table.
    tables: Stack<(Bytes, bool), MAX_LEAVES>,
    terms: Stack<Term, MAX_LEAVES>,
    /// Trees begun and not yet sunk, oldest first: `(value, operator
    /// once it folds two terms, first term, terms)`.
    nodes: Stack<(u32, Option<BinOp>, usize, usize), MAX_LEAVES>,
    /// Each fold done: its shape, its value and its store's first byte,
    /// and its operator.
    folds: Stack<(Fold, u32, i64), MAX_LEAVES>,
    fold_ops: Stack<BinOp, MAX_LEAVES>,
    /// Where the run may end: after each store, or the closing copy.
    whole: Stack<Whole, { MAX_LEAVES + 1 }>,
    /// The array the stores write.
    stored: u32,
    /// A `vshiftpair` awaiting its store: `(dst, amt)`.
    shifted: Option<(u32, u8)>,
    /// The rotated register the first shift reads, and the register the
    /// next one must read: the last fold's value.
    rotated: u32,
    carry: u32,
    /// A reduction: its accumulator, the chain's last link, and whether
    /// the closing copy was read.
    acc: u32,
    link: u32,
    closed: bool,
}

impl Default for Parse {
    /// A parse over no registers.
    fn default() -> Parse {
        let term = Term {
            op: None,
            a: 0,
            b: 0,
        };
        let fold = Fold {
            leaves: 0,
            sink: Sink::Store { at: 0 },
        };
        Parse {
            defs: Vec::new(),
            run: 0,
            step: None,
            out_step: None,
            loads: Stack::new(0),
            stream_leaf: [0; MAX_LEAVES],
            leaves: Stack::new(Leaf::Stream(0)),
            tables: Stack::new(([0; 16], false)),
            terms: Stack::new(term),
            nodes: Stack::new((NONE, None, 0, 0)),
            folds: Stack::new((fold, NONE, 0)),
            fold_ops: Stack::new(BinOp::Or),
            whole: Stack::new([0; 6]),
            stored: NONE,
            shifted: None,
            rotated: NONE,
            carry: NONE,
            acc: NONE,
            link: NONE,
            closed: false,
        }
    }
}

impl Parse {
    /// Makes this a parse over registers `0..regs`, with no run begun.
    fn reset(&mut self, regs: usize) {
        self.defs.clear();
        self.defs.resize(regs, (0, Value::Tree));
        self.run = 0;
    }

    /// Starts over.
    fn clear(&mut self) {
        self.run += 1;
        (self.step, self.out_step, self.shifted) = (None, None, None);
        (
            self.stored,
            self.rotated,
            self.carry,
            self.acc,
            self.link,
            self.closed,
        ) = (NONE, NONE, NONE, NONE, NONE, false);
        self.loads.clear();
        self.leaves.clear();
        self.tables.clear();
        self.terms.clear();
        self.nodes.clear();
        self.folds.clear();
        self.fold_ops.clear();
        self.whole.clear();
    }

    fn is_whole(&self) -> bool {
        !self.folds.is_empty()
            && self.nodes.is_empty()
            && self.shifted.is_none()
            && (self.acc == NONE || self.closed)
    }

    fn value(&self, r: u32) -> Option<Value> {
        match self.defs[r as usize] {
            (run, v) if run == self.run => Some(v),
            _ => None,
        }
    }

    /// `r` as a leaf: a gather or splat, or a stream read whole.
    fn leaf(&mut self, r: u32) -> Option<u8> {
        match self.value(r)? {
            Value::Leaf(j) => Some(j),
            Value::Stream(s) if self.stream_leaf[s as usize] != u8::MAX => {
                Some(self.stream_leaf[s as usize])
            }
            Value::Stream(s) => {
                let j = self.new_leaf(Leaf::Stream(s))?;
                self.stream_leaf[s as usize] = j;
                Some(j)
            }
            Value::Tree => None,
        }
    }

    fn new_leaf(&mut self, leaf: Leaf) -> Option<u8> {
        self.leaves.push(leaf)?;
        Some(self.leaves.len() as u8 - 1)
    }

    fn table(&mut self, bytes: Bytes, gather: bool) -> Option<u8> {
        self.tables.push((bytes, gather))?;
        Some(self.tables.len() as u8 - 1)
    }

    /// Registers `dst`, new to the run — or a tree it folded — as
    /// holding `v`.
    fn define(&mut self, dst: u32, v: Value) -> Option<()> {
        require!(self.value(dst).is_none());
        self.defs[dst as usize] = (self.run, v);
        Some(())
    }

    /// Forgets a tree folded into another or sunk.
    fn fold(&mut self, tree: u32) {
        if tree != NONE {
            self.defs[tree as usize].0 = 0;
        }
    }

    /// A new tree of one term.
    fn term(&mut self, dst: u32, term: Term) -> Option<()> {
        self.define(dst, Value::Tree)?;
        self.terms.push(term)?;
        self.nodes.push((dst, None, self.terms.len() - 1, 1))
    }

    /// `dst = x op y` (`y op x` when `swap`), where `y` is the newest
    /// tree and `x` the tree before it — or a new term of one leaf, first
    /// made a tree beside the newest one on the side `leaf` names
    /// (`true`: the left). Folds of one operator stay flat; deeper trees
    /// are refused, as are terms a non-reassociable operator would take
    /// out of source order.
    fn join(&mut self, dst: u32, op: BinOp, leaf: Option<(u8, bool)>, swap: bool) -> Option<()> {
        require!(self.value(dst).is_none());
        if let Some((a, left)) = leaf {
            let (n, term) = (self.nodes.len(), Term { op: None, a, b: a });
            let newest = self.nodes[n - 1].2;
            if left {
                self.terms.insert(newest, term)?;
                self.nodes[n - 1].2 = newest + 1;
                self.nodes.insert(n - 1, (NONE, None, newest, 1))?;
            } else {
                self.terms.push(term)?;
                self.nodes.push((NONE, None, self.terms.len() - 1, 1))?;
            }
        }
        let n = self.nodes.len();
        require!(n >= 2);
        let ((x_tree, x_op, first, x), (y_tree, y_op, _, y)) =
            (self.nodes[n - 2], self.nodes[n - 1]);
        let folds = |o: Option<BinOp>, terms| terms == 1 || o == Some(op);
        require!(x + y <= MAX_FOLD && folds(x_op, x) && folds(y_op, y));
        if !op.is_reassociable() {
            // A left-deep fold of terms in source order only.
            require!(y == 1 && (!swap || x == 1));
            if swap {
                self.terms.swap(first, first + 1);
            }
        }
        self.nodes.truncate(n - 2);
        self.fold(x_tree);
        self.fold(y_tree);
        self.define(dst, Value::Tree)?;
        self.nodes.push((dst, Some(op), first, x + y))
    }

    /// Ends the oldest tree, which must be `value` — or a leaf, as a
    /// fold of one term ahead of the trees begun — in `sink`: one kind
    /// of sink per superinstruction, stores whole vectors apart, and at
    /// most two rotation shifts.
    fn sink(&mut self, value: u32, sink: Sink, start: i64) -> Option<()> {
        require!(!(matches!(sink, Sink::Shift { .. }) && self.folds.len() == 2));
        let (op, terms) = match self.nodes.first() {
            Some(&(tree, op, _, terms)) if tree == value => {
                self.nodes.remove(0);
                self.fold(tree);
                (op, terms)
            }
            _ => {
                let a = self.leaf(value)?;
                // Folds take their terms in order.
                let at = self.nodes.first().map_or(self.terms.len(), |n| n.2);
                self.terms.insert(at, Term { op: None, a, b: a })?;
                self.nodes.iter_mut().for_each(|n| n.2 += 1);
                (None, 1)
            }
        };
        if let Some(&(first, _, first_start)) = self.folds.first() {
            require!(
                std::mem::discriminant(&first.sink) == std::mem::discriminant(&sink)
                    && (start - first_start) % V == 0
            );
        }
        self.fold_ops.push(op.unwrap_or(BinOp::Or))?;
        self.folds.push((
            Fold {
                leaves: terms,
                sink,
            },
            value,
            start,
        ))
    }

    /// Reads one more op: `None` where it cannot continue the run.
    fn push(&mut self, op: &Op, carried: &Carried) -> Option<()> {
        require!(!self.closed);
        match *op {
            Op::Load {
                dst, start, step, ..
            }
            | Op::LoadFused {
                dst, start, step, ..
            } => {
                require!(self.loads.len() < MAX_LEAVES && whole_vectors(&mut self.step, step));
                self.define(dst, Value::Stream(self.loads.len() as u8))?;
                self.stream_leaf[self.loads.len()] = u8::MAX;
                self.loads.push(start)?;
            }
            Op::Perm { .. } | Op::Splat { .. } | Op::BinSplat { .. } => {
                return self.gather_or_splat(op)
            }
            Op::Bin { dst, op, a, b } => {
                if let Some(link) = self.reduction_link(op, a, b, carried) {
                    let value = if a == link { b } else { a };
                    require!(value != link);
                    self.sink(value, Sink::Reduce { op }, 0)?;
                    if self.acc == NONE {
                        self.acc = link;
                    }
                    self.link = dst;
                    return Some(());
                }
                let newest = self.nodes.last().map_or(NONE, |n| n.0);
                match (self.leaf(a), self.leaf(b)) {
                    (Some(x), Some(y)) => self.term(
                        dst,
                        Term {
                            op: Some(op),
                            a: x,
                            b: y,
                        },
                    )?,
                    (Some(x), None) if b == newest => self.join(dst, op, Some((x, true)), false)?,
                    (None, Some(y)) if a == newest => {
                        self.join(dst, op, Some((y, false)), false)?
                    }
                    (None, None) => {
                        let older = self
                            .nodes
                            .len()
                            .checked_sub(2)
                            .map_or(NONE, |n| self.nodes[n].0);
                        require!(
                            older != NONE
                                && ((a, b) == (older, newest) || (a, b) == (newest, older))
                        );
                        self.join(dst, op, None, a == newest)?;
                    }
                    _ => return None,
                }
            }
            Op::Shift { dst, a, b, amt } => {
                require!(self.shifted.is_none());
                if self.rotated == NONE {
                    require!(carried.chains().any(|c| c[0] == a));
                    (self.rotated, self.carry) = (a, a);
                }
                require!(a == self.carry);
                self.shifted = Some((dst, amt));
                self.carry = b;
            }
            Op::Store {
                src,
                arr,
                start,
                step,
            } => {
                require!(
                    whole_vectors(&mut self.out_step, step)
                        && (self.stored == NONE || self.stored == arr)
                );
                self.stored = arr;
                match self.shifted.take() {
                    Some((shifted, amt)) => {
                        require!(shifted == src);
                        self.sink(self.carry, Sink::Shift { at: 0, amt }, start)?;
                    }
                    None => self.sink(src, Sink::Store { at: 0 }, start)?,
                }
            }
            Op::Copy { dst, src } if self.acc != NONE && (dst, src) == (self.acc, self.link) => {
                self.closed = true
            }
            _ => return None,
        }
        Some(())
    }

    /// [`Parse::push`] for the ops that make gather and splat leaves —
    /// out of line, since folds of loaded streams have none.
    #[cold]
    #[inline(never)]
    fn gather_or_splat(&mut self, op: &Op) -> Option<()> {
        match *op {
            Op::Perm { dst, a, b, pattern } => {
                let (Some(Value::Stream(a)), Some(Value::Stream(b))) =
                    (self.value(a), self.value(b))
                else {
                    return None;
                };
                let table = self.table(pattern, true)?;
                let j = self.new_leaf(Leaf::Gather { a, b, table })?;
                self.define(dst, Value::Leaf(j))
            }
            Op::Splat { dst, bytes } => {
                let table = self.table(bytes, false)?;
                let j = self.new_leaf(Leaf::Splat(table))?;
                self.define(dst, Value::Leaf(j))
            }
            Op::BinSplat {
                dst,
                op,
                a,
                imm,
                imm_left,
            } => {
                let table = self.table(imm, false)?;
                let k = self.new_leaf(Leaf::Splat(table))?;
                match self.leaf(a) {
                    Some(x) => {
                        let (a, b) = if imm_left { (k, x) } else { (x, k) };
                        self.term(dst, Term { op: Some(op), a, b })
                    }
                    None => {
                        require!(self.nodes.last().is_some_and(|n| n.0 == a));
                        self.join(dst, op, Some((k, imm_left)), false)
                    }
                }
            }
            _ => None,
        }
    }

    /// The register a reduction link `a op b` continues — the lane's
    /// partial or the chain's last link — if it is one.
    fn reduction_link(&self, op: BinOp, a: u32, b: u32, carried: &Carried) -> Option<u32> {
        match self.acc {
            NONE => [a, b]
                .into_iter()
                .find(|&r| carried.partials.contains(&(r, op))),
            acc => (carried.partials.contains(&(acc, op)) && (a == self.link || b == self.link))
                .then_some(self.link),
        }
    }

    /// The run up to `whole` as the superinstruction over `ops`: folds
    /// of loaded streams where it is [`Parse::plain`], else a mixed tree
    /// — which has no rotation shift.
    fn build(
        &self,
        ops: Range<usize>,
        [_, folds, streams, leaves, terms, tables]: Whole,
    ) -> Option<Super> {
        let (mut fold, store) = frame(&self.folds[..folds]);
        let rotates = matches!(fold[0].sink, Sink::Shift { .. });
        let mut shifts = [([0; 16], [0; 16]); 2];
        for (f, shift) in fold[..folds].iter().zip(&mut shifts) {
            if let Sink::Shift { amt, .. } = f.sink {
                *shift = perm_tables(&std::array::from_fn(|i| amt + i as u8));
            }
        }
        let step = self.step.unwrap_or(0);
        let mut f = Super {
            ops,
            op: BinOp::Or,
            step,
            used: (streams, folds),
            stream: [0; MAX_LEAVES],
            fold,
            store: store.map(|(base, reach)| (base, reach, self.out_step.unwrap_or(step))),
            shifts,
            column: if rotates { self.rotated } else { self.acc },
            tree: None,
            halves: 0,
        };
        if let Some(op) = self.plain(&mut f.stream, &mut fold[..folds], streams) {
            (f.fold, f.op) = (fold, op);
        } else {
            require!(!rotates);
            f.stream[..streams].copy_from_slice(&self.loads[..streams]);
            f.tree = Some(self.shape(folds, leaves, terms, tables));
        }
        f.halves = halves(&f);
        Some(f)
    }

    /// A mixed tree's first `folds` operators, `leaves` leaves, `terms`
    /// terms and `tables` tables — out of line, since most runs are folds
    /// of loaded streams.
    #[cold]
    #[inline(never)]
    fn shape(&self, folds: usize, leaves: usize, terms: usize, tables: usize) -> Shape {
        let tables = self.tables[..tables].iter().map(|&(bytes, gather)| {
            if gather {
                perm_tables(&bytes)
            } else {
                (bytes, [0; 16])
            }
        });
        Shape {
            ops: self.fold_ops[..folds].to_vec(),
            leaves: self.leaves[..leaves].to_vec(),
            terms: self.terms[..terms].to_vec(),
            tables: tables.collect(),
        }
    }

    /// Whether `folds`, over the first `streams` streams, are folds of
    /// loaded streams by one operator: each term a stream or — the
    /// first term only, under a non-reassociable operator — two streams
    /// by its fold's operator, every stream read once, stores as many
    /// whole vectors apart as the streams, and past two streams a
    /// reassociable operator. If so, returns the operator, with each
    /// fold's stream count in `folds` and the streams' first bytes, fold
    /// by fold, in `stream` — a reassociable fold's in load order.
    fn plain(
        &self,
        stream: &mut [i64; MAX_LEAVES],
        folds: &mut [Fold],
        streams: usize,
    ) -> Option<BinOp> {
        require!(self.out_step.is_none() || self.out_step == self.step);
        let (mut op, mut order, mut n, mut seen, mut k) = (None, [0u8; MAX_LEAVES], 0, 0u32, 0);
        for (g, &fold_op) in folds.iter_mut().zip(&*self.fold_ops) {
            let first = n;
            for (j, t) in self.terms[k..k + g.leaves].iter().enumerate() {
                let by = if g.leaves == 1 { t.op } else { Some(fold_op) };
                if let Some(o) = t.op {
                    require!(Some(o) == by && (j == 0 || o.is_reassociable()));
                }
                for leaf in [t.a, t.b].into_iter().take(1 + t.op.is_some() as usize) {
                    let Leaf::Stream(s) = self.leaves[leaf as usize] else {
                        return None;
                    };
                    require!(seen & 1 << s == 0);
                    (seen, order[n], n) = (seen | 1 << s, s, n + 1);
                }
                if let Some(by) = by.filter(|_| n - first > 1) {
                    require!(
                        *op.get_or_insert(by) == by && (n - first == 2 || by.is_reassociable())
                    );
                }
            }
            if op.is_some_and(BinOp::is_reassociable) {
                order[first..n].sort_unstable();
            }
            (k, g.leaves) = (k + g.leaves, n - first);
        }
        require!(seen.count_ones() as usize == streams);
        for (to, &s) in stream.iter_mut().zip(&order[..n]) {
            *to = self.loads[s as usize];
        }
        Some(op.unwrap_or(BinOp::Or))
    }
}

/// [`Super::halves`]: the streams the first half of `f`'s folds reads,
/// if the folds split into an unrolled pair's two matching halves — as
/// many folds in each, every fold of the second half the matching one of
/// the first a source iteration on: the same leaves and operators, every
/// stream half the stream step on, its store 16 bytes on (the stores
/// stepping 32), the same shift or partial. Decided once, here, so no
/// strip tests it again.
fn halves(f: &Super) -> u16 {
    let (folds, loads) = (f.folds(), f.loads());
    let (n, half) = (folds.len() / 2, f.step / 2);
    let (first, second) = folds.split_at(n);
    let sinks = first.iter().zip(second).all(|(x, y)| {
        x.leaves == y.leaves
            && match (x.sink, y.sink) {
                (Sink::Store { at }, Sink::Store { at: next }) => next == at + V as usize,
                (
                    Sink::Shift { at, amt },
                    Sink::Shift {
                        at: next,
                        amt: same,
                    },
                ) => next == at + V as usize && same == amt,
                (Sink::Reduce { op }, Sink::Reduce { op: same }) => same == op,
                _ => false,
            }
    });
    let stores = f.store.is_none_or(|(.., step)| step == 2 * V);
    if n == 0 || folds.len() % 2 != 0 || f.step % (2 * V) != 0 || !sinks || !stores {
        return 0;
    }
    let mut read = 0u16;
    let mut next = |s: u8, t: u8| {
        read |= 1 << s;
        loads[t as usize] == loads[s as usize] + half
    };
    let Some(shape) = &f.tree else {
        // Streams come fold by fold, a vector a lane.
        let streams = loads.len() / 2;
        let matched = f.step == 2 * V
            && loads.len() % 2 == 0
            && (0..streams as u8).all(|s| next(s, s + streams as u8));
        return if matched { read } else { 0 };
    };
    let table = |t: u8| shape.tables[t as usize];
    let mut leaf = |x: u8, y: u8| match (shape.leaves[x as usize], shape.leaves[y as usize]) {
        (Leaf::Stream(s), Leaf::Stream(t)) => next(s, t),
        (
            Leaf::Gather { a, b, table: t },
            Leaf::Gather {
                a: c,
                b: d,
                table: u,
            },
        ) => next(a, c) && next(b, d) && table(t) == table(u),
        (Leaf::Splat(t), Leaf::Splat(u)) => table(t) == table(u),
        _ => false,
    };
    let terms: usize = first.iter().map(|g| g.leaves).sum();
    let (ops, (x, y)) = (shape.ops.split_at(n), shape.terms.split_at(terms));
    let matched = ops.0 == ops.1
        && x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(x, y)| x.op == y.op && leaf(x.a, y.a) && leaf(x.b, y.b));
    if matched {
        read
    } else {
        0
    }
}

/// The folds of a superinstruction, with their store offsets made
/// relative to the lowest store, and that store's first byte with the
/// farthest offset from it (stores only).
fn frame(folds: &[(Fold, u32, i64)]) -> ([Fold; MAX_LEAVES], Option<(i64, usize)>) {
    let stores = folds
        .iter()
        .filter(|(f, ..)| !matches!(f.sink, Sink::Reduce { .. }));
    let base = stores.map(|&(.., start)| start).min();
    let mut fold = [Fold {
        leaves: 0,
        sink: Sink::Store { at: 0 },
    }; MAX_LEAVES];
    for (to, &(mut f, _, start)) in fold.iter_mut().zip(folds) {
        if let Sink::Store { at } | Sink::Shift { at, .. } = &mut f.sink {
            *at = (start - base.unwrap_or(0)) as usize;
        }
        *to = f;
    }
    let reach = fold[..folds.len()].iter().filter_map(|f| match f.sink {
        Sink::Store { at } | Sink::Shift { at, .. } => Some(at),
        Sink::Reduce { .. } => None,
    });
    (fold, base.map(|base| (base, reach.max().unwrap_or(0))))
}

/// Whether `step`, shared with every access before it in `shared`, is
/// a forward one of whole vectors.
fn whole_vectors(shared: &mut Option<i64>, step: i64) -> bool {
    step >= V && step % V == 0 && *shared.get_or_insert(step) == step
}

/// The selection rules a run of the right shape must still pass. No
/// stream reads the stored array, and every register the run names is
/// read only inside the run and dead after it: neither carried nor read
/// by a later section. The registers in `keep` — a rotated register
/// and its source, an accumulator — leave through their lanes instead.
/// That a value is read once (a stream or a mixed tree's leaf may be
/// read again) is the parse's to enforce.
fn legal(
    ops: &[Op],
    run: Range<usize>,
    s: usize,
    scan: &Scan,
    info: &[Reg],
    stored: u32,
    keep: [u32; 3],
) -> bool {
    ops[run.clone()].iter().all(|op| {
        let read = |r: u32| {
            let u = &scan.uses[r as usize];
            let escapes = scan.carried.contains(&r) || info[r as usize].live_after(s);
            (u.reads == 0
                || run.contains(&(u.read as usize)) && run.contains(&(u.last_read as usize)))
                && (keep.contains(&r) || !escapes)
        };
        !matches!(*op, Op::Load { arr, .. } | Op::LoadFused { arr, .. } if arr == stored)
            && op.regs().into_iter().filter(|&r| r != NONE).all(read)
    })
}

/// The rotation source the first `folds` folds of a run carry: `NONE`
/// when the last fold does not shift, the last fold's value when it
/// shifts at depth 1, and `None` when it shifts deeper.
fn rotation_source(p: &Parse, carried: &Carried, folds: usize) -> Option<u32> {
    let (last, value, _) = p.folds[folds - 1];
    match last.sink {
        Sink::Shift { .. } => match carried.chains().find(|c| c[0] == p.rotated) {
            Some(chain) if *chain == [p.rotated, value] => Some(value),
            _ => None,
        },
        _ => Some(NONE),
    }
}

/// The superinstruction that starts at op `i` of strip section `s` (in
/// strip order), if one does: the longest run of ops from `i` that
/// reads as folds each into the same kind of sink ([`Parse`]), builds,
/// and is [`legal`]. One generic entry over a table of four families:
/// folds of loaded streams by one operator into each of three sinks (a
/// store, a rotation shift and store, a reduction partial), and mixed
/// trees into a store or a partial. Any rule a run fails leaves its ops
/// to the generic arms.
fn pick(
    ops: &[Op],
    i: usize,
    s: usize,
    scan: &Scan,
    carried: &Carried,
    info: &[Reg],
    p: &mut Parse,
) -> Option<Super> {
    require!(matches!(ops[i], Op::Load { .. } | Op::LoadFused { .. }));
    p.clear();
    for (j, op) in ops.iter().enumerate().skip(i) {
        if p.push(op, carried).is_none() {
            break;
        }
        // A run ends at a sink: past it, a stream or leaf would be unread.
        if p.is_whole() && matches!(op, Op::Store { .. } | Op::Copy { .. }) {
            p.whole.push([
                j + 1,
                p.folds.len(),
                p.loads.len(),
                p.leaves.len(),
                p.terms.len(),
                p.tables.len(),
            ])?;
        }
    }
    p.whole.iter().rev().find_map(|&whole| {
        let source = rotation_source(p, carried, whole[1])?;
        require!(legal(
            ops,
            i..whole[0],
            s,
            scan,
            info,
            p.stored,
            [p.rotated, source, p.acc]
        ));
        p.build(i..whole[0], whole)
    })
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
    /// Bit `s`: section `s` runs in strips.
    strips: u8,
}

impl Block {
    /// Empties the block.
    fn reset(&mut self) {
        self.lanes = 0;
        self.free_lanes.clear();
        self.free.clear();
        self.groups.clear();
        self.strips = 0;
    }

    fn span(&mut self, lanes: u32) -> u32 {
        if lanes == 1 {
            if let Some(lane) = self.free_lanes.pop() {
                return lane;
            }
            let column = self.span(STRIP as u32);
            self.free_lanes
                .extend((column + 1..column + STRIP as u32).rev());
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
            reg.slot = self.span(if reg.named & self.strips != 0 {
                STRIP as u32
            } else {
                1
            });
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
            None => self.free(
                if reg.named & self.strips != 0 {
                    STRIP as u32
                } else {
                    1
                },
                reg.slot,
            ),
        }
        reg.slot = NONE;
    }
}

/// Whether strip section `x`, whose stores meet no access fewer than
/// `apart` iterations apart, runs its whole trip as one strip (DESIGN
/// §11.4): every op lies in a fold of loaded streams, whose values never
/// leave CPU registers, so no column bounds the strip; no value waits in
/// a lane for the code after the loop ([`Section::written`]); and the
/// trip keeps its accesses apart. A fold's lane state — a rotation's
/// carry, a partial's lane — never indexes past its column.
fn whole(x: &Section, apart: i64) -> bool {
    let fused: usize = x.supers.iter().map(|f| f.ops.len()).sum();
    fused == x.ops.len()
        && x.supers.iter().all(|f| f.tree.is_none())
        && x.written.is_empty()
        && apart >= x.iters
}

impl Section {
    /// A baked plan's six sections, in execution order and empty: the
    /// prologue, each loop behind its header — which runs once, when its
    /// loop runs at all, and holds what fusion hoists — and the
    /// epilogue. Bake fills them, fusion rewrites them in place and
    /// [`lower`] finishes them.
    pub(crate) fn plan(pair_iters: i64, body_iters: i64) -> [Section; 6] {
        let roles = [
            ("prologue", 1),
            ("pair.header", pair_iters.min(1)),
            ("pair", pair_iters),
            ("body.header", body_iters.min(1)),
            ("body", body_iters),
            ("epilogue", 1),
        ];
        roles.map(|(role, iters)| Section {
            role,
            ops: Vec::new(),
            supers: Vec::new(),
            iters,
            schedule: SectionSchedule::Sequential(SequentialReason::NoLoop),
            width: 1,
            invariant: Vec::new(),
            written: Vec::new(),
            seeds: Vec::new(),
            partials: Vec::new(),
        })
    }
}

/// Every table lowering fills and throws away: the registers' [`Reg`]
/// records, each section's [`Scan`] and [`Carried`] registers,
/// [`rotate`]'s buffers, the block's free lists and the [`Parse`]. A
/// thread keeps one in its bake workspace (`kernel::Workspace`);
/// [`lower`] clears and re-sizes each table it uses, so nothing one bake
/// leaves behind reaches the next.
#[derive(Default)]
pub(crate) struct Tables {
    info: Vec<Reg>,
    /// [`scan`]'s scratch.
    scratch: (Vec<bool>, Vec<u32>, Vec<Access>),
    /// By section that runs, in order.
    scans: [Scan; 6],
    carried: [Carried; 6],
    rotation: Rotation,
    block: Block,
    parse: Parse,
}

/// Lowers a baked plan's six sections ([`Section::plan`]) onto one
/// register block, on the tables `t` lends.
///
/// A section that never runs — a loop that does not, and its header —
/// drops out. Every section is [`scan`]ned, then every loop's schedule
/// [`decide`]d (legality needs every section's liveness), and then one
/// walk per section emits it: a strip section's superinstructions are
/// [`pick`]ed where they start, and registers are renamed onto the
/// block as the walk reaches them. A register takes a slot at the first
/// op that names it and hands it on after the last one, unless a later
/// section reads the value or — for a register live into a loop — the
/// loop has not ended. The block is therefore sized by the values live
/// at once, not by the number of baked registers (`nregs`).
pub(crate) fn lower(
    sections: [Section; 6],
    nregs: usize,
    elem: ScalarType,
    t: &mut Tables,
) -> (Program, Schedule) {
    let mut sections: Vec<Section> = sections.into_iter().filter(|s| s.iters > 0).collect();
    let Tables {
        info,
        scratch,
        scans,
        carried,
        rotation,
        block,
        parse,
    } = t;
    info.clear();
    info.resize(nregs, Reg::UNNAMED);
    for (s, x) in sections.iter().enumerate() {
        scan(&x.ops, x.iters, s, info, scratch, &mut scans[s]);
    }
    let mut decisions = [Err(SequentialReason::NoLoop); 6];
    for (s, x) in sections.iter_mut().enumerate() {
        decisions[s] = decide(
            &mut x.ops,
            x.iters,
            s,
            &mut scans[s],
            info,
            &mut carried[s],
            rotation,
        );
    }

    block.reset();
    for (s, carried) in carried.iter().enumerate().take(sections.len()) {
        if decisions[s].is_err() {
            continue;
        }
        block.strips |= 1 << s;
        for chain in carried.chains() {
            for (offset, &r) in chain.iter().enumerate() {
                (info[r as usize].group, info[r as usize].offset) =
                    (block.groups.len() as u32, offset as u32);
            }
            block.groups.push(Group {
                base: NONE,
                held: 0,
                lanes: (STRIP + chain.len() - 1) as u32,
            });
        }
    }
    if block.strips != 0 {
        parse.reset(info.len());
    }

    let no_loop = SectionSchedule::Sequential(SequentialReason::NoLoop);
    let mut schedule = Schedule {
        pair: no_loop,
        body: no_loop,
    };
    for (s, ((section, scan), carried)) in
        sections.iter_mut().zip(&*scans).zip(&*carried).enumerate()
    {
        section.schedule = match decisions[s] {
            Ok(()) => SectionSchedule::Strip,
            Err(why) => SectionSchedule::Sequential(why),
        };
        match section.role {
            "pair" => schedule.pair = section.schedule,
            "body" => schedule.body = section.schedule,
            _ => {}
        }
        let strips = section.schedule == SectionSchedule::Strip;
        let (ops, invariant, written) = (
            &mut section.ops,
            &mut section.invariant,
            &mut section.written,
        );
        if strips {
            invariant.reserve(scan.live_in.len());
            written.reserve(ops.len());
        }
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
        // Emission: a superinstruction where one starts, else the lone op.
        let mut i = 0;
        while i < ops.len() {
            let (mut end, mut fused) = (i + 1, false);
            if strips {
                if let Some(mut f) = pick(ops, i, s, scan, carried, info, parse) {
                    // A rotated register or an accumulator: live in, so
                    // it has its slot already.
                    if f.column != NONE {
                        f.column = info[f.column as usize].slot;
                    }
                    (end, fused) = (f.ops.end, true);
                    section.supers.push(f);
                }
            }
            for (k, op) in (i..end).zip(&mut ops[i..end]) {
                let regs = op.regs();
                for &r in regs.iter().filter(|&&r| r != NONE) {
                    if info[r as usize].slot == NONE {
                        block.claim(&mut info[r as usize]);
                    }
                }
                op.rename(|r| info[r as usize].slot);
                // A superinstruction's values stay in CPU registers or
                // scratch columns: only one a later section reads — a
                // rotation's source — leaves its last lane behind.
                let d = regs[0];
                let kept = !fused || d != NONE && info[d as usize].live_after(s);
                if strips && kept && d != NONE && !carried.partials.iter().any(|&(acc, _)| acc == d)
                {
                    written.push(info[d as usize].slot);
                }
                for &r in regs.iter().filter(|&&r| r != NONE) {
                    let reg = &mut info[r as usize];
                    // An op may name a register twice: release it once.
                    let done = scan.uses[r as usize].last as usize == k && reg.slot != NONE;
                    if done && !reg.pinned && !reg.live_after(s) {
                        block.release(reg);
                    }
                }
            }
            i = end;
        }
        section.seeds = carried
            .chains()
            .map(|chain| (info[chain[0] as usize].slot, chain.len() as u32 - 1))
            .collect();
        let identity = |op| splat_bytes(elem, reduction_identity(op, elem));
        section.partials = carried
            .partials
            .iter()
            .map(|&(r, op)| (info[r as usize].slot, op, identity(op)))
            .collect();
        for &r in &scan.live_in {
            let reg = &mut info[r as usize];
            reg.pinned = false;
            if !reg.live_after(s) {
                block.release(reg);
            }
        }
        section.width = match section.schedule {
            SectionSchedule::Strip if whole(section, scan.apart) => section.iters as usize,
            SectionSchedule::Strip => STRIP,
            SectionSchedule::Sequential(_) => 1,
        };
    }

    (
        Program {
            sections,
            nregs: block.lanes as usize,
            elem,
        },
        schedule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body section [`lower`] makes of `ops`, a loop of `iters`
    /// iterations over the baked registers `0..16`, followed by `after`
    /// as the epilogue (what a later section reads decides liveness).
    fn lowered(ops: &[Op], iters: i64, after: &[Op]) -> Section {
        let mut plan = Section::plan(0, iters);
        (plan[4].ops, plan[5].ops) = (ops.to_vec(), after.to_vec());
        let (program, schedule) = lower(plan, 16, ScalarType::I32, &mut Tables::default());
        let body = program
            .sections
            .into_iter()
            .find(|x| x.role == "body")
            .expect("the body runs");
        assert_eq!(schedule.body, body.schedule);
        body
    }

    fn why_after(ops: &[Op], iters: i64, after: &[Op]) -> Option<SequentialReason> {
        match lowered(ops, iters, after).schedule {
            SectionSchedule::Sequential(why) => Some(why),
            SectionSchedule::Strip => None,
        }
    }

    fn why(ops: &[Op], iters: i64) -> Option<SequentialReason> {
        why_after(ops, iters, &[])
    }

    fn strips(ops: &[Op], iters: i64) -> bool {
        why(ops, iters).is_none()
    }

    /// Checks that `lowered` is `baked`, op for op, under one renaming of
    /// the baked registers onto slots, and returns each register's slot.
    fn renaming(baked: &[Op], lowered: &[Op]) -> Vec<u32> {
        assert_eq!(baked.len(), lowered.len(), "{lowered:?}");
        let mut slots = vec![NONE; 32];
        for (b, l) in baked.iter().zip(lowered) {
            for (r, slot) in b
                .regs()
                .into_iter()
                .zip(l.regs())
                .filter(|&(r, _)| r != NONE)
            {
                assert!(
                    slots[r as usize] == NONE || slots[r as usize] == slot,
                    "r{r} in two slots: {lowered:?}"
                );
                slots[r as usize] = slot;
            }
            let mut b = b.clone();
            b.rename(|r| slots[r as usize]);
            assert_eq!(b, *l);
        }
        slots
    }

    /// The one baked register `slots` puts in `slot`.
    fn held(slots: &[u32], slot: u32) -> u32 {
        let regs: Vec<u32> = (0..slots.len() as u32)
            .filter(|&r| slots[r as usize] == slot)
            .collect();
        let [r] = regs[..] else {
            panic!("slot {slot} holds {regs:?}")
        };
        r
    }

    /// `body`'s rotation chains, by baked register: a chain of depth `d`
    /// is `d` seed lanes in front of its source's column.
    fn chains(body: &Section, slots: &[u32]) -> Vec<Vec<u32>> {
        body.seeds
            .iter()
            .map(|&(at, d)| (at..=at + d).map(|slot| held(slots, slot)).collect())
            .collect()
    }

    /// `body`'s reduction accumulators, by baked register.
    fn partials(body: &Section, slots: &[u32]) -> Vec<(u32, BinOp)> {
        body.partials
            .iter()
            .map(|&(slot, op, _)| (held(slots, slot), op))
            .collect()
    }

    /// The superinstructions [`lower`] picks in one loop section of 1000
    /// iterations, in strip order, followed by `after`.
    fn select_after(ops: &[Op], after: &[Op]) -> Vec<Super> {
        let body = lowered(ops, 1000, after);
        assert_eq!(body.schedule, SectionSchedule::Strip, "the section strips");
        body.supers
    }

    const FAR: i64 = 1 << 20;

    fn load(dst: u32, start: i64, step: i64) -> Op {
        Op::Load {
            dst,
            arr: 0,
            start,
            step,
        }
    }

    fn store(src: u32, start: i64, step: i64) -> Op {
        Op::Store {
            src,
            arr: 1,
            start,
            step,
        }
    }

    #[test]
    fn strip_legality_separates_independent_sections_from_dependent_ones() {
        // A misaligned copy between disjoint streams.
        assert!(strips(&[load(0, 1024, 16), store(0, FAR, 16)], 1000));
        // One iteration has nothing to amortize.
        assert_eq!(
            why(&[load(0, 1024, 16), store(0, FAR, 16)], 1),
            Some(OneIteration)
        );
        // A loop-invariant register (only read here) does not block strips.
        let invariant = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 2,
                op: BinOp::Add,
                a: 0,
                b: 7,
            },
            store(2, FAR, 16),
        ];
        assert!(strips(&invariant, 1000));

        // In place, the load `q` vectors ahead of the store: a
        // dependence inside the strip window until `q` reaches STRIP,
        // in either direction and at unaligned distances too.
        let s = STRIP as i64;
        for (distance, legal) in [
            (16, false),
            (16 * (s - 1), false),
            (16 * s - 1, false),
            (16 * s, true),
        ] {
            assert_eq!(
                strips(&[load(0, 4096 + distance, 16), store(0, 4096, 16)], 1000),
                legal
            );
            assert_eq!(
                strips(&[load(0, 4096, 16), store(0, 4096 + distance, 16)], 1000),
                legal
            );
        }
        assert_eq!(
            why(&[load(0, 4096 + 16, 16), store(0, 4096, 16)], 1000),
            Some(MemoryDependence)
        );
        // ... unless the trip is too short for the extents to meet.
        assert!(strips(&[load(0, 4096 + 64, 16), store(0, 4096, 16)], 4));

        // Mixed steps: legal on disjoint whole-trip extents only.
        assert!(strips(&[load(0, 1024, 32), store(0, FAR, 16)], 1000));
        assert!(!strips(
            &[load(0, 1024, 32), store(0, 1024 + 32 * 500, 16)],
            1000
        ));
        // A store that does not advance overwrites itself.
        assert!(!strips(&[load(0, 1024, 16), store(0, FAR, 0)], 1000));
    }

    #[test]
    fn a_software_pipelined_rotation_strips_in_place() {
        // r1 is read before the body rewrites it: the column of r0
        // shifted down one lane.
        let pipelined = [
            load(0, 1024, 16),
            Op::Shift {
                dst: 2,
                a: 1,
                b: 0,
                amt: 4,
            },
            store(2, FAR, 16),
            Op::Copy { dst: 1, src: 0 },
        ];
        let body = lowered(&pipelined, 1000, &[]);
        // The rotation copy goes.
        let slots = renaming(&pipelined[..3], &body.ops);
        assert_eq!(chains(&body, &slots), [vec![1, 0]]);
    }

    #[test]
    fn a_rotation_whose_source_is_defined_after_the_read_is_hoisted() {
        // The unrolled pair loop: the first half reads r1, the second
        // half computes what the rotation hands to the next iteration.
        let pair = [
            load(0, 1024, 32),
            Op::Shift {
                dst: 2,
                a: 1,
                b: 0,
                amt: 4,
            },
            store(2, FAR, 32),
            load(3, 1040, 32),
            Op::Bin {
                dst: 4,
                op: BinOp::Add,
                a: 3,
                b: 0,
            },
            Op::Shift {
                dst: 5,
                a: 0,
                b: 4,
                amt: 4,
            },
            store(5, FAR + 16, 32),
            Op::Copy { dst: 1, src: 4 },
        ];
        let body = lowered(&pair, 1000, &[]);
        // The source's slice moves above the read, all else in order.
        let order = [0, 3, 4, 1, 2, 5, 6].map(|i| pair[i].clone());
        let slots = renaming(&order, &body.ops);
        assert_eq!(chains(&body, &slots), [vec![1, 4]]);
    }

    #[test]
    fn a_hoist_blocked_by_a_same_array_store_stays_sequential() {
        // The source's load would have to pass a store to its array.
        let pair = [
            load(0, 1024, 32),
            Op::Shift {
                dst: 2,
                a: 1,
                b: 0,
                amt: 4,
            },
            Op::Store {
                src: 2,
                arr: 0,
                start: FAR,
                step: 32,
            },
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
            Op::Bin {
                dst: 1,
                op: BinOp::Add,
                a: 7,
                b: 0,
            },
            load(2, 1040, 32),
            Op::Bin {
                dst: 3,
                op: BinOp::Add,
                a: 1,
                b: 2,
            },
            Op::Copy { dst: 7, src: 3 },
        ];
        let body = lowered(&dot, 1000, &[]);
        // The reduction's ops stay as they are.
        let slots = renaming(&dot, &body.ops);
        assert_eq!(partials(&body, &slots), [(7, BinOp::Add)]);
    }

    #[test]
    fn a_sub_recurrence_stays_sequential() {
        let sub = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 1,
                op: BinOp::Sub,
                a: 7,
                b: 0,
            },
            Op::Copy { dst: 7, src: 1 },
        ];
        assert_eq!(why(&sub, 1000), Some(CarriedRegister));
        // Two operators in one chain do not reassociate either.
        let mixed = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 1,
                op: BinOp::Add,
                a: 7,
                b: 0,
            },
            Op::Bin {
                dst: 2,
                op: BinOp::Mul,
                a: 1,
                b: 0,
            },
            Op::Copy { dst: 7, src: 2 },
        ];
        assert_eq!(why(&mixed, 1000), Some(CarriedRegister));
    }

    #[test]
    fn a_reduction_whose_intermediate_escapes_stays_sequential() {
        let stored = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 1,
                op: BinOp::Add,
                a: 7,
                b: 0,
            },
            store(1, FAR, 16),
            Op::Copy { dst: 7, src: 1 },
        ];
        assert_eq!(why(&stored, 1000), Some(CarriedRegister));
        let chained = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 1,
                op: BinOp::Add,
                a: 7,
                b: 0,
            },
            Op::Bin {
                dst: 2,
                op: BinOp::Add,
                a: 1,
                b: 0,
            },
            Op::Copy { dst: 7, src: 2 },
        ];
        assert!(strips(&chained, 1000));
        // The epilogue reads the intermediate: it must hold the last
        // iteration's value, which no lane has.
        let epilogue = [store(1, FAR, 0)];
        assert_eq!(why_after(&chained, 1000, &epilogue), Some(CarriedRegister));
    }

    #[test]
    fn a_register_read_on_both_sides_of_its_rotation_stays_sequential() {
        let both = [
            load(0, 1024, 16),
            Op::Shift {
                dst: 2,
                a: 1,
                b: 0,
                amt: 4,
            },
            Op::Copy { dst: 1, src: 0 },
            Op::Shift {
                dst: 3,
                a: 1,
                b: 0,
                amt: 8,
            },
            store(2, FAR, 16),
            store(3, 2 * FAR, 16),
        ];
        assert_eq!(why(&both, 1000), Some(CarriedRegister));
    }

    /// [`select_after`]: each superinstruction's ops and the kind of its
    /// first sink.
    fn selected_after(ops: &[Op], after: &[Op]) -> Vec<(Range<usize>, Sink)> {
        select_after(ops, after)
            .into_iter()
            .map(|f| (f.ops.clone(), f.folds()[0].sink))
            .collect()
    }

    /// Each superinstruction's first and one-past-last op.
    fn selected(ops: &[Op]) -> Vec<(usize, usize)> {
        selected_after(ops, &[])
            .into_iter()
            .map(|(run, _)| (run.start, run.end))
            .collect()
    }

    fn bin(dst: u32, op: BinOp, a: u32, b: u32) -> Op {
        Op::Bin { dst, op, a, b }
    }

    /// `r2 = r0 op r1` over two streams, stored.
    fn fold2(op: BinOp) -> Vec<Op> {
        vec![
            load(0, 1024, 16),
            load(1, 4096, 16),
            bin(2, op, 0, 1),
            store(2, FAR, 16),
        ]
    }

    /// A strip section runs its whole trip as one strip when every op
    /// lies in a fold of loaded streams, no value waits in a lane for
    /// the code after it and no store meets an access within the trip;
    /// any other strip section keeps [`STRIP`].
    #[test]
    fn only_folds_of_loaded_streams_run_their_whole_trip_as_one_strip() {
        let width = |ops: &[Op], iters: i64, after: &[Op]| {
            let body = lowered(ops, iters, after);
            (body.width, body.supers.len())
        };
        let s = STRIP;
        // A fold into a store.
        assert_eq!(width(&fold2(BinOp::Add), 1000, &[]), (1000, 1));
        // Into a rotation shift: its carry goes straight to the seed.
        let mut pipelined = fold2(BinOp::Add);
        pipelined.truncate(3);
        pipelined.extend([
            Op::Shift {
                dst: 3,
                a: 9,
                b: 2,
                amt: 4,
            },
            store(3, FAR, 16),
            Op::Copy { dst: 9, src: 2 },
        ]);
        assert_eq!(width(&pipelined, 1000, &[]), (1000, 1));
        // ... unless the code after the loop reads the rotation's source
        // from its last lane.
        assert_eq!(width(&pipelined, 1000, &[store(2, FAR, 0)]), (s, 1));
        // Into a lane partial.
        let dot = [
            load(0, 1024, 16),
            load(1, 4096, 16),
            bin(2, BinOp::Mul, 0, 1),
            bin(3, BinOp::Add, 7, 2),
            Op::Copy { dst: 7, src: 3 },
        ];
        assert_eq!(width(&dot, 1000, &[]), (1000, 1));
        // Two folds whose second reads what the first stored 40
        // iterations on: one superinstruction, which runs each fold down
        // all its lanes before the next. It strips, but of STRIP, unless
        // the trip is too short for the two to meet.
        let mut two = fold2(BinOp::Add);
        two.extend([
            load(4, FAR + 16 * 40, 16),
            load(5, 8192, 16),
            bin(6, BinOp::Add, 4, 5),
            store(6, 2 * FAR, 16),
        ]);
        assert_eq!(width(&two, 1000, &[]), (s, 1));
        assert_eq!(width(&two, 40, &[]), (40, 1));
        two[4] = load(4, 2 * FAR + 16 * 1000, 16);
        assert_eq!(width(&two, 1000, &[]), (1000, 1));
        // A mixed tree keeps STRIP: its scratch columns hold a strip.
        two[6] = bin(6, BinOp::Sub, 4, 5);
        assert_eq!(width(&two, 1000, &[]), (s, 1));
        // An op outside any superinstruction keeps STRIP.
        let mut lone = fold2(BinOp::Add);
        lone.extend([
            load(4, 8192, 16),
            bin(5, BinOp::Add, 4, 12),
            store(5, 2 * FAR, 16),
        ]);
        assert_eq!(width(&lone, 1000, &[]), (s, 1));
        // A sequential section runs one iteration per dispatch.
        let in_place = [load(0, 4096 + 16, 16), store(0, 4096, 16)];
        assert_eq!(width(&in_place, 1000, &[]).0, 1);
    }

    #[test]
    fn a_value_read_twice_or_after_its_run_is_not_fused() {
        // Single use: the fold's value is read once, by its store.
        assert_eq!(selected(&fold2(BinOp::Add)), [(0, 4)]);
        let mut twice = fold2(BinOp::Add);
        twice.push(store(2, 2 * FAR, 16));
        assert_eq!(selected(&twice), []);
        // Dead after the run: a later section may not read the value.
        assert_eq!(selected_after(&fold2(BinOp::Add), &[]).len(), 1);
        assert_eq!(selected_after(&fold2(BinOp::Add), &[store(2, FAR, 0)]), []);
    }

    #[test]
    fn a_run_is_contiguous() {
        // The two halves of a pair loop form one run.
        let half = |d: u32, at: i64| {
            [
                load(d, 1024 + at, 32),
                load(d + 1, 4096 + at, 32),
                bin(d + 2, BinOp::Add, d, d + 1),
                store(d + 2, FAR + at, 32),
            ]
        };
        let pair: Vec<Op> = half(0, 0).into_iter().chain(half(3, 16)).collect();
        assert_eq!(selected(&pair), [(0, 8)]);
        // An op inside a tree that is not part of it breaks the run.
        let mut split = fold2(BinOp::Add);
        split.insert(2, Op::Copy { dst: 7, src: 9 });
        assert_eq!(selected(&split), []);
    }

    #[test]
    fn streams_and_stores_are_whole_vectors_apart() {
        // The lane loop indexes its windows by vector.
        let half = |d: u32, at: i64, to: i64| [load(d, 1024 + at, 32), store(d, FAR + to, 32)];
        let pair: Vec<Op> = half(0, 0, 0).into_iter().chain(half(1, 16, 16)).collect();
        assert_eq!(selected(&pair), [(0, 4)]);
        let skewed: Vec<Op> = half(0, 0, 0)
            .into_iter()
            .chain(half(1, 16, 1 << 16 | 4))
            .collect();
        assert_eq!(selected(&skewed), [(0, 2), (2, 4)]);
        assert_eq!(selected(&[load(0, 1024, 24), store(0, FAR, 24)]), []);
    }

    #[test]
    fn folds_past_two_streams_need_a_reassociable_operator() {
        let three = |op| {
            let mut ops = fold2(op);
            ops.truncate(3);
            ops.extend([load(3, 8192, 16), bin(4, op, 2, 3), store(4, FAR, 16)]);
            ops
        };
        assert_eq!(trees(&three(BinOp::Add)), [(0..6, false)]);
        assert_eq!(
            trees(&fold2(BinOp::Sub)),
            [(0..4, false)],
            "two streams: any operator"
        );
        // `(b - c) - d` is a mixed tree: a term and a leaf, left-deep.
        assert_eq!(trees(&three(BinOp::Sub)), [(0..6, true)]);
    }

    /// Each superinstruction's ops and whether it is a mixed tree.
    fn trees(ops: &[Op]) -> Vec<(Range<usize>, bool)> {
        supers(ops)
            .into_iter()
            .map(|f| (f.ops.clone(), f.tree.is_some()))
            .collect()
    }

    fn supers(ops: &[Op]) -> Vec<Super> {
        select_after(ops, &[])
    }

    fn perm(dst: u32, a: u32, b: u32) -> Op {
        Op::Perm {
            dst,
            a,
            b,
            pattern: std::array::from_fn(|i| 2 * i as u8),
        }
    }

    #[test]
    fn a_composed_gather_body_is_one_mixed_tree() {
        // `deinterleave` once fusion composed its gathers: two loads read
        // by two perms, each perm squared.
        let body = [
            load(0, 1024, 32),
            load(1, 1040, 32),
            perm(2, 0, 1),
            bin(3, BinOp::Mul, 2, 2),
            perm(4, 0, 1),
            bin(5, BinOp::Mul, 4, 4),
            bin(6, BinOp::Add, 3, 5),
            store(6, FAR, 16),
        ];
        let selected = supers(&body);
        let [f] = &selected[..] else {
            panic!("{selected:?}")
        };
        assert_eq!(
            (f.ops.clone(), f.loads().len(), f.step, f.store.map(|s| s.2)),
            (0..8, 2, 32, Some(16))
        );
        let shape = f.tree.as_ref().expect("a mixed tree");
        assert!(matches!(
            shape.leaves[..],
            [
                Leaf::Gather {
                    a: 0,
                    b: 1,
                    table: 0
                },
                Leaf::Gather {
                    a: 0,
                    b: 1,
                    table: 1
                }
            ]
        ));
        let square = |leaf| Term {
            op: Some(BinOp::Mul),
            a: leaf,
            b: leaf,
        };
        assert_eq!(shape.terms, [square(0), square(1)]);
        assert_eq!((f.folds()[0].leaves, shape.ops[0]), (2, BinOp::Add));
        // A perm of a value the run computed is no leaf.
        let mut chained = body.to_vec();
        chained[4] = perm(4, 2, 1);
        assert_eq!(trees(&chained), []);
    }

    #[test]
    fn mixed_trees_are_two_levels_deep_and_left_deep_unless_reassociable() {
        let (b, c, d) = (load(0, 1024, 16), load(1, 2048, 16), load(2, 4096, 16));
        // `(b + c) * d - b`: three levels.
        let deep = [
            b.clone(),
            c.clone(),
            bin(3, BinOp::Add, 0, 1),
            d.clone(),
            bin(4, BinOp::Mul, 3, 2),
            bin(5, BinOp::Sub, 4, 0),
            store(5, FAR, 16),
        ];
        assert_eq!(trees(&deep), []);
        // `d - (b - c)` keeps its order; `(b - c) - (d - b)` cannot.
        let right = [
            d.clone(),
            b.clone(),
            c.clone(),
            bin(3, BinOp::Sub, 0, 1),
            bin(4, BinOp::Sub, 2, 3),
            store(4, FAR, 16),
        ];
        let kept = supers(&right)[0].tree.take().expect("a mixed tree");
        let streams: Vec<_> = kept
            .terms
            .iter()
            .map(|t| (t.op, kept.leaves[t.a as usize], kept.leaves[t.b as usize]))
            .collect();
        assert_eq!(
            streams,
            [
                (None, Leaf::Stream(0), Leaf::Stream(0)),
                (Some(BinOp::Sub), Leaf::Stream(1), Leaf::Stream(2))
            ]
        );
        let both = [
            b,
            c,
            bin(3, BinOp::Sub, 0, 1),
            d,
            bin(4, BinOp::Sub, 2, 0),
            bin(5, BinOp::Sub, 3, 4),
            store(5, FAR, 16),
        ];
        assert_eq!(trees(&both), [(0..7, true)]);
        let mut reversed = both.to_vec();
        reversed[5] = bin(5, BinOp::Sub, 4, 3);
        assert_eq!(trees(&reversed), [(0..7, true)], "two single terms swap");
        assert_eq!(
            supers(&reversed)[0].tree.as_ref().map(|t| t.terms[0].op),
            Some(Some(BinOp::Sub))
        );
    }

    #[test]
    fn a_tree_may_end_in_a_lane_partial_and_take_a_splat() {
        // acc r7 += (r0 · 3) * r1, fused: the splat rides as an immediate.
        let dot = [
            load(0, 1024, 32),
            load(1, 1040, 32),
            perm(2, 0, 1),
            Op::BinSplat {
                dst: 3,
                op: BinOp::Mul,
                a: 2,
                imm: [3; 16],
                imm_left: false,
            },
            bin(4, BinOp::Mul, 3, 1),
            bin(5, BinOp::Add, 7, 4),
            Op::Copy { dst: 7, src: 5 },
        ];
        let selected = supers(&dot);
        let [f] = &selected[..] else {
            panic!("{selected:?}")
        };
        assert_eq!(
            (f.ops.clone(), f.folds()[0].sink),
            (0..7, Sink::Reduce { op: BinOp::Add })
        );
        assert!(matches!(
            f.tree.as_ref().map(|t| &t.leaves[..]),
            Some([Leaf::Gather { .. }, Leaf::Splat(1), Leaf::Stream(1)])
        ));
    }

    #[test]
    fn a_rotation_shift_fuses_at_depth_one_only() {
        // The pipelined store: r9 is the fold's value a lane back.
        let mut pipelined = fold2(BinOp::Add);
        pipelined.truncate(3);
        pipelined.extend([
            Op::Shift {
                dst: 3,
                a: 9,
                b: 2,
                amt: 4,
            },
            store(3, FAR, 16),
            Op::Copy { dst: 9, src: 2 },
        ]);
        let runs = selected_after(&pipelined, &[]);
        assert!(
            matches!(runs[..], [(ref run, Sink::Shift { amt: 4, .. })] if *run == (0..5)),
            "{runs:?}"
        );
        // Two iterations back: r8 = r9, r9 = r2.
        let mut deep = pipelined.clone();
        deep[3] = Op::Shift {
            dst: 3,
            a: 8,
            b: 2,
            amt: 4,
        };
        deep.extend([Op::Copy { dst: 8, src: 9 }]);
        deep.swap(5, 6);
        assert_eq!(selected(&deep), []);
    }

    #[test]
    fn a_reduction_link_must_read_the_lane_partial() {
        // acc r7 += r0 * r1: a lane partial.
        let dot = [
            load(0, 1024, 16),
            load(1, 4096, 16),
            bin(2, BinOp::Mul, 0, 1),
            bin(3, BinOp::Add, 7, 2),
            Op::Copy { dst: 7, src: 3 },
        ];
        let runs = selected_after(&dot, &[]);
        assert!(
            matches!(runs[..], [(ref run, Sink::Reduce { op: BinOp::Add })] if *run == (0..5)),
            "{runs:?}"
        );
        // r7 only read, never written: a loop invariant, not a partial.
        let invariant = [
            load(0, 1024, 16),
            load(1, 4096, 16),
            bin(2, BinOp::Mul, 0, 1),
            bin(3, BinOp::Add, 7, 2),
            store(3, FAR, 16),
        ];
        assert_eq!(selected(&invariant), []);
    }

    #[test]
    fn predictive_commoning_chains_rotate_by_their_depth() {
        // r2 = r1; r1 = n: r2 is n two iterations back.
        let chain = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 3,
                op: BinOp::Add,
                a: 2,
                b: 1,
            },
            Op::Bin {
                dst: 4,
                op: BinOp::Add,
                a: 3,
                b: 0,
            },
            store(4, FAR, 16),
            Op::Copy { dst: 2, src: 1 },
            Op::Copy { dst: 1, src: 0 },
        ];
        let body = lowered(&chain, 1000, &[]);
        let slots = renaming(&chain[..4], &body.ops);
        assert_eq!(chains(&body, &slots), [vec![2, 1, 0]]);
        // Copied the other way round, r2 is r1's plain copy of n.
        let mut flat = chain.clone();
        flat.swap(4, 5);
        assert_eq!(
            why(&flat, 1000),
            Some(CarriedRegister),
            "r1 is read after its rotation"
        );
        // Two rotations of one source would need one seed lane each:
        // the second rotates a copy of it (the first free id, 16).
        let twice = [
            load(0, 1024, 16),
            Op::Bin {
                dst: 3,
                op: BinOp::Add,
                a: 2,
                b: 1,
            },
            store(3, FAR, 16),
            Op::Copy { dst: 2, src: 0 },
            Op::Copy { dst: 1, src: 0 },
        ];
        let body = lowered(&twice, 1000, &[]);
        let order = [
            twice[0].clone(),
            Op::Copy { dst: 16, src: 0 },
            twice[1].clone(),
            twice[2].clone(),
        ];
        let slots = renaming(&order, &body.ops);
        assert_eq!(chains(&body, &slots), [vec![2, 0], vec![1, 16]]);
    }

    #[test]
    fn a_rotation_that_fails_after_making_a_twin_keeps_its_ops() {
        // Two rotations of r0, the second of a twin copy, whose load
        // would have to pass a store to its array to come above the
        // rotated registers' read.
        let baked = [
            bin(3, BinOp::Add, 2, 1),
            Op::Store {
                src: 3,
                arr: 0,
                start: FAR,
                step: 16,
            },
            load(0, 1024, 16),
            Op::Copy { dst: 2, src: 0 },
            Op::Copy { dst: 1, src: 0 },
        ];
        let body = lowered(&baked, 1000, &[]);
        assert_eq!(body.schedule, SectionSchedule::Sequential(MemoryDependence));
        renaming(&baked, &body.ops);
        assert!(body.seeds.is_empty() && body.supers.is_empty() && body.written.is_empty());
    }
}
