//! The one section driver every tier runs: strip-mined, a
//! superinstruction or an op at a time.
//!
//! A lowered plan is a list of [`Section`]s over one block of vector
//! registers. A section scheduled in strips runs [`STRIP`] iterations
//! per dispatch of each op or superinstruction. A *superinstruction*
//! ([`Super`], chosen by `lower`) is one lane loop over its streams,
//! [`BLOCK`] lanes at a time: it loads each fold's leaves, combines
//! them by one `BinOp` and hands the value to the fold's sink — a
//! store, a rotation shift and store, or a lane-private partial —
//! without the value ever leaving a CPU register. Every other op runs
//! as a tight loop down a register *column* — lane `u` of column `c` is
//! `regs[c + u]` and holds the register's value in iteration `k0 + u`.
//! Either way the op kind and element type are matched outside the lane
//! loop (a superinstruction matches its folds' operator on the tiers
//! that run for speed; its shift amounts and partial operator stay
//! runtime values), as is an op's shift amount, and each memory stream
//! is sliced once per strip into the window the strip touches, so the
//! lane loop indexes that slice — a superinstruction's as an array of
//! whole vectors, since its streams step by whole vectors. Everything
//! else (prologue, headers, epilogue, loops the legality check in
//! `lower` refused) goes through the same routine one
//! iteration at a time, so a strip of length 1 *is* the sequential
//! schedule and there is no second executor.
//!
//! The driver is generic over [`Lanes`] and `#[inline(always)]`: each
//! tier instantiates it inside its `#[target_feature]` entry, where
//! the tier's per-op helpers inline into the lane loops, and [`fold`]
//! inside a second, out-of-line entry ([`Lanes::fold`]), so the
//! superinstructions' lane loops stay out of the strip loop.

use super::SectionSchedule;
use crate::kernel::Op;
use crate::lanes::Reg;
use simdize_ir::{BinOp, ScalarType, UnOp};
use std::cell::Cell;
use std::ops::Range;

/// Iterations per op dispatch in a strip-scheduled section. 32 lanes
/// of 16 bytes make a column 512 bytes, so the handful of columns live
/// at once stay in L1 beside the streams, while the per-op dispatch (a
/// few dozen cycles with its slice checks) is amortized to about a
/// cycle per lane.
pub(super) const STRIP: usize = 32;

/// Most streams one superinstruction folds, over all its folds.
pub(super) const MAX_LEAVES: usize = 16;

/// Lanes a superinstruction's lane loop runs at once: a fold's values
/// for all of them stay in registers, and the loop's per-stream work is
/// paid once for all of them.
const BLOCK: usize = 4;

/// Register blocks up to this size — eight columns, more than any
/// sample loop or benchmark kernel needs — live on the stack.
const STACK_REGS: usize = 8 * STRIP;

/// The vector operations one instruction tier provides.
pub(super) trait Lanes: Copy {
    /// One 128-bit register.
    type V: Copy;
    /// Register image → register: memory loads and `vsplat`.
    fn load(self, src: &Reg) -> Self::V;
    fn store(self, v: Self::V, out: &mut Reg);
    /// `vshiftpair`: bytes `amt..amt + 16` of `a ++ b`.
    fn shift(self, a: Self::V, b: Self::V, amt: u8) -> Self::V;
    /// `vsplice`: `a` where the mask byte is `0xFF` (index below the
    /// splice point), `b` where `0x00`.
    fn splice(self, a: Self::V, b: Self::V, mask: Self::V) -> Self::V;
    /// `vperm`: byte gather from `a ++ b`, by whichever the tier wants
    /// of the raw 0..32 selector or its two `pshufb` half-tables
    /// (selector over `a` / selector − 16 over `b`, `0x80` — shuffle to
    /// zero — where the byte comes from the other register).
    fn perm(self, a: Self::V, b: Self::V, pattern: &[u8; 16], lo: &Reg, hi: &Reg) -> Self::V;
    fn bin(self, op: BinOp, elem: ScalarType, a: Self::V, b: Self::V) -> Self::V;
    fn un(self, op: UnOp, elem: ScalarType, a: Self::V) -> Self::V;
    /// Runs a superinstruction for iterations `k0..k0 + len` ([`fold`]),
    /// out of line: its lane loops stay out of the strip loop every
    /// kernel shares.
    fn fold(self, f: &Super, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<Self::V>], mem: &mut [u8]);
}

/// A tier: its operations as a bundle of closures, the one form that
/// lets the intrinsic tiers stay safe. Closures inherit the
/// `#[target_feature]` set of the function that creates them, so a
/// bundle built there forwards to the tier's feature-gated helpers
/// without an `unsafe` block per operation.
#[derive(Clone, Copy)]
pub(super) struct Tier<Ld, St, Sh, Sp, Pe, Bi, Un, Fo> {
    pub(super) load: Ld,
    pub(super) store: St,
    pub(super) shift: Sh,
    pub(super) splice: Sp,
    pub(super) perm: Pe,
    pub(super) bin: Bi,
    pub(super) un: Un,
    pub(super) fold: Fo,
}

impl<V, Ld, St, Sh, Sp, Pe, Bi, Un, Fo> Lanes for Tier<Ld, St, Sh, Sp, Pe, Bi, Un, Fo>
where
    V: Copy,
    Ld: Fn(&Reg) -> V + Copy,
    St: Fn(V, &mut Reg) + Copy,
    Sh: Fn(V, V, u8) -> V + Copy,
    Sp: Fn(V, V, V) -> V + Copy,
    Pe: Fn(V, V, &[u8; 16], &Reg, &Reg) -> V + Copy,
    Bi: Fn(BinOp, ScalarType, V, V) -> V + Copy,
    Un: Fn(UnOp, ScalarType, V) -> V + Copy,
    Fo: Fn(&Super, i64, usize, ScalarType, &[Cell<V>], &mut [u8]) + Copy,
{
    type V = V;
    #[inline(always)]
    fn load(self, src: &Reg) -> V {
        (self.load)(src)
    }
    #[inline(always)]
    fn store(self, v: V, out: &mut Reg) {
        (self.store)(v, out)
    }
    #[inline(always)]
    fn shift(self, a: V, b: V, amt: u8) -> V {
        (self.shift)(a, b, amt)
    }
    #[inline(always)]
    fn splice(self, a: V, b: V, mask: V) -> V {
        (self.splice)(a, b, mask)
    }
    #[inline(always)]
    fn perm(self, a: V, b: V, pattern: &[u8; 16], lo: &Reg, hi: &Reg) -> V {
        (self.perm)(a, b, pattern, lo, hi)
    }
    #[inline(always)]
    fn bin(self, op: BinOp, elem: ScalarType, a: V, b: V) -> V {
        (self.bin)(op, elem, a, b)
    }
    #[inline(always)]
    fn un(self, op: UnOp, elem: ScalarType, a: V) -> V {
        (self.un)(op, elem, a)
    }
    #[inline(always)]
    fn fold(self, f: &Super, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<V>], mem: &mut [u8]) {
        (self.fold)(f, k0, len, elem, regs, mem)
    }
}

/// Where one fold of a [`Super`] puts its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sink {
    /// `vstore`, `at` bytes into the superinstruction's store window.
    Store { at: usize },
    /// `vstore vshiftpair(carry, value, amt)`, after which the value is
    /// the carry: the previous fold's, or the previous lane's.
    Shift { at: usize, amt: u8 },
    /// `partial = op(partial, value)`, on the lane's partial
    /// accumulator.
    Reduce { op: BinOp },
}

/// One fold of a [`Super`]: its next `leaves` streams combined by the
/// superinstruction's operator, in order, and what takes the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fold {
    pub(crate) leaves: usize,
    pub(crate) sink: Sink,
}

/// A superinstruction: a contiguous run of a strip section's ops —
/// folds of loaded streams by one `BinOp`, each into a [`Sink`] — that
/// the driver runs as one lane loop, every intermediate value in a CPU
/// register (DESIGN §11.4).
#[derive(Debug)]
pub(crate) struct Super {
    /// The member ops in [`Section::ops`], for the listing.
    pub(crate) ops: Range<usize>,
    /// The folds' operator (any, when every fold is one stream).
    pub(crate) op: BinOp,
    /// Bytes per iteration, shared by every stream.
    pub(crate) step: i64,
    /// [`Super::loads`] and [`Super::folds`], held inline so a plan
    /// allocates nothing per superinstruction: how many of each are in
    /// use, then the arrays.
    pub(crate) used: (usize, usize),
    pub(crate) leaf: [i64; MAX_LEAVES],
    pub(crate) fold: [Fold; MAX_LEAVES],
    /// Stores only: the lowest store's first byte, the store window's
    /// base, and the farthest [`Sink`] offset from it.
    pub(crate) store: Option<(i64, usize)>,
    /// Rotation shifts only: each fold's shift as the `vperm` pattern of
    /// its amount and that pattern's two tables ([`perm_tables`]) — one
    /// instruction sequence for every amount, so the lane loop holds no
    /// jump table.
    pub(crate) shifts: [(Reg, Reg, Reg); 2],
    /// The register the sinks keep across lanes: a rotation's seed lane
    /// (the carry; its source's column follows it) or a reduction's
    /// accumulator column. `NO_REG` for stores.
    pub(crate) column: u32,
}

impl Super {
    /// Each leaf's first byte, fold by fold.
    pub(crate) fn loads(&self) -> &[i64] {
        &self.leaf[..self.used.0]
    }

    pub(crate) fn folds(&self) -> &[Fold] {
        &self.fold[..self.used.1]
    }
}

/// One straight-line run of ops and how often it repeats.
#[derive(Debug)]
pub(crate) struct Section {
    /// Where the section sits in the plan: `prologue`, `pair.header`,
    /// `pair`, `body.header`, `body` or `epilogue`.
    pub(crate) role: &'static str,
    pub(crate) ops: Vec<Op>,
    /// Runs of `ops` the driver dispatches as one superinstruction each,
    /// in order; every other op is dispatched alone.
    pub(crate) supers: Vec<Super>,
    pub(crate) iters: i64,
    pub(crate) schedule: SectionSchedule,
    /// Iterations per op dispatch, as the strip driver reads `schedule`:
    /// [`STRIP`], or 1 for the sequential schedule.
    pub(super) width: usize,
    /// Strip sections only: columns the section reads but never
    /// writes. Their lane 0 is broadcast down the column on entry.
    pub(super) invariant: Vec<u32>,
    /// Strip sections only: columns the section writes. The last
    /// iteration's lane is copied to lane 0 on exit, where sequential
    /// code looks for it.
    pub(super) written: Vec<u32>,
    /// Strip sections only: rotation chains as `(c, d)`, a column at
    /// `c + d` behind `d` seed lanes. After each strip its last `d`
    /// lanes move onto the seeds.
    pub(crate) seeds: Vec<(u32, u32)>,
    /// Strip sections only: reduction accumulators `(column, op,
    /// identity)`, lanes 1.. filled on entry and folded into 0 on exit.
    pub(crate) partials: Vec<(u32, BinOp, Reg)>,
}

/// A lowered plan: its sections in execution order over one block of
/// `nregs` registers.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) sections: Vec<Section>,
    pub(crate) nregs: usize,
    pub(crate) elem: ScalarType,
}

/// Expands `$body` once per listed constant with `$name` bound to it,
/// so a tier's `match` on the value folds away inside the lane loop.
macro_rules! with_const {
    ($value:expr, [$($c:path),+], |$name:ident| $body:expr) => {
        match $value {
            $($c => {
                let $name = $c;
                $body
            })+
        }
    };
}

macro_rules! with_binop {
    ($op:expr, |$name:ident| $body:expr) => {
        with_const!(
            $op,
            [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max, BinOp::And, BinOp::Or, BinOp::Xor],
            |$name| $body
        )
    };
}

macro_rules! with_elem {
    ($elem:expr, |$name:ident| $body:expr) => {
        with_const!(
            $elem,
            [
                ScalarType::I8, ScalarType::U8, ScalarType::I16, ScalarType::U16,
                ScalarType::I32, ScalarType::U32, ScalarType::I64, ScalarType::U64
            ],
            |$name| $body
        )
    };
}

/// The mask [`Lanes::splice`] takes for a splice at `point`.
pub(super) fn splice_mask(point: u8) -> Reg {
    std::array::from_fn(|i| if i < point as usize { 0xFF } else { 0x00 })
}

/// The two half-tables [`Lanes::perm`] takes beside `pattern`.
pub(super) fn perm_tables(pattern: &[u8; 16]) -> (Reg, Reg) {
    (
        pattern.map(|sel| if sel < 16 { sel } else { 0x80 }),
        pattern.map(|sel| if sel < 16 { 0x80 } else { sel - 16 }),
    )
}

#[inline(always)]
fn map1<V: Copy>(d: &[Cell<V>], a: &[Cell<V>], f: impl Fn(V) -> V) {
    for (d, a) in d.iter().zip(a) {
        d.set(f(a.get()));
    }
}

#[inline(always)]
fn map2<V: Copy>(d: &[Cell<V>], a: &[Cell<V>], b: &[Cell<V>], f: impl Fn(V, V) -> V) {
    for ((d, a), b) in d.iter().zip(a).zip(b) {
        d.set(f(a.get(), b.get()));
    }
}

/// The bytes stream `(start, step)` touches in iterations
/// `k0..k0 + len`, and where in them iteration `k0`'s vector starts.
#[inline(always)]
fn window(start: i64, step: i64, k0: i64, len: usize) -> (Range<usize>, i64) {
    let first = start + k0 * step;
    let last = first + (len as i64 - 1) * step;
    let lo = first.min(last);
    (lo as usize..(first.max(last) + 16) as usize, first - lo)
}

/// The vector `at` bytes into a stream window.
#[inline(always)]
fn chunk(w: &[u8], at: usize) -> &Reg {
    w[at..at + 16].try_into().expect("a 16-byte window")
}

#[inline(always)]
fn chunk_mut(w: &mut [u8], at: usize) -> &mut Reg {
    (&mut w[at..at + 16]).try_into().expect("a 16-byte window")
}

/// Runs `op` for iterations `k0..k0 + len`. Columns are cells because
/// an op may name one column as both source and destination; lanes
/// never alias across columns.
#[inline(always)]
fn one<L: Lanes>(l: L, op: &Op, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<L::V>], mem: &mut [u8]) {
    let col = |c: u32| &regs[c as usize..][..len];
    let lane = |first: i64, step: i64, u: usize| (first + u as i64 * step) as usize;
    match *op {
        Op::Load { dst, start, step, .. } | Op::LoadFused { dst, start, step, .. } => {
            let (w, first) = window(start, step, k0, len);
            let w = &mem[w];
            for (u, d) in col(dst).iter().enumerate() {
                d.set(l.load(chunk(w, lane(first, step, u))));
            }
        }
        Op::Store { src, start, step, .. } => {
            let (w, first) = window(start, step, k0, len);
            let w = &mut mem[w];
            for (u, s) in col(src).iter().enumerate() {
                l.store(s.get(), chunk_mut(w, lane(first, step, u)));
            }
        }
        Op::Shift { dst, a, b, amt } => {
            macro_rules! arm {
                ($n:literal) => {
                    map2(col(dst), col(a), col(b), |x, y| l.shift(x, y, $n))
                };
            }
            let copy = |src| map1(col(dst), col(src), |x| x);
            by_amount!(amt, copy(a), copy(b), arm)
        }
        Op::Splice { dst, a, b, point } => {
            let m = l.load(&splice_mask(point));
            map2(col(dst), col(a), col(b), |x, y| l.splice(x, y, m));
        }
        Op::Perm { dst, a, b, ref pattern } => {
            let (lo, hi) = perm_tables(pattern);
            map2(col(dst), col(a), col(b), |x, y| l.perm(x, y, pattern, &lo, &hi));
        }
        Op::Splat { dst, ref bytes } => {
            let v = l.load(bytes);
            col(dst).iter().for_each(|d| d.set(v));
        }
        Op::Bin { dst, op, a, b } => with_binop!(op, |op| with_elem!(elem, |ty| {
            map2(col(dst), col(a), col(b), |x, y| l.bin(op, ty, x, y))
        })),
        Op::BinSplat { dst, op, a, ref imm, imm_left } => {
            let iv = l.load(imm);
            with_binop!(op, |op| with_elem!(elem, |ty| if imm_left {
                map1(col(dst), col(a), |x| l.bin(op, ty, iv, x))
            } else {
                map1(col(dst), col(a), |x| l.bin(op, ty, x, iv))
            }))
        }
        Op::Un { dst, op, a } => with_const!(op, [UnOp::Neg, UnOp::Not, UnOp::Abs], |op| {
            with_elem!(elem, |ty| map1(col(dst), col(a), |x| l.un(op, ty, x)))
        }),
        Op::Copy { dst, src } => map1(col(dst), col(src), |x| x),
    }
}

/// Runs superinstruction `f` for iterations `k0..k0 + len`: what each
/// tier's [`Lanes::fold`] instantiates in a function of its own. The
/// store window is split off the image first, so every load window is
/// a shared slice beside it (`lower` keeps loads off the stored array);
/// then the lane loop, [`BLOCK`] lanes at a time. `PAIRS` tiers — the
/// ones a host dispatches for speed — get one lane loop per
/// `(BinOp, ScalarType)` pair; the others, like the lanes left over
/// (only a section's last strip has any), one loop with the pair a
/// runtime value, which keeps the binary, and with it the resident
/// set, small.
#[inline(always)]
pub(super) fn fold<L: Lanes, const PAIRS: bool>(l: L, f: &Super, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<L::V>], mem: &mut [u8]) {
    let span = (len - 1) * f.step as usize + 16;
    let at = |start: i64| (start + k0 * f.step) as usize;
    let (lo, hi) = match f.store {
        Some((start, reach)) => (at(start), at(start) + reach + span),
        None => (mem.len(), mem.len()),
    };
    let (head, rest) = mem.split_at_mut(lo);
    let (out, tail) = rest.split_at_mut(hi - lo);
    let mut windows: [&[Reg]; MAX_LEAVES] = [&[]; MAX_LEAVES];
    for (w, &start) in windows.iter_mut().zip(f.loads()) {
        let first = at(start);
        *w = if first < lo { &head[first..][..span] } else { &tail[first - hi..][..span] }.as_chunks().0;
    }
    let carry = regs.get(f.column as usize).map_or_else(|| l.load(&[0; 16]), Cell::get);
    let (out, stride) = (out.as_chunks_mut().0, f.step as usize / 16);
    let mut run = Run { f, stride, windows: &windows[..f.used.0], out, regs, carry };
    let blocked = len - len % BLOCK;
    if PAIRS {
        with_binop!(f.op, |op| with_elem!(elem, |ty| run.lanes::<L, BLOCK>(l, op, ty, 0..blocked)));
    } else {
        run.lanes::<L, BLOCK>(l, f.op, elem, 0..blocked);
    }
    run.lanes::<L, 1>(l, f.op, elem, blocked..len);
    if let Some(Fold { sink: Sink::Shift { .. }, .. }) = f.folds().last() {
        regs[f.column as usize + len].set(run.carry);
    }
}

/// What [`fold`]'s lane loop reads and writes.
struct Run<'a, V> {
    f: &'a Super,
    /// Vectors per iteration: lane `u` of a window is its vector
    /// `u · stride`.
    stride: usize,
    windows: &'a [&'a [Reg]],
    out: &'a mut [Reg],
    regs: &'a [Cell<V>],
    /// A rotation's last value: its seed lane on entry, its source's
    /// last lane on exit — what the next strip's seed and the code after
    /// the loop read.
    carry: V,
}

impl<V: Copy> Run<'_, V> {
    /// The values of the fold whose leaves are the windows from `k` on,
    /// for the lanes whose vectors are `off` vectors into them: its
    /// streams loaded and combined one after another, every lane's value
    /// in a register.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn values<L: Lanes<V = V>, const B: usize>(&self, l: L, op: BinOp, ty: ScalarType, k: usize, leaves: usize, off: &[usize; B]) -> [V; B] {
        let mut v = [l.load(&[0; 16]); B];
        for i in 0..B {
            v[i] = l.load(&self.windows[k][off[i]]);
        }
        for w in &self.windows[k + 1..k + leaves] {
            for i in 0..B {
                v[i] = l.bin(op, ty, v[i], l.load(&w[off[i]]));
            }
        }
        v
    }

    /// The lane loop over `lanes`, `B` lanes at a time. Stores and
    /// partials need no other fold's value, so they run a fold at a
    /// time down all the lanes. A rotation's folds run together, lane
    /// block by lane block: the second fold's shift reads the first's
    /// value, the first's the last fold's a lane back.
    #[inline(always)]
    fn lanes<L: Lanes<V = V>, const B: usize>(&mut self, l: L, op: BinOp, ty: ScalarType, lanes: Range<usize>) {
        let (f, stride) = (self.f, self.stride);
        let offsets = |u: usize| -> [usize; B] { std::array::from_fn(|i| (u + i) * stride) };
        if let [Fold { leaves, sink: Sink::Shift { at, .. } }, ref rest @ ..] = f.folds()[..] {
            let at = at / 16;
            let (pattern, lo, hi) = &f.shifts[0];
            for u in lanes.step_by(B) {
                let off = offsets(u);
                let x = self.values(l, op, ty, 0, leaves, &off);
                let Some(&Fold { leaves: y_leaves, sink: Sink::Shift { at: at_y, .. } }) = rest.first() else {
                    for i in 0..B {
                        let prev = if i == 0 { self.carry } else { x[i - 1] };
                        l.store(l.perm(prev, x[i], pattern, lo, hi), &mut self.out[at + off[i]]);
                    }
                    self.carry = x[B - 1];
                    continue;
                };
                let (y, at_y) = (self.values(l, op, ty, leaves, y_leaves, &off), at_y / 16);
                let (pattern_y, lo_y, hi_y) = &f.shifts[1];
                for i in 0..B {
                    let prev = if i == 0 { self.carry } else { y[i - 1] };
                    l.store(l.perm(prev, x[i], pattern, lo, hi), &mut self.out[at + off[i]]);
                    l.store(l.perm(x[i], y[i], pattern_y, lo_y, hi_y), &mut self.out[at_y + off[i]]);
                }
                self.carry = y[B - 1];
            }
            return;
        }
        let mut k = 0;
        for g in f.folds() {
            for u in lanes.clone().step_by(B) {
                let off = offsets(u);
                let v = self.values(l, op, ty, k, g.leaves, &off);
                match g.sink {
                    Sink::Store { at } => {
                        let at = at / 16;
                        for i in 0..B {
                            l.store(v[i], &mut self.out[at + off[i]]);
                        }
                    }
                    Sink::Reduce { op } => {
                        let partials = &self.regs[f.column as usize + u..][..B];
                        for i in 0..B {
                            partials[i].set(l.bin(op, ty, partials[i].get(), v[i]));
                        }
                    }
                    Sink::Shift { .. } => unreachable!("a rotation's folds all shift"),
                }
            }
            k += g.leaves;
        }
    }
}

/// Runs `s` for iterations `k0..k0 + len`: the ops before each
/// superinstruction one by one, then the superinstruction.
#[inline(always)]
fn strip<L: Lanes>(l: L, s: &Section, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<L::V>], mem: &mut [u8]) {
    let mut at = 0;
    for i in 0..=s.supers.len() {
        let f = s.supers.get(i);
        for op in &s.ops[at..f.map_or(s.ops.len(), |f| f.ops.start)] {
            one(l, op, k0, len, elem, regs, mem);
        }
        if let Some(f) = f {
            l.fold(f, k0, len, elem, regs, mem);
            at = f.ops.end;
        }
    }
}

/// Moves the last `d` lanes of each rotated column onto its seed lanes
/// after a strip of `len` iterations. Kept out of line: inlined, it
/// costs the strip loop of every other kernel a few percent.
#[inline(never)]
fn reseed<V: Copy>(regs: &[Cell<V>], seeds: &[(u32, u32)], len: usize) {
    for &(c, d) in seeds {
        for seed in c as usize..(c + d) as usize {
            regs[seed].set(regs[seed + len].get());
        }
    }
}

/// Runs a lowered plan: one zeroed register block, then every
/// section in order.
#[inline(always)]
pub(super) fn run<L: Lanes>(l: L, program: &Program, mem: &mut [u8]) {
    let zero = l.load(&[0; 16]);
    let mut stack = [zero; STACK_REGS];
    let mut heap = Vec::new();
    let regs = if program.nregs <= STACK_REGS {
        &mut stack[..program.nregs]
    } else {
        heap.resize(program.nregs, zero);
        &mut heap[..]
    };
    let regs = Cell::from_mut(regs).as_slice_of_cells();
    for s in &program.sections {
        for &c in &s.invariant {
            let column = &regs[c as usize..][..STRIP];
            column.iter().for_each(|lane| lane.set(column[0].get()));
        }
        for (c, _, identity) in &s.partials {
            let identity = l.load(identity);
            regs[*c as usize + 1..][..STRIP - 1].iter().for_each(|lane| lane.set(identity));
        }
        let mut k = 0;
        while k < s.iters {
            let len = (s.iters - k).min(s.width as i64) as usize;
            // Two instantiations of one routine: with the length a
            // constant the lane loops fold away, so the sequential
            // schedule pays for no strip machinery.
            if len == 1 {
                strip(l, s, k, 1, program.elem, regs, mem);
            } else {
                strip(l, s, k, len, program.elem, regs, mem);
            }
            if !s.seeds.is_empty() {
                reseed(regs, &s.seeds, len);
            }
            k += len as i64;
        }
        let last = ((s.iters - 1) % s.width as i64) as usize;
        for &c in &s.written {
            regs[c as usize].set(regs[c as usize + last].get());
        }
        for &(c, op, _) in &s.partials {
            let column = &regs[c as usize..][..STRIP];
            let total = column[1..].iter().fold(column[0].get(), |acc, lane| l.bin(op, program.elem, acc, lane.get()));
            column[0].set(total);
        }
    }
}
