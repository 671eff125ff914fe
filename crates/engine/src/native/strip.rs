//! The one section driver every tier runs: strip-mined, a
//! superinstruction or an op at a time.
//!
//! A lowered plan is a list of [`Section`]s over one block of vector
//! registers. A section scheduled in strips runs [`STRIP`] iterations
//! per dispatch of each op or superinstruction. A *superinstruction*
//! ([`Super`], chosen by `lower`) is one lane loop over its streams,
//! [`BLOCK`] lanes at a time: it loads each fold's leaves, combines
//! them by one `BinOp` — or, in a mixed tree, evaluates terms over
//! streams, two-stream gathers and splats and combines those — and
//! hands the value to the fold's sink — a store, a rotation shift and
//! store, or a lane-private partial — without the value ever leaving a
//! CPU register. Every other op runs as a tight loop down a register
//! *column* — lane `u` of column `c` is `regs[c + u]` and holds the
//! register's value in iteration `k0 + u`. Either way the op kind and
//! element type are matched outside the lane loop (a superinstruction
//! const-matches its operations, as their [`canonical`] `(BinOp,
//! ScalarType)` pairs, on the tiers that run for speed; its shift
//! amounts and partial operator stay runtime values), as is an op's
//! shift amount, and each memory stream
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

/// [`BLOCK`] for a mixed tree, whose lane loop reads its shape once per
/// block: twice the lanes, a tree's value and the term it takes in the
/// sixteen vector registers x86-64 has.
const TREE_BLOCK: usize = 8;

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

/// One fold of a [`Super`]: its next `leaves` streams — or, in a mixed
/// tree, its next `leaves` [`Term`]s — combined by its operator, in
/// order, and what takes the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fold {
    pub(crate) leaves: usize,
    pub(crate) sink: Sink,
}

/// What one lane of a mixed tree's leaf reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leaf {
    /// The vector of stream `s`.
    Stream(u8),
    /// `vperm` of the vectors of streams `a` and `b` by [`Shape::tables`]
    /// entry `table`.
    Gather { a: u8, b: u8, table: u8 },
    /// The register image in the first half of [`Shape::tables`] entry
    /// `table`.
    Splat(u8),
}

/// One term of a mixed tree's fold: leaf `a`, or leaves `a` and `b`
/// combined by `op` (`a == b` squares a leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Term {
    pub(crate) op: Option<BinOp>,
    pub(crate) a: u8,
    pub(crate) b: u8,
}

/// A mixed tree's shape: what its folds' terms read.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Each fold's operator.
    pub(crate) ops: Vec<BinOp>,
    pub(crate) leaves: Vec<Leaf>,
    /// Fold by fold.
    pub(crate) terms: Vec<Term>,
    /// Each gather's pattern and tables ([`perm_tables`]), each splat's
    /// register image.
    pub(crate) tables: Vec<(Reg, Reg, Reg)>,
}

/// A superinstruction: a contiguous run of a strip section's ops —
/// folds, each into a [`Sink`], of loaded streams by one `BinOp` or, in
/// a *mixed tree*, of terms over streams, two-stream gathers and splats
/// — that the strip driver runs as one lane loop, every intermediate
/// value in a CPU register (DESIGN §11.4).
#[derive(Debug)]
pub(crate) struct Super {
    /// The member ops in [`Section::ops`], for the listing.
    pub(crate) ops: Range<usize>,
    /// The folds' operator (any, when every fold is one stream; a mixed
    /// tree's are [`Shape::ops`]).
    pub(crate) op: BinOp,
    /// Bytes per iteration, shared by every stream.
    pub(crate) step: i64,
    /// [`Super::loads`] and [`Super::folds`], held inline so a fold of
    /// loaded streams allocates nothing: how many of each are in use,
    /// then the arrays.
    pub(crate) used: (usize, usize),
    pub(crate) stream: [i64; MAX_LEAVES],
    pub(crate) fold: [Fold; MAX_LEAVES],
    /// Stores only: the lowest store's first byte, the store window's
    /// base, the farthest [`Sink`] offset from it, and the stores' bytes
    /// per iteration — the streams' step but in a mixed tree, whose
    /// gathers read two vectors a lane.
    pub(crate) store: Option<(i64, usize, i64)>,
    /// Rotation shifts only: each fold's shift as the `vperm` pattern of
    /// its amount and that pattern's two tables ([`perm_tables`]) — one
    /// instruction sequence for every amount, so the lane loop holds no
    /// jump table.
    pub(crate) shifts: [(Reg, Reg, Reg); 2],
    /// The register the sinks keep across lanes: a rotation's seed lane
    /// (the carry; its source's column follows it) or a reduction's
    /// accumulator column. `NO_REG` for stores.
    pub(crate) column: u32,
    /// A mixed tree's shape, its folds counting terms; `None` for folds
    /// of loaded streams, whose folds count streams.
    pub(crate) tree: Option<Shape>,
}

impl Super {
    /// Each stream's first byte, fold by fold.
    pub(crate) fn loads(&self) -> &[i64] {
        &self.stream[..self.used.0]
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

/// The element type whose lanes `op` treats exactly as `elem`'s:
/// `add`, `sub` and `mul` wrap the same at either signedness of a width
/// and `and`, `or` and `xor` the same at any width, so only `min` and
/// `max` keep the signedness.
pub(super) fn canonical(op: BinOp, elem: ScalarType) -> ScalarType {
    match op {
        BinOp::Min | BinOp::Max => elem,
        BinOp::And | BinOp::Or | BinOp::Xor => ScalarType::U8,
        _ => match elem.size() {
            1 => ScalarType::I8,
            2 => ScalarType::I16,
            4 => ScalarType::I32,
            _ => ScalarType::I64,
        },
    }
}

/// Expands `$body` once per distinct [`canonical`] `(BinOp,
/// ScalarType)` pair — 31, not 64 — with `$o` and `$t` bound to the
/// pair `($op, $elem)` computes as.
macro_rules! with_canonical {
    ($op:expr, $elem:expr, |$o:ident, $t:ident| $body:expr) => {
        with_canonical!(@ $op, $elem, |$o, $t| $body,
            (Add I8) (Add I16) (Add I32) (Add I64) (Sub I8) (Sub I16) (Sub I32) (Sub I64)
            (Mul I8) (Mul I16) (Mul I32) (Mul I64) (And U8) (Or U8) (Xor U8)
            (Min I8) (Min U8) (Min I16) (Min U16) (Min I32) (Min U32) (Min I64) (Min U64)
            (Max I8) (Max U8) (Max I16) (Max U16) (Max I32) (Max U32) (Max I64) (Max U64))
    };
    (@ $op:expr, $elem:expr, |$o:ident, $t:ident| $body:expr, $(($c:ident $ty:ident))+) => {{
        let op: BinOp = $op;
        match (op, canonical(op, $elem)) {
            $((BinOp::$c, ScalarType::$ty) => {
                let ($o, $t) = (BinOp::$c, ScalarType::$ty);
                $body
            })+
            _ => unreachable!("every canonical pair is listed"),
        }
    }};
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
        Op::Bin { dst, op, a, b } => with_canonical!(op, elem, |op, ty| {
            map2(col(dst), col(a), col(b), |x, y| l.bin(op, ty, x, y))
        }),
        Op::BinSplat { dst, op, a, ref imm, imm_left } => {
            let iv = l.load(imm);
            with_canonical!(op, elem, |op, ty| if imm_left {
                map1(col(dst), col(a), |x| l.bin(op, ty, iv, x))
            } else {
                map1(col(dst), col(a), |x| l.bin(op, ty, x, iv))
            })
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
/// ones a host dispatches for speed — const-match every `(BinOp,
/// ScalarType)` operation, as its [`canonical`] pair: a fold of loaded
/// streams gets one lane loop per pair, a mixed tree one instance of
/// the operation per pair at each place its lane loop combines two
/// values. The others, like the lanes left over (only a section's last
/// strip has any), run one loop with the pair a runtime value, which
/// keeps the binary, and with it the resident set, small.
#[inline(always)]
pub(super) fn fold<L: Lanes, const PAIRS: bool>(l: L, f: &Super, k0: i64, len: usize, elem: ScalarType, regs: &[Cell<L::V>], mem: &mut [u8]) {
    let span = |step: i64| (len - 1) * step as usize + 16;
    let at = |start: i64, step: i64| (start + k0 * step) as usize;
    let (lo, hi, out_step) = match f.store {
        Some((start, reach, step)) => (at(start, step), at(start, step) + reach + span(step), step),
        None => (mem.len(), mem.len(), f.step),
    };
    let (head, rest) = mem.split_at_mut(lo);
    let (out, tail) = rest.split_at_mut(hi - lo);
    let mut windows: [&[Reg]; MAX_LEAVES] = [&[]; MAX_LEAVES];
    for (w, &start) in windows.iter_mut().zip(f.loads()) {
        let first = at(start, f.step);
        let span = span(f.step);
        *w = if first < lo { &head[first..][..span] } else { &tail[first - hi..][..span] }.as_chunks().0;
    }
    let carry = regs.get(f.column as usize).map_or_else(|| l.load(&[0; 16]), Cell::get);
    let out = out.as_chunks_mut().0;
    let strides = (f.step as usize / 16, out_step as usize / 16);
    let mut run = Run { f, stride: strides.0, windows: &windows[..f.used.0], out, regs, carry };
    if let Some(shape) = &f.tree {
        let blocked = len - len % TREE_BLOCK;
        // A gather's strides as constants (a stride-2 pack's, in a body
        // and in its unrolled pair), so the lane loop's block slices
        // need no bounds check per lane.
        match strides {
            (2, 1) if PAIRS => run.tree::<L, PAIRS, TREE_BLOCK>(l, shape, elem, (2, 1), 0..blocked),
            (4, 2) if PAIRS => run.tree::<L, PAIRS, TREE_BLOCK>(l, shape, elem, (4, 2), 0..blocked),
            _ => run.tree::<L, PAIRS, TREE_BLOCK>(l, shape, elem, strides, 0..blocked),
        }
        run.tree::<L, false, 1>(l, shape, elem, strides, blocked..len);
        return;
    }
    let blocked = len - len % BLOCK;
    let op = f.op;
    if PAIRS {
        with_canonical!(op, elem, |op, ty| run.lanes::<L, BLOCK>(l, op, ty, elem, 0..blocked));
    } else {
        run.lanes::<L, BLOCK>(l, op, elem, elem, 0..blocked);
    }
    run.lanes::<L, 1>(l, op, elem, elem, blocked..len);
    if let Some(Fold { sink: Sink::Shift { .. }, .. }) = f.folds().last() {
        regs[f.column as usize + len].set(run.carry);
    }
}

/// `op` on `B` lanes at once: const-matched on its [`canonical`] pair
/// when `PAIRS`, the pair a runtime value otherwise.
#[inline(always)]
fn bin_block<L: Lanes, const PAIRS: bool, const B: usize>(l: L, op: BinOp, elem: ScalarType, a: [L::V; B], b: [L::V; B]) -> [L::V; B] {
    let mut v = a;
    if PAIRS {
        with_canonical!(op, elem, |op, ty| for i in 0..B {
            v[i] = l.bin(op, ty, a[i], b[i]);
        });
    } else {
        for i in 0..B {
            v[i] = l.bin(op, elem, a[i], b[i]);
        }
    }
    v
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
    /// streams, each window sliced once for the block, loaded and
    /// combined one after another, every lane's value in a register.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn values<L: Lanes<V = V>, const B: usize>(&self, l: L, op: BinOp, ty: ScalarType, k: usize, leaves: usize, off: &[usize; B]) -> [V; B] {
        let (stride, span) = (self.stride, self.stride * (B - 1) + 1);
        let mut v = [l.load(&[0; 16]); B];
        let w = &self.windows[k][off[0]..][..span];
        for i in 0..B {
            v[i] = l.load(&w[stride * i]);
        }
        for w in &self.windows[k + 1..k + leaves] {
            let w = &w[off[0]..][..span];
            for i in 0..B {
                v[i] = l.bin(op, ty, v[i], l.load(&w[stride * i]));
            }
        }
        v
    }

    /// The lane loop over `lanes`, `B` lanes at a time, the folds'
    /// operator `op` at type `ty` and sinks at `elem`. Stores and
    /// partials need no other fold's value, so they run a fold at a
    /// time down all the lanes. A rotation's folds run together, lane
    /// block by lane block: the second fold's shift reads the first's
    /// value, the first's the last fold's a lane back.
    #[inline(always)]
    fn lanes<L: Lanes<V = V>, const B: usize>(&mut self, l: L, op: BinOp, ty: ScalarType, elem: ScalarType, lanes: Range<usize>) {
        let (f, stride) = (self.f, self.stride);
        let offsets = |u: usize| -> [usize; B] { std::array::from_fn(|i| (u + i) * stride) };
        if let [Fold { leaves, sink: Sink::Shift { at, .. }, .. }, ref rest @ ..] = f.folds()[..] {
            let at = at / 16;
            let (pattern, lo, hi) = &f.shifts[0];
            for u in lanes.step_by(B) {
                let off = offsets(u);
                let x = self.values(l, op, ty, 0, leaves, &off);
                let Some(&Fold { leaves: y_leaves, sink: Sink::Shift { at: at_y, .. }, .. }) = rest.first() else {
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
            // A partial combines at `ty` where that computes as `elem`.
            let exact = match g.sink {
                Sink::Reduce { op } => canonical(op, ty) == canonical(op, elem),
                _ => true,
            };
            for u in lanes.clone().step_by(B) {
                let off = offsets(u);
                let v = self.values(l, op, ty, k, g.leaves, &off);
                match g.sink {
                    Sink::Store { at } => {
                        let out = &mut self.out[at / 16 + off[0]..][..stride * (B - 1) + 1];
                        for i in 0..B {
                            l.store(v[i], &mut out[stride * i]);
                        }
                    }
                    Sink::Reduce { op } if exact => self.reduce::<L, false, B>(l, op, ty, u, v),
                    Sink::Reduce { op } => self.reduce::<L, false, B>(l, op, elem, u, v),
                    Sink::Shift { .. } => unreachable!("a rotation's folds all shift"),
                }
            }
            k += g.leaves;
        }
    }

    /// Combines the values of lanes `u..u + B` into their partials by
    /// `op` at `ty`, as [`bin_block`] does.
    #[inline(always)]
    fn reduce<L: Lanes<V = V>, const PAIRS: bool, const B: usize>(&self, l: L, op: BinOp, ty: ScalarType, u: usize, v: [V; B]) {
        let partials = &self.regs[self.f.column as usize + u..][..B];
        let mut p = v;
        for i in 0..B {
            p[i] = partials[i].get();
        }
        let p = bin_block::<L, PAIRS, B>(l, op, ty, p, v);
        for i in 0..B {
            partials[i].set(p[i]);
        }
    }

    /// A mixed tree's lane loop over `lanes`, `B` lanes at a time, with
    /// `(stride, out_stride)` vectors per iteration in the stream and
    /// store windows: each fold, down all the lanes, evaluates its terms
    /// one after another and combines each into the value by its
    /// operator. Only the operations are const-matched ([`bin_block`]),
    /// never the tree's shape. Every window is sliced once per block.
    #[inline(always)]
    fn tree<L: Lanes<V = V>, const PAIRS: bool, const B: usize>(&mut self, l: L, shape: &Shape, elem: ScalarType, (stride, out_stride): (usize, usize), lanes: Range<usize>) {
        let mut k = 0;
        for (g, &op) in self.f.folds().iter().zip(&shape.ops) {
            let terms = &shape.terms[k..k + g.leaves];
            for u in lanes.clone().step_by(B) {
                let at = u * stride;
                let mut v = self.term::<L, PAIRS, B>(l, shape, elem, terms[0], at, stride);
                for &t in &terms[1..] {
                    let x = self.term::<L, PAIRS, B>(l, shape, elem, t, at, stride);
                    v = bin_block::<L, PAIRS, B>(l, op, elem, v, x);
                }
                match g.sink {
                    Sink::Store { at } => {
                        let out = &mut self.out[at / 16 + u * out_stride..][..out_stride * (B - 1) + 1];
                        for i in 0..B {
                            l.store(v[i], &mut out[out_stride * i]);
                        }
                    }
                    Sink::Reduce { op } => self.reduce::<L, PAIRS, B>(l, op, elem, u, v),
                    Sink::Shift { .. } => unreachable!("a mixed tree stores or reduces"),
                }
            }
            k += g.leaves;
        }
    }

    /// One term of a mixed tree for the lanes whose vectors start `at`
    /// into the stream windows.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn term<L: Lanes<V = V>, const PAIRS: bool, const B: usize>(&self, l: L, shape: &Shape, elem: ScalarType, t: Term, at: usize, stride: usize) -> [V; B] {
        let a = self.leaf(l, shape, shape.leaves[t.a as usize], at, stride);
        let Some(op) = t.op else { return a };
        let b = if t.b == t.a { a } else { self.leaf(l, shape, shape.leaves[t.b as usize], at, stride) };
        bin_block::<L, PAIRS, B>(l, op, elem, a, b)
    }

    /// One leaf of a mixed tree for the lanes whose vectors start `at`
    /// into the stream windows.
    #[inline(always)]
    fn leaf<L: Lanes<V = V>, const B: usize>(&self, l: L, shape: &Shape, leaf: Leaf, at: usize, stride: usize) -> [V; B] {
        let block = |s: u8| &self.windows[s as usize][at..][..stride * (B - 1) + 1];
        let mut v = [l.load(&[0; 16]); B];
        match leaf {
            Leaf::Stream(s) => {
                let w = block(s);
                for i in 0..B {
                    v[i] = l.load(&w[stride * i]);
                }
            }
            Leaf::Gather { a, b, table } => {
                let (pattern, lo, hi) = &shape.tables[table as usize];
                let (a, b) = (block(a), block(b));
                for i in 0..B {
                    v[i] = l.perm(l.load(&a[stride * i]), l.load(&b[stride * i]), pattern, lo, hi);
                }
            }
            Leaf::Splat(table) => v = [l.load(&shape.tables[table as usize].0); B],
        }
        v
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
