//! The one section driver every tier runs: strip-mined, a
//! superinstruction or an op at a time.
//!
//! A lowered plan is a list of [`Section`]s over one block of vector
//! registers. A section scheduled in strips runs [`Section::width`]
//! iterations per dispatch of each op or superinstruction: [`STRIP`],
//! or — a section whose every op lies in a fold of loaded streams —
//! its whole trip, one dispatch per fold for the loop. A *superinstruction*
//! ([`Super`], chosen by `lower`) is a fold of loaded streams or a
//! mixed tree. A fold of loaded streams is one lane loop over its
//! streams, [`BLOCK`] lanes at a time: it loads each fold's leaves,
//! combines them by one `BinOp` and hands the value to the fold's sink
//! — a store, a rotation shift and store, or a lane-private partial —
//! without the value ever leaving a CPU register. A mixed tree, of
//! terms over streams, two-stream gathers and splats, runs column by
//! column ([`tree`]): each term down the strip's whole column of lanes
//! into an L1-resident scratch column, each column combined into the
//! fold's by its operator, then the sink down the finished column.
//! Every other op runs as a tight loop down a register
//! *column* — lane `u` of column `c` is `regs[c + u]` and holds the
//! register's value in iteration `k0 + u`. Either way the op kind and
//! element type are matched outside the lane loop (a superinstruction
//! const-matches its operations x86 has an instruction for, as their
//! [`canonical`] `(BinOp, ScalarType)` pairs, on the tiers that run for
//! speed; its shift amounts and partial operator stay runtime values),
//! as is an op's shift amount, and each memory stream
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
//! and [`tree`] inside out-of-line entries of their own ([`Lanes::fold`]
//! dispatches), so the superinstructions' lane loops stay out of the
//! strip loop. A lane
//! loop runs on a [`FoldLanes`]: a tier's own 128-bit registers, one
//! V16 vector each, or — the AVX2 tier, for a superinstruction `lower`
//! found paired ([`Super::halves`]) — its [`Wide`] form, where one
//! 256-bit register holds both halves of an unrolled pair, so the same
//! lane loops run the first half's folds and compute both.

use super::SectionSchedule;
use crate::kernel::Op;
use crate::lanes::Reg;
use simdize_ir::{BinOp, ScalarType, UnOp};
use std::cell::{Cell, RefCell};
use std::ops::Range;

/// Iterations per op dispatch in a strip-scheduled section whose ops
/// keep values in register columns: generic column ops and mixed trees.
/// 32 lanes of 16 bytes make a column 512 bytes, so the handful of
/// columns live at once — a tree's scratch columns among them — stay in
/// L1 beside the streams, while the per-op dispatch (a few dozen cycles
/// with its slice checks) is amortized to about a cycle per lane. A
/// section of folds of loaded streams keeps its values in CPU registers
/// and runs its whole trip per dispatch instead (`lower`'s width rule);
/// what of a fold's state lives in the block — a rotation's seed lane,
/// the lane partials — still fits one column: the carry goes straight
/// to the seed ([`fold`]) and iteration `u` folds into partial lane
/// `u % STRIP` ([`Run::reduce`]).
pub(super) const STRIP: usize = 32;

/// Most streams one superinstruction folds, over all its folds.
pub(super) const MAX_LEAVES: usize = 16;

/// Lanes a superinstruction's lane loop runs at once: a fold's values
/// for all of them stay in registers, and the loop's per-stream work is
/// paid once for all of them.
const BLOCK: usize = 4;

// A block of lane partials never straddles the end of their column.
const _: () = assert!(STRIP.is_multiple_of(BLOCK));

/// Register blocks up to this size — eight columns, more than any
/// sample loop or benchmark kernel needs — live on the stack.
const STACK_REGS: usize = 8 * STRIP;

/// The vector operations one instruction tier provides.
pub(super) trait Lanes: Copy {
    /// One 128-bit register: one V16 vector, one iteration's.
    type V: Copy;
    /// Register image → register: memory loads and `vsplat`.
    fn load(self, src: &Reg) -> Self::V;
    fn store(self, v: Self::V, out: &mut Reg);
    /// `vshiftpair`: bytes `amt..amt + 16` of `a ++ b`.
    fn shift(self, a: Self::V, b: Self::V, amt: u8) -> Self::V;
    /// `vsplice`: `a` where the mask byte is `0xFF` (index below the
    /// splice point), `b` where `0x00`.
    fn splice(self, a: Self::V, b: Self::V, mask: Self::V) -> Self::V;
    /// `vperm`: byte gather from `a ++ b` by its two `pshufb` half-tables
    /// ([`perm_tables`]): `pshufb(a, lo) | pshufb(b, hi)`, where a table
    /// byte with its high bit set shuffles to zero.
    fn perm(self, a: Self::V, b: Self::V, lo: &Reg, hi: &Reg) -> Self::V;
    fn bin(self, op: BinOp, elem: ScalarType, a: Self::V, b: Self::V) -> Self::V;
    fn un(self, op: UnOp, elem: ScalarType, a: Self::V) -> Self::V;
    /// Runs a superinstruction for iterations `k0..k0 + len` ([`fold`],
    /// or [`tree`] on the thread's scratch `columns`), out of line: its
    /// lane loops stay out of the strip loop every kernel shares.
    #[allow(clippy::too_many_arguments)]
    fn fold(
        self,
        f: &Super,
        k0: i64,
        len: usize,
        elem: ScalarType,
        regs: &[Cell<Self::V>],
        mem: &mut [u8],
        columns: &mut Columns,
    );
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
    Pe: Fn(V, V, &Reg, &Reg) -> V + Copy,
    Bi: Fn(BinOp, ScalarType, V, V) -> V + Copy,
    Un: Fn(UnOp, ScalarType, V) -> V + Copy,
    Fo: Fn(&Super, i64, usize, ScalarType, &[Cell<V>], &mut [u8], &mut Columns) + Copy,
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
    fn perm(self, a: V, b: V, lo: &Reg, hi: &Reg) -> V {
        (self.perm)(a, b, lo, hi)
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
    fn fold(
        self,
        f: &Super,
        k0: i64,
        len: usize,
        elem: ScalarType,
        regs: &[Cell<V>],
        mem: &mut [u8],
        columns: &mut Columns,
    ) {
        (self.fold)(f, k0, len, elem, regs, mem, columns)
    }
}

/// What a superinstruction's lane loop ([`fold`]) computes on: a tier's
/// own [`Lanes`], one iteration's vector per register, or — AVX2 only —
/// its [`Wide`] form, both halves of an unrolled pair in one 256-bit
/// register. A paired superinstruction's second half is its first half
/// one source iteration on: each of its streams starts half the stream
/// step after the first half's and each store 16 bytes after, so lane
/// `u` of the first half's folds, run wide, computes both.
pub(super) trait FoldLanes: Copy {
    /// What the lane loop computes on.
    type W: Copy;
    /// A register of the block: a rotation's seed lane, a lane partial.
    type V: Copy;
    /// Whether `W` holds both halves of an unrolled pair: the lane loop
    /// then runs the first half's folds over the first half's streams.
    const WIDE: bool;
    /// The vector `w[0]` of a stream window — wide, with the second
    /// half's, `w[half]`, in the upper half.
    fn read(self, w: &[Reg], half: usize) -> Self::W;
    /// A register image, in each half.
    fn splat(self, src: &Reg) -> Self::W;
    /// Stores `v` at `out[0]` — wide, its upper half at `out[1]`.
    fn write(self, v: Self::W, out: &mut [Reg]);
    /// [`Lanes::perm`], half by half.
    fn gather(self, a: Self::W, b: Self::W, lo: &Reg, hi: &Reg) -> Self::W;
    /// [`Lanes::bin`], half by half.
    fn combine(self, op: BinOp, elem: ScalarType, a: Self::W, b: Self::W) -> Self::W;
    /// What a rotation shift reads beside `cur` when the previous lane
    /// held `prev`: `prev` itself, or — wide — `prev`'s upper half below
    /// `cur`'s lower one (`vperm2i128`), so each half shifts in the
    /// vector one iteration before it.
    fn prev(self, prev: Self::W, cur: Self::W) -> Self::W;
    /// A block register as a lane-loop value (a rotation's seed lane: in
    /// the upper half, wide), and back (wide: the upper half).
    fn lift(self, r: Self::V) -> Self::W;
    fn last(self, v: Self::W) -> Self::V;
    /// `partial = op(partial, v)` at `elem` — wide, `v`'s two halves
    /// first folded into one by `op`, which reassociates.
    fn reduce(self, op: BinOp, elem: ScalarType, partial: Self::V, v: Self::W) -> Self::V;
}

/// A tier's [`Lanes`] as the lane loop runs them: one iteration per
/// register.
impl<L: Lanes> FoldLanes for L {
    type W = <L as Lanes>::V;
    type V = <L as Lanes>::V;
    const WIDE: bool = false;
    #[inline(always)]
    fn read(self, w: &[Reg], _: usize) -> Self::W {
        self.load(&w[0])
    }
    #[inline(always)]
    fn splat(self, src: &Reg) -> Self::W {
        self.load(src)
    }
    #[inline(always)]
    fn write(self, v: Self::W, out: &mut [Reg]) {
        self.store(v, &mut out[0])
    }
    #[inline(always)]
    fn gather(self, a: Self::W, b: Self::W, lo: &Reg, hi: &Reg) -> Self::W {
        self.perm(a, b, lo, hi)
    }
    #[inline(always)]
    fn combine(self, op: BinOp, elem: ScalarType, a: Self::W, b: Self::W) -> Self::W {
        self.bin(op, elem, a, b)
    }
    #[inline(always)]
    fn prev(self, prev: Self::W, _: Self::W) -> Self::W {
        prev
    }
    #[inline(always)]
    fn lift(self, r: Self::V) -> Self::W {
        r
    }
    #[inline(always)]
    fn last(self, v: Self::W) -> Self::V {
        v
    }
    #[inline(always)]
    fn reduce(self, op: BinOp, elem: ScalarType, partial: Self::V, v: Self::W) -> Self::V {
        self.bin(op, elem, partial, v)
    }
}

/// A tier's wide form ([`FoldLanes`]) as a bundle of closures, for the
/// reason [`Tier`] is one: loads and stores of its two halves, each in
/// the tier's [`Lanes::V`], and the operations on both at once. The
/// windows are sliced here, so every bounds check stays in the lane
/// loop, where the window's length lets it fold away.
#[derive(Clone, Copy)]
pub(super) struct Wide<Rd, Sp, Wr, Ga, Co, Pr, Li, Ha, Bi> {
    pub(super) read: Rd,
    pub(super) splat: Sp,
    pub(super) write: Wr,
    pub(super) gather: Ga,
    pub(super) combine: Co,
    pub(super) prev: Pr,
    /// A register in both halves, and the two halves of a value.
    pub(super) lift: Li,
    pub(super) halves: Ha,
    /// [`Lanes::bin`] on one half.
    pub(super) bin: Bi,
}

impl<W, V, Rd, Sp, Wr, Ga, Co, Pr, Li, Ha, Bi> FoldLanes
    for Wide<Rd, Sp, Wr, Ga, Co, Pr, Li, Ha, Bi>
where
    W: Copy,
    V: Copy,
    Rd: Fn(&Reg, &Reg) -> W + Copy,
    Sp: Fn(&Reg) -> W + Copy,
    Wr: Fn(W, &mut [u8; 32]) + Copy,
    Ga: Fn(W, W, &Reg, &Reg) -> W + Copy,
    Co: Fn(BinOp, ScalarType, W, W) -> W + Copy,
    Pr: Fn(W, W) -> W + Copy,
    Li: Fn(V) -> W + Copy,
    Ha: Fn(W) -> (V, V) + Copy,
    Bi: Fn(BinOp, ScalarType, V, V) -> V + Copy,
{
    type W = W;
    type V = V;
    const WIDE: bool = true;
    #[inline(always)]
    fn read(self, w: &[Reg], half: usize) -> W {
        (self.read)(&w[0], &w[half])
    }
    #[inline(always)]
    fn splat(self, src: &Reg) -> W {
        (self.splat)(src)
    }
    #[inline(always)]
    fn write(self, v: W, out: &mut [Reg]) {
        (self.write)(
            v,
            out[..2].as_flattened_mut().try_into().expect("two vectors"),
        )
    }
    #[inline(always)]
    fn gather(self, a: W, b: W, lo: &Reg, hi: &Reg) -> W {
        (self.gather)(a, b, lo, hi)
    }
    #[inline(always)]
    fn combine(self, op: BinOp, elem: ScalarType, a: W, b: W) -> W {
        (self.combine)(op, elem, a, b)
    }
    #[inline(always)]
    fn prev(self, prev: W, cur: W) -> W {
        (self.prev)(prev, cur)
    }
    #[inline(always)]
    fn lift(self, r: V) -> W {
        (self.lift)(r)
    }
    #[inline(always)]
    fn last(self, v: W) -> V {
        (self.halves)(v).1
    }
    #[inline(always)]
    fn reduce(self, op: BinOp, elem: ScalarType, partial: V, v: W) -> V {
        let (lo, hi) = (self.halves)(v);
        (self.bin)(op, elem, partial, (self.bin)(op, elem, lo, hi))
    }
}

/// Vectors from a first-half vector of a stream to the second half's,
/// for a lane loop reading `stride` vectors per lane: half the stride
/// wide, and none otherwise.
#[inline(always)]
fn half<L: FoldLanes>(stride: usize) -> usize {
    if L::WIDE {
        stride / 2
    } else {
        0
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
    /// Each gather's two tables ([`perm_tables`]), each splat's register
    /// image (and zeros).
    pub(crate) tables: Vec<(Reg, Reg)>,
}

/// A superinstruction: a contiguous run of a strip section's ops —
/// folds, each into a [`Sink`], of loaded streams by one `BinOp` or, in
/// a *mixed tree*, of terms over streams, two-stream gathers and splats
/// — that the strip driver runs as one lane loop, every intermediate
/// value in a CPU register, or a mixed tree as a few loops down its
/// strip's columns (DESIGN §11.4).
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
    /// Rotation shifts only: each fold's shift as the two tables
    /// ([`perm_tables`]) of its amount's `vperm` pattern — one
    /// instruction sequence for every amount, so the lane loop holds no
    /// jump table.
    pub(crate) shifts: [(Reg, Reg); 2],
    /// The register the sinks keep across lanes: a rotation's seed lane
    /// (the carry; its source's column follows it) or a reduction's
    /// accumulator column. `NO_REG` for stores.
    pub(crate) column: u32,
    /// A mixed tree's shape, its folds counting terms; `None` for folds
    /// of loaded streams, whose folds count streams.
    pub(crate) tree: Option<Shape>,
    /// When the folds split into an unrolled pair's two matching halves
    /// ([`FoldLanes`]), the streams the first half reads, one bit each —
    /// the AVX2 tier then runs both halves in 256-bit registers; 0
    /// otherwise.
    pub(crate) halves: u16,
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
    /// [`STRIP`], the section's trip for one whose every op lies in a
    /// fold of loaded streams (one strip for the loop), or 1 for the
    /// sequential schedule.
    pub(super) width: usize,
    /// Strip sections only: columns the section reads but never
    /// writes. Their lane 0 is broadcast down the column on entry.
    pub(super) invariant: Vec<u32>,
    /// Strip sections only: columns the section's lone ops write, and
    /// of a superinstruction's values only one a later section reads (a
    /// rotation's source). The last iteration's lane is copied to lane 0
    /// on exit, where sequential code looks for it.
    pub(super) written: Vec<u32>,
    /// Strip sections only: rotation chains as `(c, d)`, a column at
    /// `c + d` behind `d` seed lanes. After each strip its last `d`
    /// lanes move onto the seeds — but in a section run whole, where
    /// each chain's fold puts its carry on the seed itself.
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
                ScalarType::I8,
                ScalarType::U8,
                ScalarType::I16,
                ScalarType::U16,
                ScalarType::I32,
                ScalarType::U32,
                ScalarType::I64,
                ScalarType::U64
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

/// Expands `$body` once per [`canonical`] `(BinOp, ScalarType)` pair x86
/// has an instruction for — 25 of 31 — with `$o` and `$t` bound to the
/// pair `($op, $elem)` computes as, and once for the rest at runtime.
macro_rules! with_canonical {
    ($op:expr, $elem:expr, |$o:ident, $t:ident| $body:expr) => {
        with_canonical!(@ $op, $elem, |$o, $t| $body,
            (Add I8) (Add I16) (Add I32) (Add I64) (Sub I8) (Sub I16) (Sub I32) (Sub I64)
            (Mul I16) (Mul I32) (And U8) (Or U8) (Xor U8)
            (Min I8) (Min U8) (Min I16) (Min U16) (Min I32) (Min U32)
            (Max I8) (Max U8) (Max I16) (Max U16) (Max I32) (Max U32))
    };
    (@ $op:expr, $elem:expr, |$o:ident, $t:ident| $body:expr, $(($c:ident $ty:ident))+) => {{
        let op: BinOp = $op;
        match (op, canonical(op, $elem)) {
            $((BinOp::$c, ScalarType::$ty) => {
                let ($o, $t) = (BinOp::$c, ScalarType::$ty);
                $body
            })+
            ($o, $t) => $body,
        }
    }};
}

/// The mask [`Lanes::splice`] takes for a splice at `point`.
pub(super) fn splice_mask(point: u8) -> Reg {
    std::array::from_fn(|i| if i < point as usize { 0xFF } else { 0x00 })
}

/// The two `pshufb` half-tables [`Lanes::perm`] takes for the 0..32
/// selector `pattern`: the selector where it picks from `a`, and the
/// selector − 16 where it picks from `b`, `0x80` (shuffle to zero) in
/// the other table.
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
fn one<L: Lanes>(
    l: L,
    op: &Op,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<L::V>],
    mem: &mut [u8],
) {
    let col = |c: u32| &regs[c as usize..][..len];
    let lane = |first: i64, step: i64, u: usize| (first + u as i64 * step) as usize;
    match *op {
        Op::Load {
            dst, start, step, ..
        }
        | Op::LoadFused {
            dst, start, step, ..
        } => {
            let (w, first) = window(start, step, k0, len);
            let w = &mem[w];
            for (u, d) in col(dst).iter().enumerate() {
                d.set(l.load(chunk(w, lane(first, step, u))));
            }
        }
        Op::Store {
            src, start, step, ..
        } => {
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
        Op::Perm {
            dst,
            a,
            b,
            ref pattern,
        } => {
            let (lo, hi) = perm_tables(pattern);
            map2(col(dst), col(a), col(b), |x, y| l.perm(x, y, &lo, &hi));
        }
        Op::Splat { dst, ref bytes } => {
            let v = l.load(bytes);
            col(dst).iter().for_each(|d| d.set(v));
        }
        Op::Bin { dst, op, a, b } => with_canonical!(op, elem, |op, ty| {
            map2(col(dst), col(a), col(b), |x, y| l.bin(op, ty, x, y))
        }),
        Op::BinSplat {
            dst,
            op,
            a,
            ref imm,
            imm_left,
        } => {
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

/// Runs superinstruction `f` for iterations `k0..k0 + len`: what a
/// tier's [`Lanes::fold`] runs in a function of its own, one per
/// register form, for every superinstruction but a mixed tree ([`tree`]).
/// The lane loop runs [`BLOCK`] lanes at a time. `PAIRS` tiers — the
/// ones a host dispatches for speed — const-match each operation x86
/// has an instruction for, as its [`canonical`] pair: a lane loop each.
/// The others, like the lanes left over (only a section's last strip
/// has any), run one loop with the pair a runtime value, which keeps
/// the binary, and with it the resident set, small.
/// Run wide ([`FoldLanes::WIDE`]), the lane loop runs the first half of
/// a paired superinstruction's folds over the streams they read
/// ([`Super::halves`]), each stream window reaching on to the second
/// half's last vector.
#[inline(always)]
pub(super) fn fold<L: FoldLanes, const PAIRS: bool>(
    l: L,
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<L::V>],
    mem: &mut [u8],
) {
    let folds = if L::WIDE {
        &f.folds()[..f.used.1 / 2]
    } else {
        f.folds()
    };
    let mut windows: [&[Reg]; MAX_LEAVES] = [&[]; MAX_LEAVES];
    let (out, _) = split::<L>(f, k0, len, mem, &mut windows);
    let carry = regs
        .get(f.column as usize)
        .map_or_else(|| l.splat(&[0; 16]), |seed| l.lift(seed.get()));
    let mut run = Run {
        f,
        folds,
        stride: f.step as usize / 16,
        windows: &windows[..f.used.0],
        out,
        regs,
        carry,
    };
    if L::WIDE {
        // Paired folds of loaded streams step 32 bytes (`lower`): as a
        // constant, each wide read is 32 contiguous bytes.
        debug_assert_eq!(
            run.stride, 2,
            "a paired fold of loaded streams steps two vectors"
        );
        run.stride = 2;
    }
    let blocked = len - len % BLOCK;
    let op = f.op;
    if PAIRS {
        with_canonical!(op, elem, |op, ty| run.lanes::<BLOCK>(
            l,
            op,
            ty,
            elem,
            0..blocked
        ));
    } else {
        run.lanes::<BLOCK>(l, op, elem, elem, 0..blocked);
    }
    run.lanes::<1>(l, op, elem, elem, blocked..len);
    if let Some(Fold {
        sink: Sink::Shift { .. },
        ..
    }) = folds.last()
    {
        // A strip's carry goes to its source's last lane, where `reseed`
        // and the written copy find it. A section run whole has no such
        // lane inside the column: its carry goes straight to the seed.
        let lane = if len > STRIP { 0 } else { len };
        regs[f.column as usize + lane].set(l.last(run.carry));
    }
}

/// Runs mixed tree `f` for iterations `k0..k0 + len` ([`Run::tree`]) on
/// the thread's scratch `columns`: [`fold`] for the tiers' other entry,
/// kept apart so each has a frame and registers of its own.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) fn tree<L: FoldLanes, const PAIRS: bool>(
    l: L,
    f: &Super,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<L::V>],
    mem: &mut [u8],
    columns: &mut Columns,
) {
    let folds = if L::WIDE {
        &f.folds()[..f.used.1 / 2]
    } else {
        f.folds()
    };
    let mut windows: [&[Reg]; MAX_LEAVES] = [&[]; MAX_LEAVES];
    let (out, out_stride) = split::<L>(f, k0, len, mem, &mut windows);
    let carry = l.splat(&[0; 16]);
    let mut run = Run {
        f,
        folds,
        stride: f.step as usize / 16,
        windows: &windows[..f.used.0],
        out,
        regs,
        carry,
    };
    let shape = f.tree.as_ref().expect("a mixed tree's shape");
    run.tree::<PAIRS>(l, shape, elem, (run.stride, out_stride), len, columns);
}

/// The windows superinstruction `f` reads and writes in iterations
/// `k0..k0 + len`: the store window — returned with its vectors per
/// iteration — split off the image first, so every load window, set in
/// `windows`, is a shared slice beside it (`lower` keeps loads off the
/// stored array).
#[inline(always)]
fn split<'a, L: FoldLanes>(
    f: &Super,
    k0: i64,
    len: usize,
    mem: &'a mut [u8],
    windows: &mut [&'a [Reg]; MAX_LEAVES],
) -> (&'a mut [Reg], usize) {
    let reach = if L::WIDE { f.step as usize / 2 } else { 0 };
    let span = |step: i64| (len - 1) * step as usize + 16;
    let at = |start: i64, step: i64| (start + k0 * step) as usize;
    let (lo, hi, out_step) = match f.store {
        Some((start, reach, step)) => (at(start, step), at(start, step) + reach + span(step), step),
        None => (mem.len(), mem.len(), f.step),
    };
    let (head, rest) = mem.split_at_mut(lo);
    let (out, tail) = rest.split_at_mut(hi - lo);
    for (s, (w, &start)) in windows.iter_mut().zip(f.loads()).enumerate() {
        if L::WIDE && f.halves & 1 << s == 0 {
            continue;
        }
        let first = at(start, f.step);
        let span = span(f.step) + reach;
        *w = if first < lo {
            &head[first..][..span]
        } else {
            &tail[first - hi..][..span]
        }
        .as_chunks()
        .0;
    }
    (out.as_chunks_mut().0, out_step as usize / 16)
}

/// A mixed tree's scratch: three adjacent columns of [`STRIP`] lanes,
/// one vector a lane — two when run wide ([`FoldLanes::WIDE`]) — that
/// may start at any cache line of the first page ([`Run::tree`] picks
/// it). Cache-line aligned, so no 32-byte lane straddles two lines.
#[repr(align(64))]
pub(super) struct Columns([Reg; PAGE / 16 + 3 * COLUMN]);

/// Vectors in one scratch column.
const COLUMN: usize = 2 * STRIP;

/// The span of address bits a load is matched against older stores by
/// before its full address is known: a load whose bytes sit a multiple
/// of it from a store in flight waits for that store (4K aliasing).
const PAGE: usize = 4096;

thread_local! {
    /// The calling thread's [`Columns`], lent to each run whole: kept
    /// beside the thread rather than in a run's frame, so no run zeroes
    /// 7 KB that only a mixed tree reads, and no strip zeroes what it is
    /// about to overwrite.
    pub(super) static COLUMNS: RefCell<Columns> = const { RefCell::new(Columns([[0; 16]; PAGE / 16 + 3 * COLUMN])) };
}

/// One step of a mixed tree ([`Run::tree`]), on its columns by index.
#[derive(Clone, Copy)]
enum Step {
    /// A term of streams and gathers down column `.1`.
    Term(Term, usize),
    /// A leaf down column `.1`.
    Leaf(Leaf, usize),
    /// `d = op(a, b)` down columns `(d, a, b)`.
    Bin(BinOp, [usize; 3]),
}

/// `vperm` tables that pass a vector through: what a stream leaf reads
/// as, so a lane loop reads every stream and gather leaf one way.
const IDENTITY: (Reg, Reg) = (
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [0x80; 16],
);

/// A stream or gather leaf of a mixed tree ([`Source::new`]): lane `u`
/// is `vperm` of its two windows' vectors `u · stride` on, by `lo` and
/// `hi`.
#[derive(Clone, Copy)]
struct Source<'w> {
    a: &'w [Reg],
    b: &'w [Reg],
    lo: Reg,
    hi: Reg,
}

impl<'w> Source<'w> {
    /// Stream or gather leaf `j` as a lane loop reads it: its two
    /// windows and its tables — a stream's the identity.
    #[inline(always)]
    fn new(windows: &[&'w [Reg]], shape: &Shape, j: u8) -> Self {
        let (a, b, (lo, hi)) = match shape.leaves[j as usize] {
            Leaf::Stream(s) => (windows[s as usize], windows[s as usize], IDENTITY),
            Leaf::Gather { a, b, table } => (
                windows[a as usize],
                windows[b as usize],
                shape.tables[table as usize],
            ),
            Leaf::Splat(_) => unreachable!("a splat term runs a leaf at a time"),
        };
        Source { a, b, lo, hi }
    }

    /// The windows cut to the first `len` lanes at `stride` vectors a
    /// lane, each lane reading a vector and the one `half` on.
    #[inline(always)]
    fn cut(self, len: usize, stride: usize, half: usize) -> Self {
        let span = stride * (len - 1) + 1 + half;
        Source {
            a: &self.a[..span],
            b: &self.b[..span],
            ..self
        }
    }
}

/// A term of streams and gathers down column `d` as one lane loop: `op`
/// of leaves `x` and `y` — `op(x, x)` without `y`, `x` without `op` —
/// const-matched on the [`canonical`] pair when `PAIRS`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn term_column<L: FoldLanes, const PAIRS: bool>(
    l: L,
    op: Option<BinOp>,
    elem: ScalarType,
    x: Source,
    y: Option<Source>,
    stride: usize,
    d: &mut [Reg],
) {
    let n = 1 + L::WIDE as usize;
    let (d, half) = (d.chunks_exact_mut(n), half::<L>(stride));
    let len = d.len();
    let (x, y) = (
        x.cut(len, stride, half),
        y.map(|y| y.cut(len, stride, half)),
    );
    // A macro, not a closure: a closure defined here would not carry
    // the tier's target features, and each `gather` in it would be a call.
    macro_rules! leaf {
        ($s:expr, $u:expr) => {
            l.gather(
                l.read(&$s.a[stride * $u..], half),
                l.read(&$s.b[stride * $u..], half),
                &$s.lo,
                &$s.hi,
            )
        };
    }
    let Some(op) = op else {
        for (u, d) in d.enumerate() {
            l.write(leaf!(x, u), d);
        }
        return;
    };
    macro_rules! column {
        ($op:expr, $ty:expr) => {
            match y {
                Some(y) => {
                    for (u, d) in d.enumerate() {
                        l.write(l.combine($op, $ty, leaf!(x, u), leaf!(y, u)), d);
                    }
                }
                None => {
                    for (u, d) in d.enumerate() {
                        let v = leaf!(x, u);
                        l.write(l.combine($op, $ty, v, v), d);
                    }
                }
            }
        };
    }
    if PAIRS {
        with_canonical!(op, elem, |op, ty| column!(op, ty));
    } else {
        column!(op, elem);
    }
}

/// `cols[d] = op(cols[a], cols[b])` down a mixed tree's columns — in
/// place when `d` is `a` — as one lane loop, const-matched on the
/// [`canonical`] pair when `PAIRS`, the pair a runtime value otherwise.
#[inline(always)]
fn bin_column<L: FoldLanes, const PAIRS: bool>(
    l: L,
    op: BinOp,
    elem: ScalarType,
    cols: &mut [&mut [Reg]; 4],
    [d, a, b]: [usize; 3],
) {
    let n = 1 + L::WIDE as usize;
    let (d, a, b) = match cols.get_disjoint_mut([d, a, b]) {
        Ok([d, a, b]) => (
            d.chunks_exact_mut(n),
            Some(a.chunks_exact(n)),
            b.chunks_exact(n),
        ),
        Err(_) => {
            let [d, b] = cols
                .get_disjoint_mut([d, b])
                .expect("an in-place step reads another column");
            (d.chunks_exact_mut(n), None, b.chunks_exact(n))
        }
    };
    macro_rules! column {
        ($op:expr, $ty:expr) => {
            match a {
                Some(a) => {
                    for ((d, a), b) in d.zip(a).zip(b) {
                        l.write(l.combine($op, $ty, l.read(a, 1), l.read(b, 1)), d);
                    }
                }
                None => {
                    for (d, b) in d.zip(b) {
                        l.write(l.combine($op, $ty, l.read(d, 1), l.read(b, 1)), d);
                    }
                }
            }
        };
    }
    if PAIRS {
        with_canonical!(op, elem, |op, ty| column!(op, ty));
    } else {
        column!(op, elem);
    }
}

/// What [`fold`]'s lane loop reads and writes.
struct Run<'a, L: FoldLanes> {
    f: &'a Super,
    /// The folds the lane loop runs: all of them, or the first half's
    /// when it runs wide.
    folds: &'a [Fold],
    /// Vectors per iteration: lane `u` of a window is its vector
    /// `u · stride`.
    stride: usize,
    windows: &'a [&'a [Reg]],
    out: &'a mut [Reg],
    regs: &'a [Cell<L::V>],
    /// A rotation's last value: its seed lane on entry, its source's
    /// last lane on exit — what the next strip's seed and the code after
    /// the loop read.
    carry: L::W,
}

impl<'a, L: FoldLanes> Run<'a, L> {
    /// The values of the fold whose leaves are the windows from `k` on,
    /// for the lanes whose vectors are `off` vectors into them: its
    /// streams, each window sliced once for the block, loaded and
    /// combined one after another, every lane's value in a register.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn values<const B: usize>(
        &self,
        l: L,
        op: BinOp,
        ty: ScalarType,
        k: usize,
        leaves: usize,
        off: &[usize; B],
    ) -> [L::W; B] {
        let (stride, half) = (self.stride, half::<L>(self.stride));
        let span = stride * (B - 1) + 1 + half;
        let mut v = [l.splat(&[0; 16]); B];
        let w = &self.windows[k][off[0]..][..span];
        for i in 0..B {
            v[i] = l.read(&w[stride * i..], half);
        }
        for w in &self.windows[k + 1..k + leaves] {
            let w = &w[off[0]..][..span];
            for i in 0..B {
                v[i] = l.combine(op, ty, v[i], l.read(&w[stride * i..], half));
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
    fn lanes<const B: usize>(
        &mut self,
        l: L,
        op: BinOp,
        ty: ScalarType,
        elem: ScalarType,
        lanes: Range<usize>,
    ) {
        let (f, stride) = (self.f, self.stride);
        let offsets = |u: usize| -> [usize; B] { std::array::from_fn(|i| (u + i) * stride) };
        if let [Fold {
            leaves,
            sink: Sink::Shift { at, .. },
            ..
        }, ref rest @ ..] = self.folds[..]
        {
            let (at, span) = (at / 16, stride * (B - 1) + 1 + L::WIDE as usize);
            let (lo, hi) = &f.shifts[0];
            for u in lanes.step_by(B) {
                let off = offsets(u);
                let x = self.values(l, op, ty, 0, leaves, &off);
                // Wide, a rotation's second fold is the upper half.
                let Some(&Fold {
                    leaves: y_leaves,
                    sink: Sink::Shift { at: at_y, .. },
                    ..
                }) = rest.first().filter(|_| !L::WIDE)
                else {
                    let out = &mut self.out[at + off[0]..][..span];
                    for i in 0..B {
                        let prev = if i == 0 { self.carry } else { x[i - 1] };
                        l.write(
                            l.gather(l.prev(prev, x[i]), x[i], lo, hi),
                            &mut out[stride * i..],
                        );
                    }
                    self.carry = x[B - 1];
                    continue;
                };
                let (y, at_y) = (self.values(l, op, ty, leaves, y_leaves, &off), at_y / 16);
                let (lo_y, hi_y) = &f.shifts[1];
                for i in 0..B {
                    let prev = if i == 0 { self.carry } else { y[i - 1] };
                    l.write(l.gather(prev, x[i], lo, hi), &mut self.out[at + off[i]..]);
                    l.write(
                        l.gather(x[i], y[i], lo_y, hi_y),
                        &mut self.out[at_y + off[i]..],
                    );
                }
                self.carry = y[B - 1];
            }
            return;
        }
        // The sink is matched outside the lane loop: inside it, the
        // partial's path kept every lane's value on the stack, and the
        // stores' loop paid for it.
        let mut k = 0;
        for g in self.folds {
            let (lanes, leaves) = (lanes.clone().step_by(B), g.leaves);
            match g.sink {
                Sink::Store { at } => {
                    for u in lanes {
                        let off = offsets(u);
                        let v = self.values(l, op, ty, k, leaves, &off);
                        let out = &mut self.out[at / 16 + off[0]..]
                            [..stride * (B - 1) + 1 + L::WIDE as usize];
                        for i in 0..B {
                            l.write(v[i], &mut out[stride * i..]);
                        }
                    }
                }
                // A partial combines at `ty` where that computes as `elem`.
                Sink::Reduce { op: by } if canonical(by, ty) == canonical(by, elem) => {
                    for u in lanes {
                        let v = self.values(l, op, ty, k, leaves, &offsets(u));
                        self.reduce::<B>(l, by, ty, u, v);
                    }
                }
                Sink::Reduce { op: by } => {
                    for u in lanes {
                        let v = self.values(l, op, ty, k, leaves, &offsets(u));
                        self.reduce::<B>(l, by, elem, u, v);
                    }
                }
                Sink::Shift { .. } => unreachable!("a rotation's folds all shift"),
            }
            k += leaves;
        }
    }

    /// Combines the values of lanes `u..u + B` into their partials by
    /// `op` at `ty`: lane `u`'s is lane `u % STRIP` of the accumulator's
    /// column, the lane iteration `u` of a strip takes, so a section run
    /// whole folds each iteration into the partial it would in strips.
    #[inline(always)]
    fn reduce<const B: usize>(&self, l: L, op: BinOp, ty: ScalarType, u: usize, v: [L::W; B]) {
        let partials = &self.regs[self.f.column as usize + u % STRIP..][..B];
        let mut p = [partials[0].get(); B];
        for i in 0..B {
            p[i] = partials[i].get();
        }
        for i in 0..B {
            p[i] = l.reduce(op, ty, p[i], v[i]);
        }
        for i in 0..B {
            partials[i].set(p[i]);
        }
    }

    /// A mixed tree over the strip's `len` lanes, column by column, with
    /// `(stride, out_stride)` vectors per iteration in the stream and
    /// store windows. Each fold builds its value in scratch column 0:
    /// its first term there, each later one in column 1 and then
    /// combined into 0 by the fold's operator (a splat term's second
    /// leaf goes to column 2). A store laid out as a column is takes the
    /// fold's last step straight into its window, column 3. Each
    /// [`Step`] runs down the whole column, so its operation is
    /// const-matched once per column, and the tree's shape stays data.
    /// Then the sink, if any is left, runs down the finished column.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tree<const PAIRS: bool>(
        &mut self,
        l: L,
        shape: &Shape,
        elem: ScalarType,
        (stride, out_stride): (usize, usize),
        len: usize,
        columns: &mut Columns,
    ) {
        let (n, windows) = (1 + L::WIDE as usize, self.windows);
        let mut k = 0;
        for (g, &op) in self.folds.iter().zip(&shape.ops) {
            let terms = &shape.terms[k..k + g.leaves];
            let (direct, out) = match g.sink {
                Sink::Store { at } if out_stride == n => {
                    (true, &mut self.out[at / 16..][..n * len])
                }
                _ => (false, &mut [][..]),
            };
            // The last pass reads columns 0 and 1 at the pace it stores
            // the window: half a page from it, no load of theirs waits
            // on a store still in flight.
            let half_page =
                (out.as_ptr() as usize + PAGE / 2).wrapping_sub(columns.0.as_ptr() as usize);
            let at = half_page % PAGE / 64 * 4;
            let (v, rest) = columns.0[at..][..3 * COLUMN].split_at_mut(COLUMN);
            let (x, y) = rest.split_at_mut(COLUMN);
            let [v, x, y] = [v, x, y].map(|c| &mut c[..n * len]);
            let mut cols = [v, x, y, out];
            for (i, t) in terms.iter().enumerate() {
                let last = if direct && i + 1 == terms.len() { 3 } else { 0 };
                let c = if i == 0 { last } else { 1 };
                // A term over streams and gathers runs as one lane loop;
                // one with a splat, a leaf at a time.
                let splat = matches!(shape.leaves[t.a as usize], Leaf::Splat(_))
                    || t.op.is_some() && matches!(shape.leaves[t.b as usize], Leaf::Splat(_));
                let steps = [
                    (!splat).then_some(Step::Term(*t, c)),
                    splat.then_some(Step::Leaf(shape.leaves[t.a as usize], c)),
                    t.op.filter(|_| splat)
                        .map(|_| Step::Leaf(shape.leaves[t.b as usize], 2)),
                    t.op.filter(|_| splat).map(|by| Step::Bin(by, [c, c, 2])),
                    (i > 0).then_some(Step::Bin(op, [last, 0, 1])),
                ];
                for step in steps.into_iter().flatten() {
                    match step {
                        Step::Term(t, c) => {
                            let (x, y) = (
                                Source::new(windows, shape, t.a),
                                (t.b != t.a).then(|| Source::new(windows, shape, t.b)),
                            );
                            let d = &mut *cols[c];
                            // A gather's strides as constants (a stride-2
                            // pack's, in a body and in its unrolled pair):
                            // the lane loop then keeps its windows in
                            // registers.
                            match stride {
                                2 if PAIRS && !L::WIDE => {
                                    term_column::<L, PAIRS>(l, t.op, elem, x, y, 2, d)
                                }
                                4 if PAIRS => term_column::<L, PAIRS>(l, t.op, elem, x, y, 4, d),
                                _ => term_column::<L, PAIRS>(l, t.op, elem, x, y, stride, d),
                            }
                        }
                        Step::Leaf(leaf, c) => {
                            leaf_column(l, windows, shape, leaf, stride, cols[c])
                        }
                        Step::Bin(op, at) => bin_column::<L, PAIRS>(l, op, elem, &mut cols, at),
                    }
                }
            }
            let v = columns.0[at..][..n * len].chunks_exact(n);
            match g.sink {
                Sink::Store { .. } if direct => {}
                Sink::Store { at } => {
                    let out = &mut self.out[at / 16..][..out_stride * (len - 1) + n];
                    for (out, v) in out.chunks_mut(out_stride).zip(v) {
                        l.write(l.read(v, 1), out);
                    }
                }
                Sink::Reduce { op } => {
                    let partials = &self.regs[self.f.column as usize..][..len];
                    if PAIRS {
                        with_canonical!(op, elem, |op, ty| for (p, v) in partials.iter().zip(v) {
                            p.set(l.reduce(op, ty, p.get(), l.read(v, 1)));
                        });
                    } else {
                        for (p, v) in partials.iter().zip(v) {
                            p.set(l.reduce(op, elem, p.get(), l.read(v, 1)));
                        }
                    }
                }
                Sink::Shift { .. } => unreachable!("a mixed tree stores or reduces"),
            }
            k += g.leaves;
        }
    }
}

/// One leaf of a mixed tree down column `d`, each window sliced once
/// for the column: the path of a term with a splat.
#[inline(always)]
fn leaf_column<L: FoldLanes>(
    l: L,
    windows: &[&[Reg]],
    shape: &Shape,
    leaf: Leaf,
    stride: usize,
    d: &mut [Reg],
) {
    let (n, half) = (1 + L::WIDE as usize, half::<L>(stride));
    let d = d.chunks_exact_mut(n);
    let span = stride * (d.len() - 1) + 1 + half;
    let lanes = |s: u8| {
        windows[s as usize][..span]
            .windows(1 + half)
            .step_by(stride)
    };
    match leaf {
        Leaf::Stream(s) => {
            for (d, w) in d.zip(lanes(s)) {
                l.write(l.read(w, half), d);
            }
        }
        Leaf::Gather { a, b, table } => {
            let (lo, hi) = &shape.tables[table as usize];
            for ((d, a), b) in d.zip(lanes(a)).zip(lanes(b)) {
                l.write(l.gather(l.read(a, half), l.read(b, half), lo, hi), d);
            }
        }
        Leaf::Splat(table) => {
            let v = l.splat(&shape.tables[table as usize].0);
            d.for_each(|d| l.write(v, d));
        }
    }
}

/// Runs `s` for iterations `k0..k0 + len`: the ops before each
/// superinstruction one by one, then the superinstruction.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strip<L: Lanes>(
    l: L,
    s: &Section,
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<L::V>],
    mem: &mut [u8],
    columns: &mut Columns,
) {
    let mut at = 0;
    for i in 0..=s.supers.len() {
        let f = s.supers.get(i);
        for op in &s.ops[at..f.map_or(s.ops.len(), |f| f.ops.start)] {
            one(l, op, k0, len, elem, regs, mem);
        }
        if let Some(f) = f {
            l.fold(f, k0, len, elem, regs, mem, columns);
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
pub(super) fn run<L: Lanes>(l: L, program: &Program, mem: &mut [u8], columns: &mut Columns) {
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
            regs[*c as usize + 1..][..STRIP - 1]
                .iter()
                .for_each(|lane| lane.set(identity));
        }
        // A section run whole keeps its rotations' carries in their
        // seed lanes ([`fold`]).
        let seeds = if s.width > STRIP { &[][..] } else { &s.seeds };
        let mut k = 0;
        while k < s.iters {
            let len = (s.iters - k).min(s.width as i64) as usize;
            // Two instantiations of one routine: with the length a
            // constant the lane loops fold away, so the sequential
            // schedule pays for no strip machinery.
            if len == 1 {
                strip(l, s, k, 1, program.elem, regs, mem, columns);
            } else {
                strip(l, s, k, len, program.elem, regs, mem, columns);
            }
            if !seeds.is_empty() {
                reseed(regs, seeds, len);
            }
            k += len as i64;
        }
        let last = ((s.iters - 1) % s.width as i64) as usize;
        for &c in &s.written {
            regs[c as usize].set(regs[c as usize + last].get());
        }
        for &(c, op, _) in &s.partials {
            let column = &regs[c as usize..][..STRIP];
            let total = column[1..].iter().fold(column[0].get(), |acc, lane| {
                l.bin(op, program.elem, acc, lane.get())
            });
            column[0].set(total);
        }
    }
}
