//! The one section driver every tier runs: strip-mined,
//! column-at-a-time.
//!
//! A lowered plan is a list of [`Section`]s over one block of vector
//! registers. A section scheduled in strips dispatches each op once
//! per [`STRIP`] iterations and runs it as a tight loop down a register
//! *column* — lane `u` of column `c` is `regs[c + u]` and holds the
//! register's value in iteration `k0 + u` — with the op kind, element
//! type and shift amount all matched outside that loop. Everything
//! else (prologue, headers, epilogue, loops the legality check in
//! `lower` refused) goes through the same routine one iteration at a
//! time, so a strip of length 1 *is* the sequential schedule and there
//! is no second executor.
//!
//! The driver is generic over [`Lanes`] and `#[inline(always)]`: each
//! tier instantiates it inside its `#[target_feature]` entry, where
//! the tier's per-op helpers inline into the lane loops.

use super::SectionSchedule;
use crate::kernel::Op;
use crate::lanes::Reg;
use simdize_ir::{BinOp, ScalarType, UnOp};
use std::cell::Cell;

/// Iterations per op dispatch in a strip-scheduled section. 32 lanes
/// of 16 bytes make a column 512 bytes, so the handful of columns live
/// at once stay in L1 beside the streams, while the per-op dispatch (a
/// few dozen cycles with its slice checks) is amortized to about a
/// cycle per lane.
pub(super) const STRIP: usize = 32;

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
}

/// A tier: its operations as a bundle of closures, the one form that
/// lets the intrinsic tiers stay safe. Closures inherit the
/// `#[target_feature]` set of the function that creates them, so a
/// bundle built there forwards to the tier's feature-gated helpers
/// without an `unsafe` block per operation.
#[derive(Clone, Copy)]
pub(super) struct Tier<Ld, St, Sh, Sp, Pe, Bi, Un> {
    pub(super) load: Ld,
    pub(super) store: St,
    pub(super) shift: Sh,
    pub(super) splice: Sp,
    pub(super) perm: Pe,
    pub(super) bin: Bi,
    pub(super) un: Un,
}

impl<V, Ld, St, Sh, Sp, Pe, Bi, Un> Lanes for Tier<Ld, St, Sh, Sp, Pe, Bi, Un>
where
    V: Copy,
    Ld: Fn(&Reg) -> V + Copy,
    St: Fn(V, &mut Reg) + Copy,
    Sh: Fn(V, V, u8) -> V + Copy,
    Sp: Fn(V, V, V) -> V + Copy,
    Pe: Fn(V, V, &[u8; 16], &Reg, &Reg) -> V + Copy,
    Bi: Fn(BinOp, ScalarType, V, V) -> V + Copy,
    Un: Fn(UnOp, ScalarType, V) -> V + Copy,
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
}

/// One straight-line run of ops and how often it repeats.
#[derive(Debug)]
pub(crate) struct Section {
    /// Where the section sits in the plan: `prologue`, `pair.header`,
    /// `pair`, `body.header`, `body` or `epilogue`.
    pub(crate) role: &'static str,
    pub(crate) ops: Vec<Op>,
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

/// Runs `ops` for iterations `k0..k0 + len`, op by op. Columns are
/// cells because an op may name one column as both source and
/// destination; lanes never alias across columns.
#[inline(always)]
fn strip<L: Lanes>(
    l: L,
    ops: &[Op],
    k0: i64,
    len: usize,
    elem: ScalarType,
    regs: &[Cell<L::V>],
    mem: &mut [u8],
) {
    let col = |c: u32| &regs[c as usize..][..len];
    // Every access is a checked 16-byte window of the image.
    let at = |start: i64, step: i64, u: usize| {
        let at = (start + (k0 + u as i64) * step) as usize;
        at..at + 16
    };
    for op in ops {
        match *op {
            Op::Load { dst, start, step, .. } | Op::LoadFused { dst, start, step, .. } => {
                for (u, d) in col(dst).iter().enumerate() {
                    let src = &mem[at(start, step, u)];
                    d.set(l.load(src.try_into().expect("a 16-byte window")));
                }
            }
            Op::Store { src, start, step, .. } => {
                for (u, s) in col(src).iter().enumerate() {
                    let out = &mut mem[at(start, step, u)];
                    l.store(s.get(), out.try_into().expect("a 16-byte window"));
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
                strip(l, &s.ops, k, 1, program.elem, regs, mem);
            } else {
                strip(l, &s.ops, k, len, program.elem, regs, mem);
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
