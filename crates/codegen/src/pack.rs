//! Packs and scatters: the byte layout of a non-unit-stride reference.
//!
//! A stride-`s` reference is not byte-contiguous, so the reorganization
//! graph gives it stream offset 0 (see `simdize_reorg::Offset::of_ref`):
//! its load is a *pack*, which loads the aligned chunks covering one
//! simdized iteration's `B` elements (a window of about `s · V` bytes)
//! and gathers them into lane order with one accumulating `vperm` per
//! chunk; its store is a *scatter*, which loads each covered chunk,
//! deposits this iteration's lanes with a `vperm` that keeps every
//! other byte, and stores it back. At every iteration the generators
//! emit code for (`i` a multiple of `B`), `s · i · D` is a multiple of
//! `V`, so the window's misalignment and the permute patterns are
//! compile-time constants.

use crate::error::GenCodeError;
use crate::vir::{Addr, VInst, VReg};
use simdize_ir::{ArrayRef, LoopProgram, VectorShape};
use simdize_reorg::pack_chunks;
use std::ops::Range;

/// The compile-time facts packs and scatters need: every
/// non-unit-stride reference's base alignment (the permute patterns are
/// compile-time byte selections) and the trip count (a partial scatter
/// deposits a compile-time number of lanes).
pub(crate) fn check(program: &LoopProgram) -> Result<(), GenCodeError> {
    for r in program
        .all_refs()
        .into_iter()
        .filter(|r| !r.is_unit_stride())
    {
        if !program.array(r.array).align().is_known() {
            return Err(GenCodeError::StrideNeedsKnownAlignment);
        }
        if program.trip().known().is_none() {
            return Err(GenCodeError::StrideNeedsKnownTrip);
        }
    }
    Ok(())
}

/// Where the elements of one non-unit-stride reference sit at a
/// simdized iteration. Chunks are numbered on the array's grid
/// ([`pack_chunks`]), which names a chunk across references.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'p> {
    r: ArrayRef,
    program: &'p LoopProgram,
    shape: VectorShape,
    /// The byte offset of the first element from the aligned chunk
    /// holding the array's base.
    start: i64,
    d: i64,
    v: i64,
}

impl<'p> Window<'p> {
    /// The window of `r`, whose array has a compile-time alignment.
    pub(crate) fn of(r: ArrayRef, program: &'p LoopProgram, shape: VectorShape) -> Window<'p> {
        let d = program.elem().size() as i64;
        let align = program.array(r.array).align().known_offset(shape);
        let beta = align.expect("checked by pack::check") as i64;
        let (start, v) = (beta + r.offset * d, shape.bytes() as i64);
        Window {
            r,
            program,
            shape,
            start,
            d,
            v,
        }
    }

    /// The chunk and the byte within it of byte `u` of lane `lane`.
    fn source(&self, lane: usize, u: usize) -> (i64, usize) {
        let g = self.start + (lane as i64 * self.r.stride as i64 * self.d) + u as i64;
        (g.div_euclid(self.v), g.rem_euclid(self.v) as usize)
    }

    /// The chunks `lanes` cover, in ascending order.
    pub(crate) fn chunks(&self, lanes: Range<usize>) -> Vec<i64> {
        pack_chunks(self.r, self.program, self.shape, lanes)
    }

    /// The address of chunk `c`, `c − first` chunks (`B` elements each)
    /// past the window's first.
    pub(crate) fn addr(&self, c: i64) -> Addr {
        let ahead = (c - self.start.div_euclid(self.v)) * (self.v / self.d);
        Addr::strided(self.r.array, self.r.stride as i64, self.r.offset + ahead)
    }

    /// A pack of `lanes` at `i + delta`, emitted step by step through
    /// `emit`, which returns the register holding each step's value:
    /// per covered chunk a load and a `vperm` folding it into the lanes
    /// gathered so far. Returns the packed register.
    pub(crate) fn pack(
        &self,
        lanes: &Range<usize>,
        delta: i64,
        mut emit: impl FnMut(Step) -> VReg,
    ) -> VReg {
        let mut acc = None;
        for j in self.chunks(lanes.clone()) {
            let chunk = emit(Step::Load(j, self.addr(j).shifted(delta)));
            let prev = acc.unwrap_or(chunk);
            acc = Some(emit(Step::Perm(prev, chunk, self.gather(lanes, j))));
        }
        acc.expect("a window covers at least one chunk")
    }

    /// A scatter of `lanes` of `value` at `i + delta` through `emit`:
    /// per covered chunk, load it, merge this iteration's lanes in with
    /// a `vperm` that keeps every other byte, and store it back.
    pub(crate) fn scatter(
        &self,
        lanes: &Range<usize>,
        delta: i64,
        value: VReg,
        mut emit: impl FnMut(Step) -> VReg,
    ) {
        for j in self.chunks(lanes.clone()) {
            let addr = self.addr(j).shifted(delta);
            let old = emit(Step::Load(j, addr));
            let merged = emit(Step::Perm(value, old, self.merge(lanes, j)));
            emit(Step::Store(addr, merged));
        }
    }

    /// The pattern of the pack step `vperm(acc, chunk j)`: the bytes of
    /// `lanes` sourced from chunk `j` are taken from it, every other
    /// byte keeps what `acc` holds.
    fn gather(&self, lanes: &Range<usize>, j: i64) -> Vec<u8> {
        let (d, v) = (self.d as usize, self.v as usize);
        (0..v)
            .map(|p| match self.source(p / d, p % d) {
                (c, off) if lanes.contains(&(p / d)) && c == j => (v + off) as u8,
                _ => p as u8,
            })
            .collect()
    }

    /// The pattern of the scatter step `vperm(value, old chunk j)`: the
    /// bytes of `lanes` that land in chunk `j` come from `value`, every
    /// other byte keeps the chunk's old contents.
    fn merge(&self, lanes: &Range<usize>, j: i64) -> Vec<u8> {
        let (d, v) = (self.d as usize, self.v as usize);
        let mut pattern: Vec<u8> = (0..v).map(|p| (v + p) as u8).collect();
        for t in lanes.clone() {
            for u in 0..d {
                let (c, off) = self.source(t, u);
                if c == j {
                    pattern[off] = (t * d + u) as u8;
                }
            }
        }
        pattern
    }
}

/// One instruction of a pack or scatter, before a generator numbers it.
pub(crate) enum Step {
    /// Load chunk `.0` of the array's grid, at `.1`.
    Load(i64, Addr),
    /// `vperm(a, b, pattern)`.
    Perm(VReg, VReg, Vec<u8>),
    /// Store the register at the address.
    Store(Addr, VReg),
}

impl Step {
    /// The instruction, defining `dst` where it defines a value.
    pub(crate) fn inst(self, dst: VReg) -> VInst {
        match self {
            Step::Load(_, addr) => VInst::LoadA { dst, addr },
            Step::Perm(a, b, pattern) => VInst::Perm { dst, a, b, pattern },
            Step::Store(addr, src) => VInst::StoreA { addr, src },
        }
    }
}
