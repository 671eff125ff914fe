//! Local value numbering with optional memory normalization (§5.5
//! "MemNorm").
//!
//! Each straight-line section (prologue, body, epilogue, and every
//! guarded block) is numbered top-down: an instruction computing a value
//! already available in a register is dropped and its uses read that
//! register instead.
//!
//! Load keys come in two precisions:
//!
//! * **syntactic** (MemNorm off): two loads deduplicate only when they
//!   name the same `array[i + k]`;
//! * **chunk-normalized** (MemNorm on): the address is normalized to its
//!   truncated `V`-aligned location first, so any two loads that provably
//!   hit the same 16-byte chunk deduplicate — the paper's footnote 3
//!   ("loading a[i] and a[i+1] anywhere in the loop counts as one when
//!   both map to the same 16-byte aligned location"). Chunk equality is
//!   only provable for arrays with compile-time base alignments; runtime
//!   arrays fall back to syntactic keys.
//!
//! One [`Table`] does the numbering in two places. The generator looks
//! every instruction up before it emits it, so its output is numbered
//! as it is built; [`run`] walks an existing program through the table,
//! for the initializers predictive commoning inserts.
//!
//! The table's cost per instruction is one keyed hash of a small `Copy`
//! key, whatever the input: shift and splice amounts and permute
//! patterns are interned, and a store retires its array's loads by
//! bumping the array's epoch (part of every load key) instead of
//! scanning the table.

use crate::sexpr::SExpr;
use crate::vir::{SimdProgram, VInst, VReg};
use simdize_ir::{AlignKind, BinOp, LoopProgram, ParamId, UnOp, VectorShape};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Numbers every section of `program` in place.
pub(crate) fn run(program: &mut SimdProgram, memnorm: bool) {
    let mut table = Table::new(&program.program, program.shape, memnorm, 0);
    // `rename[r]`: the register `r`'s uses read instead (`r` itself
    // unless its instruction was dropped as a duplicate). A value
    // defined inside a guarded block is read only inside it, so the
    // renames need no scoping.
    let mut rename: Vec<VReg> = Vec::with_capacity(program.nvregs as usize);
    for section in [
        &mut program.prologue,
        &mut program.body,
        &mut program.epilogue,
    ] {
        table.reset(section.len());
        rename.clear();
        rename.extend((0..program.nvregs).map(VReg));
        walk(section, &mut table, &mut rename);
    }
}

fn walk(insts: &mut Vec<VInst>, table: &mut Table<'_>, rename: &mut [VReg]) {
    insts.retain_mut(|inst| {
        if let VInst::Guarded { body, .. } = inst {
            let mark = table.open();
            walk(body, table, rename);
            table.close(mark);
            return true;
        }
        rewrite_uses(inst, rename);
        match table.number(inst) {
            Some(rep) => {
                rename[inst.def().expect("merged instructions define").index()] = rep;
                false
            }
            None => true,
        }
    });
    // The program outlives the pass (kernel caches hold it): keep no
    // room for the dropped duplicates.
    insts.shrink_to_fit();
}

fn rewrite_uses(inst: &mut VInst, rename: &[VReg]) {
    let resolve = |r: &mut VReg| *r = rename[r.index()];
    match inst {
        VInst::LoadA { .. }
        | VInst::LoadU { .. }
        | VInst::SplatConst { .. }
        | VInst::SplatParam { .. }
        | VInst::Guarded { .. } => {}
        VInst::StoreA { src, .. } | VInst::StoreU { src, .. } | VInst::Copy { src, .. } => {
            resolve(src)
        }
        VInst::ShiftPair { a, b, .. }
        | VInst::Splice { a, b, .. }
        | VInst::Perm { a, b, .. }
        | VInst::Bin { a, b, .. } => {
            resolve(a);
            resolve(b);
        }
        VInst::Un { a, .. } => resolve(a),
    }
}

/// A value key. Loads carry their array's store epoch, so a store
/// makes every earlier load key of its array unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// `array[scale·i + elem]` as written; the top bit of `array`
    /// marks a `LoadU`.
    Load {
        array: u32,
        epoch: u32,
        elem: i64,
        scale: i64,
    },
    /// The `V`-byte chunk an aligned load of an `i`-scaled address
    /// reads: chunk `chunk + scale · i / B` of the array's grid.
    Chunk {
        array: u32,
        epoch: u32,
        chunk: i64,
        scale: i64,
    },
    SplatConst(i64),
    SplatParam(ParamId),
    Shift(VReg, VReg, Amount),
    Splice(VReg, VReg, Amount),
    Perm(VReg, VReg, u32),
    Bin(BinOp, VReg, VReg),
    Un(UnOp, VReg),
}

/// A shift or splice amount: a constant, or an interned runtime
/// expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Amount {
    Const(i64),
    Expr(u32),
}

/// One change to the table made inside a guarded block, undone when
/// the block's scope closes.
enum Undo {
    /// The key was numbered.
    Added(Key),
    /// A store moved the array on from this epoch.
    Stored { array: u32, epoch: u32 },
}

/// The available values of one section, scoped per guarded block.
pub(crate) struct Table<'p> {
    source: &'p LoopProgram,
    shape: VectorShape,
    memnorm: bool,
    values: HashMap<Key, VReg>,
    /// `epochs[a]`: stores to array `a` that count here; a store inside
    /// a guarded block stops counting when the block closes.
    epochs: Vec<u32>,
    /// Runtime shift and splice amounts, and permute patterns, by id.
    exprs: HashMap<SExpr, u32>,
    patterns: HashMap<Vec<u8>, u32>,
    /// Changes made inside the open guarded blocks, oldest first.
    undo: Vec<Undo>,
    /// How many guarded blocks are open; changes are logged only
    /// inside one.
    depth: usize,
}

impl<'p> Table<'p> {
    /// An empty table for the sections of a program simdizing `source`,
    /// with room for `capacity` values.
    pub(crate) fn new(
        source: &'p LoopProgram,
        shape: VectorShape,
        memnorm: bool,
        capacity: usize,
    ) -> Table<'p> {
        Table {
            source,
            shape,
            memnorm,
            values: HashMap::with_capacity(capacity),
            epochs: vec![0; source.arrays().len()],
            exprs: HashMap::new(),
            patterns: HashMap::new(),
            undo: Vec::new(),
            depth: 0,
        }
    }

    /// Forgets every value, for a section of about `len` instructions.
    pub(crate) fn reset(&mut self, len: usize) {
        debug_assert_eq!(self.depth, 0, "a guarded block is still open");
        self.values.clear();
        self.values.reserve(len);
        self.epochs.fill(0);
    }

    /// Opens a guarded block's scope; returns the mark to close it at.
    pub(crate) fn open(&mut self) -> usize {
        self.depth += 1;
        self.undo.len()
    }

    /// Closes the scope opened at `mark`, undoing every change made in
    /// it, newest first.
    pub(crate) fn close(&mut self, mark: usize) {
        self.depth -= 1;
        while self.undo.len() > mark {
            match self.undo.pop().expect("above the mark") {
                Undo::Added(key) => {
                    self.values.remove(&key);
                }
                Undo::Stored { array, epoch } => self.epochs[array as usize] = epoch,
            }
        }
    }

    /// Numbers `inst`, whose operands already name the registers that
    /// hold their values: the register already holding its value, or
    /// `None` when it computes a new one (now in the table) or has no
    /// value. A store retires the loads of its array, `LoadU` included.
    ///
    /// # Panics
    ///
    /// On a guarded block: its scope is the caller's to open.
    pub(crate) fn number(&mut self, inst: &VInst) -> Option<VReg> {
        let key = match *inst {
            VInst::StoreA { addr, .. } | VInst::StoreU { addr, .. } => {
                let array = addr.array.index() as u32;
                let epoch = &mut self.epochs[array as usize];
                if self.depth > 0 {
                    self.undo.push(Undo::Stored {
                        array,
                        epoch: *epoch,
                    });
                }
                *epoch += 1;
                return None;
            }
            VInst::Copy { .. } => return None,
            VInst::Guarded { .. } => unreachable!("guarded blocks are scoped by the caller"),
            VInst::LoadA { addr, .. } => {
                let array = addr.array.index() as u32;
                let epoch = self.epochs[array as usize];
                match self.source.array(addr.array).align() {
                    // Every section runs at `i` a multiple of `B`, where
                    // `scale · i · D` is a multiple of `V`.
                    AlignKind::Known(beta) if self.memnorm && addr.scale >= 1 => {
                        let v = self.shape.bytes();
                        let d = self.source.elem().size() as i64;
                        let chunk = ((beta % v) as i64 + addr.elem * d).div_euclid(v as i64);
                        Key::Chunk {
                            array,
                            epoch,
                            chunk,
                            scale: addr.scale,
                        }
                    }
                    _ => Key::Load {
                        array,
                        epoch,
                        elem: addr.elem,
                        scale: addr.scale,
                    },
                }
            }
            // Unaligned accesses are CSE'd syntactically only.
            VInst::LoadU { addr, .. } => {
                let array = addr.array.index() as u32;
                Key::Load {
                    array: array | 0x8000_0000,
                    epoch: self.epochs[array as usize],
                    elem: addr.elem,
                    scale: addr.scale,
                }
            }
            VInst::SplatConst { value, .. } => Key::SplatConst(value),
            VInst::SplatParam { param, .. } => Key::SplatParam(param),
            VInst::ShiftPair { a, b, ref amt, .. } => Key::Shift(a, b, self.amount(amt)),
            VInst::Splice {
                a, b, ref point, ..
            } => Key::Splice(a, b, self.amount(point)),
            VInst::Perm {
                a, b, ref pattern, ..
            } => {
                let next = self.patterns.len() as u32;
                let id = match self.patterns.get(pattern.as_slice()) {
                    Some(&id) => id,
                    None => *self.patterns.entry(pattern.clone()).or_insert(next),
                };
                Key::Perm(a, b, id)
            }
            VInst::Bin { op, a, b, .. } => {
                let (a, b) = if op.is_reassociable() && b < a {
                    (b, a)
                } else {
                    (a, b)
                };
                Key::Bin(op, a, b)
            }
            VInst::Un { op, a, .. } => Key::Un(op, a),
        };
        let dst = inst.def().expect("keyed instructions define");
        match self.values.entry(key) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                e.insert(dst);
                if self.depth > 0 {
                    self.undo.push(Undo::Added(key));
                }
                None
            }
        }
    }

    fn amount(&mut self, amt: &SExpr) -> Amount {
        if let Some(c) = amt.as_const() {
            return Amount::Const(c);
        }
        let next = self.exprs.len() as u32;
        Amount::Expr(match self.exprs.get(amt) {
            Some(&id) => id,
            None => *self.exprs.entry(amt.clone()).or_insert(next),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::options::CodegenOptions;
    use crate::vir::VInst;
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::{Policy, ReorgGraph};

    fn body_loads(src: &str, memnorm: bool) -> usize {
        let p = parse_program(src).unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Lazy)
            .unwrap();
        let prog = crate::generate::generate(
            &g,
            &CodegenOptions::default().memnorm(memnorm).unroll(false),
        )
        .unwrap();
        prog.body()
            .iter()
            .filter(|i| matches!(i, VInst::LoadA { .. }))
            .count()
    }

    #[test]
    fn chunk_normalization_merges_same_chunk_loads() {
        // b[i] and b[i+1] share a 16-byte chunk in 3 of 4 steady
        // iterations? No — per iteration, both truncate to the same
        // chunk always (elems 0 and 1, offsets 0 and 4 bytes, same
        // 16-byte window for β=0 ⇒ chunks 0 and 0).
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
                   for i in 0..64 { a[i] = b[i] + b[i+1]; }";
        assert!(body_loads(src, true) < body_loads(src, false));
    }

    #[test]
    fn syntactic_duplicates_always_merge() {
        let src = "arrays { a: i32[128] @ 0; b: i32[128] @ 0; }
                   for i in 0..64 { a[i] = b[i+1] + b[i+1]; }";
        // The two identical loads merge even without memnorm.
        assert_eq!(body_loads(src, false), body_loads(src, true));
    }
}
