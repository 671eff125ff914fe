//! Local value numbering with optional memory normalization (§5.5
//! "MemNorm").
//!
//! Each straight-line section (prologue, body, epilogue, and every
//! guarded block) is scanned top-down; instructions computing a value
//! already available in a register are dropped and their uses renamed.
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

use crate::sexpr::SExpr;
use crate::vir::{SimdProgram, VInst, VReg};
use simdize_ir::{AlignKind, BinOp, LoopProgram, ParamId, UnOp, VectorShape};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

pub(crate) fn run(program: &mut SimdProgram, memnorm: bool) {
    let ctx = Ctx {
        source: &program.program,
        shape: program.shape,
        memnorm,
    };
    let mut table = Table::new(program.nvregs);
    for section in [
        &mut program.prologue,
        &mut program.body,
        &mut program.epilogue,
    ] {
        table.reset();
        number(section, &mut table, &ctx);
    }
}

struct Ctx<'p> {
    source: &'p LoopProgram,
    shape: VectorShape,
    memnorm: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    LoadSyntactic(u32, i64, i64),
    LoadChunk(u32, i64),
    SplatConst(i64),
    SplatParam(ParamId),
    Shift(VReg, VReg, SExpr),
    Perm(VReg, VReg, Vec<u8>),
    Splice(VReg, VReg, SExpr),
    Bin(BinOp, VReg, VReg),
    Un(UnOp, VReg),
}

/// One change to the table made inside a guarded block, undone when
/// the block's scope closes.
enum Undo {
    /// The key was numbered.
    Added(Key),
    /// A store forgot the key, which held this register.
    Removed(Key, VReg),
    /// The register's uses were renamed; it was renamed to this before.
    Renamed(VReg, VReg),
}

/// The available values of one section, scoped per guarded block.
struct Table {
    values: HashMap<Key, VReg>,
    /// `rename[r]`: the register `r`'s uses read instead (`r` itself
    /// unless its instruction was dropped as a duplicate).
    rename: Vec<VReg>,
    /// Changes made inside the open guarded blocks, oldest first.
    undo: Vec<Undo>,
    /// How many guarded blocks are open; changes are logged only
    /// inside one.
    depth: usize,
}

impl Table {
    fn new(nvregs: u32) -> Table {
        Table {
            values: HashMap::new(),
            rename: (0..nvregs).map(VReg).collect(),
            undo: Vec::new(),
            depth: 0,
        }
    }

    /// Forgets everything, for the next section.
    fn reset(&mut self) {
        self.values.clear();
        for (k, r) in self.rename.iter_mut().enumerate() {
            *r = VReg(k as u32);
        }
    }

    fn resolve(&self, r: VReg) -> VReg {
        self.rename[r.index()]
    }

    /// Opens a guarded block's scope; returns the mark to close it at.
    fn open(&mut self) -> usize {
        self.depth += 1;
        self.undo.len()
    }

    /// Closes the scope opened at `mark`, undoing every change made in
    /// it, newest first.
    fn close(&mut self, mark: usize) {
        self.depth -= 1;
        while self.undo.len() > mark {
            match self.undo.pop().expect("above the mark") {
                Undo::Added(key) => {
                    self.values.remove(&key);
                }
                Undo::Removed(key, r) => {
                    self.values.insert(key, r);
                }
                Undo::Renamed(r, before) => self.rename[r.index()] = before,
            }
        }
    }

    /// The register that already holds `key`'s value, to which `dst`
    /// is then renamed; if there is none, `dst` becomes it.
    fn find_or_add(&mut self, key: Key, dst: VReg) -> Option<VReg> {
        match self.values.entry(key) {
            Entry::Occupied(e) => {
                let rep = *e.get();
                if self.depth > 0 {
                    self.undo.push(Undo::Renamed(dst, self.rename[dst.index()]));
                }
                self.rename[dst.index()] = rep;
                Some(rep)
            }
            Entry::Vacant(e) => {
                if self.depth > 0 {
                    self.undo.push(Undo::Added(e.key().clone()));
                }
                e.insert(dst);
                None
            }
        }
    }

    /// Forgets every remembered load of array `arr`.
    fn forget_loads_of(&mut self, arr: u32) {
        let (logging, undo) = (self.depth > 0, &mut self.undo);
        self.values.retain(|k, &mut r| {
            let stale = matches!(k, Key::LoadSyntactic(a, _, _) | Key::LoadChunk(a, _)
                                 if *a & 0x7FFF_FFFF == arr);
            if stale && logging {
                undo.push(Undo::Removed(k.clone(), r));
            }
            !stale
        });
    }
}

fn number(insts: &mut Vec<VInst>, table: &mut Table, ctx: &Ctx<'_>) {
    insts.retain_mut(|inst| {
        rewrite_uses(inst, table);
        match inst {
            VInst::Guarded { body, .. } => {
                // Values computed outside remain visible inside; values
                // defined inside must not leak out, so the block's
                // changes are undone when it ends.
                let mark = table.open();
                number(body, table, ctx);
                table.close(mark);
                true
            }
            VInst::StoreA { addr, .. } | VInst::StoreU { addr, .. } => {
                // A store invalidates remembered loads of its array
                // (conservative: the whole array, aligned and
                // unaligned keys alike).
                table.forget_loads_of(addr.array.index() as u32);
                true
            }
            _ => match key_of(inst, ctx) {
                // Kept unless its value is already in a register.
                Some(key) => {
                    let dst = inst.def().expect("keyed instructions define");
                    table.find_or_add(key, dst).is_none()
                }
                None => true,
            },
        }
    });
    // The program outlives the pass (kernel caches hold it): keep no
    // room for the dropped duplicates.
    insts.shrink_to_fit();
}

fn rewrite_uses(inst: &mut VInst, table: &Table) {
    match inst {
        VInst::LoadA { .. }
        | VInst::LoadU { .. }
        | VInst::SplatConst { .. }
        | VInst::SplatParam { .. } => {}
        VInst::StoreA { src, .. } | VInst::StoreU { src, .. } => *src = table.resolve(*src),
        VInst::ShiftPair { a, b, .. } | VInst::Splice { a, b, .. } | VInst::Perm { a, b, .. } => {
            *a = table.resolve(*a);
            *b = table.resolve(*b);
        }
        VInst::Bin { a, b, .. } => {
            *a = table.resolve(*a);
            *b = table.resolve(*b);
        }
        VInst::Un { a, .. } => *a = table.resolve(*a),
        VInst::Copy { src, .. } => *src = table.resolve(*src),
        VInst::Guarded { body, .. } => {
            for i in body {
                rewrite_uses(i, table);
            }
        }
    }
}

fn key_of(inst: &VInst, ctx: &Ctx<'_>) -> Option<Key> {
    match inst {
        VInst::LoadA { addr, .. } => {
            let arr = addr.array.index() as u32;
            if ctx.memnorm && addr.scale == 1 {
                let decl = ctx.source.array(addr.array);
                if let AlignKind::Known(beta) = decl.align() {
                    let beta = (beta % ctx.shape.bytes()) as i64;
                    let d = ctx.source.elem().size() as i64;
                    let chunk = (beta + addr.elem * d).div_euclid(ctx.shape.bytes() as i64);
                    return Some(Key::LoadChunk(arr, chunk));
                }
            }
            Some(Key::LoadSyntactic(arr, addr.elem, addr.scale))
        }
        VInst::SplatConst { value, .. } => Some(Key::SplatConst(*value)),
        VInst::SplatParam { param, .. } => Some(Key::SplatParam(*param)),
        VInst::ShiftPair { a, b, amt, .. } => Some(Key::Shift(*a, *b, amt.clone())),
        VInst::Perm { a, b, pattern, .. } => Some(Key::Perm(*a, *b, pattern.clone())),
        VInst::Splice { a, b, point, .. } => Some(Key::Splice(*a, *b, point.clone())),
        VInst::Bin { op, a, b, .. } => {
            let (a, b) = if op.is_reassociable() && b < a {
                (*b, *a)
            } else {
                (*a, *b)
            };
            Some(Key::Bin(*op, a, b))
        }
        VInst::Un { op, a, .. } => Some(Key::Un(*op, *a)),
        // Unaligned accesses are CSE'd syntactically only.
        VInst::LoadU { addr, .. } => Some(Key::LoadSyntactic(
            addr.array.index() as u32 | 0x8000_0000,
            addr.elem,
            addr.scale,
        )),
        VInst::Copy { .. }
        | VInst::StoreA { .. }
        | VInst::StoreU { .. }
        | VInst::Guarded { .. } => None,
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
