//! Trace fusion: post-bake optimization of the engine's straight-line
//! sections into fused superinstructions.
//!
//! The pass rewrites, in place, the one section list a bake emits and
//! lowering finishes ([`Section::plan`]): prologue, pair header, pair,
//! body header, body and epilogue, each with its iteration count.
//!
//! Baking leaves the kernel as a literal transcription of the
//! `SimdProgram` — every misaligned stream costs a `vload` + a
//! `vshiftpair` (plus a rotation `copy` under software pipelining) per
//! iteration. But once addresses are baked to `(start, step)` byte
//! pairs, a simple abstract domain can prove where those reorganization
//! chains are just reads of *other* contiguous memory:
//!
//! * **memory facts** — "byte `t` of register `r` is
//!   `mem[base + rel_t + k·step]` of array `A`, as memory currently is,
//!   at iteration `k`, and `[base + lo, base + hi)` around those bytes
//!   is bounds-checked memory" — one fact whose offsets and *span*
//!   `lo..hi` are an interned *shape*. A load makes a *window*: bytes
//!   `0..16` of a span of exactly those 16 bytes. A `vperm` composes its
//!   operands' facts byte by byte into a *gather*, whose span is the
//!   union of the chunks behind its bytes, kept only while it is one
//!   contiguous range; `vshiftpair(a, b, amt)` is the perm
//!   `amt..amt + 16`. A store kills every memory fact of its array
//!   (arrays' guarded regions are disjoint). Two rewrites read the fact,
//!   on one argument — bytes inside bounds-checked chunks read in bounds:
//!   - a shift whose result is a window — its operands hold adjacent
//!     windows `[s, s+16)` / `[s+16, s+32)`, so it reads
//!     `[s+amt, s+amt+16)` — becomes a single fused `vload.fused`;
//!   - a `vperm` that reads a gather is one perm of the 32 bytes
//!     `[lo, lo + 32)` whenever its 16 offsets fit such a window inside
//!     the span, so it becomes `vperm(vload.fused lo, vload.fused lo +
//!     16)`, reusing a pair the section already loaded where one fits.
//!     The chains it read die.
//!
//!   A window is span-exact, and only a load or a shift that reads
//!   windows makes one. A perm keeps its span: its result stays a gather
//!   even when its offsets are contiguous or its bytes are one chunk in
//!   order, so the perm after it still composes.
//! * **known facts** — registers holding compile-time-constant bytes
//!   (splats and folds thereof). A binop with one known operand becomes
//!   an immediate-carrying `BinSplat`; with two, it folds to a `Splat`.
//!
//! Memory facts at a loop entry come from a small fixpoint: the entry
//! fact must agree with the fall-in fact at iteration 0 and with the
//! back-edge fact (the end-of-iteration fact re-expressed one iteration
//! later, `base -= step`) for iterations ≥ 1. This is what lets the
//! software-pipelined rotation `prev = copy cur` feed the next
//! iteration's shift with a provable window. Only the registers a loop
//! reads before it writes them need an entry fact, and their end facts
//! depend only on a slice of the loop, so each round flows that slice
//! over those registers alone (debug builds check the result against
//! the fixpoint over every register).
//!
//! After rewriting, iteration-invariant ops are hoisted into the loop's
//! header slot (executed once, only when the loop runs), and a global
//! backward liveness pass over all six sections deletes ops whose
//! results are never observed — typically the raw loads and rotation
//! copies that fusion just obsoleted. The registers a loop reads before
//! it writes them — the fixpoint's live-in set, the hoist's
//! upward-exposed uses and the liveness sweep's — all come from the
//! engine's one live-in rule ([`live_in`]). Every table these passes
//! fill and throw away is the thread's ([`Tables`], in the bake's
//! workspace), cleared and re-sized per bake, so the pass allocates
//! only what the plan keeps. None of this changes a stored byte or a
//! reported stat: `RunStats` are fixed before this pass runs, and the
//! differential tests execute every kernel fused and unfused.

use crate::kernel::{live_in, Op, NO_REG, V};
use crate::lanes::{self, Reg};
use crate::native::Section;
use simdize_ir::ScalarType;
use simdize_telemetry as telemetry;

/// What the trace fusion pass did to one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// `vload`+`vshiftpair` chains rewritten into single fused loads.
    pub fused_loads: usize,
    /// `vperm` gather chains rewritten into one `vperm` of two fused
    /// loads.
    pub composed: usize,
    /// Binops rewritten to immediate forms or folded to splats.
    pub splat_ops: usize,
    /// Iteration-invariant ops moved to a per-loop header.
    pub hoisted: usize,
    /// Dead ops deleted by the global liveness pass.
    pub eliminated: usize,
}

/// One rewrite applied by the trace-fusion pass, for the decision
/// trace (`simdize-explain`). Unlike [`FusionStats`], which only
/// counts, events name the section and — for fused loads — the array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionEvent {
    /// The kernel section the rewrite happened in (`"prologue"`,
    /// `"pair"`, `"body"`, `"epilogue"`, `"pair header"`,
    /// `"body header"`).
    pub section: &'static str,
    /// What happened.
    pub kind: FusionEventKind,
}

/// The kind of rewrite a [`FusionEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionEventKind {
    /// A `vload`+`vshiftpair` chain over provably adjacent windows was
    /// rewritten into one fused load of the array with baked index
    /// `arr` (the program's declaration order).
    LoadFused {
        /// Baked array index.
        arr: u32,
    },
    /// A `vperm` reading a gather of one array was rewritten into one
    /// `vperm` of two fused loads of that array.
    GatherComposed {
        /// Baked array index.
        arr: u32,
    },
    /// An op whose operands were all compile-time-known folded to a
    /// splat immediate.
    FoldedToSplat,
    /// A binop with exactly one known operand became an
    /// immediate-carrying form.
    ImmediateForm,
    /// Iteration-invariant ops were moved into the section's once-run
    /// header.
    Hoisted {
        /// How many ops moved.
        count: usize,
    },
    /// Dead ops were deleted by the global liveness sweep.
    Eliminated {
        /// How many ops died.
        count: usize,
    },
}

impl std::fmt::Display for FusionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let section = self.section;
        match self.kind {
            FusionEventKind::LoadFused { arr } => write!(
                f,
                "{section}: vload+vshiftpair chain fused into one load of array #{arr}"
            ),
            FusionEventKind::GatherComposed { arr } => write!(
                f,
                "{section}: vperm gather chain composed into one vperm of two fused loads of array #{arr}"
            ),
            FusionEventKind::FoldedToSplat => {
                write!(f, "{section}: known-operand op folded to a splat immediate")
            }
            FusionEventKind::ImmediateForm => write!(
                f,
                "{section}: binop with one known operand rewritten to an immediate form"
            ),
            FusionEventKind::Hoisted { count } => write!(
                f,
                "{section}: {count} iteration-invariant op(s) hoisted into a once-run header"
            ),
            FusionEventKind::Eliminated { count } => {
                write!(f, "{section}: {count} dead op(s) deleted")
            }
        }
    }
}

/// What is known about one register at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fact {
    /// Nothing.
    Bottom,
    /// Byte `t` of the register is `mem[base + rel[t] + k·step]` of array
    /// `arr` — the bytes as memory currently is — at iteration `k` of the
    /// enclosing loop (`step` is 0 outside loops), where `rel` and the
    /// bounds-checked span are the [`Shape`] the pass's [`Domain`] keeps
    /// at index `shape`: [`WINDOW`] for a window, which holds
    /// `mem[base + k·step .. +16)`, any other for a gather.
    Mem {
        arr: u32,
        shape: u16,
        base: i64,
        step: i64,
    },
    /// The register holds exactly these bytes, independent of `k`.
    Known(Reg),
}

// Facts are copied by value into the per-register tables, the
// fixpoint's rounds and `held`'s kills on every bake.
const _: () = assert!(std::mem::size_of::<Fact>() <= 24);

/// Where the bytes of a [`Fact::Mem`] lie, relative to its base: byte
/// `t` at `rel[t]`, and `span.0 .. span.1` bounds-checked memory of the
/// array (the union of the chunks the bytes came from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    rel: [i8; 16],
    span: (i16, i16),
}

/// The window's shape, the domain's first: bytes `0..16` of a span of
/// exactly those 16 bytes. Only a load, or a shift that reads windows,
/// makes it.
const WINDOW: u16 = 0;

/// The element type and every shape one pass has seen: the window's,
/// then each gather's once, so a [`Fact`] stays small and equal gathers
/// are equal facts.
struct Domain {
    elem: ScalarType,
    shapes: Vec<Shape>,
}

impl Domain {
    /// The gather of array `arr` with `shape`, interned among the
    /// gathers' shapes: a perm keeps its span, and stays a gather even
    /// when its bytes are one chunk in order. `Bottom` once there are
    /// more shapes than a fact can name.
    fn gather(&mut self, arr: u32, base: i64, step: i64, shape: Shape) -> Fact {
        let id = match self.shapes[1..].iter().position(|s| *s == shape) {
            Some(id) => id + 1,
            None if self.shapes.len() <= u16::MAX as usize => {
                self.shapes.push(shape);
                self.shapes.len() - 1
            }
            None => return Fact::Bottom,
        };
        Fact::Mem {
            arr,
            shape: id as u16,
            base,
            step,
        }
    }

    /// What `vperm(a, b, pattern)` holds: its bytes when both operands
    /// are constants, else the gather of the memory bytes it
    /// [`select`]s, if it does.
    fn perm(&mut self, facts: &[Fact], a: u32, b: u32, pattern: &[u8; 16]) -> Fact {
        match (known(facts, a), known(facts, b)) {
            (Some(x), Some(y)) => Fact::Known(perm_bytes(&x, &y, pattern)),
            _ => self.memory(facts, a, b, pattern),
        }
    }

    /// [`perm`](Domain::perm) over memory, out of line: most perms and
    /// shifts that reach it read no memory fact.
    #[cold]
    #[inline(never)]
    fn memory(&mut self, facts: &[Fact], a: u32, b: u32, pattern: &[u8; 16]) -> Fact {
        select(facts, a, b, pattern, self).map_or(Fact::Bottom, |(arr, step, base, s)| {
            self.gather(arr, base, step, s)
        })
    }

    /// What `vshiftpair(a, b, amt)` — `vperm(a, b, amt..amt + 16)` —
    /// holds. When the bytes it reads are windows — `a`'s at `amt` 0,
    /// `b`'s at 16 (a runtime amount can be either), or adjacent ones
    /// `[s, s + 16)` and `[s + 16, s + 32)` — it reads
    /// `[s + amt, s + amt + 16)` of bounds-checked chunks: that window.
    fn shift(&mut self, facts: &[Fact], a: u32, b: u32, amt: u8) -> Fact {
        let window = |r: u32| match facts[r as usize] {
            Fact::Mem {
                arr,
                shape: WINDOW,
                base,
                step,
            } => Some((arr, base, step)),
            _ => None,
        };
        match (amt, window(a), window(b)) {
            (0, Some(_), _) => facts[a as usize],
            (16, _, Some(_)) => facts[b as usize],
            (_, Some((arr, base, step)), Some(y)) if y == (arr, base + V, step) => Fact::Mem {
                arr,
                shape: WINDOW,
                base: base + amt as i64,
                step,
            },
            _ => self.perm(facts, a, b, &std::array::from_fn(|t| amt + t as u8)),
        }
    }

    /// Meet of the fall-in fact (must hold at iteration 0) and the
    /// back-edge fact (must hold at iterations ≥ 1). A memory fact
    /// survives iff both agree on array, first-iteration base and
    /// offsets, with the span both vouch for; the step comes from the
    /// back edge (fall-in facts are iteration-independent, step 0).
    fn meet(&mut self, pre: Fact, back: Fact) -> Fact {
        match (pre, back) {
            (Fact::Known(x), Fact::Known(y)) if x == y => pre,
            (
                Fact::Mem {
                    arr, shape, base, ..
                },
                Fact::Mem {
                    arr: x,
                    shape: s,
                    base: b,
                    step,
                },
            ) if (x, b) == (arr, base) => {
                if shape == s {
                    return back;
                }
                let (p, q) = (self.shapes[shape as usize], self.shapes[s as usize]);
                if p.rel != q.rel {
                    return Fact::Bottom;
                }
                let span = (p.span.0.max(q.span.0), p.span.1.min(q.span.1));
                self.gather(arr, base, step, Shape { span, ..p })
            }
            _ => Fact::Bottom,
        }
    }
}

/// Every table the pass fills and throws away: the facts, the shapes
/// seen, the loop-entry fixpoint's, the hoist's and the liveness
/// sweep's tables, and the event list before the plan takes its copy.
/// A thread keeps one in its bake workspace (`kernel::Workspace`);
/// [`optimize`] clears and re-sizes each table it uses, so nothing one
/// bake leaves behind reaches the next.
#[derive(Default)]
pub(crate) struct Tables {
    facts: Facts,
    shapes: Vec<Shape>,
    fp: Fixpoint,
    h: Hoister,
    sweep: Sweep,
    events: Vec<FusionEvent>,
}

/// Runs the full pass over a kernel's six sections ([`Section::plan`]),
/// in place, on the tables `t` lends: rewrites each, hoists each loop's
/// invariants into its header slot and sweeps all six for dead ops.
/// Composition adds registers from `nregs` on and leaves it past the
/// last one. Returns the fusion telemetry: aggregate counts and the
/// per-rewrite event list.
pub(crate) fn optimize(
    sections: &mut [Section; 6],
    nregs: &mut usize,
    elem: ScalarType,
    t: &mut Tables,
) -> (FusionStats, Vec<FusionEvent>) {
    let mut st = FusionStats::default();
    let Tables {
        facts,
        shapes,
        fp,
        h,
        sweep,
        events: ev,
    } = t;
    ev.clear();
    let mut next = *nregs as u32;
    facts.all.clear();
    facts.all.resize(*nregs, Fact::Bottom);
    facts.held.clear();
    shapes.clear();
    shapes.push(Shape {
        rel: std::array::from_fn(|t| t as i8),
        span: (0, V as i16),
    });
    let d = &mut Domain {
        elem,
        shapes: std::mem::take(shapes),
    };
    let [prologue, pair_header, pair, body_header, body, epilogue] = &mut *sections;
    {
        let _span = telemetry::span("rewrite");
        rewrite(
            &mut prologue.ops,
            facts,
            &mut next,
            d,
            &mut st,
            prologue.role,
            ev,
        );
    }
    for (header, s) in [(pair_header, pair), (body_header, body)] {
        if s.iters > 0 {
            loop_entry(facts, &s.ops, d, fp);
            {
                let _span = telemetry::span("rewrite");
                rewrite(&mut s.ops, facts, &mut next, d, &mut st, s.role, ev);
            }
            let _span = telemetry::span("hoist");
            hoist(&mut s.ops, s.iters, next as usize, h, &mut st, s.role, ev);
            header.ops = h.header.to_vec();
            concretize(facts, s.iters);
        }
    }
    {
        let _span = telemetry::span("rewrite");
        rewrite(
            &mut epilogue.ops,
            facts,
            &mut next,
            d,
            &mut st,
            epilogue.role,
            ev,
        );
    }
    {
        let _span = telemetry::span("dce");
        dce(sections, next as usize, sweep, &mut st, ev);
    }
    telemetry::tag(
        "fusion.rewrites",
        (st.fused_loads + st.composed + st.splat_ops + st.hoisted + st.eliminated) as u64,
    );
    *nregs = next as usize;
    *shapes = std::mem::take(&mut d.shapes);
    (st, ev.to_vec())
}

/// What the rewrite knows about every register, threaded through the
/// sections in execution order.
#[derive(Default)]
struct Facts {
    all: Vec<Fact>,
    /// Registers that may hold a claim about memory — every one that
    /// does is here — so a store kills by scanning these, not every
    /// register.
    held: Vec<u32>,
}

impl Facts {
    /// [`flow`] across `op`; a store's kill is [`flow`]'s, over `held`.
    fn flow(&mut self, op: &Op, d: &mut Domain) {
        match *op {
            Op::Store { arr, .. } => {
                let all = &mut self.all;
                self.held.retain(|&r| match all[r as usize] {
                    Fact::Mem { arr: a, .. } if a == arr => {
                        all[r as usize] = Fact::Bottom;
                        false
                    }
                    fact => holds_memory(fact),
                });
            }
            _ => {
                flow(op, &mut self.all, d);
                if let Some(r) = def(op) {
                    self.track(r);
                }
            }
        }
    }

    /// Sets register `r`'s fact.
    fn set(&mut self, r: u32, fact: Fact) {
        self.all[r as usize] = fact;
        self.track(r);
    }

    fn track(&mut self, r: u32) {
        if holds_memory(self.all[r as usize]) {
            self.held.push(r);
        }
    }

    /// Rebuilds `held` after the facts changed wholesale.
    fn rescan(&mut self) {
        let all = &self.all;
        self.held.clear();
        self.held
            .extend((0..all.len() as u32).filter(|&r| holds_memory(all[r as usize])));
    }
}

/// Whether `fact` is a claim about memory, which a store may kill.
fn holds_memory(fact: Fact) -> bool {
    matches!(fact, Fact::Mem { .. })
}

/// The defined register of `op`, if any (only `Store` has none).
fn def(op: &Op) -> Option<u32> {
    Some(op.regs()[0]).filter(|&d| d != NO_REG)
}

/// Visits every register `op` reads.
fn uses(op: &Op, f: impl FnMut(u32)) {
    op.regs()[1..]
        .iter()
        .copied()
        .filter(|&r| r != NO_REG)
        .for_each(f)
}

fn known(facts: &[Fact], r: u32) -> Option<Reg> {
    match facts[r as usize] {
        Fact::Known(bytes) => Some(bytes),
        _ => None,
    }
}

fn splice_bytes(a: &Reg, b: &Reg, point: u8) -> Reg {
    let p = point as usize;
    let mut out = [0u8; 16];
    out[..p].copy_from_slice(&a[..p]);
    out[p..].copy_from_slice(&b[p..]);
    out
}

fn perm_bytes(a: &Reg, b: &Reg, pattern: &[u8; 16]) -> Reg {
    let mut pair = [0u8; 32];
    pair[..16].copy_from_slice(a);
    pair[16..].copy_from_slice(b);
    let mut out = [0u8; 16];
    for (t, &sel) in pattern.iter().enumerate() {
        out[t] = pair[sel as usize];
    }
    out
}

/// Byte `i` of a register that `f` describes, if it is a memory byte:
/// its array, step and offset, and the bounds-checked span it came
/// from.
fn memory_byte(f: Fact, i: u8, d: &Domain) -> Option<(u32, i64, i64, (i64, i64))> {
    let Fact::Mem {
        arr,
        shape,
        base,
        step,
    } = f
    else {
        return None;
    };
    let Shape { rel, span } = d.shapes[shape as usize];
    Some((
        arr,
        step,
        base + rel[i as usize] as i64,
        (base + span.0 as i64, base + span.1 as i64),
    ))
}

/// The memory bytes `vperm(a, b, pattern)` selects — array, step, base
/// and shape — defined when every byte it selects is a memory byte of
/// one array at one step and the spans those bytes came from make one
/// contiguous range, every byte of which was read by a bounds-checked
/// load, in every iteration.
fn select(
    facts: &[Fact],
    a: u32,
    b: u32,
    pattern: &[u8; 16],
    d: &Domain,
) -> Option<(u32, i64, i64, Shape)> {
    let mut offsets = [0i64; 16];
    let (mut source, mut span) = (None, None);
    for (t, &sel) in pattern.iter().enumerate() {
        let (f, i) = if sel < 16 { (a, sel) } else { (b, sel - 16) };
        let (arr, step, offset, (lo, hi)) = memory_byte(facts[f as usize], i, d)?;
        let (l, h) = span.get_or_insert((lo, hi));
        if *source.get_or_insert((arr, step)) != (arr, step) || lo > *h || hi < *l {
            return None;
        }
        (*l, *h) = ((*l).min(lo), (*h).max(hi));
        offsets[t] = offset;
    }
    let ((arr, step), (lo, hi)) = (source?, span?);
    let base = *offsets.iter().min()?;
    let rel = offsets.map(|o| i8::try_from(o - base).ok());
    let span = (
        i16::try_from(lo - base).ok()?,
        i16::try_from(hi - base).ok()?,
    );
    rel.iter().all(Option::is_some).then(|| {
        let rel = rel.map(|r| r.unwrap_or(0));
        (arr, step, base, Shape { rel, span })
    })
}

/// Transfer function: updates `facts` across one op. Stores kill every
/// memory fact of the stored array (registers are unaffected; memory
/// facts are claims about memory). Cross-array kills are unnecessary
/// because array guarded regions never overlap.
fn flow(op: &Op, facts: &mut [Fact], d: &mut Domain) {
    let elem = d.elem;
    match *op {
        Op::Load {
            dst,
            arr,
            start,
            step,
        }
        | Op::LoadFused {
            dst,
            arr,
            start,
            step,
        } => {
            facts[dst as usize] = Fact::Mem {
                arr,
                shape: WINDOW,
                base: start,
                step,
            };
        }
        Op::Store { arr, .. } => {
            for f in facts.iter_mut() {
                if matches!(f, Fact::Mem { arr: a, .. } if *a == arr) {
                    *f = Fact::Bottom;
                }
            }
        }
        Op::Shift { dst, a, b, amt } => facts[dst as usize] = d.shift(facts, a, b, amt),
        Op::Splice { dst, a, b, point } => {
            facts[dst as usize] = match (known(facts, a), known(facts, b)) {
                (Some(x), Some(y)) => Fact::Known(splice_bytes(&x, &y, point)),
                _ => Fact::Bottom,
            };
        }
        Op::Perm {
            dst,
            a,
            b,
            ref pattern,
        } => facts[dst as usize] = d.perm(facts, a, b, pattern),
        Op::Splat { dst, bytes } => facts[dst as usize] = Fact::Known(bytes),
        Op::Bin { dst, op, a, b } => {
            facts[dst as usize] = match (known(facts, a), known(facts, b)) {
                (Some(x), Some(y)) => Fact::Known(lanes::bin(op, elem, &x, &y)),
                _ => Fact::Bottom,
            };
        }
        Op::BinSplat {
            dst,
            op,
            a,
            ref imm,
            imm_left,
        } => {
            facts[dst as usize] = match known(facts, a) {
                Some(x) if imm_left => Fact::Known(lanes::bin(op, elem, imm, &x)),
                Some(x) => Fact::Known(lanes::bin(op, elem, &x, imm)),
                None => Fact::Bottom,
            };
        }
        Op::Un { dst, op, a } => {
            facts[dst as usize] = match known(facts, a) {
                Some(x) => Fact::Known(lanes::un(op, elem, &x)),
                None => Fact::Bottom,
            };
        }
        Op::Copy { dst, src } => facts[dst as usize] = facts[src as usize],
    }
}

/// The back edge's fact: an end-of-iteration-`k` fact re-expressed at
/// the start of iteration `k + 1` (`base -= step`).
fn translate(mut end: Fact) -> Fact {
    if let Fact::Mem { base, step, .. } = &mut end {
        *base -= *step;
    }
    end
}

/// The loop-entry fixpoint's tables, reused by every round of both
/// loops and by every bake on the thread.
#[derive(Default)]
struct Fixpoint {
    /// The slice of the loop the live-in registers' end facts depend on
    /// — the ops their last values flow through, and every store — with
    /// the registers it names renamed onto local ids.
    slice: Vec<Op>,
    /// By local id: the register. The loop's live-in registers — those
    /// it reads before it writes them — come first, `live` of them, in
    /// the order it first reads them.
    global: Vec<u32>,
    live: usize,
    /// By register: its local id, [`NO_REG`] if it has none.
    local: Vec<u32>,
    /// By register: [`live_in`]'s scratch, then needed by the slice.
    marks: Vec<bool>,
    /// By local id, the fall-in facts and the facts flowed through the
    /// slice once a round; by live-in register, this round's entry facts
    /// and the next round's.
    facts: Vec<Fact>,
    /// The dense fixpoint's entry, end and next facts.
    dense: [Vec<Fact>; 3],
}

impl Fixpoint {
    /// Finds `ops`' live-in registers and the slice their end facts
    /// depend on, and gives each register the slice names a local id.
    fn slice(&mut self, ops: &[Op], nregs: usize) {
        let Fixpoint {
            slice,
            global,
            live,
            local,
            marks,
            ..
        } = self;
        global.reserve(3 * ops.len()); // an op names at most three
        live_in(ops, nregs, marks, global);
        *live = global.len();
        // Backwards from the end of the loop: an op stays if it is the
        // last def before the end (or before a staying op's read) of a
        // register the slice needs. A store's kill needs no operand.
        marks.fill(false);
        for &r in global.iter() {
            marks[r as usize] = true;
        }
        slice.clear();
        slice.reserve(ops.len());
        for op in ops.iter().rev() {
            match def(op) {
                Some(d) if marks[d as usize] => {
                    marks[d as usize] = false;
                    uses(op, |r| marks[r as usize] = true);
                }
                None => {}
                Some(_) => continue,
            }
            slice.push(op.clone());
        }
        slice.reverse();
        local.clear();
        local.resize(nregs, NO_REG);
        for (id, &r) in global.iter().enumerate() {
            local[r as usize] = id as u32;
        }
        for op in slice.iter_mut() {
            for r in op.regs() {
                if r != NO_REG && local[r as usize] == NO_REG {
                    local[r as usize] = global.len() as u32;
                    global.push(r);
                }
            }
            op.rename(|r| local[r as usize]);
        }
    }
}

/// Loop-entry facts, written over the fall-in facts in `facts`: the
/// greatest assignment satisfying `entry = meet(pre,
/// translate(flow(entry)))`, where [`translate`] re-expresses an
/// end-of-iteration-`k` fact at the start of iteration `k + 1`. Any
/// fixed point is sound by induction on the iteration number: valid at
/// `k = 0` through the fall-in component, at `k ≥ 1` through the
/// back-edge component. Bails to all-`Bottom` (no information, no
/// rewrites) if 64 rounds don't converge.
///
/// Only the loop's live-in registers — those it reads before it writes
/// them — take part; every other register enters with its fall-in fact.
/// A register the loop writes before it reads never shows its entry
/// fact, and one it neither reads nor writes leaves the loop with its
/// fall-in fact less whatever the loop's stores kill — which the
/// rewrite's own [`flow`] applies. Each round flows only the slice of
/// the loop the live-in registers' end facts depend on
/// ([`Fixpoint::slice`]), over those registers alone. The dense
/// fixpoint over every register may take one round more, to settle the
/// registers this one does not track: at the last round it decides
/// whether the bail is taken.
fn loop_entry(facts: &mut Facts, ops: &[Op], d: &mut Domain, fp: &mut Fixpoint) {
    fp.slice(ops, facts.all.len());
    let (n, live) = (fp.global.len(), fp.live);
    fp.facts.clear();
    fp.facts.reserve(2 * n + 2 * live);
    fp.facts
        .extend(fp.global.iter().map(|&r| facts.all[r as usize]));
    fp.facts.extend_from_within(..n);
    fp.facts.extend_from_within(..live);
    fp.facts.extend_from_within(..live);
    let (pre, end) = fp.facts.split_at_mut(n);
    let (end, entry) = end.split_at_mut(n);
    let (mut entry, mut next) = entry.split_at_mut(live);
    let converged = (0..64).find(|_| {
        end.copy_from_slice(pre);
        end[..live].copy_from_slice(entry);
        for op in &fp.slice {
            flow(op, end, d);
        }
        for ((next, &pre), &end) in next.iter_mut().zip(&pre[..live]).zip(&*end) {
            *next = d.meet(pre, translate(end));
        }
        let done = next == entry;
        std::mem::swap(&mut entry, &mut next);
        done
    });
    // Checked before `facts` become the entry facts: the dense fixpoint
    // starts from the fall-in facts too.
    #[cfg(debug_assertions)]
    let dense = dense_fixpoint(&facts.all, ops, d, &mut fp.dense);
    let bails = match converged {
        Some(63) => !dense_fixpoint(&facts.all, ops, d, &mut fp.dense),
        Some(_) => false,
        None => true,
    };
    if bails {
        facts.all.fill(Fact::Bottom);
    } else {
        for (&r, &f) in fp.global.iter().zip(&*entry) {
            facts.set(r, f);
        }
    }
    #[cfg(debug_assertions)]
    for &r in &fp.global[..live] {
        let want = if dense {
            fp.dense[0][r as usize]
        } else {
            Fact::Bottom
        };
        assert_eq!(
            facts.all[r as usize], want,
            "loop-entry fact of v{r} in {ops:?}"
        );
    }
}

/// The fixpoint [`loop_entry`] describes, computed densely — over
/// every register, from fall-in facts `pre` — into `entry`: whether it
/// converged in 64 rounds. The reference the sparse one is checked
/// against in debug builds, and the judge of its last round.
#[cold]
#[inline(never)]
fn dense_fixpoint(
    pre: &[Fact],
    ops: &[Op],
    d: &mut Domain,
    [entry, end, next]: &mut [Vec<Fact>; 3],
) -> bool {
    entry.clear();
    entry.extend_from_slice(pre);
    for _ in 0..64 {
        end.clear();
        end.extend_from_slice(entry);
        for op in ops {
            flow(op, end, d);
        }
        next.clear();
        next.extend(
            pre.iter()
                .zip(end.iter())
                .map(|(&p, &b)| d.meet(p, translate(b))),
        );
        if next == entry {
            return true;
        }
        std::mem::swap(entry, next);
    }
    false
}

/// Re-expresses per-iteration facts as facts that hold after the loop
/// completes `iters` iterations (memory facts pinned to the last
/// iteration).
/// Only claims about memory change, so only the registers `held` names
/// are visited; one named twice is pinned once, as pinning is
/// idempotent.
fn concretize(facts: &mut Facts, iters: i64) {
    let Facts { all, held } = facts;
    for &r in held.iter() {
        if let Fact::Mem { base, step, .. } = &mut all[r as usize] {
            (*base, *step) = (*base + (iters - 1) * *step, 0);
        }
    }
}

/// One forward pass over a section: rewrites shifts whose result is a
/// window into fused loads, perms of gathers into perms of two fused
/// loads ([`compose`]) and known-operand arithmetic into splat/immediate
/// forms, threading `facts` through every (rewritten) op. New registers
/// come from `next`.
fn rewrite(
    ops: &mut Vec<Op>,
    facts: &mut Facts,
    next: &mut u32,
    d: &mut Domain,
    st: &mut FusionStats,
    section: &'static str,
    ev: &mut Vec<FusionEvent>,
) {
    if ops.iter().any(|op| matches!(op, Op::Perm { .. })) {
        rewrite_gathers(ops, &mut facts.all, next, d, st, section, ev);
        facts.rescan();
        return;
    }
    for op in ops.iter_mut() {
        if let Some(new) = simplify(op, &facts.all, d) {
            ev.push(FusionEvent {
                section,
                kind: record(&new, &facts.all, st),
            });
            *op = new;
        }
        facts.flow(op, d);
    }
}

/// [`rewrite`] for a section with perms, which may compose: the one
/// loop that reads the ops before the current one and inserts loads.
#[cold]
#[inline(never)]
fn rewrite_gathers(
    ops: &mut Vec<Op>,
    facts: &mut Vec<Fact>,
    next: &mut u32,
    d: &mut Domain,
    st: &mut FusionStats,
    section: &'static str,
    ev: &mut Vec<FusionEvent>,
) {
    // Loads composition inserts, by the index of the op they precede.
    let mut loads: Vec<(usize, Op)> = Vec::new();
    for at in 0..ops.len() {
        let new = match ops[at] {
            Op::Perm {
                dst,
                a,
                b,
                ref pattern,
            } => compose(
                &ops[..at],
                &mut loads,
                at,
                facts,
                next,
                d,
                (dst, a, b, pattern),
            ),
            ref op => simplify(op, facts, d),
        };
        if let Some(new) = new {
            ev.push(FusionEvent {
                section,
                kind: record(&new, facts, st),
            });
            ops[at] = new;
        }
        flow(&ops[at], facts, d);
    }
    insert(ops, loads);
}

/// The rewrite of a shift whose result is a window into a fused load,
/// or of known-operand arithmetic into splat/immediate forms.
fn simplify(op: &Op, facts: &[Fact], d: &mut Domain) -> Option<Op> {
    let elem = d.elem;
    match *op {
        Op::Shift { dst, a, b, amt } => match d.shift(facts, a, b, amt) {
            Fact::Mem {
                arr,
                shape: WINDOW,
                base,
                step,
            } => Some(Op::LoadFused {
                dst,
                arr,
                start: base,
                step,
            }),
            Fact::Known(bytes) => Some(Op::Splat { dst, bytes }),
            _ => None,
        },
        Op::Bin { dst, op: o, a, b } => match (known(facts, a), known(facts, b)) {
            (Some(x), Some(y)) => Some(Op::Splat {
                dst,
                bytes: lanes::bin(o, elem, &x, &y),
            }),
            (Some(x), None) => Some(Op::BinSplat {
                dst,
                op: o,
                a: b,
                imm: x,
                imm_left: true,
            }),
            (None, Some(y)) => Some(Op::BinSplat {
                dst,
                op: o,
                a,
                imm: y,
                imm_left: false,
            }),
            (None, None) => None,
        },
        Op::Un { dst, op: o, a } => known(facts, a).map(|x| Op::Splat {
            dst,
            bytes: lanes::un(o, elem, &x),
        }),
        _ => None,
    }
}

/// Counts the rewrite to `new` in `st` and names it for the event list.
fn record(new: &Op, facts: &[Fact], st: &mut FusionStats) -> FusionEventKind {
    match *new {
        Op::LoadFused { arr, .. } => {
            st.fused_loads += 1;
            FusionEventKind::LoadFused { arr }
        }
        Op::Perm { a, .. } => {
            st.composed += 1;
            match facts[a as usize] {
                Fact::Mem { arr, .. } => FusionEventKind::GatherComposed { arr },
                _ => unreachable!("a composed perm reads two loads"),
            }
        }
        Op::BinSplat { .. } => {
            st.splat_ops += 1;
            FusionEventKind::ImmediateForm
        }
        _ => {
            st.splat_ops += 1;
            FusionEventKind::FoldedToSplat
        }
    }
}

/// Inserts each of `loads` before the op its index names, in place:
/// from the last, so the indices still to come stay valid.
fn insert(ops: &mut Vec<Op>, loads: Vec<(usize, Op)>) {
    for (at, load) in loads.into_iter().rev() {
        ops.insert(at, load);
    }
}

/// The rewrite of `dst = vperm(a, b, pattern)` at index `at`, when it
/// reads a gather (of one array, at one step) whose 16 offsets fit a
/// 32-byte window `[lo, lo + 32)` inside the gather's span: the same
/// perm of the window's two vectors. Takes a pair of registers this
/// section already loaded with such a window — the highest — or loads
/// the highest window into two new registers, recorded in `loads` and
/// flowed through `facts` before the perm.
fn compose(
    before: &[Op],
    loads: &mut Vec<(usize, Op)>,
    at: usize,
    facts: &mut Vec<Fact>,
    next: &mut u32,
    d: &mut Domain,
    (dst, a, b, pattern): (u32, u32, u32, &[u8; 16]),
) -> Option<Op> {
    let reads_gather = |&sel: &u8| {
        matches!(
            facts[if sel < 16 { a } else { b } as usize],
            Fact::Mem { shape, .. } if shape != WINDOW
        )
    };
    if !pattern.iter().any(reads_gather) {
        return None;
    }
    let (arr, step, base, Shape { rel, span }) = select(facts, a, b, pattern, d)?;
    let last = base + *rel.iter().max()? as i64;
    let (low, high) = (
        (last + 1 - 2 * V).max(base + span.0 as i64),
        base.min(base + span.1 as i64 - 2 * V),
    );
    // A register this section loaded with `[start, start + 16)` of the
    // array that still holds it.
    let held = |start: i64| {
        let window = Fact::Mem {
            arr,
            shape: WINDOW,
            base: start,
            step,
        };
        before
            .iter()
            .chain(loads.iter().map(|(_, op)| op))
            .find_map(|op| match *op {
                Op::Load {
                    dst,
                    arr: x,
                    start: s,
                    step: t,
                }
                | Op::LoadFused {
                    dst,
                    arr: x,
                    start: s,
                    step: t,
                } if (x, s, t) == (arr, start, step) && facts[dst as usize] == window => Some(dst),
                _ => None,
            })
    };
    let (lo, x, y) = match (low..=high)
        .rev()
        .find_map(|lo| Some((lo, held(lo)?, held(lo + V)?)))
    {
        Some(pair) => pair,
        None if low <= high => {
            let (x, y) = (*next, *next + 1);
            *next += 2;
            facts.resize(*next as usize, Fact::Bottom);
            for (r, start) in [(x, high), (y, high + V)] {
                let load = Op::LoadFused {
                    dst: r,
                    arr,
                    start,
                    step,
                };
                flow(&load, facts, d);
                loads.push((at, load));
            }
            (high, x, y)
        }
        None => return None,
    };
    let composed = rel.map(|r| (base + r as i64 - lo) as u8);
    ((x, y, &composed) != (a, b, pattern)).then_some(Op::Perm {
        dst,
        a: x,
        b: y,
        pattern: composed,
    })
}

/// What [`hoist`] knows of one register of the loop it hoists from.
#[derive(Clone, Copy, Default)]
struct Hoisting {
    /// The ops that define it.
    defs: u32,
    /// Read before (or without) being defined: live into the loop.
    upward: bool,
    /// Defined by a hoisted op.
    hoisted: bool,
}

/// [`hoist`]'s tables, for both loops of every bake on the thread.
#[derive(Default)]
struct Hoister {
    /// By register.
    regs: Vec<Hoisting>,
    /// The byte range each store covers across the whole loop.
    stores: Vec<(u32, i64, i64)>,
    /// [`live_in`]'s scratch and result.
    seen: Vec<bool>,
    live: Vec<u32>,
    /// The ops hoisted, in order, until the header takes its copy.
    header: Vec<Op>,
}

/// Moves iteration-invariant ops out of a loop section into a header
/// executed once (the caller guarantees the loop runs at least once),
/// collected in `h.header`.
/// An op is hoistable when it defines a register exactly once, that
/// register is not read before its definition (so iteration 0 sees the
/// same value either way), every operand is loop-invariant (never
/// defined in the loop, or defined by an already-hoisted op), and — for
/// loads — the address does not advance and no store in the loop
/// touches the loaded window during any iteration.
fn hoist(
    ops: &mut Vec<Op>,
    iters: i64,
    nregs: usize,
    h: &mut Hoister,
    st: &mut FusionStats,
    section: &'static str,
    ev: &mut Vec<FusionEvent>,
) {
    let Hoister {
        regs,
        stores,
        seen,
        live,
        header,
    } = h;
    regs.clear();
    regs.resize(nregs, Hoisting::default());
    live_in(ops, nregs, seen, live);
    for &r in live.iter() {
        regs[r as usize].upward = true;
    }
    for d in ops.iter().filter_map(def) {
        regs[d as usize].defs += 1;
    }
    stores.clear();
    stores.extend(ops.iter().filter_map(|op| match *op {
        Op::Store {
            arr, start, step, ..
        } => {
            let last = start + (iters - 1) * step;
            Some((arr, start.min(last), start.max(last) + 16))
        }
        _ => None,
    }));
    let load_invariant = |arr: u32, start: i64, step: i64| {
        step == 0
            && !stores
                .iter()
                .any(|&(sa, lo, hi)| sa == arr && start < hi && lo < start + 16)
    };

    header.clear();
    ops.retain(|op| {
        let can = match def(op) {
            Some(d) if regs[d as usize].defs == 1 && !regs[d as usize].upward => {
                let mut invariant_uses = true;
                uses(op, |r| {
                    let reg = regs[r as usize];
                    if reg.defs != 0 && !reg.hoisted {
                        invariant_uses = false;
                    }
                });
                invariant_uses
                    && match *op {
                        Op::Load {
                            arr, start, step, ..
                        }
                        | Op::LoadFused {
                            arr, start, step, ..
                        } => load_invariant(arr, start, step),
                        _ => true,
                    }
            }
            _ => false,
        };
        if can {
            regs[def(op).expect("hoisted ops define a register") as usize].hoisted = true;
            st.hoisted += 1;
            header.push(op.clone());
        }
        !can
    });
    if !header.is_empty() {
        ev.push(FusionEvent {
            section,
            kind: FusionEventKind::Hoisted {
                count: header.len(),
            },
        });
    }
}

/// What [`dce`] knows of one register.
#[derive(Clone, Copy, Default)]
struct Liveness {
    /// Live at the point the sweep has reached.
    live: bool,
    /// Live after the looping section being swept.
    after: bool,
    /// Read by that section before it is defined, as of the last
    /// [`upward_uses`].
    upward: bool,
}

/// [`dce`]'s tables, for every bake on the thread.
#[derive(Default)]
struct Sweep {
    /// By register.
    regs: Vec<Liveness>,
    /// [`live_in`]'s scratch and result.
    scratch: (Vec<bool>, Vec<u32>),
    /// By op of the section swept: whether it stays.
    keep: Vec<bool>,
}

/// Marks in `regs` the registers `ops` read before (re)defining them —
/// the values a looping section needs live on entry, [`live_in`] — and
/// returns whether that set changed. `(seen, live)` is [`live_in`]'s
/// scratch.
fn upward_uses(
    ops: &[Op],
    regs: &mut [Liveness],
    (seen, live): &mut (Vec<bool>, Vec<u32>),
) -> bool {
    live_in(ops, regs.len(), seen, live);
    let was = regs.iter().filter(|r| r.upward).count();
    let changed = live.len() != was || live.iter().any(|&r| !regs[r as usize].upward);
    regs.iter_mut().for_each(|r| r.upward = false);
    for &r in live.iter() {
        regs[r as usize].upward = true;
    }
    changed
}

/// Global dead-code elimination: one backward liveness sweep over the
/// kernel's six sections in execution order, each section's live-in
/// feeding the previous section's live-out. A looping section
/// additionally keeps its own upward-exposed uses live (a value may feed
/// the next iteration), so it is swept again whenever a deleted op was
/// what left a register upward-exposed: the op defining it may now be
/// dead too. This sequential propagation is sound because every
/// non-empty section executes at least once (a loop that never runs
/// bakes empty, and so does its header), so a register a section
/// unconditionally redefines really does kill the incoming value. Every
/// def-carrying op is pure, so any op whose result is dead can go;
/// stores define nothing and are never removed. A section's live-out
/// depends only on the sections after it, so once the sweep has passed
/// a section it is final: fused-away load/copy chains unravel fully in
/// one pass.
fn dce(
    sections: &mut [Section; 6],
    nregs: usize,
    sweep: &mut Sweep,
    st: &mut FusionStats,
    ev: &mut Vec<FusionEvent>,
) {
    let Sweep {
        regs,
        scratch,
        keep,
    } = sweep;
    regs.clear();
    regs.resize(nregs, Liveness::default());
    let mut per_section = [0; 6];
    for (section, count) in sections.iter_mut().zip(&mut per_section).rev() {
        let ops = &mut section.ops;
        let looped = section.iters > 1;
        if looped {
            regs.iter_mut().for_each(|r| r.after = r.live);
            upward_uses(ops, regs, scratch);
        }
        loop {
            if looped {
                regs.iter_mut().for_each(|r| r.live = r.after | r.upward);
            }
            keep.clear();
            keep.resize(ops.len(), true);
            // Whether a deleted op read a register upward-exposed.
            let (mut removed, mut exposed) = (0, false);
            for (idx, op) in ops.iter().enumerate().rev() {
                if let Some(d) = def(op) {
                    if !regs[d as usize].live {
                        keep[idx] = false;
                        removed += 1;
                        uses(op, |r| exposed |= regs[r as usize].upward);
                        continue;
                    }
                    regs[d as usize].live = false;
                }
                uses(op, |r| regs[r as usize].live = true);
            }
            *count += removed;
            if removed == 0 {
                break;
            }
            let mut it = keep.iter();
            ops.retain(|_| *it.next().expect("keep mask matches ops len"));
            // The sweep read only kept ops: it is final unless a deleted
            // op was the one that made a register upward-exposed. (A
            // deleted def never exposes a read: the read would have made
            // it live.)
            if !looped || !exposed || !upward_uses(ops, regs, scratch) {
                break;
            }
        }
    }
    for (section, count) in sections.iter().zip(per_section) {
        st.eliminated += count;
        if count > 0 {
            // Events name a header `pair header`, the listing `pair.header`.
            let name = match section.role {
                "pair.header" => "pair header",
                "body.header" => "body header",
                role => role,
            };
            ev.push(FusionEvent {
                section: name,
                kind: FusionEventKind::Eliminated { count },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem() -> ScalarType {
        ScalarType::ALL
            .into_iter()
            .find(|t| t.size() == 4 && t.is_signed())
            .expect("i32 exists")
    }

    fn run(
        prologue: &mut Vec<Op>,
        pair: &mut Vec<Op>,
        pair_iters: i64,
        body: &mut Vec<Op>,
        body_iters: i64,
        epilogue: &mut Vec<Op>,
        nregs: usize,
    ) -> (Vec<Op>, Vec<Op>, FusionStats) {
        let mut sections = Section::plan(pair_iters, body_iters);
        let mut baked = [(0, prologue), (2, pair), (4, body), (5, epilogue)];
        for (s, ops) in &mut baked {
            sections[*s].ops = std::mem::take(*ops);
        }
        let (stats, _) = optimize(
            &mut sections,
            &mut { nregs },
            elem(),
            &mut Tables::default(),
        );
        for (s, ops) in baked {
            *ops = std::mem::take(&mut sections[s].ops);
        }
        let [_, pair_header, _, body_header, ..] = sections;
        (pair_header.ops, body_header.ops, stats)
    }

    /// `body` as a loop of 8 iterations with nothing around it.
    fn fuse_body(body: &mut Vec<Op>, nregs: usize) -> FusionStats {
        run(
            &mut Vec::new(),
            &mut Vec::new(),
            0,
            body,
            8,
            &mut Vec::new(),
            nregs,
        )
        .2
    }

    const B: i64 = 1000;

    fn perm(dst: u32, a: u32, b: u32, pattern: [u8; 16]) -> Op {
        Op::Perm { dst, a, b, pattern }
    }

    fn load(dst: u32, start: i64) -> Op {
        Op::Load {
            dst,
            arr: 0,
            start,
            step: 32,
        }
    }

    /// Bytes `4·e..4·e + 4` for each element `e` of `elems`, then
    /// bytes `from..` to fill the register.
    fn pick(elems: &[u8], from: u8) -> [u8; 16] {
        let mut out: [u8; 16] = std::array::from_fn(|i| from + i as u8);
        for (k, &e) in elems.iter().enumerate() {
            for j in 0..4 {
                out[4 * k + j] = 4 * e + j as u8;
            }
        }
        out
    }

    /// `deinterleave`'s stride-2 gather of the even (`odd = 0`) or odd
    /// `i32` elements of `arr0[B..B + 32)`, as codegen emits it: three
    /// chunk loads (`B - 8`, `B + 8`, `B + 24`) and a chain of three
    /// perms, the last into register `d + 5`.
    fn chain(d: u32, odd: u8) -> Vec<Op> {
        vec![
            load(d, B - 8),
            perm(d + 1, d, d, pick(&[6 + odd], 1)),
            load(d + 2, B + 8),
            perm(d + 3, d + 1, d + 2, pick(&[0, 4 + odd, 6 + odd], 3)),
            load(d + 4, B + 24),
            perm(d + 5, d + 3, d + 4, pick(&[0, 1, 2, 4 + odd], 4)),
        ]
    }

    #[test]
    fn a_perm_chain_over_adjacent_chunks_composes_to_two_loads_and_one_perm() {
        let mut body = chain(0, 0);
        body.push(Op::Store {
            src: 5,
            arr: 1,
            start: 4000,
            step: 16,
        });
        let st = fuse_body(&mut body, 6);
        assert_eq!(
            (st.composed, st.fused_loads, st.eliminated),
            (2, 0, 5),
            "{body:?}"
        );
        let even: [u8; 16] = std::array::from_fn(|i| (i / 4 * 8 + i % 4) as u8);
        assert_eq!(
            body,
            vec![
                Op::LoadFused {
                    dst: 6,
                    arr: 0,
                    start: B,
                    step: 32
                },
                Op::LoadFused {
                    dst: 7,
                    arr: 0,
                    start: B + 16,
                    step: 32
                },
                perm(5, 6, 7, even),
                Op::Store {
                    src: 5,
                    arr: 1,
                    start: 4000,
                    step: 16
                },
            ]
        );
    }

    #[test]
    fn even_and_odd_gathers_share_their_loads() {
        let mut body = chain(0, 0);
        body.extend(chain(6, 1));
        body.push(Op::Bin {
            dst: 12,
            op: simdize_ir::BinOp::Add,
            a: 5,
            b: 11,
        });
        body.push(Op::Store {
            src: 12,
            arr: 1,
            start: 4000,
            step: 16,
        });
        let st = fuse_body(&mut body, 13);
        assert_eq!(st.composed, 4);
        let loads: Vec<&Op> = body
            .iter()
            .filter(|op| matches!(op, Op::Load { .. } | Op::LoadFused { .. }))
            .collect();
        assert_eq!(
            loads,
            [
                &Op::LoadFused {
                    dst: 13,
                    arr: 0,
                    start: B,
                    step: 32
                },
                &Op::LoadFused {
                    dst: 14,
                    arr: 0,
                    start: B + 16,
                    step: 32
                }
            ]
        );
        let perms: Vec<&Op> = body
            .iter()
            .filter(|op| matches!(op, Op::Perm { .. }))
            .collect();
        assert!(
            matches!(
                perms[..],
                [Op::Perm { a: 13, b: 14, .. }, Op::Perm { a: 13, b: 14, .. }]
            ),
            "{body:?}"
        );
    }

    #[test]
    fn a_perm_with_a_contiguous_result_stays_a_perm() {
        // Bytes `4..20` of two adjacent chunks: contiguous offsets, but
        // in the chunks' 32-byte span, so not a window to fuse.
        let mut body = vec![
            load(0, B),
            load(1, B + 16),
            perm(2, 0, 1, std::array::from_fn(|i| 4 + i as u8)),
            Op::Store {
                src: 2,
                arr: 1,
                start: 4000,
                step: 16,
            },
        ];
        let before = body.clone();
        let st = fuse_body(&mut body, 3);
        assert_eq!(st.fused_loads, 0);
        assert_eq!(body, before);
    }

    #[test]
    fn a_shift_of_two_gathers_is_not_rewritten() {
        // The even and odd gathers, joined by a shift rather than an
        // add: the shift's bytes are a gather, not a window, so it stays
        // as the add does, and both chains compose the same way.
        let joined = |join: Op| {
            let mut body = chain(0, 0);
            body.extend(chain(6, 1));
            body.push(join);
            body.push(Op::Store {
                src: 12,
                arr: 1,
                start: 4000,
                step: 16,
            });
            let st = fuse_body(&mut body, 13);
            (body, st)
        };
        let shift = Op::Shift {
            dst: 12,
            a: 5,
            b: 11,
            amt: 4,
        };
        let add = Op::Bin {
            dst: 12,
            op: simdize_ir::BinOp::Add,
            a: 5,
            b: 11,
        };
        let (shifted, st) = joined(shift.clone());
        let (added, want) = joined(add.clone());
        assert_eq!((st, st.fused_loads), (want, 0));
        let swap = |op: &Op| {
            if *op == add {
                shift.clone()
            } else {
                op.clone()
            }
        };
        assert_eq!(shifted, added.iter().map(swap).collect::<Vec<_>>());
    }

    #[test]
    fn a_gather_spanning_more_than_32_bytes_stays_as_it_is() {
        // Stride 4 over i32: elements 16 bytes apart, four chunks.
        let mut body = vec![
            load(0, B),
            load(1, B + 16),
            perm(2, 0, 1, pick(&[0, 4], 2)),
            load(3, B + 32),
            perm(4, 2, 3, pick(&[0, 1, 4], 3)),
            load(5, B + 48),
            perm(6, 4, 5, pick(&[0, 1, 2, 4], 4)),
            Op::Store {
                src: 6,
                arr: 1,
                start: 4000,
                step: 16,
            },
        ];
        let before = body.clone();
        let st = fuse_body(&mut body, 7);
        assert_eq!((st.composed, st.eliminated), (0, 0));
        assert_eq!(body, before);
    }

    #[test]
    fn a_store_to_the_array_between_the_loads_blocks_composition() {
        let mut body = chain(0, 0);
        body.insert(
            3,
            Op::Store {
                src: 1,
                arr: 0,
                start: 9000,
                step: 16,
            },
        );
        body.push(Op::Store {
            src: 5,
            arr: 1,
            start: 4000,
            step: 16,
        });
        let before = body.clone();
        let st = fuse_body(&mut body, 6);
        assert_eq!(st.composed, 0);
        assert_eq!(body, before);
    }

    #[test]
    fn the_composed_window_never_leaves_the_constituents_union() {
        // Two chunks, `[B - 8, B + 24)`; the gather reads bytes
        // `B + 2 .. B + 18`, so a window at its first byte would run 10
        // bytes past the union. The only window inside is the union,
        // which the chunk loads already hold.
        let spread: [u8; 16] = std::array::from_fn(|i| 10 + i as u8);
        let mut body = vec![
            load(0, B - 8),
            perm(1, 0, 0, spread),
            load(2, B + 8),
            perm(
                3,
                1,
                2,
                std::array::from_fn(|i| if i < 6 { i as u8 } else { 10 + i as u8 }),
            ),
            Op::Store {
                src: 3,
                arr: 1,
                start: 4000,
                step: 16,
            },
        ];
        let st = fuse_body(&mut body, 4);
        assert_eq!(st.composed, 1);
        for op in &body {
            if let Op::Load { start, .. } | Op::LoadFused { start, .. } = *op {
                assert!(
                    (B - 8..=B + 8).contains(&start),
                    "{op:?} leaves [B - 8, B + 24)"
                );
            }
        }
        assert!(
            matches!(
                body[..],
                [
                    _,
                    _,
                    Op::Perm {
                        dst: 3,
                        a: 0,
                        b: 2,
                        ..
                    },
                    _
                ]
            ),
            "{body:?}"
        );
    }

    #[test]
    fn rotation_loop_fuses_and_sheds_its_loads() {
        // The software-pipelined misaligned-stream idiom:
        //   prologue:  v0 = load arr0[100]
        //   body x4:   v1 = load arr0[116 + 16k]
        //              v2 = shift(v0, v1, 4)
        //              store arr1[200 + 16k], v2
        //              v0 = copy v1
        // The loop-entry fixpoint proves v0 holds arr0[100 + 16k], the
        // shift fuses to a load of arr0[104 + 16k], and the raw loads,
        // the rotation copy and the prologue load all die.
        let mut prologue = vec![Op::Load {
            dst: 0,
            arr: 0,
            start: 100,
            step: 0,
        }];
        let mut body = vec![
            Op::Load {
                dst: 1,
                arr: 0,
                start: 116,
                step: 16,
            },
            Op::Shift {
                dst: 2,
                a: 0,
                b: 1,
                amt: 4,
            },
            Op::Store {
                src: 2,
                arr: 1,
                start: 200,
                step: 16,
            },
            Op::Copy { dst: 0, src: 1 },
        ];
        let (pair_h, body_h, st) = run(
            &mut prologue,
            &mut Vec::new(),
            0,
            &mut body,
            4,
            &mut Vec::new(),
            3,
        );
        assert_eq!(st.fused_loads, 1);
        assert_eq!(st.eliminated, 3, "prologue load, body load, rotation copy");
        assert!(pair_h.is_empty() && body_h.is_empty());
        assert!(prologue.is_empty());
        assert_eq!(
            body,
            vec![
                Op::LoadFused {
                    dst: 2,
                    arr: 0,
                    start: 104,
                    step: 16
                },
                Op::Store {
                    src: 2,
                    arr: 1,
                    start: 200,
                    step: 16
                },
            ]
        );
    }

    #[test]
    fn store_to_same_array_blocks_fusion() {
        // Same rotation idiom, but the loop stores into the array it
        // reads: the store kills the window facts, so nothing fuses and
        // nothing is deleted.
        let mut prologue = vec![Op::Load {
            dst: 0,
            arr: 0,
            start: 100,
            step: 0,
        }];
        let mut body = vec![
            Op::Load {
                dst: 1,
                arr: 0,
                start: 116,
                step: 16,
            },
            Op::Shift {
                dst: 2,
                a: 0,
                b: 1,
                amt: 4,
            },
            Op::Store {
                src: 2,
                arr: 0,
                start: 200,
                step: 16,
            },
            Op::Copy { dst: 0, src: 1 },
        ];
        let before = body.clone();
        let (_, _, st) = run(
            &mut prologue,
            &mut Vec::new(),
            0,
            &mut body,
            4,
            &mut Vec::new(),
            3,
        );
        assert_eq!(st.fused_loads, 0);
        assert_eq!(st.eliminated, 0);
        assert_eq!(body, before);
        assert_eq!(prologue.len(), 1);
    }

    #[test]
    fn known_operand_binop_becomes_immediate_form() {
        //   body x8: v0 = splat(7)
        //            v1 = load arr0[96 + 16k]
        //            v2 = add(v0, v1)
        //            store arr1[192 + 16k], v2
        // The splat is a known fact, so the add carries it as an
        // immediate; the now-unused splat is first hoisted (it is
        // trivially invariant) and then deleted as dead.
        let imm = [7u8; 16];
        let mut body = vec![
            Op::Splat { dst: 0, bytes: imm },
            Op::Load {
                dst: 1,
                arr: 0,
                start: 96,
                step: 16,
            },
            Op::Bin {
                dst: 2,
                op: simdize_ir::BinOp::Add,
                a: 0,
                b: 1,
            },
            Op::Store {
                src: 2,
                arr: 1,
                start: 192,
                step: 16,
            },
        ];
        let (_, body_h, st) = run(
            &mut Vec::new(),
            &mut Vec::new(),
            0,
            &mut body,
            8,
            &mut Vec::new(),
            3,
        );
        assert_eq!(st.splat_ops, 1);
        assert!(body_h.is_empty(), "dead hoisted splat is deleted");
        assert_eq!(
            body,
            vec![
                Op::Load {
                    dst: 1,
                    arr: 0,
                    start: 96,
                    step: 16
                },
                Op::BinSplat {
                    dst: 2,
                    op: simdize_ir::BinOp::Add,
                    a: 1,
                    imm,
                    imm_left: true
                },
                Op::Store {
                    src: 2,
                    arr: 1,
                    start: 192,
                    step: 16
                },
            ]
        );
    }

    #[test]
    fn invariant_load_hoists_into_header() {
        //   body x8: v0 = load arr0[100]        (address never advances)
        //            v1 = load arr1[200 + 16k]
        //            v2 = max(v0, v1)
        //            store arr2[300 + 16k], v2
        let mut body = vec![
            Op::Load {
                dst: 0,
                arr: 0,
                start: 100,
                step: 0,
            },
            Op::Load {
                dst: 1,
                arr: 1,
                start: 200,
                step: 16,
            },
            Op::Bin {
                dst: 2,
                op: simdize_ir::BinOp::Max,
                a: 0,
                b: 1,
            },
            Op::Store {
                src: 2,
                arr: 2,
                start: 300,
                step: 16,
            },
        ];
        let (_, body_h, st) = run(
            &mut Vec::new(),
            &mut Vec::new(),
            0,
            &mut body,
            8,
            &mut Vec::new(),
            3,
        );
        assert_eq!(st.hoisted, 1);
        assert_eq!(
            body_h,
            vec![Op::Load {
                dst: 0,
                arr: 0,
                start: 100,
                step: 0
            }]
        );
        assert_eq!(body.len(), 3);
    }

    #[test]
    fn overlapping_store_pins_invariant_load() {
        // Same shape, but the loop stores over the "invariant" window:
        // the load must stay in the loop.
        let mut body = vec![
            Op::Load {
                dst: 0,
                arr: 0,
                start: 100,
                step: 0,
            },
            Op::Load {
                dst: 1,
                arr: 1,
                start: 200,
                step: 16,
            },
            Op::Bin {
                dst: 2,
                op: simdize_ir::BinOp::Max,
                a: 0,
                b: 1,
            },
            Op::Store {
                src: 2,
                arr: 0,
                start: 96,
                step: 16,
            },
        ];
        let (_, body_h, st) = run(
            &mut Vec::new(),
            &mut Vec::new(),
            0,
            &mut body,
            8,
            &mut Vec::new(),
            3,
        );
        assert_eq!(st.hoisted, 0);
        assert!(body_h.is_empty());
        assert_eq!(body.len(), 4);
    }

    #[test]
    fn epilogue_keeps_loop_results_alive() {
        // The loop's rotated register feeds the epilogue: the copy (and
        // its load) must survive DCE even though the loop itself no
        // longer reads them after fusion.
        let mut prologue = vec![Op::Load {
            dst: 0,
            arr: 0,
            start: 100,
            step: 0,
        }];
        let mut body = vec![
            Op::Load {
                dst: 1,
                arr: 0,
                start: 116,
                step: 16,
            },
            Op::Shift {
                dst: 2,
                a: 0,
                b: 1,
                amt: 4,
            },
            Op::Store {
                src: 2,
                arr: 1,
                start: 200,
                step: 16,
            },
            Op::Copy { dst: 0, src: 1 },
        ];
        let mut epilogue = vec![Op::Store {
            src: 0,
            arr: 1,
            start: 400,
            step: 0,
        }];
        let (_, _, st) = run(
            &mut prologue,
            &mut Vec::new(),
            0,
            &mut body,
            4,
            &mut epilogue,
            3,
        );
        assert_eq!(st.fused_loads, 1);
        // Only the prologue load dies: the loop's copy unconditionally
        // redefines v0 before the epilogue reads it, while the copy and
        // the raw load it reads stay to produce that value.
        assert_eq!(st.eliminated, 1);
        assert_eq!(body.len(), 4, "raw load is kept for the rotation copy");
        assert!(body.contains(&Op::Copy { dst: 0, src: 1 }));
    }
}
