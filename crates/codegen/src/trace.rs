//! Decision traces for SIMD code generation (the explainability
//! layer's view of §4).
//!
//! [`crate::generate_traced`] records the structural choices the code
//! generator makes — which bound formula applies, how each statement's
//! prologue and epilogue are shaped, which register-reuse scheme runs,
//! and what every post pass did — as a flat sequence of
//! [`CodegenEvent`]s. Together with the reorg placement trace this
//! lets a consumer (the `simdize-explain` crate) attribute every
//! emitted instruction to the decision that produced it.

use crate::options::ReuseMode;
use crate::sexpr::SExpr;
use crate::vir::{SimdProgram, VInst};
use std::fmt;

/// Which steady-state upper-bound formula the generator chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundFormula {
    /// eq. 13: everything known at compile time, the bound folds to a
    /// constant `ub − max(EpiSplice/D)`.
    Eq13,
    /// eq. 15: runtime alignment or trip count (or a reduction tail),
    /// the conservative `ub − (B − 1)` bound.
    Eq15,
}

impl fmt::Display for BoundFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundFormula::Eq13 => f.write_str("eq. 13"),
            BoundFormula::Eq15 => f.write_str("eq. 15"),
        }
    }
}

/// Static instruction counts per program section, counting through
/// [`VInst::Guarded`] bodies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionCounts {
    /// Instructions in the prologue.
    pub prologue: usize,
    /// Instructions in the steady-state body (unrolled pair body when
    /// present, else the single body).
    pub body: usize,
    /// Instructions in the epilogue.
    pub epilogue: usize,
}

impl SectionCounts {
    /// Counts the instructions of `program`, descending into guards.
    pub fn of(program: &SimdProgram) -> SectionCounts {
        fn count(insts: &[VInst]) -> usize {
            insts
                .iter()
                .map(|i| match i {
                    VInst::Guarded { body, .. } => count(body),
                    _ => 1,
                })
                .sum()
        }
        SectionCounts {
            prologue: count(program.prologue()),
            body: count(program.body_pair().unwrap_or_else(|| program.body())),
            epilogue: count(program.epilogue()),
        }
    }

    /// Total instructions over all sections.
    pub fn total(&self) -> usize {
        self.prologue + self.body + self.epilogue
    }
}

impl fmt::Display for SectionCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}p+{}b+{}e", self.prologue, self.body, self.epilogue)
    }
}

/// One structural decision made while generating SIMD code.
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenEvent {
    /// The steady-state loop bounds were chosen (eqs. 12–16).
    BoundsChosen {
        /// `LB = B` (eq. 12, address truncation makes peeling uniform).
        lower_bound: u64,
        /// The chosen upper bound expression.
        upper_bound: SExpr,
        /// Which formula produced it.
        formula: BoundFormula,
        /// The `ub > 3B` guard threshold below which the scalar
        /// fallback runs (§4.4).
        guard_min_trip: u64,
    },
    /// A statement's prologue iteration was peeled (Figure 9).
    ProloguePeeled {
        /// Statement index.
        stmt: usize,
        /// The ProSplice point (eq. 8); `None` for reductions, which
        /// initialize an accumulator instead of storing.
        prosplice: Option<SExpr>,
        /// Whether a load–splice–store partial store was needed
        /// (ProSplice ≠ 0); a fully aligned store writes directly.
        spliced: bool,
    },
    /// The register-reuse scheme applied to the steady body.
    ReuseApplied {
        /// Which scheme ran.
        mode: ReuseMode,
        /// Loop-carried `(old, second)` rotation chains created — each
        /// becomes one `Copy` at the bottom of the steady body.
        carried_chains: usize,
    },
    /// A statement's epilogue was shaped (Figure 9, eqs. 14/16).
    EpilogueForm {
        /// Statement index.
        stmt: usize,
        /// The EpiLeftOver byte count expression.
        leftover: SExpr,
        /// The EpiSplice point (`leftover mod V`).
        episplice: SExpr,
        /// Whether the `ELO ≥ V` / `ELO > 0` guards folded at compile
        /// time (leaving straight-line partial stores) or remain as
        /// runtime `Guarded` blocks.
        compile_time: bool,
    },
    /// A reduction's epilogue was generated: masked residue fold plus a
    /// log2(B) horizontal rotate-and-combine reduction.
    ReductionEpilogue {
        /// Statement index.
        stmt: usize,
        /// Residue elements (`ub mod B`) folded with a masked permute.
        residue: usize,
        /// Horizontal fold steps (`log2(B)` rotate+combine pairs).
        fold_steps: usize,
    },
    /// A post pass ran over the program (§5.5).
    PassApplied {
        /// Pass name (`lvn`, `pc`, `dce`, `unroll`).
        pass: &'static str,
        /// Instruction counts before.
        before: SectionCounts,
        /// Instruction counts after.
        after: SectionCounts,
    },
}

impl fmt::Display for CodegenEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenEvent::BoundsChosen {
                lower_bound,
                upper_bound,
                formula,
                guard_min_trip,
            } => write!(
                f,
                "steady state runs for i in {lower_bound}..{upper_bound} step B \
                 ({formula}; scalar fallback unless ub > {guard_min_trip})"
            ),
            CodegenEvent::ProloguePeeled {
                stmt,
                prosplice,
                spliced,
            } => match prosplice {
                Some(ps) if *spliced => write!(
                    f,
                    "stmt {stmt}: prologue partial store, ProSplice = {ps} (load-splice-store)"
                ),
                Some(_) => write!(
                    f,
                    "stmt {stmt}: prologue stores a full first vector (ProSplice = 0)"
                ),
                None => write!(
                    f,
                    "stmt {stmt}: prologue initializes the reduction accumulator"
                ),
            },
            CodegenEvent::ReuseApplied {
                mode,
                carried_chains,
            } => write!(
                f,
                "reuse scheme {mode:?}: {carried_chains} loop-carried register chain(s)"
            ),
            CodegenEvent::EpilogueForm {
                stmt,
                leftover,
                episplice,
                compile_time,
            } => write!(
                f,
                "stmt {stmt}: epilogue with EpiLeftOver = {leftover} bytes, EpiSplice = \
                 {episplice} ({})",
                if *compile_time {
                    "guards folded at compile time"
                } else {
                    "runtime-guarded"
                }
            ),
            CodegenEvent::ReductionEpilogue {
                stmt,
                residue,
                fold_steps,
            } => write!(
                f,
                "stmt {stmt}: reduction epilogue folds {residue} residue lane(s), then \
                 {fold_steps} horizontal rotate+combine step(s)"
            ),
            CodegenEvent::PassApplied {
                pass,
                before,
                after,
            } => write!(f, "pass {pass}: {before} \u{2192} {after} instructions"),
        }
    }
}

/// The ordered decision record of one [`crate::generate_traced`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodegenTrace {
    /// The events, in the order the decisions were made.
    pub events: Vec<CodegenEvent>,
}

impl CodegenTrace {
    /// An empty trace.
    pub fn new() -> CodegenTrace {
        CodegenTrace::default()
    }
}

/// Where the generator and the pass pipeline send their decisions: into
/// a [`CodegenTrace`] when one was asked for, nowhere otherwise. Each
/// event is passed as a closure that runs only when a trace is being
/// recorded, so the untraced [`crate::generate`] runs the same
/// generator and passes without building a single event.
pub(crate) struct Recorder<'t>(Option<&'t mut CodegenTrace>);

impl<'t> Recorder<'t> {
    /// Records into `trace`.
    pub(crate) fn on(trace: &'t mut CodegenTrace) -> Recorder<'t> {
        Recorder(Some(trace))
    }

    /// Records nothing.
    pub(crate) fn off() -> Recorder<'t> {
        Recorder(None)
    }

    /// Whether events are being recorded: for a measurement an event
    /// needs from before the work it describes.
    pub(crate) fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Appends the event `event` builds, if a trace is being recorded.
    pub(crate) fn record(&mut self, event: impl FnOnce() -> CodegenEvent) {
        if let Some(trace) = self.0.as_deref_mut() {
            trace.events.push(event());
        }
    }
}
