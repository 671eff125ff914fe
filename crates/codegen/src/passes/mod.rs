//! Post-generation optimization passes over VIR programs.

pub(crate) mod dce;
pub(crate) mod lvn;
mod pc;
mod unroll;

use crate::options::{CodegenOptions, ReuseMode};
use crate::trace::{CodegenEvent, Recorder, SectionCounts};
use crate::vir::SimdProgram;

/// Runs the configured pass pipeline over a freshly generated program,
/// which the generator value-numbered as it emitted it (`merged`
/// counts the instructions it merged, per section):
///
/// 1. under [`ReuseMode::PredictiveCommoning`], predictive commoning,
///    another local value numbering round to clean up the inserted
///    prologue initializers, and dead code elimination of the trees
///    predictive commoning replaced — no other pipeline leaves a
///    duplicate value or dead code to remove;
/// 2. copy-removing unroll-by-2 when enabled and the steady body
///    carries registers.
///
/// Each step appends a [`CodegenEvent::PassApplied`] with before/after
/// instruction counts to `rec`, and so does the numbering done at
/// emission (`lvn`, before = kept + merged); the counts are taken only
/// when it is recording.
pub(crate) fn run_pipeline(
    program: &mut SimdProgram,
    merged: SectionCounts,
    options: &CodegenOptions,
    rec: &mut Recorder<'_>,
) {
    debug_verify(program, "generate");
    rec.record(|| {
        let after = SectionCounts::of(program);
        CodegenEvent::PassApplied {
            pass: "lvn",
            before: SectionCounts {
                prologue: after.prologue + merged.prologue,
                body: after.body + merged.body,
                epilogue: after.epilogue + merged.epilogue,
            },
            after,
        }
    });
    let mut apply = |program: &mut SimdProgram, pass, f: &dyn Fn(&mut SimdProgram)| {
        let before = rec.is_recording().then(|| SectionCounts::of(program));
        f(program);
        debug_verify(program, pass);
        if let Some(before) = before {
            rec.record(|| CodegenEvent::PassApplied {
                pass,
                before,
                after: SectionCounts::of(program),
            });
        }
    };
    let memnorm = options.memnorm_enabled();
    if options.reuse_mode() == ReuseMode::PredictiveCommoning {
        apply(program, "pc", &pc::run);
        apply(program, "post-pc lvn", &|p| lvn::run(p, memnorm));
        apply(program, "dce", &dce::run);
    } else {
        debug_numbered(program, memnorm);
    }
    if options.unroll_enabled() {
        apply(program, "unroll", &unroll::run);
    }
}

/// Local value numbering (§5.5 CSE, with MemNorm's chunk keys when
/// `memnorm` is set) over every section of `program`, in place: the
/// pass predictive commoning's output goes through. The generator
/// numbers every instruction as it emits it, so this changes nothing on
/// a program fresh from [`crate::generate`]; it is for tools that patch
/// programs (see [`SimdProgram::prologue_mut`]).
pub fn value_number(program: &mut SimdProgram, memnorm: bool) {
    lvn::run(program, memnorm);
}

/// In debug builds, checks that a program the generator numbered as it
/// emitted it needs neither value numbering nor dead code elimination:
/// both passes, run on a copy, must change nothing.
fn debug_numbered(program: &SimdProgram, memnorm: bool) {
    if cfg!(debug_assertions) {
        let mut again = program.clone();
        lvn::run(&mut again, memnorm);
        assert!(
            again == *program,
            "emission left a value to number:\n{program}"
        );
        dce::run(&mut again);
        assert!(again == *program, "emission left dead code:\n{program}");
    }
}

/// Re-verifies the program after a pass in debug builds, the way a
/// production compiler runs its IR verifier between passes: a pass that
/// breaks the structural discipline panics here, naming itself, instead
/// of corrupting execution downstream.
pub(crate) fn debug_verify(program: &SimdProgram, pass: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = crate::verify::verify_program(program) {
            panic!("pass `{pass}` broke program well-formedness: {e}");
        }
    }
}
