//! Post-generation optimization passes over VIR programs.

pub(crate) mod dce;
pub(crate) mod lvn;
mod pc;
mod unroll;

use crate::options::{CodegenOptions, ReuseMode};
use crate::trace::{CodegenEvent, Recorder, SectionCounts};
use crate::vir::SimdProgram;

/// Runs the configured pass pipeline in order:
///
/// 1. local value numbering (with chunk-normalized load keys when
///    MemNorm is enabled);
/// 2. predictive commoning when [`ReuseMode::PredictiveCommoning`] is
///    selected, followed by another LVN round to clean up the inserted
///    prologue initializers;
/// 3. dead code elimination;
/// 4. copy-removing unroll-by-2 when enabled and the steady body carries
///    registers.
///
/// Each pass appends a [`CodegenEvent::PassApplied`] with before/after
/// instruction counts to `rec`; the counts are taken only when it is
/// recording.
pub(crate) fn run_pipeline(
    program: &mut SimdProgram,
    options: &CodegenOptions,
    rec: &mut Recorder<'_>,
) {
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
    apply(program, "lvn", &|p| lvn::run(p, memnorm));
    if options.reuse_mode() == ReuseMode::PredictiveCommoning {
        apply(program, "pc", &pc::run);
        apply(program, "post-pc lvn", &|p| lvn::run(p, memnorm));
    }
    apply(program, "dce", &dce::run);
    if options.unroll_enabled() {
        apply(program, "unroll", &unroll::run);
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
