//! `compile-cold`: source text to fingerprinted vector code, over
//! distinct loops. `ir`, `reorg` and `codegen` do all of the work;
//! `engine` (beyond the fingerprint), `vm` and `server` do none.

use crate::corpus::{self, Loop};
use crate::stats::gmean;
use crate::tracer::{RoundFold, Tracer};
use crate::{InProc, Layers};
use simdize::{parse_program, program_fingerprint, verify_program, ReorgGraph};
use std::collections::HashSet;
use std::hint::black_box;

/// Distinct loops in the corpus.
const CORPUS: usize = 512;

/// The workload's state: the corpus and what set-up learned about it.
pub struct CompileCold {
    corpus: Vec<Loop>,
    /// Fingerprint of each loop's compiled program, from set-up. Tests
    /// corrupt one entry to see the run fail.
    pub expected: Vec<u64>,
    opd: Vec<f64>,
}

impl InProc for CompileCold {
    const NAME: &'static str = "compile-cold";
    const PASSES: usize = 10;

    fn setup(seed: u64) -> (CompileCold, u64) {
        let mut seen = HashSet::new();
        let corpus = corpus::synthesized(seed, CORPUS, |l| seen.insert(l.text.clone()));
        let driver = corpus::driver();
        let mut failed = 0;
        let mut expected = Vec::with_capacity(corpus.len());
        let mut opd = Vec::with_capacity(corpus.len());
        for (k, l) in corpus.iter().enumerate() {
            // The op itself, from text, then the full check: the
            // compiled program is structurally valid and its execution
            // on the simulated machine matches the scalar oracle byte
            // for byte.
            let checked = parse_program(&l.text).ok().and_then(|p| {
                let compiled = driver.compile(&p).ok()?;
                let report = driver.evaluate(&p, seed.wrapping_add(k as u64)).ok()?;
                Some((compiled, report))
            });
            match checked {
                Some((compiled, report)) => {
                    let ok = report.verified && verify_program(&compiled).is_ok();
                    failed += u64::from(!ok);
                    expected.push(program_fingerprint(&compiled));
                    opd.push(report.opd);
                }
                None => {
                    failed += 1;
                    expected.push(0);
                    opd.push(1.0);
                }
            }
        }
        (
            CompileCold {
                corpus,
                expected,
                opd,
            },
            failed,
        )
    }

    fn ops(&self) -> usize {
        self.corpus.len()
    }

    fn op(&mut self, i: usize) -> bool {
        let Ok(program) = parse_program(black_box(&self.corpus[i].text)) else {
            return false;
        };
        let Ok(compiled) = corpus::driver().compile(&program) else {
            return false;
        };
        program_fingerprint(&compiled) == self.expected[i]
    }

    fn op_traced(&mut self, i: usize, t: &mut Tracer) -> bool {
        let text = black_box(&self.corpus[i].text);
        let Ok(program) = t.span("ir.parse", |_| parse_program(text)) else {
            return false;
        };
        let Ok(compiled) = corpus::compile_traced(&program, t) else {
            return false;
        };
        t.span("engine.fingerprint", |_| program_fingerprint(&compiled)) == self.expected[i]
    }

    fn opd_gmean(&self) -> f64 {
        gmean(&self.opd)
    }

    fn layers(&mut self, folds: &[RoundFold], out: &mut Layers) {
        let spans = [
            "ir.parse",
            "reorg.build",
            "reorg.place",
            "codegen.generate",
            "engine.fingerprint",
        ];
        let sum = out.set_spans(folds, &spans, "op");
        out.set("harness.share", 1.0 - sum);

        let n = self.corpus.len() as f64;
        let (mut bytes, mut shifts, mut stmts, mut insts) = (0usize, 0usize, 0usize, 0usize);
        for l in &self.corpus {
            bytes += l.text.len();
            stmts += l.program.stmts().len();
            let placed = ReorgGraph::build(&l.program, corpus::SHAPE)
                .ok()
                .and_then(|g| g.with_policy(corpus::driver().policy_for(&l.program)).ok());
            shifts += placed.map_or(0, |g| g.shift_count());
            if let Ok(compiled) = corpus::driver().compile(&l.program) {
                let (prologue, body, epilogue) = compiled.static_counts();
                insts += prologue + body + epilogue;
            }
        }
        out.set("ir.src_bytes_per_op", bytes as f64 / n);
        out.set("reorg.shifts_per_stmt", shifts as f64 / stmts as f64);
        out.set("codegen.insts_per_op", insts as f64 / n);
    }
}
