//! One-command reproduction of the paper's evaluation: every experiment
//! of EXPERIMENTS.md (E2–E13) and the optimality study (E16) with the
//! fixed seed, ~15 s in release.
//!
//! Run with: `cargo run -p simdize-bench --bin repro --release -- [flag]`
//!
//! ```text
//! (no flag)       print every generated block
//! --update-docs   rewrite the blocks between the per-experiment
//!                 markers in EXPERIMENTS.md and docs/POLICIES.md
//! --check-docs    exit non-zero, naming the experiments, if a
//!                 checked-in block differs from a fresh regeneration
//!                 (the CI drift guard)
//! ```

use simdize_bench::{docs, experiments, DOCS};
use std::path::Path;
use std::process::ExitCode;

const UPDATE: &str = "cargo run -p simdize-bench --bin repro --release -- --update-docs";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => None,
        ["--update-docs"] => Some(true),
        ["--check-docs"] => Some(false),
        _ => {
            eprintln!("usage: repro [--update-docs | --check-docs]");
            return ExitCode::from(2);
        }
    };
    let blocks: Vec<_> = experiments()
        .iter()
        .map(|e| (e.doc, e.id, (e.render)()))
        .collect();
    let Some(update) = update else {
        for (_, id, body) in &blocks {
            print!("== {id} ==\n{body}\n");
        }
        return ExitCode::SUCCESS;
    };

    let mut code = ExitCode::SUCCESS;
    for doc in DOCS {
        // Resolved from the manifest, so any working directory works.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(doc);
        let blocks: Vec<(&str, &str)> = blocks
            .iter()
            .filter(|b| b.0 == doc)
            .map(|b| (b.1, b.2.as_str()))
            .collect();
        let spliced = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {doc}: {e}"))
            .and_then(|text| docs::splice_all(doc, &text, &blocks));
        match spliced {
            Err(e) => {
                eprintln!("{e}");
                code = ExitCode::FAILURE;
            }
            Ok((_, stale)) if stale.is_empty() => {
                println!("{doc}: {} generated blocks are up to date", blocks.len());
            }
            Ok((fresh, stale)) if update => match std::fs::write(&path, fresh) {
                Ok(()) => println!("{doc}: rewrote {}", stale.join(", ")),
                Err(e) => {
                    eprintln!("write {doc}: {e}");
                    code = ExitCode::FAILURE;
                }
            },
            Ok((_, stale)) => {
                eprintln!(
                    "{doc}: stale generated blocks: {}; run `{UPDATE}`",
                    stale.join(", ")
                );
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
