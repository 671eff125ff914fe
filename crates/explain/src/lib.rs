//! Explainable simdization: a decision-trace observability layer.
//!
//! This crate turns the typed event streams the pipeline records while
//! compiling a loop — shift-placement decisions from `simdize-reorg`,
//! code-generation decisions from `simdize-codegen`, trace-fusion
//! rewrites from `simdize-engine` — into a single report that shows
//! *why* the generated SIMD program looks the way it does:
//!
//! - every decision gets a stable id (`P<n>` placement, `G<n>` codegen,
//!   `F<n>` fusion) in one numbered list;
//! - every instruction of the generated program is back-linked to the
//!   decision(s) that produced it;
//! - the measured operations-per-datum is decomposed class by class
//!   against the paper's §5.3 analytic lower bound, attributing every
//!   excess operation to a named decision, with the row contributions
//!   summing exactly to the engine's measured total.
//!
//! Reports render three ways: plain text ([`render_text`]) for the
//! `simdize explain` subcommand, Markdown ([`render_markdown`]) for the
//! generated `docs/worked-examples/` pages, and versioned JSON
//! ([`render_json`], schema [`SCHEMA`]) for tools.
//!
//! A policy that *cannot* apply (e.g. eager-shift on a loop with
//! runtime-only alignments, paper §4.4) is not an error here: it yields
//! an [`ExplainReport::Inapplicable`] page explaining the violated
//! precondition, so the docs generator covers every loop × policy
//! combination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod backlink;
mod decision;
mod json;
mod render;
mod report;

pub use accounting::{account, AccountRow, Accounting};
pub use backlink::{annotate, AnnotatedInst, AnnotatedSection};
pub use decision::{DecisionId, Decisions, Phase};
pub use json::{render_json, SCHEMA};
pub use render::{render_markdown, render_text};
pub use report::{
    ExplainError, ExplainReport, Explainer, InapplicableReport, LoopInfo, StreamReport,
};
