//! The prover's verdict: aggregate counters, per-harness summaries,
//! shrunk counterexamples, and the text / `simdize-verify/v1` JSON
//! renderings.

use simdize_telemetry::json::Writer;
use std::fmt::Write as _;

/// What one named harness did across the whole enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessSummary {
    /// The harness name (`harness_codegen_equiv`, ...).
    pub name: &'static str,
    /// Harness executions (each counts one unit of budget).
    pub runs: u64,
    /// Violated properties found.
    pub violations: u64,
}

/// One violated property, shrunk (when shrinking succeeded) to the
/// minimal `(alignment, trip, seed)` triple that still fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The harness that failed.
    pub harness: &'static str,
    /// Shift policy of the failing configuration.
    pub policy: String,
    /// Reuse scheme (`none`/`sp`/`pc`).
    pub reuse: String,
    /// Whether unroll-by-2 ran.
    pub unroll: bool,
    /// Declared or runtime alignments.
    pub mode: String,
    /// Per-stream byte offsets.
    pub aligns: Vec<u32>,
    /// The failing trip count.
    pub trip: u64,
    /// `runtime-ub` or `known-trip` compilation of the trip count.
    pub trip_style: String,
    /// The value probe (`seeded:3`, `lane-ramp`, ...).
    pub probe: String,
    /// What went wrong (first differing byte, stats divergence, fault).
    pub detail: String,
    /// Whether shrinking ran to completion on this counterexample.
    pub shrunk: bool,
    /// Re-executions the shrinker spent minimizing it.
    pub shrink_steps: u64,
    /// A replayable `simdize run` command line reproducing the
    /// configuration (exact for seeded probes on declared alignments).
    pub replay: String,
}

/// The full verdict of one `simdize verify` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The loop's display name.
    pub loop_name: String,
    /// Whether every enumerated property held *and* the enumeration
    /// completed within budget.
    pub proved: bool,
    /// Whether the quick (sampled) domain was used.
    pub quick: bool,
    /// The requested trip bound.
    pub trip_bound: u64,
    /// The effective bound after capping by array lengths.
    pub trip_cap: u64,
    /// Candidate byte offsets per stream (always `V` = 16).
    pub align_candidates: u32,
    /// Offsets realizable under natural element alignment (`V/d`).
    pub align_realizable: u32,
    /// Streams (arrays) crossed.
    pub streams: u32,
    /// Alignment vectors enumerated per configuration.
    pub align_vectors: u64,
    /// Whether the cross product was sampled rather than exhaustive.
    pub align_capped: bool,
    /// Compile configurations enumerated (policy × reuse × unroll ×
    /// mode).
    pub configs_enumerated: u64,
    /// `(config, alignment-vector)` units that compiled.
    pub units_compiled: u64,
    /// Units skipped because the policy does not apply (§4.4).
    pub units_skipped: u64,
    /// Units no variant of which the front end would compile: a
    /// strided reference or a reduction target needs a compile-time
    /// alignment or trip count.
    pub units_refused: u64,
    /// Each reason the front end gave, with the units it refused for it.
    pub refusals: Vec<(String, u64)>,
    /// Units whose generated program received the requested mutation.
    pub units_mutated: u64,
    /// Distinct `(config, aligns, trip, probe)` points evaluated.
    pub points: u64,
    /// Points skipped because the scalar oracle itself faults there
    /// (out of the loop's domain).
    pub points_skipped: u64,
    /// Total harness executions (the budget currency).
    pub runs: u64,
    /// The run budget.
    pub budget: u64,
    /// Whether the enumeration stopped on budget exhaustion.
    pub budget_exhausted: bool,
    /// Per-harness totals.
    pub harnesses: Vec<HarnessSummary>,
    /// Total violated properties (counterexamples below are capped).
    pub violations_total: u64,
    /// Shrunk counterexamples, at most one per `(unit, harness)`.
    pub violations: Vec<Counterexample>,
    /// Lint-vs-prover inconsistencies: a deny-level lint on a program
    /// the prover passed, or a prover violation on a lint-clean
    /// program.
    pub inconsistencies: Vec<String>,
    /// Total inconsistencies (the list above is capped).
    pub inconsistencies_total: u64,
    /// Wall-clock time of the enumeration in milliseconds (zeroed in
    /// deterministic contexts such as the wire protocol).
    pub wall_ms: u64,
}

impl VerifyReport {
    /// The JSON schema identifier.
    pub const SCHEMA: &'static str = "simdize-verify/v1";

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let verdict = if self.proved {
            "PROVED"
        } else if self.violations_total > 0 {
            "VIOLATED"
        } else {
            "INCOMPLETE"
        };
        let _ = writeln!(
            out,
            "{verdict}: {} — {} alignments/stream ({} realizable) x {} streams, trips 1..={}, {} configs",
            self.loop_name,
            self.align_candidates,
            self.align_realizable,
            self.streams,
            self.trip_cap,
            self.configs_enumerated,
        );
        let reasons: Vec<&str> = self.refusals.iter().map(|(why, _)| why.as_str()).collect();
        let _ = writeln!(
            out,
            "  units: {} compiled, {} skipped (inapplicable policy), {} refused by codegen{}, {} mutated; {} alignment vectors{}",
            self.units_compiled,
            self.units_skipped,
            self.units_refused,
            if reasons.is_empty() { String::new() } else { format!(" ({})", reasons.join("; ")) },
            self.units_mutated,
            self.align_vectors,
            if self.align_capped { " (sampled)" } else { "" },
        );
        let _ = writeln!(
            out,
            "  runs: {} of budget {} across {} points ({} skipped){}",
            self.runs,
            self.budget,
            self.points,
            self.points_skipped,
            if self.budget_exhausted {
                " — BUDGET EXHAUSTED, proof incomplete"
            } else {
                ""
            },
        );
        for h in &self.harnesses {
            let _ = writeln!(
                out,
                "  {}: {} runs, {} violation(s)",
                h.name, h.runs, h.violations
            );
        }
        for (k, ce) in self.violations.iter().enumerate() {
            let _ = writeln!(
                out,
                "  counterexample {}: {} policy={} reuse={} unroll={} mode={} aligns={:?} trip={} ({}) probe={}",
                k + 1,
                ce.harness,
                ce.policy,
                ce.reuse,
                if ce.unroll { "on" } else { "off" },
                ce.mode,
                ce.aligns,
                ce.trip,
                ce.trip_style,
                ce.probe,
            );
            let _ = writeln!(out, "    {}", ce.detail);
            let _ = writeln!(
                out,
                "    {}via: {}",
                if ce.shrunk {
                    "shrunk; replay "
                } else {
                    "replay "
                },
                ce.replay
            );
        }
        if self.violations_total > self.violations.len() as u64 {
            let _ = writeln!(
                out,
                "  ({} further violation(s) not shown)",
                self.violations_total - self.violations.len() as u64
            );
        }
        for inc in &self.inconsistencies {
            let _ = writeln!(out, "  lint/prover inconsistency: {inc}");
        }
        if self.inconsistencies_total > self.inconsistencies.len() as u64 {
            let _ = writeln!(
                out,
                "  ({} further inconsistency(ies) not shown)",
                self.inconsistencies_total - self.inconsistencies.len() as u64
            );
        }
        if self.wall_ms > 0 {
            let _ = writeln!(out, "  wall time: {} ms", self.wall_ms);
        }
        out
    }

    /// The `simdize-verify/v1` JSON rendering: one object, stable key
    /// order, no whitespace.
    pub fn render_json(&self) -> String {
        let mut w = Writer::default();
        w.obj()
            .field("schema", Self::SCHEMA)
            .field("loop", &self.loop_name);
        w.field("proved", self.proved).field("quick", self.quick);
        w.field("trip_bound", self.trip_bound)
            .field("trip_cap", self.trip_cap);
        w.key("alignments")
            .obj()
            .field("candidates", self.align_candidates);
        w.field("realizable", self.align_realizable)
            .field("streams", self.streams);
        w.field("vectors", self.align_vectors)
            .field("capped", self.align_capped)
            .end_obj();
        w.key("units")
            .obj()
            .field("configs", self.configs_enumerated);
        w.field("compiled", self.units_compiled)
            .field("skipped", self.units_skipped);
        w.field("refused", self.units_refused)
            .field("mutated", self.units_mutated)
            .end_obj();
        w.key("runs").obj().field("points", self.points);
        w.field("points_skipped", self.points_skipped)
            .field("executed", self.runs);
        w.field("budget", self.budget)
            .field("budget_exhausted", self.budget_exhausted);
        w.end_obj().key("harnesses").arr();
        for h in &self.harnesses {
            w.obj().field("name", h.name).field("runs", h.runs);
            w.field("violations", h.violations).end_obj();
        }
        w.end_arr().field("violations_total", self.violations_total);
        w.key("violations").arr();
        for ce in &self.violations {
            w.obj()
                .field("harness", ce.harness)
                .field("policy", &ce.policy);
            w.field("reuse", &ce.reuse)
                .field("unroll", ce.unroll)
                .field("mode", &ce.mode);
            w.key("aligns").arr();
            for &a in &ce.aligns {
                w.val(a);
            }
            w.end_arr()
                .field("trip", ce.trip)
                .field("trip_style", &ce.trip_style);
            w.field("probe", &ce.probe).field("detail", &ce.detail);
            w.field("shrunk", ce.shrunk)
                .field("shrink_steps", ce.shrink_steps);
            w.field("replay", &ce.replay).end_obj();
        }
        w.end_arr()
            .field("inconsistencies_total", self.inconsistencies_total);
        w.key("inconsistencies").arr();
        for inc in &self.inconsistencies {
            w.val(inc);
        }
        w.end_arr().field("wall_ms", self.wall_ms).end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_schema_and_stable_shape() {
        let report = VerifyReport {
            loop_name: "figure1".to_string(),
            proved: true,
            quick: false,
            trip_bound: 64,
            trip_cap: 62,
            align_candidates: 16,
            align_realizable: 4,
            streams: 3,
            align_vectors: 64,
            align_capped: false,
            configs_enumerated: 30,
            units_compiled: 1920,
            units_skipped: 0,
            units_refused: 0,
            refusals: Vec::new(),
            units_mutated: 0,
            points: 100,
            points_skipped: 0,
            runs: 250,
            budget: 1000,
            budget_exhausted: false,
            harnesses: vec![HarnessSummary {
                name: "harness_codegen_equiv",
                runs: 100,
                violations: 0,
            }],
            violations_total: 0,
            violations: Vec::new(),
            inconsistencies: Vec::new(),
            inconsistencies_total: 0,
            wall_ms: 0,
        };
        let json = report.render_json();
        assert!(json.starts_with("{\"schema\":\"simdize-verify/v1\""));
        assert!(json.contains("\"proved\":true"));
        assert!(json.contains("\"harnesses\":[{\"name\":\"harness_codegen_equiv\""));
        assert!(json.ends_with("\"wall_ms\":0}"));
        let text = report.render_text();
        assert!(text.starts_with("PROVED: figure1"));
    }
}
