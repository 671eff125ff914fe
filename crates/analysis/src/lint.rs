//! The lint registry: lint catalog, severity levels, structured
//! findings and their text/JSON renderings.

use simdize_codegen::VReg;
use simdize_telemetry::json::{Text, Writer};
use std::fmt;
use std::str::FromStr;

/// The catalog of lints the analyzer can report.
///
/// Each lint is a static check on *generated* vector code — the output
/// of the full pass pipeline — tied to one of the paper's validity
/// obligations (constraints (C.2)/(C.3), the §5 exactly-once chunk
/// guarantee, or plain code quality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// A store byte provably does not hold the stream byte the source
    /// loop computes for that memory location — the static form of the
    /// paper's constraints (C.2)/(C.3) checked on the output code.
    StoreByteMismatch,
    /// A reuse-enabled program (software pipelining or predictive
    /// commoning) reloads a 16-byte chunk of a static stream in its
    /// steady state, violating the §5 exactly-once guarantee.
    ChunkLoadedTwice,
    /// A `vshiftpair` that shifts by 0 (or by a whole register), or two
    /// adjacent constant rotations that could fold into one.
    RedundantShift,
    /// A loaded chunk whose bytes never reach any store in any analyzed
    /// execution scenario.
    DeadLoad,
    /// A partial store in the prologue or epilogue overwrites bytes
    /// outside its target region instead of preserving the original
    /// memory there (a broken `vsplice` window).
    SpliceClobber,
}

impl Lint {
    /// Every lint, in reporting order.
    pub const ALL: [Lint; 5] = [
        Lint::StoreByteMismatch,
        Lint::SpliceClobber,
        Lint::ChunkLoadedTwice,
        Lint::RedundantShift,
        Lint::DeadLoad,
    ];

    /// The lint's kebab-case name, as used by `--lint name=level`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::StoreByteMismatch => "store-byte-mismatch",
            Lint::ChunkLoadedTwice => "chunk-loaded-twice",
            Lint::RedundantShift => "redundant-shift",
            Lint::DeadLoad => "dead-load",
            Lint::SpliceClobber => "splice-clobber",
        }
    }

    /// Parses a lint from its kebab-case name.
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }

    /// The severity the lint reports at unless overridden.
    pub fn default_level(self) -> Level {
        match self {
            Lint::StoreByteMismatch | Lint::ChunkLoadedTwice | Lint::SpliceClobber => Level::Deny,
            Lint::RedundantShift | Lint::DeadLoad => Level::Warn,
        }
    }

    /// One-line description for help output.
    pub fn description(self) -> &'static str {
        match self {
            Lint::StoreByteMismatch => {
                "a store byte does not come from the correct source-stream byte (C.2/C.3)"
            }
            Lint::ChunkLoadedTwice => {
                "a reuse-enabled steady state reloads a chunk of a static stream (§5)"
            }
            Lint::RedundantShift => "a vshiftpair is a no-op or composable with its input rotation",
            Lint::DeadLoad => "a loaded chunk never reaches any store",
            Lint::SpliceClobber => {
                "a prologue/epilogue partial store overwrites bytes outside its target region"
            }
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The severity a lint reports at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The lint is disabled; its findings are discarded.
    Allow,
    /// The finding is reported but does not fail the analysis.
    Warn,
    /// The finding fails the analysis (non-zero CLI exit, compile gate
    /// error).
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        })
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s {
            "allow" => Ok(Level::Allow),
            "warn" => Ok(Level::Warn),
            "deny" => Ok(Level::Deny),
            other => Err(format!(
                "unknown lint level `{other}` (expected allow|warn|deny)"
            )),
        }
    }
}

/// Which section of the [`simdize_codegen::SimdProgram`] a finding
/// points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Section {
    /// The once-executed prologue (`i = 0`).
    Prologue,
    /// The steady-state body.
    Body,
    /// The unrolled two-iteration body.
    BodyPair,
    /// The once-executed epilogue.
    Epilogue,
}

impl Section {
    /// The section's display name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Prologue => "prologue",
            Section::Body => "body",
            Section::BodyPair => "body-pair",
            Section::Epilogue => "epilogue",
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired.
    pub lint: Lint,
    /// The severity it fired at (after level overrides).
    pub level: Level,
    /// The section the finding points into.
    pub section: Section,
    /// The top-level instruction index within the section.
    pub index: usize,
    /// The register involved, when one is (the stored/loaded register).
    pub register: Option<VReg>,
    /// The rendered explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}[{}]",
            self.level, self.lint, self.section, self.index
        )?;
        if let Some(r) = self.register {
            write!(f, " {r}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The analyzer's verdict: every finding, ordered by section then
/// instruction index, plus the coverage counters saying how much of the
/// generated program the abstract interpreter actually evaluated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisReport {
    pub(crate) findings: Vec<Finding>,
    /// Generated instructions in the program, counted recursively
    /// through `Guarded` bodies.
    pub(crate) insts_total: usize,
    /// Instructions the abstract interpreter evaluated in at least one
    /// scenario.
    pub(crate) insts_reached: usize,
}

impl AnalysisReport {
    /// A report of `findings` over a program of `insts_total`
    /// instructions, `insts_reached` of which some scenario evaluated.
    pub fn new(findings: Vec<Finding>, insts_total: usize, insts_reached: usize) -> AnalysisReport {
        AnalysisReport {
            findings,
            insts_total,
            insts_reached,
        }
    }

    /// All findings, ordered.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Generated instructions in the analyzed program (recursively
    /// through guard bodies).
    pub fn coverage_total(&self) -> usize {
        self.insts_total
    }

    /// Instructions the abstract interpreter evaluated in at least one
    /// scenario.
    pub fn coverage_reached(&self) -> usize {
        self.insts_reached
    }

    /// The `chunk-never-verified` counter: generated instructions no
    /// evaluated scenario ever reached (guard bodies whose condition
    /// held in no scenario, or a program whose every sampled trip count
    /// fell below the `ub > 3B` guard). A non-zero count means the
    /// lints above are silent about those instructions.
    pub fn chunk_never_verified(&self) -> usize {
        self.insts_total.saturating_sub(self.insts_reached)
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Warn)
            .count()
    }

    /// Whether the program passed (no deny-level findings; warnings do
    /// not fail an analysis).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        if self.findings.is_empty() {
            out.push_str("analysis clean: no findings\n");
        } else {
            out.push_str(&format!(
                "{} finding(s): {} deny, {} warn\n",
                self.findings.len(),
                self.deny_count(),
                self.warn_count()
            ));
        }
        if self.chunk_never_verified() > 0 {
            out.push_str(&format!(
                "warning: coverage {}/{} — {} generated instruction(s) never verified \
                 (no evaluated scenario reached them)\n",
                self.insts_reached,
                self.insts_total,
                self.chunk_never_verified()
            ));
        }
        out
    }

    /// Machine-readable JSON rendering (a single object with `deny`,
    /// `warn`, a `coverage` object and a `findings` array).
    pub fn render_json(&self) -> String {
        let mut w = Writer::default();
        w.obj()
            .field("deny", self.deny_count())
            .field("warn", self.warn_count());
        w.key("coverage").obj().field("insts", self.insts_total);
        w.field("reached", self.insts_reached);
        w.field("chunk_never_verified", self.chunk_never_verified())
            .end_obj();
        w.key("findings").arr();
        for f in &self.findings {
            w.obj()
                .field("lint", f.lint.name())
                .field("level", Text(f.level));
            w.field("section", f.section.name()).field("index", f.index);
            w.field("register", f.register.map(Text))
                .field("message", &f.message);
            w.end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_roundtrip() {
        for lint in Lint::ALL {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
            assert!(!lint.description().is_empty());
        }
        assert_eq!(Lint::from_name("bogus"), None);
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!("deny".parse::<Level>(), Ok(Level::Deny));
        assert_eq!("warn".parse::<Level>(), Ok(Level::Warn));
        assert_eq!("allow".parse::<Level>(), Ok(Level::Allow));
        assert!("loud".parse::<Level>().is_err());
        assert!(Level::Allow < Level::Warn && Level::Warn < Level::Deny);
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = AnalysisReport {
            findings: vec![Finding {
                lint: Lint::RedundantShift,
                level: Level::Warn,
                section: Section::Body,
                index: 3,
                register: None,
                message: "shift by 0 is a \"no-op\"".to_string(),
            }],
            insts_total: 10,
            insts_reached: 8,
        };
        let text = report.render_text();
        assert!(text.contains("warn[redundant-shift] body[3]:"));
        assert!(text.contains("1 finding(s): 0 deny, 1 warn"));
        assert!(text.contains("coverage 8/10"));
        assert_eq!(report.chunk_never_verified(), 2);
        let json = report.render_json();
        assert!(json.contains("\"deny\":0"));
        assert!(
            json.contains("\"coverage\":{\"insts\":10,\"reached\":8,\"chunk_never_verified\":2}")
        );
        assert!(json.contains("\\\"no-op\\\""));
        assert!(json.contains("\"register\":null"));
        assert!(report.is_clean());

        let empty = AnalysisReport::default();
        assert!(empty.render_text().contains("analysis clean"));
        assert!(!empty.render_text().contains("coverage"));
        assert_eq!(
            empty.render_json(),
            "{\"deny\":0,\"warn\":0,\"coverage\":{\"insts\":0,\"reached\":0,\"chunk_never_verified\":0},\"findings\":[]}"
        );
    }
}
