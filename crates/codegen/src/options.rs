//! Code generation options: reuse scheme and post passes.

use std::fmt;

/// How reuse between consecutive misaligned accesses is exploited
/// (paper §5.5's `sp` / `pc` suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReuseMode {
    /// No reuse: every stream shift recomputes both of the registers it
    /// combines (the naive Figure 7 generator). Data of a misaligned
    /// stream is loaded twice — the paper shows this costs up to 2×.
    #[default]
    None,
    /// Software pipelining (Figure 10): generate the loop so the
    /// current iteration's "second" register is carried into the next
    /// iteration, guaranteeing each chunk of a static stream is loaded
    /// exactly once.
    SoftwarePipeline,
    /// Predictive commoning: generate naively, then let a separate
    /// optimization pass discover expressions equal to another
    /// expression of the next iteration and carry them in registers.
    /// Converges to the same code as software pipelining.
    PredictiveCommoning,
}

impl ReuseMode {
    /// Short suffix used in scheme names (`""`, `"sp"`, `"pc"`).
    pub fn suffix(self) -> &'static str {
        match self {
            ReuseMode::None => "",
            ReuseMode::SoftwarePipeline => "sp",
            ReuseMode::PredictiveCommoning => "pc",
        }
    }
}

impl fmt::Display for ReuseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseMode::None => f.write_str("none"),
            ReuseMode::SoftwarePipeline => f.write_str("sp"),
            ReuseMode::PredictiveCommoning => f.write_str("pc"),
        }
    }
}

/// Options controlling code generation and its post passes.
///
/// The defaults (`reuse = None`, `memnorm = on`, `unroll = on`) mirror
/// the paper's baseline configuration; evaluation code sweeps the
/// combinations explicitly.
///
/// # Example
///
/// ```
/// use simdize_codegen::{CodegenOptions, ReuseMode};
/// let opts = CodegenOptions::default()
///     .reuse(ReuseMode::PredictiveCommoning)
///     .memnorm(true)
///     .unroll(false);
/// assert_eq!(opts.reuse_mode(), ReuseMode::PredictiveCommoning);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenOptions {
    reuse: ReuseMode,
    memnorm: bool,
    unroll: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            reuse: ReuseMode::None,
            memnorm: true,
            unroll: true,
        }
    }
}

impl CodegenOptions {
    /// Starts from the default configuration.
    pub fn new() -> CodegenOptions {
        CodegenOptions::default()
    }

    /// Sets the reuse scheme.
    pub fn reuse(mut self, reuse: ReuseMode) -> CodegenOptions {
        self.reuse = reuse;
        self
    }

    /// Enables or disables memory normalization (+ local CSE), §5.5's
    /// `MemNorm`: vector memory operands are canonicalized to their
    /// truncated chunk so that chunk-identical loads deduplicate.
    pub fn memnorm(mut self, on: bool) -> CodegenOptions {
        self.memnorm = on;
        self
    }

    /// Enables or disables the copy-removing unroll-by-2 of the steady
    /// loop (the paper's closing remark of §4.5).
    pub fn unroll(mut self, on: bool) -> CodegenOptions {
        self.unroll = on;
        self
    }

    /// The configured reuse scheme.
    pub fn reuse_mode(&self) -> ReuseMode {
        self.reuse
    }

    /// Whether memory normalization is enabled.
    pub fn memnorm_enabled(&self) -> bool {
        self.memnorm
    }

    /// Whether unroll-by-2 is enabled.
    pub fn unroll_enabled(&self) -> bool {
        self.unroll
    }
}

impl fmt::Display for CodegenOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reuse={} memnorm={} unroll={}",
            self.reuse, self.memnorm, self.unroll
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let o = CodegenOptions::new()
            .reuse(ReuseMode::SoftwarePipeline)
            .memnorm(false)
            .unroll(false);
        assert_eq!(o.reuse_mode(), ReuseMode::SoftwarePipeline);
        assert!(!o.memnorm_enabled());
        assert!(!o.unroll_enabled());
        assert_eq!(o.to_string(), "reuse=sp memnorm=false unroll=false");
    }

    #[test]
    fn suffixes() {
        assert_eq!(ReuseMode::None.suffix(), "");
        assert_eq!(ReuseMode::SoftwarePipeline.suffix(), "sp");
        assert_eq!(ReuseMode::PredictiveCommoning.suffix(), "pc");
    }
}
