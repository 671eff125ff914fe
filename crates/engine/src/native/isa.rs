//! Runtime ISA detection for the intrinsics backend.
//!
//! [`IsaLevel`] names the instruction tiers the lowering pass can
//! target. Detection picks the best tier the host supports —
//! `is_x86_feature_detected!` at runtime for the two x86_64 tiers, the
//! portable tier on every other architecture and on x86_64 hosts below
//! x86-64-v2 — and the `SIMDIZE_ISA` environment variable can *lower*
//! (never raise) the choice, which is how CI exercises the v2 tier on
//! AVX2 hosts.

use std::fmt;

/// An instruction-set tier the [`SimdKernel`](super::SimdKernel)
/// lowering can target.
///
/// Ordered by preference: detection returns the highest tier the host
/// supports. `Scalar` is the portable emulation tier and is valid on
/// every host, so the backend is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaLevel {
    /// Portable scalar emulation on `[u8; 16]` registers. Always valid.
    Scalar,
    /// x86_64 at the x86-64-v2 level: runtime-detected SSSE3 + SSE4.1
    /// (`palignr`, `pshufb`, `pblendvb`, `pmulld`, the full min/max
    /// family), 128 bits wide.
    V2,
    /// x86_64 with runtime-detected AVX2 as well: the v2 tier's
    /// operations, with paired superinstructions run 256 bits wide.
    Avx2,
}

impl IsaLevel {
    /// Every tier, for enumeration in tests and docs.
    pub const ALL: [IsaLevel; 3] = [IsaLevel::Scalar, IsaLevel::V2, IsaLevel::Avx2];

    /// The lowercase name used in summaries (`backend: simd/avx2`),
    /// cache-key telemetry and the `SIMDIZE_ISA` override.
    pub fn name(self) -> &'static str {
        match self {
            IsaLevel::Scalar => "scalar",
            IsaLevel::V2 => "v2",
            IsaLevel::Avx2 => "avx2",
        }
    }

    /// Parses a [`name`](IsaLevel::name) back to a tier.
    pub fn parse(s: &str) -> Option<IsaLevel> {
        Self::ALL.into_iter().find(|l| l.name() == s)
    }

    /// Whether this tier can execute on the current host: `Scalar`
    /// always; `V2` when the runtime probe finds exactly the features
    /// its operations use (SSSE3 and SSE4.1); `Avx2` when it finds AVX2
    /// as well.
    pub fn available(self) -> bool {
        match self {
            IsaLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            IsaLevel::V2 => is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1"),
            #[cfg(target_arch = "x86_64")]
            IsaLevel::Avx2 => IsaLevel::V2.available() && is_x86_feature_detected!("avx2"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The best tier the host hardware supports, ignoring overrides.
    pub fn host_best() -> IsaLevel {
        Self::ALL
            .into_iter()
            .rfind(|l| l.available())
            .unwrap_or(IsaLevel::Scalar)
    }

    /// The tier the backend dispatches to: [`host_best`](Self::host_best),
    /// optionally lowered by the `SIMDIZE_ISA` environment variable
    /// (`scalar`, `v2`, `avx2`). The override can only select
    /// a tier the host supports at or below the detected rank —
    /// `SIMDIZE_ISA=avx2` on a v2-only machine, or any unknown
    /// value, is ignored. This is what lets CI force the v2 tier on
    /// AVX2 hosts without losing safety.
    pub fn detect() -> IsaLevel {
        Self::with_override(std::env::var("SIMDIZE_ISA").ok().as_deref())
    }

    /// [`detect`](Self::detect) with the override injected, so tests
    /// can cover the clamp without mutating process environment.
    pub(crate) fn with_override(requested: Option<&str>) -> IsaLevel {
        let best = Self::host_best();
        if let Some(req) = requested.and_then(IsaLevel::parse) {
            if req.available() && req <= best {
                return req;
            }
        }
        best
    }
}

impl fmt::Display for IsaLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for level in IsaLevel::ALL {
            assert_eq!(IsaLevel::parse(level.name()), Some(level));
        }
        assert_eq!(IsaLevel::parse("sse9"), None);
        // The retired SSE2 tier's name: `SIMDIZE_ISA=sse2` falls back
        // to the detected tier.
        assert_eq!(IsaLevel::parse("sse2"), None);
    }

    #[test]
    fn detect_is_available() {
        let level = IsaLevel::detect();
        assert!(level.available(), "detected tier must run here: {level}");
    }

    #[test]
    fn override_only_lowers() {
        let best = IsaLevel::host_best();
        // Scalar is always a legal downgrade.
        assert_eq!(IsaLevel::with_override(Some("scalar")), IsaLevel::Scalar);
        // Unknown values fall back to the detected tier.
        assert_eq!(IsaLevel::with_override(Some("sse9")), best);
        assert_eq!(IsaLevel::with_override(None), best);
        // Asking for the detected tier is a no-op.
        assert_eq!(IsaLevel::with_override(Some(best.name())), best);
        assert_eq!(IsaLevel::with_override(Some("sse2")), best);
        // On x86_64 the v2 tier is granted exactly when its probe
        // (SSSE3 and SSE4.1) passes.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            IsaLevel::with_override(Some("v2")) == IsaLevel::V2,
            is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1")
        );
        // A foreign-architecture tier is never granted.
        #[cfg(not(target_arch = "x86_64"))]
        for tier in ["v2", "avx2"] {
            assert_eq!(IsaLevel::with_override(Some(tier)), best);
        }
    }
}
