//! Runtime ISA detection for the intrinsics backend.
//!
//! [`IsaLevel`] names the instruction tiers the lowering pass can
//! target. Detection picks the best tier the host supports —
//! `is_x86_feature_detected!` at runtime for AVX2, `cfg(target_arch)`
//! for the SSE2 baseline, the portable tier on every other
//! architecture — and the `SIMDIZE_ISA` environment
//! variable can *lower* (never raise) the choice, which is how CI
//! exercises the SSE2 path on AVX2 hosts.

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
    /// x86_64 baseline: SSE2 is architecturally guaranteed.
    Sse2,
    /// x86_64 with runtime-detected SSSE3 + SSE4.1 + AVX2 (`palignr`,
    /// `pshufb`, `pblendvb`, `pmulld`, the full min/max family).
    Avx2,
}

impl IsaLevel {
    /// Every tier, for enumeration in tests and docs.
    pub const ALL: [IsaLevel; 3] = [IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2];

    /// The lowercase name used in summaries (`backend: simd/avx2`),
    /// cache-key telemetry and the `SIMDIZE_ISA` override.
    pub fn name(self) -> &'static str {
        match self {
            IsaLevel::Scalar => "scalar",
            IsaLevel::Sse2 => "sse2",
            IsaLevel::Avx2 => "avx2",
        }
    }

    /// Parses a [`name`](IsaLevel::name) back to a tier.
    pub fn parse(s: &str) -> Option<IsaLevel> {
        Self::ALL.into_iter().find(|l| l.name() == s)
    }

    /// Whether this tier can execute on the current host. `Scalar` is
    /// always available; `Avx2` additionally requires the runtime
    /// feature probe (SSSE3/SSE4.1/AVX2 together).
    pub fn available(self) -> bool {
        match self {
            IsaLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            IsaLevel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            IsaLevel::Avx2 => {
                is_x86_feature_detected!("ssse3")
                    && is_x86_feature_detected!("sse4.1")
                    && is_x86_feature_detected!("avx2")
            }
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The best tier the host hardware supports, ignoring overrides.
    pub fn host_best() -> IsaLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if IsaLevel::Avx2.available() {
                IsaLevel::Avx2
            } else {
                IsaLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            IsaLevel::Scalar
        }
    }

    /// The tier the backend dispatches to: [`host_best`](Self::host_best),
    /// optionally lowered by the `SIMDIZE_ISA` environment variable
    /// (`scalar`, `sse2`, `avx2`). The override can only select
    /// a tier the host supports at or below the detected rank —
    /// `SIMDIZE_ISA=avx2` on an SSE2-only machine, or any unknown
    /// value, is ignored. This is what lets CI force the SSE2 path on
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
        // On x86_64 the SSE2 baseline is always grantable.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(IsaLevel::with_override(Some("sse2")), IsaLevel::Sse2);
        // A foreign-architecture tier is never granted.
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(IsaLevel::with_override(Some("avx2")), best);
    }
}
