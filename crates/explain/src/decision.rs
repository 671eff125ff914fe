//! Flattened decision records with stable, report-wide identifiers.
//!
//! The three pipeline phases each produce their own typed event stream
//! ([`PlacementTrace`], [`CodegenTrace`], [`FusionEvent`]s). The
//! explain layer flattens them into one numbered decision list so a
//! report can reference any decision by a short stable id: `P<n>` for
//! shift-placement decisions, `G<n>` for code-generation decisions and
//! `F<n>` for engine trace-fusion rewrites, where `<n>` is the event's
//! position in its phase's stream.

use simdize::{CodegenTrace, FusionEvent, PlacementTrace};
use std::fmt;

/// Which pipeline phase a decision belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Stream-shift placement (`simdize-reorg`, paper §3).
    Placement,
    /// SIMD code generation (`simdize-codegen`, paper §4).
    Codegen,
    /// Engine trace fusion (`simdize-engine`).
    Fusion,
}

impl Phase {
    /// The one-letter id prefix (`P`, `G`, `F`).
    pub fn prefix(self) -> char {
        match self {
            Phase::Placement => 'P',
            Phase::Codegen => 'G',
            Phase::Fusion => 'F',
        }
    }

    /// The phase's lowercase name, as used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Placement => "placement",
            Phase::Codegen => "codegen",
            Phase::Fusion => "fusion",
        }
    }
}

/// A stable identifier of one decision within a report: the phase plus
/// the event's index in that phase's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DecisionId {
    /// The phase whose event stream the decision comes from.
    pub phase: Phase,
    /// Zero-based index into that stream.
    pub index: usize,
}

impl DecisionId {
    /// A placement decision id (`P<index>`).
    pub fn placement(index: usize) -> DecisionId {
        DecisionId {
            phase: Phase::Placement,
            index,
        }
    }

    /// A codegen decision id (`G<index>`).
    pub fn codegen(index: usize) -> DecisionId {
        DecisionId {
            phase: Phase::Codegen,
            index,
        }
    }

    /// A fusion decision id (`F<index>`).
    pub fn fusion(index: usize) -> DecisionId {
        DecisionId {
            phase: Phase::Fusion,
            index,
        }
    }
}

impl fmt::Display for DecisionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.phase.prefix(), self.index)
    }
}

/// All decisions recorded while explaining one loop: the raw event
/// streams of the three phases, addressable by [`DecisionId`].
#[derive(Debug, Clone, Default)]
pub struct Decisions {
    /// Shift-placement events (`P*`).
    pub placement: PlacementTrace,
    /// Code-generation events (`G*`).
    pub codegen: CodegenTrace,
    /// Engine trace-fusion events (`F*`).
    pub fusion: Vec<FusionEvent>,
}

impl Decisions {
    /// Total number of decisions across all phases.
    pub fn len(&self) -> usize {
        self.placement.events.len() + self.codegen.events.len() + self.fusion.len()
    }

    /// Whether no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every decision as `(id, human-readable text)`, in phase order
    /// (placement, then codegen, then fusion) and event order within
    /// each phase.
    pub fn entries(&self) -> Vec<(DecisionId, String)> {
        let mut out = Vec::with_capacity(self.len());
        for (i, e) in self.placement.events.iter().enumerate() {
            out.push((DecisionId::placement(i), e.to_string()));
        }
        for (i, e) in self.codegen.events.iter().enumerate() {
            out.push((DecisionId::codegen(i), e.to_string()));
        }
        for (i, e) in self.fusion.iter().enumerate() {
            out.push((DecisionId::fusion(i), e.to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(DecisionId::placement(3).to_string(), "P3");
        assert_eq!(DecisionId::codegen(0).to_string(), "G0");
        assert_eq!(DecisionId::fusion(12).to_string(), "F12");
    }

    #[test]
    fn empty_decisions() {
        let d = Decisions::default();
        assert!(d.is_empty());
        assert!(d.entries().is_empty());
    }
}
