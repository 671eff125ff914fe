//! Errors of the data reorganization phase.

use crate::graph::NodeId;
use crate::offset::Offset;
use crate::policy::Policy;
use simdize_ir::{ScalarType, VectorShape};
use std::error::Error;
use std::fmt;

/// Failure to build a data reorganization graph from a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildGraphError {
    /// One element does not fit in a vector register.
    ElementTooWide {
        /// The loop's element type.
        elem: ScalarType,
        /// The target shape.
        shape: VectorShape,
    },
    /// A reference's stride exceeds [`crate::MAX_STRIDE`]: its pack or
    /// scatter window would read past the memory image's guard padding.
    UnsupportedStride {
        /// The offending stride.
        stride: u32,
    },
    /// The blocking factor `B = V / D` is 1; there is nothing to
    /// vectorize.
    NoParallelism {
        /// The loop's element type.
        elem: ScalarType,
        /// The target shape.
        shape: VectorShape,
    },
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::ElementTooWide { elem, shape } => write!(
                f,
                "element type {elem} ({} bytes) is wider than a {shape} register",
                elem.size()
            ),
            BuildGraphError::UnsupportedStride { stride } => write!(
                f,
                "stride {stride} exceeds the supported maximum {}",
                crate::MAX_STRIDE
            ),
            BuildGraphError::NoParallelism { elem, shape } => write!(
                f,
                "blocking factor for {elem} on {shape} is 1; simdization is pointless"
            ),
        }
    }
}

impl Error for BuildGraphError {}

/// Failure to apply a shift-placement policy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyError {
    /// The eager, lazy and dominant policies require every alignment in
    /// the loop to be known at compile time (paper §3.4, §4.4).
    NeedsCompileTimeAlignment {
        /// The policy that was requested.
        policy: Policy,
    },
    /// The graph already contains shifts placed by a policy.
    AlreadyPlaced {
        /// The policy that placed the existing shifts.
        existing: Policy,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::NeedsCompileTimeAlignment { policy } => write!(
                f,
                "the {policy} policy requires compile-time alignments; \
                 use the zero-shift policy for runtime alignments"
            ),
            PolicyError::AlreadyPlaced { existing } => write!(
                f,
                "shifts were already placed by the {existing} policy; \
                 apply policies to the unshifted graph"
            ),
        }
    }
}

impl Error for PolicyError {}

/// A violation of the graph validity constraints (C.2)/(C.3).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateGraphError {
    /// Constraint (C.3): two operands of a `vop` have conflicting stream
    /// offsets.
    OperandMismatch {
        /// The offending `vop` node.
        node: NodeId,
        /// Offset accumulated from earlier operands.
        left: Offset,
        /// The conflicting operand offset.
        right: Offset,
    },
    /// Constraint (C.2): a store's source stream offset does not match
    /// the store address alignment.
    StoreMismatch {
        /// The offending `vstore` node.
        node: NodeId,
        /// The offset required by the store address.
        required: Offset,
        /// The offset the source stream actually has.
        found: Offset,
    },
    /// A `vop` whose operands sit at a non-natural stream offset:
    /// lane-wise arithmetic would mix bytes of adjacent elements.
    UnnaturalOperands {
        /// The offending `vop` node.
        node: NodeId,
        /// The (non-natural) operand offset.
        offset: Offset,
    },
    /// A `vshiftstream` whose direction cannot be determined at compile
    /// time (paper §4.4 requires a compile-time-decidable direction).
    UndecidableShift {
        /// The offending shift node.
        node: NodeId,
        /// Source stream offset.
        from: Offset,
        /// Target stream offset.
        to: Offset,
    },
}

impl fmt::Display for ValidateGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateGraphError::OperandMismatch { node, left, right } => write!(
                f,
                "constraint C.3 violated at {node}: operand stream offsets {left} and {right} differ"
            ),
            ValidateGraphError::StoreMismatch {
                node,
                required,
                found,
            } => write!(
                f,
                "constraint C.2 violated at {node}: store requires offset {required}, \
                 source stream has {found}"
            ),
            ValidateGraphError::UnnaturalOperands { node, offset } => write!(
                f,
                "operands of {node} sit at non-natural stream offset {offset}; lane \
                 arithmetic would straddle element boundaries"
            ),
            ValidateGraphError::UndecidableShift { node, from, to } => write!(
                f,
                "shift direction at {node} (from {from} to {to}) is not decidable at compile time"
            ),
        }
    }
}

impl Error for ValidateGraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        let e = ValidateGraphError::OperandMismatch {
            node: NodeId(3),
            left: Offset::Byte(4),
            right: Offset::Byte(8),
        };
        assert!(e.to_string().contains("C.3"));
        let e = PolicyError::NeedsCompileTimeAlignment {
            policy: Policy::Lazy,
        };
        assert!(e.to_string().contains("lazy"));
        let e = BuildGraphError::NoParallelism {
            elem: ScalarType::I64,
            shape: VectorShape::V8,
        };
        assert!(e.to_string().contains("blocking factor"));
    }
}
