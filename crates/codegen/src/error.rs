//! Code generation errors.

use simdize_reorg::ValidateGraphError;
use std::error::Error;
use std::fmt;

/// Failure to generate SIMD code from a data reorganization graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GenCodeError {
    /// The input graph violates constraint (C.2) or (C.3); apply a
    /// shift-placement policy first.
    InvalidGraph(ValidateGraphError),
    /// Reduction statements need a compile-time trip count (the
    /// residue mask is a compile-time byte pattern).
    ReductionNeedsKnownTrip,
    /// A reduction's accumulator element must have a compile-time
    /// alignment (the scalar merge pattern is compile time).
    ReductionNeedsKnownAlignment,
    /// A non-unit-stride reference needs a compile-time trip count (a
    /// partial scatter deposits a compile-time number of lanes).
    StrideNeedsKnownTrip,
    /// A non-unit-stride reference needs a compile-time base alignment
    /// (its pack and scatter patterns are compile-time byte selections).
    StrideNeedsKnownAlignment,
}

impl fmt::Display for GenCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenCodeError::InvalidGraph(e) => {
                write!(f, "cannot generate code from an invalid graph: {e}")
            }
            GenCodeError::ReductionNeedsKnownTrip => {
                f.write_str("reductions need a compile-time trip count")
            }
            GenCodeError::ReductionNeedsKnownAlignment => {
                f.write_str("a reduction target needs a compile-time alignment")
            }
            GenCodeError::StrideNeedsKnownTrip => {
                f.write_str("non-unit-stride references need a compile-time trip count")
            }
            GenCodeError::StrideNeedsKnownAlignment => {
                f.write_str("a non-unit-stride reference needs a compile-time alignment")
            }
        }
    }
}

impl Error for GenCodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenCodeError::InvalidGraph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateGraphError> for GenCodeError {
    fn from(e: ValidateGraphError) -> Self {
        GenCodeError::InvalidGraph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, VectorShape};
    use simdize_reorg::ReorgGraph;

    #[test]
    fn wraps_validation_errors_with_source() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 4; }
             for i in 0..32 { a[i] = b[i]; }",
        )
        .unwrap();
        let g = ReorgGraph::build(&p, VectorShape::V16).unwrap();
        let inner = g.validate().unwrap_err();
        let e = GenCodeError::from(inner);
        assert!(e.to_string().contains("cannot generate"));
        assert!(e.source().is_some());
    }
}
