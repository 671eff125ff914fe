//! Data reorganization graphs and stream-shift placement policies.
//!
//! This crate implements §3 of Eichenberger, Wu and O'Brien (PLDI 2004):
//! the *data reorganization phase* of simdization. A loop is first
//! simdized as if the target had no alignment constraints, producing one
//! expression tree per statement; this crate then inserts explicit data
//! reordering operations (`vshiftstream` nodes) so that the **stream
//! offset** of every node satisfies the paper's validity constraints:
//!
//! * **(C.2)** the stream stored by `vstore(addr(i), src)` has offset
//!   `addr(0) mod V`;
//! * **(C.3)** all inputs of a `vop` have matching stream offsets.
//!
//! The result is a [`ReorgGraph`] — the interface between the (mostly
//! architecture-independent) reorganization phase and the SIMD code
//! generation phase in `simdize-codegen`.
//!
//! Five [`Policy`] choices control where shifts are placed: the
//! paper's four greedy rules (§3.4) — [`Policy::Zero`],
//! [`Policy::Eager`], [`Policy::Lazy`] and [`Policy::Dominant`] — plus
//! [`Policy::Optimal`], which proves the per-statement minimum by
//! exact search (tree DP cross-checked by branch-and-bound; see
//! [`optimal_shift_counts`]). Zero-shift is the only policy applicable
//! when alignments are unknown until run time (§4.4).
//!
//! [`reassociate`] implements the *common offset reassociation*
//! optimization of §5.5, regrouping associative chains by stream offset
//! so that lazy/dominant placement reaches the analytic minimum number of
//! shifts.
//!
//! # Example
//!
//! ```
//! use simdize_ir::{parse_program, VectorShape};
//! use simdize_reorg::{ReorgGraph, Policy};
//!
//! // Figure 1: stream offsets are 12 (store), 4 and 8 (loads).
//! let p = parse_program(
//!     "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
//!      for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
//! )?;
//! let graph = ReorgGraph::build(&p, VectorShape::V16)?;
//! let zero = graph.with_policy(Policy::Zero)?;
//! let lazy = graph.with_policy(Policy::Lazy)?;
//! assert_eq!(zero.shift_count(), 3);   // two loads + the store
//! assert_eq!(lazy.shift_count(), 2);
//! zero.validate()?;
//! lazy.validate()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod applicability;
mod dot;
mod error;
mod graph;
mod offset;
mod optimal;
mod policy;
mod reassoc;
mod stats;
mod trace;

pub use applicability::{simdizable_aligned_only, simdizable_by_peeling};
pub use dot::to_dot;
pub use error::{BuildGraphError, PolicyError, ValidateGraphError};
pub use graph::{NodeId, RNode, ReorgGraph, VOpKind, MAX_STRIDE};
pub use offset::{pack_chunks, shift_amount, Offset, ShiftDir};
pub use optimal::{branch_and_bound_shift_counts, optimal_shift_counts, OptimalStmt};
pub use policy::Policy;
pub use reassoc::reassociate;
pub use stats::{distinct_alignments, GraphStats};
pub use trace::{Constraint, PlacementEvent, PlacementTrace};
