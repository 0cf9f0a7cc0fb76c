//! Data-flow graph (DFG) substrate for instruction-set-extension (ISE) identification.
//!
//! This crate implements §3 ("Problem statement") and §5.4 ("Data structures") of
//! Bonzini & Pozzi, *Polynomial-Time Subgraph Enumeration for Automated Instruction Set
//! Extension* (DATE 2007):
//!
//! * [`Dfg`] — the data-flow graph of a basic block: one node per operation, edges in
//!   data-flow direction, a set of external inputs `Iext` (root vertices), a set of
//!   external outputs `Oext`, and a set of *forbidden* nodes `F` (operations that may
//!   not be part of a custom instruction, e.g. loads and stores).
//! * [`RootedDfg`] — the augmentation of a [`Dfg`] with a single artificial *source*
//!   (predecessor of every root and of every forbidden node without predecessors) and a
//!   single artificial *sink* (successor of every `Oext` vertex), so that both the graph
//!   and its reverse are rooted. Dominators and postdominators are computed on this
//!   view.
//! * [`Reachability`] — precomputed path information, stored as three flat bit
//!   matrices: for every pair of nodes whether a path exists and whether some path
//!   between them avoids forbidden nodes (used by the lossless output–input pruning
//!   of §5.3), plus every node's ancestor set.
//! * [`DenseNodeSet`] — a cache-friendly fixed-capacity bit set over node ids, the
//!   work-horse set representation used throughout the workspace; [`NodeRow`] is its
//!   borrowed, read-only form (one row of a bit matrix).
//! * [`CsrAdjacency`] — the flat compressed-sparse-row storage behind both graphs'
//!   `preds()`/`succs()` rows: one edge arena plus an offset table per direction, so
//!   the enumeration hot paths walk contiguous memory instead of per-row allocations.
//! * [`InterfaceGraph`] — the interface-labeled subgraph of a [`CutLike`] cut
//!   (operations, operand order, input/output roles over local ids), a view over the
//!   raw words [`RawEncoder`] writes from the cut's own interface; canonical-form
//!   grouping (`ise-canon`) recognizes recurring candidates on it.
//!
//! # Example
//!
//! Build the data-flow graph of `x = (a + b) * c; y = (a + b) - d`:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ise_graph::{DfgBuilder, Operation};
//!
//! let mut b = DfgBuilder::new("example");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let c = b.input("c");
//! let d = b.input("d");
//! let sum = b.node(Operation::Add, &[a, bb]);
//! let x = b.node(Operation::Mul, &[sum, c]);
//! let y = b.node(Operation::Sub, &[sum, d]);
//! b.mark_output(x);
//! b.mark_output(y);
//! let dfg = b.build()?;
//!
//! assert_eq!(dfg.len(), 7);
//! assert_eq!(dfg.external_inputs().len(), 4);
//! assert_eq!(dfg.external_outputs().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod builder;
mod csr;
mod dot;
mod error;
mod graph;
mod interface;
mod node;
mod op;
mod reach;
mod rooted;
mod topo;

pub use bitset::{DenseNodeSet, NodeRow};
pub use builder::DfgBuilder;
pub use csr::CsrAdjacency;
pub use dot::DotOptions;
pub use error::GraphError;
pub use graph::Dfg;
pub use interface::{CutLike, InterfaceGraph, InterfaceLabel, RawEncoder};
pub use node::{Node, NodeId};
pub use op::{Operation, OperationClass};
pub use reach::Reachability;
pub use rooted::RootedDfg;
