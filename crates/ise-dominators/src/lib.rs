//! Single- and multiple-vertex dominator computation for ISE identification.
//!
//! This crate provides the dominator machinery required by the polynomial-time convex
//! subgraph enumeration of Bonzini & Pozzi (DATE 2007):
//!
//! * [`dag_dominators`] and [`ConeDominators`] — the engine's dominators. Data-flow
//!   graphs are acyclic, so one Cooper–Harvey–Kennedy pass over a [`TopoOrder`] is
//!   exact. `dag_dominators` builds the dominator and postdominator trees of a block;
//!   `ConeDominators` answers the incremental enumeration's per-`PICK-INPUTS` query
//!   (the Dubrova completions of a seed, §5.2) over the output's ancestor cone only,
//!   with no per-run allocation, as a stack of per-seed levels in which a seed grown
//!   by one vertex re-sweeps only that vertex's descendants;
//! * [`lengauer_tarjan`] — the `O(e log n)` Lengauer–Tarjan algorithm (simple variant
//!   with path compression, §5.4 of the paper) over any [`FlowGraph`], optionally with a
//!   set of *removed* vertices. It is the independent oracle the DAG pass is tested
//!   against, and it drives the reference enumeration in [`multi`];
//! * [`DominatorTree`] — immediate dominators plus constant-time `dominates` ancestry
//!   queries (§5.4: "Ancestor queries … can be performed in constant time");
//! * [`dominators`] / [`postdominators`] — the trees of an augmented data-flow graph,
//!   rooted at the artificial source and sink;
//! * [`multi`] — generalized (multiple-vertex) dominators in the sense of Gupta and
//!   Dubrova et al.: verification of the two defining conditions and polynomial
//!   enumeration of all dominator sets up to a given cardinality.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ise_dominators::{dominators, postdominators};
//! use ise_graph::{DfgBuilder, Operation, RootedDfg};
//!
//! let mut b = DfgBuilder::new("bb");
//! let a = b.input("a");
//! let x = b.node(Operation::Not, &[a]);
//! let y = b.node(Operation::Add, &[x, a]);
//! let rooted = RootedDfg::new(b.build()?);
//!
//! let dom = dominators(&rooted);
//! assert!(dom.dominates(a, y));
//! let pdom = postdominators(&rooted);
//! assert!(pdom.dominates(y, a));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
mod flow;
mod lt;
pub mod multi;
mod tree;

pub use dag::{dag_dominators, ConeDominators, TopoOrder};
pub use flow::{FlowGraph, Forward, Reverse};
pub use lt::{lengauer_tarjan, lengauer_tarjan_reduced};
pub use tree::DominatorTree;

use ise_graph::RootedDfg;

/// Computes the dominator tree of the augmented data-flow graph (rooted at the
/// artificial source) with the one-pass DAG algorithm.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::dominators;
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let rooted = RootedDfg::new(b.build()?);
/// let dom = dominators(&rooted);
/// assert_eq!(dom.idom(x), Some(a));
/// # Ok(())
/// # }
/// ```
pub fn dominators(graph: &RootedDfg) -> DominatorTree {
    dag_dominators(&Forward(graph), &TopoOrder::forward(graph))
}

/// Computes the postdominator tree of the augmented data-flow graph (dominators of the
/// reverse graph, rooted at the artificial sink) with the one-pass DAG algorithm.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::postdominators;
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let y = b.node(Operation::Xor, &[x]);
/// let rooted = RootedDfg::new(b.build()?);
/// let pdom = postdominators(&rooted);
/// assert!(pdom.dominates(y, x), "y postdominates x");
/// # Ok(())
/// # }
/// ```
pub fn postdominators(graph: &RootedDfg) -> DominatorTree {
    dag_dominators(&Reverse(graph), &TopoOrder::reverse(graph))
}
