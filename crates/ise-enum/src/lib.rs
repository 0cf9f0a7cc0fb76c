//! Polynomial-time enumeration of convex subgraphs (Instruction Set Extension
//! candidates) under input/output constraints.
//!
//! This crate is the core contribution of the reproduced paper — Bonzini & Pozzi,
//! *Polynomial-Time Subgraph Enumeration for Automated Instruction Set Extension*
//! (DATE 2007). Given the data-flow graph of a basic block, a read-port constraint
//! `Nin`, a write-port constraint `Nout` and a set of forbidden operations, it
//! enumerates every *convex cut* (candidate custom instruction) satisfying the
//! constraints:
//!
//! * [`incremental_cuts`] — the incremental algorithm of §5.2/Figure 3 with the pruning
//!   techniques of §5.3; polynomial `O(n^(Nin+Nout+1))` and the engine meant for real
//!   basic blocks. Its [`EngineOptions`] carry the search budget, and an
//!   optional recorder observes the run.
//!   [`enumerate_cuts`] is the one-call convenience wrapper around it.
//! * [`basic_cuts`] — the basic algorithm of §5.1/Figure 2, used as a readable
//!   reference implementation and cross-check.
//! * [`baseline_cuts`] — the pruned exhaustive search of Atasu/Pozzi et al. (refs.
//!   \[4\]/\[15\]), the exponential-worst-case comparison baseline of the evaluation.
//! * [`exhaustive_cuts`] — a brute-force oracle over all vertex subsets, for testing.
//! * [`estimate_merit`] / [`select_ises`] — the downstream use of the enumeration: a
//!   latency-based speedup model per cut and a greedy selector of non-overlapping
//!   custom instructions (§1/§7 of the paper).
//!
//! Each algorithm has one entry point, its `*_cuts` function. All four drive one
//! crate-private search engine: an arena-style search state owning the incremental
//! cut-body maintenance of §5.2 (extend on output pick, retract on input pick, undo
//! on backtrack), the packed-key de-duplication table and the search budget. See
//! DESIGN.md for the design history, including the earlier rebuild-per-`CHECK-CUT`
//! pipeline the engine replaced.
//!
//! For large blocks the [`par`] module splits the incremental search at the
//! first-output level into a static fan-out of independent tasks — run by scoped
//! workers sharing one item list ([`par::run_items`]) and merged by concatenating the tasks' cut lists in task
//! order, each cut body kept once — and [`par::parallel_cuts`] reproduces the serial
//! cut list and every counter a report renders for any task and thread count on
//! unbudgeted runs (only the per-task rejection tallies differ, see [`par`]). The
//! engine de-duplicates every candidate before validating it ([`DedupMode`] names
//! that one order, DESIGN.md §1.2).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ise_enum::{enumerate_cuts, Constraints};
//! use ise_graph::{DfgBuilder, Operation};
//!
//! // x = (a + b) << 1;  y = (a + b) - c
//! let mut b = DfgBuilder::new("example");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let c = b.input("c");
//! let sum = b.node(Operation::Add, &[a, bb]);
//! let x = b.node(Operation::Shl, &[sum]);
//! let y = b.node(Operation::Sub, &[sum, c]);
//! b.mark_output(x);
//! b.mark_output(y);
//!
//! let result = enumerate_cuts(&b.build()?, &Constraints::new(4, 2)?)?;
//! // The whole block is one of the candidates: inputs {a, b, c}, outputs {x, y}.
//! assert!(result.cuts.iter().any(|cut| cut.len() == 3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod basic;
mod cone;
mod config;
mod context;
mod cut;
mod engine;
mod exhaustive;
mod incremental;
mod merit;
mod obs;
pub mod par;
mod result;
mod selection;
mod stats;

pub use baseline::baseline_cuts;
pub use basic::basic_cuts;
pub use cone::cone;
pub use config::{ConstraintError, Constraints, PruningConfig};
pub use context::EnumContext;
pub use cut::{Cut, CutChecker, CutKey, CutRejection};
pub use engine::{DedupMode, EngineOptions};
pub use exhaustive::{exhaustive_cuts, MAX_EXHAUSTIVE_CANDIDATES};
pub use incremental::incremental_cuts;
pub use merit::{estimate_merit, Merit};
pub use result::Enumeration;
pub use selection::{block_software_cycles, block_speedup, select_ises, Selection};
pub use stats::{EnumStats, TaskLoadSummary};

use ise_graph::{Dfg, GraphError};

/// Enumerates every valid cut of `dfg` under `constraints` with the incremental
/// polynomial algorithm and all pruning techniques enabled.
///
/// This is the convenience entry point; to reuse the precomputed analyses across several
/// runs (different constraints, pruning ablations, baselines), or to set a search
/// budget, build an [`EnumContext`] once and call [`incremental_cuts`] directly.
///
/// # Errors
///
/// Currently never fails for a well-formed [`Dfg`]; the `Result` return type leaves room
/// for future validation (for example, rejecting graphs whose size would make the run
/// infeasible).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{enumerate_cuts, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("mac");
/// let a = b.input("a");
/// let x = b.input("x");
/// let acc = b.input("acc");
/// let mul = b.node(Operation::Mul, &[a, x]);
/// let sum = b.node(Operation::Add, &[mul, acc]);
/// b.mark_output(sum);
///
/// let result = enumerate_cuts(&b.build()?, &Constraints::new(3, 1)?)?;
/// assert!(result.cuts.iter().any(|cut| cut.len() == 2), "the MAC itself is a candidate");
/// # Ok(())
/// # }
/// ```
pub fn enumerate_cuts(dfg: &Dfg, constraints: &Constraints) -> Result<Enumeration, GraphError> {
    let ctx = EnumContext::new(dfg.clone());
    Ok(incremental_cuts(
        &ctx,
        constraints,
        &PruningConfig::all(),
        &EngineOptions::default(),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_graph::{DfgBuilder, Operation};

    #[test]
    fn enumerate_cuts_wraps_the_incremental_engine() {
        let mut b = DfgBuilder::new("wrap");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Shl, &[n]);
        let dfg = b.build().unwrap();
        let constraints = Constraints::new(2, 2).unwrap();
        let wrapped = enumerate_cuts(&dfg, &constraints).unwrap();
        let ctx = EnumContext::new(dfg);
        let direct = incremental_cuts(
            &ctx,
            &constraints,
            &PruningConfig::all(),
            &EngineOptions::default(),
            None,
        );
        assert_eq!(wrapped.cuts.len(), direct.cuts.len());
        assert!(wrapped.cuts.iter().any(|cut| cut.contains(x)));
        assert!(wrapped.cuts.iter().any(|cut| cut.contains(n)));
    }
}
