//! Canonical-form grouping of candidate custom instructions.
//!
//! The enumeration of `ise-enum` exists to feed an ISE *selector*, and every
//! practical selection flow in the literature (ISEGEN, ARISE) first groups
//! structurally identical candidates so that one custom instruction is credited with
//! all of its occurrences across the application. This crate provides that layer:
//!
//! * [`CanonicalCode`] — a deterministic canonical code for a cut's
//!   interface-labeled subgraph ([`ise_graph::InterfaceGraph`]): iterative
//!   refinement by (label, operand-position) coloring plus backtracking canonical
//!   labeling, with the property that codes are equal **iff** the patterns are
//!   isomorphic (argued in DESIGN.md §6).
//! * [`PatternIndex`] — streams cuts from the engine/batch pipeline, de-duplicates
//!   them by canonical code, and records per-pattern occurrence lists with static
//!   and profile-weighted frequencies. Its [`PatternTable`] interns coded cuts on
//!   worker threads, so a block hands back `u32` pattern ids instead of its coded
//!   cuts.
//! * [`CanonMemo`] — a shared, lock-striped memo from raw interface-graph
//!   encodings to canonical codes (fingerprint pre-key, confirmed by the full
//!   encoding), so the labeler runs once per distinct raw graph instead of once
//!   per cut; [`canonicalize_cuts_memo`] is the memoized coding path.
//! * [`select_ises_global`] — corpus-level selection: pattern merit is
//!   `occurrences × saved_cycles` with per-block overlap resolution, so recurrence
//!   finally counts. The per-block greedy of `ise_enum::select_ises` remains
//!   available as a mode; nothing is replaced.
//!
//! # Example
//!
//! ```
//! use ise_canon::{CanonicalCode, GroupConfig, PatternIndex};
//! use ise_enum::{enumerate_cuts, Constraints};
//! use ise_graph::{DfgBuilder, Operation};
//!
//! // The same multiply–accumulate appears in two blocks; the index groups it.
//! let mut index = PatternIndex::new(GroupConfig::default());
//! for name in ["alpha", "beta"] {
//!     let mut b = DfgBuilder::new(name);
//!     let a = b.input("a");
//!     let x = b.input("x");
//!     let acc = b.input("acc");
//!     let m = b.node(Operation::Mul, &[a, x]);
//!     let s = b.node(Operation::Add, &[m, acc]);
//!     b.mark_output(s);
//!     let dfg = b.build().unwrap();
//!     let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1).unwrap()).unwrap();
//!     index.add_block(&dfg, &cuts.cuts, 1.0);
//! }
//! assert!(index
//!     .entries()
//!     .iter()
//!     .any(|e| e.static_count() == 2 && e.distinct_blocks() == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod index;
mod memo;
mod select;

pub use canon::CanonicalCode;
pub use index::{
    canonicalize_cuts, canonicalize_cuts_memo, CodedCut, GroupConfig, Occurrence, PatternEntry,
    PatternIndex, PatternTable,
};
pub use memo::{CanonMemo, MemoStats};
pub use select::{select_ises_global, GlobalChoice, GlobalSelection};
