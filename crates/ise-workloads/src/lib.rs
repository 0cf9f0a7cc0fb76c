//! Workload generators for the ISE subgraph-enumeration experiments.
//!
//! The evaluation of the reproduced paper (§6) runs on two families of data-flow
//! graphs: 250 basic blocks extracted from MiBench (10–1196 nodes, grouped in three
//! size clusters) and four synthetic tree-shaped graphs (Figure 4) that are the worst
//! case for the exhaustive baseline. Neither the authors' compiler dumps nor their
//! exact blocks are available, so this crate provides seeded generators that reproduce
//! the *structural* properties the algorithms are sensitive to (see the substitution
//! notes in DESIGN.md):
//!
//! * [`tree`] — the Figure 4 tree-shaped worst case, parameterized by depth;
//! * [`random_dag`](mod@random_dag) — layered random DAGs with controllable size, fan-in and
//!   memory-operation density, used for the scaling study;
//! * [`mibench_like`] — a MiBench-like basic-block generator and the 250-block suite
//!   with the paper's size clusters;
//! * [`skewed_dag`](mod@skewed_dag) — one dense ALU blob amid trivial chains, the
//!   load-skew worst case for count-balanced task fan-out;
//! * [`expr`] — a tiny straight-line-code frontend that compiles expression statements
//!   into data-flow graphs, used by the examples;
//! * [`export`] — the standard corpus export: a diverse selection from every family
//!   above, consumed by `ise-corpus` to (re)generate the committed `corpus/` directory.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ise_workloads::mibench_like::{MiBenchLikeConfig, generate_block};
//! use ise_workloads::tree::TreeDfgBuilder;
//!
//! let tree = TreeDfgBuilder::new(4).build();
//! assert_eq!(tree.external_outputs().len(), 16);
//!
//! let block = generate_block(&MiBenchLikeConfig::new(120), 7)?;
//! assert!(block.len() >= 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod expr;
pub mod mibench_like;
pub mod random_dag;
pub mod skewed_dag;
pub mod tree;

pub use export::{standard_export, ExportBlock};
pub use expr::compile_block;
pub use mibench_like::{generate_block, suite, MiBenchLikeConfig, SizeCluster, SuiteBlock};
pub use random_dag::{random_dag, RandomDagConfig};
pub use skewed_dag::{skewed_dag, SkewedDagConfig};
pub use tree::TreeDfgBuilder;
