//! Export hooks: the standard corpus of workload blocks.
//!
//! The batch tooling (`ise-corpus`, `ise-cli`) operates on serialized corpora of basic
//! blocks rather than on graphs constructed in-crate. This module is the bridge: it
//! enumerates a *standard export* — a small, structurally diverse selection drawn from
//! every workload family this crate generates (Figure 4 trees in both orientations,
//! layered random DAGs across sizes and memory densities, MiBench-like kernels across
//! the paper's size clusters, and the expression-frontend kernels used by the
//! examples) — so that the committed `corpus/` directory can be regenerated
//! deterministically from one seed.
//!
//! # Example
//!
//! ```
//! let blocks = ise_workloads::export::standard_export(42);
//! assert!(blocks.len() >= 20);
//! // Every family is represented.
//! for family in ["tree", "random-dag", "skewed-dag", "mibench-like", "expr"] {
//!     assert!(blocks.iter().any(|b| b.family == family), "missing {family}");
//! }
//! ```

use ise_graph::Dfg;

use crate::expr::compile_block;
use crate::mibench_like::{generate_block, MiBenchLikeConfig};
use crate::random_dag::{random_dag, RandomDagConfig};
use crate::skewed_dag::{skewed_dag, SkewedDagConfig};
use crate::tree::{TreeDfgBuilder, TreeOrientation};

/// One block of the standard export: a graph plus the provenance metadata that the
/// corpus format records per block.
#[derive(Clone, Debug)]
pub struct ExportBlock {
    /// The workload family the block was drawn from (`tree`, `random-dag`,
    /// `mibench-like`, `expr`).
    pub family: &'static str,
    /// The data-flow graph; its [`Dfg::name`] doubles as the corpus file name.
    pub dfg: Dfg,
    /// Additional `(key, value)` provenance entries (seed, generator knobs).
    pub meta: Vec<(String, String)>,
}

fn meta(pairs: &[(&str, String)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect()
}

/// Enumerates the standard corpus export, deterministically in `seed`.
///
/// The selection is deliberately diverse rather than large (around 20 blocks): trees of
/// the paper's depths in both orientations, random DAGs sweeping size and
/// memory-operation density (including one forbidden-free graph), MiBench-like blocks
/// covering all three size clusters of §6, and the two expression kernels the examples
/// walk through. Larger corpora are expected to be produced by external importers in
/// the same format.
pub fn standard_export(seed: u64) -> Vec<ExportBlock> {
    let mut blocks = Vec::new();

    // Figure 4 trees: the exhaustive baseline's worst case (fan-out) plus the reverse
    // reduction orientation.
    for depth in [3u32, 4, 5] {
        blocks.push(ExportBlock {
            family: "tree",
            dfg: TreeDfgBuilder::new(depth).build(),
            meta: meta(&[
                ("orientation", "fan-out".to_string()),
                ("depth", depth.to_string()),
            ]),
        });
    }
    blocks.push(ExportBlock {
        family: "tree",
        dfg: TreeDfgBuilder::new(4)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        meta: meta(&[
            ("orientation", "fan-in".to_string()),
            ("depth", "4".to_string()),
        ]),
    });

    // Layered random DAGs: the E3 scaling family, sweeping size and forbidden density
    // (the largest one memory-dense enough to stay fast unbudgeted, see above).
    for (nodes, memory_pct) in [(40usize, 0usize), (80, 10), (120, 15), (160, 25), (240, 30)] {
        let cfg = RandomDagConfig::new(nodes).with_memory_ratio(memory_pct as f64 / 100.0);
        blocks.push(ExportBlock {
            family: "random-dag",
            dfg: random_dag(&cfg, seed ^ nodes as u64),
            meta: meta(&[
                ("seed", (seed ^ nodes as u64).to_string()),
                ("memory_ratio_pct", memory_pct.to_string()),
            ]),
        });
    }

    // The load-skew worst case for count-balanced task fan-out: one dense
    // forbidden-free ALU blob (all the enumeration work) amid trivial chains (all
    // the candidate padding). The committed block exercising forced task fan-out
    // in CI; kept modest so unbudgeted runs stay fast.
    let skew_cfg = SkewedDagConfig::new(24, 24);
    blocks.push(ExportBlock {
        family: "skewed-dag",
        dfg: skewed_dag(&skew_cfg, seed),
        meta: meta(&[
            ("seed", seed.to_string()),
            ("heavy_nodes", "24".to_string()),
            ("chains", "24".to_string()),
        ]),
    });

    // MiBench-like kernels: all three size clusters of the §6 evaluation. The large
    // blocks get a denser memory mix — as in real unrolled kernels — which partitions
    // the graph into small clean regions and keeps unbudgeted batch runs fast (big
    // *and* memory-sparse blocks belong in budgeted experiments, not the standard
    // corpus).
    for (i, (size, memory_pct)) in [
        (12usize, 18usize),
        (24, 18),
        (48, 18),
        (64, 18),
        (96, 18),
        (150, 30),
        (300, 32),
        (500, 35),
        (850, 38),
    ]
    .into_iter()
    .enumerate()
    {
        let block_seed = seed.wrapping_add(i as u64 * 7919);
        let config = MiBenchLikeConfig::new(size).with_memory_ratio(memory_pct as f64 / 100.0);
        blocks.push(ExportBlock {
            family: "mibench-like",
            dfg: generate_block(&config, block_seed)
                .expect("the MiBench-like generator always yields a valid DFG"),
            meta: meta(&[
                ("seed", block_seed.to_string()),
                ("memory_ratio_pct", memory_pct.to_string()),
            ]),
        });
    }

    // The expression-frontend kernels the examples walk through (keep the sources in
    // sync with examples/quickstart.rs and examples/custom_fu_design.rs).
    let sad = compile_block(
        "sad-step",
        "d = a - b; \
         m = d >> 31; \
         abs = (d ^ m) - m; \
         acc2 = acc + abs; \
         out acc2;",
    )
    .expect("the quickstart kernel compiles");
    blocks.push(ExportBlock {
        family: "expr",
        dfg: sad,
        meta: meta(&[("source", "examples/quickstart.rs".to_string())]),
    });
    let arx = compile_block(
        "arx-round",
        "t1 = a + b; \
         t2 = t1 ^ (c << 7); \
         k  = load(kp + 4); \
         t3 = t2 + k; \
         t4 = t3 ^ (t1 >> 3); \
         t5 = t4 + c; \
         store(sp, t5); \
         out t4;",
    )
    .expect("the custom-FU kernel compiles");
    blocks.push(ExportBlock {
        family: "expr",
        dfg: arx,
        meta: meta(&[("source", "examples/custom_fu_design.rs".to_string())]),
    });

    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_deterministic() {
        let a = standard_export(42);
        let b = standard_export(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dfg.name(), y.dfg.name());
            assert_eq!(x.dfg.len(), y.dfg.len());
            assert!(x.dfg.edges().eq(y.dfg.edges()));
            assert_eq!(x.meta, y.meta);
        }
    }

    #[test]
    fn export_names_are_unique() {
        let blocks = standard_export(42);
        let mut names: Vec<_> = blocks.iter().map(|b| b.dfg.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            blocks.len(),
            "corpus file names must not clash"
        );
    }

    #[test]
    fn export_spans_the_size_clusters() {
        let blocks = standard_export(42);
        assert!(blocks.len() >= 20);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.dfg.len()).collect();
        assert!(sizes.iter().any(|&s| s < 80), "small cluster missing");
        assert!(
            sizes.iter().any(|&s| (80..800).contains(&s)),
            "medium cluster missing"
        );
        assert!(sizes.iter().any(|&s| s >= 800), "large cluster missing");
        // At least one block without forbidden vertices and one with them.
        assert!(blocks.iter().any(|b| b.dfg.forbidden().is_empty()));
        assert!(blocks.iter().any(|b| !b.dfg.forbidden().is_empty()));
    }
}
