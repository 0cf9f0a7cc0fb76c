//! Load-skewed data-flow graphs: one dense subgraph amid trivial chains.
//!
//! The first-output task decomposition of `ise_enum::par` partitions the candidate
//! outputs into contiguous ranges. That is a *count* balance, not a *work* balance:
//! real blocks concentrate their enumeration cost in a few dense ALU regions, so one
//! range can own almost all search nodes while the rest finish instantly, and its
//! tail serializes the run (DESIGN.md §1.3). This generator builds such a block on
//! purpose: a single densely wired forbidden-free ALU blob (every node a candidate
//! root of an expensive subtree, clustered at the front of the candidate order)
//! followed by many trivial unary chains (cheap roots that pad the candidate count).
//! Static fan-out over it shows a large task-load skew, which makes it the stress
//! case for the fan-out's exactness and its scheduling.

use ise_graph::{Dfg, DfgBuilder, NodeId, Operation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the skewed-DAG generator.
///
/// The graph is `heavy_nodes` densely wired ALU operations (layers of
/// `heavy_width`, operands drawn from *all* previous layers, no memory operations —
/// so nothing is forbidden and the subtree under each root is large), followed by
/// `chains` independent unary chains of `chain_depth` operations each. The heavy
/// blob is built first, so its roots occupy the low candidate indices.
///
/// # Example
///
/// ```
/// use ise_workloads::skewed_dag::{skewed_dag, SkewedDagConfig};
///
/// let cfg = SkewedDagConfig::new(24, 24);
/// let dfg = skewed_dag(&cfg, 7);
/// assert_eq!(dfg.len(), cfg.total_nodes());
/// assert!(dfg.forbidden().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SkewedDagConfig {
    heavy_nodes: usize,
    heavy_width: usize,
    chains: usize,
    chain_depth: usize,
    live_ins: usize,
}

impl SkewedDagConfig {
    /// Creates a configuration with `heavy_nodes` operations in the dense blob and
    /// `chains` light chains, with defaults chosen so the whole block crosses the
    /// CLI's fan-out threshold: 4 live-ins, blob layers of 4, chains of depth 2.
    ///
    /// # Panics
    ///
    /// Panics if `heavy_nodes` is zero.
    pub fn new(heavy_nodes: usize, chains: usize) -> Self {
        assert!(heavy_nodes > 0, "the dense blob needs at least one node");
        SkewedDagConfig {
            heavy_nodes,
            heavy_width: 4,
            chains,
            chain_depth: 2,
            live_ins: 4,
        }
    }

    /// Sets the blob layer width (lower = deeper, more expensive subtrees).
    #[must_use]
    pub fn with_heavy_width(mut self, width: usize) -> Self {
        self.heavy_width = width.max(1);
        self
    }

    /// Sets the depth of each light chain.
    #[must_use]
    pub fn with_chain_depth(mut self, depth: usize) -> Self {
        self.chain_depth = depth.max(1);
        self
    }

    /// Total vertex count of the generated graph (live-ins included).
    pub fn total_nodes(&self) -> usize {
        self.live_ins + self.heavy_nodes + self.chains * self.chain_depth
    }
}

/// Generates a skewed DAG according to `config`, deterministically in `seed`.
///
/// The graph is named `skewed-dag-{total}-{seed}`, following the corpus naming
/// convention of the other generators.
pub fn skewed_dag(config: &SkewedDagConfig, seed: u64) -> Dfg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = DfgBuilder::new(format!("skewed-dag-{}-{seed}", config.total_nodes()));

    let live_ins: Vec<NodeId> = (0..config.live_ins)
        .map(|i| builder.input(format!("in{i}")))
        .collect();

    // The dense blob: operands drawn from every previous layer (no locality window),
    // so the cone under each node quickly spans most of the blob and every root is
    // an expensive first-output task.
    const BLOB_OPS: &[Operation] = &[
        Operation::Add,
        Operation::Sub,
        Operation::And,
        Operation::Or,
        Operation::Xor,
    ];
    let mut values: Vec<NodeId> = live_ins.clone();
    let mut produced = 0usize;
    while produced < config.heavy_nodes {
        let width = config.heavy_width.min(config.heavy_nodes - produced);
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            let op = BLOB_OPS[rng.gen_range(0..BLOB_OPS.len())];
            let mut operands = vec![
                values[rng.gen_range(0..values.len())],
                values[rng.gen_range(0..values.len())],
            ];
            operands.dedup();
            layer.push(builder.node(op, &operands));
            produced += 1;
        }
        for &node in &layer {
            values.push(node);
        }
    }
    let blob_out = *values.last().expect("the blob produced at least one node");
    builder.mark_output(blob_out);

    // The light chains: each a short unary tail off one live-in. Their roots are
    // cheap (a chain node's cone is just the chain prefix) and pad the candidate
    // count, so a count-balanced fan-out hands nearly all work to the blob ranges.
    for c in 0..config.chains {
        let mut value = live_ins[c % live_ins.len()];
        for d in 0..config.chain_depth {
            let op = if d % 2 == 0 {
                Operation::Not
            } else {
                Operation::Shl
            };
            value = builder.node(op, &[value]);
        }
        builder.mark_output(value);
    }

    builder
        .build()
        .expect("the layered construction cannot produce an invalid DFG")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_determinism() {
        let cfg = SkewedDagConfig::new(24, 24);
        let a = skewed_dag(&cfg, 7);
        let b = skewed_dag(&cfg, 7);
        assert_eq!(a.len(), cfg.total_nodes());
        assert_eq!(a.len(), b.len());
        assert!(a.edges().eq(b.edges()));
        assert_eq!(a.name(), "skewed-dag-76-7");
    }

    #[test]
    fn nothing_is_forbidden_and_chains_are_outputs() {
        let cfg = SkewedDagConfig::new(16, 10).with_chain_depth(3);
        let dfg = skewed_dag(&cfg, 1);
        assert!(dfg.forbidden().is_empty());
        // At least one output per chain plus the blob's (unconsumed blob values are
        // live-out too, as in any real block).
        assert!(dfg.external_outputs().len() > 10);
    }

    #[test]
    fn blob_nodes_precede_chain_nodes() {
        // The skew story depends on the heavy roots clustering at the low candidate
        // indices, which follow node-creation order.
        let cfg = SkewedDagConfig::new(12, 6);
        let dfg = skewed_dag(&cfg, 3);
        let chain_ops = dfg
            .node_ids()
            .filter(|&id| matches!(dfg.op(id), Operation::Not | Operation::Shl))
            .count();
        assert_eq!(chain_ops, 6 * 2);
        let first_chain = dfg
            .node_ids()
            .find(|&id| matches!(dfg.op(id), Operation::Not | Operation::Shl))
            .expect("chains exist");
        for id in dfg.node_ids() {
            let is_blob = !matches!(
                dfg.op(id),
                Operation::Input | Operation::Not | Operation::Shl
            );
            if is_blob {
                assert!(id < first_chain, "blob node {id} after a chain node");
            }
        }
    }
}
