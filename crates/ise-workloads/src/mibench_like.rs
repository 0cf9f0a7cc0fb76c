//! A MiBench-like basic-block suite.
//!
//! The paper's evaluation (§6) uses 250 basic blocks collected from MiBench with sizes
//! from 10 to 1196 nodes, presented in three size clusters (10–79, 80–799, 800–1196)
//! plus four synthetic tree-shaped graphs. The original compiler dumps are not
//! available, so this module provides a seeded generator whose output matches the
//! structural statistics that the enumeration algorithms are sensitive to: block size
//! distribution across the same clusters, an embedded-integer-kernel operation mix
//! (ALU-dominated with a realistic share of memory accesses, which become forbidden
//! vertices and partition the graph as §5.3 relies on), short def-use distances and a
//! handful of live-in/live-out values per block.

use ise_graph::{Dfg, DfgBuilder, GraphError, NodeId, Operation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three block-size clusters used to group the data points of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeCluster {
    /// 10–79 nodes.
    Small,
    /// 80–799 nodes.
    Medium,
    /// 800–1196 nodes.
    Large,
    /// The synthetic tree-shaped graphs of Figure 4.
    Tree,
}

impl SizeCluster {
    /// Classifies a block size (tree blocks are tagged explicitly by the suite).
    pub fn of_size(nodes: usize) -> Self {
        match nodes {
            0..=79 => SizeCluster::Small,
            80..=799 => SizeCluster::Medium,
            _ => SizeCluster::Large,
        }
    }

    /// The label used in Figure 5's legend.
    pub fn label(self) -> &'static str {
        match self {
            SizeCluster::Small => "10-79",
            SizeCluster::Medium => "80-799",
            SizeCluster::Large => "800-1196",
            SizeCluster::Tree => "tree",
        }
    }
}

/// Configuration of the MiBench-like block generator.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};
///
/// let block = generate_block(&MiBenchLikeConfig::new(80).with_memory_ratio(0.3), 1)?;
/// assert_eq!(block.len(), 80);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MiBenchLikeConfig {
    size: usize,
    memory_ratio: f64,
}

impl MiBenchLikeConfig {
    /// Fraction of multi-cycle operations.
    const MULDIV_RATIO: f64 = 0.06;
    /// Fraction of the vertices that are live-in values.
    const LIVE_IN_FRACTION: f64 = 0.12;
    /// Values marked live-out besides the natural sinks.
    const LIVE_OUTS: usize = 2;

    /// Creates a configuration for a block with exactly `size` vertices (live-ins
    /// included) and the default embedded-kernel operation mix: 18 % memory
    /// operations, 6 % multiplications, roughly one live-in per eight operations and
    /// two live-out values.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than 4 (a block needs at least a live-in and a
    /// couple of operations to be interesting).
    pub fn new(size: usize) -> Self {
        assert!(size >= 4, "MiBench-like blocks need at least 4 vertices");
        MiBenchLikeConfig {
            size,
            memory_ratio: 0.18,
        }
    }

    /// Sets the fraction of memory operations.
    #[must_use]
    pub fn with_memory_ratio(mut self, ratio: f64) -> Self {
        self.memory_ratio = ratio.clamp(0.0, 0.9);
        self
    }
}

/// Generates one MiBench-like basic block, deterministically in `seed`.
///
/// # Errors
///
/// Propagates [`GraphError`] from graph construction; this cannot happen for the
/// generator's own output and is kept in the signature only for API uniformity.
pub fn generate_block(config: &MiBenchLikeConfig, seed: u64) -> Result<Dfg, GraphError> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut builder = DfgBuilder::new(format!("mibench-like-{}-{seed}", config.size));

    let live_ins = ((config.size as f64 * MiBenchLikeConfig::LIVE_IN_FRACTION).round() as usize)
        .clamp(2, config.size - 2);
    let ops = config.size - live_ins;

    let mut values: Vec<NodeId> = (0..live_ins)
        .map(|i| builder.input(format!("in{i}")))
        .collect();

    for _ in 0..ops {
        let op = pick_operation(&mut rng, config);
        let arity = match op {
            Operation::Load | Operation::Not | Operation::Extend => 1,
            Operation::Select => 3,
            Operation::Store => 2,
            _ => 2,
        };
        let mut operands = Vec::with_capacity(arity);
        for _ in 0..arity {
            operands.push(pick_value(&mut rng, &values));
        }
        operands.dedup();
        let node = builder.node(op, &operands);
        values.push(node);
    }

    // A few additional live-out values besides the natural sinks.
    for _ in 0..MiBenchLikeConfig::LIVE_OUTS {
        let v = pick_value(&mut rng, &values);
        builder.mark_output(v);
    }
    builder.build()
}

fn pick_operation(rng: &mut StdRng, config: &MiBenchLikeConfig) -> Operation {
    let roll: f64 = rng.gen();
    if roll < config.memory_ratio {
        return if rng.gen_bool(0.65) {
            Operation::Load
        } else {
            Operation::Store
        };
    }
    if roll < config.memory_ratio + MiBenchLikeConfig::MULDIV_RATIO {
        return if rng.gen_bool(0.85) {
            Operation::Mul
        } else {
            Operation::Div
        };
    }
    // ALU-dominated mix typical of MiBench integer kernels (crc, sha, adpcm, ...).
    const POOL: &[Operation] = &[
        Operation::Add,
        Operation::Add,
        Operation::Add,
        Operation::Sub,
        Operation::And,
        Operation::And,
        Operation::Or,
        Operation::Xor,
        Operation::Xor,
        Operation::Shl,
        Operation::Shr,
        Operation::Sar,
        Operation::Cmp,
        Operation::Select,
        Operation::Extend,
        Operation::Not,
    ];
    POOL[rng.gen_range(0..POOL.len())]
}

fn pick_value(rng: &mut StdRng, values: &[NodeId]) -> NodeId {
    // Short def-use distances: prefer recently produced values, with an occasional
    // long-range use of an early value (loop-carried or address computation).
    let n = values.len();
    if n == 1 || rng.gen_bool(0.15) {
        return values[rng.gen_range(0..n)];
    }
    let window = (n / 4).max(4).min(n);
    values[n - 1 - rng.gen_range(0..window)]
}

/// One entry of the 250-block evaluation suite.
#[derive(Clone, Debug)]
pub struct SuiteBlock {
    /// Stable identifier of the block within the suite.
    pub id: usize,
    /// The size cluster the block belongs to (Figure 5 legend).
    pub cluster: SizeCluster,
    /// The data-flow graph.
    pub dfg: Dfg,
}

/// Generates the 250-block MiBench-like evaluation suite used by the Figure 5
/// reproduction, deterministically in `seed`.
///
/// The size distribution follows the paper's description: block sizes span 10–1196
/// vertices, with most blocks small (as in real programs), a substantial medium
/// cluster, and a few very large unrolled kernels. The four tree-shaped DFGs of
/// Figure 4 are *not* part of this suite; the harness adds them separately via
/// [`crate::tree::TreeDfgBuilder`].
///
/// Pass a smaller `count` to run quick versions of the experiment.
pub fn suite(count: usize, seed: u64) -> Vec<SuiteBlock> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks = Vec::with_capacity(count);
    for id in 0..count {
        // Cluster proportions: ~60 % small, ~32 % medium, ~8 % large.
        let roll: f64 = rng.gen();
        let size = if roll < 0.60 {
            rng.gen_range(10..=79)
        } else if roll < 0.92 {
            rng.gen_range(80..=799)
        } else {
            rng.gen_range(800..=1196)
        };
        let config = MiBenchLikeConfig::new(size);
        let dfg = generate_block(&config, seed.wrapping_add(id as u64 * 7919))
            .expect("generator output is always a valid DFG");
        blocks.push(SuiteBlock {
            id,
            cluster: SizeCluster::of_size(dfg.len()),
            dfg,
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_is_exact_and_deterministic() {
        let cfg = MiBenchLikeConfig::new(200);
        let a = generate_block(&cfg, 3).unwrap();
        let b = generate_block(&cfg, 3).unwrap();
        assert_eq!(a.len(), 200);
        assert_eq!(b.len(), 200);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn memory_operations_are_present_and_forbidden() {
        let dfg = generate_block(&MiBenchLikeConfig::new(400), 11).unwrap();
        let memory = dfg.node_ids().filter(|&id| dfg.op(id).is_memory()).count();
        let ratio = memory as f64 / 400.0;
        assert!(ratio > 0.08 && ratio < 0.30, "memory ratio {ratio}");
        for id in dfg.node_ids() {
            if dfg.op(id).is_memory() {
                assert!(dfg.is_forbidden(id));
            }
        }
    }

    #[test]
    fn clusters_match_paper_boundaries() {
        assert_eq!(SizeCluster::of_size(10), SizeCluster::Small);
        assert_eq!(SizeCluster::of_size(79), SizeCluster::Small);
        assert_eq!(SizeCluster::of_size(80), SizeCluster::Medium);
        assert_eq!(SizeCluster::of_size(799), SizeCluster::Medium);
        assert_eq!(SizeCluster::of_size(800), SizeCluster::Large);
        assert_eq!(SizeCluster::of_size(1196), SizeCluster::Large);
        assert_eq!(SizeCluster::Small.label(), "10-79");
        assert_eq!(SizeCluster::Tree.label(), "tree");
    }

    #[test]
    fn suite_has_requested_size_and_span() {
        let blocks = suite(60, 2024);
        assert_eq!(blocks.len(), 60);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.dfg.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min >= 10);
        assert!(max <= 1196);
        assert!(
            blocks.iter().any(|b| b.cluster == SizeCluster::Small)
                && blocks.iter().any(|b| b.cluster == SizeCluster::Medium),
            "both small and medium clusters must be represented"
        );
        // Determinism.
        let again = suite(60, 2024);
        assert_eq!(
            blocks.iter().map(|b| b.dfg.len()).collect::<Vec<_>>(),
            again.iter().map(|b| b.dfg.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn suite_ids_are_stable_and_sequential() {
        let blocks = suite(10, 1);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.id, i);
        }
    }

    #[test]
    fn knobs_are_clamped() {
        let cfg = MiBenchLikeConfig::new(50).with_memory_ratio(2.0);
        assert_eq!(cfg.memory_ratio, 0.9);
        let dfg = generate_block(&cfg, 5).unwrap();
        assert_eq!(dfg.len(), 50);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_blocks_are_rejected() {
        let _ = MiBenchLikeConfig::new(3);
    }
}
