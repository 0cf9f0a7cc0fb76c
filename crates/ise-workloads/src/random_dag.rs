//! Layered random data-flow graphs with controllable structure.
//!
//! The scaling experiment (E3 in DESIGN.md) needs graphs whose size grows while the
//! rest of the structure (fan-in, depth/width balance, memory-operation density) stays
//! fixed, so that the measured growth of the enumeration time reflects the algorithm's
//! complexity in `n` rather than an artifact of the workload.

use ise_graph::{Dfg, DfgBuilder, NodeId, Operation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the layered random DAG generator.
///
/// The generator creates `live_ins` external inputs, then `node_count` operation nodes
/// arranged in layers of `layer_width` nodes. Each operation draws one or two
/// operands uniformly from the previous four layers (biased towards recent
/// layers, which mimics the short def-use distances of real straight-line code), and
/// becomes a memory operation with probability `memory_ratio`.
///
/// # Example
///
/// ```
/// use ise_workloads::random_dag::{random_dag, RandomDagConfig};
///
/// let cfg = RandomDagConfig::new(200).with_memory_ratio(0.2);
/// let dfg = random_dag(&cfg, 42);
/// assert_eq!(dfg.len(), 200 + 8, "200 operations and the 8 default live-ins");
/// ```
#[derive(Clone, Debug)]
pub struct RandomDagConfig {
    node_count: usize,
    live_ins: usize,
    layer_width: usize,
    memory_ratio: f64,
}

impl RandomDagConfig {
    /// Largest operand count of a generated operation.
    const MAX_ARITY: usize = 2;
    /// How many of the most recent layers operands are drawn from.
    const LOCALITY: usize = 4;
    /// Fraction of multi-cycle (multiply/divide) operations.
    const MULDIV_RATIO: f64 = 0.08;

    /// Creates a configuration for a graph with `node_count` operation nodes and
    /// defaults resembling unrolled embedded kernels: 8 live-ins, layers of 8, binary
    /// operations, 10 % memory operations and 8 % multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(node_count: usize) -> Self {
        assert!(
            node_count > 0,
            "a random DAG needs at least one operation node"
        );
        RandomDagConfig {
            node_count,
            live_ins: 8,
            layer_width: 8,
            memory_ratio: 0.10,
        }
    }

    /// Sets the number of external inputs.
    #[must_use]
    pub fn with_live_ins(mut self, live_ins: usize) -> Self {
        self.live_ins = live_ins.max(1);
        self
    }

    /// Sets the number of operation nodes per layer (graph "width").
    #[must_use]
    pub fn with_layer_width(mut self, width: usize) -> Self {
        self.layer_width = width.max(1);
        self
    }

    /// Sets the fraction of memory operations (which become forbidden vertices).
    #[must_use]
    pub fn with_memory_ratio(mut self, ratio: f64) -> Self {
        self.memory_ratio = ratio.clamp(0.0, 1.0);
        self
    }
}

/// Generates a layered random DAG according to `config`, deterministically in `seed`.
pub fn random_dag(config: &RandomDagConfig, seed: u64) -> Dfg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = DfgBuilder::new(format!("random-dag-{}-{seed}", config.node_count));

    let live_ins: Vec<NodeId> = (0..config.live_ins)
        .map(|i| builder.input(format!("in{i}")))
        .collect();

    // `layers[l]` holds the values produced in layer l; layer 0 are the live-ins.
    let mut layers: Vec<Vec<NodeId>> = vec![live_ins];
    let mut produced = 0usize;
    while produced < config.node_count {
        let width = config.layer_width.min(config.node_count - produced);
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            let op = pick_operation(&mut rng, config);
            let arity = match op {
                Operation::Load | Operation::Not | Operation::Extend => 1,
                _ => 1 + rng.gen_range(0..RandomDagConfig::MAX_ARITY),
            };
            let mut operands = Vec::with_capacity(arity);
            for _ in 0..arity {
                operands.push(pick_operand(&mut rng, &layers, RandomDagConfig::LOCALITY));
            }
            operands.dedup();
            layer.push(builder.node(op, &operands));
            produced += 1;
        }
        layers.push(layer);
    }

    // Mark a handful of values as live out of the block, as a compiler would.
    let last_layer = layers
        .last()
        .expect("at least one layer was produced")
        .clone();
    for &node in &last_layer {
        builder.mark_output(node);
    }
    builder
        .build()
        .expect("the layered construction cannot produce an invalid DFG")
}

fn pick_operation(rng: &mut StdRng, config: &RandomDagConfig) -> Operation {
    let roll: f64 = rng.gen();
    if roll < config.memory_ratio {
        return if rng.gen_bool(0.7) {
            Operation::Load
        } else {
            Operation::Store
        };
    }
    if roll < config.memory_ratio + RandomDagConfig::MULDIV_RATIO {
        return Operation::Mul;
    }
    const POOL: &[Operation] = &[
        Operation::Add,
        Operation::Add,
        Operation::Sub,
        Operation::And,
        Operation::Or,
        Operation::Xor,
        Operation::Shl,
        Operation::Shr,
        Operation::Cmp,
        Operation::Select,
        Operation::Extend,
        Operation::Not,
    ];
    POOL[rng.gen_range(0..POOL.len())]
}

fn pick_operand(rng: &mut StdRng, layers: &[Vec<NodeId>], locality: usize) -> NodeId {
    // Bias towards recent layers: pick a layer offset geometrically within `locality`.
    let max_back = layers.len().min(locality.max(1));
    let mut back = 1;
    while back < max_back && rng.gen_bool(0.5) {
        back += 1;
    }
    let layer = &layers[layers.len() - back];
    layer[rng.gen_range(0..layer.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_determinism() {
        let cfg = RandomDagConfig::new(150);
        let a = random_dag(&cfg, 7);
        let b = random_dag(&cfg, 7);
        assert_eq!(a.len(), 150 + cfg.live_ins);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        let c = random_dag(&cfg, 8);
        // A different seed virtually always yields a different wiring.
        assert!(a.edge_count() != c.edge_count() || a.edges().ne(c.edges()));
    }

    #[test]
    fn memory_ratio_controls_forbidden_density() {
        let none = random_dag(&RandomDagConfig::new(300).with_memory_ratio(0.0), 1);
        assert_eq!(none.forbidden().len(), 0);
        let heavy = random_dag(&RandomDagConfig::new(300).with_memory_ratio(0.5), 1);
        let ratio = heavy.forbidden().len() as f64 / 300.0;
        assert!(ratio > 0.3 && ratio < 0.7, "observed memory ratio {ratio}");
    }

    #[test]
    fn every_operation_node_has_operands() {
        let dfg = random_dag(&RandomDagConfig::new(100), 3);
        for id in dfg.node_ids() {
            if dfg.op(id) != Operation::Input {
                assert!(!dfg.preds(id).is_empty(), "operation {id} has no operands");
            }
        }
    }

    #[test]
    fn builder_knobs_are_respected() {
        let cfg = RandomDagConfig::new(64)
            .with_live_ins(3)
            .with_layer_width(4);
        let dfg = random_dag(&cfg, 11);
        assert_eq!(dfg.len(), 64 + 3);
        assert_eq!(dfg.external_inputs().len(), 3);
        assert!(dfg.node_ids().all(|id| dfg.preds(id).len() <= 2));
    }

    #[test]
    #[should_panic(expected = "at least one operation node")]
    fn zero_nodes_rejected() {
        let _ = RandomDagConfig::new(0);
    }
}
