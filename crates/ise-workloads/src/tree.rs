//! Tree-shaped data-flow graphs: the worst case of the exhaustive baseline (Figure 4).
//!
//! Figure 4 of the paper shows a data-flow graph shaped as a tree that fans *out* from
//! a single live-in value: every vertex produces a value consumed by two children, and
//! the leaves are the externally visible results. On such graphs the pruned exhaustive
//! search of refs. \[4\]/\[15\] degrades towards its exponential worst case — the paper
//! quotes `O(1.6^n)` — because its effective pruning lever is the *input* constraint,
//! and a fan-out tree never violates it: any connected selection has a single input.
//! The output constraint, which is what actually invalidates most selections, is only
//! discovered long after the choices that caused it. The polynomial algorithm is
//! insensitive to this shape: the ancestors of any vertex form a short chain, so the
//! per-output dominator search space is tiny.
//!
//! The builder also offers the reverse orientation (a fan-in reduction tree) for
//! completeness, since both appear in the ISE literature.

use ise_graph::{Dfg, DfgBuilder, NodeId, Operation};

/// Orientation of the generated tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeOrientation {
    /// One external input at the root, values fan out towards `2^depth` leaf results
    /// (the Figure 4 worst case for the exhaustive baseline).
    FanOut,
    /// `2^depth` external inputs reduced pairwise to a single result.
    FanIn,
}

/// Builder for the Figure 4 tree-shaped worst-case graphs.
///
/// # Example
///
/// ```
/// use ise_workloads::tree::TreeDfgBuilder;
///
/// let dfg = TreeDfgBuilder::new(4).build();
/// assert_eq!(dfg.external_inputs().len(), 1);
/// assert_eq!(dfg.len(), 1 + 2 + 4 + 8 + 16);
/// assert_eq!(dfg.external_outputs().len(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct TreeDfgBuilder {
    depth: u32,
    orientation: TreeOrientation,
}

impl TreeDfgBuilder {
    /// Creates a builder for a complete binary tree of the given depth (`2^depth`
    /// leaves). The paper's experiments use depths 4 through 7.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or larger than 16 (65536 leaves), which is far beyond any
    /// realistic basic block.
    pub fn new(depth: u32) -> Self {
        assert!(
            (1..=16).contains(&depth),
            "tree depth must be between 1 and 16"
        );
        TreeDfgBuilder {
            depth,
            orientation: TreeOrientation::FanOut,
        }
    }

    /// Selects the tree orientation; the default is [`TreeOrientation::FanOut`],
    /// matching Figure 4.
    #[must_use]
    pub fn with_orientation(mut self, orientation: TreeOrientation) -> Self {
        self.orientation = orientation;
        self
    }

    /// Builds the tree-shaped data-flow graph.
    pub fn build(&self) -> Dfg {
        match self.orientation {
            TreeOrientation::FanOut => self.build_fan_out(),
            TreeOrientation::FanIn => self.build_fan_in(),
        }
    }

    fn build_fan_out(&self) -> Dfg {
        let mut builder = DfgBuilder::new(format!("tree-fanout-depth-{}", self.depth));
        let root = builder.input("in");
        let mut level: Vec<NodeId> = vec![root];
        for _ in 0..self.depth {
            let mut next = Vec::with_capacity(level.len() * 2);
            for &parent in &level {
                // Two single-operand children per vertex.
                for op in [Operation::Shl, Operation::Not] {
                    next.push(builder.node(op, &[parent]));
                }
            }
            level = next;
        }
        // The leaves have no successors, so they are external outputs automatically.
        builder
            .build()
            .expect("a complete fan-out tree is always a valid DFG")
    }

    fn build_fan_in(&self) -> Dfg {
        let mut builder = DfgBuilder::new(format!("tree-fanin-depth-{}", self.depth));
        let leaves = 1usize << self.depth;
        let mut level: Vec<NodeId> = (0..leaves)
            .map(|i| builder.input(format!("in{i}")))
            .collect();
        // The reduction vertices take these operations in turn.
        let mut ops = [
            Operation::Add,
            Operation::Xor,
            Operation::Shl,
            Operation::Not,
            Operation::And,
            Operation::Sub,
        ]
        .into_iter()
        .cycle();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2);
            for (pair, op) in level.chunks(2).zip(&mut ops) {
                next.push(builder.node(op, pair));
            }
            level = next;
        }
        builder.mark_output(level[0]);
        builder
            .build()
            .expect("a complete reduction tree is always a valid DFG")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_node_counts_match_formula() {
        for depth in 1..=7 {
            let dfg = TreeDfgBuilder::new(depth).build();
            assert_eq!(dfg.len(), (1 << (depth + 1)) - 1, "depth {depth}");
            assert_eq!(dfg.external_inputs().len(), 1);
            assert_eq!(dfg.external_outputs().len(), 1 << depth);
        }
    }

    #[test]
    fn fan_out_nodes_have_single_operand_and_two_consumers() {
        let dfg = TreeDfgBuilder::new(5).build();
        for id in dfg.node_ids() {
            let preds = dfg.preds(id).len();
            let succs = dfg.succs(id).len();
            assert!(preds <= 1, "node {id} has {preds} operands");
            assert!(succs == 0 || succs == 2, "node {id} has {succs} consumers");
        }
    }

    #[test]
    fn fan_in_orientation_reduces_to_one_output() {
        let dfg = TreeDfgBuilder::new(4)
            .with_orientation(TreeOrientation::FanIn)
            .build();
        assert_eq!(dfg.len(), 31);
        assert_eq!(dfg.external_inputs().len(), 16);
        assert_eq!(dfg.external_outputs().len(), 1);
        for id in dfg.node_ids() {
            let preds = dfg.preds(id).len();
            assert!(preds == 0 || preds == 2);
        }
    }

    #[test]
    #[should_panic(expected = "tree depth")]
    fn zero_depth_is_rejected() {
        let _ = TreeDfgBuilder::new(0);
    }
}
