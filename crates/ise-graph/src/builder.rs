//! Incremental construction of data-flow graphs.

use crate::error::GraphError;
use crate::graph::Dfg;
use crate::node::{Node, NodeId};
use crate::op::Operation;

/// Builder for [`Dfg`]s.
///
/// The builder assigns node ids in insertion order and only allows edges from
/// already-created nodes, so the resulting graph is acyclic by construction.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("mac");
/// let a = b.input("a");
/// let x = b.input("x");
/// let acc = b.input("acc");
/// let prod = b.node(Operation::Mul, &[a, x]);
/// let sum = b.node(Operation::Add, &[prod, acc]);
/// b.mark_output(sum);
/// let dfg = b.build()?;
/// assert_eq!(dfg.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DfgBuilder {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId)>,
    outputs: Vec<NodeId>,
    forbidden: Vec<NodeId>,
}

impl DfgBuilder {
    /// Creates an empty builder for a basic block called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds an external input (live-in value) and returns its id.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.push(Node::new(Operation::Input).with_name(name))
    }

    /// Adds a compile-time constant and returns its id.
    pub fn constant(&mut self, name: impl Into<String>) -> NodeId {
        self.push(Node::new(Operation::Const).with_name(name))
    }

    /// Adds an operation node with the given operand producers and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any operand id has not been created by this builder yet; this keeps the
    /// graph acyclic by construction.
    pub fn node(&mut self, op: Operation, operands: &[NodeId]) -> NodeId {
        self.named_node(op, operands, None::<String>)
    }

    /// Adds a named operation node with the given operand producers and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any operand id has not been created by this builder yet.
    pub fn named_node(
        &mut self,
        op: Operation,
        operands: &[NodeId],
        name: Option<impl Into<String>>,
    ) -> NodeId {
        let node = match name {
            Some(n) => Node::new(op).with_name(n),
            None => Node::new(op),
        };
        let id = self.push(node);
        for &operand in operands {
            assert!(
                operand.index() < id.index(),
                "operand {operand} must be created before node {id}"
            );
            self.edges.push((operand, id));
        }
        id
    }

    /// Marks `node` as an external output (`Oext`).
    pub fn mark_output(&mut self, node: NodeId) {
        self.outputs.push(node);
    }

    /// Marks `node` as forbidden (`F`): it may never be part of a cut.
    pub fn mark_forbidden(&mut self, node: NodeId) {
        self.forbidden.push(node);
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the builder is empty or the recorded marks are
    /// inconsistent (see [`Dfg::from_edges`] for the full list of conditions).
    pub fn build(self) -> Result<Dfg, GraphError> {
        Dfg::from_parts(
            self.name,
            self.nodes,
            &self.edges,
            self.outputs,
            self.forbidden,
        )
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_valid_graph() {
        let mut b = DfgBuilder::new("bb");
        assert!(b.nodes.is_empty());
        let a = b.input("a");
        let c = b.constant("4");
        let s = b.named_node(Operation::Shl, &[a, c], Some("a<<4"));
        let l = b.node(Operation::Load, &[s]);
        let r = b.node(Operation::Add, &[l, a]);
        b.mark_output(r);
        assert_eq!(b.nodes.len(), 5);
        let g = b.build().unwrap();
        assert_eq!(g.name(), "bb");
        assert_eq!(g.node(s).name(), Some("a<<4"));
        assert_eq!(g.op(l), Operation::Load);
        assert!(g.is_forbidden(l));
        assert_eq!(
            g.external_inputs(),
            &[a, c],
            "constants are roots and therefore Iext"
        );
        assert_eq!(g.external_outputs(), &[r]);
        assert_eq!(g.preds(r), &[l, a]);
    }

    #[test]
    fn explicit_forbidden_mark() {
        let mut b = DfgBuilder::new("bb");
        let a = b.input("a");
        let m = b.node(Operation::Mul, &[a, a]);
        b.mark_forbidden(m);
        let g = b.build().unwrap();
        assert!(g.is_forbidden(m));
    }

    #[test]
    fn empty_builder_fails() {
        assert!(DfgBuilder::new("x").build().is_err());
    }

    #[test]
    #[should_panic(expected = "must be created before")]
    fn forward_operand_panics() {
        let mut b = DfgBuilder::new("bad");
        let a = b.input("a");
        // Using an id that has not been created yet must panic.
        let bogus = NodeId::new(10);
        let _ = b.node(Operation::Add, &[a, bogus]);
    }

    #[test]
    fn default_builder_is_empty() {
        let b = DfgBuilder::default();
        assert!(b.nodes.is_empty());
    }
}
