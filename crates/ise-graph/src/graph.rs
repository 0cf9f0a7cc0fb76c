//! The basic-block data-flow graph.

use crate::bitset::DenseNodeSet;
use crate::csr::CsrAdjacency;
use crate::error::GraphError;
use crate::node::{Node, NodeId};
use crate::op::Operation;
use crate::topo::topological_order;

/// The data-flow graph of a basic block (§3 of the paper).
///
/// Vertices are operations, edges follow data-flow direction (from producer to
/// consumer). The graph is a DAG. Three vertex subsets matter to ISE identification:
///
/// * **external inputs** `Iext`: root vertices whose value is produced outside the basic
///   block (they are implicitly forbidden inside a cut, but may be *inputs* of a cut);
/// * **external outputs** `Oext`: vertices whose value is observable outside the basic
///   block; this set is a superset of the vertices with no successors;
/// * **forbidden nodes** `F`: vertices that may never belong to a cut (memory accesses,
///   calls, plus anything the user marks explicitly).
///
/// Construct a `Dfg` with [`crate::DfgBuilder`] or [`Dfg::from_edges`].
#[derive(Clone, Debug)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    /// Predecessor rows in CSR form (operand order preserved per row); the
    /// [`Dfg::preds`] slice API is unchanged, only the storage is flat.
    preds: CsrAdjacency,
    /// Successor rows in CSR form (edge insertion order preserved per row).
    succs: CsrAdjacency,
    external_inputs: Vec<NodeId>,
    external_outputs: Vec<NodeId>,
    forbidden: DenseNodeSet,
    topo: Vec<NodeId>,
}

impl Dfg {
    /// Builds a graph from an explicit edge list.
    ///
    /// `ops[i]` is the operation of node `i`; `edges` are `(from, to)` pairs in
    /// data-flow direction. External inputs are derived from `Operation::Input` nodes,
    /// external outputs are the nodes listed in `outputs` plus every node without
    /// successors, and the forbidden set is `forbidden` plus every operation for which
    /// [`Operation::is_default_forbidden`] holds.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the graph is empty, an edge endpoint is out of range,
    /// an edge is a self loop, or the edges contain a cycle.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use ise_graph::{Dfg, NodeId, Operation};
    ///
    /// let ops = vec![Operation::Input, Operation::Input, Operation::Add];
    /// let edges = vec![(NodeId::new(0), NodeId::new(2)), (NodeId::new(1), NodeId::new(2))];
    /// let dfg = Dfg::from_edges("sum", ops, edges, [], [])?;
    /// assert_eq!(dfg.len(), 3);
    /// assert_eq!(dfg.external_outputs(), &[NodeId::new(2)]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edges(
        name: impl Into<String>,
        ops: Vec<Operation>,
        edges: Vec<(NodeId, NodeId)>,
        outputs: impl IntoIterator<Item = NodeId>,
        forbidden: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, GraphError> {
        let nodes: Vec<Node> = ops.into_iter().map(Node::new).collect();
        Self::from_parts(name.into(), nodes, &edges, outputs, forbidden)
    }

    /// Builds a graph from full node payloads (operation plus optional symbolic name)
    /// instead of bare operations — the constructor used by deserializers such as the
    /// `ise-corpus` `.dfg` parser, which must preserve `@` names across a round trip.
    ///
    /// Validation is identical to [`Dfg::from_edges`]. The edge list is only read, so
    /// a parser can reuse one buffer across blocks, and every array the graph derives
    /// from it is sized exactly.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] under the same conditions as [`Dfg::from_edges`].
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use ise_graph::{Dfg, Node, NodeId, Operation};
    ///
    /// let nodes = vec![
    ///     Node::new(Operation::Input).with_name("a"),
    ///     Node::new(Operation::Not),
    /// ];
    /// let dfg = Dfg::from_nodes("neg", nodes, &[(NodeId::new(0), NodeId::new(1))], [], [])?;
    /// assert_eq!(dfg.node(NodeId::new(0)).name(), Some("a"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_nodes(
        name: impl Into<String>,
        nodes: Vec<Node>,
        edges: &[(NodeId, NodeId)],
        outputs: impl IntoIterator<Item = NodeId>,
        forbidden: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, GraphError> {
        Self::from_parts(name.into(), nodes, edges, outputs, forbidden)
    }

    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        edges: &[(NodeId, NodeId)],
        outputs: impl IntoIterator<Item = NodeId>,
        forbidden: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, GraphError> {
        let n = nodes.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let check = |node: NodeId| -> Result<(), GraphError> {
            if node.index() >= n {
                Err(GraphError::UnknownNode { node, len: n })
            } else {
                Ok(())
            }
        };

        for &(from, to) in edges {
            check(from)?;
            check(to)?;
            if from == to {
                return Err(GraphError::SelfLoop { node: from });
            }
        }
        // Flatten both directions into CSR arenas; the stable grouping keeps each
        // predecessor row in edge-list order, which is the operand order contract.
        let succs = CsrAdjacency::forward(n, edges);
        let preds = CsrAdjacency::backward(n, edges);

        let topo = topological_order(&succs, &preds).map_err(|node| GraphError::Cycle { node })?;

        for (i, node) in nodes.iter().enumerate() {
            if node.op() == Operation::Input && !preds.row(NodeId::from_index(i)).is_empty() {
                return Err(GraphError::InvalidMark {
                    node: NodeId::from_index(i),
                    reason: "external input has predecessors",
                });
            }
        }
        // Iext is, per §3 of the paper, the set of root vertices: every vertex without
        // predecessors (live-in values and constants alike) is produced outside the
        // computation of the block.
        let is_root = |&id: &NodeId| preds.row(id).is_empty();
        let roots = (0..n).map(NodeId::from_index).filter(is_root);
        let mut external_inputs = Vec::with_capacity(roots.clone().count());
        external_inputs.extend(roots);

        let mut output_set = DenseNodeSet::new(n);
        for id in outputs {
            check(id)?;
            output_set.insert(id);
        }
        // Oext is a superset of the vertices without successors (§3).
        for (i, row) in succs.rows().enumerate() {
            if row.is_empty() {
                output_set.insert(NodeId::from_index(i));
            }
        }
        let external_outputs = output_set.to_vec();

        let mut forbidden_set = DenseNodeSet::new(n);
        for id in forbidden {
            check(id)?;
            forbidden_set.insert(id);
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.op().is_default_forbidden() {
                forbidden_set.insert(NodeId::from_index(i));
            }
        }

        Ok(Dfg {
            name,
            nodes,
            preds,
            succs,
            external_inputs,
            external_outputs,
            forbidden: forbidden_set,
            topo,
        })
    }

    /// The symbolic name of the basic block this graph was built from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no vertices. Note that [`Dfg::from_edges`] refuses to build
    /// empty graphs, so this is `false` for any successfully constructed graph.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids in increasing index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// The payload of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &Node {
        &self.nodes[node.index()]
    }

    /// The operation of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn op(&self, node: NodeId) -> Operation {
        self.nodes[node.index()].op()
    }

    /// Direct predecessors (operand producers) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn preds(&self, node: NodeId) -> &[NodeId] {
        self.preds.row(node)
    }

    /// Direct successors (consumers) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn succs(&self, node: NodeId) -> &[NodeId] {
        self.succs.row(node)
    }

    /// The external inputs `Iext`: every root vertex (no predecessors), i.e. live-in
    /// variables and constants, whose value is produced outside the block (§3).
    pub fn external_inputs(&self) -> &[NodeId] {
        &self.external_inputs
    }

    /// The external outputs `Oext` (vertices observable outside the block).
    pub fn external_outputs(&self) -> &[NodeId] {
        &self.external_outputs
    }

    /// The user- and operation-derived forbidden set `F` (excluding external inputs,
    /// which are implicitly forbidden and tracked separately).
    pub fn forbidden(&self) -> &DenseNodeSet {
        &self.forbidden
    }

    /// Whether `node` is forbidden (may not belong to any cut).
    ///
    /// External inputs (all root vertices, including constants) report `true` as well:
    /// their value is computed outside the basic block (§3), so they can only ever be
    /// inputs of a cut.
    pub fn is_forbidden(&self, node: NodeId) -> bool {
        self.forbidden.contains(node) || self.preds(node).is_empty()
    }

    /// A topological order of the vertices (producers before consumers).
    pub fn topological_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.num_edges()
    }

    /// Iterates over every edge as a `(from, to)` pair.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs
            .rows()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |&to| (NodeId::from_index(i), to)))
    }

    /// Creates an empty set sized for this graph's nodes.
    pub fn node_set(&self) -> DenseNodeSet {
        DenseNodeSet::new(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn diamond() -> Dfg {
        // in0   in1
        //   \   /
        //    add(2)
        //   /    \
        // shl(3)  mul(4)
        //   \    /
        //    sub(5)
        Dfg::from_edges(
            "diamond",
            vec![
                Operation::Input,
                Operation::Input,
                Operation::Add,
                Operation::Shl,
                Operation::Mul,
                Operation::Sub,
            ],
            vec![
                (n(0), n(2)),
                (n(1), n(2)),
                (n(2), n(3)),
                (n(2), n(4)),
                (n(3), n(5)),
                (n(4), n(5)),
            ],
            [],
            [],
        )
        .expect("valid graph")
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.name(), "diamond");
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.preds(n(2)), &[n(0), n(1)]);
        assert_eq!(g.succs(n(2)), &[n(3), n(4)]);
        assert_eq!(g.op(n(4)), Operation::Mul);
        assert_eq!(g.node(n(4)).op(), Operation::Mul);
        assert_eq!(g.node_ids().count(), 6);
        assert_eq!(g.edges().count(), 6);
        assert_eq!(g.node_set().capacity(), 6);
    }

    #[test]
    fn external_sets_are_derived() {
        let g = diamond();
        assert_eq!(g.external_inputs(), &[n(0), n(1)]);
        // n5 has no successors, so it is an external output even though not marked.
        assert_eq!(g.external_outputs(), &[n(5)]);
    }

    #[test]
    fn explicit_outputs_are_superset_of_sinks() {
        let g = Dfg::from_edges(
            "two-outs",
            vec![Operation::Input, Operation::Add, Operation::Mul],
            vec![(n(0), n(1)), (n(1), n(2))],
            [n(1)],
            [],
        )
        .unwrap();
        assert_eq!(g.external_outputs(), &[n(1), n(2)]);
    }

    #[test]
    fn forbidden_includes_memory_and_inputs() {
        let g = Dfg::from_edges(
            "mem",
            vec![Operation::Input, Operation::Load, Operation::Add],
            vec![(n(0), n(1)), (n(1), n(2))],
            [],
            [],
        )
        .unwrap();
        assert!(
            g.is_forbidden(n(0)),
            "external inputs are implicitly forbidden"
        );
        assert!(g.is_forbidden(n(1)), "loads are forbidden by default");
        assert!(!g.is_forbidden(n(2)));
        assert!(g.forbidden().contains(n(1)));
        assert!(
            !g.forbidden().contains(n(0)),
            "Iext tracked separately from F"
        );
    }

    #[test]
    fn user_forbidden_nodes_are_respected() {
        let g = Dfg::from_edges(
            "user-forbidden",
            vec![Operation::Input, Operation::Mul, Operation::Add],
            vec![(n(0), n(1)), (n(1), n(2))],
            [],
            [n(1)],
        )
        .unwrap();
        assert!(g.is_forbidden(n(1)));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = (0..g.len())
            .map(|i| order.iter().position(|&x| x == n(i)).unwrap())
            .collect();
        for (from, to) in g.edges() {
            assert!(pos[from.index()] < pos[to.index()]);
        }
    }

    #[test]
    fn empty_graph_is_rejected() {
        let err = Dfg::from_edges("empty", vec![], vec![], [], []).unwrap_err();
        assert_eq!(err, GraphError::Empty);
    }

    #[test]
    fn unknown_edge_endpoint_is_rejected() {
        let err =
            Dfg::from_edges("bad", vec![Operation::Add], vec![(n(0), n(3))], [], []).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode { node: n(3), len: 1 });
    }

    #[test]
    fn self_loop_is_rejected() {
        let err =
            Dfg::from_edges("loop", vec![Operation::Add], vec![(n(0), n(0))], [], []).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: n(0) });
    }

    #[test]
    fn cycle_is_rejected() {
        let err = Dfg::from_edges(
            "cycle",
            vec![Operation::Add, Operation::Sub],
            vec![(n(0), n(1)), (n(1), n(0))],
            [],
            [],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Cycle { .. }));
    }

    #[test]
    fn input_with_predecessor_is_rejected() {
        let err = Dfg::from_edges(
            "bad-input",
            vec![Operation::Add, Operation::Input],
            vec![(n(0), n(1))],
            [],
            [],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidMark { node, .. } if node == n(1)));
    }
}
