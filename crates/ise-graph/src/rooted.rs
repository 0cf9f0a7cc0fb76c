//! Augmentation of a [`Dfg`] with an artificial source and sink.

use crate::bitset::DenseNodeSet;
use crate::csr::CsrAdjacency;
use crate::graph::Dfg;
use crate::node::NodeId;

/// A [`Dfg`] augmented with a single artificial *source* and *sink* vertex (§3).
///
/// The source is a predecessor of every vertex that has no predecessors (external
/// inputs, constants, and user-forbidden nodes without predecessors), which makes the
/// graph rooted; the sink is a successor of every external output, which makes the
/// *reverse* graph rooted as well. Dominators are computed from the source,
/// postdominators from the sink.
///
/// Node ids of the original graph are preserved; the source and sink occupy the two
/// indices immediately after the original nodes.
///
/// The *effective forbidden set* of the rooted graph contains the user/operation
/// forbidden set `F`, the external inputs `Iext` (their values are computed outside the
/// block) and the two artificial vertices (they do not map to any computation).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// b.mark_output(x);
/// let rooted = RootedDfg::new(b.build()?);
///
/// assert_eq!(rooted.num_nodes(), 4); // a, x, source, sink
/// assert_eq!(rooted.succs(rooted.source()), &[a]);
/// assert_eq!(rooted.succs(x), &[rooted.sink()]);
/// assert!(rooted.is_forbidden(a));
/// assert!(!rooted.is_forbidden(x));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RootedDfg {
    dfg: Dfg,
    source: NodeId,
    sink: NodeId,
    /// Augmented predecessor rows in CSR form — this is the adjacency the engine's
    /// support-counter cascades and `cone()` walks read, so it lives in one flat
    /// arena rather than per-row allocations.
    preds: CsrAdjacency,
    /// Augmented successor rows in CSR form.
    succs: CsrAdjacency,
    forbidden: DenseNodeSet,
}

impl RootedDfg {
    /// Augments `dfg` with the artificial source and sink.
    pub fn new(dfg: Dfg) -> Self {
        let n = dfg.len();
        let source = NodeId::from_index(n);
        let sink = NodeId::from_index(n + 1);
        let total = n + 2;

        // Both directions are written row by row straight into their CSR arenas.
        // Augmentation edges come after the original ones, so `source` is the sole
        // predecessor of each root and `sink` is last in each output's successor row.
        let outputs = dfg.external_outputs(); // sorted and unique
        let is_root = |v: NodeId| dfg.preds(v).is_empty();
        let roots = dfg.node_ids().filter(|&v| is_root(v)).count();
        let edges = dfg.edge_count() + roots + outputs.len();
        let mut succs = CsrAdjacency::with_capacity(total, edges);
        let mut preds = CsrAdjacency::with_capacity(total, edges);
        for v in dfg.node_ids() {
            let live_out = outputs.binary_search(&v).is_ok();
            succs.push_row(dfg.succs(v).iter().copied().chain(live_out.then_some(sink)));
            preds.push_row(
                dfg.preds(v)
                    .iter()
                    .copied()
                    .chain(is_root(v).then_some(source)),
            );
        }
        succs.push_row(dfg.node_ids().filter(|&v| is_root(v))); // source
        succs.push_row([]); // sink
        preds.push_row([]); // source
        preds.push_row(outputs.iter().copied()); // sink

        let mut forbidden = DenseNodeSet::new(total);
        for id in dfg.forbidden().iter() {
            forbidden.insert(id);
        }
        for &id in dfg.external_inputs() {
            forbidden.insert(id);
        }
        forbidden.insert(source);
        forbidden.insert(sink);

        RootedDfg {
            dfg,
            source,
            sink,
            preds,
            succs,
            forbidden,
        }
    }

    /// The underlying (non-augmented) data-flow graph.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// Total number of vertices, including source and sink.
    pub fn num_nodes(&self) -> usize {
        self.dfg.len() + 2
    }

    /// Number of vertices of the original graph (excluding source and sink).
    pub fn original_len(&self) -> usize {
        self.dfg.len()
    }

    /// The artificial source vertex (root of the graph).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The artificial sink vertex (root of the reverse graph).
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Whether `node` is the artificial source or sink.
    pub fn is_artificial(&self, node: NodeId) -> bool {
        node == self.source || node == self.sink
    }

    /// Predecessors of `node` in the augmented graph.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn preds(&self, node: NodeId) -> &[NodeId] {
        self.preds.row(node)
    }

    /// Successors of `node` in the augmented graph.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn succs(&self, node: NodeId) -> &[NodeId] {
        self.succs.row(node)
    }

    /// The effective forbidden set: `F` ∪ `Iext` ∪ {source, sink}.
    pub fn forbidden(&self) -> &DenseNodeSet {
        &self.forbidden
    }

    /// Whether `node` may never be part of a cut.
    pub fn is_forbidden(&self, node: NodeId) -> bool {
        self.forbidden.contains(node)
    }

    /// Iterates over all vertex ids of the augmented graph (original nodes first, then
    /// source and sink).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterates over the vertex ids of the original graph only.
    pub fn original_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.original_len()).map(NodeId::from_index)
    }

    /// A topological order of the augmented graph: the source, then the [`Dfg`]'s own
    /// [`Dfg::topological_order`], then the sink. No copy is stored.
    ///
    /// The source precedes every root and the sink follows every output, so every
    /// augmented edge runs forward. It is also the order a fresh sort of the
    /// augmented rows would give: that sort pops the source, then holds the roots in
    /// id order exactly as the `Dfg`'s sort starts, and the sink turns ready only once
    /// the last output, and with it every other vertex, has been emitted.
    pub fn topological_order(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        std::iter::once(self.source)
            .chain(self.dfg.topological_order().iter().copied())
            .chain(std::iter::once(self.sink))
    }

    /// Creates an empty node set sized for the augmented graph.
    pub fn node_set(&self) -> DenseNodeSet {
        DenseNodeSet::new(self.num_nodes())
    }
}

impl From<Dfg> for RootedDfg {
    fn from(dfg: Dfg) -> Self {
        RootedDfg::new(dfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::op::Operation;

    fn sample() -> RootedDfg {
        let mut b = DfgBuilder::new("sample");
        let a = b.input("a");
        let c = b.constant("1");
        let add = b.node(Operation::Add, &[a, c]);
        let ld = b.node(Operation::Load, &[add]);
        let out = b.node(Operation::Xor, &[ld, add]);
        b.mark_output(out);
        RootedDfg::new(b.build().unwrap())
    }

    #[test]
    fn source_feeds_all_roots() {
        let r = sample();
        let source_succs = r.succs(r.source());
        assert_eq!(source_succs.len(), 2, "input and constant are roots");
        assert!(r.preds(NodeId::new(0)).contains(&r.source()));
        assert!(r.preds(NodeId::new(1)).contains(&r.source()));
    }

    #[test]
    fn outputs_feed_sink() {
        let r = sample();
        assert_eq!(r.preds(r.sink()), &[NodeId::new(4)]);
        assert!(r.succs(NodeId::new(4)).contains(&r.sink()));
    }

    #[test]
    fn effective_forbidden_set() {
        let r = sample();
        assert!(r.is_forbidden(NodeId::new(0)), "Iext");
        assert!(
            r.is_forbidden(NodeId::new(1)),
            "constants are roots and therefore Iext"
        );
        assert!(!r.is_forbidden(NodeId::new(2)));
        assert!(r.is_forbidden(NodeId::new(3)), "load");
        assert!(r.is_forbidden(r.source()));
        assert!(r.is_forbidden(r.sink()));
    }

    #[test]
    fn counts_and_artificial_checks() {
        let r = sample();
        assert_eq!(r.num_nodes(), 7);
        assert_eq!(r.original_len(), 5);
        assert!(r.is_artificial(r.source()));
        assert!(r.is_artificial(r.sink()));
        assert!(!r.is_artificial(NodeId::new(0)));
        assert_eq!(r.node_ids().count(), 7);
        assert_eq!(r.original_node_ids().count(), 5);
        assert_eq!(r.node_set().capacity(), 7);
    }

    #[test]
    fn topological_order_has_source_first_and_sink_last() {
        let r = sample();
        let order: Vec<NodeId> = r.topological_order().collect();
        assert_eq!(order.len(), 7);
        assert_eq!(order[0], r.source());
        assert_eq!(*order.last().unwrap(), r.sink());
    }

    /// The composed order is the one a fresh sort of the augmented rows gives, also
    /// when edges run from higher ids to lower ones and an output has successors.
    #[test]
    fn topological_order_equals_a_sort_of_the_augmented_rows() {
        let backwards = Dfg::from_edges(
            "backwards",
            vec![
                Operation::Add,
                Operation::Mul,
                Operation::Input,
                Operation::Not,
                Operation::Input,
                Operation::Store,
            ],
            [(4, 3), (2, 1), (3, 1), (1, 0), (4, 0), (3, 5)]
                .iter()
                .map(|&(a, b)| (NodeId::new(a), NodeId::new(b)))
                .collect(),
            [NodeId::new(1), NodeId::new(0)],
            [],
        )
        .unwrap();
        for r in [sample(), RootedDfg::new(backwards)] {
            let sorted = crate::topo::topological_order(&r.succs, &r.preds).unwrap();
            assert_eq!(r.topological_order().collect::<Vec<_>>(), sorted);
        }
    }

    #[test]
    fn forbidden_roots_are_reachable_from_source() {
        // A store with no predecessors must still hang off the source so that the graph
        // stays rooted (§3: forbidden nodes are connected to the artificial source).
        let g = Dfg::from_edges(
            "store-root",
            vec![Operation::Store, Operation::Input, Operation::Add],
            vec![(NodeId::new(1), NodeId::new(2))],
            [],
            [],
        )
        .unwrap();
        let r = RootedDfg::new(g);
        assert!(r.succs(r.source()).contains(&NodeId::new(0)));
    }

    #[test]
    fn from_impl_matches_new() {
        let mut b = DfgBuilder::new("conv");
        let a = b.input("a");
        let _ = b.node(Operation::Not, &[a]);
        let dfg = b.build().unwrap();
        let r: RootedDfg = dfg.clone().into();
        assert_eq!(r.num_nodes(), RootedDfg::new(dfg).num_nodes());
    }
}
