//! Compressed sparse row (CSR) adjacency storage.
//!
//! The enumeration hot paths — the engine's support-counter cascades, the backward
//! closure of `cone()`, reachability and dominator sweeps — read adjacency rows far
//! more often than anything else touches the graph. A `Vec<Vec<NodeId>>` adjacency
//! puts every row behind its own heap allocation, so walking a vertex's neighbours
//! costs one pointer chase per row and the rows of consecutive vertices land wherever
//! the allocator put them. [`CsrAdjacency`] flattens the whole direction into one edge
//! arena plus an offset table: `row(v)` is a bounds check and a slice, and rows of
//! nearby vertices share cache lines.
//!
//! Rows preserve *insertion order* of the underlying edge list, which is load-bearing:
//! `Dfg` defines operand order as edge order (non-commutative operations, the corpus
//! writer's canonical form), so the CSR build must be a stable grouping, not a sort.

use crate::node::NodeId;

/// One direction of a graph's adjacency (all successor rows or all predecessor rows),
/// stored as a flat edge arena plus a per-vertex offset table.
///
/// Build it with [`CsrAdjacency::forward`] (rows keyed by edge source) or
/// [`CsrAdjacency::backward`] (rows keyed by edge target); both preserve the order of
/// the given edge list within each row.
///
/// # Example
///
/// ```
/// use ise_graph::{CsrAdjacency, NodeId};
///
/// let n = |i| NodeId::new(i);
/// let edges = [(n(0), n(2)), (n(1), n(2)), (n(0), n(1))];
/// let succs = CsrAdjacency::forward(3, &edges);
/// assert_eq!(succs.row(n(0)), &[n(2), n(1)]); // insertion order, not sorted
/// let preds = CsrAdjacency::backward(3, &edges);
/// assert_eq!(preds.row(n(2)), &[n(0), n(1)]); // operand order preserved
/// assert_eq!(preds.row(n(0)), &[]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `row(v)` within `targets`.
    offsets: Vec<u32>,
    /// All rows back to back.
    targets: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Builds the adjacency keyed by `key(edge)`, storing `value(edge)` in the rows,
    /// preserving edge-list order within each row.
    fn grouped<E: Copy>(
        num_nodes: usize,
        edges: &[E],
        key: impl Fn(E) -> NodeId,
        value: impl Fn(E) -> NodeId,
    ) -> Self {
        assert!(
            edges.len() <= u32::MAX as usize,
            "CSR offsets are 32-bit; {} edges exceed the format",
            edges.len()
        );
        // Count each row's edges at its own index, then take inclusive prefix sums:
        // `offsets[v]` is the end of row `v` and `offsets[num_nodes]` the edge count.
        let mut offsets = vec![0u32; num_nodes + 1];
        for &e in edges {
            offsets[key(e).index()] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Stable fill, back to front: the last edge of a row takes its last slot, and
        // walking every end down leaves `offsets[v]` at the start of row `v`.
        let mut targets = vec![NodeId::from_index(0); edges.len()];
        for &e in edges.iter().rev() {
            let end = &mut offsets[key(e).index()];
            *end -= 1;
            targets[*end as usize] = value(e);
        }
        CsrAdjacency { offsets, targets }
    }

    /// An empty adjacency with room for `num_nodes` rows and `num_edges` edges; add
    /// the rows in vertex order with [`CsrAdjacency::push_row`].
    pub(crate) fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0);
        CsrAdjacency {
            offsets,
            targets: Vec::with_capacity(num_edges),
        }
    }

    /// Appends the row of the next vertex.
    ///
    /// # Panics
    ///
    /// Panics if the edge count exceeds `u32::MAX`.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = NodeId>) {
        self.targets.extend(row);
        let end = u32::try_from(self.targets.len()).expect("CSR offsets are 32-bit");
        self.offsets.push(end);
    }

    /// Builds successor rows: `row(v)` lists the `to` of every edge `(v, to)`, in
    /// edge-list order.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range for `num_nodes`, or if the edge
    /// count exceeds `u32::MAX`.
    pub fn forward(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::grouped(num_nodes, edges, |(from, _)| from, |(_, to)| to)
    }

    /// Builds predecessor rows: `row(v)` lists the `from` of every edge `(from, v)`,
    /// in edge-list order (i.e. operand order when the edge list is operand-ordered).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range for `num_nodes`, or if the edge
    /// count exceeds `u32::MAX`.
    pub fn backward(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::grouped(num_nodes, edges, |(_, to)| to, |(from, _)| from)
    }

    /// The neighbour row of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn row(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of vertices the adjacency was built for.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Iterates over the rows in vertex order.
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.num_nodes()).map(move |i| self.row(NodeId::from_index(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn forward_and_backward_group_by_the_right_endpoint() {
        let edges = [(n(0), n(2)), (n(1), n(2)), (n(2), n(3)), (n(0), n(3))];
        let succs = CsrAdjacency::forward(4, &edges);
        assert_eq!(succs.row(n(0)), &[n(2), n(3)]);
        assert_eq!(succs.row(n(1)), &[n(2)]);
        assert_eq!(succs.row(n(2)), &[n(3)]);
        assert_eq!(succs.row(n(3)), &[]);
        let preds = CsrAdjacency::backward(4, &edges);
        assert_eq!(preds.row(n(0)), &[]);
        assert_eq!(preds.row(n(2)), &[n(0), n(1)]);
        assert_eq!(preds.row(n(3)), &[n(2), n(0)]);
        assert_eq!(succs.num_nodes(), 4);
        assert_eq!(succs.num_edges(), 4);
    }

    #[test]
    fn rows_preserve_edge_list_order_not_sorted_order() {
        // Operand order: node 3 consumes (2, 0, 1) in that order.
        let edges = [(n(2), n(3)), (n(0), n(3)), (n(1), n(3))];
        let preds = CsrAdjacency::backward(4, &edges);
        assert_eq!(preds.row(n(3)), &[n(2), n(0), n(1)]);
    }

    #[test]
    fn empty_and_isolated_rows_are_empty_slices() {
        let adj = CsrAdjacency::forward(3, &[]);
        assert_eq!(adj.num_edges(), 0);
        assert!(adj.rows().all(<[NodeId]>::is_empty));
    }

    #[test]
    fn rows_iterates_in_vertex_order() {
        let edges = [(n(1), n(0)), (n(2), n(0)), (n(2), n(1))];
        let succs = CsrAdjacency::forward(3, &edges);
        let rows: Vec<&[NodeId]> = succs.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], &[n(0)]);
        assert_eq!(rows[2], &[n(0), n(1)]);
    }
}
