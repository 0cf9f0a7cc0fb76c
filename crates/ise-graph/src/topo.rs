//! Topological ordering over CSR adjacency rows.

use crate::csr::CsrAdjacency;
use crate::node::NodeId;

/// Computes a topological order (producers before consumers) of a DAG given as
/// parallel successor/predecessor rows. Kahn's algorithm with a stack: the roots are
/// pushed in id order, so the highest-numbered root comes first.
///
/// # Errors
///
/// Returns `Err(node)` with a node that is part of a cycle if the graph is not acyclic.
pub(crate) fn topological_order(
    succs: &CsrAdjacency,
    preds: &CsrAdjacency,
) -> Result<Vec<NodeId>, NodeId> {
    let n = succs.num_nodes();
    debug_assert_eq!(n, preds.num_nodes());
    let mut in_degree: Vec<usize> = (0..n)
        .map(|i| preds.row(NodeId::from_index(i)).len())
        .collect();
    let mut ready: Vec<NodeId> = Vec::with_capacity(n);
    ready.extend(
        (0..n)
            .filter(|&i| in_degree[i] == 0)
            .map(NodeId::from_index),
    );
    let mut order = Vec::with_capacity(n);
    while let Some(node) = ready.pop() {
        order.push(node);
        for &succ in succs.row(node) {
            in_degree[succ.index()] -= 1;
            if in_degree[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        // Some node still has unresolved predecessors: it lies on a cycle.
        let culprit = (0..n)
            .find(|&i| in_degree[i] > 0)
            .map(NodeId::from_index)
            .expect("missing nodes imply a positive in-degree");
        Err(culprit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Both CSR directions of an edge list over `len` vertices.
    fn rows(len: usize, edges: &[(usize, usize)]) -> (CsrAdjacency, CsrAdjacency) {
        let edges: Vec<_> = edges.iter().map(|&(a, b)| (n(a), n(b))).collect();
        (
            CsrAdjacency::forward(len, &edges),
            CsrAdjacency::backward(len, &edges),
        )
    }

    #[test]
    fn order_covers_all_nodes_once() {
        let (succs, preds) = rows(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]);
        let order = topological_order(&succs, &preds).unwrap();
        assert_eq!(order.len(), 5);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, (0..5).map(n).collect::<Vec<_>>());
    }

    #[test]
    fn cycle_is_reported() {
        let (succs, preds) = rows(2, &[(0, 1), (1, 0)]);
        let err = topological_order(&succs, &preds).unwrap_err();
        assert!(err == n(0) || err == n(1));
    }
}
