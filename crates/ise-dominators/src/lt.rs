//! The Lengauer–Tarjan dominator algorithm (simple variant, `O(e log n)`).
//!
//! §5.4 of the paper: "To compute dominators, we implemented the O(n log n) variant of
//! the Lengauer–Tarjan algorithm, which employs path compression but no tree balancing",
//! with an *iterative* `eval` ("switching to an iterative implementation cut the number
//! of memory accesses by a third"). This module follows that prescription: the DFS, the
//! path compression and the bucket processing are all iterative, and the algorithm can
//! run on a *reduced* graph (a subset of vertices removed) as required by the
//! multiple-vertex dominator construction of Dubrova et al. (§5.2).
//!
//! The enumeration engine itself runs the one-pass DAG algorithm of [`crate::dag`],
//! which exploits acyclicity; Lengauer–Tarjan makes no such assumption, which is what
//! makes it the independent oracle every DAG-pass test compares against. It also
//! drives the reference enumeration [`crate::multi::enumerate_generalized_dominators`].

use ise_graph::{DenseNodeSet, NodeId};

use crate::flow::FlowGraph;
use crate::tree::DominatorTree;

const UNDEF: u32 = u32::MAX;

/// Reusable scratch memory for repeated Lengauer–Tarjan runs over the same graph: every
/// per-run vector (DFS numbering, semidominators, path-compression forest, buckets,
/// immediate dominators) stays alive between runs, and the immediate dominators can be
/// read back directly ([`LtWorkspace::idom`], [`LtWorkspace::is_reachable`]) without
/// materializing a [`DominatorTree`].
#[derive(Clone, Debug, Default)]
pub(crate) struct LtWorkspace {
    dfnum: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    vertex: Vec<NodeId>,
    semi: Vec<u32>,
    ancestor: Vec<Option<NodeId>>,
    label: Vec<NodeId>,
    bucket: Vec<Vec<NodeId>>,
    idom: Vec<Option<NodeId>>,
    dfs_stack: Vec<(NodeId, Option<NodeId>)>,
    compress_stack: Vec<NodeId>,
}

impl LtWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on the first run.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Resizes and reinitializes every buffer for a graph of `n` vertices.
    fn reset(&mut self, n: usize) {
        self.dfnum.clear();
        self.dfnum.resize(n, UNDEF);
        self.parent.clear();
        self.parent.resize(n, None);
        self.vertex.clear();
        self.vertex.reserve(n);
        self.semi.clear();
        self.semi.resize(n, UNDEF);
        self.ancestor.clear();
        self.ancestor.resize(n, None);
        self.label.clear();
        self.label.extend((0..n).map(NodeId::from_index));
        // Buckets are drained by the main loop, so only the length needs fixing; the
        // inner vectors keep their capacity across runs.
        self.bucket.iter_mut().for_each(Vec::clear);
        self.bucket.resize_with(n, Vec::new);
        self.idom.clear();
        self.idom.resize(n, None);
    }

    /// Runs Lengauer–Tarjan on the *reduced* graph obtained by deleting the vertices in
    /// `removed` from `graph`, storing the result in the workspace.
    ///
    /// # Panics
    ///
    /// Panics if the root itself is in `removed`, or if `removed` was sized for a
    /// different graph.
    pub(crate) fn run_reduced<G: FlowGraph>(&mut self, graph: &G, removed: &DenseNodeSet) {
        let n = graph.num_nodes();
        let root = graph.root();
        assert_eq!(
            removed.capacity(),
            n,
            "removed-vertex set sized for a different graph"
        );
        assert!(
            !removed.contains(root),
            "the root of the flow graph cannot be removed"
        );
        self.reset(n);

        // Iterative depth-first numbering, skipping removed vertices.
        self.dfs_stack.clear();
        self.dfs_stack.push((root, None));
        while let Some((node, from)) = self.dfs_stack.pop() {
            if self.dfnum[node.index()] != UNDEF {
                continue;
            }
            self.dfnum[node.index()] = self.vertex.len() as u32;
            self.vertex.push(node);
            self.parent[node.index()] = from;
            // Push successors in reverse so that the first successor is visited first;
            // the visiting order does not affect correctness, only determinism.
            for &succ in graph.succs(node).iter().rev() {
                if self.dfnum[succ.index()] == UNDEF && !removed.contains(succ) {
                    self.dfs_stack.push((succ, Some(node)));
                }
            }
        }

        let reached = self.vertex.len();
        // semi[v] holds a dfnum; initially each vertex is its own semidominator
        // (UNDEF for unreachable vertices).
        self.semi.copy_from_slice(&self.dfnum);

        // Main loop: vertices in decreasing dfnum order, excluding the root.
        for i in (1..reached).rev() {
            let w = self.vertex[i];
            // Step 2: compute the semidominator of w.
            for &v in graph.preds(w) {
                if self.dfnum[v.index()] == UNDEF || removed.contains(v) {
                    continue; // predecessor unreachable or deleted in the reduced graph
                }
                let u = eval(
                    &mut self.compress_stack,
                    &mut self.ancestor,
                    &mut self.label,
                    &self.semi,
                    v,
                );
                if self.semi[u.index()] < self.semi[w.index()] {
                    self.semi[w.index()] = self.semi[u.index()];
                }
            }
            self.bucket[self.vertex[self.semi[w.index()] as usize].index()].push(w);
            // LINK(parent[w], w).
            let p = self.parent[w.index()].expect("non-root reachable vertices have DFS parents");
            self.ancestor[w.index()] = Some(p);
            // Step 3: implicitly compute immediate dominators for the vertices in
            // bucket(parent[w]). Draining in place keeps the bucket's capacity for the
            // next run.
            while let Some(v) = self.bucket[p.index()].pop() {
                let u = eval(
                    &mut self.compress_stack,
                    &mut self.ancestor,
                    &mut self.label,
                    &self.semi,
                    v,
                );
                self.idom[v.index()] = if self.semi[u.index()] < self.semi[v.index()] {
                    Some(u)
                } else {
                    Some(p)
                };
            }
        }

        // Step 4: fill in immediate dominators in increasing dfnum order.
        for i in 1..reached {
            let w = self.vertex[i];
            if self.idom[w.index()] != Some(self.vertex[self.semi[w.index()] as usize]) {
                let via = self.idom[w.index()].expect("bucket pass assigned a provisional idom");
                self.idom[w.index()] = self.idom[via.index()];
            }
        }
        self.idom[root.index()] = None;
    }

    /// The immediate dominator of `node` in the last run, or `None` for the root and
    /// for vertices unreachable in the reduced graph.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the last run's graph.
    #[inline]
    pub(crate) fn idom(&self, node: NodeId) -> Option<NodeId> {
        self.idom[node.index()]
    }

    /// Whether `node` was reachable from the root in the last run's reduced graph.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the last run's graph.
    #[inline]
    pub(crate) fn is_reachable(&self, node: NodeId) -> bool {
        self.dfnum[node.index()] != UNDEF
    }
}

/// Iterative path-compressing EVAL (§5.4: an iterative implementation avoids the
/// recursion that the compiler cannot collapse once path compression kicks in).
fn eval(
    compress_stack: &mut Vec<NodeId>,
    ancestor: &mut [Option<NodeId>],
    label: &mut [NodeId],
    semi: &[u32],
    v: NodeId,
) -> NodeId {
    if ancestor[v.index()].is_none() {
        return v;
    }
    // Collect the path from v towards the forest root (excluding the root itself).
    compress_stack.clear();
    let mut x = v;
    while let Some(a) = ancestor[x.index()] {
        if ancestor[a.index()].is_some() {
            compress_stack.push(x);
            x = a;
        } else {
            break;
        }
    }
    // Unwind from the top so every ancestor link is already compressed.
    while let Some(x) = compress_stack.pop() {
        let a = ancestor[x.index()].expect("path vertices have ancestors");
        if semi[label[a.index()].index()] < semi[label[x.index()].index()] {
            label[x.index()] = label[a.index()];
        }
        ancestor[x.index()] = ancestor[a.index()];
    }
    label[v.index()]
}

/// Computes the dominator tree of `graph` rooted at [`FlowGraph::root`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::{lengauer_tarjan, Forward};
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let y = b.node(Operation::Add, &[x, a]);
/// let rooted = RootedDfg::new(b.build()?);
/// let tree = lengauer_tarjan(&Forward(&rooted));
/// assert_eq!(tree.idom(y), Some(a));
/// # Ok(())
/// # }
/// ```
pub fn lengauer_tarjan<G: FlowGraph>(graph: &G) -> DominatorTree {
    let empty = DenseNodeSet::new(graph.num_nodes());
    lengauer_tarjan_reduced(graph, &empty)
}

/// Computes the dominator tree of the *reduced* graph obtained by deleting the vertices
/// in `removed` (and every edge incident to them) from `graph`.
///
/// Vertices that become unreachable from the root are reported as unreachable by the
/// resulting [`DominatorTree`]. This is the primitive used to enumerate multiple-vertex
/// dominators: removing a seed set and asking for single-vertex dominators of the
/// remaining graph (§5.2).
///
/// # Panics
///
/// Panics if the root itself is in `removed`, or if `removed` was sized for a different
/// graph.
pub fn lengauer_tarjan_reduced<G: FlowGraph>(graph: &G, removed: &DenseNodeSet) -> DominatorTree {
    let mut ws = LtWorkspace::new();
    ws.run_reduced(graph, removed);
    // The workspace is discarded, so the idom vector can be moved instead of cloned.
    DominatorTree::from_idoms(graph.root(), ws.idom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Forward, Reverse};
    use ise_graph::{DfgBuilder, Operation, RootedDfg};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// The running example of Figure 1 of the paper.
    ///
    /// Roots A(0), B(1), C(2); N(3) = op(A,B); X(4) = op(N,B); Y(5) = op(N,C);
    /// X and Y are the external outputs.
    fn figure1() -> RootedDfg {
        let mut b = DfgBuilder::new("figure1");
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.input("C");
        let nn = b.named_node(Operation::Add, &[a, bb], Some("N"));
        let x = b.named_node(Operation::Mul, &[nn, bb], Some("X"));
        let y = b.named_node(Operation::Sub, &[nn, c], Some("Y"));
        b.mark_output(x);
        b.mark_output(y);
        RootedDfg::new(b.build().unwrap())
    }

    #[test]
    fn dominators_on_figure1() {
        let r = figure1();
        let tree = lengauer_tarjan(&Forward(&r));
        // All roots are immediately dominated by the artificial source.
        assert_eq!(tree.idom(n(0)), Some(r.source()));
        assert_eq!(tree.idom(n(1)), Some(r.source()));
        assert_eq!(tree.idom(n(2)), Some(r.source()));
        // N, X and Y join paths from several roots, so their only single-vertex
        // dominator is the source.
        assert_eq!(tree.idom(n(3)), Some(r.source()));
        assert_eq!(tree.idom(n(4)), Some(r.source()));
        assert_eq!(tree.idom(n(5)), Some(r.source()));
        assert!(tree.dominates(r.source(), n(5)));
    }

    #[test]
    fn postdominators_on_figure1() {
        let r = figure1();
        let tree = lengauer_tarjan(&Reverse(&r));
        // X and Y flow only into the sink.
        assert_eq!(tree.idom(n(4)), Some(r.sink()));
        assert_eq!(tree.idom(n(5)), Some(r.sink()));
        // C is only used by Y, so Y postdominates C.
        assert_eq!(tree.idom(n(2)), Some(n(5)));
        // N flows into both X and Y, so its immediate postdominator is the sink.
        assert_eq!(tree.idom(n(3)), Some(r.sink()));
        assert!(tree.dominates(n(5), n(2)));
    }

    #[test]
    fn linear_chain_dominators() {
        let mut b = DfgBuilder::new("chain");
        let a = b.input("a");
        let x1 = b.node(Operation::Not, &[a]);
        let x2 = b.node(Operation::Shl, &[x1]);
        let x3 = b.node(Operation::Add, &[x2]);
        let r = RootedDfg::new(b.build().unwrap());
        let tree = lengauer_tarjan(&Forward(&r));
        assert_eq!(tree.idom(x1), Some(a));
        assert_eq!(tree.idom(x2), Some(x1));
        assert_eq!(tree.idom(x3), Some(x2));
        assert!(tree.dominates(x1, x3));
        assert!(!tree.dominates(x3, x1));
    }

    #[test]
    fn reduced_graph_skips_removed_vertices() {
        // a -> {u, v} -> m: removing u makes v dominate m.
        let mut b = DfgBuilder::new("reduced");
        let a = b.input("a");
        let u = b.node(Operation::Not, &[a]);
        let v = b.node(Operation::Shl, &[a]);
        let m = b.node(Operation::Add, &[u, v]);
        let r = RootedDfg::new(b.build().unwrap());

        let full = lengauer_tarjan(&Forward(&r));
        assert_eq!(full.idom(m), Some(a));

        let mut removed = r.node_set();
        removed.insert(u);
        let reduced = lengauer_tarjan_reduced(&Forward(&r), &removed);
        assert_eq!(reduced.idom(m), Some(v));
        assert!(!reduced.is_reachable(u));
    }

    #[test]
    fn removing_all_paths_makes_vertices_unreachable() {
        let mut b = DfgBuilder::new("cutoff");
        let a = b.input("a");
        let u = b.node(Operation::Not, &[a]);
        let m = b.node(Operation::Add, &[u]);
        let r = RootedDfg::new(b.build().unwrap());
        let mut removed = r.node_set();
        removed.insert(u);
        let tree = lengauer_tarjan_reduced(&Forward(&r), &removed);
        assert!(!tree.is_reachable(m));
        assert_eq!(tree.idom(m), None);
        assert!(!tree.dominates(a, m));
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // Run the same workspace over a sequence of different reduced graphs and check
        // each run against a fresh computation: stale state must never leak through.
        let r = figure1();
        let g = Forward(&r);
        let mut ws = LtWorkspace::new();
        for victim in 0..6usize {
            let mut removed = r.node_set();
            removed.insert(n(victim));
            ws.run_reduced(&g, &removed);
            let fresh = lengauer_tarjan_reduced(&g, &removed);
            for v in r.node_ids() {
                assert_eq!(ws.idom(v), fresh.idom(v), "victim {victim}, node {v}");
                assert_eq!(
                    ws.is_reachable(v),
                    fresh.is_reachable(v),
                    "victim {victim}, node {v}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "root of the flow graph cannot be removed")]
    fn removing_the_root_panics() {
        let mut b = DfgBuilder::new("bad");
        let a = b.input("a");
        let _ = b.node(Operation::Not, &[a]);
        let r = RootedDfg::new(b.build().unwrap());
        let mut removed = r.node_set();
        removed.insert(r.source());
        let _ = lengauer_tarjan_reduced(&Forward(&r), &removed);
    }
}
