//! The dominator tree with constant-time ancestry queries.

use ise_graph::NodeId;

/// A dominator (or postdominator) tree.
///
/// Stores the immediate dominator of every vertex reachable from the root, the tree
/// children, and pre/post numbering of the tree so that [`DominatorTree::dominates`]
/// answers ancestry queries in constant time (§5.4 of the paper requires constant-time
/// ancestor queries on both the dominator and the postdominator tree).
///
/// Vertices that are unreachable from the root (for example because they were removed
/// when computing dominators of a *reduced* graph) have no immediate dominator and are
/// reported as not dominated by anything, not even themselves.
#[derive(Clone, Debug)]
pub struct DominatorTree {
    root: NodeId,
    idom: Vec<Option<NodeId>>,
    /// Preorder interval `[enter, exit)` of each vertex in the dominator tree; `a`
    /// dominates `b` iff `enter(a) <= enter(b) < exit(a)`.
    interval: Vec<[u32; 2]>,
}

impl DominatorTree {
    /// Builds the tree from the immediate-dominator array produced by one of the
    /// dominator algorithms.
    ///
    /// `idom[v]` must be `None` for the root and for unreachable vertices.
    ///
    /// # Panics
    ///
    /// Panics if `idom` links form a cycle (which would indicate a bug in the algorithm
    /// that produced them).
    pub fn from_idoms(root: NodeId, idom: Vec<Option<NodeId>>) -> Self {
        let n = idom.len();
        // Children in CSR form: after the fill, the children of `p` are
        // `children[first_child[p]..first_child[p + 1]]`, in increasing vertex order.
        let mut first_child = vec![0u32; n + 1];
        for parent in idom.iter().flatten() {
            first_child[parent.index()] += 1;
        }
        // Inclusive prefix sums: `first_child[p]` is the end of `p`'s range...
        let mut total = 0;
        for end in first_child.iter_mut() {
            total += *end;
            *end = total;
        }
        // ...and a backward fill walks each end down to its start.
        let mut children = vec![root; total as usize];
        for (i, parent) in idom.iter().enumerate().rev() {
            if let Some(parent) = parent {
                let slot = &mut first_child[parent.index()];
                *slot -= 1;
                children[*slot as usize] = NodeId::from_index(i);
            }
        }

        // Iterative preorder walk over the dominator tree without a stack: while a
        // vertex is open, its exit slot holds the position of its next child to
        // visit, and a finished vertex hands control back to its parent (its idom).
        const EXIT: usize = 1; // interval[v] = [enter, exit]
        let mut interval = vec![[0u32; 2]; n];
        let mut clock = 1u32;
        let mut node = root;
        interval[root.index()][EXIT] = first_child[root.index()];
        loop {
            let next = interval[node.index()][EXIT];
            if next < first_child[node.index() + 1] {
                interval[node.index()][EXIT] = next + 1;
                let child = children[next as usize];
                interval[child.index()] = [clock, first_child[child.index()]];
                clock += 1;
                node = child;
            } else {
                interval[node.index()][EXIT] = clock;
                if node == root {
                    break;
                }
                node = idom[node.index()].expect("a visited non-root vertex has an idom");
            }
        }
        assert!(
            clock as usize <= n,
            "idom array visits more vertices than exist; cyclic idom links?"
        );

        DominatorTree {
            root,
            idom,
            interval,
        }
    }

    /// The immediate dominator of `node`, or `None` for the root and for vertices
    /// unreachable from the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn idom(&self, node: NodeId) -> Option<NodeId> {
        self.idom[node.index()]
    }

    /// Whether `node` is reachable from the root (and therefore has dominator
    /// information).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_reachable(&self, node: NodeId) -> bool {
        node == self.root || self.idom[node.index()].is_some()
    }

    /// Whether `a` dominates `b` (reflexively: every vertex dominates itself).
    ///
    /// Returns `false` if either vertex is unreachable from the root.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let [enter_a, exit_a] = self.interval[a.index()];
        let enter_b = self.interval[b.index()][0];
        enter_a <= enter_b && enter_b < exit_a
    }

    /// Iterates over the strict dominators of `node`, from its immediate dominator up to
    /// the root. Empty for the root and for unreachable vertices.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn strict_dominators(&self, node: NodeId) -> StrictDominators<'_> {
        StrictDominators {
            tree: self,
            current: self.idom[node.index()],
        }
    }
}

/// Iterator over the strict dominators of a vertex, produced by
/// [`DominatorTree::strict_dominators`].
pub struct StrictDominators<'a> {
    tree: &'a DominatorTree,
    current: Option<NodeId>,
}

impl Iterator for StrictDominators<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.current?;
        self.current = self.tree.idom[node.index()];
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Dominator tree:
    ///        0
    ///       / \
    ///      1   2
    ///     / \
    ///    3   4
    /// Node 5 is unreachable.
    fn sample() -> DominatorTree {
        DominatorTree::from_idoms(
            n(0),
            vec![None, Some(n(0)), Some(n(0)), Some(n(1)), Some(n(1)), None],
        )
    }

    #[test]
    fn idom_accessors() {
        let t = sample();
        assert_eq!(t.idom(n(3)), Some(n(1)));
        assert_eq!(t.idom(n(0)), None);
        assert_eq!(t.idom(n(5)), None);
    }

    #[test]
    fn reachability() {
        let t = sample();
        assert!(t.is_reachable(n(0)));
        assert!(t.is_reachable(n(4)));
        assert!(!t.is_reachable(n(5)));
        assert_eq!((0..6).filter(|&i| t.is_reachable(n(i))).count(), 5);
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let t = sample();
        for i in 0..5 {
            assert!(t.dominates(n(i), n(i)), "reflexive for {i}");
        }
        assert!(t.dominates(n(0), n(3)));
        assert!(t.dominates(n(1), n(3)));
        assert!(t.dominates(n(1), n(4)));
        assert!(!t.dominates(n(2), n(3)));
        assert!(!t.dominates(n(3), n(1)));
        assert!(!t.dominates(n(4), n(3)));
    }

    #[test]
    fn unreachable_vertices_dominate_nothing() {
        let t = sample();
        assert!(!t.dominates(n(5), n(5)));
        assert!(!t.dominates(n(0), n(5)));
        assert!(!t.dominates(n(5), n(0)));
    }

    #[test]
    fn strict_dominator_chain_walks_to_root() {
        let t = sample();
        let chain: Vec<NodeId> = t.strict_dominators(n(3)).collect();
        assert_eq!(chain, vec![n(1), n(0)]);
        assert_eq!(t.strict_dominators(n(0)).count(), 0);
        assert_eq!(t.strict_dominators(n(5)).count(), 0);
    }
}
