//! Precomputed reachability and forbidden-path information (§5.3, §5.4).

use crate::bitset::NodeRow;
use crate::node::NodeId;
use crate::rooted::RootedDfg;

/// Precomputed path information over a [`RootedDfg`].
///
/// §5.4 of the paper lists, among the precomputed data structures, "the presence of
/// paths between two nodes, and whether any of these paths touches a forbidden node".
/// This type stores the first, and of the second the form the engine prunes with:
/// whether some path avoids forbidden vertices, the lossless reading of §5.3's
/// output–input pruning. It also keeps every vertex's ancestor set:
///
/// * [`Reachability::reaches`] — is there a non-empty path `from → to`?
/// * [`Reachability::clean_reaches`] — is there a path `from → to` with *no*
///   forbidden vertex strictly between the endpoints?
/// * [`Reachability::ancestors`] / [`Reachability::descendants`] — whole rows, as
///   borrowed [`NodeRow`]s.
///
/// The storage is three flat row-major bit matrices (descendants, clean and
/// ancestors), each one `Vec<u64>` of `n × ⌈n/64⌉` words for the `n` vertices of the
/// augmented graph: three allocations per graph whatever its size. One
/// reverse-topological pass fills the first two in place and one forward pass fills
/// the ancestors, each in `O(e · n / 64)` word operations.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_graph::{DfgBuilder, Operation, Reachability, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let ld = b.node(Operation::Load, &[a]);
/// let add = b.node(Operation::Add, &[ld, a]);
/// let rooted = RootedDfg::new(b.build()?);
/// let reach = Reachability::compute(&rooted);
///
/// assert!(reach.reaches(ld, add));
/// assert!(reach.clean_reaches(a, add), "the direct edge is clean");
/// assert!(!reach.clean_reaches(rooted.source(), ld), "only via the input `a`");
/// assert!(reach.ancestors(add).contains(ld));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Reachability {
    /// Number of vertices: the row count and the capacity of every row.
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    stride: usize,
    /// Row `v` contains every vertex reachable from `v` by a non-empty path.
    descendants: Vec<u64>,
    /// Row `v` contains every vertex `w` such that some path `v → w` passes through no
    /// forbidden vertex strictly between `v` and `w`.
    clean: Vec<u64>,
    /// Row `v` contains every vertex that reaches `v` by a non-empty path.
    ancestors: Vec<u64>,
}

/// The word holding `node`'s bit in a row, and the bit's mask.
#[inline]
fn bit(node: NodeId) -> (usize, u64) {
    (node.index() / 64, 1u64 << (node.index() % 64))
}

/// `matrix[dst] |= matrix[src]` for two distinct rows of one matrix.
#[inline]
fn or_row(matrix: &mut [u64], stride: usize, dst: usize, src: usize) {
    debug_assert_ne!(dst, src);
    let (dst_row, src_row) = if dst < src {
        let (lo, hi) = matrix.split_at_mut(src * stride);
        (&mut lo[dst * stride..(dst + 1) * stride], &hi[..stride])
    } else {
        let (lo, hi) = matrix.split_at_mut(dst * stride);
        (&mut hi[..stride], &lo[src * stride..(src + 1) * stride])
    };
    for (d, s) in dst_row.iter_mut().zip(src_row) {
        *d |= s;
    }
}

impl Reachability {
    /// Computes reachability over the augmented graph.
    pub fn compute(graph: &RootedDfg) -> Self {
        let n = graph.num_nodes();
        let stride = n.div_ceil(64);
        let mut descendants = vec![0u64; n * stride];
        let mut clean = vec![0u64; n * stride];

        // Reverse topological order: every successor row is final before it is merged
        // into its predecessors.
        for v in graph.topological_order().rev() {
            let vi = v.index();
            for &s in graph.succs(v) {
                let si = s.index();
                let (word, mask) = bit(s);
                descendants[vi * stride + word] |= mask;
                clean[vi * stride + word] |= mask;
                or_row(&mut descendants, stride, vi, si);
                // Only a non-forbidden successor extends forbidden-free paths.
                if !graph.is_forbidden(s) {
                    or_row(&mut clean, stride, vi, si);
                }
            }
        }

        // Forward order: every predecessor row is final before it is merged, so the
        // ancestors of `v` are the union of `{p} ∪ ancestors(p)` over its predecessors.
        let mut ancestors = vec![0u64; n * stride];
        for v in graph.topological_order() {
            let vi = v.index();
            for &p in graph.preds(v) {
                let (word, mask) = bit(p);
                ancestors[vi * stride + word] |= mask;
                or_row(&mut ancestors, stride, vi, p.index());
            }
        }

        Reachability {
            n,
            stride,
            descendants,
            clean,
            ancestors,
        }
    }

    #[inline]
    fn row<'a>(&self, matrix: &'a [u64], node: NodeId) -> NodeRow<'a> {
        let start = node.index() * self.stride;
        NodeRow::new(&matrix[start..start + self.stride], self.n)
    }

    #[inline]
    fn test(&self, matrix: &[u64], from: NodeId, to: NodeId) -> bool {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "node pair {from}->{to} out of range for {} vertices",
            self.n
        );
        let (word, mask) = bit(to);
        matrix[from.index() * self.stride + word] & mask != 0
    }

    /// Whether there is a non-empty path from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the graph this was computed from.
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.test(&self.descendants, from, to)
    }

    /// Whether some path from `from` to `to` contains *no* forbidden vertex strictly
    /// between the endpoints. Every input of a valid cut has such a path to at least
    /// one of the cut's outputs, which is what the (lossless form of the) output–input
    /// pruning of §5.3 relies on.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the graph this was computed from.
    #[inline]
    pub fn clean_reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.test(&self.clean, from, to)
    }

    /// The set of vertices reachable from `node` (excluding `node` itself unless it lies
    /// on a cycle, which cannot happen in a DAG).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn descendants(&self, node: NodeId) -> NodeRow<'_> {
        self.row(&self.descendants, node)
    }

    /// The set of vertices that reach `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn ancestors(&self, node: NodeId) -> NodeRow<'_> {
        self.row(&self.ancestors, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::op::Operation;

    /// in0 in1
    ///  |    |
    ///  ld   add(3)--+
    ///  (2)  |       |
    ///   \   shl(4)  |
    ///    \  /       |
    ///     or(5)    sub(6)
    fn sample() -> (RootedDfg, Vec<NodeId>) {
        let mut b = DfgBuilder::new("bb");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let ld = b.node(Operation::Load, &[i0]);
        let add = b.node(Operation::Add, &[i1]);
        let shl = b.node(Operation::Shl, &[add]);
        let or = b.node(Operation::Or, &[ld, shl]);
        let sub = b.node(Operation::Sub, &[add]);
        b.mark_output(or);
        b.mark_output(sub);
        let rooted = RootedDfg::new(b.build().unwrap());
        (rooted, vec![i0, i1, ld, add, shl, or, sub])
    }

    #[test]
    fn direct_and_transitive_reachability() {
        let (r, n) = sample();
        let reach = Reachability::compute(&r);
        assert!(reach.reaches(n[1], n[5]), "i1 -> add -> shl -> or");
        assert!(reach.reaches(n[3], n[6]));
        assert!(!reach.reaches(n[5], n[3]), "no backwards paths");
        assert!(!reach.reaches(n[0], n[6]));
        assert!(reach.reaches(r.source(), r.sink()));
    }

    #[test]
    fn no_node_reaches_itself_in_a_dag() {
        let (r, _) = sample();
        let reach = Reachability::compute(&r);
        for v in r.node_ids() {
            assert!(!reach.reaches(v, v));
        }
    }

    #[test]
    fn ancestors_mirror_descendants() {
        let (r, _) = sample();
        let reach = Reachability::compute(&r);
        for v in r.node_ids() {
            for w in r.node_ids() {
                assert_eq!(
                    reach.reaches(v, w),
                    reach.ancestors(w).contains(v),
                    "descendants/ancestors disagree for {v}->{w}"
                );
                assert_eq!(reach.reaches(v, w), reach.descendants(v).contains(w));
            }
        }
    }

    #[test]
    fn clean_reaches_requires_a_forbidden_free_path() {
        let (r, n) = sample();
        let reach = Reachability::compute(&r);
        // i0 -> ld -> or: the only path is dirty.
        assert!(!reach.clean_reaches(n[0], n[5]));
        // i1 -> add -> shl -> or: clean.
        assert!(reach.clean_reaches(n[1], n[5]));
        // Direct edges are always clean, even onto or from forbidden vertices.
        assert!(reach.clean_reaches(n[0], n[2]));
        assert!(reach.clean_reaches(n[2], n[5]));
        // Unreachable pairs are never clean.
        assert!(!reach.clean_reaches(n[5], n[6]));
        // Every clean pair is also a reachable pair.
        for v in r.node_ids() {
            for w in r.node_ids() {
                if reach.clean_reaches(v, w) {
                    assert!(reach.reaches(v, w));
                }
            }
        }
    }
}
