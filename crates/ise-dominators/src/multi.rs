//! Generalized (multiple-vertex) dominators.
//!
//! A set of vertices `V` *dominates* a vertex `v` of a rooted graph (Definition 5 of the
//! paper, following Gupta) iff
//!
//! 1. every path from the root to `v` contains at least one vertex of `V`, and
//! 2. for each `w ∈ V` there is at least one path from the root to `v` that contains `w`
//!    but no other vertex of `V`.
//!
//! Theorem 1 of the paper states that the inputs-to-an-output of a convex cut form a
//! generalized dominator of that output, which is what makes the polynomial enumeration
//! possible. This module provides:
//!
//! * [`is_generalized_dominator`] — a direct check of the two conditions, used as the
//!   specification in tests and to filter candidate sets;
//! * [`enumerate_generalized_dominators`] — polynomial enumeration of every generalized
//!   dominator of a vertex up to a given cardinality, `O(n^(k-1))` invocations of
//!   Lengauer–Tarjan. It is the reference the `basic` enumerator is built on; the
//!   incremental engine computes the same Dubrova completions with
//!   [`crate::ConeDominators`] instead.

use std::collections::HashSet;

use ise_graph::{DenseNodeSet, NodeId};

use crate::flow::FlowGraph;
use crate::lt::LtWorkspace;

/// Checks whether `set` is a generalized dominator of `target` (Definition 5).
///
/// The check is performed directly from the definition with one restricted graph
/// traversal per condition, costing `O(|set| · e)` time. The empty set and any set
/// containing `target` itself are never dominators.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::multi::is_generalized_dominator;
/// use ise_dominators::Forward;
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let rooted = RootedDfg::new(b.build()?);
///
/// assert!(is_generalized_dominator(&Forward(&rooted), &[a, c], n));
/// assert!(!is_generalized_dominator(&Forward(&rooted), &[a], n));
/// # Ok(())
/// # }
/// ```
pub fn is_generalized_dominator<G: FlowGraph>(graph: &G, set: &[NodeId], target: NodeId) -> bool {
    if set.is_empty() || set.contains(&target) {
        return false;
    }
    let n = graph.num_nodes();
    let root = graph.root();
    let members = DenseNodeSet::from_nodes(n, set.iter().copied());

    // Condition 1: no path root -> target avoids the set.
    if !members.contains(root) && reaches_avoiding(graph, root, target, &members) {
        return false;
    }

    // Condition 2: each member is the only set vertex on some root -> target path.
    for &w in set {
        let mut others = members.clone();
        others.remove(w);
        let to_w = w == root || reaches_avoiding(graph, root, w, &others);
        if !to_w {
            return false;
        }
        if w != target && !reaches_avoiding(graph, w, target, &others) {
            return false;
        }
    }
    true
}

/// Enumerates every generalized dominator of `target` with at most `max_size` vertices,
/// excluding sets that use any vertex in `excluded` as an element.
///
/// The enumeration follows Dubrova et al.: seed sets of up to `max_size - 1` ancestors
/// of `target` are removed from the graph, and the single-vertex dominators of `target`
/// in each reduced graph complete them. Every candidate is validated against
/// [`is_generalized_dominator`], so the result contains exactly the sets that satisfy
/// both conditions of Definition 5, each reported once in sorted vertex order.
///
/// The worst-case cost is `O(n^(max_size - 1))` dominator-tree computations, which is
/// the polynomial bound the paper relies on.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::multi::enumerate_generalized_dominators;
/// use ise_dominators::Forward;
/// use ise_graph::{DenseNodeSet, DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let rooted = RootedDfg::new(b.build()?);
/// let mut excluded = rooted.node_set();
/// excluded.insert(rooted.source());
/// excluded.insert(rooted.sink());
///
/// let doms = enumerate_generalized_dominators(&Forward(&rooted), n, 2, &excluded);
/// assert_eq!(doms, vec![vec![a, c]]);
/// # Ok(())
/// # }
/// ```
pub fn enumerate_generalized_dominators<G: FlowGraph>(
    graph: &G,
    target: NodeId,
    max_size: usize,
    excluded: &DenseNodeSet,
) -> Vec<Vec<NodeId>> {
    if max_size == 0 {
        return Vec::new();
    }
    let n = graph.num_nodes();
    let root = graph.root();

    // Candidate seed elements: ancestors of the target (only they can lie on a
    // root -> target path), excluding the target, the root and the excluded set.
    let ancestors = ancestors_of(graph, target);
    let candidates: Vec<NodeId> = ancestors
        .iter()
        .filter(|&a| a != target && a != root && !excluded.contains(a))
        .collect();

    let mut search = GenDomSearch {
        graph,
        target,
        max_size,
        excluded,
        candidates: &candidates,
        seed: Vec::new(),
        seed_set: DenseNodeSet::new(n),
        ws: LtWorkspace::new(),
        chain_pool: Vec::new(),
        seen: HashSet::new(),
        result: Vec::new(),
    };
    search.recurse(0);
    let mut result = search.result;
    result.sort();
    result
}

/// Recursive exploration of seed subsets in increasing candidate order, shared
/// between the recursion levels of [`enumerate_generalized_dominators`].
struct GenDomSearch<'a, G: FlowGraph> {
    graph: &'a G,
    target: NodeId,
    max_size: usize,
    excluded: &'a DenseNodeSet,
    candidates: &'a [NodeId],
    seed: Vec<NodeId>,
    seed_set: DenseNodeSet,
    /// Reused Lengauer–Tarjan scratch, so the per-seed dominator runs stop allocating.
    ws: LtWorkspace,
    /// Reusable completion buffers, one per active recursion depth (the workspace is
    /// overwritten by recursive calls, so each level collects its chain first).
    chain_pool: Vec<Vec<NodeId>>,
    seen: HashSet<Vec<NodeId>>,
    result: Vec<Vec<NodeId>>,
}

impl<G: FlowGraph> GenDomSearch<'_, G> {
    /// Records `candidate` (sorted) if it is a not-yet-seen generalized dominator.
    fn record_if_dominator(&mut self, mut candidate: Vec<NodeId>) {
        candidate.sort_unstable();
        if !self.seen.contains(&candidate)
            && is_generalized_dominator(self.graph, &candidate, self.target)
        {
            self.seen.insert(candidate.clone());
            self.result.push(candidate);
        }
    }

    fn recurse(&mut self, start: usize) {
        self.ws.run_reduced(self.graph, &self.seed_set);
        if self.ws.is_reachable(self.target) {
            // Collect the filtered dominator chain of the target before recursing —
            // the recursive calls overwrite the workspace. The buffer comes from the
            // per-depth pool, so steady-state recursion performs no allocations.
            let mut completions = self.chain_pool.pop().unwrap_or_default();
            let mut v = self.target;
            while let Some(d) = self.ws.idom(v) {
                if !self.excluded.contains(d) && !self.seed_set.contains(d) {
                    completions.push(d);
                }
                v = d;
            }
            for &d in &completions {
                let mut candidate = self.seed.clone();
                candidate.push(d);
                self.record_if_dominator(candidate);
            }
            completions.clear();
            self.chain_pool.push(completions);
        } else {
            // The seed alone blocks every path: it may itself be a dominator, and no
            // superset can satisfy condition 2 for the added vertex, so stop here.
            if !self.seed.is_empty() {
                let candidate = self.seed.clone();
                self.record_if_dominator(candidate);
            }
            return;
        }
        if self.seed.len() + 1 < self.max_size {
            for idx in start..self.candidates.len() {
                let a = self.candidates[idx];
                self.seed.push(a);
                self.seed_set.insert(a);
                self.recurse(idx + 1);
                self.seed.pop();
                self.seed_set.remove(a);
            }
        }
    }
}

/// Vertices from which `target` is reachable (including `target` itself).
fn ancestors_of<G: FlowGraph>(graph: &G, target: NodeId) -> DenseNodeSet {
    let mut set = DenseNodeSet::new(graph.num_nodes());
    let mut stack = vec![target];
    set.insert(target);
    while let Some(v) = stack.pop() {
        for &p in graph.preds(v) {
            if set.insert(p) {
                stack.push(p);
            }
        }
    }
    set
}

/// Whether `to` is reachable from `from` without entering any vertex of `blocked`
/// (endpoints themselves are allowed to be in `blocked` only as `from`).
fn reaches_avoiding<G: FlowGraph>(
    graph: &G,
    from: NodeId,
    to: NodeId,
    blocked: &DenseNodeSet,
) -> bool {
    if from == to {
        return true;
    }
    let mut visited = DenseNodeSet::new(graph.num_nodes());
    visited.insert(from);
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        for &s in graph.succs(v) {
            if s == to {
                return true;
            }
            if !blocked.contains(s) && visited.insert(s) {
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Forward;
    use ise_graph::{DfgBuilder, Operation, RootedDfg};

    /// The Figure 1 graph of the paper: roots A, B, C; N = f(A,B); X = f(N,B);
    /// Y = f(N,C).
    fn figure1() -> (RootedDfg, [NodeId; 6]) {
        let mut b = DfgBuilder::new("figure1");
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.input("C");
        let nn = b.named_node(Operation::Add, &[a, bb], Some("N"));
        let x = b.named_node(Operation::Mul, &[nn, bb], Some("X"));
        let y = b.named_node(Operation::Sub, &[nn, c], Some("Y"));
        b.mark_output(x);
        b.mark_output(y);
        let rooted = RootedDfg::new(b.build().unwrap());
        (rooted, [a, bb, c, nn, x, y])
    }

    fn excluded_for(rooted: &RootedDfg) -> DenseNodeSet {
        let mut e = rooted.node_set();
        e.insert(rooted.source());
        e.insert(rooted.sink());
        e
    }

    #[test]
    fn definition_check_on_figure1() {
        let (r, [a, b, c, n, x, y]) = figure1();
        let g = Forward(&r);
        // In this reconstruction of Figure 1, every root-to-Y path goes through either
        // N or C, so {N, C} dominates Y; B only reaches Y through N, so adding B
        // violates condition 2.
        assert!(is_generalized_dominator(&g, &[n, c], y));
        assert!(!is_generalized_dominator(&g, &[n, b, c], y));
        assert!(is_generalized_dominator(&g, &[a, b, c], y));
        assert!(!is_generalized_dominator(&g, &[n], y));
        assert!(!is_generalized_dominator(&g, &[c], y));
        // X is dominated by {A, B} (Figure 1(d)) and by {N, B}.
        assert!(is_generalized_dominator(&g, &[a, b], x));
        assert!(is_generalized_dominator(&g, &[n, b], x));
        assert!(!is_generalized_dominator(&g, &[a], x));
    }

    #[test]
    fn empty_set_and_target_itself_are_not_dominators() {
        let (r, [_, _, _, n, x, _]) = figure1();
        let g = Forward(&r);
        assert!(!is_generalized_dominator(&g, &[], x));
        assert!(!is_generalized_dominator(&g, &[x], x));
        assert!(!is_generalized_dominator(&g, &[n, x], x));
    }

    #[test]
    fn source_alone_dominates_everything() {
        let (r, [_, _, _, _, x, _]) = figure1();
        let g = Forward(&r);
        assert!(is_generalized_dominator(&g, &[r.source()], x));
    }

    #[test]
    fn redundant_vertices_violate_condition_two() {
        let (r, [a, b, _, n, x, _]) = figure1();
        let g = Forward(&r);
        // {A, B} dominates X; N is redundant on every path (all X-paths through N also
        // pass A or B).
        assert!(!is_generalized_dominator(&g, &[a, b, n], x));
    }

    #[test]
    fn enumeration_matches_brute_force_on_figure1() {
        let (r, nodes) = figure1();
        let g = Forward(&r);
        let excluded = excluded_for(&r);
        for &target in &nodes[3..] {
            for k in 1..=3usize {
                let enumerated = enumerate_generalized_dominators(&g, target, k, &excluded);
                let brute = brute_force(&g, target, k, &excluded);
                assert_eq!(enumerated, brute, "target {target}, k {k}");
            }
        }
    }

    #[test]
    fn enumeration_on_figure1_output_x() {
        let (r, [a, b, _c, n, x, _y]) = figure1();
        let g = Forward(&r);
        let excluded = excluded_for(&r);
        let doms = enumerate_generalized_dominators(&g, x, 2, &excluded);
        assert_eq!(doms, vec![vec![a, b], vec![b, n]]);
    }

    #[test]
    fn enumeration_respects_max_size() {
        let (r, [_, _, _, _, _, y]) = figure1();
        let g = Forward(&r);
        let excluded = excluded_for(&r);
        let singles = enumerate_generalized_dominators(&g, y, 1, &excluded);
        assert!(
            singles.is_empty(),
            "Y has no single-vertex dominator besides the source"
        );
        let pairs = enumerate_generalized_dominators(&g, y, 2, &excluded);
        assert!(pairs.iter().all(|d| d.len() <= 2));
        assert!(pairs.contains(&vec![NodeId::new(2), NodeId::new(3)])); // {C, N}
    }

    #[test]
    fn enumeration_matches_brute_force_on_random_dags() {
        let mut state = 0xdead_beef_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..25 {
            let n = 5 + (next() % 8) as usize;
            let mut b = DfgBuilder::new(format!("rand{case}"));
            let mut ids = vec![b.input("i0"), b.input("i1")];
            for i in 2..n {
                let mut preds = Vec::new();
                let npreds = 1 + (next() % 2) as usize;
                for _ in 0..npreds {
                    preds.push(ids[(next() % i as u64) as usize]);
                }
                preds.dedup();
                ids.push(b.node(Operation::Add, &preds));
            }
            let rooted = RootedDfg::new(b.build().unwrap());
            let g = Forward(&rooted);
            let excluded = excluded_for(&rooted);
            let target = ids[n - 1];
            for k in 1..=3usize {
                let enumerated = enumerate_generalized_dominators(&g, target, k, &excluded);
                let brute = brute_force(&g, target, k, &excluded);
                assert_eq!(enumerated, brute, "case {case}, target {target}, k {k}");
            }
        }
    }

    /// Brute-force enumeration straight from Definition 5, for cross-checking.
    fn brute_force<G: FlowGraph>(
        graph: &G,
        target: NodeId,
        max_size: usize,
        excluded: &DenseNodeSet,
    ) -> Vec<Vec<NodeId>> {
        let candidates: Vec<NodeId> = (0..graph.num_nodes())
            .map(NodeId::from_index)
            .filter(|&v| v != target && !excluded.contains(v))
            .collect();
        let mut result = Vec::new();
        let mut chosen = Vec::new();
        fn go<G: FlowGraph>(
            graph: &G,
            target: NodeId,
            max_size: usize,
            candidates: &[NodeId],
            start: usize,
            chosen: &mut Vec<NodeId>,
            result: &mut Vec<Vec<NodeId>>,
        ) {
            if !chosen.is_empty() && is_generalized_dominator(graph, chosen, target) {
                result.push(chosen.clone());
            }
            if chosen.len() < max_size {
                for i in start..candidates.len() {
                    chosen.push(candidates[i]);
                    go(graph, target, max_size, candidates, i + 1, chosen, result);
                    chosen.pop();
                }
            }
        }
        go(
            graph,
            target,
            max_size,
            &candidates,
            0,
            &mut chosen,
            &mut result,
        );
        result.sort();
        result
    }
}
