//! Dominators of a DAG in one pass over a topological order.
//!
//! On an acyclic flow graph every predecessor of a vertex precedes it in topological
//! order, so the Cooper–Harvey–Kennedy data-flow equation — `idom(v)` is the nearest
//! common ancestor of `v`'s (reachable) predecessors in the dominator tree — is exact
//! after a single sweep: when `v` is visited, every predecessor's place in the tree is
//! final. The
//! nearest common ancestor is found with CHK's two-finger walk, comparing topological
//! ranks (an immediate dominator always has a smaller rank than the vertex it
//! dominates, so walking the finger with the larger rank upwards converges).
//!
//! Data-flow graphs are DAGs, and the dominators of a vertex depend only on its
//! ancestor cone — every root-to-`v` path runs through ancestors of `v` alone. The
//! incremental enumeration (§5.2) exploits both facts: [`ConeDominators`] restricts the
//! pass to the output's ancestor cone minus the current seed, stops at the output, and
//! reads the strict-dominator chain back — the Dubrova completions — with no per-run
//! allocation. [`dag_dominators`] runs the same pass over the whole graph to build a
//! [`DominatorTree`].

use ise_graph::{DenseNodeSet, NodeId, NodeRow, RootedDfg};

use crate::flow::FlowGraph;
use crate::tree::DominatorTree;

/// A topological order of a flow graph together with the rank (position) of every
/// vertex in it — the index space the DAG pass walks and compares in.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::TopoOrder;
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let rooted = RootedDfg::new(b.build()?);
/// let forward = TopoOrder::forward(&rooted);
/// assert!(forward.rank(a) < forward.rank(x));
/// assert_eq!(forward.order()[0], rooted.source());
/// let reverse = TopoOrder::reverse(&rooted);
/// assert!(reverse.rank(x) < reverse.rank(a));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TopoOrder {
    order: Vec<NodeId>,
    rank: Vec<u32>,
}

impl TopoOrder {
    /// Wraps `order`, which must list every vertex of the graph exactly once with each
    /// vertex after all of its predecessors.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn new(order: Vec<NodeId>) -> Self {
        let mut rank = vec![u32::MAX; order.len()];
        for (r, &v) in order.iter().enumerate() {
            assert!(
                rank[v.index()] == u32::MAX,
                "vertex {v} appears twice in the order"
            );
            rank[v.index()] = r as u32;
        }
        TopoOrder { order, rank }
    }

    /// The augmented graph's topological order (source first): the order for
    /// dominators, `Forward(rooted)`.
    pub fn forward(rooted: &RootedDfg) -> Self {
        Self::new(rooted.topological_order().to_vec())
    }

    /// The reverse of [`TopoOrder::forward`] (sink first): the order for
    /// postdominators, `Reverse(rooted)`.
    pub fn reverse(rooted: &RootedDfg) -> Self {
        Self::new(rooted.topological_order().iter().rev().copied().collect())
    }

    /// The vertices in order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The position of `node` in the order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn rank(&self, node: NodeId) -> u32 {
        self.rank[node.index()]
    }
}

/// Reusable state of the DAG pass, indexed by topological rank.
///
/// A vertex's entry is valid only while its stamp equals the current epoch, so a run
/// starts by bumping the epoch instead of clearing anything: after the first run over
/// a graph the pass allocates nothing.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::{ConeDominators, Forward, TopoOrder};
/// use ise_graph::{DfgBuilder, Operation, Reachability, RootedDfg};
///
/// // a -> {u, v} -> m: with u removed, v completes {u} to a dominator of m.
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let u = b.node(Operation::Not, &[a]);
/// let v = b.node(Operation::Shl, &[a]);
/// let m = b.node(Operation::Add, &[u, v]);
/// let rooted = RootedDfg::new(b.build()?);
/// let order = TopoOrder::forward(&rooted);
/// let reach = Reachability::compute(&rooted);
/// let mut excluded = rooted.node_set();
/// excluded.insert(rooted.source());
/// excluded.insert(rooted.sink());
///
/// let mut seed = rooted.node_set();
/// seed.insert(u);
/// let mut ws = ConeDominators::new();
/// let mut out = Vec::new();
/// let g = Forward(&rooted);
/// ws.completions(&g, &order, reach.ancestors(m), &seed, m, &excluded, &mut out);
/// assert_eq!(out, vec![v, a]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ConeDominators {
    epoch: u32,
    /// `stamp[r] == epoch` iff the vertex of rank `r` was reached in the current run.
    stamp: Vec<u32>,
    /// Rank of the immediate dominator of the vertex of rank `r` (the root points at
    /// itself); meaningful only for stamped ranks.
    idom: Vec<u32>,
}

impl ConeDominators {
    /// Creates an empty workspace; buffers are sized on the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a run over a graph of `n` vertices: invalidates every entry by bumping
    /// the epoch, (re)sizing the buffers only when the graph size changed.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.idom.clear();
            self.idom.resize(n, 0);
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn reached(&self, rank: u32) -> bool {
        self.stamp[rank as usize] == self.epoch
    }

    /// The single sweep: visits `order` from the start up to rank `last` inclusive,
    /// skipping vertices `admit` rejects, and assigns each admitted vertex with a
    /// reached predecessor the nearest common dominator of those predecessors. The
    /// root is reached by definition; admitted vertices without reached predecessors
    /// stay unreached.
    fn sweep<G: FlowGraph>(
        &mut self,
        graph: &G,
        order: &TopoOrder,
        last: u32,
        admit: impl Fn(NodeId) -> bool,
    ) {
        let root = graph.root();
        for (r, &v) in order.order()[..=last as usize].iter().enumerate() {
            if !admit(v) {
                continue;
            }
            let r = r as u32;
            if v == root {
                self.stamp[r as usize] = self.epoch;
                self.idom[r as usize] = r;
                continue;
            }
            let mut new_idom = u32::MAX;
            for &p in graph.preds(v) {
                let pr = order.rank(p);
                if !self.reached(pr) {
                    continue;
                }
                debug_assert!(pr < r, "the order is not topological at {v}");
                new_idom = if new_idom == u32::MAX {
                    pr
                } else {
                    self.intersect(pr, new_idom)
                };
            }
            if new_idom != u32::MAX {
                self.stamp[r as usize] = self.epoch;
                self.idom[r as usize] = new_idom;
            }
        }
    }

    /// Cooper–Harvey–Kennedy finger walk: the nearest common ancestor of two reached
    /// ranks in the dominator tree under construction.
    #[inline]
    fn intersect(&self, mut a: u32, mut b: u32) -> u32 {
        while a != b {
            while a > b {
                a = self.idom[a as usize];
            }
            while b > a {
                b = self.idom[b as usize];
            }
        }
        a
    }

    /// The Dubrova completions of `seed` for `target` (§5.2): the vertices `u` such
    /// that `seed ∪ {u}` blocks every root-to-`target` path, i.e. the strict dominators
    /// of `target` once `seed` is deleted from the graph. They are written to `out`
    /// (cleared first) nearest first — the order of the immediate-dominator chain —
    /// skipping members of `excluded` (typically the artificial source and sink).
    /// `out` stays empty when the seed alone cuts `target` off, or when `target` is
    /// itself in `seed`.
    ///
    /// `cone` must contain every ancestor of `target` (a superset is harmless; the
    /// pass admits `target` itself regardless) — typically `target`'s row of
    /// [`ise_graph::Reachability::ancestors`]. Only cone vertices up to `target`'s
    /// rank are visited.
    ///
    /// # Panics
    ///
    /// Panics if `seed` contains the root or any buffer was sized for a different
    /// graph.
    #[allow(clippy::too_many_arguments)]
    pub fn completions<G: FlowGraph>(
        &mut self,
        graph: &G,
        order: &TopoOrder,
        cone: NodeRow<'_>,
        seed: &DenseNodeSet,
        target: NodeId,
        excluded: &DenseNodeSet,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let n = graph.num_nodes();
        assert!(
            order.order().len() == n && cone.capacity() == n && seed.capacity() == n,
            "buffers sized for a different graph"
        );
        assert!(
            !seed.contains(graph.root()),
            "the root of the flow graph cannot be removed"
        );
        self.begin(n);
        let last = order.rank(target);
        self.sweep(graph, order, last, |v| {
            (v == target || cone.contains(v)) && !seed.contains(v)
        });
        if !self.reached(last) {
            return;
        }
        let mut r = last;
        loop {
            let d = self.idom[r as usize];
            if d == r {
                break; // the root
            }
            let node = order.order()[d as usize];
            if !excluded.contains(node) {
                out.push(node);
            }
            r = d;
        }
    }

    /// The whole-graph pass: the dominator tree of the acyclic `graph`, as
    /// [`dag_dominators`] computes it, in this workspace. One workspace can build the
    /// dominator and the postdominator tree of a graph back to back, allocating its
    /// buffers once.
    ///
    /// # Panics
    ///
    /// Panics if `order` was built for a graph of a different size.
    pub fn tree<G: FlowGraph>(&mut self, graph: &G, order: &TopoOrder) -> DominatorTree {
        let n = graph.num_nodes();
        assert_eq!(order.order().len(), n, "order built for a different graph");
        self.begin(n);
        if n > 0 {
            self.sweep(graph, order, (n - 1) as u32, |_| true);
        }
        let mut idom = vec![None; n];
        for (r, &v) in order.order().iter().enumerate() {
            let d = self.idom[r] as usize;
            if self.reached(r as u32) && d != r {
                idom[v.index()] = Some(order.order()[d]);
            }
        }
        DominatorTree::from_idoms(graph.root(), idom)
    }
}

/// Computes the dominator tree of an acyclic `graph` in one pass over `order`, which
/// must be a topological order of `graph` as seen from its root (for `Reverse` views,
/// the reverse of the data-flow order).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_dominators::{dag_dominators, Forward, Reverse, TopoOrder};
/// use ise_graph::{DfgBuilder, Operation, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let y = b.node(Operation::Add, &[x, a]);
/// let rooted = RootedDfg::new(b.build()?);
/// let dom = dag_dominators(&Forward(&rooted), &TopoOrder::forward(&rooted));
/// assert_eq!(dom.idom(y), Some(a));
/// let pdom = dag_dominators(&Reverse(&rooted), &TopoOrder::reverse(&rooted));
/// assert_eq!(pdom.idom(a), Some(y));
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `order` was built for a graph of a different size.
pub fn dag_dominators<G: FlowGraph>(graph: &G, order: &TopoOrder) -> DominatorTree {
    ConeDominators::new().tree(graph, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Forward, Reverse};
    use crate::lt::{lengauer_tarjan, lengauer_tarjan_reduced};
    use ise_graph::{Dfg, DfgBuilder, Operation, Reachability};

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

    fn diamond() -> (RootedDfg, [NodeId; 5]) {
        let mut b = DfgBuilder::new("diamond");
        let a = b.input("a");
        let l = b.node(Operation::Shl, &[a]);
        let r = b.node(Operation::Shr, &[a]);
        let m = b.node(Operation::Add, &[l, r]);
        let t = b.node(Operation::Not, &[m]);
        (RootedDfg::new(b.build().unwrap()), [a, l, r, m, t])
    }

    fn excluded_for(rooted: &RootedDfg) -> DenseNodeSet {
        let mut e = rooted.node_set();
        e.insert(rooted.source());
        e.insert(rooted.sink());
        e
    }

    /// Random DAG whose vertex ids are *not* topologically ordered (edges run from
    /// higher to lower ids as often as not), so the pass cannot lean on id order.
    fn scrambled_dag(next: &mut impl FnMut() -> u64, case: usize) -> RootedDfg {
        let n = 3 + (next() % 30) as usize;
        // A random permutation maps topological position -> vertex id.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut ops = vec![Operation::Add; n];
        let mut edges = Vec::new();
        for pos in 0..n {
            if pos == 0 || next() % 5 == 0 {
                ops[ids[pos]] = Operation::Input;
                continue;
            }
            let npreds = 1 + (next() % 3) as usize;
            let mut used = Vec::new();
            for _ in 0..npreds {
                let p = ids[(next() % pos as u64) as usize];
                if !used.contains(&p) {
                    used.push(p);
                    edges.push((NodeId::from_index(p), NodeId::from_index(ids[pos])));
                }
            }
        }
        let dfg = Dfg::from_edges(format!("scrambled{case}"), ops, edges, [], []).unwrap();
        RootedDfg::new(dfg)
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The strict-dominator chain of `target` in the graph with `seed` removed, from
    /// Lengauer–Tarjan, nearest first, without `excluded` vertices.
    fn lt_chain(
        rooted: &RootedDfg,
        seed: &DenseNodeSet,
        target: NodeId,
        excluded: &DenseNodeSet,
    ) -> Vec<NodeId> {
        lengauer_tarjan_reduced(&Forward(rooted), seed)
            .strict_dominators(target)
            .filter(|&d| !excluded.contains(d))
            .collect()
    }

    #[test]
    fn diamond_dominators_and_postdominators() {
        let (g, [a, l, r, m, t]) = diamond();
        let dom = dag_dominators(&Forward(&g), &TopoOrder::forward(&g));
        assert_eq!(dom.idom(a), Some(g.source()));
        assert_eq!(dom.idom(l), Some(a));
        assert_eq!(dom.idom(r), Some(a));
        assert_eq!(dom.idom(m), Some(a), "join point is dominated by the fork");
        assert_eq!(dom.idom(t), Some(m));
        let pdom = dag_dominators(&Reverse(&g), &TopoOrder::reverse(&g));
        assert_eq!(pdom.idom(a), Some(m));
        assert_eq!(pdom.idom(l), Some(m));
        assert_eq!(pdom.idom(m), Some(t));
        assert_eq!(pdom.idom(t), Some(g.sink()));
    }

    #[test]
    fn whole_graph_pass_matches_lengauer_tarjan_on_scrambled_dags() {
        let mut next = xorshift(0x1234_5678);
        for case in 0..60 {
            let rooted = scrambled_dag(&mut next, case);
            let pairs = [
                (
                    lengauer_tarjan(&Forward(&rooted)),
                    dag_dominators(&Forward(&rooted), &TopoOrder::forward(&rooted)),
                ),
                (
                    lengauer_tarjan(&Reverse(&rooted)),
                    dag_dominators(&Reverse(&rooted), &TopoOrder::reverse(&rooted)),
                ),
            ];
            for (direction, (lt, dag)) in pairs.iter().enumerate() {
                for v in rooted.node_ids() {
                    assert_eq!(
                        lt.idom(v),
                        dag.idom(v),
                        "case {case}, direction {direction}, node {v}"
                    );
                    assert_eq!(lt.is_reachable(v), dag.is_reachable(v));
                }
            }
        }
    }

    #[test]
    fn completions_extend_a_seed_to_a_dominating_set() {
        let (r, [a, b, _c, n, x, _y]) = figure1();
        let order = TopoOrder::forward(&r);
        let reach = Reachability::compute(&r);
        let excluded = excluded_for(&r);
        let g = Forward(&r);
        let mut ws = ConeDominators::new();
        let mut out = Vec::new();

        // Empty seed: the only single-vertex dominator of X is the excluded source.
        let empty = r.node_set();
        ws.completions(
            &g,
            &order,
            reach.ancestors(x),
            &empty,
            x,
            &excluded,
            &mut out,
        );
        assert!(out.is_empty());

        // Seed {B}: X is reached only through A -> N, nearest first.
        let mut seed = r.node_set();
        seed.insert(b);
        ws.completions(
            &g,
            &order,
            reach.ancestors(x),
            &seed,
            x,
            &excluded,
            &mut out,
        );
        assert_eq!(out, vec![n, a]);

        // Seed {A, B} cuts X off entirely.
        seed.insert(a);
        ws.completions(
            &g,
            &order,
            reach.ancestors(x),
            &seed,
            x,
            &excluded,
            &mut out,
        );
        assert!(out.is_empty());

        // A target inside the seed has no completions.
        ws.completions(
            &g,
            &order,
            reach.ancestors(a),
            &seed,
            a,
            &excluded,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn reused_workspace_matches_lengauer_tarjan_for_every_seed_and_target() {
        let mut next = xorshift(0x9e37_79b9);
        let mut ws = ConeDominators::new();
        let mut out = vec![NodeId::new(99)]; // stale content must be cleared
        for case in 0..40 {
            // One workspace across graphs of different sizes: resizing must not leak.
            let rooted = scrambled_dag(&mut next, case);
            let order = TopoOrder::forward(&rooted);
            let reach = Reachability::compute(&rooted);
            let excluded = excluded_for(&rooted);
            let g = Forward(&rooted);
            for _ in 0..4 {
                let mut seed = rooted.node_set();
                for v in rooted.original_node_ids() {
                    if next() % 4 == 0 {
                        seed.insert(v);
                    }
                }
                for target in rooted.node_ids() {
                    let cone = reach.ancestors(target);
                    ws.completions(&g, &order, cone, &seed, target, &excluded, &mut out);
                    assert_eq!(
                        out,
                        lt_chain(&rooted, &seed, target, &excluded),
                        "case {case}, target {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_wraparound_invalidates_stale_stamps() {
        let (r, [_, b, _, n, x, _]) = figure1();
        let order = TopoOrder::forward(&r);
        let reach = Reachability::compute(&r);
        let excluded = excluded_for(&r);
        let g = Forward(&r);
        let mut ws = ConeDominators::new();
        let mut out = Vec::new();
        let empty = r.node_set();
        ws.completions(
            &g,
            &order,
            reach.ancestors(n),
            &empty,
            n,
            &excluded,
            &mut out,
        );
        // Force the next run onto the wrapping path with stale stamps still equal to
        // the epoch it will land on after the reset.
        ws.epoch = u32::MAX;
        ws.stamp.fill(1);
        let mut seed = r.node_set();
        seed.insert(b);
        ws.completions(
            &g,
            &order,
            reach.ancestors(x),
            &seed,
            x,
            &excluded,
            &mut out,
        );
        assert_eq!(out, lt_chain(&r, &seed, x, &excluded));
    }

    #[test]
    #[should_panic(expected = "root of the flow graph cannot be removed")]
    fn removing_the_root_panics() {
        let (r, [_, _, _, _, x, _]) = figure1();
        let reach = Reachability::compute(&r);
        let mut seed = r.node_set();
        seed.insert(r.source());
        ConeDominators::new().completions(
            &Forward(&r),
            &TopoOrder::forward(&r),
            reach.ancestors(x),
            &seed,
            x,
            &r.node_set(),
            &mut Vec::new(),
        );
    }
}
