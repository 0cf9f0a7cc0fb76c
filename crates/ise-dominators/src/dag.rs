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
//! allocation. Its passes form a stack of per-seed levels: when the seed grows by one
//! vertex, the new level copies its parent and re-sweeps only that vertex's
//! descendants, the only vertices whose ancestors lost a member. [`dag_dominators`]
//! runs the same pass over the whole graph to build a [`DominatorTree`].

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
        Self::new(rooted.topological_order().collect())
    }

    /// The reverse of [`TopoOrder::forward`] (sink first): the order for
    /// postdominators, `Reverse(rooted)`.
    pub fn reverse(rooted: &RootedDfg) -> Self {
        Self::new(rooted.topological_order().rev().collect())
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

/// The idom entry of a vertex a pass did not reach: outside the cone, in the seed, or
/// cut off by it.
const UNREACHED: u32 = u32::MAX;

/// One level of the [`ConeDominators`] stack: the rank-indexed idom array of one pass,
/// `idom[start..=start + last]`, where `last` is the rank of the pass's target.
#[derive(Clone, Copy, Debug)]
struct Level {
    start: usize,
    last: u32,
}

/// Reusable state of the DAG pass: a stack of per-seed *levels*, each the
/// rank-indexed immediate-dominator array of one pass over ranks `0..=rank(target)`,
/// with a sentinel marking the vertices the pass did not reach.
///
/// The incremental enumeration grows its seed one vertex at a time, and on a DAG a
/// vertex's dominators depend only on its ancestors, so deleting one more vertex
/// `added` changes no root-to-`v` path for any `v` outside `added`'s descendants.
/// [`ConeDominators::push_grown`] therefore copies the parent level and re-runs the
/// Cooper–Harvey–Kennedy meet only for the cone vertices that descend from `added`;
/// [`ConeDominators::push`] runs a fresh pass. Levels are read through
/// [`ConeDominators::chain`] and [`ConeDominators::reached`] and discarded in LIFO
/// order; the buffers keep their capacity, so a warmed-up workspace allocates nothing.
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
/// ws.push(&g, &order, reach.ancestors(m), &seed, m);
/// ws.chain(&order, &excluded, &mut out);
/// assert_eq!(out, vec![v, a]);
/// assert!(ws.reached(&order, v));
///
/// // Growing the seed by v re-sweeps only v's descendants: m is cut off.
/// seed.insert(v);
/// ws.push_grown(&g, &order, reach.ancestors(m), reach.descendants(v), &seed, v);
/// assert!(!ws.reached(&order, m));
/// ws.pop();
/// ws.pop();
/// assert_eq!(ws.depth(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ConeDominators {
    /// The levels' idom arrays back to back: entry `r` of a level is the rank of the
    /// immediate dominator of the vertex of rank `r` (the root points at itself), or
    /// [`UNREACHED`].
    idom: Vec<u32>,
    levels: Vec<Level>,
    /// Scratch: the ranks a grown pass re-sweeps, ascending.
    ranks: Vec<u32>,
    /// Vertices the passes ran the meet for since the last
    /// [`ConeDominators::take_vertices_met`].
    met: u64,
}

impl ConeDominators {
    /// Creates an empty workspace; buffers grow on the first passes.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many levels are on the stack.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Pops levels until `depth` remain (none if `depth` is not below the current
    /// depth).
    pub fn truncate(&mut self, depth: usize) {
        if depth < self.levels.len() {
            self.idom.truncate(self.levels[depth].start);
            self.levels.truncate(depth);
        }
    }

    /// Discards the top level.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pop(&mut self) {
        let level = self.levels.pop().expect("pop on an empty level stack");
        self.idom.truncate(level.start);
    }

    /// How many vertices the fresh and grown passes visited (ran the meet for) since
    /// the previous call, which resets the count.
    pub fn take_vertices_met(&mut self) -> u64 {
        std::mem::take(&mut self.met)
    }

    /// The top level and its idom array.
    fn top(&self) -> (Level, &[u32]) {
        let level = *self.levels.last().expect("no level on the stack");
        (level, &self.idom[level.start..])
    }

    /// Pushes a level over ranks `0..=last` with every entry [`UNREACHED`], ready
    /// for a fresh sweep.
    fn push_unreached(&mut self, last: u32) -> usize {
        let start = self.idom.len();
        self.idom.resize(start + last as usize + 1, UNREACHED);
        self.levels.push(Level { start, last });
        start
    }

    /// Pushes the cone pass of `target` with `seed` deleted: a sweep, in rank order,
    /// of only `target` and the `cone` vertices outside `seed`.
    /// `cone` must contain every ancestor of `target` (a superset is harmless) —
    /// typically `target`'s row of [`ise_graph::Reachability::ancestors`].
    ///
    /// # Panics
    ///
    /// Panics if `seed` contains the root or any buffer was sized for a different
    /// graph.
    pub fn push<G: FlowGraph>(
        &mut self,
        graph: &G,
        order: &TopoOrder,
        cone: NodeRow<'_>,
        seed: &DenseNodeSet,
        target: NodeId,
    ) {
        let n = graph.num_nodes();
        assert!(
            order.order().len() == n && cone.capacity() == n && seed.capacity() == n,
            "buffers sized for a different graph"
        );
        assert!(
            !seed.contains(graph.root()),
            "the root of the flow graph cannot be removed"
        );
        // A fresh cone is large, so a scan of the ranks beats gathering and sorting
        // its members (a grown pass re-sweeps few vertices and gathers them).
        let last = order.rank(target);
        let admitted = (0..=last).filter(|&r| {
            let v = order.order()[r as usize];
            (v == target || cone.contains(v)) && !seed.contains(v)
        });
        let start = self.push_unreached(last);
        self.met += sweep(&mut self.idom[start..], graph, order, admitted);
    }

    /// Pushes the pass of the top level's target with its seed grown by `added`:
    /// copies the top level, marks `added` unreached, and re-runs the meet only for
    /// the admitted vertices (`cone` or the target, outside `seed`) that rank above
    /// `added` and lie in `descendants`. Every other vertex's ancestors — and with
    /// them its dominators — are untouched by deleting `added`, so the level equals a
    /// fresh [`ConeDominators::push`] of `seed` (debug builds assert this).
    ///
    /// `cone` must be the row the top level was pushed with, `seed` the top level's
    /// seed plus `added`, and `descendants` must contain every descendant of `added`
    /// (typically its row of [`ise_graph::Reachability::descendants`]).
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty or a buffer was sized for a different graph.
    pub fn push_grown<G: FlowGraph>(
        &mut self,
        graph: &G,
        order: &TopoOrder,
        cone: NodeRow<'_>,
        descendants: NodeRow<'_>,
        seed: &DenseNodeSet,
        added: NodeId,
    ) {
        let n = graph.num_nodes();
        assert!(
            order.order().len() == n
                && cone.capacity() == n
                && descendants.capacity() == n
                && seed.capacity() == n,
            "buffers sized for a different graph"
        );
        debug_assert!(seed.contains(added), "the grown seed must contain {added}");
        let (parent, _) = self.top();
        let last = parent.last;
        let start = self.idom.len();
        self.idom
            .extend_from_within(parent.start..=parent.start + last as usize);
        self.levels.push(Level { start, last });
        let ra = order.rank(added);
        if ra <= last {
            let target = order.order()[last as usize];
            let words = descendants
                .words()
                .iter()
                .zip(cone.words())
                .zip(seed.words());
            let admitted = words
                .enumerate()
                .map(|(w, ((&d, &c), &s))| d & (c | target_bit(w, target)) & !s);
            collect_ranks(&mut self.ranks, order, admitted, last);
            let level = &mut self.idom[start..];
            level[ra as usize] = UNREACHED;
            self.met += sweep(level, graph, order, self.ranks.iter().copied());
        }
        #[cfg(debug_assertions)]
        {
            let met = self.met;
            self.push(graph, order, cone, seed, order.order()[last as usize]);
            self.met = met;
            let fresh = self.levels.pop().expect("the fresh level was just pushed");
            debug_assert!(
                self.idom[start..fresh.start] == self.idom[fresh.start..],
                "the grown level differs from a fresh pass of the same seed (added {added})"
            );
            self.idom.truncate(fresh.start);
        }
    }

    /// Whether the top level's pass reached `v`: some root-to-`v` path avoids the
    /// seed within the cone. For `v` in the cone this is exactly "the seed does not
    /// dominate `v`", since the cone holds every ancestor of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn reached(&self, order: &TopoOrder, v: NodeId) -> bool {
        let (level, idom) = self.top();
        let r = order.rank(v);
        r <= level.last && idom[r as usize] != UNREACHED
    }

    /// The top level's strict-dominator chain of its target, nearest first, without
    /// members of `excluded` (typically the artificial source and sink), written to
    /// `out` (cleared first). `out` stays empty when the target was not reached.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn chain(&self, order: &TopoOrder, excluded: &DenseNodeSet, out: &mut Vec<NodeId>) {
        out.clear();
        let (level, idom) = self.top();
        let mut r = level.last;
        if idom[r as usize] == UNREACHED {
            return;
        }
        loop {
            let d = idom[r as usize];
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

    /// The whole-graph pass behind [`dag_dominators`]: the dominator tree of the
    /// acyclic `graph`, in this workspace.
    fn tree<G: FlowGraph>(&mut self, graph: &G, order: &TopoOrder) -> DominatorTree {
        let n = graph.num_nodes();
        assert_eq!(order.order().len(), n, "order built for a different graph");
        let mut idom = vec![None; n];
        if n > 0 {
            let last = (n - 1) as u32;
            let start = self.push_unreached(last);
            self.met += sweep(&mut self.idom[start..], graph, order, 0..=last);
            let (_, level) = self.top();
            for (r, &v) in order.order().iter().enumerate() {
                let d = level[r];
                if d != UNREACHED && d as usize != r {
                    idom[v.index()] = Some(order.order()[d as usize]);
                }
            }
            self.pop();
        }
        DominatorTree::from_idoms(graph.root(), idom)
    }
}

/// The word of a node set's bit representation that holds only `target`, if `target`
/// falls in word `w`.
#[inline]
fn target_bit(w: usize, target: NodeId) -> u64 {
    if target.index() / 64 == w {
        1 << (target.index() % 64)
    } else {
        0
    }
}

/// Writes to `ranks` (cleared first), ascending, the ranks up to `last` of the
/// members of the node set given by its 64-bit words, low indices first.
fn collect_ranks(
    ranks: &mut Vec<u32>,
    order: &TopoOrder,
    words: impl Iterator<Item = u64>,
    last: u32,
) {
    ranks.clear();
    for (w, mut bits) in words.enumerate() {
        while bits != 0 {
            let v = NodeId::from_index(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
            let r = order.rank(v);
            if r <= last {
                ranks.push(r);
            }
        }
    }
    ranks.sort_unstable();
}

/// The sweep every pass shares: visits `ranks`, which must ascend, and sets each
/// vertex's `level` entry — the root points at itself, any other vertex gets the
/// [`meet`] of its predecessors. Returns how many vertices it visited.
fn sweep<G: FlowGraph>(
    level: &mut [u32],
    graph: &G,
    order: &TopoOrder,
    ranks: impl IntoIterator<Item = u32>,
) -> u64 {
    let root = graph.root();
    let mut met = 0;
    for r in ranks {
        let v = order.order()[r as usize];
        level[r as usize] = if v == root {
            r
        } else {
            meet(level, graph, order, v)
        };
        met += 1;
    }
    met
}

/// The Cooper–Harvey–Kennedy meet, shared by every pass: the nearest common dominator
/// of `v`'s reached predecessors in the level under construction, or [`UNREACHED`]
/// when none is reached. On a DAG every predecessor ranks below `v`, so its entry is
/// final when `v` is visited.
#[inline]
fn meet<G: FlowGraph>(level: &[u32], graph: &G, order: &TopoOrder, v: NodeId) -> u32 {
    let mut new_idom = UNREACHED;
    for &p in graph.preds(v) {
        let pr = order.rank(p);
        debug_assert!(pr < order.rank(v), "the order is not topological at {v}");
        if level[pr as usize] == UNREACHED {
            continue;
        }
        new_idom = if new_idom == UNREACHED {
            pr
        } else {
            intersect(level, pr, new_idom)
        };
    }
    new_idom
}

/// CHK's two-finger walk: the nearest common ancestor of two reached ranks in the
/// dominator tree under construction.
#[inline]
fn intersect(level: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = level[a as usize];
        }
        while b > a {
            b = level[b as usize];
        }
    }
    a
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

    /// One cone pass read as its Dubrova completions: push, chain, pop.
    #[allow(clippy::too_many_arguments)]
    fn completions<G: FlowGraph>(
        ws: &mut ConeDominators,
        graph: &G,
        order: &TopoOrder,
        cone: NodeRow<'_>,
        seed: &DenseNodeSet,
        target: NodeId,
        excluded: &DenseNodeSet,
        out: &mut Vec<NodeId>,
    ) {
        ws.push(graph, order, cone, seed, target);
        ws.chain(order, excluded, out);
        ws.pop();
    }

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
        completions(
            &mut ws,
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
        completions(
            &mut ws,
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
        completions(
            &mut ws,
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
        completions(
            &mut ws,
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
                    completions(
                        &mut ws, &g, &order, cone, &seed, target, &excluded, &mut out,
                    );
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
    fn grown_levels_stack_and_pop_in_lifo_order() {
        let (r, [a, b, _c, n, x, _y]) = figure1();
        let order = TopoOrder::forward(&r);
        let reach = Reachability::compute(&r);
        let excluded = excluded_for(&r);
        let g = Forward(&r);
        let cone = reach.ancestors(x);
        let mut ws = ConeDominators::new();
        let mut out = Vec::new();
        let mut seed = r.node_set();
        ws.push(&g, &order, cone, &seed, x);
        assert!(ws.reached(&order, b));
        assert_eq!(ws.take_vertices_met(), 5, "the source, A, B, N and X");
        // Seed {B}: only N's and X's entries change; X is reached through A -> N.
        seed.insert(b);
        ws.push_grown(&g, &order, cone, reach.descendants(b), &seed, b);
        assert_eq!(ws.take_vertices_met(), 2, "only N and X are re-swept");
        ws.chain(&order, &excluded, &mut out);
        assert_eq!(out, vec![n, a]);
        assert!(!ws.reached(&order, b) && ws.reached(&order, n));
        // Seed {A, B} cuts X off.
        seed.insert(a);
        ws.push_grown(&g, &order, cone, reach.descendants(a), &seed, a);
        ws.chain(&order, &excluded, &mut out);
        assert!(out.is_empty());
        assert!(!ws.reached(&order, n) && !ws.reached(&order, x));
        assert_eq!(ws.depth(), 3);
        // Popping restores the parent level exactly.
        ws.pop();
        ws.chain(&order, &excluded, &mut out);
        assert_eq!(out, vec![n, a]);
        ws.truncate(1);
        ws.chain(&order, &excluded, &mut out);
        assert!(out.is_empty(), "the empty seed leaves only the source");
        assert!(ws.reached(&order, b));
        ws.truncate(5);
        assert_eq!(ws.depth(), 1);
        ws.pop();
        assert_eq!(ws.depth(), 0);
        assert_eq!(ws.take_vertices_met(), 2, "A's descendants N and X");
        assert_eq!(ws.take_vertices_met(), 0);
    }

    #[test]
    fn nested_grown_levels_match_lengauer_tarjan_on_scrambled_dags() {
        let mut next = xorshift(0x51ed_2701);
        let mut ws = ConeDominators::new();
        let mut out = Vec::new();
        for case in 0..40 {
            let rooted = scrambled_dag(&mut next, case);
            let order = TopoOrder::forward(&rooted);
            let reach = Reachability::compute(&rooted);
            let excluded = excluded_for(&rooted);
            let g = Forward(&rooted);
            let originals: Vec<NodeId> = rooted.original_node_ids().collect();
            for target in rooted.node_ids() {
                let cone = reach.ancestors(target);
                let mut seed = rooted.node_set();
                ws.push(&g, &order, cone, &seed, target);
                let mut added = Vec::new();
                for _ in 0..3 {
                    // Grow by any original vertex: inside or outside the cone, above
                    // or below the target, the target itself.
                    let v = originals[(next() % originals.len() as u64) as usize];
                    if !seed.insert(v) {
                        continue;
                    }
                    ws.push_grown(&g, &order, cone, reach.descendants(v), &seed, v);
                    added.push(v);
                    ws.chain(&order, &excluded, &mut out);
                    assert_eq!(
                        out,
                        lt_chain(&rooted, &seed, target, &excluded),
                        "case {case}, target {target}, seed {added:?}"
                    );
                }
                while let Some(v) = added.pop() {
                    ws.pop();
                    seed.remove(v);
                    ws.chain(&order, &excluded, &mut out);
                    assert_eq!(out, lt_chain(&rooted, &seed, target, &excluded));
                }
                ws.pop();
                assert_eq!(ws.depth(), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "root of the flow graph cannot be removed")]
    fn removing_the_root_panics() {
        let (r, [_, _, _, _, x, _]) = figure1();
        let reach = Reachability::compute(&r);
        let mut seed = r.node_set();
        seed.insert(r.source());
        completions(
            &mut ConeDominators::new(),
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
