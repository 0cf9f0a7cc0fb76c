//! Shared precomputed analysis context for the enumeration algorithms.

use ise_dominators::{postdominators, ConeDominators, DominatorTree, Forward, TopoOrder};
use ise_graph::{DenseNodeSet, Dfg, NodeId, Reachability, RootedDfg};

/// Precomputed analyses shared by every enumeration algorithm (§5.4 of the paper),
/// only those the algorithms read: the augmented graph, pairwise reachability with
/// its forbidden-free (clean) form, the topological rank of every vertex, and the
/// postdominator tree. Depth limits need no per-vertex table: the engine measures
/// each candidate body's own depth ([`Cut::depth`](crate::Cut::depth)).
///
/// Every pass runs over the one topological order the [`Dfg`] computed when it was
/// built ([`RootedDfg::topological_order`] wraps it in the source and the sink);
/// nothing is sorted again. Building the context costs `O(n·e/64)` for
/// reachability plus one DAG postdominator pass, and is done once per basic block
/// where enumeration runs; all algorithms (`basic`, `incremental`, `baseline`,
/// `exhaustive`) then borrow it. The dominant storage is [`Reachability`]'s three
/// `n × ⌈n/64⌉`-word bit matrices over the `n` vertices of the augmented graph; the
/// whole context is a fixed handful of allocations whatever the block size. The
/// forward dominator tree is not kept: the engine asks only cone-restricted
/// dominator questions, answered by [`EnumContext::push_cone_level`]. Coding and
/// selection need only the graph and take a [`Dfg`], not a context.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::EnumContext;
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let ctx = EnumContext::new(b.build()?);
/// assert_eq!(ctx.rooted().original_len(), 2);
/// assert!(ctx.candidate_outputs().contains(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct EnumContext {
    rooted: RootedDfg,
    reach: Reachability,
    /// The augmented graph's topological order and ranks, the index space of every
    /// cone dominator pass.
    topo: TopoOrder,
    postdom: DominatorTree,
    /// Vertices that may never be members of a dominator seed or input set: the
    /// artificial source and sink.
    artificial: DenseNodeSet,
    /// Non-forbidden original vertices, i.e. every vertex that could be part of a cut
    /// and therefore a candidate output.
    candidate_outputs: Vec<NodeId>,
}

impl EnumContext {
    /// Builds the context for a basic block.
    pub fn new(dfg: Dfg) -> Self {
        Self::from_rooted(RootedDfg::new(dfg))
    }

    /// Builds the context from an already augmented graph.
    pub fn from_rooted(rooted: RootedDfg) -> Self {
        let reach = Reachability::compute(&rooted);
        let topo = TopoOrder::forward(&rooted);
        let postdom = postdominators(&rooted);

        let mut artificial = rooted.node_set();
        artificial.insert(rooted.source());
        artificial.insert(rooted.sink());

        let mut candidate_outputs = Vec::with_capacity(Self::candidate_output_count(rooted.dfg()));
        candidate_outputs.extend(
            rooted
                .original_node_ids()
                .filter(|&v| !rooted.is_forbidden(v)),
        );

        EnumContext {
            rooted,
            reach,
            topo,
            postdom,
            artificial,
            candidate_outputs,
        }
    }

    /// The augmented graph.
    pub fn rooted(&self) -> &RootedDfg {
        &self.rooted
    }

    /// The underlying (non-augmented) data-flow graph.
    pub fn dfg(&self) -> &Dfg {
        self.rooted.dfg()
    }

    /// Pairwise reachability and its forbidden-free (clean) form.
    pub fn reach(&self) -> &Reachability {
        &self.reach
    }

    /// The postdominator tree (rooted at the artificial sink).
    pub fn postdominator_tree(&self) -> &DominatorTree {
        &self.postdom
    }

    /// The artificial source and sink as a set, for use as an exclusion set when
    /// enumerating dominators.
    pub fn artificial(&self) -> &DenseNodeSet {
        &self.artificial
    }

    /// The non-forbidden original vertices: every legal cut member and therefore every
    /// legal chosen output.
    pub fn candidate_outputs(&self) -> &[NodeId] {
        &self.candidate_outputs
    }

    /// How many candidate outputs [`EnumContext::new`] would derive for `dfg`,
    /// without building the context. Batch schedulers use this to plan first-output
    /// fan-outs ([`crate::par::plan`]) before the per-block context exists;
    /// it is guaranteed (and unit-tested) to equal `candidate_outputs().len()`.
    pub fn candidate_output_count(dfg: &Dfg) -> usize {
        // Mirrors the `candidate_outputs` filter: the rooted graph forbids exactly
        // `F` ∪ `Iext` among original vertices, which `Dfg::is_forbidden` captures
        // as "forbidden or root".
        dfg.node_ids().filter(|&v| !dfg.is_forbidden(v)).count()
    }

    /// Pushes onto `ws` the cone dominator pass of `target` with `seed` removed
    /// (§5.2). With `grown: None` it is a fresh sweep of `target`'s ancestor cone.
    /// With `grown: Some(i)` the level on top of `ws` must be this `target`'s pass for
    /// `seed` minus `i`, and only `i`'s descendants are re-swept
    /// ([`ConeDominators::push_grown`]). Read the level with
    /// [`EnumContext::cone_completions`] and [`EnumContext::cone_reached`]; pop it
    /// with [`ConeDominators::pop`] or [`ConeDominators::truncate`].
    ///
    /// # Panics
    ///
    /// Panics if `seed` was sized for a different graph or contains the source, or if
    /// `grown` is set with no level on `ws`.
    pub fn push_cone_level(
        &self,
        ws: &mut ConeDominators,
        seed: &DenseNodeSet,
        target: NodeId,
        grown: Option<NodeId>,
    ) {
        let graph = Forward(&self.rooted);
        let cone = self.reach.ancestors(target);
        match grown {
            None => ws.push(&graph, &self.topo, cone, seed, target),
            Some(i) => ws.push_grown(&graph, &self.topo, cone, self.reach.descendants(i), seed, i),
        }
    }

    /// The Dubrova completions of the top level of `ws`: the original vertices `w`
    /// such that `seed ∪ {w}` blocks every source path to the level's target, nearest
    /// first. `out` is cleared first and stays empty when the seed alone already cuts
    /// the target off (or contains it).
    ///
    /// # Panics
    ///
    /// Panics if `ws` holds no level.
    pub fn cone_completions(&self, ws: &ConeDominators, out: &mut Vec<NodeId>) {
        ws.chain(&self.topo, &self.artificial, out);
    }

    /// Whether the top level of `ws` reached `v`. For an ancestor `v` of the level's
    /// target this is `!set_dominates_in(seed, v)`: the cone holds every ancestor of
    /// `v`, so the pass sees every source path to it.
    ///
    /// # Panics
    ///
    /// Panics if `ws` holds no level.
    pub fn cone_reached(&self, ws: &ConeDominators, v: NodeId) -> bool {
        ws.reached(&self.topo, v)
    }

    /// Whether every path from the artificial source to `target` passes through a
    /// member of `set` (condition 1 of the generalized-dominator definition).
    ///
    /// An empty `set` dominates nothing (the source itself is never in `set`). The
    /// search walks predecessors backwards from `target`, never entering `set`, so it
    /// visits at most `target`'s ancestor cone; reaching the source exhibits a path
    /// that avoids the set. It runs in caller-provided scratch, because the
    /// enumeration engine calls this once per seed candidate: `visited` must have the
    /// capacity of the augmented graph, and both buffers are cleared on entry.
    ///
    /// # Panics
    ///
    /// Panics if `visited` was sized for a different graph.
    pub fn set_dominates_in(
        &self,
        set: &DenseNodeSet,
        target: NodeId,
        visited: &mut DenseNodeSet,
        stack: &mut Vec<NodeId>,
    ) -> bool {
        if set.is_empty() {
            return false;
        }
        if set.contains(target) {
            return true;
        }
        let source = self.rooted.source();
        visited.clear();
        visited.insert(target);
        stack.clear();
        stack.push(target);
        while let Some(v) = stack.pop() {
            for &p in self.rooted.preds(v) {
                if p == source {
                    return false;
                }
                if !set.contains(p) && visited.insert(p) {
                    stack.push(p);
                }
            }
        }
        true
    }

    /// Writes into `out` the vertices that some path from the artificial source
    /// reaches while avoiding `set`: a vertex is open iff it is the source, or it is
    /// outside `set` and has an open predecessor. For every vertex `target` other than
    /// the source, `!out.contains(target)` equals
    /// [`set_dominates_in(set, target)`](EnumContext::set_dominates_in), including for
    /// an empty `set` and a `set` that holds `target`.
    ///
    /// It is one `O(n + e)` scan of the kept topological order, so one sweep answers
    /// set dominance for every target at once: `PICK-OUTPUT` runs it once per call
    /// instead of one backward walk per candidate output. `out` is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `out` was sized for a different graph.
    pub fn open_set_in(&self, set: &DenseNodeSet, out: &mut DenseNodeSet) {
        out.clear();
        out.insert(self.rooted.source());
        for &v in self.topo.order() {
            if !set.contains(v) && self.rooted.preds(v).iter().any(|&p| out.contains(p)) {
                out.insert(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_graph::{DfgBuilder, Operation};

    fn sample() -> (EnumContext, [NodeId; 5]) {
        // a, b inputs; n = a+b; x = n<<1; st = store(x)
        let mut bld = DfgBuilder::new("ctx");
        let a = bld.input("a");
        let b = bld.input("b");
        let n = bld.node(Operation::Add, &[a, b]);
        let x = bld.node(Operation::Shl, &[n]);
        let st = bld.node(Operation::Store, &[x]);
        let ctx = EnumContext::new(bld.build().unwrap());
        (ctx, [a, b, n, x, st])
    }

    #[test]
    fn candidate_outputs_exclude_forbidden_and_inputs() {
        let (ctx, [a, b, n, x, st]) = sample();
        let c = ctx.candidate_outputs();
        assert!(c.contains(&n));
        assert!(c.contains(&x));
        assert!(!c.contains(&a));
        assert!(!c.contains(&b));
        assert!(!c.contains(&st), "stores are forbidden");
    }

    /// The context-free count used by batch schedulers to plan task ranges must
    /// agree with the derived candidate list for every graph shape.
    #[test]
    fn candidate_output_count_matches_the_context() {
        let (ctx, _) = sample();
        assert_eq!(
            EnumContext::candidate_output_count(ctx.dfg()),
            ctx.candidate_outputs().len()
        );
        // A graph with user-forbidden vertices and multiple roots.
        let mut b = DfgBuilder::new("mixed");
        let p = b.input("p");
        let q = b.input("q");
        let m = b.node(Operation::Mul, &[p, q]);
        let s = b.node(Operation::Store, &[m]);
        let _t = b.node(Operation::Add, &[m, p]);
        let _ = s;
        let ctx = EnumContext::new(b.build().unwrap());
        assert_eq!(
            EnumContext::candidate_output_count(ctx.dfg()),
            ctx.candidate_outputs().len()
        );
    }

    #[test]
    fn set_dominates_checks_condition_one() {
        let (ctx, [a, b, n, x, _]) = sample();
        // One scratch pair for every query: stale contents must not leak between calls.
        let mut visited = ctx.rooted().node_set();
        let mut stack = Vec::new();
        let mut dominates = |nodes: &[NodeId], target: NodeId| {
            let set = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), nodes.iter().copied());
            ctx.set_dominates_in(&set, target, &mut visited, &mut stack)
        };
        assert!(dominates(&[a, b], n));
        assert!(dominates(&[a, b], x));
        assert!(!dominates(&[a], n), "paths via b avoid a");
        assert!(dominates(&[n], x));
        assert!(!dominates(&[], x));
        assert!(dominates(&[n], n), "a set dominates its own members");
        assert!(!dominates(&[b], a), "a root hangs off the source directly");
        assert!(!dominates(&[x], n), "descendants never block a vertex");
    }

    #[test]
    fn open_set_is_the_complement_of_set_dominance() {
        let (ctx, [a, b, n, x, st]) = sample();
        let (source, sink) = (ctx.rooted().source(), ctx.rooted().sink());
        let set = |nodes: &[NodeId]| {
            DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), nodes.iter().copied())
        };
        // One buffer for every sweep: stale bits from an earlier one must not leak.
        let mut open = ctx.rooted().node_set();
        let mut open_for = |nodes: &[NodeId]| {
            ctx.open_set_in(&set(nodes), &mut open);
            open.clone()
        };
        let everything = set(&[a, b, n, x, st, source, sink]);
        assert_eq!(open_for(&[]), everything, "an empty set blocks nothing");
        assert_eq!(open_for(&[a, b]), set(&[source]), "{{a, b}} cuts off all");
        assert_eq!(open_for(&[a]), set(&[b, n, x, st, source, sink]));
        assert_eq!(
            open_for(&[n]),
            set(&[a, b, source]),
            "n and its descendants"
        );
        assert_eq!(open_for(&[x]), set(&[a, b, n, source]), "x closes itself");
    }

    #[test]
    fn completions_are_the_reduced_dominator_chain_nearest_first() {
        let (ctx, [a, b, n, x, st]) = sample();
        let mut ws = ConeDominators::new();
        let mut out = vec![st]; // stale content must be cleared
        let set = |nodes: &[NodeId]| {
            DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), nodes.iter().copied())
        };
        let mut completions = |seed: &[NodeId], target: NodeId, out: &mut Vec<NodeId>| {
            ctx.push_cone_level(&mut ws, &set(seed), target, None);
            ctx.cone_completions(&ws, out);
            ws.pop();
        };
        // Empty seed: n joins both inputs, so only the (excluded) source dominates it;
        // st is dominated by x, then n.
        completions(&[], n, &mut out);
        assert!(out.is_empty(), "the source is excluded");
        completions(&[], st, &mut out);
        assert_eq!(out, vec![x, n], "nearest first");
        // Seed {a}: every remaining path to x runs b -> n -> x.
        completions(&[a], x, &mut out);
        assert_eq!(out, vec![n, b]);
        // Seed {a, b} cuts x off; a target inside the seed has no completions.
        completions(&[a, b], x, &mut out);
        assert!(out.is_empty());
        completions(&[n], n, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn trees_are_consistent_with_reachability() {
        let (ctx, [_, _, n, x, _]) = sample();
        assert!(ise_dominators::dominators(ctx.rooted()).dominates(n, x));
        assert!(ctx.postdominator_tree().dominates(x, n));
        assert!(ctx.reach().reaches(n, x));
    }
}
