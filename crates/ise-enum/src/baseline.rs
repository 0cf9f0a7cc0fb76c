//! The exhaustive-search baseline of Atasu/Pozzi et al. (refs. [4] and [15] of the
//! paper): every vertex is either in or out of the cut, giving a binary search tree of
//! depth `n` that is pruned with microarchitectural constraint propagation.
//!
//! Following the published algorithm, vertices are decided in topological order
//! (producers before consumers). With that order two constraints can be propagated as
//! soon as a vertex is decided, because they only depend on already-decided vertices:
//!
//! * the *input* count — an excluded vertex becomes an input the moment one of its
//!   consumers is selected, and can never stop being one;
//! * *convexity* — selecting a vertex is illegal if one of its excluded predecessors is
//!   reachable from a selected vertex;
//! * selecting an externally live (`Oext`) vertex immediately consumes a write port.
//!
//! The *output* count for internal vertices, however, depends on successors that have
//! not been decided yet, so it can only be checked once the whole assignment is
//! complete. This is precisely the weakness the literature reports for these
//! algorithms — "performance quickly deteriorates if the custom instructions can have
//! multiple outputs" — and it is what makes tree-shaped fan-out graphs (Figure 4) their
//! `O(1.6^n)` worst case, which the run-time comparison of Figure 5 exposes against the
//! polynomial algorithm.

use ise_graph::{DenseNodeSet, NodeId};

use crate::config::Constraints;
use crate::context::EnumContext;
use crate::engine::{self, EngineOptions, SearchState};
use crate::result::Enumeration;

/// Enumerates all valid cuts by pruned exhaustive search over the binary in/out space.
///
/// Validity here follows refs. \[4\]/\[15\]: non-empty, convex, free of forbidden vertices
/// and within the I/O port budget (the technical input condition of §3 is *not*
/// required, so the result is a superset of what the polynomial algorithms report).
///
/// With `max_search_nodes` set the search gives up after that many decisions and
/// reports the cuts found so far; the benchmark harness uses this to bound the
/// exponential blow-up on large blocks. `None` means no limit.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{baseline_cuts, Constraints, EnumContext};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let _y = b.node(Operation::Add, &[x, a]);
/// let ctx = EnumContext::new(b.build()?);
/// let result = baseline_cuts(&ctx, &Constraints::new(2, 2)?, None);
/// assert_eq!(result.cuts.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn baseline_cuts(
    ctx: &EnumContext,
    constraints: &Constraints,
    max_search_nodes: Option<usize>,
) -> Enumeration {
    let mut enumerator = BaselineEnumerator::new(ctx);
    let options = EngineOptions { max_search_nodes };
    engine::run("baseline", ctx, constraints, &options, None, |state| {
        enumerator.recurse(state, 0)
    })
}

/// The Atasu/Pozzi-style binary search over the shared engine:
/// the cut under construction lives in the engine's body bit set (via the raw
/// accessors), while the per-vertex decision markings stay here.
struct BaselineEnumerator<'a> {
    ctx: &'a EnumContext,
    /// The original graph's topological order: producers first, as in the published
    /// algorithm.
    order: &'a [NodeId],
    excluded: DenseNodeSet,
    /// For decided excluded vertices: whether they already feed a selected vertex.
    is_input: Vec<bool>,
    /// For decided excluded vertices: whether a selected vertex reaches them through a
    /// chain of excluded vertices (used for the incremental convexity check).
    reached_from_selected: Vec<bool>,
    input_count: usize,
    /// Selected vertices that are externally live (`Oext`) and therefore already known
    /// to consume a write port.
    live_out_count: usize,
}

impl<'a> BaselineEnumerator<'a> {
    /// Creates the enumerator for one analysis context.
    fn new(ctx: &'a EnumContext) -> Self {
        let n = ctx.rooted().num_nodes();
        BaselineEnumerator {
            ctx,
            order: ctx.dfg().topological_order(),
            excluded: DenseNodeSet::new(n),
            is_input: vec![false; n],
            reached_from_selected: vec![false; n],
            input_count: 0,
            live_out_count: 0,
        }
    }

    fn recurse(&mut self, state: &mut SearchState<'_>, idx: usize) {
        if !state.try_enter() {
            return;
        }
        if idx == self.order.len() {
            if !state.body().is_empty() {
                state.report_current(false);
            }
            return;
        }
        let v = self.order[idx];
        let rooted = self.ctx.rooted();

        // Branch 1: exclude v from the cut. Whether v is reachable from the selected
        // region through excluded vertices is final now, because all predecessors of v
        // are already decided.
        {
            let reached = rooted.preds(v).iter().any(|p| {
                state.body().contains(*p)
                    || (self.excluded.contains(*p) && self.reached_from_selected[p.index()])
            });
            self.excluded.insert(v);
            self.reached_from_selected[v.index()] = reached;
            self.recurse(state, idx + 1);
            self.excluded.remove(v);
            self.reached_from_selected[v.index()] = false;
        }

        // Branch 2: include v in the cut (never possible for forbidden vertices).
        if !rooted.is_forbidden(v) {
            // Convexity: a path from a selected vertex through excluded vertices must
            // not re-enter the cut at v.
            let breaks_convexity = rooted
                .preds(v)
                .iter()
                .any(|p| self.excluded.contains(*p) && self.reached_from_selected[p.index()]);
            if breaks_convexity {
                state.stats_mut().pruned_build_s += 1;
                return;
            }
            // Input propagation: excluded predecessors of v become inputs now.
            let mut newly_inputs: Vec<NodeId> = Vec::new();
            for &p in rooted.preds(v) {
                if self.excluded.contains(p) && !self.is_input[p.index()] && p != rooted.source() {
                    self.is_input[p.index()] = true;
                    newly_inputs.push(p);
                }
            }
            self.input_count += newly_inputs.len();
            let is_live_out = rooted.succs(v).contains(&rooted.sink());
            if is_live_out {
                self.live_out_count += 1;
            }
            state.body_insert(v);

            if self.input_count <= state.constraints().max_inputs()
                && self.live_out_count <= state.constraints().max_outputs()
            {
                self.recurse(state, idx + 1);
            } else {
                state.stats_mut().rejected_io += 1;
            }

            state.body_remove(v);
            if is_live_out {
                self.live_out_count -= 1;
            }
            self.input_count -= newly_inputs.len();
            for p in newly_inputs {
                self.is_input[p.index()] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{Cut, CutKey};
    use crate::exhaustive::exhaustive_cuts;
    use ise_graph::{DfgBuilder, Operation};

    fn keys(result: &Enumeration) -> Vec<CutKey<'_>> {
        let mut keys: Vec<_> = result.cuts.iter().map(Cut::key).collect();
        keys.sort();
        keys
    }

    fn figure1() -> EnumContext {
        let mut b = DfgBuilder::new("figure1");
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.input("C");
        let n = b.named_node(Operation::Add, &[a, bb], Some("N"));
        let x = b.named_node(Operation::Mul, &[n, bb], Some("X"));
        let y = b.named_node(Operation::Sub, &[n, c], Some("Y"));
        b.mark_output(x);
        b.mark_output(y);
        EnumContext::new(b.build().unwrap())
    }

    #[test]
    fn matches_exhaustive_without_io_condition() {
        let ctx = figure1();
        for (nin, nout) in [(1, 1), (2, 2), (3, 2), (4, 2)] {
            let constraints = Constraints::new(nin, nout).unwrap();
            let fast = baseline_cuts(&ctx, &constraints, None);
            let oracle = exhaustive_cuts(&ctx, &constraints, false);
            assert_eq!(keys(&fast), keys(&oracle), "Nin={nin}, Nout={nout}");
        }
    }

    #[test]
    fn matches_exhaustive_with_forbidden_nodes() {
        let mut b = DfgBuilder::new("mem");
        let a = b.input("a");
        let c = b.input("c");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.node(Operation::Add, &[ld, c]);
        let y = b.node(Operation::Shl, &[x]);
        let z = b.node(Operation::Xor, &[y, c]);
        let _st = b.node(Operation::Store, &[z]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(2, 2).unwrap();
        let fast = baseline_cuts(&ctx, &constraints, None);
        assert!(fast.cuts.iter().all(|cut| !cut.contains(ld)));
        let oracle = exhaustive_cuts(&ctx, &constraints, false);
        assert_eq!(keys(&fast), keys(&oracle));
    }

    #[test]
    fn forbidden_nodes_are_never_selected() {
        let mut b = DfgBuilder::new("mem");
        let a = b.input("a");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.node(Operation::Add, &[ld, a]);
        let st = b.node(Operation::Store, &[x]);
        let ctx = EnumContext::new(b.build().unwrap());
        let result = baseline_cuts(&ctx, &Constraints::new(4, 4).unwrap(), None);
        assert!(result
            .cuts
            .iter()
            .all(|c| !c.contains(ld) && !c.contains(st)));
        assert_eq!(result.cuts.len(), 1);
    }

    #[test]
    fn every_reported_cut_is_valid() {
        let ctx = figure1();
        let constraints = Constraints::new(2, 1).unwrap();
        let result = baseline_cuts(&ctx, &constraints, None);
        for cut in &result.cuts {
            assert!(cut.validate(&ctx, &constraints, false).is_ok());
            assert!(cut.inputs().len() <= 2);
            assert_eq!(cut.outputs().len(), 1);
        }
    }

    #[test]
    fn budget_bounds_the_search() {
        let ctx = figure1();
        let constraints = Constraints::new(4, 2).unwrap();
        let full = baseline_cuts(&ctx, &constraints, None);
        let bounded = baseline_cuts(&ctx, &constraints, Some(3));
        assert!(bounded.stats.search_nodes <= 3 + 2);
        assert!(bounded.cuts.len() <= full.cuts.len());
    }

    #[test]
    fn superset_of_polynomial_results() {
        let ctx = figure1();
        let constraints = Constraints::new(3, 2).unwrap();
        let poly = crate::incremental_cuts(
            &ctx,
            &constraints,
            &crate::PruningConfig::all(),
            &EngineOptions::default(),
            None,
        );
        let base = baseline_cuts(&ctx, &constraints, None);
        let base_keys: std::collections::HashSet<_> = base.cuts.iter().map(Cut::key).collect();
        for cut in &poly.cuts {
            assert!(
                base_keys.contains(&cut.key()),
                "baseline must contain every cut the polynomial algorithm finds"
            );
        }
    }
}
