//! The basic polynomial-time enumeration (§5.1, Figure 2 of the paper).
//!
//! For every admissible combination of output vertices (at most `Nout`, pairwise
//! unrelated by postdominance), the algorithm couples each output with one of its
//! generalized dominators (at most `Nin` vertices in total across all outputs), rebuilds
//! the unique cut identified by those inputs and outputs (Theorems 2/3) and validates
//! it. The search space is `O(n^(Nin+Nout))` candidate combinations with an `O(n)`
//! reconstruction each, giving the `O(n^(Nin+Nout+1))` bound of the paper.
//!
//! This implementation favours clarity over speed: the generalized dominators of every
//! candidate output are enumerated eagerly with
//! [`ise_dominators::multi::enumerate_generalized_dominators`], candidates are rebuilt
//! with the backward closure and reported through the shared [`crate::engine`], which
//! de-duplicates them on their packed body key. It is the *reference* enumerator used
//! to cross-check the incremental algorithm of §5.2; use [`crate::incremental_cuts`]
//! for large blocks.

use std::collections::HashMap;

use ise_dominators::multi::enumerate_generalized_dominators;
use ise_dominators::Forward;
use ise_graph::{DenseNodeSet, NodeId};

use crate::cone::cone;
use crate::config::Constraints;
use crate::context::EnumContext;
use crate::engine::{self, EngineOptions, SearchState};
use crate::result::Enumeration;

/// Enumerates all valid cuts with the basic polynomial algorithm of Figure 2.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{basic_cuts, Constraints, EnumContext};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let x = b.node(Operation::Shl, &[n]);
/// let ctx = EnumContext::new(b.build()?);
/// let result = basic_cuts(&ctx, &Constraints::new(2, 1)?);
/// assert!(result.cuts.iter().any(|cut| cut.len() == 2));
/// # Ok(())
/// # }
/// ```
pub fn basic_cuts(ctx: &EnumContext, constraints: &Constraints) -> Enumeration {
    let mut enumerator = BasicEnumerator::new(ctx);
    let options = EngineOptions::default();
    engine::run("basic", ctx, constraints, &options, None, |state| {
        enumerator.search(state)
    })
}

/// The Figure 2 search over the shared engine.
struct BasicEnumerator<'a> {
    ctx: &'a EnumContext,
    /// Cache of the generalized dominators (up to `Nin` vertices) of each output.
    dominators: HashMap<NodeId, Vec<Vec<NodeId>>>,
}

impl<'a> BasicEnumerator<'a> {
    /// Creates the enumerator for one analysis context.
    fn new(ctx: &'a EnumContext) -> Self {
        BasicEnumerator {
            ctx,
            dominators: HashMap::new(),
        }
    }

    fn search(&mut self, state: &mut SearchState<'_>) {
        let candidates = self.ctx.candidate_outputs();
        let mut outputs = Vec::new();
        self.choose_outputs(state, candidates, 0, &mut outputs);
    }

    /// Picks output combinations in increasing vertex order, skipping pairs related by
    /// postdominance (§5.1: such pairs can never both be outputs of a convex cut).
    fn choose_outputs(
        &mut self,
        state: &mut SearchState<'_>,
        candidates: &[NodeId],
        start: usize,
        outputs: &mut Vec<NodeId>,
    ) {
        if !outputs.is_empty() {
            self.couple_with_inputs(state, outputs);
        }
        if outputs.len() == state.constraints().max_outputs() {
            return;
        }
        for idx in start..candidates.len() {
            let o = candidates[idx];
            state.stats_mut().search_nodes += 1;
            let postdom = self.ctx.postdominator_tree();
            if outputs
                .iter()
                .any(|&p| postdom.dominates(p, o) || postdom.dominates(o, p))
            {
                state.stats_mut().pruned_output_output += 1;
                continue;
            }
            outputs.push(o);
            self.choose_outputs(state, candidates, idx + 1, outputs);
            outputs.pop();
        }
    }

    /// For a fixed output set, couples every output with each of its generalized
    /// dominators (respecting the shared `Nin` budget) and validates the induced cut.
    fn couple_with_inputs(&mut self, state: &mut SearchState<'_>, outputs: &[NodeId]) {
        let n = self.ctx.rooted().num_nodes();
        let mut inputs = DenseNodeSet::new(n);
        self.assign_dominator(state, outputs, 0, &mut inputs, 0);
    }

    fn assign_dominator(
        &mut self,
        state: &mut SearchState<'_>,
        outputs: &[NodeId],
        position: usize,
        inputs: &mut DenseNodeSet,
        used: usize,
    ) {
        if position == outputs.len() {
            self.check_candidate(state, inputs, outputs);
            return;
        }
        let output = outputs[position];
        let dominators = self.dominators_of(state, output).to_vec();
        for dominator in dominators {
            // Respect the shared input budget: count only the vertices not already used
            // by earlier outputs.
            let fresh: Vec<NodeId> = dominator
                .iter()
                .copied()
                .filter(|&d| !inputs.contains(d))
                .collect();
            if used + fresh.len() > state.constraints().max_inputs() {
                continue;
            }
            for &d in &fresh {
                inputs.insert(d);
            }
            self.assign_dominator(state, outputs, position + 1, inputs, used + fresh.len());
            for &d in &fresh {
                inputs.remove(d);
            }
        }
    }

    fn dominators_of(&mut self, state: &mut SearchState<'_>, output: NodeId) -> &Vec<Vec<NodeId>> {
        if !self.dominators.contains_key(&output) {
            let doms = enumerate_generalized_dominators(
                &Forward(self.ctx.rooted()),
                output,
                state.constraints().max_inputs(),
                self.ctx.artificial(),
            );
            state.stats_mut().dominator_runs += 1;
            self.dominators.insert(output, doms);
        }
        &self.dominators[&output]
    }

    fn check_candidate(
        &mut self,
        state: &mut SearchState<'_>,
        inputs: &DenseNodeSet,
        outputs: &[NodeId],
    ) {
        state.report_deduped(cone(self.ctx.rooted(), inputs, outputs), true);
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

    /// The Figure 1 graph of the paper.
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
    fn matches_exhaustive_on_figure1() {
        let ctx = figure1();
        for (nin, nout) in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)] {
            let constraints = Constraints::new(nin, nout).unwrap();
            let fast = basic_cuts(&ctx, &constraints);
            let oracle = exhaustive_cuts(&ctx, &constraints, true);
            assert_eq!(
                keys(&fast),
                keys(&oracle),
                "mismatch for Nin={nin}, Nout={nout}"
            );
        }
    }

    #[test]
    fn figure1_three_input_two_output_cut_is_found() {
        // Figure 1(d): the valid 2-output cut {N, X, Y} with inputs {A, B, C}.
        let ctx = figure1();
        let result = basic_cuts(&ctx, &Constraints::new(3, 2).unwrap());
        let expected_inputs = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let expected_outputs = vec![NodeId::new(4), NodeId::new(5)];
        assert!(
            result
                .cuts
                .iter()
                .any(|c| c.inputs() == expected_inputs && c.outputs() == expected_outputs),
            "the Figure 1(d) cut must be enumerated"
        );
    }

    #[test]
    fn respects_forbidden_nodes() {
        let mut b = DfgBuilder::new("mem");
        let a = b.input("a");
        let c = b.input("c");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.node(Operation::Add, &[ld, c]);
        let _y = b.node(Operation::Shl, &[x]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(2, 2).unwrap();
        let result = basic_cuts(&ctx, &constraints);
        assert!(result.cuts.iter().all(|cut| !cut.contains(ld)));
        let oracle = exhaustive_cuts(&ctx, &constraints, true);
        assert_eq!(keys(&result), keys(&oracle));
    }

    #[test]
    fn stats_are_populated() {
        let ctx = figure1();
        let result = basic_cuts(&ctx, &Constraints::new(4, 2).unwrap());
        assert_eq!(result.stats.valid_cuts, result.cuts.len());
        assert!(result.stats.candidates_checked >= result.cuts.len());
        assert!(result.stats.dominator_runs > 0);
        assert!(result.stats.search_nodes > 0);
    }
}
