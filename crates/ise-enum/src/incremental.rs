//! The incremental polynomial-time enumeration (§5.2, Figure 3 of the paper), with the
//! pruning techniques of §5.3, implemented over the shared [`crate::engine`].
//!
//! The algorithm interleaves three recursive procedures:
//!
//! * `PICK-OUTPUT` chooses the next output vertex among the admissible candidates
//!   (vertices not related by postdominance to an already chosen output), and goes
//!   to `CHECK-CUT` if the chosen inputs dominate it, to `PICK-INPUTS` otherwise;
//! * `PICK-INPUTS` grows the input set for the current output: the Dubrova-style
//!   *completions* (single-vertex dominators of the output in the graph reduced by the
//!   current seed, each of which closes a multiple-vertex dominator) come from one DAG
//!   dominator pass over the output's ancestor cone with the seed removed, and the seed
//!   itself grows over the output's ancestors;
//! * `CHECK-CUT` validates the cut identified by the chosen inputs and outputs
//!   (Theorems 2/3) and recurses into `PICK-OUTPUT` if more outputs may be added.
//!
//! The cut body `S` is maintained *incrementally* through the engine's `push`/`pop`
//! transactions, as prescribed by §5.2: choosing an output extends `S`, choosing an
//! input retracts the vertices it cuts off, and backtracking replays the undo trail
//! (DESIGN.md records the history).
//!
//! `PICK-OUTPUT` decides its branch before it extends `S`. Whether the chosen inputs
//! dominate a candidate does not depend on the body, and the input set is the same for
//! every candidate of one call, so one forward sweep per call
//! ([`EnumContext::open_set_in`], taken lazily at the first candidate that needs a
//! verdict) answers every candidate with an `O(1)` lookup. A candidate that is not
//! dominated when no input is left can reach no cut, and is skipped without pushing it.
//!
//! The cone passes behind the completions live on the level stack of one
//! [`ConeDominators`] workspace, which mirrors the recursion. A `PICK-INPUTS` entered
//! from `PICK-OUTPUT` pushes a fresh pass over the new output's cone; one entered from
//! seed growth with seed vertex `i` pushes a *grown* level that copies its parent's and
//! re-sweeps only `i`'s descendants, since deleting `i` changes the dominators of no
//! other vertex. Each `PICK-INPUTS` pops back to its entry depth on every exit. The
//! dominator–input pruning of seed candidate `i` reads whether the current level
//! reached `i`, an `O(1)` lookup instead of a walk. The buffers keep their capacity,
//! so the hot path performs no per-candidate allocations.

use std::ops::Range;

use ise_dominators::ConeDominators;
use ise_graph::{DenseNodeSet, NodeId};
use ise_obs::MetricsRegistry;

use crate::config::{Constraints, PruningConfig};
use crate::context::EnumContext;
use crate::engine::{self, EngineOptions, SearchState};
use crate::obs::phase;
use crate::result::Enumeration;

/// Enumerates all valid cuts with the incremental algorithm of Figure 3.
///
/// `options` carries the search budget — past [`EngineOptions::max_search_nodes`]
/// recursion steps the run stops exploring and reports the cuts found so far;
/// [`EngineOptions::default`] is the unbounded run. An optional
/// [`MetricsRegistry`] receives the engine's per-phase timings and progress
/// counters; recording never changes the result.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let _x = b.node(Operation::Shl, &[n]);
/// let ctx = EnumContext::new(b.build()?);
/// let constraints = Constraints::new(2, 2)?;
/// let pruning = PruningConfig::all();
/// let result = incremental_cuts(&ctx, &constraints, &pruning, &EngineOptions::default(), None);
/// assert!(result.stats.valid_cuts > 0);
///
/// // A zero budget reports nothing but still terminates cleanly.
/// let options = EngineOptions {
///     max_search_nodes: Some(0),
/// };
/// assert!(incremental_cuts(&ctx, &constraints, &pruning, &options, None).cuts.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn incremental_cuts(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    options: &EngineOptions,
    rec: Option<&MetricsRegistry>,
) -> Enumeration {
    let mut enumerator = IncrementalEnumerator::new(ctx, pruning);
    engine::run("incremental", ctx, constraints, options, rec, |state| {
        enumerator.search(state)
    })
}

/// The Figure 3 search over the shared engine.
///
/// Owns only the algorithm-specific pieces: the pruning configuration, the reusable
/// cone-dominator level stack behind the dominator completions, and pools of
/// completion and open-set buffers (one per active recursion depth).
pub(crate) struct IncrementalEnumerator<'a> {
    ctx: &'a EnumContext,
    pruning: &'a PruningConfig,
    cone: ConeDominators,
    completion_pool: Vec<Vec<NodeId>>,
    /// Open-set buffers of `PICK-OUTPUT`, one per active call that has swept one.
    open_pool: Vec<DenseNodeSet>,
    /// When set, the *top-level* `PICK-OUTPUT` (no outputs chosen yet) only considers
    /// `ctx.candidate_outputs()[range]` as the first output; deeper levels are
    /// unrestricted. This is the task decomposition of the `par` module: each
    /// first-output choice roots an independent subtree (see DESIGN.md §1.3).
    root_range: Option<Range<usize>>,
}

impl<'a> IncrementalEnumerator<'a> {
    /// Creates the enumerator for one analysis context.
    pub(crate) fn new(ctx: &'a EnumContext, pruning: &'a PruningConfig) -> Self {
        IncrementalEnumerator {
            ctx,
            pruning,
            cone: ConeDominators::new(),
            completion_pool: Vec::new(),
            open_pool: Vec::new(),
            root_range: None,
        }
    }

    /// Like [`IncrementalEnumerator::new`], but restricts the *first* output choice to
    /// the candidates at `range` within [`EnumContext::candidate_outputs`]. Running
    /// one enumerator per range of a partition of the candidate list explores exactly
    /// the serial search, split into independent subtrees.
    ///
    /// # Panics
    ///
    /// Panics (on first use) if `range` is out of bounds for the candidate list.
    pub(crate) fn with_root_range(
        ctx: &'a EnumContext,
        pruning: &'a PruningConfig,
        range: Range<usize>,
    ) -> Self {
        let mut enumerator = Self::new(ctx, pruning);
        enumerator.root_range = Some(range);
        enumerator
    }

    /// Runs the whole search (or, with a root range, its task) through `state`.
    pub(crate) fn search(&mut self, state: &mut SearchState<'_>) {
        let nin = state.constraints().max_inputs();
        let nout = state.constraints().max_outputs();
        self.pick_output(state, nin, nout);
        state.count_cone_vertices(self.cone.take_vertices_met());
    }

    /// `PICK-OUTPUT` of Figure 3.
    fn pick_output(
        &mut self,
        state: &mut SearchState<'_>,
        remaining_inputs: usize,
        remaining_outputs: usize,
    ) {
        let prev = state.phase_enter(phase::PICK_OUTPUT);
        self.pick_output_inner(state, remaining_inputs, remaining_outputs);
        state.phase_restore(prev);
    }

    fn pick_output_inner(
        &mut self,
        state: &mut SearchState<'_>,
        remaining_inputs: usize,
        remaining_outputs: usize,
    ) {
        debug_assert!(remaining_outputs > 0);
        let ctx = self.ctx;
        // Task decomposition: the root restriction applies only to the first output
        // (no outputs chosen yet); subtrees below it consider every candidate.
        let is_top = state.chosen_outputs().is_empty();
        let all = ctx.candidate_outputs();
        let candidates = match &self.root_range {
            Some(range) if is_top => &all[range.clone()],
            _ => all,
        };
        // This call's open set (`EnumContext::open_set_in` of the chosen inputs), swept
        // at the first candidate that needs a dominance verdict. The input set is the
        // same on every iteration: each nested push is popped before the next one.
        let mut open: Option<DenseNodeSet> = None;
        for &o in candidates {
            if state.out_of_budget() {
                break;
            }
            state.stats_mut().search_nodes += 1;
            if state.output_set().contains(o) {
                continue;
            }
            // Admissibility (§5.1): two outputs of a convex cut are never related by
            // postdomination.
            let postdom = ctx.postdominator_tree();
            if state
                .chosen_outputs()
                .iter()
                .any(|&p| postdom.dominates(p, o) || postdom.dominates(o, p))
            {
                continue;
            }
            // Output–output pruning (§5.3): an ancestor of an already chosen output
            // does not have to be chosen explicitly — it will appear as an internal
            // output of the candidate body.
            if self.pruning.output_output
                && state
                    .chosen_outputs()
                    .iter()
                    .any(|&p| ctx.reach().reaches(o, p))
            {
                state.stats_mut().pruned_output_output += 1;
                continue;
            }
            // Connectedness pruning (§5.3): when only connected cuts are wanted, every
            // output after the first must be reachable from an already chosen input.
            if state.constraints().is_connected_only()
                && self.pruning.connectedness
                && !state.chosen_outputs().is_empty()
                && !state
                    .chosen_inputs()
                    .iter()
                    .any(|&i| ctx.reach().reaches(i, o))
            {
                state.stats_mut().pruned_connectedness += 1;
                continue;
            }

            // Decide before building: whether the chosen inputs dominate `o` does not
            // depend on the body, so the verdict is an `O(1)` lookup taken before
            // `push_output`, and an `o` that is not dominated with no input left is
            // skipped without growing the body over its closure. An empty input set
            // dominates nothing.
            let dominated = !state.chosen_inputs().is_empty() && {
                let open = open.get_or_insert_with(|| {
                    let mut buf = self
                        .open_pool
                        .pop()
                        .unwrap_or_else(|| ctx.rooted().node_set());
                    let dphase = state.phase_enter(phase::DOMINATORS);
                    ctx.open_set_in(state.input_set(), &mut buf);
                    state.phase_restore(dphase);
                    buf
                });
                !open.contains(o)
            };
            debug_assert_eq!(
                dominated,
                state.inputs_dominate(o),
                "the open set disagrees with the set-dominance walk at {o}"
            );
            if !dominated && remaining_inputs == 0 {
                continue;
            }
            state.push_output(o);
            if dominated {
                self.check_cut(state, remaining_inputs, remaining_outputs - 1);
            } else {
                self.pick_inputs(state, o, None, remaining_inputs, remaining_outputs - 1, 0);
            }
            state.pop_output();
        }
        if let Some(buf) = open {
            self.open_pool.push(buf);
        }
    }

    /// `PICK-INPUTS` of Figure 3: completions via a dominator pass over the output's
    /// ancestor cone with the seed removed, then seed growth over those ancestors.
    /// `grown` is the vertex seed growth just added (`None` when entered from
    /// `PICK-OUTPUT`): the pass then re-sweeps only its descendants in a level pushed
    /// on top of the caller's. Every exit pops back to the entry depth.
    ///
    /// `min_seed_index` enforces an increasing-id order on the seed vertices added for
    /// the current output, so that every unordered seed set is explored exactly once
    /// (the completing vertex found by the dominator pass is exempt from the ordering, as
    /// in Dubrova's construction, so no dominator set is missed).
    fn pick_inputs(
        &mut self,
        state: &mut SearchState<'_>,
        output: NodeId,
        grown: Option<NodeId>,
        remaining_inputs: usize,
        remaining_outputs: usize,
        min_seed_index: usize,
    ) {
        let prev = state.phase_enter(phase::PICK_INPUTS);
        let depth = self.cone.depth();
        self.pick_inputs_inner(
            state,
            output,
            grown,
            remaining_inputs,
            remaining_outputs,
            min_seed_index,
        );
        self.cone.truncate(depth);
        state.phase_restore(prev);
    }

    fn pick_inputs_inner(
        &mut self,
        state: &mut SearchState<'_>,
        output: NodeId,
        grown: Option<NodeId>,
        remaining_inputs: usize,
        remaining_outputs: usize,
        min_seed_index: usize,
    ) {
        debug_assert!(remaining_inputs > 0);
        if state.out_of_budget() {
            return;
        }
        state.stats_mut().search_nodes += 1;
        state.stats_mut().dominator_runs += 1;
        let ctx = self.ctx;

        // Completions: vertices w such that I ∪ {w} dominates the output, found as the
        // single-vertex dominators of the output in the graph with I removed. The
        // level stays on the stack for the dominator–input pruning of the seed loop.
        // The level buffers and the completion buffer are both reused.
        let mut completions = self.completion_pool.pop().unwrap_or_default();
        let dphase = state.phase_enter(phase::DOMINATORS);
        ctx.push_cone_level(&mut self.cone, state.input_set(), output, grown);
        ctx.cone_completions(&self.cone, &mut completions);
        state.phase_restore(dphase);
        for &w in &completions {
            if state.output_set().contains(w) {
                continue;
            }
            // Output–input pruning (§5.3, lossless clean-path form — see DESIGN.md): a
            // candidate input with no forbidden-free path to the output can never be an
            // input to this output in a valid cut.
            if self.pruning.output_input && !ctx.reach().clean_reaches(w, output) {
                state.stats_mut().pruned_output_input += 1;
                continue;
            }
            state.push_input(w);
            self.check_cut(state, remaining_inputs - 1, remaining_outputs);
            state.pop_input();
        }
        completions.clear();
        self.completion_pool.push(completions);

        if remaining_inputs > 1 {
            // Seed growth: add one more ancestor of the output to the seed set, in
            // increasing id order so that each seed set is visited once.
            for i in ctx.reach().ancestors(output).iter() {
                if !self.try_seed(
                    state,
                    output,
                    i,
                    remaining_inputs,
                    remaining_outputs,
                    min_seed_index,
                ) {
                    return;
                }
            }
        }
    }

    /// One iteration of the seed-growth loop of `PICK-INPUTS`: applies the §5.3 seed
    /// prunings to candidate `i` and recurses if it survives. Returns `false` when the
    /// search budget is exhausted and the loop must stop.
    fn try_seed(
        &mut self,
        state: &mut SearchState<'_>,
        output: NodeId,
        i: NodeId,
        remaining_inputs: usize,
        remaining_outputs: usize,
        min_seed_index: usize,
    ) -> bool {
        if state.out_of_budget() {
            return false;
        }
        let ctx = self.ctx;
        if i.index() < min_seed_index {
            return true;
        }
        if i == output
            || ctx.artificial().contains(i)
            || state.input_set().contains(i)
            || state.output_set().contains(i)
        {
            return true;
        }
        // Output–input pruning (§5.3, lossless clean-path form).
        if self.pruning.output_input && !ctx.reach().clean_reaches(i, output) {
            state.stats_mut().pruned_output_input += 1;
            return true;
        }
        // Input–input pruning (§5.3): discard seeds in which one input postdominates
        // another.
        let postdom = ctx.postdominator_tree();
        if self.pruning.input_input
            && state
                .chosen_inputs()
                .iter()
                .any(|&v| postdom.dominates(i, v) || postdom.dominates(v, i))
        {
            state.stats_mut().pruned_input_input += 1;
            return true;
        }
        // Dominator–input pruning (§5.3, reformulated losslessly — see DESIGN.md): if
        // every path from the root to the candidate already crosses the current seed,
        // the candidate can never satisfy the technical input condition of §3 in any
        // cut grown from this seed. The current level is this output's cone pass for
        // this seed, and `i` is an ancestor of the output, so the pass saw every root
        // path to `i`: it reached `i` iff the seed does not dominate it.
        if self.pruning.dominator_input {
            let dominated = !ctx.cone_reached(&self.cone, i);
            debug_assert_eq!(
                dominated,
                state.inputs_dominate(i),
                "the cone level disagrees with the set-dominance walk at {i}"
            );
            if dominated {
                state.stats_mut().pruned_dominator_input += 1;
                return true;
            }
        }
        state.push_input(i);
        self.pick_inputs(
            state,
            output,
            Some(i),
            remaining_inputs - 1,
            remaining_outputs,
            i.index() + 1,
        );
        state.pop_input();
        true
    }

    /// `CHECK-CUT` of Figure 3: report the candidate identified by the chosen inputs
    /// and outputs, then optionally extend the cut with further outputs. The body
    /// itself is already maintained by the engine.
    fn check_cut(
        &mut self,
        state: &mut SearchState<'_>,
        remaining_inputs: usize,
        remaining_outputs: usize,
    ) {
        if state.out_of_budget() {
            return;
        }
        state.stats_mut().search_nodes += 1;
        state.check_cut(self.pruning.build_s);
        if remaining_outputs > 0 {
            self.pick_output(state, remaining_inputs, remaining_outputs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::basic_cuts;
    use crate::cut::{Cut, CutKey};
    use crate::exhaustive::exhaustive_cuts;
    use ise_graph::{DfgBuilder, Operation};

    fn incremental(
        ctx: &EnumContext,
        constraints: &Constraints,
        pruning: &PruningConfig,
    ) -> Enumeration {
        incremental_cuts(ctx, constraints, pruning, &EngineOptions::default(), None)
    }

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
    fn matches_exhaustive_on_figure1() {
        let ctx = figure1();
        for (nin, nout) in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)] {
            let constraints = Constraints::new(nin, nout).unwrap();
            let fast = incremental(&ctx, &constraints, &PruningConfig::all());
            let oracle = exhaustive_cuts(&ctx, &constraints, true);
            assert_eq!(keys(&fast), keys(&oracle), "Nin={nin}, Nout={nout}");
        }
    }

    #[test]
    fn matches_basic_with_and_without_pruning() {
        let ctx = figure1();
        let constraints = Constraints::new(4, 2).unwrap();
        let reference = basic_cuts(&ctx, &constraints);
        for pruning in [PruningConfig::all(), PruningConfig::none()] {
            let fast = incremental(&ctx, &constraints, &pruning);
            assert_eq!(keys(&fast), keys(&reference), "pruning {pruning:?}");
        }
    }

    #[test]
    fn respects_memory_forbidden_nodes() {
        let mut b = DfgBuilder::new("mem");
        let a = b.input("a");
        let c = b.input("c");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.node(Operation::Add, &[ld, c]);
        let y = b.node(Operation::Shl, &[x]);
        let _z = b.node(Operation::Xor, &[y, c]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(2, 2).unwrap();
        let fast = incremental(&ctx, &constraints, &PruningConfig::all());
        assert!(fast.cuts.iter().all(|cut| !cut.contains(ld)));
        let oracle = exhaustive_cuts(&ctx, &constraints, true);
        assert_eq!(keys(&fast), keys(&oracle));
    }

    #[test]
    fn connected_only_mode_discards_disconnected_cuts() {
        // Two independent chains; a 2-output cut spanning both is valid but not
        // connected.
        let mut b = DfgBuilder::new("two-chains");
        let a1 = b.input("a1");
        let a2 = b.input("a2");
        let m1 = b.node(Operation::Not, &[a1]);
        let m2 = b.node(Operation::Not, &[a2]);
        let ctx = EnumContext::new(b.build().unwrap());
        let base = Constraints::new(2, 2).unwrap();
        let all = incremental(&ctx, &base, &PruningConfig::all());
        assert!(all.cuts.iter().any(|c| c.contains(m1) && c.contains(m2)));
        let connected = base.connected_only(true);
        let only_connected = incremental(&ctx, &connected, &PruningConfig::all());
        assert!(only_connected
            .cuts
            .iter()
            .all(|c| !(c.contains(m1) && c.contains(m2))));
        let oracle = exhaustive_cuts(&ctx, &connected, true);
        assert_eq!(keys(&only_connected), keys(&oracle));
    }

    #[test]
    fn connectedness_pruning_keeps_an_output_that_one_chosen_input_reaches() {
        // x = b + a and y = a + c share only the input a, so the cut {x, y} with
        // inputs {a, b, c} is connected. Whichever output is picked first, one of
        // its inputs does not reach the other output: the pruning may drop the
        // second output only when no chosen input reaches it, not when some input
        // misses it.
        let mut b = DfgBuilder::new("shared-input");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let x = b.node(Operation::Add, &[bb, a]);
        let y = b.node(Operation::Add, &[a, c]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(3, 2).unwrap().connected_only(true);
        let fast = incremental(&ctx, &constraints, &PruningConfig::all());
        assert!(fast
            .cuts
            .iter()
            .any(|cut| cut.contains(x) && cut.contains(y)));
        let oracle = exhaustive_cuts(&ctx, &constraints, true);
        assert_eq!(keys(&fast), keys(&oracle));
    }

    #[test]
    fn search_budget_truncates_the_search() {
        let ctx = figure1();
        let constraints = Constraints::new(4, 2).unwrap();
        let full = incremental(&ctx, &constraints, &PruningConfig::all());
        let options = EngineOptions {
            max_search_nodes: Some(2),
        };
        let truncated = incremental_cuts(&ctx, &constraints, &PruningConfig::all(), &options, None);
        assert!(truncated.stats.search_nodes <= full.stats.search_nodes);
        assert!(truncated.cuts.len() <= full.cuts.len());
    }

    #[test]
    fn cone_vertices_are_flushed_with_the_engine_counters() {
        let ctx = figure1();
        let constraints = Constraints::new(4, 2).unwrap();
        let registry = ise_obs::MetricsRegistry::new();
        let options = EngineOptions::default();
        let pruning = PruningConfig::all();
        let traced = incremental_cuts(&ctx, &constraints, &pruning, &options, Some(&registry));
        let plain = incremental(&ctx, &constraints, &pruning);
        assert_eq!(keys(&traced), keys(&plain));
        assert_eq!(traced.stats, plain.stats);
        let met = registry.counter_value("ise_engine_cone_vertices_total");
        assert!(met > 0, "no cone vertices recorded");
        // Every dominator run visits at least its target, and no run visits more
        // than the augmented graph.
        let runs = registry.counter_value("ise_engine_dominator_runs_total");
        assert_eq!(runs, plain.stats.dominator_runs as u64);
        assert!(met >= runs && met <= runs * ctx.rooted().num_nodes() as u64);
    }

    #[test]
    fn stats_reflect_pruning_activity() {
        let mut b = DfgBuilder::new("mem");
        let a = b.input("a");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.node(Operation::Add, &[ld, a]);
        let y = b.node(Operation::Shl, &[x]);
        let _z = b.node(Operation::Xor, &[y, x]);
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(3, 2).unwrap();
        let with = incremental(&ctx, &constraints, &PruningConfig::all());
        let without = incremental(&ctx, &constraints, &PruningConfig::none());
        assert_eq!(
            keys(&with),
            keys(&without),
            "pruning must not change the result"
        );
        assert!(with.stats.search_nodes <= without.stats.search_nodes);
        assert!(with.stats.dominator_runs > 0);
    }
}
