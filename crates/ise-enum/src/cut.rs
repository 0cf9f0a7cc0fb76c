//! Convex cuts: candidate instruction-set extensions.

use std::fmt;

use ise_graph::{CutLike, DenseNodeSet, NodeId};

use crate::config::Constraints;
use crate::context::EnumContext;

/// A cut of the data-flow graph: a candidate custom instruction (Definition 1/2).
///
/// A `Cut` stores the member vertices (the *body* `S`), the derived input vertices
/// `I(S)` (producers of values consumed by the cut but computed outside it) and the
/// derived output vertices `O(S)` (members whose value is consumed outside the cut,
/// including externally-visible values). Inputs and outputs are stored sorted, so two
/// cuts compare equal iff they are the same subgraph.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{Cut, EnumContext};
/// use ise_graph::{DenseNodeSet, DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let x = b.node(Operation::Shl, &[n]);
/// let ctx = EnumContext::new(b.build()?);
///
/// let body = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), [n, x]);
/// let cut = Cut::from_body(&ctx, body);
/// assert_eq!(cut.inputs(), &[a, c]);
/// assert_eq!(cut.outputs(), &[x]);
/// assert!(cut.is_convex(&ctx));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cut {
    body: DenseNodeSet,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

/// Allocation-free identity key of a [`Cut`], borrowing the packed words of its body
/// bit set (see [`Cut::key`]).
///
/// Keys of cuts from the *same* graph compare equal iff the cuts are the same subgraph;
/// comparing keys across different graphs is meaningless (indices refer to different
/// vertices).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CutKey<'a> {
    words: &'a [u64],
}

/// The reason a candidate cut was rejected by [`Cut::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CutRejection {
    /// The body is empty.
    Empty,
    /// The body contains a forbidden vertex (memory operation, external input, or the
    /// artificial source/sink).
    Forbidden(NodeId),
    /// The cut needs more register-file read ports than allowed.
    TooManyInputs(usize),
    /// The cut needs more register-file write ports than allowed.
    TooManyOutputs(usize),
    /// The cut is not convex.
    NotConvex,
    /// The cut violates the paper's input/output technical condition (§3): some input
    /// is reachable from the root only through other inputs.
    IoCondition(NodeId),
    /// The cut is not connected but only connected cuts were requested.
    Disconnected,
    /// The cut exceeds the configured depth limit.
    TooDeep(u32),
}

impl Cut {
    /// Builds a cut from its body, deriving the input and output sets.
    ///
    /// Inputs are predecessors (in the original graph) of body members that are not
    /// themselves members; outputs are members with a successor outside the body *in
    /// the augmented graph*, so that externally-visible values (members of `Oext`,
    /// which feed the artificial sink) count against the output-port budget.
    pub fn from_body(ctx: &EnumContext, body: DenseNodeSet) -> Self {
        debug_assert_eq!(body.capacity(), ctx.rooted().num_nodes());
        let mut input_set = ctx.rooted().node_set();
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        derive_interface(ctx, &body, &mut input_set, &mut inputs, &mut outputs);
        Cut {
            body,
            inputs,
            outputs,
        }
    }

    /// The member vertices of the cut.
    pub fn body(&self) -> &DenseNodeSet {
        &self.body
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the cut has no members.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Whether `node` is a member of the cut.
    pub fn contains(&self, node: NodeId) -> bool {
        self.body.contains(node)
    }

    /// The input vertices `I(S)`, sorted by node id.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The output vertices `O(S)`, sorted by node id.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// A compact, allocation-free key identifying the cut within its graph.
    ///
    /// The key borrows the packed words of the body bit set: two cuts of the same graph
    /// have equal keys iff they are the same subgraph (and by Theorem 2 a convex cut is
    /// equally identified by its input/output sets, which earlier revisions used as the
    /// key at the cost of two vector clones per call). Keys are `Ord` and `Hash`
    /// (hashed one 64-bit word at a time), so they can be sorted and set-collected for
    /// cross-algorithm comparisons.
    pub fn key(&self) -> CutKey<'_> {
        CutKey {
            words: self.body.words(),
        }
    }

    /// Whether the cut is convex (Definition 2): no path between two members leaves the
    /// cut.
    ///
    /// Checked through an equivalent formulation that is linear in the (small) input
    /// set instead of the body: a body is convex iff no derived input is reachable
    /// from a body member. (If a path between members leaves the cut, the last outside
    /// vertex before re-entry is a predecessor of a member — an input — reachable from
    /// the first member; conversely a member-reachable input `w` yields the escaping
    /// path member → `w` → member, since `w` feeds a member by definition.)
    pub fn is_convex(&self, ctx: &EnumContext) -> bool {
        is_convex(ctx, &self.body, &self.inputs)
    }

    /// Whether the cut satisfies the paper's technical input condition (§3): for every
    /// input `w` there is a path from the root to `w` that avoids all other inputs (so
    /// that `w` genuinely feeds the cut rather than only other inputs).
    ///
    /// Checked per input as a backward walk from `w` over its ancestor cone that never
    /// enters another input: the condition fails iff that walk cannot reach the root,
    /// i.e. iff the other inputs dominate `w` (`EnumContext::set_dominates_in`).
    ///
    /// Returns the first offending input on failure.
    pub fn io_condition_violation(&self, ctx: &EnumContext) -> Option<NodeId> {
        let mut scratch = InterfaceScratch::new(ctx);
        scratch.load_inputs(&self.inputs);
        scratch.io_condition_violation(ctx, &self.inputs)
    }

    /// Whether the cut is connected (Definition 4): it has a single output, or every
    /// pair of outputs shares an input that reaches both.
    pub fn is_connected(&self, ctx: &EnumContext) -> bool {
        is_connected(ctx, &self.inputs, &self.outputs)
    }

    /// The depth of the cut: the number of edges on the longest path that stays inside
    /// the body. Single-node cuts have depth 0.
    pub fn depth(&self, ctx: &EnumContext) -> u32 {
        InterfaceScratch::new(ctx).body_depth(ctx, &self.body)
    }

    /// Checks the cut against the full validity definition of §3: non-empty, free of
    /// forbidden vertices, within the input/output port budget, convex, satisfying the
    /// technical input condition, and — if requested by `constraints` — connected and
    /// within the depth limit.
    ///
    /// When `require_io_condition` is `false` the technical condition is not enforced;
    /// this is how the exhaustive baseline of Pozzi et al. defines validity.
    ///
    /// These are the same rules the enumeration engine's [`CutChecker`] applies to
    /// every candidate, here applied to the cut's stored interface.
    ///
    /// # Errors
    ///
    /// Returns the first [`CutRejection`] encountered.
    pub fn validate(
        &self,
        ctx: &EnumContext,
        constraints: &Constraints,
        require_io_condition: bool,
    ) -> Result<(), CutRejection> {
        check_members(ctx, &self.body)?;
        let mut scratch = InterfaceScratch::new(ctx);
        scratch.load_inputs(&self.inputs);
        scratch.check_interface(
            ctx,
            constraints,
            require_io_condition,
            &self.body,
            &self.inputs,
            &self.outputs,
        )
    }
}

/// Derives `I(S)` and `O(S)` of `body`: inputs are predecessors (in the original
/// graph) of members that are not themselves members, sorted by id and left in
/// `input_set` as well; outputs are members with a successor outside the body in the
/// augmented graph (so values that feed the sink count), in id order. Every buffer is
/// cleared first.
fn derive_interface(
    ctx: &EnumContext,
    body: &DenseNodeSet,
    input_set: &mut DenseNodeSet,
    inputs: &mut Vec<NodeId>,
    outputs: &mut Vec<NodeId>,
) {
    let rooted = ctx.rooted();
    input_set.clear();
    outputs.clear();
    for v in body.iter() {
        // Inputs: real operand producers outside the cut (skip the artificial source
        // feeding roots).
        for &p in rooted.preds(v) {
            if !body.contains(p) && p != rooted.source() {
                input_set.insert(p);
            }
        }
        // Outputs: any consumer outside the cut, including the artificial sink.
        if rooted.succs(v).iter().any(|s| !body.contains(*s)) {
            outputs.push(v);
        }
    }
    inputs.clear();
    inputs.extend(input_set.iter());
}

/// The membership rules of validity: the body is non-empty and holds no forbidden
/// vertex (reporting the lowest-numbered one).
fn check_members(ctx: &EnumContext, body: &DenseNodeSet) -> Result<(), CutRejection> {
    if body.is_empty() {
        return Err(CutRejection::Empty);
    }
    let forbidden = ctx.rooted().forbidden();
    for (i, (b, f)) in body.words().iter().zip(forbidden.words()).enumerate() {
        let hit = b & f;
        if hit != 0 {
            let v = NodeId::from_index(i * 64 + hit.trailing_zeros() as usize);
            return Err(CutRejection::Forbidden(v));
        }
    }
    Ok(())
}

fn is_convex(ctx: &EnumContext, body: &DenseNodeSet, inputs: &[NodeId]) -> bool {
    inputs
        .iter()
        .all(|&w| ctx.reach().ancestors(w).is_disjoint(body))
}

fn is_connected(ctx: &EnumContext, inputs: &[NodeId], outputs: &[NodeId]) -> bool {
    let reach = ctx.reach();
    outputs.iter().enumerate().all(|(i, &o1)| {
        outputs[i + 1..].iter().all(|&o2| {
            inputs
                .iter()
                .any(|&inp| reach.reaches(inp, o1) && reach.reaches(inp, o2))
        })
    })
}

/// Reusable scratch of the interface rules: the input set, the buffers of the
/// backward dominance walk, and the per-vertex depths.
#[derive(Clone, Debug)]
struct InterfaceScratch {
    /// The candidate's inputs as a set; members are removed and restored one at a
    /// time by the technical-condition walk.
    input_set: DenseNodeSet,
    visited: DenseNodeSet,
    stack: Vec<NodeId>,
    depth: Vec<u32>,
}

impl InterfaceScratch {
    fn new(ctx: &EnumContext) -> Self {
        InterfaceScratch {
            input_set: ctx.rooted().node_set(),
            visited: ctx.rooted().node_set(),
            stack: Vec::new(),
            depth: Vec::new(),
        }
    }

    fn load_inputs(&mut self, inputs: &[NodeId]) {
        self.input_set.clear();
        self.input_set.extend(inputs.iter().copied());
    }

    /// The interface rules of validity, in order: port budgets, convexity, the
    /// technical input condition (when required), connectedness and depth (when
    /// constrained). `input_set` must hold exactly `inputs`.
    fn check_interface(
        &mut self,
        ctx: &EnumContext,
        constraints: &Constraints,
        require_io_condition: bool,
        body: &DenseNodeSet,
        inputs: &[NodeId],
        outputs: &[NodeId],
    ) -> Result<(), CutRejection> {
        if inputs.len() > constraints.max_inputs() {
            return Err(CutRejection::TooManyInputs(inputs.len()));
        }
        if outputs.len() > constraints.max_outputs() {
            return Err(CutRejection::TooManyOutputs(outputs.len()));
        }
        if !is_convex(ctx, body, inputs) {
            return Err(CutRejection::NotConvex);
        }
        if require_io_condition {
            if let Some(w) = self.io_condition_violation(ctx, inputs) {
                return Err(CutRejection::IoCondition(w));
            }
        }
        if constraints.is_connected_only() && !is_connected(ctx, inputs, outputs) {
            return Err(CutRejection::Disconnected);
        }
        if let Some(limit) = constraints.max_depth() {
            let d = self.body_depth(ctx, body);
            if d > limit {
                return Err(CutRejection::TooDeep(d));
            }
        }
        Ok(())
    }

    /// The first input `w` (in `inputs` order) that the other inputs dominate:
    /// `set_dominates_in(I ∖ {w}, w)`, a backward walk over `w`'s ancestor cone.
    /// `input_set` must hold exactly `inputs`, and does again on return.
    fn io_condition_violation(&mut self, ctx: &EnumContext, inputs: &[NodeId]) -> Option<NodeId> {
        inputs.iter().copied().find(|&w| {
            self.input_set.remove(w);
            let hidden =
                ctx.set_dominates_in(&self.input_set, w, &mut self.visited, &mut self.stack);
            self.input_set.insert(w);
            hidden
        })
    }

    /// Longest path, in edges, that stays inside `body`.
    fn body_depth(&mut self, ctx: &EnumContext, body: &DenseNodeSet) -> u32 {
        let rooted = ctx.rooted();
        self.depth.resize(rooted.num_nodes(), 0);
        for v in body.iter() {
            self.depth[v.index()] = 0;
        }
        let mut max = 0;
        for &v in ctx.dfg().topological_order() {
            if !body.contains(v) {
                continue;
            }
            for &s in rooted.succs(v) {
                if body.contains(s) {
                    let d = self.depth[s.index()].max(self.depth[v.index()] + 1);
                    self.depth[s.index()] = d;
                    max = max.max(d);
                }
            }
        }
        max
    }
}

/// `CHECK-CUT`'s validity test with reusable scratch: derives a candidate body's
/// `I(S)` and `O(S)` into its own buffers and checks them with the same rules as
/// [`Cut::validate`], so a [`Cut`] is materialized only for valid candidates. The
/// enumeration engine keeps one per run; after the first few candidates a check
/// allocates nothing.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{Constraints, Cut, CutChecker, CutRejection, EnumContext};
/// use ise_graph::{DenseNodeSet, DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let n = b.node(Operation::Not, &[a]);
/// let x = b.node(Operation::Shl, &[n]);
/// let ctx = EnumContext::new(b.build()?);
/// let constraints = Constraints::new(2, 1)?;
/// let mut checker = CutChecker::new(&ctx);
///
/// let body = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), [n, x]);
/// assert_eq!(checker.check(&ctx, &constraints, &body, true), Ok(()));
/// assert_eq!(Cut::from_body(&ctx, body).validate(&ctx, &constraints, true), Ok(()));
///
/// let holey = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), [a, x]);
/// assert_eq!(
///     checker.check(&ctx, &constraints, &holey, true),
///     Err(CutRejection::Forbidden(a))
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CutChecker {
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    scratch: InterfaceScratch,
}

impl CutChecker {
    /// Creates a checker with buffers sized for `ctx`'s graph.
    pub fn new(ctx: &EnumContext) -> Self {
        CutChecker {
            inputs: Vec::new(),
            outputs: Vec::new(),
            scratch: InterfaceScratch::new(ctx),
        }
    }

    /// Checks `body` against the full validity definition of §3 — the verdict
    /// `Cut::from_body(ctx, body).validate(..)` returns — without building a cut.
    ///
    /// # Errors
    ///
    /// Returns the first [`CutRejection`] encountered, as [`Cut::validate`] does.
    ///
    /// # Panics
    ///
    /// Panics if the checker or `body` was sized for a different graph than `ctx`'s.
    pub fn check(
        &mut self,
        ctx: &EnumContext,
        constraints: &Constraints,
        body: &DenseNodeSet,
        require_io_condition: bool,
    ) -> Result<(), CutRejection> {
        check_members(ctx, body)?;
        derive_interface(
            ctx,
            body,
            &mut self.scratch.input_set,
            &mut self.inputs,
            &mut self.outputs,
        );
        self.scratch.check_interface(
            ctx,
            constraints,
            require_io_condition,
            body,
            &self.inputs,
            &self.outputs,
        )
    }

    /// The cut of `body`, which must be the body last passed to a successful
    /// [`CutChecker::check`]: its derived interface is copied, not re-derived (debug
    /// builds re-derive it and assert that the two agree).
    pub(crate) fn cut(&self, ctx: &EnumContext, body: DenseNodeSet) -> Cut {
        let cut = Cut {
            body,
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
        };
        debug_assert_eq!(
            Cut::from_body(ctx, cut.body.clone()),
            cut,
            "the body must be the one last checked"
        );
        cut
    }

    /// Whether `set` blocks every source path to `target`, as
    /// [`EnumContext::set_dominates_in`] decides it, in the checker's walk buffers
    /// (the engine's dominator–input pruning shares them).
    pub(crate) fn set_dominates(
        &mut self,
        ctx: &EnumContext,
        set: &DenseNodeSet,
        target: NodeId,
    ) -> bool {
        ctx.set_dominates_in(
            set,
            target,
            &mut self.scratch.visited,
            &mut self.scratch.stack,
        )
    }
}

impl CutLike for Cut {
    fn body_set(&self) -> &DenseNodeSet {
        &self.body
    }

    fn input_nodes(&self) -> &[NodeId] {
        &self.inputs
    }

    fn output_nodes(&self) -> &[NodeId] {
        &self.outputs
    }
}

impl fmt::Debug for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cut")
            .field("body", &self.body)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cut of {} nodes, {} inputs, {} outputs",
            self.len(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_graph::{DfgBuilder, Operation};

    /// a, c inputs; n = a + c; x = n << 1; y = n - c; z = x ^ y; store(z)
    fn sample() -> (EnumContext, [NodeId; 7]) {
        let mut b = DfgBuilder::new("cut");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Shl, &[n]);
        let y = b.node(Operation::Sub, &[n, c]);
        let z = b.node(Operation::Xor, &[x, y]);
        let st = b.node(Operation::Store, &[z]);
        let ctx = EnumContext::new(b.build().unwrap());
        (ctx, [a, c, n, x, y, z, st])
    }

    fn cut_of(ctx: &EnumContext, nodes: &[NodeId]) -> Cut {
        Cut::from_body(
            ctx,
            DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), nodes.iter().copied()),
        )
    }

    #[test]
    fn inputs_and_outputs_are_derived() {
        let (ctx, [a, c, n, x, y, z, _]) = sample();
        let cut = cut_of(&ctx, &[n, x, y, z]);
        assert_eq!(cut.inputs(), &[a, c]);
        assert_eq!(cut.outputs(), &[z]);
        assert_eq!(cut.len(), 4);
        assert!(cut.contains(x));
        assert!(!cut.contains(a));
        assert!(!cut.is_empty());
    }

    #[test]
    fn internal_fanout_to_outside_creates_outputs() {
        let (ctx, [a, c, n, x, _, _, _]) = sample();
        let cut = cut_of(&ctx, &[n, x]);
        // n also feeds y, which is outside, so n is an output too.
        assert_eq!(cut.outputs(), &[n, x]);
        assert_eq!(cut.inputs(), &[a, c]);
    }

    #[test]
    fn external_outputs_count_via_the_sink() {
        let mut b = DfgBuilder::new("liveout");
        let a = b.input("a");
        let n = b.node(Operation::Not, &[a]);
        let m = b.node(Operation::Add, &[n, a]);
        b.mark_output(n); // n is live out of the block
        let ctx = EnumContext::new(b.build().unwrap());
        let cut = cut_of(&ctx, &[n, m]);
        assert_eq!(
            cut.outputs(),
            &[n, m],
            "live-out n must occupy a write port"
        );
    }

    #[test]
    fn convexity_detects_holes() {
        let (ctx, [_, _, n, x, y, z, _]) = sample();
        assert!(cut_of(&ctx, &[n, x, y, z]).is_convex(&ctx));
        assert!(cut_of(&ctx, &[n, x]).is_convex(&ctx));
        // n and z without the middle layer is not convex: n -> x -> z leaves the cut.
        assert!(!cut_of(&ctx, &[n, z]).is_convex(&ctx));
        // x and y are incomparable, so {x, y} is convex even though disconnected-ish.
        assert!(cut_of(&ctx, &[x, y]).is_convex(&ctx));
    }

    #[test]
    fn io_condition_flags_inputs_hidden_behind_inputs() {
        // r -> i -> x -> z -> y -> o1; i -> y   (z's only root path goes through i)
        let mut b = DfgBuilder::new("hidden");
        let i = b.input("i");
        let x = b.node(Operation::Not, &[i]);
        let z = b.node(Operation::Shl, &[x]);
        let y = b.node(Operation::Add, &[z, i]);
        let o1 = b.node(Operation::Xor, &[y]);
        let ctx = EnumContext::new(b.build().unwrap());
        let cut = cut_of(&ctx, &[y, o1]);
        assert_eq!(cut.inputs(), &[i, z]);
        // Every source path to z goes through the other input i.
        assert_eq!(cut.io_condition_violation(&ctx), Some(z));
        // The full cone has no such problem.
        let full = cut_of(&ctx, &[x, z, y, o1]);
        assert_eq!(full.io_condition_violation(&ctx), None);
    }

    #[test]
    fn connectedness_requires_a_shared_input() {
        let (ctx, [_, _, _n, x, y, _, _]) = sample();
        // x and y share the input n.
        let cut = cut_of(&ctx, &[x, y]);
        assert!(cut.is_connected(&ctx));
        // Two unrelated single-node cuts in one: build a graph with two components.
        let mut b = DfgBuilder::new("two");
        let a1 = b.input("a1");
        let a2 = b.input("a2");
        let m1 = b.node(Operation::Not, &[a1]);
        let m2 = b.node(Operation::Not, &[a2]);
        let ctx2 = EnumContext::new(b.build().unwrap());
        let cut2 = cut_of(&ctx2, &[m1, m2]);
        assert!(!cut2.is_connected(&ctx2));
        assert!(cut_of(&ctx2, &[m1]).is_connected(&ctx2));
    }

    #[test]
    fn depth_measures_internal_paths() {
        let (ctx, [_, _, n, x, y, z, _]) = sample();
        assert_eq!(cut_of(&ctx, &[n]).depth(&ctx), 0);
        assert_eq!(cut_of(&ctx, &[n, x]).depth(&ctx), 1);
        assert_eq!(cut_of(&ctx, &[n, x, y, z]).depth(&ctx), 2);
        assert_eq!(cut_of(&ctx, &[x, y]).depth(&ctx), 0);
    }

    #[test]
    fn validate_applies_every_rule() {
        let (ctx, [_, _, n, x, y, z, st]) = sample();
        let four = Constraints::new(4, 2).unwrap();
        assert!(cut_of(&ctx, &[n, x, y, z])
            .validate(&ctx, &four, true)
            .is_ok());

        let narrow = Constraints::new(1, 2).unwrap();
        assert_eq!(
            cut_of(&ctx, &[n, x, y, z]).validate(&ctx, &narrow, true),
            Err(CutRejection::TooManyInputs(2))
        );
        let one_out = Constraints::new(4, 1).unwrap();
        assert_eq!(
            cut_of(&ctx, &[n, x]).validate(&ctx, &one_out, true),
            Err(CutRejection::TooManyOutputs(2))
        );
        assert_eq!(
            cut_of(&ctx, &[n, z]).validate(&ctx, &four, true),
            Err(CutRejection::NotConvex)
        );
        assert_eq!(
            cut_of(&ctx, &[st]).validate(&ctx, &four, true),
            Err(CutRejection::Forbidden(st))
        );
        let empty = Cut::from_body(&ctx, ctx.rooted().node_set());
        assert_eq!(empty.validate(&ctx, &four, true), Err(CutRejection::Empty));
        let deep = Constraints::new(4, 2).unwrap().with_max_depth(1);
        assert_eq!(
            cut_of(&ctx, &[n, x, y, z]).validate(&ctx, &deep, true),
            Err(CutRejection::TooDeep(2))
        );
    }

    #[test]
    fn validate_connectedness_only_when_requested() {
        let mut b = DfgBuilder::new("two");
        let a1 = b.input("a1");
        let a2 = b.input("a2");
        let m1 = b.node(Operation::Not, &[a1]);
        let m2 = b.node(Operation::Not, &[a2]);
        let ctx = EnumContext::new(b.build().unwrap());
        let cut = Cut::from_body(
            &ctx,
            DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), [m1, m2]),
        );
        let free = Constraints::new(4, 2).unwrap();
        assert!(cut.validate(&ctx, &free, true).is_ok());
        let connected = free.clone().connected_only(true);
        assert_eq!(
            cut.validate(&ctx, &connected, true),
            Err(CutRejection::Disconnected)
        );
    }

    #[test]
    fn cut_like_views_match_the_accessors() {
        let (ctx, [_, _, n, x, _, _, _]) = sample();
        let cut = cut_of(&ctx, &[n, x]);
        assert_eq!(CutLike::body_set(&cut), cut.body());
        assert_eq!(CutLike::input_nodes(&cut), cut.inputs());
        assert_eq!(CutLike::output_nodes(&cut), cut.outputs());
    }

    #[test]
    fn key_and_display() {
        let (ctx, [_, _, n, x, y, _, _]) = sample();
        let cut = cut_of(&ctx, &[n, x]);
        let same = cut_of(&ctx, &[n, x]);
        let other = cut_of(&ctx, &[n, y]);
        assert_eq!(cut.key(), same.key(), "equal bodies give equal keys");
        assert_ne!(
            cut.key(),
            other.key(),
            "different bodies give different keys"
        );
        // Keys are ordered and hashable without allocating.
        let mut keys = [other.key(), cut.key()];
        keys.sort();
        let set: std::collections::HashSet<_> = keys.iter().copied().collect();
        assert_eq!(set.len(), 2);
        let text = cut.to_string();
        assert!(text.contains("2 nodes"));
        assert!(format!("{cut:?}").contains("inputs"));
    }
}
