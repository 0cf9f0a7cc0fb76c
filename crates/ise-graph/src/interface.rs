//! Interface-labeled pattern graphs: the structural "pattern" view of a cut.
//!
//! A candidate custom instruction is a set of body vertices plus its *interface*: the
//! outside values it reads (inputs `I(S)`) and the values it exposes (outputs `O(S)`).
//! Two cuts in different basic blocks describe the same instruction exactly when their
//! interface-labeled subgraphs are isomorphic — same operations, same operand wiring
//! (order included), same input/output roles — regardless of the node ids the host
//! blocks happen to use.
//!
//! This module never derives an interface: a cut arrives as a [`CutLike`] that already
//! carries its own `I(S)` and `O(S)` (`ise-enum`'s `Cut` derives them once, when the
//! engine checks the candidate). [`RawEncoder`] numbers that interface and the body
//! over local dense ids and serializes the result into a flat word stream, the *raw
//! encoding*; [`InterfaceGraph`] is a read-only view over those words. Canonical-form
//! grouping (the `ise-canon` crate) keys its memo on the raw encoding and computes
//! canonical codes on the view.

use crate::bitset::DenseNodeSet;
use crate::graph::Dfg;
use crate::node::NodeId;
use crate::op::Operation;

/// A cut-shaped value: a body set plus its input and output vertices.
///
/// `ise-enum`'s `Cut` implements this (that crate depends on this one, so the trait
/// lives here). Pattern graphs ([`RawEncoder`], [`InterfaceGraph`]) and DOT
/// highlighting (`DotOptions::highlight`) read a cut only through these three views.
pub trait CutLike {
    /// The member vertices of the cut.
    fn body_set(&self) -> &DenseNodeSet;
    /// The input vertices `I(S)`: the operand producers outside the body, sorted by
    /// id.
    fn input_nodes(&self) -> &[NodeId];
    /// The output vertices `O(S)`: the members whose value is read outside the body
    /// or is live out of the block, sorted by id.
    fn output_nodes(&self) -> &[NodeId];
}

/// The label of an [`InterfaceGraph`] node.
///
/// Inputs deliberately forget the operation that produced them in the host block: a
/// value read over a register-file port is just a value, whoever computed it. Body
/// members keep their operation — that is the datapath being identified.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InterfaceLabel {
    /// A value produced outside the cut and read through an input port.
    Input,
    /// A body member computing `Operation`.
    Op(Operation),
}

impl InterfaceLabel {
    /// The stable small-integer key of this label combined with an output flag:
    /// inputs first, then body operations in the fixed [`Operation::all`] order,
    /// with the output flag as the low bit.
    ///
    /// This is the per-node word of the [raw encoding](RawEncoder::encode), which
    /// [`InterfaceGraph::key`] reads back and which is also the initial coloring of
    /// the canonical-labeling refinement in `ise-canon`.
    pub fn stable_key(self, is_output: bool) -> u32 {
        let label_rank = match self {
            InterfaceLabel::Input => 0,
            InterfaceLabel::Op(op) => {
                1 + Operation::all()
                    .iter()
                    .position(|&o| o == op)
                    .expect("every operation is listed in Operation::all")
                    as u32
            }
        };
        label_rank * 2 + u32::from(is_output)
    }
}

/// The interface-labeled subgraph of a cut: inputs plus body members over local dense
/// ids, with operand order preserved — a view over the cut's
/// [raw encoding](RawEncoder::encode).
///
/// Local ids are assigned input-nodes-first, each group in ascending original-id
/// order; this initial numbering is arbitrary (canonical codes are invariant under
/// it) but deterministic, which keeps extraction reproducible. The view holds the
/// encoded words, the index at which each node's words start, and each node's
/// original id; labels, output flags and operands are read from the words.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_graph::{
///     CutLike, DenseNodeSet, DfgBuilder, InterfaceGraph, InterfaceLabel, NodeId, Operation,
/// };
///
/// /// A cut that states its own interface.
/// struct Mac {
///     body: DenseNodeSet,
///     inputs: Vec<NodeId>,
///     outputs: Vec<NodeId>,
/// }
/// impl CutLike for Mac {
///     fn body_set(&self) -> &DenseNodeSet {
///         &self.body
///     }
///     fn input_nodes(&self) -> &[NodeId] {
///         &self.inputs
///     }
///     fn output_nodes(&self) -> &[NodeId] {
///         &self.outputs
///     }
/// }
///
/// let mut b = DfgBuilder::new("mac");
/// let a = b.input("a");
/// let x = b.input("x");
/// let acc = b.input("acc");
/// let mul = b.node(Operation::Mul, &[a, x]);
/// let sum = b.node(Operation::Add, &[mul, acc]);
/// b.mark_output(sum);
/// let dfg = b.build()?;
///
/// let cut = Mac {
///     body: DenseNodeSet::from_nodes(dfg.len(), [mul, sum]),
///     inputs: vec![a, x, acc],
///     outputs: vec![sum],
/// };
/// let g = InterfaceGraph::extract(&dfg, &cut);
/// assert_eq!(g.len(), 5); // 3 inputs + 2 body members
/// assert_eq!(g.num_inputs(), 3);
/// assert_eq!(g.label(g.len() - 1), InterfaceLabel::Op(Operation::Add));
/// assert!(g.is_output(g.len() - 1));
/// assert_eq!(g.operands(g.len() - 1), &[3, 2]); // add(mul, acc)
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceGraph {
    /// The raw encoding, as [`RawEncoder::encode`] wrote it.
    words: Vec<u32>,
    /// Index in `words` of each node's key word.
    starts: Vec<u32>,
    /// Original node id of each local node, for mapping results back to the block.
    original: Vec<NodeId>,
}

impl InterfaceGraph {
    /// The pattern graph of `cut`, a cut of `dfg`: [`RawEncoder::encode`] through a
    /// one-off encoder, then [`InterfaceGraph::from_encoding`].
    ///
    /// # Panics
    ///
    /// Panics as [`RawEncoder::encode`] does.
    pub fn extract(dfg: &Dfg, cut: &impl CutLike) -> Self {
        let mut words = Vec::new();
        RawEncoder::new(dfg).encode(dfg, cut, &mut words);
        InterfaceGraph::from_encoding(cut, words)
    }

    /// The view over `words`, which must be what [`RawEncoder::encode`] wrote for
    /// `cut`; the words are kept, not copied or re-derived.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not a well-formed encoding with one node per input and
    /// body member of `cut`.
    pub fn from_encoding(cut: &impl CutLike, words: Vec<u32>) -> Self {
        let original: Vec<NodeId> = cut
            .input_nodes()
            .iter()
            .copied()
            .chain(cut.body_set().iter())
            .collect();
        assert_eq!(
            (words[0] as usize, words[1] as usize),
            (original.len(), cut.input_nodes().len()),
            "the encoding must be the cut's"
        );
        let mut starts = Vec::with_capacity(original.len());
        let mut at = 2;
        for _ in 0..original.len() {
            starts.push(at as u32);
            at += 2 + words[at + 1] as usize;
        }
        assert_eq!(at, words.len(), "the encoding must end after its last node");
        InterfaceGraph {
            words,
            starts,
            original,
        }
    }

    /// Total number of nodes (inputs + body members).
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the graph has no nodes (the body was empty and had no inputs).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Number of input nodes; they occupy local ids `0..num_inputs()`.
    pub fn num_inputs(&self) -> usize {
        self.words[1] as usize
    }

    /// Number of body members.
    pub fn num_body(&self) -> usize {
        self.len() - self.num_inputs()
    }

    /// Number of output-flagged body members.
    pub fn num_outputs(&self) -> usize {
        (0..self.len()).filter(|&v| self.is_output(v)).count()
    }

    /// The [stable key](InterfaceLabel::stable_key) of local node `v`: its label
    /// and output flag in one word.
    pub fn key(&self, v: usize) -> u32 {
        self.words[self.starts[v] as usize]
    }

    /// The label of local node `v`.
    pub fn label(&self, v: usize) -> InterfaceLabel {
        match self.key(v) / 2 {
            0 => InterfaceLabel::Input,
            rank => InterfaceLabel::Op(Operation::all()[rank as usize - 1]),
        }
    }

    /// Whether local node `v` is an output of the cut.
    pub fn is_output(&self, v: usize) -> bool {
        self.key(v) & 1 == 1
    }

    /// The operands of local node `v` as local ids, in operand order. Input nodes
    /// have none (their producers are outside the interface).
    pub fn operands(&self, v: usize) -> &[u32] {
        let start = self.starts[v] as usize;
        &self.words[start + 2..start + 2 + self.words[start + 1] as usize]
    }

    /// The original block node id of local node `v`.
    pub fn original(&self, v: usize) -> NodeId {
        self.original[v]
    }

    /// The raw encoding this graph is a view over (see [`RawEncoder::encode`]).
    pub fn raw_encoding(&self) -> &[u32] {
        &self.words
    }

    /// The body operations as a sorted, counted summary string (for example
    /// `add+mul*2`) — a human-readable fingerprint for reports.
    pub fn ops_summary(&self) -> String {
        let mut mnemonics: Vec<&'static str> = (0..self.len())
            .filter_map(|v| match self.label(v) {
                InterfaceLabel::Input => None,
                InterfaceLabel::Op(op) => Some(op.mnemonic()),
            })
            .collect();
        mnemonics.sort_unstable();
        let mut parts: Vec<String> = Vec::new();
        let mut i = 0;
        while i < mnemonics.len() {
            let j = mnemonics[i..]
                .iter()
                .position(|m| *m != mnemonics[i])
                .map_or(mnemonics.len(), |k| i + k);
            if j - i == 1 {
                parts.push(mnemonics[i].to_string());
            } else {
                parts.push(format!("{}*{}", mnemonics[i], j - i));
            }
            i = j;
        }
        parts.join("+")
    }
}

/// Reusable scratch that writes the raw encoding of a cut: one local-id table sized
/// for the block, reused across every cut of it. An encoder is bound to the `Dfg` it
/// was created for.
///
/// On the memo hit path of `ise-canon` only the encoding is needed, to look up the
/// cached canonical code; on a miss the same words become the [`InterfaceGraph`]
/// ([`InterfaceGraph::from_encoding`]).
#[derive(Debug)]
pub struct RawEncoder {
    /// Local id of each original node, valid only for ids written during the
    /// current `encode` call (every id read was just written: operands are either
    /// members or inputs of the same cut).
    local: Vec<u32>,
}

impl RawEncoder {
    /// An encoder for cuts of `dfg`.
    pub fn new(dfg: &Dfg) -> Self {
        RawEncoder {
            local: vec![0; dfg.len()],
        }
    }

    /// Writes the raw encoding of `cut` into `out` (clearing it first). `dfg` must be
    /// the graph this encoder was created for.
    ///
    /// The encoding is a flat word stream over local ids:
    ///
    /// ```text
    /// [ n, num_inputs,
    ///   node 0: stable_key, arity, operand locals...,
    ///   node 1: ...,
    ///   ... ]
    /// ```
    ///
    /// where `stable_key` is [`InterfaceLabel::stable_key`] (label + output flag).
    /// Nodes are the cut's inputs, then its body members, each in ascending id
    /// order; a member is flagged as an output iff it is one of the cut's
    /// [`output_nodes`](CutLike::output_nodes). Because local ids are themselves
    /// derived deterministically from the host block, two cuts with equal raw
    /// encodings have *identical* — not merely isomorphic — interface graphs. The
    /// converse does not hold: isomorphic graphs may encode differently, which is
    /// exactly the gap canonical codes close. The memo in `ise-canon` keys on this
    /// encoding so the expensive labeler runs once per distinct raw graph.
    ///
    /// # Panics
    ///
    /// Panics if the cut's body has a smaller capacity than the graph (bodies sized
    /// for the augmented graph, two vertices larger, are accepted).
    pub fn encode(&mut self, dfg: &Dfg, cut: &impl CutLike, out: &mut Vec<u32>) {
        let body = cut.body_set();
        assert!(
            body.capacity() >= dfg.len(),
            "body capacity {} below graph size {}",
            body.capacity(),
            dfg.len()
        );
        debug_assert_eq!(self.local.len(), dfg.len(), "encoder bound to another dfg");
        let inputs = cut.input_nodes();
        for (v, local) in inputs.iter().copied().chain(body.iter()).zip(0u32..) {
            self.local[v.index()] = local;
        }

        out.clear();
        out.push((inputs.len() + body.len()) as u32);
        out.push(inputs.len() as u32);
        let input_key = InterfaceLabel::Input.stable_key(false);
        for _ in inputs {
            out.extend([input_key, 0]);
        }
        let mut outputs = cut.output_nodes().iter().peekable();
        for v in body.iter() {
            let is_output = outputs.next_if_eq(&&v).is_some();
            out.push(InterfaceLabel::Op(dfg.op(v)).stable_key(is_output));
            let preds = dfg.preds(v);
            out.push(preds.len() as u32);
            out.extend(preds.iter().map(|p| self.local[p.index()]));
        }
        debug_assert!(
            outputs.next().is_none(),
            "outputs must be body members, sorted by id"
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    /// A cut that states its interface outright: the test-local [`CutLike`].
    pub(crate) struct TestCut {
        pub(crate) body: DenseNodeSet,
        pub(crate) inputs: Vec<NodeId>,
        pub(crate) outputs: Vec<NodeId>,
    }

    impl TestCut {
        pub(crate) fn new(
            capacity: usize,
            body: &[NodeId],
            inputs: &[NodeId],
            outputs: &[NodeId],
        ) -> Self {
            TestCut {
                body: DenseNodeSet::from_nodes(capacity, body.iter().copied()),
                inputs: inputs.to_vec(),
                outputs: outputs.to_vec(),
            }
        }
    }

    impl CutLike for TestCut {
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

    /// a, c inputs; n = a + c; x = n << 1; y = n - c; z = x ^ y
    fn sample() -> (Dfg, [NodeId; 6]) {
        let mut b = DfgBuilder::new("iface");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Shl, &[n]);
        let y = b.node(Operation::Sub, &[n, c]);
        let z = b.node(Operation::Xor, &[x, y]);
        (b.build().unwrap(), [a, c, n, x, y, z])
    }

    #[test]
    fn extraction_numbers_the_interface_and_preserves_operand_order() {
        let (dfg, [a, c, n, x, y, z]) = sample();
        let cut = TestCut::new(dfg.len(), &[n, x, y, z], &[a, c], &[z]);
        let g = InterfaceGraph::extract(&dfg, &cut);
        assert_eq!(g.len(), 6);
        assert_eq!(g.num_inputs(), 2);
        assert_eq!(g.num_body(), 4);
        assert_eq!(g.num_outputs(), 1);
        // Inputs first, ascending original id.
        assert_eq!(g.original(0), a);
        assert_eq!(g.original(1), c);
        assert_eq!(g.label(0), InterfaceLabel::Input);
        assert!(g.operands(0).is_empty());
        // Body members in ascending original id; operand order preserved.
        let local_n = 2;
        assert_eq!(g.original(local_n), n);
        assert_eq!(g.label(local_n), InterfaceLabel::Op(Operation::Add));
        assert_eq!(g.operands(local_n), &[0, 1], "n = add(a, c)");
        let local_y = 4;
        assert_eq!(g.original(local_y), y);
        assert_eq!(g.operands(local_y), &[local_n as u32, 1], "y = sub(n, c)");
        // z is the cut's only output.
        assert!(g.is_output(5));
        assert!(!g.is_output(local_n));
    }

    #[test]
    fn output_flags_are_the_cuts_outputs() {
        let (dfg, [a, c, n, x, _, _]) = sample();
        // n feeds y outside the body, x feeds z outside: both are outputs.
        let cut = TestCut::new(dfg.len(), &[n, x], &[a, c], &[n, x]);
        let g = InterfaceGraph::extract(&dfg, &cut);
        assert_eq!(g.num_outputs(), 2);
        assert!(g.is_output(2) && g.is_output(3));
        assert_eq!(
            g.key(2),
            InterfaceLabel::Op(Operation::Add).stable_key(true)
        );
    }

    #[test]
    fn bodies_sized_for_the_augmented_graph_are_accepted() {
        let (dfg, [a, c, n, x, _, _]) = sample();
        let cut = TestCut::new(dfg.len() + 2, &[n, x], &[a, c], &[n, x]);
        let g = InterfaceGraph::extract(&dfg, &cut);
        assert_eq!(g.num_body(), 2);
    }

    #[test]
    fn raw_encoding_reflects_labels_wiring_and_flags() {
        let (dfg, [a, c, n, x, y, z]) = sample();
        let cut = TestCut::new(dfg.len(), &[n, x, y, z], &[a, c], &[z]);
        let mut raw = vec![99; 3];
        RawEncoder::new(&dfg).encode(&dfg, &cut, &mut raw);
        assert_eq!(raw[0], 6, "six local nodes");
        assert_eq!(raw[1], 2, "two inputs");
        // Two inputs: key 0, arity 0 each.
        assert_eq!(&raw[2..6], &[0, 0, 0, 0]);
        // n = add(a, c): non-output op, operands [0, 1].
        assert_eq!(raw[6], InterfaceLabel::Op(Operation::Add).stable_key(false));
        assert_eq!(&raw[7..10], &[2, 0, 1]);
        // The graph is a view over exactly these words.
        let g = InterfaceGraph::from_encoding(&cut, raw.clone());
        assert_eq!(g.raw_encoding(), raw);
        // Flipping an output flag changes the encoding.
        let smaller = TestCut::new(dfg.len(), &[n, x], &[a, c], &[n, x]);
        assert_ne!(
            g.raw_encoding(),
            InterfaceGraph::extract(&dfg, &smaller).raw_encoding()
        );
    }

    #[test]
    #[should_panic(expected = "the encoding must be the cut's")]
    fn a_foreign_encoding_is_rejected() {
        let (dfg, [a, c, n, x, y, z]) = sample();
        let whole = TestCut::new(dfg.len(), &[n, x, y, z], &[a, c], &[z]);
        let mut raw = Vec::new();
        RawEncoder::new(&dfg).encode(&dfg, &whole, &mut raw);
        let part = TestCut::new(dfg.len(), &[n, x], &[a, c], &[n, x]);
        let _ = InterfaceGraph::from_encoding(&part, raw);
    }

    #[test]
    fn ops_summary_counts_mnemonics() {
        let mut b = DfgBuilder::new("sum");
        let a = b.input("a");
        let m1 = b.node(Operation::Mul, &[a, a]);
        let m2 = b.node(Operation::Mul, &[m1, a]);
        let s = b.node(Operation::Add, &[m1, m2]);
        let dfg = b.build().unwrap();
        let cut = TestCut::new(dfg.len(), &[m1, m2, s], &[a], &[s]);
        let g = InterfaceGraph::extract(&dfg, &cut);
        assert_eq!(g.ops_summary(), "add+mul*2");
        assert!(!g.is_empty());
    }
}
