//! Deterministic canonical codes for interface-labeled pattern graphs.
//!
//! Two cuts describe the same custom instruction exactly when their
//! [`InterfaceGraph`]s are isomorphic: same labels, same operand wiring (order
//! included), same output flags. This module computes a *canonical code* — a
//! serialized form with the property that codes are equal **iff** the graphs are
//! isomorphic — so that recognizing recurrence reduces to hashing bytes.
//!
//! The algorithm is the classic individualization–refinement scheme specialized to
//! these small DAGs:
//!
//! 1. **Iterative refinement.** Nodes start colored by `(label, is-output)` and are
//!    repeatedly re-colored by the signature `(own color, operand colors *in operand
//!    order*, sorted (operand-position, color) pairs of their consumers)` until the
//!    partition stabilizes. Every step is an isomorphism invariant, so isomorphic
//!    graphs always refine to corresponding partitions.
//! 2. **Backtracking canonical labeling.** If the stable partition is not discrete
//!    (true automorphisms remain — e.g. two identical disconnected components), the
//!    first non-singleton color class is split by individualizing each member in
//!    turn, refining, and recursing; the lexicographically smallest serialization
//!    over all discrete leaves is the code. Candidate cuts are small (the I/O
//!    constraints bound their interface and operand positions break almost all
//!    symmetry), so the backtracking is cheap in practice.
//!
//! See DESIGN.md §6 for the soundness and completeness argument.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ise_graph::InterfaceGraph;

/// The canonical code of an [`InterfaceGraph`]: equal codes ⇔ isomorphic graphs.
///
/// The code is an explicit serialization of the graph under its canonical node
/// order (not just a hash), so equality is exact — no collision risk in the
/// grouping maps. [`CanonicalCode::hash64`] provides a compact digest for display.
///
/// # Example
///
/// ```
/// use ise_canon::CanonicalCode;
/// use ise_enum::{Cut, EnumContext};
/// use ise_graph::{DenseNodeSet, DfgBuilder, InterfaceGraph, NodeId, Operation};
///
/// // The code of the cut with body `[m, s]` of `ctx`'s block.
/// let code = |ctx: &EnumContext, m: NodeId, s: NodeId| {
///     let body = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), [m, s]);
///     let cut = Cut::from_body(ctx, body);
///     CanonicalCode::of(&InterfaceGraph::extract(ctx.dfg(), &cut))
/// };
///
/// // The same MAC expressed with different node orders gets the same code.
/// let mut b = DfgBuilder::new("one");
/// let a = b.input("a");
/// let x = b.input("x");
/// let m = b.node(Operation::Mul, &[a, x]);
/// let acc = b.input("acc");
/// let s = b.node(Operation::Add, &[m, acc]);
/// let code_one = code(&EnumContext::new(b.build().unwrap()), m, s);
///
/// let mut b = DfgBuilder::new("two");
/// let acc = b.input("acc");
/// let x = b.input("x");
/// let a = b.input("a");
/// let m = b.node(Operation::Mul, &[a, x]);
/// let s = b.node(Operation::Add, &[m, acc]);
/// let code_two = code(&EnumContext::new(b.build().unwrap()), m, s);
///
/// assert_eq!(code_one, code_two);
/// ```
#[derive(Clone, Debug)]
pub struct CanonicalCode {
    /// The serialized words under the canonical node order — shared, because the
    /// memo and the pattern index clone codes freely and the words never mutate.
    words: Arc<[u32]>,
    /// 64-bit digest of `words`, computed once at construction. Backs [`hash64`]
    /// (`hex()` pattern ids, every report row) and fast-paths `Hash`/`Eq`, which
    /// matter for the memo and grouping maps keyed by code.
    ///
    /// [`hash64`]: Self::hash64
    digest: u64,
}

/// Equality fast-paths on the digest: different digests prove different words, equal
/// digests are confirmed by the full word comparison (so collisions stay harmless).
impl PartialEq for CanonicalCode {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.words == other.words
    }
}

impl Eq for CanonicalCode {}

/// Ordering compares words only — the digest is derived, so this is consistent with
/// `Eq` by construction.
impl Ord for CanonicalCode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words.cmp(&other.words)
    }
}

impl PartialOrd for CanonicalCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashing writes only the precomputed digest: `HashMap<CanonicalCode, _>` lookups
/// no longer re-walk the word vector.
impl Hash for CanonicalCode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl CanonicalCode {
    fn from_words(words: Vec<u32>) -> CanonicalCode {
        let digest = digest_words(&words);
        CanonicalCode {
            words: words.into(),
            digest,
        }
    }

    /// Computes the canonical code of `graph`.
    pub fn of(graph: &InterfaceGraph) -> CanonicalCode {
        let n = graph.len();
        if n == 0 {
            return CanonicalCode::from_words(vec![0]);
        }
        // Reverse adjacency with operand positions: consumers[v] lists every
        // (position, consumer) pair where `consumer` reads `v` at `position`.
        let mut consumers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for v in 0..n {
            for (pos, &o) in graph.operands(v).iter().enumerate() {
                consumers[o as usize].push((pos as u32, v as u32));
            }
        }

        let mut colors: Vec<u32> = (0..n).map(|v| graph.key(v)).collect();
        rank_dense(&mut colors);
        refine(graph, &consumers, &mut colors);

        let mut best: Option<Vec<u32>> = None;
        search(graph, &consumers, colors, &mut best);
        CanonicalCode::from_words(best.expect("the search visits at least one discrete leaf"))
    }

    /// The 64-bit digest of the code (FNV-1a with a finalizer), precomputed at
    /// construction, for compact display. Grouping itself always compares full
    /// codes, never digests.
    pub fn hash64(&self) -> u64 {
        self.digest
    }

    /// The digest as a fixed-width lower-case hex string — the pattern id shown in
    /// reports.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash64())
    }
}

/// FNV-1a over the little-endian word bytes with a murmur-style finalizer, so
/// truncations of the digest stay well mixed. Also the default fingerprint of the
/// memo's raw encodings (`memo::CanonMemo`).
pub(crate) fn digest_words(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Re-ranks arbitrary color values into dense ranks `0..k`, preserving order.
fn rank_dense(colors: &mut [u32]) {
    let mut distinct: Vec<u32> = colors.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for c in colors.iter_mut() {
        *c = distinct.partition_point(|&d| d < *c) as u32;
    }
}

fn class_count(colors: &[u32]) -> usize {
    let mut distinct: Vec<u32> = colors.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

/// Refines `colors` to the coarsest stable partition: each round re-colors every
/// node by its structural signature and stops when no class splits further.
/// Signatures embed the previous color, so classes never merge and the loop is
/// bounded by `n` rounds.
fn refine(graph: &InterfaceGraph, consumers: &[Vec<(u32, u32)>], colors: &mut [u32]) {
    let n = graph.len();
    let mut classes = class_count(colors);
    loop {
        let mut signatures: Vec<Vec<u64>> = Vec::with_capacity(n);
        for v in 0..n {
            let mut sig: Vec<u64> = Vec::with_capacity(3 + graph.operands(v).len());
            sig.push(u64::from(colors[v]));
            sig.push(u64::MAX); // separator: operand list follows, in operand order
            sig.extend(
                graph
                    .operands(v)
                    .iter()
                    .map(|&o| u64::from(colors[o as usize])),
            );
            sig.push(u64::MAX); // separator: consumer multiset follows, sorted
            let mut cons: Vec<u64> = consumers[v]
                .iter()
                .map(|&(pos, c)| (u64::from(pos) << 32) | u64::from(colors[c as usize]))
                .collect();
            cons.sort_unstable();
            sig.extend(cons);
            signatures.push(sig);
        }
        let mut distinct: Vec<&Vec<u64>> = signatures.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        for (v, color) in colors.iter_mut().enumerate() {
            *color = distinct.partition_point(|s| *s < &signatures[v]) as u32;
        }
        let new_classes = distinct.len();
        if new_classes == classes {
            return;
        }
        classes = new_classes;
    }
}

/// Explores the individualization–refinement tree, keeping the lexicographically
/// smallest serialization over all discrete leaves in `best`. `colors` must already
/// be refined.
fn search(
    graph: &InterfaceGraph,
    consumers: &[Vec<(u32, u32)>],
    colors: Vec<u32>,
    best: &mut Option<Vec<u32>>,
) {
    let n = graph.len();
    if class_count(&colors) == n {
        let code = serialize(graph, &colors);
        if best.as_ref().is_none_or(|b| code < *b) {
            *best = Some(code);
        }
        return;
    }
    // The target cell — the first color with several members — is an isomorphism
    // invariant, so corresponding cells are split in corresponding graphs.
    let target = (0..n as u32)
        .find(|&c| colors.iter().filter(|&&x| x == c).count() > 1)
        .expect("a non-discrete partition has a non-singleton class");
    for v in 0..n {
        if colors[v] != target {
            continue;
        }
        // Individualize v: order it strictly before the rest of its class, then
        // refine. Doubling preserves the relative order of all other classes.
        let mut next: Vec<u32> = colors.iter().map(|&c| c * 2 + 1).collect();
        next[v] -= 1;
        rank_dense(&mut next);
        refine(graph, consumers, &mut next);
        search(graph, consumers, next, best);
    }
}

/// Serializes the graph under a discrete coloring (`colors[v]` is the canonical
/// position of `v`): node count, then per canonical position the label, output flag
/// and operand list as canonical positions, in operand order. Equal serializations
/// reconstruct identical graphs, which is what makes the code complete.
fn serialize(graph: &InterfaceGraph, colors: &[u32]) -> Vec<u32> {
    let n = graph.len();
    let mut by_position: Vec<usize> = vec![0; n];
    for (v, &c) in colors.iter().enumerate() {
        by_position[c as usize] = v;
    }
    let mut code = Vec::with_capacity(1 + 3 * n);
    code.push(n as u32);
    for &v in &by_position {
        code.push(graph.key(v));
        code.push(graph.operands(v).len() as u32);
        code.extend(graph.operands(v).iter().map(|&o| colors[o as usize]));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_enum::{Cut, EnumContext};
    use ise_graph::{DenseNodeSet, Dfg, DfgBuilder, NodeId, Operation};

    fn whole_body(dfg: &Dfg) -> DenseNodeSet {
        DenseNodeSet::from_nodes(dfg.len(), dfg.node_ids().filter(|&v| !dfg.is_forbidden(v)))
    }

    /// The code of the cut of `dfg` whose body is `body`.
    fn code_of(dfg: &Dfg, body: &DenseNodeSet) -> CanonicalCode {
        let ctx = EnumContext::new(dfg.clone());
        let body = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), body.iter());
        CanonicalCode::of(&InterfaceGraph::extract(dfg, &Cut::from_body(&ctx, body)))
    }

    #[test]
    fn node_order_does_not_change_the_code() {
        // y = (a + c) << 1, built in two different declaration orders.
        let mut b = DfgBuilder::new("fwd");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let _y = b.node(Operation::Shl, &[n]);
        let fwd = b.build().unwrap();

        let mut b = DfgBuilder::new("rev");
        let c = b.input("c");
        let a = b.input("a");
        let n = b.node(Operation::Add, &[a, c]);
        let _y = b.node(Operation::Shl, &[n]);
        let rev = b.build().unwrap();

        assert_eq!(
            code_of(&fwd, &whole_body(&fwd)),
            code_of(&rev, &whole_body(&rev))
        );
    }

    #[test]
    fn operations_and_output_flags_distinguish_codes() {
        let mut b = DfgBuilder::new("add");
        let a = b.input("a");
        let c = b.input("c");
        let _ = b.node(Operation::Add, &[a, c]);
        let add = b.build().unwrap();

        let mut b = DfgBuilder::new("xor");
        let a = b.input("a");
        let c = b.input("c");
        let _ = b.node(Operation::Xor, &[a, c]);
        let xor = b.build().unwrap();
        assert_ne!(
            code_of(&add, &whole_body(&add)),
            code_of(&xor, &whole_body(&xor))
        );

        // Same body, different interface: marking n externally visible adds an
        // output flag and must change the code.
        let mut b = DfgBuilder::new("flag");
        let a = b.input("a");
        let n = b.node(Operation::Not, &[a]);
        let m = b.node(Operation::Add, &[n, a]);
        b.mark_output(n);
        let flagged = b.build().unwrap();
        let mut b = DfgBuilder::new("plain");
        let a = b.input("a");
        let n2 = b.node(Operation::Not, &[a]);
        let _m = b.node(Operation::Add, &[n2, a]);
        let plain = b.build().unwrap();
        let body_f = DenseNodeSet::from_nodes(flagged.len(), [n, m]);
        let body_p = whole_body(&plain);
        assert_ne!(code_of(&flagged, &body_f), code_of(&plain, &body_p));
    }

    #[test]
    fn operand_order_matters_for_distinguishable_operands() {
        // y = sub(not(a), a)  vs  y = sub(a, not(a)): same multiset of edges but
        // different operand positions — structurally different datapaths.
        let mut b = DfgBuilder::new("xy");
        let a = b.input("a");
        let x = b.node(Operation::Not, &[a]);
        let _y = b.node(Operation::Sub, &[x, a]);
        let first = b.build().unwrap();

        let mut b = DfgBuilder::new("yx");
        let a = b.input("a");
        let x = b.node(Operation::Not, &[a]);
        let _y = b.node(Operation::Sub, &[a, x]);
        let second = b.build().unwrap();

        assert_ne!(
            code_of(&first, &whole_body(&first)),
            code_of(&second, &whole_body(&second))
        );
    }

    #[test]
    fn anonymous_input_swap_is_an_isomorphism() {
        // sub(in0, in1) and sub(in1, in0) are the same pattern: inputs carry no
        // identity, so swapping them is a legal isomorphism.
        let mut b = DfgBuilder::new("ab");
        let a = b.input("a");
        let c = b.input("c");
        let _ = b.node(Operation::Sub, &[a, c]);
        let ab = b.build().unwrap();

        let mut b = DfgBuilder::new("ba");
        let a = b.input("a");
        let c = b.input("c");
        let _ = b.node(Operation::Sub, &[c, a]);
        let ba = b.build().unwrap();

        assert_eq!(
            code_of(&ab, &whole_body(&ab)),
            code_of(&ba, &whole_body(&ba))
        );
    }

    #[test]
    fn automorphic_components_terminate_and_match_under_relabeling() {
        // Two identical disconnected not-chains: a true automorphism, forcing the
        // backtracking branch. Codes must agree however the chains are interleaved.
        let build = |interleave: bool| {
            let mut b = DfgBuilder::new("twins");
            if interleave {
                let a1 = b.input("a1");
                let a2 = b.input("a2");
                let x1 = b.node(Operation::Not, &[a1]);
                let x2 = b.node(Operation::Not, &[a2]);
                let _ = b.node(Operation::Shl, &[x1]);
                let _ = b.node(Operation::Shl, &[x2]);
            } else {
                let a1 = b.input("a1");
                let x1 = b.node(Operation::Not, &[a1]);
                let _ = b.node(Operation::Shl, &[x1]);
                let a2 = b.input("a2");
                let x2 = b.node(Operation::Not, &[a2]);
                let _ = b.node(Operation::Shl, &[x2]);
            }
            b.build().unwrap()
        };
        let one = build(true);
        let two = build(false);
        assert_eq!(
            code_of(&one, &whole_body(&one)),
            code_of(&two, &whole_body(&two))
        );
    }

    #[test]
    fn empty_and_singleton_graphs_have_codes() {
        let mut b = DfgBuilder::new("one");
        let a = b.input("a");
        let x = b.node(Operation::Not, &[a]);
        let dfg = b.build().unwrap();
        let empty = DenseNodeSet::new(dfg.len());
        assert_eq!(*code_of(&dfg, &empty).words, [0]);
        let single = DenseNodeSet::from_nodes(dfg.len(), [x]);
        let code = code_of(&dfg, &single);
        assert_eq!(code.words[0], 2, "input + body node");
        assert_eq!(code.hex().len(), 16);
        assert_ne!(code.hash64(), 0);
        let _ = NodeId::new(0);
    }
}
