//! Property tests for canonical codes (the ISSUE 5 coverage satellite):
//!
//! * **Permutation invariance** — relabeling the node ids of a graph from any
//!   `ise-workloads` family never changes the canonical code of any enumerated cut
//!   (soundness: isomorphic ⇒ equal code).
//! * **Oracle agreement** — on random small pattern graphs (≤ 8 nodes) code
//!   equality coincides exactly with brute-force isomorphism over all node
//!   bijections (soundness and completeness at once).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use ise_canon::CanonicalCode;
use ise_enum::{incremental_cuts, Constraints, Cut, EngineOptions, EnumContext, PruningConfig};
use ise_graph::{
    DenseNodeSet, Dfg, DfgBuilder, InterfaceGraph, InterfaceLabel, Node, NodeId, Operation,
};
use ise_workloads::compile_block;
use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};
use ise_workloads::tree::{TreeDfgBuilder, TreeOrientation};

/// One small graph per workload family.
fn family_graphs() -> Vec<Dfg> {
    vec![
        TreeDfgBuilder::new(3).build(),
        TreeDfgBuilder::new(3)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        random_dag(
            &RandomDagConfig::new(14)
                .with_live_ins(3)
                .with_memory_ratio(0.2),
            23,
        ),
        generate_block(&MiBenchLikeConfig::new(20), 5).expect("generator output is valid"),
        compile_block("expr", "x = (a + b) * (c + b); y = (a + b) - c; z = x ^ y;")
            .expect("expression compiles"),
    ]
}

/// Rebuilds `dfg` with node `v` renamed to `perm[v]`, preserving operand order,
/// output marks and user-forbidden marks. Returns the permuted graph.
fn permute_dfg(dfg: &Dfg, perm: &[usize]) -> Dfg {
    let n = dfg.len();
    let mut nodes: Vec<Node> = vec![Node::new(Operation::Input); n];
    for v in dfg.node_ids() {
        nodes[perm[v.index()]] = dfg.node(v).clone();
    }
    // Emitting each node's predecessor list in operand order keeps the stable CSR
    // grouping of the rebuilt graph faithful to the original operand order.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(dfg.edge_count());
    for v in dfg.node_ids() {
        for &p in dfg.preds(v) {
            edges.push((
                NodeId::from_index(perm[p.index()]),
                NodeId::from_index(perm[v.index()]),
            ));
        }
    }
    let outputs: Vec<NodeId> = dfg
        .external_outputs()
        .iter()
        .map(|o| NodeId::from_index(perm[o.index()]))
        .collect();
    let forbidden: Vec<NodeId> = dfg
        .forbidden()
        .iter()
        .map(|f| NodeId::from_index(perm[f.index()]))
        .collect();
    Dfg::from_nodes("permuted", nodes, &edges, outputs, forbidden).expect("permutation is valid")
}

fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// The pattern graph of the cut of `dfg` whose body is `body`; the cut derives its
/// own interface.
fn pattern_graph(dfg: &Dfg, body: &DenseNodeSet) -> InterfaceGraph {
    let ctx = EnumContext::new(dfg.clone());
    let body = DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), body.iter());
    InterfaceGraph::extract(dfg, &Cut::from_body(&ctx, body))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness on real candidates: for every enumerated cut of every family
    /// graph, relabeling the block's node ids leaves the canonical code unchanged.
    #[test]
    fn node_id_permutations_preserve_canonical_codes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dfg in family_graphs() {
            let perm = random_permutation(dfg.len(), &mut rng);
            let permuted = permute_dfg(&dfg, &perm);
            let ctx = EnumContext::new(dfg.clone());
            let constraints = Constraints::new(3, 2).unwrap();
            let options = EngineOptions::default();
            let cuts = incremental_cuts(&ctx, &constraints, &PruningConfig::all(), &options, None);
            // A few dozen cuts per family keep the sweep fast while covering many
            // shapes; enumeration order is deterministic.
            for cut in cuts.cuts.iter().take(48) {
                let original = CanonicalCode::of(&InterfaceGraph::extract(&dfg, cut));
                let mapped = DenseNodeSet::from_nodes(
                    permuted.len(),
                    cut.body().iter().map(|v| NodeId::from_index(perm[v.index()])),
                );
                let relabeled = CanonicalCode::of(&pattern_graph(&permuted, &mapped));
                prop_assert_eq!(
                    &original, &relabeled,
                    "code changed under relabeling on `{}`", dfg.name()
                );
            }
        }
    }

    /// Completeness and soundness against a brute-force oracle: on random pattern
    /// graphs of at most 8 nodes, code equality is exactly isomorphism.
    #[test]
    fn code_equality_matches_brute_force_isomorphism(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let a = random_pattern(&mut rng);
            // Half the pairs are independent draws (almost surely non-isomorphic),
            // half are relabelings of `a` (isomorphic by construction).
            let b = if rng.gen_bool(0.5) {
                random_pattern(&mut rng)
            } else {
                shuffled_pattern(&a, &mut rng)
            };
            let ga = pattern_graph(&a.dfg, &a.body);
            let gb = pattern_graph(&b.dfg, &b.body);
            let codes_equal = CanonicalCode::of(&ga) == CanonicalCode::of(&gb);
            let isomorphic = brute_force_isomorphic(&ga, &gb);
            prop_assert_eq!(codes_equal, isomorphic, "codes must equal exactly on isomorphism");
        }
    }
}

/// A pattern as a host graph plus the body set to extract.
struct PatternSpec {
    dfg: Dfg,
    body: DenseNodeSet,
}

/// Draws a random pattern: 1–3 anonymous inputs and 1–5 body operations wired to
/// earlier nodes, with random output marks. At most 8 interface nodes total.
fn random_pattern(rng: &mut StdRng) -> PatternSpec {
    const OPS: [Operation; 5] = [
        Operation::Add,
        Operation::Mul,
        Operation::Sub,
        Operation::Not,
        Operation::Xor,
    ];
    let num_inputs = rng.gen_range(1usize..=3);
    let num_body = rng.gen_range(1usize..=5);
    let mut b = DfgBuilder::new("pattern");
    let mut nodes: Vec<NodeId> = (0..num_inputs).map(|i| b.input(format!("i{i}"))).collect();
    let mut body_nodes = Vec::new();
    for _ in 0..num_body {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let arity = if op == Operation::Not { 1 } else { 2 };
        let operands: Vec<NodeId> = (0..arity)
            .map(|_| nodes[rng.gen_range(0..nodes.len())])
            .collect();
        let v = b.node(op, &operands);
        if rng.gen_bool(0.3) {
            b.mark_output(v);
        }
        nodes.push(v);
        body_nodes.push(v);
    }
    let dfg = b.build().expect("pattern graph is valid");
    let body = DenseNodeSet::from_nodes(dfg.len(), body_nodes);
    PatternSpec { dfg, body }
}

/// Relabels the host graph of `spec` with a random permutation.
fn shuffled_pattern(spec: &PatternSpec, rng: &mut StdRng) -> PatternSpec {
    let perm = random_permutation(spec.dfg.len(), rng);
    let dfg = permute_dfg(&spec.dfg, &perm);
    let body = DenseNodeSet::from_nodes(
        dfg.len(),
        spec.body
            .iter()
            .map(|v| NodeId::from_index(perm[v.index()])),
    );
    PatternSpec { dfg, body }
}

/// Brute-force isomorphism over all bijections of local ids that respect labels,
/// output flags and operand order. Only usable for tiny graphs (≤ 8 nodes).
fn brute_force_isomorphic(a: &InterfaceGraph, b: &InterfaceGraph) -> bool {
    if a.len() != b.len() || a.num_inputs() != b.num_inputs() {
        return false;
    }
    let n = a.len();
    assert!(n <= 8, "oracle is factorial; keep the graphs tiny");
    let mut mapping: Vec<usize> = (0..n).collect();
    permutations(&mut mapping, 0, &mut |perm| {
        (0..n).all(|v| {
            let w = perm[v];
            label_eq(a.label(v), b.label(w))
                && a.is_output(v) == b.is_output(w)
                && a.operands(v).len() == b.operands(w).len()
                && a.operands(v)
                    .iter()
                    .zip(b.operands(w))
                    .all(|(&x, &y)| perm[x as usize] == y as usize)
        })
    })
}

fn label_eq(a: InterfaceLabel, b: InterfaceLabel) -> bool {
    a == b
}

/// Calls `check` on every permutation of `items[at..]`; returns true as soon as one
/// permutation satisfies it.
fn permutations(
    items: &mut Vec<usize>,
    at: usize,
    check: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    if at == items.len() {
        return check(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        if permutations(items, at + 1, check) {
            items.swap(at, i);
            return true;
        }
        items.swap(at, i);
    }
    false
}
