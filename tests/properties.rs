//! Property-based tests (proptest) for the core invariants of the reproduction:
//! theorems 1–3 of the paper on randomly generated DAGs, agreement between the
//! polynomial enumeration and the brute-force oracle, and structural invariants of the
//! graph substrate.

use proptest::prelude::*;

use ise_canon::{canonicalize_cuts, canonicalize_cuts_memo, CanonMemo, GroupConfig};
use ise_dominators::multi::is_generalized_dominator;
use ise_dominators::{
    dominators, lengauer_tarjan, lengauer_tarjan_reduced, postdominators, ConeDominators, Forward,
    Reverse, TopoOrder,
};
use ise_enum::par::{parallel_cuts, ParConfig};
use ise_enum::{
    basic_cuts, cone, exhaustive_cuts, incremental_cuts, Constraints, Cut, CutChecker, CutKey,
    CutRejection, EngineOptions, EnumContext, Enumeration, PruningConfig,
};
use ise_graph::{DenseNodeSet, Dfg, NodeId, Operation, Reachability, RootedDfg};
use ise_workloads::expr::compile_block;
use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};
use ise_workloads::skewed_dag::{skewed_dag, SkewedDagConfig};
use ise_workloads::tree::{TreeDfgBuilder, TreeOrientation};

/// Decodes one of the 64 pruning configurations from a 6-bit mask, one bit per §5.3
/// technique.
fn pruning_from_mask(mask: u8) -> PruningConfig {
    PruningConfig {
        output_output: mask & 0x01 != 0,
        connectedness: mask & 0x02 != 0,
        build_s: mask & 0x04 != 0,
        output_input: mask & 0x08 != 0,
        input_input: mask & 0x10 != 0,
        dominator_input: mask & 0x20 != 0,
    }
}

fn incremental(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
) -> Enumeration {
    incremental_cuts(ctx, constraints, pruning, &EngineOptions::default(), None)
}

fn sorted_keys(cuts: &[Cut]) -> Vec<CutKey<'_>> {
    let mut keys: Vec<_> = cuts.iter().map(Cut::key).collect();
    keys.sort();
    keys
}

/// Satellite of the engine refactor: on the Figure 4 worst-case trees (both
/// orientations) and a layered random DAG, the incremental engine must agree with the
/// brute-force oracle under *every* one of the 64 pruning combinations.
#[test]
fn every_pruning_combination_matches_the_oracle() {
    let graphs = vec![
        TreeDfgBuilder::new(3).build(),
        TreeDfgBuilder::new(3)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        random_dag(
            &RandomDagConfig::new(12)
                .with_live_ins(3)
                .with_memory_ratio(0.2),
            11,
        ),
    ];
    for dfg in graphs {
        let name = dfg.name().to_string();
        let ctx = EnumContext::new(dfg);
        for constraints in [
            Constraints::new(3, 2).unwrap(),
            Constraints::new(2, 2).unwrap().connected_only(true),
        ] {
            let oracle = exhaustive_cuts(&ctx, &constraints, true);
            let oracle_keys = sorted_keys(&oracle.cuts);
            for mask in 0u8..64 {
                let run = incremental(&ctx, &constraints, &pruning_from_mask(mask));
                assert_eq!(
                    sorted_keys(&run.cuts),
                    oracle_keys,
                    "graph `{name}`, pruning mask {mask:#08b}, connected={}",
                    constraints.is_connected_only()
                );
            }
        }
    }
}

/// Satellite of the memoized-canonicalization PR: coding cuts through a shared
/// [`CanonMemo`] is observably pure. On every workload family the repository
/// generates — fan-out and fan-in trees, layered random DAGs, MiBench-like
/// blocks and compiled straight-line snippets — the memoized coding (both the
/// cold first sweep and the warm second sweep, with the memo shared across all
/// families) equals the plain labeler's output element for element.
#[test]
fn memoized_coding_matches_plain_on_every_workload_family() {
    let graphs = vec![
        TreeDfgBuilder::new(3).build(),
        TreeDfgBuilder::new(3)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        random_dag(
            &RandomDagConfig::new(24)
                .with_live_ins(3)
                .with_memory_ratio(0.15),
            7,
        ),
        generate_block(&MiBenchLikeConfig::new(24), 3).expect("mibench-like block builds"),
        compile_block(
            "sad",
            "d = a - b; m = d >> 31; abs = (d ^ m) - m; acc2 = acc + abs; out acc2;",
        )
        .expect("snippet compiles"),
    ];
    let constraints = Constraints::new(4, 2).unwrap();
    let config = GroupConfig::default();
    let memo = CanonMemo::new();
    let mut total_cuts = 0u64;
    for dfg in graphs {
        let name = dfg.name().to_string();
        let ctx = EnumContext::new(dfg);
        let cuts = incremental(&ctx, &constraints, &PruningConfig::all()).cuts;
        total_cuts += cuts.len() as u64;
        let plain = canonicalize_cuts(ctx.dfg(), &cuts, &config);
        let cold = canonicalize_cuts_memo(ctx.dfg(), &cuts, &config, &memo);
        assert_eq!(plain, cold, "cold memoized coding diverges on `{name}`");
        let warm = canonicalize_cuts_memo(ctx.dfg(), &cuts, &config, &memo);
        assert_eq!(plain, warm, "warm memoized coding diverges on `{name}`");
    }
    let stats = memo.stats();
    assert!(
        stats.labeler_runs < total_cuts,
        "the shared memo must label fewer graphs ({}) than there are cuts ({total_cuts})",
        stats.labeler_runs,
    );
    assert!(stats.raw_hits > 0, "the warm sweeps must hit the memo");
}

/// The parent revision's set-dominance test, kept as the oracle for the backward walk:
/// a DFS forward from the source that never enters `set` and fails as soon as it
/// steps onto `target`.
fn forward_set_dominates(rooted: &RootedDfg, set: &DenseNodeSet, target: NodeId) -> bool {
    if set.is_empty() {
        return false;
    }
    if set.contains(target) {
        return true;
    }
    let mut visited = rooted.node_set();
    visited.insert(rooted.source());
    let mut stack = vec![rooted.source()];
    while let Some(v) = stack.pop() {
        for &s in rooted.succs(v) {
            if s == target {
                return false;
            }
            if !set.contains(s) && visited.insert(s) {
                stack.push(s);
            }
        }
    }
    true
}

/// Checks every dominator query the engine answers with the DAG pass against an
/// independent oracle on one graph:
///
/// * `dominators` and the context's postdominator tree equal `lengauer_tarjan`'s;
/// * for each seed set × every target (artificial vertices and seed members
///   included), the cone completions equal the Lengauer–Tarjan chain of the reduced
///   graph element by element, order included;
/// * `set_dominates_in` (a backward walk) equals the forward-from-source DFS;
/// * for every target but the source, `open_set_in` (one forward sweep per seed,
///   into one buffer shared by all seeds) leaves out exactly the targets the DFS
///   says the seed dominates.
///
/// Returns how many (seed, target) pairs the seed cut off, hit inside the seed, and
/// took at a root target, and how many seeds held a root, so callers can assert
/// those edge cases were exercised.
fn check_dag_dominators(ctx: &EnumContext, seeds: &[Vec<NodeId>]) -> [usize; 4] {
    let rooted = ctx.rooted();
    let name = rooted.dfg().name();
    let lt = lengauer_tarjan(&Forward(rooted));
    let ltp = lengauer_tarjan(&Reverse(rooted));
    let dom = dominators(rooted);
    for v in rooted.node_ids() {
        assert_eq!(dom.idom(v), lt.idom(v), "`{name}` idom({v})");
        assert_eq!(
            ctx.postdominator_tree().idom(v),
            ltp.idom(v),
            "`{name}` ipdom({v})"
        );
    }
    let mut ws = ConeDominators::new();
    let mut completions = Vec::new();
    let mut visited = rooted.node_set();
    let mut stack = Vec::new();
    let mut open = rooted.node_set();
    let mut seen = [0usize; 4];
    for seed in seeds {
        let set = DenseNodeSet::from_nodes(rooted.num_nodes(), seed.iter().copied());
        let reduced = lengauer_tarjan_reduced(&Forward(rooted), &set);
        ctx.open_set_in(&set, &mut open);
        if seed.iter().any(|&v| rooted.preds(v) == [rooted.source()]) {
            seen[3] += 1;
        }
        for target in rooted.node_ids() {
            ctx.push_cone_level(&mut ws, &set, target, None);
            ctx.cone_completions(&ws, &mut completions);
            ws.pop();
            let chain: Vec<NodeId> = reduced
                .strict_dominators(target)
                .filter(|&d| !ctx.artificial().contains(d))
                .collect();
            assert_eq!(completions, chain, "`{name}` seed {seed:?} target {target}");
            let dominated = forward_set_dominates(rooted, &set, target);
            assert_eq!(
                ctx.set_dominates_in(&set, target, &mut visited, &mut stack),
                dominated,
                "`{name}` seed {seed:?} target {target}"
            );
            // The source is open by definition, whatever the seed.
            if target != rooted.source() {
                assert_eq!(
                    !open.contains(target),
                    dominated,
                    "`{name}` open set, seed {seed:?} target {target}"
                );
            }
            if set.contains(target) {
                seen[1] += 1;
            } else if !reduced.is_reachable(target) {
                seen[0] += 1;
            }
            if rooted.preds(target) == [rooted.source()] {
                seen[2] += 1;
            }
        }
    }
    seen
}

/// Checks the level stack of [`ConeDominators`] as the enumerator drives it, on one
/// graph: `steps` random operations, each pushing a fresh level (a random target,
/// the current seed), growing the top level's seed by a random original vertex, or
/// popping the top level, always in LIFO order so that later pushes are siblings of
/// popped levels. After every push and pop the top level must match its oracles for
/// the current seed:
///
/// * its chain equals the Lengauer–Tarjan chain of the reduced graph, order included;
/// * `reached(v)` for every vertex of the target's cone (and the target) other than
///   the source equals `!forward_set_dominates(seed, v)`, and vertices outside the
///   cone are not reached.
///
/// Returns how many grown levels cut their target off, grew by a vertex outside the
/// cone, and grew by a vertex ranked after the target, so callers can assert those
/// edge cases were exercised.
fn check_grown_levels(ctx: &EnumContext, steps: usize, mut state: u64) -> [usize; 3] {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rooted = ctx.rooted();
    let name = rooted.dfg().name();
    let order = TopoOrder::forward(rooted);
    let originals: Vec<NodeId> = rooted.original_node_ids().collect();
    let mut ws = ConeDominators::new();
    let mut seed = rooted.node_set();
    // One frame per level: its target and the vertex it grew the seed by.
    let mut frames: Vec<(NodeId, Option<NodeId>)> = Vec::new();
    let mut completions = Vec::new();
    let mut seen = [0usize; 3];
    for step in 0..steps {
        let pick = next();
        match (pick % 4, frames.last().copied()) {
            (0, Some((_, added))) => {
                ws.pop();
                frames.pop();
                if let Some(v) = added {
                    seed.remove(v);
                }
            }
            (1, _) | (_, None) => {
                let target = originals[(next() % originals.len() as u64) as usize];
                ctx.push_cone_level(&mut ws, &seed, target, None);
                frames.push((target, None));
            }
            (_, Some((target, _))) => {
                let v = originals[(next() % originals.len() as u64) as usize];
                if seed.contains(v) {
                    continue;
                }
                let was_reached = ctx.cone_reached(&ws, target);
                seed.insert(v);
                ctx.push_cone_level(&mut ws, &seed, target, Some(v));
                frames.push((target, Some(v)));
                if was_reached && !ctx.cone_reached(&ws, target) {
                    seen[0] += 1;
                }
                if v != target && !ctx.reach().reaches(v, target) {
                    seen[1] += 1;
                }
                if order.rank(v) > order.rank(target) {
                    seen[2] += 1;
                }
            }
        }
        assert_eq!(ws.depth(), frames.len());
        let Some(&(target, _)) = frames.last() else {
            continue;
        };
        ctx.cone_completions(&ws, &mut completions);
        let chain: Vec<NodeId> = lengauer_tarjan_reduced(&Forward(rooted), &seed)
            .strict_dominators(target)
            .filter(|&d| !ctx.artificial().contains(d))
            .collect();
        assert_eq!(
            completions,
            chain,
            "`{name}` step {step}, target {target}, seed {:?}",
            seed.iter().collect::<Vec<_>>()
        );
        let cone = ctx.reach().ancestors(target);
        for v in rooted.node_ids() {
            // The source is reached by definition (and no seed may contain it).
            let expected = if v == rooted.source() {
                true
            } else if v == target || cone.contains(v) {
                !forward_set_dominates(rooted, &seed, v)
            } else {
                false
            };
            assert_eq!(
                ctx.cone_reached(&ws, v),
                expected,
                "`{name}` step {step}, target {target}, vertex {v}"
            );
        }
    }
    ws.truncate(0);
    seen
}

/// Grown levels nested under fresh ones, with sibling pops, agree with their
/// Lengauer–Tarjan and forward-DFS oracles on every workload family — including seed
/// growth that cuts the target off, grows by a vertex outside the target's cone, or
/// by a vertex ranked after the target.
#[test]
fn grown_cone_levels_match_their_oracles_on_every_workload_family() {
    let graphs = vec![
        TreeDfgBuilder::new(3).build(),
        TreeDfgBuilder::new(3)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        random_dag(&RandomDagConfig::new(40).with_memory_ratio(0.15), 5),
        generate_block(&MiBenchLikeConfig::new(48), 9).expect("mibench-like block builds"),
        skewed_dag(&SkewedDagConfig::new(12, 4), 3),
        compile_block(
            "sad",
            "d = a - b; m = d >> 31; abs = (d ^ m) - m; acc2 = acc + abs; out acc2;",
        )
        .expect("snippet compiles"),
    ];
    let mut seen = [0usize; 3];
    for (i, dfg) in graphs.into_iter().enumerate() {
        let ctx = EnumContext::new(dfg);
        let counts = check_grown_levels(&ctx, 400, 0x9a0b_0000 + i as u64);
        for (total, c) in seen.iter_mut().zip(counts) {
            *total += c;
        }
    }
    assert!(
        seen.iter().all(|&c| c > 0),
        "edge cases not exercised: {seen:?}"
    );
}

/// Seed sets for [`check_dag_dominators`]: the empty seed, every single original
/// vertex's predecessor row (which cuts that vertex off unless it is a root), and
/// `random` pseudo-random subsets of the original vertices.
fn seed_sets(rooted: &RootedDfg, random: usize, mut state: u64) -> Vec<Vec<NodeId>> {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut seeds = vec![Vec::new()];
    for v in rooted.original_node_ids() {
        let preds: Vec<NodeId> = rooted
            .preds(v)
            .iter()
            .copied()
            .filter(|&p| !rooted.is_artificial(p))
            .collect();
        if !preds.is_empty() {
            seeds.push(preds);
        }
    }
    for _ in 0..random {
        let density = 2 + next() % 6;
        let seed = rooted
            .original_node_ids()
            .filter(|_| next() % density == 0)
            .collect();
        seeds.push(seed);
    }
    seeds
}

/// The DAG dominator pass (whole-graph trees, cone completions, backward set
/// dominance, the open-set sweep) agrees with its oracles on every workload family
/// the repository generates, for many seed sets × every target — including targets
/// the seed cuts off, root targets whose only predecessor is the source, targets
/// inside the seed, and seeds that hold a root.
#[test]
fn dag_dominators_match_their_oracles_on_every_workload_family() {
    let graphs = vec![
        TreeDfgBuilder::new(3).build(),
        TreeDfgBuilder::new(3)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        random_dag(&RandomDagConfig::new(40).with_memory_ratio(0.15), 5),
        generate_block(&MiBenchLikeConfig::new(48), 9).expect("mibench-like block builds"),
        skewed_dag(&SkewedDagConfig::new(12, 4), 3),
        compile_block(
            "sad",
            "d = a - b; m = d >> 31; abs = (d ^ m) - m; acc2 = acc + abs; out acc2;",
        )
        .expect("snippet compiles"),
    ];
    let mut seen = [0usize; 4];
    for (i, dfg) in graphs.into_iter().enumerate() {
        let ctx = EnumContext::new(dfg);
        let seeds = seed_sets(ctx.rooted(), 12, 0x5eed_0000 + i as u64);
        let counts = check_dag_dominators(&ctx, &seeds);
        for (total, c) in seen.iter_mut().zip(counts) {
            *total += c;
        }
    }
    assert!(
        seen.iter().all(|&c| c > 0),
        "edge cases not exercised: {seen:?}"
    );
}

/// `dfg` with vertex `v` renumbered `perm[v]`: the same operations, operand order,
/// outputs and forbidden set, so edges may now run from a higher id to a lower one.
fn relabel(dfg: &Dfg, perm: &[usize]) -> Dfg {
    let map = |v: NodeId| NodeId::from_index(perm[v.index()]);
    let mut nodes = vec![None; dfg.len()];
    for v in dfg.node_ids() {
        nodes[perm[v.index()]] = Some(dfg.node(v).clone());
    }
    // Each consumer's operands in their original order, so every predecessor row
    // keeps its operand order.
    let edges: Vec<(NodeId, NodeId)> = dfg
        .node_ids()
        .flat_map(|v| dfg.preds(v).iter().map(move |&p| (map(p), map(v))))
        .collect();
    Dfg::from_nodes(
        dfg.name(),
        nodes.into_iter().map(Option::unwrap).collect(),
        &edges,
        dfg.external_outputs().iter().map(|&v| map(v)),
        dfg.forbidden().iter().map(map),
    )
    .expect("a relabelled DAG is a DAG")
}

/// Every cut body of `enumeration` as a sorted id list, each id passed through
/// `map`, the lists sorted.
fn mapped_bodies(enumeration: &Enumeration, map: impl Fn(NodeId) -> usize) -> Vec<Vec<usize>> {
    let mut bodies: Vec<Vec<usize>> = enumeration
        .cuts
        .iter()
        .map(|cut| {
            let mut body: Vec<usize> = cut.body().iter().map(&map).collect();
            body.sort_unstable();
            body
        })
        .collect();
    bodies.sort();
    bodies
}

/// No test graph or corpus block numbers its vertices out of topological order, so
/// this one does: graphs of every workload family, relabelled by seeded
/// permutations. The augmented order must run every edge forward, source first and
/// sink last, and every enumerator must find the original graph's cuts, mapped
/// through the permutation.
#[test]
fn non_topological_ids_change_no_cut() {
    let graphs = vec![
        TreeDfgBuilder::new(3).build(),
        TreeDfgBuilder::new(3)
            .with_orientation(TreeOrientation::FanIn)
            .build(),
        random_dag(&RandomDagConfig::new(24).with_memory_ratio(0.15), 5),
        generate_block(&MiBenchLikeConfig::new(28), 9).expect("mibench-like block builds"),
        skewed_dag(&SkewedDagConfig::new(8, 3), 3),
        compile_block(
            "sad",
            "d = a - b; m = d >> 31; abs = (d ^ m) - m; acc2 = acc + abs; out acc2;",
        )
        .expect("snippet compiles"),
    ];
    let constraints = Constraints::new(3, 2).unwrap();
    let mut state = 0x0dd_1d5u64;
    let mut backward_edges = 0;
    for dfg in graphs {
        let original = EnumContext::new(dfg.clone());
        for _ in 0..3 {
            // Fisher–Yates over a xorshift stream.
            let mut perm: Vec<usize> = (0..dfg.len()).collect();
            for i in (1..perm.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                perm.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let rooted = RootedDfg::new(relabel(&dfg, &perm));
            let name = rooted.dfg().name().to_string();
            backward_edges += rooted.dfg().edges().filter(|(a, b)| a > b).count();

            let order: Vec<NodeId> = rooted.topological_order().collect();
            assert_eq!(order.len(), rooted.num_nodes(), "`{name}`");
            assert_eq!(order[0], rooted.source(), "`{name}`");
            assert_eq!(order[order.len() - 1], rooted.sink(), "`{name}`");
            let mut rank = vec![usize::MAX; rooted.num_nodes()];
            for (r, &v) in order.iter().enumerate() {
                assert_eq!(rank[v.index()], usize::MAX, "`{name}`: {v} twice");
                rank[v.index()] = r;
            }
            for v in rooted.node_ids() {
                for &s in rooted.succs(v) {
                    assert!(rank[v.index()] < rank[s.index()], "`{name}`: {v}->{s}");
                }
            }

            let ctx = EnumContext::from_rooted(rooted);
            let expect = |run: &Enumeration| mapped_bodies(run, |v| perm[v.index()]);
            let found = |run: &Enumeration| mapped_bodies(run, |v| v.index());
            for pruning in [PruningConfig::all(), PruningConfig::none()] {
                assert_eq!(
                    found(&incremental(&ctx, &constraints, &pruning)),
                    expect(&incremental(&original, &constraints, &pruning)),
                    "`{name}` incremental {pruning:?}"
                );
            }
            let pruning = PruningConfig::all();
            assert_eq!(
                found(
                    &parallel_cuts(&ctx, &constraints, &pruning, &ParConfig::new(4, 2), None)
                        .enumeration
                ),
                expect(&incremental(&original, &constraints, &pruning)),
                "`{name}` parallel"
            );
            assert_eq!(
                found(&basic_cuts(&ctx, &constraints)),
                expect(&basic_cuts(&original, &constraints)),
                "`{name}` basic"
            );
            if dfg.len() <= 18 {
                assert_eq!(
                    found(&exhaustive_cuts(&ctx, &constraints, true)),
                    expect(&exhaustive_cuts(&original, &constraints, true)),
                    "`{name}` exhaustive"
                );
            }
        }
    }
    assert!(
        backward_edges > 0,
        "no edge runs from a higher id to a lower one"
    );
}

/// The technical input condition as a forward search, kept as the oracle for the
/// backward cone walk of `Cut::io_condition_violation`: one whole-graph DFS forward
/// from the source per input, never entering another input, succeeding when it steps
/// onto the input itself.
fn forward_io_condition_violation(rooted: &RootedDfg, inputs: &[NodeId]) -> Option<NodeId> {
    let input_set = DenseNodeSet::from_nodes(rooted.num_nodes(), inputs.iter().copied());
    'inputs: for &w in inputs {
        let mut visited = rooted.node_set();
        visited.insert(rooted.source());
        let mut stack = vec![rooted.source()];
        while let Some(v) = stack.pop() {
            for &s in rooted.succs(v) {
                if s == w {
                    continue 'inputs;
                }
                if !input_set.contains(s) && visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        return Some(w);
    }
    None
}

/// Whether a path leads from `from` to `to`, by a fresh DFS.
fn dfs_reaches(rooted: &RootedDfg, from: NodeId, to: NodeId) -> bool {
    let mut visited = rooted.node_set();
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        for &s in rooted.succs(v) {
            if s == to {
                return true;
            }
            if visited.insert(s) {
                stack.push(s);
            }
        }
    }
    false
}

/// The validity definition of §3 written out directly over the graph, as the oracle
/// for `CutChecker` and `Cut::validate`: the interface derived member by member, the
/// forbidden check vertex by vertex, convexity as a search for a path that leaves
/// the body and re-enters it, the forward input-condition DFS, connectedness as a
/// loop over output pairs with DFS reachability, and the depth from a fresh
/// longest-path pass. Returns the derived inputs and outputs with the verdict.
fn oracle_validate(
    ctx: &EnumContext,
    body: &DenseNodeSet,
    constraints: &Constraints,
    require_io_condition: bool,
) -> (Vec<NodeId>, Vec<NodeId>, Result<(), CutRejection>) {
    let rooted = ctx.rooted();
    let members: Vec<NodeId> = body.iter().collect();
    let mut inputs: Vec<NodeId> = members
        .iter()
        .flat_map(|&v| rooted.preds(v).iter().copied())
        .filter(|&p| !body.contains(p) && p != rooted.source())
        .collect();
    inputs.sort();
    inputs.dedup();
    let outputs: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&v| rooted.succs(v).iter().any(|&s| !body.contains(s)))
        .collect();
    let verdict = || {
        if members.is_empty() {
            return Err(CutRejection::Empty);
        }
        if let Some(&v) = members.iter().find(|&&v| rooted.is_forbidden(v)) {
            return Err(CutRejection::Forbidden(v));
        }
        if inputs.len() > constraints.max_inputs() {
            return Err(CutRejection::TooManyInputs(inputs.len()));
        }
        if outputs.len() > constraints.max_outputs() {
            return Err(CutRejection::TooManyOutputs(outputs.len()));
        }
        let mut outside = rooted.node_set();
        let mut stack: Vec<NodeId> = members
            .iter()
            .flat_map(|&v| rooted.succs(v).iter().copied())
            .filter(|&s| !body.contains(s))
            .collect();
        while let Some(v) = stack.pop() {
            for &s in rooted.succs(v) {
                if body.contains(s) {
                    return Err(CutRejection::NotConvex);
                }
                if outside.insert(s) {
                    stack.push(s);
                }
            }
        }
        if require_io_condition {
            if let Some(w) = forward_io_condition_violation(rooted, &inputs) {
                return Err(CutRejection::IoCondition(w));
            }
        }
        if constraints.is_connected_only() {
            for (i, &o1) in outputs.iter().enumerate() {
                for &o2 in &outputs[i + 1..] {
                    let shared = inputs
                        .iter()
                        .any(|&inp| dfs_reaches(rooted, inp, o1) && dfs_reaches(rooted, inp, o2));
                    if !shared {
                        return Err(CutRejection::Disconnected);
                    }
                }
            }
        }
        if let Some(limit) = constraints.max_depth() {
            let mut depth = vec![0u32; rooted.num_nodes()];
            for v in rooted.topological_order() {
                if body.contains(v) {
                    for &s in rooted.succs(v).iter().filter(|&&s| body.contains(s)) {
                        depth[s.index()] = depth[s.index()].max(depth[v.index()] + 1);
                    }
                }
            }
            let d = members.iter().map(|v| depth[v.index()]).max().unwrap_or(0);
            if d > limit {
                return Err(CutRejection::TooDeep(d));
            }
        }
        Ok(())
    };
    let verdict = verdict();
    (inputs, outputs, verdict)
}

/// Strategy: a layered random DAG with memory operations, large enough that the
/// reachability rows span up to three 64-bit words.
fn wide_dag_strategy() -> impl Strategy<Value = Dfg> {
    (40usize..170, 0u32..40, 1u64..u64::MAX).prop_map(|(nodes, memory_pct, seed)| {
        random_dag(
            &RandomDagConfig::new(nodes).with_memory_ratio(f64::from(memory_pct) / 100.0),
            seed,
        )
    })
}

/// A candidate body drawn from `bits`. Kind 0 is a raw vertex subset (forbidden and
/// artificial vertices included), kind 1 a sparse subset of the legal members, kind 2
/// the backward closure of a random input/output choice, and any other kind the same
/// closure with every forbidden vertex also treated as an input, so that the body
/// stays legal and the interface rules decide.
fn random_body(ctx: &EnumContext, bits: u64, kind: u8) -> DenseNodeSet {
    let rooted = ctx.rooted();
    let n = rooted.num_nodes();
    let picked = |v: NodeId, shift: u32| bits.rotate_right(shift) >> (v.index() % 64) & 1 == 1;
    // About one vertex in eight: three independent bits must agree.
    let sparse = |v: NodeId| picked(v, 0) && picked(v, 29) && picked(v, 43);
    match kind {
        0 => return DenseNodeSet::from_nodes(n, rooted.node_ids().filter(|&v| picked(v, 0))),
        1 => {
            let members = ctx.candidate_outputs().iter().copied();
            return DenseNodeSet::from_nodes(n, members.filter(|&v| picked(v, 0) && picked(v, 7)));
        }
        _ => {}
    }
    let mut inputs = DenseNodeSet::from_nodes(
        n,
        rooted
            .original_node_ids()
            .filter(|&v| if kind == 2 { picked(v, 0) } else { sparse(v) }),
    );
    if kind > 2 {
        inputs.union_with(rooted.forbidden());
    }
    let outputs: Vec<NodeId> = ctx
        .candidate_outputs()
        .iter()
        .copied()
        .filter(|&v| picked(v, 17) && !inputs.contains(v))
        .take(3)
        .collect();
    cone(rooted, &inputs, &outputs)
}

/// Strategy: a small random DAG described as, for each non-root node, a list of
/// predecessor indices among the earlier nodes, plus an operation selector.
fn small_dag_strategy() -> impl Strategy<Value = Dfg> {
    let node_count = 4usize..14;
    node_count
        .prop_flat_map(|n| {
            let preds =
                proptest::collection::vec((proptest::collection::vec(0usize..n, 1..3), 0u8..10), n);
            (Just(n), preds)
        })
        .prop_map(|(n, specs)| {
            let mut ops = Vec::with_capacity(n + 2);
            let mut edges = Vec::new();
            // Two guaranteed live-in roots.
            ops.push(Operation::Input);
            ops.push(Operation::Input);
            for (i, (preds, op_roll)) in specs.into_iter().enumerate() {
                let id = i + 2;
                let op = match op_roll {
                    0 => Operation::Load,
                    1 => Operation::Mul,
                    2 => Operation::Shl,
                    3 => Operation::Sub,
                    4 => Operation::Xor,
                    5 => Operation::Cmp,
                    _ => Operation::Add,
                };
                ops.push(op);
                let mut used = Vec::new();
                for p in preds {
                    let p = p % id; // only earlier nodes, keeps the graph acyclic
                    if !used.contains(&p) {
                        used.push(p);
                        edges.push((NodeId::from_index(p), NodeId::from_index(id)));
                    }
                }
            }
            Dfg::from_edges("proptest", ops, edges, [], []).expect("construction is acyclic")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The polynomial enumeration finds exactly the cuts the brute-force oracle finds.
    #[test]
    fn incremental_matches_oracle(dfg in small_dag_strategy()) {
        let ctx = EnumContext::new(dfg);
        let constraints = Constraints::new(3, 2).unwrap();
        let oracle = exhaustive_cuts(&ctx, &constraints, true);
        let poly = incremental(&ctx, &constraints, &PruningConfig::all());
        let mut a: Vec<_> = oracle.cuts.iter().map(Cut::key).collect();
        let mut b: Vec<_> = poly.cuts.iter().map(Cut::key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The engine agrees with the oracle on random DAGs under randomly drawn pruning
    /// combinations.
    #[test]
    fn incremental_matches_oracle_under_random_pruning(
        dfg in small_dag_strategy(),
        mask in 0u8..64,
    ) {
        let ctx = EnumContext::new(dfg);
        let constraints = Constraints::new(3, 2).unwrap();
        let oracle = exhaustive_cuts(&ctx, &constraints, true);
        let run = incremental(&ctx, &constraints, &pruning_from_mask(mask));
        prop_assert_eq!(
            sorted_keys(&run.cuts),
            sorted_keys(&oracle.cuts),
            "mask {:#08b}",
            mask
        );
    }

    /// Theorem 1: the inputs of every valid single-output cut form a generalized
    /// dominator of its output; Theorem 2/3: the cut is reconstructed exactly from its
    /// inputs and outputs by the backward closure.
    #[test]
    fn theorems_hold_for_enumerated_cuts(dfg in small_dag_strategy()) {
        let ctx = EnumContext::new(dfg);
        let constraints = Constraints::new(3, 2).unwrap();
        let result = incremental(&ctx, &constraints, &PruningConfig::all());
        for cut in &result.cuts {
            // Reconstruction (Theorems 2/3).
            let inputs = DenseNodeSet::from_nodes(
                ctx.rooted().num_nodes(),
                cut.inputs().iter().copied(),
            );
            let rebuilt = cone(ctx.rooted(), &inputs, cut.outputs());
            prop_assert_eq!(&rebuilt, cut.body());
            // Theorem 1 for single-output cuts.
            if cut.outputs().len() == 1 {
                prop_assert!(is_generalized_dominator(
                    &Forward(ctx.rooted()),
                    cut.inputs(),
                    cut.outputs()[0],
                ));
            }
        }
    }

    /// Every cut the enumeration reports is convex and within the port budget.
    #[test]
    fn enumerated_cuts_are_valid(dfg in small_dag_strategy()) {
        let ctx = EnumContext::new(dfg);
        let constraints = Constraints::new(4, 2).unwrap();
        let result = incremental(&ctx, &constraints, &PruningConfig::all());
        for cut in &result.cuts {
            prop_assert!(cut.validate(&ctx, &constraints, true).is_ok());
        }
    }

    /// Memoized canonical coding is observably pure on arbitrary DAGs: the plain
    /// labeler, a cold memo and a warm memo produce identical codings.
    #[test]
    fn memoized_coding_is_observably_pure(dfg in small_dag_strategy()) {
        let ctx = EnumContext::new(dfg);
        let constraints = Constraints::new(3, 2).unwrap();
        let cuts = incremental(&ctx, &constraints, &PruningConfig::all()).cuts;
        let config = GroupConfig::default();
        let plain = canonicalize_cuts(ctx.dfg(), &cuts, &config);
        let memo = CanonMemo::new();
        let cold = canonicalize_cuts_memo(ctx.dfg(), &cuts, &config, &memo);
        let warm = canonicalize_cuts_memo(ctx.dfg(), &cuts, &config, &memo);
        prop_assert_eq!(&plain, &cold);
        prop_assert_eq!(&plain, &warm);
        prop_assert!(memo.stats().labeler_runs <= cuts.len() as u64);
    }

    /// Lengauer–Tarjan and the one-pass DAG algorithm agree on dominators and
    /// postdominators.
    #[test]
    fn dominator_engines_agree(dfg in small_dag_strategy()) {
        let rooted = RootedDfg::new(dfg);
        let lt = lengauer_tarjan(&Forward(&rooted));
        let dag = dominators(&rooted);
        for v in rooted.node_ids() {
            prop_assert_eq!(lt.idom(v), dag.idom(v));
        }
        let ltp = lengauer_tarjan(&Reverse(&rooted));
        let dagp = postdominators(&rooted);
        for v in rooted.node_ids() {
            prop_assert_eq!(ltp.idom(v), dagp.idom(v));
        }
    }

    /// On random DAGs, the cone completions, the backward set-dominance walk and the
    /// open-set sweep agree with their Lengauer–Tarjan and forward-DFS oracles for
    /// random seeds (the empty one included) × every target.
    #[test]
    fn cone_dominators_match_their_oracles(dfg in small_dag_strategy(), state in 1u64..u64::MAX) {
        let ctx = EnumContext::new(dfg);
        let seeds = seed_sets(ctx.rooted(), 6, state);
        check_dag_dominators(&ctx, &seeds);
    }

    /// On random DAGs, nested fresh and grown cone levels with sibling pops agree with
    /// their Lengauer–Tarjan and forward-DFS oracles.
    #[test]
    fn grown_cone_levels_match_their_oracles(dfg in small_dag_strategy(), state in 1u64..u64::MAX) {
        let ctx = EnumContext::new(dfg);
        check_grown_levels(&ctx, 60, state);
    }

    /// The reachability matrix agrees with a straightforward DFS, and dominance implies
    /// reachability.
    #[test]
    fn reachability_is_consistent(dfg in small_dag_strategy()) {
        let rooted = RootedDfg::new(dfg);
        let reach = Reachability::compute(&rooted);
        let dom = dominators(&rooted);
        for v in rooted.node_ids() {
            // DFS from v.
            let mut visited = rooted.node_set();
            let mut stack = vec![v];
            while let Some(x) = stack.pop() {
                for &s in rooted.succs(x) {
                    if visited.insert(s) {
                        stack.push(s);
                    }
                }
            }
            for w in rooted.node_ids() {
                prop_assert_eq!(reach.reaches(v, w), visited.contains(w), "{} -> {}", v, w);
            }
            // Strict dominance implies reachability.
            if let Some(idom) = dom.idom(v) {
                prop_assert!(reach.reaches(idom, v));
            }
        }
    }

    /// The dense bit set behaves like a reference set implementation.
    #[test]
    fn bitset_behaves_like_a_set(ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..100)) {
        use std::collections::BTreeSet;
        let mut dense = DenseNodeSet::new(64);
        let mut reference: BTreeSet<usize> = BTreeSet::new();
        for (index, insert) in ops {
            let node = NodeId::from_index(index);
            if insert {
                prop_assert_eq!(dense.insert(node), reference.insert(index));
            } else {
                prop_assert_eq!(dense.remove(node), reference.remove(&index));
            }
        }
        prop_assert_eq!(dense.len(), reference.len());
        let dense_items: Vec<usize> = dense.iter().map(|n| n.index()).collect();
        let reference_items: Vec<usize> = reference.into_iter().collect();
        prop_assert_eq!(dense_items, reference_items);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat reachability matrices agree with per-pair DFS oracles on DAGs whose
    /// rows span several words: `reaches`, `clean_reaches` (a path with no forbidden
    /// vertex strictly inside) and every ancestors row.
    #[test]
    fn flat_reachability_matches_dfs_oracles(dfg in wide_dag_strategy()) {
        let rooted = RootedDfg::new(dfg);
        let reach = Reachability::compute(&rooted);
        let n = rooted.num_nodes();
        // A DFS from `v` that continues only through vertices `through` admits; `v`
        // itself is always expanded and never counted as reached unless re-entered.
        let dfs = |v: NodeId, through: &dyn Fn(NodeId) -> bool| {
            let mut reached = rooted.node_set();
            let mut stack = vec![v];
            while let Some(x) = stack.pop() {
                for &s in rooted.succs(x) {
                    if reached.insert(s) && through(s) {
                        stack.push(s);
                    }
                }
            }
            reached
        };
        let reachable: Vec<DenseNodeSet> = rooted.node_ids().map(|v| dfs(v, &|_| true)).collect();
        for v in rooted.node_ids() {
            let clean = dfs(v, &|s| !rooted.is_forbidden(s));
            for w in rooted.node_ids() {
                prop_assert_eq!(reach.reaches(v, w), reachable[v.index()].contains(w), "{} -> {}", v, w);
                prop_assert_eq!(reach.clean_reaches(v, w), clean.contains(w), "clean {} -> {}", v, w);
                prop_assert_eq!(reach.ancestors(w).contains(v), reachable[v.index()].contains(w));
            }
            let ancestors: Vec<NodeId> = reach.ancestors(v).iter().collect();
            let expected: Vec<NodeId> =
                rooted.node_ids().filter(|&u| reachable[u.index()].contains(v)).collect();
            prop_assert_eq!(ancestors, expected);
            prop_assert_eq!(reach.ancestors(v).capacity(), n);
            prop_assert_eq!(reach.descendants(v).words(), reachable[v.index()].words());
        }
    }

    /// The engine's scratch checker and `Cut::validate` both give every candidate
    /// body the verdict — and on rejection the same `CutRejection` — of the validity
    /// definition written out directly over the graph, under random port budgets,
    /// connectedness and depth limits, with and without the technical input
    /// condition; and `Cut::from_body` derives the oracle's inputs and outputs.
    #[test]
    fn scratch_checker_matches_the_validity_oracle(
        dfg in small_dag_strategy(),
        bodies in proptest::collection::vec((any::<u64>(), 0u8..5), 16..17),
        ports in (1usize..9, 1usize..5),
        connected in any::<bool>(),
        depth in 0u32..5,
        require_io in any::<bool>(),
    ) {
        let ctx = EnumContext::new(dfg);
        let mut constraints = Constraints::new(ports.0, ports.1).unwrap().connected_only(connected);
        if depth < 4 {
            constraints = constraints.with_max_depth(depth);
        }
        let mut checker = CutChecker::new(&ctx);
        for (bits, kind) in bodies {
            let body = random_body(&ctx, bits, kind);
            let (inputs, outputs, expected) = oracle_validate(&ctx, &body, &constraints, require_io);
            prop_assert_eq!(checker.check(&ctx, &constraints, &body, require_io), expected);
            let cut = Cut::from_body(&ctx, body);
            prop_assert_eq!(cut.inputs(), &inputs[..]);
            prop_assert_eq!(cut.outputs(), &outputs[..]);
            prop_assert_eq!(cut.validate(&ctx, &constraints, require_io), expected);
        }
    }

    /// The technical input condition as a backward walk over each input's ancestor
    /// cone reports exactly the first offending input a forward DFS from the source
    /// reports, on random bodies of small and wide DAGs.
    #[test]
    fn backward_input_condition_matches_the_forward_dfs(
        dfg in small_dag_strategy(),
        wide in wide_dag_strategy(),
        bodies in proptest::collection::vec((any::<u64>(), 0u8..5), 16..17),
    ) {
        for ctx in [EnumContext::new(dfg), EnumContext::new(wide)] {
            for &(bits, kind) in &bodies {
                let cut = Cut::from_body(&ctx, random_body(&ctx, bits, kind));
                prop_assert_eq!(
                    cut.io_condition_violation(&ctx),
                    forward_io_condition_violation(ctx.rooted(), cut.inputs()),
                    "inputs {:?}",
                    cut.inputs()
                );
            }
        }
    }
}
