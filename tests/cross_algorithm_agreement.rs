//! Cross-crate integration tests: the three enumeration algorithms (incremental,
//! basic/reference, pruned exhaustive baseline) and the brute-force oracle must agree
//! on what the valid cuts of a basic block are, across workloads produced by every
//! generator in the workspace.

use std::collections::HashSet;
use std::sync::OnceLock;

use ise_enum::{
    baseline_cuts, basic_cuts, exhaustive_cuts, incremental_cuts, Constraints, Cut, CutKey,
    EngineOptions, EnumContext, Enumeration, PruningConfig,
};
use ise_workloads::expr::compile_block;
use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};
use ise_workloads::tree::{TreeDfgBuilder, TreeOrientation};

fn incremental(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
) -> Enumeration {
    incremental_cuts(ctx, constraints, pruning, &EngineOptions::default(), None)
}

fn keys(cuts: &[Cut]) -> Vec<CutKey<'_>> {
    let mut keys: Vec<CutKey<'_>> = cuts.iter().map(Cut::key).collect();
    keys.sort();
    keys
}

/// Small contexts drawn from every workload generator (kept below the exhaustive
/// oracle's subset limit).
fn small_contexts() -> Vec<(String, EnumContext)> {
    let mut out = Vec::new();
    out.push((
        "expr".to_string(),
        EnumContext::new(
            compile_block(
                "expr",
                "t = a + b; u = t ^ c; v = load(p); w = u + v; x = w - t; out x;",
            )
            .expect("snippet compiles"),
        ),
    ));
    out.push((
        "tree-fanout".to_string(),
        EnumContext::new(TreeDfgBuilder::new(3).build()),
    ));
    out.push((
        "tree-fanin".to_string(),
        EnumContext::new(
            TreeDfgBuilder::new(3)
                .with_orientation(TreeOrientation::FanIn)
                .build(),
        ),
    ));
    for seed in 0..4u64 {
        let dfg = random_dag(
            &RandomDagConfig::new(18)
                .with_live_ins(4)
                .with_memory_ratio(0.2),
            seed,
        );
        out.push((format!("random-{seed}"), EnumContext::new(dfg)));
    }
    for seed in 0..3u64 {
        let dfg = generate_block(&MiBenchLikeConfig::new(26), seed).expect("valid block");
        out.push((format!("mibench-{seed}"), EnumContext::new(dfg)));
    }
    out
}

/// The rows of the oracle grid, as (Nin, Nout).
const ORACLE_ROWS: [(usize, usize); 6] = [(2, 1), (4, 2), (3, 2), (3, 3), (5, 2), (2, 4)];

/// The rows that also run with every pruning off, free and connected-only.
const UNPRUNED_ROWS: [(usize, usize); 3] = [(2, 1), (3, 2), (4, 2)];

/// Whether a row skips a context. Nout=3 nests `PICK-OUTPUT` three deep and Nin=5
/// picks five inputs; on the largest context either row's engine runs alone take
/// seconds in a debug build.
fn skips(ctx: &EnumContext, nin: usize, nout: usize) -> bool {
    (nout == 3 || nin == 5) && ctx.candidate_outputs().len() > 19
}

/// Every small context whose exhaustive oracle is tractable, with that oracle
/// enumerated once at the widest row (Nin=5, Nout=4) and shared by every test that
/// compares against it: each row filters it ([`admitted`]).
fn oracle_contexts() -> &'static [(String, EnumContext, Enumeration)] {
    static ORACLES: OnceLock<Vec<(String, EnumContext, Enumeration)>> = OnceLock::new();
    ORACLES.get_or_init(|| {
        let widest = Constraints::new(5, 4).unwrap();
        small_contexts()
            .into_iter()
            .filter(|(_, ctx)| ctx.candidate_outputs().len() <= 22)
            .map(|(name, ctx)| {
                let oracle = exhaustive_cuts(&ctx, &widest, true);
                (name, ctx, oracle)
            })
            .collect()
    })
}

/// The cuts of `oracle` (enumerated at the widest row) that `constraints` admit:
/// validity under tighter ports is validity at the widest ports plus the two port
/// counts, and connected-only validity is that plus connectedness (Definition 4).
fn admitted<'a>(
    ctx: &EnumContext,
    oracle: &'a Enumeration,
    constraints: &Constraints,
) -> Vec<CutKey<'a>> {
    let mut keys: Vec<CutKey<'a>> = oracle
        .cuts
        .iter()
        .filter(|cut| {
            cut.inputs().len() <= constraints.max_inputs()
                && cut.outputs().len() <= constraints.max_outputs()
                && (!constraints.is_connected_only() || cut.is_connected(ctx))
        })
        .map(Cut::key)
        .collect();
    keys.sort();
    keys
}

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

#[test]
fn incremental_and_basic_match_the_oracle() {
    for (name, ctx, widest) in oracle_contexts() {
        for (nin, nout) in ORACLE_ROWS {
            if skips(ctx, nin, nout) {
                continue;
            }
            let constraints = Constraints::new(nin, nout).unwrap();
            let oracle = admitted(ctx, widest, &constraints);
            let pruned = incremental(ctx, &constraints, &PruningConfig::all());
            let basic = basic_cuts(ctx, &constraints);
            assert_eq!(
                keys(&pruned.cuts),
                oracle,
                "incremental vs oracle on {name}, Nin={nin}, Nout={nout}"
            );
            assert_eq!(
                keys(&basic.cuts),
                oracle,
                "basic vs oracle on {name}, Nin={nin}, Nout={nout}"
            );
            if nout == 3 && name == "mibench-0" {
                // Without the output prunings a candidate output may be a chosen input
                // or an ancestor of a chosen output; the skip must still be exact.
                let unpruned = incremental(ctx, &constraints, &PruningConfig::none());
                assert_eq!(
                    keys(&unpruned.cuts),
                    oracle,
                    "unpruned incremental vs oracle on {name}, Nin={nin}, Nout={nout}"
                );
            }
        }
    }
}

/// Filtering the widest oracle is the direct oracle: shown on one context, on
/// every row, and connected-only on one row.
#[test]
fn filtered_oracles_equal_direct_ones() {
    let (name, ctx, widest) = oracle_contexts()
        .iter()
        .find(|(name, _, _)| name == "mibench-0")
        .expect("the grid holds mibench-0");
    let rows = ORACLE_ROWS.map(|(nin, nout)| Constraints::new(nin, nout).unwrap());
    let connected = Constraints::new(4, 2).unwrap().connected_only(true);
    for constraints in rows.into_iter().chain([connected]) {
        let direct = exhaustive_cuts(ctx, &constraints, true);
        assert_eq!(
            keys(&direct.cuts),
            admitted(ctx, widest, &constraints),
            "filtered vs direct oracle on {name}, {constraints:?}"
        );
    }
}

/// Connected-only runs with every pruning on (the connectedness pruning included)
/// find exactly the oracle's connected cuts on every context and row; the unpruned
/// rows also match with every pruning off, free and connected-only.
#[test]
fn connected_only_and_unpruned_runs_match_the_oracle() {
    for (name, ctx, widest) in oracle_contexts() {
        for (nin, nout) in ORACLE_ROWS {
            if skips(ctx, nin, nout) {
                continue;
            }
            let free = Constraints::new(nin, nout).unwrap();
            let connected = free.clone().connected_only(true);
            let run = incremental(ctx, &connected, &PruningConfig::all());
            assert_eq!(
                keys(&run.cuts),
                admitted(ctx, widest, &connected),
                "connected-only vs oracle on {name}, Nin={nin}, Nout={nout}"
            );
            if !UNPRUNED_ROWS.contains(&(nin, nout)) || ctx.candidate_outputs().len() > 19 {
                continue;
            }
            for constraints in [free, connected] {
                let run = incremental(ctx, &constraints, &PruningConfig::none());
                assert_eq!(
                    keys(&run.cuts),
                    admitted(ctx, widest, &constraints),
                    "unpruned vs oracle on {name}, Nin={nin}, Nout={nout}, connected={}",
                    constraints.is_connected_only()
                );
            }
        }
    }
}

/// All 64 combinations of the six prunings, free and connected-only, on one
/// MiBench-like block: each finds exactly the oracle's cuts.
#[test]
fn every_pruning_mask_matches_the_oracle_on_a_mibench_block() {
    let (_, ctx, widest) = oracle_contexts()
        .iter()
        .find(|(name, _, _)| name == "mibench-0")
        .expect("the grid holds mibench-0");
    let free = Constraints::new(2, 2).unwrap();
    for constraints in [free.clone(), free.connected_only(true)] {
        let oracle = admitted(ctx, widest, &constraints);
        for mask in 0u8..64 {
            let run = incremental(ctx, &constraints, &pruning_from_mask(mask));
            assert_eq!(
                keys(&run.cuts),
                oracle,
                "pruning mask {mask:#08b}, connected={}",
                constraints.is_connected_only()
            );
        }
    }
}

#[test]
fn baseline_matches_the_relaxed_oracle_and_covers_the_polynomial_results() {
    for (name, ctx) in small_contexts() {
        if ctx.candidate_outputs().len() > 20 {
            continue;
        }
        let constraints = Constraints::new(4, 2).unwrap();
        let baseline = baseline_cuts(&ctx, &constraints, None);
        let relaxed_oracle = exhaustive_cuts(&ctx, &constraints, false);
        assert_eq!(
            keys(&baseline.cuts),
            keys(&relaxed_oracle.cuts),
            "baseline vs relaxed oracle on {name}"
        );
        let poly = incremental(&ctx, &constraints, &PruningConfig::all());
        let baseline_keys: HashSet<CutKey<'_>> = baseline.cuts.iter().map(Cut::key).collect();
        for cut in &poly.cuts {
            assert!(
                baseline_keys.contains(&cut.key()),
                "cut missing from baseline on {name}: {cut:?}"
            );
        }
    }
}

#[test]
fn pruning_never_changes_the_result_set() {
    for (name, ctx) in small_contexts() {
        let constraints = Constraints::new(3, 2).unwrap();
        let reference = incremental(&ctx, &constraints, &PruningConfig::none());
        for &technique in PruningConfig::technique_names() {
            let pruned = incremental(&ctx, &constraints, &PruningConfig::all_except(technique));
            assert_eq!(
                keys(&pruned.cuts),
                keys(&reference.cuts),
                "pruning configuration without {technique} changed the cuts on {name}"
            );
        }
        let all = incremental(&ctx, &constraints, &PruningConfig::all());
        assert_eq!(
            keys(&all.cuts),
            keys(&reference.cuts),
            "all prunings on {name}"
        );
        assert!(all.stats.search_nodes <= reference.stats.search_nodes);
    }
}

#[test]
fn every_enumerated_cut_satisfies_the_definitions() {
    for (name, ctx) in small_contexts() {
        let constraints = Constraints::new(4, 2).unwrap();
        let result = incremental(&ctx, &constraints, &PruningConfig::all());
        for cut in &result.cuts {
            assert!(cut.is_convex(&ctx), "{name}: non-convex cut {cut:?}");
            assert!(cut.inputs().len() <= 4, "{name}: too many inputs");
            assert!(cut.outputs().len() <= 2, "{name}: too many outputs");
            assert!(
                cut.io_condition_violation(&ctx).is_none(),
                "{name}: technical condition violated"
            );
            assert!(
                cut.body().iter().all(|v| !ctx.rooted().is_forbidden(v)),
                "{name}: forbidden vertex in cut"
            );
        }
    }
}

#[test]
fn connected_only_results_are_a_subset() {
    for (name, ctx) in small_contexts() {
        let free = Constraints::new(4, 2).unwrap();
        let connected = free.clone().connected_only(true);
        let all = incremental(&ctx, &free, &PruningConfig::all());
        let only_connected = incremental(&ctx, &connected, &PruningConfig::all());
        let all_keys: HashSet<CutKey<'_>> = all.cuts.iter().map(Cut::key).collect();
        assert!(
            only_connected
                .cuts
                .iter()
                .all(|c| all_keys.contains(&c.key())),
            "connected-only produced a cut the unconstrained run did not, on {name}"
        );
        assert!(only_connected.cuts.iter().all(|c| c.is_connected(&ctx)));
    }
}
