//! Cross-crate integration tests: the three enumeration algorithms (incremental,
//! basic/reference, pruned exhaustive baseline) and the brute-force oracle must agree
//! on what the valid cuts of a basic block are, across workloads produced by every
//! generator in the workspace.

use std::collections::HashSet;

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

/// The rows of [`incremental_and_basic_match_the_oracle`], as (Nin, Nout).
const ORACLE_ROWS: [(usize, usize); 4] = [(2, 1), (4, 2), (3, 2), (3, 3)];

/// The cuts of `oracle` (enumerated at Nin=4, Nout=3, the widest row) that a row's
/// ports admit: validity under tighter ports is validity at the widest ports plus
/// the two port counts.
fn within_ports(oracle: &Enumeration, nin: usize, nout: usize) -> Vec<CutKey<'_>> {
    let mut keys: Vec<CutKey<'_>> = oracle
        .cuts
        .iter()
        .filter(|cut| cut.inputs().len() <= nin && cut.outputs().len() <= nout)
        .map(Cut::key)
        .collect();
    keys.sort();
    keys
}

#[test]
fn incremental_and_basic_match_the_oracle() {
    for (name, ctx) in small_contexts() {
        if ctx.candidate_outputs().len() > 22 {
            continue; // keep the exhaustive oracle tractable
        }
        // One Θ(2^k) oracle per context, at the widest row; each row filters it.
        let widest = exhaustive_cuts(&ctx, &Constraints::new(4, 3).unwrap(), true);
        for (nin, nout) in ORACLE_ROWS {
            // Nout=3 nests `PICK-OUTPUT` three deep, so its skip of undominated outputs
            // runs under a non-empty input set at every level. The row skips the
            // largest context, whose engine runs alone take seconds in a debug build.
            if nout == 3 && ctx.candidate_outputs().len() > 19 {
                continue;
            }
            let constraints = Constraints::new(nin, nout).unwrap();
            let oracle = within_ports(&widest, nin, nout);
            if name == "mibench-0" {
                // The filtering is the direct oracle: shown once, on every row.
                let direct = exhaustive_cuts(&ctx, &constraints, true);
                assert_eq!(
                    keys(&direct.cuts),
                    oracle,
                    "filtered vs direct oracle on {name}, Nin={nin}, Nout={nout}"
                );
            }
            let incremental = incremental(&ctx, &constraints, &PruningConfig::all());
            let basic = basic_cuts(&ctx, &constraints);
            assert_eq!(
                keys(&incremental.cuts),
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
                let unpruned = incremental_cuts(
                    &ctx,
                    &constraints,
                    &PruningConfig::none(),
                    &EngineOptions::default(),
                    None,
                );
                assert_eq!(
                    keys(&unpruned.cuts),
                    oracle,
                    "unpruned incremental vs oracle on {name}, Nin={nin}, Nout={nout}"
                );
            }
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
