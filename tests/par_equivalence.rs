//! Task-parallel enumeration equivalence: `par(tasks=k, threads=t)` must reproduce
//! the serial `incremental_cuts` result — the cut list in order *and* the ten
//! counters the merge contract promises — across all four `ise-workloads` families,
//! every §5.3 pruning combination, and several (tasks, threads) configurations. This
//! is the end-to-end form of the DESIGN.md §1.3 argument that first-output subtrees
//! are independent and that a merge over cut bodies alone restores the serial cut
//! list. The rejection tallies count per task and are not compared. E7's driver
//! (`parallel_cuts`) and the `ise` batch runner must also agree with each other
//! exactly, budgeted runs included.

use ise_repro::ise_cli::batch::{run_batch_obs, BatchConfig, MAX_TASKS_PER_BLOCK};
use ise_repro::ise_corpus::load_corpus_path;
use ise_repro::ise_enum::par::{parallel_cuts, ParConfig};
use ise_repro::ise_enum::{
    incremental_cuts, Constraints, Cut, CutKey, EngineOptions, EnumContext, EnumStats, Enumeration,
    PruningConfig, TaskLoadSummary,
};
use ise_repro::ise_graph::Dfg;
use ise_repro::ise_workloads::compile_block;
use ise_repro::ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};
use ise_repro::ise_workloads::random_dag::{random_dag, RandomDagConfig};
use ise_repro::ise_workloads::skewed_dag::{skewed_dag, SkewedDagConfig};
use ise_repro::ise_workloads::tree::{TreeDfgBuilder, TreeOrientation};

/// One small graph per workload family (kept tiny: the full test sweeps 64 pruning
/// masks × several parallel configurations per graph).
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

fn keys(result: &Enumeration) -> Vec<CutKey<'_>> {
    result.cuts.iter().map(Cut::key).collect()
}

/// The counters a fanned-out run shares with its serial run: all but the per-task
/// rejection tallies (see `ise_enum::par::merge_tasks`).
fn invariant_stats(s: &EnumStats) -> [usize; 10] {
    [
        s.valid_cuts,
        s.search_nodes,
        s.candidates_checked,
        s.dominator_runs,
        s.pruned_output_output,
        s.pruned_output_input,
        s.pruned_input_input,
        s.pruned_dominator_input,
        s.pruned_connectedness,
        s.pruned_build_s,
    ]
}

/// The headline property: parallel ≡ serial per family × pruning mask ×
/// (tasks, threads) — the cut order and every counter the merge contract covers.
#[test]
fn parallel_equals_serial_across_families_and_prunings() {
    for dfg in family_graphs() {
        let name = dfg.name().to_string();
        let ctx = EnumContext::new(dfg);
        let constraints = Constraints::new(3, 2).unwrap();
        for mask in 0u8..64 {
            let pruning = pruning_from_mask(mask);
            let serial = incremental_cuts(
                &ctx,
                &constraints,
                &pruning,
                &EngineOptions::default(),
                None,
            );
            for (tasks, threads) in [(2, 2), (5, 3)] {
                let config = ParConfig::new(tasks, threads);
                let par = parallel_cuts(&ctx, &constraints, &pruning, &config, None).enumeration;
                assert_eq!(
                    invariant_stats(&par.stats),
                    invariant_stats(&serial.stats),
                    "`{name}` mask {mask:#08b} tasks={tasks} threads={threads}: stats"
                );
                assert_eq!(
                    keys(&par),
                    keys(&serial),
                    "`{name}` mask {mask:#08b} tasks={tasks} threads={threads}: cuts"
                );
            }
        }
    }
}

/// The same equivalence holds under wider port limits, three outputs (nested
/// `PICK-OUTPUT` calls inside every task) and connected-only constraints.
#[test]
fn parallel_equals_serial_under_connectedness() {
    for dfg in family_graphs() {
        let name = dfg.name().to_string();
        let ctx = EnumContext::new(dfg);
        for constraints in [
            Constraints::new(4, 2).unwrap(),
            Constraints::new(3, 3).unwrap(),
            Constraints::new(2, 2).unwrap().connected_only(true),
        ] {
            let label = format!("`{name}` connected={}", constraints.is_connected_only());
            let pruning = PruningConfig::all();
            let serial = incremental_cuts(
                &ctx,
                &constraints,
                &pruning,
                &EngineOptions::default(),
                None,
            );
            let par = parallel_cuts(&ctx, &constraints, &pruning, &ParConfig::new(4, 2), None)
                .enumeration;
            assert_eq!(
                invariant_stats(&par.stats),
                invariant_stats(&serial.stats),
                "{label}"
            );
            assert_eq!(keys(&par), keys(&serial), "{label}");
        }
    }
}

/// Oversplitting beyond the candidate count must degrade gracefully (empty tasks)
/// and still reproduce the serial result.
#[test]
fn more_tasks_than_candidates_is_harmless() {
    let dfg = random_dag(&RandomDagConfig::new(10).with_live_ins(2), 7);
    let ctx = EnumContext::new(dfg);
    let constraints = Constraints::new(3, 2).unwrap();
    let pruning = PruningConfig::all();
    let serial = incremental_cuts(
        &ctx,
        &constraints,
        &pruning,
        &EngineOptions::default(),
        None,
    );
    let config = ParConfig::new(1000, 8);
    let par = parallel_cuts(&ctx, &constraints, &pruning, &config, None).enumeration;
    assert_eq!(invariant_stats(&par.stats), invariant_stats(&serial.stats));
    assert_eq!(keys(&par), keys(&serial));
}

/// The skewed-DAG workload exists to make count-balanced fan-out pathological: the
/// static fan-out must be visibly skewed and still reproduce the serial bytes
/// exactly.
#[test]
fn static_fan_out_on_the_skewed_block_stays_exact() {
    let dfg = skewed_dag(&SkewedDagConfig::new(24, 24), 42);
    let ctx = EnumContext::new(dfg);
    let constraints = Constraints::new(4, 2).unwrap();
    let pruning = PruningConfig::all();
    let serial = incremental_cuts(
        &ctx,
        &constraints,
        &pruning,
        &EngineOptions::default(),
        None,
    );
    let run = parallel_cuts(&ctx, &constraints, &pruning, &ParConfig::new(8, 2), None);
    let skew = TaskLoadSummary::from_task_nodes(&run.task_nodes).skew_ratio();
    assert!(
        skew > 2.0,
        "the workload must skew a count-balanced fan-out, got {skew:.2}"
    );
    assert_eq!(
        run.task_nodes.iter().sum::<usize>(),
        serial.stats.search_nodes
    );
    assert_eq!(
        invariant_stats(&run.enumeration.stats),
        invariant_stats(&serial.stats)
    );
    assert_eq!(keys(&run.enumeration), keys(&serial));
}

/// E7's driver and the product's plan, run and merge a block the same way: on
/// every committed block at the golden budget, `parallel_cuts` with
/// `MAX_TASKS_PER_BLOCK` tasks and the batch runner with every block fanned out
/// give the same cut keys, the same counters and the same task count.
#[test]
fn parallel_cuts_matches_the_batch_runner_under_a_budget() {
    let blocks = load_corpus_path(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
        .expect("the committed corpus/ directory validates");
    let budget = 100_000;
    let config = BatchConfig {
        budget: Some(budget),
        par_threshold: 1,
        threads: 2,
        ..BatchConfig::new(Constraints::new(4, 2).unwrap())
    };
    let mut par_config = ParConfig::new(MAX_TASKS_PER_BLOCK, 2);
    par_config.options.max_search_nodes = Some(budget);
    let mut share_spent = 0;
    for (block, outcome) in blocks.iter().zip(run_batch_obs(&blocks, &config, None)) {
        let name = block.dfg.name();
        let ctx = EnumContext::new(block.dfg.clone());
        let run = parallel_cuts(
            &ctx,
            &config.constraints,
            &config.pruning,
            &par_config,
            None,
        );
        assert_eq!(run.task_nodes.len(), outcome.tasks, "{name}: task count");
        assert_eq!(run.enumeration.stats, outcome.enumeration.stats, "{name}");
        assert_eq!(
            keys(&run.enumeration),
            keys(&outcome.enumeration),
            "{name}: cuts"
        );
        let share = budget.div_ceil(outcome.tasks);
        if outcome.tasks > 1 && run.task_nodes.iter().any(|&nodes| nodes >= share) {
            share_spent += 1;
        }
    }
    assert!(
        share_spent > 0,
        "some fanned-out task spends its budget share"
    );
}
