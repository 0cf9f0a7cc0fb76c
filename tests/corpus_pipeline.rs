//! End-to-end checks of the corpus + batch subsystem against the committed
//! `corpus/` directory: the files validate and round-trip, the batch CLI
//! reports exactly what direct engine runs report, for any thread count, and
//! `ise report --dot` highlights what `ise select` selects.

use ise_repro::ise_cli::batch::{run_batch_obs, BatchConfig, SelectionConfig};
use ise_repro::ise_corpus::{dfg_eq, load_corpus_path, parse_corpus, write_block, CorpusBlock};
use ise_repro::ise_enum::{
    incremental_cuts, select_ises, Constraints, EngineOptions, EnumContext, EnumStats,
    PruningConfig,
};
use ise_repro::ise_graph::DotOptions;

fn committed_corpus() -> Vec<CorpusBlock> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    load_corpus_path(dir).expect("the committed corpus/ directory validates")
}

#[test]
fn committed_corpus_loads_and_round_trips() {
    let blocks = committed_corpus();
    assert!(
        blocks.len() >= 20,
        "the committed corpus holds ~20 diverse blocks, found {}",
        blocks.len()
    );
    for block in &blocks {
        let reparsed = parse_corpus(&write_block(block))
            .unwrap_or_else(|e| panic!("{} does not re-parse: {e}", block.dfg.name()));
        assert!(
            dfg_eq(&block.dfg, &reparsed[0].dfg),
            "{} does not round-trip",
            block.dfg.name()
        );
    }
}

#[test]
fn batch_cli_counts_equal_direct_engine_runs_for_any_thread_count() {
    // The small committed blocks, exhaustively enumerated (no budget): direct
    // cross-check stays fast while exercising three workload families.
    let blocks: Vec<CorpusBlock> = committed_corpus()
        .into_iter()
        .filter(|b| b.dfg.len() <= 50)
        .collect();
    assert!(blocks.len() >= 5, "expected several small committed blocks");

    let constraints = Constraints::new(4, 2).unwrap();
    let pruning = PruningConfig::all();
    let config = |threads| BatchConfig {
        threads,
        ..BatchConfig::new(constraints.clone())
    };

    let single = run_batch_obs(&blocks, &config(1), None);
    for (outcome, block) in single.iter().zip(&blocks) {
        let ctx = EnumContext::new(block.dfg.clone());
        let direct = incremental_cuts(
            &ctx,
            &constraints,
            &pruning,
            &EngineOptions::default(),
            None,
        );
        assert_eq!(
            outcome.enumeration.cuts.len(),
            direct.cuts.len(),
            "batch vs direct cut count on {}",
            outcome.name
        );
        assert_eq!(
            outcome.enumeration.stats.search_nodes, direct.stats.search_nodes,
            "batch vs direct search trace on {}",
            outcome.name
        );
    }

    let eight = run_batch_obs(&blocks, &config(8), None);
    let counts = |outcomes: &[ise_repro::ise_cli::batch::BlockOutcome]| -> Vec<(String, usize)> {
        outcomes
            .iter()
            .map(|o| (o.name.clone(), o.enumeration.cuts.len()))
            .collect()
    };
    assert_eq!(counts(&single), counts(&eight));
    let aggregate = |outcomes: &[ise_repro::ise_cli::batch::BlockOutcome]| -> usize {
        outcomes.iter().map(|o| o.enumeration.cuts.len()).sum()
    };
    assert_eq!(aggregate(&single), aggregate(&eight));
}

/// PR 4 extension of the invariance above, down to task-level sharding: with
/// intra-block fan-out forced on every (small) committed block, any thread count and
/// the serial whole-block runs must all report identical cuts and every counter the
/// merge contract covers.
#[test]
fn task_level_sharding_is_invariant_on_the_committed_corpus() {
    let blocks: Vec<CorpusBlock> = committed_corpus()
        .into_iter()
        .filter(|b| b.dfg.len() <= 50)
        .collect();
    assert!(blocks.len() >= 5, "expected several small committed blocks");

    let constraints = Constraints::new(4, 2).unwrap();
    let config = |threads: usize, par_threshold: usize| {
        let mut cfg = BatchConfig::new(constraints.clone());
        cfg.threads = threads;
        cfg.par_threshold = par_threshold;
        cfg
    };

    // Whole blocks on one thread is the serial reference.
    let serial = run_batch_obs(&blocks, &config(1, usize::MAX), None);
    for threads in [1, 8] {
        let fanned = run_batch_obs(&blocks, &config(threads, 1), None);
        assert_eq!(serial.len(), fanned.len());
        let mut total = 0usize;
        for (a, b) in serial.iter().zip(&fanned) {
            assert_eq!(a.name, b.name);
            assert!(b.tasks > 1, "{} did not fan out", b.name);
            assert_eq!(
                invariant_stats(&a.enumeration.stats),
                invariant_stats(&b.enumeration.stats),
                "task sharding changed the stats of {} at {threads} threads",
                a.name
            );
            let ak: Vec<_> = a.enumeration.cuts.iter().map(|c| c.key()).collect();
            let bk: Vec<_> = b.enumeration.cuts.iter().map(|c| c.key()).collect();
            assert_eq!(ak, bk, "task sharding changed the cuts of {}", a.name);
            total += b.enumeration.cuts.len();
        }
        assert!(total > 0, "the small committed blocks have cuts");
    }
}

/// The counters a fanned-out block shares with its serial run: all but the
/// per-task rejection tallies (see `ise_enum::par::merge_tasks`).
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

/// `ise report --dot` highlights exactly the ISEs `ise select` selects, on a
/// block that fans out and spends its whole budget. A serial whole-budget run
/// selects differently there, so a `--dot` that enumerated on its own would fail.
#[test]
fn report_dot_highlights_what_select_selects_on_a_fanned_out_block() {
    let name = "mibench-like-64-23799";
    let budget = 100_000;
    let block = committed_corpus()
        .into_iter()
        .find(|b| b.dfg.name() == name)
        .expect("the committed corpus holds the block");
    let select = SelectionConfig {
        max_instructions: 4,
        ports_in: 4,
        ports_out: 2,
    };
    let config = BatchConfig {
        budget: Some(budget),
        select: Some(select.clone()),
        ..BatchConfig::new(Constraints::new(4, 2).unwrap())
    };
    let outcome = run_batch_obs(std::slice::from_ref(&block), &config, None).remove(0);
    assert!(outcome.tasks > 1, "{name} fans out");
    let chosen = &outcome
        .selection
        .as_ref()
        .expect("selection requested")
        .chosen;
    let mut expected = DotOptions::new();
    for (cut, _) in chosen {
        expected = expected.highlight(cut);
    }

    let serial = incremental_cuts(
        &EnumContext::new(block.dfg.clone()),
        &config.constraints,
        &config.pruning,
        &EngineOptions {
            max_search_nodes: Some(budget),
        },
        None,
    );
    assert_eq!(serial.stats.search_nodes, budget, "{name} is budget-bound");
    let serial_pick = select_ises(
        &block.dfg,
        &serial.cuts,
        select.ports_in,
        select.ports_out,
        select.max_instructions,
    );
    let serial_keys: Vec<_> = serial_pick.chosen.iter().map(|(c, _)| c.key()).collect();
    let batch_keys: Vec<_> = chosen.iter().map(|(c, _)| c.key()).collect();
    assert_ne!(
        serial_keys, batch_keys,
        "the fixture must tell the batch's selection from a serial run's"
    );

    let dir = std::env::temp_dir().join(format!("ise-dot-select-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("block.dot");
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let args: Vec<String> = [
        "report",
        "--corpus",
        corpus,
        "--dot",
        name,
        "--budget",
        &budget.to_string(),
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    ise_repro::ise_cli::run(&args).unwrap();
    let dot = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(dot, expected.render(&block.dfg));
}
