//! End-to-end checks of the corpus + batch subsystem against the committed
//! `corpus/` directory: the files validate and round-trip, and the batch CLI
//! reports exactly what direct engine runs report, for any thread count.

use ise_repro::ise_cli::batch::{run_batch_obs, BatchConfig};
use ise_repro::ise_corpus::{dfg_eq, load_corpus_path, parse_corpus, write_block, CorpusBlock};
use ise_repro::ise_enum::{
    incremental_cuts, Constraints, EngineOptions, EnumContext, EnumStats, PruningConfig,
};

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
