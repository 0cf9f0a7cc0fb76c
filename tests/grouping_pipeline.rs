//! End-to-end checks of canonical-form grouping against the committed `corpus/`
//! directory (the ISSUE 5 acceptance criteria, on a reduced search budget so the
//! debug-mode test stays fast; the criteria were additionally verified at the
//! default budget with the release binary, see DESIGN.md E8):
//!
//! * `ise group` finds patterns recurring in *distinct* blocks;
//! * grouping output is byte-identical for any thread count (wall times aside),
//!   equals what the plain coder (`canonicalize_cuts`, the memo's oracle) groups,
//!   and stays so with one shared memo serving every thread count in sequence
//!   (the memo must be observably pure);
//! * `ise select --global` saves at least as many corpus-wide cycles as the sum of
//!   the per-block greedy selections under the same constraints;
//! * the `ise group` command, which codes each block on its batch worker and drops
//!   its cuts, and `ise select --global` print exactly what the two-pass library
//!   composition renders, through the memo and through the plain coder.

use std::time::Duration;

use ise_repro::ise_canon::{
    canonicalize_cuts, select_ises_global, CanonMemo, GroupConfig, PatternIndex,
};
use ise_repro::ise_cli::batch::{
    run_batch_obs, BatchConfig, BlockOutcome, SelectionConfig, DEFAULT_PAR_THRESHOLD,
    DEFAULT_SPLIT_THRESHOLD,
};
use ise_repro::ise_cli::group::{
    global_select_report_with_index, group_json, group_markdown, group_outcomes,
};
use ise_repro::ise_cli::report::{batch_json, RunMeta};
use ise_repro::ise_corpus::{load_corpus_path, write_corpus, CorpusBlock};
use ise_repro::ise_enum::{Constraints, Cut, DedupMode};
use ise_repro::ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};

const BUDGET: usize = 10_000;

fn committed_corpus() -> Vec<CorpusBlock> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    load_corpus_path(dir).expect("the committed corpus/ directory validates")
}

fn config(threads: usize) -> BatchConfig {
    BatchConfig {
        threads,
        budget: Some(BUDGET),
        ..BatchConfig::new(Constraints::new(4, 2).unwrap())
    }
}

/// The pattern index of `outcomes` coded by the plain, unmemoized coder: the
/// oracle the memoized coding of the commands must reproduce.
fn plain_index(
    blocks: &[CorpusBlock],
    outcomes: &[BlockOutcome],
    config: &GroupConfig,
) -> PatternIndex {
    let mut index = PatternIndex::new(config.clone());
    for outcome in outcomes {
        let block = &blocks[outcome.index];
        let coded = canonicalize_cuts(&block.dfg, &outcome.enumeration.cuts, config);
        index.add_coded_block(&coded, block.weight());
    }
    index
}

/// Acceptance: on the committed 20-block corpus at least one pattern recurs in
/// distinct blocks — the whole point of grouping.
#[test]
fn committed_corpus_has_cross_block_recurring_patterns() {
    let blocks = committed_corpus();
    let outcomes = run_batch_obs(&blocks, &config(2), None);
    let index = group_outcomes(&blocks, &outcomes, &GroupConfig::default(), 2, None);
    let cross_block = index
        .entries()
        .iter()
        .filter(|e| e.static_count() >= 2 && e.distinct_blocks() >= 2)
        .count();
    assert!(
        cross_block >= 1,
        "expected recurring cross-block patterns, found none among {} patterns",
        index.len()
    );
    // Sanity of the aggregates the `ise group` report is built from.
    assert_eq!(index.num_blocks(), blocks.len());
    assert_eq!(
        index.total_cuts(),
        outcomes
            .iter()
            .map(|o| o.enumeration.cuts.len())
            .sum::<usize>()
    );
}

/// Acceptance: the grouping report is byte-identical for any `--threads` value
/// once wall times are stripped — coded by the plain coder, by a memo local to
/// each call, and by one *shared* memo serving every thread count in sequence
/// (so later renders run entirely on warm memo hits yet produce the same bytes).
#[test]
fn grouping_report_is_thread_count_and_memo_invariant() {
    let blocks = committed_corpus();
    let meta = |threads| RunMeta {
        corpus: "corpus".into(),
        nin: 4,
        nout: 2,
        threads,
        budget: Some(BUDGET),
        par_threshold: 64,
        split_threshold: Some(ise_repro::ise_cli::batch::DEFAULT_SPLIT_THRESHOLD),
        dedup_mode: DedupMode::DedupFirst,
        select: false,
        elapsed: Duration::ZERO,
    };
    let group_config = GroupConfig::default();
    // Enumerates at `threads` and renders the index that `code` builds.
    let render = |threads: usize, code: &dyn Fn(&[BlockOutcome]) -> PatternIndex| {
        let outcomes = run_batch_obs(&blocks, &config(threads), None);
        group_json(&code(&outcomes), &outcomes, &meta(threads), 1, None).render()
    };
    let strip = |s: &str| {
        s.split(',')
            .filter(|f| !f.contains("_seconds") && !f.contains("\"threads\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let plain = |outcomes: &[BlockOutcome]| plain_index(&blocks, outcomes, &group_config);
    let reference = strip(&render(1, &plain));
    assert_eq!(reference, strip(&render(4, &plain)));
    let local =
        |outcomes: &[BlockOutcome]| group_outcomes(&blocks, outcomes, &group_config, 4, None);
    assert_eq!(reference, strip(&render(4, &local)), "call-local memo");
    let memo = CanonMemo::new();
    for threads in [1, 2, 4] {
        let shared = |outcomes: &[BlockOutcome]| {
            group_outcomes(&blocks, outcomes, &group_config, threads, Some(&memo))
        };
        assert_eq!(
            reference,
            strip(&render(threads, &shared)),
            "memoized grouping at {threads} threads diverged"
        );
    }
    assert!(
        memo.stats().raw_hits > 0,
        "the second and third memoized renders must hit the shared memo"
    );
}

/// Acceptance: corpus-level selection must not lose to per-block greedy under the
/// same constraints — crediting recurrence can only help.
#[test]
fn global_selection_beats_the_per_block_sum_on_the_committed_corpus() {
    let blocks = committed_corpus();

    let mut per_block_config = config(2);
    per_block_config.select = Some(SelectionConfig {
        max_instructions: 4,
        ports_in: 4,
        ports_out: 2,
    });
    let per_block = run_batch_obs(&blocks, &per_block_config, None);
    let per_block_total: u64 = per_block
        .iter()
        .filter_map(|o| o.selection.as_ref())
        .map(|s| u64::from(s.total_saved_cycles))
        .sum();
    assert!(per_block_total > 0, "the corpus has profitable candidates");

    let outcomes = run_batch_obs(&blocks, &config(2), None);
    let index = group_outcomes(&blocks, &outcomes, &GroupConfig::default(), 2, None);
    let views: Vec<&[Cut]> = outcomes
        .iter()
        .map(|o| o.enumeration.cuts.as_slice())
        .collect();
    let global = select_ises_global(&index, &views, 0);
    assert!(
        global.total_saved_cycles >= per_block_total,
        "global {} < per-block sum {per_block_total}",
        global.total_saved_cycles
    );
}

/// Drops every `"*_seconds":<number>` field, as `ci/strip-volatile.sh` does.
fn strip_seconds(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("_seconds\":") {
        let key_start = rest[..at].rfind('"').expect("a key opens with a quote");
        out.push_str(&rest[..key_start]);
        let value = &rest[at + "_seconds\":".len()..];
        let end = value
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | '-')))
            .unwrap_or(value.len());
        rest = &value[end..];
    }
    out.push_str(rest);
    out
}

/// Writes `count` small MiBench-like blocks (12 to 32 vertices) as two `.dfg`
/// files under a fresh directory named after `tag`.
fn small_block_corpus_dir(tag: &str, count: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ise-grouping-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let blocks: Vec<CorpusBlock> = (0..count)
        .map(|i| CorpusBlock {
            dfg: generate_block(&MiBenchLikeConfig::new(12 + (i * 7) % 21), 500 + i as u64)
                .expect("the MiBench-like generator yields valid blocks"),
            meta: Vec::new(),
        })
        .collect();
    let half = count / 2;
    std::fs::write(dir.join("a.dfg"), write_corpus(&blocks[..half])).unwrap();
    std::fs::write(dir.join("b.dfg"), write_corpus(&blocks[half..])).unwrap();
    dir
}

/// `ise group` codes each block on its batch worker and drops its cuts, yet its
/// stripped JSON and markdown, like those of `ise select --global`, must equal the
/// two-pass library composition —
/// `run_batch_obs`, then `group_outcomes` or the plain coder, then the renderer —
/// byte for byte, at 1, 2 and 8 threads. The commands stream their JSON row
/// by row, and `enumerate`, per-block `select` and `group --min-count` print
/// exactly what the tree adapters (`batch_json`, `group_json`) render too.
#[test]
fn commands_render_exactly_what_the_library_composition_renders() {
    let dir = small_block_corpus_dir("cli-vs-lib", 80);
    let corpus = dir.to_str().unwrap().to_string();
    let blocks = load_corpus_path(&dir).expect("the generated corpus loads");
    let (nin, nout) = (2, 1);
    let group_config = GroupConfig::new(nin, nout);
    for threads in [1usize, 2, 8] {
        // Runs the command over the corpus and returns its JSON and markdown.
        let cli = |command: &[&str], label: &str| {
            let out = dir.join("out.json");
            let md = dir.join("out.md");
            let mut args: Vec<String> = command.iter().map(ToString::to_string).collect();
            for arg in [
                "--corpus",
                &corpus,
                "--nin",
                "2",
                "--nout",
                "1",
                "--threads",
                &threads.to_string(),
                "--out",
                out.to_str().unwrap(),
                "--md",
                md.to_str().unwrap(),
            ] {
                args.push(arg.to_string());
            }
            ise_repro::ise_cli::run(&args).unwrap_or_else(|e| panic!("{label}: {e}"));
            (
                std::fs::read_to_string(&out).unwrap(),
                std::fs::read_to_string(&md).unwrap(),
            )
        };
        let batch = BatchConfig {
            threads,
            budget: Some(ise_repro::ise_cli::DEFAULT_BUDGET),
            ..BatchConfig::new(Constraints::new(nin, nout).unwrap())
        };
        let outcomes = run_batch_obs(&blocks, &batch, None);
        let meta = |select| RunMeta {
            corpus: corpus.clone(),
            nin,
            nout,
            threads,
            budget: Some(ise_repro::ise_cli::DEFAULT_BUDGET),
            par_threshold: DEFAULT_PAR_THRESHOLD,
            split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
            dedup_mode: DedupMode::DedupFirst,
            select,
            elapsed: Duration::ZERO,
        };
        for memo_on in [true, false] {
            let index = if memo_on {
                group_outcomes(
                    &blocks,
                    &outcomes,
                    &group_config,
                    threads,
                    Some(&CanonMemo::new()),
                )
            } else {
                plain_index(&blocks, &outcomes, &group_config)
            };
            assert!(index.total_cuts() > index.len(), "patterns recur");
            let group_lib = (
                group_json(&index, &outcomes, &meta(false), 1, None).render() + "\n",
                group_markdown(&index, &outcomes, &meta(false), 1, 40, None),
            );
            let (json, md, _) = global_select_report_with_index(
                &index,
                &blocks,
                &outcomes,
                &meta(true),
                &group_config,
                0,
            );
            let global_lib = (json.render() + "\n", md);
            let mut runs = vec![
                (vec!["group"], group_lib),
                (vec!["select", "--global"], global_lib),
            ];
            if memo_on {
                let min_count = 3;
                runs.push((
                    vec!["group", "--min-count", "3"],
                    (
                        group_json(&index, &outcomes, &meta(false), min_count, None).render()
                            + "\n",
                        group_markdown(&index, &outcomes, &meta(false), min_count, 40, None),
                    ),
                ));
            }
            for (command, lib) in runs {
                let label = format!("{command:?} threads={threads} memo={memo_on}");
                let (cli_json, cli_md) = cli(&command, &label);
                assert!(cli_json.contains(r#""total_cuts":"#), "{label}");
                assert_eq!(strip_seconds(&cli_json), strip_seconds(&lib.0), "{label}");
                assert_eq!(cli_md, lib.1, "{label}");
            }
        }
        for select in [false, true] {
            let command = if select { "select" } else { "enumerate" };
            let label = format!("{command} threads={threads}");
            let config = BatchConfig {
                select: select.then_some(SelectionConfig {
                    max_instructions: 4,
                    ports_in: nin,
                    ports_out: nout,
                }),
                ..batch.clone()
            };
            let lib = batch_json(&run_batch_obs(&blocks, &config, None), &meta(select)).render();
            let (cli_json, _) = cli(&[command], &label);
            assert!(cli_json.contains(r#""total_cuts":"#), "{label}");
            assert_eq!(
                strip_seconds(&cli_json),
                strip_seconds(&(lib + "\n")),
                "{label}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
