//! Corpus-wide grouping and global selection: the `ise group` subcommand and the
//! `ise select --global` mode.
//!
//! Both start from the batch enumeration and code every block's cut list through
//! a shared [`CanonMemo`] ([`ise_canon::canonicalize_cuts_memo`]), then intern the
//! coded cuts into the index's [`ise_canon::PatternTable`] on the
//! same worker, keeping one `u32` provisional pattern id per cut. `ise group` uses
//! [`group_batch`], which codes each block on the batch worker that finalized it,
//! so coding overlaps enumeration and the cut lists never pile up. `ise select
//! --global` keeps every cut for placement anyway, so it codes after the batch
//! with [`group_outcomes`]. Either way the blocks' ids are added to the
//! [`PatternIndex`] strictly in corpus order, which renumbers them into
//! first-seen order, so the index is a deterministic function of the corpus and
//! the enumeration flags: `--threads` never changes a byte of the JSON output (the
//! CI grouping smoke diffs stripped runs at different thread counts).

use std::io::{self, Write};

use crate::batch::{run_batch, BatchConfig, BlockOutcome};
use crate::report::{tree_of, write_batch_json_with, RunMeta};
use ise_bench::json::{Json, ObjectWriter};
use ise_canon::{
    canonicalize_cuts_memo, select_ises_global, CanonMemo, GlobalSelection, GroupConfig, MemoStats,
    PatternIndex,
};
use ise_corpus::CorpusBlock;
use ise_enum::par::run_items;
use ise_enum::{block_software_cycles, block_speedup, Cut};
use ise_obs::MetricsRegistry;

/// Runs the batch and groups its cuts: what `ise group` computes before
/// rendering.
///
/// Each block is coded through `memo` on the worker that finalized it, right
/// after its enumeration, and its coded cuts are interned there, so the worker
/// frees them itself and hands back only the block's outcome without its cut
/// list (the report renders counts alone) plus one provisional pattern id per cut.
/// After the workers join, the blocks' ids are added to the index in corpus
/// order. Block profile weights come from the `weight` meta key
/// ([`CorpusBlock::weight`]).
///
/// The result equals [`crate::batch::run_batch_obs`] followed by
/// [`group_outcomes`], apart from the dropped cut lists and the wall times.
pub fn group_batch(
    blocks: &[CorpusBlock],
    config: &BatchConfig,
    rec: Option<&MetricsRegistry>,
    group_config: &GroupConfig,
    memo: &CanonMemo,
) -> (PatternIndex, Vec<BlockOutcome>) {
    let mut index = PatternIndex::new(group_config.clone());
    let table = index.table();
    let interned = run_batch(blocks, config, rec, |block, outcome| {
        let ids = table.intern(&canonicalize_cuts_memo(
            &block.dfg,
            &outcome.enumeration.cuts,
            group_config,
            memo,
        ));
        (outcome.without_cuts(), ids)
    });
    let outcomes = interned
        .into_iter()
        .map(|(outcome, ids)| {
            index.add_interned_block(&ids, blocks[outcome.index].weight());
            outcome
        })
        .collect();
    (index, outcomes)
}

/// Builds the pattern index over finished batch outcomes, which must still hold
/// their cut lists (as [`crate::batch::run_batch_obs`] returns them).
///
/// Coding and interning run on up to `threads` workers (one block per task),
/// through `memo`, or without one through a memo local to the call; the blocks'
/// ids are added to the index sequentially in block order, so the result is
/// identical for every thread count and equals what [`group_batch`] builds.
/// `ise select --global` uses this two-pass form: it keeps every cut for
/// placement, so coding on the batch workers would save no memory, and coding
/// afterwards keeps the enumeration's and the coding's peaks apart.
pub fn group_outcomes(
    blocks: &[CorpusBlock],
    outcomes: &[BlockOutcome],
    config: &GroupConfig,
    threads: usize,
    memo: Option<&CanonMemo>,
) -> PatternIndex {
    let local = CanonMemo::new();
    let memo = memo.unwrap_or(&local);
    let mut index = PatternIndex::new(config.clone());
    let table = index.table();
    let interned = run_items(outcomes, threads, None, |outcome| {
        table.intern(&canonicalize_cuts_memo(
            &blocks[outcome.index].dfg,
            &outcome.enumeration.cuts,
            config,
            memo,
        ))
    });
    for (outcome, ids) in outcomes.iter().zip(interned) {
        index.add_interned_block(&ids, blocks[outcome.index].weight());
    }
    index
}

/// Writes the machine-readable result of `ise group` (schema `ise-cli/group/v1`)
/// to `out`: run metadata, one light row per block, and the pattern table ranked
/// by profile-weighted potential saving (first-seen order on ties), each row
/// rendered and written on its own. Patterns with fewer than `min_count`
/// occurrences are omitted from the table but still counted in the aggregate.
///
/// `memo_stats` (from [`CanonMemo::stats`], requested with `--memo-stats`) adds a
/// `memo` object to the run metadata. It is opt-in because the counters are *not*
/// deterministic across thread counts (racing workers may both label the same new
/// graph), unlike every other byte of the document.
///
/// # Errors
///
/// Returns the error of the underlying writer.
pub fn write_group_json(
    out: &mut dyn Write,
    index: &PatternIndex,
    outcomes: &[BlockOutcome],
    meta: &RunMeta,
    min_count: usize,
    memo_stats: Option<&MemoStats>,
) -> io::Result<()> {
    let shown: Vec<usize> = index
        .ranked()
        .into_iter()
        .filter(|&e| index.entries()[e].static_count() >= min_count)
        .collect();
    let recurring = index
        .entries()
        .iter()
        .filter(|e| e.static_count() >= 2)
        .count();
    let cross_block = index
        .entries()
        .iter()
        .filter(|e| e.distinct_blocks() >= 2)
        .count();
    let potential: u64 = index
        .entries()
        .iter()
        .map(ise_canon::PatternEntry::potential_saved_cycles)
        .sum();

    let mut doc = ObjectWriter::begin(out)?;
    doc.field("schema", &Json::str("ise-cli/group/v1"))?;
    doc.field("corpus", &Json::str(meta.corpus.clone()))?;
    doc.field("nin", &Json::uint(meta.nin))?;
    doc.field("nout", &Json::uint(meta.nout))?;
    doc.field("threads", &Json::uint(meta.threads))?;
    doc.field("budget", &meta.budget.map_or(Json::Null, Json::uint))?;
    doc.field("min_count", &Json::uint(min_count))?;
    if let Some(stats) = memo_stats {
        doc.field("memo", &memo_stats_json(stats))?;
    }
    doc.array(
        "blocks",
        outcomes.iter().map(|o| {
            Json::object([
                ("name", Json::str(o.name.clone())),
                ("nodes", Json::uint(o.nodes)),
                ("cuts", Json::uint(o.enumeration.stats.valid_cuts)),
                ("elapsed_seconds", Json::num(o.elapsed.as_secs_f64())),
            ])
        }),
    )?;
    doc.array(
        "patterns",
        shown.iter().map(|&e| {
            let entry = &index.entries()[e];
            Json::object([
                ("hash", Json::str(entry.code.hex())),
                ("size", Json::uint(entry.size)),
                ("inputs", Json::uint(entry.inputs)),
                ("outputs", Json::uint(entry.outputs)),
                ("ops", Json::str(entry.ops.clone())),
                ("count", Json::uint(entry.static_count())),
                ("weighted_count", Json::num(entry.weighted_count)),
                ("blocks", Json::uint(entry.distinct_blocks())),
                (
                    "example_block",
                    Json::str(outcomes[entry.example().block()].name.clone()),
                ),
                ("saved_cycles", Json::uint(entry.saved_cycles as usize)),
                (
                    "potential_saved_cycles",
                    Json::UInt(entry.potential_saved_cycles()),
                ),
            ])
        }),
    )?;
    doc.field(
        "aggregate",
        &Json::object([
            ("blocks", Json::uint(outcomes.len())),
            ("total_cuts", Json::uint(index.total_cuts())),
            ("patterns", Json::uint(index.len())),
            ("recurring_patterns", Json::uint(recurring)),
            ("cross_block_patterns", Json::uint(cross_block)),
            ("shown_patterns", Json::uint(shown.len())),
            ("potential_saved_cycles", Json::UInt(potential)),
            ("elapsed_seconds", Json::num(meta.elapsed.as_secs_f64())),
        ]),
    )?;
    doc.end()
}

/// The tree of [`write_group_json`]'s document, for callers that need a [`Json`]
/// value. The writer alone defines the bytes: this renders into memory and parses
/// the result back, so `group_json(..).render()` equals what the writer writes.
pub fn group_json(
    index: &PatternIndex,
    outcomes: &[BlockOutcome],
    meta: &RunMeta,
    min_count: usize,
    memo_stats: Option<&MemoStats>,
) -> Json {
    tree_of(|out| write_group_json(out, index, outcomes, meta, min_count, memo_stats))
}

/// The `memo` object shared by `--memo-stats` output and the daemon's `stats` op:
/// the four [`MemoStats`] counters, verbatim.
pub fn memo_stats_json(stats: &MemoStats) -> Json {
    Json::object([
        ("raw_hits", Json::UInt(stats.raw_hits)),
        ("fingerprint_hits", Json::UInt(stats.fingerprint_hits)),
        ("labeler_runs", Json::UInt(stats.labeler_runs)),
        ("entries", Json::UInt(stats.entries)),
    ])
}

/// Renders the human-readable markdown companion of [`group_json`], showing at most
/// `top` patterns. `memo_stats` adds one summary line under the heading.
pub fn group_markdown(
    index: &PatternIndex,
    outcomes: &[BlockOutcome],
    meta: &RunMeta,
    min_count: usize,
    top: usize,
    memo_stats: Option<&MemoStats>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "# ISE pattern grouping report\n").expect("writing to a String cannot fail");
    let recurring = index
        .entries()
        .iter()
        .filter(|e| e.static_count() >= 2)
        .count();
    writeln!(
        out,
        "Corpus `{}` — {} blocks, {} cuts, **{} distinct patterns** \
         ({} recurring), Nin={}, Nout={}.\n",
        meta.corpus,
        outcomes.len(),
        index.total_cuts(),
        index.len(),
        recurring,
        meta.nin,
        meta.nout,
    )
    .expect("writing to a String cannot fail");
    if let Some(stats) = memo_stats {
        writeln!(
            out,
            "Canonicalization memo: {} raw hits, {} fingerprint hits, \
             {} labeler runs, {} entries.\n",
            stats.raw_hits, stats.fingerprint_hits, stats.labeler_runs, stats.entries,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str(
        "| pattern | size | in | out | ops | count | blocks | example | saved/occ | est. saving |\n\
         |---|---:|---:|---:|---|---:|---:|---|---:|---:|\n",
    );
    for &e in index
        .ranked()
        .iter()
        .filter(|&&e| index.entries()[e].static_count() >= min_count)
        .take(top)
    {
        let entry = &index.entries()[e];
        writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            entry.code.hex(),
            entry.size,
            entry.inputs,
            entry.outputs,
            entry.ops,
            entry.static_count(),
            entry.distinct_blocks(),
            outcomes[entry.example().block()].name,
            entry.saved_cycles,
            entry.potential_saved_cycles(),
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Runs corpus-level selection over `index` (built by [`group_outcomes`] over
/// exactly `outcomes`' cut lists, in corpus order) and renders the
/// `ise select --global` report (schema `ise-cli/select/v1`, `"mode":"global"`).
/// Taking the index rather than building it lets callers that already hold one —
/// such as the `ise serve` daemon's coding cache — skip re-coding every block.
///
/// Returns the JSON document, the markdown companion, and the selection itself (for
/// tests and callers that keep processing). The JSON is `GlobalReport::write_json`'s
/// document parsed back into a tree, so the writer alone defines its bytes.
///
/// `_config` is not read: the pattern savings are already in `index`, and block
/// software cycles use the fixed latency model of [`ise_graph::Operation`]. The
/// parameter stays because the benchmark's traced child passes it.
pub fn global_select_report_with_index(
    index: &PatternIndex,
    blocks: &[CorpusBlock],
    outcomes: &[BlockOutcome],
    meta: &RunMeta,
    _config: &GroupConfig,
    max_patterns: usize,
) -> (Json, String, GlobalSelection) {
    let report = GlobalReport::new(index, blocks, outcomes, max_patterns);
    let json = tree_of(|out| report.write_json(out, meta));
    let markdown = report.markdown(meta);
    (json, markdown, report.selection)
}

/// The corpus-level selection of `ise select --global` over a pattern index, with
/// the per-block software cycles its reports show.
pub(crate) struct GlobalReport<'a> {
    index: &'a PatternIndex,
    outcomes: &'a [BlockOutcome],
    max_patterns: usize,
    /// Each block's software cycles ([`block_software_cycles`]).
    software: Vec<u64>,
    selection: GlobalSelection,
}

impl<'a> GlobalReport<'a> {
    /// Selects at most `max_patterns` patterns (0 = unlimited) corpus-wide.
    pub(crate) fn new(
        index: &'a PatternIndex,
        blocks: &[CorpusBlock],
        outcomes: &'a [BlockOutcome],
        max_patterns: usize,
    ) -> Self {
        let views: Vec<&[Cut]> = outcomes
            .iter()
            .map(|o| o.enumeration.cuts.as_slice())
            .collect();
        let selection = select_ises_global(index, &views, max_patterns);
        let software = blocks
            .iter()
            .map(|b| block_software_cycles(&b.dfg))
            .collect();
        GlobalReport {
            index,
            outcomes,
            max_patterns,
            software,
            selection,
        }
    }

    /// Writes the JSON report to `out`, one row at a time.
    pub(crate) fn write_json(&self, out: &mut dyn Write, meta: &RunMeta) -> io::Result<()> {
        let selection = &self.selection;
        let top = |doc: &mut ObjectWriter<'_>| {
            doc.field("mode", &Json::str("global"))?;
            doc.field("max_patterns", &Json::uint(self.max_patterns))?;
            doc.array(
                "patterns",
                selection.chosen.iter().map(|choice| {
                    let entry = &self.index.entries()[choice.entry];
                    Json::object([
                        ("hash", Json::str(entry.code.hex())),
                        ("size", Json::uint(entry.size)),
                        ("ops", Json::str(entry.ops.clone())),
                        ("occurrences", Json::uint(entry.static_count())),
                        ("placed", Json::uint(choice.placed.len())),
                        (
                            "saved_per_occurrence",
                            Json::uint(entry.saved_cycles as usize),
                        ),
                        ("saved_cycles", Json::UInt(choice.saved_cycles)),
                    ])
                }),
            )?;
            doc.array(
                "per_block",
                self.outcomes.iter().enumerate().map(|(b, o)| {
                    let saved = selection.per_block_saved_cycles[b];
                    let software = self.software[b];
                    Json::object([
                        ("name", Json::str(o.name.clone())),
                        ("saved_cycles", Json::UInt(saved)),
                        ("software_cycles", Json::UInt(software)),
                        ("speedup", Json::num(block_speedup(software, saved))),
                    ])
                }),
            )
        };
        write_batch_json_with(
            out,
            meta,
            self.outcomes,
            top,
            vec![
                ("total_selected", Json::uint(selection.chosen.len())),
                (
                    "total_saved_cycles",
                    Json::UInt(selection.total_saved_cycles),
                ),
                (
                    "weighted_saved_cycles",
                    Json::num(selection.weighted_saved_cycles),
                ),
            ],
        )
    }

    /// The markdown companion of [`GlobalReport::write_json`].
    pub(crate) fn markdown(&self, meta: &RunMeta) -> String {
        use std::fmt::Write as _;
        let (index, outcomes, selection) = (self.index, self.outcomes, &self.selection);
        let mut out = String::new();
        writeln!(out, "# ISE global selection report\n").expect("writing to a String cannot fail");
        writeln!(
            out,
            "Corpus `{}` — {} blocks, {} distinct patterns; {} custom instruction{} \
             selected corpus-wide, {} cycles saved per full-corpus execution.\n",
            meta.corpus,
            outcomes.len(),
            index.len(),
            selection.chosen.len(),
            if selection.chosen.len() == 1 { "" } else { "s" },
            selection.total_saved_cycles,
        )
        .expect("writing to a String cannot fail");
        out.push_str(
            "| pattern | ops | occurrences | placed | saved/occ | saved cycles |\n\
             |---|---|---:|---:|---:|---:|\n",
        );
        for choice in &selection.chosen {
            let entry = &index.entries()[choice.entry];
            writeln!(
                out,
                "| `{}` | {} | {} | {} | {} | {} |",
                entry.code.hex(),
                entry.ops,
                entry.static_count(),
                choice.placed.len(),
                entry.saved_cycles,
                choice.saved_cycles,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n| block | software cycles | saved | speedup |\n|---|---:|---:|---:|\n");
        for (b, o) in outcomes.iter().enumerate() {
            let saved = selection.per_block_saved_cycles[b];
            writeln!(
                out,
                "| {} | {} | {} | {:.2}x |",
                o.name,
                self.software[b],
                saved,
                block_speedup(self.software[b], saved)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch_obs, BatchConfig};
    use ise_corpus::parse_corpus;
    use ise_enum::Constraints;
    use std::time::Duration;

    fn demo_blocks() -> Vec<CorpusBlock> {
        parse_corpus(
            "dfg alpha\nmeta weight 2\nnode 0 in @a\nnode 1 in @x\nnode 2 in @acc\n\
             node 3 mul\nnode 4 add\nedge 0 3\nedge 1 3\nedge 3 4\nedge 2 4\noutput 4\nend\n\
             dfg beta\nnode 0 in @p\nnode 1 in @q\nnode 2 in @r\n\
             node 3 mul\nnode 4 add\nedge 0 3\nedge 1 3\nedge 3 4\nedge 2 4\noutput 4\nend\n",
        )
        .expect("demo corpus parses")
    }

    fn meta(threads: usize) -> RunMeta {
        RunMeta {
            corpus: "demo".into(),
            nin: 3,
            nout: 1,
            threads,
            budget: None,
            par_threshold: crate::batch::DEFAULT_PAR_THRESHOLD,
            split_threshold: Some(crate::batch::DEFAULT_SPLIT_THRESHOLD),
            dedup_mode: ise_enum::DedupMode::DedupFirst,
            select: true,
            elapsed: Duration::from_millis(2),
        }
    }

    fn outcomes(blocks: &[CorpusBlock], threads: usize) -> Vec<BlockOutcome> {
        let mut cfg = BatchConfig::new(Constraints::new(3, 1).unwrap());
        cfg.threads = threads;
        run_batch_obs(blocks, &cfg, None)
    }

    #[test]
    fn grouping_recognizes_the_recurring_mac_and_weights_it() {
        let blocks = demo_blocks();
        let outcomes = outcomes(&blocks, 2);
        let config = GroupConfig::new(3, 1);
        let index = group_outcomes(&blocks, &outcomes, &config, 2, None);
        let mac = index
            .entries()
            .iter()
            .find(|e| e.ops == "add+mul")
            .expect("MAC pattern recurs");
        assert_eq!(mac.static_count(), 2);
        assert_eq!(mac.distinct_blocks(), 2);
        assert!(
            (mac.weighted_count - 3.0).abs() < 1e-9,
            "weight 2 + weight 1"
        );
    }

    #[test]
    fn grouping_is_thread_count_invariant() {
        let blocks = demo_blocks();
        let config = GroupConfig::new(3, 1);
        let base = group_outcomes(&blocks, &outcomes(&blocks, 1), &config, 1, None);
        for threads in [2, 4] {
            let memo = CanonMemo::new();
            let other = group_outcomes(
                &blocks,
                &outcomes(&blocks, threads),
                &config,
                threads,
                Some(&memo),
            );
            let render = |index: &PatternIndex, t: usize| {
                group_json(index, &outcomes(&blocks, t), &meta(t), 1, None).render()
            };
            // Strip wall times; everything else must match byte for byte.
            let strip = |s: String| {
                s.split(',')
                    .filter(|f| !f.contains("_seconds"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            assert_eq!(strip(render(&base, 1)), strip(render(&other, 1)));
        }
    }

    #[test]
    fn group_json_and_markdown_report_patterns() {
        let blocks = demo_blocks();
        let outcomes = outcomes(&blocks, 1);
        let config = GroupConfig::new(3, 1);
        let index = group_outcomes(&blocks, &outcomes, &config, 1, None);
        let json = group_json(&index, &outcomes, &meta(1), 1, None).render();
        assert!(json.contains(r#""schema":"ise-cli/group/v1""#), "{json}");
        assert!(json.contains(r#""cross_block_patterns":"#), "{json}");
        assert!(json.contains(r#""example_block":"alpha""#), "{json}");
        assert!(!json.contains(r#""memo""#), "memo object is opt-in");
        let md = group_markdown(&index, &outcomes, &meta(1), 1, 10, None);
        assert!(md.starts_with("# ISE pattern grouping report"));
        assert!(md.contains("| pattern | size |"));
        assert!(md.contains("add+mul"));
        assert!(!md.contains("Canonicalization memo"));
        // min_count filters the table (every pattern of the twin-block demo corpus
        // occurs exactly twice, so a threshold of 3 empties it).
        let filtered = group_json(&index, &outcomes, &meta(1), 3, None).render();
        assert!(filtered.contains(r#""min_count":3"#));
        assert!(filtered.contains(r#""shown_patterns":0"#), "{filtered}");
        assert!(filtered.len() < json.len());
    }

    #[test]
    fn memoized_grouping_renders_identical_json_and_reports_stats() {
        let blocks = demo_blocks();
        let outcomes = outcomes(&blocks, 1);
        let config = GroupConfig::new(3, 1);
        // The plain coder is the oracle the memoized one must reproduce.
        let mut plain = PatternIndex::new(config.clone());
        for (outcome, block) in outcomes.iter().zip(&blocks) {
            let coded =
                ise_canon::canonicalize_cuts(&block.dfg, &outcome.enumeration.cuts, &config);
            plain.add_coded_block(&coded, block.weight());
        }
        let memo = CanonMemo::new();
        let memoized = group_outcomes(&blocks, &outcomes, &config, 1, Some(&memo));
        assert_eq!(
            group_json(&plain, &outcomes, &meta(1), 1, None).render(),
            group_json(&memoized, &outcomes, &meta(1), 1, None).render(),
            "memoization must be observably pure"
        );
        let stats = memo.stats();
        assert!(stats.raw_hits > 0, "the MAC recurs across the two blocks");
        assert!(stats.labeler_runs < plain.total_cuts() as u64);
        let with_stats = group_json(&memoized, &outcomes, &meta(1), 1, Some(&stats)).render();
        assert!(
            with_stats.contains(r#""memo":{"raw_hits":"#),
            "{with_stats}"
        );
        assert!(with_stats.contains(r#""labeler_runs":"#), "{with_stats}");
        let md = group_markdown(&memoized, &outcomes, &meta(1), 1, 10, Some(&stats));
        assert!(md.contains("Canonicalization memo:"), "{md}");
    }

    #[test]
    fn global_selection_credits_recurrence_end_to_end() {
        let blocks = demo_blocks();
        let outcomes = outcomes(&blocks, 1);
        let config = GroupConfig::new(3, 1);
        let memo = CanonMemo::new();
        let index = group_outcomes(&blocks, &outcomes, &config, 1, Some(&memo));
        let (json, md, selection) =
            global_select_report_with_index(&index, &blocks, &outcomes, &meta(1), &config, 0);
        assert!(!selection.chosen.is_empty());
        let text = json.render();
        assert!(text.contains(r#""schema":"ise-cli/select/v1""#), "{text}");
        assert!(text.contains(r#""mode":"global""#), "{text}");
        assert!(text.contains(r#""total_selected":"#), "{text}");
        assert!(text.contains(r#""per_block":"#), "{text}");
        assert!(md.starts_with("# ISE global selection report"));
        assert!(md.contains("speedup"));
        assert_eq!(
            selection.per_block_saved_cycles.iter().sum::<u64>(),
            selection.total_saved_cycles
        );
    }
}
