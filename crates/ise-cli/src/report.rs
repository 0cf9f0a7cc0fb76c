//! JSON and markdown rendering of batch outcomes.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::time::Duration;

use ise_bench::json::{Json, ObjectWriter};
use ise_corpus::CorpusBlock;
use ise_enum::DedupMode;

use crate::batch::BlockOutcome;

/// Run-level facts recorded alongside the per-block rows.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// The corpus path as given on the command line.
    pub corpus: String,
    /// The input-port constraint `Nin`.
    pub nin: usize,
    /// The output-port constraint `Nout`.
    pub nout: usize,
    /// Worker-thread count of the run.
    pub threads: usize,
    /// Per-block search budget, if any.
    pub budget: Option<usize>,
    /// Minimum block size (vertices) for intra-block fan-out.
    pub par_threshold: usize,
    /// Echoed as `"split_threshold"`; the retired recursive-split threshold, always
    /// [`crate::batch::DEFAULT_SPLIT_THRESHOLD`] now.
    pub split_threshold: Option<usize>,
    /// De-duplication order of the run (the engine has one).
    pub dedup_mode: DedupMode,
    /// Whether this was an `ise select` run. Carried explicitly so the schema and
    /// selection aggregates stay correct even for runs over zero blocks.
    pub select: bool,
    /// Wall time of the whole batch (not the sum of per-block times).
    pub elapsed: Duration,
}

/// Writes the machine-readable result of `ise enumerate` / `ise select`
/// (schema `ise-cli/enumerate/v1` / `ise-cli/select/v1`) to `out`, one block row at
/// a time.
///
/// Everything except the wall times is deterministic in the corpus and the
/// constraints — per-block rows are in corpus order and the aggregate counts are
/// plain sums — so diffing two runs' JSON (ignoring `*_seconds`) detects any
/// behavioral drift, and aggregate counts are identical for every `--threads` value.
///
/// # Errors
///
/// Returns the error of the underlying writer.
pub fn write_batch_json(
    out: &mut dyn Write,
    outcomes: &[BlockOutcome],
    meta: &RunMeta,
) -> io::Result<()> {
    let mut aggregate = Vec::new();
    if meta.select {
        let selected: usize = outcomes
            .iter()
            .filter_map(|o| o.selection.as_ref())
            .map(|s| s.chosen.len())
            .sum();
        let saved: u64 = outcomes
            .iter()
            .filter_map(|o| o.selection.as_ref())
            .map(|s| u64::from(s.total_saved_cycles))
            .sum();
        aggregate.push(("total_selected", Json::uint(selected)));
        aggregate.push(("total_saved_cycles", Json::UInt(saved)));
    }
    let mode = |doc: &mut ObjectWriter<'_>| {
        if meta.select {
            doc.field("mode", &Json::str("per-block"))?;
        }
        Ok(())
    };
    write_batch_json_with(out, meta, outcomes, mode, aggregate)
}

/// The tree of [`write_batch_json`]'s document, for callers that need a [`Json`]
/// value. The writer alone defines the bytes: this renders into memory and parses
/// the result back, so `batch_json(..).render()` equals what the writer writes.
pub fn batch_json(outcomes: &[BlockOutcome], meta: &RunMeta) -> Json {
    tree_of(|out| write_batch_json(out, outcomes, meta))
}

/// What `write` writes, as a string: a streamed document rendered into memory.
pub(crate) fn written(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> String {
    let mut bytes = Vec::new();
    write(&mut bytes).expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the JSON writers write UTF-8")
}

/// Parses the document `write` writes into a [`Json`] tree: the adapter from a
/// streamed writer to the tree-returning functions kept for their callers.
pub(crate) fn tree_of(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> Json {
    Json::parse(&written(write)).expect("the JSON writers write one valid JSON value")
}

/// The shared scaffold of the `enumerate`/`select` schemas: metadata, per-block
/// rows, and the base aggregates, with extension points for mode-specific top-level
/// fields (`extra_top` writes them after the metadata) and aggregate entries
/// (`extra_aggregate`, appended after `elapsed_seconds`). `ise select --global`
/// builds on this in [`crate::group`].
pub(crate) fn write_batch_json_with(
    out: &mut dyn Write,
    meta: &RunMeta,
    outcomes: &[BlockOutcome],
    extra_top: impl FnOnce(&mut ObjectWriter<'_>) -> io::Result<()>,
    extra_aggregate: Vec<(&'static str, Json)>,
) -> io::Result<()> {
    let schema = if meta.select {
        "ise-cli/select/v1"
    } else {
        "ise-cli/enumerate/v1"
    };
    let total_cuts: usize = outcomes
        .iter()
        .map(|o| o.enumeration.stats.valid_cuts)
        .sum();
    let total_search: usize = outcomes
        .iter()
        .map(|o| o.enumeration.stats.search_nodes)
        .sum();
    let total_candidates: usize = outcomes
        .iter()
        .map(|o| o.enumeration.stats.candidates_checked)
        .sum();
    let mut aggregate = vec![
        ("blocks", Json::uint(outcomes.len())),
        ("total_cuts", Json::uint(total_cuts)),
        ("total_search_nodes", Json::uint(total_search)),
        ("total_candidates_checked", Json::uint(total_candidates)),
        ("elapsed_seconds", Json::num(meta.elapsed.as_secs_f64())),
    ];
    aggregate.extend(extra_aggregate);

    let mut doc = ObjectWriter::begin(out)?;
    doc.field("schema", &Json::str(schema))?;
    doc.field("corpus", &Json::str(meta.corpus.clone()))?;
    doc.field("nin", &Json::uint(meta.nin))?;
    doc.field("nout", &Json::uint(meta.nout))?;
    doc.field("threads", &Json::uint(meta.threads))?;
    doc.field("budget", &meta.budget.map_or(Json::Null, Json::uint))?;
    doc.field("par_threshold", &Json::uint(meta.par_threshold))?;
    doc.field(
        "split_threshold",
        &meta.split_threshold.map_or(Json::Null, Json::uint),
    )?;
    doc.field("dedup_mode", &Json::str(meta.dedup_mode.as_str()))?;
    extra_top(&mut doc)?;
    doc.array("blocks", outcomes.iter().map(block_row))?;
    doc.field("aggregate", &Json::object(aggregate))?;
    doc.end()
}

fn block_row(outcome: &BlockOutcome) -> Json {
    let stats = &outcome.enumeration.stats;
    let mut row = vec![
        ("name", Json::str(outcome.name.clone())),
        ("nodes", Json::uint(outcome.nodes)),
        ("edges", Json::uint(outcome.edges)),
        ("forbidden", Json::uint(outcome.forbidden)),
        ("tasks", Json::uint(outcome.tasks)),
        ("cuts", Json::uint(stats.valid_cuts)),
        ("search_nodes", Json::uint(stats.search_nodes)),
        ("candidates_checked", Json::uint(stats.candidates_checked)),
        ("elapsed_seconds", Json::num(outcome.elapsed.as_secs_f64())),
    ];
    if let Some(selection) = &outcome.selection {
        row.push((
            "selection",
            Json::object([
                ("chosen", Json::uint(selection.chosen.len())),
                (
                    "saved_cycles",
                    Json::uint(selection.total_saved_cycles as usize),
                ),
                (
                    "block_software_cycles",
                    Json::UInt(selection.block_software_cycles),
                ),
                ("block_speedup", Json::num(selection.block_speedup())),
            ]),
        ));
    }
    Json::object(row)
}

/// Renders the human-readable markdown companion of [`batch_json`].
pub fn batch_markdown(outcomes: &[BlockOutcome], meta: &RunMeta) -> String {
    let selecting = meta.select;
    let mut out = String::new();
    let title = if selecting {
        "ISE batch selection report"
    } else {
        "ISE batch enumeration report"
    };
    writeln!(out, "# {title}\n").expect("writing to a String cannot fail");
    writeln!(
        out,
        "Corpus `{}` — {} blocks, Nin={}, Nout={}, {} thread{}, {:.3}s wall time.{}\n",
        meta.corpus,
        outcomes.len(),
        meta.nin,
        meta.nout,
        meta.threads,
        if meta.threads == 1 { "" } else { "s" },
        meta.elapsed.as_secs_f64(),
        meta.budget
            .map(|b| format!(" Per-block search budget: {b} nodes."))
            .unwrap_or_default(),
    )
    .expect("writing to a String cannot fail");

    if selecting {
        out.push_str(
            "| block | nodes | forbidden | cuts | selected | saved cycles | speedup | time (s) |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
    } else {
        out.push_str(
            "| block | nodes | edges | forbidden | cuts | search nodes | time (s) |\n\
             |---|---:|---:|---:|---:|---:|---:|\n",
        );
    }
    for o in outcomes {
        if let Some(sel) = &o.selection {
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {:.2}x | {:.3} |",
                o.name,
                o.nodes,
                o.forbidden,
                o.enumeration.stats.valid_cuts,
                sel.chosen.len(),
                sel.total_saved_cycles,
                sel.block_speedup(),
                o.elapsed.as_secs_f64(),
            )
            .expect("writing to a String cannot fail");
        } else {
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {:.3} |",
                o.name,
                o.nodes,
                o.edges,
                o.forbidden,
                o.enumeration.stats.valid_cuts,
                o.enumeration.stats.search_nodes,
                o.elapsed.as_secs_f64(),
            )
            .expect("writing to a String cannot fail");
        }
    }

    let total_cuts: usize = outcomes
        .iter()
        .map(|o| o.enumeration.stats.valid_cuts)
        .sum();
    let total_search: usize = outcomes
        .iter()
        .map(|o| o.enumeration.stats.search_nodes)
        .sum();
    writeln!(
        out,
        "\n**Aggregate**: {total_cuts} cuts over {} blocks ({total_search} search nodes).",
        outcomes.len(),
    )
    .expect("writing to a String cannot fail");
    if selecting {
        let selected: usize = outcomes
            .iter()
            .filter_map(|o| o.selection.as_ref())
            .map(|s| s.chosen.len())
            .sum();
        let saved: u64 = outcomes
            .iter()
            .filter_map(|o| o.selection.as_ref())
            .map(|s| u64::from(s.total_saved_cycles))
            .sum();
        writeln!(
            out,
            "**Selected**: {selected} custom instructions, {saved} cycles saved per full-corpus execution.",
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Renders the `ise report` corpus inventory: one row per block with its family,
/// structural counts, and I/O shape — corpus validation happens as a side effect of
/// loading.
pub fn corpus_markdown(corpus: &str, blocks: &[CorpusBlock]) -> String {
    let mut out = String::new();
    writeln!(out, "# Corpus report\n").expect("writing to a String cannot fail");
    writeln!(
        out,
        "Corpus `{corpus}` — {} blocks, {} vertices total.\n",
        blocks.len(),
        blocks.iter().map(|b| b.dfg.len()).sum::<usize>(),
    )
    .expect("writing to a String cannot fail");
    out.push_str(
        "| block | family | nodes | edges | live-ins | live-outs | forbidden |\n\
         |---|---|---:|---:|---:|---:|---:|\n",
    );
    for block in blocks {
        let family = block
            .meta
            .iter()
            .find(|(k, _)| k == "family")
            .map_or("-", |(_, v)| v.as_str());
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            block.dfg.name(),
            family,
            block.dfg.len(),
            block.dfg.edge_count(),
            block.dfg.external_inputs().len(),
            block.dfg.external_outputs().len(),
            block.dfg.forbidden().len(),
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch_obs, BatchConfig, SelectionConfig};
    use ise_enum::Constraints;
    use ise_workloads::random_dag::{random_dag, RandomDagConfig};

    fn outcomes(select: bool) -> (Vec<BlockOutcome>, RunMeta) {
        let blocks: Vec<CorpusBlock> = (0..2)
            .map(|i| CorpusBlock {
                dfg: random_dag(&RandomDagConfig::new(25), i),
                meta: vec![("family".into(), "random-dag".into())],
            })
            .collect();
        let mut cfg = BatchConfig::new(Constraints::new(4, 2).unwrap());
        if select {
            cfg.select = Some(SelectionConfig {
                max_instructions: 2,
                ports_in: 4,
                ports_out: 2,
            });
        }
        let outcomes = run_batch_obs(&blocks, &cfg, None);
        let meta = RunMeta {
            corpus: "test".into(),
            nin: 4,
            nout: 2,
            threads: 1,
            budget: None,
            par_threshold: crate::batch::DEFAULT_PAR_THRESHOLD,
            split_threshold: Some(crate::batch::DEFAULT_SPLIT_THRESHOLD),
            dedup_mode: DedupMode::DedupFirst,
            select,
            elapsed: Duration::from_millis(5),
        };
        (outcomes, meta)
    }

    #[test]
    fn enumerate_json_has_schema_rows_and_aggregate() {
        let (outcomes, meta) = outcomes(false);
        let text = batch_json(&outcomes, &meta).render();
        assert!(
            text.contains(r#""schema":"ise-cli/enumerate/v1""#),
            "{text}"
        );
        assert!(text.contains(r#""blocks":[{"name":"random-dag-25-0""#));
        assert!(text.contains(r#""aggregate":{"blocks":2,"total_cuts":"#));
        assert!(!text.contains("selection"));
    }

    #[test]
    fn select_json_adds_selection_fields() {
        let (outcomes, meta) = outcomes(true);
        let text = batch_json(&outcomes, &meta).render();
        assert!(text.contains(r#""schema":"ise-cli/select/v1""#));
        assert!(text.contains(r#""selection":{"chosen":"#));
        assert!(text.contains(r#""total_selected":"#));
    }

    #[test]
    fn select_schema_is_mode_derived_even_with_no_outcomes() {
        let meta = RunMeta {
            corpus: "empty".into(),
            nin: 4,
            nout: 2,
            threads: 1,
            budget: None,
            par_threshold: crate::batch::DEFAULT_PAR_THRESHOLD,
            split_threshold: Some(crate::batch::DEFAULT_SPLIT_THRESHOLD),
            dedup_mode: DedupMode::DedupFirst,
            select: true,
            elapsed: Duration::from_millis(1),
        };
        let text = batch_json(&[], &meta).render();
        assert!(text.contains(r#""schema":"ise-cli/select/v1""#), "{text}");
        assert!(text.contains(r#""total_selected":0"#), "{text}");
        assert!(batch_markdown(&[], &meta).starts_with("# ISE batch selection report"));
    }

    #[test]
    fn markdown_reports_render_tables() {
        let (outcomes, meta) = outcomes(false);
        let md = batch_markdown(&outcomes, &meta);
        assert!(md.starts_with("# ISE batch enumeration report"));
        assert!(md.contains("| block | nodes | edges |"));
        assert!(md.contains("**Aggregate**"));

        let (outcomes, meta) = outcomes_select();
        let md = batch_markdown(&outcomes, &meta);
        assert!(md.starts_with("# ISE batch selection report"));
        assert!(md.contains("| block | nodes | forbidden | cuts | selected |"));
        assert!(md.contains("**Selected**"));
    }

    fn outcomes_select() -> (Vec<BlockOutcome>, RunMeta) {
        outcomes(true)
    }

    #[test]
    fn corpus_markdown_lists_every_block() {
        let (outcomes, _) = outcomes(false);
        let blocks: Vec<CorpusBlock> = (0..2)
            .map(|i| CorpusBlock {
                dfg: random_dag(&RandomDagConfig::new(25), i),
                meta: vec![("family".into(), "random-dag".into())],
            })
            .collect();
        let md = corpus_markdown("corpus", &blocks);
        assert!(md.contains("# Corpus report"));
        assert!(md.contains("| random-dag-25-0 | random-dag | 33 |"));
        assert_eq!(md.matches("| random-dag-25-").count(), outcomes.len());
    }
}
