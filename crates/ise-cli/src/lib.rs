//! The `ise` command-line driver: corpus-scale enumeration, selection and reporting.
//!
//! This crate turns the single-graph engine of [`ise_enum`] into a batch tool over
//! serialized corpora (see [`ise_corpus`] for the `.dfg` format). Five subcommands:
//!
//! ```text
//! ise enumerate --corpus corpus/ [--threads N] [--nin 4] [--nout 2]
//!               [--budget M] [--limit K] [--out FILE|-] [--md FILE|-]
//! ise select    (same flags) [--max-instr 4] [--ports-in N] [--ports-out N] [--global]
//! ise group     (same flags) [--min-count 1] [--top 40]
//! ise report    --corpus corpus/ [--limit K] [--dot BLOCK]
//! ise serve     [--listen ADDR] [--cache-dir DIR] [--cache-cap 256]
//! ```
//!
//! `enumerate` runs the incremental polynomial enumeration on every block;
//! `select` additionally runs the greedy ISE selection per block (or, with
//! `--global`, the corpus-level pattern selection of [`ise_canon`]); `group`
//! recognizes recurring candidates across the corpus by canonical code (the
//! [`group`] module); `report` prints a corpus inventory (loading doubles as
//! validation) or, with `--dot`, one block as a Graphviz digraph with its
//! selected ISEs highlighted; `serve` answers `enumerate`/`select`/`group`
//! requests from a content-addressed cache (the [`serve`] module). Both
//! front-ends resolve a command's flags into one job in the same place, so a
//! request and a command line with the same flags run the same job. Work is
//! scheduled as one shared item list ([`batch::run_batch`]): blocks with at least
//! `--par-threshold` vertices fan out into first-output tasks (`ise_enum::par`),
//! smaller blocks stay whole, and each of the `--threads` workers claims the next
//! unclaimed item — so a single large block scales with cores instead of
//! serializing the sweep. The fan-out plan is a
//! function of the block and the flags alone (never of the thread count) and the
//! task merge is deterministic, so **every count in the JSON and markdown
//! output is identical for any thread count** — only wall times vary. Runs are budgeted per
//! block by default ([`DEFAULT_BUDGET`] search nodes, `--budget 0` to lift; fanned
//! blocks split the budget across tasks) so one adversarial block cannot stall a
//! corpus sweep. Machine-readable output is JSON
//! (schemas `ise-cli/enumerate/v1` and `ise-cli/select/v1`, built on
//! [`ise_bench::json`]); `--md` adds a human-readable markdown companion. See
//! `docs/GUIDE.md` for the end-to-end walkthrough.
//!
//! # Example
//!
//! Drive the batch pipeline as a library (what the binary's `enumerate` does):
//!
//! ```
//! use ise_cli::batch::{run_batch_obs, BatchConfig};
//! use ise_corpus::{parse_corpus, CorpusBlock};
//! use ise_enum::Constraints;
//!
//! let blocks: Vec<CorpusBlock> = parse_corpus(
//!     "dfg tiny\nnode 0 in @a\nnode 1 not\nnode 2 add\nedge 0 1\nedge 1 2\nedge 0 2\nend\n",
//! )
//! .unwrap();
//! let mut config = BatchConfig::new(Constraints::new(2, 1).unwrap());
//! config.threads = 2;
//! let outcomes = run_batch_obs(&blocks, &config, None);
//! assert_eq!(outcomes.len(), 1);
//! assert!(!outcomes[0].enumeration.cuts.is_empty());
//! ```

// Deny rather than the workspace-wide forbid: the serve daemon's signal module
// (`serve::sig`) opts in with an explicit allow for its one audited libc binding.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod args;
pub mod batch;
pub mod cache;
pub mod group;
mod job;
pub mod obs;
pub mod report;
pub mod serve;

pub use args::Flags;

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

use ise_canon::CanonMemo;
use ise_corpus::{load_corpus, CorpusError};

use batch::{run_batch, run_batch_obs};
use job::{Job, Op};
use report::corpus_markdown;

/// The usage text printed by `ise help` and attached to usage errors.
pub const USAGE: &str = "\
usage: ise <enumerate|select|group|report> [flags]

  ise enumerate --corpus PATH [--threads N] [--nin 4] [--nout 2]
                [--budget M] [--limit K] [--out FILE|-] [--md FILE|-]
                [--par-threshold V]
                [--trace-out FILE|-] [--progress]
  ise select    (same flags as enumerate)
                [--max-instr 4] [--ports-in N] [--ports-out N] [--global]
                [--no-memo]
  ise group     (same flags as enumerate)
                [--ports-in N] [--ports-out N] [--min-count 1] [--top 40|0=all]
                [--no-memo] [--memo-stats]
  ise report    --corpus PATH [--limit K]
                [--dot BLOCK [--nin 4] [--nout 2] [--budget M]
                 [--max-instr 4] [--out FILE|-]]
  ise serve     [--listen ADDR] [--cache-dir DIR] [--cache-cap 256]
                [--max-connections 64] [--compute-delay-ms 0]
                [--trace-out FILE|-]

PATH is a .dfg file or a directory of .dfg files (default: corpus).
--out/--md write JSON/markdown to FILE, or to stdout when FILE is `-`.
--budget caps the search per block in search nodes (default 1000000,
0 = unbounded); small blocks finish below it and are enumerated fully.
--threads sets the worker count: blocks with at least
--par-threshold vertices (default 64; 0 = always, a huge value = never)
fan out into at most 16 first-output tasks, and each free worker claims
the next unclaimed block or task from one shared list. The fan-out depends only on the block and
the flags, so all counts are byte-identical for any --threads value;
fanned-out blocks split their --budget evenly across their tasks.
--trace-out profiles the run as Chrome trace-event JSON (open it in
chrome://tracing or Perfetto): engine, task and merge spans nest under
their worker threads. --progress prints heartbeat lines on stderr while
the sweep runs. Both only observe — no byte of --out/--md output
changes, and all counts stay thread-count invariant with recording on.
`group` recognizes structurally identical (isomorphic) candidates across
the whole corpus by canonical code and reports each pattern's occurrence
count and estimated corpus-wide saving; --min-count hides rarer patterns
from the table, --top caps the markdown table. Canonicalization runs
through a shared memo (the labeler runs once per distinct raw interface
graph, not once per cut); --no-memo disables it — the reports are
byte-identical either way — and --memo-stats adds the memo's hit/miss
counters to the JSON meta and the markdown summary.
`select --global` selects by corpus-wide benefit: one custom instruction
is credited with all of its non-overlapping occurrences. In global mode
--max-instr bounds the number of distinct instruction patterns for the
whole corpus and defaults to 0 = unlimited (select while profitable).
`report --dot BLOCK` prints the block as a Graphviz digraph with its
greedily selected ISEs highlighted.
`serve` runs a persistent daemon answering line-delimited JSON requests
({\"op\":\"enumerate|select|group|stats|shutdown\",\"block\":...,\"flags\":{...}})
on stdin/stdout or, with --listen ADDR, over TCP. Each accepted
connection gets its own thread over one shared cache, bounded by
--max-connections (default 64); concurrent cold requests for the same
key coalesce onto a single computation. The listener also answers
HTTP/1.1: POST /v1/{enumerate,group,select} with the JSON request as
body (the op comes from the path), GET /v1/stats for the stats op, and
GET /v1/metrics for a Prometheus text exposition of the daemon's
counters (requests, cache, memo, engine, pool). `serve --trace-out`
writes a Chrome trace-event profile at graceful shutdown.
Results are cached by a content hash of the canonical block bytes and
the semantic flags; --cache-cap bounds each in-memory cache (0
disables caching, and with it coalescing) and --cache-dir persists
responses across restarts.
--compute-delay-ms is a test seam delaying every cold computation.
SIGTERM shuts the daemon down gracefully: in-flight requests finish,
then the process exits with status 0.";

/// Error surface of the `ise` binary.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The command line is malformed; the message says how.
    Usage(String),
    /// The corpus could not be loaded or did not validate.
    Corpus(CorpusError),
    /// Writing an output file failed.
    Io {
        /// The output path that could not be written.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "{message}"),
            CliError::Corpus(source) => write!(f, "{source}"),
            CliError::Io { path, source } => write!(f, "cannot write {path}: {source}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Corpus(source) => Some(source),
            CliError::Io { source, .. } => Some(source),
        }
    }
}

impl From<CorpusError> for CliError {
    fn from(source: CorpusError) -> Self {
        CliError::Corpus(source)
    }
}

/// Runs one `ise` invocation; `args` excludes the binary name.
///
/// # Errors
///
/// Returns [`CliError`] on malformed command lines, unreadable/invalid corpora, and
/// output-file write failures. The binary prints the error and exits non-zero.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(format!("missing subcommand\n{USAGE}")));
    };
    match command.as_str() {
        "report" => run_report_command(&args[1..]),
        "serve" => serve::run_serve_command(&args[1..]),
        "help" | "--help" | "-h" => emit("-", &format!("{USAGE}\n")),
        other => match job::job_flags(other) {
            Some((flags, switches)) => run_job_command(other, &flags, switches, &args[1..]),
            None => Err(CliError::Usage(format!(
                "unknown subcommand `{other}`\n{USAGE}"
            ))),
        },
    }
}

/// Default per-block search budget, in search nodes (`--budget 0` lifts it).
///
/// The enumeration is polynomial but of high degree (`O(n^(Nin+Nout+1))`): the
/// committed `BENCH_scaling.json` measures ~7e7 search nodes (about 15 seconds) for one
/// 208-vertex block at the paper's standard `Nin=4, Nout=2`. A batch driver pointed
/// at an arbitrary corpus must not stall on one adversarial block, so runs are
/// budgeted by default — one million search nodes keeps every committed corpus block
/// to seconds while leaving small and medium blocks exhaustively enumerated.
/// The budget is applied per block and enumeration is deterministic, so budgeted
/// counts are still identical across thread counts.
pub const DEFAULT_BUDGET: usize = 1_000_000;

/// Runs `enumerate`, `select` or `group`: resolves the job, loads the corpus, runs
/// the op's compute path and writes its reports.
fn run_job_command(
    command: &str,
    job_flags: &[&str],
    job_switches: &[&str],
    args: &[String],
) -> Result<(), CliError> {
    let io = ["corpus", "out", "md", "trace-out"];
    let (cli_flags, cli_switches): (&[&str], &[&str]) = match command {
        "select" => (&io, &["progress", "no-memo"]),
        "group" => (
            &[&io[..], &["top"]].concat(),
            &["progress", "no-memo", "memo-stats"],
        ),
        _ => (&io, &["progress"]),
    };
    let flags = Flags::parse_with_switches(
        args,
        &[job_flags, cli_flags].concat(),
        &[job_switches, cli_switches].concat(),
    )?;
    validate_out_targets(&flags)?;
    let job = Job::from_flags(command, &flags)?;
    let no_memo = flags.bool("no-memo", false)?;
    if job.op == Op::Select && no_memo {
        return Err(CliError::Usage(
            "`--no-memo` only applies to `select --global` (per-block selection \
             does not canonicalize)"
                .to_string(),
        ));
    }
    let show_memo_stats = flags.bool("memo-stats", false)?;
    if show_memo_stats && no_memo {
        return Err(CliError::Usage(
            "`--memo-stats` needs the memo; drop `--no-memo`".to_string(),
        ));
    }
    let top = match flags.usize("top", 40)? {
        0 => usize::MAX, // 0 = unlimited, consistent with --budget / global --max-instr
        top => top,
    };
    let progress = flags.bool("progress", false)?;

    let trace_out = flags.get("trace-out");
    let registry = obs::registry_for(trace_out, progress);
    let rec = registry.as_deref();
    let blocks = load_blocks(&job, rec)?;
    let config = job.batch_config();
    let mut memo =
        (matches!(job.op, Op::SelectGlobal | Op::Group) && !no_memo).then(CanonMemo::new);
    if let (Some(memo), Some(registry)) = (memo.as_mut(), &registry) {
        memo.set_recorder(registry.as_ref());
    }
    let start = Instant::now();
    let heartbeat = obs::Heartbeat::start(registry.clone(), progress);
    let (outcomes, index) = match job.op {
        // The reports render counts, statistics and the selection (already made
        // when the block finalized), never the cuts themselves: drop each block's
        // cut list as soon as it finishes.
        Op::Enumerate | Op::Select => (
            run_batch(&blocks, &config, rec, |_, outcome| outcome.without_cuts()),
            None,
        ),
        // Placement reads the cut bodies, so every block keeps its cuts and coding
        // on the workers would save no memory. Coding after the batch keeps the
        // enumeration's and the coding's peaks apart, and no fanned-out block
        // waits behind another block's coding.
        Op::SelectGlobal => {
            let outcomes = run_batch_obs(&blocks, &config, rec);
            let index = group::group_outcomes(
                &blocks,
                &outcomes,
                &job.group_config(),
                job.threads,
                memo.as_ref(),
            );
            (outcomes, Some(index))
        }
        // Each block is coded on its batch worker and keeps only its counts and
        // coded cuts: the report renders patterns and per-block counts, never a
        // cut body.
        Op::Group => {
            let (index, outcomes) =
                group::group_batch(&blocks, &config, rec, &job.group_config(), memo.as_ref());
            (outcomes, Some(index))
        }
    };
    if let Some(heartbeat) = heartbeat {
        heartbeat.stop();
    }
    let meta = job.meta(start.elapsed());
    let memo_stats = memo
        .as_ref()
        .filter(|_| show_memo_stats)
        .map(CanonMemo::stats);
    let report = job.report(&blocks, &outcomes, index.as_ref());
    emit_with(&flags.string("out", "-"), |out| {
        job.write_json(out, &report, &meta, memo_stats.as_ref())?;
        out.write_all(b"\n")
    })?;
    if let Some(md) = flags.get("md") {
        emit(md, &job.markdown(&report, &meta, top, memo_stats.as_ref()))?;
    }
    if let (Some(path), Some(registry)) = (trace_out, registry.as_deref()) {
        obs::write_trace(path, registry)?;
    }
    Ok(())
}

fn run_report_command(args: &[String]) -> Result<(), CliError> {
    let dot_flags = [
        "out",
        "nin",
        "nout",
        "budget",
        "max-instr",
        "ports-in",
        "ports-out",
    ];
    let flags = Flags::parse(
        args,
        &[&["corpus", "limit", "dot"][..], &dot_flags].concat(),
    )?;
    validate_out_targets(&flags)?;
    if flags.get("dot").is_none() {
        // Don't silently ignore flags that only make sense with --dot (a user
        // who forgets --dot must not get an inventory on stdout and no file).
        for dot_only in dot_flags {
            if flags.get(dot_only).is_some() {
                return Err(CliError::Usage(format!(
                    "`--{dot_only}` requires `--dot BLOCK`"
                )));
            }
        }
    }
    // `report` has no `--threads` or `--global`: the job loads on one thread, and
    // `--dot` selects per block.
    let job = Job::from_flags("select", &flags)?;
    let blocks = load_blocks(&job, None)?;
    match flags.get("dot") {
        Some(name) => run_dot_report(&job, &blocks, name, &flags.string("out", "-")),
        None => emit("-", &corpus_markdown(&job.corpus, &blocks)),
    }
}

/// The `ise report --dot <block>` escape hatch: render one block as a Graphviz
/// digraph with its greedily selected ISEs highlighted, for visual inspection of
/// grouped patterns and selected instructions.
fn run_dot_report(
    job: &Job,
    blocks: &[ise_corpus::CorpusBlock],
    name: &str,
    out: &str,
) -> Result<(), CliError> {
    use ise_enum::{incremental_cuts, select_ises, EngineOptions, EnumContext, PruningConfig};
    use ise_graph::{DotOptions, LatencyModel};

    let Some(block) = blocks.iter().find(|b| b.dfg.name() == name) else {
        return Err(CliError::Usage(format!(
            "--dot: no block named `{name}` in the corpus"
        )));
    };
    let ctx = EnumContext::new(block.dfg.clone());
    let options = EngineOptions {
        max_search_nodes: job.budget,
    };
    let enumeration = incremental_cuts(
        &ctx,
        &job.constraints,
        &PruningConfig::all(),
        &options,
        None,
    );
    let selection = select_ises(
        &block.dfg,
        &enumeration.cuts,
        &LatencyModel::default(),
        job.ports_in,
        job.ports_out,
        job.max_instr,
    );
    let mut dot = DotOptions::new();
    for (cut, _) in &selection.chosen {
        dot = dot.highlight(cut);
    }
    emit(out, &dot.render(&block.dfg))
}

/// Loads the job's corpus, parsing its files on up to `--threads` workers, and
/// applies `--limit`, inside a `corpus`/`load` span. The blocks and any error are
/// exactly those of a one-thread load.
fn load_blocks(
    job: &Job,
    rec: Option<&ise_obs::MetricsRegistry>,
) -> Result<Vec<ise_corpus::CorpusBlock>, CliError> {
    let span = rec.map(|rec| rec.span_begin("corpus", "load"));
    let loaded = load_corpus(&job.corpus, job.threads);
    drop(span);
    let mut blocks = loaded?;
    if let Some(limit) = job.limit {
        blocks.truncate(limit);
    }
    Ok(blocks)
}

/// Validates every output target of `flags` (`--out`, `--md`, `--trace-out`)
/// **before** the long
/// part of a run: a typo'd directory must fail in milliseconds, not after minutes
/// of enumeration whose report then has nowhere to go. `-` (stdout) always
/// validates; for files the parent directory must exist and an existing target
/// must be a writable file (not a directory, not read-only).
fn validate_out_targets(flags: &Flags) -> Result<(), CliError> {
    for key in ["out", "md", "trace-out"] {
        if let Some(target) = flags.get(key) {
            validate_out_target(target)?;
        }
    }
    Ok(())
}

fn validate_out_target(target: &str) -> Result<(), CliError> {
    if target == "-" {
        return Ok(());
    }
    let io_error = |kind, message: String| CliError::Io {
        path: target.to_string(),
        source: std::io::Error::new(kind, message),
    };
    let path = std::path::Path::new(target);
    match std::fs::metadata(path) {
        Ok(meta) if meta.is_dir() => {
            return Err(io_error(
                std::io::ErrorKind::InvalidInput,
                "is a directory, not a writable file".to_string(),
            ));
        }
        Ok(meta) if meta.permissions().readonly() => {
            return Err(io_error(
                std::io::ErrorKind::PermissionDenied,
                "exists but is read-only".to_string(),
            ));
        }
        _ => {}
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(io_error(
                std::io::ErrorKind::NotFound,
                format!("parent directory `{}` does not exist", parent.display()),
            ));
        }
    }
    Ok(())
}

/// Writes `contents` to `target`, a file or stdout for `-`; see [`emit_with`].
pub(crate) fn emit(target: &str, contents: &str) -> Result<(), CliError> {
    emit_with(target, |out| out.write_all(contents.as_bytes()))
}

/// Streams what `write` writes to `target` (a file, or stdout for `-`) through a
/// buffered writer, so a report goes out row by row and never exists whole. Every
/// write of the `ise` commands' output goes through here, so a closed stdout is a
/// `cannot write -` error, never a panic.
fn emit_with(
    target: &str,
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), CliError> {
    let io_error = |source| CliError::Io {
        path: target.to_string(),
        source,
    };
    let mut out: BufWriter<Box<dyn Write>> = BufWriter::new(if target == "-" {
        Box::new(std::io::stdout().lock())
    } else {
        Box::new(File::create(target).map_err(io_error)?)
    });
    write(&mut out).and_then(|()| out.flush()).map_err(io_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn demo_corpus(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ise-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a.dfg"),
            "dfg alpha\nnode 0 in @a\nnode 1 not\nnode 2 shl\nedge 0 1\nedge 1 2\nend\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("b.dfg"),
            "dfg beta\nnode 0 in @p\nnode 1 in @q\nnode 2 add\nnode 3 mul\n\
             edge 0 2\nedge 1 2\nedge 2 3\nedge 1 3\noutput 2\nend\n",
        )
        .unwrap();
        dir
    }

    /// The streamed writer of `command` writes exactly the bytes its tree adapter
    /// renders, over the corpus at `dir` at 1, 2 and 8 threads. For `group` this
    /// covers `--memo-stats` and two `--min-count`s.
    fn assert_streams_match_adapters(dir: &std::path::Path, command: &str) {
        use report::{batch_json, write_batch_json, written};
        let blocks = ise_corpus::load_corpus_path(dir).unwrap();
        let (allowed, switches) = job::job_flags(command).unwrap();
        for threads in ["1", "2", "8"] {
            let mut args = argv(&["--threads", threads, "--nout", "1"]);
            if command == "select" {
                args.extend(argv(&["--max-instr", "2"]));
            }
            let flags = Flags::parse_with_switches(&args, &allowed, switches).unwrap();
            let job = Job::from_flags(command, &flags).unwrap();
            let meta = job.meta(std::time::Duration::from_millis(3));
            let label = format!("{command} --threads {threads}");
            if command == "group" {
                let memo = CanonMemo::new();
                let (index, outcomes) = group::group_batch(
                    &blocks,
                    &job.batch_config(),
                    None,
                    &job.group_config(),
                    Some(&memo),
                );
                let stats = memo.stats();
                for min_count in [1, 2] {
                    for memo_stats in [None, Some(&stats)] {
                        let streamed = written(|out| {
                            group::write_group_json(
                                out, &index, &outcomes, &meta, min_count, memo_stats,
                            )
                        });
                        let adapted =
                            group::group_json(&index, &outcomes, &meta, min_count, memo_stats);
                        assert_eq!(streamed, adapted.render(), "{label}");
                    }
                }
                continue;
            }
            let outcomes = run_batch(&blocks, &job.batch_config(), None, |_, o| o.without_cuts());
            let streamed = written(|out| write_batch_json(out, &outcomes, &meta));
            assert_eq!(streamed, batch_json(&outcomes, &meta).render(), "{label}");
        }
    }

    #[test]
    fn enumerate_writes_json_and_markdown_files() {
        let dir = demo_corpus("enum");
        let out = dir.join("r.json");
        let md = dir.join("r.md");
        run(&argv(&[
            "enumerate",
            "--corpus",
            dir.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            out.to_str().unwrap(),
            "--md",
            md.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""schema":"ise-cli/enumerate/v1""#));
        assert!(json.contains(r#""name":"alpha""#) && json.contains(r#""name":"beta""#));
        let markdown = std::fs::read_to_string(&md).unwrap();
        assert!(markdown.contains("| alpha |") && markdown.contains("| beta |"));
        assert_streams_match_adapters(&dir, "enumerate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_and_limit_are_honoured() {
        let dir = demo_corpus("select");
        let out = dir.join("s.json");
        run(&argv(&[
            "select",
            "--corpus",
            dir.to_str().unwrap(),
            "--limit",
            "1",
            "--max-instr",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""schema":"ise-cli/select/v1""#));
        assert!(json.contains(r#""name":"alpha""#), "{json}");
        assert!(!json.contains(r#""name":"beta""#), "limit ignored: {json}");
        assert_streams_match_adapters(&dir, "select");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_subcommand_emits_pattern_reports_deterministically() {
        let dir = demo_corpus("group");
        let render = |threads: &str, tag: &str| {
            let out = dir.join(format!("g{tag}.json"));
            let md = dir.join(format!("g{tag}.md"));
            run(&argv(&[
                "group",
                "--corpus",
                dir.to_str().unwrap(),
                "--threads",
                threads,
                "--out",
                out.to_str().unwrap(),
                "--md",
                md.to_str().unwrap(),
            ]))
            .unwrap();
            (
                std::fs::read_to_string(&out).unwrap(),
                std::fs::read_to_string(&md).unwrap(),
            )
        };
        let (one, md) = render("1", "1");
        assert!(one.contains(r#""schema":"ise-cli/group/v1""#), "{one}");
        assert!(one.contains(r#""patterns":["#), "{one}");
        assert!(md.starts_with("# ISE pattern grouping report"));
        // Thread-count invariance, wall times aside.
        let (four, _) = render("4", "4");
        let strip = |s: &str| {
            s.split(',')
                .filter(|f| !f.contains("_seconds") && !f.contains("\"threads\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(strip(&one), strip(&four));
        assert_streams_match_adapters(&dir, "group");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_flags_are_observable_and_pure() {
        let dir = demo_corpus("memo");
        let render = |tag: &str, extra: &[&str]| {
            let out = dir.join(format!("m{tag}.json"));
            let mut args = argv(&["group", "--corpus", dir.to_str().unwrap()]);
            args.extend(argv(extra));
            args.extend(argv(&["--out", out.to_str().unwrap()]));
            run(&args).unwrap();
            std::fs::read_to_string(&out).unwrap()
        };
        let strip = |s: &str| {
            s.split(',')
                .filter(|f| !f.contains("_seconds"))
                .collect::<Vec<_>>()
                .join(",")
        };
        // Memo on (default) and off produce byte-identical reports, wall times aside.
        let on = render("on", &[]);
        let off = render("off", &["--no-memo"]);
        assert_eq!(
            strip(&on),
            strip(&off),
            "memoization must be observably pure"
        );
        assert!(!on.contains(r#""memo""#), "stats are opt-in");
        // --memo-stats surfaces the counters in the meta.
        let stats = render("stats", &["--memo-stats"]);
        assert!(stats.contains(r#""memo":{"raw_hits":"#), "{stats}");
        assert!(stats.contains(r#""labeler_runs":"#), "{stats}");
        // Conflicting and misplaced switches fail loudly.
        let err = run(&argv(&[
            "group",
            "--corpus",
            dir.to_str().unwrap(),
            "--no-memo",
            "--memo-stats",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--memo-stats"), "{err}");
        let err = run(&argv(&[
            "select",
            "--corpus",
            dir.to_str().unwrap(),
            "--no-memo",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--no-memo"), "{err}");
        // select --global accepts --no-memo and still matches the memoized run.
        let g1 = dir.join("g1.json");
        let g2 = dir.join("g2.json");
        run(&argv(&[
            "select",
            "--corpus",
            dir.to_str().unwrap(),
            "--global",
            "--out",
            g1.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "select",
            "--corpus",
            dir.to_str().unwrap(),
            "--global",
            "--no-memo",
            "--out",
            g2.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            strip(&std::fs::read_to_string(&g1).unwrap()),
            strip(&std::fs::read_to_string(&g2).unwrap())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_global_mode_reports_corpus_wide_selection() {
        let dir = demo_corpus("global");
        let out = dir.join("gs.json");
        run(&argv(&[
            "select",
            "--corpus",
            dir.to_str().unwrap(),
            "--global",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""schema":"ise-cli/select/v1""#), "{json}");
        assert!(json.contains(r#""mode":"global""#), "{json}");
        assert!(
            json.contains(r#""max_patterns":0"#),
            "unlimited by default: {json}"
        );
        assert!(json.contains(r#""total_selected":"#), "{json}");
        // Per-block mode stays available and is tagged.
        let out2 = dir.join("ps.json");
        run(&argv(&[
            "select",
            "--corpus",
            dir.to_str().unwrap(),
            "--out",
            out2.to_str().unwrap(),
        ]))
        .unwrap();
        let json2 = std::fs::read_to_string(&out2).unwrap();
        assert!(json2.contains(r#""mode":"per-block""#), "{json2}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_dot_renders_the_block_with_highlights() {
        let dir = demo_corpus("dot");
        let out = dir.join("b.dot");
        run(&argv(&[
            "report",
            "--corpus",
            dir.to_str().unwrap(),
            "--dot",
            "beta",
            "--nin",
            "3",
            "--nout",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let dot = std::fs::read_to_string(&out).unwrap();
        assert!(dot.starts_with("digraph \"beta\""), "{dot}");
        assert!(
            dot.contains("fillcolor=lightyellow"),
            "a selected cut is shaded: {dot}"
        );
        let err = run(&argv(&[
            "report",
            "--corpus",
            dir.to_str().unwrap(),
            "--dot",
            "nonesuch",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no block named"), "{err}");
        // Dot-only flags without --dot must error, not be silently dropped (a
        // forgotten --dot would otherwise print the inventory and write nothing).
        let err = run(&argv(&[
            "report",
            "--corpus",
            dir.to_str().unwrap(),
            "--out",
            "inventory.md",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("requires `--dot"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["enumerate", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["enumerate", "--corpus", "/nonexistent-ise-corpus"])),
            Err(CliError::Corpus(_))
        ));
        let err = run(&argv(&["enumerate", "--corpus", "x", "--nin", "0"])).unwrap_err();
        assert!(err.to_string().contains("--nin"), "{err}");
    }

    /// Asserts that `--{flag}`, a retired flag, is an unknown-flag usage error for
    /// every batch command.
    fn assert_retired_flag_is_rejected(flag: &str, value: &str) {
        let arg = format!("--{flag}");
        for subcommand in ["enumerate", "select", "group"] {
            let err = run(&argv(&[subcommand, "--corpus", "x", &arg, value])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{subcommand}: {err}");
            assert!(
                err.to_string().contains(&format!("unknown flag `{arg}`")),
                "{subcommand}: {err}"
            );
        }
    }

    /// The de-duplication order is no longer selectable: `--dedup-mode`, even with
    /// the one order it used to name, is an unknown flag for every batch command.
    #[test]
    fn retired_dedup_mode_flag_is_rejected() {
        assert_retired_flag_is_rejected("dedup-mode", "dedup-first");
    }

    #[test]
    fn output_paths_are_validated_before_the_run() {
        // The corpus path is deliberately nonexistent: getting the *output-path*
        // error proves validation ran before corpus loading (and therefore before
        // any enumeration work).
        let bad_out = "/nonexistent-ise-dir/report.json";
        for subcommand in ["enumerate", "select", "group"] {
            let err = run(&argv(&[
                subcommand,
                "--corpus",
                "/nonexistent-ise-corpus",
                "--out",
                bad_out,
            ]))
            .unwrap_err();
            assert!(
                matches!(&err, CliError::Io { path, .. } if path == bad_out),
                "{subcommand}: {err}"
            );
            assert!(err.to_string().contains("parent directory"), "{err}");
        }
        // --md is validated too, and a directory target is rejected.
        let dir = demo_corpus("outval");
        let err = run(&argv(&[
            "enumerate",
            "--corpus",
            dir.to_str().unwrap(),
            "--md",
            "/nonexistent-ise-dir/report.md",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("parent directory"), "{err}");
        let err = run(&argv(&[
            "report",
            "--corpus",
            dir.to_str().unwrap(),
            "--dot",
            "alpha",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("is a directory"), "{err}");
        // Writable targets still pass (the happy paths of the other tests), and
        // stdout (`-`) always validates.
        run(&argv(&[
            "enumerate",
            "--corpus",
            dir.to_str().unwrap(),
            "--out",
            dir.join("ok.json").to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn par_threshold_flag_is_accepted() {
        let dir = demo_corpus("flags");
        let out = dir.join("f.json");
        run(&argv(&[
            "enumerate",
            "--corpus",
            dir.to_str().unwrap(),
            "--par-threshold",
            "1",
            "--budget",
            "0",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""dedup_mode":"dedup-first""#), "{json}");
        assert!(json.contains(r#""par_threshold":1"#), "{json}");
        assert!(json.contains(r#""split_threshold":1000000"#), "{json}");
        assert!(json.contains(r#""tasks":"#), "{json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Recursive task splitting is gone: its threshold flag is an unknown flag for
    /// every batch command.
    #[test]
    fn retired_split_threshold_flag_is_rejected() {
        assert_retired_flag_is_rejected("split-threshold", "5");
    }
}
