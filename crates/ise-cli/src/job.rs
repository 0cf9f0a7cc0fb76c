//! One resolved job: the flags of `enumerate`, `select` and `group`, read and
//! defaulted once, whether they came from the command line or from an `ise serve`
//! request's `flags` object.
//!
//! Both front-ends build a [`Job`] with [`Job::from_flags`] and read everything
//! else from it: the engine configuration ([`Job::batch_config`]), the report
//! metadata ([`Job::meta`]), the grouping ports ([`Job::group_config`]), the serve
//! cache-key tokens ([`Job::cache_tokens`]) and the report writer
//! ([`Job::write_json`]). No other code reads `--ports-in`, `--ports-out`,
//! `--max-instr` or `--min-count`.

use std::io::{self, Write};
use std::time::Duration;

use ise_canon::{GroupConfig, MemoStats, PatternIndex};
use ise_corpus::CorpusBlock;
use ise_enum::{Constraints, DedupMode, PruningConfig};

use crate::batch::{
    BatchConfig, BlockOutcome, SelectionConfig, DEFAULT_PAR_THRESHOLD, DEFAULT_SPLIT_THRESHOLD,
};
use crate::group::{self, GlobalReport};
use crate::report::{batch_markdown, write_batch_json, RunMeta};
use crate::{CliError, Flags, DEFAULT_BUDGET};

/// What a job computes; each variant has its own compute path and report writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// `enumerate`: the cut counts of every block.
    Enumerate,
    /// `select`: the greedy ISE selection of every block.
    Select,
    /// `select --global`: one corpus-level selection over the pattern index.
    SelectGlobal,
    /// `group`: the corpus's recurring patterns, by canonical code.
    Group,
}

impl Op {
    /// The command (and serve op) name; `select --global` is `select`.
    pub(crate) fn command(self) -> &'static str {
        match self {
            Op::Enumerate => "enumerate",
            Op::Select | Op::SelectGlobal => "select",
            Op::Group => "group",
        }
    }
}

/// The flags a job of `command` reads, as (valued flags, switches), or `None` when
/// `command` names no job. A serve request accepts exactly these; the CLI adds its
/// input, output and observation flags.
pub(crate) fn job_flags(command: &str) -> Option<(Vec<&'static str>, &'static [&'static str])> {
    let (extra, switches): (&[&str], &[&str]) = match command {
        "enumerate" => (&[], &[]),
        "select" => (&["max-instr", "ports-in", "ports-out"], &["global"]),
        "group" => (&["ports-in", "ports-out", "min-count"], &[]),
        _ => return None,
    };
    let common = ["threads", "nin", "nout", "budget", "limit", "par-threshold"];
    Some(([&common[..], extra].concat(), switches))
}

/// A job with every flag resolved to its value or its default.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) op: Op,
    /// The `--corpus` path (serve requests name their blocks in `block` instead).
    pub(crate) corpus: String,
    pub(crate) threads: usize,
    /// The per-block search budget; `--budget 0` is `None`, unbounded.
    pub(crate) budget: Option<usize>,
    pub(crate) par_threshold: usize,
    pub(crate) constraints: Constraints,
    /// How many leading blocks to keep (`--limit`), if given.
    pub(crate) limit: Option<usize>,
    /// Register-file ports for selection and grouping; default `nin`/`nout`.
    pub(crate) ports_in: usize,
    pub(crate) ports_out: usize,
    /// Custom instructions per block for `select`, distinct patterns for
    /// `select --global` (default 4 and 0 = unlimited).
    pub(crate) max_instr: usize,
    /// `group`'s table threshold (default 1).
    pub(crate) min_count: usize,
}

impl Job {
    /// Resolves a job of `command` (a name [`job_flags`] knows) from `flags`. The
    /// one place the job flags are read and defaulted.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on a malformed number or switch and on invalid
    /// `--nin`/`--nout` constraints.
    pub(crate) fn from_flags(command: &str, flags: &Flags) -> Result<Job, CliError> {
        let op = match command {
            "select" if flags.bool("global", false)? => Op::SelectGlobal,
            "select" => Op::Select,
            "group" => Op::Group,
            _ => Op::Enumerate,
        };
        let nin = flags.usize("nin", 4)?;
        let nout = flags.usize("nout", 2)?;
        Ok(Job {
            op,
            corpus: flags.string("corpus", "corpus"),
            threads: flags.usize("threads", 1)?,
            budget: match flags.usize("budget", DEFAULT_BUDGET)? {
                0 => None,
                limit => Some(limit),
            },
            par_threshold: flags.usize("par-threshold", DEFAULT_PAR_THRESHOLD)?,
            constraints: Constraints::new(nin, nout)
                .map_err(|e| CliError::Usage(format!("--nin/--nout: {e}")))?,
            limit: flags
                .get("limit")
                .map(|_| flags.usize("limit", 0))
                .transpose()?,
            ports_in: flags.usize("ports-in", nin)?,
            ports_out: flags.usize("ports-out", nout)?,
            // Global selection bounds distinct patterns and defaults to unlimited:
            // reusing an implemented instruction at another occurrence costs no
            // additional opcode.
            max_instr: flags.usize("max-instr", if op == Op::SelectGlobal { 0 } else { 4 })?,
            min_count: flags.usize("min-count", 1)?,
        })
    }

    /// The batch configuration; per-block selection rides along for `select`.
    pub(crate) fn batch_config(&self) -> BatchConfig {
        BatchConfig {
            constraints: self.constraints.clone(),
            pruning: PruningConfig::all(),
            budget: self.budget,
            threads: self.threads,
            select: (self.op == Op::Select).then_some(SelectionConfig {
                max_instructions: self.max_instr,
                ports_in: self.ports_in,
                ports_out: self.ports_out,
            }),
            dedup_mode: DedupMode::default(),
            par_threshold: self.par_threshold,
            split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
        }
    }

    /// The report metadata of a run that took `elapsed`.
    pub(crate) fn meta(&self, elapsed: Duration) -> RunMeta {
        RunMeta {
            corpus: self.corpus.clone(),
            nin: self.constraints.max_inputs(),
            nout: self.constraints.max_outputs(),
            threads: self.threads,
            budget: self.budget,
            par_threshold: self.par_threshold,
            split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
            dedup_mode: DedupMode::default(),
            select: matches!(self.op, Op::Select | Op::SelectGlobal),
            elapsed,
        }
    }

    /// The grouping ports of `group` and `select --global`.
    pub(crate) fn group_config(&self) -> GroupConfig {
        GroupConfig::new(self.ports_in, self.ports_out)
    }

    /// The `ise serve` cache-key tokens, as (engine token, op token).
    ///
    /// The engine token holds the facts every op keys on: constraints, prunings,
    /// budget and fan-out threshold. Thread counts are absent, since they never
    /// change a result byte. The fixed `split-threshold=1000000` and
    /// `dedup=dedup-first` segments name the retired split threshold and the
    /// engine's one de-duplication order; they stay so existing keys and cache
    /// files remain valid. The op token adds the op's own flags with their
    /// defaults resolved, so an explicit `--max-instr 4` and an absent flag key
    /// identically.
    pub(crate) fn cache_tokens(&self) -> (String, String) {
        let engine = format!(
            "{};{};budget={};par-threshold={};split-threshold=1000000;dedup=dedup-first",
            self.constraints.cache_token(),
            PruningConfig::all().cache_token(),
            self.budget
                .map_or_else(|| "none".to_string(), |b| b.to_string()),
            self.par_threshold,
        );
        let (ports_in, ports_out) = (self.ports_in, self.ports_out);
        let op = match self.op {
            Op::Enumerate => "enumerate".to_string(),
            Op::Select | Op::SelectGlobal => format!(
                "select:global={};max-instr={};ports-in={ports_in};ports-out={ports_out}",
                self.op == Op::SelectGlobal,
                self.max_instr,
            ),
            Op::Group => format!(
                "group:ports-in={ports_in};ports-out={ports_out};min-count={}",
                self.min_count
            ),
        };
        (engine, op)
    }

    /// The report over a finished run: `outcomes` from the batch over `blocks`, and
    /// `index`, the pattern index that `group` and `select --global` build (`None`
    /// for the other ops). Global selection runs here, once for both report
    /// formats.
    pub(crate) fn report<'a>(
        &self,
        blocks: &[CorpusBlock],
        outcomes: &'a [BlockOutcome],
        index: Option<&'a PatternIndex>,
    ) -> Report<'a> {
        let index = || index.expect("group and select --global build a pattern index");
        match self.op {
            Op::Enumerate | Op::Select => Report::Blocks(outcomes),
            Op::SelectGlobal => {
                Report::Global(GlobalReport::new(index(), blocks, outcomes, self.max_instr))
            }
            Op::Group => Report::Group(index(), outcomes),
        }
    }

    /// Writes the job's JSON report: the one writer dispatch of the batch commands
    /// and `ise serve`. `memo_stats` adds `group`'s `--memo-stats` counters.
    pub(crate) fn write_json(
        &self,
        out: &mut dyn Write,
        report: &Report<'_>,
        meta: &RunMeta,
        memo_stats: Option<&MemoStats>,
    ) -> io::Result<()> {
        match report {
            Report::Blocks(outcomes) => write_batch_json(out, outcomes, meta),
            Report::Global(global) => global.write_json(out, meta),
            Report::Group(index, outcomes) => {
                group::write_group_json(out, index, outcomes, meta, self.min_count, memo_stats)
            }
        }
    }

    /// The markdown companion of [`Job::write_json`]; `group` shows at most `top`
    /// patterns.
    pub(crate) fn markdown(
        &self,
        report: &Report<'_>,
        meta: &RunMeta,
        top: usize,
        memo_stats: Option<&MemoStats>,
    ) -> String {
        match report {
            Report::Blocks(outcomes) => batch_markdown(outcomes, meta),
            Report::Global(global) => global.markdown(meta),
            Report::Group(index, outcomes) => {
                group::group_markdown(index, outcomes, meta, self.min_count, top, memo_stats)
            }
        }
    }
}

/// What a job's report renders, built by [`Job::report`].
pub(crate) enum Report<'a> {
    /// Per-block rows: `enumerate` and per-block `select`.
    Blocks(&'a [BlockOutcome]),
    /// The corpus-level selection of `select --global`.
    Global(GlobalReport<'a>),
    /// `group`'s pattern table over its per-block rows.
    Group(&'a PatternIndex, &'a [BlockOutcome]),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(command: &str, args: &[&str]) -> Result<Job, CliError> {
        let (allowed, switches) = job_flags(command).expect("a job command");
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        Job::from_flags(
            command,
            &Flags::parse_with_switches(&args, &allowed, switches)?,
        )
    }

    #[test]
    fn per_op_defaults_resolve_in_one_place() {
        let select = job("select", &["--nin", "3", "--nout", "1"]).unwrap();
        assert_eq!(select.op, Op::Select);
        assert_eq!(
            (select.max_instr, select.ports_in, select.ports_out),
            (4, 3, 1)
        );
        assert!(select.batch_config().select.is_some());
        let global = job("select", &["--global"]).unwrap();
        assert_eq!((global.op, global.max_instr), (Op::SelectGlobal, 0));
        assert!(global.batch_config().select.is_none());
        assert!(global.meta(Duration::ZERO).select);
        let group = job("group", &["--budget", "0", "--limit", "2"]).unwrap();
        assert_eq!(group.op, Op::Group);
        assert_eq!(
            (group.min_count, group.budget, group.limit),
            (1, None, Some(2))
        );
        assert!(!group.meta(Duration::ZERO).select);
        let enumerate = job("enumerate", &[]).unwrap();
        assert_eq!(
            (enumerate.budget, enumerate.limit),
            (Some(DEFAULT_BUDGET), None)
        );
    }

    #[test]
    fn each_op_accepts_only_its_own_flags() {
        assert!(job_flags("report").is_none());
        assert!(job("enumerate", &["--max-instr", "2"]).is_err());
        assert!(job("enumerate", &["--global"]).is_err());
        assert!(job("select", &["--min-count", "2"]).is_err());
        assert!(job("group", &["--global"]).is_err());
        assert!(job("group", &["--min-count", "x"]).is_err());
        assert!(job("group", &["--nin", "0"]).is_err());
    }
}
