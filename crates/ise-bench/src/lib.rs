//! Shared harness utilities for the experiment binaries.
//!
//! Every figure of the paper's evaluation (see the per-experiment index in DESIGN.md)
//! is regenerated by one binary under `src/bin/`:
//!
//! * `figure5` — run-time comparison of the polynomial algorithm against the pruned
//!   exhaustive baseline over the MiBench-like suite and the tree-shaped DFGs;
//! * `tree_worst_case` — the Figure 4 worst case, baseline blow-up vs. polynomial;
//! * `scaling` — polynomial-growth validation across graph sizes and I/O constraints;
//! * `par_scaling` — intra-block task-parallel scaling on the worst tractable
//!   committed corpus block (experiment E7, writes `BENCH_par_scaling.json`);
//! * `ablation` — the §5.3 pruning techniques toggled one at a time;
//! * `speedup` — candidate counts and the greedy-selection speedup model;
//! * `grouping` — canonical-form grouping and the coding memo (E8, writes
//!   `BENCH_grouping.json`);
//! * `obs_overhead` — what recording costs the engine (writes `BENCH_obs.json`);
//! * `corpus_load` — corpus ingest throughput (E10, writes `BENCH_corpus.json`).
//!
//! `json_check` validates those artifacts with the workspace's own parser.
//! [`small_blocks`] generates the many-small-block corpus that `corpus_load` (E10)
//! and `ise-cli`'s `peak_rss` example (E11) measure.
//!
//! The binaries accept `key=value` command-line overrides (for example
//! `blocks=250 max_size=1196 budget=0`) so that both a quick smoke run and the full
//! paper-scale experiment use the same code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod small_blocks;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ise_enum::EnumContext;
use ise_graph::Dfg;
use ise_workloads::tree::TreeDfgBuilder;
use ise_workloads::{suite, SizeCluster, SuiteBlock};

/// Default input-port constraint used by the paper's evaluation (`Nin = 4`).
pub const PAPER_NIN: usize = 4;
/// Default output-port constraint used by the paper's evaluation (`Nout = 2`).
pub const PAPER_NOUT: usize = 2;

/// Measures the wall-clock time of `f` and returns its result alongside the duration.
///
/// # Example
///
/// ```
/// let (value, elapsed) = ise_bench::timed(|| 21 * 2);
/// assert_eq!(value, 42);
/// assert!(elapsed.as_secs() < 1);
/// ```
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The median of `samples`: the middle value, or the mean of the middle two for an
/// even count.
///
/// # Example
///
/// ```
/// assert_eq!(ise_bench::median(&[3.0, 1.0, 2.0]), 2.0);
/// assert_eq!(ise_bench::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
/// ```
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The provenance block embedded in every `BENCH_*.json` artifact: the host's CPU
/// count (so scaling numbers can be read in context) and the recorder state the
/// measurement ran under (`"disabled"` unless the bin explicitly records —
/// observability overhead must never silently contaminate a committed figure).
///
/// # Example
///
/// ```
/// let meta = ise_bench::bench_meta("disabled");
/// assert!(meta.render().contains("\"recorder\":\"disabled\""));
/// ```
pub fn bench_meta(recorder: &str) -> json::Json {
    json::Json::object([
        (
            "host_cpus",
            json::Json::uint(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("recorder", json::Json::str(recorder)),
    ])
}

/// Simple `key=value` command-line options with typed accessors and defaults.
///
/// # Example
///
/// ```
/// let opts = ise_bench::Options::from_args(["blocks=10", "seed=7"].map(String::from));
/// assert_eq!(opts.usize("blocks", 40), 10);
/// assert_eq!(opts.u64("seed", 1), 7);
/// assert_eq!(opts.usize("missing", 3), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Options {
    values: HashMap<String, String>,
}

impl Options {
    /// Parses options from the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses options from an iterator of `key=value` strings; entries without `=` are
    /// ignored.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        for arg in args {
            if let Some((key, value)) = arg.split_once('=') {
                values.insert(key.to_string(), value.to_string());
            }
        }
        Options { values }
    }

    /// Returns the `usize` option `key`, or `default` if absent or unparsable.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Returns the `u64` option `key`, or `default` if absent or unparsable.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Returns the string option `key`, or `default` if absent.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Returns the boolean option `key` (`true`/`false`/`1`/`0`), or `default`.
    pub fn bool(&self, key: &str, default: bool) -> bool {
        match self.values.get(key).map(String::as_str) {
            Some("true") | Some("1") => true,
            Some("false") | Some("0") => false,
            _ => default,
        }
    }
}

/// One workload entry of the Figure 5 experiment: either a MiBench-like block or one of
/// the synthetic tree-shaped DFGs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Stable identifier within the experiment.
    pub id: usize,
    /// Figure 5 legend cluster.
    pub cluster: SizeCluster,
    /// The basic block.
    pub dfg: Dfg,
}

/// Assembles the Figure 5 workload: `blocks` MiBench-like basic blocks (sizes capped at
/// `max_size` vertices so that quick runs stay quick) followed by the tree-shaped DFGs
/// of depth `tree_depths`.
pub fn figure5_workload(
    blocks: usize,
    max_size: usize,
    seed: u64,
    tree_depths: &[u32],
) -> Vec<Workload> {
    let mut workload: Vec<Workload> = suite(blocks, seed)
        .into_iter()
        .filter(|b: &SuiteBlock| b.dfg.len() <= max_size)
        .map(|b| Workload {
            id: b.id,
            cluster: b.cluster,
            dfg: b.dfg,
        })
        .collect();
    let base = workload.iter().map(|w| w.id + 1).max().unwrap_or(0);
    for (i, &depth) in tree_depths.iter().enumerate() {
        workload.push(Workload {
            id: base + i,
            cluster: SizeCluster::Tree,
            dfg: TreeDfgBuilder::new(depth).build(),
        });
    }
    workload
}

/// Builds the enumeration context for a block, timing the (shared) precomputation.
pub fn build_context(dfg: &Dfg) -> (EnumContext, Duration) {
    timed(|| EnumContext::new(dfg.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_and_default() {
        let opts = Options::from_args(vec![
            "blocks=12".to_string(),
            "flag=true".to_string(),
            "noise".to_string(),
        ]);
        assert_eq!(opts.usize("blocks", 1), 12);
        assert!(opts.bool("flag", false));
        assert!(!opts.bool("other", false));
        assert_eq!(opts.u64("seed", 99), 99);
        assert_eq!(opts.string("blocks", "x"), "12");
        assert_eq!(opts.string("missing", "fallback"), "fallback");
    }

    #[test]
    fn workload_respects_size_cap_and_appends_trees() {
        let w = figure5_workload(20, 150, 7, &[3, 4]);
        assert!(w
            .iter()
            .filter(|x| x.cluster != SizeCluster::Tree)
            .all(|x| x.dfg.len() <= 150));
        assert_eq!(
            w.iter().filter(|x| x.cluster == SizeCluster::Tree).count(),
            2
        );
        // Tree ids follow the block ids.
        let max_block_id = w
            .iter()
            .filter(|x| x.cluster != SizeCluster::Tree)
            .map(|x| x.id)
            .max()
            .unwrap_or(0);
        assert!(w
            .iter()
            .filter(|x| x.cluster == SizeCluster::Tree)
            .all(|x| x.id > max_block_id));
    }

    #[test]
    fn context_helper_works() {
        // No size cap: the single block must survive the filter whatever size the
        // generator draws for it.
        let w = figure5_workload(1, usize::MAX, 3, &[]);
        let dfg = &w[0].dfg;
        let (ctx, elapsed) = build_context(dfg);
        assert_eq!(ctx.rooted().original_len(), dfg.len());
        assert!(elapsed.as_secs() < 10);
    }
}
