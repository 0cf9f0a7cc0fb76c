//! The sharded batch runner: scoped workers sharing one list of (block, task) items.
//!
//! Sharding whole *blocks* across workers would leave one adversarial block
//! serializing an entire corpus sweep, so the work is flattened into
//! `(block, task)` items — a small block is one item, a large block one item per task
//! of its static first-output fan-out — run by [`run_items`]: each worker claims
//! the next unclaimed item, last first. The worker retiring a block's last task
//! merges its task outputs (sorted by [`TaskId`], the deterministic serial order)
//! and finalizes the block.
//!
//! **Determinism.** The fan-out plan ([`BatchConfig::par_threshold`],
//! [`MAX_TASKS_PER_BLOCK`], then [`plan`], the planner `parallel_cuts` uses too)
//! and its per-task budget split are functions of the block and the configuration
//! alone — never of the thread count — and the ordered task
//! merge is deterministic, so every count in the output is byte-identical for any
//! `--threads` value. Unbudgeted fanned-out blocks reproduce the serial enumeration
//! in its cut list and every counter a report renders (the contract of
//! [`merge_tasks`]); budgeted ones split the block budget evenly across
//! the tasks (each subtree truncated independently), which is deterministic but
//! intentionally not identical to a serially budgeted run.
//!
//! **Per-block reduction.** [`run_batch`] hands each finalized block to a caller's
//! `reduce` closure on the worker that finalized it, and keeps only what the closure
//! returns: `enumerate` and per-block `select` drop the cut list, `group` codes the
//! cuts and drops them, so peak memory follows what a command renders rather than
//! the total number of cuts. [`run_batch_obs`] is the identity reduction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ise_corpus::CorpusBlock;
use ise_enum::par::{merge_tasks, plan, run_items, run_task, FanOut, TaskId, TaskSpec};
use ise_enum::{
    incremental_cuts, select_ises, Constraints, DedupMode, EngineOptions, EnumContext, Enumeration,
    PruningConfig, Selection,
};
use ise_graph::Dfg;
use ise_obs::MetricsRegistry;

/// Blocks with at least this many vertices fan out into first-output tasks by
/// default (`--par-threshold` overrides).
pub const DEFAULT_PAR_THRESHOLD: usize = 64;

/// Upper bound on the number of tasks one block fans out into. A constant (not a
/// function of the thread count!) so that budgeted runs are byte-identical for any
/// `--threads` value; 16 tasks keep every realistic worker count fed while bounding
/// the per-block merge state.
pub const MAX_TASKS_PER_BLOCK: usize = 16;

/// The retired recursive-split threshold, still echoed as `"split_threshold"` in
/// every report and as the `split-threshold=` segment of `ise serve` cache keys so
/// recorded digests and cached entries stay valid. Nothing reads it.
pub const DEFAULT_SPLIT_THRESHOLD: usize = 1_000_000;

/// Selection settings for `ise select` (enumeration settings live in [`BatchConfig`]).
#[derive(Clone, Debug)]
pub struct SelectionConfig {
    /// Maximum number of custom instructions chosen per block.
    pub max_instructions: usize,
    /// Register-file read ports available per cycle for operand transfer.
    pub ports_in: usize,
    /// Register-file write ports available per cycle for result transfer.
    pub ports_out: usize,
}

/// Configuration of one batch run.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// The microarchitectural constraints (`Nin`, `Nout`).
    pub constraints: Constraints,
    /// The §5.3 pruning techniques to apply (all, for production runs).
    pub pruning: PruningConfig,
    /// Optional per-block search budget (`None` = unbounded); fanned-out blocks
    /// split it evenly across their static tasks.
    pub budget: Option<usize>,
    /// Number of worker threads; clamped to at least 1. Feeds the scheduler and never
    /// changes any output count.
    pub threads: usize,
    /// When set, each block additionally runs the greedy ISE selection.
    pub select: Option<SelectionConfig>,
    /// The engine's de-duplication order; [`DedupMode`] has one value, so the run
    /// never reads this field.
    pub dedup_mode: DedupMode,
    /// Minimum block size (in vertices) for intra-block fan-out; `usize::MAX`
    /// disables fan-out entirely.
    pub par_threshold: usize,
    /// The retired recursive-split threshold ([`DEFAULT_SPLIT_THRESHOLD`]); the run
    /// never reads this field.
    pub split_threshold: Option<usize>,
}

impl BatchConfig {
    /// An unbounded single-threaded enumerate-only configuration with the default
    /// fan-out threshold.
    pub fn new(constraints: Constraints) -> Self {
        BatchConfig {
            constraints,
            pruning: PruningConfig::all(),
            budget: None,
            threads: 1,
            select: None,
            dedup_mode: DedupMode::default(),
            par_threshold: DEFAULT_PAR_THRESHOLD,
            split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
        }
    }
}

/// What one block produced: the enumeration (and optional selection) plus the block's
/// structural counts for reporting.
#[derive(Clone, Debug)]
pub struct BlockOutcome {
    /// Position of the block in the loaded corpus (outcomes are returned sorted by
    /// this, so results are deterministic for any thread count).
    pub index: usize,
    /// The block's corpus name.
    pub name: String,
    /// Vertex count of the block.
    pub nodes: usize,
    /// Edge count of the block.
    pub edges: usize,
    /// Forbidden-vertex count of the block (memory operations, calls, user marks).
    pub forbidden: usize,
    /// How many tasks the block's enumeration was merged from (1 = ran whole; a
    /// pure function of the block and the flags, never of the thread count).
    pub tasks: usize,
    /// The enumeration result (merged across tasks when the block fanned out). Its
    /// cut list is empty once [`BlockOutcome::without_cuts`] has run; reports count
    /// cuts by `stats.valid_cuts`, which stays.
    pub enumeration: Enumeration,
    /// The greedy selection, when [`BatchConfig::select`] was set.
    pub selection: Option<Selection>,
    /// Wall time from the block's first task starting to its merge completing
    /// (context build and selection included). It is taken before the batch's
    /// per-block reduction runs, so coding a block in [`run_batch`]'s `reduce`
    /// closure never counts here.
    pub elapsed: Duration,
}

impl BlockOutcome {
    /// The outcome of block `index` (`block`) from its finished `enumeration`,
    /// merged from `tasks` tasks, running the greedy selection when `select` is
    /// given. `elapsed` starts at zero; the batch stamps it after construction.
    /// The batch's finalizer and the `ise serve` cache share this constructor, so
    /// their outcomes cannot drift apart.
    pub fn new(
        index: usize,
        block: &CorpusBlock,
        tasks: usize,
        enumeration: Enumeration,
        select: Option<&SelectionConfig>,
    ) -> Self {
        let selection = select.map(|sel| {
            select_ises(
                &block.dfg,
                &enumeration.cuts,
                sel.ports_in,
                sel.ports_out,
                sel.max_instructions,
            )
        });
        BlockOutcome {
            index,
            name: block.dfg.name().to_string(),
            nodes: block.dfg.len(),
            edges: block.dfg.edge_count(),
            forbidden: block.dfg.forbidden().len(),
            tasks,
            enumeration,
            selection,
            elapsed: Duration::ZERO,
        }
    }

    /// The outcome with its cut list freed; the statistics (the cut count
    /// included) and the selection are kept.
    pub fn without_cuts(mut self) -> Self {
        self.enumeration.cuts = Vec::new();
        self
    }
}

/// In-flight state of one block; the worker retiring the last task merges.
struct BlockSlot {
    /// The context a fanned-out block's tasks share. The first task builds it, each
    /// task drops its own reference before retiring, and the worker retiring the
    /// last task takes it out, merges with it and frees it before selection. A whole-block item builds its own
    /// context and never touches this.
    ctx: Mutex<Option<Arc<EnumContext>>>,
    /// When a fanned-out block's first task started.
    started: OnceLock<Instant>,
    /// Tasks of this block not yet retired.
    pending: AtomicUsize,
    outputs: Mutex<Vec<(TaskId, Enumeration)>>,
}

/// The block's fan-out: [`MAX_TASKS_PER_BLOCK`] first-output tasks for a block of
/// at least [`BatchConfig::par_threshold`] vertices, else one whole run. The
/// engine's own context-free counter sizes it, so its task ranges can never drift
/// from the candidate list `run_task` slices.
fn plan_block(dfg: &Dfg, config: &BatchConfig) -> FanOut {
    let tasks = if dfg.len() >= config.par_threshold {
        MAX_TASKS_PER_BLOCK
    } else {
        1
    };
    let block = EngineOptions {
        max_search_nodes: config.budget,
    };
    plan(EnumContext::candidate_output_count(dfg), tasks, &block)
}

/// One schedulable unit: a block index plus either a task of its fan-out or `None`
/// for a whole-block (serial) run.
type WorkItem = (usize, Option<TaskSpec>);

/// Runs the batch: every block of `blocks` through the engine, with large blocks
/// fanned out into first-output tasks, all items run by [`run_items`] on
/// [`BatchConfig::threads`] workers, and returns every block's full
/// [`BlockOutcome`] in corpus order.
///
/// Each worker owns its per-task search state — the engine's `Send` audit guarantees
/// nothing is shared mutably — and the fan-out plan and the task merge are both
/// deterministic, so the outcomes (sorted by block index) are
/// identical for every thread count; only the wall times differ.
///
/// An optional [`MetricsRegistry`] observes the run: per-block and per-task spans,
/// the seeded item count and phase timings land in the registry, and worker threads
/// are named `worker-N` for trace grouping. Recording never changes any outcome — the
/// plan and the merge are untouched — so runs with and without a registry report
/// identical counts.
///
/// This holds every block's cut list until the batch returns; commands that
/// render less reduce each block as it finishes with [`run_batch`].
pub fn run_batch_obs(
    blocks: &[CorpusBlock],
    config: &BatchConfig,
    rec: Option<&MetricsRegistry>,
) -> Vec<BlockOutcome> {
    run_batch(blocks, config, rec, |_, outcome| outcome)
}

/// [`run_batch_obs`] with a per-block reduction: `reduce` runs once per block, on
/// the worker that finalized it, right after its outcome is built, and only its
/// result is kept until the batch returns. The results come back in corpus order.
///
/// The reduction runs concurrently on up to [`BatchConfig::threads`] workers and
/// in no particular block order, so it must not depend on the order blocks finish
/// in (a shared `CanonMemo` qualifies: hits never change a coded value). Callers
/// that need order — merging into a `PatternIndex` — do it on the returned vector.
pub fn run_batch<R, F>(
    blocks: &[CorpusBlock],
    config: &BatchConfig,
    rec: Option<&MetricsRegistry>,
    reduce: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&CorpusBlock, BlockOutcome) -> R + Sync,
{
    let plans: Vec<FanOut> = blocks.iter().map(|b| plan_block(&b.dfg, config)).collect();
    let slots: Vec<BlockSlot> = plans
        .iter()
        .map(|plan| BlockSlot {
            ctx: Mutex::new(None),
            started: OnceLock::new(),
            pending: AtomicUsize::new(plan.tasks.len().max(1)),
            outputs: Mutex::new(Vec::new()),
        })
        .collect();
    let items: Vec<WorkItem> = plans
        .iter()
        .enumerate()
        .flat_map(|(block, plan)| -> Vec<WorkItem> {
            if plan.tasks.is_empty() {
                vec![(block, None)]
            } else {
                plan.tasks
                    .iter()
                    .map(|spec| (block, Some(spec.clone())))
                    .collect()
            }
        })
        .collect();

    let batch = Batch {
        blocks,
        plans: &plans,
        slots: &slots,
        config,
        rec,
        reduce: &reduce,
    };
    // Exactly one item of each block finalizes it, and each block's items are
    // contiguous in block order, so the finalized results come in corpus order.
    let results: Vec<R> = run_items(&items, config.threads, rec, |(block_idx, spec)| {
        batch.run_item(*block_idx, spec)
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(results.len(), blocks.len(), "each block is finalized once");
    results
}

/// Everything a worker reads while running items, borrowed for one batch.
struct Batch<'a, F> {
    blocks: &'a [CorpusBlock],
    plans: &'a [FanOut],
    slots: &'a [BlockSlot],
    config: &'a BatchConfig,
    rec: Option<&'a MetricsRegistry>,
    reduce: &'a F,
}

impl<F> Batch<'_, F> {
    /// Executes one work item; the worker retiring a block's last task merges and
    /// finalizes it, returning what `reduce` keeps of the block.
    fn run_item<R>(&self, block_idx: usize, spec: &Option<TaskSpec>) -> Option<R>
    where
        F: Fn(&CorpusBlock, BlockOutcome) -> R,
    {
        let (block, plan, slot) = (
            &self.blocks[block_idx],
            &self.plans[block_idx],
            &self.slots[block_idx],
        );
        let config = self.config;
        let Some(spec) = spec else {
            // Whole-block item: run the serial engine directly, no merge needed. The
            // context lives only for the enumeration (selection reads just the
            // graph), so a sweep of many small blocks holds one context per busy
            // worker.
            let started = Instant::now();
            let enumeration = incremental_cuts(
                &EnumContext::new(block.dfg.clone()),
                &config.constraints,
                &config.pruning,
                &plan.options,
                self.rec,
            );
            return Some(self.finalize(block_idx, 1, enumeration, started));
        };
        // Fanned-out tasks share the block's context until its merge.
        let started = *slot.started.get_or_init(Instant::now);
        let ctx = Arc::clone(
            slot.ctx
                .lock()
                .expect("block context poisoned")
                .get_or_insert_with(|| Arc::new(EnumContext::new(block.dfg.clone()))),
        );
        let output = run_task(
            &ctx,
            &config.constraints,
            &config.pruning,
            &plan.options,
            spec,
            self.rec,
        );
        // Release this task's reference before retiring it, so once the last task
        // retires the slot holds the context's only reference.
        drop(ctx);
        slot.outputs
            .lock()
            .expect("task output list poisoned")
            .push((spec.id(), output));
        // The last task to retire (the mutex pushes above synchronize with this
        // acquire) merges in TaskId order — the serial order, whatever the schedule
        // was.
        if slot.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let mut outputs =
            std::mem::take(&mut *slot.outputs.lock().expect("task output list poisoned"));
        outputs.sort_by_key(|(id, _)| *id);
        let tasks = outputs.len();
        let outputs: Vec<Enumeration> = outputs.into_iter().map(|(_, out)| out).collect();
        let ctx = slot
            .ctx
            .lock()
            .expect("block context poisoned")
            .take()
            .expect("a fanned-out block's first task built its context");
        debug_assert_eq!(Arc::strong_count(&ctx), 1, "every task has released it");
        let enumeration = merge_tasks(&ctx, outputs, self.rec);
        // Free the context here, on the merging worker, before selection and the
        // reduction run.
        drop(ctx);
        Some(self.finalize(block_idx, tasks, enumeration, started))
    }

    /// Builds the block's outcome, stamps its wall time, and returns what `reduce`
    /// keeps of it.
    fn finalize<R>(
        &self,
        index: usize,
        tasks: usize,
        enumeration: Enumeration,
        started: Instant,
    ) -> R
    where
        F: Fn(&CorpusBlock, BlockOutcome) -> R,
    {
        let block = &self.blocks[index];
        let mut outcome = BlockOutcome::new(
            index,
            block,
            tasks,
            enumeration,
            self.config.select.as_ref(),
        );
        outcome.elapsed = started.elapsed();
        let result = (self.reduce)(block, outcome);
        if let Some(rec) = self.rec {
            rec.add("ise_batch_blocks_total", 1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_workloads::random_dag::{random_dag, RandomDagConfig};

    fn small_corpus() -> Vec<CorpusBlock> {
        [(16usize, 0usize), (24, 10), (32, 20), (36, 15), (28, 5)]
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, mem_pct))| CorpusBlock {
                dfg: random_dag(
                    &RandomDagConfig::new(nodes).with_memory_ratio(mem_pct as f64 / 100.0),
                    90 + i as u64,
                ),
                meta: Vec::new(),
            })
            .collect()
    }

    fn config(threads: usize) -> BatchConfig {
        BatchConfig {
            threads,
            ..BatchConfig::new(Constraints::new(4, 2).unwrap())
        }
    }

    /// The unbudgeted serial engine run the batch must reproduce for `block`.
    fn direct(block: &CorpusBlock, config: &BatchConfig) -> Enumeration {
        let ctx = EnumContext::new(block.dfg.clone());
        let options = EngineOptions::default();
        incremental_cuts(&ctx, &config.constraints, &config.pruning, &options, None)
    }

    /// The batch driver must report exactly what a direct engine run reports,
    /// block for block (the ISSUE's CLI-vs-engine cross-check).
    #[test]
    fn batch_outcomes_match_direct_engine_runs() {
        let blocks = small_corpus();
        let cfg = config(2);
        let outcomes = run_batch_obs(&blocks, &cfg, None);
        assert_eq!(outcomes.len(), blocks.len());
        for (outcome, block) in outcomes.iter().zip(&blocks) {
            let direct = direct(block, &cfg);
            assert_eq!(outcome.name, block.dfg.name());
            assert_eq!(
                outcome.enumeration.cuts.len(),
                direct.cuts.len(),
                "cut count differs on {}",
                outcome.name
            );
            assert_eq!(
                outcome.enumeration.stats.search_nodes, direct.stats.search_nodes,
                "search trace differs on {}",
                outcome.name
            );
        }
    }

    /// The counters a fanned-out block shares with its serial run: all but the
    /// per-task rejection tallies (see `ise_enum::par::merge_tasks`).
    fn invariant_stats(s: &ise_enum::EnumStats) -> [usize; 10] {
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

    /// Fanned-out blocks (forced via a tiny threshold) must still report exactly the
    /// serial cut list and invariant counters on unbudgeted runs.
    #[test]
    fn fanned_out_blocks_match_direct_engine_runs_exactly() {
        let blocks = small_corpus();
        let mut cfg = config(3);
        cfg.par_threshold = 1; // every block fans out
        let outcomes = run_batch_obs(&blocks, &cfg, None);
        for (outcome, block) in outcomes.iter().zip(&blocks) {
            assert!(outcome.tasks > 1, "{} did not fan out", outcome.name);
            let direct = direct(block, &cfg);
            assert_eq!(
                invariant_stats(&outcome.enumeration.stats),
                invariant_stats(&direct.stats),
                "merged stats differ from serial on {}",
                outcome.name
            );
            let merged: Vec<_> = outcome.enumeration.cuts.iter().map(|c| c.key()).collect();
            let serial: Vec<_> = direct.cuts.iter().map(|c| c.key()).collect();
            assert_eq!(merged, serial, "cut order differs on {}", outcome.name);
        }
    }

    /// `run_batch` calls `reduce` exactly once per block, with that block, and
    /// returns the results in corpus order; with the identity reduction each result
    /// equals the `run_batch_obs` outcome. Checked at 1/2/8 threads, with and
    /// without every block fanned out.
    #[test]
    fn reduce_runs_once_per_block_and_returns_corpus_order() {
        let blocks = small_corpus();
        for (threads, par_threshold) in [
            (1, DEFAULT_PAR_THRESHOLD),
            (2, DEFAULT_PAR_THRESHOLD),
            (8, DEFAULT_PAR_THRESHOLD),
            (1, 1),
            (2, 1),
            (8, 1),
        ] {
            let mut cfg = config(threads);
            cfg.par_threshold = par_threshold;
            cfg.select = Some(SelectionConfig {
                max_instructions: 2,
                ports_in: 4,
                ports_out: 2,
            });
            let label = format!("threads={threads} par={par_threshold}");
            let reference = run_batch_obs(&blocks, &cfg, None);
            let calls: Vec<AtomicUsize> = blocks.iter().map(|_| AtomicUsize::new(0)).collect();
            let reduced = run_batch(&blocks, &cfg, None, |block, outcome| {
                calls[outcome.index].fetch_add(1, Ordering::Relaxed);
                assert_eq!(block.dfg.name(), outcome.name, "{label}: wrong block");
                (outcome.index, outcome)
            });
            for (i, count) in calls.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "{label}: block {i}");
            }
            assert_eq!(reduced.len(), blocks.len(), "{label}");
            for (i, ((index, got), want)) in reduced.iter().zip(&reference).enumerate() {
                assert_eq!((*index, got.index), (i, i), "{label}: out of corpus order");
                assert_eq!(got.name, want.name, "{label}");
                assert_eq!(got.tasks, want.tasks, "{label}: {}", got.name);
                assert_eq!(
                    got.enumeration.stats.valid_cuts,
                    got.enumeration.cuts.len(),
                    "{label}: reports count cuts by valid_cuts"
                );
                assert_eq!(got.enumeration.stats, want.enumeration.stats, "{label}");
                assert!(
                    got.enumeration.cuts.iter().map(|c| c.key()).eq(want
                        .enumeration
                        .cuts
                        .iter()
                        .map(|c| c.key())),
                    "{label}: cuts differ on {}",
                    got.name
                );
                let picks = |o: &BlockOutcome| {
                    let sel = o.selection.as_ref().expect("selection requested");
                    (sel.chosen.len(), sel.total_saved_cycles)
                };
                assert_eq!(picks(got), picks(want), "{label}: {}", got.name);
            }
            if par_threshold == 1 {
                assert!(reduced.iter().all(|(_, o)| o.tasks > 1), "{label}");
            }
        }
    }

    /// Dropping the cut list keeps everything the reports render.
    #[test]
    fn without_cuts_keeps_the_statistics_and_selection() {
        let blocks = small_corpus();
        let mut cfg = config(2);
        cfg.select = Some(SelectionConfig {
            max_instructions: 2,
            ports_in: 4,
            ports_out: 2,
        });
        let full = run_batch_obs(&blocks, &cfg, None);
        let lean = run_batch(&blocks, &cfg, None, |_, outcome| outcome.without_cuts());
        for (f, l) in full.iter().zip(&lean) {
            assert!(l.enumeration.cuts.is_empty(), "{}", l.name);
            assert_eq!(l.enumeration.stats, f.enumeration.stats);
            assert_eq!(
                l.selection.as_ref().map(|s| s.total_saved_cycles),
                f.selection.as_ref().map(|s| s.total_saved_cycles)
            );
        }
        assert!(
            full.iter().any(|o| !o.enumeration.cuts.is_empty()),
            "the corpus yields cuts"
        );
    }

    /// Thread count must not change results — only wall time (identical aggregate
    /// counts for N=1 and N=8) — including when blocks fan out.
    #[test]
    fn thread_count_does_not_change_results() {
        let blocks = small_corpus();
        for par_threshold in [DEFAULT_PAR_THRESHOLD, 1] {
            let make = |threads| {
                let mut cfg = config(threads);
                cfg.par_threshold = par_threshold;
                cfg
            };
            let one = run_batch_obs(&blocks, &make(1), None);
            for threads in [2, 8] {
                let many = run_batch_obs(&blocks, &make(threads), None);
                assert_eq!(one.len(), many.len());
                for (a, b) in one.iter().zip(&many) {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.tasks, b.tasks, "{}: task plan drifted", a.name);
                    assert_eq!(a.enumeration.stats, b.enumeration.stats);
                    assert_eq!(a.enumeration.cuts.len(), b.enumeration.cuts.len());
                }
                let total =
                    |o: &[BlockOutcome]| o.iter().map(|b| b.enumeration.cuts.len()).sum::<usize>();
                assert_eq!(total(&one), total(&many), "{threads} threads");
            }
        }
    }

    #[test]
    fn selection_is_attached_when_requested() {
        let blocks = small_corpus();
        let mut cfg = config(2);
        cfg.select = Some(SelectionConfig {
            max_instructions: 3,
            ports_in: 4,
            ports_out: 2,
        });
        let outcomes = run_batch_obs(&blocks, &cfg, None);
        assert!(outcomes.iter().all(|o| o.selection.is_some()));
        assert!(outcomes.iter().any(|o| !o
            .selection
            .as_ref()
            .expect("selection requested")
            .chosen
            .is_empty()));
        for outcome in &outcomes {
            let sel = outcome.selection.as_ref().expect("selection requested");
            assert!(sel.chosen.len() <= 3);
        }
    }

    #[test]
    fn budget_bounds_every_block() {
        let blocks = small_corpus();
        let mut cfg = config(3);
        cfg.budget = Some(10);
        for outcome in run_batch_obs(&blocks, &cfg, None) {
            assert!(outcome.enumeration.stats.search_nodes <= 10);
        }
        // Fanned out, the block budget is split across the tasks, so the block
        // total still cannot exceed the budget (plus per-task rounding).
        cfg.par_threshold = 1;
        cfg.budget = Some(32);
        for outcome in run_batch_obs(&blocks, &cfg, None) {
            assert!(
                outcome.enumeration.stats.search_nodes <= 32 + outcome.tasks,
                "{}: {} nodes over budget",
                outcome.name,
                outcome.enumeration.stats.search_nodes
            );
        }
    }

    #[test]
    fn empty_corpus_yields_no_outcomes() {
        assert!(run_batch_obs(&[], &config(4), None).is_empty());
    }
}
