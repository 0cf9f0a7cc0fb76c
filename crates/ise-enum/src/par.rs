//! Intra-block task-parallel enumeration: the Figure 3 search split at the
//! first-output level and run on a work-stealing scheduler.
//!
//! The top level of the incremental algorithm's recursion is embarrassingly parallel:
//! the serial `PICK-OUTPUT` loop tries every candidate first output in order, and each
//! iteration fully unwinds the search state before the next begins (the push/pop
//! discipline restores the arena exactly). The *only* state that crosses first-output
//! subtrees is the de-duplication seen-set — and the seen-set never influences which
//! nodes the search visits, only whether a repeated candidate is re-counted (see
//! DESIGN.md §1.3 for the argument). A subtree rooted at one first output is therefore
//! an independent task, and a contiguous range of them is one task of the static
//! fan-out ([`initial_tasks`]).
//!
//! * **Work stealing.** [`WorkStealPool`] gives each worker its own deque: workers
//!   pop their newest item and idle workers steal the oldest item from a peer, so a
//!   skewed block's tasks are drained by whoever is free. Scheduling order never
//!   affects the output: tasks are pure functions and the merge sorts by [`TaskId`].
//! * **Ordered merge.** [`merge_tasks`] walks each task's first-seen log, in
//!   [`TaskId`] order, against one global seen-set: the serial run's discovery
//!   order, so every first-seen/duplicate verdict (and thus every output byte) is
//!   the serial run's.
//!
//! The merged [`Enumeration`] — cuts *and* statistics — is byte-identical to the
//! serial run for unbudgeted runs, for **any** task and thread count. With a per-task
//! search budget the result is still deterministic in the task count, just not equal
//! to the serially budgeted run; batch drivers must therefore derive the task count
//! from the block and flags alone, never from the machine.
//!
//! [`parallel_cuts`] bundles fan-out → run/steal → merge behind one call; batch
//! drivers with their own scheduler (the `ise` CLI) drive [`initial_tasks`],
//! [`run_task`] and [`merge_tasks`] directly over a shared [`WorkStealPool`].

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use ise_obs::{Counter, Recorder};

use crate::config::{Constraints, PruningConfig};
use crate::context::EnumContext;
use crate::engine::{CandidateClass, CutKeySet, EngineOptions, SearchState, TaskHarvest};
use crate::incremental::IncrementalEnumerator;
use crate::result::Enumeration;
use crate::stats::EnumStats;

/// Configuration of one [`parallel_cuts`] run.
#[derive(Clone, Debug, Default)]
pub struct ParConfig {
    /// Number of first-output tasks to split the search into up front (clamped to the
    /// number of candidate outputs; `0` or `1` means one task). The merged result is
    /// independent of this for unbudgeted runs; with a budget it is deterministic in
    /// the task count, so derive it from the block, not from the machine.
    pub tasks: usize,
    /// Worker threads executing the tasks. Never affects the result, only the wall
    /// time.
    pub threads: usize,
    /// Engine settings shared by every task; `max_search_nodes` applies per task.
    pub options: EngineOptions,
}

impl ParConfig {
    /// A default-options configuration with the given task and thread counts.
    pub fn new(tasks: usize, threads: usize) -> Self {
        ParConfig {
            tasks,
            threads,
            options: EngineOptions::default(),
        }
    }
}

/// Deterministic identity of one task: its index in the static fan-out of
/// [`initial_tasks`]. Tasks cover contiguous root ranges in candidate order, so **id
/// order is exactly the serial traversal order** — sorting task outputs by id is all
/// the deterministic merge needs, no matter which worker ran what when.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

/// One schedulable unit of the decomposition: a contiguous range of first-output
/// roots. Produced by [`initial_tasks`]; pure data, freely sendable between workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    id: TaskId,
    roots: Range<usize>,
}

impl TaskSpec {
    /// The task's deterministic identity (the merge sort key).
    pub fn id(&self) -> TaskId {
        self.id
    }
}

/// What one task produced; feed the outputs of a completed decomposition, sorted by
/// [`TaskId`], to [`merge_tasks`]. Opaque: the classification log inside is
/// an implementation detail of the merge.
pub struct TaskOutput {
    harvest: TaskHarvest,
}

impl TaskOutput {
    /// The task's local statistics (diagnostics only — the merge recomputes the
    /// de-duplication-dependent counters globally).
    pub fn stats(&self) -> &EnumStats {
        &self.harvest.stats
    }
}

/// Splits `candidate_count` first-output candidates into at most `tasks` contiguous
/// ranges covering `0..candidate_count` in order (the partition the merge expects).
/// Ranges differ in length by at most one, and every returned range is **non-empty**:
/// with more tasks than candidates the excess ranges are skipped rather than turned
/// into degenerate scheduled tasks, so the returned vector may be shorter than
/// `tasks` (and empty when `candidate_count` is zero).
///
/// # Example
///
/// ```
/// let ranges = ise_enum::par::task_ranges(10, 4);
/// assert_eq!(ranges, vec![0..2, 2..5, 5..7, 7..10]);
/// assert_eq!(ise_enum::par::task_ranges(2, 4), vec![0..1, 1..2]);
/// ```
pub fn task_ranges(candidate_count: usize, tasks: usize) -> Vec<Range<usize>> {
    let tasks = tasks.max(1);
    (0..tasks)
        .map(|i| (i * candidate_count / tasks)..((i + 1) * candidate_count / tasks))
        .filter(|range| !range.is_empty())
        .collect()
}

/// The task specs of a decomposition into `tasks` contiguous root ranges: one spec
/// per non-empty range of [`task_ranges`], with ids `0`, `1`, … in range order.
pub fn initial_tasks(candidate_count: usize, tasks: usize) -> Vec<TaskSpec> {
    task_ranges(candidate_count, tasks)
        .into_iter()
        .enumerate()
        .map(|(i, roots)| TaskSpec {
            id: TaskId(i as u32),
            roots,
        })
        .collect()
}

/// Runs one task of the decomposition: the serial engine over the subtrees rooted at
/// `ctx.candidate_outputs()[spec.roots]`.
///
/// Pure function of its arguments — workers can run tasks in any order on any thread.
///
/// An optional [`Recorder`] receives the task's lifecycle: a per-task span (named
/// after the [`TaskId`], so Chrome-trace timelines nest tasks under their worker
/// threads), the engine's per-phase timings, and the task counter and node histogram.
/// Recording never changes the task's output.
pub fn run_task(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    options: &EngineOptions,
    spec: &TaskSpec,
    rec: Option<&dyn Recorder>,
) -> TaskOutput {
    let span = match rec {
        Some(rec) if rec.enabled() => rec.span_begin("task", &format!("task {}", spec.id.0)),
        _ => ise_obs::SpanToken::NONE,
    };
    let mut enumerator = IncrementalEnumerator::with_root_range(ctx, pruning, spec.roots.clone());
    let mut state = SearchState::new(ctx, constraints, options);
    if let Some(rec) = rec {
        state.set_recorder(rec);
    }
    state.enable_class_log();
    crate::engine::Enumerator::search(&mut enumerator, &mut state);
    let output = TaskOutput {
        harvest: state.finish_task(),
    };
    if let Some(rec) = rec {
        rec.add("ise_pool_tasks_total", 1);
        rec.observe(
            "ise_pool_task_nodes",
            output.harvest.stats.search_nodes as u64,
        );
        rec.span_end(span);
    }
    output
}

/// A work-stealing scheduler over per-worker deques; `std`-only.
///
/// Each worker owns one deque. [`pop`](Self::pop) serves the worker's own newest item
/// first (LIFO) and, when the own deque is empty, steals the *oldest* item from a
/// peer (FIFO — the oldest items are the coarsest, so a steal moves the most work per
/// lock acquisition). The item set is fixed once [`seed`](Self::seed)ed, so `pop`
/// returns `None` as soon as every deque is empty.
///
/// The pool schedules; it never sequences results. Users tag items with their own
/// deterministic order (the enumeration tasks carry a [`TaskId`]) and sort after the
/// pool drains.
pub struct WorkStealPool<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    obs: PoolCounters,
}

/// Counter handles for the pool's scheduling events. All handles are disabled
/// (single null-check per event) until [`WorkStealPool::set_recorder`] arms them.
#[derive(Default)]
struct PoolCounters {
    /// Items seeded into the pool.
    seeded: Counter,
    /// Items a worker popped from its own deque.
    own_pops: Counter,
    /// Items a worker stole from a peer's deque.
    steals: Counter,
}

impl<T> WorkStealPool<T> {
    /// A pool with one deque per worker.
    pub fn new(workers: usize) -> Self {
        WorkStealPool {
            queues: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            obs: PoolCounters::default(),
        }
    }

    /// Arms the scheduling counters (`ise_pool_seeded_total`,
    /// `ise_pool_own_pops_total`, `ise_pool_steals_total`). The ledger
    /// `own_pops + steals == seeded` holds whenever the pool has drained. Recording
    /// never affects scheduling.
    pub fn set_recorder(&mut self, rec: &dyn Recorder) {
        self.obs = PoolCounters {
            seeded: rec.counter("ise_pool_seeded_total"),
            own_pops: rec.counter("ise_pool_own_pops_total"),
            steals: rec.counter("ise_pool_steals_total"),
        };
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Distributes the items round-robin across the worker deques. Seed before any
    /// worker pops: a worker that finds every deque empty stops.
    pub fn seed<I: IntoIterator<Item = T>>(&self, items: I) {
        for (i, item) in items.into_iter().enumerate() {
            self.obs.seeded.incr();
            let queue = &self.queues[i % self.queues.len()];
            queue.lock().expect("pool lock poisoned").push_back(item);
        }
    }

    /// Next item for `worker`: its own deque first (newest), then stealing the oldest
    /// item from a peer; `None` once every deque is empty.
    pub fn pop(&self, worker: usize) -> Option<T> {
        if let Some(item) = self.queues[worker]
            .lock()
            .expect("pool lock poisoned")
            .pop_back()
        {
            self.obs.own_pops.incr();
            return Some(item);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = &self.queues[(worker + offset) % n];
            if let Some(item) = victim.lock().expect("pool lock poisoned").pop_front() {
                self.obs.steals.incr();
                return Some(item);
            }
        }
        None
    }
}

/// Merges the outputs of a completed decomposition (sorted by [`TaskId`], which
/// [`parallel_cuts`] and the CLI scheduler do after draining the pool) into one
/// [`Enumeration`] by one ordered replay.
///
/// The merge walks each task's first-seen candidates, in task order, against one
/// global seen-set: a candidate an earlier task already claimed is re-counted as a
/// duplicate exactly as the serial seen-set would have counted it at that point of
/// its discovery order, and everything else replays its recorded classification.
/// The verdicts — and the output bytes, cut list order included — are therefore
/// the serial run's; for unbudgeted runs the result is byte-identical to the serial
/// enumeration.
///
/// With a [`Recorder`] the merge runs under a `merge` span and the replay's time
/// lands in the `ise_merge_shard_ns` histogram (one observation per merge).
/// Recording never changes the merged result.
pub fn merge_tasks(
    ctx: &EnumContext,
    outputs: Vec<TaskOutput>,
    rec: Option<&dyn Recorder>,
) -> Enumeration {
    let span = match rec {
        Some(rec) => rec.span_begin("merge", "merge_tasks"),
        None => ise_obs::SpanToken::NONE,
    };
    let merged = merge_tasks_inner(ctx, outputs, rec);
    if let Some(rec) = rec {
        rec.span_end(span);
    }
    merged
}

fn merge_tasks_inner(
    ctx: &EnumContext,
    outputs: Vec<TaskOutput>,
    rec: Option<&dyn Recorder>,
) -> Enumeration {
    let mut stats = EnumStats::new();
    // Counters independent of de-duplication are plain sums: the tasks partition the
    // serial traversal, and nothing below the top level reads the seen-set.
    for out in &outputs {
        let s = out.harvest.stats;
        stats.candidates_checked += s.candidates_checked;
        stats.rejected_duplicate += s.rejected_duplicate;
        stats.dominator_runs += s.dominator_runs;
        stats.pruned_output_output += s.pruned_output_output;
        stats.pruned_output_input += s.pruned_output_input;
        stats.pruned_input_input += s.pruned_input_input;
        stats.pruned_dominator_input += s.pruned_dominator_input;
        stats.pruned_connectedness += s.pruned_connectedness;
        stats.pruned_build_s += s.pruned_build_s;
        stats.search_nodes += s.search_nodes;
    }

    // Replay every task's first-seen log in task order: keys an earlier task already
    // claimed become duplicates, exactly as the serial run would have counted them.
    let start = rec.map(|_| Instant::now());
    let mut seen = CutKeySet::new(ctx.rooted().num_nodes().div_ceil(64));
    let mut cuts = Vec::new();
    for out in outputs {
        let harvest = out.harvest;
        debug_assert_eq!(harvest.seen.len(), harvest.classes.len());
        let mut task_cuts = harvest.cuts.into_iter();
        for (idx, &class) in harvest.classes.iter().enumerate() {
            let cut = (class == CandidateClass::VALID)
                .then(|| task_cuts.next().expect("one cut per VALID entry"));
            if seen.insert(harvest.seen.key(idx)) {
                CandidateClass::replay(class, &mut stats);
                cuts.extend(cut);
            } else {
                stats.rejected_duplicate += 1;
            }
        }
        debug_assert!(task_cuts.next().is_none(), "unconsumed task cuts");
    }
    if let (Some(rec), Some(start)) = (rec, start) {
        rec.observe("ise_merge_shard_ns", start.elapsed().as_nanos() as u64);
    }
    Enumeration { cuts, stats }
}

/// A [`parallel_cuts`] run: the merged enumeration plus per-task diagnostics.
pub struct ParRun {
    /// The merged result — byte-identical to the serial run when unbudgeted.
    pub enumeration: Enumeration,
    /// Per-task `search_nodes`, in deterministic merge ([`TaskId`]) order. Its length
    /// is the task count; the max/mean ratio of the values is the load-skew measure
    /// the E7 bench reports.
    pub task_nodes: Vec<usize>,
}

/// Splits the search into [`ParConfig::tasks`] first-output tasks, runs them on
/// [`ParConfig::threads`] work-stealing workers, and merges. For unbudgeted runs the
/// result equals [`crate::incremental_cuts`] exactly (cuts and statistics); neither
/// thread count nor scheduling order ever changes it.
///
/// With a [`Recorder`], worker threads are named in trace output, every task runs
/// under its own span ([`run_task`]), the pool's scheduling counters are armed, and
/// the merge is timed. Recording never changes the result — the
/// obs-identity integration test pins byte equality against recording-off runs.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::par::{parallel_cuts, ParConfig};
/// use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let x = b.node(Operation::Shl, &[n]);
/// let _y = b.node(Operation::Sub, &[n, c]);
/// let ctx = EnumContext::new(b.build()?);
/// let constraints = Constraints::new(3, 2)?;
/// let pruning = PruningConfig::all();
///
/// let serial = incremental_cuts(&ctx, &constraints, &pruning, &EngineOptions::default(), None);
/// let par = parallel_cuts(&ctx, &constraints, &pruning, &ParConfig::new(2, 2), None);
/// assert_eq!(par.enumeration.stats, serial.stats);
/// # Ok(())
/// # }
/// ```
pub fn parallel_cuts(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    config: &ParConfig,
    rec: Option<&dyn Recorder>,
) -> ParRun {
    let candidates = ctx.candidate_outputs().len();
    let tasks = config.tasks.clamp(1, candidates.max(1));
    let specs = initial_tasks(candidates, tasks);
    if specs.len() <= 1 {
        // Degenerate decompositions (no candidates, or a single task) are exactly the
        // serial run; skip the scheduler and the merge replay.
        let enumeration =
            crate::incremental::incremental_cuts(ctx, constraints, pruning, &config.options, rec);
        let nodes = enumeration.stats.search_nodes;
        return ParRun {
            enumeration,
            task_nodes: vec![nodes],
        };
    }
    let workers = config.threads.clamp(1, specs.len());
    let mut pool = WorkStealPool::new(workers);
    if let Some(rec) = rec {
        pool.set_recorder(rec);
    }
    pool.seed(specs);
    let results: Mutex<Vec<(TaskId, TaskOutput)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let pool = &pool;
            let results = &results;
            scope.spawn(move || {
                if let Some(rec) = rec {
                    rec.set_thread_name(&format!("worker-{worker}"));
                }
                while let Some(spec) = pool.pop(worker) {
                    let output = run_task(ctx, constraints, pruning, &config.options, &spec, rec);
                    results
                        .lock()
                        .expect("result lock poisoned")
                        .push((spec.id, output));
                }
            });
        }
    });
    let mut outputs = results.into_inner().expect("result lock poisoned");
    outputs.sort_by_key(|(id, _)| *id);
    let task_nodes = outputs
        .iter()
        .map(|(_, out)| out.stats().search_nodes)
        .collect();
    let outputs: Vec<TaskOutput> = outputs.into_iter().map(|(_, out)| out).collect();
    ParRun {
        enumeration: merge_tasks(ctx, outputs, rec),
        task_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::Cut;
    use crate::incremental::incremental_cuts;
    use ise_graph::DfgBuilder;
    use ise_graph::Operation;

    /// A block whose cuts are discoverable from several first outputs, so the merge
    /// must de-duplicate across tasks (multi-output cuts are found from either
    /// output's subtree).
    fn cross_task_ctx() -> EnumContext {
        let mut b = DfgBuilder::new("cross");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Mul, &[n, c]);
        let y = b.node(Operation::Sub, &[n, a]);
        let z = b.node(Operation::Xor, &[x, y]);
        b.mark_output(x);
        b.mark_output(y);
        b.mark_output(z);
        EnumContext::new(b.build().unwrap())
    }

    fn serial(
        ctx: &EnumContext,
        constraints: &Constraints,
        options: &EngineOptions,
    ) -> Enumeration {
        incremental_cuts(ctx, constraints, &PruningConfig::all(), options, None)
    }

    fn par(ctx: &EnumContext, constraints: &Constraints, config: &ParConfig) -> ParRun {
        parallel_cuts(ctx, constraints, &PruningConfig::all(), config, None)
    }

    fn assert_identical(par: &Enumeration, serial: &Enumeration, label: &str) {
        assert_eq!(par.stats, serial.stats, "{label}: stats diverge");
        let par_keys: Vec<_> = par.cuts.iter().map(Cut::key).collect();
        let serial_keys: Vec<_> = serial.cuts.iter().map(Cut::key).collect();
        assert_eq!(par_keys, serial_keys, "{label}: cut order diverges");
    }

    #[test]
    fn task_ranges_partition_the_candidates() {
        for (n, tasks) in [(10, 3), (7, 7), (3, 5), (0, 2), (11, 1)] {
            let ranges = task_ranges(n, tasks);
            assert!(
                ranges.len() <= tasks.max(1),
                "never more ranges than requested tasks"
            );
            let mut next = 0;
            for r in &ranges {
                assert!(!r.is_empty(), "({n}, {tasks}): no empty ranges");
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover 0..{n}");
        }
    }

    #[test]
    fn task_ranges_skip_degenerate_fanout() {
        // More tasks than candidates: one non-empty range per candidate, no empties.
        assert_eq!(task_ranges(3, 5), vec![0..1, 1..2, 2..3]);
        assert_eq!(task_ranges(0, 4), vec![]);
        assert_eq!(initial_tasks(2, 16).len(), 2);
    }

    #[test]
    fn work_steal_pool_drains_every_seeded_item_once() {
        let registry = ise_obs::MetricsRegistry::new();
        let mut pool: WorkStealPool<usize> = WorkStealPool::new(3);
        pool.set_recorder(&registry);
        pool.seed(0..10);
        let drained = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for worker in 0..pool.workers() {
                let pool = &pool;
                let drained = &drained;
                scope.spawn(move || {
                    while let Some(item) = pool.pop(worker) {
                        drained.lock().unwrap().push(item);
                    }
                });
            }
        });
        let mut seen = drained.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(pool.pop(0), None, "a drained pool stays empty");
        let popped = registry.counter_value("ise_pool_own_pops_total")
            + registry.counter_value("ise_pool_steals_total");
        assert_eq!(popped, registry.counter_value("ise_pool_seeded_total"));
        assert_eq!(popped, 10);
    }

    #[test]
    fn work_steal_pool_pops_own_newest_then_steals_oldest() {
        let pool: WorkStealPool<usize> = WorkStealPool::new(2);
        // Round-robin: worker 0 holds [0, 2, 4], worker 1 holds [1, 3].
        pool.seed(0..5);
        assert_eq!(pool.pop(1), Some(3));
        assert_eq!(pool.pop(1), Some(1));
        assert_eq!(
            pool.pop(1),
            Some(0),
            "an idle worker steals the oldest item"
        );
        assert_eq!(pool.pop(0), Some(4));
        assert_eq!(pool.pop(0), Some(2));
        assert_eq!(pool.pop(0), None);
    }

    #[test]
    fn merged_tasks_reproduce_the_serial_run_exactly() {
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let serial = serial(&ctx, &constraints, &EngineOptions::default());
        assert!(
            serial.stats.rejected_duplicate > 0,
            "the fixture must exercise cross-subtree duplicates"
        );
        for tasks in [2, 3, ctx.candidate_outputs().len()] {
            for threads in [1, 2, 4] {
                let run = par(&ctx, &constraints, &ParConfig::new(tasks, threads));
                let label = format!("tasks={tasks} threads={threads}");
                assert_identical(&run.enumeration, &serial, &label);
            }
        }
    }

    /// Drives fan-out → run → merge directly, as the CLI's scheduler does: the merge
    /// must equal the bundled entry point's.
    #[test]
    fn manual_stage_pipeline_matches_the_bundled_entry_point() {
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let pruning = PruningConfig::all();
        let options = EngineOptions::default();
        let bundled = par(&ctx, &constraints, &ParConfig::new(3, 1)).enumeration;
        let outputs: Vec<TaskOutput> = initial_tasks(ctx.candidate_outputs().len(), 3)
            .iter()
            .map(|spec| run_task(&ctx, &constraints, &pruning, &options, spec, None))
            .collect();
        assert!(outputs.iter().all(|o| o.stats().search_nodes > 0));
        let merged = merge_tasks(&ctx, outputs, None);
        assert_identical(&merged, &bundled, "manual stages");
    }

    #[test]
    fn budgeted_tasks_are_deterministic_in_the_task_count() {
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let mut reference: Option<Enumeration> = None;
        for threads in [1, 3] {
            let mut config = ParConfig::new(3, threads);
            config.options.max_search_nodes = Some(25);
            let run = par(&ctx, &constraints, &config).enumeration;
            match &reference {
                None => reference = Some(run),
                Some(first) => assert_identical(&run, first, "budgeted determinism"),
            }
        }
    }
}
