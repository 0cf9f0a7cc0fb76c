//! Intra-block task-parallel enumeration: the Figure 3 search split at the
//! first-output level and run on scoped workers sharing one item list.
//!
//! The top level of the incremental algorithm's recursion is embarrassingly parallel:
//! the serial `PICK-OUTPUT` loop tries every candidate first output in order, and each
//! iteration fully unwinds the search state before the next begins (the push/pop
//! discipline restores the arena exactly). The *only* state that crosses first-output
//! subtrees is the de-duplication seen-set — and the seen-set never influences which
//! nodes the search visits, only whether a repeated candidate is re-counted (see
//! DESIGN.md §1.3 for the argument). A subtree rooted at one first output is therefore
//! an independent task, and a contiguous range of them is one task of the static
//! fan-out. [`plan`] decides a block's fan-out, for [`parallel_cuts`] and for the
//! `ise` CLI's batch runner alike.
//!
//! * **One shared list.** [`run_items`] runs a fixed list of items on scoped workers
//!   that claim the next unclaimed item, last first, so a skewed block's tasks are
//!   drained by whoever is free. Scheduling order never affects the output: tasks
//!   are pure functions and the merge takes them in [`TaskId`] order.
//! * **Merge by cuts.** [`merge_tasks`] concatenates the tasks' cut lists in
//!   [`TaskId`] order and drops every cut whose body an earlier task already
//!   emitted. A candidate's verdict depends on its body alone (fixed constraints,
//!   and the incremental engine always checks the I/O condition), so the first task
//!   to examine a valid body emitted it as a cut, at the position the serial run
//!   emits it.
//!
//! **Contract.** For unbudgeted runs, for **any** task and thread count, the merged
//! [`Enumeration`] equals the serial run in its cut list (order included), in
//! `valid_cuts`, `search_nodes`, `candidates_checked` and `dominator_runs`, and in
//! the six `pruned_*` counters. The rejection tallies count per task: a body
//! rejected in k tasks counts k times, so `rejected_forbidden`, `rejected_io`,
//! `rejected_disconnected` and `rejected_depth` can exceed the serial run's, and
//! `rejected_duplicate` falls short of it by the number of extra rejections
//! (structural ones, which have no tally, included; see [`EnumStats`]).
//! A search budget is split evenly over the tasks ([`plan`]); the result
//! is then still deterministic in the task count, just not equal to the serially
//! budgeted run, so batch drivers must derive the task count from the block and
//! flags alone, never from the machine.
//!
//! [`parallel_cuts`] bundles plan → run → merge behind one call; batch drivers
//! that mix several blocks' tasks in one list (the `ise` CLI) drive
//! [`plan`], [`run_task`] and [`merge_tasks`] directly through [`run_items`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ise_obs::MetricsRegistry;

use crate::config::{Constraints, PruningConfig};
use crate::context::EnumContext;
use crate::engine::{publish_block_counters, CutKeySet, EngineOptions, SearchState};
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
    /// Engine settings of the whole run; its `max_search_nodes` is split over the
    /// tasks ([`plan`]).
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
/// [`plan`]. Tasks cover contiguous root ranges in candidate order, so **id
/// order is exactly the serial traversal order** — sorting task outputs by id is all
/// the deterministic merge needs, no matter which worker ran what when.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

/// One schedulable unit of the decomposition: a contiguous range of first-output
/// roots. Produced by [`plan`]; pure data, freely sendable between workers.
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

/// How one block's search runs: whole, or as a static fan-out of first-output
/// tasks. Produced by [`plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FanOut {
    /// The tasks in [`TaskId`] order, covering the candidate list in contiguous,
    /// non-empty ranges; empty when the block runs whole.
    pub tasks: Vec<TaskSpec>,
    /// The engine options of each task, or of the whole run.
    pub options: EngineOptions,
}

/// Decides how a block with `candidate_count` first-output candidates runs when
/// `tasks` tasks are asked for under the block's `options`. The one fan-out
/// planner, behind [`parallel_cuts`] and the `ise` CLI's batch runner alike:
///
/// * the task count is clamped to the number of candidates (at least one);
/// * a single task runs whole: no tasks, and the block's own options;
/// * otherwise the candidates split into that many contiguous ranges, differing in
///   length by at most one, and the block's search budget splits evenly over the
///   tasks (rounded up, at least one node each), so a fanned-out block costs about
///   what its whole-block sweep would and the split depends on the task count alone.
///
/// # Example
///
/// ```
/// use ise_enum::par::plan;
/// use ise_enum::EngineOptions;
///
/// let block = EngineOptions { max_search_nodes: Some(100) };
/// let fan_out = plan(10, 16, &block);
/// assert_eq!(fan_out.tasks.len(), 10);
/// assert_eq!(fan_out.options.max_search_nodes, Some(10));
/// // Never more tasks than candidates, and one task runs whole.
/// assert_eq!(plan(2, 16, &block).tasks.len(), 2);
/// assert!(plan(1, 16, &block).tasks.is_empty());
/// assert_eq!(plan(1, 16, &block).options, block);
/// ```
pub fn plan(candidate_count: usize, tasks: usize, options: &EngineOptions) -> FanOut {
    let tasks = tasks.clamp(1, candidate_count.max(1));
    if tasks == 1 {
        return FanOut {
            tasks: Vec::new(),
            options: *options,
        };
    }
    // With at most as many tasks as candidates every range is non-empty.
    FanOut {
        tasks: (0..tasks)
            .map(|i| TaskSpec {
                id: TaskId(i as u32),
                roots: (i * candidate_count / tasks)..((i + 1) * candidate_count / tasks),
            })
            .collect(),
        options: EngineOptions {
            max_search_nodes: options
                .max_search_nodes
                .map(|budget| budget.div_ceil(tasks).max(1)),
        },
    }
}

/// Runs one task of the decomposition: the serial engine over the subtrees rooted at
/// `ctx.candidate_outputs()[spec.roots]`.
///
/// Pure function of its arguments — workers can run tasks in any order on any thread.
/// Feed the enumerations of a completed decomposition, sorted by [`TaskId`], to
/// [`merge_tasks`].
///
/// An optional [`MetricsRegistry`] receives the task's lifecycle: a per-task span
/// (named after the [`TaskId`], so Chrome-trace timelines nest tasks under their
/// worker threads), the engine's per-phase timings, and the task counter and node
/// histogram.
/// Recording never changes the task's output.
pub fn run_task(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    options: &EngineOptions,
    spec: &TaskSpec,
    rec: Option<&MetricsRegistry>,
) -> Enumeration {
    let _span = rec.map(|rec| rec.span_begin("task", &format!("task {}", spec.id.0)));
    let mut enumerator = IncrementalEnumerator::with_root_range(ctx, pruning, spec.roots.clone());
    let mut state = SearchState::new(ctx, constraints, options);
    if let Some(rec) = rec {
        state.set_recorder(rec);
    }
    enumerator.search(&mut state);
    let enumeration = state.finish();
    if let Some(rec) = rec {
        rec.add("ise_pool_tasks_total", 1);
        rec.observe("ise_pool_task_nodes", enumeration.stats.search_nodes as u64);
    }
    enumeration
}

/// Runs `work` on every item of `items` on up to `threads` scoped workers and returns
/// the results in item order; `std`-only.
///
/// The workers share one cursor over the list and each claims the next unclaimed
/// item, **last item first**, until none is left. No worker is spawned for an empty
/// list, and never more workers than items. The schedule never sequences results:
/// whichever worker ran an item, its result lands at the item's index.
///
/// With a [`MetricsRegistry`], worker threads are named `worker-N` and
/// `ise_pool_seeded_total` counts the items. Recording never affects scheduling.
///
/// # Example
///
/// ```
/// let squares = ise_enum::par::run_items(&[1, 2, 3], 2, None, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn run_items<T, R, F>(
    items: &[T],
    threads: usize,
    rec: Option<&MetricsRegistry>,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if let Some(rec) = rec {
        rec.add("ise_pool_seeded_total", items.len() as u64);
    }
    let claimed = AtomicUsize::new(0);
    let workers = threads.max(1).min(items.len());
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (claimed, work) = (&claimed, &work);
                scope.spawn(move || {
                    if let Some(rec) = rec {
                        rec.set_thread_name(&format!("worker-{worker}"));
                    }
                    let mut done = Vec::new();
                    loop {
                        let nth = claimed.fetch_add(1, Ordering::Relaxed);
                        let Some(index) = items.len().checked_sub(nth + 1) else {
                            break done;
                        };
                        done.push((index, work(&items[index])));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, result) in done {
                results[index] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("every item ran"))
        .collect()
}

/// Merges the enumerations of a completed decomposition, in [`TaskId`] order, into
/// one [`Enumeration`].
///
/// The cut lists are concatenated in task order, keeping each cut only if no earlier
/// task already emitted its body; the statistics are summed. For unbudgeted runs the
/// cut list (order included), `valid_cuts`, `search_nodes`, `candidates_checked`,
/// `dominator_runs` and the six `pruned_*` counters equal the serial run's, so every
/// rendered byte does. The rejection tallies count per task (see the module docs);
/// each dropped cut adds one to `rejected_duplicate`.
///
/// With a [`MetricsRegistry`] the merge runs under a `merge` span, its time lands in
/// the `ise_merge_shard_ns` histogram (one observation per merge), and the merged
/// block's `ise_engine_valid_cuts_total` and `ise_engine_duplicates_total` are
/// published. Recording never changes the merged result.
pub fn merge_tasks(
    ctx: &EnumContext,
    tasks: Vec<Enumeration>,
    rec: Option<&MetricsRegistry>,
) -> Enumeration {
    let _span = rec.map(|rec| rec.span_begin("merge", "merge_tasks"));
    let start = rec.map(|_| Instant::now());
    let mut stats = EnumStats::new();
    let mut seen = CutKeySet::new(ctx.rooted().num_nodes().div_ceil(64));
    let mut cuts = Vec::new();
    for task in tasks {
        stats += task.stats;
        for cut in task.cuts {
            if seen.insert(cut.body().words()) {
                cuts.push(cut);
            } else {
                stats.rejected_duplicate += 1;
            }
        }
    }
    stats.valid_cuts = cuts.len();
    if let (Some(rec), Some(start)) = (rec, start) {
        rec.observe("ise_merge_shard_ns", start.elapsed().as_nanos() as u64);
        publish_block_counters(rec, &stats);
    }
    Enumeration { cuts, stats }
}

/// A [`parallel_cuts`] run: the merged enumeration plus per-task diagnostics.
pub struct ParRun {
    /// The merged result — equal to the serial run in cuts and rendered counters
    /// when unbudgeted (see [`merge_tasks`]).
    pub enumeration: Enumeration,
    /// Per-task `search_nodes`, in deterministic merge ([`TaskId`]) order. Its length
    /// is the task count; the max/mean ratio of the values is the load-skew measure
    /// the E7 bench reports.
    pub task_nodes: Vec<usize>,
}

/// Splits the search into [`ParConfig::tasks`] first-output tasks, runs them on
/// [`ParConfig::threads`] workers through [`run_items`], and merges. For unbudgeted runs the
/// result equals [`crate::incremental_cuts`] in everything [`merge_tasks`] promises
/// (the cut list and every counter except the per-task rejection tallies); neither
/// thread count nor scheduling order ever changes it.
///
/// With a [`MetricsRegistry`], worker threads are named in trace output, every task
/// runs under its own span ([`run_task`]), the seeded tasks are counted, and the
/// merge is timed. Recording never changes the result — the
/// obs-identity integration test pins byte equality against recording-off runs.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::par::{parallel_cuts, ParConfig};
/// use ise_enum::{incremental_cuts, Constraints, Cut, EngineOptions, EnumContext, PruningConfig};
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
/// // The serial cut list, in order, and the serial search counters.
/// assert!(par.enumeration.cuts.iter().map(Cut::key).eq(serial.cuts.iter().map(Cut::key)));
/// assert_eq!(par.enumeration.stats.valid_cuts, serial.stats.valid_cuts);
/// assert_eq!(par.enumeration.stats.search_nodes, serial.stats.search_nodes);
/// # Ok(())
/// # }
/// ```
pub fn parallel_cuts(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    config: &ParConfig,
    rec: Option<&MetricsRegistry>,
) -> ParRun {
    let fan_out = plan(ctx.candidate_outputs().len(), config.tasks, &config.options);
    if fan_out.tasks.is_empty() {
        // A block that runs whole is exactly the serial run; skip the scheduler and
        // the merge.
        let enumeration =
            crate::incremental::incremental_cuts(ctx, constraints, pruning, &fan_out.options, rec);
        let nodes = enumeration.stats.search_nodes;
        return ParRun {
            enumeration,
            task_nodes: vec![nodes],
        };
    }
    // Tasks come in TaskId order, and `run_items` returns results in item order.
    let outputs = run_items(&fan_out.tasks, config.threads, rec, |spec| {
        run_task(ctx, constraints, pruning, &fan_out.options, spec, rec)
    });
    let task_nodes = outputs.iter().map(|out| out.stats.search_nodes).collect();
    ParRun {
        enumeration: merge_tasks(ctx, outputs, rec),
        task_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{Cut, CutKey};
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

    fn keys(e: &Enumeration) -> Vec<CutKey<'_>> {
        e.cuts.iter().map(Cut::key).collect()
    }

    /// Fan-out against fan-out: cuts and every counter agree.
    fn assert_identical(par: &Enumeration, other: &Enumeration, label: &str) {
        assert_eq!(par.stats, other.stats, "{label}: stats diverge");
        assert_eq!(keys(par), keys(other), "{label}: cut order diverges");
    }

    /// Fan-out against the serial run: the [`merge_tasks`] contract — cut keys in
    /// order plus the ten counters that do not depend on where a repeat was met.
    fn assert_matches_serial(par: &Enumeration, serial: &Enumeration, label: &str) {
        assert_eq!(keys(par), keys(serial), "{label}: cut order diverges");
        let invariant = |s: &EnumStats| {
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
        };
        assert_eq!(
            invariant(&par.stats),
            invariant(&serial.stats),
            "{label}: stats diverge"
        );
    }

    #[test]
    fn plan_partitions_the_candidates() {
        let block = EngineOptions {
            max_search_nodes: Some(100),
        };
        for (n, tasks) in [(10, 3), (7, 7), (3, 5), (0, 2), (11, 1), (1, 16), (40, 16)] {
            let fan_out = plan(n, tasks, &block);
            let count = tasks.clamp(1, n.max(1));
            if count == 1 {
                assert!(fan_out.tasks.is_empty(), "({n}, {tasks}) runs whole");
                assert_eq!(fan_out.options, block, "({n}, {tasks}) keeps the budget");
                continue;
            }
            assert_eq!(fan_out.tasks.len(), count, "({n}, {tasks})");
            let budget = fan_out.options.max_search_nodes.unwrap();
            assert!(budget * count >= 100 && budget * count < 100 + count);
            let mut next = 0;
            for (i, task) in fan_out.tasks.iter().enumerate() {
                assert_eq!(task.id, TaskId(i as u32));
                assert!(!task.roots.is_empty(), "({n}, {tasks}): no empty ranges");
                assert!(task.roots.len() <= n / count + 1);
                assert_eq!(task.roots.start, next);
                next = task.roots.end;
            }
            assert_eq!(next, n, "ranges must cover 0..{n}");
        }
        assert_eq!(
            plan(3, 5, &block)
                .tasks
                .iter()
                .map(|t| t.roots.clone())
                .collect::<Vec<_>>(),
            vec![0..1, 1..2, 2..3]
        );
        let unbudgeted = plan(10, 4, &EngineOptions::default());
        assert_eq!(unbudgeted.options.max_search_nodes, None);
    }

    #[test]
    fn run_items_runs_every_item_once_and_one_worker_claims_last_first() {
        for items in [0usize, 1, 5, 10] {
            for threads in [1, 2, 8] {
                let registry = ise_obs::MetricsRegistry::new();
                let list: Vec<usize> = (0..items).collect();
                let ran = std::sync::Mutex::new(Vec::new());
                let results = run_items(&list, threads, Some(&registry), |&item| {
                    ran.lock().unwrap().push(item);
                    item * 10
                });
                let label = format!("items={items} threads={threads}");
                assert_eq!(results, list.iter().map(|i| i * 10).collect::<Vec<_>>());
                let mut ran = ran.into_inner().unwrap();
                if threads == 1 {
                    let last_first: Vec<usize> = list.iter().rev().copied().collect();
                    assert_eq!(ran, last_first, "{label}: one worker claims last-first");
                }
                ran.sort_unstable();
                assert_eq!(ran, list, "{label}: every item runs exactly once");
                assert_eq!(
                    registry.counter_value("ise_pool_seeded_total"),
                    items as u64,
                    "{label}"
                );
            }
        }
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
                assert_matches_serial(&run.enumeration, &serial, &label);
            }
        }
    }

    /// A cut two tasks find is kept once, where the earlier task found it, and the
    /// per-task rejection tallies never fall below the serial run's.
    #[test]
    fn cross_task_cuts_are_kept_once_at_the_earlier_task() {
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let pruning = PruningConfig::all();
        let options = EngineOptions::default();
        let count = ctx.candidate_outputs().len();
        let specs = plan(count, count, &options).tasks;
        assert!(specs.len() >= 2);
        let tasks: Vec<Enumeration> = specs
            .iter()
            .map(|spec| run_task(&ctx, &constraints, &pruning, &options, spec, None))
            .collect();
        // The first task that emitted each body, and how many tasks did.
        let mut owner = std::collections::HashMap::new();
        let mut finders = std::collections::HashMap::<CutKey<'_>, usize>::new();
        for (t, task) in tasks.iter().enumerate() {
            for key in keys(task) {
                owner.entry(key).or_insert(t);
                *finders.entry(key).or_default() += 1;
            }
        }
        let shared: Vec<_> = finders.iter().filter(|(_, &n)| n > 1).collect();
        assert!(
            !shared.is_empty(),
            "the fixture must share a cut across tasks"
        );

        let merged = merge_tasks(&ctx, tasks.clone(), None);
        let merged_keys = keys(&merged);
        for (key, _) in &shared {
            let hits = merged_keys.iter().filter(|k| k == key).count();
            assert_eq!(hits, 1, "a shared cut is kept once");
        }
        // Merged cuts come grouped by owning task in task order, and each task's
        // group keeps that task's own order: every cut sits at its earliest
        // finder's position.
        let owners: Vec<usize> = merged_keys.iter().map(|k| owner[k]).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        for (t, task) in tasks.iter().enumerate() {
            let owned: Vec<_> = keys(task).into_iter().filter(|k| owner[k] == t).collect();
            let placed: Vec<_> = merged_keys
                .iter()
                .filter(|k| owner[*k] == t)
                .copied()
                .collect();
            assert_eq!(placed, owned, "task {t}'s cuts keep their order");
        }
        assert_eq!(merged.stats.valid_cuts, merged.cuts.len());

        let serial = serial(&ctx, &constraints, &options);
        assert_matches_serial(&merged, &serial, "one task per candidate");
        let (m, s) = (&merged.stats, &serial.stats);
        assert!(m.rejected_forbidden >= s.rejected_forbidden);
        assert!(m.rejected_io >= s.rejected_io);
        assert!(m.rejected_disconnected >= s.rejected_disconnected);
        assert!(m.rejected_depth >= s.rejected_depth);
        assert!(m.rejected_duplicate <= s.rejected_duplicate);
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
        let outputs: Vec<Enumeration> = plan(ctx.candidate_outputs().len(), 3, &options)
            .tasks
            .iter()
            .map(|spec| run_task(&ctx, &constraints, &pruning, &options, spec, None))
            .collect();
        assert!(outputs.iter().all(|o| o.stats.search_nodes > 0));
        let merged = merge_tasks(&ctx, outputs, None);
        assert_identical(&merged, &bundled, "manual stages");
    }

    /// The budget covers the whole fanned-out run, as it covers a serial one.
    #[test]
    fn a_budget_bounds_the_search_nodes_of_all_tasks_together() {
        let mut b = DfgBuilder::new("mesh");
        let mut values = vec![b.input("a"), b.input("c")];
        for i in 0..12 {
            let (p, q) = (values[i], values[i + 1]);
            values.push(b.node(Operation::Add, &[p, q]));
        }
        let ctx = EnumContext::new(b.build().unwrap());
        let constraints = Constraints::new(3, 2).unwrap();
        let tasks = 4;
        let budget = 40;
        let unbudgeted = par(&ctx, &constraints, &ParConfig::new(tasks, 1));
        assert_eq!(unbudgeted.task_nodes.len(), tasks);
        assert!(
            unbudgeted.task_nodes.iter().all(|&n| n > budget),
            "every task must be able to spend the whole budget"
        );
        let mut config = ParConfig::new(tasks, 1);
        config.options.max_search_nodes = Some(budget);
        let budgeted = par(&ctx, &constraints, &config);
        let spent: usize = budgeted.task_nodes.iter().sum();
        assert!(
            spent <= budget + tasks,
            "{spent} search nodes for a budget of {budget}"
        );
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
