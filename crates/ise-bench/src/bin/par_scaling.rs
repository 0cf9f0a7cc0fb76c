//! E7 in DESIGN.md: intra-block task-parallel scaling on the worst committed corpus
//! block.
//!
//! The `scaling` binary (E3) showed where the single-core constant factors live; this
//! experiment measures what the `ise_enum::par` decomposition buys on top: the
//! hardest committed block is enumerated once serially (the baseline row) and then
//! task-parallel, over the static first-output fan-out, at every requested thread
//! count. Each parallel run's merged result is asserted identical to the serial run —
//! the cut list and every counter but the per-task rejection tallies
//! (`ise_enum::par::merge_tasks`) — before its wall time is recorded, so the artifact
//! can never report a speedup for a wrong answer. Every parallel row also records its
//! task count, the per-task `search_nodes` and the load skew (max/mean,
//! [`TaskLoadSummary`]). `host_cpus` is recorded alongside: the ≥2.5x-at-4-threads
//! scaling assertion only fires when the host actually has more than one CPU; on a
//! single-core host the thread rows measure scheduling overhead (speedup ≈ 1) and
//! the real numbers are recorded as-is.
//!
//! Options (key=value): `corpus` (default `corpus`), `block` (name substring,
//! default = the largest block), `nin`/`nout` (default 4/2), `budget` (for the
//! whole block, split evenly over the tasks in the fanned-out rows; default 0 =
//! unbounded; the identity assertion only runs unbudgeted), `tasks`
//! (default 16), `threads` (comma list, default `1,2,4`), `out`
//! (default `BENCH_par_scaling.json`, `-` disables).

use ise_bench::json::Json;
use ise_bench::{timed, Options};
use ise_corpus::load_corpus_path;
use ise_enum::par::{parallel_cuts, ParConfig, ParRun};
use ise_enum::{
    incremental_cuts, Constraints, Cut, EngineOptions, EnumContext, EnumStats, Enumeration,
    PruningConfig, TaskLoadSummary,
};

fn keys(result: &Enumeration) -> Vec<ise_enum::CutKey<'_>> {
    result.cuts.iter().map(Cut::key).collect()
}

/// The counters a fanned-out run shares with its serial run: all but the per-task
/// rejection tallies.
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

fn load_json(run: &ParRun) -> Json {
    let summary = TaskLoadSummary::from_task_nodes(&run.task_nodes);
    Json::object([
        ("tasks", Json::uint(summary.tasks)),
        ("max_nodes", Json::uint(summary.max_nodes)),
        ("mean_nodes", Json::num(summary.mean_nodes())),
        ("skew_ratio", Json::num(summary.skew_ratio())),
        (
            "task_search_nodes",
            Json::Array(run.task_nodes.iter().map(|&n| Json::uint(n)).collect()),
        ),
    ])
}

fn main() {
    let opts = Options::from_env();
    let corpus = opts.string("corpus", "corpus");
    let block_filter = opts.string("block", "");
    let nin = opts.usize("nin", 4);
    let nout = opts.usize("nout", 2);
    let budget = match opts.usize("budget", 0) {
        0 => None,
        b => Some(b),
    };
    let tasks = opts.usize("tasks", 16);
    let threads: Vec<usize> = opts
        .string("threads", "1,2,4")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    let out_path = opts.string("out", "BENCH_par_scaling.json");

    let blocks = load_corpus_path(&corpus).unwrap_or_else(|e| panic!("cannot load {corpus}: {e}"));
    let block = if block_filter.is_empty() {
        blocks
            .iter()
            .max_by_key(|b| b.dfg.len())
            .expect("corpus has at least one block")
    } else {
        blocks
            .iter()
            .find(|b| b.dfg.name().contains(&block_filter))
            .unwrap_or_else(|| panic!("no block matching `{block_filter}` in {corpus}"))
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "block {} ({} nodes, {} edges), Nin={nin} Nout={nout}, tasks={tasks}, \
         host_cpus={host_cpus}",
        block.dfg.name(),
        block.dfg.len(),
        block.dfg.edge_count(),
    );

    let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
    let pruning = PruningConfig::all();
    let options = EngineOptions {
        max_search_nodes: budget,
    };
    let ctx = EnumContext::new(block.dfg.clone());

    let (serial, serial_elapsed) =
        timed(|| incremental_cuts(&ctx, &constraints, &pruning, &options, None));
    let serial_seconds = serial_elapsed.as_secs_f64();
    println!("mode,tasks,threads,seconds,speedup,cuts,search_nodes,task_count,skew,identical");
    println!(
        "serial,1,1,{serial_seconds:.6},1.00,{},{},1,1.00,true",
        serial.stats.valid_cuts, serial.stats.search_nodes
    );
    let mut rows = vec![Json::object([
        ("mode", Json::str("serial")),
        ("tasks", Json::uint(1)),
        ("threads", Json::uint(1)),
        ("seconds", Json::num(serial_seconds)),
        ("speedup", Json::num(1.0)),
        ("cuts", Json::uint(serial.stats.valid_cuts)),
        ("search_nodes", Json::uint(serial.stats.search_nodes)),
        ("identical_to_serial", Json::Bool(true)),
    ])];

    let mut speedup_at: Vec<(usize, f64)> = Vec::new();
    for &t in &threads {
        let mut config = ParConfig::new(tasks, t);
        config.options = options;
        let (run, elapsed) = timed(|| parallel_cuts(&ctx, &constraints, &pruning, &config, None));
        let par = &run.enumeration;
        // The merged result must be byte-identical to the serial run; a budgeted run
        // truncates each task at its share, so only unbudgeted runs assert (and
        // record) identity.
        let identical = budget.is_none();
        if identical {
            assert_eq!(
                invariant_stats(&par.stats),
                invariant_stats(&serial.stats),
                "{t} threads: stats diverge"
            );
            assert_eq!(keys(par), keys(&serial), "{t} threads: cuts diverge");
        }
        let seconds = elapsed.as_secs_f64();
        let speedup = serial_seconds / seconds.max(f64::MIN_POSITIVE);
        speedup_at.push((t, speedup));
        let summary = TaskLoadSummary::from_task_nodes(&run.task_nodes);
        println!(
            "parallel,{tasks},{t},{seconds:.6},{speedup:.2},{},{},{},{:.2},{identical}",
            par.stats.valid_cuts,
            par.stats.search_nodes,
            summary.tasks,
            summary.skew_ratio(),
        );
        rows.push(Json::object([
            ("mode", Json::str("parallel")),
            ("tasks", Json::uint(tasks)),
            ("threads", Json::uint(t)),
            ("seconds", Json::num(seconds)),
            ("speedup", Json::num(speedup)),
            ("cuts", Json::uint(par.stats.valid_cuts)),
            ("search_nodes", Json::uint(par.stats.search_nodes)),
            ("identical_to_serial", Json::Bool(identical)),
            ("load", load_json(&run)),
        ]));
    }

    // Scaling gates. The multi-core bar only applies where the hardware can deliver
    // it; the 1-thread bar (no regression from the decomposition itself) applies
    // everywhere but tolerates measurement noise.
    if budget.is_none() {
        if let Some(&(_, speedup)) = speedup_at.iter().find(|(t, _)| *t == 1) {
            assert!(
                speedup >= 0.95,
                "1-thread parallel run regressed {speedup:.2}x vs serial"
            );
        }
        if host_cpus > 1 {
            if let Some(&(_, speedup)) = speedup_at.iter().find(|(t, _)| *t == 4) {
                assert!(
                    speedup >= 2.5,
                    "expected >= 2.5x at 4 threads on a {host_cpus}-cpu host, got {speedup:.2}x"
                );
            }
        }
    }

    if out_path != "-" {
        let best_speedup = speedup_at
            .iter()
            .map(|&(_, s)| s)
            .fold(None::<f64>, |b, s| Some(b.map_or(s, |b| b.max(s))));
        let doc = Json::object([
            ("schema", Json::str("ise-bench/par-scaling/v3")),
            ("meta", ise_bench::bench_meta("disabled")),
            ("block", Json::str(block.dfg.name().to_string())),
            ("nodes", Json::uint(block.dfg.len())),
            ("edges", Json::uint(block.dfg.edge_count())),
            ("nin", Json::uint(nin)),
            ("nout", Json::uint(nout)),
            ("tasks", Json::uint(tasks)),
            ("budget", budget.map_or(Json::Null, Json::uint)),
            ("host_cpus", Json::uint(host_cpus)),
            ("rows", Json::Array(rows)),
            (
                "summary",
                Json::object([
                    ("serial_seconds", Json::num(serial_seconds)),
                    ("best_speedup", best_speedup.map_or(Json::Null, Json::num)),
                ]),
            ),
        ]);
        std::fs::write(&out_path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!(
            "wrote {out_path} (serial {serial_seconds:.3}s, best speedup {:.2}x \
             on {host_cpus} cpu(s))",
            best_speedup.unwrap_or(f64::NAN)
        );
    }
}
