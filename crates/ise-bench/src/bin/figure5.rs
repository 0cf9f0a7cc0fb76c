//! Regenerates Figure 5 of the paper: run-time comparison of the polynomial
//! enumeration against the pruned exhaustive search of Pozzi/Atasu et al., over the
//! MiBench-like suite plus the tree-shaped worst-case DFGs, with `Nin = 4`, `Nout = 2`.
//!
//! Output is CSV on stdout, one row per basic block:
//! `id,cluster,nodes,poly_seconds,baseline_seconds,poly_cuts,baseline_cuts,poly_nodes,baseline_nodes`
//! Points with `poly_seconds < baseline_seconds` lie above the diagonal of the paper's
//! scatter plot (our algorithm faster).
//!
//! Options (key=value): `blocks` (default 40), `max_size` (default 300), `seed`,
//! `budget` (search-node cap per algorithm and block, 0 = unlimited, default 2000000),
//! `trees` (max tree depth, default 6), `nin`, `nout`.

use ise_bench::{figure5_workload, timed, Options};
use ise_enum::{baseline_cuts, incremental_cuts, Constraints, EngineOptions, PruningConfig};
use ise_workloads::SizeCluster;

fn main() {
    let opts = Options::from_env();
    let blocks = opts.usize("blocks", 40);
    let max_size = opts.usize("max_size", 300);
    let seed = opts.u64("seed", 2007);
    let budget = opts.usize("budget", 2_000_000);
    let budget = if budget == 0 { None } else { Some(budget) };
    let max_tree_depth = opts.usize("trees", 6) as u32;
    let nin = opts.usize("nin", ise_bench::PAPER_NIN);
    let nout = opts.usize("nout", ise_bench::PAPER_NOUT);

    let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
    let options = EngineOptions {
        max_search_nodes: budget,
    };
    let tree_depths: Vec<u32> = (4..=max_tree_depth.max(4)).collect();
    let workload = figure5_workload(blocks, max_size, seed, &tree_depths);

    println!("id,cluster,nodes,poly_seconds,baseline_seconds,poly_cuts,baseline_cuts,poly_search_nodes,baseline_search_nodes");
    let mut poly_wins = 0usize;
    let mut total = 0usize;
    for entry in &workload {
        let (ctx, _) = ise_bench::build_context(&entry.dfg);
        let (poly, poly_time) =
            timed(|| incremental_cuts(&ctx, &constraints, &PruningConfig::all(), &options, None));
        let (base, base_time) = timed(|| baseline_cuts(&ctx, &constraints, budget));
        println!(
            "{},{},{},{:.6},{:.6},{},{},{},{}",
            entry.id,
            entry.cluster.label(),
            entry.dfg.len(),
            poly_time.as_secs_f64(),
            base_time.as_secs_f64(),
            poly.stats.valid_cuts,
            base.stats.valid_cuts,
            poly.stats.search_nodes,
            base.stats.search_nodes,
        );
        total += 1;
        if poly_time < base_time {
            poly_wins += 1;
        }
        // Trees are the baseline's worst case; flag truncation explicitly.
        if entry.cluster == SizeCluster::Tree {
            if let Some(limit) = budget {
                if base.stats.search_nodes >= limit {
                    eprintln!(
                        "# tree block {} truncated the baseline at {} search nodes",
                        entry.id, limit
                    );
                }
            }
        }
    }
    eprintln!("# polynomial algorithm faster on {poly_wins}/{total} blocks");
}
