//! Candidate counts and speedup-model sanity check (§1/§7 of the paper): enumerate the
//! cuts of each block, feed them to the greedy ISE selector and report the estimated
//! basic-block speedup. The paper reports application speedups of up to 6x from the
//! custom instructions its toolchain selects out of the enumerated candidates; this
//! harness checks that the reproduction produces candidate sets rich enough for the
//! selector to find multi-operation instructions with meaningful savings.
//!
//! Output: one row per block with candidate count, selected instruction count, saved
//! cycles and estimated block speedup.
//!
//! Options (key=value): `blocks` (default 25), `max_size` (default 120), `seed`,
//! `nin`, `nout`, `instructions` (default 4).

use ise_bench::{timed, Options};
use ise_enum::{
    incremental_cuts, select_ises, Constraints, EngineOptions, EnumContext, PruningConfig,
};
use ise_workloads::suite;

fn main() {
    let opts = Options::from_env();
    let blocks = opts.usize("blocks", 25);
    let max_size = opts.usize("max_size", 120);
    let seed = opts.u64("seed", 17);
    let nin = opts.usize("nin", ise_bench::PAPER_NIN);
    let nout = opts.usize("nout", ise_bench::PAPER_NOUT);
    let instructions = opts.usize("instructions", 4);
    let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
    let options = EngineOptions::default();

    println!("block,nodes,candidates,enumeration_seconds,selected,saved_cycles,block_speedup");
    let mut best_speedup = 1.0f64;
    let mut total_selected = 0usize;
    for block in suite(blocks, seed) {
        if block.dfg.len() > max_size {
            continue;
        }
        let ctx = EnumContext::new(block.dfg.clone());
        let (result, elapsed) =
            timed(|| incremental_cuts(&ctx, &constraints, &PruningConfig::all(), &options, None));
        let selection = select_ises(ctx.dfg(), &result.cuts, nin, nout, instructions);
        let speedup = selection.block_speedup();
        best_speedup = best_speedup.max(speedup);
        total_selected += selection.chosen.len();
        println!(
            "{},{},{},{:.6},{},{},{:.3}",
            block.id,
            block.dfg.len(),
            result.cuts.len(),
            elapsed.as_secs_f64(),
            selection.chosen.len(),
            selection.total_saved_cycles,
            speedup,
        );
    }
    eprintln!("# best estimated block speedup: {best_speedup:.2}x, {total_selected} instructions selected in total");
}
