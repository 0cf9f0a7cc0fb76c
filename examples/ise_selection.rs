//! End-to-end instruction-set extension flow over a whole (synthetic) application:
//! enumerate candidates per basic block, estimate their merit, and greedily select a
//! small set of custom instructions — the downstream use the paper motivates in §1 and
//! §7 ("speedups up to 6x").
//!
//! Run with `cargo run --release --example ise_selection`.

use ise_enum::{
    incremental_cuts, select_ises, Constraints, EngineOptions, EnumContext, PruningConfig,
};
use ise_workloads::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let constraints = Constraints::new(4, 2)?;
    let pruning = PruningConfig::all();
    let options = EngineOptions::default();

    // A small MiBench-like "application": 12 basic blocks, capped in size so the
    // example finishes quickly (use the ise-bench harness for full-scale runs).
    let blocks: Vec<_> = suite(12, 123)
        .into_iter()
        .filter(|b| b.dfg.len() <= 90)
        .collect();

    println!("block  nodes  candidates  selected  saved-cycles  speedup");
    let mut total_before = 0u64;
    let mut total_after = 0u64;
    for block in &blocks {
        let ctx = EnumContext::new(block.dfg.clone());
        let result = incremental_cuts(&ctx, &constraints, &pruning, &options, None);
        let selection = select_ises(ctx.dfg(), &result.cuts, 4, 2, 4);
        println!(
            "{:5}  {:5}  {:10}  {:8}  {:12}  {:6.2}x",
            block.id,
            block.dfg.len(),
            result.cuts.len(),
            selection.chosen.len(),
            selection.total_saved_cycles,
            selection.block_speedup()
        );
        total_before += selection.block_software_cycles;
        total_after += selection
            .block_software_cycles
            .saturating_sub(selection.total_saved_cycles.into());
    }
    if total_after > 0 {
        println!(
            "\nwhole-application estimate: {total_before} cycles -> {total_after} cycles \
             ({:.2}x speedup from custom instructions)",
            total_before as f64 / total_after as f64
        );
    }
    Ok(())
}
