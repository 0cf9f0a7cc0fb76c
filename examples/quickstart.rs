//! Quickstart: enumerate every instruction-set-extension candidate of a small basic
//! block and print the best one.
//!
//! Run with `cargo run --example quickstart`.

use ise_enum::{enumerate_cuts, estimate_merit, Constraints, EnumContext};
use ise_graph::DotOptions;
use ise_workloads::expr::compile_block;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The sum-of-absolute-differences inner step, a classic ISE candidate.
    let dfg = compile_block(
        "sad-step",
        "d = a - b; \
         m = d >> 31; \
         abs = (d ^ m) - m; \
         acc2 = acc + abs; \
         out acc2;",
    )?;
    println!(
        "basic block `{}`: {} nodes, {} live-ins, {} live-outs",
        dfg.name(),
        dfg.len(),
        dfg.external_inputs().len(),
        dfg.external_outputs().len()
    );

    // The paper's standard constraints: 4 register-file read ports, 2 write ports.
    let constraints = Constraints::new(4, 2)?;
    let result = enumerate_cuts(&dfg, &constraints)?;
    println!(
        "enumeration: {} valid convex cuts ({} candidates examined, {} dominator-tree runs)",
        result.cuts.len(),
        result.stats.candidates_checked,
        result.stats.dominator_runs
    );

    // Rank the candidates with the latency-based merit model.
    let ctx = EnumContext::new(dfg.clone());
    let mut ranked: Vec<_> = result
        .cuts
        .iter()
        .map(|cut| (estimate_merit(ctx.dfg(), cut, 4, 2), cut))
        .collect();
    ranked.sort_by_key(|(merit, _)| std::cmp::Reverse(merit.saved_cycles));

    for (rank, (merit, cut)) in ranked.iter().take(5).enumerate() {
        println!(
            "  #{rank}: {cut} — {} software cycles -> {} custom-instruction cycles ({} saved, {:.2}x)",
            merit.software_cycles,
            merit.hardware_cycles,
            merit.saved_cycles,
            merit.speedup()
        );
    }

    if let Some((_, best)) = ranked.first() {
        let dot = DotOptions::new().with_cut(best.body().clone()).render(&dfg);
        println!("\nGraphviz rendering of the best candidate:\n{dot}");
    }
    Ok(())
}
