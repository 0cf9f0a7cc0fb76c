//! End-to-end pipeline tests: straight-line source code in, selected custom
//! instructions and DOT renderings out, exercising every crate of the workspace through
//! its public API only.

use ise_enum::{enumerate_cuts, estimate_merit, select_ises, Constraints, EnumContext};
use ise_graph::{DotOptions, Operation};
use ise_workloads::expr::compile_block;
use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};

#[test]
fn sad_kernel_yields_a_profitable_multi_operation_instruction() {
    let dfg = compile_block(
        "sad",
        "d = a - b; m = d >> 31; abs = (d ^ m) - m; acc2 = acc + abs; out acc2;",
    )
    .expect("kernel compiles");
    let constraints = Constraints::new(4, 1).expect("valid constraints");
    let result = enumerate_cuts(&dfg, &constraints).expect("enumeration succeeds");
    assert!(!result.cuts.is_empty());

    let ctx = EnumContext::new(dfg);
    let best = result
        .cuts
        .iter()
        .map(|cut| (cut, estimate_merit(ctx.dfg(), cut, 4, 1)))
        .max_by_key(|(_, merit)| merit.saved_cycles)
        .expect("at least one candidate");
    assert!(
        best.0.len() >= 3,
        "the absolute-difference cluster should be a candidate"
    );
    assert!(
        best.1.saved_cycles >= 1,
        "merging ALU operations must save cycles"
    );
}

#[test]
fn memory_bound_kernel_is_partitioned_by_forbidden_nodes() {
    let dfg = compile_block(
        "memcpy-ish",
        "v = load(src); w = v ^ k; store(dst, w); v2 = load(src + 4); w2 = v2 ^ k; store(dst + 4, w2);",
    )
    .expect("kernel compiles");
    let constraints = Constraints::new(4, 2).expect("valid constraints");
    let result = enumerate_cuts(&dfg, &constraints).expect("enumeration succeeds");
    // Loads and stores may never be members of a candidate.
    for cut in &result.cuts {
        for node in cut.body().iter() {
            assert!(!dfg.op(node).is_memory());
        }
    }
    // The xor operations are still found (possibly merged with the address adds).
    assert!(result
        .cuts
        .iter()
        .any(|cut| { cut.body().iter().any(|node| dfg.op(node) == Operation::Xor) }));
}

#[test]
fn selection_on_a_generated_block_is_consistent() {
    let dfg = generate_block(&MiBenchLikeConfig::new(60), 99).expect("valid block");
    let ctx = EnumContext::new(dfg.clone());
    let constraints = Constraints::new(4, 2).expect("valid constraints");
    let result = enumerate_cuts(&dfg, &constraints).expect("enumeration succeeds");
    let selection = select_ises(ctx.dfg(), &result.cuts, 4, 2, 8);
    // Selected instructions never overlap and never exceed the requested count.
    assert!(selection.chosen.len() <= 8);
    for (i, (a, _)) in selection.chosen.iter().enumerate() {
        for (b, _) in &selection.chosen[i + 1..] {
            assert!(a.body().is_disjoint(b.body()));
        }
    }
    // The estimated speedup is at least 1 and finite.
    let speedup = selection.block_speedup();
    assert!(speedup >= 1.0 && speedup.is_finite());
    // Every selected instruction can be rendered for documentation.
    for (cut, _) in &selection.chosen {
        let dot = DotOptions::new().with_cut(cut.body().clone()).render(&dfg);
        assert!(dot.starts_with("digraph"));
    }
}

#[test]
fn connected_and_depth_limited_searches_restrict_candidates() {
    let dfg = compile_block(
        "arx",
        "t1 = a + b; t2 = t1 ^ (c << 7); t3 = t2 + c; t4 = t3 ^ (t1 >> 3); out t4;",
    )
    .expect("kernel compiles");
    let ctx = EnumContext::new(dfg.clone());
    let free = Constraints::new(4, 2).expect("valid constraints");
    let all = enumerate_cuts(&dfg, &free).expect("enumeration succeeds");

    let shallow = free.clone().with_max_depth(1);
    let shallow_cuts = enumerate_cuts(&dfg, &shallow).expect("enumeration succeeds");
    assert!(shallow_cuts.cuts.len() < all.cuts.len());
    assert!(shallow_cuts.cuts.iter().all(|c| c.depth(&ctx) <= 1));

    let connected = free.connected_only(true);
    let connected_cuts = enumerate_cuts(&dfg, &connected).expect("enumeration succeeds");
    assert!(connected_cuts.cuts.len() <= all.cuts.len());
    assert!(connected_cuts.cuts.iter().all(|c| c.is_connected(&ctx)));
}
