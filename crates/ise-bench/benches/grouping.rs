//! Criterion companion of the E8 `grouping` binary: the cost of canonical coding
//! and index maintenance relative to the enumeration that feeds them.
//!
//! Measurements on one mid-size random DAG: enumeration alone (the baseline),
//! canonical coding of the enumerated cuts (the grouping hot path) plain and
//! through a [`CanonMemo`] (cold: fresh memo each iteration; warm: a shared
//! pre-populated memo, the serve steady state), and the full
//! group-and-select-globally pipeline over three corpus-like copies.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use ise_canon::{
    canonicalize_cuts, canonicalize_cuts_memo, select_ises_global, CanonMemo, GroupConfig,
    PatternIndex,
};
use ise_enum::{incremental_cuts, Constraints, Cut, EngineOptions, EnumContext, PruningConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

fn bench_grouping(c: &mut Criterion) {
    let constraints = Constraints::new(4, 2).expect("non-zero constraints");
    let pruning = PruningConfig::all();
    let options = EngineOptions::default();
    let group_config = GroupConfig::default();

    let contexts: Vec<EnumContext> = (0..3)
        .map(|seed| {
            EnumContext::new(random_dag(
                &RandomDagConfig::new(48).with_memory_ratio(0.2),
                seed,
            ))
        })
        .collect();
    let cut_lists: Vec<Vec<Cut>> = contexts
        .iter()
        .map(|ctx| incremental_cuts(ctx, &constraints, &pruning, &options, None).cuts)
        .collect();

    let mut group = c.benchmark_group("grouping");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("enumerate_only", |b| {
        b.iter(|| incremental_cuts(&contexts[0], &constraints, &pruning, &options, None))
    });
    group.bench_function("canonicalize_cuts", |b| {
        b.iter(|| canonicalize_cuts(contexts[0].dfg(), &cut_lists[0], &group_config))
    });
    group.bench_function("canonicalize_cuts_memo_cold", |b| {
        b.iter(|| {
            let memo = CanonMemo::new();
            canonicalize_cuts_memo(contexts[0].dfg(), &cut_lists[0], &group_config, &memo)
        })
    });
    let warm = CanonMemo::new();
    canonicalize_cuts_memo(contexts[0].dfg(), &cut_lists[0], &group_config, &warm);
    group.bench_function("canonicalize_cuts_memo_warm", |b| {
        b.iter(|| canonicalize_cuts_memo(contexts[0].dfg(), &cut_lists[0], &group_config, &warm))
    });
    group.bench_function("group_and_select_global", |b| {
        b.iter(|| {
            let mut index = PatternIndex::new(group_config.clone());
            for (ctx, cuts) in contexts.iter().zip(&cut_lists) {
                index.add_block(ctx.dfg(), cuts, 1.0);
            }
            let views: Vec<&[Cut]> = cut_lists.iter().map(Vec::as_slice).collect();
            select_ises_global(&index, &views, 0)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_grouping);
criterion_main!(benches);
