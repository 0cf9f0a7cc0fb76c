//! Criterion companion of the E7 `par_scaling` binary: the serial incremental
//! engine against the `ise_enum::par` first-output task decomposition on one
//! mid-size block. On a multi-core host the parallel rows shrink with the worker
//! count; on a single-core host they quantify the fan-out-and-merge overhead (which
//! must stay small — the merge is one seen-set replay).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_enum::par::{parallel_cuts, ParConfig};
use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

fn bench_par_scaling(c: &mut Criterion) {
    let constraints = Constraints::new(4, 2).expect("non-zero constraints");
    let pruning = PruningConfig::all();
    let options = EngineOptions::default();
    let dfg = random_dag(&RandomDagConfig::new(64).with_memory_ratio(0.15), 42);
    let ctx = EnumContext::new(dfg);

    let mut group = c.benchmark_group("par_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("serial", |b| {
        b.iter(|| incremental_cuts(&ctx, &constraints, &pruning, &options, None))
    });
    for (tasks, threads) in [(8, 1), (8, 2), (8, 4)] {
        group.bench_with_input(
            BenchmarkId::new("parallel", format!("{tasks}tasks_{threads}threads")),
            &(tasks, threads),
            |b, &(tasks, threads)| {
                let config = ParConfig::new(tasks, threads);
                b.iter(|| parallel_cuts(&ctx, &constraints, &pruning, &config, None))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_par_scaling);
criterion_main!(benches);
