//! Criterion benchmark backing the dominator-engine study (E5 in DESIGN.md): §5.4 of
//! the paper reports that at least 70 % of the enumeration time is spent computing
//! dominators. This benchmark compares the one-pass DAG algorithm the engine uses
//! against Lengauer–Tarjan on whole graphs of increasing size, times one cone
//! completion query per size (the engine's per-`PICK-INPUTS` dominator run) both as a
//! fresh pass and as a level grown from its parent by one seed vertex, and times the
//! generalized-dominator enumeration used by the basic algorithm.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_dominators::multi::enumerate_generalized_dominators;
use ise_dominators::{dag_dominators, lengauer_tarjan, ConeDominators, Forward, TopoOrder};
use ise_graph::{NodeId, Reachability, RootedDfg};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

fn bench_single_vertex(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_vertex_dominators");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4));
    for size in [100usize, 400, 1000] {
        let rooted = RootedDfg::new(random_dag(&RandomDagConfig::new(size), size as u64));
        let order = TopoOrder::forward(&rooted);
        group.bench_with_input(
            BenchmarkId::new("lengauer_tarjan", size),
            &rooted,
            |b, rooted| b.iter(|| lengauer_tarjan(&Forward(rooted))),
        );
        group.bench_with_input(BenchmarkId::new("dag_pass", size), &rooted, |b, rooted| {
            b.iter(|| dag_dominators(&Forward(rooted), &order))
        });

        // One completion query as the engine issues it: the last original vertex as
        // the output, its first original operand as the seed.
        let reach = Reachability::compute(&rooted);
        let target = NodeId::from_index(rooted.original_len() - 1);
        let mut seed = rooted.node_set();
        if let Some(&p) = rooted.preds(target).iter().find(|&&p| p != rooted.source()) {
            seed.insert(p);
        }
        let mut excluded = rooted.node_set();
        excluded.insert(rooted.source());
        excluded.insert(rooted.sink());
        let mut ws = ConeDominators::new();
        let mut out = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("cone_completions", size),
            &rooted,
            |b, rooted| {
                b.iter(|| {
                    ws.completions(
                        &Forward(rooted),
                        &order,
                        reach.ancestors(target),
                        &seed,
                        target,
                        &excluded,
                        &mut out,
                    );
                    out.len()
                })
            },
        );

        // The same query as seed growth issues it: the parent level (the seed without
        // its grown vertex) stays pushed, and each iteration pushes the grown level,
        // reads its chain and pops it.
        if let Some(added) = seed.iter().next() {
            let mut parent_seed = seed.clone();
            parent_seed.remove(added);
            let g = Forward(&rooted);
            ws.push(&g, &order, reach.ancestors(target), &parent_seed, target);
            group.bench_with_input(
                BenchmarkId::new("cone_grown", size),
                &rooted,
                |b, rooted| {
                    let g = Forward(rooted);
                    b.iter(|| {
                        ws.push_grown(
                            &g,
                            &order,
                            reach.ancestors(target),
                            reach.descendants(added),
                            &seed,
                            added,
                        );
                        ws.chain(&order, &excluded, &mut out);
                        ws.pop();
                        out.len()
                    })
                },
            );
            ws.pop();
        }
    }
    group.finish();
}

fn bench_generalized(c: &mut Criterion) {
    let mut group = c.benchmark_group("generalized_dominators");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for size in [40usize, 80] {
        let rooted = RootedDfg::new(random_dag(&RandomDagConfig::new(size), 3));
        let target = NodeId::from_index(rooted.original_len() - 1);
        let mut excluded = rooted.node_set();
        excluded.insert(rooted.source());
        excluded.insert(rooted.sink());
        for k in [2usize, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("k{k}"), size),
                &rooted,
                |b, rooted| {
                    b.iter(|| {
                        enumerate_generalized_dominators(&Forward(rooted), target, k, &excluded)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_single_vertex, bench_generalized);
criterion_main!(benches);
