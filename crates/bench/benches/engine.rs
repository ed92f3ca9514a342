//! Engine hot-loop microbenchmarks: the workloads the calendar-queue /
//! zero-copy rewrite targets.
//!
//! `push_pull_clique` is the headline number — an all-to-all push-pull
//! run on a clique maximizes exchanges per round (n initiations, each
//! snapshotting an O(n)-bit rumor set), so payload copying and
//! scheduler churn dominate. `push_pull_ring_of_cliques` adds latency-4
//! bridges so deliveries land several rounds out (calendar-ring slot
//! reuse), and `flooding_clique` isolates scheduler + scratch overhead
//! with O(1) payloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossip_core::flooding::{self, FloodingConfig};
use gossip_core::push_pull::{self, PushPullConfig};
use latency_graph::generators::{self, extra};

fn push_pull_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/push_pull_clique");
    group.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let g = generators::clique(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| push_pull::all_to_all(g, &PushPullConfig::default(), 42));
        });
    }
    group.finish();
}

fn push_pull_ring_of_cliques(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/push_pull_ring_of_cliques");
    group.sample_size(10);
    for k in [8usize, 32] {
        let g = extra::ring_of_cliques(k, 16, 4);
        group.throughput(Throughput::Elements((k * 16) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k * 16), &g, |b, g| {
            b.iter(|| push_pull::all_to_all(g, &PushPullConfig::default(), 42));
        });
    }
    group.finish();
}

fn flooding_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/flooding_clique");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let g = generators::clique(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| flooding::all_to_all(g, &FloodingConfig::default(), 42));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    push_pull_clique,
    push_pull_ring_of_cliques,
    flooding_clique
);
criterion_main!(benches);
