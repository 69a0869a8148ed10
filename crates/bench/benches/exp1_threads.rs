//! Criterion bench for Exp 1 / Figure 3: per-operation server time as the
//! thread count varies, at a fixed reduced domain (shape tracking; the
//! paper-scale sweep lives in `exp_harness --scale full exp1`).
//!
//! A stored-column round divides its rows only when its cell·items are
//! worth a worker (2¹⁸ each: `prism_protocol::chunk`), so at `DOMAIN` the
//! cheap operations are flat in the thread count by construction;
//! `exp1/psi_vs_threads_large` is the same sweep on a domain the rule does
//! divide (two workers at 2, three from 3 on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prism_bench::build::{lean_cluster, lineitem_cluster};

const DOMAIN: u64 = 100_000;
/// Past two workers' worth of cells for a one-item round.
const LARGE_DOMAIN: u64 = 600_000;
const OWNERS: usize = 10;

fn psi_threads(c: &mut Criterion, group: &str, domain: u64) {
    let mut cluster = lean_cluster(domain, OWNERS, 1, 1);
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    for threads in [1usize, 2, 3, 4, 5] {
        cluster.set_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| cluster.psi().unwrap())
        });
    }
    group.finish();
}

fn bench_psi_threads(c: &mut Criterion) {
    psi_threads(c, "exp1/psi_vs_threads", DOMAIN);
    psi_threads(c, "exp1/psi_vs_threads_large", LARGE_DOMAIN);
}

fn bench_psu_threads(c: &mut Criterion) {
    let mut cluster = lean_cluster(DOMAIN, OWNERS, 1, 2);
    let mut group = c.benchmark_group("exp1/psu_vs_threads");
    group.sample_size(10);
    for threads in [1usize, 5] {
        cluster.set_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| cluster.psu().unwrap())
        });
    }
    group.finish();
}

fn bench_aggregations(c: &mut Criterion) {
    let cluster = lineitem_cluster(DOMAIN / 4, OWNERS, 1, false, true, 4, 3);
    let mut group = c.benchmark_group("exp1/aggregations");
    group.sample_size(10);
    group.bench_function("count", |b| b.iter(|| cluster.psi_count().unwrap()));
    group.bench_function("sum", |b| b.iter(|| cluster.psi_sum(0).unwrap()));
    group.bench_function("avg", |b| b.iter(|| cluster.psi_avg(0).unwrap()));
    group.finish();
}

criterion_group!(
    benches,
    bench_psi_threads,
    bench_psu_threads,
    bench_aggregations
);
criterion_main!(benches);
