//! Criterion bench for Exp 2 / Figure 4: server time vs owner count.
//! The paper's claim is linear scaling in m; the per-owner cost is one
//! share-vector addition per cell. Here that addition happens once, when
//! a column is stored: the query groups are flat in m, and the slope is in
//! `exp2/ingest_fold_vs_owners` (and in `exp2/psi_recomputed_vs_owners`,
//! the multi-column kernel that still sums per call).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prism_bench::build::lean_cluster;
use prism_bench::exp2::OwnerScaling;

const DOMAIN: u64 = 50_000;

fn bench_psi_owners(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp2/psi_vs_owners");
    group.sample_size(10);
    for owners in [10usize, 20, 30, 40, 50] {
        let cluster = lean_cluster(DOMAIN, owners, 4, owners as u64);
        group.bench_with_input(BenchmarkId::from_parameter(owners), &owners, |b, _| {
            b.iter(|| cluster.psi().unwrap())
        });
    }
    group.finish();
}

fn bench_psu_owners(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp2/psu_vs_owners");
    group.sample_size(10);
    for owners in [10usize, 50] {
        let cluster = lean_cluster(DOMAIN, owners, 4, owners as u64);
        group.bench_with_input(BenchmarkId::from_parameter(owners), &owners, |b, _| {
            b.iter(|| cluster.psu().unwrap())
        });
    }
    group.finish();
}

fn bench_owner_slope(c: &mut Criterion) {
    for owners in [10usize, 20, 30, 40, 50] {
        let scaling = OwnerScaling::new(DOMAIN, owners, owners as u64);
        c.benchmark_group("exp2/ingest_fold_vs_owners")
            .sample_size(10)
            .bench_with_input(BenchmarkId::from_parameter(owners), &owners, |b, _| {
                b.iter(|| scaling.ingest())
            });
        c.benchmark_group("exp2/psi_recomputed_vs_owners")
            .sample_size(10)
            .bench_with_input(BenchmarkId::from_parameter(owners), &owners, |b, _| {
                b.iter(|| scaling.recompute(4))
            });
    }
}

criterion_group!(
    benches,
    bench_psi_owners,
    bench_psu_owners,
    bench_owner_slope
);
criterion_main!(benches);
