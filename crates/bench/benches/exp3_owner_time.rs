//! Criterion bench for Exp 3 / Table 14: owner-side result construction.
//! Isolates the Equation-4 combine (PSI), the Equation-19 add (PSU) and
//! the 3-point Lagrange interpolation (sum) on fixed server outputs.

use criterion::{criterion_group, criterion_main, Criterion};
use prism_bench::build::{lean_cluster, lineitem_cluster};
use prism_protocol::{psi, psu, sum};

const DOMAIN: u64 = 200_000;
const OWNERS: usize = 10;

fn bench_owner_paths(c: &mut Criterion) {
    // Precompute server outputs once; benchmark only the owner side.
    let cluster = lean_cluster(DOMAIN, OWNERS, 4, 1);
    let op = cluster.setup().owner.clone();

    // PSI outputs: rebuild the raw server vectors through a plain query.
    let (psi_out, _) = cluster.psi().unwrap();
    let fop = psi_out.fop;

    let agg = lineitem_cluster(DOMAIN / 4, OWNERS, 1, false, true, 4, 2);
    let (sums_ref, _) = agg.psi_sum(0).unwrap();
    let agg_op = agg.setup().owner.clone();

    let mut group = c.benchmark_group("exp3/owner_result_construction");
    group.sample_size(10);

    // Equation 4: b modular multiplications. Use the fop itself as both
    // inputs (same cost profile as real outputs).
    group.bench_function("psi_combine", |b| {
        b.iter(|| psi::owner_combine(&fop, &fop, &op).unwrap())
    });
    group.bench_function("psi_membership_decode", |b| {
        b.iter(|| psi::membership(&fop))
    });
    group.bench_function("psu_combine", |b| {
        b.iter(|| psu::owner_combine(&fop, &fop, &op).unwrap())
    });
    // z-vector construction for round 2.
    group.bench_function("sum_build_z", |b| b.iter(|| sum::owner_build_z(&fop)));
    // Lagrange interpolation across 3 share vectors.
    let outs = [sums_ref.clone(), sums_ref.clone(), sums_ref.clone()];
    group.bench_function("sum_interpolate", |b| {
        b.iter(|| sum::owner_finalize([&outs[0], &outs[1], &outs[2]], &agg_op).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_owner_paths);
criterion_main!(benches);
