//! Criterion bench for the division-free field arithmetic: the scalar
//! operations and the two bulk owner-side passes, each at the Shamir field
//! `2^61 − 1` (the shift-add fold) and at the paper's δ = 113 (the generic
//! reducer); and the per-cell server steps of a round — the Equation-3
//! table lookup, the Equation-18 / Equation-11 multiply (`mul_into_mod` at
//! the benchmark workloads' δ = 79 and at the field) and the output
//! permutation. 100 000 cells per call, the benchmark workloads' domain.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prism_bench::build::net_setup;
use prism_core::arith::{add_mod, mul_into_mod, mul_mod, MERSENNE_61};
use prism_core::{Permutation, Prg, ShamirCtx};
use prism_protocol::psi;

const CELLS: usize = 100_000;
const MODULI: [(&str, u64); 2] = [("m61", MERSENNE_61), ("delta113", 113)];

fn operands(n: u64) -> (Vec<u64>, Vec<u64>) {
    let mut prg = Prg::from_seed(n);
    let mut draw = |_| prg.below(n);
    (
        (0..CELLS).map(&mut draw).collect(),
        (0..CELLS).map(&mut draw).collect(),
    )
}

fn bench_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("arith/scalar");
    for (name, n) in MODULI {
        let (a, b) = operands(n);
        group.bench_function(BenchmarkId::new("add_mod", name), |bench| {
            bench.iter(|| {
                let sum = a
                    .iter()
                    .zip(&b)
                    .fold(0, |acc, (&x, &y)| acc ^ add_mod(x, y, n));
                black_box(sum)
            })
        });
        group.bench_function(BenchmarkId::new("mul_mod", name), |bench| {
            bench.iter(|| {
                let prod = a
                    .iter()
                    .zip(&b)
                    .fold(0, |acc, (&x, &y)| acc ^ mul_mod(x, y, n));
                black_box(prod)
            })
        });
    }
    group.finish();
}

fn bench_shamir(c: &mut Criterion) {
    let mut group = c.benchmark_group("arith/shamir");
    for (name, p) in MODULI {
        let field = ShamirCtx::new(p, 1);
        let (secrets, _) = operands(p);
        let mut prg = Prg::from_seed(7);
        group.bench_function(BenchmarkId::new("share_vector", name), |bench| {
            bench.iter(|| black_box(field.share_vector(&secrets, 3, &mut prg)))
        });
        let shares = field.share_vector(&secrets, 3, &mut prg);
        let columns = [&shares[0][..], &shares[1][..], &shares[2][..]];
        let lambda: [u64; 3] = field.lagrange_at_zero(3).try_into().expect("three weights");
        group.bench_function(BenchmarkId::new("reconstruct_columns", name), |bench| {
            bench.iter(|| black_box(field.reconstruct_columns_with(columns, &lambda)))
        });
    }
    group.finish();
}

/// The per-cell steps of a server round, on uniformly random canonical
/// operands (what stored share sums and blinding factors are).
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("arith/kernels");
    group.sample_size(30);
    let mut out = vec![0u64; CELLS];
    for (name, n) in [("delta79", 79), ("m61", MERSENNE_61)] {
        let (a, b) = operands(n);
        group.bench_function(BenchmarkId::new("mul_into_mod", name), |bench| {
            bench.iter(|| mul_into_mod(&a, &b, n, black_box(&mut out)))
        });
    }
    // Ten owners: δ = next_prime(10 + 64) = 79.
    let sp = net_setup(CELLS as u64, 10, 1).servers.swap_remove(0);
    let (summed, _) = operands(sp.delta);
    let table = sp.power_table();
    group.bench_function("psi_summed_round_into", |bench| {
        bench.iter(|| {
            psi::summed_round_into(&summed, sp.m_share, &sp, &table, black_box(&mut out)).unwrap()
        })
    });
    let perm = Permutation::random(CELLS, &mut Prg::from_seed(3));
    group.bench_function("permutation_apply_into", |bench| {
        bench.iter(|| perm.apply_into(&summed, black_box(&mut out)))
    });
    group.finish();
}

criterion_group!(benches, bench_scalar, bench_shamir, bench_kernels);
criterion_main!(benches);
