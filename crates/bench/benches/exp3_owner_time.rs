//! Criterion bench for Exp 3 / Table 14: owner-side result construction,
//! on the replies a real round returns.
//!
//! A server's output is a uniformly random residue (mod η′ for the PSI
//! family, mod δ for PSU) whatever the data, and that is what sets the cost
//! of an owner loop: a compare on `x + y ≥ δ` is a coin flip on such
//! operands and free on patterned ones. So the operands here are the raw
//! reply vectors of one PSI / PSI-verify / count / PSU round and one
//! aggregation round, taken off a cluster at the benchmark workloads' domain
//! — never a vector of ones standing in for them.
//!
//! Two groups: the steps the plans run (`psi::owner_decode`,
//! `psi::owner_verify`, `count::owner_count`, `psu::owner_membership`,
//! `sum::owner_share_z`, `sum::owner_finalize`), and the per-equation
//! references they are compared against in `tests/owner_reference.rs`
//! (Equation 4, its decode, Equation 19, the `z` vector).
//!
//! A third, `exp3/max_steps`, times the max / median owner steps (§6.3,
//! §6.4) both ways — `F` read from the owner view's table, which the plans
//! run, and evaluated per cell (Horner), the reference — on one owner's
//! blinding and on the decode of a real announcement, at
//! `elastic_small_mix`'s shape: four owners, values up to 2 000.

use criterion::{criterion_group, criterion_main, Criterion};
use prism_bench::build::lineitem_cluster;
use prism_core::Prg;
use prism_protocol::engine::{BatchItem, Ctx, Operation, QueryOp, ServerExec};
use prism_protocol::params::{Initiator, SystemConfig};
use prism_protocol::{count, max, median, plans, psi, psu, sum, Result};

const DOMAIN: u64 = 100_000;
const OWNERS: usize = 10;

/// One batch round whose output is the replies themselves:
/// `replies[server][item]`.
struct Replies<'a> {
    servers: &'a [usize],
    items: &'a [BatchItem],
    zs: &'a [Vec<u64>],
}

impl Operation for Replies<'_> {
    type Output = Vec<Vec<Vec<u64>>>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Self::Output> {
        let outs = ctx.query(self.servers, self.items, |k| {
            self.zs.get(k).map(|z| vec![z.clone()]).unwrap_or_default()
        })?;
        ctx.finish(outs, |outs| Ok(outs.iter().map(|o| o.to_vec()).collect()))
    }
}

fn bench_owner_paths(c: &mut Criterion) {
    let cluster = lineitem_cluster(DOMAIN, OWNERS, 1, true, true, 1, 1);
    let op = cluster.setup().owner.clone();
    let additive = [
        BatchItem::plain(QueryOp::Psi),
        BatchItem::plain(QueryOp::PsiVerify),
        BatchItem::plain(QueryOp::Count),
        BatchItem::plain(QueryOp::Psu),
    ];
    let (round1, _) = cluster
        .execute(&Replies {
            servers: &[0, 1],
            items: &additive,
            zs: &[],
        })
        .unwrap();
    let [psi1, vpsi1, count1, psu1] = &round1[0][..] else {
        panic!("four items per server")
    };
    let [psi2, vpsi2, count2, psu2] = &round1[1][..] else {
        panic!("four items per server")
    };
    let fop = psi::owner_combine(psi1, psi2, &op).unwrap();
    let zs = sum::owner_share_z(psi1, psi2, &op, &mut Prg::from_seed(7)).unwrap();
    let (sums, _) = cluster
        .execute(&Replies {
            servers: &[0, 1, 2],
            items: &[BatchItem::with_z(QueryOp::Sum(0), 0)],
            zs: &zs,
        })
        .unwrap();
    // The vectors above are what the plans decode; check that once.
    let (expected, _) = cluster.execute(&plans::PsiVerified).unwrap();
    assert_eq!(fop, expected.fop);

    let mut group = c.benchmark_group("exp3/plan_steps");
    group.sample_size(30);
    group.bench_function("psi_decode", |b| {
        b.iter(|| psi::owner_decode(psi1, psi2, &op).unwrap())
    });
    group.bench_function("psi_verify", |b| {
        b.iter(|| psi::owner_verify(&fop, vpsi1, vpsi2, &op).unwrap())
    });
    group.bench_function("count", |b| {
        b.iter(|| count::owner_count(count1, count2, &op).unwrap())
    });
    group.bench_function("psu_membership", |b| {
        b.iter(|| psu::owner_membership(psu1, psu2, &op).unwrap())
    });
    group.bench_function("sum_share_z", |b| {
        let mut prg = Prg::from_seed(7);
        b.iter(|| sum::owner_share_z(psi1, psi2, &op, &mut prg).unwrap())
    });
    group.bench_function("sum_finalize", |b| {
        b.iter(|| sum::owner_finalize([&sums[0][0], &sums[1][0], &sums[2][0]], &op).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("exp3/per_equation");
    group.sample_size(30);
    // Equation 4: b modular multiplications.
    group.bench_function("psi_combine", |b| {
        b.iter(|| psi::owner_combine(psi1, psi2, &op).unwrap())
    });
    group.bench_function("psi_membership", |b| b.iter(|| psi::membership(&fop)));
    // Equation 19: b modular additions.
    group.bench_function("psu_combine", |b| {
        b.iter(|| psu::owner_combine(psu1, psu2, &op).unwrap())
    });
    // z-vector construction for round 2.
    group.bench_function("sum_build_z", |b| b.iter(|| sum::owner_build_z(&fop)));
    group.finish();
}

/// Common cells of the max / median steps (µs / 4.096 is ns per cell).
const MAX_CELLS: usize = 4_096;

fn bench_max_steps(c: &mut Criterion) {
    let owners = 4;
    let setup = Initiator::new(SystemConfig::new(owners, MAX_CELLS).with_agg_domain_max(2_000))
        .setup()
        .unwrap();
    let op = &setup.owner;
    let table = op.poly_table().expect("a 2 000-value domain is tabled");
    let mut prg = Prg::from_seed(3);
    let values: Vec<Vec<u64>> = (0..owners)
        .map(|_| (0..MAX_CELLS).map(|_| prg.below(2_001)).collect())
        .collect();
    let common: Vec<usize> = (0..MAX_CELLS).collect();
    let (up1, up2): (Vec<_>, Vec<_>) = values
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let (a, b, _) = max::owner_blind_maxima_tab(v, &common, table, op, j as u64, 1);
            (a, b)
        })
        .unzip();
    let to_ann_1 = max::server_max_round(&up1, &setup.servers[0]).unwrap();
    let to_ann_2 = max::server_max_round(&up2, &setup.servers[1]).unwrap();
    let ann = max::announcer_find_max(&to_ann_1, &to_ann_2, &setup.announcer).unwrap();
    let middles = median::announcer_find_median(&to_ann_1, &to_ann_2, &setup.announcer).unwrap();

    let mut group = c.benchmark_group("exp3/max_steps");
    group.sample_size(30);
    // What the first max or median of a parameter set pays once.
    group.bench_function("table_build", |b| {
        b.iter(|| op.poly.table(op.agg_domain_max, op.wide_width))
    });
    group.bench_function("blind_table", |b| {
        b.iter(|| max::owner_blind_maxima_tab(&values[0], &common, table, op, 9, 1))
    });
    group.bench_function("blind_horner", |b| {
        let mut prg = Prg::from_seed(9);
        b.iter(|| max::owner_blind_maxima(&values[0], &common, op, &mut prg))
    });
    group.bench_function("max_decode_table", |b| {
        b.iter(|| max::owner_decode_max_tab(&common, &ann, table, op, 1).unwrap())
    });
    group.bench_function("max_decode_horner", |b| {
        b.iter(|| max::owner_decode_max(&common, &ann, op).unwrap())
    });
    group.bench_function("median_decode_table", |b| {
        b.iter(|| median::owner_decode_median_tab(&common, &middles, table, op).unwrap())
    });
    group.bench_function("median_decode_horner", |b| {
        b.iter(|| median::owner_decode_median(&common, &middles, op).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_owner_paths, bench_max_steps);
criterion_main!(benches);
