//! Transport-conformance suite: one parameterized harness asserting that
//! **every** operation the engine can execute — every [`QueryOp`] family,
//! the verified variants, the batched round 2, and the announcer-backed
//! max/median — produces bit-identical results and identical
//! `QueryStats.rounds` on every backend: [`InMemoryExec`],
//! [`ShardedExec`] (shard counts {1, 2, 4, 8}), and `prism_net`'s
//! channel and TCP transports (same shard counts, announcer as a fourth
//! networked node).
//!
//! The harness is the point: all backends run through *one* generic
//! `surface` function over `&dyn ServerExec` (plans are written once;
//! the transports must not be able to drift), replacing the ad-hoc
//! per-suite result duplication the earlier e2e suites grew. The
//! tampered matrices run through the same harness — a server or
//! announcer tamper must produce the *same* verdict (and, where a
//! verified query tolerates a harmless tamper, the same value) on every
//! backend.
//!
//! [`QueryOp`]: prism_protocol::engine::QueryOp
//! [`InMemoryExec`]: prism_protocol::engine::InMemoryExec
//! [`ShardedExec`]: prism_protocol::shard::ShardedExec

use prism_core::Prg;
use prism_net::NetCluster;
use prism_protocol::cache::{CachedExec, PsiRoundCache};
use prism_protocol::engine::{
    Announcer, Column, Engine, InMemoryExec, Operation, ServerExec, ServerNode,
};
use prism_protocol::malicious::{AnnouncerTamper, Tamper};
use prism_protocol::max::MaxCell;
use prism_protocol::metrics::Counter;
use prism_protocol::params::{Initiator, OwnerParams, Setup, SystemConfig};
use prism_protocol::plans;
use prism_protocol::shard::{ShardedExec, ShardedNode};
use prism_protocol::tables::{owner_uploads, ColumnSet, OwnerTable};
use prism_protocol::{AggResult, QueryBatch};

const DOMAIN: usize = 24;
const SEED: u64 = 4242;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Three owners over a 24-cell domain; intersection {1, 7, 24}.
fn rows() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(1, 100), (1, 200), (3, 300), (7, 10), (20, 5), (24, 9)],
        vec![(1, 100), (2, 70), (7, 20), (20, 1), (24, 2)],
        vec![(1, 300), (3, 500), (7, 30), (19, 4), (24, 8)],
    ]
}

/// Everything the backends share: the role views, every owner's Phase-1
/// share columns per server (built once, so share randomness is identical
/// whatever the backend), and the owner-side max/median value columns.
struct Fixture {
    setup: Setup,
    /// `columns[owner][server]` → the full Table-11 column set.
    #[allow(clippy::type_complexity)]
    columns: Vec<Vec<Vec<(Column, Vec<u64>)>>>,
    maxima: Vec<Vec<u64>>,
    sums: Vec<Vec<u64>>,
}

fn fixture() -> Fixture {
    let setup = Initiator::new(
        SystemConfig::new(rows().len(), DOMAIN)
            .with_seed(SEED)
            .with_agg_domain_max(2000),
    )
    .setup()
    .unwrap();
    let op = &setup.owner;
    let mut columns = Vec::new();
    let mut maxima = Vec::new();
    let mut sums = Vec::new();
    for (j, owner_rows) in rows().iter().enumerate() {
        let cells = owner_rows.iter().map(|&(c, x)| (c, [x]));
        let mut table = OwnerTable::window(cells, 1, 0, DOMAIN).unwrap();
        let mut prg = Prg::from_seed(SEED ^ (900 + j as u64));
        let perms = (&op.pf_db1, &op.pf_db2);
        columns.push(owner_uploads(
            &table,
            op,
            perms,
            ColumnSet::full(1),
            &mut prg,
        ));
        maxima.push(table.maxima.remove(0));
        sums.push(table.sums.remove(0));
    }
    Fixture {
        setup,
        columns,
        maxima,
        sums,
    }
}

/// One backend under test.
#[derive(Debug, Clone, Copy)]
enum Backend {
    InMemory,
    Sharded(usize),
    Channel(usize),
    Tcp(usize),
}

fn all_backends() -> Vec<Backend> {
    let mut all = vec![Backend::InMemory];
    for k in SHARD_COUNTS {
        all.push(Backend::Sharded(k));
        all.push(Backend::Channel(k));
        all.push(Backend::Tcp(k));
    }
    all
}

/// `(owner, server, columns)` over a `columns[owner][server]` fixture.
#[allow(clippy::type_complexity)]
fn per_server(
    columns: &[Vec<Vec<(Column, Vec<u64>)>>],
) -> impl Iterator<Item = (usize, usize, &Vec<(Column, Vec<u64>)>)> {
    columns.iter().enumerate().flat_map(|(j, servers)| {
        servers
            .iter()
            .enumerate()
            .map(move |(k, cols)| (j, k, cols))
    })
}

impl Backend {
    /// Build this backend (with the given failure injections attached),
    /// hand its executor to `f`, and tear it down.
    fn run<R>(
        self,
        fx: &Fixture,
        server_tampers: &[(usize, Tamper)],
        ann_tamper: AnnouncerTamper,
        f: impl FnOnce(&dyn ServerExec) -> R,
    ) -> R {
        self.run_with(fx, None, server_tampers, ann_tamper, f)
    }

    /// [`Backend::run`], applying `delta`'s uploads after Phase 1: the
    /// in-process backends through `delta_upload` with the explicit
    /// permutation-extension blocks, the networked ones through the
    /// `NetCluster::delta_upload` facade (which ships the adopted grown
    /// setup's extension blocks over the wire).
    fn run_with<R>(
        self,
        fx: &Fixture,
        delta: Option<&DeltaFixture>,
        server_tampers: &[(usize, Tamper)],
        ann_tamper: AnnouncerTamper,
        f: impl FnOnce(&dyn ServerExec) -> R,
    ) -> R {
        let mut announcer = Announcer::new(fx.setup.announcer.clone());
        announcer.set_tamper(ann_tamper);
        // The in-process node types share no trait, only method names.
        macro_rules! outsource {
            ($nodes:ident) => {
                for (j, k, cols) in per_server(&fx.columns) {
                    for (col, data) in cols {
                        $nodes[k].store(j, *col, data.clone());
                    }
                }
                if let Some(dfx) = delta {
                    for (j, k, cols) in per_server(&dfx.grown.columns) {
                        $nodes[k]
                            .delta_upload(j, dfx.start, cols.clone(), Some((&dfx.e1, &dfx.e2)))
                            .unwrap();
                    }
                }
                for &(s, t) in server_tampers {
                    $nodes[s].set_tamper(t);
                }
            };
        }
        let servers = fx.setup.servers.iter().cloned();
        match self {
            Backend::InMemory => {
                let mut nodes: Vec<ServerNode> = servers.map(ServerNode::new).collect();
                outsource!(nodes);
                f(&InMemoryExec::new(&nodes, &announcer))
            }
            Backend::Sharded(shards) => {
                let mut nodes: Vec<ShardedNode> =
                    servers.map(|sp| ShardedNode::new(sp, shards)).collect();
                outsource!(nodes);
                f(&ShardedExec::new(&nodes, &announcer))
            }
            Backend::Channel(shards) | Backend::Tcp(shards) => {
                let mut cluster = match self {
                    Backend::Channel(_) => {
                        NetCluster::start_local_sharded(fx.setup.clone(), shards)
                    }
                    _ => NetCluster::start_tcp_sharded(fx.setup.clone(), shards).unwrap(),
                };
                for (j, k, cols) in per_server(&fx.columns) {
                    cluster.bulk_upload(k, j, cols.clone()).unwrap();
                }
                if let Some(dfx) = delta {
                    cluster.adopt_setup(dfx.grown.setup.clone());
                    for (j, k, cols) in per_server(&dfx.grown.columns) {
                        cluster.delta_upload(k, j, dfx.start, cols.clone()).unwrap();
                    }
                }
                for &(s, t) in server_tampers {
                    cluster.set_tamper(s, t).unwrap();
                }
                cluster.set_announcer_tamper(ann_tamper).unwrap();
                let out = f(&cluster);
                cluster.shutdown().unwrap();
                out
            }
        }
    }
}

/// Flattened, comparable median cells.
type MedianRow = (usize, Vec<u64>, Vec<usize>);

/// The full honest operation surface with every query's round count.
#[derive(Debug, PartialEq)]
struct Surface {
    psi: Vec<u64>,
    psi_verified: Vec<u64>,
    psu: Vec<bool>,
    psu_verified: Vec<bool>,
    count: usize,
    count_verified: usize,
    sum: Vec<u64>,
    sum_verified: Vec<u64>,
    avg: Vec<(u64, u64)>,
    batch: Vec<AggResult>,
    max: (Vec<MaxCell>, Vec<Vec<bool>>),
    median: Vec<MedianRow>,
    rounds: Vec<usize>,
}

fn run_plan<P: Operation>(
    exec: &dyn ServerExec,
    op: &OwnerParams,
    plan: &P,
    rounds: &mut Vec<usize>,
) -> P::Output {
    let (out, stats) = Engine::new(&exec, op).run(plan).unwrap();
    rounds.push(stats.rounds());
    out
}

fn median_rows(cells: Vec<prism_protocol::median::MedianCell>) -> Vec<MedianRow> {
    cells
        .into_iter()
        .map(|c| (c.cell, c.values, c.holders))
        .collect()
}

fn surface(exec: &dyn ServerExec, fx: &Fixture) -> Surface {
    let op = &fx.setup.owner;
    let mut rounds = Vec::new();
    let psi = run_plan(exec, op, &plans::Psi, &mut rounds).fop;
    let psi_verified = run_plan(exec, op, &plans::PsiVerified, &mut rounds).fop;
    let psu = run_plan(exec, op, &plans::Psu, &mut rounds);
    let psu_verified = run_plan(exec, op, &plans::PsuVerified, &mut rounds);
    let count = run_plan(exec, op, &plans::Count, &mut rounds);
    let count_verified = run_plan(exec, op, &plans::CountVerified, &mut rounds);
    let sum = run_plan(exec, op, &plans::Sum { attr: 0, seed: 11 }, &mut rounds);
    let sum_verified = run_plan(
        exec,
        op,
        &plans::SumVerified { attr: 0, seed: 12 },
        &mut rounds,
    );
    let avg = run_plan(exec, op, &plans::Average { attr: 0, seed: 13 }, &mut rounds)
        .iter()
        .map(|c| (c.sum, c.count))
        .collect();
    let qb = QueryBatch::new().sum(0).avg(0).count_tuples();
    let batch = run_plan(
        exec,
        op,
        &plans::Batch {
            batch: &qb,
            seed: 14,
        },
        &mut rounds,
    );
    let max = run_plan(exec, op, &max_plan(fx), &mut rounds);
    let median = median_rows(run_plan(exec, op, &median_plan(fx), &mut rounds));
    Surface {
        psi,
        psi_verified,
        psu,
        psu_verified,
        count,
        count_verified,
        sum,
        sum_verified,
        avg,
        batch,
        max,
        median,
        rounds,
    }
}

fn max_plan(fx: &Fixture) -> plans::Max<'_> {
    plans::Max {
        values: fx.maxima.iter().map(Vec::as_slice).collect(),
        table: None,
        seed: 21,
        cell_chunk: 1 << 16,
    }
}

fn median_plan(fx: &Fixture) -> plans::Median<'_> {
    plans::Median {
        values: fx.sums.iter().map(Vec::as_slice).collect(),
        table: None,
        seed: 22,
        cell_chunk: 1 << 16,
    }
}

/// Verdicts of the verified operations under failure injection: a tamper
/// must produce the same outcome — detection, or the same (provably
/// harmless) value — on every backend.
#[derive(Debug, PartialEq)]
#[allow(clippy::type_complexity)]
struct Verdicts {
    psi: Result<Vec<u64>, ()>,
    psi_verified: Result<Vec<u64>, ()>,
    psu_verified: Result<Vec<bool>, ()>,
    count_verified: Result<usize, ()>,
    sum_verified: Result<Vec<u64>, ()>,
    max: Result<(Vec<MaxCell>, Vec<Vec<bool>>), ()>,
    median: Result<Vec<MedianRow>, ()>,
}

fn verdicts(exec: &dyn ServerExec, fx: &Fixture) -> Verdicts {
    let op = &fx.setup.owner;
    fn run<P: Operation>(
        exec: &dyn ServerExec,
        op: &OwnerParams,
        plan: &P,
    ) -> Result<P::Output, ()> {
        Engine::new(&exec, op)
            .run(plan)
            .map(|(out, _)| out)
            .map_err(|_| ())
    }
    Verdicts {
        psi: run(exec, op, &plans::Psi).map(|o| o.fop),
        psi_verified: run(exec, op, &plans::PsiVerified).map(|o| o.fop),
        psu_verified: run(exec, op, &plans::PsuVerified),
        count_verified: run(exec, op, &plans::CountVerified),
        sum_verified: run(exec, op, &plans::SumVerified { attr: 0, seed: 12 }),
        max: run(exec, op, &max_plan(fx)),
        median: run(exec, op, &median_plan(fx)).map(median_rows),
    }
}

/// Run `plan` through a **fresh** PSI-round cache twice (cold, then
/// warm): the cold pass must be indistinguishable from the bare backend,
/// the warm pass must return the identical output, and both passes'
/// round counts are reported so the caller can pin the savings.
fn run_plan_cached<P: Operation>(
    exec: &dyn ServerExec,
    op: &OwnerParams,
    plan: &P,
    tampers: &[(usize, Tamper)],
    cold_rounds: &mut Vec<usize>,
    warm_rounds: &mut Vec<usize>,
) -> P::Output
where
    P::Output: PartialEq + std::fmt::Debug,
{
    let cache = PsiRoundCache::new(Default::default());
    for &(s, t) in tampers {
        cache.note_tamper(s, t == Tamper::Honest);
    }
    let cexec = CachedExec::new(exec, &cache);
    let (cold, s1) = Engine::new(&cexec, op).run(plan).unwrap();
    let (warm, s2) = Engine::new(&cexec, op).run(plan).unwrap();
    assert_eq!(warm, cold, "warm pass diverged from the cold pass");
    cold_rounds.push(s1.rounds());
    warm_rounds.push(s2.rounds());
    cold
}

/// The honest operation surface with every plan run through the cache
/// decorator (fresh cache per plan, two passes each). Returns the cold
/// surface plus the warm passes' round counts.
fn cached_surface(exec: &dyn ServerExec, fx: &Fixture) -> (Surface, Vec<usize>) {
    let op = &fx.setup.owner;
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let none: &[(usize, Tamper)] = &[];
    let psi = run_plan_cached(exec, op, &plans::Psi, none, &mut cold, &mut warm).fop;
    let psi_verified =
        run_plan_cached(exec, op, &plans::PsiVerified, none, &mut cold, &mut warm).fop;
    let psu = run_plan_cached(exec, op, &plans::Psu, none, &mut cold, &mut warm);
    let psu_verified = run_plan_cached(exec, op, &plans::PsuVerified, none, &mut cold, &mut warm);
    let count = run_plan_cached(exec, op, &plans::Count, none, &mut cold, &mut warm);
    let count_verified =
        run_plan_cached(exec, op, &plans::CountVerified, none, &mut cold, &mut warm);
    let sum = run_plan_cached(
        exec,
        op,
        &plans::Sum { attr: 0, seed: 11 },
        none,
        &mut cold,
        &mut warm,
    );
    let sum_verified = run_plan_cached(
        exec,
        op,
        &plans::SumVerified { attr: 0, seed: 12 },
        none,
        &mut cold,
        &mut warm,
    );
    let avg = run_plan_cached(
        exec,
        op,
        &plans::Average { attr: 0, seed: 13 },
        none,
        &mut cold,
        &mut warm,
    )
    .iter()
    .map(|c| (c.sum, c.count))
    .collect();
    let qb = QueryBatch::new().sum(0).avg(0).count_tuples();
    let batch = run_plan_cached(
        exec,
        op,
        &plans::Batch {
            batch: &qb,
            seed: 14,
        },
        none,
        &mut cold,
        &mut warm,
    );
    let max = run_plan_cached(exec, op, &max_plan(fx), none, &mut cold, &mut warm);
    let median = median_rows(run_plan_cached(
        exec,
        op,
        &median_plan(fx),
        none,
        &mut cold,
        &mut warm,
    ));
    (
        Surface {
            psi,
            psi_verified,
            psu,
            psu_verified,
            count,
            count_verified,
            sum,
            sum_verified,
            avg,
            batch,
            max,
            median,
            rounds: cold,
        },
        warm,
    )
}

/// Everything the delta path shares across backends: the grown
/// [`Fixture`] (grown role views, every owner's *delta* share columns per
/// server, the grown owner-side value columns) and the `pf_s1`/`pf_s2`
/// extension blocks for the in-process backends.
struct DeltaFixture {
    grown: Fixture,
    start: usize,
    e1: prism_core::Permutation,
    e2: prism_core::Permutation,
}

/// Appended-segment rows per owner, as (global cell, value): four new
/// cells 25..=28; the delta intersection is {25, 28}.
fn delta_rows() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(25, 40), (26, 7), (28, 3)],
        vec![(25, 10), (27, 2), (28, 5)],
        vec![(25, 60), (28, 1)],
    ]
}

fn delta_fixture(fx: &Fixture) -> DeltaFixture {
    const ADDED: usize = 4;
    let start = DOMAIN;
    let grown = fx.setup.grow(ADDED, 1, SEED).unwrap();
    // The verification copies are permuted by the appended *block*
    // (block-diagonal growth).
    let bdb1 = grown.family.pf_db1.tail_block(start).unwrap();
    let bdb2 = grown.family.pf_db2.tail_block(start).unwrap();
    let e1 = grown.family.pf_s1.tail_block(start).unwrap();
    let e2 = grown.family.pf_s2.tail_block(start).unwrap();
    let op = &grown.owner;
    let mut columns = Vec::new();
    let mut maxima = fx.maxima.clone();
    let mut sums = fx.sums.clone();
    for (j, owner_rows) in delta_rows().iter().enumerate() {
        let cells = owner_rows.iter().map(|&(c, x)| (c, [x]));
        let table = OwnerTable::window(cells, 1, start, ADDED).unwrap();
        let mut prg = Prg::from_seed(SEED ^ (1700 + j as u64));
        let blocks = (&bdb1, &bdb2);
        columns.push(owner_uploads(
            &table,
            op,
            blocks,
            ColumnSet::full(1),
            &mut prg,
        ));
        maxima[j].extend_from_slice(&table.maxima[0]);
        sums[j].extend_from_slice(&table.sums[0]);
    }
    let grown = Fixture {
        setup: grown,
        columns,
        maxima,
        sums,
    };
    DeltaFixture {
        grown,
        start,
        e1,
        e2,
    }
}

/// [`Backend::run`] on honest nodes with `dfx`'s delta uploads applied
/// after Phase 1.
fn run_delta<R>(
    backend: Backend,
    fx: &Fixture,
    dfx: &DeltaFixture,
    f: impl FnOnce(&dyn ServerExec) -> R,
) -> R {
    backend.run_with(fx, Some(dfx), &[], AnnouncerTamper::Honest, f)
}

/// [`surface`] over the grown domain: same operations, grown owner
/// params, grown owner-side value columns.
fn delta_surface(exec: &dyn ServerExec, dfx: &DeltaFixture) -> Surface {
    surface(exec, &dfx.grown)
}

/// Delta uploads preserve the central invariant: after appending four
/// cells (with real, non-identity permutation-extension blocks), every
/// operation — including the verified variants, whose permuted copies
/// exercise the grown `pf_s1`/`pf_s2` — is bit-identical on every
/// backend, every shard count, both transports.
#[test]
fn delta_uploads_bit_identical_on_every_backend() {
    let fx = fixture();
    let dfx = delta_fixture(&fx);
    let reference = run_delta(Backend::InMemory, &fx, &dfx, |e| delta_surface(e, &dfx));
    // Grown intersection: Phase-1 {1, 7, 24} plus delta {25, 28}.
    assert_eq!(reference.count, 5);
    let mut want_sum = vec![0u64; DOMAIN + 4];
    for (cell, total) in [(0, 700), (6, 60), (23, 19), (24, 110), (27, 9)] {
        want_sum[cell] = total;
    }
    assert_eq!(reference.sum, want_sum);
    assert_eq!(
        reference.rounds,
        vec![1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 2],
        "growth must not change any round budget"
    );
    for backend in all_backends() {
        let got = run_delta(backend, &fx, &dfx, |e| delta_surface(e, &dfx));
        assert_eq!(got, reference, "{backend:?} diverged after a delta upload");
    }
}

#[test]
fn every_operation_bit_identical_on_every_backend() {
    let fx = fixture();
    let reference = Backend::InMemory.run(&fx, &[], AnnouncerTamper::Honest, |e| surface(e, &fx));
    // Sanity-pin the reference itself: the paper's round budget.
    assert_eq!(
        reference.rounds,
        vec![1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 2],
        "psi..batch, max (3 rounds), median (2 rounds)"
    );
    assert!(!reference.max.0.is_empty(), "fixture has common cells");
    for backend in all_backends() {
        let got = backend.run(&fx, &[], AnnouncerTamper::Honest, |e| surface(e, &fx));
        assert_eq!(got, reference, "{backend:?} diverged from InMemoryExec");
    }
}

/// The cache decorator must be invisible on a cold cache (results and
/// round counts bit-identical to the bare backend) and strictly cheaper
/// on a warm one — on every backend, every shard count.
#[test]
fn cache_decorator_invisible_cold_and_strictly_cheaper_warm() {
    let fx = fixture();
    let reference = Backend::InMemory.run(&fx, &[], AnnouncerTamper::Honest, |e| surface(e, &fx));
    // Warm round budget: the cache-eligible rounds (plain PSI/PSU/count
    // round 1, and the z-seed-pinned plain aggregation round 2 of
    // sum/avg/batch) each save exactly one round; the verified rounds
    // and the wide (max/median) rounds always hit the servers.
    let expected_warm = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 2, 1];
    for backend in all_backends() {
        let (cold, warm) = backend.run(&fx, &[], AnnouncerTamper::Honest, |e| {
            cached_surface(e, &fx)
        });
        assert_eq!(
            cold, reference,
            "{backend:?} cold cache diverged from the bare backend"
        );
        assert_eq!(
            warm, expected_warm,
            "{backend:?} warm cache round budget diverged"
        );
    }
}

/// Tampered rounds bypass the cache: the failure-injection verdicts must
/// be identical with the decorator on (cold *and* warm) and off.
#[test]
fn cache_decorator_preserves_tamper_verdicts_on_every_backend() {
    let fx = fixture();
    let tamper = Tamper::InjectFake { cell: 2, seed: 9 };
    let tampers = [(0usize, tamper)];
    let reference =
        Backend::InMemory.run(&fx, &tampers, AnnouncerTamper::Honest, |e| verdicts(e, &fx));
    assert!(reference.psi_verified.is_err(), "tamper must bite");
    for backend in all_backends() {
        let got = backend.run(&fx, &tampers, AnnouncerTamper::Honest, |e| {
            let cache = PsiRoundCache::new(Default::default());
            for &(s, t) in &tampers {
                cache.note_tamper(s, t == Tamper::Honest);
            }
            let cexec = CachedExec::new(e, &cache);
            let cold = verdicts(&cexec, &fx);
            let warm = verdicts(&cexec, &fx);
            assert_eq!(warm, cold, "{backend:?} warm tampered verdicts diverged");
            assert_eq!(
                cache.metrics().get(Counter::CacheHits),
                0,
                "{backend:?} served a tampered round"
            );
            cold
        });
        assert_eq!(got, reference, "{backend:?} cached verdicts diverged");
    }
}

#[test]
fn server_tampers_produce_identical_verdicts_on_every_backend() {
    let fx = fixture();
    for tamper in [
        Tamper::SkipReplay { src: 0 },
        Tamper::InjectFake { cell: 2, seed: 9 },
        Tamper::TruncateFrom { from: 3 },
    ] {
        let reference = Backend::InMemory.run(&fx, &[(0, tamper)], AnnouncerTamper::Honest, |e| {
            verdicts(e, &fx)
        });
        // The tamper must actually bite the verified round-1 path.
        assert!(reference.psi_verified.is_err(), "{tamper:?} undetected");
        for backend in all_backends() {
            let got = backend.run(&fx, &[(0, tamper)], AnnouncerTamper::Honest, |e| {
                verdicts(e, &fx)
            });
            assert_eq!(got, reference, "{backend:?} diverged under {tamper:?}");
        }
    }
}

#[test]
fn announcer_tampers_produce_identical_verdicts_on_every_backend() {
    let fx = fixture();
    for tamper in [
        AnnouncerTamper::AnnounceSlot(1),
        AnnouncerTamper::FakeValue { seed: 7 },
    ] {
        let reference = Backend::InMemory.run(&fx, &[], tamper, |e| verdicts(e, &fx));
        // Fabricated values can never decode: every backend must reject.
        if matches!(tamper, AnnouncerTamper::FakeValue { .. }) {
            assert!(reference.max.is_err(), "fake max value escaped detection");
            assert!(
                reference.median.is_err(),
                "fake median value escaped detection"
            );
        }
        // Announcer tampers leave the vector-round operations untouched.
        assert!(reference.psi_verified.is_ok());
        for backend in all_backends() {
            let got = backend.run(&fx, &[], tamper, |e| verdicts(e, &fx));
            assert_eq!(got, reference, "{backend:?} diverged under {tamper:?}");
        }
    }
}
