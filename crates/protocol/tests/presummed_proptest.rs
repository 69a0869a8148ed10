//! The per-column owner sums a node keeps at ingest, against recomputation.
//!
//! A node answers every stored-column round from one pre-summed column
//! that `store`, a replacing `store`, `append` and `delta_upload` maintain.
//! These properties drive random ingest sequences — honest uploads,
//! replacements, growth one owner at a time, re-sent epochs, unreduced
//! values, wrong-length columns, an owner too many — against 1- and
//! 3-shard domains, and after **every** step compare every `QueryOp`,
//! whole-domain and range-scoped, with the pinned multi-column `_into`
//! kernels run over a plain mirror of the per-owner columns: the outputs
//! must be bit-identical, or both sides must refuse with a
//! `ParameterMismatch`. An ingest path that forgets the sum fails here.

use prism_core::Prg;
use prism_protocol::engine::{
    BatchItem, BatchQuery, Column, QueryOp, ServerCmd, ServerNode, ServerReply,
};
use prism_protocol::malicious::Tamper;
use prism_protocol::params::{Initiator, ServerParams, SystemConfig};
use prism_protocol::shard::{merge_shard_outputs, shard_server_params};
use prism_protocol::{psi, psu, sum, ProtocolError, ShardedNode};
use proptest::collection::vec;
use proptest::prelude::*;

const OWNERS: usize = 3;
const DOMAIN: usize = 20;

const COLUMNS: [Column; 7] = [
    Column::Ok,
    Column::VOk,
    Column::OkDb1,
    Column::OkDb2,
    Column::Agg(0),
    Column::VAgg(0),
    Column::AOk,
];

/// Every operation, plus a copy selector no column answers to.
const OPS: [QueryOp; 13] = [
    QueryOp::Psi,
    QueryOp::PsiVerify,
    QueryOp::Psu,
    QueryOp::PsuVerify(1),
    QueryOp::PsuVerify(2),
    QueryOp::PsuVerify(3),
    QueryOp::Count,
    QueryOp::CountVerify(1),
    QueryOp::CountVerify(2),
    QueryOp::Sum(0),
    QueryOp::SumVerify(0),
    QueryOp::SumCounts,
    QueryOp::CountVerifyComplement,
];

/// One shard's per-owner columns as the pre-accumulator store kept them:
/// `cols[kind][owner]`, canonical, nothing summed.
#[derive(Clone, Default)]
struct Mirror {
    cols: [Vec<Vec<u64>>; COLUMNS.len()],
}

fn kind(column: Column) -> usize {
    COLUMNS
        .iter()
        .position(|&c| c == column)
        .expect("a column of this test")
}

fn modulus(column: Column, sp: &ServerParams) -> u64 {
    match column {
        Column::Agg(_) | Column::VAgg(_) | Column::AOk => sp.field.p,
        _ => sp.delta,
    }
}

impl Mirror {
    /// Replace `owner`'s rows from `start` on, zero-padding up to `start`.
    fn write(&mut self, owner: usize, column: Column, start: usize, data: &[u64], n: u64) {
        let owners = &mut self.cols[kind(column)];
        if owners.len() <= owner {
            owners.resize(owner + 1, Vec::new());
        }
        owners[owner].resize(start, 0);
        owners[owner].extend(data.iter().map(|v| v % n));
    }
}

/// What the engine did before it kept sums: resolve the range, slice every
/// owner's column, run the multi-column kernel.
fn shard_reference(
    mirror: &Mirror,
    sp: &ServerParams,
    op: QueryOp,
    z: &[u64],
    range: Option<(u64, u64)>,
) -> Result<Vec<u64>, ProtocolError> {
    let mismatch = |what: &str| ProtocolError::ParameterMismatch(what.into());
    let mut sub = sp.clone();
    let mut rows = None;
    if let Some((start, len)) = range {
        if op.finish_perm(sp)?.is_some() {
            return Err(mismatch("permuted rounds cannot be range-scoped"));
        }
        let local = (start as usize)
            .checked_sub(sp.row_offset)
            .filter(|l| l + len as usize <= sp.b)
            .ok_or_else(|| mismatch("range outside the shard"))?;
        sub.b = len as usize;
        sub.row_offset += local;
        rows = Some(local..local + len as usize);
    }
    let owners: Vec<&[u64]> = mirror.cols[kind(op.column()?)]
        .iter()
        .map(|col| match &rows {
            None => col.as_slice(),
            Some(r) => col.get(r.clone()).unwrap_or(&[]),
        })
        .collect();
    let mut out = vec![0u64; sub.b];
    let table = sub.power_table();
    match op {
        QueryOp::Psi | QueryOp::Count | QueryOp::CountVerify(_) => {
            psi::server_psi_round_into(&owners, &sub, &table, &mut out, 1)?
        }
        QueryOp::PsiVerify | QueryOp::CountVerifyComplement => {
            psi::server_psi_verify_round_into(&owners, &sub, &table, &mut out, 1)?
        }
        QueryOp::Psu | QueryOp::PsuVerify(_) => {
            psu::server_psu_round_into(&owners, &psu::blinding_for(&sub), &sub, &mut out, 1)?
        }
        QueryOp::Sum(_) | QueryOp::SumVerify(_) | QueryOp::SumCounts => {
            sum::server_sum_round_into(&owners, z, &sub, &mut out, 1)?
        }
    }
    Ok(out)
}

/// A sharded domain beside the mirrors of its shards.
struct Pair {
    node: ShardedNode,
    mirrors: Vec<Mirror>,
    /// Rows of the latest appended epoch.
    last_added: usize,
}

impl Pair {
    fn new(sp: &ServerParams, shards: usize) -> Pair {
        let node = ShardedNode::new(sp.clone(), shards);
        let mirrors = vec![Mirror::default(); node.shard_count()];
        Pair {
            node,
            mirrors,
            last_added: 0,
        }
    }

    fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        let n = modulus(column, self.node.params());
        for (mirror, part) in self
            .mirrors
            .iter_mut()
            .zip(self.node.plan().split_rows(&data))
        {
            mirror.write(owner, column, 0, part, n);
        }
        self.node.store(owner, column, data);
    }

    /// One owner's delta over every column at `start`; the mirror follows
    /// the node's plan to the shard that took it.
    fn delta(&mut self, owner: usize, start: usize, added: usize, prg: &mut Prg) {
        let sp = self.node.params().clone();
        let columns: Vec<(Column, Vec<u64>)> = COLUMNS
            .iter()
            .map(|&c| (c, shares(added, modulus(c, &sp), prg)))
            .collect();
        self.node
            .delta_upload(owner, start, columns.clone(), None)
            .expect("a contiguous delta");
        self.mirrors
            .resize(self.node.shard_count(), Mirror::default());
        let spec = *self
            .node
            .plan()
            .specs()
            .iter()
            .find(|s| s.start <= start && start + added <= s.start + s.len)
            .expect("the delta landed in one shard");
        for (column, data) in &columns {
            let n = modulus(*column, &sp);
            self.mirrors[spec.index].write(owner, *column, start - spec.start, data, n);
        }
    }

    /// Every operation, whole-domain and over `range`, node against mirror.
    fn check(&self, range: (u64, u64), threads: u32, prg: &mut Prg, ctx: &str) {
        let domain = self.node.params();
        for scope in [None, Some(range)] {
            let cells = scope.map_or(domain.b, |(_, len)| len as usize);
            for op in OPS {
                // z comes with the query, unreduced.
                let z: Vec<u64> = (0..cells).map(|_| prg.next_u64()).collect();
                let batch = BatchQuery {
                    zs: vec![z.clone()],
                    items: vec![BatchItem::with_z(op, 0)],
                    threads,
                    range: scope,
                };
                let got = self
                    .node
                    .execute(&ServerCmd::Run(batch.clone()))
                    .map(|r| match r {
                        ServerReply::Vectors(mut v) => v.remove(0),
                        other => panic!("unexpected reply {other:?}"),
                    });
                let subs = self
                    .node
                    .plan()
                    .split_batch(&batch)
                    .expect("z covers the scope");
                let want = self
                    .node
                    .plan()
                    .specs()
                    .iter()
                    .zip(&self.mirrors)
                    .zip(&subs)
                    .map(|((spec, mirror), sub)| {
                        let sp = shard_server_params(domain, spec);
                        shard_reference(mirror, &sp, op, &sub.zs[0], sub.range).map(|v| vec![v])
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .and_then(|per| merge_shard_outputs(&per, &batch, domain, &Tamper::Honest))
                    .map(|mut v| v.remove(0));
                match (got, want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(g, w, "{op:?} {scope:?} {ctx}");
                        // The reply goes home, so the next round — another
                        // operation, the other scope — writes into it as
                        // it is (poisoned, in a debug build).
                        self.node.reclaim(vec![g]);
                    }
                    (
                        Err(ProtocolError::ParameterMismatch(_)),
                        Err(ProtocolError::ParameterMismatch(_)),
                    ) => {}
                    (g, w) => panic!("{op:?} {scope:?} {ctx}: node {g:?}, reference {w:?}"),
                }
            }
        }
    }
}

/// `len` shares for a ring of size `n`; about one in eight is unreduced.
fn shares(len: usize, n: u64, prg: &mut Prg) -> Vec<u64> {
    (0..len)
        .map(|_| match prg.below(8) {
            0 => prg.next_u64(),
            _ => prg.below(n),
        })
        .collect()
}

/// One ingest step: `(kind, owner, column, size)`, read per kind below.
type Step = (u8, usize, usize, usize);

fn run(shards: usize, steps: &[Step], seed: u64, threads: u32) {
    let setup = Initiator::new(SystemConfig::new(OWNERS, DOMAIN).with_seed(seed))
        .setup()
        .expect("setup");
    let sp = &setup.servers[0];
    let mut prg = Prg::from_seed(seed ^ 0x5EED);
    let mut pair = Pair::new(sp, shards);
    // Phase 1, checking the incomplete store on the way up.
    for owner in 0..OWNERS {
        for column in COLUMNS {
            let data = shares(DOMAIN, modulus(column, sp), &mut prg);
            pair.store(owner, column, data);
        }
        pair.check(
            (0, DOMAIN as u64),
            threads,
            &mut prg,
            &format!("phase 1, owner {owner}"),
        );
    }
    for (i, &(what, owner, column, size)) in steps.iter().enumerate() {
        let b = pair.node.params().b;
        let column = COLUMNS[column % COLUMNS.len()];
        let n = modulus(column, sp);
        let owner = owner % OWNERS;
        match what % 8 {
            // A replacing store of the right length (most steps: keeps the
            // store complete, so outputs — not errors — are compared).
            0..=2 => pair.store(owner, column, shares(b, n, &mut prg)),
            // Growth: every owner appends the same new epoch, in turn; the
            // store is incomplete until the last one has.
            3 | 4 => {
                let added = 1 + size % 9;
                for j in 0..OWNERS {
                    pair.delta(j, b, added, &mut prg);
                    let range = (b as u64, added as u64);
                    pair.check(
                        range,
                        threads,
                        &mut prg,
                        &format!("step {i}, growth by owner {j}"),
                    );
                }
                pair.last_added = added;
            }
            // One owner re-sends the latest epoch with new values.
            5 if pair.last_added > 0 => {
                pair.delta(owner, b - pair.last_added, pair.last_added, &mut prg);
            }
            // A wrong-length store: short, long or empty.
            5 | 6 => {
                let len = [b - 1 - size % b, b + 1 + size % 5, 0][size % 3];
                pair.store(owner, column, shares(len, n, &mut prg));
            }
            // An owner the deployment does not have.
            _ => pair.store(OWNERS, column, shares(b, n, &mut prg)),
        }
        let b = pair.node.params().b;
        let start = size % b;
        let range = (start as u64, (1 + (size / 7) % (b - start)) as u64);
        pair.check(
            range,
            threads,
            &mut prg,
            &format!("step {i} {:?}", steps[i]),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn node_answers_equal_recomputation_after_every_ingest_step(
        steps in vec((0u8..8, 0usize..OWNERS, 0usize..COLUMNS.len(), 0usize..1000), 1..10),
        seed in 0u64..1 << 20,
        threads in 1u32..4,
    ) {
        for shards in [1usize, 3] {
            run(shards, &steps, seed, threads);
        }
    }
}

#[test]
fn a_repaired_column_answers_again() {
    // short → refused; the replacing store of the right length retires the
    // short column's rows from the sum and the answers return.
    run(1, &[(6, 1, 0, 3), (0, 1, 0, 0)], 9, 1);
    run(
        3,
        &[(6, 2, 4, 4), (0, 2, 4, 0), (3, 0, 0, 5), (5, 1, 0, 0)],
        10,
        2,
    );
}

/// Every owner's every column stored: a complete `shards`-way domain (and
/// its mirrors) over server 0's parameters.
fn complete(shards: usize, seed: u64) -> (Pair, Prg) {
    let setup = Initiator::new(SystemConfig::new(OWNERS, DOMAIN).with_seed(seed))
        .setup()
        .expect("setup");
    let sp = &setup.servers[0];
    let mut prg = Prg::from_seed(seed ^ 0xB10C);
    let mut pair = Pair::new(sp, shards);
    for owner in 0..OWNERS {
        for column in COLUMNS {
            pair.store(owner, column, shares(DOMAIN, modulus(column, sp), &mut prg));
        }
    }
    (pair, prg)
}

/// Every `(shards, threads)` division the rounds are checked under.
fn divisions() -> impl Iterator<Item = (usize, u32)> {
    [1, 2, 3, 7]
        .into_iter()
        .flat_map(|shards| [1, 2, 3, 5].map(|threads| (shards, threads)))
}

/// A round is one division of the rows: `threads` blocks per shard, never
/// across a shard boundary, every block evaluating every item. The 20-row
/// domain divides by neither 3 nor 7 and is shorter than 5·7, so the grid
/// covers uneven blocks, shards too short to cut, and — over **every**
/// window — ranges that start and end inside a block, span several shards
/// and skip whole ones. Every operation (PSU's blinding offset on each
/// block boundary included) must equal the multi-column reference kernels;
/// then the domain grows (possibly by a shard) and is checked again.
#[test]
fn every_division_equals_the_reference_over_every_window() {
    for (shards, threads) in divisions() {
        let (pair, mut prg) = complete(shards, 31);
        for start in 0..DOMAIN {
            for len in 1..=DOMAIN - start {
                let ctx = format!("shards={shards} threads={threads}");
                pair.check((start as u64, len as u64), threads, &mut prg, &ctx);
            }
        }
        run(
            shards,
            &[(3, 0, 0, 6), (5, 1, 0, 0), (4, 0, 0, 8), (0, 2, 1, 3)],
            33,
            threads,
        );
    }
}

/// Reply buffers return to the node and are handed out again as they are,
/// so a cell a round did not write would show the previous round's (in a
/// debug build: the poison). At every division: a round that fails midway
/// (its first items already written) then good ones, whole-domain and
/// range-scoped rounds alternating (`check` does both per operation, so
/// same-length buffers are reused and other lengths dropped), a
/// three-item batch twice over its own returned buffers, and an append
/// between two queries (the old-length buffers must not be resized into
/// the grown domain).
#[test]
fn reply_buffers_that_came_home_never_show_through() {
    let plain = BatchItem::plain;
    for (shards, threads) in divisions() {
        let ctx = format!("shards={shards} threads={threads}");
        let (mut pair, mut prg) = complete(shards, 34);
        let run = |pair: &Pair, items: Vec<BatchItem>| {
            let cmd = ServerCmd::Run(BatchQuery {
                zs: vec![],
                items,
                threads,
                range: None,
            });
            pair.node.execute(&cmd).map(|r| match r {
                ServerReply::Vectors(v) => v,
                other => panic!("unexpected reply {other:?}"),
            })
        };
        let midway = |pair: &Pair| {
            let items = [QueryOp::Psi, QueryOp::Count, QueryOp::Sum(0)].map(plain);
            match run(pair, items.to_vec()) {
                Err(ProtocolError::ParameterMismatch(msg)) if msg.contains("without a z") => {}
                other => panic!("{ctx}: expected the z-less Sum to fail the round, got {other:?}"),
            }
        };
        let trio = [QueryOp::Psi, QueryOp::Psu, QueryOp::CountVerify(2)].map(plain);
        let (untouched, _) = complete(shards, 34);
        let want: Vec<Vec<u64>> = trio
            .iter()
            .map(|&item| run(&untouched, vec![item]).expect("one item").remove(0))
            .collect();

        midway(&pair);
        pair.check(
            (3, 11),
            threads,
            &mut prg,
            &format!("{ctx}, after a failed round"),
        );
        for pass in 0..3 {
            let got = run(&pair, trio.to_vec()).expect("three items");
            assert_eq!(got, want, "{ctx}, pass {pass} over returned buffers");
            pair.node.reclaim(got);
        }
        pair.check((0, DOMAIN as u64), threads, &mut prg, &ctx);

        for owner in 0..OWNERS {
            pair.delta(owner, DOMAIN, 5, &mut prg);
        }
        midway(&pair);
        pair.check(
            (DOMAIN as u64, 5),
            threads,
            &mut prg,
            &format!("{ctx}, grown"),
        );
    }
}

/// The refusals a round makes before (short `z`, bad `z` index, permuted
/// op under a range, range outside the domain) and inside its blocks
/// (aggregation without `z`, a missing owner) are the same typed errors at
/// every division, through a sharded domain and through a bare node.
#[test]
fn malformed_batches_are_refused_alike_at_every_division() {
    fn refused(reply: Result<ServerReply, ProtocolError>, needle: &str, ctx: &str) {
        match reply {
            Err(ProtocolError::ParameterMismatch(msg)) if msg.contains(needle) => {}
            other => panic!("{ctx}: expected a mismatch naming {needle:?}, got {other:?}"),
        }
    }
    let sum = |z| BatchItem::with_z(QueryOp::Sum(0), z);
    for (shards, threads) in divisions() {
        let (pair, mut prg) = complete(shards, 32);
        let sp = pair.node.params().clone();
        let mut bare = ServerNode::new(sp.clone());
        let mut short = ServerNode::new(sp.clone());
        let mut short_pair = Pair::new(&sp, shards);
        for owner in 0..OWNERS {
            for column in COLUMNS {
                let data = shares(DOMAIN, modulus(column, &sp), &mut prg);
                bare.store(owner, column, data.clone());
                if owner + 1 < OWNERS {
                    short.store(owner, column, data.clone());
                    short_pair.store(owner, column, data);
                }
            }
        }
        let batch = |zs: Vec<Vec<u64>>, items: Vec<BatchItem>, range| {
            ServerCmd::Run(BatchQuery {
                zs,
                items,
                threads,
                range,
            })
        };
        let z = |cells: usize| vec![vec![1u64; cells]];
        let cases = [
            (batch(z(DOMAIN - 1), vec![sum(0)], None), "z vector"),
            (batch(z(4), vec![sum(0)], Some((3, 5))), "z vector"),
            (batch(z(DOMAIN), vec![sum(0), sum(1)], None), "z index 1"),
            (
                batch(vec![], vec![BatchItem::plain(QueryOp::Sum(0))], None),
                "without a z vector",
            ),
            (
                batch(
                    vec![],
                    vec![
                        BatchItem::plain(QueryOp::Psi),
                        BatchItem::plain(QueryOp::Count),
                    ],
                    Some((2, 6)),
                ),
                "cannot be range-scoped",
            ),
            (
                batch(vec![], vec![BatchItem::plain(QueryOp::Psi)], Some((15, 6))),
                "lies outside",
            ),
            (
                batch(
                    vec![],
                    vec![BatchItem::plain(QueryOp::Psi)],
                    Some((u64::MAX, 2)),
                ),
                "lies outside",
            ),
        ];
        for (cmd, needle) in &cases {
            let ctx = format!("shards={shards} threads={threads} {needle}");
            refused(pair.node.execute(cmd), needle, &ctx);
            refused(bare.execute(cmd), needle, &format!("bare node, {ctx}"));
        }
        // One owner never uploaded: whole-domain and scoped alike.
        for range in [None, Some((6, 9))] {
            let cmd = batch(vec![], vec![BatchItem::plain(QueryOp::Psu)], range);
            let ctx = format!("shards={shards} threads={threads} missing owner {range:?}");
            refused(short_pair.node.execute(&cmd), "owners, got 2", &ctx);
            refused(short.execute(&cmd), "owners, got 2", &ctx);
        }
    }
}
