//! The per-column owner sums a node keeps at ingest, against recomputation.
//!
//! A node answers every stored-column round from one pre-summed column,
//! and keeps nothing per owner but row counts and epochs: a put extends an
//! owner's rows, a fold adds a difference at a new epoch. These properties
//! drive random ingest sequences — puts, folds, growth one owner at a
//! time, unreduced values, and the writes a node must refuse: a re-sent
//! epoch, a duplicated or stale fold, a second or wrong-length put, an
//! owner too many — against 1- and 3-shard domains. A mirror keeps every
//! owner's columns, applies the same rules, and must refuse exactly what
//! the node refuses; after **every** step every `QueryOp`, whole-domain
//! and range-scoped, is compared with the pinned multi-column `_into`
//! kernels run over the mirror's columns: the outputs must be
//! bit-identical, or both sides must refuse with a `ParameterMismatch`.
//! An ingest path that forgets the sum, or adds one twice, fails here.

use prism_core::Prg;
use prism_protocol::engine::{
    BatchItem, BatchQuery, Column, QueryOp, ServerCmd, ServerNode, ServerReply,
};
use prism_protocol::malicious::Tamper;
use prism_protocol::params::{Initiator, ServerParams, SystemConfig};
use prism_protocol::shard::{merge_shard_outputs, shard_server_params, ShardSpec};
use prism_protocol::{pool, psi, psu, sum, ProtocolError, ShardedNode};
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

/// The domain's per-owner columns as the pre-accumulator store kept them:
/// `cols[kind][owner]`, canonical, in global rows, nothing summed — and
/// each column's fold epoch, under the rules the node applies.
#[derive(Clone, Default)]
struct Mirror {
    cols: [Vec<Vec<u64>>; COLUMNS.len()],
    epochs: [Vec<u64>; COLUMNS.len()],
}

fn kind(column: Column) -> usize {
    COLUMNS
        .iter()
        .position(|&c| c == column)
        .expect("a column of this test")
}

fn modulus(column: Column, sp: &ServerParams) -> u64 {
    column.ring(sp.delta, sp.field.p)
}

impl Mirror {
    fn held(&self, owner: usize, column: Column) -> (usize, u64) {
        let k = kind(column);
        let rows = self.cols[k].get(owner).map_or(0, Vec::len);
        (rows, self.epochs[k].get(owner).copied().unwrap_or(0))
    }

    /// A put of `columns` at `start` into a `b`-row domain: accepted iff
    /// every column extends its owner's rows inside the domain.
    fn put(
        &mut self,
        owner: usize,
        start: usize,
        columns: &[(Column, Vec<u64>)],
        b: usize,
        sp: &ServerParams,
    ) -> bool {
        let fits = |(c, d): &(Column, Vec<u64>)| {
            !d.is_empty() && self.held(owner, *c).0 == start && start + d.len() <= b
        };
        if owner >= OWNERS || !columns.iter().all(fits) {
            return false;
        }
        for (column, data) in columns {
            let n = modulus(*column, sp);
            let k = kind(*column);
            if self.cols[k].len() <= owner {
                self.cols[k].resize(owner + 1, Vec::new());
                self.epochs[k].resize(owner + 1, 0);
            }
            self.cols[k][owner].extend(data.iter().map(|v| v % n));
        }
        true
    }

    /// A fold of `columns` at `epoch`: accepted iff the owner holds every
    /// one of the `b` rows of each column and `epoch` is past its last.
    fn fold(
        &mut self,
        owner: usize,
        epoch: u64,
        columns: &[(Column, Vec<u64>)],
        b: usize,
        sp: &ServerParams,
    ) -> bool {
        let fits = |(c, d): &(Column, Vec<u64>)| {
            let (rows, last) = self.held(owner, *c);
            rows == b && d.len() == b && epoch > last
        };
        if owner >= OWNERS || !columns.iter().all(fits) {
            return false;
        }
        for (column, data) in columns {
            let n = modulus(*column, sp);
            let k = kind(*column);
            for (v, d) in self.cols[k][owner].iter_mut().zip(data) {
                *v = (*v + d % n) % n;
            }
            self.epochs[k][owner] = epoch;
        }
        true
    }

    /// Every owner's rows of `column` inside the shard `spec`.
    fn shard(&self, column: Column, spec: &ShardSpec) -> Vec<&[u64]> {
        let end = spec.start + spec.len;
        self.cols[kind(column)]
            .iter()
            .map(|col| col.get(spec.start..end.min(col.len())).unwrap_or(&[]))
            .collect()
    }
}

/// What the engine did before it kept sums: resolve the range, slice every
/// owner's column, run the multi-column kernel.
fn shard_reference(
    shard: Vec<&[u64]>,
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
    let owners: Vec<&[u64]> = shard
        .into_iter()
        .map(|col| match &rows {
            None => col,
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

/// A sharded domain beside the mirror of its owners' columns.
struct Pair {
    node: ShardedNode,
    mirror: Mirror,
    /// Rows of the latest appended epoch.
    last_added: usize,
    /// The last fold epoch handed out.
    epoch: u64,
}

/// Node and mirror must agree on whether a write is refused, and the node
/// refuses with the typed error.
fn agree(node: prism_protocol::Result<()>, mirror: bool, ctx: &str) -> bool {
    match node {
        Ok(()) => assert!(mirror, "{ctx}: the node took a write the mirror refuses"),
        Err(ProtocolError::UploadRefused(_)) => {
            assert!(!mirror, "{ctx}: the node refused a write the mirror takes")
        }
        Err(other) => panic!("{ctx}: expected an UploadRefused, got {other:?}"),
    }
    mirror
}

impl Pair {
    fn new(sp: &ServerParams, shards: usize) -> Pair {
        Pair {
            node: ShardedNode::new(sp.clone(), shards),
            mirror: Mirror::default(),
            last_added: 0,
            epoch: 0,
        }
    }

    /// A put of one column at global row `start`; true iff taken.
    fn put(&mut self, owner: usize, column: Column, start: usize, data: Vec<u64>) -> bool {
        let (sp, b) = (self.node.params().clone(), self.node.params().b);
        let columns = vec![(column, data)];
        let taken = self.mirror.put(owner, start, &columns, b, &sp);
        let ctx = format!("put of {column:?} by owner {owner} at {start}");
        agree(self.node.put(owner, start, columns), taken, &ctx)
    }

    /// Phase 1: a whole column, which must be taken.
    fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        assert!(self.put(owner, column, 0, data), "a Phase-1 put");
    }

    /// A fold of fresh difference shares into one owner's column at
    /// `epoch`; true iff taken.
    fn fold(&mut self, owner: usize, column: Column, epoch: u64, prg: &mut Prg) -> bool {
        let (sp, b) = (self.node.params().clone(), self.node.params().b);
        let columns = vec![(column, shares(b, modulus(column, &sp), prg))];
        let taken = self.mirror.fold(owner, epoch, &columns, b, &sp);
        let ctx = format!("fold of {column:?} by owner {owner} at epoch {epoch}");
        agree(self.node.fold(owner, epoch, columns), taken, &ctx)
    }

    /// One owner's delta over every column at `start`: growth at the
    /// domain end, else a write to the latest epoch; true iff taken.
    fn delta(&mut self, owner: usize, start: usize, added: usize, prg: &mut Prg) -> bool {
        let sp = self.node.params().clone();
        let columns: Vec<(Column, Vec<u64>)> = COLUMNS
            .iter()
            .map(|&c| (c, shares(added, modulus(c, &sp), prg)))
            .collect();
        let end = start + added;
        let in_epoch = if end > sp.b {
            start == sp.b
        } else {
            end == sp.b
        };
        let taken = in_epoch && self.mirror.put(owner, start, &columns, end, &sp);
        let ctx = format!("delta by owner {owner} at [{start}, {end})");
        agree(
            self.node.delta_upload(owner, start, columns, None),
            taken,
            &ctx,
        )
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
                    .split_batch(&mut batch.clone())
                    .expect("z covers the scope");
                let want = self
                    .node
                    .plan()
                    .specs()
                    .iter()
                    .zip(&subs)
                    .map(|(spec, sub)| {
                        let sp = shard_server_params(domain, spec);
                        let shard = self.mirror.shard(op.column()?, spec);
                        shard_reference(shard, &sp, op, &sub.zs[0], sub.range).map(|v| vec![v])
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .and_then(|per| merge_shard_outputs(&per, &batch, domain, &Tamper::Honest))
                    .map(|mut v| v.remove(0));
                match (got, want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(g, w, "{op:?} {scope:?} {ctx}");
                        // The reply goes back to the pool, so the next
                        // round — another operation, the other scope —
                        // writes into it as it is (poisoned, in a debug
                        // build).
                        pool::recycle_vec(g);
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
            // A fold at a fresh epoch (most steps: the store stays
            // complete, so outputs — not errors — are compared).
            0..=2 => {
                pair.epoch += 1;
                assert!(
                    pair.fold(owner, column, pair.epoch, &mut prg),
                    "a fresh fold"
                );
            }
            // Growth: every owner appends the same new epoch, in turn; the
            // store is incomplete until the last one has.
            3 | 4 => {
                let added = 1 + size % 9;
                for j in 0..OWNERS {
                    assert!(pair.delta(j, b, added, &mut prg), "growth by owner {j}");
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
                let resent = pair.delta(owner, b - pair.last_added, pair.last_added, &mut prg);
                assert!(!resent, "a re-sent epoch");
            }
            // A second put of a held column — short, long or empty — or
            // rows past the domain end.
            5 | 6 => {
                let (start, len) = [
                    (0, b - 1 - size % b),
                    (0, b + 1 + size % 5),
                    (0, 0),
                    (b, 1 + size % 3),
                ][size % 4];
                let taken = pair.put(owner, column, start, shares(len, n, &mut prg));
                assert!(!taken, "a second or wrong-length put");
            }
            // A duplicated or stale fold, or an owner the deployment does
            // not have.
            _ if size % 2 == 0 => {
                let last = pair.mirror.held(owner, column).1;
                let stale = last - (size / 2) as u64 % (last + 1);
                assert!(!pair.fold(owner, column, stale, &mut prg), "a stale fold");
            }
            _ => assert!(!pair.put(OWNERS, column, 0, shares(b, n, &mut prg))),
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
    // One owner put a short OK column: rounds over it are refused, and a
    // put that overlaps the held rows or leaves a gap is refused too;
    // putting exactly the missing rows completes the column and the
    // answers return.
    let psi = BatchQuery {
        items: vec![BatchItem::plain(QueryOp::Psi)],
        threads: 1,
        ..BatchQuery::default()
    };
    for (shards, threads) in [(1usize, 1u32), (3, 2)] {
        let setup = Initiator::new(SystemConfig::new(OWNERS, DOMAIN).with_seed(9))
            .setup()
            .expect("setup");
        let sp = &setup.servers[0];
        let mut prg = Prg::from_seed(9);
        let mut pair = Pair::new(sp, shards);
        let held = 13;
        let (ok, n) = (Column::Ok, sp.delta);
        for owner in 0..OWNERS {
            for column in COLUMNS {
                let mut data = shares(DOMAIN, modulus(column, sp), &mut prg);
                if (owner, column) == (1, ok) {
                    data.truncate(held);
                }
                assert!(pair.put(owner, column, 0, data));
            }
        }
        let whole = (0, DOMAIN as u64);
        pair.check(whole, threads, &mut prg, "short column");
        assert!(pair.node.execute(&ServerCmd::Run(psi.clone())).is_err());
        assert!(
            !pair.put(1, ok, held - 1, shares(2, n, &mut prg)),
            "overlap"
        );
        assert!(!pair.put(1, ok, held + 1, shares(2, n, &mut prg)), "gap");
        assert!(pair.put(1, ok, held, shares(DOMAIN - held, n, &mut prg)));
        pair.check(whole, threads, &mut prg, "repaired column");
        assert!(pair.node.execute(&ServerCmd::Run(psi.clone())).is_ok());
        run(
            shards,
            &[(3, 0, 0, 5), (5, 1, 0, 0), (0, 2, 4, 0)],
            10,
            threads,
        );
    }
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
            pool::recycle_vecs(got);
        }
        pair.check((0, DOMAIN as u64), threads, &mut prg, &ctx);

        for owner in 0..OWNERS {
            assert!(pair.delta(owner, DOMAIN, 5, &mut prg));
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
