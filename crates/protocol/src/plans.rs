//! Round plans: every PRISM operation expressed as an [`Operation`] the
//! engine can execute over any transport.
//!
//! Each plan is the owner-side orchestration of one query from the paper —
//! PSI (§5), PSU (§7), the aggregations over PSI (§6), and their
//! verification rounds — written once against [`Ctx`]'s narrow API.
//! `driver::Cluster` (in-process) and `prism_net::NetCluster`
//! (channel/TCP) both run queries by constructing these exact types, so
//! there is no per-harness protocol logic anywhere.
//!
//! [`QueryBatch`] is the multi-aggregation plan: several §6 aggregations
//! over one PSI result, evaluated in a single round-2 round-trip via
//! [`BatchQuery`](crate::engine::BatchQuery).

use crate::average::{self, AvgCell};
use crate::count;
use crate::engine::{
    AnnouncerCmd, AnnouncerReply, BatchItem, Ctx, Operation, QueryOp, ServerCmd, ServerExec,
    ServerReply,
};
use crate::error::{ProtocolError, Result};
use crate::max::{self, MaxCell};
use crate::median::{self, MedianCell};
use crate::multiattr;
use crate::params::{OwnerParams, SHAMIR_SERVERS};
use crate::psi;
use crate::psu;
use crate::sum;
use prism_core::wide::WideVec;
use prism_core::{PolyTable, Prg, ProductDomain};
use std::mem::take;

/// The two additive servers (round-1 ops).
const ADDITIVE: [usize; 2] = [0, 1];
/// All three Shamir servers (round-2 aggregation ops).
const SHAMIR: [usize; 3] = [0, 1, 2];

/// Default cells per max/median pipeline chunk (bounds peak memory to
/// ~chunk × m wide shares per server). Both harness facades —
/// `driver::Cluster` and `prism_net::NetCluster` — use this exact value,
/// so round counts and chunk-seeded blinding match across backends by
/// construction.
pub const DEFAULT_CELL_CHUNK: usize = 1 << 16;

/// PSI outcome: the combined Equation-4 vector plus its decodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsiOutcome {
    /// Raw combined vector (Equation 4).
    pub fop: Vec<u64>,
    /// Per-cell membership.
    pub members: Vec<bool>,
    /// Common cell indices.
    pub common: Vec<usize>,
}

impl PsiOutcome {
    /// §5.1 Step 3 on the two servers' Equation-3 outputs.
    fn decode(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<PsiOutcome> {
        let (fop, members, common) = psi::owner_decode(out1, out2, op)?;
        Ok(PsiOutcome {
            fop,
            members,
            common,
        })
    }
}

/// PSI (§5.1): one round over the additive servers.
#[derive(Debug, Clone, Copy)]
pub struct Psi;

impl Operation for Psi {
    type Output = PsiOutcome;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<PsiOutcome> {
        let outs = ctx.query(&ADDITIVE, &[BatchItem::plain(QueryOp::Psi)], |_| Vec::new())?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            PsiOutcome::decode(&outs[0][0], &outs[1][0], op)
        })
    }
}

/// PSI with result verification (§5.2). Both the Equation-3 and the
/// Equation-7 rounds ride in one batched round-trip; fails if any server
/// tampered.
#[derive(Debug, Clone, Copy)]
pub struct PsiVerified;

impl Operation for PsiVerified {
    type Output = PsiOutcome;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<PsiOutcome> {
        let items = [
            BatchItem::plain(QueryOp::Psi),
            BatchItem::plain(QueryOp::PsiVerify),
        ];
        let outs = ctx.query(&ADDITIVE, &items, |_| Vec::new())?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            let outcome = PsiOutcome::decode(&outs[0][0], &outs[1][0], op)?;
            psi::owner_verify(&outcome.fop, &outs[0][1], &outs[1][1], op)?;
            Ok(outcome)
        })
    }
}

/// PSU (§7): one round; decodes to union membership.
#[derive(Debug, Clone, Copy)]
pub struct Psu;

impl Operation for Psu {
    type Output = Vec<bool>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<bool>> {
        let outs = ctx.query(&ADDITIVE, &[BatchItem::plain(QueryOp::Psu)], |_| Vec::new())?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            psu::owner_membership(&outs[0][0], &outs[1][0], op)
        })
    }
}

/// PSU with two-copy verification (reconstruction; DESIGN.md §3.9): both
/// permuted copies are evaluated in one batched round-trip and must agree
/// on membership. Returns membership in the composed `PF_i` order.
#[derive(Debug, Clone, Copy)]
pub struct PsuVerified;

impl Operation for PsuVerified {
    type Output = Vec<bool>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<bool>> {
        let items = [
            BatchItem::plain(QueryOp::PsuVerify(1)),
            BatchItem::plain(QueryOp::PsuVerify(2)),
        ];
        let outs = ctx.query(&ADDITIVE, &items, |_| Vec::new())?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            psu::owner_verify_union((&outs[0][0], &outs[1][0]), (&outs[0][1], &outs[1][1]), op)
        })
    }
}

/// PSI cardinality (§6.5): positions are server-permuted, so only the
/// count is revealed.
#[derive(Debug, Clone, Copy)]
pub struct Count;

impl Operation for Count {
    type Output = usize;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<usize> {
        let outs = ctx.query(&ADDITIVE, &[BatchItem::plain(QueryOp::Count)], |_| {
            Vec::new()
        })?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            count::owner_count(&outs[0][0], &outs[1][0], op)
        })
    }
}

/// PSI cardinality with verification, in one batched round-trip: two
/// permuted copies (agreement catches cell-targeted forgeries) plus the
/// complement binding (catches permutation-invariant tampering). See
/// [`count::owner_verify_count_bound`].
#[derive(Debug, Clone, Copy)]
pub struct CountVerified;

impl Operation for CountVerified {
    type Output = usize;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<usize> {
        let items = [
            BatchItem::plain(QueryOp::CountVerify(1)),
            BatchItem::plain(QueryOp::CountVerify(2)),
            BatchItem::plain(QueryOp::CountVerifyComplement),
        ];
        let outs = ctx.query(&ADDITIVE, &items, |_| Vec::new())?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            count::owner_verify_count_bound(
                (&outs[0][0], &outs[1][0]),
                (&outs[0][1], &outs[1][1]),
                (&outs[0][2], &outs[1][2]),
                op,
            )
        })
    }
}

/// Round 1 + z preparation shared by every §6 aggregation that needs
/// nothing else of the PSI result: run the PSI round and turn its two
/// replies straight into the Shamir shares of the 0/1 `z` vector (one share
/// vector per server, derived from `seed`).
///
/// Every plan sends each server its z-share exactly once, so the round-2
/// `zs_for` closures *move* the vectors out (`mem::take`) instead of
/// copying 8·b bytes per server on the owner thread.
fn psi_then_z<X: ServerExec>(ctx: &mut Ctx<'_, X>, seed: u64) -> Result<Vec<Vec<u64>>> {
    let outs = ctx.query(&ADDITIVE, &[BatchItem::plain(QueryOp::Psi)], |_| Vec::new())?;
    let op = ctx.params();
    ctx.finish(outs, |outs| {
        sum::owner_share_z(&outs[0][0], &outs[1][0], op, &mut Prg::from_seed(seed))
    })
}

fn finalize_col(outs: &[&[Vec<u64>]], col: usize, op: &OwnerParams) -> Result<Vec<u64>> {
    sum::owner_finalize([&outs[0][col], &outs[1][col], &outs[2][col]], op)
}

/// PSI sum over one aggregation attribute (§6.1): two rounds.
#[derive(Debug, Clone, Copy)]
pub struct Sum {
    /// Aggregation attribute index.
    pub attr: u8,
    /// Seed for the z-share randomness.
    pub seed: u64,
}

impl Operation for Sum {
    type Output = Vec<u64>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<u64>> {
        let mut zs = psi_then_z(ctx, self.seed)?;
        let items = [BatchItem::with_z(QueryOp::Sum(self.attr), 0)];
        let outs = ctx.query(&SHAMIR, &items, |k| vec![take(&mut zs[k])])?;
        let op = ctx.params();
        ctx.finish(outs, |outs| finalize_col(outs, 0, op))
    }
}

/// PSI sum over several attributes (Table 12's workload): the attributes
/// share one PSI and one batched round 2.
#[derive(Debug, Clone)]
pub(crate) struct SumMulti {
    /// Aggregation attribute indices.
    pub attrs: Vec<u8>,
    /// Seed for the z-share randomness.
    pub seed: u64,
}

impl Operation for SumMulti {
    type Output = Vec<Vec<u64>>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<Vec<u64>>> {
        let mut zs = psi_then_z(ctx, self.seed)?;
        let items: Vec<BatchItem> = self
            .attrs
            .iter()
            .map(|&a| BatchItem::with_z(QueryOp::Sum(a), 0))
            .collect();
        let outs = ctx.query(&SHAMIR, &items, |k| vec![take(&mut zs[k])])?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            (0..self.attrs.len())
                .map(|col| finalize_col(outs, col, op))
                .collect()
        })
    }
}

/// PSI sum with permuted-copy verification: the primary and the
/// `PF_db1`-permuted evaluation share one batched round 2.
#[derive(Debug, Clone, Copy)]
pub struct SumVerified {
    /// Aggregation attribute index.
    pub attr: u8,
    /// Seed for the z-share randomness.
    pub seed: u64,
}

impl Operation for SumVerified {
    type Output = Vec<u64>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<u64>> {
        let outcome = Psi.execute(ctx)?;
        let op = ctx.params();
        let (mut zs, mut zps) = ctx.owner_step(|| {
            // z is `members` as 0/1: shared as it is read, and permuted as
            // the one-byte-per-cell vector it already is.
            let share = |members: &[bool], seed| {
                let z = |start: usize, block: &mut [u64]| {
                    for (z, &common) in block.iter_mut().zip(&members[start..]) {
                        *z = u64::from(common);
                    }
                };
                let mut prg = Prg::from_seed(seed);
                op.field.share_blocks(op.b, SHAMIR_SERVERS, &mut prg, z)
            };
            let z_shares = share(&outcome.members, self.seed);
            let zp = op.pf_db1.apply(&outcome.members);
            let zp_shares = share(&zp, self.seed ^ 0x7EE1);
            (z_shares, zp_shares)
        });
        let items = [
            BatchItem::with_z(QueryOp::Sum(self.attr), 0),
            BatchItem::with_z(QueryOp::SumVerify(self.attr), 1),
        ];
        let outs = ctx.query(&SHAMIR, &items, |k| {
            vec![take(&mut zs[k]), take(&mut zps[k])]
        })?;
        ctx.finish(outs, |outs| {
            let primary = finalize_col(outs, 0, op)?;
            let verification = finalize_col(outs, 1, op)?;
            sum::owner_verify(&primary, &verification, op)?;
            Ok(primary)
        })
    }
}

/// PSI average (§6.2): sums and tuple counts in one batched round 2.
#[derive(Debug, Clone, Copy)]
pub struct Average {
    /// Aggregation attribute index.
    pub attr: u8,
    /// Seed for the z-share randomness.
    pub seed: u64,
}

impl Operation for Average {
    type Output = Vec<AvgCell>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<AvgCell>> {
        let mut zs = psi_then_z(ctx, self.seed)?;
        let items = [
            BatchItem::with_z(QueryOp::Sum(self.attr), 0),
            BatchItem::with_z(QueryOp::SumCounts, 0),
        ];
        let outs = ctx.query(&SHAMIR, &items, |k| vec![take(&mut zs[k])])?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            let mut cells = Vec::with_capacity(op.b);
            sum::owner_finalize_columns(outs, items.len(), op, |cols, rows| {
                cells.extend(average::cells_of(&cols[0][rows.clone()], &cols[1][rows]));
            })?;
            Ok(cells)
        })
    }
}

/// One aggregation inside a [`QueryBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// PSI sum over an attribute (§6.1).
    Sum(u8),
    /// PSI average over an attribute (§6.2).
    Avg(u8),
    /// Per-cell tuple counts over the intersection (average's count side
    /// on its own).
    CountTuples,
}

/// One aggregation's result inside a batch, parallel to
/// [`QueryBatch::aggs`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggResult {
    /// Result of [`Aggregate::Sum`].
    Sums(Vec<u64>),
    /// Result of [`Aggregate::Avg`].
    Avg(Vec<AvgCell>),
    /// Result of [`Aggregate::CountTuples`].
    Counts(Vec<u64>),
}

/// Several aggregations over **one** PSI result, evaluated in a single
/// round-2 round-trip: one PSI round, then one [`BatchQuery`] per server
/// carrying every requested column pass (shared columns are evaluated
/// once — sum+avg over the same attribute costs one server pass).
///
/// [`BatchQuery`]: crate::engine::BatchQuery
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryBatch {
    /// The aggregations to evaluate, in result order.
    pub aggs: Vec<Aggregate>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> QueryBatch {
        QueryBatch::default()
    }

    /// Append a sum over `attr`.
    pub fn sum(mut self, attr: u8) -> Self {
        self.aggs.push(Aggregate::Sum(attr));
        self
    }

    /// Append an average over `attr`.
    pub fn avg(mut self, attr: u8) -> Self {
        self.aggs.push(Aggregate::Avg(attr));
        self
    }

    /// Append per-cell tuple counts.
    pub fn count_tuples(mut self) -> Self {
        self.aggs.push(Aggregate::CountTuples);
        self
    }
}

/// The plan executing a [`QueryBatch`].
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    /// The aggregations to run.
    pub batch: &'a QueryBatch,
    /// Seed for the z-share randomness.
    pub seed: u64,
}

impl Operation for Batch<'_> {
    type Output = Vec<AggResult>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<AggResult>> {
        let mut zs = psi_then_z(ctx, self.seed)?;
        // Dedup the server passes: one Sum(attr) item per distinct
        // attribute, at most one SumCounts item, whatever the aggs ask.
        let mut items: Vec<BatchItem> = Vec::new();
        let mut sum_col: Vec<(u8, usize)> = Vec::new();
        let mut counts_col: Option<usize> = None;
        for agg in &self.batch.aggs {
            if let Aggregate::Sum(a) | Aggregate::Avg(a) = *agg {
                if !sum_col.iter().any(|&(attr, _)| attr == a) {
                    items.push(BatchItem::with_z(QueryOp::Sum(a), 0));
                    sum_col.push((a, items.len() - 1));
                }
            }
            if matches!(agg, Aggregate::Avg(_) | Aggregate::CountTuples) && counts_col.is_none() {
                items.push(BatchItem::with_z(QueryOp::SumCounts, 0));
                counts_col = Some(items.len() - 1);
            }
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let outs = ctx.query(&SHAMIR, &items, |k| vec![take(&mut zs[k])])?;
        let op = ctx.params();
        ctx.finish(outs, |outs| {
            // The finalized column an aggregate hands out as-is (averages
            // derive fresh cells and only read).
            let col_of = |agg: &Aggregate| match *agg {
                Aggregate::Sum(a) => sum_col.iter().find(|&&(attr, _)| attr == a).map(|c| c.1),
                Aggregate::CountTuples => counts_col,
                Aggregate::Avg(_) => None,
            };
            let aggs = &self.batch.aggs;
            // Averages are derived block by block as their two columns are
            // finalized, while those rows are still in cache ...
            let mut avgs: Vec<(usize, usize, Vec<AvgCell>)> = aggs
                .iter()
                .enumerate()
                .filter_map(|(i, agg)| match *agg {
                    Aggregate::Avg(a) => {
                        let sums = col_of(&Aggregate::Sum(a)).expect("Avg added its Sum item");
                        Some((i, sums, Vec::with_capacity(op.b)))
                    }
                    _ => None,
                })
                .collect();
            let mut finalized =
                sum::owner_finalize_columns(outs, items.len(), op, |cols, rows| {
                    for (_, sums, cells) in &mut avgs {
                        let counts = &cols[counts_col.expect("Avg added the counts item")];
                        cells.extend(average::cells_of(
                            &cols[*sums][rows.clone()],
                            &counts[rows.clone()],
                        ));
                    }
                })?;
            let mut results: Vec<Option<AggResult>> = aggs.iter().map(|_| None).collect();
            for (i, _, cells) in avgs {
                results[i] = Some(AggResult::Avg(cells));
            }
            // ... then each column moves into its last taker; only an
            // aggregate repeated later in the batch still copies.
            for (i, agg) in aggs.iter().enumerate() {
                let Some(col) = col_of(agg) else { continue };
                let values = if aggs[i + 1..].iter().any(|later| col_of(later) == Some(col)) {
                    finalized[col].clone()
                } else {
                    take(&mut finalized[col])
                };
                results[i] = Some(match agg {
                    Aggregate::CountTuples => AggResult::Counts(values),
                    _ => AggResult::Sums(values),
                });
            }
            Ok(results.into_iter().flatten().collect())
        })
    }
}

/// Check a wide round's receipt: the server must report having forwarded a
/// `cells × m`-row matrix to the announcer. Servers are malicious in this
/// threat model, so a missing or mis-shaped forward is a protocol error at
/// the owner — never trusted silently (a zero receipt is the wire's
/// failure marker).
fn expect_forwarded(reply: ServerReply, cells: usize, m: usize) -> Result<()> {
    match reply {
        ServerReply::WideForwarded { rows, width, .. }
            if rows as usize == cells * m && width > 0 =>
        {
            Ok(())
        }
        ServerReply::WideForwarded { .. } => Err(ProtocolError::MalformedResponse(
            "server forwarded a wide matrix of the wrong shape to the announcer",
        )),
        _ => Err(ProtocolError::MalformedResponse(
            "expected a wide-forward receipt from max round",
        )),
    }
}

/// Check a claim round's reply: the owner-major fpos table, one column of
/// `cells` claim shares per owner.
fn expect_fpos(reply: ServerReply, cells: usize, m: usize) -> Result<Vec<Vec<u64>>> {
    match reply {
        ServerReply::Fpos(f) if f.len() == m && f.iter().all(|column| column.len() == cells) => {
            Ok(f)
        }
        ServerReply::Fpos(_) => Err(ProtocolError::MalformedResponse(
            "fpos table does not cover the announced cells",
        )),
        _ => Err(ProtocolError::MalformedResponse(
            "expected fpos output from claim round",
        )),
    }
}

/// Round 2 of max and median over one chunk of common cells: each owner
/// checks its values lie in the aggregation domain and blinds them
/// through `F` — read from `table` when there is one, evaluated per cell
/// otherwise — then both additive servers combine the blinded shares for
/// the announcer. Returns every owner's own blinded values (max verifies
/// against them); `seed(j)` seeds owner `j`'s blinding.
fn blind_and_combine<X: ServerExec>(
    ctx: &mut Ctx<'_, X>,
    values: &[&[u64]],
    common: &[usize],
    table: Option<&PolyTable>,
    seed: impl Fn(usize) -> u64,
) -> Result<Vec<WideVec>> {
    let op = ctx.params();
    let threads = ctx.threads;
    let m = values.len();
    // What the blinding can represent: the table's rows, within the
    // domain the wide group was sized for.
    let hi = table.map_or(op.agg_domain_max, |t| t.hi().min(op.agg_domain_max));
    let mut up1 = Vec::with_capacity(m);
    let mut up2 = Vec::with_capacity(m);
    let own_blinded = ctx.each_owner(m, |j| {
        max::owner_check_domain(j, values[j], common, hi)?;
        let (a, b, own) = match table {
            Some(t) => max::owner_blind_maxima_tab(values[j], common, t, op, seed(j), threads),
            None => max::owner_blind_maxima(values[j], common, op, &mut Prg::from_seed(seed(j))),
        };
        up1.push(a);
        up2.push(b);
        Ok(own)
    })?;
    let threads = threads as u32;
    let mut replies = ctx.round(vec![
        (
            0,
            ServerCmd::MaxCombine {
                uploads: up1,
                threads,
            },
        ),
        (
            1,
            ServerCmd::MaxCombine {
                uploads: up2,
                threads,
            },
        ),
    ])?;
    expect_forwarded(replies.pop().unwrap(), common.len(), m)?;
    expect_forwarded(replies.pop().unwrap(), common.len(), m)?;
    Ok(own_blinded)
}

/// PSI maximum (§6.3, all three rounds) with built-in verification.
///
/// `values[j]` is owner j's per-cell maxima column — owner-side data that
/// never left the owners, so the constructing harness must supply it. The
/// per-common-cell pipeline (blind → permute → announce → decode → claim)
/// runs in bounded chunks of `cell_chunk` cells so memory stays flat even
/// when millions of cells are common. A value above the aggregation
/// domain at a common cell is the owner's input error,
/// [`ProtocolError::OutOfDomain`], found before anything is blinded.
#[derive(Debug)]
pub struct Max<'a> {
    /// Per-owner per-cell maxima (owner order).
    pub values: Vec<&'a [u64]>,
    /// An F-table to run from instead of the owner view's own
    /// ([`OwnerParams::poly_table`]). `None` — what every caller in this
    /// repository passes — uses the view's table, which is built once per
    /// parameter set, or evaluates `F` per cell past `POLY_TABLE_LIMIT`.
    /// Kept only because the repo benchmark names the field.
    pub table: Option<&'a PolyTable>,
    /// Base seed for the owners' blinding randomness.
    pub seed: u64,
    /// Cells per pipeline chunk.
    pub cell_chunk: usize,
}

impl Operation for Max<'_> {
    type Output = (Vec<MaxCell>, Vec<Vec<bool>>);

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Self::Output> {
        let m = self.values.len();
        let outcome = Psi.execute(ctx)?;
        let op = ctx.params();
        let table = self.table.or(op.poly_table());
        let threads = ctx.threads;
        let chunk_size = self.cell_chunk.max(1);

        let mut decoded_all = Vec::with_capacity(outcome.common.len());
        let mut holders_all = Vec::with_capacity(outcome.common.len());
        for (chunk_no, common) in outcome.common.chunks(chunk_size).enumerate() {
            // Round 2: blind (per-owner max time), combine, announce.
            let own_blinded = blind_and_combine(ctx, &self.values, common, table, |j| {
                self.seed ^ (j as u64 + 0xB11D) ^ ((chunk_no as u64) << 24)
            })?;
            let ann = match ctx.announce(AnnouncerCmd::FindMax)? {
                AnnouncerReply::Max(a) => a,
                AnnouncerReply::Median(_) => {
                    return Err(ProtocolError::MalformedResponse(
                        "announcer replied median to a max request",
                    ))
                }
            };

            let (decoded, announced) = ctx.try_owner_step(|| match table {
                Some(t) => max::owner_decode_max_tab(common, &ann, t, op, threads),
                None => max::owner_decode_max(common, &ann, op),
            })?;

            // Round 3: identities of all max holders.
            let mut claims1 = Vec::with_capacity(m);
            let mut claims2 = Vec::with_capacity(m);
            ctx.each_owner(m, |j| {
                let mut prg =
                    Prg::from_seed(self.seed ^ (j as u64 + 0xC1A1) ^ ((chunk_no as u64) << 24));
                let (a, b) = max::owner_claim_bits(self.values[j], &decoded, op, &mut prg);
                claims1.push(a);
                claims2.push(b);
                Ok(())
            })?;
            let mut replies = ctx.round(vec![
                (0, ServerCmd::AssembleFpos { claims: claims1 }),
                (1, ServerCmd::AssembleFpos { claims: claims2 }),
            ])?;
            let fpos2 = expect_fpos(replies.pop().unwrap(), decoded.len(), m)?;
            let fpos1 = expect_fpos(replies.pop().unwrap(), decoded.len(), m)?;
            let holders = ctx.try_owner_step(|| max::owner_decode_fpos(&fpos1, &fpos2, op))?;

            // Every owner verifies against its own contribution.
            ctx.each_owner(m, |j| {
                max::owner_verify_max(&own_blinded[j], &announced, &decoded, &holders)
            })?;

            decoded_all.extend(decoded);
            holders_all.extend(holders);
        }
        Ok((decoded_all, holders_all))
    }
}

/// PSI median (§6.4): like [`Max`] through the server round, with the
/// announcer returning the middle element(s) and no claim round.
///
/// `values[j]` is owner j's per-cell *sums* column (§6.4 aggregates each
/// owner's summed contribution). As for [`Max`], a sum above the
/// aggregation domain at a common cell is [`ProtocolError::OutOfDomain`]
/// here, though sum and average accept it.
#[derive(Debug)]
pub struct Median<'a> {
    /// Per-owner per-cell summed values (owner order).
    pub values: Vec<&'a [u64]>,
    /// An F-table to run from instead of the owner view's own; `None`
    /// uses the view's (see [`Max::table`]). Kept only because the repo
    /// benchmark names the field.
    pub table: Option<&'a PolyTable>,
    /// Base seed for the owners' blinding randomness.
    pub seed: u64,
    /// Cells per pipeline chunk.
    pub cell_chunk: usize,
}

impl Operation for Median<'_> {
    type Output = Vec<MedianCell>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<MedianCell>> {
        let outcome = Psi.execute(ctx)?;
        let op = ctx.params();
        let table = self.table.or(op.poly_table());
        let chunk_size = self.cell_chunk.max(1);

        let mut cells_all = Vec::with_capacity(outcome.common.len());
        for (chunk_no, common) in outcome.common.chunks(chunk_size).enumerate() {
            blind_and_combine(ctx, &self.values, common, table, |j| {
                self.seed ^ (j as u64 + 0xED1A) ^ ((chunk_no as u64) << 24)
            })?;
            let ann = match ctx.announce(AnnouncerCmd::FindMedian)? {
                AnnouncerReply::Median(a) => a,
                AnnouncerReply::Max(_) => {
                    return Err(ProtocolError::MalformedResponse(
                        "announcer replied max to a median request",
                    ))
                }
            };

            let decoded = ctx.try_owner_step(|| match table {
                Some(t) => median::owner_decode_median_tab(common, &ann, t, op),
                None => median::owner_decode_median(common, &ann, op),
            })?;
            cells_all.extend(decoded);
        }
        Ok(cells_all)
    }
}

/// PSI over a product domain (§6.6): plain PSI plus owner-side decoding of
/// common cells back into attribute tuples.
#[derive(Debug)]
pub(crate) struct PsiTuples<'a> {
    /// The product domain the cluster's cells were laid out over.
    pub domain: &'a ProductDomain,
}

impl Operation for PsiTuples<'_> {
    type Output = Vec<Vec<u64>>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Vec<Vec<u64>>> {
        let outcome = Psi.execute(ctx)?;
        Ok(ctx.owner_step(|| multiattr::decode_common_tuples(&outcome.fop, self.domain)))
    }
}
