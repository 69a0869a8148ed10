//! Sharded-domain execution: row-range shards behind one [`ServerExec`].
//!
//! PRISM's evaluation scales each server's domain to 5M–20M cells (§8),
//! but a monolithic `ColumnStore` bounds every round by one node's memory
//! bandwidth. This module splits a domain into **row-range shards** — shard
//! `i` owns global rows `[start_i, start_i + len_i)` of every stored column
//! — each held by its own [`ServerNode`]:
//!
//! * [`ShardPlan`] is the row partition: contiguous ranges covering
//!   `0..b`, the same for every column and every owner, so a global row
//!   index means the same row at every layer.
//! * [`Domain`] is a domain's rulebook for writes — its parameters and
//!   its plan, with the cut, the fold check, the delta rule and growth
//!   (with its undo) each written once. [`ServerNode`], [`ShardedNode`]
//!   and the wire router (`prism_net::router`) all write through one, so
//!   no deployment takes what another refuses.
//! * [`shard_server_params`] derives a shard node's [`ServerParams`]:
//!   `b` shrinks to the range length, `row_offset` keeps positional
//!   streams (the PSU blinding PRG) aligned with the global cell order,
//!   and the finish permutations become identities — **a shard never
//!   permutes**, because `PF_s1`/`PF_s2` are defined over the whole
//!   domain.
//! * [`ShardedNode`] is the domain front-end: it splits Phase-1 uploads by
//!   rows and answers [`ServerCmd::Run`] with the **same round function**
//!   as a monolithic [`ServerNode`] (`engine::run_round`), handed its
//!   shard nodes in row order. In-process the shards are therefore not
//!   sub-queries but the row ranges of one division: every shard's rows
//!   are cut into one block per worker the round is worth (`threads` at
//!   most, never across a shard boundary; `chunk::workers_for`), worker
//!   `w` evaluates block `w` of every shard for every batch item straight
//!   into the domain-length reply buffers, `z` vectors are borrowed, not
//!   copied per shard, and the domain-level [`Tamper`] and finish
//!   permutation are applied once, exactly where the monolithic node
//!   applies them. Results are therefore bit-identical for every shard
//!   count.
//! * [`ShardedExec`] implements [`ServerExec`] over sharded nodes, so
//!   every existing plan runs unchanged on 1..k shards; each round counts
//!   how many shards its rows were cut across as
//!   [`Counter::ShardDispatches`], which
//!   [`QueryStats`](crate::engine::QueryStats) picks up per query.
//!
//! The networked deployment's shards are remote, so its domain router
//! (`prism_net::router`) is the one caller of [`ShardPlan::split_batch`]
//! (one sub-batch per shard link, `z` row-sliced) and
//! [`merge_shard_outputs`] (reassemble → tamper → permute): the same row
//! math and the same staging, so in-process and wire sharding cannot
//! drift.

use crate::engine::{
    forward_wide, recycle_cmds, refused, run_round, Announcer, AnnouncerCmd, AnnouncerReply,
    BatchQuery, Column, RoundOutcome, ServerCmd, ServerExec, ServerNode, ServerReply,
};
use crate::error::{ProtocolError, Result};
use crate::malicious::Tamper;
use crate::metrics::{Counter, Counts};
use crate::params::ServerParams;
use crate::pool;
use prism_core::Permutation;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Rows of share columns: what every upload carries.
pub type Columns = Vec<(Column, Vec<u64>)>;

/// One row-range shard: global rows `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index within its domain.
    pub index: usize,
    /// First global row this shard owns.
    pub start: usize,
    /// Number of rows this shard owns.
    pub len: usize,
}

/// A contiguous partition of a `b`-row domain into shards.
///
/// The shard count is clamped to `1..=b` (an empty shard would be a node
/// holding nothing); ranges are balanced to within one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    b: usize,
    specs: Vec<ShardSpec>,
}

impl ShardPlan {
    /// Partition `b` rows into (up to) `shards` contiguous ranges.
    ///
    /// Balanced remainder-spreading split: the first `b % k` shards get
    /// one extra row, so every shard is non-empty for any `k ≤ b`
    /// (fixed-chunk `ceil(b/k)` slicing would strand trailing shards
    /// past the domain whenever `(k-1)·ceil(b/k) ≥ b`, e.g. `b=5, k=4`).
    pub fn new(b: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, b.max(1));
        let base = b / k;
        let rem = b % k;
        let mut start = 0;
        let specs = (0..k)
            .map(|index| {
                let len = base + usize::from(index < rem);
                let spec = ShardSpec { index, start, len };
                start += len;
                spec
            })
            .collect();
        ShardPlan { b, specs }
    }

    /// Domain size the plan covers.
    pub fn domain(&self) -> usize {
        self.b
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// The row ranges, in shard order.
    pub fn specs(&self) -> &[ShardSpec] {
        &self.specs
    }

    /// Grow the plan for a delta upload appending `added` rows at the
    /// domain end: the last range extends. Every spec keeps its `start` —
    /// and therefore every shard node keeps its `row_offset` — so the PSU
    /// blinding stream stays globally aligned without re-uploading a
    /// single row, and a fixed set of workers can hold the grown domain.
    pub fn append(&self, added: usize) -> ShardPlan {
        let mut specs = self.specs.clone();
        specs.last_mut().expect("plans are never empty").len += added;
        ShardPlan {
            b: self.b + added,
            specs,
        }
    }

    /// How many distinct row ranges a domain should carve when `workers`
    /// nodes are live and every range must be held by (up to) `rf`
    /// replicas: `ceil(workers / rf)`, clamped to `1..=b` like
    /// [`ShardPlan::new`]. With `rf = 1` this is the classic
    /// one-range-per-worker plan; with `rf = 2` six workers carve three
    /// ranges, each stored twice. When workers don't divide evenly the
    /// extra nodes thicken early ranges' replica sets rather than
    /// leaving any range uncovered.
    pub fn ranges_for(workers: usize, rf: usize, b: usize) -> usize {
        let rf = rf.max(1);
        workers.max(1).div_ceil(rf).clamp(1, b.max(1))
    }

    /// Round-robin replica assignment of `workers` nodes (by attach
    /// order) over this plan's ranges: worker `w` holds range
    /// `w % shard_count`. Returns one holder list per range, in worker
    /// order — the **first** holder of each range is its primary, the
    /// rest are standby replicas a router may fail over to. Whenever
    /// `workers >= shard_count` every range has at least one holder, and
    /// holder counts are balanced to within one.
    pub fn replica_sets(&self, workers: usize) -> Vec<Vec<usize>> {
        let mut holders = vec![Vec::new(); self.specs.len()];
        for w in 0..workers {
            holders[w % self.specs.len()].push(w);
        }
        holders
    }

    /// Split a batched query into one sub-batch per (remote) shard — what
    /// `prism_net::router` ships down its shard links; in-process domains
    /// borrow `z` per row block instead. Items are identical, auxiliary
    /// `z` vectors are row-sliced and moved out of `batch`, which keeps its
    /// shape for [`merge_shard_outputs`]: the first shard's slice, which
    /// starts every `z`, is the `z` buffer itself, truncated, and the other
    /// shards' are pooled copies. Errors, leaving `batch` whole, if any `z`
    /// does not cover the domain — or, for a range-scoped batch, the
    /// range (the monolithic node rejects the same request with the same
    /// error class). A range-scoped batch yields one sub-batch per shard
    /// with each shard's overlap of the range (possibly empty — shards
    /// outside the range evaluate nothing and reply empty rows), so the
    /// fan-out structure is identical for scoped and whole-domain rounds.
    pub fn split_batch(&self, batch: &mut BatchQuery) -> Result<Vec<BatchQuery>> {
        let expect = match batch.range {
            None => self.b,
            Some((_, len)) => len as usize,
        };
        for (i, z) in batch.zs.iter().enumerate() {
            if z.len() != expect {
                return Err(ProtocolError::ParameterMismatch(format!(
                    "batch z vector {i} has {} cells, expected {}",
                    z.len(),
                    expect
                )));
            }
        }
        // Each shard's sub-batch, beside the `z` cells it takes.
        let mut subs: Vec<(Range<usize>, BatchQuery)> = (self.specs.iter())
            .map(|s| {
                let (cells, range) = match batch.range {
                    None => (s.start..s.start + s.len, None),
                    Some((gs, glen)) => {
                        let (gs, glen) = (gs as usize, glen as usize);
                        let lo = gs.max(s.start);
                        let hi = (gs + glen).min(s.start + s.len);
                        let (lo, len) = if lo < hi { (lo, hi - lo) } else { (s.start, 0) };
                        // A shard fully outside the range gets an empty
                        // sub-range anchored at its own start; its z slice
                        // is empty, and the clamp keeps the slice
                        // arithmetic in bounds whether the shard lies
                        // before or after the range.
                        let zlo = lo.saturating_sub(gs).min(glen);
                        (zlo..zlo + len, Some((lo as u64, len as u64)))
                    }
                };
                let sub = BatchQuery {
                    zs: Vec::with_capacity(batch.zs.len()),
                    items: batch.items.clone(),
                    threads: batch.threads,
                    range,
                };
                (cells, sub)
            })
            .collect();
        for mut z in std::mem::take(&mut batch.zs) {
            for (cells, sub) in subs.iter_mut().skip(1) {
                sub.zs.push(pool::copy_of(&z[cells.clone()]));
            }
            // The first shard starts at row 0, so its cells start `z`.
            z.truncate(subs[0].0.len());
            subs[0].1.zs.push(z);
        }
        Ok(subs.into_iter().map(|(_, sub)| sub).collect())
    }

    /// Re-plan the same domain over one fewer shard: the balanced
    /// partition a registry assigns the survivors after shard `dead` is
    /// confirmed down. The whole domain is re-fanned (every survivor may
    /// shift), which is what makes the re-outsource path below correct:
    /// survivors are re-uploaded wholesale, not patched.
    pub fn without(&self, dead: usize) -> ShardPlan {
        debug_assert!(dead < self.specs.len());
        ShardPlan::new(self.b, self.specs.len().saturating_sub(1))
    }
}

/// Derive the parameter view of one row-range shard from its domain's
/// [`ServerParams`]: the domain length shrinks to the range, the global
/// row offset accumulates (so positional streams stay aligned), and the
/// finish permutations become identities — the domain front-end applies
/// the real `PF_s1`/`PF_s2` after merging, over the full row order they
/// are defined on.
pub fn shard_server_params(sp: &ServerParams, spec: &ShardSpec) -> ServerParams {
    let mut s = sp.clone();
    s.b = spec.len;
    s.row_offset = sp.row_offset + spec.start;
    s.pf_s1 = Permutation::identity(spec.len);
    s.pf_s2 = Permutation::identity(spec.len);
    s
}

/// One server domain's write rules: its parameters — the domain length
/// `b` and the finish permutations — and its row plan. A [`ServerNode`]
/// holds one over a single range, a [`ShardedNode`] one over its shard
/// nodes' ranges and the wire router one over its workers' ranges; each
/// cuts, fold-checks and grows through it. What stays per deployment is
/// how the cut reaches the ranges and who checks the rows an owner holds.
#[derive(Debug)]
pub struct Domain {
    params: ServerParams,
    plan: ShardPlan,
}

impl Domain {
    /// The domain `params` describes, split into (up to) `ranges` row
    /// ranges.
    pub fn new(params: ServerParams, ranges: usize) -> Domain {
        let plan = ShardPlan::new(params.b, ranges);
        Domain { params, plan }
    }

    /// The domain's role parameters.
    pub fn params(&self) -> &ServerParams {
        &self.params
    }

    /// The row partition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Re-split the domain into (up to) `ranges` balanced row ranges.
    pub fn replan(&mut self, ranges: usize) {
        self.plan = ShardPlan::new(self.params.b, ranges);
    }

    /// The cut: `columns`, rows from global row `start` on, split by the
    /// row plan into each range's rows of every column that reaches it
    /// (indexed like the plan's specs). Refused unless every column is
    /// non-empty and inside the domain. The first range a column reaches
    /// keeps the column's own buffer, truncated; the others get pooled
    /// copies.
    pub fn cut(&self, start: usize, columns: Columns) -> Result<Vec<Columns>> {
        let b = self.params.b;
        if let Some((column, data)) =
            (columns.iter()).find(|(_, d)| d.is_empty() || start.saturating_add(d.len()) > b)
        {
            return Err(refused(format!(
                "{column:?} rows [{start}, +{}) are empty or run past the {b}-row domain",
                data.len()
            )));
        }
        let specs = self.plan.specs();
        let mut cuts = vec![Vec::new(); specs.len()];
        for (column, mut data) in columns {
            let end = start + data.len();
            let mut reached = (specs.iter()).filter(|s| s.start < end && start < s.start + s.len);
            let first = *reached
                .next()
                .expect("rows inside the domain reach a range");
            for s in reached {
                let rows = s.start - start..(s.start + s.len).min(end) - start;
                cuts[s.index].push((column, pool::copy_of(&data[rows])));
            }
            data.truncate(first.start + first.len - start);
            cuts[first.index].push((column, data));
        }
        Ok(cuts)
    }

    /// The fold check, then the [cut](Domain::cut): a fold's difference
    /// covers the whole domain.
    pub fn cut_fold(&self, columns: Columns) -> Result<Vec<Columns>> {
        let b = self.params.b;
        if let Some((column, data)) = columns.iter().find(|(_, d)| d.len() != b) {
            return Err(refused(format!(
                "a fold of {} rows of {column:?} must cover the {b}-row domain",
                data.len()
            )));
        }
        self.cut(0, columns)
    }

    /// The delta rule, and growth with its undo: `columns`, rows from
    /// global row `start` on, either append at the domain end `b` or
    /// rewrite the latest epoch (end at `b` inside the tail range), and
    /// all have the same, non-zero length. An append grows the domain —
    /// the finish permutations block-diagonally by `ext` (identity blocks
    /// when `None`), which must cover exactly the added rows, then `b`
    /// and the plan's tail range — before `apply(params, tail, columns)`
    /// stores the rows in the tail range; if `apply` refuses them, all
    /// three shrink back. Nothing else in a server grows a domain.
    pub fn delta<E: From<ProtocolError>>(
        &mut self,
        start: usize,
        columns: Columns,
        ext: Option<(&Permutation, &Permutation)>,
        apply: impl FnOnce(&ServerParams, ShardSpec, Columns) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let b = self.params.b;
        let added = columns.first().map_or(0, |(_, data)| data.len());
        if added == 0 || columns.iter().any(|(_, d)| d.len() != added) {
            return Err(refused(
                "delta upload columns must share one non-empty appended range".into(),
            )
            .into());
        }
        let tail = *self.plan.specs().last().expect("plans are never empty");
        if start != b && (start.saturating_add(added) != b || start < tail.start) {
            return Err(refused(format!(
                "delta rows [{start}, +{added}) neither append at the domain end {b} nor \
                 rewrite its latest epoch inside the tail range"
            ))
            .into());
        }
        if start != b {
            return apply(&self.params, tail, columns);
        }
        let identity;
        let (e1, e2) = match ext {
            Some(ext) => ext,
            None => {
                identity = Permutation::identity(added);
                (&identity, &identity)
            }
        };
        if e1.len() != added || e2.len() != added {
            return Err(refused(format!(
                "permutation extension blocks must cover the appended range ({added} rows, \
                 got {} and {})",
                e1.len(),
                e2.len()
            ))
            .into());
        }
        self.params.pf_s1.extend_block(e1);
        self.params.pf_s2.extend_block(e2);
        self.params.b += added;
        let grown = self.plan.append(added);
        let plan = std::mem::replace(&mut self.plan, grown);
        let tail = *self.plan.specs().last().expect("plans are never empty");
        let applied = apply(&self.params, tail, columns);
        if applied.is_err() {
            self.params.pf_s1.truncate_block(b);
            self.params.pf_s2.truncate_block(b);
            self.params.b = b;
            self.plan = plan;
        }
        applied
    }
}

/// Merge remote shards' batch outputs (the router's half of
/// [`ShardPlan::split_batch`]) into the single per-server reply the
/// plans expect: concatenate each item's shard rows back into global row
/// order, apply the domain-level tampering behaviour, then the
/// operation's domain-level finish permutation — the same
/// *compute → tamper → permute* staging as the monolithic
/// [`ServerNode`], so results are bit-identical for every shard count.
///
/// `per_shard[s][i]` is shard `s`'s output for batch item `i`. Shards are
/// untrusted transport-wise (a wire deployment may run them as separate
/// processes), so shapes are validated, never indexed blindly. The merged
/// rows land in pooled buffers; the caller recycles the shards' own.
pub fn merge_shard_outputs(
    per_shard: &[Vec<Vec<u64>>],
    batch: &BatchQuery,
    domain: &ServerParams,
    tamper: &Tamper,
) -> Result<Vec<Vec<u64>>> {
    for outs in per_shard {
        if outs.len() != batch.items.len() {
            return Err(ProtocolError::MalformedResponse(
                "shard replied with the wrong number of batch outputs",
            ));
        }
    }
    let expect = match batch.range {
        None => domain.b,
        Some((_, len)) => len as usize,
    };
    let mut merged = Vec::with_capacity(batch.items.len());
    for (i, item) in batch.items.iter().enumerate() {
        if per_shard.iter().map(|outs| outs[i].len()).sum::<usize>() != expect {
            return Err(ProtocolError::MalformedResponse(
                "shard rows do not reassemble to the domain length",
            ));
        }
        let mut full = pool::take_empty(expect);
        for outs in per_shard {
            full.extend_from_slice(&outs[i]);
        }
        tamper.apply(&mut full);
        merged.push(match item.op.finish_perm(domain)? {
            Some(p) => {
                let mut permuted = pool::take(expect);
                p.apply_into(&full, &mut permuted);
                pool::recycle_vec(full);
                permuted
            }
            None => full,
        });
    }
    Ok(merged)
}

/// One server *domain* backed by row-range shard nodes.
///
/// This is the drop-in replacement for a monolithic [`ServerNode`] on the
/// server side of the wall: Phase-1 uploads are split by rows, a stored-
/// column round is one row-block division over all the shard nodes'
/// rows, and the domain-level tampering behaviour plus finish
/// permutations are applied to the domain-length output (shard nodes are
/// always honest and never permute — a malicious *server* controls its
/// domain front-end, which is exactly where [`Tamper`] attaches).
///
/// Wide-share commands (max/median rounds) are parameter-only — they touch
/// no stored columns — and run on shard 0's node verbatim.
#[derive(Debug)]
pub struct ShardedNode {
    domain: Domain,
    tamper: Tamper,
    shards: Vec<ServerNode>,
}

impl ShardedNode {
    /// A domain with empty storage split into `shards` row ranges.
    pub fn new(params: ServerParams, shards: usize) -> ShardedNode {
        let domain = Domain::new(params, shards);
        let shards = (domain.plan.specs().iter())
            .map(|spec| ServerNode::new(shard_server_params(&domain.params, spec)))
            .collect();
        ShardedNode {
            domain,
            tamper: Tamper::Honest,
            shards,
        }
    }

    /// This domain's (unsharded) role parameters.
    pub fn params(&self) -> &ServerParams {
        self.domain.params()
    }

    /// The row partition.
    pub fn plan(&self) -> &ShardPlan {
        self.domain.plan()
    }

    /// Number of shard nodes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard nodes, in row order (the golden share-digest test reads
    /// their stores back through this).
    #[cfg(test)]
    pub(crate) fn shard_nodes(&self) -> &[ServerNode] {
        &self.shards
    }

    /// Attach a domain-level tampering behaviour (tests). Applied to every
    /// merged stored-column output, pre-permutation — the same corruption
    /// point as the monolithic node.
    pub fn set_tamper(&mut self, tamper: Tamper) {
        self.tamper = tamper;
    }

    /// Delta upload: append `columns` rows `[start, start + added)` to an
    /// owner's outsourced columns, by the domain's [delta
    /// rule](Domain::delta). Growth (`start == b`) extends the domain's
    /// finish permutations block-diagonally with `perm_ext` (identity
    /// blocks when `None`) and the last shard's range, without moving any
    /// shard's `row_offset`; a re-touch of the latest epoch lands in the
    /// last shard too. Either way only that shard's range version moves —
    /// and only that shard's owner sums: the shard node puts the appended
    /// rows into each carried column's `Σ_j`; every other shard's sums
    /// stay as they are. A delta the shard refuses (a re-sent epoch, an
    /// owner whose rows it does not extend) leaves the domain unchanged.
    pub fn delta_upload(
        &mut self,
        owner: usize,
        start: usize,
        columns: Columns,
        perm_ext: Option<(&Permutation, &Permutation)>,
    ) -> Result<()> {
        self.check_extends(owner, start, &columns)?;
        let shards = &mut self.shards;
        self.domain
            .delta(start, columns, perm_ext, |_, tail, columns| {
                shards[tail.index].delta_upload(owner, start - tail.start, columns, None)
            })
    }

    /// Phase 1: put one owner's whole share column (see
    /// [`ShardedNode::put`]).
    ///
    /// # Panics
    ///
    /// If the put is refused, as [`ServerNode::store`] does.
    pub fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        if let Err(e) = self.put(owner, 0, vec![(column, data)]) {
            panic!("store of {column:?} for owner {owner}: {e}");
        }
    }

    /// Refuses rows of `columns` from global row `start` on unless each
    /// column's held rows — a prefix, summed over the shards — end there:
    /// a shard only sees its own rows, so a gap or overlap across a shard
    /// boundary is the domain's to catch.
    fn check_extends(
        &self,
        owner: usize,
        start: usize,
        columns: &[(Column, Vec<u64>)],
    ) -> Result<()> {
        for (column, _) in columns {
            let held: usize = self
                .shards
                .iter()
                .map(|n| n.held_rows(owner, *column))
                .sum();
            if held != start {
                return Err(refused(format!(
                    "owner {owner} holds rows [0, {held}) of {column:?}: a put at row {start} \
                     must extend them"
                )));
            }
        }
        Ok(())
    }

    /// Put `owner`'s shares of the listed columns at global row `start`,
    /// [cut](Domain::cut) by the row plan, each shard node taking its rows
    /// of them into its own owner sum (see [`ServerNode::put`]), so the
    /// domain's `Σ_j` is the concatenation of the shards' and no query
    /// ever adds across owners. All or nothing over every shard.
    pub fn put(&mut self, owner: usize, start: usize, columns: Columns) -> Result<()> {
        self.check_extends(owner, start, &columns)?;
        let cuts = self.domain.cut(start, columns)?;
        let parts: Vec<(usize, usize, Columns)> = (self.domain.plan.specs().iter().zip(cuts))
            .filter(|(_, cols)| !cols.is_empty())
            .map(|(spec, cols)| (spec.index, start.saturating_sub(spec.start), cols))
            .collect();
        for (shard, local, cols) in &parts {
            self.shards[*shard].check_put(owner, *local, cols)?;
        }
        for (shard, local, cols) in parts {
            self.shards[shard].put(owner, local, cols)?;
        }
        Ok(())
    }

    /// Update: add `owner`'s whole-domain difference shares of the listed
    /// columns at `epoch`, [fold-checked and cut](Domain::cut_fold) by the
    /// domain, each shard node taking its rows (see [`ServerNode::fold`]).
    /// All or nothing over every shard.
    pub fn fold(&mut self, owner: usize, epoch: u64, columns: Columns) -> Result<()> {
        let cuts = self.domain.cut_fold(columns)?;
        for (node, cols) in self.shards.iter().zip(&cuts) {
            if !cols.is_empty() {
                node.check_fold(owner, epoch, cols)?;
            }
        }
        for (node, cols) in self.shards.iter_mut().zip(cuts) {
            if !cols.is_empty() {
                node.fold(owner, epoch, cols)?;
            }
        }
        Ok(())
    }

    /// Execute one command against the domain; a stored-column batch is
    /// one round over every shard node's rows.
    pub fn execute(&self, cmd: &ServerCmd) -> Result<ServerReply> {
        match cmd {
            ServerCmd::Run(batch) => Ok(ServerReply::Vectors(run_round(
                &self.shards,
                self.domain.params(),
                &self.tamper,
                batch,
            )?)),
            // Wide rounds read only parameters (pf_owners, wide_width) —
            // identical on every shard — and model honest relaying, so
            // shard 0 answers for the domain.
            ServerCmd::MaxCombine { .. } | ServerCmd::AssembleFpos { .. } => {
                self.shards[0].execute(cmd)
            }
            // Range probes concatenate the shard epochs — each shard
            // reports in global row coordinates already (its `row_offset`
            // is folded in), and shard order is global row order.
            ServerCmd::RangeVersions => Ok(ServerReply::Versions(
                self.shards
                    .iter()
                    .flat_map(|n| n.range_versions())
                    .collect(),
            )),
        }
    }
}

/// [`ServerExec`] over sharded domains living in this process: the
/// sharded sibling of [`crate::engine::InMemoryExec`]. Per-domain compute
/// is timed individually and the round cost is the maximum (deployed
/// domains run concurrently); the fan-out *inside* each domain is part of
/// that domain's wall time, which is the whole point.
#[derive(Debug)]
pub struct ShardedExec<'a> {
    nodes: &'a [ShardedNode],
    announcer: &'a Announcer,
}

impl<'a> ShardedExec<'a> {
    /// Wrap a sharded node set and an announcer.
    pub fn new(nodes: &'a [ShardedNode], announcer: &'a Announcer) -> ShardedExec<'a> {
        ShardedExec { nodes, announcer }
    }
}

impl ServerExec for ShardedExec<'_> {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> Result<RoundOutcome> {
        let mut worst = Duration::ZERO;
        let mut replies = Vec::with_capacity(cmds.len());
        let mut round_seq = None;
        // Dispatches are counted from the command shape: a stored-column
        // batch on a k-sharded node fans out exactly k, so the count for
        // *this* call is known locally and stays exact when other queries
        // run fan-outs on the same nodes concurrently.
        let mut counts = Counts::default();
        for (s, cmd) in &cmds {
            let node = self.nodes.get(*s).ok_or_else(|| {
                ProtocolError::ParameterMismatch(format!("no server {s} in this deployment"))
            })?;
            if matches!(cmd, ServerCmd::Run(_)) && node.shards.len() > 1 {
                counts[Counter::ShardDispatches] += node.shards.len() as u64;
            }
            let t0 = Instant::now();
            let reply = node.execute(cmd)?;
            worst = worst.max(t0.elapsed());
            replies.push(forward_wide(self.announcer, *s, reply, &mut round_seq)?);
        }
        recycle_cmds(cmds);
        Ok(RoundOutcome {
            counts,
            ..RoundOutcome::plain(replies, worst)
        })
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> Result<(AnnouncerReply, Duration)> {
        self.announcer.announce(cmd, seq, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BatchItem;
    use crate::engine::QueryOp;
    use crate::params::{Initiator, SystemConfig};

    #[test]
    fn plan_covers_domain_exactly() {
        // Exhaustive over the small corner space, including every
        // non-dividing pair (b=5,k=4 underflowed a fixed-chunk split).
        for b in 1usize..=40 {
            for k in 1usize..=45 {
                let plan = ShardPlan::new(b, k);
                assert!(plan.shard_count() <= b);
                let mut next = 0usize;
                for (i, s) in plan.specs().iter().enumerate() {
                    assert_eq!(s.index, i);
                    assert_eq!(s.start, next, "b={b} k={k}");
                    assert!(s.len > 0, "b={b} k={k}");
                    next += s.len;
                }
                assert_eq!(next, b, "b={b} k={k}");
                // Balanced to within one row.
                let lens: Vec<usize> = plan.specs().iter().map(|s| s.len).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "b={b} k={k} lens={lens:?}");
            }
        }
    }

    #[test]
    fn plan_clamps_excess_shards() {
        assert_eq!(ShardPlan::new(3, 64).shard_count(), 3);
        assert_eq!(ShardPlan::new(3, 0).shard_count(), 1);
    }

    #[test]
    fn replan_without_dead_shard_covers_domain() {
        for b in 1usize..=40 {
            for k in 2usize..=8 {
                let plan = ShardPlan::new(b, k);
                for dead in 0..plan.shard_count() {
                    let healed = plan.without(dead);
                    assert_eq!(healed.domain(), b);
                    assert_eq!(
                        healed.shard_count(),
                        (plan.shard_count() - 1).clamp(1, b),
                        "b={b} k={k} dead={dead}"
                    );
                    // Survivor plan still partitions the whole domain.
                    let covered: usize = healed.specs().iter().map(|s| s.len).sum();
                    assert_eq!(covered, b);
                }
            }
        }
    }

    #[test]
    fn split_batch_slices_z_by_rows() {
        let plan = ShardPlan::new(6, 3);
        let mut batch = BatchQuery {
            zs: vec![(0..6).collect()],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 2,
            range: None,
        };
        let subs = plan.split_batch(&mut batch).unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].zs[0], vec![0, 1]);
        assert_eq!(subs[2].zs[0], vec![4, 5]);
        assert_eq!(subs[1].items, batch.items);
        assert_eq!(subs[1].threads, 2);
    }

    #[test]
    fn split_batch_intersects_ranges() {
        let plan = ShardPlan::new(6, 3);
        let mut batch = BatchQuery {
            zs: vec![vec![30, 40, 50]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: Some((1, 3)),
        };
        let subs = plan.split_batch(&mut batch).unwrap();
        assert_eq!(subs.len(), 3);
        // Shard 0 owns rows [0,2): overlap is row 1 only.
        assert_eq!(subs[0].range, Some((1, 1)));
        assert_eq!(subs[0].zs[0], vec![30]);
        // Shard 1 owns [2,4): fully inside the range.
        assert_eq!(subs[1].range, Some((2, 2)));
        assert_eq!(subs[1].zs[0], vec![40, 50]);
        // Shard 2 owns [4,6): disjoint — empty sub-batch keeps the
        // one-sub-per-shard fan-out shape.
        assert_eq!(subs[2].range, Some((4, 0)));
        assert!(subs[2].zs[0].is_empty());
        // A z vector must cover the range, not the domain.
        let mut bad = BatchQuery {
            zs: vec![vec![1, 2]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: Some((1, 3)),
        };
        assert!(plan.split_batch(&mut bad).is_err());
    }

    #[test]
    fn split_batch_handles_shards_fully_outside_the_range() {
        // The streaming shape: the query window is the *appended* tail,
        // so earlier shards lie entirely before the range (their start
        // is far below the range start — the slice arithmetic must not
        // underflow) and the z vector only covers the window.
        let plan = ShardPlan::new(6, 3).append(2);
        let mut batch = BatchQuery {
            zs: vec![vec![70, 80]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: Some((6, 2)),
        };
        let subs = plan.split_batch(&mut batch).unwrap();
        assert_eq!(subs.len(), 3);
        for sub in &subs[..2] {
            // Shards before the window: empty sub-range at their own
            // start, nothing to evaluate.
            assert_eq!(sub.range.unwrap().1, 0);
            assert!(sub.zs[0].is_empty());
        }
        assert_eq!(subs[2].range, Some((6, 2)));
        assert_eq!(subs[2].zs[0], vec![70, 80]);
    }

    #[test]
    fn append_preserves_starts_and_covers_domain() {
        let plan = ShardPlan::new(10, 3);
        let extended = plan.append(4);
        assert_eq!(extended.domain(), 14);
        assert_eq!(extended.shard_count(), 3);
        for (old, new) in plan.specs().iter().zip(extended.specs()) {
            assert_eq!(old.start, new.start);
        }
        assert_eq!(
            extended.specs().last().unwrap().len,
            plan.specs().last().unwrap().len + 4
        );
    }

    #[test]
    fn replica_sets_cover_every_range_with_balanced_holders() {
        for b in 1usize..=24 {
            for rf in 1usize..=3 {
                for workers in 1usize..=9 {
                    let ranges = ShardPlan::ranges_for(workers, rf, b);
                    assert!(ranges >= 1 && ranges <= b, "b={b} rf={rf} w={workers}");
                    let plan = ShardPlan::new(b, ranges);
                    let sets = plan.replica_sets(workers);
                    assert_eq!(sets.len(), plan.shard_count());
                    // Every worker holds exactly one range; every range has
                    // at least one holder whenever workers >= ranges (which
                    // ranges_for guarantees by construction).
                    let mut seen = vec![false; workers];
                    for (r, hs) in sets.iter().enumerate() {
                        assert!(
                            !hs.is_empty(),
                            "b={b} rf={rf} w={workers} range {r} uncovered"
                        );
                        for &w in hs {
                            assert!(!seen[w]);
                            seen[w] = true;
                        }
                    }
                    assert!(seen.iter().all(|&s| s));
                    // Balanced to within one holder.
                    let counts: Vec<usize> = sets.iter().map(Vec::len).collect();
                    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                    assert!(
                        max - min <= 1,
                        "b={b} rf={rf} w={workers} counts={counts:?}"
                    );
                }
            }
        }
        // rf = 1 degenerates to one range per worker (the pre-replication plan).
        assert_eq!(ShardPlan::ranges_for(5, 1, 100), 5);
        // rf = 2: six workers carve three ranges, each held twice.
        assert_eq!(ShardPlan::ranges_for(6, 2, 100), 3);
        let sets = ShardPlan::new(100, 3).replica_sets(6);
        assert_eq!(sets, vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn append_zero_rows_never_opens_an_empty_shard() {
        let same = ShardPlan::new(10, 3).append(0);
        assert_eq!(same.domain(), 10);
        assert_eq!(same.shard_count(), 3);
        assert!(same.specs().iter().all(|s| s.len > 0));
    }

    #[test]
    fn split_batch_rejects_short_z() {
        let plan = ShardPlan::new(6, 2);
        let mut batch = BatchQuery {
            zs: vec![vec![1, 2, 3]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: None,
        };
        assert!(plan.split_batch(&mut batch).is_err());
    }

    #[test]
    fn shard_params_accumulate_offsets() {
        let setup = Initiator::new(SystemConfig::new(2, 30).with_seed(3))
            .setup()
            .unwrap();
        let plan = ShardPlan::new(30, 4);
        let sp = shard_server_params(&setup.servers[0], &plan.specs()[2]);
        assert_eq!(sp.b, plan.specs()[2].len);
        assert_eq!(sp.row_offset, plan.specs()[2].start);
        assert_eq!(sp.pf_s1.len(), sp.b);
        // Nesting: sharding an already-offset view keeps global alignment.
        let nested = shard_server_params(
            &sp,
            &ShardSpec {
                index: 0,
                start: 2,
                len: 3,
            },
        );
        assert_eq!(nested.row_offset, plan.specs()[2].start + 2);
    }

    #[test]
    fn merge_rejects_malformed_shard_replies() {
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(4))
            .setup()
            .unwrap();
        let batch = BatchQuery {
            zs: vec![],
            items: vec![BatchItem::plain(QueryOp::Psi)],
            threads: 1,
            range: None,
        };
        // Wrong item count.
        let bad = vec![vec![]];
        assert!(merge_shard_outputs(&bad, &batch, &setup.servers[0], &Tamper::Honest).is_err());
        // Rows don't reassemble to b.
        let short = vec![vec![vec![1u64, 2, 3]]];
        assert!(merge_shard_outputs(&short, &batch, &setup.servers[0], &Tamper::Honest).is_err());
    }
}
