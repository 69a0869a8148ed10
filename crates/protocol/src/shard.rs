//! Sharded-domain execution: row-range shards behind one [`ServerExec`].
//!
//! PRISM's evaluation scales each server's domain to 5M–20M cells (§8),
//! but a monolithic [`ColumnStore`](crate::engine::ColumnStore) bounds
//! every round by one node's memory bandwidth. This module splits a domain into **row-range
//! shards** — shard `i` owns global rows `[start_i, start_i + len_i)` of
//! every stored column — each held by its own [`ServerNode`]:
//!
//! * [`ShardPlan`] is the row partition: contiguous ranges covering
//!   `0..b`, the same for every column and every owner, so a global row
//!   index means the same row at every layer.
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
//!   every existing plan runs unchanged on 1..k shards; its
//!   [`ExecMeters`] expose how many shards a round's rows were cut across
//!   as `shard_dispatches`, which
//!   [`QueryStats`](crate::engine::QueryStats) picks up per query.
//!
//! The networked deployment's shards are remote, so its domain router
//! (`prism_net::router`) is the one caller of [`ShardPlan::split_batch`]
//! (one sub-batch per shard link, `z` row-sliced) and
//! [`merge_shard_outputs`] (reassemble → tamper → permute): the same row
//! math and the same staging, so in-process and wire sharding cannot
//! drift.

use crate::engine::{
    forward_wide, run_round, Announcer, AnnouncerCmd, AnnouncerReply, BatchQuery, Column,
    ExecMeters, RoundOutcome, ServerCmd, ServerExec, ServerNode, ServerReply,
};
use crate::error::{ProtocolError, Result};
use crate::malicious::Tamper;
use crate::params::ServerParams;
use prism_core::Permutation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

    /// Split a full-length column into per-shard row slices. A vector of
    /// the wrong length is split best-effort (short shards surface as
    /// shape errors at query time, mirroring the monolithic store).
    pub fn split_rows<'d>(&self, data: &'d [u64]) -> Vec<&'d [u64]> {
        self.specs
            .iter()
            .map(|s| {
                data.get(s.start..s.start + s.len)
                    .or_else(|| data.get(s.start..))
                    .unwrap_or(&[])
            })
            .collect()
    }

    /// Grow the plan for a delta upload appending `added` rows at the
    /// domain end: either the last shard's range extends (`open_new =
    /// false` — what fixed-worker deployments must do) or a fresh shard
    /// spec covering exactly the appended range opens (`open_new = true`).
    /// Every existing spec keeps its `start` — and therefore every
    /// existing shard node keeps its `row_offset` — so the PSU blinding
    /// stream stays globally aligned without re-uploading a single row.
    /// A zero-row append never opens a shard: every spec in a plan is
    /// non-empty by construction, and an empty trailing shard would be a
    /// node holding nothing.
    pub fn append(&self, added: usize, open_new: bool) -> ShardPlan {
        let mut specs = self.specs.clone();
        if open_new && added > 0 {
            specs.push(ShardSpec {
                index: specs.len(),
                start: self.b,
                len: added,
            });
        } else {
            specs.last_mut().expect("plans are never empty").len += added;
        }
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
    /// `z` vectors are row-sliced. Errors if any `z`
    /// does not cover the domain — or, for a range-scoped batch, the
    /// range (the monolithic node rejects the same request with the same
    /// error class). A range-scoped batch yields one sub-batch per shard
    /// with each shard's overlap of the range (possibly empty — shards
    /// outside the range evaluate nothing and reply empty rows), so the
    /// fan-out structure is identical for scoped and whole-domain rounds.
    pub fn split_batch(&self, batch: &BatchQuery) -> Result<Vec<BatchQuery>> {
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
        Ok(self
            .specs
            .iter()
            .map(|s| match batch.range {
                None => BatchQuery {
                    zs: batch
                        .zs
                        .iter()
                        .map(|z| z[s.start..s.start + s.len].to_vec())
                        .collect(),
                    items: batch.items.clone(),
                    threads: batch.threads,
                    range: None,
                },
                Some((gs, glen)) => {
                    let (gs, glen) = (gs as usize, glen as usize);
                    let lo = gs.max(s.start);
                    let hi = (gs + glen).min(s.start + s.len);
                    let (lo, len) = if lo < hi { (lo, hi - lo) } else { (s.start, 0) };
                    // A shard fully outside the range gets an empty
                    // sub-range anchored at its own start; its z slice is
                    // empty, and the clamp keeps the slice arithmetic in
                    // bounds whether the shard lies before or after the
                    // range.
                    let zlo = lo.saturating_sub(gs).min(glen);
                    BatchQuery {
                        zs: batch
                            .zs
                            .iter()
                            .map(|z| z[zlo..zlo + len].to_vec())
                            .collect(),
                        items: batch.items.clone(),
                        threads: batch.threads,
                        range: Some((lo as u64, len as u64)),
                    }
                }
            })
            .collect())
    }

    /// The row range shard `dead` owned — what a failover must
    /// re-outsource. `None` if the plan has no such shard.
    pub fn lost_range(&self, dead: usize) -> Option<ShardSpec> {
        self.specs.get(dead).copied()
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
/// processes), so shapes are validated, never indexed blindly.
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
        let mut full = Vec::with_capacity(expect);
        for outs in per_shard {
            full.extend_from_slice(&outs[i]);
        }
        if full.len() != expect {
            return Err(ProtocolError::MalformedResponse(
                "shard rows do not reassemble to the domain length",
            ));
        }
        tamper.apply(&mut full);
        merged.push(match item.op.finish_perm(domain)? {
            Some(p) => {
                let mut permuted = vec![0; expect];
                p.apply_into(&full, &mut permuted);
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
    params: ServerParams,
    tamper: Tamper,
    plan: ShardPlan,
    shards: Vec<ServerNode>,
    dispatches: AtomicU64,
}

impl ShardedNode {
    /// A domain with empty storage split into `shards` row ranges.
    pub fn new(params: ServerParams, shards: usize) -> ShardedNode {
        let plan = ShardPlan::new(params.b, shards);
        let nodes = plan
            .specs()
            .iter()
            .map(|spec| ServerNode::new(shard_server_params(&params, spec)))
            .collect();
        ShardedNode {
            params,
            tamper: Tamper::Honest,
            plan,
            shards: nodes,
            dispatches: AtomicU64::new(0),
        }
    }

    /// This domain's (unsharded) role parameters.
    pub fn params(&self) -> &ServerParams {
        &self.params
    }

    /// The row partition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
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

    /// Shards that stored-column rounds' rows were cut across so far (0
    /// on a one-shard domain).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Attach a domain-level tampering behaviour (tests). Applied to every
    /// merged stored-column output, pre-permutation — the same corruption
    /// point as the monolithic node.
    pub fn set_tamper(&mut self, tamper: Tamper) {
        self.tamper = tamper;
    }

    /// Delta upload: append `columns` rows `[start, start + added)` to an
    /// owner's outsourced columns. Growth (`start == b`) extends the
    /// domain's finish permutations block-diagonally with `perm_ext`
    /// (identity blocks when `None`) and re-plans the row partition —
    /// opening a fresh shard when the delta is at least an average
    /// shard's worth of rows, else extending the last shard — without
    /// moving any existing shard's `row_offset`. A re-touch of the
    /// latest epoch (`start + added == b`) routes straight to the owning
    /// shard. Either way only the touched shard's range version moves —
    /// and only that shard's owner sums: the shard node extends each
    /// carried column's `Σ_j` by the appended tail (retiring the old tail
    /// first on a re-touch); every other shard's sums stay as they are.
    pub fn delta_upload(
        &mut self,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
        perm_ext: Option<(&Permutation, &Permutation)>,
    ) -> Result<()> {
        let added = match columns.first() {
            Some((_, data)) if !data.is_empty() => data.len(),
            _ => {
                return Err(ProtocolError::ParameterMismatch(
                    "delta upload carries no rows".into(),
                ))
            }
        };
        if start + added > self.params.b {
            if start != self.params.b {
                return Err(ProtocolError::ParameterMismatch(format!(
                    "delta upload must append contiguously: start {start}, domain {}",
                    self.params.b
                )));
            }
            let (e1, e2) = match perm_ext {
                Some((e1, e2)) => (e1.clone(), e2.clone()),
                None => (Permutation::identity(added), Permutation::identity(added)),
            };
            if e1.len() != added || e2.len() != added {
                return Err(ProtocolError::ParameterMismatch(format!(
                    "permutation extension covers {} rows, delta has {added}",
                    e1.len()
                )));
            }
            self.params.pf_s1 = self.params.pf_s1.concat(&e1);
            self.params.pf_s2 = self.params.pf_s2.concat(&e2);
            let open_new = added * self.plan.shard_count() >= self.params.b;
            self.params.b = start + added;
            let plan = self.plan.append(added, open_new);
            if open_new {
                let spec = *plan.specs().last().expect("append added a spec");
                self.shards
                    .push(ServerNode::new(shard_server_params(&self.params, &spec)));
            }
            self.plan = plan;
        } else if start + added != self.params.b {
            return Err(ProtocolError::ParameterMismatch(format!(
                "delta upload may only touch the latest epoch: start {start}, domain {}",
                self.params.b
            )));
        }
        let spec = *self
            .plan
            .specs()
            .iter()
            .find(|s| s.start <= start && start + added <= s.start + s.len)
            .ok_or_else(|| {
                ProtocolError::ParameterMismatch(format!(
                    "delta range [{start}, {}) crosses a shard boundary",
                    start + added
                ))
            })?;
        self.shards[spec.index].delta_upload(owner, start - spec.start, columns, None)
    }

    /// Phase 1: store one owner's share column, split across the shards by
    /// row range. Every shard node folds its rows into its own owner sum
    /// of `column` (retiring the rows of a column this replaces), so the
    /// domain's `Σ_j` is the concatenation of the shards' and no query
    /// ever adds across owners.
    pub fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        let parts: Vec<Vec<u64>> = self
            .plan
            .split_rows(&data)
            .into_iter()
            .map(<[u64]>::to_vec)
            .collect();
        for (node, part) in self.shards.iter_mut().zip(parts) {
            node.store(owner, column, part);
        }
    }

    /// Execute one command against the domain; a stored-column batch is
    /// one round over every shard node's rows.
    pub fn execute(&self, cmd: &ServerCmd) -> Result<ServerReply> {
        match cmd {
            ServerCmd::Run(batch) => {
                if self.shards.len() > 1 {
                    self.dispatches
                        .fetch_add(self.shards.len() as u64, Ordering::Relaxed);
                }
                Ok(ServerReply::Vectors(run_round(
                    &self.shards,
                    &self.params,
                    &self.tamper,
                    batch,
                )?))
            }
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

    /// Take back the vectors of a [`ServerReply::Vectors`] this domain
    /// answered (see [`ServerNode::reclaim`]): they return to the shard
    /// node whose arena the domain's rounds draw their domain-length reply
    /// buffers from.
    pub fn reclaim(&self, outputs: Vec<Vec<u64>>) {
        self.shards[0].reclaim(outputs);
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
        // Dispatch attribution is computed from the command shape, not by
        // sampling the nodes' cumulative counters: a stored-column batch
        // on a k-sharded node fans out exactly k dispatches, so the delta
        // for *this* call is known locally and stays exact when other
        // queries run fan-outs on the same nodes concurrently.
        let mut dispatches = 0u64;
        for (s, cmd) in &cmds {
            let node = self.nodes.get(*s).ok_or_else(|| {
                ProtocolError::ParameterMismatch(format!("no server {s} in this deployment"))
            })?;
            if matches!(cmd, ServerCmd::Run(_)) && node.shards.len() > 1 {
                dispatches += node.shards.len() as u64;
            }
            let t0 = Instant::now();
            let reply = node.execute(cmd)?;
            worst = worst.max(t0.elapsed());
            replies.push(forward_wide(self.announcer, *s, reply, &mut round_seq)?);
        }
        Ok(RoundOutcome {
            replies,
            cost: worst,
            meters: ExecMeters {
                shard_dispatches: dispatches,
                ..ExecMeters::default()
            },
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

    fn meters(&self) -> ExecMeters {
        ExecMeters {
            shard_dispatches: self.nodes.iter().map(ShardedNode::dispatches).sum(),
            ..ExecMeters::default()
        }
    }

    fn reclaim(&self, server: usize, outputs: Vec<Vec<u64>>) {
        if let Some(node) = self.nodes.get(server) {
            node.reclaim(outputs);
        }
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
                    let lost = plan.lost_range(dead).unwrap();
                    assert_eq!(lost.index, dead);
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
        assert!(ShardPlan::new(8, 2).lost_range(5).is_none());
    }

    #[test]
    fn split_rows_reassembles() {
        let plan = ShardPlan::new(11, 4);
        let data: Vec<u64> = (0..11).collect();
        let parts = plan.split_rows(&data);
        let rejoined: Vec<u64> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(rejoined, data);
    }

    #[test]
    fn split_batch_slices_z_by_rows() {
        let plan = ShardPlan::new(6, 3);
        let batch = BatchQuery {
            zs: vec![(0..6).collect()],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 2,
            range: None,
        };
        let subs = plan.split_batch(&batch).unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].zs[0], vec![0, 1]);
        assert_eq!(subs[2].zs[0], vec![4, 5]);
        assert_eq!(subs[1].items, batch.items);
        assert_eq!(subs[1].threads, 2);
    }

    #[test]
    fn split_batch_intersects_ranges() {
        let plan = ShardPlan::new(6, 3);
        let batch = BatchQuery {
            zs: vec![vec![30, 40, 50]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: Some((1, 3)),
        };
        let subs = plan.split_batch(&batch).unwrap();
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
        let bad = BatchQuery {
            zs: vec![vec![1, 2]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: Some((1, 3)),
        };
        assert!(plan.split_batch(&bad).is_err());
    }

    #[test]
    fn split_batch_handles_shards_fully_outside_the_range() {
        // The streaming shape: the query window is the *appended* tail,
        // so earlier shards lie entirely before the range (their start
        // is far below the range start — the slice arithmetic must not
        // underflow) and the z vector only covers the window.
        let plan = ShardPlan::new(6, 3).append(2, true);
        let batch = BatchQuery {
            zs: vec![vec![70, 80]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: Some((6, 2)),
        };
        let subs = plan.split_batch(&batch).unwrap();
        assert_eq!(subs.len(), 4);
        for sub in &subs[..3] {
            // Shards before the window: empty sub-range at their own
            // start, nothing to evaluate.
            assert_eq!(sub.range.unwrap().1, 0);
            assert!(sub.zs[0].is_empty());
        }
        assert_eq!(subs[3].range, Some((6, 2)));
        assert_eq!(subs[3].zs[0], vec![70, 80]);
    }

    #[test]
    fn append_preserves_starts_and_covers_domain() {
        let plan = ShardPlan::new(10, 3);
        let extended = plan.append(4, false);
        assert_eq!(extended.domain(), 14);
        assert_eq!(extended.shard_count(), 3);
        for (old, new) in plan.specs().iter().zip(extended.specs()) {
            assert_eq!(old.start, new.start);
        }
        assert_eq!(
            extended.specs().last().unwrap().len,
            plan.specs().last().unwrap().len + 4
        );
        let opened = plan.append(4, true);
        assert_eq!(opened.domain(), 14);
        assert_eq!(opened.shard_count(), 4);
        assert_eq!(
            opened.specs()[3],
            ShardSpec {
                index: 3,
                start: 10,
                len: 4
            }
        );
        let covered: usize = opened.specs().iter().map(|s| s.len).sum();
        assert_eq!(covered, 14);
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
        let plan = ShardPlan::new(10, 3);
        for open_new in [false, true] {
            let same = plan.append(0, open_new);
            assert_eq!(same.domain(), 10);
            assert_eq!(same.shard_count(), 3);
            assert!(same.specs().iter().all(|s| s.len > 0));
        }
    }

    #[test]
    fn split_batch_rejects_short_z() {
        let plan = ShardPlan::new(6, 2);
        let batch = BatchQuery {
            zs: vec![vec![1, 2, 3]],
            items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
            threads: 1,
            range: None,
        };
        assert!(plan.split_batch(&batch).is_err());
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
