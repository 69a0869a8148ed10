//! The round-plan execution engine: one executor for every operation over
//! every transport.
//!
//! PRISM's queries all share one shape — *owner-prepare → per-server step
//! → owner-finalize*, repeated for one to three rounds — and this module
//! is the single place that shape is executed:
//!
//! * [`ServerNode`] is the server side of the wall: it keeps the owners'
//!   summed share columns (`ColumnStore`), evaluates [`ServerCmd`]s
//!   against them with the step functions from the operation modules, and
//!   applies its (test-injected) [`Tamper`] to every output — so failure
//!   injection behaves identically in-process and over the wire.
//! * [`ServerExec`] abstracts *where* the nodes run: [`InMemoryExec`]
//!   calls them directly; `prism_net::NetCluster` implements the same
//!   trait by shipping the commands through its channel/TCP links.
//! * [`Operation`] is a round plan. Plans (see [`crate::plans`]) drive the
//!   engine through [`Ctx`], which owns **all** timing ([`QueryStats`]),
//!   round accounting, and announcer access in exactly one place.
//! * [`BatchQuery`] lets one owner↔server round-trip evaluate many
//!   stored-column operations at once (sharing auxiliary `z` vectors), the
//!   capability behind [`crate::plans::QueryBatch`].
//!
//! [`Engine`] ties a backend, owner parameters, and a thread count
//! together and runs plans to completion.

use crate::error::{ProtocolError, Result};
use crate::malicious::Tamper;
use crate::max::{self, BlindedMaxUpload, MaxAnnouncement};
use crate::median::{self, MedianAnnouncement};
use crate::metrics::{Counter, Counts, QueryTrace, Stage};
use crate::params::{AnnouncerParams, OwnerParams, ServerParams, SHAMIR_SERVERS};
use crate::shard::Domain;
use crate::{chunk, pool, psi, psu, sum};
use prism_core::arith::fold_canonical_mod;
use prism_core::wide::WideVec;
use prism_core::Permutation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which stored column an upload targets (Table-11 naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// Additive indicator (OK).
    Ok,
    /// Permuted complement (vOK).
    VOk,
    /// Indicator permuted with PF_db1 (count/PSU verification copy A).
    OkDb1,
    /// Indicator permuted with PF_db2 (count/PSU verification copy B).
    OkDb2,
    /// Shamir aggregation column `attr`.
    Agg(u8),
    /// Shamir permuted verification column `attr`.
    VAgg(u8),
    /// Shamir tuple counts (aOK).
    AOk,
}

impl Column {
    /// The ring this column's shares live in: `Z_δ` for the additive
    /// indicator columns, `F_p` for the Shamir ones.
    pub fn ring(self, delta: u64, p: u64) -> u64 {
        match self {
            Column::Ok | Column::VOk | Column::OkDb1 | Column::OkDb2 => delta,
            Column::Agg(_) | Column::VAgg(_) | Column::AOk => p,
        }
    }
}

/// A stored-column operation a server can evaluate in one step.
///
/// This is the *entire* per-operation protocol knowledge on the server
/// side; both the in-memory cluster and the networked one execute queries
/// by naming one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryOp {
    /// Equation 3 round over OK.
    Psi,
    /// Equation 7 round over vOK.
    PsiVerify,
    /// Equation 18 round over OK.
    Psu,
    /// PSU verification round over copy `1` or `2` (OkDb1/OkDb2).
    PsuVerify(u8),
    /// PSI + PF_s1 permutation.
    Count,
    /// Count verification over copy `1` or `2`.
    CountVerify(u8),
    /// Equation 11 round over Agg(attr); needs a `z` vector.
    Sum(u8),
    /// Equation 11 round over VAgg(attr) (verification copy); needs `z`.
    SumVerify(u8),
    /// Equation 11 round over aOK (average's count side); needs `z`.
    SumCounts,
    /// Count's complement binding: the Equation-7 round over vOK, then
    /// `PF_s1` — lands in the same composed `PF_i` order as the count
    /// copies, so owners can check `fop·v ≡ 1` per permuted cell without
    /// learning positions. This is what catches constant-fill tampering,
    /// which is permutation-invariant and thus survives two-copy
    /// agreement alone.
    CountVerifyComplement,
}

impl QueryOp {
    /// The stored column this operation scans.
    pub fn column(&self) -> Result<Column> {
        Ok(match *self {
            QueryOp::Psi | QueryOp::Psu | QueryOp::Count => Column::Ok,
            QueryOp::PsiVerify | QueryOp::CountVerifyComplement => Column::VOk,
            QueryOp::PsuVerify(1) | QueryOp::CountVerify(1) => Column::OkDb1,
            QueryOp::PsuVerify(2) | QueryOp::CountVerify(2) => Column::OkDb2,
            QueryOp::PsuVerify(which) | QueryOp::CountVerify(which) => {
                return Err(ProtocolError::ParameterMismatch(format!(
                    "copy selector must be 1 or 2, got {which}"
                )))
            }
            QueryOp::Sum(a) => Column::Agg(a),
            QueryOp::SumVerify(a) => Column::VAgg(a),
            QueryOp::SumCounts => Column::AOk,
        })
    }

    /// The server-side output permutation this operation's reply ships in,
    /// if any: `PF_s1`/`PF_s2` for the count/copy rounds, nothing for the
    /// raw rounds. Selection lives here rather than inside [`ServerNode`]
    /// so the sharded router ([`crate::shard`]) can apply the identical
    /// *domain-level* permutation after merging shard rows — a shard node
    /// only ever sees its own row range and must not permute it.
    pub fn finish_perm<'p>(
        &self,
        sp: &'p ServerParams,
    ) -> Result<Option<&'p prism_core::Permutation>> {
        fn copy_perm(sp: &ServerParams, which: u8) -> Result<&prism_core::Permutation> {
            match which {
                1 => Ok(&sp.pf_s1),
                2 => Ok(&sp.pf_s2),
                _ => Err(ProtocolError::ParameterMismatch(format!(
                    "copy selector must be 1 or 2, got {which}"
                ))),
            }
        }
        Ok(match *self {
            QueryOp::PsuVerify(which) | QueryOp::CountVerify(which) => Some(copy_perm(sp, which)?),
            QueryOp::Count | QueryOp::CountVerifyComplement => Some(&sp.pf_s1),
            _ => None,
        })
    }
}

/// One entry of a [`BatchQuery`]: an operation plus the index (into the
/// batch's `zs`) of the auxiliary vector it consumes, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchItem {
    /// The operation to evaluate.
    pub op: QueryOp,
    /// Index into [`BatchQuery::zs`], for the aggregation ops.
    pub z: Option<u8>,
}

impl BatchItem {
    /// An item that needs no auxiliary vector.
    pub fn plain(op: QueryOp) -> BatchItem {
        BatchItem { op, z: None }
    }

    /// An item consuming the batch's `z` vector number `idx`.
    pub fn with_z(op: QueryOp, idx: u8) -> BatchItem {
        BatchItem { op, z: Some(idx) }
    }
}

/// A batched server request: many stored-column operations evaluated in
/// **one** owner↔server round-trip, sharing auxiliary vectors.
///
/// This is what makes e.g. sum+count+average over several attributes cost
/// a single round 2 instead of one per aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchQuery {
    /// Auxiliary Shamir-shared vectors (this server's share of each).
    pub zs: Vec<Vec<u64>>,
    /// The operations to evaluate, in reply order.
    pub items: Vec<BatchItem>,
    /// The most worker threads the server may use. A round divides its
    /// rows among as many as its cell·items are worth, which below a few
    /// hundred thousand is one (`chunk`'s when-to-divide rule).
    pub threads: u32,
    /// Restrict evaluation to the global row range `(start, len)`; `None`
    /// evaluates the whole domain. Only operations without a finishing
    /// output permutation ([`QueryOp::finish_perm`] → `None`) compose over
    /// a sub-range — the permuted rounds shuffle the *whole* domain and a
    /// node rejects them when a range is set. Auxiliary `zs` vectors are
    /// range-length when a range is set.
    pub range: Option<(u64, u64)>,
}

/// A command the owner side issues to one server within a round.
#[derive(Debug, Clone)]
pub enum ServerCmd {
    /// Evaluate a batch of stored-column operations.
    Run(BatchQuery),
    /// Max/median round 2: gather per-owner blinded wide uploads into
    /// `PF`-permuted slot order for the announcer.
    MaxCombine {
        /// One upload per owner, in owner order.
        uploads: Vec<BlindedMaxUpload>,
        /// Worker threads the server should use.
        threads: u32,
    },
    /// Max round 3: assemble the fpos table from per-owner claim shares.
    AssembleFpos {
        /// One claim vector per owner, in owner order.
        claims: Vec<Vec<u64>>,
    },
    /// Probe the server's per-range version stamps (see
    /// `ColumnStore::range_versions`) — a parameter-free, O(#epochs)
    /// command the PSI-round cache ([`crate::cache`]) uses to validate
    /// its entries without rerunning any stored-column work. Stamps are
    /// reported in **global** row coordinates so sharded backends can
    /// concatenate worker replies.
    RangeVersions,
}

/// A server's reply to one [`ServerCmd`].
#[derive(Debug, Clone)]
pub enum ServerReply {
    /// Outputs of a [`ServerCmd::Run`] batch, in item order.
    Vectors(Vec<Vec<u64>>),
    /// Outputs of a [`ServerCmd::Run`] batch held by the PSI-round cache
    /// ([`crate::cache::CachedExec`], the only producer): the cached
    /// vectors themselves, shared read-only. A plan reads them exactly like
    /// [`ServerReply::Vectors`]; nothing hands them to
    /// [`ServerExec::reclaim`], since they belong to the cache.
    Shared(Arc<Vec<Vec<u64>>>),
    /// Output of a [`ServerCmd::MaxCombine`] as produced by the
    /// [`ServerNode`] itself. This variant never reaches a plan: the
    /// matrix is *server→announcer* traffic (owners must not see the
    /// per-slot blinded values), so every backend forwards it to its
    /// [`Announcer`] — via `forward_wide` in-process, over dedicated
    /// links in `prism_net` — and hands the plan a
    /// [`ServerReply::WideForwarded`] receipt instead.
    Wide(WideVec),
    /// Receipt for a [`ServerCmd::MaxCombine`]: the wide matrix was
    /// delivered to the announcer; only its shape is echoed to the owner
    /// side (plans shape-check it, see `plans::Max`), plus the wide-round
    /// sequence number the backend minted for this combine round.
    /// [`Ctx::round`] records the sequence and [`Ctx::announce`] hands it
    /// to the announcer, which only acts on uploads from that exact
    /// round — so a stale upload from an aborted query, or an interleaved
    /// query's upload, can never be paired into an announcement silently.
    WideForwarded {
        /// Rows of the forwarded matrix (`cells × m`).
        rows: u64,
        /// Limb width of the forwarded matrix.
        width: u32,
        /// Wide-round sequence number the upload is tagged with.
        seq: u64,
    },
    /// Output of a [`ServerCmd::AssembleFpos`]: the claim shares relayed
    /// owner-major, one column of `cells` per owner in owner order
    /// (`max::server_assemble_fpos`).
    Fpos(Vec<Vec<u64>>),
    /// Reply to [`ServerCmd::RangeVersions`]: the store's per-range
    /// version stamps `(start, len, version)` in global row coordinates,
    /// ordered by start. Never reaches a plan — only the caching
    /// decorator ([`crate::cache::CachedExec`]) issues version probes.
    Versions(Vec<RangeVersion>),
}

/// A request to the announcer (max/median only). The operand matrices are
/// *not* part of the command: the announcer operates on whatever the two
/// additive servers forwarded during the preceding [`ServerCmd::MaxCombine`]
/// round (see [`Announcer::deposit`]), so the blinded per-slot values never
/// transit the owner side on any backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnouncerCmd {
    /// Find each cell's maximum (Equations 13–14).
    FindMax,
    /// Find each cell's middle element(s) (§6.4).
    FindMedian,
}

/// The announcer's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnouncerReply {
    /// Reply to [`AnnouncerCmd::FindMax`].
    Max(MaxAnnouncement),
    /// Reply to [`AnnouncerCmd::FindMedian`].
    Median(MedianAnnouncement),
}

/// Wall-clock and event accounting for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Per-round maximum over servers of their compute time, summed over
    /// rounds (servers run concurrently in deployment and never wait on
    /// each other). Networked backends report round-trip wall time here.
    /// The server-side stages of [`QueryStats::trace`].
    pub server_time: Duration,
    /// Owner-side result-construction time (Table 14's metric). Steps
    /// that every owner runs independently count the slowest owner.
    /// The [`Stage::OwnerStep`] time of [`QueryStats::trace`].
    pub owner_time: Duration,
    /// Announcer compute time (max/median only).
    pub announcer_time: Duration,
    /// Owner↔server communication rounds used. A round served from the
    /// PSI-round cache is a [`Counter::CacheHits`], not a round.
    pub rounds: usize,
    /// What the backend counted for this query's rounds: the sum of
    /// their [`RoundOutcome::counts`] (only the [`Counter::per_query`]
    /// counters move).
    pub counts: Counts,
    /// Where the query's time went, per [`Stage`]: its rounds'
    /// [`RoundOutcome::trace`]s, its owner steps and, on a networked
    /// deployment, its admission wait.
    pub trace: QueryTrace,
}

impl QueryStats {
    /// Accumulate another query's accounting into this one — every field
    /// adds, so a facade that answers one call with several plans
    /// reports their total.
    pub fn merge(&mut self, other: &QueryStats) {
        let QueryStats {
            server_time,
            owner_time,
            announcer_time,
            rounds,
            counts,
            trace,
        } = *other;
        self.server_time += server_time;
        self.owner_time += owner_time;
        self.announcer_time += announcer_time;
        self.rounds += rounds;
        self.counts.merge(&counts);
        self.trace.merge(&trace);
    }

    /// Owner↔server communication rounds used.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Server-side cost: per-round max compute in-process, round-trip
    /// wall time over a wire.
    pub fn server_time(&self) -> Duration {
        self.server_time
    }

    /// Owner-side result-construction time (Table 14's metric).
    pub fn owner_time(&self) -> Duration {
        self.owner_time
    }

    /// Announcer compute time (max/median only).
    pub fn announcer_time(&self) -> Duration {
        self.announcer_time
    }

    /// Shard sub-commands the backend fanned out for this query.
    pub fn shard_dispatches(&self) -> u64 {
        self.counts[Counter::ShardDispatches]
    }

    /// Rounds served straight from the PSI-round cache.
    pub fn cache_hits(&self) -> u64 {
        self.counts[Counter::CacheHits]
    }

    /// Cache-eligible rounds that executed for real.
    pub fn cache_misses(&self) -> u64 {
        self.counts[Counter::CacheMisses]
    }

    /// Cache entries invalidated during this query.
    pub fn cache_invalidations(&self) -> u64 {
        self.counts[Counter::CacheInvalidations]
    }

    /// Shard-worker failovers healed while this query ran.
    pub fn failovers(&self) -> u64 {
        self.counts[Counter::Failovers]
    }
}

impl std::fmt::Display for QueryStats {
    /// One-line human summary, e.g.
    /// `rounds=2 server=1.24ms owner=310.0µs announcer=0ns shard_dispatches=10
    /// cache_hits=0 cache_misses=1 cache_invalidations=0 failovers=0`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} server={:?} owner={:?} announcer={:?}",
            self.rounds, self.server_time, self.owner_time, self.announcer_time
        )?;
        for c in Counter::ALL.into_iter().filter(|c| c.per_query()) {
            write!(f, " {}={}", c.name(), self.counts[c])?;
        }
        Ok(())
    }
}

/// Everything one [`ServerExec::round`] call produced: the per-server
/// replies in command order, where the call spent its time, and the
/// events counted for exactly this call. Carrying the counts and the
/// trace *in* the outcome (instead of sampling cumulative counters and
/// clocks around the call) is what keeps per-query accounting exact when
/// many queries interleave on one shared backend.
#[derive(Debug)]
pub struct RoundOutcome {
    /// Per-server replies, in command order.
    pub replies: Vec<ServerReply>,
    /// Dispatch, cache and failover counts for exactly this call.
    pub counts: Counts,
    /// The call's server-side stages: [`Stage::ServerCompute`] (the
    /// slowest server) in-process; [`Stage::Encode`],
    /// [`Stage::WireWait`] and [`Stage::Decode`] over a wire.
    pub trace: QueryTrace,
}

impl RoundOutcome {
    /// An in-process outcome that counted nothing (unsharded, uncached
    /// backends), its slowest server having computed for `compute`.
    pub fn plain(replies: Vec<ServerReply>, compute: Duration) -> RoundOutcome {
        RoundOutcome {
            replies,
            counts: Counts::default(),
            trace: QueryTrace::of(Stage::ServerCompute, compute),
        }
    }
}

/// One row-range epoch of a [`ColumnStore`]: `(start, len, version)` in
/// this store's local row coordinates. A full (Phase-1) upload covers the
/// whole store with one epoch; every delta upload appends (or re-touches)
/// one more. The version stamps are the cache's invalidation signal at
/// range granularity: an entry scoped to rows an upload never touched
/// keeps matching its stamps and stays warm.
pub(crate) type RangeVersion = (u64, u64, u64);

/// What one owner has contributed to a stored column kind: the rows it put
/// (always a prefix `[0, rows)`) and the epoch of the last difference
/// folded into them. Both are public shape; no share value is kept per
/// owner.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Held {
    /// Rows the owner holds, from the store's row 0.
    pub rows: usize,
    /// The epoch of the last difference folded into them (0: none).
    pub epoch: u64,
}

/// One stored column kind of a row range, as a heal ships it to a
/// rebuilt worker ([`ServerNode::restore`]): the range's slice of the
/// owners' sum and every owner's [`Held`] record (owner `j` at index `j`),
/// its rows clipped to the range and its epoch kept. It carries no
/// owner's shares, only their sum and public shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnCut {
    /// The column kind.
    pub column: Column,
    /// `Σ_j` over the range's rows, canonical in the column's ring; as
    /// long as the longest owner's rows.
    pub summed: Vec<u64>,
    /// Each owner's rows of the range and fold epoch.
    pub held: Vec<Held>,
}

/// One stored column kind: the per-cell sum of every owner's shares — the
/// only part a query reads — and each owner's [`Held`] record.
#[derive(Debug, Default)]
struct Stored {
    owners: Vec<Held>,
    /// `summed[i]` is `Σ_j` of owner `j`'s shares of row `i` in the
    /// column's ring, over the owners holding row `i`. As long as the
    /// longest owner's rows.
    summed: Vec<u64>,
}

/// The share columns stored at one server (Table 11's layout), one column
/// per kind.
///
/// **Stored shares are canonical and pre-summed**: every write reduces the
/// incoming values into their column's ring ([`Column::ring`]), once, and
/// adds them into that column's owner sum, so a query scans one canonical
/// column whatever the owner count. There are two writes, and both only
/// add:
///
/// * a **put** extends an owner's rows at the end of what it holds (Phase
///   1, an append) and is refused if it overlaps them, leaves a gap, or
///   runs past the domain;
/// * a **fold** at epoch `k` adds a difference over a column the owner
///   holds whole, and is refused unless `k` is past that column's last
///   epoch — so a duplicated or stale update can never be added twice.
///
/// A heal rebuilds a store in one more write, a **restore** of another
/// store's range cut ([`ColumnCut`]), taken only by a store nothing was
/// written to.
///
/// A refused write is a [`ProtocolError::UploadRefused`] and changes
/// nothing. Writes take `&mut self`; nothing else touches the sums.
#[derive(Debug)]
pub(crate) struct ColumnStore {
    delta: u64,
    p: u64,
    m: usize,
    ok: Stored,
    v_ok: Stored,
    ok_db1: Stored,
    ok_db2: Stored,
    a_ok: Stored,
    agg: Vec<Stored>,
    v_agg: Vec<Stored>,
    /// Per-range version stamps, ordered by `start`. Every
    /// [`ColumnStore::bump_all`] bumps *all* epochs (a put or fold that is
    /// not an append dirties the whole store); [`ColumnStore::bump_range`] bumps (or
    /// creates) exactly the appended range. The scalar
    /// [`ColumnStore::version`] is the sum of the stamps, so it stays
    /// monotonic: any write moves it, and a cached round stamped with an
    /// older version can never be served again.
    epochs: Vec<RangeVersion>,
}

impl ColumnStore {
    /// An empty store for a server with these parameters.
    pub(crate) fn new(sp: &ServerParams) -> ColumnStore {
        ColumnStore {
            delta: sp.delta,
            p: sp.field.p,
            m: sp.m,
            ok: Stored::default(),
            v_ok: Stored::default(),
            ok_db1: Stored::default(),
            ok_db2: Stored::default(),
            a_ok: Stored::default(),
            agg: Vec::new(),
            v_agg: Vec::new(),
            epochs: Vec::new(),
        }
    }

    fn slot(&mut self, column: Column) -> &mut Stored {
        fn attr_slot(cols: &mut Vec<Stored>, a: u8) -> &mut Stored {
            if cols.len() <= a as usize {
                cols.resize_with(a as usize + 1, Stored::default);
            }
            &mut cols[a as usize]
        }
        match column {
            Column::Ok => &mut self.ok,
            Column::VOk => &mut self.v_ok,
            Column::OkDb1 => &mut self.ok_db1,
            Column::OkDb2 => &mut self.ok_db2,
            Column::AOk => &mut self.a_ok,
            Column::Agg(a) => attr_slot(&mut self.agg, a),
            Column::VAgg(a) => attr_slot(&mut self.v_agg, a),
        }
    }

    fn held(&self, owner: usize, column: Column) -> Held {
        let owners = &self.col(column).owners;
        owners.get(owner).copied().unwrap_or_default()
    }

    /// The checks every write makes before any column moves: `owner` is
    /// one of the `m`, and no column appears twice in the upload.
    fn check_write(&self, owner: usize, columns: &[(Column, Vec<u64>)]) -> Result<()> {
        if owner >= self.m {
            return Err(refused(format!(
                "owner {owner} is not one of the {} owners",
                self.m
            )));
        }
        for (i, (column, _)) in columns.iter().enumerate() {
            if columns[..i].iter().any(|(c, _)| c == column) {
                return Err(refused(format!("{column:?} appears twice in one upload")));
            }
        }
        Ok(())
    }

    /// Refuses a put of `columns` at local row `start` by `owner` into a
    /// store of `b` rows unless each extends the rows the owner holds of
    /// that column — starts where they end, carries at least one row and
    /// ends inside the domain.
    pub(crate) fn check_put(
        &self,
        owner: usize,
        start: usize,
        columns: &[(Column, Vec<u64>)],
        b: usize,
    ) -> Result<()> {
        self.check_write(owner, columns)?;
        for (column, data) in columns {
            let held = self.held(owner, *column).rows;
            let end = start.saturating_add(data.len());
            if data.is_empty() || start != held || end > b {
                return Err(refused(format!(
                    "owner {owner} holds rows [0, {held}) of {column:?}: a put of rows \
                     [{start}, {end}) must extend them inside the {b}-row domain"
                )));
            }
        }
        Ok(())
    }

    /// Refuses a fold of `columns` at `epoch` by `owner` into a store of
    /// `b` rows unless the owner holds every row of each column, the
    /// difference covers them all, and `epoch` is past the column's last.
    pub(crate) fn check_fold(
        &self,
        owner: usize,
        epoch: u64,
        columns: &[(Column, Vec<u64>)],
        b: usize,
    ) -> Result<()> {
        self.check_write(owner, columns)?;
        for (column, data) in columns {
            let held = self.held(owner, *column);
            if held.rows != b || data.len() != b {
                return Err(refused(format!(
                    "a fold of {} rows of {column:?} needs owner {owner} to hold all {b}; \
                     it holds {}",
                    data.len(),
                    held.rows
                )));
            }
            if epoch <= held.epoch {
                return Err(refused(format!(
                    "owner {owner}'s {column:?} is at epoch {}: a fold at epoch {epoch} \
                     is stale or repeated",
                    held.epoch
                )));
            }
        }
        Ok(())
    }

    /// Add `columns` into the sums at local row `start`, reduced into each
    /// column's ring, and extend `owner`'s rows by them. Only after
    /// [`ColumnStore::check_put`] passed.
    pub(crate) fn put(&mut self, owner: usize, start: usize, columns: Vec<(Column, Vec<u64>)>) {
        let (delta, p) = (self.delta, self.p);
        for (column, mut data) in columns {
            let Stored { owners, summed } = self.slot(column);
            if owners.len() <= owner {
                owners.resize(owner + 1, Held::default());
            }
            let end = start + data.len();
            if summed.len() < end {
                summed.resize(end, 0);
            }
            fold_canonical_mod(&mut summed[start..end], &mut data, column.ring(delta, p));
            owners[owner].rows = end;
        }
    }

    /// Add the differences `columns` into the sums and move their epoch to
    /// `epoch`. Only after [`ColumnStore::check_fold`] passed.
    pub(crate) fn fold(&mut self, owner: usize, epoch: u64, columns: Vec<(Column, Vec<u64>)>) {
        let (delta, p) = (self.delta, self.p);
        for (column, mut data) in columns {
            let Stored { owners, summed } = self.slot(column);
            let n = column.ring(delta, p);
            fold_canonical_mod(&mut summed[..data.len()], &mut data, n);
            owners[owner].epoch = epoch;
        }
    }

    /// Bump every range's version stamp (a write that is not an append
    /// dirties the whole store), creating the first range, `[0, b)`, on
    /// the store's first write.
    pub(crate) fn bump_all(&mut self, b: usize) {
        if self.epochs.is_empty() {
            self.epochs.push((0, b as u64, 0));
        }
        for e in &mut self.epochs {
            e.2 += 1;
        }
    }

    /// Every column kind with its stored sums, in a fixed order.
    fn kinds(&self) -> impl Iterator<Item = (Column, &Stored)> {
        let fixed = [
            (Column::Ok, &self.ok),
            (Column::VOk, &self.v_ok),
            (Column::OkDb1, &self.ok_db1),
            (Column::OkDb2, &self.ok_db2),
            (Column::AOk, &self.a_ok),
        ];
        let attr = |kind: fn(u8) -> Column| move |(a, s)| (kind(a as u8), s);
        let agg = self.agg.iter().enumerate().map(attr(Column::Agg));
        let v_agg = self.v_agg.iter().enumerate().map(attr(Column::VAgg));
        fixed.into_iter().chain(agg).chain(v_agg)
    }

    /// Share cells the store holds, over every column kind.
    fn resident_cells(&self) -> usize {
        self.kinds().map(|(_, s)| s.summed.len()).sum()
    }

    /// The rows `[start, start + len)` of every column kind an owner put:
    /// their slice of the sums and each owner's [`Held`], rows clipped to
    /// the range (0 for an owner whose rows end before it) and epoch kept
    /// — what [`ColumnStore::restore`] installs into a store over exactly
    /// that range.
    fn cut(&self, start: usize, len: usize) -> Vec<ColumnCut> {
        let end = start.saturating_add(len);
        let clip = |rows: usize| rows.clamp(start, end) - start;
        let stored = self.kinds().filter(|(_, s)| !s.owners.is_empty());
        stored
            .map(|(column, Stored { owners, summed })| ColumnCut {
                column,
                summed: summed[start.min(summed.len())..end.min(summed.len())].to_vec(),
                held: owners
                    .iter()
                    .map(|h| Held {
                        rows: clip(h.rows),
                        epoch: h.epoch,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Install `columns` — a range cut ([`ColumnStore::cut`]) — into this
    /// `b`-row store as one write, all or nothing. Refused unless nothing
    /// was ever written here and every column is well formed: listed once,
    /// held by at most the `m` owners, its slice exactly as long as its
    /// longest owner's rows and inside the domain, and every value
    /// canonical in the column's ring. Bumps no version stamp.
    fn restore(&mut self, columns: Vec<ColumnCut>, b: usize) -> Result<()> {
        if !self.epochs.is_empty() {
            return Err(refused(
                "a restore needs a store nothing was written to".into(),
            ));
        }
        for (
            i,
            ColumnCut {
                column,
                summed,
                held,
            },
        ) in columns.iter().enumerate()
        {
            if columns[..i].iter().any(|c| c.column == *column) {
                return Err(refused(format!("{column:?} appears twice in one restore")));
            }
            if held.len() > self.m {
                return Err(refused(format!(
                    "{column:?} lists {} owners; there are {}",
                    held.len(),
                    self.m
                )));
            }
            let longest = held.iter().map(|h| h.rows).max().unwrap_or(0);
            if summed.len() != longest || longest > b {
                return Err(refused(format!(
                    "a {}-row slice of {column:?} must be as long as its longest owner's \
                     rows ({longest}) and inside the {b}-row domain",
                    summed.len()
                )));
            }
            let n = column.ring(self.delta, self.p);
            if let Some(x) = summed.iter().find(|&&x| x >= n) {
                return Err(refused(format!(
                    "{column:?} holds {x}, outside its ring Z_{n}"
                )));
            }
        }
        for ColumnCut {
            column,
            summed,
            held,
        } in columns
        {
            *self.slot(column) = Stored {
                owners: held,
                summed,
            };
        }
        Ok(())
    }

    /// Bump the version stamp of the range `[start, start+len)`, creating
    /// the epoch if this is the first delta touching it.
    pub(crate) fn bump_range(&mut self, start: u64, len: u64) {
        match self.epochs.iter_mut().find(|e| e.0 == start && e.1 == len) {
            Some(e) => e.2 += 1,
            None => self.epochs.push((start, len, 1)),
        }
    }

    /// The store's monotonic version (0 = nothing ever stored): the sum
    /// of the per-range stamps.
    pub(crate) fn version(&self) -> u64 {
        self.epochs.iter().map(|e| e.2).sum()
    }

    /// The per-range version stamps, ordered by range start (local row
    /// coordinates; empty = nothing ever stored).
    pub(crate) fn range_versions(&self) -> &[RangeVersion] {
        &self.epochs
    }

    fn col(&self, column: Column) -> &Stored {
        static EMPTY: Stored = Stored {
            owners: Vec::new(),
            summed: Vec::new(),
        };
        fn attr(cols: &[Stored], a: u8) -> &Stored {
            cols.get(a as usize).unwrap_or(&EMPTY)
        }
        match column {
            Column::Ok => &self.ok,
            Column::VOk => &self.v_ok,
            Column::OkDb1 => &self.ok_db1,
            Column::OkDb2 => &self.ok_db2,
            Column::AOk => &self.a_ok,
            Column::Agg(a) => attr(&self.agg, a),
            Column::VAgg(a) => attr(&self.v_agg, a),
        }
    }

    /// `Σ_j` of the `m` owners' shares of `column` over the local rows
    /// `rows`. Complete or nothing: unless exactly `m` owners each store
    /// those rows — for a whole-domain round (`whole = Some(b)`), exactly
    /// `b` rows each — the answer is an error, never a partial sum.
    fn summed(
        &self,
        column: Column,
        rows: std::ops::Range<usize>,
        whole: Option<usize>,
        m: usize,
    ) -> Result<&[u64]> {
        let Stored { owners, summed } = self.col(column);
        if owners.len() != m {
            return Err(ProtocolError::ParameterMismatch(format!(
                "expected {column:?} shares from {m} owners, got {}",
                owners.len()
            )));
        }
        let covers = |stored: usize| match whole {
            Some(b) => stored == b,
            None => stored >= rows.end,
        };
        if let Some(j) = owners.iter().position(|held| !covers(held.rows)) {
            return Err(ProtocolError::ParameterMismatch(format!(
                "owner {j} stores {} cells of {column:?}, expected {}",
                owners[j].rows,
                whole.unwrap_or(rows.end)
            )));
        }
        summed
            .get(rows)
            .ok_or_else(|| ProtocolError::ParameterMismatch(format!("no {column:?} shares stored")))
    }
}

/// A domain's replay log: what its range workers hold, kept over the
/// domain's global rows so a heal can rebuild any range
/// ([`ReplayLog::cut`] → [`ServerNode::restore`]).
///
/// The log **is** a worker's column store — one summed column per kind
/// and each owner's [`Held`] — written with the same checks and the same
/// ingest kernel, so an update folds into the sum and the log never grows
/// with the owner count. A write is checked first
/// ([`ReplayLog::check_put`], [`ReplayLog::check_fold`]) and applied only
/// once every worker took it.
#[derive(Debug)]
pub struct ReplayLog {
    store: ColumnStore,
}

impl ReplayLog {
    /// An empty log for a domain with these parameters.
    pub fn new(params: &ServerParams) -> ReplayLog {
        ReplayLog {
            store: ColumnStore::new(params),
        }
    }

    /// Refuses what a worker holding the whole `b`-row domain would
    /// refuse of a put of `columns` at global row `start` by `owner`.
    pub fn check_put(
        &self,
        owner: usize,
        start: usize,
        columns: &[(Column, Vec<u64>)],
        b: usize,
    ) -> Result<()> {
        self.store.check_put(owner, start, columns, b)
    }

    /// Refuses what a worker holding the whole `b`-row domain would
    /// refuse of a fold of `columns` at `epoch` by `owner`.
    pub fn check_fold(
        &self,
        owner: usize,
        epoch: u64,
        columns: &[(Column, Vec<u64>)],
        b: usize,
    ) -> Result<()> {
        self.store.check_fold(owner, epoch, columns, b)
    }

    /// Add a put the workers took into the sums. Only after
    /// [`ReplayLog::check_put`] passed.
    pub fn put(&mut self, owner: usize, start: usize, columns: Vec<(Column, Vec<u64>)>) {
        self.store.put(owner, start, columns);
    }

    /// Add a fold the workers took into the sums and move the owner's
    /// epoch. Only after [`ReplayLog::check_fold`] passed.
    pub fn fold(&mut self, owner: usize, epoch: u64, columns: Vec<(Column, Vec<u64>)>) {
        self.store.fold(owner, epoch, columns);
    }

    /// The global rows `[start, start + len)` as one [`ServerNode::restore`]
    /// of a node over exactly that range takes them.
    pub fn cut(&self, start: usize, len: usize) -> Vec<ColumnCut> {
        self.store.cut(start, len)
    }

    /// Share cells the log holds, over every column kind.
    pub fn resident_cells(&self) -> usize {
        self.store.resident_cells()
    }
}

/// The refusal of a write the store will not add (see [`ColumnStore`]).
pub(crate) fn refused(why: String) -> ProtocolError {
    ProtocolError::UploadRefused(why)
}

/// One PRISM server: parameters, stored share columns, and an optional
/// tampering behaviour applied to every output it produces.
///
/// Both deployments run this exact type — the in-memory cluster holds the
/// nodes in a `Vec`, the networked cluster runs one per spawned thread
/// behind a [`ServerCmd`]-carrying link — so no protocol logic can differ
/// between transports.
#[derive(Debug)]
pub struct ServerNode {
    /// The node's parameters under the domain write rules, over one
    /// range: a delta grows them as it grows every domain.
    domain: Domain,
    store: ColumnStore,
    tamper: Tamper,
    /// This node's slice of the PSU blinding stream, computed once per
    /// session — a row-range shard burns an O(row_offset) PRG prefix to
    /// stay aligned with the global cell order, which must not recur on
    /// every round.
    psu_rand: std::sync::OnceLock<Vec<u64>>,
    /// The `g^0..g^(δ−1) mod η′` lookup table, computed once per session
    /// instead of once per PSI round.
    power_table: std::sync::OnceLock<Vec<u64>>,
}

impl ServerNode {
    /// A node with empty storage and honest behaviour.
    pub fn new(params: ServerParams) -> ServerNode {
        ServerNode {
            store: ColumnStore::new(&params),
            domain: Domain::new(params, 1),
            tamper: Tamper::Honest,
            psu_rand: std::sync::OnceLock::new(),
            power_table: std::sync::OnceLock::new(),
        }
    }

    fn psu_rand(&self) -> &[u64] {
        self.psu_rand
            .get_or_init(|| psu::blinding_for(self.params()))
    }

    fn power_table(&self) -> &[u64] {
        self.power_table.get_or_init(|| self.params().power_table())
    }

    /// This node's role parameters.
    pub fn params(&self) -> &ServerParams {
        self.domain.params()
    }

    /// Attach a tampering behaviour (tests). Applied to the output of
    /// every subsequent stored-column evaluation.
    pub fn set_tamper(&mut self, tamper: Tamper) {
        self.tamper = tamper;
    }

    /// Phase 1: put one owner's whole share column (see
    /// [`ServerNode::put`]).
    ///
    /// # Panics
    ///
    /// If the put is refused — the owner already holds rows of `column`,
    /// is not one of the `m`, or `data` is empty or longer than the
    /// domain. Deployments put through [`ServerNode::put`], which returns
    /// the refusal.
    pub fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        if let Err(e) = self.put(owner, 0, vec![(column, data)]) {
            panic!("store of {column:?} for owner {owner}: {e}");
        }
    }

    /// The owners' summed shares of `column` (the golden share-digest test
    /// reads the stores back through this).
    #[cfg(test)]
    pub(crate) fn sums(&self, column: Column) -> &[u64] {
        &self.store.col(column).summed
    }

    /// Rows of `column` that `owner` has put here.
    pub(crate) fn held_rows(&self, owner: usize, column: Column) -> usize {
        self.store.held(owner, column).rows
    }

    /// Refuses what [`ServerNode::put`] would refuse, changing nothing.
    pub(crate) fn check_put(
        &self,
        owner: usize,
        start: usize,
        columns: &[(Column, Vec<u64>)],
    ) -> Result<()> {
        self.store.check_put(owner, start, columns, self.params().b)
    }

    /// Refuses what [`ServerNode::fold`] would refuse, changing nothing.
    pub(crate) fn check_fold(
        &self,
        owner: usize,
        epoch: u64,
        columns: &[(Column, Vec<u64>)],
    ) -> Result<()> {
        self.store
            .check_fold(owner, epoch, columns, self.params().b)
    }

    /// Put `owner`'s shares of every listed column at local row `start`:
    /// each must extend the rows the owner holds of that column, inside
    /// the domain (Phase 1 puts whole columns at row 0; a repair puts what
    /// is missing). All or nothing: a refused column is a
    /// [`ProtocolError::UploadRefused`] and no column moves. Bumps every
    /// version stamp.
    pub fn put(
        &mut self,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<()> {
        self.check_put(owner, start, &columns)?;
        self.store.put(owner, start, columns);
        self.store.bump_all(self.params().b);
        Ok(())
    }

    /// Update: add `owner`'s difference shares of every listed column,
    /// each covering all `b` rows the owner holds, at `epoch` — which must
    /// be past each column's last. All or nothing, like
    /// [`ServerNode::put`]; bumps every version stamp.
    pub fn fold(
        &mut self,
        owner: usize,
        epoch: u64,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<()> {
        self.check_fold(owner, epoch, &columns)?;
        self.store.fold(owner, epoch, columns);
        self.store.bump_all(self.params().b);
        Ok(())
    }

    /// Heal: install a row range's [`ColumnCut`]s — the range's slice of
    /// every column kind's sum and each owner's rows and epoch — into this
    /// never-written node as one write. Afterwards every put, fold and
    /// append is taken or refused exactly as by a node that received the
    /// owners' uploads itself. Refused as a [`ProtocolError::UploadRefused`],
    /// changing nothing, if anything was written here before or a column
    /// is malformed (see `ColumnStore::restore`). Bumps every version
    /// stamp.
    pub fn restore(&mut self, columns: Vec<ColumnCut>) -> Result<()> {
        let b = self.params().b;
        self.store.restore(columns, b)?;
        self.store.bump_all(b);
        Ok(())
    }

    /// Append one owner's delta segment (all its columns share one
    /// appended row range) starting at **local** row `start` — a put of
    /// rows `[start, start + len)`, taken by the domain's [delta
    /// rule](Domain::delta) and refused (store and domain unchanged)
    /// unless it extends the rows the owner holds of every column.
    ///
    /// The first delta reaching past the current domain end grows the
    /// node: `b` extends by the segment length and the output permutations
    /// extend block-diagonally, in place — with the explicit `perm_ext`
    /// `(pf_s1, pf_s2)` blocks when the caller holds the real family
    /// (domain-level nodes), or with identity blocks when it doesn't
    /// (row-range shard workers, whose permutations are identity anyway;
    /// see [`crate::shard`]). Subsequent owners' deltas for the same range
    /// just append and re-bump that range's version stamp. Growth resets
    /// the session-cached PSU blinding slice, which is length-dependent.
    pub fn delta_upload(
        &mut self,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
        perm_ext: Option<(&Permutation, &Permutation)>,
    ) -> Result<()> {
        let b = self.params().b;
        let (store, psu_rand) = (&mut self.store, &mut self.psu_rand);
        self.domain
            .delta(start, columns, perm_ext, |grown, _, columns| {
                store.check_put(owner, start, &columns, grown.b)?;
                store.put(owner, start, columns);
                // The rows end at the domain end, grown or not.
                store.bump_range(start as u64, (grown.b - start) as u64);
                if grown.b != b {
                    // The blinding slice covers [row_offset, row_offset + b)
                    // and must be re-drawn at the new length.
                    *psu_rand = std::sync::OnceLock::new();
                }
                Ok(())
            })
    }

    /// The node's monotonic store version (see `ColumnStore::version`).
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// The node's per-range version stamps in **global** row coordinates
    /// (the store's local epochs shifted by this node's `row_offset`).
    pub fn range_versions(&self) -> Vec<RangeVersion> {
        let off = self.params().row_offset as u64;
        self.store
            .range_versions()
            .iter()
            .map(|&(s, l, v)| (s + off, l, v))
            .collect()
    }

    /// The row-block step every stored-column round is made of: evaluate
    /// `op` over this node's local rows `[lo, lo + out.len())` into `out`,
    /// on the calling thread. `z` is the matching rows of the item's
    /// auxiliary vector; the PSU blinding slice is session-cached and cut at
    /// the same offset, so positional streams stay globally aligned. The
    /// complete-or-nothing check runs against the whole stored column when
    /// the round is whole-domain (`whole`), else against the rows read.
    /// Applies neither tamper nor permutation — both are domain-level and
    /// belong to [`run_round`].
    fn eval_rows(
        &self,
        op: QueryOp,
        z: Option<&[u64]>,
        lo: usize,
        whole: bool,
        out: &mut [u64],
    ) -> Result<()> {
        let sp = self.params();
        let rows = lo..lo + out.len();
        let summed = self
            .store
            .summed(op.column()?, rows.clone(), whole.then_some(sp.b), sp.m)?;
        match op {
            QueryOp::Psi | QueryOp::Count | QueryOp::CountVerify(_) => {
                psi::summed_round_into(summed, sp.m_share, sp, self.power_table(), out)
            }
            QueryOp::PsiVerify | QueryOp::CountVerifyComplement => {
                psi::summed_round_into(summed, 0, sp, self.power_table(), out)
            }
            QueryOp::Psu | QueryOp::PsuVerify(_) => {
                let rand = self.psu_rand().get(rows).unwrap_or(&[]);
                psu::summed_round_into(summed, rand, sp, out)
            }
            QueryOp::Sum(_) | QueryOp::SumVerify(_) | QueryOp::SumCounts => {
                let z = z.ok_or_else(|| {
                    ProtocolError::ParameterMismatch("aggregation op ran without a z vector".into())
                })?;
                sum::summed_round_into(summed, z, sp, out)
            }
        }
    }

    /// Execute one command. `Run` batches are one `run_round` over this
    /// node's rows; wide commands delegate to the max-round step functions. Tampering
    /// applies to every stored-column output (wide rounds model honest
    /// relaying; tampering there is exercised at the announcer instead).
    pub fn execute(&self, cmd: &ServerCmd) -> Result<ServerReply> {
        match cmd {
            ServerCmd::Run(batch) => Ok(ServerReply::Vectors(run_round(
                std::slice::from_ref(self),
                self.params(),
                &self.tamper,
                batch,
            )?)),
            ServerCmd::MaxCombine { uploads, threads } => Ok(ServerReply::Wide(
                max::server_max_round_threads(uploads, self.params(), (*threads).max(1) as usize)?,
            )),
            ServerCmd::AssembleFpos { claims } => Ok(ServerReply::Fpos(max::server_assemble_fpos(
                claims,
                self.params(),
            )?)),
            ServerCmd::RangeVersions => Ok(ServerReply::Versions(self.range_versions())),
        }
    }
}

/// One row block of a round: local rows `[lo, lo + len)` of `nodes[node]`,
/// which sit `at` rows into the round's output, with that run of every
/// item's reply buffer.
struct Block<'o> {
    node: usize,
    lo: usize,
    at: usize,
    outs: Vec<&'o mut [u64]>,
}

/// Evaluate one [`ServerCmd::Run`] batch over a server domain held by
/// `nodes` — its row-range shards in row order, or the one monolithic node
/// — as **one** parallel division: every shard's rows (its overlap with
/// the batch's range, if scoped) are cut into as many blocks as the round's
/// cell·items are worth workers ([`chunk::workers_for`]: `batch.threads` at
/// most, one — the calling thread, no spawn — for a round a spawn would cost
/// more than it saves), and
/// worker `w` evaluates block `w` of every shard for **every item**
/// ([`ServerNode::eval_rows`]) straight into the reply buffers, streaming
/// the items over the same rows while the summed column and `z` are hot.
/// A shard outside the range keeps one empty block, so it still refuses an
/// incomplete store as its empty sub-batch always has.
///
/// The domain then stages each reply as *compute → tamper → output
/// permutation*, exactly once and over the whole row order: §5.2's threats
/// (skipping work, replaying or replacing cells, injecting values) are
/// compute-phase cheats, and the two-copy verifications rely on the copies
/// being in *different* orders at the point of corruption — a cheat
/// applied after the `PF_sk` permutation would sit in the composed `PF_i`
/// order, which the security argument does not (and need not) cover, since
/// a server gains nothing by corrupting the cheap final permutation of
/// work it already performed honestly.
///
/// Range-scoping composes only for the permutation-free operations
/// (`finish_perm` → `None`): the permuted rounds shuffle the whole domain,
/// so a sub-range of their output is meaningless and rejected.
pub(crate) fn run_round(
    nodes: &[ServerNode],
    domain: &ServerParams,
    tamper: &Tamper,
    batch: &BatchQuery,
) -> Result<Vec<Vec<u64>>> {
    let mismatch = |what: String| Err(ProtocolError::ParameterMismatch(what));
    let (start, len) = match batch.range {
        None => (domain.row_offset, domain.b),
        Some((gs, glen)) => {
            for item in &batch.items {
                if item.op.finish_perm(domain)?.is_some() {
                    return mismatch(format!(
                        "{:?} carries a whole-domain output permutation and cannot be \
                         range-scoped",
                        item.op
                    ));
                }
            }
            let (gs, glen) = (gs as usize, glen as usize);
            let inside = gs
                .checked_sub(domain.row_offset)
                .and_then(|local| local.checked_add(glen))
                .is_some_and(|end| end <= domain.b);
            if !inside {
                return mismatch(format!(
                    "range [{gs}, +{glen}) lies outside this node's rows [{}, +{})",
                    domain.row_offset, domain.b
                ));
            }
            (gs, glen)
        }
    };
    for (i, z) in batch.zs.iter().enumerate() {
        if z.len() != len {
            return mismatch(format!(
                "batch z vector {i} has {} cells, expected {len}",
                z.len()
            ));
        }
    }
    if let Some(i) = batch.items.iter().filter_map(|item| item.z).max() {
        if i as usize >= batch.zs.len() {
            return mismatch(format!(
                "batch z index {i} out of range ({} vectors)",
                batch.zs.len()
            ));
        }
    }

    let workers = chunk::workers_for(batch.threads as usize, len * batch.items.len());
    let mut outs: Vec<Vec<u64>> = batch.items.iter().map(|_| pool::take(len)).collect();
    // `work[w]` is worker w's blocks: block w of every shard.
    let mut work: Vec<Vec<Block>> = Vec::new();
    let mut rest: Vec<&mut [u64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
    let mut at = 0;
    for (node, held) in nodes.iter().enumerate() {
        let np = held.params();
        let lo = start.max(np.row_offset);
        let hi = (start + len).min(np.row_offset + np.b);
        let (lo, n) = if lo < hi {
            (lo - np.row_offset, hi - lo)
        } else {
            (0, 0)
        };
        let step = chunk::block_len(n, workers).max(1);
        for (w, done) in (0..n.max(1)).step_by(step).enumerate() {
            let rows = step.min(n - done);
            let outs = rest
                .iter_mut()
                .map(|r| {
                    let (head, tail) = std::mem::take(r).split_at_mut(rows);
                    *r = tail;
                    head
                })
                .collect();
            if work.len() == w {
                work.push(Vec::new());
            }
            work[w].push(Block {
                node,
                lo: lo + done,
                at: at + done,
                outs,
            });
        }
        at += n;
    }
    if at != len {
        // Reply buffers arrive with stale contents, so a cell no block
        // covers must fail the round rather than leave it.
        pool::recycle_vecs(outs);
        return mismatch(format!(
            "the nodes' rows cover {at} of the round's {len} cells"
        ));
    }

    let whole = batch.range.is_none();
    let blocks_done = chunk::run_blocks(work, |blocks| -> Result<()> {
        for block in blocks {
            for (item, out) in batch.items.iter().zip(block.outs) {
                let z = item
                    .z
                    .map(|i| &batch.zs[i as usize][block.at..block.at + out.len()]);
                nodes[block.node].eval_rows(item.op, z, block.lo, whole, out)?;
            }
        }
        Ok(())
    });
    if let Err(e) = join_blocks(blocks_done) {
        pool::recycle_vecs(outs);
        return Err(e);
    }
    for (item, out) in batch.items.iter().zip(&mut outs) {
        tamper.apply(out);
        if let Some(p) = item.op.finish_perm(domain)? {
            let mut permuted = pool::take(len);
            p.apply_into(out, &mut permuted);
            pool::recycle_vec(std::mem::replace(out, permuted));
        }
    }
    Ok(outs)
}

/// The outcome of a round's blocks: the first block error in block order,
/// and a block that panicked as a [`ProtocolError::Transport`] — a bad
/// block fails its query, never the process serving the others.
fn join_blocks(done: std::thread::Result<Vec<Result<()>>>) -> Result<()> {
    done.map_err(|_| ProtocolError::Transport("row-block worker panicked".into()))?
        .into_iter()
        .collect()
}

/// A pluggable backend that can deliver one round of commands to the
/// servers (and reach the announcer). Implementations: [`InMemoryExec`]
/// (direct calls), [`crate::shard::ShardedExec`] (sharded domains), and
/// `prism_net::NetCluster` (channel/TCP links, announcer as a fourth
/// networked node).
pub trait ServerExec {
    /// Deliver each `(server, command)` pair and collect replies in order.
    /// One call corresponds to one owner↔server communication round; the
    /// outcome carries the backend's notion of server-side cost for the
    /// round (max compute over servers in-process; round-trip wall time
    /// over a wire) plus the events counted for exactly this call. Wide matrices produced by [`ServerCmd::MaxCombine`] must be
    /// delivered to the backend's announcer and replaced by
    /// [`ServerReply::WideForwarded`] receipts.
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> Result<RoundOutcome>;

    /// Ask the announcer to act on the wide matrices staged by the
    /// [`ServerCmd::MaxCombine`] round with sequence number `seq` (the
    /// one echoed in that round's [`ServerReply::WideForwarded`]
    /// receipts). The announcer must refuse staged uploads from any other
    /// round.
    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> Result<(AnnouncerReply, Duration)>;

    /// Take back the vectors of a [`ServerReply::Vectors`] that `server`
    /// answered in an earlier [`ServerExec::round`], now that the owner
    /// step reading them has ended ([`Ctx::finish`] calls this). By default
    /// they return to the process's [`pool`] — whether a node here computed
    /// them, a channel link moved them or the wire decode filled them —
    /// where every node of the process draws its next buffers; sound
    /// because whoever takes a pooled buffer writes every cell before
    /// anything reads it.
    fn reclaim(&self, server: usize, outputs: Vec<Vec<u64>>) {
        let _ = server;
        pool::recycle_vecs(outputs);
    }
}

/// References also execute (lets harnesses run plans against a
/// `&dyn ServerExec`, which the transport-conformance suite uses to drive
/// every backend through one generic function).
impl<T: ServerExec + ?Sized> ServerExec for &T {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> Result<RoundOutcome> {
        (**self).round(cmds)
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> Result<(AnnouncerReply, Duration)> {
        (**self).announce(cmd, seq, threads)
    }

    fn reclaim(&self, server: usize, outputs: Vec<Vec<u64>>) {
        (**self).reclaim(server, outputs)
    }
}

/// The announcer role: parameters, the inbox staging the two additive
/// servers' wide uploads, and a (test-injected)
/// [`AnnouncerTamper`](crate::malicious::AnnouncerTamper) — the
/// announcer-side sibling of [`ServerNode`].
///
/// Every backend funnels max/median through one of these: the in-process
/// executors own a reference and `forward_wide` deposits into it
/// directly; `prism_net` runs one on the announcer node's thread and
/// deposits from its server→announcer links. Every deposit is tagged
/// with a **wide-round sequence number** (minted per combine round via
/// `Announcer::next_seq` in-process, assigned by the owner side over
/// the wire), and [`Announcer::announce`] only acts on a pair from the
/// exact round it is asked about — so a stale upload left by an aborted
/// query, or an interleaved query's upload, surfaces as a protocol error
/// instead of a silently wrong announcement. Announcing consumes the
/// matching pair: the paper's data flow, where the announcer only ever
/// acts on what the servers forwarded for the round in question.
///
/// The inbox stages uploads **per round**: concurrent queries each run
/// their own wide round, and the announcer keeps every in-flight round's
/// pair separate (bounded by `Announcer::STAGED_ROUNDS_CAP`; beyond
/// that the oldest staged round — necessarily an abandoned one under the
/// cap — is evicted).
#[derive(Debug)]
pub struct Announcer {
    params: AnnouncerParams,
    tamper: crate::malicious::AnnouncerTamper,
    seq: AtomicU64,
    inbox: std::sync::Mutex<AnnouncerInbox>,
}

/// Staged uploads keyed by wide-round sequence: per round, one optional
/// matrix per additive server.
type AnnouncerInbox = std::collections::BTreeMap<u64, [Option<WideVec>; 2]>;

impl Announcer {
    /// Most wide rounds the inbox stages at once. Every round a query
    /// actually announces is consumed promptly, so only rounds abandoned
    /// mid-flight accumulate; past the cap the oldest staged round is
    /// evicted on deposit.
    pub(crate) const STAGED_ROUNDS_CAP: usize = 32;

    /// An honest announcer with an empty inbox.
    pub fn new(params: AnnouncerParams) -> Announcer {
        Announcer {
            params,
            tamper: crate::malicious::AnnouncerTamper::Honest,
            seq: AtomicU64::new(0),
            inbox: std::sync::Mutex::new(AnnouncerInbox::new()),
        }
    }

    /// This role's parameters.
    pub fn params(&self) -> &AnnouncerParams {
        &self.params
    }

    /// Attach a tampering behaviour (tests). Applied to every subsequent
    /// announcement, after the honest computation — the same staging as
    /// [`ServerNode`]'s *compute → tamper*.
    pub fn set_tamper(&mut self, tamper: crate::malicious::AnnouncerTamper) {
        self.tamper = tamper;
    }

    /// Mint the sequence number for a new wide round (in-process backends
    /// call this once per round that carries a `MaxCombine`).
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn inbox(&self) -> Result<std::sync::MutexGuard<'_, AnnouncerInbox>> {
        self.inbox
            .lock()
            .map_err(|_| ProtocolError::Transport("announcer inbox poisoned".into()))
    }

    /// Stage additive server `server`'s wide upload for round `seq`
    /// (`server` must be 0 or 1). Rounds stage independently, so
    /// interleaved queries' uploads never overwrite each other; if more
    /// than `Announcer::STAGED_ROUNDS_CAP` rounds are staged, the
    /// oldest (an abandoned round — live ones announce and are consumed)
    /// is evicted.
    pub fn deposit(&self, server: usize, seq: u64, shares: WideVec) -> Result<()> {
        if server >= 2 {
            return Err(ProtocolError::ParameterMismatch(format!(
                "only the two additive servers reach the announcer, got server {server}"
            )));
        }
        let mut inbox = self.inbox()?;
        inbox.entry(seq).or_default()[server] = Some(shares);
        while inbox.len() > Self::STAGED_ROUNDS_CAP {
            inbox.pop_first();
        }
        Ok(())
    }

    /// Is `server`'s upload for round `seq` staged? (The networked
    /// announcer loop uses this to drain its server links only until the
    /// requested round's uploads have arrived.)
    pub fn staged(&self, server: usize, seq: u64) -> bool {
        self.inbox()
            .ok()
            .and_then(|inbox| {
                inbox
                    .get(&seq)
                    .map(|pair| pair.get(server).is_some_and(Option::is_some))
            })
            .unwrap_or(false)
    }

    /// Act on round `seq`'s staged uploads: reconstruct, find the max /
    /// middle element(s), re-share, apply the attached tamper. Consumes
    /// round `seq`'s pair only when **both** servers' uploads for that
    /// round are staged; anything else — a missing upload, a stale round
    /// left by an aborted query — errors and leaves the inbox untouched
    /// (so interleaved queries' staged rounds can still announce).
    pub fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> Result<(AnnouncerReply, Duration)> {
        let (from_s1, from_s2) = {
            let mut inbox = self.inbox()?;
            let complete = inbox
                .get(&seq)
                .is_some_and(|pair| pair.iter().all(Option::is_some));
            if !complete {
                return Err(ProtocolError::MalformedResponse(
                    "announcer has no staged uploads for this wide round; \
                     announce must follow its own combine round",
                ));
            }
            let [a, b] = inbox.remove(&seq).expect("checked complete above");
            (a.expect("checked complete"), b.expect("checked complete"))
        };
        let t0 = Instant::now();
        let mut reply = match cmd {
            AnnouncerCmd::FindMax => AnnouncerReply::Max(max::announcer_find_max_threads(
                &from_s1,
                &from_s2,
                self.params(),
                threads,
            )?),
            AnnouncerCmd::FindMedian => AnnouncerReply::Median(median::announcer_find_median(
                &from_s1,
                &from_s2,
                self.params(),
            )?),
        };
        if !self.tamper.is_honest() {
            match &mut reply {
                AnnouncerReply::Max(a) => {
                    max::tamper_announcement(a, &from_s1, &from_s2, &self.tamper, &self.params)
                }
                AnnouncerReply::Median(m) => {
                    for a in &mut m.middles {
                        max::tamper_announcement(a, &from_s1, &from_s2, &self.tamper, &self.params)
                    }
                }
            }
        }
        Ok((reply, t0.elapsed()))
    }
}

/// Translate one node reply for the owner side: wide matrices are
/// deposited at `announcer` (as additive server `server`'s upload) and
/// replaced by the shape receipt; everything else passes through. Shared
/// by every in-process backend. `round_seq` is the round's sequence
/// cache: the first wide reply in a round mints it, later ones reuse it —
/// pass a fresh `None` per [`ServerExec::round`] call.
pub(crate) fn forward_wide(
    announcer: &Announcer,
    server: usize,
    reply: ServerReply,
    round_seq: &mut Option<u64>,
) -> Result<ServerReply> {
    match reply {
        ServerReply::Wide(w) => {
            let seq = *round_seq.get_or_insert_with(|| announcer.next_seq());
            let (rows, width) = (w.rows() as u64, w.width as u32);
            announcer.deposit(server, seq, w)?;
            Ok(ServerReply::WideForwarded { rows, width, seq })
        }
        other => Ok(other),
    }
}

/// [`ServerExec`] over nodes living in this process: commands are direct
/// method calls, per-server compute is timed individually and the round
/// cost is the maximum (deployed servers run concurrently).
#[derive(Debug)]
pub struct InMemoryExec<'a> {
    nodes: &'a [ServerNode],
    announcer: &'a Announcer,
}

impl<'a> InMemoryExec<'a> {
    /// Wrap a node set and an announcer.
    pub fn new(nodes: &'a [ServerNode], announcer: &'a Announcer) -> InMemoryExec<'a> {
        InMemoryExec { nodes, announcer }
    }
}

impl ServerExec for InMemoryExec<'_> {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> Result<RoundOutcome> {
        let mut worst = Duration::ZERO;
        let mut replies = Vec::with_capacity(cmds.len());
        let mut round_seq = None;
        for (s, cmd) in &cmds {
            let node = self.nodes.get(*s).ok_or_else(|| {
                ProtocolError::ParameterMismatch(format!("no server {s} in this deployment"))
            })?;
            let t0 = Instant::now();
            let reply = node.execute(cmd)?;
            worst = worst.max(t0.elapsed());
            replies.push(forward_wide(self.announcer, *s, reply, &mut round_seq)?);
        }
        recycle_cmds(cmds);
        Ok(RoundOutcome::plain(replies, worst))
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

/// Hand the row buffers of commands a backend is done with — a batch's `z`
/// columns — back to the pool.
pub(crate) fn recycle_cmds(cmds: Vec<(usize, ServerCmd)>) {
    for (_, cmd) in cmds {
        if let ServerCmd::Run(batch) = cmd {
            pool::recycle_vecs(batch.zs);
        }
    }
}

/// One batch round's replies as [`Ctx::query`] returns them — per listed
/// server, the per-item output vectors — together with which server
/// answered each, so that [`Ctx::finish`], the one place they are read, can
/// hand every buffer the backend gave away back to it.
#[derive(Debug)]
pub struct Replies {
    servers: Vec<usize>,
    outputs: Vec<Outputs>,
}

/// One server's per-item outputs of a batch round: the backend's own
/// vectors, lent to the owner step and then reclaimed, or a cached round's,
/// which stay with the cache.
#[derive(Debug)]
enum Outputs {
    Owned(Vec<Vec<u64>>),
    Shared(Arc<Vec<Vec<u64>>>),
}

impl Outputs {
    fn items(&self) -> &[Vec<u64>] {
        match self {
            Outputs::Owned(v) => v,
            Outputs::Shared(v) => v,
        }
    }
}

/// Execution context handed to a running [`Operation`]. Owns the round
/// counter and all three clocks, so plans cannot forget to account for a
/// step — timing lives here and nowhere else.
pub struct Ctx<'e, X: ServerExec> {
    exec: &'e X,
    owner: &'e OwnerParams,
    /// Worker threads the servers (and parallel owner steps) should use.
    pub threads: usize,
    stats: QueryStats,
    /// Sequence number of the last wide (combine) round, harvested from
    /// the servers' [`ServerReply::WideForwarded`] receipts — what binds
    /// the following [`Ctx::announce`] to exactly that round's uploads.
    wide_seq: Option<u64>,
    /// Global row range every [`Ctx::query`] round is scoped to (see
    /// [`Engine::with_range`]); `None` = whole domain.
    range: Option<(u64, u64)>,
}

impl<'e, X: ServerExec> Ctx<'e, X> {
    /// The owner-side role parameters (lives as long as the engine).
    pub fn params(&self) -> &'e OwnerParams {
        self.owner
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Issue one owner↔server round. If the round carried wide receipts,
    /// their (cross-checked) sequence number is recorded for the
    /// following [`Ctx::announce`]. A round the backend served entirely
    /// from its PSI-round cache (see [`crate::cache::CachedExec`]) is
    /// *not* counted in [`QueryStats::rounds`] — no owner↔server
    /// round-trip happened — and lands in [`Counter::CacheHits`] instead.
    ///
    /// The round's [`Counts`] come straight out of the [`RoundOutcome`],
    /// so per-query stats stay exact even when many queries interleave
    /// on one shared backend.
    pub fn round(&mut self, cmds: Vec<(usize, ServerCmd)>) -> Result<Vec<ServerReply>> {
        let RoundOutcome {
            replies,
            counts,
            trace,
        } = self.exec.round(cmds)?;
        if counts[Counter::CacheHits] == 0 {
            self.stats.rounds += 1;
        }
        self.charge(&trace);
        self.stats.counts.merge(&counts);
        let mut round_seq = None;
        for reply in &replies {
            if let ServerReply::WideForwarded { seq, .. } = reply {
                match round_seq {
                    None => round_seq = Some(*seq),
                    Some(s) if s == *seq => {}
                    Some(_) => {
                        return Err(ProtocolError::MalformedResponse(
                            "servers answered different wide rounds",
                        ))
                    }
                }
            }
        }
        if round_seq.is_some() {
            self.wide_seq = round_seq;
        }
        Ok(replies)
    }

    /// Issue the same batch of stored-column items to each listed server
    /// (at most the [`SHAMIR_SERVERS`], with per-server auxiliary vectors
    /// from `zs_for`, called once per server so it can hand over owned
    /// vectors) in one round; returns, per server, the per-item outputs.
    /// Read them in a [`Ctx::finish`] step, which returns the buffers to the
    /// backend afterwards.
    pub fn query(
        &mut self,
        servers: &[usize],
        items: &[BatchItem],
        mut zs_for: impl FnMut(usize) -> Vec<Vec<u64>>,
    ) -> Result<Replies> {
        if servers.len() > SHAMIR_SERVERS {
            return Err(ProtocolError::ParameterMismatch(format!(
                "a batch round reaches at most {SHAMIR_SERVERS} servers, got {}",
                servers.len()
            )));
        }
        let threads = self.threads as u32;
        let range = self.range;
        let cmds = servers
            .iter()
            .map(|&s| {
                (
                    s,
                    ServerCmd::Run(BatchQuery {
                        zs: zs_for(s),
                        items: items.to_vec(),
                        threads,
                        range,
                    }),
                )
            })
            .collect();
        let outputs = self
            .round(cmds)?
            .into_iter()
            .map(|r| match r {
                // Shape-check here, once, so no plan can index a short
                // reply: a server (or transport) answering a batch of N
                // items with fewer than N vectors is a protocol error,
                // not an owner-side panic — servers are malicious in this
                // threat model.
                ServerReply::Vectors(v) if v.len() == items.len() => Ok(Outputs::Owned(v)),
                ServerReply::Shared(v) if v.len() == items.len() => Ok(Outputs::Shared(v)),
                ServerReply::Vectors(_) | ServerReply::Shared(_) => {
                    Err(ProtocolError::MalformedResponse(
                        "server replied with the wrong number of batch outputs",
                    ))
                }
                _ => Err(ProtocolError::MalformedResponse(
                    "expected vector outputs from batch round",
                )),
            })
            .collect::<Result<_>>()?;
        Ok(Replies {
            servers: servers.to_vec(),
            outputs,
        })
    }

    /// Add `trace` to the query's, and keep the clocks the stats report
    /// the views of it they are documented as.
    fn charge(&mut self, trace: &QueryTrace) {
        let stats = &mut self.stats;
        stats.trace.merge(trace);
        stats.server_time = stats.trace.server_time();
        stats.owner_time = stats.trace.spent(Stage::OwnerStep);
    }

    /// Run (and time) an owner-side step.
    pub fn owner_step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.charge(&QueryTrace::of(Stage::OwnerStep, t0.elapsed()));
        out
    }

    /// Run (and time, as [`Ctx::owner_step`] does) the owner step that
    /// reads a round's replies — `outs[server][item]`, a read-only view per
    /// listed server — and when it ends send the backend's buffers home:
    /// each to the backend, and there the server, that produced it
    /// ([`ServerExec::reclaim`]). A cached round's shared outputs stay with
    /// the cache. Either way the step must copy out whatever the plan keeps.
    pub fn finish<T>(
        &mut self,
        replies: Replies,
        f: impl FnOnce(&[&[Vec<u64>]]) -> Result<T>,
    ) -> Result<T> {
        let out = {
            let outputs = &replies.outputs;
            let views: [&[Vec<u64>]; SHAMIR_SERVERS] =
                std::array::from_fn(|k| outputs.get(k).map_or(&[][..], Outputs::items));
            self.owner_step(|| f(&views[..outputs.len()]))
        };
        for (server, outputs) in replies.servers.into_iter().zip(replies.outputs) {
            if let Outputs::Owned(outputs) = outputs {
                self.exec.reclaim(server, outputs);
            }
        }
        out
    }

    /// Run a step at each of `n` owners, charging the *slowest* owner's
    /// time (owners run on their own machines in deployment).
    pub(crate) fn each_owner<T>(
        &mut self,
        n: usize,
        mut f: impl FnMut(usize) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut worst = Duration::ZERO;
        let mut outs = Vec::with_capacity(n);
        let mut failure = None;
        for j in 0..n {
            let t0 = Instant::now();
            match f(j) {
                Ok(v) => outs.push(v),
                Err(e) => {
                    failure = Some(e);
                }
            }
            worst = worst.max(t0.elapsed());
            if failure.is_some() {
                break;
            }
        }
        self.charge(&QueryTrace::of(Stage::OwnerStep, worst));
        match failure {
            Some(e) => Err(e),
            None => Ok(outs),
        }
    }

    /// Issue one announcer request, bound (by sequence number) to the
    /// wide matrices the servers forwarded during the preceding
    /// [`ServerCmd::MaxCombine`] round. Errors if no wide round preceded
    /// this announce — the announcer only ever acts on what the servers
    /// forwarded for a specific round.
    pub fn announce(&mut self, cmd: AnnouncerCmd) -> Result<AnnouncerReply> {
        let seq = self
            .wide_seq
            .take()
            .ok_or(ProtocolError::MalformedResponse(
                "announce must follow a wide (combine) round",
            ))?;
        let (reply, cost) = self.exec.announce(cmd, seq, self.threads)?;
        self.stats.announcer_time += cost;
        Ok(reply)
    }
}

/// A round plan: the owner-side orchestration of one query, expressed
/// against the narrow [`Ctx`] API so the identical plan runs over any
/// [`ServerExec`] backend.
///
/// Adding a new query to PRISM is one `Operation` impl — no changes to
/// either cluster harness. For example, a query reporting whether the
/// intersection is empty, built on the PSI plan:
///
/// ```
/// use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
/// use prism_protocol::engine::{Ctx, Operation, ServerExec};
/// use prism_protocol::{plans, Result};
///
/// struct IntersectionIsEmpty;
///
/// impl Operation for IntersectionIsEmpty {
///     type Output = bool;
///     fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<bool> {
///         // Round 1: plain PSI (plans compose).
///         let outcome = plans::Psi.execute(ctx)?;
///         // Owner finalize: just inspect the decoded membership.
///         Ok(ctx.owner_step(|| outcome.common.is_empty()))
///     }
/// }
///
/// let inputs = vec![
///     OwnerInput::from_set([1u64, 2]),
///     OwnerInput::from_set([2u64, 3]),
/// ];
/// let cluster = Cluster::build(&inputs, ClusterConfig::new(3))?;
/// let (empty, stats) = cluster.execute(&IntersectionIsEmpty)?;
/// assert!(!empty); // value 2 is common
/// assert_eq!(stats.rounds, 1);
/// # Ok::<(), prism_protocol::ProtocolError>(())
/// ```
pub trait Operation {
    /// What the plan produces for the querying owner.
    type Output;

    /// Drive the plan to completion against `ctx`'s backend.
    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Self::Output>;
}

/// The engine: a backend plus owner parameters, ready to run plans.
pub struct Engine<'e, X: ServerExec> {
    exec: &'e X,
    owner: &'e OwnerParams,
    threads: usize,
    range: Option<(u64, u64)>,
    /// Owner params reshaped to the range (`b` = range length) so plans'
    /// shape logic sees the effective domain; boxed because it only
    /// exists for range-scoped engines.
    range_owner: Option<Box<OwnerParams>>,
}

impl<'e, X: ServerExec> Engine<'e, X> {
    /// An engine over `exec` with 1 worker thread.
    pub fn new(exec: &'e X, owner: &'e OwnerParams) -> Engine<'e, X> {
        Engine {
            exec,
            owner,
            threads: 1,
            range: None,
            range_owner: None,
        }
    }

    /// Set the most worker threads a server may use on one round. It is an
    /// upper bound, not a promise: a stored-column round is divided only
    /// when its cell·items are worth a spawn (`chunk`'s when-to-divide
    /// rule), the wide max / median rounds whenever `threads > 1`. Results
    /// are bit-identical at every value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Scope every round of every plan run on this engine to the global
    /// row range `[start, start+len)`. Plans see owner parameters with
    /// `b = len` and servers evaluate only the sub-range, so a query over
    /// an untouched range composes with per-range cache stamps: delta
    /// uploads elsewhere in the domain leave its cached rounds warm.
    ///
    /// Only plans made of permutation-free rounds (PSI/PSU membership and
    /// the Shamir aggregations) are range-composable; a range-scoped
    /// permuted round is rejected server-side.
    pub fn with_range(mut self, start: u64, len: u64) -> Self {
        let mut owner = self.owner.clone();
        owner.b = len as usize;
        self.range = Some((start, len));
        self.range_owner = Some(Box::new(owner));
        self
    }

    /// Execute a plan, returning its output and the accounted stats.
    pub fn run<P: Operation>(&self, plan: &P) -> Result<(P::Output, QueryStats)> {
        let mut ctx = Ctx {
            exec: self.exec,
            owner: self.range_owner.as_deref().unwrap_or(self.owner),
            threads: self.threads,
            stats: QueryStats::default(),
            wide_seq: None,
            range: self.range,
        };
        let out = plan.execute(&mut ctx)?;
        Ok((out, ctx.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, SystemConfig};

    fn announcer() -> Announcer {
        let setup = Initiator::new(SystemConfig::new(2, 4).with_seed(7))
            .setup()
            .unwrap();
        Announcer::new(setup.announcer.clone())
    }

    fn upload(w: usize, m: usize, fill: u64) -> WideVec {
        WideVec {
            width: w,
            data: vec![fill; m * w],
        }
    }

    #[test]
    fn announce_requires_both_uploads_from_the_same_round() {
        let ann = announcer();
        let (w, m) = (ann.params().wide_width, ann.params().m);
        // Nothing staged.
        assert!(ann.announce(AnnouncerCmd::FindMax, 1, 1).is_err());
        // Only one server staged.
        let seq = ann.next_seq();
        ann.deposit(0, seq, upload(w, m, 1)).unwrap();
        assert!(ann.announce(AnnouncerCmd::FindMax, seq, 1).is_err());
        // Both staged: succeeds and consumes.
        ann.deposit(1, seq, upload(w, m, 2)).unwrap();
        assert!(ann.announce(AnnouncerCmd::FindMax, seq, 1).is_ok());
        assert!(ann.announce(AnnouncerCmd::FindMax, seq, 1).is_err());
    }

    #[test]
    fn stale_and_interleaved_rounds_cannot_be_paired() {
        // The failure mode the sequence numbers exist for: query A's
        // round 1 leaves one upload behind (A aborted), query B runs
        // round 2 — B's announce must see only round-2 uploads, and an
        // announce for round 1 must fail rather than mix rounds.
        let ann = announcer();
        let (w, m) = (ann.params().wide_width, ann.params().m);
        let seq_a = ann.next_seq();
        ann.deposit(0, seq_a, upload(w, m, 1)).unwrap();
        // A aborts here (server 1 never uploaded). B's round begins.
        let seq_b = ann.next_seq();
        ann.deposit(0, seq_b, upload(w, m, 3)).unwrap();
        ann.deposit(1, seq_b, upload(w, m, 4)).unwrap();
        // A's late announce cannot consume B's pair...
        assert!(ann.announce(AnnouncerCmd::FindMax, seq_a, 1).is_err());
        // ...and B's announce still succeeds (the mismatch left the
        // inbox untouched).
        assert!(ann.announce(AnnouncerCmd::FindMedian, seq_b, 1).is_ok());
    }

    #[test]
    fn a_panicking_row_block_fails_its_round_as_a_transport_error() {
        // Worker block, then the caller's own block.
        for bad in [1usize, 0] {
            let done = chunk::run_blocks(0..3usize, |k| {
                assert_ne!(k, bad, "block {k} fails");
                Ok(())
            });
            assert!(matches!(
                join_blocks(done),
                Err(ProtocolError::Transport(_))
            ));
        }
        // Without a panic, the first block error in block order wins.
        let done = chunk::run_blocks(0..3usize, |k| match k {
            0 => Ok(()),
            _ => Err(ProtocolError::ParameterMismatch(format!("block {k}"))),
        });
        assert_eq!(
            join_blocks(done),
            Err(ProtocolError::ParameterMismatch("block 1".into()))
        );
    }

    /// One column per kind, whatever the owner count: full Table-11
    /// columns from 2 owners and from 10 leave exactly `kinds × b` share
    /// cells resident at every server.
    #[test]
    fn resident_shares_do_not_grow_with_the_owner_count() {
        use crate::tables::{share_owner, ColumnSet, OwnerTable};
        let b = 64;
        for m in [2usize, 10] {
            let setup = Initiator::new(SystemConfig::new(m, b).with_seed(3))
                .setup()
                .unwrap();
            let op = &setup.owner;
            let mut nodes: Vec<ServerNode> =
                setup.servers.iter().cloned().map(ServerNode::new).collect();
            let mut prg = prism_core::Prg::from_seed(5);
            for j in 0..m {
                let rows = (1..=b as u64)
                    .filter(|v| v % (j as u64 + 2) != 0)
                    .map(|v| (v, [v, 2 * v]));
                let table = OwnerTable::window(rows, 2, 0, b).unwrap();
                let perms = (&op.pf_db1, &op.pf_db2);
                share_owner(
                    &table,
                    op,
                    perms,
                    ColumnSet::full(2),
                    &mut prg,
                    |k, c, s| nodes[k].store(j, c, s),
                );
            }
            // Four additive kinds at servers 0 and 1; Agg and VAgg per
            // attribute and aOK at all three.
            for (node, kinds) in nodes.iter().zip([9, 9, 5]) {
                assert_eq!(node.store.resident_cells(), kinds * b, "m = {m}");
            }
        }
    }

    /// A heal's restore stands for the uploads it replaces: for every
    /// range of a 1-, 2- and 4-range plan, a node restored from the cut of
    /// a log that took puts, an append and two folds holds the sums of the
    /// range's never-failed node, and takes or refuses every later write
    /// exactly as that node does.
    #[test]
    fn a_restored_range_answers_and_refuses_like_the_original() {
        use crate::shard::{shard_server_params, ShardPlan};
        type Columns = Vec<(Column, Vec<u64>)>;
        let (m, b, added) = (3, 16, 2);
        let setup = Initiator::new(SystemConfig::new(m, b).with_seed(11))
            .setup()
            .unwrap();
        let sp = &setup.servers[0];
        let kinds = [Column::Ok, Column::VOk, Column::Agg(0), Column::AOk];
        // Owner `j`'s rows `rows` of every kind: arbitrary, unreduced words.
        let cols = |j: u64, salt: u64, rows: std::ops::Range<usize>| -> Columns {
            let cell =
                |i: usize| (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (salt << 40) ^ i as u64;
            kinds
                .map(|c| (c, rows.clone().map(cell).collect()))
                .to_vec()
        };
        let plain = |done: Result<()>| done.map_err(|e| e.to_string());
        for ranges in [1, 2, 4] {
            let plan = ShardPlan::new(b, ranges);
            let mut originals: Vec<ServerNode> = plan
                .specs()
                .iter()
                .map(|spec| ServerNode::new(shard_server_params(sp, spec)))
                .collect();
            let mut log = ReplayLog::new(sp);
            let mut each = |f: &mut dyn FnMut(&mut ServerNode, std::ops::Range<usize>)| {
                for (node, spec) in originals.iter_mut().zip(plan.specs()) {
                    f(node, spec.start..spec.start + spec.len);
                }
            };
            // Phase 1: every owner puts every kind whole.
            for j in 0..m {
                each(&mut |node, rows| node.put(j, 0, cols(j as u64, 0, rows)).unwrap());
                log.check_put(j, 0, &cols(j as u64, 0, 0..b), b).unwrap();
                log.put(j, 0, cols(j as u64, 0, 0..b));
            }
            // Two folds by owner 1.
            for epoch in [1, 2] {
                each(&mut |node, rows| node.fold(1, epoch, cols(1, epoch, rows)).unwrap());
                log.check_fold(1, epoch, &cols(1, epoch, 0..b), b).unwrap();
                log.fold(1, epoch, cols(1, epoch, 0..b));
            }
            // Owner 0 appends: the tail range grows.
            let tail = *plan.specs().last().unwrap();
            let appended = cols(0, 3, b..b + added);
            let tail_node = originals.last_mut().unwrap();
            tail_node
                .delta_upload(0, b - tail.start, appended.clone(), None)
                .unwrap();
            log.check_put(0, b, &appended, b + added).unwrap();
            log.put(0, b, appended);

            let grown = plan.append(added);
            for (original, spec) in originals.iter_mut().zip(grown.specs()) {
                let ctx = format!("{ranges} ranges, range {spec:?}");
                let mut restored = ServerNode::new(shard_server_params(sp, spec));
                restored.restore(log.cut(spec.start, spec.len)).unwrap();
                let same = |a: &ServerNode, r: &ServerNode, what: &str| {
                    for c in kinds {
                        assert_eq!(a.sums(c), r.sums(c), "{ctx}: {c:?} {what}");
                        for j in 0..m {
                            assert_eq!(a.held_rows(j, c), r.held_rows(j, c), "{ctx}: {what}");
                        }
                    }
                };
                same(original, &restored, "after the restore");

                let n = spec.len;
                let local = |salt| cols(1, salt, 0..n);
                // Refused alike: owner 1's epoch again, a re-put, and an
                // extension that does not fit the appended rows.
                let misfit = Permutation::identity(added + 1);
                let ext = Some((&misfit, &misfit));
                let grow = || vec![(Column::Ok, vec![1; added])];
                let refused = |node: &mut ServerNode| {
                    [
                        plain(node.fold(1, 2, local(7))),
                        plain(node.put(2, 0, cols(2, 0, 0..n))),
                        plain(node.delta_upload(0, n, grow(), ext)),
                    ]
                };
                let refusals = refused(original);
                assert!(refusals.iter().all(Result::is_err), "{ctx}: {refusals:?}");
                assert_eq!(refused(&mut restored), refusals, "{ctx}");
                same(original, &restored, "after the refusals");

                // Taken alike: a fresh fold by owner 0, who holds every
                // row, and an append that fits.
                let fresh = |node: &mut ServerNode| {
                    [
                        plain(node.fold(0, 1, cols(0, 5, 0..n))),
                        plain(node.delta_upload(0, n, grow(), None)),
                    ]
                };
                assert_eq!(fresh(original), [Ok(()), Ok(())], "{ctx}");
                assert_eq!(fresh(&mut restored), [Ok(()), Ok(())], "{ctx}");
                same(original, &restored, "after the fold and the append");

                // A restore lands only in a store nothing was written to.
                assert!(matches!(
                    restored.restore(log.cut(spec.start, spec.len)),
                    Err(ProtocolError::UploadRefused(_))
                ));
            }
        }
    }

    #[test]
    fn deposit_rejects_non_additive_servers() {
        let ann = announcer();
        let w = ann.params().wide_width;
        assert!(ann.deposit(2, 1, upload(w, 2, 0)).is_err());
    }
}
