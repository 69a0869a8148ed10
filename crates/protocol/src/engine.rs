//! The round-plan execution engine: one executor for every operation over
//! every transport.
//!
//! PRISM's queries all share one shape — *owner-prepare → per-server step
//! → owner-finalize*, repeated for one to three rounds — and this module
//! is the single place that shape is executed:
//!
//! * [`ServerNode`] is the server side of the wall: it stores the
//!   Phase-1 share columns (`ColumnStore`), evaluates [`ServerCmd`]s
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
use crate::params::{AnnouncerParams, OwnerParams, ServerParams, SHAMIR_SERVERS};
use crate::{chunk, psi, psu, sum};
use prism_core::arith::{fold_canonical_mod, sub_assign_mod};
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

/// Wall-clock accounting for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Per-round maximum over servers of their compute time, summed over
    /// rounds (servers run concurrently in deployment and never wait on
    /// each other). Networked backends report round-trip wall time here.
    pub server_time: Duration,
    /// Owner-side result-construction time (Table 14's metric). Steps
    /// that every owner runs independently count the slowest owner.
    pub owner_time: Duration,
    /// Announcer compute time (max/median only).
    pub announcer_time: Duration,
    /// Owner↔server communication rounds used.
    pub rounds: usize,
    /// Shard sub-commands fanned out by the backend across all rounds —
    /// 0 on unsharded backends, `shards × server-commands` when a
    /// sharded backend actually split a round (see [`crate::shard`]).
    pub shard_dispatches: u64,
    /// Rounds this query served straight from the PSI-round cache (0
    /// unless the backend is wrapped in [`crate::cache::CachedExec`]).
    /// A served round is *not* counted in `rounds` — no owner↔server
    /// round-trip happened.
    pub cache_hits: u64,
    /// Cache-eligible rounds this query had to execute for real (cold
    /// cache, or an entry invalidated by an upload).
    pub cache_misses: u64,
    /// Cache entries dropped during this query because a store-version
    /// probe or a tamper injection proved them stale.
    pub cache_invalidations: u64,
    /// Shard-worker failovers the backend healed while this query ran
    /// (0 everywhere except the elastic networked cluster — see
    /// `prism_net`'s registry).
    pub failovers: u64,
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
            shard_dispatches,
            cache_hits,
            cache_misses,
            cache_invalidations,
            failovers,
        } = *other;
        self.server_time += server_time;
        self.owner_time += owner_time;
        self.announcer_time += announcer_time;
        self.rounds += rounds;
        self.shard_dispatches += shard_dispatches;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.cache_invalidations += cache_invalidations;
        self.failovers += failovers;
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
        self.shard_dispatches
    }

    /// Rounds served straight from the PSI-round cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Cache-eligible rounds that executed for real.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Cache entries invalidated during this query.
    pub fn cache_invalidations(&self) -> u64 {
        self.cache_invalidations
    }

    /// Shard-worker failovers healed while this query ran.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }
}

impl std::fmt::Display for QueryStats {
    /// One-line human summary, e.g.
    /// `rounds=2 server=1.24ms owner=310.0µs announcer=0ns shard_dispatches=10
    /// cache_hits=0 cache_misses=1 cache_invalidations=0`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} server={:?} owner={:?} announcer={:?} shard_dispatches={} \
             cache_hits={} cache_misses={} cache_invalidations={} failovers={}",
            self.rounds,
            self.server_time,
            self.owner_time,
            self.announcer_time,
            self.shard_dispatches,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.failovers
        )
    }
}

/// Dispatch meters a [`ServerExec`] backend reports. Two uses: each
/// [`RoundOutcome`] carries the meters attributable to exactly that
/// round call (what [`Ctx::round`] adds to [`QueryStats`] — exact even
/// when many queries interleave on one shared backend), and
/// [`ServerExec::meters`] exposes the backend's cumulative totals for
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMeters {
    /// Shard sub-commands dispatched since the backend was built.
    pub shard_dispatches: u64,
    /// Rounds served from the PSI-round cache since the backend was
    /// built (only [`crate::cache::CachedExec`] reports these).
    pub cache_hits: u64,
    /// Cache-eligible rounds that executed for real.
    pub cache_misses: u64,
    /// Cache entries dropped as stale (version mismatch or tamper).
    pub cache_invalidations: u64,
    /// Shard-worker failovers healed since the backend was built (only
    /// the elastic networked cluster reports these).
    pub failovers: u64,
}

impl ExecMeters {
    /// Component-wise sum (used by decorators that layer their own
    /// meters over an inner backend's).
    pub fn add(self, other: ExecMeters) -> ExecMeters {
        ExecMeters {
            shard_dispatches: self.shard_dispatches + other.shard_dispatches,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_invalidations: self.cache_invalidations + other.cache_invalidations,
            failovers: self.failovers + other.failovers,
        }
    }
}

/// Everything one [`ServerExec::round`] call produced: the per-server
/// replies in command order, the backend's notion of server-side cost,
/// and the dispatch meters attributable to exactly this call. Carrying
/// the meters *in* the outcome (instead of sampling cumulative counters
/// around the call) is what keeps per-query accounting exact when many
/// queries interleave on one shared backend.
#[derive(Debug)]
pub struct RoundOutcome {
    /// Per-server replies, in command order.
    pub replies: Vec<ServerReply>,
    /// Server-side cost of the round (max compute over servers
    /// in-process; round-trip wall time over a wire).
    pub cost: Duration,
    /// Dispatch/cache meters for exactly this call.
    pub meters: ExecMeters,
}

impl RoundOutcome {
    /// An outcome with no dispatch meters (unsharded, uncached backends).
    pub fn plain(replies: Vec<ServerReply>, cost: Duration) -> RoundOutcome {
        RoundOutcome {
            replies,
            cost,
            meters: ExecMeters::default(),
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

/// One stored column kind: every owner's shares of it, and their per-cell
/// sum — the only part a query reads.
#[derive(Debug, Default)]
struct Stored {
    owners: Vec<Vec<u64>>,
    /// `summed[i] = Σ_j owners[j][i]` in the column's ring, over the owners
    /// whose column reaches row `i`. Never shorter than any owner column.
    summed: Vec<u64>,
}

/// Per-owner share columns stored at one server (the owner uploads these
/// in Phase 1; Table 11's layout).
///
/// **Stored shares are canonical and pre-summed**: every write reduces the
/// incoming values into their column's ring (`Z_δ` for the additive
/// indicator columns, `F_p` for the Shamir ones), once, and folds them into
/// that column's owner sum, so a query scans one canonical column whatever
/// the owner count. Writes take `&mut self`; nothing else touches the sums.
#[derive(Debug)]
pub(crate) struct ColumnStore {
    delta: u64,
    p: u64,
    ok: Stored,
    v_ok: Stored,
    ok_db1: Stored,
    ok_db2: Stored,
    a_ok: Stored,
    agg: Vec<Stored>,
    v_agg: Vec<Stored>,
    /// Per-range version stamps, ordered by `start`. Every
    /// [`ColumnStore::store`] bumps *all* epochs (a full-column write
    /// dirties the whole store); [`ColumnStore::bump_range`] bumps (or
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

    /// The one ingest path: replace `owner`'s rows of `column` from `start`
    /// on with `data` (zero-padding up to `start`), reduced into the
    /// column's ring, and keep the owner sum in step by retiring the
    /// replaced rows and folding in the new ones.
    fn write(&mut self, owner: usize, column: Column, start: usize, mut data: Vec<u64>) {
        let n = match column {
            Column::Ok | Column::VOk | Column::OkDb1 | Column::OkDb2 => self.delta,
            Column::Agg(_) | Column::VAgg(_) | Column::AOk => self.p,
        };
        let Stored { owners, summed } = self.slot(column);
        if owners.len() <= owner {
            owners.resize(owner + 1, Vec::new());
        }
        let col = &mut owners[owner];
        if let Some(replaced) = col.get(start..) {
            sub_assign_mod(&mut summed[start..start + replaced.len()], replaced, n);
        }
        let end = start + data.len();
        if summed.len() < end {
            summed.resize(end, 0);
        }
        fold_canonical_mod(&mut summed[start..end], &mut data, n);
        if start == 0 {
            *col = data;
        } else {
            col.resize(start, 0);
            col.extend_from_slice(&data);
        }
    }

    /// Store one owner's share vector for `column`, bumping the store
    /// version (every epoch's stamp — a full-column write dirties the
    /// whole store).
    pub(crate) fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        let len = data.len() as u64;
        self.write(owner, column, 0, data);
        if self.epochs.is_empty() {
            self.epochs.push((0, len, 0));
        }
        for e in &mut self.epochs {
            e.2 += 1;
        }
    }

    /// Append one owner's delta segment to `column` starting at local row
    /// `start` (the column is zero-padded up to `start` if it was never
    /// stored — servers tolerate partial uploads the same way
    /// [`ColumnStore::store`] does). Does **not** touch the version
    /// stamps; the caller bumps exactly once per owner-delta via
    /// [`ColumnStore::bump_range`] after appending every column it
    /// carries.
    pub(crate) fn append(&mut self, owner: usize, column: Column, data: Vec<u64>, start: usize) {
        self.write(owner, column, start, data);
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
        if let Some(j) = owners.iter().position(|col| !covers(col.len())) {
            return Err(ProtocolError::ParameterMismatch(format!(
                "owner {j} stores {} cells of {column:?}, expected {}",
                owners[j].len(),
                whole.unwrap_or(rows.end)
            )));
        }
        summed
            .get(rows)
            .ok_or_else(|| ProtocolError::ParameterMismatch(format!("no {column:?} shares stored")))
    }
}

/// How many row buffers a node keeps around between rounds: the reply
/// vectors of a batch of a few items that came home, or the compute +
/// permutation staging of one query; a little slack covers concurrent
/// queries through the multiplexer without letting an N-stream burst pin N×
/// the domain size forever.
const MAX_POOLED_BUFFERS: usize = 4;

/// A per-node pool of flat `u64` row buffers — the "per-query arena".
///
/// Every stored-column evaluation needs one output buffer per batch item
/// (and a second one when a finishing permutation applies). Instead of
/// allocating per query, the node checks buffers out of this pool, the
/// `_into` step kernels write into them in place, permutation staging
/// buffers return once their contents are moved, and the reply vectors
/// return once the owner step that read them has ended
/// ([`ServerNode::reclaim`]). Queries run concurrently under the session
/// multiplexer, so the pool is behind a `Mutex` — the lock is held only for
/// a pop/push, never during row work.
///
/// **A pooled buffer is handed out as it is, stale contents included.**
/// That is sound because a round writes every cell of every buffer it
/// takes, exactly once, before anything reads it ([`run_round`] refuses a
/// division that does not tile the output), and a buffer only ever returns
/// to the node that filled it. The pool holds buffers of one length — the
/// last one returned; a buffer of any other length is dropped, never
/// resized, so a grown domain or a range-scoped round cannot pin memory of
/// a shape nobody asks for any more.
#[derive(Debug, Default)]
struct BufferArena {
    pool: std::sync::Mutex<Vec<Vec<u64>>>,
}

impl BufferArena {
    /// Check out a buffer of length `n` whose contents are unspecified: a
    /// pooled one of exactly that length, untouched, else a fresh one.
    fn take(&self, n: usize) -> Vec<u64> {
        let recycled = self.pool.lock().ok().and_then(|mut p| match p.last() {
            Some(buf) if buf.len() == n => p.pop(),
            _ => None,
        });
        recycled.unwrap_or_else(|| vec![0u64; n])
    }

    /// Return a buffer to the pool, evicting buffers of any other length
    /// (dropped if the pool is full or its lock was poisoned — never blocks
    /// correctness on the pool). Test and debug builds poison it first, so a
    /// cell a later round failed to write could not pass for an answer.
    fn put(&self, mut buf: Vec<u64>) {
        if cfg!(any(test, debug_assertions)) {
            buf.fill(u64::MAX);
        }
        if let Ok(mut p) = self.pool.lock() {
            p.retain(|pooled| pooled.len() == buf.len());
            if p.len() < MAX_POOLED_BUFFERS {
                p.push(buf);
            }
        }
    }
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
    params: ServerParams,
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
    /// Reusable flat row buffers for query evaluation.
    arena: BufferArena,
}

impl ServerNode {
    /// A node with empty storage and honest behaviour.
    pub fn new(params: ServerParams) -> ServerNode {
        ServerNode {
            store: ColumnStore::new(&params),
            params,
            tamper: Tamper::Honest,
            psu_rand: std::sync::OnceLock::new(),
            power_table: std::sync::OnceLock::new(),
            arena: BufferArena::default(),
        }
    }

    fn psu_rand(&self) -> &[u64] {
        self.psu_rand
            .get_or_init(|| psu::blinding_for(&self.params))
    }

    fn power_table(&self) -> &[u64] {
        self.power_table.get_or_init(|| self.params.power_table())
    }

    /// This node's role parameters.
    pub fn params(&self) -> &ServerParams {
        &self.params
    }

    /// Attach a tampering behaviour (tests). Applied to the output of
    /// every subsequent stored-column evaluation.
    pub fn set_tamper(&mut self, tamper: Tamper) {
        self.tamper = tamper;
    }

    /// Phase 1: store one owner's share column (bumps the store version).
    pub fn store(&mut self, owner: usize, column: Column, data: Vec<u64>) {
        self.store.store(owner, column, data);
    }

    /// Every owner's stored shares of `column` (the golden share-digest
    /// test reads the stores back through this).
    #[cfg(test)]
    pub(crate) fn stored(&self, column: Column) -> &[Vec<u64>] {
        &self.store.col(column).owners
    }

    /// Append one owner's delta segment (all its columns share one
    /// appended row range) starting at **local** row `start`.
    ///
    /// The first delta reaching past the current domain end grows the
    /// node: `b` extends by the segment length and the output permutations
    /// extend block-diagonally — with the explicit `perm_ext`
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
        let added = match columns.first() {
            Some((_, data)) => data.len(),
            None => {
                return Err(ProtocolError::ParameterMismatch(
                    "delta upload carries no columns".into(),
                ))
            }
        };
        if added == 0 || columns.iter().any(|(_, d)| d.len() != added) {
            return Err(ProtocolError::ParameterMismatch(
                "delta upload columns must share one non-empty appended range".into(),
            ));
        }
        if start + added > self.params.b {
            // First delta of a new epoch: grow the domain. Appends must be
            // contiguous — a gap would desynchronize the PSU blinding
            // stream's global cell order.
            if start != self.params.b {
                return Err(ProtocolError::ParameterMismatch(format!(
                    "delta upload at rows [{start}, {}) must append at the domain end {}",
                    start + added,
                    self.params.b
                )));
            }
            let (e1, e2) = match perm_ext {
                Some((e1, e2)) => {
                    if e1.len() != added || e2.len() != added {
                        return Err(ProtocolError::ParameterMismatch(format!(
                            "permutation extension blocks must cover the appended range \
                             ({added} rows, got {} and {})",
                            e1.len(),
                            e2.len()
                        )));
                    }
                    (e1.clone(), e2.clone())
                }
                None => (Permutation::identity(added), Permutation::identity(added)),
            };
            self.params.pf_s1 = self.params.pf_s1.concat(&e1);
            self.params.pf_s2 = self.params.pf_s2.concat(&e2);
            self.params.b = start + added;
            // The blinding slice covers [row_offset, row_offset + b) and
            // must be re-drawn at the new length.
            self.psu_rand = std::sync::OnceLock::new();
        } else if start + added != self.params.b {
            return Err(ProtocolError::ParameterMismatch(format!(
                "delta upload rows [{start}, {}) do not match the latest epoch (domain end {})",
                start + added,
                self.params.b
            )));
        }
        for (column, data) in columns {
            self.store.append(owner, column, data, start);
        }
        self.store.bump_range(start as u64, added as u64);
        Ok(())
    }

    /// The node's monotonic store version (see `ColumnStore::version`).
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// The node's per-range version stamps in **global** row coordinates
    /// (the store's local epochs shifted by this node's `row_offset`).
    pub fn range_versions(&self) -> Vec<RangeVersion> {
        let off = self.params.row_offset as u64;
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
        let sp = &self.params;
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
                &self.params,
                &self.tamper,
                batch,
            )?)),
            ServerCmd::MaxCombine { uploads, threads } => Ok(ServerReply::Wide(
                max::server_max_round_threads(uploads, &self.params, (*threads).max(1) as usize)?,
            )),
            ServerCmd::AssembleFpos { claims } => Ok(ServerReply::Fpos(max::server_assemble_fpos(
                claims,
                &self.params,
            )?)),
            ServerCmd::RangeVersions => Ok(ServerReply::Versions(self.range_versions())),
        }
    }

    /// Take back the vectors of a [`ServerReply::Vectors`] this node
    /// answered, once nothing reads them any more (in-process: the owner
    /// step ended; on a wire: the reply frame is encoded). The next round
    /// of the same length writes its outputs into them instead of into
    /// fresh memory.
    pub fn reclaim(&self, outputs: Vec<Vec<u64>>) {
        outputs.into_iter().for_each(|out| self.arena.put(out));
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
    let arena = &nodes[0].arena;
    let mut outs: Vec<Vec<u64>> = batch.items.iter().map(|_| arena.take(len)).collect();
    // `work[w]` is worker w's blocks: block w of every shard.
    let mut work: Vec<Vec<Block>> = Vec::new();
    let mut rest: Vec<&mut [u64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
    let mut at = 0;
    for (node, held) in nodes.iter().enumerate() {
        let np = &held.params;
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
        outs.into_iter().for_each(|out| arena.put(out));
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
        outs.into_iter().for_each(|out| arena.put(out));
        return Err(e);
    }
    for (item, out) in batch.items.iter().zip(&mut outs) {
        tamper.apply(out);
        if let Some(p) = item.op.finish_perm(domain)? {
            let mut permuted = arena.take(len);
            p.apply_into(out, &mut permuted);
            arena.put(std::mem::replace(out, permuted));
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
    /// over a wire) plus the dispatch meters attributable to exactly this
    /// call. Wide matrices produced by [`ServerCmd::MaxCombine`] must be
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

    /// Cumulative dispatch meters for this backend. Backends without
    /// fan-out keep the default zeros; sharded backends report how many
    /// shard sub-commands they have issued so far.
    fn meters(&self) -> ExecMeters {
        ExecMeters::default()
    }

    /// Take back the vectors of a [`ServerReply::Vectors`] that `server`
    /// answered in an earlier [`ServerExec::round`], now that the owner
    /// step reading them has ended ([`Ctx::finish`] calls this). A backend
    /// that can write its next reply into them does: in-process they return
    /// to that server's own node ([`ServerNode::reclaim`]) — never to
    /// another server's, so no server ever sees a peer's cells — and over a
    /// wire to the decode pool they were drawn from. The default drops
    /// them.
    fn reclaim(&self, server: usize, outputs: Vec<Vec<u64>>) {
        let _ = (server, outputs);
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

    fn meters(&self) -> ExecMeters {
        (**self).meters()
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
                &self.params,
                threads,
            )?),
            AnnouncerCmd::FindMedian => AnnouncerReply::Median(median::announcer_find_median(
                &from_s1,
                &from_s2,
                &self.params,
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

    fn reclaim(&self, server: usize, outputs: Vec<Vec<u64>>) {
        if let Some(node) = self.nodes.get(server) {
            node.reclaim(outputs);
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
    /// round-trip happened — and lands in
    /// [`QueryStats::cache_hits`] instead.
    ///
    /// The cache and `shard_dispatches` counters come straight out of the
    /// [`RoundOutcome`] — each backend reports the meters attributable to
    /// exactly this call — so per-query stats stay exact even when many
    /// queries interleave on one shared backend.
    pub fn round(&mut self, cmds: Vec<(usize, ServerCmd)>) -> Result<Vec<ServerReply>> {
        let RoundOutcome {
            replies,
            cost,
            meters,
        } = self.exec.round(cmds)?;
        self.stats.cache_hits += meters.cache_hits;
        self.stats.cache_misses += meters.cache_misses;
        self.stats.cache_invalidations += meters.cache_invalidations;
        self.stats.failovers += meters.failovers;
        if meters.cache_hits == 0 {
            self.stats.rounds += 1;
        }
        self.stats.server_time += cost;
        self.stats.shard_dispatches += meters.shard_dispatches;
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

    /// Run (and time) an owner-side step.
    pub fn owner_step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.stats.owner_time += t0.elapsed();
        out
    }

    /// Fallible variant of [`Ctx::owner_step`] (time is charged whether or
    /// not the step succeeds).
    pub(crate) fn try_owner_step<T>(&mut self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let t0 = Instant::now();
        let out = f();
        self.stats.owner_time += t0.elapsed();
        out
    }

    /// Run (and time, as `Ctx::try_owner_step` does) the owner step that
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
            self.try_owner_step(|| f(&views[..outputs.len()]))
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
        self.stats.owner_time += worst;
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

    #[test]
    fn deposit_rejects_non_additive_servers() {
        let ann = announcer();
        let w = ann.params().wide_width;
        assert!(ann.deposit(2, 1, upload(w, 2, 0)).is_err());
    }
}
