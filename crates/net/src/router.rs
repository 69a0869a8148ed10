//! One server domain's data plane: the **router** that fronts a sharded
//! domain ([`domain_loop`]) and the **node loop** that serves every
//! engine [`ServerNode`] ([`node_loop`]), whatever brought them up.
//!
//! A domain router splits Phase-1 uploads and every
//! [`Message::RunBatch`] by rows ([`ShardPlan`]), fans the sub-batches
//! out as shard-tagged [`Message::ShardRun`] envelopes, and merges the
//! shard rows back with [`merge_shard_outputs`] — applying the domain's
//! tampering behaviour and finish permutations *server-side*, where
//! `PF_s1`/`PF_s2` are allowed to live. Its fan-out — row plan, worker
//! links, replica sets — is a [`DomainState`] read under a lock on every
//! message. [`crate::registry`] builds that state and starts every
//! router and node. Behind an attach endpoint it shares the state with
//! the attach dispatcher and keep-alive prober, which re-plan it when
//! workers come and go; a fixed roster fills it once — `rf = 1`, one
//! [`WorkerSlot`] per spawned node — and nobody else ever takes the
//! write side. One router, one node loop, one way to reach them.

use crate::executor::RoundExecutor;
use crate::mux::{MuxLink, Pending};
use crate::registry::Health;
use crate::transport::{Link, NetError};
use crate::wire::{Edges, Message};
use parking_lot::RwLock;
use prism_core::Permutation;
use prism_protocol::engine::{BatchQuery, ReplayLog, ServerCmd, ServerNode, ServerReply};
use prism_protocol::malicious::Tamper;
use prism_protocol::metrics::Metrics;
use prism_protocol::params::ServerParams;
use prism_protocol::pool;
use prism_protocol::shard::{merge_shard_outputs, shard_server_params, Columns, Domain, ShardSpec};
use prism_protocol::ProtocolError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Answer the owner side: tagged when the request carried a query
/// envelope (the reply must route back through the owner's multiplexer to
/// that query's slot), plain otherwise.
pub(crate) fn reply(link: &dyn Link, tag: Option<u64>, msg: Message) -> Result<(), NetError> {
    link.send_owned(enveloped(tag, msg))
}

/// Admit a message received on `link`, split from its query tag, if one
/// of `edges` carries it. A tagged message none of them carries is
/// answered with [`Message::Refused`] naming its wire tag and the edges —
/// the query waiting on it fails instead of waiting forever — and comes
/// back as `None`; an untagged one is [`NetError::Unadmitted`], which ends
/// the loop serving the link. Nothing is dropped in silence.
pub(crate) fn admit(
    link: &dyn Link,
    edges: Edges,
    received: Message,
) -> Result<Option<(Option<u64>, Message)>, NetError> {
    let (tag, msg) = received.untag();
    if edges.carries(&msg) {
        return Ok(Some((tag, msg)));
    }
    let unadmitted = NetError::Unadmitted {
        tag: msg.wire_tag(),
        edges,
    };
    match tag {
        Some(_) => reply(link, tag, Message::Refused(unadmitted.to_string())).map(|()| None),
        None => Err(unadmitted),
    }
}

/// The next message on `link` that one of `edges` carries ([`admit`]).
pub(crate) fn recv_admitted(
    link: &dyn Link,
    edges: Edges,
) -> Result<(Option<u64>, Message), NetError> {
    loop {
        if let Some(admitted) = admit(link, edges, link.recv()?)? {
            return Ok(admitted);
        }
    }
}

/// `msg` as [`reply`] puts it on the link.
fn enveloped(tag: Option<u64>, msg: Message) -> Message {
    match tag {
        Some(t) => msg.tagged(t),
        None => msg,
    }
}

/// Execute one wide command (max/median round) on `node` and answer the
/// owner: a combined matrix goes to the announcer over the dedicated
/// server→announcer link and the owner gets the shape receipt; an fpos
/// table goes back on the owner link directly (claim shares are owner
/// data). Any failure — node error, or a wide round at a server with no
/// announcer edge — is reported as the zero receipt / empty table, which
/// the plans' shape checks turn into a protocol error at the owner
/// (servers are malicious in this threat model; they must not panic or
/// hang the owner).
///
/// Ordering matters under concurrency: the `WideUpload` is sent *before*
/// the owner's receipt, so by the time any owner can quote `seq` in an
/// `AnnounceRun`, that round's uploads are already in flight on the
/// server→announcer edges — the announcer's drain can never wait on an
/// upload that was not yet sent. The upload itself stays untagged: its
/// `seq` (not a `QueryId`) is what pairs it at the announcer.
fn run_wide(
    node: &ServerNode,
    cmd: ServerCmd,
    seq: u64,
    tag: Option<u64>,
    owner_link: &dyn Link,
    announcer: Option<&dyn Link>,
) -> Result<(), NetError> {
    if matches!(cmd, ServerCmd::AssembleFpos { .. }) {
        let outs = match node.execute(&cmd) {
            Ok(ServerReply::Fpos(f)) => f,
            _ => Vec::new(),
        };
        return reply(owner_link, tag, Message::Fpos(outs));
    }
    let mut receipt = (0, 0);
    if let (Ok(ServerReply::Wide(w)), Some(ann)) = (node.execute(&cmd), announcer) {
        receipt = (w.rows() as u64, w.width as u32);
        let server = node.params().server_id as u32;
        ann.send_owned(Message::WideUpload {
            server,
            seq,
            shares: w,
        })?;
    }
    let (rows, width) = receipt;
    reply(owner_link, tag, Message::WideForwarded { rows, width, seq })
}

/// Serve one wide command on a worker of `rounds`, against a read lock on
/// `node` (see [`run_wide`]).
fn serve_wide(
    rounds: &RoundExecutor,
    node: &Arc<RwLock<ServerNode>>,
    cmd: ServerCmd,
    seq: u64,
    tag: Option<u64>,
    owner_link: &Arc<dyn Link>,
    announcer: &Option<Arc<dyn Link>>,
) {
    let (node, owner_link, ann) = (Arc::clone(node), Arc::clone(owner_link), announcer.clone());
    rounds.execute(move || {
        let _ = run_wide(
            &node.read(),
            cmd,
            seq,
            tag,
            owner_link.as_ref(),
            ann.as_deref(),
        );
    });
}

/// Run a stored-column batch on a node, flattening failures to the empty
/// output list (the engine's reply-shape check rejects it as a
/// `MalformedResponse` at the owner — servers are malicious in this
/// threat model and must not panic or hang the owner).
fn run_batch_on(node: &ServerNode, batch: BatchQuery) -> Vec<Vec<u64>> {
    let cmd = ServerCmd::Run(batch);
    let outs = match node.execute(&cmd) {
        Ok(ServerReply::Vectors(outs)) => outs,
        _ => Vec::new(),
    };
    // The z buffers are dead once the kernels ran; hand them to the pool
    // the next round's buffers come from.
    if let ServerCmd::Run(batch) = cmd {
        pool::recycle_vecs(batch.zs);
    }
    outs
}

/// Serve one stored-column batch on a worker of `rounds`, against a read
/// lock on `node`: run it and answer the owner with `wrap(outputs)`, sent
/// owned — a channel link moves the reply vectors to the owner, a TCP
/// link hands them to the pool once encoded, and the node's next round
/// draws them from there.
fn serve_batch(
    rounds: &RoundExecutor,
    node: &Arc<RwLock<ServerNode>>,
    batch: BatchQuery,
    tag: Option<u64>,
    link: &Arc<dyn Link>,
    wrap: impl FnOnce(Vec<Vec<u64>>) -> Message + Send + 'static,
) {
    let (node, link) = (Arc::clone(node), Arc::clone(link));
    rounds.execute(move || {
        let outputs = run_batch_on(&node.read(), batch);
        let _ = reply(link.as_ref(), tag, wrap(outputs));
    });
}

/// Decode a delta upload's permutation extensions: empty maps mean
/// identity blocks (`None`); malformed maps refuse the delta.
fn decode_perm_ext(
    pf_s1_ext: Vec<u32>,
    pf_s2_ext: Vec<u32>,
) -> Result<Option<(Permutation, Permutation)>, String> {
    if pf_s1_ext.is_empty() && pf_s2_ext.is_empty() {
        return Ok(None);
    }
    match (
        Permutation::from_map(pf_s1_ext),
        Permutation::from_map(pf_s2_ext),
    ) {
        (Some(e1), Some(e2)) => Ok(Some((e1, e2))),
        _ => Err("a permutation extension is not a permutation".into()),
    }
}

/// An upload's answer: [`Message::Ack`] if it was applied, else
/// [`Message::Refused`] with the reason.
fn receipt(done: Result<(), ProtocolError>) -> Message {
    match done {
        Ok(()) => Message::Ack,
        Err(ProtocolError::UploadRefused(why)) => Message::Refused(why),
        Err(other) => Message::Refused(other.to_string()),
    }
}

/// Serve one engine [`ServerNode`] over `link` until `Shutdown`.
///
/// `spec0` says what the node holds. `None` is a whole domain sitting
/// directly behind the owner link — the router-less `shards == 1`
/// topology — so the node keeps the domain's real finish permutations
/// and applies a delta upload's extension blocks itself. `Some(range)`
/// is one row range behind a [`domain_loop`] router: the node runs on
/// the [`shard_server_params`] view (identity permutations; the router
/// permutes after merging) and re-derives it on every [`Message::Assign`]
/// that moves the range. `announcer` is the server→announcer edge of an
/// additive domain's front node; without one a `MaxCombine` answers the
/// zero receipt ([`run_wide`]), so a worker behind a router — which
/// fronts the edge for its whole domain — can never upload wide shares.
///
/// `version_base` makes the node's range stamps strictly increase across
/// re-assignments: each rebuilding `Assign` folds the old node's version
/// (plus one) into the base, and probes answer `base + stamp` — so a
/// heal can never leave a stamp where it was, and every stale cache
/// entry dies.
///
/// **Concurrency.** Query rounds (`RunBatch`, `ShardRun`, the wide
/// commands) are served on the loop's [`RoundExecutor`] — a parked worker,
/// or a new one when none is parked — holding a read lock on the node, so
/// N queries multiplexed over this link compute in parallel; each reply
/// carries the request's query tag. Store mutations (uploads, tamper
/// control, assignments) take the write lock inline on the serving
/// thread — the link's receive order is the linearization point.
/// `Shutdown` waits for every round in flight, then retires the workers.
///
/// **Admission.** A whole domain behind the owner link admits the owner
/// → domain and test-control edges; a row range admits what its router
/// and the registry send it. So no owner can `Assign` a store away, and a
/// message of another edge is refused ([`admit`]).
pub(crate) fn node_loop(
    domain_params: ServerParams,
    link: Arc<dyn Link>,
    spec0: Option<ShardSpec>,
    tamper0: Tamper,
    announcer: Option<Arc<dyn Link>>,
) -> Result<(), NetError> {
    // Shard views are identity-permuted, so the template they are cut
    // from keeps no finish permutations; a front node takes the real
    // ones with it (one copy of two domain-sized maps, not two).
    let mut template = domain_params;
    let pf_s1 = std::mem::replace(&mut template.pf_s1, Permutation::identity(0));
    let pf_s2 = std::mem::replace(&mut template.pf_s2, Permutation::identity(0));
    let build = |params: ServerParams| {
        let mut n = ServerNode::new(params);
        // A node born tampered (chaos testing) stays tampered across
        // rebuilds; honest nodes get the identity.
        n.set_tamper(tamper0);
        n
    };
    let node = Arc::new(RwLock::new(build(match &spec0 {
        Some(spec) => shard_server_params(&template, spec),
        None => ServerParams {
            pf_s1,
            pf_s2,
            ..template.clone()
        },
    })));
    let edges = match spec0 {
        None => Edges::OWNER_DOMAIN | Edges::TEST_SERVER,
        Some(_) => Edges::ROUTER_WORKER | Edges::REGISTRY_WORKER,
    };
    let mut version_base = 0u64;
    let rounds = RoundExecutor::new();
    loop {
        let (tag, msg) = recv_admitted(link.as_ref(), edges)?;
        match msg {
            // Every upload is applied whole or refused whole; a refusal
            // leaves the store as it was and answers with its reason.
            Message::BulkUpload { owner, columns } => {
                let done = node.write().put(owner as usize, 0, columns);
                reply(link.as_ref(), tag, receipt(done))?;
            }
            Message::Replay { columns } => {
                let done = node.write().restore(columns);
                reply(link.as_ref(), tag, receipt(done))?;
            }
            Message::FoldUpload {
                owner,
                epoch,
                columns,
            } => {
                let done = node.write().fold(owner as usize, epoch, columns);
                reply(link.as_ref(), tag, receipt(done))?;
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => {
                // Node-local coordinates. A router forwards empty
                // extensions: its workers extend by identity.
                let done = match decode_perm_ext(pf_s1_ext, pf_s2_ext) {
                    Ok(ext) => node.write().delta_upload(
                        owner as usize,
                        start as usize,
                        columns,
                        ext.as_ref().map(|(e1, e2)| (e1, e2)),
                    ),
                    Err(why) => Err(ProtocolError::UploadRefused(why)),
                };
                reply(link.as_ref(), tag, receipt(done))?;
            }
            Message::SetTamper(t) => {
                node.write().set_tamper(t);
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::RangeVersionProbe => {
                let v = node
                    .read()
                    .range_versions()
                    .into_iter()
                    .map(|(s, l, ver)| (s, l, ver + version_base))
                    .collect();
                reply(link.as_ref(), tag, Message::Versions(v))?;
            }
            Message::Ping { seq } => {
                reply(link.as_ref(), tag, Message::Pong { seq })?;
            }
            Message::Assign { start, len } => {
                let spec = ShardSpec {
                    index: 0,
                    start: start as usize,
                    len: len as usize,
                };
                // The log's replay follows, and it only puts into an
                // empty store: rebuild unless the node is already an empty
                // store over this range (the range held counts delta
                // growth — the node's own `b` tracks it). Skipping that
                // no-op keeps a worker's version base a function of the
                // ranges it held, so replicas of one range stamp alike.
                let (held, stored) = {
                    let n = node.read();
                    let p = n.params();
                    ((p.row_offset - template.row_offset, p.b), n.version() > 0)
                };
                if stored || held != (spec.start, spec.len) {
                    // The write lock drains in-flight query readers
                    // before the rebuild — no round computes across it.
                    let mut node = node.write();
                    version_base += node.version() + 1;
                    *node = build(shard_server_params(&template, &spec));
                }
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::RunBatch(batch) => {
                serve_batch(&rounds, &node, batch, tag, &link, Message::Outputs);
            }
            Message::ShardRun { shard, batch } => {
                // Echo the shard index so the router can detect crossed
                // links.
                let wrap = move |outputs| Message::ShardOutputs { shard, outputs };
                serve_batch(&rounds, &node, batch, tag, &link, wrap);
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                let cmd = ServerCmd::MaxCombine { uploads, threads };
                serve_wide(&rounds, &node, cmd, seq, tag, &link, &announcer);
            }
            Message::AssembleFpos { claims } => {
                let cmd = ServerCmd::AssembleFpos { claims };
                serve_wide(&rounds, &node, cmd, 0, tag, &link, &announcer);
            }
            Message::Shutdown => {
                rounds.shutdown();
                return Ok(());
            }
            Message::Outputs(_)
            | Message::Ack
            | Message::ShardOutputs { .. }
            | Message::Fpos(_)
            | Message::WideForwarded { .. }
            | Message::WideUpload { .. }
            | Message::AnnounceRun { .. }
            | Message::AnnounceReply(_)
            | Message::SetAnnouncerTamper(_)
            | Message::Tagged { .. }
            | Message::Register { .. }
            | Message::RegisterAck { .. }
            | Message::Pong { .. }
            | Message::NodeDown { .. }
            | Message::Versions(_)
            | Message::Refused(_) => unreachable!("not carried on {edges}: refused on receipt"),
        }
    }
}

/// One shard worker of a domain, as its router (and, on elastic
/// clusters, the registry's prober) tracks it.
pub(crate) struct WorkerSlot {
    pub(crate) node: u64,
    pub(crate) label: String,
    pub(crate) link: Arc<MuxLink>,
    pub(crate) health: Health,
    /// Index into the domain plan's specs of the row range this worker
    /// holds. Several workers share a range under replication; holder
    /// order within [`DomainState::workers`] breaks the tie — the first
    /// holder of a range is its primary.
    pub(crate) range: usize,
}

impl WorkerSlot {
    /// A live worker reachable over `link`, holding plan range `range`.
    /// The link goes behind a labeled multiplexer counting into `metrics`
    /// (a store of its own if `None`), so its death surfaces as
    /// [`NetError::NodeDown`] naming the worker.
    pub(crate) fn new(
        node: u64,
        label: String,
        link: Arc<dyn Link>,
        range: usize,
        metrics: Option<Arc<Metrics>>,
    ) -> WorkerSlot {
        let metrics = metrics.unwrap_or_default();
        WorkerSlot {
            node,
            link: MuxLink::counted(link, Some(label.clone()), metrics),
            label,
            health: Health::alive(),
            range,
        }
    }
}

/// Mutable per-domain routing state, shared between the router (reader;
/// writer only to grow the domain on a delta upload) and — on elastic
/// clusters — the attach dispatcher and the prober (writers). The lock
/// is the heal barrier: a route task holds `read` for its whole
/// fan-out, a heal holds `write` across assign + replay, so every query
/// runs entirely before or entirely after a heal — never against a
/// half-replayed store.
pub(crate) struct DomainState {
    /// The domain's parameters and row plan, and the rules every upload
    /// is cut, fold-checked and grown by.
    pub(crate) domain: Domain,
    /// Configured worker ceiling (`ranges × rf`); attaches beyond it
    /// are rejected.
    pub(crate) target: usize,
    /// Replication factor each row range is stored at (when enough
    /// workers are attached).
    pub(crate) rf: usize,
    pub(crate) workers: Vec<WorkerSlot>,
    /// What the workers hold, for a heal to restore (elastic domains
    /// only: a fixed roster never heals). The router checks each upload
    /// against it, then writes it under the write lock once the workers
    /// acked, so a heal — which holds the same lock — restores exactly
    /// what they applied.
    pub(crate) log: Option<ReplayLog>,
}

impl DomainState {
    /// A domain of (up to) `ranges` row ranges stored `rf` times each,
    /// with no workers yet.
    pub(crate) fn new(params: ServerParams, ranges: usize, rf: usize) -> DomainState {
        let domain = Domain::new(params, ranges);
        DomainState {
            target: domain.plan().shard_count() * rf,
            rf,
            domain,
            workers: Vec::new(),
            log: None,
        }
    }

    /// Worker indices holding plan range `r`, in attach order — the
    /// first is the range's primary.
    pub(crate) fn holders_of(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.workers
            .iter()
            .enumerate()
            .filter(move |(_, w)| w.range == r)
            .map(|(i, _)| i)
    }

    /// Whether the domain needs no router: one row range on one holder
    /// that never moves, because nothing heals the domain (it keeps no
    /// replay log). Its one node then holds the whole domain, sits
    /// straight behind the owner link and fronts the announcer edge.
    pub(crate) fn routerless(&self) -> bool {
        self.log.is_none() && self.rf == 1 && self.domain.plan().shard_count() == 1
    }

    /// Refuses, as [`AckFail::Refused`], an upload the domain's replay log
    /// would not take over the current `b` rows, checking `logged` — the
    /// log's copy of it, kept iff the domain keeps a log: the log sees the
    /// whole domain, so it also catches a gap or overlap across a range
    /// boundary that no single worker can see. A domain with no worker
    /// left is down first, as [`fan_acked`] reports it.
    fn check_log(
        &self,
        logged: Option<&Columns>,
        check: impl FnOnce(&ReplayLog, &Columns, usize) -> Result<(), ProtocolError>,
    ) -> Result<(), AckFail> {
        match (&self.log, logged) {
            (Some(_), _) if self.workers.is_empty() => Err(AckFail::Down(NO_WORKERS)),
            (Some(log), Some(columns)) => Ok(check(log, columns, self.domain.params().b)?),
            _ => Ok(()),
        }
    }

    /// True iff every range of the current plan still has at least one
    /// holder — the promotion precondition: no row range was lost.
    pub(crate) fn covered(&self) -> bool {
        (0..self.domain.plan().shard_count()).all(|r| self.holders_of(r).next().is_some())
    }

    /// Per-range holder *links*, primary first — the fan-out a route
    /// task snapshots under the read lock.
    fn holder_links(&self) -> Vec<Vec<Arc<MuxLink>>> {
        (0..self.domain.plan().shard_count())
            .map(|r| {
                self.holders_of(r)
                    .map(|i| Arc::clone(&self.workers[i].link))
                    .collect()
            })
            .collect()
    }
}

/// A domain with zero surviving workers is *offline*, not empty: every
/// data-path message answers `NodeDown` with this sentinel until a
/// replacement worker attaches and the registry re-fans.
const NO_WORKERS: u64 = u64::MAX;

/// Why an acked fan failed: every holder of some range is down
/// (reported as [`Message::NodeDown`] naming a dead worker), or a holder
/// refused the upload ([`Message::Refused`], with its reason).
enum AckFail {
    Down(u64),
    Refused(String),
}

/// A refusal by the domain's rules, its replay log or a worker's node.
impl From<ProtocolError> for AckFail {
    fn from(e: ProtocolError) -> AckFail {
        match e {
            ProtocolError::UploadRefused(why) => AckFail::Refused(why),
            other => AckFail::Refused(other.to_string()),
        }
    }
}

impl AckFail {
    /// The answer the owner gets.
    fn message(self) -> Message {
        match self {
            AckFail::Down(node) => Message::NodeDown { node },
            AckFail::Refused(why) => Message::Refused(why),
        }
    }
}

/// One holder's answer to an acked message: `Ok(true)` for an ack,
/// `Ok(false)` for a dead link or anything else, the refusal as an error.
fn ack_of(reply: Result<Message, NetError>) -> Result<bool, AckFail> {
    match reply {
        Ok(Message::Ack) => Ok(true),
        Ok(Message::Refused(why)) => Err(AckFail::Refused(why)),
        _ => Ok(false),
    }
}

/// Fan an acked upload to **every holder** of every range: `wrap` of the
/// range's cut of the columns ([`Domain::cut`]), moved to the range's last
/// holder and cloned for the ones before it. The fan is tolerant
/// per range: a holder whose link fails mid-upload is survivable as
/// long as *some* holder of that range acked — link death is sticky, so
/// the lagging holder can never serve a query again and the prober will
/// reap it. [`AckFail::Down`] means some range got no ack at all; a
/// holder's refusal is [`AckFail::Refused`] whatever the others said
/// (every holder of a range holds the same rows, so they refuse alike).
fn fan_acked(
    st: &DomainState,
    corr: u64,
    mut cuts: Vec<Columns>,
    wrap: impl Fn(Columns) -> Message,
) -> Result<(), AckFail> {
    if st.workers.is_empty() {
        return Err(AckFail::Down(NO_WORKERS));
    }
    let mut pendings = Vec::with_capacity(st.workers.len());
    let mut failed = NO_WORKERS;
    for (i, slot) in st.workers.iter().enumerate() {
        let cut = if st.workers[i + 1..].iter().any(|w| w.range == slot.range) {
            cuts[slot.range].clone()
        } else {
            std::mem::take(&mut cuts[slot.range])
        };
        let sent = slot
            .link
            .begin(corr)
            .and_then(|p| slot.link.send(corr, wrap(cut)).map(|()| p));
        match sent {
            Ok(p) => pendings.push((i, p)),
            Err(_) => failed = i as u64,
        }
    }
    let mut acked = vec![false; st.domain.plan().shard_count()];
    let mut refused = None;
    for (i, p) in pendings {
        match ack_of(p.recv()) {
            Ok(true) => acked[st.workers[i].range] = true,
            Ok(false) => failed = i as u64,
            Err(fail) => refused = Some(fail),
        }
    }
    if let Some(fail) = refused {
        return Err(fail);
    }
    acked
        .iter()
        .all(|&a| a)
        .then_some(())
        .ok_or(AckFail::Down(failed))
}

/// Outcome of a failed route: a link-level loss of every holder of one
/// range (`Down`, reported as [`Message::NodeDown`] — crash, not
/// tamper), or a reply that arrived but was malformed (`Malformed`,
/// reported as an empty output list — tamper-shaped, **never** retried
/// on a replica: a standby must not be able to mask what verification
/// would catch).
enum RouteFail {
    Down(u64),
    Malformed,
}

/// One request per row range over the holder sets, `request(r, last)`
/// building range `r`'s (`last`: no standby is left to retry it on). Every
/// range's request ships to its primary (first holder) at once, so the
/// failure-free path keeps every range's round-trip concurrent; a
/// *link-level* failure — begin/send refused or the pump dead — retries
/// the next replica of that range in holder order. A reply from a live
/// holder is final, right or wrong: `accept(r, reply)` judges it, in range
/// order, and the first range that fails ends the round.
fn fan_ranges<T>(
    holders: &[Vec<Arc<MuxLink>>],
    corr: u64,
    mut request: impl FnMut(usize, bool) -> Message,
    mut accept: impl FnMut(usize, Message) -> Result<T, RouteFail>,
) -> Result<Vec<T>, RouteFail> {
    let mut ship = |r: usize, h: usize| -> Option<Pending> {
        let link = holders[r].get(h)?;
        let p = link.begin(corr).ok()?;
        link.send(corr, request(r, h + 1 == holders[r].len()))
            .ok()?;
        Some(p)
    };
    let firsts: Vec<Option<Pending>> = (0..holders.len()).map(|r| ship(r, 0)).collect();
    let mut replies = Vec::with_capacity(holders.len());
    for (r, first) in firsts.into_iter().enumerate() {
        let mut pending = first;
        let mut next_holder = 1;
        let reply = loop {
            if let Some(Ok(reply)) = pending.map(|p| p.recv()) {
                break reply;
            }
            // Link died mid-round: move to the next replica of this
            // range, unless every holder of it is down.
            if next_holder >= holders[r].len() {
                return Err(RouteFail::Down(r as u64));
            }
            pending = ship(r, next_holder);
            next_holder += 1;
        };
        replies.push(accept(r, reply)?);
    }
    Ok(replies)
}

/// Fan one batched round over the holder sets ([`fan_ranges`]) and merge
/// the shard rows. A sub-batch is cloned only while a standby remains to
/// retry it on; the last (at `rf = 1`, the only) holder gets it moved.
fn route_batch(
    domain: &Domain,
    tamper: &Tamper,
    mut batch: BatchQuery,
    holders: &[Vec<Arc<MuxLink>>],
    corr: u64,
) -> Result<Vec<Vec<u64>>, RouteFail> {
    let mut subs = (domain.plan())
        .split_batch(&mut batch)
        .map_err(|_| RouteFail::Malformed)?;
    let sub_batch = |r: usize, last: bool| {
        let batch = if last {
            std::mem::take(&mut subs[r])
        } else {
            subs[r].clone()
        };
        let shard = r as u32;
        Message::ShardRun { shard, batch }
    };
    let per_shard = fan_ranges(holders, corr, sub_batch, |r, reply| match reply {
        Message::ShardOutputs { shard, outputs } if shard as usize == r => Ok(outputs),
        // Crossed or malformed reply from a live holder: tamper-shaped.
        _ => Err(RouteFail::Malformed),
    })?;
    let merged = merge_shard_outputs(&per_shard, &batch, domain.params(), tamper);
    // The shard rows were copied into the merged reply; their buffers go
    // back to the pool.
    pool::recycle_vecs(per_shard.into_iter().flatten());
    merged.map_err(|_| RouteFail::Malformed)
}

/// Forward a delta upload (global row `start`) to every holder among
/// `workers` of the tail range `spec`, in that range's local coordinates
/// and without the permutation extensions — workers extend by identity.
/// The last holder gets the columns moved, not cloned. Like
/// [`fan_acked`], one surviving ack suffices: a holder whose link failed
/// is sticky-dead and will be reaped, never promoted into serving stale
/// rows.
fn fan_delta(
    workers: &[WorkerSlot],
    corr: u64,
    spec: ShardSpec,
    owner: u32,
    start: usize,
    mut columns: Columns,
) -> Result<(), AckFail> {
    let holders: Vec<usize> = (workers.iter().enumerate())
        .filter(|(_, w)| w.range == spec.index)
        .map(|(i, _)| i)
        .collect();
    let (mut acked, mut failed) = (false, NO_WORKERS);
    for (n, &i) in holders.iter().enumerate() {
        let columns = if n + 1 < holders.len() {
            columns.clone()
        } else {
            std::mem::take(&mut columns)
        };
        let fwd = Message::DeltaUpload {
            owner,
            start: (start - spec.start) as u64,
            columns,
            pf_s1_ext: Vec::new(),
            pf_s2_ext: Vec::new(),
        };
        match ack_of(workers[i].link.request(corr, fwd))? {
            true => acked = true,
            false => failed = i as u64,
        }
    }
    acked.then_some(()).ok_or(AckFail::Down(failed))
}

/// Serve one routed round on a worker of `rounds` and answer the owner
/// with its message: `NodeDown` naming the range that lost every holder
/// (crash, not tamper), or for a malformed round the empty output list
/// (shaped like tamper, reported like tamper). The task holds the read
/// side of the routing state for its whole fan-out — the heal barrier: a
/// heal (write) waits for this round, and this round can never see a
/// half-replayed store.
fn serve_route(
    rounds: &RoundExecutor,
    shared: &Arc<RwLock<DomainState>>,
    owner_link: &Arc<dyn Link>,
    tag: Option<u64>,
    round: impl FnOnce(&DomainState) -> Result<Message, RouteFail> + Send + 'static,
) {
    let (shared, owner_link) = (Arc::clone(shared), Arc::clone(owner_link));
    rounds.execute(move || {
        let st = shared.read();
        let outcome = if st.workers.is_empty() {
            Err(RouteFail::Down(NO_WORKERS))
        } else {
            round(&st)
        };
        drop(st);
        let msg = match outcome {
            Ok(msg) => msg,
            Err(RouteFail::Down(node)) => Message::NodeDown { node },
            Err(RouteFail::Malformed) => Message::Outputs(Vec::new()),
        };
        let _ = reply(owner_link.as_ref(), tag, msg);
    });
}

/// Run one domain's router loop until `Shutdown`: split uploads and
/// batches by row range, forward to the holders of each range, merge
/// replies, and hold the domain-level tampering behaviour. The fan-out
/// is read from `shared` on every message, so a heal between two rounds
/// re-routes the second. A worker-link failure answers the owner with
/// [`Message::NodeDown`] (crash, not tamper) and keeps the router alive.
/// However the loop ends — `Shutdown`, a lost owner link or an
/// unadmitted message — it waits for its rounds in flight, then tells the
/// workers to exit.
///
/// Every upload is cut, fold-checked and grown by the domain's rules
/// ([`Domain`]), checked against the replay log if the domain keeps one,
/// and fanned to the holders of the ranges it reaches.
///
/// Wide (max/median) rounds never fan out: they are parameter-only — the
/// owner-slot permutation `PF` and the wide width are identical on every
/// shard and touch no stored columns — so the router answers them itself
/// through `wide_node` (a storage-less [`ServerNode`] over an empty
/// domain: wide rounds read only `m`, the wide width and the owner-slot
/// permutation, so delta growth never touches it) and fronts the
/// domain's server→announcer edge, mirroring [`ShardedNode`](prism_protocol::shard::ShardedNode)'s
/// in-process behaviour of answering wide commands at the domain level.
///
/// **Concurrency.** The worker links are multiplexed ([`MuxLink`]):
/// every worker round-trip — a fanned batch, a probe, a split upload —
/// is correlated by a **router-local** id (high bit set, so it can never
/// collide with an owner-minted `QueryId` or a registry control id), and
/// query rounds — routed batches, version probes, wide commands — are
/// served on the loop's [`RoundExecutor`] so N queries fan out over the
/// same worker links concurrently. Uploads and tamper control
/// stay inline on the serving thread: the owner link's receive order is
/// their linearization point. The domain tamper is snapshotted at
/// dispatch for the same reason.
///
/// **Admission.** The router admits the owner → domain and test-control
/// edges; a message of another edge is refused ([`admit`]).
pub(crate) fn domain_loop(
    owner_link: Arc<dyn Link>,
    shared: Arc<RwLock<DomainState>>,
    announcer: Option<Arc<dyn Link>>,
) -> Result<(), NetError> {
    let edges = Edges::OWNER_DOMAIN | Edges::TEST_SERVER;
    let wide_node = Arc::new(RwLock::new(ServerNode::new(ServerParams {
        b: 0,
        pf_s1: Permutation::identity(0),
        pf_s2: Permutation::identity(0),
        ..shared.read().domain.params().clone()
    })));
    let tamper = Arc::new(RwLock::new(Tamper::Honest));
    let corr = AtomicU64::new(1 << 63);
    let rounds = RoundExecutor::new();
    let acked = |tag, outcome: Result<(), AckFail>| {
        let msg = outcome.map_or_else(AckFail::message, |()| Message::Ack);
        reply(owner_link.as_ref(), tag, msg)
    };
    // Uploads hold the write lock across their fan: a query round never
    // sees half of one, and the log records only what the workers took.
    let served = || loop {
        let (tag, msg) = recv_admitted(owner_link.as_ref(), edges)?;
        match msg {
            Message::BulkUpload { owner, columns } => {
                let id = corr.fetch_add(1, Ordering::Relaxed);
                let mut st = shared.write();
                let logged = st.log.is_some().then(|| columns.clone());
                let outcome = (st.domain.cut(0, columns).map_err(AckFail::from)).and_then(|cuts| {
                    st.check_log(logged.as_ref(), |log, columns, b| {
                        log.check_put(owner as usize, 0, columns, b)
                    })?;
                    fan_acked(&st, id, cuts, |columns| Message::BulkUpload {
                        owner,
                        columns,
                    })
                });
                if let (Ok(()), Some(log), Some(columns)) = (&outcome, &mut st.log, logged) {
                    log.put(owner as usize, 0, columns);
                }
                drop(st);
                acked(tag, outcome)?;
            }
            Message::FoldUpload {
                owner,
                epoch,
                columns,
            } => {
                let id = corr.fetch_add(1, Ordering::Relaxed);
                let mut st = shared.write();
                let logged = st.log.is_some().then(|| columns.clone());
                let outcome =
                    (st.domain.cut_fold(columns).map_err(AckFail::from)).and_then(|cuts| {
                        st.check_log(logged.as_ref(), |log, columns, b| {
                            log.check_fold(owner as usize, epoch, columns, b)
                        })?;
                        let wrap = |columns| Message::FoldUpload {
                            owner,
                            epoch,
                            columns,
                        };
                        fan_acked(&st, id, cuts, wrap)
                    });
                if let (Ok(()), Some(log), Some(columns)) = (&outcome, &mut st.log, logged) {
                    log.fold(owner as usize, epoch, columns);
                }
                drop(st);
                acked(tag, outcome)?;
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => {
                let start = start as usize;
                let id = corr.fetch_add(1, Ordering::Relaxed);
                // Growth mutates the shared plan/params the heal and every
                // route read; a refused delta puts them back.
                let mut guard = shared.write();
                let st = &mut *guard;
                let logged = st.log.is_some().then(|| columns.clone());
                let outcome = match decode_perm_ext(pf_s1_ext, pf_s2_ext) {
                    _ if st.workers.is_empty() => Err(AckFail::Down(NO_WORKERS)),
                    Err(why) => Err(AckFail::Refused(why)),
                    Ok(ext) => {
                        let (log, workers) = (&st.log, &st.workers);
                        let ext = ext.as_ref().map(|(e1, e2)| (e1, e2));
                        st.domain
                            .delta(start, columns, ext, |grown, tail, columns| {
                                if let Some(log) = log {
                                    log.check_put(owner as usize, start, &columns, grown.b)?;
                                }
                                fan_delta(workers, id, tail, owner, start, columns)
                            })
                    }
                };
                if let (Ok(()), Some(log), Some(columns)) = (&outcome, &mut st.log, logged) {
                    log.put(owner as usize, start, columns);
                }
                drop(guard);
                acked(tag, outcome)?;
            }
            Message::SetTamper(t) => {
                *tamper.write() = t;
                reply(owner_link.as_ref(), tag, Message::Ack)?;
            }
            Message::RunBatch(batch) => {
                let tamper_now = *tamper.read();
                let id = corr.fetch_add(1, Ordering::Relaxed);
                serve_route(&rounds, &shared, &owner_link, tag, move |st| {
                    let holders = st.holder_links();
                    route_batch(&st.domain, &tamper_now, batch, &holders, id).map(Message::Outputs)
                });
            }
            Message::RangeVersionProbe => {
                let id = corr.fetch_add(1, Ordering::Relaxed);
                serve_route(&rounds, &shared, &owner_link, tag, move |st| {
                    probe_ranges(st, id)
                });
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                let cmd = ServerCmd::MaxCombine { uploads, threads };
                serve_wide(&rounds, &wide_node, cmd, seq, tag, &owner_link, &announcer);
            }
            Message::AssembleFpos { claims } => {
                let cmd = ServerCmd::AssembleFpos { claims };
                serve_wide(&rounds, &wide_node, cmd, 0, tag, &owner_link, &announcer);
            }
            Message::Shutdown => return Ok(()),
            Message::Replay { .. }
            | Message::Outputs(_)
            | Message::ShardRun { .. }
            | Message::ShardOutputs { .. }
            | Message::Ack
            | Message::Fpos(_)
            | Message::WideForwarded { .. }
            | Message::WideUpload { .. }
            | Message::AnnounceRun { .. }
            | Message::AnnounceReply(_)
            | Message::SetAnnouncerTamper(_)
            | Message::Tagged { .. }
            | Message::Register { .. }
            | Message::RegisterAck { .. }
            | Message::Ping { .. }
            | Message::Pong { .. }
            | Message::Assign { .. }
            | Message::NodeDown { .. }
            | Message::Versions(_)
            | Message::Refused(_) => unreachable!("not carried on {edges}: refused on receipt"),
        }
    };
    let ended = served();
    // Route tasks still in flight need their shard replies: wait for them
    // before telling the workers to exit.
    rounds.shutdown();
    for w in shared.read().workers.iter() {
        let _ = w.link.send_raw(Message::Shutdown);
    }
    ended
}

/// Every range's version stamps, from its primary (replica fallback on
/// link failure only), already in global row coordinates; range order is
/// global row order, matching the in-process `ShardedNode`. Replica
/// stamps may differ (their rebuild histories fold different
/// `version_base`s), which is safe: a promotion dirties the domain and
/// entries cut against the old primary re-probe — they only revive if the
/// new primary agrees.
fn probe_ranges(st: &DomainState, corr: u64) -> Result<Message, RouteFail> {
    let probe = |_, _| Message::RangeVersionProbe;
    // A holder answering anything but stamps is reported like the loss of
    // its range.
    let stamps = |r: usize, reply| match reply {
        Message::Versions(v) => Ok(v),
        _ => Err(RouteFail::Down(r as u64)),
    };
    let per_range = fan_ranges(&st.holder_links(), corr, probe, stamps)?;
    Ok(Message::Versions(per_range.concat()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::announcer_loop;
    use crate::transport::channel_pair;
    use crate::wire::{Column, Op, TAGS};
    use prism_protocol::engine::BatchItem;
    use prism_protocol::params::{Initiator, Setup, SystemConfig, ADDITIVE_SERVERS};
    use std::time::Duration;

    /// A fixed-membership domain (what a fixed roster builds)
    /// whose worker link died answers the owner with the typed
    /// `NodeDown` — not an empty output list, not a dead router — and
    /// keeps serving, `Shutdown` included.
    #[test]
    fn dead_worker_link_answers_node_down_and_the_router_survives() {
        let setup = Initiator::new(SystemConfig::new(3, 8).with_seed(5)).setup();
        let params = setup.unwrap().servers[0].clone();
        let mut domain = DomainState::new(params.clone(), 2, 1);
        let (to_w0, w0) = channel_pair();
        let (to_w1, w1) = channel_pair();
        drop(w1);
        domain.workers = vec![
            WorkerSlot::new(0, "d0/w0".into(), Arc::new(to_w0), 0, None),
            WorkerSlot::new(1, "d0/w1".into(), Arc::new(to_w1), 1, None),
        ];
        let (spec0, b) = (domain.domain.plan().specs()[0], params.b);
        let worker = std::thread::spawn(move || {
            node_loop(params, Arc::new(w0), Some(spec0), Tamper::Honest, None)
        });
        let (owner, server_end) = channel_pair();
        let shared = Arc::new(RwLock::new(domain));
        let router = std::thread::spawn(move || domain_loop(Arc::new(server_end), shared, None));

        let batch = BatchQuery {
            items: vec![BatchItem::plain(Op::Psi)],
            threads: 1,
            ..BatchQuery::default()
        };
        let columns = vec![(Column::Ok, vec![0u64; b])];
        for msg in [
            Message::RunBatch(batch),
            Message::BulkUpload { owner: 0, columns },
            Message::RangeVersionProbe,
        ] {
            owner.send(&msg.tagged(9)).unwrap();
            let down = Message::NodeDown { node: 1 };
            assert_eq!(owner.recv().unwrap().untag(), (Some(9), down));
        }
        owner.send(&Message::Shutdown).unwrap();
        router.join().unwrap().expect("router exits cleanly");
        worker
            .join()
            .unwrap()
            .expect("live worker got the Shutdown");
    }

    /// A delta whose extension map is no permutation is refused — by the
    /// node behind a router-less owner link and by a router — and leaves
    /// the domain where it was: the same delta with a good map still grows
    /// it afterwards.
    #[test]
    fn a_malformed_permutation_extension_is_refused() {
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(5)).setup();
        let params = setup.unwrap().servers[0].clone();
        let b = params.b;
        let mut domain = DomainState::new(params.clone(), 1, 1);
        let (to_w0, w0) = channel_pair();
        domain.workers = vec![WorkerSlot::new(0, "d0/w0".into(), Arc::new(to_w0), 0, None)];
        let spec0 = domain.domain.plan().specs()[0];
        let p = params.clone();
        let worker = std::thread::spawn(move || {
            node_loop(p, Arc::new(w0), Some(spec0), Tamper::Honest, None)
        });
        let (routed, router_end) = channel_pair();
        let shared = Arc::new(RwLock::new(domain));
        let router = std::thread::spawn(move || domain_loop(Arc::new(router_end), shared, None));
        let (direct, node_end) = channel_pair();
        let node = std::thread::spawn(move || {
            node_loop(params, Arc::new(node_end), None, Tamper::Honest, None)
        });

        let delta = |pf_s1_ext: Vec<u32>| Message::DeltaUpload {
            owner: 0,
            start: b as u64,
            columns: vec![(Column::Ok, vec![1, 2])],
            pf_s1_ext,
            pf_s2_ext: vec![1, 0],
        };
        for owner in [&routed, &direct] {
            owner
                .send(&Message::BulkUpload {
                    owner: 0,
                    columns: vec![(Column::Ok, vec![0; b])],
                })
                .unwrap();
            assert_eq!(owner.recv().unwrap(), Message::Ack);
            owner.send(&delta(vec![0, 0])).unwrap();
            assert!(matches!(owner.recv().unwrap(), Message::Refused(_)));
            owner.send(&delta(vec![0, 1])).unwrap();
            assert_eq!(owner.recv().unwrap(), Message::Ack, "the domain moved");
            owner.send(&Message::Shutdown).unwrap();
        }
        router.join().unwrap().expect("router exits cleanly");
        worker.join().unwrap().expect("worker exits cleanly");
        node.join().unwrap().expect("node exits cleanly");
    }

    /// A tagged request of a kind a loop does not admit is refused, naming
    /// its wire tag, instead of dropped: the query waiting on it fails
    /// rather than waits forever, and the loop serves on. An untagged one
    /// ends the loop with the typed error, and its peer sees the link close.
    /// A router that ends so still stops its worker.
    #[test]
    fn a_tagged_request_a_loop_does_not_serve_is_refused() {
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(5)).setup();
        let params = setup.unwrap().servers[0].clone();
        let mut domain = DomainState::new(params.clone(), 1, 1);
        let (to_w0, w0) = channel_pair();
        domain.workers = vec![WorkerSlot::new(0, "d0/w0".into(), Arc::new(to_w0), 0, None)];
        let spec0 = domain.domain.plan().specs()[0];
        let p = params.clone();
        let worker =
            spawn_reporting(move || node_loop(p, Arc::new(w0), Some(spec0), Tamper::Honest, None));
        let (routed, router_end) = channel_pair();
        let shared = Arc::new(RwLock::new(domain));
        let router = std::thread::spawn(move || domain_loop(Arc::new(router_end), shared, None));
        let (direct, node_end) = channel_pair();
        let node = std::thread::spawn(move || {
            node_loop(params, Arc::new(node_end), None, Tamper::Honest, None)
        });

        // An answer takes microseconds; a dropped request never gets one.
        const DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);
        let (routed, direct): (Arc<dyn Link>, Arc<dyn Link>) = (Arc::new(routed), Arc::new(direct));
        for (link, unserved, tag) in [
            (&routed, Message::Ping { seq: 1 }, 22),
            (&direct, Message::Ack, 4),
        ] {
            let mux = MuxLink::new(Arc::clone(link));
            let pending = mux.begin(7).unwrap();
            mux.send(7, unserved).unwrap();
            match pending.recv_timeout(DEADLINE) {
                Ok(Message::Refused(why)) => assert!(why.contains(&format!("tag {tag} ")), "{why}"),
                other => {
                    panic!("expected a refusal naming tag {tag} within {DEADLINE:?}, got {other:?}")
                }
            }
            let answer = mux.request(8, Message::RangeVersionProbe).unwrap();
            assert!(matches!(answer, Message::Versions(_)), "{answer:?}");
            link.send_owned(Message::Ack).unwrap();
        }
        for ended in [router.join().unwrap(), node.join().unwrap()] {
            assert!(
                matches!(ended, Err(NetError::Unadmitted { tag: 4, .. })),
                "{ended:?}"
            );
        }
        assert!(routed.recv().is_err() && direct.recv().is_err());
        let stopped = worker.recv_timeout(DEADLINE);
        assert!(
            matches!(stopped, Ok(Ok(()))),
            "the ended router's worker: {stopped:?} within {DEADLINE:?}"
        );
    }

    /// An owner cannot reset a router-less domain's store: `Assign` rides
    /// the registry → worker edge, so the node behind the owner link
    /// refuses it, and its range stamps and a PSI round's answer stay
    /// what they were.
    #[test]
    fn an_owner_cannot_assign_a_routerless_store_away() {
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(5)).setup();
        let params = setup.unwrap().servers[0].clone();
        let b = params.b;
        assert_eq!(b, 8);
        let (owner, node_end) = channel_pair();
        let node = std::thread::spawn(move || {
            node_loop(params, Arc::new(node_end), None, Tamper::Honest, None)
        });
        let owner = MuxLink::new(Arc::new(owner));
        for o in 0..2 {
            let columns = vec![(Column::Ok, vec![1; b])];
            let put = Message::BulkUpload { owner: o, columns };
            assert_eq!(owner.request(u64::from(o), put).unwrap(), Message::Ack);
        }
        let psi = || {
            Message::RunBatch(BatchQuery {
                items: vec![BatchItem::plain(Op::Psi)],
                threads: 1,
                ..BatchQuery::default()
            })
        };
        let stamps = owner.request(2, Message::RangeVersionProbe).unwrap();
        let answer = owner.request(3, psi()).unwrap();
        assert!(
            matches!(&answer, Message::Outputs(o) if o.len() == 1 && o[0].len() == b),
            "{answer:?}"
        );

        let assign = Message::Assign {
            start: 0,
            len: b as u64,
        };
        let refusal = owner.request(4, assign).unwrap();
        assert!(matches!(refusal, Message::Refused(_)), "{refusal:?}");
        assert_eq!(
            owner.request(5, Message::RangeVersionProbe).unwrap(),
            stamps
        );
        assert_eq!(owner.request(6, psi()).unwrap(), answer);
        owner.send_raw(Message::Shutdown).unwrap();
        node.join().unwrap().expect("node exits cleanly");
    }

    /// A heal's restore lands whole in a never-written store or not at
    /// all: a node answers each restore it will not install with
    /// `Refused` and its store stays as it was (no version stamp moves),
    /// so the well-formed restore still lands afterwards — once — and its
    /// owner epochs are in force.
    #[test]
    fn a_node_refuses_each_malformed_or_late_restore_and_keeps_its_store() {
        use prism_protocol::engine::{ColumnCut, Held};
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(5)).setup();
        let params = setup.unwrap().servers[0].clone();
        let ring = Column::Ok.ring(params.delta, params.field.p);
        // A restore rides the registry → worker edge: a row range's node,
        // here one over the whole domain.
        let whole = ShardSpec {
            index: 0,
            start: 0,
            len: params.b,
        };
        let (owner, node_end) = channel_pair();
        let node = std::thread::spawn(move || {
            node_loop(
                params,
                Arc::new(node_end),
                Some(whole),
                Tamper::Honest,
                None,
            )
        });
        let ask = |msg: Message| {
            owner.send(&msg).unwrap();
            owner.recv().unwrap()
        };
        let cut = |summed: Vec<u64>, held: &[(usize, u64)]| ColumnCut {
            column: Column::Ok,
            summed,
            held: held
                .iter()
                .map(|&(rows, epoch)| Held { rows, epoch })
                .collect(),
        };
        let good = || vec![cut(vec![1; 8], &[(8, 2), (5, 0)])];
        let malformed = [
            ("an owner past the m", vec![cut(vec![1; 8], &[(8, 0); 3])]),
            ("a column twice", [good(), good()].concat()),
            (
                "owner rows past the slice",
                vec![cut(vec![1; 4], &[(8, 0)])],
            ),
            (
                "a slice past the longest owner",
                vec![cut(vec![1; 8], &[(4, 0)])],
            ),
            ("a slice past the domain", vec![cut(vec![1; 9], &[(9, 0)])]),
            (
                "a value outside the ring",
                vec![cut(vec![ring; 8], &[(8, 0)])],
            ),
        ];
        let unwritten = ask(Message::RangeVersionProbe);
        assert_eq!(unwritten, Message::Versions(Vec::new()));
        for (what, columns) in malformed {
            let answer = ask(Message::Replay { columns });
            assert!(matches!(answer, Message::Refused(_)), "{what}: {answer:?}");
            assert_eq!(ask(Message::RangeVersionProbe), unwritten, "{what}");
        }
        assert_eq!(ask(Message::Replay { columns: good() }), Message::Ack);
        let restored = ask(Message::RangeVersionProbe);
        assert_ne!(restored, unwritten);
        let late = ask(Message::Replay { columns: good() });
        assert!(
            matches!(late, Message::Refused(_)),
            "a second restore: {late:?}"
        );
        assert_eq!(ask(Message::RangeVersionProbe), restored);
        let fold = |epoch| Message::FoldUpload {
            owner: 0,
            epoch,
            columns: vec![(Column::Ok, vec![1; 8])],
        };
        assert!(matches!(ask(fold(2)), Message::Refused(_)));
        assert_eq!(ask(fold(3)), Message::Ack);
        owner.send(&Message::Shutdown).unwrap();
        node.join().unwrap().expect("node exits cleanly");
    }

    /// How long a loop may take to refuse a message or close its link: an
    /// answer takes microseconds, and silence never ends.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// A serving loop under test.
    #[derive(Clone, Copy, Debug)]
    enum Served {
        /// `node_loop` holding a whole domain, behind the owner link.
        Front,
        /// `node_loop` holding a row range, behind a router.
        Worker,
        /// `domain_loop` over one worker.
        Router,
        /// `announcer_loop`'s control link.
        Announcer,
    }

    /// Where a loop's result arrives; it disconnects instead if the loop
    /// panics.
    type Exit = std::sync::mpsc::Receiver<Result<(), NetError>>;

    /// `f` on a thread of its own, reporting to its [`Exit`].
    fn spawn_reporting(f: impl FnOnce() -> Result<(), NetError> + Send + 'static) -> Exit {
        let (done, exit) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(f());
        });
        exit
    }

    /// One running loop: the peer's end of its link, the edges it must
    /// admit, and its exit.
    struct Running {
        peer: Arc<dyn Link>,
        edges: Edges,
        exit: Exit,
        /// A router's worker's exit.
        worker: Option<Exit>,
        /// The servers' ends of the announcer's upload links, held open.
        _uploads: Vec<Box<dyn Link>>,
    }

    impl Running {
        fn start(served: Served, setup: &Setup) -> Running {
            let params = setup.servers[0].clone();
            let whole = ShardSpec {
                index: 0,
                start: 0,
                len: params.b,
            };
            let (peer, end) = channel_pair();
            let end: Arc<dyn Link> = Arc::new(end);
            let (mut worker, mut uploads) = (None, Vec::new());
            let tamper = Tamper::Honest;
            let (edges, exit) = match served {
                Served::Front => (
                    Edges::OWNER_DOMAIN | Edges::TEST_SERVER,
                    spawn_reporting(move || node_loop(params, end, None, tamper, None)),
                ),
                Served::Worker => (
                    Edges::ROUTER_WORKER | Edges::REGISTRY_WORKER,
                    spawn_reporting(move || node_loop(params, end, Some(whole), tamper, None)),
                ),
                Served::Router => {
                    let mut st = DomainState::new(params.clone(), 1, 1);
                    let (to_worker, worker_end) = channel_pair();
                    let slot = WorkerSlot::new(0, "d0/w0".into(), Arc::new(to_worker), 0, None);
                    st.workers.push(slot);
                    let worker_end: Arc<dyn Link> = Arc::new(worker_end);
                    worker = Some(spawn_reporting(move || {
                        node_loop(params, worker_end, Some(whole), tamper, None)
                    }));
                    let shared = Arc::new(RwLock::new(st));
                    (
                        Edges::OWNER_DOMAIN | Edges::TEST_SERVER,
                        spawn_reporting(move || domain_loop(end, shared, None)),
                    )
                }
                Served::Announcer => {
                    let mut server_ends: Vec<Box<dyn Link>> = Vec::new();
                    for _ in 0..ADDITIVE_SERVERS {
                        let (server, announcer) = channel_pair();
                        uploads.push(Box::new(server) as Box<dyn Link>);
                        server_ends.push(Box::new(announcer));
                    }
                    let params = setup.announcer.clone();
                    (
                        Edges::OWNER_ANNOUNCER | Edges::TEST_ANNOUNCER,
                        spawn_reporting(move || announcer_loop(params, end, server_ends)),
                    )
                }
            };
            Running {
                peer: Arc::new(peer),
                edges,
                exit,
                worker,
                _uploads: uploads,
            }
        }

        /// Wait for the loop's exit, and for a router's worker's: a router
        /// stops it however the router ends.
        fn ended(self) -> Result<(), NetError> {
            let exit = self.exit.recv_timeout(DEADLINE);
            if let Some(worker) = self.worker {
                let stopped = worker.recv_timeout(DEADLINE);
                assert!(matches!(stopped, Ok(Ok(()))), "worker: {stopped:?}");
            }
            exit.expect("the loop ended within the deadline, without a panic")
        }
    }

    /// One message per tag of the table, its fields decoded from `soup`
    /// where they decode, else zeros — all but the envelope, which is what
    /// a tagged send of any of them is.
    pub(crate) fn table_samples(soup: &[u8]) -> Vec<Message> {
        let samples: Vec<Message> = (TAGS.iter())
            .filter_map(|&tag| {
                let with = |body: &[u8]| Message::decode(&[&[tag][..], body].concat());
                with(soup).or_else(|_| with(&[0; 64])).ok()
            })
            .filter(|m| !matches!(m, Message::Tagged { .. }))
            .collect();
        assert_eq!(samples.len(), TAGS.len() - 1, "a tag without a sample");
        samples
    }

    /// Every tag of the table a loop does not admit, tagged and untagged.
    fn refuses_or_closes(served: Served, setup: &Setup, samples: &[Message]) {
        let b = setup.servers[0].b;
        let running = Running::start(served, setup);
        let foreign: Vec<&Message> = (samples.iter())
            .filter(|m| !running.edges.carries(m))
            .collect();
        assert!(!foreign.is_empty(), "{served:?}");

        // Tagged: a refusal naming the tag, and the loop serves on with
        // its store unchanged.
        let mux = MuxLink::new(Arc::clone(&running.peer));
        let stamps = (!matches!(served, Served::Announcer)).then(|| {
            let columns = vec![(Column::Ok, vec![1; b])];
            let put = Message::BulkUpload { owner: 0, columns };
            assert_eq!(mux.request(0, put).expect("put"), Message::Ack);
            mux.request(1, Message::RangeVersionProbe).expect("probe")
        });
        for (q, msg) in (2..).zip(&foreign) {
            let tag = msg.wire_tag();
            let pending = mux.begin(q).expect("begin");
            mux.send(q, (*msg).clone()).expect("send");
            match pending.recv_timeout(DEADLINE) {
                Ok(Message::Refused(why)) => {
                    assert!(why.contains(&format!("tag {tag} ")), "{served:?}: {why}")
                }
                other => panic!("{served:?}: tag {tag} got {other:?} within {DEADLINE:?}"),
            }
        }
        if let Some(stamps) = stamps {
            let after = mux.request(u64::MAX, Message::RangeVersionProbe);
            assert_eq!(after.expect("probe"), stamps, "{served:?}");
        }
        mux.send_raw(Message::Shutdown).expect("shutdown");
        running.ended().expect("a clean exit");

        // Untagged: the loop ends with the typed error and the link
        // closes.
        for msg in foreign {
            let tag = msg.wire_tag();
            let running = Running::start(served, setup);
            running.peer.send(msg).expect("send");
            let peer = Arc::clone(&running.peer);
            let edges = running.edges;
            match running.ended() {
                Err(NetError::Unadmitted { tag: t, edges: e }) if (t, e) == (tag, edges) => {}
                other => panic!("{served:?}: untagged tag {tag} ended with {other:?}"),
            }
            assert!(peer.recv().is_err(), "{served:?}: the link stayed open");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        /// No foreign tag is met with silence: each loop — a node in front
        /// of a domain and behind a router, the router, the announcer's
        /// control link — refuses each tag of the table it does not admit
        /// with a typed refusal, when tagged, or ends and closes its link,
        /// when not, within `DEADLINE`, without a panic and with its store
        /// unchanged. The foreign set is derived from the table, so a new
        /// message cannot skip it; the attach handshake has its own
        /// (`registry::tests`).
        #[test]
        fn every_loop_refuses_or_closes_on_every_foreign_tag(
            soup in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(1))
                .setup()
                .expect("setup");
            let samples = table_samples(&soup);
            for served in [Served::Front, Served::Worker, Served::Router, Served::Announcer] {
                refuses_or_closes(served, &setup, &samples);
            }
        }
    }
}
