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
//! message. The elastic deployment ([`crate::registry`]) shares that
//! state with its attach dispatcher and keep-alive prober, which re-plan
//! it when workers come and go; the statically wired constructors
//! ([`crate::cluster::NetCluster`]) build the same state once — `rf = 1`,
//! one [`WorkerSlot`] per link, generation 0 — and nobody else ever takes
//! the write side. Same router, same node loop, two ways to reach them.

use crate::mux::{MuxLink, Pending};
use crate::registry::Health;
use crate::transport::{Link, NetError};
use crate::wire::{recycle_vecs, Column, Message};
use parking_lot::RwLock;
use prism_core::Permutation;
use prism_protocol::engine::{BatchQuery, ServerCmd, ServerNode, ServerReply};
use prism_protocol::malicious::Tamper;
use prism_protocol::params::ServerParams;
use prism_protocol::shard::{merge_shard_outputs, shard_server_params, ShardPlan, ShardSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Answer the owner side: tagged when the request carried a query
/// envelope (the reply must route back through the owner's multiplexer to
/// that query's slot), plain otherwise.
pub(crate) fn reply(link: &dyn Link, tag: Option<u64>, msg: Message) -> Result<(), NetError> {
    link.send(&enveloped(tag, msg))
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
        ann.send(&Message::WideUpload {
            server,
            seq,
            shares: w,
        })?;
    }
    let (rows, width) = receipt;
    reply(owner_link, tag, Message::WideForwarded { rows, width, seq })
}

/// Serve one wide command on its own thread, against a read lock on
/// `node` (see [`run_wide`]).
fn spawn_wide(
    node: &Arc<RwLock<ServerNode>>,
    cmd: ServerCmd,
    seq: u64,
    tag: Option<u64>,
    owner_link: &Arc<dyn Link>,
    announcer: &Option<Arc<dyn Link>>,
) -> JoinHandle<()> {
    let (node, owner_link, ann) = (Arc::clone(node), Arc::clone(owner_link), announcer.clone());
    std::thread::spawn(move || {
        let _ = run_wide(
            &node.read(),
            cmd,
            seq,
            tag,
            owner_link.as_ref(),
            ann.as_deref(),
        );
    })
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
    // The decoded z buffers are dead once the kernels ran; hand them back
    // to the wire pool so the next round's decode allocates nothing.
    if let ServerCmd::Run(batch) = cmd {
        recycle_vecs(batch.zs);
    }
    outs
}

/// Serve one stored-column batch on its own thread, against a read lock
/// on `node`: run it, answer the owner with `wrap(outputs)`, and — the
/// link having encoded or copied the reply by then — return the reply
/// vectors to the node's arena, where its next round of that length
/// writes into them. The lock is held to the end, so a store mutation
/// queued behind this round (they take the write lock) also finds its
/// buffers home.
fn spawn_batch(
    node: &Arc<RwLock<ServerNode>>,
    batch: BatchQuery,
    tag: Option<u64>,
    link: &Arc<dyn Link>,
    wrap: impl FnOnce(Vec<Vec<u64>>) -> Message + Send + 'static,
) -> JoinHandle<()> {
    let (node, link) = (Arc::clone(node), Arc::clone(link));
    std::thread::spawn(move || {
        let node = node.read();
        let msg = enveloped(tag, wrap(run_batch_on(&node, batch)));
        let _ = link.send(&msg);
        if let (_, Message::Outputs(outs) | Message::ShardOutputs { outputs: outs, .. }) =
            msg.untag()
        {
            node.reclaim(outs);
        }
    })
}

/// Decode a delta upload's permutation extensions: empty maps mean
/// identity blocks (`None`); malformed maps poison the delta, which the
/// receiver then does not apply.
fn decode_perm_ext(
    pf_s1_ext: Vec<u32>,
    pf_s2_ext: Vec<u32>,
) -> Result<Option<(Permutation, Permutation)>, ()> {
    if pf_s1_ext.is_empty() && pf_s2_ext.is_empty() {
        return Ok(None);
    }
    match (
        Permutation::from_map(pf_s1_ext),
        Permutation::from_map(pf_s2_ext),
    ) {
        (Some(e1), Some(e2)) => Ok(Some((e1, e2))),
        _ => Err(()),
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
/// commands) are served on spawned threads holding a read lock on the
/// node, so N queries multiplexed over this link compute in parallel;
/// each reply carries the request's query tag. Store mutations (uploads,
/// tamper control, assignments) take the write lock inline on the
/// serving thread — the link's receive order is the linearization point.
pub(crate) fn node_loop(
    domain_params: ServerParams,
    link: Arc<dyn Link>,
    spec0: Option<ShardSpec>,
    mut generation: u64,
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
    let mut version_base = 0u64;
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (tag, msg) = link.recv()?.untag();
        match msg {
            Message::BulkUpload { owner, columns } => {
                let mut node = node.write();
                for (column, data) in columns {
                    node.store(owner as usize, column, data);
                }
                drop(node);
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => {
                // Node-local coordinates. A malformed delta (bad maps,
                // non-contiguous range) is simply not applied — the node
                // stays on its previous store state, which verification
                // then catches, exactly like any other misbehaving-server
                // shape. A router forwards empty extensions: its workers
                // extend by identity.
                if let Ok(ext) = decode_perm_ext(pf_s1_ext, pf_s2_ext) {
                    let _ = node.write().delta_upload(
                        owner as usize,
                        start as usize,
                        columns,
                        ext.as_ref().map(|(e1, e2)| (e1, e2)),
                    );
                }
                reply(link.as_ref(), tag, Message::Ack)?;
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
                reply(link.as_ref(), tag, Message::Pong { seq, generation })?;
            }
            Message::Assign {
                generation: assigned,
                start,
                len,
            } => {
                let spec = ShardSpec {
                    index: 0,
                    start: start as usize,
                    len: len as usize,
                };
                // An assignment to the range already held (delta growth
                // included — the node's own `b` tracks it) is a pure
                // generation bump; only a *moved* range rebuilds the
                // node. Rebuilding on a no-op re-assign would wipe the
                // store with nothing scheduled to restore it.
                let held = {
                    let n = node.read();
                    let p = n.params();
                    (p.row_offset - template.row_offset, p.b)
                };
                if held != (spec.start, spec.len) {
                    // The write lock drains in-flight query readers
                    // before the rebuild — no round computes across it.
                    let mut node = node.write();
                    version_base += node.version() + 1;
                    *node = build(shard_server_params(&template, &spec));
                }
                generation = assigned;
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::RunBatch(batch) => {
                workers.push(spawn_batch(&node, batch, tag, &link, Message::Outputs));
            }
            Message::ShardRun { shard, batch } => {
                // Echo the shard index so the router can detect crossed
                // links.
                let wrap = move |outputs| Message::ShardOutputs { shard, outputs };
                workers.push(spawn_batch(&node, batch, tag, &link, wrap));
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                let cmd = ServerCmd::MaxCombine { uploads, threads };
                workers.push(spawn_wide(&node, cmd, seq, tag, &link, &announcer));
            }
            Message::AssembleFpos { claims } => {
                let cmd = ServerCmd::AssembleFpos { claims };
                workers.push(spawn_wide(&node, cmd, 0, tag, &link, &announcer));
            }
            Message::Shutdown => {
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                return Ok(());
            }
            _ => {
                // Reply-direction messages; ignore defensively.
            }
        }
        workers.retain(|h| !h.is_finished());
    }
}

/// One shard worker of a domain, as its router (and, on elastic
/// clusters, the registry's prober) tracks it.
pub(crate) struct WorkerSlot {
    pub(crate) node: u64,
    pub(crate) label: String,
    pub(crate) link: Arc<MuxLink>,
    pub(crate) health: Health,
    /// Generation of the assignment this worker last acked.
    pub(crate) generation: u64,
    /// Index into the domain plan's specs of the row range this worker
    /// holds. Several workers share a range under replication; holder
    /// order within [`DomainState::workers`] breaks the tie — the first
    /// holder of a range is its primary.
    pub(crate) range: usize,
}

impl WorkerSlot {
    /// A live worker reachable over `link`, holding plan range `range`.
    /// The link goes behind a labeled multiplexer, so its death surfaces
    /// as [`NetError::NodeDown`] naming the worker.
    pub(crate) fn new(node: u64, label: String, link: Arc<dyn Link>, range: usize) -> WorkerSlot {
        WorkerSlot {
            node,
            link: MuxLink::new_labeled(link, label.clone()),
            label,
            health: Health::alive(),
            generation: 0,
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
    pub(crate) params: ServerParams,
    /// Configured worker ceiling (`ranges × rf`); attaches beyond it
    /// are rejected.
    pub(crate) target: usize,
    /// Replication factor each row range is stored at (when enough
    /// workers are attached).
    pub(crate) rf: usize,
    pub(crate) generation: u64,
    pub(crate) plan: ShardPlan,
    pub(crate) workers: Vec<WorkerSlot>,
}

impl DomainState {
    /// A domain of (up to) `ranges` row ranges stored `rf` times each,
    /// with no workers yet.
    pub(crate) fn new(params: ServerParams, ranges: usize, rf: usize) -> DomainState {
        let plan = ShardPlan::new(params.b, ranges);
        DomainState {
            target: plan.shard_count() * rf,
            rf,
            generation: 0,
            plan,
            workers: Vec::new(),
            params,
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

    /// True iff every range of the current plan still has at least one
    /// holder — the promotion precondition: no row range was lost.
    pub(crate) fn covered(&self) -> bool {
        (0..self.plan.shard_count()).all(|r| self.holders_of(r).next().is_some())
    }

    /// Per-range holder *links*, primary first — the fan-out a route
    /// task snapshots under the read lock.
    fn holder_links(&self) -> Vec<Vec<Arc<MuxLink>>> {
        (0..self.plan.shard_count())
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

/// Fan an acked control message (upload slices) to **every holder** of
/// every range, each sliced for the range it holds. The fan is tolerant
/// per range: a holder whose link fails mid-upload is survivable as
/// long as *some* holder of that range acked — link death is sticky, so
/// the lagging holder can never serve a query again and the prober will
/// reap it. `Err(shard)` (reported as [`Message::NodeDown`]) means some
/// range got no ack at all.
fn fan_acked(st: &DomainState, corr: u64, mk: impl Fn(&ShardSpec) -> Message) -> Result<(), u64> {
    if st.workers.is_empty() {
        return Err(NO_WORKERS);
    }
    let mut pendings = Vec::with_capacity(st.workers.len());
    let mut failed = NO_WORKERS;
    for (i, slot) in st.workers.iter().enumerate() {
        let spec = st.plan.specs()[slot.range];
        let sent = slot
            .link
            .begin(corr)
            .and_then(|p| slot.link.send(corr, mk(&spec)).map(|()| p));
        match sent {
            Ok(p) => pendings.push((i, p)),
            Err(_) => failed = i as u64,
        }
    }
    let mut acked = vec![false; st.plan.shard_count()];
    for (i, p) in pendings {
        match p.recv() {
            Ok(Message::Ack) => acked[st.workers[i].range] = true,
            _ => failed = i as u64,
        }
    }
    acked.iter().all(|&a| a).then_some(()).ok_or(failed)
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

/// Fan one batched round over the holder sets: each range's sub-batch
/// ships to its primary (first holder) concurrently; a *link-level*
/// failure — begin/send refused or the pump dead — retries the next
/// replica of that range in holder order. A well-formed reply is final,
/// right or wrong. A sub-batch is cloned only while a standby remains to
/// retry it on; the last (at `rf = 1`, the only) holder gets it moved.
fn route_batch(
    plan: &ShardPlan,
    params: &ServerParams,
    tamper: &Tamper,
    batch: &BatchQuery,
    holders: &[Vec<Arc<MuxLink>>],
    corr: u64,
) -> Result<Vec<Vec<u64>>, RouteFail> {
    let mut subs = plan.split_batch(batch).map_err(|_| RouteFail::Malformed)?;
    let ranges = subs.len();
    let mut ship = |r: usize, h: usize| -> Option<Pending> {
        let link = holders[r].get(h)?;
        let p = link.begin(corr).ok()?;
        let batch = if h + 1 < holders[r].len() {
            subs[r].clone()
        } else {
            std::mem::take(&mut subs[r])
        };
        let shard = r as u32;
        link.send(corr, Message::ShardRun { shard, batch }).ok()?;
        Some(p)
    };
    // Primary fan-out first — the failure-free fast path keeps every
    // range's round-trip concurrent.
    let firsts: Vec<Option<Pending>> = (0..ranges).map(|r| ship(r, 0)).collect();
    let mut per_shard = Vec::with_capacity(ranges);
    for (r, first) in firsts.into_iter().enumerate() {
        let mut outcome = Err(RouteFail::Down(r as u64));
        let mut pending = first;
        let mut next_holder = 1;
        loop {
            if let Some(p) = pending {
                match p.recv() {
                    Ok(Message::ShardOutputs { shard, outputs }) if shard as usize == r => {
                        outcome = Ok(outputs);
                        break;
                    }
                    // Crossed or malformed reply from a live holder:
                    // final, tamper-shaped.
                    Ok(_) => {
                        outcome = Err(RouteFail::Malformed);
                        break;
                    }
                    // Link died mid-round: fall through to the next
                    // replica of this range.
                    Err(_) => {}
                }
            }
            if next_holder >= holders[r].len() {
                break; // every holder of this range is down
            }
            pending = ship(r, next_holder);
            next_holder += 1;
        }
        per_shard.push(outcome?);
    }
    let merged = merge_shard_outputs(&per_shard, batch, params, tamper);
    // The shard rows were copied into the merged reply; their decode
    // buffers go back to the wire pool.
    recycle_vecs(per_shard.into_iter().flatten());
    merged.map_err(|_| RouteFail::Malformed)
}

/// One request/reply round-trip against the first live holder of a
/// range: holders are tried in primary order, moving on only on a
/// link-level failure. `None` means every holder is down.
fn ask_range(holders: &[Arc<MuxLink>], corr: u64, msg: &Message) -> Option<Message> {
    for link in holders {
        let attempt = || -> Result<Message, NetError> {
            let p = link.begin(corr)?;
            link.send(corr, msg.clone())?;
            p.recv()
        };
        if let Ok(reply) = attempt() {
            return Some(reply);
        }
    }
    None
}

/// Validate a delta upload against the domain and, on growth, extend the
/// shared plan, parameters and `wide_node` by it. Returns the tail range
/// the rows belong to, or `None` for an empty or malformed delta (bad
/// extension maps, a gap, a re-touch that does not end at the domain
/// boundary).
fn grow_domain(
    st: &mut DomainState,
    wide_node: &RwLock<ServerNode>,
    start: usize,
    added: usize,
    ext: Result<Option<(Permutation, Permutation)>, ()>,
) -> Option<ShardSpec> {
    if added == 0 {
        return None;
    }
    if start == st.params.b {
        // Growth: the router holds the domain's real finish
        // permutations, so the extension blocks concatenate here; the
        // worker set is fixed for the duration (write lock), so the last
        // range always extends.
        let (e1, e2) = ext
            .ok()?
            .unwrap_or_else(|| (Permutation::identity(added), Permutation::identity(added)));
        if e1.len() != added || e2.len() != added {
            return None;
        }
        st.params.pf_s1 = st.params.pf_s1.concat(&e1);
        st.params.pf_s2 = st.params.pf_s2.concat(&e2);
        st.params.b += added;
        st.plan = st.plan.append(added, false);
        *wide_node.write() = ServerNode::new(st.params.clone());
    } else if start + added != st.params.b {
        // Latest-epoch re-touch: no growth, the range must already end
        // at the domain boundary.
        return None;
    }
    let tail = st.plan.specs().last().copied();
    tail.filter(|spec| spec.start <= start)
}

/// Forward a delta upload (global row `start`) to every holder of the
/// tail range `spec`, in that range's local coordinates and without the
/// permutation extensions — workers extend by identity. The last holder
/// gets the columns moved, not cloned. Like [`fan_acked`], one surviving
/// ack suffices: a holder whose link failed is sticky-dead and will be
/// reaped, never promoted into serving stale rows.
fn fan_delta(
    st: &DomainState,
    corr: u64,
    spec: ShardSpec,
    owner: u32,
    start: usize,
    mut columns: Vec<(Column, Vec<u64>)>,
) -> Result<(), u64> {
    let holders: Vec<usize> = st.holders_of(spec.index).collect();
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
        match st.workers[i].link.request(corr, fwd) {
            Ok(Message::Ack) => acked = true,
            _ => failed = i as u64,
        }
    }
    acked.then_some(()).ok_or(failed)
}

/// Serve one routed round on its own thread and answer the owner with
/// its message, or `NodeDown` naming the failed range. The task holds
/// the read side of the routing state for its whole fan-out — the heal
/// barrier: a heal (write) waits for this round, and this round can
/// never see a half-replayed store.
fn spawn_route(
    shared: &Arc<RwLock<DomainState>>,
    owner_link: &Arc<dyn Link>,
    tag: Option<u64>,
    round: impl FnOnce(&DomainState) -> Result<Message, u64> + Send + 'static,
) -> JoinHandle<()> {
    let (shared, owner_link) = (Arc::clone(shared), Arc::clone(owner_link));
    std::thread::spawn(move || {
        let st = shared.read();
        let outcome = if st.workers.is_empty() {
            Err(NO_WORKERS)
        } else {
            round(&st)
        };
        drop(st);
        let msg = outcome.unwrap_or_else(|node| Message::NodeDown { node });
        let _ = reply(owner_link.as_ref(), tag, msg);
    })
}

/// Run one domain's router loop until `Shutdown`: split uploads and
/// batches by row range, forward to the holders of each range, merge
/// replies, and hold the domain-level tampering behaviour. The fan-out
/// is read from `shared` on every message, so a heal between two rounds
/// re-routes the second. A worker-link failure answers the owner with
/// [`Message::NodeDown`] (crash, not tamper) and keeps the router alive.
/// Forwards `Shutdown` to the workers before exiting.
///
/// Wide (max/median) rounds never fan out: they are parameter-only — the
/// owner-slot permutation `PF` and the wide width are identical on every
/// shard and touch no stored columns — so the router answers them itself
/// through `wide_node` (a storage-less [`ServerNode`] holding the *full*
/// domain parameters) and fronts the domain's server→announcer edge,
/// mirroring [`ShardedNode`](prism_protocol::shard::ShardedNode)'s
/// in-process behaviour of answering wide commands at the domain level.
///
/// **Concurrency.** The worker links are multiplexed ([`MuxLink`]):
/// every worker round-trip — a fanned batch, a probe, a split upload —
/// is correlated by a **router-local** id (high bit set, so it can never
/// collide with an owner-minted `QueryId` or a registry control id), and
/// query rounds are served on spawned route tasks so N queries fan out
/// over the same worker links concurrently. Uploads and tamper control
/// stay inline on the serving thread: the owner link's receive order is
/// their linearization point. The domain tamper is snapshotted at
/// dispatch for the same reason.
pub(crate) fn domain_loop(
    owner_link: Arc<dyn Link>,
    shared: Arc<RwLock<DomainState>>,
    announcer: Option<Arc<dyn Link>>,
) -> Result<(), NetError> {
    let wide_node = Arc::new(RwLock::new(ServerNode::new(shared.read().params.clone())));
    let tamper = Arc::new(RwLock::new(Tamper::Honest));
    let corr = AtomicU64::new(1 << 63);
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let acked = |tag, outcome: Result<(), u64>| {
        let msg = match outcome {
            Ok(()) => Message::Ack,
            Err(node) => Message::NodeDown { node },
        };
        reply(owner_link.as_ref(), tag, msg)
    };
    loop {
        let (tag, msg) = owner_link.recv()?.untag();
        match msg {
            Message::BulkUpload { owner, columns } => {
                let id = corr.fetch_add(1, Ordering::Relaxed);
                let st = shared.read();
                let parts: Vec<_> = columns.iter().map(|(_, d)| st.plan.split_rows(d)).collect();
                let outcome = fan_acked(&st, id, |spec| Message::BulkUpload {
                    owner,
                    columns: columns
                        .iter()
                        .zip(&parts)
                        .map(|((c, _), p)| (*c, p[spec.index].to_vec()))
                        .collect(),
                });
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
                let added = columns.first().map(|(_, d)| d.len()).unwrap_or(0);
                let id = corr.fetch_add(1, Ordering::Relaxed);
                // Write lock: growth mutates the shared plan/params the
                // heal and every route read.
                let mut st = shared.write();
                let outcome = if st.workers.is_empty() {
                    Err(NO_WORKERS)
                } else {
                    let ext = decode_perm_ext(pf_s1_ext, pf_s2_ext);
                    match grow_domain(&mut st, &wide_node, start, added, ext) {
                        Some(spec) => fan_delta(&st, id, spec, owner, start, columns),
                        // Empty or malformed delta: ack without applying
                        // — verification catches the divergence, exactly
                        // as for a tampering server.
                        None => Ok(()),
                    }
                };
                drop(st);
                acked(tag, outcome)?;
            }
            Message::SetTamper(t) => {
                *tamper.write() = t;
                reply(owner_link.as_ref(), tag, Message::Ack)?;
            }
            Message::RunBatch(batch) => {
                let tamper_now = *tamper.read();
                let id = corr.fetch_add(1, Ordering::Relaxed);
                workers.push(spawn_route(&shared, &owner_link, tag, move |st| {
                    let holders = st.holder_links();
                    match route_batch(&st.plan, &st.params, &tamper_now, &batch, &holders, id) {
                        Ok(outs) => Ok(Message::Outputs(outs)),
                        // Crash: every holder of some range is gone.
                        Err(RouteFail::Down(node)) => Err(node),
                        // Malformed-but-alive shard: shaped like tamper,
                        // reported like tamper.
                        Err(RouteFail::Malformed) => Ok(Message::Outputs(Vec::new())),
                    }
                }));
            }
            Message::RangeVersionProbe => {
                // Stamps come from each range's primary (replica fallback
                // on link failure only), already in global row
                // coordinates; range order is global row order, matching
                // the in-process `ShardedNode`. Replica stamps may differ
                // (their rebuild histories fold different
                // `version_base`s), which is safe: a promotion dirties
                // the domain and entries cut against the old primary
                // re-probe — they only revive if the new primary agrees.
                let id = corr.fetch_add(1, Ordering::Relaxed);
                workers.push(spawn_route(&shared, &owner_link, tag, move |st| {
                    let mut stamps = Vec::new();
                    for (r, hs) in st.holder_links().iter().enumerate() {
                        match ask_range(hs, id, &Message::RangeVersionProbe) {
                            Some(Message::Versions(v)) => stamps.extend(v),
                            _ => return Err(r as u64),
                        }
                    }
                    Ok(Message::Versions(stamps))
                }));
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                let cmd = ServerCmd::MaxCombine { uploads, threads };
                workers.push(spawn_wide(
                    &wide_node,
                    cmd,
                    seq,
                    tag,
                    &owner_link,
                    &announcer,
                ));
            }
            Message::AssembleFpos { claims } => {
                let cmd = ServerCmd::AssembleFpos { claims };
                workers.push(spawn_wide(&wide_node, cmd, 0, tag, &owner_link, &announcer));
            }
            Message::Ping { seq } => {
                let generation = shared.read().generation;
                reply(owner_link.as_ref(), tag, Message::Pong { seq, generation })?;
            }
            Message::Shutdown => {
                // Route tasks still in flight need their shard replies;
                // join them before telling the workers to exit.
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                for w in shared.read().workers.iter() {
                    let _ = w.link.send_raw(&Message::Shutdown);
                }
                return Ok(());
            }
            _ => {
                // Reply-direction messages; ignore defensively.
            }
        }
        workers.retain(|h| !h.is_finished());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;
    use crate::wire::Op;
    use prism_protocol::engine::BatchItem;
    use prism_protocol::params::{Initiator, SystemConfig};

    /// A fixed-membership domain (what the static constructors build)
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
            WorkerSlot::new(0, "d0/w0".into(), Arc::new(to_w0), 0),
            WorkerSlot::new(1, "d0/w1".into(), Arc::new(to_w1), 1),
        ];
        let (spec0, b) = (domain.plan.specs()[0], params.b);
        let worker = std::thread::spawn(move || {
            node_loop(params, Arc::new(w0), Some(spec0), 0, Tamper::Honest, None)
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
}
