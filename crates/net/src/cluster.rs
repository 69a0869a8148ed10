//! A deployed PRISM cluster: server domains on threads, owners as clients.
//!
//! Topology is the security argument made physical: each server domain
//! is constructed with exactly *one* link to the owner side. There is no
//! constructor that gives a server a link to another server, so the
//! no-server-communication property of §3.2 holds by construction, and
//! the per-link meters show exactly what crossed each edge.
//!
//! A domain is **sharded**: behind the owner-facing link sits a domain
//! router thread (`crate::router`) that owns `k > 1` row-range shard
//! workers, each a plain engine `ServerNode` over its own metered link
//! (so a worker can move to another process or machine without touching
//! protocol code). The constructors here wire that topology statically —
//! a fixed-membership, unreplicated routing state handed to the same
//! router and node loops the attachable deployment
//! ([`crate::registry::ClusterListener`]) runs; with `k = 1` there is no
//! router at all and the one node loop sits directly behind the owner
//! link. The owner side never sees shard granularity in replies; it only
//! meters it ([`NetReport`]).
//!
//! Since PR 4 the **announcer is a fourth networked node**: a thread
//! holding only [`AnnouncerParams`],
//! reachable over exactly three links — one control link from the owner
//! side and one upload link from each additive server domain. During a
//! max/median round the servers push their `PF`-permuted wide-share
//! matrices ([`Message::WideUpload`]) straight down those server→announcer
//! edges; the owner side sees only a shape receipt
//! ([`Message::WideForwarded`]), because the per-slot blinded values are
//! exactly what §4's knowledge table forbids owners from seeing. The
//! announcer traffic is metered like every other edge ([`NetReport`]).
//!
//! [`NetCluster`] is a transport, not a facade: it implements the engine's
//! [`ServerExec`], so the *same* round plans the in-process deployment
//! executes run here over channels or TCP, and `driver::Deployment`, so
//! the one owner-side facade (`prism_protocol::driver::Cluster::over`)
//! outsources and queries through it. What it names itself is what only
//! a transport has: uploads, tamper controls, reports, the registry,
//! [`NetCluster::execute_as`] — plus the two batch shims the repo
//! benchmark pins.

use crate::mux::{Admission, MuxLink, QueryId};
use crate::registry::NodeRegistry;
use crate::router::{domain_loop, node_loop, reply, DomainState, WorkerSlot};
use crate::transport::{channel_pair, Link, LinkStats, NetError, TcpLink};
use crate::wire::{recycle_vecs, Column, Message};
use parking_lot::RwLock;
use prism_core::Permutation;
use prism_protocol::cache::{CachedExec, PsiRoundCache};
use prism_protocol::driver::Deployment;
use prism_protocol::engine::{
    Announcer, AnnouncerCmd, AnnouncerReply, Engine, ExecMeters, Operation, QueryStats,
    RoundOutcome, ServerCmd, ServerExec, ServerReply,
};
use prism_protocol::malicious::{AnnouncerTamper, Tamper};
use prism_protocol::params::{
    AnnouncerParams, OwnerParams, Setup, ADDITIVE_SERVERS, SHAMIR_SERVERS,
};
use prism_protocol::{plans, ProtocolError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Run the announcer node's loop until `Shutdown`: an engine
/// [`Announcer`] behind three links — the owner-side control link plus
/// one upload link per additive server. On [`Message::AnnounceRun`] it
/// drains each server edge into the announcer's staging inbox until the
/// requested round's upload from that server is staged (the servers sent
/// their uploads *before* the receipts the owner's `AnnounceRun` quotes,
/// so they are already in flight), announces, and replies on the control
/// link. Any failure — crossed links, mismatched matrices — answers
/// `Ack` as the failure marker, which the owner surfaces as a protocol
/// error instead of hanging.
///
/// **Concurrency.** Interleaved queries can put *several* wide rounds'
/// uploads on one server edge in any order; the drain deposits whatever
/// arrives — the announcer's per-round inbox keeps them apart by `seq`
/// and prunes abandoned rounds — and stops as soon as the round it needs
/// is staged. A later `AnnounceRun` whose uploads were swept up by an
/// earlier drain finds them already staged and drains nothing. Announce
/// requests themselves are served in control-link order; the reply
/// carries the request's query tag.
pub(crate) fn announcer_loop(
    params: AnnouncerParams,
    owner_link: Arc<dyn Link>,
    server_links: Vec<Box<dyn Link>>,
) -> Result<(), NetError> {
    let mut announcer = Announcer::new(params);
    loop {
        let (tag, msg) = owner_link.recv()?.untag();
        match msg {
            Message::AnnounceRun { cmd, seq, threads } => {
                let mut staged = true;
                for (i, link) in server_links.iter().enumerate() {
                    while staged && !announcer.staged(i, seq) {
                        match link.recv()? {
                            Message::WideUpload {
                                server,
                                seq: upload_seq,
                                shares,
                            } if server as usize == i => {
                                staged &= announcer.deposit(i, upload_seq, shares).is_ok();
                            }
                            _ => {
                                staged = false; // crossed or malformed
                            }
                        }
                    }
                }
                let result = if staged {
                    announcer.announce(cmd, seq, (threads.max(1)) as usize).ok()
                } else {
                    None
                };
                match result {
                    Some((r, _)) => reply(owner_link.as_ref(), tag, Message::AnnounceReply(r))?,
                    None => reply(owner_link.as_ref(), tag, Message::Ack)?,
                }
            }
            Message::SetAnnouncerTamper(t) => {
                announcer.set_tamper(t);
                reply(owner_link.as_ref(), tag, Message::Ack)?;
            }
            Message::Ping { seq } => {
                // The announcer carries no row assignment; generation 0.
                reply(
                    owner_link.as_ref(),
                    tag,
                    Message::Pong { seq, generation: 0 },
                )?;
            }
            Message::Shutdown => return Ok(()),
            _ => {
                // Reply-direction messages; ignore defensively.
            }
        }
    }
}

/// Communication report for one query (or cumulatively, since start).
#[derive(Debug, Clone, Default)]
pub struct NetReport {
    /// Per-server `(bytes, messages)` sent by the owner side.
    pub to_servers: Vec<(u64, u64)>,
    /// Per-server `(bytes, messages)` received from servers.
    pub from_servers: Vec<(u64, u64)>,
    /// Per-server, per-shard `(bytes, messages)` the domain router sent
    /// to its shard workers.
    pub to_shards: Vec<Vec<(u64, u64)>>,
    /// Per-server, per-shard `(bytes, messages)` the shard workers sent
    /// back to their router.
    pub from_shards: Vec<Vec<(u64, u64)>>,
    /// `(bytes, messages)` the owner side sent to the announcer
    /// (announce requests + tamper control).
    pub to_announcer: (u64, u64),
    /// `(bytes, messages)` the announcer sent to the owner side
    /// (announcements).
    pub from_announcer: (u64, u64),
    /// Per additive server, `(bytes, messages)` it sent to the announcer
    /// over its dedicated upload link (the blinded wide matrices that the
    /// owner side must never see — and, by these meters, observably never
    /// carries).
    pub server_to_announcer: Vec<(u64, u64)>,
    /// Rounds served from the PSI-round cache (0 with the cache off).
    pub cache_hits: u64,
    /// Cache-eligible rounds that executed for real.
    pub cache_misses: u64,
    /// Cache entries dropped as stale (version mismatch or tamper).
    pub cache_invalidations: u64,
    /// Per-node liveness from the control plane's keep-alive prober
    /// (empty on statically wired clusters — only elastic clusters built
    /// through [`crate::registry::ClusterListener`] have a registry).
    pub nodes: Vec<crate::registry::NodeHealth>,
    /// Shard-worker failovers the registry has healed so far.
    pub failovers: u64,
    /// Failovers that healed as metadata-only replica promotions (no
    /// upload-log replay; a subset of `failovers`).
    pub promotions: u64,
}

impl NetReport {
    /// Number of server domains.
    pub fn servers(&self) -> usize {
        self.to_servers.len()
    }

    /// Shards behind each domain (0 for a report from an unsharded build).
    pub fn shards_per_server(&self) -> usize {
        self.to_shards.first().map_or(0, Vec::len)
    }

    /// `(bytes, messages)` the owner side sent to server `k`.
    pub fn owner_to_server(&self, k: usize) -> (u64, u64) {
        self.to_servers.get(k).copied().unwrap_or_default()
    }

    /// `(bytes, messages)` server `k` sent to the owner side.
    pub fn server_to_owner(&self, k: usize) -> (u64, u64) {
        self.from_servers.get(k).copied().unwrap_or_default()
    }

    /// `(bytes, messages)` server `k`'s router exchanged with shard `s`,
    /// as `(to_shard, from_shard)`.
    pub fn shard_link(&self, k: usize, s: usize) -> ((u64, u64), (u64, u64)) {
        let pick = |meters: &Vec<Vec<(u64, u64)>>| {
            let link = meters.get(k).and_then(|v| v.get(s));
            link.copied().unwrap_or_default()
        };
        (pick(&self.to_shards), pick(&self.from_shards))
    }

    /// `(bytes, messages)` additive server `k` sent to the announcer.
    pub fn server_to_announcer(&self, k: usize) -> (u64, u64) {
        self.server_to_announcer.get(k).copied().unwrap_or_default()
    }

    /// Total bytes over the three announcer edges (owner control link,
    /// both directions, plus the two server upload links).
    pub fn announcer_bytes(&self) -> u64 {
        self.to_announcer.0
            + self.from_announcer.0
            + self
                .server_to_announcer
                .iter()
                .map(|&(bytes, _)| bytes)
                .sum::<u64>()
    }

    /// Total bytes over every owner↔server link (both directions; shard
    /// links are internal to a domain and announcer edges are separate,
    /// so neither is double-counted here).
    pub fn total_bytes(&self) -> u64 {
        self.to_servers
            .iter()
            .chain(&self.from_servers)
            .map(|&(bytes, _)| bytes)
            .sum()
    }
}

impl std::fmt::Display for NetReport {
    /// One line per server domain, with the per-shard fan-out indented:
    ///
    /// ```text
    /// server 0: to 12.3KB/4 msgs, from 98.1KB/4 msgs
    ///   shard 0: to 3.1KB/4, from 24.5KB/4
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn kb(bytes: u64) -> String {
            if bytes >= 10_000 {
                format!("{:.1}KB", bytes as f64 / 1000.0)
            } else {
                format!("{bytes}B")
            }
        }
        for k in 0..self.servers() {
            let (tb, tm) = self.owner_to_server(k);
            let (fb, fm) = self.server_to_owner(k);
            writeln!(
                f,
                "server {k}: to {}/{tm} msgs, from {}/{fm} msgs",
                kb(tb),
                kb(fb)
            )?;
            for s in 0..self.to_shards.get(k).map_or(0, Vec::len) {
                let ((stb, stm), (sfb, sfm)) = self.shard_link(k, s);
                writeln!(
                    f,
                    "  shard {s}: to {}/{stm}, from {}/{sfm}",
                    kb(stb),
                    kb(sfb)
                )?;
            }
        }
        let (tb, tm) = self.to_announcer;
        let (fb, fm) = self.from_announcer;
        writeln!(
            f,
            "announcer: to {}/{tm} msgs, from {}/{fm} msgs",
            kb(tb),
            kb(fb)
        )?;
        for (k, &(bytes, msgs)) in self.server_to_announcer.iter().enumerate() {
            writeln!(f, "  server {k} -> announcer: {}/{msgs}", kb(bytes))?;
        }
        writeln!(
            f,
            "cache: hits={} misses={} invalidations={}",
            self.cache_hits, self.cache_misses, self.cache_invalidations
        )?;
        if !self.nodes.is_empty() {
            writeln!(
                f,
                "control plane: failovers={} promotions={}",
                self.failovers, self.promotions
            )?;
            for n in &self.nodes {
                writeln!(f, "  {n}")?;
            }
        }
        Ok(())
    }
}

/// Send-side meters of the edges whose sending end the owner side does
/// not hold (its own ends are metered through `links`/`announcer_link`);
/// each field feeds the [`NetReport`] field of the same name. The shard
/// meters stay empty for a router-less domain, and on elastic clusters,
/// whose worker-edge meters live in the worker processes — their report
/// exposes node health instead.
#[derive(Default)]
pub(crate) struct EdgeMeters {
    pub(crate) from_servers: Vec<Arc<LinkStats>>,
    pub(crate) to_shards: Vec<Vec<Arc<LinkStats>>>,
    pub(crate) from_shards: Vec<Vec<Arc<LinkStats>>>,
    pub(crate) from_announcer: Arc<LinkStats>,
    pub(crate) server_to_announcer: Vec<Arc<LinkStats>>,
}

/// Owner-side handle to a running cluster.
pub struct NetCluster {
    setup: Setup,
    links: Vec<Arc<MuxLink>>,
    announcer_link: Arc<MuxLink>,
    handles: Vec<JoinHandle<Result<(), NetError>>>,
    meters: EdgeMeters,
    shards: usize,
    threads: u32,
    dispatches: AtomicU64,
    /// Wide-round sequence counter: one fresh number per round that
    /// carries a `MaxCombine`, echoed by servers and quoted at announce
    /// time so the announcer can reject stale or crossed uploads.
    wide_seq: AtomicU64,
    /// Query-id counter: one fresh id per query (and per ad-hoc facade
    /// round-trip), tagging all of that query's wire traffic so the
    /// per-link pumps can route interleaved replies.
    query_seq: AtomicU64,
    /// Admission layer: bounded in-flight window + per-owner fair
    /// queueing over [`NetCluster::execute_as`].
    admission: Admission,
    /// Cross-query PSI-round cache (see [`prism_protocol::cache`]),
    /// enabled by [`NetCluster::enable_cache`]: `execute` wraps the
    /// cluster's own `ServerExec` in a `CachedExec` bound to this state,
    /// and the upload/tamper facades keep it honest. Shared (`Arc`) so an
    /// elastic cluster's registry can dirty a healed domain's entries
    /// from the prober thread.
    cache: Option<Arc<PsiRoundCache>>,
    /// The control plane, present on elastic clusters built through
    /// [`crate::registry::ClusterListener`]: node health, keep-alive
    /// probing, and shard failover.
    registry: Option<NodeRegistry>,
    /// Cumulative failover count already attributed to some round's
    /// [`ExecMeters`] — `tagged_round` swaps this against the registry's
    /// live counter so each failover lands in exactly one round's meters
    /// even when queries interleave.
    failover_mark: AtomicU64,
}

pub(crate) fn transport_err(e: NetError) -> ProtocolError {
    ProtocolError::Transport(e.to_string())
}

/// One query's view of a [`NetCluster`]: the same links, every round
/// tagged with this query's id. This is what [`NetCluster::execute_as`]
/// hands the engine, so N engines can run plans over one cluster
/// concurrently — the per-link pumps route each reply to the issuing
/// query's slot.
struct QueryView<'a> {
    net: &'a NetCluster,
    id: QueryId,
}

impl ServerExec for QueryView<'_> {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> prism_protocol::Result<RoundOutcome> {
        self.net.tagged_round(self.id, cmds)
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        self.net.tagged_announce(self.id, cmd, seq, threads)
    }

    fn meters(&self) -> ExecMeters {
        self.net.meters()
    }

    fn reclaim(&self, server: usize, outputs: Vec<Vec<u64>>) {
        self.net.reclaim(server, outputs)
    }
}

impl ServerExec for NetCluster {
    /// Ad-hoc rounds on the cluster itself (conformance tests drive this
    /// directly) mint a fresh correlation id per round — within one
    /// caller rounds are sequential, so a throwaway id pairs replies just
    /// as well as a per-query one.
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> prism_protocol::Result<RoundOutcome> {
        self.tagged_round(self.fresh_query_id(), cmds)
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        self.tagged_announce(self.fresh_query_id(), cmd, seq, threads)
    }

    fn meters(&self) -> ExecMeters {
        ExecMeters {
            shard_dispatches: self.dispatches.load(Ordering::Relaxed),
            failovers: self.registry.as_ref().map_or(0, |r| r.failovers()),
            ..ExecMeters::default()
        }
    }

    /// Reply vectors were decoded into buffers from the wire pool; that is
    /// where they return, whichever server sent them.
    fn reclaim(&self, _server: usize, outputs: Vec<Vec<u64>>) {
        recycle_vecs(outputs);
    }
}

/// A factory producing connected link pairs for one topology edge.
type LinkPair = (Box<dyn Link>, Box<dyn Link>);

impl NetCluster {
    /// Start servers on threads connected by in-process channels
    /// (one shard per domain).
    pub fn start_local(setup: Setup) -> NetCluster {
        Self::start_local_sharded(setup, 1)
    }

    /// Start servers on threads connected by in-process channels, each
    /// domain backed by `shards` row-range shard workers.
    pub fn start_local_sharded(setup: Setup, shards: usize) -> NetCluster {
        Self::start_with(setup, shards, || {
            let (a, b) = channel_pair();
            Ok((Box::new(a) as Box<dyn Link>, Box::new(b) as Box<dyn Link>))
        })
        .expect("channel links cannot fail to connect")
    }

    /// Start servers on threads behind loopback TCP sockets (one shard
    /// per domain).
    pub fn start_tcp(setup: Setup) -> std::io::Result<NetCluster> {
        Self::start_tcp_sharded(setup, 1)
    }

    /// Start servers behind loopback TCP, each domain backed by `shards`
    /// row-range shard workers — the router↔worker edges are TCP too, so
    /// this models shards living in separate processes.
    pub fn start_tcp_sharded(setup: Setup, shards: usize) -> std::io::Result<NetCluster> {
        Self::start_with(setup, shards, || {
            let (a, b) = TcpLink::loopback_pair()?;
            Ok((Box::new(a) as Box<dyn Link>, Box::new(b) as Box<dyn Link>))
        })
    }

    /// Default bound on queries in flight at once (see
    /// [`NetCluster::set_admission_window`]).
    pub(crate) const DEFAULT_ADMISSION_WINDOW: usize = 16;

    /// Mint a fresh query id (unique for this cluster's lifetime).
    fn fresh_query_id(&self) -> QueryId {
        self.query_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// One owner↔servers round on behalf of query `id`: begin a
    /// completion slot per participating link, ship every command tagged,
    /// then collect every reply from the slots — one round-trip however
    /// many servers take part, interleaving freely with other queries'
    /// rounds on the same links.
    fn tagged_round(
        &self,
        id: QueryId,
        cmds: Vec<(usize, ServerCmd)>,
    ) -> prism_protocol::Result<RoundOutcome> {
        let t0 = Instant::now();
        let mut round_seq = None;
        let mut dispatches = 0u64;
        let mut pendings = Vec::with_capacity(cmds.len());
        for (s, cmd) in cmds {
            let msg = match cmd {
                ServerCmd::Run(batch) => {
                    if self.shards > 1 {
                        dispatches += self.shards as u64;
                    }
                    Message::RunBatch(batch)
                }
                // Wide rounds are parameter-only and answered at the
                // domain front-end, so they never fan out to shards. One
                // sequence number covers the whole round (both servers).
                ServerCmd::MaxCombine { uploads, threads } => {
                    let seq = *round_seq
                        .get_or_insert_with(|| self.wide_seq.fetch_add(1, Ordering::Relaxed) + 1);
                    Message::MaxCombine {
                        uploads,
                        threads,
                        seq,
                    }
                }
                ServerCmd::AssembleFpos { claims } => Message::AssembleFpos { claims },
                ServerCmd::RangeVersions => Message::RangeVersionProbe,
            };
            let link = &self.links[s];
            // Register the slot before sending: the reply must never race
            // its own registration.
            pendings.push((s, link.begin(id).map_err(transport_err)?));
            link.send(id, msg).map_err(transport_err)?;
        }
        if dispatches > 0 {
            self.dispatches.fetch_add(dispatches, Ordering::Relaxed);
        }
        let mut replies = Vec::with_capacity(pendings.len());
        for (s, pending) in &pendings {
            match pending.recv().map_err(transport_err)? {
                Message::Outputs(outs) => replies.push(ServerReply::Vectors(outs)),
                Message::Versions(v) => replies.push(ServerReply::Versions(v)),
                Message::WideForwarded { rows, width, seq } => {
                    // The receipt must belong to the round we just issued
                    // (a desynchronized server cannot smuggle an old one).
                    if round_seq != Some(seq) {
                        return Err(ProtocolError::Transport(
                            "server acknowledged the wrong wide round".into(),
                        ));
                    }
                    replies.push(ServerReply::WideForwarded { rows, width, seq })
                }
                Message::Fpos(rows) => replies.push(ServerReply::Fpos(rows)),
                // A routed round hit a dead shard worker: surface the
                // crash by name (distinct from a tamper-shaped wrong
                // answer, which arrives well-formed and fails
                // verification instead).
                Message::NodeDown { node } => {
                    return Err(transport_err(NetError::NodeDown {
                        node: format!("d{s}/s{node}"),
                    }))
                }
                _ => {
                    return Err(ProtocolError::Transport(
                        "unexpected reply to a query round".into(),
                    ))
                }
            }
        }
        // Attribute any failovers healed since the last round to this
        // one: swap against the registry's live counter so each failover
        // lands in exactly one round's meters under interleaving.
        let failovers = match &self.registry {
            Some(registry) => {
                let cur = registry.failovers();
                let prev = self.failover_mark.swap(cur, Ordering::Relaxed);
                cur.saturating_sub(prev)
            }
            None => 0,
        };
        Ok(RoundOutcome {
            replies,
            cost: t0.elapsed(),
            meters: ExecMeters {
                shard_dispatches: dispatches,
                failovers,
                ..ExecMeters::default()
            },
        })
    }

    /// One announce round-trip on behalf of query `id` over the
    /// owner↔announcer control link.
    fn tagged_announce(
        &self,
        id: QueryId,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        let t0 = Instant::now();
        let msg = Message::AnnounceRun {
            cmd,
            seq,
            threads: threads as u32,
        };
        match self
            .announcer_link
            .request(id, msg)
            .map_err(transport_err)?
        {
            Message::AnnounceReply(reply) => Ok((reply, t0.elapsed())),
            // `Ack` is the announcer's failure marker (missing or crossed
            // uploads, mismatched matrices).
            _ => Err(ProtocolError::MalformedResponse(
                "announcer could not produce an announcement",
            )),
        }
    }

    /// Shared topology builder: per server domain, one owner↔domain link
    /// from `mk_pair`; for a sharded domain, `shards` router↔worker links
    /// wrapped into a fixed-membership [`DomainState`] (`rf = 1`, one
    /// [`WorkerSlot`] per link, generation 0, no registry, no prober), a
    /// router thread running [`domain_loop`] over it and one
    /// [`node_loop`] per worker — the very loops an attached deployment
    /// runs. An unsharded domain (`shards == 1`) has no router: its one
    /// node loop (holding the full domain parameters and the announcer
    /// edge) sits directly behind the owner link, exactly the
    /// pre-sharding topology, with no extra hop or re-encode.
    ///
    /// The announcer is the fourth node: its thread runs
    /// [`announcer_loop`] behind one owner↔announcer control link plus
    /// one upload link from each *additive* server domain (the Shamir-only
    /// server never participates in wide rounds and gets none — the
    /// topology, like the no-server-links property, enforces the role by
    /// construction).
    fn start_with(
        setup: Setup,
        shards: usize,
        mk_pair: impl Fn() -> std::io::Result<LinkPair>,
    ) -> std::io::Result<NetCluster> {
        let mut links: Vec<Arc<MuxLink>> = Vec::new();
        let mut handles = Vec::new();
        let mut meters = EdgeMeters::default();
        let mut actual_shards = 1;

        // Server→announcer edges, one per additive server.
        let mut server_ann_ends: Vec<Option<Arc<dyn Link>>> = Vec::new();
        let mut announcer_server_ends: Vec<Box<dyn Link>> = Vec::new();
        for _ in 0..ADDITIVE_SERVERS {
            let (server_end, announcer_end) = mk_pair()?;
            meters.server_to_announcer.push(server_end.stats());
            server_ann_ends.push(Some(Arc::from(server_end)));
            announcer_server_ends.push(announcer_end);
        }

        for k in 0..SHAMIR_SERVERS {
            let params = setup.servers[k].clone();
            let mut domain = DomainState::new(params.clone(), shards, 1);
            actual_shards = domain.plan.shard_count();
            let (owner_end, server_end) = mk_pair()?;
            meters.from_servers.push(server_end.stats());
            let server_end: Arc<dyn Link> = Arc::from(server_end);
            let ann_link = server_ann_ends.get_mut(k).and_then(Option::take);
            links.push(MuxLink::new(Arc::from(owner_end)));

            let mut to_stats = Vec::new();
            let mut from_stats = Vec::new();
            if actual_shards == 1 {
                handles.push(std::thread::spawn(move || {
                    node_loop(params, server_end, None, 0, Tamper::Honest, ann_link)
                }));
            } else {
                for spec in domain.plan.specs().to_vec() {
                    let (router_side, worker_side) = mk_pair()?;
                    to_stats.push(router_side.stats());
                    from_stats.push(worker_side.stats());
                    let params = params.clone();
                    handles.push(std::thread::spawn(move || {
                        let link = Arc::from(worker_side);
                        node_loop(params, link, Some(spec), 0, Tamper::Honest, None)
                    }));
                    let (i, label) = (spec.index, format!("d{k}/w{}", spec.index));
                    let slot = WorkerSlot::new(i as u64, label, Arc::from(router_side), i);
                    domain.workers.push(slot);
                }
                let shared = Arc::new(RwLock::new(domain));
                handles.push(std::thread::spawn(move || {
                    domain_loop(server_end, shared, ann_link)
                }));
            }
            meters.to_shards.push(to_stats);
            meters.from_shards.push(from_stats);
        }

        // The announcer node.
        let (announcer_link, announcer_end) = mk_pair()?;
        meters.from_announcer = announcer_end.stats();
        let ap = setup.announcer.clone();
        handles.push(std::thread::spawn(move || {
            announcer_loop(ap, Arc::from(announcer_end), announcer_server_ends)
        }));

        let announcer_link = MuxLink::new(Arc::from(announcer_link));
        Ok(NetCluster::assemble(
            setup,
            links,
            announcer_link,
            handles,
            meters,
            actual_shards,
            None,
        ))
    }

    /// The one place a [`NetCluster`] is put together, whichever way its
    /// nodes were brought up: fresh counters, the default admission
    /// window, cache off.
    pub(crate) fn assemble(
        setup: Setup,
        links: Vec<Arc<MuxLink>>,
        announcer_link: Arc<MuxLink>,
        handles: Vec<JoinHandle<Result<(), NetError>>>,
        meters: EdgeMeters,
        shards: usize,
        registry: Option<NodeRegistry>,
    ) -> NetCluster {
        NetCluster {
            setup,
            links,
            announcer_link,
            handles,
            meters,
            shards,
            threads: 1,
            dispatches: AtomicU64::new(0),
            wide_seq: AtomicU64::new(0),
            query_seq: AtomicU64::new(0),
            admission: Admission::new(Self::DEFAULT_ADMISSION_WINDOW),
            cache: None,
            registry,
            failover_mark: AtomicU64::new(0),
        }
    }

    /// Enable the cross-query PSI-round cache: every subsequent
    /// [`NetCluster::execute`] runs over a `CachedExec` decorator sharing
    /// one [`PsiRoundCache`], so a repeat eligible query against an
    /// unchanged store completes its round 1 with **zero** server
    /// round-trips (observable in [`NetReport`]'s per-link meters).
    /// Results are bit-identical with the cache on or off; verified
    /// operations always hit the servers.
    pub fn enable_cache(&mut self) {
        let cache = self
            .cache
            .get_or_insert_with(|| Arc::new(PsiRoundCache::new()));
        if let Some(registry) = &self.registry {
            // Failovers re-outsource rows from the prober thread; the
            // registry must be able to dirty the healed domain's entries.
            registry.attach_cache(Arc::clone(cache));
        }
    }

    /// The PSI-round cache, when enabled.
    pub fn cache(&self) -> Option<&PsiRoundCache> {
        self.cache.as_deref()
    }

    /// The cluster control plane (node health, keep-alive, failover) —
    /// present only on elastic clusters built through
    /// [`crate::registry::ClusterListener`].
    pub fn registry(&self) -> Option<&NodeRegistry> {
        self.registry.as_ref()
    }

    /// Set the per-server thread count sent with queries.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads as u32;
    }

    /// Bound the number of queries in flight at once (default 16); waiting
    /// queries queue FIFO per owner and owners are drained round-robin.
    /// Takes effect for queries admitted after the call.
    pub fn set_admission_window(&mut self, window: usize) {
        self.admission = Admission::new(window);
    }

    /// Queries currently holding an admission permit.
    pub fn queries_in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// Replies the owner-side link pumps dropped because no query claimed
    /// them (unknown or finished `QueryId`, or an untagged reply). Always
    /// 0 in a healthy cluster — conformance tests pin that.
    pub fn rejected_replies(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.rejected())
            .chain(std::iter::once(self.announcer_link.rejected()))
            .sum()
    }

    /// One acknowledged control round-trip over a multiplexed link.
    fn acked(&self, link: &Arc<MuxLink>, msg: Message) -> Result<(), NetError> {
        match link.request(self.fresh_query_id(), msg)? {
            Message::Ack => Ok(()),
            Message::NodeDown { node } => Err(NetError::NodeDown {
                node: format!("shard worker {node}"),
            }),
            _ => Err(NetError::Disconnected),
        }
    }

    /// Row-range shard workers behind each server domain.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The initiator's setup (owner view etc.).
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    /// Upload every column of one owner's per-server table in a single
    /// round-trip (the Phase-1 mirror of the batched round 2): one
    /// [`Message::BulkUpload`] frame, however many columns.
    pub fn bulk_upload(
        &self,
        server: usize,
        owner: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<(), NetError> {
        // Dirty the cache before awaiting the ack: the server may apply
        // the store even when the reply is lost, and note_upload's
        // contract is "was (or may have been) written".
        if let Some(cache) = &self.cache {
            cache.note_upload(server);
        }
        // The registry replays recorded uploads when it re-fans a healed
        // domain; record before sending so a crash mid-upload can only
        // replay too much (stores are overwrite-idempotent), never too
        // little.
        if let Some(registry) = &self.registry {
            registry.record_upload(server, owner, &columns);
        }
        self.acked(
            &self.links[server],
            Message::BulkUpload {
                owner: owner as u32,
                columns,
            },
        )
    }

    /// Adopt a grown [`Setup`] (from [`Setup::grow`]) ahead of the delta
    /// uploads that extend the cluster to it. The finish-permutation
    /// extension blocks a [`NetCluster::delta_upload`] ships are cut from
    /// this setup, so adopt first, then upload each server's delta.
    pub fn adopt_setup(&mut self, grown: Setup) {
        self.setup = grown;
    }

    /// Append rows to one owner's columns on one server starting at
    /// global row `start` — growth when `start` is the current domain
    /// size, a latest-epoch re-touch otherwise. Ships the adopted
    /// setup's finish-permutation extension blocks alongside the rows;
    /// the server ignores them on a re-touch, so they are always sent.
    /// Rows outside the adopted setup's domain are refused with
    /// [`NetError::DeltaOutsideDomain`] before anything is recorded or
    /// sent.
    pub fn delta_upload(
        &self,
        server: usize,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<(), NetError> {
        // The extension blocks below are cut from the adopted setup: a
        // range past it has none, and the domain would silently extend
        // its finish permutations by identity.
        let added = columns.first().map_or(0, |(_, d)| d.len());
        let domain = self.setup.owner.b;
        if start.checked_add(added).map_or(true, |end| end > domain) {
            return Err(NetError::DeltaOutsideDomain {
                start,
                added,
                domain,
            });
        }
        // Same ordering discipline as `bulk_upload`: dirty the cache and
        // record the delta in the registry before awaiting the ack.
        if let Some(cache) = &self.cache {
            cache.note_upload(server);
        }
        if let Some(registry) = &self.registry {
            registry.record_delta(server, owner, start, &columns);
        }
        let sp = &self.setup.servers[server];
        let ext = |p: &Permutation| {
            p.tail_block(start)
                .map(|b| b.as_map().to_vec())
                .unwrap_or_default()
        };
        self.acked(
            &self.links[server],
            Message::DeltaUpload {
                owner: owner as u32,
                start: start as u64,
                columns,
                pf_s1_ext: ext(&sp.pf_s1),
                pf_s2_ext: ext(&sp.pf_s2),
            },
        )
    }

    /// Attach a tampering behaviour to server φ (tests): the domain
    /// applies it to every subsequent merged output, exactly like the
    /// in-memory cluster.
    pub fn set_tamper(&self, server: usize, tamper: Tamper) -> Result<(), NetError> {
        if let Some(cache) = &self.cache {
            cache.note_tamper(server, tamper.is_honest());
        }
        self.acked(&self.links[server], Message::SetTamper(tamper))
    }

    /// Attach a tampering behaviour to the announcer node (tests), over
    /// its owner-side control link: applied to every subsequent max/median
    /// announcement, exactly like the in-memory cluster.
    pub fn set_announcer_tamper(&self, tamper: AnnouncerTamper) -> Result<(), NetError> {
        self.acked(&self.announcer_link, Message::SetAnnouncerTamper(tamper))
    }

    /// Run any engine round plan over this cluster's links (through the
    /// PSI-round cache decorator, when enabled), attributed to owner 0
    /// for admission purposes. Safe to call from many threads at once:
    /// each call is one admitted, query-tagged session over the shared
    /// links.
    pub fn execute<P: Operation>(
        &self,
        plan: &P,
    ) -> prism_protocol::Result<(P::Output, QueryStats)> {
        self.execute_as(0, plan)
    }

    /// [`NetCluster::execute`] on behalf of `owner`: waits for an
    /// admission slot (bounded window, per-owner round-robin fairness),
    /// mints one `QueryId`, and runs the whole plan tagged with it — so N
    /// concurrent callers interleave rounds over one set of persistent
    /// links with exact per-query accounting.
    pub fn execute_as<P: Operation>(
        &self,
        owner: u32,
        plan: &P,
    ) -> prism_protocol::Result<(P::Output, QueryStats)> {
        self.run(owner, None, plan)
    }

    /// One admitted, query-tagged session: `plan` over this cluster's
    /// links (through the cache decorator, when enabled), optionally
    /// scoped to a global row `range`.
    fn run<P: Operation>(
        &self,
        owner: u32,
        range: Option<(u64, u64)>,
        plan: &P,
    ) -> prism_protocol::Result<(P::Output, QueryStats)> {
        let _permit = self.admission.acquire(owner);
        let view = QueryView {
            net: self,
            id: self.fresh_query_id(),
        };
        let cached = self.cache.as_deref().map(|c| CachedExec::new(&view, c));
        let exec: &dyn ServerExec = match &cached {
            Some(c) => c,
            None => &view,
        };
        let mut engine = Engine::new(&exec, &self.setup.owner).with_threads(self.threads as usize);
        if let Some((start, len)) = range {
            engine = engine.with_range(start, len);
        }
        engine.run(plan)
    }

    /// [`plans::Batch`] under a caller-chosen z `seed`: a shim the repo
    /// benchmark pins (`examples/benchmark/README.md`, "Pinned API
    /// surface"); everything else queries through `driver::Cluster::over`.
    pub fn psi_query_batch(
        &self,
        batch: &plans::QueryBatch,
        seed: u64,
    ) -> prism_protocol::Result<(Vec<plans::AggResult>, QueryStats)> {
        self.run(0, None, &plans::Batch { batch, seed })
    }

    /// [`NetCluster::psi_query_batch`] scoped to the global row range
    /// `[start, start+len)` — the benchmark's other pinned shim.
    pub fn psi_query_batch_range(
        &self,
        batch: &plans::QueryBatch,
        seed: u64,
        range: (u64, u64),
    ) -> prism_protocol::Result<(Vec<plans::AggResult>, QueryStats)> {
        self.run(0, Some(range), &plans::Batch { batch, seed })
    }

    /// Snapshot of bytes/messages sent in each direction, including the
    /// per-shard fan-out inside every domain.
    pub fn report(&self) -> NetReport {
        let snap = |stats: &[Arc<LinkStats>]| -> Vec<(u64, u64)> {
            stats.iter().map(|s| s.snapshot()).collect()
        };
        NetReport {
            to_servers: self.links.iter().map(|l| l.stats().snapshot()).collect(),
            from_servers: snap(&self.meters.from_servers),
            to_shards: self.meters.to_shards.iter().map(|s| snap(s)).collect(),
            from_shards: self.meters.from_shards.iter().map(|s| snap(s)).collect(),
            to_announcer: self.announcer_link.stats().snapshot(),
            from_announcer: self.meters.from_announcer.snapshot(),
            server_to_announcer: snap(&self.meters.server_to_announcer),
            cache_hits: self.cache.as_deref().map_or(0, PsiRoundCache::hits),
            cache_misses: self.cache.as_deref().map_or(0, PsiRoundCache::misses),
            cache_invalidations: self
                .cache
                .as_deref()
                .map_or(0, PsiRoundCache::invalidations),
            nodes: self
                .registry
                .as_ref()
                .map(|r| r.node_health())
                .unwrap_or_default(),
            failovers: self.registry.as_ref().map_or(0, |r| r.failovers()),
            promotions: self.registry.as_ref().map_or(0, |r| r.promotions()),
        }
    }

    /// Orderly shutdown; joins router, worker, and announcer threads.
    pub fn shutdown(mut self) -> Result<(), NetError> {
        // Stop the keep-alive prober and attach dispatcher first so
        // teardown-closed links are not mistaken for node deaths.
        if let Some(registry) = self.registry.take() {
            registry.stop();
        }
        for link in &self.links {
            link.send_raw(&Message::Shutdown)?;
        }
        self.announcer_link.send_raw(&Message::Shutdown)?;
        for h in self.handles.drain(..) {
            h.join().map_err(|_| NetError::Disconnected)??;
        }
        Ok(())
    }
}

/// The wire deployment under `prism_protocol::driver::Cluster::over`: the
/// facade's stores and queries ride this cluster's own upload and query
/// paths.
impl Deployment for NetCluster {
    fn setup(&self) -> &Setup {
        &self.setup
    }

    fn adopt_setup(&mut self, grown: Setup) {
        NetCluster::adopt_setup(self, grown);
    }

    /// One [`Message::BulkUpload`] frame per server, however many
    /// columns the owner shares.
    fn store(
        &mut self,
        owner: usize,
        share: impl FnOnce(&OwnerParams, &mut dyn FnMut(usize, Column, Vec<u64>)),
    ) -> prism_protocol::Result<()> {
        let mut uploads = vec![Vec::new(); SHAMIR_SERVERS];
        share(&self.setup.owner, &mut |k, column, shares| {
            uploads[k].push((column, shares))
        });
        for (server, columns) in uploads.into_iter().enumerate() {
            if !columns.is_empty() {
                self.bulk_upload(server, owner, columns)
                    .map_err(transport_err)?;
            }
        }
        Ok(())
    }

    fn delta_store(
        &mut self,
        server: usize,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> prism_protocol::Result<()> {
        self.delta_upload(server, owner, start, columns)
            .map_err(transport_err)
    }

    fn run<P: Operation>(
        &self,
        range: Option<(u64, u64)>,
        plan: &P,
    ) -> prism_protocol::Result<(P::Output, QueryStats)> {
        NetCluster::run(self, 0, range, plan)
    }
}
