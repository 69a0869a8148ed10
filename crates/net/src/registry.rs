//! Cluster control plane: remote attach, keep-alive health, and
//! self-healing shard failover.
//!
//! The statically wired [`NetCluster`] constructors need every shard
//! worker alive at build time and treat a dead worker as a permanent
//! (typed) query failure. This module makes the routing state those
//! constructors freeze — `crate::router`'s `DomainState` — **elastic**,
//! under the very same router and node loops:
//!
//! * **Remote attach.** [`ClusterListener`] accepts TCP connections that
//!   open with a [`Message::Register`] naming their role
//!   ([`NodeRole`]): shard workers join a server domain
//!   ([`ShardWorker::connect`]), and the announcer attaches its control
//!   edge plus one upload edge per additive server
//!   ([`AnnouncerNode::connect`]). [`ClusterListener::start`] blocks
//!   until the topology is complete, then builds an ordinary
//!   [`NetCluster`] whose domain routers read their shard fan-out from
//!   state this registry keeps re-planning. Workers may keep attaching
//!   afterwards — an under-strength domain (post-failover) absorbs them
//!   with a re-plan.
//! * **Health.** A [`NodeRegistry`] prober thread sends
//!   [`Message::Ping`] to every registered node each
//!   [`RegistryConfig::probe_interval`], matching [`Message::Pong`]s by
//!   sequence number. A non-responder turns [`Liveness::Suspect`]; after
//!   [`RegistryConfig::miss_budget`] consecutive misses (or a hard link
//!   death) it is confirmed [`Liveness::Dead`]. Per-node liveness,
//!   last-seen age, and assignment generation are exported through
//!   [`NetCluster::report`] as [`NodeHealth`] rows.
//! * **Replication.** [`RegistryConfig::replication`] stores every row
//!   range on `rf` workers (round-robin over attach order,
//!   [`ShardPlan::replica_sets`]): the first holder of each range is
//!   its **primary**, the rest are standbys holding the identical
//!   shares. Uploads fan to every holder; query rounds read from the
//!   primary and fail over to a standby **only on a link-level failure**
//!   (`NodeDown`) — a well-formed-but-wrong reply is tamper-shaped and
//!   is never retried, so a corrupt replica cannot be masked by an
//!   honest one. Replicas add no leakage surface: each holds shares the
//!   same server domain already held, and workers of different domains
//!   still have no edge to each other.
//! * **Failover.** On confirmed death of a shard worker the registry
//!   first tries **promotion**: if every row range still has a live
//!   holder, the heal is metadata-only — generation bump, re-`Assign`
//!   of unchanged ranges (a no-op on the worker stores), and cache
//!   invalidation of exactly the healed domain. Zero upload-log
//!   replay. Only when a range lost its *last* holder does the registry
//!   re-plan the domain over the survivors, push each its new row range
//!   via [`Message::Assign`] (generation-numbered, acked), and
//!   **re-outsource** the domain by replaying every recorded owner
//!   upload sliced under the new plan — the same store-version path as
//!   any owner upload, so each survivor's monotonic version bumps and
//!   the PSI-round cache invalidates exactly the re-fanned domain
//!   (`note_upload`). Tamper detection survives re-sharding unchanged:
//!   the domain-level tampering behaviour and finish permutations live
//!   in the router, which the failover never touches.
//!
//! **Topology note.** Registry↔worker edges carry only control traffic
//! — registration, pings, assignments, and the replayed *shares* owners
//! already outsourced. No plaintext and no cross-server data ever flows
//! here, so the no-server-communication property of §3.2 is preserved:
//! workers of different domains still have no edge to each other.
//!
//! **Generation numbers.** Every re-plan bumps the domain's generation;
//! `Assign` carries it and `Pong` echoes the worker's current value, so
//! the prober detects a worker that missed a re-plan (e.g. an ack lost
//! to a transient) and re-sends its assignment — the keep-alive loop
//! doubles as the assignment anti-entropy loop.

use crate::cluster::{announcer_loop, EdgeMeters, NetCluster};
use crate::mux::MuxLink;
use crate::router::{domain_loop, node_loop, DomainState, WorkerSlot};
use crate::transport::{channel_pair, Link, LinkStats, NetError, TcpLink};
use crate::wire::{Column, Message, NodeRole};
use parking_lot::{Mutex, RwLock};
use prism_protocol::cache::PsiRoundCache;
use prism_protocol::malicious::Tamper;
use prism_protocol::params::{AnnouncerParams, ServerParams, Setup, ADDITIVE_SERVERS};
use prism_protocol::shard::{ShardPlan, ShardSpec};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for the control plane.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// How often the prober pings every registered node.
    pub probe_interval: Duration,
    /// How long one ping waits for its pong before counting a miss.
    pub probe_timeout: Duration,
    /// Consecutive misses that confirm a node dead: misses below the
    /// budget leave it merely *suspect*; reaching the budget kills it.
    /// A hard link death (EOF) skips the budget — the crash is already
    /// confirmed.
    pub miss_budget: u32,
    /// How long [`ClusterListener::start`] waits for the full topology
    /// (every shard worker + the announcer's three edges) to attach.
    pub attach_timeout: Duration,
    /// Per-message timeout during a heal (assignments, replayed
    /// uploads): a survivor that cannot ack within this is removed too.
    pub heal_timeout: Duration,
    /// Replication factor: how many workers hold each row range
    /// (primary + `replication - 1` standbys). Each domain's worker
    /// target becomes `shards × replication`. `1` (the default) is the
    /// unreplicated plan; values ≥ 2 turn worker death into a
    /// metadata-only promotion whenever the dead worker's range has a
    /// surviving holder.
    pub replication: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
            miss_budget: 3,
            attach_timeout: Duration::from_secs(10),
            heal_timeout: Duration::from_secs(5),
            replication: 1,
        }
    }
}

impl RegistryConfig {
    /// Whether a probe failure confirms a node dead: a hard link death
    /// is immediately fatal; otherwise death is confirmed once the node
    /// has accrued `miss_budget` consecutive misses — the budget is the
    /// miss count that kills, not one less (the historical `>` here let
    /// every node linger one probe interval past its documented budget).
    pub(crate) fn confirms_death(&self, misses: u32, hard_dead: bool) -> bool {
        hard_dead || misses >= self.miss_budget
    }
}

/// A registered node's health as the keep-alive prober sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Answered its most recent ping.
    Alive,
    /// Missed at least one ping, within the miss budget.
    Suspect,
    /// Confirmed down (budget exhausted or hard link death); shard
    /// workers in this state have been failed over.
    Dead,
}

impl std::fmt::Display for Liveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Liveness::Alive => write!(f, "alive"),
            Liveness::Suspect => write!(f, "suspect"),
            Liveness::Dead => write!(f, "dead"),
        }
    }
}

/// One row of [`NetCluster::report`]'s control-plane section.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// Registry-assigned node id.
    pub node: u64,
    /// Human label (`"d0/w3"` for a shard worker, `"announcer"`).
    pub label: String,
    /// Current liveness.
    pub liveness: Liveness,
    /// Time since the node last answered (registration counts).
    pub last_seen: Duration,
    /// The node's assignment generation (0 for the announcer).
    pub generation: u64,
}

impl std::fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (node {}): {} gen={} last_seen={:?} ago",
            self.label, self.node, self.liveness, self.generation, self.last_seen
        )
    }
}

/// One recorded owner upload (the replay log for failover
/// re-outsourcing). Records are replayed in arrival order and stores are
/// per-column overwrites, so only a column's latest upload matters: the log
/// holds each (server, owner, [`Column`]) in at most one record.
#[derive(Clone)]
struct UploadRecord {
    server: usize,
    owner: u32,
    columns: Vec<(Column, Vec<u64>)>,
}

/// One node's keep-alive bookkeeping, as the prober folds ping outcomes
/// into it.
pub(crate) struct Health {
    pub(crate) last_seen: Instant,
    misses: u32,
    pub(crate) liveness: Liveness,
}

impl Health {
    pub(crate) fn alive() -> Health {
        Health {
            last_seen: Instant::now(),
            misses: 0,
            liveness: Liveness::Alive,
        }
    }

    /// Fold one ping outcome in: an answer resets the node to alive; a
    /// miss makes it suspect or — once it
    /// [confirms death](RegistryConfig::confirms_death) — dead. Returns
    /// whether this outcome confirmed the death.
    fn observe(&mut self, answered: bool, cfg: &RegistryConfig, hard_dead: bool) -> bool {
        if answered {
            *self = Health::alive();
            return false;
        }
        self.misses += 1;
        let dead = cfg.confirms_death(self.misses, hard_dead);
        self.liveness = if dead {
            Liveness::Dead
        } else {
            Liveness::Suspect
        };
        dead
    }
}

struct AnnouncerHealth {
    node: u64,
    health: Health,
}

/// Shared control-plane state.
struct RegistryInner {
    cfg: RegistryConfig,
    addr: SocketAddr,
    domains: Vec<Arc<RwLock<DomainState>>>,
    uploads: Mutex<Vec<UploadRecord>>,
    /// Set by [`NetCluster::enable_cache`]; failovers dirty the healed
    /// domain here so warm entries cannot survive a re-fan.
    cache: Mutex<Option<Arc<PsiRoundCache>>>,
    heal_log: Mutex<Vec<String>>,
    /// Dead nodes kept for reporting after their slot is removed.
    graveyard: Mutex<Vec<NodeHealth>>,
    failovers: AtomicU64,
    /// Heals that completed as metadata-only replica promotions (a
    /// subset of `failovers`).
    promotions: AtomicU64,
    /// Upload-log records replayed across all heals — stays at zero as
    /// long as every heal promotes.
    replayed: AtomicU64,
    next_node: AtomicU64,
    /// Control-plane correlation ids (pings, assigns, replays) live in
    /// `[2^62, 2^63)`: disjoint from owner query ids (from 0) and
    /// router-local ids (from `2^63`), so all three can share the
    /// worker links' multiplexers.
    corr: AtomicU64,
    stop: AtomicBool,
    // Announcer attach state (filled by the dispatcher, consumed by
    // `start`, probed afterwards).
    announcer_ctl: Mutex<Option<Arc<TcpLink>>>,
    announcer_uploads: Mutex<Vec<Option<Arc<TcpLink>>>>,
    announcer_mux: Mutex<Option<Arc<MuxLink>>>,
    announcer_health: Mutex<Option<AnnouncerHealth>>,
    /// Live announcer edges once the cluster is running: the control
    /// edge plus one upload edge per additive server, each behind a
    /// [`SwapLink`] so a reconnecting announcer heals in place.
    announcer_swaps: Mutex<Option<AnnouncerSwaps>>,
}

/// The announcer's swappable edges: `(control, per-additive-server
/// uploads)`.
type AnnouncerSwaps = (Arc<SwapLink>, Vec<Arc<SwapLink>>);

/// A [`Link`] whose underlying TCP edge can be swapped for a fresh one
/// mid-life: `recv` on a dead edge *parks* (instead of surfacing the
/// error) until a replacement is swapped in, then resumes on it — so the
/// multiplexer pump and the domain routers holding this link never
/// observe the death, and a reconnected announcer resumes exactly where
/// the old one left the protocol.
pub(crate) struct SwapLink {
    /// (swap generation, current edge) — std mutex/condvar pair so a
    /// parked `recv` can wait for the swap.
    inner: std::sync::Mutex<(u64, Arc<TcpLink>)>,
    swapped: std::sync::Condvar,
    stopped: AtomicBool,
}

impl SwapLink {
    fn new(link: Arc<TcpLink>) -> Arc<SwapLink> {
        Arc::new(SwapLink {
            inner: std::sync::Mutex::new((0, link)),
            swapped: std::sync::Condvar::new(),
            stopped: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, Arc<TcpLink>)> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn current(&self) -> (u64, Arc<TcpLink>) {
        let g = self.lock();
        (g.0, Arc::clone(&g.1))
    }

    /// Install a replacement edge and wake every parked `recv`.
    fn swap(&self, link: Arc<TcpLink>) {
        let mut g = self.lock();
        g.0 += 1;
        g.1 = link;
        self.swapped.notify_all();
    }

    /// Release parked receivers with the underlying error (shutdown).
    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.swapped.notify_all();
    }
}

impl Link for SwapLink {
    fn send(&self, msg: &Message) -> Result<(), NetError> {
        self.current().1.send(msg)
    }

    fn recv(&self) -> Result<Message, NetError> {
        loop {
            let (generation, link) = self.current();
            match link.recv() {
                Ok(msg) => return Ok(msg),
                Err(e) => {
                    // Park until a replacement is swapped in: the edge
                    // died but the node behind it may reconnect.
                    let mut g = self.lock();
                    while g.0 == generation && !self.stopped.load(Ordering::SeqCst) {
                        g = self.swapped.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                    if self.stopped.load(Ordering::SeqCst) {
                        return Err(e);
                    }
                }
            }
        }
    }

    fn stats(&self) -> Arc<LinkStats> {
        self.current().1.stats()
    }
}

impl RegistryInner {
    fn fresh_corr(&self) -> u64 {
        self.corr.fetch_add(1, Ordering::Relaxed)
    }
}

/// Public handle to the control plane, carried by elastic
/// [`NetCluster`]s (see [`NetCluster::registry`]).
pub struct NodeRegistry {
    inner: Arc<RegistryInner>,
    prober: Mutex<Option<JoinHandle<()>>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl NodeRegistry {
    /// Address workers and the announcer dial to attach.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Shard-worker failovers healed so far (promotions included).
    pub fn failovers(&self) -> u64 {
        self.inner.failovers.load(Ordering::Relaxed)
    }

    /// Heals that completed as metadata-only replica promotions: the
    /// dead worker's every range had a surviving holder, so no upload
    /// was replayed.
    pub fn promotions(&self) -> u64 {
        self.inner.promotions.load(Ordering::Relaxed)
    }

    /// Upload-log records replayed across all heals so far. With a
    /// replication factor ≥ 2 a single worker death heals by promotion
    /// and this stays exactly where it was.
    pub fn replayed_records(&self) -> u64 {
        self.inner.replayed.load(Ordering::Relaxed)
    }

    /// Human-readable heal log: one entry per attach, failover, and
    /// heal-time anomaly, in order.
    pub fn heal_log(&self) -> Vec<String> {
        self.inner.heal_log.lock().clone()
    }

    /// Per-node liveness snapshot (live workers, dead nodes kept for the
    /// record, and the announcer).
    pub(crate) fn node_health(&self) -> Vec<NodeHealth> {
        let mut out = Vec::new();
        for domain in &self.inner.domains {
            let st = domain.read();
            out.extend(st.workers.iter().map(worker_health));
        }
        out.extend(self.inner.graveyard.lock().iter().cloned());
        if let Some(a) = self.inner.announcer_health.lock().as_ref() {
            out.push(NodeHealth {
                node: a.node,
                label: "announcer".into(),
                liveness: a.health.liveness,
                last_seen: a.health.last_seen.elapsed(),
                generation: 0,
            });
        }
        out
    }

    /// Append one owner upload to the replay log (called by the cluster
    /// facades before each send, so a heal can re-outsource the domain).
    /// The upload supersedes its columns in this owner's older records, and
    /// a record left with no column is dropped, so a replacing upload
    /// (`update_owner`) does not grow the log.
    pub(crate) fn record_upload(
        &self,
        server: usize,
        owner: usize,
        columns: &[(Column, Vec<u64>)],
    ) {
        let owner = owner as u32;
        let mut log = self.inner.uploads.lock();
        log.retain_mut(|r| {
            if (r.server, r.owner) == (server, owner) {
                r.columns
                    .retain(|(c, _)| columns.iter().all(|(n, _)| n != c));
            }
            !r.columns.is_empty()
        });
        log.push(UploadRecord {
            server,
            owner,
            columns: columns.to_vec(),
        });
    }

    /// Fold a delta upload into the replay log: each delta column is
    /// merged into the most recent record holding that column (truncated
    /// to `start`, then extended), so a heal's replay always re-outsources
    /// full-length, latest-epoch state — never a stale pre-delta column
    /// followed by nothing.
    pub(crate) fn record_delta(
        &self,
        server: usize,
        owner: usize,
        start: usize,
        columns: &[(Column, Vec<u64>)],
    ) {
        let mut log = self.inner.uploads.lock();
        for (c, delta) in columns {
            let merged = log
                .iter_mut()
                .rev()
                .filter(|r| r.server == server && r.owner == owner as u32)
                .find_map(|r| r.columns.iter_mut().find(|(rc, _)| rc == c));
            match merged {
                Some((_, data)) => {
                    data.resize(start, 0);
                    data.extend_from_slice(delta);
                }
                None => {
                    // A delta without a prior full upload (first epoch was
                    // itself a delta): record it zero-padded to `start` so
                    // the replay slicing stays full-length.
                    let mut data = vec![0; start];
                    data.extend_from_slice(delta);
                    log.push(UploadRecord {
                        server,
                        owner: owner as u32,
                        columns: vec![(*c, data)],
                    });
                }
            }
        }
    }

    /// Bind the PSI-round cache so failovers can dirty healed domains.
    pub(crate) fn attach_cache(&self, cache: Arc<PsiRoundCache>) {
        *self.inner.cache.lock() = Some(cache);
    }

    /// Stop the prober and the attach dispatcher (idempotent). Called by
    /// [`NetCluster::shutdown`] before links are torn down so teardown
    /// is not mistaken for node death.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unpark any receiver waiting on an announcer reconnect, so
        // teardown cannot hang on a heal that will never come.
        if let Some((ctl, uploads)) = self.inner.announcer_swaps.lock().as_ref() {
            ctl.stop();
            for u in uploads {
                u.stop();
            }
        }
        // Wake the dispatcher out of `accept` with a throwaway dial.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(h) = self.dispatcher.lock().take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.lock().take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for NodeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRegistry")
            .field("addr", &self.inner.addr)
            .field("failovers", &self.failovers())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Attach listener → elastic cluster
// ---------------------------------------------------------------------

/// The registry's attach endpoint: workers and the announcer dial
/// [`ClusterListener::addr`] and register; [`ClusterListener::start`]
/// waits for the full topology and produces the elastic [`NetCluster`].
pub struct ClusterListener {
    setup: Setup,
    shards: usize,
    inner: Arc<RegistryInner>,
    dispatcher: JoinHandle<()>,
}

impl ClusterListener {
    /// Bind the attach endpoint on an ephemeral loopback port and start
    /// accepting registrations immediately (workers may dial before or
    /// after [`ClusterListener::start`] is called — bring-up is racy by
    /// nature and both orders must work). `shards` is each domain's
    /// *row-range* target; the worker target is `shards ×`
    /// [`RegistryConfig::replication`].
    pub fn bind(setup: Setup, shards: usize, cfg: RegistryConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let rf = cfg.replication.max(1);
        let domains = setup
            .servers
            .iter()
            .map(|params| Arc::new(RwLock::new(DomainState::new(params.clone(), shards, rf))))
            .collect();
        let inner = Arc::new(RegistryInner {
            cfg,
            addr,
            domains,
            uploads: Mutex::new(Vec::new()),
            cache: Mutex::new(None),
            heal_log: Mutex::new(Vec::new()),
            graveyard: Mutex::new(Vec::new()),
            failovers: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            next_node: AtomicU64::new(0),
            corr: AtomicU64::new(1 << 62),
            stop: AtomicBool::new(false),
            announcer_ctl: Mutex::new(None),
            announcer_uploads: Mutex::new(vec![None; ADDITIVE_SERVERS]),
            announcer_mux: Mutex::new(None),
            announcer_health: Mutex::new(None),
            announcer_swaps: Mutex::new(None),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || dispatcher_loop(inner, listener))
        };
        Ok(ClusterListener {
            setup,
            shards: shards.max(1),
            inner,
            dispatcher,
        })
    }

    /// The attach address to hand to [`ShardWorker::connect`] and
    /// [`AnnouncerNode::connect`].
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Block until every domain has its target worker count and the
    /// announcer's three edges are attached (or
    /// [`RegistryConfig::attach_timeout`] expires), then assemble the
    /// elastic [`NetCluster`]: one local router thread per domain
    /// reading its shard fan-out from the registry, the keep-alive
    /// prober, and the usual owner facades.
    pub fn start(self) -> Result<NetCluster, NetError> {
        let deadline = Instant::now() + self.inner.cfg.attach_timeout;
        loop {
            let workers_ready = self
                .inner
                .domains
                .iter()
                .all(|d| d.read().workers.len() >= d.read().target);
            let ann_ready = self.inner.announcer_ctl.lock().is_some()
                && self
                    .inner
                    .announcer_uploads
                    .lock()
                    .iter()
                    .all(Option::is_some);
            if workers_ready && ann_ready {
                break;
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut links = Vec::new();
        let mut handles = Vec::new();
        let mut meters = EdgeMeters {
            to_shards: vec![Vec::new(); self.inner.domains.len()],
            from_shards: vec![Vec::new(); self.inner.domains.len()],
            ..EdgeMeters::default()
        };
        // Every announcer edge goes behind a SwapLink: when the prober
        // confirms the announcer dead and a replacement dials in, the
        // dispatcher swaps the fresh edges in place and the routers (and
        // the control-link multiplexer) resume without reconstruction.
        let upload_ends: Vec<Arc<SwapLink>> = {
            let mut slots = self.inner.announcer_uploads.lock();
            slots
                .iter_mut()
                .map(|s| SwapLink::new(s.take().expect("readiness checked above")))
                .collect()
        };
        for end in upload_ends.iter() {
            meters.server_to_announcer.push(Link::stats(end.as_ref()));
        }
        for (k, shared) in self.inner.domains.iter().enumerate() {
            let (owner_end, server_end) = channel_pair();
            meters.from_servers.push(Link::stats(&server_end));
            let shared = Arc::clone(shared);
            let announcer = upload_ends
                .get(k)
                .map(|end| Arc::clone(end) as Arc<dyn Link>);
            handles.push(std::thread::spawn(move || {
                domain_loop(Arc::new(server_end), shared, announcer)
            }));
            links.push(MuxLink::new(Arc::new(owner_end) as Arc<dyn Link>));
        }

        let ctl = self
            .inner
            .announcer_ctl
            .lock()
            .take()
            .expect("readiness checked above");
        let ctl_swap = SwapLink::new(ctl);
        *self.inner.announcer_swaps.lock() = Some((
            Arc::clone(&ctl_swap),
            upload_ends.iter().map(Arc::clone).collect(),
        ));
        let announcer_link = MuxLink::new_labeled(ctl_swap as Arc<dyn Link>, "announcer");
        *self.inner.announcer_mux.lock() = Some(Arc::clone(&announcer_link));

        let prober = {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || prober_loop(inner))
        };
        let registry = NodeRegistry {
            inner: Arc::clone(&self.inner),
            prober: Mutex::new(Some(prober)),
            dispatcher: Mutex::new(Some(self.dispatcher)),
        };

        Ok(NetCluster::assemble(
            self.setup,
            links,
            announcer_link,
            handles,
            meters,
            self.shards,
            Some(registry),
        ))
    }
}

// ---------------------------------------------------------------------
// Dispatcher: accept + classify registrations
// ---------------------------------------------------------------------

fn dispatcher_loop(inner: Arc<RegistryInner>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        // Handshakes run on their own threads so one stalled dialer
        // cannot block every other attach.
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || handle_attach(&inner, stream));
    }
}

/// Answer a registration: `Some(node)` accepts it under that id (with a
/// provisional row range of `len` rows from 0 for a shard worker, empty
/// otherwise), `None` rejects it. Returns whether the ack went out.
fn register_ack(link: &TcpLink, node: Option<u64>, len: usize) -> bool {
    let ack = Message::RegisterAck {
        accepted: node.is_some(),
        node: node.unwrap_or(0),
        generation: 0,
        start: 0,
        len: len as u64,
    };
    link.send(&ack).is_ok()
}

fn reject(link: &TcpLink) {
    register_ack(link, None, 0);
}

fn handle_attach(inner: &Arc<RegistryInner>, stream: TcpStream) {
    let link = match TcpLink::new(stream) {
        Ok(l) => Arc::new(l),
        Err(_) => return,
    };
    // The Register frame is due within one probe timeout, so a dialer that
    // connects and stays silent cannot pin this thread. The deadline is
    // lifted before the link can reach a worker slot or an announcer pump,
    // which block on it by design.
    let deadline = inner.cfg.probe_timeout;
    if link.set_read_timeout(Some(deadline)).is_err() {
        return;
    }
    let msg = match link.recv() {
        Ok(m) => m,
        Err(_) => return, // includes the stop()-wake dummy dial
    };
    if link.set_read_timeout(None).is_err() {
        return;
    }
    let Message::Register { role, domain, .. } = msg else {
        return;
    };
    let d = domain as usize;
    let fresh_node = || inner.next_node.fetch_add(1, Ordering::Relaxed);
    match role {
        NodeRole::ShardWorker => {
            let Some(shared) = inner.domains.get(d) else {
                return reject(&link);
            };
            // Claim a slot (or reject a full domain) and ack with a
            // provisional whole-domain range, all under one write lock:
            // concurrent dials cannot both take the last slot, slot order
            // is ack order, and nothing (re-fan, prober, router) can reach
            // the new link before its ack is on the wire. The re-fan below
            // assigns the real range before any query can route here.
            let label = {
                let mut st = shared.write();
                if st.workers.len() >= st.target {
                    drop(st);
                    return reject(&link);
                }
                let node = fresh_node();
                if !register_ack(&link, Some(node), st.params.b) {
                    return;
                }
                let label = format!("d{d}/w{node}");
                st.workers.push(WorkerSlot::new(
                    node,
                    label.clone(),
                    Arc::clone(&link) as _,
                    0,
                ));
                label
            };
            let survivors = refan(inner, d);
            inner.heal_log.lock().push(format!(
                "domain {d}: worker {label} attached; re-fanned over {survivors} worker(s)"
            ));
        }
        NodeRole::AnnouncerCtl => {
            // Reconnect path: the cluster is already running (swap links
            // exist). Only a *confirmed-dead* announcer may be replaced —
            // a live one re-registering is an impostor and is rejected.
            let swap = inner
                .announcer_swaps
                .lock()
                .as_ref()
                .map(|(ctl, _)| Arc::clone(ctl));
            if let Some(ctl_swap) = swap {
                let dead = inner
                    .announcer_health
                    .lock()
                    .as_ref()
                    .is_some_and(|a| a.health.liveness == Liveness::Dead);
                if !dead {
                    return reject(&link);
                }
                let node = fresh_node();
                if register_ack(&link, Some(node), 0) {
                    ctl_swap.swap(link);
                    let health = Health::alive();
                    *inner.announcer_health.lock() = Some(AnnouncerHealth { node, health });
                    inner.heal_log.lock().push(format!(
                        "announcer: control edge reconnected as node {node}; wide rounds resumed"
                    ));
                }
                return;
            }
            let mut slot = inner.announcer_ctl.lock();
            if slot.is_some() {
                drop(slot);
                return reject(&link);
            }
            let node = fresh_node();
            if register_ack(&link, Some(node), 0) {
                *slot = Some(link);
                let health = Health::alive();
                *inner.announcer_health.lock() = Some(AnnouncerHealth { node, health });
            }
        }
        NodeRole::AnnouncerUpload => {
            // Reconnect path: a healing announcer re-dials its upload
            // edges right after its control edge (which flipped health
            // back to Alive), so gate on the swap links existing rather
            // than on liveness.
            let swap = inner
                .announcer_swaps
                .lock()
                .as_ref()
                .and_then(|(_, ups)| ups.get(d).map(Arc::clone));
            if let Some(up_swap) = swap {
                if register_ack(&link, Some(fresh_node()), 0) {
                    up_swap.swap(link);
                    inner
                        .heal_log
                        .lock()
                        .push(format!("announcer: upload edge {d} reconnected"));
                }
                return;
            }
            let mut slots = inner.announcer_uploads.lock();
            match slots.get_mut(d) {
                Some(slot @ None) => {
                    if register_ack(&link, Some(fresh_node()), 0) {
                        *slot = Some(link);
                    }
                }
                _ => {
                    drop(slots);
                    reject(&link);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Heal: re-plan, re-assign, re-outsource
// ---------------------------------------------------------------------

/// Re-fan domain `d` over its current workers: bump the generation,
/// re-plan (carving [`ShardPlan::ranges_for`] ranges so every range
/// keeps `rf` holders), push every worker its row range, and replay the
/// recorded uploads sliced under the new plan. Holds the domain write
/// lock throughout — the heal barrier: no query round can interleave
/// with a half-replayed store. A worker that fails mid-heal is removed
/// and the heal restarts over the remainder. Returns the surviving
/// worker count (0 = domain offline).
fn refan(inner: &Arc<RegistryInner>, d: usize) -> usize {
    let shared = &inner.domains[d];
    let mut st = shared.write();
    loop {
        if st.workers.is_empty() {
            st.generation += 1;
            inner
                .heal_log
                .lock()
                .push(format!("domain {d}: no surviving workers — domain offline"));
            return 0;
        }
        st.generation += 1;
        let ranges = ShardPlan::ranges_for(st.workers.len(), st.rf, st.params.b);
        st.plan = ShardPlan::new(st.params.b, ranges);
        for (r, holders) in st.plan.replica_sets(st.workers.len()).iter().enumerate() {
            for &w in holders {
                st.workers[w].range = r;
            }
        }
        match assign_and_replay(inner, &mut st, d) {
            Ok(()) => break,
            Err(bad) => {
                let casualty = st.workers.remove(bad);
                bury(inner, &casualty);
                inner.heal_log.lock().push(format!(
                    "domain {d}: worker {} failed mid-heal; removed",
                    casualty.label
                ));
            }
        }
    }
    let survivors = st.workers.len();
    drop(st);
    // The re-outsource mutated every survivor's store; dirty the
    // domain's cache entries exactly like any owner upload would.
    if let Some(cache) = inner.cache.lock().as_ref() {
        cache.note_upload(d);
    }
    survivors
}

/// Metadata-only heal of domain `d`: every range of the *current* plan
/// still has a live holder, so no row range was lost with the casualty
/// — bump the generation and re-`Assign` each survivor the range it
/// already holds (a pure generation bump on the worker side; stores are
/// untouched and nothing is replayed), then dirty exactly this domain's
/// cache entries so warm rounds revalidate against the promoted
/// primaries. Returns `false` when a range lost its last holder or a
/// survivor failed its promotion assign — the caller falls back to the
/// replay heal over whoever remains.
fn promote(inner: &Arc<RegistryInner>, d: usize) -> bool {
    let shared = &inner.domains[d];
    let mut st = shared.write();
    loop {
        if st.workers.is_empty() || !st.covered() {
            return false;
        }
        st.generation += 1;
        match assign_current(inner, &mut st) {
            Ok(()) => break,
            Err(bad) => {
                let casualty = st.workers.remove(bad);
                bury(inner, &casualty);
                inner.heal_log.lock().push(format!(
                    "domain {d}: worker {} failed mid-promotion; removed",
                    casualty.label
                ));
            }
        }
    }
    drop(st);
    // Nothing was replayed, but the primary of the healed range changed:
    // dirty the domain so warm entries re-probe (and revive if the
    // promoted holder reports the stamps they were cut against).
    if let Some(cache) = inner.cache.lock().as_ref() {
        cache.note_upload(d);
    }
    inner.promotions.fetch_add(1, Ordering::Relaxed);
    true
}

/// Send every worker one heal message cut for the range it holds and
/// collect the acks, each within [`RegistryConfig::heal_timeout`].
/// `Err(i)` names the worker index that failed.
fn heal_fan(
    inner: &Arc<RegistryInner>,
    st: &DomainState,
    mk: impl Fn(&ShardSpec) -> Message,
) -> Result<(), usize> {
    let corr = inner.fresh_corr();
    let mut pendings = Vec::with_capacity(st.workers.len());
    for (i, slot) in st.workers.iter().enumerate() {
        let msg = mk(&st.plan.specs()[slot.range]);
        let p = slot.link.begin(corr).map_err(|_| i)?;
        slot.link.send(corr, msg).map_err(|_| i)?;
        pendings.push((i, p));
    }
    for (i, p) in pendings {
        match p.recv_timeout(inner.cfg.heal_timeout) {
            Ok(Message::Ack) => {}
            _ => return Err(i),
        }
    }
    Ok(())
}

/// Push every worker the range it currently holds (acked, generation
/// `st.generation`). Assigning the unchanged range is deliberately a
/// pure generation bump on the worker side — no store wipe, no replay.
/// `Err(i)` names the worker index that failed.
fn assign_current(inner: &Arc<RegistryInner>, st: &mut DomainState) -> Result<(), usize> {
    let generation = st.generation;
    heal_fan(inner, st, |spec| Message::Assign {
        generation,
        start: spec.start as u64,
        len: spec.len as u64,
    })?;
    for w in st.workers.iter_mut() {
        w.generation = generation;
    }
    Ok(())
}

/// Push the current plan's ranges to every worker (acked, generation
/// `st.generation`), then replay the domain's recorded uploads sliced
/// under the new plan — every holder of a range receives its slice.
/// `Err(i)` names the worker index that failed.
fn assign_and_replay(
    inner: &Arc<RegistryInner>,
    st: &mut DomainState,
    d: usize,
) -> Result<(), usize> {
    assign_current(inner, st)?;
    let records: Vec<UploadRecord> = inner
        .uploads
        .lock()
        .iter()
        .filter(|r| r.server == d)
        .cloned()
        .collect();
    for rec in &records {
        heal_fan(inner, st, |spec| Message::BulkUpload {
            owner: rec.owner,
            columns: rec
                .columns
                .iter()
                .map(|(c, data)| {
                    // Clamp + zero-pad: a record that predates a domain
                    // growth (no delta ever merged into it) replays
                    // zeroes over the appended rows instead of panicking.
                    let lo = spec.start.min(data.len());
                    let hi = (spec.start + spec.len).min(data.len());
                    let mut part = data[lo..hi].to_vec();
                    part.resize(spec.len, 0);
                    (*c, part)
                })
                .collect(),
        })?;
    }
    inner
        .replayed
        .fetch_add(records.len() as u64, Ordering::Relaxed);
    Ok(())
}

fn worker_health(w: &WorkerSlot) -> NodeHealth {
    NodeHealth {
        node: w.node,
        label: w.label.clone(),
        liveness: w.health.liveness,
        last_seen: w.health.last_seen.elapsed(),
        generation: w.generation,
    }
}

fn bury(inner: &Arc<RegistryInner>, casualty: &WorkerSlot) {
    inner.graveyard.lock().push(NodeHealth {
        liveness: Liveness::Dead,
        ..worker_health(casualty)
    });
}

/// Confirmed death of one shard worker: remove it, heal the domain, and
/// count the failover. The cheap heal is tried first — if every row
/// range the casualty co-held still has a live replica, the heal is a
/// metadata-only *promotion*; only a range that lost its last holder
/// forces the replay re-fan.
fn failover(inner: &Arc<RegistryInner>, d: usize, node: u64) {
    let casualty = {
        let mut st = inner.domains[d].write();
        let Some(idx) = st.workers.iter().position(|w| w.node == node) else {
            return; // already removed by a concurrent heal
        };
        st.workers.remove(idx)
    };
    bury(inner, &casualty);
    let promoted = promote(inner, d);
    let survivors = if promoted {
        inner.domains[d].read().workers.len()
    } else {
        refan(inner, d)
    };
    inner.failovers.fetch_add(1, Ordering::Relaxed);
    let generation = inner.domains[d].read().generation;
    let heal = if promoted {
        "promoted surviving replica(s), zero replay"
    } else {
        "re-fanned the upload log"
    };
    inner.heal_log.lock().push(format!(
        "domain {d}: worker {} confirmed dead; {heal} over {survivors} survivor(s) \
         (generation {generation})",
        casualty.label
    ));
}

// ---------------------------------------------------------------------
// Prober: keep-alive loop
// ---------------------------------------------------------------------

fn prober_loop(inner: Arc<RegistryInner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(inner.cfg.probe_interval);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        for d in 0..inner.domains.len() {
            // Snapshot outside the lock: a probe waits up to
            // probe_timeout and must not block routing or heals.
            let probes: Vec<(u64, Arc<MuxLink>, u64)> = {
                let st = inner.domains[d].read();
                st.workers
                    .iter()
                    .map(|w| (w.node, Arc::clone(&w.link), st.generation))
                    .collect()
            };
            for (node, link, expected_gen) in probes {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let outcome = ping(&inner, &link);
                let confirmed_dead = {
                    let mut st = inner.domains[d].write();
                    let slot = st.workers.iter_mut().find(|w| w.node == node);
                    let (answered, hard_dead) = (outcome.is_ok(), link.is_dead());
                    slot.is_some_and(|w| w.health.observe(answered, &inner.cfg, hard_dead))
                };
                match outcome {
                    Ok(worker_gen)
                        if worker_gen != expected_gen
                            && worker_gen != inner.domains[d].read().generation =>
                    {
                        // The worker genuinely missed a re-plan (not
                        // just a stale snapshot of a concurrent heal):
                        // re-fan the whole domain — the keep-alive
                        // doubles as anti-entropy, and a full heal is
                        // the only resync that also restores the
                        // worker's store.
                        inner.heal_log.lock().push(format!(
                            "domain {d}: node {node} reports stale generation \
                             {worker_gen}; re-fanning"
                        ));
                        refan(&inner, d);
                    }
                    Err(_) if confirmed_dead => failover(&inner, d, node),
                    _ => {}
                }
            }
        }
        probe_announcer(&inner);
    }
}

/// One ping round-trip; returns the node's assignment generation.
fn ping(inner: &Arc<RegistryInner>, link: &Arc<MuxLink>) -> Result<u64, NetError> {
    let seq = inner.fresh_corr();
    let pending = link.begin(seq)?;
    link.send(seq, Message::Ping { seq })?;
    match pending.recv_timeout(inner.cfg.probe_timeout)? {
        Message::Pong {
            seq: echoed,
            generation,
        } if echoed == seq => Ok(generation),
        _ => Err(NetError::Mux("mismatched pong")),
    }
}

fn probe_announcer(inner: &Arc<RegistryInner>) {
    let Some(link) = inner.announcer_mux.lock().clone() else {
        return;
    };
    let answered = ping(inner, &link).is_ok();
    if let Some(a) = inner.announcer_health.lock().as_mut() {
        // No failover target exists for a dead announcer — it holds no
        // outsourced rows; wide queries fail loudly until it returns.
        a.health.observe(answered, &inner.cfg, link.is_dead());
    }
}

// ---------------------------------------------------------------------
// Remote nodes: shard worker + announcer
// ---------------------------------------------------------------------

/// A shard worker attached to a registry by address: holds one row
/// range of a server domain and re-derives it on every
/// [`Message::Assign`]. The handle owns the worker's serving thread;
/// [`ShardWorker::kill`] slams the socket shut (chaos testing — the
/// registry sees a hard death and fails the worker over).
pub struct ShardWorker {
    link: Arc<TcpLink>,
    handle: Option<JoinHandle<Result<(), NetError>>>,
    node: u64,
}

impl ShardWorker {
    /// Dial `addr` (retrying until `timeout`), register as a shard
    /// worker for `domain`, and start serving the assigned row range on
    /// a background thread. `params` is the **full domain's**
    /// [`ServerParams`] — the initiator provisions whole-domain views
    /// and the worker derives its shard view locally on every
    /// assignment (`shard_server_params`).
    pub fn connect(
        params: ServerParams,
        domain: usize,
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<ShardWorker, NetError> {
        ShardWorker::connect_tampered(params, domain, addr, timeout, Tamper::Honest)
    }

    /// [`ShardWorker::connect`] with a tampering behaviour pre-installed
    /// on the worker's node — and re-installed across every rebuild, so
    /// it survives re-assignments. Chaos testing: a corrupt *replica*
    /// must still be caught by verification if a promotion ever makes
    /// it primary; the routers' replica retry fires only on `NodeDown`,
    /// never to paper over a wrong answer.
    pub fn connect_tampered(
        params: ServerParams,
        domain: usize,
        addr: SocketAddr,
        timeout: Duration,
        tamper: Tamper,
    ) -> Result<ShardWorker, NetError> {
        let backoff = Duration::from_millis(10);
        let link = Arc::new(TcpLink::connect_retry(addr, timeout, backoff)?);
        let (node, generation, spec) = register(&link, NodeRole::ShardWorker, domain, params.b)?;
        let serve_link = Arc::clone(&link) as Arc<dyn Link>;
        let handle = std::thread::spawn(move || {
            node_loop(params, serve_link, Some(spec), generation, tamper, None)
        });
        Ok(ShardWorker {
            link,
            handle: Some(handle),
            node,
        })
    }

    /// Registry-assigned node id.
    pub fn node_id(&self) -> u64 {
        self.node
    }

    /// Hard-kill the worker: both socket halves shut, mid-frame. The
    /// registry observes EOF and fails the worker over.
    pub fn kill(&self) {
        self.link.shutdown();
    }

    /// Join the serving thread (clean exit after the cluster's
    /// `Shutdown`; an error after [`ShardWorker::kill`]).
    pub fn join(mut self) -> Result<(), NetError> {
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| NetError::Disconnected)?,
            None => Ok(()),
        }
    }
}

/// The announcer attached to a registry by address: dials three
/// connections — the owner↔announcer control edge plus one upload edge
/// per additive server — registers each, and serves the ordinary
/// `announcer_loop` over them.
pub struct AnnouncerNode {
    link: Arc<TcpLink>,
    handle: Option<JoinHandle<Result<(), NetError>>>,
}

impl AnnouncerNode {
    /// Dial and register all three announcer edges, then serve.
    pub fn connect(
        params: AnnouncerParams,
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<AnnouncerNode, NetError> {
        let backoff = Duration::from_millis(10);
        let ctl = Arc::new(TcpLink::connect_retry(addr, timeout, backoff)?);
        register(&ctl, NodeRole::AnnouncerCtl, 0, 0)?;
        let mut uploads: Vec<Box<dyn Link>> = Vec::with_capacity(ADDITIVE_SERVERS);
        for k in 0..ADDITIVE_SERVERS {
            let l = TcpLink::connect_retry(addr, timeout, backoff)?;
            register(&l, NodeRole::AnnouncerUpload, k, 0)?;
            uploads.push(Box::new(l));
        }
        let serve_ctl = Arc::clone(&ctl) as Arc<dyn Link>;
        let handle = std::thread::spawn(move || announcer_loop(params, serve_ctl, uploads));
        Ok(AnnouncerNode {
            link: ctl,
            handle: Some(handle),
        })
    }

    /// Hard-kill the announcer's control edge (chaos testing).
    pub fn kill(&self) {
        self.link.shutdown();
    }

    /// Join the serving thread.
    pub fn join(mut self) -> Result<(), NetError> {
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| NetError::Disconnected)?,
            None => Ok(()),
        }
    }
}

/// Register one dialed edge under `role` and return what the registry
/// granted: `(node id, assignment generation, provisional row range)`.
fn register(
    link: &TcpLink,
    role: NodeRole,
    domain: usize,
    capacity: usize,
) -> Result<(u64, u64, ShardSpec), NetError> {
    link.send(&Message::Register {
        role,
        domain: domain as u32,
        capacity: capacity as u64,
        generation: 0,
    })?;
    match link.recv()? {
        Message::RegisterAck {
            accepted: true,
            node,
            generation,
            start,
            len,
        } => {
            let spec = ShardSpec {
                index: 0,
                start: start as usize,
                len: len as usize,
            };
            Ok((node, generation, spec))
        }
        Message::RegisterAck {
            accepted: false, ..
        } => Err(NetError::Mux("registration rejected")),
        _ => Err(NetError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_budget_confirms_death_at_the_budget_not_one_past() {
        let cfg = RegistryConfig {
            miss_budget: 3,
            ..RegistryConfig::default()
        };
        // Below the budget: merely suspect.
        assert!(!cfg.confirms_death(1, false));
        assert!(!cfg.confirms_death(2, false));
        // "After miss_budget consecutive misses ... it is confirmed":
        // the third miss kills, not the fourth.
        assert!(cfg.confirms_death(3, false));
        assert!(cfg.confirms_death(4, false));
        // A hard link death (EOF) skips the budget entirely.
        assert!(cfg.confirms_death(0, true));
        assert!(cfg.confirms_death(1, true));
    }

    /// A bound attach endpoint whose domains take `shards × rf` workers
    /// each, and the domain parameters its dialers need.
    fn listener(shards: usize, rf: usize) -> (ClusterListener, ServerParams) {
        use prism_protocol::params::{Initiator, SystemConfig};
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(1))
            .setup()
            .expect("setup");
        let params = setup.servers[0].clone();
        let cfg = RegistryConfig {
            replication: rf,
            ..RegistryConfig::default()
        };
        (
            ClusterListener::bind(setup, shards, cfg).expect("bind"),
            params,
        )
    }

    /// Stop the dispatcher and the attached workers' serving threads.
    fn teardown(listener: ClusterListener, workers: Vec<ShardWorker>) {
        listener.inner.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(listener.inner.addr);
        listener.dispatcher.join().expect("dispatcher exits");
        for w in workers {
            w.kill();
            let _ = w.join();
        }
    }

    fn slot_nodes(listener: &ClusterListener) -> Vec<u64> {
        let st = listener.inner.domains[0].read();
        st.workers.iter().map(|w| w.node).collect()
    }

    #[test]
    fn simultaneous_dials_for_the_last_slot_ack_exactly_one() {
        // Acking before claiming let both dialers of a `target = 1`
        // domain through the check; the loser was acked and never routed.
        for _ in 0..8 {
            let (listener, params) = listener(1, 1);
            let addr = listener.addr();
            let gate = std::sync::Barrier::new(2);
            let dials: Vec<_> = std::thread::scope(|scope| {
                let dial = || {
                    gate.wait();
                    ShardWorker::connect(params.clone(), 0, addr, Duration::from_secs(5))
                };
                let handles = [scope.spawn(dial), scope.spawn(dial)];
                handles.map(|h| h.join().expect("dialer")).into()
            });
            let acked: Vec<ShardWorker> = dials.into_iter().filter_map(Result::ok).collect();
            assert_eq!(acked.len(), 1, "exactly one dial is accepted");
            assert_eq!(slot_nodes(&listener), [acked[0].node_id()]);
            teardown(listener, acked);
        }
    }

    #[test]
    fn slot_order_is_ack_order() {
        // Each dial returns on its ack; the slot must already be claimed
        // by then, or the next dial's handshake thread can overtake it.
        for _ in 0..4 {
            let (listener, params) = listener(2, 2);
            let workers: Vec<ShardWorker> = (0..4)
                .map(|_| {
                    ShardWorker::connect(params.clone(), 0, listener.addr(), Duration::from_secs(5))
                        .expect("a slot is free")
                })
                .collect();
            let acked: Vec<u64> = workers.iter().map(ShardWorker::node_id).collect();
            assert_eq!(slot_nodes(&listener), acked);
            teardown(listener, workers);
        }
    }

    #[test]
    fn a_replacing_upload_supersedes_its_columns_in_the_replay_log() {
        let (listener, _) = listener(1, 1);
        let registry = NodeRegistry {
            inner: Arc::clone(&listener.inner),
            prober: Mutex::new(None),
            dispatcher: Mutex::new(None),
        };
        type Columns = Vec<(Column, Vec<u64>)>;
        let cols =
            |v: u64, cs: &[Column]| -> Columns { cs.iter().map(|&c| (c, vec![v; 8])).collect() };
        // The log as (server, owner, columns) rows.
        let log = || -> Vec<(usize, u32, Columns)> {
            let log = registry.inner.uploads.lock();
            log.iter()
                .map(|r| (r.server, r.owner, r.columns.clone()))
                .collect()
        };
        let column_count = || log().iter().map(|r| r.2.len()).sum::<usize>();
        registry.record_upload(0, 0, &cols(1, &[Column::Ok, Column::VOk]));
        registry.record_upload(0, 1, &cols(2, &[Column::Ok]));
        registry.record_upload(1, 0, &cols(3, &[Column::Ok]));
        assert_eq!(column_count(), 4);
        for k in 0..5 {
            registry.record_upload(0, 0, &cols(10 + k, &[Column::Ok, Column::VOk]));
            assert_eq!(column_count(), 4, "after {} replacing uploads", k + 1);
        }
        // A partial upload takes its column out of the older record; a
        // record left with no column is dropped. Other owners and servers
        // keep theirs.
        registry.record_upload(0, 0, &cols(20, &[Column::Ok]));
        registry.record_upload(0, 0, &cols(21, &[Column::VOk]));
        assert_eq!(
            log(),
            [
                (0, 1, cols(2, &[Column::Ok])),
                (1, 0, cols(3, &[Column::Ok])),
                (0, 0, cols(20, &[Column::Ok])),
                (0, 0, cols(21, &[Column::VOk])),
            ]
        );
        // A delta still extends the one record that holds its column.
        registry.record_delta(0, 0, 8, &cols(7, &[Column::Ok]));
        let mut grown = vec![20; 8];
        grown.extend([7; 8]);
        assert_eq!(log()[2], (0, 0, vec![(Column::Ok, grown)]));
        assert_eq!(column_count(), 4);
        teardown(listener, Vec::new());
    }

    #[test]
    fn a_silent_dialer_is_dropped_after_the_probe_timeout() {
        let (listener, params) = listener(1, 1);
        let bound = listener.inner.cfg.probe_timeout * 4;
        let side = TcpListener::bind("127.0.0.1:0").expect("bind");
        let attach = |stream: TcpStream| {
            let (done, finished) = std::sync::mpsc::channel();
            let inner = Arc::clone(&listener.inner);
            std::thread::spawn(move || {
                handle_attach(&inner, stream);
                let _ = done.send(());
            });
            finished
        };

        // Connects, then says nothing.
        let _silent = TcpStream::connect(side.local_addr().expect("addr")).expect("dial");
        let (accepted, _) = side.accept().expect("accept");
        let finished = attach(accepted);
        assert!(
            finished.recv_timeout(bound).is_ok(),
            "handle_attach still waits on a dialer that never registered"
        );
        assert!(slot_nodes(&listener).is_empty());

        // A dialer that registers gets a link with the deadline lifted (the
        // timeout is the socket's, so a clone of the accepted end sees it).
        let client = TcpStream::connect(side.local_addr().expect("addr")).expect("dial");
        let (accepted, _) = side.accept().expect("accept");
        let server_end = accepted.try_clone().expect("clone");
        let finished = attach(accepted);
        let client = TcpLink::new(client).expect("link");
        register(&client, NodeRole::AnnouncerUpload, 0, 0).expect("registered");
        finished.recv_timeout(bound).expect("handshake done");
        assert_eq!(server_end.read_timeout().expect("timeout"), None);

        // And a real worker still attaches through the dispatcher.
        let worker = ShardWorker::connect(params, 0, listener.addr(), Duration::from_secs(5))
            .expect("a slot is free");
        assert_eq!(slot_nodes(&listener), [worker.node_id()]);
        teardown(listener, vec![worker]);
    }
}
