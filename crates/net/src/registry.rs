//! Cluster control plane: bring-up, remote attach, keep-alive health, and
//! self-healing shard failover.
//!
//! [`ClusterListener::start`] brings up every [`NetCluster`] once its
//! slots — each domain's `crate::router` `DomainState` and the
//! announcer's three edges — are full. A **fixed roster**
//! ([`NetCluster::start_local_sharded`], [`NetCluster::start_tcp_sharded`])
//! spawns and slots every node itself, over channel or loopback TCP links.
//! It opens no attach port, runs no prober and keeps no replay log, so it
//! never heals, no ping crosses a metered edge, and a dead node stays a
//! typed query failure. **Attach** makes the same routing state elastic,
//! under the very same router and node loops:
//!
//! * **Remote attach.** [`ClusterListener`] accepts TCP connections that
//!   open with a [`Message::Register`] naming their role
//!   ([`NodeRole`]): shard workers join a server domain
//!   ([`ShardWorker::connect`]), and the announcer attaches its control
//!   edge plus one upload edge per additive server
//!   ([`AnnouncerNode::connect`]). [`ClusterListener::start`] waits
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
//!   death) it is confirmed [`Liveness::Dead`]. Per-node liveness and
//!   last-seen age are exported through [`NetCluster::report`] as
//!   [`NodeHealth`] rows.
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
//!   holder, the heal is metadata-only — the dead slot goes, the next
//!   holder in attach order is the range's primary, and exactly the
//!   healed domain's cache entries are dirtied. It sends no message and
//!   replays nothing. Only when a range lost its *last* holder does the
//!   registry re-plan the domain over the survivors, push each its new
//!   row range via [`Message::Assign`] (acked, resetting its store), and
//!   **re-outsource** the domain from its summed upload log: each holder
//!   gets one [`Message::Replay`] restoring its range
//!   (the slice of each column's owner sum, every owner's rows and
//!   epoch). Each survivor's monotonic version bumps and the PSI-round
//!   cache invalidates exactly the re-fanned domain (`note_upload`).
//!   Tamper detection survives re-sharding unchanged: the domain-level
//!   tampering behaviour and finish permutations live in the router,
//!   which the failover never touches.
//!
//! **Topology note.** Registry↔worker edges carry only control traffic
//! — registration, pings, assignments, and the replayed *sums* of the
//! shares owners already outsourced to that domain. No plaintext and no
//! cross-server data ever flows here, so the no-server-communication
//! property of §3.2 is preserved: workers of different domains still have
//! no edge to each other.
//!
//! **Acked membership.** A domain's slots are the only truth: every heal
//! message ([`Message::Assign`], [`Message::Replay`]) must be acked within
//! [`RegistryConfig::heal_timeout`], and a worker that misses one is
//! removed before the heal completes. So every member holds the current
//! plan, and nothing is numbered or re-checked afterwards.
//!
//! **Events.** Every attach, heal and confirmed death is logged as a
//! [`ControlEvent`]; [`NodeRegistry::wait_event`] blocks until one
//! arrives, so a caller waits on the control plane, not on the clock.

use crate::cluster::{announcer_loop, EdgeMeters, NetCluster};
use crate::mux::MuxLink;
use crate::router::{admit, domain_loop, node_loop, DomainState, WorkerSlot};
use crate::transport::{channel_pair, Link, LinkStats, NetError, TcpLink};
use crate::wire::{Edges, Message, NodeRole};
use parking_lot::{Mutex, RwLock};
use prism_protocol::cache::PsiRoundCache;
use prism_protocol::engine::ReplayLog;
use prism_protocol::malicious::Tamper;
use prism_protocol::metrics::{Counter, Metrics};
use prism_protocol::params::{AnnouncerParams, ServerParams, Setup, ADDITIVE_SERVERS};
use prism_protocol::shard::{ShardPlan, ShardSpec};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
}

impl std::fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (node {}): {} last_seen={:?} ago",
            self.label, self.node, self.liveness, self.last_seen
        )
    }
}

/// What the control plane did: one event per attach, heal, heal-time
/// casualty and confirmed announcer death, its log line as `Display`.
/// [`NodeRegistry::events`] keeps the newest [`CONTROL_EVENTS`], each with
/// its sequence number, and [`NodeRegistry::wait_event`] waits for one.
/// Worker `(domain, worker)` is node `worker`, labelled `d{domain}/w{worker}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEvent {
    /// `(domain, worker, workers)`: a shard worker attached and its domain
    /// re-fanned over `workers` workers.
    Attached(usize, u64, usize),
    /// `(node)`: the announcer on node `node` was confirmed dead. Nothing
    /// heals it: wide rounds fail until a replacement reconnects.
    AnnouncerDown(u64),
    /// `(node)`: a replacement announcer's control edge swapped in.
    AnnouncerReconnected(u64),
    /// `(server)`: a replacement announcer's upload edge from additive
    /// server `server` swapped in.
    UploadReconnected(usize),
    /// `(domain)`: a re-fan found no worker left.
    DomainOffline(usize),
    /// `(domain, worker)`: a worker failed to ack a heal's message and
    /// was removed.
    HealCasualty(usize, u64),
    /// `(domain, worker, promoted, survivors)`: a worker was confirmed
    /// dead and its domain healed, by promoting replicas if `promoted` or
    /// else by replay, leaving `survivors` workers.
    Failover(usize, u64, bool, usize),
}

impl std::fmt::Display for ControlEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ControlEvent::*;
        match *self {
            Attached(d, w, n) => write!(
                f,
                "domain {d}: worker d{d}/w{w} attached; re-fanned over {n} worker(s)"
            ),
            AnnouncerDown(node) => write!(
                f,
                "announcer: node {node} confirmed dead; wide rounds fail until it reconnects"
            ),
            AnnouncerReconnected(node) => write!(
                f,
                "announcer: control edge reconnected as node {node}; wide rounds resumed"
            ),
            UploadReconnected(k) => write!(f, "announcer: upload edge {k} reconnected"),
            DomainOffline(d) => write!(f, "domain {d}: no surviving workers — domain offline"),
            HealCasualty(d, w) => {
                write!(f, "domain {d}: worker d{d}/w{w} failed mid-heal; removed")
            }
            Failover(d, w, promoted, n) => {
                let heal = if promoted {
                    "promoted surviving replica(s), zero replay"
                } else {
                    "re-fanned the upload log"
                };
                write!(
                    f,
                    "domain {d}: worker d{d}/w{w} confirmed dead; {heal} over {n} survivor(s)"
                )
            }
        }
    }
}

/// The most [`ControlEvent`]s a registry keeps; older ones are dropped.
pub const CONTROL_EVENTS: usize = 256;

/// Log `event` in `ring`, numbered one past the newest, dropping the
/// oldest past [`CONTROL_EVENTS`].
fn push_event(ring: &mut VecDeque<(u64, ControlEvent)>, event: ControlEvent) {
    let seq = ring.back().map_or(0, |(seq, _)| seq + 1);
    if ring.len() == CONTROL_EVENTS {
        ring.pop_front();
    }
    ring.push_back((seq, event));
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
    /// Set by [`NetCluster::enable_cache`]; failovers dirty the healed
    /// domain here so warm entries cannot survive a re-fan.
    cache: Mutex<Option<Arc<PsiRoundCache>>>,
    /// The event ring, and the condvar every logged event wakes
    /// ([`NodeRegistry::wait_event`]); a std pair, like `attached`.
    events: std::sync::Mutex<VecDeque<(u64, ControlEvent)>>,
    logged: std::sync::Condvar,
    /// Dead nodes kept for reporting after their slot is removed.
    graveyard: Mutex<Vec<NodeHealth>>,
    /// The deployment's one cumulative store: heals count here, and so do
    /// the owner-side multiplexers, the cluster's rounds and its cache.
    metrics: Arc<Metrics>,
    next_node: AtomicU64,
    /// Control-plane correlation ids (pings, assigns, replays) live in
    /// `[2^62, 2^63)`: disjoint from owner query ids (from 0) and
    /// router-local ids (from `2^63`), so all three can share the
    /// worker links' multiplexers.
    corr: AtomicU64,
    stop: AtomicBool,
    /// Attach handshakes in flight ([`Handshake`]).
    handshakes: AtomicUsize,
    /// [`ClusterListener::start`] waits on `attached` (a std pair, like
    /// [`SwapLink`]'s) for the slots to fill; each attach notifies it.
    attach_lock: std::sync::Mutex<()>,
    attached: std::sync::Condvar,
    // Announcer slots (filled by an attach or a fixed roster, consumed by
    // `start`, probed afterwards).
    announcer_ctl: Mutex<Option<Arc<dyn Link>>>,
    announcer_uploads: Mutex<Vec<Option<Arc<dyn Link>>>>,
    announcer_health: Mutex<Option<AnnouncerHealth>>,
    /// Live announcer edges once an attached cluster is running: the
    /// control edge plus one upload edge per additive server, each behind
    /// a [`SwapLink`] so a reconnecting announcer heals in place.
    announcer_swaps: Mutex<Option<AnnouncerSwaps>>,
}

/// The announcer's swappable edges: `(control, per-additive-server
/// uploads)`.
type AnnouncerSwaps = (Arc<SwapLink>, Vec<Arc<SwapLink>>);

/// A [`Link`] whose underlying edge can be swapped for a fresh one
/// mid-life: `recv` on a dead edge *parks* (instead of surfacing the
/// error) until a replacement is swapped in, then resumes on it — so the
/// multiplexer pump and the domain routers holding this link never
/// observe the death, and a reconnected announcer resumes exactly where
/// the old one left the protocol. Attached clusters only.
pub(crate) struct SwapLink {
    /// (swap generation, current edge) — std mutex/condvar pair so a
    /// parked `recv` can wait for the swap.
    inner: std::sync::Mutex<(u64, Arc<dyn Link>)>,
    swapped: std::sync::Condvar,
    stopped: AtomicBool,
}

impl SwapLink {
    fn new(link: Arc<dyn Link>) -> Arc<SwapLink> {
        Arc::new(SwapLink {
            inner: std::sync::Mutex::new((0, link)),
            swapped: std::sync::Condvar::new(),
            stopped: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, Arc<dyn Link>)> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn current(&self) -> (u64, Arc<dyn Link>) {
        let g = self.lock();
        (g.0, Arc::clone(&g.1))
    }

    /// Install a replacement edge and wake every parked `recv`.
    fn swap(&self, link: Arc<dyn Link>) {
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
    fn send_owned(&self, msg: Message) -> Result<(), NetError> {
        self.current().1.send_owned(msg)
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

    fn ring(&self) -> std::sync::MutexGuard<'_, VecDeque<(u64, ControlEvent)>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn log(&self, event: ControlEvent) {
        push_event(&mut self.ring(), event);
        self.logged.notify_all();
    }

    /// Wake a `start` waiting for the slots (called with no lock held).
    fn note_attach(&self) {
        let _held = self.attach_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.attached.notify_all();
    }

    /// Wait until every domain has its target worker count and the
    /// announcer's three edges are slotted, or time out at `deadline`.
    fn await_complete(&self, deadline: Instant) -> Result<(), NetError> {
        let full = |d: &Arc<RwLock<DomainState>>| {
            let st = d.read();
            st.workers.len() >= st.target
        };
        let mut waiting = self.attach_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !(self.domains.iter().all(full)
            && self.announcer_ctl.lock().is_some()
            && self.announcer_uploads.lock().iter().all(Option::is_some))
        {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            let woken = self.attached.wait_timeout(waiting, left);
            waiting = woken.unwrap_or_else(|e| e.into_inner()).0;
        }
        Ok(())
    }
}

/// Public handle to the control plane, carried by every [`NetCluster`]
/// (see [`NetCluster::registry`]); idle on a fixed roster.
pub struct NodeRegistry {
    inner: Arc<RegistryInner>,
    prober: Mutex<Option<JoinHandle<()>>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl NodeRegistry {
    /// Address workers and the announcer dial to attach. A fixed roster
    /// opens no attach port: its address is the unspecified `0.0.0.0:0`.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The deployment's cumulative [`Metrics`]: every [`Counter`] the
    /// cluster, its cache, its multiplexers and this control plane keep.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Shard-worker failovers healed so far (promotions included).
    pub fn failovers(&self) -> u64 {
        self.inner.metrics.get(Counter::Failovers)
    }

    /// Heals that completed as metadata-only replica promotions: the
    /// dead worker's every range had a surviving holder, so no upload
    /// was replayed.
    pub fn promotions(&self) -> u64 {
        self.inner.metrics.get(Counter::Promotions)
    }

    /// Summed upload-log records replayed across all heals so far: the
    /// log keeps one record per domain (each column's sum and every
    /// owner's rows and epoch), so each replay heal adds exactly one,
    /// whatever the owner count. With a replication factor ≥ 2 a single
    /// worker death heals by promotion and this stays exactly where it
    /// was.
    pub fn replayed_records(&self) -> u64 {
        self.inner.metrics.get(Counter::ReplayedRecords)
    }

    /// The newest [`CONTROL_EVENTS`] control events, oldest first, each
    /// with its sequence number.
    pub fn events(&self) -> Vec<(u64, ControlEvent)> {
        self.inner.ring().iter().cloned().collect()
    }

    /// Block until the ring holds an event `want` accepts and return the
    /// oldest one, with its sequence number: one already logged, or the
    /// first logged while waiting (every logged event wakes the wait).
    /// `None` once `timeout` passes without one.
    ///
    /// A heal's counters ([`NodeRegistry::failovers`],
    /// [`NodeRegistry::promotions`], [`NodeRegistry::replayed_records`])
    /// and its cache invalidation move before its event is logged, so they
    /// already count that heal when its event is returned.
    pub fn wait_event(
        &self,
        timeout: Duration,
        mut want: impl FnMut(&ControlEvent) -> bool,
    ) -> Option<(u64, ControlEvent)> {
        let deadline = Instant::now() + timeout;
        let mut ring = self.inner.ring();
        // Events numbered below `unseen` were already offered to `want`.
        let mut unseen = 0;
        loop {
            if let Some(hit) = ring.iter().find(|(seq, e)| *seq >= unseen && want(e)) {
                return Some(hit.clone());
            }
            unseen = ring.back().map_or(0, |(seq, _)| seq + 1);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let woken = self.inner.logged.wait_timeout(ring, left);
            ring = woken.unwrap_or_else(|e| e.into_inner()).0;
        }
    }

    /// Per-node liveness snapshot (live workers, dead nodes kept for the
    /// record, and the announcer); empty where no prober watches them.
    pub(crate) fn node_health(&self) -> Vec<NodeHealth> {
        let mut out = Vec::new();
        if self.prober.lock().is_none() {
            return out;
        }
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
            });
        }
        out
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
        if let Some(h) = self.dispatcher.lock().take() {
            // Wake the dispatcher out of `accept` with a throwaway dial.
            let _ = TcpStream::connect(self.inner.addr);
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
// Bring-up: attach listener or fixed roster → cluster
// ---------------------------------------------------------------------

/// Makes one connected pair of link ends per topology edge.
pub(crate) type PairFactory = fn() -> io::Result<(Box<dyn Link>, Box<dyn Link>)>;

/// In-process channel pairs.
pub(crate) fn channel_links() -> io::Result<(Box<dyn Link>, Box<dyn Link>)> {
    let (a, b) = channel_pair();
    Ok((Box::new(a), Box::new(b)))
}

/// Loopback TCP pairs.
pub(crate) fn tcp_links() -> io::Result<(Box<dyn Link>, Box<dyn Link>)> {
    let (a, b) = TcpLink::loopback_pair()?;
    Ok((Box::new(a), Box::new(b)))
}

/// A cluster's slots and the one way to start it
/// ([`ClusterListener::start`]). Bound, workers and the announcer dial
/// its [`ClusterListener::addr`] to attach; as a fixed roster
/// (`NetCluster::start_*`) it spawns and slots every node itself.
pub struct ClusterListener {
    setup: Setup,
    inner: Arc<RegistryInner>,
    /// Accepts attach dials; a fixed roster opens no attach port.
    dispatcher: Option<JoinHandle<()>>,
    /// Makes the owner↔router links (channels when bound).
    pair: PairFactory,
    /// A fixed roster's node threads and node-edge meters.
    handles: Vec<JoinHandle<Result<(), NetError>>>,
    meters: EdgeMeters,
}

impl ClusterListener {
    /// Empty slots: `shards` row ranges per domain, each stored
    /// [`RegistryConfig::replication`] times.
    fn empty(
        setup: Setup,
        shards: usize,
        cfg: RegistryConfig,
        addr: SocketAddr,
        pair: PairFactory,
    ) -> ClusterListener {
        let rf = cfg.replication.max(1);
        let domain = |p: &ServerParams| DomainState::new(p.clone(), shards, rf);
        let domains = setup
            .servers
            .iter()
            .map(|p| Arc::new(RwLock::new(domain(p))));
        let inner = RegistryInner {
            cfg,
            addr,
            domains: domains.collect(),
            cache: Mutex::new(None),
            events: std::sync::Mutex::default(),
            logged: std::sync::Condvar::new(),
            graveyard: Mutex::new(Vec::new()),
            metrics: Arc::default(),
            next_node: AtomicU64::new(0),
            corr: AtomicU64::new(1 << 62),
            stop: AtomicBool::new(false),
            handshakes: AtomicUsize::new(0),
            attach_lock: std::sync::Mutex::new(()),
            attached: std::sync::Condvar::new(),
            announcer_ctl: Mutex::new(None),
            announcer_uploads: Mutex::new(vec![None; ADDITIVE_SERVERS]),
            announcer_health: Mutex::new(None),
            announcer_swaps: Mutex::new(None),
        };
        let n = inner.domains.len();
        let meters = EdgeMeters {
            from_servers: vec![Arc::default(); n],
            to_shards: vec![Vec::new(); n],
            from_shards: vec![Vec::new(); n],
            ..EdgeMeters::default()
        };
        ClusterListener {
            setup,
            inner: Arc::new(inner),
            dispatcher: None,
            pair,
            handles: Vec::new(),
            meters,
        }
    }

    /// Bind the attach endpoint on an ephemeral loopback port and start
    /// accepting registrations immediately (workers may dial before or
    /// after [`ClusterListener::start`] is called — bring-up is racy by
    /// nature and both orders must work). `shards` is each domain's
    /// *row-range* target; the worker target is `shards ×`
    /// [`RegistryConfig::replication`].
    pub fn bind(setup: Setup, shards: usize, cfg: RegistryConfig) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut this = ClusterListener::empty(setup, shards, cfg, addr, channel_links);
        for domain in &this.inner.domains {
            let mut st = domain.write();
            st.log = Some(ReplayLog::new(st.domain.params()));
        }
        let inner = Arc::clone(&this.inner);
        this.dispatcher = Some(std::thread::spawn(move || dispatcher_loop(inner, listener)));
        Ok(this)
    }

    /// A fixed roster of `shards` row ranges per domain at rf 1, every node
    /// spawned here over links from `pair` and slotted the way an attach
    /// does. A `DomainState::routerless` domain gets one whole-domain node
    /// holding the announcer edge (additive domains only have one).
    pub(crate) fn fixed(setup: Setup, shards: usize, pair: PairFactory) -> io::Result<Self> {
        let unbound = SocketAddr::from(([0, 0, 0, 0], 0));
        let mut this =
            ClusterListener::empty(setup, shards, RegistryConfig::default(), unbound, pair);
        let inner = Arc::clone(&this.inner);
        let mut announcer_ends = Vec::with_capacity(ADDITIVE_SERVERS);
        for slot in inner.announcer_uploads.lock().iter_mut() {
            let (server_end, announcer_end) = pair()?;
            *slot = Some(Arc::from(server_end));
            announcer_ends.push(announcer_end);
        }
        for (d, shared) in inner.domains.iter().enumerate() {
            let (specs, routerless) = {
                let st = shared.read();
                (st.domain.plan().specs().to_vec(), st.routerless())
            };
            let announcer = inner.announcer_uploads.lock().get(d).cloned().flatten();
            for spec in specs {
                let (router_side, worker_side) = pair()?;
                let meters = &mut this.meters;
                let (range, front) = if routerless {
                    // The node's edge is the domain's owner edge.
                    meters.from_servers[d] = worker_side.stats();
                    (None, announcer.clone())
                } else {
                    meters.to_shards[d].push(router_side.stats());
                    meters.from_shards[d].push(worker_side.stats());
                    (Some(spec), None)
                };
                let (params, link) = (this.setup.servers[d].clone(), Arc::from(worker_side));
                let node = spawn_node(params, link, range, Tamper::Honest, front);
                this.handles.push(node);
                let slotted = take_slot(&inner, d, Arc::from(router_side), spec.index, |_, _| true);
                slotted.expect("a fixed roster has a slot for every range");
            }
        }
        let (owner_end, announcer_end) = pair()?;
        this.meters.from_announcer = announcer_end.stats();
        *inner.announcer_ctl.lock() = Some(Arc::from(owner_end));
        let params = this.setup.announcer.clone();
        let announcer = spawn_announcer(params, Arc::from(announcer_end), announcer_ends);
        this.handles.push(announcer);
        Ok(this)
    }

    /// The attach address to hand to [`ShardWorker::connect`] and
    /// [`AnnouncerNode::connect`].
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Wait until every slot is full (a fixed roster's are at once), or
    /// [`RegistryConfig::attach_timeout`] expires; then assemble the
    /// [`NetCluster`]: per domain a router thread reading its shard fan-out
    /// from the registry, or the one node of a domain that needs none, and
    /// when bound the keep-alive prober.
    pub fn start(mut self) -> Result<NetCluster, NetError> {
        let inner = Arc::clone(&self.inner);
        inner.await_complete(Instant::now() + inner.cfg.attach_timeout)?;

        let elastic = self.dispatcher.is_some();
        let complete = "the slots are complete";
        let mut ctl = inner.announcer_ctl.lock().take().expect(complete);
        let mut uploads: Vec<Arc<dyn Link>> = std::mem::take(&mut *inner.announcer_uploads.lock())
            .into_iter()
            .map(|s| s.expect(complete))
            .collect();
        if elastic {
            // Every announcer edge goes behind a SwapLink: a replacement
            // announcer's fresh edges swap in place, and the routers and
            // the control-link multiplexer resume without reconstruction.
            let swaps: Vec<Arc<SwapLink>> = uploads.into_iter().map(SwapLink::new).collect();
            uploads = swaps.iter().map(|s| Arc::clone(s) as _).collect();
            let ctl_swap = SwapLink::new(ctl);
            ctl = Arc::clone(&ctl_swap) as _;
            *inner.announcer_swaps.lock() = Some((ctl_swap, swaps));
        }
        let meters = &mut self.meters;
        meters.server_to_announcer = uploads.iter().map(|end| end.stats()).collect();

        let mut links = Vec::new();
        for (k, shared) in inner.domains.iter().enumerate() {
            let st = shared.read();
            if st.routerless() {
                links.push(Arc::clone(&st.workers[0].link));
                continue;
            }
            drop(st);
            let (owner_end, server_end) = (self.pair)()?;
            meters.from_servers[k] = server_end.stats();
            let (shared, announcer) = (Arc::clone(shared), uploads.get(k).cloned());
            self.handles.push(std::thread::spawn(move || {
                domain_loop(Arc::from(server_end), shared, announcer)
            }));
            let metrics = Arc::clone(&inner.metrics);
            links.push(MuxLink::counted(Arc::from(owner_end), None, metrics));
        }

        let label = Some("announcer".into());
        let announcer_link = MuxLink::counted(ctl, label, Arc::clone(&inner.metrics));
        let prober = elastic.then(|| {
            let (inner, announcer) = (Arc::clone(&inner), Arc::clone(&announcer_link));
            std::thread::spawn(move || prober_loop(inner, announcer))
        });
        let shards = inner
            .domains
            .iter()
            .map(|d| d.read().domain.plan().shard_count());
        let shards = shards.max().unwrap_or(1);
        let registry = NodeRegistry {
            inner,
            prober: Mutex::new(prober),
            dispatcher: Mutex::new(self.dispatcher),
        };
        Ok(NetCluster::assemble(
            self.setup,
            links,
            announcer_link,
            self.handles,
            self.meters,
            shards,
            registry,
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
        // cannot block every other attach — at most `MAX_HANDSHAKES` of
        // them: past the cap, `stream` drops here and the dial is closed
        // unanswered.
        let Some(place) = Handshake::begin(&inner) else {
            continue;
        };
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || handle_attach(&inner, stream, place));
    }
}

/// Attach handshakes in flight at once. A flood of dials that never
/// register pins at most this many threads, each for at most
/// `probe_timeout`.
const MAX_HANDSHAKES: usize = 16;

/// One attach handshake's place under [`MAX_HANDSHAKES`], given back when
/// dropped.
struct Handshake(Arc<RegistryInner>);

impl Handshake {
    /// A place for one more handshake, or `None` at the cap.
    fn begin(inner: &Arc<RegistryInner>) -> Option<Handshake> {
        let before = inner.handshakes.fetch_add(1, Ordering::AcqRel);
        let place = Handshake(Arc::clone(inner));
        (before < MAX_HANDSHAKES).then_some(place)
    }
}

impl Drop for Handshake {
    fn drop(&mut self) {
        self.0.handshakes.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Answer a registration: `Some(node)` accepts it under that id (with a
/// provisional row range of `len` rows from 0 for a shard worker, empty
/// otherwise), `None` rejects it. Returns whether the ack went out.
fn register_ack(link: &TcpLink, node: Option<u64>, len: usize) -> bool {
    let ack = Message::RegisterAck {
        accepted: node.is_some(),
        node: node.unwrap_or(0),
        start: 0,
        len: len as u64,
    };
    link.send_owned(ack).is_ok()
}

fn reject(link: &TcpLink) {
    register_ack(link, None, 0);
}

/// The one way a shard worker, attached or spawned, enters domain `d`: the
/// next free slot, holding plan range `range`. Returns its node id, or
/// `None` for a full domain or when `admit(node, state)` (an attach's ack)
/// fails. One write lock covers both, so concurrent dials cannot both take
/// the last slot, slot order is ack order, and nothing sees an unacked link.
fn take_slot(
    inner: &RegistryInner,
    d: usize,
    link: Arc<dyn Link>,
    range: usize,
    admit: impl FnOnce(u64, &DomainState) -> bool,
) -> Option<u64> {
    let mut st = inner.domains.get(d)?.write();
    if st.workers.len() >= st.target {
        return None;
    }
    let node = inner.next_node.fetch_add(1, Ordering::Relaxed);
    if !admit(node, &st) {
        return None;
    }
    let label = format!("d{d}/w{node}");
    // A router-less domain's one node link is the owner link.
    let metrics = st.routerless().then(|| Arc::clone(&inner.metrics));
    st.workers
        .push(WorkerSlot::new(node, label, link, range, metrics));
    Some(node)
}

fn handle_attach(inner: &Arc<RegistryInner>, stream: TcpStream, place: Handshake) {
    let link = match TcpLink::new(stream) {
        Ok(l) => Arc::new(l),
        Err(_) => return,
    };
    // Declared after `link`, so it drops first: the place is free again
    // before a dialer sent away sees its socket close.
    let _place = place;
    // The Register frame is due within one probe timeout, so a dialer that
    // connects and stays silent cannot pin this thread. The deadline is
    // lifted before the link can reach a worker slot or an announcer pump,
    // which block on it by design.
    let deadline = inner.cfg.probe_timeout;
    if link.set_read_timeout(Some(deadline)).is_err() {
        return;
    }
    // Anything but a registration is refused (if tagged) and the link
    // closed; a failed read includes the stop()-wake dummy dial.
    let first = link.recv();
    let Ok(Some((_, Message::Register { role, domain }))) =
        first.and_then(|msg| admit(link.as_ref(), Edges::TO_REGISTRY, msg))
    else {
        return;
    };
    if link.set_read_timeout(None).is_err() {
        return;
    }
    let d = domain as usize;
    let fresh_node = || inner.next_node.fetch_add(1, Ordering::Relaxed);
    match role {
        NodeRole::ShardWorker => {
            // Ack with a provisional whole-domain range as the slot is
            // taken; the re-fan below assigns the real range before any
            // query can route here.
            let ack =
                |node, st: &DomainState| register_ack(&link, Some(node), st.domain.params().b);
            let Some(worker) = take_slot(inner, d, Arc::clone(&link) as _, 0, ack) else {
                // A full domain (or an ack that could not be sent).
                return reject(&link);
            };
            let workers = refan(inner, d);
            inner.log(ControlEvent::Attached(d, worker, workers));
            inner.note_attach();
        }
        NodeRole::AnnouncerCtl => {
            // Once the cluster runs (swap links exist), only a
            // *confirmed-dead* announcer may be replaced — a live one
            // re-registering is an impostor. Before, the slot must be free.
            let swap = inner.announcer_swaps.lock().clone().map(|s| s.0);
            let dead = |a: &AnnouncerHealth| a.health.liveness == Liveness::Dead;
            let mut slot = inner.announcer_ctl.lock();
            let free = match swap {
                Some(_) => inner.announcer_health.lock().as_ref().is_some_and(dead),
                None => slot.is_none(),
            };
            if !free {
                drop(slot);
                return reject(&link);
            }
            let node = fresh_node();
            if !register_ack(&link, Some(node), 0) {
                return;
            }
            let reconnected = swap.is_some();
            match swap {
                Some(ctl_swap) => ctl_swap.swap(link),
                None => *slot = Some(link),
            }
            // Alive before the event is logged, so a caller woken by it
            // reads the replacement on the roster.
            let health = Health::alive();
            *inner.announcer_health.lock() = Some(AnnouncerHealth { node, health });
            drop(slot);
            if reconnected {
                inner.log(ControlEvent::AnnouncerReconnected(node));
            }
            inner.note_attach();
        }
        NodeRole::AnnouncerUpload => {
            // Reconnect path: a healing announcer re-dials its upload
            // edges right after its control edge (which flipped health
            // back to Alive), so gate on the swap links existing rather
            // than on liveness.
            let swaps = inner.announcer_swaps.lock().clone().map(|s| s.1);
            if let Some(up_swap) = swaps.and_then(|ups| ups.get(d).cloned()) {
                if register_ack(&link, Some(fresh_node()), 0) {
                    up_swap.swap(link);
                    inner.log(ControlEvent::UploadReconnected(d));
                }
                return;
            }
            let mut slots = inner.announcer_uploads.lock();
            match slots.get_mut(d) {
                Some(slot @ None) => {
                    if register_ack(&link, Some(fresh_node()), 0) {
                        *slot = Some(link);
                        drop(slots);
                        inner.note_attach();
                    }
                }
                Some(Some(_)) | None => {
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

/// Re-fan domain `d` over its current workers: re-plan (carving
/// [`ShardPlan::ranges_for`] ranges so every range keeps `rf` holders),
/// push every worker its row range, and replay the domain's upload log
/// sliced under the new plan. Holds the domain write lock throughout —
/// the heal barrier: no query round can interleave with a half-replayed
/// store. A worker that fails mid-heal is removed and the heal restarts
/// over the remainder. Returns the surviving worker count (0 = domain
/// offline).
fn refan(inner: &Arc<RegistryInner>, d: usize) -> usize {
    let shared = &inner.domains[d];
    let mut st = shared.write();
    loop {
        if st.workers.is_empty() {
            inner.log(ControlEvent::DomainOffline(d));
            return 0;
        }
        let ranges = ShardPlan::ranges_for(st.workers.len(), st.rf, st.domain.params().b);
        st.domain.replan(ranges);
        for (r, holders) in (st.domain.plan().replica_sets(st.workers.len()).iter()).enumerate() {
            for &w in holders {
                st.workers[w].range = r;
            }
        }
        match assign_and_replay(inner, &st) {
            Ok(()) => break,
            Err(bad) => {
                let casualty = st.workers.remove(bad);
                bury(inner, &casualty);
                inner.log(ControlEvent::HealCasualty(d, casualty.node));
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

/// Metadata-only heal of domain `d`, which sends no message: if every
/// range of the *current* plan still has a live holder, no row range was
/// lost with the casualty, and the next holder of each range in attach
/// order is already its primary — the routers read it from the slots.
/// Dirties exactly this domain's cache entries so warm rounds revalidate
/// against the promoted primaries, and counts the promotion. Returns
/// `false` when a range lost its last holder — the caller falls back to
/// the replay heal.
fn promote(inner: &Arc<RegistryInner>, d: usize) -> bool {
    if !inner.domains[d].read().covered() {
        return false;
    }
    // Nothing was replayed, but the primary of the healed range changed:
    // dirty the domain so warm entries re-probe (and revive if the
    // promoted holder reports the stamps they were cut against).
    if let Some(cache) = inner.cache.lock().as_ref() {
        cache.note_upload(d);
    }
    inner.metrics.add(Counter::Promotions, 1);
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
        let msg = mk(&st.domain.plan().specs()[slot.range]);
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

/// Push the current plan's ranges to every worker (acked), each resetting
/// its store, then restore the domain's summed log cut under the new plan
/// into the empty stores: every holder of a range receives one
/// [`Message::Replay`] carrying its range's slice of each column's sum
/// and every owner's rows and epoch. `Err(i)` names the worker index that
/// failed. A log that holds nothing yet (an attach during bring-up)
/// restores nothing.
fn assign_and_replay(inner: &Arc<RegistryInner>, st: &DomainState) -> Result<(), usize> {
    heal_fan(inner, st, |spec| Message::Assign {
        start: spec.start as u64,
        len: spec.len as u64,
    })?;
    let Some(log) = st.log.as_ref().filter(|log| log.resident_cells() > 0) else {
        return Ok(());
    };
    heal_fan(inner, st, |spec| Message::Replay {
        columns: log.cut(spec.start, spec.len),
    })?;
    inner.metrics.add(Counter::ReplayedRecords, 1);
    Ok(())
}

fn worker_health(w: &WorkerSlot) -> NodeHealth {
    NodeHealth {
        node: w.node,
        label: w.label.clone(),
        liveness: w.health.liveness,
        last_seen: w.health.last_seen.elapsed(),
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
    inner.metrics.add(Counter::Failovers, 1);
    let healed = ControlEvent::Failover(d, casualty.node, promoted, survivors);
    inner.log(healed);
}

// ---------------------------------------------------------------------
// Prober: keep-alive loop
// ---------------------------------------------------------------------

/// Ping every worker and the announcer (over its control link
/// `announcer`) each probe interval until stopped; fail over every worker
/// whose death is confirmed.
fn prober_loop(inner: Arc<RegistryInner>, announcer: Arc<MuxLink>) {
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(inner.cfg.probe_interval);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        for d in 0..inner.domains.len() {
            // Snapshot outside the lock: a probe waits up to
            // probe_timeout and must not block routing or heals.
            let probes: Vec<(u64, Arc<MuxLink>)> = {
                let st = inner.domains[d].read();
                let probe = |w: &WorkerSlot| (w.node, Arc::clone(&w.link));
                st.workers.iter().map(probe).collect()
            };
            for (node, link) in probes {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let answered = ping(&inner, &link).is_ok();
                let confirmed_dead = {
                    let mut st = inner.domains[d].write();
                    let slot = st.workers.iter_mut().find(|w| w.node == node);
                    slot.is_some_and(|w| w.health.observe(answered, &inner.cfg, link.is_dead()))
                };
                if confirmed_dead {
                    failover(&inner, d, node);
                }
            }
        }
        let answered = ping(&inner, &announcer).is_ok();
        if let Some(a) = inner.announcer_health.lock().as_mut() {
            // No failover target exists for a dead announcer — it holds no
            // outsourced rows; wide queries fail loudly until it returns.
            let was_dead = a.health.liveness == Liveness::Dead;
            if a.health.observe(answered, &inner.cfg, announcer.is_dead()) && !was_dead {
                inner.log(ControlEvent::AnnouncerDown(a.node));
            }
        }
    }
}

/// One ping round-trip, answered within the probe timeout.
fn ping(inner: &Arc<RegistryInner>, link: &Arc<MuxLink>) -> Result<(), NetError> {
    let seq = inner.fresh_corr();
    let pending = link.begin(seq)?;
    link.send(seq, Message::Ping { seq })?;
    match pending.recv_timeout(inner.cfg.probe_timeout)? {
        Message::Pong { seq: echoed } if echoed == seq => Ok(()),
        _ => Err(NetError::Mux("mismatched pong")),
    }
}

// ---------------------------------------------------------------------
// Nodes: shard worker + announcer, spawned locally or dialed in
// ---------------------------------------------------------------------

/// Serve an engine node (`node_loop`) on a thread of its own: the one
/// place a node starts, whether a fixed roster spawns it or it dials in
/// as a [`ShardWorker`].
fn spawn_node(
    params: ServerParams,
    link: Arc<dyn Link>,
    range: Option<ShardSpec>,
    tamper: Tamper,
    announcer: Option<Arc<dyn Link>>,
) -> JoinHandle<Result<(), NetError>> {
    std::thread::spawn(move || node_loop(params, link, range, tamper, announcer))
}

/// Serve the announcer (`announcer_loop`) on a thread of its own: the one
/// place it starts, for a fixed roster and for an [`AnnouncerNode`].
fn spawn_announcer(
    params: AnnouncerParams,
    ctl: Arc<dyn Link>,
    uploads: Vec<Box<dyn Link>>,
) -> JoinHandle<Result<(), NetError>> {
    std::thread::spawn(move || announcer_loop(params, ctl, uploads))
}

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
        let (node, spec) = register(&link, NodeRole::ShardWorker, domain)?;
        let serve_link = Arc::clone(&link) as Arc<dyn Link>;
        let handle = spawn_node(params, serve_link, Some(spec), tamper, None);
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
        register(&ctl, NodeRole::AnnouncerCtl, 0)?;
        let mut uploads: Vec<Box<dyn Link>> = Vec::with_capacity(ADDITIVE_SERVERS);
        for k in 0..ADDITIVE_SERVERS {
            let l = TcpLink::connect_retry(addr, timeout, backoff)?;
            register(&l, NodeRole::AnnouncerUpload, k)?;
            uploads.push(Box::new(l));
        }
        let serve_ctl = Arc::clone(&ctl) as Arc<dyn Link>;
        let handle = spawn_announcer(params, serve_ctl, uploads);
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
/// granted: `(node id, provisional row range)`.
fn register(link: &TcpLink, role: NodeRole, domain: usize) -> Result<(u64, ShardSpec), NetError> {
    let domain = domain as u32;
    link.send_owned(Message::Register { role, domain })?;
    match link.recv()? {
        Message::RegisterAck {
            accepted: true,
            node,
            start,
            len,
        } => {
            let spec = ShardSpec {
                index: 0,
                start: start as usize,
                len: len as usize,
            };
            Ok((node, spec))
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
    use crate::wire::Column;

    #[test]
    fn a_full_event_ring_keeps_the_newest_with_contiguous_numbers() {
        let mut ring = VecDeque::new();
        let total = CONTROL_EVENTS as u64 + 10;
        for node in 0..total {
            push_event(&mut ring, ControlEvent::AnnouncerReconnected(node));
        }
        assert_eq!(ring.len(), CONTROL_EVENTS);
        let first = total - CONTROL_EVENTS as u64;
        for (i, (seq, event)) in ring.iter().enumerate() {
            let n = first + i as u64;
            assert_eq!((*seq, event), (n, &ControlEvent::AnnouncerReconnected(n)));
        }
    }

    /// Each event prints the line the string heal log pushed for it.
    #[test]
    fn control_events_print_the_heal_log_lines() {
        use ControlEvent::*;
        let golden = [
            (
                Attached(1, 7, 3),
                "domain 1: worker d1/w7 attached; re-fanned over 3 worker(s)",
            ),
            (
                AnnouncerReconnected(9),
                "announcer: control edge reconnected as node 9; wide rounds resumed",
            ),
            (UploadReconnected(1), "announcer: upload edge 1 reconnected"),
            (
                DomainOffline(2),
                "domain 2: no surviving workers — domain offline",
            ),
            (
                HealCasualty(0, 4),
                "domain 0: worker d0/w4 failed mid-heal; removed",
            ),
            (
                Failover(0, 0, true, 3),
                "domain 0: worker d0/w0 confirmed dead; promoted surviving replica(s), \
                 zero replay over 3 survivor(s)",
            ),
            (
                Failover(2, 8, false, 2),
                "domain 2: worker d2/w8 confirmed dead; re-fanned the upload log over \
                 2 survivor(s)",
            ),
            (
                AnnouncerDown(6),
                "announcer: node 6 confirmed dead; wide rounds fail until it reconnects",
            ),
        ];
        for (event, line) in golden {
            assert_eq!(event.to_string(), line);
        }
    }

    /// A promotion is metadata only: over rf-2 slots whose workers serve
    /// `node_loop`, it sends the survivors nothing and hears nothing back.
    #[test]
    fn a_promotion_sends_no_message() {
        use prism_protocol::params::{Initiator, SystemConfig};
        let setup = Initiator::new(SystemConfig::new(2, 8).with_seed(1))
            .setup()
            .expect("setup");
        let params = setup.servers[0].clone();
        let cfg = RegistryConfig {
            replication: 2,
            ..RegistryConfig::default()
        };
        let unbound = SocketAddr::from(([0, 0, 0, 0], 0));
        let roster = ClusterListener::empty(setup, 2, cfg, unbound, channel_links);
        let inner = &roster.inner;
        // Slots hold ranges 0, 1, 0, 1: every range has a replica.
        let (mut nodes, mut meters) = (Vec::new(), Vec::new());
        for w in 0..4 {
            let range = w % 2;
            let spec = inner.domains[0].read().domain.plan().specs()[range];
            let (router_side, worker_side) = channel_links().expect("a channel pair");
            meters.push([router_side.stats(), worker_side.stats()]);
            let link = Arc::from(worker_side);
            nodes.push(spawn_node(
                params.clone(),
                link,
                Some(spec),
                Tamper::Honest,
                None,
            ));
            let slotted = take_slot(inner, 0, Arc::from(router_side), range, |_, _| true);
            slotted.expect("a free slot");
        }
        let snapshot = |meters: &[[Arc<LinkStats>; 2]]| -> Vec<[(u64, u64); 2]> {
            meters
                .iter()
                .map(|m| m.clone().map(|s| s.snapshot()))
                .collect()
        };

        // Range 0's primary dies; its replica is next in slot order.
        let dead = inner.domains[0].write().workers.remove(0);
        let before = snapshot(&meters[1..]);
        assert!(promote(inner, 0), "range 0 keeps a holder");
        assert_eq!(
            snapshot(&meters[1..]),
            before,
            "a promotion must send the survivors nothing"
        );
        assert_eq!(inner.metrics.get(Counter::Promotions), 1);

        let survivors = inner.domains[0].read();
        for link in std::iter::once(&dead.link).chain(survivors.workers.iter().map(|w| &w.link)) {
            link.send_raw(Message::Shutdown).expect("the node hears it");
        }
        for node in nodes {
            node.join().expect("node thread").expect("clean exit");
        }
    }

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
        let dispatcher = listener.dispatcher.expect("a bound listener dispatches");
        dispatcher.join().expect("dispatcher exits");
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
    fn a_fixed_roster_never_heals() {
        use prism_protocol::malicious::AnnouncerTamper;
        use prism_protocol::params::{Initiator, SystemConfig};
        let setup = || {
            let config = SystemConfig::new(2, 8).with_seed(1);
            Initiator::new(config).setup().expect("setup")
        };
        let unlogged = |inner: &RegistryInner| inner.domains.iter().all(|d| d.read().log.is_none());

        // No prober, no dispatcher and no replay log, also after an upload.
        let net = NetCluster::start_local_sharded(setup(), 2);
        let registry = net.registry().expect("every cluster has a registry");
        assert!(registry.prober.lock().is_none());
        assert!(registry.dispatcher.lock().is_none());
        assert!(unlogged(&registry.inner));
        let b = net.setup().owner.b;
        net.bulk_upload(0, 0, vec![(Column::Ok, vec![0; b])])
            .expect("the workers store it");
        assert!(unlogged(&registry.inner));
        assert!(net.report().nodes.is_empty(), "no prober, no health rows");
        net.shutdown().expect("clean shutdown");

        // A dead announcer is an error, not a wait for a reconnect that
        // no fixed roster can receive. Over TCP the request's write to the
        // closed edge succeeds, so only the receive side can fail it.
        let roster = ClusterListener::fixed(setup(), 2, tcp_links).expect("roster");
        let ctl = roster.inner.announcer_ctl.lock().clone();
        let ctl = ctl.expect("the roster slots its announcer");
        ctl.send(&Message::Shutdown)
            .expect("the announcer hears it");
        let net = roster.start().expect("a fixed roster is complete");
        let (done, refused) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(net.set_announcer_tamper(AnnouncerTamper::Honest).is_err());
            let _ = net.shutdown();
        });
        let waited = Duration::from_secs(10);
        assert_eq!(
            refused.recv_timeout(waited),
            Ok(true),
            "the request must fail"
        );
    }

    type Columns = Vec<(Column, Vec<u64>)>;

    /// A put the log takes, as the router writes it: checked, then added.
    fn logged_put(log: &mut ReplayLog, owner: usize, start: usize, columns: Columns, b: usize) {
        log.check_put(owner, start, &columns, b)
            .expect("the put extends the owner's rows");
        log.put(owner, start, columns);
    }

    /// A fold the log takes over a `b`-row domain, checked, then added.
    fn logged_fold(log: &mut ReplayLog, owner: usize, epoch: u64, columns: Columns, b: usize) {
        log.check_fold(owner, epoch, &columns, b)
            .expect("the fold is at a new epoch");
        log.fold(owner, epoch, columns);
    }

    fn log_params(m: usize, b: usize) -> prism_protocol::params::ServerParams {
        use prism_protocol::params::{Initiator, SystemConfig};
        let config = SystemConfig::new(m, b).with_seed(3);
        let setup = Initiator::new(config).setup().expect("setup");
        setup.servers[0].clone()
    }

    #[test]
    fn a_fold_adds_into_its_record_in_the_replay_log() {
        use prism_protocol::engine::{ColumnCut, Held};
        use Column::{Ok, VOk};
        let cols =
            |v: u64, cs: &[Column]| -> Columns { cs.iter().map(|&c| (c, vec![v; 8])).collect() };
        let sp = log_params(2, 8);
        let n = Ok.ring(sp.delta, sp.field.p);
        assert_eq!(n, VOk.ring(sp.delta, sp.field.p));
        let held = |rows, epoch| Held { rows, epoch };
        let mut log = ReplayLog::new(&sp);
        logged_put(&mut log, 0, 0, cols(1, &[Ok, VOk]), 8);
        logged_put(&mut log, 1, 0, cols(2, &[Ok]), 8);
        // Folds add into the one summed record of their column in its
        // ring and move the owner's epoch; they never add a record, a
        // column or a cell.
        for epoch in 1..=5 {
            logged_fold(&mut log, 0, epoch, cols(5, &[Ok, VOk]), 8);
        }
        logged_fold(&mut log, 0, 6, cols(9, &[Ok]), 8);
        let (ok, v_ok) = ((1 + 5 * 5 + 9 + 2) % n, (1 + 5 * 5) % n);
        assert_eq!(
            log.cut(0, 8),
            [
                ColumnCut {
                    column: Ok,
                    summed: vec![ok; 8],
                    held: vec![held(8, 6), held(8, 0)],
                },
                ColumnCut {
                    column: VOk,
                    summed: vec![v_ok; 8],
                    held: vec![held(8, 5)],
                },
            ]
        );
        assert_eq!(log.resident_cells(), 16);
        // The log refuses what a worker refuses: a repeated fold epoch.
        assert!(log.check_fold(0, 6, &cols(9, &[Ok]), 8).is_err());
        // A delta extends the one column it appends to, in a domain grown
        // to 12 rows.
        logged_put(&mut log, 0, 8, vec![(Ok, vec![7; 4])], 12);
        // The restore of range [4, 12): each column's slice of the sum and
        // every owner's rows clipped to the range, epochs kept.
        assert_eq!(
            log.cut(4, 8),
            [
                ColumnCut {
                    column: Ok,
                    summed: [[ok; 4], [7; 4]].concat(),
                    held: vec![held(8, 6), held(4, 0)],
                },
                ColumnCut {
                    column: VOk,
                    summed: vec![v_ok; 4],
                    held: vec![held(4, 5)],
                },
            ]
        );
    }

    /// One column per kind, whatever the owner count: the same uploads
    /// from 2 owners and from 10 — every Table-11 kind put whole, folded
    /// once and appended to — leave exactly `kinds × b` cells in the log,
    /// as `engine`'s `resident_shares_do_not_grow_with_the_owner_count`
    /// does at a worker.
    #[test]
    fn the_replay_log_keeps_one_column_per_kind() {
        use Column::*;
        let (b, added) = (64, 4);
        let kinds = [Ok, VOk, OkDb1, OkDb2, AOk, Agg(0), VAgg(0), Agg(1), VAgg(1)];
        let rows =
            |v: u64, len: usize| -> Columns { kinds.iter().map(|&c| (c, vec![v; len])).collect() };
        let cells = [2usize, 10].map(|m| {
            let mut log = ReplayLog::new(&log_params(m, b));
            for j in 0..m {
                let v = j as u64 + 1;
                logged_put(&mut log, j, 0, rows(v, b), b);
                logged_fold(&mut log, j, 1, rows(v, b), b);
                logged_put(&mut log, j, b, rows(v, added), b + added);
            }
            log.resident_cells()
        });
        assert_eq!(cells, [kinds.len() * (b + added); 2]);
    }

    #[test]
    fn a_silent_dialer_is_dropped_after_the_probe_timeout() {
        let (listener, params) = listener(1, 1);
        let bound = listener.inner.cfg.probe_timeout * 4;
        let side = TcpListener::bind("127.0.0.1:0").expect("bind");
        let attach = |stream: TcpStream| {
            let (done, finished) = std::sync::mpsc::channel();
            let inner = Arc::clone(&listener.inner);
            let place = Handshake::begin(&inner).expect("under the cap");
            std::thread::spawn(move || {
                handle_attach(&inner, stream, place);
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
        register(&client, NodeRole::AnnouncerUpload, 0).expect("registered");
        finished.recv_timeout(bound).expect("handshake done");
        assert_eq!(server_end.read_timeout().expect("timeout"), None);

        // And a real worker still attaches through the dispatcher.
        let worker = ShardWorker::connect(params, 0, listener.addr(), Duration::from_secs(5))
            .expect("a slot is free");
        assert_eq!(slot_nodes(&listener), [worker.node_id()]);
        teardown(listener, vec![worker]);
    }

    #[test]
    fn dials_past_the_handshake_cap_are_closed_at_once() {
        use std::io::Read;
        let (listener, params) = listener(1, 1);
        let probe_timeout = listener.inner.cfg.probe_timeout;
        let dial = || TcpStream::connect(listener.addr()).expect("dial");
        let closed_within = |stream: &TcpStream, wait: Duration| {
            stream.set_read_timeout(Some(wait)).expect("timeout");
            matches!((&*stream).read(&mut [0u8; 1]), Ok(0))
        };

        // Silent dials take every place (the dispatcher accepts in dial
        // order); the ones past the cap are closed without a handshake.
        let silent: Vec<TcpStream> = (0..MAX_HANDSHAKES).map(|_| dial()).collect();
        let extra: Vec<TcpStream> = (0..3).map(|_| dial()).collect();
        for stream in &extra {
            assert!(
                closed_within(stream, probe_timeout / 2),
                "a dial past the cap was not closed at once"
            );
        }
        // The silent ones are dropped at their Register deadline, which
        // frees their places first; then a real worker attaches.
        for stream in &silent {
            assert!(closed_within(stream, probe_timeout * 4));
        }
        let worker = ShardWorker::connect(params, 0, listener.addr(), Duration::from_secs(5))
            .expect("a place and a slot are free");
        assert_eq!(slot_nodes(&listener), [worker.node_id()]);
        teardown(listener, vec![worker]);
    }

    /// The attach handshake refuses a first message other than `Register`
    /// (if tagged) and closes the connection, taking no slot, within
    /// `DEADLINE` — for every tag of the table, fields decoded from the
    /// soup where they decode (`router::tests::table_samples`).
    fn attach_refuses_or_closes(soup: &[u8]) {
        use std::io::ErrorKind;
        const DEADLINE: Duration = Duration::from_secs(10);
        let (listener, _) = listener(1, 1);
        let side = TcpListener::bind("127.0.0.1:0").expect("bind");
        let samples = crate::router::tests::table_samples(soup);
        let foreign = samples.iter().filter(|m| !Edges::TO_REGISTRY.carries(m));
        for (msg, tagged) in foreign.flat_map(|m| [(m, true), (m, false)]) {
            let tag = msg.wire_tag();
            let client = TcpStream::connect(side.local_addr().expect("addr")).expect("dial");
            let client = TcpLink::new(client).expect("link");
            client.set_read_timeout(Some(DEADLINE)).expect("timeout");
            let (accepted, _) = side.accept().expect("accept");
            let inner = Arc::clone(&listener.inner);
            let place = Handshake::begin(&inner).expect("under the cap");
            let (done, handshake) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                handle_attach(&inner, accepted, place);
                let _ = done.send(());
            });
            if tagged {
                client.send(&msg.clone().tagged(7)).expect("send");
                match client.recv().map(Message::untag) {
                    Ok((Some(7), Message::Refused(why))) => {
                        assert!(why.contains(&format!("tag {tag} ")), "{why}")
                    }
                    other => panic!("attach: tag {tag} got {other:?}"),
                }
            } else {
                client.send(msg).expect("send");
            }
            match client.recv() {
                Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {}
                other => panic!("attach: tag {tag} (tagged: {tagged}) left {other:?}"),
            }
            let finished = handshake.recv_timeout(DEADLINE);
            assert!(finished.is_ok(), "attach: no return, or a panic");
        }
        assert!(slot_nodes(&listener).is_empty());
        teardown(listener, Vec::new());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        /// No foreign first message is met with silence at the attach
        /// endpoint ([`attach_refuses_or_closes`]).
        #[test]
        fn the_attach_handshake_refuses_or_closes_on_every_foreign_tag(
            soup in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            attach_refuses_or_closes(&soup);
        }
    }
}
