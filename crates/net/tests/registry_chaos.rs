//! Chaos e2e for the cluster control plane: a worker killed mid-run is
//! confirmed dead by the keep-alive prober, the registry re-shards its
//! domain over the survivors and re-outsources the lost rows, and the
//! healed cluster answers every query **bit-identically** to a
//! never-failed oracle. Tamper detection still fires after the heal, the
//! PSI-round cache loses exactly the healed domain's entries (other
//! domains stay warm), and a query in flight against the dying node
//! errors loudly — it never hangs and never returns a wrong answer.
//!
//! Every wait is on a control event ([`NodeRegistry::wait_event`]) or on
//! a query thread's signal, never on the clock.

use prism_net::registry::NodeRegistry;
use prism_net::wire::NodeRole;
use prism_net::ControlEvent::{
    self, AnnouncerDown, AnnouncerReconnected, Attached, Failover, UploadReconnected,
};
use prism_net::{
    AnnouncerNode, ClusterListener, Column, Link, Liveness, Message, NetCluster, NetError,
    RegistryConfig, ShardWorker, TcpLink,
};
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
use prism_protocol::malicious::Tamper;
use prism_protocol::metrics::Counter;
use prism_protocol::params::{Setup, ADDITIVE_SERVERS};
use prism_protocol::plans::QueryBatch;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DOMAIN: usize = 10;
/// The longest any test waits for one control event or query.
const WAIT: Duration = Duration::from_secs(15);

fn cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DOMAIN);
    cfg.seed = 77;
    cfg
}

fn make_setup() -> Setup {
    cfg().setup(3).unwrap()
}

fn inputs() -> Vec<OwnerInput> {
    vec![
        OwnerInput::from_pairs([(1, 100), (1, 200), (3, 300), (7, 10)]),
        OwnerInput::from_pairs([(1, 100), (2, 70), (7, 20)]),
        OwnerInput::from_pairs([(1, 300), (1, 700), (3, 500), (7, 30)]),
    ]
}

/// Phase 1 through the wire: full column set per owner (verified copies
/// included), share seeds derived from `cfg()` alone so the elastic
/// cluster and the oracle hold identical stores.
fn outsource(mut net: NetCluster, cache: bool) -> Cluster<NetCluster> {
    if cache {
        net.enable_cache();
    }
    Cluster::over(net, &inputs(), cfg()).unwrap()
}

/// Owner write round `round` (1 or 2): owner 1 updates its rows, then two
/// rows are appended.
fn write(c: &mut Cluster<NetCluster>, round: usize) {
    let ([x, y], update) = match round {
        1 => ([11, 12], [(1, 100), (3, 40), (7, 20)]),
        _ => ([13, 14], [(1, 50), (7, 5), (12, 3)]),
    };
    c.update_owner(1, &OwnerInput::from_pairs(update)).unwrap();
    let appended = [
        OwnerInput::from_pairs([(x, 4)]),
        OwnerInput::from_pairs([(x, 6), (y, 1)]),
        OwnerInput::from_pairs([(y, 2)]),
    ];
    c.append(2, &appended).unwrap();
}

/// Row ranges per domain: three unreplicated (rf 1), two at rf 2 (so
/// every domain has four workers, each range a primary and a standby).
fn ranges(rf: usize) -> usize {
    4 - rf
}

/// Fast probing, generous timeouts: a killed worker is confirmed via
/// hard link death on the next probe (~probe_interval), while a merely
/// slow CI machine never trips a spurious failover.
fn fast(rf: usize) -> RegistryConfig {
    RegistryConfig {
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(2),
        miss_budget: 5,
        attach_timeout: Duration::from_secs(20),
        heal_timeout: Duration::from_secs(5),
        replication: rf,
    }
}

/// The query suite every cluster runs, max included; each element must
/// match exactly.
type Answers = (Vec<u64>, Vec<bool>, usize, Vec<u64>, String, String);

fn suite(c: &Cluster<NetCluster>) -> Answers {
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let (cells, holders, _) = c.psi_max(0).unwrap();
    (
        c.psi_verified().unwrap().0.fop,
        c.psu().unwrap().0,
        c.psi_count().unwrap().0,
        c.psi_sum_verified(0).unwrap().0,
        format!("{:?}", c.psi_query_batch(&batch).unwrap().0),
        format!("{:?}", (cells, holders)),
    )
}

/// The never-failed oracle's answers after `writes` write rounds: a fixed
/// roster over channel links holding identical stores, run once for every
/// test in this file.
fn oracle(writes: usize) -> Answers {
    static ORACLE: OnceLock<Vec<Answers>> = OnceLock::new();
    let answers = ORACLE.get_or_init(|| {
        let mut c = outsource(NetCluster::start_local(make_setup()), false);
        let mut answers = vec![suite(&c)];
        for round in 1..=2 {
            write(&mut c, round);
            answers.push(suite(&c));
        }
        c.into_deployment().shutdown().unwrap();
        answers
    });
    answers[writes].clone()
}

/// An elastic cluster, outsourced, and the nodes attached to it.
struct Elastic {
    /// Shared with a [`hammer`] thread while one runs.
    cluster: Arc<Cluster<NetCluster>>,
    workers: Vec<ShardWorker>,
    announcer: AnnouncerNode,
}

/// Bring up an elastic cluster: the listener first, then every domain's
/// `ranges × rf` workers and the announcer attach over TCP by address,
/// then the owners outsource over it. Domain 0's first worker (range 0's
/// primary) runs `tamper`; if `d0_last` is given, it dials domain 0's last
/// worker itself.
fn bring_up(
    cfg: RegistryConfig,
    cache: bool,
    mut tamper: Tamper,
    mut d0_last: Option<&mut dyn FnMut(SocketAddr)>,
) -> Elastic {
    let setup = make_setup();
    let per_domain = ranges(cfg.replication) * cfg.replication;
    let listener = ClusterListener::bind(setup.clone(), ranges(cfg.replication), cfg).unwrap();
    let addr = listener.addr();
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        let stubbed = k == 0 && d0_last.is_some();
        let dialed = if stubbed { per_domain - 1 } else { per_domain };
        for _ in 0..dialed {
            // The first worker dialed takes `tamper`, the rest are honest.
            let tamper = std::mem::replace(&mut tamper, Tamper::Honest);
            let worker = ShardWorker::connect_tampered(params.clone(), k, addr, WAIT, tamper);
            workers.push(worker.unwrap());
        }
        if let Some(dial) = d0_last.take() {
            dial(addr);
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, WAIT).unwrap();
    let cluster = Arc::new(outsource(listener.start().unwrap(), cache));
    Elastic {
        cluster,
        workers,
        announcer,
    }
}

impl Elastic {
    fn registry(&self) -> &NodeRegistry {
        self.cluster.deployment().registry().unwrap()
    }

    /// The owners' write handle (no query thread may hold the cluster).
    fn owners(&mut self) -> &mut Cluster<NetCluster> {
        Arc::get_mut(&mut self.cluster).expect("a query thread holds the cluster")
    }

    /// Wait for the control event `want` accepts.
    fn wait(&self, what: &str, want: impl FnMut(&ControlEvent) -> bool) -> ControlEvent {
        match self.registry().wait_event(WAIT, want) {
            Some((_, event)) => event,
            None => panic!("no {what} within {WAIT:?}: {:?}", self.registry().events()),
        }
    }

    /// Hard-kill `workers[i]` (both socket halves slam shut) and wait for
    /// its failover.
    fn fail(&self, i: usize) -> ControlEvent {
        let node = self.workers[i].node_id();
        self.workers[i].kill();
        self.wait(
            "failover",
            |ev| matches!(*ev, Failover(_, w, ..) if w == node),
        )
    }

    /// Dial a replacement worker into domain `d` and wait for its attach.
    fn replace(&mut self, d: usize) -> ControlEvent {
        let params = make_setup().servers[d].clone();
        let worker = ShardWorker::connect(params, d, self.registry().addr(), WAIT).unwrap();
        let node = worker.node_id();
        self.workers.push(worker);
        self.wait("attach", |ev| matches!(*ev, Attached(_, w, _) if w == node))
    }

    /// `(failovers, promotions, replayed_records)`.
    fn heals(&self) -> (u64, u64, u64) {
        let r = self.registry();
        (r.failovers(), r.promotions(), r.replayed_records())
    }

    /// Domain `d`'s health rows in `state`.
    fn rows(&self, d: usize, state: Liveness) -> usize {
        let prefix = format!("d{d}/");
        let nodes = self.cluster.deployment().report().nodes;
        nodes
            .iter()
            .filter(|n| n.liveness == state && n.label.starts_with(&prefix))
            .count()
    }

    /// Shut down; every worker the control plane did not bury must exit
    /// cleanly.
    fn shutdown(self) {
        let cluster = Arc::into_inner(self.cluster).expect("a query thread holds the cluster");
        let net = cluster.into_deployment();
        let dead = net
            .report()
            .nodes
            .into_iter()
            .filter(|n| n.liveness == Liveness::Dead);
        let dead: Vec<u64> = dead.map(|n| n.node).collect();
        net.shutdown().unwrap();
        let _ = self.announcer.join();
        for w in self.workers {
            let node = w.node_id();
            let joined = w.join();
            assert!(
                dead.contains(&node) || joined.is_ok(),
                "node {node} must exit cleanly"
            );
        }
    }
}

/// Whether a call failed with a node-down transport error — loudly, not
/// with a hang or a wrong answer.
fn node_down<T>(outcome: Result<T, impl std::fmt::Display>) -> bool {
    outcome.is_err_and(|e| e.to_string().contains("node down"))
}

/// Run `psi_verified` on a thread of its own, each answer checked against
/// `psi`, until a query fails or `stop` is set; returns once the first
/// query completed. The receiver gets the first failure, or `None` once
/// stopped.
fn hammer(
    cluster: &Arc<Cluster<NetCluster>>,
    psi: Vec<u64>,
    stop: &Arc<AtomicBool>,
) -> Receiver<Option<String>> {
    let (cluster, stop) = (Arc::clone(cluster), Arc::clone(stop));
    let (started, first) = mpsc::channel();
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let failure = loop {
            if stop.load(Ordering::Relaxed) {
                break None;
            }
            let answer = cluster.psi_verified();
            let _ = started.send(());
            match answer {
                Ok((got, _)) if got.fop != psi => break Some("a round misrouted".to_string()),
                Ok(_) => {}
                Err(e) => break Some(e.to_string()),
            }
        };
        // Release the cluster before reporting, so the test can take it
        // back out of the `Arc`.
        drop(cluster);
        let _ = done.send(failure);
    });
    first.recv_timeout(WAIT).expect("no first query");
    outcome
}

#[test]
fn failover_heals_reshards_and_matches_the_oracle() {
    let e = bring_up(fast(1), false, Tamper::Honest, None);
    let net = e.cluster.deployment();
    assert_eq!(suite(&e.cluster), oracle(0), "pre-kill elastic answers");

    // A delta outside the adopted domain is refused before it reaches
    // the upload log: recorded, it would overwrite owner 0's logged rows
    // 5.. and the replay below would re-outsource them.
    let stray = vec![(Column::Ok, vec![1; DOMAIN])];
    assert!(matches!(
        net.delta_upload(0, 0, 5, stray),
        Err(NetError::DeltaOutsideDomain { .. })
    ));

    // Kill one of server 0's workers mid-run: the prober must confirm the
    // death and heal the domain.
    e.fail(1);

    // Healed cluster answers the whole suite identically — the lost row
    // range was re-outsourced to the survivors.
    assert_eq!(suite(&e.cluster), oracle(0), "post-heal elastic answers");

    // Tamper detection survives the re-shard: a dishonest healed domain
    // is still caught, and honesty restores the suite.
    let net = e.cluster.deployment();
    net.set_tamper(0, Tamper::SkipReplay { src: 0 }).unwrap();
    assert!(e.cluster.psi_verified().is_err(), "tamper after a heal");
    net.set_tamper(0, Tamper::Honest).unwrap();
    assert_eq!(suite(&e.cluster), oracle(0), "honest-again answers");

    // The control plane's paper trail: a dead node in the health rows, a
    // control event, and the failover counter in the report.
    let report = net.report();
    assert!(report.counts[Counter::Failovers] >= 1, "counted failover");
    assert!(e.rows(0, Liveness::Dead) >= 1, "dead worker on the roster");
    assert!(
        e.rows(0, Liveness::Alive) >= ranges(1) - 1,
        "live survivors"
    );
    assert!(
        format!("{report}").contains("failovers="),
        "NetReport Display must print the control-plane section"
    );
    e.shutdown();
}

#[test]
fn failover_invalidates_only_the_healed_domain() {
    let e = bring_up(fast(1), true, Tamper::Honest, None);
    let batch = QueryBatch::new().sum(0).count_tuples();
    let cache = || e.cluster.deployment().cache().unwrap();

    let (cold, cold_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(cold_stats.cache_misses(), 2);
    let (warm, warm_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(warm, cold);
    assert_eq!(warm_stats.cache_hits(), 2);
    let warm_entries_d1 = cache().server_entries(1);
    assert!(warm_entries_d1 > 0, "domain 1 must hold warm entries");

    // Kill a server-0 worker and let the control plane heal.
    e.fail(2);

    // Pinning: the heal re-outsourced domain 0, so *its* entries are
    // stale — but domain 1's warm entries must survive untouched.
    let cache = || e.cluster.deployment().cache().unwrap();
    assert_eq!(
        cache().server_entries(1),
        warm_entries_d1,
        "failover in domain 0 must not evict domain 1's warm entries"
    );
    let (healed, healed_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(healed, cold, "healed answers must match pre-kill answers");
    assert_eq!(
        healed_stats.cache_hits(),
        0,
        "the healed domain's stale entry must not be served"
    );
    assert!(
        healed_stats.failovers() >= 1,
        "the heal must be attributed to this query's meters: {healed_stats}"
    );
    let report = e.cluster.deployment().report();
    assert!(
        report.counts[Counter::CacheInvalidations] >= 1,
        "the heal must show as an invalidation"
    );

    // And the cache re-warms over the healed topology.
    let (rewarm, rewarm_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(rewarm, cold);
    assert_eq!(rewarm_stats.cache_hits(), 2, "healed domain must re-warm");
    e.shutdown();
}

#[test]
fn inflight_queries_error_loudly_never_hang_and_heal_recovers() {
    // Slow the prober down so the kill window is observable: queries
    // issued between the death and the heal must fail fast and loud.
    let cfg = RegistryConfig {
        probe_interval: Duration::from_millis(300),
        ..fast(1)
    };
    let e = bring_up(cfg, false, Tamper::Honest, None);

    // Hammer queries from a second thread, then kill a worker under
    // them. The in-flight query must surface a node-down error — not
    // hang, not misroute, not fabricate an answer.
    let stop = Arc::new(AtomicBool::new(false));
    let outcome = hammer(&e.cluster, oracle(0).0, &stop);
    e.fail(0);
    let err = outcome
        .recv_timeout(WAIT)
        .expect("in-flight query hung on a dead node");
    assert!(
        err.as_ref().is_some_and(|err| err.contains("node down")),
        "dying node must surface as a node-down transport error, got: {err:?}"
    );

    // After the heal, a fresh query succeeds and matches the oracle.
    assert_eq!(suite(&e.cluster), oracle(0), "post-heal answers");
    e.shutdown();
}

/// Killing *every* worker of a domain must not wedge or panic the
/// control plane: the domain is held down — queries and uploads against
/// it fail loudly with a node-down transport error — while the upload
/// log is retained, so the first replacement that dials in replays the
/// store and the domain answers bit-identically again.
#[test]
fn last_worker_death_holds_the_domain_down_until_a_replacement() {
    let mut e = bring_up(fast(1), false, Tamper::Honest, None);

    // Kill every one of domain 0's workers (attach order: d0 first); the
    // last failover leaves no survivor.
    for w in &e.workers[..ranges(1)] {
        w.kill();
    }
    e.wait("domain 0 offline", |ev| matches!(ev, Failover(0, _, _, 0)));
    assert!(e.rows(0, Liveness::Dead) >= ranges(1), "all of d0 dead");

    // Down, not wedged: queries and uploads error loudly and fast.
    assert!(
        node_down(e.cluster.psi_verified()),
        "query to a downed domain"
    );
    let poison = vec![(Column::Ok, vec![0; DOMAIN])];
    let upload = e.cluster.deployment().bulk_upload(0, 0, poison);
    assert!(node_down(upload), "upload to a downed domain");

    // A replacement dials in: the retained upload log replays the store
    // into it and the domain comes back up. (Re-upload the canonical
    // columns afterwards so the poison upload attempted above cannot
    // linger in the replayed store.)
    e.replace(0);
    assert!(e.cluster.psi_count().is_ok(), "domain back up");
    for (j, input) in inputs().iter().enumerate() {
        e.owners().update_owner(j, input).unwrap();
    }
    assert_eq!(suite(&e.cluster), oracle(0), "post-revival answers");
    e.shutdown();
}

/// The announcer is a first-class roster citizen: killing it shows up as
/// a control event and a Dead roster row, a replacement that dials back in
/// is swapped into the live links in place (no listener restart, no
/// re-upload), the control events record the resume, and the wide
/// (announcer-backed) rounds answer bit-identically afterwards.
#[test]
fn announcer_reconnects_and_wide_rounds_resume() {
    let e = bring_up(fast(1), false, Tamper::Honest, None);
    let announcer = |state| {
        let nodes = e.cluster.deployment().report().nodes;
        nodes
            .iter()
            .any(|n| n.label == "announcer" && n.liveness == state)
    };

    e.announcer.kill();
    e.wait("announcer death", |ev| matches!(ev, AnnouncerDown(_)));
    assert!(announcer(Liveness::Dead), "announcer confirmed dead");

    // Vector rounds never touch the announcer: still served while down.
    assert_eq!(
        e.cluster.psi_verified().unwrap().0.fop,
        oracle(0).0,
        "PSI must survive an announcer outage"
    );

    // A replacement dials in and is swapped into the live links: its
    // control edge, then both upload edges.
    let params = make_setup().announcer;
    let replacement = AnnouncerNode::connect(params, e.registry().addr(), WAIT).unwrap();
    e.wait("announcer reconnect", |ev| {
        matches!(ev, AnnouncerReconnected(_))
    });
    for k in 0..ADDITIVE_SERVERS {
        e.wait("upload edge reconnect", |ev| *ev == UploadReconnected(k));
    }
    assert!(announcer(Liveness::Alive), "announcer alive on roster");

    // Wide rounds resume bit-identically; the whole suite (max included)
    // holds.
    assert_eq!(suite(&e.cluster), oracle(0), "post-reconnect answers");
    e.shutdown();
    let _ = replacement.join();
}

/// A late attach after a failover is absorbed: the under-strength domain
/// re-plans over the larger worker set and keeps answering correctly.
#[test]
fn post_failover_reattach_rejoins_the_domain() {
    let mut e = bring_up(fast(1), false, Tamper::Honest, None);
    e.fail(0);
    assert_eq!(suite(&e.cluster), oracle(0), "post-heal answers");

    // A replacement dials in; the domain re-plans back to full strength
    // and the replayed store keeps the answers identical.
    e.replace(0);
    assert_eq!(suite(&e.cluster), oracle(0), "post-reattach answers");
    e.shutdown();
}

/// With rf=2 a worker death is absorbed twice over: queries in flight
/// retry the range's live replica (zero errors, zero wrong answers),
/// and the confirmed death heals as a metadata-only *promotion* — zero
/// upload-log replay. Only when the last holder of a range dies does the
/// control plane fall back to a replay heal, and only when *every*
/// holder of a range is dead does the domain surface `node down`.
#[test]
fn rf2_worker_death_heals_by_promotion_with_zero_replay() {
    let e = bring_up(fast(2), false, Tamper::Honest, None);
    assert_eq!(suite(&e.cluster), oracle(0), "pre-kill answers");

    // Hammer queries from a second thread while range 0's primary dies.
    // Its replica holds the same shares, so the router must absorb the
    // death transparently: zero errors, zero wrong answers. Holders are
    // assigned round-robin in attach order: d0's workers 0..4 hold ranges
    // 0, 1, 0, 1 — workers[0] is range 0's primary, workers[2] its
    // replica.
    let stop = Arc::new(AtomicBool::new(false));
    let outcome = hammer(&e.cluster, oracle(0).0, &stop);
    let healed = e.fail(0);
    stop.store(true, Ordering::Relaxed);
    let failure = outcome.recv_timeout(WAIT).expect("a query hung");
    assert_eq!(failure, None, "queries across the death must not fail");
    assert!(e.heals().1 >= 1, "the heal is a promotion");
    assert_eq!(e.heals().2, 0, "a promotion replays no upload log");
    assert_eq!(suite(&e.cluster), oracle(0), "post-promotion answers");
    assert!(matches!(healed, Failover(_, _, true, _)), "{healed:?}");

    // Kill the promoted holder too: range 0 now has no replica left, so
    // the heal must fall back to re-fanning the upload log.
    e.fail(2);
    assert!(e.heals().2 > 0, "a range's last holder lost: replay");
    assert_eq!(suite(&e.cluster), oracle(0), "post-replay answers");

    // Only once *every* holder of the domain is dead does it go down.
    e.workers[1].kill();
    e.workers[3].kill();
    e.wait("domain 0 offline", |ev| matches!(ev, Failover(0, _, _, 0)));
    assert!(e.rows(0, Liveness::Dead) >= 4, "all of d0 confirmed dead");
    assert!(
        node_down(e.cluster.psi_verified()),
        "query to a dead domain"
    );
    e.shutdown();
}

/// Without replicas one kill is still exactly one failover, and the heal
/// has only one way to go: no promotion, the domain restored from its
/// summed upload log — one record per healed domain, whatever the owner
/// count, sent as one `Replay` per holder. An update and an append before
/// the kill are in that record: the healed cluster answers like a
/// never-failed one, refuses the update's epoch if it comes again, and
/// takes a new update and a new append.
#[test]
fn rf1_kill_is_one_failover_healed_by_replay() {
    let mut e = bring_up(fast(1), false, Tamper::Honest, None);
    write(e.owners(), 1);
    assert_eq!(suite(&e.cluster), oracle(1), "pre-kill answers");

    e.fail(0);
    assert_eq!(suite(&e.cluster), oracle(1), "post-heal answers");
    // An rf=1 heal restores its domain from the log's one summed record.
    assert_eq!(e.heals(), (1, 0, 1), "one failover, one replay");

    // Owner 1's update folded at epoch 1: sent again after the heal, it
    // is refused.
    let net = e.cluster.deployment();
    let again = net.fold_upload(0, 1, 1, vec![(Column::Ok, vec![0; net.setup().owner.b])]);
    assert!(
        matches!(again, Err(NetError::UploadRefused(_))),
        "a repeated fold after the heal: {again:?}"
    );
    // A new update and a new append are taken.
    write(e.owners(), 2);
    assert_eq!(suite(&e.cluster), oracle(2), "post-heal writes");
    e.shutdown();
}

/// A promotion replays nothing, so it moves no range version: the heal
/// dirties the domain, the first cached re-query re-probes the promoted
/// primary, finds the stamps its entries were cut against, and replays
/// both rounds from the cache — where the rf=1 replay heal
/// (`failover_invalidates_only_the_healed_domain`) must go cold.
#[test]
fn rf2_promotion_keeps_cached_rounds_warm() {
    let e = bring_up(fast(2), true, Tamper::Honest, None);
    let batch = QueryBatch::new().sum(0).count_tuples();

    let (cold, cold_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!((cold_stats.rounds, cold_stats.cache_misses()), (2, 2));
    let (warm, warm_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(warm, cold);
    assert_eq!((warm_stats.rounds, warm_stats.cache_hits()), (0, 2));

    // Range 0's primary in domain 0 dies; its replica is promoted.
    e.fail(0);
    let (healed, healed_stats) = e.cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(healed, cold, "promoted replica answered differently");
    assert_eq!(
        (healed_stats.rounds, healed_stats.cache_hits()),
        (0, 2),
        "a promotion moved no rows, so the first re-query must stay warm: {healed_stats}"
    );
    // One kill at rf=2 is one failover, healed by one promotion.
    assert_eq!(e.heals(), (1, 1, 0), "one failover, one promotion");
    e.shutdown();
}

/// Crash ≠ tamper: a replica only ever stands in for a *dead* link. A
/// tampered primary answers with well-formed wrong replies, so the
/// router must NOT retry its honest replica — verification has to
/// surface the lie, exactly as without replication. Killing the liar
/// then promotes the honest replica and the domain answers honestly
/// again with zero replay.
#[test]
fn rf2_tampered_primary_is_detected_never_retried_around() {
    let e = bring_up(fast(2), false, Tamper::SkipReplay { src: 0 }, None);
    let err = e.cluster.psi_verified().unwrap_err().to_string();
    assert!(
        !err.contains("node down"),
        "tamper must surface as a verification failure, never be masked \
         by a replica retry: {err:?}"
    );

    e.fail(0);
    assert!(e.heals().1 >= 1, "the heal is a promotion");
    assert_eq!(
        e.heals().2,
        0,
        "promoting the honest replica replays nothing"
    );
    assert_eq!(suite(&e.cluster), oracle(0), "post-promotion answers");
    e.shutdown();
}

/// Seeds per replication factor in [`seeded_schedules_at_rf1`] and
/// [`seeded_schedules_at_rf2`].
const SEEDS: u64 = 16;

/// One seeded kill-and-replace schedule: optionally the cache and a write
/// round, then a seeded live holder's death and its replacement, each
/// checked against the oracle and the heal counters rf predicts.
fn schedule(seed: u64, rf: usize) {
    // A multiplicative hash: its top bits decide the cache and the
    // writes, the next 32 the victim.
    let draw = (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (cache, writes) = (draw >> 63 == 1, (draw >> 62 & 1) as usize);
    let mut e = bring_up(fast(rf), cache, Tamper::Honest, None);
    if writes == 1 {
        write(e.owners(), 1);
    }

    let per_domain = ranges(rf) * rf;
    let victim = (draw >> 30) as usize % e.workers.len();
    let (domain, node, promoted) = (victim / per_domain, e.workers[victim].node_id(), rf > 1);
    let healed = e.fail(victim);
    assert_eq!(healed, Failover(domain, node, promoted, per_domain - 1));
    assert_eq!(suite(&e.cluster), oracle(writes), "post-heal answers");
    // rf 1 replays the lost range; rf 2 promotes its replica.
    let (promotions, replayed) = if promoted { (1, 0) } else { (0, 1) };
    assert_eq!(e.heals(), (1, promotions, replayed));

    let attached = e.replace(domain);
    assert!(matches!(attached, Attached(d, _, n) if (d, n) == (domain, per_domain)));
    assert_eq!(suite(&e.cluster), oracle(writes), "post-attach answers");
    // The attach re-fans the domain: one more replay, no more heals.
    assert_eq!(e.heals(), (1, promotions, replayed + 1));
    e.shutdown();
}

/// Every seed's schedule, failing with the seed that broke.
fn schedules(rf: usize) {
    for seed in 0..SEEDS {
        if let Err(panic) = std::panic::catch_unwind(|| schedule(seed, rf)) {
            eprintln!("the schedule failed at seed {seed}, rf {rf}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn seeded_schedules_at_rf1() {
    schedules(1);
}

#[test]
fn seeded_schedules_at_rf2() {
    schedules(2);
}

/// A test-side replica over the public wire: it registers, then acks its
/// `Assign`, its uploads and its pings until muted, after which it reads
/// on and answers nothing, its socket open.
struct Stub {
    node: u64,
    link: Arc<TcpLink>,
    mute: Arc<AtomicBool>,
    serving: JoinHandle<()>,
}

impl Stub {
    fn attach(addr: SocketAddr, domain: u32) -> Stub {
        let link = Arc::new(TcpLink::new(TcpStream::connect(addr).unwrap()).unwrap());
        let role = NodeRole::ShardWorker;
        link.send(&Message::Register { role, domain }).unwrap();
        let node = match link.recv().unwrap() {
            Message::RegisterAck { accepted, node, .. } if accepted => node,
            other => panic!("the stub's registration was refused: {other:?}"),
        };
        let mute = Arc::new(AtomicBool::new(false));
        let serving = {
            let (link, mute) = (Arc::clone(&link), Arc::clone(&mute));
            std::thread::spawn(move || {
                while let Ok(msg) = link.recv() {
                    let (tag, msg) = msg.untag();
                    let answer = match msg {
                        Message::Ping { seq } => Message::Pong { seq },
                        Message::Assign { .. }
                        | Message::Replay { .. }
                        | Message::BulkUpload { .. }
                        | Message::FoldUpload { .. }
                        | Message::DeltaUpload { .. } => Message::Ack,
                        _ => continue,
                    };
                    if mute.load(Ordering::SeqCst) {
                        continue;
                    }
                    let answer = match tag {
                        Some(query) => answer.tagged(query),
                        None => answer,
                    };
                    if link.send(&answer).is_err() {
                        return;
                    }
                }
            })
        };
        Stub {
            node,
            link,
            mute,
            serving,
        }
    }
}

/// The miss-budget path end to end: a replica that stops answering while
/// its socket stays open is confirmed dead only once `miss_budget` pings
/// went unanswered — not by link death — and healed by promotion; the
/// query suite still matches the oracle.
#[test]
fn a_silent_replica_is_confirmed_dead_by_its_miss_budget() {
    let cfg = RegistryConfig {
        probe_timeout: Duration::from_millis(200),
        miss_budget: 2,
        ..fast(2)
    };
    let (probe_timeout, miss_budget) = (cfg.probe_timeout, cfg.miss_budget);
    // Domain 0's last worker, so a replica (of range 1).
    let mut stub = None;
    let e = bring_up(
        cfg,
        false,
        Tamper::Honest,
        Some(&mut |addr| stub = Some(Stub::attach(addr, 0))),
    );
    let stub = stub.expect("the stub dialed");
    assert_eq!(suite(&e.cluster), oracle(0), "answers with the stub live");

    stub.mute.store(true, Ordering::SeqCst);
    let muted = Instant::now();
    let healed = e.wait(
        "the stub's failover",
        |ev| matches!(*ev, Failover(_, w, ..) if w == stub.node),
    );
    // A ping already in flight at the mute may count as the first miss;
    // every later one waits out its whole timeout. A link death would be
    // confirmed on the next probe, one interval after the mute.
    let waited = muted.elapsed();
    assert!(
        waited >= probe_timeout * (miss_budget - 1),
        "the stub was confirmed dead after {waited:?}, inside its miss budget"
    );
    assert_eq!(healed, Failover(0, stub.node, true, 3));
    assert_eq!(e.heals(), (1, 1, 0));
    assert_eq!(suite(&e.cluster), oracle(0), "post-promotion answers");

    stub.link.shutdown();
    stub.serving.join().unwrap();
    e.shutdown();
}
