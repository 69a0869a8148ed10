//! Chaos e2e for the cluster control plane: a worker killed mid-run is
//! confirmed dead by the keep-alive prober, the registry re-shards its
//! domain over the survivors and re-outsources the lost rows, and the
//! healed cluster answers every query **bit-identically** to a
//! never-failed oracle. Tamper detection still fires after the heal, the
//! PSI-round cache loses exactly the healed domain's entries (other
//! domains stay warm), and a query in flight against the dying node
//! errors loudly — it never hangs and never returns a wrong answer.

use prism_net::{
    AnnouncerNode, ClusterListener, Column, Liveness, NetCluster, NetError, RegistryConfig,
    ShardWorker,
};
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
use prism_protocol::params::Setup;
use prism_protocol::plans::QueryBatch;
use std::time::{Duration, Instant};

const DOMAIN: usize = 10;
const SHARDS: usize = 3;

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

/// Fast probing, generous timeouts: a killed worker is confirmed via
/// hard link death on the next probe (~probe_interval), while a merely
/// slow CI machine never trips a spurious failover.
fn fast_cfg() -> RegistryConfig {
    RegistryConfig {
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(2),
        miss_budget: 5,
        attach_timeout: Duration::from_secs(20),
        heal_timeout: Duration::from_secs(5),
        replication: 1,
    }
}

/// Replicated variant: every row range is held by `RF` workers.
fn rf2_cfg() -> RegistryConfig {
    RegistryConfig {
        replication: RF,
        ..fast_cfg()
    }
}

const RF: usize = 2;
const RF2_RANGES: usize = 2;

/// Bring up an rf=2 elastic cluster: `RF2_RANGES * RF` workers per
/// server domain, so every range has a primary and one standby replica.
fn spawn_elastic_rf2(setup: Setup) -> (NetCluster, Vec<ShardWorker>, AnnouncerNode) {
    let listener = ClusterListener::bind(setup.clone(), RF2_RANGES, rf2_cfg()).unwrap();
    let addr = listener.addr();
    let dial = Duration::from_secs(10);
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for _ in 0..RF2_RANGES * RF {
            workers.push(ShardWorker::connect(params.clone(), k, addr, dial).unwrap());
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).unwrap();
    let cluster = listener.start().unwrap();
    (cluster, workers, announcer)
}

/// Bring up an elastic cluster: listener first, then every worker and
/// the announcer attach over TCP by address.
fn spawn_elastic(
    setup: Setup,
    cfg: RegistryConfig,
) -> (NetCluster, Vec<ShardWorker>, AnnouncerNode) {
    let listener = ClusterListener::bind(setup.clone(), SHARDS, cfg).unwrap();
    let addr = listener.addr();
    let dial = Duration::from_secs(10);
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for _ in 0..SHARDS {
            workers.push(ShardWorker::connect(params.clone(), k, addr, dial).unwrap());
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).unwrap();
    let cluster = listener.start().unwrap();
    (cluster, workers, announcer)
}

fn wait_for(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ok() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The query suite both clusters run; every element must match exactly.
fn suite(c: &Cluster<NetCluster>) -> (Vec<u64>, Vec<bool>, usize, Vec<u64>, String) {
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    (
        c.psi_verified().unwrap().0.fop,
        c.psu().unwrap().0,
        c.psi_count().unwrap().0,
        c.psi_sum_verified(0).unwrap().0,
        format!("{:?}", c.psi_query_batch(&batch).unwrap().0),
    )
}

/// The max query's answer (cells and holders), comparable across clusters.
fn max_answer(c: &Cluster<NetCluster>) -> String {
    let (cells, holders, _) = c.psi_max(0).unwrap();
    format!("{:?}", (cells, holders))
}

#[test]
fn failover_heals_reshards_and_matches_the_oracle() {
    let setup = make_setup();

    // Never-failed oracle: the statically wired local cluster over an
    // identical store.
    let oracle_cluster = outsource(NetCluster::start_local(make_setup()), false);
    let oracle = suite(&oracle_cluster);
    let oracle_max = max_answer(&oracle_cluster);
    oracle_cluster.into_deployment().shutdown().unwrap();

    let (net, workers, announcer) = spawn_elastic(setup, fast_cfg());
    let cluster = outsource(net, false);
    let net = cluster.deployment();
    assert_eq!(suite(&cluster), oracle, "pre-kill elastic answers");
    assert_eq!(max_answer(&cluster), oracle_max, "pre-kill max");

    // A delta outside the adopted domain is refused before it reaches
    // the upload log: recorded, it would overwrite owner 0's logged rows
    // 5.. and the replay below would re-outsource them.
    let stray = vec![(Column::Ok, vec![1; DOMAIN])];
    assert!(matches!(
        net.delta_upload(0, 0, 5, stray),
        Err(NetError::DeltaOutsideDomain { .. })
    ));

    // Kill one of server 0's workers mid-run: both socket halves slam
    // shut. The prober must confirm the death and heal the domain.
    workers[1].kill();
    let registry = net.registry().unwrap();
    wait_for("failover", Duration::from_secs(10), || {
        registry.failovers() >= 1
    });

    // Healed cluster answers the whole suite identically — the lost row
    // range was re-outsourced to the survivors.
    assert_eq!(suite(&cluster), oracle, "post-heal elastic answers");
    assert_eq!(max_answer(&cluster), oracle_max, "post-heal max");

    // Tamper detection survives the re-shard: a dishonest healed domain
    // is still caught, and honesty restores the suite.
    net.set_tamper(0, prism_protocol::malicious::Tamper::SkipReplay { src: 0 })
        .unwrap();
    assert!(
        cluster.psi_verified().is_err(),
        "tamper after heal must still be detected"
    );
    net.set_tamper(0, prism_protocol::malicious::Tamper::Honest)
        .unwrap();
    assert_eq!(suite(&cluster), oracle, "honest-again answers");

    // The control plane's paper trail: a dead node in the health rows, a
    // heal-log entry, and the failover counter in the report.
    let report = cluster.deployment().report();
    assert!(report.failovers >= 1, "report must count the failover");
    assert!(
        report
            .nodes
            .iter()
            .any(|n| n.liveness == Liveness::Dead && n.label.starts_with("d0/")),
        "dead worker must stay on the health roster: {:?}",
        report.nodes
    );
    assert!(
        report
            .nodes
            .iter()
            .filter(|n| n.liveness == Liveness::Alive && n.label.starts_with("d0/"))
            .count()
            >= SHARDS - 1,
        "survivors must be alive: {:?}",
        report.nodes
    );
    assert!(
        registry
            .heal_log()
            .iter()
            .any(|l| l.contains("confirmed dead")),
        "heal log must record the failover: {:?}",
        registry.heal_log()
    );
    assert!(
        format!("{report}").contains("failovers="),
        "NetReport Display must print the control-plane section"
    );

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for (i, w) in workers.into_iter().enumerate() {
        // The killed worker's loop exits with an error; the rest clean.
        let joined = w.join();
        if i != 1 {
            assert!(joined.is_ok(), "worker {i} must exit cleanly");
        }
    }
}

#[test]
fn failover_invalidates_only_the_healed_domain() {
    let (net, workers, announcer) = spawn_elastic(make_setup(), fast_cfg());
    let cluster = outsource(net, true);
    let batch = QueryBatch::new().sum(0).count_tuples();

    let (cold, cold_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(cold_stats.cache_misses, 2);
    let (warm, warm_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(warm, cold);
    assert_eq!(warm_stats.cache_hits, 2);
    let warm_entries_d1 = cluster.deployment().cache().unwrap().server_entries(1);
    assert!(warm_entries_d1 > 0, "domain 1 must hold warm entries");

    // Kill a server-0 worker and let the control plane heal.
    workers[2].kill();
    wait_for("failover", Duration::from_secs(10), || {
        cluster.deployment().registry().unwrap().failovers() >= 1
    });

    // Pinning: the heal re-outsourced domain 0, so *its* entries are
    // stale — but domain 1's warm entries must survive untouched.
    assert_eq!(
        cluster.deployment().cache().unwrap().server_entries(1),
        warm_entries_d1,
        "failover in domain 0 must not evict domain 1's warm entries"
    );
    let (healed, healed_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(healed, cold, "healed answers must match pre-kill answers");
    assert_eq!(
        healed_stats.cache_hits, 0,
        "the healed domain's stale entry must not be served"
    );
    assert!(
        healed_stats.failovers >= 1,
        "the heal must be attributed to this query's meters: {healed_stats}"
    );
    let report = cluster.deployment().report();
    assert!(
        report.cache_invalidations >= 1,
        "the heal must show as an invalidation"
    );

    // And the cache re-warms over the healed topology.
    let (rewarm, rewarm_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(rewarm, cold);
    assert_eq!(rewarm_stats.cache_hits, 2, "healed domain must re-warm");

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for w in workers {
        let _ = w.join();
    }
}

#[test]
fn inflight_queries_error_loudly_never_hang_and_heal_recovers() {
    // Slow the prober down so the kill window is observable: queries
    // issued between the death and the heal must fail fast and loud.
    let cfg = RegistryConfig {
        probe_interval: Duration::from_millis(300),
        ..fast_cfg()
    };
    let (net, workers, announcer) = spawn_elastic(make_setup(), cfg);
    let cluster = outsource(net, false);
    let oracle = suite(&cluster);

    // Hammer queries from a second thread, then kill a worker under
    // them. The in-flight query must surface a node-down error — not
    // hang, not misroute, not fabricate an answer.
    let cluster = std::sync::Arc::new(cluster);
    let (tx, rx) = std::sync::mpsc::channel();
    let hammer = {
        let cluster = std::sync::Arc::clone(&cluster);
        let oracle_psi = oracle.0.clone();
        std::thread::spawn(move || {
            for _ in 0..1000 {
                match cluster.psi_verified() {
                    Ok((psi, _)) => assert_eq!(psi.fop, oracle_psi, "a survivor round misrouted"),
                    Err(e) => {
                        tx.send(e.to_string()).unwrap();
                        return;
                    }
                }
            }
            tx.send(String::new()).unwrap();
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    workers[0].kill();
    let err = rx
        .recv_timeout(Duration::from_secs(15))
        .expect("in-flight query hung on a dead node");
    hammer.join().unwrap();
    assert!(
        err.contains("node down"),
        "dying node must surface as a node-down transport error, got: {err:?}"
    );

    // After the heal, a fresh query succeeds and matches the oracle.
    wait_for("failover", Duration::from_secs(10), || {
        cluster.deployment().registry().unwrap().failovers() >= 1
    });
    assert_eq!(suite(&cluster), oracle, "post-heal answers");

    let cluster = std::sync::Arc::into_inner(cluster).unwrap();
    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for w in workers {
        let _ = w.join();
    }
}

/// Killing *every* worker of a domain must not wedge or panic the
/// control plane: the domain is held down — queries and uploads against
/// it fail loudly with a node-down transport error — while the upload
/// log is retained, so the first replacement that dials in replays the
/// store and the domain answers bit-identically again.
#[test]
fn last_worker_death_holds_the_domain_down_until_a_replacement() {
    let setup = make_setup();
    let (net, workers, announcer) = spawn_elastic(setup.clone(), fast_cfg());
    let mut cluster = outsource(net, false);
    let oracle = suite(&cluster);
    let registry = cluster.deployment().registry().unwrap();

    // Kill every one of domain 0's workers (spawn order: d0 first).
    for w in &workers[..SHARDS] {
        w.kill();
    }
    wait_for("all of d0 confirmed dead", Duration::from_secs(15), || {
        cluster
            .deployment()
            .report()
            .nodes
            .iter()
            .filter(|n| n.liveness == Liveness::Dead && n.label.starts_with("d0/"))
            .count()
            >= SHARDS
    });

    // Down, not wedged: queries and uploads error loudly and fast.
    let err = cluster.psi_verified().unwrap_err().to_string();
    assert!(
        err.contains("node down"),
        "query against a downed domain must surface node-down, got {err:?}"
    );
    let err = cluster
        .deployment()
        .bulk_upload(0, 0, vec![(Column::Ok, vec![0; DOMAIN])])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("node down"),
        "upload to a downed domain must surface node-down, got {err:?}"
    );

    // A replacement dials in: the retained upload log replays the store
    // into it and the domain comes back up. (Re-upload the canonical
    // columns afterwards so the poison upload attempted above cannot
    // linger in the replayed store.)
    let replacement = ShardWorker::connect(
        setup.servers[0].clone(),
        0,
        registry.addr(),
        Duration::from_secs(10),
    )
    .unwrap();
    wait_for("domain back up", Duration::from_secs(15), || {
        cluster.psi_count().is_ok()
    });
    for (j, input) in inputs().iter().enumerate() {
        cluster.update_owner(j, input).unwrap();
    }
    assert_eq!(suite(&cluster), oracle, "post-revival answers");
    let registry = cluster.deployment().registry().unwrap();
    assert!(
        registry
            .heal_log()
            .iter()
            .any(|l| l.contains(&format!("worker d0/w{} attached", replacement.node_id()))),
        "heal log must record the revival attach: {:?}",
        registry.heal_log()
    );

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    let _ = replacement.join();
    for w in workers {
        let _ = w.join();
    }
}

/// The announcer is a first-class roster citizen: killing it shows up as
/// a Dead roster row, a replacement that dials back in is swapped into
/// the live links in place (no listener restart, no re-upload), the heal
/// log records the resume, and the wide (announcer-backed) rounds answer
/// bit-identically afterwards.
#[test]
fn announcer_reconnects_and_wide_rounds_resume() {
    let setup = make_setup();
    let (net, workers, announcer) = spawn_elastic(setup.clone(), fast_cfg());
    let cluster = outsource(net, false);
    let oracle = suite(&cluster);
    let oracle_max = max_answer(&cluster);
    let registry = cluster.deployment().registry().unwrap();

    announcer.kill();
    wait_for("announcer confirmed dead", Duration::from_secs(15), || {
        cluster
            .deployment()
            .report()
            .nodes
            .iter()
            .any(|n| n.label == "announcer" && n.liveness == Liveness::Dead)
    });

    // Vector rounds never touch the announcer: still served while down.
    assert_eq!(
        cluster.psi_verified().unwrap().0.fop,
        oracle.0,
        "PSI must survive an announcer outage"
    );

    // A replacement dials in and is swapped into the live links.
    let replacement = AnnouncerNode::connect(
        setup.announcer.clone(),
        registry.addr(),
        Duration::from_secs(10),
    )
    .unwrap();
    wait_for(
        "announcer reconnect logged",
        Duration::from_secs(10),
        || {
            registry
                .heal_log()
                .iter()
                .any(|l| l.contains("control edge reconnected"))
        },
    );
    wait_for("announcer alive on roster", Duration::from_secs(10), || {
        cluster
            .deployment()
            .report()
            .nodes
            .iter()
            .any(|n| n.label == "announcer" && n.liveness == Liveness::Alive)
    });

    // Wide rounds resume bit-identically; the whole suite holds.
    assert_eq!(max_answer(&cluster), oracle_max, "post-reconnect max");
    assert_eq!(suite(&cluster), oracle, "post-reconnect answers");

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    let _ = replacement.join();
    for w in workers {
        let _ = w.join();
    }
}

/// A late attach after a failover is absorbed: the under-strength domain
/// re-plans over the larger worker set and keeps answering correctly.
#[test]
fn post_failover_reattach_rejoins_the_domain() {
    let setup = make_setup();
    let (net, workers, announcer) = spawn_elastic(setup.clone(), fast_cfg());
    let cluster = outsource(net, false);
    let oracle = suite(&cluster);

    workers[0].kill();
    let registry = cluster.deployment().registry().unwrap();
    wait_for("failover", Duration::from_secs(10), || {
        registry.failovers() >= 1
    });
    assert_eq!(suite(&cluster), oracle, "post-heal answers");

    // A replacement dials in; the domain re-plans back to full strength
    // and the replayed store keeps the answers identical.
    let replacement = ShardWorker::connect(
        setup.servers[0].clone(),
        0,
        registry.addr(),
        Duration::from_secs(10),
    )
    .unwrap();
    wait_for("reattach", Duration::from_secs(10), || {
        registry
            .heal_log()
            .iter()
            .any(|l| l.contains(&format!("worker d0/w{} attached", replacement.node_id())))
    });
    assert_eq!(suite(&cluster), oracle, "post-reattach answers");

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    let _ = replacement.join();
    for w in workers {
        let _ = w.join();
    }
}

/// With rf=2 a worker death is absorbed twice over: queries in flight
/// retry the range's live replica (zero errors, zero wrong answers),
/// and the confirmed death heals as a metadata-only *promotion* — zero
/// upload-log replay. Only when the last holder of a range dies does the
/// control plane fall back to a replay heal, and only when *every*
/// holder of a range is dead does the domain surface `node down`.
#[test]
fn rf2_worker_death_heals_by_promotion_with_zero_replay() {
    let setup = make_setup();

    let oracle_cluster = outsource(NetCluster::start_local(make_setup()), false);
    let oracle = suite(&oracle_cluster);
    oracle_cluster.into_deployment().shutdown().unwrap();

    let (net, workers, announcer) = spawn_elastic_rf2(setup);
    let cluster = outsource(net, false);
    assert_eq!(suite(&cluster), oracle, "pre-kill answers");

    // Hammer queries from a second thread while range 0's primary dies.
    // Its replica holds the same shares, so the router must absorb the
    // death transparently: zero errors, zero wrong answers.
    let cluster = std::sync::Arc::new(cluster);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let cluster = std::sync::Arc::clone(&cluster);
        let stop = std::sync::Arc::clone(&stop);
        let oracle_psi = oracle.0.clone();
        std::thread::spawn(move || -> Vec<String> {
            let mut errors = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match cluster.psi_verified() {
                    Ok((psi, _)) => assert_eq!(psi.fop, oracle_psi, "a replicated round misrouted"),
                    Err(e) => errors.push(e.to_string()),
                }
            }
            errors
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    // Spawn order per domain is attach order, and holders are assigned
    // round-robin: d0's workers 0..4 hold ranges 0,1,0,1 — workers[0]
    // is range 0's primary, workers[2] its replica.
    workers[0].kill();
    wait_for("promotion", Duration::from_secs(10), || {
        cluster.deployment().registry().unwrap().promotions() >= 1
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let errors = hammer.join().unwrap();
    assert!(
        errors.is_empty(),
        "queries across a replicated primary's death must not error: {errors:?}"
    );
    assert_eq!(
        cluster.deployment().registry().unwrap().replayed_records(),
        0,
        "a promotion heal must not replay the upload log"
    );
    assert_eq!(suite(&cluster), oracle, "post-promotion answers");
    let heal_log = cluster.deployment().registry().unwrap().heal_log();
    assert!(
        heal_log
            .iter()
            .any(|l| l.contains("confirmed dead") && l.contains("zero replay")),
        "heal log must record the promotion: {heal_log:?}"
    );

    // Kill the promoted holder too: range 0 now has no replica left, so
    // the heal must fall back to re-fanning the upload log.
    workers[2].kill();
    wait_for("replay failover", Duration::from_secs(10), || {
        cluster.deployment().registry().unwrap().failovers() >= 2
    });
    assert!(
        cluster.deployment().registry().unwrap().replayed_records() > 0,
        "losing a range's last holder must replay the upload log"
    );
    assert_eq!(suite(&cluster), oracle, "post-replay answers");

    // Only once *every* holder of the domain is dead does it go down.
    workers[1].kill();
    workers[3].kill();
    wait_for("all of d0 confirmed dead", Duration::from_secs(15), || {
        cluster
            .deployment()
            .report()
            .nodes
            .iter()
            .filter(|n| n.liveness == Liveness::Dead && n.label.starts_with("d0/"))
            .count()
            >= RF2_RANGES * RF
    });
    let err = cluster.psi_verified().unwrap_err().to_string();
    assert!(
        err.contains("node down"),
        "a fully dead domain must surface node-down, got {err:?}"
    );

    let cluster = std::sync::Arc::into_inner(cluster).unwrap();
    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for w in workers {
        let _ = w.join();
    }
}

/// Without replicas one kill is still exactly one failover, and the heal
/// has only one way to go: no promotion, the upload log replayed.
#[test]
fn rf1_kill_is_one_failover_healed_by_replay() {
    let (net, workers, announcer) = spawn_elastic(make_setup(), fast_cfg());
    let cluster = outsource(net, false);
    let before = suite(&cluster);

    workers[0].kill();
    let registry = cluster.deployment().registry().unwrap();
    wait_for("failover", Duration::from_secs(10), || {
        registry.failovers() >= 1
    });
    assert_eq!(suite(&cluster), before, "post-heal answers");
    assert_eq!((registry.failovers(), registry.promotions()), (1, 0));
    assert!(
        registry.replayed_records() > 0,
        "an rf=1 heal must re-outsource the upload log"
    );

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for (i, w) in workers.into_iter().enumerate() {
        let joined = w.join();
        assert!(i == 0 || joined.is_ok(), "worker {i} must exit cleanly");
    }
}

/// A promotion replays nothing, so it moves no range version: the heal
/// dirties the domain, the first cached re-query re-probes the promoted
/// primary, finds the stamps its entries were cut against, and replays
/// both rounds from the cache — where the rf=1 replay heal
/// (`failover_invalidates_only_the_healed_domain`) must go cold.
#[test]
fn rf2_promotion_keeps_cached_rounds_warm() {
    let (net, workers, announcer) = spawn_elastic_rf2(make_setup());
    let cluster = outsource(net, true);
    let batch = QueryBatch::new().sum(0).count_tuples();

    let (cold, cold_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!((cold_stats.rounds, cold_stats.cache_misses), (2, 2));
    let (warm, warm_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(warm, cold);
    assert_eq!((warm_stats.rounds, warm_stats.cache_hits), (0, 2));

    // Range 0's primary in domain 0 dies; its replica is promoted.
    workers[0].kill();
    let registry = cluster.deployment().registry().unwrap();
    wait_for("failover", Duration::from_secs(10), || {
        registry.failovers() >= 1
    });

    let (healed, healed_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(healed, cold, "promoted replica answered differently");
    assert_eq!(
        (healed_stats.rounds, healed_stats.cache_hits),
        (0, 2),
        "a promotion moved no rows, so the first re-query must stay warm: {healed_stats}"
    );
    assert_eq!(
        (
            registry.failovers(),
            registry.promotions(),
            registry.replayed_records()
        ),
        (1, 1, 0),
        "one kill at rf=2 is one failover, healed by one promotion, replaying nothing"
    );

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for (i, w) in workers.into_iter().enumerate() {
        let joined = w.join();
        assert!(i == 0 || joined.is_ok(), "worker {i} must exit cleanly");
    }
}

/// Crash ≠ tamper: a replica only ever stands in for a *dead* link. A
/// tampered primary answers with well-formed wrong replies, so the
/// router must NOT retry its honest replica — verification has to
/// surface the lie, exactly as without replication. Killing the liar
/// then promotes the honest replica and the domain answers honestly
/// again with zero replay.
#[test]
fn rf2_tampered_primary_is_detected_never_retried_around() {
    let setup = make_setup();

    let oracle_cluster = outsource(NetCluster::start_local(make_setup()), false);
    let oracle = suite(&oracle_cluster);
    oracle_cluster.into_deployment().shutdown().unwrap();

    // Same topology as `spawn_elastic_rf2`, but d0's first worker — the
    // primary of range 0 — cheats on every run; its replica is honest.
    let listener = ClusterListener::bind(setup.clone(), RF2_RANGES, rf2_cfg()).unwrap();
    let addr = listener.addr();
    let dial = Duration::from_secs(10);
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for s in 0..RF2_RANGES * RF {
            workers.push(if k == 0 && s == 0 {
                ShardWorker::connect_tampered(
                    params.clone(),
                    k,
                    addr,
                    dial,
                    prism_protocol::malicious::Tamper::SkipReplay { src: 0 },
                )
                .unwrap()
            } else {
                ShardWorker::connect(params.clone(), k, addr, dial).unwrap()
            });
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).unwrap();
    let cluster = outsource(listener.start().unwrap(), false);

    let err = cluster.psi_verified().unwrap_err().to_string();
    assert!(
        !err.contains("node down"),
        "tamper must surface as a verification failure, never be masked \
         by a replica retry: {err:?}"
    );

    workers[0].kill();
    let registry = cluster.deployment().registry().unwrap();
    wait_for("promotion", Duration::from_secs(10), || {
        registry.promotions() >= 1
    });
    assert_eq!(
        registry.replayed_records(),
        0,
        "promoting the honest replica must not replay the upload log"
    );
    assert_eq!(suite(&cluster), oracle, "post-promotion answers");

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for (i, w) in workers.into_iter().enumerate() {
        let joined = w.join();
        assert!(i == 0 || joined.is_ok(), "worker {i} must exit cleanly");
    }
}
