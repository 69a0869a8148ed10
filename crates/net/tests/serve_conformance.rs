//! Interleaving conformance for the query multiplexer: K concurrent
//! queries over one cluster's persistent links must be **bit-identical**
//! to the same queries run serially — results, verification verdicts,
//! and per-query round counts — across transports (channels, TCP),
//! shard counts (1, 4), and the PSI-round cache (off, warmed on). The
//! suite also pins that every event is counted once (the deployment's
//! `Metrics` move by exactly the sum of the per-query `QueryStats`
//! counts, across an elastic failover too) and that no link pump ever
//! drops a reply (`rejected_replies == 0`).
//!
//! The property tests at the bottom interleave concurrent query bursts
//! with owner re-uploads under random schedules and compare every
//! answer against the in-memory driver as a serial oracle: an acked
//! upload must be visible to every query admitted after it (never
//! stale), and no query may receive another query's reply (never
//! cross-paired — any crossing would corrupt at least one result).

use prism_net::{
    AnnouncerNode, ClusterListener, ControlEvent, NetCluster, RegistryConfig, ShardWorker,
};
use prism_protocol::driver::{Cluster, ClusterConfig, Deployment, OwnerInput};
use prism_protocol::engine::{QueryStats, ServerExec};
use prism_protocol::malicious::Tamper;
use prism_protocol::metrics::{Counter, Counts};
use prism_protocol::params::Setup;
use prism_protocol::plans::{self, QueryBatch};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const DOMAIN: usize = 10;

/// Concurrent query streams in the interleaved phase.
const K: usize = 3;

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

/// Phase 1 through the wire (every column the full query mix needs), the
/// PSI-round cache on or off.
fn outsource(mut net: NetCluster, cache: bool) -> Cluster<NetCluster> {
    if cache {
        net.enable_cache();
    }
    Cluster::over(net, &inputs(), cfg()).unwrap()
}

/// Every operation the protocol serves, including the announcer-backed
/// wide ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Q {
    Psi,
    PsiVerified,
    Psu,
    PsuVerified,
    Count,
    CountVerified,
    Sum,
    SumVerified,
    Avg,
    Batch,
    Max,
    Median,
}

const QS: [Q; 12] = [
    Q::Psi,
    Q::PsiVerified,
    Q::Psu,
    Q::PsuVerified,
    Q::Count,
    Q::CountVerified,
    Q::Sum,
    Q::SumVerified,
    Q::Avg,
    Q::Batch,
    Q::Max,
    Q::Median,
];

/// Run one query as `owner` and flatten its typed output to a debug
/// string, so results of different operations compare uniformly —
/// bit-identical outputs produce identical strings.
fn run_query(c: &Cluster<NetCluster>, owner: u32, q: Q) -> Result<(String, QueryStats), String> {
    fn fmt<T: std::fmt::Debug>(
        r: prism_protocol::Result<(T, QueryStats)>,
    ) -> Result<(String, QueryStats), String> {
        r.map(|(out, stats)| (format!("{out:?}"), stats))
            .map_err(|e| e.to_string())
    }
    let net = c.deployment();
    match q {
        Q::Psi => fmt(net.execute_as(owner, &plans::Psi)),
        Q::PsiVerified => fmt(net.execute_as(owner, &plans::PsiVerified)),
        Q::Psu => fmt(net.execute_as(owner, &plans::Psu)),
        Q::PsuVerified => fmt(net.execute_as(owner, &plans::PsuVerified)),
        Q::Count => fmt(net.execute_as(owner, &plans::Count)),
        Q::CountVerified => fmt(net.execute_as(owner, &plans::CountVerified)),
        Q::Sum => fmt(net.execute_as(owner, &plans::Sum { attr: 0, seed: 9 })),
        Q::SumVerified => fmt(net.execute_as(owner, &plans::SumVerified { attr: 0, seed: 10 })),
        Q::Avg => fmt(net.execute_as(owner, &plans::Average { attr: 0, seed: 11 })),
        Q::Batch => {
            let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
            fmt(net.execute_as(
                owner,
                &plans::Batch {
                    batch: &batch,
                    seed: 21,
                },
            ))
        }
        Q::Max => fmt(net.execute_as(owner, &c.max_plan(0).unwrap())),
        Q::Median => fmt(net.execute_as(owner, &c.median_plan(0).unwrap())),
    }
}

/// [`run_query`]'s answer on any deployment, as the default owner.
fn answer<D: Deployment>(c: &Cluster<D>, q: Q) -> String {
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let out = match q {
        Q::Psi => c.execute(&plans::Psi).map(|r| format!("{:?}", r.0)),
        Q::PsiVerified => c.execute(&plans::PsiVerified).map(|r| format!("{:?}", r.0)),
        Q::Psu => c.execute(&plans::Psu).map(|r| format!("{:?}", r.0)),
        Q::PsuVerified => c.execute(&plans::PsuVerified).map(|r| format!("{:?}", r.0)),
        Q::Count => c.execute(&plans::Count).map(|r| format!("{:?}", r.0)),
        Q::CountVerified => c
            .execute(&plans::CountVerified)
            .map(|r| format!("{:?}", r.0)),
        Q::Sum => c
            .execute(&plans::Sum { attr: 0, seed: 9 })
            .map(|r| format!("{:?}", r.0)),
        Q::SumVerified => {
            (c.execute(&plans::SumVerified { attr: 0, seed: 10 })).map(|r| format!("{:?}", r.0))
        }
        Q::Avg => (c.execute(&plans::Average { attr: 0, seed: 11 })).map(|r| format!("{:?}", r.0)),
        Q::Batch => (c.execute(&plans::Batch {
            batch: &batch,
            seed: 21,
        }))
        .map(|r| format!("{:?}", r.0)),
        Q::Max => c
            .max_plan(0)
            .and_then(|p| c.execute(&p))
            .map(|r| format!("{:?}", r.0)),
        Q::Median => (c.median_plan(0).and_then(|p| c.execute(&p))).map(|r| format!("{:?}", r.0)),
    };
    out.unwrap_or_else(|e| panic!("{q:?}: {e}"))
}

/// Buffers cross nodes inside one process: the owner's `z` columns move to
/// the servers, replies move to the owner, and every layer draws row
/// buffers from the one pool, stale cells included. Every operation, on
/// channel and TCP links, one and two shards, the cache on, with the
/// domain grown between passes, answers what the in-memory oracle does —
/// and in debug builds every recycled buffer is poisoned, so a cell a
/// round failed to write would show as `u64::MAX` in some answer.
#[test]
fn every_plan_matches_the_oracle_as_the_domain_grows() {
    type Start = fn(Setup, usize) -> NetCluster;
    let starts: [(&str, Start); 2] = [
        ("channel", NetCluster::start_local_sharded),
        ("tcp", |setup, shards| {
            NetCluster::start_tcp_sharded(setup, shards).unwrap()
        }),
    ];
    let start = |start: Start, shards| {
        let mut net = start(make_setup(), shards);
        net.enable_cache();
        net
    };
    for (transport, begin) in starts {
        for shards in [1, 2] {
            let mut net = Cluster::over(start(begin, shards), &inputs(), cfg()).unwrap();
            let mut oracle = Cluster::build(&inputs(), cfg()).unwrap();
            for pass in 0..3u64 {
                for q in QS {
                    let want = answer(&oracle, q);
                    for _ in 0..2 {
                        let got = answer(&net, q);
                        assert_eq!(got, want, "{transport} × {shards}, pass {pass}: {q:?}");
                    }
                }
                let b = oracle.setup().owner.b as u64;
                let delta: Vec<OwnerInput> = (0..3)
                    .map(|j| OwnerInput::from_pairs((b + 1..=b + 4).map(|v| (v, v * 7 + j))))
                    .collect();
                oracle.append(4, &delta).unwrap();
                net.append(4, &delta).unwrap();
            }
            net.into_deployment().shutdown().unwrap();
        }
    }
}

/// Tamper sub-phase: with server 0 tampering, every interleaved plain
/// query returns the same (deterministically corrupted) result and every
/// interleaved verified query fails — verdicts never cross between
/// concurrent queries. Honesty restored afterwards.
fn tamper_phase(cluster: &Cluster<NetCluster>) {
    let net = cluster.deployment();
    net.set_tamper(0, Tamper::SkipReplay { src: 0 }).unwrap();
    let tampered_psi = run_query(cluster, 0, Q::Psi).unwrap().0;
    assert!(run_query(cluster, 0, Q::PsiVerified).is_err());
    std::thread::scope(|s| {
        for i in 0..K as u32 {
            let tampered_psi = &tampered_psi;
            s.spawn(move || {
                for _ in 0..2 {
                    assert_eq!(
                        &run_query(cluster, i, Q::Psi).unwrap().0,
                        tampered_psi,
                        "tampered plain result must match the serial tampered run"
                    );
                    assert!(
                        run_query(cluster, i, Q::PsiVerified).is_err(),
                        "every interleaved verified query must catch the tamper"
                    );
                }
            });
        }
    });
    net.set_tamper(0, Tamper::Honest).unwrap();
    assert!(run_query(cluster, 0, Q::PsiVerified).is_ok());
}

/// The headline harness: serial reference for every operation, then K
/// interleaved streams running the full mix in rotated order, compared
/// query-by-query — results, rounds, and (with the cache on) per-query
/// hit/miss counts. Ends with the tamper sub-phase and the link-health
/// pins.
fn conformance(net: NetCluster, cache_on: bool) {
    let cluster = outsource(net, cache_on);
    let net = cluster.deployment();

    // With the cache on, warm it first: two concurrent *cold* identical
    // queries legitimately both miss, so the deterministic comparison is
    // interleaved-warm vs serial-warm.
    if cache_on {
        for q in QS {
            run_query(&cluster, 0, q).unwrap();
        }
    }
    let reference: Vec<(Q, String, QueryStats)> = QS
        .iter()
        .map(|&q| {
            let (out, stats) = run_query(&cluster, 0, q).unwrap();
            (q, out, stats)
        })
        .collect();

    let metrics = net.registry().unwrap().metrics();
    let before = metrics.snapshot();
    let interleaved: Vec<Vec<(Q, String, QueryStats)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let cluster = &cluster;
                s.spawn(move || {
                    // Rotate the mix per stream so different operations
                    // collide on the links at the same time.
                    (0..QS.len())
                        .map(|k| {
                            let q = QS[(k + 4 * i) % QS.len()];
                            let (out, stats) = run_query(cluster, i as u32, q).unwrap();
                            (q, out, stats)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = metrics.snapshot();

    let mut sum = Counts::default();
    for stream in &interleaved {
        for (q, out, stats) in stream {
            let (_, ref_out, ref_stats) = reference.iter().find(|(rq, _, _)| rq == q).unwrap();
            assert_eq!(
                out, ref_out,
                "{q:?}: interleaved result differs from serial"
            );
            assert_eq!(
                stats.rounds, ref_stats.rounds,
                "{q:?}: interleaved round count differs from serial"
            );
            if cache_on {
                assert_eq!(
                    stats.cache_hits(),
                    ref_stats.cache_hits(),
                    "{q:?}: cache hits"
                );
                assert_eq!(
                    stats.cache_misses(),
                    ref_stats.cache_misses(),
                    "{q:?}: cache misses"
                );
            }
            sum.merge(&stats.counts);
        }
    }

    // Counted once: every query-driven counter of the deployment's
    // metrics moved by exactly the sum of the per-query stats —
    // concurrency never double-counts or loses a round's accounting.
    counted_once(before, after, sum);

    tamper_phase(&cluster);

    assert_eq!(
        net.rejected_replies(),
        0,
        "no pump may ever drop a reply in a healthy cluster"
    );
    assert_eq!(net.queries_in_flight(), 0);
    cluster.into_deployment().shutdown().unwrap();
}

/// Counted once: between two snapshots of the deployment's metrics,
/// every query-driven counter moved by exactly `sum`, the per-query
/// counts of the queries run in between.
fn counted_once(before: Counts, after: Counts, sum: Counts) {
    for c in Counter::ALL.into_iter().filter(|c| c.per_query()) {
        assert_eq!(after[c] - before[c], sum[c], "{c:?}: not counted once");
    }
}

/// Counted once across a heal: K streams query an elastic rf-2 cluster,
/// cache on, while range 0's primary in domain 0 dies. The promotion
/// heal keeps every query answering, and its one failover lands in
/// exactly one query's stats beside the cache's probes and misses.
#[test]
fn elastic_failover_is_counted_once() {
    let setup = make_setup();
    let registry = RegistryConfig {
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(2),
        miss_budget: 5,
        attach_timeout: Duration::from_secs(20),
        heal_timeout: Duration::from_secs(5),
        replication: 2,
    };
    let listener = ClusterListener::bind(setup.clone(), 2, registry).unwrap();
    let (addr, dial) = (listener.addr(), Duration::from_secs(10));
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for _ in 0..4 {
            workers.push(ShardWorker::connect(params.clone(), k, addr, dial).unwrap());
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).unwrap();
    let cluster = outsource(listener.start().unwrap(), true);
    let metrics = cluster.deployment().registry().unwrap().metrics();
    let before = metrics.snapshot();

    let stop = AtomicBool::new(false);
    let streams: Vec<Counts> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let (cluster, stop) = (&cluster, &stop);
                s.spawn(move || {
                    let mut sum = Counts::default();
                    for k in 0.. {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let q = QS[(k + 4 * i) % QS.len()];
                        let (_, stats) = run_query(cluster, i as u32, q).unwrap();
                        sum.merge(&stats.counts);
                    }
                    sum
                })
            })
            .collect();
        // Domain 0's workers hold ranges 0, 1, 0, 1 in attach order.
        let dead = workers[0].node_id();
        workers[0].kill();
        let registry = cluster.deployment().registry().unwrap();
        let healed = registry.wait_event(
            Duration::from_secs(10),
            |e| matches!(*e, ControlEvent::Failover(_, w, ..) if w == dead),
        );
        assert!(healed.is_some(), "no failover");
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut sum = Counts::default();
    for stream in &streams {
        sum.merge(stream);
    }
    // A verified round always reaches the servers, so it claims the
    // failover if no stream's round did.
    sum.merge(&run_query(&cluster, 0, Q::PsiVerified).unwrap().1.counts);
    let after = metrics.snapshot();
    counted_once(before, after, sum);
    assert_eq!(
        (sum[Counter::Failovers], after[Counter::Promotions]),
        (1, 1)
    );

    cluster.into_deployment().shutdown().unwrap();
    let _ = announcer.join();
    for w in workers {
        let _ = w.join();
    }
}

#[test]
fn channel_interleaved_matches_serial() {
    conformance(NetCluster::start_local(make_setup()), false);
}

#[test]
fn channel_sharded_interleaved_matches_serial() {
    conformance(NetCluster::start_local_sharded(make_setup(), 4), false);
}

#[test]
fn channel_cached_interleaved_matches_serial() {
    conformance(NetCluster::start_local(make_setup()), true);
}

#[test]
fn channel_sharded_cached_interleaved_matches_serial() {
    conformance(NetCluster::start_local_sharded(make_setup(), 4), true);
}

#[test]
fn tcp_interleaved_matches_serial() {
    conformance(NetCluster::start_tcp(make_setup()).unwrap(), false);
}

#[test]
fn tcp_sharded_interleaved_matches_serial() {
    conformance(
        NetCluster::start_tcp_sharded(make_setup(), 4).unwrap(),
        false,
    );
}

#[test]
fn tcp_cached_interleaved_matches_serial() {
    conformance(NetCluster::start_tcp(make_setup()).unwrap(), true);
}

#[test]
fn tcp_sharded_cached_interleaved_matches_serial() {
    conformance(
        NetCluster::start_tcp_sharded(make_setup(), 4).unwrap(),
        true,
    );
}

/// Interleaved streams in the many-streams case: more than a node keeps
/// parked round workers (two), so every node serves rounds on parked and
/// freshly started workers side by side.
const MANY: usize = 8;

/// `MANY` streams each run the full mix, rotated, on every deployment
/// shape — channel and TCP, one and four shards: every answer and round
/// count is the one the query gets run serially.
#[test]
fn more_streams_than_parked_workers_match_serial() {
    for net in [
        NetCluster::start_local(make_setup()),
        NetCluster::start_local_sharded(make_setup(), 4),
        NetCluster::start_tcp(make_setup()).unwrap(),
        NetCluster::start_tcp_sharded(make_setup(), 4).unwrap(),
    ] {
        let cluster = outsource(net, false);
        let serial: Vec<(String, QueryStats)> = QS
            .iter()
            .map(|&q| run_query(&cluster, 0, q).unwrap())
            .collect();
        std::thread::scope(|s| {
            for i in 0..MANY {
                let (cluster, serial) = (&cluster, &serial);
                s.spawn(move || {
                    for k in 0..QS.len() {
                        let j = (k + i) % QS.len();
                        let (out, stats) = run_query(cluster, (i % 3) as u32, QS[j]).unwrap();
                        let q = QS[j];
                        assert_eq!(out, serial[j].0, "{q:?} on stream {i}");
                        assert_eq!(stats.rounds, serial[j].1.rounds, "{q:?} on stream {i}");
                    }
                });
            }
        });
        assert_eq!(cluster.deployment().rejected_replies(), 0);
        cluster.into_deployment().shutdown().unwrap();
    }
}

/// Two queries in flight on the same nodes draw their reply buffers from
/// the same pool, as they are, and hand them back while the other query
/// is still being served. Pairs of different
/// operations with equally long replies, a hundred times each side by
/// side: every answer is the one the query gets alone.
#[test]
fn interleaved_queries_never_see_each_others_cells() {
    let tcp = NetCluster::start_tcp(make_setup()).unwrap();
    for net in [NetCluster::start_local_sharded(make_setup(), 2), tcp] {
        let cluster = outsource(net, false);
        for pair in [
            [Q::Psi, Q::Psu],
            [Q::PsiVerified, Q::CountVerified],
            [Q::Batch, Q::Sum],
        ] {
            let alone = pair.map(|q| run_query(&cluster, 0, q).unwrap().0);
            std::thread::scope(|s| {
                for (owner, (q, alone)) in pair.into_iter().zip(&alone).enumerate() {
                    let cluster = &cluster;
                    s.spawn(move || {
                        for round in 0..100 {
                            let (got, _) = run_query(cluster, owner as u32, q).unwrap();
                            assert_eq!(&got, alone, "{q:?} beside {pair:?}, round {round}");
                        }
                    });
                }
            });
        }
        assert_eq!(cluster.deployment().rejected_replies(), 0);
        cluster.into_deployment().shutdown().unwrap();
    }
}

#[test]
fn small_admission_window_still_serves_every_query() {
    let mut net = NetCluster::start_local(make_setup());
    net.set_admission_window(2);
    let cluster = outsource(net, false);
    let reference = run_query(&cluster, 0, Q::Psi).unwrap().0;
    std::thread::scope(|s| {
        for i in 0..6u32 {
            let cluster = &cluster;
            let reference = &reference;
            s.spawn(move || {
                assert_eq!(&run_query(cluster, i % 3, Q::Psi).unwrap().0, reference);
            });
        }
    });
    assert_eq!(cluster.deployment().queries_in_flight(), 0);
    assert_eq!(cluster.deployment().rejected_replies(), 0);
    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn aborted_query_interleaved_with_honest_ones_does_not_poison_links() {
    use prism_core::wide::WideVec;
    use prism_protocol::engine::ServerCmd;
    use prism_protocol::max::BlindedMaxUpload;

    let cluster = outsource(NetCluster::start_local(make_setup()), false);
    let reference = run_query(&cluster, 0, Q::Psi).unwrap().0;

    // One stream issues a doomed wide round (server 1 gets the wrong
    // owner count and reports the zero receipt — the mid-flight abort
    // shape) while honest PSI streams share the same links.
    let wide_width = cluster.setup().owner.wide_width;
    let uploads = |n: usize| -> Vec<BlindedMaxUpload> {
        (0..n)
            .map(|_| BlindedMaxUpload {
                shares: WideVec::zeroed(2, wide_width),
            })
            .collect()
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let replies = cluster
                .deployment()
                .round(vec![
                    (
                        0,
                        ServerCmd::MaxCombine {
                            uploads: uploads(3),
                            threads: 1,
                        },
                    ),
                    (
                        1,
                        ServerCmd::MaxCombine {
                            uploads: uploads(2),
                            threads: 1,
                        },
                    ),
                ])
                .unwrap()
                .replies;
            assert_eq!(replies.len(), 2);
        });
        for i in 0..K as u32 {
            let cluster = &cluster;
            let reference = &reference;
            s.spawn(move || {
                assert_eq!(&run_query(cluster, i, Q::Psi).unwrap().0, reference);
            });
        }
    });

    // A later full max query must pair only its own round's uploads —
    // the announcer discards the aborted round's stale matrix by seq.
    let (max_out, _) = run_query(&cluster, 0, Q::Max).unwrap();
    let serial_max = run_query(&cluster, 0, Q::Max).unwrap().0;
    assert_eq!(max_out, serial_max);
    assert_eq!(cluster.deployment().rejected_replies(), 0);
    cluster.into_deployment().shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Property tests: random schedules of concurrent query bursts
// interleaved with owner re-uploads, against the in-memory driver as a
// serial oracle.
// ---------------------------------------------------------------------

/// One schedule step: re-outsource an owner's relation (acked before the
/// schedule proceeds), or a burst of queries that run concurrently and
/// join before the next step.
#[derive(Debug, Clone)]
enum Step {
    Upload { owner: usize, rows: Vec<(u64, u64)> },
    Burst(Vec<u8>),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        any::<bool>(),
        0usize..3,
        vec((1u64..=DOMAIN as u64, 0u64..100), 0..6),
        vec(0u8..4, 1..4),
    )
        .prop_map(|(is_upload, owner, rows, kinds)| {
            if is_upload {
                Step::Upload { owner, rows }
            } else {
                Step::Burst(kinds)
            }
        })
}

/// Answer one burst query kind on the oracle (serially).
fn oracle_answer(oracle: &Cluster, kind: u8) -> String {
    match kind % 4 {
        0 => format!("{:?}", oracle.psi().unwrap().0),
        1 => format!("{:?}", oracle.psi_count().unwrap().0),
        2 => format!("{:?}", oracle.psi_sum(0).unwrap().0),
        _ => {
            let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
            format!("{:?}", oracle.psi_query_batch(&batch).unwrap().0)
        }
    }
}

/// Answer one burst query kind on the networked cluster as `owner`.
fn net_answer(net: &NetCluster, owner: u32, kind: u8) -> (String, QueryStats) {
    let fmt = |r: Result<(String, QueryStats), String>| r.unwrap();
    match kind % 4 {
        0 => fmt(net
            .execute_as(owner, &plans::Psi)
            .map(|(o, s)| (format!("{o:?}"), s))
            .map_err(|e| e.to_string())),
        1 => fmt(net
            .execute_as(owner, &plans::Count)
            .map(|(o, s)| (format!("{o:?}"), s))
            .map_err(|e| e.to_string())),
        2 => fmt(net
            .execute_as(owner, &plans::Sum { attr: 0, seed: 9 })
            .map(|(o, s)| (format!("{o:?}"), s))
            .map_err(|e| e.to_string())),
        _ => {
            let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
            fmt(net
                .execute_as(
                    owner,
                    &plans::Batch {
                        batch: &batch,
                        seed: 21,
                    },
                )
                .map(|(o, s)| (format!("{o:?}"), s))
                .map_err(|e| e.to_string()))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random schedules of concurrent query bursts interleaved with
    /// owner re-uploads: every query admitted after an acked upload
    /// sees it (never stale), every answer matches the serial oracle
    /// bit for bit (never cross-paired), and the cluster's cache
    /// meters move by exactly the sum of the burst's per-query stats.
    #[test]
    fn random_schedules_match_the_serial_oracle(
        steps in vec(step_strategy(), 1..6),
        cache in any::<bool>(),
        shards in 1usize..=2,
    ) {
        let mut wire = outsource(NetCluster::start_local_sharded(make_setup(), shards), cache);
        let mut oracle = Cluster::build(&inputs(), cfg()).unwrap();

        for step in steps {
            match step {
                Step::Upload { owner, rows } => {
                    let input = OwnerInput::from_pairs(rows);
                    oracle.update_owner(owner, &input).unwrap();
                    wire.update_owner(owner, &input).unwrap();
                }
                Step::Burst(kinds) => {
                    let net = wire.deployment();
                    let metrics = net.registry().unwrap().metrics();
                    let before = metrics.snapshot();
                    let results: Vec<(u8, String, QueryStats)> = std::thread::scope(|s| {
                        let handles: Vec<_> = kinds
                            .iter()
                            .enumerate()
                            .map(|(i, &kind)| {
                                s.spawn(move || {
                                    let (out, stats) = net_answer(net, i as u32, kind);
                                    (kind, out, stats)
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).collect()
                    });
                    let after = metrics.snapshot();
                    let mut sum = Counts::default();
                    for (kind, out, stats) in &results {
                        // Both sides debug-print the same output types
                        // (`PsiOutcome`, `usize`, `Vec<u64>`,
                        // `Vec<AggResult>`), so string equality is
                        // bit-identity of the results.
                        prop_assert_eq!(
                            &oracle_answer(&oracle, *kind),
                            out,
                            "kind {}: concurrent answer diverged from the serial \
                             oracle (stale or cross-paired reply)",
                            kind
                        );
                        sum.merge(&stats.counts);
                    }
                    for c in [Counter::CacheHits, Counter::CacheMisses] {
                        prop_assert_eq!(after[c] - before[c], sum[c]);
                    }
                    prop_assert_eq!(net.rejected_replies(), 0);
                }
            }
        }
        prop_assert_eq!(wire.deployment().queries_in_flight(), 0);
        wire.into_deployment().shutdown().unwrap();
    }
}
