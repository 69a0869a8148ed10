//! End-to-end cluster tests over both transports: a full deployment with
//! owners uploading shares through the wire and queries running on server
//! threads.

use prism_net::NetCluster;
use prism_protocol::driver::{Cluster, ClusterConfig, Deployment, InProcess, OwnerInput};

/// Three owners with one aggregation attribute.
fn inputs() -> Vec<OwnerInput> {
    vec![
        OwnerInput::from_pairs([(1, 100), (1, 200), (3, 300), (7, 10)]),
        OwnerInput::from_pairs([(1, 100), (2, 70), (7, 20)]),
        OwnerInput::from_pairs([(1, 300), (1, 700), (3, 500), (7, 30)]),
    ]
}

fn cfg(domain: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(domain);
    cfg.seed = seed;
    cfg
}

/// Nodes on channel links over a 10-cell domain, nothing outsourced yet.
fn start_local() -> NetCluster {
    NetCluster::start_local(cfg(10, 77).setup(3).unwrap())
}

/// Phase 1 through the wire: the owners of `net`'s 10-cell deployment.
fn outsource(net: NetCluster) -> Cluster<NetCluster> {
    Cluster::over(net, &inputs(), cfg(10, 77)).unwrap()
}

fn exercise(net: NetCluster) {
    let cluster = outsource(net);

    // PSI: common values {1, 7}.
    let fop = cluster.psi().unwrap().0.fop;
    let common: Vec<usize> = fop
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| (v == 1).then_some(i))
        .collect();
    assert_eq!(common, vec![0, 6]);

    // Verified PSI agrees.
    let vfop = cluster.psi_verified().unwrap().0.fop;
    assert_eq!(vfop, fop);

    // PSU: union {1, 2, 3, 7}.
    let members = cluster.psu().unwrap().0;
    let union: Vec<usize> = members
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i))
        .collect();
    assert_eq!(union, vec![0, 1, 2, 6]);

    // Counts.
    assert_eq!(cluster.psi_count().unwrap().0, 2);
    assert_eq!(cluster.psi_count_verified().unwrap().0, 2);

    // Sum over attr 0: cell 1 → 1400, cell 7 → 60.
    let sums = cluster.psi_sum(0).unwrap().0;
    assert_eq!(sums[0], 1400);
    assert_eq!(sums[6], 60);
    assert!(sums[1..6].iter().all(|&s| s == 0));

    // Verified sum agrees.
    let vsums = cluster.psi_sum_verified(0).unwrap().0;
    assert_eq!(vsums, sums);

    // Average: cell 1 → 1400/5, cell 7 → 60/3.
    let avg = cluster.psi_avg(0).unwrap().0;
    assert_eq!(avg[0].sum, 1400);
    assert_eq!(avg[0].count, 5);
    assert!((avg[6].average - 20.0).abs() < 1e-9);

    // Max/median: the announcer runs as a fourth networked node; the
    // per-cell maxima/sums are owner-side data the facade kept.
    let (maxes, holders, _) = cluster.psi_max(0).unwrap();
    // Cell 1: maxima 200/100/700 → 700 at owner 2; cell 7: 10/20/30 → 30.
    assert_eq!(
        maxes.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
        vec![(0, 700), (6, 30)]
    );
    assert_eq!(holders[0], vec![false, false, true]);
    assert_eq!(holders[1], vec![false, false, true]);
    let medians = cluster.psi_median(0).unwrap().0;
    // Cell 1 sums: 300/100/1000 → middle 300 (owner 0); cell 7: 10/20/30
    // → middle 20 (owner 1).
    assert_eq!(medians[0].values, vec![300]);
    assert_eq!(medians[0].holders, vec![0]);
    assert_eq!(medians[1].values, vec![20]);
    assert_eq!(medians[1].holders, vec![1]);

    // Communication was metered on every link — including the three
    // announcer edges: both additive servers shipped wide matrices down
    // their dedicated server→announcer links (owners saw only receipts).
    let report = cluster.deployment().report();
    assert_eq!(report.to_servers.len(), 3);
    assert!(report.to_servers.iter().all(|&(bytes, _)| bytes > 0));
    assert!(report.from_servers.iter().all(|&(bytes, _)| bytes > 0));
    assert_eq!(report.server_to_announcer.len(), 2);
    assert!(report
        .server_to_announcer
        .iter()
        .all(|&(b, m)| b > 0 && m > 0));
    assert!(report.to_announcer.1 > 0 && report.from_announcer.1 > 0);
    assert!(report.announcer_bytes() > 0);
    let rendered = format!("{report}");
    assert!(rendered.contains("announcer"));
    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn channel_cluster_end_to_end() {
    exercise(start_local());
}

#[test]
fn tcp_cluster_end_to_end() {
    exercise(NetCluster::start_tcp(cfg(10, 77).setup(3).unwrap()).unwrap());
}

#[test]
fn multithreaded_servers_agree() {
    use prism_protocol::plans;

    let c1 = outsource(start_local());
    let reference = c1.psi().unwrap().0;
    let mut net = c1.into_deployment();
    net.set_threads(4);
    assert_eq!(net.execute(&plans::Psi).unwrap().0, reference);
    net.shutdown().unwrap();
}

#[test]
fn batched_aggregations_use_one_round2_round_trip() {
    use prism_protocol::plans::{AggResult, QueryBatch};

    let cluster = outsource(start_local());

    let before = cluster.deployment().report();
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let (results, stats) = cluster.psi_query_batch(&batch).unwrap();
    let after = cluster.deployment().report();

    // Round accounting: 1 PSI round + 1 batched round 2 for ≥3 aggs.
    assert_eq!(stats.rounds, 2);

    // Message meters: the Shamir-only server (2) saw exactly one request
    // and sent exactly one reply; the additive servers saw two (PSI +
    // batch). No per-aggregation round-trips anywhere.
    let sent = |r: &prism_net::NetReport, k: usize| r.to_servers[k].1;
    let recv = |r: &prism_net::NetReport, k: usize| r.from_servers[k].1;
    assert_eq!(sent(&after, 2) - sent(&before, 2), 1);
    assert_eq!(recv(&after, 2) - recv(&before, 2), 1);
    for k in 0..2 {
        assert_eq!(sent(&after, k) - sent(&before, k), 2, "server {k}");
        assert_eq!(recv(&after, k) - recv(&before, k), 2, "server {k}");
    }

    // Results identical to the sequential queries.
    assert_eq!(results[0], AggResult::Sums(cluster.psi_sum(0).unwrap().0));
    assert_eq!(results[1], AggResult::Avg(cluster.psi_avg(0).unwrap().0));
    match &results[2] {
        AggResult::Counts(counts) => {
            let avg = cluster.psi_avg(0).unwrap().0;
            let expected: Vec<u64> = avg.iter().map(|c| c.count).collect();
            assert_eq!(counts, &expected);
        }
        other => panic!("expected counts, got {other:?}"),
    }

    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn psu_verified_and_tamper_control_work_over_the_wire() {
    use prism_protocol::malicious::Tamper;

    let cluster = outsource(start_local());
    let net = cluster.deployment();
    // Honest: union {1, 2, 3, 7} → size 4.
    assert_eq!(cluster.psu_verified().unwrap().0, 4);
    // Tamper a server through the wire; verified PSI must now fail.
    net.set_tamper(0, Tamper::SkipReplay { src: 0 }).unwrap();
    assert!(cluster.psi_verified().is_err());
    // Restore honesty; verification passes again.
    net.set_tamper(0, Tamper::Honest).unwrap();
    assert!(cluster.psi_verified().is_ok());
    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn announcer_round_accounting_over_the_wire() {
    let cluster = outsource(start_local());
    let net = cluster.deployment();

    // Max: 3 rounds (PSI, combine, claims); exactly one announce request
    // and exactly one wide upload per additive server cross the announcer
    // edges per query.
    let before = net.report();
    let (_, _, stats) = cluster.psi_max(0).unwrap();
    assert_eq!(stats.rounds, 3);
    let after = net.report();
    assert_eq!(after.to_announcer.1 - before.to_announcer.1, 1);
    assert_eq!(after.from_announcer.1 - before.from_announcer.1, 1);
    for k in 0..2 {
        assert_eq!(
            after.server_to_announcer(k).1 - before.server_to_announcer(k).1,
            1,
            "server {k} must upload exactly once per combine round"
        );
    }

    // Median: 2 rounds (PSI, combine), no claim round.
    let (_, stats) = cluster.psi_median(0).unwrap();
    assert_eq!(stats.rounds, 2);

    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn aborted_wide_round_does_not_poison_later_queries() {
    use prism_core::wide::WideVec;
    use prism_protocol::engine::{ServerCmd, ServerExec};
    use prism_protocol::max::BlindedMaxUpload;

    // Round A: server 0 combines successfully (its wide matrix lands on
    // the announcer's edge) while server 1 is handed a malformed combine
    // and reports the zero receipt. The engine aborts the query before
    // any announce — exactly the shape of a mid-query failure.
    let cluster = outsource(start_local());
    let wide_width = cluster.setup().owner.wide_width;
    let uploads = |n: usize| -> Vec<BlindedMaxUpload> {
        (0..n)
            .map(|_| BlindedMaxUpload {
                shares: WideVec::zeroed(2, wide_width),
            })
            .collect()
    };
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
                    uploads: uploads(2), // wrong owner count: server 1 fails
                    threads: 1,
                },
            ),
        ])
        .unwrap()
        .replies;
    assert_eq!(replies.len(), 2);

    // Round B: a full max query on the same cluster. The announcer must
    // pair only round-B uploads — the sequence numbers let it discard
    // server 0's stale round-A matrix instead of crossing rounds.
    let (maxes, holders, _) = cluster.psi_max(0).unwrap();
    assert_eq!(
        maxes.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
        vec![(0, 700), (6, 30)]
    );
    assert_eq!(holders[0], vec![false, false, true]);
    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn server_side_errors_surface_as_errors_not_panics() {
    use prism_protocol::plans;

    // A query against a server whose store is empty (nothing uploaded)
    // errors inside the node; the wire reports an empty output list and
    // the engine's reply-shape check must turn that into an Err at the
    // owner — never an index panic.
    let net = start_local();
    assert!(net.execute(&plans::Psi).is_err());
    assert!(net.execute(&plans::Sum { attr: 0, seed: 1 }).is_err());
    assert!(net.execute(&plans::CountVerified).is_err());
    net.shutdown().unwrap();
}

#[test]
fn byte_accounting_scales_with_domain() {
    // Bigger domain ⇒ more bytes per round, same message count per query.
    let psi_reply_bytes = |domain: usize, seed: u64| {
        let net = NetCluster::start_local(cfg(domain, seed).setup(3).unwrap());
        let c = Cluster::over(net, &inputs(), cfg(domain, seed)).unwrap();
        c.psi().unwrap();
        let r = c.deployment().report();
        c.into_deployment().shutdown().unwrap();
        r.from_servers[0].0
    };
    let (small, big) = (psi_reply_bytes(10, 77), psi_reply_bytes(1000, 78));
    assert!(big > 10 * small, "big={big} small={small}");
}

/// A lean wire deployment answers an unavailable query with the same
/// typed `ParameterMismatch` as in-process — and sends **zero** messages
/// doing so (before the preflight moved into the shared facade the round
/// was shipped, the node's error swallowed into an empty `Outputs`, and
/// the owner saw a shape error after a full round-trip).
#[test]
fn lean_wire_deployment_refuses_unavailable_queries_without_sending() {
    use prism_protocol::ProtocolError;

    /// What `psi_verified`, `psi_count_verified`, `psi_sum(0)` and
    /// `psi_sum(9)` are refused with.
    fn refusals<D: Deployment>(c: &Cluster<D>) -> Vec<ProtocolError> {
        vec![
            c.psi_verified().unwrap_err(),
            c.psi_count_verified().unwrap_err(),
            c.psi_sum(0).unwrap_err(),
            c.psi_sum(9).unwrap_err(),
        ]
    }
    let mut lean = cfg(10, 77);
    lean.with_verification = false;
    lean.with_aggregation = false;
    let net = NetCluster::start_local(lean.setup(3).unwrap());
    let wire = Cluster::over(net, &inputs(), lean.clone()).unwrap();
    let before = wire.deployment().report();
    let refused = refusals(&wire);
    let after = wire.deployment().report();
    let is_mismatch = |e: &ProtocolError| matches!(e, ProtocolError::ParameterMismatch(_));
    assert!(refused.iter().all(is_mismatch), "{refused:?}");
    assert_eq!(refused, refusals(&Cluster::build(&inputs(), lean).unwrap()));
    let msgs = |r: &prism_net::NetReport| -> u64 {
        let links = r.to_servers.iter().chain(&r.from_servers);
        links.map(|&(_, m)| m).sum::<u64>() + r.to_announcer.1
    };
    assert_eq!(
        msgs(&after),
        msgs(&before),
        "a refused query must send nothing"
    );
    // What the lean column set does carry still answers.
    assert!(wire.psi().is_ok());
    wire.into_deployment().shutdown().unwrap();
}

/// A rejected `append` must leave the cluster as it was: owner 1's row
/// falls outside the appended window, so nothing — not owner 0's delta,
/// not the grown setup — may have moved (the append used to grow every
/// server domain with owner 0's delta before validating owner 1, and
/// every later query failed with `ParameterMismatch`). The answers stay
/// the pre-append ones and a following good append succeeds.
fn rejected_append_leaves_the_cluster_as_it_was<D: Deployment>(mut c: Cluster<D>) -> Cluster<D> {
    use prism_protocol::plans::QueryBatch;

    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let answers = |c: &Cluster<D>| {
        (
            c.psi().unwrap().0,
            c.psi_sum(0).unwrap().0,
            c.psi_query_batch(&batch).unwrap().0,
        )
    };
    let before = answers(&c);
    let ok = || OwnerInput::from_pairs([(11, 5)]);
    let outside = OwnerInput::from_pairs([(11, 5), (2, 9)]);
    let err = c.append(2, &[ok(), outside, ok()]).unwrap_err().to_string();
    assert!(err.contains("owner 1: 2 (cells are 11..=12)"), "{err}");
    assert_eq!(c.setup().owner.b, 10, "a rejected append grew the setup");
    assert_eq!(answers(&c), before, "a rejected append changed the answers");

    c.append(2, &[ok(), ok(), ok()]).unwrap();
    assert_eq!(c.setup().owner.b, 12);
    let (psi, sums, _) = answers(&c);
    assert_eq!(psi.common, vec![0, 6, 10]);
    assert_eq!(sums[10], 15);
    c
}

#[test]
fn rejected_append_leaves_the_cluster_as_it_was_in_process() {
    let c: Cluster<InProcess> = Cluster::build(&inputs(), cfg(10, 77)).unwrap();
    rejected_append_leaves_the_cluster_as_it_was(c);
}

#[test]
fn rejected_append_leaves_the_cluster_as_it_was_over_channel_links() {
    let c = rejected_append_leaves_the_cluster_as_it_was(outsource(start_local()));
    c.into_deployment().shutdown().unwrap();
}

/// The owner-side trace of one deployment's queries: every round records
/// its three wire stages once, the query its admission wait once, the
/// clocks `QueryStats` reports are views of the trace, and the stages
/// never add up to more than the wall time around the call — for a
/// one-round plan, a two-round batch and a bare `ServerExec` round.
fn trace_accounts_each_round_once(net: NetCluster) {
    use prism_protocol::engine::{BatchItem, BatchQuery, QueryOp, ServerCmd, ServerExec};
    use prism_protocol::metrics::Stage;
    use prism_protocol::{plans, QueryStats, QueryTrace};
    use std::time::{Duration, Instant};

    let wire_stages = [Stage::Encode, Stage::WireWait, Stage::Decode];
    let check = |trace: &QueryTrace, rounds: u32, queries: u32, wall: Duration| {
        for stage in wire_stages {
            assert_eq!(trace.records(stage), rounds, "{}", stage.name());
        }
        assert_eq!(trace.records(Stage::ServerCompute), 0);
        assert_eq!(trace.records(Stage::AdmissionWait), queries);
        assert!(
            trace.total() <= wall,
            "stages sum to {:?}, past the {wall:?} wall",
            trace.total()
        );
    };
    let cluster = outsource(net);
    let timed = |run: &dyn Fn() -> QueryStats| {
        let t0 = Instant::now();
        let stats = run();
        (stats, t0.elapsed())
    };
    let batch = plans::QueryBatch::new().sum(0).count_tuples();
    let runs: [&dyn Fn() -> QueryStats; 2] = [&|| cluster.psi_count().unwrap().1, &|| {
        cluster.psi_query_batch(&batch).unwrap().1
    }];
    for (run, rounds) in runs.into_iter().zip([1, 2]) {
        let (stats, wall) = timed(run);
        assert_eq!(stats.rounds(), rounds);
        check(&stats.trace, rounds as u32, 1, wall);
        assert!(stats.trace.records(Stage::OwnerStep) >= 1);
        assert_eq!(stats.server_time(), stats.trace.server_time());
        assert_eq!(stats.owner_time(), stats.trace.spent(Stage::OwnerStep));
    }

    let net = cluster.into_deployment();
    let cmds = (0..2)
        .map(|s| {
            let batch = BatchQuery {
                zs: vec![],
                items: vec![BatchItem::plain(QueryOp::Psi)],
                threads: 1,
                range: None,
            };
            (s, ServerCmd::Run(batch))
        })
        .collect();
    let t0 = Instant::now();
    let outcome = net.round(cmds).unwrap();
    check(&outcome.trace, 1, 0, t0.elapsed());
    net.shutdown().unwrap();
}

#[test]
fn query_trace_records_each_stage_once_per_round_over_channels() {
    trace_accounts_each_round_once(start_local());
}

#[test]
fn query_trace_records_each_stage_once_per_round_over_tcp() {
    trace_accounts_each_round_once(NetCluster::start_tcp(cfg(10, 77).setup(3).unwrap()).unwrap());
}
