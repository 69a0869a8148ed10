//! Sharded-domain deployment tests over the wire: every operation the
//! cluster exposes returns bit-identical results and round counts for
//! shard counts {1, 2, 4, 8}; bulk uploads cut Phase-1 round-trips to one
//! per owner per server; per-shard traffic is metered; and the tamper
//! matrix behaves identically whatever the shard count.

use prism_core::Prg;
use prism_net::{
    AnnouncerNode, ClusterListener, Column, NetCluster, NetReport, RegistryConfig, ShardWorker,
};
use prism_protocol::driver::{Cluster, ClusterConfig, Deployment, OwnerInput, QueryStats};
use prism_protocol::malicious::Tamper;
use prism_protocol::params::Setup;
use prism_protocol::plans::QueryBatch;
use prism_protocol::tables::{owner_uploads, ColumnSet, OwnerTable};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Debug;

const DOMAIN: usize = 24;

fn cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DOMAIN);
    cfg.seed = seed;
    cfg.agg_domain_max = 2000;
    cfg
}

fn make_setup(seed: u64) -> Setup {
    cfg(seed).setup(3).unwrap()
}

fn rows() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(1, 100), (1, 200), (3, 300), (7, 10), (20, 5), (24, 9)],
        vec![(1, 100), (2, 70), (7, 20), (20, 1), (24, 2)],
        vec![(1, 300), (3, 500), (7, 30), (19, 4), (24, 8)],
    ]
}

fn inputs(rows: &[Vec<(u64, u64)>]) -> Vec<OwnerInput> {
    let input = |r: &Vec<(u64, u64)>| OwnerInput::from_pairs(r.iter().copied());
    rows.iter().map(input).collect()
}

/// Phase 1 through the wire: the owners of `rows` over `net`, whose nodes
/// run under `cfg(seed)`'s setup.
fn outsource(net: NetCluster, rows: &[Vec<(u64, u64)>], seed: u64) -> Cluster<NetCluster> {
    Cluster::over(net, &inputs(rows), cfg(seed)).unwrap()
}

/// Nodes on channel links, `shards` workers per domain, `rows` outsourced
/// through the wire.
fn local(seed: u64, shards: usize, rows: &[Vec<(u64, u64)>]) -> Cluster<NetCluster> {
    let net = NetCluster::start_local_sharded(make_setup(seed), shards);
    outsource(net, rows, seed)
}

fn shut_down(c: Cluster<NetCluster>) {
    c.into_deployment().shutdown().unwrap();
}

/// The whole named facade surface — the 12 operations plus the two
/// multi-attribute forms — as one comparable record per operation:
/// `(answer, rounds, shard dispatches)`. Answers are the outputs' debug
/// print, so equal records are bit-identical results.
fn surface<D: Deployment>(c: &Cluster<D>) -> Vec<(String, usize, u64)> {
    fn op<T: Debug, E: Debug>(answer: Result<(T, QueryStats), E>) -> (String, usize, u64) {
        let (out, stats) = answer.unwrap();
        (format!("{out:?}"), stats.rounds(), stats.shard_dispatches())
    }
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let max = c
        .psi_max(0)
        .map(|(cells, holders, stats)| ((cells, holders), stats));
    vec![
        op(c.psi()),
        op(c.psi_verified()),
        op(c.psu()),
        op(c.psu_verified()),
        op(c.psi_count()),
        op(c.psi_count_verified()),
        op(c.psi_sum(0)),
        op(c.psi_sum_verified(0)),
        op(c.psi_avg(0)),
        op(c.psi_query_batch(&batch)),
        op(max),
        op(c.psi_median(0)),
        op(c.psi_sum_multi(&[0])),
        op(c.psi_max_multi(&[0])),
    ]
}

/// [`surface`] without the dispatch counts: what every deployment of the
/// same `(inputs, cfg)` must agree on whatever its fan-out.
fn run_all<D: Deployment>(c: &Cluster<D>) -> Vec<(String, usize)> {
    let answers = surface(c).into_iter();
    answers.map(|(out, rounds, _)| (out, rounds)).collect()
}

#[test]
fn all_operations_invariant_across_shard_counts_channel() {
    let reference = {
        let c = local(77, 1, &rows());
        let r = run_all(&c);
        shut_down(c);
        r
    };
    for shards in [2usize, 4, 8] {
        let c = local(77, shards, &rows());
        assert_eq!(c.deployment().shards(), shards);
        assert_eq!(run_all(&c), reference, "shards={shards}");
        shut_down(c);
    }
}

#[test]
fn tcp_sharded_domain_matches_channel() {
    let channel = {
        let c = local(78, 4, &rows());
        let r = run_all(&c);
        shut_down(c);
        r
    };
    let net = NetCluster::start_tcp_sharded(make_setup(78), 4).unwrap();
    let c = outsource(net, &rows(), 78);
    assert_eq!(run_all(&c), channel);
    shut_down(c);
}

/// One facade, same bytes: from one `(inputs, cfg)`, `Cluster::build` and
/// `Cluster::over` on channel links (3 shards) and on TCP (2 shards)
/// answer the whole named surface bit-identically, in the same number of
/// rounds — after `build`, after `update_owner` and after `append`. The
/// facade derives every share seed from `cfg` alone, so the stores of a
/// wire deployment hold exactly the shares the driver's golden digests
/// pin for the in-process one. The two wire deployments also meter the
/// same traffic on every owner↔server and announcer edge: the same
/// messages, and the same bytes but for TCP's 4-byte frame prefix — a
/// channel hop carries no bytes, yet counts the ones the wire would.
#[test]
fn one_facade_answers_identically_on_every_deployment() {
    /// `(bytes, messages)` per owner↔server direction and announcer edge.
    fn edges(r: &NetReport) -> Vec<(u64, u64)> {
        let servers = (0..r.servers()).flat_map(|k| [r.owner_to_server(k), r.server_to_owner(k)]);
        let wide = (0..2).map(|k| r.server_to_announcer(k));
        let announcer = [r.to_announcer, r.from_announcer];
        servers.chain(wide).chain(announcer).collect()
    }
    fn history<D: Deployment>(mut c: Cluster<D>) -> (Vec<Vec<(String, usize)>>, Cluster<D>) {
        let mut seen = vec![run_all(&c)];
        let update = OwnerInput::from_pairs([(1, 40), (7, 2), (9, 9), (24, 1)]);
        c.update_owner(1, &update).unwrap();
        seen.push(run_all(&c));
        let delta = vec![
            vec![(25, 40), (26, 7), (28, 3)],
            vec![(25, 10), (27, 2), (28, 5)],
            vec![(25, 60), (28, 1)],
        ];
        c.append(4, &inputs(&delta)).unwrap();
        seen.push(run_all(&c));
        (seen, c)
    }
    let (reference, _) = history(Cluster::build(&inputs(&rows()), cfg(86)).unwrap());
    assert!(reference.iter().flatten().all(|(_, rounds)| *rounds > 0));
    let tcp = NetCluster::start_tcp_sharded(make_setup(86), 2).unwrap();
    let mut traffic = Vec::new();
    for wire in [local(86, 3, &rows()), outsource(tcp, &rows(), 86)] {
        let before = edges(&wire.deployment().report());
        let (seen, c) = history(wire);
        assert_eq!(seen, reference);
        let after = edges(&c.deployment().report());
        let delta = after.iter().zip(&before);
        traffic.push(
            delta
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect::<Vec<_>>(),
        );
        shut_down(c);
    }
    let (channel, tcp) = (&traffic[0], &traffic[1]);
    assert!(channel.iter().all(|&(bytes, msgs)| bytes > 0 && msgs > 0));
    let framed = channel
        .iter()
        .map(|&(bytes, msgs)| (bytes + 4 * msgs, msgs));
    assert_eq!(framed.collect::<Vec<_>>(), *tcp);
}

/// One router reached two ways: the statically wired constructor and the
/// attach listener (rf = 1, same two row ranges), outsourced to
/// identically and grown by one append, answer every operation
/// bit-identically, in the same number of rounds and shard dispatches —
/// before and after the append.
#[test]
fn static_and_attached_topologies_agree() {
    const ADDED: usize = 4;
    let setup = make_setup(85);
    let fixed = NetCluster::start_tcp_sharded(setup.clone(), 2).unwrap();
    let listener = ClusterListener::bind(setup.clone(), 2, RegistryConfig::default()).unwrap();
    let dial = std::time::Duration::from_secs(10);
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for _ in 0..2 {
            workers.push(ShardWorker::connect(params.clone(), k, listener.addr(), dial).unwrap());
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), listener.addr(), dial).unwrap();
    let attached = listener.start().unwrap();
    assert_eq!(fixed.shards(), attached.shards());
    let mut clusters = [fixed, attached].map(|net| outsource(net, &rows(), 85));
    assert_eq!(surface(&clusters[0]), surface(&clusters[1]));

    let delta = vec![
        vec![(25, 40), (26, 7), (28, 3)],
        vec![(25, 10), (27, 2), (28, 5)],
        vec![(25, 60), (28, 1)],
    ];
    for c in clusters.iter_mut() {
        c.append(ADDED, &inputs(&delta)).unwrap();
    }
    let after = surface(&clusters[0]);
    assert_eq!(after, surface(&clusters[1]));
    assert!(after.iter().all(|(_, rounds, _)| *rounds > 0));

    clusters.into_iter().for_each(shut_down);
    for w in workers {
        w.join().unwrap();
    }
    announcer.join().unwrap();
}

#[test]
fn shard_dispatches_metered_per_query() {
    let c = local(79, 4, &rows());
    let (_, stats) = c.psi().unwrap();
    // One round, two additive servers, four shards each.
    assert_eq!(stats.shard_dispatches(), 8);
    let (_, stats) = c.psi_sum(0).unwrap();
    // PSI round (2 servers) + aggregation round (3 servers), 4 shards each.
    assert_eq!(stats.shard_dispatches(), 20);
    shut_down(c);
}

#[test]
fn unsharded_domains_report_zero_dispatches() {
    let c = local(80, 1, &rows());
    let (_, stats) = c.psi().unwrap();
    assert_eq!(stats.shard_dispatches(), 0);
    shut_down(c);
}

#[test]
fn per_shard_traffic_is_metered() {
    let c = local(81, 3, &rows());
    c.psi().unwrap();
    let report = c.deployment().report();
    assert_eq!(report.shards_per_server(), 3);
    for k in 0..3 {
        for s in 0..3 {
            let ((to_b, to_m), (from_b, from_m)) = report.shard_link(k, s);
            assert!(to_b > 0 && to_m > 0, "server {k} shard {s} got no traffic");
            assert!(
                from_b > 0 && from_m > 0,
                "server {k} shard {s} sent nothing"
            );
        }
    }
    // The Display form mentions every shard link.
    let rendered = format!("{report}");
    assert!(rendered.contains("server 2"));
    assert!(rendered.contains("shard 2"));
    shut_down(c);
}

/// One owner's full per-server column sets as raw `(column, shares)`
/// lists — for the two wire-level cases below that compare *how* columns
/// are shipped; everything else outsources through `Cluster::over`.
fn owner_columns(setup: &Setup, owner: usize, rows: &[(u64, u64)]) -> Vec<Vec<(Column, Vec<u64>)>> {
    let op = &setup.owner;
    let cells = rows.iter().map(|&(c, x)| (c, [x]));
    let table = OwnerTable::window(cells, 1, 0, op.b).unwrap();
    let mut prg = Prg::from_seed(4000 + owner as u64);
    let perms = (&op.pf_db1, &op.pf_db2);
    owner_uploads(&table, op, perms, ColumnSet::full(1), &mut prg)
}

#[test]
fn bulk_upload_cuts_phase1_to_one_round_trip_per_owner() {
    // Column-by-column Phase 1 (the pre-bulk loop): 7 round-trips per
    // owner at an additive server.
    let per_column_msgs = {
        let c = NetCluster::start_local(make_setup(82));
        let cols = owner_columns(c.setup(), 0, &rows()[0]);
        let before = c.report().owner_to_server(0).1;
        for (col, data) in cols[0].clone() {
            c.bulk_upload(0, 0, vec![(col, data)]).unwrap();
        }
        let sent = c.report().owner_to_server(0).1 - before;
        c.shutdown().unwrap();
        sent
    };
    // Bulk Phase 1: one message.
    let bulk_msgs = {
        let c = NetCluster::start_local(make_setup(82));
        let cols = owner_columns(c.setup(), 0, &rows()[0]);
        let before = c.report().owner_to_server(0).1;
        c.bulk_upload(0, 0, cols[0].clone()).unwrap();
        let sent = c.report().owner_to_server(0).1 - before;
        c.shutdown().unwrap();
        sent
    };
    assert_eq!(per_column_msgs, 7, "7 columns at an additive server");
    assert_eq!(bulk_msgs, 1, "bulk upload is one round-trip");
}

#[test]
fn bulk_and_per_column_uploads_store_identically() {
    let verified_sum = prism_protocol::plans::SumVerified { attr: 0, seed: 5 };
    let bulk = {
        let c = NetCluster::start_local_sharded(make_setup(83), 2);
        for (j, owner_rows) in rows().iter().enumerate() {
            let per_server = owner_columns(c.setup(), j, owner_rows);
            for (k, cols) in per_server.into_iter().enumerate() {
                c.bulk_upload(k, j, cols).unwrap();
            }
        }
        let r = c.execute(&verified_sum).unwrap().0;
        c.shutdown().unwrap();
        r
    };
    let per_column = {
        let c = NetCluster::start_local_sharded(make_setup(83), 2);
        for (j, owner_rows) in rows().iter().enumerate() {
            let per_server = owner_columns(c.setup(), j, owner_rows);
            for (k, cols) in per_server.into_iter().enumerate() {
                for (col, data) in cols {
                    c.bulk_upload(k, j, vec![(col, data)]).unwrap();
                }
            }
        }
        let r = c.execute(&verified_sum).unwrap().0;
        c.shutdown().unwrap();
        r
    };
    assert_eq!(bulk, per_column);
}

#[test]
fn tamper_matrix_invariant_across_shard_counts() {
    for tamper in [
        Tamper::SkipReplay { src: 0 },
        Tamper::ReplaceCell { src: 0, dst: 5 },
        Tamper::InjectFake { cell: 2, seed: 9 },
        Tamper::TruncateFrom { from: 3 },
    ] {
        for shards in [1usize, 2, 4, 8] {
            let c = local(84, shards, &rows());
            c.deployment().set_tamper(0, tamper).unwrap();
            assert!(
                c.psi_verified().is_err(),
                "{tamper:?} undetected at {shards} shards"
            );
            assert!(
                c.psi_sum_verified(0).is_err(),
                "{tamper:?} undetected by sum at {shards} shards"
            );
            // Honesty restored: the domain recovers whatever the fan-out.
            c.deployment().set_tamper(0, Tamper::Honest).unwrap();
            assert!(c.psi_verified().is_ok());
            shut_down(c);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random relations, every shard count, channel transport: every
    /// named operation returns identical results and round counts
    /// whatever the fan-out.
    #[test]
    fn random_relations_shard_invariant(
        seed in 1u64..1000,
        sets in vec(vec(1u64..=DOMAIN as u64, 1..12), 3..4),
    ) {
        let rows: Vec<Vec<(u64, u64)>> = sets
            .iter()
            .map(|s| s.iter().map(|&v| (v, v * 2 + 1)).collect())
            .collect();
        let mut reference = None;
        for shards in [1usize, 2, 4, 8] {
            let c = local(seed, shards, &rows);
            let got = run_all(&c);
            shut_down(c);
            match &reference {
                None => reference = Some(got),
                Some(want) => prop_assert_eq!(&got, want, "shards={}", shards),
            }
        }
    }
}
