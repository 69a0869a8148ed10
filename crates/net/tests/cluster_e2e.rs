//! End-to-end cluster tests over both transports: a full deployment with
//! owners uploading shares through the wire and queries running on server
//! threads.

use prism_core::Prg;
use prism_net::NetCluster;
use prism_protocol::params::{Initiator, Setup, SystemConfig};
use prism_protocol::tables::{owner_uploads, ColumnSet, OwnerTable};

/// One owner's plaintext table (one aggregation attribute) over `1..=b`.
fn owner_table(rows: &[(u64, u64)], b: usize) -> OwnerTable {
    OwnerTable::window(rows.iter().map(|&(c, x)| (c, [x])), 1, 0, b).unwrap()
}

/// Three owners over a 10-cell domain with one aggregation attribute.
fn setup_and_upload(cluster: &NetCluster, rows: &[Vec<(u64, u64)>]) {
    let op = &cluster.setup().owner;
    let perms = (&op.pf_db1, &op.pf_db2);
    for (j, owner_rows) in rows.iter().enumerate() {
        let table = owner_table(owner_rows, op.b);
        let mut prg = Prg::from_seed(1000 + j as u64);
        let uploads = owner_uploads(&table, op, perms, ColumnSet::full(1), &mut prg);
        for (k, columns) in uploads.into_iter().enumerate() {
            cluster.bulk_upload(k, j, columns).unwrap();
        }
    }
}

fn rows() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(1, 100), (1, 200), (3, 300), (7, 10)],
        vec![(1, 100), (2, 70), (7, 20)],
        vec![(1, 300), (1, 700), (3, 500), (7, 30)],
    ]
}

fn make_setup() -> Setup {
    Initiator::new(SystemConfig::new(3, 10).with_seed(77))
        .setup()
        .unwrap()
}

fn exercise(cluster: &NetCluster) {
    setup_and_upload(cluster, &rows());

    // PSI: common values {1, 7}.
    let fop = cluster.psi().unwrap();
    let common: Vec<usize> = fop
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| (v == 1).then_some(i))
        .collect();
    assert_eq!(common, vec![0, 6]);

    // Verified PSI agrees.
    let vfop = cluster.psi_verified().unwrap();
    assert_eq!(vfop, fop);

    // PSU: union {1, 2, 3, 7}.
    let members = cluster.psu().unwrap();
    let union: Vec<usize> = members
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i))
        .collect();
    assert_eq!(union, vec![0, 1, 2, 6]);

    // Counts.
    assert_eq!(cluster.psi_count().unwrap(), 2);
    assert_eq!(cluster.psi_count_verified().unwrap(), 2);

    // Sum over attr 0: cell 1 → 1400, cell 7 → 60.
    let sums = cluster.psi_sum(0, 9).unwrap();
    assert_eq!(sums[0], 1400);
    assert_eq!(sums[6], 60);
    assert!(sums[1..6].iter().all(|&s| s == 0));

    // Verified sum agrees.
    let vsums = cluster.psi_sum_verified(0, 10).unwrap();
    assert_eq!(vsums, sums);

    // Average: cell 1 → 1400/5, cell 7 → 60/3.
    let avg = cluster.psi_avg(0, 11).unwrap();
    assert_eq!(avg[0].sum, 1400);
    assert_eq!(avg[0].count, 5);
    assert!((avg[6].average - 20.0).abs() < 1e-9);

    // Max/median: the announcer runs as a fourth networked node. Per-cell
    // maxima/sums are owner-side data the harness supplies.
    let (maxima, sums) = owner_values(&rows(), cluster.setup().owner.b);
    let max_refs: Vec<&[u64]> = maxima.iter().map(Vec::as_slice).collect();
    let (maxes, holders) = cluster.psi_max(&max_refs, 50).unwrap();
    // Cell 1: maxima 200/100/700 → 700 at owner 2; cell 7: 10/20/30 → 30.
    assert_eq!(
        maxes.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
        vec![(0, 700), (6, 30)]
    );
    assert_eq!(holders[0], vec![false, false, true]);
    assert_eq!(holders[1], vec![false, false, true]);
    let sum_refs: Vec<&[u64]> = sums.iter().map(Vec::as_slice).collect();
    let medians = cluster.psi_median(&sum_refs, 51).unwrap();
    // Cell 1 sums: 300/100/1000 → middle 300 (owner 0); cell 7: 10/20/30
    // → middle 20 (owner 1).
    assert_eq!(medians[0].values, vec![300]);
    assert_eq!(medians[0].holders, vec![0]);
    assert_eq!(medians[1].values, vec![20]);
    assert_eq!(medians[1].holders, vec![1]);

    // Communication was metered on every link — including the three
    // announcer edges: both additive servers shipped wide matrices down
    // their dedicated server→announcer links (owners saw only receipts).
    let report = cluster.report();
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
}

/// Per-owner per-cell maxima and sums over aggregation attribute 0.
fn owner_values(rows: &[Vec<(u64, u64)>], b: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    rows.iter()
        .map(|owner_rows| {
            let mut t = owner_table(owner_rows, b);
            (t.maxima.remove(0), t.sums.remove(0))
        })
        .unzip()
}

#[test]
fn channel_cluster_end_to_end() {
    let cluster = NetCluster::start_local(make_setup());
    exercise(&cluster);
    cluster.shutdown().unwrap();
}

#[test]
fn tcp_cluster_end_to_end() {
    let cluster = NetCluster::start_tcp(make_setup()).unwrap();
    exercise(&cluster);
    cluster.shutdown().unwrap();
}

#[test]
fn multithreaded_servers_agree() {
    let mut c1 = NetCluster::start_local(make_setup());
    setup_and_upload(&c1, &rows());
    let reference = c1.psi().unwrap();
    c1.set_threads(4);
    assert_eq!(c1.psi().unwrap(), reference);
    c1.shutdown().unwrap();
}

#[test]
fn batched_aggregations_use_one_round2_round_trip() {
    use prism_protocol::plans::{AggResult, QueryBatch};

    let cluster = NetCluster::start_local(make_setup());
    setup_and_upload(&cluster, &rows());

    let before = cluster.report();
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let (results, stats) = cluster.psi_query_batch(&batch, 21).unwrap();
    let after = cluster.report();

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
    assert_eq!(results[0], AggResult::Sums(cluster.psi_sum(0, 33).unwrap()));
    assert_eq!(results[1], AggResult::Avg(cluster.psi_avg(0, 34).unwrap()));
    match &results[2] {
        AggResult::Counts(counts) => {
            let avg = cluster.psi_avg(0, 35).unwrap();
            let expected: Vec<u64> = avg.iter().map(|c| c.count).collect();
            assert_eq!(counts, &expected);
        }
        other => panic!("expected counts, got {other:?}"),
    }

    cluster.shutdown().unwrap();
}

#[test]
fn psu_verified_and_tamper_control_work_over_the_wire() {
    let cluster = NetCluster::start_local(make_setup());
    setup_and_upload(&cluster, &rows());
    // Honest: union {1, 2, 3, 7} → size 4.
    assert_eq!(cluster.psu_verified().unwrap(), 4);
    // Tamper a server through the wire; verified PSI must now fail.
    cluster
        .set_tamper(0, prism_protocol::malicious::Tamper::SkipReplay { src: 0 })
        .unwrap();
    assert!(cluster.psi_verified().is_err());
    // Restore honesty; verification passes again.
    cluster
        .set_tamper(0, prism_protocol::malicious::Tamper::Honest)
        .unwrap();
    assert!(cluster.psi_verified().is_ok());
    cluster.shutdown().unwrap();
}

#[test]
fn announcer_round_accounting_over_the_wire() {
    use prism_protocol::plans;

    let cluster = NetCluster::start_local(make_setup());
    setup_and_upload(&cluster, &rows());
    let (maxima, sums) = owner_values(&rows(), cluster.setup().owner.b);

    // Max: 3 rounds (PSI, combine, claims); exactly one announce request
    // and exactly one wide upload per additive server cross the announcer
    // edges per query.
    let before = cluster.report();
    let (_, stats) = cluster
        .execute(&plans::Max {
            values: maxima.iter().map(Vec::as_slice).collect(),
            table: None,
            seed: 60,
            cell_chunk: 1 << 16,
        })
        .unwrap();
    assert_eq!(stats.rounds, 3);
    let after = cluster.report();
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
    let (_, stats) = cluster
        .execute(&plans::Median {
            values: sums.iter().map(Vec::as_slice).collect(),
            table: None,
            seed: 61,
            cell_chunk: 1 << 16,
        })
        .unwrap();
    assert_eq!(stats.rounds, 2);

    cluster.shutdown().unwrap();
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
    let cluster = NetCluster::start_local(make_setup());
    setup_and_upload(&cluster, &rows());
    let op = cluster.setup().owner.clone();
    let uploads = |n: usize| -> Vec<BlindedMaxUpload> {
        (0..n)
            .map(|_| BlindedMaxUpload {
                shares: WideVec::zeroed(2, op.wide_width),
            })
            .collect()
    };
    let replies = cluster
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
    let (maxima, _) = owner_values(&rows(), op.b);
    let max_refs: Vec<&[u64]> = maxima.iter().map(Vec::as_slice).collect();
    let (maxes, holders) = cluster.psi_max(&max_refs, 50).unwrap();
    assert_eq!(
        maxes.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
        vec![(0, 700), (6, 30)]
    );
    assert_eq!(holders[0], vec![false, false, true]);
    cluster.shutdown().unwrap();
}

#[test]
fn server_side_errors_surface_as_errors_not_panics() {
    // A query against a server whose store is empty (nothing uploaded)
    // errors inside the node; the wire reports an empty output list and
    // the engine's reply-shape check must turn that into an Err at the
    // owner — never an index panic.
    let cluster = NetCluster::start_local(make_setup());
    assert!(cluster.psi().is_err());
    assert!(cluster.psi_sum(0, 1).is_err());
    assert!(cluster.psi_count_verified().is_err());
    cluster.shutdown().unwrap();
}

#[test]
fn byte_accounting_scales_with_domain() {
    // Bigger domain ⇒ more bytes per round, same message count per query.
    let small = {
        let c = NetCluster::start_local(make_setup());
        setup_and_upload(&c, &rows());
        c.psi().unwrap();
        let r = c.report();
        c.shutdown().unwrap();
        r.from_servers[0].0
    };
    let big = {
        let setup = Initiator::new(SystemConfig::new(3, 1000).with_seed(78))
            .setup()
            .unwrap();
        let c = NetCluster::start_local(setup);
        setup_and_upload(&c, &rows());
        c.psi().unwrap();
        let r = c.report();
        c.shutdown().unwrap();
        r.from_servers[0].0
    };
    assert!(big > 10 * small, "big={big} small={small}");
}
