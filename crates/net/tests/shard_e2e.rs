//! Sharded-domain deployment tests over the wire: every operation the
//! cluster exposes returns bit-identical results and round counts for
//! shard counts {1, 2, 4, 8}; bulk uploads cut Phase-1 round-trips to one
//! per owner per server; per-shard traffic is metered; and the tamper
//! matrix behaves identically whatever the shard count.

use prism_core::{Permutation, Prg};
use prism_net::{AnnouncerNode, ClusterListener, Column, NetCluster, RegistryConfig, ShardWorker};
use prism_protocol::engine::Operation;
use prism_protocol::malicious::Tamper;
use prism_protocol::params::{Initiator, OwnerParams, Setup, SystemConfig};
use prism_protocol::plans::{self, QueryBatch};
use prism_protocol::tables::{owner_uploads, ColumnSet, OwnerTable};
use proptest::collection::vec;
use proptest::prelude::*;

const DOMAIN: usize = 24;

fn make_setup(seed: u64) -> Setup {
    Initiator::new(SystemConfig::new(3, DOMAIN).with_seed(seed))
        .setup()
        .unwrap()
}

/// Build one owner's full per-server column sets from their rows.
fn owner_columns(setup: &Setup, owner: usize, rows: &[(u64, u64)]) -> Vec<Vec<(Column, Vec<u64>)>> {
    let op = &setup.owner;
    let seed = 4000 + owner as u64;
    segment_columns(op, &op.pf_db1, &op.pf_db2, 0, op.b, seed, rows)
}

/// One owner's per-server column sets over the cell segment
/// `[start, start + len)`, the verification copies permuted by
/// `db1`/`db2` — the owner's whole permutations for a Phase-1 upload, or
/// the appended *blocks* for a delta.
fn segment_columns(
    op: &OwnerParams,
    db1: &Permutation,
    db2: &Permutation,
    start: usize,
    len: usize,
    seed: u64,
    rows: &[(u64, u64)],
) -> Vec<Vec<(Column, Vec<u64>)>> {
    let cells = rows.iter().map(|&(c, x)| (c, [x]));
    let table = OwnerTable::window(cells, 1, start, len).unwrap();
    let mut prg = Prg::from_seed(seed);
    owner_uploads(&table, op, (db1, db2), ColumnSet::full(1), &mut prg)
}

fn upload_all(cluster: &NetCluster, rows: &[Vec<(u64, u64)>]) {
    for (j, owner_rows) in rows.iter().enumerate() {
        let per_server = owner_columns(cluster.setup(), j, owner_rows);
        for (k, cols) in per_server.into_iter().enumerate() {
            cluster.bulk_upload(k, j, cols).unwrap();
        }
    }
}

fn rows() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(1, 100), (1, 200), (3, 300), (7, 10), (20, 5), (24, 9)],
        vec![(1, 100), (2, 70), (7, 20), (20, 1), (24, 2)],
        vec![(1, 300), (3, 500), (7, 30), (19, 4), (24, 8)],
    ]
}

/// Everything the wire deployment can answer — max/median over the
/// networked announcer included — as one comparable tuple.
#[derive(Debug, PartialEq)]
struct AllResults {
    psi: Vec<u64>,
    psi_verified: Vec<u64>,
    psu: Vec<bool>,
    psu_verified: usize,
    count: usize,
    count_verified: usize,
    sum: Vec<u64>,
    sum_verified: Vec<u64>,
    avg_sums: Vec<u64>,
    max: Vec<(usize, u64, Vec<bool>)>,
    median: Vec<(usize, Vec<u64>, Vec<usize>)>,
    rounds: Vec<usize>,
}

/// Per-owner per-cell maxima and sums (attribute 0) — the owner-side
/// value columns the max/median plans consume.
fn owner_values(rows: &[Vec<(u64, u64)>], b: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    rows.iter()
        .map(|owner_rows| {
            let cells = owner_rows.iter().map(|&(c, x)| (c, [x]));
            let mut t = OwnerTable::window(cells, 1, 0, b).unwrap();
            (t.maxima.remove(0), t.sums.remove(0))
        })
        .unzip()
}

fn run_all(cluster: &NetCluster, rows: &[Vec<(u64, u64)>]) -> AllResults {
    let mut rounds = Vec::new();
    let mut tracked = |r: prism_protocol::QueryStats| {
        rounds.push(r.rounds());
    };
    let (psi, s) = cluster.execute(&prism_protocol::plans::Psi).unwrap();
    tracked(s);
    let (psiv, s) = cluster
        .execute(&prism_protocol::plans::PsiVerified)
        .unwrap();
    tracked(s);
    let (psu, s) = cluster.execute(&prism_protocol::plans::Psu).unwrap();
    tracked(s);
    let (cnt, s) = cluster.execute(&prism_protocol::plans::Count).unwrap();
    tracked(s);
    let (cntv, s) = cluster
        .execute(&prism_protocol::plans::CountVerified)
        .unwrap();
    tracked(s);
    let (maxima, sums) = owner_values(rows, DOMAIN);
    let (max_out, s) = cluster
        .execute(&prism_protocol::plans::Max {
            values: maxima.iter().map(Vec::as_slice).collect(),
            table: None,
            seed: 12,
            cell_chunk: 1 << 16,
        })
        .unwrap();
    tracked(s);
    let (median_out, s) = cluster
        .execute(&prism_protocol::plans::Median {
            values: sums.iter().map(Vec::as_slice).collect(),
            table: None,
            seed: 13,
            cell_chunk: 1 << 16,
        })
        .unwrap();
    tracked(s);
    let (max_cells, holders) = max_out;
    AllResults {
        psi: psi.fop,
        psi_verified: psiv.fop,
        psu,
        psu_verified: cluster.psu_verified().unwrap(),
        count: cnt,
        count_verified: cntv,
        sum: cluster.psi_sum(0, 9).unwrap(),
        sum_verified: cluster.psi_sum_verified(0, 10).unwrap(),
        avg_sums: cluster
            .psi_avg(0, 11)
            .unwrap()
            .iter()
            .map(|c| c.sum)
            .collect(),
        max: max_cells
            .iter()
            .zip(holders)
            .map(|(m, h)| (m.cell, m.max, h))
            .collect(),
        median: median_out
            .into_iter()
            .map(|c| (c.cell, c.values, c.holders))
            .collect(),
        rounds,
    }
}

#[test]
fn all_operations_invariant_across_shard_counts_channel() {
    let reference = {
        let c = NetCluster::start_local_sharded(make_setup(77), 1);
        upload_all(&c, &rows());
        let r = run_all(&c, &rows());
        c.shutdown().unwrap();
        r
    };
    for shards in [2usize, 4, 8] {
        let c = NetCluster::start_local_sharded(make_setup(77), shards);
        assert_eq!(c.shards(), shards);
        upload_all(&c, &rows());
        assert_eq!(run_all(&c, &rows()), reference, "shards={shards}");
        c.shutdown().unwrap();
    }
}

#[test]
fn tcp_sharded_domain_matches_channel() {
    let channel = {
        let c = NetCluster::start_local_sharded(make_setup(78), 4);
        upload_all(&c, &rows());
        let r = run_all(&c, &rows());
        c.shutdown().unwrap();
        r
    };
    let c = NetCluster::start_tcp_sharded(make_setup(78), 4).unwrap();
    upload_all(&c, &rows());
    assert_eq!(run_all(&c, &rows()), channel);
    c.shutdown().unwrap();
}

/// The whole facade surface — the 12 operations — as one comparable
/// record per operation: `(answer, rounds, shard dispatches)`.
fn surface(c: &NetCluster, rows: &[Vec<(u64, u64)>], b: usize) -> Vec<(String, usize, u64)> {
    fn op<P: Operation>(c: &NetCluster, plan: P) -> (String, usize, u64)
    where
        P::Output: std::fmt::Debug,
    {
        let (out, stats) = c.execute(&plan).unwrap();
        (format!("{out:?}"), stats.rounds(), stats.shard_dispatches())
    }
    let (maxima, sums) = owner_values(rows, b);
    fn values(v: &[Vec<u64>]) -> Vec<&[u64]> {
        v.iter().map(Vec::as_slice).collect()
    }
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    vec![
        op(c, plans::Psi),
        op(c, plans::PsiVerified),
        op(c, plans::Psu),
        op(c, plans::PsuVerified),
        op(c, plans::Count),
        op(c, plans::CountVerified),
        op(c, plans::Sum { attr: 0, seed: 9 }),
        op(c, plans::SumVerified { attr: 0, seed: 10 }),
        op(c, plans::Average { attr: 0, seed: 11 }),
        op(
            c,
            plans::Batch {
                batch: &batch,
                seed: 14,
            },
        ),
        op(
            c,
            plans::Max {
                values: values(&maxima),
                table: None,
                seed: 12,
                cell_chunk: 1 << 16,
            },
        ),
        op(
            c,
            plans::Median {
                values: values(&sums),
                table: None,
                seed: 13,
                cell_chunk: 1 << 16,
            },
        ),
    ]
}

/// One router reached two ways: the statically wired constructor and the
/// attach listener (rf = 1, same two row ranges), fed identical uploads
/// and one delta append, answer every operation bit-identically, in the
/// same number of rounds and shard dispatches — before and after the
/// append.
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
    let mut clusters = [fixed, attached];
    assert_eq!(clusters[0].shards(), clusters[1].shards());

    let mut all_rows = rows();
    for c in &clusters {
        upload_all(c, &all_rows);
    }
    assert_eq!(
        surface(&clusters[0], &all_rows, DOMAIN),
        surface(&clusters[1], &all_rows, DOMAIN)
    );

    let grown = setup.grow(ADDED, 1, 85).unwrap();
    let (db1, db2) = (
        grown.family.pf_db1.tail_block(DOMAIN).unwrap(),
        grown.family.pf_db2.tail_block(DOMAIN).unwrap(),
    );
    let delta: Vec<Vec<(u64, u64)>> = vec![
        vec![(25, 40), (26, 7), (28, 3)],
        vec![(25, 10), (27, 2), (28, 5)],
        vec![(25, 60), (28, 1)],
    ];
    for c in clusters.iter_mut() {
        c.adopt_setup(grown.clone());
        for (j, owner_rows) in delta.iter().enumerate() {
            let seed = 5000 + j as u64;
            let per_server =
                segment_columns(&grown.owner, &db1, &db2, DOMAIN, ADDED, seed, owner_rows);
            for (k, cols) in per_server.into_iter().enumerate() {
                c.delta_upload(k, j, DOMAIN, cols).unwrap();
            }
        }
    }
    for (all, new) in all_rows.iter_mut().zip(delta) {
        all.extend(new);
    }
    let after = surface(&clusters[0], &all_rows, DOMAIN + ADDED);
    assert_eq!(after, surface(&clusters[1], &all_rows, DOMAIN + ADDED));
    assert!(after.iter().all(|(_, rounds, _)| *rounds > 0));

    for c in clusters {
        c.shutdown().unwrap();
    }
    for w in workers {
        w.join().unwrap();
    }
    announcer.join().unwrap();
}

#[test]
fn shard_dispatches_metered_per_query() {
    let c = NetCluster::start_local_sharded(make_setup(79), 4);
    upload_all(&c, &rows());
    let (_, stats) = c.execute(&prism_protocol::plans::Psi).unwrap();
    // One round, two additive servers, four shards each.
    assert_eq!(stats.shard_dispatches(), 8);
    let (_, stats) = c
        .execute(&prism_protocol::plans::Sum { attr: 0, seed: 3 })
        .unwrap();
    // PSI round (2 servers) + aggregation round (3 servers), 4 shards each.
    assert_eq!(stats.shard_dispatches(), 20);
    c.shutdown().unwrap();
}

#[test]
fn unsharded_domains_report_zero_dispatches() {
    let c = NetCluster::start_local(make_setup(80));
    upload_all(&c, &rows());
    let (_, stats) = c.execute(&prism_protocol::plans::Psi).unwrap();
    assert_eq!(stats.shard_dispatches(), 0);
    c.shutdown().unwrap();
}

#[test]
fn per_shard_traffic_is_metered() {
    let c = NetCluster::start_local_sharded(make_setup(81), 3);
    upload_all(&c, &rows());
    c.psi().unwrap();
    let report = c.report();
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
    c.shutdown().unwrap();
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
            c.upload(0, 0, col, data).unwrap();
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
    let bulk = {
        let c = NetCluster::start_local_sharded(make_setup(83), 2);
        upload_all(&c, &rows());
        let r = c.psi_sum_verified(0, 5).unwrap();
        c.shutdown().unwrap();
        r
    };
    let per_column = {
        let c = NetCluster::start_local_sharded(make_setup(83), 2);
        for (j, owner_rows) in rows().iter().enumerate() {
            let per_server = owner_columns(c.setup(), j, owner_rows);
            for (k, cols) in per_server.into_iter().enumerate() {
                for (col, data) in cols {
                    c.upload(k, j, col, data).unwrap();
                }
            }
        }
        let r = c.psi_sum_verified(0, 5).unwrap();
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
            let c = NetCluster::start_local_sharded(make_setup(84), shards);
            upload_all(&c, &rows());
            c.set_tamper(0, tamper).unwrap();
            assert!(
                c.psi_verified().is_err(),
                "{tamper:?} undetected at {shards} shards"
            );
            assert!(
                c.psi_sum_verified(0, 6).is_err(),
                "{tamper:?} undetected by sum at {shards} shards"
            );
            // Honesty restored: the domain recovers whatever the fan-out.
            c.set_tamper(0, Tamper::Honest).unwrap();
            assert!(c.psi_verified().is_ok());
            c.shutdown().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random relations, every shard count, channel transport: the three
    /// set operations and the verified sum return identical results and
    /// round counts whatever the fan-out.
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
            let c = NetCluster::start_local_sharded(make_setup(seed), shards);
            upload_all(&c, &rows);
            let got = run_all(&c, &rows);
            c.shutdown().unwrap();
            match &reference {
                None => reference = Some(got),
                Some(want) => prop_assert_eq!(&got, want, "shards={}", shards),
            }
        }
    }
}
