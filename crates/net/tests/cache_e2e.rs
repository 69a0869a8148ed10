//! End-to-end PSI-round cache over the wire: the acceptance path.
//!
//! A repeat `psi_query_batch` against an unchanged store must complete
//! with **zero** server round-trips — asserted both through
//! `QueryStats.rounds` and through `NetReport`'s per-link message meters
//! (round 1 replays the cached PSI outputs and round 2 replays the
//! pinned z-seed aggregation, so nothing crosses any owner↔server link)
//! — and any owner upload in between must restore the cold-path round
//! count bit-identically.

use prism_core::Prg;
use prism_net::{Column, NetCluster, NetError};
use prism_protocol::params::{Initiator, OwnerParams, Setup, SystemConfig};
use prism_protocol::tables::{owner_uploads, ColumnSet, OwnerTable};
use prism_protocol::QueryBatch;

const DOMAIN: usize = 10;

fn rows() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(1, 100), (1, 200), (3, 300), (7, 10)],
        vec![(1, 100), (2, 70), (7, 20)],
        vec![(1, 300), (1, 700), (3, 500), (7, 30)],
    ]
}

fn make_setup() -> Setup {
    Initiator::new(SystemConfig::new(3, DOMAIN).with_seed(91))
        .setup()
        .unwrap()
}

/// The unverified column set the cached plans read: `OK`, `Agg(0)`, `aOK`.
const LEAN: ColumnSet = ColumnSet {
    verification: false,
    two_copy: false,
    aggregation: Some(1),
};

/// One owner's per-server `LEAN` columns over the row window
/// `[start, start + len)`.
fn owner_columns(
    op: &OwnerParams,
    (start, len): (usize, usize),
    rows: &[(u64, u64)],
    seed: u64,
) -> Vec<Vec<(Column, Vec<u64>)>> {
    let cells = rows.iter().map(|&(c, x)| (c, [x]));
    let table = OwnerTable::window(cells, 1, start, len).unwrap();
    // No permuted copy is materialised, so the permutations go unused.
    let perms = (&op.pf_db1, &op.pf_db2);
    owner_uploads(&table, op, perms, LEAN, &mut Prg::from_seed(seed))
}

/// Bulk-upload owner `j`'s column set (share randomness from `seed`, so
/// re-uploading with the same seed reproduces the store).
fn upload_owner(cluster: &NetCluster, j: usize, owner_rows: &[(u64, u64)], seed: u64) {
    let op = &cluster.setup().owner;
    let uploads = owner_columns(op, (0, DOMAIN), owner_rows, seed ^ (3000 + j as u64));
    for (k, columns) in uploads.into_iter().enumerate() {
        cluster.bulk_upload(k, j, columns).unwrap();
    }
}

fn upload_all(cluster: &NetCluster, seed: u64) {
    for (j, owner_rows) in rows().iter().enumerate() {
        upload_owner(cluster, j, owner_rows, seed);
    }
}

/// Per-server owner→server message deltas between two reports.
fn msg_deltas(before: &prism_net::NetReport, after: &prism_net::NetReport) -> Vec<u64> {
    (0..after.servers())
        .map(|k| after.owner_to_server(k).1 - before.owner_to_server(k).1)
        .collect()
}

fn exercise(mut cluster: NetCluster) {
    cluster.enable_cache();
    upload_all(&cluster, 7);
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();

    // Cold: round 1 (PSI, additive servers) + round 2 (Shamir servers);
    // each eligible round records one miss.
    let (cold, cold_stats) = cluster.psi_query_batch(&batch, 42).unwrap();
    assert_eq!(cold_stats.rounds, 2);
    assert_eq!(cold_stats.cache_misses, 2);

    // Warm: zero server round-trips for the whole query — round 1
    // replays the cached PSI outputs, round 2 replays the pinned z-seed
    // aggregation.
    let before = cluster.report();
    let (warm, warm_stats) = cluster.psi_query_batch(&batch, 42).unwrap();
    let after = cluster.report();
    assert_eq!(warm, cold, "cache changed the batch results");
    assert_eq!(warm_stats.rounds, 0, "warm batch must skip both rounds");
    assert_eq!(warm_stats.cache_hits, 2);
    assert_eq!(
        msg_deltas(&before, &after),
        vec![0, 0, 0],
        "a fully warm query sends nothing to any server"
    );
    assert!(after.cache_hits >= 1, "NetReport must meter the hit");

    // An owner upload in between restores the cold path bit-identically:
    // same round count, and (same data re-uploaded) the same results.
    upload_owner(&cluster, 0, &rows()[0], 7);
    let (recold, recold_stats) = cluster.psi_query_batch(&batch, 42).unwrap();
    assert_eq!(
        recold_stats.rounds, cold_stats.rounds,
        "cold rounds restored"
    );
    assert_eq!(
        recold_stats.cache_hits, 0,
        "stale entry served after upload"
    );
    assert_eq!(recold, cold, "identical store must reproduce the results");
    let report = cluster.report();
    assert!(
        report.cache_invalidations >= 1,
        "the upload must invalidate the stale round"
    );
    assert!(
        format!("{report}").contains("cache: hits="),
        "NetReport Display must print the cache counters"
    );

    cluster.shutdown().unwrap();
}

#[test]
fn cache_e2e_channel() {
    exercise(NetCluster::start_local(make_setup()));
}

#[test]
fn cache_e2e_tcp() {
    exercise(NetCluster::start_tcp(make_setup()).unwrap());
}

/// The streaming acceptance path over the wire: a delta upload appends
/// two cells; a repeat window query over the untouched original range
/// then completes **both** rounds from the cache (zero counted rounds),
/// and once the probe has re-confirmed the stamps an immediate repeat
/// sends nothing at all on any owner↔server link. The grown full domain
/// is an overlapping key — it goes cold, bit-identical to an uncached
/// oracle cluster replaying the same delta.
#[test]
fn delta_upload_keeps_untouched_window_warm_over_the_wire() {
    let mut cluster = NetCluster::start_tcp(make_setup()).unwrap();
    cluster.enable_cache();
    let mut oracle = NetCluster::start_local(make_setup());
    upload_all(&cluster, 7);
    upload_all(&oracle, 7);
    let batch = QueryBatch::new().sum(0).avg(0);
    let w = (0u64, DOMAIN as u64);
    let (cold, s) = cluster.psi_query_batch_range(&batch, 42, w).unwrap();
    assert_eq!((s.rounds, s.cache_misses), (2, 2));

    // Grow by two cells; every owner's delta rows land in 11..=12 only.
    // The delta share columns are built once, so both clusters store
    // identical bytes.
    let added = 2usize;
    let grown = cluster.setup().grow(added, 1, 91).unwrap();
    let delta_rows: Vec<Vec<(u64, u64)>> =
        vec![vec![(11, 40)], vec![(11, 10), (12, 5)], vec![(11, 60)]];
    // owner → server → delta column set.
    let per_owner: Vec<_> = delta_rows
        .iter()
        .enumerate()
        .map(|(j, rows)| owner_columns(&grown.owner, (DOMAIN, added), rows, 91 ^ (7700 + j as u64)))
        .collect();
    cluster.adopt_setup(grown.clone());
    oracle.adopt_setup(grown);
    for (j, per_server) in per_owner.iter().enumerate() {
        for (k, cols) in per_server.iter().enumerate() {
            cluster.delta_upload(k, j, DOMAIN, cols.clone()).unwrap();
            oracle.delta_upload(k, j, DOMAIN, cols.clone()).unwrap();
        }
    }

    // Untouched window: both rounds replay from the cache. The first
    // warm query pays only the range-version probe (metadata, not a
    // counted round).
    let (warm, s) = cluster.psi_query_batch_range(&batch, 42, w).unwrap();
    assert_eq!(warm, cold, "delta upload corrupted the untouched window");
    assert_eq!(
        (s.rounds, s.cache_hits),
        (0, 2),
        "window must stay warm across a delta"
    );
    // Stamps re-confirmed: an immediate repeat sends nothing at all.
    let before = cluster.report();
    let (rewarm, s) = cluster.psi_query_batch_range(&batch, 42, w).unwrap();
    let after = cluster.report();
    assert_eq!(rewarm, cold);
    assert_eq!((s.rounds, s.cache_hits), (0, 2));
    assert_eq!(
        msg_deltas(&before, &after),
        vec![0, 0, 0],
        "a confirmed warm window must be wire-silent"
    );

    // The grown full domain is a different (overlapping) key: cold, and
    // bit-identical to the uncached oracle replaying the same delta.
    let (got, s) = cluster.psi_query_batch(&batch, 42).unwrap();
    assert_eq!(
        s.cache_hits, 0,
        "full-domain query must go cold after the delta"
    );
    let (want, _) = oracle.psi_query_batch(&batch, 42).unwrap();
    assert_eq!(got, want, "cached cluster diverged from the oracle");
    cluster.shutdown().unwrap();
    oracle.shutdown().unwrap();
}

/// The warm path must stay warm across *different* eligible queries that
/// share the PSI round, and the count round keys separately.
#[test]
fn distinct_queries_share_the_cached_psi_round() {
    let mut cluster = NetCluster::start_local(make_setup());
    cluster.enable_cache();
    upload_all(&cluster, 9);
    let (_, s) = cluster.execute(&prism_protocol::plans::Psi).unwrap();
    assert_eq!((s.rounds, s.cache_misses), (1, 1));
    // A first sum reuses the PSI entry (only its round 2 touches the
    // servers); an identical repeat is then fully warm.
    let sums = cluster.psi_sum(0, 5).unwrap();
    let (_, s) = cluster
        .execute(&prism_protocol::plans::Sum { attr: 0, seed: 5 })
        .unwrap();
    assert_eq!(s.rounds, 0, "repeat sum must ride both cached rounds");
    assert_eq!(s.cache_hits, 2);
    assert_eq!(
        cluster
            .execute(&prism_protocol::plans::Sum { attr: 0, seed: 5 })
            .unwrap()
            .0,
        sums
    );
    // Count keys its own round: first run misses, second hits.
    let (_, s) = cluster.execute(&prism_protocol::plans::Count).unwrap();
    assert_eq!((s.rounds, s.cache_hits), (1, 0));
    let (_, s) = cluster.execute(&prism_protocol::plans::Count).unwrap();
    assert_eq!((s.rounds, s.cache_hits), (0, 1));
    cluster.shutdown().unwrap();
}

/// A delta whose rows lie outside the adopted setup's domain — growth
/// sent without `adopt_setup`, or a start past the end (which used to
/// panic cutting the extension blocks) — is refused with a typed error
/// before anything moves: no frame on any link, and the cache not
/// dirtied (a dirtied cache would re-probe the range versions).
#[test]
fn delta_outside_the_adopted_domain_is_refused_before_anything_moves() {
    let mut cluster = NetCluster::start_local_sharded(make_setup(), 2);
    cluster.enable_cache();
    upload_all(&cluster, 7);
    let batch = QueryBatch::new().sum(0).avg(0);
    let (cold, _) = cluster.psi_query_batch(&batch, 42).unwrap();

    let before = cluster.report();
    for start in [DOMAIN, DOMAIN + 5] {
        let delta = owner_columns(&cluster.setup().owner, (start, 2), &[], 1);
        for (k, columns) in delta.into_iter().enumerate() {
            let err = cluster.delta_upload(k, 0, start, columns).unwrap_err();
            assert!(
                matches!(err, NetError::DeltaOutsideDomain { domain: DOMAIN, .. }),
                "start {start}, server {k}: {err}"
            );
        }
    }
    let (warm, s) = cluster.psi_query_batch(&batch, 42).unwrap();
    assert_eq!(warm, cold);
    assert_eq!((s.rounds, s.cache_hits), (0, 2));
    assert_eq!(
        msg_deltas(&before, &cluster.report()),
        vec![0, 0, 0],
        "a refused delta must leave every link silent and the cache clean"
    );
    cluster.shutdown().unwrap();
}
