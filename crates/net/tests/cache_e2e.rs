//! End-to-end PSI-round cache over the wire: the acceptance path.
//!
//! A repeat `psi_query_batch` against an unchanged store must complete
//! with **zero** server round-trips — asserted both through
//! `QueryStats.rounds` and through `NetReport`'s per-link message meters
//! (round 1 replays the cached PSI outputs and round 2 replays the
//! pinned z-seed aggregation, so nothing crosses any owner↔server link)
//! — and any owner upload in between must restore the cold-path round
//! count bit-identically.

use prism_net::{Column, NetCluster, NetError};
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
use prism_protocol::params::Setup;
use prism_protocol::QueryBatch;

const DOMAIN: usize = 10;

fn inputs() -> Vec<OwnerInput> {
    vec![
        OwnerInput::from_pairs([(1, 100), (1, 200), (3, 300), (7, 10)]),
        OwnerInput::from_pairs([(1, 100), (2, 70), (7, 20)]),
        OwnerInput::from_pairs([(1, 300), (1, 700), (3, 500), (7, 30)]),
    ]
}

/// Only the unverified columns the cached plans read — `OK`, `Agg(0)`,
/// `aOK` — are outsourced.
fn cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DOMAIN);
    cfg.seed = 91;
    cfg.with_verification = false;
    cfg
}

fn make_setup() -> Setup {
    cfg().setup(3).unwrap()
}

/// Phase 1 through the wire, the PSI-round cache on or off.
fn outsource(mut net: NetCluster, cache: bool) -> Cluster<NetCluster> {
    if cache {
        net.enable_cache();
    }
    Cluster::over(net, &inputs(), cfg()).unwrap()
}

/// Per-server owner→server message deltas between two reports.
fn msg_deltas(before: &prism_net::NetReport, after: &prism_net::NetReport) -> Vec<u64> {
    (0..after.servers())
        .map(|k| after.owner_to_server(k).1 - before.owner_to_server(k).1)
        .collect()
}

fn exercise(net: NetCluster) {
    let mut cluster = outsource(net, true);
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();

    // Cold: round 1 (PSI, additive servers) + round 2 (Shamir servers);
    // each eligible round records one miss.
    let (cold, cold_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(cold_stats.rounds, 2);
    assert_eq!(cold_stats.cache_misses, 2);

    // Warm: zero server round-trips for the whole query — round 1
    // replays the cached PSI outputs, round 2 replays the pinned z-seed
    // aggregation.
    let before = cluster.deployment().report();
    let (warm, warm_stats) = cluster.psi_query_batch(&batch).unwrap();
    let after = cluster.deployment().report();
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
    cluster.update_owner(0, &inputs()[0]).unwrap();
    let (recold, recold_stats) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(
        recold_stats.rounds, cold_stats.rounds,
        "cold rounds restored"
    );
    assert_eq!(
        recold_stats.cache_hits, 0,
        "stale entry served after upload"
    );
    assert_eq!(recold, cold, "identical store must reproduce the results");
    let report = cluster.deployment().report();
    assert!(
        report.cache_invalidations >= 1,
        "the upload must invalidate the stale round"
    );
    assert!(
        format!("{report}").contains("cache: hits="),
        "NetReport Display must print the cache counters"
    );

    cluster.into_deployment().shutdown().unwrap();
}

#[test]
fn cache_e2e_channel() {
    exercise(NetCluster::start_local(make_setup()));
}

#[test]
fn cache_e2e_tcp() {
    exercise(NetCluster::start_tcp(make_setup()).unwrap());
}

/// The streaming acceptance path over the wire: an append grows the
/// domain by two cells; a repeat window query over the untouched original
/// range then completes **both** rounds from the cache (zero counted
/// rounds), and once the probe has re-confirmed the stamps an immediate
/// repeat sends nothing at all on any owner↔server link. The grown full
/// domain is an overlapping key — it goes cold, bit-identical to an
/// uncached oracle cluster replaying the same append.
#[test]
fn delta_upload_keeps_untouched_window_warm_over_the_wire() {
    let mut cluster = outsource(NetCluster::start_tcp(make_setup()).unwrap(), true);
    let mut oracle = outsource(NetCluster::start_local(make_setup()), false);
    let batch = QueryBatch::new().sum(0).avg(0);
    let w = (0u64, DOMAIN as u64);
    let (cold, s) = cluster.psi_query_batch_range(&batch, w).unwrap();
    assert_eq!((s.rounds, s.cache_misses), (2, 2));

    // Grow by two cells; every owner's delta rows land in 11..=12 only.
    // The facade derives the share seeds from the shared `cfg`, so both
    // clusters store identical bytes.
    let delta = vec![
        OwnerInput::from_pairs([(11, 40)]),
        OwnerInput::from_pairs([(11, 10), (12, 5)]),
        OwnerInput::from_pairs([(11, 60)]),
    ];
    cluster.append(2, &delta).unwrap();
    oracle.append(2, &delta).unwrap();

    // Untouched window: both rounds replay from the cache. The first
    // warm query pays only the range-version probe (metadata, not a
    // counted round).
    let (warm, s) = cluster.psi_query_batch_range(&batch, w).unwrap();
    assert_eq!(warm, cold, "delta upload corrupted the untouched window");
    assert_eq!(
        (s.rounds, s.cache_hits),
        (0, 2),
        "window must stay warm across a delta"
    );
    // Stamps re-confirmed: an immediate repeat sends nothing at all.
    let before = cluster.deployment().report();
    let (rewarm, s) = cluster.psi_query_batch_range(&batch, w).unwrap();
    let after = cluster.deployment().report();
    assert_eq!(rewarm, cold);
    assert_eq!((s.rounds, s.cache_hits), (0, 2));
    assert_eq!(
        msg_deltas(&before, &after),
        vec![0, 0, 0],
        "a confirmed warm window must be wire-silent"
    );

    // The grown full domain is a different (overlapping) key: cold, and
    // bit-identical to the uncached oracle replaying the same delta.
    let (got, s) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(
        s.cache_hits, 0,
        "full-domain query must go cold after the delta"
    );
    let (want, _) = oracle.psi_query_batch(&batch).unwrap();
    assert_eq!(got, want, "cached cluster diverged from the oracle");
    cluster.into_deployment().shutdown().unwrap();
    oracle.into_deployment().shutdown().unwrap();
}

/// The warm path must stay warm across *different* eligible queries that
/// share the PSI round, and the count round keys separately.
#[test]
fn distinct_queries_share_the_cached_psi_round() {
    let cluster = outsource(NetCluster::start_local(make_setup()), true);
    let (_, s) = cluster.psi().unwrap();
    assert_eq!((s.rounds, s.cache_misses), (1, 1));
    // A first sum reuses the PSI entry (only its round 2 touches the
    // servers); an identical repeat is then fully warm.
    let (sums, _) = cluster.psi_sum(0).unwrap();
    let (again, s) = cluster.psi_sum(0).unwrap();
    assert_eq!(s.rounds, 0, "repeat sum must ride both cached rounds");
    assert_eq!(s.cache_hits, 2);
    assert_eq!(again, sums);
    // Count keys its own round: first run misses, second hits.
    let (_, s) = cluster.psi_count().unwrap();
    assert_eq!((s.rounds, s.cache_hits), (1, 0));
    let (_, s) = cluster.psi_count().unwrap();
    assert_eq!((s.rounds, s.cache_hits), (0, 1));
    cluster.into_deployment().shutdown().unwrap();
}

/// Callers that pass a fresh z-seed per query never hit round 2, and must
/// not grow the cache either: every fresh seed is one more `z` variant of
/// the same three round-2 keys, and a key keeps at most eight. So across
/// 40 fresh-seed queries the cache never holds more than the two round-1
/// entries plus 3 × 8 round-2 variants — and a pinned-seed query still
/// goes warm on its repeat, and stays warm beside further fresh seeds.
#[test]
fn fresh_z_seeds_cannot_grow_the_cache_without_bound() {
    const CELLS: usize = 4096;
    const BOUND: usize = 2 + 3 * 8;
    let inputs: Vec<OwnerInput> = (0..3u64)
        .map(|j| {
            OwnerInput::from_pairs(
                (1..=CELLS as u64)
                    .filter(|v| v % (j + 2) != 0)
                    .map(|v| (v, v + j)),
            )
        })
        .collect();
    let mut cfg = ClusterConfig::new(CELLS);
    cfg.with_verification = false;
    let mut net = NetCluster::start_local(cfg.setup(inputs.len()).unwrap());
    net.enable_cache();
    let cluster = Cluster::over(net, &inputs, cfg).unwrap();
    let net = cluster.deployment();
    let cache = net.cache().unwrap();
    let batch = QueryBatch::new().sum(0).avg(0);

    let (first, _) = net.psi_query_batch(&batch, 0).unwrap();
    for seed in 1..40 {
        let (answer, s) = net.psi_query_batch(&batch, seed).unwrap();
        assert_eq!(answer, first, "seed {seed} changed the answer");
        assert_eq!((s.cache_hits, s.rounds), (1, 1), "seed {seed}: round 2 hit");
        assert!(
            cache.len() <= BOUND,
            "{} entries after seed {seed}",
            cache.len()
        );
    }
    assert_eq!(cache.len(), BOUND);

    // Pinned seed: cold once, then warm — and still warm after more fresh
    // seeds than a key holds variants minus one.
    let (pinned, s) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!((pinned, s.cache_hits), (first.clone(), 1));
    for seed in 100..107 {
        net.psi_query_batch(&batch, seed).unwrap();
        let (again, s) = cluster.psi_query_batch(&batch).unwrap();
        assert_eq!((again, s.rounds, s.cache_hits), (first.clone(), 0, 2));
    }
    assert_eq!(cache.len(), BOUND);
    cluster.into_deployment().shutdown().unwrap();
}

/// A delta whose rows lie outside the adopted setup's domain — growth
/// sent without `adopt_setup`, or a start past the end (which used to
/// panic cutting the extension blocks) — is refused with a typed error
/// before anything moves: no frame on any link, and the cache not
/// dirtied (a dirtied cache would re-probe the range versions).
#[test]
fn delta_outside_the_adopted_domain_is_refused_before_anything_moves() {
    let cluster = outsource(NetCluster::start_local_sharded(make_setup(), 2), true);
    let net = cluster.deployment();
    let batch = QueryBatch::new().sum(0).avg(0);
    let (cold, _) = cluster.psi_query_batch(&batch).unwrap();

    let before = net.report();
    for start in [DOMAIN, DOMAIN + 5] {
        for k in 0..3 {
            let stray = vec![(Column::Agg(0), vec![0; 2])];
            let err = net.delta_upload(k, 0, start, stray).unwrap_err();
            assert!(
                matches!(err, NetError::DeltaOutsideDomain { domain: DOMAIN, .. }),
                "start {start}, server {k}: {err}"
            );
        }
    }
    let (warm, s) = cluster.psi_query_batch(&batch).unwrap();
    assert_eq!(warm, cold);
    assert_eq!((s.rounds, s.cache_hits), (0, 2));
    assert_eq!(
        msg_deltas(&before, &net.report()),
        vec![0, 0, 0],
        "a refused delta must leave every link silent and the cache clean"
    );
    cluster.into_deployment().shutdown().unwrap();
}
