//! Staleness property: under **any** interleaving of owner uploads
//! (full re-outsourcings *and* streaming delta appends) and queries, the
//! cross-query PSI-round cache never serves a stale reply — a cached
//! cluster and an uncached oracle cluster replaying the same action
//! sequence must agree on every query result, bit for bit.
//!
//! The test also pins the cache's observable behaviour along the way:
//! a repeat eligible query with no upload in between is a hit with zero
//! counted rounds; any `update_owner` in between forces the cold path
//! (and its round count) back, via a version-probe invalidation; a
//! delta `append` forces only the *overlapping* entries cold — the
//! window-scoped batch over the untouched original window stays warm
//! across any number of appends.

use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput, QueryStats};
use prism_protocol::QueryBatch;
use proptest::collection::vec;
use proptest::prelude::*;

const DOMAIN: usize = 12;
const OWNERS: usize = 3;

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Action {
    /// Re-outsource one owner's relation (rows derived from a seed).
    Update { owner: usize, seed: u64 },
    /// Delta upload: grow the domain by two cells, every owner's delta
    /// rows landing in the appended window (rows derived from a seed).
    Append { seed: u64 },
    /// Plain PSI (round 1 is cache-eligible).
    Psi,
    /// PSI count (its own eligible round key).
    Count,
    /// PSI sum (cached round 1 + fresh round 2).
    Sum,
    /// Batched aggregations over one PSI.
    Batch,
    /// Batched aggregations scoped to the original window `[0, DOMAIN)`
    /// — the key whose entries a delta upload must *keep*.
    BatchRange,
}

fn action(sel: u8, owner: u8, seed: u64) -> Action {
    match sel % 10 {
        0 | 1 => Action::Update {
            owner: owner as usize % OWNERS,
            seed,
        },
        2 => Action::Psi,
        3 => Action::Count,
        4 => Action::Sum,
        5 => Action::Batch,
        6 | 7 => Action::Append { seed },
        _ => Action::BatchRange,
    }
}

/// Deterministic owner relation from a seed: a handful of rows over the
/// domain with one aggregation attribute.
fn rows_from_seed(owner: usize, seed: u64) -> OwnerInput {
    let mut rows = Vec::new();
    let mut x = seed ^ (owner as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for _ in 0..6 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rows.push((x % DOMAIN as u64 + 1, vec![x % 97]));
    }
    OwnerInput { rows }
}

/// Deterministic appended-window delta for one owner: three rows whose
/// set values land in `start+1 ..= start+added`.
fn delta_from_seed(owner: usize, seed: u64, start: usize, added: usize) -> OwnerInput {
    let mut rows = Vec::new();
    let mut x = seed ^ (owner as u64 + 7).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for _ in 0..3 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rows.push((start as u64 + x % added as u64 + 1, vec![x % 97]));
    }
    OwnerInput { rows }
}

fn build(cache: bool, seed: u64) -> Cluster {
    let inputs: Vec<OwnerInput> = (0..OWNERS).map(|j| rows_from_seed(j, seed)).collect();
    let mut cfg = ClusterConfig::new(DOMAIN).with_cache(cache);
    cfg.seed = seed;
    cfg.agg_domain_max = 2000;
    Cluster::build(&inputs, cfg).unwrap()
}

/// Run one query on both clusters, compare results, and return the
/// cached cluster's stats.
fn step(cached: &Cluster, oracle: &Cluster, a: &Action) -> (QueryStats, usize) {
    match a {
        Action::Psi => {
            let (got, stats) = cached.psi().unwrap();
            let (want, oracle_stats) = oracle.psi().unwrap();
            assert_eq!(got.fop, want.fop, "stale PSI served");
            (stats, oracle_stats.rounds)
        }
        Action::Count => {
            let (got, stats) = cached.psi_count().unwrap();
            let (want, oracle_stats) = oracle.psi_count().unwrap();
            assert_eq!(got, want, "stale count served");
            (stats, oracle_stats.rounds)
        }
        Action::Sum => {
            let (got, stats) = cached.psi_sum(0).unwrap();
            let (want, oracle_stats) = oracle.psi_sum(0).unwrap();
            assert_eq!(got, want, "stale sum served");
            (stats, oracle_stats.rounds)
        }
        Action::Batch => {
            let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
            let (got, stats) = cached.psi_query_batch(&batch).unwrap();
            let (want, oracle_stats) = oracle.psi_query_batch(&batch).unwrap();
            assert_eq!(got, want, "stale batch served");
            (stats, oracle_stats.rounds)
        }
        Action::BatchRange => {
            let batch = QueryBatch::new().sum(0).avg(0);
            let w = (0u64, DOMAIN as u64);
            let (got, stats) = cached.psi_query_batch_range(&batch, w).unwrap();
            let (want, oracle_stats) = oracle.psi_query_batch_range(&batch, w).unwrap();
            assert_eq!(got, want, "stale window batch served");
            (stats, oracle_stats.rounds)
        }
        Action::Update { .. } | Action::Append { .. } => {
            unreachable!("uploads are handled by the caller")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_uploads_never_serve_a_stale_psi(
        base_seed in 1u64..1_000_000,
        raw in vec((any::<u8>(), any::<u8>(), any::<u64>()), 1..14),
    ) {
        let mut cached = build(true, base_seed);
        let mut oracle = build(false, base_seed);
        // Which eligible round keys are warm right now: the round-1
        // [Psi] entry is shared by Psi/Sum/Batch, [Count] is Count's
        // own, and the round-2 aggregation entries (z-seed pinned) are
        // keyed per item list — Sum's and Batch's are distinct. The
        // window-scoped batch has its own two keys (the range is part of
        // the key): a full re-outsourcing kills them, but a delta upload
        // must NOT — the appended range never overlaps `[0, DOMAIN)`.
        let (mut psi_warm, mut count_warm) = (false, false);
        let (mut sum2_warm, mut batch2_warm) = (false, false);
        let (mut range1_warm, mut range2_warm) = (false, false);
        let mut b = DOMAIN;
        for (sel, owner, seed) in raw {
            let a = action(sel, owner, seed);
            match a {
                Action::Update { owner, seed } => {
                    let input = rows_from_seed(owner, seed ^ 0xFEED);
                    cached.update_owner(owner, &input).unwrap();
                    oracle.update_owner(owner, &input).unwrap();
                    psi_warm = false;
                    count_warm = false;
                    sum2_warm = false;
                    batch2_warm = false;
                    range1_warm = false;
                    range2_warm = false;
                }
                Action::Append { seed } => {
                    let added = 2;
                    let inputs: Vec<OwnerInput> = (0..OWNERS)
                        .map(|j| delta_from_seed(j, seed, b, added))
                        .collect();
                    cached.append(added, &inputs).unwrap();
                    oracle.append(added, &inputs).unwrap();
                    b += added;
                    // Full-domain entries overlap every range, including
                    // the appended one: they go cold. The window entries
                    // over [0, DOMAIN) survive.
                    psi_warm = false;
                    count_warm = false;
                    sum2_warm = false;
                    batch2_warm = false;
                }
                ref q => {
                    // (expected hits, eligible rounds) for this query.
                    let (hits, eligible) = match q {
                        Action::Psi => (u64::from(psi_warm), 1),
                        Action::Count => (u64::from(count_warm), 1),
                        Action::Sum => (u64::from(psi_warm) + u64::from(sum2_warm), 2),
                        Action::Batch => (u64::from(psi_warm) + u64::from(batch2_warm), 2),
                        Action::BatchRange => {
                            (u64::from(range1_warm) + u64::from(range2_warm), 2)
                        }
                        Action::Update { .. } | Action::Append { .. } => unreachable!(),
                    };
                    let (stats, oracle_rounds) = step(&cached, &oracle, q);
                    prop_assert_eq!(stats.cache_hits(), hits, "wrong hit count for {:?}", q);
                    prop_assert_eq!(
                        stats.rounds, oracle_rounds - hits as usize,
                        "a warm round must not be counted"
                    );
                    prop_assert_eq!(
                        stats.cache_misses(), eligible - hits,
                        "every cold eligible round records a miss"
                    );
                    match q {
                        Action::Count => count_warm = true,
                        Action::Psi => psi_warm = true,
                        Action::Sum => {
                            psi_warm = true;
                            sum2_warm = true;
                        }
                        Action::Batch => {
                            psi_warm = true;
                            batch2_warm = true;
                        }
                        Action::BatchRange => {
                            range1_warm = true;
                            range2_warm = true;
                        }
                        Action::Update { .. } | Action::Append { .. } => unreachable!(),
                    }
                }
            }
        }
    }
}
