//! Shard invariance over the in-memory backend: every operation the
//! driver exposes — including the verified variants, the batched
//! round-2, max/median (announcer rounds), and the tamper matrix —
//! returns bit-identical results and identical round counts for shard
//! counts {1, 2, 4, 8}, while the fan-out stays observable through
//! `QueryStats::shard_dispatches`.

use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput, QueryBatch};
use prism_protocol::malicious::Tamper;
use proptest::collection::vec;
use proptest::prelude::*;

const DOMAIN: usize = 32;

fn inputs_from_sets(sets: &[Vec<u64>]) -> Vec<OwnerInput> {
    sets.iter()
        .map(|s| OwnerInput {
            rows: s.iter().map(|&v| (v, vec![v * 7 % 90 + 1])).collect(),
        })
        .collect()
}

fn build(sets: &[Vec<u64>], shards: usize, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::new(DOMAIN).with_shards(shards);
    cfg.seed = seed;
    cfg.agg_domain_max = 2000;
    Cluster::build(&inputs_from_sets(sets), cfg).unwrap()
}

fn fixed_sets() -> Vec<Vec<u64>> {
    (0..3)
        .map(|j| (1..=DOMAIN as u64).filter(|v| v % (j + 2) != 0).collect())
        .collect()
}

/// The full operation surface, with the round count of every query.
#[derive(Debug, PartialEq)]
struct Surface {
    psi: Vec<u64>,
    psi_verified: Vec<u64>,
    psu: Vec<bool>,
    psu_verified: usize,
    count: usize,
    count_verified: usize,
    sum: Vec<u64>,
    sum_verified: Vec<u64>,
    avg: Vec<(u64, u64)>,
    batch: Vec<prism_protocol::AggResult>,
    max: Vec<(u64, Vec<bool>)>,
    median: Vec<Vec<u64>>,
    rounds: Vec<usize>,
}

fn surface(c: &Cluster) -> Surface {
    let mut rounds = Vec::new();
    let (psi, s) = c.psi().unwrap();
    rounds.push(s.rounds());
    let (psiv, s) = c.psi_verified().unwrap();
    rounds.push(s.rounds());
    let (psu, s) = c.psu().unwrap();
    rounds.push(s.rounds());
    let (psuv, s) = c.psu_verified().unwrap();
    rounds.push(s.rounds());
    let (count, s) = c.psi_count().unwrap();
    rounds.push(s.rounds());
    let (countv, s) = c.psi_count_verified().unwrap();
    rounds.push(s.rounds());
    let (sum, s) = c.psi_sum(0).unwrap();
    rounds.push(s.rounds());
    let (sumv, s) = c.psi_sum_verified(0).unwrap();
    rounds.push(s.rounds());
    let (avg, s) = c.psi_avg(0).unwrap();
    rounds.push(s.rounds());
    let (batch, s) = c
        .psi_query_batch(&QueryBatch::new().sum(0).avg(0).count_tuples())
        .unwrap();
    rounds.push(s.rounds());
    let (max, holders, s) = c.psi_max(0).unwrap();
    rounds.push(s.rounds());
    let (median, s) = c.psi_median(0).unwrap();
    rounds.push(s.rounds());
    Surface {
        psi: psi.fop,
        psi_verified: psiv.fop,
        psu,
        psu_verified: psuv,
        count,
        count_verified: countv,
        sum,
        sum_verified: sumv,
        avg: avg.iter().map(|a| (a.sum, a.count)).collect(),
        batch,
        max: max
            .iter()
            .zip(&holders)
            .map(|(cell, h)| (cell.max, h.clone()))
            .collect(),
        median: median.iter().map(|m| m.values.clone()).collect(),
        rounds,
    }
}

#[test]
fn every_operation_invariant_across_shard_counts() {
    let sets = fixed_sets();
    let reference = surface(&build(&sets, 1, 11));
    for shards in [2usize, 4, 8] {
        let c = build(&sets, shards, 11);
        assert_eq!(c.shards(), shards);
        assert_eq!(surface(&c), reference, "shards={shards}");
    }
}

#[test]
fn sharding_composes_with_threads() {
    let sets = fixed_sets();
    let reference = surface(&build(&sets, 1, 12));
    let mut c = build(&sets, 4, 12);
    c.set_threads(3);
    assert_eq!(surface(&c), reference);
}

/// A round divides once, by rows: `threads` blocks per shard, never
/// across a shard boundary. 32 rows divide by neither 3 nor 7, a 7-way
/// shard (4–5 rows) is too short to cut for 3 or 5 threads and long
/// enough for 2, and PSU's blinding stream must stay aligned on every
/// block boundary.
#[test]
fn every_threads_by_shards_division_is_invariant() {
    let sets = fixed_sets();
    let reference = surface(&build(&sets, 1, 17));
    for shards in [1usize, 2, 3, 7] {
        for threads in [1usize, 2, 3, 5] {
            let mut c = build(&sets, shards, 17);
            c.set_threads(threads);
            assert_eq!(surface(&c), reference, "shards={shards} threads={threads}");
        }
    }
}

#[test]
fn fanout_is_observable_and_absent_when_monolithic() {
    let sets = fixed_sets();
    let c1 = build(&sets, 1, 13);
    assert_eq!(c1.psi().unwrap().1.shard_dispatches(), 0);
    let c4 = build(&sets, 4, 13);
    // PSI: one round, two additive servers, four shards each.
    assert_eq!(c4.psi().unwrap().1.shard_dispatches(), 8);
    // Sum: PSI round (2 servers) + Shamir round (3 servers), ×4 shards.
    assert_eq!(c4.psi_sum(0).unwrap().1.shard_dispatches(), 20);
}

/// The one-line `QueryStats` rendering that harnesses print names the
/// fan-out and cache meters by key, cold and warm.
#[test]
fn stats_line_names_the_fanout_and_cache_meters() {
    let mut cfg = ClusterConfig::new(DOMAIN).with_shards(4).with_cache(true);
    cfg.seed = 13;
    cfg.agg_domain_max = 2000;
    let c = Cluster::build(&inputs_from_sets(&fixed_sets()), cfg).unwrap();
    let batch = QueryBatch::new().sum(0).avg(0);
    let cold = c.psi_query_batch(&batch).unwrap().1.to_string();
    for key in ["rounds=2 ", "shard_dispatches=20 ", "cache_misses=2 "] {
        assert!(cold.contains(key), "cold line lacks {key:?}: {cold}");
    }
    let warm = c.psi_query_batch(&batch).unwrap().1.to_string();
    for key in ["rounds=0 ", "shard_dispatches=0 ", "cache_hits=2 "] {
        assert!(warm.contains(key), "warm line lacks {key:?}: {warm}");
    }
}

#[test]
fn non_dividing_shard_counts_are_invariant_too() {
    // 32 % 5 and 32 % 7 are non-zero: the remainder-spreading split must
    // cover the domain with balanced, non-empty shards (a fixed-chunk
    // split underflowed here) and stay bit-identical.
    let sets = fixed_sets();
    let reference = surface(&build(&sets, 1, 16));
    for shards in [3usize, 5, 7, 31] {
        let c = build(&sets, shards, 16);
        assert_eq!(c.shards(), shards);
        assert_eq!(surface(&c), reference, "shards={shards}");
    }
}

#[test]
fn shard_count_exceeding_domain_is_clamped() {
    let sets = fixed_sets();
    let c = build(&sets, 1000, 14);
    assert_eq!(c.shards(), DOMAIN);
    assert_eq!(surface(&c), surface(&build(&sets, 1, 14)));
}

#[test]
fn tampered_variants_fail_identically_for_every_shard_count() {
    let sets = fixed_sets();
    for tamper in [
        Tamper::SkipReplay { src: 0 },
        Tamper::ReplaceCell { src: 0, dst: 9 },
        Tamper::InjectFake { cell: 2, seed: 5 },
        Tamper::TruncateFrom { from: 4 },
    ] {
        for shards in [1usize, 2, 4, 8] {
            let mut c = build(&sets, shards, 15);
            c.set_tamper(0, tamper);
            assert!(
                c.psi_verified().is_err(),
                "{tamper:?} undetected by PSI at {shards} shards"
            );
            assert!(
                c.psi_count_verified().is_err(),
                "{tamper:?} undetected by count at {shards} shards"
            );
            assert!(
                c.psi_sum_verified(0).is_err(),
                "{tamper:?} undetected by sum at {shards} shards"
            );
            // Unverified queries still answer (possibly wrongly) — and
            // identically so at every fan-out.
            let tampered_psi = c.psi().unwrap().0.fop;
            let mut mono = build(&sets, 1, 15);
            mono.set_tamper(0, tamper);
            assert_eq!(tampered_psi, mono.psi().unwrap().0.fop);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random relations: the whole operation surface (including
    /// announcer-backed max/median) is shard-invariant, and a randomly
    /// drawn tampering behaviour produces the *same* verification
    /// verdicts and the same (possibly wrong) unverified outputs at
    /// every shard count.
    #[test]
    fn random_relations_full_surface_invariant(
        seed in 1u64..500,
        sets in vec(vec(1u64..=DOMAIN as u64, 1..16), 2..5),
        tamper_sel in 0u8..4,
        cell in 0usize..DOMAIN,
    ) {
        let reference = surface(&build(&sets, 1, seed));
        for shards in [2usize, 4, 8] {
            prop_assert_eq!(
                &surface(&build(&sets, shards, seed)),
                &reference,
                "shards={}",
                shards
            );
        }

        let tamper = match tamper_sel {
            0 => Tamper::SkipReplay { src: cell },
            1 => Tamper::ReplaceCell { src: cell, dst: DOMAIN - 1 - cell },
            2 => Tamper::InjectFake { cell, seed },
            _ => Tamper::TruncateFrom { from: cell },
        };
        let tampered = |shards: usize| {
            let mut c = build(&sets, shards, seed);
            c.set_tamper(1, tamper);
            (
                c.psi_verified().map(|(o, _)| o.fop),
                c.psi_count_verified().map(|(n, _)| n),
                c.psi_sum_verified(0).map(|(v, _)| v),
                c.psi().map(|(o, _)| o.fop),
                c.psu().map(|(m, _)| m),
            )
        };
        let want = tampered(1);
        for shards in [2usize, 4, 8] {
            prop_assert_eq!(&tampered(shards), &want, "tampered, shards={}", shards);
        }
    }
}
