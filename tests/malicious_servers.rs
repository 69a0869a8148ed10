//! Failure-injection integration tests: every tampering behaviour from
//! §5.2's threat list must be caught by the corresponding verification,
//! on every server, across operations — and across *transports*. The
//! engine applies a node's [`Tamper`] to every output it computes
//! (compute-phase cheating, before the server-side output permutation),
//! so the same matrix runs against the in-memory cluster and against
//! `NetCluster` over its channel transport: the wire cannot weaken
//! verification because both harnesses execute the identical plans
//! against the identical `ServerNode`.
//!
//! Detection is statistical (§5.2 argues a forged cell survives the
//! two-copy checks with probability ~1/b²), so the fixture uses a domain
//! large enough that coincidental agreement is negligible.

use prism::driver::{Cluster, ClusterConfig, OwnerInput};
use prism::net::NetCluster;
use prism::protocol::malicious::Tamper;
use prism::protocol::params::{Initiator, SystemConfig};

const DOMAIN: usize = 48;

/// 4 owners over a 48-cell domain, intersection {2, 7, 11, 23, 31, 40}.
fn fixture_rows() -> Vec<Vec<(u64, u64)>> {
    let mut rows: Vec<Vec<(u64, u64)>> = Vec::new();
    for j in 0..4u64 {
        let mut r: Vec<(u64, u64)> = [2u64, 7, 11, 23, 31, 40]
            .iter()
            .map(|&v| (v, 10 * v + j))
            .collect();
        // Private extras per owner.
        for v in (1..=DOMAIN as u64).filter(|v| v % (j + 3) == 0) {
            if !r.iter().any(|&(c, _)| c == v) {
                r.push((v, 5 + v));
            }
        }
        rows.push(r);
    }
    rows
}

fn cluster(seed: u64) -> Cluster {
    let inputs: Vec<OwnerInput> = fixture_rows()
        .iter()
        .map(|r| OwnerInput::from_pairs(r.iter().copied()))
        .collect();
    let mut cfg = ClusterConfig::new(DOMAIN);
    cfg.seed = seed;
    cfg.agg_domain_max = 2000;
    Cluster::build(&inputs, cfg).unwrap()
}

fn all_tampers() -> Vec<Tamper> {
    vec![
        Tamper::SkipReplay { src: 0 },
        Tamper::SkipReplay { src: 5 },
        Tamper::ReplaceCell { src: 1, dst: 6 },
        Tamper::ReplaceCell { src: 6, dst: 1 },
        Tamper::InjectFake { cell: 3, seed: 1 },
        Tamper::InjectFake { cell: 10, seed: 2 },
        Tamper::TruncateFrom { from: 4 },
    ]
}

#[test]
fn psi_verification_catches_every_tamper_on_either_server() {
    for server in 0..2 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let mut c = cluster(100 + i as u64);
            c.set_tamper(server, t);
            assert!(
                c.psi_verified().is_err(),
                "server {server} tamper {t:?} escaped PSI verification"
            );
        }
    }
}

#[test]
fn count_verification_never_accepts_a_wrong_count() {
    // A tamper may happen to be harmless (replacing one garbage cell with
    // another can leave the decoded 0/1 vector unchanged); what
    // verification must guarantee is that a *wrong* count never passes.
    let honest = cluster(999).psi_count().unwrap().0;
    let mut detected = 0;
    for server in 0..2 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let mut c = cluster(200 + i as u64);
            c.set_tamper(server, t);
            match c.psi_count_verified() {
                Err(_) => detected += 1,
                Ok((n, _)) => assert_eq!(
                    n, honest,
                    "server {server} tamper {t:?} passed verification with a wrong count"
                ),
            }
        }
    }
    assert!(
        detected >= 8,
        "most tampers should be detected, got {detected}"
    );
}

#[test]
fn sum_verification_catches_round2_tampering() {
    // Tampering on any of the three Shamir servers corrupts the primary
    // sum; the permuted verification copy cannot be aligned.
    for server in 0..3 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let mut c = cluster(300 + i as u64);
            c.set_tamper(server, t);
            let r = c.psi_sum_verified(0);
            // Round-1 tampering on servers 0/1 corrupts z; round-2
            // tampering corrupts the inner product. Either way the
            // verification must not silently pass with a wrong result.
            match r {
                Err(_) => {}
                Ok((sums, _)) => {
                    // If it passed, the result must be correct (tampering
                    // may hit cells that don't affect the output).
                    let honest = cluster(300 + i as u64).psi_sum(0).unwrap().0;
                    assert_eq!(
                        sums, honest,
                        "server {server} tamper {t:?} passed verification with a wrong sum"
                    );
                }
            }
        }
    }
}

#[test]
fn honest_runs_never_flagged() {
    for seed in 0..10 {
        let c = cluster(400 + seed);
        assert!(c.psi_verified().is_ok(), "false positive at seed {seed}");
        assert!(c.psi_count_verified().is_ok());
        assert!(c.psi_sum_verified(0).is_ok());
        assert!(c.psu_verified().is_ok());
    }
}

#[test]
fn psu_verification_rejects_cell_targeted_forgeries() {
    let honest = {
        let c = cluster(700);
        let (members, _) = c.psu().unwrap();
        members.iter().filter(|&&m| m).count()
    };
    let mut detected = 0;
    for server in 0..2 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let mut c = cluster(700 + i as u64);
            c.set_tamper(server, t);
            match c.psu_verified() {
                Err(_) => detected += 1,
                // Documented limitation (see psu.rs): a server constant-
                // filling both copies is permutation-invariant, so the
                // two-copy check cannot catch it — but all it can produce
                // is the degenerate near-full-domain union (a blinded
                // nonzero value in ~every cell), never a crafted one.
                Ok((n, _)) => assert!(
                    n == honest || n >= DOMAIN - 1,
                    "server {server} tamper {t:?} passed PSU verification \
                     with a crafted union of {n} (honest {honest})"
                ),
            }
        }
    }
    assert!(
        detected >= 6,
        "most tampers should be detected, got {detected}"
    );
}

#[test]
fn tampered_results_are_actually_wrong_without_verification() {
    // Confirm the attacks are meaningful: unverified queries return
    // different (wrong) answers under tampering.
    let honest = cluster(500).psi().unwrap().0.common;
    let mut any_difference = false;
    for t in all_tampers() {
        let mut c = cluster(500);
        c.set_tamper(0, t);
        let tampered = c.psi().unwrap().0.common;
        if tampered != honest {
            any_difference = true;
        }
    }
    assert!(any_difference, "tampers never changed any result");
}

#[test]
fn max_verification_catches_suppressed_maximum() {
    // An announcer/server coalition that understates the max is caught by
    // the owner holding the larger value (owner_verify_max runs inside
    // psi_max for every owner). Simulate by tampering the PSI round so
    // the common set is wrong — decode then fails or flags.
    let mut c = cluster(600);
    c.set_tamper(0, Tamper::InjectFake { cell: 0, seed: 9 });
    // Either PSI produces a bogus common set whose max round then trips
    // one of the checks, or the query succeeds with the true cells only.
    if let Ok((cells, _, _)) = c.psi_max(0) {
        let honest = cluster(600).psi_max(0).unwrap().0;
        assert_eq!(
            cells.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
            honest.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>()
        );
    } // Err(_) means the tampering was detected.
}

// ---------------------------------------------------------------------
// The same matrix through the engine via NetCluster (channel transport):
// transport must not weaken verification.
// ---------------------------------------------------------------------

/// One fixture owner's plaintext table (one aggregation attribute).
fn owner_table(rows: &[(u64, u64)]) -> prism::protocol::tables::OwnerTable {
    let cells = rows.iter().map(|&(c, x)| (c, [x]));
    prism::protocol::tables::OwnerTable::window(cells, 1, 0, DOMAIN).unwrap()
}

/// Build a channel-transport cluster with every column the verified
/// operations need uploaded through the wire.
fn net_cluster(seed: u64) -> NetCluster {
    use prism::core::Prg;
    use prism::protocol::tables::{owner_uploads, ColumnSet};

    let setup = Initiator::new(SystemConfig::new(4, DOMAIN).with_seed(seed))
        .setup()
        .unwrap();
    let cluster = NetCluster::start_local(setup);
    let op = &cluster.setup().owner;
    let perms = (&op.pf_db1, &op.pf_db2);
    for (j, rows) in fixture_rows().iter().enumerate() {
        let mut prg = Prg::from_seed(seed ^ (7000 + j as u64));
        let uploads = owner_uploads(&owner_table(rows), op, perms, ColumnSet::full(1), &mut prg);
        for (k, columns) in uploads.into_iter().enumerate() {
            cluster.bulk_upload(k, j, columns).unwrap();
        }
    }
    cluster
}

#[test]
fn net_psi_verification_catches_every_tamper_on_either_server() {
    for server in 0..2 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let c = net_cluster(800 + i as u64);
            c.set_tamper(server, t).unwrap();
            assert!(
                c.psi_verified().is_err(),
                "net: server {server} tamper {t:?} escaped PSI verification"
            );
            c.shutdown().unwrap();
        }
    }
}

#[test]
fn net_verified_queries_reject_or_match_honest_results() {
    // The full tamper × operation matrix over the channel transport. As
    // in-process: a verified query under tampering must either error or
    // return the honest answer.
    let honest = net_cluster(900);
    let honest_count = honest.psi_count().unwrap();
    let honest_sum = honest.psi_sum(0, 42).unwrap();
    let honest_union = honest.psu().unwrap().iter().filter(|&&m| m).count();
    honest.shutdown().unwrap();

    let mut detected = 0usize;
    let mut runs = 0usize;
    for server in 0..3 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let c = net_cluster(900 + i as u64);
            c.set_tamper(server, t).unwrap();
            if server < 2 {
                match c.psi_count_verified() {
                    Err(_) => detected += 1,
                    Ok(n) => assert_eq!(
                        n, honest_count,
                        "net: server {server} tamper {t:?} passed count verification wrongly"
                    ),
                }
                match c.psu_verified() {
                    Err(_) => detected += 1,
                    // Same documented limitation as in-process: constant
                    // fill can only inflate towards the full domain.
                    Ok(n) => assert!(
                        n == honest_union || n >= DOMAIN - 1,
                        "net: server {server} tamper {t:?} passed PSU \
                         verification with a crafted union of {n}"
                    ),
                }
                runs += 2;
            }
            match c.psi_sum_verified(0, 42) {
                Err(_) => detected += 1,
                Ok(sums) => assert_eq!(
                    sums, honest_sum,
                    "net: server {server} tamper {t:?} passed sum verification wrongly"
                ),
            }
            runs += 1;
            c.shutdown().unwrap();
        }
    }
    assert!(
        detected * 2 >= runs,
        "most tampers should be detected, got {detected}/{runs}"
    );
}

/// Per-owner per-cell maxima and sums (attribute 0) from the fixture.
fn fixture_values() -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    fixture_rows()
        .iter()
        .map(|rows| {
            let mut t = owner_table(rows);
            (t.maxima.remove(0), t.sums.remove(0))
        })
        .unzip()
}

#[test]
fn net_announcer_fake_values_always_detected() {
    use prism::protocol::malicious::AnnouncerTamper;

    // A fabricated announcement cannot invert through F (and nobody
    // claims it): max and median must error, on both transports, and the
    // announcer must recover when honesty is restored.
    let (maxima, sums) = fixture_values();
    let max_refs: Vec<&[u64]> = maxima.iter().map(Vec::as_slice).collect();
    let sum_refs: Vec<&[u64]> = sums.iter().map(Vec::as_slice).collect();
    let c = net_cluster(1000);
    let honest_max = c.psi_max(&max_refs, 5).unwrap();
    let honest_median = c.psi_median(&sum_refs, 6).unwrap();
    for seed in [1u64, 77, 4096] {
        c.set_announcer_tamper(AnnouncerTamper::FakeValue { seed })
            .unwrap();
        assert!(
            c.psi_max(&max_refs, 5).is_err(),
            "fake announcement (seed {seed}) escaped max verification"
        );
        assert!(
            c.psi_median(&sum_refs, 6).is_err(),
            "fake announcement (seed {seed}) escaped median decode"
        );
    }
    c.set_announcer_tamper(AnnouncerTamper::Honest).unwrap();
    assert_eq!(c.psi_max(&max_refs, 5).unwrap(), honest_max);
    assert_eq!(c.psi_median(&sum_refs, 6).unwrap(), honest_median);
    c.shutdown().unwrap();
}

#[test]
fn net_announcer_slot_lies_rejected_or_harmless() {
    use prism::protocol::malicious::AnnouncerTamper;

    // An announcer always crediting permuted slot s understates the max
    // whenever that slot's owner does not hold it; the owner holding the
    // larger value flags it (paper's §6.3 verification). The fixture's
    // per-cell values 10·v + j are strictly increasing in j, so exactly
    // one of the m slots is the true holder — every other slot must be
    // rejected, and that slot (if announced) must reproduce the honest
    // result bit-for-bit.
    let (maxima, _) = fixture_values();
    let max_refs: Vec<&[u64]> = maxima.iter().map(Vec::as_slice).collect();
    let c = net_cluster(1100);
    let honest = c.psi_max(&max_refs, 7).unwrap();
    let m = maxima.len();
    let mut detected = 0;
    for slot in 0..m {
        c.set_announcer_tamper(AnnouncerTamper::AnnounceSlot(slot))
            .unwrap();
        match c.psi_max(&max_refs, 7) {
            Err(_) => detected += 1,
            Ok(got) => assert_eq!(
                got, honest,
                "slot-{slot} lie passed verification with a wrong maximum"
            ),
        }
    }
    assert_eq!(
        detected,
        m - 1,
        "every slot but the true holder's must be rejected"
    );
    c.shutdown().unwrap();
}

#[test]
fn net_max_median_server_tampers_never_forge_a_value() {
    // Server-side tampering under max/median hits the (unverified) PSI
    // round — the wide rounds model honest relaying — so all a lazy
    // server can do is distort *which* cells get queried. What the
    // announcer rounds' verification guarantees is that no reported cell
    // carries a forged maximum/median: the query errors, or every cell it
    // reports agrees with the honest answer for that cell.
    use std::collections::HashMap;

    let (maxima, sums) = fixture_values();
    let max_refs: Vec<&[u64]> = maxima.iter().map(Vec::as_slice).collect();
    let sum_refs: Vec<&[u64]> = sums.iter().map(Vec::as_slice).collect();
    let honest_c = net_cluster(1200);
    let (hm, hh) = honest_c.psi_max(&max_refs, 8).unwrap();
    let honest_max: HashMap<usize, (u64, Vec<bool>)> = hm
        .iter()
        .zip(hh)
        .map(|(cell, holders)| (cell.cell, (cell.max, holders)))
        .collect();
    let honest_median: HashMap<usize, (Vec<u64>, Vec<usize>)> = honest_c
        .psi_median(&sum_refs, 9)
        .unwrap()
        .into_iter()
        .map(|c| (c.cell, (c.values, c.holders)))
        .collect();
    honest_c.shutdown().unwrap();
    for server in 0..2 {
        for t in [
            Tamper::SkipReplay { src: 0 },
            Tamper::InjectFake { cell: 3, seed: 4 },
        ] {
            let c = net_cluster(1200);
            c.set_tamper(server, t).unwrap();
            if let Ok((cells, holders)) = c.psi_max(&max_refs, 8) {
                for (cell, h) in cells.iter().zip(&holders) {
                    assert_eq!(
                        honest_max.get(&cell.cell),
                        Some(&(cell.max, h.clone())),
                        "server {server} {t:?} forged max at cell {}",
                        cell.cell
                    );
                }
            }
            if let Ok(cells) = c.psi_median(&sum_refs, 9) {
                for cell in cells {
                    assert_eq!(
                        honest_median.get(&cell.cell),
                        Some(&(cell.values.clone(), cell.holders.clone())),
                        "server {server} {t:?} forged median at cell {}",
                        cell.cell
                    );
                }
            }
            c.shutdown().unwrap();
        }
    }
}

#[test]
fn inmemory_announcer_tampers_detected_like_the_wire() {
    use prism::protocol::malicious::AnnouncerTamper;

    // The same announcer failure injection through the in-memory driver:
    // Announcer lives in the engine, so the verdict cannot depend on the
    // transport (the conformance suite pins full equality; this pins the
    // driver facade).
    let mut c = cluster(1300);
    let honest = c.psi_max(0).unwrap().0;
    c.set_announcer_tamper(AnnouncerTamper::FakeValue { seed: 3 });
    assert!(c.psi_max(0).is_err());
    assert!(c.psi_median(0).is_err());
    c.set_announcer_tamper(AnnouncerTamper::Honest);
    assert_eq!(c.psi_max(0).unwrap().0, honest);
}

// ---------------------------------------------------------------------
// Cache × tamper interaction: the cross-query PSI-round cache must not
// weaken detection in either direction — a tamper injected after
// warm-up is still detected, and a tampered round is never cached (so
// restored honesty never replays tampered data).
// ---------------------------------------------------------------------

fn cached_cluster(seed: u64) -> Cluster {
    let inputs: Vec<OwnerInput> = fixture_rows()
        .iter()
        .map(|r| OwnerInput::from_pairs(r.iter().copied()))
        .collect();
    let mut cfg = ClusterConfig::new(DOMAIN).with_cache(true);
    cfg.seed = seed;
    cfg.agg_domain_max = 2000;
    Cluster::build(&inputs, cfg).unwrap()
}

#[test]
fn tamper_after_warmup_still_detected_with_cache() {
    let mut c = cached_cluster(1400);
    // Warm the cache thoroughly: the plain PSI round is now cached.
    let honest = c.psi().unwrap().0;
    assert_eq!(c.psi().unwrap().1.cache_hits, 1, "cache not warm");
    assert!(c.psi_verified().is_ok());
    for t in all_tampers() {
        c.set_tamper(0, t);
        // Verified paths bypass the cache, so the tamper must bite
        // exactly as it does uncached.
        assert!(
            c.psi_verified().is_err(),
            "{t:?} escaped PSI verification behind a warm cache"
        );
        // The plain path must re-execute (the warm entry was dropped),
        // returning the *tampered* data an uncached cluster would.
        let (tampered, stats) = c.psi().unwrap();
        assert_eq!(
            stats.cache_hits, 0,
            "{t:?}: tampered round served from cache"
        );
        let mut oracle = cluster(1400);
        oracle.set_tamper(0, t);
        assert_eq!(
            tampered.fop,
            oracle.psi().unwrap().0.fop,
            "{t:?}: cache masked the tamper on the unverified path"
        );
        c.set_tamper(0, Tamper::Honest);
    }
    // Honesty restored: the cache must not replay any tampered round.
    let (restored, stats) = c.psi().unwrap();
    assert_eq!(stats.cache_hits, 0, "tampered-era round was cached");
    assert_eq!(restored.fop, honest.fop);
    // And the next repeat is a hit again.
    assert_eq!(c.psi().unwrap().1.cache_hits, 1);
}

#[test]
fn net_tamper_after_warmup_still_detected_with_cache() {
    let mut c = net_cluster(1500);
    c.enable_cache();
    let honest = c.psi().unwrap();
    assert_eq!(c.psi().unwrap(), honest, "warm repeat diverged");
    let t = Tamper::InjectFake { cell: 3, seed: 4 };
    c.set_tamper(0, t).unwrap();
    assert!(
        c.psi_verified().is_err(),
        "tamper escaped verification behind a warm net cache"
    );
    let tampered = c.psi().unwrap();
    assert_ne!(tampered, honest, "tamper did not bite the plain path");
    c.set_tamper(0, Tamper::Honest).unwrap();
    assert_eq!(
        c.psi().unwrap(),
        honest,
        "tampered round outlived the tamper"
    );
    let report = c.report();
    assert!(report.cache_hits >= 1, "repeat queries never hit");
    assert!(report.cache_invalidations >= 1, "tamper never invalidated");
    c.shutdown().unwrap();
}

#[test]
fn net_honest_runs_never_flagged() {
    for seed in 0..3 {
        let c = net_cluster(950 + seed);
        assert!(c.psi_verified().is_ok(), "net false positive, seed {seed}");
        assert!(c.psi_count_verified().is_ok());
        assert!(c.psi_sum_verified(0, 9).is_ok());
        assert!(c.psu_verified().is_ok());
        c.shutdown().unwrap();
    }
}
