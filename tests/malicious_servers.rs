//! Failure-injection integration tests: every tampering behaviour from
//! §5.2's threat list must be caught by the corresponding verification,
//! on every server, across operations — and across *deployments*. The
//! engine applies a node's [`Tamper`] to every output it computes
//! (compute-phase cheating, before the server-side output permutation),
//! and one owner-side facade (`driver::Cluster`) drives every deployment,
//! so each row of the tamper × operation matrix is **one** body, run on
//! the in-process deployment and on `NetCluster` over channel links: the
//! wire cannot weaken verification because both execute the identical
//! plans against the identical `ServerNode`.
//!
//! Detection is statistical (§5.2 argues a forged cell survives the
//! two-copy checks with probability ~1/b²), so the fixture uses a domain
//! large enough that coincidental agreement is negligible.

use prism::driver::{Cluster, ClusterConfig, Deployment, InProcess, OwnerInput};
use prism::net::NetCluster;
use prism::protocol::malicious::{AnnouncerTamper, Tamper};
use prism::protocol::PsiRoundCache;

const DOMAIN: usize = 48;

/// 4 owners over a 48-cell domain, intersection {2, 7, 11, 23, 31, 40}.
/// The common cells' values 10·v + j are strictly increasing in the
/// owner index j.
fn fixture_inputs() -> Vec<OwnerInput> {
    (0..4u64)
        .map(|j| {
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
            OwnerInput::from_pairs(r)
        })
        .collect()
}

/// A deployment the matrix runs on: how to bring one up with the fixture
/// outsourced, reach its failure-injection controls, and tear it down.
trait Harness: Deployment + Sized {
    /// Prefix of this deployment's assertion messages.
    const LABEL: &'static str;
    /// Seeds `honest_runs_never_flagged` sweeps.
    const HONEST_RUNS: u64;

    fn start(cfg: ClusterConfig) -> Cluster<Self>;
    fn tamper(c: &mut Cluster<Self>, server: usize, t: Tamper);
    fn announcer_tamper(c: &mut Cluster<Self>, t: AnnouncerTamper);
    fn cache(c: &Cluster<Self>) -> &PsiRoundCache;
    fn stop(c: Cluster<Self>);
}

impl Harness for InProcess {
    const LABEL: &'static str = "";
    const HONEST_RUNS: u64 = 10;

    fn start(cfg: ClusterConfig) -> Cluster {
        Cluster::build(&fixture_inputs(), cfg).unwrap()
    }
    fn tamper(c: &mut Cluster, server: usize, t: Tamper) {
        c.set_tamper(server, t);
    }
    fn announcer_tamper(c: &mut Cluster, t: AnnouncerTamper) {
        c.set_announcer_tamper(t);
    }
    fn cache(c: &Cluster) -> &PsiRoundCache {
        c.cache().unwrap()
    }
    fn stop(_: Cluster) {}
}

/// Channel links, every column uploaded through the wire.
impl Harness for NetCluster {
    const LABEL: &'static str = "net: ";
    const HONEST_RUNS: u64 = 3;

    fn start(cfg: ClusterConfig) -> Cluster<NetCluster> {
        let mut net = NetCluster::start_local(cfg.setup(4).unwrap());
        if cfg.cache {
            net.enable_cache();
        }
        Cluster::over(net, &fixture_inputs(), cfg).unwrap()
    }
    fn tamper(c: &mut Cluster<NetCluster>, server: usize, t: Tamper) {
        c.deployment().set_tamper(server, t).unwrap();
    }
    fn announcer_tamper(c: &mut Cluster<NetCluster>, t: AnnouncerTamper) {
        c.deployment().set_announcer_tamper(t).unwrap();
    }
    fn cache(c: &Cluster<NetCluster>) -> &PsiRoundCache {
        c.deployment().cache().unwrap()
    }
    fn stop(c: Cluster<NetCluster>) {
        c.into_deployment().shutdown().unwrap();
    }
}

fn fixture_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DOMAIN);
    cfg.seed = seed;
    cfg.agg_domain_max = 2000;
    cfg
}

fn deploy<H: Harness>(seed: u64) -> Cluster<H> {
    H::start(fixture_cfg(seed))
}

fn cluster(seed: u64) -> Cluster {
    deploy(seed)
}

/// One body, both deployments: `$body::<InProcess>` under the in-process
/// test name and `$body::<NetCluster>` under the wire one, each from its
/// own base seed.
macro_rules! on_both {
    ($body:ident: $local:ident($local_seed:expr), $wire:ident($wire_seed:expr)) => {
        #[test]
        fn $local() {
            $body::<InProcess>($local_seed)
        }
        #[test]
        fn $wire() {
            $body::<NetCluster>($wire_seed)
        }
    };
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

fn psi_verification_catches_every_tamper<H: Harness>(seed: u64) {
    for server in 0..2 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let mut c = deploy::<H>(seed + i as u64);
            H::tamper(&mut c, server, t);
            assert!(
                c.psi_verified().is_err(),
                "{}server {server} tamper {t:?} escaped PSI verification",
                H::LABEL
            );
            H::stop(c);
        }
    }
}
on_both!(psi_verification_catches_every_tamper:
    psi_verification_catches_every_tamper_on_either_server(100),
    net_psi_verification_catches_every_tamper_on_either_server(800));

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

fn honest_runs_are_never_flagged<H: Harness>(seed: u64) {
    for run in 0..H::HONEST_RUNS {
        let c = deploy::<H>(seed + run);
        assert!(
            c.psi_verified().is_ok(),
            "{}false positive at seed {run}",
            H::LABEL
        );
        assert!(c.psi_count_verified().is_ok());
        assert!(c.psi_sum_verified(0).is_ok());
        assert!(c.psu_verified().is_ok());
        H::stop(c);
    }
}
on_both!(honest_runs_are_never_flagged:
    honest_runs_never_flagged(400),
    net_honest_runs_never_flagged(950));

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

fn verified_queries_reject_or_match_honest<H: Harness>(seed: u64) {
    // The full tamper × operation matrix: a verified query under
    // tampering must either error or return the honest answer.
    let honest = deploy::<H>(seed);
    let honest_count = honest.psi_count().unwrap().0;
    let honest_sum = honest.psi_sum(0).unwrap().0;
    let honest_union = honest.psu().unwrap().0.iter().filter(|&&m| m).count();
    H::stop(honest);

    let mut detected = 0usize;
    let mut runs = 0usize;
    for server in 0..3 {
        for (i, t) in all_tampers().into_iter().enumerate() {
            let mut c = deploy::<H>(seed + i as u64);
            H::tamper(&mut c, server, t);
            if server < 2 {
                match c.psi_count_verified() {
                    Err(_) => detected += 1,
                    Ok((n, _)) => assert_eq!(
                        n,
                        honest_count,
                        "{}server {server} tamper {t:?} passed count verification wrongly",
                        H::LABEL
                    ),
                }
                match c.psu_verified() {
                    Err(_) => detected += 1,
                    // The documented PSU limitation: constant fill can
                    // only inflate towards the full domain.
                    Ok((n, _)) => assert!(
                        n == honest_union || n >= DOMAIN - 1,
                        "{}server {server} tamper {t:?} passed PSU \
                         verification with a crafted union of {n}",
                        H::LABEL
                    ),
                }
                runs += 2;
            }
            match c.psi_sum_verified(0) {
                Err(_) => detected += 1,
                Ok((sums, _)) => assert_eq!(
                    sums,
                    honest_sum,
                    "{}server {server} tamper {t:?} passed sum verification wrongly",
                    H::LABEL
                ),
            }
            runs += 1;
            H::stop(c);
        }
    }
    assert!(
        detected * 2 >= runs,
        "most tampers should be detected, got {detected}/{runs}"
    );
}
on_both!(verified_queries_reject_or_match_honest:
    verified_queries_reject_or_match_honest_results(900),
    net_verified_queries_reject_or_match_honest_results(900));

fn announcer_fake_values_always_detected<H: Harness>(seed: u64) {
    // A fabricated announcement cannot invert through F (and nobody
    // claims it): max and median must error, on every deployment — the
    // announcer lives in the engine, so the verdict cannot depend on the
    // transport — and the announcer must recover when honesty is restored.
    let mut c = deploy::<H>(seed);
    let honest_max = c.psi_max(0).unwrap().0;
    let honest_median = c.psi_median(0).unwrap().0;
    for seed in [1u64, 3, 77, 4096] {
        H::announcer_tamper(&mut c, AnnouncerTamper::FakeValue { seed });
        assert!(
            c.psi_max(0).is_err(),
            "fake announcement (seed {seed}) escaped max verification"
        );
        assert!(
            c.psi_median(0).is_err(),
            "fake announcement (seed {seed}) escaped median decode"
        );
    }
    H::announcer_tamper(&mut c, AnnouncerTamper::Honest);
    assert_eq!(c.psi_max(0).unwrap().0, honest_max);
    assert_eq!(c.psi_median(0).unwrap().0, honest_median);
    H::stop(c);
}
on_both!(announcer_fake_values_always_detected:
    inmemory_announcer_tampers_detected_like_the_wire(1300),
    net_announcer_fake_values_always_detected(1000));

fn announcer_slot_lies_are_rejected_or_harmless<H: Harness>(seed: u64) {
    // An announcer always crediting permuted slot s understates the max
    // whenever that slot's owner does not hold it; the owner holding the
    // larger value flags it (paper's §6.3 verification). The fixture's
    // per-cell values 10·v + j are strictly increasing in j, so exactly
    // one of the m slots is the true holder — every other slot must be
    // rejected, and that slot (if announced) must reproduce the honest
    // result bit-for-bit.
    let mut c = deploy::<H>(seed);
    let max = |c: &Cluster<H>| c.psi_max(0).map(|(cells, holders, _)| (cells, holders));
    let honest = max(&c).unwrap();
    let m = c.owners();
    let mut detected = 0;
    for slot in 0..m {
        H::announcer_tamper(&mut c, AnnouncerTamper::AnnounceSlot(slot));
        match max(&c) {
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
    H::stop(c);
}
on_both!(announcer_slot_lies_are_rejected_or_harmless:
    announcer_slot_lies_rejected_or_harmless(1100),
    net_announcer_slot_lies_rejected_or_harmless(1100));

fn max_median_server_tampers_never_forge<H: Harness>(seed: u64) {
    // Server-side tampering under max/median hits the (unverified) PSI
    // round — the wide rounds model honest relaying — so all a lazy
    // server can do is distort *which* cells get queried. What the
    // announcer rounds' verification guarantees is that no reported cell
    // carries a forged maximum/median: the query errors, or every cell it
    // reports agrees with the honest answer for that cell.
    use std::collections::HashMap;

    let honest_c = deploy::<H>(seed);
    let (hm, hh, _) = honest_c.psi_max(0).unwrap();
    let honest_max: HashMap<usize, (u64, Vec<bool>)> = hm
        .iter()
        .zip(hh)
        .map(|(cell, holders)| (cell.cell, (cell.max, holders)))
        .collect();
    let honest_median: HashMap<usize, (Vec<u64>, Vec<usize>)> = honest_c
        .psi_median(0)
        .unwrap()
        .0
        .into_iter()
        .map(|c| (c.cell, (c.values, c.holders)))
        .collect();
    H::stop(honest_c);
    for server in 0..2 {
        for t in [
            Tamper::SkipReplay { src: 0 },
            Tamper::InjectFake { cell: 3, seed: 4 },
        ] {
            let mut c = deploy::<H>(seed);
            H::tamper(&mut c, server, t);
            if let Ok((cells, holders, _)) = c.psi_max(0) {
                for (cell, h) in cells.iter().zip(&holders) {
                    assert_eq!(
                        honest_max.get(&cell.cell),
                        Some(&(cell.max, h.clone())),
                        "server {server} {t:?} forged max at cell {}",
                        cell.cell
                    );
                }
            }
            if let Ok((cells, _)) = c.psi_median(0) {
                for cell in cells {
                    assert_eq!(
                        honest_median.get(&cell.cell),
                        Some(&(cell.values.clone(), cell.holders.clone())),
                        "server {server} {t:?} forged median at cell {}",
                        cell.cell
                    );
                }
            }
            H::stop(c);
        }
    }
}
on_both!(max_median_server_tampers_never_forge:
    max_median_server_tampers_never_forge_a_value(1200),
    net_max_median_server_tampers_never_forge_a_value(1200));

// ---------------------------------------------------------------------
// Cache × tamper interaction: the cross-query PSI-round cache must not
// weaken detection in either direction — a tamper injected after
// warm-up is still detected, and a tampered round is never cached (so
// restored honesty never replays tampered data).
// ---------------------------------------------------------------------

fn tamper_after_warmup_is_still_detected<H: Harness>(seed: u64) {
    let mut c = H::start(fixture_cfg(seed).with_cache(true));
    // Warm the cache thoroughly: the plain PSI round is now cached.
    let honest = c.psi().unwrap().0;
    let (warm, stats) = c.psi().unwrap();
    assert_eq!(stats.cache_hits, 1, "cache not warm");
    assert_eq!(warm, honest, "warm repeat diverged");
    assert!(c.psi_verified().is_ok());
    // An injected fake changes the combined vector at its cell, so this
    // one must also change the plain answer.
    let biting = Tamper::InjectFake { cell: 3, seed: 4 };
    for t in all_tampers().into_iter().chain([biting]) {
        H::tamper(&mut c, 0, t);
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
        let mut oracle = deploy::<H>(seed);
        H::tamper(&mut oracle, 0, t);
        assert_eq!(
            tampered.fop,
            oracle.psi().unwrap().0.fop,
            "{t:?}: cache masked the tamper on the unverified path"
        );
        H::stop(oracle);
        if t == biting {
            assert_ne!(tampered, honest, "tamper did not bite the plain path");
        }
        H::tamper(&mut c, 0, Tamper::Honest);
    }
    // Honesty restored: the cache must not replay any tampered round.
    let (restored, stats) = c.psi().unwrap();
    assert_eq!(stats.cache_hits, 0, "tampered-era round was cached");
    assert_eq!(
        restored.fop, honest.fop,
        "tampered round outlived the tamper"
    );
    // And the next repeat is a hit again.
    assert_eq!(c.psi().unwrap().1.cache_hits, 1);
    assert!(H::cache(&c).hits() >= 1, "repeat queries never hit");
    assert!(
        H::cache(&c).invalidations() >= 1,
        "tamper never invalidated"
    );
    H::stop(c);
}
on_both!(tamper_after_warmup_is_still_detected:
    tamper_after_warmup_still_detected_with_cache(1400),
    net_tamper_after_warmup_still_detected_with_cache(1500));
