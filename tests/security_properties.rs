//! Tests for the security-model corners §3.4 promises: output-size
//! hiding, count blinding, knowledge separation, and the leakage bounds
//! of the PSI lemma.

use prism::core::{reconstruct2, Prg};
use prism::driver::{Cluster, ClusterConfig, OwnerInput};
use prism::protocol::params::{Initiator, SystemConfig};
use prism::protocol::psi;
use prism::protocol::tables::share_indicator;

fn cluster_from_sets(sets: &[Vec<u64>], domain: usize, seed: u64) -> Cluster {
    let inputs: Vec<OwnerInput> = sets
        .iter()
        .map(|s| OwnerInput::from_set(s.iter().copied()))
        .collect();
    let mut cfg = ClusterConfig::new(domain);
    cfg.seed = seed;
    cfg.with_aggregation = false;
    Cluster::build(&inputs, cfg).unwrap()
}

#[test]
fn output_size_is_constant_regardless_of_data() {
    // §3.4: "the output of queries ... contains an identical number of
    // bits as inputs" — fop always has length b.
    for sets in [
        vec![vec![1u64], vec![1u64]],
        vec![(1..=16).collect::<Vec<u64>>(), (1..=16).collect()],
        vec![vec![], vec![]],
    ] {
        let c = cluster_from_sets(&sets, 16, 1);
        let (out, _) = c.psi().unwrap();
        assert_eq!(out.fop.len(), 16);
        let (members, _) = c.psu().unwrap();
        assert_eq!(members.len(), 16);
    }
}

#[test]
fn psi_noncommon_values_do_not_expose_holder_counts() {
    // The §5.1 lemma: without g, the decoded non-1 value does not tell
    // owners how many others held the item. We verify the *weaker but
    // testable* consequence: across fresh share randomness, different
    // holder counts can decode to the same fop value, and the mapping
    // count → value is not injective across cells.
    let mut seen_values_for_count: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
        Default::default();
    for seed in 0..30 {
        // Cell 1 held by 1 owner, cell 2 by 2 owners, cell 3 by nobody.
        let sets = vec![
            vec![1u64, 2],
            vec![2u64],
            vec![3u64], // brings cell 3 into someone's set? no — value 3
        ];
        let c = cluster_from_sets(&sets, 3, seed);
        let (out, _) = c.psi().unwrap();
        seen_values_for_count
            .entry(1)
            .or_default()
            .insert(out.fop[0]);
        seen_values_for_count
            .entry(2)
            .or_default()
            .insert(out.fop[1]);
    }
    // The g^x values are drawn from the same small subgroup for both
    // counts; the value sets must overlap or at least not be singletons
    // that differ systematically. (δ is regenerated per seed, so values
    // range over many subgroups — the point is non-injectivity.)
    let ones = &seen_values_for_count[&1];
    let twos = &seen_values_for_count[&2];
    assert!(
        ones.len() > 1 || twos.len() > 1,
        "fop values must vary with share randomness, not just holder count"
    );
}

#[test]
fn psu_blinds_multiplicity() {
    // §7: a value held by 1 owner and one held by 3 owners must both
    // decode to "present" without the decoded values revealing counts.
    let sets = vec![vec![1u64, 2], vec![1u64], vec![1u64]];
    let c = cluster_from_sets(&sets, 2, 5);
    let (members, _) = c.psu().unwrap();
    assert_eq!(members, vec![true, true]);
}

#[test]
fn shares_at_one_server_are_uniformlike() {
    // A single server's view of an indicator column: the share values of
    // 1-cells and 0-cells must be statistically indistinguishable (here:
    // both hit the full residue range).
    let setup = Initiator::new(SystemConfig::new(2, 64).with_seed(9))
        .setup()
        .unwrap();
    let delta = setup.owner.delta;
    let mut prg = Prg::from_seed(11);
    let ones = vec![1u64; 2048];
    let zeros = vec![0u64; 2048];
    let s_ones = share_indicator(&ones, delta, &mut prg);
    let s_zeros = share_indicator(&zeros, delta, &mut prg);
    let spread = |v: &[u64]| {
        let mut seen = std::collections::HashSet::new();
        for &x in v {
            seen.insert(x);
        }
        seen.len()
    };
    // Both columns' first shares cover most of Z_δ.
    assert!(spread(&s_ones.shares[0]) as u64 > delta / 2);
    assert!(spread(&s_zeros.shares[0]) as u64 > delta / 2);
    // And reconstruct correctly.
    for i in 0..2048 {
        assert_eq!(
            reconstruct2(s_ones.shares[0][i], s_ones.shares[1][i], delta),
            1
        );
    }
}

#[test]
fn knowledge_separation_of_role_views() {
    let setup = Initiator::new(SystemConfig::new(3, 8).with_seed(13))
        .setup()
        .unwrap();
    // Owners know η but the server view carries only η′ = α·η with α > 1:
    // a server reducing mod η′ cannot complete the mod-η reduction.
    assert!(setup.servers[0].eta_prime > setup.owner.eta);
    assert_eq!(setup.servers[0].eta_prime % setup.owner.eta, 0);
    assert_ne!(setup.servers[0].eta_prime, setup.owner.eta);
    // The announcer view carries only δ, m, width, seed.
    let a = &setup.announcer;
    assert_eq!(a.delta, setup.owner.delta);
}

#[test]
fn server_cannot_decode_results_without_eta() {
    // Run the PSI server round and confirm the outputs are NOT the final
    // results: decoding requires mod-η reduction with the owner's η.
    let setup = Initiator::new(SystemConfig::new(2, 4).with_seed(17))
        .setup()
        .unwrap();
    let sets = [vec![1u64, 2], vec![2u64, 3]];
    let mut uploads = Vec::new();
    for (j, s) in sets.iter().enumerate() {
        let mut indicator = vec![0u64; 4];
        for &v in s {
            indicator[(v - 1) as usize] = 1;
        }
        let mut prg = Prg::from_seed(19 + j as u64);
        uploads.push(share_indicator(&indicator, setup.owner.delta, &mut prg));
    }
    let refs1: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
    let sp = &setup.servers[0];
    let mut out1 = vec![0; sp.b];
    psi::server_psi_round_into(&refs1, sp, &sp.power_table(), &mut out1, 1).unwrap();
    // The raw server output for the common cell (value 2, index 1) is not
    // 1 — only the owner-side mod-η product reveals membership.
    assert_ne!(out1[1], 1, "server output must not already be decoded");
}
