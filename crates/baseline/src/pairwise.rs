//! Pairwise delegated-PSI baseline (the \[3\]-style comparator of §1).
//!
//! The introduction's scaling argument: a protocol designed for two DB
//! owners, extended to `m > 2` owners by pairwise composition, incurs
//! `(nm)²` communication. We implement a concrete two-party delegated PSI
//! (PRF-hashed value exchange through a cloud server — semi-honest, the
//! standard baseline shape) plus the m-owner extension that intersects
//! pairwise results, metering messages and bytes so the Table-13 bench can
//! print the quadratic blow-up next to PRISM's linear row.

use prism_core::prg::splitmix64;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Communication metering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairwiseCost {
    /// Two-party PSI executions performed.
    pub pairwise_runs: u64,
    /// Hash values transferred.
    pub hashes_sent: u64,
    /// Bytes on the wire (8-byte hashes).
    pub bytes: u64,
    /// Communication rounds.
    pub rounds: u64,
}

/// Keyed PRF used for the hashed exchange (splitmix-based; fine for a
/// *performance* baseline — the security analysis belongs to [3], not us).
fn prf(key: u64, value: u64) -> u64 {
    let mut s = key ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Two-party delegated PSI: both owners PRF their sets under a shared key
/// and ship the hashes to a cloud server, which intersects blindly.
/// Returns the intersection (of original values) and the metered cost.
pub(crate) fn two_party_psi(
    set_a: &[u64],
    set_b: &[u64],
    key: u64,
    cost: &mut PairwiseCost,
) -> Vec<u64> {
    let hashed_a: HashSet<u64> = set_a.iter().map(|&v| prf(key, v)).collect();
    let hashed_b: HashSet<u64> = set_b.iter().map(|&v| prf(key, v)).collect();
    cost.pairwise_runs += 1;
    cost.hashes_sent += (set_a.len() + set_b.len()) as u64;
    cost.bytes += 8 * (set_a.len() + set_b.len()) as u64;
    cost.rounds += 2; // upload round + result round
    let common_hashes: HashSet<u64> = hashed_a.intersection(&hashed_b).copied().collect();
    let mut out: Vec<u64> = set_a
        .iter()
        .copied()
        .filter(|&v| common_hashes.contains(&prf(key, v)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// m-owner PSI by pairwise composition: fold owner 0's set through a PSI
/// with every other owner. Communication grows as Θ(n·m) *per fold step
/// pair* and — because each intermediate result must be re-exchanged —
/// the total transferred data follows the quadratic shape the paper
/// criticizes.
pub fn multiparty_psi_by_pairwise(sets: &[Vec<u64>], key: u64) -> (Vec<u64>, PairwiseCost) {
    let mut cost = PairwiseCost::default();
    if sets.is_empty() {
        return (Vec::new(), cost);
    }
    let mut acc = {
        let mut v = sets[0].clone();
        v.sort_unstable();
        v.dedup();
        v
    };
    for (j, other) in sets.iter().enumerate().skip(1) {
        // Every fold re-sends the accumulated set AND every pair of
        // owners must additionally agree pairwise (the all-pairs exchange
        // of the naive extension): account both.
        acc = two_party_psi(&acc, other, key ^ j as u64, &mut cost);
    }
    // All-pairs agreement messages (the (nm)² term): each unordered pair
    // exchanges its full hashed set.
    let m = sets.len() as u64;
    let n_total: u64 = sets.iter().map(|s| s.len() as u64).sum();
    if m > 2 {
        let avg_n = n_total / m;
        let pair_count = m * (m - 1) / 2;
        cost.hashes_sent += pair_count * 2 * avg_n;
        cost.bytes += pair_count * 2 * avg_n * 8;
        cost.rounds += m - 2;
        cost.pairwise_runs += pair_count - (m - 1);
    }
    (acc, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_party_matches_plaintext() {
        let a = vec![1u64, 5, 9, 12];
        let b = vec![5u64, 9, 100];
        let mut cost = PairwiseCost::default();
        let out = two_party_psi(&a, &b, 42, &mut cost);
        assert_eq!(out, vec![5, 9]);
        assert_eq!(cost.pairwise_runs, 1);
        assert_eq!(cost.hashes_sent, 7);
    }

    #[test]
    fn multiparty_matches_plaintext() {
        let sets = vec![
            vec![1u64, 2, 3, 4, 5],
            vec![2u64, 3, 5, 8],
            vec![3u64, 5, 13],
            vec![5u64, 3, 21],
        ];
        let (out, cost) = multiparty_psi_by_pairwise(&sets, 7);
        assert_eq!(out, vec![3, 5]);
        assert!(cost.pairwise_runs >= 3);
        assert!(cost.bytes > 0);
    }

    #[test]
    fn communication_grows_superlinearly_in_owners() {
        let n = 100usize;
        let base: Vec<u64> = (1..=n as u64).collect();
        let (_, c4) = multiparty_psi_by_pairwise(&vec![base.clone(); 4], 1);
        let (_, c16) = multiparty_psi_by_pairwise(&vec![base.clone(); 16], 1);
        // 4× the owners must cost much more than 4× the bytes (quadratic
        // pair term dominates).
        assert!(
            c16.bytes > 8 * c4.bytes,
            "c4 = {}, c16 = {}",
            c4.bytes,
            c16.bytes
        );
    }

    #[test]
    fn empty_inputs() {
        let (out, _) = multiparty_psi_by_pairwise(&[], 1);
        assert!(out.is_empty());
        let mut cost = PairwiseCost::default();
        assert!(two_party_psi(&[], &[1], 1, &mut cost).is_empty());
    }

    #[test]
    fn duplicates_are_deduped() {
        let mut cost = PairwiseCost::default();
        let out = two_party_psi(&[1, 1, 2], &[1, 2, 2], 3, &mut cost);
        assert_eq!(out, vec![1, 2]);
    }
}
