//! Additive secret sharing over `Z_δ` (§3.1).
//!
//! A secret `s ∈ Z_δ` is split into `c` shares with `s = Σ shares (mod δ)`;
//! any `c − 1` shares are jointly uniform, so non-colluding servers learn
//! nothing. Addition of shares is componentwise — the homomorphism PRISM
//! leans on in Equations 3, 13, and 17–19.

use crate::arith::{add_mod, by_modulus, sub_mod, Reducer};
use crate::prg::{rejection_zone, Prg};
use serde::{Deserialize, Serialize};

/// One additive share, tagged with the modulus it lives under.
///
/// The tag costs 8 bytes but turns silent cross-modulus arithmetic bugs —
/// the classic failure mode of share-juggling code — into loud errors.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct AdditiveShare {
    /// Share value in `[0, modulus)`.
    pub value: u64,
    /// The δ this share is defined over.
    pub modulus: u64,
}

impl AdditiveShare {
    /// Wrap a raw value (reduced mod `modulus`).
    #[inline]
    pub fn new(value: u64, modulus: u64) -> Self {
        AdditiveShare {
            value: value % modulus,
            modulus,
        }
    }

    /// Share-level addition (homomorphic add of the underlying secrets).
    #[inline]
    pub fn add(self, other: AdditiveShare) -> AdditiveShare {
        assert_eq!(self.modulus, other.modulus, "modulus mismatch in share add");
        AdditiveShare::new(add_mod(self.value, other.value, self.modulus), self.modulus)
    }

    /// Share-level subtraction.
    #[inline]
    pub fn sub(self, other: AdditiveShare) -> AdditiveShare {
        assert_eq!(self.modulus, other.modulus, "modulus mismatch in share sub");
        AdditiveShare::new(sub_mod(self.value, other.value, self.modulus), self.modulus)
    }
}

/// Split `secret` into `count` additive shares over `Z_modulus`.
///
/// The first `count − 1` shares are uniform; the last absorbs the
/// difference. Panics if `count == 0` or `modulus == 0`.
pub fn share(secret: u64, count: usize, modulus: u64, prg: &mut Prg) -> Vec<AdditiveShare> {
    assert!(count >= 1, "need at least one share");
    assert!(modulus >= 2, "modulus must be at least 2");
    let secret = secret % modulus;
    let mut shares = Vec::with_capacity(count);
    let mut running = 0u64;
    for _ in 0..count - 1 {
        let v = prg.below(modulus);
        running = add_mod(running, v, modulus);
        shares.push(AdditiveShare::new(v, modulus));
    }
    shares.push(AdditiveShare::new(
        sub_mod(secret, running, modulus),
        modulus,
    ));
    shares
}

/// Two-server split — the common case for PSI/PSU. Returns `(share₁, share₂)`.
#[inline]
pub fn share2(secret: u64, modulus: u64, prg: &mut Prg) -> (u64, u64) {
    let s1 = prg.below(modulus);
    let s2 = sub_mod(secret % modulus, s1, modulus);
    (s1, s2)
}

/// Reconstruct the secret by summing all shares.
pub fn reconstruct(shares: &[AdditiveShare]) -> u64 {
    assert!(!shares.is_empty(), "cannot reconstruct from zero shares");
    let modulus = shares[0].modulus;
    shares.iter().fold(0u64, |acc, s| {
        assert_eq!(s.modulus, modulus, "modulus mismatch in reconstruct");
        add_mod(acc, s.value, modulus)
    })
}

/// Reconstruct from the two-server raw representation.
#[inline]
pub fn reconstruct2(s1: u64, s2: u64, modulus: u64) -> u64 {
    add_mod(s1, s2, modulus)
}

/// Bulk two-server reconstruction: `out[i] = (a[i] + b[i]) mod modulus`.
///
/// Hot-path-only API: the modulus' reducer is chosen once for the pass and
/// the loop does not divide. The operands need not be reduced — they come
/// from servers — but reduced ones cost a compare each. Results are
/// bit-identical to [`reconstruct2`] per cell.
#[inline]
pub fn reconstruct2_into(a: &[u64], b: &[u64], modulus: u64, out: &mut [u64]) {
    assert!(modulus >= 2, "modulus must be at least 2");
    assert_eq!(a.len(), b.len(), "share vectors must have equal length");
    assert_eq!(a.len(), out.len(), "output length must match share length");
    by_modulus!(modulus, |r| {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = r.add(r.reduce_rare(x), r.reduce_rare(y));
        }
    })
}

/// Share an entire vector two ways; returns parallel share vectors.
///
/// This is the bulk path the owners use to outsource a χ table: one uniform
/// draw and one subtraction per cell, with the modulus' reducer and
/// rejection zone hoisted (the draws are those of [`share2`] per secret).
pub fn share_vector2(secrets: &[u64], modulus: u64, prg: &mut Prg) -> (Vec<u64>, Vec<u64>) {
    assert!(modulus > 0, "modulus must be positive");
    let mut a = Vec::with_capacity(secrets.len());
    let mut b = Vec::with_capacity(secrets.len());
    let zone = rejection_zone(modulus);
    by_modulus!(modulus, |r| {
        for &s in secrets {
            let s1 = prg.draw(r, zone);
            a.push(s1);
            b.push(r.sub(r.reduce_rare(s), s1));
        }
    });
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_share_of_four() {
        // §3.1: G_5, secret 4 = (3 + 1) mod 5.
        let shares = vec![AdditiveShare::new(3, 5), AdditiveShare::new(1, 5)];
        assert_eq!(reconstruct(&shares), 4);
    }

    #[test]
    fn share_roundtrip_various_counts() {
        let mut prg = Prg::from_seed(11);
        for count in 1..=5 {
            for secret in 0..7u64 {
                let shares = share(secret, count, 7, &mut prg);
                assert_eq!(shares.len(), count);
                assert_eq!(reconstruct(&shares), secret);
            }
        }
    }

    #[test]
    fn homomorphic_addition() {
        let mut prg = Prg::from_seed(5);
        let delta = 113u64;
        let (x1, x2) = share2(40, delta, &mut prg);
        let (y1, y2) = share2(90, delta, &mut prg);
        // Server-side local adds:
        let s1 = add_mod(x1, y1, delta);
        let s2 = add_mod(x2, y2, delta);
        assert_eq!(reconstruct2(s1, s2, delta), (40 + 90) % delta);
    }

    #[test]
    fn homomorphic_subtraction_of_public_m() {
        // The ⊖ A(m)^φ step of Equation 3: sharing m and subtracting shares.
        let mut prg = Prg::from_seed(6);
        let delta = 113u64;
        let m = 50u64;
        let (m1, m2) = share2(m, delta, &mut prg);
        let (x1, x2) = share2(50, delta, &mut prg); // all owners had the item
        let r1 = sub_mod(x1, m1, delta);
        let r2 = sub_mod(x2, m2, delta);
        assert_eq!(reconstruct2(r1, r2, delta), 0);
    }

    #[test]
    fn single_share_is_the_secret() {
        let mut prg = Prg::from_seed(1);
        let shares = share(9, 1, 13, &mut prg);
        assert_eq!(shares[0].value, 9);
    }

    #[test]
    #[should_panic(expected = "modulus mismatch")]
    fn mixing_moduli_panics() {
        let a = AdditiveShare::new(1, 5);
        let b = AdditiveShare::new(1, 7);
        let _ = a.add(b);
    }

    #[test]
    fn share_vector_roundtrip() {
        let mut prg = Prg::from_seed(2);
        let secrets: Vec<u64> = (0..1000).map(|i| i % 113).collect();
        let (a, b) = share_vector2(&secrets, 113, &mut prg);
        for i in 0..secrets.len() {
            assert_eq!(reconstruct2(a[i], b[i], 113), secrets[i]);
        }
    }

    #[test]
    fn first_share_is_uniformish() {
        // Weak sanity check of hiding: the first share of a constant secret
        // should hit every residue class over many draws.
        let mut prg = Prg::from_seed(3);
        let delta = 13u64;
        let mut seen = vec![false; delta as usize];
        for _ in 0..2000 {
            let (s1, _) = share2(1, delta, &mut prg);
            seen[s1 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reconstruct2_into_matches_scalar() {
        let mut prg = Prg::from_seed(17);
        let secrets: Vec<u64> = (0..500).map(|i| i * 31 % 113).collect();
        let (a, b) = share_vector2(&secrets, 113, &mut prg);
        let mut out = vec![u64::MAX; secrets.len()];
        reconstruct2_into(&a, &b, 113, &mut out);
        for i in 0..secrets.len() {
            assert_eq!(out[i], reconstruct2(a[i], b[i], 113));
            assert_eq!(out[i], secrets[i]);
        }
    }

    #[test]
    fn share_vector2_golden_stream() {
        // Pinned at the commit before the hoisted reducer: same draws, same
        // shares, including unreduced secrets.
        let mut prg = Prg::from_seed(42);
        let (a, b) = share_vector2(&[0, 1, 1, 0, 112, 113, u64::MAX], 113, &mut prg);
        assert_eq!(a, [13, 56, 68, 21, 108, 14, 77]);
        assert_eq!(b, [100, 58, 46, 92, 4, 99, 65]);
    }

    proptest! {
        #[test]
        fn prop_reconstruct2_into_parity(
            pairs in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..256),
            modulus in 2u64..u64::MAX,
        ) {
            let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
            let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
            let mut out = vec![0u64; pairs.len()];
            reconstruct2_into(&a, &b, modulus, &mut out);
            for i in 0..pairs.len() {
                prop_assert_eq!(out[i], reconstruct2(a[i], b[i], modulus));
            }
        }

        #[test]
        fn prop_share_vector2_is_share2_per_secret(
            seed: u64,
            secrets in proptest::collection::vec(0u64..u64::MAX, 0..64),
            modulus in 1u64..u64::MAX,
            shift in 0u32..64,
        ) {
            for modulus in [modulus, 113, 1 << shift, crate::MERSENNE_61] {
                let mut bulk_prg = Prg::from_seed(seed);
                let mut scalar_prg = Prg::from_seed(seed);
                let (a, b) = share_vector2(&secrets, modulus, &mut bulk_prg);
                for (i, &s) in secrets.iter().enumerate() {
                    prop_assert_eq!((a[i], b[i]), share2(s, modulus, &mut scalar_prg));
                }
                prop_assert_eq!(bulk_prg.next_u64(), scalar_prg.next_u64());
            }
        }

        #[test]
        fn prop_roundtrip(secret: u64, seed: u64, count in 1usize..6, modulus in 2u64..u64::MAX) {
            let mut prg = Prg::from_seed(seed);
            let shares = share(secret, count, modulus, &mut prg);
            prop_assert_eq!(reconstruct(&shares), secret % modulus);
        }

        #[test]
        fn prop_linear_combination(a: u64, b: u64, seed: u64, modulus in 2u64..u64::MAX) {
            let mut prg = Prg::from_seed(seed);
            let (a1, a2) = share2(a, modulus, &mut prg);
            let (b1, b2) = share2(b, modulus, &mut prg);
            let sum = reconstruct2(
                add_mod(a1, b1, modulus),
                add_mod(a2, b2, modulus),
                modulus,
            );
            prop_assert_eq!(sum, add_mod(a, b, modulus));
        }

        #[test]
        fn prop_shares_depend_on_randomness(secret in 0u64..113, s1 in 0u64..113) {
            // For any fixed secret, every value of share1 is attainable —
            // i.e. a single share carries zero information.
            let modulus = 113u64;
            let s2 = sub_mod(secret, s1, modulus);
            prop_assert_eq!(reconstruct2(s1, s2, modulus), secret);
        }
    }
}
