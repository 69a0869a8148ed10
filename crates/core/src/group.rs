//! Group parameter construction (§3.1, §4).
//!
//! PRISM needs two related algebraic objects:
//!
//! 1. the abelian group `Z_δ` under addition mod δ (δ prime, δ > m), over
//!    which additive shares live, and
//! 2. a cyclic subgroup of order δ inside `Z_η^*` (η prime, δ | η − 1) with
//!    generator `g`, used by the servers to exponentiate share-sums.
//!
//! The servers are only told `η' = α·η` (α > 1) — never η itself — and the
//! correctness of the whole scheme rests on the modular identity
//! `(x mod α·η) mod η = x mod η`, which lets owners finish reductions the
//! servers started without the servers ever learning η.

use crate::arith::{is_prime, mul_mod, next_prime, pow_mod};
use crate::prg::Prg;
use serde::{Deserialize, Serialize};

/// Complete group parameters as selected by the initiator.
///
/// This is the *initiator's* (omniscient) view; role-restricted views are
/// constructed in `prism-protocol` so that servers never hold η and owners
/// never hold g or α (see §4 "Parameters known to …").
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct GroupParams {
    /// Prime order of the additive group and of the cyclic subgroup.
    pub delta: u64,
    /// Prime modulus of the multiplicative group; `delta | eta - 1`.
    pub eta: u64,
    /// Blinding factor α > 1 with `eta_prime = alpha * eta`.
    pub alpha: u64,
    /// `alpha * eta` — the only multiplicative modulus servers see.
    pub eta_prime: u64,
    /// Generator of the order-δ subgroup of `Z_η^*`.
    pub g: u64,
}

impl GroupParams {
    /// Build parameters for a given subgroup order δ (must be prime).
    ///
    /// Searches for the smallest prime `η = k·δ + 1`, derives a generator of
    /// the order-δ subgroup, and picks α pseudorandomly in `[2, 2 + 2^16)`.
    /// Deterministic for a fixed `(delta, seed)` pair.
    pub fn generate(delta: u64, seed: u64) -> Result<Self, GroupError> {
        if !is_prime(delta) {
            return Err(GroupError::DeltaNotPrime(delta));
        }
        let mut prg = Prg::from_seed(seed ^ 0x9E3779B97F4A7C15);
        let eta = Self::find_eta(delta)?;
        let g = Self::find_generator(delta, eta, &mut prg);
        // α must satisfy α > 1 and α·η fits in u64 with products of two
        // residues fitting in u128 (always true for u64 moduli).
        let alpha_bound = (u64::MAX / eta).min(2 + (1 << 16));
        if alpha_bound < 2 {
            return Err(GroupError::EtaTooLarge(eta));
        }
        let alpha = prg.range(2, alpha_bound.max(3));
        let eta_prime = alpha.checked_mul(eta).ok_or(GroupError::EtaTooLarge(eta))?;
        Ok(GroupParams {
            delta,
            eta,
            alpha,
            eta_prime,
            g,
        })
    }

    /// Build parameters from explicitly chosen constants (used by tests that
    /// replay the paper's worked examples: δ=5, η=11, η'=143, g=3).
    pub fn from_parts(delta: u64, eta: u64, alpha: u64, g: u64) -> Result<Self, GroupError> {
        if !is_prime(delta) {
            return Err(GroupError::DeltaNotPrime(delta));
        }
        if !is_prime(eta) {
            return Err(GroupError::EtaNotPrime(eta));
        }
        if (eta - 1) % delta != 0 {
            return Err(GroupError::OrderMismatch { delta, eta });
        }
        if alpha < 2 {
            return Err(GroupError::AlphaTooSmall(alpha));
        }
        if pow_mod(g, delta, eta) != 1 || g % eta == 1 || g % eta == 0 {
            return Err(GroupError::NotAGenerator { g, delta, eta });
        }
        let eta_prime = alpha.checked_mul(eta).ok_or(GroupError::EtaTooLarge(eta))?;
        Ok(GroupParams {
            delta,
            eta,
            alpha,
            eta_prime,
            g,
        })
    }

    /// Smallest prime η with η ≡ 1 (mod δ), η > δ.
    fn find_eta(delta: u64) -> Result<u64, GroupError> {
        let mut k = 2u64;
        loop {
            let candidate = k
                .checked_mul(delta)
                .and_then(|kd| kd.checked_add(1))
                .ok_or(GroupError::EtaTooLarge(delta))?;
            if is_prime(candidate) {
                return Ok(candidate);
            }
            k += 1;
        }
    }

    /// Random generator of the order-δ subgroup: `h^((η−1)/δ)` for random h,
    /// retried until ≠ 1. Since δ is prime, every non-identity element of
    /// the subgroup generates it.
    fn find_generator(delta: u64, eta: u64, prg: &mut Prg) -> u64 {
        let cofactor = (eta - 1) / delta;
        loop {
            let h = prg.range(2, eta);
            let g = pow_mod(h, cofactor, eta);
            if g != 1 {
                return g;
            }
        }
    }

    /// The exponentiation table `[g^0 mod η', …, g^(δ−1) mod η']`.
    ///
    /// Servers reduce exponents mod δ before exponentiation (Equation 3), so
    /// a one-time table of δ entries turns every per-cell exponentiation
    /// into an array lookup. δ is small (113 in the paper's experiments).
    pub fn power_table(&self) -> Vec<u64> {
        let mut table = Vec::with_capacity(self.delta as usize);
        let mut acc = 1u64 % self.eta_prime;
        for _ in 0..self.delta {
            table.push(acc);
            acc = mul_mod(acc, self.g, self.eta_prime);
        }
        table
    }
}

/// Pick a prime δ strictly greater than `m` (the number of DB owners),
/// leaving headroom so owners can join later without re-keying (§4).
pub fn choose_delta(m: usize, headroom: u64) -> u64 {
    next_prime((m as u64).saturating_add(headroom).max(2))
}

/// Errors from group parameter construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// δ must be prime for `Z_δ` and the subgroup order.
    DeltaNotPrime(u64),
    /// η must be prime for `Z_η^*` to be cyclic of order η−1.
    EtaNotPrime(u64),
    /// δ must divide η−1 for an order-δ subgroup to exist.
    OrderMismatch {
        /// Requested subgroup order.
        delta: u64,
        /// Multiplicative modulus.
        eta: u64,
    },
    /// α must exceed 1 so η' hides η.
    AlphaTooSmall(u64),
    /// g does not generate the order-δ subgroup.
    NotAGenerator {
        /// Candidate generator.
        g: u64,
        /// Requested subgroup order.
        delta: u64,
        /// Multiplicative modulus.
        eta: u64,
    },
    /// η (or α·η) would overflow u64.
    EtaTooLarge(u64),
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::DeltaNotPrime(d) => write!(f, "delta {d} is not prime"),
            GroupError::EtaNotPrime(e) => write!(f, "eta {e} is not prime"),
            GroupError::OrderMismatch { delta, eta } => {
                write!(f, "delta {delta} does not divide eta-1 (eta = {eta})")
            }
            GroupError::AlphaTooSmall(a) => write!(f, "alpha {a} must exceed 1"),
            GroupError::NotAGenerator { g, delta, eta } => {
                write!(
                    f,
                    "{g} does not generate the order-{delta} subgroup of Z_{eta}^*"
                )
            }
            GroupError::EtaTooLarge(e) => write!(f, "eta {e} leaves no room for alpha in u64"),
        }
    }
}

impl std::error::Error for GroupError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The worked example of §3.1 / §5.1: δ=5, η=11, η'=143, g=3.
    fn paper_example() -> GroupParams {
        GroupParams::from_parts(5, 11, 13, 3).unwrap()
    }

    /// Multiplicative order of `x` in `Z_η^*`, by brute force.
    fn order_of(gp: &GroupParams, x: u64) -> u64 {
        let mut acc = x % gp.eta;
        let mut order = 1u64;
        while acc != 1 {
            acc = mul_mod(acc, x, gp.eta);
            order += 1;
            assert!(order <= gp.eta, "element has no order — η not prime?");
        }
        order
    }

    #[test]
    fn paper_example_subgroup_matches_text() {
        let gp = paper_example();
        let mut sub: Vec<u64> = gp.power_table().iter().map(|t| t % gp.eta).collect();
        sub.sort_unstable();
        // "the cyclic (sub)group (with g = 3) ... contains {1, 3, 4, 5, 9}"
        assert_eq!(sub, vec![1, 3, 4, 5, 9]);
    }

    #[test]
    fn paper_experiment_parameters() {
        // §8: η = 227, δ = 113.
        let gp = GroupParams::from_parts(113, 227, 7, {
            // derive any valid generator for the order-113 subgroup
            let cofactor = (227 - 1) / 113;
            let mut g = 0;
            for h in 2..227 {
                let c = pow_mod(h, cofactor, 227);
                if c != 1 {
                    g = c;
                    break;
                }
            }
            g
        })
        .unwrap();
        assert_eq!(order_of(&gp, gp.g), 113);
    }

    #[test]
    fn generate_produces_consistent_params() {
        for delta in [5u64, 113, 1009] {
            let gp = GroupParams::generate(delta, 42).unwrap();
            assert!(is_prime(gp.eta));
            assert_eq!((gp.eta - 1) % gp.delta, 0);
            assert!(gp.alpha > 1);
            assert_eq!(gp.eta_prime, gp.alpha * gp.eta);
            assert_eq!(pow_mod(gp.g, gp.delta, gp.eta), 1);
            assert_ne!(gp.g % gp.eta, 1);
            assert_eq!(order_of(&gp, gp.g), gp.delta);
        }
    }

    #[test]
    fn generate_rejects_composite_delta() {
        assert_eq!(
            GroupParams::generate(12, 1).unwrap_err(),
            GroupError::DeltaNotPrime(12)
        );
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let a = GroupParams::generate(113, 7).unwrap();
        let b = GroupParams::generate(113, 7).unwrap();
        assert_eq!(a, b);
        let c = GroupParams::generate(113, 8).unwrap();
        // η is the smallest valid prime either way; g/α may differ.
        assert_eq!(a.eta, c.eta);
    }

    #[test]
    fn power_table_matches_pow_mod() {
        let gp = GroupParams::generate(113, 3).unwrap();
        let table = gp.power_table();
        assert_eq!(table.len(), 113);
        for (i, &t) in table.iter().enumerate() {
            assert_eq!(t, pow_mod(gp.g, i as u64, gp.eta_prime));
        }
    }

    #[test]
    fn modular_identity_eta_prime_to_eta() {
        // (x mod α·η) mod η == x mod η — the identity Equation 4 relies on.
        let gp = paper_example();
        for x in 0u64..10_000 {
            assert_eq!((x % gp.eta_prime) % gp.eta, x % gp.eta);
        }
    }

    #[test]
    fn from_parts_validates() {
        assert!(GroupParams::from_parts(6, 11, 13, 3).is_err()); // composite δ
        assert!(GroupParams::from_parts(5, 12, 13, 3).is_err()); // composite η
        assert!(GroupParams::from_parts(7, 11, 13, 3).is_err()); // 7 ∤ 10
        assert!(GroupParams::from_parts(5, 11, 1, 3).is_err()); // α too small
        assert!(GroupParams::from_parts(5, 11, 13, 2).is_err()); // order(2)=10≠5
        assert!(GroupParams::from_parts(5, 11, 13, 1).is_err()); // identity
    }

    #[test]
    fn choose_delta_exceeds_m() {
        assert!(choose_delta(50, 50) > 50);
        assert!(is_prime(choose_delta(50, 50)));
        assert_eq!(choose_delta(0, 0), 2);
        assert_eq!(choose_delta(3, 1), 5);
    }

    #[test]
    fn cancellation_construction_equation_2() {
        // (x + y) mod δ = 0  ⟹  (g^x · g^y) mod η = 1
        let gp = paper_example();
        for x in 0..gp.delta {
            let y = (gp.delta - x) % gp.delta;
            let lhs = mul_mod(
                pow_mod(gp.g, x, gp.eta_prime) % gp.eta,
                pow_mod(gp.g, y, gp.eta_prime) % gp.eta,
                gp.eta,
            );
            assert_eq!(lhs, 1, "x={x} y={y}");
        }
    }

    proptest! {
        #[test]
        fn prop_generated_subgroup_has_order_delta(seed: u64) {
            let gp = GroupParams::generate(113, seed).unwrap();
            prop_assert_eq!(order_of(&gp, gp.g), 113);
        }

        #[test]
        fn prop_exponent_arithmetic_respects_subgroup(seed: u64, a in 0u64..113, b in 0u64..113) {
            let gp = GroupParams::generate(113, seed).unwrap();
            let table = gp.power_table();
            // g^a · g^b ≡ g^((a+b) mod δ)  (mod η)
            let lhs = mul_mod(table[a as usize] % gp.eta, table[b as usize] % gp.eta, gp.eta);
            let rhs = table[((a + b) % 113) as usize] % gp.eta;
            prop_assert_eq!(lhs, rhs);
        }
    }
}
