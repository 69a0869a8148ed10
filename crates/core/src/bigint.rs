//! Arbitrary-precision unsigned integers for the max/median pipeline.
//!
//! §6.3 blinds each owner's maximum as `v = F(M) + r` where `F` has degree
//! `m + 1`. For 50 owners and realistic attribute values, `v` far exceeds
//! `u128`, and — crucially — the announcer must compare the reconstructed
//! values as *integers* (order-preservation breaks under any modular
//! reduction). So we carry them in a little-endian `u64`-limb big integer,
//! and the protocol secret-shares them additively over `Z_{2^(64·w)}`
//! ([`crate::wide`]), where wrapping addition over a fixed limb width `w` is
//! a perfectly valid abelian group.
//!
//! Only the handful of operations the protocol needs are implemented: this
//! is deliberately not a general bignum library.

use crate::prg::Prg;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Little-endian, minimally-normalized unsigned big integer.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    /// Limbs, least significant first. Invariant: no trailing zero limb
    /// (the canonical zero is an empty vector).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Raw limbs, least significant first (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Build from limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// True iff zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Number of limbs needed to represent this value.
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self + v` for a small addend.
    pub fn add_u64(&self, v: u64) -> BigUint {
        self.add(&BigUint::from_u64(v))
    }

    /// `self - other`; panics on underflow (protocol code never subtracts
    /// a larger value — that would indicate corrupted shares).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, u1) = self.limbs[i].overflowing_sub(b);
            let (d2, u2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (u1 as u64) + (u2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self * v` for a `u64` multiplier.
    pub(crate) fn mul_u64(&self, v: u64) -> BigUint {
        if v == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = a as u128 * v as u128 + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Total order comparison.
    pub(crate) fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Divide by a `u64`, returning `(quotient, remainder)`.
    pub(crate) fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(out), rem as u64)
    }

    /// Uniform value in `[0, bound)` (rejection sampling on the top limb).
    pub(crate) fn random_below(bound: &BigUint, prg: &mut Prg) -> BigUint {
        assert!(!bound.is_zero(), "random_below requires a positive bound");
        let nlimbs = bound.limbs.len();
        loop {
            let mut limbs: Vec<u64> = (0..nlimbs).map(|_| prg.next_u64()).collect();
            // Mask the top limb down to the bound's bit-length to make the
            // acceptance probability ≥ 1/2.
            let top_bits = 64 - bound.limbs[nlimbs - 1].leading_zeros() as usize;
            if top_bits < 64 {
                limbs[nlimbs - 1] &= (1u64 << top_bits) - 1;
            }
            let candidate = BigUint::from_limbs(limbs);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Decimal string (tests / display).
    pub(crate) fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("ascii digits")
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }

    /// Decimal parse, the inverse of `to_decimal`; panics on non-digits.
    fn dec(s: &str) -> BigUint {
        s.bytes().fold(BigUint::zero(), |acc, ch| {
            assert!(ch.is_ascii_digit(), "invalid decimal digit");
            acc.mul_u64(10).add_u64((ch - b'0') as u64)
        })
    }

    #[test]
    fn construction_and_normalization() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_limbs(vec![0, 0, 0]), BigUint::zero());
        assert_eq!(BigUint::from_u64(7).limbs(), &[7]);
        assert_eq!(big(u128::MAX).limb_len(), 2);
        assert_eq!(big(5).limb_len(), 1);
    }

    #[test]
    fn add_sub_roundtrip_small() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        let sum = a.add(&b);
        assert_eq!(sum.limbs(), &[0, 1]); // 2^64
        assert_eq!(sum.sub(&b), a);
        assert_eq!(sum.sub(&a), b);
    }

    #[test]
    fn mul_known_values() {
        let a = big(u128::MAX);
        let sq = a.mul(&a);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expected =
            dec("115792089237316195423570985008687907852589419931798687112530834793049593217025");
        assert_eq!(sq, expected);
        assert_eq!(BigUint::zero().mul(&a), BigUint::zero());
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = dec("123456789012345678901234567890");
        assert_eq!(a.mul_u64(999), a.mul(&BigUint::from_u64(999)));
        assert_eq!(a.mul_u64(0), BigUint::zero());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = big(1u128 << 100);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp_big(&BigUint::from_u64(5)), Ordering::Equal);
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "113",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            assert_eq!(dec(s).to_decimal(), s);
        }
    }

    #[test]
    fn div_rem_u64_basics() {
        let a = dec("1000000000000000000000000000000000007");
        let (q, r) = a.div_rem_u64(10);
        assert_eq!(r, 7);
        assert_eq!(q.to_decimal(), "100000000000000000000000000000000000");
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::from_u64(1).bits(), 1);
        assert_eq!(BigUint::from_u64(255).bits(), 8);
        assert_eq!(big(1u128 << 64).bits(), 65);
    }

    #[test]
    fn random_below_stays_below() {
        let mut prg = Prg::from_seed(1);
        let bound = dec("987654321098765432109876543210");
        for _ in 0..200 {
            let r = BigUint::random_below(&bound, &mut prg);
            assert!(r < bound);
        }
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::from_u64(1).sub(&BigUint::from_u64(2));
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
            let x = big(a);
            let y = big(b);
            prop_assert_eq!(x.add(&y), y.add(&x));
        }

        #[test]
        fn prop_add_matches_u128(a in 0u128..(1u128<<126), b in 0u128..(1u128<<126)) {
            let sum = big(a).add(&big(b));
            prop_assert_eq!(sum, big(a + b));
        }

        #[test]
        fn prop_mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            prop_assert_eq!(prod, big(a as u128 * b as u128));
        }

        #[test]
        fn prop_sub_inverts_add(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
            let x = big(a);
            let y = big(b);
            prop_assert_eq!(x.add(&y).sub(&y), x);
        }

        #[test]
        fn prop_cmp_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
            prop_assert_eq!(
                big(a).cmp_big(&big(b)),
                a.cmp(&b)
            );
        }

        #[test]
        fn prop_decimal_roundtrip(lo: u64, hi: u64) {
            let v = BigUint::from_limbs(vec![lo, hi]);
            prop_assert_eq!(dec(&v.to_decimal()), v);
        }
    }
}
