//! Flat fixed-width wide-integer arithmetic — the allocation-free fast
//! path for the max/median pipeline.
//!
//! [`crate::bigint::BigUint`] is convenient but heap-allocates per value;
//! the max protocol touches `(common cells × owners)` blinded values per
//! query, where a single query can cover millions of cells. This module
//! stores those values as rows of a single flat `Vec<u64>` (little-endian
//! limbs, fixed width `w`) and implements every operation the protocol
//! needs directly on `&[u64]` rows: wrapping add/sub over `Z_{2^{64w}}`,
//! comparison, polynomial evaluation, bounded sampling, and two-way
//! additive sharing. No allocation happens per cell.

use crate::prg::Prg;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A dense matrix of fixed-width wide integers: `rows × width` limbs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq, Default)]
pub struct WideVec {
    /// Limb width of every row.
    pub width: usize,
    /// Row-major limbs, little-endian within a row.
    pub data: Vec<u64>,
}

impl WideVec {
    /// A zeroed matrix of `rows` rows.
    pub fn zeroed(rows: usize, width: usize) -> Self {
        WideVec {
            width,
            data: vec![0; rows * width],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Immutable row view.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.width..(i + 1) * self.width]
    }
}

/// `out = a + b` over `Z_{2^{64w}}` (wrapping).
#[inline]
pub fn add_wrap(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(a.len() == b.len() && a.len() == out.len());
    let mut carry = 0u64;
    for i in 0..a.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
}

/// `acc += b` over `Z_{2^{64w}}` (wrapping, in place).
#[inline]
pub(crate) fn add_assign_wrap(acc: &mut [u64], b: &[u64]) {
    debug_assert_eq!(acc.len(), b.len());
    let mut carry = 0u64;
    for i in 0..acc.len() {
        let (s1, c1) = acc[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        acc[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
}

/// `out = a - b` over `Z_{2^{64w}}` (wrapping).
#[inline]
pub(crate) fn sub_wrap(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(a.len() == b.len() && a.len() == out.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, u1) = a[i].overflowing_sub(b[i]);
        let (d2, u2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (u1 as u64) + (u2 as u64);
    }
}

/// Fixed-width unsigned comparison.
#[inline]
pub fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// True iff every limb is zero.
#[inline]
pub(crate) fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&x| x == 0)
}

/// `acc = acc·x + add` in place. The caller guarantees the true value fits
/// the width (the initiator sizes the width from `F(domain_max + 1)`), so
/// a carry out of the top limb indicates a protocol violation — checked in
/// debug builds only for speed.
#[inline]
pub(crate) fn mul_small_add(acc: &mut [u64], x: u64, add: u64) {
    let mut carry = add as u128;
    for limb in acc.iter_mut() {
        let cur = *limb as u128 * x as u128 + carry;
        *limb = cur as u64;
        carry = cur >> 64;
    }
    debug_assert_eq!(carry, 0, "wide value overflowed its width");
}

/// Horner evaluation of a positive-coefficient polynomial into `out`
/// (constant term first in `coeffs`). No allocation.
pub(crate) fn eval_poly_into(coeffs: &[u64], x: u64, out: &mut [u64]) {
    out.fill(0);
    for &c in coeffs.iter().rev() {
        mul_small_add(out, x, c);
    }
}

/// Uniform sample in `[0, bound)` written into `out` (rejection with a
/// top-limb mask, expected < 2 draws). `bound` must be non-zero.
pub(crate) fn random_below_into(bound: &[u64], prg: &mut Prg, out: &mut [u64]) {
    debug_assert!(!is_zero(bound), "random_below_into needs positive bound");
    // Highest non-zero limb of the bound.
    let top = bound.iter().rposition(|&x| x != 0).expect("non-zero bound");
    let top_bits = 64 - bound[top].leading_zeros();
    let mask = if top_bits == 64 {
        u64::MAX
    } else {
        (1u64 << top_bits) - 1
    };
    loop {
        for limb in out.iter_mut() {
            *limb = 0;
        }
        for i in 0..=top {
            out[i] = prg.next_u64();
        }
        out[top] &= mask;
        if cmp(out, bound) == Ordering::Less {
            return;
        }
    }
}

/// Fill `out` with uniform limbs (a full-width random element).
#[inline]
pub fn random_full_into(prg: &mut Prg, out: &mut [u64]) {
    for limb in out.iter_mut() {
        *limb = prg.next_u64();
    }
}

/// Two-way additive share of `secret` over `Z_{2^{64w}}`: `s1` uniform,
/// `s2 = secret − s1` (wrapping).
#[inline]
pub fn share2_into(secret: &[u64], prg: &mut Prg, s1: &mut [u64], s2: &mut [u64]) {
    random_full_into(prg, s1);
    sub_wrap(secret, s1, s2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;
    use proptest::prelude::*;

    fn to_big(row: &[u64]) -> BigUint {
        BigUint::from_limbs(row.to_vec())
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [u64::MAX, 3, 0, 0];
        let b = [5, u64::MAX, 1, 0];
        let mut sum = [0u64; 4];
        add_wrap(&a, &b, &mut sum);
        let mut back = [0u64; 4];
        sub_wrap(&sum, &b, &mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn add_matches_biguint() {
        let a = [u64::MAX, u64::MAX, 0];
        let b = [1, 0, 0];
        let mut out = [0u64; 3];
        add_wrap(&a, &b, &mut out);
        assert_eq!(to_big(&out), to_big(&a).add(&to_big(&b)));
    }

    #[test]
    fn cmp_matches_biguint() {
        let rows: [[u64; 3]; 4] = [[1, 0, 0], [0, 1, 0], [u64::MAX, 0, 0], [1, 1, 1]];
        for x in &rows {
            for y in &rows {
                assert_eq!(cmp(x, y), to_big(x).cmp(&to_big(y)));
            }
        }
    }

    #[test]
    fn poly_eval_matches_biguint_path() {
        let coeffs = [3u64, 1, 4, 1, 5];
        let poly = crate::polynomial::OrderPolynomial::from_coeffs(coeffs.to_vec());
        for x in [0u64, 1, 7, 1000, 123_456] {
            let mut out = vec![0u64; 4];
            eval_poly_into(&coeffs, x, &mut out);
            assert_eq!(to_big(&out), poly.eval(x), "x={x}");
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut prg = Prg::from_seed(1);
        let bound = [0u64, 0, 5, 0];
        let mut out = [0u64; 4];
        for _ in 0..200 {
            random_below_into(&bound, &mut prg, &mut out);
            assert_eq!(cmp(&out, &bound), Ordering::Less);
        }
    }

    #[test]
    fn share2_reconstructs() {
        let mut prg = Prg::from_seed(2);
        // A mid-range value and both ends of Z_{2^256}.
        for secret in [[12345u64, 678, 9, 0], [0; 4], [u64::MAX; 4]] {
            let mut s1 = [0u64; 4];
            let mut s2 = [0u64; 4];
            share2_into(&secret, &mut prg, &mut s1, &mut s2);
            let mut back = [0u64; 4];
            add_wrap(&s1, &s2, &mut back);
            assert_eq!(back, secret);
        }
    }

    #[test]
    fn widevec_rows() {
        let mut wv = WideVec::zeroed(3, 2);
        wv.row_mut(1)[0] = 42;
        assert_eq!(wv.rows(), 3);
        assert_eq!(wv.row(0), &[0, 0]);
        assert_eq!(wv.row(1), &[42, 0]);
        assert_eq!(to_big(wv.row(1)), BigUint::from_u64(42));
    }

    proptest! {
        #[test]
        fn prop_add_sub_consistent(a: [u64; 4], b: [u64; 4]) {
            let mut sum = [0u64; 4];
            add_wrap(&a, &b, &mut sum);
            let mut back = [0u64; 4];
            sub_wrap(&sum, &a, &mut back);
            prop_assert_eq!(back, b);
        }

        #[test]
        fn prop_share_roundtrip(seed: u64, lo: u64, hi: u64) {
            let mut prg = Prg::from_seed(seed);
            let secret = [lo, hi, 0, 0];
            let mut s1 = [0u64; 4];
            let mut s2 = [0u64; 4];
            share2_into(&secret, &mut prg, &mut s1, &mut s2);
            let mut back = [0u64; 4];
            add_wrap(&s1, &s2, &mut back);
            prop_assert_eq!(back, secret);
        }

        #[test]
        fn prop_cmp_total_order(a: [u64; 3], b: [u64; 3]) {
            prop_assert_eq!(cmp(&a, &b), cmp(&b, &a).reverse());
        }
    }
}
