//! The initiator's order-preserving polynomial `F(x)` (§4, §6.3).
//!
//! `F` has degree `m + 1` (strictly more than the number of owners, so `m`
//! observed evaluations cannot determine it) and strictly positive
//! coefficients, hence is strictly increasing on non-negative integers.
//! Owners blind their per-cell maxima as `v = F(M) + r`; because
//! `r < F(M+1) − F(M)`, the blinded values compare exactly like the maxima
//! (`M < M' ⟹ v < v'`), which is all the announcer needs.
//!
//! The paper draws `r` from `[0, M^m)`; since every coefficient is ≥ 1 and
//! `deg F = m+1`, the binomial expansion gives `F(M+1) − F(M) > M^m`, so the
//! paper's range is a subset of ours. We use the exact bound to maximize
//! the blinding entropy while keeping order preservation unconditional.

use crate::bigint::BigUint;
use crate::prg::Prg;
use serde::{Deserialize, Serialize};

/// `F(x) = a_d x^d + … + a_1 x + a_0`, all `a_i ≥ 1`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct OrderPolynomial {
    /// Coefficients, constant term first. Invariant: all ≥ 1.
    coeffs: Vec<u64>,
}

impl OrderPolynomial {
    /// Generate a polynomial of degree `m + 1` for `m` owners, with small
    /// random positive coefficients (bounded to limit value growth).
    pub fn generate(m: usize, prg: &mut Prg) -> Self {
        let degree = m + 1;
        let coeffs = (0..=degree).map(|_| prg.range(1, 16)).collect();
        OrderPolynomial { coeffs }
    }

    /// Build from explicit coefficients (constant term first). Panics if
    /// any coefficient is zero — zero coefficients break strict growth of
    /// the difference bound.
    pub(crate) fn from_coeffs(coeffs: Vec<u64>) -> Self {
        assert!(!coeffs.is_empty(), "polynomial needs at least one term");
        assert!(
            coeffs.iter().all(|&c| c >= 1),
            "all coefficients must be positive"
        );
        OrderPolynomial { coeffs }
    }

    /// The paper's Example 6.3.1 polynomial `x⁴ + x³ + x² + x + 1`.
    pub fn paper_example() -> Self {
        OrderPolynomial::from_coeffs(vec![1, 1, 1, 1, 1])
    }

    /// Degree of the polynomial.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Exact evaluation at `x` (Horner over big integers).
    pub fn eval(&self, x: u64) -> BigUint {
        let mut acc = BigUint::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc.mul_u64(x).add_u64(c);
        }
        acc
    }

    /// Blind a value: `v = F(M) + r` with `r` uniform in
    /// `[0, F(M+1) − F(M))`. Returns `(v, r)`.
    pub fn blind(&self, max_value: u64, prg: &mut Prg) -> (BigUint, BigUint) {
        let fm = self.eval(max_value);
        let gap = self.eval(max_value + 1).sub(&fm);
        debug_assert!(
            !gap.is_zero(),
            "strictly increasing polynomial has gaps > 0"
        );
        let r = BigUint::random_below(&gap, prg);
        (fm.add(&r), r)
    }

    /// Invert a blinded value: the unique `z` with `F(z) ≤ v < F(z+1)`,
    /// searched over `[0, hi]` by binary search (§6.3 Step 5a / footnote 4).
    /// Returns `None` if `v < F(0)` or `v ≥ F(hi+1)` (an out-of-range value
    /// indicates server misbehaviour — callers treat it as such).
    pub fn invert(&self, v: &BigUint, hi: u64) -> Option<u64> {
        if v.cmp_big(&self.eval(0)).is_lt() {
            return None;
        }
        if v.cmp_big(&self.eval(hi + 1)).is_ge() {
            return None;
        }
        // Largest z with F(z) <= v.
        let (mut lo, mut hi) = (0u64, hi);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.eval(mid).cmp_big(v).is_le() {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// The limb width the initiator must size the wide-share group to:
    /// enough for any blinded value of a domain bounded by `domain_max`,
    /// plus one limb of headroom.
    pub fn share_width(&self, domain_max: u64) -> usize {
        self.eval(domain_max + 1).limb_len() + 1
    }

    /// Allocation-free evaluation into a fixed-width row.
    #[inline]
    pub fn eval_into(&self, x: u64, out: &mut [u64]) {
        crate::wide::eval_poly_into(&self.coeffs, x, out);
    }

    /// Allocation-free blinding: writes `v = F(M) + r` into `v_out`, using
    /// two caller-provided scratch rows. `r` is uniform in
    /// `[0, F(M+1) − F(M))` as in [`Self::blind`].
    pub fn blind_into(
        &self,
        max_value: u64,
        prg: &mut crate::prg::Prg,
        v_out: &mut [u64],
        fm: &mut [u64],
        gap: &mut [u64],
    ) {
        self.eval_into(max_value, fm);
        self.eval_into(max_value + 1, gap);
        // gap = F(M+1) − F(M) (no borrow: F strictly increasing).
        let tmp: &mut [u64] = v_out; // reuse v_out as subtraction target
        crate::wide::sub_wrap(gap, fm, tmp);
        gap.copy_from_slice(tmp);
        crate::wide::random_below_into(gap, prg, v_out);
        crate::wide::add_assign_wrap(v_out, fm);
    }

    /// Precompute `F(0..=hi+1)` as fixed-width rows for O(1) blinding and
    /// O(log hi) comparison-only inversion. ~`(hi+2)·width·8` bytes.
    pub fn table(&self, hi: u64, width: usize) -> PolyTable {
        let rows = (hi + 2) as usize;
        let mut values = crate::wide::WideVec::zeroed(rows, width);
        for x in 0..rows {
            self.eval_into(x as u64, values.row_mut(x));
        }
        PolyTable { hi, values }
    }

    /// Allocation-free inversion of a blinded row: the unique `z` with
    /// `F(z) ≤ v < F(z+1)`, or `None` if `v` is outside `[F(0), F(hi+1))`.
    /// `scratch` must have the row width.
    pub fn invert_row(&self, v: &[u64], hi: u64, scratch: &mut [u64]) -> Option<u64> {
        use std::cmp::Ordering;
        self.eval_into(0, scratch);
        if crate::wide::cmp(v, scratch) == Ordering::Less {
            return None;
        }
        self.eval_into(hi + 1, scratch);
        if crate::wide::cmp(v, scratch) != Ordering::Less {
            return None;
        }
        let (mut lo, mut hi) = (0u64, hi);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            self.eval_into(mid, scratch);
            if crate::wide::cmp(scratch, v) != Ordering::Greater {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }
}

/// A precomputed evaluation table of an [`OrderPolynomial`] over
/// `0..=hi+1`, fixed width — the hot-path replacement for per-call Horner
/// evaluation in the max/median pipeline.
#[derive(Debug, Clone)]
pub struct PolyTable {
    hi: u64,
    values: crate::wide::WideVec,
}

impl PolyTable {
    /// Row width in limbs.
    pub fn width(&self) -> usize {
        self.values.width
    }

    /// Largest argument the table covers for blinding (`hi`).
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// `F(x)` as a row; panics if `x > hi + 1`.
    #[inline]
    pub fn f(&self, x: u64) -> &[u64] {
        self.values.row(x as usize)
    }

    /// Table-backed blinding: `v = F(M) + r`, `r` uniform in
    /// `[0, F(M+1) − F(M))`. `scratch` must have the table width.
    pub fn blind_into(
        &self,
        max_value: u64,
        prg: &mut crate::prg::Prg,
        v_out: &mut [u64],
        scratch: &mut [u64],
    ) {
        assert!(max_value <= self.hi, "value {max_value} above table bound");
        let fm = self.f(max_value);
        crate::wide::sub_wrap(self.f(max_value + 1), fm, scratch);
        crate::wide::random_below_into(scratch, prg, v_out);
        crate::wide::add_assign_wrap(v_out, fm);
    }

    /// Comparison-only inversion: the unique `z` with `F(z) ≤ v < F(z+1)`.
    pub fn invert(&self, v: &[u64]) -> Option<u64> {
        use std::cmp::Ordering;
        if crate::wide::cmp(v, self.f(0)) == Ordering::Less {
            return None;
        }
        if crate::wide::cmp(v, self.f(self.hi + 1)) != Ordering::Less {
            return None;
        }
        let (mut lo, mut hi) = (0u64, self.hi);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if crate::wide::cmp(self.f(mid), v) != Ordering::Greater {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_values() {
        // Example 6.3.1: F(x) = x⁴+x³+x²+x+1, F(6) = 1555, F(8) = 4681.
        let f = OrderPolynomial::paper_example();
        assert_eq!(f.eval(6), BigUint::from_u64(1555));
        assert_eq!(f.eval(8), BigUint::from_u64(4681));
        assert_eq!(f.eval(0), BigUint::from_u64(1));
        assert_eq!(f.degree(), 4);
    }

    #[test]
    fn strictly_increasing() {
        let mut prg = Prg::from_seed(1);
        let f = OrderPolynomial::generate(10, &mut prg);
        let mut prev = f.eval(0);
        for x in 1..200u64 {
            let cur = f.eval(x);
            assert!(cur > prev, "F not increasing at {x}");
            prev = cur;
        }
    }

    #[test]
    fn blind_preserves_order() {
        let mut prg = Prg::from_seed(2);
        let f = OrderPolynomial::generate(5, &mut prg);
        let mut values: Vec<u64> = vec![3, 17, 17, 120, 121, 5000];
        values.sort_unstable();
        let blinded: Vec<BigUint> = values.iter().map(|&v| f.blind(v, &mut prg).0).collect();
        for w in values.windows(2).zip(blinded.windows(2)) {
            let ((a, b), (ba, bb)) = ((w.0[0], w.0[1]), (&w.1[0], &w.1[1]));
            if a < b {
                assert!(ba < bb, "order broken: F-blind({a}) >= F-blind({b})");
            }
        }
    }

    #[test]
    fn blind_gap_bound_respected() {
        let mut prg = Prg::from_seed(3);
        let f = OrderPolynomial::generate(3, &mut prg);
        for m in [0u64, 1, 7, 100, 10_000] {
            let (v, r) = f.blind(m, &mut prg);
            assert!(v >= f.eval(m));
            assert!(v < f.eval(m + 1), "blinded value crossed F({})", m + 1);
            assert_eq!(f.eval(m).add(&r), v);
        }
    }

    #[test]
    fn invert_recovers_value() {
        let mut prg = Prg::from_seed(4);
        let f = OrderPolynomial::generate(4, &mut prg);
        for m in [0u64, 1, 8, 113, 9999] {
            let (v, _) = f.blind(m, &mut prg);
            assert_eq!(f.invert(&v, 20_000), Some(m));
        }
    }

    #[test]
    fn invert_rejects_out_of_range() {
        let f = OrderPolynomial::paper_example();
        assert_eq!(f.invert(&BigUint::zero(), 100), None); // < F(0) = 1
        let huge = f.eval(101);
        assert_eq!(f.invert(&huge, 100), None); // ≥ F(hi+1)
                                                // Exactly F(hi) is fine.
        assert_eq!(f.invert(&f.eval(100), 100), Some(100));
    }

    #[test]
    fn paper_example_6_3_1_scenario() {
        // Hospitals hold max ages 6, 8, 8; blinding values 216, 1, 319
        // produce 1771, 4682, 5000; hospital 2 and 3 tie at M = 8.
        let f = OrderPolynomial::paper_example();
        let v1 = f.eval(6).add_u64(216);
        let v2 = f.eval(8).add_u64(1);
        let v3 = f.eval(8).add_u64(319);
        assert_eq!(v1, BigUint::from_u64(1771));
        assert_eq!(v2, BigUint::from_u64(4682));
        assert_eq!(v3, BigUint::from_u64(5000));
        let max = v3.clone();
        // All three owners invert the announced max to z = 8.
        assert_eq!(f.invert(&max, 100), Some(8));
        // Hospital 1 (M=6) sees F(7) < max ⇒ it does not hold the max.
        assert!(f.eval(7) < max);
        // Hospitals 2, 3 (M=8) see F(8) ≤ max < F(9) ⇒ they hold the max.
        assert!(f.eval(8) <= max && max < f.eval(9));
    }

    #[test]
    fn share_width_covers_blinded_values() {
        let mut prg = Prg::from_seed(5);
        let f = OrderPolynomial::generate(50, &mut prg); // degree 51
        let w = f.share_width(200_000);
        let (v, _) = f.blind(200_000, &mut prg);
        assert!(v.limb_len() <= w);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_coefficient_rejected() {
        OrderPolynomial::from_coeffs(vec![1, 0, 1]);
    }

    #[test]
    fn flat_blind_matches_biguint_blind_semantics() {
        use crate::prg::Prg;
        let f = OrderPolynomial::generate(6, &mut Prg::from_seed(40));
        let w = f.share_width(100_000);
        let mut v = vec![0u64; w];
        let mut fm = vec![0u64; w];
        let mut gap = vec![0u64; w];
        let mut scratch = vec![0u64; w];
        let mut prg = Prg::from_seed(41);
        for m in [0u64, 1, 55, 99_999] {
            f.blind_into(m, &mut prg, &mut v, &mut fm, &mut gap);
            let big = crate::bigint::BigUint::from_limbs(v.clone());
            // In range [F(m), F(m+1)) and inverts back to m.
            assert!(big >= f.eval(m) && big < f.eval(m + 1), "m={m}");
            assert_eq!(f.invert_row(&v, 100_000, &mut scratch), Some(m));
            assert_eq!(f.invert(&big, 100_000), Some(m));
        }
    }

    #[test]
    fn table_agrees_with_direct_evaluation() {
        use crate::prg::Prg;
        let f = OrderPolynomial::generate(5, &mut Prg::from_seed(60));
        let w = f.share_width(5_000);
        let table = f.table(5_000, w);
        let mut direct = vec![0u64; w];
        for x in [0u64, 1, 7, 4_999, 5_001] {
            f.eval_into(x, &mut direct);
            assert_eq!(table.f(x), &direct[..], "x={x}");
        }
        // Blind + invert through the table only.
        let mut prg = Prg::from_seed(61);
        let mut v = vec![0u64; w];
        let mut scratch = vec![0u64; w];
        for m in [0u64, 3, 1234, 5_000] {
            table.blind_into(m, &mut prg, &mut v, &mut scratch);
            assert_eq!(table.invert(&v), Some(m));
        }
        // Out of range rejected.
        let zero = vec![0u64; w];
        assert_eq!(table.invert(&zero), None);
    }

    #[test]
    fn invert_row_rejects_out_of_range() {
        let f = OrderPolynomial::paper_example();
        let w = f.share_width(100);
        let mut scratch = vec![0u64; w];
        let zero = vec![0u64; w];
        assert_eq!(f.invert_row(&zero, 100, &mut scratch), None);
        let mut huge = vec![0u64; w];
        f.eval_into(101, &mut huge);
        assert_eq!(f.invert_row(&huge, 100, &mut scratch), None);
    }

    proptest! {
        #[test]
        fn prop_blind_invert_roundtrip(seed: u64, m in 0u64..100_000, owners in 2usize..12) {
            let mut prg = Prg::from_seed(seed);
            let f = OrderPolynomial::generate(owners, &mut prg);
            let (v, _) = f.blind(m, &mut prg);
            prop_assert_eq!(f.invert(&v, 100_000), Some(m));
        }

        #[test]
        fn prop_blinding_never_reorders(seed: u64, a in 0u64..10_000, b in 0u64..10_000) {
            let mut prg = Prg::from_seed(seed);
            let f = OrderPolynomial::generate(4, &mut prg);
            let (va, _) = f.blind(a, &mut prg);
            let (vb, _) = f.blind(b, &mut prg);
            if a < b {
                prop_assert!(va < vb);
            } else if a > b {
                prop_assert!(va > vb);
            }
        }

        #[test]
        fn prop_paper_r_bound_is_subset(m in 1u64..1000, owners in 2usize..8) {
            // M^m < F(M+1) − F(M) for coefficients ≥ 1, deg = owners+1.
            let f = OrderPolynomial::from_coeffs(vec![1; owners + 2]);
            let gap = f.eval(m + 1).sub(&f.eval(m));
            // M^owners computed in BigUint:
            let mut pw = BigUint::one();
            for _ in 0..owners {
                pw = pw.mul_u64(m);
            }
            prop_assert!(pw < gap);
        }
    }
}
