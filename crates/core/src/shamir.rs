//! Shamir's secret sharing over `F_p` (§3.1) with the degree bookkeeping
//! PRISM's aggregation round needs.
//!
//! PSI-Sum (§6.1) multiplies two degree-1 sharings pointwise (data × result
//! indicator), producing a degree-2 sharing that three servers' evaluations
//! can reconstruct by Lagrange interpolation at 0. The share type carries
//! its evaluation point so interpolation never mis-pairs shares, and the
//! default field is the Mersenne prime `2^61 − 1`.

use crate::arith::{add_mod, by_modulus, inv_mod, mul_mod, sub_mod, Reducer, MERSENNE_61};
use crate::prg::{rejection_zone, Prg};
use serde::{Deserialize, Serialize};

/// A Shamir share: the evaluation `f(x)` of the sharing polynomial at a
/// non-zero point `x`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShamirShare {
    /// Evaluation point (server index, 1-based; never 0).
    pub x: u64,
    /// `f(x) mod p`.
    pub y: u64,
}

/// Field context for Shamir operations.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShamirCtx {
    /// Field prime.
    pub p: u64,
    /// Polynomial degree `c'` (threshold − 1). PRISM uses degree 1.
    pub degree: usize,
}

impl Default for ShamirCtx {
    fn default() -> Self {
        ShamirCtx {
            p: MERSENNE_61,
            degree: 1,
        }
    }
}

impl ShamirCtx {
    /// Construct a context; `p` must be prime and `degree ≥ 1`.
    pub fn new(p: u64, degree: usize) -> Self {
        assert!(degree >= 1, "degree must be at least 1");
        assert!(crate::arith::is_prime(p), "Shamir modulus must be prime");
        ShamirCtx { p, degree }
    }

    /// Split `secret` into `count` shares at evaluation points `1..=count`.
    ///
    /// Requires `count > degree` (otherwise the secret would be
    /// unreconstructable even with all shares).
    pub fn share(&self, secret: u64, count: usize, prg: &mut Prg) -> Vec<ShamirShare> {
        assert!(
            count > self.degree,
            "need more shares ({count}) than the degree ({})",
            self.degree
        );
        // f(x) = secret + a₁x + … + a_d x^d with random aᵢ.
        let mut coeffs = Vec::with_capacity(self.degree + 1);
        coeffs.push(secret % self.p);
        for _ in 0..self.degree {
            coeffs.push(prg.below(self.p));
        }
        (1..=count as u64)
            .map(|x| ShamirShare {
                x,
                y: self.eval_poly(&coeffs, x),
            })
            .collect()
    }

    /// Horner evaluation of a coefficient vector at `x`.
    fn eval_poly(&self, coeffs: &[u64], x: u64) -> u64 {
        coeffs
            .iter()
            .rev()
            .fold(0u64, |acc, &c| add_mod(mul_mod(acc, x, self.p), c, self.p))
    }

    /// Lagrange interpolation at 0 from an arbitrary set of shares with
    /// distinct evaluation points. The caller must supply at least
    /// `deg(f) + 1` shares of the (possibly product-raised) polynomial.
    pub fn reconstruct(&self, shares: &[ShamirShare]) -> u64 {
        assert!(!shares.is_empty(), "cannot interpolate zero shares");
        let p = self.p;
        let mut secret = 0u64;
        for (i, si) in shares.iter().enumerate() {
            // λᵢ = Π_{j≠i} xⱼ / (xⱼ − xᵢ), evaluated at 0.
            let mut num = 1u64;
            let mut den = 1u64;
            for (j, sj) in shares.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert_ne!(si.x, sj.x, "duplicate evaluation point {}", si.x);
                num = mul_mod(num, sj.x % p, p);
                den = mul_mod(den, sub_mod(sj.x, si.x, p), p);
            }
            let lambda = mul_mod(num, inv_mod(den, p).expect("field inverse"), p);
            secret = add_mod(secret, mul_mod(si.y, lambda, p), p);
        }
        secret
    }

    /// Bulk share of a vector: returns `count` parallel vectors of raw `y`
    /// values (the x is implied by the server index, saving 8 bytes/cell on
    /// the wire and in storage). [`ShamirCtx::share_blocks`] over a slice.
    pub fn share_vector(&self, secrets: &[u64], count: usize, prg: &mut Prg) -> Vec<Vec<u64>> {
        self.share_blocks(secrets.len(), count, prg, |start, block| {
            block.copy_from_slice(&secrets[start..start + block.len()])
        })
    }

    /// Bulk share of `cells` secrets the caller produces a block at a time:
    /// `secrets(start, block)` writes secrets `start..start + block.len()`
    /// into `block` (a few KiB on the stack), so a secret vector the caller
    /// only needs as shares — the `z` of §6.1 Step 3 — is never
    /// materialised, and each share is written once: the columns are sized
    /// up front and appended to, never zero-filled.
    ///
    /// The PRG draw order is identical to calling [`ShamirCtx::share`] per
    /// secret, so the shares are too. The field's reducer and the rejection
    /// zone are hoisted out of the loops, and degree 1 — PRISM's — walks the
    /// evaluation points by addition (`f(k) = f(k − 1) + a₁`) instead of
    /// evaluating Horner per point: per block, one pass of draws, then per
    /// column one pass of additions and one append.
    pub fn share_blocks(
        &self,
        cells: usize,
        count: usize,
        prg: &mut Prg,
        mut secrets: impl FnMut(usize, &mut [u64]),
    ) -> Vec<Vec<u64>> {
        assert!(
            count > self.degree,
            "need more shares ({count}) than the degree ({})",
            self.degree
        );
        let mut out: Vec<Vec<u64>> = (0..count).map(|_| Vec::with_capacity(cells)).collect();
        let zone = rejection_zone(self.p);
        let (mut ys, mut slopes) = ([0u64; SHARE_BLOCK], [0u64; SHARE_BLOCK]);
        let mut coeffs = vec![0u64; self.degree + 1];
        by_modulus!(self.p, |r| {
            for start in (0..cells).step_by(SHARE_BLOCK) {
                let ys = &mut ys[..SHARE_BLOCK.min(cells - start)];
                secrets(start, ys);
                if self.degree == 1 {
                    let slopes = &mut slopes[..ys.len()];
                    for (y, a) in ys.iter_mut().zip(slopes.iter_mut()) {
                        (*y, *a) = (r.reduce_rare(*y), prg.draw(r, zone));
                    }
                    for col in out.iter_mut() {
                        for (y, &a) in ys.iter_mut().zip(slopes.iter()) {
                            *y = r.add(*y, a);
                        }
                        col.extend_from_slice(ys);
                    }
                } else {
                    for &s in ys.iter() {
                        coeffs[0] = r.reduce(s);
                        for c in coeffs.iter_mut().skip(1) {
                            *c = prg.draw(r, zone);
                        }
                        for (k, col) in out.iter_mut().enumerate() {
                            col.push(self.eval_poly(&coeffs, (k + 1) as u64));
                        }
                    }
                }
            }
        });
        out
    }

    /// Lagrange coefficients at 0 for evaluation points `1..=k` — the fixed
    /// weights [`ShamirCtx::reconstruct_raw`] applies. Computing them once
    /// per query (instead of re-deriving a field inverse per cell per share)
    /// is what makes the flat [`ShamirCtx::reconstruct_raw_with`] path fast.
    pub fn lagrange_at_zero(&self, k: usize) -> Vec<u64> {
        assert!(k >= 1, "need at least one evaluation point");
        let p = self.p;
        (1..=k as u64)
            .map(|xi| {
                let mut num = 1u64;
                let mut den = 1u64;
                for xj in 1..=k as u64 {
                    if xi == xj {
                        continue;
                    }
                    num = mul_mod(num, xj % p, p);
                    den = mul_mod(den, sub_mod(xj, xi, p), p);
                }
                mul_mod(num, inv_mod(den, p).expect("field inverse"), p)
            })
            .collect()
    }

    /// Flat reconstruction from raw per-server values `ys[k]` (points `k+1`)
    /// using precomputed [`ShamirCtx::lagrange_at_zero`] weights: the
    /// products are accumulated unreduced in a `u128` and reduced once, no
    /// allocation, no inversions. Operands need not be reduced (the `ys`
    /// come from servers). Hot-path-only API — results are bit-identical to
    /// [`ShamirCtx::reconstruct_raw`].
    #[inline]
    pub fn reconstruct_raw_with(&self, ys: &[u64], lambda: &[u64]) -> u64 {
        assert_eq!(ys.len(), lambda.len(), "weights must match share count");
        by_modulus!(self.p, |r| dot(r, ys, lambda))
    }

    /// [`ShamirCtx::reconstruct_raw_with`] over whole columns:
    /// `out[i] = Σ_k columns[k][i] · lambda[k]`, with the field's reducer
    /// chosen once for the pass and the share count known at compile time
    /// (so the per-cell sum is straight-line code). This is the owners'
    /// finalize loop. Panics unless the columns have equal lengths.
    pub fn reconstruct_columns_with<const K: usize>(
        &self,
        columns: [&[u64]; K],
        lambda: &[u64; K],
    ) -> Vec<u64> {
        let mut out = Vec::new();
        self.reconstruct_columns_extend(columns, lambda, &mut out);
        out
    }

    /// [`ShamirCtx::reconstruct_columns_with`] appended to `out`: a caller
    /// that finalizes several columns in row blocks (to use each block
    /// while it is in cache) reserves each result once and extends it block
    /// by block. Panics unless the columns have equal lengths.
    pub fn reconstruct_columns_extend<const K: usize>(
        &self,
        columns: [&[u64]; K],
        lambda: &[u64; K],
        out: &mut Vec<u64>,
    ) {
        let cells = columns.first().map_or(0, |c| c.len());
        assert!(
            columns.iter().all(|c| c.len() == cells),
            "share columns must have equal length"
        );
        by_modulus!(self.p, |r| out.extend((0..cells).map(|i| dot(
            r,
            &columns.map(|c| c[i]),
            lambda
        ))))
    }

    /// Reconstruct from raw per-server values `ys[k]` sampled at
    /// points `k+1`.
    pub fn reconstruct_raw(&self, ys: &[u64]) -> u64 {
        let shares: Vec<ShamirShare> = ys
            .iter()
            .enumerate()
            .map(|(k, &y)| ShamirShare {
                x: (k + 1) as u64,
                y,
            })
            .collect();
        self.reconstruct(&shares)
    }
}

/// Secrets per block of [`ShamirCtx::share_blocks`]: 4 KiB of secrets (and,
/// at degree 1, 4 KiB of slopes) on the stack.
const SHARE_BLOCK: usize = 512;

/// `Σ ys[k] · weights[k] mod n` for arbitrary operands: as many products as
/// fit are summed unreduced in a `u128`, then reduced once.
#[inline]
fn dot<R: Reducer>(r: R, ys: &[u64], weights: &[u64]) -> u64 {
    let group = r.lazy_products();
    let mut total = 0u64;
    for (ys, ws) in ys.chunks(group).zip(weights.chunks(group)) {
        let mut acc = 0u128;
        for (&y, &w) in ys.iter().zip(ws) {
            acc += r.reduce_rare(y) as u128 * r.reduce_rare(w) as u128;
        }
        total = r.add(total, r.reduce_wide(acc));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx() -> ShamirCtx {
        ShamirCtx::default()
    }

    /// What a server does per cell to two shares it holds at the same point
    /// (Equation 11): add or multiply the `y` values mod p. Multiplying
    /// doubles the degree (§3.2).
    fn add_shares(a: ShamirShare, b: ShamirShare) -> ShamirShare {
        assert_eq!(a.x, b.x, "cannot add shares at different points");
        ShamirShare {
            x: a.x,
            y: add_mod(a.y, b.y, MERSENNE_61),
        }
    }

    fn mul_shares(a: ShamirShare, b: ShamirShare) -> ShamirShare {
        assert_eq!(a.x, b.x, "cannot multiply shares at different points");
        ShamirShare {
            x: a.x,
            y: mul_mod(a.y, b.y, MERSENNE_61),
        }
    }

    #[test]
    fn roundtrip_degree_one_three_servers() {
        let mut prg = Prg::from_seed(1);
        let c = ctx();
        for secret in [0u64, 1, 42, MERSENNE_61 - 1] {
            let shares = c.share(secret, 3, &mut prg);
            assert_eq!(c.reconstruct(&shares), secret);
            // Any 2 of the 3 suffice for degree 1.
            assert_eq!(c.reconstruct(&shares[..2]), secret);
            assert_eq!(c.reconstruct(&shares[1..]), secret);
            assert_eq!(c.reconstruct(&[shares[0], shares[2]]), secret);
        }
    }

    #[test]
    fn additive_homomorphism() {
        let mut prg = Prg::from_seed(2);
        let c = ctx();
        let a = c.share(100, 3, &mut prg);
        let b = c.share(23, 3, &mut prg);
        let sum: Vec<ShamirShare> = (0..3).map(|i| add_shares(a[i], b[i])).collect();
        assert_eq!(c.reconstruct(&sum), 123);
    }

    #[test]
    fn product_needs_three_shares() {
        // Degree 1 × degree 1 = degree 2 ⇒ 3 shares reconstruct, 2 don't
        // (in general).
        let mut prg = Prg::from_seed(3);
        let c = ctx();
        let a = c.share(6, 3, &mut prg);
        let b = c.share(7, 3, &mut prg);
        let prod: Vec<ShamirShare> = (0..3).map(|i| mul_shares(a[i], b[i])).collect();
        assert_eq!(c.reconstruct(&prod), 42);
        // Reconstruction from only 2 points of a degree-2 polynomial is a
        // different (wrong) value except on a measure-zero set; assert the
        // 3-share answer is authoritative by checking a disagreement exists
        // for at least one of several trials.
        let mut any_mismatch = false;
        for seed in 0..8 {
            let mut prg = Prg::from_seed(1000 + seed);
            let a = c.share(6, 3, &mut prg);
            let b = c.share(7, 3, &mut prg);
            let prod: Vec<ShamirShare> = (0..3).map(|i| mul_shares(a[i], b[i])).collect();
            if c.reconstruct(&prod[..2]) != 42 {
                any_mismatch = true;
            }
        }
        assert!(
            any_mismatch,
            "two shares should not reliably open a product"
        );
    }

    #[test]
    fn psi_sum_inner_product_shape() {
        // The exact Equation 11 computation: Σⱼ S(xⱼ)·S(z) over 3 servers.
        let mut prg = Prg::from_seed(4);
        let c = ctx();
        let data = [300u64, 100, 700]; // per-owner sums for one cell
        let z = 1u64; // cell is in the intersection
        let z_shares = c.share(z, 3, &mut prg);
        let data_shares: Vec<Vec<ShamirShare>> =
            data.iter().map(|&d| c.share(d, 3, &mut prg)).collect();
        // Server k computes Σⱼ data_shares[j][k] * z_shares[k].
        let server_out: Vec<ShamirShare> = (0..3)
            .map(|k| {
                let mut acc = ShamirShare {
                    x: (k + 1) as u64,
                    y: 0,
                };
                for ds in &data_shares {
                    acc = add_shares(acc, mul_shares(ds[k], z_shares[k]));
                }
                acc
            })
            .collect();
        assert_eq!(c.reconstruct(&server_out), 1100);
    }

    #[test]
    fn zero_indicator_zeroes_the_sum() {
        let mut prg = Prg::from_seed(5);
        let c = ctx();
        let z_shares = c.share(0, 3, &mut prg);
        let d_shares = c.share(987654, 3, &mut prg);
        let out: Vec<ShamirShare> = (0..3)
            .map(|k| mul_shares(d_shares[k], z_shares[k]))
            .collect();
        assert_eq!(c.reconstruct(&out), 0);
    }

    #[test]
    fn scale_share_is_public_scalar_mul() {
        let mut prg = Prg::from_seed(6);
        let c = ctx();
        let shares = c.share(21, 3, &mut prg);
        let scaled: Vec<ShamirShare> = shares
            .iter()
            .map(|&s| ShamirShare {
                x: s.x,
                y: mul_mod(s.y, 2, c.p),
            })
            .collect();
        assert_eq!(c.reconstruct(&scaled), 42);
    }

    #[test]
    fn share_vector_matches_scalar_path() {
        let mut prg = Prg::from_seed(7);
        let c = ctx();
        let secrets: Vec<u64> = (0..100).collect();
        let vecs = c.share_vector(&secrets, 3, &mut prg);
        assert_eq!(vecs.len(), 3);
        for i in 0..secrets.len() {
            let ys: Vec<u64> = (0..3).map(|k| vecs[k][i]).collect();
            assert_eq!(c.reconstruct_raw(&ys), secrets[i]);
        }
    }

    #[test]
    fn lagrange_weights_match_reconstruct() {
        let c = ctx();
        let mut prg = Prg::from_seed(77);
        for k in 2usize..6 {
            let lambda = c.lagrange_at_zero(k);
            assert_eq!(lambda.len(), k);
            for secret in [0u64, 1, 42, MERSENNE_61 - 1] {
                let shares = c.share(secret, k, &mut prg);
                let ys: Vec<u64> = shares.iter().map(|s| s.y).collect();
                assert_eq!(c.reconstruct_raw_with(&ys, &lambda), c.reconstruct_raw(&ys));
                assert_eq!(c.reconstruct_raw_with(&ys, &lambda), secret);
            }
        }
    }

    /// The Shamir field, the paper's small primes, and the largest `u64`
    /// prime (where reduced sums overflow `u64`).
    const FIELDS: [u64; 5] = [113, 227, 5003, MERSENNE_61, u64::MAX - 58];

    #[test]
    fn share_vector_golden_stream() {
        // Pinned at the commit before the degree-1 fast path: same draws,
        // same shares, including unreduced secrets.
        let mut prg = Prg::from_seed(42);
        let secrets = [0, 1, 2000, MERSENNE_61 - 1, u64::MAX];
        assert_eq!(
            ctx().share_vector(&secrets, 3, &mut prg),
            [
                [
                    1546998764402558742,
                    73422665323461250,
                    1015371716180091254,
                    916673044686266535,
                    2154651913569459826
                ],
                [
                    788154519591423533,
                    146845330646922499,
                    2030743432360180508,
                    1833346089372533071,
                    2003460817925225694
                ],
                [
                    29310274780288324,
                    220267995970383748,
                    740272139326575811,
                    444176124845105656,
                    1852269722280991562
                ]
            ]
        );
    }

    #[test]
    fn share_vector_is_share_per_secret_in_every_field() {
        let secrets = [0, 1, 112, 113, 5003, MERSENNE_61, u64::MAX - 58, u64::MAX];
        for p in FIELDS {
            for degree in 1..=3 {
                for count in degree + 1..=5 {
                    let c = ShamirCtx::new(p, degree);
                    let mut bulk_prg = Prg::from_seed(p ^ count as u64);
                    let mut scalar_prg = bulk_prg.clone();
                    let vecs = c.share_vector(&secrets, count, &mut bulk_prg);
                    for (i, &s) in secrets.iter().enumerate() {
                        let shares = c.share(s, count, &mut scalar_prg);
                        for k in 0..count {
                            assert_eq!(vecs[k][i], shares[k].y, "p={p} d={degree} k={k} i={i}");
                        }
                    }
                    assert_eq!(bulk_prg.next_u64(), scalar_prg.next_u64());
                }
            }
        }
    }

    /// `Σ ys[k]·ws[k] mod p` one `u128` division at a time.
    fn dot_ref(ys: &[u64], ws: &[u64], p: u64) -> u64 {
        ys.iter().zip(ws).fold(0u64, |acc, (&y, &w)| {
            let term = (y as u128 * w as u128) % p as u128;
            ((acc as u128 + term) % p as u128) as u64
        })
    }

    #[test]
    fn flat_reconstruction_matches_reference_on_unreduced_operands() {
        // 40 terms: past the 32 products the Mersenne path sums unreduced.
        let mut prg = Prg::from_seed(9);
        for p in FIELDS {
            let c = ShamirCtx { p, degree: 1 };
            for len in [1usize, 3, 32, 33, 40] {
                let mut ys: Vec<u64> = (0..len).map(|_| prg.next_u64()).collect();
                let mut ws: Vec<u64> = (0..len).map(|_| prg.below(p)).collect();
                ys[0] = u64::MAX;
                ws[0] = p - 1;
                assert_eq!(
                    c.reconstruct_raw_with(&ys, &ws),
                    dot_ref(&ys, &ws, p),
                    "p={p}"
                );
                ws[0] = u64::MAX;
                assert_eq!(
                    c.reconstruct_raw_with(&ys, &ws),
                    dot_ref(&ys, &ws, p),
                    "p={p}"
                );
            }
        }
    }

    #[test]
    fn column_reconstruction_is_flat_reconstruction_per_cell() {
        let mut prg = Prg::from_seed(10);
        for p in FIELDS {
            let c = ShamirCtx { p, degree: 1 };
            let lambda: [u64; 3] = c.lagrange_at_zero(3).try_into().unwrap();
            for len in [0usize, 1, 7, 8, 9, 1023] {
                let cols: Vec<Vec<u64>> = (0..3)
                    .map(|_| (0..len).map(|_| prg.next_u64()).collect())
                    .collect();
                let out = c.reconstruct_columns_with([&cols[0], &cols[1], &cols[2]], &lambda);
                assert_eq!(out.len(), len);
                for (i, &got) in out.iter().enumerate() {
                    let ys = [cols[0][i], cols[1][i], cols[2][i]];
                    assert_eq!(got, dot_ref(&ys, &lambda, p), "p={p} i={i}");
                    assert_eq!(got, c.reconstruct_raw_with(&ys, &lambda));
                }
            }
        }
    }

    #[test]
    fn column_reconstruction_in_blocks_equals_the_whole() {
        let mut prg = Prg::from_seed(11);
        for p in FIELDS {
            let c = ShamirCtx { p, degree: 1 };
            let lambda: [u64; 3] = c.lagrange_at_zero(3).try_into().unwrap();
            let cols: Vec<Vec<u64>> = (0..3)
                .map(|_| (0..100).map(|_| prg.next_u64()).collect())
                .collect();
            let whole = c.reconstruct_columns_with([&cols[0], &cols[1], &cols[2]], &lambda);
            for block in [1usize, 7, 64, 100, 1000] {
                let mut out = Vec::with_capacity(100);
                for lo in (0..100).step_by(block) {
                    let hi = (lo + block).min(100);
                    let rows = [&cols[0][lo..hi], &cols[1][lo..hi], &cols[2][lo..hi]];
                    c.reconstruct_columns_extend(rows, &lambda, &mut out);
                }
                assert_eq!(out, whole, "p={p} block={block}");
            }
        }
    }

    #[test]
    fn share_blocks_reads_computed_secrets_like_the_vector_they_would_make() {
        // Same draws, same shares, same PRG position — whether the secrets
        // exist as a vector or only as an expression.
        // Longer than two blocks, and not a multiple of one.
        let bits: Vec<u64> = (0..2 * SHARE_BLOCK as u64 + 77)
            .map(|i| [3, 1, 0, 1, 1, 7, u64::MAX, 1][(i % 8) as usize])
            .collect();
        let z: Vec<u64> = bits.iter().map(|&v| u64::from(v == 1)).collect();
        for p in FIELDS {
            for degree in 1..=2 {
                let c = ShamirCtx::new(p, degree);
                let (mut block_prg, mut vector_prg) = (Prg::from_seed(p), Prg::from_seed(p));
                let mut next = 0;
                let shared = c.share_blocks(bits.len(), 3, &mut block_prg, |start, block| {
                    assert_eq!(start, next, "blocks arrive in order");
                    next += block.len();
                    for (s, &v) in block.iter_mut().zip(&bits[start..]) {
                        *s = u64::from(v == 1);
                    }
                });
                assert_eq!(next, bits.len());
                assert_eq!(shared, c.share_vector(&z, 3, &mut vector_prg), "p={p}");
                assert_eq!(block_prg.next_u64(), vector_prg.next_u64());
                assert!(shared.iter().all(|col| col.capacity() == bits.len()));
            }
        }
        let none = ctx().share_blocks(0, 3, &mut Prg::from_seed(1), |_, _| panic!("no block"));
        assert_eq!(none, vec![Vec::<u64>::new(); 3]);
    }

    #[test]
    #[should_panic(expected = "need more shares")]
    fn too_few_shares_for_degree_panics() {
        let mut prg = Prg::from_seed(8);
        ShamirCtx::new(MERSENNE_61, 2).share(5, 2, &mut prg);
    }

    #[test]
    #[should_panic(expected = "duplicate evaluation point")]
    fn duplicate_points_panic() {
        let c = ctx();
        let s = ShamirShare { x: 1, y: 10 };
        c.reconstruct(&[s, s]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(secret in 0u64..MERSENNE_61, seed: u64, count in 2usize..6) {
            let mut prg = Prg::from_seed(seed);
            let c = ctx();
            let shares = c.share(secret, count, &mut prg);
            prop_assert_eq!(c.reconstruct(&shares), secret);
        }

        #[test]
        fn prop_product_of_sums(a in 0u64..1_000_000, b in 0u64..1_000_000, seed: u64) {
            let mut prg = Prg::from_seed(seed);
            let c = ctx();
            let sa = c.share(a, 3, &mut prg);
            let sb = c.share(b, 3, &mut prg);
            let prod: Vec<ShamirShare> = (0..3).map(|i| mul_shares(sa[i], sb[i])).collect();
            prop_assert_eq!(c.reconstruct(&prod), mul_mod(a, b, MERSENNE_61));
        }

        #[test]
        fn prop_flat_reconstruct_parity(ys in proptest::collection::vec(0u64..MERSENNE_61, 2..6)) {
            // The flat weighted path must agree bit-for-bit with the share-
            // struct path on arbitrary (even non-polynomial) y values.
            let c = ctx();
            let lambda = c.lagrange_at_zero(ys.len());
            prop_assert_eq!(c.reconstruct_raw_with(&ys, &lambda), c.reconstruct_raw(&ys));
        }

        #[test]
        fn prop_share_vector_matches_scalar_share(seed: u64, secrets in proptest::collection::vec(0u64..MERSENNE_61, 0..64)) {
            // Buffer-reusing bulk sharing must consume the identical PRG
            // stream as per-secret `share` calls.
            let c = ctx();
            let mut bulk_prg = Prg::from_seed(seed);
            let mut scalar_prg = Prg::from_seed(seed);
            let vecs = c.share_vector(&secrets, 3, &mut bulk_prg);
            for (i, &s) in secrets.iter().enumerate() {
                let shares = c.share(s, 3, &mut scalar_prg);
                for k in 0..3 {
                    prop_assert_eq!(vecs[k][i], shares[k].y);
                }
            }
            prop_assert_eq!(bulk_prg.next_u64(), scalar_prg.next_u64());
        }

        #[test]
        fn prop_single_share_uniform_coverage(secret in 0u64..97, seed: u64) {
            // Over a tiny field, any share value is possible for any secret:
            // sharing with different randomness moves the share around.
            let c = ShamirCtx::new(97, 1);
            let mut prg = Prg::from_seed(seed);
            let sh = c.share(secret, 2, &mut prg);
            prop_assert!(sh[0].y < 97);
        }
    }
}
