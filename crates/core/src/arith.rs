//! Modular arithmetic over `u64` operands.
//!
//! Every PRISM protocol reduces to a handful of modular operations executed
//! billions of times per query, so the query-path loops do not divide:
//!
//! * The scalar functions ([`add_mod`], [`sub_mod`], [`mul_mod`]) accept
//!   arbitrary operands and take a compare-and-subtract path when the
//!   operands are already reduced, a shift-add fold when the modulus is
//!   [`MERSENNE_61`], and a 64-bit remainder when a product fits; the
//!   `u128 %` forms survive only as the fallback for what is left (and, in
//!   the tests, as the oracle every fast path is compared against).
//! * Loops pick a reducer **once per call** (`by_modulus!`) and are
//!   monomorphised over it: `M61` folds, `Generic` multiplies by a
//!   precomputed 64-bit reciprocal (a Barrett step). The slice kernels
//!   the protocol crate needs ([`sum_columns_mod`], [`mul_assign_mod`]) are
//!   exported as plain functions; the reducers stay private to this crate,
//!   except as [`Modulus`] — the reciprocal reducer behind a two-method
//!   value, for per-cell expressions a caller fuses into its own single pass.
//! * Sums are reduced lazily: canonical addends are accumulated in a `u64`
//!   for as long as they provably fit (`Reducer::lazy_addends`) and
//!   reduced once per group.
//!
//! Exponentiation is a square-and-multiply ladder, and primality is a
//! deterministic Miller–Rabin variant that is exact for all `u64` inputs.

/// `(a + b) mod n` for `a, b < n`: one compare-and-subtract, correct even
/// when `a + b` overflows `u64` (`n > 2^63`).
#[inline]
fn add_reduced(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(a < n && b < n);
    let (s, carry) = a.overflowing_add(b);
    if carry || s >= n {
        s.wrapping_sub(n)
    } else {
        s
    }
}

/// `(a - b) mod n` for `a, b < n`.
#[inline]
fn sub_reduced(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(a < n && b < n);
    if a >= b {
        a - b
    } else {
        n - (b - a)
    }
}

/// Modular addition: `(a + b) mod n`.
///
/// `a` and `b` need not be reduced; reduced operands (every caller on a
/// query path) cost one compare-and-subtract.
#[inline]
pub fn add_mod(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    if a < n && b < n {
        add_reduced(a, b, n)
    } else {
        ((a as u128 + b as u128) % n as u128) as u64
    }
}

/// Modular subtraction: `(a - b) mod n`, always in `[0, n)`.
#[inline]
pub fn sub_mod(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    if a < n && b < n {
        sub_reduced(a, b, n)
    } else {
        sub_reduced(a % n, b % n, n)
    }
}

/// Modular multiplication: `(a * b) mod n` for arbitrary operands.
#[inline]
pub fn mul_mod(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n == MERSENNE_61 {
        return M61.mul(a, b);
    }
    match a.checked_mul(b) {
        Some(x) => x % n,
        None => ((a as u128 * b as u128) % n as u128) as u64,
    }
}

/// How a loop reduces modulo one fixed modulus. Chosen once per kernel
/// call by [`by_modulus!`]; the loops are generic over it, so the choice
/// costs nothing per element.
///
/// `reduce`, `reduce_wide` and `mul` accept **any** operand; `add`, `sub`
/// and the lazy bounds are for canonical (`< n`) values.
pub(crate) trait Reducer: Copy {
    /// The modulus `n`.
    fn modulus(self) -> u64;

    /// `x mod n`.
    fn reduce(self, x: u64) -> u64;

    /// `x mod n`.
    fn reduce_wide(self, x: u128) -> u64;

    /// How many canonical addends fit in a `u64` on top of a canonical
    /// accumulator; 0 when not even one does (`n > 2^63`).
    fn lazy_addends(self) -> usize;

    /// How many products of canonical factors fit in a `u128`.
    fn lazy_products(self) -> usize;

    /// `x mod n` for an `x` that is canonical unless its sender misbehaves
    /// (a share, a server's output): a compare in place of a reduction.
    #[inline]
    fn reduce_rare(self, x: u64) -> u64 {
        if x < self.modulus() {
            x
        } else {
            self.reduce(x)
        }
    }

    /// `(a + b) mod n` for canonical operands.
    #[inline]
    fn add(self, a: u64, b: u64) -> u64 {
        add_reduced(a, b, self.modulus())
    }

    /// `(a - b) mod n` for canonical operands.
    #[inline]
    fn sub(self, a: u64, b: u64) -> u64 {
        sub_reduced(a, b, self.modulus())
    }

    /// `(a * b) mod n`.
    #[inline]
    fn mul(self, a: u64, b: u64) -> u64 {
        self.reduce_wide(a as u128 * b as u128)
    }
}

/// `p = 2^61 − 1`: `2^61 ≡ 1`, so a value reduces by adding its high bits
/// to its low 61 — shifts, masks and adds only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct M61;

impl M61 {
    /// `s mod p` for `s < 2p`, branch-free: `(s + 1) >> 61` is 1 exactly
    /// when `s ≥ p`, and adding it before masking subtracts `p`.
    #[inline]
    fn canonical(s: u64) -> u64 {
        debug_assert!(s < 2 * MERSENNE_61);
        (s + ((s + 1) >> 61)) & MERSENNE_61
    }
}

impl Reducer for M61 {
    #[inline]
    fn modulus(self) -> u64 {
        MERSENNE_61
    }

    #[inline]
    fn reduce(self, x: u64) -> u64 {
        // x = hi·2^61 + lo ≡ hi + lo, and hi ≤ 7.
        M61::canonical((x & MERSENNE_61) + (x >> 61))
    }

    #[inline]
    fn reduce_wide(self, x: u128) -> u64 {
        const MASK: u128 = MERSENNE_61 as u128;
        // First fold: < 2^61 + 2^67. Second: < 2^61 + 2^7.
        let s = (x & MASK) + (x >> 61);
        M61::canonical((s & MASK) as u64 + (s >> 61) as u64)
    }

    #[inline]
    fn lazy_addends(self) -> usize {
        // 8 · (2^61 − 2) < 2^64: the accumulator plus seven addends.
        7
    }

    #[inline]
    fn lazy_products(self) -> usize {
        // 32 · (2^61 − 2)² < 2^127.
        32
    }
}

/// Any other modulus: `x mod n` for a 64-bit `x` by a Barrett step — the
/// high half of `x · ⌊(2^64 − 1) / n⌋` is `⌊x / n⌋` or one less, so two
/// multiplications, a subtraction and one branch-free correction give the
/// canonical residue, exactly, for every `u64` operand and every modulus.
/// Building one costs a 64-bit division, so this is for loops only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Generic {
    n: u64,
    /// `⌊(2^64 − 1) / n⌋`: `⌊2^64 / n⌋` unless `n` is a power of two, where
    /// it is one less (and still fits a `u64` at `n = 1`).
    recip: u64,
}

impl Generic {
    #[inline]
    pub(crate) fn new(n: u64) -> Generic {
        debug_assert!(n > 0);
        Generic {
            n,
            recip: u64::MAX / n,
        }
    }
}

impl Reducer for Generic {
    #[inline]
    fn modulus(self) -> u64 {
        self.n
    }

    #[inline]
    fn reduce(self, x: u64) -> u64 {
        // 2^64/n − 1 ≤ recip ≤ 2^64/n, so x/n − 1 < x·recip/2^64 ≤ x/n: the
        // quotient estimate q is ⌊x/n⌋ or one less, and r = x − q·n lies in
        // [0, 2n) — at most x, so it cannot wrap even when 2n does.
        let q = ((x as u128 * self.recip as u128) >> 64) as u64;
        let r = x.wrapping_sub(q.wrapping_mul(self.n));
        // r − n wraps above r exactly when r < n: the smaller one is r mod n.
        r.min(r.wrapping_sub(self.n))
    }

    #[inline]
    fn reduce_wide(self, x: u128) -> u64 {
        match u64::try_from(x) {
            Ok(x) => self.reduce(x),
            Err(_) => (x % self.n as u128) as u64,
        }
    }

    #[inline]
    fn mul(self, a: u64, b: u64) -> u64 {
        // A product that fits (every δ- and η-sized pair) goes to `reduce`
        // as the `u64` it is, not as a `u128` whose high half is zero.
        match a.checked_mul(b) {
            Some(x) => self.reduce(x),
            None => self.reduce_wide(a as u128 * b as u128),
        }
    }

    #[inline]
    fn lazy_addends(self) -> usize {
        // (k + 1)(n − 1) ≤ u64::MAX whenever k + 1 ≤ ⌊u64::MAX / n⌋.
        usize::try_from(u64::MAX / self.n - 1).unwrap_or(usize::MAX)
    }

    #[inline]
    fn lazy_products(self) -> usize {
        1
    }
}

/// Run `$body` with `$r` bound to the [`Reducer`] for modulus `$n`: [`M61`]
/// for the Shamir field every deployment uses, [`Generic`] otherwise. The
/// body is compiled once per reducer.
macro_rules! by_modulus {
    ($n:expr, |$r:ident| $body:expr) => {{
        let n: u64 = $n;
        if n == $crate::arith::MERSENNE_61 {
            let $r = $crate::arith::M61;
            $body
        } else {
            let $r = $crate::arith::Generic::new(n);
            $body
        }
    }};
}
pub(crate) use by_modulus;

/// A modulus prepared for a caller's own loop.
///
/// The owner steps of the protocol crate evaluate one expression per cell
/// over several reply vectors — a product of two to four factors, a
/// comparison, a count — and keep none of the intermediate vectors, so no
/// slice kernel fits them. They build one of these per step (one
/// division) and then multiply and add without dividing. Results are the
/// canonical residues, so they equal [`mul_mod`] / [`add_mod`] and every
/// slice kernel of this module bit for bit, whatever the operands.
#[derive(Debug, Clone, Copy)]
pub struct Modulus(Generic);

impl Modulus {
    /// Prepare `n`. Panics if `n` is zero.
    pub fn new(n: u64) -> Modulus {
        assert!(n > 0, "modulus must be positive");
        Modulus(Generic::new(n))
    }

    /// `(a * b) mod n` for arbitrary (also unreduced) operands.
    #[inline]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        self.0.mul(a, b)
    }

    /// `(a + b) mod n` for arbitrary operands; reduced ones cost a compare
    /// each. The sum itself is reduced without a branch on its value: the
    /// operands a caller has are uniformly random residues, on which
    /// `a + b ≥ n` is a coin flip no predictor wins.
    #[inline]
    pub fn add(self, a: u64, b: u64) -> u64 {
        let (a, b) = (self.0.reduce_rare(a), self.0.reduce_rare(b));
        let (s, carry) = a.overflowing_add(b);
        // s − n wraps above s exactly when s < n; a carry (n > 2^63 only)
        // means the true sum is past n whatever s looks like.
        let t = s.wrapping_sub(self.0.n);
        if carry {
            t
        } else {
            s.min(t)
        }
    }
}

/// Cells per pass of [`sum_columns_mod`]: the accumulator tile stays in L1
/// while the columns stream through it.
const SUM_TILE: usize = 1024;

fn sum_columns<R: Reducer>(r: R, columns: &[&[u64]], start: usize, out: &mut [u64]) {
    debug_assert!(columns
        .iter()
        .all(|c| c[start..start + out.len()].iter().all(|&s| s < r.modulus())));
    let group = r.lazy_addends();
    if group == 0 {
        // n > 2^63: two canonical values can overflow, so reduce per add.
        out.fill(0);
        let end = start + out.len();
        for col in columns {
            for (a, &s) in out.iter_mut().zip(&col[start..end]) {
                *a = r.add(*a, s);
            }
        }
        return;
    }
    let mut offset = start;
    for tile in out.chunks_mut(SUM_TILE) {
        tile.fill(0);
        let end = offset + tile.len();
        for cols in columns.chunks(group) {
            for col in cols {
                for (a, &s) in tile.iter_mut().zip(&col[offset..end]) {
                    *a += s;
                }
            }
            for a in tile.iter_mut() {
                *a = r.reduce(*a);
            }
        }
        offset = end;
    }
}

/// Per-cell sum across share columns:
/// `out[i] = Σ_j columns[j][start + i] mod n`.
///
/// The columns must be canonical (every value `< n` — what the servers'
/// ingest guarantees for stored shares; `debug_assert!`ed): the loop adds
/// without reducing for as many columns as provably fit a `u64` (seven for
/// [`MERSENNE_61`], any realistic owner count for a small δ) and reduces
/// once per group. Panics if a column is shorter than `start + out.len()`.
pub fn sum_columns_mod(columns: &[&[u64]], start: usize, n: u64, out: &mut [u64]) {
    assert!(n > 0, "modulus must be positive");
    by_modulus!(n, |r| sum_columns(r, columns, start, out))
}

/// In-place pointwise product: `out[i] = out[i] · rhs[i] mod n`, for
/// arbitrary (also unreduced) operands. Panics on a length mismatch.
pub fn mul_assign_mod(out: &mut [u64], rhs: &[u64], n: u64) {
    assert!(n > 0, "modulus must be positive");
    assert_eq!(out.len(), rhs.len(), "operand lengths must match");
    by_modulus!(n, |r| {
        for (o, &x) in out.iter_mut().zip(rhs) {
            *o = r.mul(*o, x);
        }
    })
}

/// Pointwise product into a third buffer: `out[i] = a[i] · b[i] mod n`, for
/// arbitrary (also unreduced) operands — [`mul_assign_mod`] for a left
/// operand that must survive. Panics on a length mismatch.
pub fn mul_into_mod(a: &[u64], b: &[u64], n: u64, out: &mut [u64]) {
    assert!(n > 0, "modulus must be positive");
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "operand lengths must match"
    );
    by_modulus!(n, |r| {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = r.mul(x, y);
        }
    })
}

/// The ingest fold: reduce `data` into `[0, n)` in place — honest shares
/// already are, so the remainder runs only for values that are not — and
/// add it into the **canonical** running sum: `acc[i] = acc[i] + data[i]
/// mod n`, one pass over both. Panics on a length mismatch.
///
/// Shares are uniformly random, so a compare-and-branch reduction of the
/// sum mispredicts every other cell; for `n ≤ 2^63` (no carry) the reduced
/// value is the smaller of `s` and the wrapped `s − n`, picked without one.
pub fn fold_canonical_mod(acc: &mut [u64], data: &mut [u64], n: u64) {
    assert!(n > 0, "modulus must be positive");
    assert_eq!(acc.len(), data.len(), "operand lengths must match");
    let carry_free = n <= 1 << 63;
    for (a, x) in acc.iter_mut().zip(data) {
        debug_assert!(*a < n);
        if *x >= n {
            *x %= n;
        }
        *a = if carry_free {
            let s = *a + *x;
            s.min(s.wrapping_sub(n))
        } else {
            add_reduced(*a, *x, n)
        };
    }
}

/// In-place pointwise difference of **canonical** operands:
/// `acc[i] = acc[i] − rhs[i] mod n`, branch-free like [`fold_canonical_mod`].
/// Panics on a length mismatch.
pub fn sub_assign_mod(acc: &mut [u64], rhs: &[u64], n: u64) {
    assert_eq!(acc.len(), rhs.len(), "operand lengths must match");
    let carry_free = n <= 1 << 63;
    for (a, &x) in acc.iter_mut().zip(rhs) {
        debug_assert!(*a < n && x < n);
        *a = if carry_free {
            let d = a.wrapping_sub(x);
            d.min(d.wrapping_add(n))
        } else {
            sub_reduced(*a, x, n)
        };
    }
}

/// Modular exponentiation: `base^exp mod n` by square-and-multiply.
///
/// Returns 0 when `n == 1` (the only residue mod 1).
pub fn pow_mod(mut base: u64, mut exp: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= n;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, n);
        }
        base = mul_mod(base, base, n);
        exp >>= 1;
    }
    acc
}

/// Greatest common divisor (binary-free Euclid; inputs are arbitrary).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Extended Euclid on signed 128-bit intermediates.
/// Returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn ext_gcd(a: u64, b: u64) -> (u64, i128, i128) {
    let (mut old_r, mut r) = (a as i128, b as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    (old_r as u64, old_s, old_t)
}

/// Modular inverse of `a` mod `n`, if `gcd(a, n) == 1`.
pub fn inv_mod(a: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    let (g, x, _) = ext_gcd(a % n, n);
    if g != 1 {
        return None;
    }
    let n_i = n as i128;
    Some((((x % n_i) + n_i) % n_i) as u64)
}

/// The primes below 200, precomputed once as a const table.
///
/// `is_prime` trial-divides by a prefix of these before Miller–Rabin, and
/// callers that need small primes (tests, parameter searches) read the table
/// instead of re-sieving by trial division on every call.
pub const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Deterministic Miller–Rabin primality test, exact for every `u64`.
///
/// Uses the well-known 12-witness base set that is provably sufficient for
/// all integers below 3,317,044,064,679,887,385,961,981 (> 2^64).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n == p {
            return true;
        }
        if n % p == 0 {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue 'witness;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Smallest prime `>= n` (panics only if the search exceeds `u64::MAX`,
/// which cannot happen for the parameter ranges PRISM uses).
pub fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n & 1 == 0 {
        n += 1;
    }
    loop {
        if is_prime(n) {
            return n;
        }
        n = n.checked_add(2).expect("prime search overflowed u64");
    }
}

/// The Mersenne prime `2^61 - 1`, PRISM's default Shamir field modulus.
///
/// Chosen because products of two reduced residues fit in `u128`, and sums
/// over 50 owners × 20M tuples of realistic column values stay far below it.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_mod_wraps() {
        assert_eq!(add_mod(3, 4, 5), 2);
        assert_eq!(add_mod(u64::MAX, u64::MAX, u64::MAX), 0);
        assert_eq!(add_mod(0, 0, 1), 0);
    }

    #[test]
    fn sub_mod_never_underflows() {
        assert_eq!(sub_mod(3, 4, 5), 4);
        assert_eq!(sub_mod(4, 3, 5), 1);
        assert_eq!(sub_mod(0, 1, 7), 6);
        assert_eq!(sub_mod(10, 10, 7), 0);
    }

    #[test]
    fn mul_mod_widens() {
        assert_eq!(mul_mod(u64::MAX, u64::MAX, MERSENNE_61), {
            let m = u64::MAX as u128;
            ((m * m) % MERSENNE_61 as u128) as u64
        });
    }

    #[test]
    fn pow_mod_matches_naive() {
        for base in [0u64, 1, 2, 3, 7, 10, 227] {
            for exp in 0u64..20 {
                let naive = (0..exp).fold(1u64, |acc, _| mul_mod(acc, base, 1_000_003));
                assert_eq!(pow_mod(base, exp, 1_000_003), naive, "{base}^{exp}");
            }
        }
    }

    #[test]
    fn pow_mod_modulus_one() {
        assert_eq!(pow_mod(5, 3, 1), 0);
    }

    #[test]
    fn fermat_little_theorem_on_known_primes() {
        for p in [5u64, 11, 113, 227, 5003, MERSENNE_61] {
            for a in [2u64, 3, 10, 1234567] {
                if a % p != 0 {
                    assert_eq!(pow_mod(a, p - 1, p), 1, "a={a} p={p}");
                }
            }
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
    }

    #[test]
    fn inv_mod_roundtrip() {
        for n in [5u64, 113, 227, MERSENNE_61] {
            for a in 1..50u64 {
                if gcd(a, n) == 1 {
                    let inv = inv_mod(a, n).unwrap();
                    assert_eq!(mul_mod(a, inv, n), 1, "a={a} n={n}");
                }
            }
        }
        assert_eq!(inv_mod(6, 12), None);
        assert_eq!(inv_mod(4, 0), None);
    }

    #[test]
    fn is_prime_small_exhaustive() {
        for n in 0..200u64 {
            assert_eq!(is_prime(n), SMALL_PRIMES.contains(&n), "n={n}");
        }
    }

    #[test]
    fn small_primes_table_is_complete_and_sorted() {
        // The table must match an independent O(n²) trial-division sieve —
        // computed once here in a test, never on a library call path.
        let sieved: Vec<u64> = (2..200).filter(|&n| (2..n).all(|d| n % d != 0)).collect();
        assert_eq!(SMALL_PRIMES.to_vec(), sieved);
        assert!(SMALL_PRIMES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn is_prime_known_large() {
        assert!(is_prime(MERSENNE_61));
        assert!(is_prime(2_147_483_647)); // 2^31 - 1
        assert!(!is_prime((1u64 << 61) - 2));
        assert!(!is_prime(u64::MAX)); // 3 * 5 * 17 * ...
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(3), 3);
        assert_eq!(next_prime(4), 5);
        assert_eq!(next_prime(100), 101);
        assert_eq!(next_prime(5_000_000), 5_000_011);
    }

    #[test]
    fn paper_parameters_are_valid() {
        // §8: η = 227, δ = 113. Group theory requirement: δ | η − 1.
        assert!(is_prime(227) && is_prime(113));
        assert_eq!((227 - 1) % 113, 0);
        // Example 6.3.1 uses η = 5003.
        assert!(is_prime(5003));
    }

    // ---- Differential tests: every fast path against the `u128` forms ----

    /// 1, 2, the paper's δ and η (113, 227; Example 6.3.1's 5003), the
    /// Shamir field, and the largest `u64` prime (sums of two reduced
    /// operands overflow `u64`).
    const MODULI: [u64; 7] = [1, 2, 113, 227, 5003, MERSENNE_61, u64::MAX - 58];

    fn add_ref(a: u64, b: u64, n: u64) -> u64 {
        ((a as u128 + b as u128) % n as u128) as u64
    }

    fn sub_ref(a: u64, b: u64, n: u64) -> u64 {
        ((a as i128 - b as i128).rem_euclid(n as i128)) as u64
    }

    fn mul_ref(a: u64, b: u64, n: u64) -> u64 {
        ((a as u128 * b as u128) % n as u128) as u64
    }

    /// Operands around every boundary a fast path tests for.
    fn edges(n: u64) -> Vec<u64> {
        let mut v = vec![0, 1, 2, n / 2, n - 1, n, u64::MAX - 1, u64::MAX];
        v.extend([n.wrapping_add(1), n.wrapping_mul(2), 1 << 32, (1 << 32) - 1]);
        v.extend([
            MERSENNE_61 - 1,
            MERSENNE_61,
            MERSENNE_61 + 1,
            1 << 61,
            1 << 63,
        ]);
        v
    }

    fn check_scalars(a: u64, b: u64, n: u64) {
        assert_eq!(add_mod(a, b, n), add_ref(a, b, n), "{a} + {b} mod {n}");
        assert_eq!(sub_mod(a, b, n), sub_ref(a, b, n), "{a} - {b} mod {n}");
        assert_eq!(mul_mod(a, b, n), mul_ref(a, b, n), "{a} * {b} mod {n}");
        let prepared = Modulus::new(n);
        assert_eq!(prepared.add(a, b), add_ref(a, b, n), "{a} + {b} mod {n}");
        assert_eq!(prepared.mul(a, b), mul_ref(a, b, n), "{a} * {b} mod {n}");
    }

    fn check_reducer<R: Reducer>(r: R, a: u64, b: u64, wide: u128) {
        let n = r.modulus();
        assert_eq!(r.reduce(a), a % n, "reduce {a} mod {n}");
        assert_eq!(r.reduce_rare(a), a % n, "reduce_rare {a} mod {n}");
        assert_eq!(
            r.reduce_wide(wide),
            (wide % n as u128) as u64,
            "{wide} mod {n}"
        );
        assert_eq!(r.mul(a, b), mul_ref(a, b, n), "{a} * {b} mod {n}");
        let (ca, cb) = (a % n, b % n);
        assert_eq!(r.add(ca, cb), add_ref(ca, cb, n), "{ca} + {cb} mod {n}");
        assert_eq!(r.sub(ca, cb), sub_ref(ca, cb, n), "{ca} - {cb} mod {n}");
    }

    /// Both reducers for `n`: the one `by_modulus!` picks and, for the
    /// Mersenne field, the generic one it passes over.
    fn check_reducers(n: u64, a: u64, b: u64, wide: u128) {
        by_modulus!(n, |r| check_reducer(r, a, b, wide));
        check_reducer(Generic::new(n), a, b, wide);
    }

    #[test]
    fn fast_paths_match_reference_on_edge_operands() {
        for n in MODULI {
            for a in edges(n) {
                for b in edges(n) {
                    check_scalars(a, b, n);
                    let wide = (a as u128) << 64 | b as u128;
                    check_reducers(n, a, b, wide);
                    check_reducers(n, a, b, a as u128 * b as u128);
                }
            }
            check_reducers(n, 0, 0, u128::MAX);
        }
    }

    #[test]
    fn generic_reducer_matches_the_u128_remainder() {
        // Small, the benchmark's and the paper's δ / η, a 32-bit modulus, the
        // Shamir field through the reducer `by_modulus!` passes over, and
        // both sides of 2^63, where 2n no longer fits — against operands at
        // every boundary of the quotient estimate and its correction.
        const GRID: [u64; 11] = [
            1,
            2,
            3,
            79,
            113,
            227,
            5003,
            (1 << 32) - 5,
            MERSENNE_61,
            (1 << 63) + 9,
            u64::MAX - 58,
        ];
        for n in GRID {
            let r = Generic::new(n);
            let operands = [0, 1, n - 1, n, n.wrapping_add(1), 1 << 63, u64::MAX];
            for x in operands {
                assert_eq!(r.reduce(x), (x as u128 % n as u128) as u64, "{x} mod {n}");
                for y in operands {
                    assert_eq!(r.mul(x, y), mul_ref(x, y, n), "{x} * {y} mod {n}");
                }
            }
        }
    }

    #[test]
    fn lazy_bounds_cannot_overflow() {
        fn check<R: Reducer>(r: R) {
            let top = r.modulus() - 1;
            // A canonical accumulator plus `lazy_addends` canonical addends.
            let addends = r.lazy_addends() as u128 + 1;
            assert!(addends * top as u128 <= u64::MAX as u128, "n={}", top + 1);
            let products = r.lazy_products() as u128;
            assert!((top as u128 * top as u128).checked_mul(products).is_some());
        }
        for n in MODULI {
            by_modulus!(n, |r| check(r));
        }
        assert_eq!(Generic::new(u64::MAX - 58).lazy_addends(), 0);
        assert!(Generic::new(113).lazy_addends() > 1 << 50);
    }

    /// Column `j` of a kernel fixture: canonical values that reach `n − 1`.
    fn column(j: usize, len: usize, n: u64) -> Vec<u64> {
        let mut prg = crate::Prg::from_seed((j as u64 * 977).wrapping_add(n));
        let mut col: Vec<u64> = (0..len).map(|_| prg.below(n)).collect();
        if let Some(first) = col.first_mut() {
            *first = n - 1;
        }
        col
    }

    #[test]
    fn sum_columns_matches_per_element_reference() {
        // Column counts straddle the Mersenne group of 7; lengths straddle
        // the accumulator tile.
        for n in MODULI {
            for m in [0usize, 1, 7, 8, 15] {
                for len in [0usize, 1, 7, 8, 9, 1023, SUM_TILE + 1] {
                    for start in [0usize, 3] {
                        let cols: Vec<Vec<u64>> =
                            (0..m).map(|j| column(j, start + len, n)).collect();
                        let refs: Vec<&[u64]> = cols.iter().map(|c| c.as_slice()).collect();
                        let mut out = vec![u64::MAX; len];
                        sum_columns_mod(&refs, start, n, &mut out);
                        for (i, &got) in out.iter().enumerate() {
                            let want = cols.iter().fold(0, |acc, c| add_ref(acc, c[start + i], n));
                            assert_eq!(got, want, "n={n} m={m} len={len} start={start} i={i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mul_assign_matches_reference_on_unreduced_operands() {
        for n in MODULI {
            let lhs = edges(n);
            for &b in &edges(n) {
                let rhs = vec![b; lhs.len()];
                let mut out = lhs.clone();
                mul_assign_mod(&mut out, &rhs, n);
                let mut into = vec![u64::MAX; lhs.len()];
                mul_into_mod(&lhs, &rhs, n, &mut into);
                assert_eq!(into, out, "mul_into_mod vs mul_assign_mod, n={n}");
                for (&a, &got) in lhs.iter().zip(&out) {
                    assert_eq!(got, mul_ref(a, b, n), "{a} * {b} mod {n}");
                }
            }
        }
    }

    #[test]
    fn fold_and_sub_assign_match_reference() {
        // The running sum is canonical; what is folded in need not be.
        for n in MODULI {
            let lhs: Vec<u64> = edges(n).iter().map(|&a| a % n).collect();
            for b in edges(n) {
                let mut data = vec![b; lhs.len()];
                let mut sum = lhs.clone();
                fold_canonical_mod(&mut sum, &mut data, n);
                assert!(data.iter().all(|&x| x == b % n), "{b} reduced mod {n}");
                for (&a, &got) in lhs.iter().zip(&sum) {
                    assert_eq!(got, add_ref(a, b, n), "{a} + {b} mod {n}");
                }
                sub_assign_mod(&mut sum, &data, n);
                assert_eq!(sum, lhs, "fold then sub of {b} mod {n}");
                for (&a, got) in lhs.iter().zip(&mut sum) {
                    sub_assign_mod(std::slice::from_mut(got), &[b % n], n);
                    assert_eq!(*got, sub_ref(a, b % n, n), "{a} - {b} mod {n}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_fast_paths_match_reference(a: u64, b: u64, hi: u64, pick in 0usize..MODULI.len(), any_n in 1u64..u64::MAX) {
            for n in [MODULI[pick], any_n] {
                check_scalars(a, b, n);
                check_scalars(a % n, b % n, n);
                check_reducers(n, a, b, (hi as u128) << 64 | a as u128);
            }
        }

        #[test]
        fn prop_generic_reduce_matches_remainder(n in 1u64..=u64::MAX, x: u64, y: u64) {
            let r = Generic::new(n);
            prop_assert_eq!(r.reduce(x), x % n);
            prop_assert_eq!(r.mul(x, y), mul_ref(x, y, n));
        }

        #[test]
        fn prop_sum_columns_matches_reference(
            seed: u64,
            m in 0usize..20,
            len in 0usize..40,
            pick in 0usize..MODULI.len(),
        ) {
            let n = MODULI[pick];
            let cols: Vec<Vec<u64>> = (0..m).map(|j| column(j + seed as usize % 1000, len, n)).collect();
            let refs: Vec<&[u64]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut out = vec![0u64; len];
            sum_columns_mod(&refs, 0, n, &mut out);
            for (i, &got) in out.iter().enumerate() {
                prop_assert_eq!(got, cols.iter().fold(0, |acc, c| add_ref(acc, c[i], n)));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_sub_then_add_roundtrips(a in 0u64..u64::MAX, b in 0u64..u64::MAX, n in 2u64..u64::MAX) {
            let d = sub_mod(a, b, n);
            prop_assert_eq!(add_mod(d, b, n), a % n);
        }

        #[test]
        fn prop_mul_commutes(a: u64, b: u64, n in 1u64..u64::MAX) {
            prop_assert_eq!(mul_mod(a, b, n), mul_mod(b, a, n));
        }

        #[test]
        fn prop_pow_adds_exponents(base: u64, e1 in 0u64..1000, e2 in 0u64..1000, n in 2u64..u64::MAX) {
            let lhs = pow_mod(base, e1 + e2, n);
            let rhs = mul_mod(pow_mod(base, e1, n), pow_mod(base, e2, n), n);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_inverse_is_inverse(a in 1u64..u64::MAX, n in 2u64..u64::MAX) {
            if gcd(a % n, n) == 1 && a % n != 0 {
                let inv = inv_mod(a, n).unwrap();
                prop_assert_eq!(mul_mod(a, inv, n), 1);
            }
        }
    }
}
