//! Deterministic pseudorandom generation.
//!
//! PRISM's PSU protocol (§7) requires the two servers to derive the *same*
//! per-cell blinding factors from a shared seed without communicating, so
//! the generator must be a portable, fully specified algorithm rather than
//! whatever `rand`'s default happens to be on a given platform. We implement
//! splitmix64 (for seeding) and xoshiro256** (for the stream) — both public
//! domain reference algorithms — and layer rejection sampling on top.

use crate::arith::{by_modulus, Reducer};
use serde::{Deserialize, Serialize};

/// The largest raw draw rejection sampling below `bound` accepts: the `u64`
/// range minus its final partial block of `bound` values.
#[inline]
pub(crate) fn rejection_zone(bound: u64) -> u64 {
    // u64::MAX − (u64::MAX % bound + 1) % bound, with the second remainder
    // replaced by a compare (the first is already < bound).
    let r = u64::MAX % bound;
    u64::MAX - if r + 1 == bound { 0 } else { r + 1 }
}

/// splitmix64 step: advances `state` and returns the next output.
///
/// Used both as a seeding function and as a cheap standalone PRG for
/// non-security-critical mixing (e.g. deriving per-column seeds).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The common pseudorandom number generator `PRG` from §3.1 / §4.
///
/// A seeded xoshiro256** instance. Two parties constructed from the same
/// seed produce identical streams — the property Equation 18 relies on.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Prg {
    s: [u64; 4],
}

impl Prg {
    /// Derive a generator from a 64-bit seed via splitmix64 (the expansion
    /// recommended by the xoshiro authors).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prg { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` by rejection sampling (no modulo bias).
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Prg::below requires a positive bound");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = rejection_zone(bound);
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// [`Prg::below`] for loops: the caller hoists the reducer for `bound`
    /// and its [`rejection_zone`]. Same draws, same rejections, same
    /// values (a power-of-two bound has the whole range as its zone).
    #[inline]
    pub(crate) fn draw<R: Reducer>(&mut self, r: R, zone: u64) -> u64 {
        loop {
            let v = self.next_u64();
            if v <= zone {
                return r.reduce(v);
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// The blinding stream from Equation 18: `b` values uniform in
    /// `[1, delta - 1]` (never zero, never ≥ δ, so each is a unit mod δ
    /// when δ is prime).
    pub fn blinding_vector(&mut self, b: usize, delta: u64) -> Vec<u64> {
        let mut out = vec![0u64; b];
        self.blinding_into(&mut out, delta);
        out
    }

    /// In-place variant of [`Prg::blinding_vector`]: fills `out` with the
    /// identical stream (same draws, same rejection behaviour) without
    /// allocating. Hot-path-only API — callers own the buffer and reuse it
    /// across rounds.
    pub fn blinding_into(&mut self, out: &mut [u64], delta: u64) {
        assert!(delta >= 2, "delta must be at least 2");
        // `range(1, delta)` per cell, with the bound's reducer and zone
        // hoisted out of the loop.
        let bound = delta - 1;
        let zone = rejection_zone(bound);
        by_modulus!(bound, |r| {
            for v in out.iter_mut() {
                *v = 1 + self.draw(r, zone);
            }
        })
    }

    /// Uniform `f64` in `[0, 1)` (53-bit mantissa precision).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MERSENNE_61;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prg::from_seed(42);
        let mut b = Prg::from_seed(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::from_seed(1);
        let mut b = Prg::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn below_respects_bound() {
        let mut prg = Prg::from_seed(7);
        for bound in [1u64, 2, 3, 113, 227, 1 << 40] {
            for _ in 0..200 {
                assert!(prg.below(bound) < bound);
            }
        }
    }

    #[test]
    fn blinding_vector_in_unit_range() {
        let mut prg = Prg::from_seed(99);
        let v = prg.blinding_vector(10_000, 113);
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().all(|&x| (1..113).contains(&x)));
        // All residues should appear for a healthy generator.
        let mut seen = [false; 113];
        for &x in &v {
            seen[x as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn blinding_vector_is_shared_between_servers() {
        // The exact property PSU needs: independent instances, same seed.
        let mut s1 = Prg::from_seed(0xDEAD_BEEF);
        let mut s2 = Prg::from_seed(0xDEAD_BEEF);
        assert_eq!(s1.blinding_vector(512, 227), s2.blinding_vector(512, 227));
    }

    #[test]
    fn blinding_into_matches_vector_api() {
        let mut a = Prg::from_seed(0x5EED);
        let mut b = Prg::from_seed(0x5EED);
        let via_vec = a.blinding_vector(1024, 113);
        let mut via_into = vec![u64::MAX; 1024];
        b.blinding_into(&mut via_into, 113);
        assert_eq!(via_vec, via_into);
        // Both generators must have consumed the identical stream.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_mersenne_golden_stream() {
        // Pinned at the commit before the zone and the reducer were
        // hoisted out of the sharing loops: shares are reproducible across
        // versions only if these never move.
        let mut prg = Prg::from_seed(42);
        let draws: Vec<u64> = (0..6).map(|_| prg.below(MERSENNE_61)).collect();
        assert_eq!(
            draws,
            [
                1546998764402558742,
                73422665323461249,
                1015371716180089254,
                916673044686266536,
                2154651913569459819,
                364128774783586878
            ]
        );
        assert_eq!(
            Prg::from_seed(42).blinding_vector(8, 113),
            [87, 79, 34, 82, 5, 9, 3, 8]
        );
    }

    #[test]
    fn unit_f64_in_range() {
        let mut prg = Prg::from_seed(3);
        for _ in 0..1000 {
            let f = prg.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 (from the public-domain
        // splitmix64.c reference implementation).
        let mut s = 1234567u64;
        let first = splitmix64(&mut s);
        let second = splitmix64(&mut s);
        assert_ne!(first, second);
        assert_eq!(first, 6457827717110365317u64);
        assert_eq!(second, 3203168211198807973u64);
    }

    #[test]
    fn serde_roundtrip_preserves_stream() {
        let mut a = Prg::from_seed(5);
        a.next_u64();
        let json = serde_json_like(&a);
        let mut b = json;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    // Minimal stand-in "serialization roundtrip" via Clone since the state
    // derives Serialize/Deserialize structurally; the point is state
    // snapshotting resumes the stream.
    fn serde_json_like(p: &Prg) -> Prg {
        p.clone()
    }

    proptest! {
        #[test]
        fn prop_below_uniform_bounds(seed: u64, bound in 1u64..u64::MAX) {
            let mut prg = Prg::from_seed(seed);
            for _ in 0..32 {
                prop_assert!(prg.below(bound) < bound);
            }
        }

        #[test]
        fn prop_blinding_into_parity(seed: u64, b in 0usize..512, delta in 2u64..100_000) {
            let mut lhs = Prg::from_seed(seed);
            let mut rhs = Prg::from_seed(seed);
            let via_vec = lhs.blinding_vector(b, delta);
            let mut via_into = vec![0u64; b];
            rhs.blinding_into(&mut via_into, delta);
            prop_assert_eq!(via_vec, via_into);
            prop_assert_eq!(lhs.next_u64(), rhs.next_u64());
        }

        #[test]
        fn prop_hoisted_draw_is_below(seed: u64, bound in 1u64..u64::MAX, small in 1u64..5000, shift in 0u32..64) {
            // The loop form (hoisted zone + reducer) and the scalar form,
            // rejection for rejection: arbitrary, small (δ-sized) and
            // power-of-two bounds, and the Mersenne field.
            for bound in [bound, small, 1 << shift, MERSENNE_61] {
                prop_assert_eq!(
                    rejection_zone(bound),
                    u64::MAX - (u64::MAX % bound + 1) % bound
                );
                let mut scalar = Prg::from_seed(seed);
                let mut hoisted = Prg::from_seed(seed);
                let zone = rejection_zone(bound);
                for _ in 0..8 {
                    let want = scalar.below(bound);
                    prop_assert_eq!(by_modulus!(bound, |r| hoisted.draw(r, zone)), want);
                }
                prop_assert_eq!(scalar.next_u64(), hoisted.next_u64());
            }
        }

        #[test]
        fn prop_blinding_is_range_per_cell(seed: u64, b in 0usize..64, delta in 2u64..100_000) {
            let mut bulk = Prg::from_seed(seed);
            let mut scalar = Prg::from_seed(seed);
            let blinding = bulk.blinding_vector(b, delta);
            let per_cell: Vec<u64> = (0..b).map(|_| scalar.range(1, delta)).collect();
            prop_assert_eq!(blinding, per_cell);
            prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
        }

        #[test]
        fn prop_range_within(seed: u64, lo in 0u64..1000, width in 1u64..1000) {
            let mut prg = Prg::from_seed(seed);
            let hi = lo + width;
            for _ in 0..32 {
                let v = prg.range(lo, hi);
                prop_assert!(v >= lo && v < hi);
            }
        }
    }
}
