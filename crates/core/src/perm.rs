//! Permutation functions `PF` (§3.1, §4).
//!
//! PRISM distributes several related permutations: one shared by owners and
//! servers (max/median share shuffling), one known only to servers (count),
//! one known only to owners (PSI verification), and the Equation-1 family
//!
//! ```text
//! PF_s1 ∘ PF_db1 = PF_s2 ∘ PF_db2 = PF_i
//! ```
//!
//! used so that two independently-permuted result paths land in the *same*
//! final order without either side knowing the full composition.
//! Permutations are represented in one-line notation: `map[i]` is where
//! position `i` is sent. That forward map is what defines a permutation —
//! equality, [`Permutation::as_map`] and the wire encoding read nothing
//! else — while *applying* one reads through its inverse, built the first
//! time the permutation is applied and kept: `out[j] = in[src[j]]` writes
//! the output in order and scatters only the reads, which a cache serves
//! far better than scattered writes.

use crate::prg::Prg;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A permutation of `0..n` in one-line notation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Permutation {
    /// `map[i]` = destination index of source position `i`.
    map: Vec<u32>,
    /// `src[j]` = source position of destination index `j`: the inverse
    /// map, derived from `map` on the first [`Permutation::apply`] /
    /// [`Permutation::apply_into`] and never again (a clone carries it).
    src: OnceLock<Vec<u32>>,
}

impl PartialEq for Permutation {
    fn eq(&self, other: &Permutation) -> bool {
        self.map == other.map
    }
}

impl Eq for Permutation {}

impl Permutation {
    /// Wrap a forward map the caller has made a bijection of `0..len`.
    fn of(map: Vec<u32>) -> Self {
        Permutation {
            map,
            src: OnceLock::new(),
        }
    }

    /// The identity on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation::of((0..n as u32).collect())
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates, seeded).
    pub fn random(n: usize, prg: &mut Prg) -> Self {
        let mut map: Vec<u32> = (0..n as u32).collect();
        // Standard Fisher–Yates walking down from the top.
        for i in (1..n).rev() {
            let j = prg.below((i + 1) as u64) as usize;
            map.swap(i, j);
        }
        Permutation::of(map)
    }

    /// Build from an explicit one-line map. Returns `None` if `map` is not
    /// a bijection of `0..map.len()`.
    pub fn from_map(map: Vec<u32>) -> Option<Self> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &d in &map {
            let d = d as usize;
            if d >= n || seen[d] {
                return None;
            }
            seen[d] = true;
        }
        Some(Permutation::of(map))
    }

    /// The raw one-line destination map (what a wire encoding carries;
    /// [`Permutation::from_map`] is its inverse).
    pub fn as_map(&self) -> &[u32] {
        &self.map
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Where position `i` is sent.
    #[inline]
    pub fn dest(&self, i: usize) -> usize {
        self.map[i] as usize
    }

    /// The inverse map, built on first use: `sources()[j]` is the position
    /// whose element lands at `j`.
    fn sources(&self) -> &[u32] {
        self.src.get_or_init(|| {
            let mut src = vec![0u32; self.map.len()];
            for (i, &d) in self.map.iter().enumerate() {
                src[d as usize] = i as u32;
            }
            src
        })
    }

    /// The permuted order of `input`, element `j` being the one sent to
    /// `j`: the one routine both `apply` forms collect from.
    fn gather<'a, T>(&'a self, input: &'a [T]) -> impl Iterator<Item = &'a T> {
        assert_eq!(input.len(), self.map.len(), "length mismatch in apply");
        self.sources().iter().map(move |&i| &input[i as usize])
    }

    /// Apply to a slice: `output[dest(i)] = input[i]`.
    pub fn apply<T: Clone>(&self, input: &[T]) -> Vec<T> {
        self.gather(input).cloned().collect()
    }

    /// Apply into a caller-owned buffer: `out[dest(i)] = input[i]`.
    ///
    /// Hot-path-only variant of [`Permutation::apply`] for `Copy` payloads:
    /// no allocation, and every output slot is written exactly once, in
    /// order — whatever `out` held is gone. `input` and `out` must both
    /// match the domain size.
    pub fn apply_into<T: Copy>(&self, input: &[T], out: &mut [T]) {
        assert_eq!(out.len(), self.map.len(), "length mismatch in apply");
        for (slot, &item) in out.iter_mut().zip(self.gather(input)) {
            *slot = item;
        }
    }

    /// The inverse permutation (`RPF` in §6.3 Step 5a).
    pub fn inverse(&self) -> Permutation {
        Permutation::of(self.sources().to_vec())
    }

    /// Composition `other ∘ self`: first apply `self`, then `other`
    /// (matches the ⊙ of Equation 1 read right-to-left).
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "length mismatch in composition");
        let map = (0..self.map.len())
            .map(|i| other.map[self.map[i] as usize])
            .collect();
        Permutation::of(map)
    }

    /// Apply to a single index.
    pub fn apply_index(&self, i: usize) -> usize {
        self.dest(i)
    }

    /// Block-diagonal concatenation: `self` acts on `[0, self.len())` and
    /// `block` acts on the appended range `[self.len(), self.len() + block.len())`.
    ///
    /// This is the delta-upload extension rule: a permutation grown this way
    /// never moves rows across the append boundary, so columns that were
    /// stored *already permuted* under `self` stay valid — the appended
    /// segment is simply permuted by `block` and concatenated.
    pub fn concat(&self, block: &Permutation) -> Permutation {
        let base = self.map.len() as u32;
        let mut map = Vec::with_capacity(self.map.len() + block.map.len());
        map.extend_from_slice(&self.map);
        map.extend(block.map.iter().map(|&d| d + base));
        Permutation::of(map)
    }

    /// The trailing block of a block-diagonal permutation, rebased to `0`.
    ///
    /// Inverse of [`Permutation::concat`]: requires that no entry of
    /// `[start, len)` maps below `start` (i.e. `self` really is block-diagonal
    /// at `start`); returns `None` otherwise, and for a `start` past the
    /// end.
    pub fn tail_block(&self, start: usize) -> Option<Permutation> {
        let tail = self.map.get(start..)?;
        let base = start as u32;
        let mut map = Vec::with_capacity(tail.len());
        for &d in tail {
            if d < base {
                return None;
            }
            map.push(d - base);
        }
        Permutation::from_map(map)
    }
}

/// The Equation-1 family: given a target `PF_i`, produce
/// `(PF_s1, PF_db1, PF_s2, PF_db2)` with
/// `PF_s1 ∘ PF_db1 = PF_s2 ∘ PF_db2 = PF_i`.
///
/// `PF_db1`/`PF_db2` are drawn uniformly; each server-side factor is then
/// forced (`PF_s = PF_i ∘ PF_db⁻¹`), mirroring how the initiator selects
/// these over a permutation group (§4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PermutationFamily {
    /// Known to servers only.
    pub pf_s1: Permutation,
    /// Known to servers only.
    pub pf_s2: Permutation,
    /// Known to DB owners only.
    pub pf_db1: Permutation,
    /// Known to DB owners only.
    pub pf_db2: Permutation,
    /// The common composition (held by the initiator; distributed to no one).
    pub pf_i: Permutation,
}

impl PermutationFamily {
    /// Extend every member block-diagonally with the matching member of a
    /// freshly generated `block` family (see [`Permutation::concat`]).
    ///
    /// Because concatenation distributes over composition and inversion
    /// (`concat(a,b).then(concat(c,d)) == concat(a.then(c), b.then(d))`),
    /// the Equation-1 identity holds for the grown family whenever it holds
    /// for `self` and for `block` — so delta uploads can grow the domain
    /// without re-permuting (or re-uploading) any existing rows.
    pub fn concat(&self, block: &PermutationFamily) -> PermutationFamily {
        PermutationFamily {
            pf_s1: self.pf_s1.concat(&block.pf_s1),
            pf_s2: self.pf_s2.concat(&block.pf_s2),
            pf_db1: self.pf_db1.concat(&block.pf_db1),
            pf_db2: self.pf_db2.concat(&block.pf_db2),
            pf_i: self.pf_i.concat(&block.pf_i),
        }
    }

    /// Generate a family over `0..n`.
    pub fn generate(n: usize, prg: &mut Prg) -> Self {
        let pf_i = Permutation::random(n, prg);
        let pf_db1 = Permutation::random(n, prg);
        let pf_db2 = Permutation::random(n, prg);
        // pf_db1.then(pf_s1) == pf_i  ⟺  pf_s1 = pf_db1⁻¹ then pf_i
        let pf_s1 = pf_db1.inverse().then(&pf_i);
        let pf_s2 = pf_db2.inverse().then(&pf_i);
        PermutationFamily {
            pf_s1,
            pf_s2,
            pf_db1,
            pf_db2,
            pf_i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(5);
        let v = vec![10, 20, 30, 40, 50];
        assert_eq!(p.apply(&v), v);
    }

    #[test]
    fn apply_moves_elements() {
        // map = [2,0,1]: pos0→2, pos1→0, pos2→1.
        let p = Permutation::from_map(vec![2, 0, 1]).unwrap();
        assert_eq!(p.apply(&[100, 200, 300]), vec![200, 300, 100]);
    }

    #[test]
    fn from_map_rejects_non_bijections() {
        assert!(Permutation::from_map(vec![0, 0]).is_none());
        assert!(Permutation::from_map(vec![0, 2]).is_none());
        assert!(Permutation::from_map(vec![]).is_some());
    }

    #[test]
    fn inverse_undoes_apply() {
        let mut prg = Prg::from_seed(1);
        let p = Permutation::random(100, &mut prg);
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(p.inverse().apply(&p.apply(&v)), v);
    }

    #[test]
    fn composition_associates_with_apply() {
        let mut prg = Prg::from_seed(2);
        let p = Permutation::random(50, &mut prg);
        let q = Permutation::random(50, &mut prg);
        let v: Vec<u64> = (0..50).map(|i| i * 7).collect();
        assert_eq!(p.then(&q).apply(&v), q.apply(&p.apply(&v)));
    }

    #[test]
    fn random_is_a_bijection() {
        let mut prg = Prg::from_seed(3);
        let p = Permutation::random(1000, &mut prg);
        let mut seen = vec![false; 1000];
        for i in 0..1000 {
            assert!(!seen[p.dest(i)]);
            seen[p.dest(i)] = true;
        }
    }

    #[test]
    fn random_is_seeded_deterministic() {
        let p1 = Permutation::random(64, &mut Prg::from_seed(9));
        let p2 = Permutation::random(64, &mut Prg::from_seed(9));
        assert_eq!(p1, p2);
    }

    #[test]
    fn family_satisfies_equation_1() {
        let mut prg = Prg::from_seed(4);
        for n in [1usize, 2, 10, 257] {
            let fam = PermutationFamily::generate(n, &mut prg);
            assert_eq!(fam.pf_db1.then(&fam.pf_s1), fam.pf_i, "n={n} path 1");
            assert_eq!(fam.pf_db2.then(&fam.pf_s2), fam.pf_i, "n={n} path 2");
        }
    }

    #[test]
    fn family_paths_agree_on_data() {
        let mut prg = Prg::from_seed(5);
        let fam = PermutationFamily::generate(128, &mut prg);
        let v: Vec<u64> = (0..128).map(|i| i * i).collect();
        // Owner permutes with PF_db1, server with PF_s1 — and independently
        // owner with PF_db2, server with PF_s2; results must coincide.
        let path1 = fam.pf_s1.apply(&fam.pf_db1.apply(&v));
        let path2 = fam.pf_s2.apply(&fam.pf_db2.apply(&v));
        assert_eq!(path1, path2);
        assert_eq!(path1, fam.pf_i.apply(&v));
    }

    #[test]
    fn single_element_and_empty() {
        let mut prg = Prg::from_seed(6);
        let p0 = Permutation::random(0, &mut prg);
        assert!(p0.is_empty());
        assert_eq!(p0.apply(&Vec::<u8>::new()), Vec::<u8>::new());
        let p1 = Permutation::random(1, &mut prg);
        assert_eq!(p1.apply(&[42]), vec![42]);
    }

    #[test]
    fn concat_acts_blockwise() {
        let mut prg = Prg::from_seed(7);
        let a = Permutation::random(5, &mut prg);
        let b = Permutation::random(3, &mut prg);
        let grown = a.concat(&b);
        let head: Vec<u64> = (0..5).collect();
        let tail: Vec<u64> = (100..103).collect();
        let full: Vec<u64> = head.iter().chain(tail.iter()).copied().collect();
        let mut want = a.apply(&head);
        want.extend(b.apply(&tail));
        assert_eq!(grown.apply(&full), want);
        assert_eq!(grown.tail_block(5).unwrap(), b);
        // A non-block-diagonal permutation has no tail block.
        let swap = Permutation::from_map(vec![1, 0]).unwrap();
        assert!(swap.tail_block(1).is_none());
        // Nor does a start past the end (it used to panic slicing).
        assert!(grown.tail_block(9).is_none());
    }

    #[test]
    fn concat_distributes_over_composition_and_inverse() {
        let mut prg = Prg::from_seed(8);
        let (a, b) = (
            Permutation::random(16, &mut prg),
            Permutation::random(16, &mut prg),
        );
        let (c, d) = (
            Permutation::random(9, &mut prg),
            Permutation::random(9, &mut prg),
        );
        assert_eq!(
            a.concat(&c).then(&b.concat(&d)),
            a.then(&b).concat(&c.then(&d))
        );
        assert_eq!(a.concat(&c).inverse(), a.inverse().concat(&c.inverse()));
    }

    #[test]
    fn family_concat_preserves_equation_1() {
        let mut prg = Prg::from_seed(9);
        let base = PermutationFamily::generate(40, &mut prg);
        let block = PermutationFamily::generate(17, &mut prg);
        let grown = base.concat(&block);
        assert_eq!(grown.pf_db1.then(&grown.pf_s1), grown.pf_i);
        assert_eq!(grown.pf_db2.then(&grown.pf_s2), grown.pf_i);
        // The grown family's server factors really are block extensions of
        // the originals (stored permuted columns stay valid).
        assert_eq!(grown.pf_s1.tail_block(40).unwrap(), block.pf_s1);
        assert_eq!(grown.pf_db1.tail_block(40).unwrap(), block.pf_db1);
    }

    proptest! {
        #[test]
        fn prop_inverse_composition_is_identity(seed: u64, n in 1usize..200) {
            let mut prg = Prg::from_seed(seed);
            let p = Permutation::random(n, &mut prg);
            prop_assert_eq!(p.then(&p.inverse()), Permutation::identity(n));
            prop_assert_eq!(p.inverse().then(&p), Permutation::identity(n));
        }

        #[test]
        fn prop_gather_is_the_scatter_definition(seed: u64, v in proptest::collection::vec(any::<u64>(), 0..100), identity: bool) {
            // `out[dest(i)] == in[i]`, whichever of the two forms applies
            // it, for a clone taken before the inverse exists and for one
            // taken after (lengths 0 and 1 included by the generator).
            let p = if identity {
                Permutation::identity(v.len())
            } else {
                Permutation::random(v.len(), &mut Prg::from_seed(seed))
            };
            let cold = p.clone();
            let out = p.apply(&v);
            let warm = p.clone();
            for q in [&p, &cold, &warm] {
                let mut into = vec![u64::MAX; v.len()];
                q.apply_into(&v, &mut into);
                prop_assert_eq!(&into, &out);
                prop_assert_eq!(q, &p);
            }
            for (i, item) in v.iter().enumerate() {
                prop_assert_eq!(out[p.dest(i)], *item);
            }
            prop_assert_eq!(p.inverse().inverse(), p.clone());
            prop_assert_eq!(p.inverse().apply(&out), v);
        }

        #[test]
        fn prop_apply_into_matches_apply(seed: u64, v in proptest::collection::vec(any::<u64>(), 0..100)) {
            let mut prg = Prg::from_seed(seed);
            let p = Permutation::random(v.len(), &mut prg);
            let mut out = vec![0u64; v.len()];
            p.apply_into(&v, &mut out);
            prop_assert_eq!(out, p.apply(&v));
        }

        #[test]
        fn prop_apply_preserves_multiset(seed: u64, v in proptest::collection::vec(any::<u64>(), 0..100)) {
            let mut prg = Prg::from_seed(seed);
            let p = Permutation::random(v.len(), &mut prg);
            let mut before = v.clone();
            let mut after = p.apply(&v);
            before.sort_unstable();
            after.sort_unstable();
            prop_assert_eq!(before, after);
        }

        #[test]
        fn prop_family_equation_holds(seed: u64, n in 1usize..100) {
            let mut prg = Prg::from_seed(seed);
            let fam = PermutationFamily::generate(n, &mut prg);
            prop_assert_eq!(fam.pf_db1.then(&fam.pf_s1), fam.pf_db2.then(&fam.pf_s2));
        }
    }
}
