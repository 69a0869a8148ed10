//! Domain maps: the "publicly known hash function" of §5.1.
//!
//! PRISM requires every owner to map each distinct `A_c` value to the *same*
//! cell of a `b = |Dom(A_c)|`-length table, with no two domain values
//! sharing a cell. That is a perfect (collision-free) mapping over a known
//! domain. We provide three constructions:
//!
//! * [`DenseIntDomain`] — contiguous integer domains (`OK` in the TPC-H
//!   experiments): the map is a subtraction.
//! * [`EnumeratedDomain`] — arbitrary categorical domains (the `disease`
//!   column of the running example): sorted order gives the index.
//! * [`ProductDomain`] — row-major composition for multi-attribute PSI
//!   (§6.6: `b = |Π Dom(A_i)|`).

use serde::{Deserialize, Serialize};

/// A value → cell-index map over a fixed domain of size `size()`.
pub trait DomainMap<T: ?Sized> {
    /// Number of cells `b`.
    fn size(&self) -> usize;
    /// Cell index for a value, or `None` if the value is outside the domain.
    fn index_of(&self, value: &T) -> Option<usize>;
}

/// Contiguous integer domain `[lo, hi]` (inclusive).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct DenseIntDomain {
    /// Smallest domain value.
    pub lo: u64,
    /// Largest domain value.
    pub hi: u64,
}

impl DenseIntDomain {
    /// Build the domain `[lo, hi]`; panics if empty.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty integer domain [{lo}, {hi}]");
        DenseIntDomain { lo, hi }
    }

    /// The domain `[1, n]` used throughout the paper's experiments
    /// ("5M OK domain size (1-5M)").
    pub fn one_to(n: u64) -> Self {
        DenseIntDomain::new(1, n)
    }

    /// The value stored in a cell.
    pub fn value_of(&self, index: usize) -> u64 {
        assert!(index < self.size(), "index out of domain");
        self.lo + index as u64
    }
}

impl DomainMap<u64> for DenseIntDomain {
    fn size(&self) -> usize {
        (self.hi - self.lo + 1) as usize
    }

    fn index_of(&self, value: &u64) -> Option<usize> {
        if (self.lo..=self.hi).contains(value) {
            Some((value - self.lo) as usize)
        } else {
            None
        }
    }
}

/// Categorical domain: any `Ord + Clone` value set, indexed by sorted rank.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct EnumeratedDomain<T: Ord> {
    values: Vec<T>,
}

impl<T: Ord + Clone> EnumeratedDomain<T> {
    /// Build from any iterator; duplicates are removed.
    pub fn new(values: impl IntoIterator<Item = T>) -> Self {
        let mut values: Vec<T> = values.into_iter().collect();
        values.sort();
        values.dedup();
        assert!(!values.is_empty(), "empty enumerated domain");
        EnumeratedDomain { values }
    }

    /// The value stored in a cell.
    pub fn value_of(&self, index: usize) -> &T {
        &self.values[index]
    }

    /// All domain values in cell order.
    pub fn values(&self) -> &[T] {
        &self.values
    }
}

impl<T: Ord + Clone> DomainMap<T> for EnumeratedDomain<T> {
    fn size(&self) -> usize {
        self.values.len()
    }

    fn index_of(&self, value: &T) -> Option<usize> {
        self.values.binary_search(value).ok()
    }
}

/// Multi-attribute product domain (§6.6): cell index is the row-major
/// combination of per-attribute indices, `b = Π bᵢ`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ProductDomain {
    dims: Vec<DenseIntDomain>,
    size: usize,
}

impl ProductDomain {
    /// Compose integer domains; panics if the product overflows `usize`.
    pub fn new(dims: Vec<DenseIntDomain>) -> Self {
        assert!(!dims.is_empty(), "empty product domain");
        let size = dims.iter().fold(1usize, |acc, d| {
            acc.checked_mul(d.size())
                .expect("product domain size overflows usize")
        });
        ProductDomain { dims, size }
    }

    /// Row-major index of a tuple, or `None` if any coordinate is outside
    /// its attribute domain or the arity mismatches.
    pub fn index_of_tuple(&self, tuple: &[u64]) -> Option<usize> {
        if tuple.len() != self.dims.len() {
            return None;
        }
        let mut idx = 0usize;
        for (d, v) in self.dims.iter().zip(tuple) {
            idx = idx * d.size() + d.index_of(v)?;
        }
        Some(idx)
    }

    /// Inverse of [`Self::index_of_tuple`].
    pub fn tuple_of(&self, mut index: usize) -> Vec<u64> {
        assert!(index < self.size, "index out of product domain");
        let mut out = vec![0u64; self.dims.len()];
        for (slot, d) in out.iter_mut().zip(&self.dims).rev() {
            let b = d.size();
            *slot = d.value_of(index % b);
            index /= b;
        }
        out
    }
}

impl DomainMap<[u64]> for ProductDomain {
    fn size(&self) -> usize {
        self.size
    }

    fn index_of(&self, value: &[u64]) -> Option<usize> {
        self.index_of_tuple(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_domain_maps_and_inverts() {
        let d = DenseIntDomain::one_to(100);
        assert_eq!(d.size(), 100);
        assert_eq!(d.index_of(&1), Some(0));
        assert_eq!(d.index_of(&100), Some(99));
        assert_eq!(d.index_of(&0), None);
        assert_eq!(d.index_of(&101), None);
        for i in 0..100 {
            assert_eq!(d.index_of(&d.value_of(i)), Some(i));
        }
    }

    #[test]
    fn enumerated_domain_matches_paper_example() {
        // Diseases across Tables 1–3: cancer, fever, heart.
        let d = EnumeratedDomain::new(["Heart", "Cancer", "Fever", "Cancer"]);
        assert_eq!(d.size(), 3);
        assert_eq!(d.index_of(&"Cancer"), Some(0));
        assert_eq!(d.index_of(&"Fever"), Some(1));
        assert_eq!(d.index_of(&"Heart"), Some(2));
        assert_eq!(d.index_of(&"Flu"), None);
    }

    #[test]
    fn product_domain_row_major() {
        // §6.6 Example: |Dom(A)| = 8, |Dom(B)| = 2 ⇒ 16 cells.
        let p = ProductDomain::new(vec![DenseIntDomain::one_to(8), DenseIntDomain::one_to(2)]);
        assert_eq!(DomainMap::<[u64]>::size(&p), 16);
        assert_eq!(p.index_of_tuple(&[1, 1]), Some(0));
        assert_eq!(p.index_of_tuple(&[1, 2]), Some(1));
        assert_eq!(p.index_of_tuple(&[2, 1]), Some(2));
        assert_eq!(p.index_of_tuple(&[8, 2]), Some(15));
        assert_eq!(p.index_of_tuple(&[9, 1]), None);
        assert_eq!(p.index_of_tuple(&[1]), None);
    }

    #[test]
    fn product_domain_tuple_roundtrip() {
        let p = ProductDomain::new(vec![
            DenseIntDomain::new(5, 9),
            DenseIntDomain::one_to(3),
            DenseIntDomain::new(0, 1),
        ]);
        for idx in 0..DomainMap::<[u64]>::size(&p) {
            let t = p.tuple_of(idx);
            assert_eq!(p.index_of_tuple(&t), Some(idx));
        }
    }

    #[test]
    #[should_panic(expected = "empty integer domain")]
    fn dense_rejects_empty() {
        DenseIntDomain::new(5, 4);
    }

    proptest! {
        #[test]
        fn prop_dense_roundtrip(lo in 0u64..1000, width in 0u64..1000, off in 0u64..1000) {
            let d = DenseIntDomain::new(lo, lo + width);
            let v = lo + off % (width + 1);
            let idx = d.index_of(&v).unwrap();
            prop_assert_eq!(d.value_of(idx), v);
        }

        #[test]
        fn prop_enumerated_is_injective(vals in proptest::collection::btree_set(any::<u32>(), 1..100)) {
            let d = EnumeratedDomain::new(vals.iter().copied());
            let mut seen = std::collections::HashSet::new();
            for v in &vals {
                let idx = d.index_of(v).unwrap();
                prop_assert!(seen.insert(idx));
                prop_assert!(idx < d.size());
            }
        }

        #[test]
        fn prop_product_indices_unique(a in 1u64..12, b in 1u64..12, c in 1u64..12) {
            let p = ProductDomain::new(vec![
                DenseIntDomain::one_to(a),
                DenseIntDomain::one_to(b),
                DenseIntDomain::one_to(c),
            ]);
            let mut seen = std::collections::HashSet::new();
            for x in 1..=a {
                for y in 1..=b {
                    for z in 1..=c {
                        let idx = p.index_of_tuple(&[x, y, z]).unwrap();
                        prop_assert!(seen.insert(idx));
                    }
                }
            }
            prop_assert_eq!(seen.len(), (a * b * c) as usize);
        }
    }
}
