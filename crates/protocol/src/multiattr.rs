//! PSI over multiple attributes (§6.6).
//!
//! `SELECT A_c, A_x FROM db1 INTERSECT …` is PSI over the product domain
//! `Dom(A_c) × Dom(A_x) × …`: each tuple maps to one cell of a table of
//! length `b = Π |Dom(A_i)|` and the single-attribute machinery runs
//! unchanged: an owner names a tuple's cell with
//! [`ProductDomain::index_of_tuple`]. This module decodes the common cells
//! back into tuples; the [`crate::plans::PsiTuples`] round plan (and
//! `Cluster::psi_common_tuples`) runs product-domain PSI end-to-end. For
//! large products, use [`crate::bucket`] to avoid touching all `b` cells.

use prism_core::ProductDomain;

/// Decode the common cells of a product-domain PSI back into tuples.
pub(crate) fn decode_common_tuples(fop: &[u64], domain: &ProductDomain) -> Vec<Vec<u64>> {
    fop.iter()
        .enumerate()
        .filter(|&(_, &v)| v == 1)
        .map(|(i, _)| domain.tuple_of(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, SystemConfig};
    use crate::psi;
    use crate::tables::share_indicator;
    use prism_core::{DenseIntDomain, Prg};

    fn product_2x8() -> ProductDomain {
        // §6.6 Example 6.6.1: |Dom(A)| = 8, |Dom(B)| = 2 ⇒ 16 cells.
        ProductDomain::new(vec![DenseIntDomain::one_to(8), DenseIntDomain::one_to(2)])
    }

    #[test]
    fn multiattr_psi_end_to_end() {
        let d = product_2x8();
        let b = prism_core::DomainMap::<[u64]>::size(&d);
        // Owner tuple sets with intersection {(3,1), (8,2)}.
        let owners = [
            vec![vec![3u64, 1], vec![8, 2], vec![1, 1]],
            vec![vec![3u64, 1], vec![8, 2], vec![2, 2]],
            vec![vec![3u64, 1], vec![8, 2], vec![5, 1]],
        ];
        let setup = Initiator::new(SystemConfig::new(3, b).with_seed(71))
            .setup()
            .unwrap();
        let uploads: Vec<_> = owners
            .iter()
            .enumerate()
            .map(|(j, tuples)| {
                let mut indicator = vec![0u64; b];
                for t in tuples {
                    indicator[d.index_of_tuple(t).unwrap()] = 1;
                }
                let mut prg = Prg::from_seed(700 + j as u64);
                share_indicator(&indicator, setup.owner.delta, &mut prg)
            })
            .collect();
        let s1: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2: Vec<&[u64]> = uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = psi::server_psi_round(&s1, &setup.servers[0], 1).unwrap();
        let o2 = psi::server_psi_round(&s2, &setup.servers[1], 1).unwrap();
        let fop = psi::owner_combine(&o1, &o2, &setup.owner).unwrap();
        let mut tuples = decode_common_tuples(&fop, &d);
        tuples.sort();
        assert_eq!(tuples, vec![vec![3, 1], vec![8, 2]]);
    }

    #[test]
    fn empty_rows_empty_intersection() {
        let d = product_2x8();
        assert!(decode_common_tuples(&[0; 16], &d).is_empty());
    }
}
